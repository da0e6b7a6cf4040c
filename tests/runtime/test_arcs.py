"""Path signatures: stable values, one hash per execution.

Corpus-store JSONL records and checkpoint ``valid_signatures`` persist
``ArcTable.signature`` values, so a faster implementation must give the
same bits.  The reference below is the original implementation — one
blake2b update per sorted arc digest — kept here as the oracle.
"""

from hashlib import blake2b

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.runtime.arcs import ArcTable
from repro.runtime.harness import run_subject
from repro.subjects.registry import load_subject


def reference_signature(table: ArcTable, arc_ids) -> int:
    hasher = blake2b(digest_size=8)
    for digest in sorted(table.digest(arc_id) for arc_id in arc_ids):
        hasher.update(digest)
    return int.from_bytes(hasher.digest(), "big")


line_arcs = st.tuples(
    st.sampled_from(["/src/a.py", "/src/b.py"]),
    st.integers(0, 400),
    st.integers(1, 400),
)
aux_arcs = st.tuples(st.just("table:json"), st.text(max_size=4), st.text(max_size=4))


@given(st.lists(st.one_of(line_arcs, aux_arcs), max_size=60), st.randoms())
def test_signature_matches_sequential_reference(arcs, random):
    table = ArcTable()
    # Intern in a shuffled order: ids must not matter, only the arc set.
    shuffled = list(arcs)
    random.shuffle(shuffled)
    for arc in shuffled:
        table.intern(arc)
    arc_ids = [table.intern(arc) for arc in arcs]
    assert table.signature(arc_ids) == reference_signature(table, arc_ids)
    # A fresh table with digests still uncached gives the same value.
    fresh = ArcTable()
    fresh_ids = [fresh.intern(arc) for arc in arcs]
    assert fresh.signature(fresh_ids) == table.signature(arc_ids)


def test_signature_of_fixed_arc_set_is_pinned():
    """Persisted signatures must never change: this value was written by
    the sequential implementation."""
    table = ArcTable()
    arcs = [
        ("/src/subject.py", 0, 12),
        ("/src/subject.py", 12, 14),
        ("/src/subject.py", 14, 12),
        ("table:json", "value", "number"),
        ("crash", "RecursionError", "/src/subject.py", 31),
    ]
    arc_ids = [table.intern(arc) for arc in arcs]
    assert table.signature(arc_ids) == 0x16C4E7F1CACBB7F7
    assert table.signature(arc_ids[:1]) == 0x07A78B19A22EFAC3
    assert table.signature([]) == 16476032584258269876


def test_path_signature_is_computed_once_per_result(monkeypatch):
    calls = []
    original = ArcTable.signature

    def counted(self, arc_ids):
        calls.append(1)
        return original(self, arc_ids)

    monkeypatch.setattr(ArcTable, "signature", counted)
    result = run_subject(load_subject("json"), '{"a": [1]}', coverage_backend="ast")
    first = result.path_signature()
    assert result.path_signature() == first
    assert len(calls) == 1
    assert first == original(result.arc_table, result.arcs)


def test_json_campaign_hashes_each_path_at_most_once(monkeypatch):
    calls = []
    original = ArcTable.signature

    def counted(self, arc_ids):
        calls.append(1)
        return original(self, arc_ids)

    monkeypatch.setattr(ArcTable, "signature", counted)
    config = FuzzerConfig(seed=700000, max_executions=600, coverage_backend="ast")
    result = PFuzzer(load_subject("json"), config).run()
    assert result.valid_inputs  # emits went through _handle_valid
    assert len(calls) <= result.executions
