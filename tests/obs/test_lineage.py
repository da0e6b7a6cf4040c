"""Lineage log: derivation chains, replay, snapshots, trace rebuild."""

import gc

import pytest

from repro.obs.lineage import LineageError, LineageLog, LineageNode


def _while_chain(log):
    """The paper's Figure 1 walkthrough: '' -> ... -> 'while'."""
    root = log.new_node(None, "seed", "", replacement="")
    ext = log.new_node(root, "append", "A", replacement="A")
    sub = log.new_node(
        ext, "substitute", "while", replacement="while",
        at_index=0, cmp_kind="strcmp",
    )
    return root, ext, sub


def test_chain_and_replay():
    log = LineageLog()
    root, ext, sub = _while_chain(log)
    chain = log.chain(sub)
    assert [node.node_id for node in chain] == [root, ext, sub]
    assert chain[0].op == "seed"
    assert log.replay(sub) == "while"
    assert log.replay(ext) == "A"
    assert log.replay(root) == ""


def test_derive_ops():
    assert LineageNode(0, None, "seed", "ab", replacement="ab").derive("") == "ab"
    assert LineageNode(1, 0, "append", "abc", replacement="c").derive("ab") == "abc"
    node = LineageNode(2, 1, "substitute", "aX", replacement="X", at_index=1)
    assert node.derive("abc") == "aX"
    with pytest.raises(LineageError):
        LineageNode(3, 2, "mutate", "x").derive("x")


def test_ids_are_monotonic_from_zero():
    log = LineageLog()
    assert [log.new_node(None, "seed", "a", replacement="a") for _ in range(3)] == [
        0, 1, 2,
    ]
    assert log.next_id == 3
    assert len(log) == 3


def test_unknown_node_and_broken_chain():
    log = LineageLog()
    with pytest.raises(LineageError):
        log.chain(7)
    # orphaned node: parent id never recorded
    log.nodes[5] = LineageNode(5, 4, "append", "xy", replacement="y")
    with pytest.raises(LineageError):
        log.chain(5)


def test_cycle_detection():
    log = LineageLog()
    log.nodes[0] = LineageNode(0, 1, "append", "a", replacement="a")
    log.nodes[1] = LineageNode(1, 0, "append", "b", replacement="b")
    with pytest.raises(LineageError):
        log.chain(0)


def test_find_by_text():
    log = LineageLog()
    _while_chain(log)
    assert log.find_by_text("while") == [2]
    assert log.find_by_text("nope") == []


def test_payload_round_trip():
    log = LineageLog()
    _, _, sub = _while_chain(log)
    rebuilt = LineageLog.from_payload(log.to_payload())
    assert rebuilt.nodes == log.nodes
    assert rebuilt.next_id == log.next_id
    assert rebuilt.replay(sub) == "while"
    # old snapshots without lineage restore as an empty log
    assert len(LineageLog.from_payload(None)) == 0
    assert LineageLog.from_payload(None).next_id == 0


def test_campaign_lineage_rows_are_untracked_and_nodes_behave_as_before():
    """A campaign's lineage rows leave the collector's lists at their first
    collection, while ``nodes`` still reads and writes ``LineageNode``s."""
    from repro.core.config import FuzzerConfig
    from repro.core.fuzzer import PFuzzer
    from repro.subjects.registry import load_subject

    result = PFuzzer(
        load_subject("json"), FuzzerConfig(seed=2, max_executions=400)
    ).run()
    gc.collect()
    assert not any(type(obj) is LineageNode for obj in gc.get_objects())
    nodes = result.lineage.nodes
    assert len(nodes) == len(result.lineage) > 400
    assert all(type(node) is LineageNode for node in nodes.values())
    rebuilt = LineageLog.from_payload(result.lineage.to_payload())
    assert rebuilt.nodes == nodes
    last = rebuilt.next_id
    rebuilt.nodes[last] = LineageNode(last, 0, "append", "xy", replacement="y")
    assert rebuilt.get(last) == rebuilt.nodes[last]
    assert rebuilt.nodes != nodes


def test_from_trace_events():
    v = 1
    events = [
        {"v": v, "type": "campaign_start", "subject": "x", "seed": 0,
         "budget": 1, "executions": 0},
        {"v": v, "type": "candidate_scheduled", "lineage": 0, "parent": None,
         "op": "seed", "text": "A"},
        {"v": v, "type": "candidate_scheduled", "lineage": 1, "parent": 0,
         "op": "append", "text": "Ab", "replacement": "b"},
        {"v": v, "type": "candidate_scheduled", "lineage": 2, "parent": 1,
         "op": "substitute", "text": "AZ", "replacement": "Z"},
        {"v": v, "type": "substitution_applied", "lineage": 2, "parent": 1,
         "at_index": 1, "replacement": "Z", "cmp_kind": "==",
         "cmp_expected": "Z"},
    ]
    log = LineageLog.from_trace_events(events)
    assert len(log) == 3
    assert log.next_id == 3
    # seed replacement falls back to the node text
    assert log.get(0).replacement == "A"
    assert log.get(2).at_index == 1
    assert log.get(2).cmp_kind == "=="
    assert log.replay(2) == "AZ"


# ---------------------------------------------------------------------- #
# Sync boundaries: imports from other shards are "sync"-rooted chains
# ---------------------------------------------------------------------- #


def test_sync_nodes_are_roots_and_replay_to_exact_bytes():
    log = LineageLog()
    node = log.new_node(
        None, "sync", "[s]\nk=v\n", replacement="[s]\nk=v\n",
        cmp_kind="pfuzzer",
    )
    chain = log.chain(node)
    assert [n.op for n in chain] == ["sync"]
    assert log.replay(node) == "[s]\nk=v\n"
    # derive ignores the parent text, like "seed": the imported input is
    # a fresh root, whatever preceded it.
    assert log.get(node).derive("unrelated") == "[s]\nk=v\n"


def test_sync_nodes_survive_payload_and_trace_round_trips():
    log = LineageLog()
    node = log.new_node(None, "sync", "1+2", replacement="1+2",
                        cmp_kind="pfuzzer")
    rebuilt = LineageLog.from_payload(log.to_payload())
    assert rebuilt.replay(node) == "1+2"
    assert rebuilt.get(node).op == "sync"
    events = [
        {"v": 1, "type": "candidate_scheduled", "lineage": 0, "parent": None,
         "op": "sync", "text": "1+2"},
    ]
    from_trace = LineageLog.from_trace_events(events)
    # replacement falls back to the node text for root ops
    assert from_trace.replay(0) == "1+2"


def _sync_import_log(seed, texts):
    """Run one pull against a store holding ``texts``; return the fuzzer."""
    import tempfile
    from pathlib import Path

    from repro.core.config import FuzzerConfig
    from repro.core.fuzzer import PFuzzer
    from repro.eval.corpus_store import CorpusRecord, CorpusStore
    from repro.subjects.expr import ExprSubject

    with tempfile.TemporaryDirectory() as root:
        store = CorpusStore(Path(root) / "corpus.jsonl")
        store.add_records(
            [
                CorpusRecord("expr", "pfuzzer", 99, text,
                             path_signature=index + 1)
                for index, text in enumerate(texts)
            ]
        )
        fuzzer = PFuzzer(
            ExprSubject(),
            FuzzerConfig(
                seed=seed, max_executions=10, sync_store=str(store.path)
            ),
        )
        fuzzer._sync_point(pull=True)
        return fuzzer


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        texts=st.lists(
            st.text(min_size=1, max_size=20), min_size=1, max_size=8,
            unique=True,
        ),
    )
    def test_imported_inputs_record_sync_op_and_replay_exactly(seed, texts):
        """Property (over seeds and imported corpora): every input pulled
        at a sync boundary gets a root ``sync`` lineage node whose chain
        replays to the imported bytes, byte-for-byte."""
        fuzzer = _sync_import_log(seed, texts)
        log = fuzzer._lineage
        sync_nodes = [
            node for node in log.nodes.values() if node.op == "sync"
        ]
        assert {node.text for node in sync_nodes} == set(texts)
        for node in sync_nodes:
            chain = log.chain(node.node_id)
            assert len(chain) == 1  # imports are roots
            assert log.replay(node.node_id) == node.text
        # Canonicalised import order: lineage ids follow sorted text order,
        # independent of store interleaving.
        ordered = sorted(sync_nodes, key=lambda node: node.node_id)
        assert [node.text for node in ordered] == sorted(texts)
except ImportError:  # pragma: no cover - hypothesis is in the image
    pass
