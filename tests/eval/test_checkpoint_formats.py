"""Checkpoint file formats: corruption, format-1 compatibility, slice writes.

* Corrupt checkpoints raise only :class:`CheckpointError`.  A small real
  checkpoint of each format is truncated at any byte, bit-flipped at any
  bit or extended by a line; :func:`load_snapshot` must then either raise
  ``CheckpointError`` or return exactly the payload that was written, and
  :func:`load_latest` must fall back to the previous generation.
* A format-1 checkpoint still resumes to the uninterrupted run's result.
* Each run writes one snapshot, and the branch-set table stores every
  distinct parent-branch set once.

``data/checkpoint-format1-lists.json`` is an unedited file of the format-1
writer: generation 1 of a campaign on :data:`SUBJECT_SOURCE` (seed 7,
settrace, 200-execution budget, ``checkpoint_every=40``).  Branch arcs name
their source file, so the subject is compiled under the fixed name
:data:`SUBJECT_FILE` rather than imported from a checkout's path: its arcs,
and the path signatures hashed from them, are then the same everywhere.
"""

import json
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.eval.checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    list_generations,
    load_latest,
    load_snapshot,
    result_fingerprint,
    save_snapshot,
)
from repro.runtime.arcs import arc_table_for
from repro.subjects.registry import load_subject

FIXTURE = Path(__file__).parent / "data" / "checkpoint-format1-lists.json"

#: The fixture campaign, run to its full budget.
FIXTURE_CONFIG = dict(seed=7, max_executions=200, checkpoint_every=40)

SUBJECT_FILE = "<checkpoint-fixture>/lists.py"
SUBJECT_SOURCE = '''\
from repro.runtime.errors import ParseError
from repro.subjects.base import Subject


class ListSubject(Subject):
    """Nested lists of digits: ``7``, ``[]``, ``[1,[2,3]]``."""

    name = "lists"

    def parse(self, stream):
        self._value(stream, 0)
        end = stream.peek()
        if not end.is_eof:
            raise ParseError(f"trailing input at {end.index}", end.index)
        return 0

    def _value(self, stream, depth):
        lookahead = stream.peek()
        if lookahead.isdigit():
            stream.next_char()
            return
        if lookahead != "[" or depth > 20:
            raise ParseError(f"expected a value at {lookahead.index}", lookahead.index)
        stream.next_char()
        if stream.peek() == "]":
            stream.next_char()
            return
        while True:
            self._value(stream, depth + 1)
            separator = stream.peek()
            if separator == "]":
                stream.next_char()
                return
            if separator != ",":
                raise ParseError(f"expected ',' or ']' at {separator.index}", separator.index)
            stream.next_char()
'''

#: The older generation a corrupt newest one must fall back to.
PREVIOUS = {"executions": 1}


def _fixture_subject():
    """A fresh :data:`SUBJECT_SOURCE` subject (its module is compiled once)."""
    module = sys.modules.get("checkpoint_fixture_lists")
    if module is None:
        module = types.ModuleType("checkpoint_fixture_lists")
        module.__file__ = SUBJECT_FILE
        # Subject.modules() looks the class's module up here.
        sys.modules[module.__name__] = module
        exec(compile(SUBJECT_SOURCE, SUBJECT_FILE, "exec"), module.__dict__)
    return module.ListSubject()


def _format_1_checkpoint(directory: Path) -> Path:
    """The format-1 fixture, copied as generation 1 into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "ckpt-00000001.json"
    path.write_bytes(FIXTURE.read_bytes())
    return path


def _format_2_checkpoint(directory: Path) -> Path:
    """The same campaign's first snapshot, from the current writer."""
    config = FuzzerConfig(
        checkpoint_dir=str(directory), checkpoint_keep=100, **FIXTURE_CONFIG
    )
    PFuzzer(_fixture_subject(), config).run()
    return directory / "ckpt-00000001.json"


@pytest.fixture(scope="module", params=["format-1", "format-2"])
def original(request, tmp_path_factory):
    """``(file bytes, payload)`` of one small real checkpoint."""
    directory = tmp_path_factory.mktemp(request.param)
    if request.param == "format-1":
        path = _format_1_checkpoint(directory)
    else:
        path = _format_2_checkpoint(directory)
    data = path.read_bytes()
    assert data.count(b"\n") == (0 if request.param == "format-1" else 2)
    return data, load_snapshot(path)[1]


def test_fixtures_load_in_their_format(original):
    _, payload = original
    assert payload["executions"] == 41
    assert payload["queue"]["entries"]


def _position(data: bytes, scale: int):
    """Any position in ``data`` (times ``scale``), or one in its first 128
    bytes: the format-2 header is short, and uniform draws rarely hit it."""
    size = len(data) * scale
    return st.one_of(
        st.integers(0, min(size, 128 * scale) - 1), st.integers(0, size - 1)
    )


def _corruptions(data: bytes):
    truncated = _position(data, 1).map(lambda cut: data[:cut])

    def flip(bit: int) -> bytes:
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        return bytes(flipped)

    last_line = data.rstrip(b"\n").rsplit(b"\n", 1)[-1]
    line = st.one_of(
        st.binary(max_size=40).map(lambda junk: junk.replace(b"\n", b"")),
        st.just(last_line),
    )
    terminated = b"" if data.endswith(b"\n") else b"\n"
    appended = line.map(lambda extra: data + terminated + extra + b"\n")
    return st.one_of(truncated, _position(data, 8).map(flip), appended)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_corrupt_checkpoint_raises_only_checkpoint_error(original, data):
    written, payload = original
    corrupt = data.draw(_corruptions(written), label="corrupt file")
    with tempfile.TemporaryDirectory() as workdir:
        directory = Path(workdir)
        save_snapshot(directory, PREVIOUS, generation=1)
        newest = directory / "ckpt-00000002.json"
        newest.write_bytes(corrupt)
        try:
            _, loaded = load_snapshot(newest)
        except CheckpointError:
            assert load_latest(directory) == (1, PREVIOUS)
        else:
            assert loaded == payload
            assert load_latest(directory)[1] == payload


# --------------------------------------------------------------------- #
# Format-1 compatibility
# --------------------------------------------------------------------- #


def test_format_1_checkpoint_resumes_to_uninterrupted_result(tmp_path):
    reference = PFuzzer(
        _fixture_subject(),
        FuzzerConfig(seed=7, max_executions=FIXTURE_CONFIG["max_executions"]),
    ).run()
    directory = tmp_path / "ckpt"
    _format_1_checkpoint(directory)
    resumed = PFuzzer(
        _fixture_subject(),
        FuzzerConfig(checkpoint_dir=str(directory), resume=True, **FIXTURE_CONFIG),
    ).run()
    assert resumed.resumes == 1
    table = arc_table_for(_fixture_subject())
    assert result_fingerprint(resumed, table) == result_fingerprint(
        reference, table
    )
    # Every generation written after the resume is format 2.
    newest = list_generations(directory)[-1]
    header = (directory / f"ckpt-{newest:08d}.json").read_text().split("\n")[0]
    assert json.loads(header)["version"] == FORMAT_VERSION


# --------------------------------------------------------------------- #
# What the fuzzer writes
# --------------------------------------------------------------------- #


def test_each_run_writes_one_snapshot(tmp_path):
    """A run that ends on preemption or budget writes one snapshot, not a
    cadence snapshot and then an end-of-run snapshot of the same state."""
    config = FuzzerConfig(
        seed=5,
        max_executions=200,
        checkpoint_dir=str(tmp_path),
        checkpoint_every=50,
        checkpoint_keep=1_000,
        resume=True,
    )
    runs = 0
    while True:
        result = PFuzzer(
            load_subject("expr"),
            config,
            should_preempt=lambda run_execs, _total: run_execs >= 50,
        ).run()
        runs += 1
        assert len(list_generations(tmp_path)) == runs
        if not result.preempted:
            break
    assert result.executions == 200
    reference = PFuzzer(
        load_subject("expr"), FuzzerConfig(seed=5, max_executions=200)
    ).run()
    assert result_fingerprint(result) == result_fingerprint(reference)


def test_uninterrupted_run_skips_the_duplicate_final_snapshot(tmp_path):
    config = FuzzerConfig(
        seed=5,
        max_executions=200,
        checkpoint_dir=str(tmp_path),
        checkpoint_every=50,
        checkpoint_keep=1_000,
    )
    PFuzzer(load_subject("expr"), config).run()
    executions = [
        load_snapshot(tmp_path / f"ckpt-{generation:08d}.json")[1]["executions"]
        for generation in list_generations(tmp_path)
    ]
    assert executions == sorted(set(executions))
    assert executions[-1] == 200


def test_branch_sets_store_each_set_once_and_restore_shared():
    fuzzer = PFuzzer(
        load_subject("json"), FuzzerConfig(seed=4, max_executions=300)
    )
    fuzzer.run()
    payload = fuzzer.snapshot()
    queue = payload["queue"]
    branch_sets = queue["branch_sets"]
    assert len({tuple(local) for local in branch_sets}) == len(branch_sets)
    distinct = {candidate.parent_branches.tobytes() for candidate in fuzzer._queue}
    assert len(branch_sets) == len(distinct) < len(queue["entries"])
    restored = PFuzzer(load_subject("json"), fuzzer.config)
    restored.restore(payload)
    shared = {id(candidate.parent_branches) for candidate in restored._queue}
    assert len(shared) == len(branch_sets)
    table = arc_table_for(load_subject("json"))
    assert [
        table.decode(candidate.parent_branches) for candidate in restored._queue
    ] == [table.decode(candidate.parent_branches) for candidate in fuzzer._queue]


def test_resume_is_timed_in_the_checkpoint_phase(tmp_path):
    from repro.obs.trace import InMemoryTraceRecorder

    config = dict(
        seed=2, checkpoint_dir=str(tmp_path), checkpoint_every=1_000
    )
    PFuzzer(load_subject("expr"), FuzzerConfig(max_executions=60, **config)).run()
    stored = load_latest(tmp_path)[1]["phase_times"]["checkpoint"]
    recorder = InMemoryTraceRecorder()
    result = PFuzzer(
        load_subject("expr"),
        FuzzerConfig(max_executions=60, resume=True, **config),
        tracer=recorder,
    ).run()
    spans = [event for event in recorder.events if event["type"] == "span"]
    # Nothing runs (the budget is spent): load plus restore, then the
    # end-of-run write, both added to the restored total.
    assert [span["phase"] for span in spans] == ["checkpoint", "checkpoint"]
    assert result.phase_times["checkpoint"] == pytest.approx(
        stored + sum(span["dur"] for span in spans), abs=1e-5
    )
