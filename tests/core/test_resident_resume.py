"""Resuming a preempted campaign from memory equals resuming it from disk.

The campaign service keeps a worker's recent campaigns in memory between
slices (:meth:`repro.core.fuzzer.PFuzzer.resume`).  A campaign continued
that way must pass through exactly the states of one restored from its
checkpoint before every slice: the same checkpoint payload at every
generation, its timing fields aside, and so the same result.
"""

import sys
from pathlib import Path

import pytest

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.eval.checkpoint import load_snapshot, result_fingerprint
from repro.obs.trace import InMemoryTraceRecorder
from repro.runtime.arcs import arc_table_for
from repro.subjects.registry import load_subject, load_subject_module

HELPERS = str(Path(__file__).resolve().parent.parent / "helpers")
if HELPERS not in sys.path:
    sys.path.insert(0, HELPERS)
load_subject_module("crashy_plugin")

#: Executions per slice; checkpoints land mid-slice too, every 40.
SLICE = 100
CHECKPOINT_EVERY = 40

#: The snapshot fields that hold timings, the only ones allowed to differ.
TIMING_FIELDS = ("wall_time", "phase_times")

#: (subject, budget, FuzzerConfig options, shards) per campaign mode.
MODES = {
    "plain": ("json", 600, {}, 1),
    "hybrid": ("json", 900, dict(hybrid=True, mine_after=200, gen_batch=16), 1),
    "crash-hunting": ("crashy", 500, dict(hunt_crashes=True), 1),
    "pooled-batch-4": ("json", 600, dict(executor="pooled", batch_size=4), 1),
    "cull": ("json", 600, dict(cull_every=50), 1),
    "synced-shards": ("expr", 400, dict(sync_every=60), 2),
}


def _preempt(run_executions, _total):
    return run_executions >= SLICE


def _config(root, budget, options, shards, shard):
    group = {}
    if shards > 1:
        group = dict(
            shard_id=shard,
            shard_count=shards,
            sync_store=str(root / "corpus.jsonl"),
        )
    return FuzzerConfig(
        seed=7,
        max_executions=budget,
        coverage_backend="ast",
        checkpoint_dir=str(root / f"shard-{shard}"),
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_keep=1_000,
        resume=True,
        **options,
        **group,
    )


def _sliced(mode, root, from_memory, tracer_factory=None):
    """Run ``mode``'s campaign (its shards in lockstep) slice by slice to
    its budget; each slice continues from memory or restores from disk.
    Returns the final results and, per slice, the tracer it ran with."""
    subject_name, budget, options, shards = MODES[mode]
    fuzzers = [None] * shards
    results = [None] * shards
    tracers = []
    while any(result is None or result.preempted for result in results):
        for shard in range(shards):
            if results[shard] is not None and not results[shard].preempted:
                continue
            tracer = tracer_factory() if tracer_factory else None
            tracers.append(tracer)
            if from_memory and fuzzers[shard] is not None:
                fuzzers[shard].resume(_preempt, tracer)
            else:
                fuzzers[shard] = PFuzzer(
                    load_subject(subject_name),
                    _config(root, budget, options, shards, shard),
                    should_preempt=_preempt,
                    tracer=tracer,
                )
            results[shard] = fuzzers[shard].run()
    return results, tracers


def _generations(directory):
    """Every checkpoint payload in ``directory``, oldest first, without
    its timing fields."""
    payloads = []
    for path in sorted(Path(directory).glob("ckpt-*.json")):
        _, payload = load_snapshot(path)
        for name in TIMING_FIELDS:
            payload.pop(name)
        payloads.append(payload)
    return payloads


@pytest.mark.parametrize("mode", sorted(MODES))
def test_memory_resume_writes_the_checkpoints_of_a_disk_resume(mode, tmp_path):
    live, _ = _sliced(mode, tmp_path / "live", from_memory=True)
    cold, _ = _sliced(mode, tmp_path / "cold", from_memory=False)
    subject = load_subject(MODES[mode][0])
    table = arc_table_for(subject)
    for shard, (ours, theirs) in enumerate(zip(live, cold)):
        live_payloads = _generations(tmp_path / "live" / f"shard-{shard}")
        cold_payloads = _generations(tmp_path / "cold" / f"shard-{shard}")
        # Several slices, each with mid-slice writes, all compared.
        assert len(live_payloads) > MODES[mode][1] // SLICE
        assert live_payloads == cold_payloads
        assert ours.resumes == theirs.resumes > 0
        assert result_fingerprint(ours, table) == result_fingerprint(
            theirs, table
        )
    if mode == "hybrid":
        assert live_payloads[-1]["hybrid"]["phase"] >= 1
    if mode == "crash-hunting":
        assert live_payloads[-1]["crash_inputs"]


def test_memory_resume_traces_like_a_disk_resume(tmp_path):
    """Each slice's tracer sees the same event types, as often, on both
    paths: a ``checkpoint`` span for the resume, ``resumed``, and the
    campaign's own events."""
    live, live_tracers = _sliced(
        "plain", tmp_path / "live", True, InMemoryTraceRecorder
    )
    cold, cold_tracers = _sliced(
        "plain", tmp_path / "cold", False, InMemoryTraceRecorder
    )
    assert len(live_tracers) == len(cold_tracers) > 2
    for ours, theirs in zip(live_tracers, cold_tracers):
        assert ours.counts == theirs.counts
        assert [event["type"] for event in ours.events] == [
            event["type"] for event in theirs.events
        ]
        spans = [
            event["phase"] for event in ours.events if event["type"] == "span"
        ]
        if "resumed" in ours.counts:
            assert spans[0] == "checkpoint"


def test_memory_resume_keeps_phase_totals_and_wall_time(tmp_path):
    subject = load_subject("expr")
    config = _config(tmp_path, 300, {}, 1, 0)
    fuzzer = PFuzzer(subject, config, should_preempt=_preempt)
    first = fuzzer.run()
    totals = dict(first.phase_times)
    wall = first.wall_time
    fuzzer.resume(_preempt)
    second = fuzzer.run()
    assert second.resumes == 1
    assert second.wall_time > wall
    for phase, seconds in totals.items():
        assert second.phase_times[phase] >= seconds


def test_resume_refuses_a_campaign_that_was_not_preempted(expr_subject):
    fuzzer = PFuzzer(expr_subject, FuzzerConfig(seed=1, max_executions=50))
    fuzzer.run()
    with pytest.raises(ValueError, match="preempted"):
        fuzzer.resume(_preempt)
