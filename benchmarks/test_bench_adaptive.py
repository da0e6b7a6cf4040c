"""Adaptive scheduling acceptance: compute follows coverage gain.

The tentpole scenario from the adaptive-scheduling issue: a mixed fleet
of one *productive* job (still discovering on every slice) and one
*plateaued* job (a first-slice burst, then a dead flat line), fixed
seeds, one worker.  The blind stride scheduler splits slices evenly, so
by the time the productive job reaches its target coverage the fleet has
spent roughly twice the productive job's budget.  The adaptive scheduler
parks the plateau after a few low-gain slices and probes it
periodically, so the same target costs little more than the productive
budget alone.

The fleet is synthetic — the real :class:`CampaignScheduler` and
:class:`JobStore` drive a deterministic in-process fake worker pool — so
the measured quantity (fleet executions spent until the productive job
finishes) is an exact, machine-independent number, not a timing.  The
acceptance criterion: adaptive reaches the productive job's target in
**<= 60%** of the blind scheduler's executions.

The tracked trajectory lives in repo-root ``BENCH_adaptive.json``: run
with ``REPRO_BENCH_WRITE=1`` to append an entry; ``REPRO_BENCH_SMOKE=1``
keeps the measurement but skips the acceptance assertion.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from bench_common import REPO_ROOT, append_trajectory_entry, load_trajectory
from repro.eval.campaign import ToolOutput
from repro.service.gain import GainConfig
from repro.service.jobs import JobSpec, JobState, JobStore
from repro.service.scheduler import (
    CampaignScheduler,
    SchedulerConfig,
    SliceResult,
)

#: Tracked trajectory (committed; see module docstring).
BENCH_PATH = REPO_ROOT / "BENCH_adaptive.json"

SLICE = 100
BUDGET = 30 * SLICE  # per job

#: Park a plateau within a few 100-execution slices (same knobs the
#: scheduler property tests use).
GAIN = GainConfig(decay=0.99, min_evidence=100.0, pause_threshold=0.02,
                  probe_every=2_000)


@dataclass
class _JobSim:
    profile: Callable[[int], int]  # slice_index -> discoveries
    executions: int = 0
    slices: int = 0
    valid: List[str] = field(default_factory=list)


class _FakePool:
    """Deterministic synchronous stand-in for the scheduler's WorkerPool."""

    def __init__(self, sims: Dict[int, _JobSim]) -> None:
        self.sims = sims
        self.workers: Dict[int, dict] = {}
        self.next_id = 0

    def __len__(self) -> int:
        return len(self.workers)

    def spawn(self) -> int:
        self.workers[self.next_id] = None
        self.next_id += 1
        return self.next_id - 1

    def worker_ids(self) -> List[int]:
        return sorted(self.workers)

    def send(self, worker_id: int, task: dict) -> None:
        self.workers[worker_id] = task

    def drain(self, timeout: float = 0.0) -> List[tuple]:
        messages = []
        for worker_id in sorted(self.workers):
            task = self.workers[worker_id]
            if task is None:
                continue
            self.workers[worker_id] = None
            sim = self.sims[task["seed"]]
            delta = min(task["slice_executions"],
                        task["budget"] - sim.executions)
            hits = min(delta, max(0, sim.profile(sim.slices)))
            sim.slices += 1
            sim.executions += delta
            sim.valid.extend(
                f"s{task['seed']}-{i}"
                for i in range(len(sim.valid), len(sim.valid) + hits)
            )
            done = sim.executions >= task["budget"]
            output = ToolOutput(
                tool="pfuzzer", subject=task["subject"], seed=task["seed"],
                valid_inputs=list(sim.valid), executions=sim.executions,
                wall_time=0.0, queue_depth=1,
            )
            messages.append((
                "ok", worker_id, task["job_id"],
                SliceResult(job_id=task["job_id"], done=done, output=output,
                            fingerprint="fp" if done else None,
                            peak_rss_bytes=0, slice_wall=0.0),
            ))
        return messages

    def reap(self) -> List[tuple]:
        return []

    def remove(self, worker_id: int, terminate: bool = False) -> None:
        self.workers.pop(worker_id, None)

    def shutdown(self) -> None:
        self.workers.clear()


def _executions_to_target(root: Path, adaptive: bool) -> int:
    """Fleet executions spent when the productive job reaches its target
    (its full budget of steady-gain slices — the coverage proxy)."""
    sims = {
        0: _JobSim(profile=lambda s: 5),               # productive
        1: _JobSim(profile=lambda s: 5 if s == 0 else 0),  # plateaued
    }
    store = JobStore(root / "journal.jsonl")
    productive = store.submit(
        JobSpec(subject="expr", budget=BUDGET, seed=0, checkpoint_every=SLICE)
    )
    store.submit(
        JobSpec(subject="expr", budget=BUDGET, seed=1, checkpoint_every=SLICE)
    )
    spent_at_target = {}

    def on_slice(record, metrics, delta, slice_wall, trace_events):
        if (
            record.job_id == productive.job_id
            and record.executions >= BUDGET
            and "target" not in spent_at_target
        ):
            spent_at_target["target"] = scheduler._fleet_executions

    scheduler = CampaignScheduler(
        store,
        root,
        SchedulerConfig(workers=1, slice_executions=SLICE, backoff=0.0,
                        adaptive=adaptive, gain=GAIN),
        on_slice=on_slice,
    )
    scheduler.pool = _FakePool(sims)
    scheduler.run_until_idle()
    assert all(r.state is JobState.DONE for r in store.list())
    return spent_at_target["target"]


def test_bench_adaptive_reaches_target_in_60_percent(benchmark, tmp_path):
    """The adaptive-scheduling acceptance number, exactly reproducible."""
    blind, adaptive = benchmark.pedantic(
        lambda: (
            _executions_to_target(tmp_path / "blind", adaptive=False),
            _executions_to_target(tmp_path / "adaptive", adaptive=True),
        ),
        rounds=1,
        iterations=1,
    )
    ratio = adaptive / blind
    print("\n\n=== adaptive scheduling: executions to productive target ===")
    print(f"  blind stride   {blind:7d} fleet executions")
    print(f"  adaptive       {adaptive:7d} fleet executions")
    print(f"  ratio          {ratio:.3f}  (acceptance: <= 0.60)")
    benchmark.extra_info["blind_executions"] = blind
    benchmark.extra_info["adaptive_executions"] = adaptive
    benchmark.extra_info["ratio"] = ratio
    trajectory = load_trajectory(BENCH_PATH)
    if os.environ.get("REPRO_BENCH_WRITE"):
        append_trajectory_entry(
            BENCH_PATH,
            {
                "blind_executions": blind,
                "adaptive_executions": adaptive,
                "ratio": ratio,
            },
        )
    elif trajectory:
        committed = trajectory[-1]
        print(
            f"  committed entry {committed['git_rev']}: "
            f"ratio {committed['rates']['ratio']:.3f}"
        )
        # The fleet is synthetic and deterministic: any drift from the
        # committed ratio is a scheduling behavior change, not noise.
        assert ratio == pytest.approx(committed["rates"]["ratio"]), (
            "adaptive schedule drifted from the committed trajectory"
        )
    if os.environ.get("REPRO_BENCH_SMOKE"):
        pytest.skip("smoke mode: measured, acceptance assertion skipped")
    assert ratio <= 0.60, (
        f"adaptive needed {ratio:.1%} of the blind scheduler's executions "
        "(acceptance: <= 60%)"
    )
