"""Queue hygiene at scale: what a cull pass buys the rescore loop.

Every emitted valid input rescores the whole queue — an O(n) pass over
all stored entries, dead or alive.  On branch-heavy subjects the heap
accumulates dead entries (texts that already executed) and dominated
duplicates; ``CandidateQueue.cull`` removes them without changing any
campaign result (DESIGN.md §10), so every subsequent rescore pays only
for the live frontier.

This benchmark builds a synthetic 12k-entry queue with a worst-case
hygiene profile (half dead, a quarter dominated duplicates, a quarter
live; in real json and url campaigns about 0.01% of queued entries are
dead), measures a rescore over the dirty heap, the cull pass itself, and
a rescore over the culled heap, and reports the rescore speedup.  The
expected result: the cull pass costs about one rescore, and each later
rescore runs ~4x faster — the pass pays for itself within one emitted
valid input.

The tracked trajectory lives in repo-root ``BENCH_queue_cull.json``: run
with ``REPRO_BENCH_WRITE=1`` to append an entry; ``REPRO_BENCH_SMOKE=1``
keeps the measurement but skips the speedup assertion (timings on shared
CI runners are advisory — this benchmark is non-blocking there).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from bench_common import REPO_ROOT, append_trajectory_entry, load_trajectory
from repro.core.candidate import Candidate
from repro.core.queue import CandidateQueue

BENCH_PATH = REPO_ROOT / "BENCH_queue_cull.json"

ENTRIES = 12_000
ARC_SPACE = 2_000  # distinct interned arc ids
ARCS_PER_CANDIDATE = 40
ROUNDS = 5


def _score(candidate: Candidate) -> float:
    # The vBr-dependent shape of the real heuristic: cached new-branch
    # count plus a couple of metadata terms.
    count = candidate.new_count
    if count is None:
        count = len(candidate.parent_branches)
        candidate.new_count = count
    return count + 1.0 / (1 + candidate.parents) - 0.01 * len(candidate.text)


def _build_queue() -> tuple[CandidateQueue, set]:
    """A dirty queue: 50% dead, 25% dominated duplicates, 25% live."""
    rng = random.Random(2019)
    seen: set = set()
    queue = CandidateQueue(_score, limit=4 * ENTRIES, seen=seen)
    live = ENTRIES // 4
    for index in range(live):
        branches = sorted(rng.sample(range(ARC_SPACE), ARCS_PER_CANDIDATE))
        candidate = Candidate(
            text=f"input-{index}",
            replacement=str(index % 10),
            parents=index % 7,
            parent_branches=branches,
            avg_stack=float(index % 5),
            path_signature=index % 97,
        )
        queue.push(candidate)
        # One dominated duplicate (identical metadata, later push) ...
        queue.push(
            Candidate(
                text=candidate.text,
                replacement=candidate.replacement,
                parents=candidate.parents,
                parent_branches=branches,
                avg_stack=candidate.avg_stack,
                path_signature=candidate.path_signature,
            )
        )
        # ... and two dead entries (texts that already executed).
        for death in range(2):
            dead_text = f"dead-{index}-{death}"
            seen.add(dead_text)
            queue.push(
                Candidate(
                    text=dead_text,
                    parent_branches=sorted(
                        rng.sample(range(ARC_SPACE), ARCS_PER_CANDIDATE)
                    ),
                )
            )
    assert len(queue) == ENTRIES
    return queue, seen


def _rescore_seconds(queue: CandidateQueue, rng: random.Random) -> float:
    start = time.perf_counter()
    for _ in range(ROUNDS):
        queue.rescore(rng.sample(range(ARC_SPACE), 25))
    return (time.perf_counter() - start) / ROUNDS


def _measure() -> dict:
    queue, seen = _build_queue()
    dirty_depth = len(queue)
    rescore_dirty = _rescore_seconds(queue, random.Random(7))
    start = time.perf_counter()
    stats = queue.cull(seen)
    cull_seconds = time.perf_counter() - start
    assert stats.dead == ENTRIES // 2
    assert stats.dominated == ENTRIES // 4
    rescore_culled = _rescore_seconds(queue, random.Random(7))
    return {
        "dirty_depth": dirty_depth,
        "culled_depth": len(queue),
        "rescore_dirty_ms": rescore_dirty * 1e3,
        "rescore_culled_ms": rescore_culled * 1e3,
        "cull_ms": cull_seconds * 1e3,
        "rescore_speedup": rescore_dirty / rescore_culled,
    }


def test_bench_queue_cull_speeds_up_rescore(benchmark):
    measured = benchmark.pedantic(_measure, rounds=1, iterations=1)
    print("\n\n=== queue hygiene: rescore cost, dirty vs culled ===")
    print(
        f"  dirty   {measured['dirty_depth']:6d} entries   "
        f"rescore {measured['rescore_dirty_ms']:7.2f} ms"
    )
    print(
        f"  culled  {measured['culled_depth']:6d} entries   "
        f"rescore {measured['rescore_culled_ms']:7.2f} ms"
    )
    print(
        f"  cull pass {measured['cull_ms']:7.2f} ms   "
        f"rescore speedup {measured['rescore_speedup']:.2f}x"
    )
    benchmark.extra_info.update(measured)
    trajectory = load_trajectory(BENCH_PATH)
    if os.environ.get("REPRO_BENCH_WRITE"):
        append_trajectory_entry(BENCH_PATH, measured)
    elif trajectory:
        committed = trajectory[-1]
        print(
            f"  committed entry {committed['git_rev']}: "
            f"speedup {committed['rates']['rescore_speedup']:.2f}x"
        )
    if os.environ.get("REPRO_BENCH_SMOKE"):
        pytest.skip("smoke mode: measured, speedup assertion skipped")
    # With 75% of entries removed, the live rescore must be clearly
    # cheaper; 2x leaves generous noise headroom below the ~4x expected.
    assert measured["rescore_speedup"] >= 2.0
