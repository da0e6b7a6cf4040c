"""Preemptive fair-share scheduler: fairness, retries, fault isolation.

The fairness contract asserted here is timing-robust: stride scheduling
gives a never-run job virtual time zero, so *every* queued job must be
dispatched once before any job is dispatched twice — no job waits more
than one round of slices for its first slice, regardless of how slow
individual workers are.
"""

import os

import pytest

from repro.service.jobs import JobSpec, JobState, JobStore
from repro.service.scheduler import (
    CampaignScheduler,
    SchedulerConfig,
    _run_slice,
)


def _scheduler(tmp_path, specs, **config):
    store = JobStore(tmp_path / "journal.jsonl")
    records = [store.submit(spec) for spec in specs]
    scheduler = CampaignScheduler(
        store, tmp_path, SchedulerConfig(**config)
    )
    return store, records, scheduler


# --------------------------------------------------------------------- #
# Fairness: 4 queued jobs, 2 workers
# --------------------------------------------------------------------- #


def test_four_jobs_two_workers_every_job_progresses_each_round(tmp_path):
    specs = [
        JobSpec(subject="expr", budget=240, seed=seed, checkpoint_every=60)
        for seed in range(4)
    ]
    store, records, scheduler = _scheduler(
        tmp_path, specs, workers=2, slice_executions=60
    )
    scheduler.run_until_idle()

    job_ids = [record.job_id for record in records]
    # No starvation: before any job gets its second slice, every job got
    # its first — i.e. the first four dispatches are the four jobs.
    assert set(scheduler.dispatch_log[:4]) == set(job_ids)
    # And the invariant holds round by round for equal-priority jobs:
    # between two consecutive dispatches of one job, every other job is
    # dispatched at least once.
    for job_id in job_ids:
        positions = [
            index
            for index, dispatched in enumerate(scheduler.dispatch_log)
            if dispatched == job_id
        ]
        for start, stop in zip(positions, positions[1:]):
            between = set(scheduler.dispatch_log[start + 1 : stop])
            others = {
                other
                for other in job_ids
                if other != job_id
                and store.get(other).state is not JobState.DONE
            }
            # At the end of the run finished jobs drop out; only require
            # the full interleaving while all four were still active.
            if stop < 4 * 2:
                assert between == set(job_ids) - {job_id}

    for record in store.list():
        assert record.state is JobState.DONE
        assert record.executions == 240
        assert record.result_fingerprint is not None
    # Equal budgets, equal priorities: equal slice counts.
    slice_counts = {record.slices for record in store.list()}
    assert len(slice_counts) == 1


def test_higher_priority_job_gets_proportionally_more_slices(tmp_path):
    specs = [
        JobSpec(subject="expr", budget=300, seed=1, priority=2,
                checkpoint_every=50),
        JobSpec(subject="expr", budget=300, seed=2, priority=1,
                checkpoint_every=50),
    ]
    store, (high, low), scheduler = _scheduler(
        tmp_path, specs, workers=1, slice_executions=50
    )
    scheduler.run_until_idle()
    assert all(r.state is JobState.DONE for r in store.list())
    # While both jobs were live, the priority-2 job received about twice
    # the slices: among the first six dispatches it appears at least four
    # times (a strict alternation would give it exactly three).
    first_six = scheduler.dispatch_log[:6]
    assert first_six.count(high.job_id) >= 4


def test_virtual_time_carries_across_scheduler_restarts(tmp_path):
    """A restarted scheduler must not let an almost-done job starve fresh
    ones: virtual time is rebuilt from journalled executions."""
    specs = [JobSpec(subject="expr", budget=200, seed=1, checkpoint_every=50)]
    store, (veteran,), scheduler = _scheduler(
        tmp_path, specs, workers=1, slice_executions=50
    )
    for _ in range(60):
        scheduler.step(drain_timeout=0.05)
        if store.get(veteran.job_id).executions >= 50:
            break
    scheduler.shutdown()

    reloaded = JobStore(store.journal_path)
    newcomer = reloaded.submit(
        JobSpec(subject="expr", budget=200, seed=9, checkpoint_every=50)
    )
    fresh = CampaignScheduler(
        reloaded, tmp_path, SchedulerConfig(workers=1, slice_executions=50)
    )
    fresh.run_until_idle()
    # The newcomer (virtual time 0) ran before the veteran's next slice.
    assert fresh.dispatch_log[0] == newcomer.job_id
    assert all(r.state is JobState.DONE for r in reloaded.list())


# --------------------------------------------------------------------- #
# Fault isolation: crashes, dead workers, bounded retries
# --------------------------------------------------------------------- #


def _failing_run_slice(tmp_path, mode, fail_times=1):
    """A ``_run_slice`` wrapper that fails its first ``fail_times`` calls.

    The marker directory counts attempts across worker processes (the
    pool forks, so a monkeypatched module function propagates).
    """
    marker_dir = tmp_path / "attempts"
    marker_dir.mkdir(exist_ok=True)

    def flaky(task):
        attempt = len(list(marker_dir.iterdir()))
        (marker_dir / f"attempt-{attempt:03d}-{os.getpid()}").touch()
        if attempt < fail_times:
            if mode == "crash":
                raise RuntimeError("injected slice crash")
            os._exit(13)  # dead worker: EOF on the pipe, reaped by exitcode
        return _run_slice(task)

    return flaky


@pytest.mark.parametrize("mode", ["crash", "die"])
def test_failed_slice_retries_and_still_finishes(tmp_path, monkeypatch, mode):
    import repro.service.scheduler as scheduler_module

    monkeypatch.setattr(
        scheduler_module, "_run_slice", _failing_run_slice(tmp_path, mode)
    )
    specs = [JobSpec(subject="expr", budget=120, seed=1, checkpoint_every=40)]
    store, (record,), scheduler = _scheduler(
        tmp_path, specs, workers=1, slice_executions=60,
        retries=2, backoff=0.01,
    )
    scheduler.run_until_idle()
    final = store.get(record.job_id)
    assert final.state is JobState.DONE
    assert final.executions == 120
    assert final.failures == 0  # reset by the successful slice


def test_exhausted_retries_fail_the_job_with_the_error(tmp_path, monkeypatch):
    import repro.service.scheduler as scheduler_module

    monkeypatch.setattr(
        scheduler_module,
        "_run_slice",
        _failing_run_slice(tmp_path, "crash", fail_times=100),
    )
    specs = [JobSpec(subject="expr", budget=120, seed=1)]
    store, (record,), scheduler = _scheduler(
        tmp_path, specs, workers=1, slice_executions=60,
        retries=1, backoff=0.01,
    )
    scheduler.run_until_idle()
    final = store.get(record.job_id)
    assert final.state is JobState.FAILED
    assert "injected slice crash" in final.error


def test_one_crashing_job_does_not_disturb_its_neighbour(tmp_path, monkeypatch):
    import repro.service.scheduler as scheduler_module

    original = scheduler_module._run_slice

    def poisoned(task):
        if task["seed"] == 666:
            raise RuntimeError("injected slice crash")
        return original(task)

    monkeypatch.setattr(scheduler_module, "_run_slice", poisoned)
    specs = [
        JobSpec(subject="expr", budget=120, seed=666),
        JobSpec(subject="expr", budget=120, seed=1, checkpoint_every=40),
    ]
    store, (doomed, healthy), scheduler = _scheduler(
        tmp_path, specs, workers=2, slice_executions=60,
        retries=0, backoff=0.01,
    )
    scheduler.run_until_idle()
    assert store.get(doomed.job_id).state is JobState.FAILED
    survivor = store.get(healthy.job_id)
    assert survivor.state is JobState.DONE
    assert survivor.executions == 120


# --------------------------------------------------------------------- #
# Cancellation
# --------------------------------------------------------------------- #


def test_cancelled_queued_job_never_runs_but_neighbours_do(tmp_path):
    specs = [
        JobSpec(subject="expr", budget=100, seed=1),
        JobSpec(subject="expr", budget=100, seed=2),
    ]
    store, (victim, survivor), scheduler = _scheduler(
        tmp_path, specs, workers=1, slice_executions=200
    )
    store.transition(victim.job_id, JobState.CANCELLED)
    scheduler.run_until_idle()
    assert store.get(victim.job_id).state is JobState.CANCELLED
    assert store.get(victim.job_id).executions == 0
    assert victim.job_id not in scheduler.dispatch_log
    assert store.get(survivor.job_id).state is JobState.DONE


def test_baseline_plugin_job_runs_on_a_worker_forked_before_its_import(
    tmp_path, monkeypatch
):
    """Every worker of a long-running service was forked before a plugin
    job arrived, so the worker must import the job's subject module
    itself — for baseline tools as for pFuzzer."""
    import sys
    from pathlib import Path

    import repro.subjects.registry as registry

    helpers = str(Path(__file__).resolve().parent.parent / "helpers")
    monkeypatch.syspath_prepend(helpers)
    monkeypatch.setattr(
        registry,
        "_PLUGIN_FACTORIES",
        {
            name: factory
            for name, factory in registry._PLUGIN_FACTORIES.items()
            if name != "radix"
        },
    )
    monkeypatch.delitem(sys.modules, "radix_plugin", raising=False)
    store = JobStore(tmp_path / "journal.jsonl")
    scheduler = CampaignScheduler(
        store, tmp_path, SchedulerConfig(workers=1, retries=0)
    )
    scheduler.pool.spawn()  # forked while "radix" is unknown
    record = store.submit(
        JobSpec(
            tool="random",
            subject="radix",
            budget=60,
            seed=1,
            subject_module="radix_plugin",
        )
    )
    scheduler.run_until_idle()
    final = store.get(record.job_id)
    assert final.state is JobState.DONE, final.error
    assert final.executions == 60


def test_baseline_tools_run_whole_budget_in_one_slice(tmp_path):
    specs = [JobSpec(subject="ini", tool="random", budget=80, seed=1)]
    store, (record,), scheduler = _scheduler(
        tmp_path, specs, workers=1, slice_executions=10
    )
    scheduler.run_until_idle()
    final = store.get(record.job_id)
    assert final.state is JobState.DONE
    assert final.slices == 1
    assert final.executions == 80
    assert final.result_fingerprint is None  # pFuzzer-only
