"""Resident campaigns: a scheduler worker continues the jobs it holds.

Slices run in-process here, each against the resident table of the
"worker" it is scheduled on (the module's table, swapped per worker), so
every placement — same worker, other worker, back again — is explicit.
Whatever the placement, a job must finish with the digest of one
uninterrupted inline run.
"""

import hashlib
from collections import OrderedDict

import pytest

import repro.service.scheduler as scheduler_module
from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.eval.checkpoint import result_fingerprint
from repro.obs.trace import read_trace
from repro.runtime.arcs import arc_table_for
from repro.service.jobs import JobSpec, JobState, JobStore, fuzzer_options
from repro.service.scheduler import (
    RESIDENT_CAMPAIGNS,
    CampaignScheduler,
    SchedulerConfig,
    _run_slice,
)
from repro.subjects.registry import load_subject

SLICE = 80


@pytest.fixture(autouse=True)
def _empty_table(monkeypatch):
    """Each test starts with, and leaves behind, an empty table."""
    monkeypatch.setattr(scheduler_module, "_resident", OrderedDict())


def _task(tmp_path, job_id, seed=3, budget=480, **spec):
    spec = JobSpec(
        subject="json",
        budget=budget,
        seed=seed,
        coverage_backend="ast",
        checkpoint_every=50,
        **spec,
    )
    return dict(
        spec.to_dict(),
        job_id=job_id,
        checkpoint_dir=str(tmp_path / "jobs" / job_id),
        slice_executions=SLICE,
        slice_timeout=None,
        sync_store=None,
    )


def _reference_digest(task):
    subject = load_subject(task["subject"])
    options = {
        name: value
        for name, value in fuzzer_options(task).items()
        if name not in ("checkpoint_dir", "checkpoint_every", "sync_store")
    }
    result = PFuzzer(
        subject,
        FuzzerConfig(seed=task["seed"], max_executions=task["budget"], **options),
    ).run()
    canonical = result_fingerprint(result, arc_table_for(subject))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _on(worker, task):
    """Run one slice of ``task`` on ``worker`` (its resident table)."""
    scheduler_module._resident = worker
    return _run_slice(task)


def _until_done(task, placement):
    """Run slices on the workers ``placement`` yields until the job is
    done; returns every slice's outcome."""
    outcomes = []
    for worker in placement:
        outcomes.append(_on(worker, task))
        if outcomes[-1].done:
            return outcomes
    raise AssertionError("the job did not finish")


def _alternating(*pattern):
    while True:
        yield from pattern


def test_resident_and_cold_resumes_mixed_finish_with_the_inline_digest(tmp_path):
    task = _task(tmp_path, "job-a")
    a, b = OrderedDict(), OrderedDict()
    outcomes = _until_done(task, _alternating(a, a, b))
    resident = [outcome.resumed_resident for outcome in outcomes]
    assert True in resident[1:] and False in resident[1:]
    assert outcomes[-1].fingerprint == _reference_digest(task)
    # Every resume is counted, wherever it came from.
    assert outcomes[-1].output.resumes == len(outcomes) - 1


def test_a_stale_copy_resumes_from_the_checkpoint(tmp_path):
    """The job advanced on another worker, so the copy this worker still
    holds is behind the newest checkpoint and must not be continued."""
    task = _task(tmp_path, "job-a")
    a, b = OrderedDict(), OrderedDict()
    first = _on(a, task)
    assert not first.done and "job-a" in a
    elsewhere = _on(b, task)
    assert not elsewhere.resumed_resident
    back = _on(a, task)
    assert not back.resumed_resident
    assert back.output.executions > elsewhere.output.executions
    outcomes = _until_done(task, _alternating(a))
    assert all(outcome.resumed_resident for outcome in outcomes)
    assert outcomes[-1].fingerprint == _reference_digest(task)


def test_a_slice_that_raises_drops_the_copy_and_the_retry_resumes_cold(
    tmp_path, monkeypatch
):
    task = _task(tmp_path, "job-a")
    worker = OrderedDict()
    assert not _on(worker, task).done
    run = PFuzzer.run
    calls = []

    def crash_once(fuzzer):
        calls.append(fuzzer)
        if len(calls) == 1:
            raise RuntimeError("injected slice crash")
        return run(fuzzer)

    monkeypatch.setattr(PFuzzer, "run", crash_once)
    with pytest.raises(RuntimeError, match="injected"):
        _on(worker, task)
    assert "job-a" not in worker
    retry = _on(worker, task)
    assert not retry.resumed_resident
    assert calls[1] is not calls[0]
    outcomes = _until_done(task, _alternating(worker))
    assert outcomes[-1].fingerprint == _reference_digest(task)


def _trace_types(task):
    events = read_trace(f"{task['checkpoint_dir']}/trace.ndjson", strict=True)
    return [event["type"] for event in events]


def test_a_traced_job_emits_the_events_of_a_cold_resumed_one(tmp_path):
    resident = _task(tmp_path / "resident", "job-a", trace=True)
    cold = _task(tmp_path / "cold", "job-a", trace=True)
    worker = OrderedDict()
    warm = _until_done(resident, _alternating(worker))
    # A fresh table per slice: every resume reads the checkpoint.
    fresh = _until_done(cold, (OrderedDict() for _ in range(100)))
    assert any(outcome.resumed_resident for outcome in warm)
    assert not any(outcome.resumed_resident for outcome in fresh)
    assert [o.trace_events for o in warm] == [o.trace_events for o in fresh]
    assert _trace_types(resident) == _trace_types(cold)
    assert warm[-1].fingerprint == fresh[-1].fingerprint


def test_a_worker_holds_at_most_two_campaigns_least_recent_out(tmp_path):
    tasks = [_task(tmp_path, f"job-{index}", seed=index) for index in range(3)]
    worker = OrderedDict()
    for task in tasks:
        _on(worker, task)
    assert len(worker) == RESIDENT_CAMPAIGNS == 2
    assert list(worker) == ["job-1", "job-2"]
    outcome = _on(worker, tasks[0])
    assert not outcome.resumed_resident  # evicted
    assert list(worker) == ["job-2", "job-0"]
    assert outcome.resident_jobs == ("job-2", "job-0")
    assert _on(worker, tasks[2]).resumed_resident
    assert list(worker) == ["job-0", "job-2"]


def test_a_finished_job_is_not_held(tmp_path):
    task = _task(tmp_path, "job-a", budget=SLICE)
    worker = OrderedDict()
    assert _on(worker, task).done
    assert not worker


def test_a_changed_config_resumes_from_the_checkpoint(tmp_path):
    task = _task(tmp_path, "job-a", budget=400)
    worker = OrderedDict()
    _on(worker, task)
    bigger = dict(task, budget=480)
    assert not _on(worker, bigger).resumed_resident


def test_scheduler_workers_start_with_an_empty_table(tmp_path):
    """Forked workers must not continue campaigns the parent holds."""
    store = JobStore(tmp_path / "journal.jsonl")
    record = store.submit(
        JobSpec(
            subject="json",
            budget=2 * SLICE,
            seed=3,
            coverage_backend="ast",
            checkpoint_every=50,
        )
    )
    task = _task(tmp_path, record.job_id, budget=2 * SLICE)
    _run_slice(task)  # the parent now holds the paused campaign
    assert record.job_id in scheduler_module._resident
    slices = []

    class Recording(CampaignScheduler):
        def _handle_ok(self, outcome):
            slices.append(outcome)
            super()._handle_ok(outcome)

    scheduler = Recording(
        store, tmp_path, SchedulerConfig(workers=1, slice_executions=SLICE)
    )
    scheduler.run_until_idle()
    assert store.get(record.job_id).state is JobState.DONE
    assert not slices[0].resumed_resident
    assert scheduler.resident_resumes == sum(
        outcome.resumed_resident for outcome in slices
    )


def test_one_worker_continues_its_jobs_from_memory(tmp_path):
    """With one worker every slice after a job's first finds its campaign
    resident, and the counter the service exports says so."""
    store = JobStore(tmp_path / "journal.jsonl")
    records = [
        store.submit(
            JobSpec(
                subject="json",
                budget=4 * SLICE,
                seed=seed,
                coverage_backend="ast",
                checkpoint_every=50,
            )
        )
        for seed in (1, 2)
    ]
    scheduler = CampaignScheduler(
        store, tmp_path, SchedulerConfig(workers=1, slice_executions=SLICE)
    )
    scheduler.run_until_idle()
    finished = [store.get(record.job_id) for record in records]
    assert all(record.state is JobState.DONE for record in finished)
    resumes = sum(record.resumes for record in finished)
    assert resumes >= 6
    assert scheduler.resident_resumes == resumes
    for record in finished:
        task = _task(tmp_path, record.job_id, seed=record.spec.seed,
                     budget=4 * SLICE)
        assert record.result_fingerprint == _reference_digest(task)
