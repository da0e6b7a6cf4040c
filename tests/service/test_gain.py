"""Adaptive scheduling: gain estimator, fairness properties, determinism.

Three layers:

* unit tests of :class:`~repro.service.gain.GainEstimator` — the decayed
  Laplace posterior, the weight normalisation, the pause/resume
  hysteresis, and the pure-state determinism contract;
* property tests of :class:`~repro.service.scheduler.CampaignScheduler`
  in adaptive mode over a deterministic in-process fake worker pool —
  under random fleets (arrivals, priorities, gain profiles) and injected
  worker deaths, no runnable job is ever starved (every job finishes its
  whole budget), allocation converges toward observed gain, and the
  whole schedule is a pure function of the scenario;
* a real-workers fingerprint test — a campaign scheduled adaptively
  finishes with exactly the result fingerprint the blind stride
  scheduler produces, because scheduling order never changes campaign
  results.
"""

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.eval.campaign import ToolOutput
from repro.service.gain import GainConfig, GainEstimator
from repro.service.jobs import JobSpec, JobState, JobStore
from repro.service.scheduler import (
    RESIDENT_CAMPAIGNS,
    CampaignScheduler,
    SchedulerConfig,
    SliceResult,
)

# --------------------------------------------------------------------- #
# GainConfig validation
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        ({"alpha": 0.0}, "alpha"),
        ({"beta": -1.0}, "alpha"),
        ({"decay": 0.0}, "decay"),
        ({"decay": 1.5}, "decay"),
        ({"pause_threshold": 1.0}, "pause_threshold"),
        ({"resume_margin": 0.5}, "resume_margin"),
        ({"min_evidence": -1.0}, "min_evidence"),
        ({"probe_every": 0}, "probe_every"),
        ({"weight_floor": 0.0}, "weight_floor"),
        ({"weight_floor": 2.0}, "weight_floor"),
    ],
)
def test_gain_config_rejects_invalid_knobs(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        GainConfig(**kwargs).validate()


def test_gain_config_defaults_validate():
    GainConfig().validate()


# --------------------------------------------------------------------- #
# GainEstimator: posterior, weight, pause/resume
# --------------------------------------------------------------------- #


def test_fresh_estimator_is_neutral():
    estimator = GainEstimator(GainConfig())
    assert estimator.posterior() == pytest.approx(GainConfig().prior_mean)
    assert estimator.weight() == pytest.approx(1.0)
    assert not estimator.should_pause()  # never parked on the prior alone


def test_productive_history_raises_weight_above_one():
    estimator = GainEstimator(GainConfig(decay=1.0))
    estimator.observe(10, 8)  # 0.8 discovery rate >> prior mean 0.5
    assert estimator.posterior() > GainConfig().prior_mean
    assert estimator.weight() > 1.0


def test_plateau_pauses_only_after_min_evidence():
    config = GainConfig(decay=1.0, min_evidence=200.0, pause_threshold=0.005)
    estimator = GainEstimator(config)
    estimator.observe(100, 0)
    assert not estimator.should_pause()  # evidence below the bar
    estimator.observe(300, 0)
    assert estimator.posterior() < 0.005
    assert estimator.should_pause()


def test_decay_forgets_a_rich_early_history():
    config = GainConfig(decay=0.99, min_evidence=100.0, pause_threshold=0.01)
    estimator = GainEstimator(config)
    estimator.observe(100, 50)  # early gold rush
    early = estimator.posterior()
    for _ in range(20):
        estimator.observe(100, 0)  # long plateau
    assert estimator.posterior() < early
    assert estimator.should_pause()


def test_no_decay_weights_all_history_equally():
    a = GainEstimator(GainConfig(decay=1.0))
    a.observe(100, 10)
    a.observe(100, 0)
    b = GainEstimator(GainConfig(decay=1.0))
    b.observe(100, 0)
    b.observe(100, 10)
    assert a.posterior() == pytest.approx(b.posterior())


def test_weight_floor_bounds_the_penalty():
    config = GainConfig(decay=1.0, weight_floor=0.25)
    estimator = GainEstimator(config)
    estimator.observe(100_000, 0)
    assert estimator.weight() == pytest.approx(0.25)


def test_discoveries_capped_at_executions():
    estimator = GainEstimator(GainConfig(decay=1.0))
    estimator.observe(5, 50)  # corrupt input: more hits than trials
    assert estimator.posterior() <= 1.0
    assert estimator.discoveries == pytest.approx(5.0)


def test_resume_margin_is_hysteresis():
    config = GainConfig(
        decay=1.0, pause_threshold=0.1, resume_margin=2.0, min_evidence=10.0
    )
    estimator = GainEstimator(config)
    estimator.observe(100, 15)  # posterior ~0.157: above threshold...
    assert estimator.posterior() > config.pause_threshold
    assert not estimator.should_resume()  # ...but below threshold * margin


@given(
    observations=st.lists(
        st.tuples(st.integers(1, 500), st.integers(0, 500)), max_size=30
    ),
    decay=st.floats(0.9, 1.0),
)
def test_estimator_is_a_pure_function_of_its_observations(observations, decay):
    config = GainConfig(decay=decay)
    a, b = GainEstimator(config), GainEstimator(config)
    for executions, discoveries in observations:
        a.observe(executions, discoveries)
        b.observe(executions, discoveries)
    assert a.snapshot() == b.snapshot()
    assert a.should_pause() == b.should_pause()
    assert 0.0 < a.posterior() < 1.0
    assert a.weight() >= config.weight_floor


# --------------------------------------------------------------------- #
# Deterministic fake fleet: the scheduler over synthetic campaigns
# --------------------------------------------------------------------- #


@dataclass
class JobSim:
    """Synthetic campaign: a profile dictates discoveries per slice."""

    profile: Callable[[int, int], int]  # (slice_index, executions) -> hits
    executions: int = 0
    slices: int = 0
    valid: List[str] = field(default_factory=list)


class FakePool:
    """Deterministic in-process stand-in for ``WorkerPool``.

    Slices run synchronously at :meth:`drain` against :class:`JobSim`
    state keyed by job seed, so the scheduler sees exactly the message
    protocol of the real pool — ok results, worker corpses — with zero
    wall-clock or process nondeterminism.  ``die_on`` holds global slice
    sequence numbers whose dispatched slice is lost mid-flight (the
    worker dies; :meth:`reap` reports the corpse), exercising the
    retry-and-resume path.
    """

    def __init__(self, sims: Dict[int, JobSim], die_on=()) -> None:
        self.sims = sims
        self.die_on = set(die_on)
        self.slice_seq = 0
        self.workers: Dict[int, dict] = {}
        self.next_id = 0
        self.corpses: List[tuple] = []

    def __len__(self) -> int:
        return len(self.workers)

    def spawn(self) -> int:
        worker_id = self.next_id
        self.next_id += 1
        self.workers[worker_id] = None
        return worker_id

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
            self.slice_seq += 1
            if self.slice_seq in self.die_on:
                del self.workers[worker_id]  # the worker took the task down
                self.corpses.append((worker_id, 9))
                continue
            messages.append(
                ("ok", worker_id, task["job_id"], self._run(task))
            )
        return messages

    def _run(self, task: dict) -> SliceResult:
        sim = self.sims[task["seed"]]
        delta = min(
            task["slice_executions"], task["budget"] - sim.executions
        )
        hits = min(delta, max(0, sim.profile(sim.slices, sim.executions)))
        sim.slices += 1
        sim.executions += delta
        sim.valid.extend(
            f"s{task['seed']}-{index}"
            for index in range(len(sim.valid), len(sim.valid) + hits)
        )
        done = sim.executions >= task["budget"]
        output = ToolOutput(
            tool="pfuzzer",
            subject=task["subject"],
            seed=task["seed"],
            valid_inputs=list(sim.valid),
            executions=sim.executions,
            wall_time=0.0,
            queue_depth=1,
        )
        return SliceResult(
            job_id=task["job_id"],
            done=done,
            output=output,
            fingerprint=f"fp-{task['seed']}" if done else None,
            peak_rss_bytes=0,
            slice_wall=0.0,
        )

    def reap(self) -> List[tuple]:
        corpses, self.corpses = self.corpses, []
        return corpses

    def remove(self, worker_id: int, terminate: bool = False) -> None:
        self.workers.pop(worker_id, None)

    def shutdown(self) -> None:
        self.workers.clear()


SLICE = 100


def _run_fleet(
    root: Path,
    jobs: List[dict],
    *,
    adaptive: bool,
    workers: int = 1,
    die_on=(),
    gain: GainConfig = GainConfig(),
    name: str = "fleet",
):
    """Drive a synthetic fleet to completion; returns (store, scheduler).

    ``jobs`` entries: ``{"seed", "budget", "profile"[, "priority"]}``.
    """
    store = JobStore(root / f"{name}.jsonl")
    sims = {}
    for job in jobs:
        sims[job["seed"]] = JobSim(profile=job["profile"])
        store.submit(
            JobSpec(
                subject="expr",
                budget=job["budget"],
                seed=job["seed"],
                priority=job.get("priority", 1),
                checkpoint_every=SLICE,
            )
        )
    scheduler = CampaignScheduler(
        store,
        root / name,
        SchedulerConfig(
            workers=workers,
            slice_executions=SLICE,
            retries=5,
            backoff=0.0,
            adaptive=adaptive,
            gain=gain,
        ),
    )
    scheduler.pool = FakePool(sims, die_on=die_on)
    scheduler.run_until_idle()
    return store, scheduler


def _productive(rate: int) -> Callable[[int, int], int]:
    return lambda slice_index, executions: rate


def _plateau(burst: int) -> Callable[[int, int], int]:
    """Discoveries on the first slice only, then a dead flat line."""
    return lambda slice_index, executions: burst if slice_index == 0 else 0


#: Gain knobs tuned so a 100-execution-slice plateau parks within a few
#: slices — what the convergence and benchmark scenarios use.
FAST_GAIN = GainConfig(
    decay=0.99,
    min_evidence=100.0,
    pause_threshold=0.02,
    probe_every=2_000,
)


def _fleet_state(store, scheduler):
    """Everything the determinism property compares between two runs."""
    return {
        "dispatch_log": list(scheduler.dispatch_log),
        "gain": scheduler.gain_snapshot(),
        "parked": sorted(scheduler._parked),
        "fleet_executions": scheduler._fleet_executions,
        "jobs": [
            (r.job_id, r.state.value, r.executions, r.valid_inputs, r.slices)
            for r in store.list()
        ],
    }


# -- no starvation / convergence / determinism / fault injection ------- #

_JOB_STRATEGY = st.fixed_dictionaries(
    {
        "budget_slices": st.integers(1, 5),
        "priority": st.integers(1, 3),
        "kind": st.sampled_from(["productive", "plateau"]),
        "rate": st.integers(0, 20),
    }
)

_SCENARIO = st.fixed_dictionaries(
    {
        "jobs": st.lists(_JOB_STRATEGY, min_size=2, max_size=4),
        "workers": st.integers(1, 3),
        "deaths": st.lists(
            st.integers(1, 30), max_size=3, unique=True
        ),
        "adaptive": st.booleans(),
    }
)


def _materialise(scenario):
    jobs = []
    for index, job in enumerate(scenario["jobs"]):
        profile = (
            _productive(job["rate"])
            if job["kind"] == "productive"
            else _plateau(job["rate"])
        )
        jobs.append(
            {
                "seed": index,
                "budget": job["budget_slices"] * SLICE,
                "priority": job["priority"],
                "profile": profile,
            }
        )
    return jobs


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=_SCENARIO)
def test_no_runnable_job_ever_starves(scenario):
    """Whatever the fleet mix, priorities, parking decisions and worker
    deaths, every job runs its whole budget to DONE — parked jobs are
    probed, never abandoned, and lost slices are retried."""
    jobs = _materialise(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        store, scheduler = _run_fleet(
            Path(tmp),
            jobs,
            adaptive=scenario["adaptive"],
            workers=scenario["workers"],
            die_on=scenario["deaths"],
            gain=FAST_GAIN,
        )
        sims = scheduler.pool.sims
        for job, record in zip(jobs, store.list()):
            assert record.state is JobState.DONE
            assert record.executions == job["budget"]
            assert record.valid_inputs == len(sims[job["seed"]].valid)
            assert record.result_fingerprint == f"fp-{job['seed']}"
        # Fair-share first round survives adaptivity: with every gain
        # account fresh (weight 1.0), the first dispatches cover every
        # job before any job repeats.  (A worker death re-queues its job
        # at unchanged virtual time, which legitimately repeats it.)
        if not scenario["deaths"]:
            first_round = scheduler.dispatch_log[: len(jobs)]
            assert len(set(first_round)) == len(jobs)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scenario=_SCENARIO)
def test_schedule_is_a_pure_function_of_the_scenario(scenario):
    """Same fleet, same event history => byte-identical dispatch log,
    gain posteriors, park decisions and job outcomes."""
    jobs = _materialise(scenario)
    states = []
    for attempt in ("a", "b"):
        with tempfile.TemporaryDirectory() as tmp:
            store, scheduler = _run_fleet(
                Path(tmp),
                _materialise(scenario),
                adaptive=scenario["adaptive"],
                workers=scenario["workers"],
                die_on=scenario["deaths"],
                gain=FAST_GAIN,
                name=f"fleet-{attempt}",
            )
            states.append(_fleet_state(store, scheduler))
    del jobs
    assert states[0] == states[1]


def test_adaptive_converges_allocation_toward_observed_gain(tmp_path):
    """One productive + one plateaued job: blind stride splits slices
    evenly, the adaptive scheduler parks the plateau and spends the
    worker on the job where coverage is arriving."""
    jobs = [
        {"seed": 0, "budget": 30 * SLICE, "profile": _productive(5)},
        {"seed": 1, "budget": 30 * SLICE, "profile": _plateau(5)},
    ]

    def plateau_share(scheduler):
        """Plateau dispatches before the productive job's final slice."""
        log = scheduler.dispatch_log
        last_productive = max(
            index for index, job_id in enumerate(log) if job_id == "job-0000"
        )
        return log[:last_productive].count("job-0001")

    _, blind = _run_fleet(tmp_path, jobs, adaptive=False, name="blind")
    _, adaptive = _run_fleet(
        tmp_path, jobs, adaptive=True, gain=FAST_GAIN, name="adaptive"
    )
    # Blind stride: equal budgets, equal priorities => even split.
    assert plateau_share(blind) >= 25
    # Adaptive: the plateau is parked after a handful of slices and only
    # probed afterwards.
    assert plateau_share(adaptive) <= 8
    # The plateau account really went through the park lifecycle.
    snapshot = adaptive.gain_snapshot()
    assert snapshot["job-0001"]["parked"] is True
    assert snapshot["job-0001"]["posterior"] < FAST_GAIN.pause_threshold
    assert not snapshot["job-0000"]["parked"]
    # ...but was never starved: it still finished its whole budget.
    assert all(
        record.executions == 30 * SLICE for record in adaptive.store.list()
    )


def test_parked_job_resurrects_when_a_probe_finds_gain(tmp_path):
    """A probe slice that discovers again unparks the account."""

    def sleeper(slice_index, executions):
        # Quiet long enough to get parked, then a late hot streak.
        return 0 if slice_index < 4 else 20

    jobs = [
        {"seed": 0, "budget": 40 * SLICE, "profile": _productive(5)},
        {"seed": 1, "budget": 10 * SLICE, "profile": sleeper},
    ]
    gain = GainConfig(
        decay=0.99,
        min_evidence=100.0,
        pause_threshold=0.02,
        probe_every=500,
        resume_margin=1.0,
    )
    store, scheduler = _run_fleet(
        tmp_path, jobs, adaptive=True, gain=gain, name="resurrect"
    )
    assert all(record.state is JobState.DONE for record in store.list())
    # The sleeper ended unparked: its probe found gain and resurrected it.
    assert "job-0001" not in scheduler._parked
    assert scheduler.gain_snapshot()["job-0001"]["posterior"] > 0.02


def test_blind_mode_keeps_no_gain_state(tmp_path):
    jobs = [{"seed": 0, "budget": 2 * SLICE, "profile": _productive(1)}]
    _, scheduler = _run_fleet(tmp_path, jobs, adaptive=False, name="plain")
    assert scheduler.gain_snapshot() == {}
    assert scheduler._parked == {}


# --------------------------------------------------------------------- #
# Real workers: adaptive scheduling never changes a campaign's result
# --------------------------------------------------------------------- #


def _real_fingerprints(tmp_path, mode, adaptive, seeds):
    store = JobStore(tmp_path / f"{mode}.jsonl")
    records = [
        store.submit(
            JobSpec(subject="expr", budget=180, seed=seed, checkpoint_every=60)
        )
        for seed in seeds
    ]
    scheduler = CampaignScheduler(
        store,
        tmp_path / mode,
        SchedulerConfig(
            workers=1,
            slice_executions=60,
            adaptive=adaptive,
            # Aggressive knobs so the real campaign actually gets parked
            # and probed — the fingerprint must survive even that.
            gain=GainConfig(
                decay=0.99,
                min_evidence=30.0,
                pause_threshold=0.5,
                probe_every=60,
            ),
        ),
    )
    scheduler.run_until_idle()
    assert all(store.get(r.job_id).state is JobState.DONE for r in records)
    return [store.get(r.job_id).result_fingerprint for r in records]


def test_adaptive_fingerprints_match_blind_fingerprints(tmp_path):
    """Single-job and two-job fleets: per-job result fingerprints are
    identical under blind and adaptive scheduling — adaptivity moves
    compute, never results."""
    seeds = (3, 4)
    blind = _real_fingerprints(tmp_path, "blind", False, seeds)
    adaptive = _real_fingerprints(tmp_path, "adaptive", True, seeds)
    assert all(fingerprint is not None for fingerprint in blind)
    assert adaptive == blind
    single_blind = _real_fingerprints(tmp_path / "one", "blind", False, (3,))
    single_adaptive = _real_fingerprints(
        tmp_path / "one", "adaptive", True, (3,)
    )
    assert single_adaptive == single_blind == [blind[0]]


# --------------------------------------------------------------------- #
# Residency: slices go where their campaign is held, in the same order
# --------------------------------------------------------------------- #


class ResidentFakePool(FakePool):
    """:class:`FakePool` whose workers keep their recent paused campaigns
    the way scheduler workers do, report them with every slice, and run
    the slices sent to them in order, one per drain.  Workers in
    ``slow`` need two drains per slice, so slices finish out of step."""

    def __init__(self, sims, slow=()) -> None:
        super().__init__(sims)
        self.slow = set(slow)
        self.queues: Dict[int, List[dict]] = {}
        self.tables: Dict[int, List[str]] = {}
        self.waited: Dict[int, bool] = {}
        #: job id -> worker of its last slice (a copy elsewhere is stale).
        self.ran_on: Dict[str, int] = {}
        self.placements: List[tuple] = []

    def spawn(self) -> int:
        worker_id = super().spawn()
        self.queues[worker_id] = []
        self.tables[worker_id] = []
        return worker_id

    def send(self, worker_id: int, task: dict) -> None:
        self.queues[worker_id].append(task)
        self.placements.append((worker_id, task["job_id"]))

    def drain(self, timeout: float = 0.0) -> List[tuple]:
        messages = []
        for worker_id, queue in sorted(self.queues.items()):
            if not queue:
                continue
            if worker_id in self.slow and not self.waited.get(worker_id):
                self.waited[worker_id] = True
                continue
            self.waited[worker_id] = False
            task = queue.pop(0)
            job_id = task["job_id"]
            table = self.tables[worker_id]
            resident = job_id in table and self.ran_on.get(job_id) == worker_id
            if job_id in table:
                table.remove(job_id)
            del table[: max(0, len(table) - (RESIDENT_CAMPAIGNS - 1))]
            outcome = self._run(task)
            self.ran_on[job_id] = worker_id
            if not outcome.done:
                table.append(job_id)
            outcome.resumed_resident = resident
            outcome.resident_jobs = tuple(table)
            messages.append(("ok", worker_id, job_id, outcome))
        return messages


class PickRecorder(CampaignScheduler):
    """Records, at every dispatch, whether the job sent was the
    fair-share winner: least virtual time, then (for gang members) fewest
    executions, then submission order, among the runnable jobs."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.winners: List[str] = []

    def _runnable(self):
        runnable = super()._runnable()
        if runnable:
            winner = min(
                runnable,
                key=lambda r: (
                    self._virtual_time(r),
                    r.executions if r.spec.shard_group is not None else 0,
                    r.seq,
                ),
            )
            self.winners.append(winner.job_id)
        return runnable

    def _send(self, worker_id, record):
        assert record.job_id == self.winners[-1]
        super()._send(worker_id, record)


def _resident_fleet(root, slow, placement=True, jobs=4, slices=4):
    store = JobStore(root / "fleet.jsonl")
    sims = {}
    for seed in range(jobs):
        sims[seed] = JobSim(profile=_productive(1))
        store.submit(
            JobSpec(
                subject="expr",
                budget=slices * SLICE,
                seed=seed,
                checkpoint_every=SLICE,
            )
        )
    scheduler = PickRecorder(
        store,
        root / "fleet",
        SchedulerConfig(workers=2, slice_executions=SLICE, backoff=0.0),
    )
    scheduler.pool = ResidentFakePool(sims, slow=slow)
    if not placement:
        scheduler._holder = lambda record, idle_worker: None
    scheduler.run_until_idle()
    for record in store.list():
        assert record.state is JobState.DONE
        assert record.executions == slices * SLICE
    return store, scheduler


def test_residency_places_slices_but_never_reorders_them(tmp_path):
    """Every slice is the fair-share winner when it is dispatched, with
    or without placement by residency; placement only moves slices to
    the worker holding their campaign, which turns cold resumes into
    resident ones when workers finish out of step."""
    store, placed = _resident_fleet(tmp_path / "placed", slow={1})
    _, plain = _resident_fleet(tmp_path / "plain", slow={1}, placement=False)
    resumes = sum(record.slices - 1 for record in store.list())
    assert resumes == 12
    assert plain.resident_resumes < placed.resident_resumes <= resumes
    # Queued placements happened: the slow worker got slices sent while
    # it was still busy.
    queued = [
        job_id
        for worker_id, job_id in placed.pool.placements
        if worker_id == 1
    ]
    assert len(queued) > len(
        [job for worker, job in plain.pool.placements if worker == 1]
    )


def test_in_step_workers_keep_their_order_and_their_campaigns(tmp_path):
    """Workers finishing together never queue: the log is the plain
    round robin, and each worker keeps its own two jobs."""
    _, scheduler = _resident_fleet(tmp_path, slow=())
    jobs = [f"job-{index:04d}" for index in range(4)]
    assert scheduler.dispatch_log == jobs * 4
    assert scheduler.resident_resumes == 12
    assert scheduler.pool.placements[:4] == list(zip([0, 1, 0, 1], jobs))


def _idle_and_busy(tmp_path, group=None):
    """Three runnable jobs at equal virtual time; worker 1 busy with a
    fourth and holding job-0000's campaign, worker 0 idle holding
    job-0001's."""
    store = JobStore(tmp_path / "journal.jsonl")
    for seed in range(4):
        store.submit(
            JobSpec(
                subject="expr",
                budget=4 * SLICE,
                seed=seed,
                checkpoint_every=SLICE,
                **({"shard_group": group, "shard_id": seed, "shards": 4}
                   if group else {}),
            )
        )
    scheduler = CampaignScheduler(
        store, tmp_path, SchedulerConfig(workers=2, slice_executions=SLICE)
    )
    scheduler.pool = ResidentFakePool(
        {seed: JobSim(profile=_productive(1)) for seed in range(4)}
    )
    scheduler.pool.spawn()
    scheduler.pool.spawn()
    store.transition("job-0003", JobState.RUNNING)
    scheduler.assignments[1] = ("job-0003", None)
    scheduler.pool.queues[1].append(
        dict(store.get("job-0003").spec.to_dict(), job_id="job-0003",
             slice_executions=SLICE)
    )
    scheduler._held = {0: ("job-0001",), 1: ("job-0000",)}
    return store, scheduler


def test_the_winner_is_queued_behind_the_busy_worker_holding_it(tmp_path):
    store, scheduler = _idle_and_busy(tmp_path)
    scheduler._dispatch_ready()
    assert scheduler.dispatch_log == ["job-0000", "job-0001"]
    assert scheduler.pool.placements == [(1, "job-0000"), (0, "job-0001")]
    assert scheduler._queued == {1: "job-0000"}
    assert scheduler.assignments[0][0] == "job-0001"
    # Queued, not running, until its worker is done with the slice ahead.
    assert store.get("job-0000").state is JobState.QUEUED
    done = scheduler.pool.drain()
    for message in done:
        scheduler._handle_message(message)
    assert scheduler.assignments[1][0] == "job-0000"
    assert store.get("job-0000").state is JobState.RUNNING
    assert scheduler._queued == {}


def test_gang_members_are_never_queued(tmp_path):
    _, scheduler = _idle_and_busy(tmp_path, group="grp-1")
    scheduler._dispatch_ready()
    assert scheduler.pool.placements == [(0, "job-0000")]
    assert scheduler._queued == {}


def test_an_idle_worker_is_never_left_without_the_last_runnable_job(tmp_path):
    store, scheduler = _idle_and_busy(tmp_path)
    for job_id in ("job-0001", "job-0002"):
        store.transition(job_id, JobState.CANCELLED)
    scheduler._dispatch_ready()
    assert scheduler.pool.placements == [(0, "job-0000")]


def test_a_campaign_the_busy_worker_will_evict_is_not_queued_there(tmp_path):
    """Worker 1's current slice is of a job it does not hold, so its
    table drops its least recently run campaign to make room."""
    _, scheduler = _idle_and_busy(tmp_path)
    scheduler._held[1] = ("job-0000", "job-0002")
    scheduler._dispatch_ready()
    assert scheduler.pool.placements[0] == (0, "job-0000")
