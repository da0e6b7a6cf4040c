"""Measure one workload in a fresh interpreter and check its outputs.

Usage: python3 perfbench/workload.py WORKLOAD SEED SECONDS SCALE TRACE WORKDIR

Operations (see ``specs.Workload``) run back to back, one client in a
closed loop, until their summed wall time reaches SECONDS.  Afterwards,
outside the timed window, every operation passes the correctness gate:

* a pooled (batched) campaign's result fingerprint equals that of the
  inline engine on the same seed;
* a service job's fingerprint digest equals that of an uninterrupted
  in-process run of the same spec;
* every emitted input is accepted by the uninstrumented subject;
* replaying the emitted inputs under the reference ``settrace`` backend
  rebuilds exactly the campaign's ``valid_branches``.

Every 250 executions a slice closes.  The host's speed is probed
(``host.py``) ten times per slice in the process that ran it: spread
over the slice in a campaign, right after it in a service worker.  Each
slice's time is rescaled by its probes' mean to the reference host, and
an operation's wall time by the time-weighted mean of its slices' factors;
the end-to-end metrics are taken from these reference times, so a slow
stretch of a shared host does not read as a slow program.  The measured
(raw) times are reported with the per-layer metrics.

With TRACE 1 each operation runs twice on the same seeds, once under the
layer spans of ``spans.py`` and once without, so the difference is the
tracing overhead on identical work.  Prints one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import host
import spans
import specs

specs.use_source_tree()

from repro.core.config import FuzzerConfig  # noqa: E402
from repro.core.fuzzer import PFuzzer  # noqa: E402
from repro.eval.checkpoint import result_fingerprint  # noqa: E402
from repro.runtime.arcs import arc_table_for  # noqa: E402
from repro.runtime.harness import run_subject  # noqa: E402
from repro.runtime.instrument import instrumented_subject  # noqa: E402
from repro.service import scheduler  # noqa: E402
from repro.service.jobs import JobSpec, JobState, JobStore  # noqa: E402
from repro.service.scheduler import CampaignScheduler, SchedulerConfig  # noqa: E402
from repro.subjects.registry import load_subject  # noqa: E402

#: Ledger texts replayed per run, at most (every 20th execution is kept).
LEDGER_TEXTS = 400

#: Executions of the untimed campaign that runs before the first operation.
WARM_UP_EXECUTIONS = 200


@dataclass
class Campaign:
    """One campaign of an operation, as the gate needs it."""

    seed: int
    digest: Optional[str] = None
    valid_inputs: Optional[List[str]] = None
    valid_branches: Optional[frozenset] = None
    cov_time_s: Optional[float] = None
    error: Optional[str] = None


#: A slice's wall seconds and the mean seconds of the host probes taken in
#: it (campaigns) or right after it (service workers).
Slice = Tuple[float, float]

#: Host probes per slice: spread over a campaign's slice, or run by a
#: service worker right after its slice.
PROBES_PER_SLICE = 10


def reference_wall(wall: float, slices: List[Slice]) -> float:
    """``wall`` rescaled to the reference host by the time-weighted mean
    of its slices' factors."""
    covered = sum(seconds for seconds, _probe in slices)
    rescaled = sum(host.at_reference(seconds, probe) for seconds, probe in slices)
    return wall * rescaled / covered


@dataclass
class Operation:
    #: Seconds the operation took, less the probes taken in this process.
    wall: float
    executions: int
    traced: bool
    slices: List[Slice] = field(default_factory=list)
    campaigns: List[Campaign] = field(default_factory=list)
    probing_s: float = 0.0

    @property
    def reference_wall(self) -> float:
        return reference_wall(self.wall, self.slices)


class SliceClock:
    """``should_preempt`` hook that never preempts: every ``every``
    executions it closes a slice, so campaigns report slices like the
    service's.  Every ``probe_every`` executions it probes the host, so a
    slice's probes sample the host across the whole slice, stalls
    included.  The probes' own time is kept out of the slices."""

    def __init__(self, every: int, probe_every: int) -> None:
        self.every = every
        self.due = every
        self.probe_every = probe_every
        self.probe_due = probe_every
        self.slices: List[Slice] = []
        self.slice_probes: List[float] = []
        self.slice_probing_s = 0.0
        #: Seconds spent in probes, all slices.
        self.probing_s = 0.0
        self.started = self.last = time.perf_counter()

    def _probe(self) -> None:
        started = time.perf_counter()
        self.slice_probes.append(host.probe())
        spent = time.perf_counter() - started
        self.slice_probing_s += spent
        self.probing_s += spent

    def _close_slice(self) -> None:
        wall = time.perf_counter() - self.last - self.slice_probing_s
        if not self.slice_probes:
            self._probe()  # after the slice's clock stopped
        self.slices.append((wall, statistics.fmean(self.slice_probes)))
        self.slice_probes = []
        self.slice_probing_s = 0.0
        self.last = time.perf_counter()

    def __call__(self, _run_executions: int, total_executions: int) -> bool:
        if total_executions >= self.probe_due:
            self._probe()
            self.probe_due = (total_executions // self.probe_every + 1) * self.probe_every
        if total_executions >= self.due:
            self._close_slice()
            self.due = (total_executions // self.every + 1) * self.every
        return False

    def now(self) -> float:
        """Seconds since the start, less the probes."""
        return time.perf_counter() - self.started - self.probing_s

    def close(self) -> float:
        """Close the last slice; returns the campaign's wall seconds."""
        self._close_slice()
        return sum(wall for wall, _probe in self.slices)


class ProbedScheduler(CampaignScheduler):
    """A scheduler that keeps every slice's wall time together with the
    probe its worker ran right after the slice (see :func:`probed`)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.slices: List[Slice] = []

    def _handle_ok(self, outcome) -> None:
        self.slices.append((outcome.slice_wall, outcome.host_probe_s))
        super()._handle_ok(outcome)


def probed(run_slice):
    """``run_slice`` followed, in the worker, by a probe of the host."""

    def run(task):
        outcome = run_slice(task)
        outcome.host_probe_s = host.probes(PROBES_PER_SLICE)
        return outcome

    return run


def digest_of(result, subject) -> str:
    canonical = result_fingerprint(result, arc_table_for(subject))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


class Bench:
    """The workload's subject, settings and operations."""

    def __init__(self, workload, seed: int, scale: float, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.budget = specs.scaled(workload.budget, scale)
        self.slice = specs.scaled(specs.SLICE_EXECUTIONS, scale)
        self.workdir = workdir
        self.subject = load_subject(workload.subject)
        instrumented_subject(self.subject)
        self._references: Dict[int, Campaign] = {}

    def config(self, seed: int, engine: bool = True) -> FuzzerConfig:
        return FuzzerConfig(
            seed=seed,
            max_executions=self.budget,
            coverage_backend="ast",
            **(self.workload.engine if engine else {}),
        )

    def operation(self, index: int, traced: bool) -> Operation:
        count = self.workload.jobs or 1
        seeds = specs.campaign_seeds(self.seed, index, count)
        if self.workload.service:
            operation = self.service_operation(index, seeds, traced)
        else:
            operation = self.campaign_operation(seeds[0], traced)
        if not operation.slices:
            # A service that failed before any slice: the operation is one.
            operation.slices.append((operation.wall, host.probes(PROBES_PER_SLICE)))
        return operation

    def campaign_operation(self, seed: int, traced: bool) -> Operation:
        emits: List[float] = []
        clock = SliceClock(self.slice, max(1, self.slice // PROBES_PER_SLICE))
        try:
            result = PFuzzer(
                self.subject,
                self.config(seed),
                on_emit=lambda _executions, _text: emits.append(clock.now()),
                should_preempt=clock,
            ).run()
        except Exception as exc:  # noqa: BLE001 - a failed operation, counted
            wall = clock.close()
            campaign = Campaign(seed, error=f"{type(exc).__name__}: {exc}")
            return Operation(
                wall, 0, traced, clock.slices, [campaign], clock.probing_s
            )
        wall = clock.close()
        campaign = Campaign(
            seed,
            digest=digest_of(result, self.subject),
            valid_inputs=list(result.valid_inputs),
            valid_branches=frozenset(result.valid_branches),
            cov_time_s=emits[-1] if emits else None,
        )
        return Operation(
            wall, result.executions, traced, clock.slices, [campaign], clock.probing_s
        )

    def service_operation(self, index: int, seeds, traced: bool) -> Operation:
        state = self.workdir / f"service-{index}-{int(traced)}"
        service = None
        # Workers fork from this process and look ``_run_slice`` up when a
        # slice comes in, so they run the probed one.
        run_slice = scheduler._run_slice
        scheduler._run_slice = probed(run_slice)
        started = time.perf_counter()
        try:
            store = JobStore(state / "journal.jsonl")
            for seed in seeds:
                store.submit(
                    JobSpec(
                        subject=self.workload.subject,
                        budget=self.budget,
                        seed=seed,
                        coverage_backend="ast",
                        checkpoint_every=self.slice,
                    )
                )
            service = ProbedScheduler(
                store,
                state,
                SchedulerConfig(
                    workers=specs.SERVICE_WORKERS, slice_executions=self.slice
                ),
            )
            service.run_until_idle()
        except Exception as exc:  # noqa: BLE001 - every job of it failed
            wall = time.perf_counter() - started
            error = f"{type(exc).__name__}: {exc}"
            slices = service.slices if service is not None else []
            return Operation(
                wall, 0, traced, slices, [Campaign(s, error=error) for s in seeds]
            )
        finally:
            scheduler._run_slice = run_slice
        wall = time.perf_counter() - started
        campaigns = []
        for record in store.list():
            campaign = Campaign(record.spec.seed, digest=record.result_fingerprint)
            if record.state is not JobState.DONE:
                campaign.error = f"job ended {record.state.value}: {record.error}"
            campaigns.append(campaign)
        executions = sum(record.executions for record in store.list())
        shutil.rmtree(state, ignore_errors=True)
        return Operation(wall, executions, traced, service.slices, campaigns)

    # -- correctness gate ------------------------------------------------ #

    def reference(self, seed: int) -> Campaign:
        """An uninterrupted inline campaign of ``seed`` (cached: traced and
        untraced operations share seeds)."""
        reference = self._references.get(seed)
        if reference is None:
            result = PFuzzer(self.subject, self.config(seed, engine=False)).run()
            reference = self._references[seed] = Campaign(
                seed,
                digest=digest_of(result, self.subject),
                valid_inputs=list(result.valid_inputs),
                valid_branches=frozenset(result.valid_branches),
            )
        return reference

    def check(self, campaign: Campaign) -> Optional[str]:
        """None when ``campaign`` passes the gate, else what failed."""
        if campaign.error is not None:
            return campaign.error
        if self.workload.pooled or self.workload.service:
            reference = self.reference(campaign.seed)
            if campaign.digest != reference.digest:
                return "result differs from the uninterrupted inline run"
            if campaign.valid_inputs is None:
                # Service jobs report only their digest, which matched.
                campaign.valid_inputs = reference.valid_inputs
                campaign.valid_branches = reference.valid_branches
        rebuilt = set()
        for text in campaign.valid_inputs:
            if not self.subject.accepts(text):
                return f"emitted input {text!r} is rejected"
            rebuilt |= run_subject(
                self.subject, text, coverage_backend="settrace"
            ).branches
        if rebuilt != campaign.valid_branches:
            return "settrace replay does not rebuild valid_branches"
        return None

    # -- ledger ---------------------------------------------------------- #

    def ledger(self, texts: List[str]) -> Dict[str, float]:
        """Per-execution cost of taint and coverage, by replaying ``texts``
        once without coverage and once with the ``ast`` backend."""
        if len(texts) > LEDGER_TEXTS:
            step = len(texts) / LEDGER_TEXTS
            texts = [texts[int(i * step)] for i in range(LEDGER_TEXTS)]
        taint_s = coverage_s = 0.0
        comparisons = arcs = 0
        for text in texts:
            started = time.perf_counter()
            bare = run_subject(self.subject, text, trace_coverage=False)
            middle = time.perf_counter()
            full = run_subject(self.subject, text, coverage_backend="ast")
            ended = time.perf_counter()
            taint_s += middle - started
            coverage_s += (ended - middle) - (middle - started)
            comparisons += len(bare.recorder.comparisons)
            arcs += len(full.arcs)
        count = len(texts) or 1
        return {
            "taint.exec_us": 1e6 * taint_s / count,
            "taint.comparisons_per_exec": comparisons / count,
            "coverage.exec_us": 1e6 * coverage_s / count,
            "coverage.arcs_per_exec": arcs / count,
        }


def percentile(values: List[float], fraction: float) -> float:
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(100 * fraction) - 1]


def peak_rss_mb(with_children: bool) -> float:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def measure(
    name: str, seed: int, seconds: float, scale: float, trace: bool, workdir: Path
) -> dict:
    workload = specs.WORKLOADS[name]
    bench = Bench(workload, seed, scale, workdir)
    tracer = None
    workers: List[dict] = []
    if trace:
        tracer = spans.Tracer()
        tracer.flush_dir = workdir / "spans"
        tracer.flush_dir.mkdir(parents=True, exist_ok=True)
    if not workload.service:
        # Warm-up outside the timed window: first-call costs are set-up.
        warm_up = replace(bench.config(seed - 1), max_executions=WARM_UP_EXECUTIONS)
        PFuzzer(bench.subject, warm_up).run()

    operations: List[Operation] = []
    measured = 0.0
    index = 0
    while measured < seconds:
        for traced in (True, False) if trace else (False,):
            if traced:
                spans.install(tracer)
            try:
                operation = bench.operation(index, traced)
            finally:
                if traced:
                    tracer.uninstall()
                    workers.extend(tracer.collect())
            operations.append(operation)
            measured += operation.wall
        index += 1
    peak = peak_rss_mb(with_children=workload.pooled or workload.service)

    failures = []
    attempted = 0
    for operation in operations:
        for campaign in operation.campaigns:
            attempted += 1
            problem = bench.check(campaign)
            if problem is not None:
                failures.append(f"seed {campaign.seed}: {problem}")

    plain = [op for op in operations if not op.traced]
    slices = [piece for op in plain for piece in op.slices]
    slices_ms = [1000.0 * host.at_reference(wall, probe) for wall, probe in slices]
    executions = sum(op.executions for op in plain)
    wall = sum(op.wall for op in plain)
    reference = sum(op.reference_wall for op in plain)
    report = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "operations": len(plain),
        "executions": executions,
        "wall_s": wall,
        "execs_per_s": executions / reference,
        "slices": len(slices),
        "slice_p50_ms": statistics.median(slices_ms),
        "slice_p90_ms": percentile(slices_ms, 0.9),
        "peak_rss_mb": peak,
        "raw.execs_per_s": executions / wall,
        "raw.slice_p50_ms": 1000.0 * statistics.median(wall for wall, _ in slices),
        "host.probe_ms": 1000.0 * statistics.median(probe for _, probe in slices),
    }
    if trace:
        main = tracer.snapshot()
        worker_table = spans.merge(workers)
        everything = spans.merge([main, worker_table])
        traced_ops = [op for op in operations if op.traced]
        traced_wall = sum(op.wall for op in traced_ops)
        # Probes taken in this process ran inside its root spans.
        spanned_wall = traced_wall + sum(op.probing_s for op in traced_ops)
        traced_reference = sum(op.reference_wall for op in traced_ops)
        campaigns = [c for op in plain for c in op.campaigns]
        arcs = [len(c.valid_branches) for c in campaigns if c.valid_branches]
        cov_times = [c.cov_time_s for c in campaigns if c.cov_time_s]
        layers = spans.layer_metrics(everything)
        layers.update(bench.ledger(everything["samples"]))
        layers.update(
            {
                name: report[name]
                for name in (
                    "slice_p50_ms",
                    "slice_p90_ms",
                    "raw.execs_per_s",
                    "raw.slice_p50_ms",
                    "host.probe_ms",
                )
            }
        )
        layers.update(
            {
                "campaign.arcs": statistics.mean(arcs) if arcs else 0.0,
                "campaign.cov_time_s": statistics.median(cov_times) if cov_times else 0.0,
                "trace.wall_s": traced_wall,
                "trace.overhead_pct": 100.0 * (traced_reference / reference - 1.0),
                "trace.unaccounted_pct": (
                    100.0 * (spanned_wall - main["root_s"]) / spanned_wall
                ),
            }
        )
        report["layers"] = layers
        report["tables"] = [
            spans.render(main, "benchmark process"),
        ] + ([spans.render(worker_table, "worker processes")] if workers else [])
    return report


def main() -> None:
    name, seed, seconds, scale, trace, workdir = sys.argv[1:7]
    report = measure(
        name, int(seed), float(seconds), float(scale), trace == "1", Path(workdir)
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
