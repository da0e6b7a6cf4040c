"""Outside-in layer spans for the traced benchmark run.

The program carries no tracing of its own here.  :func:`install` replaces
the entry point of each layer with a wrapper that opens a span around the
call, and :meth:`Tracer.uninstall` puts the originals back.  Spans nest on
one stack per process, so a span's self time -- its duration minus the
time its child spans cover -- is known when it closes.  Each closing span
is folded into per-layer totals (calls, total seconds, self seconds)
rather than stored: a traced url run closes over a million spans, and
keeping them would distort the memory and time being measured.

Worker processes forked by the program inherit the wrappers.  An at-fork
hook empties the child's totals, and a worker writes its totals to
``<flush_dir>/spans-<pid>.json`` after every scheduler slice; the parent
merges those files with :func:`merge`.  Spans of different processes are
never nested into each other: each process's self times add up to the
duration of its own root spans.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

#: A leaf span's wrapper, written with the wrapped function's own
#: parameters: a call then packs no ``*args``/``**kwargs``, which is a
#: third of a generic wrapper's cost.
_LEAF = """
def spanned({parameters}):
    start = clock()
    try:
        return function({names})
    finally:
        duration = clock() - start
        if stack:
            stack[-1] += duration
        else:
            tracer.root_s += duration
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration
"""


class Tracer:
    """Per-process span stack and the per-layer totals it folds into.

    Args:
        clock: time source in seconds (tests substitute a scripted one).
        sample_every: keep every this many executed texts for the ledger
            replay (see ``workload.py``).
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, sample_every: int = 20
    ) -> None:
        self.clock = clock
        self.sample_every = sample_every
        #: Seconds covered by the children of each open span, innermost last.
        self.stack: List[float] = []
        #: layer name -> ``[calls, total seconds, self seconds]``.
        self.totals: Dict[str, list] = {}
        #: Counters recorded at the same boundaries (bytes, hits, ...).
        self.counts: Dict[str, float] = {}
        #: High-water marks (merged by max, not summed).
        self.peaks: Dict[str, float] = {}
        #: Summed duration of spans opened with an empty stack.
        self.root_s = 0.0
        #: Sampled executed texts.
        self.samples: List[str] = []
        self.executions = 0
        #: Nonzero while a pooled execution is in flight (wire bytes count).
        self.in_executor = 0
        self.flush_dir: Optional[Path] = None
        self._patches: List[tuple] = []
        self._follows_forks = False

    # -- recording ------------------------------------------------------- #

    def reset(self) -> None:
        """Forget everything recorded (in place: wrappers hold references)."""
        self.stack.clear()
        for entry in self.totals.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.peaks.clear()
        self.samples.clear()
        self.root_s = 0.0
        self.executions = 0
        self.in_executor = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def sample(self, text: str) -> None:
        """Count one execution; keep every ``sample_every``-th text."""
        self.executions += 1
        if self.executions % self.sample_every == 0:
            self.samples.append(text)

    def wrap(self, name: str, function: Callable, leaf: bool = False) -> Callable:
        """``function`` with a span named ``name`` around every call.

        A ``leaf`` span opens no span inside it, so it needs no stack entry
        of its own: its self time is its duration.  Leaf spans wrap the
        per-candidate calls, about 1.4 million in a traced url run, so
        their wrapper is :data:`_LEAF`, with ``function``'s parameters.
        All wrappers keep to locals and bind the layer's totals entry
        once, here.
        """
        stack = self.stack
        clock = self.clock
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])

        if leaf:
            namespace = {
                "clock": clock,
                "stack": stack,
                "entry": entry,
                "tracer": self,
                "function": function,
            }
            names, parameters = [], []
            for parameter in inspect.signature(function).parameters.values():
                if (
                    parameter.kind is not parameter.POSITIONAL_OR_KEYWORD
                    or parameter.name in namespace  # would shadow the wrapper's names
                ):
                    raise TypeError(f"leaf span {name!r} needs plain parameters")
                names.append(parameter.name)
                if parameter.default is parameter.empty:
                    parameters.append(parameter.name)
                else:
                    namespace[f"_{parameter.name}"] = parameter.default
                    parameters.append(f"{parameter.name}=_{parameter.name}")
            source = _LEAF.format(parameters=", ".join(parameters), names=", ".join(names))
            exec(source, namespace)
            return namespace["spanned"]

        def spanned(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return function(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    self.root_s += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children

        return spanned

    # -- installing wrappers --------------------------------------------- #

    def patch(self, owner, attribute: str, replacement: Callable) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def span(
        self,
        owner,
        attribute: str,
        name: str,
        around: Optional[Callable] = None,
        leaf: bool = False,
    ) -> None:
        """Put a span named ``name`` around ``owner.attribute``.

        ``around(original)`` may first wrap the original to record counters
        inside the span, so their cost is charged to the layer itself.
        """
        original = getattr(owner, attribute)
        self.patch(
            owner,
            attribute,
            self.wrap(name, around(original) if around else original, leaf),
        )

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- cross-process --------------------------------------------------- #

    def follow_forks(self) -> None:
        """Start every forked child with empty totals and an empty stack,
        so a worker reports only its own spans."""
        if not self._follows_forks:
            os.register_at_fork(after_in_child=self.reset)
            self._follows_forks = True

    def snapshot(self) -> dict:
        return {
            "pid": os.getpid(),
            "totals": {
                name: list(entry) for name, entry in self.totals.items() if entry[0]
            },
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "root_s": self.root_s,
            "samples": list(self.samples),
        }

    def flush(self) -> None:
        """Write this process's totals for the parent to merge."""
        if self.flush_dir is None:
            return
        path = self.flush_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def collect(self) -> List[dict]:
        """Read and remove the totals workers flushed since the last call."""
        if self.flush_dir is None or not self.flush_dir.is_dir():
            return []
        tables = []
        for path in sorted(self.flush_dir.glob("spans-*.json")):
            tables.append(json.loads(path.read_text()))
            path.unlink()
        return tables


def merge(tables: Iterable[dict]) -> dict:
    """Sum per-layer totals and counters over processes; peaks take the max."""
    merged = {"totals": {}, "counts": {}, "peaks": {}, "root_s": 0.0, "samples": []}
    for table in tables:
        for name, (calls, total, own) in table["totals"].items():
            entry = merged["totals"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, amount in table["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + amount
        for name, value in table["peaks"].items():
            merged["peaks"][name] = max(merged["peaks"].get(name, 0), value)
        merged["root_s"] += table["root_s"]
        merged["samples"].extend(table["samples"])
    return merged


def install(tracer: Tracer) -> None:
    """Wrap the entry point of every layer the benchmark reports on."""
    from multiprocessing.connection import Connection

    import host
    from repro.core import fuzzer
    from repro.core.queue import CandidateQueue
    from repro.eval import checkpoint
    from repro.obs.lineage import LineageLog
    from repro.runtime import executor
    from repro.service import scheduler
    from repro.service.jobs import JobStore

    tracer.follow_forks()

    def sampled(run_subject):
        def run(subject, text, *args, **kwargs):
            tracer.sample(text)
            return run_subject(subject, text, *args, **kwargs)

        return run

    def counted_substitutions(substitutions_for):
        def substitutions(result):
            produced = substitutions_for(result)
            tracer.count("substitute.out", len(produced))
            return produced

        return substitutions

    # The queue only grows by pushes, which are too frequent to observe
    # twice more each; its length peaks right before a pop, a compaction
    # or the end of a run (``live_depth``), so those observe it instead.
    def counted_compact(compact):
        def counted(queue, bound=None):
            before = len(queue)
            tracer.peak("queue.peak_len", before)
            compact(queue, bound)
            if bound is not None and len(queue) < before:
                tracer.count("queue.compactions")  # a push that shrank the queue

        return counted

    def observed_depth(live_depth):
        def observed(queue, seen):
            tracer.peak("queue.peak_len", len(queue))
            return live_depth(queue, seen)

        return observed

    def counted_pop(pop):
        def counted(queue):
            tracer.peak("queue.peak_len", len(queue))
            candidate = pop(queue)
            if (
                candidate is not None
                and queue.seen is not None
                and candidate.text in queue.seen
            ):
                tracer.count("queue.dead_pops")
            return candidate

        return counted

    def counted_execute(execute):
        def counted(pool, text):
            if text in getattr(pool, "_ready", ()):
                tracer.count("executor.ready_hits")
            tracer.sample(text)
            tracer.in_executor += 1
            try:
                return execute(pool, text)
            finally:
                tracer.in_executor -= 1

        return counted

    def counted_submit(submit):
        def counted(pool, worker_index, texts):
            tracer.count("executor.submitted", len(texts))
            return submit(pool, worker_index, texts)

        return counted

    def counted_recv(recv_bytes):
        def counted(connection, maxsize=None):
            buffer = recv_bytes(connection, maxsize)
            if tracer.in_executor:
                tracer.count("executor.wire_bytes", buffer.getbuffer().nbytes)
            return buffer

        return counted

    def sized_save(save_snapshot):
        def save(*args, **kwargs):
            path = save_snapshot(*args, **kwargs)
            tracer.count("checkpoint.bytes", os.path.getsize(path))
            return path

        return save

    def flushed(run_slice):
        def run(task):
            try:
                return run_slice(task)
            finally:
                tracer.flush()

        return run

    tracer.span(fuzzer.PFuzzer, "run", "fuzzer")
    tracer.span(fuzzer, "run_subject", "harness", sampled)
    tracer.span(fuzzer, "substitutions_for", "substitute", counted_substitutions)
    # Per-candidate spans, about a million a run: leaves, the cheap wrapper.
    tracer.span(CandidateQueue, "push", "queue.push", leaf=True)
    tracer.span(LineageLog, "new_node", "lineage", leaf=True)
    tracer.span(CandidateQueue, "pop", "queue.pop", counted_pop, leaf=True)
    tracer.span(CandidateQueue, "rescore", "queue.rescore")
    tracer.patch(
        CandidateQueue, "_compact", counted_compact(CandidateQueue._compact)
    )
    tracer.patch(
        CandidateQueue, "live_depth", observed_depth(CandidateQueue.live_depth)
    )
    tracer.span(executor.PooledExecutor, "execute", "executor.execute", counted_execute)
    tracer.span(executor.PooledExecutor, "prefetch", "executor.prefetch")
    tracer.span(executor, "rehydrate_run_result", "executor.rehydrate")
    tracer.patch(
        executor.PooledExecutor,
        "_submit",
        counted_submit(executor.PooledExecutor._submit),
    )
    tracer.patch(Connection, "_recv_bytes", counted_recv(Connection._recv_bytes))
    tracer.span(checkpoint, "save_snapshot", "checkpoint.save", sized_save)
    tracer.span(checkpoint, "load_latest", "checkpoint.load")
    tracer.span(fuzzer.PFuzzer, "snapshot", "checkpoint.snapshot")
    tracer.span(fuzzer.PFuzzer, "restore", "checkpoint.restore")
    tracer.span(JobStore, "_append_event", "jobs.journal")
    tracer.span(scheduler.CampaignScheduler, "run_until_idle", "scheduler")
    # The benchmark's own host probes, so their time is no layer's.
    tracer.span(host, "probe", "host.probe", leaf=True)
    tracer.patch(
        scheduler,
        "_run_slice",
        flushed(tracer.wrap("slice", scheduler._run_slice)),
    )


def layer_metrics(table: dict) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` that spans measure."""
    totals = table["totals"]
    counts = table["counts"]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def own(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    executes = calls("executor.execute")
    submitted = counts.get("executor.submitted", 0)
    return {
        "harness.calls": calls("harness"),
        "harness.self_s": own("harness"),
        "executor.execute_s": own("executor.execute"),
        "executor.prefetch_s": own("executor.prefetch"),
        "executor.rehydrate_s": own("executor.rehydrate"),
        "executor.wire_bytes_per_exec": ratio(
            counts.get("executor.wire_bytes", 0), executes
        ),
        "executor.prefetch_hit_ratio": ratio(
            counts.get("executor.ready_hits", 0), executes
        ),
        "executor.speculative_waste_ratio": (
            max(0.0, 1.0 - executes / submitted) if submitted else 0.0
        ),
        "substitute.calls": calls("substitute"),
        "substitute.self_s": own("substitute"),
        "substitute.out_per_call": ratio(
            counts.get("substitute.out", 0), calls("substitute")
        ),
        "queue.push.calls": calls("queue.push"),
        "queue.push.self_s": own("queue.push"),
        "queue.pop.self_s": own("queue.pop"),
        "queue.rescore.calls": calls("queue.rescore"),
        "queue.rescore.self_s": own("queue.rescore"),
        "queue.compactions": counts.get("queue.compactions", 0),
        "queue.dead_pop_ratio": ratio(
            counts.get("queue.dead_pops", 0), calls("queue.pop")
        ),
        "queue.peak_len": table["peaks"].get("queue.peak_len", 0),
        "lineage.nodes": calls("lineage"),
        "lineage.self_s": own("lineage"),
        "fuzzer.self_s": own("fuzzer"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.save_s": own("checkpoint.save"),
        "checkpoint.snapshot_s": own("checkpoint.snapshot"),
        "checkpoint.load_s": own("checkpoint.load"),
        "checkpoint.restore_s": own("checkpoint.restore"),
        "checkpoint.bytes_per_save": ratio(
            counts.get("checkpoint.bytes", 0), calls("checkpoint.save")
        ),
        "jobs.journal_appends": calls("jobs.journal"),
        "jobs.journal_s": own("jobs.journal"),
        "scheduler.slices": calls("slice"),
        "scheduler.slice_self_s": own("slice"),
        "scheduler.self_s": own("scheduler"),
    }


def render(table: dict, title: str) -> str:
    """Self-time table of one process group, largest layer first.

    Shares are of ``root_s``, the summed duration of the group's root
    spans, which the self times add up to.
    """
    root = table["root_s"]
    rows = sorted(table["totals"].items(), key=lambda item: -item[1][2])
    lines = [
        f"  {title}: self time by layer",
        f"    {'layer':<20} {'calls':>9} {'self_s':>9} {'share':>7}",
    ]
    for name, (calls, _total, own) in rows:
        share = 100.0 * own / root if root else 0.0
        lines.append(f"    {name:<20} {calls:>9} {own:>9.3f} {share:>6.1f}%")
    summed = sum(entry[2] for entry in table["totals"].values())
    lines.append(
        f"    {'sum of self times':<20} {'':>9} {summed:>9.3f} "
        f"{(100.0 * summed / root if root else 0.0):>6.1f}%"
    )
    return "\n".join(lines)
