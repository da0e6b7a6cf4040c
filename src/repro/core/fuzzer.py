"""The parser-directed fuzzing loop (paper Algorithm 1).

The loop alternates two executions per iteration, as in the paper:

1. the candidate itself — a substitution never *appends*, so this run
   checks whether the substitution completed a valid input;
2. the candidate plus one random character — because "not all parsers use
   an EOF check", the random extension probes whether the parser wanted
   more input, and its comparison trace is what substitutions are derived
   from when both runs fail.

Every valid input that covers new branches is emitted, the valid-coverage
set ``vBr`` grows, and the whole queue is re-scored without re-running
anything.

Branches are interned arc ids (small ints, see
:mod:`repro.runtime.arcs`), so ``vBr`` and the heuristic's set differences
operate on int sets.  Scoring uses the caches on
:class:`~repro.core.candidate.Candidate` (``static_score``, ``new_count``)
plus a bytearray bitmap of ``vBr`` indexed by arc id, making a queue
re-score O(queue) with a vectorised membership count per candidate instead
of a set difference per candidate.

Execution is pluggable (``config.executor``): the default ``"inline"``
engine calls :func:`~repro.runtime.harness.run_subject` in-process; the
``"pooled"`` engine routes candidates through a persistent forked-worker
executor (:mod:`repro.runtime.executor`) and — with ``config.batch_size``
> 1 — speculatively submits the queue's likely next pops and each one's
predicted append run in the same round-trip.  Executions are a pure
function of the input text, and all campaign bookkeeping (counters, path
counts, lineage, RNG) happens here at consume time, so every engine
produces byte-identical campaign results.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.candidate import Candidate, normalize_branches
from repro.core.config import FuzzerConfig, config_fingerprint, config_problems
from repro.core.heuristic import static_score
from repro.core.queue import CandidateQueue
from repro.core.substitute import substitutions_for
from repro.obs.lineage import LineageLog
from repro.obs.trace import NULL_RECORDER, JsonlTraceRecorder, PhaseTimer, TraceRecorder
from repro.runtime.arcs import arc_table_for
from repro.runtime.harness import ExitStatus, RunResult, run_subject
from repro.subjects.base import Subject

#: Fault-injection hook for the durability test suite: when set, the
#: process SIGKILLs itself as soon as the execution counter reaches this
#: value — an uncatchable mid-campaign death, exactly what checkpoint
#: resume must survive.  Set via ``repro.eval.parallel``'s ``kill-at``
#: fault mode; never set in production.
_TEST_KILL_AT: Optional[int] = None


@dataclass
class FuzzingResult:
    """Outcome of one fuzzing campaign.

    Attributes:
        valid_inputs: inputs emitted because they were accepted *and*
            covered new branches, in discovery order (the paper's printed
            outputs).
        all_valid: every accepted input encountered, including ones without
            new coverage.
        executions: number of subject executions performed.
        valid_branches: union of branches (interned arc ids) covered by
            emitted valid inputs (the final ``vBr``).
        rejected: number of rejected executions.
        hangs: number of step-budget exhaustions.
        crashes: number of CRASH executions (unexpected subject
            exceptions, classified by the harness) — counted in every
            campaign, hunting or not.
        crash_inputs: with ``config.hunt_crashes``, the first input to
            reach each distinct failure site, in discovery order
            (deduplicated by failure-site signature; empty otherwise).
        crash_signatures: ``(exception_type, filename, line)`` failure
            sites, aligned with ``crash_inputs``.
        crash_path_signatures: stable path signature of each recorded
            crashing execution, aligned with ``crash_inputs`` (persisted
            alongside the corpus, like ``valid_signatures``).
        emit_log: (execution number, input) pairs for each emitted input.
        wall_time: campaign duration in seconds.
        queue_depth: the queue's *live frontier* when the budget ran out —
            candidates that could still produce an execution (dead and
            dominated entries excluded; see
            :meth:`repro.core.queue.CandidateQueue.live_depth`).  Cull-
            invariant by construction: campaigns with and without
            ``cull_every`` report the same depth.
        phase_times: seconds spent per campaign phase — ``"execute"``
            (subject runs under instrumentation), ``"rescore"`` (queue
            re-scoring after emits), ``"substitute"`` (deriving and
            queueing substitution candidates) and ``"checkpoint"``
            (durable snapshots, when enabled: loading and restoring one
            on resume, and writing them).  Totals are cumulative across
            resumes, but a snapshot cannot hold the time of its own
            write, so the write that ended each earlier run is missing
            from the totals of a campaign resumed from its checkpoint (a
            campaign resumed from memory, see :meth:`PFuzzer.resume`,
            keeps it).
        valid_signatures: stable path signature of each emitted input's
            execution, aligned with ``valid_inputs`` (persisted alongside
            the corpus; see :mod:`repro.eval.corpus_store`).
        valid_lineage: lineage node id of each emitted input, aligned
            with ``valid_inputs`` — the entry points into ``lineage`` for
            replaying an input's derivation chain.
        lineage: the campaign's full candidate lineage tree (see
            :mod:`repro.obs.lineage`); always recorded, tracing or not.
        resumes: how many times this campaign was resumed, from a
            checkpoint or from memory (0 for an uninterrupted run).
        preempted: True when the run stopped at an iteration boundary
            because the ``should_preempt`` hook asked it to, with budget
            still left — the campaign is paused, not finished, and a
            resume continues it exactly where an uninterrupted run would
            have been.
    """

    valid_inputs: List[str] = field(default_factory=list)
    all_valid: List[str] = field(default_factory=list)
    executions: int = 0
    valid_branches: FrozenSet[int] = frozenset()
    rejected: int = 0
    hangs: int = 0
    crashes: int = 0
    crash_inputs: List[str] = field(default_factory=list)
    crash_signatures: List[tuple] = field(default_factory=list)
    crash_path_signatures: List[int] = field(default_factory=list)
    emit_log: List[Tuple[int, str]] = field(default_factory=list)
    wall_time: float = 0.0
    queue_depth: int = 0
    phase_times: Dict[str, float] = field(default_factory=dict)
    valid_signatures: List[int] = field(default_factory=list)
    resumes: int = 0
    preempted: bool = False
    valid_lineage: List[int] = field(default_factory=list)
    lineage: Optional[LineageLog] = None


class PFuzzer:
    """Parser-directed fuzzer for one subject.

    Args:
        subject: the program under test.
        config: campaign configuration.
        on_emit: optional callback invoked as ``on_emit(executions, text)``
            for every emitted valid input — the streaming equivalent of the
            paper's ``print(input)`` (Algorithm 1, Line 38).
        should_preempt: optional callback polled once per loop iteration,
            at the iteration boundary (no candidate in flight), as
            ``should_preempt(run_executions, total_executions)``.  Returning
            True stops the run there: with ``checkpoint_dir`` set the final
            snapshot captures the paused state and a later ``resume``
            continues byte-identically — the mechanism the campaign
            service's time-slicing scheduler is built on.
        tracer: optional :class:`~repro.obs.trace.TraceRecorder` receiving
            the campaign's structured events.  When None, a
            :class:`~repro.obs.trace.JsonlTraceRecorder` is created for
            ``config.trace_path`` (and closed when :meth:`run` returns),
            or the null recorder if no path is configured.  Tracing never
            changes the campaign result: the lineage tree and its ids are
            maintained identically either way.
    """

    def __init__(
        self,
        subject: Subject,
        config: Optional[FuzzerConfig] = None,
        on_emit=None,
        should_preempt=None,
        tracer: Optional[TraceRecorder] = None,
    ) -> None:
        self.subject = subject
        self.config = config or FuzzerConfig()
        problems = config_problems(self.config.options())
        if problems:
            raise ValueError("; ".join(problems))
        self.on_emit = on_emit
        self.should_preempt = should_preempt
        self._attach_trace(
            tracer,
            totals={
                "execute": 0.0,
                "rescore": 0.0,
                "substitute": 0.0,
                "checkpoint": 0.0,
            },
        )
        #: Set by :meth:`resume`: the next run continues the in-memory
        #: state instead of loading a checkpoint.
        self._resume_in_memory = False
        self._lineage = LineageLog()
        self._rng = random.Random(self.config.seed)
        #: Characters this object drew from ``_rng`` (snapshots omit it).
        self._draws = 0
        #: Copy of ``_rng`` that :meth:`_prefetch` draws ahead on to
        #: predict append runs; never feeds the campaign itself.
        #: ``_predicted`` holds its characters for the draws numbered
        #: ``_predicted_from`` and up, all from the append pool of shard
        #: epoch ``_predicted_epoch`` (None: resync from ``_rng`` first).
        self._predictor = random.Random()
        self._predicted: List[str] = []
        self._predicted_from = 0
        self._predicted_epoch: Optional[int] = None
        self._valid_branches: Set[int] = set()
        #: Cached ``frozenset(vBr)``, grown *incrementally* (unioned with
        #: each emit's added arcs) — never rebuilt from scratch.
        self._vbr_frozen: FrozenSet[int] = frozenset()
        #: Bitmap of vBr indexed by interned arc id, grown on demand —
        #: what first-time candidate scoring counts against (a C-level
        #: ``sum(map(...))`` over the candidate's sorted arc array).
        self._vbr_map = bytearray()
        self._path_counts: Dict[int, int] = {}
        self._seen: Set[str] = set()
        self._all_valid_seen: Set[str] = set()
        #: Failure-site signatures already recorded (crash-hunting dedupe).
        self._crash_seen: Set[tuple] = set()
        self._result = FuzzingResult()
        self._queue = CandidateQueue(
            self._score, limit=self.config.queue_limit, seen=self._seen
        )
        #: Wall seconds consumed by previous runs of a resumed campaign.
        self._wall_consumed = 0.0
        self._run_started: Optional[float] = None
        self._last_checkpoint = 0
        self._last_cull = 0
        #: The pooled execution engine, created for the duration of
        #: :meth:`run`; None means the inline fast path.
        self._executor = None
        self._syncer = None
        if self.config.sync_store is not None:
            from repro.eval.corpus_store import CorpusStore
            from repro.eval.sync import CorpusSyncer

            self._syncer = CorpusSyncer(
                CorpusStore(self.config.sync_store),
                subject=self.subject.name,
                tool="pfuzzer",
                seed=self.config.seed if self.config.seed is not None else 0,
            )
        self._sync_every = self.config.sync_cadence
        self._last_sync = 0
        #: The hybrid explore→learn→generate engine (None outside hybrid
        #: mode) and the arcs folded out of ``vBr`` by generation-phase
        #: resets — unioned back into the final ``result.valid_branches``
        #: so total decoded coverage stays monotone across resets.
        self._hybrid = None
        self._hybrid_branches: Set[int] = set()
        if self.config.hybrid:
            # Imported lazily, like the checkpoint machinery: the core
            # layer only depends on repro.hybrid when the mode is on.
            from repro.hybrid.campaign import HybridConfig, HybridEngine

            self._hybrid = HybridEngine(
                HybridConfig.from_fuzzer(self.config), self.config.seed
            )

    def _attach_trace(
        self, tracer: Optional[TraceRecorder], totals: Dict[str, float]
    ) -> None:
        """Point the run's events and phase spans at ``tracer`` (see the
        class docstring for None), keeping the phase ``totals``."""
        self._owns_trace = tracer is None and self.config.trace_path is not None
        if tracer is not None:
            self._trace = tracer
        elif self._owns_trace:
            self._trace = JsonlTraceRecorder(self.config.trace_path)
        else:
            self._trace = NULL_RECORDER
        #: Guard for event *construction* on the hot path: with tracing
        #: disabled every emit site costs exactly this flag check.
        self._trace_on = self._trace.enabled
        self._timer = PhaseTimer(self._trace, totals=totals)

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def _score(self, candidate: Candidate) -> float:
        """O(1) per candidate once the caches are warm.

        Equivalent to :func:`repro.core.heuristic.heuristic_score`: the
        vBr-independent terms live in ``candidate.static_score``, the
        new-branches count in ``candidate.new_count`` (kept current by
        :meth:`CandidateQueue.rescore`), and only the path-repetition
        penalty is looked up fresh.
        """
        weights = self.config.weights
        new_count = candidate.new_count
        if new_count is None:
            new_count = self._new_count(candidate.parent_branches)
            candidate.new_count = new_count
        cached_static = candidate.static_score
        if cached_static is None:
            cached_static = static_score(candidate, weights)
            candidate.static_score = cached_static
        score = weights.new_branches * new_count + cached_static
        score -= weights.path_repetition * self._path_counts.get(
            candidate.path_signature, 0
        )
        return score

    def _new_count(self, branches) -> int:
        """``len(branches - vBr)`` for a sorted arc array, as one bitmap
        count."""
        if not branches:
            return 0
        vbr_map = self._vbr_map
        if branches[-1] >= len(vbr_map):
            # The sorted array's last entry is its max arc id; grow the
            # bitmap once instead of bounds-checking every lookup.
            vbr_map.extend(bytes(branches[-1] + 1 - len(vbr_map)))
        return len(branches) - sum(map(vbr_map.__getitem__, branches))

    # ------------------------------------------------------------------ #
    # Shard partition (DESIGN.md §8)
    # ------------------------------------------------------------------ #

    def _shard_epoch(self) -> int:
        """Rotation epoch: advances every ``shard_rotate_every`` executions
        so the ownership mapping drifts and no candidate is permanently
        orphaned on a shard that never schedules it."""
        return self._result.executions // self.config.shard_rotate_every

    def _owns(self, text: str) -> bool:
        """Does this shard own candidate ``text`` in the current epoch?

        Ownership is ``(blake2b(text) + epoch) % shard_count == shard_id``
        — stable across processes and PYTHONHASHSEED values, and a pure
        function of (text, executions), so a resumed shard partitions
        exactly as the uninterrupted run did.
        """
        if self.config.shard_count == 1:
            return True
        digest = hashlib.blake2b(
            text.encode("utf-8", errors="surrogatepass"), digest_size=8
        ).digest()
        bucket = int.from_bytes(digest, "big") + self._shard_epoch()
        return bucket % self.config.shard_count == self.config.shard_id

    def _append_pool(self) -> str:
        """This shard's slice of the character pool in the current epoch.

        The slice rotates with the epoch; if it is empty (more shards than
        pool characters) the full pool is the fallback, keeping restarts
        and appends always possible.
        """
        if self.config.shard_count == 1:
            return self.config.character_pool
        epoch = self._shard_epoch()
        shard_count = self.config.shard_count
        shard_id = self.config.shard_id
        pool = "".join(
            char
            for index, char in enumerate(self.config.character_pool)
            if (index + epoch) % shard_count == shard_id
        )
        return pool or self.config.character_pool

    # ------------------------------------------------------------------ #
    # Execution bookkeeping
    # ------------------------------------------------------------------ #

    def _execute(self, text: str, lineage: int) -> RunResult:
        self._seen.add(text)
        started = self._timer.start()
        if self._executor is None:
            result = run_subject(
                self.subject,
                text,
                trace_coverage=self.config.trace_coverage,
                coverage_backend=self.config.coverage_backend,
            )
        else:
            # Pooled engine: the result may already be streaming in from a
            # speculative prefetch; otherwise this is one round-trip.  All
            # bookkeeping below happens here at consume time regardless of
            # when (or on which worker) the execution actually ran, which
            # is what keeps every engine byte-identical.
            result = self._executor.execute(text)
        self._timer.stop("execute", started)
        self._result.executions += 1
        if _TEST_KILL_AT is not None and self._result.executions >= _TEST_KILL_AT:
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies
        signature = result.path_signature()
        self._path_counts[signature] = self._path_counts.get(signature, 0) + 1
        if result.status is ExitStatus.REJECTED:
            self._result.rejected += 1
        elif result.status is ExitStatus.HANG:
            self._result.hangs += 1
        elif result.status is ExitStatus.CRASH:
            self._result.crashes += 1
            self._record_crash(result, signature, lineage)
        elif result.valid and text not in self._all_valid_seen:
            self._all_valid_seen.add(text)
            self._result.all_valid.append(text)
        if self._trace_on:
            self._trace.emit(
                "candidate_executed",
                lineage=lineage,
                executions=self._result.executions,
                status=result.status.name.lower(),
            )
        return result

    def _record_crash(
        self, result: RunResult, path_signature: int, lineage: int
    ) -> None:
        """Crash-hunting bookkeeping for one CRASH execution.

        Only the *first* input to reach each failure site is recorded
        (the site signature is the dedupe key, "Fuzzing with Fast
        Failure Feedback" style); without ``config.hunt_crashes`` the
        execution is counted but nothing is recorded.
        """
        if not self.config.hunt_crashes:
            return
        signature = result.crash_signature
        if signature is None or signature in self._crash_seen:
            return
        self._crash_seen.add(signature)
        self._result.crash_inputs.append(result.text)
        self._result.crash_signatures.append(signature)
        self._result.crash_path_signatures.append(path_signature)
        if self._trace_on:
            self._trace.emit(
                "crash_found",
                lineage=lineage,
                executions=self._result.executions,
                text=result.text,
                signature=list(signature),
            )

    def _absorb_valid_branches(self, added: FrozenSet[int]) -> None:
        """Grow vBr with ``added`` arcs across all three representations.

        The frozenset cache is unioned incrementally — rebuilding it from
        the full set on every coverage-growing input was O(|vBr|) per emit
        — and the scoring bitmap flips just the added bits.
        """
        self._valid_branches |= added
        self._vbr_frozen |= added
        vbr_map = self._vbr_map
        top = max(added)
        if top >= len(vbr_map):
            vbr_map.extend(bytes(top + 1 - len(vbr_map)))
        for arc in added:
            vbr_map[arc] = 1

    def _is_valid_new(self, result: RunResult) -> bool:
        """Algorithm 1 ``runCheck``: exit 0 and new branch coverage."""
        if not result.valid:
            return False
        if not self.config.trace_coverage:
            # Without coverage the gate degrades to "first time seen":
            # _execute deduplicates inputs, so any valid result here is new.
            return True
        return bool(result.branches - self._valid_branches)

    # ------------------------------------------------------------------ #
    # Algorithm 1 procedures
    # ------------------------------------------------------------------ #

    def _handle_valid(self, result: RunResult, parents: int, lineage: int) -> None:
        """``validInp``: emit, grow vBr, re-score the queue, keep extending."""
        self._result.valid_inputs.append(result.text)
        self._result.valid_signatures.append(result.path_signature())
        self._result.valid_lineage.append(lineage)
        self._result.emit_log.append((self._result.executions, result.text))
        if self._trace_on:
            self._trace.emit(
                "input_emitted",
                lineage=lineage,
                executions=self._result.executions,
                text=result.text,
                signature=result.path_signature(),
            )
        if self.on_emit is not None:
            self.on_emit(self._result.executions, result.text)
        added = result.branches - self._valid_branches
        if added:
            self._absorb_valid_branches(added)
        started = self._timer.start()
        self._queue.rescore(added)
        self._timer.stop("rescore", started)
        self._add_candidates(result, parents, lineage)

    def _add_candidates(self, result: RunResult, parents: int, lineage: int) -> None:
        """``addInputs``: one queue entry per satisfiable comparison.

        ``lineage`` is the executed input's lineage node: every queued
        substitution becomes its child, carrying the comparison that
        caused the splice.
        """
        started = self._timer.start()
        # Normalise to the canonical sorted arc array once; every queued
        # sibling shares the same (immutable-by-convention) buffer.
        parent_branches = normalize_branches(result.branches_for_heuristic())
        avg_stack = result.average_stack_size()
        signature = result.path_signature()
        # The siblings also share the vBr-dependent terms of their score,
        # and neither vBr nor the path counts change while they are
        # queued, so those terms are computed once here.  The per-sibling
        # sum below performs _score's operations in _score's order, so
        # every stored priority is the one _score would have stored.
        weights = self.config.weights
        new_count = self._new_count(parent_branches)
        new_term = weights.new_branches * new_count
        penalty = weights.path_repetition * self._path_counts.get(signature, 0)
        trace_on = self._trace_on
        for substitution in substitutions_for(result):
            if substitution.text in self._seen:
                if trace_on:
                    self._trace.emit(
                        "candidate_rejected",
                        reason="duplicate",
                        text=substitution.text,
                    )
                continue
            if not self._owns(substitution.text):
                # Another shard of the group owns this candidate in the
                # current epoch; rotation re-offers it here later, and the
                # owning shard's emission arrives via corpus sync.
                if trace_on:
                    self._trace.emit(
                        "candidate_rejected",
                        reason="other-shard",
                        text=substitution.text,
                    )
                continue
            if len(substitution.text) > self.config.max_input_length:
                if trace_on:
                    self._trace.emit(
                        "candidate_rejected",
                        reason="too-long",
                        text=substitution.text,
                    )
                continue
            node = self._lineage.new_node(
                lineage,
                "substitute",
                substitution.text,
                replacement=substitution.replacement,
                at_index=substitution.at_index,
                cmp_kind=substitution.kind,
            )
            if trace_on:
                self._trace.emit(
                    "candidate_scheduled",
                    lineage=node,
                    parent=lineage,
                    op="substitute",
                    text=substitution.text,
                    replacement=substitution.replacement,
                )
                self._trace.emit(
                    "substitution_applied",
                    lineage=node,
                    parent=lineage,
                    at_index=substitution.at_index,
                    replacement=substitution.replacement,
                    cmp_kind=substitution.kind,
                    cmp_expected=substitution.expected,
                )
            candidate = Candidate(
                text=substitution.text,
                replacement=substitution.replacement,
                parents=parents + 1,
                parent_branches=parent_branches,
                avg_stack=avg_stack,
                path_signature=signature,
                new_count=new_count,
                lineage=node,
            )
            cached_static = static_score(candidate, weights)
            candidate.static_score = cached_static
            score = new_term + cached_static
            score -= penalty
            self._queue.push(candidate, score)
        self._timer.stop("substitute", started)

    def _random_char(self) -> str:
        self._draws += 1
        return self._rng.choice(self._append_pool())

    def _seed_candidate(self, text: str) -> Candidate:
        """A root candidate with a fresh ``"seed"`` lineage node."""
        node = self._lineage.new_node(None, "seed", text, replacement=text)
        if self._trace_on:
            self._trace.emit(
                "candidate_scheduled",
                lineage=node,
                parent=None,
                op="seed",
                text=text,
            )
        return Candidate(text, lineage=node)

    def _next_candidate(self) -> Optional[Candidate]:
        while True:
            candidate = self._queue.pop()
            if candidate is None:
                return self._restart_candidate()
            if candidate.text not in self._seen:
                return candidate

    def _restart_candidate(self) -> Optional[Candidate]:
        """Fresh random seed when the queue runs dry."""
        for _ in range(64):
            text = self._random_char()
            if text not in self._seen:
                return self._seed_candidate(text)
        # 64 draws can all collide with already-seen characters while the
        # pool still holds unseen ones; returning None here used to end the
        # campaign with budget left.  Fall back to a deterministic pool
        # scan so the campaign only stops once the pool is truly exhausted.
        for char in self.config.character_pool:
            if char not in self._seen:
                return self._seed_candidate(char)
        return None

    # ------------------------------------------------------------------ #
    # Corpus sync (see repro.eval.sync)
    # ------------------------------------------------------------------ #

    def _sync_point(self, pull: bool) -> None:
        """Exchange valid inputs with the shared store.

        Push first (own fresh emissions, one ``O_APPEND`` write), then —
        for cadence syncs — pull other shards' records, queueing each
        unseen input as a ``"sync"``-lineage root candidate.  Imports are
        sorted by input text before queueing, so lineage ids and queue
        order are independent of how other shards' pushes interleaved in
        the store.
        """
        result = self._result
        pushed = self._syncer.push(
            result.valid_inputs, result.valid_signatures
        )
        imported = 0
        if pull:
            for record in self._syncer.pull():
                if record.input in self._seen:
                    continue
                if len(record.input) > self.config.max_input_length:
                    continue
                node = self._lineage.new_node(
                    None,
                    "sync",
                    record.input,
                    replacement=record.input,
                    cmp_kind=record.tool,
                )
                if self._trace_on:
                    self._trace.emit(
                        "candidate_scheduled",
                        lineage=node,
                        parent=None,
                        op="sync",
                        text=record.input,
                    )
                self._queue.push(Candidate(record.input, lineage=node))
                imported += 1
            self._last_sync = result.executions
        if self._trace_on:
            self._trace.emit(
                "corpus_sync",
                executions=result.executions,
                pushed=pushed,
                imported=imported,
            )

    def _maybe_sync(self) -> None:
        """Cadence sync at the iteration boundary.

        The trigger is a pure function of the executions counter (never
        wall time), so sync points land at identical executions across
        reruns and across kill+resume — the determinism invariant the
        cross-shard harness checks.
        """
        if self._syncer is None:
            return
        if self._result.executions - self._last_sync < self._sync_every:
            return
        self._sync_point(pull=True)

    # ------------------------------------------------------------------ #
    # Queue hygiene (see repro.core.queue.CandidateQueue.cull)
    # ------------------------------------------------------------------ #

    def _maybe_cull(self) -> None:
        """Cadence cull at the iteration boundary.

        Same discipline as :meth:`_maybe_sync`: the trigger is a pure
        function of the executions counter.  Cull timing is nevertheless
        result-invariant — culling only removes entries pop would have
        discarded anyway — so ``_last_cull`` need not survive snapshots;
        a resumed campaign just restarts its cadence from the resume
        point and still finishes fingerprint-identical.
        """
        if self.config.cull_every is None:
            return
        if self._result.executions - self._last_cull < self.config.cull_every:
            return
        started = self._timer.start()
        stats = self._queue.cull(self._seen)
        self._last_cull = self._result.executions
        self._timer.stop("rescore", started)
        if self._trace_on:
            self._trace.emit(
                "queue_cull",
                executions=self._result.executions,
                dead=stats.dead,
                dominated=stats.dominated,
                kept=stats.kept,
            )

    # ------------------------------------------------------------------ #
    # Hybrid campaigns (see repro.hybrid)
    # ------------------------------------------------------------------ #

    def _maybe_hybrid(self) -> None:
        """Cadence hook of the hybrid alternation, iteration-boundary only.

        Same discipline as :meth:`_maybe_sync`: the engine observes the
        execution/emission deltas and the phase trigger is a pure
        function of campaign counters and snapshot state — never wall
        time — so hybrid phases land at identical executions across
        reruns and across kill+resume.  Runs *before* the sync/cull/
        checkpoint hooks: a phase changes the campaign (executions,
        corpus, vBr), and the other cadences must see its effects the
        same way in interrupted and uninterrupted runs.
        """
        engine = self._hybrid
        if engine is None:
            return
        result = self._result
        engine.observe_campaign(result.executions, len(result.valid_inputs))
        if not engine.plateaued(result.executions, len(self._all_valid_seen)):
            return
        self._hybrid_phase(engine)

    def _hybrid_phase(self, engine) -> None:
        """One learn→generate phase: mine, reset ``vBr``, flood.

        Mining replays each corpus input through the subject, so those
        runs are charged to the execution budget like any other; the
        charge happens whether or not budget remains, and the flood
        checks the budget per candidate (generated texts an exhausted
        budget cannot run are simply dropped — they were never queued,
        so the end-of-run state matches what a resume reproduces).
        """
        from repro.hybrid.campaign import enrich_grammar, lineage_keywords
        from repro.miner.mine import mine_grammar

        result = self._result
        phase = engine.phase + 1
        corpus = sorted(self._all_valid_seen, key=lambda t: (len(t), t))
        corpus = corpus[-engine.config.mine_corpus :]
        started = self._timer.start()
        grammar = mine_grammar(self.subject, corpus)
        result.executions += len(corpus)
        keywords = lineage_keywords(self._lineage, result.valid_lineage)
        grammar = enrich_grammar(grammar, keywords)
        engine.learn(grammar, keywords)
        self._timer.stop("mine", started)
        if self._trace_on:
            self._trace.emit(
                "grammar_mined",
                executions=result.executions,
                phase=phase,
                corpus=len(corpus),
                rules=len(grammar.rules),
                keywords=len(keywords),
            )
        # Reset vBr so parser-directed search re-measures progress
        # against the flooded corpus: fold the current set into the
        # cumulative union, clear all three representations, and rescore
        # the queue from zero (incremental decrements are meaningless
        # across a reset).
        self._hybrid_branches |= self._valid_branches
        self._valid_branches = set()
        self._vbr_frozen = frozenset()
        self._vbr_map = bytearray()
        started = self._timer.start()
        self._queue.rescore_full()
        self._timer.stop("rescore", started)
        injected = 0
        valid = 0
        flood = engine.flood(
            self.config.gen_batch, self._seen, self.config.max_input_length
        )
        for position, text in enumerate(flood):
            if not self._budget_left():
                break
            self._prefetch_window(flood, position)
            node = self._lineage.new_node(
                None, "gen", text, replacement=text, cmp_kind=f"phase-{phase}"
            )
            if self._trace_on:
                self._trace.emit(
                    "candidate_scheduled",
                    lineage=node,
                    parent=None,
                    op="gen",
                    text=text,
                )
            run = self._execute(text, node)
            injected += 1
            if self._is_valid_new(run):
                valid += 1
                self._handle_valid(run, parents=0, lineage=node)
            else:
                self._add_candidates(run, parents=0, lineage=node)
        if self._trace_on:
            self._trace.emit(
                "gen_phase",
                executions=result.executions,
                phase=phase,
                injected=injected,
                valid=valid,
            )
        engine.finish_phase(result.executions, len(result.valid_inputs))

    # ------------------------------------------------------------------ #
    # Durable snapshots (see repro.eval.checkpoint)
    # ------------------------------------------------------------------ #

    def _config_fingerprint(self) -> dict:
        """Everything a snapshot's config must match to be resumable (see
        :func:`repro.core.config.config_fingerprint`)."""
        return config_fingerprint(self.config, type(self.subject).__name__)

    @staticmethod
    def _encode_candidate(candidate: Candidate, branch_set: int) -> list:
        """A candidate's fields in declaration order, with its parent
        branches replaced by ``branch_set``, their index in the snapshot's
        ``branch_sets`` table."""
        return [
            candidate.text,
            candidate.replacement,
            candidate.parents,
            branch_set,
            candidate.avg_stack,
            candidate.path_signature,
            candidate.static_score,
            candidate.new_count,
            candidate.lineage,
        ]

    @staticmethod
    def _decode_candidate(record, unpacker, branch_sets: list) -> Candidate:
        if isinstance(record, dict):
            # Format-1 snapshots: a keyed record per entry, each with its
            # own copy of the parent branches.
            return Candidate(
                text=record["text"],
                replacement=record["replacement"],
                parents=record["parents"],
                parent_branches=unpacker.ids(record["parent_branches"]),
                avg_stack=record["avg_stack"],
                path_signature=record["path_signature"],
                static_score=record["static_score"],
                new_count=record["new_count"],
                lineage=record.get("lineage", 0),
            )
        text, replacement, parents, branch_set, *rest = record
        return Candidate(text, replacement, parents, branch_sets[branch_set], *rest)

    def snapshot(self) -> dict:
        """Serialise the complete campaign state as a JSON-safe payload.

        Branch arcs are decoded through the subject's shared arc table into
        their stable tuple form (interned ids are process-local); the queue
        is captured verbatim — stored priorities, FIFO order and score
        caches included — so a restored campaign pops candidates in exactly
        the order the original would have.  Siblings share one parent-branch
        array (see :meth:`_add_candidates`), so each distinct set is stored
        once in ``branch_sets`` and entries refer to it by index.
        """
        from repro.eval.checkpoint import pack_arc_ids

        table = arc_table_for(self.subject)
        entries, counter = self._queue.dump_entries()
        set_index: Dict[bytes, int] = {}
        branch_arrays = []
        records = []
        for priority, order, candidate in entries:
            branches = candidate.parent_branches
            index = set_index.setdefault(branches.tobytes(), len(branch_arrays))
            if index == len(branch_arrays):
                branch_arrays.append(branches)
            records.append(
                [priority, order, self._encode_candidate(candidate, index)]
            )
        arcs, mapping = pack_arc_ids(
            [self._valid_branches, self._hybrid_branches, *branch_arrays], table
        )
        rng_version, rng_internal, rng_gauss = self._rng.getstate()
        elapsed = (
            time.monotonic() - self._run_started
            if self._run_started is not None
            else 0.0
        )
        result = self._result
        payload = {
            "fingerprint": self._config_fingerprint(),
            "executions": result.executions,
            "rejected": result.rejected,
            "hangs": result.hangs,
            "crashes": result.crashes,
            "valid_inputs": list(result.valid_inputs),
            "all_valid": list(result.all_valid),
            "valid_signatures": list(result.valid_signatures),
            "emit_log": [list(entry) for entry in result.emit_log],
            "resumes": result.resumes,
            "seen": sorted(self._seen),
            "all_valid_seen": sorted(self._all_valid_seen),
            "path_counts": sorted(self._path_counts.items()),
            "arcs": arcs,
            "valid_branches": sorted(
                mapping[arc] for arc in self._valid_branches
            ),
            "queue": {
                "counter": counter,
                "branch_sets": [
                    sorted(mapping[arc] for arc in branches)
                    for branches in branch_arrays
                ],
                "entries": records,
            },
            "rng": [rng_version, list(rng_internal), rng_gauss],
            "wall_time": self._wall_consumed + elapsed,
            "phase_times": dict(self._timer.totals),
            "valid_lineage": list(result.valid_lineage),
            "lineage": self._lineage.to_payload(),
            "sync": (
                None
                if self._syncer is None
                else {
                    "cursor": self._syncer.to_payload(),
                    "last_sync": self._last_sync,
                }
            ),
        }
        if self._hybrid is not None:
            # Engine state plus the cumulative reset-folded arcs, packed
            # through the same mapping as vBr.  Keyed only in hybrid mode
            # so non-hybrid snapshots keep their pre-hybrid shape.
            hybrid_state = self._hybrid.to_payload()
            hybrid_state["branches"] = sorted(
                mapping[arc] for arc in self._hybrid_branches
            )
            payload["hybrid"] = hybrid_state
        if self.config.hunt_crashes:
            # Keyed only when hunting (crash-free configs keep their
            # pre-hunting snapshot shape); signatures serialise as lists.
            payload["crash_inputs"] = list(result.crash_inputs)
            payload["crash_signatures"] = [
                list(sig) for sig in result.crash_signatures
            ]
            payload["crash_path_signatures"] = list(
                result.crash_path_signatures
            )
        return payload

    def restore(self, payload: dict) -> None:
        """Restore a :meth:`snapshot` payload into this (fresh) fuzzer.

        Raises:
            repro.eval.checkpoint.CheckpointError: the snapshot was taken
                under a different subject or campaign configuration.
        """
        from repro.eval.checkpoint import ArcUnpacker, CheckpointError

        fingerprint = self._config_fingerprint()
        stored = payload.get("fingerprint")
        if stored != fingerprint:
            mismatched = sorted(
                key
                for key in set(fingerprint) | set(stored or {})
                if (stored or {}).get(key) != fingerprint.get(key)
            )
            raise CheckpointError(
                "snapshot was taken under a different configuration "
                f"(mismatched: {', '.join(mismatched) or 'all'})"
            )
        unpacker = ArcUnpacker(payload["arcs"], arc_table_for(self.subject))
        self._valid_branches = set(unpacker.ids(payload["valid_branches"]))
        self._vbr_frozen = frozenset(self._valid_branches)
        self._vbr_map = bytearray(
            max(self._valid_branches) + 1 if self._valid_branches else 0
        )
        for arc in self._valid_branches:
            self._vbr_map[arc] = 1
        self._path_counts = {
            signature: count for signature, count in payload["path_counts"]
        }
        self._seen = set(payload["seen"])
        # The queue's hygiene-aware compaction reads the seen set; keep
        # it pointed at the restored object, not the pre-restore one.
        self._queue.seen = self._seen
        self._all_valid_seen = set(payload["all_valid_seen"])
        result = self._result
        result.executions = payload["executions"]
        result.rejected = payload["rejected"]
        result.hangs = payload["hangs"]
        result.valid_inputs = list(payload["valid_inputs"])
        result.all_valid = list(payload["all_valid"])
        result.valid_signatures = list(payload["valid_signatures"])
        result.emit_log = [tuple(entry) for entry in payload["emit_log"]]
        result.resumes = payload["resumes"]
        # Tolerant restore: snapshots written before crash tracking (or
        # with hunting off) simply lack these keys.
        result.crashes = payload.get("crashes", 0)
        result.crash_inputs = list(payload.get("crash_inputs", []))
        result.crash_signatures = [
            tuple(sig) for sig in payload.get("crash_signatures", [])
        ]
        result.crash_path_signatures = list(
            payload.get("crash_path_signatures", [])
        )
        self._crash_seen = set(result.crash_signatures)
        # Older snapshots predate lineage tracking; they restore with an
        # empty tree and ids re-assigned from 1, which keeps the campaign
        # itself deterministic even though old chains are unavailable.
        result.valid_lineage = list(payload.get("valid_lineage", []))
        self._lineage = LineageLog.from_payload(payload.get("lineage"))
        queue = payload["queue"]
        # One shared array per stored set, as the original siblings shared
        # one; format-1 snapshots have no table (their entries are dicts).
        branch_sets = [
            normalize_branches(unpacker.ids(local))
            for local in queue.get("branch_sets", ())
        ]
        self._queue.restore_entries(
            [
                (
                    priority,
                    order,
                    self._decode_candidate(record, unpacker, branch_sets),
                )
                for priority, order, record in queue["entries"]
            ],
            queue["counter"],
        )
        rng_version, rng_internal, rng_gauss = payload["rng"]
        self._rng.setstate((rng_version, tuple(rng_internal), rng_gauss))
        self._timer.totals = dict(payload["phase_times"])
        self._ready_resumed(payload["wall_time"])
        sync_state = payload.get("sync")
        if self._syncer is not None and sync_state:
            self._syncer.restore_payload(sync_state["cursor"])
            self._last_sync = sync_state["last_sync"]
        hybrid_state = payload.get("hybrid")
        if self._hybrid is not None and hybrid_state:
            # The fingerprint check above guarantees hybrid configs
            # match, so engine presence and snapshot key always agree.
            self._hybrid.restore_payload(hybrid_state)
            self._hybrid_branches = set(
                unpacker.ids(hybrid_state["branches"])
            )

    def _write_checkpoint(self) -> None:
        from repro.eval.checkpoint import save_snapshot

        started = self._timer.start()
        save_snapshot(
            self.config.checkpoint_dir,
            self.snapshot(),
            keep=self.config.checkpoint_keep,
        )
        self._last_checkpoint = self._result.executions
        self._timer.stop("checkpoint", started)
        if self._trace_on:
            self._trace.emit(
                "checkpoint_written", executions=self._result.executions
            )

    def _maybe_checkpoint(self) -> None:
        if self.config.checkpoint_dir is None:
            return
        if (
            self._result.executions - self._last_checkpoint
            < self.config.checkpoint_every
        ):
            return
        self._write_checkpoint()

    def _ready_resumed(self, wall_time: float) -> None:
        """Ready restored or paused state for its next run, the same way
        on both resume paths: the cadence clocks restart at the current
        execution count, the append predictor resyncs from the RNG, the
        campaign is no longer preempted, and ``wall_time`` carries over."""
        executions = self._result.executions
        self._last_checkpoint = executions
        self._last_cull = executions
        self._predicted_epoch = None
        self._result.preempted = False
        self._wall_consumed = wall_time

    def _count_resume(self, started: float) -> None:
        """Count a resume whose work began at ``started``, charged to the
        ``"checkpoint"`` phase, and emit its ``resumed`` event."""
        self._result.resumes += 1
        self._timer.stop("checkpoint", started)
        if self._trace_on:
            self._trace.emit(
                "resumed",
                executions=self._result.executions,
                resumes=self._result.resumes,
            )

    def _resume_from_checkpoint(self) -> None:
        """Load the newest valid snapshot, if any (``config.resume``).

        Load plus restore is charged to the ``"checkpoint"`` phase; the
        timer stops after :meth:`restore` has replaced the totals, so the
        resume adds to the campaign's restored total.
        """
        from repro.eval.checkpoint import load_latest

        started = self._timer.start()
        loaded = load_latest(self.config.checkpoint_dir)
        if loaded is None:
            self._timer.stop("checkpoint", started)
            return
        self.restore(loaded[1])
        self._count_resume(started)

    def resume(
        self, should_preempt=None, tracer: Optional[TraceRecorder] = None
    ) -> None:
        """Continue this paused campaign from memory on the next :meth:`run`.

        The campaign's last run must have stopped at its preemption hook.
        That run ended with a snapshot of exactly the state still in
        memory, so the next run can skip loading it: it counts the resume,
        emits ``resumed`` and continues as a run restored from that
        snapshot would, with ``should_preempt`` and ``tracer`` taking the
        place of the constructor's.  The campaign service keeps campaigns
        resident between slices this way; only the phase times and wall
        time differ from a resume from disk, which also charges its load.

        Raises:
            ValueError: the last run was not preempted.
        """
        if not self._result.preempted:
            raise ValueError("only a preempted campaign can resume from memory")
        self.should_preempt = should_preempt
        self._attach_trace(tracer, totals=self._timer.totals)
        self._resume_in_memory = True

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def _budget_left(self) -> bool:
        if self._result.executions >= self.config.max_executions:
            return False
        cap = self.config.max_valid_inputs
        if cap is not None and len(self._result.valid_inputs) >= cap:
            return False
        return True

    def _prefetch_window(self, texts: List[str], position: int) -> None:
        """Known-ahead executions (seed replay, a generation flood): ship
        the unseen ones among the ``batch_size`` texts from ``position``
        in one round trip.  No-op on the inline engine."""
        if self._executor is not None:
            self._executor.prefetch(
                [
                    text
                    for text in texts[position : position + self.config.batch_size]
                    if text not in self._seen
                ]
            )

    def _prefetch(self, head: str) -> None:
        """Speculatively submit the next likely executions to the engine.

        ``head`` is the text about to execute.  With ``batch_size`` > 1 the
        same round-trip carries the head's append run and the queue's
        approximate next pops, each followed by its own append run, up to
        ``batch_size`` texts.  Nothing draws from ``self._rng`` between a
        candidate's execution and its append draw, so the k-th upcoming
        append draws the k-th next character, unless an emit skips an
        append, the queue restarts, or a shard's pool rotates first.
        Those characters come from :meth:`_predicted_chars`.  Pure
        overlap: results are cached by text and consumed (with all
        bookkeeping) in :meth:`_execute`, and the campaign RNG only
        advances at the real draw, so speculation — right or wrong — never
        changes the campaign.  No-op on the inline engine.
        """
        executor = self._executor
        if executor is None:
            return
        batch_size = self.config.batch_size
        if batch_size == 1:
            executor.prefetch([head])
            return
        seen = self._seen
        upcoming = [head] + [
            text
            for text in self._queue.peek_texts(batch_size // 2 + 4)
            if text not in seen and text != head
        ]
        max_length = self.config.max_input_length
        predicted = self._predicted_chars()
        pool = self._append_pool()
        texts: List[str] = []
        appends = 0
        for text in upcoming:
            texts.append(text)
            if len(texts) >= batch_size:
                break
            if len(text) < max_length:
                if appends == len(predicted):
                    predicted.append(self._predictor.choice(pool))
                extended = text + predicted[appends]
                appends += 1
                if extended not in seen:
                    texts.append(extended)
                    if len(texts) >= batch_size:
                        break
        executor.prefetch(texts)

    def _predicted_chars(self) -> List[str]:
        """The cached characters of the next draws from ``self._rng``,
        first the next one; :meth:`_prefetch` extends the list in place.

        The predictor is a copy of the campaign RNG, so its characters are
        the campaign's own as long as both draw from the same pool.  The
        pool is a function of the shard epoch, so the cache is kept while
        the epoch is the one it was filled in, dropping the characters
        already drawn; the predictor is resynced from ``self._rng``
        (a copy of its 625-word state) only after a :meth:`restore`, a
        pool change, or when the campaign drew past the cache (queue
        restarts).
        """
        epoch = self._shard_epoch() if self.config.shard_count > 1 else 0
        predicted = self._predicted
        drawn = self._draws - self._predicted_from
        if epoch != self._predicted_epoch or drawn > len(predicted):
            self._predictor.setstate(self._rng.getstate())
            predicted.clear()
            self._predicted_epoch = epoch
        else:
            del predicted[:drawn]
        self._predicted_from = self._draws
        return predicted

    def run(self) -> FuzzingResult:
        """Run the campaign until the execution budget is exhausted.

        The loop starts from the empty input, exactly like Figure 1: the
        empty string is rejected with an EOF access, the random extension
        provides the first comparisons, and the queue takes over.

        With ``config.checkpoint_dir`` set, a snapshot is written every
        ``config.checkpoint_every`` executions at the iteration boundary
        (queue intact, no candidate in flight), and ``config.resume``
        restores the newest valid snapshot before fuzzing.  A resumed
        campaign re-enters the loop at exactly the point the snapshot was
        taken: the seed inputs and the empty-string start are skipped via
        ``_seen``, so the first action is the same ``_next_candidate`` pop
        (and the same RNG draws) the uninterrupted run performed there —
        which is what makes resumed output byte-identical modulo timings.

        With ``config.executor="pooled"`` the persistent forked-worker
        engine is spawned for the duration of this call and shut down on
        the way out, crash or not.
        """
        if self.config.executor == "pooled":
            from repro.runtime.executor import PooledExecutor

            self._executor = PooledExecutor(
                self.subject,
                coverage_backend=self.config.coverage_backend,
                trace_coverage=self.config.trace_coverage,
                workers=self.config.executor_workers,
                isolation=self.config.executor_isolation,
                # Wrong guesses are never consumed: keep only a few
                # speculation windows of them, and never fewer than one
                # ``_drain`` can deliver (one result per worker).
                max_ready=max(
                    4 * self.config.batch_size, self.config.executor_workers
                ),
            )
        try:
            return self._run()
        finally:
            if self._executor is not None:
                self._executor.close()
                self._executor = None

    def _run(self) -> FuzzingResult:
        if self._resume_in_memory:
            self._resume_in_memory = False
            started = self._timer.start()
            self._ready_resumed(self._result.wall_time)
            self._count_resume(started)
        elif self.config.checkpoint_dir is not None and self.config.resume:
            self._resume_from_checkpoint()
        run_base = self._result.executions
        started = time.monotonic()
        self._run_started = started
        if self._trace_on:
            self._trace.emit(
                "campaign_start",
                subject=type(self.subject).__name__,
                seed=self.config.seed,
                budget=self.config.max_executions,
                executions=self._result.executions,
            )
        initial_inputs = list(self.config.initial_inputs)
        for position, text in enumerate(initial_inputs):
            if not self._budget_left() or text in self._seen:
                continue
            self._prefetch_window(initial_inputs, position)
            seed = self._seed_candidate(text)
            seeded = self._execute(text, seed.lineage)
            if self._is_valid_new(seeded):
                self._handle_valid(seeded, parents=0, lineage=seed.lineage)
            else:
                self._add_candidates(seeded, parents=0, lineage=seed.lineage)
        current: Optional[Candidate] = None
        if self._budget_left():
            current = (
                self._seed_candidate("")
                if "" not in self._seen
                else self._next_candidate()
            )
        while current is not None and self._budget_left():
            self._prefetch(current.text)
            result = self._execute(current.text, current.lineage)
            if self._is_valid_new(result):
                self._handle_valid(result, current.parents, current.lineage)
            elif len(current.text) < self.config.max_input_length and self._budget_left():
                char = self._random_char()
                extended = current.text + char
                if extended in self._seen:
                    extended_result = None
                else:
                    node = self._lineage.new_node(
                        current.lineage, "append", extended, replacement=char
                    )
                    if self._trace_on:
                        self._trace.emit(
                            "candidate_scheduled",
                            lineage=node,
                            parent=current.lineage,
                            op="append",
                            text=extended,
                            replacement=char,
                        )
                    extended_result = self._execute(extended, node)
                if extended_result is not None:
                    if self._is_valid_new(extended_result):
                        self._handle_valid(
                            extended_result, current.parents, node
                        )
                    else:
                        self._add_candidates(
                            extended_result, current.parents, node
                        )
            self._maybe_hybrid()
            self._maybe_sync()
            self._maybe_cull()
            if not self._budget_left():
                # Don't pop (or draw restart characters) for an iteration
                # that cannot run: the queue depth and RNG position must
                # match the final checkpoint, so resuming a finished
                # campaign reproduces its result exactly.
                break
            if self.should_preempt is not None and self.should_preempt(
                self._result.executions - run_base, self._result.executions
            ):
                # Same boundary as the budget break above: no pop, no RNG
                # draw, so the end-of-run snapshot is exactly the state an
                # uninterrupted run passed through here and a resume
                # continues it byte-identically.
                self._result.preempted = True
                if self._trace_on:
                    self._trace.emit(
                        "preempted", executions=self._result.executions
                    )
                break
            # Below both exits: a run that stops here writes its end-of-run
            # snapshot of this state instead, so each run (each service
            # slice) ends with exactly one write.
            self._maybe_checkpoint()
            current = self._next_candidate()
        # Hybrid generation phases fold vBr into _hybrid_branches before
        # each reset; the reported set is the union, so total decoded
        # coverage stays monotone across resets (empty outside hybrid).
        self._result.valid_branches = frozenset(
            self._valid_branches | self._hybrid_branches
        )
        self._result.wall_time = self._wall_consumed + (time.monotonic() - started)
        # Report the queue's *live frontier* (dead and dominated entries
        # excluded, no mutation) rather than the raw heap length: the raw
        # length depends on whether — and when — culls ran, while the
        # frontier is identical with culling on or off, which keeps
        # ``result_fingerprint`` cull-invariant.
        self._result.queue_depth = self._queue.live_depth(self._seen)
        self._result.lineage = self._lineage
        if self._syncer is not None:
            # Push-only flush so the group sees this run's final inputs;
            # no pull — importing here would depend on what other shards
            # happened to have written by our finish time, which is wall
            # clock, not schedule.  Runs before the final snapshot so the
            # cursor state is durable.
            self._sync_point(pull=False)
        if self.config.checkpoint_dir is not None:
            self._write_checkpoint()
        self._result.phase_times = dict(self._timer.totals)
        if self._trace_on:
            self._trace.emit(
                "campaign_end",
                executions=self._result.executions,
                valid_inputs=len(self._result.valid_inputs),
                wall_time=self._result.wall_time,
            )
        if self._owns_trace:
            self._trace.close()
        return self._result
