"""Persistent forked-worker execution engine (AFL-forkserver style).

:func:`repro.runtime.harness.run_subject` pays fixed costs on every call
when the caller is a fresh process: importing the subject, building its
AST instrumentation, warming the arc table.  A fuzzing campaign amortises
those inside one process, but the evaluation grid and the campaign
service pay them once per cell/slice.  This module is the forkserver
answer: a :class:`PooledExecutor` spawns persistent worker processes that
load and instrument the subject *once*, then serve candidate executions
over a pipe protocol for the lifetime of the campaign.

Isolation follows AFL: on POSIX each candidate runs in a ``fork()`` child
of the warm worker (inheriting the compiled instrumentation for free and
discarding any state the run mutated), with a same-process fallback
(``isolation="none"``) where fork is unavailable — subjects here are
pure-Python parsers whose per-run state is reset by the harness, so the
fallback is equivalence-tested, not best-effort.

Wire format: interned arc ids are process-local, so results cross the
pipe *decoded* — ``(status, error, [(arc_tuple, clock), ...],
comparisons, eof_events, crash_signature)`` — and
:func:`rehydrate_run_result` re-interns them through the parent's arc
table.
Comparison/EOF events are plain NamedTuples of primitives and pickle
as-is.  Two :class:`RunResult` fields do not cross the pipe: ``value``
(the subject's parse result — unused by the fuzzing loop) and
``Recorder.accesses`` (consumed only by the grammar miner, which runs
its own executions).  Unexpected subject exceptions are CRASH *results*
(``run_subject`` classifies them), so they ride the normal result path;
:class:`ExecutorError` is reserved for harness-infrastructure failures
(a result that cannot pickle, a fork child that died without sending).

Batching: :meth:`PooledExecutor.prefetch` submits a slice of candidate
texts in one round-trip per worker; the worker streams results back as
each finishes, and :meth:`PooledExecutor.execute` consumes them from the
ready cache.  Because ``run_subject(subject, text)`` is a pure function
of ``text`` for these subjects, speculative prefetch never changes a
campaign's result — a wrong guess only wastes worker time, and the
fingerprint-equivalence harness holds exactly.

Fault tolerance: a worker that dies mid-batch (crash, OOM kill, the test
suite's kill hook) is detected by pipe EOF, respawned, and every
not-yet-received text of its outstanding batches is resubmitted —
determinism is unaffected because results are keyed by text.
"""

from __future__ import annotations

import os
import signal
from collections import OrderedDict, deque
from multiprocessing import connection, get_context
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.arcs import arc_table_for
from repro.runtime.harness import ExitStatus, RunResult, run_subject
from repro.taint.recorder import Recorder

#: Executor modes accepted by ``FuzzerConfig.executor``.
EXECUTOR_MODES = ("inline", "pooled")

#: Isolation modes accepted by ``FuzzerConfig.executor_isolation``:
#: ``"auto"`` resolves to ``"fork"`` where ``os.fork`` exists, else
#: ``"none"`` (the same-process re-init fallback).
ISOLATION_MODES = ("auto", "fork", "none")

#: Fault-injection hook for the test suite: when set, the *next* spawned
#: worker SIGKILLs itself after serving this many executions — a worker
#: death mid-batch, exactly what respawn-and-resubmit must survive.  The
#: hook is consumed by the spawn (reset to None), so the respawned worker
#: runs clean.  Never set in production.
_TEST_WORKER_KILL_AFTER: Optional[int] = None


class ExecutorError(RuntimeError):
    """A pooled execution failed on the worker side."""


def _resolve_isolation(isolation: str) -> str:
    if isolation not in ISOLATION_MODES:
        raise ValueError(
            f"unknown executor isolation {isolation!r}; "
            f"expected one of {ISOLATION_MODES}"
        )
    if isolation == "auto":
        return "fork" if hasattr(os, "fork") else "none"
    if isolation == "fork" and not hasattr(os, "fork"):
        return "none"
    return isolation


# --------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------- #


def serialize_run_result(result: RunResult) -> tuple:
    """Flatten a :class:`RunResult` into the pickle-safe wire tuple.

    Arc ids are decoded through the result's own table so the receiving
    process can re-intern them into *its* table (ids are process-local;
    the decoded tuples are the stable identity).
    """
    table = result.arc_table
    arcs = [
        (table.arc(arc_id) if table is not None else arc_id, clock)
        for arc_id, clock in result.arcs.items()
    ]
    recorder = result.recorder
    return (
        result.status.name,
        result.error,
        arcs,
        recorder.comparisons,
        recorder.eof_events,
        result.crash_signature,
    )


def rehydrate_run_result(subject, text: str, payload: tuple) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`serialize_run_result` output.

    The recorder comes back provider-less (depth/clock/stack providers
    belong to the worker's tracer); every query the fuzzing loop performs
    (``last_compared_index``, ``first_comparison_clock``,
    ``average_stack_size``, ``comparisons_touching``) reads only the
    recorded events, which crossed the pipe verbatim.
    """
    status_name, error, arcs, comparisons, eof_events, crash_signature = payload
    table = arc_table_for(subject)
    intern = table.intern
    recorder = Recorder()
    recorder.comparisons = list(comparisons)
    recorder.eof_events = list(eof_events)
    return RunResult(
        text=text,
        status=ExitStatus[status_name],
        recorder=recorder,
        arcs={intern(arc): clock for arc, clock in arcs},
        value=None,
        error=error,
        arc_table=table,
        crash_signature=tuple(crash_signature) if crash_signature else None,
    )


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


def _run_and_send(
    subject, text, trace_coverage, backend, results, batch_id, index
) -> None:
    try:
        result = run_subject(
            subject, text, trace_coverage=trace_coverage, coverage_backend=backend
        )
        payload = serialize_run_result(result)
    except BaseException as exc:  # noqa: BLE001 - report, let parent decide
        results.send(("fail", batch_id, index, f"{type(exc).__name__}: {exc}"))
        return
    results.send(("res", batch_id, index, payload))


def _worker_main(
    subject_name: str,
    backend: str,
    trace_coverage: bool,
    isolation: str,
    kill_after: Optional[int],
    inbox,
    results,
) -> None:
    """Serve batches until the None sentinel, pipe EOF, or re-parenting.

    The subject is loaded (and its AST instrumentation compiled) exactly
    once, before the first batch; with ``isolation="fork"`` every
    candidate then runs in a fork child that inherits the warm state and
    sends its own result before ``os._exit`` — the worker never sees the
    run's side effects.  The poll loop mirrors the grid/scheduler
    workers: a SIGKILLed parent re-parents us instead of EOFing the pipe
    (siblings hold write-end copies), so exit on ``getppid`` change.
    """
    from repro.subjects.registry import load_subject

    parent = os.getppid()
    subject = load_subject(subject_name)
    if trace_coverage and backend == "ast":
        from repro.runtime.instrument import instrumented_subject

        instrumented_subject(subject)  # compile once; forks inherit it warm
    served = 0
    while True:
        try:
            while not inbox.poll(1.0):
                if os.getppid() != parent:
                    return
            item = inbox.recv()
        except (EOFError, OSError):
            return
        if item is None:
            return
        batch_id, texts = item
        for index, text in enumerate(texts):
            if kill_after is not None and served >= kill_after:
                os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - dies
            served += 1
            if isolation == "fork":
                pid = os.fork()
                if pid == 0:
                    try:
                        _run_and_send(
                            subject,
                            text,
                            trace_coverage,
                            backend,
                            results,
                            batch_id,
                            index,
                        )
                    finally:
                        os._exit(0)
                os.waitpid(pid, 0)
                # An abnormal child exit sent nothing for this index; the
                # parent detects the gap when "done" arrives.
            else:
                _run_and_send(
                    subject, text, trace_coverage, backend, results, batch_id, index
                )
        results.send(("done", batch_id))


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


class InlineExecutor:
    """The no-op engine: execute in-process, exactly ``run_subject``.

    Exists so callers can treat executor modes uniformly; ``PFuzzer``
    special-cases inline to skip even this indirection on its hot path.
    """

    def __init__(
        self, subject, *, coverage_backend: str = "settrace", trace_coverage: bool = True
    ) -> None:
        self.subject = subject
        self.coverage_backend = coverage_backend
        self.trace_coverage = trace_coverage

    def prefetch(self, texts: Iterable[str]) -> None:  # noqa: ARG002
        """Inline execution has nothing to overlap; a no-op."""

    def execute(self, text: str) -> RunResult:
        return run_subject(
            self.subject,
            text,
            trace_coverage=self.trace_coverage,
            coverage_backend=self.coverage_backend,
        )

    def run_batch(self, texts: Sequence[str]) -> List[RunResult]:
        return [self.execute(text) for text in texts]

    def close(self) -> None:
        """Nothing to shut down."""


class _WorkerHandle:
    """One persistent worker: process, pipes, and outstanding batches."""

    __slots__ = ("process", "task_conn", "result_conn", "outstanding")

    def __init__(self, process, task_conn, result_conn) -> None:
        self.process = process
        self.task_conn = task_conn
        self.result_conn = result_conn
        #: batch_id -> [text or None, ...]; a slot is cleared (None) when
        #: its result arrives, so a worker death resubmits exactly the
        #: not-yet-received texts.
        self.outstanding: "OrderedDict[int, List[Optional[str]]]" = OrderedDict()

    def unfinished_texts(self) -> List[str]:
        texts: List[str] = []
        for slots in self.outstanding.values():
            texts.extend(text for text in slots if text is not None)
        return texts


class PooledExecutor:
    """Persistent forked-worker executor for one subject.

    Args:
        subject: the program under test (its *name* is what crosses to
            workers; the registry loads a fresh instance worker-side).
        coverage_backend: ``"settrace"`` or ``"ast"``.
        trace_coverage: forwarded to :func:`run_subject`.
        workers: persistent worker processes serving executions.
        isolation: ``"auto"`` / ``"fork"`` (fork per candidate, AFL
            style) / ``"none"`` (same-process re-init fallback).
        max_ready: ready-result cache capacity; the oldest unconsumed
            speculative result is evicted first (a later ``execute`` of
            an evicted text simply re-runs it — results are a pure
            function of the text, so eviction never affects outcomes).
    """

    def __init__(
        self,
        subject,
        *,
        coverage_backend: str = "settrace",
        trace_coverage: bool = True,
        workers: int = 1,
        isolation: str = "auto",
        max_ready: int = 256,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        self.subject = subject
        self.subject_name = subject.name
        self.coverage_backend = coverage_backend
        self.trace_coverage = trace_coverage
        self.isolation = _resolve_isolation(isolation)
        self.max_ready = max_ready
        #: Workers respawned after an unexpected death (observability).
        self.respawns = 0
        if trace_coverage and coverage_backend == "ast":
            from repro.runtime.instrument import instrumented_subject

            # Compile the instrumentation before spawning: fork-context
            # workers inherit the warm build and never pay it themselves.
            instrumented_subject(subject)
        try:
            self._ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = get_context("spawn")
        self._workers: List[_WorkerHandle] = []
        self._next_worker = 0
        self._next_batch = 0
        #: text -> worker index, for every submitted-but-unreceived text.
        self._pending: Dict[str, int] = {}
        #: Ready results in arrival order (the eviction order).
        self._ready: "OrderedDict[str, object]" = OrderedDict()
        self._closed = False
        for _ in range(workers):
            self._spawn_worker()

    # -- lifecycle ------------------------------------------------------ #

    def _spawn_worker(self) -> _WorkerHandle:
        global _TEST_WORKER_KILL_AFTER
        kill_after = _TEST_WORKER_KILL_AFTER
        _TEST_WORKER_KILL_AFTER = None
        task_recv, task_send = self._ctx.Pipe(duplex=False)
        result_recv, result_send = self._ctx.Pipe(duplex=False)
        # daemon=False: grid/scheduler workers host executors too, and
        # daemonic processes may not have children.  Orphan safety comes
        # from the worker's getppid poll (exit once re-parented) plus the
        # close() sentinel, not from the daemon flag.
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                self.subject_name,
                self.coverage_backend,
                self.trace_coverage,
                self.isolation,
                kill_after,
                task_recv,
                result_send,
            ),
            daemon=False,
        )
        process.start()
        # The child holds its own copies; closing ours makes a dead
        # worker's result pipe EOF in the parent (the death signal).
        task_recv.close()
        result_send.close()
        handle = _WorkerHandle(process, task_send, result_recv)
        self._workers.append(handle)
        return handle

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                handle.task_conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=2.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            handle.task_conn.close()
            handle.result_conn.close()
        self._workers = []
        self._pending.clear()

    def __enter__(self) -> "PooledExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ----------------------------------------------------- #

    def _submit(self, worker_index: int, texts: List[str]) -> None:
        handle = self._workers[worker_index]
        batch_id = self._next_batch
        self._next_batch += 1
        handle.outstanding[batch_id] = list(texts)
        for text in texts:
            self._pending[text] = worker_index
        try:
            handle.task_conn.send((batch_id, texts))
        except (BrokenPipeError, OSError):
            # Worker died between batches; respawn and let the death
            # handler resubmit (it re-reads ``outstanding``).
            self._handle_death(worker_index)

    def prefetch(self, texts: Iterable[str]) -> None:
        """Submit candidate texts speculatively, one batch per worker.

        Texts already pending or ready are skipped, so repeated prefetch
        of an unchanged frontier costs nothing.  Results stream into the
        ready cache as workers finish; consume them with :meth:`execute`.
        """
        fresh = [
            text
            for text in dict.fromkeys(texts)
            if text not in self._pending and text not in self._ready
        ]
        if not fresh or self._closed:
            return
        worker_count = len(self._workers)
        chunks: List[List[str]] = [[] for _ in range(worker_count)]
        for offset, text in enumerate(fresh):
            chunks[(self._next_worker + offset) % worker_count].append(text)
        self._next_worker = (self._next_worker + len(fresh)) % worker_count
        for worker_index, chunk in enumerate(chunks):
            if chunk:
                self._submit(worker_index, chunk)

    # -- results -------------------------------------------------------- #

    def _store_ready(self, text: str, value: object) -> None:
        self._pending.pop(text, None)
        self._ready[text] = value
        self._ready.move_to_end(text)
        while len(self._ready) > self.max_ready:
            self._ready.popitem(last=False)

    def _handle_message(self, worker_index: int, message: tuple) -> None:
        handle = self._workers[worker_index]
        kind = message[0]
        if kind == "res":
            _, batch_id, index, payload = message
            slots = handle.outstanding.get(batch_id)
            if slots is None or slots[index] is None:
                return  # duplicate after a resubmit race; first wins
            text = slots[index]
            slots[index] = None
            self._store_ready(
                text, rehydrate_run_result(self.subject, text, payload)
            )
        elif kind == "fail":
            _, batch_id, index, error = message
            slots = handle.outstanding.get(batch_id)
            if slots is None or slots[index] is None:
                return
            text = slots[index]
            slots[index] = None
            self._store_ready(
                text, ExecutorError(f"worker execution of {text!r} failed: {error}")
            )
        elif kind == "done":
            _, batch_id = message
            slots = handle.outstanding.pop(batch_id, [])
            for text in slots:
                if text is not None:
                    # A fork child died before sending (e.g. hard crash
                    # inside the subject): surface it rather than hang.
                    self._store_ready(
                        text,
                        ExecutorError(
                            f"worker finished batch {batch_id} without a "
                            f"result for {text!r}"
                        ),
                    )

    def _handle_death(self, worker_index: int) -> None:
        """Respawn a dead worker and resubmit its unfinished texts."""
        handle = self._workers[worker_index]
        unfinished = handle.unfinished_texts()
        handle.process.join(timeout=1.0)
        if handle.process.is_alive():  # pragma: no cover - refuses to die
            handle.process.terminate()
            handle.process.join(timeout=1.0)
        handle.task_conn.close()
        handle.result_conn.close()
        for text in unfinished:
            self._pending.pop(text, None)
        self._workers.pop(worker_index)
        replacement = self._spawn_worker()
        # Keep the round-robin index valid after the list shuffle.
        self._workers.remove(replacement)
        self._workers.insert(worker_index, replacement)
        self.respawns += 1
        if unfinished:
            self._submit(worker_index, unfinished)

    def _drain(self, timeout: Optional[float]) -> bool:
        """Receive every available message; True if any arrived."""
        conns = {
            handle.result_conn: index
            for index, handle in enumerate(self._workers)
            if handle.outstanding
        }
        if not conns:
            return False
        ready = connection.wait(list(conns), timeout=timeout)
        progressed = False
        for conn in ready:
            worker_index = conns[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._handle_death(worker_index)
                progressed = True
                continue
            self._handle_message(worker_index, message)
            progressed = True
        return progressed

    def execute(self, text: str) -> RunResult:
        """The result of running ``text`` — from cache, stream, or fresh.

        Blocks until the result is available.  Raises
        :class:`ExecutorError` if the worker-side execution failed.
        """
        if self._closed:
            raise ExecutorError("executor is closed")
        if text not in self._ready and text not in self._pending:
            self._submit(self._next_worker, [text])
            self._next_worker = (self._next_worker + 1) % len(self._workers)
        while text not in self._ready:
            if text not in self._pending:
                # Evicted or dropped by a dying worker between checks.
                self._submit(self._next_worker, [text])
                self._next_worker = (self._next_worker + 1) % len(self._workers)
            self._drain(timeout=None)
        value = self._ready.pop(text)
        if isinstance(value, ExecutorError):
            raise value
        return value

    def run_batch(self, texts: Sequence[str]) -> List[RunResult]:
        """Execute a slice of candidates in one submission round-trip."""
        self.prefetch(texts)
        return [self.execute(text) for text in texts]


def create_executor(
    mode: str,
    subject,
    *,
    coverage_backend: str = "settrace",
    trace_coverage: bool = True,
    workers: int = 1,
    isolation: str = "auto",
):
    """Build the executor for ``mode`` (one of :data:`EXECUTOR_MODES`)."""
    if mode == "inline":
        return InlineExecutor(
            subject,
            coverage_backend=coverage_backend,
            trace_coverage=trace_coverage,
        )
    if mode == "pooled":
        return PooledExecutor(
            subject,
            coverage_backend=coverage_backend,
            trace_coverage=trace_coverage,
            workers=workers,
            isolation=isolation,
        )
    raise ValueError(
        f"unknown executor mode {mode!r}; expected one of {EXECUTOR_MODES}"
    )
