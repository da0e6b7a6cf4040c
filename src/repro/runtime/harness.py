"""Run one input against one subject under full instrumentation.

:func:`run_subject` is the equivalent of one execution of the paper's
instrumented binary: it installs a fresh comparison recorder and a coverage
backend, feeds the input through an
:class:`~repro.runtime.stream.InputStream` and returns a :class:`RunResult`
carrying the exit status, the comparison trace, the covered branches (line
arcs, interned to small ints) and the information needed by the search
heuristic.

Two coverage backends are available (``coverage_backend``):

* ``"settrace"`` — the reference :class:`~repro.runtime.tracer.CoverageTracer`
  (a per-line trace function);
* ``"ast"`` — compiled-in instrumentation from
  :mod:`repro.runtime.instrument`, several times faster per execution.

Both intern arcs through the subject's shared
:class:`~repro.runtime.arcs.ArcTable`, so their branch sets are directly
comparable and equivalence is asserted in the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.runtime.arcs import ArcTable, arc_table_for
from repro.runtime.errors import HangError, ParseError, SubjectError
from repro.runtime.stream import InputStream
from repro.runtime.tracer import CoverageTracer
from repro.taint.recorder import Recorder, recording

#: Supported values for ``coverage_backend``.
COVERAGE_BACKENDS = ("settrace", "ast")


class ExitStatus(enum.Enum):
    """Outcome of one subject execution (the paper's process exit code)."""

    VALID = 0
    REJECTED = 1
    HANG = 2
    #: The subject raised something other than its declared rejection
    #: exceptions — the Python analogue of a segfault.  Crashes are
    #: first-class results: the campaign keeps running and the failure
    #: site counts as coverage (see :func:`run_subject`).
    CRASH = 3


def failure_site(exc: BaseException, files) -> tuple:
    """Deterministic failure-site signature for a crash.

    Returns ``(exception_type, filename, line)`` where the location is the
    *deepest subject-owned frame* of the traceback — the crash site as the
    subject sees it, independent of harness frames above and of library
    frames below.  For a recursive crash (``RecursionError`` out of a
    self-call) the deepest subject frame repeats the same line whatever the
    baseline stack depth was, so the signature is stable across the inline,
    pooled and batched engines.
    """
    filename = "<unknown>"
    line = 0
    trace = exc.__traceback__
    while trace is not None:
        frame_file = trace.tb_frame.f_code.co_filename
        if frame_file in files:
            filename = frame_file
            line = trace.tb_lineno
        trace = trace.tb_next
    return (type(exc).__name__, filename, line)


@dataclass(slots=True)
class RunResult:
    """Everything observed during one instrumented execution.

    ``slots=True``: every campaign iteration builds up to two of these,
    so they ride the hot loop alongside ``Candidate`` — no per-instance
    ``__dict__``, and stray attribute writes fail loudly.

    Attributes:
        text: the input that was executed.
        status: exit status (VALID / REJECTED / HANG).
        recorder: the full comparison + EOF trace.
        arcs: interned arc id -> first-traversal clock.
        value: the subject's parse result (None unless VALID).
        error: rejection message (None when VALID).
        arc_table: the subject's shared table that interned ``arcs``.
        crash_signature: ``(exception_type, filename, line)`` failure-site
            signature (None unless CRASH); see :func:`failure_site`.
    """

    text: str
    status: ExitStatus
    recorder: Recorder
    arcs: Dict[int, int] = field(default_factory=dict)
    value: object = None
    error: Optional[str] = None
    arc_table: Optional[ArcTable] = None
    crash_signature: Optional[tuple] = None
    #: Lazily built ``frozenset(arcs)``; ``branches`` is consulted up to
    #: three times per execution (validity gate, vBr growth, heuristic),
    #: and rebuilding the frozenset each time was measurable.
    _branches: Optional[FrozenSet[int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def valid(self) -> bool:
        """True when the subject accepted the input (exit code 0)."""
        return self.status is ExitStatus.VALID

    @property
    def crashed(self) -> bool:
        """True when the subject raised an undeclared exception."""
        return self.status is ExitStatus.CRASH

    @property
    def branches(self) -> FrozenSet[int]:
        """All branches (interned line arcs) the execution covered."""
        cached = self._branches
        if cached is None:
            cached = frozenset(self.arcs)
            self._branches = cached
        return cached

    def decoded_branches(self) -> FrozenSet[tuple]:
        """Branches decoded back to ``(filename, previous, line)`` tuples."""
        if self.arc_table is None:
            return frozenset()
        return self.arc_table.decode(self.arcs)

    def branches_for_heuristic(self) -> FrozenSet[int]:
        """Branches counted by the search heuristic.

        For rejected inputs the paper only counts coverage "up to the first
        comparison of the last character of the input" (§3.1), so that error
        handling reached after the rejection does not look like progress.
        Valid inputs count everything.
        """
        if self.valid:
            return self.branches
        last = self.recorder.last_compared_index()
        if last is None:
            return self.branches
        cutoff = self.recorder.first_comparison_clock(last)
        if cutoff is None:
            return self.branches
        return frozenset(arc for arc, first in self.arcs.items() if first <= cutoff)

    @property
    def eof_accessed(self) -> bool:
        """Did the subject try to read past the end of the input?"""
        return self.recorder.eof_accessed

    def average_stack_size(self) -> float:
        """The heuristic's ``avgStackSize()`` for this execution."""
        return self.recorder.average_stack_size()

    def path_signature(self) -> int:
        """Stable signature of the execution path (the set of arcs).

        Built from per-arc blake2 digests, so it is identical across
        interpreter runs (``PYTHONHASHSEED``), backends and intern orders.
        """
        if self.arc_table is None or not self.arcs:
            return 0
        return self.arc_table.signature(self.arcs)


def run_subject(
    subject,
    text: str,
    trace_coverage: bool = True,
    coverage_backend: str = "settrace",
) -> RunResult:
    """Execute ``subject`` on ``text`` under taint + coverage instrumentation.

    Args:
        subject: a :class:`~repro.subjects.base.Subject`.
        text: the candidate input.
        trace_coverage: disable to skip branch coverage entirely (much
            faster; used by baselines that only need comparison events or
            only an exit code).
        coverage_backend: ``"settrace"`` (reference tracer) or ``"ast"``
            (compiled-in instrumentation; see
            :mod:`repro.runtime.instrument`).
    """
    stream = InputStream(text)
    table = arc_table_for(subject)
    tracer: Optional[CoverageTracer] = None
    collector = None
    run_target = subject
    if not trace_coverage:
        recorder = Recorder()
    elif coverage_backend == "ast":
        from repro.runtime.instrument import instrumented_subject

        run_target, collector = instrumented_subject(subject)
        collector.reset()
        recorder = Recorder(
            depth_provider=collector.current_depth,
            clock_provider=collector.current_clock,
            stack_provider=collector.current_stack,
        )
    elif coverage_backend == "settrace":
        tracer = CoverageTracer(subject.files)
        recorder = Recorder(
            depth_provider=tracer.current_depth,
            clock_provider=tracer.current_clock,
            stack_provider=tracer.current_stack,
        )
    else:
        raise ValueError(
            f"unknown coverage backend {coverage_backend!r}; "
            f"expected one of {COVERAGE_BACKENDS}"
        )

    status = ExitStatus.VALID
    value: object = None
    error: Optional[str] = None
    crash_signature: Optional[tuple] = None
    with recording(recorder):
        try:
            if tracer is not None:
                with tracer:
                    value = run_target.parse(stream)
            else:
                value = run_target.parse(stream)
        except HangError as exc:
            status = ExitStatus.HANG
            error = str(exc)
        except ParseError as exc:
            status = ExitStatus.REJECTED
            error = exc.message
        except SubjectError as exc:
            status = ExitStatus.REJECTED
            error = str(exc)
        except Exception as exc:  # noqa: BLE001 - crashes are results here
            # Anything else out of the subject is the Python analogue of a
            # segfault.  Propagating it would kill the campaign (and, under
            # the pooled engine, look like a worker death and trigger a
            # respawn loop), so classify it as a CRASH result instead.
            status = ExitStatus.CRASH
            crash_signature = failure_site(exc, subject.files)
            error = f"{crash_signature[0]}: {exc}"

    if tracer is not None:
        intern = table.intern
        arcs = {intern(arc): clock for arc, clock in tracer.arcs.items()}
    elif collector is not None:
        arcs = dict(collector.arcs)
    else:
        arcs = {}
    # Table-driven parsers contribute table-element coverage (§7.1) through
    # the recorder's auxiliary channel; merge it into the branch set.
    if recorder.aux_branches:
        intern = table.intern
        for key, clock in recorder.aux_branches.items():
            arcs[intern(key)] = clock
    # Distinct failure sites count as coverage ("Fuzzing with Fast Failure
    # Feedback"): intern the crash site as an auxiliary arc, shared by both
    # backends through the subject's table.
    if crash_signature is not None:
        arcs[table.intern(("crash",) + crash_signature)] = recorder.clock_provider()
    return RunResult(
        text=text,
        status=status,
        recorder=recorder,
        arcs=arcs,
        value=value,
        error=error,
        arc_table=table,
        crash_signature=crash_signature,
    )
