"""Per-run recorder for comparison and EOF events.

A single :class:`Recorder` is installed for the duration of one program
execution (one fuzzer test run).  The tainted proxies report every comparison
to the ambient recorder; the harness reads the collected events afterwards to
drive substitution and the search heuristic.

The recorder is held in a :mod:`contextvars` variable so nested runs (e.g.
the evaluation harness re-running stored inputs) do not interfere.  The
recording sites on the hot path (the proxies, the wrappers, the input
stream) read :data:`CURRENT_RECORDER` directly through its bound ``get``
— one C call per comparison instead of a Python-level
:func:`current_recorder` call around it.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.taint.events import ComparisonEvent, ComparisonKind, EOFEvent

#: The recorder of the execution in progress (None outside any run).
CURRENT_RECORDER: contextvars.ContextVar[Optional["Recorder"]] = (
    contextvars.ContextVar("repro_taint_recorder", default=None)
)


class Recorder:
    """Collects the comparison trace of one program execution.

    Attributes:
        comparisons: all comparison events, in program order.
        eof_events: all accesses past the end of the input, in program order.
        depth_provider: zero-argument callable returning the current
            call-stack depth; installed by the coverage tracer so that every
            event carries the stack size used by the paper's heuristic.
    """

    def __init__(
        self,
        depth_provider: Optional[Callable[[], int]] = None,
        clock_provider: Optional[Callable[[], int]] = None,
        stack_provider: Optional[Callable[[], tuple]] = None,
    ) -> None:
        self.comparisons: List[ComparisonEvent] = []
        self.eof_events: List[EOFEvent] = []
        #: (input index, subject call stack) per in-bounds character access;
        #: consumed by the grammar miner (§7.4).
        self.accesses: List[tuple] = []
        #: Auxiliary coverage items -> first-seen clock.  Table-driven
        #: parsers report consulted table cells here (§7.1: "instead of code
        #: coverage, one could implement coverage of table elements"); the
        #: harness merges them into the run's branch set.
        self.aux_branches: Dict[tuple, int] = {}
        self.depth_provider: Callable[[], int] = depth_provider or (lambda: 0)
        self.clock_provider: Callable[[], int] = clock_provider or (lambda: 0)
        self.stack_provider: Callable[[], tuple] = stack_provider or (lambda: ())

    # ------------------------------------------------------------------ #
    # Recording (called from the proxies / wrappers)
    # ------------------------------------------------------------------ #

    def record(
        self,
        kind: ComparisonKind,
        index: int,
        tainted_value: str,
        other_value: str,
        result: bool,
        indices: Tuple[int, ...] = (),
        at_eof: bool = False,
    ) -> None:
        """Append one comparison event to the trace."""
        # Positional: keyword arguments make the NamedTuple's __new__
        # about twice as slow, and this is the hottest call of a run.
        self.comparisons.append(
            ComparisonEvent(
                kind,
                index,
                tainted_value,
                other_value,
                result,
                self.depth_provider(),
                indices,
                at_eof,
                self.clock_provider(),
            )
        )

    def record_branch(self, key: tuple) -> None:
        """Record one auxiliary coverage item (e.g. a parse-table cell)."""
        if key not in self.aux_branches:
            self.aux_branches[key] = self.clock_provider()

    def record_access(self, index: int) -> None:
        """Record one in-bounds character access with its call stack."""
        self.accesses.append((index, self.stack_provider()))

    def record_eof(self, index: int) -> None:
        """Append one past-the-end access event to the trace."""
        self.eof_events.append(
            EOFEvent(
                index=index,
                stack_depth=self.depth_provider(),
                clock=self.clock_provider(),
            )
        )

    # ------------------------------------------------------------------ #
    # Queries (used by the fuzzer after the run)
    # ------------------------------------------------------------------ #

    @property
    def eof_accessed(self) -> bool:
        """True when the program tried to read past the end of the input."""
        return bool(self.eof_events)

    def last_compared_index(self) -> Optional[int]:
        """The largest input index that participated in any comparison.

        The paper considers the input valid up to (excluding) this index and
        substitutes at it.  Returns None when nothing was compared.
        """
        best: Optional[int] = None
        for event in self.comparisons:
            if best is None or event.index > best:
                best = event.index
        return best

    def comparisons_at(self, index: int) -> List[ComparisonEvent]:
        """All comparison events whose tainted operand starts at ``index``."""
        return [e for e in self.comparisons if e.index == index]

    def comparisons_touching(self, index: int) -> List[ComparisonEvent]:
        """All comparison events that involve input index ``index`` at all.

        String comparisons may *start* before the failing character but still
        constrain it; substitution therefore considers every comparison whose
        span covers the index.
        """
        touching: List[ComparisonEvent] = []
        for event in self.comparisons:
            if event.index == index or index in event.indices:
                touching.append(event)
            elif event.is_string_comparison:
                span_end = event.index + max(
                    len(event.tainted_value), len(event.other_value)
                )
                if event.index <= index < span_end:
                    touching.append(event)
        return touching

    def first_comparison_clock(self, index: int) -> Optional[int]:
        """Tracer clock of the *first* comparison at input index ``index``.

        The paper (§3.1) counts only the branches covered before this point
        when scoring an input, so that error-handling code reached after the
        rejection does not attract the search.
        """
        for event in self.comparisons:
            if event.index == index:
                return event.clock
        return None

    def first_comparison_depths(self, index: int) -> List[int]:
        """Stack depths of the comparisons at ``index``, in program order."""
        return [e.stack_depth for e in self.comparisons if e.index == index]

    def average_stack_size(self) -> float:
        """Average stack depth between the second-to-last and last comparison.

        Mirrors the paper's ``avgStackSize()`` (Algorithm 1, Line 50): larger
        stacks mean more open syntactic features, which the heuristic
        penalises so the search prefers inputs that are easy to close.
        """
        if not self.comparisons:
            return 0.0
        tail = self.comparisons[-2:]
        return sum(e.stack_depth for e in tail) / len(tail)

    def by_index(self) -> Dict[int, List[ComparisonEvent]]:
        """Group the comparison trace by starting input index."""
        grouped: Dict[int, List[ComparisonEvent]] = {}
        for event in self.comparisons:
            grouped.setdefault(event.index, []).append(event)
        return grouped


def current_recorder() -> Optional[Recorder]:
    """The recorder of the execution currently in progress, if any."""
    return CURRENT_RECORDER.get()


@contextlib.contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Install ``recorder`` (or a fresh one) as the ambient recorder."""
    active = recorder if recorder is not None else Recorder()
    token = CURRENT_RECORDER.set(active)
    try:
        yield active
    finally:
        CURRENT_RECORDER.reset(token)
