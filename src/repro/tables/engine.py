"""The table-driven LL(1) parsing engine.

A classic explicit-stack predictive parser: push the start symbol, then
repeatedly (a) match terminals against the lookahead or (b) replace the top
nonterminal using the parse table.  The engine demonstrates the paper's
§7.1 observation and its proposed fix side by side:

* ``instrumented=False`` (the limitation): the table lookup is a pure data
  access.  No character comparisons are recorded for nonterminal expansion,
  and the driver loop executes the same few lines of *code* regardless of
  the input — branch coverage and comparison tracking are both blind.
* ``instrumented=True`` (the fix): each table consultation (i) reports the
  consulted cell as a coverage item ("coverage of table elements") and
  (ii) scans the nonterminal's row with recorded comparisons, so the
  lookahead character is compared against every terminal the row accepts —
  exactly the signal a recursive-descent parser's if-chains provide for
  free.
"""

from __future__ import annotations

from typing import List, Union

from repro.runtime.errors import ParseError
from repro.runtime.stream import InputStream
from repro.taint.recorder import CURRENT_RECORDER
from repro.taint.tchar import TChar
from repro.tables.grammar import CharClass, END, ParseTable, Terminal


class TableParser:
    """Predictive parser driven by an LL(1) table."""

    #: Stack-size safety bound (the table analogue of a recursion guard).
    max_stack = 300

    def __init__(self, table: ParseTable, instrumented: bool = False) -> None:
        self.table = table
        self.grammar = table.grammar
        self.instrumented = instrumented

    # ------------------------------------------------------------------ #
    # Instrumentation hooks (§7.1)
    # ------------------------------------------------------------------ #

    def _record_cell(self, nonterminal: str, terminal: Union[Terminal, None]) -> None:
        recorder = CURRENT_RECORDER.get()
        if recorder is None or not self.instrumented:
            return
        column = (
            terminal.name
            if isinstance(terminal, CharClass)
            else (terminal if terminal is not None else "<miss>")
        )
        recorder.record_branch((f"table:{self.grammar.name}", nonterminal, column))

    def _scan_row(self, nonterminal: str, lookahead: TChar) -> None:
        """Recorded comparisons of the lookahead against the row's terminals."""
        if not self.instrumented:
            return
        for terminal in self.table.expected_terminals(nonterminal):
            if isinstance(terminal, CharClass):
                lookahead.in_set(terminal.chars)
            else:
                lookahead == terminal  # noqa: B015 - comparison IS the effect

    # ------------------------------------------------------------------ #
    # Parsing
    # ------------------------------------------------------------------ #

    def parse(self, stream: InputStream) -> int:
        """Parse one input to exhaustion; returns the number of reductions."""
        stack: List[object] = [self.grammar.start]
        reductions = 0
        while stack:
            if len(stack) > self.max_stack:
                raise ParseError(f"parse stack overflow at {stream.pos}", stream.pos)
            top = stack.pop()
            lookahead = stream.peek()
            if self.grammar.is_nonterminal(top):
                reductions += self._expand(top, lookahead, stack)
                continue
            self._match_terminal(top, lookahead, stream)
        trailing = stream.peek()
        if not trailing.is_eof:
            raise ParseError(f"trailing input at {trailing.index}", trailing.index)
        return reductions

    def _expand(self, nonterminal: str, lookahead: TChar, stack: List[object]) -> int:
        self._scan_row(nonterminal, lookahead)
        production = self.table.lookup(
            nonterminal,
            "" if lookahead.is_eof else lookahead.value,
            at_end=lookahead.is_eof,
        )
        if production is None:
            self._record_cell(nonterminal, None)
            raise ParseError(
                f"no table entry for ({nonterminal}) at {lookahead.index}",
                lookahead.index,
            )
        matched_column: Union[Terminal, None]
        if lookahead.is_eof:
            matched_column = END
        else:
            matched_column = self._column_of(nonterminal, lookahead.value)
        self._record_cell(nonterminal, matched_column)
        for symbol in reversed(production.body):
            stack.append(symbol)
        return 1

    def _column_of(self, nonterminal: str, char: str) -> Union[Terminal, None]:
        if (nonterminal, char) in self.table.cells:
            return char
        for (head, terminal) in self.table.cells:
            if head == nonterminal and isinstance(terminal, CharClass) and char in terminal:
                return terminal
        return END if (nonterminal, END) in self.table.cells else None

    def _match_terminal(
        self, expected: Terminal, lookahead: TChar, stream: InputStream
    ) -> None:
        if isinstance(expected, CharClass):
            # Class matches always go through a recorded membership test:
            # even the plain engine compares concrete characters here, the
            # way a real scanner does.  The EOF sentinel compares (and
            # records) like C comparing the terminating byte.
            if not lookahead.in_set(expected.chars):
                raise ParseError(
                    f"expected {expected.name} at {lookahead.index}",
                    lookahead.index,
                )
            stream.next_char()
            return
        matched = lookahead == expected
        if not matched:
            raise ParseError(
                f"expected {expected!r} at {lookahead.index}", lookahead.index
            )
        stream.next_char()
