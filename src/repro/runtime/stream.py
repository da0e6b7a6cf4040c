"""Sequential character input stream with EOF-access detection.

Subjects read their input through an :class:`InputStream`, the analogue of C
``stdin``.  Every character handed out is a tainted
:class:`~repro.taint.tchar.TChar` carrying its input index.  Reading or
peeking *past the end* of the input returns the EOF sentinel and reports an
:class:`~repro.taint.events.EOFEvent` to the ambient recorder — the paper's
"attempt to access a character beyond the length of the input string is
interpreted as the program encountering EOF before processing is complete".
"""

from __future__ import annotations

from repro.taint.recorder import CURRENT_RECORDER
from repro.taint.tchar import TChar
from repro.taint.tstr import TaintedStr

_active_recorder = CURRENT_RECORDER.get


class InputStream:
    """A string of input characters consumed one at a time.

    Attributes:
        text: the full input.
        pos: index of the next character to be read.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self._max_accessed = -1
        # TChar is immutable, so each index's proxy can be built once and
        # reused — peek-heavy parsers fetch the same character many times.
        self._chars: list = [None] * len(text)
        self._eof_char: TChar = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self.text)

    # ------------------------------------------------------------------ #
    # Character access
    # ------------------------------------------------------------------ #

    def _fetch(self, index: int) -> TChar:
        text = self.text
        if index >= len(text):
            recorder = _active_recorder()
            if recorder is not None:
                recorder.record_eof(len(text))
            if self._max_accessed < len(text):
                self._max_accessed = len(text)
            char = self._eof_char
            if char is None:
                char = self._eof_char = TChar.eof(len(text))
            return char
        if self._max_accessed < index:
            self._max_accessed = index
        char = self._chars[index]
        if char is None:
            char = self._chars[index] = TChar(text[index], index)
        return char

    def next_char(self) -> TChar:
        """Read and consume the next character (C ``getchar``).

        At end of input this returns the EOF sentinel without advancing, so
        repeated reads keep returning EOF exactly like ``getchar``.
        Consumption (not peeking) is what attributes the character to the
        current parse function in the grammar miner's access log.
        """
        char = self._fetch(self.pos)
        if not char.is_eof:
            recorder = _active_recorder()
            if recorder is not None:
                recorder.record_access(self.pos)
            self.pos += 1
        return char

    def peek(self, offset: int = 0) -> TChar:
        """Look ahead without consuming (C ``ungetc`` discipline).

        ``offset`` 0 is the character :meth:`next_char` would return next.
        """
        return self._fetch(self.pos + offset)

    def unread(self, count: int = 1) -> None:
        """Push back the last ``count`` consumed characters (C ``ungetc``)."""
        if count > self.pos:
            raise ValueError(f"cannot unread {count} characters at pos {self.pos}")
        self.pos -= count

    def read_while(self, predicate) -> TaintedStr:
        """Consume characters while ``predicate(char)`` holds.

        Each test is an ordinary (recorded) comparison; the collected buffer
        keeps per-character taints.
        """
        buffer = TaintedStr.empty()
        while True:
            char = self.peek()
            if char.is_eof or not predicate(char):
                return buffer
            buffer = buffer.append(char)
            recorder = _active_recorder()
            if recorder is not None:
                recorder.record_access(self.pos)
            self.pos += 1

    # ------------------------------------------------------------------ #
    # Introspection for the harness
    # ------------------------------------------------------------------ #

    @property
    def at_end(self) -> bool:
        """True when every input character has been consumed."""
        return self.pos >= len(self.text)

    @property
    def max_accessed(self) -> int:
        """Largest index the program touched (``len(text)`` = past the end)."""
        return self._max_accessed

    def remaining(self) -> str:
        """Unconsumed tail of the input (diagnostics only)."""
        return self.text[self.pos :]

    def __repr__(self) -> str:
        return f"InputStream({self.text!r}, pos={self.pos})"
