"""Tainted string proxy.

Parsers accumulate input characters into buffers (identifiers, string
literals, numbers) and then compare those buffers against expected values —
typically keywords — using ``strcmp``.  :class:`TaintedStr` is the proxy for
such buffers: it keeps, for every character, the input index it originated
from (or ``None`` for characters the program synthesised itself), and records
whole-buffer comparisons as ``STRCMP`` events.

``STRCMP`` events are what let pFuzzer synthesise long keywords in one step:
when the buffer ``"wh"`` built from input indices 3–4 is compared against
``"while"``, the event says *"the input starting at index 3 was expected to
be 'while'"*, and the fuzzer substitutes the full keyword (paper §6,
discussion of AFL-CTP and Steelix).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple, Union

from repro.taint.events import ComparisonKind
from repro.taint.recorder import CURRENT_RECORDER
from repro.taint.tchar import TChar

_active_recorder = CURRENT_RECORDER.get

Appendable = Union["TaintedStr", TChar, str]


class TaintedStr:
    """An immutable string whose characters carry per-character taints.

    Attributes:
        text: the concrete string value.
        taints: one entry per character: the originating input index, or
            ``None`` for untainted characters.
    """

    __slots__ = ("text", "taints")

    def __init__(self, text: str = "", taints: Optional[Iterable[Optional[int]]] = None) -> None:
        self.text = text
        if taints is None:
            self.taints: Tuple[Optional[int], ...] = (None,) * len(text)
        else:
            self.taints = tuple(taints)
        if len(self.taints) != len(self.text):
            raise ValueError("taints must have one entry per character")

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def empty(cls) -> "TaintedStr":
        """A fresh empty buffer (the parser idiom ``buf[0] = '\\0'``)."""
        return cls("", ())

    @classmethod
    def from_char(cls, char: TChar) -> "TaintedStr":
        """A one-character buffer from a tainted character."""
        if char.is_eof:
            return cls.empty()
        return cls(char.value, (char.index,))

    @staticmethod
    def _coerce(value: Appendable) -> "TaintedStr":
        if isinstance(value, TaintedStr):
            return value
        if isinstance(value, TChar):
            return TaintedStr.from_char(value)
        if isinstance(value, str):
            return TaintedStr(value)
        raise TypeError(f"cannot append {value!r} to TaintedStr")

    def append(self, value: Appendable) -> "TaintedStr":
        """Return a new buffer with ``value`` appended (taint accumulates)."""
        other = self._coerce(value)
        return TaintedStr(self.text + other.text, self.taints + other.taints)

    def __add__(self, value: Appendable) -> "TaintedStr":
        return self.append(value)

    def __radd__(self, value: Appendable) -> "TaintedStr":
        return self._coerce(value).append(self)

    # ------------------------------------------------------------------ #
    # Recording plumbing
    # ------------------------------------------------------------------ #

    def first_index(self) -> Optional[int]:
        """Input index of the first tainted character, if any."""
        for taint in self.taints:
            if taint is not None:
                return taint
        return None

    def tainted_indices(self) -> Tuple[int, ...]:
        """All input indices present in the buffer, in buffer order."""
        return tuple(t for t in self.taints if t is not None)

    def _record_strcmp(self, other: str, result: bool) -> bool:
        recorder = _active_recorder()
        index = self.first_index()
        if recorder is not None and index is not None:
            recorder.record(
                ComparisonKind.STRCMP,
                index,
                self.text,
                other,
                result,
                self.tainted_indices(),
            )
        return result

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TaintedStr):
            return self._record_strcmp(other.text, self.text == other.text)
        if isinstance(other, str):
            return self._record_strcmp(other, self.text == other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return NotImplemented
        return not result

    def __hash__(self) -> int:
        return hash(self.text)

    def startswith(self, prefix: Union[str, Tuple[str, ...]]) -> bool:
        """Recorded prefix check (the ``strncmp(buf, kw, n)`` idiom).

        Like ``str.startswith``, ``prefix`` may be a tuple: each prefix is
        recorded as its own comparison, and the result is whether any of
        them matched.
        """
        if isinstance(prefix, tuple):
            matched = False
            for option in prefix:
                if self._record_strcmp(option, self.text.startswith(option)):
                    matched = True
            return matched
        return self._record_strcmp(prefix, self.text.startswith(prefix))

    # ------------------------------------------------------------------ #
    # Sequence protocol
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.text)

    def __bool__(self) -> bool:
        return bool(self.text)

    def __getitem__(self, key: Union[int, slice]) -> Union[TChar, "TaintedStr"]:
        if isinstance(key, slice):
            return TaintedStr(self.text[key], self.taints[key])
        taint = self.taints[key]
        if taint is None:
            # Untainted characters still flow through the parser; give them a
            # harmless negative pseudo-index so comparisons do not crash but
            # also never masquerade as real input positions.
            return TChar(self.text[key], -1)
        return TChar(self.text[key], taint)

    def __iter__(self) -> Iterator[TChar]:
        for position in range(len(self.text)):
            yield self[position]

    # ------------------------------------------------------------------ #
    # Taint-preserving string operations
    # ------------------------------------------------------------------ #

    @staticmethod
    def _strippable(char: str, chars: Optional[str]) -> bool:
        """``str.strip`` semantics: None means *any* Unicode whitespace
        (``str.isspace``), not a hardcoded ASCII set — U+00A0, U+2028 and
        friends strip exactly as they would from a plain ``str``."""
        if chars is None:
            return char.isspace()
        return char in chars

    def strip(self, chars: Optional[str] = None) -> "TaintedStr":
        """Strip from both ends, keeping taints aligned."""
        return self.lstrip(chars).rstrip(chars)

    def lstrip(self, chars: Optional[str] = None) -> "TaintedStr":
        start = 0
        while start < len(self.text) and self._strippable(
            self.text[start], chars
        ):
            start += 1
        return self[start:]

    def rstrip(self, chars: Optional[str] = None) -> "TaintedStr":
        end = len(self.text)
        while end > 0 and self._strippable(self.text[end - 1], chars):
            end -= 1
        return self[:end]

    def _map_case(self, convert) -> "TaintedStr":
        """Case-map per character, realigning taints when lengths change.

        Unicode case mapping is not length-preserving (``"ß".upper()`` is
        ``"SS"``, ``"İ".lower()`` is ``"i̇"``): converting the whole text and
        reusing the old taint tuple would desynchronise — or crash the
        constructor's length check.  Mapping one character at a time keeps
        the alignment exact: every character an expansion produces
        originated from the same input index, so the taint repeats.
        """
        pieces = []
        taints = []
        for char, taint in zip(self.text, self.taints):
            converted = convert(char)
            pieces.append(converted)
            taints.extend((taint,) * len(converted))
        return TaintedStr("".join(pieces), taints)

    def lower(self) -> "TaintedStr":
        return self._map_case(str.lower)

    def upper(self) -> "TaintedStr":
        return self._map_case(str.upper)

    def find_char(self, chars: str) -> int:
        """Index (in the buffer) of the first character from ``chars``.

        Each inspected character is recorded as an ``IN`` comparison, the
        behaviour of a wrapped ``strpbrk``/``strchr`` scan.  Returns -1 when
        no character matches.
        """
        for position, char in enumerate(self):
            if char.in_set(chars):
                return position
        return -1

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"TaintedStr({self.text!r}, taints={list(self.taints)!r})"
