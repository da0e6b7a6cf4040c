"""Tainted character proxy.

A :class:`TChar` stands for one character read from the program input.  It
remembers the input index it came from (its *taint*) and reports every
comparison it participates in to the ambient
:class:`~repro.taint.recorder.Recorder`.  This is the Python analogue of the
paper's LLVM taint instrumentation: "When read, each character is associated
with a unique identifier; this taint is later passed on to values derived
from that character."

Reading past the end of the input yields the EOF sentinel
(``TChar.eof(index)``), mirroring C's ``getchar()`` returning ``EOF``.
Comparisons against the sentinel are recorded with ``at_eof=True`` and its
numeric code is ``-1`` so that range checks such as ``c >= '0'`` behave the
way they do for C's ``EOF``.
"""

from __future__ import annotations

import string
from typing import TYPE_CHECKING, Tuple, Union

from repro.taint.events import ComparisonKind
from repro.taint.recorder import CURRENT_RECORDER

if TYPE_CHECKING:
    from repro.taint.tstr import TaintedStr

_active_recorder = CURRENT_RECORDER.get
_EQ = ComparisonKind.EQ

#: Character classes used by the ``is*`` predicates.  Restricted to ASCII, as
#: the paper's subjects are byte-oriented C parsers.
DIGITS = string.digits
HEX_DIGITS = string.hexdigits
LETTERS = string.ascii_letters
LOWER = string.ascii_lowercase
UPPER = string.ascii_uppercase
ALNUM = string.ascii_letters + string.digits
SPACES = " \t\n\r\v\f"
PRINTABLE = "".join(chr(c) for c in range(0x20, 0x7F))

CharLike = Union["TChar", str]


class TChar:
    """One tainted input character (or the EOF sentinel).

    Attributes:
        value: the concrete character (empty string for EOF).
        index: the input index this character came from.  For EOF this is
            the index of the failed access, i.e. ``len(input)``.
        is_eof: True for the EOF sentinel.
    """

    __slots__ = ("value", "index", "is_eof", "code")

    def __init__(self, value: str, index: int, is_eof: bool = False) -> None:
        if is_eof:
            value = ""
        elif len(value) != 1:
            raise ValueError(f"TChar wraps exactly one character, got {value!r}")
        self.value = value
        self.index = index
        self.is_eof = is_eof
        #: Numeric character code; ``-1`` for EOF (as in C).  Precomputed:
        #: every recorded comparison reads it, often several times per
        #: fetched character.
        self.code = -1 if is_eof else ord(value)

    @classmethod
    def eof(cls, index: int) -> "TChar":
        """The EOF sentinel for a failed access at input index ``index``."""
        return cls("", index, is_eof=True)

    # ------------------------------------------------------------------ #
    # Recording plumbing
    # ------------------------------------------------------------------ #

    def _record(self, kind: ComparisonKind, other_value: str, result: bool) -> bool:
        recorder = _active_recorder()
        if recorder is not None:
            is_eof = self.is_eof
            recorder.record(
                kind,
                self.index,
                self.value,
                other_value,
                result,
                () if is_eof else (self.index,),
                is_eof,
            )
        return result

    @staticmethod
    def _other(other: CharLike) -> Tuple[str, int]:
        """Concrete value and code of the non-tainted comparison operand."""
        if isinstance(other, TChar):
            return other.value, other.code
        if isinstance(other, str) and len(other) == 1:
            return other, ord(other)
        raise TypeError(f"cannot compare TChar with {other!r}")

    # ------------------------------------------------------------------ #
    # Relational operators (all recorded)
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if other.__class__ is str and len(other) == 1:
            # The common case, ``c == "x"``, before any type dispatch.  For
            # the EOF sentinel ``value`` is "" and the result False, as below.
            return self._record(_EQ, other, self.value == other)
        if isinstance(other, TChar) and other.is_eof:
            return self._record(ComparisonKind.EQ, "", self.is_eof)
        if not isinstance(other, (TChar, str)):
            return NotImplemented
        if isinstance(other, str) and len(other) != 1:
            # Comparing one character with a longer string is always False in
            # Python; record a string comparison so keyword checks written as
            # ``c == "if"`` still inform the fuzzer.
            return self._record(ComparisonKind.STRCMP, other, False)
        value, code = self._other(other)
        return self._record(ComparisonKind.EQ, value, self.code == code)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return NotImplemented
        return not result

    def __lt__(self, other: CharLike) -> bool:
        value, code = self._other(other)
        return self._record(ComparisonKind.LT, value, self.code < code)

    def __le__(self, other: CharLike) -> bool:
        value, code = self._other(other)
        return self._record(ComparisonKind.LE, value, self.code <= code)

    def __gt__(self, other: CharLike) -> bool:
        value, code = self._other(other)
        return self._record(ComparisonKind.GT, value, self.code > code)

    def __ge__(self, other: CharLike) -> bool:
        value, code = self._other(other)
        return self._record(ComparisonKind.GE, value, self.code >= code)

    def __hash__(self) -> int:
        return hash(self.value)

    # ------------------------------------------------------------------ #
    # Character-class predicates (recorded as IN comparisons)
    # ------------------------------------------------------------------ #

    def _in_class(self, chars: str) -> bool:
        result = (not self.is_eof) and self.value in chars
        self._record(ComparisonKind.IN, chars, result)
        return result

    def isdigit(self) -> bool:
        """C ``isdigit``: decimal digit check, recorded against ``0-9``."""
        return self._in_class(DIGITS)

    def isxdigit(self) -> bool:
        """C ``isxdigit``: hexadecimal digit check."""
        return self._in_class(HEX_DIGITS)

    def isalpha(self) -> bool:
        """C ``isalpha``: ASCII letter check."""
        return self._in_class(LETTERS)

    def isalnum(self) -> bool:
        """C ``isalnum``: ASCII letter-or-digit check."""
        return self._in_class(ALNUM)

    def isspace(self) -> bool:
        """C ``isspace``: whitespace check."""
        return self._in_class(SPACES)

    def islower(self) -> bool:
        return self._in_class(LOWER)

    def isupper(self) -> bool:
        return self._in_class(UPPER)

    def isprint(self) -> bool:
        """C ``isprint``: printable ASCII check."""
        return self._in_class(PRINTABLE)

    def in_set(self, chars: str) -> bool:
        """Membership in an arbitrary character set (C ``strchr`` idiom)."""
        return self._in_class(chars)

    # ------------------------------------------------------------------ #
    # Taint-preserving transforms and conversions
    # ------------------------------------------------------------------ #

    def lower(self) -> Union["TChar", "TaintedStr"]:
        """Lower-cased copy carrying the same taint (wrapped ``tolower``)."""
        if self.is_eof:
            return self
        return self._case_mapped(self.value.lower())

    def upper(self) -> Union["TChar", "TaintedStr"]:
        """Upper-cased copy carrying the same taint (wrapped ``toupper``)."""
        if self.is_eof:
            return self
        return self._case_mapped(self.value.upper())

    def _case_mapped(self, mapped: str) -> Union["TChar", "TaintedStr"]:
        """``mapped`` tainted with this character's index.

        Unicode case maps can expand (``"ß".upper()`` is ``"SS"``), so a
        multi-character result is a :class:`TaintedStr` whose characters
        all carry the index, as ``TaintedStr`` case maps do.
        """
        if len(mapped) == 1:
            return TChar(mapped, self.index)
        from repro.taint.tstr import TaintedStr  # tstr imports this module

        return TaintedStr(mapped, (self.index,) * len(mapped))

    def digit_value(self) -> int:
        """``c - '0'`` for digit characters (taint is consumed)."""
        if self.is_eof or self.value not in DIGITS:
            raise ValueError(f"not a digit: {self!r}")
        return ord(self.value) - ord("0")

    def hex_value(self) -> int:
        """Numeric value of a hexadecimal digit character."""
        if self.is_eof or self.value not in HEX_DIGITS:
            raise ValueError(f"not a hex digit: {self!r}")
        return int(self.value, 16)

    def __str__(self) -> str:
        return self.value

    def __bool__(self) -> bool:
        """False only for EOF, mirroring C's ``if ((c = getchar()) != EOF)``."""
        return not self.is_eof

    def __repr__(self) -> str:
        if self.is_eof:
            return f"TChar.eof({self.index})"
        return f"TChar({self.value!r}, {self.index})"


#: Module-level EOF marker for convenience comparisons such as
#: ``if c == EOF_CHAR``.  Its index is meaningless; real EOF sentinels are
#: produced by the input stream with the correct access index.
EOF_CHAR = TChar.eof(-1)
