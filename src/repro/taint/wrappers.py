"""Wrapped runtime functions.

The paper wraps C runtime conversion and comparison functions (``strcpy``,
``strcmp``, ...) "such that the taints automatically propagate correctly" and
so that comparisons of tainted values are tracked.  These are the Python
analogues, written to mirror the C call sites in the subjects so the parsers
read like their upstream sources.

All functions accept tainted proxies (:class:`~repro.taint.tchar.TChar`,
:class:`~repro.taint.tstr.TaintedStr`) as well as plain strings; plain
strings simply do not record anything.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.taint.events import ComparisonKind
from repro.taint.recorder import CURRENT_RECORDER
from repro.taint.tchar import DIGITS, TChar
from repro.taint.tstr import TaintedStr

StrLike = Union[TaintedStr, str]
CharLike = Union[TChar, str]

_active_recorder = CURRENT_RECORDER.get


def _as_tstr(value: Union[TaintedStr, TChar, str]) -> TaintedStr:
    if isinstance(value, TaintedStr):
        return value
    if isinstance(value, TChar):
        return TaintedStr.from_char(value)
    return TaintedStr(value)


def _record_strcmp(tainted: TaintedStr, other: str, result: bool) -> None:
    recorder = _active_recorder()
    index = tainted.first_index()
    if recorder is not None and index is not None:
        recorder.record(
            ComparisonKind.STRCMP,
            index,
            tainted.text,
            other,
            result,
            tainted.tainted_indices(),
        )


def strcmp(left: Union[TaintedStr, TChar, str], right: str) -> int:
    """C ``strcmp``: 0 when equal, otherwise the sign of the first mismatch.

    The comparison is recorded as one ``STRCMP`` event carrying the *whole*
    expected string, which is what allows the fuzzer to substitute complete
    keywords (paper §6: "pFuzzer ... monitors the calls to strcmp()
    dynamically and therefore recognizes the different comparisons made").
    """
    tainted = _as_tstr(left)
    _record_strcmp(tainted, right, tainted.text == right)
    if tainted.text == right:
        return 0
    return -1 if tainted.text < right else 1


def strncmp(left: Union[TaintedStr, TChar, str], right: str, count: int) -> int:
    """C ``strncmp``: compare at most ``count`` characters."""
    tainted = _as_tstr(left)
    prefix_left = tainted.text[:count]
    prefix_right = right[:count]
    _record_strcmp(tainted[:count], prefix_right, prefix_left == prefix_right)
    if prefix_left == prefix_right:
        return 0
    return -1 if prefix_left < prefix_right else 1


def memcmp(left: Union[TaintedStr, TChar, str], right: str, count: int) -> int:
    """C ``memcmp`` over character data: identical to :func:`strncmp` here."""
    return strncmp(left, right, count)


def strchr(chars: str, char: CharLike) -> bool:
    """C ``strchr(set, c) != NULL``: is ``char`` one of ``chars``?

    Recorded as an ``IN`` comparison so every member of ``chars`` becomes a
    substitution candidate.
    """
    if isinstance(char, TChar):
        return char.in_set(chars)
    return char in chars


def switch_on(char: CharLike, cases: str) -> bool:
    """A C ``switch`` over character case labels.

    Records one ``SWITCH`` event listing every case label, then reports
    whether ``char`` matches any of them.  Parsers written with big switch
    statements (cJSON's value dispatch, mjs's operator lexing) use this to
    expose all alternatives to the fuzzer in one event.
    """
    if isinstance(char, TChar):
        recorder = _active_recorder()
        result = (not char.is_eof) and char.value in cases
        if recorder is not None:
            recorder.record(
                ComparisonKind.SWITCH,
                char.index,
                char.value,
                cases,
                result,
                () if char.is_eof else (char.index,),
                char.is_eof,
            )
        return result
    return char in cases


def atoi(value: Union[TaintedStr, str]) -> int:
    """C ``atoi``: leading optional sign and digits; taint is consumed."""
    text = value.text if isinstance(value, TaintedStr) else value
    text = text.lstrip(" \t\n\r")
    sign = 1
    position = 0
    if position < len(text) and text[position] in "+-":
        sign = -1 if text[position] == "-" else 1
        position += 1
    digits = ""
    while position < len(text) and text[position] in DIGITS:
        digits += text[position]
        position += 1
    return sign * int(digits) if digits else 0


def atof(value: Union[TaintedStr, str]) -> float:
    """C ``atof``/``strtod``-style conversion of a leading float literal."""
    text = value.text if isinstance(value, TaintedStr) else value
    text = text.lstrip(" \t\n\r")
    best: Optional[float] = None
    for end in range(len(text), 0, -1):
        try:
            best = float(text[:end])
            break
        except ValueError:
            continue
    return best if best is not None else 0.0


def strcpy(source: Union[TaintedStr, TChar, str]) -> TaintedStr:
    """C ``strcpy``: a copy that preserves taints (wrapped in the paper)."""
    return _as_tstr(source)
