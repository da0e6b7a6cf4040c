"""Tainted character proxy: comparisons behave like chars and are recorded."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.taint.events import ComparisonKind
from repro.taint.recorder import Recorder, recording
from repro.taint.tchar import EOF_CHAR, TChar
from repro.taint.tstr import TaintedStr


def test_value_and_index():
    char = TChar("a", 3)
    assert char.value == "a"
    assert char.index == 3
    assert not char.is_eof
    assert char.code == ord("a")


def test_rejects_multichar_value():
    with pytest.raises(ValueError):
        TChar("ab", 0)


def test_eof_sentinel():
    eof = TChar.eof(5)
    assert eof.is_eof
    assert eof.value == ""
    assert eof.index == 5
    assert eof.code == -1
    assert not eof  # falsy, like C's EOF idiom


def test_equality_semantics():
    assert TChar("x", 0) == "x"
    assert not (TChar("x", 0) == "y")
    assert TChar("x", 0) != "y"
    assert TChar("x", 0) == TChar("x", 9)


def test_equality_with_non_string_is_not_implemented():
    assert (TChar("x", 0) == 42) is False
    assert (TChar("x", 0) != 42) is True


def test_eof_equals_only_eof():
    assert TChar.eof(0) == EOF_CHAR
    assert not (TChar("a", 0) == EOF_CHAR)


def test_ordering_semantics():
    char = TChar("5", 0)
    assert char >= "0"
    assert char <= "9"
    assert char < "6"
    assert char > "4"


def test_eof_orders_below_everything():
    eof = TChar.eof(0)
    assert eof < "\x00"
    assert not (eof >= "a")


def test_comparison_recorded():
    recorder = Recorder()
    with recording(recorder):
        TChar("A", 7) == "("
    (event,) = recorder.comparisons
    assert event.kind is ComparisonKind.EQ
    assert event.index == 7
    assert event.tainted_value == "A"
    assert event.other_value == "("
    assert event.result is False
    assert event.indices == (7,)


def test_ordering_recorded_with_kind():
    recorder = Recorder()
    with recording(recorder):
        TChar("5", 2) <= "9"
        TChar("5", 2) > "9"
    kinds = [event.kind for event in recorder.comparisons]
    assert kinds == [ComparisonKind.LE, ComparisonKind.GT]


def test_no_recorder_no_crash():
    # Comparisons outside a recording context still work.
    assert TChar("a", 0) == "a"


def test_eq_against_longer_string_records_strcmp():
    recorder = Recorder()
    with recording(recorder):
        result = TChar("w", 4) == "while"
    assert result is False
    (event,) = recorder.comparisons
    assert event.kind is ComparisonKind.STRCMP
    assert event.other_value == "while"


@pytest.mark.parametrize(
    "char,method,expected",
    [
        ("5", "isdigit", True),
        ("a", "isdigit", False),
        ("f", "isxdigit", True),
        ("g", "isxdigit", False),
        ("Z", "isalpha", True),
        ("1", "isalpha", False),
        ("z", "isalnum", True),
        ("_", "isalnum", False),
        (" ", "isspace", True),
        ("\t", "isspace", True),
        ("x", "isspace", False),
        ("a", "islower", True),
        ("A", "isupper", True),
        ("~", "isprint", True),
        ("\x01", "isprint", False),
    ],
)
def test_char_class_predicates(char, method, expected):
    assert getattr(TChar(char, 0), method)() is expected


def test_char_class_recorded_as_in():
    recorder = Recorder()
    with recording(recorder):
        TChar("a", 1).isdigit()
    (event,) = recorder.comparisons
    assert event.kind is ComparisonKind.IN
    assert "0" in event.other_value and "9" in event.other_value


def test_eof_char_classes_false():
    eof = TChar.eof(3)
    assert not eof.isdigit()
    assert not eof.isalpha()
    assert not eof.isspace()


def test_in_set():
    assert TChar("(", 0).in_set("()")
    assert not TChar("x", 0).in_set("()")


def test_eof_comparisons_marked():
    recorder = Recorder()
    with recording(recorder):
        TChar.eof(4) == ")"
    (event,) = recorder.comparisons
    assert event.at_eof
    assert event.index == 4
    assert event.indices == ()


def test_case_transforms_preserve_taint():
    char = TChar("a", 9)
    upper = char.upper()
    assert upper.value == "A"
    assert upper.index == 9
    assert upper.lower().value == "a"
    assert TChar.eof(1).upper().is_eof


@pytest.mark.parametrize(
    "char,method,expected",
    [("İ", "lower", "i̇"), ("ß", "upper", "SS"), ("ŉ", "upper", "ʼN")],
)
def test_case_transform_expansion_returns_tainted_str(char, method, expected):
    """Case maps that expand give a TaintedStr, every character tainted
    with the source index; before, TChar's constructor raised ValueError
    and a subject saw a crash."""
    mapped = getattr(TChar(char, 6), method)()
    assert isinstance(mapped, TaintedStr)
    assert mapped.text == expected
    assert mapped.taints == (6,) * len(expected)


@given(st.characters())
def test_case_transforms_match_str(char):
    for method in ("lower", "upper"):
        mapped = getattr(TChar(char, 2), method)()
        expected = getattr(char, method)()
        assert str(mapped) == expected
        if len(expected) == 1:
            assert isinstance(mapped, TChar)
            assert mapped.index == 2
        else:
            assert mapped.taints == (2,) * len(expected)


def test_digit_value():
    assert TChar("7", 0).digit_value() == 7
    with pytest.raises(ValueError):
        TChar("a", 0).digit_value()
    with pytest.raises(ValueError):
        TChar.eof(0).digit_value()


def test_hex_value():
    assert TChar("f", 0).hex_value() == 15
    assert TChar("A", 0).hex_value() == 10
    with pytest.raises(ValueError):
        TChar("g", 0).hex_value()


def test_str_and_repr():
    assert str(TChar("q", 0)) == "q"
    assert "q" in repr(TChar("q", 0))
    assert "eof" in repr(TChar.eof(2))


def test_hashable_by_value():
    assert hash(TChar("a", 0)) == hash(TChar("a", 5))
