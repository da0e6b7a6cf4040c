"""Tainted string proxy: taints track through buffer operations."""

import pytest

from repro.taint.events import ComparisonKind
from repro.taint.recorder import Recorder, recording
from repro.taint.tchar import TChar
from repro.taint.tstr import TaintedStr


def tainted(text, start=0):
    """A fully tainted buffer whose chars come from consecutive indices."""
    return TaintedStr(text, range(start, start + len(text)))


def test_empty():
    buffer = TaintedStr.empty()
    assert len(buffer) == 0
    assert not buffer
    assert buffer.first_index() is None


def test_from_char():
    buffer = TaintedStr.from_char(TChar("x", 4))
    assert buffer.text == "x"
    assert buffer.taints == (4,)


def test_from_eof_char_is_empty():
    assert TaintedStr.from_char(TChar.eof(3)).text == ""


def test_append_accumulates_taints():
    buffer = TaintedStr.empty().append(TChar("a", 0)).append(TChar("b", 5))
    assert buffer.text == "ab"
    assert buffer.taints == (0, 5)


def test_append_plain_string_untainted():
    buffer = tainted("ab").append("cd")
    assert buffer.text == "abcd"
    assert buffer.taints == (0, 1, None, None)


def test_add_operators():
    left = tainted("ab")
    combined = left + "c"
    assert combined.text == "abc"
    combined = "x" + left
    assert combined.text == "xab"
    assert combined.taints == (None, 0, 1)


def test_append_rejects_non_string():
    with pytest.raises(TypeError):
        tainted("a").append(3)


def test_mismatched_taints_rejected():
    with pytest.raises(ValueError):
        TaintedStr("ab", (1,))


def test_getitem_int_returns_tchar():
    char = tainted("abc", 10)[1]
    assert isinstance(char, TChar)
    assert char.value == "b"
    assert char.index == 11


def test_getitem_untainted_gives_pseudo_index():
    char = TaintedStr("ab")[0]
    assert char.index == -1


def test_getitem_slice_keeps_taints():
    piece = tainted("abcdef")[2:4]
    assert piece.text == "cd"
    assert piece.taints == (2, 3)


def test_iteration_yields_tchars():
    indices = [char.index for char in tainted("xyz", 5)]
    assert indices == [5, 6, 7]


def test_equality_records_strcmp():
    recorder = Recorder()
    with recording(recorder):
        result = tainted("wh", 3) == "while"
    assert result is False
    (event,) = recorder.comparisons
    assert event.kind is ComparisonKind.STRCMP
    assert event.index == 3
    assert event.other_value == "while"
    assert event.indices == (3, 4)


def test_equality_of_untainted_buffer_not_recorded():
    recorder = Recorder()
    with recording(recorder):
        TaintedStr("abc") == "abc"
    assert recorder.comparisons == []


def test_equality_with_tainted_str():
    assert tainted("ab") == tainted("ab", 7)
    assert tainted("ab") != tainted("ba")


def test_ne_returns_not_implemented_for_other_types():
    assert (tainted("a") == 5) is False


def test_startswith_recorded():
    recorder = Recorder()
    with recording(recorder):
        assert tainted("while", 2).startswith("wh")
    (event,) = recorder.comparisons
    assert event.kind is ComparisonKind.STRCMP
    assert event.other_value == "wh"


def test_startswith_tuple_records_every_prefix():
    """``str.startswith`` accepts a tuple; each prefix is its own STRCMP,
    so no event carries a tuple as its operand."""
    recorder = Recorder()
    with recording(recorder):
        assert tainted("0b101", 3).startswith(("0x", "0b"))
        assert not tainted("12", 8).startswith(("0x", "0b"))
    assert [(e.index, e.other_value, e.result) for e in recorder.comparisons] == [
        (3, "0x", False),
        (3, "0b", True),
        (8, "0x", False),
        (8, "0b", False),
    ]
    assert all(e.kind is ComparisonKind.STRCMP for e in recorder.comparisons)


def test_strip_preserves_alignment():
    buffer = tainted("  ab\t")
    stripped = buffer.strip()
    assert stripped.text == "ab"
    assert stripped.taints == (2, 3)


def test_lstrip_rstrip():
    buffer = tainted(" ab ")
    assert buffer.lstrip().text == "ab "
    assert buffer.rstrip().text == " ab"


def test_case_transforms_keep_taints():
    buffer = tainted("Ab", 4)
    assert buffer.lower().text == "ab"
    assert buffer.lower().taints == (4, 5)
    assert buffer.upper().text == "AB"


def test_case_transform_unicode_expansion():
    """Regression: ``"ß".upper()`` is ``"SS"`` — case mapping must realign
    taints instead of crashing on the length change."""
    buffer = tainted("aß", 4)
    upper = buffer.upper()
    assert upper.text == "ASS"
    # both expansion characters inherit the source character's taint
    assert upper.taints == (4, 5, 5)
    # round trip back down stays aligned
    assert upper.lower().text == "ass"
    assert upper.lower().taints == (4, 5, 5)


def test_case_transform_unicode_lower_expansion():
    buffer = tainted("İ", 9)  # dotted capital I lowers to 'i' + combining dot
    lowered = buffer.lower()
    assert lowered.text == "i̇"
    assert lowered.taints == (9, 9)


def test_find_char_records_in_events():
    recorder = Recorder()
    with recording(recorder):
        position = tainted("key=value").find_char("=:")
    assert position == 3
    assert any(e.kind is ComparisonKind.IN for e in recorder.comparisons)


def test_find_char_missing():
    assert tainted("abc").find_char("=") == -1


def test_str_and_repr():
    assert str(tainted("ab")) == "ab"
    assert "ab" in repr(tainted("ab"))


def test_hash_by_text():
    assert hash(tainted("ab")) == hash(TaintedStr("ab"))
