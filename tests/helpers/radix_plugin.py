"""A plugin subject whose parser checks a literal's radix prefix with
``startswith`` and a tuple of prefixes, as ``str`` allows — the taint
proxy must record one comparison per prefix.  Importing this module
registers the ``radix`` subject.
"""

from repro.runtime.errors import ParseError
from repro.runtime.stream import InputStream
from repro.subjects.function import FunctionSubject
from repro.subjects.registry import register_subject
from repro.taint.tchar import TChar


def parse_radix(stream: InputStream) -> str:
    """Accept one alphanumeric literal that starts with 0x or 0b."""
    literal = stream.read_while(TChar.isalnum)
    if not literal.startswith(("0x", "0b")):
        raise ParseError("expected a 0x or 0b prefix", 0)
    if not stream.peek().is_eof:
        raise ParseError("trailing characters", stream.pos)
    return literal.text


def _make_subject() -> FunctionSubject:
    return FunctionSubject(parse_radix, name="radix")


def register() -> None:
    register_subject("radix", _make_subject, replace=True)


if "__cov_line__" not in globals():
    register()
