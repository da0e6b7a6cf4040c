"""Token-taint bridging (the paper's §7.2 future work, implemented).

Tokenization breaks direct data flow: once the lexer has turned ``(`` into
``LPAREN``, the parser compares token *kinds*, and the taint instrumentation
sees nothing ("tokens represent a break in data flow", §7.2).  The paper
proposes "to identify typical tokenization patterns to propagate taint
information even in the presence of implicit data flow to tokens, such that
we can recover the concrete character comparisons we need".

This module is that recovery: a parser that checks the current token
against an expected token reports the check here, and the bridge re-expresses
it as an ordinary string comparison *at the token's input index* against the
expected token's spelling.  To the fuzzer it looks exactly like a wrapped
``strcmp`` — so "after ``while`` a ``(`` is expected" becomes a substitution
candidate, which is precisely the information tokenization had destroyed.

Bridging is **opt-in** (subjects default to the paper's behaviour so the
§7.2 limitation stays reproducible); the ablation benchmark measures what
it buys.
"""

from __future__ import annotations

from typing import Tuple

from repro.taint.events import ComparisonKind
from repro.taint.recorder import CURRENT_RECORDER


def record_token_expectation(
    index: int,
    actual_spelling: str,
    expected_spelling: str,
    matched: bool,
) -> None:
    """Report "the token at ``index`` was checked against ``expected``".

    Args:
        index: input index of the checked token's first character; for an
            EOF token this is ``len(input)``, so a derived substitution
            *appends* the expected spelling.
        actual_spelling: concrete spelling of the current token ("" at EOF).
        expected_spelling: spelling of the expected token (a representative
            spelling for token classes, e.g. ``"0"`` for numbers).
        matched: whether the check succeeded.
    """
    recorder = CURRENT_RECORDER.get()
    if recorder is None or not expected_spelling:
        return
    indices: Tuple[int, ...] = tuple(
        range(index, index + len(actual_spelling))
    )
    recorder.record(
        ComparisonKind.STRCMP,
        index,
        actual_spelling,
        expected_spelling,
        matched,
        indices,
        not actual_spelling,
    )
