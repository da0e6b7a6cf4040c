"""Backend equivalence: the AST instrumentation backend vs the settrace tracer.

The AST backend (:mod:`repro.runtime.instrument`) must be observationally
identical to the reference settrace tracer — same arcs *with the same
first-traversal clocks*, same exit status, same heuristic branch sets, same
stack-size averages — on every registered subject, for valid, rejected and
EOF-truncated inputs alike.  The fuzzer's behaviour (scores, queue order,
emitted inputs) is a pure function of these observations, so equality here
is what makes campaigns byte-identical across backends.
"""

from __future__ import annotations

import pytest

from repro.runtime.harness import COVERAGE_BACKENDS, run_subject
from repro.runtime.instrument import (
    UnsupportedConstruct,
    instrumented_subject,
)
from repro.subjects.registry import ALL_SUBJECT_NAMES, load_subject

# Per-subject corpora mixing accepted inputs, rejected inputs and inputs
# failing with an incomplete-input (EOF) error, so every tracer code path —
# returns, raises, loop back-edges, handler dispatch — is exercised.
CORPUS = {
    "expr": ["", "1+2", "(3*4)-5", "1A", "((", "7/0", "1+"],
    "ini": ["", "[s]\nk=v\n", "[sec", "k=v\n", "[a]\nx", "[a]\n;c\nk=v\n"],
    "csv": ["", "a,b\n", "a,b\nc,d\n", '"x,y",z\n', '"unterminated', "a\n\n"],
    "json": ["", "1", "[1, 2]", '{"a": true}', "[1,", '"str"', "nul", "tru",
             "-1.5e3", "[[[1]]]", '{"a": {"b": []}}'],
    "tinyc": ["", "1;", "{ i=1; while (i<5) i=i+2; }", "if (1) ; else ;",
              "do ; while (0);", "{ x", "a=b=2;", "while (1) ;"],
    "mjs": ["", "1;", "var x = 1; print(x);", "if (true) { 1; } else { 2; }",
            "function f(a) { return a + 1; } f(2);",
            'var s = "a" + 1;', "[1,2,3];", "({a: 1});",
            "while (false) { 1; }", "var x = ", "throw 1;",
            "for (var i = 0; i < 3; i = i + 1) { print(i); }",
            "undefined_var;", "1 === 1;", "print(1, 2);",
            "var a = [1]; a[0];", "JSON.stringify([1, {a: 2}]);"],
}

CASES = [
    (name, text) for name in ALL_SUBJECT_NAMES for text in CORPUS[name]
]


@pytest.mark.parametrize(
    "subject_name,text",
    CASES,
    ids=[f"{name}-{text!r}" for name, text in CASES],
)
def test_backends_equivalent(subject_name, text):
    subject = load_subject(subject_name)
    traced = run_subject(subject, text, coverage_backend="settrace")
    compiled = run_subject(subject, text, coverage_backend="ast")

    assert traced.status == compiled.status
    # Same arc table instance (per subject class), so ids are comparable
    # directly — but compare decoded arcs for a readable diff on failure.
    table = traced.arc_table
    assert compiled.arc_table is table
    traced_arcs = {table.arc(a): clock for a, clock in traced.arcs.items()}
    compiled_arcs = {table.arc(a): clock for a, clock in compiled.arcs.items()}
    assert traced_arcs == compiled_arcs
    assert traced.branches == compiled.branches
    assert traced.branches_for_heuristic() == compiled.branches_for_heuristic()
    assert traced.average_stack_size() == pytest.approx(
        compiled.average_stack_size()
    )
    assert traced.path_signature() == compiled.path_signature()


def test_backend_names_exported():
    assert COVERAGE_BACKENDS == ("settrace", "ast")


def test_unknown_backend_rejected(expr_subject):
    for backend in ("gcov", "monitoring"):
        with pytest.raises(ValueError, match="backend"):
            run_subject(expr_subject, "1", coverage_backend=backend)


def test_instrumented_clone_is_cached(expr_subject):
    clone_a, collector_a = instrumented_subject(expr_subject)
    clone_b, collector_b = instrumented_subject(expr_subject)
    # The expensive parse/instrument/compile work is keyed on the subject
    # class; only the cheap per-instance state is rebuilt.
    assert collector_a is collector_b
    assert type(clone_a) is type(clone_b)


def test_collector_reset_preserves_closure_bindings(expr_subject):
    """reset() must mutate state in place — closures bind the containers."""
    clone, collector = instrumented_subject(expr_subject)
    run_subject(expr_subject, "1+2", coverage_backend="ast")
    assert collector.arcs  # left over from the run above
    arcs_container = collector.arcs
    collector.reset()
    assert collector.arcs is arcs_container
    assert not collector.arcs
    assert collector.clock == 0
    assert collector.depth == 0


def test_unsupported_construct_reports_location():
    """Guarded constructs fail loudly at instrument time, not silently."""
    import ast as ast_module

    from repro.runtime.instrument import _check_supported

    tree = ast_module.parse("async def f():\n    pass\n")
    with pytest.raises(UnsupportedConstruct):
        _check_supported(tree, "<test>")
