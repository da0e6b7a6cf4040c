"""Plugin subject API: registration, module loading, contrib subjects.

The registry's plugin surface (ISSUE: pluggable subject API) has three
onboarding paths — ``register_subject``, ``load_subject_module`` and
entry points — all resolving through the same ``load_subject`` /
``is_known_subject`` / ``available_subjects`` front.  These tests pin the
contracts: built-ins are never shadowed, re-registration needs an
explicit ``replace=True``, unknown-subject errors list every loadable
name, and the bundled contrib parsers behave like built-ins end to end.
"""

import sys
from pathlib import Path

import pytest

import repro.subjects.registry as registry
from repro.runtime.harness import ExitStatus, run_subject
from repro.subjects.base import Subject
from repro.subjects.function import FunctionSubject
from repro.subjects.registry import (
    ALL_SUBJECT_NAMES,
    SUBJECT_NAMES,
    SubjectRegistrationError,
    available_subjects,
    is_known_subject,
    load_subject,
    load_subject_module,
    register_subject,
)

HELPERS = str(Path(__file__).resolve().parent.parent / "helpers")


@pytest.fixture(autouse=True)
def _clean_plugins():
    """Snapshot and restore the plugin table around every test."""
    saved = dict(registry._PLUGIN_FACTORIES)
    saved_path = list(sys.path)
    yield
    registry._PLUGIN_FACTORIES.clear()
    registry._PLUGIN_FACTORIES.update(saved)
    sys.path[:] = saved_path


def _toy_factory():
    def parse_a(stream):
        char = stream.next_char()
        if char != "a":
            from repro.runtime.errors import ParseError

            raise ParseError("expected 'a'", char.index)
        return "a"

    return FunctionSubject(parse_a, name="toy")


# --------------------------------------------------------------------- #
# register_subject
# --------------------------------------------------------------------- #


def test_registered_subject_loads_and_is_known():
    register_subject("toy", _toy_factory)
    assert is_known_subject("toy")
    assert "toy" in available_subjects()
    subject = load_subject("toy")
    assert isinstance(subject, Subject)
    assert subject.name == "toy"
    # Fresh instance per load, like built-ins.
    assert load_subject("toy") is not load_subject("toy")


def test_builtin_names_can_never_be_replaced():
    for name in ALL_SUBJECT_NAMES:
        with pytest.raises(SubjectRegistrationError, match="built-in"):
            register_subject(name, _toy_factory)
        with pytest.raises(SubjectRegistrationError, match="built-in"):
            register_subject(name, _toy_factory, replace=True)


def test_duplicate_plugin_needs_replace():
    register_subject("toy", _toy_factory)
    with pytest.raises(SubjectRegistrationError, match="already registered"):
        register_subject("toy", _toy_factory)
    register_subject("toy", _toy_factory, replace=True)  # must not raise


@pytest.mark.parametrize("bad_name", ["", None, 7])
def test_bad_names_rejected(bad_name):
    with pytest.raises(SubjectRegistrationError, match="non-empty string"):
        register_subject(bad_name, _toy_factory)


def test_non_callable_factory_rejected():
    with pytest.raises(SubjectRegistrationError, match="callable"):
        register_subject("toy", "not-a-factory")


# --------------------------------------------------------------------- #
# load_subject_module
# --------------------------------------------------------------------- #


def test_load_subject_module_reports_registered_names():
    sys.path.insert(0, HELPERS)
    registry._PLUGIN_FACTORIES.pop("crashy", None)
    sys.modules.pop("crashy_plugin", None)
    assert load_subject_module("crashy_plugin") == ("crashy",)
    assert is_known_subject("crashy")
    # Re-import of a loaded module falls back to its register() hook.
    registry._PLUGIN_FACTORIES.pop("crashy", None)
    assert load_subject_module("crashy_plugin") == ("crashy",)


def test_tuple_prefix_plugin_campaign_queues_every_prefix():
    """A parser calling ``buf.startswith(("0x", "0b"))`` used to record the
    tuple as the STRCMP operand, and substitution then raised TypeError
    within a few executions.  Each prefix is now its own comparison."""
    from repro.core.config import FuzzerConfig
    from repro.core.fuzzer import PFuzzer

    sys.path.insert(0, HELPERS)
    load_subject_module("radix_plugin")
    config = FuzzerConfig(seed=3, max_executions=300, coverage_backend="ast")
    result = PFuzzer(load_subject("radix"), config).run()
    assert result.executions == 300
    queued = {
        node.replacement
        for node in result.lineage.nodes.values()
        if node.op == "substitute"
    }
    assert {"0x", "0b"} <= queued
    assert result.crashes == 0


def test_load_subject_module_import_failure_is_wrapped():
    with pytest.raises(SubjectRegistrationError, match="cannot import"):
        load_subject_module("no_such_plugin_module")


# --------------------------------------------------------------------- #
# Unknown-subject diagnostics
# --------------------------------------------------------------------- #


def test_unknown_subject_error_lists_plugins_too():
    register_subject("toy", _toy_factory)
    with pytest.raises(KeyError) as excinfo:
        load_subject("nope")
    message = str(excinfo.value)
    assert "available subjects" in message
    for name in ALL_SUBJECT_NAMES + ("toy", "url", "httpreq", "isodate"):
        assert name in message


def test_available_subjects_orders_builtins_first():
    names = available_subjects()
    assert names[: len(ALL_SUBJECT_NAMES)] == ALL_SUBJECT_NAMES
    assert set(("url", "httpreq", "isodate")) <= set(names)


# --------------------------------------------------------------------- #
# Bundled contrib subjects behave like built-ins
# --------------------------------------------------------------------- #


CONTRIB_CASES = [
    ("url", "http://a.b/c?d=e", "http//"),
    ("httpreq", "GET / HTTP/1.1\r\n", "PUNCH / HTTP/1.1\r\n"),
    ("isodate", "2024-02-29", "2023-02-29"),
]


@pytest.mark.parametrize("name,good,bad", CONTRIB_CASES)
def test_contrib_subject_accepts_and_rejects(name, good, bad):
    subject = load_subject(name)
    assert run_subject(subject, good).status is ExitStatus.VALID
    assert run_subject(subject, bad).status is ExitStatus.REJECTED


@pytest.mark.parametrize("name,good,bad", CONTRIB_CASES)
def test_contrib_subject_backend_equivalence(name, good, bad):
    """settrace and ast tracers agree on contrib subjects' signatures."""
    from repro.runtime.arcs import arc_table_for

    for text in (good, bad):
        results = {
            backend: run_subject(
                load_subject(name), text, coverage_backend=backend
            )
            for backend in ("settrace", "ast")
        }
        table = arc_table_for(load_subject(name))
        signatures = {
            backend: table.signature(result.arcs)
            for backend, result in results.items()
        }
        assert signatures["settrace"] == signatures["ast"]


# --------------------------------------------------------------------- #
# FunctionSubject adapter
# --------------------------------------------------------------------- #


def test_function_subject_defaults_from_function():
    def parse_noop(stream):
        """Accept anything."""
        return None

    subject = FunctionSubject(parse_noop)
    assert subject.name == "parse_noop"
    assert subject.description == "Accept anything."
    assert subject.arc_table_key == ("function-subject", "parse_noop")


def test_function_subjects_get_distinct_arc_tables():
    from repro.runtime.arcs import arc_table_for

    def parse_one(stream):
        return 1

    def parse_two(stream):
        return 2

    one = FunctionSubject(parse_one, name="one")
    two = FunctionSubject(parse_two, name="two")
    assert arc_table_for(one) is not arc_table_for(two)
    assert arc_table_for(one) is arc_table_for(
        FunctionSubject(parse_one, name="one")
    )
