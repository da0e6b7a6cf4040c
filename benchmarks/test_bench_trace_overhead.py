"""Observability cost: disabled tracing must be (nearly) free.

The trace bus is designed so a campaign without a recorder pays one
``enabled`` attribute check per would-be event plus one lineage
``NamedTuple`` per scheduled candidate.  This benchmark pins that down
two ways:

* campaign level — executions/second for the same json campaign with
  tracing disabled, buffered in memory, and written to NDJSON; the rates
  land in the bench JSON (``extra_info``) so regressions show up in CI
  history;
* micro level — the disabled path's per-execution observability work
  (guard checks + lineage node creation) measured directly and asserted
  to be under 5% of the campaign's per-execution cost, the ISSUE's
  disabled-tracing budget.

Set ``REPRO_BENCH_SMOKE=1`` (CI smoke) to keep the measurements but skip
the ratio assertion, which needs an unloaded machine.
"""

from __future__ import annotations

import os
import time

from repro.core.config import FuzzerConfig
from repro.core.fuzzer import PFuzzer
from repro.obs.lineage import LineageLog
from repro.obs.trace import NULL_RECORDER, InMemoryTraceRecorder, JsonlTraceRecorder
from repro.subjects.registry import load_subject

BUDGET = 2_000


def _campaign_rate(tracer=None, trace_path=None, seed=1) -> float:
    """Executions/second for one fixed-budget json campaign."""
    config = FuzzerConfig(seed=seed, max_executions=BUDGET, trace_path=trace_path)
    started = time.perf_counter()
    result = PFuzzer(load_subject("json"), config, tracer=tracer).run()
    elapsed = time.perf_counter() - started
    assert result.executions == BUDGET
    return BUDGET / elapsed


def test_bench_tracing_modes(benchmark, tmp_path):
    """Throughput with tracing off / in-memory / NDJSON, for the record."""
    _campaign_rate()  # warm instrumentation caches outside the measurement
    rates = benchmark.pedantic(
        lambda: {
            "disabled": _campaign_rate(),
            "memory": _campaign_rate(tracer=InMemoryTraceRecorder()),
            "ndjson": _campaign_rate(
                trace_path=str(tmp_path / "bench-trace.ndjson")
            ),
        },
        rounds=1,
        iterations=1,
    )
    for mode, rate in rates.items():
        benchmark.extra_info[f"{mode}_per_second"] = rate
    print("\n\n=== campaign throughput by tracing mode (json) ===")
    for mode, rate in rates.items():
        print(f"  {mode:<9} {rate:8.0f} executions/s")


def test_bench_disabled_tracing_under_budget(benchmark):
    """Acceptance: disabled-path observability work < 5% of execution cost.

    With tracing off, one campaign iteration adds at most a handful of
    ``recorder.enabled`` guard checks and (per scheduled candidate) one
    lineage row (:meth:`LineageLog.new_node`) over the pre-observability
    code.
    Measure that work directly and compare it to the campaign's real
    per-execution cost.
    """
    # Per-execution cost of the actual campaign (tracing disabled).
    _campaign_rate()  # warm-up
    per_execution = 1.0 / _campaign_rate()

    # The disabled path's added work, deliberately overestimated: 16
    # guard checks and 8 lineage nodes per execution (a real iteration
    # does far fewer — one node per scheduled candidate, ~6 per
    # execution on json, and one guard per would-be event).
    log = LineageLog()
    rounds = 20_000
    started = time.perf_counter()
    for index in range(rounds):
        for _ in range(16):
            if NULL_RECORDER.enabled:  # pragma: no cover - never taken
                raise AssertionError
        for _ in range(8):
            log.new_node(index, "append", "xyzzy", replacement="y")
    overhead = (time.perf_counter() - started) / rounds

    ratio = overhead / per_execution
    benchmark.extra_info["per_execution_seconds"] = per_execution
    benchmark.extra_info["disabled_overhead_seconds"] = overhead
    benchmark.extra_info["overhead_ratio"] = ratio
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print("\n\n=== disabled-tracing overhead (json) ===")
    print(f"  per execution   {per_execution * 1e6:9.2f} us")
    print(f"  obs. overhead   {overhead * 1e6:9.2f} us")
    print(f"  ratio           {ratio * 100:9.2f} %")
    if os.environ.get("REPRO_BENCH_SMOKE"):
        import pytest

        pytest.skip("smoke mode: measured, ratio assertion skipped")
    assert ratio < 0.05, f"disabled tracing costs {ratio:.1%} of an execution"


def test_bench_ndjson_recorder_emit_rate(benchmark, tmp_path):
    """Raw emit throughput of the NDJSON recorder (events/second)."""
    recorder = JsonlTraceRecorder(tmp_path / "emit.ndjson")

    def emit_block():
        for index in range(1_000):
            recorder.emit(
                "candidate_scheduled",
                lineage=index,
                parent=index - 1,
                op="append",
                text="abcdef",
                replacement="f",
            )

    benchmark.pedantic(emit_block, rounds=10, iterations=1, warmup_rounds=1)
    recorder.close()
    benchmark.extra_info["events_per_second"] = (
        1_000 / benchmark.stats.stats.mean
    )
