"""Hot-path throughput: backends and execution-engine modes.

The execution engine is the fuzzer's hot path — every campaign iteration
costs up to two subject runs under coverage.  This benchmark replays a
fixed json corpus (valid, rejected and EOF-truncated inputs, shallow and
nested) through :func:`run_subject` under both backends and records
executions/second for each in the bench JSON (``extra_info``), plus the
speedup ratio the tentpole targets (AST >= 3x settrace on json).

The executor matrix measures what the execution-engine tentpole removes:
per-candidate and per-slice *fixed* costs.  Four modes per subject x
backend cell:

* ``inline`` — warm in-process ``run_subject`` (the reference upper
  bound; a long-lived campaign already amortises setup);
* ``coldstart`` — a fresh interpreter per corpus slice (spawn + import +
  instrument + replay), the shape every grid cell and scheduler slice
  paid before the pooled engine existed;
* ``pooled`` — persistent worker, ``fork()`` per candidate (the AFL
  isolation path);
* ``batched`` — persistent worker, same-process runs, one speculative
  round-trip per corpus slice (the throughput path).

The tracked trajectory lives in repo-root ``BENCH_throughput.json``: run
with ``REPRO_BENCH_WRITE=1`` to append an entry (git rev + timestamp +
rates); without it, the run prints the delta against the committed entry
instead.  The headline acceptance ratio is batched >= 2x coldstart on
the json subject under the ast backend.

Run with ``--benchmark-json=out.json`` to persist the numbers; set
``REPRO_BENCH_SMOKE=1`` (CI smoke) to keep the measurements but skip the
ratio assertions, which need an unloaded machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import pytest

import repro
from bench_common import REPO_ROOT, append_trajectory_entry, load_trajectory
from repro.runtime.executor import PooledExecutor
from repro.runtime.harness import COVERAGE_BACKENDS, run_subject
from repro.subjects.registry import load_subject

#: Tracked throughput trajectory (committed; see module docstring).
BENCH_PATH = REPO_ROOT / "BENCH_throughput.json"

#: Subject x backend cells the executor matrix measures.
MATRIX_SUBJECTS = ("json", "ini")
EXECUTOR_BENCH_MODES = ("inline", "coldstart", "pooled", "batched")

#: Replay corpus: the mix a real campaign sees — rejections dominate, with
#: a few deep valid inputs exercising loops, recursion and handler arcs.
CORPUS = (
    "",
    "1",
    "[1, 2]",
    '{"a": true}',
    "[1,",
    '"str"',
    "nul",
    "-1.5e3",
    '{"a": {"b": [1, 2, {"c": null}]}}',
    "[" * 20 + "1" + "]" * 20,
    '{"k1": [true, false, null], "k2": "some longer string value", "k3": 1e-7}',
)


def _replay(subject, backend: str) -> None:
    for text in CORPUS:
        run_subject(subject, text, coverage_backend=backend)


def _rate(subject, backend: str, seconds: float = 1.5) -> float:
    """Executions/second over a fixed wall-clock window."""
    _replay(subject, backend)  # warm caches (instrumentation, arc tables)
    runs = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        _replay(subject, backend)
        runs += len(CORPUS)
    return runs / (time.perf_counter() - started)


def _best_rates(subject, rounds: int = 5, seconds: float = 0.3) -> dict:
    """Each backend's best rate over interleaved rounds.

    A round times every backend once, back to back, so a slow stretch of
    the host lands on both backends' windows instead of one; the best of
    the rounds is the backend's own speed.
    """
    best = dict.fromkeys(COVERAGE_BACKENDS, 0.0)
    for _ in range(rounds):
        for backend in COVERAGE_BACKENDS:
            best[backend] = max(best[backend], _rate(subject, backend, seconds))
    return best


@pytest.mark.parametrize("backend", COVERAGE_BACKENDS)
def test_bench_backend_throughput(benchmark, backend):
    """Per-backend replay cost; executions/sec lands in the bench JSON."""
    subject = load_subject("json")
    _replay(subject, backend)  # warm up outside the measurement
    benchmark.pedantic(
        _replay, args=(subject, backend), rounds=20, iterations=1, warmup_rounds=2
    )
    per_replay = benchmark.stats.stats.mean
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["corpus_size"] = len(CORPUS)
    benchmark.extra_info["executions_per_second"] = len(CORPUS) / per_replay


def test_bench_ast_speedup_over_settrace(benchmark):
    """The tentpole acceptance number: AST backend >= 3x settrace on json,
    each backend at its best over interleaved rounds (:func:`_best_rates`)."""
    subject = load_subject("json")
    rates = benchmark.pedantic(
        lambda: _best_rates(subject), rounds=1, iterations=1
    )
    ratio = rates["ast"] / rates["settrace"]
    benchmark.extra_info["settrace_per_second"] = rates["settrace"]
    benchmark.extra_info["ast_per_second"] = rates["ast"]
    benchmark.extra_info["speedup"] = ratio
    print("\n\n=== execution-engine throughput (json corpus) ===")
    for backend in COVERAGE_BACKENDS:
        print(f"  {backend:<9} {rates[backend]:8.0f} executions/s")
    print(f"  speedup   {ratio:.2f}x")
    if os.environ.get("REPRO_BENCH_SMOKE"):
        pytest.skip("smoke mode: measured, ratio assertion skipped")
    assert ratio >= 3.0, f"AST backend only {ratio:.2f}x faster than settrace"


# --------------------------------------------------------------------- #
# Execution-engine modes and the tracked trajectory
# --------------------------------------------------------------------- #


def _coldstart_rate(subject_name: str, backend: str, spawns: int) -> float:
    """Executions/second when every corpus slice pays a fresh process.

    Spawns a new interpreter that imports the package, loads and (for the
    ast backend) instruments the subject, and replays the corpus once —
    the per-cell/per-slice cost shape of the pre-engine grid and
    scheduler.  Best of ``spawns`` runs, to shed scheduler noise.
    """
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    script = (
        "import sys\n"
        f"sys.path.insert(0, {package_root!r})\n"
        "from repro.runtime.harness import run_subject\n"
        "from repro.subjects.registry import load_subject\n"
        f"subject = load_subject({subject_name!r})\n"
        f"for text in {list(CORPUS)!r}:\n"
        f"    run_subject(subject, text, coverage_backend={backend!r})\n"
    )
    best = float("inf")
    for _ in range(spawns):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", script], check=True, capture_output=True
        )
        best = min(best, time.perf_counter() - started)
    return len(CORPUS) / best


def _pooled_rate(
    subject, backend: str, isolation: str, batched: bool, seconds: float
) -> float:
    """Executions/second through a persistent one-worker executor."""
    with PooledExecutor(
        subject, coverage_backend=backend, isolation=isolation
    ) as executor:
        executor.run_batch(list(CORPUS))  # warm the worker
        runs = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            if batched:
                executor.run_batch(list(CORPUS))
            else:
                for text in CORPUS:
                    executor.execute(text)
            runs += len(CORPUS)
        return runs / (time.perf_counter() - started)


def _measure_matrix(seconds: float, spawns: int) -> dict:
    """rates[subject][backend][mode] -> executions/second."""
    rates: dict = {}
    for subject_name in MATRIX_SUBJECTS:
        subject = load_subject(subject_name)
        rates[subject_name] = {}
        for backend in COVERAGE_BACKENDS:
            rates[subject_name][backend] = {
                "inline": _rate(subject, backend, seconds=seconds),
                "coldstart": _coldstart_rate(subject_name, backend, spawns),
                "pooled": _pooled_rate(
                    subject, backend, "auto", batched=False, seconds=seconds
                ),
                "batched": _pooled_rate(
                    subject, backend, "none", batched=True, seconds=seconds
                ),
            }
    return rates


def _print_matrix(rates: dict) -> None:
    print("\n\n=== executor throughput (executions/s) ===")
    header = "  {:<6} {:<9}".format("subj", "backend") + "".join(
        f"{mode:>11}" for mode in EXECUTOR_BENCH_MODES
    )
    print(header)
    for subject_name, backends in rates.items():
        for backend, modes in backends.items():
            row = "  {:<6} {:<9}".format(subject_name, backend) + "".join(
                f"{modes[mode]:>11.0f}" for mode in EXECUTOR_BENCH_MODES
            )
            print(row)


def _print_delta_vs_committed(rates: dict) -> None:
    """Non-blocking comparison against the committed trajectory."""
    trajectory = load_trajectory(BENCH_PATH)
    if not trajectory:
        print("  (no committed BENCH_throughput.json to compare against)")
        return
    committed = trajectory[-1]
    print(
        f"  delta vs committed entry {committed['git_rev']} "
        f"({committed['timestamp']}):"
    )
    for subject_name, backends in rates.items():
        for backend, modes in backends.items():
            reference = (
                committed["rates"].get(subject_name, {}).get(backend, {})
            )
            for mode, rate in modes.items():
                base = reference.get(mode)
                if not base:
                    continue
                change = 100.0 * (rate - base) / base
                print(
                    f"    {subject_name}/{backend}/{mode:<9} "
                    f"{rate:9.0f} exec/s ({change:+.0f}%)"
                )


def test_bench_executor_matrix(benchmark):
    """The engine acceptance matrix; optionally extends the trajectory.

    Smoke mode shrinks the measurement windows and skips the ratio
    assertions (they need an unloaded machine); the numbers still print
    and still land in the bench JSON.
    """
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    seconds, spawns = (0.4, 1) if smoke else (1.0, 3)
    rates = benchmark.pedantic(
        lambda: _measure_matrix(seconds, spawns), rounds=1, iterations=1
    )
    _print_matrix(rates)
    headline = rates["json"]["ast"]
    ratio = headline["batched"] / headline["coldstart"]
    print(f"  headline: json/ast batched/coldstart = {ratio:.2f}x")
    benchmark.extra_info["rates"] = rates
    benchmark.extra_info["batched_over_coldstart_json_ast"] = ratio
    if os.environ.get("REPRO_BENCH_WRITE"):
        append_trajectory_entry(
            BENCH_PATH,
            rates,
            ratios={
                "json_ast_batched_over_coldstart": ratio,
                "json_ast_batched_over_inline": (
                    headline["batched"] / headline["inline"]
                ),
            },
        )
    else:
        _print_delta_vs_committed(rates)
    if smoke:
        pytest.skip("smoke mode: measured, ratio assertions skipped")
    assert ratio >= 2.0, (
        f"batched engine only {ratio:.2f}x coldstart on json/ast "
        "(acceptance: >= 2x)"
    )
    # Batching must amortise the per-candidate round-trip and fork cost
    # that the unbatched pooled path pays on every execution.
    assert headline["batched"] >= 2.0 * headline["pooled"], (
        f"batching only {headline['batched'] / headline['pooled']:.2f}x "
        "over per-candidate round-trips"
    )
