"""Smoke test of the benchmark, and unit tests of its span arithmetic.

Run with: python3 -m pytest perfbench/test_perf_smoke.py
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

import host
import spans
import specs
import workload

BENCHMARK = json.loads(specs.BENCHMARK_FILE.read_text())


def scripted_clock(*ticks):
    readings = iter(ticks)
    return lambda: next(readings)


def run_benchmark(workload: str, trace: int, cwd=specs.ROOT):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.3",
            "--scale",
            "0.02",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


# -- span arithmetic ------------------------------------------------------ #


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 7], which holds c [2, 5].
    tracer = spans.Tracer(clock=scripted_clock(0, 1, 2, 5, 7, 10))
    c = tracer.wrap("c", lambda: None)
    b = tracer.wrap("b", c)
    a = tracer.wrap("a", b)
    a()
    assert tracer.totals == {
        "c": [1, 3, 3],
        "b": [1, 6, 3],
        "a": [1, 10, 4],
    }
    assert tracer.root_s == 10
    assert sum(entry[2] for entry in tracer.totals.values()) == tracer.root_s


@pytest.mark.parametrize("leaf", [False, True])
def test_sibling_children_are_each_subtracted_once(leaf):
    # outer [0, 10] holds inner [1, 3] and inner [4, 6].
    tracer = spans.Tracer(clock=scripted_clock(0, 1, 3, 4, 6, 10))
    inner = tracer.wrap("inner", lambda: None, leaf=leaf)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    assert tracer.totals["inner"] == [2, 4, 4]
    assert tracer.totals["outer"] == [1, 10, 6]


def test_leaf_span_keeps_the_wrapped_signature():
    tracer = spans.Tracer(clock=scripted_clock(0, 1, 1, 2))

    def node(log, parent, op="seed", text=""):
        return (log, parent, op, text)

    leaf = tracer.wrap("lineage", node, leaf=True)
    assert leaf("L", None) == ("L", None, "seed", "")
    assert leaf("L", 3, text="ab") == ("L", 3, "seed", "ab")
    assert tracer.totals["lineage"] == [2, 2, 2]
    with pytest.raises(TypeError):
        tracer.wrap("any", lambda *args: None, leaf=True)
    with pytest.raises(TypeError):
        tracer.wrap("any", lambda clock: None, leaf=True)


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer(clock=scripted_clock(0, 2))

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert tracer.stack == []
    assert tracer.totals["fail"] == [1, 2, 2]


def test_merge_sums_processes_and_keeps_peaks():
    first = {
        "totals": {"harness": [3, 1.5, 1.0], "fuzzer": [1, 2.0, 0.5]},
        "counts": {"substitute.out": 10},
        "peaks": {"queue.peak_len": 40},
        "root_s": 2.0,
        "samples": ["a"],
    }
    second = {
        "totals": {"harness": [2, 1.0, 1.0]},
        "counts": {"substitute.out": 5},
        "peaks": {"queue.peak_len": 70},
        "root_s": 1.0,
        "samples": ["b"],
    }
    merged = spans.merge([first, second])
    assert merged["totals"] == {"harness": [5, 2.5, 2.0], "fuzzer": [1, 2.0, 0.5]}
    assert merged["counts"] == {"substitute.out": 15}
    assert merged["peaks"] == {"queue.peak_len": 70}
    assert merged["root_s"] == 3.0
    assert merged["samples"] == ["a", "b"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_worker_spans_stay_out_of_the_parent(tmp_path):
    tracer = spans.Tracer()
    tracer.flush_dir = tmp_path
    tracer.follow_forks()
    work = tracer.wrap("work", lambda: None)

    def fork_worker():
        pid = os.fork()
        if pid == 0:
            work()
            tracer.flush()
            os._exit(0)
        os.waitpid(pid, 0)

    tracer.wrap("parent", fork_worker)()
    (worker,) = tracer.collect()
    assert worker["pid"] != os.getpid()
    # The worker's span was a root there, and nothing of the parent's
    # open span leaked into the child.
    assert set(worker["totals"]) == {"work"}
    assert worker["root_s"] == worker["totals"]["work"][1]
    parent = tracer.snapshot()
    assert set(parent["totals"]) == {"parent"}
    merged = spans.merge([parent, worker])
    assert merged["root_s"] == pytest.approx(
        sum(entry[2] for entry in merged["totals"].values())
    )


# -- reference-host rescaling --------------------------------------------- #


def test_each_slice_is_rescaled_by_its_own_probe():
    # 1 s at the reference speed and 1 s at half of it: the host did
    # 0.5 + 1 s of reference work; the 4 s operation scales alike.
    slices = [(1.0, host.REFERENCE_S), (1.0, 2 * host.REFERENCE_S)]
    assert workload.reference_wall(2.0, slices) == pytest.approx(1.5)
    assert workload.reference_wall(4.0, slices) == pytest.approx(3.0)
    assert host.at_reference(0.2, 4 * host.REFERENCE_S) == pytest.approx(0.05)


def test_probe_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert host.probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        assert host.probe() > 0
        assert not gc.isenabled()
    finally:
        gc.enable()


# -- the command ---------------------------------------------------------- #


@pytest.mark.parametrize("workload", sorted(specs.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit_and_the_gate_passes(workload, trace):
    completed = run_benchmark(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
            for line in lines[:-1]
        ), metric["name"]
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(specs.BENCHMARK_FILE, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        specs.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = run_benchmark("json-inline", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
