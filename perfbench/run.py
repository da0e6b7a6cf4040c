"""The repository's benchmark: one command, every metric, a correctness gate.

Usage::

    python3 perfbench/run.py --workload NAME [--seed S] [--seconds T]
        [--trace 0|1] [--repeat N] [--scale F] [--json OUT]

A run measures the workload for T seconds in a fresh interpreter
(``workload.py``) and checks every operation's output.  Around the
measurement, half before and half after, it times sixteen
fresh-interpreter cold starts of the workload; the median of their
times, each rescaled to the reference host by the probe taken right
after it (``host.py``), is ``setup_s``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports its
per-layer metrics, the measured (raw) times among them, and prints the
self-time table of every layer.  ``--repeat N`` makes N runs with
seeds S..S+N-1 and reports each metric's median and quartiles.
``--scale F`` shrinks every campaign, for smoke tests.  ``--json OUT``
writes the result, with the CPU count and Python version, to OUT.

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
operation passed the gate, 1 when one failed, and 2 when the program
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import host
import specs

HERE = Path(__file__).resolve().parent

#: Cold starts per run, half before the measurement and half after it, so
#: a slow stretch of the host does not fall on all of them; ``setup_s`` is
#: their median.
COLD_STARTS = 16

#: Seconds a child process may take before the run is abandoned.
CHILD_TIMEOUT = 150


def run_child(arguments: List[str], timeout: float) -> dict:
    """Run a benchmark script in a fresh interpreter; its last line is JSON.

    The child gets its own process group, so a timeout also stops the
    worker processes it started.
    """
    process = subprocess.Popen(
        [sys.executable, *arguments],
        cwd=specs.ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{arguments[0]} exceeded {timeout:g}s") from None
    if process.returncode != 0:
        raise RuntimeError(
            f"{arguments[0]} exited {process.returncode}:\n{stderr[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(args, seed: int, workdir: Path) -> dict:
    """One measurement of ``args.workload`` on ``seed``: metrics and gate."""
    workdir.mkdir(parents=True)

    def cold_start(n: int) -> dict:
        return run_child(
            [str(HERE / "coldstart.py"), args.workload, str(workdir / f"cold-{n}")],
            CHILD_TIMEOUT,
        )

    half = COLD_STARTS // 2
    setups = [cold_start(n) for n in range(half)]
    report = run_child(
        [
            str(HERE / "workload.py"),
            args.workload,
            str(seed),
            repr(args.seconds),
            repr(args.scale),
            str(args.trace),
            str(workdir / "workload"),
        ],
        CHILD_TIMEOUT,
    )
    setups += [cold_start(n) for n in range(half, COLD_STARTS)]
    if args.trace:
        metrics = dict(report["layers"])
        metrics["instrument.compile_s"] = statistics.median(
            setup["compile_s"] for setup in setups
        )
        metrics["raw.setup_s"] = statistics.median(setup["setup_s"] for setup in setups)
    else:
        metrics = {name: report[name] for name in ("execs_per_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(
            host.at_reference(setup["setup_s"], setup["probe_s"]) for setup in setups
        )
    print(
        f"perfbench {args.workload} seed {seed}: {report['operations']} "
        f"operations, {report['executions']} executions in "
        f"{report['wall_s']:.2f} s ({report['raw.execs_per_s']:.0f} exec/s as "
        f"measured, host probe {report['host.probe_ms']:.2f} ms), "
        f"{report['slices']} slices; "
        f"{report['failed']} of {report['attempted']} operations failed"
    )
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    for table in report.get("tables", ()):
        print(table)
    return {
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def parse_args(run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(specs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(run_seconds))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--json", type=Path, default=None, metavar="OUT")
    args = parser.parse_args()
    if args.repeat < 1 or args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--repeat, --seconds and --scale must be positive (scale <= 1)")
    return args


def main() -> int:
    specs.use_source_tree()
    benchmark = json.loads(specs.BENCHMARK_FILE.read_text())
    args = parse_args(benchmark["run_seconds"])
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    # Scratch files stay inside the checkout the benchmark runs in.
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=specs.ROOT) as work:
        runs = [
            run_once(args, args.seed + offset, Path(work) / str(offset))
            for offset in range(args.repeat)
        ]

    metrics: Dict[str, dict] = {}
    spread: Dict[str, tuple] = {}
    for metric in declared:
        name = metric["name"]
        values = [run["metrics"][name] for run in runs]
        q1, median, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": metric["unit"]}
        spread[name] = (q1, q3)
    label = "median of %d runs" % len(runs) if len(runs) > 1 else "value"
    print(f"  {'metric':<34} {label:>18} {'unit':<8} {'q1':>12} {'q3':>12}")
    for name, entry in metrics.items():
        q1, q3 = spread[name]
        print(
            f"  {name:<34} {entry['value']:>18.6g} {entry['unit']:<8} "
            f"{q1:>12.6g} {q3:>12.6g}"
        )
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.json is not None:
        document = {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "workload": args.workload,
            "seeds": [args.seed + offset for offset in range(args.repeat)],
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": args.trace,
            "quartiles": spread,
            **result,
        }
        args.json.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
