"""Workload table and source-tree location shared by the benchmark scripts.

Stdlib only: ``coldstart.py`` imports this module before its clock starts
the import of the program, so it must not import the program itself.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Tuple

#: The checkout the benchmark lives in; the program is built from ``src``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Executions per slice: the service preempts and checkpoints a job every
#: this many executions, and campaign workloads time their progress in
#: chunks of the same size, so ``slice_p50_ms`` means the same thing on
#: every workload.  The host's speed is probed after every slice.
SLICE_EXECUTIONS = 250

#: Scheduler worker processes of the service workload (the machine the
#: bounds were measured on has 2 cores).
SERVICE_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a closed loop of identical operations.

    An operation is one pFuzzer campaign of ``budget`` executions, or, when
    ``jobs`` is set, ``jobs`` such campaigns submitted together to the
    campaign service.  ``engine`` holds the ``FuzzerConfig`` fields that
    select the execution engine.
    """

    name: str
    subject: str
    budget: int
    engine: Dict[str, object] = field(default_factory=dict)
    jobs: int = 0

    @property
    def service(self) -> bool:
        return self.jobs > 0

    @property
    def pooled(self) -> bool:
        return self.engine.get("executor") == "pooled"


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("json-inline", "json", 5_000),
        Workload(
            "json-batched",
            "json",
            5_000,
            engine={
                "executor": "pooled",
                "executor_workers": 1,
                "batch_size": 8,
                "executor_isolation": "none",
            },
        ),
        Workload("url-frontier", "url", 2_000),
        Workload("json-service", "json", 1_000, jobs=4),
    )
}


def scaled(value: int, scale: float) -> int:
    """``value`` shrunk by ``--scale``, never below one."""
    return max(1, round(value * scale))


def campaign_seeds(seed: int, operation: int, count: int) -> Tuple[int, ...]:
    """Campaign seeds of one operation: ``--seed`` offsets all of them."""
    first = seed * 10_000 + operation * count
    return tuple(range(first, first + count))


def use_source_tree() -> None:
    """Import the program from this checkout's ``src``, or exit non-zero.

    The benchmark must fail, not fall back to some installed copy, when
    it runs outside a full checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
