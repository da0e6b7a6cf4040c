"""One cold start of a workload, timed from the interpreter's first line.

Usage: python3 perfbench/coldstart.py WORKLOAD WORKDIR

A cold start imports the program, loads the subject and compiles its
``ast`` instrumentation.  The batched workload also spawns its executor
and serves one execution; the service workload also opens a job store
and spawns the scheduler's worker pool.  Prints one JSON object with the
set-up time and its parts, and the host probe (``host.py``) taken right
after; tearing down is not timed.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import specs  # noqa: E402

#: Host probes after the set-up; the cold start reports their mean.
PROBES = 20


def main() -> None:
    workload = specs.WORKLOADS[sys.argv[1]]
    workdir = Path(sys.argv[2])
    specs.use_source_tree()
    from repro.core.fuzzer import PFuzzer  # noqa: F401 - import is set-up work
    from repro.runtime.instrument import instrumented_subject
    from repro.subjects.registry import load_subject

    imported = time.perf_counter()
    subject = load_subject(workload.subject)
    loaded = time.perf_counter()
    instrumented_subject(subject)
    compiled = time.perf_counter()
    teardown = None
    if workload.pooled:
        from repro.runtime.executor import PooledExecutor

        executor = PooledExecutor(
            subject,
            coverage_backend="ast",
            workers=workload.engine["executor_workers"],
            isolation=workload.engine["executor_isolation"],
        )
        executor.execute("")
        teardown = executor.close
    elif workload.service:
        from repro.service.jobs import JobStore
        from repro.service.scheduler import CampaignScheduler, SchedulerConfig

        store = JobStore(workdir / "journal.jsonl")
        scheduler = CampaignScheduler(
            store, workdir, SchedulerConfig(workers=specs.SERVICE_WORKERS)
        )
        for _ in range(specs.SERVICE_WORKERS):
            scheduler.pool.spawn()
        teardown = scheduler.shutdown
    ready = time.perf_counter()
    import host  # after the clock: it warms the probe up on import

    probe_s = host.probes(PROBES)
    if teardown is not None:
        teardown()
    print(
        json.dumps(
            {
                "setup_s": ready - _STARTED,
                "probe_s": probe_s,
                "import_s": imported - _STARTED,
                "load_s": loaded - imported,
                "compile_s": compiled - loaded,
                "spawn_s": ready - compiled,
            }
        )
    )


if __name__ == "__main__":
    main()
