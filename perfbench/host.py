"""Host-speed probe: a fixed piece of pure-Python work, timed.

The machines this benchmark runs on share their cores with other
tenants, and the speed of a core drifts by up to half over tens of
seconds.  Timing the same fixed work next to the program's work tells
how fast the host was at that moment, and :func:`at_reference` rescales
a measured time to what it would have been on a host where the probe
takes :data:`REFERENCE_S`.  Only the program's work changes from one
version to the next; the probe's work never does.

Stdlib only, like ``specs``: the cold-start script imports it after
timing the program's set-up.
"""

from __future__ import annotations

import gc
import statistics
import time

#: Seconds one probe takes on the reference host: a round figure near the
#: fast end of the probe's range (0.16-0.37 ms) on the 2-vCPU machine the
#: bounds were set on.
REFERENCE_S = 0.0002

_TEXT = "the quick brown fox jumps over the lazy dog " * 4


def _work() -> int:
    """Dictionary, slicing and list work, like a parser's inner loop."""
    table: dict = {}
    kept: list = []
    for round_ in range(4):
        for i in range(len(_TEXT) - 3):
            key = _TEXT[i : i + 3]
            table[key] = table.get(key, 0) + 1
            if key[0] == " ":
                kept.append((key, i, round_))
        kept = [item for item in kept if item[1] % 3]
    return len(table) + len(kept)


def probe() -> float:
    """Seconds one run of the probe's work takes now.

    The collector is off while it runs, so the probe never pays for a
    collection of the program's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def probes(count: int) -> float:
    """Mean seconds of ``count`` probes run back to back."""
    return statistics.fmean(probe() for _ in range(count))


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured where a probe took ``probe_s`` on average,
    rescaled to the reference host."""
    return seconds * REFERENCE_S / probe_s


# The interpreter specialises the probe's bytecode over its first runs;
# run it past that here, so every probe timed afterwards is comparable.
probes(50)
