"""Fixed interpreter work that times how fast the machine runs.

On a shared host the same command can take 1.8 times as long from one
ten-second stretch to the next, and the whole machine slows together:
CPU time swings as much as wall time, on both CPUs. So the benchmark
times this reference just before each command and reports the command's
wall time scaled to a machine on which the reference takes NOMINAL_MS:
wall * NOMINAL_MS / (median reference time around the command). The
work parses, sorts, hashes and formats like the program does. On a
2-CPU shared host, over five 30-second runs per workload, scaling cut
the spread (interquartile range over median) of the in-process latency
medians from 0.3 to 0.01-0.04, and of the cli-cold ones from 0.15-0.19
to 0.05-0.09; processes that start and load modules track it less
closely. The reference never imports eubalance, and it runs with the
cyclic garbage collector off: its objects are freed by reference count
as it returns, so no collection walks the program's heap inside it and
none is left owed to the command timed after it. How much the program
keeps alive therefore does not enter the reference.
"""
from __future__ import annotations

import gc
import math
import statistics
import time

NOMINAL_MS = 5.0
WINDOW = 2  # commands on each side whose references scale a command


def _work() -> int:
    rows = [(i * 0.37, math.exp(i * 1e-3), str(i)) for i in range(2500)]
    rows.sort(key=lambda r: (-r[1], r[2]))
    by_key = {r[2]: r for r in rows}
    text = ",".join(repr(by_key[str(i)][0]) for i in range(0, 2500, 3))
    lines = [f"C{i % 27},{1995 + i % 17},{i * 0.731!r}" for i in range(1500)]
    totals = {}
    for line in lines:
        code, year, value = line.split(",")
        totals[(code, int(year))] = float(value)
    return len(text) + len("\n".join(format(v, ".6g")
                                     for v in sorted(totals.values())))


def reference_ms() -> float:
    """Wall milliseconds the reference work takes now."""
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return (time.perf_counter() - start) * 1000
    finally:
        gc.enable()


def scales(refs: list[float]) -> list[float]:
    """For each command, NOMINAL_MS over the median of the references
    timed within WINDOW commands of it."""
    return [NOMINAL_MS / statistics.median(refs[max(0, i - WINDOW):
                                                i + WINDOW + 1])
            for i in range(len(refs))]
