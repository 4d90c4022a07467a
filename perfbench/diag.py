"""Host and process diagnostics, and the statistics every report uses.

Standard library only.  None of these numbers is gated: they exist so a
set of runs made during a slow spell of the host can be told apart from
a regression of the program.
"""

from __future__ import annotations

import os
import statistics
import time


def probe_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop, in ms.

    The loop belongs to the benchmark, not the program, so it moves only
    when the host runs Python slower.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def cpu_times() -> tuple[int, int]:
    """``(total, steal)`` jiffies of all CPUs from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    # guest time is already counted in user time
    return sum(fields[:8]), steal


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor took between two ``cpu_times``."""
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def p50(values) -> float:
    """Median, 0.0 for no samples."""
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q`` percentile (0 < q <= 100), 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
