"""Latency summaries, machine facts and on-disk sizes."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

__all__ = ["summary", "machine", "peak_rss_mb", "dir_bytes"]


def _quantile(ordered: list[float], q: float) -> float:
    """Linear-interpolated quantile of an ascending list."""
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summary(values: list[float]) -> dict:
    """Median, sample count and the highest tail percentile that has at
    least ten samples beyond it (p99 needs 1000 samples)."""
    if not values:
        return {"n": 0}
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "p50": statistics.median(ordered)}
    for pct in (99, 95, 90):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = _quantile(ordered, pct / 100)
            break
    return out


def machine() -> dict:
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "python": sys.version.split()[0],
        "python_build": " ".join(platform.python_build()),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())
