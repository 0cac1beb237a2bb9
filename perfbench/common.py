"""Pieces shared by the workloads: output checks, percentiles, result assembly."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field


# Set-up is repeated at least this many times and for at least this long, and
# its median reported, so that a set-up of a few milliseconds still gives a
# steady figure.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0


def setup_done(times: list[float], trace: bool) -> bool:
    """Whether enough set-ups have run; a traced run sets up once."""
    if trace:
        return bool(times)
    return len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_S


class Checks:
    """Counts output checks; every failed check is one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def nearest_rank(values, percentile: float) -> float:
    """Nearest-rank percentile; the caller makes sure ``values`` is not empty."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten of ``samples`` beyond it, within [50, 99]."""
    return max(50, min(99, int(100 * (1 - 10 / samples))))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured.

    ``latency_ms`` is (p50, tail), the tail being the ``tail_percentile`` of
    the sample count. ``layers`` holds per-layer metrics by name
    (traced runs only). ``info`` is printed for people and not gated: sample
    counts, the metric under its workload name, digests. ``trace`` is what
    the traced run writes out when it ends.
    """

    checks: Checks
    setup_s: list[float] = field(default_factory=list)
    ops_per_s: float = 0.0
    latency_ms: tuple[float, float] = (0.0, 0.0)
    peak_rss_mb: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    trace: dict | None = None

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_s),
            "ops_per_s": self.ops_per_s,
            "latency_p50_ms": self.latency_ms[0],
            "latency_tail_ms": self.latency_ms[1],
            "peak_rss_MB": self.peak_rss_mb,
        }
