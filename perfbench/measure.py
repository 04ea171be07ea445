"""Statistics helpers shared by run.py and compare.py.

Everything here is a pure function of its arguments so the rules can be
tested without running the generator.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it; with fewer, a single slow op decides the number.
MIN_BEYOND = 10

# Candidates for "the highest percentile the run can support", highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class TooFewSamples(ValueError):
    """The run is too short to support the requested percentile."""


def _rank(n: int, q: float) -> int:
    # The epsilon keeps q = 99.9 of n = 10000 at rank 9990 despite rounding.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(q/100 * n)."""
    if not samples:
        raise TooFewSamples("no samples")
    return sorted(samples)[_rank(len(samples), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples rank above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail_percentile(samples: list[float], q: float) -> float:
    """The q-th percentile, refused unless MIN_BEYOND samples lie beyond it."""
    left = beyond(len(samples), q)
    if left < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(samples)} samples leaves {left} beyond it, "
            f"need {MIN_BEYOND}; run longer"
        )
    return percentile(samples, q)


def highest_tail(samples: list[float]) -> float | None:
    """The highest candidate percentile with MIN_BEYOND samples beyond it."""
    for q in TAIL_CANDIDATES:
        if beyond(len(samples), q) >= MIN_BEYOND:
            return q
    return None


def mean_by_key(samples: list[float], keys: list[int]) -> list[float]:
    """Each key's mean sample, in order of the keys' first appearance."""
    by_key: dict[int, list[float]] = {}
    for key, value in zip(keys, samples, strict=True):
        by_key.setdefault(key, []).append(value)
    return [statistics.fmean(values) for values in by_key.values()]


def ratio(part: int, base: int) -> float:
    """part / base, with an empty base reading as 0 rather than failing."""
    return part / base if base else 0.0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
