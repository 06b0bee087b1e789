"""Grade-distribution descriptives and per-cluster performance classes.

Skewness is the adjusted Fisher-Pearson sample coefficient
g1 = [n / ((n-1)(n-2))] * sum(((x - mean) / s)^3) with sample standard
deviation s. A distribution is called right- or left-skewed when g1 is
above 0.5 or below -0.5; anything in between counts as approximately
symmetric. The 0.5 cut is a convention, not a measured constant.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Mapping, Sequence
from enum import Enum
from typing import NamedTuple

from .errors import AnalysisError, DataError
from .model import Partition, _check_bin_width, _check_cover, _check_mark, _check_thresholds

SKEW_SHAPE_THRESHOLD = 0.5


class Shape(str, Enum):
    LEFT_SKEWED = "left_skewed"
    RIGHT_SKEWED = "right_skewed"
    APPROX_SYMMETRIC = "approx_symmetric"


class PerfClass(str, Enum):
    HIGH = "high"
    AVERAGE = "average"
    LOW = "low"


class DistributionSummary(NamedTuple):
    n: int
    mean: float
    median: float
    minimum: float
    maximum: float
    stddev: float | None  # absent when n < 2
    skew: float | None  # absent when n < 3 or the variance is zero
    shape: Shape | None
    bin_width: float
    histogram: tuple[tuple[float, int], ...]  # (bin lower bound, count)


class ClusterPerformance(NamedTuple):
    cluster: int
    members: tuple[int, ...]
    mean_mark: float
    perf: PerfClass


class GroupComparison(NamedTuple):
    summary_a: DistributionSummary
    summary_b: DistributionSummary
    mean_difference: float  # mean(a) - mean(b)


def _stdev(marks: Sequence[float]) -> float:
    """Sample standard deviation (n >= 2): the exact variance's square root, rounded once.

    The same float on every CPython; 3.10's ``statistics.stdev`` rounds twice.
    """
    ratios = [float(x).as_integer_ratio() for x in marks]
    den = max(d for _, d in ratios)  # a power of 2, so every other d divides it
    nums = [a * (den // d) for a, d in ratios]
    n = len(nums)
    top = n * sum(a * a for a in nums) - sum(nums) ** 2
    bottom = n * (n - 1) * den * den
    # the integer root of top/bottom to at least 55 bits, rounded to odd (an inexact root
    # gets an odd last bit), then one int/int division rounds it to the nearest float,
    # subnormals too (math.ldexp would round those twice)
    k = max(0, (bottom.bit_length() - top.bit_length() + 110) // 2)
    top <<= 2 * k
    root = math.isqrt(top // bottom)
    root |= root * root * bottom != top
    return root / (1 << k)


def skewness(marks: Sequence[float]) -> float:
    """Adjusted Fisher-Pearson g1 of the sample."""
    n = len(marks)
    if n < 3:
        raise AnalysisError(f"skewness needs at least 3 samples, got {n}")
    mean = statistics.fmean(marks)
    s = _stdev(marks)
    if s == 0.0:
        raise AnalysisError("skewness is undefined for a constant sample")
    third = math.fsum(((x - mean) / s) ** 3 for x in marks)
    return n / ((n - 1) * (n - 2)) * third


def _classify_shape(g1: float) -> Shape:
    if g1 > SKEW_SHAPE_THRESHOLD:
        return Shape.RIGHT_SKEWED
    if g1 < -SKEW_SHAPE_THRESHOLD:
        return Shape.LEFT_SKEWED
    return Shape.APPROX_SYMMETRIC


def _histogram(marks: Sequence[float], bin_width: float) -> tuple[tuple[float, int], ...]:
    """Counts per bin [k*w, (k+1)*w), covering the data range contiguously."""
    lo = math.floor(min(marks) / bin_width)
    hi = math.floor(max(marks) / bin_width)
    counts = {k: 0 for k in range(lo, hi + 1)}
    for x in marks:
        counts[math.floor(x / bin_width)] += 1
    return tuple((k * bin_width, counts[k]) for k in range(lo, hi + 1))


def summarize(marks: Sequence[float], bin_width: float = 5) -> DistributionSummary:
    """Descriptive summary of marks in percent, with a binned histogram."""
    if not marks:
        raise DataError("cannot summarize an empty mark list")
    _check_bin_width(bin_width)
    for i, x in enumerate(marks):
        _check_mark(x, f"mark list, entry {i}")
    n = len(marks)
    stddev = _stdev(marks) if n >= 2 else None
    g1: float | None = None
    shape: Shape | None = None
    if n >= 3 and stddev:
        g1 = skewness(marks)
        shape = _classify_shape(g1)
    return DistributionSummary(
        n=n,
        mean=statistics.fmean(marks),
        median=statistics.median(marks),
        minimum=min(marks),
        maximum=max(marks),
        stddev=stddev,
        skew=g1,
        shape=shape,
        bin_width=bin_width,
        histogram=_histogram(marks, bin_width),
    )


def cluster_performance(
    p: Partition,
    marks: Mapping[int, float],
    high_t: float = 70.0,
    low_t: float = 60.0,
) -> list[ClusterPerformance]:
    """Mean mark and High/Average/Low class per cluster, by cluster id.

    A cluster is High when its mean clears ``high_t``, Low when it falls
    below ``low_t``.
    """
    _check_thresholds(high_t, low_t)
    _check_cover(p.assignment, marks, "mark")
    out: list[ClusterPerformance] = []
    for cid, members in enumerate(p.clusters()):
        mean = statistics.fmean([marks[node] for node in sorted(members)])
        if mean >= high_t:
            perf = PerfClass.HIGH
        elif mean < low_t:
            perf = PerfClass.LOW
        else:
            perf = PerfClass.AVERAGE
        out.append(
            ClusterPerformance(
                cluster=cid, members=tuple(sorted(members)), mean_mark=mean, perf=perf
            )
        )
    return out


def compare_groups(
    a: Sequence[float], b: Sequence[float], bin_width: float = 5
) -> GroupComparison:
    """Summaries of two mark lists plus their mean difference (a - b)."""
    if not a or not b:
        raise DataError("both groups need at least one mark")
    summary_a = summarize(a, bin_width)
    summary_b = summarize(b, bin_width)
    return GroupComparison(
        summary_a=summary_a,
        summary_b=summary_b,
        mean_difference=summary_a.mean - summary_b.mean,
    )
