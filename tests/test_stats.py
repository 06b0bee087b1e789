import math
import statistics
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortnet import (
    Partition,
    PerfClass,
    Shape,
    cluster_performance,
    compare_groups,
    generate_demo_cohort,
    skewness,
    stats,
    summarize,
)
from cohortnet.errors import AnalysisError, DataError, UsageError

from oracles import skewness_brute
from strategies import marks_lists


class TestSkewness:
    def test_symmetric_sample_is_zero(self):
        assert skewness([1, 2, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_outlier_sample(self):
        # direct formula evaluation gives exactly 2.0 for this sample
        assert skewness([1, 1, 1, 10]) == pytest.approx(2.0)

    def test_constant_sample(self):
        with pytest.raises(AnalysisError, match="skewness is undefined for a constant sample"):
            skewness([5, 5, 5])

    def test_too_few_samples(self):
        with pytest.raises(AnalysisError, match="skewness needs at least 3 samples, got 2"):
            skewness([1, 2])

    @settings(max_examples=60)
    @given(marks_lists)
    @example([0.0, 0.0, 1.192092896e-07])  # mirrored, a spread of 1.2e-7 at 100
    def test_reflection_flips_sign(self, marks):
        mirrored = [100 - x for x in marks]  # in [0, 100]; hi + lo - x can round past 100
        # stays inside the sample-skewness domain: n >= 3 and a stddev that
        # does not underflow to zero
        if len(marks) < 3 or statistics.stdev(marks) == 0 or statistics.stdev(mirrored) == 0:
            return
        assert skewness(mirrored) == pytest.approx(-skewness(marks), abs=1e-9)

    @settings(max_examples=60)
    @given(marks_lists)
    def test_matches_longhand_formula(self, marks):
        if len(marks) < 3 or statistics.stdev(marks) == 0:
            return
        assert skewness(marks) == pytest.approx(skewness_brute(marks), abs=1e-9)


class TestSummarize:
    def test_constant_marks(self):
        s = summarize([70, 70, 70, 70])
        assert s.mean == 70 and s.n == 4
        assert s.histogram == ((70.0, 4),)
        assert s.skew is None and s.shape is None  # zero variance

    def test_symmetric_marks(self):
        s = summarize([50, 60, 70, 80, 90])
        assert s.mean == pytest.approx(70.0)
        assert s.shape is Shape.APPROX_SYMMETRIC

    def test_left_skewed_sample(self):
        # oracle value for this sample: g1 = -0.6388185977113932
        s = summarize([40, 41, 42, 95, 96, 97, 98, 99])
        assert s.skew == pytest.approx(-0.6388185977113932, abs=1e-9)
        assert s.shape is Shape.LEFT_SKEWED

    def test_invalid_mark(self):
        with pytest.raises(DataError, match=r"mark 101 outside \[0, 100\]"):
            summarize([50, 101])

    def test_empty_refused(self):
        with pytest.raises(DataError, match="cannot summarize an empty mark list"):
            summarize([])

    def test_bin_width_below_one_is_usage_error(self):
        with pytest.raises(UsageError, match=r"^bin_width must be >= 1, got 0\.5$"):
            summarize([50], bin_width=0.5)

    def test_histogram_spans_range_contiguously(self):
        s = summarize([0, 12, 100], bin_width=10)
        lowers = [lb for lb, _ in s.histogram]
        assert lowers == [float(x) for x in range(0, 101, 10)]
        assert sum(c for _, c in s.histogram) == 3

    @pytest.mark.parametrize("marks", [[50, 60, 70], [40, 41, 42, 95, 96, 97, 98, 99]])
    def test_checks_each_mark_once(self, monkeypatch, marks):
        checked = []

        def counting_check(x, where):
            checked.append(where)
            return real_check(x, where)

        real_check = stats._check_mark
        monkeypatch.setattr(stats, "_check_mark", counting_check)
        assert summarize(marks).skew is not None
        assert checked == [f"mark list, entry {i}" for i in range(len(marks))]

    @settings(max_examples=60)
    @given(marks_lists)
    def test_permutation_invariant(self, marks):
        assert summarize(sorted(marks)) == summarize(list(reversed(sorted(marks))))

    @settings(max_examples=60)
    @given(marks_lists)
    def test_histogram_counts_sum_to_n(self, marks):
        for width in (1, 3, 5, 20):
            s = summarize(marks, bin_width=width)
            assert sum(c for _, c in s.histogram) == len(marks)


class TestStddev:
    @settings(max_examples=300)
    @given(st.one_of(
        st.lists(st.floats(0, 100), min_size=2, max_size=40),
        st.lists(st.integers(0, 100), min_size=2, max_size=40),
        st.lists(st.floats(0, 1e-300), min_size=2, max_size=10),  # subnormal results
        st.builds(lambda x, n: [x] * n, st.floats(0, 100), st.integers(2, 10)),
    ))
    @example([0.0, 5e-324])
    @example([0, 5e-324, 5e-324])
    def test_correctly_rounded(self, marks):
        s = summarize(marks).stddev
        xs = [Fraction(x) for x in marks]
        mean = sum(xs) / len(xs)
        variance = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        # s is the nearest float to the root: it lies between the midpoints to its neighbours
        low = max(Fraction(0), (Fraction(math.nextafter(s, -math.inf)) + Fraction(s)) / 2)
        high = (Fraction(s) + Fraction(math.nextafter(s, math.inf))) / 2
        assert low ** 2 <= variance <= high ** 2

    def test_demo_seed_1_is_pinned(self):
        # 11.784507677969463 with CPython 3.10's statistics.stdev, which rounds twice
        cohort, _ = generate_demo_cohort(1)
        marks = cohort.marks_for("s5")
        assert summarize([marks[v] for v in sorted(marks)]).stddev == 11.784507677969462


class TestClusterPerformance:
    def test_threshold_classes(self):
        p = Partition(assignment={1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}, k=3)
        marks = {1: 80, 2: 75, 3: 50, 4: 45, 5: 65, 6: 64}
        perfs = cluster_performance(p, marks)
        assert [c.perf for c in perfs] == [PerfClass.HIGH, PerfClass.LOW, PerfClass.AVERAGE]
        assert perfs[0].mean_mark == pytest.approx(77.5)

    def test_boundary_values(self):
        p = Partition(assignment={1: 0, 2: 1}, k=2)
        perfs = cluster_performance(p, {1: 70, 2: 60})
        assert perfs[0].perf is PerfClass.HIGH  # mean >= high_t
        assert perfs[1].perf is PerfClass.AVERAGE  # mean == low_t is not Low

    def test_missing_mark(self):
        p = Partition(assignment={1: 0, 2: 0}, k=1)
        with pytest.raises(DataError, match=r"^no mark for node\(s\) \[2\]$"):
            cluster_performance(p, {1: 50})

    def test_bad_thresholds(self):
        p = Partition(assignment={1: 0}, k=1)
        with pytest.raises(UsageError, match="need low_t < high_t, got 60 >= 60"):
            cluster_performance(p, {1: 50}, high_t=60, low_t=60)

    def test_order_independent_of_input_dict_order(self):
        a = Partition(assignment={1: 0, 2: 1, 3: 1}, k=2)
        b = Partition(assignment={3: 1, 2: 1, 1: 0}, k=2)
        marks = {1: 90, 2: 40, 3: 45}
        assert cluster_performance(a, marks) == cluster_performance(b, marks)


class TestCompareGroups:
    def test_identical_lists(self):
        cmp = compare_groups([60, 70], [60, 70])
        assert cmp.mean_difference == pytest.approx(0.0)

    def test_plus_twenty(self):
        cmp = compare_groups([80, 80], [60, 60])
        assert cmp.mean_difference == pytest.approx(20.0)

    def test_constructed_cohort_means(self):
        a = [62.0] * 10
        b = [70.8] * 10
        cmp = compare_groups(a, b)
        assert cmp.mean_difference == pytest.approx(-8.8)

    def test_empty_group_refused(self):
        with pytest.raises(DataError, match="both groups need at least one mark"):
            compare_groups([], [50])
