import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import DataError
from losslab.stats import (
    PairedOutcomes,
    ScoreTable,
    mcnemar_test,
    mean_rank,
    paired_t_test,
    pearson_r,
    regularized_beta,
    student_t_two_sided_p,
    token_density,
    _column_ranks,
)


def trapezoid(y, x):
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return float(0.5 * np.sum((y[1:] + y[:-1]) * np.diff(x)))


class TestSpecialFunctions:
    def test_beta_against_reference(self):
        for a in (0.5, 1.0, 2.0, 7.5):
            for b in (0.5, 1.0, 2.0, 7.5):
                for x in (0.0, 0.01, 0.3, 0.5, 0.9, 1.0):
                    ref = float(scipy.special.betainc(a, b, x))
                    assert regularized_beta(a, b, x) == pytest.approx(ref, abs=1e-10)

    def test_beta_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 41)
        vals = [regularized_beta(2.0, 3.0, float(x)) for x in xs]
        assert all(v2 >= v1 - 1e-15 for v1, v2 in zip(vals, vals[1:]))

    def test_student_t_p_against_reference(self):
        for df in (1, 2, 5, 30):
            for t in (0.0, 0.5, 2.0, 3.4641016151377544):
                ref = float(2.0 * scipy.stats.t.sf(abs(t), df))
                assert student_t_two_sided_p(t, df) == pytest.approx(ref, abs=1e-10)


def outcomes_from_counts(both, b, c, neither):
    a = [True] * both + [True] * b + [False] * c + [False] * neither
    bb = [True] * both + [False] * b + [True] * c + [False] * neither
    return PairedOutcomes(np.array(a), np.array(bb))


class TestMcNemar:
    def test_worked_example(self):
        result = mcnemar_test(outcomes_from_counts(40, 15, 5, 40))
        assert result.b == 15
        assert result.c == 5
        assert result.statistic == pytest.approx(4.05, abs=1e-9)
        assert result.p_value == pytest.approx(0.04417134490844242, abs=1e-4)
        assert result.method == "chi-square"

    def test_balanced_discordance(self):
        result = mcnemar_test(outcomes_from_counts(0, 10, 10, 0))
        assert result.statistic == pytest.approx(0.05, abs=1e-12)
        assert result.p_value > 0.5

    def test_exact_small_sample(self):
        result = mcnemar_test(outcomes_from_counts(5, 3, 1, 2))
        assert result.method == "exact-binomial"
        assert result.statistic is None
        ref = float(scipy.stats.binomtest(1, 4, 0.5).pvalue)
        assert result.p_value == pytest.approx(ref, abs=1e-12)
        assert result.p_value == pytest.approx(0.625, abs=1e-12)

    def test_exact_matches_reference_across_counts(self):
        for b in range(0, 6):
            for c in range(0, 6):
                if b + c == 0 or b + c >= 10:
                    continue
                result = mcnemar_test(outcomes_from_counts(1, b, c, 1))
                ref = float(scipy.stats.binomtest(min(b, c), b + c, 0.5).pvalue)
                assert result.p_value == pytest.approx(ref, abs=1e-12)

    def test_chi_square_matches_reference_across_counts(self):
        b, c = np.divmod(np.arange(301 * 301), 301)
        keep = b + c >= 10
        b, c = b[keep], c[keep]
        statistics = (np.abs(b - c) - 1.0) ** 2 / (b + c)
        refs = scipy.stats.chi2.sf(statistics, 1)
        for bi, ci, statistic, ref in zip(b.tolist(), c.tolist(), statistics, refs):
            discordant = np.arange(bi + ci)
            result = mcnemar_test(PairedOutcomes(discordant < bi, discordant >= bi))
            assert result.method == "chi-square"
            assert result.statistic == statistic
            if ref != 0.0:
                assert math.isclose(result.p_value, ref, rel_tol=1e-12), (bi, ci)

    def test_no_discordance_degenerates(self):
        result = mcnemar_test(outcomes_from_counts(7, 0, 0, 3))
        assert result.p_value == 1.0
        assert result.method == "degenerate"
        assert result.statistic is None

    def test_symmetry_under_system_swap(self):
        fwd = outcomes_from_counts(4, 12, 3, 4)
        rev = PairedOutcomes(fwd.b_correct, fwd.a_correct)
        assert mcnemar_test(fwd).p_value == pytest.approx(mcnemar_test(rev).p_value)

    def test_concordant_pairs_do_not_matter(self):
        lean = mcnemar_test(outcomes_from_counts(0, 15, 5, 0))
        padded = mcnemar_test(outcomes_from_counts(500, 15, 5, 500))
        assert lean.p_value == pytest.approx(padded.p_value, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="outcome vectors must be 1-d and equally long"):
            PairedOutcomes(np.array([True, False]), np.array([True]))
        with pytest.raises(DataError, match="outcome vectors must be nonempty"):
            PairedOutcomes(np.array([], dtype=bool), np.array([], dtype=bool))


class TestPairedT:
    def test_worked_example(self):
        result = paired_t_test([2.0, 4.0, 6.0], [1.0, 2.0, 3.0])
        assert result.statistic == pytest.approx(3.464101615137754, abs=1e-12)
        assert result.statistic == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
        assert result.p_value == pytest.approx(0.07417990022744857, abs=1e-12)
        assert result.df == 2
        assert not result.degenerate

    def test_identical_vectors_degenerate(self):
        result = paired_t_test([0.3, 0.5, 0.7], [0.3, 0.5, 0.7])
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.degenerate

    def test_constant_nonzero_shift_degenerate(self):
        result = paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
        assert math.isinf(result.statistic)
        assert result.statistic > 0
        assert result.p_value == 0.0
        assert result.degenerate

    def test_sign_convention(self):
        worse = paired_t_test([0.0, 1.0, 2.5], [1.0, 2.0, 3.0])
        assert worse.statistic < 0

    def test_too_short(self):
        with pytest.raises(DataError, match="paired t-test needs at least two pairs"):
            paired_t_test([1.0], [2.0])
        with pytest.raises(DataError, match="paired vectors must be 1-d and equally long"):
            paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_against_reference_random_vectors(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = rng.normal(size=n)
            y = x + rng.normal(scale=0.5, size=n)
            ours = paired_t_test(x, y)
            ref = scipy.stats.ttest_rel(x, y)
            assert ours.statistic == pytest.approx(float(ref.statistic), abs=1e-10)
            assert ours.p_value == pytest.approx(float(ref.pvalue), abs=1e-10)
            assert 0.0 <= ours.p_value <= 1.0


class TestPearson:
    def test_worked_example(self):
        r = pearson_r([1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert r == pytest.approx(0.9819805060619656, abs=1e-5)

    def test_perfect_correlation(self):
        assert pearson_r([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
        assert pearson_r([1.0, 2.0, 3.0], [-2.0, -4.0, -6.0]) == pytest.approx(-1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=25)
        y = rng.normal(size=25)
        base = pearson_r(x, y)
        assert pearson_r(3.0 * x + 7.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson_r(-2.0 * x + 1.0, y) == pytest.approx(-base, abs=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(DataError, match="correlation is undefined for a constant vector"):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_against_reference(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            x = rng.normal(size=12)
            y = rng.normal(size=12)
            ref = float(scipy.stats.pearsonr(x, y).statistic)
            assert pearson_r(x, y) == pytest.approx(ref, abs=1e-12)


class TestMeanRank:
    def test_worked_example(self):
        table = ScoreTable(
            row_names=("X", "Y", "Z"),
            col_names=("em", "es"),
            scores=np.array([[0.9, 0.2], [0.8, 0.1], [0.5, 0.4]]),
            higher_is_better=(True, False),
        )
        ranks = mean_rank(table)
        assert ranks == {"X": 1.5, "Y": 1.5, "Z": 3.0}

    def test_tied_scores_share_average_rank(self):
        table = ScoreTable(
            row_names=("A", "B", "C"),
            col_names=("m",),
            scores=np.array([[0.5], [0.5], [0.1]]),
            higher_is_better=(True,),
        )
        ranks = mean_rank(table)
        assert ranks["A"] == ranks["B"] == 1.5
        assert ranks["C"] == 3.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(34)
        scores = rng.uniform(size=(5, 3))
        table = ScoreTable(
            row_names=tuple("abcde"),
            col_names=("x", "y", "z"),
            scores=scores,
            higher_is_better=(True, False, True),
        )
        warped = ScoreTable(
            row_names=tuple("abcde"),
            col_names=("x", "y", "z"),
            scores=np.exp(3.0 * scores),
            higher_is_better=(True, False, True),
        )
        assert mean_rank(table) == mean_rank(warped)

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0]),
                st.floats(-1e6, 1e6, allow_subnormal=True),
            ),
            min_size=1,
            max_size=40,
        ),
        higher_is_better=st.booleans(),
    )
    def test_column_ranks_match_average_rankdata(self, scores, higher_is_better):
        scores = np.array(scores)
        ranks = _column_ranks(scores, higher_is_better)
        keyed = -scores if higher_is_better else scores
        expected = scipy.stats.rankdata(keyed, method="average")
        assert ranks.dtype == expected.dtype == np.float64
        assert np.array_equal(ranks, expected)

    def test_direction_flag_flips_order(self):
        table_hi = ScoreTable(("A", "B"), ("m",), np.array([[2.0], [1.0]]), (True,))
        table_lo = ScoreTable(("A", "B"), ("m",), np.array([[2.0], [1.0]]), (False,))
        assert mean_rank(table_hi) == {"A": 1.0, "B": 2.0}
        assert mean_rank(table_lo) == {"A": 2.0, "B": 1.0}

    def test_shape_validation(self):
        with pytest.raises(DataError, match="score matrix shape must match row/column names"):
            ScoreTable(("A",), ("m", "n"), np.array([[1.0]]), (True, True))
        with pytest.raises(DataError, match="one direction flag per column is required"):
            ScoreTable(("A",), ("m",), np.array([[1.0]]), (True, False))


class TestTokenDensity:
    def test_uniform_stream_is_nearly_flat(self):
        ids = np.repeat(np.arange(64), 16)
        profile = token_density(ids)
        ratio = float(profile.density.max() / profile.density.min())
        assert ratio < 1.5

    def test_unit_mass(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            ids = rng.integers(0, 50, size=400)
            profile = token_density(ids)
            mass = trapezoid(profile.density, profile.ids.astype(np.float64))
            assert mass == pytest.approx(1.0, abs=1e-2)

    def test_concentration_peaks_at_mode(self):
        ids = np.array([10] * 90 + [3, 17, 24, 31] * 2)
        profile = token_density(ids)
        peak = int(profile.ids[np.argmax(profile.density)])
        assert peak == 10

    def test_single_id_stream(self):
        profile = token_density([7, 7, 7])
        assert profile.ids.tolist() == [7]
        assert profile.bandwidth == 1.0
        assert profile.histogram.tolist() == [3.0]
        assert profile.n == 3

    def test_histogram_counts(self):
        profile = token_density([2, 2, 5, 9])
        assert profile.ids.tolist() == list(range(2, 10))
        assert profile.histogram.tolist() == [2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]

    def test_log_density_consistent(self):
        profile = token_density(np.repeat(np.arange(8), 5))
        assert np.allclose(profile.log_density, np.log(profile.density))

    @pytest.mark.parametrize("ids, bandwidth", [([5], 1e308), ([5, 5], 1.7e308), ([0, 100], 1.0)])
    def test_log_density_is_exact_where_the_density_is_positive(self, ids, bandwidth):
        # each case holds subnormal densities; [0, 100] also holds zeros
        profile = token_density(ids, bandwidth)
        positive = profile.density > 0.0
        assert (profile.density[positive] < sys.float_info.min).any()
        np.testing.assert_allclose(
            np.exp(profile.log_density[positive]), profile.density[positive], rtol=1e-12, atol=0
        )
        assert (profile.log_density[~positive] == math.log(1e-300)).all()

    def test_explicit_bandwidth(self):
        profile = token_density([1, 2, 3, 4], bandwidth=2.5)
        assert profile.bandwidth == 2.5
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                token_density([1, 2, 3], bandwidth=bad)

    def test_tiny_bandwidth_is_a_histogram_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # (d / h)^2 overflows to inf: a kernel of 0
            profile = token_density([0, 1, 1, 5], bandwidth=1e-300)
        assert profile.density.tolist() == [1 / 3, 2 / 3, 0.0, 0.0, 0.0, 1 / 3]

    @pytest.mark.parametrize(
        "bandwidth", [5e-324, 1e-320, 1e-308, 1e306, 1e308, 1.7976931348623157e308]
    )
    def test_extreme_bandwidth_gives_finite_densities_of_mass_1(self, bandwidth):
        # the density's scale 1 / (n h sqrt(2 pi)) over- or underflows here
        ids = np.random.default_rng(38).integers(0, 8000, size=20_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            density = token_density(ids, bandwidth).density
        assert np.isfinite(density).all()
        assert 0.5 * np.sum(density[1:] + density[:-1]) == pytest.approx(1.0)

    @pytest.mark.parametrize("ids", [[5], [5, 5]])
    @pytest.mark.parametrize("bandwidth", [7.2e307, 1e308, 1.7e308, sys.float_info.max])
    def test_single_id_keeps_its_density_at_a_huge_bandwidth(self, ids, bandwidth):
        # n h sqrt(2 pi) overflows here, though the density 3 / (h sqrt(2 pi))
        # of one id (its own kernel and both mirrors) is a positive float
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile = token_density(ids, bandwidth)
        expected = 3.0 / math.sqrt(2.0 * math.pi) / bandwidth
        assert profile.density.tolist() == [expected]
        assert expected > 0.0
        assert np.isfinite(profile.log_density).all()

    @pytest.mark.parametrize("n, bandwidth", [(1, 1e10), (1, 7.1e307), (2, 1e300), (2, 3.5e307)])
    def test_single_id_density_below_the_overflow_is_one_quotient(self, n, bandwidth):
        density = token_density([5] * n, bandwidth).density
        assert density.tolist() == [3.0 * n / (n * bandwidth * math.sqrt(2.0 * math.pi))]

    def test_single_id_with_too_small_a_bandwidth_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="bandwidth 1e-310 is too small"):
                token_density([5], 1e-310)

    def test_empty_stream_rejected(self):
        with pytest.raises(DataError, match="token stream is empty"):
            token_density([])

    def test_deterministic(self):
        ids = np.random.default_rng(36).integers(0, 30, size=200)
        a = token_density(ids)
        b = token_density(ids)
        assert np.array_equal(a.density, b.density)
        assert a.bandwidth == b.bandwidth

    def test_peak_memory_is_linear_in_the_id_range(self):
        ids = np.random.default_rng(37).integers(0, 4000, size=20_000)
        ids[:2] = (0, 3999)
        tracemalloc.start()
        try:
            profile = token_density(ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.ids.size == 4000
        assert peak < 2 * 2**20


def gram_token_density(token_ids, bandwidth="scott"):
    """Reference density: the direct and both reflected kernel sums, each built
    as a G x G matrix over the id grid (O(G^2) memory)."""
    ids = np.asarray(token_ids, dtype=np.int64).ravel()
    n = ids.size
    lo, hi = int(ids.min()), int(ids.max())
    grid = np.arange(lo, hi + 1, dtype=np.float64)
    counts = np.bincount(ids - lo, minlength=hi - lo + 1).astype(np.float64)
    if bandwidth == "scott":
        h = (float(ids.std(ddof=1)) if n > 1 else 0.0) * n ** (-1.0 / 5.0)
        if not (h > 0.0):
            h = 1.0
    else:
        h = float(bandwidth)

    def kernel_sum(points):
        z = (grid[:, None] - points[None, :]) / h
        return (np.exp(-0.5 * z * z) * counts[None, :]).sum(axis=1)

    left, right = lo - 0.5, hi + 0.5
    total = kernel_sum(grid) + kernel_sum(2.0 * left - grid) + kernel_sum(2.0 * right - grid)
    density = total / (n * h * math.sqrt(2.0 * math.pi))
    if grid.size > 1:
        mass = trapezoid(density, grid)
        if mass > 0.0:
            density = density / mass
    return grid.astype(np.int64), density, counts, h, n


@st.composite
def token_streams(draw):
    """Id streams on grids 1 to 400 ids wide, negative ids included; both
    ends always occur, so a bare pair is two ids far apart, and one drawn id
    may repeat hundreds of times."""
    lo = draw(st.integers(-1000, 1000))
    hi = lo + draw(st.integers(0, 399))
    ids = [lo, hi] + draw(st.lists(st.integers(lo, hi), max_size=40))
    ids += [draw(st.sampled_from(ids))] * draw(st.integers(0, 500))
    return ids


@settings(max_examples=200, deadline=None)
@given(
    ids=token_streams(),
    bandwidth=st.one_of(st.just("scott"), st.floats(0.05, 1e4)),
)
def test_token_density_matches_gram_reference(ids, bandwidth):
    profile = token_density(ids, bandwidth)
    grid, density, counts, h, n = gram_token_density(ids, bandwidth)
    assert np.array_equal(profile.ids, grid)
    assert np.array_equal(profile.histogram, counts)
    assert profile.bandwidth == h
    assert profile.n == n
    assert np.all(np.abs(profile.density - density) <= 1e-12 * density)
    shown = density > 1e-300
    assert np.all(np.abs(profile.log_density[shown] - np.log(density[shown])) <= 1e-9)
    if grid.size > 1:
        assert abs(trapezoid(profile.density, grid) - 1.0) <= 1e-12
