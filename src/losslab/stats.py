"""Statistical comparisons between evaluation runs, self-contained.

McNemar's chi-square(1) tail comes from ``math.erfc``; only the Student t
tail is a continued fraction, of the regularized incomplete beta function
(the classical numerical recipe), so no statistics library is required at
runtime. Includes McNemar's test with continuity correction (exact binomial
fallback for small discordant counts), the paired two-sided t-test, Pearson
correlation, mean-rank summaries with average-rank ties, and a Gaussian
kernel density over token ids (one convolution, O(G) memory over G ids) for
frequency diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import DataError

_MAX_ITER = 500
_EPS = 1e-15
_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def regularized_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value of a Student t statistic."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    return regularized_beta(df / 2.0, 0.5, df / (df + t * t))


@dataclass
class PairedOutcomes:
    """Per-sample correctness of two systems on the same samples."""

    a_correct: np.ndarray
    b_correct: np.ndarray

    def __post_init__(self) -> None:
        self.a_correct = np.asarray(self.a_correct, dtype=bool)
        self.b_correct = np.asarray(self.b_correct, dtype=bool)
        if self.a_correct.shape != self.b_correct.shape or self.a_correct.ndim != 1:
            raise DataError("outcome vectors must be 1-d and equally long")
        if self.a_correct.size == 0:
            raise DataError("outcome vectors must be nonempty")


@dataclass
class McNemarResult:
    b: int
    c: int
    statistic: float | None
    p_value: float
    method: str


EXACT_THRESHOLD = 10


def mcnemar_test(outcomes: PairedOutcomes) -> McNemarResult:
    """McNemar's test on paired correctness with continuity correction.

    b counts samples only the first system got right, c the converse. With
    b + c >= 10 the statistic (|b - c| - 1)^2 / (b + c) is referred to
    chi-square with one degree of freedom; below that an exact two-sided
    binomial(b + c, 1/2) test is used (doubled smaller tail, capped at 1).
    b + c == 0 degenerates to p = 1.
    """
    b = int(np.sum(outcomes.a_correct & ~outcomes.b_correct))
    c = int(np.sum(~outcomes.a_correct & outcomes.b_correct))
    n = b + c
    if n == 0:
        return McNemarResult(b, c, None, 1.0, "degenerate")
    if n < EXACT_THRESHOLD:
        k = min(b, c)
        tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n
        return McNemarResult(b, c, None, min(1.0, 2.0 * tail), "exact-binomial")
    statistic = (abs(b - c) - 1.0) ** 2 / n
    # chi-square(1) tail: Q(1/2, x/2) = erfc(sqrt(x/2))
    return McNemarResult(b, c, statistic, math.erfc(math.sqrt(statistic / 2.0)), "chi-square")


@dataclass
class TTestResult:
    statistic: float
    p_value: float
    df: int
    degenerate: bool = False


def paired_t_test(x: Sequence[float], y: Sequence[float]) -> TTestResult:
    """Two-sided paired t-test on matched score vectors.

    Zero-variance differences degenerate: p = 1 when the mean difference is
    zero too, else p = 0 with an infinite statistic.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("paired vectors must be 1-d and equally long")
    n = x.size
    if n < 2:
        raise DataError("paired t-test needs at least two pairs")
    d = x - y
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, df, degenerate=True)
        return TTestResult(math.copysign(math.inf, mean), 0.0, df, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t, student_t_two_sided_p(t, df), df)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equally long vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("vectors must be 1-d and equally long")
    if x.size < 2:
        raise DataError("correlation needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise DataError("correlation is undefined for a constant vector")
    return float(np.dot(dx, dy) / math.sqrt(sxx * syy))


@dataclass
class ScoreTable:
    """Rows are systems, columns are score sets with a direction flag each."""

    row_names: tuple[str, ...]
    col_names: tuple[str, ...]
    scores: np.ndarray
    higher_is_better: tuple[bool, ...]

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.row_names), len(self.col_names)):
            raise DataError("score matrix shape must match row/column names")
        if len(self.higher_is_better) != len(self.col_names):
            raise DataError("one direction flag per column is required")


def _column_ranks(scores: np.ndarray, higher_is_better: bool) -> np.ndarray:
    """Ranks with 1 = best; tied scores share the average of their ranks."""
    keyed = -scores if higher_is_better else scores
    _, inverse, sizes = np.unique(keyed, return_inverse=True, return_counts=True)
    return (np.cumsum(sizes) - (sizes - 1) / 2.0)[inverse]


def mean_rank(table: ScoreTable) -> dict[str, float]:
    """Average per-column rank of each row (rank 1 = best in a column)."""
    all_ranks = np.column_stack(
        [
            _column_ranks(table.scores[:, c], table.higher_is_better[c])
            for c in range(len(table.col_names))
        ]
    )
    means = all_ranks.mean(axis=1)
    return {name: float(means[i]) for i, name in enumerate(table.row_names)}


@dataclass
class TokenDensity:
    """Gaussian KDE over integer token ids, with the raw histogram."""

    ids: np.ndarray
    density: np.ndarray
    log_density: np.ndarray
    histogram: np.ndarray
    bandwidth: float
    n: int


def token_density(
    token_ids: Sequence[int], bandwidth: float | str = "scott"
) -> TokenDensity:
    """Smoothed frequency profile of a token id stream.

    The kernel estimate is evaluated on every integer id between the observed
    minimum and maximum, with mass reflected at the range boundaries and the
    result renormalized so its trapezoid integral over the grid is exactly 1.
    Bandwidth follows Scott's rule (std * n^(-1/5)) unless a positive finite
    number is given; a degenerate single-id stream falls back to bandwidth 1.
    At the float extremes of the bandwidth the kernel's 1 / (n h sqrt(2 pi))
    scale over- or underflows; it cancels in the renormalization, so the
    density is still finite, but a single id's density is that scale: it
    stays positive at any bandwidth, and a bandwidth too small for it to be
    finite is a DataError.
    The mass reflected at ``lo - 0.5`` and ``hi + 0.5`` is the histogram
    mirrored past each edge, so the sum is one direct convolution of the
    kernel with the mirrored histogram: O(G) memory and O(G^2) time over G
    ids. (An FFT's rounding, ~1e-16 of the peak, would swamp the far tail.)
    """
    ids = np.asarray(token_ids, dtype=np.int64).ravel()
    if ids.size == 0:
        raise DataError("token stream is empty")
    n = ids.size
    lo, hi = int(ids.min()), int(ids.max())
    g = hi - lo + 1
    offset_counts = np.bincount(ids - lo, minlength=g).astype(np.float64)

    if bandwidth == "scott":
        sigma = float(ids.std(ddof=1)) if n > 1 else 0.0
        h = sigma * n ** (-1.0 / 5.0)
        if not (h > 0.0):
            h = 1.0
    else:
        h = float(bandwidth)
        if not (h > 0.0 and math.isfinite(h)):
            raise ValueError("bandwidth must be a positive finite number")

    # mirrored[p] sits at offset p - g; output a takes kernel(a + g - p)
    mirrored = np.concatenate([offset_counts[::-1], offset_counts, offset_counts[::-1]])
    # An extreme bandwidth overflows: a tiny one makes z, and so z^2, inf (a
    # kernel of exactly 0 off the centre) and the density inf; a huge one
    # makes n h sqrt(2 pi) inf and the density 0, which one id, having no
    # renormalization, divides out one factor at a time instead.
    with np.errstate(over="ignore"):
        z = np.arange(-(2 * g - 1), 2 * g, dtype=np.float64) / h
        kernel = np.exp(-0.5 * z * z)
        total = np.convolve(kernel, mirrored, mode="valid")
        density = total / (n * h * math.sqrt(2.0 * math.pi))
        if g > 1:
            mass = float(0.5 * np.sum(density[1:] + density[:-1]))
            if not 0.0 < mass < math.inf:  # the scale over- or underflowed; it cancels here
                density, mass = total, float(0.5 * np.sum(total[1:] + total[:-1]))
            density = density / mass
        elif density[0] == 0.0:
            density = total / n / math.sqrt(2.0 * math.pi) / h
    if not math.isfinite(density[0]):  # one id, whose density 1 / (h sqrt(2 pi)) overflows
        raise DataError(f"bandwidth {h!r} is too small for a finite density at one id")
    # the exact log of every positive density, subnormal ones too; only a
    # density that underflowed to 0 reads log(1e-300)
    log_density = np.log(np.where(density > 0.0, density, _TINY))
    grid = np.arange(lo, hi + 1, dtype=np.int64)
    return TokenDensity(grid, density, log_density, offset_counts, h, n)
