"""Loss functions over per-position vocabulary logits, with analytic gradients.

The family covers token-level losses (cross-entropy, focal) and region losses
borrowed from segmentation (soft Dice, self-adjusting Dice, generalized Dice,
Lovász) applied per vocabulary class over a selected set of sequence positions.
A convex combination mixes cross-entropy over instruction and answer positions
with one auxiliary loss restricted to answer positions.

Conventions shared by every loss here:

* arithmetic is float64 end to end;
* probabilities come from a row softmax of the logits and are clamped to
  [1e-12, 1] before any log;
* PAD positions are never selected and contribute exactly zero to values and
  gradients;
* token losses (cross-entropy, focal) take the mean over selected positions;
  region losses are global scalars by construction and take no reduction;
* every public loss returns a ``LossResult`` whose gradient has the same shape
  as the input logits and is built the first time it is read;
* every public loss also takes ``probs``, the softmax of its selected rows
  computed by the caller, as its own buffer; its gradient then covers those
  rows only. The loss reads the buffer and writes it only when its gradient
  is built. This is how :func:`combined_loss` runs one softmax for both of
  its branches, and how a gradient check recomputes only the row it
  perturbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache, partial
from typing import Callable, Iterable

import numpy as np

from . import AuxiliaryKind, DataError

PROB_FLOOR = 1e-12


class Role(IntEnum):
    """Position roles inside a training batch."""

    INSTRUCTION = 0
    ANSWER = 1
    PAD = 2


FULL_CONTEXT = (Role.INSTRUCTION, Role.ANSWER)
ANSWER_ONLY = (Role.ANSWER,)
# Role values as plain ints, for comparing with role masks: NumPy compares an
# array with an int several times faster than with an IntEnum member
_ANSWER, _PAD = int(Role.ANSWER), int(Role.PAD)


class NonFiniteLogits(DataError):
    """A logit row holds NaN or +inf, or only -inf."""


@dataclass
class LogitBatch:
    """One flat batch of per-position logits with targets and roles.

    ``logits`` is (positions, vocabulary) float64, ``targets`` holds the gold
    token index per position, and ``role_mask`` assigns each position a
    :class:`Role`. At least one position must be non-PAD.
    """

    logits: np.ndarray
    targets: np.ndarray
    role_mask: np.ndarray

    def __post_init__(self) -> None:
        # row-major, so that a row reduction sums in the same order whether it
        # reads these rows or a copy of some of them
        self.logits = np.ascontiguousarray(self.logits, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.intp)
        self.role_mask = np.asarray(self.role_mask, dtype=np.intp)
        if self.logits.ndim != 2:
            raise DataError("logits must be 2-d (positions, vocabulary)")
        n, vocab = self.logits.shape
        if vocab < 2:
            raise DataError("vocabulary size must be at least 2")
        if self.targets.shape != (n,) or self.role_mask.shape != (n,):
            raise DataError("targets and role_mask must be 1-d of length len(logits)")
        # NaN and +inf propagate into the row maximum; an all -inf row has maximum -inf
        finite_max = np.isfinite(self.logits.max(axis=1))
        if not finite_max.all():
            raise NonFiniteLogits(f"logits row {finite_max.argmin()} has NaN, +inf or only -inf")
        if self.targets.min(initial=0) < 0 or self.targets.max(initial=0) >= vocab:
            raise DataError("every target index must be in [0, vocabulary)")
        if self.role_mask.min(initial=0) < 0 or self.role_mask.max(initial=0) > _PAD:
            raise DataError("role_mask entries must be Role values")
        if not (self.role_mask != _PAD).any():
            raise DataError("batch must contain at least one non-PAD position")


@dataclass
class LossConfig:
    """Configuration for the combined objective.

    ``mix`` is the cross-entropy weight (written as lambda in most loss-mixing
    formulations); the auxiliary loss gets 1 - mix and only ever sees answer
    positions.
    """

    mix: float = 0.6
    gamma: float = 2.0
    auxiliary_kind: AuxiliaryKind = AuxiliaryKind.NONE

    def __post_init__(self) -> None:
        if not 0.0 <= self.mix <= 1.0:
            raise DataError(f"mix must lie in [0, 1], got {self.mix}")
        _check_gamma(self.gamma)


def _check_gamma(gamma: float) -> None:
    if not 0.0 <= gamma < math.inf:
        raise DataError(f"gamma must be a finite number >= 0, got {gamma}")


@dataclass
class LossResult:
    """Scalar loss value and its gradient with respect to the logits.

    The loss computes ``value`` when it is called; ``backward`` builds the
    gradient (of the selected rows only, if the loss was given their softmax
    as ``probs``) the first time ``gradient`` is read, so a caller that reads
    only the value never pays for the backward. A backward may turn the
    forward's buffers into the gradient in place, so it runs at most once:
    every later read, also of a copy made with ``dataclasses.replace``,
    returns the same array, and the forward's other buffers are released. A
    backward depends on no array of the batch, so the caller may change the
    batch before reading the gradient.
    """

    value: float
    backward: Callable[[], np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        self.backward = _once(self.backward)

    @property
    def gradient(self) -> np.ndarray:
        return self.backward()


def _once(build: Callable[[], np.ndarray]) -> Callable[[], np.ndarray]:
    """``build`` as a function that calls it on first use only, then drops it
    and returns that first result."""
    built = None

    def once() -> np.ndarray:
        nonlocal build, built
        if build is not None:
            built, build = build(), None
        return built

    return once


@lru_cache(maxsize=16)
def _role_table(roles: tuple[Role, ...]) -> np.ndarray:
    """Read-only lookup table, indexed by role, of the roles named in ``roles``."""
    chosen = np.zeros(len(Role), dtype=bool)
    chosen[[int(r) for r in roles]] = True
    chosen.flags.writeable = False
    return chosen


def _selected(batch: LogitBatch, roles: Iterable[Role]) -> np.ndarray:
    roles = tuple(roles)
    if Role.PAD in roles:
        raise DataError("PAD positions are never selectable")
    if not roles:
        raise DataError("role filter must name at least one role")
    idx = _role_table(roles)[batch.role_mask].nonzero()[0]
    if idx.size == 0:
        raise DataError(f"no positions with roles {tuple(r.name for r in roles)}")
    return idx


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax in float64, stable under large logits, in ``out`` (of the
    shape of ``logits``) or one fresh buffer. Each row's softmax reads that
    row alone: it has the same bits whatever rows are computed with it."""
    e = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _softmax_rows(batch: LogitBatch, idx: np.ndarray) -> np.ndarray:
    """Softmax of the batch's rows ``idx``, read in place when they are every row."""
    logits = batch.logits
    return softmax(logits if idx.size == logits.shape[0] else logits[idx])


def _scatter(shape: tuple[int, int] | None, idx: np.ndarray, grad_sel: np.ndarray) -> np.ndarray:
    """The gradient of a ``shape`` batch whose rows ``idx`` have gradient ``grad_sel``.

    ``idx`` is sorted and unique, so when it covers every row ``grad_sel``
    already is that gradient and is returned as it is; so it is when
    ``shape`` is None, the gradient of a loss asked for its rows only.
    """
    if shape is None or idx.size == shape[0]:
        return grad_sel
    grad = np.zeros(shape)
    grad[idx] = grad_sel
    return grad


# A term maps the selected rows' (softmax, targets), or a region loss's (class
# columns, one-hot targets), to the value and a function that builds the
# gradient, or d(value)/dp, on first use.
TermResult = tuple[float, Callable[[], np.ndarray]]
Term = Callable[[np.ndarray, np.ndarray], TermResult]


def _softmax_loss(
    batch: LogitBatch, roles: Iterable[Role], probs: np.ndarray | None, term: Term
) -> LossResult:
    """The path of every loss here: select the rows of ``roles``, take the
    caller's softmax of them or run one, score them with ``term``, and
    scatter their gradient unless the caller gave ``probs``."""
    idx = _selected(batch, roles)
    shape = None
    if probs is None:
        shape, probs = batch.logits.shape, _softmax_rows(batch, idx)
    value, backward = term(probs, batch.targets[idx])
    return LossResult(value, lambda: _scatter(shape, idx, backward()))


def _softmax_backward(
    probs: np.ndarray, columns: tuple, p: np.ndarray, dp: np.ndarray
) -> np.ndarray:
    """The softmax backward p * (dp - inner), inner = sum(dp * p) per row, where
    d(value)/dp is ``dp`` at ``probs[columns]`` (which hold ``p``, one row per
    softmax row) and 0 elsewhere. So ``inner`` sums over those columns alone,
    and ``probs`` becomes the gradient in place."""
    inner = (dp * p).sum(axis=1, keepdims=True)
    probs *= 0.0 - inner
    probs[columns] = p * (dp - inner)
    return probs


def _ce_term(probs: np.ndarray, targets: np.ndarray) -> TermResult:
    rows = np.arange(targets.size)
    p_t = probs[rows, targets]
    values = -np.log(np.clip(p_t, PROB_FLOOR, 1.0))
    scale = 1.0 / targets.size

    def backward() -> np.ndarray:
        grad_sel = probs  # p_t above is a copy, so the softmax becomes the gradient
        grad_sel[rows, targets] -= 1.0
        grad_sel *= scale
        return grad_sel

    return float(values.sum() * scale), backward


def ce_loss(
    batch: LogitBatch, roles: Iterable[Role] = FULL_CONTEXT, *, probs: np.ndarray | None = None
) -> LossResult:
    """Cross-entropy -log p_target, averaged over the selected positions."""
    return _softmax_loss(batch, roles, probs, _ce_term)


def focal_loss(
    batch: LogitBatch,
    gamma: float = LossConfig.gamma,
    roles: Iterable[Role] = FULL_CONTEXT,
    *,
    probs: np.ndarray | None = None,
) -> LossResult:
    """Focal loss -(1 - p_t)^gamma log p_t, averaged over the selected positions.

    gamma = 0 falls through to :func:`ce_loss` so the reduction is exact to
    floating rounding, not merely close. Only the target column carries
    d(value)/dp.
    """
    _check_gamma(gamma)
    if gamma == 0.0:
        return ce_loss(batch, roles, probs=probs)

    def term(probs: np.ndarray, targets: np.ndarray) -> TermResult:
        rows = np.arange(targets.size)
        p_t = probs[rows, targets]
        p_c = np.clip(p_t, PROB_FLOOR, 1.0)
        log_pt = np.log(p_c)
        miss = 1.0 - p_t
        values = -(miss**gamma) * log_pt
        scale = 1.0 / targets.size

        def backward() -> np.ndarray:
            # d/dp of -(1-p)^g log p; the g*(1-p)^(g-1)*log p term tends to 0 as
            # p -> 1 for every g > 0, so the miss == 0 branch is the exact limit.
            dv_dp = np.zeros_like(p_t)
            hit = miss > 0.0
            dv_dp[hit] = (
                gamma * miss[hit] ** (gamma - 1.0) * log_pt[hit] - (miss[hit] ** gamma) / p_c[hit]
            )
            dv_dp *= scale
            # as (n, 1) columns, one per softmax row
            column = rows[:, None], targets[:, None]
            return _softmax_backward(probs, column, p_t[:, None], dv_dp[:, None])

        return float(values.sum() * scale), backward

    return _softmax_loss(batch, roles, probs, term)


def _class_columns(probs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The classes present in ``targets``, ascending, their ``probs`` columns
    and their one-hot targets."""
    classes = np.bincount(targets).nonzero()[0]
    return classes, probs[:, classes], (targets[:, None] == classes).astype(np.float64)


def _region_term(term: Term, probs: np.ndarray, targets: np.ndarray) -> TermResult:
    """A region loss's ``term(p, y)`` as the :data:`Term` of the selected rows.

    ``p`` are the columns of the classes present in the targets, ``y`` their
    one-hot targets; only these columns carry d(value)/dp.
    """
    classes, p, y = _class_columns(probs, targets)
    value, dp = term(p, y)
    return float(value), lambda: _softmax_backward(probs, (slice(None), classes), p, dp())


def _dice_term(p: np.ndarray, y: np.ndarray) -> TermResult:
    num = 2.0 * (p * y).sum(axis=0)
    den = (p * p).sum(axis=0) + y.sum(axis=0)
    terms = 1.0 - num / den
    return terms.sum() / terms.size, lambda: -(2.0 * y * den - 2.0 * p * num) / den**2 / terms.size


def _self_adjusting_dice_term(p: np.ndarray, y: np.ndarray) -> TermResult:
    w = (1.0 - p) * p
    num = 2.0 * (w * y).sum(axis=0)
    den = (w + y).sum(axis=0)
    terms = 1.0 - num / den

    def backward() -> np.ndarray:
        dnum = 2.0 * (1.0 - 2.0 * p) * y
        dden = 1.0 - 2.0 * p
        return -(dnum * den - num * dden) / den**2 / terms.size

    return terms.sum() / terms.size, backward


def _generalized_dice_term(p: np.ndarray, y: np.ndarray) -> TermResult:
    volume = y.sum(axis=0)
    weights = 1.0 / volume**2
    num = 2.0 * float((weights * (p * y).sum(axis=0)).sum())
    den = float((weights * (p + y).sum(axis=0)).sum())
    return 1.0 - num / den, lambda: -(2.0 * weights * y * den - num * weights) / den**2


def _lovasz_errors(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Lovász class errors: 1 - p where the target is the column's class, else p."""
    return np.where(y > 0, 1.0 - p, p)


# A Lovász matrix of at most this many entries sorts its whole columns: below
# about 700 entries that is faster than finding each column's prefix first.
_LOVASZ_FULL_SORT_MAX = 768


def _lovasz_softmax_term(p: np.ndarray, y: np.ndarray) -> TermResult:
    """The per-class term of :func:`lovasz_loss`, averaged over the columns.

    A large matrix sorts only each column's prefix that can carry weight
    (:func:`_lovasz_prefix`), a small one its whole columns. Both give the
    same bits: past the prefix every weight is exactly 0.
    """
    n, k = p.shape
    if n * k > _LOVASZ_FULL_SORT_MAX:
        terms, entries, weights, gt = _lovasz_prefix(p, y)
    else:
        errors = _lovasz_errors(p, y)
        entries = (-errors).argsort(axis=0, kind="stable"), np.arange(k)
        gt = y[entries]
        weights = _jaccard_weights(gt)
        terms = (errors[entries] * weights).sum(axis=0)

    def backward() -> np.ndarray:
        dp = np.zeros((n, k))
        dp[entries] = weights * (1.0 - 2.0 * gt) / k
        return dp

    return terms.sum() / k, backward


def _lovasz_prefix(p: np.ndarray, y: np.ndarray) -> tuple:
    """The Lovász column sums from each column's sorted prefix alone.

    Past a column's last foreground entry the Jaccard weights are exactly
    0, so only the entries whose error is at least the column's smallest
    foreground error t_c can carry weight. Those with error t_c that sort
    after the last foreground entry get weight 0 as well, so taking them
    all keeps the prefix and its stable order. Every column must hold a
    foreground entry, as each present class's does. Returns the sums, then
    the (rows, columns) of the prefix entries in sorted order, their
    weights and their targets.
    """
    n, k = p.shape
    rows = np.arange(n)
    fg = y.argmax(axis=1)  # each row's one foreground column
    t = np.full(k, np.inf)
    np.minimum.at(t, fg, 1.0 - p[rows, fg])
    # Class-major, so that the entries come grouped by class and in row
    # order. A background error is p itself, and every foreground entry
    # is in its prefix.
    active = p.T >= t[:, None]
    active[fg, rows] = True
    cols, rows = np.divmod(active.ravel().nonzero()[0], n)
    errors = p[rows, cols]
    gt = fg[rows] == cols
    errors[gt] = 1.0 - errors[gt]
    order = np.lexsort((-errors, cols))  # stable, so ties keep row order
    rows, cols, errors, gt = rows[order], cols[order], errors[order], gt[order]
    # Per class: each entry's rank and the foreground entries up to it.
    # They are whole numbers, so this is _jaccard_weights's arithmetic bit
    # for bit, with each class's first weight its Jaccard value.
    counts = np.bincount(cols, minlength=k)
    starts = counts.cumsum() - counts
    rank = np.arange(cols.size) - starts[cols]
    fg_seen = gt.cumsum()
    fg_seen -= (fg_seen - gt)[starts][cols]  # less those of earlier classes
    bg_seen = rank + 1 - fg_seen
    total = np.bincount(fg, minlength=k)[cols]
    jaccard = 1.0 - (total - fg_seen) / (total + bg_seen)
    weights = jaccard.copy()
    weights[1:] -= jaccard[:-1]
    weights[starts] = jaccard[starts]
    # Column c holds class c's products in sorted order, then zeros. NumPy
    # sums two or more columns row by row, and a zero adds an exact +0, so
    # these are the sums of the whole sorted columns. A lone column is all
    # foreground, so it is its whole sorted column already.
    block = np.zeros((counts.max(), k))
    block[rank, cols] = errors * weights
    return block.sum(axis=0), (rows, cols), weights, gt


def dice_loss(
    batch: LogitBatch, roles: Iterable[Role] = FULL_CONTEXT, *, probs: np.ndarray | None = None
) -> LossResult:
    """Soft Dice loss per vocabulary class, averaged over classes present.

    Each class column scores 1 - 2*sum(p*y) / (sum(p^2) + sum(y^2)).
    """
    return _softmax_loss(batch, roles, probs, partial(_region_term, _dice_term))


def self_adjusting_dice_loss(
    batch: LogitBatch, roles: Iterable[Role] = FULL_CONTEXT, *, probs: np.ndarray | None = None
) -> LossResult:
    """Self-adjusting Dice per vocabulary class, averaged over classes present.

    Each class column scores 1 - 2*sum((1-p)*p*y) / sum((1-p)*p + y); the
    (1-p) factor suppresses easy examples, so a perfectly confident correct
    prediction still carries term 1.
    """
    return _softmax_loss(batch, roles, probs, partial(_region_term, _self_adjusting_dice_term))


def generalized_dice_loss(
    batch: LogitBatch, roles: Iterable[Role] = FULL_CONTEXT, *, probs: np.ndarray | None = None
) -> LossResult:
    """Generalized Dice with per-class weights 1/(sum y)^2.

    Classes with zero ground-truth volume are dropped from both sums.
    """
    return _softmax_loss(batch, roles, probs, partial(_region_term, _generalized_dice_term))


def lovasz_grad_weights(sorted_gt: np.ndarray) -> np.ndarray:
    """Jaccard-extension weights for errors already sorted in descending order.

    With cumulative foreground/background counts through rank k,
    J[k] = 1 - (sum(gt) - cum_fg[k]) / (sum(gt) + cum_bg[k]); the weights are
    the first differences of J. They are nonnegative and sum to the Jaccard
    loss of mispredicting the full support. A 2-d (n, k) input holds k
    independently sorted columns and gets the weights of each column.
    """
    gt = np.asarray(sorted_gt, dtype=np.float64)
    if gt.ndim not in (1, 2) or gt.size == 0:
        raise DataError("sorted ground truth must be a nonempty 1-d or 2-d array")
    if not np.isin(gt, (0.0, 1.0)).all():
        raise DataError("ground truth entries must be 0 or 1")
    return _jaccard_weights(gt)


def _jaccard_weights(gt: np.ndarray) -> np.ndarray:
    """:func:`lovasz_grad_weights` of a float64 0/1 array, unchecked."""
    gts = gt.sum(axis=0)
    intersection = gts - gt.cumsum(axis=0)
    union = gts + (1.0 - gt).cumsum(axis=0)
    jaccard = 1.0 - intersection / union
    weights = jaccard.copy()
    weights[1:] -= jaccard[:-1]
    return weights


def lovasz_loss(
    batch: LogitBatch, roles: Iterable[Role] = FULL_CONTEXT, *, probs: np.ndarray | None = None
) -> LossResult:
    """Lovász-Softmax: the Lovász extension of the Jaccard loss per class.

    Per-class errors are 1 - p_c at positions whose target is c and p_c
    elsewhere. Each class column is sorted descending with ties broken by
    position index and dotted with the Jaccard-extension weights; the loss
    averages over classes present in the targets. The gradient holds the sort
    permutation fixed.

    Past a column's last target position the weights are exactly 0, so only
    the entries whose error is at least the column's smallest target-position
    error are sorted: one lexsort of those few entries by (class, -error,
    position), which keeps the tie order, instead of a sort of every column.
    The value and gradient are the full sort's bit for bit. A matrix of at
    most 768 positions x classes sorts its whole columns, which is faster at
    that size.
    """
    return _softmax_loss(batch, roles, probs, partial(_region_term, _lovasz_softmax_term))


# Each entry looks its loss up by module-level name when called, so a loss
# rebound on this module (for tracing, say) is the one combined_loss runs.
# The third argument is the answer rows' softmax.
_AUXILIARY: dict[AuxiliaryKind, Callable[..., LossResult]] = {
    AuxiliaryKind.FOCAL: lambda b, c, p: focal_loss(b, c.gamma, ANSWER_ONLY, probs=p),
    AuxiliaryKind.DICE: lambda b, c, p: dice_loss(b, ANSWER_ONLY, probs=p),
    AuxiliaryKind.GENERALIZED_DICE: lambda b, c, p: generalized_dice_loss(b, ANSWER_ONLY, probs=p),
    AuxiliaryKind.SELF_ADJUSTING_DICE: lambda b, c, p: self_adjusting_dice_loss(
        b, ANSWER_ONLY, probs=p
    ),
    AuxiliaryKind.LOVASZ: lambda b, c, p: lovasz_loss(b, ANSWER_ONLY, probs=p),
}


def combined_loss(
    batch: LogitBatch, config: LossConfig, *, probs: np.ndarray | None = None
) -> LossResult:
    """mix * CE(instruction + answer) + (1 - mix) * auxiliary(answer only).

    Instruction positions receive gradient only through the cross-entropy
    term, so the auxiliary gradient there is exactly zero. When mix == 1 the
    auxiliary branch is skipped entirely, which makes the loss trace
    bit-identical to a NONE run; when mix == 0 the cross-entropy branch is
    skipped symmetrically.

    One softmax serves both branches: it covers the rows of the first branch
    that runs, the cross-entropy branch takes it over as its own buffer,
    and the auxiliary branch gets a copy of its answer rows (or the buffer
    itself when it runs alone). Each branch's gradient covers its own rows;
    the auxiliary one, scaled by 1 - mix, is added into the answer rows of
    the cross-entropy one, so no batch-sized buffer is built unless some
    row (PAD, or an instruction row when mix == 0) gets no gradient.

    Its selected rows are the instruction and answer rows when mix > 0, and
    the answer rows alone when mix == 0. As for every other loss, ``probs``
    is their softmax, and it stands in for the one softmax above.
    """
    kind = config.auxiliary_kind
    if kind is not AuxiliaryKind.NONE and not (batch.role_mask == _ANSWER).any():
        raise DataError("auxiliary loss requested but batch has no answer positions")

    mix = config.mix
    with_ce = mix > 0.0
    with_aux = mix < 1.0 and kind is not AuxiliaryKind.NONE
    if not (with_ce or with_aux):
        shape = batch.logits.shape if probs is None else probs.shape
        return LossResult(0.0, lambda: np.zeros(shape))

    idx = _selected(batch, FULL_CONTEXT if with_ce else ANSWER_ONLY)
    shape = None
    if probs is None:
        shape, probs = batch.logits.shape, _softmax_rows(batch, idx)
    value = 0.0
    ce = aux = None
    if with_ce:
        ce = ce_loss(batch, FULL_CONTEXT, probs=probs)
        value += mix * ce.value
    if with_aux:
        # a softmax row depends on its logit row alone, so these rows are
        # bit for bit the softmax of the answer rows by themselves
        answer = batch.role_mask[idx] == _ANSWER
        aux = _AUXILIARY[kind](batch, config, probs[answer] if with_ce else probs)
        value += (1.0 - mix) * aux.value

    def backward() -> np.ndarray:
        # Each branch's gradient is its own array, so it is scaled in place.
        if ce is not None:
            gradient = ce.gradient
            gradient *= mix
            if aux is not None:
                aux_gradient = aux.gradient
                aux_gradient *= 1.0 - mix
                gradient[answer] += aux_gradient
        else:
            gradient = aux.gradient
            gradient *= 1.0 - mix
            # x + 0.0 turns -0.0 into +0.0, so that no branch mix leaves a
            # -0.0 (the cross-entropy gradient holds none, nor can a sum
            # into it)
            gradient += 0.0
        return _scatter(shape, idx, gradient)

    return LossResult(value, backward)


def lovasz_tie_rows(batch: LogitBatch, roles: Iterable[Role], step: float) -> set[int]:
    """Absolute row indices whose Lovász sort order could flip under a +-step
    perturbation of any single logit in that row.

    Perturbing one logit moves only that row's class errors, each by at most
    the step size, so two errors can cross only if their gap is <= 2*step.
    """
    idx = _selected(batch, roles)
    _, p, y = _class_columns(_softmax_rows(batch, idx), batch.targets[idx])
    errors = _lovasz_errors(p, y)
    window = 2.0 * step
    # In sorted order the nearest other error of a column is a sorted
    # neighbour, and rounded subtraction is monotone, so checking neighbour
    # gaps finds every gap <= window that comparing all pairs would.
    order = errors.argsort(axis=0), np.arange(errors.shape[1])
    close_gap = np.diff(errors[order], axis=0) <= window
    close_sorted = np.zeros(errors.shape, dtype=bool)
    close_sorted[1:] |= close_gap
    close_sorted[:-1] |= close_gap
    close = np.empty_like(close_sorted)
    close[order] = close_sorted
    return set(idx[close.any(axis=1)].tolist())
