"""Finite-difference verification of analytic loss gradients.

Central differences (f(x+h) - f(x-h)) / 2h per logit coordinate, compared to
the analytic gradient with a relative error whose denominator is floored so
near-zero coordinates are judged on absolute deviation. Lovász losses are
piecewise linear in sort order; coordinates in rows whose error ranking could
flip within the step are reported as skipped rather than failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .losses import (
    ANSWER_ONLY,
    FULL_CONTEXT,
    AuxiliaryKind,
    LogitBatch,
    LossConfig,
    LossFn,
    ce_loss,
    combined_loss,
    dice_loss,
    focal_loss,
    generalized_dice_loss,
    lovasz_loss,
    lovasz_tie_rows,
    self_adjusting_dice_loss,
)

DENOM_FLOOR = 1e-6
# the central-difference step and the pass threshold of every check
DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_coordinate: tuple[int, int] | None
    skipped: list[tuple[int, int]] = field(default_factory=list)
    n_checked: int = 0
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_rel_error) and self.max_rel_error <= self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = f"{self.worst_coordinate}" if self.worst_coordinate else "-"
        return (
            f"{status} max_rel_error={self.max_rel_error:.3e} worst={worst} "
            f"checked={self.n_checked} skipped={len(self.skipped)}"
        )


def finite_difference_check(
    loss_fn: LossFn,
    batch: LogitBatch,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    skip_rows: set[int] | None = None,
) -> GradCheckReport:
    """Compare ``loss_fn``'s analytic gradient to central differences.

    ``skip_rows`` marks logit rows whose coordinates go, never probed, into
    the report's skipped list instead of the max-error statistic (used for rows
    near a Lovász sort tie, where the fixed-permutation subgradient and the
    numeric slope legitimately disagree). A NaN relative error is the worst
    there is: it becomes the report's maximum, and the check fails.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be a positive finite number, got {step!r}")
    base = loss_fn(batch)
    analytic = base.gradient
    if analytic.shape != batch.logits.shape:
        raise ValueError("gradient shape does not match logits shape")
    skip_rows = skip_rows or set()

    work = LogitBatch(batch.logits.copy(), batch.targets.copy(), batch.role_mask.copy())
    n, vocab = work.logits.shape
    max_rel = 0.0
    worst: tuple[int, int] | None = None
    skipped: list[tuple[int, int]] = []
    checked = 0
    for i in range(n):
        if i in skip_rows:
            skipped.extend((i, k) for k in range(vocab))
            continue
        for k in range(vocab):
            original = work.logits[i, k]
            work.logits[i, k] = original + step
            f_plus = loss_fn(work).value
            work.logits[i, k] = original - step
            f_minus = loss_fn(work).value
            work.logits[i, k] = original
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = analytic[i, k]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), DENOM_FLOOR)
            checked += 1
            if rel > max_rel or (math.isnan(rel) and not math.isnan(max_rel)):
                max_rel = rel
                worst = (i, k)
    return GradCheckReport(max_rel, worst, skipped, checked, tolerance)


TieFn = Callable[[LogitBatch, float], set[int]]

# the combined loss that grad-check runs: the default mix with the Lovász auxiliary
_COMBINED = LossConfig(auxiliary_kind=AuxiliaryKind.LOVASZ)

# Name -> (loss of a batch, tie-row detector or None). Each entry looks its
# loss up by module-level name when called, so a loss rebound on this module
# (for tracing, say) is the one the check runs.
_NAMED_LOSSES: dict[str, tuple[LossFn, TieFn | None]] = {
    "ce": (lambda b: ce_loss(b), None),
    "fl": (lambda b: focal_loss(b), None),
    "dl": (lambda b: dice_loss(b), None),
    "gdl": (lambda b: generalized_dice_loss(b), None),
    "sadl": (lambda b: self_adjusting_dice_loss(b), None),
    "ll": (lambda b: lovasz_loss(b), lambda b, h: lovasz_tie_rows(b, FULL_CONTEXT, h)),
    "combined": (
        lambda b: combined_loss(b, _COMBINED),
        lambda b, h: lovasz_tie_rows(b, ANSWER_ONLY, h),
    ),
}

LOSS_NAMES = tuple(_NAMED_LOSSES)


def build_loss_fn(name: str) -> tuple[LossFn, TieFn | None]:
    """Named loss closure plus its tie-row detector, for the Lovász cases.

    Known names are those of :data:`LOSS_NAMES`. Each loss runs over
    instruction and answer positions with its default options; ``combined``
    is the default mix with the Lovász auxiliary.
    """
    if name not in _NAMED_LOSSES:
        raise ValueError(f"unknown loss name {name!r}")
    return _NAMED_LOSSES[name]


def check_named_loss(
    name: str, batch: LogitBatch, step: float = DEFAULT_STEP, tolerance: float = DEFAULT_TOLERANCE
) -> GradCheckReport:
    fn, tie_fn = build_loss_fn(name)
    skip = tie_fn(batch, step) if tie_fn else None
    return finite_difference_check(fn, batch, step, tolerance, skip)
