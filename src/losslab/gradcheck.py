"""Finite-difference verification of analytic loss gradients.

Central differences (f(x+h) - f(x-h)) / 2h per logit coordinate, compared to
the analytic gradient with a relative error whose denominator is floored so
near-zero coordinates are judged on absolute deviation. Lovász losses are
piecewise linear in sort order; coordinates in rows whose error ranking could
flip within the step are reported as skipped rather than failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from .losses import (
    ANSWER_ONLY,
    FULL_CONTEXT,
    AuxiliaryKind,
    LogitBatch,
    LossConfig,
    LossFn,
    LossResult,
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


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_coordinate: tuple[int, int] | None
    skipped: list[tuple[int, int]] = field(default_factory=list)
    n_checked: int = 0
    tolerance: float = 1e-4

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
    step: float = 1e-5,
    tolerance: float = 1e-4,
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

# Name -> (loss of a batch under a config, tie-row detector or None). Each
# entry looks its loss up by module-level name when called, so a loss rebound
# on this module (for tracing, say) is the one the check runs.
_NAMED_LOSSES: dict[str, tuple[Callable[[LogitBatch, LossConfig], LossResult], TieFn | None]] = {
    "ce": (lambda b, c: ce_loss(b, FULL_CONTEXT), None),
    "fl": (lambda b, c: focal_loss(b, c.gamma, FULL_CONTEXT), None),
    "dl": (lambda b, c: dice_loss(b, FULL_CONTEXT), None),
    "gdl": (lambda b, c: generalized_dice_loss(b, FULL_CONTEXT), None),
    "sadl": (lambda b, c: self_adjusting_dice_loss(b, FULL_CONTEXT), None),
    "ll": (
        lambda b, c: lovasz_loss(b, FULL_CONTEXT),
        lambda b, h: lovasz_tie_rows(b, FULL_CONTEXT, h),
    ),
    "combined": (
        lambda b, c: combined_loss(b, c),
        lambda b, h: lovasz_tie_rows(b, ANSWER_ONLY, h),
    ),
}

LOSS_NAMES = tuple(_NAMED_LOSSES)


def build_loss_fn(name: str, config: LossConfig | None = None) -> tuple[LossFn, TieFn | None]:
    """Named loss closure plus an optional tie-row detector for Lovász cases.

    Known names: ce, fl, dl, gdl, sadl, ll, combined. ``combined`` with no
    auxiliary loss checks the Lovász auxiliary instead, and has a tie-row
    detector only when its auxiliary is Lovász.
    """
    if name not in _NAMED_LOSSES:
        raise ValueError(f"unknown loss name {name!r}")
    cfg = config or LossConfig()
    loss, ties = _NAMED_LOSSES[name]
    if name == "combined":
        if cfg.auxiliary_kind is AuxiliaryKind.NONE:
            cfg = replace(cfg, auxiliary_kind=AuxiliaryKind.LOVASZ)
        if cfg.auxiliary_kind is not AuxiliaryKind.LOVASZ:
            ties = None
    return (lambda b: loss(b, cfg)), ties


def check_named_loss(
    name: str,
    batch: LogitBatch,
    config: LossConfig | None = None,
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    fn, tie_fn = build_loss_fn(name, config)
    skip = tie_fn(batch, step) if tie_fn else None
    return finite_difference_check(fn, batch, step, tolerance, skip)
