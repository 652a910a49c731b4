"""Finite-difference verification of analytic loss gradients.

Central differences (f(x+h) - f(x-h)) / 2h per logit coordinate, compared to
the analytic gradient with a relative error whose denominator is floored so
near-zero coordinates are judged on absolute deviation. Lovász losses are
piecewise linear in sort order; coordinates in rows whose error ranking could
flip within the step are reported as skipped rather than failed.

A probe moves one logit, so it changes one row of the softmax. The check
keeps the softmax of the instruction and answer rows, which every named
loss reads, in one buffer, recomputes only the probed row into it, and
hands the buffer to the loss as ``probs``; the values are those of
whole-batch calls bit for bit, since a softmax row depends on its logit row
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import DEFAULT_STEP, DEFAULT_TOLERANCE, LOSS_NAMES, AuxiliaryKind
from .losses import (
    ANSWER_ONLY,
    FULL_CONTEXT,
    LogitBatch,
    LossConfig,
    LossResult,
    _selected,
    ce_loss,
    combined_loss,
    dice_loss,
    focal_loss,
    generalized_dice_loss,
    lovasz_loss,
    lovasz_tie_rows,
    self_adjusting_dice_loss,
    softmax,
)

DENOM_FLOOR = 1e-6


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_coordinate: tuple[int, int] | None
    skipped: list[tuple[int, int]] = field(default_factory=list)
    n_checked: int = 0
    tolerance: float = DEFAULT_TOLERANCE

    @property
    def passed(self) -> bool:
        """At least one coordinate was probed, and the largest relative
        error is finite and within the tolerance."""
        error = self.max_rel_error
        return self.n_checked >= 1 and math.isfinite(error) and error <= self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = f"{self.worst_coordinate}" if self.worst_coordinate else "-"
        return (
            f"{status} max_rel_error={self.max_rel_error:.3e} worst={worst} "
            f"checked={self.n_checked} skipped={len(self.skipped)}"
        )


# A loss as the check calls it: ``loss_fn(batch)`` for the analytic
# gradient, and ``loss_fn(batch, probs=p)`` for a probe's value, where ``p``
# is the softmax of the batch's instruction and answer rows.
ProbeLossFn = Callable[..., LossResult]


def finite_difference_check(
    loss_fn: ProbeLossFn,
    batch: LogitBatch,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    skip_rows: set[int] | None = None,
    rows: range | None = None,
) -> GradCheckReport:
    """Compare ``loss_fn``'s analytic gradient to central differences.

    The gradient comes from one plain call, ``loss_fn(batch)``. Each probe
    calls ``loss_fn(perturbed, probs=buffer)`` and reads only its value:
    ``buffer`` holds the softmax of the perturbed batch's instruction and
    answer rows, the rows a loss over :data:`FULL_CONTEXT` reads. Only the
    probed row of it is recomputed, and it is restored after that row's
    probes. A loss takes ``probs`` as its own buffer and would overwrite it
    in its backward, so a probe's gradient is never read.

    ``skip_rows`` marks logit rows whose coordinates go, never probed, into
    the report's skipped list instead of the max-error statistic (used for rows
    near a Lovász sort tie, where the fixed-permutation subgradient and the
    numeric slope legitimately disagree). A NaN relative error is the worst
    there is: it becomes the report's maximum, and the check fails.

    ``rows`` is the rows to probe, consecutive rows of the batch in order
    (all of them by default). The report covers those rows only, and
    :func:`merge_reports` joins the reports of adjacent ranges into the one
    report of both.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be a positive finite number, got {step!r}")
    n, vocab = batch.logits.shape
    if rows is None:
        rows = range(n)
    elif rows.step != 1 or not 0 <= rows.start <= rows.stop <= n:
        raise ValueError(f"rows must be consecutive rows of the batch's {n}, got {rows!r}")
    base = loss_fn(batch)
    analytic = base.gradient
    if analytic.shape != batch.logits.shape:
        raise ValueError("gradient shape does not match logits shape")
    skip_rows = skip_rows or set()

    work = LogitBatch(batch.logits.copy(), batch.targets.copy(), batch.role_mask.copy())
    read = _selected(work, FULL_CONTEXT)
    probs = softmax(work.logits[read])
    # each read row's softmax in the buffer; a PAD row's goes to a spare row
    softmax_rows = {i: probs[j : j + 1] for j, i in enumerate(read.tolist())}
    spare = np.empty((1, vocab))
    max_rel = 0.0
    worst: tuple[int, int] | None = None
    skipped: list[tuple[int, int]] = []
    checked = 0
    for i in rows:
        if i in skip_rows:
            skipped.extend((i, k) for k in range(vocab))
            continue
        logits, row = work.logits[i : i + 1], softmax_rows.get(i, spare)
        for k in range(vocab):
            original = work.logits[i, k]
            values = []
            for logit in (original + step, original - step):
                work.logits[i, k] = logit
                softmax(logits, out=row)
                values.append(loss_fn(work, probs=probs).value)
            work.logits[i, k] = original
            numeric = (values[0] - values[1]) / (2.0 * step)
            a = analytic[i, k]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), DENOM_FLOOR)
            checked += 1
            if _worse(rel, max_rel):
                max_rel = rel
                worst = (i, k)
        softmax(logits, out=row)  # the unperturbed row's, as before its probes
    return GradCheckReport(max_rel, worst, skipped, checked, tolerance)


def _worse(rel: float, max_rel: float) -> bool:
    """Whether ``rel`` replaces ``max_rel`` as a scan's maximum: a strictly
    larger error does, so the first of equal maxima stays, and the first NaN
    does and then stays."""
    return rel > max_rel or (math.isnan(rel) and not math.isnan(max_rel))


def merge_reports(first: GradCheckReport, second: GradCheckReport) -> GradCheckReport:
    """The report of ``first``'s rows followed by ``second``'s adjacent rows.

    It equals the report of one scan over both ranges: the scan's maximum
    rule (:func:`_worse`) picks between the two maxima, the skipped lists
    join in row order and the checked counts add.
    """
    top = second if _worse(second.max_rel_error, first.max_rel_error) else first
    return GradCheckReport(
        top.max_rel_error,
        top.worst_coordinate,
        first.skipped + second.skipped,
        first.n_checked + second.n_checked,
        first.tolerance,
    )


TieFn = Callable[[LogitBatch, float], set[int]]

# the combined loss that grad-check runs: the default mix with the Lovász auxiliary
_COMBINED = LossConfig(auxiliary_kind=AuxiliaryKind.LOVASZ)

# Name -> (loss of a batch, tie-row detector or None), in the order of
# LOSS_NAMES: ce, each AuxiliaryKind but NONE, combined. Each loss reads the
# instruction and answer rows (combined's mix is above 0), whose softmax
# finite_difference_check passes as ``probs``. Each entry looks its loss up
# by module-level name when called, so a loss rebound on this module (for
# tracing, say) is the one the check runs.
_NAMED_LOSSES: dict[str, tuple[ProbeLossFn, TieFn | None]] = dict(
    zip(
        LOSS_NAMES,
        (
            (lambda b, probs=None: ce_loss(b, probs=probs), None),
            (lambda b, probs=None: focal_loss(b, probs=probs), None),
            (lambda b, probs=None: dice_loss(b, probs=probs), None),
            (lambda b, probs=None: generalized_dice_loss(b, probs=probs), None),
            (lambda b, probs=None: self_adjusting_dice_loss(b, probs=probs), None),
            (
                lambda b, probs=None: lovasz_loss(b, probs=probs),
                lambda b, h: lovasz_tie_rows(b, FULL_CONTEXT, h),
            ),
            (
                lambda b, probs=None: combined_loss(b, _COMBINED, probs=probs),
                lambda b, h: lovasz_tie_rows(b, ANSWER_ONLY, h),
            ),
        ),
        strict=True,
    )
)


def build_loss_fn(name: str) -> tuple[ProbeLossFn, TieFn | None]:
    """Named loss closure plus its tie-row detector, for the Lovász cases.

    Known names are those of :data:`LOSS_NAMES`. Each loss runs over
    instruction and answer positions with its default options; ``combined``
    is the default mix with the Lovász auxiliary.
    """
    if name not in _NAMED_LOSSES:
        raise ValueError(f"unknown loss name {name!r}")
    return _NAMED_LOSSES[name]


def check_named_loss(
    name: str,
    batch: LogitBatch,
    step: float = DEFAULT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    rows: range | None = None,
) -> GradCheckReport:
    """:func:`finite_difference_check` of the named loss over ``rows``,
    skipping the tie rows its detector finds in the whole batch."""
    fn, tie_fn = build_loss_fn(name)
    skip = tie_fn(batch, step) if tie_fn else None
    return finite_difference_check(fn, batch, step, tolerance, skip, rows)
