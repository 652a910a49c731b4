"""Evaluation metrics over parsed rationales.

Final answers are compared with :func:`exact_match`. Reasoning steps are
compared as multisets of canonical keys, optionally commutative-normalized,
via IoU / precision / recall / Dice. The error typology classifies predicted
steps absent from the gold set as wrong-operator or inverted-operand errors
and reports extra/missing-step rates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Sequence

from . import DataError
from .parsing import ReasoningStep

NUMERIC_TOLERANCE = 1e-6


def exact_match(prediction: float | str | None, gold: float | str | None) -> bool:
    """Compare two final answers in their :func:`normalize_final_answer`
    form, such as two parses' ``answer_key``.

    Numeric answers match within 1e-6 absolute tolerance; everything else is
    compared as the trimmed lowercase text that normalization leaves (so
    single-letter answers match case-insensitively). A missing side never
    matches.
    """
    if prediction is None or gold is None:
        return False
    if isinstance(prediction, float) and isinstance(gold, float):
        return abs(prediction - gold) <= NUMERIC_TOLERANCE
    if isinstance(prediction, float) or isinstance(gold, float):
        return False
    return prediction == gold


@dataclass
class StepSet:
    """Canonical step keys as a multiset (each key's count), remembering the
    steps and the flag that built them."""

    keys: dict[str, int]
    steps: tuple[ReasoningStep, ...]
    commutative: bool

    @classmethod
    def from_steps(cls, steps: Sequence[ReasoningStep], commutative: bool) -> "StepSet":
        """Read each step's key (see :func:`canonicalize_step`) and count it."""
        steps = tuple(steps)
        which = 1 if commutative else 0
        keys: dict[str, int] = {}
        for step in steps:
            key = step.match_keys[which]
            keys[key] = keys.get(key, 0) + 1
        return cls(keys, steps, commutative)


@dataclass
class OverlapMetrics:
    iou: float
    precision: float
    recall: float
    dice: float


def step_overlap_metrics(ps: StepSet, gts: StepSet, commutative: bool) -> OverlapMetrics:
    """Multiset overlap metrics between predicted and gold step sets.

    Both sets must have been built with the canonicalization named by
    ``commutative``. Two empty sets count as a perfect match (all metrics 1);
    one empty side scores 0 everywhere.
    """
    if ps.commutative != commutative or gts.commutative != commutative:
        raise ValueError("step sets were built with a different canonicalization flag")
    n_pred, n_gold = len(ps.steps), len(gts.steps)
    if n_pred == 0 and n_gold == 0:
        return OverlapMetrics(1.0, 1.0, 1.0, 1.0)
    if n_pred == 0 or n_gold == 0:
        return OverlapMetrics(0.0, 0.0, 0.0, 0.0)
    gold_keys = gts.keys
    if ps.keys == gold_keys:  # tp = n_pred = n_gold, the loop's exact result
        return OverlapMetrics(1.0, 1.0, 1.0, 1.0)
    tp = 0  # the size of the multiset intersection
    for key, count in ps.keys.items():
        gold_count = gold_keys.get(key, 0)
        tp += count if count < gold_count else gold_count
    fp, fn = n_pred - tp, n_gold - tp
    return OverlapMetrics(
        iou=tp / (tp + fp + fn),
        precision=tp / (tp + fp),
        recall=tp / (tp + fn),
        dice=2.0 * tp / (2.0 * tp + fp + fn),
    )


def _residual_steps(own: StepSet, other: StepSet) -> list[ReasoningStep]:
    """Steps of ``own`` beyond the multiset intersection, in original order.

    For each key the first occurrences up to the other side's count are
    treated as matched; later occurrences are residual.
    """
    which = 1 if own.commutative else 0
    unmatched = dict(other.keys)  # each key's matches left on the other side
    residual: list[ReasoningStep] = []
    for step in own.steps:
        key = step.match_keys[which]
        left = unmatched.get(key, 0)
        if left:
            unmatched[key] = left - 1
        else:
            residual.append(step)
    return residual


def _operand_multiset(step: ReasoningStep) -> Counter:
    return Counter(o.render() for o in step.operands)


def _operand_tuple(step: ReasoningStep) -> tuple[str, ...]:
    return tuple(o.render() for o in step.operands)


@dataclass
class ErrorReport:
    """Error typology. All four rates live in [0, 1]; wrong_operator and
    inverted_operands are proportions of the error set, so their sum is at
    most 1 whenever the error set is nonempty."""

    extra_rate: float
    missing_rate: float
    wrong_operator: float
    inverted_operands: float
    error_set_size: int


def error_typology(ps: StepSet, gts: StepSet) -> ErrorReport:
    """Classify predicted steps that match nothing in the gold set.

    extra_rate is |PS - GTS| / |PS|, missing_rate is |GTS - PS| / |GTS| (both
    0 when the denominator is empty). Each unmatched predicted step is
    classified at most once, greedily in step order, against a gold leftover
    consumed at most once: wrong-operator (same operand multiset, different
    operator) is tried before inverted-operands (same non-commutative
    operator, operands permuted but not in the same order). The wrong-operator
    and inverted-operands rates are fractions of the error set, zero when the
    error set is empty.
    """
    if ps.commutative != gts.commutative:
        raise ValueError("step sets were built with different canonicalization flags")
    if ps.keys == gts.keys:  # nothing left over on either side
        return ErrorReport(0.0, 0.0, 0.0, 0.0, 0)
    errors = _residual_steps(ps, gts)
    missing = _residual_steps(gts, ps)
    n_pred, n_gold = len(ps.steps), len(gts.steps)
    extra_rate = len(errors) / n_pred if n_pred else 0.0
    missing_rate = len(missing) / n_gold if n_gold else 0.0

    consumed = [False] * len(missing)

    def consume(accepts) -> bool:
        """Consume the first unconsumed gold leftover that ``accepts`` takes."""
        for j, gold in enumerate(missing):
            if not consumed[j] and accepts(gold):
                consumed[j] = True
                return True
        return False

    wrong_operator = 0
    inverted = 0
    for err in errors:
        err_multiset = _operand_multiset(err)
        err_tuple = _operand_tuple(err)
        if consume(lambda g: g.operator != err.operator and _operand_multiset(g) == err_multiset):
            wrong_operator += 1
        elif not err.is_commutative and consume(
            lambda g: g.operator == err.operator
            and _operand_tuple(g) != err_tuple
            and _operand_multiset(g) == err_multiset
        ):
            inverted += 1
    n_errors = len(errors)
    wo_rate = wrong_operator / n_errors if n_errors else 0.0
    io_rate = inverted / n_errors if n_errors else 0.0
    return ErrorReport(extra_rate, missing_rate, wo_rate, io_rate, n_errors)


@dataclass
class SampleMetrics:
    """Per-sample metric row, the one declaration of the eval columns' names,
    order and types. wo/io are this sample's error-set fractions."""

    em: bool
    iou: float
    ciou: float
    precision: float
    recall: float
    dice: float
    es: float
    ms: float
    wo: float
    io: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}


CSV_COLUMNS = tuple(f.name for f in fields(SampleMetrics))
# the error-typology rates; every other column ranks higher-is-better
LOWER_IS_BETTER = frozenset({"es", "ms", "wo", "io"})


def aggregate_report(records: Sequence[SampleMetrics]) -> dict:
    """Aggregate over samples, keyed by CSV_COLUMNS then ``n_samples``: EM as
    a percentage, the other columns unweighted means."""
    if not records:
        raise DataError("no per-sample records to aggregate")
    n = len(records)
    means = {c: sum(float(getattr(r, c)) for r in records) / n for c in CSV_COLUMNS if c != "em"}
    return {"em": 100.0 * sum(1 for r in records if r.em) / n, **means, "n_samples": n}
