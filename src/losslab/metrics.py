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

from .parsing import ReasoningStep, canonicalize_step, normalize_final_answer

NUMERIC_TOLERANCE = 1e-6


class EmptyRecordSet(ValueError):
    """aggregate_report needs at least one per-sample record."""


def exact_match(prediction: str | None, gold: str | None) -> bool:
    """Compare two final answers after normalization.

    Numeric answers match within 1e-6 absolute tolerance; everything else is
    compared as trimmed lowercase text (single-letter answers therefore match
    case-insensitively). A missing side never matches.
    """
    if prediction is None or gold is None:
        return False
    p = normalize_final_answer(prediction)
    g = normalize_final_answer(gold)
    if isinstance(p, float) and isinstance(g, float):
        return abs(p - g) <= NUMERIC_TOLERANCE
    if isinstance(p, float) or isinstance(g, float):
        return False
    return p == g


@dataclass
class StepSet:
    """Canonical step keys, as a multiset and (``step_keys``) in step order,
    remembering the flag that built them."""

    keys: Counter
    step_keys: tuple[str, ...]
    steps: tuple[ReasoningStep, ...]
    commutative: bool

    @classmethod
    def from_steps(cls, steps: Sequence[ReasoningStep], commutative: bool) -> "StepSet":
        steps = tuple(steps)
        step_keys = tuple(canonicalize_step(s, commutative) for s in steps)
        return cls(Counter(step_keys), step_keys, steps, commutative)

    def __len__(self) -> int:
        return len(self.steps)


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
    if len(ps) == 0 and len(gts) == 0:
        return OverlapMetrics(1.0, 1.0, 1.0, 1.0)
    if len(ps) == 0 or len(gts) == 0:
        return OverlapMetrics(0.0, 0.0, 0.0, 0.0)
    tp = sum((ps.keys & gts.keys).values())
    fp, fn = len(ps) - tp, len(gts) - tp
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
    seen: Counter = Counter()
    residual: list[ReasoningStep] = []
    for step, key in zip(own.steps, own.step_keys):
        seen[key] += 1
        if seen[key] > other.keys.get(key, 0):
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
    errors = _residual_steps(ps, gts)
    missing = _residual_steps(gts, ps)
    extra_rate = len(errors) / len(ps) if len(ps) else 0.0
    missing_rate = len(missing) / len(gts) if len(gts) else 0.0

    consumed = [False] * len(missing)
    wrong_operator = 0
    inverted = 0
    for err in errors:
        err_multiset = _operand_multiset(err)
        err_tuple = _operand_tuple(err)
        matched = False
        for j, gold in enumerate(missing):
            if consumed[j] or gold.operator == err.operator:
                continue
            if _operand_multiset(gold) == err_multiset:
                consumed[j] = True
                wrong_operator += 1
                matched = True
                break
        if matched:
            continue
        for j, gold in enumerate(missing):
            if consumed[j] or gold.operator != err.operator or err.is_commutative:
                continue
            gold_tuple = _operand_tuple(gold)
            if gold_tuple != err_tuple and Counter(gold_tuple) == err_multiset:
                consumed[j] = True
                inverted += 1
                break
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
        raise EmptyRecordSet("no per-sample records to aggregate")
    n = len(records)
    means = {c: sum(float(getattr(r, c)) for r in records) / n for c in CSV_COLUMNS if c != "em"}
    return {"em": 100.0 * sum(1 for r in records if r.em) / n, **means, "n_samples": n}
