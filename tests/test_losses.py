import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import DataError, losses
from losslab.losses import (
    ANSWER_ONLY,
    FULL_CONTEXT,
    PROB_FLOOR,
    AuxiliaryKind,
    LogitBatch,
    LossConfig,
    LossResult,
    Role,
    ce_loss,
    combined_loss,
    dice_loss,
    focal_loss,
    generalized_dice_loss,
    lovasz_grad_weights,
    lovasz_loss,
    self_adjusting_dice_loss,
    softmax,
    _dice_term,
    _generalized_dice_term,
    _role_table,
    _selected,
    _self_adjusting_dice_term,
)
from losslab.training import TrainConfig, make_synthetic_corpus, train

LN2 = 0.6931471805599453
LN4 = 1.3862943611198906


def batch_from_probs(probs, targets, role_mask):
    """A batch whose softmax reproduces ``probs`` (rows sum to 1)."""
    logits = np.log(np.clip(np.asarray(probs, dtype=np.float64), 1e-300, None))
    return LogitBatch(logits, np.asarray(targets), np.asarray(role_mask))


def single_position(probs, target=0):
    probs = np.asarray(probs, dtype=np.float64)[None, :]
    return batch_from_probs(probs, np.array([target]), np.array([1]))


def random_batch(seed, n=8, vocab=17):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, vocab))
    targets = rng.integers(0, vocab, n)
    roles = np.array([0] * (n // 2) + [1] * (n - n // 2))
    return LogitBatch(logits, targets, roles)


def soft_dice_term(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Soft Dice loss of one class column: 1 - 2*sum(p*y) / (sum(p^2) + sum(y^2)).

    Returns the scalar term and its gradient with respect to ``p``. A column
    with zero denominator (possible only when y is all zero and p is exactly
    zero) yields term 1 with zero gradient.
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    num = 2.0 * float(np.dot(p, y))
    den = float(np.dot(p, p) + np.dot(y, y))
    if den == 0.0:
        return 1.0, np.zeros_like(p)
    value = 1.0 - num / den
    dp = -(2.0 * y * den - 2.0 * p * num) / den**2
    return value, dp


def self_adjusting_dice_term(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Self-adjusting Dice loss of one class column.

    1 - 2*sum((1-p)*p*y) / sum((1-p)*p + y), with the denominator grouping the
    per-position (1-p)*p weight and the label inside one sum. The (1-p) factor
    suppresses easy examples, so a perfectly confident correct prediction
    still carries term 1 (the numerator collapses to zero).
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = (1.0 - p) * p
    num = 2.0 * float(np.dot(w, y))
    den = float(np.sum(w + y))
    if den == 0.0:
        return 1.0, np.zeros_like(p)
    value = 1.0 - num / den
    dnum = 2.0 * (1.0 - 2.0 * p) * y
    dden = 1.0 - 2.0 * p
    dp = -(dnum * den - num * dden) / den**2
    return value, dp


def lovasz_softmax_term(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Lovász-Softmax term of one class column, on the 1-d Jaccard weights."""
    errors = np.where(y > 0, 1.0 - p, p)
    perm = np.argsort(-errors, kind="stable")
    weights = lovasz_grad_weights(y[perm])
    derr = np.zeros_like(errors)
    derr[perm] = weights
    return float(errors[perm] @ weights), derr * (1.0 - 2.0 * y)


def per_class_reference(batch, roles, column_term, classes=None):
    """Mean of ``column_term`` over class columns, chained back to the logits."""
    idx = np.flatnonzero(np.isin(batch.role_mask, [int(r) for r in roles]))
    probs = softmax(batch.logits[idx])
    targets = batch.targets[idx]
    classes = np.unique(targets) if classes is None else classes
    total = 0.0
    dprobs = np.zeros_like(probs)
    for c in classes:
        value, dp = column_term(probs[:, c], (targets == c).astype(np.float64))
        total += value
        dprobs[:, c] += dp
    return total / classes.size, logit_gradient(batch, idx, probs, dprobs / classes.size)


def generalized_dice_reference(batch, roles):
    idx = np.flatnonzero(np.isin(batch.role_mask, [int(r) for r in roles]))
    probs = softmax(batch.logits[idx])
    targets = batch.targets[idx]
    classes = np.unique(targets)
    num = den = 0.0
    weights = {}
    for c in classes:
        y = (targets == c).astype(np.float64)
        weights[c] = 1.0 / y.sum() ** 2
        num += 2.0 * weights[c] * float(np.dot(probs[:, c], y))
        den += weights[c] * float(np.sum(probs[:, c] + y))
    dprobs = np.zeros_like(probs)
    for c in classes:
        y = (targets == c).astype(np.float64)
        dprobs[:, c] = -(2.0 * weights[c] * y * den - num * weights[c]) / den**2
    return 1.0 - num / den, logit_gradient(batch, idx, probs, dprobs)


def logit_gradient(batch, idx, probs, dprobs):
    """Chain rule through each selected row's softmax Jacobian diag(p) - p p^T."""
    grad = np.zeros_like(batch.logits)
    for row, (p, d) in enumerate(zip(probs, dprobs)):
        grad[idx[row]] = (np.diag(p) - np.outer(p, p)) @ d
    return grad


class TestLogitBatch:
    def test_coerces_dtype_to_float64(self):
        batch = LogitBatch(np.zeros((1, 2), dtype=np.float32), np.array([0]), np.array([1]))
        assert batch.logits.dtype == np.float64

    def test_rejects_nan_logits(self):
        with pytest.raises(DataError, match="logits row 0 has NaN"):
            LogitBatch(np.array([[np.nan, 0.0]]), np.array([0]), np.array([1]))

    @pytest.mark.parametrize("bad", [[np.inf, 0.0], [-np.inf, -np.inf]])
    def test_rejects_row_without_finite_maximum(self, bad):
        logits = np.array([[0.0, 1.0], bad, [2.0, 0.0]])
        with pytest.raises(DataError, match="logits row 1 has NaN, \\+inf or only -inf"):
            LogitBatch(logits, np.array([0, 0, 1]), np.array([1, 1, 1]))

    def test_accepts_partly_negative_infinite_row(self):
        batch = LogitBatch(np.array([[0.0, -np.inf, 1.0]]), np.array([2]), np.array([1]))
        assert np.isfinite(ce_loss(batch).value)

    def test_rejects_target_out_of_range(self):
        with pytest.raises(DataError, match=r"every target index must be in \[0, vocabulary\)"):
            LogitBatch(np.zeros((1, 3)), np.array([3]), np.array([1]))

    def test_rejects_bad_role(self):
        for role in (-1, 3, 7):
            with pytest.raises(DataError, match="role_mask entries must be Role values"):
                LogitBatch(np.zeros((2, 3)), np.array([0, 1]), np.array([1, role]))

    def test_rejects_all_pad(self):
        with pytest.raises(DataError, match="at least one non-PAD position"):
            LogitBatch(np.zeros((2, 3)), np.array([0, 1]), np.array([2, 2]))

    def test_from_probs_recovers_distribution(self):
        probs = np.array([[0.1, 0.2, 0.7], [0.25, 0.25, 0.5]])
        batch = batch_from_probs(probs, np.array([2, 0]), np.array([1, 1]))
        assert np.allclose(softmax(batch.logits), probs, atol=1e-12)


class TestCrossEntropy:
    def test_certain_prediction_is_zero(self):
        probs = np.zeros(5)
        probs[3] = 1.0
        batch = single_position(probs, target=3)
        result = ce_loss(batch)
        assert result.value == pytest.approx(0.0, abs=1e-9)
        assert result.gradient[0, 3] == pytest.approx(0.0, abs=1e-9)

    def test_uniform_over_four(self):
        batch = single_position([0.25, 0.25, 0.25, 0.25], target=2)
        assert ce_loss(batch).value == pytest.approx(LN4, abs=1e-12)

    def test_half_probability(self):
        batch = single_position([0.5, 0.5], target=0)
        assert ce_loss(batch).value == pytest.approx(LN2, abs=1e-12)

    def test_gradient_is_probs_minus_onehot(self):
        batch = random_batch(0)
        result = ce_loss(batch, FULL_CONTEXT)
        probs = softmax(batch.logits)
        expected = probs.copy()
        expected[np.arange(8), batch.targets] -= 1.0
        assert np.allclose(result.gradient, expected / 8, atol=1e-12)

    def test_answer_only_selects_answer_rows(self):
        batch = random_batch(2)
        result = ce_loss(batch, ANSWER_ONLY)
        assert np.all(result.gradient[:4] == 0.0)
        assert np.any(result.gradient[4:] != 0.0)

    def test_no_selected_positions(self):
        batch = LogitBatch(np.zeros((1, 2)), np.array([0]), np.array([0]))
        with pytest.raises(DataError, match=r"no positions with roles \('ANSWER',\)"):
            ce_loss(batch, ANSWER_ONLY)

    @pytest.mark.parametrize(
        "roles, message",
        [
            ((Role.PAD,), "never selectable"),
            ((Role.ANSWER, Role.PAD), "never selectable"),
            ((), "at least one role"),
        ],
    )
    def test_bad_role_filter_raises_on_every_call(self, roles, message):
        batch = random_batch(0)
        for _ in range(2):
            with pytest.raises(DataError, match=message):
                ce_loss(batch, roles)

    def test_role_table_is_shared_read_only(self):
        assert _role_table(FULL_CONTEXT) is _role_table(FULL_CONTEXT)
        assert not _role_table(FULL_CONTEXT).flags.writeable

    def test_nonnegative(self):
        for seed in range(10):
            assert ce_loss(random_batch(seed)).value >= 0.0


class TestFocal:
    def test_gamma_zero_equals_ce_exactly(self):
        for seed in range(5):
            batch = random_batch(seed)
            fl = focal_loss(batch, gamma=0.0)
            ce = ce_loss(batch)
            assert fl.value == ce.value
            assert np.array_equal(fl.gradient, ce.gradient)

    def test_certain_prediction_is_zero(self):
        probs = np.zeros(4)
        probs[1] = 1.0
        batch = single_position(probs, target=1)
        assert focal_loss(batch, gamma=2.0).value == pytest.approx(0.0, abs=1e-9)

    def test_half_probability_gamma_two(self):
        batch = single_position([0.5, 0.5], target=0)
        assert focal_loss(batch, gamma=2.0).value == pytest.approx(0.25 * LN2, abs=1e-12)

    def test_downweights_easy_examples(self):
        easy = single_position([0.9, 0.1], target=0)
        assert focal_loss(easy, gamma=2.0).value < ce_loss(easy).value

    def test_rejects_negative_gamma(self):
        with pytest.raises(DataError, match="gamma must be a finite number >= 0, got -1.0"):
            focal_loss(random_batch(0), gamma=-1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(DataError, match="gamma must be a finite number"):
            focal_loss(random_batch(0), gamma=gamma)
        with pytest.raises(DataError, match="gamma must be a finite number"):
            LossConfig(gamma=gamma)
        config = LossConfig(auxiliary_kind=AuxiliaryKind.FOCAL)
        config.gamma = gamma
        with pytest.raises(DataError, match="gamma must be a finite number"):
            combined_loss(random_batch(0), config)

    def test_nonnegative(self):
        for seed in range(10):
            assert focal_loss(random_batch(seed), gamma=2.0).value >= 0.0


class TestDice:
    def test_perfect_onehot_is_zero(self):
        probs = np.eye(4)[[0, 1, 2, 3]]
        batch = batch_from_probs(probs, np.arange(4), np.ones(4, dtype=np.int64))
        assert dice_loss(batch).value == pytest.approx(0.0, abs=1e-9)

    def test_single_class_worked_example(self):
        # one class column with p = [0.8, 0.2], y = [1, 0]
        value, grad = soft_dice_term(np.array([0.8, 0.2]), np.array([1.0, 0.0]))
        assert value == pytest.approx(1.0 - 1.6 / 1.68, abs=1e-12)
        assert value == pytest.approx(0.047619047619047616, abs=1e-12)

    def test_single_class_disjoint(self):
        value, _ = soft_dice_term(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_range_zero_one(self):
        for seed in range(10):
            v = dice_loss(random_batch(seed)).value
            assert 0.0 <= v <= 1.0

    def test_matches_per_class_terms(self):
        batch = random_batch(3)
        probs = softmax(batch.logits)
        classes = np.unique(batch.targets)
        terms = []
        for c in classes:
            y = (batch.targets == c).astype(np.float64)
            value, _ = soft_dice_term(probs[:, c], y)
            terms.append(value)
        assert dice_loss(batch).value == pytest.approx(np.mean(terms), abs=1e-12)


class TestSelfAdjustingDice:
    def test_half_probability(self):
        value, _ = self_adjusting_dice_term(np.array([0.5]), np.array([1.0]))
        assert value == pytest.approx(0.6, abs=1e-12)

    def test_certain_prediction_suppressed_numerator(self):
        value, _ = self_adjusting_dice_term(np.array([1.0]), np.array([1.0]))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_empty_class_against_bruteforce(self):
        p = np.array([0.3, 0.6, 0.1])
        y = np.zeros(3)
        value, _ = self_adjusting_dice_term(p, y)
        w = (1.0 - p) * p
        assert value == pytest.approx(1.0 - 0.0 / w.sum(), abs=1e-12)

    def test_range_zero_one(self):
        for seed in range(10):
            v = self_adjusting_dice_loss(random_batch(seed)).value
            assert 0.0 <= v <= 1.0


class TestGeneralizedDice:
    def test_perfect_two_class(self):
        probs = np.eye(2)[[0, 1]]
        batch = batch_from_probs(probs, np.array([0, 1]), np.array([1, 1]))
        assert generalized_dice_loss(batch).value == pytest.approx(0.0, abs=1e-9)

    def test_worked_example(self):
        # y = [[1,0],[0,1]], p = [[0.9,0.1],[0.2,0.8]] -> both weights 1,
        # numerator 2*(0.9+0.8), denominator (0.9+0.2+1) + (0.1+0.8+1)
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        batch = batch_from_probs(probs, np.array([0, 1]), np.array([1, 1]))
        assert generalized_dice_loss(batch).value == pytest.approx(0.15, abs=1e-9)

    def test_zero_weight_drops_empty_class(self):
        # vocab 3 but only classes 0 and 1 appear; class 2 has zero volume
        probs = np.array([[0.8, 0.15, 0.05], [0.1, 0.85, 0.05]])
        batch = batch_from_probs(probs, np.array([0, 1]), np.array([1, 1]))
        full = generalized_dice_loss(batch)
        num = 2.0 * (0.8 + 0.85)
        den = (0.8 + 0.1 + 1.0) + (0.15 + 0.85 + 1.0)
        assert full.value == pytest.approx(1.0 - num / den, abs=1e-12)

    def test_range_zero_one(self):
        for seed in range(10):
            v = generalized_dice_loss(random_batch(seed)).value
            assert 0.0 <= v <= 1.0


class TestLovaszWeights:
    def test_single_foreground(self):
        assert np.allclose(lovasz_grad_weights(np.array([1.0])), [1.0])

    def test_two_foreground(self):
        assert np.allclose(lovasz_grad_weights(np.array([1.0, 1.0])), [0.5, 0.5])

    def test_foreground_then_background(self):
        assert np.allclose(lovasz_grad_weights(np.array([1.0, 0.0])), [1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(DataError, match="must be a nonempty 1-d or 2-d array"):
            lovasz_grad_weights(np.array([]))

    def test_rejects_non_binary(self):
        with pytest.raises(DataError, match="ground truth entries must be 0 or 1"):
            lovasz_grad_weights(np.array([0.5, 1.0]))

    def test_nonnegative_and_sums_to_all_errors_jaccard(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gt = rng.integers(0, 2, size=rng.integers(1, 9)).astype(np.float64)
            w = lovasz_grad_weights(gt)
            assert np.all(w >= -1e-12)
            if gt.sum() == 0:
                continue
            # all errors flagged: prediction misses the entire foreground
            expected = brute_force_jaccard_loss(np.ones_like(gt), gt)
            assert w.sum() == pytest.approx(expected, abs=1e-12)


def brute_force_jaccard_loss(errors, gt):
    """Discrete Jaccard loss of the prediction implied by a 0/1 error vector."""
    gt = gt.astype(bool)
    wrong = errors.astype(bool)
    pred = gt ^ wrong
    inter = np.sum(pred & gt)
    union = np.sum(pred | gt)
    if union == 0:
        return 0.0
    return 1.0 - inter / union


def lovasz_extension_value(errors, gt):
    order = np.argsort(-errors, kind="stable")
    return float(errors[order] @ lovasz_grad_weights(gt[order]))


class TestLovaszVertexOracle:
    def test_matches_discrete_jaccard_on_hypercube(self):
        for n in range(1, 7):
            for gt_bits in range(1, 2**n):
                gt = np.array([(gt_bits >> i) & 1 for i in range(n)], dtype=np.float64)
                for err_bits in range(2**n):
                    errors = np.array(
                        [(err_bits >> i) & 1 for i in range(n)], dtype=np.float64
                    )
                    ext = lovasz_extension_value(errors, gt)
                    ref = brute_force_jaccard_loss(errors, gt)
                    assert abs(ext - ref) <= 1e-12


class TestLovaszLoss:
    def test_multiclass_nonnegative(self):
        for seed in range(10):
            assert lovasz_loss(random_batch(seed)).value >= -1e-12


class TestCombined:
    def test_mix_one_equals_ce(self):
        batch = random_batch(0)
        combo = combined_loss(batch, LossConfig(mix=1.0, auxiliary_kind=AuxiliaryKind.FOCAL))
        ce = ce_loss(batch, FULL_CONTEXT)
        assert combo.value == ce.value
        assert np.array_equal(combo.gradient, ce.gradient)

    def test_arithmetic_of_combination(self):
        batch = random_batch(1)
        config = LossConfig(mix=0.6, gamma=2.0, auxiliary_kind=AuxiliaryKind.FOCAL)
        combo = combined_loss(batch, config)
        ce = ce_loss(batch, FULL_CONTEXT)
        aux = focal_loss(batch, gamma=2.0, roles=ANSWER_ONLY)
        assert combo.value == pytest.approx(0.6 * ce.value + 0.4 * aux.value, rel=1e-12)

    def test_instruction_gradient_is_scaled_ce(self):
        for kind in (
            AuxiliaryKind.FOCAL,
            AuxiliaryKind.DICE,
            AuxiliaryKind.GENERALIZED_DICE,
            AuxiliaryKind.SELF_ADJUSTING_DICE,
            AuxiliaryKind.LOVASZ,
        ):
            batch = random_batch(2)
            config = LossConfig(mix=0.6, gamma=2.0, auxiliary_kind=kind)
            combo = combined_loss(batch, config)
            ce = ce_loss(batch, FULL_CONTEXT)
            instruction_rows = batch.role_mask == int(Role.INSTRUCTION)
            assert np.allclose(
                combo.gradient[instruction_rows],
                0.6 * ce.gradient[instruction_rows],
                atol=1e-15,
            )

    def test_mix_zero_instruction_gradient_zero(self):
        batch = random_batch(3)
        config = LossConfig(mix=0.0, gamma=2.0, auxiliary_kind=AuxiliaryKind.FOCAL)
        combo = combined_loss(batch, config)
        instruction_rows = batch.role_mask == int(Role.INSTRUCTION)
        assert np.all(combo.gradient[instruction_rows] == 0.0)

    def test_empty_answer_mask(self):
        batch = LogitBatch(np.zeros((2, 3)), np.array([0, 1]), np.array([0, 0]))
        with pytest.raises(DataError, match="auxiliary loss requested but batch has no answer"):
            combined_loss(batch, LossConfig(auxiliary_kind=AuxiliaryKind.DICE))

    def test_none_kind_allows_missing_answers(self):
        batch = LogitBatch(np.zeros((2, 3)), np.array([0, 1]), np.array([0, 0]))
        result = combined_loss(batch, LossConfig(mix=1.0, auxiliary_kind=AuxiliaryKind.NONE))
        assert result.value == pytest.approx(np.log(3), abs=1e-12)

    def test_rejects_mix_outside_unit_interval(self):
        with pytest.raises(DataError, match=r"mix must lie in \[0, 1\], got 1.5"):
            LossConfig(mix=1.5)
        with pytest.raises(DataError, match=r"mix must lie in \[0, 1\], got -0.1"):
            LossConfig(mix=-0.1)


# Every loss entry point.
LAZY_CASES = [
    pytest.param(lambda b: ce_loss(b), id="ce"),
    pytest.param(lambda b: ce_loss(b, ANSWER_ONLY), id="ce-answer"),
    pytest.param(lambda b: focal_loss(b, 2.0), id="fl"),
    pytest.param(lambda b: focal_loss(b, 0.0, ANSWER_ONLY), id="fl-gamma0"),
    pytest.param(lambda b: dice_loss(b, ANSWER_ONLY), id="dl"),
    pytest.param(lambda b: self_adjusting_dice_loss(b), id="sadl"),
    pytest.param(lambda b: generalized_dice_loss(b), id="gdl"),
    pytest.param(lambda b: lovasz_loss(b), id="ll"),
    *(
        pytest.param(
            lambda b, kind=kind, mix=mix: combined_loss(b, LossConfig(mix, auxiliary_kind=kind)),
            id=f"combined-{kind.value}-{mix}",
        )
        for kind in AuxiliaryKind
        for mix in (0.0, 0.6, 1.0)
    ),
]


class TestLazyGradient:
    @pytest.mark.parametrize("loss", LAZY_CASES)
    def test_gradient_ignores_later_changes_to_the_batch(self, loss):
        batch = random_batch(7, n=10)
        copy = LogitBatch(batch.logits.copy(), batch.targets.copy(), batch.role_mask.copy())
        result = loss(batch)
        rng = np.random.default_rng(8)
        batch.logits[:] = rng.standard_normal(batch.logits.shape)
        batch.targets[:] = rng.integers(0, batch.logits.shape[1], len(batch.targets))
        batch.role_mask[:] = batch.role_mask[::-1].copy()
        expected = loss(copy)
        assert result.value == expected.value
        assert np.array_equal(result.gradient, expected.gradient)

    @pytest.mark.parametrize("loss", LAZY_CASES)
    def test_every_read_returns_the_same_array(self, loss):
        result = loss(random_batch(3))
        gradient = result.gradient
        first = gradient.copy()
        assert result.gradient is gradient
        assert replace(result, value=0.0).gradient is gradient
        assert np.array_equal(gradient, first)

    def test_first_read_releases_what_the_backward_holds(self):
        class Buffer:
            pass

        buffer = Buffer()
        held = weakref.ref(buffer)
        result = LossResult(0.0, lambda buffer=buffer: np.zeros(1))
        del buffer
        assert held() is not None
        result.gradient
        assert held() is None

    def test_value_only_combined_call_runs_no_branch_backward(self, monkeypatch):
        built = []

        def counted(loss):
            def call(*args, **kwargs):
                result = loss(*args, **kwargs)

                def backward():
                    built.append(loss.__name__)
                    return result.backward()

                return replace(result, backward=backward)

            return call

        monkeypatch.setattr(losses, "ce_loss", counted(losses.ce_loss))
        monkeypatch.setattr(losses, "lovasz_loss", counted(losses.lovasz_loss))
        result = combined_loss(random_batch(0), LossConfig(auxiliary_kind=AuxiliaryKind.LOVASZ))
        assert built == []
        gradient = result.gradient
        assert built == ["ce_loss", "lovasz_loss"]
        assert result.gradient is gradient
        assert built == ["ce_loss", "lovasz_loss"]


class TestMaskingInvariants:
    def test_permutation_invariance_within_role(self):
        batch = random_batch(5)
        rng = np.random.default_rng(99)
        perm = np.concatenate([rng.permutation(4), 4 + rng.permutation(4)])
        shuffled = LogitBatch(
            batch.logits[perm], batch.targets[perm], batch.role_mask[perm]
        )
        for fn in (
            lambda b: ce_loss(b).value,
            lambda b: focal_loss(b, gamma=2.0).value,
            lambda b: dice_loss(b).value,
            lambda b: generalized_dice_loss(b).value,
            lambda b: self_adjusting_dice_loss(b).value,
            lambda b: lovasz_loss(b).value,
        ):
            assert fn(batch) == pytest.approx(fn(shuffled), rel=1e-12)

    def test_pad_rows_change_nothing(self):
        batch = random_batch(6)
        padded = LogitBatch(
            np.vstack([batch.logits, np.zeros((3, 17))]),
            np.concatenate([batch.targets, np.zeros(3, dtype=np.int64)]),
            np.concatenate([batch.role_mask, np.full(3, int(Role.PAD))]),
        )
        for fn in (ce_loss, dice_loss, self_adjusting_dice_loss, lovasz_loss):
            a = fn(batch)
            b = fn(padded)
            assert a.value == b.value
            assert np.array_equal(b.gradient[-3:], np.zeros((3, 17)))
            assert np.array_equal(a.gradient, b.gradient[:-3])

    def test_all_classes_empty_policy(self):
        # class 2 has no target mass, so generalized Dice drops it from both
        # sums instead of weighting it by 1/0
        probs = np.full((2, 3), 1.0 / 3.0)
        batch = batch_from_probs(probs, np.array([0, 1]), np.array([1, 1]))
        value = generalized_dice_loss(batch)
        assert np.isfinite(value.value)


@st.composite
def tied_batches(draw):
    """Random batches of up to 24 positions with some rows duplicated exactly."""
    n = draw(st.integers(1, 24))
    vocab = draw(st.integers(2, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.standard_normal((n, vocab))
    targets = rng.integers(0, vocab, n)
    roles = rng.integers(0, 3, n)
    for _ in range(draw(st.integers(0, n // 2))):
        src, dst = rng.integers(0, n, 2)
        logits[dst], targets[dst], roles[dst] = logits[src], targets[src], roles[src]
    roles[draw(st.integers(0, n - 1))] = int(Role.ANSWER)
    return LogitBatch(logits, targets, roles)


@settings(max_examples=150, deadline=None)
@given(batch=tied_batches(), roles=st.sampled_from([FULL_CONTEXT, ANSWER_ONLY]))
def test_region_losses_match_per_class_references(batch, roles):
    cases = [
        (dice_loss(batch, roles), per_class_reference(batch, roles, soft_dice_term)),
        (
            self_adjusting_dice_loss(batch, roles),
            per_class_reference(batch, roles, self_adjusting_dice_term),
        ),
        (lovasz_loss(batch, roles), per_class_reference(batch, roles, lovasz_softmax_term)),
        (generalized_dice_loss(batch, roles), generalized_dice_reference(batch, roles)),
    ]
    for result, (value, gradient) in cases:
        assert abs(result.value - value) <= 1e-12
        assert np.max(np.abs(result.gradient - gradient)) <= 1e-12


class TestLovaszWeightColumns:
    def test_columns_match_one_dimensional_weights(self):
        rng = np.random.default_rng(5)
        gt = rng.integers(0, 2, size=(9, 6)).astype(np.float64)
        gt[0] = 1.0
        weights = lovasz_grad_weights(gt)
        for k in range(gt.shape[1]):
            assert np.array_equal(weights[:, k], lovasz_grad_weights(gt[:, k]))

    def test_rejects_three_dimensional_input(self):
        with pytest.raises(DataError, match="must be a nonempty 1-d or 2-d array"):
            lovasz_grad_weights(np.ones((2, 2, 2)))


# focal with gamma 0 is cross-entropy, which must take the shared softmax too
ONE_SOFTMAX_CONFIGS = [
    *(pytest.param(LossConfig(0.6, auxiliary_kind=kind), id=kind.value) for kind in AuxiliaryKind),
    pytest.param(LossConfig(0.3, gamma=0.0, auxiliary_kind=AuxiliaryKind.FOCAL), id="fl-gamma0"),
]


@pytest.mark.parametrize("config", ONE_SOFTMAX_CONFIGS)
def test_combined_loss_runs_one_softmax_for_both_branches(monkeypatch, config):
    shapes = []

    def counted(logits):
        shapes.append(logits.shape)
        return softmax(logits)

    monkeypatch.setattr(losses, "softmax", counted)
    batch = random_batch(4)
    result = combined_loss(batch, config)
    result.gradient
    assert shapes == [batch.logits.shape]


# Out-of-place oracles of the in-place loss code: a fresh array per
# operation, the row selection by np.isin, and scatters into zero buffers.


def assert_same_bits(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert (new.dtype, new.shape) == (old.dtype, old.shape)
    assert new.tobytes() == old.tobytes()


def selected_oracle(batch, roles):
    return np.flatnonzero(np.isin(batch.role_mask, [int(r) for r in roles]))


def softmax_oracle(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def scatter_oracle(batch, idx, grad_sel):
    grad = np.zeros_like(batch.logits)
    grad[idx] = grad_sel
    return grad


def ce_oracle(batch, roles):
    idx = selected_oracle(batch, roles)
    probs = softmax_oracle(batch.logits[idx])
    rows = np.arange(idx.size)
    targets = batch.targets[idx]
    values = -np.log(np.clip(probs[rows, targets], PROB_FLOOR, 1.0))
    scale = 1.0 / idx.size
    grad_sel = probs.copy()
    grad_sel[rows, targets] -= 1.0
    grad_sel *= scale
    return float(values.sum() * scale), scatter_oracle(batch, idx, grad_sel)


AUXILIARY_ORACLE = {
    AuxiliaryKind.FOCAL: lambda b, c: focal_loss(b, c.gamma, ANSWER_ONLY),
    AuxiliaryKind.DICE: lambda b, c: dice_loss(b, ANSWER_ONLY),
    AuxiliaryKind.GENERALIZED_DICE: lambda b, c: generalized_dice_loss(b, ANSWER_ONLY),
    AuxiliaryKind.SELF_ADJUSTING_DICE: lambda b, c: self_adjusting_dice_loss(b, ANSWER_ONLY),
    AuxiliaryKind.LOVASZ: lambda b, c: lovasz_loss(b, ANSWER_ONLY),
}


def combined_oracle(batch, config):
    value = 0.0
    gradient = np.zeros_like(batch.logits)
    if config.mix > 0.0:
        ce = ce_loss(batch, FULL_CONTEXT)
        value += config.mix * ce.value
        gradient += config.mix * ce.gradient
    if config.mix < 1.0 and config.auxiliary_kind is not AuxiliaryKind.NONE:
        aux = AUXILIARY_ORACLE[config.auxiliary_kind](batch, config)
        value += (1.0 - config.mix) * aux.value
        gradient += (1.0 - config.mix) * aux.gradient
    return value, gradient


# logits scaled by 1e3 underflow the softmax to exact zeros and ones, which
# is where a signed zero can appear in a gradient
@settings(max_examples=200, deadline=None)
@given(
    batch=tied_batches(),
    scale=st.sampled_from([1.0, 1e3]),
    kind=st.sampled_from(list(AuxiliaryKind)),
    mix=st.sampled_from([0.0, 0.6, 1.0]),
)
def test_in_place_losses_match_out_of_place_oracles(batch, scale, kind, mix):
    batch = LogitBatch(batch.logits * scale, batch.targets, batch.role_mask)
    assert_same_bits(softmax(batch.logits), softmax_oracle(batch.logits))
    for roles in (FULL_CONTEXT, ANSWER_ONLY, (Role.INSTRUCTION,)):
        idx = selected_oracle(batch, roles)
        if idx.size == 0:
            with pytest.raises(DataError, match="no positions with roles"):
                _selected(batch, roles)
            continue
        assert_same_bits(_selected(batch, roles), idx)
        result = ce_loss(batch, roles)
        value, gradient = ce_oracle(batch, roles)
        assert_same_bits(result.value, value)
        assert_same_bits(result.gradient, gradient)
    config = LossConfig(mix=mix, auxiliary_kind=kind)
    result = combined_loss(batch, config)
    value, gradient = combined_oracle(batch, config)
    assert_same_bits(result.value, value)
    assert_same_bits(result.gradient, gradient)


@pytest.mark.parametrize("mix", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("kind", list(AuxiliaryKind), ids=lambda kind: kind.value)
@settings(max_examples=25, deadline=None)
@given(batch=tied_batches(), pad_at=st.integers(0, 24))
def test_combined_loss_given_probs_matches_the_batch_call(batch, pad_at, kind, mix):
    # a PAD row inserted anywhere, and the softmax of the rows combined_loss
    # selects: instruction and answer rows, or answer rows alone at mix 0
    pad_at = min(pad_at, batch.logits.shape[0])
    batch = LogitBatch(
        np.insert(batch.logits, pad_at, 3.0, axis=0),
        np.insert(batch.targets, pad_at, 1),
        np.insert(batch.role_mask, pad_at, int(Role.PAD)),
    )
    config = LossConfig(mix=mix, auxiliary_kind=kind)
    idx = selected_oracle(batch, FULL_CONTEXT if mix > 0.0 else ANSWER_ONLY)
    whole = combined_loss(batch, config)
    rows = combined_loss(batch, config, probs=softmax(batch.logits[idx]))
    assert_same_bits(rows.value, whole.value)
    assert_same_bits(rows.gradient, whole.gradient[idx])


# Dense oracles of the focal and region kernels: a zero d(value)/dp buffer over
# the whole vocabulary, the classes from np.unique, a full-row softmax
# backward, and the Lovász sort applied with the along-axis calls.


def softmax_backward_oracle(probs, dprobs):
    inner = np.sum(dprobs * probs, axis=1, keepdims=True)
    return probs * (dprobs - inner)


def focal_oracle(batch, gamma, roles):
    idx = selected_oracle(batch, roles)
    probs = softmax_oracle(batch.logits[idx])
    rows = np.arange(idx.size)
    targets = batch.targets[idx]
    p_t = probs[rows, targets]
    p_c = np.clip(p_t, PROB_FLOOR, 1.0)
    log_pt = np.log(p_c)
    miss = 1.0 - p_t
    values = -(miss**gamma) * log_pt
    scale = 1.0 / idx.size
    dv_dp = np.zeros_like(p_t)
    hit = miss > 0.0
    dv_dp[hit] = gamma * miss[hit] ** (gamma - 1.0) * log_pt[hit] - (miss[hit] ** gamma) / p_c[hit]
    dprobs = np.zeros_like(probs)
    dprobs[rows, targets] = dv_dp * scale
    grad = scatter_oracle(batch, idx, softmax_backward_oracle(probs, dprobs))
    return float(values.sum() * scale), grad


def lovasz_term_oracle(p, y):
    errors = np.where(y > 0, 1.0 - p, p)
    perm = np.argsort(-errors, axis=0, kind="stable")
    weights = lovasz_grad_weights(np.take_along_axis(y, perm, axis=0))
    derr = np.empty_like(errors)
    np.put_along_axis(derr, perm, weights, axis=0)
    terms = np.sum(np.take_along_axis(errors, perm, axis=0) * weights, axis=0)
    return terms.mean(), derr * (1.0 - 2.0 * y) / terms.size


@st.composite
def lovasz_columns(draw, prefix):
    """(p, y) as the region path hands them to the Lovász term: the columns
    of the classes present in a softmax, and their one-hot targets. With
    ``prefix``, n * k is above the full-sort size, else not. Rows are
    duplicated, and some background entries are set to the column's
    smallest foreground error, just before and just after the last
    foreground row that has it."""
    if prefix:
        n = draw(st.integers(28, 1024))
        k = draw(st.integers(losses._LOVASZ_FULL_SORT_MAX // n + 1, min(n, 300)))
    else:
        n = draw(st.integers(1, losses._LOVASZ_FULL_SORT_MAX))
        k = draw(st.integers(1, min(n, losses._LOVASZ_FULL_SORT_MAX // n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vocab = k + draw(st.integers(0, 64))
    logits = rng.standard_normal((n, vocab)) * draw(st.sampled_from([1.0, 30.0, 1e3]))
    present = np.sort(rng.choice(vocab, k, replace=False))
    # every class appears, then any of them, on a Zipf-like skew
    slots = np.concatenate([rng.permutation(k), rng.zipf(1.5, n - k) % k])
    # the first k rows keep one of each class
    for _ in range(draw(st.integers(0, (n - k) // 2))):
        src, dst = rng.integers(0, n), rng.integers(k, n)
        logits[dst], slots[dst] = logits[src], slots[src]
    targets = present[slots]
    p = softmax(logits)[:, present]
    y = (targets[:, None] == present).astype(np.float64)
    for c in rng.choice(k, draw(st.integers(0, min(k, 8))), replace=False):
        fg = y[:, c].nonzero()[0]
        errors = 1.0 - p[fg, c]
        last = fg[errors == errors.min()].max()
        bg = (y[:, c] == 0).nonzero()[0]
        p[bg[bg < last][-1:], c] = errors.min()
        p[bg[bg > last][:1], c] = errors.min()
    return p, y


@settings(max_examples=100, deadline=None)
@given(data=st.data(), prefix=st.booleans())
def test_lovasz_term_matches_the_dense_oracle(data, prefix):
    p, y = data.draw(lovasz_columns(prefix))
    n, k = p.shape
    assert (n * k > losses._LOVASZ_FULL_SORT_MAX) == prefix
    value, backward = losses._lovasz_softmax_term(p, y)
    oracle_value, oracle_dp = lovasz_term_oracle(p, y)
    assert_same_bits(value, oracle_value)
    assert_same_bits(backward(), oracle_dp)


# One class makes every row foreground, so its prefix is the whole column,
# which NumPy sums pairwise rather than row by row.
def test_lovasz_term_of_one_large_class_matches_the_dense_oracle():
    p = np.random.default_rng(0).random((1000, 1))
    value, backward = losses._lovasz_softmax_term(p, np.ones((1000, 1)))
    oracle_value, oracle_dp = lovasz_term_oracle(p, np.ones((1000, 1)))
    assert_same_bits(value, oracle_value)
    assert_same_bits(backward(), oracle_dp)


@pytest.mark.parametrize("rank", [0, 2])
def test_train_with_the_lovasz_term_matches_the_dense_oracle(monkeypatch, rank):
    config = TrainConfig(
        steps=12, batch_size=8, warmup_steps=3, eval_interval=4, adapter_rank=rank,
        loss=LossConfig(mix=0.6, auxiliary_kind=AuxiliaryKind.LOVASZ),
    )
    corpus = make_synthetic_corpus(0, 256, 1.0, 32, instruction_len=8)
    val_corpus = make_synthetic_corpus(1, 256, 1.0, 16, instruction_len=8)
    runs = [train(config, corpus, val_corpus)]
    shapes = []

    def dense(p, y):
        shapes.append(p.shape)
        value, dp = lovasz_term_oracle(p, y)
        return value, lambda: dp

    monkeypatch.setattr(losses, "_lovasz_softmax_term", dense)
    runs.append(train(config, corpus, val_corpus))
    # the training steps and the validation passes both take the prefix path
    assert all(n * k > losses._LOVASZ_FULL_SORT_MAX for n, k in shapes)
    assert {n for n, _ in shapes} == {64, 128}
    new, old = runs
    assert new.records == old.records
    assert (new.best_step, new.best_val_loss) == (old.best_step, old.best_val_loss)
    for name in new.final_model.trainable:
        assert_same_bits(getattr(new.final_model, name), getattr(old.final_model, name))
        assert_same_bits(getattr(new.best_model, name), getattr(old.best_model, name))


def region_oracle(batch, roles, term):
    """The value, the gradient, and the largest row sum of |d(value)/dp * p|."""
    idx = selected_oracle(batch, roles)
    probs = softmax_oracle(batch.logits[idx])
    targets = batch.targets[idx]
    classes = np.unique(targets)
    y = (targets[:, None] == classes[None, :]).astype(np.float64)
    value, dp = term(probs[:, classes], y)
    if callable(dp):  # the private terms return a function that builds d(value)/dp
        dp = dp()
    dprobs = np.zeros_like(probs)
    dprobs[:, classes] = dp
    grad = scatter_oracle(batch, idx, softmax_backward_oracle(probs, dprobs))
    return float(value), grad, float(np.abs(dprobs * probs).sum(axis=1).max())


def region_cases(batch, roles):
    """(loss result, dense oracle) for each region loss."""
    yield dice_loss(batch, roles), region_oracle(batch, roles, _dice_term)
    yield (
        self_adjusting_dice_loss(batch, roles),
        region_oracle(batch, roles, _self_adjusting_dice_term),
    )
    yield lovasz_loss(batch, roles), region_oracle(batch, roles, lovasz_term_oracle)
    yield generalized_dice_loss(batch, roles), region_oracle(batch, roles, _generalized_dice_term)


# The kernels sum the softmax backward's inner product over the gradient-
# carrying columns only. Focal has one such column per row, so its gradient
# keeps every bit; the region kernels sum several in another order, so
# their gradients may move by rounding, bounded against the magnitude of the
# summed terms (a saturated softmax can leave a gradient that is all
# rounding, where a bound against the gradient itself would mean nothing).
@settings(max_examples=150, deadline=None)
@given(
    batch=tied_batches(),
    scale=st.sampled_from([1.0, 1e3]),
    roles=st.sampled_from([FULL_CONTEXT, ANSWER_ONLY]),
    gamma=st.sampled_from([0.5, 2.0]),
)
def test_sparse_backward_matches_dense_oracles(batch, scale, roles, gamma):
    batch = LogitBatch(batch.logits * scale, batch.targets, batch.role_mask)
    result = focal_loss(batch, gamma, roles)
    value, gradient = focal_oracle(batch, gamma, roles)
    assert_same_bits(result.value, value)
    assert_same_bits(result.gradient, gradient)
    for result, (value, gradient, terms) in region_cases(batch, roles):
        assert_same_bits(result.value, value)
        bound = 1e-15 * max(np.abs(gradient).max(), terms)
        assert np.abs(result.gradient - gradient).max() <= bound


@pytest.mark.parametrize("kind", list(AuxiliaryKind))
def test_combined_loss_peak_allocation_is_at_most_2_5_logit_arrays(kind):
    rng = np.random.default_rng(0)
    n, vocab = 128, 1024
    roles = np.repeat([int(Role.INSTRUCTION), int(Role.ANSWER)], n // 2)
    batch = LogitBatch(rng.standard_normal((n, vocab)), rng.integers(0, vocab, n), roles)
    config = LossConfig(mix=0.6, auxiliary_kind=kind)
    combined_loss(batch, config).gradient
    tracemalloc.start()
    try:
        combined_loss(batch, config).gradient
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * batch.logits.nbytes
