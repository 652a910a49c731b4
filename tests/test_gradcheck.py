import math
from dataclasses import replace

import numpy as np
import pytest

from losslab import gradcheck
from losslab.gradcheck import (
    LOSS_NAMES,
    GradCheckReport,
    build_loss_fn,
    check_named_loss,
    finite_difference_check,
)
from losslab.cli import build_parser
from losslab.losses import (
    ANSWER_ONLY,
    FULL_CONTEXT,
    AuxiliaryKind,
    LogitBatch,
    LossConfig,
    ce_loss,
    combined_loss,
    lovasz_loss,
    lovasz_tie_rows,
    softmax,
)


def random_batch(seed, n=8, vocab=17):
    rng = np.random.default_rng(seed)
    return LogitBatch(
        rng.standard_normal((n, vocab)),
        rng.integers(0, vocab, n),
        np.array([0] * (n // 2) + [1] * (n - n // 2)),
    )


class TestFiniteDifference:
    def test_ce_tight_agreement(self):
        report = check_named_loss("ce", random_batch(0))
        assert report.max_rel_error <= 1e-6
        assert report.passed
        assert report.n_checked == 8 * 17

    def test_dice_agreement(self):
        report = check_named_loss("dl", random_batch(0))
        assert report.max_rel_error <= 1e-5

    def test_all_losses_within_tolerance(self):
        for name in LOSS_NAMES:
            for seed in range(5):
                report = check_named_loss(name, random_batch(seed))
                assert report.passed, f"{name} seed {seed}: {report.summary()}"

    def test_rejects_nonpositive_step(self):
        fn, _ = build_loss_fn("ce")
        with pytest.raises(ValueError):
            finite_difference_check(fn, random_batch(0), step=0.0)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_rejects_nonfinite_step(self, step):
        fn, _ = build_loss_fn("ce")
        with pytest.raises(ValueError, match="positive finite"):
            finite_difference_check(fn, random_batch(0), step=step)

    def test_nan_relative_error_fails(self):
        fn, _ = build_loss_fn("ce")

        def nan_valued(batch):
            return replace(fn(batch), value=math.nan)

        report = finite_difference_check(nan_valued, random_batch(0))
        assert math.isnan(report.max_rel_error)
        assert report.worst_coordinate == (0, 0)
        assert not report.passed
        assert report.summary().startswith("FAIL")

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_runs_the_backward_once(self, name):
        fn, _ = build_loss_fn(name)
        calls = {"loss": 0, "backward": 0}

        def counted(batch):
            calls["loss"] += 1
            result = fn(batch)

            def backward():
                calls["backward"] += 1
                return result.backward()

            return replace(result, backward=backward)

        report = finite_difference_check(counted, random_batch(0))
        assert calls == {"loss": 2 * 8 * 17 + 1, "backward": 1}
        assert report.n_checked == 8 * 17

    def test_skipped_rows_are_never_probed(self):
        fn, _ = build_loss_fn("ce")
        calls = []

        def counted(batch):
            calls.append(batch.logits.copy())
            return fn(batch)

        report = finite_difference_check(counted, random_batch(0), skip_rows={0, 1})
        assert len(calls) == 2 * 6 * 17 + 1
        assert all(np.array_equal(logits[:2], calls[0][:2]) for logits in calls)
        assert report.skipped == [(i, k) for i in (0, 1) for k in range(17)]
        assert report.n_checked == 6 * 17
        assert report.worst_coordinate[0] >= 2

    def test_infinite_error_fails_under_an_infinite_tolerance(self):
        assert not GradCheckReport(math.inf, (0, 0), tolerance=math.inf).passed

    def test_unknown_loss_name(self):
        with pytest.raises(ValueError):
            build_loss_fn("nope")

    def test_report_summary_mentions_status(self):
        report = check_named_loss("ce", random_batch(1))
        assert "PASS" in report.summary()
        failing = GradCheckReport(1.0, (0, 0), [], 10, 1e-4)
        assert "FAIL" in failing.summary()

    def test_batch_left_unchanged(self):
        batch = random_batch(2)
        before = batch.logits.copy()
        check_named_loss("combined", batch)
        assert np.array_equal(batch.logits, before)


class TestLovaszTieHandling:
    def duplicated_row_batch(self):
        # two identical rows with the same target tie every class error exactly
        rng = np.random.default_rng(7)
        row = rng.standard_normal(5)
        logits = np.vstack([row, row, rng.standard_normal((2, 5))])
        targets = np.array([1, 1, 2, 3])
        roles = np.ones(4, dtype=np.int64)
        return LogitBatch(logits, targets, roles)

    def test_tie_rows_detected(self):
        batch = self.duplicated_row_batch()
        ties = lovasz_tie_rows(batch, FULL_CONTEXT, 1e-5)
        assert 0 in ties and 1 in ties

    def test_tied_coordinates_skipped_not_failed(self):
        batch = self.duplicated_row_batch()
        report = check_named_loss("ll", batch)
        skipped_rows = {coord[0] for coord in report.skipped}
        assert {0, 1} <= skipped_rows
        assert report.passed, report.summary()

    def test_skipped_coordinates_not_counted(self):
        batch = self.duplicated_row_batch()
        report = check_named_loss("ll", batch)
        assert report.n_checked + len(report.skipped) == batch.logits.size

    def test_far_from_ties_nothing_skipped(self):
        batch = random_batch(3)
        report = check_named_loss("ce", batch)
        assert report.skipped == []


def all_pairs_tie_rows(batch, roles, step):
    """Reference tie detector: compares every pair of errors in each class column."""
    idx = np.flatnonzero(np.isin(batch.role_mask, [int(r) for r in roles]))
    targets = batch.targets[idx]
    flagged = set()
    window = 2.0 * step
    probs = softmax(batch.logits[idx])
    for cls in np.unique(targets):
        fg = targets == cls
        errors = np.where(fg, 1.0 - probs[:, cls], probs[:, cls])
        for i in range(idx.size):
            gaps = np.abs(errors - errors[i])
            gaps[i] = np.inf
            if gaps.min() <= window:
                flagged.add(int(idx[i]))
    return flagged


class TestTieRowsAgainstAllPairs:
    def batches(self, vocab):
        for seed in range(20):
            batch = random_batch(seed, n=12, vocab=vocab)
            yield batch
            logits, targets = batch.logits.copy(), batch.targets.copy()
            logits[[1, 7]], targets[[1, 7]] = logits[0], targets[0]
            yield LogitBatch(logits, targets, batch.role_mask)
        yield LogitBatch(np.zeros((6, vocab)), np.arange(6) % vocab, np.ones(6, dtype=np.int64))
        yield LogitBatch(np.ones((1, vocab)), np.array([1]), np.array([1]))

    def test_multiclass_sets_are_identical(self):
        for batch in self.batches(vocab=9):
            for roles in (FULL_CONTEXT, ANSWER_ONLY):
                for step in (1e-5, 1e-2, 0.1):
                    assert lovasz_tie_rows(batch, roles, step) == all_pairs_tie_rows(
                        batch, roles, step
                    )


class TestLossTables:
    def test_auxiliary_names_match_auxiliary_kinds(self):
        named = set(LOSS_NAMES) - {"ce", "combined"}
        assert named == {kind.value for kind in AuxiliaryKind} - {"none"}

    def test_grad_check_choices_are_all_and_loss_names(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if a.choices and "grad-check" in a.choices)
        loss = next(a for a in sub.choices["grad-check"]._actions if a.dest == "loss")
        assert tuple(loss.choices) == ("all", *LOSS_NAMES)


class TestCombinedVariants:
    def test_combined_defaults_to_a_real_auxiliary(self):
        # NONE would make the combined check degenerate to CE, so the entry
        # is the default mix with the Lovász auxiliary
        fn, ties = build_loss_fn("combined")
        batch = random_batch(4)
        config = LossConfig(auxiliary_kind=AuxiliaryKind.LOVASZ)
        assert fn(batch).value == combined_loss(batch, config).value != ce_loss(batch).value
        assert ties(batch, 1e-5) == lovasz_tie_rows(batch, ANSWER_ONLY, 1e-5)


# the attribute of losslab.gradcheck through which each named check calls its loss
LOSS_ATTRIBUTES = {
    "ce": "ce_loss",
    "fl": "focal_loss",
    "dl": "dice_loss",
    "gdl": "generalized_dice_loss",
    "sadl": "self_adjusting_dice_loss",
    "ll": "lovasz_loss",
    "combined": "combined_loss",
}


@pytest.mark.parametrize("name", LOSS_NAMES)
def test_checks_call_their_loss_by_module_name(name, monkeypatch):
    # tracing rebinds these names on losslab.gradcheck, so a check must look
    # each one up at call time, once per evaluation
    calls = {"loss": 0, "ties": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return call

    attribute = LOSS_ATTRIBUTES[name]
    monkeypatch.setattr(gradcheck, attribute, counted("loss", getattr(gradcheck, attribute)))
    monkeypatch.setattr(gradcheck, "lovasz_tie_rows", counted("ties", lovasz_tie_rows))
    report = check_named_loss(name, random_batch(5, n=3, vocab=5))
    assert calls["loss"] == 2 * report.n_checked + 1
    assert calls["ties"] == (name in ("ll", "combined"))
