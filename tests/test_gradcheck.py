import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import gradcheck
from losslab.gradcheck import (
    LOSS_NAMES,
    GradCheckReport,
    build_loss_fn,
    check_named_loss,
    finite_difference_check,
    merge_reports,
)
from losslab.cli import _gradcheck_batch, build_parser, main
from losslab.losses import (
    ANSWER_ONLY,
    FULL_CONTEXT,
    AuxiliaryKind,
    LogitBatch,
    LossConfig,
    LossResult,
    Role,
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

        def nan_valued(batch, probs=None):
            return replace(fn(batch, probs=probs), value=math.nan)

        report = finite_difference_check(nan_valued, random_batch(0))
        assert math.isnan(report.max_rel_error)
        assert report.worst_coordinate == (0, 0)
        assert not report.passed
        assert report.summary().startswith("FAIL")

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_runs_the_backward_once(self, name):
        fn, _ = build_loss_fn(name)
        calls = {"loss": 0, "backward": 0}

        def counted(batch, probs=None):
            calls["loss"] += 1
            result = fn(batch, probs=probs)

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

        def counted(batch, probs=None):
            calls.append(batch.logits.copy())
            return fn(batch, probs=probs)

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


def assert_same_report(got, expected):
    """Equal down to the bits of the error, a NaN matching only a NaN."""
    def bits(x):
        return "nan" if math.isnan(x) else struct.pack("<d", x)

    assert bits(got.max_rel_error) == bits(expected.max_rel_error)
    assert got.worst_coordinate == expected.worst_coordinate
    assert got.skipped == expected.skipped
    assert got.n_checked == expected.n_checked
    assert got.tolerance == expected.tolerance


def assert_every_split_merges_to(check, n, serial):
    for m in range(n + 1):
        merged = merge_reports(check(range(0, m)), check(range(m, n)))
        assert_same_report(merged, serial)


def whole_batch_scan(loss_fn, batch, skip_rows=None, rows=None):
    """The check as a plain scan: every probe calls the loss on the whole
    perturbed batch, which runs its own softmax of every row it reads."""
    step, tolerance = gradcheck.DEFAULT_STEP, gradcheck.DEFAULT_TOLERANCE
    n, vocab = batch.logits.shape
    analytic = loss_fn(batch).gradient
    logits = batch.logits.copy()
    max_rel, worst, skipped, checked = 0.0, None, [], 0
    for i in range(n) if rows is None else rows:
        if i in (skip_rows or set()):
            skipped.extend((i, k) for k in range(vocab))
            continue
        for k in range(vocab):
            values = []
            for h in (step, -step):
                moved = logits.copy()
                moved[i, k] += h
                values.append(loss_fn(LogitBatch(moved, batch.targets, batch.role_mask)).value)
            numeric = (values[0] - values[1]) / (2.0 * step)
            a = analytic[i, k]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), gradcheck.DENOM_FLOOR)
            checked += 1
            if rel > max_rel or (math.isnan(rel) and not math.isnan(max_rel)):
                max_rel, worst = rel, (i, k)
    return GradCheckReport(max_rel, worst, skipped, checked, tolerance)


@st.composite
def split_batches(draw):
    """Small batches with PAD rows and, for Lovász, rows that repeat row 0
    (an exact tie, so those rows are skipped)."""
    n = draw(st.integers(1, 6))
    vocab = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.standard_normal((n, vocab)) * draw(st.sampled_from([1.0, 5.0]))
    targets = rng.integers(0, vocab, n)
    roles = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    roles[draw(st.integers(0, n - 1))] = 1  # one ANSWER row, so no batch is all PAD
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        logits[i], targets[i] = logits[0], targets[0]
    return LogitBatch(logits, targets, roles)


class TestRowSplit:
    """The reports of two adjacent row ranges merge into the serial report."""

    @settings(max_examples=15, deadline=None)
    @given(batch=split_batches())
    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_named_losses(self, batch, name):
        # each range's report is the whole-batch scan's, and the reports of
        # every split merge into the serial one
        n = batch.logits.shape[0]
        fn, tie_fn = build_loss_fn(name)
        skip = tie_fn(batch, gradcheck.DEFAULT_STEP) if tie_fn else None
        serial = check_named_loss(name, batch)
        assert_same_report(serial, whole_batch_scan(fn, batch, skip_rows=skip))
        for m in range(n + 1):
            for rows in (range(0, m), range(m, n)):
                expected = whole_batch_scan(fn, batch, skip_rows=skip, rows=rows)
                assert_same_report(check_named_loss(name, batch, rows=rows), expected)
        assert_every_split_merges_to(lambda rows: check_named_loss(name, batch, rows=rows), n, serial)

    @pytest.mark.parametrize("name", LOSS_NAMES)
    def test_each_row_is_probed_beside_the_unperturbed_softmax(self, name):
        # the probes of row i see every other row at its unperturbed
        # softmax, so the probes of row i + 1 see row i restored
        fn, _ = build_loss_fn(name)
        batch = random_batch(6, n=4, vocab=5)
        unperturbed = softmax(batch.logits)
        probes = []

        def recorded(b, probs=None):
            if probs is not None:
                probes.append((b.logits.copy(), probs.copy()))
            return fn(b, probs=probs)

        finite_difference_check(recorded, batch)
        assert len(probes) == 2 * 4 * 5
        for number, (logits, probs) in enumerate(probes):
            i = number // (2 * 5)
            others = np.arange(4) != i
            assert probs[others].tobytes() == unperturbed[others].tobytes()
            assert probs[i].tobytes() == softmax(logits[i : i + 1])[0].tobytes()
            assert probs[i].tobytes() != unperturbed[i].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        batch=split_batches(),
        values=st.lists(st.sampled_from([0.0, 1e-7, 5e-7, 2.0, -2.0, math.nan]), min_size=24),
        nan_coordinates=st.sets(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=3),
    )
    def test_equal_maxima_and_nans(self, batch, values, nan_coordinates):
        # The value is 0 except at probes of a chosen coordinate, where it is
        # NaN, so each relative error is |g| / max(|g|, DENOM_FLOOR) of a
        # gradient drawn from a few values: 0, 0.1, 0.5, 1 or NaN, with ties
        # everywhere. The first and last coordinates share the largest
        # magnitude, so every proper split has that maximum in both halves.
        n, vocab = batch.logits.shape
        grad = np.array(values[: n * vocab]).reshape(n, vocab)
        grad[0, 0] = grad[-1, -1] = np.nanmax(np.abs(np.r_[values[: n * vocab], 0.0]))
        original = batch.logits.copy()
        nan_at = [(i, k) for i, k in nan_coordinates if i < n and k < vocab]

        def table_loss(b, probs=None):
            moved = b.logits != original
            return LossResult(math.nan if any(moved[c] for c in nan_at) else 0.0, lambda: grad)

        serial = finite_difference_check(table_loss, batch)
        assert_every_split_merges_to(
            lambda rows: finite_difference_check(table_loss, batch, rows=rows), n, serial
        )

    @pytest.mark.parametrize(
        "rows", [range(0, 9), range(-1, 3), range(3, 2), range(0, 8, 2), range(8, 0, -1)]
    )
    def test_rows_outside_the_batch_are_rejected(self, rows):
        fn, _ = build_loss_fn("ce")
        with pytest.raises(ValueError, match="rows must be consecutive rows of the batch's 8"):
            finite_difference_check(fn, random_batch(0), rows=rows)

    def test_rows_limit_the_probes_and_the_skipped_list(self):
        fn, _ = build_loss_fn("ce")
        report = finite_difference_check(fn, random_batch(0), skip_rows={1, 5}, rows=range(1, 4))
        assert report.skipped == [(1, k) for k in range(17)]
        assert report.n_checked == 2 * 17
        assert report.worst_coordinate[0] in (2, 3)
        empty = finite_difference_check(fn, random_batch(0), rows=range(4, 4))
        assert (empty.max_rel_error, empty.worst_coordinate, empty.n_checked) == (0.0, None, 0)


def test_a_check_that_probes_nothing_fails():
    # a step as wide as the whole error range flags every row as a tie
    report = check_named_loss("ll", random_batch(0, n=4, vocab=4), step=0.5)
    assert report.n_checked == 0 and len(report.skipped) == 16
    assert report.summary() == "FAIL max_rel_error=0.000e+00 worst=- checked=0 skipped=16"


FROZEN = json.loads(
    (Path(__file__).parent / "fixtures" / "gradcheck_frozen.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "case", FROZEN, ids=lambda case: " ".join(case["argv"][1:-2]) or "default"
)
def test_grad_check_matches_the_frozen_fixture(case, tmp_path, monkeypatch, capsys):
    # stdout, exit status and --out of runs recorded by make_gradcheck_frozen.py
    monkeypatch.chdir(tmp_path)
    status = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert status == case["exit"]
    assert (tmp_path / case["argv"][-1]).read_bytes() == case["out"].encode("utf-8")


def test_the_benchmark_reference_counts_hold():
    # the gradcheck-all workload fails a run whose checked/skipped counts
    # differ from the ones perfbench/reference.json records for its batch
    recorded = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
    )["gradcheck"]
    for positions, seeds in ((4, range(4)), (16, range(2))):
        for seed in seeds:
            batch = _gradcheck_batch(seed, positions, 64)
            counts = {}
            for name in LOSS_NAMES:
                report = check_named_loss(name, batch)
                counts[name] = [report.n_checked, len(report.skipped)]
            assert counts == recorded[f"{positions}x64"][str(seed)], (positions, seed)


@pytest.fixture(scope="module")
def benchmark_sized_batch():
    """512 positions x 1024 classes, the size the benchmark trains at: normal
    logits, Zipf(1.1) targets and instruction, answer and PAD roles."""
    rng = np.random.default_rng(0)
    n, vocab = 512, 1024
    roles = rng.choice([int(Role.INSTRUCTION), int(Role.ANSWER), int(Role.PAD)], n)
    targets = np.minimum(rng.zipf(1.1, n) - 1, vocab - 1)
    return LogitBatch(rng.standard_normal((n, vocab)), targets, roles)


def directional_error(loss_fn, batch, directions=6, eps=1e-4):
    """The largest relative error between the central difference of the loss
    along a standard-normal direction v and <gradient, v>, over a few v."""
    gradient = loss_fn(batch).gradient
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(directions):
        v = rng.standard_normal(batch.logits.shape)
        plus, minus = (
            loss_fn(LogitBatch(batch.logits + h * v, batch.targets, batch.role_mask)).value
            for h in (eps, -eps)
        )
        numeric, analytic = (plus - minus) / (2 * eps), float(np.vdot(gradient, v))
        worst = max(worst, abs(numeric - analytic) / max(abs(numeric), abs(analytic)))
    return worst


AUXILIARY_KINDS = [kind for kind in AuxiliaryKind if kind is not AuxiliaryKind.NONE]


class TestDirectionalAtBenchmarkSize:
    """Gradients agree with finite differences along random directions at
    512 x 1024, where the Lovász loss takes its prefix path and a
    per-coordinate check would need about a million loss calls."""

    @pytest.mark.parametrize("name", [n for n in LOSS_NAMES if n != "combined"])
    def test_each_loss(self, benchmark_sized_batch, name):
        loss_fn, _ = build_loss_fn(name)
        assert directional_error(loss_fn, benchmark_sized_batch) <= 1e-5

    # at mix 0.6 the cross-entropy part dominates, so the bound is tighter
    @pytest.mark.parametrize("mix, bound", [(0.0, 1e-5), (0.6, 1e-6)])
    @pytest.mark.parametrize("kind", AUXILIARY_KINDS, ids=lambda kind: kind.value)
    def test_combined(self, benchmark_sized_batch, kind, mix, bound):
        config = LossConfig(mix, auxiliary_kind=kind)
        error = directional_error(lambda b: combined_loss(b, config), benchmark_sized_batch)
        assert error <= bound
