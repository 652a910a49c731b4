import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab.metrics import (
    CSV_COLUMNS,
    LOWER_IS_BETTER,
    EmptyRecordSet,
    SampleMetrics,
    StepSet,
    aggregate_report,
    error_typology,
    exact_match,
    step_overlap_metrics,
)
from losslab.parsing import (
    Operand,
    RationaleFormat,
    ReasoningStep,
    canonicalize_step,
    parse_rationale,
)

GSM8K = RationaleFormat.GSM8K


def steps_of(text):
    return parse_rationale(text + " #### 0", GSM8K).steps


def sets_for(pred_text, gold_text, commutative):
    ps = StepSet.from_steps(steps_of(pred_text), commutative=commutative)
    gts = StepSet.from_steps(steps_of(gold_text), commutative=commutative)
    return ps, gts


class TestExactMatch:
    def test_numeric_string_pairs(self):
        assert exact_match("35", "35")
        assert exact_match("270.0", "270")
        assert exact_match("1,000", "1000")

    def test_tolerance_boundary(self):
        assert not exact_match("270", "270.00001")
        assert exact_match("270", "270.0000001")

    def test_letters_case_insensitive(self):
        assert exact_match("C", "c")
        assert not exact_match("B", "C")

    def test_mixed_kinds_never_match(self):
        assert not exact_match("abc", "1")

    def test_missing_side(self):
        assert not exact_match(None, "5")
        assert not exact_match("5", None)

    def test_non_finite_answers_compare_as_text(self):
        assert exact_match("nan", "NaN")
        assert exact_match("inf", "inf")
        assert not exact_match("inf", "nan")
        assert not exact_match("inf", "1e999")
        assert exact_match("9" * 500, "9" * 500)
        assert not exact_match("9" * 500, "9" * 499 + "8")


class TestOverlap:
    def test_one_common_of_three(self):
        # PS = {a, b}, GTS = {b, c}
        ps, gts = sets_for("<<1+1>> <<2+2>>", "<<2+2>> <<3+3>>", False)
        m = step_overlap_metrics(ps, gts, commutative=False)
        assert m.iou == pytest.approx(1 / 3)
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(0.5)
        assert m.dice == pytest.approx(0.5)

    def test_identical_sets(self):
        ps, gts = sets_for("<<1+1>> <<2*3>>", "<<1+1>> <<2*3>>", False)
        m = step_overlap_metrics(ps, gts, commutative=False)
        assert (m.iou, m.precision, m.recall, m.dice) == (1.0, 1.0, 1.0, 1.0)

    def test_commutative_flag_difference(self):
        ps, gts = sets_for("<<5*7=35>>", "<<7*5=35>>", False)
        assert step_overlap_metrics(ps, gts, commutative=False).iou == 0.0
        ps_c, gts_c = sets_for("<<5*7=35>>", "<<7*5=35>>", True)
        assert step_overlap_metrics(ps_c, gts_c, commutative=True).iou == 1.0

    def test_both_empty_scores_one(self):
        ps, gts = sets_for("", "", False)
        m = step_overlap_metrics(ps, gts, commutative=False)
        assert (m.iou, m.precision, m.recall, m.dice) == (1.0, 1.0, 1.0, 1.0)

    def test_one_empty_scores_zero(self):
        ps, gts = sets_for("", "<<1+1>>", False)
        m = step_overlap_metrics(ps, gts, commutative=False)
        assert (m.iou, m.precision, m.recall, m.dice) == (0.0, 0.0, 0.0, 0.0)

    def test_flag_mismatch_rejected(self):
        ps, _ = sets_for("<<1+1>>", "<<1+1>>", False)
        _, gts = sets_for("<<1+1>>", "<<1+1>>", True)
        with pytest.raises(ValueError):
            step_overlap_metrics(ps, gts, commutative=False)

    def test_multiset_semantics(self):
        # duplicated step must find two partners to fully match
        ps, gts = sets_for("<<1+1>> <<1+1>>", "<<1+1>>", False)
        m = step_overlap_metrics(ps, gts, commutative=False)
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(1.0)

    def test_counts_invariants(self):
        ps, gts = sets_for("<<1+1>> <<2+2>> <<2+2>>", "<<2+2>> <<9*9>>", False)
        # tp 1, fp 2, fn 1
        m = step_overlap_metrics(ps, gts, commutative=False)
        assert (m.iou, m.precision, m.recall, m.dice) == (1 / 4, 1 / 3, 1 / 2, 2 / 5)


def random_step_multiset(rng):
    ops = ["+", "-", "*", "/"]
    steps = []
    for _ in range(int(rng.integers(0, 6))):
        op = str(rng.choice(ops))
        a = float(rng.integers(1, 8))
        b = float(rng.integers(1, 8))
        steps.append(ReasoningStep(op, (Operand.literal(a), Operand.literal(b))))
    return steps


class TestOverlapProperties:
    def test_symmetry_precision_recall(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            a = StepSet.from_steps(random_step_multiset(rng), commutative=False)
            b = StepSet.from_steps(random_step_multiset(rng), commutative=False)
            ab = step_overlap_metrics(a, b, commutative=False)
            ba = step_overlap_metrics(b, a, commutative=False)
            assert ab.recall == pytest.approx(ba.precision)

    def test_dice_iou_identity_1000_pairs(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            a = StepSet.from_steps(random_step_multiset(rng), commutative=False)
            b = StepSet.from_steps(random_step_multiset(rng), commutative=False)
            m = step_overlap_metrics(a, b, commutative=False)
            assert m.dice == pytest.approx(2 * m.iou / (1 + m.iou), abs=1e-12)

    def test_ciou_at_least_iou_1000_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            raw_a = random_step_multiset(rng)
            raw_b = random_step_multiset(rng)
            plain = step_overlap_metrics(
                StepSet.from_steps(raw_a, commutative=False),
                StepSet.from_steps(raw_b, commutative=False),
                commutative=False,
            ).iou
            commut = step_overlap_metrics(
                StepSet.from_steps(raw_a, commutative=True),
                StepSet.from_steps(raw_b, commutative=True),
                commutative=True,
            ).iou
            assert commut >= plain - 1e-12

    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            a = StepSet.from_steps(random_step_multiset(rng), commutative=True)
            b = StepSet.from_steps(random_step_multiset(rng), commutative=True)
            m = step_overlap_metrics(a, b, commutative=True)
            t = error_typology(a, b)
            for v in (m.iou, m.precision, m.recall, m.dice,
                      t.extra_rate, t.missing_rate, t.wrong_operator, t.inverted_operands):
                assert 0.0 <= v <= 1.0 + 1e-12


# operands from a small range, so that random sets often share steps
step_lists = st.lists(
    st.builds(
        lambda op, a, b: ReasoningStep(op, (Operand.literal(a), Operand.literal(b))),
        st.sampled_from(["+", "-", "*", "/"]),
        st.integers(1, 3).map(float),
        st.integers(1, 3).map(float),
    ),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(raw_a=step_lists, raw_b=step_lists)
def test_ciou_bounds_iou_and_dice_follows_iou(raw_a, raw_b):
    overlaps = []
    for commutative in (False, True):
        a = StepSet.from_steps(raw_a, commutative=commutative)
        b = StepSet.from_steps(raw_b, commutative=commutative)
        assert a.step_keys == tuple(canonicalize_step(s, commutative) for s in raw_a)
        assert a.keys == Counter(a.step_keys)
        overlaps.append(step_overlap_metrics(a, b, commutative=commutative))
    plain, comm = overlaps
    assert comm.iou >= plain.iou
    for m in overlaps:
        assert abs(m.dice - 2 * m.iou / (1 + m.iou)) <= 1e-12


class TestTypology:
    def test_wrong_operator(self):
        ps, gts = sets_for("<<10-3>>", "<<10+3>>", True)
        t = error_typology(ps, gts)
        assert t.extra_rate == 1.0
        assert t.missing_rate == 1.0
        assert t.wrong_operator == 1.0
        assert t.inverted_operands == 0.0

    def test_inverted_operands(self):
        ps, gts = sets_for("<<3-10>>", "<<10-3>>", True)
        t = error_typology(ps, gts)
        assert t.inverted_operands == 1.0
        assert t.wrong_operator == 0.0

    def test_perfect_prediction(self):
        ps, gts = sets_for("<<1+1>>", "<<1+1>>", True)
        t = error_typology(ps, gts)
        assert (t.extra_rate, t.missing_rate) == (0.0, 0.0)
        assert (t.wrong_operator, t.inverted_operands) == (0.0, 0.0)
        assert t.error_set_size == 0

    def test_commutative_reorder_is_not_an_error(self):
        ps, gts = sets_for("<<5*7>>", "<<7*5>>", True)
        t = error_typology(ps, gts)
        assert t.error_set_size == 0

    def test_wo_and_io_classify_disjoint_subsets(self):
        # one WO candidate and one IO candidate in the same record
        ps, gts = sets_for("<<10-3>> <<2/5>>", "<<10+3>> <<5/2>>", True)
        t = error_typology(ps, gts)
        assert t.error_set_size == 2
        assert t.wrong_operator == pytest.approx(0.5)
        assert t.inverted_operands == pytest.approx(0.5)
        assert t.wrong_operator + t.inverted_operands <= 1.0

    def test_gold_leftover_consumed_once(self):
        # two identical prediction errors compete for a single gold leftover
        ps, gts = sets_for("<<10-3>> <<10-3>>", "<<10+3>>", True)
        t = error_typology(ps, gts)
        assert t.error_set_size == 2
        assert t.wrong_operator == pytest.approx(0.5)

    def test_es_zero_iff_subset(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            a = StepSet.from_steps(random_step_multiset(rng), commutative=True)
            b = StepSet.from_steps(random_step_multiset(rng), commutative=True)
            t = error_typology(a, b)
            is_subset = all(a.keys[k] <= b.keys[k] for k in a.keys)
            assert (t.extra_rate == 0.0) == is_subset


MICRO5 = [
    # (gold, prediction)
    ("<<2+3=5>> <<5*4=20>> #### 20", "<<2+3=5>> <<5*4=20>> #### 20"),
    ("<<7*5=35>> #### 35", "<<5*7=35>> #### 35"),
    ("<<10+3=13>> #### 13", "<<10-3=7>> #### 7"),
    ("<<10-3=7>> <<7*2=14>> #### 14", "<<3-10>> <<7*2=14>> #### 14"),
    ("<<8/2=4>> <<4+1=5>> #### 5", "<<8/2=4>> #### 4"),
]


def score_pair(gold_text, pred_text):
    gold = parse_rationale(gold_text, GSM8K)
    pred = parse_rationale(pred_text, GSM8K)
    em = exact_match(pred.final_answer, gold.final_answer)
    plain_p = StepSet.from_steps(pred.steps, commutative=False)
    plain_g = StepSet.from_steps(gold.steps, commutative=False)
    comm_p = StepSet.from_steps(pred.steps, commutative=True)
    comm_g = StepSet.from_steps(gold.steps, commutative=True)
    iou = step_overlap_metrics(plain_p, plain_g, commutative=False).iou
    overlap = step_overlap_metrics(comm_p, comm_g, commutative=True)
    t = error_typology(comm_p, comm_g)
    return SampleMetrics(
        em=em,
        iou=iou,
        ciou=overlap.iou,
        precision=overlap.precision,
        recall=overlap.recall,
        dice=overlap.dice,
        es=t.extra_rate,
        ms=t.missing_rate,
        wo=t.wrong_operator,
        io=t.inverted_operands,
    )


class TestMicroCorpus:
    def test_per_pair_values(self):
        rows = [score_pair(g, p) for g, p in MICRO5]
        assert [r.em for r in rows] == [True, True, False, True, False]
        assert [r.iou for r in rows] == pytest.approx([1.0, 0.0, 0.0, 1 / 3, 0.5])
        assert [r.ciou for r in rows] == pytest.approx([1.0, 1.0, 0.0, 1 / 3, 0.5])
        assert [r.precision for r in rows] == pytest.approx([1.0, 1.0, 0.0, 0.5, 1.0])
        assert [r.recall for r in rows] == pytest.approx([1.0, 1.0, 0.0, 0.5, 0.5])
        assert [r.dice for r in rows] == pytest.approx([1.0, 1.0, 0.0, 0.5, 2 / 3])
        assert [r.es for r in rows] == pytest.approx([0.0, 0.0, 1.0, 0.5, 0.0])
        assert [r.ms for r in rows] == pytest.approx([0.0, 0.0, 1.0, 0.5, 0.5])
        assert [r.wo for r in rows] == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.0])
        assert [r.io for r in rows] == pytest.approx([0.0, 0.0, 0.0, 1.0, 0.0])

    def test_aggregate_values(self):
        report = aggregate_report([score_pair(g, p) for g, p in MICRO5])
        assert report["em"] == pytest.approx(60.0)
        assert report["iou"] == pytest.approx(11 / 30)
        assert report["ciou"] == pytest.approx(17 / 30)
        assert report["precision"] == pytest.approx(0.7)
        assert report["recall"] == pytest.approx(0.6)
        assert report["dice"] == pytest.approx(19 / 30)
        assert report["es"] == pytest.approx(0.3)
        assert report["ms"] == pytest.approx(0.4)
        assert report["wo"] == pytest.approx(0.2)
        assert report["io"] == pytest.approx(0.2)
        assert report["n_samples"] == 5


class TestAggregate:
    def test_single_record_passthrough(self):
        row = score_pair(*MICRO5[3][::-1])
        report = aggregate_report([row])
        assert report["iou"] == pytest.approx(row.iou)
        assert report["n_samples"] == 1

    def test_em_percentage(self):
        rows = [score_pair(g, p) for g, p in MICRO5[:2]]
        rows[1].em = False
        assert aggregate_report(rows)["em"] == pytest.approx(50.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyRecordSet):
            aggregate_report([])

    def test_csv_column_order(self):
        assert CSV_COLUMNS == (
            "em", "iou", "ciou", "precision", "recall", "dice", "es", "ms", "wo", "io",
        )
        report = aggregate_report([score_pair(g, p) for g, p in MICRO5])
        assert list(report)[:10] == list(CSV_COLUMNS)


class TestColumnDeclaration:
    def test_schema(self):
        assert LOWER_IS_BETTER <= set(CSV_COLUMNS)
        directions = tuple(c not in LOWER_IS_BETTER for c in CSV_COLUMNS)
        assert directions == (True,) * 6 + (False,) * 4

    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.builds(
                SampleMetrics,
                em=st.booleans(),
                **{c: st.floats(0.0, 1.0) for c in CSV_COLUMNS if c != "em"},
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_aggregate_is_the_mean_of_the_rows(self, rows):
        report = aggregate_report(rows)
        n = len(rows)
        assert report["n_samples"] == n
        assert report["em"] == pytest.approx(100.0 * sum(r.em for r in rows) / n, rel=1e-12)
        for c in CSV_COLUMNS[1:]:
            mean = math.fsum(getattr(r, c) for r in rows) / n
            assert report[c] == pytest.approx(mean, rel=1e-12, abs=1e-15)
        assert list(report) == [*CSV_COLUMNS, "n_samples"]
        assert list(rows[0].as_dict()) == list(CSV_COLUMNS)
