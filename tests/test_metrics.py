import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import DataError, metrics
from losslab.metrics import (
    CSV_COLUMNS,
    LOWER_IS_BETTER,
    ErrorReport,
    OverlapMetrics,
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
    normalize_final_answer,
    parse_rationale,
)

GSM8K = RationaleFormat.GSM8K


def steps_of(text):
    return parse_rationale(text + " #### 0", GSM8K).steps


def sets_for(pred_text, gold_text, commutative):
    ps = StepSet.from_steps(steps_of(pred_text), commutative=commutative)
    gts = StepSet.from_steps(steps_of(gold_text), commutative=commutative)
    return ps, gts


def text_match(prediction, gold):
    """exact_match on two answer texts, normalized as a parse normalizes them."""
    keys = [None if text is None else normalize_final_answer(text) for text in (prediction, gold)]
    return exact_match(*keys)


class TestExactMatch:
    def test_numeric_string_pairs(self):
        assert text_match("35", "35")
        assert text_match("270.0", "270")
        assert text_match("1,000", "1000")

    def test_tolerance_boundary(self):
        assert not text_match("270", "270.00001")
        assert text_match("270", "270.0000001")

    def test_letters_case_insensitive(self):
        assert text_match("C", "c")
        assert not text_match("B", "C")

    def test_mixed_kinds_never_match(self):
        assert not text_match("abc", "1")

    def test_missing_side(self):
        assert not text_match(None, "5")
        assert not text_match("5", None)

    def test_non_finite_answers_compare_as_text(self):
        assert text_match("nan", "NaN")
        assert text_match("inf", "inf")
        assert not text_match("inf", "nan")
        assert not text_match("inf", "1e999")
        assert text_match("9" * 500, "9" * 500)
        assert not text_match("9" * 500, "9" * 499 + "8")

    def test_normalized_answers_are_compared_as_given(self):
        assert exact_match(270.0, 270.0000001)
        assert exact_match("c", "c")
        assert not exact_match("C", "c")
        assert not exact_match(1.0, "1")
        assert not exact_match(None, 1.0)

    @pytest.mark.parametrize(
        "text", ["<<1+2=3>> #### 1,000", "#### C", "#### nan", "#### ", "#### 9e999", "no marker"]
    )
    def test_a_parse_keeps_its_normalized_answer(self, text):
        parsed = parse_rationale(text, GSM8K)
        final = parsed.final_answer
        assert parsed.answer_key == (None if final is None else normalize_final_answer(final))


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
        assert a.keys == Counter(canonicalize_step(s, commutative) for s in raw_a)
        overlaps.append(step_overlap_metrics(a, b, commutative=commutative))
    plain, comm = overlaps
    assert comm.iou >= plain.iou
    for m in overlaps:
        assert abs(m.dice - 2 * m.iou / (1 + m.iou)) <= 1e-12


def step_keys(side):
    """Each step's canonical key, in step order."""
    return [canonicalize_step(step, side.commutative) for step in side.steps]


def overlap_oracle(ps, gts, commutative):
    """``step_overlap_metrics`` on ``collections.Counter`` multisets: the
    intersection's size is the total of the ``&`` of the two sides' keys."""
    if ps.commutative != commutative or gts.commutative != commutative:
        raise ValueError("step sets were built with a different canonicalization flag")
    n_pred, n_gold = len(ps.steps), len(gts.steps)
    if n_pred == 0 and n_gold == 0:
        return OverlapMetrics(1.0, 1.0, 1.0, 1.0)
    if n_pred == 0 or n_gold == 0:
        return OverlapMetrics(0.0, 0.0, 0.0, 0.0)
    tp = sum((Counter(step_keys(ps)) & Counter(step_keys(gts))).values())
    fp, fn = n_pred - tp, n_gold - tp
    return OverlapMetrics(
        iou=tp / (tp + fp + fn),
        precision=tp / (tp + fp),
        recall=tp / (tp + fn),
        dice=2.0 * tp / (2.0 * tp + fp + fn),
    )


def residual_oracle(own, other):
    """``_residual_steps`` on ``collections.Counter`` multisets: a step is
    residual once its key has been seen more often than the other side has it."""
    other_keys = Counter(step_keys(other))
    seen = Counter()
    residual = []
    for step, key in zip(own.steps, step_keys(own)):
        seen[key] += 1
        if seen[key] > other_keys.get(key, 0):
            residual.append(step)
    return residual


# Infix and named steps over few operands, so that equal steps, and steps
# equal only up to the order of a commutative operator's operands, are common
multiset_steps = st.one_of(
    st.builds(
        lambda op, a, b: ReasoningStep(op, (Operand.literal(a), Operand.literal(b))),
        st.sampled_from(["+", "-", "*", "/"]),
        st.integers(1, 3).map(float),
        st.integers(1, 3).map(float),
    ),
    st.builds(
        lambda op, args: ReasoningStep(op, tuple(args)),
        st.sampled_from(["add", "subtract", "multiply", "max"]),
        st.lists(
            st.sampled_from(
                [Operand.problem_ref(0), Operand.problem_ref(1), Operand.step_ref(0),
                 Operand.const("2")]
            ),
            min_size=1,
            max_size=3,
        ),
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), commutative=st.booleans())
def test_multiset_walks_match_the_counter_oracles(data, commutative):
    # both sides draw from one pool, so a step object can repeat on a side
    # and appear on both
    pool = data.draw(st.lists(multiset_steps, min_size=1, max_size=5))
    sides = st.lists(st.sampled_from(pool), max_size=6)
    ps = StepSet.from_steps(data.draw(sides), commutative)
    gts = StepSet.from_steps(data.draw(sides), commutative)
    for side in (ps, gts):
        assert isinstance(side.keys, dict) and side.keys == Counter(step_keys(side))
    assert step_overlap_metrics(ps, gts, commutative) == overlap_oracle(ps, gts, commutative)
    for own, other in ((ps, gts), (gts, ps)):
        residual = metrics._residual_steps(own, other)
        assert list(map(id, residual)) == list(map(id, residual_oracle(own, other)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_residual_steps", residual_oracle)
        expected = error_typology(ps, gts)
    assert error_typology(ps, gts) == expected


def typology_oracle(ps, gts):
    """``error_typology`` over ``residual_oracle``'s leftovers, each error
    classified by two scans of the gold leftovers: one for a wrong operator,
    then one for inverted operands."""
    errors = residual_oracle(ps, gts)
    missing = residual_oracle(gts, ps)
    n_pred, n_gold = len(ps.steps), len(gts.steps)
    extra_rate = len(errors) / n_pred if n_pred else 0.0
    missing_rate = len(missing) / n_gold if n_gold else 0.0
    consumed = [False] * len(missing)
    wrong_operator = 0
    inverted = 0
    for err in errors:
        err_tuple = tuple(o.render() for o in err.operands)
        err_multiset = Counter(err_tuple)
        matched = False
        for j, gold in enumerate(missing):
            if consumed[j] or gold.operator == err.operator:
                continue
            if Counter(o.render() for o in gold.operands) == err_multiset:
                consumed[j] = True
                wrong_operator += 1
                matched = True
                break
        if matched:
            continue
        for j, gold in enumerate(missing):
            if consumed[j] or gold.operator != err.operator or err.is_commutative:
                continue
            gold_tuple = tuple(o.render() for o in gold.operands)
            if gold_tuple != err_tuple and Counter(gold_tuple) == err_multiset:
                consumed[j] = True
                inverted += 1
                break
    n_errors = len(errors)
    wo_rate = wrong_operator / n_errors if n_errors else 0.0
    io_rate = inverted / n_errors if n_errors else 0.0
    return ErrorReport(extra_rate, missing_rate, wo_rate, io_rate, n_errors)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_typology_matches_the_two_scan_oracle(data):
    # each drawn step joins the pool with its operands reversed and under two
    # more operators, so that wrong-operator and inverted-operand pairs are
    # common and compete for the same gold leftovers
    base = data.draw(st.lists(multiset_steps, min_size=1, max_size=3))
    operators = st.sampled_from(["+", "-", "*", "/", "add", "subtract", "max"])
    pool = list(base)
    for step in base:
        pool.append(ReasoningStep(step.operator, step.operands[::-1]))
        for operator in data.draw(st.lists(operators, min_size=2, max_size=2)):
            pool.append(ReasoningStep(operator, step.operands))
    sides = st.lists(st.sampled_from(pool), min_size=1, max_size=8)
    pred, gold = data.draw(sides), data.draw(sides)
    for commutative in (False, True):
        ps = StepSet.from_steps(pred, commutative)
        gts = StepSet.from_steps(gold, commutative)
        assert error_typology(ps, gts) == typology_oracle(ps, gts)


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

    def test_first_unconsumed_gold_leftover_is_taken(self):
        # 1*2 takes 1-2, the first leftover of its operands, as a wrong
        # operator; 2-1 then has no inverted partner left and takes 1+2
        ps, gts = sets_for("<<1*2>> <<2-1>>", "<<1-2>> <<1+2>>", True)
        t = error_typology(ps, gts)
        assert (t.wrong_operator, t.inverted_operands) == (1.0, 0.0)

    def test_es_zero_iff_subset(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            a = StepSet.from_steps(random_step_multiset(rng), commutative=True)
            b = StepSet.from_steps(random_step_multiset(rng), commutative=True)
            t = error_typology(a, b)
            is_subset = all(count <= b.keys.get(k, 0) for k, count in a.keys.items())
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
    em = text_match(pred.final_answer, gold.final_answer)
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
        with pytest.raises(DataError, match="no per-sample records to aggregate"):
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
