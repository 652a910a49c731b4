import dataclasses
import math
import re
import struct
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losslab import DataError
from losslab.parsing import (
    FINAL_MARKER,
    MAX_NESTING,
    NO_FINAL_MARKER,
    MalformedStep,
    Operand,
    OperandKind,
    PoisonedValue,
    Rationale,
    RationaleFormat,
    ReasoningStep,
    canonicalize_step,
    evaluate_program,
    format_number,
    normalize_final_answer,
    parse_rationale,
    parse_step,
    render_step,
    resolve_constant,
)
from losslab.parsing import _NUMBER_RE, _InfixParser, step_spans

GSM8K = RationaleFormat.GSM8K
MATHQA = RationaleFormat.MATHQA


class TestInfixSteps:
    def test_worked_example_first_step(self):
        step = parse_step("10*.5=5", GSM8K)
        assert step.operator == "*"
        assert [o.value for o in step.operands] == [10.0, 0.5]
        assert step.stated_result == 5.0

    def test_precedence(self):
        step = parse_step("2+3*4", GSM8K)
        assert step.operator == "+"
        assert [o.value for o in step.operands] == [2.0, 12.0]

    def test_left_associative_subtraction_chain(self):
        step = parse_step("10-3-2", GSM8K)
        assert step.operator == "-"
        assert [o.value for o in step.operands] == [10.0, 3.0, 2.0]

    def test_addition_chain_flattens(self):
        step = parse_step("1+2+3", GSM8K)
        assert [o.value for o in step.operands] == [1.0, 2.0, 3.0]

    def test_parenthesized_group_becomes_literal(self):
        step = parse_step("2*(3+4)", GSM8K)
        assert step.operator == "*"
        assert [o.value for o in step.operands] == [2.0, 7.0]

    def test_parenthesized_same_op_group_flattens(self):
        step = parse_step("(1+2)+3", GSM8K)
        assert [o.value for o in step.operands] == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize(
        "span, operands",
        [
            ("1+(2+3)", [1.0, 2.0, 3.0]),  # + and * flatten on both sides
            ("2*((3*4))", [2.0, 12.0]),  # only one pair of parentheses is looked through
            ("(10-4)-1", [10.0, 4.0, 1.0]),  # - and / flatten their left spine only
            ("10-(4-1)", [10.0, 3.0]),
            ("8/(4/2)", [8.0, 2.0]),
            ("(8/4)/2", [8.0, 4.0, 2.0]),
        ],
    )
    def test_groups_continue_a_chain_only_where_it_associates(self, span, operands):
        assert [o.value for o in parse_step(span, GSM8K).operands] == operands

    def test_unary_minus(self):
        step = parse_step("-5+3", GSM8K)
        assert [o.value for o in step.operands] == [-5.0, 3.0]

    def test_comma_grouped_thousands(self):
        step = parse_step("1,000+5", GSM8K)
        assert step.operands[0].value == 1000.0

    def test_stated_result_with_commas(self):
        step = parse_step("500*4=2,000", GSM8K)
        assert step.stated_result == 2000.0

    def test_disagreeing_stated_result_kept_verbatim(self):
        step = parse_step("2+2=5", GSM8K)
        assert step.stated_result == 5.0

    def test_double_equals_rejected(self):
        with pytest.raises(MalformedStep):
            parse_step("2+2=4=4", GSM8K)

    def test_no_operator_rejected(self):
        with pytest.raises(MalformedStep):
            parse_step("42", GSM8K)

    def test_garbage_rejected_with_offset(self):
        with pytest.raises(MalformedStep) as info:
            parse_step("2+x", GSM8K)
        assert info.value.offset == 2

    def test_unbalanced_paren(self):
        with pytest.raises(MalformedStep):
            parse_step("(2+3", GSM8K)

    def test_nested_division_by_zero(self):
        with pytest.raises(MalformedStep):
            parse_step("5*(1/0)", GSM8K)


class TestBoundedRecursion:
    """Chains of any length parse in loops; only nesting recurses, and
    nesting deeper than MAX_NESTING is a MalformedStep naming its offset."""

    def test_long_chains_flatten(self):
        step = parse_step("+".join(["1"] * 5000), GSM8K)
        assert (step.operator, len(step.operands)) == ("+", 5000)
        step = parse_step("-".join(["9"] * 5000), GSM8K)
        assert (step.operator, len(step.operands)) == ("-", 5000)

    def test_long_chain_inside_a_group_evaluates(self):
        step = parse_step("2*(" + "+".join(["1"] * 5000) + ")", GSM8K)
        assert [o.value for o in step.operands] == [2.0, 5000.0]
        step = parse_step("1+(" + "-".join(["2"] * 5000) + ")*3", GSM8K)
        assert [o.value for o in step.operands] == [1.0, (2.0 - 2.0 * 4999) * 3]

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", "")])
    def test_nesting_up_to_the_limit_parses(self, opener, closer):
        depth = MAX_NESTING - 1  # the group's own level plus the one below
        step = parse_step("1+" + opener * depth + "(2*3)" + closer * depth, GSM8K)
        assert step.operator == "+"
        assert [o.value for o in step.operands] == [1.0, 6.0 * (-1) ** (depth * (opener == "-"))]

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", "")])
    def test_nesting_past_the_limit_is_malformed(self, opener, closer):
        with pytest.raises(MalformedStep, match=f"nesting deeper than {MAX_NESTING}") as info:
            parse_step("1+" + opener * 1200 + "2" + closer * 1200, GSM8K)
        assert info.value.offset == 2 + MAX_NESTING

    def test_deep_span_degrades_to_a_diagnostic(self):
        text = "<<1+1=2>> <<" + "(" * 1200 + "1+2" + ")" * 1200 + ">> #### 2"
        rationale = parse_rationale(text, GSM8K)
        assert len(rationale.steps) == 1
        assert rationale.diagnostics == (
            f"step 1 at char 10: nesting deeper than {MAX_NESTING} levels (offset {MAX_NESTING})",
        )


class _TreeParser(_InfixParser):
    """The infix grammar read into a tagged tree: ("num", v), ("group", n),
    ("neg", n) and (op, left, right)."""

    def _expr(self):
        node = self._term()
        while self.ch in ("+", "-"):
            op = self.ch
            self._advance(1)
            node = (op, node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self.ch in ("*", "/"):
            op = self.ch
            self._advance(1)
            node = (op, node, self._factor())
        return node

    def _factor(self):
        ch = self.ch
        if ch == "(" or ch == "-":
            if self.depth == MAX_NESTING:
                raise MalformedStep(f"nesting deeper than {MAX_NESTING} levels", self.pos)
            self.depth += 1
            self._advance(1)
            if ch == "(":
                node = ("group", self._expr())
                if self.ch != ")":
                    raise MalformedStep("unbalanced parenthesis", self.pos)
                self._advance(1)
            else:
                inner = self._factor()
                node = ("num", -inner[1]) if inner[0] == "num" else ("neg", inner)
            self.depth -= 1
            return node
        if not ch:
            raise MalformedStep("expression ended unexpectedly", self.pos)
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise MalformedStep(f"expected a number, found {ch!r}", self.pos)
        self._advance(m.end() - self.pos)
        return ("num", float(m.group().replace(",", "")))


def _tree_value(node):
    """Value of a tagged tree, walked with an explicit stack."""
    values = []
    stack = [node]
    while stack:
        item = stack.pop()
        if type(item) is str:  # an operator whose operands are on ``values``
            if item == "neg":
                values[-1] = -values[-1]
                continue
            b = values.pop()
            a = values[-1]
            if item == "+":
                values[-1] = a + b
            elif item == "-":
                values[-1] = a - b
            elif item == "*":
                values[-1] = a * b
            elif b == 0.0:
                raise MalformedStep("division by zero inside a nested expression", 0)
            else:
                values[-1] = a / b
            continue
        kind = item[0]
        if kind == "num":
            values.append(item[1])
        elif kind == "group":
            stack.append(item[1])
        elif kind == "neg":
            stack += ("neg", item[1])
        else:
            stack += (kind, item[2], item[1])
    return values[0]


def _tree_flatten(node):
    """Operator and operand values of a tagged tree's top chain."""
    op = node[0]
    commutative = op in ("+", "*")
    operands = []
    stack = [(node, True)]  # (subtree, whether it may continue the chain)
    while stack:
        n, chained = stack.pop()
        kind = n[0]
        if chained:
            if kind == "group" and n[1][0] == op:
                n, kind = n[1], op
            if kind == op:
                stack += ((n[2], commutative), (n[1], True))
                continue
        operands.append(Operand.literal(n[1] if kind == "num" else _tree_value(n)))
    return op, tuple(operands)


def tree_infix_step(span):
    """The three-phase infix parser (tree, then flatten, then evaluate the
    subtrees that do not continue the chain), kept as an oracle."""
    if span.count("=") > 1:
        raise MalformedStep("more than one '=' in step", span.index("="))
    stated = None
    expr = span
    if "=" in span:
        expr, result_text = span.split("=", 1)
        result_text = result_text.strip().replace(",", "")
        if not result_text:
            raise MalformedStep("empty stated result", span.index("=") + 1)
        try:
            stated = float(result_text)
        except ValueError:
            raise MalformedStep(
                f"stated result {result_text!r} is not a number", span.index("=") + 1
            ) from None
    node = _TreeParser(expr).parse()
    while node[0] == "group":
        node = node[1]
    if node[0] in ("num", "neg"):
        raise MalformedStep("step contains no operator", 0)
    return ReasoningStep(*_tree_flatten(node), stated)


def step_bits(parse, span):
    """Operator, stated result and operand reprs (so -0.0 and NaN count), or
    the MalformedStep message."""
    try:
        step = parse(span)
    except MalformedStep as exc:
        return str(exc)
    return step.operator, repr(step.stated_result), [repr(o.value) for o in step.operands]


# Infix spans: chains under 0-2 pairs of parentheses, unary minus, zero
# divisors at the top level and nested, literals that overflow to inf, and
# truncated text or "=" suffixes.
numerals = st.one_of(
    st.integers(0, 999).map(str),
    st.sampled_from(["0", "0.0", ".0", "0.5", ".25", "1,000", "2.50"]),
    st.text("0123456789", min_size=300, max_size=400),  # overflows to inf
)
infix_operators = st.sampled_from(["+", "-", "*", "/", " + ", " - ", "* ", " /"])
expressions = st.recursive(
    numerals,
    lambda inner: st.one_of(
        st.builds(str.join, infix_operators, st.lists(inner, min_size=2, max_size=4)),
        st.builds(lambda e, n: "(" * n + e + ")" * n, inner, st.integers(1, 2)),
        inner.map(lambda e: "-" + e),
    ),
    max_leaves=10,
)
chains = st.builds(str.join, infix_operators, st.lists(expressions, min_size=2, max_size=4))
infix_spans = st.one_of(
    chains,
    expressions,
    st.builds(lambda span, cut: span[:cut], chains, st.integers(0, 40)),
    st.builds(
        str.__add__,
        chains,
        st.sampled_from(["=3", "= 1,000", "=", "=x", "=1e400", "=1=2", ")", "(1"]),
    ),
)


class TestOnePassMatchesTree:
    @settings(max_examples=400, deadline=None)
    @given(span=infix_spans)
    @example(span="1/0")
    @example(span="1+2/0")
    @example(span="(1/0)/2")
    @example(span="8/(4/0)")
    @example(span="10-(4-1)")
    @example(span="8/(4/2)")
    @example(span="-(1/0)")
    @example(span="((1+2))+3")
    @example(span="2*((3*4))")
    @example(span="-0*-0")
    @example(span="9" * 400 + "-" + "9" * 400 + "*(2-2)")
    def test_same_step_or_message(self, span):
        assert step_bits(partial(parse_step, fmt=GSM8K), span) == step_bits(tree_infix_step, span)


@settings(max_examples=300, deadline=None)
@given(st.text("<>a\n", max_size=16))
def test_spans_match_the_lazy_pattern(text):
    pattern = re.compile(r"<<(.*?)>>", re.DOTALL)
    assert list(step_spans(text)) == [(m.start(), m.group(1)) for m in pattern.finditer(text)]


def test_unclosed_spans_are_scanned_once():
    # the lazy pattern rescanned the rest of the text at every later <<:
    # 16.9 s for this 40 kB text on a 2-vCPU VM, O(n^2) in its length
    start = time.perf_counter()
    rationale = parse_rationale("<<" * 20_000 + " #### 1", GSM8K)
    assert time.perf_counter() - start < 1.0
    assert (rationale.steps, rationale.diagnostics) == ((), ())


class TestUnrepresentableNumbers:
    def test_overflowing_literal_renders_and_canonicalizes(self):
        step = parse_step("9" * 400 + "-" + "9" * 400, GSM8K)
        assert canonicalize_step(step) == "inf-inf"
        assert format_number(math.nan) == "nan"
        assert format_number(-math.inf) == "-inf"

    def test_overlong_reference_is_malformed(self):
        with pytest.raises(MalformedStep, match="reference index"):
            parse_step("add(n" + "9" * 5000 + ",1)", MATHQA)

    @pytest.mark.parametrize("base, exponent", [(-8.0, 0.5), (0.0, -1.0)])
    def test_power_domain_error_poisons(self, base, exponent):
        steps = [ReasoningStep("power", (Operand.literal(base), Operand.literal(exponent)))]
        assert isinstance(evaluate_program(steps, [])[0], PoisonedValue)

    @pytest.mark.parametrize(
        "operator, operands",
        [
            ("multiply", (1e200, 1e200)),
            ("add", (math.nan, 1.0)),
            ("subtract", (math.inf, 1.0)),
            ("negate", (-math.inf,)),
            ("max", (math.inf, 1.0)),
            ("divide", (1e300, 1e-300)),
        ],
    )
    def test_non_finite_result_poisons(self, operator, operands):
        step = ReasoningStep(operator, tuple(Operand.literal(v) for v in operands))
        dependent = ReasoningStep("add", (Operand.step_ref(0), Operand.literal(1.0)))
        assert evaluate_program([step, dependent], []) == [PoisonedValue(0)] * 2


class TestProgramSteps:
    def test_divide_refs(self):
        step = parse_step("divide(n0,n1)", MATHQA)
        assert step.operator == "divide"
        assert [o.kind for o in step.operands] == [
            OperandKind.PROBLEM_REF,
            OperandKind.PROBLEM_REF,
        ]
        assert [o.value for o in step.operands] == [0, 1]

    def test_subtract_const_and_step_ref(self):
        step = parse_step("subtract(const_1,#0)", MATHQA)
        assert step.operands[0].kind is OperandKind.CONST
        assert step.operands[0].value == "1"
        assert step.operands[1].kind is OperandKind.STEP_REF
        assert step.operands[1].value == 0

    def test_name_lowercased(self):
        assert parse_step("Divide(n0,n1)", MATHQA).operator == "divide"

    def test_literal_arguments(self):
        step = parse_step("multiply(2.5,4)", MATHQA)
        assert [o.value for o in step.operands] == [2.5, 4.0]

    def test_rejects_nested_calls(self):
        with pytest.raises(MalformedStep):
            parse_step("add(divide(n0,n1),n2)", MATHQA)

    def test_rejects_empty_args(self):
        with pytest.raises(MalformedStep):
            parse_step("sqrt()", MATHQA)

    def test_rejects_unknown_argument_shape(self):
        with pytest.raises(MalformedStep):
            parse_step("add(n0,foo)", MATHQA)


# Well-formed and malformed spans of each grammar, drawn with repeats
MEMO_SPANS = {
    GSM8K: ["1+2", "3*4=12", " 3 * 4 ", "10-3=7", "1+", "2+x", "1/(2-2)+1", "(1", "7"],
    MATHQA: ["add(n0,n1)", "add(n1,n0)", "multiply(#0,const_100)", "add(", "f()", "g(n0,)", "x"],
}


class TestParseRationale:
    def test_gsm8k_worked_example(self):
        r = parse_rationale("<<10*.5=5>> <<5*7=35>> #### 35", GSM8K)
        assert len(r.steps) == 2
        assert r.final_answer == "35"
        assert r.final_value == 35.0
        assert r.diagnostics == ()

    def test_mathqa_worked_example(self):
        text = "<<divide(n0,n1)>> <<subtract(const_1,#0)>> <<divide(n2,#1)>> #### 270"
        r = parse_rationale(text, MATHQA)
        assert len(r.steps) == 3
        assert r.final_answer == "270"

    def test_format_given_as_string(self):
        text = "<<10*.5=5>> <<5*7=35>> #### 35"
        assert parse_rationale(text, "gsm8k") == parse_rationale(text, GSM8K)
        step = parse_step("add(n0,n1)", "mathqa")
        assert step.operator == "add"

    def test_unknown_format_string_rejected(self):
        with pytest.raises(ValueError, match="sumerian"):
            parse_rationale("<<1+1=2>> #### 2", "sumerian")
        with pytest.raises(ValueError, match="sumerian"):
            parse_step("1+1=2", "sumerian")

    def test_missing_marker_returns_the_partial_rationale(self):
        r = parse_rationale("<<1+1=2>> <<2+x>> no marker", GSM8K)
        assert r.steps == (parse_step("1+1=2", GSM8K),)
        assert r.final_answer is None
        assert r.final_value is None
        assert len(r.diagnostics) == 2
        assert r.diagnostics[-1] == NO_FINAL_MARKER

    @given(text=st.text(st.sampled_from("<>#1+(=x ,n0a_d"), max_size=40) | st.text(max_size=40))
    @example(text="<<1+1=2>> #### 2")
    @example(text="<<1+1=2>> ### 2")
    @pytest.mark.parametrize("fmt", [GSM8K, MATHQA])
    def test_never_raises_and_flags_a_missing_marker_last(self, fmt, text):
        r = parse_rationale(text, fmt)
        assert isinstance(r, Rationale)
        missing = FINAL_MARKER not in text
        assert (r.diagnostics[-1:] == (NO_FINAL_MARKER,)) == missing
        assert r.diagnostics.count(NO_FINAL_MARKER) == missing
        if missing:
            assert r.final_answer is None and r.final_value is None

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("fmt", [GSM8K, MATHQA])
    def test_a_shared_memo_changes_no_parse(self, fmt, data):
        pool = MEMO_SPANS[fmt]
        text = st.builds(
            lambda spans, tail: " so ".join(f"<<{span}>>" for span in spans) + tail,
            st.lists(st.sampled_from(pool), max_size=6),
            st.sampled_from(["", " #### 5", " #### x", " ####"]),
        )
        first, second = data.draw(text), data.draw(text)
        memo = {}
        assert parse_rationale(first, fmt, memo) == parse_rationale(first, fmt)
        assert parse_rationale(second, fmt, memo) == parse_rationale(second, fmt)
        # only well-formed spans are kept, each under its own text
        assert all(parse_step(span, fmt) == step for span, step in memo.items())

    def test_malformed_span_degrades_to_diagnostic(self):
        r = parse_rationale("<<1+1=2>> <<syntax error>> #### 2", GSM8K)
        assert len(r.steps) == 1
        assert len(r.diagnostics) == 1
        assert "step 1" in r.diagnostics[0]

    def test_empty_step_list_allowed(self):
        r = parse_rationale("the answer is #### blue", GSM8K)
        assert r.steps == ()
        assert r.final_answer == "blue"
        assert r.final_value is None

    def test_final_answer_first_token_only(self):
        r = parse_rationale("#### 42 because reasons", GSM8K)
        assert r.final_answer == "42"

    def test_steps_in_source_order(self):
        r = parse_rationale("<<1+1>> <<2+2>> <<3+3>> #### 0", GSM8K)
        firsts = [s.operands[0].value for s in r.steps]
        assert firsts == [1.0, 2.0, 3.0]


class TestEvaluateProgram:
    def test_mathqa_worked_example_values(self):
        text = "<<divide(n0,n1)>> <<subtract(const_1,#0)>> <<divide(n2,#1)>> #### 270"
        r = parse_rationale(text, MATHQA)
        values = evaluate_program(r.steps, [2.0, 3.0, 90.0])
        assert values[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert values[1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert values[2] == pytest.approx(270.0, abs=1e-6)

    def test_empty_steps(self):
        assert evaluate_program([], []) == []

    def test_forward_step_reference_rejected(self):
        steps = [
            ReasoningStep("add", (Operand.literal(1.0), Operand.step_ref(5))),
        ]
        with pytest.raises(DataError, match="step 0 references step #5, which is not a prior step"):
            evaluate_program(steps, [])

    def test_self_reference_rejected(self):
        steps = [ReasoningStep("add", (Operand.step_ref(0), Operand.literal(1.0)))]
        with pytest.raises(DataError, match="step 0 references step #0, which is not a prior step"):
            evaluate_program(steps, [])

    def test_problem_ref_out_of_range(self):
        steps = [ReasoningStep("add", (Operand.problem_ref(3), Operand.literal(1.0)))]
        with pytest.raises(DataError, match="references problem number n3, but only 2 are available"):
            evaluate_program(steps, [1.0, 2.0])

    def test_division_by_zero_poisons(self):
        steps = [
            ReasoningStep("divide", (Operand.literal(1.0), Operand.literal(0.0))),
            ReasoningStep("add", (Operand.step_ref(0), Operand.literal(1.0))),
            ReasoningStep("add", (Operand.literal(1.0), Operand.literal(1.0))),
        ]
        values = evaluate_program(steps, [])
        assert isinstance(values[0], PoisonedValue)
        assert values[0].origin == 0
        assert isinstance(values[1], PoisonedValue)
        assert values[2] == 2.0

    def test_poison_never_coerces(self):
        with pytest.raises(TypeError):
            float(PoisonedValue(0))

    def test_domain_error_poisons(self):
        steps = [ReasoningStep("sqrt", (Operand.literal(-1.0),))]
        assert isinstance(evaluate_program(steps, [])[0], PoisonedValue)

    def test_log_and_power(self):
        steps = [
            ReasoningStep("log", (Operand.const("e"),)),
            ReasoningStep("power", (Operand.literal(2.0), Operand.literal(10.0))),
        ]
        values = evaluate_program(steps, [])
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == 1024.0

    def test_unknown_operator(self):
        steps = [ReasoningStep("frobnicate", (Operand.literal(1.0),))]
        with pytest.raises(DataError, match="unknown operator 'frobnicate'"):
            evaluate_program(steps, [])

    @pytest.mark.parametrize("operator, arity, count", [("power", 2, 1), ("sqrt", 1, 2)])
    def test_wrong_arity_is_reported(self, operator, arity, count):
        steps = [ReasoningStep(operator, (Operand.literal(4.0),) * count)]
        message = f"operator '{operator}' takes {arity} argument\\(s\\), got {count}"
        with pytest.raises(DataError, match=message):
            evaluate_program(steps, [])

    @pytest.mark.parametrize(
        "step, message",
        [
            (ReasoningStep("bogus", (Operand.step_ref(0),)), "unknown operator 'bogus'"),
            (
                ReasoningStep("power", (Operand.step_ref(0),)),
                "operator 'power' takes 2 argument\\(s\\), got 1",
            ),
            (
                ReasoningStep("sqrt", (Operand.step_ref(0), Operand.literal(1.0))),
                "operator 'sqrt' takes 1 argument\\(s\\), got 2",
            ),
        ],
        ids=["unknown", "too-few", "too-many"],
    )
    def test_poisoned_argument_does_not_hide_an_operator_error(self, step, message):
        divide_by_zero = ReasoningStep("divide", (Operand.literal(1.0), Operand.literal(0.0)))
        assert evaluate_program([divide_by_zero], []) == [PoisonedValue(0)]
        with pytest.raises(DataError, match=message):
            evaluate_program([divide_by_zero, step], [])

    def test_infix_steps_also_evaluate(self):
        steps = [
            ReasoningStep("*", (Operand.literal(10.0), Operand.literal(0.5))),
            ReasoningStep("+", (Operand.step_ref(0), Operand.literal(2.0))),
        ]
        assert evaluate_program(steps, []) == [5.0, 7.0]


class TestConstants:
    def test_named(self):
        assert resolve_constant("pi") == math.pi
        assert resolve_constant("e") == math.e

    def test_integers(self):
        assert resolve_constant("1") == 1.0
        assert resolve_constant("100") == 100.0

    def test_underscore_decimal(self):
        assert resolve_constant("0_25") == 0.25
        assert resolve_constant("3_6") == 3.6

    def test_unknown(self):
        with pytest.raises(DataError, match="unknown constant const_tau"):
            resolve_constant("tau")


def canonical_key_oracle(step, commutative=False):
    """Reference key, rendering the operands on every call: the operator
    name with its operands in parentheses, or the infix operator between
    them; sorted as text for a commutative operator under ``commutative``."""
    rendered = [o.render() for o in step.operands]
    if commutative and step.is_commutative:
        rendered = sorted(rendered)
    if step.is_named:
        return f"{step.operator}({','.join(rendered)})"
    return step.operator.join(rendered)


class TestCanonicalization:
    @pytest.mark.parametrize(
        "span, fmt, plain, commutative",
        [
            ("add(n1,n0)", MATHQA, "add(n1,n0)", "add(n0,n1)"),
            ("3*2", GSM8K, "3*2", "2*3"),
            ("9+10", GSM8K, "9+10", "10+9"),  # text order, not numeric
            ("subtract(n1,n0)", MATHQA, "subtract(n1,n0)", "subtract(n1,n0)"),
            ("5-3", GSM8K, "5-3", "5-3"),
            ("multiply(const_100,#1)", MATHQA, "multiply(const_100,#1)", "multiply(#1,const_100)"),
            ("add(n2,#0,const_3_6)", MATHQA, "add(n2,#0,const_3_6)", "add(#0,const_3_6,n2)"),
            ("divide(#1,const_pi)", MATHQA, "divide(#1,const_pi)", "divide(#1,const_pi)"),
        ],
    )
    def test_exact_keys(self, span, fmt, plain, commutative):
        step = parse_step(span, fmt)
        assert canonicalize_step(step) == canonicalize_step(step, False) == plain
        assert canonicalize_step(step, True) == commutative
        assert step.match_keys == (plain, commutative)

    def test_commutative_multiplication(self):
        a = parse_step("5*7", GSM8K)
        b = parse_step("7*5", GSM8K)
        assert canonicalize_step(a, True) == canonicalize_step(b, True)
        assert canonicalize_step(a, False) != canonicalize_step(b, False)

    def test_subtraction_not_commutative(self):
        a = parse_step("10-3", GSM8K)
        b = parse_step("3-10", GSM8K)
        assert canonicalize_step(a, True) != canonicalize_step(b, True)

    def test_named_commutative_operators(self):
        a = parse_step("add(n0,n1)", MATHQA)
        b = parse_step("add(n1,n0)", MATHQA)
        assert canonicalize_step(a, True) == canonicalize_step(b, True)
        c = parse_step("subtract(n0,n1)", MATHQA)
        d = parse_step("subtract(n1,n0)", MATHQA)
        assert canonicalize_step(c, True) != canonicalize_step(d, True)

    def test_numeral_normalization(self):
        step = parse_step(".5*10", GSM8K)
        key = canonicalize_step(step, False)
        assert key == "0.5*10"

    def test_stated_result_excluded(self):
        a = parse_step("2+3=5", GSM8K)
        b = parse_step("2+3=6", GSM8K)
        assert canonicalize_step(a, False) == canonicalize_step(b, False)

    def test_format_number(self):
        assert format_number(5.0) == "5"
        assert format_number(0.5) == "0.5"
        assert format_number(0.0) == "0"
        assert format_number(-3.0) == "-3"
        assert format_number(1000.0) == "1000"
        assert format_number(1e-05) == "0.00001"
        assert format_number(-1.5e-07) == "-0.00000015"
        assert format_number(1e16) == "10000000000000000"
        assert format_number(1.2345e20) == "123450000000000000000"


# Every finite float whose repr has an exponent, drawn from its bit pattern
# so that every exponent is as likely as in memory
EXPONENT_FLOATS = (
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(lambda v: math.isfinite(v) and "e" in repr(v))
)


@settings(max_examples=500, deadline=None)
@given(EXPONENT_FLOATS)
@example(5e-324)
@example(-5e-324)
@example(1e-05)
@example(1e16)
@example(1.7976931348623157e308)
def test_format_number_writes_an_exponent_float_as_numpy_does(value):
    assert "e" in repr(value)
    assert format_number(value) == np.format_float_positional(value, trim="-")


def generated_steps(seed, count):
    """Random well-formed steps across both grammars, literals rendered
    with the package's own numeral normalization so round-trips are exact."""
    rng = np.random.default_rng(seed)
    steps = []
    named = ["add", "subtract", "multiply", "divide", "max", "min"]
    for _ in range(count):
        if rng.random() < 0.5:
            op = str(rng.choice(["+", "-", "*", "/"]))
            k = int(rng.integers(2, 5))
            operands = []
            for _ in range(k):
                if rng.random() < 0.5:
                    operands.append(Operand.literal(float(rng.integers(0, 500))))
                else:
                    operands.append(Operand.literal(round(float(rng.uniform(0, 50)), 3)))
            result = float(rng.integers(0, 100)) if rng.random() < 0.3 else None
            steps.append(ReasoningStep(op, tuple(operands), result))
        else:
            op = str(rng.choice(named))
            k = int(rng.integers(1, 4)) if op in ("max", "min") else 2
            operands = []
            for _ in range(k):
                pick = rng.random()
                if pick < 0.4:
                    operands.append(Operand.literal(float(rng.integers(0, 100))))
                elif pick < 0.6:
                    operands.append(Operand.problem_ref(int(rng.integers(0, 4))))
                elif pick < 0.8:
                    operands.append(Operand.step_ref(int(rng.integers(0, 3))))
                else:
                    operands.append(
                        Operand.const(str(rng.choice(["pi", "e", "1", "100", "0_5"])))
                    )
            steps.append(ReasoningStep(op, tuple(operands)))
    return steps


# Literals anywhere in the float range, with extra weight where repr writes
# an exponent: below 1e-4 and from 1e16 up.
literals = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e-4, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
).map(Operand.literal)

infix_steps = st.builds(
    ReasoningStep,
    st.sampled_from(["+", "-", "*", "/"]),
    st.lists(literals, min_size=2, max_size=4).map(tuple),
    st.none() | literals.map(lambda o: o.value),
)

program_steps = st.builds(
    ReasoningStep,
    st.sampled_from(["add", "subtract", "multiply", "divide", "max", "power"]),
    st.lists(
        st.one_of(
            literals,
            st.integers(0, 10**6).map(Operand.problem_ref),
            st.integers(0, 10**6).map(Operand.step_ref),
            st.sampled_from(["pi", "e", "100", "0_5"]).map(Operand.const),
        ),
        min_size=1,
        max_size=4,
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(step=st.one_of(infix_steps, program_steps), commutative=st.booleans())
def test_cached_keys_match_the_oracle(step, commutative):
    key = canonical_key_oracle(step, commutative)
    assert canonicalize_step(step, commutative) == key
    assert canonicalize_step(step, commutative) == key  # read again, from the step
    assert step.match_keys == (canonical_key_oracle(step), canonical_key_oracle(step, True))


def oracle_keys(step):
    return canonical_key_oracle(step), canonical_key_oracle(step, True)


@settings(max_examples=200, deadline=None)
@given(step=st.one_of(infix_steps, program_steps), other=st.one_of(infix_steps, program_steps))
def test_match_keys_are_built_with_the_step_outside_equality_hash_and_repr(step, other):
    flags = {f.name: (f.init, f.compare, f.repr) for f in dataclasses.fields(ReasoningStep)}
    assert flags["match_keys"] == (False, False, False)
    assert step.match_keys == oracle_keys(step)
    # replace builds a new step, whose keys follow its own operator and operands
    moved = dataclasses.replace(step, operator=other.operator, operands=other.operands)
    assert moved.match_keys == oracle_keys(moved) == other.match_keys
    restated = dataclasses.replace(step, stated_result=other.stated_result)
    assert restated.match_keys == step.match_keys
    # the keys take no part in equality, hashing or repr
    forged = dataclasses.replace(step)
    object.__setattr__(forged, "match_keys", ("x", "y"))
    assert forged == step and hash(forged) == hash(step)
    assert hash(step) == hash((step.operator, step.operands, step.stated_result))
    assert repr(step) == (
        f"ReasoningStep(operator={step.operator!r}, operands={step.operands!r}, "
        f"stated_result={step.stated_result!r})"
    )


class TestRoundTrip:
    @settings(max_examples=400, deadline=None)
    @given(step=st.one_of(infix_steps, program_steps))
    def test_render_parse_round_trip(self, step):
        fmt = MATHQA if step.is_named else GSM8K
        rendered = render_step(step)
        assert parse_step(rendered, fmt) == step, rendered

    @pytest.mark.parametrize(
        "text, rendered",
        [
            ("0.00001+2=2.00001", "0.00001+2=2.00001"),
            ("10000000000000000+1=10000000000000001", "10000000000000000+1=10000000000000000"),
        ],
    )
    def test_exponent_sized_literals_render_in_positional_digits(self, text, rendered):
        step = parse_step(text, GSM8K)
        assert render_step(step) == rendered
        assert parse_step(rendered, GSM8K) == step

    def test_200_case_render_parse_round_trip(self):
        steps = generated_steps(11, 200)
        for step in steps:
            fmt = MATHQA if step.is_named else GSM8K
            rendered = render_step(step)
            reparsed = parse_step(rendered, fmt)
            assert reparsed == step, f"{rendered!r} -> {reparsed}"

    def test_canonical_keys_injective_up_to_equivalence(self):
        steps = generated_steps(12, 120)
        for flag in (False, True):
            for i, a in enumerate(steps):
                for b in steps[i + 1 :]:
                    same_key = canonicalize_step(a, flag) == canonicalize_step(b, flag)
                    ra = [o.render() for o in a.operands]
                    rb = [o.render() for o in b.operands]
                    if flag and a.is_commutative and a.operator == b.operator:
                        equivalent = a.operator == b.operator and sorted(ra) == sorted(rb)
                    else:
                        equivalent = a.operator == b.operator and ra == rb
                    assert same_key == equivalent, (a, b)


class TestNormalizeFinalAnswer:
    def test_trailing_point_zero(self):
        assert normalize_final_answer("270.0") == normalize_final_answer("270")

    def test_thousands_separator(self):
        assert normalize_final_answer("1,000") == 1000.0

    def test_text_lowercased(self):
        assert normalize_final_answer(" Blue ") == "blue"

    def test_letter_answers(self):
        assert normalize_final_answer("C") == normalize_final_answer("c")

    @pytest.mark.parametrize(
        "text, expected", [("nan", "nan"), (" INF ", "inf"), ("-Infinity", "-infinity")]
    )
    def test_non_finite_numerals_are_text(self, text, expected):
        assert normalize_final_answer(text) == expected

    def test_numeral_beyond_float_range_is_text(self):
        digits = "9" * 500
        assert normalize_final_answer(digits) == digits
        assert normalize_final_answer("1,000" + digits) == "1000" + digits

    @pytest.mark.parametrize("final", ["nan", "inf", pytest.param("9" * 500, id="500-digits")])
    def test_non_finite_final_has_no_value(self, final):
        rationale = parse_rationale(f"<<1+1=2>> #### {final}", GSM8K)
        assert rationale.final_answer == final
        assert rationale.final_value is None
