"""Parsing of chain-of-thought completions into structured reasoning steps.

A completion carries calculation spans wrapped in << >> plus a final answer
after a #### marker. A defect in the text never raises: a malformed span and
a missing marker each become a diagnostic on the parsed :class:`Rationale`.
Two surface grammars are supported:

* infix: binary arithmetic over + - * / with decimal literals, standard
  precedence (* and / bind tighter), left associativity, optional parentheses,
  optional "=result" suffix (e.g. ``<<10*.5=5>>``);
* program: named operations ``name(arg, ...)`` whose arguments are numeric
  literals, problem-number references ``n<k>``, prior-step references
  ``#<k>``, or named constants ``const_<x>`` (e.g. ``<<divide(n0,n1)>>``).

Infix expressions flatten into a single operator with an ordered operand
list: same-operator chains keep every operand (1+2+3 -> +[1,2,3]; a-b-c is
the left-associative chain -[a,b,c]), while sub-expressions under a different
operator (or parenthesized groups that are not part of the chain) are
evaluated to a literal. The flat step form round-trips through
:func:`render_step`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from typing import Sequence

from . import DataError

FINAL_MARKER = "####"
NO_FINAL_MARKER = "completion has no final-answer marker"

INFIX_OPERATORS = ("+", "-", "*", "/")
COMMUTATIVE_OPERATORS = frozenset({"+", "*", "add", "multiply"})


class RationaleFormat(Enum):
    GSM8K = "gsm8k"
    MATHQA = "mathqa"


class OperandKind(Enum):
    LITERAL = "literal"
    PROBLEM_REF = "problem"
    STEP_REF = "step"
    CONST = "const"


class MalformedStep(DataError):
    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Operand:
    kind: OperandKind
    value: object

    @classmethod
    def literal(cls, value: float) -> "Operand":
        return cls(OperandKind.LITERAL, float(value))

    @classmethod
    def problem_ref(cls, index: int) -> "Operand":
        return cls(OperandKind.PROBLEM_REF, int(index))

    @classmethod
    def step_ref(cls, index: int) -> "Operand":
        return cls(OperandKind.STEP_REF, int(index))

    @classmethod
    def const(cls, name: str) -> "Operand":
        return cls(OperandKind.CONST, name)

    def render(self) -> str:
        if self.kind is OperandKind.LITERAL:
            return format_number(self.value)
        if self.kind is OperandKind.PROBLEM_REF:
            return f"n{self.value}"
        if self.kind is OperandKind.STEP_REF:
            return f"#{self.value}"
        return f"const_{self.value}"


@dataclass(frozen=True)
class ReasoningStep:
    """One flat calculation: an operator applied to ordered operands.

    ``operator`` is one of "+", "-", "*", "/" for infix steps or the verbatim
    lowercase name for program steps. ``stated_result`` keeps the annotated
    result verbatim when the surface form carried one; it is never checked
    against a re-evaluation here.
    """

    operator: str
    operands: tuple[Operand, ...]
    stated_result: float | None = None
    # The plain and the commutative matching key, built with the step from
    # one rendering of each operand; see :func:`canonicalize_step`.
    match_keys: tuple[str, str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.operands:
            raise MalformedStep("step must have at least one operand")
        rendered = [o.render() for o in self.operands]
        plain = self._key(rendered)
        keys = (plain, self._key(sorted(rendered)) if self.is_commutative else plain)
        object.__setattr__(self, "match_keys", keys)

    @property
    def is_named(self) -> bool:
        return self.operator not in INFIX_OPERATORS

    @property
    def is_commutative(self) -> bool:
        return self.operator in COMMUTATIVE_OPERATORS

    def _key(self, rendered: list[str]) -> str:
        if self.is_named:
            return f"{self.operator}({','.join(rendered)})"
        return self.operator.join(rendered)


@dataclass
class Rationale:
    """Parsed completion: ordered steps, final answer, parse diagnostics.

    ``answer_key`` is the final answer's :func:`normalize_final_answer` form,
    the one exact match compares (None without an answer); it is not part of
    :meth:`to_dict`.
    """

    steps: tuple[ReasoningStep, ...]
    final_answer: str | None
    final_value: float | None
    diagnostics: tuple[str, ...] = ()
    answer_key: float | str | None = None

    def to_dict(self) -> dict:
        return {
            "steps": [step_to_dict(s) for s in self.steps],
            "final_answer": self.final_answer,
            "final_value": self.final_value,
            "diagnostics": list(self.diagnostics),
        }


def step_to_dict(step: ReasoningStep) -> dict:
    """JSON form of a step; a number that is not finite, such as an
    overflowed literal, is written as None (null), like ``final_value``."""
    return {
        "operator": step.operator,
        "operands": [{"kind": o.kind.value, "value": _json_value(o.value)} for o in step.operands],
        "stated_result": _json_value(step.stated_result),
    }


def _json_value(value):
    return None if type(value) is float and not math.isfinite(value) else value


def format_number(value: float) -> str:
    """Render a numeral without leading dot, trailing zeros, or separators.

    A finite value is written in positional digits that both step grammars
    read back as the same float.
    """
    value = float(value)
    if value == 0.0:
        return "0"
    if not math.isfinite(value):  # an overflowed literal: inf, -inf or nan
        return repr(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    text = repr(value)
    if "e" not in text:
        return text
    # repr switches to an exponent below 1e-4 and from 1e16 up, which neither
    # grammar reads; the same shortest digits, written out, read back as value.
    # Imported here, as only such a value needs it
    from decimal import Decimal

    return format(Decimal(text), "f")


_NUMBER_RE = re.compile(r"\d{1,3}(?:,\d{3})+(?:\.\d*)?|\d+\.\d*|\.\d+|\d+")


# Parentheses and unary minus signs open one nesting level each; the descent
# recurses once per level, so deeper nesting is a MalformedStep.
MAX_NESTING = 100


class _InfixParser:
    """Recursive-descent parser for the infix step grammar.

    ``ch`` is the character at ``pos``; whitespace is skipped once, right
    after each token is consumed. Recursion depth grows only with nesting,
    which :data:`MAX_NESTING` bounds; chains are built in loops.

    Each rule returns a node ``(value, op, operands, groups)``: the value of
    the subexpression in tree order (None under a division by zero), the
    operator and flat operand values of its chain (both None for a number or
    a negation), and the number of parentheses around it.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self._advance(0)

    def _advance(self, width: int) -> None:
        """Step over ``width`` characters and the whitespace after them."""
        text, pos = self.text, self.pos + width
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        self.ch = text[pos] if pos < len(text) else ""

    def parse(self) -> tuple:
        node = self._expr()
        if self.ch:
            raise MalformedStep(f"unexpected character {self.ch!r}", self.pos)
        return node

    def _expr(self) -> tuple:
        node = self._term()
        while self.ch in ("+", "-"):
            op = self.ch
            self._advance(1)
            node = _chain(op, node, self._term())
        return node

    def _term(self) -> tuple:
        node = self._factor()
        while self.ch in ("*", "/"):
            op = self.ch
            self._advance(1)
            node = _chain(op, node, self._factor())
        return node

    def _factor(self) -> tuple:
        ch = self.ch
        if ch == "(" or ch == "-":
            if self.depth == MAX_NESTING:
                raise MalformedStep(f"nesting deeper than {MAX_NESTING} levels", self.pos)
            self.depth += 1
            self._advance(1)
            if ch == "(":
                value, op, operands, groups = self._expr()
                if self.ch != ")":
                    raise MalformedStep("unbalanced parenthesis", self.pos)
                self._advance(1)
                node = (value, op, operands, groups + 1)
            else:
                value = self._factor()[0]
                node = (None if value is None else -value, None, None, 0)
            self.depth -= 1
            return node
        if not ch:
            raise MalformedStep("expression ended unexpectedly", self.pos)
        m = _NUMBER_RE.match(self.text, self.pos)
        if not m:
            raise MalformedStep(f"expected a number, found {ch!r}", self.pos)
        self._advance(m.end() - self.pos)
        return (float(m.group().replace(",", "")), None, None, 0)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _chain(op: str, left: tuple, right: tuple) -> tuple:
    """Node of ``left op right``. A child continues the chain when it has the
    same operator, sits inside at most one pair of parentheses, and is the
    left operand or ``op`` is + or *; any other child is one operand, its
    value. The left child's list is extended in place, so chains stay linear."""
    a, b = left[0], right[0]
    if a is None or b is None or (op == "/" and b == 0.0):
        value = None
    else:
        value = _ARITHMETIC[op](a, b)
    if left[1] == op and left[3] <= 1:
        operands = left[2]
    else:
        operands = [a]
    if right[1] == op and right[3] <= 1 and op in ("+", "*"):
        operands += right[2]
    else:
        operands.append(b)
    return (value, op, operands, 0)


def _parse_infix_step(span: str) -> ReasoningStep:
    if span.count("=") > 1:
        raise MalformedStep("more than one '=' in step", span.index("="))
    stated: float | None = None
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
    _, op, operands, _ = _InfixParser(expr).parse()
    if op is None:
        raise MalformedStep("step contains no operator", 0)
    if None in operands:
        raise MalformedStep("division by zero inside a nested expression", 0)
    return ReasoningStep(op, tuple(map(Operand.literal, operands)), stated)


_PROGRAM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*$", re.DOTALL)
_PROBLEM_REF_RE = re.compile(r"n(\d+)$")
_STEP_REF_RE = re.compile(r"#(\d+)$")
_CONST_RE = re.compile(r"const_([A-Za-z0-9_]+)$")


def _parse_program_arg(arg: str, offset: int) -> Operand:
    arg = arg.strip()
    if not arg:
        raise MalformedStep("empty argument", offset)
    for pattern, make in ((_PROBLEM_REF_RE, Operand.problem_ref), (_STEP_REF_RE, Operand.step_ref)):
        m = pattern.match(arg)
        if m:
            try:
                return make(int(m.group(1)))
            except ValueError:  # more digits than int() converts
                digits = len(arg) - 1
                raise MalformedStep(f"reference index too long ({digits} digits)", offset) from None
    m = _CONST_RE.match(arg)
    if m:
        return Operand.const(m.group(1).lower())
    try:
        return Operand.literal(float(arg.replace(",", "")))
    except ValueError:
        raise MalformedStep(f"unrecognized argument {arg!r}", offset) from None


def _parse_program_step(span: str) -> ReasoningStep:
    m = _PROGRAM_RE.match(span)
    if not m:
        raise MalformedStep("expected name(arguments)", 0)
    name = m.group(1).lower()
    body = m.group(2)
    if "(" in body:
        raise MalformedStep("nested calls are not supported", span.index("(") + 1)
    args = body.split(",") if body.strip() else []
    if not args:
        raise MalformedStep("operation needs at least one argument", m.end(1))
    operands = tuple(_parse_program_arg(a, m.start(2)) for a in args)
    return ReasoningStep(name, operands)


# The step grammar of each format
STEP_PARSERS = {
    RationaleFormat.GSM8K: _parse_infix_step,
    RationaleFormat.MATHQA: _parse_program_step,
}


# Each format's member, by itself and by its value
_FORMATS = {key: f for f in RationaleFormat for key in (f, f.value)}


def _format(fmt) -> RationaleFormat:
    """The member ``fmt`` names; anything else raises as ``RationaleFormat(fmt)``."""
    try:
        return _FORMATS[fmt]
    except (KeyError, TypeError):
        return RationaleFormat(fmt)


def parse_step(span: str, fmt: RationaleFormat) -> ReasoningStep:
    """Parse the inside of one << >> span under the given surface grammar.

    ``fmt`` may be a :class:`RationaleFormat` member or its string value.
    """
    return STEP_PARSERS[_format(fmt)](span)


def step_spans(text: str):
    """(start, body) of each << >> span, left to right, as
    :func:`parse_rationale` reads them.

    A span ends at the first >> after its <<, as the lazy pattern
    ``<<(.*?)>>`` would match it; ``str.find`` stops at the first << with no
    >> after it, where that pattern would rescan the rest of the text once
    per later <<.
    """
    start = text.find("<<")
    while start >= 0:
        end = text.find(">>", start + 2)
        if end < 0:
            return
        yield start, text[start + 2 : end]
        start = text.find("<<", end + 2)


def parse_rationale(
    text: str, fmt: RationaleFormat, memo: dict[str, ReasoningStep] | None = None
) -> Rationale:
    """Parse a full completion into steps plus the final answer.

    ``fmt`` may be a :class:`RationaleFormat` member or its string value.
    It never raises on the text: each malformed span is a diagnostic, and a
    missing #### marker is the last one, :data:`NO_FINAL_MARKER`, with the
    steps kept and no final answer or value.

    Each well-formed span's step is stored in ``memo`` under the span's text,
    and a span already there is not parsed again. Pass one dict to several
    parses of one format to share their repeated spans; steps are frozen, so
    sharing them is safe. A malformed span is never stored, so each
    occurrence gets its own diagnostic. Without ``memo``, repeats within
    ``text`` are shared.
    """
    parse = STEP_PARSERS[_format(fmt)]
    if memo is None:
        memo = {}
    steps: list[ReasoningStep] = []
    diagnostics: list[str] = []
    for i, (start, span) in enumerate(step_spans(text)):
        step = memo.get(span)
        if step is None:
            try:
                step = memo[span] = parse(span)
            except MalformedStep as exc:
                diagnostics.append(f"step {i} at char {start}: {exc}")
                continue
        steps.append(step)
    marker = text.find(FINAL_MARKER)
    if marker < 0:
        return Rationale(tuple(steps), None, None, (*diagnostics, NO_FINAL_MARKER))
    tail = text[marker + len(FINAL_MARKER) :].strip()
    final = tail.split()[0] if tail else ""
    value = normalize_final_answer(final)
    return Rationale(
        tuple(steps),
        final,
        value if isinstance(value, float) else None,
        tuple(diagnostics),
        value,
    )


@dataclass(frozen=True)
class PoisonedValue:
    """Sentinel for a value ruined by division by zero, a domain error or a
    result that is not finite.

    Any step consuming a poisoned operand is itself poisoned; the sentinel
    never silently turns back into a number.
    """

    origin: int


NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}

_NUMERIC_CONST_RE = re.compile(r"^\d+(?:_\d+)?$")


def resolve_constant(name: str) -> float:
    """Resolve const_<name>: known names, else digits with an optional
    underscore read as a decimal point (1 -> 1, 100 -> 100, 0_25 -> 0.25)."""
    if name in NAMED_CONSTANTS:
        return NAMED_CONSTANTS[name]
    if _NUMERIC_CONST_RE.match(name):
        return float(name.replace("_", ".", 1))
    raise DataError(f"unknown constant const_{name}")


# Each operator's argument count (None: any number, passed as one list) and
# function. The infix operators share their named twins' entries.
_OPERATORS = {
    "add": (None, math.fsum),
    "subtract": (None, lambda args: reduce(operator.sub, args)),
    "multiply": (None, lambda args: reduce(operator.mul, args, 1.0)),
    "divide": (None, lambda args: reduce(operator.truediv, args)),
    "max": (None, max),
    "min": (None, min),
    "power": (2, math.pow),  # a domain error, not a complex number
    "sqrt": (1, math.sqrt),
    "log": (1, math.log),
    "negate": (1, operator.neg),
    "inverse": (1, lambda x: 1.0 / x),
    "floor": (1, lambda x: float(math.floor(x))),
}
_OPERATORS.update(
    zip(INFIX_OPERATORS, [_OPERATORS[n] for n in ("add", "subtract", "multiply", "divide")])
)


def evaluate_program(
    steps: Sequence[ReasoningStep], problem_numbers: Sequence[float] = ()
) -> list[float | PoisonedValue]:
    """Evaluate steps in order, resolving references against prior values.

    Division by zero, any numeric domain error and any result that is not
    finite yield a :class:`PoisonedValue` that propagates to every dependent
    step. An unknown operator or a wrong number of arguments raises
    :class:`~losslab.DataError`, even when an argument is poisoned.
    """
    values: list[float | PoisonedValue] = []
    for index, step in enumerate(steps):
        args: list[float] = []
        poisoned: PoisonedValue | None = None
        for operand in step.operands:
            if operand.kind is OperandKind.LITERAL:
                args.append(float(operand.value))
            elif operand.kind is OperandKind.PROBLEM_REF:
                k = int(operand.value)
                if not 0 <= k < len(problem_numbers):
                    raise DataError(
                        f"step {index} references problem number n{k}, "
                        f"but only {len(problem_numbers)} are available"
                    )
                args.append(float(problem_numbers[k]))
            elif operand.kind is OperandKind.STEP_REF:
                k = int(operand.value)
                if not 0 <= k < index:
                    raise DataError(
                        f"step {index} references step #{k}, which is not a prior step"
                    )
                prior = values[k]
                if isinstance(prior, PoisonedValue):
                    poisoned = prior
                else:
                    args.append(float(prior))
            else:
                args.append(resolve_constant(str(operand.value)))
        if step.operator not in _OPERATORS:
            raise DataError(f"unknown operator {step.operator!r}")
        arity, function = _OPERATORS[step.operator]
        if arity not in (None, len(step.operands)):
            raise DataError(
                f"operator {step.operator!r} takes {arity} argument(s), got {len(step.operands)}"
            )
        if poisoned is not None:
            values.append(poisoned)
            continue
        try:
            result = function(args) if arity is None else function(*args)
        except (ValueError, OverflowError, ZeroDivisionError):
            result = math.nan
        values.append(result if math.isfinite(result) else PoisonedValue(index))
    return values


def render_step(step: ReasoningStep) -> str:
    """Surface form that reparses to an identical step (numerals normalized)."""
    key = canonicalize_step(step)
    if step.stated_result is None or step.is_named:
        return key
    return f"{key}={format_number(step.stated_result)}"


def canonicalize_step(step: ReasoningStep, commutative: bool = False) -> str:
    """Deterministic matching key: operator plus normalized operands, as
    ``name(a,b)`` for a named operator and ``a+b`` for an infix one.

    With ``commutative`` set and a commutative operator, the rendered
    operands sort lexicographically so reordered forms share one key
    (``add(n1,n0)`` keys as ``add(n0,n1)``, ``3*2`` as ``2*3``). The stated
    result never participates. Both keys are built together when the step
    is made, and kept on it as :attr:`ReasoningStep.match_keys`.
    """
    return step.match_keys[bool(commutative)]


def normalize_final_answer(text: str) -> float | str:
    """Comparable form of a final answer.

    Strips whitespace and thousands separators; numeric strings (including a
    trailing .0) that are finite become floats, anything else (``nan``,
    ``inf``, a numeral too large for a float) becomes trimmed lowercase text.
    """
    cleaned = text.strip().replace(",", "")
    try:
        value = float(cleaned)
    except ValueError:
        return cleaned.lower()
    return value if math.isfinite(value) else cleaned.lower()
