"""Write the mixed500 eval fixture: 500 seeded gold/prediction records.

Three records in four are gsm8k (infix spans between filler words), one in
four mathqa (named operations over n<k>, #<k> and const_<x> arguments). The
prediction of each record is its gold with one perturbation, chosen by the
record index: none, a missing #### marker, swapped operands, a wrong
operator, a dropped step, a duplicated step, a malformed span or a wrong
answer. Every fifteenth gold also carries a malformed span of its own.

The committed .jsonl files are the fixture; this script documents how they
were made. Run it from this directory: ``python make_mixed500.py``.
"""

import json
import random

SEED = 500
RECORDS = 500
PERTURBATIONS = (
    "none", "missing_marker", "swapped_operands", "wrong_operator",
    "dropped_step", "duplicated_step", "malformed_span", "wrong_answer",
)
INFIX_WRONG = {"+": "*", "-": "+", "*": "-", "/": "*"}
PROGRAM_WRONG = {"add": "multiply", "subtract": "divide", "multiply": "add", "divide": "subtract"}
CONSTS = ("const_100", "const_2", "const_12", "const_3_6", "const_pi")
MALFORMED = {
    "gsm8k": ("3+x=5", "4*(2+1", "=7", "2++3", "8/2=4=4"),
    "mathqa": ("add(n0,", "divide(n0,(n1))", "subtract()", "multiply(n0,,n1)", "max n0"),
}
WORDS = ("so", "then", "she", "has", "pays", "left", "total", "each", "per", "week")


def numeral(rng: random.Random, value: float) -> str:
    """``value`` written as a text might: plain, with thousands commas, or
    as a decimal."""
    if value != int(value):
        return f"{value:.2f}".rstrip("0")
    if abs(value) >= 1000 and rng.random() < 0.5:
        return f"{int(value):,}"
    return str(int(value))


def infix_steps(rng: random.Random, count: int) -> list[list]:
    """[left, op, right]: each step's left operand is the previous result."""
    left = rng.randint(2, 90)
    steps = []
    for _ in range(count):
        op = rng.choice("+-*/")
        right = rng.choice([2, 4, 5]) if op == "/" else rng.randint(2, 40)
        steps.append([left, op, right])
        left = {"+": left + right, "-": left - right, "*": left * right, "/": left / right}[op]
    return steps


def infix_text(rng: random.Random, steps: list[list], final: str | None) -> str:
    parts = []
    for left, op, right in steps:
        result = {"+": left + right, "-": left - right, "*": left * right, "/": left / right}[op]
        span = f"{numeral(rng, left)}{op}{numeral(rng, right)}={numeral(rng, result)}"
        parts.append(f"{' '.join(rng.choices(WORDS, k=3))} <<{span}>>{numeral(rng, result)}.")
    if final is not None:
        parts.append(f"#### {final}")
    return " ".join(parts)


def program_steps(rng: random.Random, count: int) -> list[list]:
    """[op, arg, arg]: step t > 0 refers to step t - 1."""
    steps = [[rng.choice(list(PROGRAM_WRONG)), f"n{rng.randint(0, 5)}", f"n{rng.randint(0, 5)}"]]
    for t in range(1, count):
        other = rng.choice([f"n{rng.randint(0, 5)}", rng.choice(CONSTS), str(rng.randint(2, 9))])
        args = [f"#{t - 1}", other] if rng.random() < 0.5 else [other, f"#{t - 1}"]
        steps.append([rng.choice(list(PROGRAM_WRONG)), *args])
    return steps


def program_text(steps: list[list], final: str | None) -> str:
    text = " ".join(f"<<{op}({','.join(args)})>>" for op, *args in steps)
    return text if final is None else f"{text} #### {final}"


def records() -> tuple[list[dict], list[dict]]:
    rng = random.Random(SEED)
    golds, preds = [], []
    for i in range(RECORDS):
        fmt = "mathqa" if i % 4 == 3 else "gsm8k"
        kind = PERTURBATIONS[(i * 5 + i // 8) % len(PERTURBATIONS)]
        count = rng.randint(1, 5)
        if fmt == "mathqa":
            steps = program_steps(rng, count)
            final = rng.choice("abcde")
            wrong = rng.choice([c for c in "abcde" if c != final])
        else:
            steps = infix_steps(rng, count)
            final = numeral(rng, float(rng.randint(1, 5000)))
            wrong = numeral(rng, float(rng.randint(1, 5000)))
        pred = [list(s) for s in steps]
        pred_final: str | None = final
        j = rng.randrange(count)
        if kind == "missing_marker":
            pred_final = None
        elif kind == "swapped_operands":
            a, b = (1, 2) if fmt == "mathqa" else (0, 2)
            pred[j][a], pred[j][b] = pred[j][b], pred[j][a]
        elif kind == "wrong_operator":
            k = 0 if fmt == "mathqa" else 1
            pred[j][k] = (PROGRAM_WRONG if fmt == "mathqa" else INFIX_WRONG)[pred[j][k]]
        elif kind == "dropped_step":
            del pred[j]
        elif kind == "duplicated_step":
            pred.insert(j, list(pred[j]))
        elif kind == "wrong_answer":
            pred_final = wrong
        if fmt == "mathqa":
            gold_text, pred_text = program_text(steps, final), program_text(pred, pred_final)
        else:
            gold_text = infix_text(rng, steps, final)
            pred_text = infix_text(rng, pred, pred_final)
        if kind == "malformed_span":
            pred_text = f"<<{rng.choice(MALFORMED[fmt])}>> {pred_text}"
        if i % 15 == 7:
            gold_text = f"<<{rng.choice(MALFORMED[fmt])}>> {gold_text}"
        rid = f"m{i:03d}"
        golds.append({"id": rid, "gold": gold_text, "format": fmt})
        preds.append({"id": rid, "prediction": pred_text})
    rng.shuffle(preds)
    return golds, preds


def main() -> None:
    golds, preds = records()
    for name, rows in (("mixed500_gold.jsonl", golds), ("mixed500_pred.jsonl", preds)):
        with open(name, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)


if __name__ == "__main__":
    main()
