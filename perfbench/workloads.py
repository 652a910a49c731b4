"""The four benchmark workloads: seeded input generators and output checks.

Each workload drives one ``losslab`` subcommand. Its inputs are files written
from the benchmark seed before any timing starts; the same seed gives
byte-identical files and a different seed gives different files. Every
workload also has a smaller *probe* size, which the other workloads' runs use
to report this workload's throughput metric (see ``run.py``).

An output check returns ``None`` when the invocation's output is right and a
one-line reason otherwise. References were recorded at the seed commit by
``record_reference.py`` into ``reference.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Seeds whose train final loss and grad-check counts reference.json records.
REFERENCE_SEEDS = range(64)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@dataclass
class Job:
    """One CLI invocation whose inputs are already on disk."""

    argv: list[str]  # arguments after ``python -m losslab``
    size: str  # the input size, as the report states it
    cwd: Path
    work: float  # units of work one invocation completes
    outputs: list[Path]  # removed before every invocation
    check: Callable[[], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    metric: str  # the end-to-end throughput metric this workload owns
    unit: str
    prepare: Callable[[int, Path, bool], Job]  # (seed, directory, probe) -> Job


# --------------------------------------------------------------------------
# train-lovasz

TRAIN_STEPS = {False: 200, True: 60}
TRAIN_EVAL_INTERVAL = {False: 100, True: 30}
TRAIN_POSITIONS = 16  # instruction_answer template: 8 instruction + 8 answer
# Final loss of the trace: relative tolerance against the recorded value of
# the same seed; seeds without a recorded value must land inside the band
# that the recorded seeds span, widened by 0.5 on each side.
TRAIN_FINAL_RTOL = 1e-6
TRAIN_BAND_MARGIN = 0.5


def train_config(seed: int, probe: bool = False) -> dict:
    return {
        "seed": seed,
        "steps": TRAIN_STEPS[probe],
        "batch_size": 8,
        "max_lr": 0.01,
        "warmup_steps": 20,
        "vocab_size": 1024,
        "auxiliary": "ll",
        "mix": 0.6,
        "instruction_len": 8,
        "zipf_exponent": 1.0,
        "eval_interval": TRAIN_EVAL_INTERVAL[probe],
        "samples": 256,
        "val_samples": 64,
    }


def read_trace_losses(path: Path) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [float(json.loads(line)["loss"]) for line in lines[1:]]


def check_train(out_dir: Path, config: dict, reference: dict) -> str | None:
    try:
        losses = read_trace_losses(out_dir / "trace.jsonl")
    except (OSError, ValueError, KeyError) as exc:
        return f"trace unreadable: {exc}"
    if len(losses) != config["steps"]:
        return f"trace has {len(losses)} records, expected {config['steps']}"
    if not all(math.isfinite(v) for v in losses):
        return "trace holds a non-finite loss"
    first, final = losses[0], losses[-1]
    if not final < first:
        return f"final loss {final!r} is not below the first {first!r}"
    recorded = reference.get("final_loss", {}).get(str(config["seed"]))
    if recorded is not None:
        if abs(final - recorded) > TRAIN_FINAL_RTOL * abs(recorded):
            return f"final loss {final!r} differs from the recorded {recorded!r}"
    else:
        lo, hi = reference["band"]
        if not lo - TRAIN_BAND_MARGIN <= final <= hi + TRAIN_BAND_MARGIN:
            return f"final loss {final!r} outside the recorded band {lo}..{hi}"
    from losslab.training import load_model

    try:
        model = load_model(str(out_dir / "model.sltm"))
    except (OSError, ValueError) as exc:
        return f"model.sltm does not load: {exc}"
    if model.vocab_size != config["vocab_size"]:
        return f"model.sltm has vocabulary {model.vocab_size}"
    return None


def prepare_train(seed: int, directory: Path, probe: bool) -> Job:
    directory.mkdir(parents=True, exist_ok=True)
    config = train_config(seed, probe)
    (directory / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    out = directory / "run"
    reference = load_reference()["train"]["probe" if probe else "main"]
    return Job(
        argv=["train", "--config", "config.json", "--out-dir", "run"],
        size=f"{config['steps']} steps x 8 samples x {TRAIN_POSITIONS} positions, V=1024",
        cwd=directory,
        work=float(config["steps"] * config["batch_size"] * TRAIN_POSITIONS),
        outputs=[out],
        check=lambda: check_train(out, config, reference),
    )


# --------------------------------------------------------------------------
# eval-mixed

EVAL_RECORDS = {False: 20_000, True: 2_000}
# Share of records, in percent, per perturbation applied to the prediction.
# Record i gets the kind at position (37 * i) % 100 of this cumulative table,
# so every run of 100 consecutive records holds exactly these counts.
EVAL_PERTURBATIONS = (
    ("missing_marker", 3),
    ("swapped_operands", 10),
    ("wrong_operator", 10),
    ("dropped_step", 10),
    ("wrong_answer", 10),
    ("clean", 57),
)
INFIX_OPS = ("+", "-", "*")
INFIX_WRONG = {"+": "*", "-": "+", "*": "-"}
PROGRAM_OPS = ("add", "subtract", "multiply", "divide")
PROGRAM_WRONG = {"add": "multiply", "subtract": "divide", "multiply": "add", "divide": "subtract"}
PROGRAM_CONSTS = ("const_100", "const_2", "const_12", "const_60", "const_3_6")
FILLER = (
    "so", "then", "she", "he", "has", "gets", "pays", "sells", "buys", "left",
    "total", "each", "more", "per", "day", "week", "apples", "miles",
)


def _perturbation(i: int) -> str:
    slot = (37 * i) % 100
    for kind, share in EVAL_PERTURBATIONS:
        if slot < share:
            return kind
        slot -= share
    raise AssertionError("perturbation shares must sum to 100")


def _apply(op: str, a: int, b: int) -> float:
    return {"+": a + b, "-": a - b, "*": a * b}[op]


def _number(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(float(value))


def _infix_chain(rng: np.random.Generator, ops: list[str]) -> list[list]:
    """Steps [left, op, right, result] chaining each result into the next step.

    Every operand value in the chain is distinct, so no two steps share an
    operand multiset and each perturbation changes only its own step's match.
    That makes every per-record metric a function of the record index alone.
    """
    while True:
        draws = [int(v) for v in rng.integers(2, 60, size=len(ops) + 1)]
        left, steps, operands = draws[0], [], [draws[0]]
        for op, right in zip(ops, draws[1:]):
            if op == "-" and right >= left:
                break
            result = _apply(op, left, right)
            steps.append([left, op, right, result])
            operands.append(right)
            left = result
        else:
            operands += [s[3] for s in steps[:-1]]
            if len(set(operands)) == len(operands):
                return steps


def _program_chain(rng: np.random.Generator, ops: list[str]) -> list[list]:
    """Steps [op, arg, arg]; step t > 0 uses its unique #(t-1) reference."""
    a, b = (int(v) for v in rng.choice(6, size=2, replace=False))
    steps = [[ops[0], f"n{a}", f"n{b}"]]
    for t, op in enumerate(ops[1:], start=1):
        other = (
            f"n{int(rng.integers(0, 6))}"
            if rng.random() < 0.5
            else PROGRAM_CONSTS[int(rng.integers(0, len(PROGRAM_CONSTS)))]
        )
        args = [f"#{t - 1}", other] if rng.random() < 0.5 else [other, f"#{t - 1}"]
        steps.append([op, *args])
    return steps


def _words(rng: np.random.Generator, count: int) -> str:
    return " ".join(FILLER[int(k)] for k in rng.integers(0, len(FILLER), size=count))


def _render_infix(rng, steps: list[list], final: str | None) -> str:
    parts = []
    for left, op, right, _ in steps:
        value = _number(_apply(op, left, right))
        parts.append(f"{_words(rng, 3)} <<{left}{op}{right}={value}>>{value} {_words(rng, 2)}.")
    if final is not None:
        parts.append(f"#### {final}")
    return " ".join(parts)


def _render_program(steps: list[list], final: str | None) -> str:
    text = " ".join(f"<<{op}({','.join(args)})>>" for op, *args in steps)
    return text if final is None else f"{text} #### {final}"


def eval_records(seed: int, n: int) -> tuple[list[dict], list[dict]]:
    """Gold and prediction records. Three quarters are gsm8k, one quarter
    mathqa; the step count, operators, perturbation and perturbed step follow
    from the record index, and the seed picks every number and word."""
    rng = np.random.default_rng(seed)
    golds, preds = [], []
    for i in range(n):
        mathqa = i % 4 == 3
        k = 2 + (i // 4) % 3
        kind = _perturbation(i)
        j = (i // 12) % k
        if mathqa:
            steps = _program_chain(rng, [PROGRAM_OPS[(i + t) % 4] for t in range(k)])
            cents = int(rng.integers(100, 100_000))
            final = f"{cents // 100}.{cents % 100:02d}"
            wrong = f"{cents // 100 + int(rng.integers(1, 10))}.{cents % 100:02d}"
        else:
            steps = _infix_chain(rng, [INFIX_OPS[(i + t) % 3] for t in range(k)])
            final = _number(steps[-1][3])
            wrong = _number(steps[-1][3] + int(rng.integers(1, 10)))
        pred_steps = [list(s) for s in steps]
        pred_final: str | None = final
        if kind == "swapped_operands":
            s = pred_steps[j]
            if mathqa:
                s[1], s[2] = s[2], s[1]
            else:
                s[0], s[2] = s[2], s[0]
        elif kind == "wrong_operator":
            s = pred_steps[j]
            if mathqa:
                s[0] = PROGRAM_WRONG[s[0]]
            else:
                s[1] = INFIX_WRONG[s[1]]
        elif kind == "dropped_step":
            del pred_steps[j]
        elif kind == "wrong_answer":
            pred_final = wrong
        elif kind == "missing_marker":
            pred_final = None
        rid = f"q{i:05d}"
        if mathqa:
            gold_text = _render_program(steps, final)
            pred_text = _render_program(pred_steps, pred_final)
        else:
            gold_text = _render_infix(rng, steps, final)
            pred_text = _render_infix(rng, pred_steps, pred_final)
        golds.append({"id": rid, "gold": gold_text, "format": "mathqa" if mathqa else "gsm8k"})
        preds.append({"id": rid, "prediction": pred_text})
    order = rng.permutation(n)
    return golds, [preds[int(k)] for k in order]


def write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def check_eval(report_path: Path, expected: dict) -> str | None:
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        aggregate = report["aggregate"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"report unreadable: {exc}"
    if aggregate.get("n_samples") != expected["n_samples"]:
        return f"n_samples {aggregate.get('n_samples')!r}, expected {expected['n_samples']}"
    if aggregate != expected:
        keys = set(aggregate) | set(expected)
        diff = sorted(k for k in keys if aggregate.get(k) != expected.get(k))
        return f"aggregate differs from the reference in {diff}"
    return None


def prepare_eval(seed: int, directory: Path, probe: bool) -> Job:
    directory.mkdir(parents=True, exist_ok=True)
    n = EVAL_RECORDS[probe]
    golds, preds = eval_records(seed, n)
    write_jsonl(directory / "gold.jsonl", golds)
    write_jsonl(directory / "pred.jsonl", preds)
    out = directory / "report.json"
    expected = load_reference()["eval"][str(n)]
    return Job(
        argv=["eval", "--pred", "pred.jsonl", "--gold", "gold.jsonl", "--out", "report.json"],
        size=f"{n} records, 3/4 gsm8k and 1/4 mathqa",
        cwd=directory,
        work=float(n),
        outputs=[out],
        check=lambda: check_eval(out, expected),
    )


# --------------------------------------------------------------------------
# gradcheck-all

GRADCHECK_POSITIONS = {False: 16, True: 4}
GRADCHECK_VOCAB = 64
LOSS_NAMES = ("ce", "fl", "dl", "gdl", "sadl", "ll", "combined")
LOVASZ_LOSSES = ("ll", "combined")


def gradcheck_evaluations(positions: int, vocab: int) -> int:
    """Loss evaluations of one ``grad-check --loss all``: per loss, one
    analytic call plus two per logit coordinate."""
    return len(LOSS_NAMES) * (2 * positions * vocab + 1)


def check_gradcheck(result_path: Path, positions: int, recorded: dict | None) -> str | None:
    try:
        results = json.loads(result_path.read_text(encoding="utf-8"))["results"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"result unreadable: {exc}"
    if sorted(results) != sorted(LOSS_NAMES):
        return f"losses checked: {sorted(results)}"
    coordinates = positions * GRADCHECK_VOCAB
    for name in LOSS_NAMES:
        r = results[name]
        if r.get("passed") is not True:
            return f"{name} did not pass (max_rel_error {r.get('max_rel_error')})"
        counts = [r.get("n_checked"), r.get("n_skipped")]
        if recorded is not None:
            if counts != recorded[name]:
                return f"{name} checked/skipped {counts}, recorded {recorded[name]}"
        elif counts[0] + counts[1] != coordinates or counts[1] % GRADCHECK_VOCAB or (
            counts[1] and name not in LOVASZ_LOSSES
        ):
            return f"{name} checked/skipped {counts} is not a whole-row split of {coordinates}"
    return None


def prepare_gradcheck(seed: int, directory: Path, probe: bool) -> Job:
    directory.mkdir(parents=True, exist_ok=True)
    positions = GRADCHECK_POSITIONS[probe]
    out = directory / "gradcheck.json"
    recorded = load_reference()["gradcheck"][f"{positions}x{GRADCHECK_VOCAB}"].get(str(seed))
    return Job(
        argv=[
            "grad-check", "--loss", "all",
            "--positions", str(positions), "--vocab", str(GRADCHECK_VOCAB),
            "--seed", str(seed), "--out", "gradcheck.json",
        ],
        size=f"--loss all at {positions} positions x {GRADCHECK_VOCAB} classes",
        cwd=directory,
        work=float(gradcheck_evaluations(positions, GRADCHECK_VOCAB)),
        outputs=[out],
        check=lambda: check_gradcheck(out, positions, recorded),
    )


# --------------------------------------------------------------------------
# tokens-8k

TOKEN_RANGE = {False: 8000, True: 2000}
TOKEN_COUNT = 200_000
TOKENS_PER_RECORD = 500
DENSITY_ATOL = 1e-12


def token_stream(seed: int, id_range: int, count: int = TOKEN_COUNT) -> np.ndarray:
    """Zipf(1) draws over ``id_range`` ids, ranked by a seeded permutation;
    ids 0 and id_range - 1 always occur, so the grid spans the whole range."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, id_range + 1, dtype=np.float64)
    pmf = ranks**-1.0
    pmf /= pmf.sum()
    ids = rng.permutation(id_range)[rng.choice(id_range, size=count, p=pmf)]
    ids[:2] = (0, id_range - 1)
    rng.shuffle(ids)
    return ids


def reference_density(ids: np.ndarray) -> np.ndarray:
    """Reflected Gaussian KDE on the integer grid, by convolution.

    An independent route to ``token_density``: the kernel depends only on the
    id distance, so the direct term is a convolution of the histogram with
    the kernel and each reflected term a correlation, all in O(G) memory.
    """
    lo, hi = int(ids.min()), int(ids.max())
    g, n = hi - lo + 1, ids.size
    counts = np.bincount(ids - lo, minlength=g).astype(np.float64)
    h = float(ids.std(ddof=1)) * n ** (-1.0 / 5.0) if n > 1 else 0.0
    if not h > 0.0:
        h = 1.0

    def kernel(d: np.ndarray) -> np.ndarray:
        z = d / h
        return np.exp(-0.5 * z * z)

    # direct[a] = sum_b c[b] k(a - b)
    distances = np.arange(-(g - 1), g, dtype=np.float64)
    direct = np.convolve(counts, kernel(distances))[g - 1 : 2 * g - 1]
    # reflected[a] = sum_b c[b] q[a + b], with q[s] = k(s + 1) and k(s + 1 - 2g)
    s = np.arange(0, 2 * g - 1, dtype=np.float64)
    rev = counts[::-1]
    left = np.convolve(rev, kernel(s + 1.0))[g - 1 : 2 * g - 1]
    right = np.convolve(rev, kernel(s + 1.0 - 2 * g))[g - 1 : 2 * g - 1]
    density = (direct + left + right) / (n * h * math.sqrt(2.0 * math.pi))
    if g > 1:
        density = density / float(0.5 * np.sum(density[1:] + density[:-1]))
    return density


def read_density_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "id,density":
        raise ValueError("missing id,density header")
    rows = [line.split(",") for line in lines[1:]]
    return np.array([int(r[0]) for r in rows]), np.array([float(r[1]) for r in rows])


def check_tokens(csv_path: Path, expected: np.ndarray) -> str | None:
    try:
        ids, density = read_density_csv(csv_path)
    except (OSError, ValueError, IndexError) as exc:
        return f"density unreadable: {exc}"
    if not np.array_equal(ids, np.arange(expected.size)):
        return f"density grid has {ids.size} ids, expected 0..{expected.size - 1}"
    err = float(np.max(np.abs(density - expected)))
    if not err <= DENSITY_ATOL:
        return f"density differs from the reference by {err:.3e}"
    mass = float(0.5 * np.sum(density[1:] + density[:-1]))
    if not abs(mass - 1.0) <= DENSITY_ATOL:
        return f"trapezoid integral is {mass!r}"
    return None


def prepare_tokens(seed: int, directory: Path, probe: bool) -> Job:
    directory.mkdir(parents=True, exist_ok=True)
    ids = token_stream(seed, TOKEN_RANGE[probe])
    records = [
        {"tokens": ids[k : k + TOKENS_PER_RECORD].tolist()}
        for k in range(0, ids.size, TOKENS_PER_RECORD)
    ]
    write_jsonl(directory / "tokens.jsonl", records)
    out = directory / "density.csv"
    expected = reference_density(ids)
    return Job(
        argv=["tokens", "--input", "tokens.jsonl", "--out", "density.csv"],
        size=f"{ids.size} ids spanning ids 0..{TOKEN_RANGE[probe] - 1}",
        cwd=directory,
        work=float(ids.size),
        outputs=[out, directory / "density.csv.manifest.json"],
        check=lambda: check_tokens(out, expected),
    )


# --------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-lovasz",
            "training at full size: its command exercises the loss kernels and the "
            "step loop (Lovasz auxiliary, V=1024)",
            "train_tokens_per_s", "tokens/s",
            prepare_train,
        ),
        Workload(
            "eval-mixed",
            "its command is pure-Python parsing and metrics; losses and training "
            "never run in it, so it is the control for NumPy optimizations",
            "eval_records_per_s", "records/s",
            prepare_eval,
        ),
        Workload(
            "gradcheck-all",
            "the loss kernels on a 16x64 batch about 2k times per loss, where "
            "per-call fixed cost dominates",
            "gradcheck_evals_per_s", "evals/s",
            prepare_gradcheck,
        ),
        Workload(
            "tokens-8k",
            "its command is the only one in stats; token_density builds G x G "
            "temporaries at G=8000 ids",
            "tokens_ids_per_s", "ids/s",
            prepare_tokens,
        ),
    )
}
