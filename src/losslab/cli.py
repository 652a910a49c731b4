"""Command-line harness: eval, stats, train, grad-check, tokens, parse.

Every run is deterministic for fixed inputs: reports embed (or sit next to) a
manifest holding the argv, the resolved configuration, SHA-256 digests of the
input files, the tool version, and the seed. Timestamps are deliberately left
null so reruns stay byte-identical. Exit codes: 0 success, 1 usage error,
2 data error, 3 internal error (also used when a requested gradient check
fails).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__
from .gradcheck import LOSS_NAMES, check_named_loss
from .losses import (
    AuxiliaryKind,
    LogitBatch,
    LossConfig,
    LossInputError,
    Role,
)
from .metrics import (
    CSV_COLUMNS,
    LOWER_IS_BETTER,
    SampleMetrics,
    StepSet,
    aggregate_report,
    error_typology,
    exact_match,
    step_overlap_metrics,
)
from .parsing import (
    MissingFinalAnswer,
    ParseError,
    PoisonedValue,
    Rationale,
    RationaleFormat,
    evaluate_program,
    parse_rationale,
)
from .stats import (
    LengthMismatch,
    PairedOutcomes,
    ScoreTable,
    ZeroVariance,
    mcnemar_test,
    mean_rank,
    paired_t_test,
    pearson_r,
    token_density,
)
from .training import (
    CorpusTemplate,
    SnapshotFormatError,
    TrainConfig,
    TrainingDiverged,
    UnknownTokenId,
    make_synthetic_corpus,
    save_model,
    train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

MAX_TOKEN_SPAN = 2**20  # token_density takes O(G) memory and O(G^2) time over G ids

EVAL_FORMATS = ("gsm8k", "mathqa", "qa_letter")

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


class DataError(ValueError):
    """Input data problems: malformed files, schema violations, mismatches."""


class MalformedLine(DataError):
    pass


class MissingField(DataError):
    pass


class DuplicateId(DataError):
    pass


class IdMismatch(DataError):
    pass


class IncompatibleReports(DataError):
    pass


class ConfigError(DataError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# json.loads raises more than JSONDecodeError on text it cannot hold: ValueError
# for an integer past int()'s digit limit, RecursionError for deep nesting
JSON_ERRORS = (ValueError, RecursionError)


def _json_error(exc: Exception) -> str:
    return exc.msg if isinstance(exc, json.JSONDecodeError) else f"{type(exc).__name__}: {exc}"


def ingest_jsonl(path: str | Path, required: tuple[str, ...]) -> list[dict]:
    """Load JSON-lines records, validating required fields and unique ids.

    Lines end at LF or CRLF only, so a U+2028 inside a string stays in its
    record; blank lines are skipped. Unknown fields are preserved.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    records: list[dict] = []
    seen_ids: set = set()
    # a CRLF line keeps its \r, which JSON reads as whitespace
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except JSON_ERRORS as exc:
            raise MalformedLine(f"{path}:{lineno}: invalid JSON ({_json_error(exc)})") from exc
        if not isinstance(record, dict):
            raise MalformedLine(f"{path}:{lineno}: record must be a JSON object")
        for field in required:
            if field not in record:
                raise MissingField(f"{path}:{lineno}: missing field {field!r}")
        if "id" in required:
            rid = record["id"]
            if isinstance(rid, (list, dict)):
                raise MalformedLine(f"{path}:{lineno}: id {json.dumps(rid)} is an array or object")
            if rid in seen_ids:
                raise DuplicateId(f"{path}:{lineno}: duplicate id {rid!r}")
            seen_ids.add(rid)
        records.append(record)
    return records


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _write(text: str, path: str | Path | None) -> None:
    """Write ``text`` to the file at ``path``, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def build_manifest(command: list[str], config: dict, inputs: list[str | Path], seed=None) -> dict:
    return {
        "command": list(command),
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
        "seed": seed,
        "timestamp": None,
    }


def _parse_completion(text: str, fmt: str) -> tuple[Rationale, list[str]]:
    """Returns (rationale, extra diagnostics); degrades missing markers."""
    if fmt == "qa_letter":
        final = text.strip()
        return Rationale((), final if final else None, None, ()), []
    try:
        return parse_rationale(text, RationaleFormat(fmt)), []
    except MissingFinalAnswer as exc:
        return exc.rationale, [str(exc)]


def score_record(record_id, gold_text: str, pred_text: str, fmt: str, commutative: bool) -> dict:
    """All per-record metrics plus diagnostics for one prediction/gold pair."""
    gold, gold_diag = _parse_completion(gold_text, fmt)
    pred, pred_diag = _parse_completion(pred_text, fmt)
    diagnostics = (
        [f"gold: {d}" for d in (*gold.diagnostics, *gold_diag)]
        + [f"prediction: {d}" for d in (*pred.diagnostics, *pred_diag)]
    )

    em = exact_match(pred.final_answer, gold.final_answer)

    plain_pred = StepSet.from_steps(pred.steps, commutative=False)
    plain_gold = StepSet.from_steps(gold.steps, commutative=False)
    comm_pred = StepSet.from_steps(pred.steps, commutative=True)
    comm_gold = StepSet.from_steps(gold.steps, commutative=True)

    plain = step_overlap_metrics(plain_pred, plain_gold, commutative=False)
    comm = step_overlap_metrics(comm_pred, comm_gold, commutative=True)
    matched = (comm_pred, comm_gold) if commutative else (plain_pred, plain_gold)
    overlap = comm if commutative else plain
    typology = error_typology(*matched)

    sample = SampleMetrics(  # in the column order SampleMetrics declares
        em, plain.iou, comm.iou, overlap.precision, overlap.recall, overlap.dice,
        typology.extra_rate, typology.missing_rate, typology.wrong_operator,
        typology.inverted_operands,
    )
    return {
        "id": record_id,
        "metrics": sample,
        "diagnostics": diagnostics,
        "gold": gold,
        "prediction": pred,
    }


def run_eval(
    pred_path: str | Path,
    gold_path: str | Path,
    fmt: str,
    commutative: bool = True,
    keep_parses: bool = False,
) -> tuple[dict, list[dict] | None]:
    """Score a prediction file against a gold file; ids must align 1:1.

    Each record is scored straight into its per-sample report row, so eval
    holds one row per record and frees each record's parsed rationales once
    it is scored. Only ``keep_parses`` (``--dump-parse``) keeps the parses,
    as the dump entries returned second; without it that value is None.
    """
    preds = ingest_jsonl(pred_path, required=("id", "prediction"))
    golds = ingest_jsonl(gold_path, required=("id", "gold"))
    pred_by_id = {r["id"]: r for r in preds}
    gold_by_id = {r["id"]: r for r in golds}
    if set(pred_by_id) != set(gold_by_id):
        only_pred = sorted(set(pred_by_id) - set(gold_by_id), key=str)[:5]
        only_gold = sorted(set(gold_by_id) - set(pred_by_id), key=str)[:5]
        raise IdMismatch(
            f"ids of {pred_path} and {gold_path} differ "
            f"(pred-only {only_pred}, gold-only {only_gold})"
        )
    if not gold_by_id:
        raise DataError(f"{pred_path} and {gold_path} hold no records")

    samples: list[SampleMetrics] = []
    per_sample: list[dict] = []
    dump: list[dict] | None = [] if keep_parses else None
    for rid in sorted(gold_by_id, key=str):
        gold_rec = gold_by_id[rid]
        record_fmt = gold_rec.get("format", fmt)
        if record_fmt not in EVAL_FORMATS:
            raise DataError(f"record {rid!r} has unknown format {record_fmt!r}")
        scored = score_record(
            rid,
            str(gold_rec["gold"]),
            str(pred_by_id[rid]["prediction"]),
            record_fmt,
            commutative,
        )
        sample = scored["metrics"]
        samples.append(sample)
        per_sample.append({"id": rid, **sample.as_dict(), "diagnostics": scored["diagnostics"]})
        if dump is not None:
            dump.append(
                {
                    "id": rid,
                    "gold": scored["gold"].to_dict(),
                    "prediction": scored["prediction"].to_dict(),
                }
            )

    report = {
        "aggregate": aggregate_report(samples),
        "per_sample": per_sample,
        "conventions": {
            "commutative_matching": commutative,
            "iou": "multiset IoU over exact canonical step keys",
            "ciou": "multiset IoU over commutative-normalized step keys",
            "empty_step_sets": "both empty scores 1, one empty scores 0",
            "em_numeric_tolerance": 1e-6,
        },
    }
    return report, dump


def _aggregate_row_csv(aggregate: dict) -> str:
    header = ",".join(CSV_COLUMNS)
    row = ",".join(repr(float(aggregate[c])) for c in CSV_COLUMNS)
    return f"{header}\n{row}\n"


def _aggregate_row_markdown(aggregate: dict) -> str:
    header = "| " + " | ".join(CSV_COLUMNS) + " |"
    rule = "|" + "|".join(" --- " for _ in CSV_COLUMNS) + "|"
    row = "| " + " | ".join(f"{float(aggregate[c]):.2f}" for c in CSV_COLUMNS) + " |"
    return f"{header}\n{rule}\n{row}\n"


def emit_report(report: dict, out_format: str, out_path: str | None) -> None:
    """Write a report as lossless JSON, a CSV aggregate row, or a markdown
    table. CSV and markdown files get a manifest sidecar next to them."""
    if out_format == "json":
        text = _json_text(report)
    elif out_format == "csv":
        text = _aggregate_row_csv(report["aggregate"])
    elif out_format == "markdown":
        text = _aggregate_row_markdown(report["aggregate"])
    else:
        raise ConfigError(f"unknown output format {out_format!r}")
    _write(text, out_path)
    if out_path is not None and out_format != "json" and "manifest" in report:
        _write(_json_text(report["manifest"]), f"{out_path}.manifest.json")


def _cmd_eval(args, argv: list[str]) -> int:
    commutative = not args.no_commutative
    report, dump = run_eval(
        args.pred, args.gold, args.format, commutative, keep_parses=bool(args.dump_parse)
    )
    manifest = build_manifest(
        argv,
        {
            "format": args.format,
            "commutative": commutative,
            "out_format": args.out_format,
        },
        [args.pred, args.gold],
    )
    report = {"manifest": manifest, **report}
    if args.dump_parse:
        _write(_json_text(dump), args.dump_parse)
    emit_report(report, args.out_format, args.out)
    return EXIT_OK


def _has_json_type(value, kind: type) -> bool:
    """Whether a JSON value has the type ``kind``; a float must be finite."""
    if kind is float and type(value) is int:  # an integer fills a float key it fits in
        return abs(value) <= sys.float_info.max
    # JSON true/false load as bool, a subclass of int, and so fill no int key
    return type(value) is kind and (kind is not float or math.isfinite(value))


def _check_columns(row, kinds: dict, where: str) -> None:
    if not isinstance(row, dict):
        raise IncompatibleReports(f"{where} must be an object")
    for name, kind in kinds.items():
        if name not in row:
            raise IncompatibleReports(f"{where} lacks column {name!r}")
        if not _has_json_type(row[name], kind):
            raise IncompatibleReports(
                f"{where}: {name} must be {_JSON_TYPES[kind]}, got {json.dumps(row[name])}"
            )


def _load_report(path: str) -> dict:
    """An eval JSON report whose columns have the types SampleMetrics declares."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except JSON_ERRORS as exc:
        raise DataError(f"{path}: not valid JSON ({_json_error(exc)})") from exc
    if not isinstance(report, dict) or "per_sample" not in report or "aggregate" not in report:
        raise IncompatibleReports(f"{path}: not an evaluation report")
    # the aggregate em is a percentage, so every aggregate column is a number
    _check_columns(report["aggregate"], dict.fromkeys(CSV_COLUMNS, float), f"{path}: aggregate")
    if not isinstance(report["per_sample"], list):
        raise IncompatibleReports(f"{path}: per_sample must be an array")
    kinds = get_type_hints(SampleMetrics)
    # every column but the em flag is a rate; pearson_r squares them, so a
    # huge finite value would overflow it
    rates = [name for name, kind in kinds.items() if kind is float]
    for index, row in enumerate(report["per_sample"]):
        if not isinstance(row, dict) or "id" not in row:
            raise IncompatibleReports(f"{path}: per_sample[{index}] must be an object with an id")
        where = f"{path}: per_sample[{index}] (id {json.dumps(row['id'])})"
        _check_columns(row, kinds, where)
        for name in rates:
            if not 0.0 <= row[name] <= 1.0:
                raise IncompatibleReports(
                    f"{where}: {name} must lie in [0, 1], got {json.dumps(row[name])}"
                )
    return report


def _aligned_columns(reports: list[dict], paths: list[str], column: str) -> list[list]:
    """Per-sample ``column`` of each report, rows matched by the text of their ids."""
    tables = []
    for rep, path in zip(reports, paths):
        by_id: dict[str, dict] = {}
        for row in rep["per_sample"]:
            if by_id.setdefault(str(row["id"]), row) is not row:
                raise IncompatibleReports(f"{path}: two per-sample ids read {str(row['id'])!r}")
        tables.append(by_id)
    ids = sorted(tables[0])
    if any(sorted(table) != ids for table in tables[1:]):
        raise IncompatibleReports("reports cover different sample ids")
    return [[table[i][column] for i in ids] for table in tables]


def run_stats(test: str, paths: list[str], metric: str = "iou") -> dict:
    reports = [_load_report(p) for p in paths]
    if test in ("mcnemar", "ttest", "pearson") and len(reports) != 2:
        raise IncompatibleReports(f"{test} compares exactly two reports")
    if test == "mcnemar":
        a, b = _aligned_columns(reports, paths, "em")
        result = mcnemar_test(PairedOutcomes(np.array(a, bool), np.array(b, bool)))
        return {"test": "mcnemar", **asdict(result), "significant": result.p_value < 0.05}
    if test == "ttest":
        result = paired_t_test(*_aligned_columns(reports, paths, metric))
        significant = result.p_value < 0.05
        return {"test": "ttest", "metric": metric, **asdict(result), "significant": significant}
    if test == "pearson":
        x, y = _aligned_columns(reports, paths, metric)
        return {"test": "pearson", "metric": metric, "r": pearson_r(x, y), "n": len(x)}
    if test == "meanrank":
        if len(reports) < 2:
            raise IncompatibleReports("meanrank needs at least two reports")
        names = tuple(Path(p).stem for p in paths)
        if len(set(names)) != len(names):
            names = tuple(str(p) for p in paths)
        scores = np.array([[float(rep["aggregate"][c]) for c in CSV_COLUMNS] for rep in reports])
        higher_is_better = tuple(c not in LOWER_IS_BETTER for c in CSV_COLUMNS)
        table = ScoreTable(names, CSV_COLUMNS, scores, higher_is_better)
        return {"test": "meanrank", "mean_rank": mean_rank(table)}
    raise ConfigError(f"unknown test {test!r}")


def _cmd_stats(args, argv: list[str]) -> int:
    result = run_stats(args.test, args.reports, args.metric)
    manifest = build_manifest(
        argv, {"test": args.test, "metric": args.metric}, args.reports
    )
    # an empty --out prints, like no --out
    _write(_json_text({"manifest": manifest, **result}), args.out or None)
    if "p_value" in result:
        star = " *" if result.get("significant") else ""
        print(
            f"{args.test}: statistic={result.get('statistic')} "
            f"p={result['p_value']:.6g}{star}",
            file=sys.stderr,
        )
    return EXIT_OK


# the loss is built from mix, gamma and auxiliary
_TRAIN_DEFAULTS = {f.name: f.default for f in fields(TrainConfig) if f.name != "loss"}
TRAIN_CONFIG_KEYS = {
    **_TRAIN_DEFAULTS,
    "mix": LossConfig.mix,
    "gamma": LossConfig.gamma,
    "auxiliary": LossConfig.auxiliary_kind.value,
    "vocab_size": 32,
    "zipf_exponent": 1.0,
    "samples": 256,
    "template": "instruction_answer",
    "instruction_len": 4,
    "seq_len": 16,
    "val_samples": 64,
}
# The largest value of each integer key, far above the trainer's toy scale.
# One key at its ceiling, the others at their defaults, peaks below 300 MiB
# in a two-step run; MAX_ARRAY_VALUES bounds the keys that combine.
TRAIN_INT_CEILINGS = {
    "seed": 2**63 - 1,
    "steps": 1_000_000,
    "warmup_steps": 1_000_000,
    "eval_interval": 1_000_000,
    "accum_steps": 1024,
    "batch_size": 4096,
    "embed_dim": 4096,
    "window": 1024,
    "adapter_rank": 1024,
    "vocab_size": 16384,
    "samples": 100_000,
    "val_samples": 10_000,
    "instruction_len": 512,
    "seq_len": 1024,
}


# The most values one array of a train run may hold (128 MiB of float64),
# however the keys combine: the logits of a training or validation forward
# (rows * vocab_size), its gathered context windows (rows * window *
# embed_dim) and the embedding table (vocab_size * embed_dim). A forward's
# rows are batch_size or val_samples samples of seq_len ("plain") or
# 2 * instruction_len positions.
MAX_ARRAY_VALUES = 2**24


def _check_array_sizes(config: dict, path: str) -> None:
    if config["template"] == CorpusTemplate.PLAIN.value:
        length, length_keys = config["seq_len"], "seq_len"
    else:
        length, length_keys = 2 * config["instruction_len"], "2 * instruction_len"
    vocab, width = config["vocab_size"], config["window"] * config["embed_dim"]
    arrays = [("vocab_size * embed_dim", vocab * config["embed_dim"])]
    for rows in ("batch_size", "val_samples"):
        positions, keys = config[rows] * length, f"{rows} * {length_keys}"
        arrays.append((f"{keys} * vocab_size", positions * vocab))
        arrays.append((f"{keys} * window * embed_dim", positions * width))
    for keys, size in arrays:
        if size > MAX_ARRAY_VALUES:
            raise ConfigError(
                f"{path}: {keys} is {size} values in one array, above the ceiling of "
                f"{MAX_ARRAY_VALUES}"
            )


def load_train_config(path: str, loss_by_task: str | None = None) -> dict:
    """Flat JSON config; unknown keys and ill-typed values are rejected by name."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except JSON_ERRORS as exc:
        raise ConfigError(f"{path}: not valid JSON ({_json_error(exc)})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(TRAIN_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    for key, value in raw.items():
        kind = type(TRAIN_CONFIG_KEYS[key])
        if not _has_json_type(value, kind):
            raise ConfigError(f"{path}: {key} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
        if kind is int and value > TRAIN_INT_CEILINGS[key]:
            raise ConfigError(
                f"{path}: {key} must be at most {TRAIN_INT_CEILINGS[key]}, got {json.dumps(value)}"
            )
    config = {**TRAIN_CONFIG_KEYS, **raw}
    _check_array_sizes(config, path)
    if loss_by_task is not None:
        config["auxiliary"] = {"mwp": "ll", "qa": "fl"}[loss_by_task]
    return config


def run_train(config: dict, out_dir: str | Path, argv: list[str], config_path: str) -> int:
    # an integer in a float key reaches the trainer, and its trace, as a float
    typed = {k: float(v) if type(TRAIN_CONFIG_KEYS[k]) is float else v for k, v in config.items()}
    try:
        loss_cfg = LossConfig(typed["mix"], typed["gamma"], AuxiliaryKind(typed["auxiliary"]))
        train_cfg = TrainConfig(**{name: typed[name] for name in _TRAIN_DEFAULTS}, loss=loss_cfg)
        shared = {
            k: typed[k] for k in ("vocab_size", "zipf_exponent", "instruction_len", "seq_len")
        }
        shared["template"] = CorpusTemplate(typed["template"])
        for key in ("samples", "val_samples"):  # make_synthetic_corpus names both n_samples
            if typed[key] < 1:
                raise ValueError(f"{key} must be >= 1, got {typed[key]}")
        corpus = make_synthetic_corpus(seed=typed["seed"], n_samples=typed["samples"], **shared)
        val_corpus = make_synthetic_corpus(
            seed=typed["seed"] + 1, n_samples=typed["val_samples"], **shared
        )
    except ValueError as exc:
        raise ConfigError(f"invalid training config: {exc}") from exc
    trace = train(train_cfg, corpus, val_corpus)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace.to_jsonl(out / "trace.jsonl")
    save_model(trace.final_model, out / "model.sltm")
    if trace.best_model is not None:
        save_model(trace.best_model, out / "model_best.sltm")
    manifest = build_manifest(argv, config, [config_path], seed=config["seed"])
    manifest["best_step"] = trace.best_step
    manifest["best_val_loss"] = trace.best_val_loss
    manifest["trainable_fraction"] = trace.trainable_fraction
    _write(_json_text(manifest), out / "manifest.json")
    return EXIT_OK


def _cmd_train(args, argv: list[str]) -> int:
    config = load_train_config(args.config, args.loss_by_task)
    return run_train(config, args.out_dir, argv, args.config)


# positions * vocab of the grad-check batch. Its arrays stay below 1 MiB, but
# the check makes two loss calls per logit, each over the whole batch: at the
# ceiling that is 131,072 calls per loss, minutes of work.
MAX_GRADCHECK_LOGITS = 2**16


def _check_grad_check_args(args) -> None:
    """Reject each bad grad-check flag by name, before any array is built."""
    for flag, value, least in (
        ("--seed", args.seed, 0),
        ("--positions", args.positions, 1),
        ("--vocab", args.vocab, 2),
    ):
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}, got {value}")
    if args.positions * args.vocab > MAX_GRADCHECK_LOGITS:
        raise ConfigError(
            f"--positions * --vocab must be at most {MAX_GRADCHECK_LOGITS}, "
            f"got {args.positions} * {args.vocab}"
        )
    for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ConfigError(f"{flag} must be a positive finite number, got {value!r}")


def _gradcheck_batch(seed: int, positions: int, vocab: int) -> LogitBatch:
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((positions, vocab))
    targets = rng.integers(0, vocab, size=positions)
    half = positions // 2
    roles = np.array(
        [int(Role.INSTRUCTION)] * half + [int(Role.ANSWER)] * (positions - half)
    )
    return LogitBatch(logits, targets, roles)


def _cmd_grad_check(args, argv: list[str]) -> int:
    _check_grad_check_args(args)
    names = list(LOSS_NAMES) if args.loss == "all" else [args.loss]
    batch = _gradcheck_batch(args.seed, args.positions, args.vocab)
    results = {}
    all_passed = True
    for name in names:
        report = check_named_loss(name, batch, step=args.step, tolerance=args.tolerance)
        results[name] = {
            "max_rel_error": float(report.max_rel_error),
            "worst_coordinate": [int(c) for c in report.worst_coordinate]
            if report.worst_coordinate
            else None,
            "n_checked": int(report.n_checked),
            "n_skipped": len(report.skipped),
            "passed": bool(report.passed),
        }
        all_passed &= report.passed
        print(f"{name}: {report.summary()}")
    if args.out:
        manifest = build_manifest(
            argv,
            {
                "seed": args.seed,
                "positions": args.positions,
                "vocab": args.vocab,
                "step": args.step,
                "tolerance": args.tolerance,
            },
            [],
            seed=args.seed,
        )
        _write(_json_text({"manifest": manifest, "results": results}), args.out)
    return EXIT_OK if all_passed else EXIT_INTERNAL


def _cmd_tokens(args, argv: list[str]) -> int:
    records = ingest_jsonl(args.input, required=("tokens",))
    exclude = set()
    if args.exclude_ids:
        try:
            exclude = {int(x) for x in args.exclude_ids.split(",") if x.strip()}
        except ValueError as exc:
            raise ConfigError(f"--exclude-ids must be integers: {exc}") from exc
    stream: list[int] = []
    for lineno, record in enumerate(records, start=1):
        tokens = record["tokens"]
        if not isinstance(tokens, list):
            raise MalformedLine(f"{args.input}: record {lineno}: 'tokens' must be a list")
        for t in tokens:
            # JSON true/false load as bool, a subclass of int
            if type(t) is not int or not -(2**63) <= t < 2**63:
                raise MalformedLine(
                    f"{args.input}: record {lineno}: token {json.dumps(t)} is not a 64-bit integer"
                )
            if t not in exclude:
                stream.append(t)
    if not stream:
        raise DataError("token stream is empty after exclusions")
    lo, hi = min(stream), max(stream)
    if hi - lo >= MAX_TOKEN_SPAN:
        raise DataError(f"token ids {lo}..{hi} span more than {MAX_TOKEN_SPAN} ids")
    bandwidth = args.bandwidth
    if bandwidth != "scott":
        try:
            bandwidth = float(bandwidth)
        except ValueError:
            bandwidth = math.nan
        if not (bandwidth > 0.0 and math.isfinite(bandwidth)):
            raise ConfigError(
                f"--bandwidth must be 'scott' or a positive finite number, got {args.bandwidth!r}"
            )
    density = token_density(stream, bandwidth)
    lines = ["id,density"]
    for i, d in zip(density.ids, density.density):
        lines.append(f"{int(i)},{float(d)!r}")
    _write("\n".join(lines) + "\n", args.out)
    manifest = build_manifest(
        argv,
        {"exclude_ids": sorted(exclude), "bandwidth": args.bandwidth},
        [args.input],
    )
    _write(_json_text(manifest), f"{args.out}.manifest.json")
    if args.json_out:
        payload = {
            "manifest": manifest,
            "bandwidth": density.bandwidth,
            "n": density.n,
            "ids": [int(i) for i in density.ids],
            "density": [float(d) for d in density.density],
            "log_density": [float(d) for d in density.log_density],
            "histogram": [int(c) for c in density.histogram],
        }
        _write(_json_text(payload), args.json_out)
    return EXIT_OK


def _cmd_parse(args, argv: list[str]) -> int:
    rationale, extra_diagnostics = _parse_completion(args.text, args.format)
    payload = rationale.to_dict()
    payload["diagnostics"] += extra_diagnostics
    if args.numbers is not None:
        try:
            numbers = [float(x) for x in args.numbers.split(",") if x.strip()]
        except ValueError as exc:
            raise ConfigError(f"--numbers must be comma-separated numbers: {exc}") from exc
        if not all(math.isfinite(x) for x in numbers):
            raise ConfigError(f"--numbers must be finite numbers, got {args.numbers!r}")
        values = evaluate_program(rationale.steps, numbers)
        payload["values"] = [
            {"poisoned_by_step": v.origin} if isinstance(v, PoisonedValue) else v
            for v in values
        ]
    _write(_json_text(payload), None)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="losslab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score predictions against gold rationales")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--format", choices=EVAL_FORMATS, default="gsm8k")
    p_eval.add_argument("--no-commutative", action="store_true")
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--out-format", choices=("json", "csv", "markdown"), default="json")
    p_eval.add_argument("--dump-parse", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_stats = sub.add_parser("stats", help="statistical comparison of eval reports")
    p_stats.add_argument("--test", choices=("mcnemar", "ttest", "pearson", "meanrank"), required=True)
    p_stats.add_argument("--metric", choices=CSV_COLUMNS, default="iou")
    p_stats.add_argument("--out", default=None)
    p_stats.add_argument("reports", nargs="+")
    p_stats.set_defaults(func=_cmd_stats)

    p_train = sub.add_parser("train", help="train the toy model on a synthetic corpus")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out-dir", required=True)
    p_train.add_argument("--loss-by-task", choices=("mwp", "qa"), default=None)
    p_train.set_defaults(func=_cmd_train)

    p_grad = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p_grad.add_argument("--loss", choices=("all",) + LOSS_NAMES, default="all")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--positions", type=int, default=8)
    p_grad.add_argument("--vocab", type=int, default=17)
    p_grad.add_argument("--step", type=float, default=1e-5)
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.add_argument("--out", default=None)
    p_grad.set_defaults(func=_cmd_grad_check)

    p_tokens = sub.add_parser("tokens", help="token id density and histogram")
    p_tokens.add_argument("--input", required=True)
    p_tokens.add_argument("--out", required=True)
    p_tokens.add_argument("--json-out", default=None)
    p_tokens.add_argument("--exclude-ids", default=None)
    p_tokens.add_argument("--bandwidth", default="scott")
    p_tokens.set_defaults(func=_cmd_tokens)

    p_parse = sub.add_parser("parse", help="inspect one completion's parse")
    p_parse.add_argument("--text", required=True)
    p_parse.add_argument("--format", choices=("gsm8k", "mathqa"), default="gsm8k")
    p_parse.add_argument("--numbers", default=None)
    p_parse.set_defaults(func=_cmd_parse)
    return parser


DATA_ERRORS = (
    DataError,
    ParseError,
    LengthMismatch,
    ZeroVariance,
    LossInputError,
    UnknownTokenId,
    SnapshotFormatError,
    TrainingDiverged,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
