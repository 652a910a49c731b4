"""Command-line harness: eval, stats, train, grad-check, tokens, parse.

Every run is deterministic for fixed inputs: reports embed (or sit next to) a
manifest holding the argv, the resolved configuration, SHA-256 digests of the
input files, the tool version, and the seed. Timestamps are deliberately left
null so reruns stay byte-identical. Exit codes: 0 success, 1 usage error,
2 data error, 3 internal error (also used when a requested gradient check
fails).

The numeric layers (``losses``, ``gradcheck``, ``stats``, ``training``) and
NumPy load only when a command runs one of them, so the parser, ``eval`` and
``parse`` start on the standard library, ``parsing`` and ``metrics`` alone.
Each name cli takes from a numeric layer is still an attribute of cli, and
cli's code calls it by that global name, but the name is bound on first
use: by the module ``__getattr__`` when code outside cli looks it up, and by
the one :func:`_bind` call that starts each entry point needing the layer.
The bind keeps a name that is already bound, because a tracer or a test may
set a stand-in on cli before the layer loads, and cli must then call it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterable, Iterator, get_type_hints

from . import (
    DEFAULT_STEP,
    DEFAULT_TOLERANCE,
    LOSS_NAMES,
    AuxiliaryKind,
    DataError,
    TrainingDiverged,
    __version__,
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
    PoisonedValue,
    Rationale,
    RationaleFormat,
    evaluate_program,
    normalize_final_answer,
    parse_rationale,
    step_spans,
)

# The names cli takes from each numeric layer, none of them bound at import
_LAYER_NAMES = {
    "gradcheck": ("GradCheckReport", "check_named_loss", "merge_reports"),
    "losses": ("LogitBatch", "LossConfig", "Role"),
    "stats": (
        "PairedOutcomes", "ScoreTable", "mcnemar_test", "mean_rank", "paired_t_test",
        "pearson_r", "token_density",
    ),
    "training": (
        "Corpus", "CorpusTemplate", "TrainConfig", "make_synthetic_corpus", "save_model", "train",
    ),
}
# Each name bound on first use -> the layers whose bind binds it; every bind
# binds np, and the training layer's also the config keys derived from it
_BOUND_BY = {
    "np": (),
    "TRAIN_CONFIG_KEYS": ("training",),
    **{name: (layer,) for layer, names in _LAYER_NAMES.items() for name in names},
}


def _bind(*layers: str) -> None:
    """Bind ``np`` and the names cli takes from each of ``layers`` (keys of
    _LAYER_NAMES) as globals of cli, loading those modules. A name that is
    already bound keeps its value."""
    bound = globals()
    bound.setdefault("np", importlib.import_module("numpy"))
    for layer in layers:
        module = importlib.import_module(f".{layer}", __package__)
        for name in _LAYER_NAMES[layer]:
            bound.setdefault(name, getattr(module, name))
    if "training" in layers and "TRAIN_CONFIG_KEYS" not in bound:
        bound["TRAIN_CONFIG_KEYS"] = _train_config_keys()


def __getattr__(name: str):
    """A numeric layer's name, bound the first time code outside cli looks it up."""
    if name not in _BOUND_BY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(*_BOUND_BY[name])
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

MAX_TOKEN_SPAN = 2**20  # token_density takes O(G) memory and O(G^2) time over G ids

PARSE_FORMATS = tuple(f.value for f in RationaleFormat)
EVAL_FORMATS = (*PARSE_FORMATS, "qa_letter")  # a qa_letter completion is its answer

_JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _output_path(text: str, directory: bool = False) -> str:
    """The argparse type of every output flag, so that a path the command
    cannot write is a usage error before any input is read.

    The path must not be empty. A file's directory must exist, and the file
    must not be a directory. A ``directory`` is created with its missing
    parents, so the nearest of it and its ancestors that exists must be a
    directory.
    """
    if not text:
        raise argparse.ArgumentTypeError("an output path must not be empty")
    path = Path(text)
    if directory:
        existing = next((p for p in (path, *path.parents) if os.path.exists(p)), None)
        if existing is not None and not os.path.isdir(existing):
            raise argparse.ArgumentTypeError(f"'{existing}' exists and is not a directory")
    elif not os.path.isdir(path.parent):
        raise argparse.ArgumentTypeError(f"'{path.parent}' is not an existing directory")
    elif os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"'{text}' is a directory")
    return text


def _check_outputs(
    inputs: Iterable[tuple[str, str]], outputs: Iterable[tuple[str, str | Path | None]]
) -> None:
    """Refuse, as a usage error, an output that names the file of an input or
    of another output, so that a run never writes over what it reads or
    writes. Each pair is the name the message gives a file, a flag say, and
    its path; an output whose path is None is not written. Paths are
    compared by ``os.path.realpath``."""
    named = {os.path.realpath(path): name for name, path in inputs}
    for name, path in outputs:
        if path is None:
            continue
        real = os.path.realpath(path)
        if real in named:
            message = f"{named[real]} and {name} name the same file '{path}'"
            raise argparse.ArgumentError(None, message)
        named[real] = name


# json.loads raises more than JSONDecodeError on text it cannot hold: ValueError
# for an integer past int()'s digit limit, RecursionError for deep nesting
JSON_ERRORS = (ValueError, RecursionError)


def _json_error(exc: Exception) -> str:
    return exc.msg if isinstance(exc, json.JSONDecodeError) else f"{type(exc).__name__}: {exc}"


# the JSON type of a value that is neither a string nor a number
_NOT_TEXT = {type(None): "null", bool: "a boolean", list: "an array", dict: "an object"}


def ingest_jsonl(
    path: str | Path, required: tuple[str, ...], text_fields: tuple[str, ...] = ()
) -> list[dict]:
    """Load JSON-lines records, validating required fields and unique ids.

    Each of the ``text_fields``, all of them required, must hold a string
    or a number, whose text is read. Lines end at LF or CRLF only, so a
    U+2028 inside a string stays in its record; blank lines are skipped.
    Unknown fields are preserved.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    records: list[dict] = []
    seen_ids: set = set()  # each id and its str(), the text stats aligns rows by
    # a CRLF line keeps its \r, which JSON reads as whitespace
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except JSON_ERRORS as exc:
            raise DataError(f"{path}:{lineno}: invalid JSON ({_json_error(exc)})") from exc
        if not isinstance(record, dict):
            raise DataError(f"{path}:{lineno}: record must be a JSON object")
        for field in required:
            if field not in record:
                raise DataError(f"{path}:{lineno}: missing field {field!r}")
        for field in text_fields:
            kind = _NOT_TEXT.get(type(record[field]))
            if kind:
                raise DataError(
                    f"{path}:{lineno}: field {field!r} must be a string or a number, got {kind}"
                )
        if "id" in required:
            rid = record["id"]
            if isinstance(rid, (list, dict)):
                raise DataError(f"{path}:{lineno}: id {json.dumps(rid)} is an array or object")
            if isinstance(rid, float) and not math.isfinite(rid):  # NaN, Infinity: not JSON
                raise DataError(f"{path}:{lineno}: id {json.dumps(rid)} is not a finite number")
            if rid in seen_ids or str(rid) in seen_ids:
                raise DataError(f"{path}:{lineno}: duplicate id {rid!r} (by value or text)")
            seen_ids.update((rid, str(rid)))
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


def _write(text: str | Iterable[str], path: str | Path | None) -> None:
    """Write ``text``, a string or its chunks in order, to the file at
    ``path``, or to stdout when ``path`` is None."""
    chunks = (text,) if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def build_manifest(command: list[str], config: dict, inputs: list[str | Path], seed=None) -> dict:
    return {
        "command": list(command),
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "tool_version": __version__,
        "seed": seed,
        "timestamp": None,
    }


def _parse_completion(text: str, fmt: str, memo: dict | None = None) -> Rationale:
    if fmt == "qa_letter":
        answer = text.strip() or None
        key = None if answer is None else normalize_final_answer(answer)
        return Rationale((), answer, None, (), key)
    return parse_rationale(text, fmt, memo)


def score_record(
    gold_text: str, pred_text: str, fmt: str, commutative: bool, memo: dict | None = None
) -> dict:
    """All per-record metrics plus diagnostics for one prediction/gold pair.

    The two parses share one span memo, so a predicted step that repeats a
    gold span reuses its parse and its matching keys. ``memo`` is that memo
    when given: a caller passes one dict to all records of one format to
    parse each distinct span once. Without it each call has its own.
    """
    if memo is None:
        memo = {}
    gold = _parse_completion(gold_text, fmt, memo)
    pred = _parse_completion(pred_text, fmt, memo)
    diagnostics = [f"gold: {d}" for d in gold.diagnostics]
    diagnostics += [f"prediction: {d}" for d in pred.diagnostics]

    em = exact_match(pred.answer_key, gold.answer_key)

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
        "metrics": sample,
        "diagnostics": diagnostics,
        "gold": gold,
        "prediction": pred,
    }


def _spans_held_last(
    ids: list, formats: list[str], gold_by_id: dict, pred_by_id: dict
) -> dict[int, list[str]]:
    """For the ``i``-th record of ``ids``, under key ``i``, the spans it
    holds that no later record of its format holds."""
    last_record: dict[str, dict[str, int]] = {f: {} for f in PARSE_FORMATS}
    for i, (rid, record_fmt) in enumerate(zip(ids, formats)):
        last = last_record.get(record_fmt)  # None for qa_letter, which has no spans
        if last is not None:
            for text in (gold_by_id[rid]["gold"], pred_by_id[rid]["prediction"]):
                for _, span in step_spans(str(text)):
                    last[span] = i
    expiring: dict[int, list[str]] = {}
    for last in last_record.values():
        for span, i in last.items():
            expiring.setdefault(i, []).append(span)
    return expiring


def run_eval(
    pred_path: str | Path,
    gold_path: str | Path,
    fmt: str,
    commutative: bool = True,
    keep_parses: bool = False,
) -> tuple[dict, list[dict] | None]:
    """Score a prediction file against a gold file; ids must align 1:1.

    Each record is scored straight into its per-sample report row, so eval
    holds one row per record and frees each record, and its parsed
    rationales, once it is scored. Only ``keep_parses`` (``--dump-parse``)
    keeps the parses, as the dump entries returned second; without it that
    value is None.

    Each format has one span memo for the whole run, so a span is parsed
    once however many records hold it. A first pass over the records finds
    the last record that holds each span, and the memo drops the span's
    step once that record is scored: the memo holds only steps that a
    record still to come will reuse.
    """
    pred_by_id = {
        r["id"]: r for r in ingest_jsonl(pred_path, ("id", "prediction"), ("prediction",))
    }
    gold_by_id = {r["id"]: r for r in ingest_jsonl(gold_path, ("id", "gold"), ("gold",))}
    if set(pred_by_id) != set(gold_by_id):
        only_pred = sorted(set(pred_by_id) - set(gold_by_id), key=str)[:5]
        only_gold = sorted(set(gold_by_id) - set(pred_by_id), key=str)[:5]
        raise DataError(
            f"ids of {pred_path} and {gold_path} differ "
            f"(pred-only {only_pred}, gold-only {only_gold})"
        )
    if not gold_by_id:
        raise DataError(f"{pred_path} and {gold_path} hold no records")

    ids = sorted(gold_by_id, key=str)
    formats = [gold_by_id[rid].get("format", fmt) for rid in ids]
    for rid, record_fmt in zip(ids, formats):
        if record_fmt not in EVAL_FORMATS:
            raise DataError(f"record {rid!r} has unknown format {record_fmt!r}")
    expiring = _spans_held_last(ids, formats, gold_by_id, pred_by_id)
    # a span valid in one format's grammar may not be in another's
    memos: dict[str, dict] = {f: {} for f in EVAL_FORMATS}

    samples: list[SampleMetrics] = []
    per_sample: list[dict] = []
    dump: list[dict] | None = [] if keep_parses else None
    for i, (rid, record_fmt) in enumerate(zip(ids, formats)):
        gold_text = str(gold_by_id.pop(rid)["gold"])
        pred_text = str(pred_by_id.pop(rid)["prediction"])
        memo = memos[record_fmt]
        scored = score_record(gold_text, pred_text, record_fmt, commutative, memo)
        for span in expiring.pop(i, ()):
            memo.pop(span, None)  # a malformed span is never stored
        sample = scored["metrics"]
        samples.append(sample)
        per_sample.append({"id": rid, **sample.as_dict(), "diagnostics": scored["diagnostics"]})
        if dump is not None:
            gold, pred = scored["gold"].to_dict(), scored["prediction"].to_dict()
            dump.append({"id": rid, "gold": gold, "prediction": pred})

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


# Writes a per-sample row's scalar columns at the depth the report nests them
_ROW_ENCODER = json.JSONEncoder(separators=(",\n      ", ": "))


def _indented_list(items: list[str], indent: int) -> str:
    """Items already written as json, as ``json.dumps(indent=2)`` lays out
    a list whose items sit ``indent`` spaces deep."""
    if not items:
        return "[]"
    pad = "\n" + " " * indent
    return f"[{pad}" + f",{pad}".join(items) + f"\n{' ' * (indent - 2)}]"


def _row_json(row: dict) -> str:
    """``row`` as ``json.dumps(report, indent=2)`` writes it inside
    ``per_sample``, for a row of scalars whose last key is ``diagnostics``,
    a list of scalars. One call of the C encoder writes the scalars; the
    indentation and the diagnostics are added here."""
    columns = dict(row)
    diagnostics = _indented_list(list(map(json.dumps, columns.pop("diagnostics"))), 8)
    scalars = _ROW_ENCODER.encode(columns)[1:-1]
    return f'    {{\n      {scalars},\n      "diagnostics": {diagnostics}\n    }}'


def _report_json(report: dict) -> Iterator[str]:
    """Exactly ``json.dumps(report, indent=2) + "\\n"`` for an eval report,
    in chunks of one top-level member or one per-sample row, so the whole
    text is never held at once.

    ``indent`` selects json's pure-Python encoder, so the rows of
    ``per_sample`` are written by :func:`_row_json` instead; every other
    top-level value keeps ``json.dumps``.
    """
    separator = "{\n"
    for key, value in report.items():
        yield f"{separator}  {json.dumps(key)}: "
        separator = ",\n"
        if key == "per_sample" and value:
            rows = map(_row_json, value)
            yield "[\n" + next(rows)
            for row in rows:
                yield ",\n" + row
            yield "\n  ]"
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}\n"


# Writes a list of JSON scalars one to a line: no scalar's text holds a raw
# newline, so the texts split apart on it
_SCALAR_LINES_ENCODER = json.JSONEncoder(separators=("\n", ": "))
# A dumped operand as indented json, with %s for each of its two scalars
_OPERAND_LAYOUT = '{\n              "kind": %s,\n              "value": %s\n            }'


def _entry_json(entry: dict) -> str:
    """A parse-dump entry as ``json.dumps(dump, indent=2)`` writes it. One
    walk lists its scalars and lays the entry out with %s in their places;
    one call of the C encoder then writes all the scalars."""
    scalars = [entry["id"]]
    layout = ['  {\n    "id": %s']
    for side in ("gold", "prediction"):
        rationale = entry[side]
        steps = []
        for step in rationale["steps"]:
            operands = step["operands"]
            scalars.append(step["operator"])
            for operand in operands:
                scalars += (operand["kind"], operand["value"])
            scalars.append(step["stated_result"])
            operand_layouts = _indented_list([_OPERAND_LAYOUT] * len(operands), 12)
            steps.append(
                f'{{\n          "operator": %s,\n          "operands": {operand_layouts},\n'
                f'          "stated_result": %s\n        }}'
            )
        diagnostics = rationale["diagnostics"]
        scalars += (rationale["final_answer"], rationale["final_value"], *diagnostics)
        layout.append(
            f',\n    "{side}": {{\n      "steps": {_indented_list(steps, 8)},\n'
            f'      "final_answer": %s,\n      "final_value": %s,\n'
            f'      "diagnostics": {_indented_list(["%s"] * len(diagnostics), 8)}\n    }}'
        )
    layout.append("\n  }")
    texts = _SCALAR_LINES_ENCODER.encode(scalars)[1:-1].split("\n")
    return "".join(layout) % tuple(texts)


def _dump_json(dump: list[dict]) -> Iterator[str]:
    """Exactly ``json.dumps(dump, indent=2) + "\\n"`` for the parse dump
    that ``run_eval`` returns, one chunk an entry. ``indent`` selects json's
    pure-Python encoder, so each entry is written by :func:`_entry_json`
    instead."""
    separator = "[\n"
    for entry in dump:
        yield separator + _entry_json(entry)
        separator = ",\n"
    yield "\n]\n" if dump else "[]\n"


def emit_report(report: dict, out_format: str, out_path: str | None) -> None:
    """Write a report as lossless JSON, a CSV aggregate row, or a markdown
    table. CSV and markdown files get a manifest sidecar next to them."""
    if out_format == "json":
        text = _report_json(report)
    elif out_format == "csv":
        text = _aggregate_row_csv(report["aggregate"])
    elif out_format == "markdown":
        text = _aggregate_row_markdown(report["aggregate"])
    else:
        raise DataError(f"unknown output format {out_format!r}")
    _write(text, out_path)
    if out_path is not None and out_format != "json" and "manifest" in report:
        _write(_json_text(report["manifest"]), f"{out_path}.manifest.json")


def _cmd_eval(args, argv: list[str]) -> int:
    sidecar = f"{args.out}.manifest.json" if args.out and args.out_format != "json" else None
    _check_outputs(
        [("--pred", args.pred), ("--gold", args.gold)],
        [("--out", args.out), ("the manifest of --out", sidecar),
         ("--dump-parse", args.dump_parse)],
    )
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
        _write(_dump_json(dump), args.dump_parse)
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
        raise DataError(f"{where} must be an object")
    for name, kind in kinds.items():
        if name not in row:
            raise DataError(f"{where} lacks column {name!r}")
        if not _has_json_type(row[name], kind):
            raise DataError(
                f"{where}: {name} must be {_JSON_TYPES[kind]}, got {json.dumps(row[name])}"
            )


def _read_json(path: str):
    """The one JSON value in a file; an unreadable file or bad JSON is a DataError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:  # the latter is a ValueError, as JSON's are
        raise DataError(f"cannot read {path}: {exc}") from exc
    except JSON_ERRORS as exc:
        raise DataError(f"{path}: not valid JSON ({_json_error(exc)})") from exc


def _load_report(path: str) -> dict:
    """An eval JSON report whose columns have the types SampleMetrics declares."""
    report = _read_json(path)
    if not isinstance(report, dict) or "per_sample" not in report or "aggregate" not in report:
        raise DataError(f"{path}: not an evaluation report")
    # the aggregate em is a percentage, so every aggregate column is a number
    _check_columns(report["aggregate"], dict.fromkeys(CSV_COLUMNS, float), f"{path}: aggregate")
    if not isinstance(report["per_sample"], list):
        raise DataError(f"{path}: per_sample must be an array")
    kinds = get_type_hints(SampleMetrics)
    # every column but the em flag is a rate; pearson_r squares them, so a
    # huge finite value would overflow it
    rates = [name for name, kind in kinds.items() if kind is float]
    for index, row in enumerate(report["per_sample"]):
        if not isinstance(row, dict) or "id" not in row:
            raise DataError(f"{path}: per_sample[{index}] must be an object with an id")
        where = f"{path}: per_sample[{index}] (id {json.dumps(row['id'])})"
        _check_columns(row, kinds, where)
        for name in rates:
            if not 0.0 <= row[name] <= 1.0:
                raise DataError(
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
                raise DataError(f"{path}: two per-sample ids read {str(row['id'])!r}")
        tables.append(by_id)
    ids = sorted(tables[0])
    if any(sorted(table) != ids for table in tables[1:]):
        raise DataError("reports cover different sample ids")
    return [[table[i][column] for i in ids] for table in tables]


def run_stats(test: str, paths: list[str], metric: str = "iou") -> dict:
    _bind("stats")
    reports = [_load_report(p) for p in paths]
    if test in ("mcnemar", "ttest", "pearson") and len(reports) != 2:
        raise DataError(f"{test} compares exactly two reports")
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
            raise DataError("meanrank needs at least two reports")
        names = tuple(Path(p).stem for p in paths)
        if len(set(names)) != len(names):
            names = tuple(str(p) for p in paths)
        # a report given twice still gets a row per argument, where a dict
        # keyed by name would merge them
        names = tuple(
            f"{name}#{names[:i].count(name) + 1}" if name in names[:i] else name
            for i, name in enumerate(names)
        )
        scores = np.array([[float(rep["aggregate"][c]) for c in CSV_COLUMNS] for rep in reports])
        higher_is_better = tuple(c not in LOWER_IS_BETTER for c in CSV_COLUMNS)
        table = ScoreTable(names, CSV_COLUMNS, scores, higher_is_better)
        return {"test": "meanrank", "mean_rank": mean_rank(table)}
    raise DataError(f"unknown test {test!r}")


def _cmd_stats(args, argv: list[str]) -> int:
    _check_outputs([("a report", path) for path in args.reports], [("--out", args.out)])
    result = run_stats(args.test, args.reports, args.metric)
    manifest = build_manifest(
        argv, {"test": args.test, "metric": args.metric}, args.reports
    )
    _write(_json_text({"manifest": manifest, **result}), args.out)
    if "p_value" in result:
        star = " *" if result.get("significant") else ""
        print(
            f"{args.test}: statistic={result.get('statistic')} "
            f"p={result['p_value']:.6g}{star}",
            file=sys.stderr,
        )
    return EXIT_OK


def _train_config_keys() -> dict:
    """``TRAIN_CONFIG_KEYS``: every config key with its default, taken from
    the layers' own definitions, not from cli's bound names, which a tracer
    may have wrapped. The loss is built from mix, gamma and auxiliary."""
    import inspect

    from .losses import LossConfig
    from .training import TrainConfig, make_synthetic_corpus

    corpus_defaults = inspect.signature(make_synthetic_corpus).parameters
    return {
        **{f.name: f.default for f in fields(TrainConfig) if f.name != "loss"},
        "mix": LossConfig.mix,
        "gamma": LossConfig.gamma,
        "auxiliary": LossConfig.auxiliary_kind.value,
        "vocab_size": 32,
        "zipf_exponent": 1.0,
        "samples": 256,
        "template": corpus_defaults["template"].default.value,
        "instruction_len": corpus_defaults["instruction_len"].default,
        "seq_len": corpus_defaults["seq_len"].default,
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
            raise DataError(
                f"{path}: {keys} is {size} values in one array, above the ceiling of "
                f"{MAX_ARRAY_VALUES}"
            )


def load_train_config(path: str, loss_by_task: str | None = None) -> dict:
    """Flat JSON config; unknown keys and ill-typed values are rejected by name."""
    _bind("training")
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise DataError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - set(TRAIN_CONFIG_KEYS))
    if unknown:
        raise DataError(f"{path}: unknown config keys {unknown}")
    for key, value in raw.items():
        kind = type(TRAIN_CONFIG_KEYS[key])
        if not _has_json_type(value, kind):
            raise DataError(f"{path}: {key} must be {_JSON_TYPES[kind]}, got {json.dumps(value)}")
        if kind is int and value > TRAIN_INT_CEILINGS[key]:
            raise DataError(
                f"{path}: {key} must be at most {TRAIN_INT_CEILINGS[key]}, got {json.dumps(value)}"
            )
    config = {**TRAIN_CONFIG_KEYS, **raw}
    _check_array_sizes(config, path)
    if loss_by_task is not None:
        kind = {"mwp": AuxiliaryKind.LOVASZ, "qa": AuxiliaryKind.FOCAL}[loss_by_task]
        config["auxiliary"] = kind.value
    return config


def _cmd_train(args, argv: list[str]) -> int:
    _bind("losses", "training")
    written = ("trace.jsonl", "model.sltm", "model_best.sltm", "manifest.json")
    _check_outputs(
        [("--config", args.config)],
        [(f"{name} in --out-dir", Path(args.out_dir) / name) for name in written],
    )
    config = load_train_config(args.config, args.loss_by_task)
    # an integer in a float key reaches the trainer, and its trace, as a float
    typed = {k: float(v) if type(TRAIN_CONFIG_KEYS[k]) is float else v for k, v in config.items()}
    try:
        loss_cfg = LossConfig(typed["mix"], typed["gamma"], AuxiliaryKind(typed["auxiliary"]))
        trained = {f.name: typed[f.name] for f in fields(TrainConfig) if f.name != "loss"}
        train_cfg = TrainConfig(**trained, loss=loss_cfg)
        shared = {
            k: typed[k] for k in ("vocab_size", "zipf_exponent", "instruction_len", "seq_len")
        }
        shared["template"] = CorpusTemplate(typed["template"])
        for key in ("samples", "val_samples"):  # make_synthetic_corpus names both n_samples
            if typed[key] < 1:
                raise ValueError(f"{key} must be >= 1, got {typed[key]}")
        # one draw, so validation follows the training samples' mapping; its
        # first samples are those of a draw of the training samples alone
        drawn = make_synthetic_corpus(
            seed=typed["seed"], n_samples=typed["samples"] + typed["val_samples"], **shared
        )
    except ValueError as exc:
        raise DataError(f"invalid training config: {exc}") from exc
    split = typed["samples"]
    corpus = Corpus(drawn.vocab_size, drawn.samples[:split])
    val_corpus = Corpus(drawn.vocab_size, drawn.samples[split:])
    trace = train(train_cfg, corpus, val_corpus)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace.to_jsonl(out / "trace.jsonl")
    save_model(trace.final_model, out / "model.sltm")
    if trace.best_model is not None:
        save_model(trace.best_model, out / "model_best.sltm")
    else:  # so that no earlier run's best model stays beside a null best_step
        (out / "model_best.sltm").unlink(missing_ok=True)
    manifest = build_manifest(argv, config, [args.config], seed=config["seed"])
    manifest["best_step"] = trace.best_step
    manifest["best_val_loss"] = trace.best_val_loss
    manifest["trainable_fraction"] = trace.header["trainable_fraction"]
    _write(_json_text(manifest), out / "manifest.json")
    return EXIT_OK


# positions * vocab of the grad-check batch. Its arrays stay below 1 MiB, but
# the check makes two loss calls per logit: at the ceiling that is 131,072
# calls per loss. Each recomputes one softmax row, but the region losses
# still read every row, so `--loss all` at 16 x 4096 takes about half a
# minute on one CPU (`--loss ce` at 256 x 256 a few seconds).
MAX_GRADCHECK_LOGITS = 2**16


def _check_grad_check_args(args) -> None:
    """Reject each bad grad-check flag by name, before any array is built."""
    for flag, value, least in (
        ("--seed", args.seed, 0),
        ("--positions", args.positions, 1),
        ("--vocab", args.vocab, 2),
    ):
        if value < least:
            raise DataError(f"{flag} must be at least {least}, got {value}")
    if args.positions * args.vocab > MAX_GRADCHECK_LOGITS:
        raise DataError(
            f"--positions * --vocab must be at most {MAX_GRADCHECK_LOGITS}, "
            f"got {args.positions} * {args.vocab}"
        )
    for flag, value in (("--step", args.step), ("--tolerance", args.tolerance)):
        if not (value > 0.0 and math.isfinite(value)):
            raise DataError(f"{flag} must be a positive finite number, got {value!r}")


def _gradcheck_batch(seed: int, positions: int, vocab: int) -> LogitBatch:
    _bind("losses")
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((positions, vocab))
    targets = rng.integers(0, vocab, size=positions)
    half = positions // 2
    roles = np.array(
        [int(Role.INSTRUCTION)] * half + [int(Role.ANSWER)] * (positions - half)
    )
    return LogitBatch(logits, targets, roles)


# Coordinates (two loss calls each) that each process of a grad-check must
# have to probe before a worker is forked. A worker costs 40-50 ms of CPU time
# (the fork, and its copies of the pages either process writes). On two CPUs
# it broke even near 500 coordinates a process, and with the row-local
# probes between about 220 and 450 (`--loss all` at 2 x 32 and 2 x 64); at
# 1,024, the default 8 x 17 batch and the 4 x 64 batch of every loss stay
# serial.
_MIN_PROBES_PER_PROCESS = 1024


def _worker_rows(positions: int, probes: int) -> range:
    """The rows of each loss that grad-check's one forked worker checks: the
    second half, when this process may run on two or more CPUs, there are
    two or more rows, and each half of the ``probes`` coordinates the
    command checks over all its losses has _MIN_PROBES_PER_PROCESS.
    Otherwise none, and this process checks every row.

    There is one worker at most, as the split was only ever measured on two
    CPUs: the CPU affinity does not see a container's CPU quota, and each
    worker holds its own copy of every page either process writes."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    if cpus < 2 or positions < 2 or probes < 2 * _MIN_PROBES_PER_PROCESS:
        return range(positions, positions)
    return range(positions // 2, positions)


class _GradCheckWorker:
    """A forked process that sends the report of ``rows`` of each named
    loss, in name order, as soon as it has it; :meth:`report` reads its next
    report and :meth:`stop` kills it if it still runs and reaps it.

    The worker ignores the interrupt that reaches the parent, since the
    parent then kills it, and it exits as soon as the parent is gone,
    however the parent ended."""

    def __init__(self, names, batch, step, tolerance, rows: range) -> None:
        # imported here, as only a run that forks needs them
        import multiprocessing
        import signal
        import threading

        def exit_with_parent() -> None:
            multiprocessing.parent_process().join()  # until its end of a pipe closes
            os._exit(1)

        def run() -> None:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            threading.Thread(target=exit_with_parent, daemon=True).start()
            for name in names:
                writer.send(check_named_loss(name, batch, step, tolerance, rows))

        context = multiprocessing.get_context("fork")
        self.reader, writer = context.Pipe(duplex=False)
        self.process = context.Process(
            target=run, name=f"grad-check worker (rows {rows.start}-{rows.stop - 1})"
        )
        self.process.start()
        writer.close()

    def report(self) -> GradCheckReport:
        try:
            return self.reader.recv()
        except EOFError:  # it died before it sent this report
            self.process.join()
            raise RuntimeError(
                f"{self.process.name} failed with exit code {self.process.exitcode}"
            ) from None

    def stop(self) -> None:
        self.process.kill()
        self.process.join()
        self.reader.close()


def _cmd_grad_check(args, argv: list[str]) -> int:
    """This process checks each loss's rows before those of
    :func:`_worker_rows`, and a forked worker those rows, if any; the merged
    reports equal those of one serial scan."""
    _bind("gradcheck")
    _check_grad_check_args(args)
    names = list(LOSS_NAMES) if args.loss == "all" else [args.loss]
    batch = _gradcheck_batch(args.seed, args.positions, args.vocab)
    rows = _worker_rows(args.positions, len(names) * args.positions * args.vocab)
    worker = _GradCheckWorker(names, batch, args.step, args.tolerance, rows) if rows else None
    results = {}
    try:
        for name in names:
            report = check_named_loss(name, batch, args.step, args.tolerance, range(rows.start))
            if worker is not None:
                report = merge_reports(report, worker.report())
            results[name] = {
                "max_rel_error": float(report.max_rel_error),
                "worst_coordinate": [int(c) for c in report.worst_coordinate]
                if report.worst_coordinate
                else None,
                "n_checked": int(report.n_checked),
                "n_skipped": len(report.skipped),
                "passed": bool(report.passed),
            }
            print(f"{name}: {report.summary()}")
    finally:
        if worker is not None:
            worker.stop()
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
    return EXIT_OK if all(r["passed"] for r in results.values()) else EXIT_INTERNAL


def _cmd_tokens(args, argv: list[str]) -> int:
    _bind("stats")
    sidecar = f"{args.out}.manifest.json"
    _check_outputs(
        [("--input", args.input)],
        [("--out", args.out), ("the manifest of --out", sidecar), ("--json-out", args.json_out)],
    )
    records = ingest_jsonl(args.input, required=("tokens",))
    exclude = set()
    if args.exclude_ids:
        try:
            exclude = {int(x) for x in args.exclude_ids.split(",") if x.strip()}
        except ValueError as exc:
            raise DataError(f"--exclude-ids must be integers: {exc}") from exc
    stream: list[int] = []
    for lineno, record in enumerate(records, start=1):
        tokens = record["tokens"]
        if not isinstance(tokens, list):
            raise DataError(f"{args.input}: record {lineno}: 'tokens' must be a list")
        for t in tokens:
            # JSON true/false load as bool, a subclass of int
            if type(t) is not int or not -(2**63) <= t < 2**63:
                raise DataError(
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
            raise DataError(
                f"--bandwidth must be 'scott' or a positive finite number, got {args.bandwidth!r}"
            )
    try:
        density = token_density(stream, bandwidth)
    except DataError as exc:  # the stream is nonempty, so the bandwidth is at fault
        raise DataError(f"--bandwidth {args.bandwidth}: {exc}") from exc
    lines = ["id,density"]
    for i, d in zip(density.ids, density.density):
        lines.append(f"{int(i)},{float(d)!r}")
    _write("\n".join(lines) + "\n", args.out)
    manifest = build_manifest(
        argv,
        {"exclude_ids": sorted(exclude), "bandwidth": args.bandwidth},
        [args.input],
    )
    _write(_json_text(manifest), sidecar)
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
    rationale = _parse_completion(args.text, args.format)
    payload = rationale.to_dict()
    if args.numbers is not None:
        try:
            numbers = [float(x) for x in args.numbers.split(",") if x.strip()]
        except ValueError as exc:
            raise DataError(f"--numbers must be comma-separated numbers: {exc}") from exc
        if not all(math.isfinite(x) for x in numbers):
            raise DataError(f"--numbers must be finite numbers, got {args.numbers!r}")
        values = evaluate_program(rationale.steps, numbers)
        payload["values"] = [
            {"poisoned_by_step": v.origin} if isinstance(v, PoisonedValue) else v
            for v in values
        ]
    _write(_json_text(payload), None)
    return EXIT_OK


def build_parser() -> _Parser:
    # the docstring's first two paragraphs are for a user of the command
    parser = _Parser(prog="losslab", description="\n\n".join(__doc__.split("\n\n")[:2]))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score predictions against gold rationales")
    p_eval.add_argument("--pred", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.add_argument("--format", choices=EVAL_FORMATS, default="gsm8k")
    p_eval.add_argument("--no-commutative", action="store_true")
    p_eval.add_argument("--out", default=None, type=_output_path)
    p_eval.add_argument("--out-format", choices=("json", "csv", "markdown"), default="json")
    p_eval.add_argument("--dump-parse", default=None, type=_output_path)
    p_eval.set_defaults(func=_cmd_eval)

    p_stats = sub.add_parser("stats", help="statistical comparison of eval reports")
    p_stats.add_argument("--test", choices=("mcnemar", "ttest", "pearson", "meanrank"), required=True)
    p_stats.add_argument("--metric", choices=CSV_COLUMNS, default="iou")
    p_stats.add_argument("--out", default=None, type=_output_path)
    p_stats.add_argument("reports", nargs="+")
    p_stats.set_defaults(func=_cmd_stats)

    p_train = sub.add_parser("train", help="train the toy model on a synthetic corpus")
    p_train.add_argument("--config", required=True)
    p_train.add_argument(
        "--out-dir", required=True, type=lambda text: _output_path(text, directory=True)
    )
    p_train.add_argument("--loss-by-task", choices=("mwp", "qa"), default=None)
    p_train.set_defaults(func=_cmd_train)

    p_grad = sub.add_parser("grad-check", help="finite-difference gradient verification")
    p_grad.add_argument("--loss", choices=("all",) + LOSS_NAMES, default="all")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--positions", type=int, default=8)
    p_grad.add_argument("--vocab", type=int, default=17)
    p_grad.add_argument("--step", type=float, default=DEFAULT_STEP)
    p_grad.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    p_grad.add_argument("--out", default=None, type=_output_path)
    p_grad.set_defaults(func=_cmd_grad_check)

    p_tokens = sub.add_parser("tokens", help="token id density and histogram")
    p_tokens.add_argument("--input", required=True)
    p_tokens.add_argument("--out", required=True, type=_output_path)
    p_tokens.add_argument("--json-out", default=None, type=_output_path)
    p_tokens.add_argument("--exclude-ids", default=None)
    p_tokens.add_argument("--bandwidth", default="scott")
    p_tokens.set_defaults(func=_cmd_tokens)

    p_parse = sub.add_parser("parse", help="inspect one completion's parse")
    p_parse.add_argument("--text", required=True)
    p_parse.add_argument("--format", choices=PARSE_FORMATS, default="gsm8k")
    p_parse.add_argument("--numbers", default=None)
    p_parse.set_defaults(func=_cmd_parse)
    return parser


DATA_ERRORS = (DataError, TrainingDiverged, OSError)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except argparse.ArgumentError as exc:  # flags that clash
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
