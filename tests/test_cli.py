import gc
import importlib
import inspect
import json
import math
import os
import pkgutil
import select
import signal
import subprocess
import sys
import time
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import losslab
from losslab import DataError, cli, parsing
from losslab.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_ARRAY_VALUES,
    TRAIN_CONFIG_KEYS,
    TRAIN_INT_CEILINGS,
    build_manifest,
    ingest_jsonl,
    load_train_config,
    main,
    run_eval,
    run_stats,
)
from losslab.gradcheck import GradCheckReport
from losslab.losses import LossConfig
from losslab.metrics import CSV_COLUMNS
from losslab.parsing import Operand, Rationale, RationaleFormat, ReasoningStep
from losslab.training import TrainConfig, TrainingDiverged, make_synthetic_corpus

FIXTURES = Path(__file__).parent / "fixtures"
MICRO5_GOLD = str(FIXTURES / "micro5_gold.jsonl")
MICRO5_PRED = str(FIXTURES / "micro5_pred.jsonl")
MICRO3_GOLD = str(FIXTURES / "micro3_gold.jsonl")
MICRO3_PRED = str(FIXTURES / "micro3_pred.jsonl")


class TestIngest:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 1, "gold": "x", "extra": true}\n\n{"id": 2, "gold": "y"}\n')
        records = ingest_jsonl(path, required=("id", "gold"))
        assert len(records) == 2
        assert records[0]["extra"] is True

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b'{"id": 1, "gold": "x"}\r\n{"id": 2, "gold": "y"}\r\n')
        assert len(ingest_jsonl(path, required=("id", "gold"))) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 1\n')
        with pytest.raises(DataError, match="data.jsonl:1: invalid JSON"):
            ingest_jsonl(path, required=("id",))

    def test_unicode_line_separators_inside_strings_exit_0(self, tmp_path, capsys):
        # a raw U+2028, U+2029 or U+0085 is legal inside a JSON string
        gold = tmp_path / "gold.jsonl"
        rows = [
            {"id": i, "gold": f"a{sep}b = 3 <<1+2=3>>\n#### 3", "prediction": "#### 3"}
            for i, sep in enumerate(["\u2028", "\u2029", "\u0085"])
        ]
        text = "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)
        gold.write_text(text, encoding="utf-8")
        assert "\u2028" in gold.read_text(encoding="utf-8")
        assert ingest_jsonl(gold, required=("id", "gold")) == rows
        assert run_main(["eval", "--pred", str(gold), "--gold", str(gold)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    def test_malformed_line_number_counts_lf_and_crlf_lines(self, tmp_path, newline):
        path = tmp_path / "data.jsonl"
        lines = ['{"id": 1, "gold": "x"}', "", '{"id": 2, "gold": "z"}', '{"id": 3']
        path.write_bytes(newline.join(line.encode() for line in lines) + newline)
        with pytest.raises(DataError, match="data.jsonl:4: invalid JSON"):
            ingest_jsonl(path, required=("id", "gold"))

    @pytest.mark.parametrize(
        "line, named",
        [
            ("[" * 100_000, "RecursionError"),
            ('{"id": ' + "1" * 5000 + "}", "ValueError: Exceeds the limit"),
        ],
    )
    def test_json_the_decoder_cannot_hold_is_malformed(self, tmp_path, line, named):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 1}\n' + line + "\n")
        with pytest.raises(DataError, match=f"data.jsonl:2: invalid JSON \\({named}"):
            ingest_jsonl(path, required=("id",))

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b'{"id": 1, "prediction": "\xff"}\n')
        assert run_main(["eval", "--pred", str(path), "--gold", MICRO3_GOLD]) == EXIT_DATA
        assert f"cannot read {path}" in capsys.readouterr().err

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(DataError, match="data.jsonl:1: record must be a JSON object"):
            ingest_jsonl(path, required=())

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 1, "gold": "x"}\n{"id": 2}\n')
        with pytest.raises(DataError, match="data.jsonl:2: missing field 'gold'"):
            ingest_jsonl(path, required=("id", "gold"))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 1, "gold": "x"}\n{"id": 1, "gold": "y"}\n')
        with pytest.raises(DataError, match="data.jsonl:2: duplicate id 1"):
            ingest_jsonl(path, required=("id", "gold"))

    @pytest.mark.parametrize("first, second", [("1", '"1"'), ('"1"', "1")])
    def test_ids_of_one_text_are_duplicates(self, tmp_path, first, second):
        # stats aligns report rows by the text of their ids, so eval must not
        # write two rows whose ids read alike
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": %s, "gold": "x"}\n{"id": %s, "gold": "y"}\n' % (first, second))
        with pytest.raises(DataError, match=r"data.jsonl:2: duplicate id \S+ \(by value or text\)"):
            ingest_jsonl(path, required=("id", "gold"))

    @pytest.mark.parametrize("rid", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_id_is_rejected_at_its_line(self, tmp_path, rid):
        # json.loads reads these constants, but a report holding one is not
        # JSON to a strict reader
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": %s, "gold": "x"}\n{"id": %s, "gold": "y"}\n' % (rid, rid))
        with pytest.raises(DataError, match=f"data.jsonl:1: id {rid} is not a finite number"):
            ingest_jsonl(path, required=("id", "gold"))

    def test_float_pred_id_still_matches_its_integer_gold_id(self, tmp_path):
        pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
        pred.write_text('{"id": 1.0, "prediction": "#### 1"}\n')
        gold.write_text('{"id": 1, "gold": "#### 1"}\n')
        report, _ = run_eval(pred, gold, "gsm8k")
        assert [row["id"] for row in report["per_sample"]] == [1]

    @pytest.mark.parametrize("rid", ["[1]", '{"a": 1}'])
    def test_array_or_object_id_exits_2(self, tmp_path, capsys, rid):
        gold = tmp_path / "gold.jsonl"
        row = '{"id": %s, "gold": "#### 1", "prediction": "#### 1"}\n'
        gold.write_text(row % 0 + row % rid)
        code = run_main(["eval", "--pred", str(gold), "--gold", str(gold)])
        assert code == EXIT_DATA
        assert f"{gold}:2: id {rid} " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, kind",
        [("null", "null"), ("true", "a boolean"), ('["#### 3"]', "an array"),
         ('{"text": "<<1+2=3>> #### 3"}', "an object")],
    )
    @pytest.mark.parametrize("field", ["prediction", "gold"])
    def test_completion_that_is_not_text_exits_2(self, tmp_path, capsys, field, value, kind):
        # its Python repr used to be scored: a null prediction matched the
        # qa_letter gold "None"
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        bad = {"gold": gold, "prediction": pred}[field]
        gold.write_text('{"id": 0, "gold": "None", "format": "qa_letter"}\n')
        pred.write_text('{"id": 0, "prediction": "None"}\n')
        bad.write_text(bad.read_text() + '{"id": 1, "%s": %s}\n' % (field, value))
        assert run_main(["eval", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:2: field {field!r} must be a string or a number, got {kind}" in err

    def test_numeric_completions_are_read_as_their_text(self, tmp_path):
        pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
        pred.write_text('{"id": 1, "prediction": 3}\n{"id": 2, "prediction": 2.5}\n')
        gold.write_text(
            '{"id": 1, "gold": 3, "format": "qa_letter"}\n'
            '{"id": 2, "gold": "2.50", "format": "qa_letter"}\n'
        )
        report, _ = run_eval(pred, gold, "gsm8k")
        assert [row["em"] for row in report["per_sample"]] == [1, 1]


class TestManifest:
    def test_shape(self, tmp_path):
        path = tmp_path / "input.jsonl"
        path.write_text("{}\n")
        manifest = build_manifest(["eval", "--pred", "x"], {"k": 1}, [path], seed=7)
        assert manifest["command"] == ["eval", "--pred", "x"]
        assert manifest["config"] == {"k": 1}
        assert manifest["seed"] == 7
        assert manifest["timestamp"] is None
        digest = manifest["inputs"][str(path)]
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)

    def test_digest_tracks_content(self, tmp_path):
        path = tmp_path / "input.jsonl"
        path.write_text("{}\n")
        before = build_manifest([], {}, [path])["inputs"][str(path)]
        path.write_text('{"changed": true}\n')
        after = build_manifest([], {}, [path])["inputs"][str(path)]
        assert before != after


class TestRunEval:
    def test_micro_aggregates(self):
        report, parses = run_eval(
            MICRO5_PRED, MICRO5_GOLD, "gsm8k", commutative=True, keep_parses=True
        )
        agg = report["aggregate"]
        assert agg["em"] == pytest.approx(60.0)
        assert agg["iou"] == pytest.approx(11 / 30)
        assert agg["ciou"] == pytest.approx(17 / 30)
        assert agg["precision"] == pytest.approx(0.7)
        assert agg["recall"] == pytest.approx(0.6)
        assert agg["dice"] == pytest.approx(19 / 30)
        assert agg["es"] == pytest.approx(0.3)
        assert agg["ms"] == pytest.approx(0.4)
        assert agg["wo"] == pytest.approx(0.2)
        assert agg["io"] == pytest.approx(0.2)
        assert agg["n_samples"] == 5
        assert [p["id"] for p in parses] == ["s1", "s2", "s3", "s4", "s5"]
        assert set(parses[0]) == {"id", "gold", "prediction"}

    @pytest.mark.parametrize("pred, gold", [(MICRO5_PRED, MICRO5_GOLD), (MICRO3_PRED, MICRO3_GOLD)])
    def test_no_parse_outlives_the_call_without_a_dump(self, monkeypatch, pred, gold):
        # Refcounting alone must free every parse: with the cyclic collector
        # off, a parse kept anywhere (or caught in a cycle) stays alive.
        refs = []
        parse = cli._parse_completion

        def watched(text, fmt, *memo):
            rationale = parse(text, fmt, *memo)
            refs.append(weakref.ref(rationale))
            refs.extend(weakref.ref(step) for step in rationale.steps)
            return rationale

        monkeypatch.setattr(cli, "_parse_completion", watched)
        gc.disable()
        try:
            report, parses = run_eval(pred, gold, "gsm8k")
            alive = [ref() for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert parses is None
        assert len(refs) > 2 * len(report["per_sample"])  # two rationales a record, and steps
        assert alive == []

    def test_each_distinct_span_of_a_run_is_parsed_once(self, monkeypatch):
        calls = []
        parse = parsing.STEP_PARSERS[RationaleFormat.GSM8K]

        def counted(span):
            calls.append(span)
            return parse(span)

        monkeypatch.setitem(parsing.STEP_PARSERS, RationaleFormat.GSM8K, counted)
        run_eval(MICRO5_PRED, MICRO5_GOLD, "gsm8k")
        # the spans of each record in turn that no earlier record or side
        # held: s1's prediction repeats both gold spans, s4's gold the 10-3=7
        # of s3's prediction, and s4's and s5's predictions one gold span
        # each. The malformed 3-10 is parsed at each occurrence (it has one).
        assert calls == [
            "2+3=5", "5*4=20",
            "7*5=35", "5*7=35",
            "10+3=13", "10-3=7",
            "7*2=14", "3-10",
            "8/2=4", "4+1=5",
        ]

    def test_the_memo_holds_only_spans_a_later_record_holds(self, monkeypatch):
        held = []
        score = cli.score_record

        def watched(gold_text, pred_text, fmt, commutative, memo):
            held.append(sorted(memo))
            return score(gold_text, pred_text, fmt, commutative, memo)

        monkeypatch.setattr(cli, "score_record", watched)
        run_eval(MICRO5_PRED, MICRO5_GOLD, "gsm8k")
        # only s3's 10-3=7 recurs in a later record, s4's gold
        assert held == [[], [], [], ["10-3=7"], []]

    def test_a_span_is_parsed_again_for_another_format(self, tmp_path):
        # add(1,2) is a mathqa step but a malformed gsm8k span; the mathqa
        # memo keeps its step from a to c, and must not lend it to b
        gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
        gold.write_text('{"id": "a", "gold": "<<add(1,2)>> #### 3", "format": "mathqa"}\n'
                        '{"id": "b", "gold": "<<add(1,2)>> #### 3"}\n'
                        '{"id": "c", "gold": "<<add(1,2)>> #### 3", "format": "mathqa"}\n')
        pred.write_text("".join(f'{{"id": "{rid}", "prediction": "<<add(1,2)>> #### 3"}}\n'
                                for rid in "abc"))
        report, _ = run_eval(pred, gold, "gsm8k")
        malformed = "step 0 at char 0: expected a number, found 'a' (offset 0)"
        assert [row["diagnostics"] for row in report["per_sample"]] == [
            [], [f"gold: {malformed}", f"prediction: {malformed}"], []
        ]

    def test_each_final_answer_is_normalized_once(self, monkeypatch):
        calls = []
        normalize = parsing.normalize_final_answer

        def counted(text):
            calls.append(text)
            return normalize(text)

        for module in (parsing, cli):
            monkeypatch.setattr(module, "normalize_final_answer", counted)
        report, _ = run_eval(MICRO5_PRED, MICRO5_GOLD, "gsm8k")
        assert report["aggregate"]["em"] == pytest.approx(60.0)
        assert len(calls) == 2 * 5  # one per parse; each micro5 text has its answer

    def test_a_malformed_span_in_both_texts_is_reported_for_each(self):
        scored = cli.score_record("<<2+x>> <<1+1=2>> #### 2", "<<2+x>> #### 2", "gsm8k", True)
        assert scored["diagnostics"] == [
            "gold: step 0 at char 0: expected a number, found 'x' (offset 2)",
            "prediction: step 0 at char 0: expected a number, found 'x' (offset 2)",
        ]

    def test_per_sample_rows_sorted_by_id(self):
        report, _ = run_eval(MICRO5_PRED, MICRO5_GOLD, "gsm8k")
        assert [r["id"] for r in report["per_sample"]] == ["s1", "s2", "s3", "s4", "s5"]

    def test_plain_matching_changes_overlap_not_iou(self):
        both = run_eval(MICRO5_PRED, MICRO5_GOLD, "gsm8k", commutative=True)[0]
        plain = run_eval(MICRO5_PRED, MICRO5_GOLD, "gsm8k", commutative=False)[0]
        assert plain["aggregate"]["iou"] == both["aggregate"]["iou"]
        assert plain["aggregate"]["ciou"] == both["aggregate"]["ciou"]
        assert plain["aggregate"]["precision"] == pytest.approx(0.5)
        assert both["aggregate"]["precision"] == pytest.approx(0.7)

    def test_missing_marker_degrades_to_diagnostic(self):
        report, _ = run_eval(MICRO3_PRED, MICRO3_GOLD, "gsm8k")
        agg = report["aggregate"]
        assert agg["em"] == pytest.approx(100.0 / 3.0)
        assert agg["wo"] == pytest.approx(1 / 3)
        rows = {r["id"]: r for r in report["per_sample"]}
        assert rows["c"]["diagnostics"]
        assert rows["a"]["diagnostics"] == []
        assert rows["c"]["iou"] == pytest.approx(1.0)
        assert rows["c"]["em"] is False

    def test_id_mismatch_rejected(self, tmp_path):
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"id": "zz", "prediction": "#### 1"}\n')
        with pytest.raises(DataError, match=r"ids of .* differ \(pred-only \['zz'\]"):
            run_eval(pred, MICRO3_GOLD, "gsm8k")

    def test_per_record_format_override(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text('{"id": 1, "gold": "B", "format": "qa_letter"}\n')
        pred.write_text('{"id": 1, "prediction": "b"}\n')
        report, _ = run_eval(pred, gold, "gsm8k")
        assert report["aggregate"]["em"] == pytest.approx(100.0)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_main(argv):
    return main(list(argv))


class TestEvalCommand:
    def test_json_output(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_main(
            ["eval", "--pred", MICRO5_PRED, "--gold", MICRO5_GOLD, "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["aggregate"]["em"] == pytest.approx(60.0)
        assert report["manifest"]["tool_version"]
        assert MICRO5_PRED in report["manifest"]["inputs"]
        assert report["conventions"]["commutative_matching"] is True

    def test_csv_output(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run_main(
            [
                "eval", "--pred", MICRO5_PRED, "--gold", MICRO5_GOLD,
                "--out", str(out), "--out-format", "csv",
            ]
        )
        assert code == EXIT_OK
        header, row = out.read_text().strip().split("\n")
        assert header == "em,iou,ciou,precision,recall,dice,es,ms,wo,io"
        values = [float(x) for x in row.split(",")]
        assert values == pytest.approx(
            [60.0, 11 / 30, 17 / 30, 0.7, 0.6, 19 / 30, 0.3, 0.4, 0.2, 0.2]
        )
        # full precision survives the round trip
        assert float(row.split(",")[1]) == 11 / 30
        sidecar = json.loads((tmp_path / "report.csv.manifest.json").read_text())
        assert sidecar["command"][0] == "eval"

    def test_markdown_output(self, tmp_path):
        out = tmp_path / "report.md"
        code = run_main(
            [
                "eval", "--pred", MICRO5_PRED, "--gold", MICRO5_GOLD,
                "--out", str(out), "--out-format", "markdown",
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("| em | iou |")
        assert "60.00" in lines[2]
        assert "0.37" in lines[2]
        assert "0.57" in lines[2]
        assert (tmp_path / "report.md.manifest.json").exists()

    def test_stdout_json(self, capsys):
        code = run_main(["eval", "--pred", MICRO3_PRED, "--gold", MICRO3_GOLD])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregate"]["n_samples"] == 3

    def test_dump_parse(self, tmp_path):
        dump = tmp_path / "parses.json"
        code = run_main(
            [
                "eval", "--pred", MICRO3_PRED, "--gold", MICRO3_GOLD,
                "--out", str(tmp_path / "r.json"), "--dump-parse", str(dump),
            ]
        )
        assert code == EXIT_OK
        parses = json.loads(dump.read_text())
        assert len(parses) == 3
        assert parses[0]["gold"]["final_answer"] == "4"
        assert parses[0]["prediction"]["steps"][0]["operator"] == "+"

    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "report.json"
        argv = ["eval", "--pred", MICRO5_PRED, "--gold", MICRO5_GOLD, "--out", str(out)]
        assert run_main(argv) == EXIT_OK
        first = out.read_bytes()
        assert run_main(argv) == EXIT_OK
        assert out.read_bytes() == first

    def test_missing_field_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "pred.jsonl"
        bad.write_text('{"id": "a"}\n')
        code = run_main(["eval", "--pred", str(bad), "--gold", MICRO3_GOLD])
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_ids_reading_alike_exit_2_before_stats_sees_them(self, tmp_path, capsys):
        pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
        pred.write_text('{"id": 1, "prediction": "#### 1"}\n{"id": "1", "prediction": "#### 2"}\n')
        gold.write_text('{"id": 1, "gold": "#### 1"}\n{"id": "1", "gold": "#### 2"}\n')
        assert run_main(["eval", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA
        assert f"{pred}:2: duplicate id '1'" in capsys.readouterr().err

    def test_duplicate_id_exits_2(self, tmp_path):
        bad = tmp_path / "pred.jsonl"
        bad.write_text(
            '{"id": "a", "prediction": "x"}\n{"id": "a", "prediction": "y"}\n'
        )
        assert run_main(["eval", "--pred", str(bad), "--gold", MICRO3_GOLD]) == EXIT_DATA

    def test_id_mismatch_exits_2(self, tmp_path):
        bad = tmp_path / "pred.jsonl"
        bad.write_text('{"id": "other", "prediction": "x"}\n')
        assert run_main(["eval", "--pred", str(bad), "--gold", MICRO3_GOLD]) == EXIT_DATA

    def test_id_mismatch_of_mixed_id_types_exits_2(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text('{"id": 1, "prediction": "#### 1"}\n{"id": "a", "prediction": "#### 1"}\n')
        gold.write_text('{"id": 2, "gold": "#### 1"}\n')
        assert run_main(["eval", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(pred) in err and str(gold) in err
        assert "pred-only [1, 'a'], gold-only [2]" in err

    def test_unknown_record_format_exits_2(self, tmp_path):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        gold.write_text('{"id": 1, "gold": "#### 1", "format": "sumerian"}\n')
        pred.write_text('{"id": 1, "prediction": "#### 1"}\n')
        assert run_main(["eval", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA

    def test_empty_files_exit_2(self, tmp_path, capsys):
        pred, gold = tmp_path / "pred.jsonl", tmp_path / "gold.jsonl"
        pred.write_text("\n")
        gold.write_text("")
        assert run_main(["eval", "--pred", str(pred), "--gold", str(gold)]) == EXIT_DATA
        assert "hold no records" in capsys.readouterr().err

    def test_unreadable_input_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert run_main(["eval", "--pred", missing, "--gold", MICRO3_GOLD]) == EXIT_DATA


# JSON scalars as eval rows hold them: text with quotes, backslashes, control
# characters and non-ASCII; integers past 64 bits; floats at the extremes
json_text = st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\n\t\x00\x1f\u2028'))
extreme_floats = st.floats() | st.sampled_from([5e-324, 1.7976931348623157e308, -0.0])
row_ids = json_text | st.integers(-(2**70), 2**70) | extreme_floats
report_rows = st.builds(
    lambda rid, em, rates, diagnostics: {
        "id": rid, "em": em, **dict(zip(CSV_COLUMNS[1:], rates)), "diagnostics": diagnostics
    },
    row_ids,
    st.booleans(),
    st.lists(extreme_floats, min_size=len(CSV_COLUMNS) - 1, max_size=len(CSV_COLUMNS) - 1),
    st.lists(json_text, max_size=3),
)
reports = st.builds(
    lambda manifest, aggregate, rows, flag: {
        **({} if manifest is None else {"manifest": manifest}),
        "aggregate": {**dict(zip(CSV_COLUMNS, aggregate)), "n_samples": len(rows)},
        "per_sample": rows,
        "conventions": {"commutative_matching": flag, "em_numeric_tolerance": 1e-6},
    },
    st.none() | st.fixed_dictionaries(
        {
            "command": st.lists(json_text, max_size=3),
            "config": st.dictionaries(json_text, st.booleans() | json_text, max_size=2),
            "seed": st.none(),
        }
    ),
    st.lists(extreme_floats, min_size=len(CSV_COLUMNS), max_size=len(CSV_COLUMNS)),
    st.lists(report_rows, max_size=4),
    st.booleans(),
)


class TestReportWriter:
    """``emit_report`` writes a JSON report row by row with json's C encoder;
    its bytes must be those of ``json.dumps(report, indent=2)``."""

    @settings(max_examples=200, deadline=None)
    @given(report=reports)
    def test_json_is_byte_identical_to_indented_dumps(self, tmp_path_factory, report):
        out = tmp_path_factory.mktemp("report") / "report.json"
        cli.emit_report(report, "json", str(out))
        assert out.read_bytes() == (json.dumps(report, indent=2) + "\n").encode()

    @pytest.mark.parametrize("pred, gold", [(MICRO5_PRED, MICRO5_GOLD), (MICRO3_PRED, MICRO3_GOLD)])
    @pytest.mark.parametrize("flag", [[], ["--no-commutative"]])
    def test_micro_reports_are_byte_identical(self, tmp_path, pred, gold, flag):
        out = tmp_path / "report.json"
        assert run_main(["eval", "--pred", pred, "--gold", gold, "--out", str(out), *flag]) == 0
        text = out.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert any(row["diagnostics"] for row in json.loads(text)["per_sample"]) == (
            pred == MICRO3_PRED
        )

    @pytest.mark.parametrize("out_format", ["json", "csv", "markdown"])
    def test_stdout_gets_the_bytes_of_the_out_file(self, tmp_path, capsys, out_format):
        argv = ["eval", "--pred", MICRO3_PRED, "--gold", MICRO3_GOLD, "--out-format", out_format]
        out = tmp_path / "report"
        assert run_main([*argv, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert run_main(argv) == EXIT_OK
        printed = capsys.readouterr().out
        if out_format == "json":  # the manifest's command is the one part that differs
            def command(args):
                return json.dumps(args, indent=2).replace("\n", "\n    ")

            assert printed.count(command(argv)) == 1
            printed = printed.replace(command(argv), command([*argv, "--out", str(out)]))
        assert out.read_bytes() == printed.encode()

    def test_non_finite_id_exits_2_and_writes_no_report(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_text('{"id": 1, "gold": "#### 1", "prediction": "#### 1"}\n'
                        '{"id": NaN, "gold": "#### 1", "prediction": "#### 1"}\n')
        out = tmp_path / "report.json"
        code = run_main(["eval", "--pred", str(data), "--gold", str(data), "--out", str(out)])
        assert code == EXIT_DATA
        assert f"{data}:2: id NaN is not a finite number" in capsys.readouterr().err
        assert not out.exists()


# Parsed rationales as a dump holds them: operands of every kind, numbers
# that are not finite (written as null), empty step lists, diagnostics, and
# a missing final answer
dump_operands = st.one_of(
    st.floats().map(Operand.literal),
    st.integers(0, 10**6).map(Operand.problem_ref),
    st.integers(0, 10**6).map(Operand.step_ref),
    json_text.map(Operand.const),
)
dump_steps = st.builds(
    ReasoningStep,
    st.sampled_from(["+", "-", "*", "/", "add", "divide"]) | json_text.filter(bool),
    st.lists(dump_operands, min_size=1, max_size=3).map(tuple),
    st.none() | st.floats(),
)
dump_rationales = st.builds(
    Rationale,
    st.lists(dump_steps, max_size=3).map(tuple),
    st.none() | json_text,
    st.none() | extreme_floats,
    st.lists(json_text, max_size=3).map(tuple),
)
dumps = st.lists(
    st.builds(
        lambda rid, gold, pred: {"id": rid, "gold": gold.to_dict(), "prediction": pred.to_dict()},
        row_ids,
        dump_rationales,
        dump_rationales,
    ),
    max_size=3,
)


class TestDumpWriter:
    """``eval --dump-parse`` writes each entry's scalars with json's C
    encoder; its bytes must be those of ``json.dumps(dump, indent=2)``."""

    @settings(max_examples=100, deadline=None)
    @given(dump=dumps)
    def test_dump_is_byte_identical_to_indented_dumps(self, dump):
        assert "".join(cli._dump_json(dump)) == json.dumps(dump, indent=2) + "\n"

    def test_non_finite_numbers_are_written_as_null(self):
        step = ReasoningStep("+", (Operand.literal(math.inf), Operand.literal(math.nan)), math.inf)
        rationale = Rationale((step,), None, None, ("step 1 at char 9: x",))
        text = "".join(cli._dump_json([{"id": 'q"\\\u00e9', "gold": rationale.to_dict(),
                                "prediction": Rationale((), None, None).to_dict()}]))
        assert "NaN" not in text and "Infinity" not in text
        entry = json.loads(text)[0]
        assert entry["id"] == 'q"\\\u00e9'
        assert [o["value"] for o in entry["gold"]["steps"][0]["operands"]] == [None, None]
        assert entry["gold"]["steps"][0]["stated_result"] is None
        assert entry["prediction"] == {
            "steps": [], "final_answer": None, "final_value": None, "diagnostics": []
        }


MIXED500_ARGV = ["eval", "--pred", "mixed500_pred.jsonl", "--gold", "mixed500_gold.jsonl"]


class TestMixed500:
    """Reports of ``tests/fixtures/mixed500_*.jsonl`` (see make_mixed500.py):
    500 gsm8k and mathqa records with every perturbation the scorer
    classifies, and malformed spans on both sides. The expected files were
    written by the scorer before its step multisets became dicts; the
    manifests in them hold the relative paths of a run from the fixtures
    directory."""

    @pytest.mark.parametrize("out_format, suffix", [("json", "json"), ("csv", "csv"),
                                                    ("markdown", "md")])
    @pytest.mark.parametrize("flag", [[], ["--no-commutative"]])
    def test_reports_are_byte_identical(self, monkeypatch, capsys, out_format, suffix, flag):
        monkeypatch.chdir(FIXTURES)
        assert run_main([*MIXED500_ARGV, "--out-format", out_format, *flag]) == EXIT_OK
        expected = FIXTURES / f"mixed500_report{'_nc' if flag else ''}.{suffix}"
        assert capsys.readouterr().out.encode() == expected.read_bytes()

    def test_dump_is_indented_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(FIXTURES)
        dump = tmp_path / "dump.json"
        assert run_main([*MIXED500_ARGV, "--dump-parse", str(dump)]) == EXIT_OK
        capsys.readouterr()
        text = dump.read_text(encoding="utf-8")
        entries = json.loads(text)
        assert text == json.dumps(entries, indent=2) + "\n"
        assert len(entries) == 500
        assert any(not e["prediction"]["steps"] for e in entries)
        assert any(e["gold"]["diagnostics"] for e in entries)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run_main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        code = run_main(["eval", "--pred", "x", "--gold", "y", "--frobnicate"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run_main(["transmogrify"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_choice(self, capsys):
        code = run_main(
            ["eval", "--pred", "x", "--gold", "y", "--out-format", "yaml"]
        )
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert run_main(["--version"]) == EXIT_OK
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("eval", "--out"),
            ("eval", "--dump-parse"),
            ("stats", "--out"),
            ("train", "--out-dir"),
            ("grad-check", "--out"),
            ("tokens", "--out"),
            ("tokens", "--json-out"),
        ],
    )
    def test_empty_output_path_is_a_usage_error(
        self, two_reports, tmp_path, monkeypatch, capsys, command, flag
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(TRAIN_CONFIG))
        tokens = tmp_path / "tokens.jsonl"
        tokens.write_text('{"tokens": [1, 2, 2, 3]}\n')
        # every input is valid, so only the empty path stops the command
        argv = {
            "eval": ["eval", "--pred", MICRO5_PRED, "--gold", MICRO5_GOLD],
            "stats": ["stats", "--test", "ttest", *two_reports],
            "train": ["train", "--config", str(config)],
            "grad-check": ["grad-check", "--loss", "ce"],
            "tokens": ["tokens", "--input", str(tokens), "--out", str(tmp_path / "d.csv")],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert run_main([*argv, flag, ""]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{command}: error: argument {flag}: an output path must not be empty" in err
        assert list(cwd.iterdir()) == []
        assert sorted(tmp_path.rglob("*")) == sorted([*before, cwd])

    @pytest.mark.parametrize(
        "command, flag, path, message",
        [
            pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[2]}")
            for case in [
                ("eval", "--out", "nodir/r.json", "'nodir' is not an existing directory"),
                ("eval", "--dump-parse", "nodir/p.jsonl", "'nodir' is not an existing directory"),
                ("stats", "--out", "afile/s.json", "'afile' is not an existing directory"),
                ("train", "--out-dir", "afile", "'afile' exists and is not a directory"),
                ("train", "--out-dir", "afile/run", "'afile' exists and is not a directory"),
                ("grad-check", "--out", "nodir/g.json", "'nodir' is not an existing directory"),
                ("tokens", "--out", "nodir/d.csv", "'nodir' is not an existing directory"),
                ("tokens", "--json-out", "adir", "'adir' is a directory"),
            ]
        ],
    )
    def test_unwritable_output_path_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, command, flag, path, message
    ):
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        monkeypatch.chdir(tmp_path)
        # the inputs are missing, so a command that read them first would exit 2
        argv = {
            "eval": ["eval", "--pred", "missing.jsonl", "--gold", "missing.jsonl"],
            "stats": ["stats", "--test", "ttest", "missing.json"],
            "train": ["train", "--config", "missing.json"],
            "grad-check": ["grad-check", "--loss", "ce"],
            "tokens": ["tokens", "--input", "missing.jsonl", "--out", "d.csv"],
        }[command]
        assert run_main([*argv, flag, path]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{command}: error: argument {flag}: {message}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
        assert list((tmp_path / "adir").iterdir()) == []

    def test_out_dir_with_missing_parents_is_created(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TRAIN_CONFIG, "steps": 2, "warmup_steps": 1}))
        out_dir = tmp_path / "runs" / "a" / "b"
        assert run_main(["train", "--config", str(config), "--out-dir", str(out_dir)]) == EXIT_OK
        assert (out_dir / "trace.jsonl").exists()


def file_bytes(directory):
    return {p: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


class TestOutputClashes:
    """An output flag that names an input or another output is a usage
    error before any input is read, and every file stays as it was."""

    def refuse(self, argv, names, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)

        def unread(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "ingest_jsonl", unread)
        monkeypatch.setattr(cli, "_read_json", unread)
        before = file_bytes(tmp_path)
        assert run_main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{argv[0]}: error: {names[0]} and {names[1]} name the same file" in err
        assert file_bytes(tmp_path) == before

    @pytest.mark.parametrize(
        "extra, names",
        [
            (["--out", "r.json", "--dump-parse", "r.json"], ["--out", "--dump-parse"]),
            (["--out", "p.jsonl"], ["--pred", "--out"]),
            (["--out", "sub/../g.jsonl"], ["--gold", "--out"]),
            (["--dump-parse", "p.jsonl"], ["--pred", "--dump-parse"]),
            (["--dump-parse", "./g.jsonl"], ["--gold", "--dump-parse"]),
            (
                ["--out-format", "csv", "--out", "r.csv", "--dump-parse", "r.csv.manifest.json"],
                ["the manifest of --out", "--dump-parse"],
            ),
            (
                ["--out-format", "markdown", "--out", "g"],
                ["--gold", "the manifest of --out"],
            ),
        ],
    )
    def test_eval(self, tmp_path, monkeypatch, capsys, extra, names):
        (tmp_path / "sub").mkdir()
        (tmp_path / "p.jsonl").write_bytes(Path(MICRO5_PRED).read_bytes())
        gold = "g.manifest.json" if "g" in extra else "g.jsonl"
        (tmp_path / gold).write_bytes(Path(MICRO5_GOLD).read_bytes())
        for name in ("r.json", "r.csv", "r.csv.manifest.json"):
            (tmp_path / name).write_text("kept\n")
        argv = ["eval", "--pred", "p.jsonl", "--gold", gold, *extra]
        self.refuse(argv, names, tmp_path, monkeypatch, capsys)

    def test_a_json_report_has_no_manifest_to_clash_with(self, tmp_path):
        out = tmp_path / "r.json"
        dump = tmp_path / "r.json.manifest.json"
        argv = ["eval", "--pred", MICRO5_PRED, "--gold", MICRO5_GOLD, "--out", str(out)]
        assert run_main([*argv, "--dump-parse", str(dump)]) == EXIT_OK
        assert "per_sample" in json.loads(out.read_text())
        assert "gold" in json.loads(dump.read_text())[0]

    @pytest.mark.parametrize("clash", [0, 1])
    def test_stats(self, tmp_path, monkeypatch, capsys, two_reports, clash):
        argv = ["stats", "--test", "ttest", *two_reports, "--out", two_reports[clash]]
        self.refuse(argv, ["a report", "--out"], tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "extra, names",
        [
            (["--out", "t.jsonl"], ["--input", "--out"]),
            (["--out", "d.csv", "--json-out", "t.jsonl"], ["--input", "--json-out"]),
            (["--out", "d.csv", "--json-out", "d.csv"], ["--out", "--json-out"]),
            (
                ["--out", "d.csv", "--json-out", "d.csv.manifest.json"],
                ["the manifest of --out", "--json-out"],
            ),
            (["--out", "t"], ["--input", "the manifest of --out"]),
        ],
    )
    def test_tokens(self, tmp_path, monkeypatch, capsys, extra, names):
        source = "t.manifest.json" if extra[1] == "t" else "t.jsonl"
        (tmp_path / source).write_text('{"tokens": [1, 2, 2, 3]}\n')
        for name in ("d.csv", "d.csv.manifest.json"):
            (tmp_path / name).write_text("kept\n")
        argv = ["tokens", "--input", source, *extra]
        self.refuse(argv, names, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize(
        "written", ["trace.jsonl", "model.sltm", "model_best.sltm", "manifest.json"]
    )
    def test_train(self, tmp_path, monkeypatch, capsys, written):
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / written).write_text(json.dumps(TRAIN_CONFIG))
        argv = ["train", "--config", f"run/{written}", "--out-dir", "run"]
        names = ["--config", f"{written} in --out-dir"]
        self.refuse(argv, names, tmp_path, monkeypatch, capsys)


class TestErrorContract:
    def test_every_error_class_but_divergence_is_a_data_error(self):
        # main maps only DATA_ERRORS to exit 2; any other error type exits 3
        submodules = pkgutil.iter_modules(losslab.__path__, "losslab.")
        modules = [losslab, *(importlib.import_module(m.name) for m in submodules)]
        errors = {
            obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__.partition(".")[0] == "losslab"
        }
        assert DataError in errors and TrainingDiverged in errors
        assert {e for e in errors if not issubclass(e, DataError)} == {TrainingDiverged}
        assert cli.DATA_ERRORS == (DataError, TrainingDiverged, OSError)


@pytest.fixture()
def two_reports(tmp_path):
    a = tmp_path / "frozen.json"
    b = tmp_path / "perfect.json"
    perfect_pred = tmp_path / "perfect_pred.jsonl"
    lines = []
    for line in Path(MICRO5_GOLD).read_text().splitlines():
        rec = json.loads(line)
        lines.append(json.dumps({"id": rec["id"], "prediction": rec["gold"]}))
    perfect_pred.write_text("\n".join(lines) + "\n")
    assert run_main(
        ["eval", "--pred", MICRO5_PRED, "--gold", MICRO5_GOLD, "--out", str(a)]
    ) == EXIT_OK
    assert run_main(
        ["eval", "--pred", str(perfect_pred), "--gold", MICRO5_GOLD, "--out", str(b)]
    ) == EXIT_OK
    return str(a), str(b)


def _parent(report, path):
    for key in path[:-1]:
        report = report[key]
    return report


def set_at(path, value):
    return lambda report: _parent(report, path).__setitem__(path[-1], value)


def delete_at(path):
    return lambda report: _parent(report, path).__delitem__(path[-1])


class TestStatsCommand:
    def test_mcnemar_identical_reports(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_main(
            ["eval", "--pred", MICRO5_PRED, "--gold", MICRO5_GOLD, "--out", str(out)]
        ) == EXIT_OK
        code = run_main(["stats", "--test", "mcnemar", str(out), str(out)])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["b"] == 0
        assert payload["c"] == 0
        assert payload["p_value"] == 1.0
        assert payload["method"] == "degenerate"

    def test_mcnemar_direction(self, two_reports, capsys):
        code = run_main(["stats", "--test", "mcnemar", *two_reports])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["b"] == 0
        assert payload["c"] == 2
        assert payload["method"] == "exact-binomial"
        assert payload["p_value"] == pytest.approx(0.5)

    def test_ttest_default_metric(self, two_reports, capsys):
        code = run_main(["stats", "--test", "ttest", *two_reports])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "iou"
        assert payload["statistic"] < 0
        assert 0.0 < payload["p_value"] <= 1.0

    def test_ttest_identical_degenerate(self, two_reports, capsys):
        a, _ = two_reports
        run_main(["stats", "--test", "ttest", a, a])
        payload = json.loads(capsys.readouterr().out)
        assert payload["degenerate"] is True
        assert payload["p_value"] == 1.0

    def test_pearson_self_correlation(self, two_reports, capsys):
        a, _ = two_reports
        code = run_main(["stats", "--test", "pearson", "--metric", "iou", a, a])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["r"] == pytest.approx(1.0)
        assert payload["n"] == 5

    def test_meanrank(self, two_reports, capsys):
        code = run_main(["stats", "--test", "meanrank", *two_reports])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        ranks = payload["mean_rank"]
        assert set(ranks) == {"frozen", "perfect"}
        # the perfect run wins every column it can win
        assert ranks["perfect"] < ranks["frozen"]

    def test_meanrank_ranks_error_rates_lower_is_better(self, two_reports, monkeypatch, capsys):
        tables = []
        monkeypatch.setattr(cli, "mean_rank", lambda table: tables.append(table) or {})
        assert run_main(["stats", "--test", "meanrank", *two_reports]) == EXIT_OK
        capsys.readouterr()
        (table,) = tables
        assert table.col_names == CSV_COLUMNS
        assert table.higher_is_better == (True,) * 6 + (False,) * 4

    def test_meanrank_identical_reports_tie(self, two_reports, tmp_path, capsys):
        a, _ = two_reports
        copy = tmp_path / "copy.json"
        copy.write_text(Path(a).read_text())
        run_main(["stats", "--test", "meanrank", a, str(copy)])
        payload = json.loads(capsys.readouterr().out)
        values = list(payload["mean_rank"].values())
        assert values[0] == values[1] == 1.5

    def test_meanrank_ranks_a_report_given_twice_once_per_argument(self, two_reports, capsys):
        a, b = two_reports
        assert run_main(["stats", "--test", "meanrank", a, b, a]) == EXIT_OK
        ranks = json.loads(capsys.readouterr().out)["mean_rank"]
        assert list(ranks) == [a, b, f"{a}#2"]
        assert ranks[a] == ranks[f"{a}#2"] > ranks[b]

    def test_non_report_json_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": 1}\n')
        code = run_main(["stats", "--test", "mcnemar", str(bogus), str(bogus)])
        assert code == EXIT_DATA
        capsys.readouterr()

    def test_non_utf8_report_exits_2_as_unreadable(self, tmp_path, capsys):
        bogus = tmp_path / "latin1.json"
        bogus.write_bytes(b'{"steps": 2, "x": "\xff"}\n')
        code = run_main(["stats", "--test", "mcnemar", str(bogus), str(bogus)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"cannot read {bogus}" in err
        assert "not valid JSON" not in err

    def test_mismatched_ids_exit_2(self, two_reports, tmp_path, capsys):
        a, _ = two_reports
        report = json.loads(Path(a).read_text())
        report["per_sample"] = report["per_sample"][:-1]
        clipped = tmp_path / "clipped.json"
        clipped.write_text(json.dumps(report))
        assert run_main(["stats", "--test", "mcnemar", a, str(clipped)]) == EXIT_DATA
        capsys.readouterr()

    def test_ids_equal_as_text_exit_2(self, tmp_path, capsys):
        # eval refuses such ids, so the report is edited after it is written
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text('{"id": 1, "prediction": "#### 1"}\n{"id": 2, "prediction": "#### 2"}\n')
        gold.write_text('{"id": 1, "gold": "#### 1"}\n{"id": 2, "gold": "#### 1"}\n')
        report = tmp_path / "report.json"
        argv = ["eval", "--pred", str(pred), "--gold", str(gold), "--out", str(report)]
        assert run_main(argv) == EXIT_OK
        payload = json.loads(report.read_text())
        payload["per_sample"][1]["id"] = "1"
        report.write_text(json.dumps(payload))
        code = run_main(["stats", "--test", "mcnemar", str(report), str(report)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(report) in err
        assert "'1'" in err

    def test_missing_metric_column_exits_2(self, two_reports, tmp_path, capsys):
        a, _ = two_reports
        report = json.loads(Path(a).read_text())
        for row in report["per_sample"]:
            del row["dice"]
        clipped = tmp_path / "clipped.json"
        clipped.write_text(json.dumps(report))
        code = run_main(["stats", "--test", "ttest", "--metric", "dice", a, str(clipped)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(clipped) in err and "'dice'" in err

    @pytest.mark.parametrize("metric", ["id", "nope", "diagnostics", "n_samples"])
    def test_metric_outside_the_columns_is_a_usage_error(self, two_reports, capsys, metric):
        code = run_main(["stats", "--test", "ttest", "--metric", metric, *two_reports])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--metric" in err
        assert all(repr(c) in err for c in CSV_COLUMNS)

    @pytest.mark.parametrize(
        "test, edit, named",
        [
            ("meanrank", delete_at(["aggregate", "dice"]), ["aggregate", "'dice'"]),
            ("meanrank", set_at(["aggregate", "es"], "x"), ["aggregate", "es", '"x"']),
            ("meanrank", set_at(["aggregate", "iou"], True), ["aggregate", "iou", "true"]),
            ("meanrank", set_at(["aggregate"], [1, 2]), ["aggregate"]),
            ("ttest", set_at(["per_sample", 1, "iou"], "x"), ["per_sample[1]", "iou", '"x"']),
            ("ttest", set_at(["per_sample", 1, "iou"], float("nan")), ["per_sample[1]", "NaN"]),
            ("ttest", set_at(["per_sample", 2, "ms"], 10**400), ["per_sample[2]", "ms"]),
            ("ttest", set_at(["per_sample"], {"a": 1}), ["per_sample"]),
            ("ttest", set_at(["per_sample", 2], 3), ["per_sample[2]"]),
            ("ttest", delete_at(["per_sample", 0, "id"]), ["per_sample[0]", "id"]),
            ("pearson", set_at(["per_sample", 1, "iou"], None), ["per_sample[1]", "iou", "null"]),
            ("mcnemar", set_at(["per_sample", 0, "em"], "yes"), ["per_sample[0]", "em", '"yes"']),
            ("mcnemar", set_at(["per_sample", 3, "em"], 1), ["per_sample[3]", "em", "got 1"]),
            # a rate beyond [0, 1]; 1e200 would overflow pearson_r's squares
            ("pearson", set_at(["per_sample", 1, "iou"], 1e200), ["per_sample[1]", "iou", "1e+200"]),
            ("ttest", set_at(["per_sample", 0, "ms"], -0.5), ["per_sample[0]", "ms", "-0.5"]),
            ("meanrank", set_at(["per_sample", 4, "io"], 1.5), ["per_sample[4]", "io", "1.5"]),
        ],
    )
    def test_malformed_report_exits_2(self, two_reports, tmp_path, capsys, test, edit, named):
        a, _ = two_reports
        report = json.loads(Path(a).read_text())
        edit(report)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        assert run_main(["stats", "--test", test, a, str(bad)]) == EXIT_DATA
        captured = capsys.readouterr()
        assert "NaN" not in captured.out
        assert str(bad) in captured.err
        assert all(part in captured.err for part in named)


TRAIN_CONFIG = {
    "steps": 30,
    "warmup_steps": 5,
    "samples": 16,
    "val_samples": 8,
    "vocab_size": 16,
    "embed_dim": 8,
    "max_lr": 0.01,
    "eval_interval": 10,
    "seq_len": 8,
    "instruction_len": 2,
}


class TestTrainCommand:
    def write_config(self, tmp_path, extra=None):
        config = dict(TRAIN_CONFIG)
        if extra:
            config.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_artifacts_written(self, tmp_path):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = run_main(["train", "--config", config, "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "trace.jsonl").exists()
        assert (out_dir / "model.sltm").exists()
        assert (out_dir / "model_best.sltm").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["trainable_fraction"] == 1.0
        assert manifest["best_step"] is not None
        assert config in manifest["inputs"]

    def test_a_run_without_a_best_model_removes_an_earlier_one(self, tmp_path):
        out_dir = tmp_path / "run"
        for interval in (2, 100):
            config = self.write_config(tmp_path, extra={"eval_interval": interval})
            assert run_main(["train", "--config", config, "--out-dir", str(out_dir)]) == EXIT_OK
            if interval == 2:
                assert (out_dir / "model_best.sltm").exists()
        assert not (out_dir / "model_best.sltm").exists()
        assert json.loads((out_dir / "manifest.json").read_text())["best_step"] is None

    def train_corpora(self, tmp_path, monkeypatch, extra=None):
        """The training and validation corpora that a train run trains on."""
        corpora = []
        train = cli.train

        def recorded(config, corpus, val_corpus):
            corpora.extend((corpus, val_corpus))
            return train(config, corpus, val_corpus)

        monkeypatch.setattr(cli, "train", recorded)
        config = self.write_config(tmp_path, extra=extra)
        out_dir = str(tmp_path / "run")
        assert run_main(["train", "--config", config, "--out-dir", out_dir]) == EXIT_OK
        return corpora

    def test_validation_follows_the_training_mapping(self, tmp_path, monkeypatch):
        extra = {"steps": 2, "warmup_steps": 1, "samples": 256, "val_samples": 64}
        corpus, val_corpus = self.train_corpora(tmp_path, monkeypatch, extra)
        assert (len(corpus.samples), len(val_corpus.samples)) == (256, 64)
        half = TRAIN_CONFIG["instruction_len"]
        mapping = {}
        for sample in corpus.samples:
            for token, answer in zip(sample.tokens[:half], sample.tokens[half:]):
                assert mapping.setdefault(int(token), int(answer)) == answer
        for sample in val_corpus.samples:
            for token, answer in zip(sample.tokens[:half], sample.tokens[half:]):
                assert mapping[int(token)] == answer

    def test_the_training_corpus_is_a_draw_of_its_samples_alone(self, tmp_path, monkeypatch):
        # so the validation samples leave trace.jsonl and model.sltm as they were
        corpus, _ = self.train_corpora(tmp_path, monkeypatch)
        shared = {k: TRAIN_CONFIG[k] for k in ("vocab_size", "instruction_len", "seq_len")}
        alone = make_synthetic_corpus(0, zipf_exponent=1.0, n_samples=16, **shared)
        assert len(corpus.samples) == len(alone.samples)
        for got, expected in zip(corpus.samples, alone.samples):
            assert got.tokens.tobytes() == expected.tokens.tobytes()
            assert got.roles.tobytes() == expected.roles.tobytes()

    def test_trace_contents(self, tmp_path):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "run"
        run_main(["train", "--config", config, "--out-dir", str(out_dir)])
        lines = (out_dir / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 31
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["mix"] == 0.6
        assert header["auxiliary_kind"] == "none"
        first = json.loads(lines[1])
        assert first["step"] == 0

    def test_loss_by_task_override(self, tmp_path):
        config = self.write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = run_main(
            ["train", "--config", config, "--out-dir", str(out_dir), "--loss-by-task", "mwp"]
        )
        assert code == EXIT_OK
        header = json.loads((out_dir / "trace.jsonl").read_text().splitlines()[0])
        assert header["auxiliary_kind"] == "ll"

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, extra={"learning_rate": 0.1})
        code = run_main(["train", "--config", config, "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_DATA
        assert "learning_rate" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_as_unreadable(self, tmp_path, capsys):
        config = tmp_path / "latin1.json"
        config.write_bytes(b'{"steps": 2, "x": "\xff"}\n')
        code = run_main(["train", "--config", str(config), "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"cannot read {config}" in err
        assert "not valid JSON" not in err

    def test_invalid_config_value_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, extra={"auxiliary": "made-up"})
        code = run_main(["train", "--config", config, "--out-dir", str(tmp_path / "x")])
        assert code == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("eval_interval", 0),
            ("window", 0),
            ("embed_dim", 0),
            ("vocab_size", 2),
            ("vocab_size", "x"),
            ("samples", 0),
            ("val_samples", 0),
            ("adapter_rank", -1),
            ("seed", -1),
            ("instruction_len", 0),
            ("seq_len", 0),
            ("zipf_exponent", None),
            ("steps", 2.7),
            ("steps", True),
            ("steps", 200.0),
            ("mix", "0.5"),
            ("max_lr", float("nan")),
            ("weight_decay", -0.5),
            ("gamma", 10**400),
            ("adapter_scale", True),
            ("embed_dim", 4_000_000_000),
            *((key, ceiling + 1) for key, ceiling in TRAIN_INT_CEILINGS.items()),
        ],
    )
    def test_ill_typed_or_out_of_range_value_exits_2(self, tmp_path, capsys, key, value):
        config = self.write_config(tmp_path, extra={key: value})
        out_dir = tmp_path / "run"
        code = run_main(["train", "--config", config, "--out-dir", str(out_dir)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert key in err
        assert f"got {json.dumps(value)}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "extra, keys",
        [
            ({"vocab_size": 16384, "val_samples": 10_000},
             "val_samples * 2 * instruction_len * vocab_size"),
            ({"vocab_size": 16384, "batch_size": 4096},
             "batch_size * 2 * instruction_len * vocab_size"),
            ({"template": "plain", "seq_len": 1024, "batch_size": 4096},
             "batch_size * seq_len * vocab_size"),
            ({"vocab_size": 16384, "embed_dim": 4096}, "vocab_size * embed_dim"),
            ({"window": 1024, "embed_dim": 4096, "val_samples": 1},
             "batch_size * 2 * instruction_len * window * embed_dim"),
        ],
    )
    def test_array_above_the_ceiling_exits_2(self, tmp_path, capsys, extra, keys):
        config = self.write_config(tmp_path, extra=extra)
        out_dir = tmp_path / "run"
        assert run_main(["train", "--config", config, "--out-dir", str(out_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{keys} is " in err
        assert f"ceiling of {MAX_ARRAY_VALUES}" in err
        assert not out_dir.exists()

    def test_array_ceiling_is_inclusive(self, tmp_path):
        # TRAIN_CONFIG samples hold 2 * instruction_len = 4 positions
        at = MAX_ARRAY_VALUES // (4 * 16384)
        config = self.write_config(tmp_path, extra={"vocab_size": 16384, "val_samples": at})
        assert load_train_config(config)["val_samples"] == at
        config = self.write_config(tmp_path, extra={"vocab_size": 16384, "val_samples": at + 1})
        with pytest.raises(DataError, match="val_samples"):
            load_train_config(config)

    def test_diverging_run_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, extra={"max_lr": 1e6, "steps": 50, "warmup_steps": 5})
        out_dir = tmp_path / "run"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_main(["train", "--config", config, "--out-dir", str(out_dir)])
        assert code == EXIT_DATA
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err
        assert "training diverged at step" in err
        assert "last finite loss" in err
        assert not out_dir.exists()

    def test_integer_fills_float_key(self, tmp_path):
        config = self.write_config(tmp_path, extra={"max_lr": 1, "gamma": 1})
        out_dir = tmp_path / "run"
        assert run_main(["train", "--config", config, "--out-dir", str(out_dir)]) == EXIT_OK
        header = json.loads((out_dir / "trace.jsonl").read_text().splitlines()[0])
        assert type(header["max_lr"]) is float and type(header["gamma"]) is float
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["max_lr"] == 1 and type(manifest["config"]["max_lr"]) is int

    def test_every_integer_key_has_a_ceiling_above_its_default(self):
        integer_keys = {k for k, v in TRAIN_CONFIG_KEYS.items() if type(v) is int}
        assert set(TRAIN_INT_CEILINGS) == integer_keys
        assert all(TRAIN_CONFIG_KEYS[k] <= c for k, c in TRAIN_INT_CEILINGS.items())

    def test_defaults_come_from_the_dataclasses(self):
        config = TrainConfig()
        assert (config.steps, config.warmup_steps) == (200, 50)
        for key in ("seed", "steps", "max_lr", "warmup_steps", "eval_interval"):
            assert TRAIN_CONFIG_KEYS[key] == getattr(config, key)
        assert TRAIN_CONFIG_KEYS["mix"] == LossConfig().mix
        corpus = inspect.signature(make_synthetic_corpus).parameters
        assert TRAIN_CONFIG_KEYS["template"] == corpus["template"].default.value
        for key in ("instruction_len", "seq_len"):
            assert TRAIN_CONFIG_KEYS[key] == corpus[key].default
        assert len(TRAIN_CONFIG_KEYS) == 22

    def test_every_loss_option_is_a_train_key(self):
        # a LossConfig field that no train key sets is an option no command reaches
        key = {"auxiliary_kind": "auxiliary"}
        for field in fields(LossConfig):
            default = getattr(field.default, "value", field.default)
            assert TRAIN_CONFIG_KEYS.get(key.get(field.name, field.name)) == default, field.name

    # every drawn number is small, so an accepted value trains at toy size
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(sorted(TRAIN_CONFIG_KEYS)),
        value=st.one_of(
            st.integers(-3, 64),
            st.floats(-3, 64),
            st.sampled_from([math.nan, math.inf, -math.inf]),
            st.text(max_size=20),
            st.sampled_from(["none", "ll", "fl", "plain", "instruction_answer"]),
            st.none(),
            st.booleans(),
            st.lists(st.integers(0, 3), max_size=3),
        ),
    )
    def test_any_single_value_exits_0_or_2(self, tmp_path_factory, key, value):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        config = self.write_config(tmp_path, extra={key: value})
        code = run_main(["train", "--config", config, "--out-dir", str(tmp_path / "run")])
        assert code in (EXIT_OK, EXIT_DATA)

    def test_deterministic_artifacts(self, tmp_path):
        config = self.write_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_main(["train", "--config", config, "--out-dir", str(d1)])
        run_main(["train", "--config", config, "--out-dir", str(d2)])
        assert (d1 / "trace.jsonl").read_bytes() == (d2 / "trace.jsonl").read_bytes()
        assert (d1 / "model.sltm").read_bytes() == (d2 / "model.sltm").read_bytes()


class TestGradCheckCommand:
    def test_all_losses_pass(self, capsys):
        code = run_main(["grad-check"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for name in ("ce", "fl", "dl", "gdl", "sadl", "ll", "combined"):
            assert f"{name}: PASS" in out

    def test_single_loss(self, capsys):
        assert run_main(["grad-check", "--loss", "ce"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("ce: PASS")
        assert "fl:" not in out

    def test_failing_tolerance_exits_3(self, capsys):
        code = run_main(["grad-check", "--loss", "dl", "--tolerance", "1e-12"])
        assert code == EXIT_INTERNAL
        assert "dl: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--step", "nan"], "--step"),
            (["--step", "inf"], "--step"),
            (["--step", "0"], "--step"),
            (["--step", "-1"], "--step"),
            (["--tolerance", "nan"], "--tolerance"),
            (["--tolerance", "-1"], "--tolerance"),
            (["--positions", "-3"], "--positions"),
            (["--positions", "0"], "--positions"),
            (["--vocab", "1"], "--vocab"),
            (["--vocab", "0"], "--vocab"),
            (["--seed", "-1"], "--seed"),
            (["--positions", "100000", "--vocab", "100000"], "--positions * --vocab"),
        ],
    )
    def test_bad_flag_exits_2_before_any_array(self, monkeypatch, capsys, flags, named):
        def no_batch(*args):
            raise AssertionError("a batch was built before the flags were checked")

        monkeypatch.setattr(cli, "_gradcheck_batch", no_batch)
        assert run_main(["grad-check", *flags]) == EXIT_DATA
        captured = capsys.readouterr()
        assert named in captured.err
        assert "PASS" not in captured.out

    def test_logit_ceiling_is_inclusive(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_GRADCHECK_LOGITS", 3 * 5)
        ce = ["grad-check", "--loss", "ce"]
        assert run_main([*ce, "--positions", "3", "--vocab", "5"]) == EXIT_OK
        assert run_main([*ce, "--positions", "4", "--vocab", "4"]) == EXIT_DATA
        assert "at most 15, got 4 * 4" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "grad.json"
        code = run_main(["grad-check", "--loss", "ce", "--out", str(out)])
        assert code == EXIT_OK
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["results"]["ce"]["passed"] is True
        assert payload["results"]["ce"]["max_rel_error"] < 1e-4
        assert payload["manifest"]["seed"] == 0


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestGradCheckSplit:
    """grad-check with its rows split between this process and forked workers."""

    ARGV = ["grad-check", "--positions", "6", "--vocab", "9", "--seed", "3"]

    def run(self, monkeypatch, capsys, tmp_path, cpus, extra=()):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / "g.json"
        code = run_main([*self.ARGV, *extra, "--out", str(out)])
        return code, capsys.readouterr().out, out.read_bytes()

    def counted_forks(self, monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            pid = real_fork()
            forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        return forks

    @pytest.mark.parametrize(
        "extra",
        [
            (),
            ("--loss", "ll"),
            ("--loss", "combined"),
            ("--tolerance", "1e-12"),
            # every error is 1 or NaN, so the worst is the first of equal maxima
            ("--step", "1e308"),
        ],
    )
    def test_output_is_that_of_one_process(self, monkeypatch, capsys, tmp_path, extra):
        monkeypatch.setattr(cli, "_MIN_PROBES_PER_PROCESS", 1)
        forks = self.counted_forks(monkeypatch)
        serial = self.run(monkeypatch, capsys, tmp_path, 1, extra)
        assert forks == []
        for cpus in (2, 3):
            assert self.run(monkeypatch, capsys, tmp_path, cpus, extra) == serial
        assert len(forks) == 2  # one worker at most, whatever the CPU count
        assert no_child_left()

    def test_the_split_covers_tie_rows(self, monkeypatch, capsys, tmp_path):
        # seed 3 at 6 x 9 has Lovász tie rows under a wide step
        monkeypatch.setattr(cli, "_MIN_PROBES_PER_PROCESS", 1)
        extra = ("--loss", "ll", "--step", "0.05")
        serial = self.run(monkeypatch, capsys, tmp_path, 1, extra)
        assert "skipped=0" not in serial[1]
        assert self.run(monkeypatch, capsys, tmp_path, 2, extra) == serial

    def test_without_an_affinity_call_the_cpu_count_decides(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert cli._worker_rows(10, 10**6) == range(5, 10)
        for count in (1, None):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert not cli._worker_rows(10, 10**6)

    def test_small_checks_stay_serial(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not cli._worker_rows(16, 10**9)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        least = cli._MIN_PROBES_PER_PROCESS
        assert not cli._worker_rows(16, 2 * least - 1)
        assert cli._worker_rows(16, 2 * least) == range(8, 16)
        assert cli._worker_rows(3, 10**9) == range(1, 3)
        assert not cli._worker_rows(1, 10**9)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert cli._worker_rows(64, 10**9) == range(32, 64)
        # the default batch, and the 4 x 64 batch of every loss, stay serial
        assert not cli._worker_rows(8, 7 * 8 * 17)
        assert not cli._worker_rows(4, 7 * 4 * 64)

    def test_a_float64_error_survives_the_pipe(self, monkeypatch):
        sent = GradCheckReport(np.float64(1.25e-7), (3, 1), [(2, 0), (2, 1)], 5)
        monkeypatch.setattr(cli, "check_named_loss", lambda *args: sent)
        worker = cli._GradCheckWorker(["ce", "ll"], None, 1e-5, 1e-4, range(2, 4))
        try:
            received = [worker.report(), worker.report()]
        finally:
            worker.stop()
        assert received == [sent, sent]
        assert received[0].max_rel_error.tobytes() == sent.max_rel_error.tobytes()
        assert no_child_left()

    def test_a_failing_worker_exits_3_and_is_reaped(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_MIN_PROBES_PER_PROCESS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, real_check = os.getpid(), cli.check_named_loss

        def check(name, *args):
            if os.getpid() != parent and name == "dl":
                raise RuntimeError("injected")
            return real_check(name, *args)

        monkeypatch.setattr(cli, "check_named_loss", check)
        assert run_main(self.ARGV) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert "fl: PASS" in captured.out and "dl:" not in captured.out
        assert "internal error: RuntimeError: grad-check worker" in captured.err
        assert "(rows 3-5) failed with exit code 1" in captured.err
        assert no_child_left()

    def test_an_interrupted_parent_kills_its_worker(self, monkeypatch):
        monkeypatch.setattr(cli, "_MIN_PROBES_PER_PROCESS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()

        def check(*args):
            if os.getpid() != parent:
                time.sleep(60)  # a worker that would outlive the test
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "check_named_loss", check)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_main(self.ARGV)
        assert time.perf_counter() - start < 30
        assert no_child_left()


    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
    def test_a_worker_exits_with_its_killed_parent(self, tmp_path, signum):
        # neither signal lets the parent unwind and kill its worker; both
        # processes hold the write end of a pipe, so its reader sees the end
        # of the file once both are gone (a zombie holds no file)
        read_fd, write_fd = os.pipe()
        script = (
            "import os, sys, time\n"
            "from losslab import cli\n"
            "cli._MIN_PROBES_PER_PROCESS = 1\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "parent = os.getpid()\n"
            "def check(*args):\n"
            "    if os.getpid() != parent:\n"
            f"        os.write({write_fd}, b'w')\n"
            "    time.sleep(60)\n"
            "cli.check_named_loss = check\n"
            f"cli.main({self.ARGV!r})\n"
        )
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-c", script], cwd=tmp_path, pass_fds=(write_fd,),
            env={**os.environ, "PYTHONPATH": path},
        )
        os.close(write_fd)
        try:
            with os.fdopen(read_fd, "rb", buffering=0) as reader:
                assert reader.read(1) == b"w"  # the worker runs
                proc.send_signal(signum)
                assert proc.wait(timeout=30) == -signum
                start = time.perf_counter()
                ready, _, _ = select.select([reader], [], [], 30)
                assert ready and reader.read(1) == b""
                assert time.perf_counter() - start < 10
        finally:
            proc.kill()
            proc.wait()


class TestTokensCommand:
    def write_tokens(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        rows = [
            {"id": "a", "tokens": [0, 1, 1, 2, 3]},
            {"id": "b", "tokens": [0, 1, 2, 2, 5]},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        return str(path)

    def test_csv_output(self, tmp_path):
        src = self.write_tokens(tmp_path)
        out = tmp_path / "density.csv"
        json_out = tmp_path / "density.json"
        code = run_main(
            ["tokens", "--input", src, "--out", str(out), "--json-out", str(json_out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "id,density"
        ids = [int(line.split(",")[0]) for line in lines[1:]]
        assert ids == list(range(0, 6))
        densities = [float(line.split(",")[1]) for line in lines[1:]]
        payload = json.loads(json_out.read_text())
        assert densities == payload["density"]
        assert (tmp_path / "density.csv.manifest.json").exists()

    def test_exclude_ids(self, tmp_path):
        src = self.write_tokens(tmp_path)
        out = tmp_path / "density.csv"
        code = run_main(
            ["tokens", "--input", src, "--out", str(out), "--exclude-ids", "0"]
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        ids = [int(line.split(",")[0]) for line in lines[1:]]
        assert ids[0] == 1

    def test_json_out_payload(self, tmp_path):
        src = self.write_tokens(tmp_path)
        out = tmp_path / "density.csv"
        json_out = tmp_path / "density.json"
        run_main(
            ["tokens", "--input", src, "--out", str(out), "--json-out", str(json_out)]
        )
        payload = json.loads(json_out.read_text())
        assert payload["n"] == 10
        assert payload["histogram"][0] == 2
        assert len(payload["density"]) == len(payload["ids"])
        assert payload["bandwidth"] > 0

    def test_exclude_everything_exits_2(self, tmp_path, capsys):
        src = self.write_tokens(tmp_path)
        code = run_main(
            [
                "tokens", "--input", src, "--out", str(tmp_path / "d.csv"),
                "--exclude-ids", "0,1,2,3,5",
            ]
        )
        assert code == EXIT_DATA
        capsys.readouterr()

    def test_bad_bandwidth_exits_2(self, tmp_path, capsys):
        src = self.write_tokens(tmp_path)
        code = run_main(
            ["tokens", "--input", src, "--out", str(tmp_path / "d.csv"),
             "--bandwidth", "wide"]
        )
        assert code == EXIT_DATA
        capsys.readouterr()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_nonpositive_or_nonfinite_bandwidth_exits_2(self, tmp_path, capsys, value):
        src = self.write_tokens(tmp_path)
        out = tmp_path / "d.csv"
        code = run_main(
            ["tokens", "--input", src, "--out", str(out), f"--bandwidth={value}"]
        )
        assert code == EXIT_DATA
        assert "--bandwidth" in capsys.readouterr().err
        assert not out.exists()

    def test_single_id_with_too_small_a_bandwidth_exits_2(self, tmp_path, capsys):
        src = tmp_path / "one.jsonl"
        src.write_text('{"tokens": [5]}\n')
        out = tmp_path / "d.csv"
        code = run_main(
            ["tokens", "--input", str(src), "--out", str(out), "--bandwidth", "1e-310"]
        )
        assert code == EXIT_DATA
        assert "--bandwidth 1e-310" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "token", ['"a"', "null", "2.7", "true", str(2**63), str(-(2**63) - 1)]
    )
    def test_non_integer_token_exits_2(self, tmp_path, capsys, token):
        path = tmp_path / "tokens.jsonl"
        path.write_text('{"tokens": [0, 1]}\n' + '{"tokens": [2, %s, 3]}\n' % token)
        code = run_main(["tokens", "--input", str(path), "--out", str(tmp_path / "d.csv")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err
        assert f"record 2: token {token} " in err

    def test_id_span_too_wide_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tokens.jsonl"
        path.write_text('{"tokens": [0, %d]}\n' % 2**62)
        out = tmp_path / "d.csv"
        code = run_main(["tokens", "--input", str(path), "--out", str(out)])
        assert code == EXIT_DATA
        assert "0..4611686018427387904" in capsys.readouterr().err
        assert not out.exists()

    def test_span_limit_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TOKEN_SPAN", 6)  # the fixture's ids span 0..5
        src = self.write_tokens(tmp_path)
        assert run_main(["tokens", "--input", src, "--out", str(tmp_path / "d.csv")]) == EXIT_OK
        monkeypatch.setattr(cli, "MAX_TOKEN_SPAN", 5)
        assert run_main(["tokens", "--input", src, "--out", str(tmp_path / "e.csv")]) == EXIT_DATA
        assert "0..5 span more than 5 ids" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        src = self.write_tokens(tmp_path)
        out = tmp_path / "density.csv"
        argv = ["tokens", "--input", src, "--out", str(out)]
        run_main(argv)
        first = out.read_bytes()
        run_main(argv)
        assert out.read_bytes() == first


class TestParseCommand:
    def test_infix_parse(self, capsys):
        code = run_main(["parse", "--text", "<<10*.5=5>> #### 5"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["final_answer"] == "5"
        step = payload["steps"][0]
        assert step["operator"] == "*"
        assert [o["value"] for o in step["operands"]] == [10.0, 0.5]
        assert step["stated_result"] == 5.0

    def test_missing_marker_reported(self, capsys):
        code = run_main(["parse", "--text", "<<1+1=2>> no marker"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["final_answer"] is None
        assert payload["diagnostics"]

    def test_missing_marker_reads_as_in_an_eval_dump(self, tmp_path, capsys):
        text = "<<1+1=2>> <<1+x>> no marker"
        assert run_main(["parse", "--text", text]) == EXIT_OK
        parsed = json.loads(capsys.readouterr().out)
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"id": 1, "gold": text, "prediction": text}) + "\n")
        dump = tmp_path / "dump.json"
        argv = ["eval", "--pred", str(records), "--gold", str(records), "--dump-parse", str(dump)]
        assert run_main(argv) == EXIT_OK
        [entry] = json.loads(dump.read_text())
        assert entry["gold"] == entry["prediction"] == parsed
        assert parsed["diagnostics"][-1] == "completion has no final-answer marker"
        assert len(parsed["diagnostics"]) == 2

    def test_program_with_numbers(self, capsys):
        code = run_main(
            [
                "parse", "--format", "mathqa",
                "--text", "<<multiply(n0,n1)>> <<add(#0,const_10)>> #### 110",
                "--numbers", "4,25",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == [100.0, 110.0]

    def test_non_number_exits_2(self, capsys):
        code = run_main(["parse", "--text", "<<1+1=2>> #### 2", "--numbers", "a,b"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "--numbers" in err
        assert "'a'" in err

    @pytest.mark.parametrize("numbers", ["inf,0", "1,nan", "2,-inf", "1e999"])
    def test_non_finite_number_exits_2(self, capsys, numbers):
        code = run_main(["parse", "--text", "<<1+1=2>> #### 2", "--numbers", numbers])
        assert code == EXIT_DATA
        assert "--numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "final", ["nan", "inf", "-Infinity", pytest.param("9" * 500, id="500-digits")]
    )
    def test_non_finite_final_answer_prints_valid_json(self, capsys, final):
        assert run_main(["parse", "--text", f"<<1+1=2>> #### {final}"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
        assert payload["final_answer"] == final
        assert payload["final_value"] is None

    @pytest.mark.parametrize(
        "text, fmt, path",
        [
            ("<<" + "9" * 400 + "+1=2>> #### 2", "gsm8k", ("operands", 0, "value")),
            ("<<1+1=1e400>> #### 2", "gsm8k", ("stated_result",)),
            ("<<add(nan,1)>> #### 1", "mathqa", ("operands", 0, "value")),
        ],
        ids=["overflowed-literal", "overflowed-stated-result", "nan-literal"],
    )
    def test_non_finite_step_number_prints_null(self, capsys, text, fmt, path):
        assert run_main(["parse", "--text", text, "--format", fmt]) == EXIT_OK
        value = json.loads(capsys.readouterr().out, parse_constant=reject_constant)["steps"][0]
        for key in path:
            value = value[key]
        assert value is None

    def test_wrong_arity_exits_2(self, capsys):
        code = run_main(
            ["parse", "--format", "mathqa", "--text", "<<power(n0)>> #### 1", "--numbers", "2,3"]
        )
        assert code == EXIT_DATA
        assert "operator 'power' takes 2 argument(s), got 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "steps, message",
        [
            ("<<bogus(#0)>> <<power(#0)>>", "unknown operator 'bogus'"),
            ("<<power(#0)>>", "operator 'power' takes 2 argument(s), got 1"),
        ],
        ids=["unknown", "arity"],
    )
    def test_operator_error_behind_a_poisoned_argument_exits_2(self, capsys, steps, message):
        code = run_main(
            [
                "parse", "--format", "mathqa",
                "--text", f"<<divide(n0,0)>> {steps} #### 1",
                "--numbers", "2",
            ]
        )
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["multiply(n0,n0)", "add(nan,1)", "power(10,400)"])
    def test_non_finite_step_value_is_poisoned(self, capsys, step):
        code = run_main(
            [
                "parse", "--format", "mathqa",
                "--text", f"<<{step}>> <<add(#0,const_1)>> #### 1",
                "--numbers", "1e200",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == [{"poisoned_by_step": 0}] * 2

    def test_poisoned_value_marker(self, capsys):
        code = run_main(
            [
                "parse", "--format", "mathqa",
                "--text", "<<divide(n0,n1)>> <<add(#0,const_1)>> #### 1",
                "--numbers", "4,0",
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"][0] == {"poisoned_by_step": 0}
        assert payload["values"][1] == {"poisoned_by_step": 0}


NUMERIC_LAYERS = ("losslab.losses", "losslab.gradcheck", "losslab.stats", "losslab.training")


def fresh_python(script: str, *args: str, cwd) -> subprocess.CompletedProcess:
    """``script`` run by a new interpreter that imports this tree's losslab,
    with help text wrapped at 80 columns."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-c", script, *args], cwd=cwd, env=env, capture_output=True, text=True
    )


class TestRuntimeImports:
    def loaded_by(self, code: str, tmp_path) -> set[str]:
        """The modules a fresh interpreter loads to run ``code``."""
        # the baseline is taken after startup, so site's .pth hooks stay out of it
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"{code}\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
        )
        done = fresh_python(script, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.split())

    def test_import_loads_only_stdlib_numpy_and_losslab(self, tmp_path):
        code = "import losslab.cli\n" + "".join(f"import {name}\n" for name in NUMERIC_LAYERS)
        loaded = {name.partition(".")[0] for name in self.loaded_by(code, tmp_path)}
        assert {"losslab", "numpy"} <= loaded
        assert loaded - sys.stdlib_module_names - {"numpy", "losslab"} == set()

    def test_the_parser_loads_no_numpy_and_no_numeric_layer(self, tmp_path):
        loaded = self.loaded_by("import losslab.cli\nlosslab.cli.build_parser()", tmp_path)
        assert {"losslab.cli", "losslab.parsing", "losslab.metrics"} <= loaded
        packages = {name.partition(".")[0] for name in loaded}
        assert packages - sys.stdlib_module_names == {"losslab"}
        assert loaded.isdisjoint(NUMERIC_LAYERS)

    def test_the_layers_re_export_the_names_the_parser_reads(self):
        from losslab import gradcheck, losses, training

        assert losses.AuxiliaryKind is gradcheck.AuxiliaryKind is losslab.AuxiliaryKind
        assert training.TrainingDiverged is losslab.TrainingDiverged
        assert gradcheck.LOSS_NAMES is losslab.LOSS_NAMES
        assert tuple(gradcheck._NAMED_LOSSES) == losslab.LOSS_NAMES
        assert gradcheck.DEFAULT_STEP is losslab.DEFAULT_STEP
        assert gradcheck.DEFAULT_TOLERANCE is losslab.DEFAULT_TOLERANCE
        assert not hasattr(cli, "no_such_name")


# A command run in a fresh interpreter; it writes the names of the modules
# it loaded, as JSON, to the file its first argument names
COMMAND_RUNNER = (
    "import json, sys\n"
    "from losslab import cli\n"
    "status = cli.main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w', encoding='utf-8') as fh:\n"
    "    json.dump(sorted(sys.modules), fh)\n"
    "sys.exit(status)\n"
)
TINY_TRAIN_CONFIG = {
    "steps": 4, "warmup_steps": 1, "samples": 8, "val_samples": 3, "vocab_size": 16,
    "embed_dim": 8, "eval_interval": 2, "seq_len": 6, "instruction_len": 2,
}


class TestFreshInterpreter:
    """Each subcommand run by a new interpreter, where no earlier test has
    loaded a numeric layer, against the same command run in this process."""

    # argv, with its inputs as paths relative to the run directory: the
    # name each input is copied to, and its source (a fixture or a text)
    COMMANDS = {
        "eval": (
            ["eval", "--pred", "pred.jsonl", "--gold", "gold.jsonl", "--out", "report.json",
             "--dump-parse", "dump.json"],
            {"pred.jsonl": FIXTURES / "micro5_pred.jsonl",
             "gold.jsonl": FIXTURES / "micro5_gold.jsonl"},
        ),
        "stats": (
            ["stats", "--test", "mcnemar", "a.json", "b.json", "--out", "stats.json"],
            {"a.json": FIXTURES / "mixed500_report.json",
             "b.json": FIXTURES / "mixed500_report_nc.json"},
        ),
        "train": (
            ["train", "--config", "config.json", "--out-dir", "run"],
            {"config.json": json.dumps(TINY_TRAIN_CONFIG)},
        ),
        "grad-check": (["grad-check", "--loss", "all", "--out", "grad.json"], {}),
        "tokens": (
            ["tokens", "--input", "tokens.jsonl", "--out", "density.csv",
             "--json-out", "density.json"],
            {"tokens.jsonl": '{"tokens": [1, 1, 2, 3, 5, 8]}\n'},
        ),
        "parse": (["parse", "--text", "<<6*7=42>> #### 42"], {}),
        "--help": (["--help"], {}),
    }
    WITHOUT_NUMPY = {"eval", "parse", "--help"}

    @staticmethod
    def prepared(directory: Path, inputs: dict) -> Path:
        directory.mkdir()
        for name, source in inputs.items():
            text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
            (directory / name).write_text(text, encoding="utf-8")
        return directory

    @staticmethod
    def files(directory: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()
        }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_a_fresh_run_writes_what_an_in_process_run_writes(
        self, command, tmp_path, monkeypatch, capsys
    ):
        argv, inputs = self.COMMANDS[command]
        fresh = self.prepared(tmp_path / "fresh", inputs)
        done = fresh_python(COMMAND_RUNNER, str(tmp_path / "modules.json"), *argv, cwd=fresh)
        assert done.returncode == EXIT_OK, done.stderr

        here = self.prepared(tmp_path / "here", inputs)
        monkeypatch.chdir(here)
        monkeypatch.setenv("COLUMNS", "80")
        capsys.readouterr()
        assert main(list(argv)) == EXIT_OK
        out, err = capsys.readouterr()

        assert (done.stdout, done.stderr) == (out, err)
        assert self.files(fresh) == self.files(here)
        loaded = set(json.loads((tmp_path / "modules.json").read_text(encoding="utf-8")))
        assert ("numpy" in loaded) is (command not in self.WITHOUT_NUMPY)


class TestStandInsBeforeTheLayerLoads:
    """A name set on cli before its layer loads, as perfbench's tracer sets
    its wrappers, is the one the command calls."""

    SCRIPT = (
        "import json, sys\n"
        "from losslab import cli\n"
        "layers = {layers!r}\n"
        "assert not [m for m in ('numpy', *layers) if m in sys.modules]\n"
        "calls = []\n"
        "def stand_in(*args, **kwargs):\n"
        "    from {module} import {name} as real\n"
        "    calls.append(real)\n"
        "    return real(*args, **kwargs)\n"
        "setattr(cli, {name!r}, stand_in)\n"
        "status = cli.main(sys.argv[1:])\n"
        "json.dump([status, len(calls), cli.{name} is stand_in], sys.stderr)\n"
    )

    @pytest.mark.parametrize(
        "module, name, argv, inputs",
        [
            ("losslab.stats", "token_density",
             ["tokens", "--input", "tokens.jsonl", "--out", "density.csv"],
             {"tokens.jsonl": '{"tokens": [1, 1, 2, 3, 5, 8]}\n'}),
            ("losslab.training", "train",
             ["train", "--config", "config.json", "--out-dir", "run"],
             {"config.json": json.dumps(TINY_TRAIN_CONFIG)}),
        ],
        ids=["token_density", "train"],
    )
    def test_the_command_calls_the_stand_in(self, module, name, argv, inputs, tmp_path):
        for file_name, text in inputs.items():
            (tmp_path / file_name).write_text(text, encoding="utf-8")
        script = self.SCRIPT.format(layers=NUMERIC_LAYERS, module=module, name=name)
        done = fresh_python(script, *argv, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stderr) == [EXIT_OK, 1, True]
