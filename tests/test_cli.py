import gc
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from losslab import cli
from losslab.cli import (
    EXIT_DATA,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    MAX_ARRAY_VALUES,
    TRAIN_CONFIG_KEYS,
    TRAIN_INT_CEILINGS,
    ConfigError,
    DuplicateId,
    IdMismatch,
    MalformedLine,
    MissingField,
    build_manifest,
    ingest_jsonl,
    load_train_config,
    main,
    run_eval,
    run_stats,
)
from losslab.losses import LossConfig
from losslab.metrics import CSV_COLUMNS
from losslab.training import TrainConfig

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
        with pytest.raises(MalformedLine):
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
        with pytest.raises(MalformedLine, match="data.jsonl:4: invalid JSON"):
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
        with pytest.raises(MalformedLine, match=f"data.jsonl:2: invalid JSON \\({named}"):
            ingest_jsonl(path, required=("id",))

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        path.write_bytes(b'{"id": 1, "prediction": "\xff"}\n')
        assert run_main(["eval", "--pred", str(path), "--gold", MICRO3_GOLD]) == EXIT_DATA
        assert f"cannot read {path}" in capsys.readouterr().err

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(MalformedLine):
            ingest_jsonl(path, required=())

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 1, "gold": "x"}\n{"id": 2}\n')
        with pytest.raises(MissingField, match="2"):
            ingest_jsonl(path, required=("id", "gold"))

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 1, "gold": "x"}\n{"id": 1, "gold": "y"}\n')
        with pytest.raises(DuplicateId):
            ingest_jsonl(path, required=("id", "gold"))

    @pytest.mark.parametrize("rid", ["[1]", '{"a": 1}'])
    def test_array_or_object_id_exits_2(self, tmp_path, capsys, rid):
        gold = tmp_path / "gold.jsonl"
        row = '{"id": %s, "gold": "#### 1", "prediction": "#### 1"}\n'
        gold.write_text(row % 0 + row % rid)
        code = run_main(["eval", "--pred", str(gold), "--gold", str(gold)])
        assert code == EXIT_DATA
        assert f"{gold}:2: id {rid} " in capsys.readouterr().err


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

        def watched(text, fmt):
            rationale, extra = parse(text, fmt)
            refs.append(weakref.ref(rationale))
            refs.extend(weakref.ref(step) for step in rationale.steps)
            return rationale, extra

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
        with pytest.raises(IdMismatch):
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

    def test_non_report_json_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"hello": 1}\n')
        code = run_main(["stats", "--test", "mcnemar", str(bogus), str(bogus)])
        assert code == EXIT_DATA
        capsys.readouterr()

    def test_mismatched_ids_exit_2(self, two_reports, tmp_path, capsys):
        a, _ = two_reports
        report = json.loads(Path(a).read_text())
        report["per_sample"] = report["per_sample"][:-1]
        clipped = tmp_path / "clipped.json"
        clipped.write_text(json.dumps(report))
        assert run_main(["stats", "--test", "mcnemar", a, str(clipped)]) == EXIT_DATA
        capsys.readouterr()

    def test_ids_equal_as_text_exit_2(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        gold = tmp_path / "gold.jsonl"
        pred.write_text('{"id": 1, "prediction": "#### 1"}\n{"id": "1", "prediction": "#### 2"}\n')
        gold.write_text('{"id": 1, "gold": "#### 1"}\n{"id": "1", "gold": "#### 1"}\n')
        report = tmp_path / "report.json"
        argv = ["eval", "--pred", str(pred), "--gold", str(gold), "--out", str(report)]
        assert run_main(argv) == EXIT_OK
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
        with pytest.raises(ConfigError, match="val_samples"):
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


class TestRuntimeImports:
    def test_import_loads_only_stdlib_numpy_and_losslab(self, tmp_path):
        # the baseline is taken after startup, so site's .pth hooks stay out of it
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import losslab.cli\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path, env=env,
            capture_output=True, text=True, check=True,
        ).stdout
        loaded = {name.partition(".")[0] for name in out.split()}
        assert {"losslab", "numpy"} <= loaded
        assert loaded - sys.stdlib_module_names - {"numpy", "losslab"} == set()
