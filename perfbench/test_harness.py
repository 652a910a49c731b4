"""Self-tests of the benchmark harness: seeded generators, span arithmetic,
and output checks that must reject corrupted outputs.

Run with: PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import marshal
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import workloads as W  # noqa: E402
from spans import PER_LAYER, TRACE_METRICS, Trace, self_times, tail  # noqa: E402

REFERENCE = W.load_reference()


def _input_bytes(job: W.Job) -> dict[str, bytes]:
    files = {p.name: p.read_bytes() for p in sorted(job.cwd.iterdir()) if p.is_file()}
    return {"argv": " ".join(job.argv).encode(), **files}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_seeded(tmp_path, name):
    prepare = W.WORKLOADS[name].prepare
    first = _input_bytes(prepare(5, tmp_path / "a", True))
    again = _input_bytes(prepare(5, tmp_path / "b", True))
    other = _input_bytes(prepare(6, tmp_path / "c", True))
    assert first == again
    assert first != other


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in W.WORKLOADS.values()
    ]
    e2e = [m["name"] for m in spec["end_to_end"]]
    assert e2e == ["setup_s", "wall_s", "peak_rss_mb", *(w.metric for w in W.WORKLOADS.values())]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert layers == [(m[0], m[1]) for m in PER_LAYER] + [(m[0], m[1]) for m in TRACE_METRICS]


def test_eval_generator_holds_the_stated_shares():
    golds, preds = W.eval_records(0, 400)
    assert sum(g["format"] == "mathqa" for g in golds) == 100
    assert sum("####" not in p["prediction"] for p in preds) == 12  # 3% of 400


def test_self_times_on_a_hand_built_tree():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["losses.combined", 1.0, 4.0, 0, None],
        ["losses.ce", 2.0, 3.0, 1, None],
        ["training.forward", 5.0, 9.0, 0, None],
        ["training.decode", 11.0, 12.5, -1, None],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    t = Trace(spans[:4])
    assert t.by_layer() == {"cli": 3.0, "losses": 3.0, "training": 4.0}
    assert sum(t.by_layer().values()) == t.total("cli.main")
    assert t.total("losses.ce", parent="losses.combined") == 1.0
    assert t.self_total("losses.combined") == 2.0


def test_tail_keeps_ten_samples_beyond_it():
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(100)))[0] == 90.0
    assert tail(list(range(15)))[0] == 50.0


def test_eval_check_rejects_a_changed_aggregate(tmp_path):
    expected = REFERENCE["eval"]["2000"]
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"aggregate": expected}))
    assert W.check_eval(path, expected) is None
    path.write_text(json.dumps({"aggregate": {**expected, "iou": expected["iou"] + 1e-15}}))
    assert "iou" in W.check_eval(path, expected)
    path.write_text(json.dumps({"aggregate": {**expected, "n_samples": 1999}}))
    assert "n_samples" in W.check_eval(path, expected)


def test_reference_density_matches_token_density():
    from losslab.stats import token_density

    ids = W.token_stream(3, 300, 5000)
    got = token_density(ids.tolist()).density
    assert np.max(np.abs(got - W.reference_density(ids))) <= W.DENSITY_ATOL


def test_tokens_check_rejects_a_value_off_by_1e9(tmp_path):
    ids = W.token_stream(4, 200, 3000)
    expected = W.reference_density(ids)
    path = tmp_path / "density.csv"

    def write(values):
        rows = "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(values))
        path.write_text("id,density\n" + rows)

    write(expected)
    assert W.check_tokens(path, expected) is None
    corrupted = expected.copy()
    corrupted[17] += 1e-9
    write(corrupted)
    assert "differs" in W.check_tokens(path, expected)
    write(expected[:-1])
    assert "grid" in W.check_tokens(path, expected)


def test_gradcheck_check_rejects_wrong_counts_and_failures(tmp_path):
    recorded = REFERENCE["gradcheck"]["4x64"]["0"]
    path = tmp_path / "gradcheck.json"

    def write(**changes):
        results = {
            n: {"passed": True, "max_rel_error": 0.0, "n_checked": c, "n_skipped": s}
            for n, (c, s) in recorded.items()
        }
        for name, change in changes.items():
            results[name].update(change)
        path.write_text(json.dumps({"results": results}))

    write()
    assert W.check_gradcheck(path, 4, recorded) is None
    assert W.check_gradcheck(path, 4, None) is None
    write(ll={"passed": False})
    assert "ll" in W.check_gradcheck(path, 4, recorded)
    write(ce={"n_checked": 192, "n_skipped": 64})
    assert "ce" in W.check_gradcheck(path, 4, recorded)
    assert "ce" in W.check_gradcheck(path, 4, None)


def test_train_check_rejects_a_changed_final_loss(tmp_path):
    from losslab.training import TinyModel, save_model

    config = W.train_config(0, probe=True)
    reference = REFERENCE["train"]["probe"]
    final = reference["final_loss"]["0"]
    save_model(TinyModel.create(config["vocab_size"], 4, 2), str(tmp_path / "model.sltm"))

    def write(losses):
        lines = [json.dumps({"type": "header"})]
        lines += [json.dumps({"step": s, "lr": 0.0, "loss": v}) for s, v in enumerate(losses)]
        (tmp_path / "trace.jsonl").write_text("\n".join(lines) + "\n")

    steps = config["steps"]
    write([final + 1.0] * (steps - 1) + [final])
    assert W.check_train(tmp_path, config, reference) is None
    write([final + 1.0] * (steps - 1) + [final + 1e-3])
    assert "recorded" in W.check_train(tmp_path, config, reference)
    write([final + 1.0] * (steps - 1) + [float("nan")])
    assert "non-finite" in W.check_train(tmp_path, config, reference)
    write([final + 1.0] * steps)
    assert "not below" in W.check_train(tmp_path, config, reference)
    write([final + 1.0] * (steps - 1) + [final])
    (tmp_path / "model.sltm").write_bytes(b"SLTM")
    assert "does not load" in W.check_train(tmp_path, config, reference)


def test_traced_cli_records_nested_spans(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans_path = tmp_path / "spans.marshal"
    argv = ["grad-check", "--loss", "ce", "--positions", "2", "--vocab", "4"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--", *argv],
        env=env, cwd=tmp_path, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    t = Trace(marshal.loads(spans_path.read_bytes())["spans"])
    assert t.count("cli.main") == 1
    assert t.count("gradcheck.loss") == 2 * 2 * 4 + 1
    assert t.where("gradcheck.fd", parent="gradcheck.check")
    assert abs(sum(t.by_layer().values()) - t.total("cli.main")) < 1e-9


def test_hook_time_stays_out_of_every_span():
    from traced_cli import Tracer

    tracer = Tracer()
    ns = SimpleNamespace(inner=lambda: None)
    ns.outer = lambda: ns.inner()
    tracer.wrap(
        ns, "inner", "inner",
        before=lambda a, k: time.sleep(0.05),
        after=lambda a, k, c, r: time.sleep(0.05) or "data",
    )
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    t = Trace(tracer.spans)
    assert t.where("inner", parent="outer")
    assert t.data("inner") == ["data"]
    assert tracer.hook_s >= 0.1
    assert t.total("inner") < 0.02
    assert t.total("outer") < 0.02
