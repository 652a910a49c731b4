"""Record the output references the benchmark checks against.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs the CLI on the generated inputs and writes ``reference.json``:

* eval: the aggregate of each eval size; the generator makes every
  per-record metric depend on the record index alone, so the aggregate is
  the same for every seed, which this script asserts on three seeds;
* train: the final trace loss for each of REFERENCE_SEEDS (0..63) at each
  size, and the band those values span;
* gradcheck: checked/skipped counts per loss for each of REFERENCE_SEEDS at
  each size; every loss must pass.

The committed file was recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import child_env, run_child
from workloads import (
    EVAL_RECORDS,
    GRADCHECK_POSITIONS,
    GRADCHECK_VOCAB,
    LOSS_NAMES,
    REFERENCE_PATH,
    REFERENCE_SEEDS,
    eval_records,
    read_trace_losses,
    train_config,
    write_jsonl,
)


def cli(args: list[str], cwd: Path) -> None:
    code, _, _, message = run_child([sys.executable, "-m", "losslab", *args], cwd, child_env())
    if code != 0:
        raise SystemExit(f"losslab {' '.join(args)} exited {code}: {message}")


def main() -> int:
    reference: dict = {"eval": {}, "train": {}, "gradcheck": {}}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        d = Path(tmp)
        for n in EVAL_RECORDS.values():
            aggregates = []
            for seed in (0, 1, 2):
                golds, preds = eval_records(seed, n)
                write_jsonl(d / "gold.jsonl", golds)
                write_jsonl(d / "pred.jsonl", preds)
                cli(["eval", "--pred", "pred.jsonl", "--gold", "gold.jsonl", "--out", "r.json"], d)
                aggregates.append(json.loads((d / "r.json").read_text())["aggregate"])
            if any(a != aggregates[0] for a in aggregates):
                raise SystemExit(f"eval aggregate at {n} records depends on the seed: {aggregates}")
            reference["eval"][str(n)] = aggregates[0]
            print("eval", n, aggregates[0], flush=True)
        for probe, size in ((False, "main"), (True, "probe")):
            finals = {}
            for seed in REFERENCE_SEEDS:
                (d / "config.json").write_text(json.dumps(train_config(seed, probe)))
                cli(["train", "--config", "config.json", "--out-dir", "run"], d)
                finals[str(seed)] = read_trace_losses(d / "run" / "trace.jsonl")[-1]
            values = list(finals.values())
            reference["train"][size] = {"band": [min(values), max(values)], "final_loss": finals}
            print("train", size, reference["train"][size]["band"], flush=True)
        for positions in GRADCHECK_POSITIONS.values():
            table = {}
            for seed in REFERENCE_SEEDS:
                cli([
                    "grad-check", "--loss", "all", "--positions", str(positions),
                    "--vocab", str(GRADCHECK_VOCAB), "--seed", str(seed), "--out", "g.json",
                ], d)
                results = json.loads((d / "g.json").read_text())["results"]
                table[str(seed)] = {
                    n: [results[n]["n_checked"], results[n]["n_skipped"]] for n in LOSS_NAMES
                }
            reference["gradcheck"][f"{positions}x{GRADCHECK_VOCAB}"] = table
            print("gradcheck", positions, flush=True)
    text = json.dumps(reference, indent=1, sort_keys=True)
    REFERENCE_PATH.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
