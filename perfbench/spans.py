"""Self times and per-layer metrics from the spans of one traced invocation.

A span is [name, start_s, end_s, parent_index, data] as written by
``traced_cli.py``; parent_index is -1 for a root span. A span's self time is
its duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Callable

import numpy as np

from workloads import LOSS_NAMES

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def self_times(spans: list[list]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it; the median when there are fewer than twenty."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= 10.0 or p == 50.0:
            return p, float(np.percentile(values, p))
    raise AssertionError("unreachable")


class Trace:
    """Lookups over the spans of one traced invocation."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.selfs = self_times(spans)

    def where(self, name: str, parent: str | None = None) -> list[int]:
        return [
            i for i, s in enumerate(self.spans)
            if s[0] == name
            and (parent is None or (s[3] >= 0 and self.spans[s[3]][0] == parent))
        ]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in self.where(name, parent))

    def count(self, name: str) -> int:
        return len(self.where(name))

    def self_total(self, name: str) -> float:
        return sum(self.selfs[i] for i in self.where(name))

    def durations(self, name: str) -> list[float]:
        return [self.spans[i][2] - self.spans[i][1] for i in self.where(name)]

    def data(self, name: str, parent: str | None = None) -> list:
        return [self.spans[i][4] for i in self.where(name, parent)]

    def starts(self, name: str) -> list[float]:
        return [self.spans[i][1] for i in self.where(name)]

    def by_layer(self) -> dict[str, float]:
        """Self time summed per module: the prefix of each span name."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.selfs):
            out[span[0].split(".")[0]] += own
        return dict(out)


def _step_ms(t: Trace) -> list[float]:
    starts = t.starts("training.forward")
    return [1e3 * (b - a) for a, b in zip(starts, starts[1:])]


def _call_us(t: Trace, kind: str) -> float:
    durations = [
        t.spans[i][2] - t.spans[i][1]
        for i in t.where("gradcheck.loss") if t.spans[i][4] == kind
    ]
    return 1e6 * statistics.fmean(durations) if durations else 0.0


def _gradcheck_s(t: Trace, loss: str) -> float:
    return sum(
        t.spans[i][2] - t.spans[i][1]
        for i in t.where("gradcheck.check") if t.spans[i][4]["loss"] == loss
    )


def _density(t: Trace, key: str) -> float:
    return sum(d[key] for d in t.data("stats.density"))


Metric = tuple[str, str, str, tuple[str, ...], Callable[[Trace], float]]
TRAIN, EVAL, GRAD, TOKENS = ("train-lovasz",), ("eval-mixed",), ("gradcheck-all",), ("tokens-8k",)

# (name, unit, better, workloads whose command produces it, value from a trace)
PER_LAYER: list[Metric] = [
    ("training.forward_s", "s", "lower", TRAIN, lambda t: t.total("training.forward")),
    ("training.forward_calls", "count", "lower", TRAIN, lambda t: t.count("training.forward")),
    ("losses.validate_s", "s", "lower", TRAIN, lambda t: t.total("losses.validate")),
    ("losses.combined_s", "s", "lower", TRAIN, lambda t: t.total("losses.combined")),
    ("losses.ce_s", "s", "lower", TRAIN, lambda t: t.total("losses.ce", "losses.combined")),
    ("losses.lovasz_s", "s", "lower", TRAIN,
     lambda t: t.total("losses.lovasz", "losses.combined")),
    ("losses.lovasz_classes", "count", "lower", TRAIN,
     lambda t: sum(t.data("losses.lovasz", "losses.combined"))),
    ("training.step_self_s", "s", "lower", TRAIN, lambda t: t.self_total("training.train")),
    ("training.step_ms_p50", "ms", "lower", TRAIN, lambda t: float(np.median(_step_ms(t)))),
    ("training.step_ms_tail", "ms", "lower", TRAIN, lambda t: tail(_step_ms(t))[1]),
    ("training.val_s", "s", "lower", TRAIN,
     lambda t: t.total("training.val_forward") + t.total("training.val_loss")),
    ("training.corpus_s", "s", "lower", TRAIN, lambda t: t.total("training.corpus")),
    ("training.snapshot_s", "s", "lower", TRAIN, lambda t: t.total("training.snapshot")),
    ("training.decode_s", "s", "lower", TRAIN, lambda t: t.total("training.decode")),
    ("cli.ingest_s", "s", "lower", EVAL + TOKENS, lambda t: t.total("cli.ingest")),
    ("parsing.parse_s", "s", "lower", EVAL, lambda t: t.total("parsing.parse")),
    ("parsing.parse_calls", "count", "lower", EVAL, lambda t: t.count("parsing.parse")),
    ("parsing.parse_ok_ratio", "ratio", "higher", EVAL,
     lambda t: statistics.fmean(t.data("parsing.parse"))),
    ("metrics.canonicalize_s", "s", "lower", EVAL, lambda t: t.total("metrics.canonicalize")),
    ("metrics.canonicalize_calls", "count", "lower", EVAL,
     lambda t: t.count("metrics.canonicalize")),
    ("metrics.overlap_s", "s", "lower", EVAL, lambda t: t.total("metrics.overlap")),
    ("metrics.typology_s", "s", "lower", EVAL, lambda t: t.total("metrics.typology")),
    ("metrics.exact_match_s", "s", "lower", EVAL, lambda t: t.total("metrics.exact_match")),
    ("metrics.aggregate_s", "s", "lower", EVAL, lambda t: t.total("metrics.aggregate")),
    ("cli.score_record_ms_p50", "ms", "lower", EVAL,
     lambda t: 1e3 * float(np.median(t.durations("cli.score_record")))),
    ("cli.score_record_ms_tail", "ms", "lower", EVAL,
     lambda t: 1e3 * tail(t.durations("cli.score_record"))[1]),
    ("cli.emit_s", "s", "lower", EVAL, lambda t: t.total("cli.emit")),
    ("cli.eval_self_s", "s", "lower", EVAL, lambda t: t.self_total("cli.run_eval")),
    *[
        (f"gradcheck.{loss}_s", "s", "lower", GRAD, lambda t, loss=loss: _gradcheck_s(t, loss))
        for loss in LOSS_NAMES
    ],
    ("gradcheck.tie_rows_s", "s", "lower", GRAD, lambda t: t.total("gradcheck.tie_rows")),
    ("gradcheck.fd_self_s", "s", "lower", GRAD, lambda t: t.self_total("gradcheck.fd")),
    ("gradcheck.loss_calls", "count", "lower", GRAD, lambda t: t.count("gradcheck.loss")),
    ("gradcheck.skipped", "count", "lower", GRAD,
     lambda t: sum(d["skipped"] for d in t.data("gradcheck.check"))),
    *[
        (f"losses.{kind}_call_us", "us", "lower", GRAD, lambda t, kind=kind: _call_us(t, kind))
        for kind in LOSS_NAMES
    ],
    ("stats.density_s", "s", "lower", TOKENS, lambda t: t.total("stats.density")),
    ("stats.density_peak_mb", "MiB", "lower", TOKENS, lambda t: _density(t, "peak_growth_mb")),
    ("stats.kernel_bytes_computed", "B", "lower", TOKENS,
     lambda t: float(sum(3 * 8 * d["grid"] ** 2 for d in t.data("stats.density")))),
    ("cli.tokens_self_s", "s", "lower", TOKENS, lambda t: t.self_total("cli.tokens")),
]

# Measured on the workload's own command in every traced run.
TRACE_METRICS = (
    ("trace.overhead_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
)
