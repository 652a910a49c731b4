"""Run one ``losslab`` command with spans around the calls into each module.

Usage: python3 traced_cli.py SPANS_FILE -- <losslab arguments>

Spans wrap the names each caller looks up at call time (for example
``losslab.training.combined_loss``, not only its definition in ``losses``), so
the program itself is unchanged. Each span is [name, start_s, end_s,
parent_index, data]; spans stay in memory and are written once, in
``marshal`` format, after the command returns. Span times leave out the
harness's own hooks (see ``Tracer``); their total during the command is
written as ``hook_s``.
For ``train`` the saved final
model is then decoded greedily over the validation corpus in a span of its
own, outside the CLI span.

The process exits with the command's exit code.
"""

from __future__ import annotations

import marshal
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from losslab import cli, gradcheck, losses, metrics, training


class Tracer:
    """Spans on a clock that stops while a span hook runs.

    The ``before``/``after`` hooks and span-name functions are the harness's
    own work, so their time is kept out of every span, ancestors included,
    and summed in ``hook_s`` instead.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.hook_s = 0.0

    def now(self) -> float:
        return perf_counter() - self.hook_s

    def untimed(self, hook, *args):
        start = perf_counter()
        try:
            return hook(*args)
        finally:
            self.hook_s += perf_counter() - start

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self.now(), 0.0, self.stack[-1] if self.stack else -1, None])
        self.stack.append(index)
        return index

    def close(self, index: int, end: float, data=None) -> None:
        self.spans[index][2] = end
        self.spans[index][4] = data
        self.stack.pop()

    def wrap(self, owner, attr: str, name, before=None, after=None, static=False) -> None:
        """Replace ``owner.attr`` by a spanned call of the original.

        ``name`` is a span name or a function of the call arguments.
        ``before(args, kwargs)`` runs ahead of the span; its result and the
        call's result (None if it raised) go to ``after``, which runs once
        the span has ended and whose return value becomes the span's data.
        """
        fn = getattr(owner, attr)

        def spanned(*args, **kwargs):
            ctx = self.untimed(before, args, kwargs) if before else None
            label = name if isinstance(name, str) else self.untimed(name, args, kwargs)
            index = self.open(label)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self.now()
                data = self.untimed(after, args, kwargs, ctx, result) if after else None
                self.close(index, end, data)

        setattr(owner, attr, staticmethod(spanned) if static else spanned)


def _arg(args, kwargs, position: int, key: str, default=None):
    return args[position] if len(args) > position else kwargs.get(key, default)


def install(tracer: Tracer) -> None:
    wrap = tracer.wrap
    val_state: dict = {"samples": None, "batches": []}

    # cli
    wrap(cli, "main", "cli.main")
    wrap(cli, "ingest_jsonl", "cli.ingest")
    wrap(cli, "run_eval", "cli.run_eval")
    wrap(cli, "score_record", "cli.score_record")
    wrap(cli, "emit_report", "cli.emit")
    wrap(cli, "_cmd_tokens", "cli.tokens")
    wrap(cli, "make_synthetic_corpus", "training.corpus")
    wrap(cli, "save_model", "training.snapshot")

    # parsing and metrics, as the CLI looks them up
    wrap(
        cli, "parse_rationale", "parsing.parse",
        after=lambda a, k, c, r: r is not None and not r.diagnostics,
    )
    wrap(cli, "exact_match", "metrics.exact_match")
    wrap(cli, "step_overlap_metrics", "metrics.overlap")
    wrap(cli, "error_typology", "metrics.typology")
    wrap(cli, "aggregate_report", "metrics.aggregate")
    wrap(metrics.StepSet, "from_steps", "metrics.canonicalize", static=True)

    # stats
    def density_after(args, kwargs, rss_before, result):
        growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
        grid = int(result.ids.size) if result is not None else 0
        return {"peak_growth_mb": growth_kb / 1024.0, "grid": grid}

    wrap(
        cli, "token_density", "stats.density",
        before=lambda a, k: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        after=density_after,
    )

    # training; validation calls are told apart by the corpus they score
    def remember_val(args, kwargs):
        val = _arg(args, kwargs, 2, "val_corpus")
        val_state["samples"] = None if val is None else val.samples

    def forward_name(args, kwargs):
        samples = _arg(args, kwargs, 1, "samples")
        return "training.val_forward" if samples is val_state["samples"] else "training.forward"

    def forward_after(args, kwargs, ctx, result):
        if result is not None and _arg(args, kwargs, 1, "samples") is val_state["samples"]:
            val_state["batches"].append(result[0])

    def loss_name(args, kwargs):
        batch = _arg(args, kwargs, 0, "batch")
        if any(batch is b for b in val_state["batches"]):
            return "training.val_loss"
        return "losses.combined"

    wrap(cli, "train", "training.train", before=remember_val)
    wrap(training, "batch_for_samples", forward_name, after=forward_after)
    wrap(training, "combined_loss", loss_name)
    wrap(training, "LogitBatch", "losses.validate")

    # losses, as combined_loss looks them up
    def lovasz_classes(args, kwargs, ctx, result):
        batch = _arg(args, kwargs, 0, "batch")
        roles = _arg(args, kwargs, 1, "roles", losses.FULL_CONTEXT)
        mask = np.isin(batch.role_mask, [int(r) for r in roles])
        return int(np.unique(batch.targets[mask]).size)

    wrap(losses, "ce_loss", "losses.ce")
    wrap(losses, "lovasz_loss", "losses.lovasz", after=lovasz_classes)

    # gradcheck, as the CLI and the named-loss closures look them up
    wrap(
        cli, "check_named_loss", "gradcheck.check",
        after=lambda a, k, c, r: {
            "loss": _arg(a, k, 0, "name"),
            "skipped": None if r is None else len(r.skipped),
        },
    )
    wrap(gradcheck, "finite_difference_check", "gradcheck.fd")
    wrap(gradcheck, "lovasz_tie_rows", "gradcheck.tie_rows")
    for kind, attr in (
        ("ce", "ce_loss"),
        ("fl", "focal_loss"),
        ("dl", "dice_loss"),
        ("gdl", "generalized_dice_loss"),
        ("sadl", "self_adjusting_dice_loss"),
        ("ll", "lovasz_loss"),
        ("combined", "combined_loss"),
    ):
        wrap(gradcheck, attr, "gradcheck.loss", after=lambda a, k, c, r, kind=kind: kind)


def decode(tracer: Tracer, argv: list[str], make_corpus) -> None:
    """Greedy decoding of the saved final model over the validation corpus."""
    args = cli.build_parser().parse_args(argv)
    config = cli.load_train_config(args.config, args.loss_by_task)
    model = training.load_model(str(Path(args.out_dir) / "model.sltm"))
    val_corpus = make_corpus(
        seed=int(config["seed"]) + 1,
        vocab_size=int(config["vocab_size"]),
        zipf_exponent=float(config["zipf_exponent"]),
        n_samples=int(config["val_samples"]),
        template=training.CorpusTemplate(config["template"]),
        instruction_len=int(config["instruction_len"]),
        seq_len=int(config["seq_len"]),
    )
    index = tracer.open("training.decode")
    training.evaluate_toy(model, val_corpus)
    tracer.close(index, tracer.now())


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    spans_path, argv = sys.argv[1], sys.argv[3:]
    make_corpus = cli.make_synthetic_corpus
    tracer = Tracer()
    install(tracer)
    status = cli.main(argv)
    hook_s = tracer.hook_s  # of the command alone, without the decode below
    decode_s = 0.0
    if status == 0 and argv[0] == "train":
        start = perf_counter()
        decode(tracer, argv, make_corpus)
        decode_s = perf_counter() - start
    with open(spans_path, "wb") as fh:
        marshal.dump(
            {"status": status, "decode_s": decode_s, "hook_s": hook_s, "spans": tracer.spans}, fh
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
