"""Desk-scale synthetic training harness for exercising the loss family.

The model is deliberately tiny: an embedding table, a fixed-width context
window mixed by learned position weights, and an output projection, with an
optional low-rank adapter on the projection. It trains in seconds on
synthetic corpora whose token frequencies follow a Zipf profile, which is
enough to observe the relative behavior of the losses on imbalanced data.

Everything is driven by one PCG64 generator seeded from the config, so two
runs with the same config and corpus produce bit-identical traces.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import DataError, TrainingDiverged
from .losses import (
    LogitBatch,
    LossConfig,
    NonFiniteLogits,
    Role,
    combined_loss,
)

PAD_TOKEN_ID = 0

SNAPSHOT_MAGIC = b"SLTM"
SNAPSHOT_VERSION = 1
# magic, version, vocab, dim, window, rank, adapter scale
SNAPSHOT_HEADER = struct.Struct("<4sIIIIId")


class CorpusTemplate(Enum):
    PLAIN = "plain"
    INSTRUCTION_ANSWER = "instruction_answer"


@dataclass
class Sample:
    tokens: np.ndarray
    roles: np.ndarray


@dataclass
class Corpus:
    vocab_size: int
    samples: list[Sample]

    def token_stream(self) -> np.ndarray:
        """All non-pad tokens of the corpus, concatenated."""
        return np.concatenate([s.tokens for s in self.samples])


def zipf_pmf(vocab_size: int, exponent: float) -> np.ndarray:
    """Probability of each drawable id (1..vocab_size-1); id 1 is rank 1."""
    ranks = np.arange(1, vocab_size, dtype=np.float64)
    # a large negative exponent overflows the weights, which is reported below
    with np.errstate(over="ignore"):
        weights = ranks ** (-exponent)
        total = weights.sum()
    if not np.isfinite(total):
        raise ValueError(
            f"zipf_exponent {exponent!r} overflows the token weights of vocab_size {vocab_size}"
        )
    return weights / total


def make_synthetic_corpus(
    seed: int,
    vocab_size: int,
    zipf_exponent: float,
    n_samples: int,
    template: CorpusTemplate = CorpusTemplate.INSTRUCTION_ANSWER,
    instruction_len: int = 4,
    seq_len: int = 16,
) -> Corpus:
    """Deterministic synthetic corpus. Token id 0 is reserved for padding.

    PLAIN samples are ``seq_len`` independent Zipf draws, all in the answer
    role. INSTRUCTION_ANSWER samples draw ``instruction_len`` instruction
    tokens and append the same number of answer tokens produced by a fixed
    random permutation of the vocabulary, so the answer segment is a
    deterministic, learnable function of the instruction segment.
    """
    if vocab_size < 4:
        raise ValueError(f"vocab_size must be >= 4, got {vocab_size}")
    lengths = {"n_samples": n_samples, "instruction_len": instruction_len, "seq_len": seq_len}
    for name, value in lengths.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    # A generator hands out the same values whether it draws each sample's
    # segment in turn or every sample's at once, so each segment is one draw
    # of index rows (id - 1), and each sample holds a row of the arrays.
    rng = np.random.default_rng(seed)
    pmf = zipf_pmf(vocab_size, zipf_exponent)
    if template is CorpusTemplate.PLAIN:
        tokens = rng.choice(vocab_size - 1, size=(n_samples, seq_len), p=pmf)
        tokens += 1
        roles = np.full_like(tokens, int(Role.ANSWER))
    else:
        mapping = rng.permutation(np.arange(1, vocab_size))
        index = rng.choice(vocab_size - 1, size=(n_samples, instruction_len), p=pmf)
        tokens = np.empty((n_samples, 2 * instruction_len), dtype=np.intp)
        np.add(index, 1, out=tokens[:, :instruction_len])
        np.take(mapping, index, out=tokens[:, instruction_len:])
        del index  # so the indices and the roles are never held at once
        roles = np.full_like(tokens, int(Role.ANSWER))
        roles[:, :instruction_len] = int(Role.INSTRUCTION)
    return Corpus(vocab_size, [Sample(t, r) for t, r in zip(tokens, roles)])


# The weight tensors of a TinyModel by name, in snapshot order. The adapter's
# two come last and exist only when its rank is > 0; training then updates
# them alone, else the three base tensors.
TENSORS = ("embeddings", "position_weights", "projection", "adapter_b", "adapter_a")


def tensor_names(rank: int) -> tuple[str, ...]:
    """The tensors a model of adapter ``rank`` holds, in snapshot order."""
    return TENSORS if rank > 0 else TENSORS[:3]


class Activations(NamedTuple):
    """One forward's context windows (n, window), their gathered embeddings
    (n, window, dim) and the position-weighted mix of those (n, dim)."""

    windows: np.ndarray
    embedded: np.ndarray
    hidden: np.ndarray


@dataclass
class TinyModel:
    """Embedding table + learned-position window mixer + output projection.

    ``adapter_b`` (zero-initialized) and ``adapter_a`` form a low-rank update
    of the projection scaled by adapter_scale / rank, so a fresh adapter
    leaves the logits unchanged. With every weight zero the output
    distribution is exactly uniform.
    """

    embeddings: np.ndarray
    position_weights: np.ndarray
    projection: np.ndarray
    rank: int = 0
    adapter_scale: float = 1.0
    adapter_b: np.ndarray | None = None
    adapter_a: np.ndarray | None = None

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def window(self) -> int:
        return self.position_weights.shape[0]

    @classmethod
    def create(
        cls,
        vocab_size: int,
        dim: int,
        window: int,
        rank: int = 0,
        adapter_scale: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> "TinyModel":
        rng = rng or np.random.default_rng(0)
        emb = rng.normal(0.0, 0.02, size=(vocab_size, dim))
        pos = np.full(window, 1.0 / window, dtype=np.float64)
        proj = rng.normal(0.0, 0.02, size=(dim, vocab_size))
        b = a = None
        if rank > 0:
            b = np.zeros((dim, rank), dtype=np.float64)
            a = rng.normal(0.0, 0.02, size=(rank, vocab_size))
        return cls(emb, pos, proj, rank, adapter_scale, b, a)

    def effective_projection(self) -> np.ndarray:
        if self.rank > 0:
            delta = (self.adapter_scale / self.rank) * (self.adapter_b @ self.adapter_a)
            return self.projection + delta
        return self.projection

    @property
    def tensors(self) -> dict[str, np.ndarray]:
        """The weight tensors by name, in snapshot order (:data:`TENSORS`)."""
        return {name: getattr(self, name) for name in tensor_names(self.rank)}

    @property
    def trainable(self) -> tuple[str, ...]:
        """The names of the tensors that training updates."""
        return TENSORS[3:] if self.rank > 0 else TENSORS[:3]

    def activations(self, windows: np.ndarray) -> Activations:
        """What the forward of integer context windows (n, window) computes
        ahead of the projection, which the backward reuses."""
        windows = np.asarray(windows, dtype=np.intp)
        if windows.ndim != 2 or windows.shape[1] != self.window:
            raise ValueError(f"windows must be 2-d with width {self.window}")
        if windows.min(initial=0) < 0 or windows.max(initial=0) >= self.vocab_size:
            raise DataError("token id outside the model vocabulary")
        embedded = self.embeddings[windows]
        hidden = np.einsum("w,nwd->nd", self.position_weights, embedded)
        return Activations(windows, embedded, hidden)

    def forward_windows(self, windows: np.ndarray) -> np.ndarray:
        """Logits (n, vocab) for integer context windows (n, window)."""
        return self.activations(windows).hidden @ self.effective_projection()

    def copy(self) -> "TinyModel":
        return copy.deepcopy(self)


def save_model(model: TinyModel, path: str) -> None:
    """Flat binary snapshot: magic, version, dims, then row-major float64
    arrays (embeddings, position weights, projection, adapter B, adapter A),
    all little-endian."""
    header = SNAPSHOT_HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        model.vocab_size,
        model.dim,
        model.window,
        model.rank,
        model.adapter_scale,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for arr in model.tensors.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path: str) -> TinyModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < SNAPSHOT_HEADER.size:
        raise DataError("snapshot shorter than its header")
    magic, version, vocab, dim, window, rank, scale = SNAPSHOT_HEADER.unpack_from(raw)
    if magic != SNAPSHOT_MAGIC:
        raise DataError(f"bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise DataError(f"unsupported snapshot version {version}")
    shapes = dict(embeddings=(vocab, dim), position_weights=(window,), projection=(dim, vocab),
                  adapter_b=(dim, rank), adapter_a=(rank, vocab))
    offset = SNAPSHOT_HEADER.size
    arrays = {}
    for name in tensor_names(rank):
        shape = shapes[name]
        end = offset + int(np.prod(shape)) * 8
        if end > len(raw):
            raise DataError("snapshot truncated")
        arrays[name] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(raw):
        raise DataError("snapshot has trailing bytes")
    return TinyModel(**arrays, rank=int(rank), adapter_scale=float(scale))


# AdamW's moment decay rates and denominator epsilon, fixed by the recipe
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Hyperparameters for a toy run.

    Defaults follow the documented recipe (AdamW with decoupled weight decay
    0.01 and the fixed betas and eps above, peak learning rate 1e-4,
    batch size 2) on the toy budget of 200 steps with 50 warmup steps, the
    ``losslab train`` defaults; toy regressions override the budget knobs.
    ``adapter_rank`` > 0 freezes the base weights and trains only the
    low-rank adapter.
    """

    seed: int = 0
    steps: int = 200
    batch_size: int = 2
    max_lr: float = 1e-4
    warmup_steps: int = 50
    embed_dim: int = 32
    window: int = 4
    adapter_rank: int = 0
    adapter_scale: float = 1.0
    weight_decay: float = 0.01
    accum_steps: int = 1
    eval_interval: int = 100
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self) -> None:
        for name in ("seed", "adapter_rank", "steps", "batch_size", "accum_steps",
                     "embed_dim", "window", "eval_interval"):
            least = 0 if name in ("seed", "adapter_rank") else 1
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.warmup_steps < 0 or self.warmup_steps > self.steps:
            raise ValueError("warmup_steps must lie in [0, steps]")
        if self.max_lr <= 0:
            raise ValueError("max_lr must be positive")
        if self.weight_decay < 0:  # decoupled decay below 0 grows every weight
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


def learning_rate(step: int, config: TrainConfig) -> float:
    """Linear warmup to max_lr at ``warmup_steps``, then linear decay to 0
    at ``steps``. Defined on 0 <= step <= steps."""
    if config.warmup_steps > 0 and step < config.warmup_steps:
        return config.max_lr * step / config.warmup_steps
    if config.steps == config.warmup_steps:
        return 0.0 if step >= config.steps else config.max_lr
    return config.max_lr * (config.steps - step) / (config.steps - config.warmup_steps)


@dataclass
class TraceRecord:
    step: int
    lr: float
    loss: float


@dataclass
class TrainingTrace:
    records: list[TraceRecord]
    final_model: TinyModel
    best_model: TinyModel | None
    best_step: int | None
    best_val_loss: float | None
    header: dict

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def to_jsonl(self, path: str) -> None:
        import json

        with open(path, "w") as fh:
            fh.write(json.dumps({"type": "header", **self.header}) + "\n")
            for r in self.records:
                fh.write(
                    json.dumps({"step": r.step, "lr": r.lr, "loss": r.loss}) + "\n"
                )


def batch_for_samples(
    model: TinyModel, samples: Sequence[Sample]
) -> tuple[LogitBatch, Activations]:
    """Forward all positions of the given samples into one flat batch.

    Returns the batch and the activations that produced it, for
    :func:`_backward`. The window of a position holds the ``model.window``
    tokens before it in its sample, PAD where the sample has none.
    """
    targets = np.concatenate([s.tokens for s in samples])
    roles = np.concatenate([s.roles for s in samples])
    width = model.window
    # Every sample gets its own PAD prefix in one padded stream; the window of
    # flat position i then starts i plus the prefixes up to its sample.
    prefixes = width * np.repeat(np.arange(len(samples)), [s.tokens.size for s in samples])
    starts = np.arange(targets.size) + prefixes
    padded = np.full(targets.size + width * len(samples), PAD_TOKEN_ID, dtype=np.intp)
    padded[starts + width] = targets
    acts = model.activations(sliding_window_view(padded, width)[starts])
    logits = acts.hidden @ model.effective_projection()
    return LogitBatch(logits, targets, roles), acts


def _backward(
    model: TinyModel, acts: Activations, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of the scalar loss wrt the trainable tensors, from the
    forward's activations: the two adapter factors when the model has an
    adapter, else the three base tensors."""
    windows, embedded, hidden = acts
    d_weff = hidden.T @ dlogits
    if model.rank > 0:
        factor = model.adapter_scale / model.rank
        return {
            "adapter_b": factor * (d_weff @ model.adapter_a.T),
            "adapter_a": factor * (model.adapter_b.T @ d_weff),
        }
    d_hidden = dlogits @ model.projection.T
    d_position = np.einsum("nd,nwd->w", d_hidden, embedded)
    d_embedded = model.position_weights[None, :, None] * d_hidden[:, None, :]
    # Entry (id, j) of the table is flat bin id * dim + j; bincount adds the
    # rows in the order np.add.at would, so the sums match it bit for bit.
    vocab, dim = model.embeddings.shape
    bins = (windows[:, :, None] * dim + np.arange(dim)).ravel()
    d_emb = np.bincount(bins, weights=d_embedded.ravel(), minlength=vocab * dim)
    d_emb = d_emb.reshape(vocab, dim)
    return {"embeddings": d_emb, "position_weights": d_position, "projection": d_weff}


def trainable_fraction(model: TinyModel, config: TrainConfig) -> float:
    """Trainable parameters over the frozen weight-matrix count.

    With an adapter of rank r this is r(d + V) / (dV + Vd): the adapter
    relative to the embedding and projection matrices it rides on. The w
    position-weight scalars are excluded from the denominator (they are
    frozen alongside the matrices whenever an adapter is present) and appear
    in the trace header as their own count.
    """
    if config.adapter_rank > 0:
        trained = sum(getattr(model, name).size for name in model.trainable)
        return trained / (model.embeddings.size + model.projection.size)
    return 1.0


def _adamw_update(
    param: np.ndarray,
    grad: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    scratch: np.ndarray,
    lr: float,
    t: int,
    config: TrainConfig,
) -> None:
    """AdamW step ``t`` on ``param``, ``m`` and ``v`` in place.

    The operations and their order are those of

        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad * grad
        param -= lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * param)

    with the bias-corrected moments m_hat = m / (1 - beta1**t) and
    v_hat = v / (1 - beta2**t). ``grad`` and ``scratch`` are overwritten.
    """
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, grad, out=scratch)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, grad, out=scratch)
    scratch *= grad
    v += scratch
    update = np.divide(m, 1.0 - ADAM_BETA1**t, out=grad)
    denom = np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    update += np.multiply(config.weight_decay, param, out=scratch)
    update *= lr
    param -= update


def _diverged(step: int, what: str, records: list[TraceRecord]) -> TrainingDiverged:
    last = records[-1].loss if records else None
    return TrainingDiverged(
        f"training diverged at step {step}: {what} stopped being finite (last finite loss {last})"
    )


def train(
    config: TrainConfig,
    corpus: Corpus,
    val_corpus: Corpus | None = None,
) -> TrainingTrace:
    """AdamW training loop over the combined objective.

    Per-step records hold the step index, the scheduled learning rate, and
    the (accumulation-averaged) loss value. When a validation corpus is
    given, it is scored every ``eval_interval`` steps and the best-scoring
    model snapshot is kept. Divergence raises :class:`TrainingDiverged`.
    """
    rng = np.random.default_rng(config.seed)
    model = TinyModel.create(
        corpus.vocab_size,
        config.embed_dim,
        config.window,
        config.adapter_rank,
        config.adapter_scale,
        rng,
    )
    names = model.trainable
    params = {name: getattr(model, name) for name in names}
    # per tensor, AdamW's two moments and the update's scratch buffer
    adam = {name: (np.zeros_like(p), np.zeros_like(p), np.empty_like(p))
            for name, p in params.items()}

    records: list[TraceRecord] = []
    best_model: TinyModel | None = None
    best_step: int | None = None
    best_val: float | None = None

    def forward(samples: Sequence[Sample]) -> tuple[LogitBatch, Activations]:
        try:
            return batch_for_samples(model, samples)
        except NonFiniteLogits as exc:
            raise _diverged(step, "the logits", records) from exc

    # A diverging run overflows before its check below names the step; the
    # NumPy warnings on the way there would only repeat that.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(config.steps):
            lr = learning_rate(step, config)
            grads = None
            loss_sum = 0.0
            for _ in range(config.accum_steps):
                picks = rng.integers(0, len(corpus.samples), size=config.batch_size)
                batch_samples = [corpus.samples[int(i)] for i in picks]
                batch, acts = forward(batch_samples)
                result = combined_loss(batch, config.loss)
                micro = _backward(model, acts, result.gradient)
                if grads is None:
                    grads = micro
                else:  # later micro-batches add into the first one's gradients
                    for name in names:
                        grads[name] += micro[name]
                loss_sum += result.value
            for name in names:
                if config.accum_steps > 1:
                    grads[name] /= config.accum_steps
                _adamw_update(params[name], grads[name], *adam[name], lr, step + 1, config)
            loss = loss_sum / config.accum_steps
            if not (np.isfinite(loss) and all(np.isfinite(w).all() for w in params.values())):
                raise _diverged(step, "the loss or the updated parameters", records)
            records.append(TraceRecord(step, lr, loss))

            if val_corpus is not None and (step + 1) % config.eval_interval == 0:
                val_batch, _ = forward(val_corpus.samples)
                val_loss = combined_loss(val_batch, config.loss).value
                if best_val is None or val_loss < best_val:
                    best_val = val_loss
                    best_step = step
                    best_model = model.copy()

    header = {
        "optimizer": "adamw",
        "beta1": ADAM_BETA1,
        "beta2": ADAM_BETA2,
        "eps": ADAM_EPS,
        "weight_decay": config.weight_decay,
        "max_lr": config.max_lr,
        "warmup_steps": config.warmup_steps,
        "steps": config.steps,
        "batch_size": config.batch_size,
        "accum_steps": config.accum_steps,
        "seed": config.seed,
        "mix": config.loss.mix,
        "gamma": config.loss.gamma,
        "auxiliary_kind": config.loss.auxiliary_kind.value,
        "adapter_rank": config.adapter_rank,
        "trainable_fraction": trainable_fraction(model, config),
        "parameter_count": sum(t.size for t in model.tensors.values()),
        "mixer_parameter_count": int(model.position_weights.size),
    }
    return TrainingTrace(records, model, best_model, best_step, best_val, header)


@dataclass
class ToyEvalReport:
    answer_exact_match: float
    mean_class_iou: float
    minority_recall: float
    per_class: dict[int, tuple[int, int, int]]
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]


def greedy_answer(model: TinyModel, instruction: Sequence[int], length: int) -> list[int]:
    """Autoregressive argmax decoding of ``length`` tokens after the context."""
    context = [PAD_TOKEN_ID] * model.window + [int(t) for t in instruction]
    out: list[int] = []
    for _ in range(length):
        window = np.array([context[-model.window :]], dtype=np.intp)
        logits = model.forward_windows(window)[0]
        nxt = int(np.argmax(logits))
        out.append(nxt)
        context.append(nxt)
    return out


def evaluate_toy(model: TinyModel, corpus: Corpus) -> ToyEvalReport:
    """Greedy decoding of answer segments plus token-level class counts.

    Per-class IoU averages over classes that occur in the gold answers. The
    minority set is the bottom tenth of the drawable vocabulary by corpus
    frequency (ties broken by id), restricted to classes with gold answer
    occurrences; minority_recall averages recall over that set.
    """
    pairs: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for sample in corpus.samples:
        is_answer = sample.roles == int(Role.ANSWER)
        answer = sample.tokens[is_answer]
        pred = greedy_answer(model, sample.tokens[~is_answer], answer.size)
        pairs.append((tuple(int(t) for t in answer), tuple(pred)))

    gold = np.array([t for g, _ in pairs for t in g], dtype=np.intp)
    pred = np.array([t for _, p in pairs for t in p], dtype=np.intp)
    hit = gold == pred
    tp = np.bincount(gold[hit], minlength=corpus.vocab_size)
    fp = np.bincount(pred[~hit], minlength=corpus.vocab_size)
    fn = np.bincount(gold[~hit], minlength=corpus.vocab_size)
    gold_count = tp + fn
    present = np.flatnonzero(gold_count > 0)
    denom = tp + fp + fn
    iou = np.divide(tp, denom, out=np.zeros(corpus.vocab_size), where=denom > 0)
    mean_iou = float(iou[present].mean()) if present.size else 0.0

    freq = np.bincount(corpus.token_stream(), minlength=corpus.vocab_size)
    k = max(1, (corpus.vocab_size - 1) // 10)
    minority = present[np.lexsort((present, freq[present]))][:k]
    minority_recall = float(np.mean(tp[minority] / gold_count[minority])) if minority.size else 0.0

    per_class = {int(c): (int(tp[c]), int(fp[c]), int(fn[c])) for c in np.flatnonzero(denom)}
    return ToyEvalReport(
        answer_exact_match=sum(g == p for g, p in pairs) / len(corpus.samples),
        mean_class_iou=mean_iou,
        minority_recall=minority_recall,
        per_class=per_class,
        pairs=pairs,
    )
