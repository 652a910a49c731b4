import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from losslab import DataError, training
from losslab.losses import (
    PROB_FLOOR,
    AuxiliaryKind,
    LogitBatch,
    LossConfig,
    Role,
    combined_loss,
)
from losslab.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PAD_TOKEN_ID,
    TENSORS,
    Corpus,
    CorpusTemplate,
    Sample,
    TinyModel,
    TrainConfig,
    TrainingDiverged,
    batch_for_samples,
    evaluate_toy,
    greedy_answer,
    learning_rate,
    load_model,
    make_synthetic_corpus,
    save_model,
    train,
    trainable_fraction,
    zipf_pmf,
    _adamw_update,
    _backward,
)


def zero_model(vocab_size, dim, window):
    """A model whose every parameter is zero, so every logit is 0."""
    return TinyModel(np.zeros((vocab_size, dim)), np.zeros(window), np.zeros((dim, vocab_size)))


def corpus_oracle(seed, vocab_size, zipf_exponent, n_samples, template, instruction_len, seq_len):
    """make_synthetic_corpus drawing one sample at a time, each into fresh arrays."""
    rng = np.random.default_rng(seed)
    ids = np.arange(1, vocab_size)
    pmf = zipf_pmf(vocab_size, zipf_exponent)
    samples = []
    if template is CorpusTemplate.PLAIN:
        for _ in range(n_samples):
            tokens = rng.choice(ids, size=seq_len, p=pmf)
            roles = np.full(seq_len, int(Role.ANSWER), dtype=np.intp)
            samples.append(Sample(tokens.astype(np.intp), roles))
    else:
        mapping = rng.permutation(ids)
        for _ in range(n_samples):
            instr = rng.choice(ids, size=instruction_len, p=pmf)
            answer = mapping[instr - 1]
            tokens = np.concatenate([instr, answer]).astype(np.intp)
            roles = np.concatenate(
                [
                    np.full(instruction_len, int(Role.INSTRUCTION), dtype=np.intp),
                    np.full(instruction_len, int(Role.ANSWER), dtype=np.intp),
                ]
            )
            samples.append(Sample(tokens, roles))
    return Corpus(vocab_size, samples)


class TestCorpus:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vocab_size=st.integers(4, 1024),
        zipf_exponent=st.floats(-0.5, 2.5),
        n_samples=st.integers(1, 12),
        template=st.sampled_from(list(CorpusTemplate)),
        instruction_len=st.integers(1, 9),
        seq_len=st.integers(1, 17),
    )
    @example(0, 4, 0.0, 1, CorpusTemplate.PLAIN, 1, 1)
    @example(0, 4, 0.0, 1, CorpusTemplate.INSTRUCTION_ANSWER, 1, 1)
    @example(7, 1024, -0.5, 1, CorpusTemplate.INSTRUCTION_ANSWER, 8, 1)
    @example(7, 1024, -0.5, 3, CorpusTemplate.PLAIN, 1, 1)
    @example(2, 5, 0.0, 12, CorpusTemplate.INSTRUCTION_ANSWER, 1, 1)
    def test_matches_per_sample_oracle(
        self, seed, vocab_size, zipf_exponent, n_samples, template, instruction_len, seq_len
    ):
        args = (seed, vocab_size, zipf_exponent, n_samples, template, instruction_len, seq_len)
        corpus = make_synthetic_corpus(*args)
        expected = corpus_oracle(*args)
        assert corpus.vocab_size == vocab_size
        assert len(corpus.samples) == n_samples
        arrays = []
        for got, want in zip(corpus.samples, expected.samples):
            for new, old in ((got.tokens, want.tokens), (got.roles, want.roles)):
                assert_same_bits(new, old)
                assert new.flags.writeable
                arrays.append(new)
        # no two arrays of the corpus share a byte, so writing one sample's
        # tokens or roles changes no other array
        for i, a in enumerate(arrays):
            assert not any(np.may_share_memory(a, b) for b in arrays[i + 1 :])

    def test_deterministic(self):
        a = make_synthetic_corpus(5, 32, 1.0, 20)
        b = make_synthetic_corpus(5, 32, 1.0, 20)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.tokens, sb.tokens)
            assert np.array_equal(sa.roles, sb.roles)

    def test_seed_changes_tokens(self):
        a = make_synthetic_corpus(5, 32, 1.0, 20)
        b = make_synthetic_corpus(6, 32, 1.0, 20)
        assert any(
            not np.array_equal(sa.tokens, sb.tokens)
            for sa, sb in zip(a.samples, b.samples)
        )

    def test_pad_id_never_drawn(self):
        corpus = make_synthetic_corpus(7, 16, 1.2, 50)
        stream = corpus.token_stream()
        assert stream.min() >= 1
        assert stream.max() < 16

    def test_zipf_pmf_shape_and_skew(self):
        pmf = zipf_pmf(64, 1.5)
        assert pmf.size == 63
        assert pmf.sum() == pytest.approx(1.0)
        assert pmf[0] / pmf[-1] == pytest.approx(63.0**1.5)

    def test_zipf_zero_is_uniform(self):
        pmf = zipf_pmf(10, 0.0)
        assert np.allclose(pmf, 1.0 / 9.0)

    def test_empirical_skew(self):
        corpus = make_synthetic_corpus(
            11, 64, 1.5, 6250, template=CorpusTemplate.PLAIN, seq_len=16
        )
        freq = np.bincount(corpus.token_stream(), minlength=64)
        assert freq[1] / max(freq[63], 1) > 100

    def test_plain_template_roles(self):
        corpus = make_synthetic_corpus(
            3, 16, 1.0, 5, template=CorpusTemplate.PLAIN, seq_len=9
        )
        for s in corpus.samples:
            assert s.tokens.size == 9
            assert np.all(s.roles == int(Role.ANSWER))

    def test_instruction_answer_layout(self):
        corpus = make_synthetic_corpus(4, 24, 1.0, 30, instruction_len=5)
        for s in corpus.samples:
            assert s.tokens.size == 10
            assert np.all(s.roles[:5] == int(Role.INSTRUCTION))
            assert np.all(s.roles[5:] == int(Role.ANSWER))

    def test_answer_is_function_of_instruction(self):
        corpus = make_synthetic_corpus(8, 24, 1.0, 200, instruction_len=4)
        mapping = {}
        for s in corpus.samples:
            for instr, ans in zip(s.tokens[:4], s.tokens[4:]):
                key = int(instr)
                if key in mapping:
                    assert mapping[key] == int(ans)
                else:
                    mapping[key] = int(ans)
        # a permutation never maps two ids to the same target
        assert len(set(mapping.values())) == len(mapping)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_corpus(0, 3, 1.0, 5)
        with pytest.raises(ValueError):
            make_synthetic_corpus(0, 16, 1.0, 0)
        with pytest.raises(ValueError, match="instruction_len"):
            make_synthetic_corpus(0, 16, 1.0, 5, instruction_len=0)
        with pytest.raises(ValueError, match="seq_len"):
            make_synthetic_corpus(0, 16, 1.0, 5, CorpusTemplate.PLAIN, seq_len=0)


class TestTinyModel:
    def test_zero_model_uniform_logits(self):
        model = zero_model(8, 4, 3)
        windows = np.array([[1, 2, 3], [4, 5, 6]])
        logits = model.forward_windows(windows)
        assert logits.shape == (2, 8)
        assert np.all(logits == 0.0)

    def test_fresh_adapter_is_identity(self):
        rng = np.random.default_rng(9)
        model = TinyModel.create(16, 6, 3, rank=2, adapter_scale=4.0, rng=rng)
        assert np.all(model.adapter_b == 0.0)
        assert np.array_equal(model.effective_projection(), model.projection)

    def test_adapter_changes_logits_once_b_nonzero(self):
        rng = np.random.default_rng(10)
        model = TinyModel.create(16, 6, 3, rank=2, rng=rng)
        windows = np.array([[1, 2, 3]])
        before = model.forward_windows(windows)
        model.adapter_b += 0.5
        after = model.forward_windows(windows)
        assert not np.allclose(before, after)

    def test_window_width_validated(self):
        model = zero_model(8, 4, 3)
        with pytest.raises(ValueError):
            model.forward_windows(np.array([[1, 2]]))

    def test_out_of_range_token_rejected(self):
        model = zero_model(8, 4, 3)
        with pytest.raises(DataError, match="token id outside the model vocabulary"):
            model.forward_windows(np.array([[1, 2, 8]]))
        with pytest.raises(DataError, match="token id outside the model vocabulary"):
            model.forward_windows(np.array([[-1, 2, 3]]))

    def test_parameter_counts(self):
        rng = np.random.default_rng(11)
        model = TinyModel.create(512, 128, 4, rank=2, rng=rng)
        sizes = {name: t.size for name, t in model.tensors.items()}
        assert sizes == {
            "embeddings": 128 * 512,
            "position_weights": 4,
            "projection": 128 * 512,
            "adapter_b": 2 * 128,
            "adapter_a": 2 * 512,
        }
        assert list(sizes) == list(TENSORS)
        assert model.trainable == ("adapter_b", "adapter_a")
        base = zero_model(8, 4, 3)
        assert list(base.tensors) == list(TENSORS[:3]) == list(base.trainable)

    def test_copy_is_deep(self):
        rng = np.random.default_rng(12)
        model = TinyModel.create(8, 4, 3, rank=1, rng=rng)
        clone = model.copy()
        clone.embeddings += 1.0
        assert not np.array_equal(clone.embeddings, model.embeddings)
        assert np.array_equal(clone.projection, model.projection)


class TestSnapshot:
    def test_round_trip_no_adapter(self, tmp_path):
        rng = np.random.default_rng(13)
        model = TinyModel.create(12, 5, 3, rng=rng)
        path = str(tmp_path / "model.sltm")
        save_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.embeddings, model.embeddings)
        assert np.array_equal(loaded.position_weights, model.position_weights)
        assert np.array_equal(loaded.projection, model.projection)
        assert loaded.rank == 0
        assert loaded.adapter_b is None

    def test_round_trip_with_adapter(self, tmp_path):
        rng = np.random.default_rng(14)
        model = TinyModel.create(12, 5, 3, rank=2, adapter_scale=0.5, rng=rng)
        model.adapter_b += rng.normal(size=model.adapter_b.shape)
        path = str(tmp_path / "model.sltm")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.rank == 2
        assert loaded.adapter_scale == 0.5
        assert np.array_equal(loaded.adapter_b, model.adapter_b)
        assert np.array_equal(loaded.adapter_a, model.adapter_a)

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(15)
        model = TinyModel.create(6, 3, 2, rng=rng)
        p1, p2 = str(tmp_path / "a.sltm"), str(tmp_path / "b.sltm")
        save_model(model, p1)
        save_model(model, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_truncated_rejected(self, tmp_path):
        model = zero_model(6, 3, 2)
        path = str(tmp_path / "model.sltm")
        save_model(model, path)
        Path(path).write_bytes(Path(path).read_bytes()[:-8])
        with pytest.raises(DataError, match="snapshot truncated"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = zero_model(6, 3, 2)
        path = str(tmp_path / "model.sltm")
        save_model(model, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(DataError, match="snapshot has trailing bytes"):
            load_model(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "model.sltm")
        model = zero_model(6, 3, 2)
        save_model(model, path)
        raw = bytearray(Path(path).read_bytes())
        raw[:4] = b"XXXX"
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(DataError, match="bad magic b'XXXX'"):
            load_model(path)

    def test_header_only_rejected(self, tmp_path):
        path = str(tmp_path / "model.sltm")
        Path(path).write_bytes(b"SL")
        with pytest.raises(DataError, match="snapshot shorter than its header"):
            load_model(path)


class TestSchedule:
    CONFIG = TrainConfig(steps=100, warmup_steps=20, max_lr=0.5)

    def test_starts_at_zero(self):
        assert learning_rate(0, self.CONFIG) == 0.0

    def test_peak_at_warmup_end(self):
        assert learning_rate(20, self.CONFIG) == 0.5

    def test_zero_at_final_step(self):
        assert learning_rate(100, self.CONFIG) == 0.0

    def test_linear_phases(self):
        assert learning_rate(10, self.CONFIG) == pytest.approx(0.25)
        assert learning_rate(60, self.CONFIG) == pytest.approx(0.25)

    def test_no_warmup_starts_at_peak(self):
        config = TrainConfig(steps=10, warmup_steps=0, max_lr=0.3)
        assert learning_rate(0, config) == 0.3

    def test_monotone_shape(self):
        lrs = [learning_rate(s, self.CONFIG) for s in range(101)]
        up, down = lrs[:21], lrs[20:]
        assert all(b > a for a, b in zip(up, up[1:]))
        assert all(b < a for a, b in zip(down, down[1:]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=10, warmup_steps=11)
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(max_lr=0.0)


class TestTrainableFraction:
    def test_reference_adapter_arithmetic(self):
        rng = np.random.default_rng(16)
        model = TinyModel.create(512, 128, 4, rank=2, rng=rng)
        config = TrainConfig(adapter_rank=2, embed_dim=128)
        fraction = trainable_fraction(model, config)
        assert fraction == 1280 / 131072
        assert fraction < 0.01

    def test_full_training_is_one(self):
        model = zero_model(16, 8, 4)
        assert trainable_fraction(model, TrainConfig()) == 1.0


def quick_config(**overrides):
    base = dict(
        seed=0,
        steps=60,
        batch_size=2,
        max_lr=0.02,
        warmup_steps=10,
        embed_dim=8,
        window=4,
        eval_interval=20,
    )
    base.update(overrides)
    return TrainConfig(**base)


def quick_corpus(seed=100, n=32):
    return make_synthetic_corpus(seed, 16, 1.0, n, instruction_len=3, seq_len=6)


class TestTrainLoop:
    def test_deterministic_trace(self):
        config = quick_config()
        corpus = quick_corpus()
        a = train(config, corpus)
        b = train(config, corpus)
        assert [r.loss for r in a.records] == [r.loss for r in b.records]
        assert np.array_equal(a.final_model.embeddings, b.final_model.embeddings)
        assert np.array_equal(a.final_model.projection, b.final_model.projection)

    def test_loss_decreases(self):
        config = quick_config(steps=300, warmup_steps=30)
        trace = train(config, quick_corpus(n=64))
        losses = trace.losses()
        assert losses[-50:].mean() < losses[:50].mean()

    def test_trace_records_schedule(self):
        config = quick_config()
        trace = train(config, quick_corpus())
        assert len(trace.records) == 60
        assert [r.step for r in trace.records] == list(range(60))
        for r in trace.records:
            assert r.lr == pytest.approx(learning_rate(r.step, config))

    def test_pure_ce_ignores_auxiliary_kind(self):
        corpus = quick_corpus()
        ce = quick_config(loss=LossConfig(mix=1.0, auxiliary_kind=AuxiliaryKind.NONE))
        ll = quick_config(loss=LossConfig(mix=1.0, auxiliary_kind=AuxiliaryKind.LOVASZ))
        trace_ce = train(ce, corpus)
        trace_ll = train(ll, corpus)
        assert [r.loss for r in trace_ce.records] == [r.loss for r in trace_ll.records]
        assert np.array_equal(
            trace_ce.final_model.embeddings, trace_ll.final_model.embeddings
        )

    def test_adapter_freezes_base_weights(self):
        config = quick_config(adapter_rank=2, adapter_scale=2.0)
        corpus = quick_corpus()
        trace = train(config, corpus)
        init = TinyModel.create(
            corpus.vocab_size,
            config.embed_dim,
            config.window,
            config.adapter_rank,
            config.adapter_scale,
            np.random.default_rng(config.seed),
        )
        final = trace.final_model
        assert np.array_equal(final.embeddings, init.embeddings)
        assert np.array_equal(final.projection, init.projection)
        assert np.array_equal(final.position_weights, init.position_weights)
        assert not np.array_equal(final.adapter_b, init.adapter_b)
        assert trace.header["trainable_fraction"] < 1.0

    def test_best_model_tracking(self):
        config = quick_config()
        trace = train(config, quick_corpus(), val_corpus=quick_corpus(seed=101, n=16))
        assert trace.best_model is not None
        assert trace.best_val_loss is not None
        assert (trace.best_step + 1) % config.eval_interval == 0
        val_batch, _ = batch_for_samples(
            trace.best_model, quick_corpus(seed=101, n=16).samples
        )
        from losslab.losses import combined_loss

        revalued = combined_loss(val_batch, config.loss).value
        assert revalued == pytest.approx(trace.best_val_loss)

    def test_no_val_corpus_keeps_no_best(self):
        trace = train(quick_config(), quick_corpus())
        assert trace.best_model is None
        assert trace.best_step is None

    def test_on_step_sees_every_batch(self, monkeypatch):
        values = []

        def recorded(batch, config):
            result = combined_loss(batch, config)
            values.append(result.value)
            return result

        monkeypatch.setattr(training, "combined_loss", recorded)
        config = quick_config(steps=15, accum_steps=2)
        trace = train(config, quick_corpus())
        assert len(values) == 30
        assert all(np.isfinite(v) for v in values)
        assert [r.loss for r in trace.records] == [
            (a + b) / 2 for a, b in zip(values[::2], values[1::2])
        ]

    def test_non_finite_gradient_raises_diverged_at_its_step(self, monkeypatch):
        losses = []

        def poisoned(batch, config):
            result = combined_loss(batch, config)
            losses.append(result.value)
            if len(losses) == 4:  # step 3, one micro-batch per step
                result.gradient[0, 0] = np.nan
            return result

        monkeypatch.setattr(training, "combined_loss", poisoned)
        with pytest.raises(TrainingDiverged) as info:
            train(quick_config(steps=10), quick_corpus())
        assert "at step 3: the loss or the updated parameters" in str(info.value)
        assert f"last finite loss {losses[2]!r}" in str(info.value)

    def test_header_contents(self):
        config = quick_config(adapter_rank=2)
        corpus = quick_corpus()
        trace = train(config, corpus)
        header = trace.header
        assert header["optimizer"] == "adamw"
        assert header["mix"] == config.loss.mix
        assert header["adapter_rank"] == 2
        model = trace.final_model
        assert header["parameter_count"] == sum(
            getattr(model, name).size
            for name in ("embeddings", "position_weights", "projection", "adapter_b", "adapter_a")
        )
        assert header["mixer_parameter_count"] == config.window
        assert header["trainable_fraction"] == trainable_fraction(model, config)

    def test_to_jsonl_format(self, tmp_path):
        trace = train(quick_config(steps=5, warmup_steps=2), quick_corpus(n=8))
        path = str(tmp_path / "trace.jsonl")
        trace.to_jsonl(path)
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 6
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["optimizer"] == "adamw"
        for i, line in enumerate(lines[1:]):
            rec = json.loads(line)
            assert rec["step"] == i
            assert set(rec) == {"step", "lr", "loss"}

    def test_to_jsonl_bytes_deterministic(self, tmp_path):
        config = quick_config(steps=8, warmup_steps=3)
        corpus = quick_corpus(n=8)
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        train(config, corpus).to_jsonl(p1)
        train(config, corpus).to_jsonl(p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestBatchAssembly:
    def test_shapes_and_roles(self):
        corpus = quick_corpus(n=3)
        model = zero_model(corpus.vocab_size, 4, 2)
        batch, acts = batch_for_samples(model, corpus.samples)
        total = sum(s.tokens.size for s in corpus.samples)
        assert acts.windows.shape == (total, 2)
        assert acts.embedded.shape == (total, 2, 4)
        assert acts.hidden.shape == (total, 4)
        assert batch.logits.shape == (total, corpus.vocab_size)
        assert np.array_equal(
            batch.role_mask, np.concatenate([s.roles for s in corpus.samples])
        )

    def test_targets_are_sample_tokens(self):
        corpus = quick_corpus(n=2)
        model = zero_model(corpus.vocab_size, 4, 2)
        batch, _ = batch_for_samples(model, corpus.samples)
        assert np.array_equal(
            batch.targets, np.concatenate([s.tokens for s in corpus.samples])
        )

    def test_first_window_is_all_pad(self):
        corpus = quick_corpus(n=1)
        model = zero_model(corpus.vocab_size, 4, 3)
        _, acts = batch_for_samples(model, corpus.samples)
        assert acts.windows[0].tolist() == [PAD_TOKEN_ID] * 3


# Out-of-place oracles of the in-place step: windows cut one sample and one
# position at a time, the embedding gradient scattered by np.add.at, and
# AdamW with a fresh array per operation.


def assert_same_bits(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert (new.dtype, new.shape) == (old.dtype, old.shape)
    assert new.tobytes() == old.tobytes()


def windows_oracle(tokens, window):
    padded = np.concatenate([np.full(window, PAD_TOKEN_ID, dtype=np.intp), tokens])
    return np.stack([padded[p : p + window] for p in range(tokens.size)])


def backward_oracle(model, windows, dlogits):
    embedded = model.embeddings[windows]
    hidden = np.einsum("w,nwd->nd", model.position_weights, embedded)
    d_hidden = dlogits @ model.effective_projection().T
    d_weff = hidden.T @ dlogits
    d_embedded = model.position_weights[None, :, None] * d_hidden[:, None, :]
    d_emb = np.zeros_like(model.embeddings)
    np.add.at(d_emb, windows, d_embedded)
    grads = {
        "position_weights": np.einsum("nd,nwd->w", d_hidden, embedded),
        "embeddings": d_emb,
        "projection": d_weff,
    }
    if model.rank > 0:
        factor = model.adapter_scale / model.rank
        grads["adapter_b"] = factor * (d_weff @ model.adapter_a.T)
        grads["adapter_a"] = factor * (model.adapter_b.T @ d_weff)
    return grads


def adamw_oracle(p, g, m, v, lr, t, config):
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    p = p - lr * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + config.weight_decay * p)
    return p, m, v


def train_oracle(config, corpus):
    """Final model and step losses of ``train`` without validation, built
    from the oracles with fresh buffers every step."""
    rng = np.random.default_rng(config.seed)
    model = TinyModel.create(
        corpus.vocab_size, config.embed_dim, config.window,
        config.adapter_rank, config.adapter_scale, rng,
    )
    names = ("adapter_b", "adapter_a") if config.adapter_rank else (
        "embeddings", "position_weights", "projection"
    )
    moments = {
        name: (np.zeros_like(getattr(model, name)), np.zeros_like(getattr(model, name)))
        for name in names
    }
    losses = []
    for step in range(config.steps):
        lr = learning_rate(step, config)
        grad_sum = {name: np.zeros_like(getattr(model, name)) for name in names}
        loss_sum = 0.0
        for _ in range(config.accum_steps):
            picks = rng.integers(0, len(corpus.samples), size=config.batch_size)
            samples = [corpus.samples[int(i)] for i in picks]
            windows = np.concatenate([windows_oracle(s.tokens, model.window) for s in samples])
            batch = LogitBatch(
                model.forward_windows(windows),
                np.concatenate([s.tokens for s in samples]),
                np.concatenate([s.roles for s in samples]),
            )
            result = combined_loss(batch, config.loss)
            grads = backward_oracle(model, windows, result.gradient)
            for name in names:
                grad_sum[name] += grads[name]
            loss_sum += result.value
        for name in names:
            p, m, v = adamw_oracle(
                getattr(model, name), grad_sum[name] / config.accum_steps,
                *moments[name], lr, step + 1, config,
            )
            setattr(model, name, p)
            moments[name] = (m, v)
        losses.append(loss_sum / config.accum_steps)
    return model, losses


@st.composite
def mixed_samples(draw, vocab):
    """Samples of lengths 1 to 9 over few ids, so windows repeat ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    return [
        Sample(rng.integers(1, vocab, n).astype(np.intp), rng.integers(0, 2, n).astype(np.intp))
        for n in lengths
    ]


class TestInPlaceStepOracles:
    @settings(max_examples=100, deadline=None)
    @given(samples=mixed_samples(vocab=5), window=st.integers(1, 6))
    def test_windows_match_per_sample_oracle(self, samples, window):
        model = TinyModel.create(5, 3, window, rng=np.random.default_rng(0))
        batch, acts = batch_for_samples(model, samples)
        expected = np.concatenate([windows_oracle(s.tokens, window) for s in samples])
        assert_same_bits(acts.windows, expected)
        assert_same_bits(acts.embedded, model.embeddings[expected])
        assert_same_bits(acts.hidden, np.einsum("w,nwd->nd", model.position_weights, acts.embedded))
        assert_same_bits(batch.logits, model.forward_windows(expected))

    @settings(max_examples=100, deadline=None)
    @given(
        samples=mixed_samples(vocab=5),
        window=st.integers(1, 6),
        rank=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_backward_matches_add_at_oracle(self, samples, window, rank, seed):
        rng = np.random.default_rng(seed)
        model = TinyModel.create(5, 3, window, rank, rng=rng)
        if rank:
            model.adapter_b = rng.normal(size=model.adapter_b.shape)
        _, acts = batch_for_samples(model, samples)
        dlogits = rng.standard_normal((len(acts.windows), 5))
        grads = _backward(model, acts, dlogits)
        expected = backward_oracle(model, acts.windows, dlogits)
        assert list(grads) == list(model.trainable)
        for name, grad in grads.items():
            assert_same_bits(grad, expected[name])

    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.sampled_from([(4,), (3, 5), (16, 8)]),
        t=st.integers(1, 500),
        lr=st.floats(0.0, 1.0),
        weight_decay=st.sampled_from([0.0, 0.01, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_adamw_update_matches_out_of_place_formula(self, shape, t, lr, weight_decay, seed):
        rng = np.random.default_rng(seed)
        p, g, m = rng.standard_normal((3, *shape))
        v = rng.random(shape)
        config = TrainConfig(weight_decay=weight_decay)
        expected = adamw_oracle(p, g, m, v, lr, t, config)
        p, m, v = p.copy(), m.copy(), v.copy()
        _adamw_update(p, g.copy(), m, v, np.empty_like(p), lr, t, config)
        for got, want in zip((p, m, v), expected):
            assert_same_bits(got, want)

    @settings(max_examples=12, deadline=None)
    @given(
        kind=st.sampled_from(list(AuxiliaryKind)),
        mix=st.sampled_from([0.0, 0.6, 1.0]),
        rank=st.sampled_from([0, 2]),
        accum=st.integers(1, 2),
        template=st.sampled_from(list(CorpusTemplate)),
    )
    def test_train_matches_oracle_loop(self, kind, mix, rank, accum, template):
        config = quick_config(
            steps=6, warmup_steps=2, adapter_rank=rank, accum_steps=accum,
            loss=LossConfig(mix=mix, auxiliary_kind=kind),
        )
        corpus = make_synthetic_corpus(3, 16, 1.0, 12, template, instruction_len=3, seq_len=5)
        trace = train(config, corpus)
        model, losses = train_oracle(config, corpus)
        assert [r.loss for r in trace.records] == losses
        names = ["embeddings", "position_weights", "projection"]
        names += ["adapter_b", "adapter_a"] if rank else []
        for name in names:
            assert_same_bits(getattr(trace.final_model, name), getattr(model, name))


def gradient_check_model(rank):
    """A 12-id model whose weights, the adapter's included, are ten times
    their initial scale, so every loss has a gradient well above rounding."""
    rng = np.random.default_rng(rank)
    model = TinyModel.create(12, 5, 3, rank, 1.0, rng)
    if rank:
        model.adapter_b = rng.normal(0.0, 0.02, size=model.adapter_b.shape)
    for name, tensor in model.tensors.items():
        setattr(model, name, 10.0 * tensor)
    return model


class TestModelGradient:
    """The backward of the model and the combined loss against central
    differences of the loss along random directions in each trainable tensor."""

    CORPUS = make_synthetic_corpus(0, 12, 1.0, 6, CorpusTemplate.INSTRUCTION_ANSWER, 3, 16)
    EPS = 1e-6
    DIRECTIONS = 6

    @pytest.mark.parametrize("rank", [0, 2])
    @pytest.mark.parametrize(
        "kind, mix",
        [(AuxiliaryKind.NONE, 1.0)]
        + [(kind, mix) for kind in AuxiliaryKind if kind is not AuxiliaryKind.NONE
           for mix in (0.6, 0.0)],
    )
    def test_matches_directional_differences(self, rank, kind, mix):
        model = gradient_check_model(rank)
        config = LossConfig(mix=mix, auxiliary_kind=kind)

        def loss_at(model):
            return combined_loss(batch_for_samples(model, self.CORPUS.samples)[0], config)

        batch, acts = batch_for_samples(model, self.CORPUS.samples)
        # the clamp of p_t at PROB_FLOOR would make the loss flat where its
        # gradient is not; these weights keep every row above it
        logits = batch.logits - batch.logits.max(axis=1, keepdims=True)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert probs[np.arange(batch.targets.size), batch.targets].min() > PROB_FLOOR
        grads = _backward(model, acts, combined_loss(batch, config).gradient)
        rng = np.random.default_rng(99)
        for name in model.trainable:
            weights = getattr(model, name)
            for _ in range(self.DIRECTIONS):
                direction = rng.standard_normal(weights.shape)
                direction /= np.linalg.norm(direction)
                shifted = []
                for sign in (1.0, -1.0):
                    probe = model.copy()
                    setattr(probe, name, weights + sign * self.EPS * direction)
                    shifted.append(loss_at(probe).value)
                numeric = (shifted[0] - shifted[1]) / (2.0 * self.EPS)
                analytic = float(np.sum(grads[name] * direction))
                error = abs(numeric - analytic) / max(abs(numeric), abs(analytic))
                assert error <= 1e-5, (name, numeric, analytic)


def lookup_model(corpus, mapping):
    """Model whose argmax after a single instruction token is mapping[token]."""
    vocab = corpus.vocab_size
    window = 4
    emb = np.eye(vocab)
    pos = np.zeros(window)
    pos[-1] = 1.0
    proj = np.zeros((vocab, vocab))
    for src, dst in mapping.items():
        proj[src, dst] = 1.0
    return TinyModel(emb, pos, proj)


def evaluate_toy_oracle(model, corpus):
    """evaluate_toy as a per-token counting loop: the five report fields."""
    tp = np.zeros(corpus.vocab_size, dtype=np.int64)
    fp = np.zeros(corpus.vocab_size, dtype=np.int64)
    fn = np.zeros(corpus.vocab_size, dtype=np.int64)
    pairs = []
    exact = 0
    for sample in corpus.samples:
        is_answer = sample.roles == int(Role.ANSWER)
        gold = sample.tokens[is_answer]
        pred = greedy_answer(model, sample.tokens[~is_answer], gold.size)
        pairs.append((tuple(int(t) for t in gold), tuple(pred)))
        if list(gold) == pred:
            exact += 1
        for g, p in zip(gold, pred):
            if g == p:
                tp[g] += 1
            else:
                fp[p] += 1
                fn[g] += 1

    present = np.flatnonzero(tp + fn > 0)
    denom = tp + fp + fn
    iou = np.zeros(corpus.vocab_size, dtype=np.float64)
    nonzero = denom > 0
    iou[nonzero] = tp[nonzero] / denom[nonzero]
    mean_iou = float(iou[present].mean()) if present.size else 0.0

    freq = np.bincount(corpus.token_stream(), minlength=corpus.vocab_size)
    k = max(1, (corpus.vocab_size - 1) // 10)
    minority = sorted(present.tolist(), key=lambda c: (freq[c], c))[:k]
    if minority:
        minority_recall = float(np.mean([tp[c] / (tp[c] + fn[c]) for c in minority]))
    else:
        minority_recall = 0.0
    per_class = {
        int(c): (int(tp[c]), int(fp[c]), int(fn[c]))
        for c in range(corpus.vocab_size)
        if tp[c] or fp[c] or fn[c]
    }
    return exact / len(corpus.samples), mean_iou, minority_recall, per_class, pairs


class TestEvaluateToy:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        vocab=st.integers(4, 24),
        exponent=st.sampled_from([0.0, 1.0, 2.5]),
        n=st.integers(1, 12),
        template=st.sampled_from(list(CorpusTemplate)),
        rank=st.sampled_from([0, 2]),
        zero_projection=st.booleans(),
    )
    def test_matches_counting_oracle(
        self, seed, vocab, exponent, n, template, rank, zero_projection
    ):
        corpus = make_synthetic_corpus(
            seed, vocab, exponent, n, template, instruction_len=3, seq_len=5
        )
        rng = np.random.default_rng(seed)
        model = TinyModel.create(vocab, 6, 4, rank=rank, rng=rng)
        if rank:
            model.adapter_b = rng.normal(0.0, 0.5, size=model.adapter_b.shape)
        if zero_projection:  # every logit ties, so every argmax is id 0
            model.projection[:] = 0.0
            if rank:
                model.adapter_b[:] = 0.0
        report = evaluate_toy(model, corpus)
        fields = (
            report.answer_exact_match,
            report.mean_class_iou,
            report.minority_recall,
            report.per_class,
            report.pairs,
        )
        assert fields == evaluate_toy_oracle(model, corpus)

    def test_perfect_lookup_model(self):
        corpus = make_synthetic_corpus(21, 8, 1.0, 40, instruction_len=1, seq_len=2)
        rng = np.random.default_rng(21)
        mapping_arr = rng.permutation(np.arange(1, 8))
        mapping = {i + 1: int(mapping_arr[i]) for i in range(7)}
        for s in corpus.samples:
            assert mapping[int(s.tokens[0])] == int(s.tokens[1])
        report = evaluate_toy(lookup_model(corpus, mapping), corpus)
        assert report.answer_exact_match == 1.0
        assert report.mean_class_iou == 1.0
        assert report.minority_recall == 1.0

    def test_recount_from_pairs(self):
        corpus = quick_corpus(n=24)
        rng = np.random.default_rng(22)
        model = TinyModel.create(corpus.vocab_size, 6, 4, rng=rng)
        report = evaluate_toy(model, corpus)

        em = sum(1 for g, p in report.pairs if g == p) / len(report.pairs)
        assert report.answer_exact_match == pytest.approx(em)

        tp = np.zeros(corpus.vocab_size)
        fp = np.zeros(corpus.vocab_size)
        fn = np.zeros(corpus.vocab_size)
        for gold, pred in report.pairs:
            for g, p in zip(gold, pred):
                if g == p:
                    tp[g] += 1
                else:
                    fp[p] += 1
                    fn[g] += 1
        present = np.flatnonzero(tp + fn > 0)
        ious = [tp[c] / (tp[c] + fp[c] + fn[c]) for c in present]
        assert report.mean_class_iou == pytest.approx(float(np.mean(ious)))

        freq = np.bincount(corpus.token_stream(), minlength=corpus.vocab_size)
        k = max(1, (corpus.vocab_size - 1) // 10)
        minority = sorted(present.tolist(), key=lambda c: (freq[c], c))[:k]
        recall = float(np.mean([tp[c] / (tp[c] + fn[c]) for c in minority]))
        assert report.minority_recall == pytest.approx(recall)

    def test_per_class_counts_match_pairs(self):
        corpus = quick_corpus(n=10)
        model = zero_model(corpus.vocab_size, 4, 4)
        report = evaluate_toy(model, corpus)
        total_fn = sum(c[2] for c in report.per_class.values())
        total_gold = sum(len(g) for g, _ in report.pairs)
        total_tp = sum(c[0] for c in report.per_class.values())
        assert total_tp + total_fn == total_gold
