"""Tests for the trainable model, optimizers, trainer and checkpoints."""

import numpy as np
import pytest

from repro.models.config import ModelConfig
from repro.models.kv_cache import FullPrecisionCacheFactory
from repro.training import (
    Adam,
    TrainableTransformerLM,
    clip_grad_norm,
    cosine_lr,
    load_model_checkpoint,
    load_state_dict,
    sample_batch,
    save_model,
    state_dict,
    train_language_model,
    train_tiny_lm,
)
from repro.training.autograd import Tensor


@pytest.fixture(scope="module")
def train_config():
    return ModelConfig(
        name="train-unit",
        vocab_size=64,
        d_model=32,
        n_layers=1,
        n_heads=2,
        max_seq_len=256,
        positional="rope",
    )


class TestTrainableModel:
    def test_forward_shape(self, train_config):
        model = TrainableTransformerLM(train_config, seed=0)
        logits = model.forward(np.zeros((2, 10), dtype=np.int64))
        assert logits.shape == (2, 10, 64)

    def test_loss_backward_populates_all_grads(self, train_config):
        model = TrainableTransformerLM(train_config, seed=0)
        inputs = np.random.default_rng(0).integers(0, 64, size=(2, 12))
        loss = model.loss(inputs[:, :-1], inputs[:, 1:])
        loss.backward()
        for name, param in model.parameters().items():
            assert param.grad is not None, f"missing gradient for {name}"
            assert np.isfinite(param.grad).all(), f"non-finite gradient for {name}"

    def test_gqa_rejected(self):
        config = ModelConfig(vocab_size=64, d_model=32, n_layers=1, n_heads=4, n_kv_heads=2)
        with pytest.raises(Exception):
            TrainableTransformerLM(config)

    @pytest.mark.parametrize("positional,norm,activation", [
        ("absolute", "layernorm", "gelu"),
        ("alibi", "layernorm", "gelu"),
        ("rope", "rmsnorm", "silu"),
    ])
    def test_architecture_variants_trainable(self, positional, norm, activation):
        config = ModelConfig(
            vocab_size=64, d_model=32, n_layers=1, n_heads=2, max_seq_len=128,
            positional=positional, norm=norm, activation=activation,
        )
        model = TrainableTransformerLM(config, seed=1)
        loss = model.loss(np.zeros((1, 8), dtype=np.int64), np.zeros((1, 8), dtype=np.int64))
        loss.backward()
        assert np.isfinite(loss.item())

    def test_export_matches_trainable_forward(self, train_config):
        """The exported inference model must produce the same logits."""
        model = TrainableTransformerLM(train_config, seed=3)
        tokens = np.random.default_rng(1).integers(0, 64, size=16)
        trainable_logits = model.forward(tokens[None, :]).data[0]
        inference = model.to_inference_model()
        inference.reset_cache(FullPrecisionCacheFactory())
        inference_logits = inference.prefill(tokens)
        np.testing.assert_allclose(trainable_logits, inference_logits, atol=2e-3)

    def test_export_matches_for_alibi_model(self):
        config = ModelConfig(
            vocab_size=64, d_model=32, n_layers=2, n_heads=2, max_seq_len=128,
            positional="alibi", norm="layernorm", activation="gelu",
        )
        model = TrainableTransformerLM(config, seed=4)
        tokens = np.random.default_rng(2).integers(0, 64, size=12)
        np.testing.assert_allclose(
            model.forward(tokens[None, :]).data[0],
            model.to_inference_model().prefill(tokens),
            atol=2e-3,
        )


class TestOptimizers:
    def _quadratic_params(self):
        return {"x": Tensor(np.asarray([5.0, -3.0], dtype=np.float32), requires_grad=True)}

    def _set_grad_to_gradient_of_half_square(self, params):
        params["x"].grad = params["x"].data.copy()

    def test_adam_converges_on_quadratic(self):
        params = self._quadratic_params()
        optimizer = Adam(params, lr=0.3)
        for _ in range(100):
            optimizer.zero_grad()
            self._set_grad_to_gradient_of_half_square(params)
            optimizer.step()
        assert np.abs(params["x"].data).max() < 0.1

    def test_clip_grad_norm(self):
        params = {"x": Tensor(np.zeros(3), requires_grad=True)}
        params["x"].grad = np.asarray([3.0, 4.0, 0.0], dtype=np.float32)
        norm = clip_grad_norm(params, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(params["x"].grad) == pytest.approx(1.0)

    def test_cosine_lr_schedule(self):
        assert cosine_lr(0, 100, 1.0, warmup_steps=10) == pytest.approx(0.1)
        assert cosine_lr(10, 100, 1.0, warmup_steps=10) == pytest.approx(1.0, rel=1e-2)
        assert cosine_lr(99, 100, 1.0, warmup_steps=10) < 0.2

    def test_adam_skips_missing_grads(self):
        params = {"x": Tensor(np.ones(2), requires_grad=True)}
        before = params["x"].data.copy()
        Adam(params).step()
        np.testing.assert_array_equal(params["x"].data, before)


class TestBatchSampling:
    def test_shapes_and_shift(self):
        stream = np.arange(1000) % 64
        inputs, targets = sample_batch(stream, 4, 16, np.random.default_rng(0), induction_fraction=0.0)
        assert inputs.shape == targets.shape == (4, 16)
        np.testing.assert_array_equal(inputs[:, 1:], targets[:, :-1])

    def test_induction_windows_repeat(self):
        stream = np.random.default_rng(1).integers(0, 64, size=2000)
        inputs, _ = sample_batch(stream, 8, 32, np.random.default_rng(2), induction_fraction=1.0)
        half = 16
        np.testing.assert_array_equal(inputs[:, half : 2 * half], inputs[:, :half])

    def test_stream_too_short(self):
        with pytest.raises(Exception):
            sample_batch(np.arange(10), 1, 16, np.random.default_rng(0))


class TestTaskEpisodes:
    def test_episode_layout(self):
        from repro.data.longcontext import SPECIAL_TOKENS
        from repro.training.trainer import sample_task_episode

        stream = np.random.default_rng(0).integers(16, 64, size=4096)
        window = sample_task_episode(stream, 96, np.random.default_rng(1), vocab_size=64)
        assert window.shape == (97,)
        assert window[-7] == SPECIAL_TOKENS.question or SPECIAL_TOKENS.question in window
        # The answer (last 3 tokens) equals the value stored after the value marker.
        value_marker_positions = np.flatnonzero(window == SPECIAL_TOKENS.value_marker)
        first_value = window[value_marker_positions[0] + 1 : value_marker_positions[0] + 4]
        np.testing.assert_array_equal(window[-3:], first_value)
        # The question repeats the key.
        key_marker = np.flatnonzero(window == SPECIAL_TOKENS.key_marker)[0]
        key = window[key_marker + 1 : key_marker + 4]
        question_marker = np.flatnonzero(window == SPECIAL_TOKENS.question)[-1]
        np.testing.assert_array_equal(window[question_marker + 1 : question_marker + 4], key)

    def test_training_with_episodes_and_corpus_mixture(self, train_config):
        _, history = train_language_model(
            train_config,
            corpus_name=("wikitext2-syn", "ptb-syn"),
            steps=10,
            batch_size=4,
            seq_len=64,
            task_episode_fraction=0.5,
            seed=3,
            train_tokens=16384,
            log_every=0,
        )
        assert len(history.losses) == 10
        assert np.isfinite(history.final_loss)


class TestTrainingLoop:
    def test_loss_decreases(self, train_config):
        _, history = train_language_model(
            train_config, steps=30, batch_size=4, seq_len=48, learning_rate=5e-3, seed=0,
            train_tokens=8192, log_every=0,
        )
        assert len(history.losses) == 30
        assert history.improved()
        assert np.isfinite(history.final_validation_ppl)

    def test_train_tiny_lm_exports_working_model(self, train_config):
        model, history = train_tiny_lm(
            train_config, steps=15, batch_size=4, seq_len=48, seed=1, train_tokens=8192,
            log_every=0,
        )
        logits = model.prefill(np.arange(10) % 64)
        assert np.isfinite(logits).all()
        assert history.final_loss < history.losses[0] + 1.0


class TestCheckpoints:
    def test_state_dict_roundtrip(self, train_config, tmp_path):
        model, _ = train_tiny_lm(
            train_config, steps=3, batch_size=2, seq_len=32, seed=2, train_tokens=4096,
            log_every=0,
        )
        tokens = np.arange(12) % 64
        reference = model.prefill(tokens)
        path = save_model(model, tmp_path / "checkpoint")
        restored = load_model_checkpoint(path)
        np.testing.assert_allclose(restored.prefill(tokens), reference, atol=1e-5)

    def test_load_state_dict_shape_mismatch(self, train_config):
        from repro.models.weights import build_model

        model = build_model(train_config, seed=0)
        state = state_dict(model)
        bad = dict(state)
        bad["token_embedding"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(Exception):
            load_state_dict(model, bad)

    def test_missing_keys_rejected(self, train_config):
        from repro.models.weights import build_model

        model = build_model(train_config, seed=0)
        with pytest.raises(Exception):
            load_state_dict(model, {"token_embedding": model.token_embedding.weight})
