"""The content-addressed codebook cache behind ``calibrate_million(cache_dir=...)``.

A cached calibration must be bit-identical to a fresh one; any change to
what determines the codebooks must miss; and no cache fault — a damaged
entry, an unwritable directory — may stop a build.
"""

from __future__ import annotations

import logging
import os
from dataclasses import replace

import numpy as np
import pytest
from support.reference import pooled

from repro.core import MillionConfig, calibrate_million
from repro.core import calibration, codebook_cache
from repro.gateway import bootstrap
from repro.gateway.__main__ import _parser, config_from_args
from repro.gateway.bootstrap import build_engines
from repro.models import build_model
from repro.serving import BatchedMillionEngine


@pytest.fixture(scope="module")
def cheap_config(tiny_config) -> MillionConfig:
    return MillionConfig.for_equivalent_bits(
        tiny_config.head_dim, bits=4, kmeans_iters=1, calibration_samples=256
    )


@pytest.fixture(scope="module")
def cheap_tokens(calibration_tokens) -> np.ndarray:
    return calibration_tokens[:128]


@pytest.fixture()
def trainings(monkeypatch) -> list:
    """Counts calls of ``train_million_quantizers`` (the real one still runs)."""
    calls = []
    real = calibration.train_million_quantizers

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(calibration, "train_million_quantizers", counting)
    return calls


def _entries(directory) -> list[str]:
    return sorted(p.name for p in directory.glob("million-*.npz"))


def _centroids(factory):
    return [
        pq.codebooks.centroids
        for layer in sorted(factory.quantizers)
        for pq in factory.quantizers[layer]
    ]


class TestBitIdentity:
    def test_cached_codebooks_and_tokens_equal_fresh(
        self, tiny_model, calibration_tokens, million_config, million_factory,
        tmp_path, monkeypatch, caplog,
    ):
        """The suite's session factory was calibrated without the cache."""
        with caplog.at_level(logging.INFO, logger="repro.calibration"):
            calibrate_million(
                tiny_model, calibration_tokens, million_config, cache_dir=tmp_path
            )

            def no_training(*args, **kwargs):
                raise AssertionError("a cache hit must not train")

            monkeypatch.setattr(calibration, "train_million_quantizers", no_training)
            monkeypatch.setattr(calibration, "collect_kv_samples", no_training)
            cached = calibrate_million(
                tiny_model, calibration_tokens, million_config, cache_dir=tmp_path
            )
        messages = [r.getMessage() for r in caplog.records]
        assert any(m.startswith("calibrated MILLION codebooks in ") for m in messages)
        assert any(m.startswith("codebook cache hit: loaded ") for m in messages)
        fresh_centroids = _centroids(million_factory)
        cached_centroids = _centroids(cached)
        assert len(cached_centroids) == 2 * tiny_model.config.n_layers
        for fresh, warm in zip(fresh_centroids, cached_centroids):
            assert warm.dtype == fresh.dtype == np.float32
            np.testing.assert_array_equal(warm, fresh)
        prompts = [calibration_tokens[:37], calibration_tokens[50:71]]
        outputs = []
        for factory in (million_factory, cached):
            engine = BatchedMillionEngine(tiny_model, pooled(tiny_model, factory))
            outputs.append([t.tolist() for t in engine.generate_batch(prompts, 12)])
        assert outputs[0] == outputs[1]


class TestKey:
    def test_identical_inputs_hit_without_training(
        self, tiny_model, cheap_tokens, cheap_config, tmp_path, trainings
    ):
        calibrate_million(tiny_model, cheap_tokens, cheap_config, cache_dir=tmp_path)
        calibrate_million(tiny_model, cheap_tokens, cheap_config, cache_dir=tmp_path)
        # A list of streams with the same tokens is the same calibration.
        calibrate_million(tiny_model, [cheap_tokens], cheap_config, cache_dir=str(tmp_path))
        assert len(trainings) == 1
        assert len(_entries(tmp_path)) == 1

    @pytest.mark.parametrize(
        "change", ["weights_seed", "calibration_ids", "million_field", "source_digest"]
    )
    def test_changed_input_misses(
        self, change, tiny_config, tiny_model, cheap_tokens, cheap_config,
        tmp_path, trainings, monkeypatch,
    ):
        calibrate_million(tiny_model, cheap_tokens, cheap_config, cache_dir=tmp_path)
        model, tokens, config = tiny_model, cheap_tokens, cheap_config
        if change == "weights_seed":
            model = build_model(tiny_config, seed=8)
        elif change == "calibration_ids":
            tokens = cheap_tokens.copy()
            tokens[5] = (tokens[5] + 1) % tiny_config.vocab_size
        elif change == "million_field":
            config = replace(cheap_config, seed=cheap_config.seed + 1)
        else:
            monkeypatch.setattr(codebook_cache, "source_digest", lambda: "edited")
        calibrate_million(model, tokens, config, cache_dir=tmp_path)
        assert len(trainings) == 2
        assert len(_entries(tmp_path)) == 2

    def test_source_digest_follows_every_python_file(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "sub" / "b.py").write_text("y = 2\n")
        (tmp_path / "notes.txt").write_text("ignored")
        digests = {codebook_cache.source_digest.__wrapped__(tmp_path)}
        (tmp_path / "notes.txt").write_text("still ignored")
        digests.add(codebook_cache.source_digest.__wrapped__(tmp_path))
        assert len(digests) == 1
        (tmp_path / "sub" / "b.py").write_text("y = 3\n")
        digests.add(codebook_cache.source_digest.__wrapped__(tmp_path))
        (tmp_path / "sub" / "b.py").rename(tmp_path / "b.py")
        digests.add(codebook_cache.source_digest.__wrapped__(tmp_path))
        assert len(digests) == 3


class TestDamagedEntries:
    def _damage(self, path, how):
        if how == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
            return
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        if how == "wrong_key":
            arrays["key"] = np.array("0" * 32)
        elif how == "wrong_shape":
            arrays["keys"] = arrays["keys"][:, :, :-1]
        elif how == "not_finite":
            arrays["values"] = arrays["values"].copy()
            arrays["values"][0, 0, 0, 0] = np.nan
        with open(path, "wb") as out:
            np.savez(out, **arrays)

    @pytest.mark.parametrize("how", ["truncated", "wrong_key", "wrong_shape", "not_finite"])
    def test_damaged_entry_recalibrates_and_is_overwritten(
        self, how, tiny_model, cheap_tokens, cheap_config, tmp_path, trainings, caplog
    ):
        first = calibrate_million(tiny_model, cheap_tokens, cheap_config, cache_dir=tmp_path)
        (name,) = _entries(tmp_path)
        self._damage(tmp_path / name, how)
        with caplog.at_level(logging.WARNING, logger="repro.calibration"):
            again = calibrate_million(
                tiny_model, cheap_tokens, cheap_config, cache_dir=tmp_path
            )
        assert len(trainings) == 2
        assert any("recalibrating" in r.getMessage() for r in caplog.records)
        for fresh, retrained in zip(_centroids(first), _centroids(again)):
            np.testing.assert_array_equal(retrained, fresh)
        # The overwritten entry is whole again: the next build hits.
        calibrate_million(tiny_model, cheap_tokens, cheap_config, cache_dir=tmp_path)
        assert len(trainings) == 2


class TestDirectory:
    def test_unwritable_directory_still_builds(
        self, tiny_model, cheap_tokens, cheap_config, tmp_path, caplog
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        with caplog.at_level(logging.WARNING, logger="repro.calibration"):
            factory = calibrate_million(
                tiny_model, cheap_tokens, cheap_config, cache_dir=blocker / "cache"
            )
        fresh = calibrate_million(tiny_model, cheap_tokens, cheap_config)
        for cached, expected in zip(_centroids(factory), _centroids(fresh)):
            np.testing.assert_array_equal(cached, expected)
        assert any("cannot write" in r.getMessage() for r in caplog.records)

    def test_empty_path_writes_nothing(
        self, tiny_model, cheap_tokens, cheap_config, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "default"))
        monkeypatch.chdir(tmp_path)
        calibrate_million(tiny_model, cheap_tokens, cheap_config, cache_dir="")
        calibrate_million(tiny_model, cheap_tokens, cheap_config)
        assert list(tmp_path.iterdir()) == []

    def test_pruning_keeps_the_newest_entries(self, million_factory, tmp_path):
        quantizers = million_factory.quantizers
        for i in range(codebook_cache.MAX_ENTRIES + 3):
            path = codebook_cache.entry_path(tmp_path, f"{i:032x}")
            assert codebook_cache.write_entry(path, f"{i:032x}", quantizers)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        codebook_cache.prune(tmp_path)
        kept = _entries(tmp_path)
        assert len(kept) == codebook_cache.MAX_ENTRIES
        assert kept[0] == f"million-{3:032x}.npz"
        assert not list(tmp_path.glob(".million-*"))  # no temporary left behind

    def test_default_directory_follows_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
        assert codebook_cache.default_cache_dir() == tmp_path / "explicit"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert codebook_cache.default_cache_dir() == tmp_path / "xdg" / "repro"
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert codebook_cache.default_cache_dir() == tmp_path / "home" / ".cache" / "repro"


class _Stop(Exception):
    pass


class TestGatewayWiring:
    @pytest.mark.parametrize(
        "flags,expected",
        [([], "default"), (["--codebook-cache", ""], ""), (["--codebook-cache", "/x"], "/x")],
    )
    def test_build_engines_passes_the_configured_directory(
        self, flags, expected, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        seen = []

        def capture(model, tokens, million, cache_dir=None):
            seen.append(cache_dir)
            raise _Stop

        monkeypatch.setattr(bootstrap, "calibrate_million", capture)
        config = config_from_args(_parser().parse_args(flags))
        assert config.codebook_cache == (None if expected == "default" else expected)
        with pytest.raises(_Stop):
            build_engines(replace(config, max_seq_len=64, pool_blocks=4))
        assert seen == [tmp_path if expected == "default" else expected]
