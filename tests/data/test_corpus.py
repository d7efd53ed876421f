"""Tests for the synthetic Markov corpora."""

import numpy as np
import pytest

from repro.data.corpus import (
    CORPUS_REGISTRY,
    CorpusConfig,
    MarkovCorpus,
    get_corpus,
    load_corpus,
)


class TestCorpusConfig:
    def test_registry_names(self):
        assert set(CORPUS_REGISTRY) == {"wikitext2-syn", "ptb-syn"}

    def test_invalid_branching(self):
        with pytest.raises(Exception):
            CorpusConfig(name="bad", vocab_size=16, branching_factor=32)

    def test_invalid_alpha(self):
        with pytest.raises(Exception):
            CorpusConfig(name="bad", zipf_alpha=0.0)


class TestMarkovCorpus:
    def test_sample_shape_and_range(self):
        corpus = get_corpus("wikitext2-syn")
        tokens = corpus.sample(500, seed=0)
        assert tokens.shape == (500,)
        assert tokens.min() >= 0 and tokens.max() < corpus.vocab_size

    def test_deterministic(self):
        corpus = get_corpus("ptb-syn")
        np.testing.assert_array_equal(corpus.sample(100, seed=3), corpus.sample(100, seed=3))
        assert not np.array_equal(corpus.sample(100, seed=3), corpus.sample(100, seed=4))

    def test_transitions_are_sparse_without_repetition(self):
        """Every sampled transition must be one of the allowed successors."""
        config = CorpusConfig(name="pure-markov", vocab_size=128, branching_factor=16, seed=7)
        corpus = MarkovCorpus(config)
        tokens = corpus.sample(300, seed=1)
        for prev, nxt in zip(tokens[:-1], tokens[1:]):
            assert np.isfinite(corpus.transition_log_prob(int(prev), int(nxt)))

    def test_repeated_spans_present(self):
        """The registry corpora contain long-range copies of earlier spans."""
        corpus = get_corpus("wikitext2-syn")
        tokens = corpus.sample(600, seed=3)
        span = corpus.config.repetition_span
        found_copy = False
        for start in range(corpus.config.repetition_period, 600 - span):
            window = tokens[start : start + span]
            history = tokens[:start]
            for src in range(0, start - span):
                if np.array_equal(history[src : src + span], window):
                    found_copy = True
                    break
            if found_copy:
                break
        assert found_copy

    def test_entropy_rate_below_uniform(self):
        corpus = get_corpus("wikitext2-syn")
        assert corpus.entropy_rate() < np.log(corpus.vocab_size)

    def test_sequence_log_prob_finite_for_samples(self):
        config = CorpusConfig(name="pure-markov-2", vocab_size=128, branching_factor=16, seed=9)
        corpus = MarkovCorpus(config)
        tokens = corpus.sample(50, seed=2)
        assert np.isfinite(corpus.sequence_log_prob(tokens))

    def test_corpora_differ(self):
        a = load_corpus("wikitext2-syn", "test", 200)
        b = load_corpus("ptb-syn", "test", 200)
        assert not np.array_equal(a, b)


class TestLoadCorpus:
    def test_splits_are_disjoint_streams(self):
        train = load_corpus("wikitext2-syn", "train", 200)
        test = load_corpus("wikitext2-syn", "test", 200)
        assert not np.array_equal(train, test)

    def test_reproducible(self):
        np.testing.assert_array_equal(
            load_corpus("wikitext2-syn", "validation", 128),
            load_corpus("wikitext2-syn", "validation", 128),
        )

    def test_unknown_split(self):
        with pytest.raises(Exception):
            load_corpus("wikitext2-syn", "dev", 10)

    def test_unknown_name(self):
        with pytest.raises(Exception):
            load_corpus("wikitext-103", "test", 10)
