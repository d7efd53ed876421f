"""Synthetic language-modelling corpora.

The paper evaluates perplexity on Wikitext-2 and PTB.  Offline we substitute
two corpora drawn from first-order Markov chains over a Zipfian vocabulary
("wikitext2-syn" and "ptb-syn", distinguished by vocabulary statistics and
seed).  A Markov corpus has genuine sequential structure, so the tiny trained
models in :mod:`repro.training` achieve perplexities far below the uniform
bound and KV-cache quantization error shows up as a measurable PPL increase —
which is all the Table II comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import SeedLike, derive_seed, get_rng
from repro.utils.validation import require, require_in


@dataclass(frozen=True)
class CorpusConfig:
    """Parameters of a synthetic Markov corpus.

    ``repetition_period`` / ``repetition_span`` add *long-range* structure:
    roughly every ``repetition_period`` tokens, a span of ``repetition_span``
    tokens copied from earlier in the stream is inserted.  Natural text has
    exactly this kind of re-occurring phrase structure; it is what makes the
    perplexity of a context-using model depend on the fidelity of the
    (quantized) KV cache far behind the current position.  Set
    ``repetition_period=0`` for a pure first-order Markov stream.
    """

    name: str
    vocab_size: int = 512
    zipf_alpha: float = 1.1
    branching_factor: int = 24
    repetition_period: int = 0
    repetition_span: int = 24
    seed: int = 1234

    def __post_init__(self) -> None:
        require(self.vocab_size >= 8, "vocab_size must be >= 8")
        require(self.zipf_alpha > 0.0, "zipf_alpha must be positive")
        require(
            2 <= self.branching_factor <= self.vocab_size,
            "branching_factor must be in [2, vocab_size]",
        )
        require(self.repetition_period >= 0, "repetition_period must be >= 0")
        if self.repetition_period:
            require(
                0 < self.repetition_span < self.repetition_period,
                "repetition_span must be in (0, repetition_period)",
            )


# Named corpora standing in for the paper's evaluation datasets.
CORPUS_REGISTRY: dict[str, CorpusConfig] = {
    "wikitext2-syn": CorpusConfig(
        name="wikitext2-syn",
        vocab_size=512,
        zipf_alpha=1.05,
        branching_factor=32,
        repetition_period=96,
        repetition_span=24,
        seed=1234,
    ),
    "ptb-syn": CorpusConfig(
        name="ptb-syn",
        vocab_size=512,
        zipf_alpha=1.3,
        branching_factor=16,
        repetition_period=128,
        repetition_span=20,
        seed=4321,
    ),
}

_SPLIT_OFFSETS = {"train": 0, "validation": 1, "test": 2}


class MarkovCorpus:
    """First-order Markov chain with Zipfian marginals and sparse transitions.

    Each token may transition only to ``branching_factor`` successors; the
    successor probabilities follow a Zipf law, so the entropy rate is well
    below ``log(vocab_size)`` and the structure is learnable by a small
    transformer (the FFN alone can memorise a first-order chain).
    """

    def __init__(self, config: CorpusConfig) -> None:
        self.config = config
        rng = get_rng(config.seed)
        v, b = config.vocab_size, config.branching_factor
        # Zipfian weights over ranks, shared by all rows.
        ranks = np.arange(1, b + 1, dtype=np.float64)
        weights = ranks ** (-config.zipf_alpha)
        weights = weights / weights.sum()
        successors = np.empty((v, b), dtype=np.int64)
        for token in range(v):
            successors[token] = rng.choice(v, size=b, replace=False)
        self._successors = successors
        self._weights = weights
        self._cumulative = np.cumsum(weights)
        # Unigram distribution used to draw the first token of a stream.
        unigram = rng.permutation(np.arange(1, v + 1, dtype=np.float64) ** (-config.zipf_alpha))
        self._unigram = unigram / unigram.sum()

    @property
    def vocab_size(self) -> int:
        return self.config.vocab_size

    def entropy_rate(self) -> float:
        """Per-token entropy of the chain in nats (lower bound on achievable PPL)."""
        w = self._weights
        return float(-(w * np.log(w)).sum())

    def sample(self, n_tokens: int, seed: SeedLike = None) -> np.ndarray:
        """Sample a contiguous stream of ``n_tokens`` tokens.

        When the corpus is configured with a repetition period, spans copied
        from earlier in the stream are spliced in at roughly that period,
        giving the stream long-range dependencies on top of the Markov
        structure.
        """
        require(n_tokens >= 1, "n_tokens must be >= 1")
        rng = get_rng(seed)
        tokens = np.empty(n_tokens, dtype=np.int64)
        tokens[0] = rng.choice(self.vocab_size, p=self._unigram)
        uniform = rng.random(n_tokens)
        for i in range(1, n_tokens):
            rank = int(np.searchsorted(self._cumulative, uniform[i]))
            rank = min(rank, self.config.branching_factor - 1)
            tokens[i] = self._successors[tokens[i - 1], rank]
        period = self.config.repetition_period
        if period:
            span = self.config.repetition_span
            position = period
            while position + span < n_tokens:
                # Copy a span that already occurred at least `span` tokens ago.
                source = int(rng.integers(0, position - span))
                tokens[position : position + span] = tokens[source : source + span]
                jitter = int(rng.integers(-period // 4, period // 4 + 1))
                position += max(period + jitter, span + 1)
        return tokens

    def transition_log_prob(self, prev_token: int, next_token: int) -> float:
        """Log-probability of ``next_token`` following ``prev_token`` (or -inf)."""
        row = self._successors[prev_token]
        matches = np.nonzero(row == next_token)[0]
        if matches.size == 0:
            return float("-inf")
        return float(np.log(self._weights[matches[0]]))

    def sequence_log_prob(self, tokens: np.ndarray) -> float:
        """Total log-probability of a sampled stream under the true chain."""
        tokens = np.asarray(tokens)
        total = float(np.log(self._unigram[tokens[0]]))
        for prev, nxt in zip(tokens[:-1], tokens[1:]):
            total += self.transition_log_prob(int(prev), int(nxt))
        return total


def get_corpus(name: str) -> MarkovCorpus:
    """Build the generator behind a named corpus."""
    require_in(name, tuple(CORPUS_REGISTRY), "corpus name")
    return MarkovCorpus(CORPUS_REGISTRY[name])


def load_corpus(
    name: str,
    split: str = "test",
    n_tokens: int = 4096,
    seed: SeedLike = None,
) -> np.ndarray:
    """Return ``n_tokens`` tokens of the named corpus for ``split``.

    Splits are disjoint pseudo-random streams of the same chain; passing the
    same arguments always returns the same tokens.
    """
    require_in(split, tuple(_SPLIT_OFFSETS), "split")
    corpus = get_corpus(name)
    stream_seed = derive_seed(
        CORPUS_REGISTRY[name].seed if seed is None else seed,
        "corpus-split",
        _SPLIT_OFFSETS[split],
    )
    return corpus.sample(n_tokens, seed=stream_seed)
