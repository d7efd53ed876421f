"""Synthetic datasets standing in for Wikitext-2, PTB and LongBench documents."""

from repro.data.corpus import (
    CORPUS_REGISTRY,
    CorpusConfig,
    MarkovCorpus,
    load_corpus,
)
from repro.data.longcontext import (
    SPECIAL_TOKENS,
    ContextBuilder,
    SpecialTokens,
    random_content_tokens,
)

__all__ = [
    "CORPUS_REGISTRY",
    "CorpusConfig",
    "MarkovCorpus",
    "load_corpus",
    "SPECIAL_TOKENS",
    "ContextBuilder",
    "SpecialTokens",
    "random_content_tokens",
]
