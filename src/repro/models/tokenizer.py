"""Simple tokenizers for the synthetic corpora and example scripts."""

from __future__ import annotations

from typing import Sequence

import numpy as np


class ByteTokenizer:
    """UTF-8 byte-level tokenizer with BOS/EOS specials.

    Vocabulary: ids 0-255 are raw bytes, 256 is BOS, 257 is EOS.
    """

    BOS = 256
    EOS = 257

    @property
    def vocab_size(self) -> int:
        return 258

    def encode(self, text: str, add_bos: bool = True, add_eos: bool = False) -> np.ndarray:
        ids = list(text.encode("utf-8"))
        if add_bos:
            ids = [self.BOS] + ids
        if add_eos:
            ids = ids + [self.EOS]
        return np.asarray(ids, dtype=np.int64)

    def decode(self, ids: Sequence[int]) -> str:
        raw = bytes(int(i) for i in ids if 0 <= int(i) < 256)
        return raw.decode("utf-8", errors="replace")

