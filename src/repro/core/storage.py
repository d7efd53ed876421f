"""Contiguous, amortized-growth storage for streaming KV caches.

The seed implementation kept every flushed code block (and every pending
full-precision block) in a Python list and re-ran ``np.concatenate`` on each
decode step, so generating ``T`` tokens copied ``O(T²)`` bytes — the exact
overhead MILLION's paged GPU cache is designed to avoid.  The two classes
here restore the paper's cost model on the host side:

* :class:`CodeStore` — a growable contiguous row store with amortized-doubling
  appends.  Reading the stored rows is a zero-copy view, so the per-decode
  cost of fetching codes is O(1) regardless of context length (the analogue
  of the paper's preallocated paged code buffer).
* :class:`PendingBuffer` — the full-precision staging area for the residual
  window plus the not-yet-flushed block.  Appends and front-pops move at most
  ``O(window + block)`` bytes, never ``O(T)``.

Both classes deliberately expose *views* of their interiors; callers must not
hold the view across a subsequent ``append`` (the buffer may be reallocated).
Within one attention call this is safe because appends and attends never
interleave.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ValidationError, require


def _grow_capacity(current: int, needed: int, minimum: int) -> int:
    """Next capacity under amortized doubling, at least ``needed``."""
    capacity = max(current, minimum)
    while capacity < needed:
        capacity *= 2
    return capacity


class CodeStore:
    """Growable contiguous array of fixed-shape rows (amortized O(1) append).

    Rows are anything with a fixed trailing shape: PQ code tuples
    ``(kv_heads, M)``, de-quantized KV rows ``(kv_heads, head_dim)``, etc.
    ``view()`` returns the valid prefix without copying.
    """

    def __init__(
        self,
        row_shape: tuple[int, ...],
        dtype: np.dtype | type,
        initial_capacity: int = 256,
    ) -> None:
        require(initial_capacity >= 1, "initial_capacity must be >= 1")
        self._row_shape = tuple(int(s) for s in row_shape)
        self._dtype = np.dtype(dtype)
        self._initial_capacity = int(initial_capacity)
        self._buffer = np.empty((0, *self._row_shape), dtype=self._dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def size(self) -> int:
        """Number of valid rows."""
        return self._size

    @property
    def capacity(self) -> int:
        """Number of rows the current allocation can hold."""
        return self._buffer.shape[0]

    @property
    def row_shape(self) -> tuple[int, ...]:
        return self._row_shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    def reserve(self, n_rows: int) -> None:
        """Ensure capacity for at least ``n_rows`` total rows."""
        if n_rows <= self.capacity:
            return
        new_capacity = _grow_capacity(self.capacity, n_rows, self._initial_capacity)
        grown = np.empty((new_capacity, *self._row_shape), dtype=self._dtype)
        grown[: self._size] = self._buffer[: self._size]
        self._buffer = grown

    def append(self, rows: np.ndarray) -> None:
        """Append a ``(t, *row_shape)`` block by copying it into the store."""
        rows = np.asarray(rows)
        if rows.shape[1:] != self._row_shape or rows.ndim != len(self._row_shape) + 1:
            # The message is built only on failure: append runs per decode step.
            raise ValidationError(
                f"rows must have shape (t, {', '.join(map(str, self._row_shape))}), "
                f"got {rows.shape}"
            )
        t = rows.shape[0]
        if t == 0:
            return
        self.reserve(self._size + t)
        self._buffer[self._size : self._size + t] = rows
        self._size += t

    def pop_front(self, n_rows: int) -> np.ndarray:
        """Remove and return the oldest ``n_rows`` rows as an owned copy.

        The remaining rows are shifted to the front, so the cost is
        ``O(size)`` — constant when the store is used as a bounded staging
        buffer, as :class:`PendingBuffer` does.
        """
        require(
            0 <= n_rows <= self._size,
            f"cannot pop {n_rows} rows from a store of {self._size}",
        )
        popped = self._buffer[:n_rows].copy()
        remaining = self._size - n_rows
        if n_rows and remaining:
            # NumPy detects the overlap and buffers the move as needed.
            self._buffer[:remaining] = self._buffer[n_rows : self._size]
        self._size = remaining
        return popped

    def view(self) -> np.ndarray:
        """Zero-copy view of the valid rows, shape ``(size, *row_shape)``."""
        return self._buffer[: self._size]

    def clear(self) -> None:
        """Drop all rows (the allocation is kept for reuse)."""
        self._size = 0


class BlockArena:
    """Preallocated slab of fixed-size row blocks (physical paged storage).

    The arena is the physical side of a paged KV pool: ``num_blocks`` blocks
    of exactly ``block_rows`` rows each, allocated once up front so the
    per-block cost of writing or reading never depends on how many blocks are
    live.  The arena only stores bytes — block-id allocation, ref-counting
    and reuse policy live in the pool that hands out ids (see
    :class:`repro.serving.memory.BlockPool`).

    Blocks are written whole (``block_rows`` rows at a time); reads are
    zero-copy views into the slab.
    """

    def __init__(
        self,
        num_blocks: int,
        block_rows: int,
        row_shape: tuple[int, ...],
        dtype: np.dtype | type,
    ) -> None:
        require(num_blocks >= 1, "num_blocks must be >= 1")
        require(block_rows >= 1, "block_rows must be >= 1")
        self._row_shape = tuple(int(s) for s in row_shape)
        self._dtype = np.dtype(dtype)
        self._data = np.zeros(
            (int(num_blocks), int(block_rows), *self._row_shape), dtype=self._dtype
        )

    @property
    def num_blocks(self) -> int:
        return self._data.shape[0]

    @property
    def block_rows(self) -> int:
        return self._data.shape[1]

    @property
    def row_shape(self) -> tuple[int, ...]:
        return self._row_shape

    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def block_nbytes(self) -> int:
        """Bytes occupied by one block."""
        return int(self._data[0].nbytes)

    def _check_id(self, block_id: int) -> None:
        require(
            0 <= block_id < self.num_blocks,
            f"block id {block_id} out of range [0, {self.num_blocks})",
        )

    def write(self, block_id: int, rows: np.ndarray) -> None:
        """Fill ``block_id`` with a full ``(block_rows, *row_shape)`` block."""
        self._check_id(block_id)
        rows = np.asarray(rows)
        require(
            rows.shape == (self.block_rows, *self._row_shape),
            f"block rows must have shape ({self.block_rows}, "
            f"{', '.join(map(str, self._row_shape))}), got {rows.shape}",
        )
        self._data[block_id] = rows

    def read(self, block_id: int) -> np.ndarray:
        """Zero-copy view of ``block_id``, shape ``(block_rows, *row_shape)``."""
        self._check_id(block_id)
        return self._data[block_id]

    def take(self, block_ids: np.ndarray) -> np.ndarray:
        """Copy of several blocks in one fancy index, shape
        ``(len(block_ids), block_rows, *row_shape)``.

        Negative ids wrap, so the caller checks the ids.
        """
        return self._data[block_ids]


class PendingBuffer:
    """Paired full-precision key/value staging buffer with O(window) flushes.

    Holds the tokens that have not been quantized yet: the residual window
    plus whatever the flush-block granularity leaves over.  ``append`` adds to
    the back, ``pop_front`` removes the oldest rows for quantization.  Both
    operations move only the rows involved — the pending population is bounded
    by ``residual_window + flush_block`` so neither scales with context
    length.
    """

    def __init__(
        self,
        kv_heads: int,
        head_dim: int,
        dtype: np.dtype | type = np.float32,
        initial_capacity: int = 64,
    ) -> None:
        require(kv_heads >= 1, "kv_heads must be >= 1")
        require(head_dim >= 1, "head_dim must be >= 1")
        row_shape = (int(kv_heads), int(head_dim))
        self._keys = CodeStore(row_shape, dtype, initial_capacity=initial_capacity)
        self._values = CodeStore(row_shape, dtype, initial_capacity=initial_capacity)

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def size(self) -> int:
        """Number of pending tokens."""
        return len(self._keys)

    @property
    def capacity(self) -> int:
        return self._keys.capacity

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append matching ``(t, kv_heads, head_dim)`` key/value blocks."""
        keys = np.asarray(keys, dtype=self._keys.dtype)
        values = np.asarray(values, dtype=self._values.dtype)
        require(
            values.shape == keys.shape,
            f"values shape {values.shape} must match keys shape {keys.shape}",
        )
        self._keys.append(keys)
        self._values.append(values)

    def pop_front(self, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return the oldest ``n_rows`` tokens as owned copies."""
        return self._keys.pop_front(n_rows), self._values.pop_front(n_rows)

    def keys_view(self) -> np.ndarray:
        """Zero-copy view of the pending keys, shape ``(size, kv_heads, d)``."""
        return self._keys.view()

    def values_view(self) -> np.ndarray:
        """Zero-copy view of the pending values, shape ``(size, kv_heads, d)``."""
        return self._values.view()

    def clear(self) -> None:
        """Drop all pending tokens (the allocation is kept for reuse)."""
        self._keys.clear()
        self._values.clear()
