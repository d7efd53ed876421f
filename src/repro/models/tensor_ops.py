"""Numerically-stable tensor primitives shared across the library.

Everything operates on plain ``numpy.ndarray`` in float32/float64.  The
:class:`OnlineSoftmaxState` implements the "OlSoftmax" merge used by MILLION's
Eq. (7) to combine the quantized-past attention with the full-precision
recent-window attention without ever materialising a single softmax over the
whole context.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

NEG_INF = -1e30

#: Row-chunk width of :func:`paired_rows_matmul`.  Every BLAS call it issues
#: has exactly this many rows, which is what makes the kernel row-invariant.
PAIRED_MATMUL_ROWS = 2


def paired_rows_matmul(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight`` computed in fixed two-row chunks; row results are
    invariant to how rows are batched.

    BLAS picks its kernel and blocking from the operand shapes: a single-row
    product is forwarded to GEMV (SIMD partial sums along ``k``) while larger
    shapes select size-dependent GEMM blockings, so row ``i`` of a stacked
    ``(B, k) @ (k, n)`` product is *not* bit-identical to computing that row
    alone.  Serving needs exactly that identity — the fused batched decode
    path stacks the rows that per-sequence decode computes one at a time —
    so this kernel pins every BLAS call to the same
    ``(2, k) @ (k, n)`` shape: rows are processed in pairs and a lone row is
    duplicated and sliced.  GEMM never mixes one row's data into another
    row's accumulators, so each output row depends only on its own input row
    and the fixed schedule, making the result independent of batch size and
    of which row shares the call.
    """
    x = np.asarray(x, dtype=np.float32)
    n_rows, n_cols = x.shape
    if n_rows == PAIRED_MATMUL_ROWS:
        return x @ weight
    if n_rows == 1:
        return (np.concatenate([x, x], axis=0) @ weight)[:1]
    even = n_rows - (n_rows % PAIRED_MATMUL_ROWS)
    # Stacked matmul runs the identical (2, k) @ (k, n) kernel per slice in
    # one call (bit-equality with the slice-by-slice loop is pinned by a
    # unit test), skipping the Python chunk loop.
    stacked = np.matmul(
        x[:even].reshape(even // PAIRED_MATMUL_ROWS, PAIRED_MATMUL_ROWS, n_cols),
        weight,
    )
    if even == n_rows:
        return np.ascontiguousarray(stacked.reshape(n_rows, weight.shape[1]))
    out = np.empty((n_rows, weight.shape[1]), dtype=np.float32)
    out[:even] = stacked.reshape(even, weight.shape[1])
    tail = x[even:]
    out[even:] = (np.concatenate([tail, tail], axis=0) @ weight)[:1]
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    The float64 work runs in place in one copy of ``x``: a prefill chunk's
    scores are the largest transient of a forward, so shift, exp and
    normalise share one buffer instead of holding a temporary each.
    """
    buf = np.array(x, dtype=np.float64)
    buf -= np.max(buf, axis=axis, keepdims=True)
    np.exp(buf, out=buf)
    buf /= np.sum(buf, axis=axis, keepdims=True)
    return buf.astype(np.float32)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    log_sum = np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
    return (shifted - log_sum).astype(np.float32)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-likelihood of ``targets`` under ``logits``.

    ``logits`` has shape ``(n, vocab)`` and ``targets`` shape ``(n,)``.
    """
    logits = np.asarray(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ValueError(
            f"targets shape {targets.shape} does not match logits rows {logits.shape[0]}"
        )
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(targets.shape[0]), targets]
    return float(-np.mean(picked))


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer normalisation (as used by Llama-family models).

    The mean is ``np.mean``'s own sum-then-divide, spelled out to skip its
    wrapper; pass a float64 ``weight`` to skip its per-call upcast.
    """
    x64 = np.asarray(x, dtype=np.float64)
    scale = np.add.reduce(x64 * x64, axis=-1, keepdims=True)
    scale /= x64.shape[-1]
    scale += eps
    np.sqrt(scale, out=scale)
    out = x64 / scale
    out *= weight
    return out.astype(np.float32)


def layer_norm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    eps: float = 1e-5,
) -> np.ndarray:
    """Standard layer normalisation with learnable scale and optional bias."""
    x64 = np.asarray(x, dtype=np.float64)
    mean = np.mean(x64, axis=-1, keepdims=True)
    var = np.var(x64, axis=-1, keepdims=True)
    out = (x64 - mean) / np.sqrt(var + eps) * weight
    if bias is not None:
        out = out + bias
    return out.astype(np.float32)


def silu(x: np.ndarray) -> np.ndarray:
    """Sigmoid-weighted linear unit, ``x * sigmoid(x)``."""
    x64 = np.asarray(x, dtype=np.float64)
    return (x64 / (1.0 + np.exp(-x64))).astype(np.float32)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as in GPT-2)."""
    x64 = np.asarray(x, dtype=np.float64)
    inner = np.sqrt(2.0 / np.pi) * (x64 + 0.044715 * x64**3)
    return (0.5 * x64 * (1.0 + np.tanh(inner))).astype(np.float32)


ACTIVATION_FUNCTIONS = {"silu": silu, "gelu": gelu}


class OnlineSoftmaxState:
    """Streaming softmax-weighted-sum accumulator (flash-attention style).

    Partial attention results over disjoint key blocks are merged without
    re-normalising earlier blocks: for each query we keep the running maximum
    logit ``m``, the running denominator ``l = sum exp(score - m)`` and the
    running numerator ``acc = sum exp(score - m) * value``.

    Shapes: queries are indexed by an arbitrary leading shape ``Q`` (for
    attention this is ``(n_heads, n_queries)``); values have trailing
    dimension ``d``.  ``update`` takes ``scores`` of shape ``Q + (n_keys,)``
    and ``values`` of shape ``(n_keys, d)`` or ``Q + (n_keys, d)``.
    """

    def __init__(self, query_shape: tuple[int, ...], value_dim: int) -> None:
        self.query_shape = tuple(query_shape)
        self.value_dim = int(value_dim)
        self._max = np.full(self.query_shape, NEG_INF, dtype=np.float64)
        self._denom = np.zeros(self.query_shape, dtype=np.float64)
        self._acc = np.zeros(self.query_shape + (value_dim,), dtype=np.float64)

    def update(self, scores: np.ndarray, values: np.ndarray) -> None:
        """Fold one block of scores/values into the running state."""
        scores = np.asarray(scores, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if scores.shape[:-1] != self.query_shape:
            raise ValueError(
                f"scores leading shape {scores.shape[:-1]} does not match "
                f"query shape {self.query_shape}"
            )
        if scores.shape[-1] == 0:
            return
        block_max = np.max(scores, axis=-1)
        new_max = np.maximum(self._max, block_max)
        # Rescale previous accumulators to the new maximum.
        correction = np.exp(self._max - new_max)
        correction = np.where(np.isfinite(correction), correction, 0.0)
        probs = np.exp(scores - new_max[..., None])
        if values.ndim == 2:
            block_acc = probs @ values
        else:
            if values.shape[:-2] != self.query_shape:
                raise ValueError(
                    f"values leading shape {values.shape[:-2]} does not match "
                    f"query shape {self.query_shape}"
                )
            block_acc = np.einsum("...k,...kd->...d", probs, values)
        self._acc = self._acc * correction[..., None] + block_acc
        self._denom = self._denom * correction + probs.sum(axis=-1)
        self._max = new_max

    def merge(self, other: "OnlineSoftmaxState") -> None:
        """Fold another accumulator (over a disjoint key block) into this one."""
        if other.query_shape != self.query_shape or other.value_dim != self.value_dim:
            raise ValueError("cannot merge OnlineSoftmaxState with different shapes")
        new_max = np.maximum(self._max, other._max)
        self_corr = np.where(np.isfinite(self._max), np.exp(self._max - new_max), 0.0)
        other_corr = np.where(np.isfinite(other._max), np.exp(other._max - new_max), 0.0)
        self._acc = self._acc * self_corr[..., None] + other._acc * other_corr[..., None]
        self._denom = self._denom * self_corr + other._denom * other_corr
        self._max = new_max

    def finalize(self) -> np.ndarray:
        """Return the softmax-weighted sum for every query position."""
        denom = np.where(self._denom > 0.0, self._denom, 1.0)
        return (self._acc / denom[..., None]).astype(np.float32)

    @property
    def has_observations(self) -> np.ndarray:
        """Boolean mask of query positions that have received at least one key."""
        return self._denom > 0.0
