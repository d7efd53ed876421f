"""Content-addressed on-disk cache of trained MILLION codebooks.

Calibration — sample KV at full precision, train the PQ codebooks (the
offline phase of Fig. 4a) — is most of a replica's start-up time, and its
output is a pure function of its inputs.  So
:func:`repro.core.calibration.calibrate_million` can key the trained
centroids by a hash of everything that determines them and keep them in
``<cache_dir>/million-<key>.npz``.  The key covers:

* a format version and ``numpy.__version__``;
* a digest of every ``.py`` file of the ``repro`` package, so any code change
  recalibrates once;
* the :class:`~repro.core.config.MillionConfig` fields and
  ``ModelConfig.to_dict()``;
* every model weight (name, dtype, shape and bytes);
* the calibration token streams and the forward chunk size.

An entry stores its key and two float32 arrays, ``keys`` and ``values``, of
shape ``(n_layers, M, 2**nbits, head_dim / M)``.  It is loaded without
pickle and checked against the expected key and shapes.  Every failure here
degrades to calibrating: an unreadable or mismatched entry is recalibrated
and overwritten, and an unwritable directory only costs the next start its
warm load.  Writes go to a temporary file in the same directory and are
renamed into place, so a reader never sees a partial entry.  The
:data:`MAX_ENTRIES` most recently used entries are kept.  Nothing is
downloaded: an entry exists only where some process calibrated it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.core.codebook import SubspaceCodebooks
from repro.core.config import MillionConfig
from repro.core.pq import ProductQuantizer
from repro.models.transformer import TransformerLM
from repro.utils.logging import get_logger

logger = get_logger("calibration")

#: Bumped whenever the entry layout changes.
FORMAT_VERSION = 1
#: Entries kept per directory; older ones are deleted after each write.
MAX_ENTRIES = 8

Quantizers = dict[int, tuple[ProductQuantizer, ProductQuantizer]]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return Path(explicit)
    xdg = os.environ.get("XDG_CACHE_HOME")
    return Path(xdg) / "repro" if xdg else Path.home() / ".cache" / "repro"


def _update(digest, data: bytes | memoryview) -> None:
    """Feed one length-prefixed field, so field boundaries are unambiguous."""
    digest.update(len(data).to_bytes(8, "little"))
    digest.update(data)


@functools.lru_cache(maxsize=None)
def source_digest(package: Path = Path(__file__).resolve().parents[1]) -> str:
    """Digest of every ``.py`` file under ``package`` (path and bytes); by
    default the ``repro`` package itself."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(package.rglob("*.py")):
        _update(digest, path.relative_to(package).as_posix().encode())
        _update(digest, path.read_bytes())
    return digest.hexdigest()


def cache_key(
    model: TransformerLM,
    streams: Sequence[np.ndarray],
    million_config: MillionConfig,
    chunk_size: int,
) -> str:
    """Hex key of the codebooks these calibration inputs train."""
    from repro.training.checkpoint import state_dict

    digest = hashlib.blake2b(digest_size=16)
    header = {
        "format": FORMAT_VERSION,
        "numpy": np.__version__,
        "source": source_digest(),
        "million": dataclasses.asdict(million_config),
        "model": model.config.to_dict(),
        "chunk_size": chunk_size,
    }
    _update(digest, json.dumps(header, sort_keys=True).encode())
    for name, array in state_dict(model).items():
        array = np.ascontiguousarray(array)
        _update(digest, f"{name}:{array.dtype.str}:{array.shape}".encode())
        _update(digest, array.data)
    for stream in streams:
        _update(digest, np.ascontiguousarray(stream, dtype=np.int64).reshape(-1).data)
    return digest.hexdigest()


def entry_path(cache_dir: str | os.PathLike, key: str) -> Path:
    return Path(cache_dir) / f"million-{key}.npz"


def read_entry(
    path: Path, key: str, expected: tuple[int, int, int, int]
) -> Optional[Quantizers]:
    """The quantizers stored at ``path``, or ``None`` if absent or invalid.

    ``expected`` is ``(n_layers, M, 2**nbits, head_dim / M)``.  An entry
    that exists but cannot be read, or whose key, layer count, shapes, dtype
    or values are not what this calibration would produce, is reported with
    a warning; the caller then recalibrates and overwrites it.
    """
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            stored_key = str(data["key"][()])
            keys, values = data["keys"], data["values"]
        problem = None
        if stored_key != key:
            problem = f"stored key {stored_key!r} does not match"
        for name, array in (("keys", keys), ("values", values)):
            if problem is None and (array.shape != expected or array.dtype != np.float32):
                problem = f"{name} are {array.dtype}{array.shape}, expected float32{expected}"
            if problem is None and not np.isfinite(array).all():
                problem = f"{name} are not all finite"
    except Exception as error:  # any unreadable entry is a miss
        problem = f"unreadable ({type(error).__name__}: {error})"
    if problem is not None:
        logger.warning("codebook cache: %s: %s; recalibrating", path, problem)
        return None
    try:
        os.utime(path)  # recency for pruning
    except OSError:
        pass
    return {
        layer: (
            ProductQuantizer(SubspaceCodebooks(keys[layer])),
            ProductQuantizer(SubspaceCodebooks(values[layer])),
        )
        for layer in range(expected[0])
    }


def write_entry(path: Path, key: str, quantizers: Quantizers) -> bool:
    """Store ``quantizers`` at ``path`` atomically; ``False`` (and a warning)
    when the directory is not writable."""
    layers = sorted(quantizers)
    keys = np.stack([quantizers[i][0].codebooks.centroids for i in layers])
    values = np.stack([quantizers[i][1].codebooks.centroids for i in layers])
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".million-", suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as out:
                np.savez(out, key=np.array(key), keys=keys, values=values)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as error:
        logger.warning(
            "codebook cache: cannot write %s (%s); continuing without it", path, error
        )
        return False
    prune(path.parent)
    return True


def prune(cache_dir: Path, keep: int = MAX_ENTRIES) -> None:
    """Delete all but the ``keep`` most recently used entries."""
    entries = []
    for path in cache_dir.glob("million-*.npz"):
        try:
            entries.append((path.stat().st_mtime, path))
        except OSError:
            pass  # removed by a concurrent pruner
    entries.sort(reverse=True)
    for _, path in entries[keep:]:
        try:
            path.unlink()
        except OSError:
            pass
