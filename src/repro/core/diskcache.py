"""Persistent source-hash-keyed pickle cache.

One small module owns the on-disk cache layout so every cached artifact
(today the captured event traces) shares the same invalidation
rule: every key embeds a hash of the entire ``repro`` source tree, so
editing any module silently invalidates all derived results — the only
safe default for a cache of computed data.

Layout: ``cache_dir()/{kind}-{sha256(key)[:32]}.pkl``, one pickle per
entry, written atomically (temp file + ``os.replace``).  ``kind`` names
the artifact family (``events``) purely so a directory listing is
self-describing; the hash alone is the identity.

``REPRO_CACHE_DIR`` overrides the cache location and ``REPRO_NO_CACHE``
disables the cache entirely; both are read at import time, and the
toggle can be flipped per-process via :func:`set_cache_enabled`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Tuple

#: bumped when any cached payload layout changes.
CACHE_VERSION = 1

_CACHE_ENABLED = os.environ.get("REPRO_NO_CACHE", "") == ""
_SOURCE_HASH: Optional[str] = None


def cache_dir() -> Path:
    """Where persistent pickles live.

    ``REPRO_CACHE_DIR`` overrides the default of
    ``~/.cache/repro-value-profiling``.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-value-profiling"


def cache_enabled() -> bool:
    """Whether the persistent disk cache is consulted and written."""
    return _CACHE_ENABLED


def set_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable the persistent disk cache."""
    global _CACHE_ENABLED
    _CACHE_ENABLED = enabled


@contextmanager
def caching_disabled():
    """Context manager: run with the disk cache off (benchmarks use
    this so every measured run pays its real profiling cost)."""
    previous = _CACHE_ENABLED
    set_cache_enabled(False)
    try:
        yield
    finally:
        set_cache_enabled(previous)


def source_tree_hash() -> str:
    """Hash of every ``repro`` source file, computed once per process.

    Part of every disk-cache key: editing any module under the package
    silently invalidates all cached entries.
    """
    global _SOURCE_HASH
    if _SOURCE_HASH is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _SOURCE_HASH = digest.hexdigest()
    return _SOURCE_HASH


def cache_path(kind: str, key: Tuple) -> Path:
    """Deterministic entry path for ``(kind, key)`` under today's source."""
    raw = repr((CACHE_VERSION, source_tree_hash(), kind, key)).encode()
    return cache_dir() / f"{kind}-{hashlib.sha256(raw).hexdigest()[:32]}.pkl"


def cache_load(path: Path):
    """Best-effort read of one cache entry; corrupt entries read as misses.

    Unpickling bad bytes can raise nearly any exception (``ValueError``
    for an unknown protocol byte, ``ImportError`` for a class that no
    longer exists, ...), so every ``Exception`` reads as a miss.
    """
    try:
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except Exception:
        return None


def cache_store(path: Path, payload) -> None:
    """Best-effort atomic write; a full disk never fails the producing run."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except (OSError, pickle.PickleError):
        pass


def clear_disk_cache() -> int:
    """Delete every persistent cache entry; returns the number removed."""
    removed = 0
    directory = cache_dir()
    if directory.is_dir():
        for path in directory.glob("*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed
