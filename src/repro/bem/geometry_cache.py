"""Byte-budgeted LRU cache for in-plane pair geometry.

The image transforms of a layered-soil kernel only move the *z* coordinate of
a source segment, so the in-plane part of the pair geometry — the axial
projection of the field points and their squared in-plane distance to the
segment axis — is identical for every image term *and* for every repeated
evaluation of the same (mesh, field points) combination.  Sweeps that
re-assemble the same mesh (soil-model comparisons such as the Balaídos A/B/C
study, repeated GPR/fault-scenario analyses in the design optimiser, or
benchmark rounds) therefore recompute arrays that never change.

:class:`GeometryCache` stores those arrays keyed by content fingerprints.  It
is a plain LRU with a byte budget: entries are evicted oldest-first once the
budget is exceeded, so the cache can be left enabled for arbitrarily long
sweeps.  All operations are thread-safe; cached arrays are returned as
read-only views and must not be mutated by callers.
"""

from __future__ import annotations

import hashlib
import os
import threading
import weakref
from collections import OrderedDict

import numpy as np

__all__ = ["GeometryCache", "default_geometry_cache", "array_fingerprint"]

#: Live cache instances, tracked so locks can be re-armed after a fork.
_instances: "weakref.WeakSet[GeometryCache]" = weakref.WeakSet()


def _reset_locks_after_fork() -> None:
    """Re-arm every cache lock in a freshly forked child.

    The process backends fork workers (``multiprocessing`` ``fork`` start
    method), and ``fork()`` copies mutex state: a lock another parent thread
    happened to hold at fork time stays locked forever in the child — whose
    holder does not exist there — deadlocking the first cache access.  Each
    child therefore gets fresh, open locks; the cached entries themselves are
    plain copy-on-write data and stay valid (and warm) across the fork, while
    post-fork mutations remain private to each process.
    """
    global _default_lock
    _default_lock = threading.Lock()
    for cache in list(_instances):
        cache._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in practice
    os.register_at_fork(after_in_child=_reset_locks_after_fork)

#: Default byte budget of the process-wide cache (64 MiB keeps the working set
#: of a few paper-size meshes without competing with the assembly itself).
DEFAULT_CACHE_BYTES: int = 64 * 1024 * 1024


def array_fingerprint(*arrays: np.ndarray) -> str:
    """Stable content fingerprint of a sequence of arrays."""
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


class GeometryCache:
    """Thread-safe LRU cache of geometry arrays with a byte budget."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[tuple, tuple[np.ndarray, ...]]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        _instances.add(self)

    def get(self, key: tuple) -> tuple[np.ndarray, ...] | None:
        """The cached arrays of ``key`` (marking it most recently used)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
        """Store ``arrays`` under ``key`` and return the read-only views.

        An entry larger than the whole budget is never stored: it is served
        uncached as read-only views of the (contiguous) inputs, without a copy.
        """
        contiguous = [np.ascontiguousarray(array) for array in arrays]
        size = sum(array.nbytes for array in contiguous)
        frozen = []
        for original, array in zip(arrays, contiguous):
            if size > self.max_bytes:
                array = array.view()
            elif array is original:
                # Never freeze an object the caller may still own.
                array = array.copy()
            array.setflags(write=False)
            frozen.append(array)
        stored = tuple(frozen)
        if size > self.max_bytes:
            return stored
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= sum(a.nbytes for a in previous)
            self._entries[key] = stored
            self._bytes += size
            while self._bytes > self.max_bytes and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= sum(a.nbytes for a in evicted)
        return stored

    def keys(self) -> list[tuple]:
        """Cached keys in eviction order, oldest first (deterministic)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry (the statistics survive)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    @property
    def n_entries(self) -> int:
        """Number of cached entries."""
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Bytes currently held."""
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        """Hit/miss counters and occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
            }


_default_cache: GeometryCache | None = None
_default_lock = threading.Lock()


def default_geometry_cache() -> GeometryCache:
    """The process-wide shared cache (created on first use)."""
    global _default_cache
    with _default_lock:
        if _default_cache is None:
            _default_cache = GeometryCache()
        return _default_cache
