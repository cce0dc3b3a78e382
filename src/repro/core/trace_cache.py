"""The trace cache: one exact-LRU-plus-relaxation policy for staged artifacts.

Paper §4.6's polymorphic function is a cache from input signatures to
monomorphic traces.  The same mechanism serves every place the runtime
keeps compiled artifacts keyed by what they were built for
(LazyTensor, arXiv 2102.13267, applies it to recorded segments):

* ``core/function.Function`` — binding-time keys → concrete functions;
* ``runtime/lazy`` — segment trace hashes → planned segment functions;
* ``xla/tpu`` — (op, signature, attrs) → one-op XLA programs.

Each user supplies only its key and its artifact; :class:`TraceCache`
owns the policy:

* **Exact level**: ``key → artifact``, LRU-ordered and bounded by
  ``context.trace_cache_size``; an evicted artifact has ``release()``
  called so it drops its derived state (plans, executables, gradient
  graphs).
* **Relaxed level**: one artifact per *pattern* — the key with input
  shapes abstracted to rank — installed after ``context.relax_retraces``
  shape-only misses of the pattern.  Its shapes are the
  :meth:`~repro.framework.tensor_shape.TensorShape.most_general` merge
  of the shapes seen so far, so only the dimensions that actually
  varied become ``None``.  A later shape the relaxed artifact does not
  admit widens the merge once more and replaces (and releases) the old
  artifact.

Whether a lookup may relax is the caller's decision, made per lookup.
"""

from __future__ import annotations

import collections
import threading
from typing import Sequence

from repro.runtime.context import context

__all__ = ["TraceCache"]


class TraceCache:
    """Two-level artifact cache; artifacts are anything with ``release()``.

    All methods are thread-safe.  ``lock`` may be the owner's own
    (re-entrant) lock, so the owner can hold it across a lookup, the
    artifact build and the insert and build each key exactly once.
    """

    def __init__(self, lock=None) -> None:
        self.lock = lock if lock is not None else threading.RLock()
        self._exact: collections.OrderedDict = collections.OrderedDict()
        self._relaxed: dict = {}  # pattern -> (shapes it admits, artifact)
        # pattern -> [shape-only misses, most-general merge of their shapes]
        self._misses: dict = {}
        self._stats = {"hits": 0, "misses": 0, "relaxations": 0, "evictions": 0}

    def lookup(self, key, pattern=None, shapes: Sequence = (), relax: bool = False):
        """Return ``(artifact, None)`` on a hit, else ``(None, relaxed_shapes)``.

        Counts one hit or one miss.  On a miss, ``relaxed_shapes`` is
        None when the caller should build an exact artifact and
        :meth:`insert` it under ``key``; otherwise the caller builds at
        ``relaxed_shapes`` and calls :meth:`insert_relaxed`.  ``shapes``
        are the lookup's concrete input shapes, matched against
        ``pattern``'s relaxed entry; ``relax`` allows installing or
        widening one (an existing entry still serves the shapes it
        admits when ``relax`` is False).
        """
        with self.lock:
            artifact = self.hit(key, pattern, shapes)
            if artifact is not None:
                return artifact, None
            self._stats["misses"] += 1
            if pattern is None or not relax:
                return None, None
            entry = self._relaxed.get(pattern)
            if entry is not None:
                return None, _merge(entry[0], shapes)
            seen = self._misses.get(pattern)
            if seen is None:
                seen = self._misses[pattern] = [0, tuple(shapes)]
            else:
                seen[1] = _merge(seen[1], shapes)
            seen[0] += 1
            if seen[0] > context.relax_retraces:
                return None, seen[1]
            return None, None

    def hit(self, key, pattern=None, shapes: Sequence = ()):
        """The artifact :meth:`lookup` would serve, counted as a hit, or
        None without counting a miss (replaying a cached route)."""
        with self.lock:
            artifact = self._exact.get(key)
            if artifact is not None:
                self._exact.move_to_end(key)
            elif pattern is not None:
                entry = self._relaxed.get(pattern)
                if entry is None or not _admits(entry[0], shapes):
                    return None
                artifact = entry[1]
            else:
                return None
            self._stats["hits"] += 1
            return artifact

    def insert(self, key, artifact) -> None:
        """Add an exact artifact, evicting LRU entries past the bound."""
        with self.lock:
            self._exact[key] = artifact
            limit = context.trace_cache_size
            while len(self._exact) > limit:
                _, evicted = self._exact.popitem(last=False)
                evicted.release()
                self._stats["evictions"] += 1

    def insert_relaxed(
        self, pattern, shapes: Sequence, artifact, replace: bool = True
    ) -> None:
        """Install ``pattern``'s relaxed artifact, releasing the one it widens.

        With ``replace=False`` an existing entry is kept (an explicitly
        traced symbolic artifact installs only into an empty slot).
        """
        with self.lock:
            old = self._relaxed.get(pattern)
            if old is not None:
                if not replace:
                    return
                old[1].release()
            self._relaxed[pattern] = (tuple(shapes), artifact)
            self._misses.pop(pattern, None)
            self._stats["relaxations"] += 1

    def artifacts(self) -> list:
        """Every live artifact, exact level first."""
        with self.lock:
            return list(self._exact.values()) + [
                artifact for _, artifact in self._relaxed.values()
            ]

    def __len__(self) -> int:
        return len(self._exact) + len(self._relaxed)

    def clear(self) -> None:
        """Release every artifact and zero the counters."""
        with self.lock:
            for artifact in self.artifacts():
                artifact.release()
            self._exact.clear()
            self._relaxed.clear()
            self._misses.clear()
            for key in self._stats:
                self._stats[key] = 0

    def stats(self) -> dict:
        """Hit/miss/relaxation/eviction counters plus the live ``size``."""
        with self.lock:
            stats = dict(self._stats)
            stats["size"] = len(self)
            return stats


def _admits(relaxed: Sequence, shapes: Sequence) -> bool:
    if len(shapes) != len(relaxed):
        return False
    for shape, bound in zip(shapes, relaxed):  # a plain loop: per-call path
        if not shape.is_subtype_of(bound):
            return False
    return True


def _merge(merged: Sequence, shapes: Sequence) -> tuple:
    return tuple(old.most_general(new) for old, new in zip(merged, shapes))
