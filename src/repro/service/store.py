"""Content-addressed on-disk process store with a bounded in-memory cache.

A :class:`ProcessStore` maps the content digest of an FSP
(:func:`repro.utils.serialization.content_digest` -- SHA-256 over the
canonical JSON encoding, so structurally equal processes share one address)
to a JSON file under its root directory::

    <root>/<hex[:2]>/<hex>.json

Clients upload a process once (the ``store`` RPC) and reference it by digest
in thousands of subsequent checks; every shard worker opens the same
directory read-only and resolves digests on demand.  Because entries are
content-addressed they are immutable -- a digest can be cached forever
without invalidation, which is what makes the per-worker in-memory LRU
(bounded by ``max_cached``) safe.

Writes are atomic (temp file + ``os.replace``), so a crashed writer can
leave a stale ``*.tmp*`` file behind but never a truncated entry; readers
re-verify the digest of whatever they load and reject corrupted files.

The store keeps a **startup index**: one directory scan at construction
builds the in-memory set of on-disk digests, after which membership tests
and ``cache_info()["on_disk"]`` are O(1) instead of re-globbing the tree on
every call.  The index is advisory, not authoritative -- ``get`` always
reads the file itself, and a membership miss falls back to one ``stat`` so
entries published by *another* process into the same root are still found
(shard workers share their root with the server front end).  Files whose
names are not well-formed ``<64 hex>.json`` under the right fan-out
directory are skipped by the scan, so one corrupt or foreign file cannot
poison the index.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from collections import OrderedDict
from collections.abc import Iterator
from pathlib import Path

from repro.core.errors import InvalidProcessError
from repro.core.fsp import FSP
from repro.utils.serialization import canonical_bytes, content_digest, loads

#: In-memory LRU bound used when the caller does not pick one.
DEFAULT_MAX_CACHED = 256


def write_atomically(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path``: a reader sees nothing or all of it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


#: The hex part of a well-formed ``sha256:`` digest (use ``fullmatch``).
HEX_DIGEST = re.compile(r"[0-9a-f]{64}")


def digest_hex(digest: str) -> str:
    """The hex part of a ``sha256:<hex>`` digest (validated)."""
    prefix, _, hex_part = digest.partition(":")
    if prefix != "sha256" or not HEX_DIGEST.fullmatch(hex_part):
        raise KeyError(f"malformed digest {digest!r}")
    return hex_part


class ProcessStore:
    """A content-addressed process store rooted at one directory.

    Parameters
    ----------
    root:
        Directory holding the store (created if missing).
    max_cached:
        Bound on the in-memory digest -> FSP cache (LRU eviction; evicted
        entries reload transparently from disk).
    """

    def __init__(self, root: str | Path, max_cached: int = DEFAULT_MAX_CACHED) -> None:
        if max_cached < 1:
            raise ValueError("max_cached must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_cached = max_cached
        self._cache: OrderedDict[str, FSP] = OrderedDict()
        # The server uploads from worker threads (asyncio.to_thread) while
        # its event loop reads cache_info; entries are immutable, so only
        # the LRU bookkeeping needs the lock.
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._index: set[str] = self._scan_index()

    def _scan_index(self) -> set[str]:
        """One startup scan of the tree: every well-formed entry's digest.

        Only names shaped ``<fan>/<64 hex>.json`` with ``<fan>`` equal to the
        first two hex characters are indexed; stale ``*.tmp*`` files from
        crashed writers and any foreign files are ignored.
        """
        index: set[str] = set()
        for path in self.root.glob("??/*.json"):
            stem = path.stem
            if HEX_DIGEST.fullmatch(stem) and path.parent.name == stem[:2]:
                index.add("sha256:" + stem)
        return index

    def reindex(self) -> int:
        """Rebuild the startup index from disk; returns the entry count."""
        fresh = self._scan_index()
        with self._lock:
            self._index = fresh
            return len(fresh)

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        """Where an entry with this digest lives (whether or not it exists)."""
        hex_part = digest_hex(digest)
        return self.root / hex_part[:2] / f"{hex_part}.json"

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            if digest in self._cache or digest in self._index:
                return True
        # Index miss: probe the disk once so entries published by another
        # process (same root, different ProcessStore) are still visible, and
        # fold a hit back into the index.
        try:
            found = self.path_for(digest).exists()
        except KeyError:
            return False
        if found:
            with self._lock:
                self._index.add(digest)
        return found

    def digests(self) -> Iterator[str]:
        """All indexed digests (sorted for determinism)."""
        with self._lock:
            snapshot = sorted(self._index)
        yield from snapshot

    # ------------------------------------------------------------------
    # put / get
    # ------------------------------------------------------------------
    def put(self, fsp: FSP) -> str:
        """Store a process; returns its digest.  Idempotent by construction."""
        digest = content_digest(fsp)
        path = self.path_for(digest)
        if not path.exists():
            write_atomically(path, canonical_bytes(fsp))
        self._remember(digest, fsp)
        with self._lock:
            self._index.add(digest)
        return digest

    def get(self, digest: str) -> FSP:
        """The process stored under ``digest`` (memory first, then disk).

        Raises
        ------
        KeyError
            If the digest is malformed or nothing is stored under it.
        InvalidProcessError
            If the on-disk entry does not hash back to its address
            (corruption or tampering).
        """
        with self._lock:
            cached = self._cache.get(digest)
            if cached is not None:
                self._hits += 1
                self._cache.move_to_end(digest)
                return cached
        path = self.path_for(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise KeyError(f"no stored process with digest {digest!r}") from None
        with self._lock:
            self._misses += 1
        try:
            fsp = loads(text)
        except InvalidProcessError:
            raise
        except Exception as error:
            # Unparsable bytes are corruption too -- same contract as a
            # hash mismatch, so callers handle one exception, not json's.
            raise InvalidProcessError(f"store entry {path} is corrupt: {error}") from None
        actual = content_digest(fsp)
        if actual != digest:
            raise InvalidProcessError(
                f"store entry {path} is corrupt: content hashes to {actual}, not its address"
            )
        self._remember(digest, fsp)
        with self._lock:
            self._index.add(digest)
        return fsp

    def _remember(self, digest: str, fsp: FSP) -> None:
        with self._lock:
            self._cache[digest] = fsp
            self._cache.move_to_end(digest)
            while len(self._cache) > self.max_cached:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cache_info(self) -> dict[str, int]:
        """Occupancy and hit counters of the in-memory layer."""
        with self._lock:
            cached, hits, misses = len(self._cache), self._hits, self._misses
            on_disk = len(self._index)
        return {
            "cached": cached,
            "max_cached": self.max_cached,
            "hits": hits,
            "misses": misses,
            "on_disk": on_disk,
        }

    def __repr__(self) -> str:
        return f"ProcessStore(root={str(self.root)!r}, cached={len(self._cache)}/{self.max_cached})"
