"""The coordinator's persistent store: processes plus minimisation artifacts.

A :class:`ClusterStore` wraps two content-addressed on-disk layers under one
root directory::

    <root>/processes/<hex[:2]>/<hex>.json          # ProcessStore entries
    <root>/artifacts/<hex[:2]>/<hex>.<notion>.json # minimisation artifacts

The process layer is a plain :class:`~repro.service.store.ProcessStore`
(startup index included); the artifact layer maps ``(digest, notion)`` to
the serialised result of minimising that process under that notion -- the
exact JSON document a node's ``minimize`` op returns.  Because a process is
immutable under its digest, its quotient under a fixed notion is immutable
too, so artifacts are write-once and cacheable forever, just like the
processes themselves.

This is what makes minimisations survive node loss: the coordinator
persists every computed artifact here, keyed ``(digest, notion)``, and
serves repeat requests from this store without touching any node.  A
quotient computed on a node that has since been killed is still one
``get_artifact`` away.

Artifact writes are atomic (temp file + ``os.replace``) and reads are
tolerant: a corrupt or unparsable artifact file reads as a miss (the
minimisation simply recomputes) rather than an error, so one damaged entry
never poisons the cache.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any

from repro.service.store import HEX_DIGEST, ProcessStore, digest_hex, write_atomically

__all__ = ["ClusterStore"]

#: Notion names double as filename components; keep them boring.
_NOTION_RE = re.compile(r"^[a-z0-9_-]{1,64}$")


def _artifact_parts(digest: str, notion: str) -> tuple[str, str]:
    """Validated ``(hex, notion)`` filename parts for one artifact key."""
    hex_part = digest_hex(digest)
    if not _NOTION_RE.match(notion):
        raise KeyError(f"notion {notion!r} is not a valid artifact key component")
    return hex_part, notion


class ClusterStore:
    """Processes and ``(digest, notion)``-keyed minimisation artifacts."""

    def __init__(self, root: str | Path, *, max_cached: int = 64) -> None:
        self.root = Path(root)
        self.processes = ProcessStore(self.root / "processes", max_cached=max_cached)
        self._artifact_root = self.root / "artifacts"
        self._artifact_root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._artifact_hits = 0
        self._artifact_misses = 0
        self._artifact_index: set[tuple[str, str]] = self._scan_artifacts()

    def _scan_artifacts(self) -> set[tuple[str, str]]:
        """Startup index of artifact keys; malformed filenames are skipped."""
        index: set[tuple[str, str]] = set()
        for path in self._artifact_root.glob("??/*.json"):
            stem = path.stem  # "<hex>.<notion>"
            hex_part, dot, notion = stem.partition(".")
            if (
                dot
                and HEX_DIGEST.fullmatch(hex_part)
                and _NOTION_RE.match(notion)
                and path.parent.name == hex_part[:2]
            ):
                index.add(("sha256:" + hex_part, notion))
        return index

    def artifact_path(self, digest: str, notion: str) -> Path:
        """Where the artifact for ``(digest, notion)`` lives (if anywhere)."""
        hex_part, notion = _artifact_parts(digest, notion)
        return self._artifact_root / hex_part[:2] / f"{hex_part}.{notion}.json"

    def put_artifact(self, digest: str, notion: str, document: dict[str, Any]) -> None:
        """Persist one minimisation artifact (atomic, idempotent)."""
        path = self.artifact_path(digest, notion)
        if not path.exists():
            text = json.dumps(document, separators=(",", ":"), sort_keys=True)
            write_atomically(path, text.encode("utf-8"))
        with self._lock:
            self._artifact_index.add((digest, notion))

    def get_artifact(self, digest: str, notion: str) -> dict[str, Any] | None:
        """The stored artifact for ``(digest, notion)``, or None.

        Damaged entries (unreadable, unparsable, not an object) count as
        misses -- the caller recomputes and overwrites -- so corruption of
        one file costs one recomputation, never an outage.
        """
        try:
            path = self.artifact_path(digest, notion)
        except KeyError:
            return None
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError, OSError):
            with self._lock:
                self._artifact_misses += 1
                self._artifact_index.discard((digest, notion))
            return None
        if not isinstance(document, dict):
            with self._lock:
                self._artifact_misses += 1
            return None
        with self._lock:
            self._artifact_hits += 1
            self._artifact_index.add((digest, notion))
        return document

    def artifact_keys(self) -> list[tuple[str, str]]:
        """All indexed ``(digest, notion)`` artifact keys (sorted)."""
        with self._lock:
            return sorted(self._artifact_index)

    def cache_info(self) -> dict[str, Any]:
        """Process-layer cache info plus artifact-layer counters."""
        with self._lock:
            artifacts = len(self._artifact_index)
            hits, misses = self._artifact_hits, self._artifact_misses
        return {
            "processes": self.processes.cache_info(),
            "artifacts": artifacts,
            "artifact_hits": hits,
            "artifact_misses": misses,
        }

    def __repr__(self) -> str:
        return f"ClusterStore(root={str(self.root)!r}, artifacts={len(self._artifact_index)})"
