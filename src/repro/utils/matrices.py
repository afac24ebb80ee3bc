"""Matrix and array representations of transition systems.

Two families of helpers live here:

* **Dense boolean matrices** (the bottom half of the module) -- the paper's
  complexity analysis of observational equivalence expresses the tau-closure
  and the weak transition relation through boolean matrix products
  (``M_sigma_hat = M_epsilon . M_sigma . M_epsilon``) so that fast matrix
  multiplication gives the ``n^2.376`` term of Theorem 4.1(a).  The library's
  default implementation (:mod:`repro.core.weak`: :class:`~repro.core.weak.WeakKernel`
  and :func:`~repro.core.weak.saturate_lts`) propagates tau-closure bitsets
  over the tau-SCC condensation.  The matrix formulation is the paper's
  ``n^2.376`` construction written out, and the tests use it as an
  independent oracle of the weak successors.

* **Contiguous CSR edge arrays** (:class:`CSRArrays` / :class:`MmapCSR`) --
  the numpy-backed edge representation the vectorized partition kernel
  (:mod:`repro.partition.vectorized`) refines.  ``CSRArrays`` holds the
  ``fwd_offsets`` / ``fwd_actions`` / ``fwd_targets`` layout of
  :class:`repro.core.lts.LTS` as ``int64`` ndarrays (zero-copy from an
  interned LTS where possible); :class:`MmapCSR` is the same layout backed
  by ``numpy.memmap`` files on disk, so LTSs whose edge arrays exceed RAM
  (the ``n = 10^6``--``10^7`` tier of the ROADMAP) can still be refined:
  the refinement's working set is ``O(n)`` index arrays while the edges
  stream from disk through the page cache.

``numpy`` is an optional dependency here: the dense-matrix functions fall
back to pure Python when it is unavailable, and the CSR classes raise a
clear error (:func:`require_numpy`) instead of failing on import.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

try:  # pragma: no cover - exercised implicitly depending on environment
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.core.errors import InvalidProcessError
from repro.core.fsp import FSP, TAU

HAVE_NUMPY = _np is not None


def require_numpy():
    """Return the numpy module, raising a clear error when it is missing.

    The vectorized backends are optional accelerators; every caller keeps a
    pure-Python route, so the error message points at the ``backend``
    parameter rather than demanding an install.
    """
    if _np is None:  # pragma: no cover - exercised only without numpy
        raise RuntimeError(
            "numpy is required for the vectorized backend; "
            "use backend='python' or install numpy"
        )
    return _np


class CSRArrays:
    """Numpy CSR edge arrays: the input of the vectorized partition kernel.

    The layout mirrors :class:`repro.core.lts.LTS` exactly --
    ``offsets[s] .. offsets[s+1]`` indexes the arcs leaving state ``s`` in the
    parallel ``actions`` / ``targets`` arrays, and within a state's slice the
    arcs are sorted by ``(action, target)`` with no duplicates -- but the
    arrays are ``int64`` ndarrays (or memmaps, see :class:`MmapCSR`), so the
    refinement loops run as whole-array numpy operations instead of
    per-element Python bytecode.  No string names are carried: at the
    ``10^6``-state tier a tuple of a million interned strings costs more than
    the edges themselves, so the vector kernel works purely on integers and
    callers translate at the boundary when they need names.
    """

    __slots__ = ("n", "num_actions", "offsets", "actions", "targets", "start")

    def __init__(self, n, num_actions, offsets, actions, targets, start=0):
        np = require_numpy()
        self.n = int(n)
        self.num_actions = int(num_actions)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.actions = np.asarray(actions, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.start = int(start)
        if len(self.offsets) != self.n + 1:
            raise InvalidProcessError("CSR offsets must have length n + 1")
        if len(self.actions) != len(self.targets):
            raise InvalidProcessError("CSR action/target arrays disagree in length")
        if self.n and int(self.offsets[-1]) != len(self.targets):
            raise InvalidProcessError("CSR offsets do not match the arc arrays")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_lts(cls, lts) -> "CSRArrays":
        """Adopt an interned :class:`~repro.core.lts.LTS` (zero-copy).

        ``array('l')`` and ``int64`` share a memory layout on the supported
        platforms, so the ndarrays are views over the LTS's buffers, not
        copies.
        """
        np = require_numpy()
        return cls(
            lts.n,
            lts.num_actions,
            np.frombuffer(lts.fwd_offsets, dtype=np.int64)
            if len(lts.fwd_offsets)
            else np.zeros(1, dtype=np.int64),
            np.frombuffer(lts.fwd_actions, dtype=np.int64)
            if len(lts.fwd_actions)
            else np.zeros(0, dtype=np.int64),
            np.frombuffer(lts.fwd_targets, dtype=np.int64)
            if len(lts.fwd_targets)
            else np.zeros(0, dtype=np.int64),
            start=lts.start,
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_transitions(self) -> int:
        return int(len(self.targets))

    def sources(self):
        """Per-arc source states, expanded from the offsets (``O(m)``)."""
        np = require_numpy()
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.offsets))

    def equal(self, other: "CSRArrays") -> bool:
        """Exact structural equality of two CSR edge sets (mmap-safe)."""
        np = require_numpy()
        return (
            self.n == other.n
            and self.num_actions == other.num_actions
            and self.start == other.start
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.actions, other.actions)
            and np.array_equal(self.targets, other.targets)
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, m={self.num_transitions}, "
            f"actions={self.num_actions})"
        )


class MmapCSR(CSRArrays):
    """:class:`CSRArrays` whose arrays are ``numpy.memmap`` files on disk.

    A store is a directory with three ``.npy`` files (``offsets.npy``,
    ``actions.npy``, ``targets.npy``) and a ``meta.json`` carrying
    ``(n, num_actions, start)``.  :meth:`create` pre-allocates the files so a
    streaming producer (a generator such as
    :func:`~repro.generators.families.shift_register_csr`) can fill them
    chunk by chunk without ever holding the edge set in RAM; :meth:`open`
    maps an existing store read-only.  Everything a :class:`CSRArrays`
    accepts works on the mapped arrays, so the vectorized refinement runs
    unchanged on top -- the OS pages edges in and out as the per-round
    gathers touch them.
    """

    META_NAME = "meta.json"

    @classmethod
    def create(cls, directory, n, num_actions, num_transitions, start=0) -> "MmapCSR":
        """Pre-allocate a writable store for a known-size edge set."""
        np = require_numpy()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        offsets = np.lib.format.open_memmap(
            directory / "offsets.npy", mode="w+", dtype=np.int64, shape=(n + 1,)
        )
        actions = np.lib.format.open_memmap(
            directory / "actions.npy", mode="w+", dtype=np.int64, shape=(num_transitions,)
        )
        targets = np.lib.format.open_memmap(
            directory / "targets.npy", mode="w+", dtype=np.int64, shape=(num_transitions,)
        )
        (directory / cls.META_NAME).write_text(
            json.dumps({"n": int(n), "num_actions": int(num_actions), "start": int(start)}),
            encoding="utf-8",
        )
        store = cls.__new__(cls)
        store.n = int(n)
        store.num_actions = int(num_actions)
        store.offsets = offsets
        store.actions = actions
        store.targets = targets
        store.start = int(start)
        return store

    @classmethod
    def open(cls, directory, mode: str = "r") -> "MmapCSR":
        """Map an existing store (read-only by default)."""
        np = require_numpy()
        directory = Path(directory)
        meta = json.loads((directory / cls.META_NAME).read_text(encoding="utf-8"))
        store = cls.__new__(cls)
        store.n = int(meta["n"])
        store.num_actions = int(meta["num_actions"])
        store.start = int(meta.get("start", 0))
        store.offsets = np.load(directory / "offsets.npy", mmap_mode=mode)
        store.actions = np.load(directory / "actions.npy", mmap_mode=mode)
        store.targets = np.load(directory / "targets.npy", mmap_mode=mode)
        return store

    def flush(self) -> None:
        """Flush writable maps to disk (no-op for read-only maps)."""
        for arr in (self.offsets, self.actions, self.targets):
            if hasattr(arr, "flush"):
                arr.flush()


def state_index(fsp: FSP) -> dict[str, int]:
    """A deterministic state -> row/column index mapping (sorted by name)."""
    return {state: idx for idx, state in enumerate(sorted(fsp.states))}


def adjacency_matrix(fsp: FSP, action: str) -> list[list[bool]]:
    """The boolean adjacency matrix ``M_action`` of the ``->^action`` relation."""
    index = state_index(fsp)
    size = len(index)
    matrix = [[False] * size for _ in range(size)]
    for src, act, dst in fsp.transitions:
        if act == action:
            matrix[index[src]][index[dst]] = True
    return matrix


def boolean_multiply(
    left: Sequence[Sequence[bool]], right: Sequence[Sequence[bool]]
) -> list[list[bool]]:
    """Boolean matrix product.  Uses numpy when available."""
    size = len(left)
    if _np is not None:
        a = _np.array(left, dtype=bool)
        b = _np.array(right, dtype=bool)
        return (a @ b).astype(bool).tolist()
    result = [[False] * size for _ in range(size)]
    for i in range(size):
        row = left[i]
        out = result[i]
        for k in range(size):
            if row[k]:
                rrow = right[k]
                for j in range(size):
                    if rrow[j]:
                        out[j] = True
    return result


def reflexive_transitive_closure(matrix: Sequence[Sequence[bool]]) -> list[list[bool]]:
    """The reflexive-transitive closure of a boolean relation (Warshall).

    This is the ``M_epsilon`` of Theorem 4.1(a): the closure of the
    tau-adjacency matrix.
    """
    size = len(matrix)
    closure = [list(row) for row in matrix]
    for i in range(size):
        closure[i][i] = True
    for k in range(size):
        row_k = closure[k]
        for i in range(size):
            if closure[i][k]:
                row_i = closure[i]
                for j in range(size):
                    if row_k[j]:
                        row_i[j] = True
    return closure


def weak_transition_matrices(fsp: FSP) -> dict[str, list[list[bool]]]:
    """The matrices of the weak relations ``=>^sigma`` for every observable action.

    Implements the two-step procedure in the proof of Theorem 4.1(a):

    1. compute ``M_epsilon``, the reflexive-transitive closure of the tau
       relation;
    2. for each observable ``sigma``, compute ``M_epsilon . M_sigma . M_epsilon``.

    The result also contains the ``M_epsilon`` matrix under the key ``""``.
    """
    tau_matrix = adjacency_matrix(fsp, TAU)
    epsilon = reflexive_transitive_closure(tau_matrix)
    result: dict[str, list[list[bool]]] = {"": epsilon}
    for action in fsp.alphabet:
        sigma = adjacency_matrix(fsp, action)
        result[action] = boolean_multiply(boolean_multiply(epsilon, sigma), epsilon)
    return result


def matrix_to_pairs(fsp: FSP, matrix: Sequence[Sequence[bool]]) -> frozenset[tuple[str, str]]:
    """Convert a boolean matrix back to a set of (source, target) state pairs."""
    names = sorted(fsp.states)
    pairs = set()
    for i, src in enumerate(names):
        row = matrix[i]
        for j, dst in enumerate(names):
            if row[j]:
                pairs.add((src, dst))
    return frozenset(pairs)
