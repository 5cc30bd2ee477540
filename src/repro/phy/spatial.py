"""Uniform-grid spatial index over 2-D or 3-D node positions.

The sparse link budget (:mod:`repro.phy.channel`) and the large-topology
connectivity check (:mod:`repro.topology.placement`) both need the same
primitive: *which nodes sit within radius r of this node*, answered without
materializing the O(n²) pairwise-distance matrix.  :class:`UniformGrid`
hashes every node into a cubic cell of side ``cell_size_m`` and stores the
membership as one id array sorted by cell key — a CSR-style layout queried
with two :func:`numpy.searchsorted` calls per cell, so candidate generation
for a whole batch of sources is a handful of vectorized passes instead of a
Python loop over nodes.

The grid is dimension-agnostic: the cell key is a mixed-radix encoding of
the per-axis cell coordinates, and the query neighborhood is the Cartesian
product of per-axis offsets — 3×3 (9 cells) in 2-D, 3×3×3 (27 cells) in
3-D.  With ``cell_size_m >= r`` every pair within r falls inside that
1-cell neighborhood (``reach_cells=1``); larger query radii widen it via
``reach_cells``.  Candidates are a superset of the true neighbors — callers
apply their own exact distance or power test — but the superset is bounded
by local density, so the whole pipeline is O(n·k), not O(n²).
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["UniformGrid", "neighbor_pairs"]

_EMPTY = np.empty(0, dtype=np.int64)


class UniformGrid:
    """Uniform hash grid with sorted-key (CSR-style) cell membership."""

    def __init__(self, positions: np.ndarray, cell_size_m: float):
        if cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        self.cell_size_m = float(cell_size_m)
        self.rebin(positions)

    # ------------------------------------------------------------- building

    def rebin(self, positions: np.ndarray) -> None:
        """(Re)assign every node to its cell — one vectorized O(n) pass.

        Mobility calls this each tick with mostly-unchanged positions; the
        binning itself is cheap (a floor-divide, a normalize and an argsort),
        it is the *link budget* downstream that is worth recomputing only
        for the rows that are read.
        """
        positions = np.asarray(positions, dtype=float)
        n = len(positions)
        self.n = n
        if n == 0:
            self.dim = 2
            self._cells: list[np.ndarray] = [_EMPTY, _EMPTY]
            self._ncells: list[int] = [1, 1]
            self._origin = np.zeros(2, dtype=np.int64)
            self._order = self._sorted_keys = _EMPTY
            return
        if positions.ndim != 2 or positions.shape[1] not in (2, 3):
            raise ValueError(
                f"positions must be (N, 2) or (N, 3), got {positions.shape}")
        self.dim = positions.shape[1]
        absolute = self.cell_of(positions)
        # Normalize to a zero-based box so linear keys stay small and
        # positive whatever the coordinate frame.  The frame follows the
        # minimum cell, so cells compared across rebins are absolute.
        self._origin = absolute.min(axis=0)
        relative = absolute - self._origin
        self._cells = [np.ascontiguousarray(relative[:, a])
                       for a in range(self.dim)]
        self._ncells = [int(c.max()) + 1 for c in self._cells]
        # Mixed-radix linear key: for 2-D exactly the historical
        # ``cx * ncy + cy``, so 2-D candidate order (and therefore the
        # sparse link budget's bit-identity guarantee) is unchanged.
        keys = self._linear_keys(relative)
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]

    def cell_of(self, positions: np.ndarray) -> np.ndarray:
        """Absolute (frame-independent) ``(k, dim)`` integer cells."""
        return np.floor(np.asarray(positions, dtype=float)
                        / self.cell_size_m).astype(np.int64)

    def _linear_keys(self, cells: np.ndarray,
                     radix: list[int] | None = None) -> np.ndarray:
        keys = cells[:, 0]
        for axis in range(1, self.dim):
            keys = keys * (radix or self._ncells)[axis] + cells[:, axis]
        return keys

    # -------------------------------------------------------------- queries

    def candidates(self, sources: np.ndarray,
                   reach_cells: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ``(src, dst)`` pairs for every source id in ``sources``.

        ``dst`` ranges over every node in the ``(2·reach_cells+1)**dim``
        cell neighborhood of its source (self-pairs excluded).  Pairs come
        back unsorted and deduplicated-by-construction (neighbor cells are
        disjoint); callers typically sort/filter downstream.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if self.n == 0 or len(sources) == 0:
            return _EMPTY, _EMPTY
        # A pathological radius can exceed the whole grid; clamp the loop.
        reach_cells = min(int(reach_cells), max(self._ncells))
        src_cells = [c[sources] for c in self._cells]
        offsets = range(-reach_cells, reach_cells + 1)
        out_src: list[np.ndarray] = []
        out_dst: list[np.ndarray] = []
        # itertools.product iterates the last axis fastest — for 2-D the
        # exact (dx outer, dy inner) order of the historical nested loops.
        for delta in itertools.product(offsets, repeat=self.dim):
            valid = None
            keys = None
            for axis, (d, nc) in enumerate(zip(delta, self._ncells)):
                nco = src_cells[axis] + d
                ok = (nco >= 0) & (nco < nc)
                valid = ok if valid is None else (valid & ok)
                keys = nco if keys is None else keys * nc + nco
            if not valid.any():
                continue
            keys = keys[valid]
            src_sel = sources[valid]
            lo = np.searchsorted(self._sorted_keys, keys, side="left")
            hi = np.searchsorted(self._sorted_keys, keys, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                continue
            # Segment-arange expansion: for source s with occupied
            # neighbor cell [lo, hi), emit order[lo], …, order[hi-1].
            rep_src = np.repeat(src_sel, counts)
            starts = np.repeat(lo, counts)
            segment = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts)
            out_src.append(rep_src)
            out_dst.append(self._order[starts + segment])
        if not out_src:
            return _EMPTY, _EMPTY
        srcs = np.concatenate(out_src)
        dsts = np.concatenate(out_dst)
        keep = srcs != dsts
        return srcs[keep], dsts[keep]

    def neighborhood(self, node: int, reach_cells: int = 1) -> np.ndarray:
        """Ids in the ``(2·reach_cells+1)**dim`` cell neighborhood of
        ``node`` (itself included), unsorted — the one-source form of
        :meth:`candidates`.  The neighborhood is runs of consecutive keys
        along the last axis, found by one pair of searchsorted calls
        instead of a vectorized pass per neighbor cell."""
        spans = [range(max(int(c[node]) - reach_cells, 0),
                       min(int(c[node]) + reach_cells + 1, n))
                 for c, n in zip(self._cells, self._ncells)]
        run = spans[-1]
        starts = self._linear_keys(
            np.array(list(itertools.product(*spans[:-1], run[:1]))))
        keys = self._sorted_keys
        lo = keys.searchsorted(starts, "left").tolist()
        hi = keys.searchsorted(starts + (len(run) - 1), "right").tolist()
        return np.concatenate([self._order[a:b] for a, b in zip(lo, hi)])

    def members_near(self, cells: np.ndarray) -> np.ndarray:
        """Sorted ids of the nodes whose cell lies within one cell (per axis)
        of any absolute cell in ``cells`` (``(k, dim)``, as :meth:`cell_of`
        returns).  O(k·3**dim + n)."""
        # Key cells in the grid's frame padded by two cells per side: nodes
        # sit in padded cells 2..nc+1, so only query cells in 1..nc+2 can
        # touch one, and a one-cell step from those stays in 0..nc+3 — a
        # fixed key offset that never wraps an axis.
        radix = [nc + 4 for nc in self._ncells]
        rel = cells - self._origin + 2
        rel = rel[((rel >= 1) & (rel <= np.array(radix) - 2)).all(axis=1)]
        steps = self._linear_keys(
            np.array(list(itertools.product((-1, 0, 1), repeat=self.dim))),
            radix)
        near = (self._linear_keys(rel, radix)[:, None] + steps).ravel()
        nodes = self._linear_keys(np.stack(self._cells, axis=1) + 2, radix)
        return np.flatnonzero(np.isin(nodes, near))

    def index_bytes(self) -> int:
        """Approximate bytes held by the index arrays (for the channel's
        link-budget gauge)."""
        return (self._sorted_keys.nbytes + self._order.nbytes
                + sum(c.nbytes for c in self._cells))


def neighbor_pairs(positions: np.ndarray,
                   range_m: float) -> tuple[np.ndarray, np.ndarray]:
    """All directed ``(src, dst)`` pairs with ``distance <= range_m``,
    computed through the grid in O(n·k) — the sparse counterpart of
    :func:`repro.topology.placement.adjacency`.  Dimension-agnostic: the
    exact distance test sums squared deltas over however many axes the
    positions carry."""
    positions = np.asarray(positions, dtype=float)
    if len(positions) == 0:
        return _EMPTY, _EMPTY
    grid = UniformGrid(positions, max(float(range_m), 1e-9))
    srcs, dsts = grid.candidates(np.arange(len(positions)))
    if len(srcs) == 0:
        return srcs, dsts
    diff = positions[srcs] - positions[dsts]
    within = (diff ** 2).sum(axis=-1) <= float(range_m) ** 2
    return srcs[within], dsts[within]
