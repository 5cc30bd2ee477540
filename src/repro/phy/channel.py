"""The shared wireless medium.

The channel owns node positions and the propagation model, precomputing the
link budget so the per-transmission hot path reduces to an indexed lookup
plus one scheduler call per reachable neighbor.  "Reachable" means
*sensable*: every node that would register energy above its carrier-sense
threshold gets the frame's leading and trailing edges, because carrier
sensing by non-decoders is part of the protocols' behaviour.

Two interchangeable link-budget representations exist (``link_budget=``):

* ``"dense"`` — the full N×N distance/power/delay matrices, vectorized in
  one numpy pass.  Simple, and exposes the matrices (``distance_m``,
  ``rx_power_dbm``, ``delay_s``) for inspection; O(n²) memory and rebuild
  time, which caps topologies at a few thousand nodes.
* ``"sparse"`` — a uniform-grid spatial index (:mod:`repro.phy.spatial`)
  sized to the reach radius, storing only per-source CSR-style
  reach/power/delay arrays for pairs that can actually hear each other:
  O(n·k) in the local density k.  :meth:`set_positions` builds every row
  in one batched pass; :meth:`move_nodes` and :meth:`set_link_offsets`
  only mark the rows they change *dirty*, and a dirty row is rebuilt
  alone when :meth:`transmit` or :meth:`neighbors` next reads it.  Both
  representations produce bit-identical reach lists, powers and delays
  (the golden-equivalence tests pin this), so results never depend on
  the choice.

``"auto"`` (the default) picks sparse for large shadowing-free topologies
and dense otherwise.

Per-link propagation delay (distance / c) is modelled by default.  The paper
treats it as negligible — and at these scales it is (µs against ms-scale
backoffs) — but keeping it nonzero breaks exact ties between receivers
naturally instead of through scheduler ordering.

The channel is also where the evaluation's "Number of MAC Packets" metric is
counted: every frame put on the air increments :attr:`tx_count`, bucketed by
frame kind.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.phy.propagation import SPEED_OF_LIGHT, PropagationModel
from repro.phy.spatial import UniformGrid
from repro.sim.components import Component, SimContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frame import Frame
    from repro.phy.radio import Transceiver

__all__ = ["Channel", "AUTO_SPARSE_MIN_NODES", "NEIGHBOR_CACHE_THRESHOLDS"]

#: ``link_budget="auto"`` switches to the sparse representation at this many
#: nodes (dense wins below it: the matrices are small and the vectorized
#: full-matrix pass has less per-call overhead).
AUTO_SPARSE_MIN_NODES = 1024

#: Distinct explicit thresholds memoized by :meth:`Channel.neighbors` before
#: the least-recently-used one is evicted — bounds the cache under
#: ``reach_threshold_dbm`` sweeps.
NEIGHBOR_CACHE_THRESHOLDS = 32

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=float)


class Channel(Component):
    """Broadcast medium connecting every registered transceiver.

    Parameters
    ----------
    positions:
        ``(N, 2)`` or ``(N, 3)`` array of node coordinates in meters.  The
        channel's dimensionality is fixed at construction from this shape;
        every later position update must match it.
    model:
        Propagation model used for the link budget.
    tx_power_dbm:
        Transmit power, identical for all nodes (as in the paper).
    reach_threshold_dbm:
        Minimum received power at which a frame is delivered to a node at
        all.  Set this to the *lowest* carrier-sense threshold in the
        network; radios discard what they cannot even sense.
    propagation_delay:
        Model per-link delay of ``distance / c`` when True.
    link_budget:
        ``"dense"``, ``"sparse"`` or ``"auto"`` (see the module docstring).
        Per-link shadowing requires the dense representation (the shadowing
        draw is itself an N×N matrix); ``"auto"`` respects that,
        ``"sparse"`` raises.
    """

    def __init__(
        self,
        ctx: SimContext,
        positions: np.ndarray,
        model: PropagationModel,
        tx_power_dbm: float,
        reach_threshold_dbm: float,
        propagation_delay: bool = True,
        shadowing_sigma_db: float = 0.0,
        shadowing_asymmetric: bool = False,
        link_budget: str = "auto",
    ):
        super().__init__(ctx, "channel")
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] not in (2, 3):
            raise ValueError(
                f"positions must be (N, 2) or (N, 3), got {positions.shape}")
        if shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        if link_budget not in ("dense", "sparse", "auto"):
            raise ValueError(
                f"link_budget must be 'dense', 'sparse' or 'auto', "
                f"got {link_budget!r}")
        if link_budget == "sparse" and shadowing_sigma_db > 0:
            raise ValueError(
                "the sparse link budget does not support per-link shadowing "
                "(the shadowing draw is an N×N matrix); use link_budget="
                "'dense' or 'auto'")
        self.model = model
        self.tx_power_dbm = float(tx_power_dbm)
        self.reach_threshold_dbm = float(reach_threshold_dbm)
        self._propagation_delay = propagation_delay
        self.n_nodes = len(positions)
        #: Coordinate dimensionality (2 or 3), fixed at construction.
        self.dim = int(positions.shape[1])
        #: Requested representation ("dense" | "sparse" | "auto").
        self.link_budget_mode = link_budget
        #: Resolved representation actually in use ("dense" | "sparse").
        self.link_budget = (
            "sparse" if link_budget == "sparse"
            or (link_budget == "auto"
                and self.n_nodes >= AUTO_SPARSE_MIN_NODES
                and shadowing_sigma_db == 0)
            else "dense")

        #: Per-link log-normal shadowing (dB), fixed per link for the run.
        #: Symmetric by default; asymmetric shadowing produces the
        #: *unidirectional links* whose effect on Routeless Routing the paper
        #: discusses ("may negatively affect the efficiency, but not the
        #: correctness").
        if shadowing_sigma_db > 0:
            rng = ctx.streams.stream("channel.shadowing")
            raw = rng.normal(0.0, shadowing_sigma_db,
                             size=(self.n_nodes, self.n_nodes))
            if not shadowing_asymmetric:
                raw = (raw + raw.T) / np.sqrt(2.0)  # symmetrize, keep sigma
            np.fill_diagonal(raw, 0.0)
            self.shadowing_db = raw
        else:
            self.shadowing_db = None

        # With stochastic fading a deep fade can only lose frames, never
        # extend reach beyond +fade_headroom_db; reach lists are widened by
        # that headroom so constructive fades still deliver.
        self._headroom_db = 10.0 if model.stochastic else 0.0

        #: Per-link additive pathloss offsets (dB) — the fault injector's
        #: handle on the medium (link degradation, asymmetry, partitions).
        #: ``offsets[i, j]`` (or ``offsets[(i, j)]`` in mapping form) is
        #: added to the i→j link budget, so a negative value degrades the
        #: link and ``-inf``-like values sever it; asymmetric offsets give
        #: unidirectional links.  Dense mode keeps the matrix; sparse mode
        #: keeps only the offset-bearing pairs.
        self._link_offset_db: np.ndarray | None = None
        self._offset_pairs: dict[tuple[int, int], float] = {}
        self._offset_pk: np.ndarray = _EMPTY_IDS  # sorted i*n+j keys
        self._offset_vals: np.ndarray = _EMPTY_F64
        self._offset_src: np.ndarray = _EMPTY_IDS

        #: Link-budget rows computed so far, by full builds and the sparse
        #: one-row refresh alike — an exact work counter.
        self.rows_built = 0
        #: Sparse rows a move or an offset change left out of date; each is
        #: rebuilt when it is next read.
        self._stale: set[int] = set()

        # Sparse machinery (populated by set_positions in sparse mode).
        self._grid: UniformGrid | None = None
        self._candidate_radius_m = 0.0
        self._threshold_radius: dict[float, float] = {}
        if self.link_budget == "sparse":
            self._candidate_radius_m = model.max_range_m(
                self.tx_power_dbm,
                self.reach_threshold_dbm - self._headroom_db)
            self._reach: list[np.ndarray] = [_EMPTY_IDS] * self.n_nodes
            self._reach_power_arrays: list[np.ndarray] = \
                [_EMPTY_F64] * self.n_nodes
            self._reach_ids: list[list] = [[]] * self.n_nodes
            self._reach_powers: list[list] = [[]] * self.n_nodes
            self._reach_delays: list[list] = [[]] * self.n_nodes

        #: LRU memo for explicit-threshold :meth:`neighbors` queries:
        #: threshold -> {node_id -> ids}, bounded to
        #: :data:`NEIGHBOR_CACHE_THRESHOLDS` distinct thresholds.
        self._neighbors_cache: OrderedDict[float, dict[int, np.ndarray]] = \
            OrderedDict()

        self.set_positions(positions)

        # Dense, id-indexed: transmit() does one list index per receiver
        # instead of a dict lookup + int() conversion.
        self._radios: list["Transceiver | None"] = [None] * self.n_nodes
        self._token = itertools.count()
        self._fade_rng = ctx.streams.stream("channel.fading")

        #: Total frames put on the air (the paper's MAC packet count).
        self.tx_count = 0
        #: Same, bucketed by ``frame.kind``.
        self.tx_count_by_kind: Counter[str] = Counter()
        #: Cumulative airtime of every transmission (seconds).  Divided by
        #: elapsed time this is the network-wide offered channel load —
        #: >1 means spatial reuse is carrying more than one medium's worth.
        self.airtime_s = 0.0
        self.airtime_by_kind: Counter[str] = Counter()

    # ---------------------------------------------------------------- wiring

    def set_positions(self, positions: np.ndarray) -> None:
        """(Re)compute the link budget for new node positions.

        Called at construction and on wholesale placement changes.  Dense
        mode recomputes the full N×N matrices in one vectorized pass;
        sparse mode re-bins the grid and eagerly rebuilds every per-source
        row in one batched pass (still O(n·k)), leaving no row dirty.
        Mobility managers should prefer :meth:`move_nodes`, which only
        marks the affected rows dirty.  Frames already in flight keep the
        power they were launched with (mobility ticks are coarse against
        packet airtimes).
        """
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (self.n_nodes, self.dim):
            raise ValueError(
                f"positions must be ({self.n_nodes}, {self.dim}) for this "
                f"{self.dim}-D channel, got {positions.shape}")
        self.positions = positions.copy()
        if self.link_budget == "sparse":
            self._rebin_grid()
            self._build_rows()
        else:
            self._rebuild_dense_geometry()
            self._rebuild_dense_power()
        self._after_rebuild()

    def move_nodes(self, ids, new_positions) -> None:
        """Incremental mobility update: ``ids`` moved to ``new_positions``.

        Sparse mode re-bins the grid and marks dirty every source whose
        cell lies within one cell of a moved node's old or new cell, plus
        the sources of offset-bearing links to a moved node: O(|ids|·3**dim
        + n), no row recomputed.  Dense mode falls back to the full
        recomputation.  Every row read afterwards is bit-identical to a
        full :meth:`set_positions` with the same final positions.
        """
        ids = np.asarray(ids, dtype=np.int64)
        new_positions = np.asarray(new_positions, dtype=float)
        if new_positions.shape != (len(ids), self.dim):
            raise ValueError(
                f"new_positions must be ({len(ids)}, {self.dim}) for this "
                f"{self.dim}-D channel, got {new_positions.shape}")
        if len(ids) == 0:
            return
        if len(ids) and (ids.min() < 0 or ids.max() >= self.n_nodes):
            raise ValueError(f"node ids out of range 0..{self.n_nodes - 1}")
        if self.link_budget != "sparse":
            self.positions[ids] = new_positions
            self._rebuild_dense_geometry()
            self._rebuild_dense_power()
            self._after_rebuild()
            return
        assert self._grid is not None
        # Absolute cells: the re-bin may shift the grid's normalized frame.
        old_cells = self._grid.cell_of(self.positions[ids])
        self.positions[ids] = new_positions
        self._rebin_grid()
        self._stale.update(self._grid.members_near(np.concatenate(
            [old_cells, self._grid.cell_of(new_positions)])).tolist())
        if len(self._offset_pk):
            # An offset-bearing pair is in its source's row at any range.
            hit = np.isin(self._offset_pk % self.n_nodes, ids)
            self._stale.update(self._offset_src[hit].tolist())
        self._after_rebuild()

    def set_link_offsets(
        self,
        offsets_db: "np.ndarray | Mapping[tuple[int, int], float] | None",
    ) -> None:
        """Install (or clear, with ``None``) per-link pathloss offsets and
        patch the link budget.

        Fault-injection entry point.  Accepts a full N×N matrix or a sparse
        ``{(i, j): db}`` mapping.  Positions are unchanged by definition, so
        neither representation recomputes geometry: dense mode re-derives
        power/reach from the cached distance matrix (no pathloss model
        evaluation), sparse mode marks dirty the rows of sources that carry
        an offset before or after this call (rebuilt when next read).
        Frames already in flight keep the power they were launched with.
        """
        pairs = self._normalize_offsets(offsets_db)
        if self.link_budget == "sparse":
            self._stale.update(i for i, _ in [*self._offset_pairs, *pairs])
            self._store_sparse_offsets(pairs)
        else:
            if pairs:
                matrix = np.zeros((self.n_nodes, self.n_nodes))
                for (i, j), db in pairs.items():
                    matrix[i, j] = db
                self._link_offset_db = matrix
            else:
                self._link_offset_db = None
            self._offset_pairs = dict(pairs)
            self._rebuild_dense_power()
        self._after_rebuild()

    def _normalize_offsets(self, offsets_db) -> dict[tuple[int, int], float]:
        """Validate either offset form into a ``{(i, j): db}`` dict."""
        if offsets_db is None:
            return {}
        if isinstance(offsets_db, np.ndarray):
            if offsets_db.shape != (self.n_nodes, self.n_nodes):
                raise ValueError(
                    f"offsets must be ({self.n_nodes}, {self.n_nodes}), "
                    f"got {offsets_db.shape}")
            rows, cols = np.nonzero(offsets_db)
            return {(int(i), int(j)): float(offsets_db[i, j])
                    for i, j in zip(rows, cols)}
        pairs: dict[tuple[int, int], float] = {}
        for (i, j), db in dict(offsets_db).items():
            i, j = int(i), int(j)
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(
                    f"offset pair ({i}, {j}) outside 0..{self.n_nodes - 1}")
            if db != 0.0:
                pairs[(i, j)] = float(db)
        return pairs

    def _store_sparse_offsets(self, pairs: dict[tuple[int, int], float]) -> None:
        self._offset_pairs = dict(pairs)
        if pairs:
            n = self.n_nodes
            pk = np.fromiter((i * n + j for i, j in pairs),
                             dtype=np.int64, count=len(pairs))
            vals = np.fromiter(pairs.values(), dtype=float, count=len(pairs))
            order = np.argsort(pk)
            self._offset_pk = pk[order]
            self._offset_vals = vals[order]
            self._offset_src = self._offset_pk // n
        else:
            self._offset_pk = _EMPTY_IDS
            self._offset_vals = _EMPTY_F64
            self._offset_src = _EMPTY_IDS

    def register(self, radio: "Transceiver") -> None:
        if not 0 <= radio.node_id < self.n_nodes:
            raise ValueError(f"node id {radio.node_id} out of range 0..{self.n_nodes - 1}")
        if self._radios[radio.node_id] is not None:
            raise ValueError(f"node {radio.node_id} already registered")
        self._radios[radio.node_id] = radio

    # ----------------------------------------------------- dense link budget

    def _rebuild_dense_geometry(self) -> None:
        """Distances, delays and the offset-free power matrix — the
        expensive vectorized pass, skipped when only offsets change."""
        positions = self.positions
        diff = positions[:, None, :] - positions[None, :, :]
        self.distance_m = np.sqrt((diff**2).sum(axis=-1))
        base = self.model.rx_power_dbm(self.tx_power_dbm, self.distance_m)
        if self.shadowing_db is not None:
            base = base + self.shadowing_db
        self._base_power_dbm = base

        # Per-link propagation delay, cached once per placement instead of
        # dividing by c on every transmit.
        if self._propagation_delay:
            self.delay_s = self.distance_m / SPEED_OF_LIGHT
        else:
            self.delay_s = np.zeros_like(self.distance_m)

    def _rebuild_dense_power(self) -> None:
        """Fold offsets into the cached base power and re-derive the reach
        lists — the cheap half of a dense rebuild, sufficient on its own
        for fault transitions (positions unchanged)."""
        if self._link_offset_db is not None:
            self.rx_power_dbm = self._base_power_dbm + self._link_offset_db
        else:
            self.rx_power_dbm = self._base_power_dbm

        # reach[i] = receiver ids whose mean rx power from i clears the
        # floor (self excluded), widened by the stochastic fade headroom.
        reachable = self.rx_power_dbm >= (self.reach_threshold_dbm
                                          - self._headroom_db)
        np.fill_diagonal(reachable, False)
        self._reach = [np.flatnonzero(reachable[i]) for i in range(self.n_nodes)]
        self.rows_built += self.n_nodes

        # Hot-path mirrors of the per-source slices: transmit() iterates
        # plain Python lists (no numpy scalar boxing per receiver) and, for
        # stochastic models, adds the fade to a pre-sliced power array.
        self._reach_ids = [r.tolist() for r in self._reach]
        self._reach_power_arrays = [self.rx_power_dbm[i, r]
                                    for i, r in enumerate(self._reach)]
        self._reach_powers = [p.tolist() for p in self._reach_power_arrays]
        self._reach_delays = [self.delay_s[i, r].tolist()
                              for i, r in enumerate(self._reach)]

    # ---------------------------------------------------- sparse link budget

    def _rebin_grid(self) -> None:
        cell = max(self._candidate_radius_m, 1.0)
        if self._grid is None or self._grid.cell_size_m != cell:
            self._grid = UniformGrid(self.positions, cell)
        else:
            self._grid.rebin(self.positions)

    def _offsets_for_keys(self, pk: np.ndarray) -> np.ndarray:
        """Vectorized offset lookup for packed ``src * n + dst`` keys."""
        out = np.zeros(len(pk))
        if len(self._offset_pk):
            pos = np.searchsorted(self._offset_pk, pk)
            pos_c = np.minimum(pos, len(self._offset_pk) - 1)
            hit = self._offset_pk[pos_c] == pk
            out[hit] = self._offset_vals[pos_c[hit]]
        return out

    def _build_rows(self) -> None:
        """Build every per-source reach/power/delay row in one vectorized
        pass over the grid's candidate pairs."""
        assert self._grid is not None
        n = self.n_nodes
        srcs, dsts = self._grid.candidates(np.arange(n, dtype=np.int64))
        srcs, dsts, power, delay = self._link_values(srcs * n + dsts,
                                                     self._offset_pk)
        counts = np.bincount(srcs, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indptr = indptr.tolist()  # plain-int slice bounds: faster slicing
        ids_list = dsts.tolist()
        powers_list = power.tolist()
        delays_list = delay.tolist()
        # Batch the per-source slicing through shared slice objects —
        # measurably faster than an indexed store loop at n=10k.
        slices = list(map(slice, indptr[:-1], indptr[1:]))
        self._reach = [dsts[sl] for sl in slices]
        self._reach_power_arrays = [power[sl] for sl in slices]
        self._reach_ids = [ids_list[sl] for sl in slices]
        self._reach_powers = [powers_list[sl] for sl in slices]
        self._reach_delays = [delays_list[sl] for sl in slices]
        self._stale.clear()
        self.rows_built += n

    def _refresh_row(self, src: int) -> None:
        """Rebuild the dirty row of ``src`` alone, from the same candidate
        set as :meth:`_build_rows` (the source's grid neighborhood), so the
        row is bit-identical to a batched build's."""
        assert self._grid is not None
        self._stale.discard(src)
        dsts = self._grid.neighborhood(src)
        _, dsts, power, delay = self._link_values(
            src * self.n_nodes + dsts[dsts != src],
            self._offset_pk[self._offset_src == src])
        self._reach[src] = dsts
        self._reach_power_arrays[src] = power
        self._reach_ids[src] = dsts.tolist()
        self._reach_powers[src] = power.tolist()
        self._reach_delays[src] = delay.tolist()
        self.rows_built += 1

    def _link_values(self, pk: np.ndarray, offset_pk: np.ndarray,
                     floor_dbm: float | None = None,
                     radius_m: float | None = None):
        """Packed ``src * n + dst`` grid candidates (within ``radius_m``)
        and offset-bearing pairs in; the sorted ``(src, dst)`` pairs that
        clear ``floor_dbm`` (default: the reach floor) with their powers
        and delays out — the dense matrices' arithmetic, bit-identical."""
        n = self.n_nodes
        if len(offset_pk):
            # Offset-bearing pairs are candidates even beyond the grid
            # radius: a positive offset can extend reach.
            pk = np.unique(np.concatenate([pk, offset_pk]))
        else:
            # Grid candidates are unique by construction (neighbor cells
            # are disjoint): a plain sort gives the same (src, dst) order
            # np.unique would, at a fraction of the cost.
            pk.sort()
        srcs = pk // n
        dsts = pk % n
        # Per-axis 1-D gathers; the left-to-right ``dx*dx + dy*dy
        # [+ dz*dz]`` sum is bit-identical to the dense matrix's
        # ``(diff**2).sum(axis=-1)`` (numpy's axis sum over 2 or 3
        # elements is the same sequential addition order).
        d2 = None
        for a in range(self.dim):
            axis = self.positions[:, a]
            delta = axis[srcs] - axis[dsts]
            sq = delta * delta
            d2 = sq if d2 is None else d2 + sq
        if not len(self._offset_pk):
            # No offsets can rescue a far pair, so prune the square-cell
            # corners by squared distance before paying for sqrt/log10 on
            # them — only ~π/9 of candidates survive.  The slack absorbs
            # ulp-level rounding; the exact power test below still decides.
            r = (self._candidate_radius_m if radius_m is None
                 else radius_m) + 1e-6
            within = d2 <= r * r
            pk = pk[within]
            d2 = d2[within]
        dist = np.sqrt(d2)
        power = self.model.rx_power_dbm(self.tx_power_dbm, dist)
        if len(self._offset_pk):
            power = power + self._offsets_for_keys(pk)
        if floor_dbm is None:
            floor_dbm = self.reach_threshold_dbm - self._headroom_db
        keep = power >= floor_dbm
        pk = pk[keep]
        dist = dist[keep]
        delay = (dist / SPEED_OF_LIGHT if self._propagation_delay
                 else np.zeros_like(dist))
        return pk // n, pk % n, power[keep], delay

    # ------------------------------------------------------------- accessors

    def pair_distance_m(self, src_id: int, dst_id: int) -> float:
        """Distance between two nodes, independent of representation (the
        dense matrix entry and this scalar computation are bit-identical)."""
        if self.link_budget != "sparse":
            return float(self.distance_m[src_id, dst_id])
        p = self.positions
        d2 = 0.0
        for axis in range(self.dim):
            delta = p[src_id, axis] - p[dst_id, axis]
            d2 += delta * delta
        return math.sqrt(d2)

    def link_budget_bytes(self) -> int:
        """Approximate bytes held by the link-budget representation —
        what the ``repro_channel_link_budget_bytes`` gauge reports."""
        total = 0
        if self.link_budget == "sparse":
            for row in self._reach:
                total += row.nbytes
            for row in self._reach_power_arrays:
                total += row.nbytes
            # Python-list mirrors: ~8-byte slot per element, three lists
            # (the boxed floats/ints they reference are shared or cached).
            total += sum(len(r) for r in self._reach_ids) * 3 * 8
            total += self.positions.nbytes
            if self._grid is not None:
                total += self._grid.index_bytes()
        else:
            seen: set[int] = set()
            for arr in (self.distance_m, self._base_power_dbm,
                        self.rx_power_dbm, self.delay_s, self.shadowing_db,
                        self._link_offset_db):
                if arr is not None and id(arr) not in seen:
                    seen.add(id(arr))
                    total += arr.nbytes
            for row in self._reach_power_arrays:
                total += row.nbytes
            total += sum(len(r) for r in self._reach_ids) * 3 * 8
        return total

    def _after_rebuild(self) -> None:
        self._neighbors_cache.clear()
        if self.ctx.observing:
            self.ctx.obs.on_link_budget(self.link_budget_bytes())

    def _radius_for_threshold(self, threshold_dbm: float) -> float:
        radius = self._threshold_radius.get(threshold_dbm)
        if radius is None:
            radius = self.model.max_range_m(self.tx_power_dbm, threshold_dbm)
            if len(self._threshold_radius) >= NEIGHBOR_CACHE_THRESHOLDS:
                self._threshold_radius.clear()
            self._threshold_radius[threshold_dbm] = radius
        return radius

    def _sparse_neighbors(self, node_id: int, threshold_dbm: float) -> np.ndarray:
        """Explicit-threshold neighbor query against the grid: widen the
        cell neighborhood to the threshold's own radius, then apply the
        exact power test the dense row comparison would."""
        assert self._grid is not None
        radius = self._radius_for_threshold(threshold_dbm)
        dsts = self._grid.neighborhood(
            node_id, max(1, math.ceil(radius / self._grid.cell_size_m)))
        return self._link_values(
            node_id * self.n_nodes + dsts[dsts != node_id],
            self._offset_pk[self._offset_src == node_id],
            threshold_dbm, radius)[1]

    def neighbors(self, node_id: int, threshold_dbm: float | None = None) -> np.ndarray:
        """Node ids whose mean received power from ``node_id`` clears the
        threshold (defaults to the channel reach floor).

        The default-threshold answer is the precomputed reach row,
        rebuilt first if it is dirty — in sparse mode the stored rows can
        be out of date after :meth:`move_nodes` or :meth:`set_link_offsets`,
        so this is the way to read one.  Explicit thresholds are computed
        on demand and memoized in an LRU
        cache bounded to :data:`NEIGHBOR_CACHE_THRESHOLDS` distinct
        thresholds (invalidated by any link-budget rebuild), so threshold
        sweeps cannot grow the memo without limit.
        """
        if threshold_dbm is None:
            if node_id in self._stale:
                self._refresh_row(node_id)
            return self._reach[node_id]
        per_threshold = self._neighbors_cache.get(threshold_dbm)
        if per_threshold is None:
            while len(self._neighbors_cache) >= NEIGHBOR_CACHE_THRESHOLDS:
                self._neighbors_cache.popitem(last=False)
            per_threshold = {}
            self._neighbors_cache[threshold_dbm] = per_threshold
        else:
            self._neighbors_cache.move_to_end(threshold_dbm)
        cached = per_threshold.get(node_id)
        if cached is None:
            if self.link_budget == "sparse":
                cached = self._sparse_neighbors(node_id, threshold_dbm)
            else:
                ids = np.flatnonzero(self.rx_power_dbm[node_id] >= threshold_dbm)
                cached = ids[ids != node_id]
            per_threshold[node_id] = cached
        return cached

    # ------------------------------------------------------------- transmit

    def transmit(self, src_id: int, frame: "Frame", duration: float) -> None:
        """Deliver ``frame`` to every reachable radio.

        Called by the source transceiver, which has already entered TX.
        The per-source receiver/power/delay slices are precomputed by the
        link-budget rebuilds (a dirty sparse row is rebuilt first); this
        method is an indexed lookup plus one batched schedule call,
        identical under either representation.
        """
        kind = frame.kind
        self.tx_count += 1
        self.tx_count_by_kind[kind] += 1
        self.airtime_s += duration
        self.airtime_by_kind[kind] += duration
        if self.ctx.observing:
            payload = frame.payload
            self.ctx.obs.on_tx(self.ctx.now, src_id,
                               payload.uid if payload is not None else None,
                               kind, duration)

        if src_id in self._stale:
            self._refresh_row(src_id)
        receivers = self._reach_ids[src_id]
        if not receivers:
            return
        if self.model.stochastic:
            fade = self.model.sample_fade_db(self._fade_rng, len(receivers))
            powers = (self._reach_power_arrays[src_id] + fade).tolist()
        else:
            # Deterministic models: every precomputed receiver clears the
            # floor by construction (headroom is 0), so no per-receiver
            # threshold check is needed.
            powers = None

        radios = self._radios
        token_counter = self._token
        floor = self.reach_threshold_dbm
        items: list[tuple[float, Any, tuple]] = []
        append = items.append
        if powers is None:
            for j, power, delay in zip(receivers, self._reach_powers[src_id],
                                       self._reach_delays[src_id]):
                radio = radios[j]
                if radio is None:
                    continue
                token = next(token_counter)
                append((delay, radio.begin_receive, (token, frame, power)))
                append((delay + duration, radio.end_receive, (token,)))
        else:
            for j, power, delay in zip(receivers, powers,
                                       self._reach_delays[src_id]):
                if power < floor:
                    continue  # faded below the floor for this reception
                radio = radios[j]
                if radio is None:
                    continue
                token = next(token_counter)
                append((delay, radio.begin_receive, (token, frame, power)))
                append((delay + duration, radio.end_receive, (token,)))
        if items:
            self.ctx.simulator.schedule_many(items)
