"""Virtual-force topology control.

A deployed (or airborne) fleet rarely lands in a good topology: uniform
random placement leaves some nodes nearly isolated and others buried in
dense clumps, which is exactly the regime where the paper's SSAF thresholds
and Routeless Routing gradients degrade.  :class:`VirtualForceControl`
nudges mobile nodes toward a healthy topology with the classic
spring-force rule from the sensor-deployment literature: each neighbor
pair exerts a force along its connecting line — *repulsive* when the pair
sits closer than the target spacing, *attractive* when farther — and every
tick each node takes a bounded step along its net force.  The fixed point
is a roughly even spread at the target spacing, i.e. a roughly uniform
node degree.

An optional ``target_degree`` gates the two force senses per node: nodes
already over the target degree stop attracting (they only spread), nodes
under it stop repelling (they only densify), which converges degree toward
the target instead of just spacing.

Deterministic (no randomness), dimension-agnostic (forces sum per axis over
however many axes the arena carries), and incremental: moves flow through
:meth:`~repro.phy.channel.Channel.move_nodes`, so the sparse link budget
only marks the touched rows dirty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.phy.spatial import neighbor_pairs
from repro.sim.components import Component, SimContext
from repro.topology.arena import Arena

if TYPE_CHECKING:  # pragma: no cover
    from repro.phy.channel import Channel

__all__ = ["VirtualForceConfig", "VirtualForceControl"]


@dataclass(frozen=True, kw_only=True)
class VirtualForceConfig:
    #: Interaction radius — which pairs exert forces on each other.
    #: Usually the radio's nominal communication range.
    comm_range_m: float = 250.0
    #: Equilibrium pair distance; defaults to ``0.7 * comm_range_m``, the
    #: usual "comfortably inside range" spacing.
    target_spacing_m: Optional[float] = None
    #: Attractive gain (pairs farther than the target spacing).
    k_attract: float = 0.2
    #: Repulsive gain (pairs closer than the target spacing); stronger than
    #: attraction so clumps dissolve faster than stragglers drift.
    k_repulse: float = 0.6
    #: Per-tick displacement cap — keeps the relaxation stable.
    max_step_m: float = 5.0
    #: When set, nodes above this degree only repel and nodes below it only
    #: attract, steering degree itself toward the target.
    target_degree: Optional[int] = None
    tick_s: float = 0.5

    def __post_init__(self) -> None:
        if self.comm_range_m <= 0:
            raise ValueError("comm_range_m must be positive")
        if self.target_spacing_m is not None and self.target_spacing_m <= 0:
            raise ValueError("target_spacing_m must be positive")
        if self.k_attract < 0 or self.k_repulse < 0:
            raise ValueError("force gains must be non-negative")
        if self.max_step_m <= 0 or self.tick_s <= 0:
            raise ValueError("max_step_m and tick_s must be positive")


class VirtualForceControl(Component):
    """Spring/repulsion relaxation maintaining spacing (and optionally
    degree) across the fleet."""

    def __init__(self, ctx: SimContext, channel: "Channel", *,
                 arena: Arena | None = None,
                 config: VirtualForceConfig | None = None,
                 frozen: Iterable[int] = ()):
        super().__init__(ctx, "topology.vforce")
        self.channel = channel
        self.config = config if config is not None else VirtualForceConfig()
        if arena is None:
            raise TypeError("VirtualForceControl requires arena=Arena(...)")
        if channel.dim != arena.dim:
            raise ValueError(
                f"arena is {arena.dim}-D but the channel is "
                f"{channel.dim}-D — build both from the same Arena")
        self.arena = arena
        self.positions = channel.positions.copy()
        self.n = len(self.positions)
        frozen_set = set(frozen)
        self.mobile = np.array([i not in frozen_set for i in range(self.n)])
        self.ticks = 0
        #: Mean unit-disk degree after the latest relaxation step — the
        #: quantity this controller exists to regulate.
        self.mean_degree = self._mean_degree()
        self.schedule(self.config.tick_s, self._tick)

    @property
    def target_spacing_m(self) -> float:
        cfg = self.config
        if cfg.target_spacing_m is not None:
            return cfg.target_spacing_m
        return 0.7 * cfg.comm_range_m

    def _mean_degree(self) -> float:
        srcs, _ = neighbor_pairs(self.positions, self.config.comm_range_m)
        return len(srcs) / self.n if self.n else 0.0

    def _tick(self) -> None:
        cfg = self.config
        srcs, dsts = neighbor_pairs(self.positions, cfg.comm_range_m)
        force = np.zeros_like(self.positions)
        if len(srcs):
            diff = self.positions[srcs] - self.positions[dsts]
            dist = np.linalg.norm(diff, axis=1)
            # Coincident nodes get a deterministic unit push along +x so
            # they separate instead of dividing by zero.
            safe = np.where(dist > 0.0, dist, 1.0)
            unit = diff / safe[:, None]
            unit[dist == 0.0] = 0.0
            unit[dist == 0.0, 0] = 1.0

            d0 = self.target_spacing_m
            gap = (dist - d0) / d0
            # gap < 0 → too close → push src away from dst (+unit);
            # gap > 0 → too far → pull src toward dst (-unit).
            magnitude = np.where(gap < 0.0, cfg.k_repulse * -gap,
                                 cfg.k_attract * gap)
            sense = np.where(gap < 0.0, 1.0, -1.0)
            if cfg.target_degree is not None:
                degree = np.bincount(srcs, minlength=self.n)
                # Over-connected sources ignore attraction, under-connected
                # ones ignore repulsion.
                over = degree[srcs] > cfg.target_degree
                under = degree[srcs] < cfg.target_degree
                keep = np.where(gap < 0.0, over | ~under, under | ~over)
                magnitude = np.where(keep, magnitude, 0.0)
            pair_force = (magnitude * sense)[:, None] * unit
            np.add.at(force, srcs, pair_force)

        step = force * cfg.tick_s
        norms = np.linalg.norm(step, axis=1)
        over = norms > cfg.max_step_m
        if over.any():
            step[over] *= (cfg.max_step_m / norms[over])[:, None]
        step[~self.mobile] = 0.0

        before = self.positions.copy()
        self.positions = self.arena.clamp(self.positions + step)
        moved = np.flatnonzero(np.any(self.positions != before, axis=1))
        if len(moved):
            self.channel.move_nodes(moved, self.positions[moved])
        self.ticks += 1
        self.mean_degree = self._mean_degree()
        self.schedule(cfg.tick_s, self._tick)
