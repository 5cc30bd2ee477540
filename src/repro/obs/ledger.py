"""The packet-lifecycle ledger: per-packet causal chains with typed drops.

The paper's claims are mechanistic — SSAF's elected forwarder *suppresses*
redundant rebroadcasts, Routeless Routing survives failures because a dead
next hop simply *loses an election* — so validating them needs per-packet
causality, not endpoint ratios.  The ledger records one
:class:`LedgerEntry` per lifecycle event:

    originate → enqueue → contend → tx → rx → candidate → suppress/forward
    → (retransmit) → deliver/drop

keyed by the packet's network-wide uid, with every drop carrying a typed
:class:`DropReason`.  ``bare dropped += 1`` counters across the stack now
route through this taxonomy, so the MAC's queue-overflow drop and AODV's
no-route drop are distinguishable in the same report.

Entries also name the *layer* (``phy``/``mac``/``net``) that witnessed the
event: one packet's chain threads through every layer of every node it
touched, which is exactly the view the timeline export renders.
"""

from __future__ import annotations

import enum
from collections import Counter as TallyCounter
from typing import Any, Iterator, Optional

__all__ = ["DropReason", "PacketStage", "LedgerEntry", "PacketLedger"]


class DropReason(enum.Enum):
    """Why a packet (or one node's copy of it) died.  The single taxonomy
    shared by the MAC transmit queues, the net-layer pending buffers and
    every protocol's forwarding logic."""

    #: A drop-tail queue or pending buffer was full (MAC tx queue, net-layer
    #: pending-data buffer awaiting discovery).
    QUEUE_OVERFLOW = "queue_overflow"
    #: Two decodable frames overlapped at a receiver and corrupted each other.
    COLLISION = "collision"
    #: The hop budget (``max_hops``) was exhausted.
    TTL_EXPIRED = "ttl_expired"
    #: A copy of an already-seen packet arrived and was discarded.
    DUPLICATE = "duplicate"
    #: No forwarder emerged: an election chain gave up after retransmissions.
    NO_FORWARDER = "no_forwarder"
    #: No route existed (or discovery failed) for a routed protocol.
    NO_ROUTE = "no_route"
    #: A MAC unicast exhausted its retry budget without an acknowledgement.
    RETRY_EXHAUSTED = "retry_exhausted"
    #: The node's transceiver was off/asleep when the packet needed it.
    RADIO_OFF = "radio_off"
    #: An injected packet-corruption fault flipped bits in an otherwise
    #: intact reception (see :mod:`repro.faults`).
    FAULT_CORRUPTED = "fault_corrupted"
    #: The node's energy budget ran out and its transceiver shut down.
    ENERGY_DEPLETED = "energy_depleted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PacketStage(enum.Enum):
    """One step of the packet lifecycle."""

    ORIGINATE = "originate"   # net: application handed us a fresh packet
    ENQUEUE = "enqueue"       # mac: accepted into a transmit queue
    CONTEND = "contend"       # mac: CSMA backoff armed for the medium
    TX = "tx"                 # phy: frame put on the air
    RX = "rx"                 # phy: frame decoded intact at a receiver
    SUPPRESS = "suppress"     # net: pending rebroadcast cancelled (election lost)
    FORWARD = "forward"       # net: this node relays the packet onward
    DELIVER = "deliver"       # net: packet reached its destination
    DROP = "drop"             # any layer: a copy died (reason attached)
    FAULT = "fault"           # fault injector: a fault fired/cleared at a node
    CANDIDATE = "candidate"   # net: election timer armed (node competes to relay)
    RETRANSMIT = "retransmit" # net: arbiter re-sent a copy nobody relayed
    CONTROL_ORIGINATE = "control_originate"  # net: routing control packet sent
    CONTROL_ARRIVE = "control_arrive"        # net: control packet reached target

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class LedgerEntry:
    """One lifecycle event.  ``uid`` is the packet's network-wide identity
    (``(kind, origin, seq)``), or ``None`` for control frames that carry no
    network packet (MAC ACK/RTS/CTS)."""

    __slots__ = ("time", "node", "layer", "stage", "uid", "reason", "detail")

    def __init__(self, time: float, node: int, layer: str, stage: PacketStage,
                 uid: Optional[tuple] = None,
                 reason: Optional[DropReason] = None,
                 detail: Optional[dict] = None):
        self.time = time
        self.node = node
        self.layer = layer
        self.stage = stage
        self.uid = uid
        self.reason = reason
        self.detail = detail

    def to_dict(self) -> dict:
        """JSON-safe form (the JSONL export row)."""
        row: dict[str, Any] = {
            "time": self.time,
            "node": self.node,
            "layer": self.layer,
            "stage": self.stage.value,
        }
        if self.uid is not None:
            kind, origin, seq = self.uid
            row["uid"] = [getattr(kind, "value", str(kind)), origin, seq]
        if self.reason is not None:
            row["reason"] = self.reason.value
        if self.detail:
            row["detail"] = self.detail
        return row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        reason = f" reason={self.reason.value}" if self.reason else ""
        return (f"<LedgerEntry t={self.time:.6f} n{self.node} {self.layer}."
                f"{self.stage.value} uid={self.uid}{reason}>")


class PacketLedger:
    """Append-only store of lifecycle events for one simulation run."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []
        self._by_uid: dict[tuple, list[LedgerEntry]] = {}
        self._drops: TallyCounter[DropReason] = TallyCounter()
        self._stages: TallyCounter[PacketStage] = TallyCounter()

    def record(self, time: float, node: int, layer: str, stage: PacketStage,
               uid: Optional[tuple] = None,
               reason: Optional[DropReason] = None,
               **detail: Any) -> LedgerEntry:
        entry = LedgerEntry(time, node, layer, stage, uid, reason,
                            detail or None)
        self.entries.append(entry)
        if uid is not None:
            self._by_uid.setdefault(uid, []).append(entry)
        if reason is not None:
            self._drops[reason] += 1
        self._stages[stage] += 1
        return entry

    # -------------------------------------------------------------- queries

    def chain(self, uid: tuple) -> list[LedgerEntry]:
        """Every event of one packet, in record (≈ causal) order."""
        return list(self._by_uid.get(uid, ()))

    def uids(self) -> Iterator[tuple]:
        return iter(self._by_uid)

    def of_stage(self, stage: PacketStage) -> Iterator[LedgerEntry]:
        return (e for e in self.entries if e.stage is stage)

    def drop_counts(self) -> dict[DropReason, int]:
        """Per-reason drop tallies; their sum is :meth:`total_drops`."""
        return dict(self._drops)

    def total_drops(self) -> int:
        return sum(self._drops.values())

    def stage_counts(self) -> dict[PacketStage, int]:
        return dict(self._stages)

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()
        self._by_uid.clear()
        self._drops.clear()
        self._stages.clear()
