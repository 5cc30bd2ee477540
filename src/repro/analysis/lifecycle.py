"""Packet journeys read from the packet ledger.

Given the :class:`~repro.obs.ledger.PacketLedger` of an observed run, these
helpers reassemble what happened to each packet — candidacies,
suppressions, relays, retransmissions, delivery, drops — as a structured
journey, keyed by the packet's typed uid.  Used by the demo examples and by
tests that assert on protocol *behaviour* where end metrics would
under-constrain it; also the fastest way to answer "what happened to packet
X?" when debugging a scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from repro.obs.ledger import PacketStage

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import PacketKind
    from repro.obs.ledger import LedgerEntry, PacketLedger
    from repro.obs.observe import Observability

__all__ = ["JourneyEvent", "PacketJourney", "reconstruct_journeys"]


@dataclass(frozen=True)
class JourneyEvent:
    """One protocol action observed for a packet: when, where, what."""
    time: float
    node: int
    action: str          # candidate / relay / retransmit / deliver / ...
    detail: dict = field(compare=False, default_factory=dict)


@dataclass
class PacketJourney:
    """Everything that happened to one packet, in time order."""
    kind: "PacketKind"
    origin: int
    seq: int
    events: list[JourneyEvent] = field(default_factory=list)

    @property
    def delivered(self) -> bool:
        return any(e.action == "deliver" for e in self.events)

    @property
    def relays(self) -> list[int]:
        return [e.node for e in self.events if e.action == "relay"]

    @property
    def retransmissions(self) -> int:
        return sum(1 for e in self.events if e.action == "retransmit")

    @property
    def delivery_time(self) -> Optional[float]:
        for event in self.events:
            if event.action == "deliver":
                return event.time
        return None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        head = f"{self.kind}(o={self.origin} s={self.seq})"
        lines = [head] + [
            f"  {e.time:10.6f}  node {e.node:<4} {e.action}"
            for e in self.events
        ]
        return "\n".join(lines)


#: Journey action of each protocol-level ledger stage.  PHY/MAC stages
#: (enqueue, contend, tx, rx) and fault entries are not journey events.
_ACTION_BY_STAGE = {
    PacketStage.ORIGINATE: "originate",
    PacketStage.CONTROL_ORIGINATE: "originate",
    PacketStage.CANDIDATE: "candidate",
    PacketStage.SUPPRESS: "suppressed",
    PacketStage.FORWARD: "relay",
    PacketStage.RETRANSMIT: "retransmit",
    PacketStage.DELIVER: "deliver",
    PacketStage.CONTROL_ARRIVE: "deliver",
    PacketStage.DROP: "drop",
}


def reconstruct_journeys(
    source: "Observability | PacketLedger | Iterable[LedgerEntry]",
) -> dict[tuple, PacketJourney]:
    """Group ledger entries into per-packet journeys, time-ordered.

    Keys are the packets' typed uids, ``(PacketKind, origin, seq)``.  A drop
    event carries its :class:`~repro.obs.ledger.DropReason` as
    ``detail["reason"]``.
    """
    ledger = getattr(source, "ledger", source)
    entries = getattr(ledger, "entries", ledger)
    journeys: dict[tuple, PacketJourney] = {}
    for entry in entries:
        action = _ACTION_BY_STAGE.get(entry.stage)
        if action is None or entry.uid is None:
            continue
        journey = journeys.get(entry.uid)
        if journey is None:
            journey = PacketJourney(*entry.uid)
            journeys[entry.uid] = journey
        detail = dict(entry.detail or {})
        if entry.reason is not None:
            detail["reason"] = entry.reason
        journey.events.append(JourneyEvent(entry.time, entry.node, action,
                                           detail))
    for journey in journeys.values():
        journey.events.sort(key=lambda e: e.time)
    return journeys
