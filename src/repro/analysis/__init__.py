"""Analytical models (theory-vs-simulation validation) and packet journeys
read from the packet ledger."""

from repro.analysis.lifecycle import JourneyEvent, PacketJourney, reconstruct_journeys
from repro.analysis.theory import (
    counter1_relay_bound,
    expected_election_delay,
    free_space_range_m,
    tie_probability,
    uniform_win_probabilities,
)

__all__ = [
    "JourneyEvent",
    "PacketJourney",
    "counter1_relay_bound",
    "expected_election_delay",
    "free_space_range_m",
    "reconstruct_journeys",
    "tie_probability",
    "uniform_win_probabilities",
]
