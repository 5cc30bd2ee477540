"""Reading a channel's link-budget rows in tests.

The sparse link budget rebuilds a row that a move or an offset change left
dirty only when the row is read through :meth:`Channel.neighbors` or
:meth:`Channel.transmit`.  :func:`link_row` reads every array of a row
through ``neighbors`` first, so it sees what the channel would transmit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Row(NamedTuple):
    reach: np.ndarray
    power_array: np.ndarray
    ids: list
    powers: list
    delays: list


def link_row(channel, node: int) -> Row:
    """Node ``node``'s reach ids, powers and delays, refreshed first."""
    channel.neighbors(node)
    return Row(channel._reach[node], channel._reach_power_arrays[node],
               channel._reach_ids[node], channel._reach_powers[node],
               channel._reach_delays[node])
