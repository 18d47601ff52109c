"""Low-level data structures used by cache policies.

:class:`~repro.structs.linked_lru.LinkedLRU` is an intrusive doubly
linked list with a dict index; every operation is O(1) with small
constants.  It is the recency list inside the LRU-family referee
policies.  :class:`~repro.structs.clock_hand.ClockHand` backs the
CLOCK policy.
"""

from repro.structs.linked_lru import LinkedLRU
from repro.structs.clock_hand import ClockHand

__all__ = [
    "LinkedLRU",
    "ClockHand",
]
