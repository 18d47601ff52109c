"""Shared value types for the GC caching library.

The simulator models the Granularity-Change Caching Problem
(Definition 1 of the paper): requests arrive for *items*; items are
partitioned into *blocks* of at most ``B`` items; on a miss the cache
may load any subset of the missed item's block (containing the item)
for a single unit of cost.

Items and blocks are dense non-negative integers throughout the
library; traces are NumPy ``int64`` arrays.  The dataclasses here are
small, immutable records exchanged between policies, the engine, and
the analysis layer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

__all__ = [
    "ItemId",
    "BlockId",
    "HitKind",
    "AccessOutcome",
    "SimResult",
]

#: Type alias for item identifiers (dense, non-negative ints).
ItemId = int
#: Type alias for block identifiers (dense, non-negative ints).
BlockId = int


class HitKind(enum.Enum):
    """Classification of a single access, following §2 of the paper.

    * ``MISS`` — the requested item was not resident; unit cost charged.
    * ``TEMPORAL_HIT`` — the item was resident because of a previous
      access *to the item itself* (it was requested before and kept),
      or it is a repeat hit to an item first served spatially.
    * ``SPATIAL_HIT`` — the *first* hit to an item whose residency was
      created as a side effect of a different item's miss in the same
      block.  Per §2: "Any hits to item I beyond the first are due to
      temporal locality, since I would have been brought in cache
      anyway."
    """

    MISS = "miss"
    TEMPORAL_HIT = "temporal"
    SPATIAL_HIT = "spatial"

    @property
    def is_hit(self) -> bool:
        """``True`` for either hit kind."""
        return self is not HitKind.MISS


@dataclass(frozen=True)
class AccessOutcome:
    """The result of a single ``policy.access(item)`` call.

    Attributes
    ----------
    item:
        The requested item.
    hit:
        Whether the item was resident when requested.
    loaded:
        Items brought into the cache by this access (empty on a hit).
        Must be a subset of the requested item's block and contain the
        item itself; the engine enforces this.
    evicted:
        Items removed from the cache by this access.
    """

    item: ItemId
    hit: bool
    loaded: FrozenSet[ItemId] = frozenset()
    evicted: FrozenSet[ItemId] = frozenset()

    def __post_init__(self) -> None:
        if self.hit and self.loaded:
            raise ValueError("a hit must not load items")
        if not self.hit and self.item not in self.loaded:
            raise ValueError("a miss must load the requested item")


@dataclass
class SimResult:
    """Aggregate statistics of one simulation run.

    ``misses`` counts unit-cost loads (the objective of Definition 1).
    ``spatial_hits`` and ``temporal_hits`` decompose the hits per the
    paper's locality taxonomy.  ``loaded_items`` counts every item
    brought into cache (≥ ``misses``); ``loaded_items / misses`` is the
    mean load-set size, i.e. how aggressively the policy exploited the
    free-subset rule.
    """

    accesses: int = 0
    misses: int = 0
    temporal_hits: int = 0
    spatial_hits: int = 0
    loaded_items: int = 0
    evicted_items: int = 0
    policy: str = ""
    capacity: int = 0
    metadata: dict = field(default_factory=dict)
    #: Why ``simulate(fast=True)`` fell back to the referee
    #: (``"unsupported-policy"``, ``"mapping-mismatch"``,
    #: ``"warm-policy"``, ``"observed"``), or ``None`` when the fast
    #: path ran or was not requested.  Telemetry only: excluded from
    #: equality so referee and fast runs still compare bit-identical.
    fallback_reason: Optional[str] = field(default=None, compare=False)

    @property
    def hits(self) -> int:
        """Total hits of either kind."""
        return self.temporal_hits + self.spatial_hits

    @property
    def miss_ratio(self) -> float:
        """Misses per access (the paper's *fault rate*)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_ratio(self) -> float:
        """Hits per access."""
        return 1.0 - self.miss_ratio if self.accesses else 0.0

    @property
    def spatial_fraction(self) -> float:
        """Fraction of hits that are spatial (0.0 when there are no
        hits) — the paper's headline per-trace locality signal."""
        return self.spatial_hits / self.hits if self.hits else 0.0

    @property
    def mean_load_set_size(self) -> float:
        """Average number of items loaded per miss, i.e. how
        aggressively the policy exploited the free-subset rule."""
        return self.loaded_items / self.misses if self.misses else 0.0

    @property
    def mean_load_size(self) -> float:
        """Deprecated alias of :attr:`mean_load_set_size`."""
        return self.mean_load_set_size

    def as_row(self) -> dict:
        """Flatten into a plain dict suitable for tables / CSV export."""
        row = {
            "policy": self.policy,
            "capacity": self.capacity,
            "accesses": self.accesses,
            "misses": self.misses,
            "temporal_hits": self.temporal_hits,
            "spatial_hits": self.spatial_hits,
            "miss_ratio": self.miss_ratio,
            "spatial_fraction": self.spatial_fraction,
            "mean_load_size": self.mean_load_size,
        }
        if self.fallback_reason is not None:
            row["fallback_reason"] = self.fallback_reason
        row.update(self.metadata)
        return row

    def merged_with(self, other: "SimResult") -> "SimResult":
        """Combine two results (e.g. from trace shards) into one."""
        if self.policy != other.policy or self.capacity != other.capacity:
            raise ValueError("cannot merge results from different configurations")
        merged = SimResult(
            policy=self.policy,
            capacity=self.capacity,
            metadata={**self.metadata, **other.metadata},
        )
        return merged.add_counts(self).add_counts(other)

    def add_counts(self, other: "SimResult") -> "SimResult":
        """Add ``other``'s six counters into this result; returns it.

        Policy, capacity and metadata stay as they are, so a merge
        keeps whatever identity its caller gave the total.
        """
        self.accesses += other.accesses
        self.misses += other.misses
        self.temporal_hits += other.temporal_hits
        self.spatial_hits += other.spatial_hits
        self.loaded_items += other.loaded_items
        self.evicted_items += other.evicted_items
        return self


#: Convenience tuple describing the three Table 1 comparison settings.
TABLE1_SETTINGS: Tuple[str, ...] = (
    "constant_augmentation",
    "ratio_equals_augmentation",
    "constant_ratio",
)
