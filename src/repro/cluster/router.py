"""Shard routing: which cache instance serves which item.

A real deployment shards keys across many cache instances, and the
choice of *what to hash* is exactly the granularity question the paper
asks at the single-cache level: hash the **item** and a block's items
scatter across shards (each shard sees a shredded remnant of every
spatial run), or hash the **block** and a block's items stay together
(spatial runs survive sharding intact, at the price of coarser load
balancing).  :class:`ShardRouter` implements both as consistent-hash
rings over virtual nodes, plus a ``modulo`` striping baseline:

* ``"block"`` — block-aware consistent hashing.  The ring key is the
  item's *block id*, so every item of a block routes to the same shard
  by construction (the invariant ``tests/test_cluster_router.py``
  pins).  Spatial locality — and with it IBLP/GCM's advantage — is
  preserved at any shard count.
* ``"item"`` — item-striped consistent hashing.  The ring key is the
  item id; a ``B``-item block lands on up to ``min(B, n_shards)``
  distinct shards, so within-block runs are shredded and the
  spatial fraction each shard observes degrades as the cluster grows.
* ``"modulo"`` — ``item % n_shards``, the naive baseline.  Maximally
  shreds consecutive items (adjacent items *never* share a shard for
  ``n_shards > 1``) and remaps almost every key when the shard count
  changes.

Routing is pure integer arithmetic on a seeded 64-bit mix (SplitMix64
— no Python ``hash()`` salting, no wall clock), so a
:class:`ShardRouter` is fully described by its :meth:`identity` dict:
the campaign layer hashes that identity into cluster cells' content
addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

from repro.core.mapping import BlockMapping, splitmix64
from repro.core.trace import Trace
from repro.errors import ConfigurationError

__all__ = [
    "ShardRouter",
    "RoutingPlan",
    "SCHEMES",
    "split_stats",
]

#: Hash schemes a router understands (see the module docstring).
SCHEMES: Tuple[str, ...] = ("block", "item", "modulo")

def split_stats(
    blocks: np.ndarray, shard_of: np.ndarray, n_shards: int
) -> Dict[str, Any]:
    """Block-split statistics of one routing (see
    :meth:`ShardRouter.block_split_stats`).

    ``blocks[i]`` and ``shard_of[i]`` are access ``i``'s block and
    shard.  Each distinct (block, shard) pair is one 1-D key, the
    block's dense index times ``n_shards`` plus the shard, which stays
    below ``len(blocks) * n_shards`` whatever the block ids are.
    """
    if not blocks.size:
        return {
            "blocks_referenced": 0,
            "blocks_split": 0,
            "mean_shards_per_block": 0.0,
        }
    referenced, dense = np.unique(blocks, return_inverse=True)
    pairs = np.unique(dense.astype(np.int64) * n_shards + shard_of)
    spread = np.bincount(pairs // n_shards, minlength=referenced.size)
    return {
        "blocks_referenced": int(referenced.size),
        "blocks_split": int(np.count_nonzero(spread > 1)),
        "mean_shards_per_block": float(spread.mean()),
    }


@dataclass
class RoutingPlan:
    """One trace split by a router: per-shard views plus provenance.

    ``indices[s]`` gives the original trace positions shard ``s``
    serves, in trace order; ``subtraces[s]`` is the corresponding
    :class:`Trace` over the *parent's* mapping (a shard still knows the
    full block structure — that is what makes "the policy loaded items
    another shard owns" measurable).  ``shard_of`` maps every access to
    its shard.
    """

    shard_of: np.ndarray
    indices: List[np.ndarray]
    subtraces: List[Trace]

    @property
    def n_shards(self) -> int:
        return len(self.subtraces)

    def accesses_per_shard(self) -> np.ndarray:
        return np.array([idx.size for idx in self.indices], dtype=np.int64)


@dataclass(frozen=True)
class ShardRouter:
    """Deterministic item→shard routing for an N-shard cluster.

    Parameters
    ----------
    n_shards:
        Cluster size (>= 1).
    scheme:
        One of :data:`SCHEMES`; see the module docstring.
    vnodes:
        Virtual nodes per shard on the consistent-hash ring (ignored by
        ``modulo``).  More vnodes smooth the load split; 64 keeps the
        ring small while bounding imbalance to a few percent.
    seed:
        Salts the ring and key hashes, so two clusters with different
        seeds place keys independently.
    """

    n_shards: int
    scheme: str = "block"
    vnodes: int = 64
    seed: int = 0
    _ring: Tuple[np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, got {self.n_shards}"
            )
        if self.scheme not in SCHEMES:
            raise ConfigurationError(
                f"unknown hash scheme {self.scheme!r}; known: "
                f"{', '.join(SCHEMES)}"
            )
        if self.vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.scheme != "modulo":
            object.__setattr__(self, "_ring", self._build_ring())

    def _build_ring(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ring positions and their owning shards.

        Each shard contributes ``vnodes`` points at
        ``splitmix64(seed-mixed shard*vnodes + v)``; a key belongs to
        the first ring point at or after its own hash (wrapping).
        Collisions between ring points are broken by shard id, which
        keeps ownership deterministic.
        """
        ids = np.arange(self.n_shards * self.vnodes, dtype=np.uint64)
        salt = np.uint64((self.seed * 0x9E3779B9 + 0xA5A5A5A5) & 0xFFFFFFFFFFFFFFFF)
        points = splitmix64(ids ^ salt)
        owners = (ids // np.uint64(self.vnodes)).astype(np.int64)
        order = np.lexsort((owners, points))
        return points[order], owners[order]

    # -- routing -----------------------------------------------------------
    def _ring_lookup(self, keys: np.ndarray) -> np.ndarray:
        points, owners = self._ring
        salt = np.uint64((self.seed * 0x51ED2701 + 0x3C6EF372) & 0xFFFFFFFFFFFFFFFF)
        hashed = splitmix64(keys.astype(np.uint64) ^ salt)
        pos = np.searchsorted(points, hashed, side="left")
        pos[pos == points.size] = 0  # wrap past the last ring point
        return owners[pos]

    def shards_of(self, items: np.ndarray, mapping: BlockMapping) -> np.ndarray:
        """Vectorized shard id per item (``int64``, same length)."""
        items = np.asarray(items, dtype=np.int64)
        if self.n_shards == 1:
            return np.zeros(items.size, dtype=np.int64)
        if self.scheme == "modulo":
            return items % self.n_shards
        keys = mapping.blocks_of(items) if self.scheme == "block" else items
        return self._ring_lookup(np.asarray(keys, dtype=np.int64))

    def shard_of(self, item: int, mapping: BlockMapping) -> int:
        """Shard id of a single item (scalar convenience)."""
        return int(
            self.shards_of(np.array([item], dtype=np.int64), mapping)[0]
        )

    # -- trace splitting ---------------------------------------------------
    def split(self, trace: Trace) -> RoutingPlan:
        """Route every access; return per-shard sub-traces (one pass).

        Sub-traces keep the parent's mapping and metadata; each is a
        plain :class:`~repro.core.trace.Trace`, fingerprinted from its
        own items when something (the compile memo) asks.  Cluster
        campaign cells are addressed by the parent trace's fingerprint.
        """
        shard_of = self.shards_of(trace.items, trace.mapping)
        indices: List[np.ndarray] = []
        subtraces: List[Trace] = []
        for shard in range(self.n_shards):
            idx = np.nonzero(shard_of == shard)[0]
            sub = Trace(
                trace.items[idx],
                trace.mapping,
                {**trace.metadata, "shard": shard, "n_shards": self.n_shards},
            )
            indices.append(idx)
            subtraces.append(sub)
        return RoutingPlan(
            shard_of=shard_of, indices=indices, subtraces=subtraces
        )

    # -- diagnostics -------------------------------------------------------
    def block_split_stats(self, trace: Trace) -> Dict[str, Any]:
        """How badly this routing splits the trace's referenced blocks.

        ``blocks_split`` counts referenced blocks whose items land on
        more than one shard (always 0 for the block-aware scheme);
        ``mean_shards_per_block`` averages the per-block shard spread.
        :func:`replay_cluster` gets the same statistics from its
        routing pass through :func:`split_stats`.
        """
        return split_stats(
            trace.block_trace(),
            self.shards_of(trace.items, trace.mapping),
            self.n_shards,
        )

    # -- identity / serialization ------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """JSON-scalar routing identity (joins cluster content hashes)."""
        return {
            "n_shards": self.n_shards,
            "scheme": self.scheme,
            "vnodes": self.vnodes,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardRouter":
        return cls(
            n_shards=int(data["n_shards"]),
            scheme=str(data.get("scheme", "block")),
            vnodes=int(data.get("vnodes", 64)),
            seed=int(data.get("seed", 0)),
        )
