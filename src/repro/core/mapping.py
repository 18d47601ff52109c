"""Item→block partitions (the block structure of Definition 1).

A mapping assigns every item a block id such that no block holds more
than ``B`` items.  Two concrete mappings are provided:

* :class:`FixedBlockMapping` — the common aligned layout
  ``block = item // B`` (e.g. 64-byte lines inside a 4 KB DRAM row).
* :class:`ExplicitBlockMapping` — an arbitrary partition given as an
  array, supporting ragged blocks of size ≤ B (needed by the §3
  NP-completeness reduction, whose blocks have varying *active set*
  sizes).

Mappings are immutable and cheap to share between traces, policies and
adversaries.  :func:`splitmix64` is the seeded id hash that shard
routing and SHARDS sampling apply to item and block ids.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["BlockMapping", "FixedBlockMapping", "ExplicitBlockMapping", "splitmix64"]


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer (stable across platforms/runs)."""
    z = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return z


class BlockMapping:
    """Abstract base: a partition of items ``0..universe-1`` into blocks.

    Subclasses must set ``universe`` (number of items), ``num_blocks``
    and ``max_block_size`` (the model's ``B``), and implement
    :meth:`block_of` and :meth:`items_in`.
    """

    universe: int
    num_blocks: int
    max_block_size: int

    def block_of(self, item: int) -> int:
        """Block id of ``item``."""
        raise NotImplementedError

    def items_in(self, block: int) -> Tuple[int, ...]:
        """All items of ``block``, ascending."""
        raise NotImplementedError

    def blocks_of(self, items: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`block_of` over an ``int64`` array."""
        return np.fromiter(
            (self.block_of(int(i)) for i in items), dtype=np.int64, count=len(items)
        )

    def block_size(self, block: int) -> int:
        """Number of items in ``block``."""
        return len(self.items_in(block))

    def validate_item(self, item: int) -> None:
        """Raise :class:`ConfigurationError` unless ``item`` is in range."""
        if not 0 <= item < self.universe:
            raise ConfigurationError(
                f"item {item} outside universe [0, {self.universe})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(universe={self.universe}, "
            f"num_blocks={self.num_blocks}, B={self.max_block_size})"
        )


class FixedBlockMapping(BlockMapping):
    """Aligned blocks of exactly ``B`` items: ``block = item // B``.

    The last block may be partial if ``universe`` is not a multiple of
    ``B``.  With ``B == 1`` the model degenerates to traditional
    caching (every item its own block), which the paper notes and
    tests rely on.
    """

    def __init__(self, universe: int, block_size: int) -> None:
        if universe < 1:
            raise ConfigurationError(f"universe must be >= 1, got {universe}")
        if block_size < 1:
            raise ConfigurationError(f"block size must be >= 1, got {block_size}")
        self.universe = universe
        self.max_block_size = block_size
        self.num_blocks = -(-universe // block_size)  # ceil division

    def block_of(self, item: int) -> int:
        self.validate_item(item)
        return item // self.max_block_size

    def items_in(self, block: int) -> Tuple[int, ...]:
        if not 0 <= block < self.num_blocks:
            raise ConfigurationError(
                f"block {block} outside range [0, {self.num_blocks})"
            )
        start = block * self.max_block_size
        stop = min(start + self.max_block_size, self.universe)
        return tuple(range(start, stop))

    def blocks_of(self, items: np.ndarray) -> np.ndarray:
        items = np.asarray(items, dtype=np.int64)
        if items.size and (items.min() < 0 or items.max() >= self.universe):
            raise ConfigurationError("items outside universe")
        return items // self.max_block_size


class ExplicitBlockMapping(BlockMapping):
    """Arbitrary partition given as ``block_ids[item] -> block``.

    Block ids must be dense (``0..num_blocks-1``); every block must be
    non-empty and contain at most ``max_block_size`` items, where
    ``max_block_size`` defaults to the size of the largest block.
    """

    def __init__(
        self,
        block_ids: Sequence[int] | np.ndarray,
        max_block_size: int | None = None,
    ) -> None:
        arr = np.asarray(block_ids, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigurationError("block_ids must be a non-empty 1-D sequence")
        if arr.min() < 0:
            raise ConfigurationError("block ids must be non-negative")
        n_blocks = int(arr.max()) + 1
        counts = np.bincount(arr, minlength=n_blocks)
        if (counts == 0).any():
            missing = int(np.nonzero(counts == 0)[0][0])
            raise ConfigurationError(f"block ids must be dense; block {missing} empty")
        largest = int(counts.max())
        if max_block_size is None:
            max_block_size = largest
        elif largest > max_block_size:
            raise ConfigurationError(
                f"block of size {largest} exceeds max_block_size={max_block_size}"
            )
        self.universe = int(arr.size)
        self.num_blocks = n_blocks
        self.max_block_size = int(max_block_size)
        self._block_ids = arr
        members: List[List[int]] = [[] for _ in range(n_blocks)]
        for item, blk in enumerate(arr.tolist()):
            members[blk].append(item)
        self._members: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(m) for m in members
        )

    @classmethod
    def from_groups(
        cls, groups: Iterable[Iterable[int]], max_block_size: int | None = None
    ) -> "ExplicitBlockMapping":
        """Build from an iterable of item groups (one group per block)."""
        assignment: Dict[int, int] = {}
        for blk, group in enumerate(groups):
            for item in group:
                if item in assignment:
                    raise ConfigurationError(f"item {item} assigned to two blocks")
                assignment[item] = blk
        if not assignment:
            raise ConfigurationError("no items provided")
        universe = max(assignment) + 1
        if set(assignment) != set(range(universe)):
            raise ConfigurationError("items must be dense 0..U-1")
        ids = [assignment[i] for i in range(universe)]
        return cls(ids, max_block_size=max_block_size)

    def block_of(self, item: int) -> int:
        self.validate_item(item)
        return int(self._block_ids[item])

    def items_in(self, block: int) -> Tuple[int, ...]:
        if not 0 <= block < self.num_blocks:
            raise ConfigurationError(
                f"block {block} outside range [0, {self.num_blocks})"
            )
        return self._members[block]

    def blocks_of(self, items: np.ndarray) -> np.ndarray:
        items = np.asarray(items, dtype=np.int64)
        if items.size and (items.min() < 0 or items.max() >= self.universe):
            raise ConfigurationError("items outside universe")
        return self._block_ids[items]
