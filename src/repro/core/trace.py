"""Request traces: an item-id array plus its block mapping.

A :class:`Trace` couples the access sequence with the block partition
it was generated against, because the GC caching problem is only
defined relative to a partition (Definition 1).  Traces carry free-form
metadata (generator name, parameters, seed) so experiment outputs are
self-describing, and serialize to ``.npz`` for reuse across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

import numpy as np

from repro.core.mapping import BlockMapping, ExplicitBlockMapping, FixedBlockMapping
from repro.errors import TraceFormatError

__all__ = ["Trace"]


@dataclass
class Trace:
    """An access trace over a block-partitioned item universe.

    Attributes
    ----------
    items:
        ``int64`` array of requested item ids, in order.
    mapping:
        The item→block partition.
    metadata:
        Provenance: generator, parameters, seed.
    """

    items: np.ndarray
    mapping: BlockMapping
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.items = np.asarray(self.items, dtype=np.int64)
        self._fp: Optional[str] = None
        if self.items.ndim != 1:
            raise TraceFormatError("trace items must be one-dimensional")
        if self.items.size:
            lo, hi = int(self.items.min()), int(self.items.max())
            if lo < 0 or hi >= self.mapping.universe:
                raise TraceFormatError(
                    f"trace references item range [{lo}, {hi}] outside "
                    f"universe [0, {self.mapping.universe})"
                )

    # -- basic introspection -------------------------------------------------
    def __len__(self) -> int:
        return int(self.items.size)

    def __iter__(self) -> Iterator[int]:
        return iter(self.items.tolist())

    @property
    def universe(self) -> int:
        """Number of items in the address space."""
        return self.mapping.universe

    @property
    def block_size(self) -> int:
        """The model parameter ``B`` (maximum items per block)."""
        return self.mapping.max_block_size

    def block_trace(self) -> np.ndarray:
        """The trace projected to block ids (used by g(n) profiling)."""
        return self.mapping.blocks_of(self.items)

    def distinct_items(self) -> int:
        """Number of distinct items referenced."""
        return int(np.unique(self.items).size) if self.items.size else 0

    def distinct_blocks(self) -> int:
        """Number of distinct blocks referenced."""
        return int(np.unique(self.block_trace()).size) if self.items.size else 0

    def scalar_metadata(self) -> Dict[str, Any]:
        """The ``str``/``int``/``float`` metadata entries, which
        :class:`~repro.types.SimResult` rows carry along."""
        return {
            k: v for k, v in self.metadata.items() if isinstance(v, (str, int, float))
        }

    def fingerprint(self) -> str:
        """Stable content hash of the trace (items + block partition).

        Two traces with the same access sequence over the same
        partition hash identically regardless of how they were built
        (generator, file import, ``.npz`` round-trip); metadata is
        deliberately excluded.  Used by :mod:`repro.campaign` as the
        trace component of a cell's content address, and by
        :mod:`repro.core.fast` as the compile memo identity.

        The digest is cached on the instance (traces are treated as
        immutable throughout the codebase), so repeated lookups — one
        per sweep cell — cost a dict read, not a re-hash.
        """
        cached = getattr(self, "_fp", None)
        if cached is not None:
            return cached
        h = hashlib.sha256()
        h.update(b"trace-v1\x00")
        h.update(np.ascontiguousarray(self.items, dtype=np.int64).tobytes())
        h.update(b"\x00mapping\x00")
        if isinstance(self.mapping, FixedBlockMapping):
            h.update(
                f"fixed:{self.mapping.universe}:{self.mapping.max_block_size}".encode()
            )
        else:
            block_ids = self.mapping.blocks_of(
                np.arange(self.mapping.universe, dtype=np.int64)
            )
            h.update(f"explicit:{self.mapping.max_block_size}:".encode())
            h.update(np.ascontiguousarray(block_ids, dtype=np.int64).tobytes())
        self._fp = h.hexdigest()
        return self._fp

    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces over the same universe/mapping."""
        if (
            self.mapping.universe != other.mapping.universe
            or self.mapping.max_block_size != other.mapping.max_block_size
        ):
            raise TraceFormatError("cannot concatenate traces over different mappings")
        return Trace(
            np.concatenate([self.items, other.items]),
            self.mapping,
            {**self.metadata, "concatenated": True},
        )

    # -- serialization ---------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist to ``.npz`` (items, mapping kind + parameters, metadata)."""
        path = Path(path)
        payload: Dict[str, np.ndarray] = {"items": self.items}
        if isinstance(self.mapping, FixedBlockMapping):
            payload["mapping_kind"] = np.array(["fixed"])
            payload["mapping_params"] = np.array(
                [self.mapping.universe, self.mapping.max_block_size], dtype=np.int64
            )
        elif isinstance(self.mapping, ExplicitBlockMapping):
            payload["mapping_kind"] = np.array(["explicit"])
            payload["mapping_block_ids"] = self.mapping.blocks_of(
                np.arange(self.mapping.universe, dtype=np.int64)
            )
            payload["mapping_params"] = np.array(
                [self.mapping.max_block_size], dtype=np.int64
            )
        else:
            raise TraceFormatError(
                f"cannot serialize mapping type {type(self.mapping).__name__}"
            )
        payload["metadata_json"] = np.array([json.dumps(self.metadata, default=str)])
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        """Load a trace written by :meth:`save`."""
        with np.load(Path(path), allow_pickle=False) as data:
            try:
                items = data["items"]
                kind = str(data["mapping_kind"][0])
                meta = json.loads(str(data["metadata_json"][0]))
            except KeyError as exc:  # pragma: no cover - corrupt file
                raise TraceFormatError(f"missing field in trace file: {exc}") from exc
            if kind == "fixed":
                universe, bsize = (int(x) for x in data["mapping_params"])
                mapping: BlockMapping = FixedBlockMapping(universe, bsize)
            elif kind == "explicit":
                mapping = ExplicitBlockMapping(
                    data["mapping_block_ids"],
                    max_block_size=int(data["mapping_params"][0]),
                )
            else:
                raise TraceFormatError(f"unknown mapping kind {kind!r}")
        return cls(items, mapping, meta)

    # -- convenience constructors ----------------------------------------------
    @classmethod
    def from_list(
        cls,
        items,
        block_size: int,
        universe: Optional[int] = None,
        metadata: Optional[Dict] = None,
    ) -> "Trace":
        """Build a trace with an aligned fixed-``B`` mapping.

        ``universe`` defaults to one past the largest referenced item,
        rounded up to a whole block.
        """
        arr = np.asarray(items, dtype=np.int64)
        if universe is None:
            top = int(arr.max()) + 1 if arr.size else 1
            universe = -(-top // block_size) * block_size
        return cls(arr, FixedBlockMapping(universe, block_size), metadata or {})
