"""Miss-ratio curves via Mattson's stack algorithm [Mattson et al. 1970].

The paper cites Mattson's one-pass technique as the classical offline
tool for inclusion (stack) policies; this module builds on it for the
GC setting's two granularities:

* :func:`miss_ratio_curve` — turn a stack-distance array
  (``stack_distances(trace.items)`` for an LRU *item* cache,
  ``stack_distances(trace.block_trace())`` for Block-LRU in units of
  blocks) into ``(capacity, miss ratio)`` pairs, and
  :func:`iblp_mrc_grid` sweeps IBLP splits with direct simulation for
  comparison (IBLP is *not* a stack policy, so no one-pass shortcut
  exists — the engine run is the honest tool).
* :func:`sampled_miss_ratio_curve` and :func:`sampled_spatial_fraction`
  — SHARDS-sampled approximations.

Stack distances come from :mod:`repro.core.reuse` (one keyed sort of
the run heads for their previous occurrences, then a dominance count
over the warm run heads only: a broadcast compare within blocks of 16
and numpy-vectorized merge levels above).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.engine import simulate
from repro.core.fast import stack_distances
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.policies.iblp import IBLP

__all__ = [
    "miss_ratio_curve",
    "iblp_mrc_grid",
    "sampled_miss_ratio_curve",
    "sampled_spatial_fraction",
]


def miss_ratio_curve(
    distances: np.ndarray, capacities: Sequence[int]
) -> List[Tuple[int, float]]:
    """Miss ratio at each capacity from a stack-distance array.

    A capacity-``k`` LRU cache misses an access iff its distance is -1
    (cold) or ``>= k``.
    """
    if not len(distances):
        raise ConfigurationError("empty distance array")
    caps = sorted(set(int(c) for c in capacities))
    if not caps:
        raise ConfigurationError("no capacities given")
    if caps[0] < 1:
        raise ConfigurationError("capacities must be >= 1")
    n = len(distances)
    finite = distances[distances >= 0]
    hist = np.bincount(finite, minlength=max(caps) + 1) if finite.size else (
        np.zeros(max(caps) + 1, dtype=np.int64)
    )
    cum = np.cumsum(hist)
    out = []
    for k in caps:
        hits = int(cum[k - 1]) if k - 1 < len(cum) else int(cum[-1])
        out.append((k, (n - hits) / n))
    return out


def iblp_mrc_grid(
    trace: Trace,
    capacities: Sequence[int],
    splits: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 1.0),
) -> List[Dict[str, float]]:
    """IBLP miss ratios over a (capacity, split-fraction) grid.

    ``splits`` are item-layer fractions of the capacity.  IBLP is not a
    stack policy (no inclusion property across splits), so each cell is
    one referee-validated simulation.
    """
    rows: List[Dict[str, float]] = []
    for k in capacities:
        for frac in splits:
            i = int(round(frac * k))
            res = simulate(IBLP(k, trace.mapping, item_layer_size=i), trace)
            rows.append(
                {
                    "capacity": k,
                    "item_fraction": frac,
                    "item_layer": i,
                    "miss_ratio": res.miss_ratio,
                }
            )
    return rows


# --------------------------------------------------------------------------
# SHARDS-sampled approximate curves
# --------------------------------------------------------------------------
#
# Spatially hashed sampling (SHARDS) keeps a block iff
# SplitMix64(block ^ salt) < rate * 2^64, i.e. each block survives with
# probability `rate` independently of access order.  Distinct-id counts
# in any window then scale by `rate` in expectation — whole blocks
# survive or vanish together, so both block-granular *and*
# item-granular distinct counts shrink proportionally — which gives the
# rescaling rule: a sampled stack distance d estimates a true distance
# d / rate, so a capacity-k cache hits a sampled access iff d < k*rate.
#
# Error model: each curve point is a binomial proportion over the
# sampled blocks; with S sampled accesses the standard error is about
# sqrt(p(1-p)/S) plus the distance-rescaling noise.  Empirically, on
# the reference synthetic workloads (zipf alpha=1.0 and markov, >= 50k
# accesses) the max absolute miss-ratio error stays under 0.02 at rate
# 0.01 and shrinks with the rate; the property suite pins a
# conservative <= 0.05 bound at rates >= 0.05 (documented in
# docs/traces.md).


def sampled_miss_ratio_curve(
    trace: Trace,
    capacities: Sequence[int],
    rate: float,
    seed: int = 0,
    granularity: str = "item",
) -> List[Tuple[int, float]]:
    """Approximate LRU miss-ratio curve from a SHARDS sample.

    ``granularity`` selects the item-LRU (``"item"``, capacities in
    items) or Block-LRU (``"block"``, capacities in blocks) curve.  The
    sample is gathered chunk-at-a-time (bounded memory for mmap-backed
    traces) and Mattson runs over only ``~rate * n`` accesses — the
    source of the ingest benchmark's speedup.
    """
    from repro.workloads.stream import shards

    if granularity not in ("item", "block"):
        raise ConfigurationError(
            f"granularity must be 'item' or 'block', got {granularity!r}"
        )
    caps = sorted(set(int(c) for c in capacities))
    if not caps:
        raise ConfigurationError("no capacities given")
    if caps[0] < 1:
        raise ConfigurationError("capacities must be >= 1")
    sampler = shards(rate, seed)
    ids = sampler.sampled_items(trace)
    if ids.size == 0:
        raise ConfigurationError(
            f"no accesses survived sampling at rate {rate}; "
            "raise the rate or change the seed"
        )
    if granularity == "block":
        ids = trace.mapping.blocks_of(ids)
    distances = stack_distances(np.asarray(ids, dtype=np.int64))
    n = distances.size
    out: List[Tuple[int, float]] = []
    for k in caps:
        threshold = k * sampler.rate
        hits = int(np.count_nonzero((distances >= 0) & (distances < threshold)))
        out.append((k, (n - hits) / n))
    return out


def sampled_spatial_fraction(
    trace: Trace,
    capacity: int,
    rate: float,
    seed: int = 0,
) -> float:
    """Estimate Block-LRU's ``spatial_fraction`` at ``capacity`` from a sample.

    Replays the fast Block-LRU kernel over the SHARDS sub-trace at the
    rate-scaled capacity (rounded to whole blocks, floored at one
    block).  The spatial/temporal hit *ratio* is scale-free under
    block-closed sampling, so this estimates the full-trace fraction
    without a full replay.
    """
    from repro.policies.base import make_policy
    from repro.workloads.stream import shards

    if capacity < 1:
        raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
    sampler = shards(rate, seed)
    sub = sampler.sample(trace)
    if not len(sub):
        raise ConfigurationError(
            f"no accesses survived sampling at rate {rate}; "
            "raise the rate or change the seed"
        )
    bsize = int(trace.mapping.max_block_size)
    scaled = max(bsize, int(round(capacity * sampler.rate / bsize)) * bsize)
    policy = make_policy("block-lru", scaled, trace.mapping)
    return simulate(policy, sub, fast=True).spatial_fraction
