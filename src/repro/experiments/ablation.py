"""Experiment E-ABL: design-choice ablations the paper argues for.

Four studies, each pinned to a paper claim:

1. **Layer order** (§5.1): canonical IBLP vs :class:`BlockFirstIBLP`
   on a hot-items-over-streaming-blocks mixture.  Letting temporal
   hits refresh block-layer recency lets a few hot blocks pollute it.
2. **Load granularity** (§4.4): sweep :class:`AThresholdLRU` over
   ``a``; the extremes (1 and B) should dominate the middle under the
   Theorem 4 adversary, and ``a = 1`` should win on spatial workloads.
3. **Eviction granularity** (§4.4): Block cache (block eviction) vs
   IBLP/athreshold (item eviction) on sparse-block traffic.
4. **GCM marking discipline** (§6): GCM vs a marker that ignores
   blocks vs one that marks side loads, on mixed traffic.
5. **Full policy matrix** (§5–§6): every registered online policy —
   20 cells including the parameterized variants — on mixed traffic,
   replayed in one single-pass ``multi_policy_replay`` traversal.

Every trace-driven study accepts a
:class:`~repro.campaign.CampaignCache`; with one over a campaign
directory, simulations are memoized by content address and the whole
ablation becomes resumable.
The a-threshold sweep is adaptive-adversarial (no trace to fingerprint)
and always runs live.
"""

from __future__ import annotations

from typing import Dict, List

from repro.adversary import GeneralAdversary
from repro.analysis.competitive import measure_adversarial
from repro.analysis.tables import format_table
from repro.campaign.integrate import UNCACHED, CampaignCache
from repro.workloads import hot_and_stream

__all__ = [
    "layer_order",
    "athreshold_sweep",
    "eviction_granularity",
    "granularity_sweep",
    "gcm_variants",
    "policy_matrix",
    "matrix_cells",
    "render",
]


def _serving_columns(
    cache: CampaignCache,
    policy: str,
    capacity: int,
    trace,
    serving,
    **policy_kwargs,
) -> Dict[str, float]:
    """Optional p50/p99 sojourn columns for one experiment row.

    ``serving`` is a :class:`repro.serving.ServingConfig` (or dict
    form) — ``None`` keeps the row offline-only, so existing tables are
    byte-identical unless serving is requested.  Runs through
    :meth:`CampaignCache.serve`, so with a campaign cache the
    request-level runs memoize alongside the offline cells.
    """
    if serving is None:
        return {}
    result = cache.serve(policy, capacity, trace, serving, **policy_kwargs)
    return {"p50_sojourn": result.p50, "p99_sojourn": result.p99}


def layer_order(
    k: int = 256,
    B: int = 8,
    length: int = 60_000,
    cache: CampaignCache = UNCACHED,
    serving=None,
) -> List[Dict[str, float]]:
    """§5.1: item-first vs block-first layering on pollution traffic.

    The hazard needs two ingredients: a small hot set whose frequent
    accesses would keep refreshing its blocks' recency, and stream
    reuse that needs nearly the whole block layer.  We interleave a
    hot set of ``k/32`` items (one per block) with enough concurrent
    sequential streams that the block layer only fits them if the hot
    blocks age out — which happens under canonical IBLP (item-layer
    hits never touch block recency) but not under the block-first
    variant (every hot hit re-pins its block).
    """
    import numpy as np

    from repro.core.mapping import FixedBlockMapping
    from repro.core.trace import Trace

    hot_items = max(2, min(8, k // 32))
    block_slots = (k // 2) // B  # block layer of the even split
    # More streams than block-first's post-pollution slots, but no more
    # than the full block layer (canonical fits them once the hot
    # blocks age out).
    streams = block_slots - hot_items // 2
    blocks_per_stream = 32
    hot_blocks = hot_items
    universe = (hot_blocks + streams * blocks_per_stream) * B
    mapping = FixedBlockMapping(universe=universe, block_size=B)
    lap = blocks_per_stream * B
    stream_base = hot_blocks * B
    accesses = [h * B for h in range(hot_items)]  # warm the hot blocks
    cursor = 0
    hot_cursor = 0
    # Deterministic 1:1 interleave: each hot item recurs every
    # 2*hot_items accesses, far more often than block-first's LRU can
    # ever age its block out — the §5.1 pinning in its purest form.
    while len(accesses) < length:
        accesses.append((hot_cursor % hot_items) * B)
        hot_cursor += 1
        s = cursor % streams
        offset = (cursor // streams) % lap
        accesses.append(stream_base + s * lap + offset)
        cursor += 1
    trace = Trace(
        np.asarray(accesses[:length], dtype=np.int64),
        mapping,
        {"generator": "layer_order_pollution"},
    )
    names = ("iblp", "iblp-blockfirst")
    results = cache.simulate_many([(name, k) for name in names], trace)
    rows = []
    for name, res in zip(names, results):
        rows.append(
            {
                "study": "layer_order",
                "policy": name,
                "misses": res.misses,
                "miss_ratio": res.miss_ratio,
                "spatial_hits": res.spatial_hits,
                "spatial_fraction": res.spatial_fraction,
                "mean_load_set_size": res.mean_load_set_size,
                **_serving_columns(cache, name, k, trace, serving),
            }
        )
    return rows


def athreshold_sweep(
    k: int = 256, h: int = 48, B: int = 8, cycles: int = 4
) -> List[Dict[str, float]]:
    """§4.4: the a-extremes dominate under the Theorem 4 adversary."""
    from repro.policies import AThresholdLRU

    rows = []
    for a in range(1, B + 1):
        adv = GeneralAdversary(k, h, B)
        m = measure_adversarial(
            adv, lambda mp, a=a: AThresholdLRU(k, mp, a=a), cycles=cycles
        )
        rows.append(
            {
                "study": "athreshold",
                "a": a,
                "ratio": m.ratio_vs_claimed,
            }
        )
    return rows


def eviction_granularity(
    k: int = 256,
    B: int = 8,
    length: int = 60_000,
    seed: int = 5,
    cache: CampaignCache = UNCACHED,
    serving=None,
) -> List[Dict[str, float]]:
    """§4.4: item-granularity eviction vs block eviction on sparse reuse.

    The workload reuses exactly one item per block (working set = k
    items, one per block).  A block-evicting cache keeps only ``k/B``
    useful items; policies that evict items individually — and prefer
    accessed items over never-touched neighbours, as IBLP's item layer
    does structurally — retain far more of the working set.
    """
    import numpy as np

    from repro.core.mapping import FixedBlockMapping
    from repro.core.trace import Trace

    rng = np.random.default_rng(seed)
    n_hot = k  # one hot item per block, exactly cache-sized
    mapping = FixedBlockMapping(universe=n_hot * B, block_size=B)
    items = (rng.integers(0, n_hot, length) * B).astype(np.int64)
    trace = Trace(items, mapping, {"generator": "one_hot_per_block"})
    cells = [("block-lru", k, {}), ("athreshold-lru", k, {"a": 1}), ("iblp", k, {})]
    rows = []
    for (name, _k, kwargs), res in zip(cells, cache.simulate_many(cells, trace)):
        rows.append(
            {
                "study": "eviction_granularity",
                "policy": name,
                "misses": res.misses,
                "miss_ratio": res.miss_ratio,
                **_serving_columns(cache, name, k, trace, serving, **kwargs),
            }
        )
    return rows


def granularity_sweep(
    B: int = 8,
    length: int = 60_000,
    seed: int = 5,
    capacities: tuple = (32, 64, 128, 256, 512, 1024, 2048, 4096),
) -> List[Dict[str, float]]:
    """§4.4 continued: the block-eviction penalty as a function of ``k``.

    Replays :func:`eviction_granularity`'s sparse-reuse trace (one hot
    item per block) under Item-LRU and Block-LRU at every capacity.
    Block eviction wastes ``B - 1`` slots per useful item, so its curve
    lags Item-LRU's by roughly a factor ``B`` in capacity.  Both are
    stack policies, so the full grid is one
    :meth:`~repro.campaign.CampaignCache.simulate_many` batch — the
    whole curve costs two stack-distance passes, not 16 replays.
    """
    import numpy as np

    from repro.core.mapping import FixedBlockMapping
    from repro.core.trace import Trace

    rng = np.random.default_rng(seed)
    n_hot = 512  # fixed working set, decoupled from the swept capacity
    mapping = FixedBlockMapping(universe=n_hot * B, block_size=B)
    items = (rng.integers(0, n_hot, length) * B).astype(np.int64)
    trace = Trace(items, mapping, {"generator": "one_hot_per_block"})
    cells = [
        (policy, k) for policy in ("item-lru", "block-lru") for k in capacities
    ]
    return [
        {
            "study": "granularity_sweep",
            "policy": res.policy,
            "capacity": res.capacity,
            "misses": res.misses,
            "miss_ratio": res.miss_ratio,
        }
        for res in UNCACHED.simulate_many(cells, trace)
    ]


def gcm_variants(
    k: int = 256,
    B: int = 8,
    length: int = 60_000,
    seed: int = 9,
    cache: CampaignCache = UNCACHED,
    serving=None,
) -> List[Dict[str, float]]:
    """§6: GCM vs block-oblivious marking vs mark-everything."""
    trace = hot_and_stream(
        length=length,
        hot_items=k // 2,
        stream_blocks=4 * k // B,
        block_size=B,
        hot_fraction=0.5,
        seed=seed,
    )
    names = ("gcm", "gcm-markall", "marking-lru")
    results = cache.simulate_many([(name, k) for name in names], trace)
    rows = []
    for name, res in zip(names, results):
        rows.append(
            {
                "study": "gcm_variants",
                "policy": name,
                "misses": res.misses,
                "miss_ratio": res.miss_ratio,
                "spatial_hits": res.spatial_hits,
                "spatial_fraction": res.spatial_fraction,
                "mean_load_set_size": res.mean_load_set_size,
                **_serving_columns(cache, name, k, trace, serving),
            }
        )
    return rows


def matrix_cells(k: int = 256) -> List[tuple]:
    """The full ablation-matrix cells: every registered online policy.

    One default-kwargs cell per kernel-covered policy plus the
    parameterized variants the paper's sections call for (a-threshold
    at ``a=2``, IBLP with a quarter-sized item layer, partial-marking
    GCM loading 4 neighbours) — 20 cells, all with fast kernels, so the
    matrix replays in a single :func:`repro.core.fast`
    ``multi_policy_replay`` traversal.
    """
    from repro.core.fast import FAST_POLICY_NAMES

    cells: List[tuple] = [(name, k) for name in FAST_POLICY_NAMES]
    cells.append(("athreshold-lru", k, {"a": 2}))
    cells.append(("iblp", k, {"item_layer_size": k // 4}))
    cells.append(("gcm-partial", k, {"load_count": 4}))
    return cells


def policy_matrix(
    k: int = 256,
    B: int = 8,
    length: int = 60_000,
    seed: int = 9,
    cache: CampaignCache = UNCACHED,
    serving=None,
) -> List[Dict[str, float]]:
    """The headline comparison: every policy family on mixed traffic.

    The paper's §5–§6 argument pits GCM/Marking/IBLP against the
    item/block baselines; this study runs *all* of them (the 20-cell
    :func:`matrix_cells` grid) over one :func:`hot_and_stream` trace.
    Every cell has a fast kernel, so the whole matrix advances in a
    single shared traversal (with a cache, each cell is memoized under
    its own content address).
    """
    trace = hot_and_stream(
        length=length,
        hot_items=k // 2,
        stream_blocks=4 * k // B,
        block_size=B,
        hot_fraction=0.5,
        seed=seed,
    )
    cells = matrix_cells(k=k)
    results = cache.simulate_many(cells, trace)
    rows = []
    for cell, res in zip(cells, results):
        name = cell[0]
        kwargs = cell[2] if len(cell) == 3 else {}
        variant = (
            name
            if not kwargs
            else name + "[" + ",".join(f"{a}={v}" for a, v in kwargs.items()) + "]"
        )
        rows.append(
            {
                "study": "policy_matrix",
                "policy": variant,
                "misses": res.misses,
                "miss_ratio": res.miss_ratio,
                "spatial_fraction": res.spatial_fraction,
                "mean_load_set_size": res.mean_load_set_size,
                **_serving_columns(cache, name, k, trace, serving, **kwargs),
            }
        )
    return rows


def render(
    k: int = 256,
    B: int = 8,
    cache: CampaignCache = UNCACHED,
    serving=None,
) -> str:
    """All ablations, formatted.

    With a ``cache`` over a campaign directory, the trace-driven
    studies are memoized (and a rerun after a crash recomputes only
    what is missing); the adversarial a-threshold sweep always
    executes live.  With ``serving`` (a
    :class:`repro.serving.ServingConfig` or dict), the single-capacity
    studies gain p50/p99 sojourn columns from request-level runs.
    """
    sections = [
        format_table(
            layer_order(k=k, B=B, cache=cache, serving=serving),
            title="§5.1 layer order",
        ),
        format_table(
            athreshold_sweep(k=k, B=B), title="\n§4.4 a-threshold sweep"
        ),
        format_table(
            eviction_granularity(k=k, B=B, cache=cache, serving=serving),
            title="\n§4.4 eviction granularity",
        ),
        format_table(
            granularity_sweep(B=B),
            title="\n§4.4 block-eviction penalty across cache sizes "
            "(batched Mattson replay)",
        ),
        format_table(
            gcm_variants(k=k, B=B, cache=cache, serving=serving),
            title="\n§6 GCM variants",
        ),
        format_table(
            policy_matrix(k=k, B=B, cache=cache, serving=serving),
            title="\n§5–§6 full policy matrix (single-pass multi-policy "
            "replay)",
        ),
    ]
    return "\n".join(sections)
