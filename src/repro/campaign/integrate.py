"""Experiment integration: a memoizing ``simulate`` front-end.

The experiment drivers (:mod:`repro.experiments`) replay hand-built
policy cells over their own traces; rewriting them as declarative grids
would lose their narrative structure.  :class:`CampaignCache` instead
gives them the campaign subsystem's memoization à la carte: it looks
like ``simulate`` but is keyed by the same content address the runner
uses (policy registry name + kwargs, capacity, trace fingerprint, fast
flag, code version), backed by the same crash-safe
:class:`~repro.campaign.store.ResultStore`.  An experiment rendered
through a cache is resumable — kill it anywhere, rerun, and only the
not-yet-stored simulations execute.

Only trace-driven simulations are cacheable.  Adaptive-adversary runs
(the adversary reacts to the policy's decisions, so there is no trace
to fingerprint until after the run) always execute live; experiments
mixing both memoize the trace-driven part.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.journal import Journal
from repro.campaign.spec import cell_hash
from repro.campaign.store import ResultStore
from repro.campaign.runner import result_fields, result_from_fields
from repro.core.trace import Trace
from repro.types import SimResult

__all__ = ["CampaignCache", "cached_simulate", "cached_serve", "open_cache"]


class CampaignCache:
    """Content-addressed memoization of ``simulate`` calls.

    Parameters
    ----------
    directory:
        Campaign directory holding the store and journal (shared with
        ``campaign`` CLI runs pointed at the same directory).
    recorder:
        Optional :class:`repro.telemetry.Recorder`; hit/miss counters
        are published into its registry on :meth:`close`.
    """

    def __init__(
        self, directory: str | Path, recorder=None, store_sync: bool = True
    ) -> None:
        self.directory = Path(directory)
        self.store = ResultStore(self.directory, sync=store_sync)
        self.journal = Journal(self.directory)
        self.recorder = recorder
        self.hits = 0
        self.computed = 0

    def simulate(
        self,
        policy: str,
        capacity: int,
        trace: Trace,
        fast: bool = False,
        **policy_kwargs: Any,
    ) -> SimResult:
        """Memoized equivalent of ``simulate(make_policy(...), trace)``.

        ``policy`` is a registry name (:func:`repro.policies.make_policy`);
        the returned :class:`SimResult` is bit-identical whether it was
        computed now or served from the store (the store keeps the full
        result state, not just the derived row).  A one-cell
        :meth:`simulate_many`.
        """
        (result,) = self.simulate_many(
            [(policy, capacity, policy_kwargs)], trace, fast=fast
        )
        return result

    def simulate_many(
        self,
        cells: Any,
        trace: Trace,
        fast: bool = True,
    ) -> list:
        """Memoized batch of simulations over one trace.

        ``cells`` takes every shape
        :func:`repro.core.fast.multi_policy_replay` takes:
        ``(policy, capacity)``, ``(policy, capacity, policy_kwargs)``,
        or a dict with ``policy``/``capacity`` keys (extra keys are
        policy kwargs); anything else raises
        :class:`~repro.errors.ConfigurationError`.  Each cell keeps its
        own content address, so stored cells are served unchanged and
        cells computed here are visible to later calls.  The cells the
        store cannot answer are computed once each — a repeated cell
        is served from its first occurrence and counts as a hit — in
        one multi-policy traversal when every one has a kernel, and
        per-cell otherwise.  Returns results in input order.
        """
        from repro.core.fast import _normalize_cells

        norm = _normalize_cells(cells)
        fingerprint = trace.fingerprint()
        digests = [
            cell_hash(
                policy=name,
                capacity=capacity,
                trace_fingerprint=fingerprint,
                fast=fast,
                policy_kwargs=kwargs,
            )
            for name, capacity, kwargs in norm
        ]
        results: list = [None] * len(norm)
        first: Dict[str, int] = {}
        for i, digest in enumerate(digests):
            if digest not in first:
                first[digest] = i
                stored = self.store.get(digest)
                if stored is not None:
                    results[i] = result_from_fields(stored)
        missing = [i for i in first.values() if results[i] is None]
        if missing:
            computed = _replay([norm[i] for i in missing], trace, fast)
            for i, result in zip(missing, computed):
                self.store.put(digests[i], result_fields(result))
                self.journal.append(
                    "done", hash=digests[i], attempt=1, memo=False, source="cache"
                )
                results[i] = result
        for i, digest in enumerate(digests):
            if results[i] is None:  # a repeat of an earlier cell
                results[i] = result_from_fields(result_fields(results[first[digest]]))
        self.computed += len(missing)
        self.hits += len(norm) - len(missing)
        return results

    def serve(
        self,
        policy: str,
        capacity: int,
        trace: Trace,
        serving: Any,
        **policy_kwargs: Any,
    ):
        """Memoized equivalent of ``serve(make_policy(...), trace, config)``.

        ``serving`` is a :class:`repro.serving.ServingConfig` (or its
        dict form); its canonical dict joins the content address, so a
        changed arrival rate, service model, or queue knob can never be
        served from a stale cell.  Returns a
        :class:`repro.serving.ServingResult`, bit-identical whether
        computed now or replayed from the store.
        """
        from repro.serving import ServingConfig, serve_policy

        config = (
            serving
            if isinstance(serving, ServingConfig)
            else ServingConfig.from_dict(serving)
        )
        digest = cell_hash(
            policy=policy,
            capacity=capacity,
            trace_fingerprint=trace.fingerprint(),
            fast=False,
            policy_kwargs=policy_kwargs,
            serving=config.as_dict(),
        )
        stored = self.store.get(digest)
        if stored is not None:
            self.hits += 1
            return result_from_fields(stored)
        result = serve_policy(policy, capacity, trace, config, **policy_kwargs)
        self.store.put(digest, result.fields())
        self.journal.append(
            "done", hash=digest, attempt=1, memo=False, source="cache"
        )
        self.computed += 1
        return result

    def cluster(
        self,
        policy: str,
        capacity: int,
        trace: Trace,
        cluster: Any,
        serving: Any = None,
        fast: bool = True,
        **policy_kwargs: Any,
    ):
        """Memoized N-shard cluster replay (or cluster serving run).

        ``cluster`` is a :class:`repro.cluster.ClusterSpec` (or its
        dict form); its canonical dict joins the content address, so a
        different shard count, hash scheme, seed, or capacity mode can
        never reuse another configuration's cell.  With ``serving``
        given the cell runs through
        :func:`repro.cluster.serving_bridge.serve_cluster` and returns
        a :class:`repro.serving.ServingResult`; otherwise it replays
        offline and returns a :class:`repro.cluster.ClusterResult`.
        """
        from repro.cluster import ClusterSpec, replay_cluster

        spec = (
            cluster
            if isinstance(cluster, ClusterSpec)
            else ClusterSpec.from_dict(cluster)
        )
        serving_dict = None
        config = None
        if serving is not None:
            from repro.serving import ServingConfig

            config = (
                serving
                if isinstance(serving, ServingConfig)
                else ServingConfig.from_dict(serving)
            )
            serving_dict = config.as_dict()
        digest = cell_hash(
            policy=policy,
            capacity=capacity,
            trace_fingerprint=trace.fingerprint(),
            fast=fast if serving is None else False,
            policy_kwargs=policy_kwargs,
            serving=serving_dict,
            cluster=spec.as_dict(),
        )
        stored = self.store.get(digest)
        if stored is not None:
            self.hits += 1
            return result_from_fields(stored)
        if config is not None:
            from repro.cluster.serving_bridge import serve_cluster

            result = serve_cluster(
                policy,
                capacity,
                trace,
                spec,
                config,
                policy_kwargs=policy_kwargs,
            )
        else:
            result = replay_cluster(
                policy,
                capacity,
                trace,
                spec,
                policy_kwargs=policy_kwargs,
                fast=fast,
            )
        self.store.put(digest, result.fields())
        self.journal.append(
            "done", hash=digest, attempt=1, memo=False, source="cache"
        )
        self.computed += 1
        return result

    def cluster_multitenant(
        self,
        tenant_traces: Any,
        mode: str,
        policy: str,
        capacity: int,
        cluster: Any,
        policies: Any = None,
        shares: Any = None,
        fast: bool = True,
    ):
        """Memoized multi-tenant partitioning run (isolation configs).

        The content address is the *combined* tenant trace's
        fingerprint (:func:`repro.cluster.combine_tenants` is
        deterministic, so it names the tenant mix exactly) plus the
        cluster dict extended with the tenancy configuration — mode,
        per-tenant policies, and capacity shares — so every one of the
        four isolation configurations stores under its own cell.
        """
        from repro.cluster import (
            ClusterSpec,
            combine_tenants,
            replay_multitenant,
        )

        spec = (
            cluster
            if isinstance(cluster, ClusterSpec)
            else ClusterSpec.from_dict(cluster)
        )
        combined, _ids, names = combine_tenants(tenant_traces)
        tenancy = {
            "mode": mode,
            "tenants": names,
            "policies": dict(policies or {}),
            "shares": dict(shares or {}),
        }
        digest = cell_hash(
            policy=policy,
            capacity=capacity,
            trace_fingerprint=combined.fingerprint(),
            fast=fast,
            cluster={**spec.as_dict(), "tenancy": tenancy},
        )
        stored = self.store.get(digest)
        if stored is not None:
            self.hits += 1
            return result_from_fields(stored)
        result = replay_multitenant(
            tenant_traces,
            mode,
            policy,
            capacity,
            spec,
            policies=policies,
            shares=shares,
            fast=fast,
        )
        self.store.put(digest, result.fields())
        self.journal.append(
            "done", hash=digest, attempt=1, memo=False, source="cache"
        )
        self.computed += 1
        return result

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.computed
        return self.hits / total if total else 0.0

    def close(self) -> None:
        if self.recorder is not None:
            reg = self.recorder.registry
            reg.counter("campaign_cache_hits").inc(self.hits)
            reg.counter("campaign_cache_computed").inc(self.computed)
            reg.gauge("campaign_cache_hit_ratio").set(self.hit_ratio)
        self.store.close()
        self.journal.close()

    def __enter__(self) -> "CampaignCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _replay(cells: list, trace: Trace, fast: bool) -> List[SimResult]:
    """Compute normalized cells: one
    :func:`repro.core.fast.multi_policy_replay` traversal when ``fast``
    and every cell has a kernel, per-cell ``simulate`` otherwise."""
    from repro.core.fast import multi_policy_replay, multi_policy_supported

    if fast and multi_policy_supported(cells, trace):
        return multi_policy_replay(cells, trace)
    from repro.core.engine import simulate
    from repro.policies import make_policy

    return [
        simulate(make_policy(name, capacity, trace.mapping, **kwargs), trace, fast=fast)
        for name, capacity, kwargs in cells
    ]


def cached_simulate(
    cache: Optional["CampaignCache"],
    cells: Any,
    trace: Trace,
    fast: bool = True,
) -> List[SimResult]:
    """``cache.simulate_many(...)``, or the same replay uncached when
    ``cache`` is None.

    The single call-site shape the experiment drivers use: they take an
    optional cache and route each trace's cells through this in one
    call, so the same code path serves both ``render()`` (uncached) and
    campaign-backed resumable runs, and either way a trace's cells
    share one traversal.
    """
    if cache is not None:
        return cache.simulate_many(cells, trace, fast=fast)
    from repro.core.fast import _normalize_cells

    return _replay(_normalize_cells(cells), trace, fast)


def cached_serve(
    cache: Optional["CampaignCache"],
    policy: str,
    capacity: int,
    trace: Trace,
    serving: Any,
    **policy_kwargs: Any,
):
    """``cache.serve(...)``, or a plain uncached ``serve_policy`` when
    ``cache`` is None.

    The serving-column twin of :func:`cached_simulate`: experiments
    that attach p50/p99 sojourn columns route through this so the
    request-level runs memoize alongside the offline cells.
    """
    if cache is not None:
        return cache.serve(policy, capacity, trace, serving, **policy_kwargs)
    from repro.serving import ServingConfig, serve_policy

    config = (
        serving
        if isinstance(serving, ServingConfig)
        else ServingConfig.from_dict(serving)
    )
    return serve_policy(policy, capacity, trace, config, **policy_kwargs)


def open_cache(
    directory: Optional[str | Path], recorder=None
) -> Optional[CampaignCache]:
    """``CampaignCache`` for ``directory``, or ``None`` when no
    directory is given (the experiments' uncached default)."""
    if directory is None:
        return None
    return CampaignCache(directory, recorder=recorder)
