"""Experiment integration: a memo layer over the runner's cells.

The experiment drivers (:mod:`repro.experiments`) replay hand-built
policy cells over their own traces; rewriting them as declarative grids
would lose their narrative structure.  :class:`CampaignCache` instead
gives them the campaign subsystem's memoization à la carte.  Each
method builds :class:`~repro.campaign.spec.CellSpec` cells and hands
them to one memo loop, which addresses them with
:meth:`CellSpec.digest` (the address ``campaign run`` uses), serves the
stored ones from the crash-safe
:class:`~repro.campaign.store.ResultStore`, and computes the rest with
:func:`~repro.campaign.runner.run_cell` — offline fast cells with a
kernel share one :func:`~repro.core.fast.multi_policy_replay`
traversal.  An experiment rendered through a cache is resumable: kill
it anywhere, rerun, and only the not-yet-stored cells execute.

:data:`UNCACHED` is the store-less cache (``directory=None``): no
store, no journal, no addresses, every cell computed through the same
path.  It is the drivers' default, so no caller branches on whether a
cache exists.

Only trace-driven simulations are cacheable.  Adaptive-adversary runs
(the adversary reacts to the policy's decisions, so there is no trace
to fingerprint until after the run) always execute live; experiments
mixing both memoize the trace-driven part.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.campaign.journal import Journal
from repro.campaign.runner import result_fields, result_from_fields, run_cell
from repro.campaign.spec import CellSpec, canonical_json
from repro.campaign.store import ResultStore
from repro.core.trace import Trace

__all__ = ["CampaignCache", "UNCACHED", "open_cache"]

#: ``compute(cell, trace) -> result`` for one cell the store lacks.
_Compute = Callable[[CellSpec, Trace], Any]


def _canonical(cls: Any, value: Any) -> Optional[Dict[str, Any]]:
    """``value`` — a ``cls`` instance or its dict form — as the
    canonical dict the content address hashes (``None`` passes)."""
    if value is None:
        return None
    return (value if isinstance(value, cls) else cls.from_dict(value)).as_dict()


class CampaignCache:
    """Content-addressed memoization of experiment cells.

    Parameters
    ----------
    directory:
        Campaign directory holding the store and journal (shared with
        ``campaign`` CLI runs pointed at the same directory), or
        ``None`` for the store-less cache that computes every cell.
    """

    def __init__(self, directory: Optional[str | Path]) -> None:
        self.directory = None if directory is None else Path(directory)
        self.store = None
        self.journal = None
        if self.directory is not None:
            self.store = ResultStore(self.directory)
            self.journal = Journal(self.directory)
        self.hits = 0
        self.computed = 0

    def simulate_many(
        self,
        cells: Any,
        trace: Trace,
        fast: bool = True,
    ) -> list:
        """Memoized batch of simulations over one trace.

        The memoized equivalent of ``simulate(make_policy(...), trace,
        fast=fast)`` per cell, and the one place cells are batched:
        the kernel-covered cells it computes share one
        :func:`~repro.core.fast.multi_policy_replay` traversal (see
        :func:`_compute`).  Each :class:`~repro.types.SimResult` is
        bit-identical whether computed now or served from the store
        (the store keeps the full result state, not just the derived
        row).  ``cells`` takes every shape
        :func:`repro.core.fast.multi_policy_replay` takes:
        ``(policy, capacity)``, ``(policy, capacity, policy_kwargs)``,
        or a dict with ``policy``/``capacity`` keys (extra keys are
        policy kwargs); anything else raises
        :class:`~repro.errors.ConfigurationError`.  Each cell keeps its
        own content address, so stored cells are served unchanged and
        cells computed here are visible to later calls.  Returns
        results in input order.
        """
        from repro.core.fast import _normalize_cells

        return self._run(
            [
                CellSpec(name, capacity, "", fast=fast, policy_kwargs=kwargs)
                for name, capacity, kwargs in _normalize_cells(cells)
            ],
            trace,
        )

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
        from repro.serving import ServingConfig

        cell = CellSpec(
            policy,
            capacity,
            "",
            fast=False,
            policy_kwargs=policy_kwargs,
            serving=_canonical(ServingConfig, serving),
        )
        (result,) = self._run([cell], trace)
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
        from repro.cluster import ClusterSpec
        from repro.serving import ServingConfig

        cell = CellSpec(
            policy,
            capacity,
            "",
            fast=fast if serving is None else False,
            policy_kwargs=policy_kwargs,
            serving=_canonical(ServingConfig, serving),
            cluster=_canonical(ClusterSpec, cluster),
        )
        (result,) = self._run([cell], trace)
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
        four isolation configurations stores under its own cell.  A
        tenant mix is not a runner cell, so the compute step is
        :func:`repro.cluster.replay_multitenant`.
        """
        from repro.cluster import ClusterSpec, combine_tenants, replay_multitenant

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
        cell = CellSpec(
            policy,
            capacity,
            "",
            fast=fast,
            cluster={**spec.as_dict(), "tenancy": tenancy},
        )

        def compute(_cell: CellSpec, _trace: Trace):
            return replay_multitenant(
                tenant_traces,
                mode,
                policy,
                capacity,
                spec,
                policies=policies,
                shares=shares,
                fast=fast,
            )

        (result,) = self._run([cell], combined, compute)
        return result

    def _run(
        self,
        cells: Sequence[CellSpec],
        trace: Trace,
        compute: _Compute = run_cell,
    ) -> list:
        """The one memo loop: results for ``cells`` over ``trace``.

        Cells are deduplicated by content address (a repeat is served
        from its first occurrence and counts as a hit), stored cells
        come from the store, and the misses are computed once each by
        :func:`_compute`, then stored and journaled ``done`` with
        ``source="cache"``.  The store-less cache computes every cell.
        """
        if self.store is None:
            return _compute(cells, trace, compute)
        fingerprint = trace.fingerprint()
        digests = [cell.digest(fingerprint) for cell in cells]
        results: list = [None] * len(cells)
        first: Dict[str, int] = {}
        for i, digest in enumerate(digests):
            if digest not in first:
                first[digest] = i
                stored = self.store.get(digest)
                if stored is not None:
                    results[i] = result_from_fields(stored)
        missing = [i for i in first.values() if results[i] is None]
        computed = _compute([cells[i] for i in missing], trace, compute)
        for i, result in zip(missing, computed):
            payload = result_fields(result)
            self.store.put(digests[i], payload)
            self.journal.append(
                "done", hash=digests[i], attempt=1, memo=False, source="cache"
            )
            # Return what a warm run reads back: the stored payload has
            # key-sorted metadata, so cold and warm rows share one
            # column order.
            results[i] = result_from_fields(json.loads(canonical_json(payload)))
        for i, digest in enumerate(digests):
            if results[i] is None:  # a repeat of an earlier cell
                results[i] = result_from_fields(result_fields(results[first[digest]]))
        self.computed += len(missing)
        self.hits += len(cells) - len(missing)
        return results

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.computed
        return self.hits / total if total else 0.0

    def close(self) -> None:
        if self.store is None:
            return
        self.store.close()
        self.journal.close()

    def __enter__(self) -> "CampaignCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _compute(
    cells: Sequence[CellSpec], trace: Trace, compute: _Compute
) -> List[Any]:
    """Compute ``cells`` over ``trace``, in order.

    Offline fast cells whose policy has a kernel share one
    :func:`repro.core.fast.multi_policy_replay` traversal; every other
    cell goes through ``compute`` on its own.
    """
    from repro.core.fast import multi_policy_replay, multi_policy_supported

    batch = [
        i
        for i, cell in enumerate(cells)
        if cell.fast
        and cell.serving is None
        and cell.cluster is None
        and multi_policy_supported([(cell.policy, cell.capacity)], trace)
    ]
    results: List[Any] = [None] * len(cells)
    if batch:
        batched = multi_policy_replay(
            [
                (cells[i].policy, cells[i].capacity, dict(cells[i].policy_kwargs))
                for i in batch
            ],
            trace,
        )
        for i, result in zip(batch, batched):
            results[i] = result
    for i, cell in enumerate(cells):
        if results[i] is None:
            results[i] = compute(cell, trace)
    return results


#: The store-less cache: computes every cell, keeps no state, and its
#: :meth:`~CampaignCache.close` does nothing, so one instance is shared.
UNCACHED = CampaignCache(None)


def open_cache(directory: Optional[str | Path]) -> CampaignCache:
    """``CampaignCache`` for ``directory``, or :data:`UNCACHED` when no
    directory is given (the experiments' uncached default)."""
    if directory is None:
        return UNCACHED
    return CampaignCache(directory)
