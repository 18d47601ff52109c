"""Campaign descriptions and the content address of a cell.

A campaign is a named grid of *cells*; each cell names a registered
policy, its kwargs, a capacity, a trace, and whether the fast replay
kernels may serve it.  Traces are referenced by key into the
campaign's trace table so a grid over two policies × three capacities
carries one copy of each trace spec, not six.

Content addressing
------------------
:func:`cell_hash` maps a cell to a stable SHA-256 over a canonical
JSON encoding of every input that can change the result:

* policy name and policy kwargs (sorted),
* capacity,
* the **trace fingerprint** (:meth:`repro.core.trace.Trace.fingerprint`
  — access sequence + block partition, independent of how the trace
  was built),
* the ``fast`` flag (the conformance harness proves fast and referee
  replay bit-identical, but the flag is still an input: a hash that
  ignored it could serve a referee row where a kernel bug repro was
  requested),
* the library version (``repro.__version__``), so upgrading the code
  invalidates memoized rows instead of silently mixing versions.

Anything *not* in the list — trace metadata, worker count, retry
policy, wall-clock — must not influence the result, and therefore
does not influence the address.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import repro
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.telemetry import spans

__all__ = [
    "TraceSpec",
    "CellSpec",
    "CampaignSpec",
    "cell_hash",
    "canonical_json",
    "trace_workload_names",
]

SPEC_FILENAME = "spec.json"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _workload_registry() -> Dict[str, Callable[..., Trace]]:
    # Imported lazily so `repro.campaign.spec` stays importable without
    # the workload stack (mirrors sweep's lazy-import convention).
    from repro import workloads as w

    return {
        "uniform": w.uniform_random,
        "zipf": w.zipf_items,
        "scan": w.sequential_scan,
        "cyclic_scan": w.cyclic_scan,
        "strided": w.strided,
        "block_runs": w.block_runs,
        "markov": w.markov_spatial,
        "block_zipf": w.block_zipf,
        "interleaved_streams": w.interleaved_streams,
        "hot_and_stream": w.hot_and_stream,
        "dram": w.dram_cache_workload,
        "pagecache": w.page_cache_workload,
        "etc": w.etc_kv_workload,
    }


def trace_workload_names() -> List[str]:
    """Workload generator names a :class:`TraceSpec` may reference."""
    return sorted(_workload_registry())


@dataclass(frozen=True)
class TraceSpec:
    """A reproducible trace reference: generator call or trace file.

    ``kind="workload"`` names a generator from
    :func:`trace_workload_names` with JSON-scalar ``params``;
    ``kind="file"`` names a text trace readable by
    :func:`repro.workloads.trace_io.read_text_trace`;
    ``kind="rtc"`` names a compiled ``.rtc`` trace opened memory-mapped
    via :func:`repro.core.rtc.open_rtc` — materialization is a header
    read plus an mmap, so huge traces cost nothing to plan.  Either way
    the cell hash uses the *materialized* trace's fingerprint, so an
    edited trace file recomputes its cells even though the spec text
    is unchanged.
    """

    kind: str = "workload"
    name: str = "uniform"
    params: Mapping[str, Any] = field(default_factory=dict)
    path: Optional[str] = None
    block_size: Optional[int] = None
    densify: bool = False

    def materialize(self) -> Trace:
        """Build the trace this spec describes.

        Runs under a ``campaign.materialize`` span carrying ``kind``,
        ``name`` (generator name or path) and ``accesses``; a generator
        that draws per step also names its draw stream there
        (``rng="raw"|"numpy"``, see :mod:`repro.core.raw_stream`).
        """
        with spans.span("campaign.materialize", kind=self.kind):
            spans.annotate(name=self.name if self.kind == "workload" else self.path)
            trace = self._build()
            spans.annotate(accesses=len(trace))
        return trace

    def _build(self) -> Trace:
        if self.kind == "workload":
            registry = _workload_registry()
            if self.name not in registry:
                raise ConfigurationError(
                    f"unknown campaign workload {self.name!r}; "
                    f"known: {', '.join(sorted(registry))}"
                )
            return registry[self.name](**dict(self.params))
        if self.kind == "file":
            from repro.workloads.trace_io import read_text_trace

            if not self.path:
                raise ConfigurationError("file trace spec needs a path")
            return read_text_trace(
                self.path, block_size=self.block_size, densify=self.densify
            ).trace
        if self.kind == "rtc":
            from repro.core.rtc import open_rtc

            if not self.path:
                raise ConfigurationError("rtc trace spec needs a path")
            try:
                return open_rtc(self.path)
            except FileNotFoundError as exc:
                raise ConfigurationError(
                    f"rtc trace {self.path!r} does not exist"
                ) from exc
        raise ConfigurationError(f"unknown trace spec kind {self.kind!r}")

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "workload":
            out["name"] = self.name
            out["params"] = dict(self.params)
        elif self.kind == "rtc":
            out["path"] = self.path
        else:
            out["path"] = self.path
            out["block_size"] = self.block_size
            out["densify"] = self.densify
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceSpec":
        return cls(
            kind=data.get("kind", "workload"),
            name=data.get("name", "uniform"),
            params=dict(data.get("params", {})),
            path=data.get("path"),
            block_size=data.get("block_size"),
            densify=bool(data.get("densify", False)),
        )


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: a policy replayed over one trace at one size.

    ``serving`` (a :meth:`repro.serving.ServingConfig.as_dict` mapping,
    or ``None``) turns the cell into a request-level serving run: the
    worker calls :func:`repro.serving.serve` instead of offline
    ``simulate`` and the row carries latency columns.

    ``cluster`` (a :meth:`repro.cluster.ClusterSpec.as_dict` mapping,
    or ``None``) replays the cell through an N-shard cluster instead
    of one cache — combinable with ``serving`` (cluster dispatch under
    the request-level simulator).  Single-cache cells omit both keys
    entirely, so pre-cluster ``spec.json`` files load unchanged and
    keep their cell hashes.
    """

    policy: str
    capacity: int
    trace: str  #: key into :attr:`CampaignSpec.traces`
    fast: bool = True
    policy_kwargs: Mapping[str, Any] = field(default_factory=dict)
    serving: Optional[Mapping[str, Any]] = None
    cluster: Optional[Mapping[str, Any]] = None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "policy": self.policy,
            "capacity": self.capacity,
            "trace": self.trace,
            "fast": self.fast,
            "policy_kwargs": dict(self.policy_kwargs),
        }
        if self.serving is not None:
            out["serving"] = dict(self.serving)
        if self.cluster is not None:
            out["cluster"] = dict(self.cluster)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellSpec":
        serving = data.get("serving")
        cluster = data.get("cluster")
        return cls(
            policy=data["policy"],
            capacity=int(data["capacity"]),
            trace=data["trace"],
            fast=bool(data.get("fast", True)),
            policy_kwargs=dict(data.get("policy_kwargs", {})),
            serving=dict(serving) if serving is not None else None,
            cluster=dict(cluster) if cluster is not None else None,
        )

    def params_row(self) -> Dict[str, Any]:
        """The cell parameters echoed into exported rows (sweep-style)."""
        out: Dict[str, Any] = {
            "policy": self.policy,
            "capacity": self.capacity,
            "trace": self.trace,
            "fast": self.fast,
        }
        if self.cluster is not None:
            out["n_shards"] = self.cluster.get("n_shards")
            out["hash_scheme"] = self.cluster.get("scheme")
        out.update(self.policy_kwargs)
        return out

    def row(self, result: Any) -> Dict[str, Any]:
        """The exported row: ``result.as_row()`` plus the echoed
        :meth:`params_row` (result values win on collision)."""
        row = result.as_row()
        for key, value in self.params_row().items():
            row.setdefault(key, value)
        return row

    def digest(self, trace_fingerprint: str, version: Optional[str] = None) -> str:
        """This cell's content address over a trace with
        ``trace_fingerprint`` (see :func:`cell_hash`); the trace *key*
        is not part of it."""
        return cell_hash(
            policy=self.policy,
            capacity=self.capacity,
            trace_fingerprint=trace_fingerprint,
            fast=self.fast,
            policy_kwargs=self.policy_kwargs,
            version=version,
            serving=self.serving,
            cluster=self.cluster,
        )

    def mode_label(self) -> str:
        """Short human label for status/watch boards.

        Offline single-cache cells label as ``"offline"``; serving and
        cluster dimensions compose, e.g. ``"cluster[4×block]+serving"``.
        """
        parts: List[str] = []
        if self.cluster is not None:
            parts.append(
                "cluster[{}×{}]".format(
                    self.cluster.get("n_shards", "?"),
                    self.cluster.get("scheme", "?"),
                )
            )
        if self.serving is not None:
            parts.append("serving")
        return "+".join(parts) if parts else "offline"


def cell_hash(
    policy: str,
    capacity: int,
    trace_fingerprint: str,
    fast: bool = True,
    policy_kwargs: Optional[Mapping[str, Any]] = None,
    version: Optional[str] = None,
    serving: Optional[Mapping[str, Any]] = None,
    cluster: Optional[Mapping[str, Any]] = None,
) -> str:
    """The content address of one cell (see the module docstring).

    ``serving`` — the cell's serving config dict, when it is a
    request-level cell — is part of the address: changing any arrival,
    service, or queue parameter yields a different hash, so serving
    rows can never be served from cells computed under other load
    parameters.  ``cluster`` — the cell's
    :meth:`repro.cluster.ClusterSpec.as_dict` mapping — joins the
    address the same way, so shard count / hash scheme / capacity-mode
    changes always recompute.  Single-cache cells (both ``None``) hash
    exactly as they did before either layer existed, keeping old
    stores valid.
    """
    body: Dict[str, Any] = {
        "policy": policy,
        "capacity": int(capacity),
        "policy_kwargs": dict(policy_kwargs or {}),
        "trace_fingerprint": trace_fingerprint,
        "fast": bool(fast),
        "version": version if version is not None else repro.__version__,
    }
    if serving is not None:
        body["serving"] = dict(serving)
    if cluster is not None:
        body["cluster"] = dict(cluster)
    payload = canonical_json(body)
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CampaignSpec:
    """A named, serializable experiment grid.

    ``version`` is pinned at construction so a campaign directory
    records the code version its rows were computed with; `resume`
    re-hashes with the *pinned* version, keeping an interrupted
    campaign bit-identical to an uninterrupted one even across a
    library upgrade mid-campaign.
    """

    name: str
    traces: Dict[str, TraceSpec]
    cells: List[CellSpec]
    version: str = field(default_factory=lambda: repro.__version__)

    def __post_init__(self) -> None:
        for cell in self.cells:
            if cell.trace not in self.traces:
                raise ConfigurationError(
                    f"cell references unknown trace key {cell.trace!r}"
                )

    @classmethod
    def from_grid(
        cls,
        name: str,
        policies: Sequence[str],
        capacities: Sequence[int],
        traces: Mapping[str, TraceSpec],
        fast: bool = True,
        policy_kwargs: Optional[Mapping[str, Any]] = None,
        servings: Optional[Sequence[Mapping[str, Any]]] = None,
        clusters: Optional[Sequence[Mapping[str, Any]]] = None,
    ) -> "CampaignSpec":
        """Cartesian (trace × policy × capacity) grid, sweep-ordered.

        ``servings`` (optional) adds a fourth axis of serving-config
        dicts, making every cell a request-level serving cell — the
        ``latency_vs_load`` experiment grids over arrival rates this
        way.  ``clusters`` (optional) adds a fifth axis of
        :meth:`repro.cluster.ClusterSpec.as_dict` mappings, so one
        resumable campaign can sweep shard count × hash scheme ×
        policy × capacity.  ``None`` keeps the classic offline grid.
        """
        if not policies or not capacities or not traces:
            raise ConfigurationError(
                "a campaign grid needs at least one policy, capacity, and trace"
            )
        serving_axis: Sequence[Optional[Mapping[str, Any]]] = (
            [None] if servings is None else list(servings)
        )
        if not serving_axis:
            raise ConfigurationError("servings, when given, must be non-empty")
        cluster_axis: Sequence[Optional[Mapping[str, Any]]] = (
            [None] if clusters is None else list(clusters)
        )
        if not cluster_axis:
            raise ConfigurationError("clusters, when given, must be non-empty")
        cells = [
            CellSpec(
                policy=p,
                capacity=c,
                trace=t,
                fast=fast,
                policy_kwargs=dict(policy_kwargs or {}),
                serving=dict(s) if s is not None else None,
                cluster=dict(cl) if cl is not None else None,
            )
            for t in traces
            for p in policies
            for c in capacities
            for s in serving_axis
            for cl in cluster_axis
        ]
        return cls(name=name, traces=dict(traces), cells=cells)

    def digests(self, fingerprints: Mapping[str, str]) -> List[str]:
        """Every cell's content address, in cell order.

        ``fingerprints`` maps each trace key to its materialized
        trace's fingerprint; cells hash under the campaign's *pinned*
        version, so a resumed campaign addresses the rows it wrote.
        """
        return [
            cell.digest(fingerprints[cell.trace], version=self.version)
            for cell in self.cells
        ]

    # -- serialization -----------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "version": self.version,
            "traces": {k: t.as_dict() for k, t in self.traces.items()},
            "cells": [c.as_dict() for c in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        return cls(
            name=data["name"],
            traces={
                k: TraceSpec.from_dict(t) for k, t in data["traces"].items()
            },
            cells=[CellSpec.from_dict(c) for c in data["cells"]],
            version=data.get("version", repro.__version__),
        )

    def save(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / SPEC_FILENAME
        path.write_text(json.dumps(self.as_dict(), indent=2, sort_keys=True))
        return path

    @classmethod
    def load(cls, directory: str | Path) -> "CampaignSpec":
        path = Path(directory) / SPEC_FILENAME
        if not path.exists():
            raise ConfigurationError(
                f"{path} not found: not a campaign directory (run before resume)"
            )
        return cls.from_dict(json.loads(path.read_text()))
