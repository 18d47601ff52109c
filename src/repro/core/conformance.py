"""Differential conformance: prove fast kernels bit-identical to the referee.

The replay kernels in :mod:`repro.core.fast` are only admissible
because this harness can show, for any trace, that a kernel and the
validating referee engine produce the *same computation*:

* the complete :class:`~repro.types.SimResult` — every counter, the
  policy name, capacity, and metadata — compared field by field, and
* the full per-access outcome stream (miss / temporal hit / spatial
  hit, one code per access, in trace order), so two runs cannot agree
  on aggregates while disagreeing on individual accesses, and
* the per-miss load-set sizes (``mode="loads"`` rows: the kernel's
  ``loads`` list against the referee's ``len(outcome.loaded)``, miss
  for miss), which is what serving prices each miss with, and
* a kernel stepped one access at a time (``mode="step"`` rows:
  :func:`repro.core.fast.stepper` against a referee
  :class:`~repro.core.engine.Engine` fed the same positions, skipped
  and reordered the way SJF and drops serve them), its residency probe
  included — what serving steps when its cache stream depends on
  service times.

The referee side runs with full validation *and* periodic residency
cross-checks, so a conformance pass simultaneously certifies the
kernel against the referee and the referee against the model.

``tests/test_fastpath_conformance.py`` drives this over randomized and
adversarial traces for every kernel; :func:`conformance_suite` is the
bulk entry point CI uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.engine import Engine, simulate
from repro.core.fast import (
    FAST_POLICY_NAMES,
    KIND_MISS,
    KIND_SPATIAL,
    KIND_TEMPORAL,
    MULTI_CAPACITY_POLICIES,
    _normalize_cells,
    fast_simulate,
    multi_capacity_replay,
    multi_capacity_supported,
    multi_policy_replay,
    multi_policy_supported,
    stepper,
)
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.policies import make_policy
from repro.types import HitKind, SimResult

__all__ = [
    "KIND_CODE",
    "ConformanceReport",
    "referee_outcomes",
    "fast_outcomes",
    "check_conformance",
    "assert_conformant",
    "check_loads",
    "assert_loads_conformant",
    "check_multi_capacity",
    "assert_multi_capacity_conformant",
    "check_multi_policy",
    "assert_multi_policy_conformant",
    "check_step",
    "assert_step_conformant",
    "check_mmap_conformance",
    "assert_mmap_conformant",
    "mmap_conformance_suite",
    "conformance_suite",
]

#: HitKind → compact stream code (must agree with the kernel codes).
KIND_CODE: Dict[HitKind, int] = {
    HitKind.MISS: KIND_MISS,
    HitKind.TEMPORAL_HIT: KIND_TEMPORAL,
    HitKind.SPATIAL_HIT: KIND_SPATIAL,
}

#: Trace positions a :func:`conformance_suite` ``mode="step"`` row serves.
STEP_ROW_POSITIONS = 256

#: Every SimResult field that must match bit-for-bit.
RESULT_FIELDS: Tuple[str, ...] = (
    "accesses",
    "misses",
    "temporal_hits",
    "spatial_hits",
    "loaded_items",
    "evicted_items",
    "policy",
    "capacity",
    "metadata",
)


def _diff_results(
    a: SimResult, b: SimResult, a_label: str, b_label: str
) -> List[str]:
    """One mismatch line per :data:`RESULT_FIELDS` member that differs."""
    return [
        f"SimResult.{fname}: {a_label}={getattr(a, fname)!r} "
        f"{b_label}={getattr(b, fname)!r}"
        for fname in RESULT_FIELDS
        if getattr(a, fname) != getattr(b, fname)
    ]


def referee_outcomes(
    policy,
    trace: Trace,
    cross_check_every: int = 16,
    loads: Optional[List[int]] = None,
) -> Tuple[SimResult, List[int]]:
    """Validated referee replay; returns (result, per-access codes).

    ``loads``, if given, receives ``len(outcome.loaded)`` for every
    miss, in trace order — read off the policy's own outcomes as the
    referee consumes them, so the replay is still plain ``simulate()``.
    """
    codes: List[int] = []
    if loads is not None:
        inner = policy.access

        def access(item):
            outcome = inner(item)
            if not outcome.hit:
                loads.append(len(outcome.loaded))
            return outcome

        policy.access = access
    try:
        result = simulate(
            policy,
            trace,
            validate=True,
            cross_check_every=cross_check_every,
            on_access=lambda pos, item, kind: codes.append(KIND_CODE[kind]),
        )
    finally:
        if loads is not None:
            del policy.access
    return result, codes


def fast_outcomes(
    policy, trace: Trace, loads: Optional[List[int]] = None
) -> Tuple[Optional[SimResult], List[int]]:
    """Kernel replay; ``(None, [])`` when no kernel applies."""
    codes: List[int] = []
    result = fast_simulate(policy, trace, record=codes, loads=loads)
    return result, codes


@dataclass
class ConformanceReport:
    """Outcome of one differential replay."""

    policy: str
    capacity: int
    accesses: int
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """``True`` when referee and kernel were bit-identical."""
        return not self.mismatches

    def __str__(self) -> str:
        status = "OK" if self.ok else "DIVERGED"
        head = (
            f"[{status}] {self.policy} k={self.capacity} "
            f"({self.accesses} accesses)"
        )
        return head + "".join(f"\n  - {m}" for m in self.mismatches)


def _diff_streams(ref: Sequence[int], fast: Sequence[int]) -> List[str]:
    names = {KIND_MISS: "miss", KIND_TEMPORAL: "temporal", KIND_SPATIAL: "spatial"}
    if len(ref) != len(fast):
        return [f"outcome stream length: referee={len(ref)} fast={len(fast)}"]
    out = []
    for pos, (r, f) in enumerate(zip(ref, fast)):
        if r != f:
            out.append(
                f"outcome at access {pos}: referee={names[r]} fast={names[f]}"
            )
            if len(out) >= 5:
                out.append("... further stream divergences suppressed")
                break
    return out


def _diff_loads(
    ref: Sequence[int], fast: Sequence[int], loaded_items: int
) -> List[str]:
    out = []
    if len(ref) != len(fast):
        out.append(f"loads stream length: referee={len(ref)} fast={len(fast)}")
    for miss, (r, f) in enumerate(zip(ref, fast)):
        if r != f:
            out.append(f"load-set size at miss {miss}: referee={r} fast={f}")
            if len(out) >= 5:
                out.append("... further load divergences suppressed")
                break
    if sum(fast) != loaded_items:
        out.append(f"sum(loads)={sum(fast)} != loaded_items={loaded_items}")
    return out


def _check_cell(
    name: str,
    capacity: int,
    trace: Trace,
    cross_check_every: int,
    policy_kwargs: Dict[str, object],
) -> Tuple[ConformanceReport, ConformanceReport]:
    """One referee and one kernel replay of a cell, diffed two ways.

    Returns the ``mode="cell"`` report (every :data:`RESULT_FIELDS`
    member plus the outcome stream) and the ``mode="loads"`` report
    (the per-miss load-set sizes), so the suite pays for each referee
    replay once.
    """
    ref_policy = make_policy(name, capacity, trace.mapping, **policy_kwargs)
    fast_policy = make_policy(name, capacity, trace.mapping, **policy_kwargs)
    ref_loads: List[int] = []
    ref_result, ref_codes = referee_outcomes(
        ref_policy, trace, cross_check_every=cross_check_every, loads=ref_loads
    )
    fast_loads: List[int] = []
    fast_result, fast_codes = fast_outcomes(fast_policy, trace, loads=fast_loads)
    if fast_result is None:
        raise ConfigurationError(
            f"policy {name!r} has no fast kernel; conformance is undefined "
            f"(supported: {', '.join(FAST_POLICY_NAMES)})"
        )
    cell = ConformanceReport(
        policy=ref_result.policy, capacity=capacity, accesses=ref_result.accesses
    )
    loads = ConformanceReport(
        policy=ref_result.policy, capacity=capacity, accesses=ref_result.accesses
    )
    cell.mismatches.extend(
        _diff_results(ref_result, fast_result, "referee", "fast")
    )
    cell.mismatches.extend(_diff_streams(ref_codes, fast_codes))
    loads.mismatches.extend(
        _diff_loads(ref_loads, fast_loads, fast_result.loaded_items)
    )
    return cell, loads


def check_conformance(
    name: str,
    capacity: int,
    trace: Trace,
    cross_check_every: int = 16,
    **policy_kwargs,
) -> ConformanceReport:
    """Replay ``name`` through both engines; diff everything.

    Two fresh policy instances are built from the same configuration so
    neither replay can contaminate the other.  Raises
    :class:`ConfigurationError` if the policy has no fast kernel — a
    conformance check that silently tested the referee against itself
    would be vacuous.
    """
    return _check_cell(name, capacity, trace, cross_check_every, policy_kwargs)[0]


def assert_conformant(
    name: str, capacity: int, trace: Trace, **policy_kwargs
) -> ConformanceReport:
    """:func:`check_conformance`, raising ``AssertionError`` on divergence."""
    report = check_conformance(name, capacity, trace, **policy_kwargs)
    assert report.ok, str(report)
    return report


def check_loads(
    name: str,
    capacity: int,
    trace: Trace,
    cross_check_every: int = 16,
    **policy_kwargs,
) -> ConformanceReport:
    """Diff the kernel's per-miss ``loads`` against the referee's.

    Each miss's effective load-set size must equal the referee's
    ``len(outcome.loaded)`` for that miss, and the sizes must sum to
    the kernel's ``loaded_items``.  ``trace`` may be an mmap-backed
    ``.rtc`` trace, which exercises the chunked traversal.  Raises
    :class:`ConfigurationError` if the policy has no fast kernel.
    """
    return _check_cell(name, capacity, trace, cross_check_every, policy_kwargs)[1]


def assert_loads_conformant(
    name: str, capacity: int, trace: Trace, **policy_kwargs
) -> ConformanceReport:
    """:func:`check_loads`, raising ``AssertionError`` on divergence."""
    report = check_loads(name, capacity, trace, **policy_kwargs)
    assert report.ok, str(report)
    return report


def _served_order(positions: int, seed: int) -> List[int]:
    """Trace positions ``0..positions-1`` as a loaded server might start
    them: about one in ten skipped (dropped) and the rest shuffled
    within windows of four (reordered by a shortest-job-first queue).
    """
    rng = random.Random(seed)
    order = [index for index in range(positions) if rng.random() >= 0.1]
    for lo in range(0, len(order), 4):
        window = order[lo : lo + 4]
        rng.shuffle(window)
        order[lo : lo + 4] = window
    return order


def check_step(
    name: str,
    capacity: int,
    trace: Trace,
    order: Optional[Sequence[int]] = None,
    **policy_kwargs,
) -> ConformanceReport:
    """Interleave a kernel :func:`~repro.core.fast.stepper` with the referee.

    Both serve the items at trace positions ``order`` (default: trace
    order; positions may be skipped or permuted), one at a time.  After
    each access the stepper's ``(code, load_size)`` must equal the
    validating referee's outcome, and its ``contains`` must agree with
    ``item in engine.resident`` on every member of the accessed block
    and on the previously accessed item; at the end every
    :data:`RESULT_FIELDS` member must match.  Raises
    :class:`ConfigurationError` if the policy has no fast kernel.
    """
    if order is None:
        order = range(len(trace))
    ref_policy = make_policy(name, capacity, trace.mapping, **policy_kwargs)
    kernel = stepper(
        make_policy(name, capacity, trace.mapping, **policy_kwargs), trace
    )
    if kernel is None:
        raise ConfigurationError(
            f"policy {name!r} has no fast kernel; step conformance is "
            f"undefined (supported: {', '.join(FAST_POLICY_NAMES)})"
        )
    engine = Engine(ref_policy, trace.mapping, validate=True)
    engine.result.metadata.update(trace.scalar_metadata())
    mapping = trace.mapping
    items = trace.items.tolist()
    report = ConformanceReport(
        policy=engine.result.policy, capacity=capacity, accesses=len(order)
    )
    out = report.mismatches
    previous: Optional[int] = None
    for step_no, index in enumerate(order):
        item = items[index]
        loaded_before = engine.result.loaded_items
        kind = engine.access(item)
        loaded = engine.result.loaded_items - loaded_before
        want = (KIND_CODE[kind], loaded if kind is HitKind.MISS else 0)
        got = kernel.step(index)
        if got != want:
            out.append(
                f"step {step_no} (position {index}): (code, load) "
                f"referee={want} kernel={got}"
            )
        probes = set(mapping.items_in(mapping.block_of(item)))
        if previous is not None:
            probes.add(previous)
        for probe in sorted(probes):
            if kernel.contains(probe) != (probe in engine.resident):
                out.append(
                    f"step {step_no}: contains({probe}) "
                    f"referee={probe in engine.resident} "
                    f"kernel={kernel.contains(probe)}"
                )
        previous = item
        if len(out) >= 5:
            out.append("... further step divergences suppressed")
            return report
    out.extend(
        _diff_results(engine.result, kernel.result(trace), "referee", "stepper")
    )
    return report


def assert_step_conformant(
    name: str,
    capacity: int,
    trace: Trace,
    order: Optional[Sequence[int]] = None,
    **policy_kwargs,
) -> ConformanceReport:
    """:func:`check_step`, raising ``AssertionError`` on divergence."""
    report = check_step(name, capacity, trace, order, **policy_kwargs)
    assert report.ok, str(report)
    return report


def check_multi_capacity(
    name: str,
    trace: Trace,
    capacities: Sequence[int],
    cross_check_every: int = 16,
) -> List[ConformanceReport]:
    """Diff one batched multi-capacity replay against per-capacity referees.

    One :func:`repro.core.fast.multi_capacity_replay` call produces the
    whole capacity family; every member is then held to the same
    standard as a single-cell conformance check — all
    :data:`RESULT_FIELDS` plus the full per-access outcome stream
    against a fresh validated referee run at that capacity.  Raises
    :class:`ConfigurationError` when the combination has no batched
    kernel (caller should fall back to per-cell checks).
    """
    caps = sorted({int(k) for k in capacities})
    if not multi_capacity_supported(name, trace, caps):
        raise ConfigurationError(
            f"no batched kernel for policy {name!r} over this trace/"
            f"capacities (supported policies: "
            f"{', '.join(MULTI_CAPACITY_POLICIES)})"
        )
    record: Dict[int, List[int]] = {}
    results = multi_capacity_replay(name, trace, caps, record=record)
    reports: List[ConformanceReport] = []
    for capacity in caps:
        ref_policy = make_policy(name, capacity, trace.mapping)
        ref_result, ref_codes = referee_outcomes(
            ref_policy, trace, cross_check_every=cross_check_every
        )
        batch_result = results[capacity]
        report = ConformanceReport(
            policy=ref_result.policy,
            capacity=capacity,
            accesses=ref_result.accesses,
        )
        report.mismatches.extend(
            _diff_results(ref_result, batch_result, "referee", "batched")
        )
        report.mismatches.extend(_diff_streams(ref_codes, record[capacity]))
        reports.append(report)
    return reports


def assert_multi_capacity_conformant(
    name: str, trace: Trace, capacities: Sequence[int]
) -> List[ConformanceReport]:
    """:func:`check_multi_capacity`, raising on any divergence."""
    reports = check_multi_capacity(name, trace, capacities)
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(str(r) for r in bad)
    return reports


def check_multi_policy(
    cells,
    trace: Trace,
    cross_check_every: int = 16,
) -> List[ConformanceReport]:
    """Diff one single-pass multi-policy replay against per-cell referees.

    One :func:`repro.core.fast.multi_policy_replay` call advances every
    cell over a shared traversal; each returned result is then diffed —
    all :data:`RESULT_FIELDS` plus the full per-access outcome stream —
    against a fresh validated referee run of that cell alone, so
    sharing the pass provably changes nothing.  Raises
    :class:`ConfigurationError` when a cell has no kernel (gate with
    :func:`repro.core.fast.multi_policy_supported`).
    """
    cells = _normalize_cells(cells)
    record: Dict[int, List[int]] = {}
    results = multi_policy_replay(cells, trace, record=record)
    reports: List[ConformanceReport] = []
    for i, (name, capacity, kwargs) in enumerate(cells):
        ref_policy = make_policy(name, capacity, trace.mapping, **kwargs)
        ref_result, ref_codes = referee_outcomes(
            ref_policy, trace, cross_check_every=cross_check_every
        )
        report = ConformanceReport(
            policy=ref_result.policy,
            capacity=capacity,
            accesses=ref_result.accesses,
        )
        report.mismatches.extend(
            _diff_results(ref_result, results[i], "referee", "multi-policy")
        )
        report.mismatches.extend(_diff_streams(ref_codes, record[i]))
        reports.append(report)
    return reports


def assert_multi_policy_conformant(
    cells, trace: Trace
) -> List[ConformanceReport]:
    """:func:`check_multi_policy`, raising on any divergence."""
    reports = check_multi_policy(cells, trace)
    bad = [r for r in reports if not r.ok]
    assert not bad, "\n".join(str(r) for r in bad)
    return reports


def check_mmap_conformance(
    name: str,
    capacity: int,
    trace: Trace,
    mmap_trace: Trace,
    **policy_kwargs,
) -> ConformanceReport:
    """Diff a kernel replay over an mmap-backed trace against in-memory.

    ``mmap_trace`` is the same logical trace opened from an ``.rtc``
    file (:func:`repro.core.rtc.open_rtc`); the kernel then streams the
    memory-mapped columns chunk by chunk instead of walking in-memory
    lists.  The in-memory side is already certified against the referee
    by the ``mode="cell"`` rows, so this check only has to prove the
    mmap traversal computes the *same* replay — every
    :data:`RESULT_FIELDS` member, the fingerprint, the full
    per-access outcome stream, and the per-miss ``loads``.
    """
    if trace.fingerprint() != mmap_trace.fingerprint():
        raise ConfigurationError(
            "mmap conformance needs the same logical trace on both sides: "
            f"fingerprint {trace.fingerprint()[:12]} != "
            f"{mmap_trace.fingerprint()[:12]}"
        )
    mem_policy = make_policy(name, capacity, trace.mapping, **policy_kwargs)
    mmap_policy = make_policy(
        name, capacity, mmap_trace.mapping, **policy_kwargs
    )
    mem_codes: List[int] = []
    mem_loads: List[int] = []
    mem_result = fast_simulate(mem_policy, trace, record=mem_codes, loads=mem_loads)
    if mem_result is None:
        raise ConfigurationError(
            f"policy {name!r} has no fast kernel; mmap conformance is "
            f"undefined (supported: {', '.join(FAST_POLICY_NAMES)})"
        )
    mmap_codes: List[int] = []
    mmap_loads: List[int] = []
    mmap_result = fast_simulate(
        mmap_policy, mmap_trace, record=mmap_codes, loads=mmap_loads
    )
    report = ConformanceReport(
        policy=mem_result.policy,
        capacity=capacity,
        accesses=mem_result.accesses,
    )
    if mmap_result is None:
        report.mismatches.append("mmap replay took no fast kernel")
        return report
    report.mismatches.extend(
        _diff_results(mem_result, mmap_result, "in-memory", "mmap")
    )
    report.mismatches.extend(_diff_streams(mem_codes, mmap_codes))
    if mmap_loads != mem_loads:
        report.mismatches.append("per-miss loads differ between in-memory and mmap")
    return report


def assert_mmap_conformant(
    name: str, capacity: int, trace: Trace, mmap_trace: Trace, **policy_kwargs
) -> ConformanceReport:
    """:func:`check_mmap_conformance`, raising on divergence."""
    report = check_mmap_conformance(
        name, capacity, trace, mmap_trace, **policy_kwargs
    )
    assert report.ok, str(report)
    return report


def mmap_conformance_suite(
    traces: Dict[str, Trace],
    capacities: Iterable[int],
    workdir,
    policies: Iterable[str] = FAST_POLICY_NAMES,
) -> List[Dict[str, object]]:
    """(trace × policy × capacity) mmap-vs-in-memory differential matrix.

    Each trace is compiled once to ``workdir/<name>.rtc`` and reopened
    memory-mapped; every cell is then replayed through the fast path on
    both representations and diffed (``mode="mmap"`` rows, same shape
    as :func:`conformance_suite` rows so CI can concatenate them).
    """
    from pathlib import Path

    from repro.core.rtc import open_rtc, trace_to_rtc

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rows: List[Dict[str, object]] = []
    caps = list(capacities)
    for trace_name, trace in traces.items():
        path = trace_to_rtc(trace, workdir / f"{trace_name}.rtc")
        mmap_trace = open_rtc(path)
        for policy in list(policies):
            for capacity in caps:
                report = check_mmap_conformance(
                    policy, capacity, trace, mmap_trace
                )
                rows.append(
                    {
                        "trace": trace_name,
                        "policy": policy,
                        "mode": "mmap",
                        "capacity": capacity,
                        "accesses": report.accesses,
                        "ok": report.ok,
                        "detail": "; ".join(report.mismatches),
                    }
                )
    return rows


def conformance_suite(
    traces: Dict[str, Trace],
    capacities: Iterable[int],
    policies: Iterable[str] = FAST_POLICY_NAMES,
) -> List[Dict[str, object]]:
    """Full (trace × policy × capacity) differential matrix.

    Returns one row per cell with an ``ok`` flag and divergence detail;
    callers (CI, benches) assert ``all(row["ok"] ...)``.  Every cell
    yields a ``mode="cell"`` row (result fields and outcome stream) and
    a ``mode="loads"`` row (per-miss load-set sizes, see
    :func:`check_loads`) from the same pair of replays.  The
    a-threshold family is exercised at ``a ∈ {1, 2}`` per cell and the
    seeded GCM family at ``seed ∈ {0, 7}`` (deeper seed grids live in
    ``tests/test_gcm_determinism.py``).

    Every cell also yields a ``mode="step"`` row (:func:`check_step`)
    over the first :data:`STEP_ROW_POSITIONS` positions of the trace in
    a :func:`_served_order` seeded by the capacity, so stepped kernels
    are certified on skipped and reordered streams too.

    Stack policies additionally get ``mode="batched"`` rows: the whole
    capacity family recomputed by one
    :func:`repro.core.fast.multi_capacity_replay` call and diffed
    per-capacity against the referee, so the Mattson path that batched
    capacity axes take is certified by the same suite as the per-cell
    kernels.  Capacities a
    trace cannot batch (Block-LRU below its block size) are dropped
    from the batched rows only.

    Finally, every (policy, capacity) default-kwargs cell of a trace is
    replayed once more through a single
    :func:`repro.core.fast.multi_policy_replay` pass and diffed
    per-cell against the referee (``mode="multi"`` rows), certifying
    the shared-traversal engine over the full policy matrix.
    """
    rows: List[Dict[str, object]] = []
    caps = list(capacities)
    policies = list(policies)
    for trace_name, trace in traces.items():
        for policy in policies:
            variants = [{}]
            if policy == "athreshold-lru":
                variants = [{"a": 1}, {"a": 2}]
            elif policy in ("gcm", "gcm-markall", "gcm-partial"):
                variants = [{}, {"seed": 7}]
            for kwargs in variants:
                for capacity in caps:
                    reports = _check_cell(policy, capacity, trace, 16, kwargs)
                    order = _served_order(
                        min(len(trace), STEP_ROW_POSITIONS), capacity
                    )
                    step = check_step(policy, capacity, trace, order, **kwargs)
                    for mode, report in zip(
                        ("cell", "loads", "step"), (*reports, step)
                    ):
                        rows.append(
                            {
                                "trace": trace_name,
                                "policy": policy,
                                "mode": mode,
                                **{f"arg_{k}": v for k, v in kwargs.items()},
                                "capacity": capacity,
                                "accesses": report.accesses,
                                "ok": report.ok,
                                "detail": "; ".join(report.mismatches),
                            }
                        )
            if policy not in MULTI_CAPACITY_POLICIES:
                continue
            batch_caps = caps
            if not multi_capacity_supported(policy, trace, batch_caps):
                batch_caps = [k for k in caps if k >= trace.block_size]
            if not batch_caps or not multi_capacity_supported(
                policy, trace, batch_caps
            ):
                continue
            for report in check_multi_capacity(policy, trace, batch_caps):
                rows.append(
                    {
                        "trace": trace_name,
                        "policy": policy,
                        "mode": "batched",
                        "capacity": report.capacity,
                        "accesses": report.accesses,
                        "ok": report.ok,
                        "detail": "; ".join(report.mismatches),
                    }
                )
        multi_cells = [(p, k) for p in policies for k in caps]
        if multi_cells and multi_policy_supported(multi_cells, trace):
            for cell, report in zip(
                multi_cells, check_multi_policy(multi_cells, trace)
            ):
                rows.append(
                    {
                        "trace": trace_name,
                        "policy": cell[0],
                        "mode": "multi",
                        "capacity": report.capacity,
                        "accesses": report.accesses,
                        "ok": report.ok,
                        "detail": "; ".join(report.mismatches),
                    }
                )
    return rows
