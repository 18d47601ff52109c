"""The referee simulation engine.

:func:`simulate` drives a policy over a trace while maintaining an
independent *shadow* copy of the cache contents.  Every policy action
is validated against the Granularity-Change Caching model
(Definition 1):

* a claimed hit must be to a shadow-resident item;
* a miss must load a set that is a subset of the requested item's
  block and contains the item;
* loaded items must not already be resident; evicted items must be;
* occupancy never exceeds the capacity ``k``.

Violations raise :class:`~repro.errors.ProtocolViolation` subclasses
instead of silently producing wrong statistics — policies cannot
cheat, which keeps the empirical competitive-ratio results honest.

The engine also classifies hits into *temporal* and *spatial* per §2:
the first hit to an item whose residency was created by a different
item's miss is spatial; every other hit is temporal.

Observability
-------------
Two opt-in observation channels exist; both are strictly read-only and
cost a single ``is not None`` branch per access when unused:

* ``on_access(pos, item, kind)`` — a lightweight per-access callback.
  **Contract:** it is invoked *after* the engine's shadow state and
  statistics are updated for that access, in trace order, and receives
  only immutable values (two ``int``\\ s and a :class:`HitKind`), so an
  observer cannot corrupt engine state through its arguments.
  Observers must not mutate the policy or the engine; they run before
  any ``cross_check_every`` reconciliation scheduled for the same
  position, and exceptions they raise propagate to the caller.
* ``recorder`` — a :class:`repro.telemetry.Recorder` receiving the
  full referee-classified outcome (item, block, kind, load/evict set
  sizes, occupancy) for windowed metrics, event tracing, and sink
  fan-out.  The engine hands it frozen sets and ints only; see
  :mod:`repro.telemetry`.

With neither channel configured, ``simulate`` behaves byte-identically
to the uninstrumented engine — validation semantics and results are
unchanged.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Callable, Dict, Optional, Set

from repro.core.trace import Trace
from repro.errors import CapacityExceeded, IllegalLoadSet, ProtocolViolation
from repro.telemetry import spans
from repro.types import AccessOutcome, HitKind, SimResult

__all__ = ["Engine", "simulate", "check_same_mapping"]


class Engine:
    """Stateful referee wrapping a policy.

    Useful when an adversary needs to interleave trace generation with
    simulation; for plain trace replay use :func:`simulate`.
    """

    def __init__(
        self, policy, mapping=None, validate: bool = True, recorder=None
    ) -> None:
        self.policy = policy
        self.mapping = mapping if mapping is not None else policy.mapping
        self.validate = validate
        #: Optional :class:`repro.telemetry.Recorder`; ``None`` keeps
        #: the access path uninstrumented (one branch per access).
        self.recorder = recorder
        self.resident: Set[int] = set()
        #: The :class:`AccessOutcome` of the most recent :meth:`access`
        #: (``None`` before the first).  Lets per-access observers —
        #: e.g. size-aware serving, which weighs each loaded item by
        #: its value size — see the exact load set without the engine
        #: growing a heavier callback surface.
        self.last_outcome: Optional[AccessOutcome] = None
        #: items currently resident that were loaded as a side effect of
        #: another item's miss and have not been hit since.
        self._spatial_pending: Set[int] = set()
        self.result = SimResult(
            policy=getattr(policy, "name", type(policy).__name__),
            capacity=policy.capacity,
        )

    def access(self, item: int) -> HitKind:
        """Serve one request; update statistics; return the hit kind."""
        shadow_hit = item in self.resident
        outcome: AccessOutcome = self.policy.access(item)
        self.last_outcome = outcome
        if self.validate:
            self._validate(item, outcome, shadow_hit)
        self._apply(outcome)
        kind = self._classify(item, shadow_hit)
        res = self.result
        res.accesses += 1
        if kind is HitKind.MISS:
            res.misses += 1
            res.loaded_items += len(outcome.loaded)
        elif kind is HitKind.SPATIAL_HIT:
            res.spatial_hits += 1
        else:
            res.temporal_hits += 1
        res.evicted_items += len(outcome.evicted)
        recorder = self.recorder
        if recorder is not None:
            recorder.on_access(
                item,
                self.mapping.block_of(item),
                kind,
                outcome.loaded,
                outcome.evicted,
                len(self.resident),
            )
        return kind

    # -- internals ---------------------------------------------------------
    def _validate(self, item: int, outcome: AccessOutcome, shadow_hit: bool) -> None:
        if outcome.item != item:
            raise ProtocolViolation(
                f"policy answered for item {outcome.item}, asked {item}"
            )
        if outcome.hit != shadow_hit:
            raise ProtocolViolation(
                f"policy claims {'hit' if outcome.hit else 'miss'} on item "
                f"{item} but shadow state says otherwise"
            )
        if not outcome.hit:
            block_items = set(self.mapping.items_in(self.mapping.block_of(item)))
            if not outcome.loaded <= block_items:
                raise IllegalLoadSet(
                    f"loaded {sorted(outcome.loaded - block_items)} outside "
                    f"block of item {item}"
                )
            if item not in outcome.loaded:
                raise IllegalLoadSet(f"miss on {item} did not load it")
            already = outcome.loaded & self.resident
            if already:
                raise ProtocolViolation(
                    f"loaded already-resident items {sorted(already)}"
                )
        not_resident = outcome.evicted - self.resident
        if not_resident:
            raise ProtocolViolation(
                f"evicted non-resident items {sorted(not_resident)}"
            )
        if outcome.evicted & outcome.loaded:
            raise ProtocolViolation("an item was both loaded and evicted")
        new_size = len(self.resident) + len(outcome.loaded) - len(outcome.evicted)
        if new_size > self.policy.capacity:
            raise CapacityExceeded(
                f"occupancy {new_size} exceeds capacity {self.policy.capacity}"
            )

    def _apply(self, outcome: AccessOutcome) -> None:
        self.resident -= outcome.evicted
        self._spatial_pending -= outcome.evicted
        self.resident |= outcome.loaded
        if not outcome.hit:
            # Side-loaded items are spatial-hit candidates; the missed
            # item itself is not (its next hit is temporal).
            for it in outcome.loaded:
                if it != outcome.item:
                    self._spatial_pending.add(it)
                else:
                    self._spatial_pending.discard(it)

    def _classify(self, item: int, shadow_hit: bool) -> HitKind:
        if not shadow_hit:
            return HitKind.MISS
        if item in self._spatial_pending:
            self._spatial_pending.discard(item)
            return HitKind.SPATIAL_HIT
        return HitKind.TEMPORAL_HIT

    def cross_check(self) -> None:
        """Assert policy-reported residency matches the shadow state."""
        reported = self.policy.resident_items()
        if set(reported) != self.resident:
            extra = sorted(set(reported) - self.resident)
            missing = sorted(self.resident - set(reported))
            raise ProtocolViolation(
                f"residency mismatch: policy extra={extra} missing={missing}"
            )


def check_same_mapping(policy, trace: Trace) -> None:
    """Raise :class:`ProtocolViolation` unless ``trace`` and ``policy``
    share a block mapping (the same object, or the same universe and
    maximum block size)."""
    if trace.mapping is not policy.mapping and (
        trace.mapping.universe != policy.mapping.universe
        or trace.mapping.max_block_size != policy.mapping.max_block_size
    ):
        raise ProtocolViolation("trace and policy use different block mappings")


def simulate(
    policy,
    trace: Trace,
    validate: bool = True,
    cross_check_every: int = 0,
    on_access: Optional[Callable[[int, int, HitKind], None]] = None,
    recorder=None,
    fast: bool = False,
) -> SimResult:
    """Run ``policy`` over ``trace`` and return aggregate statistics.

    Parameters
    ----------
    policy:
        A :class:`~repro.policies.base.Policy`.  Offline policies are
        automatically ``prepare``-d with the trace.
    trace:
        The request trace; its mapping must match the policy's.
    validate:
        Referee-validate every action (disable only in throughput
        benchmarks, where the policy under test is already trusted).
    cross_check_every:
        If > 0, additionally reconcile the policy's full residency set
        with the shadow state every N accesses (O(k) each time).
    on_access:
        Optional observer ``(position, item, kind)`` called per access,
        after engine state is updated and before any cross-check at the
        same position; receives immutable values only and must not
        mutate the policy or engine (see the module docstring).
    recorder:
        Optional :class:`repro.telemetry.Recorder`.  The run is timed
        as a ``"simulate"`` phase and the recorder is finalized (its
        sinks flushed and closed) before returning.  Telemetry never
        alters the returned :class:`SimResult`.
    fast:
        Replay through a validation-free kernel from
        :mod:`repro.core.fast` when one covers this policy; the
        conformance harness (:mod:`repro.core.conformance`) proves the
        kernels bit-identical to the referee, so the returned
        :class:`SimResult` is the same object it would be either way.
        Falls back to the referee automatically for unsupported
        policies, warm policies, or when observation/reconciliation
        (``on_access``, ``recorder``, ``cross_check_every``) is
        requested.  Unlike the referee, the kernel does not mutate
        ``policy``.  When the fallback happens, the reason is no longer
        silent: it is emitted as a ``fast.fallback`` span and surfaced
        on :attr:`SimResult.fallback_reason` (``"unsupported-policy"``,
        ``"mapping-mismatch"``, ``"warm-policy"``, or ``"observed"``).

    Returns
    -------
    SimResult
    """
    check_same_mapping(policy, trace)
    fallback_reason = None
    if fast:
        if on_access is not None or recorder is not None or cross_check_every:
            fallback_reason = "observed"
        else:
            from repro.core.fast import fast_fallback_reason, fast_simulate

            result = fast_simulate(policy, trace)
            if result is not None:
                return result
            fallback_reason = fast_fallback_reason(policy, trace)
        with spans.span(
            "fast.fallback",
            policy=policy.name,
            reason=fallback_reason or "unknown",
        ):
            pass
    if policy.is_offline:
        policy.prepare(trace)
    engine = Engine(policy, trace.mapping, validate=validate, recorder=recorder)
    engine.result.fallback_reason = fallback_reason
    engine.result.metadata.update(trace.scalar_metadata())
    items = trace.items.tolist()
    with nullcontext() if recorder is None else recorder.phase("simulate"):
        for pos, item in enumerate(items):
            kind = engine.access(item)
            if on_access is not None:
                on_access(pos, item, kind)
            if cross_check_every and (pos + 1) % cross_check_every == 0:
                engine.cross_check()
        if cross_check_every:
            engine.cross_check()
    if recorder is not None:
        recorder.finalize(engine.result)
    return engine.result


def miss_counts(policies: Dict[str, object], trace: Trace, **kwargs) -> Dict[str, int]:
    """Convenience: misses per named policy over the same trace."""
    return {name: simulate(p, trace, **kwargs).misses for name, p in policies.items()}
