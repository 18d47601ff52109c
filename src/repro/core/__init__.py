"""Core model of the Granularity-Change Caching Problem (§2).

* :mod:`repro.core.mapping` — item→block partitions (Definition 1's
  block structure).
* :mod:`repro.core.trace` — request traces with attached mapping and
  metadata, plus (de)serialization.
* :mod:`repro.core.engine` — the referee simulator: drives a policy
  over a trace, validates every action against the model, and
  classifies hits into temporal vs spatial.
* :mod:`repro.core.readwrite` — read/write traces and write-back
  accounting (extension beyond the paper's read-only scope).
* :mod:`repro.core.fast` — validation-free replay kernels behind
  ``simulate(..., fast=True)``.
* :mod:`repro.core.reuse` — previous/next occurrences from one sort of
  ``(id, position)`` keys, behind Mattson stack distances and the
  ``f(n)``/``g(n)`` working-set profiles.
* :mod:`repro.core.conformance` — the differential harness proving
  the kernels bit-identical to the referee.
"""

from repro.core.mapping import BlockMapping, FixedBlockMapping, ExplicitBlockMapping
from repro.core.trace import Trace
from repro.core.engine import simulate, Engine
from repro.core.readwrite import (
    RWTrace,
    WritebackSimulator,
    WritebackStats,
    make_rw_trace,
)
from repro.core.fast import (
    FAST_POLICY_NAMES,
    CompiledTrace,
    compile_trace,
    fast_fallback_reason,
    fast_simulate,
    multi_capacity_replay,
    multi_capacity_supported,
    multi_policy_replay,
    multi_policy_supported,
)
from repro.core.conformance import (
    ConformanceReport,
    assert_conformant,
    check_conformance,
    conformance_suite,
)

__all__ = [
    "BlockMapping",
    "FixedBlockMapping",
    "ExplicitBlockMapping",
    "Trace",
    "simulate",
    "Engine",
    "CompiledTrace",
    "compile_trace",
    "fast_simulate",
    "fast_fallback_reason",
    "multi_capacity_replay",
    "multi_capacity_supported",
    "multi_policy_replay",
    "multi_policy_supported",
    "FAST_POLICY_NAMES",
    "ConformanceReport",
    "check_conformance",
    "assert_conformant",
    "conformance_suite",
    "RWTrace",
    "WritebackSimulator",
    "WritebackStats",
    "make_rw_trace",
]
