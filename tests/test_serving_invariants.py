"""Serving-layer invariants, property-tested.

Four laws pin the discrete-event core:

* **Monotone time** — popped event timestamps never decrease, ties
  resolve in schedule order, and scheduling an arrival into the past
  raises (all observed through ``serve(on_event=...)``).
* **Conservation** — after the loop drains, every arrival is accounted
  for: ``arrivals = completions + dropped`` (nothing in flight), and
  only non-dropped requests touched the cache.
* **Little's law** — exact, not approximate: a run that starts and
  ends empty has ∫N(t)dt equal to the sum of sojourn times, hence
  ``L = λW`` to float precision; with timeouts the identity holds with
  queue-dropped wait included.
* **M/M/1** — the degenerate no-cache config (exponential service with
  ``t_miss=0``, one server, Poisson arrivals) is a textbook M/M/1
  queue, so the measured mean sojourn must match ``1/(μ-λ)`` within
  CI bounds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace
from repro.errors import ConfigurationError
from repro.serving import (
    ArrivalSpec,
    ServiceModel,
    ServingConfig,
    serve_policy,
)
from repro.workloads import uniform_random


def make_trace(length=400, universe=64, seed=0):
    return uniform_random(length, universe, 4, seed)


# ---------------------------------------------------------------------------
# Event heap, observed through serve(on_event=...)
# ---------------------------------------------------------------------------
def _events(trace, config, arrivals=None, monkeypatch=None, **kwargs):
    """Every ``(name, time, index)`` event of one ``serve`` run; with
    ``arrivals``, those times replace the generated ones."""
    from repro.policies import make_policy
    from repro.serving import serve

    if arrivals is not None:
        monkeypatch.setattr(
            "repro.serving.service.generate_arrivals",
            lambda spec, n: np.asarray(arrivals, dtype=np.float64),
        )
    events = []
    serve(
        make_policy("item-lru", 16, trace.mapping),
        trace,
        config,
        on_event=lambda *event: events.append(event),
        **kwargs,
    )
    return events


def _blocks_trace(n):
    """``n`` accesses to distinct blocks of 8: every access misses."""
    return Trace(np.arange(n, dtype=np.int64) * 8, FixedBlockMapping(8 * n, 8))


class TestEventOrder:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from(["fifo", "sjf"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_popped_times_never_decrease(self, times, queue):
        times = sorted(times)
        with pytest.MonkeyPatch.context() as mp:
            events = _events(
                make_trace(length=len(times)),
                ServingConfig(
                    service=ServiceModel(t_hit=1.0, t_miss=50.0),
                    concurrency=2,
                    queue=queue,
                ),
                times,
                mp,
            )
        popped = [t for _, t, _ in events]
        assert popped == sorted(popped)
        assert [(t, i) for name, t, i in events if name == "arrival"] == list(
            zip(times, range(len(times)))
        )

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=20, deadline=None)
    def test_same_time_arrivals_keep_schedule_order(self, n):
        with pytest.MonkeyPatch.context() as mp:
            events = _events(
                _blocks_trace(n), ServingConfig(), [5.0] * n, mp
            )
        assert [i for name, _, i in events if name == "arrival"] == list(range(n))
        assert [i for name, _, i in events if name == "start"] == list(range(n))

    @pytest.mark.parametrize(
        "rate, concurrency, expected",
        [
            # Request 0's completion at t=3 was scheduled (at t=1) before
            # arrival 2 was (at t=2): it pops first.
            (
                1.0,
                2,
                [
                    ("arrival", 1.0, 0), ("start", 1.0, 0),
                    ("arrival", 2.0, 1), ("start", 2.0, 1),
                    ("done", 3.0, 0), ("arrival", 3.0, 2), ("start", 3.0, 2),
                    ("done", 4.0, 1), ("done", 5.0, 2),
                ],
            ),
            # Arrival 1 at t=4 was scheduled before request 0's
            # completion at t=4: the arrival pops first.
            (
                0.5,
                1,
                [
                    ("arrival", 2.0, 0), ("start", 2.0, 0),
                    ("arrival", 4.0, 1), ("done", 4.0, 0), ("start", 4.0, 1),
                    ("arrival", 6.0, 2), ("done", 6.0, 1), ("start", 6.0, 2),
                    ("done", 8.0, 2),
                ],
            ),
        ],
    )
    def test_ties_pop_in_schedule_order(self, rate, concurrency, expected):
        config = ServingConfig(
            arrival=ArrivalSpec(process="constant", rate=rate),
            service=ServiceModel(t_hit=1.0, t_miss=1.0),
            concurrency=concurrency,
        )
        assert _events(_blocks_trace(3), config) == expected

    @pytest.mark.parametrize(
        "queue, referee", [("fifo", False), ("sjf", False), ("fifo", True)]
    )
    def test_arrivals_into_the_past_raise(self, monkeypatch, queue, referee):
        trace = make_trace(length=4)
        kwargs = {}
        if referee:
            from repro.core.engine import Engine
            from repro.policies import make_policy

            kwargs["engine"] = Engine(make_policy("item-lru", 16, trace.mapping))
        with pytest.raises(ConfigurationError):
            _events(
                trace,
                ServingConfig(queue=queue),
                [10.0, 9.0, 11.0, 12.0],
                monkeypatch,
                **kwargs,
            )


# ---------------------------------------------------------------------------
# Config-space strategy for the whole-loop laws
# ---------------------------------------------------------------------------
def _configs():
    arrival = st.sampled_from(
        [
            ArrivalSpec(process="poisson", rate=0.05, seed=1),
            ArrivalSpec(process="poisson", rate=0.005, seed=2),
            ArrivalSpec(process="mmpp", rate=0.02, seed=3),
            ArrivalSpec(process="constant", rate=0.03),
            ArrivalSpec(process="closed", clients=4, think=10.0, seed=4),
        ]
    )
    return st.builds(
        ServingConfig,
        arrival=arrival,
        service=st.sampled_from(
            [
                ServiceModel(t_hit=1.0, t_miss=50.0),
                ServiceModel(t_hit=2.0, t_miss=20.0, t_item=1.0),
                ServiceModel(t_hit=1.0, t_miss=30.0, dist="exponential", seed=5),
            ]
        ),
        concurrency=st.integers(min_value=1, max_value=4),
        queue=st.sampled_from(["fifo", "sjf"]),
        queue_limit=st.sampled_from([None, 0, 4, 64]),
        timeout=st.sampled_from([None, 25.0, 500.0]),
    )


class TestConservation:
    @given(config=_configs(), seed=st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_every_arrival_is_accounted_for(self, config, seed):
        trace = make_trace(seed=seed)
        events = []
        from repro.policies import make_policy
        from repro.serving import serve

        policy = make_policy("item-lru", 16, trace.mapping)
        result = serve(
            policy, trace, config, on_event=lambda n, t, i: events.append((n, t, i))
        )
        assert result.arrivals == len(trace.items)
        assert result.arrivals == result.completions + result.dropped
        # Dropped requests never touch the cache.
        assert result.sim.accesses == result.arrivals - result.dropped
        # Per-class latency histograms partition the completions.
        assert (
            sum(h.count for h in result.latency_by_kind.values())
            == result.latency.count
            == result.completions
        )
        arrivals = sum(1 for n, _, _ in events if n == "arrival")
        dones = sum(1 for n, _, _ in events if n == "done")
        drops = sum(1 for n, _, _ in events if n.startswith("drop_"))
        assert arrivals == result.arrivals
        assert dones == result.completions
        assert drops == result.dropped

    @given(config=_configs())
    @settings(max_examples=30, deadline=None)
    def test_event_times_monotone_through_serve(self, config):
        trace = make_trace()
        times = []
        from repro.policies import make_policy
        from repro.serving import serve

        policy = make_policy("item-lru", 16, trace.mapping)
        serve(policy, trace, config, on_event=lambda n, t, i: times.append(t))
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert times and times[0] >= 0.0


class TestLittlesLaw:
    @given(
        config=st.builds(
            ServingConfig,
            arrival=st.sampled_from(
                [
                    ArrivalSpec(process="poisson", rate=0.04, seed=1),
                    ArrivalSpec(process="mmpp", rate=0.02, seed=2),
                    ArrivalSpec(process="closed", clients=3, think=5.0, seed=3),
                ]
            ),
            service=st.sampled_from(
                [
                    ServiceModel(t_hit=1.0, t_miss=40.0),
                    ServiceModel(t_hit=1.0, t_miss=40.0, dist="exponential"),
                ]
            ),
            concurrency=st.integers(min_value=1, max_value=3),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_exact_on_drop_free_runs(self, config):
        """Start-empty/end-empty with no drops: ∫N dt == Σ sojourns,
        so L == λW to float rounding (not statistically, *exactly*)."""
        result = serve_policy("item-lru", 16, make_trace(), config)
        assert result.dropped == 0
        assert math.isclose(
            result.area_in_system, result.sojourn_sum, rel_tol=1e-9
        )
        assert math.isclose(
            result.little_l,
            result.little_lambda * result.little_w,
            rel_tol=1e-9,
        )

    def test_long_run_l_matches_lambda_w(self):
        config = ServingConfig(
            arrival=ArrivalSpec(process="poisson", rate=0.02, seed=9),
            service=ServiceModel(t_hit=1.0, t_miss=60.0),
            concurrency=2,
        )
        result = serve_policy(
            "item-lru", 32, make_trace(length=20_000, universe=256), config
        )
        assert result.completions == 20_000
        assert math.isclose(
            result.little_l, result.little_lambda * result.little_w, rel_tol=1e-9
        )
        assert result.little_l > 0


class TestMM1:
    @pytest.mark.parametrize("rho", [0.3, 0.6])
    def test_mean_sojourn_matches_theory(self, rho):
        """Degenerate no-cache config == M/M/1: service is Exp(1/μ)
        regardless of hit/miss (``t_miss=0``), one server, Poisson
        arrivals at ``λ = ρμ``.  Mean sojourn must be ``1/(μ-λ)``.

        Tolerance: the sojourn-time variance of M/M/1 is ``1/(μ-λ)²``
        and samples are positively correlated; a ±5σ/√n band with a 3×
        correlation inflation keeps false failures out while still
        catching any systematic error in the queue (a broken queue is
        off by O(W), far outside the band).
        """
        n = 60_000
        mu = 1.0  # t_hit = 1.0, exponential
        lam = rho * mu
        config = ServingConfig(
            arrival=ArrivalSpec(process="poisson", rate=lam, seed=11),
            service=ServiceModel(
                t_hit=1.0 / mu, t_miss=0.0, dist="exponential", seed=13
            ),
            concurrency=1,
        )
        result = serve_policy(
            "item-lru", 16, make_trace(length=n, universe=512), config
        )
        expected = 1.0 / (mu - lam)
        tolerance = 5.0 * 3.0 * expected / math.sqrt(n)
        assert abs(result.mean_latency - expected) < tolerance, (
            result.mean_latency,
            expected,
            tolerance,
        )
