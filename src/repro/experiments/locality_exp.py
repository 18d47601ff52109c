"""Experiment E-LOC: locality-model validation (supports Table 2).

Generates phase traces consistent with polynomial locality families,
re-profiles them empirically (the measured f/g must not exceed the
targets), then checks the Theorem 8–11 story against measured fault
rates:

* every deterministic policy's fault rate on the adversarial phase
  trace is at least Theorem 8's bound;
* IBLP's fault rate on *any* trace with this profile is at most
  Theorem 11's bound evaluated on the *empirical* profile.
"""

from __future__ import annotations

from typing import Dict, List

from repro.adversary import LocalityAdversary
from repro.analysis.tables import format_table
from repro.bounds.locality import (
    fault_rate_lower,
    iblp_fault_rate_upper,
)
from repro.campaign.integrate import UNCACHED, CampaignCache
from repro.locality.functions import PolynomialLocality
from repro.locality.generator import phase_trace
from repro.locality.profile import profile_trace
from repro.policies import IBLP, BlockLRU, ItemLRU, MarkingLRU

__all__ = ["run", "render"]


def run(
    k: int = 48,
    B: int = 4,
    p: float = 2.0,
    phases: int = 4,
    cache: CampaignCache = UNCACHED,
    serving=None,
) -> List[Dict[str, float]]:
    """Adversarial + generated traces across the three spatial regimes.

    The adaptive-adversarial rows always execute live (the adversary
    reacts to the policy, so there is no trace to fingerprint); the
    generated-trace IBLP measurement is memoized through ``cache``.
    With ``serving`` (a :class:`repro.serving.ServingConfig` or dict),
    the generated-trace rows gain p50/p99 sojourn columns — adversarial
    rows stay offline-only, having no replayable trace to serve.
    """
    rows: List[Dict[str, float]] = []
    for label, gamma in (
        ("no_spatial", 1.0),
        ("high_spatial", B ** (1.0 - 1.0 / p)),
        ("max_spatial", float(B)),
    ):
        family = PolynomialLocality(p=p, gamma=gamma)
        bounds = family.to_bounds()
        thm8 = fault_rate_lower(bounds, k)
        # Adaptive adversarial phases against each policy.
        for pol_name, factory in (
            ("item-lru", lambda m: ItemLRU(k, m)),
            ("block-lru", lambda m: BlockLRU(k, m)),
            ("iblp", lambda m: IBLP(k, m)),
            ("marking-lru", lambda m: MarkingLRU(k, m)),
        ):
            adv = LocalityAdversary(
                k, B, f_inverse=family.f_inverse, g=family.g
            )
            run_ = adv.run(factory(adv.make_mapping(phases)), cycles=phases)
            rows.append(
                {
                    "regime": label,
                    "gamma": gamma,
                    "source": "adversarial",
                    "policy": pol_name,
                    "fault_rate": run_.notes["fault_rate"],
                    "thm8_lower": thm8,
                    "thm11_upper_iblp": iblp_fault_rate_upper(
                        bounds, k // 2, k - k // 2, B
                    ),
                }
            )
        # Non-adaptive generated trace; measure IBLP against the bound
        # computed from the trace's own *empirical* profile.
        trace = phase_trace(
            family.f_inverse,
            family.g,
            universe_items=k + 1,
            block_size=B,
            phases=phases,
            seed=7,
        )
        profile = profile_trace(trace)
        emp = profile.to_bounds()
        (res,) = cache.simulate_many([("iblp", k)], trace)
        row = {
            "regime": label,
            "gamma": gamma,
            "source": "generated",
            "policy": "iblp",
            "fault_rate": res.miss_ratio,
            "thm8_lower": fault_rate_lower(emp, k),
            "thm11_upper_iblp": iblp_fault_rate_upper(
                emp, k // 2, k - k // 2, B
            ),
        }
        if serving is not None:
            served = cache.serve("iblp", k, trace, serving)
            row["p50_sojourn"] = served.p50
            row["p99_sojourn"] = served.p99
        rows.append(row)
    return rows


def render(
    k: int = 48,
    B: int = 4,
    p: float = 2.0,
    phases: int = 4,
    cache: CampaignCache = UNCACHED,
    serving=None,
) -> str:
    """Formatted locality-validation table."""
    return format_table(
        run(k=k, B=B, p=p, phases=phases, cache=cache, serving=serving),
        title=f"Locality-model validation (k={k}, B={B}, p={p:g})",
    )
