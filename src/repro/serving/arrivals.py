"""Arrival processes: when each request enters the system.

Open-loop generators precompute the full arrival timestamp vector for a
trace (deterministic given the spec's seed), which keeps the event heap
small and makes the offered load independent of how fast the server
drains — the defining property of open-loop load, and the regime where
tail latency explodes near saturation.  The closed-loop mode has no
precomputed times; :func:`repro.serving.service.serve` issues each
client's next request only after its previous one completes plus an
exponential think time, so offered load self-limits at
``clients / (think + sojourn)``.

All randomness flows through :func:`numpy.random.default_rng` seeded
from the spec — no global RNG state, no wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalSpec",
    "poisson_arrivals",
    "mmpp_arrivals",
    "constant_arrivals",
    "generate_arrivals",
    "exponential_draws",
]

#: Open-loop process names (closed-loop is driven by the server loop).
OPEN_LOOP = ("poisson", "mmpp", "constant")

#: Standard-exponential draws per :func:`exponential_draws` block.
DRAW_BLOCK = 4096


def exponential_draws(rng: np.random.Generator) -> Iterator[float]:
    """``rng``'s standard-exponential stream, one float at a time.

    Draws come from ``rng.standard_exponential`` a block at a time, so a
    draw costs a generator step instead of a NumPy call.  A Generator's
    ``exponential(scale)`` is ``scale * standard_exponential()``, so
    ``scale * next(draws)`` is bit-identical to the ``exponential(scale)``
    call at the same stream position.  The generator reads ahead by up
    to one block: ``rng`` must serve no other draws.
    """
    while True:
        yield from rng.standard_exponential(DRAW_BLOCK).tolist()


@dataclass(frozen=True)
class ArrivalSpec:
    """A reproducible description of the arrival process.

    Attributes
    ----------
    process:
        ``"poisson"`` (open-loop, exponential interarrivals at
        ``rate``), ``"mmpp"`` (on-off Markov-modulated Poisson:
        exponential dwell in an ON state at ``rate_on`` and an OFF
        state at ``rate_off``), ``"constant"`` (evenly spaced — useful
        for deterministic tests), or ``"closed"`` (``clients``
        closed-loop clients with exponential ``think`` time).
    rate:
        Mean offered request rate for the open-loop processes
        (requests per simulated time unit).
    seed:
        Seeds interarrival sampling (and think times in closed loop).
    rate_on / rate_off / mean_on / mean_off:
        MMPP knobs.  Defaults derive a bursty process with the same
        average ``rate``: ON bursts at ``2 * rate``, OFF silent, equal
        mean dwells — so MMPP and Poisson runs at the same ``rate``
        compare like for like.
    clients / think:
        Closed-loop population size and mean think time.
    """

    process: str = "poisson"
    rate: float = 0.01
    seed: int = 0
    rate_on: Optional[float] = None
    rate_off: Optional[float] = None
    mean_on: float = 1000.0
    mean_off: float = 1000.0
    clients: int = 1
    think: float = 0.0

    def __post_init__(self) -> None:
        if self.process not in OPEN_LOOP + ("closed",):
            raise ConfigurationError(
                f"unknown arrival process {self.process!r}; known: "
                f"{', '.join(OPEN_LOOP + ('closed',))}"
            )
        if self.process in OPEN_LOOP and self.rate <= 0:
            raise ConfigurationError(f"arrival rate must be > 0, got {self.rate}")
        if self.process == "mmpp" and (self.mean_on <= 0 or self.mean_off <= 0):
            raise ConfigurationError("mmpp dwell times must be > 0")
        if self.process == "closed":
            if self.clients < 1:
                raise ConfigurationError(
                    f"closed loop needs >= 1 client, got {self.clients}"
                )
            if self.think < 0:
                raise ConfigurationError(f"think time must be >= 0, got {self.think}")

    @property
    def open_loop(self) -> bool:
        return self.process in OPEN_LOOP

    def as_dict(self) -> Dict[str, Any]:
        """JSON-scalar form (content-addressed by the campaign layer)."""
        out: Dict[str, Any] = {"process": self.process, "seed": self.seed}
        if self.process in OPEN_LOOP:
            out["rate"] = self.rate
        if self.process == "mmpp":
            out.update(
                rate_on=self.rate_on,
                rate_off=self.rate_off,
                mean_on=self.mean_on,
                mean_off=self.mean_off,
            )
        if self.process == "closed":
            out.update(clients=self.clients, think=self.think)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArrivalSpec":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown arrival spec fields: {sorted(unknown)}"
            )
        return cls(**dict(data))


def poisson_arrivals(n: int, rate: float, seed: int = 0) -> np.ndarray:
    """``n`` ascending Poisson-process arrival times at ``rate``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x41525256]))
    gaps = rng.exponential(1.0 / rate, size=n)
    return np.cumsum(gaps)


def constant_arrivals(n: int, rate: float) -> np.ndarray:
    """Evenly spaced arrivals (period ``1/rate``), starting at ``1/rate``."""
    return (np.arange(n, dtype=np.float64) + 1.0) / rate


def mmpp_arrivals(
    n: int,
    rate_on: float,
    rate_off: float,
    mean_on: float,
    mean_off: float,
    seed: int = 0,
) -> np.ndarray:
    """On-off MMPP arrival times (thinning-free state-walk sampling).

    The process alternates exponential dwells in an ON state (Poisson
    at ``rate_on``) and an OFF state (``rate_off``, possibly 0); each
    interarrival is sampled by walking states until the next event
    lands inside the current dwell.  Every draw is a block draw scaled
    by its mean (:func:`exponential_draws`): the same stream, value for
    value, as one ``rng.exponential(mean)`` call per draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4D4D5050]))
    draw = exponential_draws(rng).__next__
    gap_on = 1.0 / rate_on if rate_on > 0 else None
    gap_off = 1.0 / rate_off if rate_off > 0 else None
    times = []
    append = times.append
    t = 0.0
    state_on = True
    state_end = mean_on * draw()
    inf = float("inf")
    for _ in range(n):
        while True:
            mean_gap = gap_on if state_on else gap_off
            gap = mean_gap * draw() if mean_gap is not None else inf
            if t + gap <= state_end:
                t += gap
                append(t)
                break
            # Next event falls past this dwell: jump to the state switch
            # and resample (memorylessness makes this exact).
            t = state_end
            state_on = not state_on
            state_end = t + (mean_on if state_on else mean_off) * draw()
    return np.array(times, dtype=np.float64)


def generate_arrivals(spec: ArrivalSpec, n: int) -> np.ndarray:
    """Arrival-time vector for ``n`` requests under an open-loop spec."""
    if not spec.open_loop:
        raise ConfigurationError(
            "closed-loop arrivals are driven by the serve loop, not pregenerated"
        )
    if spec.process == "poisson":
        return poisson_arrivals(n, spec.rate, spec.seed)
    if spec.process == "constant":
        return constant_arrivals(n, spec.rate)
    rate_on = spec.rate_on if spec.rate_on is not None else 2.0 * spec.rate
    if spec.rate_off is not None:
        rate_off = spec.rate_off
    else:
        # Preserve the requested average rate given the other knobs:
        # avg = (rate_on*mean_on + rate_off*mean_off) / (mean_on+mean_off).
        rate_off = max(
            0.0,
            (spec.rate * (spec.mean_on + spec.mean_off) - rate_on * spec.mean_on)
            / spec.mean_off,
        )
    return mmpp_arrivals(
        n, rate_on, rate_off, spec.mean_on, spec.mean_off, spec.seed
    )
