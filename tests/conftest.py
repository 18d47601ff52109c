"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import raw_stream
from repro.core.mapping import FixedBlockMapping
from repro.core.trace import Trace


@pytest.fixture
def small_mapping() -> FixedBlockMapping:
    """64 items in blocks of 4."""
    return FixedBlockMapping(universe=64, block_size=4)


@pytest.fixture
def medium_mapping() -> FixedBlockMapping:
    """1024 items in blocks of 8."""
    return FixedBlockMapping(universe=1024, block_size=8)


@pytest.fixture
def scan_trace(small_mapping) -> Trace:
    """One sequential pass over the small universe."""
    return Trace(np.arange(small_mapping.universe), small_mapping)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_trace(
    mapping: FixedBlockMapping, length: int, seed: int = 0
) -> Trace:
    """Uniform random trace over a mapping (helper, not a fixture)."""
    gen = np.random.default_rng(seed)
    return Trace(
        gen.integers(0, mapping.universe, size=length, dtype=np.int64), mapping
    )


@pytest.fixture
def forced_fallback(monkeypatch):
    """The raw stream's self-check fails: every randomized kernel and
    trace generator draws from numpy's own generator."""
    monkeypatch.setattr(raw_stream, "_raw_ok", None)
    monkeypatch.setattr(raw_stream, "_self_check", lambda: False)
    assert isinstance(raw_stream.draw_stream(1, 64), raw_stream.NumpyStream)
