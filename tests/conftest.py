"""Shared pytest fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.optimal_silent import OptimalSilentSSR
from repro.core.silent_n_state import SilentNStateSSR
from repro.core.sublinear import SublinearTimeSSR
from repro.engine.compiled import clear_compile_memo


@pytest.fixture(autouse=True)
def _fresh_compile_memo():
    """Start every test with an empty compile memo, so test order cannot matter."""
    clear_compile_memo()
    yield
    clear_compile_memo()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


def make_optimal_silent(n: int, **overrides) -> OptimalSilentSSR:
    """Optimal-Silent-SSR with test-friendly (small) constants."""
    parameters = {"rmax_multiplier": 3.0, "dmax_factor": 5.0, "emax_factor": 14.0}
    parameters.update(overrides)
    return OptimalSilentSSR(n, **parameters)


def make_sublinear(n: int, depth=1, **overrides) -> SublinearTimeSSR:
    """Sublinear-Time-SSR with test-friendly (small) constants."""
    parameters = {"rmax_multiplier": 2.5}
    parameters.update(overrides)
    return SublinearTimeSSR(n, depth=depth, **parameters)


@pytest.fixture
def small_silent_n_state() -> SilentNStateSSR:
    """A small instance of the Protocol 1 baseline."""
    return SilentNStateSSR(8)


@pytest.fixture
def small_optimal_silent() -> OptimalSilentSSR:
    """A small, fast-constant instance of Optimal-Silent-SSR."""
    return make_optimal_silent(12)


@pytest.fixture
def small_sublinear() -> SublinearTimeSSR:
    """A small, fast-constant instance of Sublinear-Time-SSR (H = 1)."""
    return make_sublinear(10, depth=1)
