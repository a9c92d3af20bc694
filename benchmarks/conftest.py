"""Pytest configuration for the benchmark harness.

The shared helper lives in ``bench_utils`` (imported directly by each
benchmark module); run the harness with::

    pytest benchmarks/ --benchmark-only
"""

import pytest

from repro.engine.compiled import clear_compile_memo


@pytest.fixture(autouse=True)
def _cold_compile_memo():
    """Each benchmark pays its own compiles, as a fresh ``repro run`` does.

    Without this, a table an earlier benchmark compiled would be a memo hit,
    and columns such as ``compile (s)`` would record the hit, not the compile.
    """
    clear_compile_memo()
    yield
    clear_compile_memo()
