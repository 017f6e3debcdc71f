"""Shared test fixtures."""

import tracemalloc

import pytest


def _traced_peak(run):
    """Peak bytes numpy allocates while run() executes, above what is live
    before it (numpy reports its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The _traced_peak measure: traced_peak(run) -> peak bytes of run()."""
    return _traced_peak
