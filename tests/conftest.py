import contextlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from vprkit.embeddings import normalize_rows


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def random_unit_rows(rng, n, d):
    return normalize_rows(rng.standard_normal((n, d)))


def balanced_labels(num_places, images_per_place):
    """Labels for a P x K batch: P groups of K identical ids."""
    return np.repeat(np.arange(num_places), images_per_place)


@pytest.fixture
def pk_batch(rng):
    """A small balanced batch: 4 places x 3 images, 8-D unit rows."""
    labels = balanced_labels(4, 3)
    rows = random_unit_rows(rng, len(labels), 8)
    return rows, labels


@pytest.fixture
def traced_memory():
    """`with traced_memory() as peak:` traces the block's allocations; `peak.bytes` is their peak.

    Tracing starts when the block does and stops when it ends, however it
    ends, so a failed test leaves no tracing on for the tests after it.
    """
    @contextlib.contextmanager
    def trace():
        peak = SimpleNamespace(bytes=0)
        tracemalloc.start()
        try:
            yield peak
            peak.bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return trace
