import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=987654321))


@pytest.fixture
def traced_peak():
    """The tracemalloc peak of one call fn(*args) above what was held before it."""
    def peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fn(*args)
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    return peak
