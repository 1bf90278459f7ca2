"""Peak memory of the packed transforms, measured with tracemalloc.

Each transform holds a few 2**n-bit vectors at a time: its input, its
result and the temporaries of one butterfly or XOR step.  The bound is
eight vectors at n = 20; a route that builds one Python object per
monomial or per index exceeds it by orders of magnitude.
"""

import random
import tracemalloc

import pytest

from boolring import BoolFunc, compose, decompose, from_anf, to_anf

N = 20
VECTOR_BYTES = (1 << N) // 8
LIMIT_BYTES = 8 * VECTOR_BYTES


def peak_bytes(fn):
    """Bytes allocated at the peak of one call, above what was live before it."""
    fn()  # warm-up: fills the per-n mask caches, which later calls share
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn()  # held until the peak is read, so it counts as one of the vectors
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


@pytest.fixture(scope="module")
def func():
    return BoolFunc(N, random.Random(20).getrandbits(1 << N))


@pytest.mark.parametrize("name", ["to_anf", "from_anf", "decompose", "compose"])
def test_peak_is_a_few_vectors(func, name):
    anf = to_anf(func)
    calls = {
        "to_anf": lambda: to_anf(func),
        "from_anf": lambda: from_anf(anf),
        "decompose": lambda: decompose(func),
        "compose": lambda: compose(N, decompose(func)),
    }
    peak = peak_bytes(calls[name])
    assert peak <= LIMIT_BYTES, f"{name} peaked at {peak / VECTOR_BYTES:.1f} vectors"
