import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gridpersist import field
from gridpersist.cli import random_module
from gridpersist.core import DEFAULT_PRIME, GridModule, interval_module


def free_module(grid, gen_point, p=DEFAULT_PRIME):
    """The module that is k at every vertex >= gen_point and 0 elsewhere."""
    gen_point = tuple(Fraction(x) for x in gen_point)
    dims = np.zeros(grid.shape, dtype=np.int64)
    for vidx in grid.vertices():
        if all(a <= b for a, b in zip(gen_point, grid.coord(vidx))):
            dims[vidx] = 1
    steps = {}
    for vidx in grid.vertices():
        for k in range(grid.n):
            w = vidx[:k] + (vidx[k] + 1,) + vidx[k + 1:]
            if w[k] < grid.shape[k] and dims[vidx] and dims[w]:
                steps[(vidx, k)] = field.eye(1)
    return GridModule(grid, dims, steps, p)


def rect(a, b, p=65521):
    """Interval module on the 2-d box [a, b)."""
    return interval_module(tuple(map(Fraction, a)), tuple(map(Fraction, b)), p=p)


def random_rect(rng, span=8, side_max=4, p=65521):
    """A seeded random 2-d interval module with integer corners."""
    lo = rng.integers(0, span, size=2)
    side = rng.integers(1, side_max + 1, size=2)
    return rect(tuple(int(x) for x in lo),
                tuple(int(a + s) for a, s in zip(lo, side)), p=p)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def small_random_modules(count, seed0=0, n=2, size=3, max_dim=2):
    return [random_module(n, size, max_dim, seed=seed0 + i)
            for i in range(count)]
