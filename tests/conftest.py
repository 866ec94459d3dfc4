import numpy as np
import pytest

from compalg.numerics import TolerancePolicy


@pytest.fixture
def gen():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def tol():
    return TolerancePolicy()


def unit(gen, n):
    v = gen.standard_normal(n)
    return v / np.linalg.norm(v)


def imaginary_unit_quaternion(gen):
    q = gen.standard_normal(4)
    q[0] = 0.0
    return q / np.linalg.norm(q)
