import numpy as np
import pytest

from compalg import classify as cl
from compalg.numerics import TolerancePolicy


@pytest.fixture
def gen():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def tol():
    return TolerancePolicy()


def g_iso(p, q):
    """isomorphic()'s decision on two g_family points: canonical forms in one
    block with close parameters."""
    fp, fq = (cl._canonical_params("g_family", vars(x)) for x in (p, q))
    return str(fp.block) == str(fq.block) and cl._params_close("D1133", fp.params, fq.params)


def unit(gen, n):
    v = gen.standard_normal(n)
    return v / np.linalg.norm(v)


def imaginary_unit_quaternion(gen):
    q = gen.standard_normal(4)
    q[0] = 0.0
    return q / np.linalg.norm(q)
