"""One closed deadband for every parameter-level sign decision.

numerics.deadband_signs gives each value one sign, with |x| <= tol
counted as 0; the normal-form predicates, sign normalizations, block
functions and the D1133 exclusion all read it, so a coordinate of exactly
+-tol means the same thing to each of them."""

import json

import numpy as np
import pytest

from compalg import algebra as al
from compalg import classify as cl
from compalg import cli
from compalg import d1133 as d33
from compalg import maps as mp
from compalg import normal_form as nf
from compalg.errors import NotInBlock
from compalg.numerics import DEFAULT_TOL, deadband_signs, leading_sign
from compalg.triality import triality_pair

Z = DEFAULT_TOL.value
SIGN_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _n(*coords):
    v = np.array(coords, dtype=float)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("x, sign", [
    (0.0, 0), (Z, 0), (-Z, 0), (Z * (1 - 1e-12), 0), (-Z * (1 - 1e-12), 0),
    (Z * (1 + 1e-12), 1), (-Z * (1 + 1e-12), -1), (1.0, 1), (-1.0, -1),
])
def test_each_value_gets_one_sign(x, sign):
    assert deadband_signs([x], Z) == (sign,)
    assert deadband_signs(x, Z) == (sign,)
    assert leading_sign([0.0, x, -1.0], Z) == (sign or -1)


def test_deadband_signs_of_a_vector_and_nan():
    assert deadband_signs(np.array([[0.0, Z], [-2 * Z, 1.0]]), Z) == (0, 0, -1, 1)
    assert leading_sign([Z, -Z, 0.0], Z) == 0
    with pytest.raises(ValueError):
        deadband_signs([0.0, np.nan], Z)
    with pytest.raises(ValueError):
        leading_sign([np.nan, 1.0], Z)


@pytest.mark.parametrize("x", [Z, -Z])
def test_sign_decisions_read_zero_tol_as_zero(x):
    one = nf.ONE4
    assert nf.is_pm_one(np.array([1.0, x, 0, 0]))
    # the P0 and T12 sign predicates, read through M's pm1_P0 and M2's c2 branch
    assert nf.in_M(nf.make_pair(one, np.array([0.0, 1, x, 0]))) == (True, "pm1_P0")
    assert nf.in_M2(nf.make_pair(nf.V4, np.array([x, -1.0, 0, 0]))) == (False, None)
    # the real part x of the P0 component ties, so the P component's decides
    p0 = np.array([x, 1.0, 0, 0])
    assert nf.in_M1(nf.make_pair(p0, _n(1, 1, 0, 0))) == (True, "P0_P_plus")
    assert nf.in_M1(nf.make_pair(p0, _n(-1, 1, 0, 0))) == (False, None)
    # sign normalization skips x and reads the u-coordinate
    assert nf.BracketTT.of(np.array([x, -1.0, 0, 0]), nf.U4).rep.a[1] == 1.0
    c = np.zeros(8)
    c[0], c[1] = x, -1.0
    s = triality_pair(mp.bimul_map(c, np.eye(8))).phi2[:, 0]
    assert abs(s[0]) == Z and s[1] > 0
    edge = np.array([1.0, x, 0, 0])  # of norm 1.0 in floating point
    for i, j in SIGN_PAIRS:
        assert al.tau_block(i, j, edge, one) == "D17"
        assert al.t_block(i, j, edge, one, one, one) is None
        assert not al.in_S_ij(i, j, edge, one, one, one)


def test_d1133_exclusion_distance_is_closed():
    alpha0, beta0 = d33.excluded_point(0, 1, 0, 1)
    assert not d33.in_d1133(d33.GParams(0, 1, 0, 1, alpha0 + Z, beta0))
    assert d33.in_d1133(d33.GParams(0, 1, 0, 1, alpha0 + 2 * Z, beta0))
    # on arrays around an excluded point at (0, 0), where the offsets are exact:
    # an offset of +-Z in either angle, or both, is excluded, and one of +-2Z is kept
    offsets = np.array([-2 * Z, -Z, 0.0, Z, 2 * Z])
    within = abs(offsets) <= Z
    for indices in ((0, 1, 0, 1), (1, 1, 1, 1)):
        assert d33.excluded_point(*indices) == (0.0, 0.0)
        kept = d33.in_d1133_angles(indices, offsets[:, None], offsets)
        assert (kept == ~(within[:, None] & within)).all()


#: A T-family point with coordinates of exactly +-tol.
EDGE_POINT = (1, 0, _n(-Z, 1, 0, 0), np.array([0.0, -1, 0, 0]), _n(0, Z, 0, -1), _n(-1, 0, 0, Z))


def test_edge_point_is_canonical_and_isomorphic_to_itself(tmp_path, capsys):
    a = al.k_family(*EDGE_POINT)
    form = cl.canonical(a)
    assert nf.in_N(form.params)[0]
    for b in (a, al.transport(mp.kappa_hat_map(np.array([0.5, 0.5, 0.5, 0.5])), a)):
        verdict = cl.isomorphic(a, b)
        assert verdict.verdict == "yes", verdict.reason
        assert cl.witness_residual(verdict.witness, a, b) < 1e-8
    path = tmp_path / "k.json"
    path.write_text(json.dumps(a.to_json()))
    assert cli.run(["iso", str(path), str(path)]) == 0
    assert capsys.readouterr().out == "isomorphic\n"


def test_edge_sweep_of_signed_basis_tuples():
    """2000 T-family tuples of +-basis quaternions, one coordinate of each
    offset by 0 or +-tol: every one reduces into N, or is all +-1."""
    gen = np.random.default_rng(14)
    count = 2000
    rows = np.arange(count)[:, None], np.arange(4)
    qs = np.zeros((count, 4, 4))
    qs[(*rows, gen.integers(4, size=(count, 4)))] = gen.choice((-1.0, 1.0), size=(count, 4))
    qs[(*rows, gen.integers(4, size=(count, 4)))] += gen.choice((0.0, Z, -Z), size=(count, 4))
    qs /= np.linalg.norm(qs, axis=2, keepdims=True)
    in_n = 0
    for (i, j), point in zip(gen.integers(2, size=(count, 2)).tolist(), qs):
        params = {"i": i, "j": j, **dict(zip(("a1", "b1", "a2", "b2"), point))}
        try:
            form = cl._canonical_params("t_family", params)
        except NotInBlock:
            assert not any(deadband_signs(point[:, 1:], Z))
            continue
        assert nf.in_N(form.params)[0], params
        in_n += 1
    assert in_n > 0.9 * count
