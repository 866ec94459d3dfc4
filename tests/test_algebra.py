import copy
import json
import pickle

import numpy as np
import pytest

from compalg import algebra as al
from compalg import classify as cl
from compalg import maps as mp
from compalg import octonion as oc
from compalg.errors import BadIndices, BadParameter, InconsistentSigns, NotOrthogonal

from compalg.numerics import DEFAULT_TOL, det_sign
from conftest import unit


def kappa_q(q, x):
    return oc.quat_mul(oc.quat_mul(q, x), oc.quat_conj(q))


def test_from_isotope_identity_is_octonions():
    a = al.from_isotope(mp.identity_map(), mp.identity_map())
    assert np.array_equal(a.sc, oc.STRUCTURE.astype(float))


def test_from_isotope_conj_pair_double_sign():
    a = al.from_isotope(mp.conj_map(), mp.conj_map())
    ds = al.double_sign(a)
    assert ds.signs == (-1, -1)


def test_from_isotope_lambda_u_product():
    # 1 . 1 = f(1) g(1) = u u = -1
    lam = mp.lambda_map([0.0, 1.0], 0)
    a = al.from_isotope(lam, lam)
    assert np.allclose(np.einsum("i,j,ijk->k", oc.ONE.coords, oc.ONE.coords, a.sc), -oc.ONE.coords)


def test_from_isotope_rejects_non_orthogonal():
    for f in (2.0 * np.eye(8), np.ones((3, 4)), np.ones(8)):
        with pytest.raises(NotOrthogonal):
            al.from_isotope(f, np.eye(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_isotope_rejects_non_finite_factors(bad):
    for f, g in ((np.full((8, 8), bad), np.eye(8)), (np.eye(8), np.full((8, 8), bad))):
        with pytest.raises(NotOrthogonal):
            al.from_isotope(f, g)


def test_double_sign_table():
    assert al.double_sign(al.octonion_algebra()).signs == (1, 1)
    for i in (0, 1):
        for j in (0, 1):
            ds = al.double_sign(al.standard_isotope(i, j))
            assert (ds.i, ds.j) == (i, j)
    assert al.double_sign(al.okubo_p11()).signs == (-1, -1)
    for i, j in ((0, 0), (0, 1), (1, 0)):
        assert al.double_sign(al.p35(i, j)).signs == ((-1) ** i, (-1) ** j)


def test_double_sign_matches_random_points(gen):
    # double_sign reads fixed sample points; random unit a must give the same signs
    signs = ((0, 0), (0, 1), (1, 0), (1, 1))
    family = [al.okubo_p11(), al.p35(0, 1), al.g_family(1, 0, 0, 1, 0.7, 2.1)]
    for i, j in signs:
        family += [al.standard_isotope(i, j), al.quat4(i, j),
                   al.j_family(i, j, unit(gen, 4), unit(gen, 4)),
                   al.k_family(i, j, *(unit(gen, 4) for _ in range(4))),
                   al.lambda_family(i, j, unit(gen, 2), unit(gen, 2))]
    for a in family:
        ds = al.double_sign(a)
        for _ in range(10):
            x = unit(gen, a.dim)
            left, right = np.einsum("i,ijk->kj", x, a.sc), np.einsum("j,ijk->ki", x, a.sc)
            got = (np.sign(np.linalg.det(left)), np.sign(np.linalg.det(right)))
            assert got == ds.signs, (a, x)


def test_det_sign_samples_match_per_point_signs():
    # the batched L_a, R_a stack gives the signs of the operators built one by one
    for a in (al.okubo_p11(), al.standard_isotope(0, 1), al.quat4(1, 0)):
        rows = al._det_sign_samples(a, al.DIVISION_TRIALS, DEFAULT_TOL)
        assert rows.shape == (al.DIVISION_TRIALS, 2)
        for x, row in zip(al._sample_points(a.dim), rows.tolist()):
            left, right = np.einsum("i,ijk->kj", x, a.sc), np.einsum("j,ijk->ki", x, a.sc)
            assert row == [det_sign(left), det_sign(right)]


def test_double_sign_inconsistent_for_non_division():
    # symmetrized octonion product: commutative, not a division algebra
    from compalg.errors import NearSingular

    sym = 0.5 * (oc.STRUCTURE + np.swapaxes(oc.STRUCTURE, 0, 1))
    with pytest.raises((InconsistentSigns, NearSingular)):
        al.double_sign(al.Algebra(sym.astype(float)))


def test_is_division_and_norm():
    o = al.octonion_algebra()
    assert al.is_division(o) and al.norm_multiplicative(o)
    sym = al.Algebra(0.5 * (oc.STRUCTURE + np.swapaxes(oc.STRUCTURE, 0, 1)).astype(float))
    assert not al.norm_multiplicative(sym)


def test_random_isotopes_division(gen):
    for _ in range(5):
        f = np.linalg.qr(gen.standard_normal((8, 8)))[0]
        g = np.linalg.qr(gen.standard_normal((8, 8)))[0]
        a = al.from_isotope(f, g)
        assert al.is_division(a)
        assert al.norm_multiplicative(a)


def test_family_constructor_invariants(gen):
    draws = [
        al.j_family(0, 0, unit(gen, 4), unit(gen, 4)),
        al.k_family(1, 0, *(unit(gen, 4) for _ in range(4))),
        al.lambda_family(0, 1, unit(gen, 2), unit(gen, 2)),
        al.g_family(0, 1, 1, 0, gen.uniform(0, np.pi), gen.uniform(0, np.pi)),
    ]
    expected = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for a, (i, j) in zip(draws, expected):
        assert al.is_division(a)
        assert al.norm_multiplicative(a)
        ds = al.double_sign(a)
        assert (ds.i, ds.j) == (i, j)


def test_j_family_trivial_point_is_standard():
    a = al.j_family(0, 0, [1, 0, 0, 0], [1, 0, 0, 0])
    assert np.array_equal(a.sc, oc.STRUCTURE.astype(float))


def test_g_family_index_constraint():
    with pytest.raises(BadParameter):
        al.g_family(0, 0, 0, 0, 0.3, 0.4)


def test_fractional_indices_are_rejected_not_truncated():
    one = [1.0, 0, 0, 0]
    for build in (lambda: al.quat4(0.5, 0), lambda: al.standard_isotope(0, 1.5),
                  lambda: al.j_family(0.9, 0, one, one), lambda: al.p35(0, -0.2),
                  lambda: al.g_family(0.9, 0, 1.2, 0, 0.3, 0.4)):
        with pytest.raises(BadIndices):
            build()
    assert issubclass(BadIndices, BadParameter)
    # an index equal to 0 or 1 is taken as that int
    assert al.quat4(1.0, np.int64(0)).family == al.quat4(1, 0).family
    assert type(al.quat4(1.0, 0).family.params["i"]) is int


def test_p35_rejects_minus_minus():
    with pytest.raises(BadParameter):
        al.p35(1, 1)


def test_okubo_equals_tau_point():
    t = al.OKUBO_TWIST
    a = al.okubo_p11()
    b = al.j_family(1, 1, t, oc.quat_mul(t, t))
    assert np.max(np.abs(a.sc - b.sc)) < 1e-14


def test_transport_identity_and_kappa(gen):
    a4, b4 = unit(gen, 4), unit(gen, 4)
    a = al.j_family(0, 1, a4, b4)
    same = al.transport(mp.identity_map(), a)
    assert np.max(np.abs(same.sc - a.sc)) < 1e-14
    q = unit(gen, 4)
    moved = al.transport(mp.kappa_hat_map(q), a)
    direct = al.j_family(0, 1, kappa_q(q, a4), kappa_q(q, b4))
    assert np.max(np.abs(moved.sc - direct.sc)) < 1e-12
    assert_same_canonical_form(moved, direct)


def assert_same_canonical_form(a, b):
    fa, fb = cl.canonical(a), cl.canonical(b)
    assert str(fa.block) == str(fb.block)
    assert cl._params_close(fa.block.kind, fa.params, fb.params)


def test_transport_preserves_invariants(gen):
    from compalg.derivations import derivation_basis

    a = al.j_family(1, 1, unit(gen, 4), unit(gen, 4))
    moved = al.transport(mp.kappa_hat_map(unit(gen, 4)), a)
    assert al.double_sign(moved).signs == al.double_sign(a).signs
    assert derivation_basis(moved).dim == derivation_basis(a).dim


def test_transport_eps_on_lambda(gen):
    t1, t2 = unit(gen, 2), unit(gen, 2)
    a = al.lambda_family(0, 1, t1, t2)
    moved = al.transport(mp.eps_hat(1), a)
    direct = al.lambda_family(0, 1, np.array([t1[0], -t1[1]]), np.array([t2[0], -t2[1]]))
    assert np.max(np.abs(moved.sc - direct.sc)) < 1e-12
    assert_same_canonical_form(moved, direct)


def test_transport_rejects_non_orthogonal_maps():
    octonions, h = al.octonion_algebra(), al.quat4(0, 1)
    shear = np.eye(8)
    shear[0, 1] = 0.3
    for phi, a in ((shear, octonions), (2.0 * np.eye(8), octonions), (np.eye(4), octonions),
                   (np.full((8, 8), np.nan), octonions), (np.full((8, 8), np.inf), octonions),
                   (np.eye(8), h), (mp.kappa_hat_map([0.0, 1, 0, 0]), h)):
        with pytest.raises(NotOrthogonal):
            al.transport(phi, a)


def test_membership_predicates():
    one = [1.0, 0, 0, 0]
    assert not al.in_TxT_ij(0, 0, one, one)
    t = al.OKUBO_TWIST
    assert not al.in_TxT_ij(1, 1, t, oc.quat_mul(t, t))
    assert al.in_TxT_ij(0, 0, t, oc.quat_mul(t, t))
    assert al.in_TxT_ij(1, 1, t, t)
    assert not al.in_S(one, [-1.0, 0, 0, 0], one, one)
    assert al.in_S([0.0, 1, 0, 0], one, one, one)
    # aligned one-axis tuples with matching signs fall outside S_ij
    u = np.array([0.0, 1, 0, 0])
    a = np.array([np.cos(0.4), np.sin(0.4), 0, 0])
    assert not al.in_S_ij(0, 1, a, -a, u, u)
    assert al.in_S_ij(0, 1, a, a, u, u)


def test_block_functions_pin_membership_predicates():
    one = np.array([1.0, 0, 0, 0])
    t = al.OKUBO_TWIST
    c = np.array([np.cos(0.4), np.sin(0.4), 0, 0])
    d = np.array([np.cos(1.1), np.sin(1.1), 0, 0])
    v = np.array([np.cos(0.7), 0, np.sin(0.7), 0])
    # imaginary part of norm exactly tol: inside the closed deadband,
    # so all four count as +-1
    edge = np.array([1.0, al.DEFAULT_TOL.value, 0, 0])
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        tau_points = [
            ((one, one), "D17"),
            ((t, oc.quat_mul(t, t)), "D8" if (i, j) == (1, 1) else "D134a"),
            ((-one, one), "D134s"), ((one, -one), "D134s"), ((-one, -one), "D134s"),
            ((c, d), "D134a"),
        ]
        for (a, b), kind in tau_points:
            assert al.tau_block(i, j, a, b) == kind, (i, j, kind)
            assert al.in_TxT_ij(i, j, a, b) == (kind not in ("D17", "D8"))
        sj, si = (-1.0) ** j, (-1.0) ** i
        t_points = [
            ((one, -one, -one, one), None),
            ((c, sj * c, d, si * d), "D116"),  # aligned one-axis tuple
            ((c, -sj * c, d, si * d), "D1124"),  # one axis, unaligned signs
            ((c, d, c, si * c), "D1124"),
            ((c, sj * c, v, si * v), "D11114"),
            ((edge, one, one, one), None),
        ]
        for qs, kind in t_points:
            assert al.t_block(i, j, *qs) == kind, (i, j, kind)
            assert al.in_S(*qs) == (kind is not None)
            assert al.in_S_ij(i, j, *qs) == (kind not in (None, "D116"))


def test_pm_one_tests_read_the_imaginary_norm():
    # q and r are kappa-conjugate: their imaginary parts have one norm,
    # 8e-10 * sqrt(2), outside the deadband, while each coordinate of q lies in it
    q, r = (x / np.linalg.norm(x) for x in (np.array([1.0, 8e-10, 8e-10, 0]),
                                            np.array([1.0, 8e-10 * np.sqrt(2), 0, 0])))
    one = np.array([1.0, 0, 0, 0])
    assert al.tau_block(0, 0, q, -one) == al.tau_block(0, 0, r, -one) == "D134a"
    a, b = al.k_family(0, 0, q, one, one, one), al.k_family(0, 0, r, one, one, one)
    assert cl.canonical(a).block == cl.canonical(b).block
    verdict = cl.isomorphic(a, b)
    assert verdict.verdict == "yes" and verdict.witness is not None


def test_json_roundtrip_bit_exact(gen):
    a = al.g_family(1, 0, 0, 1, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
    blob = json.dumps(a.to_json())
    b = al.from_json(json.loads(blob))
    assert np.array_equal(a.sc, b.sc)
    assert b.family.name == "g_family"
    raw = al.Algebra(a.sc.copy())
    blob2 = json.dumps(raw.to_json())
    c = al.from_json(json.loads(blob2))
    assert np.array_equal(c.sc, raw.sc)
    assert c.family is None
    # transported family points keep the stored tensor bit for bit, and their frame
    so8 = np.linalg.qr(gen.standard_normal((8, 8)))[0]
    points = (al.j_family(1, 0, unit(gen, 4), unit(gen, 4)),
              al.k_family(0, 1, *(unit(gen, 4) for _ in range(4))), a, al.standard_isotope(1, 0))
    for point in points:
        for moved in (al.transport(mp.kappa_hat_map(unit(gen, 4)), point), al.transport(so8, point)):
            back = al.from_json(json.loads(json.dumps(moved.to_json())))
            assert np.array_equal(back.sc, moved.sc)
            assert np.array_equal(back.family.frame, moved.family.frame)
            assert back.isotope is None
            assert cl.canonical(back).to_json() == cl.canonical(moved).to_json()


def test_quat4_block():
    h = al.quat4(0, 0)
    assert h.dim == 4
    assert np.array_equal(h.sc, oc.STRUCTURE[:4, :4, :4].astype(float))
    for i in (0, 1):
        for j in (0, 1):
            ds = al.double_sign(al.quat4(i, j))
            assert (ds.i, ds.j) == (i, j)


def test_isotope_pairs_are_checked_where_they_enter():
    # a given pair must rebuild the tensor; the pair K, K of standard_isotope(1, 1)
    # is 2.0 away from the octonions' tensor
    k = mp.conj_map()
    o = al.standard_isotope(0, 0)
    with pytest.raises(BadParameter):
        al.Algebra(o.sc, isotope=(k, k))
    with pytest.raises(BadParameter):
        al.Algebra(o.sc, family=o.family, isotope=(k, k))
    with pytest.raises(NotOrthogonal):
        al.Algebra(o.sc, isotope=(2 * np.eye(8), np.eye(8)))
    b = al.Algebra(al.standard_isotope(1, 1).sc, isotope=(k, k))
    assert all(np.array_equal(m, k.mat) for m in b.isotope)
    assert np.array_equal(al.from_isotope(*b.isotope).sc, b.sc)


def test_isotopes_pickle_and_copy_with_their_pairs(gen):
    a = al.j_family(1, 0, unit(gen, 4), unit(gen, 4))
    for b in (a, al.from_isotope(*a.isotope)):
        for c in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b), copy.copy(b)):
            assert np.array_equal(c.sc, b.sc)
            assert all(np.array_equal(x, y) for x, y in zip(c.isotope, b.isotope))
            assert not c.isotope[0].flags.writeable
