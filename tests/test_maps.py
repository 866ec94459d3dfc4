import numpy as np
import pytest

from compalg import algebra as al
from compalg import maps as mp
from compalg import octonion as oc
from compalg.errors import (BadIndices, NotCayleyTriple, NotOrthogonal, NotOrthonormal,
                            NotUnitComplex, NotUnitNorm, NotUnitQuaternion)
from compalg.numerics import is_orthogonal
from compalg.verify import _chain

from conftest import unit


def kappa_q(q, x):
    return oc.quat_mul(oc.quat_mul(q, x), oc.quat_conj(q))


def test_lambda_map_identity_and_minus_conj():
    assert np.array_equal(mp.lambda_map([1.0, 0.0], 0).mat, np.eye(8))
    m = mp.lambda_map([-1.0, 0.0], 1).mat
    expected = np.eye(8)
    expected[0, 0] = -1.0
    assert np.allclose(m, expected)  # -K on C, identity elsewhere


def test_lambda_map_evaluation():
    m = mp.lambda_map([0.0, 1.0], 0)
    assert np.allclose(m.mat @ oc.ONE.coords, oc.U.coords)


def test_lambda_map_rejects_non_complex():
    with pytest.raises(NotUnitComplex):
        mp.lambda_map([0.0, 0.5], 0)
    with pytest.raises(NotUnitComplex):
        mp.lambda_map(np.array([0.0, 0.0, 1.0, 0.0]), 0)


def test_tau_map_identity_and_okubo_twist():
    assert np.allclose(mp.tau_map([1, 0, 0, 0]).mat, np.eye(8))
    t = np.array([-0.5, np.sqrt(3) / 2, 0.0, 0.0])
    tau = mp.tau_map(t)
    assert mp.is_automorphism(tau)
    assert np.allclose(tau.mat @ oc.Z.coords, (oc.Z * oc.Octonion(np.r_[t, np.zeros(4)])).coords)


def test_tau_map_block_oracle(gen):
    # fixes H pointwise; on Hz the second block is left multiplication by conj(p)
    p = unit(gen, 4)
    m = mp.tau_map(p).mat
    assert np.allclose(m[:4, :4], np.eye(4))
    assert np.max(np.abs(m[:4, 4:])) < 1e-12 and np.max(np.abs(m[4:, :4])) < 1e-12
    block = np.column_stack([oc.quat_mul(oc.quat_conj(p), e) for e in np.eye(4)])
    assert np.allclose(m[4:, 4:], block)


def test_kappa4_oracle(gen):
    # the conjugation action of the quaternion kernel
    for _ in range(20):
        q, x = unit(gen, 4), gen.standard_normal(4)
        assert np.allclose(mp.kappa4(q) @ x, oc.quat_kappa(q, x), rtol=0.0, atol=1e-14)


def test_T_map_block_oracle(gen):
    # a K^k(x) b on H, the identity on Hz
    for k in (0, 0, 1, 1):
        a, b, x = unit(gen, 4), unit(gen, 4), gen.standard_normal(4)
        m = mp.T_map(a, b, k).mat
        kx = oc.quat_conj(x) if k else x
        assert np.allclose(m[:4, :4] @ x, oc.quat_mul(oc.quat_mul(a, kx), b), rtol=0.0, atol=1e-14)
        assert np.array_equal(m[4:, 4:], np.eye(4))
        assert not m[:4, 4:].any() and not m[4:, :4].any()


def test_lambda_map_block_oracle(gen):
    # t K^k(x) on C = span(1, u), the identity on the other six coordinates
    for k in (0, 0, 1, 1):
        t, x = unit(gen, 2), gen.standard_normal(2)
        m = mp.lambda_map(t, k).mat
        kx = oc.quat_conj([*x, 0, 0]) if k else np.array([*x, 0, 0])
        assert np.allclose(m[:2, :2] @ x, oc.quat_mul([*t, 0, 0], kx)[:2], rtol=0.0, atol=1e-14)
        assert np.array_equal(m[2:, 2:], np.eye(6))
        assert not m[:2, 2:].any() and not m[2:, :2].any()


def test_tau_composition_matches_semidirect_rule(gen):
    # tau_a tau_b = tau_{ba}: composition reverses the quaternion product
    a, b = unit(gen, 4), unit(gen, 4)
    lhs = mp.tau_map(a).mat @ mp.tau_map(b).mat
    assert np.allclose(lhs, mp.tau_map(oc.quat_mul(b, a)).mat, atol=1e-12)


def test_kappa_maps(gen):
    assert np.allclose(mp.kappa_hat_map([1, 0, 0, 0]).mat, np.eye(8))
    # conjugation by u negates v (quaternion arithmetic oracle)
    ku = mp.kappa4([0, 1, 0, 0])[1:, 1:]
    assert np.allclose(ku @ np.array([0.0, 1, 0]), np.array([0.0, -1, 0]))
    for _ in range(20):
        q, p = unit(gen, 4), unit(gen, 4)
        prod = mp.kappa_hat_map(oc.quat_mul(q, p)).mat
        assert np.allclose(mp.kappa_hat_map(q).mat @ mp.kappa_hat_map(p).mat, prod, atol=1e-12)


def test_T_map_properties(gen):
    assert np.allclose(mp.T_map([1, 0, 0, 0], [1, 0, 0, 0], 0).mat, np.eye(8))
    assert np.allclose(mp.T_map([-1, 0, 0, 0], [-1, 0, 0, 0], 0).mat, np.eye(8))
    a, b = unit(gen, 4), unit(gen, 4)
    assert np.allclose(mp.T_map(a, b, 1).mat, mp.T_map(-a, -b, 1).mat)
    # (u, conj(u), 0) restricted to H is conjugation by u
    m = mp.T_map([0, 1, 0, 0], [0, -1, 0, 0], 0).mat
    assert np.allclose(m[:4, :4], mp.kappa4([0, 1, 0, 0]))
    with pytest.raises(NotUnitQuaternion):
        mp.T_map([0.5, 0, 0, 0], [1, 0, 0, 0], 0)


def test_sigma_maps():
    su = mp.sigma_u()
    assert np.allclose(su.mat @ oc.U.coords, -oc.U.coords)
    assert np.allclose(su.mat @ oc.ONE.coords, oc.ONE.coords)
    sw = mp.sigma_w_special()
    assert np.allclose(sw.mat @ sw.mat, np.eye(8))
    assert np.allclose(sw.mat, np.diag([1.0, 1, -1, 1, -1, 1, -1, 1]))
    # sigma_u composed with the three reflections equals the u-flip automorphism
    assert np.array_equal(mp.sigma_u().mat @ mp.sigma_uw().mat, mp.eps_hat(1).mat)
    with pytest.raises(NotOrthonormal):
        mp.sigma_map([oc.U, oc.U])


def test_B_C_maps(gen):
    assert np.allclose(mp.B_map(oc.ONE).mat, np.eye(8))
    for _ in range(20):
        a = oc.Octonion(unit(gen, 8))
        assert np.allclose(mp.C_map(a).mat @ oc.ONE.coords, oc.ONE.coords, atol=1e-12)
        assert np.allclose(mp.B_map(a).mat, mp.B_map(oc.Octonion(-a.coords)).mat)
        assert is_orthogonal(mp.B_map(a).mat)


def test_G_map_properties(gen):
    assert np.allclose(mp.F_map(0, 0, 0).mat, np.eye(8))
    theta, gamma = gen.uniform(0, np.pi, 2)
    k1 = int(gen.integers(0, 2))
    g = mp.G_map(theta, gamma, k1, 0)
    # eigenvalue 1 on the orthogonal complement of C when the twist is off
    for k in range(2, 8):
        e = np.zeros(8)
        e[k] = 1.0
        assert np.allclose(g.mat @ e, e, atol=1e-12)
    lam = mp.lambda_map([np.cos(2 * theta), np.sin(2 * theta)], k1)
    assert np.allclose(mp.G_map(theta, 0, k1, 0).mat, lam.mat, atol=1e-12)
    assert np.allclose(mp.G_map(theta + np.pi, gamma, k1, 1).mat,
                       mp.G_map(theta, gamma, k1, 1).mat, atol=1e-12)


def test_F_map_block_form(gen):
    # the closed form against its reflection chain C_c sigma_u^k1 sigma_uw^k2
    for k1, k2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for theta in gen.uniform(-4, 4, 5):
            chain = _chain(mp.C_map(oc.complex_unit(theta)), k1, k2)
            assert np.max(np.abs(mp.F_map(theta, k1, k2).mat - chain)) < 1e-12


def test_G_map_matches_its_reflection_chain(gen):
    # B_c sigma_u^k1 (sigma_uv sigma_uz sigma_w(gamma))^k2, gamma live when k2 = 1
    for k1, k2 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for theta, gamma in gen.uniform(-4, 4, (5, 2)):
            w = oc.Octonion(np.r_[0, 0, 0, 0, 0, 0, np.sin(gamma), -np.cos(gamma)])
            chain = _chain(mp.B_map(oc.complex_unit(theta)), k1, k2, w)
            assert np.max(np.abs(mp.G_map(theta, gamma, k1, k2).mat - chain)) < 1e-12


def test_eps_hat_and_triples(gen):
    assert np.allclose(mp.g2_from_triples(oc.CayleyTriple.fixed(),
                                          oc.CayleyTriple.fixed()).mat, np.eye(8))
    flip = mp.g2_from_triples(oc.CayleyTriple.fixed(),
                              oc.CayleyTriple(oc.Octonion(-oc.U.coords), oc.V, oc.Z))
    assert np.array_equal(flip.mat, mp.eps_hat(1).mat)
    for _ in range(20):
        q = unit(gen, 4)
        k4 = mp.kappa4(q)
        t2 = oc.CayleyTriple(oc.Octonion(np.r_[k4 @ oc.U.coords[:4], np.zeros(4)]),
                             oc.Octonion(np.r_[k4 @ oc.V.coords[:4], np.zeros(4)]), oc.Z)
        got = mp.g2_from_triples(oc.CayleyTriple.fixed(), t2)
        assert np.max(np.abs(got.mat - mp.kappa_hat_map(q).mat)) < 1e-10
    with pytest.raises(NotCayleyTriple):
        mp.g2_from_triples((oc.U, oc.V, oc.UV), oc.CayleyTriple.fixed())


def test_is_automorphism(gen):
    assert mp.is_automorphism(mp.identity_map())
    assert not mp.is_automorphism(mp.conj_map())
    assert mp.is_automorphism(mp.tau_map(unit(gen, 4)))
    assert mp.is_automorphism(mp.kappa_hat_map(unit(gen, 4)))
    assert mp.is_automorphism(mp.eps_hat(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_orthomap_rejects_non_finite_matrix(bad):
    for m in (np.full((8, 8), bad), np.ones((3, 4)), np.ones(8)):
        with pytest.raises(NotOrthogonal):
            mp.OrthoMap8(m)


def test_is_automorphism_rejects_degenerate_input():
    for m in (np.zeros((8, 8)), np.full((8, 8), np.nan), np.eye(4)):
        assert mp.is_automorphism(m) is False


NAN4, NAN8, ONE4 = np.full(4, np.nan), np.full(8, np.nan), np.array([1.0, 0, 0, 0])
OUTSIDE_H = np.r_[0.0, 1.0, 0, 0, np.nan, 0, 0, 0]  # unit in H, NaN outside


@pytest.mark.parametrize("call, error", [
    (lambda: oc.as_unit(NAN4, 4), NotUnitQuaternion),
    (lambda: oc.as_unit(OUTSIDE_H, 4), NotUnitQuaternion),
    (lambda: oc.as_unit(np.full(2, np.nan), 2), NotUnitComplex),
    (lambda: oc.as_unit(OUTSIDE_H, 2), NotUnitComplex),
    (lambda: al.in_TxT_ij(0, 0, NAN4, ONE4), NotUnitQuaternion),
    (lambda: al.in_S(NAN4, ONE4, ONE4, ONE4), NotUnitQuaternion),
    (lambda: al.t_block(0, 0, NAN4, ONE4, ONE4, ONE4), NotUnitQuaternion),
    (lambda: mp.kappa_hat_map(NAN4), NotUnitQuaternion),
    (lambda: mp.B_map(NAN8), NotUnitNorm),
    (lambda: mp.C_map(NAN4), NotUnitNorm),
    (lambda: mp.left_right_mul_map(NAN8, oc.ONE, np.eye(8)), NotUnitNorm),
    (lambda: mp.left_right_mul_map(oc.ONE, NAN8, np.eye(8)), NotUnitNorm),
    (lambda: mp.bimul_map(NAN8, np.eye(8)), NotUnitNorm),
    (lambda: mp.sigma_map([NAN8]), NotOrthonormal),
], ids=["quaternion", "quaternion-outside-H", "complex", "complex-outside-C",
        "in_TxT_ij", "in_S", "t_block",
        "kappa_hat_map", "B_map", "C_map-quaternion", "left_right_mul_map-t",
        "left_right_mul_map-s", "bimul_map", "sigma_map"])
def test_non_finite_input_fails_unit_checks(call, error):
    with pytest.raises(error):
        call()


def test_delta_semidirect_homomorphism(gen):
    def delta(p, q):
        return mp.tau_map(oc.quat_conj(p)).mat @ mp.kappa_hat_map(q).mat

    worst = 0.0
    for _ in range(200):
        p, q, p2, q2 = (unit(gen, 4) for _ in range(4))
        lhs = delta(p, q) @ delta(p2, q2)
        rhs = delta(oc.quat_mul(p, mp.kappa4(q) @ p2), oc.quat_mul(q, q2))
        worst = max(worst, np.max(np.abs(lhs - rhs)))
    assert worst < 1e-10


def test_tau_and_T_conjugation_rules(gen):
    def delta(p, q):
        return mp.tau_map(oc.quat_conj(p)).mat @ mp.kappa_hat_map(q).mat

    for _ in range(100):
        p, q, w = unit(gen, 4), unit(gen, 4), unit(gen, 4)
        d = delta(p, q)
        pq = oc.quat_mul(p, q)
        assert np.max(np.abs(d @ mp.tau_map(w).mat @ d.T
                             - mp.tau_map(kappa_q(pq, w)).mat)) < 1e-10
    for _ in range(100):
        p, q, a, b = (unit(gen, 4) for _ in range(4))
        d = delta(p, q)
        for k in (0, 1):
            lhs = d @ mp.T_map(a, b, k).mat @ d.T
            rhs = mp.T_map(kappa_q(q, a), kappa_q(q, b), k).mat
            assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_eps_conjugates_lambda_to_conjugate_parameter(gen):
    t = unit(gen, 2)
    e = mp.eps_hat(1).mat
    for k in (0, 1):
        lhs = e @ mp.lambda_map(t, k).mat @ e.T
        rhs = mp.lambda_map(np.array([t[0], -t[1]]), k).mat
        assert np.allclose(lhs, rhs, atol=1e-12)


ERRORS = {2: NotUnitComplex, 4: NotUnitQuaternion, 8: NotUnitNorm}


@pytest.mark.parametrize("n, x", [
    (2, [1.0, 0, 0.5, 0]),                  # nonzero tail outside C
    (2, [1.0, 0, 0, 0, 0, 0, 0, 0.5]),
    (4, [1.0, 0, 0, 0, 0.5, 0, 0, 0]),      # nonzero tail outside H
    (2, [1.0, 0, 0]),                       # wrong lengths
    (4, [1.0, 0]),
    (4, [1.0, 0, 0, 0, 0]),
    (8, [1.0, 0]),
    (8, [1.0, 0, 0, 0, 0]),
    (8, np.eye(8)),
])
def test_as_unit_rejects_tails_and_wrong_shapes(n, x):
    with pytest.raises(ERRORS[n]):
        oc.as_unit(np.asarray(x, dtype=float), n)


@pytest.mark.parametrize("n, x, want", [
    (2, [0.6, 0.8, 0, 0], [0.6, 0.8]),
    (2, oc.U, [0.0, 1.0]),
    (4, [0.0, 0.6, 0.8, 0, 0, 0, 0, 0], [0.0, 0.6, 0.8, 0]),
    (8, [0.0, 0.6, 0.8, 0], [0.0, 0.6, 0.8, 0, 0, 0, 0, 0]),  # a quaternion pads
    (8, oc.Z, oc.Z.coords),
])
def test_as_unit_cuts_vanishing_tails_and_pads_quaternions(n, x, want):
    got = oc.as_unit(x, n)
    assert got.shape == (n,)
    assert np.array_equal(got, want)


def test_as_unit_norm_margin_is_on_the_square():
    for n in (2, 4, 8):
        x = np.zeros(n)
        x[0] = np.sqrt(1.0 + 0.9e-9)
        assert oc.as_unit(x, n)[0] == x[0]
        x[0] = np.sqrt(1.0 + 1.1e-9)
        with pytest.raises(ERRORS[n]):
            oc.as_unit(x, n)


Q = np.array([0.6, 0.8, 0.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda: mp.T_map(Q, Q, 0.5),
    lambda: mp.lambda_map([0.6, 0.8], 2),
    lambda: mp.G_map(0.3, 0.2, 1.9, 0),
    lambda: mp.F_map(0.3, -1, 0),
    lambda: mp.eps_hat(-1),
    lambda: mp.F_map(0.3, 0, 2),
], ids=["T_map", "lambda_map", "G_map", "F_map", "eps_hat", "F_map-k2"])
def test_map_sign_indices_are_0_or_1(call):
    with pytest.raises(BadIndices):
        call()


def test_cayley_triples_of_coordinate_arrays(gen):
    e1, e2, e4 = (np.eye(8)[k] for k in (1, 2, 4))
    swap = mp.g2_from_triples((e1, e2, e4), (e2, e1, e4))
    assert np.array_equal(swap.mat, mp.g2_from_triples((oc.U, oc.V, oc.Z), (oc.V, oc.U, oc.Z)).mat)
    for _ in range(5):
        k = mp.kappa_hat_map(unit(gen, 4)).mat
        images = [k @ x for x in (e1, e2, e4)]
        by_array = mp.g2_from_triples((e1, e2, e4), images)
        by_octonion = mp.g2_from_triples(oc.CayleyTriple.fixed(), [oc.Octonion(x) for x in images])
        assert np.array_equal(by_array.mat, by_octonion.mat)
    with pytest.raises(NotCayleyTriple):
        mp.g2_from_triples((np.full(8, np.nan), e2, e4), oc.CayleyTriple.fixed())
    assert not oc.is_cayley_triple(e1[:4], e2[:4], e4[:4])
