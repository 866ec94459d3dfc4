import numpy as np
import pytest

from compalg import algebra as al
from compalg import maps as mp
from compalg import octonion as oc
from compalg import triality as tr
from compalg.errors import NotSpecialOrthogonal
from compalg.numerics import PAIR_TOL, is_orthogonal

from conftest import unit


def random_g2(gen):
    from compalg.verify import _random_cayley_triple

    return mp.g2_from_triples(oc.CayleyTriple.fixed(), _random_cayley_triple(gen))


def random_so8(gen):
    m = np.linalg.qr(gen.standard_normal((8, 8)))[0]
    if np.linalg.det(m) < 0:
        m[:, 0] *= -1
    return mp.OrthoMap8(m)


def is_triality_pair(phi, phi1, phi2):
    """The three maps are orthogonal and phi(e_i e_j) = phi1(e_i) phi2(e_j)
    over all 64 basis pairs within PAIR_TOL."""
    m, m1, m2 = mp.as_matrix(phi), mp.as_matrix(phi1), mp.as_matrix(phi2)
    return all(is_orthogonal(x) for x in (m, m1, m2)) and oc.homomorphism_residual(m, m1, m2) < PAIR_TOL


def test_is_triality_pair_basics(gen):
    ident = np.eye(8)
    assert is_triality_pair(ident, ident, ident)
    phi = mp.kappa_hat_map(unit(gen, 4))
    assert is_triality_pair(phi, phi, phi)
    # simultaneous sign flip stays a triality pair
    assert is_triality_pair(phi.mat, -phi.mat, -phi.mat)
    assert not is_triality_pair(ident, phi.mat, ident)


def test_triality_pair_of_automorphisms(gen):
    for _ in range(10):
        phi = random_g2(gen)
        pair = tr.triality_pair(phi)
        assert pair.residual < 1e-8
        assert min(np.max(np.abs(pair.phi1 - phi.mat)),
                   np.max(np.abs(pair.phi1 + phi.mat))) < 1e-8


def test_solver_recovers_automorphism_pairs(gen):
    for _ in range(10):
        phi = random_g2(gen)
        s, val = tr.solve_triality_components(phi.mat)
        assert val < 1e-16
        pair = tr.triality_pair(phi)
        assert np.array_equal(s, pair.phi2[:, 0])
        # both components equal phi, up to one simultaneous sign
        assert min(max(np.max(np.abs(pair.phi1 - sign * phi.mat)),
                       np.max(np.abs(pair.phi2 - sign * phi.mat))) for sign in (1, -1)) < 1e-8


def test_closed_form_left_right_isotopy(gen):
    for _ in range(10):
        rho = random_g2(gen)
        t8, s8 = unit(gen, 8), unit(gen, 8)
        phi = mp.left_right_mul_map(t8, s8, rho)
        pair = tr.triality_pair(phi)
        assert pair.residual < 1e-10
        t = oc.Octonion(t8)
        s = oc.Octonion(s8)
        expected1 = oc.left_mul_matrix(t) @ oc.right_mul_matrix(t) \
            @ oc.right_mul_matrix(s.conj()) @ rho.mat
        assert min(np.max(np.abs(pair.phi1 - expected1)),
                   np.max(np.abs(pair.phi1 + expected1))) < 1e-10


def test_closed_form_bimultiplication(gen):
    for _ in range(10):
        rho = random_g2(gen)
        c8 = unit(gen, 8)
        phi = mp.bimul_map(c8, rho)
        pair = tr.triality_pair(phi)
        c = oc.Octonion(c8)
        expected = (oc.left_mul_matrix(c) @ rho.mat, oc.right_mul_matrix(c) @ rho.mat)
        assert min(np.max(np.abs(pair.phi1 - expected[0])),
                   np.max(np.abs(pair.phi1 + expected[0]))) < 1e-10
        assert pair.residual < 1e-10


def test_reconstruction_identities(gen):
    for _ in range(10):
        phi = random_so8(gen)
        pair = tr.triality_pair(phi)
        m = phi.mat
        lhs1 = oc.right_mul_matrix(oc.Octonion(pair.phi2[:, 0]).conj()) @ m
        lhs2 = oc.left_mul_matrix(oc.Octonion(pair.phi1[:, 0]).conj()) @ m
        assert np.max(np.abs(lhs1 - pair.phi1)) < 1e-8
        assert np.max(np.abs(lhs2 - pair.phi2)) < 1e-8


def test_triality_pair_rejects_reflections():
    with pytest.raises(NotSpecialOrthogonal):
        tr.triality_pair(mp.conj_map())


def test_sign_normalization_deterministic(gen):
    phi = random_so8(gen)
    p1 = tr.triality_pair(phi)
    p2 = tr.triality_pair(phi)
    assert np.max(np.abs(p1.phi1 - p2.phi1)) < 1e-7
    assert np.max(np.abs(p1.phi2 - p2.phi2)) < 1e-7


def test_iso_isotopes(gen):
    a4, b4 = unit(gen, 4), unit(gen, 4)
    a = al.j_family(1, 1, a4, b4)
    assert tr.iso_isotopes(a, a, mp.identity_map())
    q = unit(gen, 4)
    phi = mp.kappa_hat_map(q)
    b = al.transport(phi, a)
    assert tr.iso_isotopes(a, b, phi)
    assert tr.iso_isotopes(b, a, mp.OrthoMap8(phi.mat.T, check=False))
    assert not tr.iso_isotopes(al.standard_isotope(0, 0), al.standard_isotope(1, 1),
                               mp.identity_map())
    # a raw tensor carries no pair; the residual decides all the same
    assert tr.iso_isotopes(al.Algebra(a.sc.copy()), a, mp.identity_map())


def _push(phi, a):
    """The raw tensor phi_* a, with product phi(phi^T x . phi^T y)."""
    return al.Algebra(np.einsum("ia,jb,kc,abc->ijk", phi, phi, phi, a.sc))


def test_iso_isotopes_raw_twins_and_rejections(gen):
    a = al.k_family(0, 1, *(unit(gen, 4) for _ in range(4)))
    phi = random_so8(gen).mat
    raw = al.Algebra(a.sc.copy())
    assert tr.iso_isotopes(raw, _push(phi, a), phi)
    tilt = np.eye(8)
    tilt[[2, 2, 5, 5], [2, 5, 2, 5]] = np.cos(0.2), -np.sin(0.2), np.sin(0.2), np.cos(0.2)
    assert not tr.iso_isotopes(raw, _push(phi, a), phi @ tilt)
    # a det -1 map carries a's product onto its own push, but is not in SO(8)
    flip = phi @ np.diag([-1.0] + [1.0] * 7)
    assert not tr.iso_isotopes(raw, _push(flip, a), flip)
    assert not tr.iso_isotopes(raw, raw, np.eye(4))
    assert not tr.iso_isotopes(raw, raw, np.full((8, 8), np.nan))


def test_iso_isotopes_via_general_solver(gen):
    # an unlabelled map: the components come from its matrix alone
    a4, b4 = unit(gen, 4), unit(gen, 4)
    a = al.j_family(0, 0, a4, b4)
    q = unit(gen, 4)
    phi = mp.OrthoMap8(mp.kappa_hat_map(q).mat.copy())
    b = al.transport(mp.kappa_hat_map(q), a)
    assert tr.iso_isotopes(a, b, phi)


def test_g2_iso_fixed_subspace(gen):
    # T-type pairs all fix the complement of H pointwise
    qs = [unit(gen, 4) for _ in range(4)]
    a = al.k_family(0, 1, *qs)
    q = unit(gen, 4)
    phi = mp.kappa_hat_map(q)
    b = al.transport(phi, a)
    assert tr.iso_isotopes(a, b, phi)
    assert not tr.iso_isotopes(a, b, mp.conj_map())
    # the u-flip on a k-point with its own transport, fixing the unit line
    c = al.transport(mp.eps_hat(1), a)
    assert tr.iso_isotopes(a, c, mp.eps_hat(1))


def test_g2_iso_fixing_unit_line(gen):
    # conjugate-paired parameters make the T-type maps fix 1, so the unit
    # line is a shared fixed subspace
    a1, a2 = unit(gen, 4), unit(gen, 4)
    a = al.k_family(1, 0, a1, oc.quat_conj(a1), a2, oc.quat_conj(a2))
    for mat in a.isotope:
        assert np.max(np.abs(mat[:, 0] - np.eye(8)[:, 0])) < 1e-12
    phi = mp.eps_hat(1)
    b = al.transport(phi, a)
    assert tr.iso_isotopes(a, b, phi)
    # a different conjugate-paired target is rejected
    a1p = unit(gen, 4)
    c = al.k_family(1, 0, a1p, oc.quat_conj(a1p), a2, oc.quat_conj(a2))
    assert not tr.iso_isotopes(a, c, phi)


def test_transport_by_non_automorphism_is_witnessed(gen):
    from compalg.classify import analyze, isomorphic, witness_residual

    a = al.j_family(0, 1, unit(gen, 4), unit(gen, 4))
    phi = random_so8(gen)
    assert not mp.is_automorphism(phi)
    b = al.transport(phi, a)
    assert b.isotope is None
    verdict = isomorphic(a, b)
    assert verdict.verdict == "yes"
    assert witness_residual(verdict.witness, a, b) < 1e-8
    assert tr.iso_isotopes(a, b, phi)
    assert analyze(b).to_json() == analyze(a).to_json()


def test_transport_of_raw_tensor_is_the_pushforward(gen):
    raw = al.Algebra(al.k_family(1, 0, *(unit(gen, 4) for _ in range(4))).sc.copy())
    for phi in (random_so8(gen), mp.kappa_hat_map(unit(gen, 4))):
        moved = al.transport(phi, raw)
        assert np.max(np.abs(moved.sc - _push(phi.mat, raw).sc)) < 1e-14
        assert moved.family is None and moved.isotope is None
        assert repr(moved) == "Algebra(dim=8, family=raw)"


def test_random_so8_pairs(gen):
    worst = 0.0
    for _ in range(10):
        phi = random_so8(gen)
        pair = tr.triality_pair(phi)
        worst = max(worst, pair.residual)
    assert worst < 1e-8


def test_iso_isotopes_reflexive_and_symmetric_on_families(gen):
    ident = mp.identity_map()
    for _ in range(50):
        which = int(gen.integers(0, 3))
        if which == 0:
            a = al.j_family(int(gen.integers(0, 2)), int(gen.integers(0, 2)),
                            unit(gen, 4), unit(gen, 4))
        elif which == 1:
            a = al.k_family(int(gen.integers(0, 2)), int(gen.integers(0, 2)),
                            *(unit(gen, 4) for _ in range(4)))
        else:
            i2, j2 = (1, int(gen.integers(0, 2))) if gen.integers(0, 2) \
                else (int(gen.integers(0, 2)), 1)
            a = al.g_family(int(gen.integers(0, 2)), int(gen.integers(0, 2)), i2, j2,
                            gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        assert tr.iso_isotopes(a, a, ident)
        phi = mp.kappa_hat_map(unit(gen, 4))
        b = al.transport(phi, a)
        assert tr.iso_isotopes(a, b, phi)
        assert tr.iso_isotopes(b, a, mp.OrthoMap8(phi.mat.T, check=False))


def test_non_orthogonal_maps_are_rejected(gen):
    a = al.j_family(1, 1, unit(gen, 4), unit(gen, 4))
    shear = np.eye(8)
    shear[0, 1] = 0.3
    for m in (shear, 2.0 * np.eye(8)):
        phi = mp.OrthoMap8(m, check=False)
        with pytest.raises(NotSpecialOrthogonal):
            tr.triality_pair(phi)
        assert not tr.iso_isotopes(a, a, phi)


def test_labelled_maps_match_unlabelled_copies(gen):
    maps = []
    for _ in range(5):
        rho = random_g2(gen)
        maps += [mp.bimul_map(unit(gen, 8), rho),
                 mp.left_right_mul_map(unit(gen, 8), unit(gen, 8), rho),
                 rho, mp.kappa_hat_map(unit(gen, 4)), mp.tau_map(unit(gen, 4))]
    for phi in maps:
        labelled = tr.triality_pair(phi)
        plain = tr.triality_pair(mp.OrthoMap8(phi.mat))
        assert np.max(np.abs(labelled.phi1 - plain.phi1)) < 1e-12
        assert np.max(np.abs(labelled.phi2 - plain.phi2)) < 1e-12


def test_pairs_of_basis_aligned_maps():
    # every Householder column already sits on a basis vector here
    maps = [np.eye(8), -np.eye(8), mp.eps_hat(1).mat,
            mp.kappa_hat_map(np.array([0.5, 0.5, 0.5, 0.5])).mat,
            oc.conj_matrix() @ mp.sigma_u().mat]
    for m in maps:
        pair = tr.triality_pair(m)
        assert pair.residual < 1e-12
        assert is_triality_pair(m, pair.phi1, pair.phi2)
