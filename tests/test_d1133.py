import numpy as np
import pytest

from compalg import algebra as al
from compalg import classify as cl
from compalg import d1133 as d33
from compalg import maps as mp
from compalg import octonion as oc
from compalg import triality as tr
from compalg.errors import BadIndices, NotInBlock
from compalg.numerics import DEFAULT_TOL

from conftest import g_iso

PI = np.pi


def random_indices(gen):
    i1, j1 = int(gen.integers(0, 2)), int(gen.integers(0, 2))
    if gen.integers(0, 2):
        return i1, j1, 1, int(gen.integers(0, 2))
    return i1, j1, int(gen.integers(0, 2)), 1


def random_params(gen):
    return d33.GParams(*random_indices(gen), gen.uniform(0, PI), gen.uniform(0, PI))


def test_index_constraint():
    with pytest.raises(BadIndices):
        d33.GParams(0, 0, 0, 0, 0.1, 0.2)
    with pytest.raises(BadIndices):
        d33.FParams(1, 1, 0, 0, 0.1, 0.2)
    with pytest.raises(BadIndices):
        d33.in_d1133_angles((1, 0, 0, 0), np.zeros(3), 0.2)


def test_fractional_indices_rejected():
    # g_family(0.9, 0, 1.2, 0, ...) is not the point (0, 0, 1, 0)
    with pytest.raises(BadIndices):
        d33.GParams(0.9, 0, 1.2, 0, 0.1, 0.2)
    with pytest.raises(BadIndices):
        d33.FParams(1, 1, 1, 0.5, 0.1, 0.2)
    with pytest.raises(BadIndices):
        d33.in_d1133_angles((1, 1, 1, 0.5), np.zeros(3), 0.2)
    # indices equal to 0 or 1 are kept, as ints
    p = d33.GParams(1.0, np.int64(0), True, np.array(1), 0.1, 0.2)
    assert p.indices == (1, 0, 1, 1) and all(type(k) is int for k in p.indices)
    assert d33.GParams(1.0, 0, 1, 0.0, 0.1, 0.2).indices == (1, 0, 1, 0)


def test_angles_fold():
    p = d33.GParams(0, 0, 0, 1, -0.5, PI + 0.25)
    assert 0 <= p.alpha < PI and 0 <= p.beta < PI


def witness_at(theta, zeta, gamma):
    """L_t R_s rho(gamma), t and s the complex units at theta and zeta."""
    return mp.left_right_mul_map(oc.complex_unit(theta), oc.complex_unit(zeta), mp.rho_map(gamma)).mat


def test_g_to_f_zero_case():
    p = d33.GParams(0, 0, 0, 1, 0.0, 0.0)
    f, phi = d33.g_to_f(p, 0.0)
    assert np.array_equal(phi.mat, witness_at(0.0, 0.0, 0.0))
    assert f.xi == 0.0 and f.eta == 0.0


def test_g_to_f_first_row():
    # for first indices (0,0): (3 theta / 2, 3 zeta / 2) = (a + 2b, 2a + b)
    p = d33.GParams(0, 0, 0, 1, 0.4, 0.9)
    f, phi = d33.g_to_f(p, 0.0)
    theta, zeta = (0.4 + 1.8) / 1.5, (0.8 + 0.9) / 1.5
    assert np.max(np.abs(phi.mat - witness_at(theta, zeta, 0.0))) < 1e-12
    # second indices (0,1) at gamma = 0: (xi, eta) = (theta / 2, zeta / 2 - theta),
    # which pins theta and zeta themselves, not only the map they give
    assert abs(f.xi - theta / 2) < 1e-12 and abs(f.eta - (zeta / 2 - theta)) < 1e-12


def test_rho_map_is_the_triple_map(gen):
    # rho(gamma) carries (u, v, z) to (u, c v, c z), c = cos(gamma/3) - u sin(gamma/3)
    for gamma in gen.uniform(-4, 4, 20):
        c = oc.Octonion(np.r_[np.cos(gamma / 3), -np.sin(gamma / 3), np.zeros(6)])
        triple_map = mp.g2_from_triples((oc.U, oc.V, oc.Z), (oc.U, c * oc.V, c * oc.Z))
        assert np.max(np.abs(mp.rho_map(gamma).mat - triple_map.mat)) < 1e-12


def test_g_to_f_witness_transports_pairs(gen):
    for _ in range(10):
        p = random_params(gen)
        gamma = gen.uniform(0, PI)
        f, phi = d33.g_to_f(p, gamma)
        pair = tr.triality_pair(phi)
        fmat = mp.G_map(p.alpha, gamma, p.j1, p.j2).mat
        gmat = mp.G_map(p.beta, gamma, p.i1, p.i2).mat
        lhs_f = pair.phi1 @ fmat @ phi.mat.T
        lhs_g = pair.phi2 @ gmat @ phi.mat.T
        target_f = mp.F_map(f.xi, f.j1, f.j2).mat
        target_g = mp.F_map(f.eta, f.i1, f.i2).mat
        err = min(max(np.max(np.abs(lhs_f - target_f)), np.max(np.abs(lhs_g - target_g))),
                  max(np.max(np.abs(lhs_f + target_f)), np.max(np.abs(lhs_g + target_g))))
        assert err < 1e-8


def test_g_to_f_witness_via_iso_isotopes(gen):
    for _ in range(10):
        p = random_params(gen)
        gamma = gen.uniform(0, PI)
        f, phi = d33.g_to_f(p, gamma)
        a = al.from_isotope(mp.G_map(p.alpha, gamma, p.j1, p.j2),
                            mp.G_map(p.beta, gamma, p.i1, p.i2))
        b = al.from_isotope(mp.F_map(f.xi, f.j1, f.j2), mp.F_map(f.eta, f.i1, f.i2))
        assert tr.iso_isotopes(a, b, phi)


def test_f_to_g_roundtrip(gen):
    for _ in range(40):
        p = random_params(gen)
        f, _ = d33.g_to_f(p, 0.0)
        back = d33.f_to_g(f)
        da = min((p.alpha - back.alpha) % PI, (back.alpha - p.alpha) % PI)
        db = min((p.beta - back.beta) % PI, (back.beta - p.beta) % PI)
        assert da < 1e-10 and db < 1e-10


def test_f_to_g_all_zero_case():
    p = d33.FParams(1, 1, 1, 1, 0.0, 0.0)
    g = d33.f_to_g(p)
    assert g.alpha == 0.0 and g.beta == 0.0


def test_roundtrip_canonical_consistency(gen):
    for _ in range(20):
        p = random_params(gen)
        back = d33.f_to_g(d33.g_to_f(p, 0.0)[0])
        assert g_iso(p, back)


def test_in_d1133_exclusion():
    # indices (0,0,0,1): excluded at (pi/2, 0)
    assert not d33.in_d1133(d33.GParams(0, 0, 0, 1, PI / 2, 0.0))
    assert d33.in_d1133(d33.GParams(0, 0, 0, 1, 0.0, 0.0))


def test_exclusion_unique_per_index_tuple():
    """On the 100 x 100 grid the array test keeps every point but the excluded
    one, and agrees with the per-point test and a plain-float reference everywhere."""
    grid = np.arange(100) * PI / 100

    def near(x, x0):
        return min((x - x0) % PI, (x0 - x) % PI) <= DEFAULT_TOL.value

    for i1, j1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for i2, j2 in ((0, 1), (1, 0), (1, 1)):
            kept = d33.in_d1133_angles((i1, j1, i2, j2), grid[:, None], grid)
            assert kept.shape == (100, 100) and kept.dtype == bool
            a0, b0 = d33.excluded_point(i1, j1, i2, j2)
            assert np.argwhere(~kept).tolist() == [[round(a0 / (PI / 100)), round(b0 / (PI / 100))]]
            assert kept.tolist() == [[d33.in_d1133(d33.GParams(i1, j1, i2, j2, a, b)) for b in grid]
                                     for a in grid]
            assert kept.tolist() == [[not (near(a, a0) and near(b, b0)) for b in grid] for a in grid]


@pytest.mark.parametrize("where", [(0, 0), (17, 3), (99, 99)])
def test_exclusion_rejects_nan_angles(where):
    alpha = np.linspace(0.0, 3.0, 100)[:, None] + np.zeros(100)
    alpha[where] = np.nan
    with pytest.raises(ValueError):
        d33.in_d1133_angles((0, 1, 1, 1), alpha, 0.4)
    with pytest.raises(ValueError):
        d33.in_d1133_angles((0, 1, 1, 1), 0.4, alpha.T)


def test_excluded_algebra_leaves_block():
    from compalg.derivations import decompose

    a0, b0 = d33.excluded_point(0, 0, 0, 1)
    alg = al.g_family(0, 0, 0, 1, a0, b0)
    assert decompose(alg).partition != (1, 1, 3, 3)


def test_canonical_region(gen):
    c, eps = d33.canonical_1133(d33.GParams(0, 0, 0, 1, 0.3, 2.0))
    assert (c.alpha, c.beta) == (0.3, 2.0) and eps == 0
    c, eps = d33.canonical_1133(d33.GParams(0, 0, 0, 1, 2.0, 1.0))
    assert abs(c.alpha - (PI - 2.0)) < 1e-12 and abs(c.beta - (PI - 1.0)) < 1e-12
    assert eps == 1
    with pytest.raises(NotInBlock):
        d33.canonical_1133(d33.GParams(0, 0, 0, 1, PI / 2, 0.0))
    # on the fixed line alpha = 0 both beta and pi - beta lie in the region:
    # the smaller candidate is kept
    for beta in (0.3, PI - 0.3):
        c, _ = d33.canonical_1133(d33.GParams(0, 0, 0, 1, 0.0, beta))
        assert c.alpha == 0.0 and abs(c.beta - 0.3) < 1e-12
    pair = (al.g_family(0, 0, 0, 1, 0.0, 0.3), al.g_family(0, 0, 0, 1, 0.0, PI - 0.3))
    assert cl.isomorphic(*pair).verdict == "yes"


def test_canonical_orbit_constancy(gen):
    for _ in range(50):
        p = random_params(gen)
        flipped = d33.GParams(p.i1, p.j1, p.i2, p.j2, (-p.alpha) % PI, (-p.beta) % PI)
        c1, _ = d33.canonical_1133(p)
        c2, _ = d33.canonical_1133(flipped)
        assert abs(c1.alpha - c2.alpha) < 1e-10 and abs(c1.beta - c2.beta) < 1e-10


def test_eps_witness_between_flipped_algebras(gen):
    from compalg.classify import witness_residual

    p = random_params(gen)
    a = al.g_family(p.i1, p.j1, p.i2, p.j2, p.alpha, p.beta)
    b = al.g_family(p.i1, p.j1, p.i2, p.j2, (-p.alpha) % PI, (-p.beta) % PI)
    assert witness_residual(mp.eps_hat(1), a, b) < 1e-10


def test_iso_1133(gen):
    p = d33.GParams(0, 1, 1, 1, 0.3, 0.4)
    assert g_iso(p, d33.GParams(0, 1, 1, 1, PI - 0.3, PI - 0.4))
    assert not g_iso(p, d33.GParams(0, 1, 1, 1, 0.3, 0.5))
    assert not g_iso(p, d33.GParams(1, 0, 1, 1, 0.3, 0.4))


def test_iso_matches_lattice_oracle(gen):
    for _ in range(100):
        p = random_params(gen)
        if gen.integers(0, 2):
            q = d33.GParams(p.i1, p.j1, p.i2, p.j2,
                            (-p.alpha) % PI if gen.integers(0, 2) else p.alpha,
                            (-p.beta) % PI if gen.integers(0, 2) else p.beta)
        else:
            q = d33.GParams(p.i1, p.j1, p.i2, p.j2, gen.uniform(0, PI), gen.uniform(0, PI))
        assert g_iso(p, q) == d33.iso_1133_lattice_oracle(p, q)


def test_g_family_trivial_submodule_is_complex_line(gen):
    # the trivial submodule of every valid two-parameter algebra is span(1, u)
    from compalg.derivations import trivial_submodule

    for _ in range(10):
        p = random_params(gen)
        if not d33.in_d1133(p):
            continue
        alg = al.g_family(p.i1, p.j1, p.i2, p.j2, p.alpha, p.beta)
        basis = trivial_submodule(alg)
        assert basis.shape[1] == 2
        assert np.max(np.abs(basis[2:, :])) < 1e-8


def test_non_isomorphic_algebras_have_distinct_tensors(gen):
    p = d33.GParams(1, 0, 0, 1, 0.3, 0.4)
    q = d33.GParams(1, 0, 0, 1, 0.3, 0.5)
    a = al.g_family(p.i1, p.j1, p.i2, p.j2, p.alpha, p.beta)
    b = al.g_family(q.i1, q.j1, q.i2, q.j2, q.alpha, q.beta)
    assert np.max(np.abs(a.sc - b.sc)) > 1e-3
