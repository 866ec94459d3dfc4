"""The parameter-level canonical core against the tensor-building path.

canonical() on a constructed algebra and enumerate_block() both run
classify._canonical_params on family parameters.  These tests pin the core
to the constructor path family by family, and pin enumerate_block to the
loop it replaced, which built a tensor at every grid point and canonicalized
it (kept below as the reference).  The last tests check the mirror symmetry
that lets enumerate_block visit only half of the T-kind grid, and the table
of parameter spaces that the core, the JSON form and the sweep read."""

from itertools import product

import numpy as np
import pytest

from compalg import algebra as al
from compalg import classify as cl
from compalg import d1133 as d33
from compalg import maps as mp
from compalg import normal_form as nf
from compalg import octonion as oc

from conftest import unit


def flat_params(params):
    if params is None:
        return np.zeros(0)
    if isinstance(params, nf.PairTT):
        return np.concatenate([params.a, params.b])
    if isinstance(params, tuple):
        return np.concatenate([flat_params(p) for p in params])
    return np.atleast_1d(np.asarray(params, dtype=float))


def assert_same_form(got, want):
    assert str(got.block) == str(want.block)
    assert np.array_equal(flat_params(got.params), flat_params(want.params))
    assert got.boundary_flag == want.boundary_flag
    assert np.array_equal(got.witness.mat, want.witness.mat)


def family_points(gen):
    """(family, constructor parameters) covering every family and sign."""
    signs = [{"i": i, "j": j} for i in (0, 1) for j in (0, 1)]
    points = [("okubo", {})]
    points += [(name, s) for name in ("standard_isotope", "quat4") for s in signs]
    points += [("p35", s) for s in signs[:3]]
    for s in signs:
        points.append(("tau_family", {**s, "a": unit(gen, 4), "b": unit(gen, 4)}))
        points.append(("tau_family", {**s, "a": nf.ONE4, "b": -nf.ONE4}))
        points.append(("t_family", {**s, **{k: unit(gen, 4) for k in ("a1", "b1", "a2", "b2")}}))
        points.append(("lambda_family", {**s, "a": unit(gen, 2), "b": unit(gen, 2)}))
    for i1, j1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for i2, j2 in ((0, 1), (1, 0), (1, 1)):
            alpha, beta = gen.uniform(-4.0, 4.0, 2)
            points.append(("g_family", {"i1": i1, "j1": j1, "i2": i2, "j2": j2,
                                        "alpha": alpha, "beta": beta}))
    return points


def test_core_matches_canonical_of_the_constructor(gen):
    for name, params in family_points(gen):
        algebra = al.from_family(name, params)
        assert_same_form(cl._canonical_params(name, params), cl.canonical(algebra))
    assert cl._canonical_params("quat4", {"i": 0, "j": 1}).witness.mat.shape == (4, 4)


# ---------------------------------------------------------------------------
# The tensor-building enumeration loop, kept as the reference
# ---------------------------------------------------------------------------

def t_point(kind, i, j, s1, t1, s2):
    """The four bracket parameters of a T-kind grid point at angles (s1, t1, s2)."""
    a1 = cl._cx(s1)
    if kind == "D116":
        return (a1, (-1.0) ** j * a1, cl._cx(s2), (-1.0) ** i * cl._cx(s2))
    if kind == "D1124":
        return (a1, cl._cx(t1), cl._cx(s2), (-1.0) ** i * cl._cx(s2))
    return (a1, (-1.0) ** j * a1, cl._cx(t1), np.array([np.cos(s2), 0.0, np.sin(s2), 0.0]))


def t_grid(kind, i, j, grid):
    """{(k1, k2, k3): parameters} over the whole grid, angles by index; D116
    has b1 aligned with a1, so k2 = k1 there."""
    angles = cl._grid_open(grid)
    return {(k1, k2, k3): t_point(kind, i, j, angles[k1], angles[k2], angles[k3])
            for k1, k2, k3 in product(range(grid), repeat=3) if kind != "D116" or k2 == k1}


SIGN_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: block -> (constructor of (i, j), double signs) of the blocks without moduli
PARAMETER_FREE = {
    "D17": (al.standard_isotope, SIGN_PAIRS),
    "D8": (lambda i, j: al.okubo_p11(), ((1, 1),)),
    "D35": (al.p35, SIGN_PAIRS[:3]),
    "D4": (al.quat4, SIGN_PAIRS),
}


def reference_enumerate(kind, grid, tol=cl.DEFAULT_TOL):
    if kind in PARAMETER_FREE:
        build, signs = PARAMETER_FREE[kind]
        for i, j in signs:
            yield cl.canonical(build(i, j), tol)
        return
    if kind == "D134s":
        for i, j in SIGN_PAIRS:
            for sa, sb in [(1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]:
                yield cl.canonical(al.j_family(i, j, sa * nf.ONE4, sb * nf.ONE4), tol)
        return
    if kind == "D134a":
        for i, j in SIGN_PAIRS:
            for alpha in cl._grid_open(grid):
                a = cl._cx(alpha)
                for alpha2 in cl._grid_open(grid):
                    for beta in np.linspace(0.0, np.pi, grid):
                        b = np.array([np.cos(alpha2), np.sin(alpha2) * np.cos(beta),
                                      np.sin(alpha2) * np.sin(beta), 0.0])
                        if al.tau_block(i, j, a, b, tol) == "D134a":
                            yield cl.canonical(al.j_family(i, j, a, b), tol)
        return
    if kind in ("D116", "D1124", "D11114"):
        for i, j in SIGN_PAIRS:
            seen = []
            for qs in t_grid(kind, i, j, grid).values():
                if al.t_block(i, j, *qs, tol) != kind:
                    continue
                form = cl.canonical(al.k_family(i, j, *qs), tol)
                if any(cl._params_close(kind, form.params, other, 1e-6) for other in seen):
                    continue
                seen.append(form.params)
                yield form
        return
    for i1, j1 in SIGN_PAIRS:
        for i2, j2 in SIGN_PAIRS:
            if i2 != 1 and j2 != 1:
                continue
            for alpha in cl._grid_open(grid, 0.0, np.pi / 2):
                for beta in cl._grid_open(grid):
                    gp = d33.GParams(i1, j1, i2, j2, alpha, beta)
                    if not d33.in_d1133(gp, tol):
                        continue
                    cp, _ = d33.canonical_1133(gp, tol)
                    if (cp.alpha, cp.beta) == (gp.alpha, gp.beta):
                        yield cl.canonical(al.g_family(i1, j1, i2, j2, alpha, beta), tol)


@pytest.mark.parametrize("kind", cl.BLOCK_KINDS)
def test_enumerate_matches_the_tensor_building_loop(kind):
    got = list(cl.enumerate_block(kind, grid=2))
    want = list(reference_enumerate(kind, grid=2))
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert_same_form(g, w)


def test_enumerate_builds_no_tensor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_block built a map or a tensor")

    monkeypatch.setattr(al, "from_isotope", refuse)
    for name in ("tau_map", "T_map", "G_map", "g2_from_triples"):
        monkeypatch.setattr(mp, name, refuse)
    counts = {kind: len(list(cl.enumerate_block(kind, grid=2))) for kind in cl.BLOCK_KINDS}
    assert all(counts.values())


# ---------------------------------------------------------------------------
# The fundamental domain of the T-kind grid
# ---------------------------------------------------------------------------

#: enumerate_block counts of (D116, D1124, D11114) per grid, as the whole grid gave them
T_KIND_COUNTS = {1: (4, 2, 4), 2: (8, 12, 16), 3: (20, 46, 56), 4: (32, 112, 128),
                 5: (52, 226, 252), 6: (72, 396, 432), 7: (100, 638, 688)}


def mirror(qs):
    """kappa_hat by uv on all four parameters, then the sign flip of each bracket."""
    uv = np.array([0.0, 0.0, 0.0, 1.0])
    return tuple(-oc.quat_kappa(uv, q) for q in qs)


def t_form(i, j, qs):
    return cl._canonical_params("t_family", {"i": i, "j": j, **dict(zip(("a1", "b1", "a2", "b2"), qs))})


@pytest.mark.parametrize("kind", ("D116", "D1124", "D11114"))
def test_t_grid_mirror_lands_on_an_isomorphic_unmirrored_point(kind):
    for grid in range(1, 6):
        angles = cl._grid_open(grid)
        for i, j in SIGN_PAIRS:
            points = t_grid(kind, i, j, grid)
            for (k1, k2, k3), qs in points.items():
                if np.cos(angles[k1]) >= 0.0:
                    continue
                image = points[(grid - 1 - k1, grid - 1 - k2, grid - 1 - k3)]
                assert np.cos(angles[grid - 1 - k1]) > 0.0
                assert np.allclose(mirror(qs), image, rtol=0.0, atol=1e-15)
                form, image_form = t_form(i, j, qs), t_form(i, j, image)
                assert str(form.block) == str(image_form.block)
                assert cl._params_close(kind, form.params, image_form.params)


@pytest.mark.parametrize("grid", sorted(T_KIND_COUNTS))
def test_t_kind_counts_on_the_fundamental_domain(grid):
    counts = tuple(len(list(cl.enumerate_block(kind, grid))) for kind in ("D116", "D1124", "D11114"))
    assert counts == T_KIND_COUNTS[grid]


@pytest.mark.parametrize("kind", ("D116", "D1124", "D11114"))
def test_grid_points_visit_the_unmirrored_half(kind):
    for grid in (2, 3, 4):
        angles = cl._grid_open(grid)
        s1s = {float(point["a1"][0]) for _, point in cl._SPACES[kind].grid(kind, grid)}
        assert s1s == {np.cos(s) for s in angles[:(grid + 1) // 2]}


# ---------------------------------------------------------------------------
# The table of parameter spaces
# ---------------------------------------------------------------------------

KINDS = ("D17", "D8", "D35", "D4", "D134s", "D134a", "D116", "D1124", "D11114", "D1133")


def test_each_family_and_each_kind_has_one_record():
    records = {id(space): space for space in cl._SPACES.values()}.values()
    for name in al._BUILDERS:
        assert sum(name in space.families for space in records) == 1, name
    assert tuple(cl._SPACES) == cl.BLOCK_KINDS == KINDS
    assert all(isinstance(cl._SPACES[kind], cl._Space) for kind in KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_canonical_representative_canonicalizes_to_its_form(kind):
    for form in cl.enumerate_block(kind, grid=1):
        again = cl.canonical(cl.canonical_algebra(form))
        assert str(again.block) == str(form.block)
        assert np.array_equal(flat_params(again.params), flat_params(form.params))


def test_parameter_free_json_ignores_the_family_that_reached_it():
    for i, j in SIGN_PAIRS:
        tau = cl.canonical(al.j_family(i, j, nf.ONE4, nf.ONE4)).to_json()
        assert tau == cl.canonical(al.standard_isotope(i, j)).to_json()
    w = al.OKUBO_TWIST
    tau = cl.canonical(al.j_family(1, 1, w, oc.quat_mul(w, w))).to_json()
    assert tau == cl.canonical(al.okubo_p11()).to_json()


def test_d1124_grid_points_all_reduce_to_d1124():
    for grid in range(1, 7):
        for family, point in cl._SPACES["D1124"].grid("D1124", grid):
            assert cl._canonical_params(family, point).block.kind == "D1124"


def test_d1133_grid_points_are_their_own_canonical_angles():
    for grid in range(1, 9):
        for _, point in cl._SPACES["D1133"].grid("D1133", grid):
            params = d33.GParams(**point)
            canon, eps = d33.canonical_1133(params)
            assert d33.in_d1133(params)
            assert (canon.alpha, canon.beta, eps) == (point["alpha"], point["beta"], 0)
