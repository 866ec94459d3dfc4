import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from compalg import algebra as al
from compalg import classify as cl
from compalg import d1133 as d33
from compalg import derivations as dv
from compalg import maps as mp
from compalg import normal_form as nf
from compalg import octonion as oc
from compalg import triality as tr
from compalg.errors import AbelianDerivations, NotInvariant
from compalg.numerics import DEFAULT_TOL, nullspace, rank
from compalg.numerics import CLUSTER_TOL

from conftest import unit
from test_triality import random_g2

U4 = np.array([0.0, 1, 0, 0])
V4 = np.array([0.0, 0, 1, 0])
ONE4 = np.array([1.0, 0, 0, 0])


def test_derivation_dimensions_table():
    assert dv.derivation_basis(al.octonion_algebra()).dim == 14
    assert dv.derivation_basis(al.okubo_p11()).dim == 8
    for i in (0, 1):
        for j in (0, 1):
            assert dv.derivation_basis(al.quat4(i, j)).dim == 3


def test_lie_types():
    assert dv.lie_type(dv.derivation_basis(al.octonion_algebra())) is dv.LieTypeLabel.G2
    assert dv.lie_type(dv.derivation_basis(al.okubo_p11())) is dv.LieTypeLabel.SU3
    assert dv.lie_type(dv.derivation_basis(al.quat4(1, 1))) is dv.LieTypeLabel.SU2
    # pairs on a common imaginary axis give the su2 + center type
    d = dv.derivation_basis(al.j_family(0, 0, U4, U4))
    assert d.dim == 4 and dv.lie_type(d) is dv.LieTypeLabel.SU2xA1
    d = dv.derivation_basis(al.j_family(0, 0, -ONE4, -ONE4))
    assert d.dim == 6 and dv.lie_type(d) is dv.LieTypeLabel.SU2xSU2
    # generic pairs have trivial centralizer: plain su2
    d = dv.derivation_basis(al.j_family(0, 0, U4, V4))
    assert d.dim == 3 and dv.lie_type(d) is dv.LieTypeLabel.SU2


def test_derivations_satisfy_leibniz_and_skewness(gen):
    a = al.j_family(1, 0, unit(gen, 4), unit(gen, 4))
    der = dv.derivation_basis(a)
    for delta in der.basis:
        assert dv.leibniz_residual(a, delta) < 1e-8
        assert np.max(np.abs(delta + delta.T)) < 1e-8
    # orthogonality of derivations to their argument on random vectors
    for _ in range(100):
        x = gen.standard_normal(8)
        for delta in der.basis[:3]:
            assert abs(x @ (delta @ x)) < 1e-8 * (x @ x)


def structure_constants(der):
    """c[a, b, e] = <[S_a, S_b], S_e> under the trace form, from the orthonormal basis."""
    s = der.basis
    prod = np.einsum("aij,bjk->abik", s, s)
    return np.einsum("abik,eik->abe", prod - prod.transpose(1, 0, 2, 3), s)


@pytest.mark.parametrize("build, signature, derived_dim, center_dim", [
    pytest.param(al.okubo_p11, (8, 0, 0), 8, 0, id="okubo"),
    pytest.param(al.octonion_algebra, (14, 0, 0), 14, 0, id="octonions"),
    pytest.param(lambda: al.j_family(0, 0, U4, U4), (3, 1, 0), 3, 1, id="tau-common-axis"),
])
def test_derivation_structure_closure(build, signature, derived_dim, center_dim):
    der = dv.derivation_basis(build())
    # the closed forms of derived_dim give the center and Killing signature
    # that the per-pair loop over brackets and Killing traces gave
    assert (der.derived_dim, der.dim - der.derived_dim, 0) == signature
    assert (der.derived_dim, der.dim - der.derived_dim) == (derived_dim, center_dim)
    struct = structure_constants(der)
    assert np.array_equal(struct, -np.swapaxes(struct, 0, 1))
    assert rank(struct.reshape(-1, der.dim)) == der.derived_dim
    for a in range(der.dim):
        for b in range(a + 1, der.dim):
            comm = der.basis[a] @ der.basis[b] - der.basis[b] @ der.basis[a]
            recon = sum(struct[a, b, e] * der.basis[e] for e in range(der.dim))
            assert np.max(np.abs(comm - recon)) < 1e-7


def test_trivial_submodule():
    basis = dv.trivial_submodule(al.octonion_algebra())
    assert basis.shape[1] == 1
    assert np.allclose(np.abs(basis[:, 0]), oc.ONE.coords)
    assert dv.trivial_submodule(al.okubo_p11()).shape[1] == 0


def test_trivial_submodule_oracle_stacked_kernel():
    # independent check: stack the derivations and compare kernels
    a = al.okubo_p11()
    der = dv.derivation_basis(a)
    stacked = np.vstack(der.basis)
    sv = np.linalg.svd(stacked, compute_uv=False)
    assert np.min(sv) > 1e-6  # trivial kernel


def test_trivial_submodule_j_family(gen):
    a = al.j_family(0, 0, U4, V4)
    basis = dv.trivial_submodule(a)
    assert basis.shape[1] == 1
    assert np.allclose(np.abs(basis[:, 0]), oc.ONE.coords, atol=1e-9)


def test_decompose_partitions():
    assert dv.decompose(al.octonion_algebra()).partition == (1, 7)
    assert dv.decompose(al.okubo_p11()).partition == (8,)
    assert dv.decompose(al.j_family(0, 0, U4, V4)).partition == (1, 3, 4)
    for i, j in ((0, 0), (0, 1), (1, 0)):
        assert dv.decompose(al.p35(i, j)).partition == (3, 5)
    assert dv.decompose(al.quat4(1, 0)).partition == (1, 3)
    assert dv.decompose(al.g_family(1, 1, 1, 0, 0.9, 2.2)).partition == (1, 1, 3, 3)


def test_decompose_subspaces_invariant_orthogonal(gen):
    a = al.k_family(0, 1, *(unit(gen, 4) for _ in range(4)))
    der = dv.derivation_basis(a)
    dec = dv.decompose(a, der=der)
    assert sum(p.shape[1] for p in dec.subspaces) == 8
    assert sum(dec.partition) == 8
    full = np.hstack(dec.subspaces)
    assert np.max(np.abs(full.T @ full - np.eye(8))) < 1e-8
    for sub in dec.subspaces:
        proj_out = np.eye(8) - sub @ sub.T
        for delta in der.basis:
            assert np.max(np.abs(proj_out @ delta @ sub)) < 1e-7


def test_decompose_rejects_abelian():
    # a two-dimensional algebra has abelian (zero) derivation algebra
    sub = oc.STRUCTURE[:2, :2, :2].astype(float)
    with pytest.raises(AbelianDerivations):
        dv.decompose(al.Algebra(sub))


def test_is_irreducible():
    o = al.octonion_algebra()
    der = dv.derivation_basis(o)
    span_one = oc.ONE.coords.reshape(-1, 1)
    assert dv.is_irreducible(span_one, der)
    complement = np.eye(8)[:, 1:]
    assert dv.is_irreducible(complement, der)
    with pytest.raises(NotInvariant):
        dv.is_irreducible(np.eye(8)[:, :3], der)


def test_is_irreducible_without_derivations(gen):
    # with Der(A) = 0 every subspace is invariant and only lines are irreducible
    der = dv.derivation_basis(al.Algebra(gen.standard_normal((8, 8, 8))))
    assert der.dim == 0
    assert dv.is_irreducible(np.eye(8)[:, :1], der)
    assert not dv.is_irreducible(np.eye(8)[:, :2], der)


def test_is_irreducible_detects_split():
    # H inside the (u, v) tau-family point splits as 1 + 3
    a = al.j_family(0, 0, U4, V4)
    der = dv.derivation_basis(a)
    quat_block = np.eye(8)[:, :4]
    assert not dv.is_irreducible(quat_block, der)


def _restricted(der, sub):
    return sub.T @ np.array(der.basis) @ sub


def _kron_commutant(restricted, d):
    eye = np.eye(d)
    system = np.vstack([np.kron(eye, delta.T) - np.kron(delta, eye) for delta in restricted])
    kernel = nullspace(system)
    return [kernel[:, c].reshape(d, d) for c in range(kernel.shape[1])]


def _oblique_p35():
    """p35(0, 0) transported by a fixed non-orthogonal map: its derivations
    are not skew and its 3- and 5-pieces are not orthogonal."""
    return _conjugate(al.p35(0, 0), np.eye(8) + 0.3 * np.random.default_rng(3).standard_normal((8, 8)))


@pytest.mark.parametrize("build, sub, comm_dim", [
    (al.octonion_algebra, np.eye(8)[:, 1:], 1),
    (lambda: al.j_family(0, 0, U4, V4), np.eye(8)[:, :4], 2),
    (_oblique_p35, np.eye(8), 2),
], ids=["octonions-imaginary", "tau-common-axis-quaternions", "oblique-p35-non-skew"])
def test_commutant_basis_matches_kron_system(build, sub, comm_dim):
    # the symmetric commutant spans the symmetric parts of the gl(d) commutant
    der = dv.derivation_basis(build())
    restricted = _restricted(der, sub)
    d = sub.shape[1]
    comm = dv.commutant_basis(restricted, d)
    sym = np.reshape([y + y.T for y in _kron_commutant(restricted, d)], (-1, d * d))
    ref = np.linalg.svd(sym, full_matrices=False)[2][:rank(sym)]
    assert len(comm) == len(ref) == comm_dim
    flat = comm.reshape(len(comm), d * d)
    assert np.max(np.abs(flat.T @ flat - ref.T @ ref)) < 1e-12
    assert np.max(np.abs(comm - comm.transpose(0, 2, 1))) < 1e-14


def _krylov_widths(restricted, v):
    """Widths of the span of one start vector, step by step, one QR each."""
    span = v.reshape(-1, 1)
    widths = [1]
    while True:
        q, r = np.linalg.qr(np.hstack([span] + [delta @ span for delta in restricted]))
        new_span = q[:, np.abs(np.diag(r)) > 1e-9]
        if new_span.shape[1] == span.shape[1]:
            return widths
        span = new_span
        widths.append(span.shape[1])


def test_krylov_dims_with_diverging_widths(gen):
    # tau(u, v) at a common axis: 1 + 3 + 4; inside the 3 + 4 complement a
    # vector of the 3-piece and a generic vector grow to different widths
    a = al.j_family(0, 0, U4, V4)
    der = dv.derivation_basis(a)
    pieces = [p for p in dv.decompose(a, der=der).subspaces if p.shape[1] > 1]
    restricted = _restricted(der, np.hstack(pieces))
    vectors = [np.eye(7)[0], unit(gen, 7), np.eye(7)[0]]
    widths = [_krylov_widths(restricted, v) for v in vectors]
    assert widths[0][-1] == 3 and widths[1][1] > widths[0][1]
    assert [p.shape[1] for p in pieces] == [3, 4]
    assert all(dv.is_irreducible(p, der) for p in pieces)
    assert not dv.is_irreducible(np.hstack(pieces), der)


A_AXIS = np.array([np.cos(0.7), np.sin(0.7), 0, 0])
B_SPREAD = np.array([np.cos(0.9), 0, np.sin(0.9), 0])

#: One algebra of every family constructor, with every decompose block.
FAMILY_FIXTURES = {
    "octonions": al.octonion_algebra,
    "standard-11": lambda: al.standard_isotope(1, 1),
    "quat4-10": lambda: al.quat4(1, 0),
    "tau-generic": lambda: al.j_family(0, 0, U4, V4),
    "tau-common-axis": lambda: al.j_family(0, 0, U4, U4),
    "tau-sign": lambda: al.j_family(0, 0, -ONE4, -ONE4),
    "t-one-axis": lambda: al.k_family(0, 1, A_AXIS, A_AXIS, U4, U4),
    "t-spread": lambda: al.k_family(0, 1, A_AXIS, -A_AXIS, U4, B_SPREAD),
    "t-aligned": lambda: al.k_family(0, 1, A_AXIS, -A_AXIS, U4, U4),
    "lambda": lambda: al.lambda_family(0, 1, np.array([0.6, 0.8]), np.array([0.0, 1.0])),
    "okubo": al.okubo_p11,
    "p35-00": lambda: al.p35(0, 0),
    "p35-01": lambda: al.p35(0, 1),
    "g": lambda: al.g_family(1, 1, 0, 1, 0.6, 1.1),
}


def _span_projector(a, basis):
    flat = np.reshape(basis, (len(basis), a.dim ** 2)).T
    return flat @ flat.T


def _conjugate(a, p):
    """The tensor of x * y = p((p^-1 x)(p^-1 y)), for any invertible p."""
    inv = np.linalg.inv(p)
    return al.Algebra(np.einsum("ai,bj,abc,kc->ijk", inv, inv, a.sc, p))


def _skew_solve_inputs():
    gen = np.random.default_rng(7)
    cases = [(name, build()) for name, build in FAMILY_FIXTURES.items()]
    for name in ("octonions", "okubo", "p35-00", "tau-generic", "g"):
        cases.append((f"raw-{name}", _conjugate(FAMILY_FIXTURES[name](), random_g2(gen).mat)))
    for dim, name in ((1, "reals"), (2, "complexes")):
        cases.append((name, al.Algebra(oc.STRUCTURE[:dim, :dim, :dim].astype(float))))
    o = al.octonion_algebra()
    cases.append(("doubled-octonions", al.Algebra(2 * o.sc)))
    cases.append(("octonions-non-orthogonal",
                  _conjugate(o, np.eye(8) + 0.3 * np.eye(8, k=1))))
    tau = al.j_family(0, 0, U4, V4)
    for scale in (1e-12, 1e-10, 1e-9):
        cases.append((f"tau-noise-{scale:g}",
                      al.Algebra(tau.sc + scale * gen.standard_normal(tau.sc.shape))))
    return [pytest.param(name, a, id=name) for name, a in cases]


@pytest.mark.parametrize("name, a", _skew_solve_inputs())
def test_skew_solve_matches_gl_kernel(name, a):
    # the so(n) solve (or its gl(n) fallback) spans the full Leibniz kernel
    kernel = nullspace(dv.leibniz_matrix(a)).T.reshape(-1, a.dim, a.dim)
    der = dv.derivation_basis(a)
    assert der.dim == len(kernel)
    assert np.max(np.abs(_span_projector(a, der.basis) - _span_projector(a, kernel)),
                  initial=0.0) < 1e-10
    if name in ("doubled-octonions", "octonions-non-orthogonal"):
        assert not al.norm_multiplicative(a) and der.dim == 14
    if name == "octonions-non-orthogonal":
        assert max(np.max(np.abs(delta + delta.T)) for delta in der.basis) > 1e-3


def _sym_commutant_system_singular_values(sub, der):
    """Singular values, relative to the largest, of the system commutant_basis
    solves: delta S - S delta for every restricted delta and every element S of
    the orthonormal basis of sym(d), rebuilt entry by entry."""
    restricted = _restricted(der, sub)
    columns = [np.concatenate([(delta @ s - s @ delta).ravel() for delta in restricted])
               for s in dv._sym_basis(sub.shape[1])]
    s = np.linalg.svd(np.array(columns).T, compute_uv=False)
    return s / s[0]


@pytest.mark.parametrize("build", FAMILY_FIXTURES.values(), ids=FAMILY_FIXTURES.keys())
def test_symmetric_commutant_rank_margin(build):
    # the Schur decision in decompose: kept singular values of the sym(d)
    # system >= 1e-3 of the largest, dropped ones <= 1e-12, on every returned
    # piece and on the complement of the trivial submodule decompose starts from
    a = build()
    der = dv.derivation_basis(a)
    dec = dv.decompose(a, der=der)
    complement = nullspace(dec.trivial.T) if dec.trivial_dim else np.eye(a.dim)
    subs = [p for p in dec.subspaces if p.shape[1] > 1] + [complement]
    for sub in subs:
        s = _sym_commutant_system_singular_values(sub, der)
        kept = len(s) - len(dv.commutant_basis(_restricted(der, sub), sub.shape[1]))
        assert np.min(s[:kept]) >= 1e-3
        assert np.max(s[kept:], initial=0.0) <= 1e-12


@pytest.mark.parametrize("name", FAMILY_FIXTURES)
def test_so_leibniz_system_matches_gl_reference(name):
    # the so(n) system built by index is the gl(n) system times the so(n) basis
    a = FAMILY_FIXTURES[name]()
    raw = _conjugate(a, _special_orthogonal(np.random.default_rng(13), a.dim))
    for b in (a, raw):
        skew = dv.leibniz_matrix(b, skew=True)
        assert skew.shape == (b.dim ** 3, b.dim * (b.dim - 1) // 2)
        assert np.max(np.abs(skew - dv.leibniz_matrix(b) @ dv._so_basis(b.dim))) < 1e-14


def _solved_systems(monkeypatch):
    """Record every matrix commutant_basis hands to nullspace."""
    systems = []

    def recording(m, tol=DEFAULT_TOL):
        systems.append(np.array(m))
        return nullspace(m, tol)

    monkeypatch.setattr(dv, "nullspace", recording)
    return systems


@pytest.mark.parametrize("build", FAMILY_FIXTURES.values(), ids=FAMILY_FIXTURES.keys())
def test_half_height_commutant_system_keeps_singular_values(build, monkeypatch):
    # the upper triangle with sqrt(2)-weighted off-diagonal rows has the
    # singular values of the d^2-row system, on every piece and the complement
    a = build()
    der = dv.derivation_basis(a)
    dec = dv.decompose(a, der=der)
    complement = nullspace(dec.trivial.T) if dec.trivial_dim else np.eye(a.dim)
    systems = _solved_systems(monkeypatch)
    for sub in [p for p in dec.subspaces if p.shape[1] > 1] + [complement]:
        d = sub.shape[1]
        dv.commutant_basis(_restricted(der, sub), d)
        half = systems.pop()
        assert half.shape == (len(der.basis) * d * (d + 1) // 2, d * (d + 1) // 2)
        s = np.linalg.svd(half, compute_uv=False)
        assert np.max(np.abs(s / s[0] - _sym_commutant_system_singular_values(sub, der))) < 1e-12


@pytest.mark.parametrize("build", FAMILY_FIXTURES.values(), ids=FAMILY_FIXTURES.keys())
def test_decompose_pieces_irreducible_by_kron_oracle(build):
    # each piece's symmetric commutant, read off the gl(d) Kronecker system
    # and not off commutant_basis, is the scalars
    a = build()
    der = dv.derivation_basis(a)
    for sub in dv.decompose(a, der=der).subspaces:
        d = sub.shape[1]
        sym = np.reshape([y + y.T for y in _kron_commutant(_restricted(der, sub), d)], (-1, d * d))
        assert rank(sym) == 1


@pytest.mark.parametrize("build, dims", [
    (lambda: al.p35(0, 1), [2]), (lambda: al.j_family(0, 0, U4, V4), [2]),
    (lambda: al.j_family(0, 0, U4, U4), [2]), (lambda: al.j_family(0, 0, -ONE4, -ONE4), [2]),
    (al.okubo_p11, [1]), (al.octonion_algebra, [1]),
    (lambda: al.g_family(1, 1, 0, 1, 0.6, 1.1), [3, 1, 1]),
], ids=["p35", "tau-generic", "tau-common-axis", "tau-sign", "okubo", "octonions", "g"])
def test_decompose_solves_each_split_module_once(build, dims, monkeypatch):
    # the dimensions of the commutants decompose solves, in order: parts as
    # many as the commutant's dimension are accepted without another solve
    # (p35 3+5, tau 3+4); the 3+3 of a g point has a 3-dimensional commutant
    # over 2 parts, so each part is solved again
    a = build()
    der = dv.derivation_basis(a)
    solved = []

    def counted(restricted, d, tol=DEFAULT_TOL):
        comm = commutant_basis(restricted, d, tol)
        solved.append(len(comm))
        return comm

    commutant_basis = dv.commutant_basis
    monkeypatch.setattr(dv, "commutant_basis", counted)
    dv.decompose(a, der=der)
    assert solved == dims


def test_sym_basis_orthonormal():
    for d in (1, 3, 7):
        flat = dv._sym_basis(d).reshape(-1, d * d)
        assert flat.shape[0] == d * (d + 1) // 2
        assert np.max(np.abs(flat @ flat.T - np.eye(len(flat)))) < 1e-15
        assert all(np.array_equal(s, s.T) for s in dv._sym_basis(d))
        assert not dv._sym_basis(d).flags.writeable


def test_decompose_non_skew_fallback():
    # non-orthogonal transports put Der(A) in the gl(n) fallback: diag(1, Q) g
    # with g in G2 keeps the imaginary part orthogonal to 1, so the 1 + 7
    # split and block D17 survive; a map that tilts the imaginary part
    # towards 1, or the 3- and 5-pieces of p35 towards each other, leaves no
    # invariant orthogonal complement and raises NotInvariant
    o = al.octonion_algebra()
    g = random_g2(np.random.default_rng(5)).mat
    q = np.eye(7) + 0.3 * np.eye(7, k=1)
    a = _conjugate(o, np.block([[np.eye(1), np.zeros((1, 7))], [np.zeros((7, 1)), q]]) @ g)
    der = dv.derivation_basis(a)
    assert not al.norm_multiplicative(a)
    assert max(np.max(np.abs(delta + delta.T)) for delta in der.basis) > 1e-3
    dec = dv.decompose(a, der=der)
    assert dec.partition == (1, 7) and dec.trivial_dim == 1
    assert all(len(dv.commutant_basis(dv._restrict(p, der), p.shape[1])) == 1 for p in dec.subspaces)
    assert not dv.is_irreducible(np.eye(8), der)
    assert str(cl.analyze(a).block) == "D17^(+,+)"
    tilted = _conjugate(o, (np.eye(8) + 0.3 * np.eye(8, k=1)) @ g)
    with pytest.raises(NotInvariant):
        dv.decompose(tilted)
    oblique = _oblique_p35()
    assert not dv.is_irreducible(np.eye(8), dv.derivation_basis(oblique))
    with pytest.raises(NotInvariant):
        cl.analyze(oblique)


def _special_orthogonal(gen, n):
    q, r = np.linalg.qr(gen.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q


#: analyze on every fixture: partition, trivial_dim and block.
PINNED_REPORTS = {
    "octonions": ((1, 7), 1, "D17^(+,+)"),
    "standard-11": ((1, 7), 1, "D17^(-,-)"),
    "quat4-10": ((1, 3), 1, "D4^(-,+)"),
    "tau-generic": ((1, 3, 4), 1, "D134a^(+,+)"),
    "tau-common-axis": ((1, 3, 4), 1, "D134a^(+,+)"),
    "tau-sign": ((1, 3, 4), 1, "D134s^(+,+)"),
    "t-one-axis": ((1, 1, 2, 4), 2, "D1124^(+,-)"),
    "t-spread": ((1, 1, 1, 1, 4), 4, "D11114^(+,-)"),
    "t-aligned": ((1, 1, 6), 2, "D116^(+,-)"),
    "lambda": ((1, 1, 6), 2, "D116^(+,-)"),
    "okubo": ((8,), 0, "D8^(-,-)"),
    "p35-00": ((3, 5), 0, "D35^(+,+)"),
    "p35-01": ((3, 5), 0, "D35^(+,-)"),
    "g": ((1, 1, 3, 3), 2, "D1133[1101]^(-,+)"),
}


@pytest.mark.parametrize("name", FAMILY_FIXTURES)
def test_pinned_reports_of_raw_transports(name):
    # raw G2 (in dimension 4: H-automorphism) and SO(n) transports give the
    # pinned report
    from compalg.maps import kappa4

    gen = np.random.default_rng(11)
    a = FAMILY_FIXTURES[name]()
    automorphism = random_g2(gen).mat if a.dim == 8 else kappa4(unit(gen, 4))
    for p in (automorphism, _special_orthogonal(gen, a.dim)):
        report = cl.analyze(_conjugate(a, p))
        assert (report.partition, report.trivial_dim, str(report.block)) == PINNED_REPORTS[name]


@pytest.mark.parametrize("build", [
    lambda: al.p35(0, 0), al.okubo_p11, al.octonion_algebra,
    lambda: al.k_family(0, 1, A_AXIS, -A_AXIS, U4, U4),
], ids=["p35", "okubo", "octonions", "t-aligned-D116"])
def test_is_irreducible_on_decompose_pieces(build):
    # every piece decompose returns is irreducible; the Krylov test this
    # replaced rejected the 5-piece of p35, the Okubo 8 and the G2 7
    a = build()
    der = dv.derivation_basis(a)
    assert all(dv.is_irreducible(p, der) for p in dv.decompose(a, der=der).subspaces)


def test_partition_table_random_families(gen):
    for _ in range(5):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        a4, b4 = unit(gen, 4), unit(gen, 4)
        if not al.in_TxT_ij(i, j, a4, b4):
            continue
        assert dv.decompose(al.j_family(i, j, a4, b4)).partition == (1, 3, 4)
    for _ in range(5):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        t1, t2 = unit(gen, 2), unit(gen, 2)
        a = al.lambda_family(i, j, t1, t2)
        if max(abs(t1[0] - (-1) ** j), abs(t1[1])) < 1e-9:
            continue
        assert dv.decompose(a).partition == (1, 1, 6)


def test_lie_types_per_block(gen):
    # block {1,1,6}: dim-8 compact type; {1,1,2,4}: su2 + center; {1,1,1,1,4}: su2
    lam = al.lambda_family(0, 1, unit(gen, 2), unit(gen, 2))
    d = dv.derivation_basis(lam)
    assert d.dim == 8 and dv.lie_type(d) is dv.LieTypeLabel.SU3
    a = np.array([np.cos(0.7), np.sin(0.7), 0, 0])
    one_axis = al.k_family(0, 1, a, a, U4, U4)
    d = dv.derivation_basis(one_axis)
    assert d.dim == 4 and dv.lie_type(d) is dv.LieTypeLabel.SU2xA1
    spread = al.k_family(1, 0, *(unit(gen, 4) for _ in range(4)))
    d = dv.derivation_basis(spread)
    assert d.dim == 3 and dv.lie_type(d) is dv.LieTypeLabel.SU2


def test_rotations_are_automorphisms_of_quat_classes(gen):
    # conjugation by any unit quaternion preserves each 4-dimensional product
    from compalg.maps import kappa4

    for i in (0, 1):
        for j in (0, 1):
            h = al.quat4(i, j)
            for _ in range(5):
                k4 = kappa4(unit(gen, 4))
                lhs = np.einsum("km,ijm->ijk", k4, h.sc)
                rhs = np.einsum("ai,bj,abk->ijk", k4, k4, h.sc)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


def _nonzero_idempotents_2d(sub, tol=1e-10):
    """Count nonzero solutions of x * x = x in a 2-dimensional algebra by
    Newton iteration from a dense grid of starting points."""
    solutions = []
    for t in np.linspace(0, 2 * np.pi, 72, endpoint=False):
        for r in (0.7, 1.3):
            x = r * np.array([np.cos(t), np.sin(t)])
            for _ in range(60):
                f = np.einsum("i,j,ijk->k", x, x, sub) - x
                jac = (np.einsum("j,ijk->ki", x, sub)
                       + np.einsum("i,ijk->kj", x, sub) - np.eye(2))
                try:
                    x = x - np.linalg.solve(jac, f)
                except np.linalg.LinAlgError:
                    break
            f = np.einsum("i,j,ijk->k", x, x, sub) - x
            if np.max(np.abs(f)) < tol and np.linalg.norm(x) > 1e-6:
                if not any(np.linalg.norm(x - s) < 1e-6 for s in solutions):
                    solutions.append(x.copy())
    return len(solutions)


def test_trivial_submodule_idempotent_counts():
    # the 2-dim trivial submodule has three nonzero idempotents exactly when
    # its own double sign is (-,-), i.e. first index pair (1,1); one otherwise
    for (i1, j1, i2, j2), expected in [((1, 1, 0, 1), 3), ((0, 0, 1, 0), 1),
                                       ((1, 0, 1, 1), 1), ((0, 1, 1, 0), 1)]:
        alg = al.g_family(i1, j1, i2, j2, 0.6, 1.1)
        basis = dv.trivial_submodule(alg)
        assert basis.shape[1] == 2
        sub = np.zeros((2, 2, 2))
        for a in range(2):
            for b in range(2):
                sub[a, b] = basis.T @ np.einsum("i,j,ijk->k", basis[:, a], basis[:, b], alg.sc)
        assert _nonzero_idempotents_2d(sub) == expected


def test_k_family_partitions(gen):
    u = U4
    a = np.array([np.cos(0.7), np.sin(0.7), 0, 0])
    # one-axis tuple without the sign alignment: partition (1,1,2,4)
    alg = al.k_family(0, 1, a, a, u, u)
    assert al.in_S_ij(0, 1, a, a, u, u)
    assert dv.decompose(alg).partition == (1, 1, 2, 4)
    # spread imaginary axes: partition (1,1,1,1,4)
    b2 = np.array([np.cos(0.9), 0, np.sin(0.9), 0])
    alg = al.k_family(0, 1, a, -a, u, b2)
    assert al.in_S_ij(0, 1, a, -a, u, b2)
    assert dv.decompose(alg).partition == (1, 1, 1, 1, 4)
    # aligned with matching signs: partition (1,1,6)
    alg = al.k_family(0, 1, a, -a, u, u)
    assert not al.in_S_ij(0, 1, a, -a, u, u) and al.in_S(a, -a, u, u)
    assert dv.decompose(alg).partition == (1, 1, 6)


#: lie_type of each fixture, read off its measured Killing form and center.
FIXTURE_LIE_TYPES = {
    "octonions": "g2", "standard-11": "g2", "quat4-10": "su2", "tau-generic": "su2",
    "tau-common-axis": "su2+center", "tau-sign": "su2+su2", "t-one-axis": "su2+center",
    "t-spread": "su2", "t-aligned": "su3", "lambda": "su3", "okubo": "su3",
    "p35-00": "su2", "p35-01": "su2", "g": "su2",
}


def _compact_reading_cases():
    """Every fixture with its raw G2 (H-automorphism in dimension 4) and SO(n)
    transports, 2 O, and the gl(n)-path transports of O and p35."""
    from compalg.maps import kappa4

    gen = np.random.default_rng(11)
    cases = []
    for name, build in FAMILY_FIXTURES.items():
        a = build()
        automorphism = random_g2(gen).mat if a.dim == 8 else kappa4(unit(gen, 4))
        rotation = _special_orthogonal(gen, a.dim)
        for suffix, b in (("", a), ("-raw", _conjugate(a, automorphism)),
                          ("-so", _conjugate(a, rotation))):
            cases.append(pytest.param(b, FIXTURE_LIE_TYPES[name], id=name + suffix))
    o = al.octonion_algebra()
    g = random_g2(np.random.default_rng(5)).mat
    diag = np.eye(8)
    diag[1:, 1:] += 0.3 * np.eye(7, k=1)
    cases += [pytest.param(al.Algebra(2 * o.sc), "g2", id="doubled-octonions"),
              pytest.param(_conjugate(o, diag @ g), "g2", id="octonions-diag-gl"),
              pytest.param(_conjugate(o, (np.eye(8) + 0.3 * np.eye(8, k=1)) @ g), "g2",
                           id="octonions-tilted-gl"),
              pytest.param(_oblique_p35(), "su2", id="oblique-p35-gl")]
    return cases


@pytest.mark.parametrize("a, label", _compact_reading_cases())
def test_compact_reading_matches_measured_center_and_killing_form(a, label):
    # the center as the kernel of the ad system and the Killing signature by
    # eigvalsh cut at CLUSTER_TOL times the largest |eigenvalue|, measured on
    # the structure constants, equal the closed forms of the bracket rank
    der = dv.derivation_basis(a)
    d, struct = der.dim, structure_constants(der)
    center = nullspace(struct.transpose(1, 2, 0).reshape(d * d, d)).shape[1]
    killing = struct.reshape(d, d * d) @ struct.transpose(0, 2, 1).reshape(d, d * d).T
    eig = np.linalg.eigvalsh(0.5 * (killing + killing.T))
    cut = CLUSTER_TOL * max(1.0, float(np.max(np.abs(eig))))
    neg, pos = int(np.sum(eig < -cut)), int(np.sum(eig > cut))
    assert d - der.derived_dim == center
    assert (der.derived_dim, d - der.derived_dim, 0) == (neg, d - neg - pos, pos)
    assert dv.lie_type(der).value == label


def test_analysis_records_are_immutable():
    a = al.octonion_algebra()
    der = dv.derivation_basis(a)
    with pytest.raises(ValueError):
        der.basis[0, 0, 1] = 7.0
    with pytest.raises(FrozenInstanceError):
        der.dim = 3
    with pytest.raises(FrozenInstanceError):
        cl.analyze(a).der_dim = 1
    verdict = cl.isomorphic(al.standard_isotope(0, 0), al.standard_isotope(0, 1))
    records = [(cl.canonical(al.standard_isotope(0, 0)), "witness"), (verdict, "verdict"),
               (dv.decompose(a), "partition"),
               (nf.nf_TxT(nf.make_pair([0.6, 0.8, 0, 0], [0, 0, 1, 0])), "tag"),
               (tr.triality_pair(np.eye(8)), "residual")]
    for record, field in records:
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, None)
    assert not verdict
    j = al.j_family(0, 0, [0.6, 0.8, 0, 0], [0, 0, 1, 0])
    g_to_f_witness = d33.g_to_f(d33.GParams(0, 0, 0, 1, 0.4, 0.9))[1]
    for witness in (cl.canonical(j).witness, cl.isomorphic(j, j).witness, g_to_f_witness):
        with pytest.raises(ValueError):
            witness.mat[0, 0] = 3.0
        with pytest.raises(AttributeError):
            witness.mat = None
        assert pickle.loads(pickle.dumps(witness)).mat.tobytes() == witness.mat.tobytes()
    own = np.eye(8)
    mp.OrthoMap8(own)
    assert own.flags.writeable
