"""Deterministic verification suite behind `compalg verify`.

Each check exercises one family of identities: exact basis-level laws of the
multiplication, the operator conjugation rules, the derivation dimension and
partition tables, invariance and idempotence of the normal forms, triality
consistency, the two-parameter block pipeline, and end-to-end block
detection.  Each check draws from its own generator, seeded by the caller's
seed and the check's name, so no check depends on another and two runs with
the same seed produce identical reports, however the checks are spread over
processes.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import algebra as al
from . import classify as cl
from . import d1133 as d33
from . import derivations as dv
from . import maps as mp
from . import normal_form as nf
from . import octonion as oc
from . import triality as tr
from .numerics import DEFAULT_SEED, DEFAULT_TOL, nullspace, rng

TOL = DEFAULT_TOL


def _unit(gen, n):
    v = gen.standard_normal(n)
    return v / np.linalg.norm(v)


def _random_valid_g_indices(gen):
    i1, j1 = int(gen.integers(0, 2)), int(gen.integers(0, 2))
    if gen.integers(0, 2):
        return i1, j1, 1, int(gen.integers(0, 2))
    return i1, j1, int(gen.integers(0, 2)), 1


def _random_cayley_triple(gen):
    while True:
        a = gen.standard_normal(8)
        a[0] = 0.0
        a /= np.linalg.norm(a)
        b = gen.standard_normal(8)
        b[0] = 0.0
        b -= (b @ a) * a
        nb = np.linalg.norm(b)
        if nb < 0.1:
            continue
        b /= nb
        ab = (oc.Octonion(a) * oc.Octonion(b)).coords
        c = gen.standard_normal(8)
        c[0] = 0.0
        for w in (a, b, ab):
            c -= (c @ w) * w
        nc = np.linalg.norm(c)
        if nc < 0.1:
            continue
        return oc.CayleyTriple(oc.Octonion(a), oc.Octonion(b), oc.Octonion(c / nc))


def check_mul_trick_identity(gen, fast):
    """(z x) y = z (y x) exactly on the 16 quaternion basis pairs."""
    for i in range(4):
        for j in range(4):
            x, y = oc.Octonion.basis(i), oc.Octonion.basis(j)
            lhs = ((oc.Z * x) * y).coords
            rhs = (oc.Z * (y * x)).coords
            if not np.array_equal(lhs, rhs):
                return False, f"pair ({i},{j})"
    return True, "exact on 16 pairs"


def _normal_pairs(gen, trials):
    """trials pairs (x, y) of Gaussian 8-vectors, x and y as (trials, 8) arrays."""
    xy = gen.standard_normal((trials, 2, 8))
    return xy[:, 0], xy[:, 1]


def check_mul_norm_multiplicative(gen, fast):
    trials = 1000 if fast else 10_000
    x, y = _normal_pairs(gen, trials)
    x, y = (v / np.linalg.norm(v, axis=1, keepdims=True) for v in (x, y))
    worst = np.max(np.abs(np.linalg.norm(oc.mul(x, y), axis=1) - 1.0))
    return worst < 1e-12, f"max deviation {worst:.2e} over {trials} pairs"


def check_mul_alternative(gen, fast):
    trials = 1000 if fast else 10_000
    x, y = _normal_pairs(gen, trials)
    xx = oc.mul(x, x)
    worst = max(np.max(np.abs(oc.mul(x, oc.mul(x, y)) - oc.mul(xx, y))),
                np.max(np.abs(oc.mul(oc.mul(y, x), x) - oc.mul(y, xx))))
    return worst < 1e-10, f"max residual {worst:.2e}"


def check_mul_conj_antihomomorphism(gen, fast):
    x, y = _normal_pairs(gen, 100)
    k = oc.conj_matrix()
    worst = np.max(np.abs(oc.mul(x, y) @ k - oc.mul(y @ k, x @ k)))
    return worst < 1e-12, f"max residual {worst:.2e}"


def check_maps_orthogonal(gen, fast):
    from .numerics import is_orthogonal

    samples = [
        mp.lambda_map(_unit(gen, 2), int(gen.integers(0, 2))),
        mp.tau_map(_unit(gen, 4)),
        mp.kappa_hat_map(_unit(gen, 4)),
        mp.T_map(_unit(gen, 4), _unit(gen, 4), int(gen.integers(0, 2))),
        mp.sigma_u(), mp.sigma_w_special(), mp.sigma_uw(),
        mp.B_map(_unit(gen, 8)), mp.C_map(_unit(gen, 8)),
        mp.G_map(gen.uniform(0, np.pi), gen.uniform(0, np.pi),
                 int(gen.integers(0, 2)), int(gen.integers(0, 2))),
        mp.F_map(gen.uniform(0, np.pi), int(gen.integers(0, 2)), int(gen.integers(0, 2))),
        mp.eps_hat(1),
    ]
    bad = [m for m in samples if not is_orthogonal(m.mat)]
    return not bad, f"{len(samples)} constructors"


def check_maps_automorphisms(gen, fast):
    samples = [mp.tau_map(_unit(gen, 4)), mp.kappa_hat_map(_unit(gen, 4)),
               mp.eps_hat(1),
               mp.g2_from_triples(oc.CayleyTriple.fixed(), _random_cayley_triple(gen))]
    bad = [m for m in samples if not mp.is_automorphism(m)]
    return not bad, "tau, kappa, u-flip, triple map"


def _delta(p, q):
    return mp.tau_map(oc.quat_conj(p)).mat @ mp.kappa_hat_map(q).mat


def check_maps_semidirect_homomorphism(gen, fast):
    trials = 50 if fast else 200
    worst = 0.0
    for _ in range(trials):
        p, q = _unit(gen, 4), _unit(gen, 4)
        p2, q2 = _unit(gen, 4), _unit(gen, 4)
        lhs = _delta(p, q) @ _delta(p2, q2)
        rhs = _delta(oc.quat_mul(p, mp.kappa4(q) @ p2), oc.quat_mul(q, q2))
        worst = max(worst, np.max(np.abs(lhs - rhs)))
    return worst < 1e-10, f"max residual {worst:.2e} over {trials} tuples"


def check_maps_tau_conjugation(gen, fast):
    trials = 30 if fast else 100
    worst = 0.0
    for _ in range(trials):
        p, q, w = _unit(gen, 4), _unit(gen, 4), _unit(gen, 4)
        d = _delta(p, q)
        pq = oc.quat_mul(p, q)
        rhs = mp.tau_map(oc.quat_kappa(pq, w)).mat
        worst = max(worst, np.max(np.abs(d @ mp.tau_map(w).mat @ d.T - rhs)))
    return worst < 1e-10, f"max residual {worst:.2e}"


def check_maps_T_conjugation(gen, fast):
    trials = 30 if fast else 100
    worst = 0.0
    for _ in range(trials):
        p, q, a, b = (_unit(gen, 4) for _ in range(4))
        d = _delta(p, q)
        for k in (0, 1):
            lhs = d @ mp.T_map(a, b, k).mat @ d.T
            rhs = mp.T_map(oc.quat_kappa(q, a), oc.quat_kappa(q, b), k).mat
            worst = max(worst, np.max(np.abs(lhs - rhs)))
    return worst < 1e-10, f"max residual {worst:.2e}"


def _chain(head, k1, k2, w=oc.UVZ):
    """head sigma_u^k1 (sigma_uv sigma_uz sigma_w)^k2, the reference for the
    closed forms: G_map's chain has head B_c and w = vz sin(gamma) - (uv)z
    cos(gamma), F_map's head C_c and w = (uv)z (sigma_uw); c = complex_unit(theta)."""
    mat = head.mat
    if k1:
        mat = mat @ mp.sigma_u().mat
    if k2:
        mat = mat @ mp.sigma_map([oc.UV, oc.UZ, w]).mat
    return mat


def check_maps_block_forms(gen, fast):
    """G_map and F_map against their reflection chains, and G at k2 = 0 against lambda."""
    worst = 0.0
    for _ in range(20):
        theta, gamma = gen.uniform(0, np.pi, 2)
        k1, k2 = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        c, w = oc.complex_unit(theta), oc.Octonion(np.r_[0, 0, 0, 0, 0, 0, np.sin(gamma), -np.cos(gamma)])
        worst = max(worst, np.max(np.abs(mp.F_map(theta, k1, k2).mat - _chain(mp.C_map(c), k1, k2))),
                    np.max(np.abs(mp.G_map(theta, gamma, k1, k2).mat - _chain(mp.B_map(c), k1, k2, w))))
        lam = mp.lambda_map(np.array([np.cos(2 * theta), np.sin(2 * theta)]), k1)
        worst = max(worst, np.max(np.abs(mp.G_map(theta, 0.0, k1, 0).mat - lam.mat)))
    return worst < 1e-12, f"max deviation {worst:.2e}"


def _family_draws(gen, count):
    draws = []
    for _ in range(count):
        which = int(gen.integers(0, 4))
        if which == 0:
            i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
            draws.append(al.j_family(i, j, _unit(gen, 4), _unit(gen, 4)))
        elif which == 1:
            i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
            draws.append(al.k_family(i, j, *(_unit(gen, 4) for _ in range(4))))
        elif which == 2:
            i1, j1, i2, j2 = _random_valid_g_indices(gen)
            draws.append(al.g_family(i1, j1, i2, j2,
                                     gen.uniform(0, np.pi), gen.uniform(0, np.pi)))
        else:
            i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
            draws.append(al.lambda_family(i, j, _unit(gen, 2), _unit(gen, 2)))
    return draws


def check_algebra_double_signs(gen, fast):
    for i in (0, 1):
        for j in (0, 1):
            ds = al.double_sign(al.standard_isotope(i, j), TOL)
            if (ds.i, ds.j) != (i, j):
                return False, f"standard isotope ({i},{j})"
            if (i, j) != (1, 1):
                dsp = al.double_sign(al.p35(i, j), TOL)
                if (dsp.i, dsp.j) != (i, j):
                    return False, f"special-subspace isotope ({i},{j})"
    ds = al.double_sign(al.okubo_p11(), TOL)
    if (ds.i, ds.j) != (1, 1):
        return False, "okubo model"
    trials = 10 if fast else 50
    for _ in range(trials):
        i1, j1, i2, j2 = _random_valid_g_indices(gen)
        a = al.g_family(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        ds = al.double_sign(a, TOL)
        if (ds.i, ds.j) != ((i1 + i2) % 2, (j1 + j2) % 2):
            return False, f"two-parameter family {(i1, j1, i2, j2)}"
    return True, "fixed families plus random two-parameter draws"


def check_algebra_division_norm(gen, fast):
    for a in _family_draws(gen, 8 if fast else 20):
        if not al.is_division(a):
            return False, "division failed"
        if not al.norm_multiplicative(a, TOL):
            return False, "norm multiplicativity failed"
    return True, "random family draws"


def check_derivation_dimensions(gen, fast):
    table = [
        (al.octonion_algebra(), 14),
        (al.okubo_p11(), 8),
        (al.quat4(0, 0), 3), (al.quat4(0, 1), 3), (al.quat4(1, 0), 3), (al.quat4(1, 1), 3),
        (al.j_family(0, 0, nf.U4, nf.U4), 4),
        (al.j_family(0, 0, -nf.ONE4, -nf.ONE4), 6),
        (al.j_family(0, 0, nf.U4, nf.V4), 3),
    ]
    for algebra, expected in table:
        got = dv.derivation_basis(algebra, TOL).dim
        if got != expected:
            return False, f"expected {expected}, got {got}"
    return True, "dimension table"


def check_derivation_partitions(gen, fast):
    def pt(a):
        return dv.decompose(a, TOL).partition

    if pt(al.octonion_algebra()) != (1, 7):
        return False, "octonions"
    if pt(al.okubo_p11()) != (8,):
        return False, "okubo model"
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if pt(al.standard_isotope(i, j)) != (1, 7):
            return False, f"standard isotope ({i},{j})"
        if (i, j) != (1, 1) and pt(al.p35(i, j)) != (3, 5):
            return False, f"special-subspace isotope ({i},{j})"
    count = 3 if fast else 8
    for _ in range(count):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        a4, b4 = _unit(gen, 4), _unit(gen, 4)
        if not al.in_TxT_ij(i, j, a4, b4):
            continue
        if pt(al.j_family(i, j, a4, b4)) != (1, 3, 4):
            return False, "tau family point"
    for _ in range(count):
        i1, j1, i2, j2 = _random_valid_g_indices(gen)
        gp = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        if not d33.in_d1133(gp, TOL):
            continue
        if pt(al.g_family(i1, j1, i2, j2, gp.alpha, gp.beta)) != (1, 1, 3, 3):
            return False, "two-parameter family point"
    return True, "partition table"


def check_derivation_skewness(gen, fast):
    # the full gl(n) kernel is skew, and derivation_basis (solved in so(n) for
    # norm-multiplicative products; 2 * O falls back to gl(n)) spans all of it
    for a, dim in [(al.okubo_p11(), 8), (al.j_family(0, 1, _unit(gen, 4), _unit(gen, 4)), 3),
                   (al.Algebra(2 * al.octonion_algebra().sc), 14)]:
        full = nullspace(dv.leibniz_matrix(a), TOL).T.reshape(-1, a.dim, a.dim)
        if np.max(np.abs(full + full.transpose(0, 2, 1)), initial=0.0) > 1e-8:
            return False, "derivation not skew"
        der = dv.derivation_basis(a, TOL)
        if not der.dim == len(full) == dim:
            return False, f"derivation dimension {der.dim}, gl(n) kernel {len(full)}"
        for delta in der.basis:
            if dv.leibniz_residual(a, delta) > 1e-8:
                return False, "leibniz residual"
    return True, "skew gl(n) kernels of dimension 8, 3, 14 and leibniz residuals"


def check_trivial_submodule_subalgebra(gen, fast):
    for a in [al.octonion_algebra(), al.lambda_family(0, 1, _unit(gen, 2), _unit(gen, 2)),
              al.g_family(*_random_valid_g_indices(gen), gen.uniform(0, np.pi),
                          gen.uniform(0, np.pi))]:
        basis = dv.trivial_submodule(a, tol=TOL)
        prod = np.einsum("ia,jb,ijk->abk", basis, basis, a.sc)
        if np.max(np.abs(prod - prod @ basis @ basis.T), initial=0.0) > 1e-8:
            return False, "trivial submodule not closed"
    return True, "product closure"


def check_nf_invariance_TxT(gen, fast):
    trials = 200 if fast else 1000
    worst = 0.0
    for _ in range(trials):
        x = nf.make_pair(_unit(gen, 4), _unit(gen, 4))
        q = _unit(gen, 4)
        r1 = nf.nf_TxT(x, TOL)
        r2 = nf.nf_TxT(nf.act_TxT(q, x), TOL)
        worst = max(worst, np.max(np.abs(r1.canonical.a - r2.canonical.a)),
                    np.max(np.abs(r1.canonical.b - r2.canonical.b)))
        ok, _ = nf.in_M(r1.canonical, TOL)
        if not ok:
            return False, "canonical point left the transversal"
        moved = nf.act_TxT(r1.witness_q, x)
        if not moved.close_to(r1.canonical, 1e-9):
            return False, "witness mismatch"
    return worst < 1e-8, f"max deviation {worst:.2e} over {trials} trials"


def check_nf_invariance_pair(gen, fast):
    trials = 200 if fast else 1000
    for k in range(trials):
        br1 = nf.BracketTT.of(_unit(gen, 4), _unit(gen, 4))
        br2 = nf.BracketTT.of(_unit(gen, 4), _unit(gen, 4))
        q = _unit(gen, 4)
        r1 = nf.nf_pair((br1, br2), TOL)
        r2 = nf.nf_pair(nf.act_pair(q, (br1, br2)), TOL)
        if not (r1.canonical[0].close_to(r2.canonical[0], 1e-8)
                and nf.BracketTT.of(*r1.canonical[1]).close_to(
                    nf.BracketTT.of(*r2.canonical[1]), 1e-8)):
            return False, f"trial {k}"
        ok, _ = nf.in_N(r1.canonical)
        if not ok:
            return False, "canonical pair left the transversal"
    return True, f"{trials} trials"


def check_nf_idempotence(gen, fast):
    trials = 50 if fast else 200
    for _ in range(trials):
        x = nf.make_pair(_unit(gen, 4), _unit(gen, 4))
        r = nf.nf_TxT(x, TOL)
        again = nf.nf_TxT(r.canonical, TOL)
        if not again.canonical.close_to(r.canonical, 1e-9):
            return False, "pair normal form moved a canonical point"
        if abs(abs(again.witness_q[0]) - 1.0) > 1e-7:
            return False, "witness of a canonical point is not the identity"
    return True, f"{trials} trials"


def check_nf_irredundancy(gen, fast):
    pairs = 20 if fast else 50
    grid = 2000 if fast else 5000
    qs = gen.standard_normal((grid, 4))
    qs /= np.linalg.norm(qs, axis=1)[:, None]
    points = []
    while len(points) < pairs * 2:
        r = nf.nf_TxT(nf.make_pair(_unit(gen, 4), _unit(gen, 4)), TOL)
        points.append(r.canonical)
    for k in range(pairs):
        x, y = points[2 * k], points[2 * k + 1]
        if x.close_to(y, 1e-3):
            continue
        best = _grid_min_distance(qs, x, y)
        if best < 1e-3:
            return False, f"grid rotation connects distinct canonical points ({best:.1e})"
    return True, f"{pairs} pairs against {grid} rotations"


def _grid_min_distance(qs, x, y):
    """Distance from y to the nearest conjugate of x by a row of qs."""
    da = np.max(np.abs(oc.quat_kappa(qs.T, x.a[:, None]) - y.a[:, None]), axis=0)
    db = np.max(np.abs(oc.quat_kappa(qs.T, x.b[:, None]) - y.b[:, None]), axis=0)
    return float(np.min(np.maximum(da, db)))


def check_triality_g2_pairs(gen, fast):
    trials = 5 if fast else 20
    worst = 0.0
    for _ in range(trials):
        phi = mp.g2_from_triples(oc.CayleyTriple.fixed(), _random_cayley_triple(gen))
        pair = tr.triality_pair(phi)
        # both components equal phi, up to one simultaneous sign
        worst = max(worst, min(max(np.max(np.abs(pair.phi1 - sign * phi.mat)),
                                   np.max(np.abs(pair.phi2 - sign * phi.mat))) for sign in (1, -1)))
    return worst < 1e-8, f"max deviation {worst:.2e} over {trials} automorphisms"


def check_triality_closed_forms(gen, fast):
    trials = 5 if fast else 20
    for _ in range(trials):
        rho = mp.g2_from_triples(oc.CayleyTriple.fixed(), _random_cayley_triple(gen))
        t8, s8 = _unit(gen, 8), _unit(gen, 8)
        phi = mp.left_right_mul_map(t8, s8, rho)
        pair = tr.triality_pair(phi)
        if pair.residual > 1e-8:
            return False, "left/right isotopy composite"
        phi2 = mp.bimul_map(_unit(gen, 8), rho)
        pair2 = tr.triality_pair(phi2)
        if pair2.residual > 1e-8:
            return False, "bimultiplication composite"
    return True, f"{trials} draws each"


def check_triality_identities(gen, fast):
    trials = 5 if fast else 20
    worst = 0.0
    for k in range(trials):
        m = np.linalg.qr(gen.standard_normal((8, 8)))[0]
        if np.linalg.det(m) < 0:
            m[:, 0] *= -1
        pair = tr.triality_pair(mp.OrthoMap8(m))
        lhs1 = oc.right_mul_matrix(oc.Octonion(pair.phi2[:, 0]).conj()) @ m
        lhs2 = oc.left_mul_matrix(oc.Octonion(pair.phi1[:, 0]).conj()) @ m
        worst = max(worst, np.max(np.abs(lhs1 - pair.phi1)), np.max(np.abs(lhs2 - pair.phi2)))
    return worst < 1e-8, f"max deviation {worst:.2e}"


def check_d1133_roundtrip(gen, fast):
    trials = 10 if fast else 50
    for _ in range(trials):
        i1, j1, i2, j2 = _random_valid_g_indices(gen)
        p = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        f, _ = d33.g_to_f(p, 0.0)
        back = d33.f_to_g(f)
        if (d33.circle_distance(p.alpha, back.alpha) > 1e-9
                or d33.circle_distance(p.beta, back.beta) > 1e-9):
            return False, "roundtrip moved the angles"
    return True, f"{trials} draws"


def check_d1133_witness(gen, fast):
    trials = 3 if fast else 10
    for _ in range(trials):
        i1, j1, i2, j2 = _random_valid_g_indices(gen)
        p = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        gamma = gen.uniform(0, np.pi)
        f, w = d33.g_to_f(p, gamma)
        a = al.from_isotope(mp.G_map(p.alpha, gamma, j1, j2), mp.G_map(p.beta, gamma, i1, i2))
        b = al.from_isotope(mp.F_map(f.xi, j1, j2), mp.F_map(f.eta, i1, i2))
        if not tr.iso_isotopes(a, b, w.phi):
            return False, "witness rejected"
    return True, f"{trials} draws"


def check_d1133_exclusion(gen, fast):
    steps = 40 if fast else 100
    grid = np.arange(steps) * np.pi / steps
    for i1, j1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for i2, j2 in ((0, 1), (1, 0), (1, 1)):
            count = np.count_nonzero(~d33.in_d1133_angles((i1, j1, i2, j2), grid[:, None], grid, TOL))
            if count != 1:
                return False, f"{(i1, j1, i2, j2)}: {count} excluded grid points"
    return True, f"{steps}x{steps} grid, 12 index tuples"


def check_d1133_oracle(gen, fast):
    trials = 30 if fast else 100
    for _ in range(trials):
        i1, j1, i2, j2 = _random_valid_g_indices(gen)
        p = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        if gen.integers(0, 2):
            q = d33.GParams(i1, j1, i2, j2,
                            (-p.alpha) % np.pi if gen.integers(0, 2) else p.alpha,
                            (-p.beta) % np.pi if gen.integers(0, 2) else p.beta)
        else:
            q = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        fp, fq = (cl._canonical_params("g_family", vars(x)) for x in (p, q))  # as isomorphic()
        same = str(fp.block) == str(fq.block) and cl._params_close("D1133", fp.params, fq.params)
        if same != d33.iso_1133_lattice_oracle(p, q):
            return False, f"disagreement at {p} vs {q}"
    return True, f"{trials} pairs"


def check_classify_blocks(gen, fast):
    trials = 20 if fast else 60
    count = 0
    for _ in range(trials):
        which = int(gen.integers(0, 3))
        if which == 0:
            i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
            a4, b4 = _unit(gen, 4), _unit(gen, 4)
            algebra = al.j_family(i, j, a4, b4)
            expected = al.tau_block(i, j, a4, b4, TOL)
        elif which == 1:
            i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
            qs = tuple(_unit(gen, 4) for _ in range(4))
            algebra = al.k_family(i, j, *qs)
            expected = al.t_block(i, j, *qs, TOL)
        else:
            i1, j1, i2, j2 = _random_valid_g_indices(gen)
            gp = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
            if not d33.in_d1133(gp, TOL):
                continue
            algebra = al.g_family(i1, j1, i2, j2, gp.alpha, gp.beta)
            expected = "D1133"
        got = cl.analyze(algebra, TOL).block.kind
        if got != expected:
            return False, f"expected {expected}, detected {got}"
        count += 1
    return True, f"{count} random draws"


def check_classify_enumerate(gen, fast):
    counts = {"D17": 4, "D8": 1, "D35": 3}
    for kind, expected in counts.items():
        forms = list(cl.enumerate_block(kind, 1, TOL))
        if len(forms) != expected:
            return False, f"{kind}: {len(forms)} items"
        signs = {(f.block.sign.i, f.block.sign.j) for f in forms}
        if len(signs) != expected:
            return False, f"{kind}: repeated double signs"
    if any((f.block.sign.i, f.block.sign.j) == (1, 1)
           for f in cl.enumerate_block("D35", 1, TOL)):
        return False, "the (-,-) component of the {3,5} block must be empty"
    return True, "D17=4, D8=1, D35=3"


def check_classify_orbit_constancy(gen, fast):
    """canonical is constant on kappa_hat orbits: the tau-family point (a, b)
    and its conjugate (kappa_q a, kappa_q b), built directly, agree."""
    trials = 5 if fast else 20
    for _ in range(trials):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        a4, b4, q = _unit(gen, 4), _unit(gen, 4), _unit(gen, 4)
        f1 = cl.canonical(al.j_family(i, j, a4, b4), TOL)
        f2 = cl.canonical(al.j_family(i, j, oc.quat_kappa(q, a4), oc.quat_kappa(q, b4)), TOL)
        if not cl._params_close(f1.block.kind, f1.params, f2.params):
            return False, "kappa_hat conjugation changed the canonical point"
    return True, f"{trials} orbit points"


CHECKS = [
    ("mul.trick_identity", check_mul_trick_identity),
    ("mul.norm_multiplicative", check_mul_norm_multiplicative),
    ("mul.alternative", check_mul_alternative),
    ("mul.conj_antihomomorphism", check_mul_conj_antihomomorphism),
    ("maps.orthogonal", check_maps_orthogonal),
    ("maps.automorphisms", check_maps_automorphisms),
    ("maps.semidirect_homomorphism", check_maps_semidirect_homomorphism),
    ("maps.tau_conjugation", check_maps_tau_conjugation),
    ("maps.T_conjugation", check_maps_T_conjugation),
    ("maps.block_forms", check_maps_block_forms),
    ("algebra.double_signs", check_algebra_double_signs),
    ("algebra.division_norm", check_algebra_division_norm),
    ("derivations.dimensions", check_derivation_dimensions),
    ("derivations.partitions", check_derivation_partitions),
    ("derivations.skewness", check_derivation_skewness),
    ("derivations.trivial_submodule", check_trivial_submodule_subalgebra),
    ("normal_form.invariance_pairs", check_nf_invariance_TxT),
    ("normal_form.invariance_bracket_pairs", check_nf_invariance_pair),
    ("normal_form.idempotence", check_nf_idempotence),
    ("normal_form.irredundancy", check_nf_irredundancy),
    ("triality.automorphism_pairs", check_triality_g2_pairs),
    ("triality.closed_forms", check_triality_closed_forms),
    ("triality.reconstruction_identities", check_triality_identities),
    ("block1133.roundtrip", check_d1133_roundtrip),
    ("block1133.witness", check_d1133_witness),
    ("block1133.exclusion_unique", check_d1133_exclusion),
    ("block1133.iso_oracle", check_d1133_oracle),
    ("classify.block_detection", check_classify_blocks),
    ("classify.enumerate_counts", check_classify_enumerate),
    ("classify.orbit_constancy", check_classify_orbit_constancy),
]


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _os_threads():
    """OS threads of this process, as Linux lists them in /proc/self/task;
    None where the platform does not list them."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _worker_count():
    """Workers to fork beside this process: one per further usable CPU, and
    none where os.fork is missing or the process may run other threads.  A
    forked child holds only the forking thread, so a lock another thread held
    stays held, and a BLAS thread pool starts again in every worker: with two
    BLAS threads per process, forking made the checks of `verify --fast` about
    2.5 times slower on a two-core host."""
    if not hasattr(os, "fork") or _os_threads() != 1:
        return 0
    return min(_usable_cpus(), len(CHECKS)) - 1


def _run_check(index, gens, fast):
    """(passed, detail) of CHECKS[index] on its own generator; a check that
    raises fails with the exception's message."""
    try:
        passed, detail = CHECKS[index][1](gens[index], fast)
    except Exception as err:
        passed, detail = False, f"{type(err).__name__}: {err}"
    return bool(passed), str(detail)


def _take(tasks):
    """Check indices read from the task pipe, one byte per read, until it is empty."""
    while index := os.read(tasks, 1):
        yield index[0]


def _fork_worker(tasks, gens, fast):
    """Fork a worker that runs the checks it takes from tasks; returns its pid
    and its result pipe, open for reading.  For each check the worker writes
    the index as it takes it, then [index, passed, detail] as the check ends,
    one JSON line each.  It leaves only through os._exit, so it never returns
    into the caller's stack or flushes the stdout buffer it inherited."""
    results, into = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(results)
        os.close(into)
        raise
    if pid:
        os.close(into)
        return pid, open(results, encoding="ascii")
    code = 1
    try:
        os.close(results)
        with open(into, "w", encoding="ascii", buffering=1) as lines:
            for index in _take(tasks):
                print(index, file=lines)
                print(json.dumps([index, *_run_check(index, gens, fast)]), file=lines)
        code = 0
    finally:
        os._exit(code)


def _collect(lines, reports):
    """Store a worker's reports by index; returns the index it took but did
    not report, or None."""
    taken = None
    for line in lines:
        if not line.endswith("\n"):  # cut off where the worker ended
            break
        row = json.loads(line)
        if isinstance(row, int):
            taken = row
        else:
            reports[row[0]], taken = tuple(row[1:]), None
    return taken


def verify_suite(seed=DEFAULT_SEED, fast=False):
    """Run every named check with its own generator derived from the seed
    and the check name; returns (name, passed, detail) triples in
    declaration order.

    The check indices go into one pipe.  This process and one forked worker
    per further usable CPU (see _worker_count) take them one at a time, so
    the checks run in parallel and each triple is the one a serial run
    gives.  A check whose worker ended before reporting it fails with the
    worker's exit status.  Every worker is reaped before this returns or
    raises.
    """
    gens = [rng([seed] + list(name.encode())) for name, _ in CHECKS]
    reports = [(False, "no worker reported it")] * len(CHECKS)
    tasks, feed = os.pipe()
    os.write(feed, bytes(range(len(CHECKS))))
    os.close(feed)
    workers = {}
    try:
        for _ in range(_worker_count()):
            try:
                pid, lines = _fork_worker(tasks, gens, fast)
            except OSError:  # no process to spare: this process takes the rest
                break
            workers[pid] = lines
        for index in _take(tasks):
            reports[index] = _run_check(index, gens, fast)
        for pid, lines in list(workers.items()):
            with lines:
                taken = _collect(lines, reports)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[pid]
            if taken is not None:
                ended = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                reports[taken] = (False, f"worker ended before reporting it ({ended})")
    finally:
        os.close(tasks)
        if workers:  # only when this process raised: stop the rest at once
            import signal

            for pid, lines in workers.items():
                lines.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [(name, *report) for (name, _), report in zip(CHECKS, reports)]
