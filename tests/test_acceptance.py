"""End-to-end acceptance checks.

One test per criterion; each prints a pass/fail line (visible with -s or in
captured output) and asserts at its stated tolerance.  Every randomized
sample is drawn from one fixed seed, so the run is reproducible.
"""

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
from compalg.numerics import rng
from compalg.verify import _grid_min_distance, _random_cayley_triple

from conftest import g_iso

SEED = 0xC0FFEE

ONE4 = np.array([1.0, 0, 0, 0])
U4 = np.array([0.0, 1, 0, 0])
V4 = np.array([0.0, 0, 1, 0])


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    return ok


def _unit(gen, n):
    v = gen.standard_normal(n)
    return v / np.linalg.norm(v)


def _valid_g_indices(gen):
    i1, j1 = int(gen.integers(0, 2)), int(gen.integers(0, 2))
    if gen.integers(0, 2):
        return i1, j1, 1, int(gen.integers(0, 2))
    return i1, j1, int(gen.integers(0, 2)), 1


def test_criterion_1_structure_sanity():
    exact = True
    for i in range(4):
        for j in range(4):
            x, y = oc.Octonion.basis(i), oc.Octonion.basis(j)
            if not np.array_equal(((oc.Z * x) * y).coords, (oc.Z * (y * x)).coords):
                exact = False
    gen = rng(SEED)
    worst = 0.0
    for _ in range(10_000):
        x = oc.Octonion(_unit(gen, 8))
        y = oc.Octonion(_unit(gen, 8))
        worst = max(worst, abs((x * y).norm() - 1.0))
    ok = exact and worst < 1e-12
    assert report(1, ok, f"norm deviation {worst:.2e} over 10^4 pairs"), worst


def test_criterion_2_derivation_dimensions():
    table = [
        ("octonions", al.octonion_algebra(), 14),
        ("okubo model", al.okubo_p11(), 8),
        ("quat(0,0)", al.quat4(0, 0), 3),
        ("quat(0,1)", al.quat4(0, 1), 3),
        ("quat(1,0)", al.quat4(1, 0), 3),
        ("quat(1,1)", al.quat4(1, 1), 3),
        ("tau point (-1,-1)", al.j_family(0, 0, -ONE4, -ONE4), 6),
    ]
    bad = []
    for name, algebra, expected in table:
        got = dv.derivation_basis(algebra).dim
        if got != expected:
            bad.append((name, expected, got))
    six_type = dv.lie_type(dv.derivation_basis(al.j_family(0, 0, -ONE4, -ONE4)))
    ok = not bad and six_type is dv.LieTypeLabel.SU2xSU2
    assert report(2, ok, "dimension table (common-axis item reported separately)"), bad


@pytest.mark.xfail(strict=True, reason=(
    "the conjugation centralizer of {u, v} in the unit quaternions is {1, -1}, "
    "so the derivation algebra at the (u, v) point is the 3-dimensional su2 "
    "(confirmed by exact rational rank of the 512x64 kernel system); the "
    "4-dimensional su2+center type needs both parameters on one imaginary "
    "axis, e.g. the (u, u) point"))
def test_criterion_2_uv_point_dimension_four():
    got = dv.derivation_basis(al.j_family(0, 0, U4, V4)).dim
    ok = got == 4
    report("2 [tau point (u,v) dim = 4]", ok, f"computed dimension {got}")
    assert ok
    assert dv.lie_type(dv.derivation_basis(al.j_family(0, 0, U4, V4))) is dv.LieTypeLabel.SU2xA1


def test_criterion_2_common_axis_point_dimension_four():
    # the nearest true statement to the item above: a one-axis pair not in
    # {1,-1}^2 has the su2+center derivation algebra of dimension 4
    der = dv.derivation_basis(al.j_family(0, 0, U4, U4))
    ok = der.dim == 4 and dv.lie_type(der) is dv.LieTypeLabel.SU2xA1
    assert report("2 [tau point (u,u) dim = 4]", ok, f"dimension {der.dim}")


def test_criterion_3_partitions():
    gen = rng(SEED + 3)
    mismatches = []

    def expect(name, algebra, target):
        got = dv.decompose(algebra).partition
        if got != target:
            mismatches.append((name, target, got))

    for i in (0, 1):
        for j in (0, 1):
            expect(f"standard({i},{j})", al.standard_isotope(i, j), (1, 7))
    expect("okubo", al.okubo_p11(), (8,))
    for i, j in ((0, 0), (0, 1), (1, 0)):
        expect(f"p35({i},{j})", al.p35(i, j), (3, 5))
    count = 0
    while count < 20:
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        a4, b4 = _unit(gen, 4), _unit(gen, 4)
        if not al.in_TxT_ij(i, j, a4, b4):
            continue
        expect("tau draw", al.j_family(i, j, a4, b4), (1, 3, 4))
        count += 1
    count = 0
    while count < 20:
        i1, j1, i2, j2 = _valid_g_indices(gen)
        gp = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        if not d33.in_d1133(gp):
            continue
        expect("two-parameter draw", al.g_family(i1, j1, i2, j2, gp.alpha, gp.beta),
               (1, 1, 3, 3))
        count += 1
    # T-type points chosen per the membership conditions
    for i, j in ((0, 1), (1, 0), (1, 1), (0, 0)):
        s, t = gen.uniform(0.2, np.pi - 0.2, 2)
        a = np.array([np.cos(s), np.sin(s), 0, 0])
        c = np.array([np.cos(t), np.sin(t), 0, 0])
        aligned = (a, (-1.0) ** j * a, c, (-1.0) ** i * c)
        if al.in_S(*aligned):
            expect("aligned T draw", al.k_family(i, j, *aligned), (1, 1, 6))
        one_axis = (a, c, U4, (-1.0) ** i * U4)
        if al.in_S_ij(i, j, *one_axis):
            expect("one-axis T draw", al.k_family(i, j, *one_axis), (1, 1, 2, 4))
        spread = (a, c, U4, np.array([np.cos(t), 0, np.sin(t), 0]))
        if al.in_S_ij(i, j, *spread):
            expect("spread T draw", al.k_family(i, j, *spread), (1, 1, 1, 1, 4))
    assert report(3, not mismatches, "partitions across all families"), mismatches


def test_criterion_4_double_signs():
    gen = rng(SEED + 4)
    bad = []
    for i in (0, 1):
        for j in (0, 1):
            ds = al.double_sign(al.standard_isotope(i, j))
            if (ds.i, ds.j) != (i, j):
                bad.append(("standard", i, j))
            if (i, j) != (1, 1):
                ds = al.double_sign(al.p35(i, j))
                if (ds.i, ds.j) != (i, j):
                    bad.append(("p35", i, j))
    if al.double_sign(al.okubo_p11()).signs != (-1, -1):
        bad.append(("okubo",))
    for _ in range(50):
        i1, j1, i2, j2 = _valid_g_indices(gen)
        a = al.g_family(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        ds = al.double_sign(a)
        if (ds.i, ds.j) != ((i1 + i2) % 2, (j1 + j2) % 2):
            bad.append(("g_family", i1, j1, i2, j2))
    assert report(4, not bad, "standard, okubo, special-subspace, 50 two-parameter draws"), bad


def test_criterion_5_normal_form_invariance():
    gen = rng(SEED + 5)
    worst = 0.0
    member_ok = idempotent_ok = pair_ok = True
    for _ in range(1000):
        x = nf.make_pair(_unit(gen, 4), _unit(gen, 4))
        q = _unit(gen, 4)
        r1, r2 = nf.nf_TxT(x), nf.nf_TxT(nf.act_TxT(q, x))
        worst = max(worst,
                    np.max(np.abs(r1.canonical.a - r2.canonical.a)),
                    np.max(np.abs(r1.canonical.b - r2.canonical.b)))
        member_ok &= nf.in_M(r1.canonical)[0]
        idempotent_ok &= nf.nf_TxT(r1.canonical).canonical.close_to(r1.canonical, 1e-9)
    for _ in range(1000):
        x = (nf.BracketTT.of(_unit(gen, 4), _unit(gen, 4)),
             nf.BracketTT.of(_unit(gen, 4), _unit(gen, 4)))
        q = _unit(gen, 4)
        r1 = nf.nf_pair(x)
        r2 = nf.nf_pair(nf.act_pair(q, x))
        pair_ok &= (r1.canonical[0].close_to(r2.canonical[0], 1e-8)
                    and nf.BracketTT.of(*r1.canonical[1]).close_to(
                        nf.BracketTT.of(*r2.canonical[1]), 1e-8))
        member_ok &= nf.in_N(r1.canonical)[0]
    ok = worst < 1e-8 and pair_ok and member_ok and idempotent_ok
    assert report(5, ok, f"max deviation {worst:.2e} over 1000+1000 trials"), \
        (worst, pair_ok, member_ok, idempotent_ok)


def test_criterion_6_irredundancy_grid():
    gen = rng(SEED + 6)
    qs = gen.standard_normal((10_000, 4))
    qs /= np.linalg.norm(qs, axis=1)[:, None]
    checked = 0
    connected = []
    while checked < 200:
        x = nf.nf_TxT(nf.make_pair(_unit(gen, 4), _unit(gen, 4))).canonical
        y = nf.nf_TxT(nf.make_pair(_unit(gen, 4), _unit(gen, 4))).canonical
        if x.close_to(y, 1e-3):
            continue
        best = _grid_min_distance(qs, x, y)
        if best < 1e-3:
            connected.append(best)
        checked += 1
    ok = not connected
    assert report(6, ok, f"{checked} distinct canonical pairs, 10^4-point grid"), connected


def test_criterion_7_triality():
    gen = rng(SEED + 7)
    worst_pair = 0.0
    for _ in range(100):
        phi = mp.g2_from_triples(oc.CayleyTriple.fixed(), _random_cayley_triple(gen))
        pair = tr.triality_pair(phi)
        dev = min(max(np.max(np.abs(pair.phi1 - phi.mat)), np.max(np.abs(pair.phi2 - phi.mat))),
                  max(np.max(np.abs(pair.phi1 + phi.mat)), np.max(np.abs(pair.phi2 + phi.mat))))
        worst_pair = max(worst_pair, dev)
    closed_ok = True
    worst_identity = 0.0
    for _ in range(50):
        rho = mp.g2_from_triples(oc.CayleyTriple.fixed(), _random_cayley_triple(gen))
        t8, s8 = _unit(gen, 8), _unit(gen, 8)
        phi = mp.left_right_mul_map(t8, s8, rho)
        pair = tr.triality_pair(phi)
        t, s = oc.Octonion(t8), oc.Octonion(s8)
        expected1 = oc.left_mul_matrix(t) @ oc.right_mul_matrix(t) \
            @ oc.right_mul_matrix(s.conj()) @ rho.mat
        expected2 = oc.left_mul_matrix(t.conj()) @ oc.left_mul_matrix(s) \
            @ oc.right_mul_matrix(s) @ rho.mat
        dev = min(max(np.max(np.abs(pair.phi1 - expected1)),
                      np.max(np.abs(pair.phi2 - expected2))),
                  max(np.max(np.abs(pair.phi1 + expected1)),
                      np.max(np.abs(pair.phi2 + expected2))))
        if dev > 1e-8 or pair.residual > 1e-8:
            closed_ok = False
        m = phi.mat
        lhs1 = oc.right_mul_matrix(oc.Octonion(pair.phi2[:, 0]).conj()) @ m
        lhs2 = oc.left_mul_matrix(oc.Octonion(pair.phi1[:, 0]).conj()) @ m
        worst_identity = max(worst_identity,
                             np.max(np.abs(lhs1 - pair.phi1)),
                             np.max(np.abs(lhs2 - pair.phi2)))
    ok = worst_pair < 1e-8 and closed_ok and worst_identity < 1e-8
    assert report(7, ok, f"pair dev {worst_pair:.2e}, identity dev {worst_identity:.2e}"), \
        (worst_pair, worst_identity)


def test_criterion_8_two_parameter_pipeline():
    gen = rng(SEED + 8)
    witness_ok = True
    for _ in range(50):
        i1, j1, i2, j2 = _valid_g_indices(gen)
        p = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        gamma = gen.uniform(0, np.pi)
        f, phi = d33.g_to_f(p, gamma)
        a = al.from_isotope(mp.G_map(p.alpha, gamma, j1, j2), mp.G_map(p.beta, gamma, i1, i2))
        b = al.from_isotope(mp.F_map(f.xi, j1, j2), mp.F_map(f.eta, i1, i2))
        if not tr.iso_isotopes(a, b, phi):
            witness_ok = False
    flip_ok = True
    for _ in range(50):
        i1, j1, i2, j2 = _valid_g_indices(gen)
        p = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        if not d33.in_d1133(p):
            continue
        flipped = d33.GParams(i1, j1, i2, j2, (-p.alpha) % np.pi, (-p.beta) % np.pi)
        c1, _ = d33.canonical_1133(p)
        c2, _ = d33.canonical_1133(flipped)
        if abs(c1.alpha - c2.alpha) > 1e-10 or abs(c1.beta - c2.beta) > 1e-10:
            flip_ok = False
    oracle_ok = True
    for _ in range(100):
        i1, j1, i2, j2 = _valid_g_indices(gen)
        p = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        if gen.integers(0, 2):
            q = d33.GParams(i1, j1, i2, j2,
                            (-p.alpha) % np.pi if gen.integers(0, 2) else p.alpha,
                            (-p.beta) % np.pi if gen.integers(0, 2) else p.beta)
        else:
            q = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        if g_iso(p, q) != d33.iso_1133_lattice_oracle(p, q):
            oracle_ok = False
    grid = np.arange(100) * np.pi / 100
    exclusion_ok = True
    for i1, j1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for i2, j2 in ((0, 1), (1, 0), (1, 1)):
            count = sum(1 for aa in grid for bb in grid
                        if not d33.in_d1133(d33.GParams(i1, j1, i2, j2, aa, bb)))
            if count != 1:
                exclusion_ok = False
    ok = witness_ok and flip_ok and oracle_ok and exclusion_ok
    assert report(8, ok, "witnesses, flip constancy, oracle, exclusion uniqueness"), \
        (witness_ok, flip_ok, oracle_ok, exclusion_ok)


def test_criterion_9_classification_counts():
    d17 = list(cl.enumerate_block("D17"))
    d8 = list(cl.enumerate_block("D8"))
    d35 = list(cl.enumerate_block("D35"))
    counts_ok = (len(d17), len(d8), len(d35)) == (4, 1, 3)
    signs17 = {(f.block.sign.i, f.block.sign.j) for f in d17}
    signs35 = {(f.block.sign.i, f.block.sign.j) for f in d35}
    distinct_ok = len(signs17) == 4 and len(signs35) == 3 and (1, 1) not in signs35
    ok = counts_ok and distinct_ok
    assert report(9, ok, f"counts {(len(d17), len(d8), len(d35))}, (-,-) empty in D35"), \
        (counts_ok, distinct_ok)


def test_criterion_10_end_to_end_block_detection():
    gen = rng(SEED + 10)
    total, mismatches = 0, []

    def check(algebra, expected):
        nonlocal total
        got = cl.analyze(algebra).block.kind
        if got != expected:
            mismatches.append((expected, got))
        total += 1

    while total < 60:
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        a4, b4 = _unit(gen, 4), _unit(gen, 4)
        check(al.j_family(i, j, a4, b4), al.tau_block(i, j, a4, b4, cl.DEFAULT_TOL))
    while total < 120:
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        qs = tuple(_unit(gen, 4) for _ in range(4))
        check(al.k_family(i, j, *qs), al.t_block(i, j, *qs, cl.DEFAULT_TOL))
    while total < 150:
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        t1, t2 = _unit(gen, 2), _unit(gen, 2)
        qs = cl._lambda_to_t(i, j, t1, t2)
        expected = al.t_block(i, j, *qs, cl.DEFAULT_TOL)
        if expected is None:
            continue
        check(al.lambda_family(i, j, t1, t2), expected)
    while total < 190:
        i1, j1, i2, j2 = _valid_g_indices(gen)
        gp = d33.GParams(i1, j1, i2, j2, gen.uniform(0, np.pi), gen.uniform(0, np.pi))
        if not d33.in_d1133(gp):
            continue
        check(al.g_family(i1, j1, i2, j2, gp.alpha, gp.beta), "D1133")
    check(al.standard_isotope(1, 0), "D17")
    check(al.okubo_p11(), "D8")
    check(al.p35(1, 0), "D35")
    for i in (0, 1):
        check(al.quat4(i, 1), "D4")
    while total < 200:
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        check(al.standard_isotope(i, j), "D17")
    ok = total >= 200 and not mismatches
    assert report(10, ok, f"{total} draws, {len(mismatches)} mismatches"), mismatches
