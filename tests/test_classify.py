import numpy as np
import pytest

from compalg import algebra as al
from compalg import classify as cl
from compalg import maps as mp
from compalg import octonion as oc
from compalg.errors import NotInBlock, RawTensorNotSupported
from compalg.numerics import TolerancePolicy

from conftest import imaginary_unit_quaternion, unit

U4 = np.array([0.0, 1, 0, 0])
V4 = np.array([0.0, 0, 1, 0])


def test_analyze_octonions():
    rep = cl.analyze(al.octonion_algebra())
    assert rep.block.kind == "D17"
    assert rep.double_sign.signs == (1, 1)
    assert rep.der_dim == 14
    assert rep.partition == (1, 7)
    assert rep.trivial_dim == 1


def test_analyze_okubo():
    rep = cl.analyze(al.okubo_p11())
    assert rep.block.kind == "D8"
    assert rep.double_sign.signs == (-1, -1)
    assert rep.der_dim == 8
    assert rep.trivial_dim == 0
    assert rep.partition == (8,)


def test_analyze_p35():
    rep = cl.analyze(al.p35(0, 1))
    assert rep.block.kind == "D35"
    assert rep.partition == (3, 5)
    assert rep.double_sign.signs == (1, -1)


def test_analyze_detects_sub_blocks(gen):
    rep = cl.analyze(al.j_family(0, 0, -np.array([1.0, 0, 0, 0]), -np.array([1.0, 0, 0, 0])))
    assert rep.block.kind == "D134s"
    rep = cl.analyze(al.j_family(0, 0, U4, V4))
    assert rep.block.kind == "D134a"
    rep = cl.analyze(al.quat4(1, 0))
    assert rep.block.kind == "D4"


def test_analyze_raw_g_family_recovers_indices(gen):
    for _ in range(5):
        i1, j1 = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        i2, j2 = (1, int(gen.integers(0, 2))) if gen.integers(0, 2) \
            else (int(gen.integers(0, 2)), 1)
        a = al.g_family(i1, j1, i2, j2, gen.uniform(0.1, 1.4), gen.uniform(0.1, 3.0))
        raw = al.Algebra(a.sc.copy())  # forget the label entirely
        rep = cl.analyze(raw)
        assert rep.block.kind == "D1133"
        assert rep.block.d1133_indices == (i1, j1, i2, j2)


def test_analyze_not_in_category():
    two_dim = al.Algebra(oc.STRUCTURE[:2, :2, :2].astype(float))
    rep = cl.analyze(two_dim)
    assert rep.block.kind == "NotInD"


def test_canonical_standard_families():
    form = cl.canonical(al.standard_isotope(1, 0))
    assert form.block.kind == "D17" and form.params is None
    form = cl.canonical(al.okubo_p11())
    assert form.block.kind == "D8"
    form = cl.canonical(al.p35(1, 0))
    assert form.block.kind == "D35"
    form = cl.canonical(al.quat4(0, 1))
    assert form.block.kind == "D4"


def test_canonical_trichotomy(gen):
    one = np.array([1.0, 0, 0, 0])
    assert cl.canonical(al.j_family(0, 1, one, one)).block.kind == "D17"
    t = al.OKUBO_TWIST
    form = cl.canonical(al.j_family(1, 1, t, oc.quat_mul(t, t)))
    assert form.block.kind == "D8"
    # okubo parameters at other double signs stay in the three-part block
    form = cl.canonical(al.j_family(0, 1, t, oc.quat_mul(t, t)))
    assert form.block.kind == "D134a"
    form = cl.canonical(al.j_family(0, 0, -one, -one))
    assert form.block.kind == "D134s"


def test_canonical_okubo_point_matches_fixed_twist(gen):
    w = imaginary_unit_quaternion(gen)
    a = -0.5 * np.array([1.0, 0, 0, 0]) + (np.sqrt(3) / 2) * w
    b = -0.5 * np.array([1.0, 0, 0, 0]) - (np.sqrt(3) / 2) * w
    alg = al.j_family(1, 1, a, b)
    form = cl.canonical(alg)
    assert form.block.kind == "D8"
    # the canonical pair is the fixed cube-root point (-1/2 + sqrt(3)/2 u, ...)
    assert np.allclose(form.params.a, al.OKUBO_TWIST, atol=1e-9)
    assert np.allclose(form.params.b, oc.quat_mul(al.OKUBO_TWIST, al.OKUBO_TWIST), atol=1e-9)
    verdict = cl.isomorphic(alg, al.okubo_p11())
    assert verdict.verdict == "yes"
    assert verdict.witness is not None


def test_canonical_lands_in_transversal(gen):
    from compalg import normal_form as nf

    for _ in range(10):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        form = cl.canonical(al.j_family(i, j, unit(gen, 4), unit(gen, 4)))
        if form.block.kind.startswith("D134"):
            ok, _ = nf.in_M(form.params)
            assert ok
    for _ in range(10):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        form = cl.canonical(al.k_family(i, j, *(unit(gen, 4) for _ in range(4))))
        ok, _ = nf.in_N(form.params)
        assert ok
        assert not all(nf.is_pm_one(q) for pair in form.params for q in pair)


def test_canonical_k_family_dichotomy(gen):
    u = U4
    a = np.array([np.cos(0.7), np.sin(0.7), 0, 0])
    assert cl.canonical(al.k_family(0, 1, a, -a, u, u)).block.kind == "D116"
    assert cl.canonical(al.k_family(0, 1, a, a, u, u)).block.kind == "D1124"
    b2 = np.array([np.cos(0.9), 0, np.sin(0.9), 0])
    assert cl.canonical(al.k_family(0, 1, a, -a, u, b2)).block.kind == "D11114"


def test_tight_tolerance_keeps_a_near_unit_label():
    # a1 of norm 1 + 1e-10 passes the input check at 1e-9; a decision
    # tolerance of 1e-12 must not re-run that check, and reaches the same form
    def cx(angle):
        return np.array([np.cos(angle), np.sin(angle), 0.0, 0.0])

    k = al.k_family(0, 1, (1 + 1e-10) * cx(0.5), cx(0.8), np.array([0.6, 0, 0.8, 0]), U4)
    tight = cl.canonical(k, TolerancePolicy(1e-12))
    assert str(tight.block) == "D11114^(+,-)"
    assert tight.to_json() == cl.canonical(k).to_json()


def test_user_tolerance_reaches_the_rank_cut_and_the_deadband():
    # a1 has an imaginary part of norm 1e-6: outside the default deadband,
    # inside that of 1e-5, where the derivation rank cut and the parameter
    # deadband both read the point as all four parameters in {1, -1}
    one = np.array([1.0, 0, 0, 0])
    k = al.k_family(0, 0, np.array([1.0, 1e-6, 0, 0]) / np.hypot(1.0, 1e-6), one, one, one)
    rep = cl.analyze(k)
    assert (str(rep.block), rep.der_dim, rep.lie_type.value) == ("D1124^(+,+)", 4, "su2+center")
    assert str(cl.canonical(k).block) == "D1124^(+,+)"
    loose = TolerancePolicy(1e-5)
    rep = cl.analyze(k, loose)
    assert (str(rep.block), rep.der_dim, rep.lie_type.value) == ("D17^(+,+)", 14, "g2")
    with pytest.raises(NotInBlock):
        cl.canonical(k, loose)


def test_canonical_lambda_family(gen):
    t1, t2 = unit(gen, 2), unit(gen, 2)
    form = cl.canonical(al.lambda_family(0, 1, t1, t2))
    assert form.block.kind == "D116"
    # lambda pairs rewrite exactly to T pairs
    qs = cl._lambda_to_t(1, 0, t1, t2)
    lam_f = mp.lambda_map(t1, 0).mat
    t_f = mp.T_map(qs[0], qs[1], 0).mat
    assert np.max(np.abs(lam_f - t_f)) < 1e-12
    lam_g = mp.lambda_map(t2, 1).mat
    t_g = mp.T_map(qs[2], qs[3], 1).mat
    assert np.max(np.abs(lam_g - t_g)) < 1e-12


def test_canonical_g_family_and_exclusion():
    form = cl.canonical(al.g_family(0, 0, 0, 1, 0.3, 2.0))
    assert form.block.kind == "D1133"
    assert form.block.d1133_indices == (0, 0, 0, 1)
    with pytest.raises(NotInBlock):
        cl.canonical(al.g_family(0, 0, 0, 1, np.pi / 2, 0.0))


def test_canonical_requires_provenance():
    with pytest.raises(RawTensorNotSupported):
        cl.canonical(al.Algebra(oc.STRUCTURE.astype(float)))


def test_canonical_witness_maps_onto_representative(gen):
    for _ in range(10):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        a = al.j_family(i, j, unit(gen, 4), unit(gen, 4))
        form = cl.canonical(a)
        target = cl.canonical_algebra(form)
        assert cl.witness_residual(form.witness, a, target) < 1e-8
    for _ in range(5):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        a = al.k_family(i, j, *(unit(gen, 4) for _ in range(4)))
        form = cl.canonical(a)
        target = cl.canonical_algebra(form)
        assert cl.witness_residual(form.witness, a, target) < 1e-8


def test_canonical_orbit_constant(gen):
    # a point and its kappa_q conjugate, both built directly from parameters
    for _ in range(20):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        a4, b4, q = unit(gen, 4), unit(gen, 4), unit(gen, 4)
        a = al.j_family(i, j, a4, b4)
        moved = al.j_family(i, j, oc.quat_kappa(q, a4), oc.quat_kappa(q, b4))
        f1, f2 = cl.canonical(a), cl.canonical(moved)
        assert cl._params_close(f1.block.kind, f1.params, f2.params)
    for _ in range(10):
        i, j = int(gen.integers(0, 2)), int(gen.integers(0, 2))
        qs = [unit(gen, 4) for _ in range(4)]
        q = unit(gen, 4)
        a = al.k_family(i, j, *qs)
        moved = al.k_family(i, j, *(oc.quat_kappa(q, x) for x in qs))
        f1, f2 = cl.canonical(a), cl.canonical(moved)
        assert f1.block.kind == f2.block.kind
        assert cl._params_close(f1.block.kind, f1.params, f2.params)


def _random_orthogonal(gen, n, det=1.0):
    m = np.linalg.qr(gen.standard_normal((n, n)))[0]
    if np.linalg.det(m) * det < 0:
        m[:, 0] *= -1
    return m


def _random_g2(gen):
    from compalg.verify import _random_cayley_triple

    return mp.g2_from_triples(oc.CayleyTriple.fixed(), _random_cayley_triple(gen)).mat


#: One point of each family whose automorphism group is not all of G2, or
#: whose parameters move under G2.
TRANSPORTED_POINTS = {
    "okubo": lambda gen: al.okubo_p11(),
    "p35": lambda gen: al.p35(0, 0),
    "tau": lambda gen: al.j_family(1, 0, unit(gen, 4), unit(gen, 4)),
    "T": lambda gen: al.k_family(0, 1, *(unit(gen, 4) for _ in range(4))),
    "lambda": lambda gen: al.lambda_family(1, 1, unit(gen, 2), unit(gen, 2)),
    "g": lambda gen: al.g_family(1, 0, 0, 1, 0.7, 2.1),
}


def _assert_transport_witnessed(a, phi):
    b = al.transport(phi, a)
    form = cl.canonical(b)
    assert cl.witness_residual(form.witness, b, cl.canonical_algebra(form)) < 1e-8
    verdict = cl.isomorphic(a, b)
    assert verdict.verdict == "yes", verdict.reason
    assert cl.witness_residual(verdict.witness, a, b) < 1e-8


@pytest.mark.parametrize("name", sorted(TRANSPORTED_POINTS))
def test_transport_by_any_orthogonal_map_keeps_a_witnessed_form(gen, name):
    a = TRANSPORTED_POINTS[name](gen)
    g2, so8 = _random_g2(gen), _random_orthogonal(gen, 8)
    for phi in (g2, so8, so8 @ g2):
        _assert_transport_witnessed(a, phi)
    # a frame composed over two transports serves as well as one
    _assert_transport_witnessed(al.transport(g2, a), so8)


def test_transport_of_quat4_keeps_a_witnessed_form(gen):
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for det in (1.0, -1.0):
            _assert_transport_witnessed(al.quat4(i, j), _random_orthogonal(gen, 4, det))


def test_isomorphic_verdicts(gen):
    a = al.j_family(0, 0, U4, V4)
    b = al.transport(mp.kappa_hat_map(unit(gen, 4)), a)
    verdict = cl.isomorphic(a, b)
    assert verdict.verdict == "yes"
    assert cl.witness_residual(verdict.witness, a, b) < 1e-8
    assert cl.isomorphic(al.standard_isotope(0, 0), al.standard_isotope(0, 1)).verdict == "no"
    # same block and sign, different canonical point
    c = al.j_family(0, 0, U4, np.array([np.cos(0.3), np.sin(0.3), 0, 0]))
    d = al.j_family(0, 0, U4, np.array([np.cos(0.9), np.sin(0.9), 0, 0]))
    assert cl.isomorphic(c, d).verdict == "no"
    # raw tensors in a continuous block stay undecided
    raw1 = al.Algebra(c.sc.copy())
    raw2 = al.Algebra(c.sc.copy())
    assert cl.isomorphic(raw1, raw2).verdict == "unknown"


def test_isomorphic_okubo_classes(gen):
    t = al.OKUBO_TWIST
    points = []
    for _ in range(3):
        w = imaginary_unit_quaternion(gen)
        a = -0.5 * np.array([1.0, 0, 0, 0]) + (np.sqrt(3) / 2) * w
        points.append(al.j_family(1, 1, a, oc.quat_mul(a, a)))
    for alg in points:
        verdict = cl.isomorphic(alg, al.okubo_p11())
        assert verdict.verdict == "yes"


def test_isomorphic_reflexive_symmetric(gen):
    draws = [al.j_family(1, 0, unit(gen, 4), unit(gen, 4)),
             al.g_family(0, 1, 1, 1, 0.4, 1.2),
             al.k_family(1, 1, *(unit(gen, 4) for _ in range(4)))]
    for a in draws:
        assert cl.isomorphic(a, a).verdict == "yes"


def test_enumerate_counts():
    assert len(list(cl.enumerate_block("D17"))) == 4
    assert len(list(cl.enumerate_block("D8"))) == 1
    d35 = list(cl.enumerate_block("D35"))
    assert len(d35) == 3
    assert all((f.block.sign.i, f.block.sign.j) != (1, 1) for f in d35)
    assert len(list(cl.enumerate_block("D4"))) == 4
    assert len(list(cl.enumerate_block("D134s"))) == 12


def test_enumerate_grid_blocks_pass_membership():
    from compalg import normal_form as nf

    forms = list(cl.enumerate_block("D134a", grid=2))
    assert forms
    for f in forms:
        ok, _ = nf.in_M(f.params)
        assert ok and f.block.kind == "D134a"
    forms = list(cl.enumerate_block("D1133", grid=2))
    assert forms
    for f in forms:
        assert f.block.kind == "D1133"
    forms = list(cl.enumerate_block("D116", grid=2))
    assert forms
    for f in forms:
        ok, _ = nf.in_N(f.params)
        assert ok


@pytest.mark.parametrize("kind", ["D1124", "D11114"])
def test_enumerate_bracket_grids(kind):
    from compalg import normal_form as nf

    # odd grids hold the self-mirrored middle angle, whose mirror pairs the
    # grid drops by index
    for grid in (2, 3, 5):
        forms = list(cl.enumerate_block(kind, grid))
        assert forms
        for f in forms:
            first, second = f.params
            assert al.t_block(f.block.sign.i, f.block.sign.j, *first, *second) == kind
            assert nf.in_N(f.params)[0]
        for k, f in enumerate(forms):
            for g in forms[k + 1:]:
                if str(f.block) == str(g.block):
                    assert not cl._params_close(kind, f.params, g.params, 1e-6)


def test_enumerate_pairwise_non_isomorphic():
    forms = list(cl.enumerate_block("D134a", grid=2))
    for i in range(len(forms)):
        for k in range(i + 1, len(forms)):
            same_sign = str(forms[i].block) == str(forms[k].block)
            if same_sign:
                assert not cl._params_close("D134a", forms[i].params, forms[k].params, 1e-6)
