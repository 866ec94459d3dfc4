import numpy as np
import pytest

from compalg import normal_form as nf
from compalg import octonion as oc
from compalg.errors import NotCanonical

from conftest import unit

ONE4 = nf.ONE4
U4 = nf.U4
V4 = nf.V4
UV4 = nf.UV4


def grid_rotations(gen, count):
    qs = gen.standard_normal((count, 4))
    return qs / np.linalg.norm(qs, axis=1)[:, None]


def test_actions(gen):
    x = nf.make_pair(unit(gen, 4), unit(gen, 4))
    same = nf.act_TxT(ONE4, x)
    assert same.close_to(x, 1e-15)
    # conjugation by u flips v and uv (quaternion oracle)
    moved = nf.act_TxT(U4, nf.make_pair(V4, UV4))
    assert moved.close_to(nf.make_pair(-V4, -UV4), 1e-15)
    br = nf.act_bracket(U4, nf.BracketTT.of(V4, UV4))
    assert br.close_to(nf.BracketTT.of(V4, UV4), 1e-15)  # sign absorbed


def test_sign_normalization():
    br = nf.BracketTT.of(-U4, V4)
    assert np.allclose(br.rep.a, U4)
    assert np.allclose(br.rep.b, -V4)


def test_nf_TxT_fixed_point():
    r = nf.nf_TxT(nf.make_pair(ONE4, ONE4))
    assert r.canonical.close_to(nf.make_pair(ONE4, ONE4), 1e-15)
    assert np.array_equal(r.witness_q, ONE4)
    assert r.tag == "pm1_pm1"


def test_nf_TxT_v_u_example(gen):
    # (v, u) reduces to (u, v); confirmed by brute-force search over rotations
    r = nf.nf_TxT(nf.make_pair(V4, U4))
    assert r.canonical.close_to(nf.make_pair(U4, V4), 1e-12)
    target = r.canonical
    qs = grid_rotations(gen, 4000)
    best = None
    for q in qs:
        moved = nf.act_TxT(q, nf.make_pair(V4, U4))
        d = max(np.max(np.abs(moved.a - target.a)), np.max(np.abs(moved.b - target.b)))
        best = d if best is None else min(best, d)
    assert best < 0.2  # the canonical point is reachable by rotations


def test_nf_TxT_invariance(gen):
    for _ in range(300):
        x = nf.make_pair(unit(gen, 4), unit(gen, 4))
        q = unit(gen, 4)
        r1, r2 = nf.nf_TxT(x), nf.nf_TxT(nf.act_TxT(q, x))
        assert r1.canonical.close_to(r2.canonical, 1e-8)
        ok, _ = nf.in_M(r1.canonical)
        assert ok
        assert nf.act_TxT(r1.witness_q, x).close_to(r1.canonical, 1e-9)


def test_nf_TxT_canonical_points_are_fixed(gen):
    for _ in range(100):
        x = nf.make_pair(unit(gen, 4), unit(gen, 4))
        c = nf.nf_TxT(x).canonical
        again = nf.nf_TxT(c)
        assert again.canonical.close_to(c, 1e-9)
        assert abs(abs(again.witness_q[0]) - 1.0) < 1e-7


def test_nf_M1_examples():
    r = nf.nf_M1(nf.BracketTT.of(ONE4, -ONE4))
    assert r.canonical.close_to(nf.make_pair(ONE4, -ONE4), 1e-12)
    # [-1, -w]: flip then rotate w to the u-axis
    w = np.array([0.0, 0.6, 0.8, 0.0])
    r = nf.nf_M1(nf.BracketTT.of(-ONE4, -w))
    assert r.canonical.close_to(nf.make_pair(ONE4, U4), 1e-12)
    # negative real part in the first slot flips to the other representative
    a = np.array([np.cos(2.2), np.sin(2.2), 0, 0])
    r = nf.nf_M1(nf.BracketTT.of(a, ONE4))
    assert r.canonical.a[0] > 0 or r.canonical.b[0] > 0


def _p0(t):
    return np.array([np.cos(t), np.sin(t), 0.0, 0.0])


@pytest.mark.parametrize("a, b, tag", [
    (-ONE4, _p0(0.7), "1_P0"),
    ([0.5, -0.1, 0.7, 0.5], -ONE4, "P0_1"),
    (-_p0(0.4), [-0.28, -0.6, -0.75, 0.0], "P0_P_plus"),  # -(a, b), a in P0, b in P
    (-_p0(1.1), [0.36, -0.48, -0.8, 0.0], "P0_P_plus"),
], ids=["-1_P0", "a_-1", "-(P0_P)", "-(P0_P)-negative-b0"])
def test_nf_M1_other_representative_by_flip(a, b, tag):
    pair = nf.make_pair(*(np.divide(x, np.linalg.norm(x)) for x in (a, b)))
    assert not nf.in_M1(nf.nf_TxT(pair).canonical)[0]  # the flip path runs
    r = nf.nf_M1(pair)
    assert r.tag == tag and nf.in_M1(r.canonical) == (True, tag)
    moved = nf.act_TxT(r.witness_q, pair)
    assert moved.close_to(r.canonical, 1e-12) or \
        nf.PairTT(-moved.a, -moved.b).close_to(r.canonical, 1e-12)
    other = nf.nf_M1(nf.PairTT(-pair.a, -pair.b))
    assert other.tag == tag and other.canonical.close_to(r.canonical, 1e-12)


def test_nf_M1_invariance(gen):
    for _ in range(300):
        a, b = unit(gen, 4), unit(gen, 4)
        br = nf.BracketTT.of(a, b)
        r1 = nf.nf_M1(br)
        q = unit(gen, 4)
        sign = 1.0 if gen.integers(0, 2) else -1.0
        r2 = nf.nf_M1(nf.BracketTT.of(sign * oc.quat_kappa(q, a), sign * oc.quat_kappa(q, b)))
        assert r1.canonical.close_to(r2.canonical, 1e-8)
        ok, _ = nf.in_M1(r1.canonical)
        assert ok


def test_stabilizer_cases():
    assert nf.stabilizer_case(nf.make_pair(ONE4, -ONE4)) is nf.StabilizerCase.FULL
    assert nf.stabilizer_case(nf.make_pair(U4, U4)) is nf.StabilizerCase.CIRCLE_U_PLUS_VU
    assert nf.stabilizer_case(nf.make_pair(U4, V4)) is nf.StabilizerCase.TWO_ELT
    assert nf.stabilizer_case(nf.make_pair(ONE4, U4)) is nf.StabilizerCase.CIRCLE_U
    a = np.array([np.cos(0.5), np.sin(0.5), 0, 0])
    assert nf.stabilizer_case(nf.make_pair(a, ONE4)) is nf.StabilizerCase.CIRCLE_U
    b = np.array([np.cos(1.0), np.sin(1.0) * np.cos(0.7), np.sin(1.0) * np.sin(0.7), 0])
    assert nf.stabilizer_case(nf.make_pair(a, b)) is nf.StabilizerCase.TRIVIAL
    with pytest.raises(NotCanonical):
        nf.stabilizer_case(nf.make_pair(-ONE4, V4))


def test_stabilizers_actually_stabilize(gen):
    # members of each declared stabilizer subgroup fix the bracket
    cases = [
        (nf.make_pair(ONE4, U4), lambda g: np.array([np.cos(g), np.sin(g), 0, 0])),
        (nf.make_pair(U4, U4), lambda g: np.array([0, 0, np.cos(g), np.sin(g)])),
    ]
    for pair, q_of in cases:
        br = nf.BracketTT.of(pair.a, pair.b)
        for _ in range(20):
            q = q_of(gen.uniform(0, 2 * np.pi))
            assert nf.act_bracket(q, br).close_to(br, 1e-12)
    br = nf.BracketTT.of(U4, V4)
    assert nf.act_bracket(UV4, br).close_to(br, 1e-12)


def test_nf_pair_fixed_point():
    x = (nf.BracketTT.of(ONE4, ONE4), nf.BracketTT.of(ONE4, ONE4))
    r = nf.nf_pair(x)
    assert r.tag[0] is nf.StabilizerCase.FULL
    assert r.canonical[0].close_to(nf.make_pair(ONE4, ONE4), 1e-12)
    assert r.canonical[1].close_to(nf.make_pair(ONE4, ONE4), 1e-12)
    assert all(nf.is_pm_one(q) for pair in r.canonical for q in pair)


def test_nf_pair_two_circle_case(gen):
    for _ in range(30):
        x = (nf.BracketTT.of(U4, U4), nf.BracketTT.of(unit(gen, 4), unit(gen, 4)))
        r = nf.nf_pair(x)
        assert r.tag[0] is nf.StabilizerCase.CIRCLE_U_PLUS_VU
        ok, tag = nf.in_M3(r.canonical[1])
        assert ok
        ok, _ = nf.in_N(r.canonical)
        assert ok


def test_nf_pair_invariance(gen):
    for _ in range(500):
        x = (nf.BracketTT.of(unit(gen, 4), unit(gen, 4)),
             nf.BracketTT.of(unit(gen, 4), unit(gen, 4)))
        q = unit(gen, 4)
        r1 = nf.nf_pair(x)
        r2 = nf.nf_pair(nf.act_pair(q, x))
        assert r1.canonical[0].close_to(r2.canonical[0], 1e-8)
        assert nf.BracketTT.of(*r1.canonical[1]).close_to(
            nf.BracketTT.of(*r2.canonical[1]), 1e-8)
        # witness reproduces the canonical brackets
        m1 = nf.act_bracket(r1.witness_q, x[0])
        m2 = nf.act_bracket(r1.witness_q, x[1])
        assert m1.close_to(nf.BracketTT.of(*r1.canonical[0]), 1e-8)
        assert m2.close_to(nf.BracketTT.of(*r1.canonical[1]), 1e-8)


def test_nf_pair_structured_cases(gen):
    # first bracket in each stabilizer class, orbit invariance after disguise,
    # membership of the result in N and a witness that reproduces it
    S = nf.StabilizerCase
    firsts = [
        (ONE4, -ONE4, S.FULL),
        (np.array([np.cos(0.8), np.sin(0.8), 0, 0]), ONE4, S.CIRCLE_U),
        (U4, -U4, S.CIRCLE_U_PLUS_VU),
        (U4, np.array([0.0, np.cos(0.4), np.sin(0.4), 0]), S.TWO_ELT),
        (np.array([np.cos(0.3), np.sin(0.3), 0, 0]),
         np.array([np.cos(0.5), np.sin(0.5) * np.cos(0.7), np.sin(0.5) * np.sin(0.7), 0]),
         S.TRIVIAL),
    ]
    for a1, b1, case in firsts:
        x = (nf.BracketTT.of(a1, b1), nf.BracketTT.of(unit(gen, 4), unit(gen, 4)))
        r1 = nf.nf_pair(x)
        assert r1.tag[0] is case
        assert nf.in_N(r1.canonical) == (True, r1.tag)
        assert nf.act_bracket(r1.witness_q, x[1]).close_to(nf.BracketTT.of(*r1.canonical[1]), 1e-8)
        q = unit(gen, 4)
        r2 = nf.nf_pair(nf.act_pair(q, x))
        assert r1.canonical[0].close_to(r2.canonical[0], 1e-8)
        assert nf.BracketTT.of(*r1.canonical[1]).close_to(
            nf.BracketTT.of(*r2.canonical[1]), 1e-8)


def test_transversal_member_tags():
    ok, tag = nf.in_M(nf.make_pair(U4, V4))
    assert ok and tag == "P0_P"
    ok, tag = nf.in_M2(nf.make_pair(ONE4, ONE4))
    assert ok and tag == "c1"
    ok, _ = nf.in_M4(nf.make_pair(V4, unit(np.random.default_rng(1), 4)))
    assert isinstance(ok, bool)


def _q(*coords):
    v = np.array(coords, dtype=float)
    return v / np.linalg.norm(v)


#: (transversal, first component, member, near miss one deadband step past a
#: boundary of the member, constituent tag)
_CONSTITUENTS = [
    ("M2", V4, _q(0, 0.6, 0.8, 0), _q(0, -1e-6, 0.8, 0.6), "c2"),
    ("M3", ONE4, _q(0.5, 0.5, 0.7, 0), _q(0.5, -1e-6, 0.7, 0), "c1"),
    ("M3", _q(0.8, 0.6, 0, 0), _q(0.6, 0, 0.8, 0), _q(0.6, 0, 0.8, 1e-6), "c2"),
    ("M3", U4, _q(0.6, 0, 0.8, 0), _q(-1e-6, 0.6, 0.8, 0), "c3"),
    ("M3", V4, _q(0.6, 0.8, 0, 0), _q(0.6, -1e-6, 0, 0.8), "c4"),
    ("M3", _q(0, 0.6, 0.8, 0), _q(0.6, 0, 0.8, 0), _q(-1e-6, 0.6, 0.8, 0), "c5"),
    ("M3", _q(0.6, 0, 0.8, 0), _q(0, 0.6, 0.8, 0), _q(0.6, -1e-6, 0.8, 0), "c6"),
]


@pytest.mark.parametrize("which, a, member, miss, tag", _CONSTITUENTS)
def test_transversal_constituents(which, a, member, miss, tag):
    member_test = getattr(nf, f"in_{which}")
    assert member_test(nf.make_pair(a, member)) == (True, tag)
    assert member_test(nf.make_pair(a, miss)) == (False, None)


def test_T12_tie_membership():
    # pure (v, uv) values tie the first two coordinates at zero and stay members
    for b in (V4, np.array([0.0, 0, -1, 0])):
        assert nf.in_M2(nf.make_pair(V4, b)) == (True, "c2")


def test_irredundancy_grid(gen):
    qs = grid_rotations(gen, 3000)
    points = []
    while len(points) < 40:
        r = nf.nf_TxT(nf.make_pair(unit(gen, 4), unit(gen, 4)))
        points.append(r.canonical)
    from compalg.verify import _grid_min_distance

    checked = 0
    for k in range(0, 38, 2):
        x, y = points[k], points[k + 1]
        if x.close_to(y, 1e-3):
            continue
        assert _grid_min_distance(qs, x, y) > 1e-3
        checked += 1
    assert checked >= 15


def test_pair_angles():
    angles = nf.pair_angles(nf.make_pair(U4, V4))
    assert abs(angles["alpha"] - np.pi / 2) < 1e-12
    assert abs(angles["beta"] - np.pi / 2) < 1e-12


def test_nf_pair_of_moving_tuples_avoids_excluded_points(gen):
    # tuples with at least one non-real entry never reduce onto the four
    # fully-real canonical pairs
    for _ in range(100):
        a1 = unit(gen, 4)
        if np.max(np.abs(a1[1:])) < 0.1:
            continue
        x = (nf.BracketTT.of(a1, unit(gen, 4)),
             nf.BracketTT.of(unit(gen, 4), unit(gen, 4)))
        r = nf.nf_pair(x)
        assert not all(nf.is_pm_one(q) for pair in r.canonical for q in pair)


def test_boundary_flag_at_its_thresholds(tol):
    z, bound = tol.value, nf.BOUNDARY_FACTOR * tol.value
    cases = [(z, True), (-z, True), (bound, False), (-bound, False), (0.0, False), (-0.0, False),
             (np.nextafter(z, 0.0), False), (np.nextafter(bound, 0.0), True), (1.0, False)]
    for x, flagged in cases:
        pair = nf.PairTT(np.array([1.0, x, 0.0, 0.0]), np.array([x, 0.0, 1.0, 0.0]))
        assert nf._boundary_flag([pair], tol) is flagged
        assert nf._boundary_flag((nf.PairTT(pair.b, pair.a), pair), tol) is flagged


def test_is_pm_one_reads_the_imaginary_norm(tol):
    # the closed deadband on |Im q|: a rotation keeps it, so it cannot move
    # a component across the +-1 test the way per-coordinate signs can
    z = tol.value
    assert nf.is_pm_one(np.array([1.0, z, 0.0, 0.0]))
    assert nf.is_pm_one(np.array([-1.0, 0.0, 0.6 * z, -0.8 * z]))
    assert not nf.is_pm_one(np.array([1.0, 0.9 * z, 0.9 * z, 0.0]))
    assert not nf.is_pm_one(np.array([1.0, np.nextafter(z, 1.0), 0.0, 0.0]))


def test_nf_M1_tag_survives_a_rotation_inside_the_deadband():
    # kappa_q a has every imaginary coordinate within tol, but its
    # imaginary norm (1.25e-9) is not: both orbit points read P0 x P
    a = np.array([1.0, -1.2534902714072827e-09, 0.0, 0.0])
    b = np.array([-0.71905637832721125, -0.29362080951591624,
                  -0.62987676969878215, -1.9405503184632780e-09])
    q = np.array([-0.7807132733189112, -0.16799827354173189,
                  -0.26449296598906996, 0.5406540815465776])
    pair = nf.make_pair(a, b)
    moved = nf.act_TxT(q, pair)
    assert np.max(np.abs(moved.a[1:])) <= 1e-9 < np.linalg.norm(moved.a[1:])
    first, second = nf.nf_M1(pair), nf.nf_M1(moved)
    assert first.tag == second.tag == "P0_P_plus"
    assert first.canonical.close_to(second.canonical, 1e-8)


HALVES = np.full(4, 0.5)


@pytest.mark.parametrize("direction", [
    (-1.0, 0.0, 0.0),            # x = -1: the half-turn branch, exactly
    (-1.0, 6e-13, 8e-13),        # -u tilted by 1e-12 into (v, uv)
    (1.0, 0.0, 0.0),             # +u: the identity
    (0.0, -1.0, 0.0),            # -v: x = 0 exactly, the x >= 0 branch
], ids=["minus-u", "minus-u-tilted", "plus-u", "minus-v"])
def test_nf_TxT_rotates_the_first_component_onto_u(direction):
    w = np.array(direction) / np.linalg.norm(direction)
    pair = nf.make_pair(np.r_[0.6, 0.8 * w], HALVES)
    r = nf.nf_TxT(pair)
    assert np.max(np.abs(r.canonical.a - [0.6, 0.8, 0.0, 0.0])) < 1e-15
    assert nf.act_TxT(r.witness_q, pair).close_to(r.canonical, 1e-15)
    assert nf.in_M(r.canonical) == (True, "P0_P")


def _real(x):
    return np.array([x, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("a, b", [
    (np.full(4, np.nan), HALVES),
    (HALVES, np.full(4, np.nan)),
    (ONE4, np.array([0.5, np.nan, 0.5, 0.5])),
    (_real(np.nan), U4),
    (U4, _real(np.nan)),
    (_real(np.inf), U4),
    (_real(-np.inf), U4),
    (U4, _real(np.inf)),
    (U4, _real(-np.inf)),
    (HALVES, np.array([0.5, np.inf, 0.5, 0.5])),
], ids=["first", "second", "second-after-one", "first-real-nan", "second-real-nan",
        "first-real-inf", "first-real-minus-inf", "second-real-inf", "second-real-minus-inf",
        "second-imaginary-inf"])
def test_nf_TxT_rejects_nan(a, b):
    # a non-finite coordinate is an error wherever the float path reads it,
    # never a component snapped to +-1
    with pytest.raises(ValueError):
        nf.nf_TxT(nf.make_pair(a, b))
    with pytest.raises(ValueError):
        nf.nf_M1(nf.make_pair(a, b))
    with pytest.raises(ValueError):
        nf.BracketTT.of(a, b)
    bad = nf.BracketTT(rep=nf.make_pair(a, b))
    good = nf.BracketTT.of(HALVES, U4)
    for brackets in ((bad, good), (good, bad)):
        with pytest.raises(ValueError):
            nf.nf_pair(brackets)
    with pytest.raises(ValueError):
        nf.act_TxT(HALVES, nf.make_pair(a, b))


def _is_quaternion_array(q):
    return isinstance(q, np.ndarray) and q.dtype == np.float64 and q.shape == (4,)


def _check_contract(r, pairs):
    """Float64 (4,) arrays in every canonical pair and in the witness, and a
    Python bool flag."""
    assert all(isinstance(p, nf.PairTT) and _is_quaternion_array(p.a) and _is_quaternion_array(p.b)
               for p in pairs)
    assert _is_quaternion_array(r.witness_q)
    assert type(r.boundary_flag) is bool


# A point whose first component is already on the u-axis and whose second
# has a (v, uv)-part inside the deadband: no turn about u, and no snap.
_IN_DEADBAND = np.array([0.6, 0.8, 3e-10, -4e-10]) / np.linalg.norm([0.6, 0.8, 3e-10, -4e-10])


@pytest.mark.parametrize("a, b, tag", [
    (ONE4, -ONE4, "pm1_pm1"),                                    # both +-1: no rotation
    (-ONE4, HALVES, "pm1_P0"),                                   # a +-1 first component
    (HALVES, ONE4, "P0_pm1"),
    (HALVES, np.array([0.1, -0.7, 0.5, 0.5]), "P0_P"),
    (np.array([0.6, 0.8, 0.0, 0.0]), _IN_DEADBAND, "P0_P"),      # (v, uv)-part in the deadband
], ids=["pm1_pm1", "pm1_P0", "P0_pm1", "P0_P", "vuv-deadband"])
def test_nf_TxT_contract(a, b, tag):
    x = nf.make_pair(a, b / np.linalg.norm(b))
    r = nf.nf_TxT(x)
    _check_contract(r, [r.canonical])
    assert r.tag == tag and nf.in_M(r.canonical) == (True, tag)
    assert nf.act_TxT(r.witness_q, x).close_to(r.canonical, 1e-15)
    # the inputs are left as they were
    assert np.array_equal(x.a, a) and np.array_equal(x.b, b / np.linalg.norm(b))


@pytest.mark.parametrize("a, b, tag", [
    (ONE4, -ONE4, "1_pm1"),
    (-ONE4, HALVES, "1_P0"),
    (HALVES, ONE4, "P0_1"),
    (HALVES, np.array([0.1, -0.7, 0.5, 0.5]), "P0_P_plus"),
    (np.array([-0.6, 0.8, 0.0, 0.0]), _IN_DEADBAND, "P0_P_plus"),
])
def test_nf_M1_contract(a, b, tag):
    x = nf.BracketTT.of(a, b / np.linalg.norm(b))
    r = nf.nf_M1(x)
    _check_contract(r, [r.canonical])
    assert r.tag == tag and nf.in_M1(r.canonical) == (True, tag)
    assert nf.act_bracket(r.witness_q, x).close_to(nf.BracketTT.of(*r.canonical), 1e-15)


def test_nf_pair_contract():
    S = nf.StabilizerCase

    def cx(t):
        return np.array([np.cos(t), np.sin(t), 0.0, 0.0])

    firsts = {
        S.FULL: (ONE4, -ONE4),
        S.CIRCLE_U: (cx(0.8), ONE4),
        S.CIRCLE_U_PLUS_VU: (U4, -U4),
        S.TWO_ELT: (U4, np.array([0.0, 0.6, 0.8, 0.0])),
        S.TRIVIAL: (cx(0.3), np.array([0.6, 0.48, 0.64, 0.0])),
    }
    second = nf.BracketTT.of(HALVES, np.array([0.1, -0.7, 0.5, 0.5]))
    for case, (a1, b1) in firsts.items():
        x = (nf.BracketTT.of(a1, b1), second)
        r = nf.nf_pair(x)
        assert isinstance(r.canonical, tuple) and len(r.canonical) == 2
        _check_contract(r, r.canonical)
        assert r.tag[0] is case and isinstance(r.tag[1], str)
        assert nf.stabilizer_case(r.canonical[0]) is case
        assert nf.in_N(r.canonical) == (True, r.tag)
        for br, pair in zip(x, r.canonical):
            assert nf.act_bracket(r.witness_q, br).close_to(nf.BracketTT.of(*pair), 1e-12)
