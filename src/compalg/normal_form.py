"""Normal forms for the conjugation actions of SO(3) on pairs of unit
quaternions, on sign classes of pairs, and on pairs of sign classes.

Quaternions are 4-vectors in the basis (1, u, v, uv).  The canonical sets:

* P  = units with no uv-part, v-part >= 0 and nonzero imaginary part,
* P0 = units of the form cos(a) + u sin(a) with sin(a) > 0,
* M  = ({+-1} x {+-1}) u ({+-1} x P0) u (P0 x {+-1}) u (P0 x P),

with refinements M1...M4 for the bracket actions, built from the same
coordinate inequalities plus lexicographic tie rules.  Every membership test,
stabilizer case and sign normalization reads the coordinates' signs from
numerics.deadband_signs at the tolerance, one closed deadband: |x| <= tol
counts as 0, so each coordinate has exactly one sign.  Results with a
coordinate in [tol, 10 tol) are flagged as near a boundary.

The reductions are constructive: rotate the first imaginary part onto the
u-axis by one closed form, then rotate about u to push the second
component's (v, uv)-part onto the +v ray.  Reductions modulo a stabilizer
subgroup enumerate its finitely many cosets combined with the same
closed-form angle placements, and keep the candidate that lands in the
target transversal; transversality makes that candidate unique.  One table
maps each stabilizer case of the first class of a pair to the second class's
transversal and cosets; in_N and nf_pair both read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotCanonical
from .numerics import DEFAULT_TOL, PAIR_TOL, deadband_signs, leading_sign, vanishes
from .octonion import quat_kappa as kappa
from .octonion import quat_mul

ONE4 = np.array([1.0, 0.0, 0.0, 0.0])
U4 = np.array([0.0, 1.0, 0.0, 0.0])
V4 = np.array([0.0, 0.0, 1.0, 0.0])
UV4 = np.array([0.0, 0.0, 0.0, 1.0])
_FLIP = np.array([-1.0, 1.0, 1.0, -1.0])  # -kappa_uv on coordinates

BOUNDARY_FACTOR = 10.0


@dataclass(frozen=True)
class PairTT:
    """An element of T x T."""

    a: np.ndarray
    b: np.ndarray

    def __iter__(self):
        yield self.a
        yield self.b

    def close_to(self, other, tol=PAIR_TOL):
        return (np.max(np.abs(self.a - other.a)) < tol
                and np.max(np.abs(self.b - other.b)) < tol)

    def to_json(self):
        out = {"a": self.a.tolist(), "b": self.b.tolist()}
        out.update(pair_angles(self))
        return out


def make_pair(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (4,) or b.shape != (4,):
        raise ValueError("pair entries must be quaternion 4-vectors")
    return PairTT(a.copy(), b.copy())


@dataclass(frozen=True)
class BracketTT:
    """A pair modulo simultaneous sign, stored by its sign-normalized
    representative (first coordinate beyond the deadband made positive)."""

    rep: PairTT

    @classmethod
    def of(cls, a, b, tol=DEFAULT_TOL):
        return cls(rep=_sign_normalize(make_pair(a, b), tol))

    def close_to(self, other, tol=PAIR_TOL):
        rep2 = other.rep if isinstance(other, BracketTT) else other
        flipped = PairTT(-rep2.a, -rep2.b)
        return self.rep.close_to(rep2, tol) or self.rep.close_to(flipped, tol)


def _sign_normalize(pair, tol=DEFAULT_TOL):
    if leading_sign(np.concatenate([pair.a, pair.b]), tol.value) < 0:
        return PairTT(-pair.a, -pair.b)
    return pair


class StabilizerCase(Enum):
    FULL = "full"
    CIRCLE_U = "circle_u"
    CIRCLE_U_PLUS_VU = "circle_u_plus_vu"
    TWO_ELT = "two_elt"
    TRIVIAL = "trivial"


@dataclass(frozen=True)
class NFResult:
    canonical: object            # PairTT, or (PairTT, PairTT) for pair reductions
    witness_q: np.ndarray        # rotation with kappa_q(input) ~ canonical
    tag: object                  # constituent tag(s)
    boundary_flag: bool = False


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------

def act_TxT(q, pair):
    q = np.asarray(q, dtype=float)
    return PairTT(kappa(q, pair.a), kappa(q, pair.b))


def act_bracket(q, br):
    """The sign class of kappa_q of br's representative, sign-normalized at DEFAULT_TOL."""
    return BracketTT(rep=_sign_normalize(act_TxT(q, br.rep)))


def act_pair(q, brackets):
    return (act_bracket(q, brackets[0]), act_bracket(q, brackets[1]))


# ---------------------------------------------------------------------------
# Coordinate predicates on deadband signs
# ---------------------------------------------------------------------------

def _signs(q, tol):
    return deadband_signs(q, tol.value)


def _pair_signs(pair, tol):
    a, b = pair
    return _signs(a, tol), _signs(b, tol)


# Signs of 1, u and v; the predicates below take the sign tuple s of a quaternion.
_ONE_S, _U_S, _V_S = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)


def _pm1(s):
    return s[1:] == (0, 0, 0)


def _P0(s):
    return s[1:] == (1, 0, 0)


def _P(s):
    return s[3] == 0 and s[2] >= 0 and not _pm1(s)


def _T(s, m, n):
    """T_mn: (q_m, q_n) >= (0, 0) lexicographically, coordinates numbered from 1."""
    return (s[m - 1], s[n - 1]) >= (0, 0)


def is_pm_one(q, tol=DEFAULT_TOL):
    """The imaginary part of the quaternion array q vanishes: its norm lies in
    the closed deadband of tol."""
    return vanishes(q[1:], tol.value)


# ---------------------------------------------------------------------------
# Transversal membership
# ---------------------------------------------------------------------------

def in_M(pair, tol=DEFAULT_TOL):
    sa, sb = _pair_signs(pair, tol)
    if _pm1(sa) and _pm1(sb):
        return True, "pm1_pm1"
    if _pm1(sa) and _P0(sb):
        return True, "pm1_P0"
    if _P0(sa) and _pm1(sb):
        return True, "P0_pm1"
    if _P0(sa) and _P(sb):
        return True, "P0_P"
    return False, None


def in_M1(pair, tol=DEFAULT_TOL):
    sa, sb = _pair_signs(pair, tol)
    if sa == _ONE_S and _pm1(sb):
        return True, "1_pm1"
    if sa == _ONE_S and _P0(sb):
        return True, "1_P0"
    if _P0(sa) and sb == _ONE_S:
        return True, "P0_1"
    if _P0(sa) and _P(sb) and (sa[0], sb[0]) >= (0, 0):
        return True, "P0_P_plus"
    return False, None


def in_M2(pair, tol=DEFAULT_TOL):
    sa, sb = _pair_signs(pair, tol)
    if (sa == _ONE_S or _P0(sa)) and (_pm1(sb) or _P(sb)):
        return True, "c1"
    if sa == _V_S and _T(sb, 1, 2):
        return True, "c2"
    if sa[2:] == (1, 0) and sa[:2] > (0, 0):
        return True, "c3"
    return False, None


#: M3 by the signs of the first component: its tag and the test on the
#: second component's signs.
_M3_CASES = {
    _ONE_S: ("c1", lambda s: _pm1(s) or (_P(s) and s[1] >= 0)),  # P with beta in [0, pi/2]
    (1, 1, 0, 0): ("c2", lambda s: _pm1(s) or _P(s)),
    _U_S: ("c3", lambda s: s == _ONE_S or (_P(s) and s[0] >= 0)),  # P with alpha in (0, pi/2]
    _V_S: ("c4", lambda s: _T(s, 1, 4) and _T(s, 2, 4)),
    (0, 1, 1, 0): ("c5", lambda s: _T(s, 1, 4)),
    (1, 0, 1, 0): ("c6", lambda s: _T(s, 2, 4)),
    (1, 1, 1, 0): ("c7", lambda s: True),
}


def in_M3(pair, tol=DEFAULT_TOL):
    sa, sb = _pair_signs(pair, tol)
    tag, member = _M3_CASES.get(sa, (None, None))
    return (True, tag) if member and member(sb) else (False, None)


def in_M4(pair, tol=DEFAULT_TOL):
    a, _ = pair
    sa = _signs(a, tol)
    if _T(sa, 1, 4) and _T(sa, 2, 3):
        return True, "c1"
    return False, None


def stabilizer_case(pair, tol=DEFAULT_TOL):
    """The five-way stabilizer classification of a sign class in M1."""
    ok, _ = in_M1(pair, tol)
    if not ok:
        raise NotCanonical("stabilizer classification needs a canonical M1 representative")
    a, b = pair
    sa, sb = _pair_signs(pair, tol)
    a_c, b_c = _pm1(sa), _pm1(sb)
    if a_c and b_c:
        return StabilizerCase.FULL
    if sa[2:] == sb[2:] == (0, 0):
        if sa[0] == sb[0] == 0 and not a_c and not b_c:
            return StabilizerCase.CIRCLE_U_PLUS_VU
        return StabilizerCase.CIRCLE_U
    in_uv_planes = sa[0] == sa[3] == sb[0] == sb[3] == 0
    if in_uv_planes and _signs(a[1] * b[2] - a[2] * b[1], tol) != (0,):
        return StabilizerCase.TWO_ELT
    return StabilizerCase.TRIVIAL


#: Stabilizer case of the first class -> (transversal of the second class,
#: coset representatives of the stabilizer's finite part, whether it holds
#: the circle about u).  FULL reduces by nf_M1; TRIVIAL takes any second class.
_SECOND_CLASS = {
    StabilizerCase.FULL: (in_M1, None, None),
    StabilizerCase.CIRCLE_U: (in_M2, (ONE4,), True),
    StabilizerCase.CIRCLE_U_PLUS_VU: (in_M3, (ONE4, V4), True),
    StabilizerCase.TWO_ELT: (in_M4, (ONE4, UV4), False),
    StabilizerCase.TRIVIAL: (None, None, None),
}


def in_N(brackets):
    """Membership in the transversal for the action on pairs of sign classes,
    at DEFAULT_TOL.

    Takes the pair of canonical pair representatives; the second component's
    target set is keyed by the stabilizer case of the first."""
    first, second = brackets
    ok, _ = in_M1(first)
    if not ok:
        return False, None
    case = stabilizer_case(first)
    member = _SECOND_CLASS[case][0]
    ok, tag = member(second) if member else (True, "any")
    if not ok:
        return False, None
    return True, (case, tag)


def _boundary_flag(pairs, tol):
    bound = BOUNDARY_FACTOR * tol.value
    for pair in pairs:
        for q in pair:
            for x in q.tolist():
                if tol.value <= abs(x) < bound:
                    return True
    return False


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

def _snap_sign(q):
    return np.array([1.0 if q[0] > 0 else -1.0, 0.0, 0.0, 0.0])


def _onto_u(im):
    """The unit quaternion q with q w conj(q) = u, w = (x, y, z) the unit
    direction of the nonzero imaginary part im, in closed form.

    For x >= 0 it is the half-way quaternion 1 - u w = (1 + x, 0, z, -y);
    otherwise that formula after the half-turn about v, (x, y, z) ->
    (-x, y, -z), times v: (1 - x, 0, -z, -y) v = (z, y, 1 - x, 0).  Both
    have norm at least 1 before normalizing, so nothing cancels.
    """
    x, y, z = (im / np.linalg.norm(im)).tolist()
    q = np.array([1.0 + x, 0.0, z, -y] if x >= 0.0 else [z, y, 1.0 - x, 0.0])
    return q / np.linalg.norm(q)


def _v_turn(q, tol):
    """The rotation about u that puts q's (v, uv)-part on the +v ray, or
    None when that part lies in the deadband."""
    if _signs(np.hypot(q[2], q[3]), tol) == (0,):
        return None
    half = -np.arctan2(q[3], q[2]) / 2.0
    return np.array([np.cos(half), np.sin(half), 0.0, 0.0])


def nf_TxT(pair, tol=DEFAULT_TOL):
    """Reduce a point of T x T into the transversal M.

    Rotate the imaginary part of the first component that is not +-1 onto
    the u-axis; if that is the first component, turn about u until the
    second one's (v, uv)-part lies on the +v ray.  Then snap each +-1
    component to exactly +-1, the first as read before the rotation (it
    picks what rotates) and the second as read after it, keeping its signs.
    """
    a, b = pair
    a_pm1 = is_pm_one(a, tol)
    q, moved = ONE4.copy(), pair
    if not (a_pm1 and is_pm_one(b, tol)):
        q = _onto_u((b if a_pm1 else a)[1:])
        moved = act_TxT(q, pair)
        turn = None if a_pm1 else _v_turn(moved.b, tol)
        if turn is not None:
            q, moved = quat_mul(turn, q), act_TxT(turn, moved)
    a1, b1 = moved
    canonical = PairTT(_snap_sign(a1) if a_pm1 else a1,
                       _snap_sign(b1) if is_pm_one(b1, tol) else b1)
    ok, tag = in_M(canonical, tol)
    return NFResult(canonical=canonical, witness_q=q, tag=tag,
                    boundary_flag=_boundary_flag([canonical], tol))


def nf_M1(bracket, tol=DEFAULT_TOL):
    """Reduce a sign class into M1 by one nf_TxT pass.

    If its point misses M1, the other representative's point is the flip
    x -> (-x0, x1, x2, -x3) = -kappa_uv(x) of both components, with witness
    uv q.  If both miss, the class sits on a deadband boundary: keep the
    point with the larger (a0, b0), tagged "boundary" and flagged."""
    pair = bracket.rep if isinstance(bracket, BracketTT) else bracket
    res = nf_TxT(pair, tol)
    first = res.canonical
    ok, tag = in_M1(first, tol)
    if ok:
        return NFResult(canonical=first, witness_q=res.witness_q, tag=tag,
                        boundary_flag=res.boundary_flag)
    flipped = PairTT(first.a * _FLIP, first.b * _FLIP)
    ok, tag = in_M1(flipped, tol)
    if ok or (flipped.a[0], flipped.b[0]) > (first.a[0], first.b[0]):
        canonical, q = flipped, quat_mul(UV4, res.witness_q)
    else:
        canonical, q = first, res.witness_q
    return NFResult(canonical=canonical, witness_q=q, tag=tag if ok else "boundary",
                    boundary_flag=res.boundary_flag or not ok)


def _u_rotations(pair, tol):
    """Closed-form rotations about the u-axis placing either component's
    (v, uv)-part on the +v ray, then the identity."""
    for q in pair:
        turn = _v_turn(q, tol)
        if turn is not None:
            yield turn
    yield ONE4


def _reduce_with_cosets(pair, cosets, member, circle, tol):
    """Reduce a sign class modulo (finite cosets) x (u-axis circle, if circle).

    Enumerates coset representative x sign x angle placement, filters by the
    target transversal; transversality makes any hit canonical."""
    for coset in cosets:
        base = act_TxT(coset, pair) if np.max(np.abs(coset - ONE4)) > 0 else pair
        for rep in (base, PairTT(-base.a, -base.b)):
            for qu in _u_rotations(rep, tol) if circle else (None,):
                cand = rep if qu is None else act_TxT(qu, rep)
                ok, tag = member(cand, tol)
                if ok:
                    return cand, coset if qu is None else quat_mul(qu, coset), tag
    return None


def nf_pair(brackets, tol=DEFAULT_TOL):
    """Reduce a pair of sign classes into the composite transversal.

    The first class goes into M1; the second is then reduced modulo the
    stabilizer of the first, landing in M1/M2/M3/M4 or (trivial stabilizer)
    just sign-normalized.
    """
    br1, br2 = brackets
    first = nf_M1(br1, tol)
    q1 = first.witness_q
    pair2 = br2.rep if isinstance(br2, BracketTT) else br2
    moved = act_TxT(q1, pair2)
    case = stabilizer_case(first.canonical, tol)

    if case is StabilizerCase.FULL:
        second = nf_M1(moved, tol)
        q2, c2, tag2 = second.witness_q, second.canonical, second.tag
    elif case is StabilizerCase.TRIVIAL:
        q2, c2, tag2 = ONE4, _sign_normalize(moved, tol), "any"
    else:
        member, cosets, circle = _SECOND_CLASS[case]
        hit = _reduce_with_cosets(moved, cosets, member, circle, tol)
        if hit is None:
            raise NotCanonical(f"no candidate landed in the {case.value} transversal")
        c2, q2, tag2 = hit
    witness = quat_mul(q2, q1)
    canonical = (first.canonical, c2)
    return NFResult(canonical=canonical, witness_q=witness, tag=(case, tag2),
                    boundary_flag=_boundary_flag(canonical, tol))


def pair_angles(pair):
    """Angle fields of a canonical point, where defined: components that are
    not +-1 at DEFAULT_TOL."""
    a, b = pair
    out = {}
    if not is_pm_one(a):
        out["alpha"] = float(np.arctan2(np.linalg.norm(a[1:]), a[0]))
    if not is_pm_one(b):
        im = np.linalg.norm(b[1:])
        out["alpha2"] = float(np.arctan2(im, b[0]))
        out["beta"] = float(np.arctan2(b[2], b[1]))
    return out
