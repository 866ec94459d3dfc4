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

Arrays or float tuples in, arrays out, floats inside: each quaternion is a
4-tuple of Python floats (ValueError on a non-finite coordinate), multiplied
by octonion.hamilton, its signs read once.  Norms and angles stay numpy's, so
results keep the array formulas' bits.

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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotCanonical
from .numerics import DEFAULT_TOL, PAIR_TOL, deadband_signs, is_floats, leading_sign, vanishes
from .octonion import hamilton, hamilton_kappa

ONE4 = np.array([1.0, 0.0, 0.0, 0.0])
U4 = np.array([0.0, 1.0, 0.0, 0.0])
V4 = np.array([0.0, 0.0, 1.0, 0.0])
UV4 = np.array([0.0, 0.0, 0.0, 1.0])
_ONE, _V, _UV = (tuple(q.tolist()) for q in (ONE4, V4, UV4))

BOUNDARY_FACTOR = 10.0


@dataclass(frozen=True)
class PairTT:
    """An element of T x T."""

    a: np.ndarray
    b: np.ndarray

    def __iter__(self):
        return iter((self.a, self.b))

    def close_to(self, other, tol=PAIR_TOL):
        return (np.max(np.abs(self.a - other.a)) < tol
                and np.max(np.abs(self.b - other.b)) < tol)

    def to_json(self):
        out = {"a": self.a.tolist(), "b": self.b.tolist()}
        out.update(pair_angles(self))
        return out


def make_pair(a, b):
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    if a.shape != (4,) or b.shape != (4,):
        raise ValueError("pair entries must be quaternion 4-vectors")
    return PairTT(a, b)


@dataclass(frozen=True)
class BracketTT:
    """A pair modulo simultaneous sign, stored by its sign-normalized
    representative (first coordinate beyond the deadband made positive)."""

    rep: PairTT

    @classmethod
    def of(cls, a, b, tol=DEFAULT_TOL):
        return cls(rep=_box(*_sign_normalize(_quat(a), _quat(b), tol)))

    def close_to(self, other, tol=PAIR_TOL):
        rep2 = other.rep if isinstance(other, BracketTT) else other
        flipped = PairTT(-rep2.a, -rep2.b)
        return self.rep.close_to(rep2, tol) or self.rep.close_to(flipped, tol)


def _quat(q):
    """q as a 4-tuple of floats (a tuple of four as it is); ValueError unless 4 finite numbers."""
    if not is_floats(q, 4):
        q = np.asarray(q, dtype=float)
        if q.shape != (4,):
            raise ValueError("a quaternion must be a 4-vector")
        q = tuple(q.tolist())
    if not all(map(math.isfinite, q)):
        raise ValueError("quaternion has a non-finite coordinate")
    return q


def _box(a, b):
    return PairTT(np.array(a), np.array(b))


def _neg(q):
    return (-q[0], -q[1], -q[2], -q[3])


def _flip(x):
    """x -> (-x0, x1, x2, -x3) = -kappa_uv(x), on a quaternion or on its signs."""
    return (-x[0], x[1], x[2], -x[3])


def _sign_normalize(a, b, tol=DEFAULT_TOL):
    """(a, b) or (-a, -b) on float tuples, the first coordinate beyond the deadband positive."""
    if leading_sign(a + b, tol.value) < 0:
        return _neg(a), _neg(b)
    return a, b


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

def _act(q, a, b):
    return hamilton_kappa(q, a), hamilton_kappa(q, b)


def act_TxT(q, pair):
    return _box(*_act(_quat(q), *map(_quat, pair)))


def act_bracket(q, br):
    """The sign class of kappa_q of br's representative, sign-normalized at DEFAULT_TOL."""
    return BracketTT(rep=_box(*_sign_normalize(*_act(_quat(q), *map(_quat, br.rep)))))


def act_pair(q, brackets):
    return (act_bracket(q, brackets[0]), act_bracket(q, brackets[1]))


# ---------------------------------------------------------------------------
# Coordinate predicates on deadband signs
# ---------------------------------------------------------------------------

def _signs(q, tol):
    return deadband_signs(q, tol.value)


def _pair_signs(pair, tol):
    """Deadband signs of a pair's quaternions, arrays or float tuples."""
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
    """The imaginary part of the quaternion q, an array or a float tuple,
    vanishes: its norm lies in the closed deadband of tol."""
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
    return _M1(*_pair_signs(pair, tol))


def _M1(sa, sb):
    """in_M1 on the sign tuples of the pair."""
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
    return _stabilizer_case(*pair, *_pair_signs(pair, tol), tol)


def _stabilizer_case(a, b, sa, sb, tol):
    """stabilizer_case of the pair (a, b) with the sign tuples (sa, sb)."""
    if not _M1(sa, sb)[0]:
        raise NotCanonical("stabilizer classification needs a canonical M1 representative")
    a_c, b_c = _pm1(sa), _pm1(sb)
    if a_c and b_c:
        return StabilizerCase.FULL
    if sa[2:] == sb[2:] == (0, 0):
        if sa[0] == sb[0] == 0 and not a_c and not b_c:
            return StabilizerCase.CIRCLE_U_PLUS_VU
        return StabilizerCase.CIRCLE_U
    in_uv_planes = sa[0] == sa[3] == sb[0] == sb[3] == 0
    if in_uv_planes and _signs((a[1] * b[2] - a[2] * b[1],), tol) != (0,):
        return StabilizerCase.TWO_ELT
    return StabilizerCase.TRIVIAL


#: Stabilizer case of the first class -> (transversal of the second class,
#: coset representatives of the stabilizer's finite part, whether it holds
#: the circle about u).  FULL reduces by nf_M1; TRIVIAL takes any second class.
_SECOND_CLASS = {
    StabilizerCase.FULL: (in_M1, None, None),
    StabilizerCase.CIRCLE_U: (in_M2, (_ONE,), True),
    StabilizerCase.CIRCLE_U_PLUS_VU: (in_M3, (_ONE, _V), True),
    StabilizerCase.TWO_ELT: (in_M4, (_ONE, _UV), False),
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
            for x in q:
                if tol.value <= abs(x) < bound:
                    return True
    return False


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------

def _snap_sign(q):
    return (1.0 if q[0] > 0 else -1.0, 0.0, 0.0, 0.0)


def _norm(xs):
    """np.linalg.norm of a float tuple by its formula: sqrt of one dot product."""
    v = np.array(xs)
    return math.sqrt(v.dot(v))


def _onto_u(im):
    """The unit quaternion q with q w conj(q) = u, w = (x, y, z) the unit
    direction of the nonzero imaginary part im, in closed form.

    For x >= 0 it is the half-way quaternion 1 - u w = (1 + x, 0, z, -y);
    otherwise that formula after the half-turn about v, (x, y, z) ->
    (-x, y, -z), times v: (1 - x, 0, -z, -y) v = (z, y, 1 - x, 0).  Both
    have norm at least 1 before normalizing, so nothing cancels.
    """
    n = _norm(im)
    x, y, z = im[0] / n, im[1] / n, im[2] / n
    q = (1.0 + x, 0.0, z, -y) if x >= 0.0 else (z, y, 1.0 - x, 0.0)
    n = _norm(q)
    return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def _v_turn(q, tol):
    """The rotation about u that puts q's (v, uv)-part on the +v ray, or
    None when that part lies in the deadband."""
    if vanishes(q[2:], tol.value):
        return None
    half = -np.arctan2(q[3], q[2]) / 2.0
    return (float(np.cos(half)), float(np.sin(half)), 0.0, 0.0)


def _nf_TxT(a, b, tol):
    """nf_TxT on float tuples: the canonical pair and the witness."""
    a_pm1 = is_pm_one(a, tol)
    q = _ONE
    if not (a_pm1 and is_pm_one(b, tol)):
        q = _onto_u((b if a_pm1 else a)[1:])
        a, b = _act(q, a, b)
        turn = None if a_pm1 else _v_turn(b, tol)
        if turn is not None:
            q, (a, b) = hamilton(turn, q), _act(turn, a, b)
    a = _snap_sign(a) if a_pm1 else a
    b = _snap_sign(b) if is_pm_one(b, tol) else b
    return a, b, q


def nf_TxT(pair, tol=DEFAULT_TOL):
    """Reduce a point of T x T into the transversal M.

    Rotate the imaginary part of the first component that is not +-1 onto
    the u-axis; if that is the first component, turn about u until the
    second one's (v, uv)-part lies on the +v ray.  Then snap each +-1
    component to exactly +-1, the first as read before the rotation (it
    picks what rotates) and the second as read after it, keeping its signs.
    """
    a, b, q = _nf_TxT(*map(_quat, pair), tol)
    return NFResult(canonical=_box(a, b), witness_q=np.array(q), tag=in_M((a, b), tol)[1],
                    boundary_flag=_boundary_flag([(a, b)], tol))


def _nf_M1(a, b, tol):
    """nf_M1 on float tuples: the pair, the witness, the tag and the pair's signs."""
    a, b, q = _nf_TxT(a, b, tol)
    sa, sb = _pair_signs((a, b), tol)
    ok, tag = _M1(sa, sb)
    if not ok:
        fa, fb, fsa, fsb = _flip(a), _flip(b), _flip(sa), _flip(sb)
        ok, tag = _M1(fsa, fsb)
        if ok or (fa[0], fb[0]) > (a[0], b[0]):
            a, b, q, sa, sb = fa, fb, hamilton(_UV, q), fsa, fsb
        tag = tag if ok else "boundary"
    return (a, b), q, tag, (sa, sb)


def nf_M1(bracket, tol=DEFAULT_TOL):
    """Reduce a sign class into M1 by one nf_TxT pass.

    If its point misses M1, the other representative's point is the flip
    x -> (-x0, x1, x2, -x3) = -kappa_uv(x) of both components, with witness
    uv q.  If both miss, the class sits on a deadband boundary: keep the
    point with the larger (a0, b0), tagged "boundary" and flagged."""
    pair = bracket.rep if isinstance(bracket, BracketTT) else bracket
    canonical, q, tag, _ = _nf_M1(*map(_quat, pair), tol)
    return NFResult(canonical=_box(*canonical), witness_q=np.array(q), tag=tag,
                    boundary_flag=_boundary_flag([canonical], tol) or tag == "boundary")


def _u_rotations(pair, tol):
    """Closed-form rotations about the u-axis placing either component's
    (v, uv)-part on the +v ray, then the identity."""
    for q in pair:
        turn = _v_turn(q, tol)
        if turn is not None:
            yield turn
    yield _ONE


def _reduce_with_cosets(pair, cosets, member, circle, tol):
    """Reduce a sign class, a pair of float tuples, modulo (finite cosets) x
    (u-axis circle, if circle).

    Enumerates coset representative x sign x angle placement, filters by the
    target transversal; transversality makes any hit canonical."""
    for coset in cosets:
        base = _act(coset, *pair) if coset != _ONE else pair
        for rep in (base, (_neg(base[0]), _neg(base[1]))):
            for qu in _u_rotations(rep, tol) if circle else (None,):
                cand = rep if qu is None else _act(qu, *rep)
                ok, tag = member(cand, tol)
                if ok:
                    return cand, coset if qu is None else hamilton(qu, coset), tag
    return None


def nf_pair(brackets, tol=DEFAULT_TOL):
    """Reduce a pair of sign classes into the composite transversal.

    The first class goes into M1; the second is then reduced modulo the
    stabilizer of the first, landing in M1/M2/M3/M4 or (trivial stabilizer)
    just sign-normalized.
    """
    pair1, pair2 = (br.rep if isinstance(br, BracketTT) else br for br in brackets)
    c1, q1, _, signs = _nf_M1(*map(_quat, pair1), tol)
    moved = _act(q1, *map(_quat, pair2))
    case = _stabilizer_case(*c1, *signs, tol)

    if case is StabilizerCase.FULL:
        c2, q2, tag2, _ = _nf_M1(*moved, tol)
    elif case is StabilizerCase.TRIVIAL:
        q2, c2, tag2 = _ONE, _sign_normalize(*moved, tol), "any"
    else:
        member, cosets, circle = _SECOND_CLASS[case]
        hit = _reduce_with_cosets(moved, cosets, member, circle, tol)
        if hit is None:
            raise NotCanonical(f"no candidate landed in the {case.value} transversal")
        c2, q2, tag2 = hit
    return NFResult(canonical=(_box(*c1), _box(*c2)), witness_q=np.array(hamilton(q2, q1)),
                    tag=(case, tag2), boundary_flag=_boundary_flag((c1, c2), tol))


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
