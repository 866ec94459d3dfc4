"""Division composition algebras as structure-constant tensors.

An Algebra is an immutable dim x dim x dim tensor plus optional constructor
provenance: family name, parameters and an orthogonal frame, the tensor being
the frame's pushforward of the family point.  transport composes its map onto
the frame, one rule for every orthogonal map.  Parametric constructors cover
the presentations used by the classification: standard isotopes of O and H,
tau-twisted and T-twisted isotopes, the Okubo model, its special-subspace
isotopes, the two-parameter block-diagonal family, and the lambda family.
Provenance is checked where it enters: Algebra rebuilds a given label to
REBUILD_TOL, and only the constructors and transport, whose label made the
tensor, attach one unchecked.  So a label always describes its tensor;
analyze() reads the tensor alone.
double_sign and is_division take determinants at fixed sample points, drawn
once per dimension, so their answers are functions of the tensor alone.

tau_block and t_block decide which block a tau- or T-family parameter point
lands in; the membership predicates in_TxT_ij and in_S_ij read them at
DEFAULT_TOL.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from . import d1133 as d33
from . import maps as mp
from . import octonion as oc
from .errors import BadParameter, InconsistentSigns, NearSingular, NotOrthogonal
from .numerics import DEFAULT_TOL, as_indices, det_sign, is_orthogonal, rng, vanishes


#: How closely a rebuilt label or isotope pair must reproduce the tensor.
REBUILD_TOL = 1e-12


@dataclass(frozen=True)
class DoubleSign:
    """(i, j) with sign pair ((-1)^i, (-1)^j) = (sgn det L_a, sgn det R_a)."""

    i: int
    j: int

    @property
    def signs(self):
        return ((-1) ** self.i, (-1) ** self.j)

    def __str__(self):
        plus_minus = {1: "+", -1: "-"}
        return "(%s,%s)" % tuple(plus_minus[s] for s in self.signs)


def _frozen(value):
    """A read-only float array copy of value."""
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FamilyLabel:
    """The tensor is frame_* from_family(name, params); frame None is the identity.

    params is held as a read-only mapping; array (and list) values and the
    frame are read-only float copies."""

    name: str
    params: Mapping
    frame: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType({
            key: _frozen(value) if isinstance(value, (list, tuple, np.ndarray)) else value
            for key, value in dict(self.params).items()}))
        if self.frame is not None:
            object.__setattr__(self, "frame", _frozen(self.frame))

    def __reduce__(self):  # a mapping proxy does not pickle
        return FamilyLabel, (self.name, dict(self.params), self.frame)

    def to_json(self):
        out = {}
        for key, value in self.params.items():
            out[key] = value.tolist() if isinstance(value, np.ndarray) else value
        obj = {"name": self.name, "params": out}
        if self.frame is not None:
            obj["frame"] = self.frame.tolist()
        return obj


class Algebra:
    """A finite-dimensional real algebra given by structure constants.

    sc[i, j, :] holds the coordinates of e_i * e_j, in a read-only copy of
    the input; no attribute can be set.  A family label is kept, as its
    rebuild's label, once that rebuild (from_family, then transport by the
    frame) reproduces sc within REBUILD_TOL, else BadParameter; an isotope pair
    (f, g) given here is checked the same way, by from_isotope.  The pair is
    kept in memory as the presentation, for callers; no library function
    reads it, transport drops it, and it is not serialized (a family label
    without a frame rebuilds it, and Algebra keeps the rebuild's pair).
    """

    __slots__ = ("dim", "sc", "family", "isotope")

    def __init__(self, sc, family: Optional[FamilyLabel] = None, isotope=None):
        sc = np.array(sc, dtype=float)
        if sc.ndim != 3 or len(set(sc.shape)) != 1:
            raise ValueError(f"structure tensor must be cubic, got {sc.shape}")
        if sc.shape[0] not in (1, 2, 4, 8):
            raise ValueError(f"dimension must be 1, 2, 4 or 8, got {sc.shape[0]}")
        if not np.isfinite(sc).all():
            raise ValueError("structure tensor has non-finite entries")
        sc.flags.writeable = False
        if isotope is not None:
            isotope = _reproducing(from_isotope(*isotope), sc, "isotope pair").isotope
        if family is not None:
            rebuilt = from_family(family.name, family.params)
            if family.frame is not None:
                rebuilt = transport(family.frame, rebuilt)
            rebuilt = _reproducing(rebuilt, sc, "family label")
            family, isotope = rebuilt.family, rebuilt.isotope if isotope is None else isotope
        for name, value in (("dim", sc.shape[0]), ("sc", sc), ("family", family),
                            ("isotope", isotope)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Algebra is immutable; cannot set {name!r}")

    def __reduce__(self):  # pickle and copy rebuild through the checked constructor
        return Algebra, (self.sc, self.family, self.isotope)

    def __repr__(self):
        tag = self.family.name if self.family else "raw"
        return f"Algebra(dim={self.dim}, family={tag})"

    def to_json(self):
        return {"dim": self.dim, "sc": self.sc.tolist(),
                "family": self.family.to_json() if self.family else None}


def _reproducing(rebuilt, sc, what):
    """rebuilt, once its tensor reproduces sc within REBUILD_TOL; else BadParameter."""
    if rebuilt.sc.shape != sc.shape or np.max(np.abs(rebuilt.sc - sc)) > REBUILD_TOL:
        raise BadParameter(f"{what} does not reproduce the structure tensor")
    return rebuilt


def octonion_algebra():
    return Algebra(oc.STRUCTURE.astype(float))


def _labelled(algebra, family):
    """algebra with the label that produced its tensor attached unchecked:
    the constructors' and transport's path, which a rebuild would recurse
    through."""
    object.__setattr__(algebra, "family", family)
    return algebra


def from_isotope(f, g):
    """The isotope x . y = f(x) g(y) of O, or of H, C or R for smaller factors;
    the pair that built the tensor is attached unchecked."""
    fm, gm = mp.as_matrix(f), mp.as_matrix(g)
    if not (is_orthogonal(fm) and is_orthogonal(gm)):
        raise NotOrthogonal("isotope factors must be orthogonal")
    dim = fm.shape[0]
    if gm.shape != fm.shape or dim not in (1, 2, 4, 8):
        raise ValueError("isotope factors have the wrong dimension")
    base = oc.STRUCTURE[:dim, :dim, :dim].astype(float)
    algebra = Algebra(np.einsum("ai,bj,abk->ijk", fm, gm, base))
    object.__setattr__(algebra, "isotope", (_frozen(fm), _frozen(gm)))
    return algebra


def transport(phi, algebra):
    """The pushforward phi_* A, with product x .' y = phi(phi^T x . phi^T y).

    phi is an isomorphism onto the result for any orthogonal phi of A's
    dimension (NotOrthogonal otherwise), raw tensors included.  The result
    has no isotope pair; a family label is kept with phi composed onto its
    frame, and a raw tensor stays raw.
    """
    m = mp.as_matrix(phi)
    if m.shape != (algebra.dim, algebra.dim) or not is_orthogonal(m):
        raise NotOrthogonal(f"transport needs an orthogonal {algebra.dim}x{algebra.dim} map")
    # sc'[i, j, k] = m_ia m_jb m_kc sc[a, b, c], one batched matmul per index
    sc = (m @ (m @ (algebra.sc @ m.T)).transpose(1, 0, 2)).transpose(1, 0, 2)
    family = algebra.family
    if family is not None:
        family = FamilyLabel(family.name, family.params,
                             m if family.frame is None else m @ family.frame)
    return _labelled(Algebra(sc), family)


#: Unit vectors at which double_sign and is_division take determinants.
DOUBLE_SIGN_SAMPLES = 4
DIVISION_TRIALS = 8


@functools.lru_cache(maxsize=None)
def _sample_points(dim):
    """DIVISION_TRIALS fixed unit vectors in R^dim, drawn once per dimension
    from rng(); read-only."""
    points = np.array([a / np.linalg.norm(a) for a in rng().standard_normal((DIVISION_TRIALS, dim))])
    points.flags.writeable = False
    return points


def _det_sign_samples(algebra, count, tol):
    """Rows (sgn det L_a, sgn det R_a) at the first count sample points a;
    NearSingular when any of the determinants is within tol of 0."""
    n, sc = algebra.dim, algebra.sc
    ops = np.einsum("ci,sijk->cskj", _sample_points(n)[:count],
                    np.stack([sc, sc.transpose(1, 0, 2)]))  # ops[c] = (L_a, R_a)
    return det_sign(ops.reshape(-1, n, n), tol).reshape(count, 2)


def double_sign(algebra, tol=DEFAULT_TOL):
    """The pair (sgn det L_a, sgn det R_a), sampled at several fixed unit a.

    Disagreement between samples means the input is not a division algebra.
    """
    if algebra.dim < 2:
        raise BadParameter("double sign needs dimension at least 2")
    signs = set(map(tuple, _det_sign_samples(algebra, DOUBLE_SIGN_SAMPLES, tol).tolist()))
    if len(signs) != 1:
        raise InconsistentSigns(f"det signs varied across samples: {sorted(signs)}")
    sl, sr = signs.pop()
    return DoubleSign(i=0 if sl > 0 else 1, j=0 if sr > 0 else 1)


def is_division(algebra):
    """True unless L_a or R_a is within DEFAULT_TOL of singular at one of the
    DIVISION_TRIALS sample points."""
    try:
        _det_sign_samples(algebra, DIVISION_TRIALS, DEFAULT_TOL)
    except NearSingular:
        return False
    return True


def norm_multiplicative(algebra, tol=DEFAULT_TOL):
    """|xy| = |x||y| for the standard inner product, polarized: entrywise
    <e_i e_j, e_l e_m> + <e_i e_m, e_l e_j> = 2 d_il d_jm within tol."""
    n = algebra.dim
    flat = algebra.sc.reshape(n * n, n)
    gram = (flat @ flat.T).reshape(n, n, n, n)
    polar = (gram + gram.transpose(0, 3, 2, 1)).reshape(n * n, n * n)
    polar.flat[:: n * n + 1] -= 2.0
    return bool(np.abs(polar).max() < tol.value)


# ---------------------------------------------------------------------------
# Parametric families
# ---------------------------------------------------------------------------

def standard_isotope(i, j):
    """O with product K^j(x) K^i(y)."""
    i, j = as_indices(i, j)
    k = mp.conj_map()
    return _labelled(from_isotope(k if j else mp.identity_map(), k if i else mp.identity_map()),
                     FamilyLabel("standard_isotope", {"i": i, "j": j}))


def quat4(i, j):
    """H with product K^j(x) K^i(y); the four-dimensional classification."""
    i, j = as_indices(i, j)
    k4 = oc.conj_matrix()[:4, :4]
    return _labelled(from_isotope(k4 if j else np.eye(4), k4 if i else np.eye(4)),
                     FamilyLabel("quat4", {"i": i, "j": j}))


def j_family(i, j, a, b):
    """O with pair (K^j tau_a, K^i tau_b) for unit quaternions a, b."""
    i, j = as_indices(i, j)
    a4, b4 = oc.as_unit(a, 4, "parameter a"), oc.as_unit(b, 4, "parameter b")
    f = mp.tau_map(a4).mat
    g = mp.tau_map(b4).mat
    if j:
        f = oc.conj_matrix() @ f
    if i:
        g = oc.conj_matrix() @ g
    return _labelled(from_isotope(f, g),
                     FamilyLabel("tau_family", {"i": i, "j": j, "a": a4, "b": b4}))


def k_family(i, j, a1, b1, a2, b2):
    """O with pair (T^(j)_{a1,b1}, T^(i)_{a2,b2}) for unit quaternions."""
    i, j = as_indices(i, j)
    qs = [oc.as_unit(x, 4, f"parameter {n}")
          for x, n in ((a1, "a1"), (b1, "b1"), (a2, "a2"), (b2, "b2"))]
    f = mp.T_map(qs[0], qs[1], j)
    g = mp.T_map(qs[2], qs[3], i)
    return _labelled(from_isotope(f, g), FamilyLabel(
        "t_family", {"i": i, "j": j, "a1": qs[0], "b1": qs[1], "a2": qs[2], "b2": qs[3]}))


def lambda_family(i, j, a, b):
    """O with pair (lambda_a^(j), lambda_b^(i)) for unit complex a, b."""
    i, j = as_indices(i, j)
    a2, b2 = oc.as_unit(a, 2, "parameter a"), oc.as_unit(b, 2, "parameter b")
    return _labelled(from_isotope(mp.lambda_map(a2, j), mp.lambda_map(b2, i)),
                     FamilyLabel("lambda_family", {"i": i, "j": j, "a": a2, "b": b2}))


#: The distinguished cube root of unity (sqrt(3) u - 1) / 2 in C.
OKUBO_TWIST = np.array([-0.5, np.sqrt(3.0) / 2.0, 0.0, 0.0])


def _okubo_pair():
    """The pair (K tau, K tau^-1) of the cube-root twist tau."""
    k = oc.conj_matrix()
    return (k @ mp.tau_map(OKUBO_TWIST).mat,
            k @ mp.tau_map(oc.quat_mul(OKUBO_TWIST, OKUBO_TWIST)).mat)


def okubo_p11():
    """The division Okubo model: pair (K tau, K tau^-1) with the cube-root twist."""
    return _labelled(from_isotope(*_okubo_pair()), FamilyLabel("okubo", {}))


def p35(i, j):
    """Isotopes of the Okubo model by the reflection in the special subspace
    span(v, z, vz); defined for (i, j) != (1, 1)."""
    i, j = as_indices(i, j)
    if (i, j) == (1, 1):
        raise BadParameter("the (1, 1) component of the {3,5} block is empty")
    f, g = _okubo_pair()
    sw = mp.sigma_w_special().mat
    return _labelled(from_isotope(f @ np.linalg.matrix_power(sw, 1 - j),
                                  g @ np.linalg.matrix_power(sw, 1 - i)),
                     FamilyLabel("p35", {"i": i, "j": j}))


def g_family(i1, j1, i2, j2, alpha, beta):
    """O with the two-parameter block-diagonal pair (G_alpha^{j1,j2}, G_beta^{i1,i2}).

    Requires i2 = 1 or j2 = 1; angles are folded into [0, pi).
    """
    gp = d33.GParams(i1, j1, i2, j2, alpha, beta)
    f = mp.G_map(gp.alpha, 0.0, gp.j1, gp.j2)
    g = mp.G_map(gp.beta, 0.0, gp.i1, gp.i2)
    return _labelled(from_isotope(f, g), FamilyLabel("g_family", asdict(gp)))


_BUILDERS = {
    "standard_isotope": lambda p: standard_isotope(p["i"], p["j"]),
    "quat4": lambda p: quat4(p["i"], p["j"]),
    "tau_family": lambda p: j_family(p["i"], p["j"], p["a"], p["b"]),
    "t_family": lambda p: k_family(p["i"], p["j"], p["a1"], p["b1"], p["a2"], p["b2"]),
    "lambda_family": lambda p: lambda_family(p["i"], p["j"], p["a"], p["b"]),
    "okubo": lambda p: okubo_p11(),
    "p35": lambda p: p35(p["i"], p["j"]),
    "g_family": lambda p: g_family(p["i1"], p["j1"], p["i2"], p["j2"],
                                   p["alpha"], p["beta"]),
}


def from_family(name, params):
    if name not in _BUILDERS:
        raise BadParameter(f"unknown family {name!r}; choose from {sorted(_BUILDERS)}")
    try:
        return _BUILDERS[name](params)
    except KeyError as err:
        raise BadParameter(f"family {name!r} needs parameter {err.args[0]!r}") from None


def from_json(obj):
    """The stored tensor of a JSON form, bit for bit, with its family label
    through Algebra's check.  Raw tensors stay raw."""
    sc, fam = obj["sc"], obj.get("family")
    if not fam:
        return Algebra(sc)
    return Algebra(sc, family=FamilyLabel(fam["name"], fam["params"], fam.get("frame")))


# ---------------------------------------------------------------------------
# Blocks and membership predicates for the parameter sets of the classification
# ---------------------------------------------------------------------------

def tau_block(i, j, a, b, tol=DEFAULT_TOL):
    """D17, D8, D134s or D134a: the block of the tau-family point (a, b) of
    double sign (i, j), unit quaternions read by octonion.as_unit."""
    a, b, z = oc.as_unit(a, 4, "parameter a"), oc.as_unit(b, 4, "parameter b"), tol.value
    if vanishes((a[0] - 1.0, *a[1:]), z) and vanishes((b[0] - 1.0, *b[1:]), z):
        return "D17"
    a2 = oc.hamilton(a, a)
    cubic = (a2[0] + a[0] + 1.0, a2[1] + a[1], a2[2] + a[2], a2[3] + a[3])
    if (i, j) == (1, 1) and vanishes(cubic, z) and _aligned(b, a2, 0, z):
        return "D8"  # the Okubo curve (a, a^2) with a^2 + a + 1 = 0
    return "D134s" if vanishes(a[1:], z) and vanishes(b[1:], z) else "D134a"


def _aligned(b, a, k, deadband):
    """b = (-1)^k a within the closed deadband, on float tuples."""
    return vanishes(tuple(y - (-1.0) ** k * x for x, y in zip(a, b)), deadband)


def t_block(i, j, a1, b1, a2, b2, tol=DEFAULT_TOL):
    """None when all four lie in {1, -1}, else the block of the T-family point:
    D116 under the one-axis alignment b1 = (-1)^j a1, b2 = (-1)^i a2, else
    D1124 or D11114 as the imaginary parts (octonion.as_unit's) span a line or more."""
    i, j = as_indices(i, j)
    qs, z = [oc.as_unit(x, 4, "parameter") for x in (a1, b1, a2, b2)], tol.value
    if all(vanishes(x[1:], z) for x in qs):
        return None
    s = np.linalg.svd(np.array([x[1:] for x in qs]), compute_uv=False).tolist()
    span = sum(x > z * max(s[0], 1.0) for x in s)  # the rank of the imaginary parts
    if span == 1 and _aligned(qs[1], qs[0], j, z) and _aligned(qs[3], qs[2], i, z):
        return "D116"
    return "D1124" if span == 1 else "D11114"


def in_TxT_ij(i, j, a, b):
    """Membership of (a, b) in the tau-family parameter set for double sign (i, j).

    Excludes (1, 1) always, and for (i, j) = (1, 1) also the curve
    (a, a^2) with a^2 + a + 1 = 0 (the Okubo points)."""
    return tau_block(*as_indices(i, j), a, b) not in ("D17", "D8")


def in_S(a1, b1, a2, b2):
    """True iff not all four unit quaternions lie in {1, -1} at DEFAULT_TOL."""
    return t_block(0, 0, a1, b1, a2, b2) is not None


def in_S_ij(i, j, a1, b1, a2, b2):
    """Membership in the T-family parameter set for double sign (i, j):
    tuples not all in {1, -1} that do not satisfy the one-axis alignment
    with b1 = (-1)^j a1 and b2 = (-1)^i a2."""
    return t_block(i, j, a1, b1, a2, b2) not in (None, "D116")
