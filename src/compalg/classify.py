"""Block detection, canonical forms, and the isomorphism decision.

analyze() works on raw structure-constant tensors: double sign, derivation
algebra, trivial submodule and module partition determine the block.  The
quasi-description is one table, _SPACES, of a record per parameter space: the
families it reduces, the normal form (parameters to a canonical form with a
witness, building no tensor), the closeness test, the representative, the JSON
entries and the enumeration grid.  canonical() needs a family label, and
composes the witness with the transpose of the label's frame.  Labels are
checked against their tensors where they enter an Algebra, so isomorphic()
trusts the forms: with a form on both sides, differing blocks or parameters
give No and a witness with residual below PAIR_TOL gives Yes, with no derivation
work.  The other pairs compare invariants, the double sign first, a form
standing in for its side's: differing ones give No, equal ones Unknown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import algebra as al
from . import d1133 as d33
from . import derivations as dv
from . import maps as mp
from . import normal_form as nf
from .errors import NotInBlock, RawTensorNotSupported
from .numerics import DEFAULT_TOL, PAIR_TOL
from .octonion import as_unit
from .triality import witness_residual

_SIGN_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

_PARTITION_TO_KIND = {
    (1, 7): "D17",
    (8,): "D8",
    (1, 1, 6): "D116",
    (1, 1, 2, 4): "D1124",
    (1, 1, 1, 1, 4): "D11114",
    (3, 5): "D35",
    (1, 1, 3, 3): "D1133",
}


@dataclass(frozen=True)
class BlockLabel:
    kind: str
    sign: Optional[al.DoubleSign] = None
    d1133_indices: Optional[tuple] = None

    def __str__(self):
        out = self.kind
        if self.d1133_indices:
            out += "[%d%d%d%d]" % self.d1133_indices
        if self.sign is not None:
            out += f"^{self.sign}"
        return out


@dataclass(frozen=True)
class AnalysisReport:
    double_sign: al.DoubleSign
    der_dim: int
    lie_type: dv.LieTypeLabel
    trivial_dim: int
    partition: Optional[tuple]
    block: BlockLabel

    def to_json(self):
        return {
            "double_sign": {"i": self.double_sign.i, "j": self.double_sign.j,
                            "signs": list(self.double_sign.signs)},
            "der_dim": self.der_dim,
            "lie_type": self.lie_type.value,
            "trivial_dim": self.trivial_dim,
            "partition": list(self.partition) if self.partition else None,
            "block": str(self.block),
        }


def _a0_double_sign(algebra, a0_basis, tol):
    """Double sign of the trivial submodule as a 2-dimensional algebra."""
    sub = np.einsum("ia,jb,ijk,kc->abc", a0_basis, a0_basis, algebra.sc, a0_basis)
    return al.double_sign(al.Algebra(sub), tol)


def analyze(algebra, tol=DEFAULT_TOL):
    """Invariant report: double sign, derivation data, partition and block."""
    return _analyze_with_sign(algebra, al.double_sign(algebra, tol), tol)


def _analyze_with_sign(algebra, ds, tol):
    """analyze() of an algebra whose double sign ds is already computed."""
    der = dv.derivation_basis(algebra, tol)
    ltype = dv.lie_type(der)
    if ltype is dv.LieTypeLabel.ABELIAN or der.dim == 0:
        block = BlockLabel("NotInD", ds)
        trivial_dim = dv.trivial_submodule(algebra, der, tol).shape[1]
        return AnalysisReport(ds, der.dim, ltype, trivial_dim, None, block)
    dec = dv.decompose(algebra, tol, der=der)
    partition = dec.partition
    if algebra.dim == 4:
        block = BlockLabel("D4", ds)
    elif algebra.dim != 8:
        block = BlockLabel("NotInD", ds)
    else:
        kind = _PARTITION_TO_KIND.get(partition)
        if kind is None and partition == (1, 3, 4):
            kind = "D134s" if ltype is dv.LieTypeLabel.SU2xSU2 else "D134a"
        indices = None
        if kind == "D1133":
            sub_sign = _a0_double_sign(algebra, dec.trivial, tol)
            indices = (sub_sign.i, sub_sign.j,
                       (ds.i - sub_sign.i) % 2, (ds.j - sub_sign.j) % 2)
        block = BlockLabel(kind or "NotInD", ds, indices)
    return AnalysisReport(ds, der.dim, ltype, dec.trivial_dim, partition, block)


@dataclass(frozen=True)
class CanonicalForm:
    block: BlockLabel
    params: object                  # None, PairTT, (PairTT, PairTT) or (alpha, beta)
    witness: Optional[mp.OrthoMap8]  # maps the input onto the canonical algebra
    boundary_flag: bool = False

    def to_json(self):
        """Block, double sign and the block record's entries (no point if parameter-free)."""
        sign = self.block.sign
        return {"block": str(self.block), "kind": self.block.kind, "i": sign.i, "j": sign.j,
                **_SPACES[self.block.kind].json(self)}


# ---------------------------------------------------------------------------
# The quasi-description: one record per parameter space
# ---------------------------------------------------------------------------

class _Space(NamedTuple):
    """A parameter space of the quasi-description with the group action whose
    orbits are the isomorphism classes of its blocks."""
    families: tuple   # the family names whose points it reduces
    reduce: Callable  # (family name, parameters, tol) -> CanonicalForm; builds no tensor
    close: Callable   # (canonical params, canonical params, tol) -> one orbit?
    build: Callable   # CanonicalForm -> the canonical representative algebra
    json: Callable    # CanonicalForm -> its JSON entries after block and sign
    grid: Callable    # (kind, resolution) -> (family name, parameters) to canonicalize


def _grid_open(n, lo=0.0, hi=np.pi):
    return [(lo + (hi - lo) * (k + 1) / (n + 1)) for k in range(n)]


def _cx(angle):
    return (float(np.cos(angle)), float(np.sin(angle)), 0.0, 0.0)


def _free_space(kind, family, signs, dim=8):
    """The record of a block without moduli: one class per double sign in
    signs, the family's point itself with the identity of R^dim as witness."""
    def reduce(name, p, tol):
        sign = al.DoubleSign(p["i"], p["j"]) if p else al.DoubleSign(*signs[0])
        return CanonicalForm(BlockLabel(kind, sign), None, mp.identity_map(dim))
    return _Space((family,), reduce, lambda left, right, tol: True,
                  lambda form: al.from_family(family, {"i": form.block.sign.i,
                                                       "j": form.block.sign.j}),
                  lambda form: {}, lambda kind, grid: ((family, {"i": i, "j": j}) for i, j in signs))


def _pair_form(kind, p, res):
    """The form of a tau- or T-family point from its normal-form result."""
    return CanonicalForm(BlockLabel(kind, al.DoubleSign(p["i"], p["j"])), res.canonical,
                         mp.kappa_hat_map(res.witness_q), res.boundary_flag)


def _tau_reduce(name, p, tol):
    # a point in D17 or D8 keeps its pair (the block's fixed point); those records ignore it
    pair = [as_unit(p[k], 4, f"parameter {k}") for k in ("a", "b")]
    return _pair_form(al.tau_block(p["i"], p["j"], *pair, tol), p, nf.nf_TxT(pair, tol))


def _tau_grid(kind, grid):
    """D134s: its three sign points.  D134a: a on the circle, b on a grid of
    the half 2-sphere; three points at grids 1-8 are in D8, and dropped."""
    if kind == "D134s":
        for (i, j), (sa, sb) in product(_SIGN_PAIRS, ((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))):
            yield "tau_family", {"i": i, "j": j, "a": (sa, 0.0, 0.0, 0.0), "b": (sb, 0.0, 0.0, 0.0)}
        return
    circle = [_cx(angle) for angle in _grid_open(grid)]
    for (i, j), a, (c2, s2, _, _), (cb, sb, _, _) in product(
            _SIGN_PAIRS, circle, circle, map(_cx, np.linspace(0.0, np.pi, grid))):
        yield "tau_family", {"i": i, "j": j, "a": a, "b": (c2, s2 * cb, s2 * sb, 0.0)}


def _lambda_to_t(i, j, a2, b2):
    """Rewrite a lambda pair as a T pair: the circle map with determinant k
    equals conjugation by the half-angle element combined with (-1)^k."""
    out = []
    for e2, k in ((a2, j), (b2, i)):
        half = ((float(np.arctan2(e2[1], e2[0])) % (2 * np.pi) - np.pi * k) / 2.0) % np.pi
        out += [_cx(half), tuple((-1.0) ** k * x for x in _cx(half))]
    return tuple(out)


def _bracket_reduce(name, p, tol):
    i, j = p["i"], p["j"]
    if name == "lambda_family":
        qs = _lambda_to_t(i, j, *(as_unit(p[k], 2, f"parameter {k}") for k in ("a", "b")))
    else:
        qs = [as_unit(p[k], 4, f"parameter {k}") for k in ("a1", "b1", "a2", "b2")]
    kind = al.t_block(i, j, *qs, tol)
    if kind is None:
        raise NotInBlock("all four parameters in {1,-1}: outside the bracket-pair blocks")
    res = nf.nf_pair((nf._sign_normalize(*qs[:2], tol), nf._sign_normalize(*qs[2:], tol)), tol)
    return _pair_form(kind, p, res)


def _bracket_grid(kind, grid):
    """(family, parameters) of each T-kind point enumerate_block canonicalizes,
    walked by angle index.  kappa_hat by uv (u, v -> -u, -v) on all four
    parameters, then each bracket's sign flip, sends the point of indices
    (s1, t1, s2) to the isomorphic one of (m - s1, m - t1, m - s2), m = grid - 1,
    D11114's b2 included.  So the T kinds skip s1 > m / 2, and at an odd
    grid's self-mirrored middle s1 = m / 2 keep (t1, s2) only when it is not
    after (m - t1, m - s2).  D1124 skips j = 0 with t1 = s1, where b1 = a1 is
    the alignment of D116.  The grids walk a 3-parameter subfamily: every
    D1124 point has b2 = +-a2 and every D11114 point b1 = +-a1, while
    k_family(i, j, cx(.5), cx(.8), cx(.7), cx(1.1)) is a D1124 point (all four
    sign pairs) whose canonical b2 is not +-a2."""
    circle, m = [_cx(angle) for angle in _grid_open(grid)], grid - 1
    signed = (circle, [tuple(-x for x in q) for q in circle])  # (-1)^k cx by [k][index]
    for (i, j), s1, (t1, s2) in product(_SIGN_PAIRS, range((grid + 1) // 2),
                                        product(range(grid), repeat=2)):
        if 2 * s1 == m and (t1, s2) > (m - t1, m - s2):
            continue
        a1, a2 = circle[s1], circle[s2]
        if kind == "D116" and t1 == s1:  # b1 aligned with a1: one angle fewer
            qs = (a1, signed[j][s1], a2, signed[i][s2])
        elif kind == "D1124" and (j or t1 != s1):
            qs = (a1, circle[t1], a2, signed[i][s2])
        elif kind == "D11114":
            qs = (a1, signed[j][s1], circle[t1], (a2[0], 0.0, a2[1], 0.0))
        else:
            continue
        yield "t_family", {"i": i, "j": j, **dict(zip(("a1", "b1", "a2", "b2"), qs))}


def _angle_reduce(name, p, tol):
    gp = d33.GParams(p["i1"], p["j1"], p["i2"], p["j2"], p["alpha"], p["beta"])
    cp, eps = d33.canonical_1133(gp, tol)
    sign = al.DoubleSign((gp.i1 + gp.i2) % 2, (gp.j1 + gp.j2) % 2)
    return CanonicalForm(BlockLabel("D1133", sign, gp.indices), (cp.alpha, cp.beta),
                         mp.eps_hat(eps))


def _angle_grid(kind, grid):
    """Index tuples with i2 = 1 or j2 = 1, alpha on the open grid of (0, pi/2),
    beta on that of (0, pi).  alpha stays pi/(2(grid+1)) from 0 and pi/2, the
    excluded point's alpha and the fold region's edge; up to grid 1569 that is
    above every admissible tol (< 1e-3), so each point is in_d1133 and its
    own canonical_1133."""
    for (i1, j1), (i2, j2), alpha, beta in product(
            _SIGN_PAIRS, _SIGN_PAIRS[1:], _grid_open(grid, 0.0, np.pi / 2), _grid_open(grid)):
        yield "g_family", {"i1": i1, "j1": j1, "i2": i2, "j2": j2, "alpha": alpha, "beta": beta}


#: tau_family points on S^3 x S^3, reduced through the pair transversal.
_TAU = _Space(("tau_family",), _tau_reduce, lambda left, right, tol: left.close_to(right, tol),
              lambda form: al.j_family(form.block.sign.i, form.block.sign.j, *form.params),
              lambda form: {"point": form.params.to_json()}, _tau_grid)

#: t_family points on (S^3)^4, and lambda_family points rewritten onto them,
#: reduced through the bracket-pair transversal.
_BRACKET = _Space(("t_family", "lambda_family"), _bracket_reduce,
                  lambda left, right, tol: (
                      left[0].close_to(right[0], tol)
                      and nf.BracketTT.of(*left[1]).close_to(nf.BracketTT.of(*right[1]), tol)),
                  lambda form: al.k_family(form.block.sign.i, form.block.sign.j,
                                           *form.params[0], *form.params[1]),
                  lambda form: {"point": [pair.to_json() for pair in form.params]}, _bracket_grid)

#: Block kind -> its record, in the order the CLI lists the kinds.  The Okubo
#: model is the one (-, -) algebra of D8; D1133's angle pair lives on the torus.
_SPACES = {
    "D17": _free_space("D17", "standard_isotope", _SIGN_PAIRS),
    "D8": _free_space("D8", "okubo", ((1, 1),)),
    "D35": _free_space("D35", "p35", _SIGN_PAIRS[:3]),
    "D4": _free_space("D4", "quat4", _SIGN_PAIRS, dim=4),
    "D134s": _TAU, "D134a": _TAU,
    "D116": _BRACKET, "D1124": _BRACKET, "D11114": _BRACKET,
    "D1133": _Space(
        ("g_family",), _angle_reduce,
        lambda left, right, tol: all(d33.circle_distance(x, y) < tol for x, y in zip(left, right)),
        lambda form: al.g_family(*form.block.d1133_indices, *form.params),
        lambda form: dict(zip(("i1", "j1", "i2", "j2", "alpha", "beta"),
                              (*form.block.d1133_indices, *form.params))),
        _angle_grid),
}

#: Every block kind enumerate_block accepts.
BLOCK_KINDS = tuple(_SPACES)
_BY_FAMILY = {family: space for space in _SPACES.values() for family in space.families}


def canonical_algebra(form):
    """Rebuild the canonical representative algebra of a canonical form."""
    if form.block.kind not in _SPACES:
        raise NotInBlock(f"no canonical representative for block {form.block}")
    return _SPACES[form.block.kind].build(form)


def canonical(algebra, tol=DEFAULT_TOL):
    """Canonical form of a provenance-carrying algebra: _canonical_params on
    its family label, the witness composed with the transpose of the label's
    frame.  Raises RawTensorNotSupported without provenance."""
    family = algebra.family
    if family is None:
        raise RawTensorNotSupported("canonical forms need constructor provenance")
    form = _canonical_params(family.name, family.params, tol)
    if family.frame is None:
        return form
    return replace(form, witness=mp.OrthoMap8(form.witness.mat @ family.frame.T, check=False))


def _canonical_params(name, p, tol=DEFAULT_TOL):
    """Canonical form of the point p of the family called name, by that
    family's record; builds no tensor.  Raises NotInBlock for parameters outside
    the covered blocks and RawTensorNotSupported for other names."""
    if name not in _BY_FAMILY:
        raise RawTensorNotSupported(f"unsupported family {name!r}")
    return _BY_FAMILY[name].reduce(name, p, tol)


def _params_close(kind, left, right, tol=PAIR_TOL):
    return _SPACES[kind].close(left, right, tol)


@dataclass(frozen=True)
class IsoVerdict:
    verdict: str                     # "yes" | "no" | "unknown"
    witness: Optional[mp.OrthoMap8] = None
    reason: str = ""

    def __bool__(self):
        return self.verdict == "yes"


def _form_or_reason(algebra, tol):
    """(canonical form, None), or (None, why the algebra has none)."""
    try:
        return canonical(algebra, tol), None
    except RawTensorNotSupported:
        return None, "canonical parameters need provenance"
    except NotInBlock as err:
        return None, f"its label has no canonical form ({err})"


def isomorphic(a, b, tol=DEFAULT_TOL):
    """Decide isomorphism, canonical forms first.

    Forms of both inputs decide without derivation work, since every label
    was checked against its tensor: No when the blocks or the parameters
    differ, Yes when the composed witness has a tensor-level residual below
    PAIR_TOL, else Unknown.  Every other pair compares invariants, a form's block
    and sign standing in for its side's analyze(): the double sign first, No
    when they differ, then No on differing blocks, else Unknown (a raw tensor
    or a label outside the covered blocks).
    """
    if a.dim != b.dim:
        return IsoVerdict("no", reason="dimensions differ")
    (ca, why_a), (cb, why_b) = _form_or_reason(a, tol), _form_or_reason(b, tol)
    if ca is not None and cb is not None:
        if ca.block != cb.block:
            return IsoVerdict("no", reason=f"canonical blocks differ: {ca.block} vs {cb.block}")
        if not _params_close(ca.block.kind, ca.params, cb.params):
            return IsoVerdict("no", reason="canonical parameters differ")
        witness = mp.OrthoMap8(cb.witness.mat.T @ ca.witness.mat, check=False)
        residual = witness_residual(witness, a, b)
        if residual < PAIR_TOL:
            return IsoVerdict("yes", witness=witness)
        return IsoVerdict("unknown", reason=f"canonical forms agree but witness residual {residual:g}")
    ds_a = ca.block.sign if ca else al.double_sign(a, tol)
    ds_b = cb.block.sign if cb else al.double_sign(b, tol)
    if ds_a != ds_b:
        return IsoVerdict("no", reason="double signs differ")
    block_a = ca.block if ca else _analyze_with_sign(a, ds_a, tol).block
    block_b = cb.block if cb else _analyze_with_sign(b, ds_b, tol).block
    if str(block_a) != str(block_b):
        return IsoVerdict("no", reason=f"blocks differ: {block_a} vs {block_b}")
    return IsoVerdict("unknown", reason=f"equal invariants, but {why_a or why_b}")


# ---------------------------------------------------------------------------
# Enumeration of canonical representatives
# ---------------------------------------------------------------------------

def enumerate_block(kind, grid=3, tol=DEFAULT_TOL):
    """Stream canonical representatives of a block (all double signs).

    Parameter-free blocks yield their finitely many classes, the others a
    sample on their record's grid, each form in its transversal and pairwise
    non-isomorphic.  Each grid point goes to _canonical_params, building no
    tensor; points of another block are dropped.  No two grid points share a
    class (the T grids drop their mirror pairs by index), so no form is
    compared with another.  The D1124 and D11114 grids cover a 3-parameter
    subfamily (b2 = +-a2, resp. b1 = +-a1; see _bracket_grid), so canonical
    reaches classes of those blocks that are never listed.
    """
    if grid < 1:
        raise ValueError("grid resolution must be at least 1")
    if kind not in _SPACES:
        raise NotInBlock(f"unknown or unenumerable block kind {kind!r}")
    for family, point in _SPACES[kind].grid(kind, grid):
        form = _canonical_params(family, point, tol)
        if form.block.kind == kind:
            yield form
