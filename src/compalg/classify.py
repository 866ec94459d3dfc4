"""Block detection, canonical forms, and the isomorphism decision.

analyze() works on raw structure-constant tensors: double sign, derivation
algebra, trivial submodule and module partition determine the block.
canonical() needs constructor provenance: one parameter-level core, shared
with enumerate_block and building no tensor, reduces the family parameters
into the block's transversal with a witness map onto the canonical
representative, and canonical() composes that witness with the transpose of
the label's orthogonal frame; the block of a tau- or T-family point comes from
algebra.tau_block or algebra.t_block, and one table holds the four
parameter-free blocks for the core, canonical_algebra and enumerate_block.
isomorphic() decides by canonical forms first: when both inputs have one in
the same block, differing parameters give a definite No and a composed
witness with a tensor-level residual below 1e-8 proves Yes, with no
derivation work.  Only the pairs the forms cannot decide (raw tensors, labels
outside the covered blocks, differing canonical blocks, a failed witness)
compare invariants, the double sign first: differing invariants give No,
equal ones Unknown unless the forms still tell the pair apart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from typing import Optional

import numpy as np

from . import algebra as al
from . import d1133 as d33
from . import derivations as dv
from . import maps as mp
from . import normal_form as nf
from . import octonion as oc
from .errors import NotInBlock, RawTensorNotSupported
from .numerics import DEFAULT_TOL

_SIGN_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

#: Block -> (family, constructor of (i, j), double signs) for the blocks
#: without moduli; the Okubo model is the one (-, -) algebra of D8.
_PARAMETER_FREE = {
    "D17": ("standard_isotope", al.standard_isotope, _SIGN_PAIRS),
    "D8": ("okubo", lambda i, j: al.okubo_p11(), ((1, 1),)),
    "D35": ("p35", al.p35, _SIGN_PAIRS[:3]),
    "D4": ("quat4", al.quat4, _SIGN_PAIRS),
}
_PARAMETER_FREE_FAMILIES = {family: kind for kind, (family, _, _) in _PARAMETER_FREE.items()}

#: Every block kind enumerate_block accepts.
BLOCK_KINDS = ("D17", "D8", "D35", "D4", "D134s", "D134a", "D116", "D1124", "D11114", "D1133")

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


@dataclass
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


@dataclass
class CanonicalForm:
    block: BlockLabel
    params: object                  # None, PairTT, (PairTT, PairTT) or (alpha, beta)
    witness: Optional[mp.OrthoMap8]  # maps the input onto the canonical algebra
    boundary_flag: bool = False

    def to_json(self):
        out = {"block": str(self.block), "kind": self.block.kind}
        if self.block.sign is not None:
            out["i"], out["j"] = self.block.sign.i, self.block.sign.j
        if self.block.kind == "D1133":
            i1, j1, i2, j2 = self.block.d1133_indices
            alpha, beta = self.params
            out.update({"i1": i1, "j1": j1, "i2": i2, "j2": j2,
                        "alpha": alpha, "beta": beta})
        elif isinstance(self.params, nf.PairTT):
            out["point"] = self.params.to_json()
        elif isinstance(self.params, tuple) and self.params and isinstance(self.params[0], nf.PairTT):
            out["point"] = [p.to_json() for p in self.params]
        return out


def canonical_algebra(form):
    """Rebuild the canonical representative algebra of a canonical form."""
    kind = form.block.kind
    sign = form.block.sign
    if kind in _PARAMETER_FREE:
        return _PARAMETER_FREE[kind][1](sign.i, sign.j)
    if kind in ("D134s", "D134a"):
        point = form.params
        return al.j_family(sign.i, sign.j, point.a, point.b)
    if kind in ("D116", "D1124", "D11114"):
        first, second = form.params
        return al.k_family(sign.i, sign.j, first.a, first.b, second.a, second.b)
    if kind == "D1133":
        i1, j1, i2, j2 = form.block.d1133_indices
        alpha, beta = form.params
        return al.g_family(i1, j1, i2, j2, alpha, beta)
    raise NotInBlock(f"no canonical representative for block {form.block}")


def _lambda_to_t(i, j, a2, b2):
    """Rewrite a lambda pair as a T pair: the circle map with determinant k
    equals conjugation by the half-angle element combined with (-1)^k."""
    out = []
    for e2, k in ((a2, j), (b2, i)):
        angle = float(np.arctan2(e2[1], e2[0])) % (2 * np.pi)
        half = ((angle - np.pi * k) / 2.0) % np.pi
        q = np.array([np.cos(half), np.sin(half), 0.0, 0.0])
        out.append((q, (-1.0) ** k * q))
    (a1, b1), (a2t, b2t) = out
    return a1, b1, a2t, b2t


def canonical(algebra, tol=DEFAULT_TOL):
    """Canonical form of a provenance-carrying algebra: _canonical_params on
    its family label, the witness composed with the transpose of the label's
    frame.  Raises RawTensorNotSupported without provenance."""
    family = algebra.family
    if family is None:
        raise RawTensorNotSupported("canonical forms need constructor provenance")
    form = _canonical_params(family.name, family.params, algebra.dim, tol)
    if family.frame is None:
        return form
    return replace(form, witness=mp.OrthoMap8(form.witness.mat @ family.frame.T, check=False))


def _canonical_params(name, p, dim, tol=DEFAULT_TOL):
    """Canonical form of the point p of the family called name; builds no tensor.

    tau family points reduce through the pair transversal, T and lambda
    families through the bracket-pair transversal, the two-parameter family
    through its angle region; the remaining families are parameter-free, with
    the identity of R^dim as witness.  Raises NotInBlock for parameters
    outside the covered blocks and RawTensorNotSupported for other names.
    """
    if name in _PARAMETER_FREE_FAMILIES:
        kind = _PARAMETER_FREE_FAMILIES[name]
        sign = al.DoubleSign(p["i"], p["j"]) if p else al.DoubleSign(*_PARAMETER_FREE[kind][2][0])
        return CanonicalForm(BlockLabel(kind, sign), None, mp.identity_map(dim))
    if name in ("tau_family", "t_family", "lambda_family"):
        i, j = p["i"], p["j"]
        if name == "tau_family":
            res = nf.nf_TxT(nf.make_pair(p["a"], p["b"]), tol)
            # the canonical pair is kept even for the parameter-free kinds (it
            # is then the fixed point of the block); equality ignores it there
            kind = al.tau_block(i, j, res.canonical.a, res.canonical.b, tol)
        else:
            if name == "lambda_family":
                qs = _lambda_to_t(i, j, np.asarray(p["a"], float), np.asarray(p["b"], float))
            else:
                qs = tuple(np.asarray(p[k], float) for k in ("a1", "b1", "a2", "b2"))
            kind = al.t_block(i, j, *qs, tol)
            if kind is None:
                raise NotInBlock("all four parameters in {1,-1}: outside the bracket-pair blocks")
            res = nf.nf_pair((nf.BracketTT.of(qs[0], qs[1], tol),
                              nf.BracketTT.of(qs[2], qs[3], tol)), tol)
        return CanonicalForm(BlockLabel(kind, al.DoubleSign(i, j)), res.canonical,
                             mp.kappa_hat_map(res.witness_q, tol), res.boundary_flag)
    if name == "g_family":
        gp = d33.GParams(p["i1"], p["j1"], p["i2"], p["j2"], p["alpha"], p["beta"])
        cp, eps = d33.canonical_1133(gp, tol)
        witness = mp.eps_hat(eps)
        sign = al.DoubleSign((gp.i1 + gp.i2) % 2, (gp.j1 + gp.j2) % 2)
        return CanonicalForm(BlockLabel("D1133", sign, gp.indices),
                             (cp.alpha, cp.beta), witness)
    raise RawTensorNotSupported(f"unsupported family {name!r}")


def _params_close(kind, left, right, tol=1e-8):
    if kind in _PARAMETER_FREE:
        return True
    if kind in ("D134s", "D134a"):
        return left.close_to(right, tol)
    if kind in ("D116", "D1124", "D11114"):
        return (left[0].close_to(right[0], tol)
                and nf.BracketTT.of(*left[1]).close_to(nf.BracketTT.of(*right[1]), tol))
    if kind == "D1133":
        return (d33.circle_distance(left[0], right[0]) < tol
                and d33.circle_distance(left[1], right[1]) < tol)
    return False


def witness_residual(phi, source, target):
    """Max basis-pair deviation of phi from being a homomorphism source -> target."""
    m = mp.as_matrix(phi)
    return oc.homomorphism_residual(m, m, m, source.sc, target.sc)


@dataclass
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

    Forms of both inputs in one block decide without derivation work: No when
    the parameters differ, Yes when the composed witness has a tensor-level
    residual below 1e-8.  Every other pair compares invariants, the double
    sign before the rest of analyze(): No when they differ, then No on
    differing canonical blocks, else Unknown (a raw tensor, a label outside
    the covered blocks, or a witness that failed its residual).
    """
    if a.dim != b.dim:
        return IsoVerdict("no", reason="dimensions differ")
    (ca, why_a), (cb, why_b) = _form_or_reason(a, tol), _form_or_reason(b, tol)
    same_block = ca is not None and cb is not None and str(ca.block) == str(cb.block)
    if same_block:
        if not _params_close(ca.block.kind, ca.params, cb.params):
            return IsoVerdict("no", reason="canonical parameters differ")
        witness = mp.OrthoMap8(cb.witness.mat.T @ ca.witness.mat, check=False)
        residual = witness_residual(witness, a, b)
        if residual < 1e-8:
            return IsoVerdict("yes", witness=witness)
    ds_a, ds_b = al.double_sign(a, tol), al.double_sign(b, tol)
    if (ds_a.i, ds_a.j) != (ds_b.i, ds_b.j):
        return IsoVerdict("no", reason="double signs differ")
    ra, rb = _analyze_with_sign(a, ds_a, tol), _analyze_with_sign(b, ds_b, tol)
    if str(ra.block) != str(rb.block):
        return IsoVerdict("no", reason=f"blocks differ: {ra.block} vs {rb.block}")
    if ca is None or cb is None:
        return IsoVerdict("unknown", reason=f"equal invariants, but {why_a or why_b}")
    if not same_block:
        return IsoVerdict("no", reason=f"canonical blocks differ: {ca.block} vs {cb.block}")
    return IsoVerdict("unknown", reason=f"canonical forms agree but witness residual {residual:g}")


# ---------------------------------------------------------------------------
# Enumeration of canonical representatives
# ---------------------------------------------------------------------------

def _grid_open(n, lo=0.0, hi=np.pi):
    return [(lo + (hi - lo) * (k + 1) / (n + 1)) for k in range(n)]


def _cx(angle):
    return np.array([np.cos(angle), np.sin(angle), 0.0, 0.0])


def enumerate_block(kind, grid=3, tol=DEFAULT_TOL):
    """Stream canonical representatives of a block (all double signs).

    Parameter-free blocks yield their finitely many classes; blocks with
    continuous moduli are sampled on a grid of the stated resolution, every
    item passing its transversal membership and pairwise non-isomorphic.
    Each grid point goes straight to _canonical_params, which decides its
    block once and builds no tensor; T kinds visit half the grid (_grid_points).
    Bracket-pair forms are deduplicated per double sign as _params_close at
    1e-6 would, against all kept ones at once (up to a simultaneous sign).
    """
    if grid < 1:
        raise ValueError("grid resolution must be at least 1")
    if kind not in BLOCK_KINDS:
        raise NotInBlock(f"unknown or unenumerable block kind {kind!r}")
    kept = {}  # double sign -> stacked (first, second) pairs of the bracket forms kept
    for family, point in _grid_points(kind, grid):
        try:
            form = _canonical_params(family, point, 4 if kind == "D4" else 8, tol)
        except NotInBlock:  # the excluded point of D1133
            continue
        if form.block.kind != kind or (kind == "D1133"
                                       and form.params != (point["alpha"], point["beta"])):
            continue  # another block, or a D1133 point outside the fold's region
        if kind in ("D116", "D1124", "D11114"):
            pairs = np.array([np.concatenate([pair.a, pair.b]) for pair in form.params])
            rows = kept.get(form.block.sign, np.empty((0, 2, 8)))
            near_second = np.minimum(np.abs(rows[:, 1] - pairs[1]).max(axis=1),
                                     np.abs(rows[:, 1] + pairs[1]).max(axis=1)) < 1e-6
            if (near_second & (np.abs(rows[:, 0] - pairs[0]).max(axis=1) < 1e-6)).any():
                continue
            kept[form.block.sign] = np.concatenate([rows, pairs[None]])
        yield form


def _grid_points(kind, grid):
    """(family, parameters) of each point enumerate_block canonicalizes.

    The T kinds skip cos s1 < 0: kappa_hat by uv (u, v -> -u, -v) on all four
    parameters, then each bracket's sign flip, sends (s1, t1, s2) to the
    earlier, isomorphic grid point (pi - s1, pi - t1, pi - s2), D11114's b2
    included.  An odd grid's self-mirrored middle s1 is left to the dedup."""
    angles = _grid_open(grid)
    if kind in _PARAMETER_FREE:
        family, _, signs = _PARAMETER_FREE[kind]
        for i, j in signs:
            yield family, {"i": i, "j": j}
    elif kind == "D1133":  # i2 = 1 or j2 = 1; on this grid the angle fold is the identity
        for (i1, j1), (i2, j2), alpha, beta in product(
                _SIGN_PAIRS, _SIGN_PAIRS[1:], _grid_open(grid, 0.0, np.pi / 2), angles):
            yield "g_family", {"i1": i1, "j1": j1, "i2": i2, "j2": j2,
                               "alpha": alpha, "beta": beta}
    elif kind == "D134s":
        for (i, j), (sa, sb) in product(_SIGN_PAIRS, ((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))):
            yield "tau_family", {"i": i, "j": j, "a": sa * nf.ONE4, "b": sb * nf.ONE4}
    elif kind == "D134a":
        for (i, j), alpha, alpha2, beta in product(_SIGN_PAIRS, angles, angles,
                                                   np.linspace(0.0, np.pi, grid)):
            b = np.array([np.cos(alpha2), np.sin(alpha2) * np.cos(beta),
                          np.sin(alpha2) * np.sin(beta), 0.0])
            yield "tau_family", {"i": i, "j": j, "a": _cx(alpha), "b": b}
    else:
        half = angles[:(grid + 1) // 2]  # by index: the middle angle need not be pi/2 exactly
        for (i, j), s1, (t1, s2) in product(_SIGN_PAIRS, half, product(angles, repeat=2)):
            a1, a2 = _cx(s1), _cx(s2)
            if kind == "D116" and t1 == s1:  # b1 aligned with a1: one angle fewer
                qs = (a1, (-1.0) ** j * a1, a2, (-1.0) ** i * a2)
            elif kind == "D1124":
                qs = (a1, _cx(t1), a2, (-1.0) ** i * a2)
            elif kind == "D11114":
                qs = (a1, (-1.0) ** j * a1, _cx(t1),
                      np.array([np.cos(s2), 0.0, np.sin(s2), 0.0]))
            else:
                continue
            yield "t_family", {"i": i, "j": j, **dict(zip(("a1", "b1", "a2", "b2"), qs))}
