"""Derivation Lie algebras and module decompositions, one factorization each.

derivation_basis solves the Leibniz system, built in so(n) coordinates when
algebra.norm_multiplicative holds and in gl(n) otherwise.  For every algebra
isomorphic to a composition algebra, in any basis, Der(A) is compact (skew in
an orthonormal basis of the norm), so the bracket rank derived_dim alone gives
lie_type's label, and the center and the Killing signature in closed form:
dim - derived_dim and (derived_dim, dim - derived_dim, 0).  decompose splits
off the common kernel and its complement with one SVD, then eigen-splits along
symmetric commutant elements solved in sym(d) once per module; by Schur a
piece is irreducible exactly when its symmetric commutant is the scalars.
Nothing here is random: every result is a function of the tensor and tol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algebra as al
from .errors import AbelianDerivations, NotInvariant
from .numerics import DEFAULT_TOL, nullspace, rank, row_and_null_space, sym_eigen

#: Residual accepted for invariance of subspaces under derivations.
INVARIANCE_TOL = 1e-7

#: np.triu_indices, cached per size and diagonal offset; the arrays are shared.
_triu_indices = functools.lru_cache(maxsize=None)(np.triu_indices)


@dataclass(frozen=True)
class DerivationAlgebra:
    """Orthonormal basis of Der(A), one (dim, n, n) stack, with its dimension
    and the dimension of [Der(A), Der(A)]."""

    basis: np.ndarray
    dim: int
    derived_dim: int


class LieTypeLabel(Enum):
    G2 = "g2"
    SU3 = "su3"
    SU2xSU2 = "su2+su2"
    SU2xA1 = "su2+center"
    SU2 = "su2"
    ABELIAN = "abelian"
    OTHER = "other"


@dataclass(frozen=True)
class ModuleDecomposition:
    """Orthogonal decomposition into irreducible invariant subspaces."""

    subspaces: list        # list of (dim x d_i) orthonormal bases
    partition: tuple       # sorted multiset of the d_i
    trivial: np.ndarray    # orthonormal basis of the common kernel of Der(A)

    @property
    def trivial_dim(self):
        return self.trivial.shape[1]


def leibniz_matrix(algebra, skew=False):
    """The dim^3 x dim^2 system whose kernel is Der(A), acting on vec(D); with
    skew, the dim^3 x dim(dim-1)/2 system on D's coordinates in _so_basis,
    built term by term."""
    s = algebra.sc
    n = algebra.dim
    if skew:
        target, source, sign = _so_leibniz_terms(n)
        return np.bincount(target, s.ravel()[source] * sign, n ** 4 * (n - 1) // 2).reshape(n ** 3, -1)
    idx = np.arange(n)
    coeff = np.zeros((n,) * 5)  # coeff[i, j, k, r, c]
    coeff[:, :, idx, idx, :] = s[:, :, None, :]              # s[i,j,c] if k == r
    coeff[idx, :, :, :, idx] -= s.transpose(1, 2, 0)[None]   # s[r,j,k] if c == i
    coeff[:, idx, :, :, idx] -= s.transpose(0, 2, 1)[None]   # s[i,r,k] if c == j
    return coeff.reshape(n ** 3, n ** 2)


@functools.lru_cache(maxsize=None)
def _so_basis(n):
    """Orthonormal basis vec((E_ij - E_ji)/sqrt(2)), i < j, of so(n); read-only."""
    units = np.eye(n * n).reshape(n, n, n * n)
    basis = np.sqrt(0.5) * (units - units.transpose(1, 0, 2))[~np.tri(n, dtype=bool)].T
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=None)
def _so_leibniz_terms(n):
    """Flat positions in the so(n) Leibniz system and in sc, and signs, of its
    nonzero terms; column (p, q) holds D = (E_pq - E_qp)/sqrt(2) of _so_basis."""
    p, q = _triu_indices(n, 1)
    i, j, col = np.ix_(range(n), range(n), range(len(p)))
    terms = []
    for a, b, sign in ((p, q, 1.0), (q, p, -1.0)):  # D e_b = sign e_a / sqrt(2)
        terms += [((i, j, a), (i, j, b), sign),     # D(e_i e_j) at k = a: s[i, j, b]
                  ((b, i, j), (a, i, j), -sign),    # D(e_b) e_i at k = j: s[a, i, j]
                  ((i, b, j), (i, a, j), -sign)]    # e_i D(e_b) at k = j: s[i, a, j]
    shape = (n, n, n, len(p))
    target = [np.ravel_multi_index(np.broadcast_arrays(*row, col), shape).ravel() for row, _, _ in terms]
    source = [np.ravel_multi_index(src, shape[:3]).ravel() for _, src, _ in terms]
    sign = np.repeat([np.sqrt(0.5) * t[2] for t in terms], n * n * len(p))
    return np.concatenate(target), np.concatenate(source), sign


@functools.lru_cache(maxsize=None)
def _sym_basis(d):
    """Orthonormal basis E_ii, (E_ij + E_ji)/sqrt(2), i < j, of sym(d) as a
    d(d+1)/2 x d x d stack; read-only."""
    units = np.eye(d * d).reshape(d * d, d, d)
    basis = (units + units.transpose(0, 2, 1))[np.triu(np.ones((d, d), bool)).ravel()]
    basis /= np.linalg.norm(basis, axis=(1, 2))[:, None, None]
    basis.flags.writeable = False
    return basis


def derivation_basis(algebra, tol=DEFAULT_TOL):
    """Orthonormal basis (under the trace form) of the derivation algebra.

    A norm-multiplicative product has only skew derivations, so the Leibniz
    system is solved over so(n); any other tensor falls back to gl(n)."""
    n = algebra.dim
    skew = n > 1 and al.norm_multiplicative(algebra, tol)
    coeffs = nullspace(leibniz_matrix(algebra, skew), tol).T
    stack = coeffs @ _so_basis(n).T if skew else np.ascontiguousarray(coeffs)
    return _structure(stack.reshape(-1, n, n), tol)


def _structure(stack, tol):
    """The Lie algebra spanned by the d x n x n stack, which is orthonormal
    under the trace form, with one decision: derived_dim, the rank of the
    structure constants c[a, b, e] = <[S_a, S_b], S_e>.  A compact Lie
    algebra is z(g) + [g, g], its Killing form negative definite on [g, g] and
    zero on z(g), so its center and Killing signature are closed forms of
    derived_dim: d - derived_dim and (derived_dim, d - derived_dim, 0).  Der(A)
    is compact for every algebra isomorphic to a composition algebra; any
    other stack gets this compact reading."""
    d, n = stack.shape[:2]
    # every S_a S_b in one GEMM; t[a, b, e] = <S_a S_b, S_e>
    prod = (stack.reshape(d * n, n) @ stack.transpose(1, 0, 2).reshape(n, d * n)).reshape(d, n, d, n)
    t = (prod.transpose(0, 2, 1, 3).reshape(d * d, n * n) @ stack.reshape(d, n * n).T).reshape(d, d, d)
    struct = t - t.transpose(1, 0, 2)
    derived = rank(struct[_triu_indices(d, 1)], tol) if d > 1 else 0
    stack.flags.writeable = False
    return DerivationAlgebra(stack, d, derived)


#: Compact Lie algebras by (dim, derived dim): semisimple when the two agree.
_COMPACT_TYPES = {(14, 14): LieTypeLabel.G2, (8, 8): LieTypeLabel.SU3,
                  (6, 6): LieTypeLabel.SU2xSU2, (3, 3): LieTypeLabel.SU2,
                  (4, 3): LieTypeLabel.SU2xA1}


def lie_type(der):
    """Label a compact Lie algebra by (dim, derived_dim): abelian when the
    brackets vanish; g2, su3, su2+su2 or su2 when it is its own derived
    algebra of dimension 14, 8, 6 or 3; su2+center at (4, 3); else other.
    A non-compact Der(A) (no algebra isomorphic to a composition algebra has
    one) gets the compact reading of the two integers."""
    if der.derived_dim == 0:
        return LieTypeLabel.ABELIAN
    return _COMPACT_TYPES.get((der.dim, der.derived_dim), LieTypeLabel.OTHER)


def leibniz_residual(algebra, delta):
    """Max norm of delta(xy) - delta(x)y - x delta(y) over basis pairs."""
    s = algebra.sc
    lhs = np.einsum("km,ijm->ijk", delta, s)
    rhs = np.einsum("mi,mjk->ijk", delta, s) + np.einsum("mj,imk->ijk", delta, s)
    return float(np.max(np.abs(lhs - rhs)))


def trivial_submodule(algebra, der=None, tol=DEFAULT_TOL):
    """Orthonormal basis of the common kernel of all derivations."""
    if der is None:
        der = derivation_basis(algebra, tol)
    if der.dim == 0:
        return np.eye(algebra.dim)
    return nullspace(der.basis.reshape(-1, algebra.dim), tol)


def commutant_basis(restricted, d, tol=DEFAULT_TOL):
    """Orthonormal basis (a stack of d x d matrices) of the symmetric commutant:
    the symmetric parts of all Y with Y delta = delta Y for the restricted deltas.

    Skew deltas have a transpose-closed commutant, solved in sym(d): there
    delta S - S delta = delta S + (delta S)^T (every delta S from one GEMM),
    and its upper triangle, off-diagonal rows weighted sqrt(2), has the Gram
    matrix and singular values of all d^2 entries at half the height.  Other
    deltas fall back to gl(d) coordinates with all d^2 entries as rows."""
    skew = np.max(np.abs(restricted + restricted.transpose(0, 2, 1)), initial=0.0) < tol.value
    if skew:
        coords, (i, k) = _sym_basis(d), _triu_indices(d)
        prod = restricted.reshape(-1, d) @ coords.transpose(1, 0, 2).reshape(d, -1)
        prod = prod.reshape(len(restricted), d, len(coords), d)  # (delta_a S_s)[i, k] at [a, i, s, k]
        rows = (prod[:, i, :, k] + prod[:, k, :, i]) * np.where(i == k, 1.0, np.sqrt(2.0))[:, None, None]
    else:
        coords = np.eye(d * d).reshape(-1, d, d)
        rows = (restricted[:, None] @ coords[None] - coords[None] @ restricted[:, None]).transpose(0, 2, 3, 1)
    kernel = nullspace(rows.reshape(-1, len(coords)), tol)
    comm = (kernel.T @ coords.reshape(len(coords), d * d)).reshape(-1, d, d)
    if skew:
        return comm
    sym = (comm + comm.transpose(0, 2, 1)).reshape(len(comm), d * d)
    return row_and_null_space(sym, tol)[0].T.reshape(-1, d, d)


def _restrict(subspace, der):
    """The derivations restricted to the subspace, in its orthonormal basis;
    NotInvariant when the subspace is not invariant under them."""
    image = der.basis @ subspace
    restricted = subspace.T @ image
    if np.max(np.abs(image - subspace @ restricted), initial=0.0) >= INVARIANCE_TOL:
        raise NotInvariant("subspace is not invariant under the derivations")
    return restricted


def is_irreducible(subspace, der):
    """Certify irreducibility of an invariant subspace.

    Derivations of a composition algebra are skew, so by Schur the subspace
    is irreducible exactly when the symmetric commutant of the restricted
    derivations is the scalars: one solve in sym(d) and its kernel dimension
    decide it, at DEFAULT_TOL.  With Der(A) = 0 only lines are irreducible.
    """
    subspace = np.asarray(subspace, dtype=float)
    if subspace.ndim == 1:
        subspace = subspace.reshape(-1, 1)
    if subspace.ndim != 2:
        raise ValueError("subspace must be given by basis columns")
    if der.dim == 0:
        return subspace.shape[1] == 1
    return len(commutant_basis(_restrict(subspace, der), subspace.shape[1])) == 1


def decompose(algebra, tol=DEFAULT_TOL, der=None):
    """Decompose A into irreducible submodules of its derivation algebra.

    One SVD of the stacked derivations gives the common kernel (as trivial
    lines) and its complement; each invariant module's symmetric commutant
    is solved once.  A module is accepted when that is the scalars (Schur, for
    the orthogonal module of a composition algebra), else split along the
    eigenspaces of the largest traceless commutant element.  Its commutant
    holds each part's, at least the scalars, so parts as many as its dimension
    are accepted without a solve; fewer are solved again, and one cluster
    (round-off) is accepted whole.  Every piece passes the invariance check.
    Raises AbelianDerivations when there is nothing to decompose against.
    """
    if der is None:
        der = derivation_basis(algebra, tol)
    if der.derived_dim == 0:
        raise AbelianDerivations("derivation algebra is abelian")
    complement, triv = row_and_null_space(der.basis.reshape(-1, algebra.dim), tol)
    pieces = [triv[:, [k]] for k in range(triv.shape[1])]
    queue = [(complement, False)]  # a non-abelian Der(A) moves some vector
    while queue:
        sub, irreducible = queue.pop()
        d = sub.shape[1]
        restricted = _restrict(sub, der)
        comm = () if irreducible else commutant_basis(restricted, d, tol)
        if len(comm) > 1:
            traceless = [s - np.trace(s) / d * np.eye(d) for s in comm]
            eig = sym_eigen(max(traceless, key=np.linalg.norm), tol)
            if len(eig.clusters) > 1:
                parts = [sub @ eig.vectors[:, c] for c in eig.clusters]
                queue.extend((part, len(parts) == len(comm)) for part in parts)
                continue
        pieces.append(sub)
    pieces.sort(key=lambda p: (p.shape[1], tuple(np.round(np.abs(p[:, 0]), 6))))
    partition = tuple(sorted(p.shape[1] for p in pieces))
    return ModuleDecomposition(subspaces=pieces, partition=partition, trivial=triv)
