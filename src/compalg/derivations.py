"""Derivation Lie algebras and module decompositions.

derivation_basis solves the Leibniz system as one kernel problem, in so(n)
when algebra.norm_multiplicative holds and in gl(n) otherwise; lie_type
reads the label off invariants (derived algebra, center, Killing signature)
that separate the five types occurring here.  decompose peels off the common
kernel and eigen-splits the rest along symmetric commutant elements, solved
for directly in sym(d); by Schur a piece is irreducible exactly when its
symmetric commutant is the scalars.
Nothing here is random: every result is a function of the tensor and tol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import algebra as al
from .errors import AbelianDerivations, NotInvariant
from .numerics import CLUSTER_TOL, DEFAULT_TOL, nullspace, rank, sym_eigen

#: Residual accepted for invariance of subspaces under derivations.
INVARIANCE_TOL = 1e-7


@dataclass
class DerivationAlgebra:
    """Orthonormal basis of Der(A) with its structural invariants."""

    basis: list
    dim: int
    killing_signature: tuple
    derived_dim: int
    center_dim: int
    structure: np.ndarray  # c[a, b, e]: [basis_a, basis_b] = sum_e c[a,b,e] basis_e


class LieTypeLabel(Enum):
    G2 = "g2"
    SU3 = "su3"
    SU2xSU2 = "su2+su2"
    SU2xA1 = "su2+center"
    SU2 = "su2"
    ABELIAN = "abelian"
    OTHER = "other"


@dataclass
class ModuleDecomposition:
    """Orthogonal decomposition into irreducible invariant subspaces."""

    subspaces: list        # list of (dim x d_i) orthonormal bases
    partition: tuple       # sorted multiset of the d_i
    trivial: np.ndarray    # orthonormal basis of the common kernel of Der(A)

    @property
    def trivial_dim(self):
        return self.trivial.shape[1]

    def to_json(self):
        return {"partition": list(self.partition), "trivial_dim": self.trivial_dim}


def leibniz_matrix(algebra, coords=None):
    """The dim^3 x dim^2 system whose kernel is Der(A), acting on vec(D); with
    coords, the system on the coefficients c of vec(D) = coords @ c."""
    s = algebra.sc
    n = algebra.dim
    idx = np.arange(n)
    coeff = np.zeros((n,) * 5)  # coeff[i, j, k, r, c]
    coeff[:, :, idx, idx, :] = s[:, :, None, :]              # s[i,j,c] if k == r
    coeff[idx, :, :, :, idx] -= s.transpose(1, 2, 0)[None]   # s[r,j,k] if c == i
    coeff[:, idx, :, :, idx] -= s.transpose(0, 2, 1)[None]   # s[i,r,k] if c == j
    system = coeff.reshape(n ** 3, n ** 2)
    return system if coords is None else system @ coords


@functools.lru_cache(maxsize=None)
def _so_basis(n):
    """Orthonormal basis vec((E_ij - E_ji)/sqrt(2)), i < j, of so(n); read-only."""
    units = np.eye(n * n).reshape(n, n, n * n)
    basis = np.sqrt(0.5) * (units - units.transpose(1, 0, 2))[~np.tri(n, dtype=bool)].T
    basis.flags.writeable = False
    return basis


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
    coords = _so_basis(n) if n > 1 and al.norm_multiplicative(algebra, tol) else np.eye(n * n)
    kernel = coords @ nullspace(leibniz_matrix(algebra, coords), tol)
    return _structure(np.ascontiguousarray(kernel.T).reshape(-1, n, n), tol)


def _structure(stack, tol):
    """Invariants of the Lie algebra spanned by the d x n x n stack, which is
    orthonormal under the trace form."""
    d, n = stack.shape[:2]
    if d == 0:
        return DerivationAlgebra([], 0, (0, 0, 0), 0, 0, np.zeros((0, 0, 0)))
    prod = stack[:, None] @ stack[None]
    comm = (prod - prod.transpose(1, 0, 2, 3)).reshape(d * d, n * n)
    struct = (comm @ stack.reshape(d, n * n).T).reshape(d, d, d)

    # derived algebra: span of the commutators
    derived_dim = rank(struct[np.triu_indices(d, 1)], tol) if d > 1 else 0

    # center: x with [x, basis_b] = 0 for all b
    ad = struct.transpose(1, 2, 0)  # ad matrix of x: sum_a x_a struct[a, b, e]
    center_dim = nullspace(ad.reshape(d * d, d), tol).shape[1]

    # kappa(x, y) = tr(ad_x ad_y); ad_a[e, b] = struct[a, b, e]
    killing = struct.reshape(d, d * d) @ struct.transpose(0, 2, 1).reshape(d, d * d).T
    eig = np.linalg.eigvalsh(0.5 * (killing + killing.T))
    scale = max(1.0, float(np.max(np.abs(eig))))
    neg = int(np.sum(eig < -CLUSTER_TOL * scale))
    pos = int(np.sum(eig > CLUSTER_TOL * scale))
    zero = d - neg - pos
    return DerivationAlgebra(list(stack), d, (neg, zero, pos), derived_dim, center_dim, struct)


def lie_type(der):
    """Label the Lie algebra by dimension, derived dimension, center and
    Killing signature; negative-definite Killing form means compact semisimple."""
    d = der.dim
    neg, zero, pos = der.killing_signature
    semisimple = (zero == 0 and pos == 0 and d > 0)
    if der.derived_dim == 0:
        return LieTypeLabel.ABELIAN
    if d == 14 and semisimple:
        return LieTypeLabel.G2
    if d == 8 and semisimple:
        return LieTypeLabel.SU3
    if d == 6 and der.derived_dim == 6 and der.center_dim == 0:
        return LieTypeLabel.SU2xSU2
    if d == 4 and der.derived_dim == 3 and der.center_dim == 1:
        return LieTypeLabel.SU2xA1
    if d == 3 and semisimple:
        return LieTypeLabel.SU2
    return LieTypeLabel.OTHER


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
    return nullspace(np.vstack(der.basis), tol)


def commutant_basis(restricted, d, tol=DEFAULT_TOL):
    """Orthonormal basis (a stack of d x d matrices) of the symmetric commutant:
    the symmetric parts of all Y with Y delta = delta Y for the restricted deltas.

    Skew deltas have a transpose-closed commutant, so it is solved in sym(d)
    coordinates with all d^2 entries of delta S - S delta as rows; other deltas
    fall back to gl(d) coordinates.  One batched matmul and its mirror."""
    skew = np.max(np.abs(restricted + restricted.transpose(0, 2, 1)), initial=0.0) < tol.eq_tol
    coords = _sym_basis(d) if skew else np.eye(d * d).reshape(-1, d, d)
    system = restricted[:, None] @ coords[None] - coords[None] @ restricted[:, None]
    kernel = nullspace(system.transpose(0, 2, 3, 1).reshape(-1, len(coords)), tol)
    comm = (kernel.T @ coords.reshape(len(coords), d * d)).reshape(-1, d, d)
    if skew:
        return comm
    sym = (comm + comm.transpose(0, 2, 1)).reshape(len(comm), d * d)
    return np.linalg.svd(sym, full_matrices=False)[2][:rank(sym, tol)].reshape(-1, d, d)


def _commutant(subspace, der, tol):
    """Check that the subspace is invariant under the derivations, then return
    the symmetric commutant basis of their restriction and its dimension: 1
    exactly when an orthogonal module is irreducible (Schur)."""
    n, d = subspace.shape
    image = np.reshape(der.basis, (-1, n, n)) @ subspace
    restricted = subspace.T @ image
    if np.max(np.abs(image - subspace @ restricted), initial=0.0) >= INVARIANCE_TOL:
        raise NotInvariant("subspace is not invariant under the derivations")
    comm = commutant_basis(restricted, d, tol)
    return comm, len(comm)


def is_irreducible(subspace, der, tol=DEFAULT_TOL):
    """Certify irreducibility of an invariant subspace.

    Derivations of a composition algebra are skew, so by Schur the subspace
    is irreducible exactly when the symmetric commutant of the restricted
    derivations is the scalars: one solve in sym(d) and its kernel dimension
    decide it.  With Der(A) = 0 only lines are irreducible.
    """
    subspace = np.asarray(subspace, dtype=float)
    if subspace.ndim == 1:
        subspace = subspace.reshape(-1, 1)
    if subspace.ndim != 2:
        raise ValueError("subspace must be given by basis columns")
    if der.dim == 0:
        return subspace.shape[1] == 1
    return _commutant(subspace, der, tol)[1] == 1


def decompose(algebra, tol=DEFAULT_TOL, der=None):
    """Decompose A into irreducible submodules of its derivation algebra.

    Splits off the common kernel first (as one-dimensional trivial pieces),
    then solves each invariant piece for its symmetric commutant once: the
    piece is accepted when that is the scalars (Schur, for the orthogonal
    module of a composition algebra) and otherwise split along the
    eigenspaces of the largest traceless part among the symmetric commutant
    basis, nonzero when its dimension exceeds 1.  A piece that part leaves as
    one eigenvalue cluster (round-off) is accepted whole.
    Raises AbelianDerivations when there is nothing to decompose against.
    """
    if der is None:
        der = derivation_basis(algebra, tol)
    if der.derived_dim == 0:
        raise AbelianDerivations("derivation algebra is abelian")
    n = algebra.dim
    triv = trivial_submodule(algebra, der, tol)
    pieces = [triv[:, [k]] for k in range(triv.shape[1])]
    if triv.shape[1] < n:
        queue = [nullspace(triv.T, tol) if triv.shape[1] else np.eye(n)]
        while queue:
            sub = queue.pop()
            comm, sym_dim = _commutant(sub, der, tol)
            if sym_dim > 1:
                d = sub.shape[1]
                traceless = [s - np.trace(s) / d * np.eye(d) for s in comm]
                eig = sym_eigen(max(traceless, key=np.linalg.norm), tol)
                if len(eig.clusters) > 1:
                    queue.extend(sub @ eig.vectors[:, c] for c in eig.clusters)
                    continue
            pieces.append(sub)
    pieces.sort(key=lambda p: (p.shape[1], tuple(np.round(np.abs(p[:, 0]), 6))))
    partition = tuple(sorted(p.shape[1] for p in pieces))
    return ModuleDecomposition(subspaces=pieces, partition=partition, trivial=triv)
