"""Derivation Lie algebras and module decompositions.

derivation_basis solves the Leibniz system on basis pairs as one big linear
kernel problem; lie_type reads the label off structural invariants (derived
algebra, center, Killing signature), which separate the five types that can
occur here.  decompose splits the algebra into irreducible invariant
subspaces by peeling off the common kernel and then eigen-splitting random
symmetric elements of the commutant until irreducibility certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AbelianDerivations, NotInvariant
from .numerics import (CLUSTER_TOL, DEFAULT_SEED, DEFAULT_TOL, nullspace, rank, rng,
                       sym_eigen)

#: Residual accepted on the Leibniz rule; looser than rank_tol because the
#: two-parameter family tensors carry trigonometric round-off.
LEIBNIZ_TOL = 1e-8

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
    trivial_dim: int

    def to_json(self):
        return {"partition": list(self.partition), "trivial_dim": self.trivial_dim}


def leibniz_matrix(algebra):
    """The dim^3 x dim^2 system whose kernel is Der(A), acting on vec(D)."""
    s = algebra.sc
    n = algebra.dim
    idx = np.arange(n)
    coeff = np.zeros((n,) * 5)  # coeff[i, j, k, r, c]
    coeff[:, :, idx, idx, :] = s[:, :, None, :]              # s[i,j,c] if k == r
    coeff[idx, :, :, :, idx] -= s.transpose(1, 2, 0)[None]   # s[r,j,k] if c == i
    coeff[:, idx, :, :, idx] -= s.transpose(0, 2, 1)[None]   # s[i,r,k] if c == j
    return coeff.reshape(n ** 3, n ** 2)


def derivation_basis(algebra, tol=DEFAULT_TOL):
    """Orthonormal basis (under the trace form) of the derivation algebra."""
    n = algebra.dim
    kernel = nullspace(leibniz_matrix(algebra), tol)
    return _structure(np.ascontiguousarray(kernel.T).reshape(-1, n, n), tol)


def _structure(stack, tol):
    """Invariants of the Lie algebra spanned by the d x n x n stack, which is
    orthonormal under the trace form."""
    d = stack.shape[0]
    if d == 0:
        return DerivationAlgebra([], 0, (0, 0, 0), 0, 0, np.zeros((0, 0, 0)))
    prod = np.einsum("aij,bjk->abik", stack, stack)
    struct = np.einsum("abik,eik->abe", prod - prod.transpose(1, 0, 2, 3), stack)

    # derived algebra: span of the commutators
    derived_dim = rank(struct[np.triu_indices(d, 1)], tol) if d > 1 else 0

    # center: x with [x, basis_b] = 0 for all b
    ad = np.einsum("abe->bea", struct)  # ad matrix of x: sum_a x_a struct[a, b, e]
    center_dim = nullspace(ad.reshape(d * d, d), tol).shape[1]

    # kappa(x, y) = tr(ad_x ad_y); ad_a[e, b] = struct[a, b, e]
    killing = np.einsum("afe,bef->ab", struct, struct)
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
    stacked = np.vstack(der.basis)
    return nullspace(stacked, tol)


def _restrict(der, basis):
    d = basis.shape[1]
    return np.reshape([basis.T @ delta @ basis for delta in der.basis], (-1, d, d))


def commutant_basis(restricted, d, tol=DEFAULT_TOL):
    """Basis of {Y : Y delta = delta Y for all restricted derivations}.

    The system stacks kron(I, delta^T) - kron(delta, I) over the deltas,
    built in one broadcast."""
    eye = np.eye(d)
    system = (np.einsum("ij,kba->kiajb", eye, restricted)
              - np.einsum("kij,ab->kiajb", restricted, eye))
    kernel = nullspace(system.reshape(-1, d * d), tol)
    return [kernel[:, c].reshape(d, d) for c in range(kernel.shape[1])]


def _random_symmetric_commutant(comm, gen, d):
    for _ in range(16):
        y = sum(float(c) * m for c, m in zip(gen.standard_normal(len(comm)), comm))
        y = 0.5 * (y + y.T)
        norm = np.linalg.norm(y)
        if norm > 1e-8:
            return y / norm
    return None


def _krylov_dims(restricted, vectors):
    """Dimension of the span each start vector generates under the restricted
    derivations: each step appends delta @ span for every delta and keeps the
    columns of Q whose R diagonal exceeds 1e-9, until the width stops growing.
    Spans of equal width step together in one batched product and stacked QR."""
    dims = [0] * len(vectors)
    active = [(k, v.reshape(-1, 1)) for k, v in enumerate(vectors)]
    while active:
        width = active[0][1].shape[1]
        group = [item for item in active if item[1].shape[1] == width]
        active = [item for item in active if item[1].shape[1] != width]
        stack = np.stack([span for _, span in group])[:, None]
        grown = np.concatenate([stack, restricted @ stack], axis=1)
        m, _, d, _ = grown.shape
        q, r = np.linalg.qr(grown.transpose(0, 2, 1, 3).reshape(m, d, -1))
        keep = np.abs(np.diagonal(r, axis1=1, axis2=2)) > 1e-9
        for (k, _), q_k, keep_k in zip(group, q, keep):
            if np.count_nonzero(keep_k) == width:
                dims[k] = width
            else:
                active.append((k, q_k[:, keep_k]))
    return dims


def is_irreducible(subspace, der, tol=DEFAULT_TOL, seed=DEFAULT_SEED):
    """Certify irreducibility of an invariant subspace.

    Two generic checks: random vectors must generate the whole subspace
    under repeated application of the derivations, and a random symmetric
    commutant element of the restricted action must have a single
    eigenvalue cluster (otherwise its eigenspaces split the subspace).
    """
    subspace = np.asarray(subspace, dtype=float)
    if subspace.ndim == 1:
        subspace = subspace.reshape(-1, 1)
    if subspace.ndim != 2:
        raise ValueError("subspace must be given by basis columns")
    n, d = subspace.shape
    proj_out = np.eye(n) - subspace @ subspace.T
    moved = proj_out @ np.reshape(der.basis, (len(der.basis), n, n)) @ subspace
    if np.max(np.abs(moved), initial=0.0) >= INVARIANCE_TOL:
        raise NotInvariant("subspace is not invariant under the derivations")
    if d == 1:
        return True
    gen = rng(seed)
    vectors = [gen.standard_normal(d) for _ in range(5)]
    vectors = [v / np.linalg.norm(v) for v in vectors]
    restricted = _restrict(der, subspace)
    if any(dim != d for dim in _krylov_dims(restricted, vectors)):
        return False
    comm = commutant_basis(restricted, d, tol)
    y = _random_symmetric_commutant(comm, gen, d)
    if y is None:
        return True
    return len(sym_eigen(y, tol).clusters) == 1


def decompose(algebra, tol=DEFAULT_TOL, seed=DEFAULT_SEED, der=None):
    """Decompose A into irreducible submodules of its derivation algebra.

    Splits off the common kernel first (as one-dimensional trivial pieces),
    then recursively eigen-splits the invariant complement along random
    symmetric commutant elements until every piece certifies irreducible.
    Raises AbelianDerivations when there is nothing to decompose against.
    """
    if der is None:
        der = derivation_basis(algebra, tol)
    if der.derived_dim == 0:
        raise AbelianDerivations("derivation algebra is abelian")
    gen = rng(seed)
    n = algebra.dim
    triv = trivial_submodule(algebra, der, tol)
    pieces = [triv[:, [k]] for k in range(triv.shape[1])]
    if triv.shape[1] < n:
        if triv.shape[1]:
            complement = nullspace(triv.T, tol)
        else:
            complement = np.eye(n)
        queue = [complement]
        while queue:
            sub = queue.pop()
            d = sub.shape[1]
            if d == 1 or is_irreducible(sub, der, tol, seed=int(gen.integers(2 ** 31))):
                pieces.append(sub)
                continue
            restricted = _restrict(der, sub)
            comm = commutant_basis(restricted, d, tol)
            split_done = False
            for _ in range(16):
                y = _random_symmetric_commutant(comm, gen, d)
                if y is None:
                    break
                eig = sym_eigen(y, tol)
                if len(eig.clusters) > 1:
                    for cluster in eig.clusters:
                        queue.append(sub @ eig.vectors[:, cluster])
                    split_done = True
                    break
            if not split_done:
                # No symmetric commutant element separates it; accept as one piece.
                pieces.append(sub)
    pieces.sort(key=lambda p: (p.shape[1], tuple(np.round(np.abs(p[:, 0]), 6))))
    partition = tuple(sorted(p.shape[1] for p in pieces))
    return ModuleDecomposition(subspaces=pieces, partition=partition,
                               trivial_dim=triv.shape[1])
