"""Small dense real linear algebra with an explicit tolerance policy.

Everything downstream works with operators of size at most 64, stored as
numpy arrays.  Rank decisions are made on singular values relative to the
largest one; eigenvalue multiplicities are decided with a coarser clustering
threshold so that module-dimension counting survives accumulated round-off.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadIndices, NearSingular, NotSymmetric

#: Default seed of rng(): the fixed sample points of double_sign and verify's draws.
DEFAULT_SEED = 0xC0FFEE

#: Eigenvalues closer than this are reported as one cluster.
CLUSTER_TOL = 1e-7

#: Orbit closeness of canonical parameters, and the largest homomorphism
#: residual of a witness or a triality pair.
PAIR_TOL = 1e-8


@dataclass(frozen=True)
class TolerancePolicy:
    """The one threshold of every numeric decision.

    Rank cuts read value relative to the largest singular value, equality
    checks read it entrywise, and every sign or zero decision on family
    parameters reads it as the closed deadband of deadband_signs below:
    |x| <= value counts as 0.
    """

    value: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.value < 1e-3):
            raise ValueError(f"tolerance must lie in (0, 1e-3), got {self.value}")


DEFAULT_TOL = TolerancePolicy()


def rng(seed=DEFAULT_SEED):
    """Deterministic generator; pass around explicitly, never use global state."""
    return np.random.default_rng(seed)


def deadband_signs(values, deadband):
    """Sign of each entry of values as -1, 0 or +1, with |x| <= deadband
    counted as 0; ValueError on NaN.  Plain float comparisons, on a tuple as it
    is and on anything else after one tolist(): normal forms call it per quaternion."""
    signs = []
    xs = values if isinstance(values, tuple) else np.asarray(values, dtype=float).ravel().tolist()
    for x in xs:
        if x > deadband:
            signs.append(1)
        elif x < -deadband:
            signs.append(-1)
        elif x == x:
            signs.append(0)
        else:
            raise ValueError("deadband sign of NaN")
    return tuple(signs)


def is_floats(x, n):
    """x is an n-tuple of floats, which the float paths take as it is."""
    return type(x) is tuple and len(x) == n and all(map(float.__instancecheck__, x))


def vanishes(x, deadband):
    """The norm of x, a float array or tuple, lies in the closed deadband: |x|
    <= deadband.  A rotation keeps the norm, where it moves the coordinates' signs."""
    return math.hypot(*(x if isinstance(x, tuple) else x.tolist())) <= deadband


def leading_sign(values, deadband):
    """The first nonzero entry of deadband_signs(values, deadband), or 0."""
    return next((s for s in deadband_signs(values, deadband) if s), 0)


def as_indices(*ks):
    """The indices as ints, each of which must equal 0 or 1: BadIndices
    otherwise, so that 0.5 is rejected rather than truncated."""
    if not all(k in (0, 1) for k in ks):
        raise BadIndices(f"indices must be 0 or 1, got {ks}")
    return tuple(int(k) for k in ks)


def check_matrix(m, square=False, stack=False):
    """Validate shape and finiteness; return the array as float64.  With
    stack, a stack of matrices along one leading axis is accepted too."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    # Operators live in dimension <= 64; stacked systems (e.g. the Leibniz
    # system, 512 x 64) may have up to 64 columns but more rows.
    if not (1 <= m.shape[-2] <= 4096 and 1 <= m.shape[-1] <= 4096):
        raise ValueError(f"matrix dimensions out of range: {m.shape}")
    if square and m.shape[-2] != m.shape[-1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def _rank_cut(s, tol):
    """Number of singular values s (descending) above tol relative to the
    largest; none when the largest is within tol of 0."""
    smax = s[0]
    if smax <= tol.value:
        return 0
    return int(np.sum(s > tol.value * smax))


def nullspace(m, tol=DEFAULT_TOL):
    """Orthonormal basis of ker(m), returned as the columns of an array."""
    return row_and_null_space(m, tol)[1].copy()


def row_and_null_space(m, tol=DEFAULT_TOL):
    """Orthonormal bases of the row space and of the kernel of m, as columns,
    from one SVD.  The rank cut is tol relative to the largest singular
    value; an all-zero matrix has a full kernel.  U is never used: a tall
    input is reduced to the square R factor of its QR first (same s and V;
    LAPACK's SVD takes that step itself when rows far outnumber columns); a
    square thin SVD has the full V, and wide inputs need full_matrices for it.
    """
    m = check_matrix(m)
    if m.shape[0] > m.shape[1]:
        m = _r_factor(m)
    _, s, vt = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    r = _rank_cut(s, tol)
    return vt[:r].T, vt[r:].T


def _r_factor(m):
    """R of a tall m's QR, bit for bit as np.linalg.qr(m, mode="r") gives it,
    with the triangle mask cached per width instead of rebuilt by np.triu."""
    n = m.shape[1]
    return np.where(_strictly_lower(n), 0.0, np.linalg.qr(m, mode="raw")[0].T[:n])


@functools.lru_cache(maxsize=32)
def _strictly_lower(n):
    """Read-only mask of the entries below the diagonal of an n x n matrix."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def rank(m, tol=DEFAULT_TOL):
    """Numerical rank with the same cut as nullspace()."""
    m = check_matrix(m)
    return _rank_cut(np.linalg.svd(m, compute_uv=False), tol)


@dataclass(frozen=True)
class SymEigen:
    """Eigendecomposition of a symmetric matrix with clustered eigenvalues.

    values are ascending, vectors[:, i] is the eigenvector of values[i], and
    clusters lists index ranges whose eigenvalues agree within CLUSTER_TOL.
    """

    values: np.ndarray
    vectors: np.ndarray
    clusters: list


def sym_eigen(m, tol=DEFAULT_TOL):
    m = check_matrix(m, square=True)
    if m.size and np.max(np.abs(m - m.T)) >= tol.value:
        raise NotSymmetric(f"asymmetry {np.max(np.abs(m - m.T)):g} exceeds tol")
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    clusters = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > CLUSTER_TOL:
            clusters.append(list(range(start, i)))
            start = i
    return SymEigen(values=w, vectors=v, clusters=clusters)


def det_sign(m, tol=DEFAULT_TOL):
    """Sign of det(m) as +1 or -1, or an int array of them for a stack of
    matrices; NearSingular when any |det| <= tol."""
    m = check_matrix(m, square=True, stack=True)
    sign, logabs = np.linalg.slogdet(m)
    if (np.exp(logabs) <= tol.value).any():  # a singular matrix has logabs -inf
        raise NearSingular("determinant within tol of 0")
    return int(sign) if m.ndim == 2 else sign.astype(int)


def is_orthogonal(m):
    """m^T m = I within DEFAULT_TOL; False for input that is not a finite,
    non-empty square matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1] or not np.isfinite(m).all():
        return False
    gram = m.T @ m
    gram.flat[:: len(m) + 1] -= 1.0
    return bool(abs(gram).max() < DEFAULT_TOL.value)


def is_special_orthogonal(m):
    """is_orthogonal with determinant +1.  An orthogonal determinant is +1 or
    -1, so its sign has margin 1 and needs no deadband."""
    return is_orthogonal(m) and bool(np.linalg.det(m) > 0)
