"""Arithmetic of R, C, H and O in a fixed orthonormal basis.

Basis order is (1, u, v, uv, z, uz, vz, (uv)z), where (u, v, z) is the fixed
Cayley triple.  Coordinates 0-3 are the quaternion subalgebra H with
(u, v, uv) multiplying like (i, j, k); coordinates 0-1 are C = span(1, u).

Doubling convention
-------------------
O = H + Hz with the doubling unit written on the right:

    (a + bz)(c + dz) = (ac - conj(d) b) + (da + b conj(c)) z .

This pins down the convention through three identities that the test suite
checks exactly: (zx)y = z(yx) for quaternions x, y; the maps fixing H
pointwise send z to zp; and conjugation of H lifts to xz -> kappa_q(x) z.
Structure constants are built once from integer quaternion arithmetic, so
every basis-level identity is exact; floats enter only through coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotCayleyTriple, NotUnitComplex, NotUnitNorm, NotUnitQuaternion
from .numerics import DEFAULT_TOL, is_floats


def hamilton(a, b):
    """Hamilton product of 4-sequences (1, i, j, k) = (1, u, v, uv), as a
    4-tuple: unboxed on Python floats, column by column on (4, N) rows."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def hamilton_kappa(q, x):
    """The conjugation action x -> q x conj(q) on 4-sequences, as hamilton."""
    w, i, j, k = q
    return hamilton(hamilton(q, x), (w, -i, -j, -k))


def _unboxed(a):
    a = np.asarray(a)
    return a.tolist() if a.ndim == 1 else a


def quat_mul(a, b):
    """hamilton on arrays: components on the first axis, trailing axes
    broadcast, so (4, N) batches multiply column by column; integer input
    stays integer.  A single quaternion runs on Python scalars: the same
    operations as a batch column, bit for bit, but unboxed."""
    return np.array(hamilton(_unboxed(a), _unboxed(b)))


def quat_conj(a):
    w, x, y, z = _unboxed(a)
    return np.array([w, -x, -y, -z])


def quat_kappa(q, x):
    """hamilton_kappa on arrays, as quat_mul runs hamilton."""
    return np.array(hamilton_kappa(_unboxed(q), _unboxed(x)))


def _build_structure_tensor():
    sc = np.zeros((8, 8, 8), dtype=np.int64)
    basis = np.eye(8, dtype=np.int64)
    for i in range(8):
        a, b = basis[i, :4], basis[i, 4:]
        for j in range(8):
            c, d = basis[j, :4], basis[j, 4:]
            quat = quat_mul(a, c) - quat_mul(quat_conj(d), b)
            dbl = quat_mul(d, a) + quat_mul(b, quat_conj(c))
            sc[i, j, :4] = quat
            sc[i, j, 4:] = dbl
    return sc


#: Exact structure constants: (e_i e_j)_k = STRUCTURE[i, j, k], entries in {-1, 0, 1}.
STRUCTURE = _build_structure_tensor()

_STRUCTURE_F = STRUCTURE.astype(float)
#: STRUCTURE's blocks on C, H and O as (n^2, n) matrices taking a to L_a and to R_a, flattened.
_MUL_KERNELS = {n: [np.ascontiguousarray(_STRUCTURE_F[:n, :n, :n].transpose(t)).reshape(n * n, n)
                    for t in ((2, 1, 0), (2, 0, 1))] for n in (2, 4, 8)}

BASIS_NAMES = ("1", "u", "v", "uv", "z", "uz", "vz", "(uv)z")


class Octonion:
    """An element of O as an 8-vector of coordinates in the fixed basis."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (8,):
            raise ValueError(f"octonion needs 8 coordinates, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("octonion has non-finite coordinates")
        self.coords = coords

    @classmethod
    def basis(cls, k):
        e = np.zeros(8)
        e[k] = 1.0
        return cls(e)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return Octonion(mul(self.coords, other.coords))
        return Octonion(self.coords * float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return Octonion(self.coords + other.coords)

    def __sub__(self, other):
        return Octonion(self.coords - other.coords)

    def __neg__(self):
        return Octonion(-self.coords)

    def __repr__(self):
        terms = [f"{c:+g}{name if name != '1' else ''}"
                 for c, name in zip(self.coords, BASIS_NAMES) if c != 0]
        return "Octonion(" + (" ".join(terms) if terms else "0") + ")"

    def conj(self):
        out = -self.coords
        out[0] = self.coords[0]
        return Octonion(out)

    def norm(self):
        return float(np.linalg.norm(self.coords))


ONE = Octonion.basis(0)
U = Octonion.basis(1)
V = Octonion.basis(2)
UV = Octonion.basis(3)
Z = Octonion.basis(4)
UZ = Octonion.basis(5)
VZ = Octonion.basis(6)
UVZ = Octonion.basis(7)


def mul(x, y):
    """Octonion product of coordinate arrays, broadcast over leading axes:
    (N, 8) batches multiply row by row."""
    return np.einsum("...i,...j,ijk->...k", x, y, _STRUCTURE_F)


def as_coords(x):
    """Coordinates of an Octonion, or an array-like as a float array."""
    return x.coords if isinstance(x, Octonion) else np.asarray(x, dtype=float)


def complex_unit(theta):
    """The unit complex octonion cos(theta) + u sin(theta)."""
    return Octonion(np.array([np.cos(theta), np.sin(theta), 0, 0, 0, 0, 0, 0.0]))


def conj_matrix():
    """Matrix of the standard involution K: fixes 1, negates the rest.  Its
    leading 2x2 and 4x4 blocks are K on C and on H."""
    return np.diag([1.0, -1, -1, -1, -1, -1, -1, -1])


def left_mul_matrix(a):
    """Matrix of x -> a x in C, H or O, as a has 2, 4 or 8 coordinates (the
    leading block of STRUCTURE); columns are the products a e_j."""
    a = as_coords(a)
    return (_MUL_KERNELS[len(a)][0] @ a).reshape(len(a), len(a))


def right_mul_matrix(a):
    """Matrix of x -> x a in C, H or O, as in left_mul_matrix."""
    a = as_coords(a)
    return (_MUL_KERNELS[len(a)][1] @ a).reshape(len(a), len(a))


def homomorphism_residual(phi, phi1, phi2, source=_STRUCTURE_F, target=_STRUCTURE_F):
    """Max over basis pairs of |phi(e_i e_j) - phi1(e_i) phi2(e_j)|, with
    e_i e_j taken in the structure tensor `source` and phi1(e_i) phi2(e_j)
    in `target` (both O by default)."""
    n = len(phi)
    lhs = source @ phi.T
    rhs = phi2.T @ (phi1.T @ target.reshape(n, n * n)).reshape(n, n, n)  # one matmul per index
    return float(np.max(np.abs(lhs - rhs)))


def is_cayley_triple(a, b, c):
    """True iff (a, b, c) is orthonormal, imaginary, and c is orthogonal to ab.

    Entries are Octonions or 8-vectors.  An input check: it reads DEFAULT_TOL
    as `not x < tol`, so that non-finite input fails it."""
    tol = DEFAULT_TOL.value
    vecs = [as_coords(x) for x in (a, b, c)]
    if any(x.shape != (8,) or not (abs(x @ x - 1.0) < tol and abs(x[0]) < tol) for x in vecs):
        return False
    a, b, c = vecs
    return bool(max(abs(a @ b), abs(a @ c), abs(b @ c), abs(mul(a, b) @ c)) < tol)


class CayleyTriple:
    """An ordered orthonormal triple (a, b, c) of Octonions generating O."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        if not is_cayley_triple(a, b, c):
            raise NotCayleyTriple("triple fails orthonormality or c is not orthogonal to ab")
        self.a, self.b, self.c = (x if isinstance(x, Octonion) else Octonion(x) for x in (a, b, c))

    @classmethod
    def fixed(cls):
        return cls(U, V, Z)

    def product_basis(self):
        """The induced basis (1, a, b, ab, c, ac, bc, (ab)c) as an 8x8 matrix of columns."""
        a, b, c = self.a, self.b, self.c
        cols = [ONE, a, b, a * b, c, a * c, b * c, (a * b) * c]
        return np.column_stack([x.coords for x in cols])


#: C, H and O by dimension: the name and the unit-check error.
_UNIT_SPACES = {2: ("C", NotUnitComplex), 4: ("H", NotUnitQuaternion), 8: ("O", NotUnitNorm)}


def as_unit(x, n, what="parameter"):
    """An Octonion, array or tuple as a unit of C, H or O (n = 2, 4 or 8), an n-tuple of
    floats: a tuple of n floats as it is, else one float array's, cut to n coordinates
    when the tail vanishes or padded from H to O.  Checks read `not x < tol` of
    DEFAULT_TOL, so that non-finite input fails them."""
    name, error = _UNIT_SPACES[n]
    if not is_floats(x, n):
        x = as_coords(x)
        if x.shape in ((4,), (8,)) and len(x) > n:
            if not np.max(np.abs(x[n:])) < DEFAULT_TOL.value:
                raise error(f"{what}: coordinates outside {name} are nonzero")
            x = x[:n]
        elif n == 8 and x.shape == (4,):
            x = np.concatenate([x, np.zeros(4)])
        if x.shape != (n,):
            raise error(f"{what}: expected {n} coordinates, got shape {x.shape}")
        x = tuple(x.tolist())
    norm = math.hypot(*x)
    if not abs(norm * norm - 1.0) < DEFAULT_TOL.value:
        raise error(f"{what}: norm differs from 1 by {abs(norm - 1):g}")
    return x
