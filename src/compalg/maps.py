"""Constructors for the orthogonal operators on O used throughout the library.

Every constructor returns an OrthoMap8 whose matrix is orthogonal.  A map is
its matrix alone: transport records the map it pushes a family point through
as the point's orthogonal frame, so no map carries provenance of its own.
Triality components are read off the matrix too.

The families tau, kappa_hat, T and lambda are direct sums of blocks of the
one multiplication kernel (octonion.left_mul_matrix and right_mul_matrix on
C, H or O) and of K; G, F and rho are one planar block on each complex line
C, Cv, Cz and C(vz).  Constructors take no tolerance: they check unit
parameters and Cayley triples at DEFAULT_TOL, which every label meets where it
enters, and sign indices by numerics.as_indices (BadIndices unless 0 or 1).
"""

from __future__ import annotations

import numpy as np

from . import octonion as oc
from .errors import NearSingular, NotOrthogonal, NotOrthonormal
from .numerics import DEFAULT_TOL, as_indices, det_sign, is_orthogonal


class OrthoMap8:
    """An immutable orthogonal operator on O (or on H for 4-dimensional work);
    mat is a read-only view of the input matrix."""

    __slots__ = ("mat",)

    def __init__(self, mat, check=True):
        mat = np.asarray(mat, dtype=float).view()
        if check and not is_orthogonal(mat):
            raise NotOrthogonal("matrix is not orthogonal within the default tolerance")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    def __setattr__(self, name, value):
        raise AttributeError(f"OrthoMap8 is immutable; cannot set {name!r}")

    def __reduce__(self):
        return OrthoMap8, (self.mat, False)

    @property
    def dim(self):
        return self.mat.shape[0]

    def __repr__(self):
        return f"OrthoMap8(dim={self.dim})"

    def to_json(self):
        return {"matrix": self.mat.tolist()}


def as_matrix(phi):
    """The matrix of an OrthoMap8, or an array-like as a float array."""
    return phi.mat if isinstance(phi, OrthoMap8) else np.asarray(phi, dtype=float)


def identity_map(dim=8):
    return OrthoMap8(np.eye(dim), check=False)


def conj_map():
    """The standard involution K."""
    return OrthoMap8(oc.conj_matrix(), check=False)


def _conj_power(n, k):
    """K^k on the leading n coordinates: C, H or O; k is 0 or 1."""
    (k,) = as_indices(k)
    return oc.conj_matrix()[:n, :n] if k else np.eye(n)


def _direct_sum(top, rest):
    """The map acting as top on the leading coordinates and as rest on the others."""
    mat = np.zeros((8, 8))
    n = len(top)
    mat[:n, :n], mat[n:, n:] = top, rest
    return OrthoMap8(mat, check=False)


def lambda_map(t, k):
    """L_t K^k on C = span(1, u), identity on the complement; t is unit complex."""
    t2 = oc.as_unit(t, 2, "lambda parameter")
    return _direct_sum(oc.left_mul_matrix(t2) @ _conj_power(2, k), np.eye(6))


def g2_from_triples(t1, t2):
    """The unique automorphism of O carrying the Cayley triple t1 to t2.

    Images of the induced product bases determine the map: if B1, B2 are the
    bases (1, a, b, ab, c, ac, bc, (ab)c) of the two triples, the map is
    B2 B1^T.
    """
    t1 = t1 if isinstance(t1, oc.CayleyTriple) else oc.CayleyTriple(*t1)
    t2 = t2 if isinstance(t2, oc.CayleyTriple) else oc.CayleyTriple(*t2)
    b1 = t1.product_basis()
    b2 = t2.product_basis()
    return OrthoMap8(b2 @ b1.T, check=False)


def tau_map(p):
    """The automorphism fixing H pointwise with z -> z p, for unit quaternion p.

    In closed form I_4 + L_conj(p): z p = conj(p) z, so x z -> (conj(p) x) z on Hz.
    """
    p4 = oc.as_unit(p, 4, "tau parameter")
    return _direct_sum(np.eye(4), oc.left_mul_matrix(oc.quat_conj(p4)))


def kappa4(q):
    """4x4 matrix L_q R_conj(q) of x -> q x conj(q) on H, fed by octonion.as_unit's floats."""
    w, x, y, z = oc.as_unit(q, 4, "kappa parameter")
    return oc.left_mul_matrix((w, x, y, z)) @ oc.right_mul_matrix((w, -x, -y, -z))


def kappa_hat_map(q):
    """kappa_q + kappa_q: the automorphism acting as kappa_q on H and as
    x z -> kappa_q(x) z on Hz."""
    k4 = kappa4(q)
    return _direct_sum(k4, k4)


def eps_hat(eps):
    """The automorphism (u, v, z) -> ((-1)^eps u, v, z); eps is 0 or 1."""
    (eps,) = as_indices(eps)
    mat = np.diag([1.0, -1, 1, -1, 1, -1, 1, -1]) if eps else np.eye(8)
    return OrthoMap8(mat, check=False)


def T_map(a, b, k):
    """L_a R_b K^k: x -> a K^k(x) b on H, identity on the complement; a, b unit quaternions."""
    a4 = oc.as_unit(a, 4, "T parameter a")
    b4 = oc.as_unit(b, 4, "T parameter b")
    block = oc.left_mul_matrix(a4) @ oc.right_mul_matrix(b4) @ _conj_power(4, k)
    return _direct_sum(block, np.eye(4))


def sigma_map(vectors):
    """Reflection: -1 on the span of the given orthonormal vectors, +1 elsewhere."""
    cols = [oc.as_coords(w) for w in vectors]
    if not cols:
        return identity_map()
    basis = np.column_stack(cols)
    gram = basis.T @ basis
    if not np.max(np.abs(gram - np.eye(basis.shape[1]))) < DEFAULT_TOL.value:
        raise NotOrthonormal("reflection vectors must be orthonormal")
    dim = basis.shape[0]
    mat = np.eye(dim) - 2.0 * basis @ basis.T
    return OrthoMap8(mat, check=False)


def sigma_u():
    return sigma_map([oc.U])


def sigma_w_special():
    """Reflection negating the special subspace span(v, z, vz)."""
    return sigma_map([oc.V, oc.Z, oc.VZ])


def sigma_uw():
    """The product of the hyperplane reflections in uv, uz and (uv)z.

    Negates span(uv, uz, (uv)z), i.e. u times span(v, z, vz); this is the
    involution that together with sigma_u gives the diagonal automorphism
    flipping u.
    """
    return sigma_map([oc.UV, oc.UZ, oc.UVZ])


def B_map(a):
    """Bimultiplication x -> a (x a) for unit a; equals B_{-a}."""
    a = oc.as_unit(a, 8, "bimultiplication")
    mat = oc.left_mul_matrix(a) @ oc.right_mul_matrix(a)
    return OrthoMap8(mat, check=False)


def C_map(a):
    """Conjugation x -> a (x conj(a)) for unit a; fixes 1."""
    a = oc.as_unit(a, 8, "conjugation")
    mat = oc.left_mul_matrix(a) @ oc.right_mul_matrix(oc.conj_matrix() @ a)
    return OrthoMap8(mat, check=False)


def _planar_blocks(*blocks):
    """The map acting on the lines (1, u), (v, uv), (z, uz) and (vz, (uv)z) by
    the blocks hat(zeta, k) of the given (zeta, k): the rotation by zeta when
    k = 0, the reflection [[cos, sin], [sin, -cos]] of zeta when k = 1."""
    mat = np.zeros((8, 8))
    for n, (zeta, k) in enumerate(blocks):
        c, s = np.cos(zeta), np.sin(zeta)
        sign = -1.0 if k else 1.0
        mat[2 * n:2 * n + 2, 2 * n:2 * n + 2] = [[c, -sign * s], [s, sign * c]]
    return OrthoMap8(mat, check=False)


def G_map(theta, gamma, k1, k2):
    """B_c sigma_u^{k1} (sigma_uv sigma_uz sigma_w(gamma))^{k2} for c = cos theta
    + u sin theta and w(gamma) = vz sin(gamma) - (uv)z cos(gamma), in closed
    form: hat(2 theta, k1), hat(0, k2), hat(0, k2), hat(2 gamma k2, k2).
    theta enters with period pi."""
    k1, k2 = as_indices(k1, k2)
    return _planar_blocks((2 * theta, k1), (0.0, k2), (0.0, k2), (2 * gamma * k2, k2))


def F_map(theta, k1, k2):
    """C_c sigma_u^{k1} sigma_uw^{k2} for c = cos theta + u sin theta, in closed
    form: hat(0, k1), hat(2 theta, k2), hat(2 theta, k2), hat(-2 theta, k2)."""
    k1, k2 = as_indices(k1, k2)
    return _planar_blocks((0.0, k1), (2 * theta, k2), (2 * theta, k2), (-2 * theta, k2))


def rho_map(gamma):
    """The automorphism carrying (u, v, z) to (u, c v, c z), c = cos(gamma/3) -
    u sin(gamma/3): hat(0, 0), hat(-gamma/3, 0), hat(-gamma/3, 0),
    hat(-2 gamma/3, 0).  The twist of the G-to-F witness (d1133.g_to_f)."""
    return _planar_blocks((0.0, 0), (-gamma / 3, 0), (-gamma / 3, 0), (-2 * gamma / 3, 0))


def left_right_mul_map(t, s, rho):
    """L_t R_s rho for unit t, s and an automorphism rho.

    Its triality components are (B_t R_{conj s} rho, L_{conj t} B_s rho).
    """
    t = oc.as_unit(t, 8, "isotopy factor t")
    s = oc.as_unit(s, 8, "isotopy factor s")
    mat = oc.left_mul_matrix(t) @ oc.right_mul_matrix(s) @ as_matrix(rho)
    return OrthoMap8(mat, check=False)


def bimul_map(c, rho):
    """B_c rho for unit c and an automorphism rho; triality components (L_c rho, R_c rho)."""
    c = oc.as_unit(c, 8, "bimultiplication factor")
    mat = oc.left_mul_matrix(c) @ oc.right_mul_matrix(c) @ as_matrix(rho)
    return OrthoMap8(mat, check=False)


def is_automorphism(phi):
    """True iff phi(e_i e_j) = phi(e_i) phi(e_j) on all 64 basis pairs and
    det = +1, both within DEFAULT_TOL."""
    mat = as_matrix(phi)
    if mat.shape != (8, 8) or not np.isfinite(mat).all():
        return False
    if oc.homomorphism_residual(mat, mat, mat) >= DEFAULT_TOL.value:
        return False
    try:
        return det_sign(mat) == 1
    except NearSingular:
        return False

