"""Constructors for the orthogonal operators on O used throughout the library.

Every constructor returns an OrthoMap8 whose matrix is orthogonal.  A map is
its matrix alone: transport records the map it pushes a family point through
as the point's orthogonal frame, so no map carries provenance of its own.
Triality components are read off the matrix too.

The families tau, kappa_hat, T and lambda are closed forms: direct sums of
blocks of the one multiplication kernel (octonion.left_mul_matrix and
right_mul_matrix on C, H or O) and of K.  Every unit parameter is read by
octonion.as_unit and every sign index by numerics.as_indices, so a value
other than 0 or 1 raises BadIndices instead of being truncated.
"""

from __future__ import annotations

import numpy as np

from . import octonion as oc
from .errors import NearSingular, NotOrthogonal, NotOrthonormal
from .numerics import DEFAULT_TOL, as_indices, det_sign, is_orthogonal


class OrthoMap8:
    """An orthogonal operator on O (or on H for 4-dimensional work)."""

    __slots__ = ("mat",)

    def __init__(self, mat, tol=DEFAULT_TOL, check=True):
        mat = np.asarray(mat, dtype=float)
        if check and not is_orthogonal(mat, tol):
            raise NotOrthogonal("matrix is not orthogonal within eq_tol")
        self.mat = mat

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


def lambda_map(t, k, tol=DEFAULT_TOL):
    """L_t K^k on C = span(1, u), identity on the complement; t is unit complex."""
    t2 = oc.as_unit(t, 2, tol, "lambda parameter")
    return _direct_sum(oc.left_mul_matrix(t2) @ _conj_power(2, k), np.eye(6))


def g2_from_triples(t1, t2, tol=DEFAULT_TOL):
    """The unique automorphism of O carrying the Cayley triple t1 to t2.

    Images of the induced product bases determine the map: if B1, B2 are the
    bases (1, a, b, ab, c, ac, bc, (ab)c) of the two triples, the map is
    B2 B1^T.
    """
    t1 = t1 if isinstance(t1, oc.CayleyTriple) else oc.CayleyTriple(*t1, tol=tol)
    t2 = t2 if isinstance(t2, oc.CayleyTriple) else oc.CayleyTriple(*t2, tol=tol)
    b1 = t1.product_basis()
    b2 = t2.product_basis()
    return OrthoMap8(b2 @ b1.T, check=False)


def tau_map(p, tol=DEFAULT_TOL):
    """The automorphism fixing H pointwise with z -> z p, for unit quaternion p.

    In closed form I_4 + L_conj(p): z p = conj(p) z, so x z -> (conj(p) x) z on Hz.
    """
    p4 = oc.as_unit(p, 4, tol, "tau parameter")
    return _direct_sum(np.eye(4), oc.left_mul_matrix(oc.quat_conj(p4)))


def kappa4(q, tol=DEFAULT_TOL):
    """4x4 matrix L_q R_conj(q) of x -> q x conj(q) on H."""
    q4 = oc.as_unit(q, 4, tol, "kappa parameter")
    return oc.left_mul_matrix(q4) @ oc.right_mul_matrix(oc.quat_conj(q4))


def kappa_hat_map(q, tol=DEFAULT_TOL):
    """kappa_q + kappa_q: the automorphism acting as kappa_q on H and as
    x z -> kappa_q(x) z on Hz."""
    k4 = kappa4(q, tol)
    return _direct_sum(k4, k4)


def eps_hat(eps):
    """The automorphism (u, v, z) -> ((-1)^eps u, v, z); eps is 0 or 1."""
    (eps,) = as_indices(eps)
    mat = np.diag([1.0, -1, 1, -1, 1, -1, 1, -1]) if eps else np.eye(8)
    return OrthoMap8(mat, check=False)


def T_map(a, b, k, tol=DEFAULT_TOL):
    """L_a R_b K^k: x -> a K^k(x) b on H, identity on the complement; a, b unit quaternions."""
    a4 = oc.as_unit(a, 4, tol, "T parameter a")
    b4 = oc.as_unit(b, 4, tol, "T parameter b")
    block = oc.left_mul_matrix(a4) @ oc.right_mul_matrix(b4) @ _conj_power(4, k)
    return _direct_sum(block, np.eye(4))


def sigma_map(vectors, tol=DEFAULT_TOL):
    """Reflection: -1 on the span of the given orthonormal vectors, +1 elsewhere."""
    cols = [oc.as_coords(w) for w in vectors]
    if not cols:
        return identity_map()
    basis = np.column_stack(cols)
    gram = basis.T @ basis
    if np.max(np.abs(gram - np.eye(basis.shape[1]))) >= tol.eq_tol:
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


def B_map(a, tol=DEFAULT_TOL):
    """Bimultiplication x -> a (x a) for unit a; equals B_{-a}."""
    a = oc.as_unit(a, 8, tol, "bimultiplication")
    mat = oc.left_mul_matrix(a) @ oc.right_mul_matrix(a)
    return OrthoMap8(mat, check=False)


def C_map(a, tol=DEFAULT_TOL):
    """Conjugation x -> a (x conj(a)) for unit a; fixes 1."""
    a = oc.as_unit(a, 8, tol, "conjugation")
    mat = oc.left_mul_matrix(a) @ oc.right_mul_matrix(oc.conj_matrix() @ a)
    return OrthoMap8(mat, check=False)


def G_map(theta, gamma, k1, k2, tol=DEFAULT_TOL):
    """B_{cos theta + u sin theta} sigma_u^{k1} (sigma_uv sigma_uz sigma_w(gamma))^{k2}.

    w(gamma) = vz sin(gamma) - (uv)z cos(gamma).  theta enters with period pi.
    """
    k1, k2 = as_indices(k1, k2)
    mat = B_map(oc.complex_unit(theta), tol).mat
    if k1:
        mat = mat @ sigma_u().mat
    if k2:
        w = np.zeros(8)
        w[6] = np.sin(gamma)
        w[7] = -np.cos(gamma)
        refl = sigma_map([oc.UV, oc.UZ, oc.Octonion(w)], tol)
        mat = mat @ refl.mat
    return OrthoMap8(mat, check=False)


def F_map(theta, k1, k2, tol=DEFAULT_TOL):
    """C_{cos theta + u sin theta} sigma_u^{k1} sigma_uw^{k2}."""
    k1, k2 = as_indices(k1, k2)
    mat = C_map(oc.complex_unit(theta), tol).mat
    if k1:
        mat = mat @ sigma_u().mat
    if k2:
        mat = mat @ sigma_uw().mat
    return OrthoMap8(mat, check=False)


def f_block_matrix(theta, k1, k2):
    """Closed block-diagonal form of F_map: diag(1, (-1)^k1, R(2t), R(2t), R(-2t)),
    where R(s) is the planar rotation-or-reflection with determinant (-1)^k2."""

    def hat(zeta, k):
        sign = -1.0 if k else 1.0
        return np.array([[np.cos(zeta), -sign * np.sin(zeta)],
                         [np.sin(zeta), sign * np.cos(zeta)]])

    k1, k2 = as_indices(k1, k2)
    mat = np.zeros((8, 8))
    mat[0, 0] = 1.0
    mat[1, 1] = -1.0 if k1 else 1.0
    mat[2:4, 2:4] = hat(2 * theta, k2)
    mat[4:6, 4:6] = hat(2 * theta, k2)
    mat[6:8, 6:8] = hat(-2 * theta, k2)
    return mat


def left_right_mul_map(t, s, rho, tol=DEFAULT_TOL):
    """L_t R_s rho for unit t, s and an automorphism rho.

    Its triality components are (B_t R_{conj s} rho, L_{conj t} B_s rho).
    """
    t = oc.as_unit(t, 8, tol, "isotopy factor t")
    s = oc.as_unit(s, 8, tol, "isotopy factor s")
    mat = oc.left_mul_matrix(t) @ oc.right_mul_matrix(s) @ as_matrix(rho)
    return OrthoMap8(mat, check=False)


def bimul_map(c, rho, tol=DEFAULT_TOL):
    """B_c rho for unit c and an automorphism rho; triality components (L_c rho, R_c rho)."""
    c = oc.as_unit(c, 8, tol, "bimultiplication factor")
    mat = oc.left_mul_matrix(c) @ oc.right_mul_matrix(c) @ as_matrix(rho)
    return OrthoMap8(mat, check=False)


def is_automorphism(phi, tol=DEFAULT_TOL):
    """True iff phi(e_i e_j) = phi(e_i) phi(e_j) on all 64 basis pairs and det = +1."""
    mat = as_matrix(phi)
    if mat.shape != (8, 8) or not np.isfinite(mat).all():
        return False
    if oc.homomorphism_residual(mat, mat, mat) >= tol.eq_tol:
        return False
    try:
        return det_sign(mat, tol) == 1
    except NearSingular:
        return False

