"""Triality components of special orthogonal operators and isotope isomorphism.

For phi in SO(8) there is a pair (phi1, phi2), unique up to a simultaneous
sign, with phi(xy) = phi1(x) phi2(y).  Both components are determined by
s = phi2(1): phi1 = R_{conj s} phi and phi2 = L_{s conj(phi(1))} phi.

The pair is computed in closed form (Conway & Smith, On Quaternions and
Octonions, 2003, ch. 8).  For a unit vector w the reflection
sigma_w(x) = x - 2<x, w> w equals -w conj(x) w, so sigma_a sigma_b is the
bimultiplication product B_a B_{conj b}, with B_c(x) = c x c.  By the middle
Moufang identity c(xy)c = (cx)(yc), B_c has the pair (L_c, R_c), and pairs
compose.  A Householder factorization writes phi as an even product of
reflections, and the pair follows as a product of left and of right
multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import maps as mp
from . import octonion as oc
from .errors import NotSpecialOrthogonal
from .numerics import DEFAULT_TOL, is_orthogonal, is_special_orthogonal, leading_sign

PAIR_TOL = 1e-8


@dataclass
class TrialityPair:
    phi1: np.ndarray
    phi2: np.ndarray
    residual: float


def is_triality_pair(phi, phi1, phi2, tol=DEFAULT_TOL):
    """Check phi(e_i e_j) = phi1(e_i) phi2(e_j) over all 64 basis pairs."""
    m, m1, m2 = mp.as_matrix(phi), mp.as_matrix(phi1), mp.as_matrix(phi2)
    for x in (m, m1, m2):
        if not is_orthogonal(x, tol):
            return False
    return oc.homomorphism_residual(m, m1, m2) < PAIR_TOL


def _reflection_vectors(m):
    """Unit vectors w_1, ..., w_n with m = sigma_{w_1} ... sigma_{w_n}.

    Householder steps on columns 0-6 use v = x + sign(x_0) |x| e_0, which
    cannot cancel, so every step is kept; each -1 left on the diagonal is
    then the coordinate reflection sigma_{e_k}.  n is even when det m = +1.
    """
    r = m.copy()
    ws = []
    for k in range(7):
        w = np.zeros(8)
        w[k:] = r[k:, k]
        w[k] += np.copysign(np.linalg.norm(w), w[k])
        w /= np.linalg.norm(w)
        r -= 2.0 * np.outer(w, w @ r)
        ws.append(w)
    ws.extend(np.eye(8)[k] for k in range(8) if r[k, k] < 0)
    return ws


def _closed_form_pair(m):
    """A triality pair of m in SO(8): the product over consecutive
    reflection pairs (a, b) of (L_a L_{conj b}, R_a R_{conj b})."""
    ws = _reflection_vectors(m)
    kmat = oc.conj_matrix()
    phi1, phi2 = np.eye(8), np.eye(8)
    for a, b in zip(ws[0::2], ws[1::2]):
        bbar = kmat @ b
        phi1 = phi1 @ oc.left_mul_matrix(a) @ oc.left_mul_matrix(bbar)
        phi2 = phi2 @ oc.right_mul_matrix(a) @ oc.right_mul_matrix(bbar)
    return phi1, phi2


def solve_triality_components(m, tol=DEFAULT_TOL):
    """s = phi2(1) of the triality pair of m, with the squared pair residual.

    The pair is the closed form of triality_pair.
    """
    pair = triality_pair(m, tol)
    return pair.phi2[:, 0].copy(), pair.residual ** 2


def triality_pair(phi, tol=DEFAULT_TOL):
    """A triality pair of phi in SO(8), sign-normalized deterministically
    (first coordinate of phi2(1) outside the zero_tol deadband positive).

    Computed in closed form from a reflection factorization of phi.
    NotSpecialOrthogonal unless phi is an orthogonal 8x8 matrix of
    determinant +1.
    """
    m = mp.as_matrix(phi)
    if m.shape != (8, 8) or not is_special_orthogonal(m, tol):
        raise NotSpecialOrthogonal("triality pairs exist only for maps in SO(8)")
    phi1, phi2 = _closed_form_pair(m)
    if leading_sign(phi2[:, 0], tol.zero_tol) < 0:
        phi1, phi2 = -phi1, -phi2
    res = oc.homomorphism_residual(m, phi1, phi2)
    if res >= PAIR_TOL:
        raise NotSpecialOrthogonal(f"pair residual {res:g} exceeds {PAIR_TOL:g}")
    return TrialityPair(phi1=phi1, phi2=phi2, residual=res)


def witness_residual(phi, source, target):
    """Max basis-pair deviation of phi from being a homomorphism source -> target."""
    m = mp.as_matrix(phi)
    return oc.homomorphism_residual(m, m, m, source.sc, target.sc)


def iso_isotopes(a, b, phi, tol=DEFAULT_TOL):
    """Is phi in SO(8) an isomorphism from the 8-dimensional algebra a to b?

    True iff phi is special orthogonal and phi(x y) = phi(x) phi(y) on basis
    pairs within PAIR_TOL.  For isotopes (f, g) and (f', g') of O this is the
    triality criterion: a triality pair of phi, unique up to a simultaneous
    sign, equals (f' phi f^-1, g' phi g^-1).  Non-finite input gives False.
    """
    m = mp.as_matrix(phi)
    if (m.shape != (8, 8) or a.dim != 8 or b.dim != 8
            or not is_special_orthogonal(m, tol)):
        return False
    return witness_residual(m, a, b) < PAIR_TOL
