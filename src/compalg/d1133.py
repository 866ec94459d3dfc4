"""The {1,1,3,3} block: parameter conversion, membership, isomorphism and
canonical forms for the two-parameter block-diagonal families.

A point is a 4-tuple of indices (i1, j1, i2, j2) with i2 = 1 or j2 = 1 plus
angles (alpha, beta) in [0, pi).  Conversion to the conjugation-twisted
presentation (xi, eta) goes through an explicit special-orthogonal witness
L_t R_s rho whose triality components conjugate the pair onto block form;
G, F and rho are planar blocks on C, Cv, Cz and C(vz) (maps.G_map, F_map, rho_map).
Isomorphism inside a block reduces to (alpha', beta') = (alpha, beta) or
(-alpha, -beta) mod pi, giving the half-square fundamental region."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import maps as mp
from . import octonion as oc
from .errors import BadIndices, NotInBlock
from .numerics import DEFAULT_TOL, PAIR_TOL, as_indices, deadband_signs

PI = np.pi

#: The twelve index tuples (i2 = 1 or j2 = 1), each its own value: one lookup checks and casts.
_INDEX_TUPLES = {k: k for k in np.ndindex(2, 2, 2, 2) if k[2] or k[3]}


def _check_indices(i1, j1, i2, j2):
    try:
        return _INDEX_TUPLES[i1, j1, i2, j2]
    except (KeyError, TypeError):  # not one of the twelve, or unhashable
        i1, j1, i2, j2 = as_indices(i1, j1, i2, j2)
        if i2 != 1 and j2 != 1:
            raise BadIndices("need i2 = 1 or j2 = 1") from None
        return i1, j1, i2, j2


@dataclass(frozen=True)
class GParams:
    """Indices plus the two angles of the block-diagonal presentation."""

    i1: int
    j1: int
    i2: int
    j2: int
    alpha: float
    beta: float

    def __post_init__(self):
        for name, k in zip(("i1", "j1", "i2", "j2"), _check_indices(*self.indices)):
            object.__setattr__(self, name, k)
        object.__setattr__(self, "alpha", float(self.alpha) % PI)
        object.__setattr__(self, "beta", float(self.beta) % PI)

    @property
    def indices(self):
        return (self.i1, self.j1, self.i2, self.j2)


@dataclass(frozen=True)
class FParams:
    """Indices plus the angles of the conjugation-twisted presentation."""

    i1: int
    j1: int
    i2: int
    j2: int
    xi: float
    eta: float

    def __post_init__(self):
        _check_indices(self.i1, self.j1, self.i2, self.j2)

    @property
    def indices(self):
        return (self.i1, self.j1, self.i2, self.j2)


def _theta_zeta(i1, j1, alpha, beta):
    table = {
        (0, 0): (alpha + 2 * beta, 2 * alpha + beta),
        (0, 1): (-alpha, -2 * alpha - 3 * beta),
        (1, 0): (-3 * alpha - 2 * beta, -beta),
        (1, 1): (-alpha, -beta),
    }
    x, y = table[(i1, j1)]
    return (2.0 / 3.0) * x, (2.0 / 3.0) * y


def _xi_eta(i2, j2, theta, zeta, gamma):
    table = {
        (0, 1): (theta - 2 * gamma / 3, zeta - 2 * theta),
        (1, 0): (2 * zeta - theta, -zeta - 2 * gamma / 3),
        (1, 1): (theta - 2 * gamma / 3, -zeta - 2 * gamma / 3),
    }
    x, y = table[(i2, j2)]
    return x / 2.0, y / 2.0


def g_to_f(params: GParams, gamma=0.0):
    """Convert block-diagonal parameters (with twist angle gamma) to the
    conjugation-twisted presentation: (FParams, phi), phi the witness isomorphism.

    The witness is phi = L_t R_s rho, with t and s the complex units at the table's
    angles theta and zeta and rho = maps.rho_map(gamma), which rotates (v, z) by
    -gamma/3 inside their complex lines; its triality components conjugate the
    pair (G_alpha,gamma, G_beta,gamma) onto (F_xi, F_eta) exactly.
    """
    i1, j1, i2, j2 = params.indices
    theta, zeta = _theta_zeta(i1, j1, params.alpha, params.beta)
    xi, eta = _xi_eta(i2, j2, theta, zeta, gamma)
    phi = mp.left_right_mul_map(oc.complex_unit(theta), oc.complex_unit(zeta), mp.rho_map(gamma))
    return FParams(i1, j1, i2, j2, xi, eta), phi


def f_to_g(params: FParams):
    """Invert the conversion at gamma = 0, folding the angles into [0, pi)."""
    i1, j1, i2, j2 = params.indices
    xi, eta = params.xi, params.eta
    if (i2, j2) == (0, 1):
        theta = 2 * xi
        zeta = 2 * eta + 4 * xi
    elif (i2, j2) == (1, 0):
        zeta = -2 * eta
        theta = 2 * zeta - 2 * xi
    else:
        theta = 2 * xi
        zeta = -2 * eta
    if (i1, j1) == (0, 0):
        # solve alpha + 2 beta = 3 theta / 2, 2 alpha + beta = 3 zeta / 2
        alpha = zeta - theta / 2
        beta = theta - zeta / 2
    elif (i1, j1) == (0, 1):
        alpha = -1.5 * theta
        beta = theta - zeta / 2
    elif (i1, j1) == (1, 0):
        beta = -1.5 * zeta
        alpha = zeta - theta / 2
    else:
        alpha = -1.5 * theta
        beta = -1.5 * zeta
    return GParams(i1, j1, i2, j2, alpha % PI, beta % PI)


def excluded_point(i1, j1, i2, j2):
    """The unique (alpha, beta) in [0, pi)^2 whose pair degenerates out of
    the block: cos(2 alpha) = (-1)^(j1+j2) and cos(2 beta) = (-1)^(i1+i2)."""
    return PI / 2 * ((j1 + j2) % 2), PI / 2 * ((i1 + i2) % 2)


def circle_distance(x, y):
    """Distance of angles on the circle R / pi Z, elementwise: the smaller of
    (x - y) mod pi and (y - x) mod pi, picked by 0/1 masks so floats stay floats."""
    d, e = (x - y) % PI, (y - x) % PI
    return d * (d <= e) + e * (e < d)


def in_d1133_angles(indices, alpha, beta, tol=DEFAULT_TOL):
    """Exclusion test over angles (floats or arrays, broadcast together): a
    boolean array, True where (cos 2a, cos 2b) != ((-1)^(j1+j2), (-1)^(i1+i2))."""
    # the excluded equation is quadratic in the angle near its root, so take the deadband
    # on the torus distance (the larger circle distance), not on the cosine residual
    alpha0, beta0 = excluded_point(*_check_indices(*indices))
    dist = np.maximum(circle_distance(alpha, alpha0), circle_distance(beta, beta0))
    return np.array(deadband_signs(dist, tol.value), dtype=bool).reshape(dist.shape)


def in_d1133(params: GParams, tol=DEFAULT_TOL):
    """The exclusion test at one point, as a bool."""
    return bool(in_d1133_angles(params.indices, params.alpha, params.beta, tol))


def _region_member(alpha, beta, tol):
    return deadband_signs((alpha - PI / 2, beta - PI / 2), tol.value) <= (0, 0)


def canonical_1133(params: GParams, tol=DEFAULT_TOL):
    """Fold (alpha, beta) into the fundamental region
    ([0, pi/2) x [0, pi)) u ({pi/2} x [0, pi/2]) of the involution
    (alpha, beta) -> (-alpha, -beta) mod pi.

    On the fixed lines of the involution both candidates qualify; the
    lexicographically smaller one is chosen so that canonical forms stay
    orbit-constant there as well.  Returns ((alpha, beta), eps) where eps
    records whether the flip was applied.
    """
    if not in_d1133(params, tol):
        raise NotInBlock("parameters hit the excluded point of the block")
    cand0 = (params.alpha, params.beta)
    cand1 = ((-params.alpha) % PI, (-params.beta) % PI)
    ok0, ok1 = _region_member(*cand0, tol), _region_member(*cand1, tol)
    if ok0 != ok1:
        (alpha, beta), eps = (cand0, 0) if ok0 else (cand1, 1)
    else:  # both (on a fixed line) or neither (at the deadband rim): the smaller
        (alpha, beta), eps = min((cand0, 0), (cand1, 1))
    return GParams(params.i1, params.j1, params.i2, params.j2, alpha, beta), eps


def _angle_mod(x, modulus):
    """x lies within PAIR_TOL of a multiple of modulus."""
    r = x % modulus
    return min(r, modulus - r) < PAIR_TOL


def iso_1133_lattice_oracle(p: GParams, q: GParams):
    """Independent isomorphism test through the conjugation-twisted angles.

    Converts both points at gamma = 0 and checks the sign-and-lattice
    conditions on (xi, eta): shifts by pi/3 or pi per index pattern, with
    the coupled residue when both second indices are 1 and the first pair
    is not (1, 1)."""
    if p.indices != q.indices:
        return False
    i1, j1, i2, j2 = p.indices
    fp, _ = g_to_f(p, 0.0)
    fq, _ = g_to_f(q, 0.0)
    xi, eta, xip, etap = fp.xi, fp.eta, fq.xi, fq.eta
    for sign in (1.0, -1.0):
        dx = xip - sign * xi
        dy = etap - sign * eta
        if (i1, j1) == (1, 1):
            residues = ((dx, PI / 3), (dy, PI / 3))
        elif (i2, j2) == (0, 1):
            residues = ((dx, PI / 3), (dy, PI))
        elif (i2, j2) == (1, 0):
            residues = ((dx, PI), (dy, PI / 3))
        else:
            residues = ((dx, PI / 3), (dy - dx, PI))
        if all(_angle_mod(x, modulus) for x, modulus in residues):
            return True
    return False
