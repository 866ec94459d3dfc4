"""Seeded input generation for the benchmark workloads.

Everything here is built from the public library API and a numpy generator
seeded by the benchmark's --seed.  Pools are stratified: every class of input
appears a fixed number of times and only its parameters and the order depend
on the seed, so two seeds load the layers in the same proportions and their
timings are comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import compalg as ca
from compalg import algebra as al
from compalg import d1133 as d33
from compalg import maps as mp
from compalg import octonion as oc

#: The ten enumerable block kinds and their form counts at ENUM_GRID,
#: recorded at the commit that introduced the benchmark.
ENUM_GRID = 4
ENUM_COUNTS = {"D17": 4, "D8": 1, "D35": 3, "D4": 4, "D134s": 12, "D134a": 256,
               "D116": 32, "D1124": 112, "D11114": 128, "D1133": 192}

#: Draws per class in the analyze-mix pool.  The d = 14 class (standard
#: isotopes) gets twice as many, about 15% of the pool, so that the p90 falls
#: inside its cluster rather than on the edge between two clusters.
ANALYZE_PER_CLASS = 8
ANALYZE_D14_WEIGHT = 2

#: The iso-pairs pool is ISO_ROUNDS rounds.  Each round holds a twin, a raw
#: twin and a different-block query per family, OTHER_REPEATS "other" queries
#: per family with continuous parameters, and WITNESS_PER_TRUTH witness checks
#: per truth value.  Witness checks are the faster kind and well
#: under half of the pool, so the pooled median lands inside the cluster of
#: isomorphic() queries instead of in the gap between the two.
ISO_ROUNDS = 2
OTHER_REPEATS = 2
WITNESS_PER_TRUTH = 8

SIGNS = ((0, 0), (0, 1), (1, 0), (1, 1))


def unit(gen, n):
    v = gen.standard_normal(n)
    return v / np.linalg.norm(v)


def _sign(gen):
    return SIGNS[int(gen.integers(0, 4))]


def _imaginary_unit_quaternion(gen):
    w = np.zeros(4)
    w[1:] = unit(gen, 3)
    return w


def random_cayley_triple(gen):
    """A Haar-ish random Cayley triple (a, b, c) of imaginary unit octonions."""
    while True:
        a = np.zeros(8)
        a[1:] = unit(gen, 7)
        b = np.zeros(8)
        b[1:] = gen.standard_normal(7)
        b -= (b @ a) * a
        if np.linalg.norm(b) < 0.1:
            continue
        b /= np.linalg.norm(b)
        ab = (ca.Octonion(a) * ca.Octonion(b)).coords
        c = np.zeros(8)
        c[1:] = gen.standard_normal(7)
        for w in (a, b, ab):
            c -= (c @ w) * w
        if np.linalg.norm(c) < 0.1:
            continue
        return ca.CayleyTriple(ca.Octonion(a), ca.Octonion(b), ca.Octonion(c / np.linalg.norm(c)))


def random_g2(gen):
    """A random automorphism of O, labelled as one (G2 provenance survives it)."""
    return ca.g2_from_triples(ca.CayleyTriple.fixed(), random_cayley_triple(gen))


def random_h_automorphism(gen):
    """x -> q x conj(q) on H for a random unit quaternion q, as a 4x4 matrix."""
    q = unit(gen, 4)
    cols = [oc.quat_mul(oc.quat_mul(q, e), oc.quat_conj(q)) for e in np.eye(4)]
    return np.column_stack(cols)


def random_automorphism(gen, dim):
    return random_g2(gen).mat if dim == 8 else random_h_automorphism(gen)


def strip(algebra, gen):
    """A raw tensor isomorphic to `algebra`: transported by a random
    automorphism of the base algebra, with every trace of provenance dropped."""
    moved = ca.transport(random_automorphism(gen, algebra.dim), algebra)
    return ca.Algebra(moved.sc.copy())


# ---------------------------------------------------------------------------
# Family draws (provenance-carrying)
# ---------------------------------------------------------------------------

def _tau_generic(gen):
    while True:
        i, j = _sign(gen)
        a, b = unit(gen, 4), unit(gen, 4)
        if al.in_TxT_ij(i, j, a, b):
            return ca.j_family(i, j, a, b)


def _tau_axis(gen):
    """A common-axis point: a and b in one circle C_w (Der = su2 + center)."""
    i, j = _sign(gen)
    w = _imaginary_unit_quaternion(gen)
    s, t = gen.uniform(0.2, np.pi - 0.2, 2)
    one = np.array([1.0, 0, 0, 0])
    return ca.j_family(i, j, np.cos(s) * one + np.sin(s) * w, np.cos(t) * one + np.sin(t) * w)


def _tau_sign(gen):
    i, j = _sign(gen)
    one = np.array([1.0, 0, 0, 0])
    sa, sb = ((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))[int(gen.integers(0, 3))]
    return ca.j_family(i, j, sa * one, sb * one)


def _cx(angle):
    return np.array([np.cos(angle), np.sin(angle), 0.0, 0.0])


def _t_params(kind, gen, i, j):
    s, t = gen.uniform(0.2, np.pi - 0.2, 2)
    u = np.array([0.0, 1.0, 0.0, 0.0])
    if kind == "aligned":
        return (_cx(s), (-1.0) ** j * _cx(s), _cx(t), (-1.0) ** i * _cx(t))
    if kind == "one_axis":
        return (_cx(s), _cx(t), u, (-1.0) ** i * u)
    return (_cx(s), _cx(t), u, np.array([np.cos(t), 0.0, np.sin(t), 0.0]))


def _t_family(kind):
    def draw(gen):
        while True:
            i, j = _sign(gen)
            qs = _t_params(kind, gen, i, j)
            member = (al.in_S(*qs) if kind == "aligned"
                      else al.in_S_ij(i, j, *qs))
            if member:
                return ca.k_family(i, j, *qs)
    return draw


def _lambda(gen):
    i, j = _sign(gen)
    a = _cx(gen.uniform(0.2, np.pi - 0.2))[:2]
    b = _cx(gen.uniform(0.2, np.pi - 0.2))[:2]
    return ca.lambda_family(i, j, a, b)


def _g_indices(gen):
    i1, j1 = _sign(gen)
    if gen.integers(0, 2):
        return i1, j1, 1, int(gen.integers(0, 2))
    return i1, j1, int(gen.integers(0, 2)), 1


def _g_family(gen, indices=None):
    while True:
        i1, j1, i2, j2 = indices or _g_indices(gen)
        alpha, beta = gen.uniform(0.05, np.pi - 0.05, 2)
        if d33.in_d1133(d33.GParams(i1, j1, i2, j2, alpha, beta)):
            return ca.g_family(i1, j1, i2, j2, alpha, beta)


def _standard(gen):
    return ca.standard_isotope(*_sign(gen))


def _okubo(gen):
    return ca.okubo_p11()


def _p35(gen):
    return ca.p35(*((0, 0), (0, 1), (1, 0))[int(gen.integers(0, 3))])


def _quat4(gen):
    return ca.quat4(*_sign(gen))


#: Every family the analyze-mix stream covers, by class name.
FAMILIES = {
    "standard": _standard,          # Der = g2, d = 14
    "okubo": _okubo,                # Der = su3, d = 8
    "p35": _p35,
    "quat4": _quat4,                # dim 4
    "tau_generic": _tau_generic,
    "tau_axis": _tau_axis,
    "tau_sign": _tau_sign,
    "t_aligned": _t_family("aligned"),
    "t_one_axis": _t_family("one_axis"),
    "t_spread": _t_family("spread"),
    "lambda": _lambda,
    "g": _g_family,
}


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

@dataclass
class AnalyzeItem:
    family: str
    raw: object        # provenance-free tensor handed to analyze()
    twin: object       # the provenance-carrying algebra it was transported from


def analyze_pool(seed, per_class=ANALYZE_PER_CLASS):
    """Raw tensors of every family, each with its provenance-carrying twin."""
    gen = np.random.default_rng([seed, 1])
    items = []
    for name, draw in FAMILIES.items():
        for _ in range(per_class * (ANALYZE_D14_WEIGHT if name == "standard" else 1)):
            twin = draw(gen)
            items.append(AnalyzeItem(name, strip(twin, gen), twin))
    order = gen.permutation(len(items))
    return [items[k] for k in order]


@dataclass
class IsoItem:
    kind: str          # "iso" (isomorphic query) or "witness" (iso_isotopes check)
    case: str          # twin | other | diff_block | raw_twin | true | perturbed
    a: object
    b: object
    expected: object   # "yes" / "no" for iso, True / False for witness
    phi: object = None


def _twin_transport(name, gen):
    """A random map whose transport keeps the provenance of family `name`."""
    if name in ("standard", "okubo", "p35"):
        return random_g2(gen)
    if name in ("lambda", "g"):
        return ca.eps_hat(1)
    return ca.kappa_hat_map(unit(gen, 4))


#: Families whose transported twins keep provenance, and those with
#: continuous canonical parameters, where "other" pairs exist.
TWIN_FAMILIES = ("standard", "okubo", "p35", "tau_generic", "tau_axis",
                 "t_aligned", "t_one_axis", "t_spread", "lambda", "g")
OTHER_FAMILIES = ("tau_generic", "t_spread", "t_one_axis", "g")


def _other_params(name, a, gen):
    """Same family and block as `a`, fresh continuous parameters."""
    p = a.family.params
    while True:
        if name == "g":
            b = _g_family(gen, (p["i1"], p["j1"], p["i2"], p["j2"]))
        elif name == "tau_generic":
            b = ca.j_family(p["i"], p["j"], unit(gen, 4), unit(gen, 4))
        else:
            kind = name.removeprefix("t_")
            b = ca.k_family(p["i"], p["j"], *_t_params(kind, gen, p["i"], p["j"]))
        if str(ca.canonical(b).block) == str(ca.canonical(a).block):
            return b


def _lr_map(gen):
    """An SO(8) map with a closed-form triality pair, and that pair."""
    rho = random_g2(gen)
    if gen.integers(0, 2):
        labelled = mp.left_right_mul_map(unit(gen, 8), unit(gen, 8), rho)
    else:
        labelled = mp.bimul_map(unit(gen, 8), rho)
    pair = ca.triality_pair(labelled)
    return labelled.mat, pair


def _givens(gen, angle):
    p, q = gen.choice(8, size=2, replace=False)
    g = np.eye(8)
    c, s = np.cos(angle), np.sin(angle)
    g[p, p], g[q, q], g[p, q], g[q, p] = c, c, -s, s
    return g


def iso_pool(seed):
    """isomorphic() queries of four verdict classes and iso_isotopes() witness
    checks, every family appearing a fixed number of times in each class."""
    gen = np.random.default_rng([seed, 2])
    items = []
    for _ in range(ISO_ROUNDS):
        for name in TWIN_FAMILIES:
            a = FAMILIES[name](gen)
            moved = ca.transport(_twin_transport(name, gen), a)
            items.append(IsoItem("iso", "twin", a, moved, "yes"))
            twin = FAMILIES[name](gen)
            items.append(IsoItem("iso", "raw_twin", strip(twin, gen), strip(twin, gen), "yes"))
        for k, name in enumerate(TWIN_FAMILIES):
            a = FAMILIES[name](gen)
            other = FAMILIES[TWIN_FAMILIES[(k + 3) % len(TWIN_FAMILIES)]]
            b = other(gen)
            while str(ca.canonical(b).block) == str(ca.canonical(a).block):
                b = other(gen)
            items.append(IsoItem("iso", "diff_block", a, b, "no"))
        for name in OTHER_FAMILIES * OTHER_REPEATS:
            a = FAMILIES[name](gen)
            items.append(IsoItem("iso", "other", a, _other_params(name, a, gen), "no"))
        for truth in (True, False):
            for name in TWIN_FAMILIES[:WITNESS_PER_TRUTH]:
                a = FAMILIES[name](gen)
                m, pair = _lr_map(gen)
                f, g = a.isotope
                b = ca.from_isotope(pair.phi1 @ f @ m.T, pair.phi2 @ g @ m.T)
                phi = m if truth else m @ _givens(gen, gen.uniform(0.1, 0.5))
                items.append(IsoItem("witness", "true" if truth else "perturbed", a, b, truth,
                                     ca.OrthoMap8(phi, check=False)))
    order = gen.permutation(len(items))
    return [items[k] for k in order]


def enumerate_order(seed):
    """The block kinds in a seeded order; the forms themselves are fixed."""
    gen = np.random.default_rng([seed, 3])
    kinds = list(ENUM_COUNTS)
    return [kinds[k] for k in gen.permutation(len(kinds))]
