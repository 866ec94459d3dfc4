"""Family labels are checked where they enter an Algebra and cannot change after.

Algebra(sc, family=label) rebuilds the label and rejects it unless the rebuild
reproduces sc within 1e-12; the constructors and transport attach the label
that produced their tensor.  Every way of changing a label (or the tensor)
afterwards is closed, so a label on an Algebra always describes its tensor."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compalg import algebra as al
from compalg import maps as mp
from compalg.errors import BadParameter

from conftest import unit

SIGNS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _g_params(gen):
    i1, j1 = SIGNS[gen.integers(4)]
    i2, j2 = SIGNS[1 + gen.integers(3)]  # i2 = 1 or j2 = 1
    alpha, beta = gen.uniform(0.0, np.pi, 2)
    return {"i1": i1, "j1": j1, "i2": i2, "j2": j2, "alpha": alpha, "beta": beta}


def _signs(gen, choices=SIGNS):
    i, j = choices[gen.integers(len(choices))]
    return {"i": i, "j": j}


#: Family name -> a random point of the family, as from_family parameters.
POINTS = {
    "standard_isotope": _signs,
    "quat4": _signs,
    "tau_family": lambda gen: {**_signs(gen), "a": unit(gen, 4), "b": unit(gen, 4)},
    "t_family": lambda gen: {**_signs(gen), **{k: unit(gen, 4) for k in ("a1", "b1", "a2", "b2")}},
    "lambda_family": lambda gen: {**_signs(gen), "a": unit(gen, 2), "b": unit(gen, 2)},
    "okubo": lambda gen: {},
    "p35": lambda gen: _signs(gen, SIGNS[:3]),
    "g_family": _g_params,
}


def _same_point(p, q):
    return all(np.array_equal(p[key], q[key]) for key in p)


def test_points_cover_every_family_constructor():
    assert set(POINTS) == set(al._BUILDERS)


@pytest.mark.parametrize("name", sorted(POINTS))
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_entry_check_accepts_its_own_label_and_rejects_others(name, seed):
    gen = np.random.default_rng(seed)
    point = POINTS[name](gen)
    a = al.from_family(name, point)
    phi = np.linalg.qr(gen.standard_normal((a.dim, a.dim)))[0]
    t = al.transport(phi, a)
    back = al.Algebra(t.sc, family=t.family)
    assert back.family.name == name
    assert np.array_equal(back.sc, t.sc)
    assert np.array_equal(back.family.frame, t.family.frame)
    # sc moved by 1e-9 in one entry
    moved = t.sc.copy()
    moved[tuple(gen.integers(0, a.dim, 3))] += 1e-9
    with pytest.raises(BadParameter):
        al.Algebra(moved, family=t.family)
    # the same label on another point of its family (okubo has no other point)
    others = [q for q in (POINTS[name](gen) for _ in range(8)) if not _same_point(point, q)]
    if others:
        other = al.transport(phi, al.from_family(name, others[0]))
        with pytest.raises(BadParameter):
            al.Algebra(other.sc, family=t.family)
    else:
        assert name == "okubo"


def test_checked_label_keeps_the_rebuild_and_its_isotope_pair():
    a = al.j_family(1, 0, [0.0, 1.0, 0.0, 0.0], [0.6, 0.0, 0.8, 0.0])
    label = al.FamilyLabel("tau_family", {"i": 1, "j": 0, "a": [0, 1, 0, 0], "b": [0.6, 0, 0.8, 0]})
    b = al.Algebra(a.sc, family=label)
    assert b.family.to_json() == a.family.to_json()
    assert all(np.array_equal(x, y) for x, y in zip(b.isotope, a.isotope))
    with pytest.raises(BadParameter):  # a 4-dimensional label on an 8-dimensional tensor
        al.Algebra(a.sc, family=al.quat4(1, 0).family)


def test_algebras_and_labels_are_read_only(gen):
    a = al.j_family(0, 1, unit(gen, 4), unit(gen, 4))
    t = al.transport(mp.kappa_hat_map(unit(gen, 4)), a)
    with pytest.raises(AttributeError):
        a.family = al.standard_isotope(0, 1).family
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.family.params = {}
    with pytest.raises(TypeError):
        a.family.params["i"] = 1
    with pytest.raises(ValueError):
        a.family.params["a"][0] = 1.0
    with pytest.raises(ValueError):
        t.family.frame[0, 0] = 2.0
    with pytest.raises(ValueError):
        a.sc[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        a.isotope[0][0, 0] = 2.0
    for name in ("dim", "sc", "isotope"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(TypeError):
        al.from_isotope(mp.identity_map(), mp.identity_map(), family=a.family)


def test_labels_and_tensors_copy_their_inputs(gen):
    q = unit(gen, 4)
    a = al.k_family(0, 0, q, q, q, q)
    q[:] = [1.0, 0.0, 0.0, 0.0]
    assert not np.array_equal(a.family.params["a1"], q)
    sc = a.sc.copy()
    b = al.Algebra(sc, family=a.family)
    sc[0, 0, 0] += 1.0
    assert np.array_equal(b.sc, a.sc)


def test_algebras_pickle_and_copy_with_their_labels(gen):
    a = al.j_family(0, 1, unit(gen, 4), unit(gen, 4))
    for b in (a, al.transport(mp.kappa_hat_map(unit(gen, 4)), a), al.Algebra(a.sc)):
        for c in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b), copy.copy(b)):
            assert np.array_equal(c.sc, b.sc)
            assert (c.family is None) == (b.family is None)
            if b.family is not None:
                assert c.family.to_json() == b.family.to_json()
