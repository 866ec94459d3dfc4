"""The float path of the tau and bracket records.

The records read each unit parameter once, by octonion.as_unit, into a
4-tuple of Python floats and carry it through the block decision, the sign
normalization, the normal form and the witness.  The public calls they use
take arrays or float tuples, and must give the same bits for both; the
records must give the forms of the boxed path: BracketTT.of, nf_pair, and
kappa_hat as the product L_q R_conj(q) of the multiplication matrices."""

from itertools import product

import numpy as np
import pytest

from compalg import algebra as al
from compalg import classify as cl
from compalg import maps as mp
from compalg import normal_form as nf
from compalg import octonion as oc
from compalg.errors import NotInBlock, NotUnitComplex, NotUnitQuaternion
from compalg.numerics import DEFAULT_TOL

Z = DEFAULT_TOL.value
SIGN_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))
OKUBO = np.array([-0.5, np.sqrt(3.0) / 2.0, 0.0, 0.0])  # a^2 + a + 1 = 0
U4 = (0.0, 1.0, 0.0, 0.0)


def _edges(bases):
    """Each base with one zero coordinate set to +-tol, +-2 tol or +-10 tol, normalized."""
    out = []
    for base, k, d in product(bases, range(len(bases[0])), (1, -1, 2, -2, 10, -10)):
        if base[k] == 0.0:
            x = base.copy()
            x[k] = d * Z
            out.append(x / np.linalg.norm(x))
    return out


def _quaternions():
    """+-1, points of the u-plane and of other coordinate planes, the Okubo
    pair, their edge points, and seeded random units."""
    bases = [np.array(b) for b in ([1.0, 0, 0, 0], [-1.0, 0, 0, 0], [0.0, 1, 0, 0], [0.6, 0.8, 0, 0],
                                   [-0.6, -0.8, 0, 0], [0.0, 0.6, 0.8, 0], [0.6, 0, 0, -0.8])]
    bases += [OKUBO, oc.quat_mul(OKUBO, OKUBO)]
    gen = np.random.default_rng(30)
    return bases + _edges(bases) + [v / np.linalg.norm(v) for v in gen.standard_normal((24, 4))]


QUATS = _quaternions()


def _tau_points():
    """(a, b) pairs: every point against a seeded sample, and the aligned pairs (a, +-a, a^2)."""
    gen = np.random.default_rng(31)
    pairs = [(a, QUATS[k]) for a in QUATS for k in gen.choice(len(QUATS), 6, replace=False)]
    return pairs + [(a, b) for a in QUATS for b in (a, -a, oc.quat_mul(a, a))]


def _t_points():
    """(a1, b1, a2, b2): seeded samples, with b1 = +-a1 and b2 = +-a2 aligned in half of them."""
    gen = np.random.default_rng(32)
    out = []
    for _ in range(400):
        a1, b1, a2, b2 = (QUATS[k] for k in gen.choice(len(QUATS), 4))
        if gen.integers(2):
            b1, b2 = gen.choice([-1.0, 1.0]) * a1, gen.choice([-1.0, 1.0]) * a2
        out.append((a1, b1, a2, b2))
    return out + [(a, a, a, -a) for a in QUATS[:12]]


def _floats(q):
    return tuple(np.asarray(q).tolist())


def _bits(x):
    """x with every array replaced by its dtype, shape and bytes, so that == compares bits."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, nf.PairTT):
        return _bits((x.a, x.b))
    if isinstance(x, nf.NFResult):
        return _bits((x.canonical, x.witness_q, x.tag, x.boundary_flag))
    if isinstance(x, mp.OrthoMap8):
        return _bits(x.mat)
    if isinstance(x, tuple):
        return tuple(_bits(y) for y in x)
    return x


def _outcome(fn, *args):
    """fn(*args) in bits, or the class of the error it raises."""
    try:
        return _bits(fn(*args))
    except Exception as err:  # the two inputs must raise alike
        return type(err)


def test_tau_block_and_nf_TxT_give_the_same_bits_on_arrays_and_float_tuples():
    for (a, b), (i, j) in product(_tau_points(), ((0, 0), (1, 1))):
        at, bt = _floats(a), _floats(b)
        assert al.tau_block(i, j, a, b) == al.tau_block(i, j, at, bt), (a, b, i, j)
        assert _outcome(nf.nf_TxT, nf.make_pair(a, b)) == _outcome(nf.nf_TxT, (at, bt)), (a, b)


def test_t_block_and_nf_pair_give_the_same_bits_on_arrays_and_float_tuples():
    for qs in _t_points():
        floats = [_floats(q) for q in qs]
        for i, j in SIGN_PAIRS:
            assert al.t_block(i, j, *qs) == al.t_block(i, j, *floats), qs
        boxed = (nf.BracketTT.of(*qs[:2]), nf.BracketTT.of(*qs[2:]))
        unboxed = tuple((_floats(br.rep.a), _floats(br.rep.b)) for br in boxed)
        assert _outcome(nf.nf_pair, boxed) == _outcome(nf.nf_pair, unboxed), qs


def test_kappa_hat_map_gives_the_same_bits_on_arrays_and_float_tuples():
    for q in QUATS:
        assert _bits(mp.kappa_hat_map(q)) == _bits(mp.kappa_hat_map(_floats(q)))
        assert _bits(mp.kappa4(q)) == _bits(mp.kappa4(_floats(q)))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_multiplication_matrices_are_the_structure_contractions_bit_for_bit(n):
    gen = np.random.default_rng(n)
    block = oc.STRUCTURE[:n, :n, :n].astype(float)
    for _ in range(300):
        a = gen.standard_normal(n)
        a[gen.integers(0, 3, n) == 1] = 0.0
        a[gen.integers(0, 3, n) == 1] = -0.0  # signed zeros keep their bits too
        assert _bits(oc.left_mul_matrix(a)) == _bits(np.ascontiguousarray(
            np.einsum("i,ijk->kj", a, block)))
        assert _bits(oc.right_mul_matrix(a)) == _bits(np.ascontiguousarray(
            np.einsum("j,ijk->ki", a, block)))


def _boxed_kappa_hat(q):
    """kappa_hat_q as L_q R_conj(q) on H and on Hz, from the multiplication matrices."""
    mat = np.zeros((8, 8))
    mat[:4, :4] = mat[4:, 4:] = oc.left_mul_matrix(q) @ oc.right_mul_matrix(oc.quat_conj(q))
    return mat


def _form_bits(form):
    return form.block.kind, _bits(form.params), form.boundary_flag, _bits(form.witness)


def _record(name, p):
    """The record's form in bits, or NotInBlock."""
    try:
        return _form_bits(cl._canonical_params(name, p))
    except NotInBlock:
        return NotInBlock


def _boxed_bracket(i, j, qs):
    """The bracket record's form by the boxed path, or NotInBlock."""
    kind = al.t_block(i, j, *qs)
    if kind is None:
        return NotInBlock
    res = nf.nf_pair((nf.BracketTT.of(*qs[:2]), nf.BracketTT.of(*qs[2:])))
    return kind, _bits(res.canonical), res.boundary_flag, _bits(_boxed_kappa_hat(res.witness_q))


def test_tau_record_matches_the_boxed_path():
    for (a, b), (i, j) in product(_tau_points(), SIGN_PAIRS):
        res = nf.nf_TxT(nf.make_pair(a, b))
        want = (al.tau_block(i, j, *res.canonical), _bits(res.canonical), res.boundary_flag,
                _bits(_boxed_kappa_hat(res.witness_q)))
        for x, y in ((a, b), (_floats(a), _floats(b))):
            assert _record("tau_family", {"i": i, "j": j, "a": x, "b": y}) == want, (a, b, i, j)


def test_bracket_record_matches_the_boxed_path():
    for qs, (i, j) in product(_t_points(), SIGN_PAIRS):
        want = _boxed_bracket(i, j, qs)
        for params in (qs, [_floats(q) for q in qs]):
            p = {"i": i, "j": j, **dict(zip(("a1", "b1", "a2", "b2"), params))}
            assert _record("t_family", p) == want, (qs, i, j)


def test_lambda_record_matches_the_boxed_path():
    bases = [np.array(c) for c in ([1.0, 0], [-1.0, 0], [0.0, 1], [0.6, -0.8])]
    gen = np.random.default_rng(33)
    circle = bases + _edges(bases) + [np.array([np.cos(t), np.sin(t)]) for t in gen.uniform(0, 7, 8)]
    for a, b, (i, j) in product(circle, circle[::3], SIGN_PAIRS):
        qs = [np.array(q) for q in cl._lambda_to_t(i, j, a, b)]
        got = _record("lambda_family", {"i": i, "j": j, "a": a, "b": b})
        assert got == _boxed_bracket(i, j, qs), (a, b, i, j)


@pytest.mark.parametrize("call, error", [
    (lambda: al.tau_block(0, 0, [np.nan, 0, 0, 0], [1.0, 0, 0, 0]), NotUnitQuaternion),
    (lambda: al.tau_block(0, 0, [1.0, 0, 0, 0], [0.0, 1, 0]), NotUnitQuaternion),
    (lambda: al.tau_block(0, 0, (1.0, 0.0, 0.0, float("nan")), (1.0, 0.0, 0.0, 0.0)),
     NotUnitQuaternion),
    (lambda: al.t_block(0, 0, (2.0, 0.0, 0.0, 0.0), U4, U4, U4), NotUnitQuaternion),
    (lambda: mp.kappa_hat_map((0.0, 2.0, 0.0, 0.0)), NotUnitQuaternion),
    (lambda: cl._canonical_params("tau_family", {"i": 0, "j": 0, "a": 2 * nf.U4, "b": nf.U4}),
     NotUnitQuaternion),
    (lambda: cl._canonical_params("t_family", {"i": 0, "j": 0, "a1": U4, "b1": U4, "a2": U4,
                                               "b2": [0.0, 1, 0]}), NotUnitQuaternion),
    (lambda: cl._canonical_params("lambda_family", {"i": 0, "j": 0, "a": [2.0, 0], "b": [0.0, 1]}),
     NotUnitComplex),
    (lambda: cl._canonical_params("lambda_family", {"i": 0, "j": 0, "a": [0.6, 0.8, 0],
                                                    "b": [0.0, 1]}), NotUnitComplex),
    (lambda: al.lambda_family(0, 0, [2.0, 0], [0.0, 1]), NotUnitComplex),
], ids=["tau_block-nan", "tau_block-3-vector", "tau_block-nan-tuple", "t_block-tuple-norm-2",
        "kappa_hat_map-tuple-norm-2", "tau-record-norm-2", "t-record-3-vector",
        "lambda-record-norm-2", "lambda-record-3-vector", "lambda_family-norm-2"])
def test_records_and_block_functions_reject_what_the_constructors_reject(call, error):
    with pytest.raises(error):
        call()


def test_as_unit_reads_tuples_as_they_are_and_other_input_through_one_array():
    x = (0.6, 0.8, 0.0, 0.0)
    assert oc.as_unit(x, 4) is x
    assert oc.as_unit(np.array(x), 4) == x
    assert oc.as_unit((1, 0, 0, 0), 4) == (1.0, 0.0, 0.0, 0.0)  # integers go through the array
    assert all(type(c) is float for c in oc.as_unit((1, 0, 0, 0), 4))
    assert oc.as_unit(oc.U, 2) == (0.0, 1.0)
