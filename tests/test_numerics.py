import numpy as np
import pytest

from compalg import algebra as al
from compalg import classify as cl
from compalg import numerics as nm
from compalg import octonion as oc
from compalg.derivations import derivation_basis, leibniz_matrix
from compalg.errors import NearSingular, NotSymmetric
from compalg.maps import tau_map
from compalg.numerics import (DEFAULT_TOL, TolerancePolicy, det_sign, is_orthogonal,
                              nullspace, sym_eigen)


def test_tolerance_policy_bounds():
    with pytest.raises(ValueError):
        TolerancePolicy(0.0)
    with pytest.raises(ValueError):
        TolerancePolicy(1e-2)


def test_nullspace_identity_empty():
    assert nullspace(np.eye(2)).shape[1] == 0


def test_nullspace_zero_matrix_full():
    basis = nullspace(np.zeros((2, 2)))
    assert basis.shape == (2, 2)
    assert np.allclose(basis.T @ basis, np.eye(2))


def test_nullspace_leibniz_system_dimension():
    # the 512 x 64 kernel problem for the octonions has a 14-dimensional kernel
    m = leibniz_matrix(al.octonion_algebra())
    assert m.shape == (512, 64)
    basis = nullspace(m)
    assert basis.shape[1] == 14
    assert np.max(np.abs(basis.T @ basis - np.eye(14))) < DEFAULT_TOL.value
    assert np.max(np.abs(m @ basis)) < 10 * DEFAULT_TOL.value * np.linalg.norm(m)


def _wide_and_square_cases(gen):
    rows = gen.standard_normal((2, 8))
    return [
        (np.arange(1.0, 9.0).reshape(1, 8), 7),
        (np.vstack([rows, rows[0] + 2.0 * rows[1]]), 6),
        (gen.standard_normal((8, 5)) @ gen.standard_normal((5, 8)), 3),
    ]


def test_nullspace_wide_and_square_inputs(gen):
    # fewer rows than columns: the kernel lies in rows of V that a thin SVD omits
    for m, kernel_dim in _wide_and_square_cases(gen):
        basis = nullspace(m)
        assert basis.shape == (8, kernel_dim)
        assert np.max(np.abs(basis.T @ basis - np.eye(kernel_dim))) < DEFAULT_TOL.value
        assert np.max(np.abs(m @ basis)) < 10 * DEFAULT_TOL.value * np.linalg.norm(m)


def _tall_rank_deficient_cases(gen):
    octonions = al.octonion_algebra()
    der = derivation_basis(octonions)
    g2_on_imaginary = [delta[1:, 1:] for delta in der.basis]
    eye = np.eye(7)
    commutant_system = np.vstack([np.kron(eye, d.T) - np.kron(d, eye) for d in g2_on_imaginary])
    low_rank = gen.standard_normal((512, 50)) @ gen.standard_normal((50, 64))
    return [(leibniz_matrix(octonions), 14), (commutant_system, 1), (low_rank, 14)]


def test_nullspace_tall_inputs_match_full_svd(gen):
    # tall inputs go through their R factor; the kernel must be the one the
    # full SVD gives, compared as orthogonal projectors
    for m, kernel_dim in _tall_rank_deficient_cases(gen):
        assert m.shape in ((512, 64), (686, 49))
        basis = nullspace(m)
        assert basis.shape == (m.shape[1], kernel_dim)
        _, s, vt = np.linalg.svd(m, full_matrices=True)
        ref = vt[int(np.sum(s > DEFAULT_TOL.value * s[0])):].T
        assert np.max(np.abs(basis @ basis.T - ref @ ref.T)) < 1e-12


#: One point per family, each block reached at least once (CI's analyze list).
FAMILY_POINTS = [
    ("standard_isotope", {"i": 1, "j": 0}),
    ("quat4", {"i": 0, "j": 1}),
    ("okubo", {}),
    ("p35", {"i": 0, "j": 1}),
    ("tau_family", {"i": 0, "j": 0, "a": [0, 1, 0, 0], "b": [0, 0, 1, 0]}),
    ("tau_family", {"i": 0, "j": 0, "a": [0, 1, 0, 0], "b": [0, 1, 0, 0]}),
    ("tau_family", {"i": 1, "j": 0, "a": [-1, 0, 0, 0], "b": [-1, 0, 0, 0]}),
    ("t_family", {"i": 0, "j": 1, "a1": [0.6, 0.8, 0, 0], "b1": [-0.6, -0.8, 0, 0],
                  "a2": [0, 1, 0, 0], "b2": [0, 1, 0, 0]}),
    ("t_family", {"i": 0, "j": 1, "a1": [0.6, 0.8, 0, 0], "b1": [0.8, 0.6, 0, 0],
                  "a2": [0, 1, 0, 0], "b2": [0, 1, 0, 0]}),
    ("t_family", {"i": 1, "j": 0, "a1": [0.6, 0.8, 0, 0], "b1": [0, 0, 1, 0],
                  "a2": [0, 1, 0, 0], "b2": [0.6, 0, 0.8, 0]}),
    ("lambda_family", {"i": 0, "j": 1, "a": [0.6, 0.8], "b": [0, 1]}),
    ("g_family", {"i1": 1, "j1": 1, "i2": 0, "j2": 1, "alpha": 0.4, "beta": 1.1}),
]


def test_r_factor_is_numpy_qr_r_bit_for_bit(monkeypatch, gen):
    # every tall matrix analyze factors, and rank-deficient ones of the same
    # widths, get the very R that np.linalg.qr(m, mode="r") gives
    seen = {}
    factor = nm._r_factor

    def record(m):
        seen.setdefault(m.shape, m.copy())
        return factor(m)

    monkeypatch.setattr(nm, "_r_factor", record)
    for name, params in FAMILY_POINTS:
        cl.analyze(al.from_family(name, params))
    # the Leibniz system, the d*8 x 8 derivation stacks and commutant systems
    assert {(512, 28), (24, 8), (32, 8), (48, 8), (64, 8), (112, 8), (392, 28)} <= set(seen)
    cases = list(seen.values())
    for rows, cols, rank_ in [(112, 8, 8), (112, 8, 5), (196, 14, 14), (196, 14, 9), (512, 28, 21)]:
        cases.append(gen.standard_normal((rows, rank_)) @ gen.standard_normal((rank_, cols)))
    for m in cases:
        r = factor(m)
        ref = np.linalg.qr(m, mode="r")
        assert r.shape == ref.shape and r.dtype == ref.dtype
        assert r.tobytes() == ref.tobytes(), m.shape


def test_sym_eigen_clusters():
    res = sym_eigen(np.diag([1.0, 1.0, 2.0]))
    assert [len(c) for c in res.clusters] == [2, 1]
    res = sym_eigen(np.eye(4))
    assert len(res.clusters) == 1 and len(res.clusters[0]) == 4


def test_sym_eigen_reconstruction(gen):
    a = gen.standard_normal((6, 6))
    m = 0.5 * (a + a.T)
    res = sym_eigen(m)
    recon = res.vectors @ np.diag(res.values) @ res.vectors.T
    assert np.max(np.abs(recon - m)) < 1e-10 * max(1.0, np.linalg.norm(m))


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eigen_skew_square_psd(gen):
    # independent oracle: v^T (-X^2) v = |X v|^2 >= 0 for skew X
    der = derivation_basis(al.octonion_algebra())
    coeffs = gen.standard_normal(der.dim)
    x = sum(float(c) * m for c, m in zip(coeffs, der.basis))
    res = sym_eigen(-x @ x)
    assert np.all(res.values >= -1e-10)
    for _ in range(20):
        v = gen.standard_normal(8)
        assert v @ (-x @ x) @ v >= -1e-12


def test_det_sign_basic():
    assert det_sign(np.eye(3)) == 1
    assert det_sign(oc.conj_matrix()) == -1
    with pytest.raises(NearSingular):
        det_sign(np.zeros((2, 2)))


def test_det_sign_stack(gen):
    # a stack gives the int array of the per-matrix signs; one near-singular
    # member raises for the whole stack
    stack = gen.standard_normal((6, 5, 5))
    signs = det_sign(stack)
    assert signs.dtype.kind == "i" and signs.shape == (6,)
    assert signs.tolist() == [det_sign(m) for m in stack]
    assert isinstance(det_sign(stack[0]), int)
    stack[3] = 0.0
    with pytest.raises(NearSingular):
        det_sign(stack)
    for bad in (np.zeros((2, 3, 4)), np.ones((2, 2, 3, 3)), np.full((2, 3, 3), np.nan)):
        with pytest.raises(ValueError):
            det_sign(bad)


def _cofactor_det(m):
    if m.shape == (1, 1):
        return m[0, 0]
    total = 0.0
    for j in range(m.shape[1]):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * m[0, j] * _cofactor_det(minor)
    return total


def test_det_sign_tau_by_cofactors(gen):
    p = gen.standard_normal(4)
    p /= np.linalg.norm(p)
    m = tau_map(p).mat
    assert det_sign(m) == 1
    assert _cofactor_det(m) > 0


def test_det_sign_multiplicative(gen):
    for _ in range(10):
        m1 = gen.standard_normal((5, 5))
        m2 = gen.standard_normal((5, 5))
        assert det_sign(m1 @ m2) == det_sign(m1) * det_sign(m2)


def test_is_orthogonal():
    assert is_orthogonal(np.eye(4))
    assert not is_orthogonal(2.0 * np.eye(4))
    for m in (np.ones((3, 4)), np.ones(4), np.ones((2, 2, 2)), np.empty((0, 0))):
        assert is_orthogonal(m) is False


def test_is_orthogonal_non_finite_is_false():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(4)
        m[1, 2] = bad
        assert is_orthogonal(m) is False


def test_is_orthogonal_lambda_direct(gen):
    from compalg.maps import lambda_map

    t = gen.standard_normal(2)
    t /= np.linalg.norm(t)
    m = lambda_map(t, int(gen.integers(0, 2))).mat
    assert np.max(np.abs(m.T @ m - np.eye(8))) < DEFAULT_TOL.value
