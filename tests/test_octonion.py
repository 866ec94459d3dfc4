import numpy as np

from compalg import octonion as oc
from compalg.numerics import det_sign

from conftest import unit


def test_basis_products():
    assert np.array_equal((oc.U * oc.V).coords, oc.UV.coords)
    assert np.array_equal((oc.Z * oc.Z).coords, -oc.ONE.coords)


def test_quaternion_block_matches_hamilton(gen):
    for _ in range(50):
        a4, b4 = gen.standard_normal(4), gen.standard_normal(4)
        lhs = (oc.Octonion(np.r_[a4, np.zeros(4)]) * oc.Octonion(np.r_[b4, np.zeros(4)])).coords
        assert np.max(np.abs(lhs[4:])) == 0.0
        assert np.allclose(lhs[:4], oc.quat_mul(a4, b4))


def test_quat_mul_broadcasts(gen):
    # components on the first axis, trailing axes broadcast column by column;
    # a single quaternion runs on Python scalars, with the same bits
    a, b = gen.standard_normal((4, 50)), gen.standard_normal((4, 50))
    batch = oc.quat_mul(a, b)
    assert batch.shape == (4, 50)
    assert np.array_equal(batch, np.column_stack([oc.quat_mul(a[:, k], b[:, k])
                                                  for k in range(50)]))
    assert np.array_equal(oc.quat_conj(a), np.column_stack([oc.quat_conj(a[:, k]) for k in range(50)]))
    assert np.array_equal(oc.quat_kappa(a, b),
                          np.column_stack([oc.quat_kappa(a[:, k], b[:, k]) for k in range(50)]))
    assert np.array_equal(oc.quat_kappa(a, b[:, :1]),
                          np.column_stack([oc.quat_kappa(a[:, k], b[:, 0]) for k in range(50)]))
    assert np.array_equal(oc.quat_kappa(a[:, :1], b), oc.quat_kappa(a[:, 0], b))
    ints = oc.quat_mul(np.eye(4, dtype=np.int64), np.eye(4, dtype=np.int64)[:, ::-1])
    assert ints.dtype == np.int64
    single = np.array([1, -2, 3, 0], dtype=np.int64)
    assert oc.quat_mul(single, single[::-1]).dtype == oc.quat_conj(single).dtype == np.int64
    assert np.array_equal(np.signbit(oc.quat_conj(np.array([1.0, 0.0, -0.0, 2.0]))),
                          [False, True, False, True])
    assert oc.STRUCTURE.dtype == np.int64


def test_unboxed_kernel_matches_quat_mul_and_kappa(gen):
    # hamilton and hamilton_kappa on Python floats give quat_mul's and
    # quat_kappa's bits, on single quaternions and on each batch column;
    # signed zeros included
    a, b = gen.standard_normal((4, 50)), gen.standard_normal((4, 50))
    a[:, :10] = np.round(a[:, :10])  # exact zeros of both signs
    a[1, :5] = -0.0
    batch_mul, batch_kappa = oc.quat_mul(a, b), oc.quat_kappa(a, b)
    for k in range(50):
        x, y = tuple(a[:, k].tolist()), tuple(b[:, k].tolist())
        mul, kappa = oc.hamilton(x, y), oc.hamilton_kappa(x, y)
        assert all(type(c) is float for c in mul + kappa)
        for unboxed, boxed in ((mul, oc.quat_mul(a[:, k], b[:, k])), (mul, batch_mul[:, k]),
                               (kappa, oc.quat_kappa(a[:, k], b[:, k])), (kappa, batch_kappa[:, k])):
            assert np.array(unboxed).tobytes() == np.ascontiguousarray(boxed).tobytes()
    # on (4, N) rows the kernel is the batch product itself
    assert np.array(oc.hamilton(a, b)).tobytes() == batch_mul.tobytes()
    assert np.array(oc.hamilton_kappa(a, b)).tobytes() == batch_kappa.tobytes()


def test_octonion_mul_broadcasts(gen):
    x, y = gen.standard_normal((30, 8)), gen.standard_normal((30, 8))
    batch = oc.mul(x, y)
    assert batch.shape == (30, 8)
    assert np.array_equal(batch, np.array([(oc.Octonion(p) * oc.Octonion(q)).coords
                                           for p, q in zip(x, y)]))


def test_trick_identity_exact_on_basis():
    for i in range(4):
        for j in range(4):
            x, y = oc.Octonion.basis(i), oc.Octonion.basis(j)
            assert np.array_equal(((oc.Z * x) * y).coords, (oc.Z * (y * x)).coords)


def test_structure_constants_integer():
    assert oc.STRUCTURE.dtype == np.int64
    assert set(np.unique(oc.STRUCTURE)) <= {-1, 0, 1}


def test_norm_multiplicative(gen):
    worst = 0.0
    for _ in range(2000):
        x, y = oc.Octonion(unit(gen, 8)), oc.Octonion(unit(gen, 8))
        worst = max(worst, abs((x * y).norm() - 1.0))
    assert worst < 1e-12


def test_alternative_laws(gen):
    for _ in range(500):
        x, y = oc.Octonion(gen.standard_normal(8)), oc.Octonion(gen.standard_normal(8))
        assert np.allclose((x * (x * y)).coords, ((x * x) * y).coords, atol=1e-12)
        assert np.allclose(((y * x) * x).coords, (y * (x * x)).coords, atol=1e-12)


def test_conj():
    assert np.array_equal(oc.ONE.conj().coords, oc.ONE.coords)
    assert np.array_equal(oc.U.conj().coords, -oc.U.coords)
    x = oc.Octonion(np.arange(8.0))
    assert np.array_equal(x.conj().conj().coords, x.coords)


def test_conj_antihomomorphism_brute_force():
    # check conj(e_i e_j) = conj(e_j) conj(e_i) on every basis pair
    k = np.diag([1.0, -1, -1, -1, -1, -1, -1, -1])
    s = oc.STRUCTURE.astype(float)
    lhs = np.einsum("km,ijm->ijk", k, s)
    rhs = np.einsum("ai,bj,abk->jik", k, k, s)
    assert np.array_equal(lhs, rhs)


def test_real_imaginary_parts():
    x = oc.ONE + 2.0 * oc.U
    assert x.coords[0] == 1.0
    three = (3.0 * oc.ONE).coords
    assert np.linalg.norm(three - three[0] * oc.ONE.coords) == 0.0
    t = 0.5 * (np.sqrt(3.0) * oc.U.coords - oc.ONE.coords)
    im = t - t[0] * oc.ONE.coords
    assert np.allclose(im, (np.sqrt(3) / 2) * oc.U.coords)


def test_sum_with_conj_is_twice_real(gen):
    for _ in range(20):
        x = oc.Octonion(gen.standard_normal(8))
        assert np.allclose((x + x.conj()).coords, 2 * x.coords[0] * oc.ONE.coords)


def test_left_right_mul_matrices(gen):
    assert np.array_equal(oc.left_mul_matrix(oc.ONE), np.eye(8))
    assert np.array_equal(oc.left_mul_matrix(oc.U) @ oc.V.coords, (oc.U * oc.V).coords)
    for _ in range(10):
        a = oc.Octonion(unit(gen, 8))
        x = oc.Octonion(gen.standard_normal(8))
        assert np.allclose(oc.left_mul_matrix(a) @ x.coords, (a * x).coords)
        assert np.allclose(oc.right_mul_matrix(a) @ x.coords, (x * a).coords)
        assert np.max(np.abs(oc.left_mul_matrix(a).T @ oc.left_mul_matrix(a) - np.eye(8))) < 1e-12


def test_mul_matrices_of_subalgebras(gen):
    # on C and H the kernel is the leading block of O's
    for n in (2, 4):
        for _ in range(10):
            a, x = unit(gen, n), gen.standard_normal(n)
            a8, x8 = np.r_[a, np.zeros(8 - n)], np.r_[x, np.zeros(8 - n)]
            assert np.array_equal(oc.left_mul_matrix(a), oc.left_mul_matrix(a8)[:n, :n])
            assert np.array_equal(oc.right_mul_matrix(a), oc.right_mul_matrix(a8)[:n, :n])
            assert np.allclose(oc.left_mul_matrix(a) @ x, oc.mul(a8, x8)[:n])
            assert np.allclose(oc.right_mul_matrix(a) @ x, oc.mul(x8, a8)[:n])
            assert not oc.mul(a8, x8)[n:].any()
    assert np.array_equal(oc.conj_matrix()[:4, :4] @ np.arange(4.0), oc.quat_conj(np.arange(4.0)))


def test_left_mul_det_sign_constant(gen):
    signs = {det_sign(oc.left_mul_matrix(oc.Octonion(unit(gen, 8))))
             for _ in range(50)}
    assert signs == {1}


def test_is_cayley_triple():
    assert oc.is_cayley_triple(oc.U, oc.V, oc.Z)
    assert not oc.is_cayley_triple(oc.U, oc.V, oc.UV)
    assert oc.is_cayley_triple(oc.V, oc.U, oc.Z)


def test_kappa_hat_compatibility(gen):
    # conjugation of H lifts to Hz: q (x z) conj-free form kappa_q(x) z
    from compalg.maps import kappa4, kappa_hat_map

    for _ in range(20):
        q = unit(gen, 4)
        x = gen.standard_normal(4)
        xz = oc.Octonion(np.r_[x, np.zeros(4)]) * oc.Z
        lhs = kappa_hat_map(q).mat @ xz.coords
        rhs = oc.Octonion(np.r_[kappa4(q) @ x, np.zeros(4)]) * oc.Z
        assert np.allclose(lhs, rhs.coords, atol=1e-12)


def test_homomorphism_residual_matches_einsum_reference(gen):
    # the per-index matmuls sum in another order than the einsum over a, b
    for n in (8, 4):
        for _ in range(5):
            phi, phi1, phi2 = (np.linalg.qr(gen.standard_normal((n, n)))[0] for _ in range(3))
            source, target = gen.standard_normal((2, n, n, n))
            lhs = np.einsum("km,ijm->ijk", phi, source)
            rhs = np.einsum("ai,bj,abk->ijk", phi1, phi2, target)
            got = oc.homomorphism_residual(phi, phi1, phi2, source, target)
            assert abs(got - np.max(np.abs(lhs - rhs))) < 1e-13
    assert oc.homomorphism_residual(np.eye(8), np.eye(8), np.eye(8)) == 0.0
