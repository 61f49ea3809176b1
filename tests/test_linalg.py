"""Unit tests for the dense matrix primitives."""

import numpy as np
import pytest

from reference import chi_geq, expand_corner, reconstruct
from syncround import linalg
from syncround.errors import AsymmetryExceedsTolerance, NotPositive


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def random_positive(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_nan():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_tau_of_identity_is_one():
    for n in (1, 2, 7):
        assert linalg.tau(np.eye(n)) == pytest.approx(1.0)


def test_tau_norm_examples():
    assert linalg.tau_norm(np.eye(5)) == pytest.approx(1.0)
    assert linalg.tau_norm(np.diag([1.0, 0.0])) == pytest.approx(1 / np.sqrt(2))
    assert linalg.tau_norm(np.diag([1.0, -1.0])) == pytest.approx(1.0)


def test_hermitize_identity_fixed_point():
    np.testing.assert_array_equal(linalg.hermitize(np.eye(2)), np.eye(2))


def test_hermitize_nearly_hermitian_fixed_point():
    m = np.array([[1.0, 1j * 1e-12], [-1j * 1e-12, 1.0]])
    np.testing.assert_allclose(linalg.hermitize(m), m, atol=1e-15)


def test_hermitize_rejects_strict_upper_triangular():
    with pytest.raises(AsymmetryExceedsTolerance):
        linalg.hermitize(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitize_stack_agrees_with_hermitize():
    rng = np.random.default_rng(4)
    tol = linalg.CORNER_TOL
    for trial in range(40):
        m = np.array([random_hermitian(rng, 5) for _ in range(3)])
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m[trial % 3] += 10.0 ** rng.uniform(-10, -5) * (g - g.conj().T)
        try:
            want = np.array([linalg.hermitize(e, tol=tol) for e in m])
        except AsymmetryExceedsTolerance:
            with pytest.raises(AsymmetryExceedsTolerance):
                linalg.hermitize_stack(m)
            continue
        np.testing.assert_array_equal(linalg.hermitize_stack(m), want)


def test_eig_hermitian_decomposes_each_matrix_of_a_stack():
    rng = np.random.default_rng(5)
    stack = np.array([[random_hermitian(rng, 4) for _ in range(2)] for _ in range(3)])
    dec = linalg.eig_hermitian(stack)
    assert dec.eigenvalues.shape == (3, 2, 4)
    assert dec.eigenvectors.shape == (3, 2, 4, 4)
    for i in range(3):
        for j in range(2):
            one = linalg.eig_hermitian(stack[i, j])
            np.testing.assert_allclose(dec.eigenvalues[i, j], one.eigenvalues, atol=1e-12)
            np.testing.assert_allclose(
                reconstruct(type(one)(dec.eigenvalues[i, j], dec.eigenvectors[i, j])),
                stack[i, j],
                atol=1e-10,
            )
    assert np.all(np.diff(dec.eigenvalues, axis=-1) <= 1e-12)
    for bad in (np.zeros((3, 2, 4)), np.full((2, 3, 3), np.nan)):
        with pytest.raises(ValueError):
            linalg.eig_hermitian(bad)


def test_eig_hermitian_diagonal_order():
    dec = linalg.eig_hermitian(np.diag([0.2, 0.9]))
    np.testing.assert_allclose(dec.eigenvalues, [0.9, 0.2])


def test_eig_hermitian_pauli_x():
    dec = linalg.eig_hermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0])
    # eigenvectors are (1, 1)/sqrt(2) and (1, -1)/sqrt(2) up to phase
    plus = dec.eigenvectors[:, 0]
    np.testing.assert_allclose(np.abs(plus), [1 / np.sqrt(2)] * 2, atol=1e-12)
    np.testing.assert_allclose(plus[0], plus[1], atol=1e-12)


def test_eig_hermitian_reconstructs_random():
    rng = np.random.default_rng(0)
    for n in (2, 5, 9):
        h = random_hermitian(rng, n)
        dec = linalg.eig_hermitian(h)
        np.testing.assert_allclose(reconstruct(dec), h, atol=1e-10)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)


def test_polar_positive_input():
    parts = linalg.polar_decompose(np.diag([2.0, 3.0]))
    np.testing.assert_allclose(parts.positive_part, np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(parts.isometry_part, np.eye(2), atol=1e-12)


def test_polar_nilpotent_input():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    parts = linalg.polar_decompose(m)
    np.testing.assert_allclose(parts.positive_part, np.diag([0.0, 1.0]), atol=1e-12)
    np.testing.assert_allclose(parts.isometry_part, m, atol=1e-12)


def test_polar_zero_input():
    parts = linalg.polar_decompose(np.zeros((3, 3)))
    np.testing.assert_allclose(parts.positive_part, 0, atol=1e-15)
    np.testing.assert_allclose(parts.isometry_part, 0, atol=1e-15)


def test_polar_matches_svd_oracle():
    rng = np.random.default_rng(1)
    for n in (2, 4, 7):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        parts = linalg.polar_decompose(m)
        # oracle: sqrt(m* m) via the singular value decomposition
        u, s, vh = np.linalg.svd(m)
        np.testing.assert_allclose(
            parts.positive_part, (vh.conj().T * s) @ vh, atol=1e-10
        )
        np.testing.assert_allclose(
            parts.isometry_part @ parts.positive_part, m, atol=1e-10
        )
        iso = parts.isometry_part
        # partial isometry: u*u is a projector
        p = iso.conj().T @ iso
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        # the positive part is diagonal in the eigenbasis, nonincreasing
        v, sv = parts.eigenbasis, parts.singular_values
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(
            v.conj().T @ parts.positive_part @ v, np.diag(sv), atol=1e-10
        )
        assert np.all(np.diff(sv) <= 0)
        # the left basis completes the SVD m = L diag(s) V*
        left = parts.left_basis
        np.testing.assert_allclose(left.conj().T @ left, np.eye(n), atol=1e-12)
        np.testing.assert_allclose((left * sv) @ v.conj().T, m, atol=1e-10)


def test_polar_zeroes_singular_values_on_the_kernel():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    m = g @ (rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5)))
    parts = linalg.polar_decompose(m)
    # SVD leaves ~1e-16 in place of the three zero singular values
    assert np.all(parts.singular_values[:2] > 0.1)
    np.testing.assert_array_equal(parts.singular_values[2:], 0.0)
    p = parts.isometry_part.conj().T @ parts.isometry_part
    assert np.trace(p).real == pytest.approx(2.0)
    # a unitary left basis also on the kernel, where the isometry is 0
    left = parts.left_basis
    np.testing.assert_allclose(left.conj().T @ left, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(
        (left * parts.singular_values) @ parts.eigenbasis.conj().T, m, atol=1e-10
    )


def test_chi_geq_diagonal():
    np.testing.assert_allclose(
        chi_geq(np.diag([0.2, 0.9]), 0.5), np.diag([0.0, 1.0]), atol=1e-12
    )


def test_chi_geq_below_spectrum_is_identity():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 4)
    t = -np.linalg.norm(h, 2) - 1.0
    np.testing.assert_allclose(chi_geq(h, t), np.eye(4), atol=1e-12)


def test_chi_geq_pauli_x_at_zero():
    proj = chi_geq(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.0)
    np.testing.assert_allclose(proj, np.full((2, 2), 0.5), atol=1e-12)


def test_chi_geq_is_projector():
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = random_hermitian(rng, 6)
        p = chi_geq(h, float(rng.normal()))
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)


def test_expand_corner_inverts_compress():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 4)
    b = np.linalg.qr(rng.normal(size=(4, 2)))[0]
    p = b @ b.conj().T
    x = b.conj().T @ m @ b
    np.testing.assert_allclose(
        expand_corner(x, b), p @ m @ p, atol=1e-10
    )


def test_pseudo_inv_sqrt_examples():
    np.testing.assert_allclose(
        linalg.pseudo_inv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12
    )
    np.testing.assert_allclose(linalg.pseudo_inv_sqrt(np.eye(3)), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(
        linalg.pseudo_inv_sqrt(np.diag([1.0, 1e-14])), np.diag([1.0, 0.0]), atol=1e-12
    )


def test_pseudo_inv_sqrt_rejects_negative():
    with pytest.raises(NotPositive):
        linalg.pseudo_inv_sqrt(np.diag([1.0, -1.0]))


def test_pseudo_inv_sqrt_inverts_on_support():
    rng = np.random.default_rng(6)
    a = random_positive(rng, 5) + 0.1 * np.eye(5)
    r = linalg.pseudo_inv_sqrt(a)
    np.testing.assert_allclose(r @ a @ r, np.eye(5), atol=1e-9)
