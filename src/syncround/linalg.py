"""Dense complex-matrix primitives and the tolerance table.

Everything downstream (games, strategies, rounding) is built on these:
Hermitian eigendecomposition, polar decomposition with its eigenbasis and
the normalized-trace norm.  The trace is always the *normalized* trace
tau = Tr/dim, so that ||I||_2 = 1.  Every tolerance the package compares
against is named once in the table below; checks of one kind at one value
share a name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetryExceedsTolerance, ConvergenceFailure, NotPositive

CLUSTER_TOL = 1e-12  # values this close are one (pieces, 1/2 thresholds, polar kernel)
GIVEN_SUM_TOL = 1e-12  # a sum the input gives as 1: mu, the state's norm, rho
PSD_FLOOR = -1e-10  # lowest eigenvalue a positive operator may show
CONTRACT_SLACK = 1e-8  # slack of a proved inequality: 2 delta, 9 eps, sync 0, lemmas
SUPPORT_CUTOFF = 1e-10  # eigenvalues at or below this times the largest are kernel
NORM_TOL = 1e-9  # a computed normalization: tau(sigma sigma*), slice weights, POVM sums
HERMITIZE_TOL = 1e-9  # relative asymmetry hermitize accepts by default
CORNER_TOL = 1e-7  # relative asymmetry of a corner V* A V, and of V V* against A
POVM_ASYM_TOL = 1e-8  # relative asymmetry of a POVM element that validates
INV_SQRT_FLOOR = -1e-12  # lowest eigenvalue pseudo_inv_sqrt's input may show
CORR_IMAG_TOL = 1e-7  # imaginary residue a correlation entry may carry
CORR_RANGE_TOL = 1e-9  # how far a correlation entry may leave [0, 1]
CORR_SUM_TOL = 1e-8  # how far a correlation row may sum from 1
RECONSTRUCT_TOL = 1e-8  # sigma H sigma = T, relative to 1 + ||s^2||
FIT_FLOOR = 1e-15  # deltas and distances at or below this stay out of the log-log fit


def _as_stack(m) -> np.ndarray:
    """Coerce to a stack (..., k, k) of square complex matrices and reject
    non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has NaN or Inf entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix and reject non-finite entries."""
    a = _as_stack(m)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, "fro"))


def tau(m: np.ndarray) -> complex:
    """Normalized trace Tr(m)/dim."""
    return complex(np.trace(m)) / m.shape[0]


def tau_norm(m: np.ndarray) -> float:
    """Hilbert-Schmidt norm under the normalized trace: sqrt(Tr(m* m)/dim)."""
    m = np.asarray(m, dtype=complex)
    return frobenius(m) / np.sqrt(m.shape[0])


def hermitize(m, tol: float = HERMITIZE_TOL) -> np.ndarray:
    """Return (m + m*)/2, refusing inputs that are not nearly Hermitian.

    Raises AsymmetryExceedsTolerance when ||m - m*||_F > tol * (1 + ||m||_F).
    """
    a = as_matrix(m)
    asym = frobenius(a - a.conj().T)
    if asym > tol * (1.0 + frobenius(a)):
        raise AsymmetryExceedsTolerance(
            f"asymmetry {asym:.3e} exceeds tolerance {tol:.3e}"
        )
    return (a + a.conj().T) / 2.0


def hermitize_stack(m: np.ndarray) -> np.ndarray:
    """hermitize at CORNER_TOL on each matrix of a stack (..., k, k), in one
    pass: refused when any matrix has ||m - m*||_F > CORNER_TOL * (1 +
    ||m||_F)."""
    adj = m.conj().swapaxes(-1, -2)
    asym = _frobenius_each(m - adj)
    bad = asym > CORNER_TOL * (1.0 + _frobenius_each(m))
    if bad.any():
        raise AsymmetryExceedsTolerance(
            f"asymmetry {asym[bad].max():.3e} exceeds tolerance {CORNER_TOL:.3e}"
        )
    return (m + adj) / 2.0


def _frobenius_each(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, from its real and
    imaginary parts side by side and without a temporary of m's size."""
    parts = np.ascontiguousarray(m).view(float)
    return np.sqrt(np.einsum("...ij,...ij->...", parts, parts))


def check_leading_blocks(m, ranks) -> None:
    """hermitize's test at CORNER_TOL on every leading block m[..., :r, :r].

    m is a stack of square matrices and r runs over ranks.  The Frobenius
    norms of each block E and of E - E* come from the diagonals of the 2-D
    prefix sums of |m|^2 and |m - m*|^2, one pass over m instead of one
    hermitize call per block.
    """
    a = np.asarray(m, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("matrix has NaN or Inf entries")
    last = np.asarray(ranks, dtype=int) - 1

    def block_norms(x: np.ndarray) -> np.ndarray:
        prefix = (x.real**2 + x.imag**2).cumsum(axis=-2).cumsum(axis=-1)
        return np.sqrt(prefix[..., last, last])

    asym = block_norms(a - a.conj().swapaxes(-1, -2))
    bad = asym > CORNER_TOL * (1.0 + block_norms(a))
    if bad.any():
        raise AsymmetryExceedsTolerance(
            f"asymmetry {asym[bad].max():.3e} exceeds tolerance {CORNER_TOL:.3e}"
        )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted nonincreasing, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(h) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, or of each matrix of a
    stack (..., m, m) in one call, nonincreasing order."""
    a = _as_stack(h)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return SpectralDecomposition(vals[..., ::-1].copy(), vecs[..., ::-1].copy())


@dataclass(frozen=True)
class PolarParts:
    """sigma = isometry_part @ positive_part with u a partial isometry.
    positive_part = V diag(s) V* with V = eigenbasis; singular_values is s,
    nonincreasing, with its values on the kernel of u set to zero.
    left_basis is L in the SVD sigma = L diag(s) V*, the eigenbasis of
    sigma sigma*."""

    isometry_part: np.ndarray
    positive_part: np.ndarray
    eigenbasis: np.ndarray
    singular_values: np.ndarray
    left_basis: np.ndarray


def polar_decompose(m) -> PolarParts:
    """Polar decomposition m = u * sqrt(m* m), from one SVD.

    The partial isometry u is m @ pinv(positive_part), extended by zero on
    the kernel of the positive part, so u*u is the support projector.
    Singular values at or below CLUSTER_TOL * max(1, s_0) count as kernel.
    """
    a = as_matrix(m)
    try:
        u_svd, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    positive = (vh.conj().T * s) @ vh
    cutoff = CLUSTER_TOL * max(1.0, s[0] if s.size else 0.0)
    support = s > cutoff
    isometry = u_svd[:, support] @ vh[support, :]
    return PolarParts(
        isometry, positive, vh.conj().T, np.where(support, s, 0.0), u_svd
    )


def pseudo_inv_sqrt(a) -> np.ndarray:
    """Spectral A^{-1/2} on eigenvalues above SUPPORT_CUTOFF times the
    largest, zero elsewhere."""
    dec = eig_hermitian(hermitize(a))
    if dec.eigenvalues.size and dec.eigenvalues[-1] < INV_SQRT_FLOOR:
        raise NotPositive(
            f"eigenvalue {dec.eigenvalues[-1]:.3e} below {INV_SQRT_FLOOR:.0e}"
        )
    lam_max = float(dec.eigenvalues[0]) if dec.eigenvalues.size else 0.0
    cutoff = SUPPORT_CUTOFF * max(lam_max, 0.0)
    inv = np.where(dec.eigenvalues > cutoff, 1.0, 0.0) / np.sqrt(
        np.where(dec.eigenvalues > cutoff, dec.eigenvalues, 1.0)
    )
    u = dec.eigenvectors
    return (u * inv) @ u.conj().T
