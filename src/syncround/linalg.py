"""Dense complex-matrix primitives.

Everything downstream (games, strategies, rounding) is built on these:
Hermitian eigendecomposition, polar decomposition with its eigenbasis,
spectral clustering and the normalized-trace norm.  The trace is always
the *normalized* trace tau = Tr/dim, so that ||I||_2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetryExceedsTolerance, ConvergenceFailure, NotPositive

# Eigenvalues closer than this are treated as a single cluster everywhere
# (spectral breakpoints, slice extraction, rounding thresholds), and
# singular values at or below it (relative to max(1, s_0)) as zero.
CLUSTER_TOL = 1e-12

HERMITIZE_TOL = 1e-9

# Asymmetry tolerance of a compressed corner V* A V before it is rounded.
CORNER_TOL = 1e-7


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has NaN or Inf entries")
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


def check_leading_blocks(m, ranks, tol: float) -> None:
    """hermitize's test on every leading block m[..., :r, :r], r in ranks.

    m is a stack of square matrices.  The Frobenius norms of each block E
    and of E - E* come from the diagonals of the 2-D prefix sums of |m|^2
    and |m - m*|^2, one pass over m instead of one hermitize call per
    block.
    """
    a = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has NaN or Inf entries")
    last = np.asarray(ranks, dtype=int) - 1

    def block_norms(x: np.ndarray) -> np.ndarray:
        prefix = (x.real**2 + x.imag**2).cumsum(axis=-2).cumsum(axis=-1)
        return np.sqrt(prefix[..., last, last])

    asym = block_norms(a - a.conj().swapaxes(-1, -2))
    bad = asym > tol * (1.0 + block_norms(a))
    if bad.any():
        raise AsymmetryExceedsTolerance(
            f"asymmetry {asym[bad].max():.3e} exceeds tolerance {tol:.3e}"
        )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues sorted nonincreasing, eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(h) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix, nonincreasing order."""
    a = as_matrix(h)
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return SpectralDecomposition(vals[::-1].copy(), vecs[:, ::-1].copy())


def cluster_indices(values: np.ndarray, tol: float = CLUSTER_TOL) -> list[np.ndarray]:
    """Group indices of a sorted (nonincreasing) value array into clusters.

    Consecutive values within tol of each other share a cluster, so
    degenerate eigenvalues never produce spurious zero-measure slices.
    """
    groups: list[list[int]] = []
    for i, v in enumerate(values):
        if groups and abs(values[groups[-1][-1]] - v) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


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


def pseudo_inv_sqrt(a, cutoff: float | None = None) -> np.ndarray:
    """Spectral A^{-1/2} on eigenvalues above cutoff, zero elsewhere.

    Default cutoff is 1e-10 times the largest eigenvalue.
    """
    dec = eig_hermitian(hermitize(a))
    if dec.eigenvalues.size and dec.eigenvalues[-1] < -1e-12:
        raise NotPositive(f"eigenvalue {dec.eigenvalues[-1]:.3e} below -1e-12")
    lam_max = float(dec.eigenvalues[0]) if dec.eigenvalues.size else 0.0
    if cutoff is None:
        cutoff = 1e-10 * max(lam_max, 0.0)
    inv = np.where(dec.eigenvalues > cutoff, 1.0, 0.0) / np.sqrt(
        np.where(dec.eigenvalues > cutoff, dec.eigenvalues, 1.0)
    )
    u = dec.eigenvectors
    return (u * inv) @ u.conj().T
