"""Reference helpers that the library no longer needs.

Each one is the direct n x n form of something the library now reads off
an eigenbasis: spectral projectors, corner expansion, reconstruction from
an eigensystem, the projectivity test, projector slicing of sigma^2, the
host-frame aggregation of slice POVMs, the fold of slice corners into the
targets aggregate_slice_povms takes and rank factors of POVM elements.
Tests use them as independent oracles, and hand-built projective
strategies take their columns from with_columns.
"""

import numpy as np

from syncround import linalg
from syncround.errors import NotPovm
from syncround.linalg import CLUSTER_TOL
from syncround.strategies import Povm


def chi_geq(h, t):
    """Orthogonal projector onto eigenvectors of h with eigenvalue >= t.

    Eigenvalues within CLUSTER_TOL of t are included, so a cluster sitting
    on the threshold is never split.
    """
    dec = linalg.eig_hermitian(linalg.hermitize(h))
    v = dec.eigenvectors[:, dec.eigenvalues >= t - CLUSTER_TOL]
    return v @ v.conj().T


def expand_corner(x, basis):
    """Embed a corner operator x into the host as B x B*, for B an
    orthonormal basis of the corner; it inverts x = B* m B on the corner."""
    b = np.asarray(basis, dtype=complex)
    return b @ np.asarray(x, dtype=complex) @ b.conj().T


def reconstruct(dec):
    """The Hermitian matrix an eigensystem decomposes."""
    u = dec.eigenvectors
    return (u * dec.eigenvalues) @ u.conj().T


def rank_factor(h):
    """F with F F* = h for a positive h, eigenvalues <= CLUSTER_TOL dropped."""
    dec = linalg.eig_hermitian(linalg.hermitize(h))
    keep = dec.eigenvalues > CLUSTER_TOL
    return dec.eigenvectors[:, keep] * np.sqrt(dec.eigenvalues[keep])


def with_columns(povm):
    """povm carrying a rank factor of each element as Povm.columns, the
    form slice_strategies reads; for a PVM the factors are orthonormal."""
    return Povm(povm.elements, tuple(rank_factor(e) for e in povm.elements))


def is_projective(povm, tol=1e-9):
    return all(linalg.frobenius(e @ e - e) <= tol for e in povm.elements)


def projector_slices(sigma):
    """Exact spectral slicing of sigma^2 into (measure, projector) pieces.

    With distinct eigenvalues s_1 > ... > s_k of sigma, piece j carries
    Lebesgue measure s_j^2 - s_{j+1}^2 (s_{k+1} = 0) and projects onto the
    eigenvectors with eigenvalue >= s_j.
    """
    dec = linalg.eig_hermitian(linalg.hermitize(sigma))
    vals = np.clip(dec.eigenvalues, 0.0, None)
    clusters = linalg.cluster_indices(vals)
    reps = [float(np.mean(vals[idx])) for idx in clusters]
    pieces = []
    rank = 0
    for j, idx in enumerate(clusters):
        rank += len(idx)
        s_next = reps[j + 1] if j + 1 < len(clusters) else 0.0
        measure = reps[j] ** 2 - s_next**2
        if measure > 0.0:
            v = dec.eigenvectors[:, :rank]
            pieces.append((measure, v @ v.conj().T))
    return pieces


def host_aggregate(sigma, slices):
    """Slice POVM aggregation in the host frame.

    slices is a list of (measure, basis, per-question corner POVMs).  Each
    corner family is expanded into the host, summed with its measure and
    conjugated by pseudo_inv_sqrt(sigma^2); the kernel deficit goes to
    answer 0.
    """
    sig = linalg.hermitize(sigma)
    n = sig.shape[0]
    sig_sq = sig @ sig
    root_inv = linalg.pseudo_inv_sqrt(sig_sq)
    kernel = np.eye(n) - root_inv @ sig_sq @ root_inv
    families = []
    for y in range(len(slices[0][2])):
        elements = []
        for b in range(slices[0][2][0].outcomes):
            target = sum(
                m * expand_corner(corner[y].elements[b], basis)
                for m, basis, corner in slices
            )
            elements.append(root_inv @ target @ root_inv)
        elements[0] = elements[0] + kernel
        family = Povm(np.array(elements))
        if family.validate():
            raise NotPovm(f"aggregated family for question {y} is not a POVM")
        families.append(family)
    return families


def padded_targets(n, slices):
    """The (nq, na, n, n) targets of aggregate_slice_povms from a list of
    (measure, rank, per-question corner POVMs): each corner zero-padded to
    the leading rank x rank block and summed with its measure."""
    corners = slices[0][2]
    targets = np.zeros((len(corners), corners[0].outcomes, n, n), dtype=complex)
    for measure, rank, corner in slices:
        for y, povm in enumerate(corner):
            targets[y, :, :rank, :rank] += measure * povm.elements
    return targets
