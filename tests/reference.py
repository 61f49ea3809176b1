"""Reference helpers that the library no longer needs.

Each one is the direct n x n form of something the library now reads off
an eigenbasis or a stack: spectral projectors, corner expansion,
reconstruction from an eigensystem, the projectivity test, POVM checks one
element at a time, per-question decoding of a strategy side, the chained
clustering loop and the spectral pieces it gives one cluster at a time,
projector slicing of sigma^2, the host-frame aggregation of slice POVMs,
the fold of slice corners into the targets aggregate_slice_povms takes,
rank factors of POVM elements, sequential rounding and the lemma report at
a dense weight sigma sigma*, and per-question rounding of a corner from
rank factors.
Tests use them as independent oracles, and hand-built projective
strategies take their factors from factor_stack.
"""

import numpy as np

from syncround import io, linalg
from syncround.errors import BoundViolated, NotPovm, ValidationError
from syncround.linalg import CLUSTER_TOL, CORNER_TOL
from syncround.strategies import (
    Povm,
    TracialStrategy,
    correlation,
    correlation_distance,
    synchronicity,
)


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


def padded_factors(factors, n):
    """Per-question lists of (n, k) factors as the (nq, na, n, k_max) stack
    the rounding kernel takes, each zero-padded to the widest."""
    width = max(f.shape[1] for row in factors for f in row)
    stack = np.zeros((len(factors), len(factors[0]), n, width), dtype=complex)
    for x, row in enumerate(factors):
        for a, f in enumerate(row):
            stack[x, a, :, : f.shape[1]] = f
    return stack


def factor_stack(elements):
    """Rank factors of an (nq, na, n, n) element stack as the zero-padded
    (nq, na, n, k) stack slice_strategies takes; for PVMs the factors are
    orthonormal."""
    rows = [[rank_factor(e) for e in row] for row in elements]
    return padded_factors(rows, np.shape(elements)[-1])


def is_projective(elements, tol=1e-9):
    """Every matrix of an (..., n, n) element stack is idempotent to tol."""
    e = np.asarray(elements)
    return bool(np.all(np.linalg.norm(e @ e - e, axis=(-2, -1)) <= tol))


def reference_validate(povm):
    """Povm.validate one element at a time: NotHermitian, else one
    eigvalsh per element for NotPositive, then the sum."""
    violations = []
    total = np.zeros((povm.dim, povm.dim), dtype=complex)
    for e in povm.elements:
        if np.linalg.norm(e - e.conj().T) > 1e-8 * (1 + np.linalg.norm(e)):
            violations.append("NotHermitian")
        elif np.linalg.eigvalsh((e + e.conj().T) / 2)[0] < -1e-10:
            violations.append("NotPositive")
        total += e
    if np.max(np.abs(total - np.eye(povm.dim))) > 1e-9:
        violations.append("SumNotIdentity")
    return violations


def decode_povms_each(data, dim, side):
    """A strategy side decoded question by question, matrix by matrix, each
    question checked by reference_validate once decoded; the first fault is
    raised as io raises it."""
    povms = []
    for qi, mats in enumerate(io._convert(data, list, side)):
        mats = io._convert(mats, list, f"{side}[{qi}]")
        elements = [io.decode_matrix(m) for m in mats]
        if not elements or any(e.shape != (dim, dim) for e in elements):
            raise ValidationError(
                f"{side}[{qi}] needs one or more elements of shape {dim}x{dim}"
            )
        povm = Povm(np.array(elements))
        violations = reference_validate(povm)
        if violations:
            raise ValidationError(
                f"{side}[{qi}] is not a POVM: " + ", ".join(violations)
            )
        povms.append(povm)
    return tuple(povms)


def cluster_indices(values):
    """Group indices of a sorted (nonincreasing) value array into clusters.

    Consecutive values within CLUSTER_TOL of each other share a cluster, so
    a chain of near-ties is one cluster however long it grows.
    """
    groups = []
    for i, v in enumerate(values):
        if groups and abs(values[groups[-1][-1]] - v) <= CLUSTER_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [np.array(g) for g in groups]


def spectral_pieces(vals):
    """The (measure, rank) pieces of the exact slicing of sigma^2, one
    cluster at a time.

    With cluster means s_1 > ... > s_k of a nonnegative nonincreasing
    spectrum, piece j carries Lebesgue measure s_j^2 - s_{j+1}^2 (s_{k+1} =
    0) and spans the eigenvectors in clusters 1..j; pieces of measure 0 are
    dropped.
    """
    clusters = cluster_indices(vals)
    reps = [float(np.mean(vals[idx])) for idx in clusters]
    pieces = []
    rank = 0
    for j, idx in enumerate(clusters):
        rank += len(idx)
        s_next = reps[j + 1] if j + 1 < len(clusters) else 0.0
        measure = reps[j] ** 2 - s_next**2
        if measure > 0.0:
            pieces.append((measure, rank))
    return pieces


def projector_slices(sigma):
    """Exact spectral slicing of sigma^2 into (measure, projector) pieces:
    each piece of spectral_pieces projects onto its leading eigenvectors."""
    dec = linalg.eig_hermitian(linalg.hermitize(sigma))
    vals = np.clip(dec.eigenvalues, 0.0, None)
    pieces = []
    for measure, rank in spectral_pieces(vals):
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
        if reference_validate(family):
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


def dense_orthogonalize(povm, sigma):
    """Sequential spectral rounding at the dense weight w = sigma sigma*.

    The element with the largest mass tau(A w) is thresholded at 1/2 on the
    whole space, the next on the compressed complement of what was kept, and
    the last takes the remainder; masses, epsilon and the error come from
    one product A w per element and one P w per outcome.  An error above
    9 epsilon + 1e-8 raises BoundViolated.  Returns the PVM and its
    weighted error.
    """
    sig = linalg.as_matrix(sigma)
    w = sig @ sig.conj().T
    elements = povm.elements
    n = povm.dim
    aw = elements @ w
    masses = np.trace(aw, axis1=1, axis2=2).real / n
    order = np.argsort(-masses, kind="stable")
    blocks = []
    labels = []
    basis = None  # None is the identity: the first corner is the whole space
    for idx, x in enumerate(order):
        last = idx == len(order) - 1
        if last:
            keep = np.eye(n, dtype=complex) if basis is None else basis
        else:
            e = elements[x]
            corner = e if basis is None else basis.conj().T @ e @ basis
            dec = linalg.eig_hermitian(linalg.hermitize(corner, tol=CORNER_TOL))
            sel = dec.eigenvalues >= 0.5 - CLUSTER_TOL
            keep = dec.eigenvectors[:, sel]
            rest = dec.eigenvectors[:, ~sel]
            if basis is not None:
                keep, rest = basis @ keep, basis @ rest
        blocks.append(keep)
        labels.extend([int(x)] * keep.shape[1])
        if last or rest.shape[1] == 0:
            break
        basis = rest
    vectors = np.concatenate(blocks, axis=1)
    labels = np.array(labels)
    columns = tuple(vectors[:, labels == x] for x in range(povm.outcomes))
    pvm = np.array([c @ c.conj().T for c in columns])
    a2w = float(np.einsum("aij,aji->", elements, aw).real) / n
    bound = 9.0 * (1.0 - a2w) + 1e-8
    error = sum(
        float(np.einsum("ij,ji->", a - p, a_w - p @ w).real)
        for a, a_w, p in zip(elements, aw, pvm)
    ) / n
    if error > bound:
        raise BoundViolated(f"error {error:.3e} exceeds {bound:.3e}")
    return Povm(pvm), error


def factor_round(elements, factors):
    """Sequential rounding of one question's corner POVM at the identity
    weight, from rank factors, one eigendecomposition per outcome but the
    last.

    elements is the (na, r, r) corner and factors[a] an (N, k_a) factor of
    the whole element, so its leading r rows G give elements[a] = G G*.  The
    outcome of largest trace goes first; each threshold keeps the
    eigenvectors at or above 1/2 - CLUSTER_TOL of M M*, M = G - Q Q* G for
    the columns Q kept so far, taken from the smaller of M M* and M* M, and
    the last outcome takes I - Q Q*.  Returns the PVM and the error
    sum_a ||A_a - P_a||_F^2.
    """
    na, r = elements.shape[:2]
    masses = np.diagonal(elements, axis1=1, axis2=2).real @ np.ones(r)
    order = np.argsort(-masses, kind="stable")
    pvm = np.empty(elements.shape, dtype=complex)
    kept = np.empty((r, 0), dtype=complex)
    for x in order[:-1]:
        g = factors[x][:r]
        g = g - kept @ (kept.conj().T @ g)
        if r < g.shape[1]:
            dec = linalg.eig_hermitian(g @ g.conj().T)
            cols = dec.eigenvectors[:, dec.eigenvalues >= 0.5 - CLUSTER_TOL]
        else:
            dec = linalg.eig_hermitian(g.conj().T @ g)
            sel = dec.eigenvalues >= 0.5 - CLUSTER_TOL
            cols = g @ (dec.eigenvectors[:, sel] / np.sqrt(dec.eigenvalues[sel]))
        kept = np.concatenate((kept, cols), axis=1)
        pvm[x] = cols @ cols.conj().T
    pvm[order[-1]] = np.eye(r) - kept @ kept.conj().T
    return pvm, float(np.sum(np.abs(elements - pvm) ** 2))


def dense_lemma_report(game, s):
    """lemma_report in the host frame: every state a dense n x n matrix and
    the measurement substitution rounded by dense_orthogonalize."""
    c_s = correlation(s)
    delta = synchronicity(game, c_s)
    sigma = s.sigma
    polar = linalg.polar_decompose(sigma)
    u, sigma_plus = polar.isometry_part, polar.positive_part
    sym_a = TracialStrategy(s.dim, sigma, s.alice, s.alice)
    delta_a = synchronicity(game, correlation(sym_a))
    sigma_left = u @ sigma_plus @ u.conj().T
    sym_a_plus = TracialStrategy(s.dim, sigma_left, s.alice, s.alice)
    delta_a_plus = synchronicity(game, correlation(sym_a_plus))
    sym_b = TracialStrategy(s.dim, sigma_plus, s.bob_left, s.bob_left)
    delta_b = synchronicity(game, correlation(sym_b))
    vienna_rhs = np.sqrt(max(1.0 - delta_a_plus, 0.0)) * np.sqrt(
        max(1.0 - delta_b, 0.0)
    )
    rounded = []
    gamma = 0.0
    for x, elements in enumerate(s.alice):
        pvm, err = dense_orthogonalize(Povm(elements), sigma)
        rounded.append(pvm.elements)
        gamma += game.mu_x[x] * err
    swapped = TracialStrategy(s.dim, sigma, rounded, s.bob_left)
    meas_lhs = correlation_distance(game, c_s, correlation(swapped))
    meas_rhs = 6.0 * (delta_a + np.sqrt(max(gamma, 0.0)))
    return {
        "theviennalemma": {
            "lhs": 1.0 - delta, "rhs": vienna_rhs, "slack": vienna_rhs - 1.0 + delta
        },
        "measurementtocoorlation": {
            "lhs": meas_lhs, "rhs": meas_rhs, "slack": meas_rhs - meas_lhs
        },
    }
