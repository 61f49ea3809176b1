"""The rounding pipeline.

Turns an almost-synchronous strategy into a finite convex combination of
synchronous sub-strategies: symmetrize via the polar decomposition, force
projectivity by spectral rounding, then slice the state's spectrum into
corner algebras where the compressed measurements become exactly
synchronous.  Every stage reports the residual its backing inequality
bounds, and the lambda-integrals are evaluated exactly at eigenvalue
breakpoints (the integrands are piecewise constant at finite dimension).

round_correlation is the one pipeline.  Each stage takes its input
correlation from the stage before, and the decomposition keeps the
embedded strategy, its correlation and the symmetric stage, so the CLI,
the lemma report and the soundness demo continue from them instead of
embedding, correlating or polar-decomposing a second time.

Every stage after symmetrize works in the eigenbasis V of the symmetric
state sigma+, from the polar decomposition's one SVD: sigma+ is the
diagonal of its singular values and Alice's elements are rotated once,
V* A V.  Correlations, weights and residuals are normalized traces, so
the basis does not change them.

Cost model of the slice stage at dimension n, with nq questions of na
answers.  Every slice spans a leading block of coordinates and sigma's
spectrum is its diagonal.  projectivize builds each PVM element from
orthonormal columns, P = F F* with F of width k (the element's rank), and
keeps F with the PVM; the slice stage uses those columns as rank factors,
so it factors no n x n element.  Checking that F F* reproduces each
element costs O(n^2 k), and the asymmetry of every leading block is read
from prefix sums, one pass per element.  Slice j of rank r reads its
corner POVM as the leading r x r block, whose factor is the leading r rows
of F; rounding it takes, per question, na - 1 eigendecompositions of
min(r, k) x min(r, k) Gram matrices and O(r k (r + k)) products.  Its
residual ||A[:, :r] - [P; 0]||_F^2 is the off-corner mass ||A[r:, :r]||_F^2,
read from prefix sums of |A|^2, plus the r x r corner difference, whose
Frobenius mass the rounding's bound check already sums.  The slice's
corner PVMs fill one (nq, na, r, r) array and its correlation is one
product of that array with its transpose.  No slice forms an n x n
projector.  The corners stream: each array is dropped once its table is
taken, after an optional on_slice hook has seen it, so the decomposition
is O(n^2) (weights, dimensions and one table per slice) although the
corners add up to sum_j nq na r_j^2, about n^3 nq na / 3 entries when every
slice has its own rank.  The joint-distribution check likewise needs one
eigendecomposition per operand: every threshold projector is a leading
eigenvector block, so its distance at each breakpoint is read from a
prefix sum of eigenvector overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    BoundViolated,
    MathContractError,
    NotPositive,
    NotNormalized,
    NotSynchronousGame,
    ValidationError,
)
from .games import Game, is_synchronous_game
from .linalg import CLUSTER_TOL, CORNER_TOL
from .strategies import (
    Correlation,
    Povm,
    TensorStrategy,
    TracialStrategy,
    correlation,
    correlation_distance,
    embed_tracial,
    stacked_correlation,
    synchronicity,
)

ORTHO_SLACK = 1e-8

# on_slice(measure, rank, stack): a slice's measure, corner dimension and
# (nq, na, rank, rank) corner PVMs.
SliceHook = Callable[[float, int, np.ndarray], None]


def _spectral_basis(elements: np.ndarray, order) -> tuple[np.ndarray, np.ndarray]:
    """Labelled orthonormal basis from sequential spectral rounding.

    The element x = order[0] is thresholded at 1/2 on the whole space, the
    next one on the complement of what was kept, and so on; the last element
    takes whatever remains.  Returns the basis vectors as columns and the
    element each one was assigned to.
    """
    n = elements.shape[1]
    blocks = []
    labels: list[int] = []
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
    return np.concatenate(blocks, axis=1), np.array(labels)


def _projectors(vectors: np.ndarray, labels: np.ndarray, outcomes: int) -> np.ndarray:
    """P_x = V_x V_x* where V_x holds the vectors labelled x."""
    n = vectors.shape[0]
    out = np.empty((outcomes, n, n), dtype=complex)
    for x in range(outcomes):
        cols = vectors[:, labels == x]
        out[x] = cols @ cols.conj().T
    return out


def _within_bound(elements, aw, w, pvm, full_basis):
    """Hold a rounding pvm of the elements to the 9-epsilon bound at weight w.

    aw holds the products A_a w; w = None is the identity weight of a corner
    and skips every w product.  There the error is the Frobenius mass
    sum_a ||A_a - P_a||_F^2, one vectorized sum.  At a weight w, tau((A -
    P)^2 w) = tau((A - P)(A w - P w)) adds one P w per outcome and stays
    exact near a fixed point, where an expansion in tau(P A w) would leave
    cancellation noise; it is summed one outcome at a time so its
    temporaries stay at one element's size.  If the error exceeds 9
    epsilon, one greedy reassignment of the basis full_basis() returns is
    tried; failing that, BoundViolated is raised.  Returns the PVM, its
    error unnormalized (times the dimension) and the reassigned labels
    (None when the first rounding stands).
    """
    n = elements.shape[1]
    a2w = float(np.einsum("aij,aji->", elements, aw).real) / n
    bound = 9.0 * (1.0 - a2w) + ORTHO_SLACK

    def weighted_mass(pvm: np.ndarray) -> float:
        if w is None:
            d = elements - pvm
            return float(np.vdot(d, d).real)
        total = 0.0
        for a, a_w, p in zip(elements, aw, pvm):
            total += float(np.einsum("ij,ji->", a - p, a_w - p @ w).real)
        return total

    mass = weighted_mass(pvm)
    relabel = None
    if mass / n > bound:
        # Greedy reassignment: with the basis fixed, the weighted error is
        # separable over basis vectors, so per-vector argmax is optimal.
        # Re v* w A v = Re v* A w v for Hermitian A and w.
        vectors = full_basis()
        scores = np.sum(vectors.conj() * (aw @ vectors), axis=1).real
        labels = np.argmax(scores, axis=0)
        candidate = _projectors(vectors, labels, len(elements))
        cand_mass = weighted_mass(candidate)
        if cand_mass < mass:
            pvm, mass, relabel = candidate, cand_mass, labels
    if mass / n > bound:
        raise BoundViolated(
            f"orthogonalization error {mass / n:.3e} exceeds "
            f"9*eps bound {bound:.3e}"
        )
    return pvm, mass, relabel


def orthogonalize_povm(povm: Povm, sigma) -> tuple[Povm, float]:
    """Round a POVM to a PVM in the sigma-weighted Hilbert-Schmidt norm.

    Sequential spectral rounding: the element with the largest weighted mass
    is thresholded at 1/2, the rest recurse on the compressed complement and
    the last element takes the remainder.  If the resulting error exceeds
    the 9-epsilon orthogonalization bound, one greedy eigenvector
    reassignment pass is tried; failing that, BoundViolated is raised.
    The masses, epsilon and the greedy scores all come from one product
    A_a w per element, w = sigma sigma*.  The PVM keeps each outcome's
    orthonormal columns, after any reassignment, as Povm.columns.
    """
    sig = linalg.as_matrix(sigma)
    w = sig @ sig.conj().T
    elements = povm.elements
    aw = elements @ w
    masses = np.trace(aw, axis1=1, axis2=2).real / povm.dim
    vectors, labels = _spectral_basis(
        elements, np.argsort(-masses, kind="stable")
    )
    pvm = _projectors(vectors, labels, povm.outcomes)
    pvm, mass, relabel = _within_bound(elements, aw, w, pvm, lambda: vectors)
    if relabel is not None:
        labels = relabel
    columns = tuple(vectors[:, labels == x] for x in range(povm.outcomes))
    return Povm(pvm, columns), mass / povm.dim


def _round_corner(blocks: np.ndarray, factors, out: np.ndarray) -> float:
    """orthogonalize_povm at the identity weight for a corner E_a = G_a G_a*.

    blocks holds the r x r corner elements E_a and factors[a] a rank factor
    whose leading r rows are G_a, of width k_a.  With Q the columns kept so
    far, E_a compressed to the complement of Q is N N*, N = G_a - Q Q* G_a.
    When r < k_a its eigenvectors come from that r x r matrix directly;
    otherwise they are N u / sqrt(l) for the eigenpairs (l, u) of the k_a x
    k_a Gram matrix N* N, which has the same nonzero spectrum.  So each
    threshold at 1/2 is one min(r, k_a)-sized eigendecomposition, and the
    last outcome takes I - Q Q*.  Only a rounding that misses the bound
    builds the full basis, the one _spectral_basis gives, for the greedy
    reassignment.  The PVM is written to out; returns its Frobenius mass
    sum_a ||E_a - P_a||_F^2, which the bound check computes anyway.
    """
    r = blocks.shape[1]
    order = np.argsort(-np.trace(blocks, axis1=1, axis2=2).real, kind="stable")
    pvm = out
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
        pvm[x] = cols @ cols.conj().T
        kept = np.concatenate((kept, cols), axis=1)
    pvm[order[-1]] = np.eye(r) - kept @ kept.conj().T
    pvm, mass, _ = _within_bound(
        blocks, blocks, None, pvm, lambda: _spectral_basis(blocks, order)[0]
    )
    if pvm is not out:
        out[...] = pvm
    return mass


def _checked_eig(name: str, m: np.ndarray) -> linalg.SpectralDecomposition:
    """Eigensystem of a Hermitian m, refusing eigenvalues below -1e-10."""
    dec = linalg.eig_hermitian(m)
    if dec.eigenvalues.size and dec.eigenvalues[-1] < -1e-10:
        raise NotPositive(f"{name} has eigenvalue {dec.eigenvalues[-1]:.3e}")
    return dec


def verify_connes(rho, sigma) -> tuple[float, float]:
    """Both sides of the joint-distribution inequality for positive rho, sigma.

    lhs = integral over lambda of ||chi_{>=sqrt(lambda)}(rho) -
    chi_{>=sqrt(lambda)}(sigma)||_2^2, summed exactly over the intervals
    between sorted squared eigenvalues where the integrand is constant;
    rhs = ||rho - sigma||_2 * ||rho + sigma||_2.

    Both spectral projectors at a threshold are leading eigenvector blocks,
    of ranks k and l, so ||chi(rho) - chi(sigma)||_F^2 = k + l - 2 C[k, l]
    with C the 2-D prefix sum of the overlaps |V_rho* V_sigma|^2: one
    eigendecomposition per operand serves every interval.
    """
    r = linalg.hermitize(rho)
    s = linalg.hermitize(sigma)
    dec_r = _checked_eig("rho", r)
    dec_s = _checked_eig("sigma", s)
    n = r.shape[0]
    ev_r = np.clip(dec_r.eigenvalues, 0.0, None)
    ev_s = np.clip(dec_s.eigenvalues, 0.0, None)
    breakpoints = np.sort(np.concatenate(([0.0], ev_r**2, ev_s**2)))
    lo, hi = breakpoints[:-1], breakpoints[1:]
    wide = hi - lo > CLUSTER_TOL
    lo, hi = lo[wide], hi[wide]
    cut = np.sqrt((lo + hi) / 2.0) - CLUSTER_TOL
    k_r = np.count_nonzero(dec_r.eigenvalues[None, :] >= cut[:, None], axis=1)
    k_s = np.count_nonzero(dec_s.eigenvalues[None, :] >= cut[:, None], axis=1)
    overlap = np.abs(dec_r.eigenvectors.conj().T @ dec_s.eigenvectors) ** 2
    prefix = np.zeros((n + 1, n + 1))
    prefix[1:, 1:] = overlap.cumsum(axis=0).cumsum(axis=1)
    dist2 = k_r + k_s - 2.0 * prefix[k_r, k_s]
    lhs = float(np.dot(hi - lo, dist2)) / n
    rhs = linalg.tau_norm(r - s) * linalg.tau_norm(r + s)
    return lhs, float(rhs)


def _spectral_pieces(vals: np.ndarray):
    """Yield the (measure, rank) pieces of the exact slicing of sigma^2.

    With distinct eigenvalues s_1 > ... > s_k of sigma (nonnegative,
    nonincreasing input, clustered within CLUSTER_TOL), piece j carries
    Lebesgue measure s_j^2 - s_{j+1}^2 (s_{k+1} = 0) and spans the leading
    `rank` eigenvectors, those with eigenvalue >= s_j.
    """
    clusters = linalg.cluster_indices(vals)
    reps = [float(np.mean(vals[idx])) for idx in clusters]
    rank = 0
    for j, idx in enumerate(clusters):
        rank += len(idx)
        s_next = reps[j + 1] if j + 1 < len(clusters) else 0.0
        measure = reps[j] ** 2 - s_next**2
        if measure > 0.0:
            yield measure, rank


@dataclass(frozen=True)
class Slice:
    weight: float
    measure: float
    sub_dim: int  # the corner is the leading sub_dim coordinates


@dataclass(frozen=True)
class RoundingDecomposition:
    slices: tuple[Slice, ...]
    correlations: tuple[Correlation, ...]
    mixed: Correlation
    diagnostics: dict
    # Earlier stages, set by round_correlation and None on a bare
    # slice_strategies result.  symmetric is (sigma+, {A}) in sigma+'s
    # eigenbasis V, whose diagonal sigma+ the slices cut.
    embedded: TracialStrategy | None
    c_in: Correlation | None
    symmetric: TracialStrategy | None


def symmetrize(s: TracialStrategy, game: Game, c_in: Correlation):
    """Replace the strategy by the symmetric one (sigma+, {A}).

    c_in is the correlation of s.  The result is written in sigma+'s
    eigenbasis V: its state is diag(singular values) and Alice's elements
    are V* A V.  Returns it, its correlation and a report with the
    input/output synchronicities and the mu-weighted correlation distance;
    the factor-2 synchronicity bound is enforced.
    """
    delta_in = synchronicity(game, c_in)
    polar = linalg.polar_decompose(s.sigma)
    v = polar.eigenbasis
    rotated = v.conj().T @ np.array([p.elements for p in s.alice]) @ v
    alice = tuple(Povm(elements) for elements in rotated)
    out = TracialStrategy(s.dim, np.diag(polar.singular_values), alice, alice)
    c_out = correlation(out)
    delta_out = synchronicity(game, c_out)
    if delta_out > 2.0 * delta_in + 1e-8:
        raise MathContractError(
            f"symmetrized synchronicity {delta_out:.3e} exceeds "
            f"2*{delta_in:.3e} + 1e-8"
        )
    report = {
        "delta_in": delta_in,
        "delta_out": delta_out,
        "distance": correlation_distance(game, c_in, c_out),
    }
    return out, c_out, report


def projectivize(s: TracialStrategy, game: Game, c_in: Correlation):
    """Round each question's POVM to a PVM in the sigma-weighted norm.

    Requires a symmetric strategy with positive sigma and its correlation
    c_in; returns the symmetric projective strategy, its correlation and a
    report like symmetrize's plus the weighted rounding error gamma.
    """
    sigma = linalg.hermitize(s.sigma)
    pvms = []
    errors = []
    for povm in s.alice:
        pvm, err = orthogonalize_povm(povm, sigma)
        pvms.append(pvm)
        errors.append(err)
    pvms = tuple(pvms)
    out = TracialStrategy(s.dim, sigma, pvms, pvms)
    c_out = correlation(out)
    report = {
        "delta_in": synchronicity(game, c_in),
        "delta_out": synchronicity(game, c_out),
        "distance": correlation_distance(game, c_in, c_out),
        "gamma": float(np.dot(game.mu_x, errors)),
    }
    return out, c_out, report


def _checked_columns(povms: tuple[Povm, ...], n: int) -> list:
    """Each PVM's columns, refused unless V_a V_a* reproduces A_a.

    The test is hermitize's, at CORNER_TOL: ||V V* - A||_F <= CORNER_TOL *
    (1 + ||A||_F), O(n^2 k) for an element of rank k.
    """
    for x, povm in enumerate(povms):
        if povm.columns is None or len(povm.columns) != povm.outcomes:
            raise ValidationError(f"slicing needs the columns of PVM {x}")
        for a, (e, v) in enumerate(zip(povm.elements, povm.columns)):
            v = np.asarray(v)
            fits = v.ndim == 2 and v.shape[0] == n
            gap = linalg.frobenius(v @ v.conj().T - e) if fits else np.inf
            if not gap <= CORNER_TOL * (1.0 + linalg.frobenius(e)):
                raise ValidationError(f"columns {a} of PVM {x} miss by {gap:.3e}")
    return [povm.columns for povm in povms]


def slice_strategies(
    s: TracialStrategy, game: Game, on_slice: SliceHook | None = None
) -> RoundingDecomposition:
    """Decompose a symmetric projective strategy into synchronous corners.

    s is in its state's eigenbasis, as symmetrize leaves it: sigma is real,
    diagonal, nonnegative and nonincreasing.  Alice's PVMs carry the columns
    orthogonalize_povm built them from, which serve as rank factors.  Each
    spectral slice, a leading block of coordinates, hosts a corner
    sub-strategy whose tracial state is the corner identity; compressed
    measurements are rounded back to PVMs there, making every per-slice
    correlation synchronous.

    The corner PVMs are not kept: the decomposition holds each slice's
    weight, measure, dimension and correlation, O(n^2) in all.  A caller
    that needs the corners passes on_slice, called once per slice, smallest
    first, as on_slice(measure, rank, stack) with the slice's (nq, na, rank,
    rank) corner PVMs; the stack is not reused, so the hook may keep it.
    """
    spectrum = np.diagonal(s.sigma)
    if not np.array_equal(s.sigma, np.diag(spectrum)) or np.any(spectrum.imag):
        raise ValidationError("slicing needs a real diagonal sigma")
    spectrum = spectrum.real
    if np.any(spectrum < 0) or np.any(np.diff(spectrum) > 0):
        raise ValidationError("slicing needs a nonnegative nonincreasing sigma")
    norm = float(np.mean(spectrum**2))
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"tau(sigma^2) = {norm!r}")
    n, nq, na = s.dim, s.n_questions, s.n_answers
    pieces = list(_spectral_pieces(spectrum))
    ranks = np.array([rank for _, rank in pieces])
    # Slice j's corner is the leading rank x rank block of every element, so
    # no slice touches the n x n operators again.
    elements = [p.elements for p in s.alice]
    for e in elements:
        linalg.check_leading_blocks(e, ranks, CORNER_TOL)
    factors = _checked_columns(s.alice, n)
    herm = [(e + e.conj().swapaxes(1, 2)) / 2.0 for e in elements]
    # ||A[r:, :r]||_F^2 summed over answers, for every slice rank r: sums of
    # |A|^2 over the rows from r down, accumulated over the columns below r.
    # Row n is empty, so the full-rank slice reads 0.
    tails = np.zeros((nq, n + 1, n))
    for x, e in enumerate(elements):
        sq = (e.real**2 + e.imag**2).sum(axis=0)
        tails[x, :n] = sq[::-1].cumsum(axis=0)[::-1]
    off_corner = tails.cumsum(axis=2)[:, ranks, ranks - 1]
    slices = []
    correlations = []
    residual = 0.0
    for j, (measure, rank) in enumerate(pieces):
        stack = np.empty((nq, na, rank, rank), dtype=complex)
        for x in range(nq):
            corner = herm[x][:, :rank, :rank]
            # ||(A - P) Pi_r||_F^2 = ||A[r:, :r]||_F^2 + ||A[:r, :r] - P||_F^2;
            # the corner term is the mass _round_corner returns
            mass = float(off_corner[x, j]) + _round_corner(corner, factors[x], stack[x])
            residual += float(game.mu_x[x]) * measure * mass / n
        c_sub = stacked_correlation(stack.swapaxes(-1, -2), stack)
        sync_sub = synchronicity(game, c_sub)
        if sync_sub > 1e-8:
            raise MathContractError(
                f"slice correlation synchronicity {sync_sub:.3e} > 1e-8"
            )
        if on_slice is not None:
            on_slice(measure, rank, stack)
        slices.append(Slice(measure * rank / n, measure, rank))
        correlations.append(c_sub)
    weights = np.array([sl.weight for sl in slices])
    if abs(weights.sum() - 1.0) > 1e-9:
        raise MathContractError(f"slice weights sum to {weights.sum()!r}")
    mixed = Correlation(
        sum(w * c.table for w, c in zip(weights, correlations))
    )
    diagnostics = {
        "n_slices": float(len(slices)),
        "weight_sum": float(weights.sum()),
        "slice_residual": residual,
    }
    return RoundingDecomposition(
        tuple(slices), tuple(correlations), mixed, diagnostics, None, None, None
    )


def round_correlation(
    game: Game, s: TensorStrategy, on_slice: SliceHook | None = None
) -> RoundingDecomposition:
    """Full pipeline: embed -> symmetrize -> projectivize -> slice.

    Each stage's correlation is computed once and handed to the next.  The
    returned diagnostics carry the input synchronicity, every stage's
    residual and the final mu-weighted distance between the input
    correlation and the synchronous mixture; the decomposition also keeps
    the embedded strategy, its correlation and the symmetric stage.
    on_slice is passed to slice_strategies, the one place a caller sees
    the corner PVMs.
    """
    if not is_synchronous_game(game):
        raise NotSynchronousGame("rounding requires a synchronous game")
    embedded = embed_tracial(s)
    c_in = correlation(embedded)
    sym, c_sym, sym_report = symmetrize(embedded, game, c_in)
    proj, _, proj_report = projectivize(sym, game, c_sym)
    dec = slice_strategies(proj, game, on_slice)
    diagnostics = dict(dec.diagnostics)
    diagnostics.update(
        {
            "delta_in": sym_report["delta_in"],
            "sym_delta": sym_report["delta_out"],
            "sym_distance": sym_report["distance"],
            "proj_delta": proj_report["delta_out"],
            "proj_distance": proj_report["distance"],
            "proj_gamma": proj_report["gamma"],
            "distance": correlation_distance(game, c_in, dec.mixed),
        }
    )
    return RoundingDecomposition(
        dec.slices, dec.correlations, dec.mixed, diagnostics, embedded, c_in, sym
    )


def lemma_report(game: Game, s: TracialStrategy) -> dict:
    """Evaluate both sides of the implemented lemma inequalities.

    Returns {lemma: {lhs, rhs, slack}} with slack = rhs - lhs; every slack
    should be >= -1e-8 when the lemmas hold.
    """
    c_s = correlation(s)
    delta = synchronicity(game, c_s)
    sigma = s.sigma
    polar = linalg.polar_decompose(sigma)
    u, sigma_plus = polar.isometry_part, polar.positive_part

    # Synchronicity factorization.  Cauchy-Schwarz through sigma = u|sigma|
    # = |sigma*|u weighs Alice's operators at |sigma*| = u|sigma|u* and
    # Bob's at |sigma|; at |sigma| on both sides the bound fails for
    # unbalanced embeddings, where sigma is far from normal.
    sym_a = TracialStrategy(s.dim, sigma, s.alice, s.alice)
    delta_a = synchronicity(game, correlation(sym_a))
    sigma_left = u @ sigma_plus @ u.conj().T
    sym_a_plus = TracialStrategy(s.dim, sigma_left, s.alice, s.alice)
    delta_a_plus = synchronicity(game, correlation(sym_a_plus))
    sym_b = TracialStrategy(s.dim, sigma_plus, s.bob_left, s.bob_left)
    delta_b = synchronicity(game, correlation(sym_b))
    vienna = {
        "lhs": 1.0 - delta,
        "rhs": np.sqrt(max(1.0 - delta_a_plus, 0.0))
        * np.sqrt(max(1.0 - delta_b, 0.0)),
    }
    vienna["slack"] = vienna["rhs"] - vienna["lhs"]

    # Measurement substitution: compare correlations of {A} and of the
    # spectrally-rounded {C} inside the same strategy.
    rounded = []
    gamma = 0.0
    for x, povm in enumerate(s.alice):
        pvm, err = orthogonalize_povm(povm, sigma)
        rounded.append(pvm)
        gamma += game.mu_x[x] * err
    swapped = TracialStrategy(s.dim, sigma, tuple(rounded), s.bob_left)
    lhs = correlation_distance(game, c_s, correlation(swapped))
    meas = {
        "lhs": lhs,
        "rhs": 6.0 * (delta_a + np.sqrt(max(gamma, 0.0))),
    }
    meas["slack"] = meas["rhs"] - meas["lhs"]
    return {"theviennalemma": vienna, "measurementtocoorlation": meas}
