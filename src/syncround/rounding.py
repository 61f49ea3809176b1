"""The rounding pipeline.

Turns an almost-synchronous strategy into a finite convex combination of
synchronous sub-strategies: symmetrize via the polar decomposition, force
projectivity by spectral rounding, then slice the state's spectrum into
corner algebras where the compressed measurements become exactly
synchronous.  Every stage reports the residual its backing inequality
bounds.  Both lambda-integrals, the slicing of sigma+^2 and the
joint-distribution integral, are cut into the pieces of one rule,
_spectral_pieces, on which the integrands are constant.

round_correlation is the one pipeline.  Each stage takes its input
correlation from the stage before, and the decomposition keeps the
embedded strategy, its correlation, the polar decomposition and the
symmetric stage, so the CLI, the lemma report and the soundness demo
continue from them instead of embedding, correlating or polar-decomposing
a second time.  Every stage reads and writes the strategy's
(nq, na, n, n) element stacks.  Every stage after symmetrize works in the
eigenbasis V of the symmetric state sigma+, from that one SVD: sigma+ is
the diagonal of its singular values and Alice's elements are rotated
once, V* A V.  Correlations, weights and residuals are normalized traces,
so the basis does not change them.

One kernel, _round_povm, does every POVM-to-PVM rounding: projectivize's,
the lemma report's, orthogonalize_povm's and each slice corner's.  It is
sequential spectral rounding, which meets the 9-epsilon orthogonalization
bound at a weight sigma sigma* with tau(sigma sigma*) = 1 (BoundViolated
when any question misses it; a weight off that normalization is refused).
It works in the weight's eigenbasis, where the weight is a vector s^2, or
the identity at a corner, and rounds a whole family of nq questions in one
call, one stacked eigendecomposition per threshold step.

Small-n cost.  At d = 3 a call costs more than its arithmetic.  Each
public entry checks the game once, then takes synchronicities unchecked,
each stage's once.  A k3 sweep task makes 5 game checks, 13
eigendecompositions, 5 kernel calls, 11 correlation products and 10
synchronicity evaluations, counts a test pins.

Cost of the slice stage at dimension n, with nq questions of na answers.
Every slice spans a leading block of coordinates and sigma's spectrum is
its diagonal.  projectivize stores the orthonormal columns F of its PVMs,
P = F F*, as the strategy's factors, one (nq, na, n, k) stack zero-padded
to the widest rank k, and the slice stage uses them as rank factors: it
forms F F* once, O(n^2 k) per element, checks it against Alice's elements
and reads her PVMs only from it, Hermitian by construction.  Slice j of
rank r rounds its corner, whose factor is the leading r rows of F, with
one kernel call: na - 1 stacked eigendecompositions of nq min(r, k)-sized
matrices and O(r k (r + k)) products per question.  Its residual ||P[:,
:r] - [Q; 0]||_F^2 is the off-corner mass ||P[r:, :r]||_F^2, read from
prefix sums of |P|^2, plus the corner's rounding error to its PVM Q.  The
corner PVMs fill one (nq, na, r, r) array, the slice's correlation is one
product of it with its transpose, and it is dropped after an optional
on_slice hook has seen it, so the decomposition is O(n^2) although the
corners add up to about n^3 nq na / 3 entries when every slice has its own
rank.  The joint-distribution check takes its pieces from both operands'
spectra at once and needs one eigendecomposition per operand: every
threshold projector is a leading eigenvector block, so its distance on
each piece is read from a prefix sum of eigenvector overlaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    BoundViolated,
    MathContractError,
    NotPositive,
    NotNormalized,
    ValidationError,
)
from .games import Game, check_synchronous
from .linalg import CLUSTER_TOL, CONTRACT_SLACK, CORNER_TOL, NORM_TOL, PSD_FLOOR
from .strategies import (
    Correlation,
    Povm,
    TensorStrategy,
    TracialStrategy,
    _diagonal_correlation,
    _synchronicity,
    correlation,
    correlation_distance,
    embed_tracial,
    stacked_correlation,
)

# on_slice(measure, rank, stack): a slice's measure, corner dimension and
# (nq, na, rank, rank) corner PVMs.
SliceHook = Callable[[float, int, np.ndarray], None]


def _normalized(weight: np.ndarray) -> np.ndarray:
    """The diagonal of sigma sigma*, refused unless tau(sigma sigma*) = 1."""
    norm = float(weight.sum()) / len(weight)
    if abs(norm - 1.0) > NORM_TOL:
        raise NotNormalized(f"tau(sigma sigma*) = {norm!r}")
    return weight


def _round_povm(elements: np.ndarray, weight, factors=None):
    """Sequential spectral rounding of a family of POVMs to PVMs at one
    diagonal weight, every question in the same call.

    elements is an (nq, na, n, n) stack of Hermitian elements in the
    eigenbasis of the weight w = sigma sigma*; weight is w's diagonal, or
    None for the identity.  In each question the element of largest mass
    tau(A w) is thresholded at 1/2, the next on the complement of what was
    kept, and so on; the last takes the rest.  Each threshold step is one
    stacked eigendecomposition over the questions, padded to the largest
    size among them.  Without factors it decomposes the element compressed
    to a basis B of the complement, B* A B; a question whose complement is
    smaller gets its padding directions at eigenvalue -1, which is never
    kept and never joins the complement.  factors is an (nq, na, N, k)
    stack of zero-padded rank factors whose leading n rows G give A = G G*:
    with Q the columns kept so far, the compression is M M*, M = G - Q Q* G,
    whose eigenvectors come from the smaller of M M* and M* M (as M u /
    sqrt(l)); zero factor columns give eigenvalue 0 and are never kept.

    tau(A^2 w) and the error tau((A - P)^2 w) are sums of |A_ij|^2 w_i and
    |(A - P)_ij|^2 w_i.  An error above 9 epsilon + CONTRACT_SLACK, epsilon =
    1 - sum_a tau(A_a^2 w), in any question raises BoundViolated.  Returns
    the (nq, na, n, n) PVMs, their orthonormal columns F with P = F F* as an
    (nq, na, n, k) stack zero-padded to the widest (None with factors) and
    the errors times n, shape (nq,).
    """
    nq, na, n = elements.shape[:3]
    w = np.ones(n) if weight is None else _normalized(weight)
    masses = np.diagonal(elements, axis1=2, axis2=3).real @ w
    order = np.argsort(-masses, axis=1, kind="stable")
    rows = np.arange(nq)
    pvm = np.empty(elements.shape, dtype=complex)
    if factors is None:
        columns = np.zeros((nq, na, n, n), dtype=complex)
        basis = None  # (nq, n, m) complement bases, zero-padded; None is C^n
        width = np.full(nq, n)  # each question's complement dimension
        widest = 0  # the widest outcome's rank so far
        for x in order[:, :-1].T:
            corner = elements[rows, x]
            if basis is not None:
                corner = _adjoint(basis) @ corner @ basis
            corner = linalg.hermitize_stack(corner)
            m = corner.shape[-1]
            if width.min() < m:  # padding directions go to eigenvalue -1
                padding = np.arange(m) >= width[:, None]
                corner.reshape(nq, m * m)[:, :: m + 1] -= padding
            dec = linalg.eig_hermitian(corner)
            vectors = dec.eigenvectors if basis is None else basis @ dec.eigenvectors
            kept = (dec.eigenvalues >= 0.5 - CLUSTER_TOL).sum(axis=1)
            rest = width - kept
            basis = np.zeros((nq, n, rest.max()), dtype=complex)
            for q, (k, end) in enumerate(zip(kept.tolist(), width.tolist())):
                basis[q, :, : end - k] = vectors[q, :, k:end]
            width = rest
            cols = vectors[:, :, : kept.max()]
            widest = max(widest, cols.shape[2])
            if kept.min() < cols.shape[2]:
                cols = cols * (np.arange(cols.shape[2]) < kept[:, None])[:, None]
            columns[rows, x, :, : cols.shape[2]] = cols
            pvm[rows, x] = cols @ _adjoint(cols)
        if basis is None:
            basis = np.broadcast_to(np.eye(n, dtype=complex), (nq, n, n))
        columns[rows, order[:, -1], :, : basis.shape[2]] = basis
        pvm[rows, order[:, -1]] = basis @ _adjoint(basis)
        columns = columns[..., : max(widest, basis.shape[2])].copy()
    else:
        kept = np.empty((nq, n, 0), dtype=complex)
        for x in order[:, :-1].T:
            g = factors[rows, x, :n]
            if kept.shape[2]:  # nothing to project out before the first keep
                g = g - kept @ (_adjoint(kept) @ g)
            if n < g.shape[2]:
                dec = linalg.eig_hermitian(g @ _adjoint(g))
                sel = dec.eigenvalues >= 0.5 - CLUSTER_TOL
                cols = dec.eigenvectors * sel[:, None]
            else:
                dec = linalg.eig_hermitian(_adjoint(g) @ g)
                sel = dec.eigenvalues >= 0.5 - CLUSTER_TOL
                scale = sel / np.sqrt(np.where(sel, dec.eigenvalues, 1.0))
                cols = g @ (dec.eigenvectors * scale[:, None])
            cols = cols[:, :, : sel.sum(axis=1).max()]
            kept = np.concatenate((kept, cols), axis=2)
            pvm[rows, x] = cols @ _adjoint(cols)
        pvm[rows, order[:, -1]] = np.eye(n) - kept @ _adjoint(kept)
        columns = None
    # sum_aij |M_ij|^2 w_i for each question: tau(A^2 w) and the error, times n
    bound = 9.0 * (1.0 - _weighted_norms(elements, w) / n) + CONTRACT_SLACK
    mass = _weighted_norms(elements - pvm, w)
    bad = mass / n > bound
    if bad.any():
        q = int(bad.argmax())
        raise BoundViolated(
            f"question {q}: orthogonalization error {mass[q] / n:.3e} exceeds "
            f"9*eps bound {bound[q]:.3e}"
        )
    return pvm, columns, mass


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _weighted_norms(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_aij |m_qaij|^2 w_i for each question q of an (nq, na, n, n) stack
    whose rows are contiguous, from its real and imaginary parts side by
    side and without a temporary of m's size."""
    parts = m.view(float)
    return np.einsum("qaij,qaij->qi", parts, parts) @ w


def orthogonalize_povm(povm: Povm, sigma) -> tuple[Povm, float]:
    """Round a POVM to a PVM in the sigma-weighted Hilbert-Schmidt norm.

    The weight w = sigma sigma* must have tau(w) = 1 (NotNormalized
    otherwise).  The elements are rotated into w's eigenbasis, the left
    singular vectors of sigma, where _round_povm rounds them at w's diagonal;
    the PVM is built back from its rotated columns F, P = F F*.  Returns it
    and its weighted error tau(sum_a (A_a - P_a)^2 w), at most 9 epsilon
    (BoundViolated otherwise).
    """
    polar = linalg.polar_decompose(sigma)
    u = polar.left_basis
    rotated = u.conj().T @ povm.elements @ u
    _, (columns,), (mass,) = _round_povm(rotated[None], polar.singular_values**2)
    columns = u @ columns
    return Povm(columns @ _adjoint(columns)), mass / povm.dim


def _checked_eig(name: str, m: np.ndarray) -> linalg.SpectralDecomposition:
    """Eigensystem of a Hermitian m, refusing eigenvalues below PSD_FLOOR."""
    dec = linalg.eig_hermitian(m)
    if dec.eigenvalues.size and dec.eigenvalues[-1] < PSD_FLOOR:
        raise NotPositive(f"{name} has eigenvalue {dec.eigenvalues[-1]:.3e}")
    return dec


def verify_connes(rho, sigma) -> tuple[float, float]:
    """Both sides of the joint-distribution inequality for positive rho, sigma.

    lhs = integral over lambda of ||chi_{>=sqrt(lambda)}(rho) -
    chi_{>=sqrt(lambda)}(sigma)||_2^2, summed exactly over the pieces
    _spectral_pieces cuts from both clipped spectra, where the integrand is
    constant; rhs = ||rho - sigma||_2 * ||rho + sigma||_2.

    On a piece both spectral projectors are leading eigenvector blocks, of
    the piece's ranks k and l, so ||chi(rho) - chi(sigma)||_F^2 = k + l - 2
    C[k, l] with C the 2-D prefix sum of the overlaps |V_rho* V_sigma|^2: one
    eigendecomposition per operand serves every piece.
    """
    r = linalg.hermitize(rho)
    s = linalg.hermitize(sigma)
    dec_r = _checked_eig("rho", r)
    dec_s = _checked_eig("sigma", s)
    n = r.shape[0]
    measures, (k_r, k_s) = _spectral_pieces(
        np.clip(dec_r.eigenvalues, 0.0, None), np.clip(dec_s.eigenvalues, 0.0, None)
    )
    overlap = np.abs(dec_r.eigenvectors.conj().T @ dec_s.eigenvectors) ** 2
    prefix = np.zeros((n + 1, n + 1))
    prefix[1:, 1:] = overlap.cumsum(axis=0).cumsum(axis=1)
    dist2 = k_r + k_s - 2.0 * prefix[k_r, k_s]
    lhs = float(np.dot(measures, dist2)) / n
    rhs = linalg.tau_norm(r - s) * linalg.tau_norm(r + s)
    return lhs, float(rhs)


def _spectral_pieces(*spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(measures, ranks): the pieces of the lambda-slicing the spectra share.

    Each spectrum is nonnegative and nonincreasing.  Their values are merged
    in one sorted run and clustered: a cluster ends wherever consecutive
    values differ by more than CLUSTER_TOL, so chained near-ties share one.
    With cluster means r_1 > ... > r_k (r_{k+1} = 0), piece j has Lebesgue
    measure r_j^2 - r_{j+1}^2, and ranks[i, j] counts spectrum i's values in
    clusters 1..j: on the piece, chi_{>=sqrt(lambda)} of operand i spans its
    leading ranks[i, j] eigenvectors.  Pieces of measure 0 are dropped.
    """
    values = np.concatenate(spectra)
    owner = np.repeat(np.arange(len(spectra)), [len(v) for v in spectra])
    order = np.argsort(-values)
    values, owner = values[order], owner[order]
    starts = np.flatnonzero(np.append(True, values[:-1] - values[1:] > CLUSTER_TOL))
    ends = np.append(starts[1:], values.size)
    means = np.add.reduceat(values, starts) / (ends - starts)
    measures = means**2 - np.append(means[1:], 0.0) ** 2
    counts = np.cumsum(owner[:, None] == np.arange(len(spectra)), axis=0)
    keep = measures > 0.0
    return measures[keep], counts[ends - 1].T[:, keep]


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
    # eigenbasis V, whose diagonal sigma+ the slices cut; polar is the
    # polar decomposition of the embedded state that symmetrize took.
    embedded: TracialStrategy | None
    c_in: Correlation | None
    symmetric: TracialStrategy | None
    polar: linalg.PolarParts | None


def symmetrize(s: TracialStrategy, game: Game, c_in: Correlation, polar=None):
    """Replace the strategy by the symmetric one (sigma+, {A}).

    c_in is the correlation of s and polar the polar decomposition of its
    state, taken here when not passed.  The result is written in sigma+'s
    eigenbasis V: its state is diag(singular values) and Alice's elements
    are V* A V.  Returns it, its correlation and a report with the
    input/output synchronicities and the mu-weighted correlation distance;
    the factor-2 synchronicity bound is enforced.
    """
    check_synchronous(game, "symmetrize")
    delta_in = _synchronicity(game, c_in)
    if polar is None:
        polar = linalg.polar_decompose(s.sigma)
    v = polar.eigenbasis
    rotated = v.conj().T @ s.alice @ v
    out = TracialStrategy(s.dim, np.diag(polar.singular_values), rotated, rotated)
    c_out = _diagonal_correlation(polar.singular_values, rotated, rotated)
    delta_out = _synchronicity(game, c_out)
    if delta_out > 2.0 * delta_in + CONTRACT_SLACK:
        raise MathContractError(
            f"symmetrized synchronicity {delta_out:.3e} exceeds "
            f"2*{delta_in:.3e} + {CONTRACT_SLACK:.0e}"
        )
    report = {
        "delta_in": delta_in,
        "delta_out": delta_out,
        "distance": correlation_distance(game, c_in, c_out),
    }
    return out, c_out, report


def _diagonal(sigma: np.ndarray, stage: str) -> np.ndarray:
    """The diagonal of a state in its eigenbasis, as symmetrize leaves it."""
    spectrum = np.diagonal(sigma)
    if not np.array_equal(sigma, np.diag(spectrum)) or np.any(spectrum.imag):
        raise ValidationError(f"{stage} needs a real diagonal sigma")
    return spectrum.real


def projectivize(s: TracialStrategy, game: Game, c_in: Correlation):
    """Round each question's POVM to a PVM in the sigma-weighted norm.

    Requires a symmetric strategy in its state's eigenbasis, as symmetrize
    leaves it, and its correlation c_in.  sigma is real and diagonal, so the
    weight sigma sigma* is its squared diagonal, which goes straight to
    _round_povm.  Returns the symmetric projective strategy, carrying the
    PVMs' orthonormal columns as its factors, its correlation and a report
    of its synchronicity delta_out, the mu-weighted correlation distance to
    c_in and the weighted rounding error gamma.
    """
    check_synchronous(game, "projectivize")
    weight = _diagonal(s.sigma, "projectivize") ** 2
    stack, columns, masses = _round_povm(s.alice, weight)
    out = TracialStrategy(s.dim, s.sigma, stack, stack, columns)
    c_out = _diagonal_correlation(np.diagonal(s.sigma), stack, stack)
    report = {
        "delta_out": _synchronicity(game, c_out),
        "distance": correlation_distance(game, c_in, c_out),
        "gamma": float(game.mu_x @ masses) / s.dim,
    }
    return out, c_out, report


def _checked_factors(s: TracialStrategy) -> np.ndarray:
    """The PVMs F F* of the factors F = s.factors, refused unless F is an (nq,
    na, n, k) stack with ||F F* - A||_F <= CORNER_TOL * (1 + ||A||_F) for
    every element A of Alice's."""
    f = s.factors
    if f is None or f.ndim != 4 or f.shape[:3] != s.alice.shape[:3]:
        raise ValidationError(f"slicing needs {s.alice.shape[:3]} + (k,) PVM factors")
    pvms = f @ _adjoint(f)
    gap = np.linalg.norm(pvms - s.alice, axis=(-2, -1))
    bad = ~(gap <= CORNER_TOL * (1.0 + np.linalg.norm(s.alice, axis=(-2, -1))))
    if bad.any():
        x, a = np.unravel_index(bad.argmax(), bad.shape)
        raise ValidationError(f"factors {a} of PVM {x} miss by {gap[x, a]:.3e}")
    return pvms


def slice_strategies(
    s: TracialStrategy, game: Game, on_slice: SliceHook | None = None
) -> RoundingDecomposition:
    """Decompose a symmetric projective strategy into synchronous corners.

    s is in its state's eigenbasis, as symmetrize leaves it: sigma is real,
    diagonal, nonnegative and nonincreasing.  s.factors holds the columns F
    projectivize built Alice's PVMs from, which serve as rank factors; every
    corner, outcome mass and off-corner sum is read from F F*, once checked
    against s.alice.  Each spectral slice, a leading block of coordinates,
    hosts a corner sub-strategy whose tracial state is the corner identity;
    compressed measurements are rounded back to PVMs there, making every
    per-slice correlation synchronous.

    The corner PVMs are not kept: the decomposition holds each slice's
    weight, measure, dimension and correlation, O(n^2) in all.  A caller
    that needs the corners passes on_slice, called once per slice, smallest
    first, as on_slice(measure, rank, stack) with the slice's (nq, na, rank,
    rank) corner PVMs; the stack is not reused, so the hook may keep it.
    """
    check_synchronous(game, "slicing")
    spectrum = _diagonal(s.sigma, "slicing")
    if np.any(spectrum < 0) or np.any(np.diff(spectrum) > 0):
        raise ValidationError("slicing needs a nonnegative nonincreasing sigma")
    _normalized(spectrum**2)
    n, nq = s.dim, s.n_questions
    measures, (ranks,) = _spectral_pieces(spectrum)
    # Slice j's corner is the leading rank x rank block of every PVM F F*,
    # so no slice touches the n x n operators again.
    pvms = _checked_factors(s)
    # ||P[r:, :r]||_F^2 summed over answers, for every slice rank r: sums of
    # |P|^2 over the rows from r down, accumulated over the columns below r.
    # Row n is empty, so the full-rank slice reads 0.
    tails = np.zeros((nq, n + 1, n))
    sq = (pvms.real**2 + pvms.imag**2).sum(axis=1)
    tails[:, :n] = sq[:, ::-1].cumsum(axis=1)[:, ::-1]
    del sq
    off_corner = tails.cumsum(axis=2)[:, ranks, ranks - 1]
    mu_x = game.mu_x
    slices = []
    correlations = []
    residual = 0.0
    for j, (measure, rank) in enumerate(zip(measures.tolist(), ranks.tolist())):
        # ||(P - Q) Pi_r||_F^2 = ||P[r:, :r]||_F^2 + ||P[:r, :r] - Q||_F^2 for
        # the corner PVM Q; the corner term is the mass _round_povm returns
        stack, _, masses = _round_povm(pvms[:, :, :rank, :rank], None, s.factors)
        residual += measure * float(mu_x @ (masses + off_corner[:, j])) / n
        c_sub = stacked_correlation(stack.swapaxes(-1, -2), stack)
        sync_sub = _synchronicity(game, c_sub)
        if sync_sub > CONTRACT_SLACK:
            raise MathContractError(
                f"slice correlation synchronicity {sync_sub:.3e} > "
                f"{CONTRACT_SLACK:.0e}"
            )
        if on_slice is not None:
            on_slice(measure, rank, stack)
        slices.append(Slice(measure * rank / n, measure, rank))
        correlations.append(c_sub)
    weights = np.array([sl.weight for sl in slices])
    if abs(weights.sum() - 1.0) > NORM_TOL:
        raise MathContractError(f"slice weights sum to {weights.sum()!r}")
    mixed = Correlation(sum(w * c.table for w, c in zip(weights, correlations)))
    diagnostics = {
        "n_slices": float(len(slices)),
        "weight_sum": float(weights.sum()),
        "slice_residual": residual,
    }
    return RoundingDecomposition(
        tuple(slices), tuple(correlations), mixed, diagnostics, None, None, None, None
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
    check_synchronous(game, "rounding")
    embedded = embed_tracial(s)
    c_in = correlation(embedded)
    polar = linalg.polar_decompose(embedded.sigma)
    sym, c_sym, sym_report = symmetrize(embedded, game, c_in, polar)
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
        dec.slices, dec.correlations, dec.mixed, diagnostics, embedded, c_in, sym,
        polar,
    )


def lemma_report(game: Game, s: TracialStrategy, polar=None) -> dict:
    """Evaluate both sides of the implemented lemma inequalities.

    polar is the polar decomposition of s.sigma, taken here when not passed
    (round_correlation keeps the one symmetrize took).  Its SVD sigma = L
    diag(s) V* gives the frame: Alice's elements are rotated once into L,
    the eigenbasis of sigma sigma*, and once into V, the eigenbasis of
    |sigma|, and Bob's into V.  Every correlation below is then one at the
    diagonal state diag(s), tau(sigma* A sigma B) = tau(diag(s) L*AL diag(s)
    V*BV), and the rounding weight sigma sigma* is the vector s^2.
    Returns {lemma: {lhs, rhs, slack}} with slack = rhs - lhs; every slack
    should be >= -CONTRACT_SLACK when the lemmas hold.
    """
    check_synchronous(game, "the lemma report")
    if polar is None:
        polar = linalg.polar_decompose(s.sigma)
    left, right = polar.left_basis, polar.eigenbasis
    singular = polar.singular_values
    alice_l = left.conj().T @ s.alice @ left
    alice_r = right.conj().T @ s.alice @ right
    bob_r = right.conj().T @ s.bob_left @ right

    at_singular_values = partial(_diagonal_correlation, singular)
    c_s = at_singular_values(alice_l, bob_r)
    delta = _synchronicity(game, c_s)

    # Synchronicity factorization.  Cauchy-Schwarz through sigma = u|sigma|
    # = |sigma*|u weighs Alice's operators at |sigma*| = L diag(s) L* and
    # Bob's at |sigma| = V diag(s) V*; at |sigma| on both sides the bound
    # fails for unbalanced embeddings, where sigma is far from normal.
    delta_a = _synchronicity(game, at_singular_values(alice_l, alice_r))
    delta_a_plus = _synchronicity(game, at_singular_values(alice_l, alice_l))
    delta_b = _synchronicity(game, at_singular_values(bob_r, bob_r))
    vienna = {
        "lhs": 1.0 - delta,
        "rhs": np.sqrt(max(1.0 - delta_a_plus, 0.0))
        * np.sqrt(max(1.0 - delta_b, 0.0)),
    }
    vienna["slack"] = vienna["rhs"] - vienna["lhs"]

    # Measurement substitution: compare correlations of {A} and of the
    # spectrally-rounded {C} inside the same strategy.
    stack, _, masses = _round_povm(alice_l, singular**2)
    gamma = float(game.mu_x @ masses) / s.dim
    lhs = correlation_distance(game, c_s, at_singular_values(stack, bob_r))
    meas = {
        "lhs": lhs,
        "rhs": 6.0 * (delta_a + np.sqrt(max(gamma, 0.0))),
    }
    meas["slack"] = meas["rhs"] - meas["lhs"]
    return {"theviennalemma": vienna, "measurementtocoorlation": meas}
