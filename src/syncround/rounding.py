"""The rounding pipeline.

Turns an almost-synchronous strategy into a finite convex combination of
synchronous sub-strategies: symmetrize via the polar decomposition, force
projectivity by spectral rounding, then slice the state's spectrum into
corner algebras where the compressed measurements become exactly
synchronous.  Every stage reports the residual its backing inequality
bounds.  Both lambda-integrals, the slicing of sigma+^2 and the
joint-distribution integral, are cut into the pieces of one rule,
_spectral_pieces, on which the integrands are constant.

round_correlation is the one pipeline, and round_correlations slices a
block of prefixes together.  The prefix, rounding_stages, polar-decomposes
the embedded state once and returns one RoundingStages record, each stage
residual under the one name the diagnostics carry.  The record is the only
hand-off after the prefix: the slices, the lemma report and the soundness
demo read it instead of embedding, correlating or polar-decomposing again,
so the lemmas bound the stages the pipeline produced.  Every stage reads
and writes (nq, na, n, n) element stacks.  Every stage after symmetrize
works in Alice's frame L, the left singular vectors of the one SVD sigma =
L S V*, and passes on the spectrum S, which is sigma+ = |sigma*| = L S L*
there, and stacks such as Alice's elements, rotated once to L* A L.
Correlations, weights and residuals are normalized traces, so the basis
does not change them.

One kernel, _round_povm, does every POVM-to-PVM rounding: projectivize's,
orthogonalize_povm's and each slice corner's.  It is sequential spectral
rounding, which meets the 9-epsilon orthogonalization bound at a weight
sigma sigma* with tau(sigma sigma*) = 1 (BoundViolated when any question
misses it; a weight off that normalization is refused).
It works in the weight's eigenbasis, where the weight is a vector s^2, or
the identity at a corner, and rounds a whole family of nq questions in one
call, one stacked eigendecomposition per threshold step.

Small-n cost.  At d = 3 a call costs more than its arithmetic.  Each
public entry checks the game once, then takes synchronicities unchecked,
each stage's once.  One slicing core, _slice_corners, slices a block of
strategies with one kernel call, one batched correlation product and one
vectorized synchronicity check per corner dimension r among them, shared
by every (strategy, question) row with a rank-r slice; slice_strategies
is its one-strategy case, one call per slice.  A 32-task k3 sweep, one
block, makes 129 game checks, 166 eigendecompositions, 35 kernel calls,
195 correlation products and 163 synchronicity evaluations, counts a test
pins.

Cost of the slice stage at dimension n, with nq questions of na answers.
Every slice spans a leading block of coordinates of sigma's eigenbasis.
projectivize returns the orthonormal columns F of its PVMs, P = F F*, as
one (nq, na, n, k) stack zero-padded to the widest rank k, and the slice
stage takes them alone as rank factors: it forms F F* once, O(n^2 k) per
element, and reads Alice's PVMs only from it, Hermitian by construction.
Slice j of rank r rounds its corner, whose factor is the leading r rows of
F, with one kernel call: na - 1 stacked eigendecompositions of nq min(r,
k)-sized matrices and O(r k (r + k)) products per question.  Its residual
||P[:, :r] - [Q; 0]||_F^2 is the off-corner mass ||P[r:, :r]||_F^2, read from
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

from dataclasses import dataclass, replace
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
from .linalg import CLUSTER_TOL, CONTRACT_SLACK, NORM_TOL, PSD_FLOOR
from .strategies import (
    Correlation,
    Povm,
    TensorStrategy,
    TracialStrategy,
    _check_alphabets,
    _diagonal_correlation,
    _stacked_tables,
    _synchronicities,
    _synchronicity,
    correlation_distance,
    embed_tracial,
)

# Unused here: perfbench's tracer test lists this module among the places
# that bind correlation.
from .strategies import correlation  # noqa: F401

# on_slice(measure, rank, stack): a slice's measure, corner dimension and
# (nq, na, rank, rank) corner PVMs.
SliceHook = Callable[[float, int, np.ndarray], None]


def _normalized(weight: np.ndarray) -> np.ndarray:
    """The diagonal of sigma sigma*, refused unless tau(sigma sigma*) = 1."""
    norm = float(weight.sum()) / max(len(weight), 1)
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
    if np.shape(sigma) != (povm.dim,) * 2:
        raise ValidationError(f"sigma {np.shape(sigma)} does not act on dim {povm.dim}")
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
    if r.shape != s.shape or not r.size:
        raise ValidationError(f"operands {r.shape} and {s.shape} are not one nonempty shape")
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
class RoundingStages:
    """The pipeline before slicing, from one polar decomposition sigma = L S
    V* of the embedded state, each stage once, as stacks: the one hand-off
    from the prefix to the slices, the lemma report and the soundness demo.

    c_in is the embedded strategy's correlation and polar.singular_values
    the spectrum S of sigma+ = |sigma*| the slices cut.  alice_l = L* A L is
    the symmetric stage's Alice, bob_v = V* B V the Bob c_in was taken with,
    pvms the PVMs projectivize rounded alice_l to and factors their (nq, na,
    n, k) columns F, P = F F*.  report merges symmetrize's and projectivize's
    reports, delta_in, sym_delta, sym_distance, proj_delta, proj_distance
    and proj_gamma, under the names round_correlation's diagnostics carry."""

    c_in: Correlation
    polar: linalg.PolarParts
    alice_l: np.ndarray
    bob_v: np.ndarray
    pvms: np.ndarray
    factors: np.ndarray
    report: dict


@dataclass(frozen=True)
class RoundingDecomposition:
    slices: tuple[Slice, ...]
    correlations: tuple[Correlation, ...]
    mixed: Correlation
    diagnostics: dict
    # Set by round_correlation and round_correlations, None on a bare
    # slice_strategies result.
    stages: RoundingStages | None = None


def symmetrize(s: TracialStrategy, game: Game, polar: linalg.PolarParts):
    """Replace the strategy by the symmetric one (sigma+, {A}).

    polar is the polar decomposition of s.sigma, whose SVD sigma = L S V*
    gives the frames.  Alice's marginal tau(sigma* A sigma) = tau(A sigma
    sigma*) sees sigma+ = |sigma*| = L S L*, so the symmetric strategy is
    written in Alice's frame L, where sigma+ is the spectrum S =
    polar.singular_values and her elements are L* A L.  The input
    correlation c_in is taken at the same spectrum, tau(sigma* A sigma B) =
    tau(S L*AL S V*BV).  Returns Alice in L, Bob in V (V* B V), c_in, the
    symmetric correlation and a report of their synchronicities delta_in
    and sym_delta and their mu-weighted correlation distance sym_distance;
    the factor-2 synchronicity bound sym_delta <= 2 delta_in is enforced.
    """
    check_synchronous(game, "symmetrize")
    left, right = polar.left_basis, polar.eigenbasis
    singular = polar.singular_values
    alice = left.conj().T @ s.alice @ left
    bob = right.conj().T @ s.bob_left @ right
    c_in = _diagonal_correlation(singular, alice, bob)
    delta_in = _synchronicity(game, c_in)
    c_out = _diagonal_correlation(singular, alice, alice)
    sym_delta = _synchronicity(game, c_out)
    if sym_delta > 2.0 * delta_in + CONTRACT_SLACK:
        raise MathContractError(
            f"symmetrized synchronicity {sym_delta:.3e} exceeds "
            f"2*{delta_in:.3e} + {CONTRACT_SLACK:.0e}"
        )
    report = {
        "delta_in": delta_in,
        "sym_delta": sym_delta,
        "sym_distance": correlation_distance(game, c_in, c_out),
    }
    return alice, bob, c_in, c_out, report


def projectivize(spectrum: np.ndarray, alice: np.ndarray, game: Game, c_in: Correlation):
    """Round each question's POVM to a PVM in the sigma-weighted norm.

    Takes the symmetric strategy as symmetrize leaves it: the spectrum s of
    its state and Alice's (nq, na, n, n) elements in the state's eigenbasis,
    with its correlation c_in.  The weight sigma sigma* is s^2 there, which
    goes straight to _round_povm.  Returns the PVMs, their orthonormal
    columns F (P = F F*, an (nq, na, n, k) stack) and a report: proj_delta,
    the symmetric projective correlation's synchronicity, proj_distance, its
    mu-weighted distance to c_in, and the weighted rounding error proj_gamma.
    """
    check_synchronous(game, "projectivize")
    pvms, factors, masses = _round_povm(alice, spectrum**2)
    c_out = _diagonal_correlation(spectrum, pvms, pvms)
    report = {
        "proj_delta": _synchronicity(game, c_out),
        "proj_distance": correlation_distance(game, c_in, c_out),
        "proj_gamma": float(game.mu_x @ masses) / len(spectrum),
    }
    return pvms, factors, report


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """Arrays of one rank stacked on a new first axis, each zero-padded to
    the largest extent of every axis; a lone array is viewed, not copied."""
    if len(arrays) == 1:
        return arrays[0][None]
    out = np.zeros((len(arrays), *np.max([a.shape for a in arrays], axis=0)), complex)
    for slot, a in zip(out, arrays):
        slot[tuple(slice(m) for m in a.shape)] = a
    return out


def _slice_corners(
    projectives: list[tuple[np.ndarray, np.ndarray]],
    game: Game,
    on_slice: SliceHook | None = None,
) -> list[RoundingDecomposition]:
    """slice_strategies for each (spectrum, factors) pair of a block, with
    one _round_povm call, one correlation product and one synchronicity
    check per corner dimension r among them: every (strategy, question) row
    whose strategy has a rank-r slice shares them.  A strategy has each rank
    at most once, so on one strategy this is one call per slice.  F F*, the
    off-corner sums and the factor stack are built once for the block,
    zero-padded to its widest n and k.  on_slice sees the slices rank by
    rank, smallest first."""
    check_synchronous(game, "slicing")
    if not projectives:
        return []
    mu_x = game.mu_x
    pieces = []
    for spectrum, factors in projectives:
        if factors.ndim != 4 or factors.shape[2:3] != spectrum.shape:
            shapes = f"{factors.shape} at spectrum {spectrum.shape}"
            raise ValidationError(f"slicing needs (nq, na, n, k) factors, not {shapes}")
        _check_alphabets(game, *factors.shape[:2])
        if not np.isfinite(factors).all():
            raise ValidationError("slicing needs finite factors")
        ordered = np.isrealobj(spectrum) and np.all(np.diff(spectrum) <= 0)
        if not (ordered and np.all(spectrum >= 0)):
            raise ValidationError("slicing needs a real nonnegative nonincreasing spectrum")
        _normalized(spectrum**2)
        measures, (ranks,) = _spectral_pieces(spectrum)
        pieces.append((measures.tolist(), ranks.tolist()))
    # Slice j's corner is the leading rank x rank block of every PVM F F*,
    # so no slice touches the n x n operators again.
    factors = _stacked([f for _, f in projectives])
    pvms = factors @ _adjoint(factors)
    count, nq, na, n = pvms.shape[:4]
    # ||P[r:, :r]||_F^2 summed over answers, for every slice rank r: sums of
    # |P|^2 over the rows from r down, accumulated over the columns below r.
    # Row n is empty, so the full-rank slice reads 0.
    tails = np.zeros((count, nq, n + 1, n))
    sq = (pvms.real**2 + pvms.imag**2).sum(axis=2)
    tails[:, :, :n] = sq[:, :, ::-1].cumsum(axis=2)[:, :, ::-1]
    del sq
    tails = tails.cumsum(axis=3)
    members: dict[int, list[tuple[int, int]]] = {}  # rank: (strategy, slice)
    for i, (_, ranks) in enumerate(pieces):
        for j, rank in enumerate(ranks):
            members.setdefault(rank, []).append((i, j))
    rounded = {}  # (strategy, slice): (corner masses, slice table)
    for rank in sorted(members):
        block = members[rank]
        # ||(P - Q) Pi_r||_F^2 = ||P[r:, :r]||_F^2 + ||P[:r, :r] - Q||_F^2 for
        # the corner PVM Q; the corner term is the mass _round_povm returns
        if len(block) == count:  # every strategy, in order: views, no copies
            corners, rows = pvms[..., :rank, :rank], factors
        else:
            index = [i for i, _ in block]
            corners, rows = pvms[index, ..., :rank, :rank], factors[index]
        stack, _, masses = _round_povm(
            corners.reshape(-1, na, rank, rank), None, rows.reshape(-1, *rows.shape[2:])
        )
        stack = stack.reshape(len(block), nq, na, rank, rank)
        tables = _stacked_tables(stack.swapaxes(-1, -2), stack)
        sync = float(_synchronicities(game, tables).max())
        if sync > CONTRACT_SLACK:
            raise MathContractError(
                f"slice correlation synchronicity {sync:.3e} > {CONTRACT_SLACK:.0e}"
            )
        for k, (i, j) in enumerate(block):
            if on_slice is not None:
                on_slice(pieces[i][0][j], rank, stack[k])
            rounded[i, j] = masses[k * nq : (k + 1) * nq], tables[k]
    out = []
    for i, (measures, ranks) in enumerate(pieces):
        dim = len(projectives[i][0])
        off_corner = tails[i][:, ranks, np.subtract(ranks, 1)]
        slices = []
        correlations = []
        residual = 0.0
        for j, (measure, rank) in enumerate(zip(measures, ranks)):
            masses, table = rounded[i, j]
            residual += measure * float(mu_x @ (masses + off_corner[:, j])) / dim
            slices.append(Slice(measure * rank / dim, measure, rank))
            correlations.append(Correlation(table))
        weights = np.array([sl.weight for sl in slices])
        if abs(weights.sum() - 1.0) > NORM_TOL:
            raise MathContractError(f"slice weights sum to {weights.sum()!r}")
        mixed = Correlation(sum(w * c.table for w, c in zip(weights, correlations)))
        diagnostics = {
            "n_slices": float(len(slices)),
            "weight_sum": float(weights.sum()),
            "slice_residual": residual,
        }
        out.append(
            RoundingDecomposition(tuple(slices), tuple(correlations), mixed, diagnostics)
        )
    return out


def slice_strategies(
    spectrum: np.ndarray, factors: np.ndarray, game: Game, on_slice: SliceHook | None = None
) -> RoundingDecomposition:
    """Decompose a symmetric projective strategy into synchronous corners.

    The strategy is given in its state's eigenbasis, as symmetrize and
    projectivize leave it: spectrum is the state's real, nonnegative,
    nonincreasing spectrum s with tau(s^2) = 1, and factors the finite (nq,
    na, n, k) columns F projectivize built Alice's PVMs from, P = F F*.  F serves
    as a rank factor, and every corner, outcome mass and off-corner sum is
    read from F F*, Hermitian by construction.  Each spectral slice, a
    leading block of coordinates, hosts a corner sub-strategy whose tracial
    state is the corner identity; compressed measurements are rounded back
    to PVMs there, making every per-slice correlation synchronous.  This is
    _slice_corners on one strategy, one kernel call per slice.

    The corner PVMs are not kept: the decomposition holds each slice's
    weight, measure, dimension and correlation, O(n^2) in all.  A caller
    that needs the corners passes on_slice, called once per slice, smallest
    first, as on_slice(measure, rank, stack) with the slice's (nq, na, rank,
    rank) corner PVMs; the stack is not reused, so the hook may keep it.
    """
    (dec,) = _slice_corners([(spectrum, factors)], game, on_slice)
    return dec


def rounding_stages(game: Game, s: TensorStrategy) -> RoundingStages:
    """The pipeline's prefix: embed -> symmetrize -> projectivize.

    The embedded state is polar-decomposed once; symmetrize takes the input
    correlation at its spectrum and projectivize continues from the
    symmetric stage's correlation.
    """
    check_synchronous(game, "rounding")
    embedded = embed_tracial(s)
    polar = linalg.polar_decompose(embedded.sigma)
    alice, bob, c_in, c_sym, sym = symmetrize(embedded, game, polar)
    pvms, factors, proj = projectivize(polar.singular_values, alice, game, c_sym)
    return RoundingStages(c_in, polar, alice, bob, pvms, factors, {**sym, **proj})


def round_correlation(
    game: Game, s: TensorStrategy, on_slice: SliceHook | None = None
) -> RoundingDecomposition:
    """Full pipeline: rounding_stages, then slice.

    The returned diagnostics carry the input synchronicity, every stage's
    residual and the final mu-weighted distance between the input
    correlation and the synchronous mixture; the decomposition also keeps
    the stages.  on_slice is passed to slice_strategies, the one place a
    caller sees the corner PVMs.
    """
    stages = rounding_stages(game, s)
    dec = slice_strategies(stages.polar.singular_values, stages.factors, game, on_slice)
    return _finished(game, dec, stages)


def round_correlations(
    game: Game, stages: list[RoundingStages]
) -> list[RoundingDecomposition]:
    """round_correlation for each of a block of strategies, given as their
    rounding_stages, with their diagnostics, slicing them together: one
    kernel call, correlation product and synchronicity check per corner
    dimension in the block, not per slice per strategy.  The block's
    element stacks are held at once, so a caller bounds its size."""
    decs = _slice_corners([(st.polar.singular_values, st.factors) for st in stages], game)
    return [_finished(game, dec, st) for dec, st in zip(decs, stages)]


def _finished(
    game: Game, dec: RoundingDecomposition, stages: RoundingStages
) -> RoundingDecomposition:
    """A slice decomposition with its stages and round_correlation's
    diagnostics."""
    diagnostics = {
        **dec.diagnostics,
        **stages.report,
        "distance": correlation_distance(game, stages.c_in, dec.mixed),
    }
    return replace(dec, diagnostics=diagnostics, stages=stages)


def lemma_report(game: Game, stages: RoundingStages) -> dict:
    """Evaluate both sides of the implemented lemma inequalities.

    The inequalities bound the stages the pipeline produced.  The SVD
    sigma = L S V* of the embedded state gives the frames: the stages hold
    Alice's elements in L, the eigenbasis of sigma sigma*, and Bob's in V,
    the eigenbasis of |sigma|, and here Alice's are rotated once into V as
    well, V*AV = W* L*AL W with W = L* V.  Every correlation below is then
    one at the spectrum S, tau(sigma* A sigma B) = tau(S L*AL S V*BV), the
    one c_in was taken at.
    Returns {lemma: {lhs, rhs, slack}} with slack = rhs - lhs; every slack
    should be >= -CONTRACT_SLACK when the lemmas hold.
    """
    check_synchronous(game, "the lemma report")
    alice_l, bob_r = stages.alice_l, stages.bob_v
    w = stages.polar.left_basis.conj().T @ stages.polar.eigenbasis
    alice_r = w.conj().T @ alice_l @ w
    at_singular_values = partial(_diagonal_correlation, stages.polar.singular_values)
    report = stages.report

    # Synchronicity factorization.  Cauchy-Schwarz through sigma = u|sigma|
    # = |sigma*|u weighs Alice's operators at |sigma*| = L S L*, where
    # symmetrize measured delta_A+, and Bob's at |sigma| = V S V*; at
    # |sigma| on both sides the bound fails for unbalanced embeddings, where
    # sigma is far from normal.
    delta_a = _synchronicity(game, at_singular_values(alice_l, alice_r))
    delta_b = _synchronicity(game, at_singular_values(bob_r, bob_r))
    vienna = {
        "lhs": 1.0 - report["delta_in"],
        "rhs": np.sqrt(max(1.0 - report["sym_delta"], 0.0))
        * np.sqrt(max(1.0 - delta_b, 0.0)),
    }
    vienna["slack"] = vienna["rhs"] - vienna["lhs"]

    # Measurement substitution: compare correlations of {A} and of the
    # PVMs {C} projectivize rounded them to, inside the same strategy.
    swapped = at_singular_values(stages.pvms, bob_r)
    meas = {
        "lhs": correlation_distance(game, stages.c_in, swapped),
        "rhs": 6.0 * (delta_a + np.sqrt(max(report["proj_gamma"], 0.0))),
    }
    meas["slack"] = meas["rhs"] - meas["lhs"]
    return {"theviennalemma": vienna, "measurementtocoorlation": meas}
