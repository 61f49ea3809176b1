"""Soundness transfer machinery.

Moves a per-synchronous-strategy guarantee (a family of auxiliary
measurements witnessing some structure) from the rounded slices back to a
single POVM for the original strategy, via the dominated-operator
factorization trick.

The rounding keeps no corner PVMs: its decomposition is O(n^2).  The
corners stream through round_correlation's on_slice hook, and the demo
folds each slice's corners into one (nq, na, n, n) target as they pass, the
only state it keeps for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import DominationViolated, NotPovm, ValidationError
from .games import Game
from .linalg import GIVEN_SUM_TOL, PSD_FLOOR, RECONSTRUCT_TOL, SUPPORT_CUTOFF
from .rounding import round_correlation
from .strategies import Povm, TensorStrategy, povm_violations
from .strategies import winning_probability_from_correlation

# Unused here: perfbench's tracer test lists this module among the places
# that bind correlation.
from .strategies import correlation  # noqa: F401


@dataclass(frozen=True)
class SoundnessInstance:
    """Auxiliary data for a soundness-transfer statement.

    g maps (x, y, a) to the subset of auxiliary answers consistent with a;
    for fixed (x, y) the subsets must be pairwise disjoint over a.
    """

    aux_questions: tuple[str, ...]
    aux_answers: tuple[str, ...]
    rho: np.ndarray  # joint distribution over X x Y
    g: Callable[[int, int, int], frozenset[int]]
    kappa: Callable[[float], float]

    def validate(self, n_questions: int, n_answers: int) -> None:
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != (n_questions, len(self.aux_questions)):
            raise ValidationError(f"rho shape {rho.shape} mismatches alphabets")
        if abs(rho.sum() - 1.0) > GIVEN_SUM_TOL or rho.min() < 0:
            raise ValidationError("rho is not a probability distribution")
        for x in range(n_questions):
            for y in range(len(self.aux_questions)):
                seen: set[int] = set()
                for a in range(n_answers):
                    block = self.g(x, y, a)
                    if seen & block:
                        raise ValidationError(
                            f"g blocks overlap at (x={x}, y={y})"
                        )
                    seen |= block


def dominated_factorization(a, b) -> np.ndarray:
    """Find 0 <= C <= I with A^(1/2) C A^(1/2) = B, given 0 <= B <= A.

    C is built spectrally as A^(-1/2) B A^(-1/2) on the support of A and
    vanishes on its kernel.  B and A - B may show eigenvalues down to
    PSD_FLOOR.
    """
    a_h = linalg.hermitize(a)
    b_h = linalg.hermitize(b)
    gap = np.linalg.eigvalsh(a_h - b_h)
    if np.linalg.eigvalsh(b_h)[0] < PSD_FLOOR or gap[0] < PSD_FLOOR:
        raise DominationViolated(
            f"domination margin {gap[0]:.3e} below {PSD_FLOOR:.0e}"
        )
    root_inv = linalg.pseudo_inv_sqrt(a_h)
    return root_inv @ b_h @ root_inv


def aggregate_slice_povms(spectrum, targets) -> list[Povm]:
    """Combine the folded slice corner POVMs into one family on the host.

    All in sigma's eigenbasis, sigma = diag(s): targets[y, b] is the
    measure-weighted sum T of the slices' corner elements for question y,
    each zero-padded from its leading rank x rank block, as
    soundness_transfer_demo folds them while the corners stream.  H
    satisfies sigma H sigma = T on the support s_i^2 > SUPPORT_CUTOFF max s^2 (that
    of pseudo_inv_sqrt(sigma^2)), so H_ij = T_ij / (s_i s_j) there; the
    identity deficit on the kernel is assigned to answer 0.
    """
    s = np.asarray(spectrum, dtype=float)
    s2 = s**2
    support = s2 > SUPPORT_CUTOFF * s2.max()
    inv = np.where(support, 1.0, 0.0) / np.where(support, s, 1.0)
    kernel = np.diag(np.where(support, 0.0, 1.0))
    scale, unscale = np.outer(inv, inv), np.outer(s, s)

    stack = np.asarray(targets) * scale
    stack[:, 0] += kernel
    violations = povm_violations(stack)
    for y, (target, elements) in enumerate(zip(targets, stack)):
        if violations[y]:
            raise NotPovm(f"aggregated family for question {y} is not a POVM")
        # sigma annihilates the kernel completion, so the identity holds
        # for b = 0 as well.
        error = np.linalg.norm(unscale * elements - target, axis=(1, 2))
        if np.any(error > RECONSTRUCT_TOL * (1.0 + np.linalg.norm(s2))):
            b = int(np.argmax(error))
            raise NotPovm(f"sigma H sigma reconstruction failed at (y={y}, b={b})")
    return [Povm(elements) for elements in stack]


def soundness_transfer_demo(
    game: Game, inst: SoundnessInstance, s: TensorStrategy
) -> dict:
    """Toy end-to-end soundness transfer.

    Rounds the strategy, takes each slice's own corner PVMs as its
    auxiliary measurement family, folds them as they stream out of the
    slice stage, aggregates them into a single POVM family and evaluates
    the transferred expectation against the kappa reference.
    The input correlation and the symmetric stage come from the one
    rounding run.  No hard assertion is made: the bound's constants are
    unspecified, so raw values are reported.
    """
    inst.validate(game.n_questions, game.n_answers)
    # n is the embedding's dimension, the one the slices' corners pad to.
    n = max(s.dim_a, s.dim_b)
    targets = np.zeros((s.n_questions, s.n_answers, n, n), dtype=complex)

    def fold(measure, rank, stack):
        targets[:, :, :rank, :rank] += measure * stack

    dec = round_correlation(game, s, fold)
    c_in = dec.c_in
    delta = dec.diagnostics["delta_in"]
    omega = winning_probability_from_correlation(game, c_in)

    # Marginal synchronicity condition under rho's X-marginal.
    rho = np.asarray(inst.rho, dtype=float)
    rho_x = rho.sum(axis=1)
    off = ~np.eye(game.n_answers, dtype=bool)
    marginal_sync = float(
        sum(rho_x[x] * c_in.table[x, x][off].sum() for x in range(game.n_questions))
    )

    # H lives on the symmetric stage whose slices were computed, in sigma+'s
    # eigenbasis V: sigma+ = diag(s) and Alice's elements are V* A V.
    sym = dec.symmetric
    s = np.diagonal(sym.sigma).real
    families = aggregate_slice_povms(s, targets)
    weight = np.outer(s, s)

    transferred = 0.0
    for x in range(game.n_questions):
        for y in range(len(inst.aux_questions)):
            if rho[x, y] == 0.0:
                continue
            for a in range(game.n_answers):
                block = inst.g(x, y, a)
                if not block:
                    continue
                h = sum(families[y].elements[b] for b in block)
                # tau(sigma+ A sigma+ H) = sum_ij s_i A_ij s_j H_ji / n
                left = weight * sym.alice[x].elements[a]
                val = np.sum(left * h.T).real / sym.dim
                transferred += rho[x, y] * float(val)

    return {
        "omega": omega,
        "delta": delta,
        "marginal_sync": marginal_sync,
        "transferred_expectation": transferred,
        "kappa_at_omega": float(inst.kappa(omega)),
        "kappa_adjusted": float(
            inst.kappa(max(omega - delta ** 0.125, 0.0)) - delta ** 0.125
        ),
        "rounding_distance": dec.diagnostics["distance"],
        "n_slices": dec.diagnostics["n_slices"],
    }


def identity_consistency_instance(game: Game) -> SoundnessInstance:
    """Default toy instance: auxiliary questions mirror the game questions,
    auxiliary answers mirror the game answers, rho is the diagonal
    distribution with Alice's marginal and g is the identity map."""
    rho = np.diag(game.mu_x)
    return SoundnessInstance(
        aux_questions=game.questions,
        aux_answers=game.answers,
        rho=rho,
        g=lambda x, y, a: frozenset({a}),
        kappa=lambda w: max(0.0, 2.0 * w - 1.0),
    )
