"""Soundness transfer machinery.

Moves a per-synchronous-strategy guarantee (a family of auxiliary
measurements witnessing some structure) from the rounded slices back to a
single POVM for the original strategy, via the dominated-operator
factorization trick: find H with sigma+ H sigma+ = T.  The demo only meets
its diagonal case: in Alice's frame L, sigma+ = |sigma*| = L S L* is the
spectrum S the rounding record keeps, and H = sigma+^-1 T sigma+^-1 on the
support, which aggregate_slice_povms computes by scaling.

The rounding keeps no corner PVMs: its decomposition is O(n^2).  The
corners stream through round_correlation's on_slice hook, and the demo
folds each slice's corners into one (nq, na, n, n) target as they pass, the
only state it keeps for them.

The consistency test is a game on the strategy's alphabets, so the
transferred expectation and the marginal synchronicity are that game's
value and synchronicity on correlation tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotPovm, ValidationError
from .games import Game, validate_game
from .linalg import RECONSTRUCT_TOL, SUPPORT_CUTOFF
from .rounding import round_correlation
from .strategies import TensorStrategy, _check_alphabets, _diagonal_correlation
from .strategies import _synchronicity, povm_violations
from .strategies import winning_probability_from_correlation

# Unused here: perfbench's tracer test lists this module among the places
# that bind correlation.
from .strategies import correlation  # noqa: F401


@dataclass(frozen=True)
class SoundnessInstance:
    """Auxiliary data for a soundness-transfer statement.

    test is the consistency test as a game on the strategy's own
    alphabets, since the auxiliary families are the slices' corner PVMs:
    test.mu is rho over question pairs (x, y) and test.win[x, y, a, b]
    marks Bob's auxiliary answer b as consistent with Alice's a.  For fixed
    (x, y) each b is consistent with at most one a.
    """

    test: Game
    kappa: Callable[[float], float]

    def validate(self, n_questions: int, n_answers: int) -> None:
        violations = validate_game(self.test)
        if violations:
            raise ValidationError(f"consistency test: {', '.join(violations)}")
        _check_alphabets(self.test, n_questions, n_answers)
        if np.any(self.test.win.sum(axis=2) > 1):
            raise ValidationError("consistent answer sets overlap")


def aggregate_slice_povms(spectrum, targets) -> np.ndarray:
    """Combine the folded slice corner POVMs into one (nq, na, n, n) stack H.

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

    stack = np.asarray(targets) * np.outer(inv, inv)
    stack[:, 0] += kernel
    for y, violations in enumerate(povm_violations(stack)):
        if violations:
            raise NotPovm(f"aggregated family for question {y} is not a POVM")
    # sigma annihilates the kernel completion, so the identity holds for
    # b = 0 as well.
    error = np.linalg.norm(np.outer(s, s) * stack - targets, axis=(-2, -1))
    if np.any(error > RECONSTRUCT_TOL * (1.0 + np.linalg.norm(s2))):
        y, b = np.unravel_index(np.argmax(error), error.shape)
        raise NotPovm(f"sigma H sigma reconstruction failed at (y={y}, b={b})")
    return stack


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
    c_in = dec.stages.c_in
    delta = dec.diagnostics["delta_in"]
    omega = winning_probability_from_correlation(game, c_in)

    # H lives on the symmetric stage whose slices were computed, in Alice's
    # frame L: sigma+ = |sigma*| = L S L* is the spectrum S there, so
    # tau(sigma+ A sigma+ H) is the diagonal-state correlation of Alice in L
    # against H.
    s = dec.stages.polar.singular_values
    families = aggregate_slice_povms(s, targets)
    transferred = winning_probability_from_correlation(
        inst.test, _diagonal_correlation(s, dec.stages.alice_l, families)
    )

    return {
        "omega": omega,
        "delta": delta,
        "marginal_sync": _synchronicity(inst.test, c_in),
        "transferred_expectation": transferred,
        "kappa_at_omega": float(inst.kappa(omega)),
        "kappa_adjusted": float(
            inst.kappa(max(omega - delta ** 0.125, 0.0)) - delta ** 0.125
        ),
        "rounding_distance": dec.diagnostics["distance"],
        "n_slices": dec.diagnostics["n_slices"],
    }


def identity_consistency_instance(game: Game) -> SoundnessInstance:
    """Default toy instance: the test asks (x, x) with Alice's marginal and
    accepts b = a."""
    nq, eye = game.n_questions, np.eye(game.n_answers, dtype=bool)
    win = np.broadcast_to(eye, (nq, nq) + eye.shape)
    test = Game(game.questions, game.answers, np.diag(game.mu_x), win)
    return SoundnessInstance(test=test, kappa=lambda w: max(0.0, 2.0 * w - 1.0))
