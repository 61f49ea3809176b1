"""Soundness transfer machinery.

Moves a per-synchronous-strategy guarantee (a family of auxiliary
measurements witnessing some structure) from the rounded slices back to a
single POVM for the original strategy, via the dominated-operator
factorization trick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import DominationViolated, NotPovm, ValidationError
from .games import Game
from .rounding import round_correlation
from .strategies import Povm, TensorStrategy, winning_probability_from_correlation

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
        if abs(rho.sum() - 1.0) > 1e-12 or rho.min() < 0:
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


def dominated_factorization(a, b, cutoff: float | None = None) -> np.ndarray:
    """Find 0 <= C <= I with A^(1/2) C A^(1/2) = B, given 0 <= B <= A.

    C is built spectrally as A^(-1/2) B A^(-1/2) on the support of A and
    vanishes on its kernel.
    """
    a_h = linalg.hermitize(a)
    b_h = linalg.hermitize(b)
    gap = np.linalg.eigvalsh(a_h - b_h)
    if np.linalg.eigvalsh(b_h)[0] < -1e-10 or gap[0] < -1e-10:
        raise DominationViolated(
            f"domination margin {gap[0]:.3e} below -1e-10"
        )
    root_inv = linalg.pseudo_inv_sqrt(a_h, cutoff)
    return root_inv @ b_h @ root_inv


def aggregate_slice_povms(
    sigma, slices: list[tuple[float, np.ndarray, list[Povm]]]
) -> list[Povm]:
    """Combine per-slice corner POVM families into one family on the host.

    slices is a list of (measure, basis, per-question corner POVMs); the
    output family H satisfies sigma H sigma = sum of measure-weighted
    expanded slice families on the support of sigma, with the identity
    deficit on ker(sigma) assigned to answer 0.
    """
    sig = linalg.hermitize(sigma)
    n = sig.shape[0]
    n_questions = len(slices[0][2])
    outcomes = slices[0][2][0].outcomes
    sig_sq = sig @ sig
    root_inv = linalg.pseudo_inv_sqrt(sig_sq)
    support = root_inv @ sig_sq @ root_inv
    kernel = np.eye(n) - support

    families = []
    for y in range(n_questions):
        targets = []
        for b in range(outcomes):
            acc = np.zeros((n, n), dtype=complex)
            for measure, basis, corner in slices:
                acc += measure * linalg.expand_corner(
                    corner[y].elements[b], basis
                )
            targets.append(acc)
        elements = [root_inv @ t @ root_inv for t in targets]
        elements[0] = elements[0] + kernel
        family = Povm(np.array(elements))
        if family.validate():
            raise NotPovm(f"aggregated family for question {y} is not a POVM")
        for b in range(outcomes):
            # sigma annihilates the kernel completion, so the identity
            # holds for b = 0 as well.
            recon = sig @ family.elements[b] @ sig
            if linalg.frobenius(recon - targets[b]) > 1e-8 * (
                1.0 + linalg.frobenius(sig_sq)
            ):
                raise NotPovm(
                    f"sigma H sigma reconstruction failed at (y={y}, b={b})"
                )
        families.append(family)
    return families


def soundness_transfer_demo(
    game: Game, inst: SoundnessInstance, s: TensorStrategy
) -> dict:
    """Toy end-to-end soundness transfer.

    Rounds the strategy, takes each slice's own corner PVMs as its
    auxiliary measurement family, aggregates them into a single POVM family
    and evaluates the transferred expectation against the kappa reference.
    The embedding, input correlation and symmetric stage all come from the
    one rounding run.  No hard assertion is made: the bound's constants are
    unspecified, so raw values are reported.
    """
    inst.validate(game.n_questions, game.n_answers)
    dec = round_correlation(game, s)
    embedded, c_in = dec.embedded, dec.c_in
    delta = dec.diagnostics["delta_in"]
    omega = winning_probability_from_correlation(game, c_in)

    # Marginal synchronicity condition under rho's X-marginal.
    rho = np.asarray(inst.rho, dtype=float)
    rho_x = rho.sum(axis=1)
    off = ~np.eye(game.n_answers, dtype=bool)
    marginal_sync = float(
        sum(rho_x[x] * c_in.table[x, x][off].sum() for x in range(game.n_questions))
    )

    slice_data = [(sl.measure, sl.basis, list(sl.pvms)) for sl in dec.slices]
    # H lives on the symmetric-positive stage whose slices were computed.
    sigma_plus = dec.symmetric.sigma
    families = aggregate_slice_povms(sigma_plus, slice_data)

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
                val = linalg.tau(
                    sigma_plus.conj().T
                    @ embedded.alice[x].elements[a]
                    @ sigma_plus
                    @ h
                )
                transferred += rho[x, y] * float(val.real)

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
