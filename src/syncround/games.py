"""Two-player nonlocal games.

A game holds question labels, answer labels, a joint input distribution mu
over question pairs and a 0/1 win predicate.  Questions and answers are
dense integer indices internally; labels only matter for I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyGraph, InvalidProbability, NotSynchronousGame
from .linalg import GIVEN_SUM_TOL


@dataclass(frozen=True)
class Game:
    questions: tuple[str, ...]
    answers: tuple[str, ...]
    mu: np.ndarray  # (|X|, |X|) joint question distribution
    win: np.ndarray  # (|X|, |X|, |A|, |A|) boolean predicate

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        object.__setattr__(self, "win", np.asarray(self.win, dtype=bool))

    @property
    def n_questions(self) -> int:
        return len(self.questions)

    @property
    def n_answers(self) -> int:
        return len(self.answers)

    @property
    def mu_x(self) -> np.ndarray:
        """Marginal distribution of Alice's question."""
        return self.mu.sum(axis=1)


def validate_game(game: Game) -> list[str]:
    """Return the list of invariant violations (empty means valid)."""
    violations = []
    nx, na = game.n_questions, game.n_answers
    if game.mu.shape != (nx, nx):
        violations.append("MuShapeMismatch")
        return violations
    if game.win.shape != (nx, nx, na, na):
        violations.append("WinShapeMismatch")
        return violations
    if np.any(game.mu < 0):
        violations.append("NegativeProbability")
    if abs(game.mu.sum() - 1.0) > GIVEN_SUM_TOL:
        violations.append("DistributionNotNormalized")
    return violations


def is_synchronous_game(game: Game) -> bool:
    """True iff V(x,x,a,b) = [a == b] on every diagonal pair mu touches.

    The rule is vacuous for diagonal pairs with mu(x, x) = 0: the game's
    quantities only ever weight V by mu.
    """
    x = np.arange(game.n_questions)
    asked = game.win[x, x][game.mu[x, x] > 0]
    return bool((asked == np.eye(game.n_answers, dtype=bool)).all())


def check_synchronous(game: Game, purpose: str) -> None:
    """Raise NotSynchronousGame unless is_synchronous_game(game)."""
    if not is_synchronous_game(game):
        raise NotSynchronousGame(f"{purpose} needs a synchronous game")


def with_sync_test(game: Game, c: float) -> Game:
    """Mix a synchronicity test into the input distribution.

    With probability c the referee forgets the sampled pair, resamples
    x ~ mu_x and sends (x, x); diagonal win entries are forced to the
    synchronous rule.  A strategy winning with probability 1 - eps on the
    result is at most eps/c-synchronous.
    """
    if not 0.0 <= c <= 1.0:
        raise InvalidProbability(f"c = {c} outside [0, 1]")
    check_synchronous(game, "the sync test")
    mu = (1.0 - c) * game.mu + c * np.diag(game.mu_x)
    win = game.win.copy()
    eye = np.eye(game.n_answers, dtype=bool)
    for x in range(game.n_questions):
        win[x, x] = eye
    return Game(game.questions, game.answers, mu, win)


def coloring_game(adjacency, k: int) -> Game:
    """Graph k-coloring game: same vertex, same color; edge, different colors.

    mu is uniform over the diagonal pairs and the (ordered) edge pairs.
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[0]
    if n == 0:
        raise EmptyGraph("coloring game needs at least one vertex")
    if adj.shape != (n, n) or not np.array_equal(adj, adj.T) or np.any(np.diag(adj)):
        raise ValueError("adjacency must be square, symmetric and irreflexive")
    mu = np.zeros((n, n))
    np.fill_diagonal(mu, 1.0)
    mu[adj] = 1.0
    mu /= mu.sum()
    win = np.ones((n, n, k, k), dtype=bool)
    eye = np.eye(k, dtype=bool)
    for x in range(n):
        win[x, x] = eye
        for y in range(n):
            if adj[x, y]:
                win[x, y] = ~eye
    questions = tuple(f"v{i}" for i in range(n))
    answers = tuple(f"c{i}" for i in range(k))
    return Game(questions, answers, mu, win)


def k3_game() -> Game:
    """Triangle 3-coloring game, the builtin workhorse."""
    adj = ~np.eye(3, dtype=bool)
    return coloring_game(adj, 3)


def edge_game() -> Game:
    """Single edge, two colors."""
    adj = np.array([[False, True], [True, False]])
    return coloring_game(adj, 2)


BUILTIN_GAMES = {
    "k3": k3_game,
    "edge2": edge_game,
}
