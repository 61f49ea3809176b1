"""Unit tests for game construction and validation."""

import numpy as np
import pytest

from syncround.errors import EmptyGraph, InvalidProbability, NotSynchronousGame
from syncround.games import (
    Game,
    coloring_game,
    edge_game,
    is_synchronous_game,
    k3_game,
    validate_game,
    with_sync_test,
)


def test_k3_game_is_valid_and_synchronous():
    g = k3_game()
    assert validate_game(g) == []
    assert is_synchronous_game(g)
    assert g.n_questions == 3 and g.n_answers == 3


def test_edge_game_shape():
    g = edge_game()
    assert validate_game(g) == []
    assert g.n_questions == 2 and g.n_answers == 2


def test_validate_flags_unnormalized_mu():
    g = k3_game()
    bad = Game(g.questions, g.answers, g.mu * 0.9, g.win)
    assert "DistributionNotNormalized" in validate_game(bad)


def test_validate_flags_negative_mu():
    g = k3_game()
    mu = g.mu.copy()
    mu[0, 1] = -mu[0, 1]
    bad = Game(g.questions, g.answers, mu, g.win)
    assert "NegativeProbability" in validate_game(bad)


def test_not_synchronous_when_diagonal_broken():
    g = k3_game()
    win = g.win.copy()
    win[0, 0, 0, 0] = False
    assert not is_synchronous_game(Game(g.questions, g.answers, g.mu, win))


def test_synchronicity_rule_vacuous_off_support():
    # questions never asked on the diagonal may carry arbitrary win entries
    g = edge_game()
    mu = np.array([[0.0, 0.5], [0.5, 0.0]])
    win = g.win.copy()
    win[0, 0] = ~np.eye(2, dtype=bool)
    win[1, 1] = ~np.eye(2, dtype=bool)
    assert is_synchronous_game(Game(g.questions, g.answers, mu, win))


def test_synchronous_game_check_matches_the_per_question_loop():
    rng = np.random.default_rng(6)
    for _ in range(200):
        nq, na = rng.integers(1, 4, size=2)
        mu = rng.random((nq, nq)) * (rng.random((nq, nq)) < 0.7)
        mu = mu / mu.sum() if mu.sum() else np.full((nq, nq), 1.0 / nq**2)
        win = rng.random((nq, nq, na, na)) < 0.5
        for x in range(nq):
            if rng.random() < 0.7:
                win[x, x] = np.eye(na, dtype=bool)
        eye = np.eye(na, dtype=bool)
        want = all(mu[x, x] <= 0 or np.array_equal(win[x, x], eye) for x in range(nq))
        game = Game(tuple(range(nq)), tuple(range(na)), mu, win)
        assert is_synchronous_game(game) is want


def test_sync_test_noop_at_zero():
    g = k3_game()
    out = with_sync_test(g, 0.0)
    np.testing.assert_allclose(out.mu, g.mu)


def test_sync_test_half_mixture():
    win = np.ones((2, 2, 2, 2), dtype=bool)
    eye = np.eye(2, dtype=bool)
    win[0, 0] = eye
    win[1, 1] = eye
    mu = np.array([[0.0, 0.5], [0.5, 0.0]])
    g = Game(("0", "1"), ("a", "b"), mu, win)
    out = with_sync_test(g, 0.5)
    np.testing.assert_allclose(out.mu, np.full((2, 2), 0.25))


def test_sync_test_full_replacement():
    g = k3_game()
    out = with_sync_test(g, 1.0)
    np.testing.assert_allclose(out.mu, np.diag(g.mu_x))


def test_sync_test_rejects_bad_probability():
    with pytest.raises(InvalidProbability):
        with_sync_test(k3_game(), 1.5)


def test_sync_test_rejects_non_synchronous_game():
    g = k3_game()
    win = g.win.copy()
    win[0, 0] = np.ones((3, 3), dtype=bool)
    bad = Game(g.questions, g.answers, g.mu, win)
    with pytest.raises(NotSynchronousGame):
        with_sync_test(bad, 0.5)


def test_coloring_game_rejects_empty_graph():
    with pytest.raises(EmptyGraph):
        coloring_game(np.zeros((0, 0), dtype=bool), 2)


def test_coloring_game_rejects_self_loops():
    with pytest.raises(ValueError):
        coloring_game(np.eye(2, dtype=bool), 2)


def test_coloring_game_win_structure():
    g = k3_game()
    eye = np.eye(3, dtype=bool)
    for x in range(3):
        np.testing.assert_array_equal(g.win[x, x], eye)
        for y in range(3):
            if x != y:
                np.testing.assert_array_equal(g.win[x, y], ~eye)
