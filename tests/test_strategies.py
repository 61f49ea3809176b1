"""Unit tests for strategies, embedding and correlation evaluation."""

import numpy as np
import pytest

from reference import is_projective, reference_validate
from syncround.errors import AlphabetMismatch
from syncround.games import edge_game, k3_game
from syncround.linalg import PSD_FLOOR
from syncround.strategies import (
    Correlation,
    Povm,
    correlation,
    correlation_distance,
    deterministic_strategy,
    embed_tracial,
    entangled_coloring_strategy,
    opposite,
    perturb_strategy,
    povm_violations,
    random_povm_strategy,
    random_strategy,
    synchronicity,
    tensor_correlation,
    winning_probability_from_correlation,
)


def basis_pvm(dim):
    elements = np.zeros((dim, dim, dim), dtype=complex)
    for k in range(dim):
        elements[k, k, k] = 1.0
    return Povm(elements)


def test_povm_validate_accepts_pvm():
    p = basis_pvm(3)
    assert p.validate() == []
    assert is_projective(p)


def test_povm_validate_flags_bad_sum():
    p = Povm(np.array([np.eye(2, dtype=complex) * 0.4]))
    assert "SumNotIdentity" in p.validate()


def test_povm_validate_flags_negative():
    p = Povm(np.array([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]))
    assert "NotPositive" in p.validate()


def validate_cases():
    """Valid, non-Hermitian, non-positive and non-normalized POVMs, alone
    and mixed, from one seeded random POVM; then the edges of the Cholesky
    test: lowest eigenvalues on either side of PSD_FLOOR, an exact
    rank-deficient projector, a zero element and a generic full-rank POVM."""
    base = random_strategy((6, 6), (3, 4), 3).alice[0].elements
    skew = np.zeros((6, 6), dtype=complex)
    skew[0, 1], skew[1, 0] = 1e-3, -1e-3
    shift = np.diag([0.3, 0, 0, 0, 0, 0])
    yield "valid", base
    yield "not-hermitian", base + np.array([skew, 0 * skew, -skew, 0 * skew])
    yield "not-positive", base + np.array([-shift, shift, 0 * shift, 0 * shift])
    yield "not-normalized", base * 0.9
    yield "all-bad", base * 0.9 + np.array([skew, -shift, -shift, skew])
    yield "slightly-skew", base + np.array([1e-10 * skew, 0 * skew, 0 * skew, 0 * skew])
    # below the floor the Cholesky of H - PSD_FLOOR I fails and the
    # per-element check names the element
    u = np.linalg.qr(np.random.default_rng(7).normal(size=(6, 6)))[0]
    for name, low in (("below-floor", 2 * PSD_FLOOR), ("above-floor", PSD_FLOOR / 2)):
        e1 = (u * [low, 0.2, 0.4, 0.6, 0.8, 1.0]) @ u.T
        yield name, np.array([np.eye(6) - e1, e1])
    projector = np.diag([1.0, 1, 0, 0, 0, 0])
    yield "rank-deficient-projector", np.array([projector, np.eye(6) - projector])
    yield "zero-element", np.array([np.eye(6), np.zeros((6, 6))])
    generic = random_povm_strategy((6, 6), (3, 4), 3, 0.0)
    yield "generic-full-rank", generic.alice[0].elements


@pytest.mark.parametrize("name,elements", list(validate_cases()))
def test_povm_validate_matches_per_element_reference(name, elements):
    povm = Povm(elements)
    got = povm.validate()
    assert got == reference_validate(povm)
    expected = {
        "valid": [],
        "slightly-skew": [],
        "not-hermitian": ["NotHermitian", "NotHermitian"],
        "not-positive": ["NotPositive"],
        "not-normalized": ["SumNotIdentity"],
        "all-bad": [
            "NotHermitian",
            "NotPositive",
            "NotPositive",
            "NotHermitian",
            "SumNotIdentity",
        ],
        "below-floor": ["NotPositive"],
        "above-floor": [],
        "rank-deficient-projector": [],
        "zero-element": [],
        "generic-full-rank": [],
    }
    assert got == expected[name]


def test_stacked_check_names_the_failing_family():
    cases = dict(validate_cases())
    good = [cases["valid"], random_strategy((6, 6), (3, 4), 4).bob[2].elements]
    for bad in ("not-hermitian", "not-positive", "not-normalized", "all-bad"):
        for at in range(3):
            stack = np.array(good[:at] + [cases[bad]] + good[at:])
            got = povm_violations(stack)
            assert got == [reference_validate(Povm(f)) for f in stack]
            assert [i for i, v in enumerate(got) if v] == [at]


def test_opposite_examples():
    np.testing.assert_array_equal(opposite(np.eye(2)), np.eye(2))
    np.testing.assert_array_equal(
        opposite(np.array([[0.0, 1.0], [0.0, 0.0]])),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    )


def test_opposite_reverses_products():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(opposite(a @ b), opposite(b) @ opposite(a), atol=1e-12)


def test_embed_product_state_sigma():
    s = random_strategy((2, 2), (2, 2), 0)
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0  # |00>
    s = type(s)(2, 2, state, s.alice, s.bob)
    emb = embed_tracial(s)
    np.testing.assert_allclose(emb.sigma, np.sqrt(2) * np.diag([1.0, 0.0]), atol=1e-12)


def test_embed_maximally_entangled_sigma_is_identity():
    s = entangled_coloring_strategy(3)
    emb = embed_tracial(s)
    np.testing.assert_allclose(emb.sigma, np.eye(3), atol=1e-12)
    # bob's diagonal projectors are fixed by the transpose
    for p, q in zip(emb.bob_left, s.bob):
        np.testing.assert_allclose(p.elements, q.elements, atol=1e-12)


def test_embed_normalization():
    for seed in range(5):
        s = random_strategy((3, 4), (2, 3), seed)
        emb = embed_tracial(s)
        sig = emb.sigma
        assert np.trace(sig.conj().T @ sig).real / emb.dim == pytest.approx(1.0)
        for povm in emb.alice + emb.bob_left:
            assert povm.validate() == []


def test_correlation_matches_tensor_oracle():
    # the standard-form route must agree with direct tensor evaluation
    for seed in range(20):
        s = random_strategy((2, 3), (2, 2), seed)
        direct = tensor_correlation(s)
        via_embed = correlation(embed_tracial(s))
        np.testing.assert_allclose(via_embed.table, direct.table, atol=1e-10)


def test_correlation_maximally_entangled_diagonal():
    s = entangled_coloring_strategy(2)
    c = correlation(embed_tracial(s))
    for x in range(2):
        for a in range(2):
            for b in range(2):
                expected = 0.5 if a == b else 0.0
                assert c.table[x, x, a, b] == pytest.approx(expected, abs=1e-12)


def test_correlation_product_state_deterministic():
    s = deterministic_strategy([0, 0], 2)
    c = correlation(embed_tracial(s))
    for x in range(2):
        for y in range(2):
            np.testing.assert_allclose(
                c.table[x, y], np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-12
            )


def test_winning_probability_extremes():
    g = k3_game()
    s = embed_tracial(deterministic_strategy([0, 1, 2], 3))
    c = correlation(s)
    assert winning_probability_from_correlation(g, c) == pytest.approx(1.0)
    zero = type(g)(g.questions, g.answers, g.mu, np.zeros_like(g.win))
    assert winning_probability_from_correlation(zero, c) == pytest.approx(0.0)
    one = type(g)(g.questions, g.answers, g.mu, np.ones_like(g.win))
    assert winning_probability_from_correlation(one, c) == pytest.approx(1.0)


def test_synchronicity_perfect_strategy_is_zero():
    g = k3_game()
    c = correlation(embed_tracial(entangled_coloring_strategy(3)))
    assert synchronicity(g, c) <= 1e-10


def test_synchronicity_everywhere_disagreeing_is_one():
    g = edge_game()
    alice = deterministic_strategy([0, 0], 2)
    bob = deterministic_strategy([1, 1], 2)
    s = type(alice)(1, 1, np.array([1.0 + 0j]), alice.alice, bob.bob)
    c = correlation(embed_tracial(s))
    assert synchronicity(g, c) == pytest.approx(1.0)


def test_synchronicity_alphabet_mismatch():
    g = k3_game()
    c = correlation(embed_tracial(random_strategy((2, 2), (2, 2), 0)))
    with pytest.raises(AlphabetMismatch):
        synchronicity(g, c)


def test_correlation_distance_basic():
    g = edge_game()
    c = correlation(embed_tracial(deterministic_strategy([0, 1], 2)))
    assert correlation_distance(g, c, c) == 0.0
    c2 = correlation(embed_tracial(deterministic_strategy([1, 0], 2)))
    assert correlation_distance(g, c, c2) == pytest.approx(2.0)


def test_correlation_distance_triangle_inequality():
    g = edge_game()
    rng = np.random.default_rng(1)
    for _ in range(10):
        tables = [rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
                  for _ in range(3)]
        c1, c2, c3 = (Correlation(t) for t in tables)
        d12 = correlation_distance(g, c1, c2)
        d23 = correlation_distance(g, c2, c3)
        d13 = correlation_distance(g, c1, c3)
        assert d13 <= d12 + d23 + 1e-12


def test_random_strategy_is_seeded_and_valid():
    s1 = random_strategy((3, 3), (2, 3), 7)
    s2 = random_strategy((3, 3), (2, 3), 7)
    np.testing.assert_array_equal(s1.state, s2.state)
    for p, q in zip(s1.alice, s2.alice):
        np.testing.assert_array_equal(p.elements, q.elements)
    assert np.linalg.norm(s1.state) == pytest.approx(1.0)
    for povm in s1.alice + s1.bob:
        assert povm.validate() == []


def test_random_strategy_seeds_differ():
    c1 = tensor_correlation(random_strategy((3, 3), (2, 2), 0))
    c2 = tensor_correlation(random_strategy((3, 3), (2, 2), 1))
    assert np.max(np.abs(c1.table - c2.table)) > 1e-6


def test_perturb_zero_eta_is_identity():
    s = entangled_coloring_strategy(3)
    assert perturb_strategy(s, 0.0, 3) is s


def test_perturb_zero_eta_keeps_sync_zero():
    g = k3_game()
    s = perturb_strategy(entangled_coloring_strategy(3), 0.0, 3)
    c = correlation(embed_tracial(s))
    assert synchronicity(g, c) <= 1e-10


def test_perturb_rejects_negative_eta():
    with pytest.raises(ValueError):
        perturb_strategy(entangled_coloring_strategy(3), -0.1, 0)


def test_perturb_output_valid_and_sync_continuous():
    g = k3_game()
    base = entangled_coloring_strategy(3)
    deltas = []
    for eta in (1e-1, 1e-2, 1e-3):
        p = perturb_strategy(base, eta, 11)
        assert np.linalg.norm(p.state) == pytest.approx(1.0)
        for povm in p.bob:
            assert povm.validate() == []
        deltas.append(synchronicity(g, correlation(embed_tracial(p))))
    # synchronicity shrinks with eta along the seed-fixed path
    assert deltas[0] > deltas[1] > deltas[2]
    assert deltas[2] < 1e-4
