"""Unit tests for the rounding pipeline."""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from reference import factor_stack, is_projective, projector_slices
from syncround import cli, games, io, linalg, rounding, soundness, strategies
from syncround.errors import NotNormalized, NotSynchronousGame, ValidationError
from syncround.games import Game, k3_game
from syncround.rounding import (
    lemma_report,
    orthogonalize_povm,
    round_correlation,
    round_correlations,
    rounding_stages,
    slice_strategies,
    symmetrize,
    projectivize,
    verify_connes,
)
from syncround.strategies import (
    Povm,
    TracialStrategy,
    correlation,
    embed_tracial,
    entangled_coloring_strategy,
    perturb_strategy,
    povm_violations,
    random_povm_strategy,
    random_strategy,
    synchronicity,
)


def random_positive(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n


def normalized_sigma(rng, n):
    s = random_positive(rng, n)
    return s / linalg.tau_norm(s)


def noised_pvm(rng, dim, outcomes, weight):
    """Mix a random PVM with the maximally mixed POVM."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q = np.linalg.qr(g)[0]
    cuts = [k * dim // outcomes for k in range(outcomes + 1)]
    elements = []
    for k in range(outcomes):
        cols = q[:, cuts[k] : cuts[k + 1]]
        p = cols @ cols.conj().T
        elements.append((1 - weight) * p + weight * np.eye(dim) / outcomes)
    return Povm(np.array(elements))


# ---------------------------------------------------------------------------
# orthogonalize_povm


def test_orthogonalize_projective_fixed_point():
    rng = np.random.default_rng(0)
    for dim, outcomes in ((4, 2), (6, 3)):
        pvm = noised_pvm(rng, dim, outcomes, 0.0)
        sigma = normalized_sigma(rng, dim)
        out, err = orthogonalize_povm(pvm, sigma)
        assert err <= 1e-12
        np.testing.assert_allclose(out.elements, pvm.elements, atol=1e-9)


def test_orthogonalize_two_outcome_diagonal():
    povm = Povm(np.array([np.diag([0.9, 0.1]), np.diag([0.1, 0.9])]))
    out, err = orthogonalize_povm(povm, np.eye(2))
    np.testing.assert_allclose(out.elements[0], np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(out.elements[1], np.diag([0.0, 1.0]), atol=1e-12)
    # eps = 1 - tau(A0^2 + A1^2) = 1 - 0.82 = 0.18; error = 2 * tau(0.1^2 I)
    assert err == pytest.approx(0.02)
    assert err <= 9 * 0.18


def brute_force_best_threshold_error(povm, sigma):
    """Best spectral-threshold PVM for a binary POVM {A, I - A}: try every
    eigenvalue cut of A."""
    w = sigma @ sigma.conj().T
    n = povm.dim
    dec = linalg.eig_hermitian(linalg.hermitize(povm.elements[0]))
    best = np.inf
    for k in range(n + 1):
        v = dec.eigenvectors[:, :k]
        p0 = v @ v.conj().T
        p1 = np.eye(n) - p0
        err = 0.0
        for a, p in zip(povm.elements, (p0, p1)):
            d = a - p
            err += float(np.trace(d @ d @ w).real) / n
        best = min(best, err)
    return best


def test_orthogonalize_binary_beats_threshold_oracle():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 4):
        for trial in range(10):
            povm = noised_pvm(rng, dim, 2, float(rng.uniform(0, 0.05)))
            sigma = normalized_sigma(rng, dim)
            out, err = orthogonalize_povm(povm, sigma)
            assert out.validate() == []
            assert is_projective(out.elements, 1e-8)
            best = brute_force_best_threshold_error(povm, sigma)
            assert err <= best + 1e-10


def test_orthogonalize_error_bound_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        dim = int(rng.integers(2, 8))
        outcomes = int(rng.integers(2, min(dim, 4) + 1))
        povm = noised_pvm(rng, dim, outcomes, float(rng.uniform(0, 0.05)))
        sigma = normalized_sigma(rng, dim)
        w = sigma @ sigma.conj().T
        eps = 1.0 - sum(
            float(np.trace(e @ e @ w).real) / dim for e in povm.elements
        )
        out, err = orthogonalize_povm(povm, sigma)
        assert out.validate() == []
        assert err <= 9 * eps + 1e-8


# ---------------------------------------------------------------------------
# verify_connes


def test_connes_identical_inputs():
    rng = np.random.default_rng(3)
    a = random_positive(rng, 4)
    lhs, rhs = verify_connes(a, a)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(0.0, abs=1e-12)


def test_connes_orthogonal_rank_one_tight():
    lhs, rhs = verify_connes(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert lhs == pytest.approx(1.0, abs=1e-10)
    assert rhs == pytest.approx(1.0, abs=1e-10)


def test_connes_inequality_random():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        lhs, rhs = verify_connes(random_positive(rng, n), random_positive(rng, n))
        assert lhs <= rhs + 1e-8


# ---------------------------------------------------------------------------
# spectral slices


def triangle_factors(n):
    """The rank factors of a symmetric projective strategy for the triangle
    game on C^n, diagonal in the state's eigenbasis: answer a to question x
    on the coordinates i = a - x mod 3."""
    pvms = np.zeros((3, 3, n, n), dtype=complex)
    for x in range(3):
        for i in range(n):
            pvms[x, (i + x) % 3, i, i] = 1.0
    return factor_stack(pvms)


def slice_pieces(spectrum):
    """(measure, rank) of each slice slice_strategies cuts."""
    dec = slice_strategies(spectrum, triangle_factors(len(spectrum)), k3_game())
    return [(sl.measure, sl.sub_dim) for sl in dec.slices]


def test_slices_identity_sigma():
    ((measure, rank),) = slice_pieces(np.ones(5))
    assert measure == pytest.approx(1.0)
    assert rank == 5


def test_slices_two_level_example():
    spectrum = np.array([1.0, 0.5])
    spectrum = spectrum / np.sqrt(np.mean(spectrum**2))  # tau(sigma^2) = 1
    scale = 2.0 / (1.0 + 0.25)
    pieces = slice_pieces(spectrum)
    assert [rank for _, rank in pieces] == [1, 2]
    assert pieces[0][0] == pytest.approx(0.75 * scale)
    assert pieces[1][0] == pytest.approx(0.25 * scale)


def test_slices_rank_one():
    ((measure, rank),) = slice_pieces(np.array([np.sqrt(2.0), 0.0]))
    assert measure == pytest.approx(2.0)
    assert rank == 1


def test_slices_reconstruct_sigma_squared():
    # sigma's eigenbasis and spectrum from the polar decomposition, slices
    # from slice_strategies, projectors rebuilt in the host frame
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        sigma = normalized_sigma(rng, n)
        polar = linalg.polar_decompose(sigma)
        v = polar.eigenbasis
        pieces = slice_pieces(polar.singular_values)
        total = sum(m * v[:, :r] @ v[:, :r].conj().T for m, r in pieces)
        np.testing.assert_allclose(total, sigma @ sigma, atol=1e-9)
        want = projector_slices(sigma)
        assert len(pieces) == len(want)
        for (m, r), (want_m, want_p) in zip(pieces, want):
            assert m == pytest.approx(want_m, abs=1e-10)
            np.testing.assert_allclose(
                v[:, :r] @ v[:, :r].conj().T, want_p, atol=1e-9
            )


@pytest.mark.parametrize(
    "spectrum",
    [
        pytest.param(np.array([0.5, np.sqrt(1.75)]), id="increasing"),
        pytest.param(np.array([np.sqrt(2.0 - 1e-6), -1e-3]), id="negative"),
        pytest.param(np.array([np.sqrt(2.0), np.nan]), id="not-finite"),
        pytest.param(np.array([1j, 1.0]), id="not-real"),
    ],
)
def test_slice_strategies_refuses_bad_spectra(spectrum):
    # tau(s^2) = 1 wherever it is finite, and the factors fit, so only the
    # type, order and sign checks can refuse the spectrum
    with pytest.raises(ValidationError, match="nonnegative nonincreasing spectrum"):
        slice_strategies(spectrum, triangle_factors(2), k3_game())


def test_slice_strategies_refuses_unnormalized_sigma():
    with pytest.raises(NotNormalized):
        slice_pieces(np.array([2.0, 1.0]))


@pytest.mark.parametrize("dims", [(1, 5), (24, 48)])
def test_rank_deficient_state_gives_no_kernel_slice(dims):
    dec = round_correlation(k3_game(), random_strategy(dims, (3, 3), 0))
    assert min(sl.measure for sl in dec.slices) >= 1e-20
    assert max(sl.sub_dim for sl in dec.slices) == min(dims)


# ---------------------------------------------------------------------------
# pipeline stages


def test_symmetrize_fixed_point():
    s = embed_tracial(entangled_coloring_strategy(3))
    polar = linalg.polar_decompose(s.sigma)
    _, _, _, _, report = symmetrize(s, k3_game(), polar)
    assert report["sym_distance"] <= 1e-10
    assert report["sym_delta"] <= 1e-10
    # sigma = I, so the symmetric state, its spectrum, is sigma itself
    np.testing.assert_allclose(np.diag(polar.singular_values), s.sigma, atol=1e-10)


def test_symmetrize_bound_on_perturbed_family():
    g = k3_game()
    base = entangled_coloring_strategy(3)
    for eta in (1e-3, 1e-2, 1e-1):
        s = embed_tracial(perturb_strategy(base, eta, 5))
        polar = linalg.polar_decompose(s.sigma)
        alice, bob, c_in, _, report = symmetrize(s, g, polar)
        np.testing.assert_allclose(c_in.table, correlation(s).table, atol=1e-12)
        # Alice in her frame L, Bob in V
        left, right = polar.left_basis, polar.eigenbasis
        np.testing.assert_array_equal(alice, left.conj().T @ s.alice @ left)
        np.testing.assert_array_equal(bob, right.conj().T @ s.bob_left @ right)
        assert report["sym_delta"] <= 2 * report["delta_in"] + 1e-8
        # distance envelope ~ sqrt(delta)
        assert report["sym_distance"] <= 20 * np.sqrt(report["delta_in"]) + 1e-8


def test_projectivize_projective_fixed_point():
    stages = rounding_stages(k3_game(), entangled_coloring_strategy(3))
    assert stages.report["proj_distance"] <= 1e-10
    assert stages.report["proj_gamma"] <= 1e-10
    assert is_projective(stages.pvms)


def test_projectivize_noised_input():
    g = k3_game()
    s = embed_tracial(entangled_coloring_strategy(3))
    noised = 0.99 * s.alice + 0.01 * np.eye(3) / 3
    noisy = TracialStrategy(3, s.sigma, noised, noised)
    pvms, _, report = projectivize(np.ones(3), noised, g, correlation(noisy))
    assert is_projective(pvms, 1e-8)
    assert povm_violations(pvms) == [[]] * 3
    assert np.isfinite(report["proj_delta"])
    assert report["proj_distance"] <= 1.0


def test_slice_strategies_flat_spectrum():
    g = k3_game()
    s = embed_tracial(entangled_coloring_strategy(3))
    corners = []
    dec = slice_strategies(
        np.ones(3), factor_stack(s.alice), g, lambda m, rank, stack: corners.append(stack)
    )
    assert len(dec.slices) == len(corners) == 1
    sl = dec.slices[0]
    assert sl.weight == pytest.approx(1.0)
    assert sl.sub_dim == 3
    # sigma = I is diagonal, so the corner is the whole coordinate space
    np.testing.assert_allclose(corners[0], s.alice, atol=1e-9)
    assert dec.diagnostics["slice_residual"] <= 1e-10


def test_slice_strategies_two_level_spectrum():
    g = k3_game()
    # symmetric projective strategy with a two-level sigma spectrum:
    # diagonal PVMs commute with any diagonal sigma
    s = embed_tracial(entangled_coloring_strategy(3))
    spectrum = np.array([1.0, 1.0, 0.5])
    spectrum = spectrum / np.sqrt(np.mean(spectrum**2))
    dec = slice_strategies(spectrum, factor_stack(s.alice), g)
    assert len(dec.slices) == 2
    weights = [sl.weight for sl in dec.slices]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert dec.slices[0].sub_dim == 2
    assert dec.slices[1].sub_dim == 3


def test_slice_correlations_synchronous_on_perturbed():
    g = k3_game()
    base = entangled_coloring_strategy(3)
    for seed in range(10):
        stages = rounding_stages(g, perturb_strategy(base, 1e-2, seed))
        dec = slice_strategies(stages.polar.singular_values, stages.factors, g)
        for c in dec.correlations:
            assert synchronicity(g, c) <= 1e-8
        assert dec.diagnostics["weight_sum"] == pytest.approx(1.0, abs=1e-9)


def test_round_correlation_perfect_strategies():
    g = k3_game()
    for s in (entangled_coloring_strategy(3),):
        dec = round_correlation(g, s)
        assert len(dec.slices) == 1
        assert dec.diagnostics["distance"] <= 1e-8


def test_round_correlation_trend():
    g = k3_game()
    base = entangled_coloring_strategy(3)
    dists = []
    for eta in (1e-1, 1e-2, 1e-3, 1e-4):
        s = perturb_strategy(base, eta, 17)
        dec = round_correlation(g, s)
        dists.append(dec.diagnostics["distance"])
    assert dists[0] > dists[1] > dists[2] > dists[3]
    assert dists[-1] < 1e-3


def test_round_correlation_mixture_is_convex():
    g = k3_game()
    s = perturb_strategy(entangled_coloring_strategy(3), 5e-2, 23)
    dec = round_correlation(g, s)
    weights = np.array([sl.weight for sl in dec.slices])
    assert np.all(weights > 0)
    mixed = sum(w * c.table for w, c in zip(weights, dec.correlations))
    np.testing.assert_allclose(mixed, dec.mixed.table, atol=1e-12)
    assert dec.mixed.validate() == []


# ---------------------------------------------------------------------------
# lemma_report


def test_lemma_report_perfect_strategy():
    g = k3_game()
    rep = lemma_report(g, rounding_stages(g, entangled_coloring_strategy(3)))
    vienna = rep["theviennalemma"]
    assert vienna["lhs"] == pytest.approx(1.0, abs=1e-10)
    assert vienna["rhs"] == pytest.approx(1.0, abs=1e-10)
    meas = rep["measurementtocoorlation"]
    assert meas["lhs"] == pytest.approx(0.0, abs=1e-10)
    assert meas["slack"] >= -1e-8


def test_lemma_report_random_strategies():
    g = k3_game()
    for seed in range(20):
        d = 2 + seed % 4
        s = random_strategy((d, d), (3, 3), seed)
        rep = lemma_report(g, rounding_stages(g, s))
        for entry in rep.values():
            assert entry["slack"] >= -1e-8


def test_lemma_report_reads_the_stored_bob(monkeypatch):
    # unbalanced, so Alice's frame L and Bob's frame V differ
    g = k3_game()
    s = random_strategy((24, 48), (3, 3), 1)
    stages = rounding_stages(g, s)
    right = stages.polar.eigenbasis
    assert not np.allclose(stages.polar.left_basis, right)
    calls = spy(monkeypatch, rounding, "_diagonal_correlation")
    rep = lemma_report(g, stages)
    # delta_A, delta_B, then the substitution
    (_, alice_l, _), (_, bob_1, bob_2), (_, pvms, bob_3) = [args for args, _ in calls]
    assert alice_l is stages.alice_l and pvms is stages.pvms
    assert bob_1 is bob_2 is bob_3 is stages.bob_v
    # the same report as from a copy of Bob rotated into V afresh
    fresh = right.conj().T @ embed_tracial(s).bob_left @ right
    monkeypatch.undo()
    want = lemma_report(g, replace(stages, bob_v=fresh))
    for lemma, entry in want.items():
        for side, value in entry.items():
            assert abs(rep[lemma][side] - value) <= 1e-12


@pytest.mark.parametrize("dims", [(24, 48), (1, 5)])
def test_lemma_report_rotates_alice_into_v_from_her_frame(dims, monkeypatch):
    # unbalanced, so L != V: the report's Alice in V is W* (L*AL) W, W = L*V,
    # and the record keeps no embedded Alice to rotate instead
    g = k3_game()
    s = random_strategy(dims, (3, 3), 1)
    stages = rounding_stages(g, s)
    right = stages.polar.eigenbasis
    assert not np.allclose(stages.polar.left_basis, right)
    assert "embedded_alice" not in {f.name for f in fields(stages)}
    rep = lemma_report(g, stages)
    # the same report with Alice rotated into V straight from the embedding
    direct = right.conj().T @ embed_tracial(s).alice @ right
    real = rounding._diagonal_correlation

    def with_direct_alice(d, left, other):
        return real(d, left, direct if left is stages.alice_l else other)

    monkeypatch.setattr(rounding, "_diagonal_correlation", with_direct_alice)
    want = lemma_report(g, stages)
    for lemma, entry in want.items():
        for side, value in entry.items():
            assert abs(rep[lemma][side] - value) <= 1e-12


def test_measurement_substitution_trivial_case():
    # substituting projective measurements for themselves gives lhs = 0
    g = k3_game()
    rep = lemma_report(g, rounding_stages(g, entangled_coloring_strategy(3)))
    assert rep["measurementtocoorlation"]["lhs"] <= 1e-10


# ---------------------------------------------------------------------------
# output types


def test_outputs_are_plain_floats():
    g = k3_game()
    for s in (
        perturb_strategy(entangled_coloring_strategy(3), 1e-2, 3),
        random_strategy((2, 4), (3, 3), 1),
    ):
        dec = round_correlation(g, s)
        for key, value in dec.diagnostics.items():
            assert type(value) is float, key
    rng = np.random.default_rng(6)
    for v in verify_connes(random_positive(rng, 4), random_positive(rng, 4)):
        assert type(v) is float


# ---------------------------------------------------------------------------
# each stage computed once


def spy(monkeypatch, module, name):
    """Record (args, result) of every call to module.name, wherever the
    package has the function bound."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for mod in (games, linalg, strategies, rounding, soundness, cli):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_sweep_task_embeds_once(monkeypatch):
    embeds = spy(monkeypatch, strategies, "embed_tracial")
    cli._sweep_block(k3_game(), entangled_coloring_strategy(3), [(1e-2, 5)], False)
    assert len(embeds) == 1


def test_sweep_task_polarizes_once(monkeypatch):
    # lemma_report reads the stages the sweep block computed
    polars = spy(monkeypatch, linalg, "polar_decompose")
    cli._sweep_block(k3_game(), entangled_coloring_strategy(3), [(1e-2, 5)], False)
    assert len(polars) == 1


def test_sweep_call_budget(monkeypatch, capsys):
    # A 32-task k3 sweep is one block.  Per task: one game check at each
    # public entry (rounding_stages, symmetrize, projectivize, lemma_report),
    # 3 eigendecompositions in perturb_strategy and 2 in projectivize's
    # kernel call, 6 correlation products (symmetrize 2, projectivize 1,
    # lemma report 3) and 5 synchronicities (2, 1, 2), each a batch of one.
    # The block is sliced together: one game check, and per corner
    # dimension r = 1, 2, 3 one kernel call (2 eigendecompositions), one
    # batched correlation product and one batched synchronicity.
    budget = {
        (games, "is_synchronous_game"): 4 * 32 + 1,
        (linalg, "eig_hermitian"): 96 + 64 + 6,
        (rounding, "_round_povm"): 32 + 3,
        (strategies, "_stacked_tables"): 6 * 32 + 3,
        (strategies, "_synchronicity"): 5 * 32,
        (strategies, "_synchronicities"): 5 * 32 + 3,
    }
    calls = {key: spy(monkeypatch, *key) for key in budget}
    argv = ["sweep", "--eta", "1e-4,1e-3,1e-2,1e-1", "--trials", "8", "--seed", "0"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 32 and {row.split(",")[4] for row in rows} == {"3"}
    assert {key: len(c) for key, c in calls.items()} == budget


def test_round_correlations_match_one_at_a_time_across_dims():
    # One block of strategies whose embeddings differ in n and whose factors
    # differ in width k, so the block's stacks are zero-padded in both.
    g = k3_game()
    block = [
        perturb_strategy(entangled_coloring_strategy(3), 1e-2, 5),
        random_strategy((1, 5), (3, 3), 2),
        random_povm_strategy((2, 4), (3, 3), 1, 0.5),
        random_strategy((6, 4), (3, 3), 3),
        entangled_coloring_strategy(3),
    ]
    stages = [rounding_stages(g, s) for s in block]
    decs = round_correlations(g, stages)
    assert all(dec.stages is st for dec, st in zip(decs, stages))
    assert round_correlations(g, []) == []
    for s, got in zip(block, decs):
        want = round_correlation(g, s)
        assert [sl.sub_dim for sl in got.slices] == [sl.sub_dim for sl in want.slices]
        assert got.diagnostics.keys() == want.diagnostics.keys()
        for key, value in want.diagnostics.items():
            assert abs(got.diagnostics[key] - value) <= 1e-12, key
        for c_got, c_want in zip(got.correlations, want.correlations):
            np.testing.assert_allclose(c_got.table, c_want.table, rtol=0, atol=1e-12)


def non_synchronous(game):
    """game with question 0 won on every answer pair it asks itself."""
    win = game.win.copy()
    win[0, 0] = True
    return Game(game.questions, game.answers, game.mu, win)


def test_every_public_entry_checks_the_game():
    g = k3_game()
    bad = non_synchronous(g)
    s = perturb_strategy(entangled_coloring_strategy(3), 1e-2, 5)
    stages = rounding_stages(g, s)
    spectrum = stages.polar.singular_values
    entries = {
        "synchronicity": lambda: synchronicity(bad, stages.c_in),
        "symmetrize": lambda: symmetrize(embed_tracial(s), bad, stages.polar),
        "projectivize": lambda: projectivize(spectrum, stages.alice_l, bad, stages.c_in),
        "slice_strategies": lambda: slice_strategies(spectrum, stages.factors, bad),
        "lemma_report": lambda: lemma_report(bad, stages),
        "rounding_stages": lambda: rounding_stages(bad, s),
        "round_correlation": lambda: round_correlation(bad, s),
        "round_correlations": lambda: round_correlations(bad, [stages]),
    }
    for name, call in entries.items():
        with pytest.raises(NotSynchronousGame):
            call()
            pytest.fail(f"{name} accepted a non-synchronous game")


BAD_LIBRARY_CALLS = {
    "connes-shapes": lambda: verify_connes(np.eye(2), np.eye(3)),
    "connes-empty": lambda: verify_connes(np.zeros((0, 0)), np.zeros((0, 0))),
    "slice-empty": lambda: slice_strategies(np.array([]), np.zeros((3, 3, 0, 1)), k3_game()),
    "orthogonalize-shapes": lambda: orthogonalize_povm(
        Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), np.eye(3)
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_LIBRARY_CALLS))
def test_bad_library_input_is_refused_before_any_decomposition(case, monkeypatch):
    eigs = spy(monkeypatch, linalg, "eig_hermitian")
    polars = spy(monkeypatch, linalg, "polar_decompose")
    with pytest.raises(ValidationError):
        BAD_LIBRARY_CALLS[case]()
    assert eigs == [] and polars == []


def test_round_correlation_correlates_the_embedding_once(monkeypatch):
    # c_in is taken once, at the spectrum of the one SVD, so no dense
    # correlation of the embedding is formed
    embeds = spy(monkeypatch, strategies, "embed_tracial")
    correlations = spy(monkeypatch, strategies, "correlation")
    polars = spy(monkeypatch, linalg, "polar_decompose")
    s = random_strategy((4, 6), (3, 3), 2)
    dec = round_correlation(k3_game(), s)
    assert len(embeds) == 1
    ((_, polar),) = polars
    assert dec.stages.polar is polar
    assert correlations == []
    want = strategies.tensor_correlation(s).table
    np.testing.assert_allclose(dec.stages.c_in.table, want, rtol=0, atol=1e-12)


def test_round_correlation_on_a_loaded_strategy_builds_no_povm(monkeypatch, tmp_path):
    # every stage reads and writes element stacks; only the loader and
    # TensorStrategy hold Povm families
    path = tmp_path / "s.json"
    io.save_path(str(path), io.strategy_to_dict(random_strategy((4, 6), (3, 3), 1)))
    s = io.load_path(str(path), "strategy")
    real = Povm.__post_init__
    built = []

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(Povm, "__post_init__", counting)
    dec = round_correlation(k3_game(), s)
    assert len(dec.slices) == 4
    assert built == []


def test_round_correlation_retains_no_corners():
    # At d=48 the corner PVMs add up to sum_r 9 r^2 complex entries, about
    # 5.4 MB; the record's stacks (Alice in L, Bob in V, the PVMs and their
    # factors) and the slice tables the decomposition does keep are about
    # 1.4 MB.
    g = k3_game()
    s = random_strategy((48, 48), (3, 3), 0)
    round_correlation(g, random_strategy((3, 3), (3, 3), 0))  # warm caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec = round_correlation(g, s)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(dec.slices) == 48
    assert retained < 2e6


def test_soundness_demo_embeds_and_polarizes_once(monkeypatch):
    embeds = spy(monkeypatch, strategies, "embed_tracial")
    polars = spy(monkeypatch, linalg, "polar_decompose")
    g = k3_game()
    s = perturb_strategy(entangled_coloring_strategy(3), 1e-2, 4)
    soundness.soundness_transfer_demo(g, soundness.identity_consistency_instance(g), s)
    assert len(embeds) == 1
    assert len(polars) == 1
