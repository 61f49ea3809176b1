"""Unit tests for the soundness-transfer machinery."""

import numpy as np
import pytest

from reference import expand_corner, host_aggregate, padded_targets
from syncround import linalg, soundness
from syncround.errors import (
    AlphabetMismatch,
    NotPovm,
    ValidationError,
)
from syncround.games import Game, k3_game
from syncround.rounding import round_correlation
from syncround.soundness import (
    SoundnessInstance,
    aggregate_slice_povms,
    identity_consistency_instance,
    soundness_transfer_demo,
)
from syncround.strategies import (
    Povm,
    correlation,
    embed_tracial,
    entangled_coloring_strategy,
    perturb_strategy,
    povm_violations,
    random_strategy,
)


# ---------------------------------------------------------------------------
# aggregate_slice_povms


def basis_pvm(dim):
    elements = np.zeros((dim, dim, dim), dtype=complex)
    for k in range(dim):
        elements[k, k, k] = 1.0
    return Povm(elements)


def two_slice_fixture():
    """A two-level spectrum with diagonal corner POVMs, in sigma's
    eigenbasis: (spectrum, [(measure, rank, corner POVMs)])."""
    spectrum = np.array([1.0, 0.5])
    spectrum = spectrum / np.sqrt(np.mean(spectrum**2))
    s1, s2 = spectrum
    corner1 = [Povm(np.array([[[1.0 + 0j]], [[0.0 + 0j]]]))]
    corner2 = [basis_pvm(2)]
    slices = [
        (s1**2 - s2**2, 1, corner1),
        (s2**2, 2, corner2),
    ]
    return spectrum, slices


def padded(x, n):
    """A corner operator zero-padded to the leading block of C^n."""
    return expand_corner(x, np.eye(n)[:, : len(x)])


def test_aggregate_single_slice_identity_sigma():
    pvm = basis_pvm(3)
    families = aggregate_slice_povms(np.ones(3), padded_targets(3, [(1.0, 3, [pvm])]))
    np.testing.assert_allclose(families[0], pvm.elements, atol=1e-9)


def test_aggregate_degenerate_all_mass_on_one_outcome():
    # corner family puts the corner identity on outcome 0
    elements = np.zeros((2, 3, 3), dtype=complex)
    elements[0] = np.eye(3)
    families = aggregate_slice_povms(
        np.ones(3), padded_targets(3, [(1.0, 3, [Povm(elements)])])
    )
    np.testing.assert_allclose(families[0][0], np.eye(3), atol=1e-9)
    np.testing.assert_allclose(families[0][1], 0, atol=1e-9)


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_aggregate_names_the_family_that_is_not_a_povm(bad):
    pvm = basis_pvm(3).elements
    targets = np.array([pvm, pvm[[1, 2, 0]], pvm[[2, 0, 1]]])
    targets[bad, 1, 0, 0] = -0.5
    with pytest.raises(NotPovm, match=f"question {bad} is not a POVM"):
        aggregate_slice_povms(np.ones(3), targets)


def test_aggregate_two_slice_reconstruction():
    spectrum, slices = two_slice_fixture()
    sigma = np.diag(spectrum)
    families = aggregate_slice_povms(spectrum, padded_targets(2, slices))
    assert len(families) == 1
    assert povm_violations(families) == [[]]
    for b in range(2):
        target = sum(
            m * padded(corner[0].elements[b], 2) for m, _, corner in slices
        )
        recon = sigma @ families[0][b] @ sigma
        assert linalg.frobenius(recon - target) <= 1e-8


def test_aggregate_kernel_deficit_goes_to_outcome_zero():
    # rank-deficient sigma: the kernel completion lands on outcome 0
    corner = [Povm(np.array([[[1.0 + 0j]], [[0.0 + 0j]]]))]
    families = aggregate_slice_povms(
        np.array([np.sqrt(2.0), 0.0]), padded_targets(2, [(2.0, 1, corner)])
    )
    assert povm_violations(families) == [[]]
    assert families[0][0][1, 1] == pytest.approx(1.0)


def test_aggregate_support_cut_matches_pseudo_inv_sqrt():
    # s^2 at 1e-9 of the largest is on the support, at 1e-11 it is kernel
    pvm = basis_pvm(2)
    top = Povm(pvm.elements[:, :1, :1])
    for tail_sq, on_support in ((1e-9, True), (1e-11, False)):
        spectrum = np.array([1.0, np.sqrt(tail_sq)])
        measures = (1.0 - tail_sq, tail_sq)
        families = aggregate_slice_povms(
            spectrum,
            padded_targets(2, [(measures[0], 1, [top]), (measures[1], 2, [pvm])]),
        )
        host = host_aggregate(
            np.diag(spectrum),
            [(measures[0], np.eye(2)[:, :1], [top]), (measures[1], np.eye(2), [pvm])],
        )
        np.testing.assert_allclose(families[0], host[0].elements, atol=1e-10)
        expected = 1.0 if on_support else 0.0
        assert families[0][1][1, 1].real == pytest.approx(expected)


# ---------------------------------------------------------------------------
# soundness instance + demo


def consistency_test(mu, win, n_questions=3, n_answers=3):
    """A consistency-test game asking mu over its question pairs and
    accepting the answer pairs win marks."""
    return Game(
        tuple(f"y{i}" for i in range(n_questions)),
        tuple(f"b{i}" for i in range(n_answers)),
        np.asarray(mu, dtype=float),
        win,
    )


def shifted_win(nq, na, nb, shift=0):
    """win[x, y, a, b] = [b == a + shift], for b in range(nb)."""
    win = np.zeros((nq, nq, na, nb), dtype=bool)
    for a in range(na):
        if 0 <= a + shift < nb:
            win[:, :, a, a + shift] = True
    return win


def overlapping_win():
    win = np.zeros((3, 3, 3, 3), dtype=bool)
    win[..., 0] = True  # every a is consistent with b = 0
    return win


# Each instance the k3 game's 3x3 strategies cannot carry, with the error
# validate must raise for it.
MALFORMED = {
    "four-aux-questions": (
        consistency_test(np.full((4, 4), 1 / 16), shifted_win(4, 3, 3), n_questions=4),
        AlphabetMismatch,
    ),
    "rho-over-four-aux-questions": (
        consistency_test(np.full((3, 4), 1 / 12), shifted_win(3, 3, 3)),
        ValidationError,
    ),
    "two-aux-questions": (
        consistency_test(np.full((2, 2), 1 / 4), shifted_win(2, 3, 3), n_questions=2),
        AlphabetMismatch,
    ),
    "five-aux-answers": (
        consistency_test(np.eye(3) / 3, shifted_win(3, 5, 5), n_answers=5),
        AlphabetMismatch,
    ),
    "answer-outside-alphabet": (
        consistency_test(np.eye(3) / 3, shifted_win(3, 3, 4, shift=1)),
        ValidationError,
    ),
    "unnormalized-rho": (
        consistency_test(np.eye(3) / 6, shifted_win(3, 3, 3)),
        ValidationError,
    ),
    "negative-rho": (
        consistency_test(np.diag([0.5, 0.75, -0.25]), shifted_win(3, 3, 3)),
        ValidationError,
    ),
    "overlapping-consistent-answers": (
        consistency_test(np.eye(3) / 3, overlapping_win()),
        ValidationError,
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_instance_is_refused_before_rounding(name, monkeypatch):
    test, error = MALFORMED[name]
    inst = SoundnessInstance(test, kappa=lambda w: w)
    g = k3_game()
    with pytest.raises(error):
        inst.validate(g.n_questions, g.n_answers)

    def no_rounding(*args, **kwargs):
        raise AssertionError("rounding started on a malformed instance")

    monkeypatch.setattr(soundness, "round_correlation", no_rounding)
    with pytest.raises(error):
        soundness_transfer_demo(g, inst, entangled_coloring_strategy(3))


def test_instance_validation_rejects_overlapping_blocks():
    g = k3_game()
    inst = identity_consistency_instance(g)
    test = inst.test
    bad = SoundnessInstance(
        Game(test.questions, test.answers, test.mu, overlapping_win()), inst.kappa
    )
    with pytest.raises(ValidationError):
        bad.validate(g.n_questions, g.n_answers)


def test_instance_validation_rejects_bad_rho():
    g = k3_game()
    inst = identity_consistency_instance(g)
    test = inst.test
    bad = SoundnessInstance(
        Game(test.questions, test.answers, test.mu * 0.5, test.win), inst.kappa
    )
    with pytest.raises(ValidationError):
        bad.validate(g.n_questions, g.n_answers)


def test_demo_perfect_strategy():
    g = k3_game()
    s = entangled_coloring_strategy(3)
    report = soundness_transfer_demo(g, identity_consistency_instance(g), s)
    assert report["omega"] == pytest.approx(1.0, abs=1e-9)
    assert report["delta"] == pytest.approx(0.0, abs=1e-9)
    assert report["transferred_expectation"] == pytest.approx(1.0, abs=1e-8)
    assert report["kappa_at_omega"] <= 1.0


def test_demo_kappa_zero():
    g = k3_game()
    inst = identity_consistency_instance(g)
    zero = SoundnessInstance(inst.test, lambda w: 0.0)
    s = entangled_coloring_strategy(3)
    report = soundness_transfer_demo(g, zero, s)
    assert report["kappa_at_omega"] == 0.0
    assert report["transferred_expectation"] >= report["kappa_at_omega"] - 1e-9


def test_demo_degrades_continuously():
    g = k3_game()
    inst = identity_consistency_instance(g)
    base = entangled_coloring_strategy(3)
    values = []
    for eta in (1e-3, 1e-2, 1e-1):
        report = soundness_transfer_demo(g, inst, perturb_strategy(base, eta, 9))
        values.append(report["transferred_expectation"])
        assert report["delta"] < 0.1
    assert values[0] > values[2]
    assert values[0] == pytest.approx(1.0, abs=1e-2)


def host_frame_transferred(game, inst, s):
    """soundness_transfer_demo's transferred expectation in the host frame:
    sigma+ = |sigma*| = u |sigma| u*, whose eigenbasis is Alice's frame L;
    each slice's corner, collected through on_slice, expanded by L's
    leading columns, the families aggregated with
    pseudo_inv_sqrt(sigma+^2), and tau(sigma+ A sigma+ H) taken with the
    embedded strategy's elements, summed over the test's rho and its
    consistent answers."""
    corners = []
    dec = round_correlation(
        game, s, on_slice=lambda m, rank, stack: corners.append((m, rank, stack))
    )
    assert [rank for _, rank, _ in corners] == [sl.sub_dim for sl in dec.slices]
    polar = linalg.polar_decompose(dec.stages.embedded.sigma)
    u, frame = polar.isometry_part, polar.left_basis
    sigma_plus = u @ polar.positive_part @ u.conj().T
    slices = [
        (m, frame[:, :rank], [Povm(corner) for corner in stack])
        for m, rank, stack in corners
    ]
    families = host_aggregate(sigma_plus, slices)
    rho, win = inst.test.mu, inst.test.win
    total = 0.0
    for x in range(game.n_questions):
        for y in range(game.n_questions):
            for a in range(game.n_answers):
                block = [b for b in range(game.n_answers) if win[x, y, a, b]]
                if rho[x, y] == 0.0 or not block:
                    continue
                h = sum(families[y].elements[b] for b in block)
                left = sigma_plus @ dec.stages.embedded.alice[x, a] @ sigma_plus
                total += rho[x, y] * linalg.tau(left @ h).real
    return total


def loop_marginal_sync(inst, c):
    """Off-diagonal answer mass on (x, x) under rho's X-marginal, by loops."""
    rho, table = inst.test.mu, c.table
    total = 0.0
    for x in range(rho.shape[0]):
        rho_x = sum(rho[x, y] for y in range(rho.shape[1]))
        for a in range(table.shape[2]):
            for b in range(table.shape[3]):
                if a != b:
                    total += rho_x * table[x, x, a, b]
    return total


def asymmetric_test(game):
    """rho asymmetric and off the diagonal; b = a + x + 2y mod 3 is
    consistent, so swapping x with y or a with b changes the value."""
    rho = np.array([[0.2, 0.1, 0.0], [0.0, 0.05, 0.3], [0.15, 0.0, 0.2]])
    win = np.zeros(game.win.shape, dtype=bool)
    for x, y, a in np.ndindex(3, 3, 3):
        win[x, y, a, (a + x + 2 * y) % 3] = True
    return Game(game.questions, game.answers, rho, win)


def partial_test(game):
    """Under the k3 game's own rho, answer a = x has no consistent b."""
    win = np.broadcast_to(np.eye(3, dtype=bool), game.win.shape).copy()
    for x in range(3):
        win[x, :, x, :] = False
    return Game(game.questions, game.answers, game.mu, win)


def shifted_test(game):
    """Under the k3 game's own rho, b = a + 1 mod 3 is consistent."""
    win = np.broadcast_to(np.roll(np.eye(3, dtype=bool), 1, axis=1), game.win.shape)
    return Game(game.questions, game.answers, game.mu, win)


CONSISTENCY_TESTS = {
    "identity": lambda g: identity_consistency_instance(g).test,
    "shifted": shifted_test,
    "partial": partial_test,
    "asymmetric": asymmetric_test,
}


DEMO_CASES = {
    "random-24x24": random_strategy((24, 24), (3, 3), 0),
    "random-12x12": random_strategy((12, 12), (3, 3), 1),
    "random-1x5": random_strategy((1, 5), (3, 3), 2),
    "random-5x1": random_strategy((5, 1), (3, 3), 0),
    "perturbed-k3": perturb_strategy(entangled_coloring_strategy(3), 0.3, 1),
}


@pytest.mark.parametrize("name", sorted(DEMO_CASES))
def test_demo_matches_host_frame_reference(name):
    g = k3_game()
    s = DEMO_CASES[name]
    c_in = correlation(embed_tracial(s))
    for test_name, make_test in CONSISTENCY_TESTS.items():
        inst = SoundnessInstance(make_test(g), kappa=lambda w: w)
        report = soundness_transfer_demo(g, inst, s)
        want = host_frame_transferred(g, inst, s)
        got = report["transferred_expectation"]
        assert abs(got - want) <= 1e-10, (test_name, got, want)
        sync = loop_marginal_sync(inst, c_in)
        assert abs(report["marginal_sync"] - sync) <= 1e-12, (test_name, sync)
