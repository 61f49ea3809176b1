"""Unit tests for the soundness-transfer machinery."""

import numpy as np
import pytest

from reference import expand_corner, host_aggregate, padded_targets
from syncround import linalg
from syncround.errors import DominationViolated, NotPovm, ValidationError
from syncround.games import k3_game
from syncround.rounding import round_correlation
from syncround.soundness import (
    SoundnessInstance,
    aggregate_slice_povms,
    dominated_factorization,
    identity_consistency_instance,
    soundness_transfer_demo,
)
from syncround.strategies import (
    Povm,
    entangled_coloring_strategy,
    perturb_strategy,
    random_strategy,
)


def random_positive(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n


def sqrtm_psd(a):
    vals, vecs = np.linalg.eigh(a)
    return (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T


# ---------------------------------------------------------------------------
# dominated_factorization


def test_factorization_diagonal_example():
    a = np.diag([1.0, 0.5])
    b = np.diag([0.5, 0.5])
    c = dominated_factorization(a, b)
    np.testing.assert_allclose(c, np.diag([0.5, 1.0]), atol=1e-12)
    root = sqrtm_psd(a)
    np.testing.assert_allclose(root @ c @ root, b, atol=1e-12)


def test_factorization_saturation():
    rng = np.random.default_rng(0)
    a = random_positive(rng, 4) + 0.1 * np.eye(4)
    c = dominated_factorization(a, a)
    np.testing.assert_allclose(c, np.eye(4), atol=1e-9)


def test_factorization_zero():
    rng = np.random.default_rng(1)
    a = random_positive(rng, 3)
    np.testing.assert_allclose(
        dominated_factorization(a, np.zeros((3, 3))), 0, atol=1e-12
    )


def test_factorization_rejects_undominated():
    with pytest.raises(DominationViolated):
        dominated_factorization(np.diag([1.0, 0.5]), np.diag([0.5, 1.0]))


def test_factorization_reconstructs_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = random_positive(rng, n) + 0.05 * np.eye(n)
        # build a dominated B = sqrt(A) C0 sqrt(A) with 0 <= C0 <= I
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (g + g.conj().T) / 2
        vals, vecs = np.linalg.eigh(h)
        c0 = (vecs * rng.uniform(0, 1, size=n)) @ vecs.conj().T
        root = sqrtm_psd(a)
        b = root @ c0 @ root
        c = dominated_factorization(a, b)
        np.testing.assert_allclose(root @ c @ root, b, atol=1e-8)
        # 0 <= C <= I
        cv = np.linalg.eigvalsh(linalg.hermitize(c))
        assert cv[0] >= -1e-8 and cv[-1] <= 1 + 1e-8


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
    np.testing.assert_allclose(families[0].elements, pvm.elements, atol=1e-9)


def test_aggregate_degenerate_all_mass_on_one_outcome():
    # corner family puts the corner identity on outcome 0
    elements = np.zeros((2, 3, 3), dtype=complex)
    elements[0] = np.eye(3)
    families = aggregate_slice_povms(
        np.ones(3), padded_targets(3, [(1.0, 3, [Povm(elements)])])
    )
    np.testing.assert_allclose(families[0].elements[0], np.eye(3), atol=1e-9)
    np.testing.assert_allclose(families[0].elements[1], 0, atol=1e-9)


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
    family = families[0]
    assert family.validate() == []
    for b in range(2):
        target = sum(
            m * padded(corner[0].elements[b], 2) for m, _, corner in slices
        )
        recon = sigma @ family.elements[b] @ sigma
        assert linalg.frobenius(recon - target) <= 1e-8


def test_aggregate_kernel_deficit_goes_to_outcome_zero():
    # rank-deficient sigma: the kernel completion lands on outcome 0
    corner = [Povm(np.array([[[1.0 + 0j]], [[0.0 + 0j]]]))]
    families = aggregate_slice_povms(
        np.array([np.sqrt(2.0), 0.0]), padded_targets(2, [(2.0, 1, corner)])
    )
    family = families[0]
    assert family.validate() == []
    assert family.elements[0][1, 1] == pytest.approx(1.0)


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
        np.testing.assert_allclose(
            families[0].elements, host[0].elements, atol=1e-10
        )
        expected = 1.0 if on_support else 0.0
        assert families[0].elements[1][1, 1].real == pytest.approx(expected)


# ---------------------------------------------------------------------------
# soundness instance + demo


def test_instance_validation_rejects_overlapping_blocks():
    g = k3_game()
    inst = identity_consistency_instance(g)
    bad = SoundnessInstance(
        inst.aux_questions,
        inst.aux_answers,
        inst.rho,
        lambda x, y, a: frozenset({0}),
        inst.kappa,
    )
    with pytest.raises(ValidationError):
        bad.validate(g.n_questions, g.n_answers)


def test_instance_validation_rejects_bad_rho():
    g = k3_game()
    inst = identity_consistency_instance(g)
    bad = SoundnessInstance(
        inst.aux_questions, inst.aux_answers, inst.rho * 0.5, inst.g, inst.kappa
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
    zero = SoundnessInstance(
        inst.aux_questions, inst.aux_answers, inst.rho, inst.g, lambda w: 0.0
    )
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
    each slice's corner, collected through on_slice, expanded by sigma+'s
    leading eigenvectors, the families aggregated with
    pseudo_inv_sqrt(sigma+^2), and tau(sigma+ A sigma+ H) taken with the
    embedded strategy's elements."""
    corners = []
    dec = round_correlation(
        game, s, on_slice=lambda m, rank, stack: corners.append((m, rank, stack))
    )
    assert [rank for _, rank, _ in corners] == [sl.sub_dim for sl in dec.slices]
    polar = linalg.polar_decompose(dec.embedded.sigma)
    v, sigma_plus = polar.eigenbasis, polar.positive_part
    slices = [
        (m, v[:, :rank], [Povm(corner) for corner in stack])
        for m, rank, stack in corners
    ]
    families = host_aggregate(sigma_plus, slices)
    rho = np.asarray(inst.rho, dtype=float)
    total = 0.0
    for x in range(game.n_questions):
        for y in range(len(inst.aux_questions)):
            for a in range(game.n_answers):
                block = inst.g(x, y, a)
                if rho[x, y] == 0.0 or not block:
                    continue
                h = sum(families[y].elements[b] for b in block)
                left = sigma_plus @ dec.embedded.alice[x].elements[a] @ sigma_plus
                total += rho[x, y] * linalg.tau(left @ h).real
    return total


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
    inst = identity_consistency_instance(g)
    s = DEMO_CASES[name]
    report = soundness_transfer_demo(g, inst, s)
    want = host_frame_transferred(g, inst, s)
    assert abs(report["transferred_expectation"] - want) <= 1e-10
