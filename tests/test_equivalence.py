"""Pin the spectral rewrites against the direct algorithms they replaced.

The reference functions below are the straightforward per-slice,
per-breakpoint and per-entry computations: compress each corner with an
n x n projector and expand it back for the residual, rebuild both spectral
projectors at every breakpoint, and evaluate every correlation entry as
its own trace.  The library computes the same quantities from one
eigenbasis rotation, one overlap prefix sum and one matrix product; the
two must agree to 1e-10.
"""

from dataclasses import replace

import numpy as np
import pytest

from reference import (
    chi_geq,
    dense_lemma_report,
    dense_orthogonalize,
    expand_corner,
    factor_round,
    padded_factors,
    rank_factor,
    spectral_pieces,
)
from syncround import linalg, rounding
from syncround.errors import (
    BoundViolated,
    NotNormalized,
    NotPositive,
    ValidationError,
)
from syncround.games import k3_game
from syncround.linalg import CLUSTER_TOL
from syncround.rounding import (
    _round_povm,
    _spectral_pieces,
    lemma_report,
    orthogonalize_povm,
    round_correlation,
    rounding_stages,
    slice_strategies,
    verify_connes,
)
from syncround.strategies import (
    Povm,
    TensorStrategy,
    TracialStrategy,
    correlation,
    embed_tracial,
    entangled_coloring_strategy,
    perturb_strategy,
    random_povm_strategy,
    random_strategy,
)

TOL = 1e-10


# ---------------------------------------------------------------------------
# reference algorithms


def reference_correlation(s):
    """One trace per entry: C[x, y, a, b] = Re tau(sigma* A sigma B)."""
    nq, na = s.n_questions, s.n_answers
    table = np.zeros((nq, nq, na, na))
    sig = s.sigma
    for x in range(nq):
        for y in range(nq):
            for a in range(na):
                for b in range(na):
                    left = sig.conj().T @ s.alice[x, a] @ sig
                    val = linalg.tau(left @ s.bob_left[y, b])
                    table[x, y, a, b] = val.real
    return table


def reference_connes(rho, sigma):
    """Two spectral projectors per breakpoint interval."""
    r = linalg.hermitize(rho)
    s = linalg.hermitize(sigma)
    evs = []
    for name, m in (("rho", r), ("sigma", s)):
        vals = np.linalg.eigvalsh(m)
        if vals[0] < -1e-10:
            raise NotPositive(f"{name} has eigenvalue {vals[0]:.3e}")
        evs.append(np.clip(vals, 0.0, None))
    breakpoints = np.sort(np.concatenate(([0.0], evs[0] ** 2, evs[1] ** 2)))
    lhs = 0.0
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        if hi - lo <= CLUSTER_TOL:
            continue
        mid = np.sqrt((lo + hi) / 2.0)
        diff = chi_geq(r, mid) - chi_geq(s, mid)
        lhs += (hi - lo) * linalg.tau_norm(diff) ** 2
    return lhs, linalg.tau_norm(r - s) * linalg.tau_norm(r + s)


def reference_orthogonalize(povm, sigma):
    """Sequential spectral rounding with rank-one accumulation and one
    weighted trace per element.  Returns (pvm, error); an error above
    9 epsilon + 1e-8 raises BoundViolated."""
    n = povm.dim
    w = sigma @ sigma.conj().T

    def weighted_error(pvm):
        return sum(
            float(np.trace((a - p) @ (a - p) @ w).real) / n
            for a, p in zip(povm.elements, pvm)
        )

    eps = 1.0 - sum(float(np.trace(e @ e @ w).real) / n for e in povm.elements)
    bound = 9.0 * eps + 1e-8
    masses = [float(np.trace(e @ w).real) / n for e in povm.elements]
    order = np.argsort(-np.array(masses), kind="stable")
    vectors, labels = [], []
    basis = np.eye(n, dtype=complex)
    for idx, x in enumerate(order):
        if basis.shape[1] == 0:
            break
        if idx == len(order) - 1:
            keep, rest = basis, basis[:, :0]
        else:
            corner = linalg.hermitize(
                basis.conj().T @ povm.elements[x] @ basis, tol=1e-7
            )
            dec = linalg.eig_hermitian(corner)
            sel = dec.eigenvalues >= 0.5 - CLUSTER_TOL
            keep = basis @ dec.eigenvectors[:, sel]
            rest = basis @ dec.eigenvectors[:, ~sel]
        for k in range(keep.shape[1]):
            vectors.append(keep[:, k])
            labels.append(int(x))
        basis = rest

    pvm = np.zeros((povm.outcomes, n, n), dtype=complex)
    for v, x in zip(vectors, labels):
        pvm[x] += np.outer(v, v.conj())
    error = weighted_error(pvm)
    if error > bound:
        raise BoundViolated(f"error {error:.3e} exceeds {bound:.3e}")
    return pvm, error


def sigma_frame(sigma):
    """sigma's eigenvalues and eigenvectors, nonincreasing.  A diagonal
    sigma, as symmetrize returns it, keeps the coordinate frame: eigh would
    reverse the order inside a degenerate cluster (for sigma = I it returns
    the reversal permutation)."""
    if np.array_equal(sigma, np.diag(np.diagonal(sigma))):
        return np.diagonal(sigma).real, np.eye(len(sigma), dtype=complex)
    dec = linalg.eig_hermitian(linalg.hermitize(sigma))
    return dec.eigenvalues, dec.eigenvectors


def reference_slices(s, game):
    """Per slice: an n x n projector, compress, round, expand, residual."""
    eigenvalues, eigenvectors = sigma_frame(s.sigma)
    n = s.dim
    pieces = []
    residual = 0.0
    for measure, used in spectral_pieces(np.clip(eigenvalues, 0.0, None)):
        basis = eigenvectors[:, :used].copy()
        projector = basis @ basis.conj().T
        pvms = []
        for elements in s.alice:
            compressed = Povm(
                np.array(
                    [
                        linalg.hermitize(basis.conj().T @ e @ basis, tol=1e-7)
                        for e in elements
                    ]
                )
            )
            pvms.append(reference_orthogonalize(compressed, np.eye(used))[0])
        for x in range(s.n_questions):
            for a in range(s.n_answers):
                d = s.alice[x, a] - expand_corner(pvms[x][a], basis)
                residual += (
                    game.mu_x[x] * measure * linalg.tau_norm(d @ projector) ** 2
                )
        pieces.append((measure * used / n, measure, used, pvms))
    return pieces, residual


# ---------------------------------------------------------------------------
# inputs


def rank_deficient_strategy(dims, rank, seed):
    """random_strategy with its coefficient matrix truncated to `rank`."""
    s = random_strategy(dims, (3, 3), seed)
    u, sv, vh = np.linalg.svd(s.state.reshape(dims))
    sv[rank:] = 0.0
    state = ((u[:, : len(sv)] * sv) @ vh[: len(sv)]).reshape(-1)
    state /= np.linalg.norm(state)
    return TensorStrategy(s.dim_a, s.dim_b, state, s.alice, s.bob)


def tensor_cases():
    cases = {
        "entangled-k3": entangled_coloring_strategy(3),
        "perturbed-k3": perturb_strategy(entangled_coloring_strategy(3), 5e-2, 7),
        "rank-2": rank_deficient_strategy((5, 5), 2, 4),
        "rank-1-unbalanced": rank_deficient_strategy((3, 6), 1, 5),
    }
    for dims in ((6, 6), (12, 12), (4, 9), (9, 4), (1, 5), (5, 1)):
        for seed in range(2):
            cases[f"random-{dims[0]}x{dims[1]}-{seed}"] = random_strategy(
                dims, (3, 3), seed
            )
    return cases


TENSOR_CASES = tensor_cases()


def projective_symmetric(s):
    return rounding_stages(k3_game(), s).projective


# ---------------------------------------------------------------------------
# tests


def complex_diagonal_state(s):
    """s at a seeded complex diagonal state, normalized."""
    rng = np.random.default_rng(s.dim)
    d = rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)
    d /= np.sqrt(np.mean(np.abs(d) ** 2))
    return type(s)(s.dim, np.diag(d), s.alice, s.bob_left)


@pytest.mark.parametrize("name", sorted(TENSOR_CASES))
def test_correlation_matches_entrywise(name):
    embedded = embed_tracial(TENSOR_CASES[name])
    symmetric = projective_symmetric(TENSOR_CASES[name])
    for s in (embedded, symmetric, complex_diagonal_state(embedded)):
        np.testing.assert_allclose(
            correlation(s).table, reference_correlation(s), rtol=0, atol=TOL
        )


# Larger corners for the slice test.  In the rank-deficient one the corners
# reach r = 12, past the rank 8 of two of each PVM's three elements.
SLICE_CASES = {
    **TENSOR_CASES,
    "random-24x24-0": random_strategy((24, 24), (3, 3), 0),
    "rank-12-24x48": rank_deficient_strategy((24, 48), 12, 6),
}


@pytest.mark.parametrize("name", sorted(SLICE_CASES))
def test_slices_match_compress_expand(name):
    game = k3_game()
    s = projective_symmetric(SLICE_CASES[name])
    corners = []
    dec = slice_strategies(
        s, game, lambda m, rank, stack: corners.append((m, rank, stack))
    )
    pieces, residual = reference_slices(s, game)
    assert len(dec.slices) == len(pieces) == len(corners)
    for sl, c_sub, (m, r, stack), (weight, measure, rank, pvms) in zip(
        dec.slices, dec.correlations, corners, pieces
    ):
        assert sl.sub_dim == r == rank
        assert abs(sl.weight - weight) <= TOL
        assert abs(sl.measure - measure) <= TOL
        assert m == sl.measure
        # the hook sees each slice's corner PVMs as one stacked array
        assert stack.shape == (s.n_questions, s.n_answers, rank, rank)
        for got, want in zip(stack, pvms):
            np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
        corner = TracialStrategy(rank, np.eye(rank), stack, stack)
        np.testing.assert_allclose(
            c_sub.table, reference_correlation(corner), rtol=0, atol=TOL
        )
    assert abs(dec.diagnostics["slice_residual"] - residual) <= TOL


def assert_factors_reproduce(pvm, factors):
    """factors, the (nq, na, n, k) stack the rounding kernel returns with the
    (nq, na, n, n) pvm, gives each element as F_a F_a* to 1e-12; each
    question's columns, cut at the ranks tr P_a, are an orthonormal basis
    split by outcome, every column past a rank is zero and k is the
    largest rank."""
    nq, na, n, k = factors.shape
    assert pvm.shape == (nq, na, n, n)
    np.testing.assert_allclose(
        factors @ factors.conj().swapaxes(-1, -2), pvm, rtol=0, atol=1e-12
    )
    ranks = np.rint(np.trace(pvm, axis1=2, axis2=3).real).astype(int)
    assert k == ranks.max()
    assert not np.any(factors * (np.arange(k) >= ranks[..., None])[:, :, None])
    for f, r in zip(factors, ranks):
        basis = np.concatenate([c[:, :m] for c, m in zip(f, r)], axis=1)
        assert basis.shape == (n, n)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(n), rtol=0, atol=1e-12)


def checked_orthogonalize(povm, sigma):
    """orthogonalize_povm, with the factors of its one kernel call checked
    by assert_factors_reproduce."""
    real = rounding._round_povm
    calls = []

    def recording(*args):
        calls.append(real(*args))
        return calls[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rounding, "_round_povm", recording)
        got, err = orthogonalize_povm(povm, sigma)
    ((pvm, factors, _),) = calls
    assert_factors_reproduce(pvm, factors)
    return got, err


@pytest.mark.parametrize("name", sorted(TENSOR_CASES))
def test_orthogonalize_matches_reference(name):
    s = embed_tracial(TENSOR_CASES[name])
    sigma = linalg.polar_decompose(s.sigma).positive_part
    for elements in s.alice:
        noised = Povm(0.97 * elements + 0.03 * np.eye(s.dim) / 3)
        for candidate in (Povm(elements), noised):
            for weight in (sigma, s.sigma, np.eye(s.dim)):
                got, err = checked_orthogonalize(candidate, weight)
                want, want_err = reference_orthogonalize(candidate, weight)
                np.testing.assert_allclose(got.elements, want, rtol=0, atol=TOL)
                assert abs(err - want_err) <= TOL


def skewed_povm_case(seed):
    """A generic 3-outcome POVM on C^2 or C^3 with a skewed weight sigma."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    g = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
    g[0] *= rng.uniform(0, 4)
    pos = g @ g.conj().swapaxes(1, 2)
    vals, vecs = np.linalg.eigh(pos.sum(axis=0))
    root_inv = (vecs / np.sqrt(vals)) @ vecs.conj().T
    elements = root_inv @ pos @ root_inv
    sigma = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    sigma = sigma * rng.uniform(0, 3, size=n)
    return Povm((elements + elements.conj().swapaxes(1, 2)) / 2), sigma


# Seeds whose first rounding misses the 9-epsilon bound at their own,
# unnormalized sigma, outside the bound's hypothesis tau(sigma sigma*) = 1.
SKEWED_SEEDS = (3699, 5053, 7296, 9490, 0, 1)


@pytest.mark.parametrize("seed", SKEWED_SEEDS)
def test_skewed_weight_is_refused_until_normalized(seed):
    povm, sigma = skewed_povm_case(seed)
    with pytest.raises(NotNormalized):
        orthogonalize_povm(povm, sigma)
    sigma = sigma / linalg.tau_norm(sigma)
    want, want_err = reference_orthogonalize(povm, sigma)
    got, err = checked_orthogonalize(povm, sigma)
    np.testing.assert_allclose(got.elements, want, rtol=0, atol=TOL)
    assert abs(err - want_err) <= TOL


def test_no_normalized_weight_needs_more_than_sequential_rounding():
    """Search normalized weights for a rounding past 9 epsilon + CONTRACT_SLACK.

    Inputs are generic POVMs blended with a PVM, at skewed, identity and
    skewed_povm_case weights, each scaled to tau(sigma sigma*) = 1; a miss
    raises BoundViolated."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=300, derandomize=True, deadline=None, database=None
    )
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        outcomes=st.integers(2, 4),
        blend=st.floats(0.0, 1.0),
        skew=st.floats(0.0, 3.0),
    )
    def search(seed, dim, outcomes, blend, skew):
        povm = random_povm_strategy((dim, dim), (1, outcomes), seed, blend).alice[0]
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        sigma = np.linalg.qr(g)[0] * np.exp(skew * rng.normal(size=dim))
        for p, sig in ((povm, sigma), (povm, np.eye(dim)), skewed_povm_case(seed)):
            sig = sig / linalg.tau_norm(sig)
            w = sig @ sig.conj().T
            eps = 1.0 - sum(linalg.tau(e @ e @ w).real for e in p.elements)
            _, err = orthogonalize_povm(p, sig)
            assert err <= 9.0 * eps + rounding.CONTRACT_SLACK

    search()


def round_corner(povm):
    """The slice-corner rounding on a whole POVM (corner = whole space), as a
    family of one question, and its error: the Frobenius mass _round_povm
    returns, normalized."""
    blocks = np.array([linalg.hermitize(e) for e in povm.elements])
    factors = padded_factors([[rank_factor(h) for h in blocks]], povm.dim)
    (pvm,), columns, (mass,) = _round_povm(blocks[None], None, factors)
    assert columns is None
    return pvm, mass / povm.dim


def identity_weight_roundings(povm):
    """The slice-corner rounding and orthogonalize_povm, both at the
    identity weight, as (pvm elements, error)."""
    yield round_corner(povm)
    pvm, err = checked_orthogonalize(povm, np.eye(povm.dim))
    yield pvm.elements, err


@pytest.mark.parametrize("seed", SKEWED_SEEDS)
def test_corner_rounding_matches_reference(seed, monkeypatch):
    povm, _ = skewed_povm_case(seed)
    n = povm.dim
    want, want_err = reference_orthogonalize(povm, np.eye(n))
    for got, err in identity_weight_roundings(povm):
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
        assert abs(err - want_err) <= TOL
    # a bound no rounding meets
    monkeypatch.setattr(rounding, "CONTRACT_SLACK", -10.0)
    with pytest.raises(BoundViolated):
        round_corner(povm)
    with pytest.raises(BoundViolated):
        orthogonalize_povm(povm, np.eye(n))


# ---------------------------------------------------------------------------
# the batched kernel against per-question oracles

# Eigenvalues on either side of 1/2: 1/2 - CLUSTER_TOL / 2 is kept and
# 1/2 - 2 CLUSTER_TOL is left, so each sits at least CLUSTER_TOL / 2 from the
# cut 1/2 - CLUSTER_TOL, far beyond the rounding of an eigendecomposition.
NEAR_HALF = tuple(0.5 + t * CLUSTER_TOL for t in (2.0, 0.5, 0.0, -0.5, -2.0))


def drawn_family(st, data, nq, na, n):
    """An (nq, na, n, n) stack of POVMs on C^n, one kind per question:
    generic POVMs, or U diag(lambda_a) U* with U Haar or the identity, where
    each coordinate goes to one outcome (a PVM whose ranks differ between
    questions) or is split between two outcomes p and q as v and 1 - v, v
    from NEAR_HALF.  One v per question keeps each element's eigenvalues
    near 1/2 on one side of the cut: a cluster the cut split would leave
    the kept subspace to rounding."""
    family = []
    for _ in range(nq):
        kind = data.draw(st.sampled_from(("generic", "projective", "near-half")))
        seed = data.draw(st.integers(0, 2**32 - 1))
        if kind == "generic":
            blend = data.draw(st.floats(0.0, 1.0))
            povm = random_povm_strategy((n, n), (1, na), seed, blend).alice[0]
            family.append(povm.elements)
            continue
        split = kind == "near-half" and na > 1
        if split:
            v = data.draw(st.sampled_from(NEAR_HALF))
            p = data.draw(st.integers(0, na - 1))
            q = (p + data.draw(st.integers(1, na - 1))) % na
        lam = np.zeros((na, n))
        for i in range(n):
            if split and data.draw(st.booleans()):
                lam[p, i], lam[q, i] = v, 1.0 - v
            else:
                lam[data.draw(st.integers(0, na - 1)), i] = 1.0
        u = np.eye(n)
        if data.draw(st.booleans()):
            rng = np.random.default_rng(seed)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            u = np.linalg.qr(g)[0]
        family.append((u * lam[:, None, :]) @ u.conj().T)
    return np.array(family, dtype=complex)


def family_sizes(st):
    return dict(
        data=st.data(),
        nq=st.sampled_from((1, 3)),
        na=st.sampled_from((1, 2, 3)),
        n=st.integers(1, 6),
    )


def test_batched_rounding_matches_the_dense_weight_oracle():
    """One weighted call on a family against dense_orthogonalize per
    question: PVMs, errors and the factor stack."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=200, derandomize=True, deadline=None, database=None
    )
    @hypothesis.given(**family_sizes(st))
    def search(data, nq, na, n):
        family = drawn_family(st, data, nq, na, n)
        w = np.array(data.draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)))
        w = w / np.mean(w)
        pvm, columns, masses = _round_povm(family, w)
        assert pvm.shape == family.shape and masses.shape == (nq,)
        for q, elements in enumerate(family):
            want, want_err = dense_orthogonalize(Povm(elements), np.diag(np.sqrt(w)))
            np.testing.assert_allclose(pvm[q], want.elements, rtol=0, atol=TOL)
            assert abs(masses[q] / n - want_err) <= TOL
        assert_factors_reproduce(pvm, columns)

    search()


def test_batched_corner_rounding_matches_the_factor_oracle():
    """One factor call on the leading r x r corners of a family, with the
    factors zero-padded to the widest, against factor_round per question
    on its own unpadded factors."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=200, derandomize=True, deadline=None, database=None
    )
    @hypothesis.given(**family_sizes(st))
    def search(data, nq, na, n):
        family = drawn_family(st, data, nq, na, n)
        r = data.draw(st.integers(1, n))
        factors = [[rank_factor(e) for e in elements] for elements in family]
        corners = (family + family.conj().swapaxes(-1, -2))[:, :, :r, :r] / 2.0
        pvm, columns, masses = _round_povm(corners, None, padded_factors(factors, n))
        assert columns is None and pvm.shape == corners.shape
        for q in range(nq):
            want, want_mass = factor_round(corners[q], factors[q])
            np.testing.assert_allclose(pvm[q], want, rtol=0, atol=TOL)
            assert abs(masses[q] - want_mass) <= TOL

    search()


def test_padding_directions_never_join_a_complement():
    """Question 0 keeps three directions at its first threshold and question
    1 two, so question 0's second compression is padded from 2 to 3.  Its
    element there has eigenvalues 1 and -1e-13: a padding direction at
    eigenvalue 0 would sort above -1e-13 and take the place of the real
    direction the last outcome needs."""
    w = np.array([1.0, 1.0, 1.0, 1.5, 0.5])
    d = 1e-13
    family = np.array(
        [
            [np.diag([1, 1, 1, 0, 0]), np.diag([0, 0, 0, 1, -d]), np.diag([0, 0, 0, 0, 1 + d])],
            [np.diag([1, 0, 0, 0, 0]), np.diag([0, 1, 1, 0, 0]), np.diag([0, 0, 0, 1, 1])],
        ],
        dtype=complex,
    )
    pvm, columns, masses = _round_povm(family, w)
    for q, elements in enumerate(family):
        want, want_err = dense_orthogonalize(Povm(elements), np.diag(np.sqrt(w)))
        np.testing.assert_allclose(pvm[q], want.elements, rtol=0, atol=TOL)
        assert abs(masses[q] / 5 - want_err) <= TOL
    assert_factors_reproduce(pvm, columns)
    assert abs(pvm[0, 2, 4, 4] - 1.0) <= TOL


def breaching_family(n):
    """Three questions of two outcomes on C^n.  Question 1, (0.7 I, 0.7 I),
    is no POVM: it rounds to (I, 0) with error 0.58 against 9 epsilon =
    0.18.  Question 0, (0.6 I, 0.4 I), stays 4.0 under its bound and the PVM
    of question 2 meets it exactly, so the bounds summed over the family
    would hold."""
    eye = np.eye(n)
    split = np.diag(np.arange(n) < n // 2).astype(float)
    return np.array(
        [[0.6 * eye, 0.4 * eye], [0.7 * eye, 0.7 * eye], [split, eye - split]],
        dtype=complex,
    )


def test_one_question_past_its_bound_raises_bound_violated():
    n = 4
    family = breaching_family(n)
    w = np.linspace(0.5, 1.5, n)
    factors = padded_factors([[rank_factor(e) for e in f] for f in family], n)
    for weight, stack in ((w, None), (None, None), (None, factors)):
        with pytest.raises(BoundViolated, match="question 1"):
            _round_povm(family, weight, stack)
        kept = [0, 2]  # without question 1 every bound holds
        _round_povm(family[kept], weight, None if stack is None else stack[kept])


def test_one_stacked_eigendecomposition_per_threshold_step(monkeypatch):
    game = k3_game()
    s = random_povm_strategy((12, 12), (3, 3), 0, 0.5)
    real = linalg.eig_hermitian
    shapes = []

    def recording(h):
        shapes.append(h.shape)
        return real(h)

    monkeypatch.setattr(linalg, "eig_hermitian", recording)
    stages = rounding_stages(game, s)
    sym, proj = stages.symmetric, stages.projective
    # projectivize makes na - 1 calls for all three questions; the second is
    # padded to the largest complement, never to n
    assert [shape[:-1] for shape in shapes] == [(3, 12), (3, shapes[1][-1])]
    w = np.diagonal(sym.sigma).real ** 2
    first = np.argmax(np.diagonal(sym.alice, axis1=2, axis2=3).real @ w, axis=1)
    widths = [12 - round(np.trace(proj.alice[x, a]).real) for x, a in enumerate(first)]
    assert shapes[1][-1] == max(widths) < 12
    shapes.clear()
    lemma_report(game, stages)  # reads projectivize's PVMs, rounds nothing
    assert shapes == []


def degenerate_strategy(seed):
    """random_povm_strategy at (6, 6) with a state whose coefficient matrix
    has the singular values 2, 2, 2, 1, 1, 1 up to scale."""
    s = random_povm_strategy((6, 6), (3, 3), seed, 0.5)
    u, _, vh = np.linalg.svd(s.state.reshape(6, 6))
    state = ((u * [2.0, 2.0, 2.0, 1.0, 1.0, 1.0]) @ vh).reshape(-1)
    return TensorStrategy(6, 6, state / np.linalg.norm(state), s.alice, s.bob)


# Inputs for the dense-weight oracle: square, unbalanced, rank-deficient and
# degenerate-spectrum states, with generic POVMs where gamma is not 0.
ORACLE_CASES = {
    "random-12x12-0": random_strategy((12, 12), (3, 3), 0),
    "povm-12x12-1": random_povm_strategy((12, 12), (3, 3), 1, 0.0),
    "povm-24x48-2": random_povm_strategy((24, 48), (3, 3), 2, 0.5),
    "povm-48x24-3": random_povm_strategy((48, 24), (3, 3), 3, 0.9),
    "povm-1x5-4": random_povm_strategy((1, 5), (3, 3), 4, 0.5),
    "rank-12-24x48": rank_deficient_strategy((24, 48), 12, 6),
    "degenerate-6x6": degenerate_strategy(5),
    "entangled-k3": entangled_coloring_strategy(3),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_rounding_matches_the_dense_weight_oracle(name):
    game = k3_game()
    stages = rounding_stages(game, ORACLE_CASES[name])
    s = stages.embedded
    for elements in s.alice:
        got, err = checked_orthogonalize(Povm(elements), s.sigma)
        want, want_err = dense_orthogonalize(Povm(elements), s.sigma)
        np.testing.assert_allclose(got.elements, want.elements, rtol=0, atol=TOL)
        assert abs(err - want_err) <= TOL
    got_report, want_report = lemma_report(game, stages), dense_lemma_report(game, s)
    for lemma, want in want_report.items():
        for side in ("lhs", "rhs", "slack"):
            assert abs(got_report[lemma][side] - want[side]) <= TOL
    sym, proj = stages.symmetric, stages.projective
    gamma = 0.0
    for x, (elements, pvm) in enumerate(zip(sym.alice, proj.alice)):
        want, want_err = dense_orthogonalize(Povm(elements), sym.sigma)
        np.testing.assert_allclose(pvm, want.elements, rtol=0, atol=TOL)
        gamma += game.mu_x[x] * want_err
    assert abs(stages.report["proj_gamma"] - gamma) <= TOL


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_projectivize_factors_reproduce_its_pvms(name):
    # F F* = P for every element, zero columns past each rank, and each
    # question's columns an orthonormal basis
    proj = projective_symmetric(ORACLE_CASES[name])
    np.testing.assert_array_equal(proj.alice, proj.bob_left)
    assert_factors_reproduce(proj.alice, proj.factors)


def corner_perturbed(s, scale):
    """s with an anti-Hermitian scale * [[0, 1], [-1, 0]] added to the
    leading 2 x 2 block of one of Alice's elements in sigma's eigenbasis;
    scale = 1 puts that block's asymmetry at 1e-7 (1 + ||block||_F)."""
    _, v = sigma_frame(s.sigma)
    alice = s.alice.copy()
    block = (v.conj().T @ alice[1, 2] @ v)[:2, :2]
    k = np.zeros((s.dim, s.dim), dtype=complex)
    k[0, 1], k[1, 0] = 1.0, -1.0
    t = scale * 1e-7 * (1.0 + np.linalg.norm(block)) / (2.0 * np.sqrt(2.0))
    alice[1, 2] += t * (v @ k @ v.conj().T)
    return replace(s, alice=alice)


def test_slicing_reads_alice_only_through_her_factors():
    # an element within the factor tolerance of F F*, Hermitian or not, is
    # rounded exactly as F F* is: every corner, mass and off-corner sum is
    # cut from F F*, which is Hermitian by construction
    game = k3_game()
    s = projective_symmetric(random_strategy((24, 24), (3, 3), 0))
    want = slice_strategies(s, game)
    for scale in (0.3, 3.0):
        got = slice_strategies(corner_perturbed(s, scale), game)
        assert got.slices == want.slices  # weights, measures, corner dims
        for c_got, c_want in zip(got.correlations, want.correlations, strict=True):
            np.testing.assert_array_equal(c_got.table, c_want.table)
        np.testing.assert_array_equal(got.mixed.table, want.mixed.table)
        assert got.diagnostics == want.diagnostics


def test_slice_eigendecompositions_stay_at_factor_rank(monkeypatch):
    game = k3_game()
    s = projective_symmetric(random_strategy((24, 24), (3, 3), 0))
    n, nq, na = s.dim, s.n_questions, s.n_answers
    real = linalg.eig_hermitian
    sizes = []

    def recording(h):
        # one stacked call per threshold step, one matrix per question
        assert h.shape[:-2] == (nq,)
        sizes.append(h.shape[-1])
        return real(h)

    monkeypatch.setattr(linalg, "eig_hermitian", recording)
    dec = slice_strategies(s, game)
    ranks = set(np.rint(np.trace(s.alice, axis1=2, axis2=3).real).astype(int).flat)
    (k,) = ranks  # every element has the same factor width
    assert k < n and s.factors.shape[-1] == k
    # the PVMs' columns are the rank factors and sigma is read off its
    # diagonal, so nothing n x n is decomposed
    assert sizes.count(n) == 0
    grams = [m for m in sizes if m != n]
    per_slice = na - 1
    assert len(grams) == len(dec.slices) * per_slice
    # each Gram input is the smaller of the r x r corner and the k x k Gram;
    # the slices are rounded in order
    for j, sl in enumerate(dec.slices):
        assert max(grams[j * per_slice:(j + 1) * per_slice]) <= min(sl.sub_dim, k)
    assert min(sl.sub_dim for sl in dec.slices) < k


def test_round_correlation_slices_without_n_by_n_eigendecompositions(monkeypatch):
    s = random_strategy((24, 24), (3, 3), 0)
    real_eig, real_slice = linalg.eig_hermitian, rounding.slice_strategies
    slicing = []
    sizes = []

    def recording(h):
        if slicing:
            sizes.append(h.shape[-1])
        return real_eig(h)

    def sliced(*args):
        slicing.append(True)
        try:
            return real_slice(*args)
        finally:
            slicing.pop()

    monkeypatch.setattr(linalg, "eig_hermitian", recording)
    monkeypatch.setattr(rounding, "slice_strategies", sliced)
    dec = round_correlation(k3_game(), s)
    assert len(dec.slices) == 24
    assert sizes and max(sizes) < 24


def bad_factors(s):
    """Factor stacks, all but the last changed in question 1 or in shape,
    that slicing must refuse."""
    f = s.factors
    k = f.shape[-1]
    swapped, not_finite, rotated = f.copy(), f.copy(), f.copy()
    swapped[1] = f[1, [1, 0, 2]]
    not_finite[1, 0] *= np.nan
    # a unitary change of columns within an outcome leaves F F* alone
    rotated[1, 0] = f[1, 0] @ np.diag(np.exp(1j * np.arange(k)))
    extra = np.concatenate((f, np.zeros(f.shape[:3] + (1,))), axis=3)
    extra[1, 0, 0, k] = 1e-3  # F F* moves by 1e-6, past 1e-7 (1 + ||A||_F) = 3e-7
    yield "missing", None
    yield "too few answers", f[:, :-1]
    yield "too few questions", f[:-1]
    yield "not a stack", f[..., 0]
    yield "wrong height", f[:, :, :-1]
    yield "swapped", swapped
    yield "not finite", not_finite
    yield "extra column", extra
    yield None, rotated


def test_slice_strategies_checks_the_columns():
    # the factors are the orthonormal columns projectivize built its PVMs from
    game = k3_game()
    s = projective_symmetric(random_strategy((12, 12), (3, 3), 0))
    want = slice_strategies(s, game)
    for name, factors in bad_factors(s):
        t = replace(s, factors=factors)
        if name is None:
            got = slice_strategies(t, game)
            assert got.diagnostics == pytest.approx(want.diagnostics, abs=TOL)
            continue
        with pytest.raises(ValidationError, match="factors"):
            slice_strategies(t, game)
            pytest.fail(f"slicing accepted {name} factors")
    # the factors are checked against every element of Alice's, so an
    # element that is not finite, or moved past CORNER_TOL, is refused too
    not_finite = s.alice.copy()
    not_finite[1, 2, 0, 1] = np.nan
    for name, t in (
        ("not finite", replace(s, alice=not_finite)),
        ("perturbed", corner_perturbed(s, 30.0)),
    ):
        with pytest.raises(ValidationError, match="factors"):
            slice_strategies(t, game)
            pytest.fail(f"slicing accepted a {name} element")


def positive_with_spectrum(rng, spectrum):
    n = len(spectrum)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q = np.linalg.qr(g)[0]
    return (q * np.asarray(spectrum, dtype=float)) @ q.conj().T


def connes_cases():
    rng = np.random.default_rng(21)
    cases = []
    for n in (1, 2, 5, 9, 16):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = g @ g.conj().T / n
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = h @ h.conj().T / n
        cases += [(a, b), (a, a), (a, 2.0 * a), (a, np.zeros((n, n)))]
    repeated = [2.0, 2.0, 2.0, 1.0, 1.0, 0.5]
    zeros = [1.5, 0.7, 0.0, 0.0, 0.0, 0.0]
    both = [1.0, 1.0, 0.0, 0.0, 0.3, 0.3]
    for sa, sb in (
        (repeated, repeated),
        (repeated, zeros),
        (zeros, zeros),
        (both, repeated),
        (both, both),
        ([1.0] * 6, [1.0] * 6),
    ):
        cases.append(
            (positive_with_spectrum(rng, sa), positive_with_spectrum(rng, sb))
        )
    # Shared eigenbasis: every breakpoint of one operand is one of the other.
    q = positive_with_spectrum(rng, [3.0, 2.0, 1.0, 0.0])
    cases.append((q, q @ q))
    cases.append((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    return cases


CONNES_CASES = connes_cases()


@pytest.mark.parametrize("case", range(len(CONNES_CASES)))
def test_connes_matches_breakpoint_loop(case):
    rho, sigma = CONNES_CASES[case]
    lhs, rhs = verify_connes(rho, sigma)
    ref_lhs, ref_rhs = reference_connes(rho, sigma)
    assert abs(lhs - ref_lhs) <= TOL
    assert abs(rhs - ref_rhs) <= TOL
    assert lhs <= rhs + 1e-8


def test_connes_rejects_negative_operand():
    with pytest.raises(NotPositive):
        verify_connes(np.diag([1.0, -1e-3]), np.eye(2))
    with pytest.raises(NotPositive):
        verify_connes(np.eye(2), np.diag([1.0, -1e-3]))


# ---------------------------------------------------------------------------
# the shared lambda-slicing rule


def test_spectral_pieces_group_ties():
    vals = np.array([3.0, 3.0 + 1e-14, 1.0, 1.0, 0.0])
    measures, (ranks,) = _spectral_pieces(vals)
    assert ranks.tolist() == [2, 4]
    np.testing.assert_allclose(measures, [8.0, 1.0], rtol=0, atol=1e-12)


# Steps between consecutive values of a drawn spectrum: ties, gaps just
# inside and just outside CLUSTER_TOL (which chain into longer clusters),
# wide gaps and a drop to zero.
STEPS = ("tie", "inside", "outside", "wide", "zero")


def drawn_spectrum(st, data, n):
    """A nonincreasing spectrum of n values from a top in [0.1, 3]."""
    vals = [data.draw(st.floats(0.1, 3.0))]
    for _ in range(n - 1):
        step = data.draw(st.sampled_from(STEPS))
        gap = {"tie": 0.0, "inside": 0.5 * CLUSTER_TOL, "outside": 2.0 * CLUSTER_TOL}
        if step == "wide":
            gap[step] = data.draw(st.floats(0.01, 0.5))
        vals.append(0.0 if step == "zero" else max(vals[-1] - gap[step], 0.0))
    return np.array(vals)


def block_pvm_strategy(spectrum):
    """A symmetric projective 3x3 strategy at the diagonal state spectrum:
    coordinate-block PVMs, each element keeping its coordinate columns."""
    n = len(spectrum)
    factors = np.zeros((3, 3, n, -(-n // 3)), dtype=complex)
    for x in range(3):
        for a, block in enumerate(np.array_split(np.roll(np.arange(n), x), 3)):
            factors[x, a, block, np.arange(len(block))] = 1.0
    pvms = factors @ factors.swapaxes(-1, -2)
    return TracialStrategy(n, np.diag(spectrum), pvms, pvms, factors)


def assert_pieces_cover(measures, ranks, spectra):
    """Measures telescope to the top value squared, and each operand's ranks
    climb to at most its dimension; a cluster mean sits within its chain's
    length times CLUSTER_TOL of each member."""
    top = max(float(v.max()) for v in spectra)
    slack = 2.0 * top * sum(map(len, spectra)) * CLUSTER_TOL + 1e-14
    assert np.all(measures > 0.0)
    assert abs(measures.sum() - top**2) <= slack
    for k, v in zip(ranks, spectra):
        assert np.all(np.diff(k) >= 0) and k[-1] <= len(v)
    return slack


def test_one_spectrum_pieces_match_the_chained_loop():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=200, derandomize=True, deadline=None, database=None
    )
    @hypothesis.given(data=st.data(), n=st.integers(1, 9))
    def search(data, n):
        vals = drawn_spectrum(st, data, n)
        measures, ranks = _spectral_pieces(vals)
        slack = assert_pieces_cover(measures, ranks, [vals])
        want = spectral_pieces(vals)
        assert ranks[0].tolist() == [rank for _, rank in want]
        np.testing.assert_allclose(
            measures, [m for m, _ in want], rtol=0, atol=1e-14
        )
        assert abs(np.dot(measures, ranks[0]) / n - np.mean(vals**2)) <= slack
        normalized = vals / np.sqrt(np.mean(vals**2))
        dec = slice_strategies(block_pvm_strategy(normalized), k3_game())
        assert abs(sum(sl.weight for sl in dec.slices) - 1.0) <= 1e-12
        want = [rank for _, rank in spectral_pieces(normalized)]
        assert [sl.sub_dim for sl in dec.slices] == want

    search()


def test_two_spectrum_pieces_bound_the_connes_integral():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(
        max_examples=150, derandomize=True, deadline=None, database=None
    )
    @hypothesis.given(
        data=st.data(),
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        same_basis=st.booleans(),
    )
    def search(data, n, seed, same_basis):
        a = drawn_spectrum(st, data, n)
        own = drawn_spectrum(st, data, n)
        shared = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        b = np.sort(np.where(shared, a, own))[::-1]
        measures, ranks = _spectral_pieces(a, b)
        assert_pieces_cover(measures, ranks, [a, b])
        # one seed draws one eigenbasis, so same_basis shares it
        rho = positive_with_spectrum(np.random.default_rng(seed), a)
        other = np.random.default_rng(seed if same_basis else seed + 1)
        sigma = positive_with_spectrum(other, b)
        lhs, rhs = verify_connes(rho, sigma)
        ref_lhs, ref_rhs = reference_connes(rho, sigma)
        assert abs(lhs - ref_lhs) <= TOL
        assert abs(rhs - ref_rhs) <= TOL
        assert lhs <= rhs + 1e-8

    search()
