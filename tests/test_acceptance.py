"""Acceptance suite: one test per top-level numerical guarantee.

Each test prints a single PASS/FAIL line (visible via pytest -v through the
test outcome, and in captured output) and enforces its runtime budget.
"""

import time

import numpy as np

from reference import expand_corner, is_projective, padded_targets, projective
from syncround import linalg
from syncround.cli import main as cli_main
from syncround.errors import MathContractError
from syncround.games import edge_game, k3_game
from syncround.linalg import CONTRACT_SLACK, NORM_TOL
from syncround.rounding import (
    lemma_report,
    orthogonalize_povm,
    round_correlation,
    slice_strategies,
    verify_connes,
)
from syncround.soundness import aggregate_slice_povms, dominated_factorization
from syncround.strategies import (
    Povm,
    TensorStrategy,
    correlation,
    correlation_distance,
    deterministic_strategy,
    embed_tracial,
    entangled_coloring_strategy,
    perturb_strategy,
    povm_violations,
    random_povm_strategy,
    random_strategy,
    synchronicity,
    tensor_correlation,
)


def report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_positive(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g @ g.conj().T / n


def normalized_sigma(rng, n):
    s = random_positive(rng, n)
    return s / linalg.tau_norm(s)


def _diagonal_pvms(n):
    """Triangle-game PVMs that commute with every diagonal state, as an
    (nq, na, n, n) stack."""
    pvms = np.zeros((3, 3, n, n), dtype=complex)
    for x in range(3):
        for i in range(n):
            pvms[x, (i + x) % 3, i, i] = 1.0
    return pvms


def test_identity_suite():
    """Spectral slices of sigma integrate back to sigma squared."""
    game = k3_game()
    rng = np.random.default_rng(100)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        sigma = normalized_sigma(rng, n)
        # slice_strategies cuts sigma in its eigenbasis V; P_r = V_r V_r*
        polar = linalg.polar_decompose(sigma)
        v = polar.eigenbasis
        s = projective(np.diag(polar.singular_values), _diagonal_pvms(n))
        slices = slice_strategies(s, game).slices
        total = sum(
            sl.measure * v[:, : sl.sub_dim] @ v[:, : sl.sub_dim].conj().T
            for sl in slices
        )
        worst = max(worst, float(np.max(np.abs(total - sigma @ sigma))))
    elapsed = time.perf_counter() - start
    report(
        "identity-suite",
        worst <= 1e-9 and elapsed < 30,
        f"max reconstruction error {worst:.3e} (tol 1e-9), {elapsed:.1f}s (< 30s)",
    )


def test_connes_suite():
    """Joint-distribution inequality on random pairs plus the tight case."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_violation = -np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        lhs, rhs = verify_connes(random_positive(rng, n), random_positive(rng, n))
        worst_violation = max(worst_violation, lhs - rhs)
    lhs_t, rhs_t = verify_connes(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    tight_ok = abs(lhs_t - 1.0) <= 1e-10 and abs(rhs_t - 1.0) <= 1e-10
    elapsed = time.perf_counter() - start
    report(
        "connes-suite",
        worst_violation <= 1e-8 and tight_ok and elapsed < 60,
        f"max lhs-rhs {worst_violation:.3e} (tol 1e-8), tight case "
        f"({lhs_t:.12f}, {rhs_t:.12f}), {elapsed:.1f}s (< 60s)",
    )


def _noised_pvm(rng, dim, outcomes, weight):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q = np.linalg.qr(g)[0]
    cuts = [k * dim // outcomes for k in range(outcomes + 1)]
    elements = []
    for k in range(outcomes):
        cols = q[:, cuts[k] : cuts[k + 1]]
        elements.append(
            (1 - weight) * cols @ cols.conj().T + weight * np.eye(dim) / outcomes
        )
    return Povm(np.array(elements))


def test_orthogonalization_suite():
    """Spectral rounding returns valid PVMs within the 9-epsilon bound."""
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst_excess = -np.inf
    worst_fixed = 0.0
    all_valid = True
    for i in range(500):
        dim = int(rng.integers(2, 9))
        outcomes = int(rng.integers(2, min(dim, 4) + 1))
        weight = float(rng.uniform(0, 0.05))
        povm = _noised_pvm(rng, dim, outcomes, weight)
        sigma = np.eye(dim) if i % 2 else normalized_sigma(rng, dim)
        w = sigma @ sigma.conj().T
        eps = 1.0 - sum(
            float(np.trace(e @ e @ w).real) / dim for e in povm.elements
        )
        out, err = orthogonalize_povm(povm, sigma)
        all_valid = all_valid and out.validate() == [] and is_projective(out.elements, 1e-8)
        worst_excess = max(worst_excess, err - 9 * eps)
        if weight == 0.0 or i % 7 == 0:
            pvm = _noised_pvm(rng, dim, outcomes, 0.0)
            fixed, ferr = orthogonalize_povm(pvm, sigma)
            worst_fixed = max(
                worst_fixed, float(np.max(np.abs(fixed.elements - pvm.elements)))
            )
    elapsed = time.perf_counter() - start
    report(
        "orthogonalization-suite",
        all_valid and worst_excess <= 1e-8 and worst_fixed <= 1e-9 and elapsed < 120,
        f"valid PVMs {all_valid}, max err-9eps {worst_excess:.3e} (tol 1e-8), "
        f"projective drift {worst_fixed:.3e}, {elapsed:.1f}s (< 120s)",
    )


def test_lemma_suite():
    """Both lemma inequalities hold on random tracial strategies."""
    game = k3_game()
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst_slack = np.inf
    for i in range(500):
        d = int(rng.integers(2, 6))
        s = embed_tracial(random_strategy((d, d), (3, 3), 5000 + i))
        rep = lemma_report(game, s)
        for entry in rep.values():
            worst_slack = min(worst_slack, entry["slack"])
    elapsed = time.perf_counter() - start
    report(
        "lemma-suite",
        worst_slack >= -1e-8 and elapsed < 120,
        f"min slack {worst_slack:.3e} (tol -1e-8), {elapsed:.1f}s (< 120s)",
    )


def rank_deficient_strategy(dims, rank, seed):
    """random_strategy with its coefficient matrix truncated to `rank`."""
    return with_schmidt_rank(random_strategy(dims, (3, 3), seed), rank)


def with_schmidt_rank(s, rank):
    """s with its coefficient matrix truncated to `rank`; rank 1 is a
    product state."""
    u, sv, vh = np.linalg.svd(s.state.reshape(s.dim_a, s.dim_b))
    sv[rank:] = 0.0
    state = ((u[:, : len(sv)] * sv) @ vh[: len(sv)]).reshape(-1)
    state /= np.linalg.norm(state)
    return TensorStrategy(s.dim_a, s.dim_b, state, s.alice, s.bob)


def _worst_lemma_slack(game, strategies):
    worst = np.inf
    for s in strategies:
        for entry in lemma_report(game, embed_tracial(s)).values():
            worst = min(worst, entry["slack"])
    return worst


def test_lemma_suite_unbalanced():
    """Both lemma inequalities hold when dim_a != dim_b."""
    game = k3_game()
    start = time.perf_counter()
    worst = {}
    for dims in ((1, 5), (5, 1), (3, 7)):
        worst[dims] = _worst_lemma_slack(
            game, (random_strategy(dims, (3, 3), seed) for seed in range(60))
        )
    elapsed = time.perf_counter() - start
    report(
        "lemma-suite-unbalanced",
        min(worst.values()) >= -1e-8 and elapsed < 60,
        ", ".join(f"{d}: min slack {v:.3e}" for d, v in worst.items())
        + f" (tol -1e-8), {elapsed:.1f}s (< 60s)",
    )


def test_lemma_suite_rank_deficient():
    """Both lemma inequalities hold when the state has low Schmidt rank."""
    game = k3_game()
    start = time.perf_counter()
    cases = [
        rank_deficient_strategy(dims, rank, seed)
        for dims, rank in (((5, 5), 2), ((4, 6), 1), ((6, 4), 3))
        for seed in range(20)
    ]
    worst = _worst_lemma_slack(game, cases)
    elapsed = time.perf_counter() - start
    report(
        "lemma-suite-rank-deficient",
        worst >= -1e-8 and elapsed < 60,
        f"min slack {worst:.3e} (tol -1e-8), {elapsed:.1f}s (< 60s)",
    )


def robustness_cases():
    """Unbalanced dims 1-6 on each side, seeds 0-3, PVM and generic POVM
    strategies at full Schmidt rank and truncated to ranks 1 and 2, then
    two inputs whose symmetrized synchronicity misses 2 delta."""
    for da in range(1, 7):
        for db in range(1, 7):
            for seed in range(4):
                blend = seed / 4
                for base in (
                    random_strategy((da, db), (3, 3), seed),
                    random_povm_strategy((da, db), (3, 3), seed, blend),
                ):
                    yield base
                    yield with_schmidt_rank(base, 1)
                    yield with_schmidt_rank(base, 2)
    yield random_strategy((1, 2), (3, 3), 4)
    yield random_strategy((2, 1), (3, 3), 16)


def test_robustness_suite():
    """Every strategy either rounds with every guarantee met or stops at
    symmetrize's 2 delta contract; no other stage fails.  A rounded input
    has slice weights summing to 1, synchronous slices and a distance that
    the direct tensor correlation reproduces; both lemma slacks hold on
    every input."""
    game = k3_game()
    start = time.perf_counter()
    rounded = stopped = 0
    worst_weight = worst_sync = worst_oracle = 0.0
    worst_slack = np.inf
    for s in robustness_cases():
        try:
            dec = round_correlation(game, s)
        except MathContractError as exc:
            assert "symmetrized synchronicity" in str(exc), exc
            stopped += 1
            rep = lemma_report(game, embed_tracial(s))
        else:
            rounded += 1
            weights = sum(sl.weight for sl in dec.slices)
            worst_weight = max(worst_weight, abs(weights - 1.0))
            for c in dec.correlations:
                worst_sync = max(worst_sync, synchronicity(game, c))
            oracle = correlation_distance(game, tensor_correlation(s), dec.mixed)
            worst_oracle = max(
                worst_oracle, abs(oracle - dec.diagnostics["distance"])
            )
            rep = lemma_report(game, dec.embedded, dec.polar)
        worst_slack = min(worst_slack, *(e["slack"] for e in rep.values()))
    elapsed = time.perf_counter() - start
    report(
        "robustness-suite",
        worst_weight <= NORM_TOL
        and worst_sync <= CONTRACT_SLACK
        and worst_oracle <= 1e-10
        and worst_slack >= -1e-8
        and elapsed < 60,
        f"{rounded} rounded, {stopped} stopped at 2 delta; weight-sum error "
        f"{worst_weight:.3e} (tol {NORM_TOL:.0e}), max slice sync "
        f"{worst_sync:.3e} (tol {CONTRACT_SLACK:.0e}), oracle distance gap "
        f"{worst_oracle:.3e} (tol 1e-10), min lemma slack {worst_slack:.3e} "
        f"(tol -1e-8), {elapsed:.1f}s (< 60s)",
    )


def test_povm_suite():
    """Generic POVM strategies round end to end: every check holds, and the
    rounding error gamma is not 0."""
    game = k3_game()
    start = time.perf_counter()
    worst_slack = np.inf
    worst_oracle = 0.0
    gammas = []
    for i, dims in enumerate(((3, 3), (6, 6), (4, 9), (9, 4), (1, 5), (12, 12))):
        for blend in (0.0, 0.5, 0.9):
            s = random_povm_strategy(dims, (3, 3), 7000 + i, blend)
            dec = round_correlation(game, s)
            gap = np.abs(tensor_correlation(s).table - dec.c_in.table)
            worst_oracle = max(worst_oracle, float(gap.max()))
            gammas.append(dec.diagnostics["proj_gamma"])
            for entry in lemma_report(game, dec.embedded, dec.polar).values():
                worst_slack = min(worst_slack, entry["slack"])
    elapsed = time.perf_counter() - start
    report(
        "povm-suite",
        worst_slack >= -1e-8
        and worst_oracle <= 1e-9
        and max(gammas) > 0.1
        and elapsed < 60,
        f"min slack {worst_slack:.3e} (tol -1e-8), embedding mismatch "
        f"{worst_oracle:.3e} (tol 1e-9), max gamma {max(gammas):.3f} (> 0.1), "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_embedding_oracle():
    """Standard-form correlations match direct tensor evaluation."""
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(2, 5))
        nq = int(rng.integers(2, 4))
        na = int(rng.integers(2, 4))
        s = random_strategy((da, db), (nq, na), 9000 + i)
        direct = tensor_correlation(s)
        via = correlation(embed_tracial(s))
        worst = max(worst, float(np.max(np.abs(direct.table - via.table))))
    elapsed = time.perf_counter() - start
    report(
        "embedding-oracle",
        worst <= 1e-9 and elapsed < 60,
        f"max correlation mismatch {worst:.3e} (tol 1e-9), {elapsed:.1f}s (< 60s)",
    )


def test_rounding_exactness():
    """Every synchronous builtin rounds to itself exactly."""
    cases = [
        (k3_game(), deterministic_strategy([0, 1, 2], 3)),
        (k3_game(), entangled_coloring_strategy(3)),
        (edge_game(), deterministic_strategy([0, 1], 2)),
    ]
    worst_dist = 0.0
    worst_sync = 0.0
    worst_weight = 0.0
    for game, strategy in cases:
        dec = round_correlation(game, strategy)
        worst_dist = max(worst_dist, dec.diagnostics["distance"])
        for c in dec.correlations:
            worst_sync = max(worst_sync, synchronicity(game, c))
        worst_weight = max(
            worst_weight, abs(sum(sl.weight for sl in dec.slices) - 1.0)
        )
    report(
        "rounding-exactness",
        worst_dist <= 1e-8 and worst_sync <= 1e-8 and worst_weight <= 1e-9,
        f"max distance {worst_dist:.3e} (tol 1e-8), max component sync "
        f"{worst_sync:.3e} (tol 1e-8), weight-sum error {worst_weight:.3e} (tol 1e-9)",
    )


def test_rounding_trend():
    """Rounding distance follows a delta^(1/8) envelope on the triangle game."""
    game = k3_game()
    base = entangled_coloring_strategy(3)
    start = time.perf_counter()
    deltas = []
    distances = []
    for ei, eta in enumerate(np.logspace(-4, -1, 5)):
        for t in range(10):
            s = perturb_strategy(base, float(eta), 100 * ei + t)
            c = correlation(embed_tracial(s))
            dec = round_correlation(game, s)
            deltas.append(synchronicity(game, c))
            distances.append(dec.diagnostics["distance"])
    d = np.array(deltas)
    r = np.array(distances)
    mask = (d > 1e-15) & (r > 1e-15)
    k_fixed = float(np.max(r[mask] / d[mask] ** 0.125))
    slope = float(np.polyfit(np.log(d[mask]), np.log(r[mask]), 1)[0])
    elapsed = time.perf_counter() - start
    report(
        "rounding-trend",
        np.isfinite(k_fixed) and slope >= 0.125 - 0.05 and elapsed < 300,
        f"envelope K {k_fixed:.3f} (finite), free exponent {slope:.3f} "
        f"(>= 0.075), {elapsed:.1f}s (< 300s)",
    )


def _two_slice_fixture():
    spectrum = np.array([1.0, 0.5])
    spectrum = spectrum / np.sqrt(np.mean(spectrum**2))
    s1, s2 = spectrum
    corner1 = [Povm(np.array([[[1.0 + 0j]], [[0.0 + 0j]]]))]
    eye2 = np.zeros((2, 2, 2), dtype=complex)
    eye2[0, 0, 0] = 1.0
    eye2[1, 1, 1] = 1.0
    corner2 = [Povm(eye2)]
    return spectrum, [
        (s1**2 - s2**2, 1, corner1),
        (s2**2, 2, corner2),
    ]


def test_soundness_machinery():
    """Dominated factorization reconstructs; slice aggregation is a POVM."""
    rng = np.random.default_rng(105)
    worst_recon = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        a = random_positive(rng, n) + 0.05 * np.eye(n)
        vals, vecs = np.linalg.eigh(linalg.hermitize(a))
        root = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        hv, hw = np.linalg.eigh((g + g.conj().T) / 2)
        c0 = (hw * rng.uniform(0, 1, size=n)) @ hw.conj().T
        b = root @ c0 @ root
        c = dominated_factorization(a, b)
        worst_recon = max(
            worst_recon, linalg.frobenius(root @ c @ root - b)
        )
    spectrum, slices = _two_slice_fixture()
    sigma = np.diag(spectrum)
    families = aggregate_slice_povms(spectrum, padded_targets(2, slices))
    povm_ok = all(v == [] for v in povm_violations(families))
    worst_fixture = 0.0
    for b in range(2):
        target = sum(
            m * expand_corner(corner[0].elements[b], np.eye(2)[:, :rank])
            for m, rank, corner in slices
        )
        recon = sigma @ families[0][b] @ sigma
        worst_fixture = max(worst_fixture, linalg.frobenius(recon - target))
    report(
        "soundness-machinery",
        worst_recon <= 1e-8 and povm_ok and worst_fixture <= 1e-8,
        f"max factorization residual {worst_recon:.3e} (tol 1e-8), POVMs valid "
        f"{povm_ok}, fixture reconstruction {worst_fixture:.3e} (tol 1e-8)",
    )


def test_determinism(tmp_path, capsys):
    """round and sweep emit byte-identical outputs across repeat runs."""
    round_paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in round_paths:
        code = cli_main(
            ["round", "--game", "k3", "--strategy", "k3-entangled", "--out", str(p)]
        )
        assert code == 0
    sweep_paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
    for p in sweep_paths:
        code = cli_main(
            [
                "sweep", "--eta", "1e-3,1e-2", "--trials", "3", "--seed", "42",
                "--csv", str(p),
            ]
        )
        assert code == 0
    capsys.readouterr()
    round_same = round_paths[0].read_bytes() == round_paths[1].read_bytes()
    sweep_same = sweep_paths[0].read_bytes() == sweep_paths[1].read_bytes()
    report(
        "determinism",
        round_same and sweep_same,
        f"round bytes identical {round_same}, sweep bytes identical {sweep_same}",
    )
