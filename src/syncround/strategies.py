"""Strategy representations and correlation evaluation.

Two forms are supported.  A TensorStrategy is the familiar bipartite form:
a unit state on C^{dA} (x) C^{dB} plus local POVMs.  A TracialStrategy is
its standard-form avatar at dimension n: a coefficient matrix sigma with
tau(sigma* sigma) = 1, Alice's POVMs acting by left multiplication and
Bob's stored as left-algebra matrices whose opposite action is right
multiplication, so every correlation entry is tau(sigma* A sigma B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import AlphabetMismatch, NonRealCorrelation
from .games import Game, check_synchronous
from .linalg import CORR_IMAG_TOL, CORR_RANGE_TOL, CORR_SUM_TOL
from .linalg import NORM_TOL, POVM_ASYM_TOL, PSD_FLOOR


@dataclass(frozen=True)
class Povm:
    """A family of positive matrices summing to the identity.

    A PVM that projectivize or orthogonalize_povm returns also keeps, per
    outcome, the orthonormal columns V_a it was built from, P_a = V_a V_a*;
    the slice stage uses them as the elements' rank factors.
    """

    elements: np.ndarray  # (outcomes, dim, dim)
    columns: tuple[np.ndarray, ...] | None = None  # (dim, rank_a) per outcome

    def __post_init__(self):
        object.__setattr__(
            self, "elements", np.asarray(self.elements, dtype=complex)
        )

    @property
    def outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def validate(self) -> list[str]:
        """Per element NotHermitian or NotPositive, then SumNotIdentity."""
        return povm_violations(self.elements[None])[0]


def povm_violations(stack: np.ndarray) -> list[list[str]]:
    """Povm.validate for each family of an (families, outcomes, n, n) stack.

    All families are checked at once first: hermiticity and the sums in
    batch, positivity by one Cholesky factorization of H - PSD_FLOOR I per
    element, H the Hermitian part.  That factorization is ~5x cheaper than
    eigvalsh and succeeds only when lambda_min(H) > PSD_FLOOR - O(n eps ||H||)
    (~1e-14 at n = 96), so it stands in for the eigvalsh test up to that
    rounding.  If any check fails, LinAlgError included, each family is
    checked again element by element with eigvalsh, which names the
    violations.
    """
    n = stack.shape[-1]
    adj = stack.conj().swapaxes(-1, -2)
    skew = linalg.frobenius_each(stack - adj)
    scale = 1 + linalg.frobenius_each(stack)
    total = np.abs(stack.sum(axis=1) - np.eye(n)).max(axis=(-2, -1))
    if np.all(skew <= POVM_ASYM_TOL * scale) and np.all(total <= NORM_TOL):
        h = stack + adj
        h /= 2
        h.reshape(*h.shape[:-2], n * n)[..., :: n + 1] -= PSD_FLOOR  # the diagonal
        try:
            np.linalg.cholesky(h)
            return [[] for _ in stack]
        except np.linalg.LinAlgError:
            pass
    return [_family_violations(e) for e in stack]


def _family_violations(e: np.ndarray) -> list[str]:
    """One family's violations; the Hermitian elements' eigenvalues come
    from one batched eigvalsh."""
    adj = e.conj().swapaxes(1, 2)
    skew = linalg.frobenius_each(e - adj)
    hermitian = skew <= POVM_ASYM_TOL * (1 + linalg.frobenius_each(e))
    lowest = np.zeros(len(e))
    vals = np.linalg.eigvalsh((e[hermitian] + adj[hermitian]) / 2)
    lowest[hermitian] = vals[:, 0]
    violations = [
        "NotPositive" if ok else "NotHermitian"
        for ok, low in zip(hermitian, lowest)
        if not ok or low < PSD_FLOOR
    ]
    if np.max(np.abs(e.sum(axis=0) - np.eye(e.shape[1]))) > NORM_TOL:
        violations.append("SumNotIdentity")
    return violations


@dataclass(frozen=True)
class TensorStrategy:
    dim_a: int
    dim_b: int
    state: np.ndarray  # unit vector over C^{dim_a * dim_b}
    alice: tuple[Povm, ...]  # one POVM (dim dim_a) per question
    bob: tuple[Povm, ...]  # one POVM (dim dim_b) per question

    def __post_init__(self):
        object.__setattr__(self, "state", np.asarray(self.state, dtype=complex))
        object.__setattr__(self, "alice", tuple(self.alice))
        object.__setattr__(self, "bob", tuple(self.bob))

    @property
    def n_questions(self) -> int:
        return len(self.alice)

    @property
    def n_answers(self) -> int:
        return self.alice[0].outcomes


@dataclass(frozen=True)
class TracialStrategy:
    dim: int
    sigma: np.ndarray
    alice: tuple[Povm, ...]
    bob_left: tuple[Povm, ...]  # Bob's operators as left-algebra matrices

    def __post_init__(self):
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=complex))
        object.__setattr__(self, "alice", tuple(self.alice))
        object.__setattr__(self, "bob_left", tuple(self.bob_left))

    @property
    def n_questions(self) -> int:
        return len(self.alice)

    @property
    def n_answers(self) -> int:
        return self.alice[0].outcomes


@dataclass(frozen=True)
class Correlation:
    """Joint answer probabilities C[x, y, a, b]."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))

    def validate(self) -> list[str]:
        violations = []
        if self.table.min() < -CORR_RANGE_TOL or self.table.max() > 1 + CORR_RANGE_TOL:
            violations.append("EntryOutOfRange")
        sums = self.table.sum(axis=(2, 3))
        if np.max(np.abs(sums - 1.0)) > CORR_SUM_TOL:
            violations.append("RowNotNormalized")
        return violations


def opposite(m) -> np.ndarray:
    """The opposite-algebra map at finite dimension: the plain transpose."""
    return np.asarray(m, dtype=complex).T.copy()


def tensor_correlation(s: TensorStrategy) -> Correlation:
    """Direct evaluation <psi| A (x) B |psi>, kept independent of the
    standard-form route so the two can check each other."""
    nq, na = s.n_questions, s.n_answers
    table = np.zeros((nq, nq, na, na))
    psi = s.state
    for x, y, a, b in np.ndindex(table.shape):
        op = np.kron(s.alice[x].elements[a], s.bob[y].elements[b])
        table[x, y, a, b] = float((psi.conj() @ op @ psi).real)
    return Correlation(table)


def _pad_povm(povm: Povm, n: int) -> np.ndarray:
    """Zero-pad the elements to dim n; the padding block of the identity is
    assigned entirely to answer 0 so the family stays a POVM."""
    d = povm.dim
    out = np.zeros((povm.outcomes, n, n), dtype=complex)
    out[:, :d, :d] = povm.elements
    out[0, d:, d:] = np.eye(n - d)
    return out


def embed_tracial(s: TensorStrategy) -> TracialStrategy:
    """Rewrite a tensor strategy in standard form at n = max(dim_a, dim_b).

    The state's n x n coefficient matrix Psi (zero-extended on the padding)
    becomes sigma = sqrt(n) * Psi; Bob's operators are transposed.  The
    padding block carries no state mass, so correlations are unchanged.
    """
    n = max(s.dim_a, s.dim_b)
    psi_mat = s.state.reshape(s.dim_a, s.dim_b)
    sigma = np.zeros((n, n), dtype=complex)
    sigma[: s.dim_a, : s.dim_b] = psi_mat * np.sqrt(n)
    alice = tuple(Povm(_pad_povm(p, n)) for p in s.alice)
    bob_left = tuple(
        Povm(np.array([opposite(e) for e in _pad_povm(p, n)])) for p in s.bob
    )
    return TracialStrategy(dim=n, sigma=sigma, alice=alice, bob_left=bob_left)


def correlation(s: TracialStrategy) -> Correlation:
    """C(x,y,a,b) = Re tau(sigma* A_a^x sigma B_b^y) with B stored left.

    tau(L B) = sum_ij (L^T)_ij B_ij / n, so the table is stacked_correlation
    of the left factors (sigma* A sigma)^T = sigma^T A^T conj(sigma) with
    Bob's elements.  At a diagonal state d (every stage after symmetrize,
    which works in sigma+'s eigenbasis) that left factor is
    d_i A^T_ij conj(d_j), an O(n^2) scaling instead of two products.
    """
    sig = s.sigma
    d = np.diagonal(sig)
    alice = np.array([p.elements for p in s.alice])
    bob = np.array([p.elements for p in s.bob_left])
    if np.array_equal(sig, np.diag(d)):
        return _diagonal_correlation(d, alice, bob)
    left = sig.T @ np.ascontiguousarray(alice.swapaxes(-1, -2)) @ sig.conj()
    return stacked_correlation(left, bob)


def _diagonal_correlation(d, alice: np.ndarray, bob: np.ndarray) -> Correlation:
    """correlation() at the state diag(d) of the (nq, na, n, n) stacks of
    Alice's and Bob's (left) elements, building no strategy or Povm."""
    d = np.asarray(d, dtype=complex)
    left = np.multiply(alice.swapaxes(-1, -2), np.outer(d, d.conj()), order="C")
    return stacked_correlation(left, bob)


def stacked_correlation(left: np.ndarray, right: np.ndarray) -> Correlation:
    """C[x, y, a, b] = Re sum_ij left[x, a]_ij right[y, b]_ij / n.

    left stacks the transposed sigma* A^x_a sigma and right Bob's elements,
    both (nq, na, n, n), so the whole table is one product.  A slice corner,
    whose state is the identity, passes its stacked PVMs and their
    transpose.  Imaginary residue above CORR_IMAG_TOL is refused.
    """
    nq, na, n = left.shape[:3]
    vals = left.reshape(nq * na, n * n) @ right.reshape(nq * na, n * n).T
    vals = vals.reshape(nq, na, nq, na).transpose(0, 2, 1, 3) / n
    worst_imag = float(np.max(np.abs(vals.imag)))
    if worst_imag > CORR_IMAG_TOL:
        raise NonRealCorrelation(f"imaginary residue {worst_imag:.3e}")
    return Correlation(vals.real)


def _check_alphabets(game: Game, nq: int, na: int):
    if game.n_questions != nq or game.n_answers != na:
        raise AlphabetMismatch(
            f"game is {game.n_questions}x{game.n_answers}, "
            f"strategy is {nq}x{na}"
        )


def winning_probability_from_correlation(game: Game, c: Correlation) -> float:
    _check_alphabets(game, c.table.shape[0], c.table.shape[2])
    weighted = game.mu[:, :, None, None] * game.win * c.table
    return float(weighted.sum())


def synchronicity(game: Game, c: Correlation) -> float:
    """E_{x ~ mu_x} of the off-diagonal answer mass on same-question pairs,
    for a synchronous game (NotSynchronousGame otherwise).  The rounding
    stages check the game once at entry, then call _synchronicity."""
    check_synchronous(game, "synchronicity")
    return _synchronicity(game, c)


def _synchronicity(game: Game, c: Correlation) -> float:
    """synchronicity() for a game already checked to be synchronous."""
    _check_alphabets(game, c.table.shape[0], c.table.shape[2])
    nq, na = c.table.shape[1:3]
    same = c.table[np.arange(nq), np.arange(nq)]
    off = (same * ~np.eye(na, dtype=bool)).sum(axis=(1, 2))
    return float(game.mu_x @ off)


def correlation_distance(game: Game, c1: Correlation, c2: Correlation) -> float:
    """mu-weighted l1 distance E_{(x,y) ~ mu} sum_{a,b} |C1 - C2|."""
    if c1.table.shape != c2.table.shape:
        raise AlphabetMismatch("correlation tables have different shapes")
    _check_alphabets(game, c1.table.shape[0], c1.table.shape[2])
    diff = np.abs(c1.table - c2.table).sum(axis=(2, 3))
    return float((game.mu * diff).sum())


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _block_pvm(u: np.ndarray, outcomes: int) -> Povm:
    """Rank-partitioned PVM: rotate the coordinate blocks by u."""
    dim = u.shape[0]
    cuts = [k * dim // outcomes for k in range(outcomes + 1)]
    elements = []
    for k in range(outcomes):
        cols = u[:, cuts[k] : cuts[k + 1]]
        elements.append(cols @ cols.conj().T)
    return Povm(np.array(elements))


def random_strategy(
    dims: tuple[int, int], alphabets: tuple[int, int], seed: int
) -> TensorStrategy:
    """Seeded random tensor strategy: Haar block-PVMs, Gaussian unit state."""
    n_questions, n_answers = alphabets
    rng = np.random.default_rng(seed)
    dim_a, dim_b = dims
    alice = tuple(
        _block_pvm(_haar_unitary(rng, dim_a), n_answers) for _ in range(n_questions)
    )
    bob = tuple(
        _block_pvm(_haar_unitary(rng, dim_b), n_answers) for _ in range(n_questions)
    )
    state = rng.normal(size=dim_a * dim_b) + 1j * rng.normal(size=dim_a * dim_b)
    state /= np.linalg.norm(state)
    return TensorStrategy(dim_a, dim_b, state, alice, bob)


def random_povm_strategy(
    dims: tuple[int, int], alphabets: tuple[int, int], seed: int, blend: float
) -> TensorStrategy:
    """Seeded random tensor strategy with generic POVMs and a Gaussian state.

    Each POVM is blend P + (1 - blend) S^(-1/2) G_a G_a* S^(-1/2), with G_a
    complex Gaussian, S = sum_a G_a G_a* and P a Haar block PVM, so blend = 1
    gives random_strategy's kind of measurement and blend = 0 a generic POVM.
    """
    if not 0.0 <= blend <= 1.0:
        raise ValueError("blend must lie in [0, 1]")
    n_questions, n_answers = alphabets
    rng = np.random.default_rng(seed)

    def povm(dim: int) -> Povm:
        shape = (n_answers, dim, dim)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        pos = g @ g.conj().swapaxes(1, 2)
        root_inv = linalg.pseudo_inv_sqrt(pos.sum(axis=0))
        generic = root_inv @ pos @ root_inv
        generic = (generic + generic.conj().swapaxes(1, 2)) / 2
        pvm = _block_pvm(_haar_unitary(rng, dim), n_answers).elements
        return Povm(blend * pvm + (1.0 - blend) * generic)

    dim_a, dim_b = dims
    alice = tuple(povm(dim_a) for _ in range(n_questions))
    bob = tuple(povm(dim_b) for _ in range(n_questions))
    state = rng.normal(size=dim_a * dim_b) + 1j * rng.normal(size=dim_a * dim_b)
    state /= np.linalg.norm(state)
    return TensorStrategy(dim_a, dim_b, state, alice, bob)


def perturb_strategy(s: TensorStrategy, eta: float, seed: int) -> TensorStrategy:
    """Conjugate Bob's measurements by exp(i eta H) and add eta state noise.

    Deterministic per seed; eta = 0 returns the input unchanged.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if eta == 0:
        return s
    rng = np.random.default_rng(seed)
    bob = []
    for povm in s.bob:
        g = rng.normal(size=(s.dim_b, s.dim_b)) + 1j * rng.normal(
            size=(s.dim_b, s.dim_b)
        )
        h = (g + g.conj().T) / 2
        dec = linalg.eig_hermitian(h)
        u = (dec.eigenvectors * np.exp(1j * eta * dec.eigenvalues)) @ dec.eigenvectors.conj().T
        bob.append(Povm(u @ povm.elements @ u.conj().T))
    noise = rng.normal(size=s.state.size) + 1j * rng.normal(size=s.state.size)
    state = s.state + eta * noise / np.linalg.norm(noise)
    state /= np.linalg.norm(state)
    return TensorStrategy(s.dim_a, s.dim_b, state, s.alice, tuple(bob))


def deterministic_strategy(assignment, n_answers: int) -> TensorStrategy:
    """Classical strategy where both players answer f(x), as a dim-1 tensor
    strategy."""
    # answer f(x) gets the 1 x 1 identity, every other answer 0
    povms = tuple(Povm(np.eye(n_answers)[a].reshape(-1, 1, 1)) for a in assignment)
    return TensorStrategy(1, 1, np.array([1.0 + 0j]), povms, povms)


def entangled_coloring_strategy(n: int) -> TensorStrategy:
    """Perfect synchronous strategy for the K_n coloring game with n colors:
    maximally entangled state, cyclically shifted basis PVMs."""
    state = np.eye(n).reshape(-1) / np.sqrt(n)
    alice = []
    bob = []
    for x in range(n):
        elements = np.zeros((n, n, n), dtype=complex)
        for a in range(n):
            k = (a + x) % n
            elements[a, k, k] = 1.0
        alice.append(Povm(elements))
        bob.append(Povm(elements.copy()))  # real diagonal, equals transpose
    return TensorStrategy(n, n, state, tuple(alice), tuple(bob))


BUILTIN_STRATEGIES = {
    "k3-classical": lambda: deterministic_strategy([0, 1, 2], 3),
    "k3-entangled": lambda: entangled_coloring_strategy(3),
    "edge2-classical": lambda: deterministic_strategy([0, 1], 2),
}
