"""The benchmark workloads: seeded inputs, one op cycle each, output checks.

Every workload writes its inputs during set-up and hands the program only
those files (``verify_connes`` takes arrays, as its library signature asks).
An op is one ``syncround.cli.main(argv)`` call or one ``verify_connes`` call;
a cycle is a fixed list of ops that the runner repeats.  Outputs are
collected after each op's timer stops and checked after the measurement.

Check outcomes fall in three classes.  ``error``: the op raised or exited
non-zero.  ``mismatch``: an output disagrees with an independent oracle, with
an earlier run on the same input, or is malformed.  ``inequality``: a
paper inequality the program reports has slack below -1e-8.  Every failed
check fails its op; only ``error`` and ``mismatch`` make a run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import math
import os
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from syncround import cli, games, io, linalg, rounding, strategies

SLACK_FLOOR = -1e-8  # lemma and verify_connes slack
ORACLE_TOL = 1e-10  # tracial correlation against the tensor oracle
DERIVED_TOL = 1e-9  # quantities summed over up to 81 oracle entries
WEIGHT_TOL = 1e-9  # decomposition weights sum to 1
PRINTED_TOL = 3e-9  # values the CLI prints with 9 decimals
KRON_LIMIT = 576  # largest dim_a * dim_b given to the kron oracle

SWEEP_HEADER = "eta,seed,delta,distance,slices,slack_min,wall_ms"
LEMMAS = ("measurementtocoorlation", "theviennalemma")
SOUNDNESS_KEYS = (
    "delta",
    "kappa_adjusted",
    "kappa_at_omega",
    "marginal_sync",
    "n_slices",
    "omega",
    "rounding_distance",
    "transferred_expectation",
)


# -- oracles -----------------------------------------------------------------


def tensor_oracle(s: strategies.TensorStrategy) -> np.ndarray:
    """C[x, y, a, b] = <psi| A (x) B |psi>, never through the standard form.

    Small inputs use the library's kron oracle ``tensor_correlation``.  Above
    ``KRON_LIMIT`` the kron would not fit in memory (d=96 needs 1.4 GB per
    entry), so the same inner product is taken as sum(conj(Psi) * A Psi B^T)
    with Psi the dim_a x dim_b coefficient matrix of the state.
    """
    if s.dim_a * s.dim_b <= KRON_LIMIT:
        return strategies.tensor_correlation(s).table
    psi = s.state.reshape(s.dim_a, s.dim_b)
    nq, na = s.n_questions, s.n_answers
    table = np.zeros((nq, nq, na, na))
    for x in range(nq):
        for a in range(na):
            left = s.alice[x].elements[a] @ psi
            for y in range(nq):
                for b in range(na):
                    val = np.vdot(psi, left @ s.bob[y].elements[b].T)
                    table[x, y, a, b] = val.real
    return table


def sync_of(game: games.Game, table: np.ndarray) -> float:
    """Off-diagonal answer mass on equal questions, weighted by mu_x."""
    mu_x = game.mu.sum(axis=1)
    return float(
        sum(mu_x[x] * (table[x, x].sum() - np.trace(table[x, x])) for x in range(len(mu_x)))
    )


def value_of(game: games.Game, table: np.ndarray) -> float:
    return float((game.mu[:, :, None, None] * game.win * table).sum())


def distance_of(game: games.Game, t1: np.ndarray, t2: np.ndarray) -> float:
    return float((game.mu * np.abs(t1 - t2).sum(axis=(2, 3))).sum())


def embedding_gap(s: strategies.TensorStrategy) -> float:
    """Largest entry gap between the tracial route and the tensor oracle."""
    tracial = strategies.correlation(strategies.embed_tracial(s)).table
    return float(np.max(np.abs(tracial - tensor_oracle(s))))


# -- ops and checks ----------------------------------------------------------


class Checker:
    """Counts every check by name and keeps the failed ones."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.failures: list[dict] = []

    def expect(self, name: str, ok: bool, detail: str = "", inequality: bool = False) -> bool:
        self.counts[name] += 1
        if not ok:
            kind = "inequality" if inequality else "mismatch"
            self.failures.append({"check": name, "class": kind, "detail": detail})
        return bool(ok)

    @property
    def correct(self) -> bool:
        """No op raised, exited non-zero or disagreed with an oracle."""
        return all(f["class"] == "inequality" for f in self.failures)

    def error(self, detail: str) -> None:
        self.counts["op.completed"] += 1
        self.failures.append({"check": "op.completed", "class": "error", "detail": detail})


@dataclass
class Op:
    kind: str
    key: str  # names the input: ops with equal keys must give equal outputs
    run: Callable[[], Any]  # timed
    collect: Callable[[Any], dict]  # untimed, right after run
    check: Callable[[dict, Checker], None]  # after the measurement


@dataclass
class Record:
    op: Op
    wall: float
    cpu: float
    output: dict | None
    error: str | None = None


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue(), err.getvalue()


def cli_op(kind: str, key: str, argv: list[str], check, artefact: str | None = None) -> Op:
    """An op running one CLI command; ``artefact`` is a file it writes."""

    def collect(raw):
        rc, out, err = raw
        data = None
        if artefact is not None and os.path.exists(artefact):
            with open(artefact, "rb") as fh:
                data = fh.read()
            os.remove(artefact)
        digest = hashlib.sha256(out.encode() + b"\0" + (data or b"")).hexdigest()
        return {"rc": rc, "stdout": out, "stderr": err, "artefact": data, "digest": digest}

    return Op(kind, key, lambda: call_cli(argv), collect, check)


def exited_ok(out: dict, chk: Checker, kind: str) -> bool:
    return chk.expect(f"{kind}.exit_code", out["rc"] == 0, f"rc={out['rc']} {out['stderr'][-300:]}")


def check_records(records: list[Record], chk: Checker) -> int:
    """Run every op's checks plus the same-input determinism check; return
    the number of failed ops.

    Ops are counted by key, as ``distinct_ops`` counts them: a run repeats
    each op of its cycle once per cycle, and an op fails if any of its runs
    fails a check.  So both counts repeat exactly for a seed, whatever number
    of cycles the time allowed."""
    first_digest: dict[str, str] = {}
    failed_keys: set[str] = set()
    for rec in records:
        before = len(chk.failures)
        if rec.error is not None:
            chk.error(rec.error)
        else:
            try:
                rec.op.check(rec.output, chk)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                chk.expect(f"{rec.op.kind}.parse", False, f"{exc.__class__.__name__}: {exc}")
            ref = first_digest.setdefault(rec.op.key, rec.output["digest"])
            chk.expect(f"{rec.op.kind}.deterministic", rec.output["digest"] == ref, rec.op.key)
        if len(chk.failures) > before:
            failed_keys.add(rec.op.key)
    return len(failed_keys)


def distinct_ops(records: list[Record]) -> int:
    return len({rec.op.key for rec in records})


def run_op(op: Op, clock, cpu_clock) -> Record:
    start_cpu = cpu_clock()
    start = clock()
    try:
        raw = op.run()
    except Exception:  # an op that raises is a failed op, not a crashed run
        wall, cpu = clock() - start, cpu_clock() - start_cpu
        return Record(op, wall, cpu, None, traceback.format_exc(limit=8))
    wall, cpu = clock() - start, cpu_clock() - start_cpu
    return Record(op, wall, cpu, op.collect(raw))


# -- workloads ---------------------------------------------------------------


@dataclass
class Workload:
    """Base: ``generate`` writes inputs and builds ``cycle`` (timed as
    set-up); ``prepare_checks`` computes oracles (untimed)."""

    seed: int
    smoke: bool
    workdir: str
    game: games.Game = field(default_factory=games.k3_game)
    cycle: list[Op] = field(default_factory=list)

    name = ""

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_strategy(self, s: strategies.TensorStrategy, name: str) -> str:
        p = self.path(name)
        io.save_path(p, io.strategy_to_dict(s))
        return p

    def warmup_ops(self) -> list[Op]:
        """One op of each kind in the cycle."""
        seen: dict[str, Op] = {}
        for op in self.cycle:
            seen.setdefault(op.kind, op)
        return list(seen.values())

    def generate(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        raise NotImplementedError


class RoundD96(Workload):
    """``syncround round`` on seeded random 3x3 strategies at d=96."""

    name = "round-d96"

    def generate(self):
        d, count = (6, 2) if self.smoke else (96, 3)
        self.inputs = {}
        self.cycle = []
        for k in range(count):
            seed = count * self.seed + k
            key = f"round-d{d}-seed{seed}"
            s = strategies.random_strategy((d, d), (3, 3), seed)
            self.inputs[key] = s
            src = self.write_strategy(s, f"{key}.json")
            out = self.path(f"{key}.out.json")
            argv = ["round", "--game", "k3", "--strategy", src, "--out", out]
            self.cycle.append(cli_op("round", key, argv, self._checker(key), artefact=out))

    def prepare_checks(self):
        self.oracle = {k: tensor_oracle(s) for k, s in self.inputs.items()}
        self.gap = {k: embedding_gap(s) for k, s in self.inputs.items()}

    def _checker(self, key: str):
        def check(out: dict, chk: Checker):
            chk.expect("input.tracial_vs_tensor", self.gap[key] <= ORACLE_TOL, f"{key} gap {self.gap[key]:.3e}")
            if not exited_ok(out, chk, "round"):
                return
            dec = json.loads(out["artefact"])
            ref = self.oracle[key]
            w = np.asarray(dec["weights"], dtype=float)
            tables = np.asarray(dec["correlations"], dtype=float)
            mixed = np.asarray(dec["mixed"], dtype=float)
            diag = dec["diagnostics"]
            chk.expect("round.weights_sum", abs(w.sum() - 1.0) <= WEIGHT_TOL and w.min() > 0, f"sum {w.sum()!r}")
            chk.expect("round.slice_count", out["stdout"].startswith(f"slices={len(w)} ") and len(dec["corner_dims"]) == len(w))
            chk.expect("round.mixture", np.max(np.abs(mixed - np.tensordot(w, tables, 1))) <= 1e-12)
            worst = max(sync_of(self.game, t) for t in tables)
            chk.expect("round.slices_synchronous", worst <= 1e-8, f"sync {worst:.3e}")
            delta = sync_of(self.game, ref)
            chk.expect("round.delta_oracle", abs(diag["delta_in"] - delta) <= DERIVED_TOL, f"{diag['delta_in']!r} vs {delta!r}")
            dist = distance_of(self.game, ref, mixed)
            chk.expect("round.distance_oracle", abs(diag["distance"] - dist) <= DERIVED_TOL, f"{diag['distance']!r} vs {dist!r}")

        return check


class SweepK3(Workload):
    """``syncround sweep`` over several seeds on the entangled k3 strategy."""

    name = "sweep-k3"

    def generate(self):
        count = 2 if self.smoke else 4
        self.etas = (1e-3, 1e-1) if self.smoke else (1e-4, 1e-3, 1e-2, 1e-1)
        self.trials = 2 if self.smoke else 8
        self.base = strategies.BUILTIN_STRATEGIES["k3-entangled"]()
        src = self.write_strategy(self.base, "k3-entangled.json")
        eta_arg = ",".join(f"{e:g}" for e in self.etas)
        self.sweep_seeds = [10 * (count * self.seed + k) for k in range(count)]
        self.cycle = []
        for s in self.sweep_seeds:
            csv = self.path(f"sweep-{s}.csv")
            argv = [
                "sweep", "--game", "k3", "--strategy", src, "--eta", eta_arg,
                "--trials", str(self.trials), "--seed", str(s), "--csv", csv,
            ]
            self.cycle.append(cli_op("sweep", f"sweep-seed{s}", argv, self._checker(s), artefact=csv))

    def prepare_checks(self):
        self.gap = embedding_gap(self.base)
        self.expected = {}
        for s in self.sweep_seeds:
            rows = []
            for ei, eta in enumerate(self.etas):
                for t in range(self.trials):
                    task_seed = s + 1000 * ei + t
                    p = strategies.perturb_strategy(self.base, eta, task_seed)
                    rows.append((eta, task_seed, sync_of(self.game, tensor_oracle(p))))
            self.expected[s] = rows

    def _checker(self, sweep_seed: int):
        def check(out: dict, chk: Checker):
            chk.expect("input.tracial_vs_tensor", self.gap <= ORACLE_TOL, f"gap {self.gap:.3e}")
            if not exited_ok(out, chk, "sweep"):
                return
            lines = out["artefact"].decode().splitlines()
            expected = self.expected[sweep_seed]
            chk.expect("sweep.shape", lines[0] == SWEEP_HEADER and len(lines) == len(expected) + 1)
            for line, (eta, task_seed, delta) in zip(lines[1:], expected):
                f = line.split(",")
                chk.expect("sweep.row_key", float(f[0]) == eta and int(f[1]) == task_seed, line)
                chk.expect("sweep.delta_oracle", abs(float(f[2]) - delta) <= ORACLE_TOL, f"{f[2]} vs {delta!r}")
                chk.expect("sweep.row_values", math.isfinite(float(f[3])) and int(f[4]) >= 1 and f[6] == "0", line)
                chk.expect("sweep.lemma_slack", float(f[5]) >= SLACK_FLOOR, line, inequality=True)

        return check


class VerifyMixed(Workload):
    """The inequality-checking traffic: ``lemmas`` on balanced and unbalanced
    strategies, ``soundness-demo`` on the small ones, and ``verify_connes``."""

    name = "verify-mixed"

    def generate(self):
        if self.smoke:
            dims_list, connes_n = ((6, 6), (3, 6), (6, 3), (1, 5)), 8
        else:
            # Lemmas at (24, 48) and (48, 24) make the middle block of op
            # times, so op_p50_ms sits inside one kind instead of between two.
            dims_list = ((48, 48), (24, 48), (48, 24), (24, 24), (1, 5))
            connes_n = 64
        per_dims, pairs, sound_max_d = 4, 2, 24
        self.inputs = {}
        self.cycle = []
        for k in range(per_dims):
            seed = per_dims * self.seed + k
            for dims in dims_list:
                key = f"d{dims[0]}x{dims[1]}-seed{seed}"
                s = strategies.random_strategy(dims, (3, 3), seed)
                self.inputs[key] = s
                src = self.write_strategy(s, f"{key}.json")
                argv = ["lemmas", "--game", "k3", "--strategy", src]
                self.cycle.append(cli_op("lemmas", f"lemmas-{key}", argv, self._lemma_checker(key)))
                if max(dims) <= sound_max_d:
                    argv = ["soundness-demo", "--game", "k3", "--strategy", src]
                    self.cycle.append(cli_op("soundness-demo", f"sound-{key}", argv, self._sound_checker(key)))
        self.pairs = {}
        for j in range(pairs):
            seed = pairs * self.seed + j
            s = strategies.random_strategy((connes_n, connes_n), (3, 3), seed)
            p = strategies.perturb_strategy(s, 1e-2, seed + 1)
            rho = linalg.polar_decompose(strategies.embed_tracial(s).sigma).positive_part
            sigma = linalg.polar_decompose(strategies.embed_tracial(p).sigma).positive_part
            key = f"connes-n{connes_n}-seed{seed}"
            self.pairs[key] = (rho, sigma)
            self.cycle.append(self._connes_op(key, rho, sigma))

    def prepare_checks(self):
        self.oracle = {k: tensor_oracle(s) for k, s in self.inputs.items()}
        self.gap = {k: embedding_gap(s) for k, s in self.inputs.items()}
        self.connes_rhs = {}
        for key, (r, s) in self.pairs.items():
            n = r.shape[0]
            self.connes_rhs[key] = float(
                np.linalg.norm(r - s) * np.linalg.norm(r + s) / n
            )

    def _input_check(self, key: str, chk: Checker):
        chk.expect("input.tracial_vs_tensor", self.gap[key] <= ORACLE_TOL, f"{key} gap {self.gap[key]:.3e}")

    def _lemma_checker(self, key: str):
        def check(out: dict, chk: Checker):
            self._input_check(key, chk)
            if not exited_ok(out, chk, "lemmas"):
                return
            lines = out["stdout"].splitlines()
            chk.expect("lemmas.shape", lines[0] == "lemma lhs rhs slack" and len(lines) == 3)
            rows = {f[0]: [float(v) for v in f[1:]] for f in (line.split() for line in lines[1:])}
            chk.expect("lemmas.names", tuple(sorted(rows)) == LEMMAS, str(sorted(rows)))
            for name, (lhs, rhs, slack) in rows.items():
                chk.expect("lemmas.slack_is_rhs_minus_lhs", abs(slack - (rhs - lhs)) <= PRINTED_TOL, name)
                chk.expect("lemmas.slack", slack >= SLACK_FLOOR, f"{key} {name} slack {slack}", inequality=True)
            expected = 1.0 - sync_of(self.game, self.oracle[key])
            lhs = rows["theviennalemma"][0]
            chk.expect("lemmas.vienna_lhs_oracle", abs(lhs - expected) <= PRINTED_TOL, f"{lhs} vs {expected!r}")

        return check

    def _sound_checker(self, key: str):
        def check(out: dict, chk: Checker):
            self._input_check(key, chk)
            if not exited_ok(out, chk, "soundness-demo"):
                return
            vals = {f[0]: float(f[1]) for f in (line.split() for line in out["stdout"].splitlines())}
            chk.expect("soundness.keys", tuple(sorted(vals)) == SOUNDNESS_KEYS, str(sorted(vals)))
            chk.expect("soundness.finite", all(math.isfinite(v) for v in vals.values()))
            ref = self.oracle[key]
            omega, delta = value_of(self.game, ref), sync_of(self.game, ref)
            chk.expect("soundness.omega_oracle", abs(vals["omega"] - omega) <= PRINTED_TOL, f"{vals['omega']} vs {omega!r}")
            chk.expect("soundness.delta_oracle", abs(vals["delta"] - delta) <= PRINTED_TOL, f"{vals['delta']} vs {delta!r}")
            chk.expect("soundness.slices", vals["n_slices"] >= 1 and vals["rounding_distance"] >= 0)

        return check

    def _connes_op(self, key: str, rho: np.ndarray, sigma: np.ndarray) -> Op:
        def collect(raw):
            lhs, rhs = float(raw[0]), float(raw[1])
            return {"lhs": lhs, "rhs": rhs, "digest": f"{lhs!r},{rhs!r}"}

        def check(out: dict, chk: Checker):
            lhs, rhs = out["lhs"], out["rhs"]
            chk.expect("connes.finite", math.isfinite(lhs) and math.isfinite(rhs) and lhs >= -1e-12)
            ref = self.connes_rhs[key]
            chk.expect("connes.rhs_oracle", abs(rhs - ref) <= ORACLE_TOL * max(1.0, ref), f"{rhs!r} vs {ref!r}")
            chk.expect("connes.lhs_le_rhs", lhs <= rhs - SLACK_FLOOR, f"{key} lhs {lhs!r} rhs {rhs!r}", inequality=True)

        return Op("verify_connes", key, lambda: rounding.verify_connes(rho, sigma), collect, check)


WORKLOADS = {w.name: w for w in (RoundD96, SweepK3, VerifyMixed)}
