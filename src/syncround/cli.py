"""Command-line front end.

Subcommands: evaluate, sync, round, lemmas, sweep, soundness-demo.
Exit codes: 0 ok, 2 parse error or unreadable/unwritable file, 3
validation failure, 4 math-contract violation.  Every command is
deterministic given (inputs, flags, seed); real wall-clock timings are only
written when --timing is passed, so sweep CSVs are byte-reproducible by
default.

Each command runs the rounding pipeline at most once per strategy and reads
every earlier stage (embedding, input correlation, synchronicity) from the
decomposition it returns.  Sweep tasks run in blocks, in (eta, seed) order,
and each block's tasks are sliced together; the CSV rows already written
are flushed when a task fails.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import io
from .errors import (
    MathContractError,
    ParseError,
    SyncRoundError,
    ValidationError,
)
from .games import BUILTIN_GAMES, Game, with_sync_test
from .linalg import FIT_FLOOR
from .rounding import (
    lemma_report,
    round_correlation,
    round_correlations,
    rounding_stages,
)
from .soundness import identity_consistency_instance, soundness_transfer_demo
from .strategies import (
    BUILTIN_STRATEGIES,
    TensorStrategy,
    correlation,
    embed_tracial,
    perturb_strategy,
    synchronicity,
    winning_probability_from_correlation,
)


def _resolve_game(spec: str) -> Game:
    if spec in BUILTIN_GAMES:
        return BUILTIN_GAMES[spec]()
    if os.path.exists(spec):
        return io.load_path(spec, "game")
    raise ParseError(f"unknown game {spec!r} (not a builtin, not a file)")


def _resolve_strategy(spec: str) -> TensorStrategy:
    if spec in BUILTIN_STRATEGIES:
        return BUILTIN_STRATEGIES[spec]()
    if os.path.exists(spec):
        return io.load_path(spec, "strategy")
    raise ParseError(f"unknown strategy {spec!r} (not a builtin, not a file)")


def cmd_evaluate(args) -> int:
    game = _resolve_game(args.game)
    strategy = _resolve_strategy(args.strategy)
    c = correlation(embed_tracial(strategy))
    value = winning_probability_from_correlation(game, c)
    delta = synchronicity(game, c)
    print(f"value {value:.6f}")
    print(f"delta_sync {delta:.6f}")
    print("x y a b C")
    for (x, y, a, b), p in np.ndenumerate(c.table):
        print(f"{x} {y} {a} {b} {p:.6f}")
    if args.out:
        payload = io.correlation_to_dict(c)
        payload["value"] = value
        payload["delta_sync"] = delta
        io.save_path(args.out, payload)
    return 0


def cmd_sync(args) -> int:
    game = _resolve_game(args.game)
    transformed = with_sync_test(game, args.c)
    print(f"sync-test c={args.c:g} applied to {args.game}")
    if args.strategy:
        strategy = _resolve_strategy(args.strategy)
        c = correlation(embed_tracial(strategy))
        value = winning_probability_from_correlation(transformed, c)
        delta = synchronicity(game, c)
        print(f"value {value:.6f}")
        print(f"delta_sync {delta:.6f}")
    if args.out:
        io.save_path(args.out, io.game_to_dict(transformed))
    return 0


def cmd_round(args) -> int:
    game = _resolve_game(args.game)
    strategy = _resolve_strategy(args.strategy)
    dec = round_correlation(game, strategy)
    if args.out:
        io.save_path(args.out, io.decomposition_to_dict(dec))
    print(
        f"slices={len(dec.slices)} "
        f"delta={dec.diagnostics['delta_in']:.3e} "
        f"dist={dec.diagnostics['distance']:.3e}"
    )
    return 0


def cmd_lemmas(args) -> int:
    game = _resolve_game(args.game)
    strategy = _resolve_strategy(args.strategy)
    report = lemma_report(game, rounding_stages(game, strategy))
    print("lemma lhs rhs slack")
    for name in sorted(report):
        entry = report[name]
        print(
            f"{name} {entry['lhs']:.9f} {entry['rhs']:.9f} {entry['slack']:.9f}"
        )
    return 0


CSV_HEADER = "eta,seed,delta,distance,slices,slack_min,wall_ms"

# Bytes of projective element stacks one sweep block holds: at d = 3 a k3
# task's stack is 1.3 kB, so up to 809 tasks share a block; at d = 96 it is
# 1.3 MB, so every task is its own block and memory stays that of one task.
SWEEP_BLOCK_BYTES = 1 << 20


def _sweep_row(game, eta, task_seed, dec, seconds, timing):
    """A task's CSV row from its decomposition; seconds is the time spent
    on it before its lemma report, which is added."""
    start = time.perf_counter()
    report = lemma_report(game, dec.stages)
    slacks = [e["slack"] for e in report.values()]
    seconds += time.perf_counter() - start
    return {
        "eta": eta,
        "seed": task_seed,
        "delta": dec.diagnostics["delta_in"],
        "distance": dec.diagnostics["distance"],
        "slices": len(dec.slices),
        "slack_min": float(min(slacks)),
        "wall_ms": int(round(seconds * 1000)) if timing else 0,
    }


def _sweep_block(game, base, tasks, timing):
    """The rows of a block of (eta, seed) tasks, sliced together, the
    sweep's one rounding path.  A task's time is its own stages and lemma
    report plus an equal share of the block's slicing."""
    stages, seconds = [], []
    for eta, task_seed in tasks:
        start = time.perf_counter()
        stages.append(rounding_stages(game, perturb_strategy(base, eta, task_seed)))
        seconds.append(time.perf_counter() - start)
    start = time.perf_counter()
    decs = round_correlations(game, stages)
    share = (time.perf_counter() - start) / len(tasks)
    return [
        _sweep_row(game, eta, task_seed, dec, spent + share, timing)
        for (eta, task_seed), dec, spent in zip(tasks, decs, seconds)
    ]


def fit_envelope(deltas, distances) -> dict:
    """Log-log fit of distance against synchronicity.

    Reports the free least-squares exponent and the envelope constant K
    for the fixed exponent 1/8 (K = max distance / delta^(1/8)).
    """
    d = np.asarray(deltas, dtype=float)
    r = np.asarray(distances, dtype=float)
    mask = (d > FIT_FLOOR) & (r > FIT_FLOOR)
    fit: dict = {"points_used": int(mask.sum())}
    if mask.sum() >= 2:
        slope, intercept = np.polyfit(np.log(d[mask]), np.log(r[mask]), 1)
        fit["free_exponent"] = float(slope)
        fit["free_log_k"] = float(intercept)
    if mask.any():
        fit["k_fixed_eighth"] = float(np.max(r[mask] / d[mask] ** 0.125))
    return fit


def _eta_flag(text: str) -> list[float]:
    """The --eta flag's comma-separated grid as floats; a sweep config gives
    JSON numbers, which io.eta_grid checks as such."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"malformed --eta: {exc}") from exc


def cmd_sweep(args) -> int:
    # Each field a --config file sets takes the place of the matching flag.
    cfg = io.load_path(args.config, "sweep") if args.config else {}
    flag_grid = _eta_flag(args.eta) if args.eta else []
    etas = io.eta_grid(cfg.get("etas", flag_grid))
    trials = cfg.get("trials", args.trials)
    seed = cfg.get("seed", args.seed)
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    csv_path = cfg.get("csv", args.csv)
    out_path = cfg.get("out", args.out)

    game = _resolve_game(cfg.get("game", args.game))
    base = _resolve_strategy(cfg.get("strategy", args.strategy))
    # Each eta gets its own run of seeds: the stride is at least the number
    # of trials, so no two tasks share a seed.  Consecutive tasks form blocks
    # whose projective element stacks fill SWEEP_BLOCK_BYTES, one block after
    # another, so rows come out in (eta, seed) order of the sorted grid; a
    # thread pool measured slower on these small-matrix tasks.
    stride = max(1000, trials)
    tasks = [
        (eta, seed + stride * ei + t) for ei, eta in enumerate(etas) for t in range(trials)
    ]
    n = max(base.dim_a, base.dim_b)
    size = max(1, SWEEP_BLOCK_BYTES // (16 * base.n_questions * base.n_answers * n * n))
    rows = []
    try:
        for first in range(0, len(tasks), size):
            block = tasks[first : first + size]
            try:
                rows.extend(_sweep_block(game, base, block, args.timing))
            except Exception:
                # Re-run the block as blocks of one task: rows up to the first
                # failing task are written and its own error is raised.
                for task in block:
                    rows.extend(_sweep_block(game, base, [task], args.timing))
    finally:
        # Partial results are still flushed if a task or interrupt aborts us.
        lines = [CSV_HEADER]
        for r in rows:
            lines.append(
                f"{r['eta']!r},{r['seed']},{r['delta']!r},{r['distance']!r},"
                f"{r['slices']},{r['slack_min']!r},{r['wall_ms']}"
            )
        csv_text = "\n".join(lines) + "\n"
        if csv_path:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        else:
            sys.stdout.write(csv_text)
    envelope = {
        "schema": "syncround.envelope/1",
        "rows": len(rows),
        "distance_vs_delta": fit_envelope(
            [r["delta"] for r in rows], [r["distance"] for r in rows]
        ),
    }
    if out_path:
        io.save_path(out_path, envelope)
    return 0


def cmd_soundness_demo(args) -> int:
    game = _resolve_game(args.game)
    strategy = _resolve_strategy(args.strategy)
    inst = identity_consistency_instance(game)
    report = soundness_transfer_demo(game, inst, strategy)
    for key in sorted(report):
        print(f"{key} {report[key]:.9f}")
    if args.out:
        io.save_path(
            args.out,
            {"schema": "syncround.soundness-report/1", **{
                k: float(v) for k, v in sorted(report.items())
            }},
        )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process rather than per main call."""
    parser = argparse.ArgumentParser(
        prog="syncround",
        description="Round almost-synchronous strategies to synchronous mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, strategy_required=True):
        p.add_argument("--game", required=True, help="builtin name or JSON path")
        p.add_argument(
            "--strategy",
            required=strategy_required,
            help="builtin name or JSON path",
        )
        p.add_argument("--out", default=None, help="optional JSON output path")

    p = sub.add_parser("evaluate", help="correlation, value and synchronicity")
    add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sync", help="apply the synchronicity test to a game")
    add_common(p, strategy_required=False)
    p.add_argument("--c", type=float, default=0.5, help="mixing probability")
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("round", help="compute the synchronous decomposition")
    add_common(p)
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("lemmas", help="evaluate lemma inequalities")
    add_common(p)
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("sweep", help="perturbation sweep with CSV output")
    p.add_argument("--config", default=None, help="sweep config JSON")
    p.add_argument("--game", default="k3")
    p.add_argument("--strategy", default="k3-entangled")
    p.add_argument("--eta", default=None, help="comma-separated eta grid")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", default=None, help="CSV output path")
    p.add_argument("--out", default=None, help="envelope JSON path")
    p.add_argument(
        "--timing",
        action="store_true",
        help="record real wall_ms: a task's stages and lemma report plus an "
        "equal share of its block's slicing (breaks byte reproducibility)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("soundness-demo", help="toy soundness transfer report")
    add_common(p)
    p.set_defaults(func=cmd_soundness_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    except MathContractError as exc:
        print(f"math contract violated: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 4
    except SyncRoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
