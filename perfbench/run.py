"""syncround benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload round-d96 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload verify-mixed --seed 0 --seconds 1 --trace 1 --smoke

Each workload runs in its own process and calls the program in-process
through its public entry points: ``syncround.cli.main(argv)`` and
``syncround.rounding.verify_connes``.  The program is imported from ``src/``
next to this directory and runs with its defaults (``SYNCROUND_THREADS`` is
recorded, never set).

A run sets the workload up several times (input generation plus one warm-up
op of each kind) and reports the median as ``setup_s``.  It then repeats the
workload's op cycle, one op at a time (a closed loop with one client), until
``--seconds`` have passed, finishing the cycle it is in.  Outputs are checked
after the loop.  ``attempted`` and ``failed`` count the distinct ops of the
cycle, and an op fails if any of its runs fails a check, so both repeat
exactly for a seed; the timings use every run.  With ``--trace 0`` the end-to-end metrics of BENCHMARK.json
are reported.  With ``--trace 1`` the cycle runs untraced for half the time,
then the same number of cycles again under the span recorder of
``bench_trace``; that gives the per-layer metrics (means per op) and
``trace.overhead_frac``.  ``--smoke`` runs one cycle at tiny sizes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric with its unit and sample count, ``failed_frac``, the
environment and the check counts; the same goes to
``.perfbench_out/<workload>-seed<n>-trace<t>.json`` at the repository root,
and a traced run writes its spans to ``.perfbench_out/spans-*.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("round-d96", "sweep-k3", "verify-mixed")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 900


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def load_spec() -> dict:
    if not SPEC_PATH.is_file():
        raise BenchError(f"{SPEC_PATH.name} not found at the repository root")
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def import_program() -> None:
    """Import syncround from src/ of this checkout and nowhere else."""
    package = SRC / "syncround"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"program source not found: {package}")
    sys.path.insert(0, str(SRC))
    import syncround

    if Path(syncround.__file__).resolve().parent != package.resolve():
        raise BenchError(f"syncround imported from {syncround.__file__}, not {package}")


# -- environment ---------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS will use, read from the library."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "SYNCROUND_THREADS": os.environ.get("SYNCROUND_THREADS", "unset"),
        "machine": platform.machine(),
        "seed": seed,
    }


# -- measurement -----------------------------------------------------------------


def timed_setup(workload, bw) -> float:
    start = time.perf_counter()
    workload.generate()
    for op in workload.warmup_ops():
        bw.run_op(op, time.perf_counter, time.process_time)
    return time.perf_counter() - start


def measure(cycle, bw, seconds=None, cycles=None, tracer=None):
    """Repeat the cycle until ``seconds`` pass (finishing the cycle) or for
    exactly ``cycles`` cycles.  Returns the records and the cycle count."""
    records = []
    done = 0
    start = time.perf_counter()
    while True:
        for op in cycle:
            if tracer is None:
                rec = bw.run_op(op, time.perf_counter, time.process_time)
            else:
                with tracer.op(len(records), op.kind):
                    rec = bw.run_op(op, time.perf_counter, time.process_time)
            records.append(rec)
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return records, done


def tail_percentile(n: int) -> int | None:
    """Highest of a few percentiles with at least ten samples above it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def end_to_end(records, setup_times, attempted, failed) -> tuple[dict, dict]:
    walls = [r.wall for r in records]
    n = len(walls)
    metrics = {
        "ops_per_s": (n / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(walls) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"failed_frac": (failed / attempted, "1")}
    p = tail_percentile(n)
    if p is not None:
        extra[f"op_p{p}_ms"] = (statistics.quantiles(walls, n=100)[p - 1] * 1e3, "ms")
    return metrics, extra


def per_layer(tracer, traced, untraced) -> tuple[dict, dict]:
    """Per-layer metrics as means per traced op, plus the traced shares."""
    n = len(traced)
    times = tracer.layer_times()

    def ms(name, which="incl"):
        return times.get(name, {}).get(which, 0.0) * 1e3 / n

    def calls(name):
        return tracer.calls.get(name, 0) / n

    def count(name):
        return tracer.counts.get(name, 0) / n

    metrics = {}
    for name in ("rounding.slice_strategies", "cli.main"):
        metrics[f"{name}.self_ms"] = (ms(name, "self"), "ms")
    for name in (
        "rounding.slice_strategies", "rounding.orthogonalize_povm", "linalg.eig_hermitian",
        "linalg.polar_decompose", "strategies.correlation", "strategies.perturb_strategy",
        "rounding.lemma_report", "rounding.symmetrize", "rounding.projectivize",
        "rounding.round_correlation", "rounding.verify_connes",
        "soundness.soundness_transfer_demo", "soundness.aggregate_slice_povms",
        "io.load_path", "io.save_path",
    ):
        metrics[f"{name}.ms"] = (ms(name), "ms")
    for name in (
        "rounding.slice_strategies", "rounding.orthogonalize_povm", "linalg.eig_hermitian",
        "linalg.polar_decompose", "strategies.embed_tracial", "strategies.correlation",
        "linalg.chi_geq",
    ):
        metrics[f"{name}.calls"] = (calls(name), "count")
    # Computed from call arguments and results, not timed: these repeat exactly.
    computed = {
        "linalg.eig_hermitian.work_n3": "count",
        "rounding.slices.count": "count",
        "rounding.slices.corner_dim_sum": "count",
        "rounding.lemma_report.violations": "count",
        "io.bytes_read": "bytes",
        "io.bytes_written": "bytes",
    }
    for name, unit in computed.items():
        metrics[name] = (count(name), unit)
    untraced_wall = sum(r.wall for r in untraced)
    metrics["process.cpu_util"] = (sum(r.cpu for r in untraced) / untraced_wall, "ratio")
    metrics["trace.overhead_frac"] = (sum(r.wall for r in traced) / untraced_wall - 1.0, "ratio")

    op_ms = sum(r.wall for r in traced) * 1e3 / n
    shares = {
        name: {"self_ms": t["self"] * 1e3 / n, "incl_ms": t["incl"] * 1e3 / n,
               "self_share": t["self"] * 1e3 / n / op_ms}
        for name, t in sorted(times.items(), key=lambda kv: -kv[1]["self"])
        if not name.startswith("op.")
    }
    return metrics, {"computed": sorted(computed), "op_ms": op_ms, "layers": shares}


def check_against_spec(metrics: dict, spec_metrics: list) -> None:
    want = {m["name"]: m["unit"] for m in spec_metrics}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want != have:
        missing = sorted(set(want) - set(have))
        extra = sorted(set(have) - set(want))
        units = sorted(k for k in set(want) & set(have) if want[k] != have[k])
        raise BenchError(f"metrics disagree with {SPEC_PATH.name}: missing {missing}, "
                         f"extra {extra}, unit mismatch {units}")


def run_workload(args, spec) -> int:
    import bench_trace
    import bench_workloads as bw

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    workdir = tempfile.mkdtemp(prefix=f"work-{tag}-", dir=OUT_DIR)
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "smoke": args.smoke, "env": environment(args.seed)}
    try:
        wl = bw.WORKLOADS[args.workload](seed=args.seed, smoke=args.smoke, workdir=workdir)
        repeats = 1 if (args.trace or args.smoke) else SETUP_REPEATS
        setup_times = [timed_setup(wl, bw) for _ in range(repeats)]
        wl.prepare_checks()
        fixed = 1 if args.smoke else None
        if args.trace:
            untraced, cycles = measure(wl.cycle, bw, args.seconds / 2, fixed)
            tracer = bench_trace.Tracer()
            with tracer:
                report["wrapped_sites"] = tracer.installed_sites
                traced, _ = measure(wl.cycle, bw, cycles=cycles, tracer=tracer)
            records = untraced + traced
            tracer.write_jsonl(str(OUT_DIR / f"spans-{tag}.jsonl"))
        else:
            records, cycles = measure(wl.cycle, bw, args.seconds, fixed)
        chk = bw.Checker()
        failed = bw.check_records(records, chk)
        attempted = bw.distinct_ops(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, detail = per_layer(tracer, traced, untraced)
        check_against_spec(metrics, spec["per_layer"])
        extra = {}
        report["traced"] = detail
    else:
        metrics, extra = end_to_end(records, setup_times, attempted, failed)
        check_against_spec(metrics, spec["end_to_end"])
        report["setup_runs_s"] = setup_times

    kinds = {}
    for r in records:
        kinds.setdefault(r.op.kind, []).append(r.wall)
    report.update(
        cycles=cycles, ops_per_cycle=len(wl.cycle), op_runs=len(records), checks=dict(sorted(chk.counts.items())),
        failures=chk.failures[:50], failure_count=len(chk.failures),
        op_kinds={k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3} for k, v in kinds.items()},
        metrics={k: {"value": v, "unit": u, "n": len(traced if args.trace else records),
                     "computed": k in report.get("traced", {}).get("computed", ())}
                 for k, (v, u) in {**metrics, **extra}.items()},
    )
    result = {
        "correct": chk.correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report["result"] = result
    with open(OUT_DIR / f"{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print_report(report)
    print(json.dumps(result))
    return 0


def print_report(report: dict) -> None:
    res = report["result"]
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"ops={res['attempted']} failed={res['failed']} cycles={report['cycles']} "
          f"op_runs={report['op_runs']} "
          f"correct={str(res['correct']).lower()}")
    for name, m in report["metrics"].items():
        label = " computed" if m["computed"] else ""
        print(f"metric {name} {m['value']!r} {m['unit']} n={m['n']}{label}")
    for kind, k in report["op_kinds"].items():
        print(f"op_kind {kind} n={k['n']} p50_ms={k['p50_ms']:.3f}")
    if "traced" in report:
        top = list(report["traced"]["layers"].items())[:12]
        print(f"traced op_ms={report['traced']['op_ms']:.3f} "
              f"(computed counts: {', '.join(report['traced']['computed'])})")
        for name, t in top:
            print(f"self_share {name} {t['self_share']:.4f} self_ms={t['self_ms']:.3f} "
                  f"incl_ms={t['incl_ms']:.3f}")
    for f in report["failures"][:5]:
        print(f"failure {f['class']} {f['check']}: {f['detail'][:200]}")
    print("checks " + json.dumps(report["checks"]))
    print("env " + json.dumps(report["env"]))


def run_all(args) -> int:
    """Run every workload in its own process and print a summary."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            status = proc.returncode or 1
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": summary}))
    return status


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one cycle at tiny sizes")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        import_program()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
