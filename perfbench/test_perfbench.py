"""Tests of the benchmark itself, on its tiny smoke sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import run

run.import_program()

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
from syncround import strategies  # noqa: E402

SPEC = run.load_spec()
RUN_PY = str(Path(run.__file__).resolve())


def bench(workload: str, trace: int, cwd=run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, RUN_PY, "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300, check=False)


@pytest.fixture(scope="module")
def smoke_runs():
    return {(w, t): bench(w, t) for w in run.WORKLOAD_NAMES for t in (0, 1)}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_printed_with_its_unit(smoke_runs, workload, trace):
    proc = smoke_runs[(workload, trace)]
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["correct"] is True
    spec_metrics = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec_metrics
    }
    for m in spec_metrics:
        assert any(
            line.startswith(f"metric {m['name']} ") and f" {m['unit']} n=" in line
            for line in lines
        ), m["name"]
    checks = json.loads(next(line for line in lines if line.startswith("checks "))[7:])
    assert set(EXPECTED_CHECKS[workload]) <= set(checks)


EXPECTED_CHECKS = {
    "round-d96": ("input.tracial_vs_tensor", "round.weights_sum", "round.delta_oracle",
                  "round.deterministic"),
    "sweep-k3": ("input.tracial_vs_tensor", "sweep.delta_oracle", "sweep.deterministic",
                 "sweep.lemma_slack"),
    "verify-mixed": ("input.tracial_vs_tensor", "lemmas.slack", "lemmas.vienna_lhs_oracle",
                     "soundness.omega_oracle", "connes.lhs_le_rhs", "connes.rhs_oracle"),
}


def test_verify_mixed_counts_the_unbalanced_lemma_failures(smoke_runs):
    # The (1, 5) strategies of seeds 0-3 include seed 1, whose
    # theviennalemma slack is about -0.05 at this commit.
    proc = smoke_runs[("verify-mixed", 0)]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] > 0
    frac = next(line for line in proc.stdout.splitlines() if line.startswith("metric failed_frac "))
    assert float(frac.split()[2]) > 0
    assert "failure inequality lemmas.slack: d1x5-seed1 theviennalemma" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(RUN_PY).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep-k3", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp_path, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def run_cycle(workload_cls, tmp_path):
    wl = workload_cls(seed=0, smoke=True, workdir=str(tmp_path))
    wl.generate()
    wl.prepare_checks()
    records, _ = run.measure(wl.cycle, bw, cycles=1)
    return wl, records


def test_op_counts_do_not_depend_on_the_number_of_cycles(tmp_path):
    wl = bw.VerifyMixed(seed=0, smoke=True, workdir=str(tmp_path))
    wl.generate()
    wl.prepare_checks()
    once, _ = run.measure(wl.cycle, bw, cycles=1)
    twice, _ = run.measure(wl.cycle, bw, cycles=2)
    assert bw.distinct_ops(once) == bw.distinct_ops(twice) == len(wl.cycle)
    failed = bw.check_records(once, bw.Checker())
    assert failed > 0
    assert bw.check_records(twice, bw.Checker()) == failed


def test_round_checks_fire_on_a_wrong_decomposition(tmp_path):
    _, records = run_cycle(bw.RoundD96, tmp_path)
    assert bw.check_records(records, bw.Checker()) == 0
    dec = json.loads(records[0].output["artefact"])
    dec["weights"][0] += 1e-6
    records[0].output["artefact"] = json.dumps(dec).encode()
    chk = bw.Checker()
    assert bw.check_records(records, chk) == 1
    assert {f["check"] for f in chk.failures} == {"round.weights_sum", "round.mixture"}
    assert all(f["class"] == "mismatch" for f in chk.failures) and not chk.correct


def test_sweep_checks_fire_on_a_wrong_delta_and_on_nondeterminism(tmp_path):
    _, records = run_cycle(bw.SweepK3, tmp_path)
    records.append(records[0])  # the same sweep seed a second time
    assert bw.check_records(records, bw.Checker()) == 0
    lines = records[0].output["artefact"].decode().splitlines()
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) + 1e-8)
    lines[1] = ",".join(fields)
    bad = dict(records[0].output, artefact=("\n".join(lines) + "\n").encode(), digest="changed")
    records.append(bw.Record(records[0].op, 0.0, 0.0, bad))
    chk = bw.Checker()
    assert bw.check_records(records, chk) == 1
    assert {f["check"] for f in chk.failures} == {"sweep.delta_oracle", "sweep.deterministic"}


def test_a_raising_op_is_a_failed_op_and_makes_the_run_incorrect():
    def boom():
        raise RuntimeError("boom")

    op = bw.Op("verify_connes", "k", boom, lambda raw: {}, lambda out, chk: None)
    rec = bw.run_op(op, time.perf_counter, time.process_time)
    chk = bw.Checker()
    assert bw.check_records([rec], chk) == 1
    assert chk.failures[0]["class"] == "error" and "boom" in chk.failures[0]["detail"]
    assert not chk.correct


def test_product_form_oracle_matches_the_kron_oracle(monkeypatch):
    s = strategies.random_strategy((3, 5), (3, 3), 4)
    kron = bw.tensor_oracle(s)
    monkeypatch.setattr(bw, "KRON_LIMIT", 0)
    np.testing.assert_allclose(bw.tensor_oracle(s), kron, atol=1e-13)


def test_tracer_wraps_every_import_site_and_unwraps(tmp_path):
    import syncround
    from syncround import cli, rounding, soundness

    original = strategies.correlation
    sites = (syncround, strategies, rounding, soundness, cli)
    tracer = bench_trace.Tracer()
    with tracer:
        assert all(mod.correlation is not original for mod in sites)
        assert len({id(mod.correlation) for mod in sites}) == 1
        with tracer.op(7, "evaluate"):
            bw.call_cli(["evaluate", "--game", "k3", "--strategy", "k3-entangled"])
    assert all(mod.correlation is original for mod in sites)
    assert all(
        getattr(sys.modules[f"syncround.{name.split('.')[0]}"], name.split(".")[1]) is fn
        for name, fn in bench_trace.traced_functions().items()
    )
    assert tracer.calls["strategies.correlation"] == 1
    assert tracer.calls["strategies.embed_tracial"] == 1
    assert {s[5] for s in tracer.spans} == {7}
    root = next(s for s in tracer.spans if s[1] == "op.evaluate")
    main = next(s for s in tracer.spans if s[1] == "cli.main")
    assert main[4] == root[0]
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(tracer.spans)
    assert {"id", "name", "start", "end", "parent", "op"} <= set(rows[0])


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = bench_trace.Tracer()
    tracer.spans = [
        (1, "a", 0.0, 10.0, 0, 1, 1, True),
        (2, "b", 1.0, 4.0, 1, 1, 1, True),
        (3, "b", 3.0, 6.0, 1, 1, 2, True),  # overlaps its sibling
        (4, "a", 7.0, 8.0, 1, 1, 1, True),  # recursive: not counted twice
    ]
    times = tracer.layer_times()
    assert times["a"]["self"] == pytest.approx(10 - 5 - 1 + 1)
    assert times["a"]["incl"] == pytest.approx(10)
    assert times["b"]["self"] == pytest.approx(6)


def test_counts_stay_exact_under_thread_switching():
    from syncround import linalg

    m = np.eye(2)
    workers, per_worker = 6, 2000

    def hammer():
        for _ in range(per_worker):
            linalg.hermitize(m)  # spanned, and calls the count-only helpers

    old = sys.getswitchinterval()
    tracer = bench_trace.Tracer()
    try:
        sys.setswitchinterval(1e-6)
        with tracer:
            threads = [threading.Thread(target=hammer) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    total = workers * per_worker
    assert tracer.calls["linalg.hermitize"] == total
    assert tracer.calls["linalg.as_matrix"] == total
    assert tracer.calls["linalg.frobenius"] == 2 * total
    assert len(tracer.spans) == total
