"""Unit tests for the command-line interface."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from syncround import cli, io, rounding
from syncround.cli import CSV_HEADER, main
from syncround.errors import MathContractError
from syncround.games import Game, k3_game
from syncround.strategies import entangled_coloring_strategy, random_povm_strategy


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evaluate_perfect_strategy(capsys):
    code, out, _ = run(capsys, "evaluate", "--game", "k3", "--strategy", "k3-classical")
    assert code == 0
    assert "value 1.000000" in out
    assert "delta_sync 0.000000" in out


def test_evaluate_writes_output(capsys, tmp_path):
    out_path = tmp_path / "corr.json"
    code, _, _ = run(
        capsys,
        "evaluate", "--game", "k3", "--strategy", "k3-entangled",
        "--out", str(out_path),
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    assert obj["value"] == pytest.approx(1.0)


def test_unknown_game_exits_2(capsys):
    code, _, err = run(capsys, "evaluate", "--game", "nope", "--strategy", "k3-classical")
    assert code == 2
    assert "parse error" in err


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": ')
    code, _, err = run(capsys, "evaluate", "--game", str(path), "--strategy", "k3-classical")
    assert code == 2
    assert "line" in err


def test_alphabet_mismatch_exits_3(capsys):
    code, _, err = run(capsys, "evaluate", "--game", "edge2", "--strategy", "k3-classical")
    assert code == 3
    assert "AlphabetMismatch" in err


def test_pvm_columns_that_miss_their_elements_exit_3(capsys, monkeypatch):
    # projectivize keeps the columns the rounding kernel returns; swap two
    # outcomes' columns in every question of the stacked call
    real = rounding._round_povm

    def swapped(elements, weight, factors=None):
        pvm, cols, masses = real(elements, weight, factors)
        if cols is not None:
            cols = tuple((c[1], c[0], *c[2:]) for c in cols)
        return pvm, cols, masses

    monkeypatch.setattr(rounding, "_round_povm", swapped)
    code, _, err = run(capsys, "round", "--game", "k3", "--strategy", "k3-entangled")
    assert code == 3
    assert "columns" in err
    assert "Traceback" not in err


def non_synchronous_game_file(tmp_path) -> str:
    g = k3_game()
    win = g.win.copy()
    win[0, 0] = np.ones((3, 3), dtype=bool)
    bad = Game(g.questions, g.answers, g.mu, win)
    path = tmp_path / "bad_game.json"
    io.save_path(str(path), io.game_to_dict(bad))
    return str(path)


def test_non_synchronous_game_exits_3(capsys, tmp_path):
    path = non_synchronous_game_file(tmp_path)
    code, _, err = run(capsys, "round", "--game", path, "--strategy", "k3-classical")
    assert code == 3
    assert "NotSynchronousGame" in err


def test_lemmas_on_a_non_synchronous_game_exits_3(capsys, tmp_path):
    path = non_synchronous_game_file(tmp_path)
    code, out, err = run(capsys, "lemmas", "--game", path, "--strategy", "k3-entangled")
    assert code == 3
    assert "NotSynchronousGame" in err
    assert out == ""


def test_sync_transforms_game(capsys, tmp_path):
    out_path = tmp_path / "game.json"
    code, out, _ = run(
        capsys, "sync", "--game", "k3", "--c", "0.5", "--out", str(out_path)
    )
    assert code == 0
    transformed = io.load_path(str(out_path), "game")
    g = k3_game()
    np.testing.assert_allclose(
        transformed.mu, 0.5 * g.mu + 0.5 * np.diag(g.mu_x), atol=1e-12
    )


def test_round_perfect_strategy(capsys):
    code, out, _ = run(capsys, "round", "--game", "k3", "--strategy", "k3-entangled")
    assert code == 0
    assert "slices=1" in out
    dist = float(out.split("dist=")[1].split()[0])
    assert dist <= 1e-8


def test_round_output_deterministic(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(
            capsys,
            "round", "--game", "k3", "--strategy", "k3-entangled", "--out", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_lemmas_output(capsys):
    code, out, _ = run(capsys, "lemmas", "--game", "k3", "--strategy", "k3-entangled")
    assert code == 0
    assert "theviennalemma" in out
    assert "measurementtocoorlation" in out
    for line in out.strip().splitlines()[1:]:
        slack = float(line.split()[-1])
        assert slack >= -1e-8


def povm_strategy_file(tmp_path):
    """An unbalanced strategy of generic POVMs half blended with PVMs."""
    path = tmp_path / "povm.json"
    s = random_povm_strategy((4, 6), (3, 3), 7, 0.5)
    io.save_path(str(path), io.strategy_to_dict(s))
    return str(path)


def test_round_povm_strategy(capsys, tmp_path):
    out_path = tmp_path / "dec.json"
    code, _, _ = run(
        capsys,
        "round", "--game", "k3", "--strategy", povm_strategy_file(tmp_path),
        "--out", str(out_path),
    )
    assert code == 0
    dec = json.loads(out_path.read_text())
    assert dec["diagnostics"]["proj_gamma"] > 1e-3
    assert sum(dec["weights"]) == pytest.approx(1.0, abs=1e-9)


def test_lemmas_povm_strategy(capsys, tmp_path):
    strategy = povm_strategy_file(tmp_path)
    code, out, _ = run(capsys, "lemmas", "--game", "k3", "--strategy", strategy)
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 2
    for line in lines:
        assert float(line.split()[-1]) >= -1e-8


def test_sweep_row_count(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--eta", "1e-3,1e-2", "--trials", "2", "--seed", "0",
        "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "eta,seed,delta,distance,slices,slack_min,wall_ms"
    assert len(lines) == 5


def test_sweep_deterministic_bytes(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run(
            capsys,
            "sweep", "--eta", "1e-3,1e-2", "--trials", "2", "--seed", "7",
            "--csv", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep-golden.csv"


def test_sweep_matches_the_golden_csv(capsys, tmp_path):
    # data/sweep-golden.csv is this command's output before the per-call
    # overhead cuts, which change no computed value.  The float fields are
    # compared to 1e-12, not byte for byte: OpenBLAS picks its kernels by
    # CPU, and the same code on a Haswell kernel moves them by ~1e-16.
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--eta", "1e-3,1e-1", "--trials", "2", "--seed", "0",
        "--csv", str(csv_path),
    )
    assert code == 0
    got = csv_path.read_text().splitlines()
    want = GOLDEN_SWEEP.read_text().splitlines()
    assert got[0] == want[0] == CSV_HEADER
    assert len(got) == len(want) == 5
    for g, w in zip(got[1:], want[1:]):
        g, w = g.split(","), w.split(",")
        exact = (0, 1, 4, 6)  # eta, seed, slices, wall_ms
        assert [g[i] for i in exact] == [w[i] for i in exact]
        for i in (2, 3, 5):  # delta, distance, slack_min
            assert abs(float(g[i]) - float(w[i])) <= 1e-12, (CSV_HEADER.split(",")[i], g, w)


def test_sweep_delta_trend(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--eta", "1e-3,1e-1", "--trials", "3", "--seed", "0",
        "--csv", str(csv_path),
    )
    assert code == 0
    rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
    small = [float(r[2]) for r in rows if float(r[0]) == 1e-3]
    large = [float(r[2]) for r in rows if float(r[0]) == 1e-1]
    assert np.mean(small) < np.mean(large)


def test_sweep_rejects_unsorted_grid(capsys):
    code, _, err = run(capsys, "sweep", "--eta", "1e-2,1e-3")
    assert code == 3


def test_sweep_envelope_output(capsys, tmp_path):
    out_path = tmp_path / "envelope.json"
    code, _, _ = run(
        capsys,
        "sweep", "--eta", "1e-3,1e-2,1e-1", "--trials", "2",
        "--csv", str(tmp_path / "s.csv"), "--out", str(out_path),
    )
    assert code == 0
    obj = json.loads(out_path.read_text())
    fit = obj["distance_vs_delta"]
    assert np.isfinite(fit["k_fixed_eighth"])
    assert fit["free_exponent"] >= 0.125 - 0.05


def test_sweep_config_file(capsys, tmp_path):
    cfg = {
        "schema": "syncround.sweep/1",
        "game": "k3",
        "strategy": "k3-entangled",
        "etas": [1e-3, 1e-2],
        "trials": 1,
        "seed": 0,
        "csv": str(tmp_path / "cfg.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, _ = run(capsys, "sweep", "--config", str(cfg_path))
    assert code == 0
    lines = (tmp_path / "cfg.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_soundness_demo(capsys):
    code, out, _ = run(
        capsys, "soundness-demo", "--game", "k3", "--strategy", "k3-entangled"
    )
    assert code == 0
    report = dict(line.split() for line in out.strip().splitlines())
    assert float(report["omega"]) == pytest.approx(1.0, abs=1e-9)
    assert float(report["transferred_expectation"]) == pytest.approx(1.0, abs=1e-8)


def test_sweep_flushes_finished_rows_when_a_task_fails(capsys, tmp_path, monkeypatch):
    argv = ["sweep", "--eta", "1e-3,1e-2", "--trials", "2", "--seed", "0", "--csv"]
    full_path = tmp_path / "full.csv"
    assert run(capsys, *argv, str(full_path))[0] == 0
    real = cli.round_correlation
    calls = []

    def fails_on_third(game, s):
        calls.append(s)
        if len(calls) == 3:
            raise MathContractError("injected failure")
        return real(game, s)

    monkeypatch.setattr(cli, "round_correlation", fails_on_third)
    partial_path = tmp_path / "partial.csv"
    code, _, err = run(capsys, *argv, str(partial_path))
    assert code == 4
    assert "injected failure" in err
    lines = partial_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines == full_path.read_text().splitlines()[:3]
    assert [line.split(",")[:2] for line in lines[1:]] == [["0.001", "0"], ["0.001", "1"]]


def stubbed_sweep_seeds(capsys, monkeypatch, *argv):
    """The task seeds a sweep hands out, with every task stubbed."""
    seeds = []

    def stub_task(game, base, eta, task_seed, timing):
        seeds.append(task_seed)
        return {
            "eta": eta, "seed": task_seed, "delta": 0.0, "distance": 0.0,
            "slices": 1, "slack_min": 0.0, "wall_ms": 0,
        }

    monkeypatch.setattr(cli, "_sweep_task", stub_task)
    assert run(capsys, "sweep", "--eta", "1e-3,1e-2", *argv)[0] == 0
    return seeds


def test_sweep_seeds_stay_distinct_past_a_thousand_trials(capsys, monkeypatch):
    seeds = stubbed_sweep_seeds(capsys, monkeypatch, "--trials", "1001")
    assert len(seeds) == 2002
    assert len(set(seeds)) == 2002
    # Up to a thousand trials the etas stay a thousand seeds apart.
    seeds = stubbed_sweep_seeds(capsys, monkeypatch, "--trials", "2", "--seed", "5")
    assert seeds == [5, 6, 1005, 1006]


def _strategy_text(**fields):
    obj = io.strategy_to_dict(entangled_coloring_strategy(3))
    obj.update(fields)
    return json.dumps(obj)


def _game_text(**fields):
    obj = io.game_to_dict(k3_game())
    obj.update(fields)
    return json.dumps(obj)


def _sweep_text(**fields):
    return json.dumps({"schema": "syncround.sweep/1", "etas": [0.1], **fields})


def _with_dim_a(literal):
    """The k3-entangled strategy with dim_a spelt as the given JSON literal."""
    return _strategy_text().replace('"dim_a": 3', f'"dim_a": {literal}', 1)


def _with_entry(literal):
    """The k3-entangled strategy with Alice's first matrix entry spelt as literal."""
    alice = json.loads(json.dumps(_GOOD["alice"]))
    alice[0][0][0][0][0] = 0.123456789
    return _strategy_text(alice=alice).replace("0.123456789", literal, 1)


def _with_duplicate(text, field, value):
    """text with field repeated after the others, holding value."""
    return text[:-1] + f", {json.dumps(field)}: {json.dumps(value)}}}"


def _with_alice(edit):
    """The k3-entangled strategy with edit applied to a copy of Alice's side."""
    alice = json.loads(json.dumps(_GOOD["alice"]))
    edit(alice)
    return _strategy_text(alice=alice)


def _set(alice, path, value):
    """alice with the entry at the index path replaced by value."""
    *head, last = path
    for i in head:
        alice = alice[i]
    alice[last] = value


def _ragged_keeping_count(alice):
    row = alice[0][0][0]
    row[0].append(row[1].pop())


def _merge_first_answers(alice):
    e = np.array([io.decode_matrix(m) for m in alice[1]])
    alice[1] = [io.encode_matrix(e[0] + e[1])] + alice[1][2:]


def _not_a_povm_then_string(alice):
    alice[0][0] = io.encode_matrix(0.5 * io.decode_matrix(alice[0][0]))
    _set(alice, (1, 0, 0, 0, 0), "0.5")


_EYE, _ZERO = io.encode_matrix(np.eye(3)), io.encode_matrix(np.zeros((3, 3)))
_GOOD = io.strategy_to_dict(entangled_coloring_strategy(3))
_MU = io.game_to_dict(k3_game())["mu"]
ROUND = ["round", "--game", "k3", "--strategy", "FILE"]
EVALUATE = ["evaluate", "--game", "FILE", "--strategy", "k3-entangled"]
SWEEP = ["sweep", "--config", "FILE"]

# (argv with FILE standing for the written input, input text, exit code)
BAD_INPUTS = {
    "state-is-string": (ROUND, _strategy_text(state="abc"), 2),
    "dim-is-not-int": (ROUND, _strategy_text(dim_a="x"), 2),
    "dim-is-fractional": (ROUND, _strategy_text(dim_a=3.9), 2),
    "alice-is-int": (ROUND, _strategy_text(alice=5), 2),
    "top-level-int": (ROUND, "5", 2),
    "game-top-level-int": (["round", "--game", "FILE", "--strategy", "k3-entangled"], "5", 2),
    "no-questions": (ROUND, _strategy_text(alice=[], bob=[]), 3),
    "nan-literal": (ROUND, _strategy_text(state=[[math.nan, 0.0]] * 9), 2),
    "overflowing-number": (
        ROUND, _strategy_text(state=[[1.0, 0.0]] * 9).replace("1.0", "1e400", 1), 2
    ),
    "answer-counts-differ": (ROUND, _strategy_text(bob=[[_EYE, _ZERO]] + _GOOD["bob"][1:]), 3),
    "non-square-element": (
        ROUND,
        _strategy_text(alice=[[io.encode_matrix(np.ones((3, 2)))]] + _GOOD["alice"][1:]),
        3,
    ),
    "no-outcomes": (ROUND, _strategy_text(alice=[[]] * 3), 3),
    "questions-is-string": (EVALUATE, _game_text(questions="abc"), 2),
    "answers-is-string": (EVALUATE, _game_text(answers="abc"), 2),
    "eta-not-a-number": (["sweep", "--eta", "abc"], None, 2),
    "eta-nan": (["sweep", "--eta", "nan"], None, 3),
    "config-etas-not-numbers": (SWEEP, _sweep_text(etas=["abc"]), 2),
    "config-etas-not-a-list": (SWEEP, _sweep_text(etas=5), 2),
    "config-trials-not-a-number": (SWEEP, _sweep_text(trials="x"), 2),
    "config-top-level-int": (SWEEP, "7", 2),
    "config-game-not-a-string": (SWEEP, _sweep_text(game=5), 2),
    "config-missing": (["sweep", "--config", "missing.json"], None, 2),
    "infinity-literal": (ROUND, _strategy_text(state=[[math.inf, 0.0]] * 9), 2),
    "overflowing-dim": (ROUND, _with_dim_a("1e400"), 2),
    "dim-20-digits": (ROUND, _with_dim_a("12345678901234567890"), 2),
    "dim-30-digits": (ROUND, _with_dim_a("123456789012345678901234567890"), 2),
    "dim-5000-digits": (ROUND, _with_dim_a("1" * 5000), 2),
    "entry-20-digits": (ROUND, _with_entry("12345678901234567890"), 3),
    "entry-30-digits": (ROUND, _with_entry("123456789012345678901234567890"), 3),
    "duplicate-key-last-good": (ROUND, _with_duplicate(_strategy_text(dim_a="x"), "dim_a", 3), 0),
    "duplicate-key-last-bad": (ROUND, _with_duplicate(_strategy_text(), "dim_a", "x"), 2),
    "utf8-bom": (ROUND, "\ufeff" + _strategy_text(), 2),
    "lone-surrogate-label": (EVALUATE, _game_text(questions=["\ud800", "1", "2"]), 0),
    "label-30-digits": (EVALUATE, _game_text(questions=[10**30, 1, 2]), 2),
    "not-utf8": (ROUND, b"\xff" + _strategy_text().encode(), 2),
    "nested-200000-deep": (ROUND, "[" * 200_000 + "]" * 200_000, 2),
    "seed-negative": (["sweep", "--eta", "0.1", "--seed", "-1"], None, 3),
    "config-seed-negative": (SWEEP, _sweep_text(seed=-1), 3),
    "config-seed-30-digits": (SWEEP, _sweep_text(seed=10**30), 2),
    "dim-is-boolean": (ROUND, _with_dim_a("true"), 2),
    "config-trials-boolean": (SWEEP, _sweep_text(trials=True), 2),
    "config-seed-boolean": (SWEEP, _sweep_text(seed=False), 2),
    "config-etas-boolean": (SWEEP, _sweep_text(etas=[True]), 2),
    "config-etas-strings": (SWEEP, _sweep_text(etas=["0.1"]), 2),
    "mu-strings": (EVALUATE, _game_text(mu=[[repr(v) for v in row] for row in _MU]), 2),
    "mu-booleans": (EVALUATE, _game_text(mu=[[i == j == 0 for j in range(3)] for i in range(3)]), 2),
    "mu-booleans-among-numbers": (
        EVALUATE, _game_text(mu=[[True, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 2
    ),
    "state-strings": (ROUND, _strategy_text(state=[[repr(v) for v in p] for p in _GOOD["state"]]), 2),
    "state-booleans": (ROUND, _strategy_text(state=[[True, False]] + [[False, False]] * 8), 2),
    "pairs-ragged-keeping-count": (ROUND, _with_alice(_ragged_keeping_count), 2),
    "pair-is-two-char-string": (ROUND, _with_alice(lambda a: _set(a, (0, 0, 0, 0), "12")), 2),
    "pair-is-object": (
        ROUND, _with_alice(lambda a: _set(a, (0, 0, 0, 0), {"re": 1.0, "im": 0.0})), 2
    ),
    "row-one-pair-short": (ROUND, _with_alice(lambda a: a[2][1][2].pop()), 2),
    "matrix-entry-null": (ROUND, _with_alice(lambda a: _set(a, (1, 2, 0, 1, 0), None)), 2),
    "alice-question-fewer-answers": (ROUND, _with_alice(_merge_first_answers), 3),
    "not-a-povm-before-a-string": (ROUND, _with_alice(_not_a_povm_then_string), 3),
}


def check_bad_input(capsys, tmp_path, monkeypatch, name):
    argv, text, expected = BAD_INPUTS[name]
    monkeypatch.chdir(tmp_path)
    if text is not None:
        data = text if isinstance(text, bytes) else text.encode()
        (tmp_path / "input.json").write_bytes(data)
    argv = [str(tmp_path / "input.json") if a == "FILE" else a for a in argv]
    code, _, err = run(capsys, *argv)
    assert code == expected, err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_without_traceback(capsys, tmp_path, monkeypatch, name):
    check_bad_input(capsys, tmp_path, monkeypatch, name)


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_alike_on_the_stdlib_parser(capsys, tmp_path, monkeypatch, name):
    monkeypatch.setattr(io, "orjson", None)
    check_bad_input(capsys, tmp_path, monkeypatch, name)
