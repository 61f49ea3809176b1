"""Unit tests for JSON serialization."""

import gc
import json
import weakref

import numpy as np
import pytest

from reference import decode_povms_each
from syncround import io
from syncround.errors import ParseError, SchemaVersionMismatch, ValidationError
from syncround.games import k3_game
from syncround.rounding import round_correlation
from syncround.strategies import (
    BUILTIN_STRATEGIES,
    correlation,
    embed_tracial,
    entangled_coloring_strategy,
    random_povm_strategy,
    random_strategy,
)


def test_game_round_trip(tmp_path):
    g = k3_game()
    path = tmp_path / "game.json"
    io.save_path(str(path), io.game_to_dict(g))
    loaded = io.load_path(str(path), "game")
    assert loaded.questions == g.questions
    assert loaded.answers == g.answers
    np.testing.assert_allclose(loaded.mu, g.mu)
    np.testing.assert_array_equal(loaded.win, g.win)


def test_game_round_trip_is_canonical(tmp_path):
    g = k3_game()
    text1 = io.canonical_dumps(io.game_to_dict(g))
    loaded = io.loads(text1, "game")
    text2 = io.canonical_dumps(io.game_to_dict(loaded))
    assert text1 == text2


def test_strategy_round_trip():
    s = random_strategy((2, 3), (2, 2), 0)
    obj = io.strategy_to_dict(s)
    loaded = io.strategy_from_dict(obj)
    np.testing.assert_allclose(loaded.state, s.state, atol=1e-15)
    for p, q in zip(loaded.alice, s.alice):
        np.testing.assert_allclose(p.elements, q.elements, atol=1e-15)
    for p, q in zip(loaded.bob, s.bob):
        np.testing.assert_allclose(p.elements, q.elements, atol=1e-15)


def test_correlation_round_trip():
    c = correlation(embed_tracial(entangled_coloring_strategy(3)))
    loaded = io.correlation_from_dict(io.correlation_to_dict(c))
    np.testing.assert_allclose(loaded.table, c.table, atol=1e-15)


def test_decomposition_serializes():
    g = k3_game()
    dec = round_correlation(g, entangled_coloring_strategy(3))
    obj = io.decomposition_to_dict(dec)
    assert obj["schema"] == io.DECOMPOSITION_SCHEMA
    assert sum(obj["weights"]) == pytest.approx(1.0)
    # canonical dump is stable
    assert io.canonical_dumps(obj) == io.canonical_dumps(obj)


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as err:
        io.loads('{"schema": "syncround.game/1",', "game")
    assert "line" in str(err.value)


def test_missing_field_named():
    g = io.game_to_dict(k3_game())
    del g["mu"]
    with pytest.raises(ParseError) as err:
        io.game_from_dict(g)
    assert "mu" in str(err.value)


def test_schema_mismatch():
    g = io.game_to_dict(k3_game())
    g["schema"] = "syncround.game/2"
    with pytest.raises(SchemaVersionMismatch):
        io.game_from_dict(g)


def test_invalid_game_rejected():
    obj = io.game_to_dict(k3_game())
    obj["mu"] = [[v * 0.9 for v in row] for row in obj["mu"]]
    with pytest.raises(ValidationError):
        io.game_from_dict(obj)


def test_unnormalized_correlation_rejected():
    c = correlation(embed_tracial(entangled_coloring_strategy(3)))
    obj = io.correlation_to_dict(c)
    obj["table"][0][0][0][0] -= 0.2
    with pytest.raises(ValidationError):
        io.correlation_from_dict(obj)


@pytest.mark.parametrize(
    "table, error",
    [
        ('"abc"', ParseError),
        ("[[[[0.5, 0.5], [0.0]]]]", ParseError),  # ragged
        ("[1, 2]", ValidationError),
        ("[[[[1.0]]], [[[1.0]]]]", ValidationError),  # (2, 1, 1, 1)
        ("[[[[0.5, 0.5]]]]", ValidationError),  # (1, 1, 1, 2)
        ("[]", ValidationError),
    ],
)
def test_malformed_correlation_table_refused(table, error):
    text = f'{{"schema": "syncround.correlation/1", "table": {table}}}'
    with pytest.raises(error):
        io.loads(text, "correlation")


def test_unnormalized_state_rejected():
    s = random_strategy((2, 2), (2, 2), 1)
    obj = io.strategy_to_dict(s)
    obj["state"][0][0] += 0.5
    with pytest.raises(ValidationError):
        io.strategy_from_dict(obj)


def test_non_povm_strategy_rejected():
    s = random_strategy((2, 2), (2, 2), 1)
    obj = io.strategy_to_dict(s)
    obj["alice"][0][0][0][0][0] += 0.3
    with pytest.raises(ValidationError):
        io.strategy_from_dict(obj)


def test_matrix_codec_complex_round_trip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(io.decode_matrix(io.encode_matrix(m)), m, atol=1e-15)


def per_entry_pairs(a):
    """[re, im] per entry, one float() call each."""
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [per_entry_pairs(row) for row in a]


def test_encoders_write_the_bytes_of_the_per_entry_form():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    m[0, 0] = complex(-0.0, 0.0)
    m[1, 2] = complex(0.0, -0.0)
    m[3, 5] = complex(-0.0, -0.0)
    m[2, 1] = complex(1e300, -5e-324)
    for encode, a in (
        (io.encode_matrix, m),
        (io.encode_matrix, m.T),  # not contiguous
        (io.encode_matrix, m.real),
        (io.encode_vector, m[0]),
        (io.encode_vector, m[:, 0]),
    ):
        got = io.canonical_dumps(encode(a))
        assert got == io.canonical_dumps(per_entry_pairs(np.asarray(a, dtype=complex)))
    assert "-0.0" in io.canonical_dumps(io.encode_matrix(m))


def test_decode_matrix_rejects_malformed():
    with pytest.raises(ParseError):
        io.decode_matrix([[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------------------
# The orjson fast path against the stdlib json parser, the authority.


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def parse_both(monkeypatch, data: bytes):
    """data parsed by io as it stands, then with orjson hidden."""
    fast = io._parse_json(data)
    with monkeypatch.context() as m:
        m.setattr(io, "orjson", None)
        return fast, io._parse_json(data)


def test_parsers_agree_bit_for_bit_on_a_d96_strategy(tmp_path, monkeypatch):
    path = tmp_path / "s96.json"
    io.save_path(str(path), io.strategy_to_dict(random_strategy((96, 96), (3, 3), 0)))
    assert io._nests_shallowly(path.read_bytes())
    fast = io.load_path(str(path), "strategy")
    with monkeypatch.context() as m:
        m.setattr(io, "orjson", None)
        slow = io.load_path(str(path), "strategy")
    np.testing.assert_array_equal(bits(fast.state), bits(slow.state))
    for p, q in zip(fast.alice + fast.bob, slow.alice + slow.bob):
        np.testing.assert_array_equal(bits(p.elements), bits(q.elements))


def test_parsers_agree_bit_for_bit_on_random_doubles(monkeypatch):
    rng = np.random.default_rng(20261018)
    values = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(float)
    extremes = [
        5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
        1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
    ]
    values = np.concatenate((values[np.isfinite(values)], extremes))
    texts = {
        "shortest": json.dumps(values.tolist()),
        # 25 significant digits, more than any double needs
        "long": "[" + ",".join(f"{v:.24e}" for v in values[:20_000]) + "]",
        # integers past 64 bits: orjson reads floats, json ints
        "integers": json.dumps([int(v) * 10**20 for v in rng.integers(1, 2**62, 1000)]),
    }
    for name, text in texts.items():
        fast, slow = parse_both(monkeypatch, text.encode())
        np.testing.assert_array_equal(
            bits(np.asarray(fast, dtype=float)), bits(np.asarray(slow, dtype=float)), name
        )


def test_floats_agree_bit_for_bit_on_both_parsers(monkeypatch):
    # integers past 64 bits are floats to orjson and ints to json, whose
    # object arrays io._floats converts entry by entry
    rows = [[1, 2.5, 10**20, -(10**30)], [0, -0.0, 2**63, 2**64 + 1]]
    for value in (rows, [[1, 2], [3, 4]], [2**64 + 1], [1.5, 2**70]):
        fast, slow = parse_both(monkeypatch, json.dumps(value).encode())
        got = io._floats(fast)
        assert got.dtype == float
        np.testing.assert_array_equal(bits(got), bits(io._floats(slow)))
        np.testing.assert_array_equal(got, np.asarray(value, dtype=float))


@pytest.mark.parametrize(
    "table",
    [
        '[[[["0.5", 0.5], [0.5, 0.5]]]]',
        '[[[["0.5", "0.5"], ["0.5", "0.5"]]]]',
        "[[[[true, false], [false, true]]]]",
        "[[[[true, 0.0], [0.0, 0.0]]]]",
        "[[[[1, 0], [0, false]]]]",
        '"0.5"',
        "true",
    ],
)
@pytest.mark.parametrize("fast", [True, False])
def test_correlation_table_of_strings_or_booleans_refused(table, fast, monkeypatch):
    if not fast:
        monkeypatch.setattr(io, "orjson", None)
    text = f'{{"schema": "syncround.correlation/1", "table": {table}}}'
    with pytest.raises(ParseError, match="malformed table"):
        io.loads(text.encode(), "correlation")


def test_duplicate_keys_keep_the_last_on_both_parsers(monkeypatch):
    fast, slow = parse_both(monkeypatch, b'{"a": 1, "b": 2, "a": 3}')
    assert fast == slow == {"a": 3, "b": 2}


@pytest.mark.parametrize(
    "text, shallow",
    [
        ('{"schema": "x", "m": [[[1.5, -2e-3]]], "t": [true, false, null]}', True),
        ("[" * 16 + "]" * 16, True),
        ('["]", "\\"]", "\\\\", "\\u005d"]', True),
        ("[" * 17 + "]" * 17, False),
        ('{"a":' * 17 + "1" + "}" * 17, False),
        # brackets inside strings never hide nesting
        ("[" * 40 + '"' + "]" * 40 + '"' + "]" * 40, False),
        ('["\\"]",' * 40 + "0" + "]" * 40, False),
        ("[" * 40 + '"\\x""' + "]" * 40, False),
        ('["unterminated', False),
        ("[" * 200_000 + "]" * 200_000, False),
    ],
)
def test_orjson_sees_only_shallow_documents(text, shallow):
    # orjson 3.8 has no nesting limit and overflows the C stack near
    # 130,000 levels, so deeper documents must reach json instead.
    assert io._nests_shallowly(text.encode()) is shallow


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_error_positions_count_lines_as_text_mode_did(tmp_path, newline):
    path = tmp_path / "bad.json"
    path.write_bytes(newline.join([b"{", b'"schema": "syncround.game/1",', b"}"]))
    with pytest.raises(ParseError) as fast:
        io.load_path(str(path), "game")
    with pytest.raises(ParseError) as text_mode:
        io.loads(path.read_text(encoding="utf-8"), "game")
    assert str(fast.value) == str(text_mode.value)
    assert "line 3 column 1" in str(fast.value)


def record_gc_during_parse(monkeypatch):
    """Wrap json.loads and orjson.loads so each parse records whether the
    cyclic GC was enabled while it ran."""
    seen = []
    for module in (json, io.orjson):
        if module is None:
            continue
        real = module.loads

        def recording(*args, _real=real, **kwargs):
            seen.append(gc.isenabled())
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "loads", recording)
    return seen


def gc_loads(tmp_path):
    """(load, error) pairs: valid, unparsable and invalid documents, through
    loads on text and on bytes and through load_path."""
    game = io.canonical_dumps(io.game_to_dict(k3_game()))
    bad = io.game_to_dict(k3_game())
    bad["mu"] = [[v * 0.9 for v in row] for row in bad["mu"]]
    invalid = io.canonical_dumps(bad)
    strategy = tmp_path / "s.json"
    io.save_path(str(strategy), io.strategy_to_dict(random_strategy((4, 4), (3, 3), 0)))
    broken = tmp_path / "broken.json"
    broken.write_text(game[:-5])
    yield lambda: io.loads(game, "game"), None
    yield lambda: io.loads(game.encode(), "game"), None
    yield lambda: io.load_path(str(strategy), "strategy"), None
    yield lambda: io.loads(game[:-5], "game"), ParseError
    yield lambda: io.load_path(str(broken), "game"), ParseError
    yield lambda: io.loads(invalid, "game"), ValidationError
    yield lambda: io.loads(invalid.encode(), "game"), ValidationError


@pytest.mark.parametrize("enabled", [True, False])
def test_loading_pauses_the_cyclic_gc(tmp_path, monkeypatch, enabled):
    seen = record_gc_during_parse(monkeypatch)
    try:
        for load, error in gc_loads(tmp_path):
            (gc.enable if enabled else gc.disable)()
            seen.clear()
            if error is None:
                load()
            else:
                with pytest.raises(error):
                    load()
            assert seen and not any(seen)
            assert gc.isenabled() == enabled
    finally:
        gc.enable()


class ParseTree(dict):
    """A parsed document that a weak reference can watch."""


def test_no_collection_during_load_path_sees_the_parse_tree(tmp_path, monkeypatch):
    path = tmp_path / "s.json"
    strategy = random_strategy((12, 12), (3, 3), 0)
    io.save_path(str(path), io.strategy_to_dict(strategy))
    real = io._parse_json
    trees = []

    def parse(data):
        tree = ParseTree(real(data))
        trees.append(weakref.ref(tree))
        return tree

    def watch(phase, info):
        if phase == "start":
            collections.append(any(tree() is not None for tree in trees))

    monkeypatch.setattr(io, "_parse_json", parse)
    collections = []
    gc.callbacks.append(watch)
    try:
        for _ in range(5):
            loaded = io.load_path(str(path), "strategy")
            assert loaded.dim_a == 12
    finally:
        gc.callbacks.remove(watch)
    assert len(trees) == 5
    assert not any(collections)


# ---------------------------------------------------------------------------
# The side-level strategy loader against per-question decoding.


def load_outcome(data: bytes, decode=None):
    """io.loads(data) as the arrays' bits, or as the error's class and
    message; decode, if given, stands in for io._decode_povms."""
    with pytest.MonkeyPatch.context() as m:
        if decode is not None:
            m.setattr(io, "_decode_povms", decode)
        try:
            s = io.loads(data, "strategy")
        except Exception as exc:  # noqa: BLE001 - the class is compared
            return type(exc), str(exc)
    return [bits(a).tolist() for a in [s.state] + [p.elements for p in s.alice + s.bob]]


def assert_loads_as_reference(data: bytes):
    for fast in (True, False):
        with pytest.MonkeyPatch.context() as m:
            if not fast:
                m.setattr(io, "orjson", None)
            assert load_outcome(data) == load_outcome(data, decode_povms_each)


VALID_STRATEGIES = {
    "random-24x48": lambda: random_strategy((24, 48), (3, 3), 0),
    "random-48x24": lambda: random_strategy((48, 24), (3, 3), 1),
    "random-1x5": lambda: random_strategy((1, 5), (3, 3), 2),
    "povm-blend-0": lambda: random_povm_strategy((6, 9), (3, 4), 3, 0.0),
    "povm-blend-0.5": lambda: random_povm_strategy((9, 6), (2, 3), 4, 0.5),
    **BUILTIN_STRATEGIES,
}


@pytest.mark.parametrize("name", sorted(VALID_STRATEGIES))
def test_valid_strategies_load_side_by_side_as_per_question(name, monkeypatch):
    data = io.canonical_dumps(io.strategy_to_dict(VALID_STRATEGIES[name]())).encode()

    def refuse(*args):
        raise AssertionError("a valid side left the side-level path")

    monkeypatch.setattr(io, "_decode_each", refuse)
    assert_loads_as_reference(data)


def retyped(side, kind):
    """A side with every number as kind gives it, of the same value."""
    return json.loads(json.dumps(side), parse_float=kind, parse_int=kind)


def edited_strategies():
    """(name, k3-entangled document with one edit); its matrices hold only
    0.0 and 1.0."""
    doc = io.strategy_to_dict(entangled_coloring_strategy(3))
    alice = doc["alice"]
    bools = retyped(alice[0][0], lambda v: float(v) == 1)
    yield "element-all-booleans", {**doc, "alice": [[bools] + alice[0][1:]] + alice[1:]}
    mixed = json.loads(json.dumps(alice))
    mixed[0][0][0][0][0] = True  # 1.0
    yield "first-entry-boolean", {**doc, "alice": mixed}
    yield "signed-zeros", {**doc, "alice": retyped(alice, lambda v: float(v) or -0.0)}
    yield "integers", {**doc, "bob": retyped(doc["bob"], lambda v: int(float(v)))}
    huge = retyped(doc["bob"], lambda v: int(float(v)) * 2**64)
    yield "integer-past-64-bits", {**doc, "bob": huge}


@pytest.mark.parametrize("name,doc", list(edited_strategies()))
def test_edited_strategies_load_or_fail_as_per_question(name, doc):
    assert_loads_as_reference(json.dumps(doc).encode())


def test_non_finite_entry_fails_as_per_question():
    doc = io.strategy_to_dict(entangled_coloring_strategy(3))
    doc["bob"][1][0][0][0][0] = 0.123456789
    assert_loads_as_reference(json.dumps(doc).replace("0.123456789", "1e400").encode())


def mutate(st, data, doc):
    """doc with one fault drawn at a random position of one side: a number
    replaced or written as another type of the same value (a boolean, an
    integer, -0.0 for 0.0), a pair lengthened or shortened (also both at
    once, keeping the count), a pair dropped from a row, a row dropped from
    an element or moved to another, or an element dropped from a question."""
    side = doc[data.draw(st.sampled_from(["alice", "bob"]))]
    question = side[data.draw(st.integers(0, len(side) - 1))]
    q_index = data.draw(st.integers(0, len(question) - 1))
    element = question[q_index]
    r_index = data.draw(st.integers(0, len(element) - 1))
    row = element[r_index]
    at = data.draw(st.integers(0, len(row) - 1))
    pair = row[at]
    if data.draw(st.booleans()):
        part = data.draw(st.integers(0, 1))
        x = pair[part]
        same = [True] * (x == 1) + [False, -0.0] * (x == 0) + [int(x)] * (x == int(x))
        other = ["0.5", "12", "", None, {}, {"re": 0.5}, [], [0.5], [0.5, 0.0], 10**20]
        pair[part] = data.draw(st.sampled_from(same + other))
        return doc
    kinds = ["longer", "shorter", "ragged", "row", "element", "moved", "question"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "longer":
        pair.append(0.0)
    elif kind == "shorter":
        pair.pop()
    elif kind == "ragged" and len(row) > 1:
        pair.append(row[at - 1].pop())
    elif kind == "row":
        row.pop(at)
    elif kind == "element":
        element.pop(r_index)
    elif kind == "moved" and len(question) > 1:
        question[q_index - 1].append(element.pop(r_index))
    elif kind == "question":
        question.pop(q_index)
    return doc


def test_mutated_strategies_load_or_fail_as_per_question():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bases = [
        io.strategy_to_dict(s)
        for s in (
            random_strategy((2, 3), (3, 3), 0),
            random_povm_strategy((3, 2), (2, 3), 1, 0.5),
            entangled_coloring_strategy(3),
            random_strategy((1, 2), (2, 2), 2),
        )
    ]

    @hypothesis.settings(
        max_examples=300, derandomize=True, deadline=None, database=None
    )
    @hypothesis.given(data=st.data(), base=st.integers(0, len(bases) - 1))
    def search(data, base):
        doc = mutate(st, data, json.loads(json.dumps(bases[base])))
        assert_loads_as_reference(json.dumps(doc).encode())

    search()
