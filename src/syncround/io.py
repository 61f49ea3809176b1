"""JSON interchange for games, strategies, correlations and decompositions.

One diffable format: complex numbers as [re, im] pairs, matrices as
row-major nested arrays, every file carrying a schema tag.  Saving is
canonical (sorted keys, fixed separators), so save(load(f)) is
byte-identical for canonicalized files.

Files are parsed by orjson when it is installed (``pip install
'syncround[fast]'``), which reads a large strategy about twice as fast.
The stdlib json module stays the authority: whatever orjson refuses is
parsed again by json, whose result or error stands.

Loading runs with the cyclic garbage collector paused.  A d=96 strategy
parses into ~180k lists, none of them cyclic, and each generation-2
collection the allocations trigger would walk all of them again; the
collector's state on entry is restored however the load ends.
"""

from __future__ import annotations

import gc
import json
import math
import re
from contextlib import contextmanager
from functools import partial
from operator import index

import numpy as np

try:
    import orjson
except ImportError:
    orjson = None

from .errors import ParseError, SchemaVersionMismatch, ValidationError
from .games import Game, validate_game
from .linalg import GIVEN_SUM_TOL
from .rounding import RoundingDecomposition
from .strategies import Correlation, Povm, TensorStrategy

GAME_SCHEMA = "syncround.game/1"
STRATEGY_SCHEMA = "syncround.strategy/1"
CORRELATION_SCHEMA = "syncround.correlation/1"
DECOMPOSITION_SCHEMA = "syncround.decomposition/1"
SWEEP_SCHEMA = "syncround.sweep/1"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _reject_constant(name: str):
    raise ParseError(f"{name} is not a JSON number")


# orjson recurses once per nesting level with no limit of its own and
# overflows the C stack near 130,000 levels, so it only sees documents whose
# brackets empty out within _FAST_PASSES passes (at most 2 * _FAST_PASSES
# levels; syncround's own files nest 6 deep).  Before brackets are counted,
# every byte but brackets, quotes and the characters that may follow a
# backslash is dropped, then strings and escapes are cut out.  That
# tokenizes like a JSON parser up to the parser's first error, so no parser
# nests deeper than the count, valid document or not.
_FAST_PASSES = 16
_ESCAPED = b"\\/bfnrtu"
_DROP = bytes(c for c in range(256) if c not in b'[]{}"' + _ESCAPED)
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"|\\.')


def _nests_shallowly(data: bytes) -> bool:
    s = _STRING.sub(b"", data.translate(None, _DROP)).translate(None, _ESCAPED)
    for _ in range(_FAST_PASSES):
        if not s:
            return True
        s = s.replace(b"[]", b"").replace(b"{}", b"")
    return not s


def _parse_json(data: bytes | str):
    """A JSON document, given as text or as a file's UTF-8 bytes.

    Bytes go to orjson first when it is installed; a document it refuses
    (NaN and Infinity literals, overflowing numbers, a BOM, lone
    surrogates, any syntax error) is parsed again by json, and that result
    or error stands.  json reads bytes decoded, with newlines translated as
    a text-mode read of the file would, so error positions stay the same.
    """
    if isinstance(data, bytes):
        if orjson is not None and _nests_shallowly(data):
            try:
                return orjson.loads(data)
            except orjson.JSONDecodeError:
                pass
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"invalid UTF-8 at byte {exc.start}: {exc.reason}"
            ) from exc
        data = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer with more digits than int() takes
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nests too deeply to parse") from exc


def _require(obj: dict, field: str):
    if field not in obj:
        raise ParseError(f"missing field {field!r}")
    return obj[field]


def _convert(value, kind, field: str):
    """kind(value), as a ParseError naming the field when kind refuses it."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed {field}: {exc}") from exc


# orjson reads integers outside the signed 64-bit range as floats where json
# keeps them as ints, so every number used as such is refused beyond it.
_INT64_BOUND = 2**63


def _number(value, field: str):
    """value, refused if it is a JSON boolean, which Python counts as 0 or 1,
    or a string, which float() would parse."""
    if isinstance(value, (bool, str)):
        raise ParseError(f"malformed {field}: {value!r} is not a number")
    return value


def _int64(value, field: str) -> int:
    """An integer field; operator.index refuses 3.9 instead of truncating it."""
    n = _convert(_number(value, field), index, field)
    if not -_INT64_BOUND <= n < _INT64_BOUND:
        raise ParseError(f"{field} is outside the signed 64-bit range")
    return n


_NOT_NUMBERS = {"U": "strings", "S": "strings", "b": "booleans"}


def _floats(value, scan: bool = False) -> np.ndarray:
    """A JSON array of numbers as floats.  The array's own dtype is read
    first, so strings and booleans are refused instead of parsed or read as
    0 and 1; an object array (integers past 64 bits, nulls) is converted
    entry by entry as float() would, as the orjson path reads such integers.
    Booleans among numbers pass dtype discovery as 1 and 0; scan refuses
    them too by a look at every entry, for the small mu and tables only."""
    arr = np.asarray(value)
    kind = arr.dtype.kind
    if scan and any(type(v) is bool for v in np.asarray(value, dtype=object).flat):
        kind = "b"
    if kind in _NOT_NUMBERS:
        raise ValueError(f"expected numbers, found {_NOT_NUMBERS[kind]}")
    if kind == "O":
        return np.asarray(value, dtype=float)
    return arr.astype(float, copy=False)


def _labels(value) -> tuple:
    """A JSON array as a tuple; tuple() would split a string into letters.
    Numeric labels stay within the signed 64-bit range, as integers do."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, found {type(value).__name__}")
    for v in value:
        if isinstance(v, (int, float)) and not -_INT64_BOUND <= v < _INT64_BOUND:
            raise ValueError(f"label {v!r} is outside the signed 64-bit range")
    return tuple(value)


def _check_schema(obj: dict, expected: str):
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object, found {type(obj).__name__}")
    schema = _require(obj, "schema")
    if schema != expected:
        raise SchemaVersionMismatch(
            f"expected schema {expected!r}, found {schema!r}"
        )


def encode_matrix(m) -> list:
    """Nested lists of [re, im] pairs, for an array of any shape."""
    a = np.ascontiguousarray(m, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


encode_vector = encode_matrix


def _decode_pairs(data, ndim: int, what: str) -> np.ndarray:
    arr = _convert(data, _floats, what)
    if arr.ndim != ndim or arr.shape[-1] != 2:
        raise ParseError(f"{what} entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{what} has entries that are not finite")
    return arr[..., 0] + 1j * arr[..., 1]


def decode_matrix(data) -> np.ndarray:
    return _decode_pairs(data, 3, "matrix")


def decode_vector(data) -> np.ndarray:
    return _decode_pairs(data, 2, "vector")


def game_to_dict(game: Game) -> dict:
    return {
        "schema": GAME_SCHEMA,
        "questions": list(game.questions),
        "answers": list(game.answers),
        "mu": [[float(v) for v in row] for row in game.mu],
        "win": game.win.astype(int).tolist(),
    }


def game_from_dict(obj: dict) -> Game:
    _check_schema(obj, GAME_SCHEMA)
    game = Game(
        _convert(_require(obj, "questions"), _labels, "questions"),
        _convert(_require(obj, "answers"), _labels, "answers"),
        _convert(_require(obj, "mu"), partial(_floats, scan=True), "mu"),
        _convert(_require(obj, "win"), partial(np.asarray, dtype=bool), "win"),
    )
    violations = validate_game(game)
    if violations:
        raise ValidationError("invalid game: " + ", ".join(violations))
    return game


def strategy_to_dict(s: TensorStrategy) -> dict:
    return {
        "schema": STRATEGY_SCHEMA,
        "dim_a": s.dim_a,
        "dim_b": s.dim_b,
        "state": encode_vector(s.state),
        "alice": [[encode_matrix(e) for e in p.elements] for p in s.alice],
        "bob": [[encode_matrix(e) for e in p.elements] for p in s.bob],
    }


def _decode_povms(data, dim: int, side: str) -> tuple[Povm, ...]:
    povms = []
    for qi, mats in enumerate(_convert(data, list, side)):
        elements = [decode_matrix(m) for m in _convert(mats, list, f"{side}[{qi}]")]
        if not elements or any(e.shape != (dim, dim) for e in elements):
            raise ValidationError(
                f"{side}[{qi}] needs one or more elements of shape {dim}x{dim}"
            )
        povm = Povm(np.array(elements))
        violations = povm.validate()
        if violations:
            raise ValidationError(
                f"{side}[{qi}] is not a POVM: " + ", ".join(violations)
            )
        povms.append(povm)
    return tuple(povms)


def strategy_from_dict(obj: dict) -> TensorStrategy:
    _check_schema(obj, STRATEGY_SCHEMA)
    dim_a = _int64(_require(obj, "dim_a"), "dim_a")
    dim_b = _int64(_require(obj, "dim_b"), "dim_b")
    state = decode_vector(_require(obj, "state"))
    if state.size != dim_a * dim_b:
        raise ValidationError(
            f"state has {state.size} amplitudes, expected {dim_a * dim_b}"
        )
    if abs(np.linalg.norm(state) - 1.0) > GIVEN_SUM_TOL:
        raise ValidationError("state is not normalized")
    alice = _decode_povms(_require(obj, "alice"), dim_a, "alice")
    bob = _decode_povms(_require(obj, "bob"), dim_b, "bob")
    if len(alice) != len(bob):
        raise ValidationError("alice and bob have different question counts")
    if not alice:
        raise ValidationError("strategy has no questions")
    if len({p.outcomes for p in alice + bob}) != 1:
        raise ValidationError("POVMs have different answer counts")
    return TensorStrategy(dim_a, dim_b, state, alice, bob)


def correlation_to_dict(c: Correlation) -> dict:
    return {"schema": CORRELATION_SCHEMA, "table": c.table.tolist()}


def correlation_from_dict(obj: dict) -> Correlation:
    _check_schema(obj, CORRELATION_SCHEMA)
    table = _convert(_require(obj, "table"), partial(_floats, scan=True), "table")
    shape = table.shape
    square = len(shape) == 4 and shape[0] == shape[1] and shape[2] == shape[3]
    if not square or table.size == 0:
        raise ValidationError(f"table shape {shape} is not (q, q, a, a)")
    c = Correlation(table)
    violations = c.validate()
    if violations:
        raise ValidationError("invalid correlation: " + ", ".join(violations))
    return c


def decomposition_to_dict(dec: RoundingDecomposition) -> dict:
    return {
        "schema": DECOMPOSITION_SCHEMA,
        "weights": [sl.weight for sl in dec.slices],
        "corner_dims": [sl.sub_dim for sl in dec.slices],
        "correlations": [c.table.tolist() for c in dec.correlations],
        "mixed": dec.mixed.table.tolist(),
        "diagnostics": {k: float(v) for k, v in sorted(dec.diagnostics.items())},
    }


def eta_grid(values) -> list[float]:
    """A sweep's perturbation grid: nonempty, finite, positive and sorted."""
    if not isinstance(values, list):
        raise ParseError("etas must be a list of numbers")
    etas = [_convert(_number(e, "eta"), float, "eta") for e in values]
    if not etas or not all(0 < e < math.inf for e in etas) or sorted(etas) != etas:
        raise ValidationError(
            "eta grid must be nonempty, finite, strictly positive and sorted"
        )
    return etas


def sweep_from_dict(obj: dict) -> dict:
    """The fields a sweep config sets, null counting as unset; trials and
    seed must be integers, and eta_grid checks the etas."""
    _check_schema(obj, SWEEP_SCHEMA)
    cfg = {field: value for field, value in obj.items() if value is not None}
    for field in ("game", "strategy", "csv", "out"):
        if not isinstance(cfg.get(field, ""), str):
            raise ParseError(f"sweep {field} must be a string")
    for field in ("trials", "seed"):
        if field in cfg:
            cfg[field] = _int64(cfg[field], field)
    return cfg


_LOADERS = {
    "game": game_from_dict,
    "strategy": strategy_from_dict,
    "correlation": correlation_from_dict,
    "sweep": sweep_from_dict,
}


@contextmanager
def _gc_paused():
    """Run the block with the cyclic GC off, then restore its state."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def loads(text: str | bytes, kind: str):
    """Load a JSON document given as text or as UTF-8 bytes."""
    with _gc_paused():
        return _LOADERS[kind](_parse_json(text))


def load_path(path: str, kind: str):
    # The file's bytes are dropped once parsed, before the arrays are built,
    # and the parse tree once they are, before the GC resumes: a tree still
    # alive then would be walked by the collection that resuming triggers.
    with _gc_paused():
        with open(path, "rb") as fh:
            return _LOADERS[kind](_parse_json(fh.read()))


def save_path(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))
