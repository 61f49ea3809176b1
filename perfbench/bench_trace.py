"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the traced syncround modules at
every place they are bound (the defining module and every module that did
``from .x import f``), records one span per call and removes the wrappers
again when the traced phase ends.  Nothing inside ``src/`` is changed.

A span is ``(id, name, start, end, parent, op, thread, ok)``.  The parent is
the innermost open span of the same thread; a call made on a worker thread
with no open span (the sweep thread pool) gets the op's root span as parent,
so its time never counts as a child of ``cli.main`` and ``cli.main`` keeps
the pool wait as self time.  Spans stay in memory and are written as JSONL by
``write_jsonl`` when the run ends.

Exact counts sit next to the timings: calls per wrapped function, plus a few
computed counts (Σn³ of eigendecomposition inputs, slice counts and corner
dimension sums, JSON bytes read and written, lemma slacks below -1e-8).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# Modules whose public functions are traced.  ``games`` only builds the
# builtin game during set-up and gets no spans.  In ``cli`` only the entry
# point is wrapped, so ``cli.main`` self time covers argparse, the subcommand
# handlers, the sweep pool wait and CSV formatting.
PACKAGE = "syncround"
TRACED_MODULES = ("cli", "io", "strategies", "rounding", "linalg", "soundness")
CLI_ENTRY_POINTS = ("main",)

# One-line numpy helpers called tens of thousands of times per sweep: they get
# a call counter but no span, and their time stays in the caller's self time.
COUNT_ONLY = frozenset(
    {
        "linalg.as_matrix",
        "linalg.frobenius",
        "linalg.tau",
        "linalg.tau_norm",
        "strategies.opposite",
    }
)

LEMMA_SLACK_FLOOR = -1e-8


def _eig_work(tracer, args, kwargs, result):
    n = len(args[0] if args else kwargs["h"])
    tracer.add("linalg.eig_hermitian.work_n3", n**3)


def _slice_counts(tracer, args, kwargs, result):
    tracer.add("rounding.slices.count", len(result.slices))
    tracer.add("rounding.slices.corner_dim_sum", sum(s.sub_dim for s in result.slices))


def _bytes_read(tracer, args, kwargs, result):
    tracer.add("io.bytes_read", os.path.getsize(args[0] if args else kwargs["path"]))


def _bytes_written(tracer, args, kwargs, result):
    tracer.add("io.bytes_written", os.path.getsize(args[0] if args else kwargs["path"]))


def _lemma_violations(tracer, args, kwargs, result):
    bad = sum(1 for e in result.values() if e["slack"] < LEMMA_SLACK_FLOOR)
    tracer.add("rounding.lemma_report.violations", bad)


# Computed counts, taken from a wrapped call's arguments and result.
COUNTERS = {
    "linalg.eig_hermitian": _eig_work,
    "rounding.slice_strategies": _slice_counts,
    "io.load_path": _bytes_read,
    "io.save_path": _bytes_written,
    "rounding.lemma_report": _lemma_violations,
}


def traced_functions() -> dict:
    """Map ``module.function`` to the function object for every traced one."""
    found = {}
    for short in TRACED_MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            if short == "cli" and name not in CLI_ENTRY_POINTS:
                continue
            found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """In-memory span recorder with install/uninstall of call-site wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._op = 0
        self._patched: list[tuple] = []
        self._lock = threading.Lock()  # the sweep pool's threads share the counters
        self.t0 = time.perf_counter()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def _count_call(self, name: str) -> None:
        with self._lock:
            self.calls[name] += 1

    def op(self, op_id: int, kind: str):
        """Context manager for one benchmark op: a root span all of whose
        descendants, on any thread, share ``op_id``."""
        return _OpSpan(self, op_id, kind)

    def _wrap(self, name: str, fn):
        tracer = self
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._count_call(name)
                return fn(*args, **kwargs)

            return counted

        counter = COUNTERS.get(name)
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._ids)
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, name, start, end, parent, tracer._op, threading.get_ident(), ok)
                )
                tracer._count_call(name)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Replace every binding of a traced function in the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = traced_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def installed_sites(self) -> int:
        return len(self._patched)

    # -- analysis ------------------------------------------------------
    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per function name: inclusive seconds (outermost spans only, so a
        recursive call is not counted twice) and self seconds (span time
        minus the part of it covered by its child spans)."""
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list] = defaultdict(list)
        for s in self.spans:
            children[s[4]].append((s[2], s[3]))
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"incl": 0.0, "self": 0.0})
        for sid, name, start, end, parent, _op, _thread, _ok in self.spans:
            entry = out[name]
            entry["self"] += (end - start) - _covered(start, end, children.get(sid, ()))
            p = by_id.get(parent)
            while p is not None and p[1] != name:
                p = by_id.get(p[4])
            if p is None:
                entry["incl"] += end - start
        return dict(out)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op, thread, ok in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start - self.t0,
                            "end": end - self.t0,
                            "parent": parent or None,
                            "op": op,
                            "thread": thread,
                            "ok": ok,
                        }
                    )
                    + "\n"
                )


class _OpSpan:
    def __init__(self, tracer: Tracer, op_id: int, kind: str):
        self.tracer = tracer
        self.op_id = op_id
        self.name = f"op.{kind}"

    def __enter__(self):
        t = self.tracer
        self.sid = next(t._ids)
        t._op = self.op_id
        t._root = self.sid
        t._stack().append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc):
        t = self.tracer
        end = time.perf_counter()
        t._stack().pop()
        t.spans.append(
            (self.sid, self.name, self.start, end, 0, self.op_id,
             threading.get_ident(), exc_type is None)
        )
        t._root = 0
        return False


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
