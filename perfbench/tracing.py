"""Layer tracing for the traced benchmark run.

``instrument`` wraps public functions of the qglnm modules from outside
the package and restores every original on exit.  Two kinds of wrapper:

* a span times a call at a layer boundary.  A call made directly inside a
  span of the same name (``__sub__`` calling ``__add__``) is counted but
  not timed again.  A span's self time is its duration minus the time of
  the spans directly inside it.
* a counter only counts calls.  The hot inner functions (``apply_word``,
  ``apply_atom``, ``eval_diag``, ``LaurentPoly.__mul__``, ``bracket_value``)
  get counters, which keeps the tracing overhead low.

Spans of the coarse layers are kept as records (id, parent id, name,
start, end); the spans of one benchmark task descend from one root
record.  The hot spans in ``AGGREGATE_ONLY`` are summed, not recorded.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy

import qglnm
from qglnm import analyze, cli, coeff, fock, presentation, realize, verify, weyl

LAYERS = ("presentation", "realize", "fock", "verify", "weyl", "coeff", "analyze", "cli")
MODULES = (qglnm, presentation, realize, fock, verify, weyl, coeff, analyze, cli)

# Spans that run up to ~1e5 times per task are summed, not recorded.
AGGREGATE_ONLY = frozenset(
    {"coeff.exact_ops", "coeff.exact_eq", "coeff.scalar_build", "weyl.apply_compiled"}
)


class Recorder:
    """Calls, span times, derived counters and span records, in memory."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.self_seconds: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.records: list = []  # (id, parent id, name, start, end)
        self._stack: list = []  # frames [name, child seconds, record id]

    def _open(self, name: str) -> list:
        rid = None
        if name not in AGGREGATE_ONLY:
            rid = len(self.records)
            self.records.append(None)
        frame = [name, 0.0, rid, perf_counter()]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        name, child, rid, start = frame
        duration = end - start
        self.seconds[name] += duration
        self.self_seconds[name] += duration - child
        if stack:
            stack[-1][1] += duration
        if rid is not None:
            parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
            self.records[rid] = (rid, parent, name, start, end)

    @contextlib.contextmanager
    def root(self, name: str):
        """Time a block as a root span (one benchmark task)."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def span(self, name: str, fn, on_result=None):
        calls, stack = self.calls, self._stack

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][0] == name:
                result = fn(*args, **kwargs)
            else:
                frame = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(frame)
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return wrapper

    def counter(self, name: str, fn, on_result=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counters, result)
            return result

        return wrapper

    def layer_self_seconds(self) -> dict:
        """Self time summed per layer (the part before the first dot)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_seconds.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += s
        return out


def _add_terms(counters, expr):
    counters["verify.substitute.terms"] += len(expr.terms)


def _add_states(counters, basis):
    counters["fock.states"] += len(basis)


def _add_entries(counters, mats):
    counters["analyze.matrix_entries"] += sum(len(m.entries) for m in mats.values())


def _word_nonzero(counters, vec):
    if vec:
        counters["weyl.apply_word.nonzero"] += 1


def _terms_max(counters, poly):
    if len(poly.terms) > counters["coeff.laurent_terms_max"]:
        counters["coeff.laurent_terms_max"] = len(poly.terms)


def _patch_plan(rec: Recorder) -> list:
    """(owner, attribute, wrapper) for every instrumented function."""
    plan = []

    def method(cls, attr, name, wrap, on_result=None):
        plan.append((cls, attr, wrap(name, vars(cls)[attr], on_result)))

    def function(module, attr, name, wrap=rec.span, on_result=None):
        fn = vars(module)[attr]
        wrapper = wrap(name, fn, on_result)
        # ``from .x import f`` copies the reference: replace every copy.
        for mod in MODULES:
            plan.extend((mod, key, wrapper) for key, value in vars(mod).items() if value is fn)

    function(presentation, "build_relations", "presentation.build_relations")
    function(realize, "realization", "realize.realization")
    function(fock, "enumerate_up_to", "fock.enumerate_up_to", on_result=_add_states)
    function(verify, "verify_all", "verify.verify_all")
    function(verify, "substitute", "verify.substitute", on_result=_add_terms)
    method(weyl.Engine, "compile", "weyl.compile", rec.span)
    method(weyl.Engine, "apply_compiled", "weyl.apply_compiled", rec.span)
    method(weyl.Engine, "apply_word", "weyl.apply_word", rec.counter, _word_nonzero)
    method(weyl.Engine, "apply_atom", "weyl.apply_atom", rec.counter)
    method(weyl.Engine, "eval_diag", "weyl.eval_diag", rec.counter)
    for attr in ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__"):
        method(coeff.CoeffExact, attr, "coeff.exact_ops", rec.span)
    method(coeff.CoeffExact, "__eq__", "coeff.exact_eq", rec.span)
    for attr in ("eval_numeric", "subst_p_int", "subst_q1"):
        method(coeff.CoeffExact, attr, "coeff.scalar_build", rec.span)
    function(coeff, "bracket_int", "coeff.scalar_build")
    function(coeff, "bracket_affine", "coeff.scalar_build")
    function(coeff, "bracket_value", "coeff.bracket_value", rec.counter)
    method(coeff.LaurentPoly, "__mul__", "coeff.laurent_mul", rec.counter, _terms_max)
    function(analyze, "materialize", "analyze.materialize", on_result=_add_entries)
    for attr in ("cyclicity", "check_invariance", "check_unitarity", "highest_weight",
                 "quotient_relations_check", "deformed_ops_check"):
        function(analyze, attr, f"analyze.{attr}")
    # analyze reaches numpy through attribute lookup (np.linalg.svd).
    for attr in ("svd", "qr"):
        method(numpy.linalg, attr, "analyze.linalg", rec.span)
    function(cli, "run", "cli.run")
    return plan


@contextlib.contextmanager
def instrument(rec: Recorder):
    """Wrap the library's public functions for the duration of the block;
    every original is restored on exit, also when the block raises."""
    plan = _patch_plan(rec)
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in plan]
    try:
        for owner, attr, wrapper in plan:
            setattr(owner, attr, wrapper)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
