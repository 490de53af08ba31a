"""In-memory span tracer that wraps subchan's layer functions from outside.

Nothing under ``src/`` is edited: ``install`` replaces each traced function
under every name the package binds it to (``mc``, ``channel`` and ``cli``
import functions by name, the kernels are looked up as ``_kernels.<name>`` at
call time, two methods live on classes), and ``uninstall`` puts every original
back.  ``np.unique`` is traced only as ``mc`` calls it, through a proxy of the
numpy module bound to ``mc.np``.

A span is ``(trace, id, parent, name, start, end, attrs)``; ``trace`` is the id
of the root span (one setup phase or one top-level call) that caused it.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

KERNELS = ("matmul", "rref", "matmul_batch", "rank_batch", "rref_batch")

# Shapes the rejection sampler draws on the benchmark's workloads, as
# (q, rows, cols); acceptance is reported for each one.
REJECT_SHAPES = (
    (2, 2, 2), (2, 2, 1), (2, 1, 2),
    (4, 3, 3), (4, 3, 2), (4, 2, 3), (4, 3, 1), (4, 1, 3),
)

# Spans whose own rank_batch calls are full-rank rejection rounds: inside mc
# the rank kernel is called only by the batched rejection sampler.
_REJECTION_CALLERS = ("mc.run_mc", "mc.pipeline")


class Tracer:
    """Collects spans in memory; ``root`` opens a setup phase or a call."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [None]
        self._trace = None
        self._next_id = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, attrs):
        self._stack.pop()
        self.spans.append((self._trace, sid, parent, name, start, end, attrs))

    @contextmanager
    def root(self, name: str):
        sid, parent = self._open()
        outer, self._trace = self._trace, sid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._close(sid, parent, name, start, time.perf_counter(), {})
            self._trace = outer

    def trace_spans(self, trace_id) -> list[tuple]:
        return [s for s in self.spans if s[0] == trace_id]


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    return 0


def _batch_attrs(n_operands: int):
    def attrs(args, result, _before):
        operands = args[:n_operands]
        return {
            "mats": operands[0].shape[0],
            "bytes": sum(a.nbytes for a in operands) + _nbytes(result),
        }
    return attrs


def _rank_batch_attrs(args, result, before):
    mats, tables = args[0], args[1]
    out = _batch_attrs(1)(args, result, before)
    rows, cols = mats.shape[1], mats.shape[2]
    out.update(
        q=int(tables.shape[0]), rows=rows, cols=cols,
        full=int(np.count_nonzero(result == min(rows, cols))),
    )
    return out


def _enumerate_before():
    return sys.modules["subchan.grassmann"]._enumerate_cached.cache_info().misses


def _enumerate_attrs(_args, result, misses_before):
    # Only a cache miss materializes subspaces; a hit returns the stored index.
    missed = _enumerate_before() > misses_before
    return {"subspaces": len(result) if missed else 0}


def _build_dmc_attrs(_args, dmc, _before):
    return {"trans_bytes": dmc.trans.nbytes + sum(s.nbytes for s in dmc.support_by_dim)}


def _ba_attrs(_args, solution, _before):
    return {"iterations": solution.iterations}


# (module, attribute, span name, attrs(args, result, before), before())
# An attribute "Class.method" is replaced on the class.
TARGETS = (
    *(("subchan._kernels", k, f"kernels.{k}", None, None) for k in ("matmul", "rref")),
    ("subchan._kernels", "matmul_batch", "kernels.matmul_batch", _batch_attrs(2), None),
    ("subchan._kernels", "rank_batch", "kernels.rank_batch", _rank_batch_attrs, None),
    ("subchan._kernels", "rref_batch", "kernels.rref_batch", _batch_attrs(1), None),
    ("subchan.grassmann", "enumerate_grassmannian", "grassmann.enumerate_grassmannian",
     _enumerate_attrs, _enumerate_before),
    ("subchan.grassmann", "enumerate_subspaces_of", "grassmann.enumerate_subspaces_of", None, None),
    ("subchan.grassmann", "span", "grassmann.span", None, None),
    ("subchan.grassmann", "GrassmannianIndex.index_of", "grassmann.index_of", None, None),
    ("subchan.channel", "build_dmc", "channel.build_dmc", _build_dmc_attrs, None),
    ("subchan.channel", "OutputAlphabet.position", "channel.position", None, None),
    ("subchan.capacity", "blahut_arimoto", "capacity.blahut_arimoto", _ba_attrs, None),
    ("subchan.capacity", "capacity_closed_form", "capacity.closed_form", None, None),
    ("subchan.capacity", "mutual_information", "capacity.mutual_information", None, None),
    ("subchan.mc", "run_mc", "mc.run_mc", None, None),
    ("subchan.mc", "empirical_capacity_pipeline", "mc.pipeline", None, None),
    ("subchan.cli", "main", "cli.main", None, None),
)


def _wrap(tracer: Tracer, fn, name: str, attrs_fn, before_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid, parent = tracer._open()
        before = before_fn() if before_fn else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer._close(sid, parent, name, start, time.perf_counter(), {})
            raise
        end = time.perf_counter()
        attrs = attrs_fn(args, result, before) if attrs_fn else {}
        tracer._close(sid, parent, name, start, end, attrs)
        return result
    return wrapper


class _ModuleProxy:
    """Stands in for a module, overriding some attributes and forwarding the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced function wherever subchan binds it.

    Returns the (owner, attribute, original) list that ``uninstall`` restores.
    """
    import subchan.cli  # noqa: F401  (binds every layer module)

    package = {n: m for n, m in sys.modules.items() if n == "subchan" or n.startswith("subchan.")}
    replaced = []
    for modname, attr, name, attrs_fn, before_fn in TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(package[modname], cls_name)
            original = owner.__dict__[meth]
            setattr(owner, meth, _wrap(tracer, original, name, attrs_fn, before_fn))
            replaced.append((owner, meth, original))
            continue
        original = getattr(package[modname], attr)
        wrapper = _wrap(tracer, original, name, attrs_fn, before_fn)
        for module in package.values():
            if module.__dict__.get(attr) is original:
                setattr(module, attr, wrapper)
                replaced.append((module, attr, original))
    mc = package["subchan.mc"]
    unique = _wrap(tracer, np.unique, "mc.tally", None, None)
    replaced.append((mc, "np", mc.np))
    mc.np = _ModuleProxy(np, unique=unique)
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for owner, attr, original in reversed(replaced):
        setattr(owner, attr, original)


def unrestored(replaced: list[tuple]) -> list[str]:
    """Names still bound to something other than their original."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in replaced
        if owner.__dict__.get(attr) is not original
    ]


def analytic_acceptance(q: int, rows: int, cols: int) -> float:
    """P(uniform rows x cols matrix over GF(q) has full rank):
    prod_{i=0}^{k-1} (1 - q^(i-K)) with k = min, K = max of the shape."""
    k, big = min(rows, cols), max(rows, cols)
    return math.prod(1.0 - float(q) ** (i - big) for i in range(k))


def shape_key(q: int, rows: int, cols: int) -> str:
    return f"q{q}.{rows}x{cols}"


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of the spans of one root (setup phase or call).

    Times are self times, except ``channel.build_dmc.s``, which includes the
    grassmann and kernel work it calls.  Byte counts are computed from array
    sizes, not measured.
    """
    child_time: dict = defaultdict(float)
    names = {}
    for _trace, sid, parent, name, start, end, _attrs in spans:
        child_time[parent] += end - start
        names[sid] = name
    self_s: dict = defaultdict(float)
    total_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    sums: dict = defaultdict(int)
    cand: dict = defaultdict(int)
    full: dict = defaultdict(int)
    for _trace, sid, parent, name, start, end, attrs in spans:
        total_s[name] += end - start
        self_s[name] += end - start - child_time[sid]
        calls[name] += 1
        for key, value in attrs.items():
            if key in ("mats", "bytes", "subspaces", "trans_bytes", "iterations"):
                sums[f"{name}.{key}"] += value
        if name == "kernels.rank_batch" and attrs and names.get(parent) in _REJECTION_CALLERS:
            shape = (attrs["q"], attrs["rows"], attrs["cols"])
            cand[shape] += attrs["mats"]
            full[shape] += attrs["full"]

    out: dict[str, float] = {}
    for k in KERNELS:
        out[f"kernels.{k}.s"] = self_s[f"kernels.{k}"]
        out[f"kernels.{k}.calls"] = calls[f"kernels.{k}"]
        if k.endswith("_batch"):
            out[f"kernels.{k}.mats"] = sums[f"kernels.{k}.mats"]
            out[f"kernels.{k}.bytes"] = sums[f"kernels.{k}.bytes"]
    out["mc.tally.s"] = self_s["mc.tally"]
    out["mc.run_mc.self_s"] = self_s["mc.run_mc"]
    out["mc.pipeline.self_s"] = self_s["mc.pipeline"]

    candidates, accepted = sum(cand.values()), sum(full.values())
    out["mc.reject.candidates"] = candidates
    out["mc.reject.accepted"] = accepted
    out["mc.reject.acceptance"] = accepted / candidates if candidates else 0.0
    out["mc.reject.acceptance_analytic"] = (
        sum(n * analytic_acceptance(*shape) for shape, n in cand.items()) / candidates
        if candidates else 0.0
    )
    for shape in REJECT_SHAPES:
        key = f"mc.reject.{shape_key(*shape)}"
        out[f"{key}.candidates"] = cand[shape]
        out[f"{key}.acceptance"] = full[shape] / cand[shape] if cand[shape] else 0.0
        out[f"{key}.acceptance_analytic"] = analytic_acceptance(*shape)

    out["grassmann.enumerate_grassmannian.s"] = self_s["grassmann.enumerate_grassmannian"]
    out["grassmann.enumerate_grassmannian.subspaces"] = sums["grassmann.enumerate_grassmannian.subspaces"]
    for name in ("enumerate_subspaces_of", "span", "index_of"):
        out[f"grassmann.{name}.s"] = self_s[f"grassmann.{name}"]
        out[f"grassmann.{name}.calls"] = calls[f"grassmann.{name}"]
    out["channel.build_dmc.s"] = total_s["channel.build_dmc"]
    out["channel.build_dmc.self_s"] = self_s["channel.build_dmc"]
    out["channel.position.s"] = self_s["channel.position"]
    out["channel.position.calls"] = calls["channel.position"]
    out["channel.trans_bytes"] = sums["channel.build_dmc.trans_bytes"]
    out["capacity.closed_form.s"] = self_s["capacity.closed_form"]
    out["capacity.mutual_information.s"] = self_s["capacity.mutual_information"]
    # Only cli_verify_gf2, which BENCHMARK.json does not list, reaches these.
    if calls["cli.main"]:
        out["capacity.blahut_arimoto.s"] = self_s["capacity.blahut_arimoto"]
        out["capacity.ba_iterations"] = sums["capacity.blahut_arimoto.iterations"]
        out["cli.main.self_s"] = self_s["cli.main"]
    return out


def rejection_outliers(metrics: dict[str, float], z_max: float = 6.0) -> list[str]:
    """Shapes whose observed acceptance in ``layer_metrics`` output is more than
    z_max binomial standard deviations from the analytic value (each
    candidate is accepted independently)."""
    bad = []
    for shape in REJECT_SHAPES:
        key = f"mc.reject.{shape_key(*shape)}"
        n = metrics[f"{key}.candidates"]
        if not n:
            continue
        a = metrics[f"{key}.acceptance_analytic"]
        sigma = math.sqrt(a * (1.0 - a) / n)
        if abs(metrics[f"{key}.acceptance"] - a) > z_max * sigma + 1e-12:
            bad.append(f"{key}: acceptance {metrics[f'{key}.acceptance']:.5f} vs analytic {a:.5f} over {n}")
    return bad
