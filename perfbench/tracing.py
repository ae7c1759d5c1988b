"""Spans around calls into rscorr, recorded from outside the package.

:func:`install` replaces every public function and public method of the
package modules, wherever a module holds a binding to it (its own
namespace, another module's ``from .x import f`` binding, the package
namespace), by a wrapper that records one span per call: name, start, end,
parent span and job id.  Generators record one span per step.  Helpers that
run in microseconds inside loops (``EXCLUDED``) stay unwrapped; their time
counts to the calling span.  Nothing inside ``src/`` changes.

Spans live in flat typed arrays while the run lasts and are written out
once at the end.  A span's self time is its duration minus that of its
child spans; a module's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import Counter
from functools import cached_property
from time import perf_counter_ns

import numpy as np

MODULES = ("sequences", "autocorr", "recurrence", "cubic", "norms", "hull3d", "jsr", "stats",
           "cli")

#: Unwrapped helpers: called once per shift, per level or per argument check.
EXCLUDED = {
    "autocorr.aperiodic_naive", "autocorr.periodic_naive", "sequences.check_order",
    "sequences.rs_term", "recurrence.interval_label", "recurrence.nearest_third",
    "recurrence.shift_chain", "recurrence.t_factor", "recurrence.ShiftChain.labels",
}

#: Spans whose descendants are attributed to them in the per-layer split.
CONTEXTS = ("jsr.bnb_bracket", "jsr.invariant_polytope")

LADDER = ("autocorr.iter_aperiodic_tables", "autocorr.aperiodic_table_fast")
REDUCE = ("autocorr.AutocorrTable.sum_squares",)
CSV = ("autocorr.AutocorrTable.to_csv",)
ORACLE = ("autocorr.aperiodic_table_naive", "autocorr.periodic_table_naive")


def _arg(args, kwargs, name, pos=0):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """In-memory span store plus the counters observed at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.ctx = array("i")
        self._stack = [-1]
        self.on = False
        self.job_id = -1
        self.counts: Counter = Counter()
        self.ladder_top: dict[int, int] = {}   # job id -> deepest ladder level yielded

    def name_id(self, qual: str) -> int:
        if qual not in self._ids:
            self._ids[qual] = len(self.names)
            self.names.append(qual)
        return self._ids[qual]

    def _open(self, nid: int, is_ctx: bool) -> int:
        i = len(self.start)
        p = self._stack[-1]
        self.name.append(nid)
        self.parent.append(p)
        self.job.append(self.job_id)
        self.ctx.append(nid if is_ctx else (self.ctx[p] if p >= 0 else -1))
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, qual: str, fn):
        nid = self.name_id(qual)
        is_ctx = qual in CONTEXTS
        hook = HOOKS.get(qual)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def steps(gen):
                while True:
                    i = tracer._open(nid, is_ctx)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(i)
                    if hook:
                        hook(tracer, (), {}, item)
                    yield item

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return steps(gen) if tracer.on else gen
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = tracer._open(nid, is_ctx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if hook:
                hook(tracer, args, kwargs, out)
            return out
        return traced


# Counters that need arguments or results.  Quantities marked "computed"
# in the docs are derived from input sizes, not observed.

def _ladder_step(t: Tracer, args, kwargs, table) -> None:
    t.counts["autocorr.ladder_levels_built"] += 1
    t.counts["autocorr.ladder_entries"] += table.values.size
    t.counts["autocorr.ladder_bytes"] += table.values.nbytes
    t.ladder_top[t.job_id] = max(t.ladder_top.get(t.job_id, -1), table.m)


def _oracle(square: bool):
    def hook(t, args, kwargs, out):
        n = 1 << _arg(args, kwargs, "m")
        t.counts["autocorr.oracle_mults"] += n * n if square else n * (n + 1) // 2
    return hook


def _shapiro_eval(t, args, kwargs, out):
    terms = np.size(_arg(args, kwargs, "theta", 1)) << _arg(args, kwargs, "m")
    t.counts["sequences.eval_terms"] += terms
    # float64 outer product, complex128 product and complex128 exp per term
    t.counts["sequences.eval_bytes"] += 40 * terms


def _terms_built(t, args, kwargs, out):
    t.counts["sequences.terms_built"] += len(out)


def _polytope(t, args, kwargs, out):
    t.counts["jsr.polytope_rounds"] += out.rounds
    t.counts["jsr.polytope_vertices"] += out.vertex_count


def _count(key: str, value):
    def hook(t, args, kwargs, out):
        t.counts[key] += value(args, kwargs, out)
    return hook


HOOKS = {
    "autocorr.iter_aperiodic_tables": _ladder_step,
    "autocorr.aperiodic_table_naive": _oracle(square=False),
    "autocorr.periodic_table_naive": _oracle(square=True),
    "sequences.shapiro_eval": _shapiro_eval,
    "sequences.rs_sequence": _terms_built,
    "sequences.generalized_sequence": _terms_built,
    "recurrence.verify_decomposition": _count("recurrence.decomposition_cases",
                                              lambda a, k, out: out.cases),
    "stats.conjecture_table": _count("stats.records", lambda a, k, out: len(out)),
    "jsr.bnb_bracket": _count("jsr.bnb_tree_size",
                              lambda a, k, out: (1 << (_arg(a, k, "depth") + 1)) - 2),
    "jsr.invariant_polytope": _polytope,
    "hull3d.convex_hull_3d": _count("hull3d.points_in",
                                    lambda a, k, out: len(_arg(a, k, "points"))),
}


def _targets(package):
    """(qualified name, owner, attribute, original) for every traced callable."""
    for short in MODULES:
        mod = sys.modules[f"{package.__name__}.{short}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for mattr, member in vars(obj).items():
                    qual = f"{short}.{obj.__name__}.{mattr}"
                    if mattr.startswith("_") or qual in EXCLUDED:
                        continue
                    if isinstance(member, staticmethod):
                        yield qual, obj, mattr, member
                    elif isinstance(member, cached_property) or inspect.isfunction(member):
                        yield qual, obj, mattr, member
            elif callable(obj) and f"{short}.{attr}" not in EXCLUDED:
                yield f"{short}.{attr}", mod, attr, obj


def install(tracer: Tracer, package) -> int:
    """Wrap the package's public callables at every binding; returns the count."""
    wrapped = {}
    for qual, owner, attr, obj in list(_targets(package)):
        if isinstance(obj, staticmethod):
            setattr(owner, attr, staticmethod(tracer.wrap(qual, obj.__func__)))
        elif isinstance(obj, cached_property):
            obj.func = tracer.wrap(qual, obj.func)
        elif isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(qual, obj))
        else:
            wrapped[id(obj)] = tracer.wrap(qual, obj)
    modules = [package] + [sys.modules[f"{package.__name__}.{s}"] for s in MODULES]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and not attr.startswith("__"):
                setattr(mod, attr, wrapped[id(obj)])
    return len(wrapped)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

class Spans:
    """Column view of a finished trace with per-span self times in seconds."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.job = np.frombuffer(tracer.job, dtype=np.int32).copy()
        self.ctx = np.frombuffer(tracer.ctx, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.int64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.int64).copy()
        dur = (self.end - self.start).astype(np.float64) * 1e-9
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self.dur = dur
        self.self_s = dur - child
        self.module = np.array([MODULES.index(n.split(".")[0]) for n in self.names],
                               dtype=np.int64)[self.name] if self.names else np.zeros(0, int)

    def __len__(self) -> int:
        return self.name.size

    def ids(self, quals) -> np.ndarray:
        return np.array([self.names.index(q) for q in quals if q in self.names], dtype=np.int64)

    def mask(self, quals) -> np.ndarray:
        return np.isin(self.name, self.ids(quals))

    def in_context(self, qual: str) -> np.ndarray:
        ids = self.ids([qual])
        return self.ctx == (ids[0] if ids.size else -2)

    def module_self(self, select=None) -> np.ndarray:
        """Self seconds per module in ``MODULES`` order, over selected spans."""
        sel = np.ones(len(self), bool) if select is None else select
        return np.bincount(self.module[sel], weights=self.self_s[sel], minlength=len(MODULES))

    def root_time(self, select=None) -> float:
        sel = self.parent < 0 if select is None else (self.parent < 0) & select
        return float(self.dur[sel].sum())

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            parent=self.parent, job=self.job, start=self.start, end=self.end)


def layer_metrics(spans: Spans, tracer: Tracer, job_seconds: float) -> dict[str, float]:
    """The per-layer metrics of one traced run."""
    out = {f"{m}.self_s": float(s) for m, s in zip(MODULES, spans.module_self())}
    c = tracer.counts
    jsr = spans.module == MODULES.index("jsr")
    needed = sum(top + 1 for top in tracer.ladder_top.values())
    built = c["autocorr.ladder_levels_built"]
    bnb = spans.in_context("jsr.bnb_bracket")
    nodes = int(np.sum(bnb & spans.mask(["jsr.spectral_radius"])))
    cubic = spans.module == MODULES.index("cubic")
    parent_cubic = np.zeros(len(spans), bool)
    has_parent = spans.parent >= 0
    parent_cubic[has_parent] = cubic[spans.parent[has_parent]]
    out.update({
        "autocorr.ladder_self_s": float(spans.self_s[spans.mask(LADDER)].sum()),
        "autocorr.ladder_levels_built": built,
        "autocorr.ladder_levels_needed": needed,
        "autocorr.ladder_useful_ratio": needed / built if built else 0.0,
        "autocorr.ladder_entries": c["autocorr.ladder_entries"],
        "autocorr.ladder_bytes": c["autocorr.ladder_bytes"],
        "autocorr.reduce_self_s": float(spans.self_s[spans.mask(REDUCE)].sum()),
        "autocorr.csv_self_s": float(spans.self_s[spans.mask(CSV)].sum()),
        "autocorr.oracle_self_s": float(spans.self_s[spans.mask(ORACLE)].sum()),
        "autocorr.oracle_mults": c["autocorr.oracle_mults"],
        "sequences.terms_built": c["sequences.terms_built"],
        "sequences.eval_terms": c["sequences.eval_terms"],
        "sequences.eval_bytes": c["sequences.eval_bytes"],
        "recurrence.normal_forms": int(np.sum(spans.mask(["recurrence.normal_form"]))),
        "recurrence.decomposition_cases": c["recurrence.decomposition_cases"],
        "stats.records": c["stats.records"],
        "norms.spectral_norm_calls": int(np.sum(spans.mask(["norms.spectral_norm"]))),
        "cubic.solves": int(np.sum(cubic & ~parent_cubic)),
        "jsr.bnb_self_s": float(spans.self_s[jsr & bnb].sum()),
        "jsr.bnb_nodes": nodes,
        "jsr.bnb_tree_size": c["jsr.bnb_tree_size"],
        "jsr.bnb_visit_ratio": nodes / c["jsr.bnb_tree_size"] if c["jsr.bnb_tree_size"] else 0.0,
        "jsr.polytope_self_s": float(
            spans.self_s[jsr & spans.in_context("jsr.invariant_polytope")].sum()),
        "jsr.polytope_rounds": c["jsr.polytope_rounds"],
        "jsr.polytope_vertices": c["jsr.polytope_vertices"],
        "hull3d.builds": int(np.sum(spans.mask(["hull3d.convex_hull_3d"]))),
        "hull3d.points_in": c["hull3d.points_in"],
        "cli.calls": int(np.sum(spans.mask(["cli.main"]))),
        "cli.bytes_out": c["cli.bytes_out"],
        "outside.self_s": job_seconds - spans.root_time(),
        "trace.spans": len(spans),
    })
    return out


def dominant(spans: Spans, jobs, job_seconds) -> list[tuple[str, float]]:
    """Modules ranked by self time over the given job ids, with 'outside'."""
    jobs = np.asarray(sorted(jobs), dtype=np.int64)
    sel = np.isin(spans.job, jobs)
    per = dict(zip(MODULES, spans.module_self(sel)))
    per["outside"] = float(sum(job_seconds[j] for j in jobs)) - spans.root_time(sel)
    total = sum(per.values()) or 1.0
    return sorted(((m, s / total) for m, s in per.items()), key=lambda x: -x[1])
