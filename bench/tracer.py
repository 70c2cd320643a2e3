"""Span recorder for the traced run.

The recorder replaces each public function of the xyep modules by a
wrapper at every module binding that refers to it (``xyep.chain.poly_roots``
as well as ``xyep.polyalg.poly_roots``), so calls between modules are
seen where they cross.  A span is ``(id, name, start_ns, end_ns, parent,
thread, extra)``; spans stay in memory and are written out once, by
:meth:`SpanRecorder.dump`.

Parents come from a per-thread stack.  Worker threads started by
``overlap_grid`` inherit no context, so a span opened on a thread with
an empty stack adopts the innermost open span of the main thread, which
is the call blocked on the pool.

Self time splits wall time among the spans that are open and have no
open child: with one thread that is a span's duration minus the time its
children cover; while worker threads run concurrently, each instant is
shared equally.  Self times of all spans under the task spans therefore
add up exactly to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("polyalg", "chain", "basis", "ep", "topology", "oracle", "cli", "_fmt")


def layer_name(module_name: str) -> str:
    """``xyep._fmt`` -> ``fmt``; metric names may not start with ``_``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _argument(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _locate_extra(args, kwargs, result):
    L = _argument(args, kwargs, 0, "L")
    per_mode = L - 2 if L > 2 else 0
    expected = per_mode * (2 if _argument(args, kwargs, 1, "mode", "both") == "both" else 1)
    resid = max((max(r.boundary_residual, r.momentum_residual) for r in result),
                default=0.0)
    return len(result), expected, resid


def _ed_extra(args, kwargs, result):
    n = _argument(args, kwargs, 0, "H").shape[0]
    vectors = _argument(args, kwargs, 1, "want_vectors", True)
    # Golub & Van Loan, Alg. 7.5.2: ~10 n^3 for values, ~25 n^3 with vectors
    return (25 if vectors else 10) * n ** 3


def _cli_extra(args, kwargs, result):
    argv = list(_argument(args, kwargs, 0, "argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


# Counters read off a call's arguments and result: name -> function
# returning the value folded into that function's per-layer metrics.
PROBES = {
    "polyalg.poly_roots": lambda a, k, r: (
        r.iterations, float(r.residuals.max()) if r.residuals.size else 0.0),
    "polyalg.resultant_eliminate_x": lambda a, k, r: max(
        abs(c).bit_length() for c in r),
    "basis.assemble_basis": lambda a, k, r: r.orth_residual,
    "basis.many_body_energies": lambda a, k, r: r.energies.size,
    "ep.locate_eps": _locate_extra,
    "ep.jordan_decomposition": lambda a, k, r: max(r.jordan_residual, r.inv_residual),
    "topology.track_loop": lambda a, k, r: (r.refinements, r.closure_defect),
    "topology.overlap_grid": lambda a, k, r: r.overlap_a.size,
    "oracle.ed_eigen": _ed_extra,
    "oracle.match_spectra": lambda a, k, r: r.max_abs_diff / max(
        float(np.abs(np.asarray(a[0])).max()), 1e-300),
    "cli.main": _cli_extra,
}


class SpanRecorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._patched: list[tuple] = []

    def _open(self) -> tuple[int, int, list[int]]:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = self._open()
            result, ok = None, False
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                extra = probe(args, kwargs, result) if ok and probe else None
                self.spans.append((sid, name, t0, t1, parent,
                                   threading.get_ident(), extra))
        return traced

    def task(self, name: str, fn, *args):
        """Run fn(*args) as a root span; returns (seconds, exception or None)."""
        sid, parent, stack = self._open()
        exc = None
        t0 = time.perf_counter_ns()
        try:
            fn(*args)
        except (Exception, SystemExit) as err:  # a task's failure is data
            exc = err
        t1 = time.perf_counter_ns()
        stack.pop()
        self.spans.append((sid, name, t0, t1, parent, threading.get_ident(), None))
        return (t1 - t0) * 1e-9, exc

    def install(self, package):
        """Wrap every public function of the xyep modules at every binding."""
        modules = [getattr(package, m) for m in MODULES]
        wrappers = {}
        for mod in modules:
            layer = layer_name(mod.__name__)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for ns in [package] + modules:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def self_times(self) -> dict[int, float]:
        """Seconds of wall time attributed to each span id (see module doc)."""
        parent_of = {s[0]: s[4] for s in self.spans}
        events = []
        for sid, _, t0, t1, *_ in self.spans:
            events.append((t0, 1, sid))
            events.append((t1, 0, sid))
        events.sort()
        children = defaultdict(int)
        open_spans, active = set(), set()
        share = defaultdict(float)
        last = None
        for t, starting, sid in events:
            if active:
                dt = (t - last) * 1e-9 / len(active)
                for a in active:
                    share[a] += dt
            last = t
            p = parent_of[sid]
            if starting:
                open_spans.add(sid)
                active.add(sid)
                if p:
                    children[p] += 1
                    active.discard(p)
            else:
                open_spans.discard(sid)
                active.discard(sid)
                if p:
                    children[p] -= 1
                    if children[p] == 0 and p in open_spans:
                        active.add(p)
        return share

    def dump(self, path: str):
        fields = ["id", "name", "start_ns", "end_ns", "parent", "thread", "extra"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def layer_metrics(recorder, roots, tasks, err_max):
    """Per-layer metrics per traced pass, plus per-task child durations.

    ``roots`` holds the task span ids of each traced pass; ``err_max`` the
    task checks' largest relative errors by name.
    """
    share = recorder.self_times()
    passes = len(roots)
    root_ids = {sid for r in roots for sid in r}
    calls, self_s, extras = {}, {}, {}
    for sid, name, t0, t1, parent, tid, extra in recorder.spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + share.get(sid, 0.0)
        if extra is not None:
            extras.setdefault(name, []).append(extra)
    m = {}
    for layer in [layer_name(mod) for mod in MODULES] + ["bench"]:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.split(".")[0] == layer) / passes

    def per_pass(name):
        return calls.get(name, 0) / passes, self_s.get(name, 0.0) / passes

    def ex(name):
        return extras.get(name, [])

    for name in ("polyalg.poly_roots", "polyalg.resultant_eliminate_x",
                 "chain.quasi_energies", "chain.mode_vector_poly",
                 "basis.assemble_basis", "basis.many_body_energies",
                 "ep.locate_eps", "ep.jordan_decomposition", "topology.track_loop",
                 "oracle.ed_eigen"):
        m[f"{name}.calls"], m[f"{name}.self_s"] = per_pass(name)
    for name in ("ep.ep_state_catalog", "topology.overlap_grid",
                 "topology.branch_scaling_probe", "oracle.build_spin_hamiltonian",
                 "cli.main", "fmt.json_text"):
        m[f"{name}.self_s"] = per_pass(name)[1]
    m["polyalg.poly_roots.iters"] = sum(e[0] for e in ex("polyalg.poly_roots")) / passes
    m["polyalg.poly_roots.backward_err_max"] = max(
        (e[1] for e in ex("polyalg.poly_roots")), default=0.0)
    m["polyalg.resultant_eliminate_x.coeff_bits_max"] = max(
        ex("polyalg.resultant_eliminate_x"), default=0)
    m["chain.quasi_energies.err_max"] = err_max.get("quasi", 0.0)
    m["basis.assemble_basis.orth_residual_max"] = max(ex("basis.assemble_basis"),
                                                      default=0.0)
    m["basis.many_body_energies.states"] = sum(ex("basis.many_body_energies")) / passes
    found = ex("ep.locate_eps")
    expected = sum(e[1] for e in found)
    m["ep.locate_eps.found_ratio"] = sum(e[0] for e in found) / expected if expected else 0.0
    m["ep.locate_eps.residual_max"] = max((e[2] for e in found), default=0.0)
    m["ep.jordan_decomposition.residual_max"] = max(ex("ep.jordan_decomposition"),
                                                    default=0.0)
    loops = ex("topology.track_loop")
    m["topology.track_loop.refinements"] = sum(e[0] for e in loops) / passes
    m["topology.track_loop.closure_defect_max"] = max((e[1] for e in loops), default=0.0)
    m["topology.overlap_grid.cells"] = sum(ex("topology.overlap_grid")) / passes
    m["oracle.ed_eigen.flops_computed"] = sum(ex("oracle.ed_eigen")) / passes
    m["oracle.match_spectra.max_rel_dev"] = max(ex("oracle.match_spectra"), default=0.0)
    m["cli.main.bytes_out"] = sum(ex("cli.main")) / passes
    m["trace.self_sum_s"] = sum(share.values()) / passes
    m["trace.wall_s"] = sum((s[3] - s[2]) * 1e-9 for s in recorder.spans
                            if s[0] in root_ids) / passes

    # durations of the calls each task made directly, first traced pass
    first = {sid: i for i, sid in enumerate(roots[0])}
    direct = [dict() for _ in tasks]
    for sid, name, t0, t1, parent, tid, extra in recorder.spans:
        if parent in first:
            d = direct[first[parent]]
            d[name] = d.get(name, 0.0) + (t1 - t0) * 1e-9
    return m, direct
