"""One benchmark process: fresh interpreter, import xyep, warm up, then work.

Started by ``run.py`` from the root of a checkout, one at a time, with
``src`` on PYTHONPATH and BLAS pinned to one thread.

``setup`` mode prints a line as soon as the interpreter runs, another
once ``import xyep`` and one warm-up call per entry point are done, and
exits: the parent times interpreter set-up from the first, and the line
carries the time from there to ready plus the numpy-free host-speed probes
taken on either side of it (see speed.py).

``run`` mode reads the task list from stdin, runs passes over it while
another pass fits in ``--seconds`` or fewer than ``--min-passes`` are done,
checks every result, and prints one JSON summary line with each task's
raw latency and its latency scaled by the host-speed probe.  With
``--trace`` every second pass runs with the span recorder wrapping the
xyep modules, so traced and untraced passes see the same machine, and
the per-layer metrics are computed from the traced passes' spans.
"""

import sys
import time

print("started", flush=True)

from speed import probe_pure  # noqa: E402

# three probes on each side of set-up; their median scales it
PROBE_BEFORE_S = [probe_pure() for _ in range(3)]
_T_AFTER_PROBE = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import warnings  # noqa: E402

_t = time.perf_counter()
import xyep  # noqa: E402
import xyep.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t

import numpy as np  # noqa: E402
import resource  # noqa: E402
import scipy  # noqa: E402

from speed import PROBE_GAP_S, PROBE_REF_S, Probe, scale  # noqa: E402
from tasks import CHECKS, RUNNERS, TOL, CheckFailed  # noqa: E402
from tracer import SpanRecorder, layer_metrics  # noqa: E402

# errors below this count as exact when turned into digits
_ERR_FLOOR = 1e-17


def warm_up(workload: str, scratch: str):
    """One small call per entry point the workload uses (fixed inputs)."""
    spec = xyep.ChainSpec(8, 0.3 - 0.4j)
    if workload == "ep-census":
        ep = xyep.locate_eps(4, "both")[0]
        s4 = xyep.ChainSpec(4, ep.gamma)
        xyep.jordan_decomposition(s4, ep)
        xyep.ep_state_catalog(s4, ep)
        xyep.branch_scaling_probe(ep)
    else:
        xyep.quasi_energies(spec)
        xyep.assemble_basis(spec)
        xyep.many_body_energies(spec)
        path = os.path.join(scratch, f"warm-{os.getpid()}.json")
        xyep.cli.main(["spectrum", "--L", "4", "--gamma", "0.3-0.4i",
                       "--format", "json", "--out", path])
        os.remove(path)
        xyep.track_loop(4, 0.2 + 0.1j, 0.05, steps=8)
        xyep.overlap_grid(4, 0.2, 0.3, 0.4, 0.5, 2, 2, threads=1)
        mb = xyep.many_body_energies(xyep.ChainSpec(4, 0.3 + 0.2j))
        ed = xyep.ed_eigen(xyep.build_spin_hamiltonian(4, 0.3 + 0.2j),
                           want_vectors=False)
        xyep.match_spectra(mb.energies, ed.values)


def _timed(name, fn, *args):
    exc = None
    t0 = time.perf_counter_ns()
    try:
        fn(*args)
    except (Exception, SystemExit) as err:  # a task's failure is data
        exc = err
    return (time.perf_counter_ns() - t0) * 1e-9, exc


def _outcome(task, out, exc, ctx):
    """(failure message or None, {name: relative error}) for one task."""
    check = CHECKS[task["kind"]]
    if exc is not None:
        try:
            errs = check(task, out, ctx)   # partial results, for the record
        except Exception:
            errs = {}
        return f"raised {type(exc).__name__}: {exc}", errs
    try:
        errs = check(task, out, ctx)
    except CheckFailed as err:
        return str(err), {}
    bad = {k: v for k, v in errs.items() if not v <= TOL}
    if bad:
        return "; ".join(f"{k} error {v:.3e} > {TOL:g}" for k, v in bad.items()), errs
    return None, errs


def _digits(err: float) -> float:
    return -math.log10(max(err, _ERR_FLOOR))


def run_passes(tasks, seconds, min_passes, recorder):
    """Closed-loop passes; with a recorder, every second pass is traced.

    The host-speed probe runs before the first task, after any task that
    ends ``PROBE_GAP_S`` or more after the last probe, and after the last
    task, so every task has a probe on each side (see speed.py).

    Each vCPU of a shared host changes speed on its own, so the main
    thread stays on one CPU ("home"), where the probe runs too; worker
    threads inherit that.  A task that asks for more than one thread runs
    on every CPU, with probes on every CPU on either side of it, and is
    scaled by their harmonic mean (its workers share the work, so its
    time goes as the inverse of the summed speeds).
    """
    ctx = {}
    latencies, starts, traced, failures, roots = [], [], [], [], []
    probe, probe_t, probe_s = Probe(), [], []
    cpus = sorted(os.sched_getaffinity(0))
    home = {cpus[0]}
    os.sched_setaffinity(0, home)
    wide = {}   # (pass, task) -> probe seconds for multi-thread tasks

    def take_probe(every_cpu=False):
        probe_t.append(time.perf_counter())
        if not every_cpu:
            probe_s.append(probe())
            return None
        per_cpu = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(probe())
        os.sched_setaffinity(0, home)
        probe_s.append(per_cpu[0])
        return statistics.harmonic_mean(per_cpu)

    err_max = {}
    # per task: lowest digits over the passes, and whether any pass failed
    digits, failed = {}, set()
    begin = time.perf_counter()
    take_probe()
    while True:
        started = time.perf_counter()
        tracing = recorder is not None and len(latencies) % 2 == 1
        if tracing:
            recorder.install(xyep)
        runner = recorder.task if tracing else _timed
        lat, pass_starts, pass_roots = [], [], []
        for i, task in enumerate(tasks):
            out = {}
            threaded = task.get("threads", 1) > 1
            if threaded:
                before = take_probe(every_cpu=True)
                os.sched_setaffinity(0, cpus)
            pass_starts.append(time.perf_counter())
            dt, exc = runner("bench." + task["kind"], RUNNERS[task["kind"]], task, out)
            lat.append(dt)
            if threaded:
                os.sched_setaffinity(0, home)
                wide[len(latencies), i] = 0.5 * (before + take_probe(every_cpu=True))
            if tracing:
                pass_roots.append(recorder.spans[-1][0])
            message, errs = _outcome(task, out, exc, ctx)
            if message:
                failures.append([len(latencies), i, message])
                failed.add(i)
            for k, v in errs.items():
                err_max[k] = max(err_max.get(k, 0.0), v)
            if errs:
                digits[i] = min(digits.get(i, math.inf), _digits(max(errs.values())))
            if time.perf_counter() - probe_t[-1] >= PROBE_GAP_S:
                take_probe()
        if tracing:
            recorder.uninstall()
            roots.append(pass_roots)
        latencies.append(lat)
        starts.append(pass_starts)
        traced.append(tracing)
        # stop once another pass like this one would overrun the budget
        now = time.perf_counter()
        if len(latencies) >= min_passes and now - begin + (now - started) > seconds:
            break
    take_probe()
    scaled = [scale(st, lat, probe_t, probe_s, PROBE_REF_S)
              for st, lat in zip(starts, latencies)]
    for (k, i), local in wide.items():
        scaled[k][i] = latencies[k][i] * PROBE_REF_S / local
    os.sched_setaffinity(0, cpus)
    return {"latencies": latencies, "scaled": scaled, "probe_s": probe_s,
            "traced": traced, "failures": failures,
            "err_max": err_max,
            "digits_ok": [d for i, d in digits.items() if i not in failed],
            "digits_all": list(digits.values())}, roots


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()
    warnings.simplefilter("ignore")

    t = time.perf_counter()
    warm_up(args.workload, args.scratch)
    warm = time.perf_counter() - t
    ready = {"import_s": IMPORT_S, "warmup_s": warm, "xyep_file": xyep.__file__,
             "after_started_s": time.perf_counter() - _T_AFTER_PROBE}
    ready["probe_pure_s"] = PROBE_BEFORE_S + [probe_pure() for _ in range(3)]
    if args.mode == "setup":
        print(json.dumps(ready), flush=True)
        return
    payload = json.load(sys.stdin)
    tasks = payload["tasks"]
    for k, task in enumerate(tasks):
        task["out_path"] = os.path.join(args.scratch, f"cli-{os.getpid()}-{k}.json")
    extra = {}
    if args.workload == "ep-census":
        extra["frozen_table"] = {
            str(L): {m: [[g.real, g.imag] for g in xyep.reference_ep_gammas(L, m)]
                     for m in ("I", "II")}
            for L in range(4, 16, 2)}

    recorder = SpanRecorder() if args.trace else None
    summary, roots = run_passes(tasks, args.seconds, args.min_passes, recorder)
    if recorder:
        summary["layers"], summary["direct"] = layer_metrics(
            recorder, roots, tasks, summary["err_max"])
        recorder.dump(args.spans_out)
    for task in tasks:
        if os.path.exists(task["out_path"]):
            os.remove(task["out_path"])
    summary.update(ready, **extra)
    summary["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary["versions"] = {
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version")}
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()
