#!/usr/bin/env python3
"""xyep benchmark: time to a certified result, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload spectrum-topology --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

The parent (this file) never imports xyep.  It builds the task list and
its references from the seed, then starts child processes one at a
time: ``SETUP_RUNS`` set-up children that only import and warm up, then
the workload child that runs closed-loop passes over the tasks.  With
``--trace 1`` the child traces every second pass and the per-layer
metrics are printed instead of the end-to-end ones.  A JSON
report with provenance comes first; the last line of stdout is the
summary ``{"correct", "attempted", "failed", "metrics"}``.  See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads  # needs numpy and mpmath, never xyep
from speed import PROBE_PURE_REF_S, PROBE_REF_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out")

SETUP_RUNS = 7
MIN_PASSES = 3
# task_tail_ms averages this share of the tasks, the slowest ones, and
# accuracy_digits this share of the passing tasks, the least accurate ones
TAIL_SHARE = 0.2
ACCURACY_SHARE = 0.2
CHILD_TIMEOUT_S = 150
# frozen EP table in the package carries four decimals
FROZEN_TABLE_TOL = 5e-5
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them ('end_to_end' or 'per_layer')."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def child_cmd(mode: str, workload: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "child.py"), mode,
            "--workload", workload, "--scratch", SCRATCH]


def _pin_to_first_cpu():
    """Keep a set-up child on one CPU, where its speed probes run too."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_once(workload: str) -> dict:
    """Time a fresh interpreter until xyep is imported and warmed up."""
    t0 = time.perf_counter()
    with subprocess.Popen(child_cmd("setup", workload), cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          preexec_fn=_pin_to_first_cpu) as proc:
        started = proc.stdout.readline()
        t_started = time.perf_counter()
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or started.strip() != "started" or not ready:
        fail(f"set-up child exited with {code}")
    info = json.loads(ready)
    raw = t_started - t0 + info["after_started_s"]
    info.update(interpreter_s=t_started - t0, ready_s=t_ready - t0, raw_s=raw,
                scaled_s=raw * PROBE_PURE_REF_S / statistics.median(info["probe_pure_s"]))
    return info


def run_child(workload: str, tasks: list, seconds: float, min_passes: int,
              spans_out: str | None = None) -> dict:
    cmd = child_cmd("run", workload) + ["--seconds", str(seconds),
                                        "--min-passes", str(min_passes)]
    if spans_out:
        cmd += ["--trace", "--spans-out", spans_out]
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(json.dumps({"tasks": tasks}),
                                      timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail(f"{workload} child exceeded {CHILD_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"{workload} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "xyep")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int, versions: dict) -> dict:
    return {"workload": workload, "seed": seed, "git_commit": git_commit(),
            "source_sha256": source_digest(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            **versions, "blas_threads": BLAS_ENV}


def task_means(latencies) -> list[float]:
    """Each task's mean latency over the passes, in task-list order.

    Means, not medians: with a handful of passes a median snaps to one
    pass, while a mean moves smoothly with the passes' share of slow and
    fast host phases that the probe scaling leaves.
    """
    return [statistics.fmean(col) for col in zip(*latencies)]


def tail_mean(values, share=TAIL_SHARE) -> float:
    """Mean of the largest ``share`` of the values, one per task.

    A tail over several tasks rather than the extreme one: the slowest
    task runs once per pass, too few times for a steady figure, and the
    least accurate task is whichever input the seed's jitter hit worst.
    """
    k = max(1, round(share * len(values)))
    return statistics.fmean(sorted(values)[-k:])


def least_accurate(digits) -> float:
    """Mean digits of the least accurate ``ACCURACY_SHARE`` of the tasks."""
    if not digits:
        return 0.0
    return -tail_mean([-d for d in digits], ACCURACY_SHARE)


def frozen_table_gap(tasks, table) -> float:
    """Largest per-component gap between the reference EPs and the frozen table."""
    gap = 0.0
    for t in tasks:
        if t["kind"] != "locate" or str(t["L"]) not in table:
            continue
        for mode, frozen in table[str(t["L"])].items():
            ours = [complex(*p["gamma"]) for p in t["ref"] if p["mode"] == mode]
            for re, im in frozen:
                gap = max(gap, min(max(abs(g.real - re), abs(g.imag - im)) for g in ours))
    return gap


def judge(tasks, child) -> dict:
    """Failed tasks, each counted once however many passes it failed in.

    ``attempted`` and ``failed`` count distinct tasks, so they depend on
    the seed's task list and on the program, never on how many passes
    the run happened to complete.
    """
    new, messages, passes_failed = [], {}, {}
    for _, i, message in child["failures"]:
        passes_failed[i] = passes_failed.get(i, 0) + 1
        key = f"{tasks[i]['label']}: {message[:160]}"
        messages[key] = messages.get(key, 0) + 1
        if not workloads.known_failure(tasks[i]["kind"], message):
            new.append(key)
    passes = len(child["latencies"])
    return {"attempted": len(tasks), "failed": len(passes_failed),
            "new_failures": sorted(set(new)), "failures": messages,
            "failed_in_some_passes_only": sorted(
                tasks[i]["label"] for i, n in passes_failed.items() if n < passes)}


def crosscheck(tasks, direct, setup_import_s) -> dict:
    """ROADMAP re-anchor figures next to the same calls in the traced run."""
    def durations(kind, L, name, **match):
        return [d[name] for t, d in zip(tasks, direct)
                if t["kind"] == kind and t.get("L") == L and name in d
                and all(t.get(k) == v for k, v in match.items())]

    rows = {"import xyep": {"roadmap_s": 0.8, "bench_s": setup_import_s}}
    figures = (("quasi_energies L=60", "spectrum", 60, "chain.quasi_energies", {}, 0.052),
               ("locate_eps L=40", "locate", 40, "ep.locate_eps", {}, 1.6),
               ("track_loop L=14, 256 steps", "loop", 14, "topology.track_loop", {}, 0.82),
               ("overlap_grid L=6 13x13, threads=1", "grid", 6, "topology.overlap_grid",
                {"threads": 1}, 2.2 * 13 ** 2 / 17 ** 2))
    for label, kind, L, name, match, roadmap in figures:
        got = durations(kind, L, name, **match)
        if got:
            rows[label] = {"roadmap_s": roadmap, "bench_s": statistics.median(got)}
    return rows


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    tasks = workloads.make_tasks(workload, seed)
    reference_s = time.perf_counter() - t0
    setups = [setup_once(workload) for _ in range(SETUP_RUNS)]
    spans_out = os.path.join(SCRATCH, f"spans-{workload}-seed{seed}.json")
    child = run_child(workload, tasks, seconds, 2 if trace else MIN_PASSES,
                      spans_out if trace else None)
    verdict = judge(tasks, child)
    plain = [p for p, t in zip(child["latencies"], child["traced"]) if not t]
    scaled = [p for p, t in zip(child["scaled"], child["traced"]) if not t]
    gap = 0.0
    if "frozen_table" in child:
        gap = frozen_table_gap(tasks, child["frozen_table"])
    reference_ok = gap < FROZEN_TABLE_TOL
    correct = reference_ok and not verdict["new_failures"]

    walls = [sum(p) for p in plain]
    report = {
        "provenance": provenance(workload, seed, child["versions"]),
        "seconds": seconds, "trace": trace, "tasks_per_pass": len(tasks),
        "passes": len(child["latencies"]), "traced_passes": sum(child["traced"]),
        "reference_s": reference_s,
        "reference_vs_frozen_table": gap if "frozen_table" in child else None,
        "fail_frac": {"value": verdict["failed"] / verdict["attempted"],
                      "failed": verdict["failed"], "attempted": verdict["attempted"],
                      "task_runs_failed": len(child["failures"])},
        "failures": verdict["failures"], "new_failures": verdict["new_failures"],
        "failed_in_some_passes_only": verdict["failed_in_some_passes_only"],
        "accuracy_digits_all_returned": min(child["digits_all"], default=None),
        "accuracy_digits_min": min(child["digits_ok"], default=None),
        "err_max": child["err_max"],
    }
    setup_med = {k: statistics.median(s[k] for s in setups)
                 for k in ("interpreter_s", "import_s", "warmup_s", "ready_s",
                           "raw_s", "scaled_s")}
    report["host_speed"] = {
        "probe_ref_s": PROBE_REF_S, "probe_median_s": statistics.median(child["probe_s"]),
        "probes": len(child["probe_s"]),
        "setup_probe_pure_ref_s": PROBE_PURE_REF_S,
        "setup_probe_pure_s": [s["probe_pure_s"] for s in setups]}
    if trace:
        values = dict(child["layers"])
        values["trace.overhead_frac"] = values["trace.wall_s"] / statistics.mean(walls) - 1
        for k in ("interpreter_s", "import_s", "warmup_s"):
            values[f"setup.{k}"] = setup_med[k]
        values["topology.overlap_grid.thread_speedup"] = thread_speedup(tasks, scaled)
        report["roadmap_crosscheck"] = crosscheck(tasks, child["direct"],
                                                  setup_med["import_s"])
    else:
        means = task_means(scaled)
        values = {"wall_s": sum(means),
                  "task_p50_ms": 1e3 * statistics.median(means),
                  "task_tail_ms": 1e3 * tail_mean(means),
                  "accuracy_digits": least_accurate(child["digits_ok"]),
                  "setup_s": setup_med["scaled_s"],
                  "peak_rss_mb": child["maxrss_kb"] / 1024}
        report["task_mean_ms"] = [[t["label"], 1e3 * m]
                                  for t, m in zip(tasks, means)]
        report["setup"] = setup_med
        report["wall_s_per_pass"] = walls
        report["wall_s_raw"] = sum(task_means(plain))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared("per_layer" if trace else "end_to_end").items()}
    report["metrics"] = metrics
    return {"correct": correct, "attempted": verdict["attempted"],
            "failed": verdict["failed"], "metrics": metrics, "report": report}


def thread_speedup(tasks, plain) -> float:
    by_threads = {}
    for p in plain:
        for t, s in zip(tasks, p):
            if t["kind"] == "grid":
                by_threads.setdefault(t["threads"], []).append(s)
    if len(by_threads) < 2:
        return 0.0
    return (statistics.median(by_threads[min(by_threads)])
            / statistics.median(by_threads[max(by_threads)]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.makedirs(SCRATCH, exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({name: results[name]["report"]}, indent=1), flush=True)
    if len(names) == 1:
        summary = {k: results[names[0]][k] for k in ("correct", "attempted",
                                                    "failed", "metrics")}
    else:
        for name, res in results.items():
            print(f"\n{name}")
            for metric, v in res["metrics"].items():
                print(f"  {metric:48s} {v['value']:.6g} {v['unit']}")
            print(f"  {'fail_frac':48s} {res['failed'] / res['attempted']:.6g} ratio"
                  f" ({res['failed']} of {res['attempted']} tasks)")
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}/{k}": v for n, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(ROOT, "src", "xyep", "__init__.py")):
        fail(f"no xyep sources under {os.path.join(ROOT, 'src')}; "
             "run from a checkout of the repository")
    main()
