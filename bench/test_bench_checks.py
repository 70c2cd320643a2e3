"""The benchmark's checks catch wrong answers, and its trace adds up.

Run with ``PYTHONPATH=src python3 -m pytest bench``.
"""

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

pytest.importorskip("mpmath")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as R  # noqa: E402
import speed  # noqa: E402
import tasks as T  # noqa: E402
import workloads as W  # noqa: E402
from tracer import SpanRecorder  # noqa: E402


def _run(task):
    out = {}
    T.RUNNERS[task["kind"]](task, out)
    return T.CHECKS[task["kind"]](task, out, {})


def _spectrum_task(L=8, gamma=0.35 - 0.55j):
    return {"kind": "spectrum", "L": L, "gamma": W.cx(gamma), "many_body": True,
            "ref": {m: W.cxa(v) for m, v in R.quasi_energies(L, gamma).items()}}


def test_spectrum_reference_passes_and_a_perturbed_one_is_caught():
    task = _spectrum_task()
    assert max(_run(task).values()) < T.TOL
    eps = task["ref"]["I"][1]
    task["ref"]["I"][1] = [eps[0] * (1 + 1e-6), eps[1]]
    errs = _run(task)
    assert errs["quasi"] > T.TOL and errs["many_body"] > T.TOL


def test_locate_reference_matches_and_a_shifted_ep_is_caught():
    points = R.ep_points(6)
    task = {"kind": "locate", "L": 6,
            "ref": [{"mode": p["mode"], "gamma": W.cx(p["gamma"]), "x": W.cx(p["x"])}
                    for p in points]}
    assert max(_run(task).values()) < T.TOL
    task["ref"][0]["gamma"][1] += 1e-6
    assert _run(task)["ep_gamma"] > T.TOL


def test_a_loop_expected_to_permute_fails_when_it_does_not():
    task = {"kind": "loop", "L": 4, "center": [0.2, 0.1], "radius": 0.05,
            "steps": 64, "ref": {"enclosed_mode": None}}
    assert _run(task) == {}
    task["ref"]["enclosed_mode"] = "I"
    with pytest.raises(T.CheckFailed):
        _run(task)


def test_known_failures_match_by_kind_and_message():
    assert W.known_failure("spectrum", "raised NonConvergence: ...")
    assert W.known_failure("spectrum", "quasi error 1e-3 > 1e-08") is None
    assert W.known_failure("locate", "raised NonConvergence: ...") is None


def test_self_times_add_up_to_the_task_wall_time_across_threads():
    rec = SpanRecorder()
    leaf = rec.wrap("m.leaf", lambda: time.sleep(0.01))

    def parent():
        leaf()
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: leaf(), range(4)))

    wrapped = rec.wrap("m.parent", parent)
    seconds, exc = rec.task("bench.task", wrapped)
    assert exc is None
    share = rec.self_times()
    assert sum(share.values()) == pytest.approx(seconds, rel=1e-6)
    names = {s[0]: s[1] for s in rec.spans}
    parents = {s[0]: s[4] for s in rec.spans}
    worker = [s for s in rec.spans if s[5] != threading.get_ident()]
    assert worker and all(names[parents[s[0]]] == "m.parent" for s in worker)
    leaf_self = sum(v for k, v in share.items() if names[k] == "m.leaf")
    assert leaf_self >= 0.02   # the serial call plus the parallel wall time


def test_reference_roots_are_the_boundary_roots():
    n, lam = 5, -0.4 + 0.3j
    xs = R.boundary_roots(n, lam)
    u_prev, u = np.zeros_like(xs), np.ones_like(xs)
    for _ in range(n):
        u_prev, u = u, 2 * xs * u - u_prev
    assert np.max(np.abs(u - lam * u_prev)) < 1e-12


def test_design_gammas_follow_the_seed_within_the_jitter():
    avoid = np.array([])
    first = W.design_gammas(np.random.default_rng(1), W.SWEEP_BANDS, avoid, lambda g: None)
    again = W.design_gammas(np.random.default_rng(1), W.SWEEP_BANDS, avoid, lambda g: None)
    other = W.design_gammas(np.random.default_rng(2), W.SWEEP_BANDS, avoid, lambda g: None)
    assert [g for g, _ in first] == [g for g, _ in again]
    gaps = [abs(a - b) for (a, _), (b, _) in zip(first, other)]
    assert all(0 < gap <= 2 * W.SWEEP_JITTER for gap in gaps)


def test_latencies_scale_by_the_probes_on_either_side():
    probe_t, probe_s = [0.0, 1.0, 2.0], [0.004, 0.008, 0.008]
    # a task between a 4 ms and an 8 ms probe ran at 2/3 of reference speed
    got = speed.scale([0.5, 1.5], [0.3, 0.3], probe_t, probe_s, ref=0.004)
    assert got == pytest.approx([0.2, 0.15])
