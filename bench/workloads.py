"""Workload inputs and their reference values, generated from a seed.

This module runs in the parent process and never imports xyep: it
decides what the program is asked and what the right answer is.  Each
task is a JSON-ready dict with a ``kind`` (see ``tasks.RUNNERS``), its
inputs, and a ``ref`` entry holding the reference the child checks the
program's result against.  Complex numbers travel as ``[re, im]``.
"""

from __future__ import annotations

import os

import numpy as np

import reference as R

WORKLOADS = ("spectrum-topology", "ep-census")

# spectrum sweep: chain lengths per anisotropy, and the radial band of
# each anisotropy's design point (one point per angular sector, see
# design_gammas).  The bands are a permutation chosen so that at no
# jittered point of any sector does the assemble_basis residual of an
# L <= 40 task come within a factor 3 of the 1e-8 tolerance: such a task
# would pass for some seeds and fail for others, and ``failed`` would
# then depend on the seed.
SWEEP_L = (8, 14, 20, 40, 60, 80, 120)
SWEEP_BANDS = (3, 6, 5, 4, 1, 7, 2, 0)
# the seed moves each design point by up to this much
SWEEP_JITTER = 0.02
MANY_BODY_L_MAX = 14
# ep-census sizes
EP_L = tuple(range(4, 42, 2))
JORDAN_L_MAX = 20
# one ep_state_catalog per size (its cost grows as 2^L), at a seeded EP
CATALOG_L = (4, 6, 8, 10)
PROBE_L = 8
PROBE_COUNT = 4
# loop, grid and ED sizes
LOOP_L = (8, 14)
LOOP_STEPS = 256
LOOP_SCREEN_POINTS = 1024
LOOP_SEPARATION = 1e-3
GRID_L = 6
GRID_N = 13
GRID_HALF_WIDTH = 0.1
ED_L = 8
ED_COUNT = 8

# Anisotropies are drawn from |gamma| < 1.5, at least POLE_MARGIN from
# the poles gamma = +-1 and EP_MARGIN from every exceptional point of the
# sizes in play: at an exceptional point a refusal (DefectiveBasis) is
# the correct answer, so it would not measure the code.
GAMMA_RADIUS = 1.5
POLE_MARGIN = 0.1
EP_MARGIN = 0.01

# Failures present at the commit that introduced this benchmark, by task
# kind and a fragment of the failure message.  Such tasks stay in the
# workload and count in ``failed``; only a failure matching none of these
# makes a run incorrect.  Which spectrum tasks hit them depends on gamma.
KNOWN_FAILURES = {
    "spectrum": (
        ("raised DefectiveBasis",
         "assemble_basis refuses: edge modes (|lambda| away from 1) lose "
         "accuracy in the forward Chebyshev recurrence from L ~ 14, and the "
         "monomial Aberth roots are wrong at L = 60-80"),
        ("inverse residual",
         "assemble_basis returns |V V^T - I| between 1e-8 and its own 1e-6 "
         "tolerance (edge modes)"),
        ("raised EpsilonZero", "mode construction meets eps = 0 (edge modes)"),
        ("raised NonConvergence", "Aberth iteration fails at L >= 100"),
    ),
}


def known_failure(kind: str, message: str) -> str | None:
    """Reason recorded for a failure present at the introducing commit."""
    for fragment, reason in KNOWN_FAILURES.get(kind, ()):
        if message.startswith(fragment):
            return reason
    return None


def cx(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cxa(values) -> list[list[float]]:
    return [cx(z) for z in values]


def _eps_ref(eps: dict) -> dict:
    return {mode: cxa(vals) for mode, vals in eps.items()}


def _draw_gamma(rng, avoid, margin=EP_MARGIN, cell=(0, 1, 0.0)) -> complex:
    """Uniform gamma in one cell of a Latin-hypercube split of the disc.

    ``cell = (k, K, band)``: angle in the k-th of K sectors and |gamma|^2
    in radial band ``band`` (a shuffled 0..K-1), so every seed covers the
    disc, and hence the edge-mode and near-circle regimes, in the same
    proportions.
    """
    k, K, band = cell
    while True:
        angle = 2 * np.pi * (k + rng.uniform()) / K
        r = GAMMA_RADIUS * np.sqrt((band + rng.uniform()) / K)
        g = complex(r * np.cos(angle), r * np.sin(angle))
        if min(abs(g - 1), abs(g + 1)) < POLE_MARGIN:
            continue
        if avoid.size and np.min(np.abs(avoid - g)) < margin:
            continue
        return g


def _draw_gammas(rng, count, avoid, reference):
    """``count`` pairs (gamma, reference(gamma)), one per Latin-hypercube cell."""
    bands = rng.permutation(count)
    out = []
    for k in range(count):
        while True:
            g = _draw_gamma(rng, avoid, cell=(k, count, bands[k]))
            try:
                out.append((g, reference(g)))
                break
            except R.ReferenceFailure:
                continue
    return out


def _ep_task(p: dict, L: int) -> dict:
    return {"L": L, "mode": p["mode"], "lam": cx(p["lam"]),
            "gamma": cx(p["gamma"]), "x": cx(p["x"]),
            "epsilon": cx(p["epsilon"])}


def design_gammas(rng, bands, avoid, reference, jitter=SWEEP_JITTER):
    """One (gamma, reference(gamma)) per sector of a Latin-hypercube split.

    Design point k sits at the middle of angular sector k of K =
    len(bands) and of radial band ``bands[k]`` in |gamma|^2, so the points
    cover the disc, and hence the edge-mode (|lambda| far from 1) and
    near-circle regimes, in fixed proportions.  The seed moves each point
    uniformly within ``jitter``: the inputs change with the seed while the
    mix of regimes, and so the work and the refusals a run meets, does not.
    """
    K = len(bands)
    out = []
    for k, band in enumerate(bands):
        angle = 2 * np.pi * (k + 0.5) / K
        center = GAMMA_RADIUS * np.sqrt((band + 0.5) / K) * np.exp(1j * angle)
        while True:
            g = complex(center + jitter * np.sqrt(rng.uniform())
                        * np.exp(2j * np.pi * rng.uniform()))
            if min(abs(g - 1), abs(g + 1)) < POLE_MARGIN:
                continue
            if avoid.size and np.min(np.abs(avoid - g)) < EP_MARGIN:
                continue
            try:
                out.append((g, reference(g)))
                break
            except R.ReferenceFailure:
                continue
    return out


def spectrum_sweep(rng) -> list[dict]:
    avoid = np.array([g for L in SWEEP_L for g in R.ep_points_float(L)])
    chosen = design_gammas(rng, SWEEP_BANDS, avoid,
                           lambda g: {L: R.quasi_energies(L, g) for L in SWEEP_L})
    tasks = []
    for g, refs in chosen:
        for L in SWEEP_L:
            tasks.append({"kind": "spectrum", "L": L, "gamma": cx(g),
                          "many_body": L <= MANY_BODY_L_MAX,
                          "ref": _eps_ref(refs[L])})
    g, refs = chosen[0]
    tasks.append({"kind": "cli_spectrum", "L": 14, "gamma": cx(g),
                  "ref": _eps_ref(refs[14])})
    return tasks


def ep_census(rng) -> list[dict]:
    points = {L: R.ep_points(L) for L in EP_L}
    tasks = [{"kind": "locate", "L": L,
              "ref": [{"mode": p["mode"], "gamma": cx(p["gamma"]),
                       "x": cx(p["x"])} for p in points[L]]}
             for L in EP_L]
    for L in EP_L:
        if L > JORDAN_L_MAX:
            break
        for p in points[L]:
            eps = R.quasi_energies(L, p["gamma"], ep=(p["mode"], p["x"]))
            tasks.append({"kind": "jordan", "ep": _ep_task(p, L),
                          "ref": _eps_ref(eps)})
    for L in CATALOG_L:
        p = points[L][rng.integers(len(points[L]))]
        eps = R.quasi_energies(L, p["gamma"], ep=(p["mode"], p["x"]))
        tasks.append({"kind": "catalog", "ep": _ep_task(p, L),
                      "ref": cxa(R.many_body(eps["I"], eps["II"]))})
    for k in rng.choice(len(points[PROBE_L]), size=PROBE_COUNT, replace=False):
        tasks.append({"kind": "probe", "ep": _ep_task(points[PROBE_L][k], PROBE_L),
                      "ref": None})
    return tasks


def _signed_energies(L: int, gamma: complex) -> np.ndarray:
    """All 2L values +-eps in double precision (screening only)."""
    lam = R.gamma_to_lambda(gamma)
    eps = [R.eps_of_x(gamma, x) for lam_m in (lam, 1 / lam)
           for x in R.tridiagonal_roots(L // 2, lam_m)]
    return np.concatenate([eps, np.negative(eps)])


def _loop_clear(L: int, center: complex, radius: float) -> bool:
    """No two branch values come within LOOP_SEPARATION anywhere on the loop.

    Branches that cross on the loop make the continuation ambiguous, and
    refusing (AmbiguousContinuation) is then the right answer.
    """
    for t in range(LOOP_SCREEN_POINTS):
        v = _signed_energies(L, center + radius * np.exp(2j * np.pi * t / LOOP_SCREEN_POINTS))
        gaps = np.abs(v[:, None] - v[None, :]) + np.diag(np.full(v.size, np.inf))
        if gaps.min() < LOOP_SEPARATION:
            return False
    return True


def _loop_tasks(rng, L: int) -> list[dict]:
    points = R.ep_points(L)
    gammas = np.array([p["gamma"] for p in points])
    # around an EP: the radius stays well inside the distance to the next
    # EP and to the poles, so exactly one branch point is enclosed
    for k in rng.permutation(len(points)):
        g = gammas[k]
        others = np.abs(np.delete(gammas, k) - g)
        radius = min(0.05, 0.3 * others.min(), 0.3 * min(abs(g - 1), abs(g + 1)))
        if _loop_clear(L, g, radius):
            break
    around = {"kind": "loop", "L": L, "center": cx(g), "radius": radius,
              "steps": LOOP_STEPS, "ref": {"enclosed_mode": points[k]["mode"]}}
    free_radius = 0.05
    while True:
        center = _draw_gamma(rng, gammas, margin=3 * free_radius)
        if _loop_clear(L, center, free_radius):
            break
    free = {"kind": "loop", "L": L, "center": cx(center), "radius": free_radius,
            "steps": LOOP_STEPS, "ref": {"enclosed_mode": None}}
    return [around, free]


def topology_oracle(rng) -> list[dict]:
    tasks = []
    for L in LOOP_L:
        tasks += _loop_tasks(rng, L)
    points = R.ep_points(GRID_L)
    p = points[rng.integers(len(points))]
    g = p["gamma"]
    re_vals = np.linspace(g.real - GRID_HALF_WIDTH, g.real + GRID_HALF_WIDTH, GRID_N)
    im_vals = np.linspace(g.imag - GRID_HALF_WIDTH, g.imag + GRID_HALF_WIDTH, GRID_N)
    mid = GRID_N // 2
    cells = []
    for i, re in enumerate(re_vals):
        for j, im in enumerate(im_vals):
            at_ep = i == mid and j == mid
            eps = R.quasi_energies(GRID_L, complex(re, im),
                                   ep=(p["mode"], p["x"]) if at_ep else None)
            cells.append(cxa(R.many_body(eps["I"], eps["II"])))
    grid = {"kind": "grid", "L": GRID_L, "n": GRID_N,
            "rect": [re_vals[0], re_vals[-1], im_vals[0], im_vals[-1]],
            "ref": {"ep_gamma": cx(g), "cells": cells}}
    for threads in (1, len(os.sched_getaffinity(0))):
        tasks.append(dict(grid, threads=threads))
    avoid = np.array(R.ep_points_float(ED_L))
    for g, eps in _draw_gammas(rng, ED_COUNT, avoid,
                               lambda g: R.quasi_energies(ED_L, g)):
        tasks.append({"kind": "ed_compare", "L": ED_L, "gamma": cx(g),
                      "ref": cxa(R.many_body(eps["I"], eps["II"]))})
    return tasks


def spectrum_topology(rng) -> list[dict]:
    """Boundary roots at large degree (sweep) and at small degree (loops, grid, ED)."""
    return spectrum_sweep(rng) + topology_oracle(rng)


GENERATORS = {
    "spectrum-topology": spectrum_topology,
    "ep-census": ep_census,
}


def make_tasks(workload: str, seed: int) -> list[dict]:
    """Task list of one pass; the same seed always gives the same list."""
    tasks = GENERATORS[workload](np.random.default_rng(seed))
    for t in tasks:
        L = t["L"] if "L" in t else t["ep"]["L"]
        t["label"] = f"{t['kind']}:L={L}"
    return tasks
