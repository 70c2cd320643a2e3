"""Run one task against the xyep API and check its result (child side).

``RUNNERS[kind](task, out)`` is the timed region: it makes only the
public API calls a user would make and stores what they return in
``out``.  ``CHECKS[kind](task, out, ctx)`` runs afterwards, untimed, and
compares those results with the task's reference (built in the parent
without xyep) and with residuals this module computes itself.  A check
returns ``{name: relative error against the reference}`` and raises
:class:`CheckFailed` when anything misses its tolerance.

Tolerances are the acceptance gate's, not what the code achieves today:
spectra and residuals 1e-8, rigidity at the EP below 1e-6 and above
1e-3 elsewhere, splitting exponent 0.5 +- 0.05, EP count 2(L-2).
"""

from __future__ import annotations

import json
import os

import numpy as np

import xyep
import xyep.cli

TOL = 1e-8
RIGIDITY_AT_EP = 1e-6
RIGIDITY_AWAY = 1e-3
EXPONENT_TOL = 0.05


class CheckFailed(Exception):
    """A returned result missed its reference or its tolerance."""


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _ca(pairs) -> np.ndarray:
    return np.array([complex(a, b) for a, b in pairs], dtype=complex)


def _ep_record(ep: dict) -> "xyep.EPRecord":
    return xyep.EPRecord(L=ep["L"], mode=ep["mode"], lam=_c(ep["lam"]),
                         gamma=_c(ep["gamma"]), x=_c(ep["x"]),
                         epsilon=_c(ep["epsilon"]), boundary_residual=0.0,
                         momentum_residual=0.0)


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def pairing(got, want) -> np.ndarray:
    """Index into ``want`` for each value of ``got``, nearest unused first.

    Greedy, O(n) memory: with errors far below the spacing of distinct
    values it pairs like an optimal assignment, and inside a cluster of
    (near-)equal values any pairing is as good.
    """
    _require(len(got) == len(want),
             f"{len(got)} values returned, reference has {len(want)}")
    free = np.ones(len(want), dtype=bool)
    idx = np.empty(len(got), dtype=int)
    for k, z in enumerate(got):
        d = np.where(free, np.abs(want - z), np.inf)
        idx[k] = int(np.argmin(d))
        free[idx[k]] = False
    return idx


def match_error(got, want) -> float:
    """Largest |got - want| over a one-to-one pairing of two multisets."""
    got = np.asarray(got, dtype=complex).ravel()
    want = np.asarray(want, dtype=complex).ravel()
    return float(np.abs(got - want[pairing(got, want)]).max(initial=0.0))


def nearest_error(values, pool) -> float:
    """Largest distance from any value to its nearest member of pool."""
    values = np.asarray(values, dtype=complex).ravel()
    pool = np.asarray(pool, dtype=complex).ravel()
    return float(np.abs(values[:, None] - pool[None, :]).min(axis=1).max())


def quasi_matrix(L: int, gamma: complex) -> np.ndarray:
    """M = [[A, B], [-B, -A]] of the open chain, from its definition."""
    A = np.zeros((L, L), dtype=complex)
    B = np.zeros((L, L), dtype=complex)
    j = np.arange(L - 1)
    A[j, j + 1] = A[j + 1, j] = 0.5
    B[j, j + 1] = gamma / 2
    B[j + 1, j] = -gamma / 2
    return np.block([[A, B], [-B, -A]])


def _signed(ref: dict) -> np.ndarray:
    eps = np.concatenate([_ca(ref["I"]), _ca(ref["II"])])
    return np.concatenate([eps, -eps])


def _slot_map(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Reference value for each returned slot."""
    return want[pairing(got, want)]


def _many_body_error(occupations, energies, slots_ref) -> float:
    signs = 2.0 * np.asarray(occupations, dtype=float) - 1.0
    want = 0.5 * signs @ slots_ref
    return float(np.max(np.abs(np.asarray(energies) - want)) / np.max(np.abs(want)))


# --------------------------------------------------------------------------
# spectrum sweep
# --------------------------------------------------------------------------

def run_spectrum(task, out):
    spec = xyep.ChainSpec(task["L"], _c(task["gamma"]))
    out["quasi"] = xyep.quasi_energies(spec)
    out["basis"] = xyep.assemble_basis(spec)
    if task["many_body"]:
        out["many"] = xyep.many_body_energies(spec)


def _quasi_errors(task, by_mode: dict) -> dict:
    ref = task["ref"]
    scale = max(np.abs(_ca(ref["I"])).max(), np.abs(_ca(ref["II"])).max())
    err = 0.0
    for mode in ("I", "II"):
        err = max(err, match_error(by_mode[mode], _ca(ref[mode])) / scale)
    return {"quasi": err}


def _quasi_by_mode(points) -> dict:
    return {mode: np.array([p.epsilon for p in points if p.mode == mode])
            for mode in ("I", "II")}


def check_spectrum(task, out, ctx):
    L, gamma = task["L"], _c(task["gamma"])
    errs = {}
    if "quasi" in out:
        errs.update(_quasi_errors(task, _quasi_by_mode(out["quasi"])))
    if "basis" in out:
        b = out["basis"]
        signed = _signed(task["ref"])
        errs["basis_lambda"] = match_error(b.Lambda, signed) / np.abs(signed).max()
        M = quasi_matrix(L, gamma)
        inv = float(np.abs(b.V @ b.V_inv - np.eye(2 * L)).max())
        diag = float(np.abs(M @ b.V - b.V * b.Lambda[None, :]).max() / np.abs(M).max())
        _require(inv <= TOL, f"inverse residual {inv:.3e} > {TOL:g}")
        _require(diag <= TOL, f"diagonalization residual {diag:.3e} > {TOL:g}")
    if "many" in out:
        mb = out["many"]
        slots = np.concatenate([_slot_map(mb.epsilons_I, _ca(task["ref"]["I"])),
                                _slot_map(mb.epsilons_II, _ca(task["ref"]["II"]))])
        errs["many_body"] = _many_body_error(mb.occupations, mb.energies, slots)
    return errs


def run_cli_spectrum(task, out):
    g = _c(task["gamma"])
    out["exit"] = xyep.cli.main([
        "spectrum", "--L", str(task["L"]), f"--gamma={g.real:.17g}{g.imag:+.17g}i",
        "--format", "json", "--out", task["out_path"]])


def check_cli_spectrum(task, out, ctx):
    _require(out["exit"] == 0, f"cli exited with {out['exit']}")
    with open(task["out_path"], encoding="utf-8") as fh:
        doc = json.load(fh)
    os.remove(task["out_path"])
    quasi = doc["quasi"]
    by_mode = {mode: np.array([_c(q["epsilon"]) for q in quasi if q["mode"] == mode])
               for mode in ("I", "II")}
    errs = _quasi_errors(task, by_mode)
    slots = np.concatenate([_slot_map(by_mode[m], _ca(task["ref"][m]))
                            for m in ("I", "II")])
    rows = doc["many_body"]
    _require(len(rows) == 2 ** task["L"], f"{len(rows)} many-body rows")
    occ = np.frombuffer("".join(r["occupation"] for r in rows).encode(),
                        dtype=np.uint8).reshape(len(rows), -1) - ord("0")
    energies = _ca([r["energy"] for r in rows])
    errs["many_body"] = _many_body_error(occ, energies, slots)
    return errs


# --------------------------------------------------------------------------
# ep-census
# --------------------------------------------------------------------------

def run_locate(task, out):
    out["eps"] = xyep.locate_eps(task["L"], "both")


def check_locate(task, out, ctx):
    L, records, ref = task["L"], out["eps"], task["ref"]
    _require(len(records) == 2 * (L - 2),
             f"{len(records)} EPs found, expected {2 * (L - 2)}")
    err_g = err_x = 0.0
    for mode in ("I", "II"):
        got = [r for r in records if r.mode == mode]
        want = [p for p in ref if p["mode"] == mode]
        _require(len(got) == len(want), f"mode {mode}: {len(got)} EPs")
        g_got = np.array([rec.gamma for rec in got])
        g_ref = _ca([p["gamma"] for p in want])
        for r, c in zip(got, pairing(g_got, g_ref)):
            err_g = max(err_g, abs(r.gamma - g_ref[c]) / abs(g_ref[c]))
            x_ref = _c(want[c]["x"])
            err_x = max(err_x, abs(r.x - x_ref) / max(1.0, abs(x_ref)))
    return {"ep_gamma": err_g, "ep_x": err_x}


def run_jordan(task, out):
    ep = _ep_record(task["ep"])
    out["jordan"] = xyep.jordan_decomposition(xyep.ChainSpec(ep.L, ep.gamma), ep)


def check_jordan(task, out, ctx):
    jd, ep = out["jordan"], task["ep"]
    L, p = ep["L"], out["jordan"].chain_start
    M = quasi_matrix(L, _c(ep["gamma"]))
    res = float(np.linalg.norm(M @ jd.V - jd.V @ jd.J) / np.linalg.norm(M))
    inv = float(np.abs(jd.V @ jd.V_inv - np.eye(2 * L)).max())
    _require(res <= TOL, f"Jordan residual {res:.3e} > {TOL:g}")
    _require(inv <= TOL, f"inverse residual {inv:.3e} > {TOL:g}")
    off = jd.J - np.diag(np.diag(jd.J))
    _require(off[p, p + 1] == 1 and off[p + 2, p + 3] == 1
             and np.count_nonzero(off) == 2, "J is not two 2x2 Jordan blocks")
    _require(jd.rank_deficiency_plus == 1 and jd.rank_deficiency_minus == 1,
             "defective eigenvalues do not have one eigenvector each")
    signed = _signed(task["ref"])
    return {"jordan_diag": match_error(np.diag(jd.J), signed) / np.abs(signed).max()}


def run_catalog(task, out):
    ep = _ep_record(task["ep"])
    out["catalog"] = xyep.ep_state_catalog(xyep.ChainSpec(ep.L, ep.gamma), ep)


def check_catalog(task, out, ctx):
    cat, L = out["catalog"], task["ep"]["L"]
    _require(cat.count == 3 * 2 ** (L - 2), f"{cat.count} states")
    _require(cat.total_algebraic == 2 ** L, f"algebraic total {cat.total_algebraic}")
    energies = np.repeat([e.energy for e in cat.entries],
                         [e.algebraic for e in cat.entries])
    want = _ca(task["ref"])
    return {"catalog": match_error(energies, want) / np.abs(want).max()}


def run_probe(task, out):
    out["fit"] = xyep.branch_scaling_probe(_ep_record(task["ep"]))


def check_probe(task, out, ctx):
    a = out["fit"].exponent
    _require(abs(a - 0.5) < EXPONENT_TOL, f"splitting exponent {a:.4f}")
    return {}


# --------------------------------------------------------------------------
# loops, rigidity grid and ED oracle
# --------------------------------------------------------------------------

def run_loop(task, out):
    out["loop"] = xyep.track_loop(task["L"], _c(task["center"]), task["radius"],
                                  steps=task["steps"])


def check_loop(task, out, ctx):
    r, n = out["loop"], task["L"] // 2
    perm = r.permutation
    moved = [k for k, q in enumerate(perm) if q != k]
    mode = task["ref"]["enclosed_mode"]
    _require(r.closed, f"loop did not close (defect {r.closure_defect:.2e})")
    _require(not any(r.sign_flips), "a label returned to its partner's negative")
    if mode is None:
        _require(not moved, f"EP-free loop permuted labels {perm}")
    else:
        block = range(0, n) if mode == "I" else range(n, 2 * n)
        _require(len(moved) == 2 and all(perm[perm[k]] == k for k in moved)
                 and all(k in block for k in moved),
                 f"loop around a mode {mode} EP gave {perm}, "
                 "not one transposition in that mode")
    return {}


def run_grid(task, out):
    re0, re1, im0, im1 = task["rect"]
    n = task["n"]
    out["grid"] = xyep.overlap_grid(task["L"], re0, re1, im0, im1, n, n,
                                    threads=task["threads"])


def check_grid(task, out, ctx):
    g, n = out["grid"], task["n"]
    mid = n // 2
    ra, rb = np.abs(g.overlap_a), np.abs(g.overlap_b)
    _require(max(ra[mid, mid], rb[mid, mid]) < RIGIDITY_AT_EP,
             f"rigidity at the EP is {max(ra[mid, mid], rb[mid, mid]):.2e}")
    away = np.ones((n, n), dtype=bool)
    away[mid, mid] = False
    low = float(min(ra[away].min(), rb[away].min()))
    _require(low > RIGIDITY_AWAY, f"rigidity {low:.2e} away from the EP")
    # energies by reference many-body spectra, outside two cells of the EP
    # where dense eigenvalues of a near-defective matrix lose half their digits
    ep = _c(task["ref"]["ep_gamma"])
    spacing = g.re_vals[1] - g.re_vals[0]
    err = 0.0
    for k, cell in enumerate(task["ref"]["cells"]):
        i, j = divmod(k, n)
        if abs(complex(g.re_vals[i], g.im_vals[j]) - ep) < 2 * spacing:
            continue
        want = _ca(cell)
        got = [g.energy_a[i, j], g.energy_b[i, j]]
        err = max(err, nearest_error(got, want) / np.abs(want).max())
    arrays = (g.overlap_a, g.overlap_b, g.energy_a, g.energy_b, g.parity)
    key = ("grid", tuple(task["rect"]))
    first = ctx.setdefault(key, arrays)
    _require(all(np.array_equal(a, b, equal_nan=True) for a, b in zip(first, arrays)),
             "thread count changed the computed grid")
    return {"grid_energy": err}


def run_ed_compare(task, out):
    L, g = task["L"], _c(task["gamma"])
    mb = xyep.many_body_energies(xyep.ChainSpec(L, g))
    ed = xyep.ed_eigen(xyep.build_spin_hamiltonian(L, g), want_vectors=False)
    out["many"], out["ed"] = mb, ed
    out["match"] = xyep.match_spectra(mb.energies, ed.values)


def check_ed_compare(task, out, ctx):
    want = _ca(task["ref"])
    scale = np.abs(want).max()
    dev = out["match"].max_abs_diff / scale
    _require(dev <= TOL, f"match_spectra reports {dev:.3e} > {TOL:g}")
    return {"many_body": match_error(out["many"].energies, want) / scale,
            "ed": match_error(out["ed"].values, want) / scale}


RUNNERS = {
    "spectrum": run_spectrum,
    "cli_spectrum": run_cli_spectrum,
    "locate": run_locate,
    "jordan": run_jordan,
    "catalog": run_catalog,
    "probe": run_probe,
    "loop": run_loop,
    "grid": run_grid,
    "ed_compare": run_ed_compare,
}

CHECKS = {
    "spectrum": check_spectrum,
    "cli_spectrum": check_cli_spectrum,
    "locate": check_locate,
    "jordan": check_jordan,
    "catalog": check_catalog,
    "probe": check_probe,
    "loop": check_loop,
    "grid": check_grid,
    "ed_compare": check_ed_compare,
}
