"""Parameter-space topology: rigidity maps, monodromy loops, branch scaling.

The quantities here probe how eigenstates move when the anisotropy is
varied in the complex plane: the bilinear self-overlap of a tracked
many-body state (which vanishes at an exceptional point), the
permutation of quasi-energy labels around closed loops, and the
square-root scaling of the level splitting near a defective parameter.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import MODES, ChainSpec, mode_points
from .ep import EPRecord, coalescing_pair, locate_eps
from .errors import (
    AmbiguousContinuation,
    DegenerateInput,
    SizeLimit,
    ZeroVector,
)
from .oracle import build_spin_hamiltonian, ed_eigen, parity_sectors

__all__ = [
    "OverlapGrid",
    "SheetStitch",
    "LoopResult",
    "ScalingFit",
    "phase_rigidity",
    "overlap_grid",
    "sheet_stitch",
    "track_loop",
    "branch_scaling_probe",
]

POLE_RADIUS = 1e-2
_GRID_SIZE_LIMIT = 8


def phase_rigidity(v: np.ndarray) -> complex:
    """Bilinear self-overlap (v.v) / (v*.v) of a state vector.

    Equals 1 for any real vector, 0 for a bilinearly self-orthogonal
    one such as a coalescing eigenvector.  The magnitude is gauge
    independent; the phase rotates with the gauge of v.
    """
    v = np.asarray(v, dtype=complex).ravel()
    d = np.vdot(v, v).real
    if d < 1e-300:
        raise ZeroVector("phase rigidity of the zero vector is undefined")
    return complex((v @ v) / d)


def _nearest_pair(values: np.ndarray, ea: complex,
                  eb: complex) -> tuple[int, int]:
    """Distinct indices (i, j) minimizing |values[i] - ea| + |values[j] - eb|."""
    cost = np.abs(values - ea)[:, None] + np.abs(values - eb)[None, :]
    np.fill_diagonal(cost, np.inf)
    i, j = np.unravel_index(np.argmin(cost), cost.shape)
    return int(i), int(j)


@dataclass(frozen=True)
class OverlapGrid:
    """Tracked-pair overlap data over a rectangle of anisotropies.

    ``overlap_a[i, j]`` is the complex self-overlap of the first
    tracked state at gamma = re_vals[i] + 1j * im_vals[j]; cells inside
    ``pole_mask`` sit within the excluded discs around gamma = +-1 and
    hold NaN.  ``parity`` records which tracked state currently sorts
    first, whose sign changes delineate the branch-cut seam.
    """

    L: int
    re_vals: np.ndarray
    im_vals: np.ndarray
    overlap_a: np.ndarray
    overlap_b: np.ndarray
    energy_a: np.ndarray
    energy_b: np.ndarray
    parity: np.ndarray
    pole_mask: np.ndarray
    ep_gamma: complex
    occupation_a: tuple[int, ...]
    occupation_b: tuple[int, ...]


def _default_selector(L: int, center: complex):
    """Occupation patterns of a pair that merges at the EP nearest center.

    All slots sit at their minus sign except the two coalescing
    branches of the degenerate mode, which carry (1,0) and (0,1).
    Returns (ep_record, pattern_a, pattern_b); patterns index the L
    slots as mode I branches then mode II branches.
    """
    eps = locate_eps(L, "both")
    if not eps:
        raise DegenerateInput(f"no exceptional points exist at L = {L}")
    ep = min(eps, key=lambda r: abs(r.gamma - center))
    n = L // 2
    a = [0] * L
    b = [0] * L
    offset = 0 if ep.mode == "I" else n
    # the coalescing pair is identified per cell as the two closest
    # branches of the degenerate mode; here slots 0 and 1 of that mode
    a[offset], b[offset + 1] = 1, 1
    return ep, tuple(a), tuple(b)


def _pair_energies_at(spec: ChainSpec, ep: EPRecord,
                      pattern_a, pattern_b) -> tuple[complex, complex]:
    """Analytic energies of the two tracked patterns at one anisotropy.

    Slots of the degenerate mode start with the two branches closest to
    coalescing (:func:`xyep.ep.coalescing_pair`); the remaining slots
    of both modes keep branch order.  This pins the tracked pair near
    the EP without reference to any previous cell.
    """
    out = []
    for mode in MODES:
        points = mode_points(spec, mode)
        if mode == ep.mode:
            pair, rest = coalescing_pair(points, ep)
            points = pair + rest
        out.extend(p.epsilon for p in points)
    eps_arr = np.array(out)

    def energy(pattern):
        signs = 2 * np.array(pattern) - 1
        return complex(0.5 * signs @ eps_arr)

    return energy(pattern_a), energy(pattern_b)


def _shared_sector(L: int, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """The parity sector holding the support of both state vectors."""
    even, odd = parity_sectors(L)
    for sector, other in ((even, odd), (odd, even)):
        if not np.any(va[other]) and not np.any(vb[other]):
            return sector
    raise DegenerateInput("the tracked pair does not lie in one parity sector")


def overlap_grid(L: int, re_min: float, re_max: float, im_min: float,
                 im_max: float, n_re: int, n_im: int,
                 selector=None, threads: int = 1) -> OverlapGrid:
    """Track a merging pair of eigenstates over a rectangle of gamma.

    The pair is anchored analytically at the grid cell nearest the
    selected EP, where the occupation patterns identify it without
    ambiguity, and continued outward by continuity: along the anchor
    row across columns, then column by column away from the anchor
    row.  (Seeding at a far corner instead can latch onto branches
    that never merge, because the pattern labels rely on orderings
    that are only locally stable around the EP.)  The tracked vectors
    are phase-aligned along each path so the complex overlap varies
    continuously away from the seam.  Cells within 1e-2 of
    gamma = +-1 are masked as poles.

    The Hamiltonian conserves the parity of the number of down spins,
    so the anchor pair's support fixes one 2^(L-1) parity sector and
    every other cell is diagonalized in that sector alone; a pair whose
    two states lie in different sectors raises :class:`DegenerateInput`.
    Columns run on ``threads`` worker threads; the count never changes
    the values.
    """
    if L > _GRID_SIZE_LIMIT:
        raise SizeLimit(f"overlap grids are capped at L = {_GRID_SIZE_LIMIT}")
    if n_re < 2 or n_im < 2:
        raise DegenerateInput("grid needs at least 2 points per axis")
    if threads < 1:
        raise DegenerateInput(f"threads must be at least 1, got {threads}")
    re_vals = np.linspace(re_min, re_max, n_re)
    im_vals = np.linspace(im_min, im_max, n_im)
    center = complex((re_min + re_max) / 2, (im_min + im_max) / 2)
    if selector is None:
        ep, pat_a, pat_b = _default_selector(L, center)
    else:
        ep, pat_a, pat_b = selector

    shape = (n_re, n_im)
    overlap_a = np.full(shape, np.nan, dtype=complex)
    overlap_b = np.full(shape, np.nan, dtype=complex)
    energy_a = np.full(shape, np.nan, dtype=complex)
    energy_b = np.full(shape, np.nan, dtype=complex)
    parity = np.zeros(shape, dtype=np.int8)
    pole_mask = np.zeros(shape, dtype=bool)

    def is_pole(g: complex) -> bool:
        return abs(g - 1) < POLE_RADIUS or abs(g + 1) < POLE_RADIUS

    def eig_cell(g: complex, sector: np.ndarray | None):
        H = build_spin_hamiltonian(L, g)
        if sector is not None:
            H = H[np.ix_(sector, sector)]
        return ed_eigen(H, want_vectors=True)

    def seed_pair(g: complex, sector: np.ndarray | None):
        spec = ChainSpec(L, g)
        ea, eb = _pair_energies_at(spec, ep, pat_a, pat_b)
        res = eig_cell(g, sector)
        ia, ib = _nearest_pair(res.values, ea, eb)
        return ((res.values[ia], res.vectors[:, ia].copy()),
                (res.values[ib], res.vectors[:, ib].copy()))

    def advance(prev, res):
        """Match the tracked pair into the next cell's eigensystem."""
        (ea, va), (eb, vb) = prev
        out = []
        cols = _nearest_pair(res.values, ea, eb)
        for tracked_vec, col in zip((va, vb), cols):
            v = res.vectors[:, col].copy()
            ip = np.vdot(tracked_vec, v)
            if abs(ip) > 0:
                v *= np.conj(ip) / abs(ip)
            out.append((res.values[col], v))
        return tuple(out)

    # anchor cell: non-pole cell nearest the EP, preferring one at least
    # half a cell diagonal away so its eigenvectors are not defective
    dre = re_vals[1] - re_vals[0] if n_re > 1 else 0.0
    dim = im_vals[1] - im_vals[0] if n_im > 1 else 0.0
    half_diag = 0.5 * float(np.hypot(dre, dim))
    candidates = [(i, j) for i in range(n_re) for j in range(n_im)
                  if not is_pole(complex(re_vals[i], im_vals[j]))]
    if not candidates:
        raise DegenerateInput("every grid cell sits inside a pole disc")

    def ep_dist(cell):
        return abs(complex(re_vals[cell[0]], im_vals[cell[1]]) - ep.gamma)

    offset = [c for c in candidates if ep_dist(c) >= half_diag]
    anchor_i, anchor_j = min(offset or candidates, key=ep_dist)

    # anchor: seed over the full space, read off the pair's sector and
    # keep only that sector's components
    (ea0, va0), (eb0, vb0) = seed_pair(
        complex(re_vals[anchor_i], im_vals[anchor_j]), None)
    sector = _shared_sector(L, va0, vb0)

    # anchor row: continuity-track left and right of the anchor
    row_pairs: list = [None] * n_re
    row_pairs[anchor_i] = ((ea0, va0[sector]), (eb0, vb0[sector]))
    for step in (1, -1):
        prev = row_pairs[anchor_i]
        i = anchor_i + step
        while 0 <= i < n_re:
            g = complex(re_vals[i], im_vals[anchor_j])
            if not is_pole(g):
                prev = advance(prev, eig_cell(g, sector))
                row_pairs[i] = prev
            i += step

    def run_column(i: int):
        """Track column i, writing only row i of the result arrays."""

        def record(j, cur):
            (ea, va), (eb, vb) = cur
            energy_a[i, j], energy_b[i, j] = ea, eb
            overlap_a[i, j] = phase_rigidity(va)
            overlap_b[i, j] = phase_rigidity(vb)
            key_a, key_b = (ea.real, ea.imag), (eb.real, eb.imag)
            parity[i, j] = 0 if key_a <= key_b else 1

        start = row_pairs[i]
        if start is None:
            # anchor row blocked by a pole disc; seed at the nearest
            # usable cell of this column instead
            usable = [j for j in range(n_im)
                      if not is_pole(complex(re_vals[i], im_vals[j]))]
            for j in range(n_im):
                pole_mask[i, j] = j not in usable
            if not usable:
                return
            j0 = min(usable, key=lambda j: abs(j - anchor_j))
            start = seed_pair(complex(re_vals[i], im_vals[j0]), sector)
        else:
            j0 = anchor_j
        record(j0, start)
        for step in (1, -1):
            prev = start
            j = j0 + step
            while 0 <= j < n_im:
                g = complex(re_vals[i], im_vals[j])
                if is_pole(g):
                    pole_mask[i, j] = True
                else:
                    prev = advance(prev, eig_cell(g, sector))
                    record(j, prev)
                j += step

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run_column, range(n_re)))

    return OverlapGrid(L=L, re_vals=re_vals, im_vals=im_vals,
                       overlap_a=overlap_a, overlap_b=overlap_b,
                       energy_a=energy_a, energy_b=energy_b,
                       parity=parity, pole_mask=pole_mask,
                       ep_gamma=ep.gamma,
                       occupation_a=pat_a, occupation_b=pat_b)


@dataclass(frozen=True)
class SheetStitch:
    """Two overlap sheets plus the seam where their labels exchange."""

    sheet_a: np.ndarray
    sheet_b: np.ndarray
    seam_points: list[complex]
    ep_gamma: complex
    cell_diag: float


def sheet_stitch(grid: OverlapGrid) -> SheetStitch:
    """Locate the branch-cut seam as midpoints of parity flips.

    The seam is reported as a polyline of cell-boundary midpoints
    ordered by imaginary part; on a grid straddling an exceptional
    point it terminates at (within one cell of) the EP.
    """
    seam = []
    n_re, n_im = grid.parity.shape
    dre = grid.re_vals[1] - grid.re_vals[0] if n_re > 1 else 0.0
    dim = grid.im_vals[1] - grid.im_vals[0] if n_im > 1 else 0.0
    for i in range(n_re - 1):
        for j in range(n_im):
            if grid.pole_mask[i, j] or grid.pole_mask[i + 1, j]:
                continue
            if grid.parity[i, j] != grid.parity[i + 1, j]:
                seam.append(complex((grid.re_vals[i] + grid.re_vals[i + 1]) / 2,
                                    grid.im_vals[j]))
    for i in range(n_re):
        for j in range(n_im - 1):
            if grid.pole_mask[i, j] or grid.pole_mask[i, j + 1]:
                continue
            if grid.parity[i, j] != grid.parity[i, j + 1]:
                seam.append(complex(grid.re_vals[i],
                                    (grid.im_vals[j] + grid.im_vals[j + 1]) / 2))
    seam.sort(key=lambda z: (z.imag, z.real))
    return SheetStitch(sheet_a=grid.overlap_a, sheet_b=grid.overlap_b,
                       seam_points=seam, ep_gamma=grid.ep_gamma,
                       cell_diag=float(np.hypot(dre, dim)))


# ---------------------------------------------------------------------------
# monodromy loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopResult:
    """Permutation of quasi-energy labels after one closed parameter loop."""

    L: int
    center: complex
    radius: float
    steps: int
    refinements: int
    permutation: list[int]
    sign_flips: list[bool]
    closed: bool
    closure_defect: float

    def as_jsonable(self) -> dict:
        return {
            "L": self.L,
            "center": [self.center.real, self.center.imag],
            "radius": self.radius,
            "steps": self.steps,
            "refinements": self.refinements,
            "permutation": self.permutation,
            "sign_flips": [bool(f) for f in self.sign_flips],
            "closed": self.closed,
        }


def _signed_values(L: int, g: complex) -> np.ndarray:
    """All 2L signed quasi-energies at one anisotropy, +eps then -eps per label."""
    spec = ChainSpec(L, g)
    return np.array([e for mode in MODES for p in mode_points(spec, mode)
                     for e in (p.epsilon, -p.epsilon)])


class _RefinementBudget:
    def __init__(self, per_step: int):
        self.per_step = per_step
        self.total = 0


def _continue_values(L: int, prev: np.ndarray, g0: complex, g1: complex,
                     depth: int, budget: _RefinementBudget) -> np.ndarray:
    cand = _signed_values(L, g1)
    cost = np.abs(prev[:, None] - cand[None, :])
    pick = np.argmin(cost, axis=1)
    srt = np.sort(cost, axis=1)
    # every label strictly nearest to a distinct candidate: that choice is
    # the unique optimal assignment, so it is accepted as it stands
    ambiguous = (np.any((srt[:, 1] == 0) | (srt[:, 0] > 0.5 * srt[:, 1]))
                 or np.unique(pick).size < pick.size)
    if not ambiguous:
        return cand[pick]
    if depth >= budget.per_step:
        raise AmbiguousContinuation(
            f"branch matching stayed ambiguous after {depth} bisections "
            f"between gamma = {g0:.6g} and {g1:.6g}")
    budget.total += 1
    mid = (g0 + g1) / 2
    half = _continue_values(L, prev, g0, mid, depth + 1, budget)
    return _continue_values(L, half, mid, g1, depth + 1, budget)


def track_loop(L: int, center: complex, radius: float, steps: int = 256,
               max_refinements: int = 12, orientation: int = 1) -> LoopResult:
    """Drag all quasi-energy branches around a circle and read the permutation.

    Each branch is continued to its nearest candidate value.  A step is
    bisected when some branch's best and second-best candidate distances
    differ by less than a factor of two, or when two branches pick the
    same candidate; after ``max_refinements`` levels of bisection
    :class:`AmbiguousContinuation` is raised.  The returned
    permutation acts on the L positive-branch labels as
    :func:`xyep.chain.quasi_energies` numbers them at the loop's start
    point (mode I branches 1..L/2 are labels 0..L/2-1, then mode II);
    ``sign_flips[k]`` reports a label returning to its partner's
    negative.  ``orientation`` +1 traverses counterclockwise,
    -1 clockwise; reversing it inverts the permutation.
    """
    if steps < 8:
        raise DegenerateInput("a loop needs at least 8 steps")
    if orientation not in (1, -1):
        raise DegenerateInput("orientation must be +1 or -1")
    center = complex(center)
    gammas = [center + radius * np.exp(orientation * 2j * np.pi * t / steps)
              for t in range(steps)]
    gammas.append(gammas[0])

    start = _signed_values(L, gammas[0])
    budget = _RefinementBudget(max_refinements)
    vals = start.copy()
    for t in range(steps):
        vals = _continue_values(L, vals, gammas[t], gammas[t + 1], 0, budget)

    # the last step lands on gammas[0] itself, so vals is an exact
    # reordering of start and each value finds its own copy
    perm2 = np.argmin(np.abs(vals[:, None] - start[None, :]), axis=1)
    defect = float(np.max(np.abs(vals - start[perm2])))
    closed = defect <= 1e-8 * (1 + float(np.max(np.abs(start))))

    n_labels = L
    permutation = []
    sign_flips = []
    for q in range(n_labels):
        target = int(perm2[2 * q])
        permutation.append(target // 2)
        sign_flips.append(target % 2 == 1)
    return LoopResult(L=L, center=center, radius=float(radius), steps=steps,
                      refinements=budget.total, permutation=permutation,
                      sign_flips=sign_flips, closed=closed,
                      closure_defect=defect)


# ---------------------------------------------------------------------------
# splitting exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log-splitting against log-distance."""

    ep_gamma: complex
    exponent: float
    prefactor: float
    radii: np.ndarray
    splittings: np.ndarray
    fit_residual: float


def branch_scaling_probe(ep: EPRecord, radii: np.ndarray | None = None,
                         direction: complex = 1.0 + 0.0j) -> ScalingFit:
    """Measure the splitting exponent of the coalescing pair near an EP.

    Evaluates the two nearest boundary roots at gamma = gamma_EP +
    r * direction for a decade ladder of radii and fits
    log|eps1 - eps2| = alpha log r + const; alpha -> 1/2 at a plain
    square-root branch point.
    """
    if radii is None:
        radii = np.geomspace(1e-4, 1e-7, 8)
    direction = complex(direction)
    if direction == 0:
        raise DegenerateInput("direction must be nonzero")
    direction /= abs(direction)
    splittings = []
    for r in radii:
        g = ep.gamma + r * direction
        points = mode_points(ChainSpec(ep.L, g), ep.mode)
        (p1, p2), _ = coalescing_pair(points, ep)
        splittings.append(abs(p1.epsilon - p2.epsilon))
    splittings = np.array(splittings)
    if np.any(splittings == 0):
        raise DegenerateInput("splitting vanished at a probe radius")
    lx, ly = np.log(np.asarray(radii, dtype=float)), np.log(splittings)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return ScalingFit(ep_gamma=ep.gamma, exponent=float(slope),
                      prefactor=float(np.exp(intercept)), radii=radii,
                      splittings=splittings, fit_residual=resid)
