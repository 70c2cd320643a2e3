"""Parameter-space topology: rigidity maps, monodromy loops, branch scaling.

The quantities here probe how eigenstates move when the anisotropy is
varied in the complex plane: the bilinear self-overlap of a many-body
state (which vanishes at an exceptional point), the permutation of each
mode's boundary roots, and so of quasi-energy labels, around closed
loops, and the square-root scaling of the level splitting near a
defective parameter.  Everything is computed from the closed-form mode
data; the spin space serves only as an oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import column_from_halves
from .chain import MODES, check_length, mode_arrays, mode_spectra
from .ep import EPRecord, coalescing_order, locate_eps
from .errors import (
    AmbiguousContinuation,
    DegenerateInput,
    SizeLimit,
    as_int,
    as_number,
)

__all__ = [
    "OverlapGrid",
    "LoopResult",
    "ScalingFit",
    "overlap_grid",
    "track_loop",
    "branch_scaling_probe",
]

POLE_RADIUS = 1e-2
_GRID_SIZE_LIMIT = 8
_GRID_CELL_LIMIT = 2 ** 20      # overlap_grid cells, n_re * n_im
_LOOP_VALUE_LIMIT = 2 ** 21     # track_loop values, loop points * L
# overlap_grid cells and track_loop steps are stacked in chunks of at
# most this many entries: 4 L^2 matrix entries per grid cell, 2 (L/2)^2
# root distances per loop step
_CHUNK_ENTRIES = 2 ** 18
# track_loop: levels of bisection allowed within one loop step
_MAX_REFINEMENTS = 12


@dataclass(frozen=True)
class OverlapGrid:
    """Rigidity and energy of a merging pair over a rectangle of anisotropies.

    ``overlap_a[i, j]`` is the self-overlap magnitude |v.v| / (v*.v) of
    the state of pattern ``occupation_a`` at gamma = re_vals[i] +
    1j * im_vals[j] (real: the phase of v.v is a gauge choice), and
    ``energy_a`` its energy; likewise for b.  The labels are read per
    cell, so ``parity``, which records whether the b energy sorts first,
    changes sign across the branch-cut seam, one ray ending at the EP.
    Cells inside ``pole_mask`` sit within the excluded discs around
    gamma = +-1 and hold NaN.
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


def _slot_columns(L: int, ep: EPRecord, gammas: np.ndarray, eps: np.ndarray,
                  x: np.ndarray):
    """Quasi-energies and +eps / -eps columns of V for all L slots, per cell.

    ``eps`` and ``x`` are the (m, 2, L/2) rows of
    :func:`xyep.chain.mode_spectra` for both modes at the m anisotropies
    ``gammas``: each mode's branches in branch order, mode I first.
    Slots of the EP's mode start with its coalescing pair
    (:func:`xyep.ep.coalescing_order`, nearest first); every other slot
    keeps branch order, mode I before mode II.  Returns the (m, L) slot
    quasi-energies and two (m, 2L, L) column stacks, from one stacked
    :func:`xyep.chain.mode_arrays` call per mode.  Columns are left
    unnormalized: only their span is used, so the bilinearly null
    column at an exact EP needs no special case.
    """
    slot_eps, phis, psis = [], [], []
    for k, mode in enumerate(MODES):
        mode_eps, mode_x = eps[:, k], x[:, k]
        if mode == ep.mode:
            order = coalescing_order(mode_x, ep)
            mode_eps = np.take_along_axis(mode_eps, order, -1)
            mode_x = np.take_along_axis(mode_x, order, -1)
        phi, psi, _ = mode_arrays(L, gammas, mode, mode_eps, mode_x)
        slot_eps.append(mode_eps)
        phis.append(phi[:, 0])
        psis.append(psi[:, 0])
    phis, psis = np.concatenate(phis, -1), np.concatenate(psis, -1)
    return (np.concatenate(slot_eps, -1), column_from_halves(phis, psis),
            column_from_halves(-phis, psis))


def _annihilator_span(plus: np.ndarray, minus: np.ndarray,
                      pattern) -> np.ndarray:
    """Orthonormal bases of the columns annihilating a pattern's state.

    That is the +eps column of every empty slot and the -eps column of
    every filled one; one stacked QR for all cells.
    """
    return np.linalg.qr(np.where(np.array(pattern, dtype=bool), minus, plus))[0]


def _fermion_parity(q: np.ndarray) -> np.ndarray:
    """Fermion parity (+-1) of the states annihilated by the spans of q.

    Rows of each q are the c_j then c_j^+ coefficients, and the columns
    anticommute, so with G swapping the two halves [q, G conj(q)] is
    orthogonal under G; its determinant is +-1, with the sign of the
    state's parity relative to the vacuum of all c_j.
    """
    swapped = np.roll(q, q.shape[-1], axis=-2)
    t = np.concatenate([q, np.conj(swapped)], axis=-1)
    return np.where(np.linalg.det(t).real > 0, 1, -1)


def overlap_grid(L: int, re_min: float, re_max: float, im_min: float,
                 im_max: float, n_re: int, n_im: int,
                 threads: int = 1) -> OverlapGrid:
    """Rigidity and energy of a merging pair of eigenstates over a rectangle.

    One :func:`xyep.chain.mode_spectra` call solves all usable cells,
    both modes; the cells then go through stacked chunks of at most
    ``_CHUNK_ENTRIES`` = 2^18 matrix entries (one
    :func:`xyep.chain.mode_arrays` call per mode, stacked QR and
    determinants).  Each cell is computed from its own slice of every
    stack, so no value depends on the chunking or on other cells.  A
    state's self-overlap |v.v| / (v*.v) is sqrt|det(Q^T Q)|, Q an
    orthonormal basis of its annihilators.  Slot signs follow the
    principal branch (Re eps >= 0); where that puts a cell's pair in the
    other parity sector, the slot nearest the cut (smallest |Re eps|)
    takes the other sign, and those cells are solved again as one
    sub-stack.  The pair merges at the EP nearest the rectangle's
    centre.  The EP mode's slots start with its coalescing pair, nearest
    the EP root first; pattern a fills the first of them, pattern b the
    second, and no other slot, so the pair's energies exchange across a
    seam that is one ray ending at the EP; ``parity`` orders the pair by
    Re energy, and by Im where the real parts tie to rounding.  Both
    states lie in one parity sector of the spin space; the sector is
    read once, at the usable cell nearest the EP, and kept in every
    cell.  Cells within 1e-2 of gamma = +-1 are masked as poles.
    ``threads`` must be an integer of at least 1 and has no other
    effect.  Grids longer than L = 8 or with more than
    ``_GRID_CELL_LIMIT`` = 2^20 cells raise :class:`SizeLimit` before
    any array is built.
    """
    L, n_re, n_im = check_length(L), as_int(n_re, "n_re"), as_int(n_im, "n_im")
    if L > _GRID_SIZE_LIMIT:
        raise SizeLimit(f"overlap grids are capped at L = {_GRID_SIZE_LIMIT}")
    if n_re < 2 or n_im < 2:
        raise DegenerateInput("grid needs at least 2 points per axis")
    if n_re * n_im > _GRID_CELL_LIMIT:
        raise SizeLimit(f"overlap grids are capped at {_GRID_CELL_LIMIT} cells, "
                        f"got {n_re} x {n_im}")
    edges = [as_number(e, "grid edge", real=True)
             for e in (re_min, re_max, im_min, im_max)]
    if not np.isfinite(edges).all():
        raise DegenerateInput("grid edges must be finite")
    threads = as_int(threads, "threads")
    if threads < 1:
        raise DegenerateInput(f"threads must be at least 1, got {threads}")
    re_vals = np.linspace(re_min, re_max, n_re)
    im_vals = np.linspace(im_min, im_max, n_im)
    center = complex((re_min + re_max) / 2, (im_min + im_max) / 2)
    ep, pat_a, pat_b = _default_selector(L, center)

    gammas = re_vals[:, None] + 1j * im_vals[None, :]
    pole_mask = ((np.abs(gammas - 1) < POLE_RADIUS)
                 | (np.abs(gammas + 1) < POLE_RADIUS))
    usable = ~pole_mask
    if not usable.any():
        raise DegenerateInput("every grid cell sits inside a pole disc")
    cell_gammas = gammas[usable]
    eps, x = mode_spectra(L, cell_gammas, "both")

    nearest = int(np.argmin(np.abs(cell_gammas - ep.gamma)))
    near = slice(nearest, nearest + 1)
    _, plus, minus = _slot_columns(L, ep, cell_gammas[near], eps[near], x[near])
    sector = _fermion_parity(_annihilator_span(plus, minus, pat_a))[0]

    # rows: pattern a, then pattern b; cells in row-major order, poles NaN
    cell_index = np.flatnonzero(usable)
    overlap = np.full((2, n_re * n_im), np.nan)
    energy = np.full((2, n_re * n_im), np.nan, dtype=complex)
    chunk = max(1, _CHUNK_ENTRIES // (4 * L * L))
    for lo in range(0, cell_gammas.size, chunk):
        cells = slice(lo, lo + chunk)
        at = cell_index[cells]
        slot_eps, plus, minus = _slot_columns(L, ep, cell_gammas[cells],
                                              eps[cells], x[cells])
        q_a = _annihilator_span(plus, minus, pat_a)
        flip = np.flatnonzero(_fermion_parity(q_a) != sector)
        if flip.size:
            k = np.argmin(np.abs(slot_eps[flip].real), axis=-1)
            slot_eps[flip, k] = -slot_eps[flip, k]
            plus[flip, :, k], minus[flip, :, k] = \
                minus[flip, :, k], plus[flip, :, k]
            q_a[flip] = _annihilator_span(plus[flip], minus[flip], pat_a)
        q_b = _annihilator_span(plus, minus, pat_b)
        for row, (pattern, q) in enumerate(((pat_a, q_a), (pat_b, q_b))):
            gram = np.swapaxes(q, -1, -2) @ q
            overlap[row, at] = np.sqrt(np.abs(np.linalg.det(gram)))
            signs = np.where(np.array(pattern, dtype=bool), 0.5, -0.5)
            energy[row, at] = np.sum(signs * slot_eps, axis=-1)
    overlap_a, overlap_b = overlap.reshape(2, n_re, n_im)
    energy_a, energy_b = energy.reshape(2, n_re, n_im)
    # 1 where the b energy sorts first by (Re, Im); real parts within 16
    # eps of the energies' size tie and are ordered by Im, so rounding
    # cannot flip the label where they are equal in exact arithmetic.
    # Pole cells hold NaN, which compares false: parity 0 there.
    tol = 16 * np.finfo(float).eps * np.maximum(abs(energy_a), abs(energy_b))
    parity = np.where(abs(energy_a.real - energy_b.real) <= tol,
                      energy_a.imag > energy_b.imag,
                      energy_a.real > energy_b.real).astype(np.int8)

    return OverlapGrid(L=L, re_vals=re_vals, im_vals=im_vals,
                       overlap_a=overlap_a, overlap_b=overlap_b,
                       energy_a=energy_a, energy_b=energy_b,
                       parity=parity, pole_mask=pole_mask,
                       ep_gamma=ep.gamma,
                       occupation_a=pat_a, occupation_b=pat_b)


# ---------------------------------------------------------------------------
# monodromy loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopResult:
    """Permutation of quasi-energy labels after one closed parameter loop.

    A label moves only within its mode's block: the modes' roots are
    continued apart.  ``refinements`` counts the bisection midpoints.
    ``closed`` and ``closure_defect`` are structural, always True and 0.0,
    until a discriminant winding number gives them a check that can fail.
    """

    L: int
    center: complex
    radius: float
    steps: int
    refinements: int
    permutation: list[int]
    sign_flips: list[bool]
    closed: bool
    closure_defect: float


def _nearest(prev: np.ndarray, cand: np.ndarray):
    """Nearest candidate of every value, and whether that choice is ambiguous.

    ``prev`` and ``cand`` are rows of values over any leading axes.  A
    row is ambiguous when some value's best and second-best candidate
    distances differ by less than a factor of two, or when two values
    pick the same candidate.  Otherwise every value is strictly nearest
    to a distinct candidate; that choice is the unique optimal
    assignment, and it is accepted as it stands.  A lone candidate is
    always clear.  Returns the picks, shaped like ``prev``, and the flags.
    """
    cost = np.abs(prev[..., :, None] - cand[..., None, :])
    pick = np.argmin(cost, axis=-1)
    if cand.shape[-1] == 1:
        return pick, np.zeros(cost.shape[:-2], dtype=bool)
    best = np.partition(cost, 1, axis=-1)
    unclear = (best[..., 1] == 0) | (best[..., 0] > 0.5 * best[..., 1])
    taken = np.sort(pick, axis=-1)
    shared = taken[..., 1:] == taken[..., :-1]
    return pick, unclear.any(axis=-1) | shared.any(axis=-1)


def _match_steps(eps: np.ndarray, x: np.ndarray, start: np.ndarray):
    """Picks, sign flips and ambiguity of the steps from ``start``, in chunks.

    Per step and mode each root x goes to its nearest root at the next
    point, and its eps to the nearest of that root's +eps, its -eps and
    zero, where the sign is lost; a pick of zero is ambiguous.
    """
    out, chunk = [], max(1, _CHUNK_ENTRIES // (2 * x.shape[-1] ** 2))
    for lo in range(0, start.size, chunk):
        at = start[lo: lo + chunk]
        pick, unclear = _nearest(x[at], x[at + 1])
        new = np.take_along_axis(eps[at + 1], pick, -1)
        sign, unsigned = _nearest(eps[at][..., None],
                                  np.stack([new, -new, 0 * new], -1))
        unsigned |= sign[..., 0] == 2
        out.append((pick, sign[..., 0] == 1,
                    unclear.any(-1) | unsigned.any((-2, -1))))
    return [np.concatenate(a) for a in zip(*out)]


def track_loop(L: int, center: complex, radius: float, steps: int = 256,
               orientation: int = 1) -> LoopResult:
    """Drag all quasi-energy branches around a circle and read the permutation.

    One root solve gives both modes' roots at all ``steps + 1`` loop
    points.  Each mode's L/2 roots are continued on their own: a root
    to its nearest root at the next point in x, its eps to the nearest
    of that root's +eps, -eps and zero, every choice judged by
    :func:`_nearest`'s factor-of-two rule, all steps at once in chunks
    of at most ``_CHUNK_ENTRIES`` = 2^18 distances.  Ambiguous steps
    are bisected one level at a time, a level's midpoints in one root
    solve; :class:`AmbiguousContinuation` is raised when a step is still
    ambiguous after ``_MAX_REFINEMENTS`` levels, or a level would pass
    ``_LOOP_VALUE_LIMIT`` values.  The permutation acts on the L
    positive-branch labels as :func:`xyep.chain.quasi_energies` numbers
    them at the start point (mode I's branches are labels 0..L/2-1, then
    mode II's); ``sign_flips[k]`` reports a label returning to its
    partner's negative.  ``orientation`` -1 runs clockwise, which
    inverts the permutation.  A loop of more than ``_LOOP_VALUE_LIMIT``
    = 2^21 values, (steps + 1) * L, raises :class:`SizeLimit` at once.
    """
    L, steps = check_length(L), as_int(steps, "steps")
    if steps < 8:
        raise DegenerateInput("a loop needs at least 8 steps")
    if (steps + 1) * L > _LOOP_VALUE_LIMIT:
        raise SizeLimit(f"loops are capped at {_LOOP_VALUE_LIMIT} values, "
                        f"(steps + 1) * L; got steps = {steps}")
    center = complex(as_number(center, "loop center"))
    radius = as_number(radius, "loop radius", real=True)
    if not (np.isfinite(radius) and radius > 0):
        raise DegenerateInput(
            f"loop radius must be finite and positive, got {radius}")
    if orientation not in (1, -1):
        raise DegenerateInput("orientation must be +1 or -1")
    gammas = center + radius * np.exp(
        orientation * 2j * np.pi * np.arange(steps) / steps)
    gammas = np.append(gammas, gammas[0])

    eps, x = mode_spectra(L, gammas, "both")
    pick, flip, ambiguous = _match_steps(eps, x, np.arange(steps))
    refinements = 0
    for level in range(_MAX_REFINEMENTS + 1):
        bad = np.flatnonzero(ambiguous)
        if not bad.size:
            break
        if (level == _MAX_REFINEMENTS
                or (gammas.size + bad.size) * L > _LOOP_VALUE_LIMIT):
            raise AmbiguousContinuation(
                f"branch matching stayed ambiguous after {level} levels of "
                f"bisection between gamma = {gammas[bad[0]]:.6g} and "
                f"{gammas[bad[0] + 1]:.6g}")
        # each ambiguous step becomes two, split at its midpoint
        mids = (gammas[bad] + gammas[bad + 1]) / 2
        gammas = np.insert(gammas, bad + 1, mids)
        eps, x = (np.insert(a, bad + 1, b, axis=0)
                  for a, b in zip((eps, x), mode_spectra(L, mids, "both")))
        pick, flip, ambiguous = (np.insert(a, bad + 1, a[bad], axis=0)
                                 for a in (pick, flip, ambiguous))
        new = (bad + np.arange(bad.size) + [[0], [1]]).ravel()
        pick[new], flip[new], ambiguous[new] = _match_steps(eps, x, new)
        refinements += bad.size
    # slots[k]: the label start label k has reached; flipped[k]: negated
    slots, flipped = np.arange(L), np.zeros(L, dtype=bool)
    for p, f in zip(pick.reshape(-1, L) + np.repeat([0, L // 2], L // 2),
                    flip.reshape(-1, L)):
        flipped ^= f[slots]
        slots = p[slots]
    return LoopResult(L=L, center=center, radius=float(radius), steps=steps,
                      refinements=refinements, permutation=slots.tolist(),
                      sign_flips=flipped.tolist(), closed=True,
                      closure_defect=0.0)


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


def branch_scaling_probe(ep: EPRecord) -> ScalingFit:
    """Measure the splitting exponent of the coalescing pair near an EP.

    Evaluates the two nearest boundary roots at gamma = gamma_EP + r for
    the eight radii r = ``np.geomspace(1e-4, 1e-7, 8)``, all in one
    :func:`xyep.chain.mode_spectra` call, and fits
    log|eps1 - eps2| = alpha log r + const; alpha -> 1/2 at a plain
    square-root branch point.  ``ScalingFit.radii`` reports the ladder.
    """
    radii = np.geomspace(1e-4, 1e-7, 8)
    eps, x = (a[:, 0] for a in mode_spectra(ep.L, ep.gamma + radii, ep.mode))
    pair = np.take_along_axis(eps, coalescing_order(x, ep)[:, :2], axis=-1)
    splittings = np.abs(pair[:, 0] - pair[:, 1])
    if np.any(splittings == 0):
        raise DegenerateInput("splitting vanished at a probe radius")
    lx, ly = np.log(radii), np.log(splittings)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.max(np.abs(ly - (slope * lx + intercept))))
    return ScalingFit(ep_gamma=ep.gamma, exponent=float(slope),
                      prefactor=float(np.exp(intercept)), radii=radii,
                      splittings=splittings, fit_residual=resid)
