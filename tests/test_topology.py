"""Rigidity maps, branch-cut seams, monodromy loops, splitting exponents."""

import time
import warnings

import numpy as np
import pytest

import xyep.chain as chain_module
import xyep.topology as topology_module
from xyep.chain import ChainSpec, gamma_to_lambda, quasi_energies
from xyep.ep import locate_eps
from xyep.oracle import build_spin_hamiltonian, parity_sectors
from xyep.errors import AmbiguousContinuation, DegenerateInput, SizeLimit
from xyep.topology import branch_scaling_probe, overlap_grid, track_loop

L4_EP = 0.6 + 0.8j
RNG = np.random.default_rng(7)

warnings.simplefilter("ignore", UserWarning)


def phase_rigidity(v: np.ndarray) -> complex:
    """Bilinear self-overlap (v.v) / (v*.v) of a full-space state vector.

    The reference for the grid's rigidities: 1 for any real vector, 0 for
    a bilinearly self-orthogonal one such as a coalescing eigenvector.
    The magnitude is gauge independent; the phase rotates with the gauge.
    """
    v = np.asarray(v, dtype=complex).ravel()
    d = np.vdot(v, v).real
    if d < 1e-300:
        raise DegenerateInput("phase rigidity of the zero vector is undefined")
    return complex((v @ v) / d)


def parity_flips(grid):
    """Midpoints between neighbouring usable cells whose parity differs."""
    re, im, p, usable = grid.re_vals, grid.im_vals, grid.parity, ~grid.pole_mask
    flip_re = (p[:-1] != p[1:]) & usable[:-1] & usable[1:]
    flip_im = (p[:, :-1] != p[:, 1:]) & usable[:, :-1] & usable[:, 1:]
    return ([complex((re[i] + re[i + 1]) / 2, im[j])
             for i, j in zip(*np.nonzero(flip_re))]
            + [complex(re[i], (im[j] + im[j + 1]) / 2)
               for i, j in zip(*np.nonzero(flip_im))])


def test_phase_rigidity_basic_identities():
    v = RNG.standard_normal(12) + 1j * RNG.standard_normal(12)
    r = phase_rigidity(v)
    assert abs(r) <= 1 + 1e-12               # Cauchy-Schwarz bound
    # magnitude is gauge independent, phase rotates with the gauge
    c = 0.3 - 1.7j
    assert abs(phase_rigidity(c * v)) == pytest.approx(abs(r), abs=1e-12)
    real_v = RNG.standard_normal(9)
    assert phase_rigidity(real_v) == pytest.approx(1.0, abs=1e-14)
    # a bilinearly self-orthogonal vector has rigidity zero
    assert abs(phase_rigidity(np.array([1.0, 1j]))) < 1e-15
    with pytest.raises(DegenerateInput, match="zero vector"):
        phase_rigidity(np.zeros(4))


def test_overlap_grid_strip_through_ep():
    grid = overlap_grid(4, 0.55, 0.65, 0.75, 0.85, 5, 5)
    assert grid.ep_gamma == pytest.approx(L4_EP, abs=1e-10)
    # slots: two mode I branches then two mode II; the EP lives in mode II
    assert grid.occupation_a == (0, 0, 1, 0)
    assert grid.occupation_b == (0, 0, 0, 1)
    assert not grid.pole_mask.any()
    mags = np.abs(grid.overlap_a)
    ij = np.unravel_index(np.argmin(mags), mags.shape)
    g_min = complex(grid.re_vals[ij[0]], grid.im_vals[ij[1]])
    assert abs(g_min - L4_EP) < 1e-10       # overlap collapses at the EP cell
    assert mags[ij] < 1e-4
    assert np.max(mags) > 0.2               # and recovers away from it


def test_overlap_grid_no_ep_window_is_smooth():
    grid = overlap_grid(4, -0.2, 0.2, -0.1, 0.1, 4, 4)
    assert parity_flips(grid) == []
    assert np.nanmin(np.abs(grid.overlap_a)) > 0.9
    assert np.nanmin(np.abs(grid.overlap_b)) > 0.9


def test_overlap_grid_pole_masking():
    grid = overlap_grid(4, 0.95, 1.05, -0.05, 0.05, 5, 5)
    assert grid.pole_mask.sum() == 1        # only gamma = 1 sits in the disc
    assert np.isnan(grid.overlap_a[grid.pole_mask]).all()
    assert not np.isnan(grid.overlap_a[~grid.pole_mask]).any()


def test_overlap_grid_parity_seam_ends_at_ep():
    grid = overlap_grid(4, 0.55, 0.65, 0.75, 0.85, 5, 5)
    seam = parity_flips(grid)
    assert seam                            # the branch cut crosses this window
    cell_diag = np.hypot(grid.re_vals[1] - grid.re_vals[0],
                         grid.im_vals[1] - grid.im_vals[0])
    assert min(abs(z - grid.ep_gamma) for z in seam) <= 2 * cell_diag


def test_overlap_grid_selector_override(monkeypatch):
    ep = min(locate_eps(4, "I"), key=lambda r: abs(r.gamma - (-0.6 + 0.8j)))
    pat_a = (1, 0, 0, 0)
    pat_b = (0, 1, 0, 0)
    monkeypatch.setattr(topology_module, "_default_selector",
                        lambda L, center: (ep, pat_a, pat_b))
    grid = overlap_grid(4, -0.65, -0.55, 0.75, 0.85, 5, 5)
    assert grid.ep_gamma == pytest.approx(ep.gamma, abs=1e-12)
    assert grid.occupation_a == pat_a
    assert np.min(np.abs(grid.overlap_a)) < 1e-3


def test_overlap_grid_matches_full_space_reference():
    # each cell's tracked states against the eigenvectors of a full 2^L
    # solve at the same energies; |overlap| is gauge independent, so it
    # must survive dropping the other parity sector unchanged
    grid = overlap_grid(4, 0.55, 0.65, 0.75, 0.85, 5, 5)
    for i, re in enumerate(grid.re_vals):
        for j, im in enumerate(grid.im_vals):
            g = complex(re, im)
            if abs(g - grid.ep_gamma) < 1e-9:
                continue
            vals, vecs = np.linalg.eig(build_spin_hamiltonian(4, g))
            for energy, overlap in ((grid.energy_a[i, j], grid.overlap_a[i, j]),
                                    (grid.energy_b[i, j], grid.overlap_b[i, j])):
                dist = np.abs(vals - energy)
                k = int(np.argmin(dist))
                assert dist[k] < 1e-10 and np.sort(dist)[1] > 1e-3
                ref = abs(phase_rigidity(vecs[:, k]))
                assert abs(abs(overlap) - ref) < 1e-8


def test_overlap_grid_tracks_within_one_parity_sector():
    # near gamma = 1 levels of the two sectors nearly coincide; the tracked
    # pair must still stay in the anchor's sector in every cell
    grid = overlap_grid(4, 0.95, 1.05, -0.05, 0.05, 5, 5)
    even, odd = parity_sectors(4)
    held = set()
    for i, re in enumerate(grid.re_vals):
        for j, im in enumerate(grid.im_vals):
            if grid.pole_mask[i, j]:
                continue
            H = build_spin_hamiltonian(4, complex(re, im))
            for energy in (grid.energy_a[i, j], grid.energy_b[i, j]):
                for name, sector in (("even", even), ("odd", odd)):
                    block = H[np.ix_(sector, sector)]
                    if np.min(np.abs(np.linalg.eigvals(block) - energy)) < 1e-10:
                        held.add(name)
    assert len(held) == 1


def test_overlap_grid_limits_and_validation():
    with pytest.raises(SizeLimit):
        overlap_grid(10, 0, 1, 0, 1, 3, 3)
    with pytest.raises(DegenerateInput):
        overlap_grid(4, 0, 1, 0, 1, 1, 3)
    with pytest.raises(DegenerateInput, match="no exceptional points exist"):
        overlap_grid(2, 0, 1, 0, 1, 3, 3)
    with pytest.raises(DegenerateInput, match="every grid cell sits inside"):
        overlap_grid(4, 0.999, 1.001, -0.001, 0.001, 2, 2)
    for threads in (0, -2, "2", 2.5):
        with pytest.raises(DegenerateInput, match="threads"):
            overlap_grid(4, 0.55, 0.65, 0.75, 0.85, 5, 5, threads=threads)
    with pytest.raises(DegenerateInput, match="chain length"):
        overlap_grid("4", 0.55, 0.65, 0.75, 0.85, 5, 5)


def test_size_guards_refuse_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started past the size guard")

    with monkeypatch.context() as m:
        m.setattr(topology_module, "mode_spectra", refuse)
        m.setattr(topology_module, "_default_selector", refuse)
        with pytest.raises(SizeLimit, match="steps = 100000000000"):
            track_loop(4, 0.2 + 0.1j, 0.05, steps=10 ** 11)
        with pytest.raises(SizeLimit, match="1000000 x 1000000"):
            overlap_grid(6, 0, 1, 0, 1, 10 ** 6, 10 ** 6)
    # the limits are inclusive: (steps + 1) * L and n_re * n_im may equal them
    monkeypatch.setattr(topology_module, "_LOOP_VALUE_LIMIT", 4 * 9)
    monkeypatch.setattr(topology_module, "_GRID_CELL_LIMIT", 4)
    assert track_loop(4, 0.2 + 0.1j, 0.05, steps=8).steps == 8
    with pytest.raises(SizeLimit):
        track_loop(4, 0.2 + 0.1j, 0.05, steps=9)
    assert overlap_grid(4, 0.55, 0.65, 0.75, 0.85, 2, 2).overlap_a.shape == (2, 2)
    with pytest.raises(SizeLimit):
        overlap_grid(4, 0.55, 0.65, 0.75, 0.85, 2, 3)


def test_non_finite_loop_and_grid_sizes_are_refused():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for radius in (np.nan, np.inf, 0.0, -0.05):
            with pytest.raises(DegenerateInput, match="radius must be finite"):
                track_loop(4, 0.2, radius)
        for edges in ((np.nan, 1, 0, 1), (0, np.inf, 0, 1), (0, 1, -np.inf, 1)):
            with pytest.raises(DegenerateInput, match="edges must be finite"):
                overlap_grid(4, *edges, 3, 3)


def test_overlap_grid_thread_count_does_not_change_values():
    kw = dict(re_min=0.3, re_max=0.9, im_min=0.5, im_max=1.1, n_re=7, n_im=7)
    g1 = overlap_grid(4, threads=1, **kw)
    g2 = overlap_grid(4, threads=3, **kw)
    assert np.array_equal(g1.overlap_a, g2.overlap_a, equal_nan=True)
    assert np.array_equal(g1.overlap_b, g2.overlap_b, equal_nan=True)
    assert np.array_equal(g1.parity, g2.parity)


def test_overlap_grid_energies_are_the_pattern_energies():
    # each cell's energies are the two occupation patterns' energies, the
    # EP mode's slots starting at the two branches nearest the EP root;
    # where a principal-branch sign would put the pair into the other
    # parity sector, the slot nearest its cut (smallest |Re eps|) is
    # negated instead, which happens on this grid at four corner cells
    grid = overlap_grid(4, 0.3, 0.9, 0.5, 1.1, 7, 7)
    ep = min(locate_eps(4, "both"), key=lambda r: abs(r.gamma - grid.ep_gamma))
    # the sector, read one cell from the EP, where levels are simple
    i0 = int(np.argmin(np.abs(grid.re_vals - ep.gamma.real))) + 1
    j0 = int(np.argmin(np.abs(grid.im_vals - ep.gamma.imag)))
    blocks = [np.ix_(s, s) for s in parity_sectors(4)]

    def sector_values(g):
        H = build_spin_hamiltonian(4, g)
        return [np.linalg.eigvals(H[b]) for b in blocks]

    def holds(values, energy, tol=1e-10):
        return np.min(np.abs(values - energy)) < tol

    at_ep = sector_values(complex(grid.re_vals[i0], grid.im_vals[j0]))
    sector = [k for k in (0, 1) if holds(at_ep[k], grid.energy_a[i0, j0])]
    assert len(sector) == 1
    negated = set()
    for i, re in enumerate(grid.re_vals):
        for j, im in enumerate(grid.im_vals):
            g = complex(re, im)
            pts = quasi_energies(ChainSpec(4, g), warn=False)
            eps = []
            for mode in ("I", "II"):
                mine = [p for p in pts if p.mode == mode]
                if mode == ep.mode:
                    mine.sort(key=lambda p: abs(p.x - ep.x))
                eps.extend(p.epsilon for p in mine)
            eps = np.array(eps)

            def energy(pattern):
                return 0.5 * np.where(np.array(pattern) == 1, 1, -1) @ eps

            # dense levels of the defective EP cell carry half the digits
            tol = 1e-6 if abs(g - ep.gamma) < 1e-9 else 1e-10
            values = sector_values(g)[sector[0]]
            if not holds(values, energy(grid.occupation_a), tol):
                k = int(np.argmin(np.abs(eps.real)))
                eps[k] = -eps[k]
                negated.add(g)
            for pattern, got in ((grid.occupation_a, grid.energy_a[i, j]),
                                 (grid.occupation_b, grid.energy_b[i, j])):
                assert abs(got - energy(pattern)) < 1e-12
                assert holds(values, got, tol)
    assert negated == {complex(grid.re_vals[i], grid.im_vals[j])
                       for i, j in ((0, 0), (0, 1), (0, 2), (1, 0))}


def test_overlap_grid_does_not_depend_on_the_chunking(monkeypatch):
    # the 7 x 7 window whose four corner cells take the sector flip, in one
    # chunk, in chunks of one cell and in uneven chunks of five cells
    kw = dict(re_min=0.3, re_max=0.9, im_min=0.5, im_max=1.1, n_re=7, n_im=7)
    whole = overlap_grid(4, **kw)
    calls = []
    real = topology_module.mode_arrays

    def counting(*args, **kwargs):
        calls.append(np.shape(args[3]))
        return real(*args, **kwargs)

    monkeypatch.setattr(topology_module, "mode_arrays", counting)
    for entries, cells in ((1, 1), (5 * 4 * 4 ** 2, 5)):
        calls.clear()
        monkeypatch.setattr(topology_module, "_CHUNK_ENTRIES", entries)
        split = overlap_grid(4, **kw)
        # the sector cell, then every chunk, one call per mode each
        chunks = [min(cells, 49 - lo) for lo in range(0, 49, cells)]
        assert calls == [(1, 2)] * 2 + [(c, 2) for c in chunks for _ in "ab"]
        for name in ("overlap_a", "overlap_b", "energy_a", "energy_b",
                     "parity"):
            assert np.array_equal(getattr(split, name), getattr(whole, name))


def test_overlap_grid_orders_tied_real_parts_by_imaginary_part():
    # on the row Re gamma = Re gamma_EP of this grid the pair's energies
    # have equal real parts in exact arithmetic; the label must come from
    # the imaginary parts there, not from a rounding difference of Re
    ep = locate_eps(4)[2]
    g = ep.gamma
    grid = overlap_grid(4, g.real - 0.1, g.real + 0.1, g.imag - 0.1,
                        g.imag + 0.1, 13, 13)
    ea, eb = grid.energy_a, grid.energy_b
    size = np.maximum(np.abs(ea), np.abs(eb))
    tied = np.abs(ea.real - eb.real) <= 16 * np.finfo(float).eps * size
    assert tied[6].sum() >= 6 and not np.delete(tied, 6, axis=0).any()
    assert np.array_equal(grid.parity[tied], (ea.imag > eb.imag)[tied])
    assert np.array_equal(grid.parity[~tied], (ea.real > eb.real)[~tied])
    assert grid.parity[6, 9] == 1


def count_root_solves(monkeypatch):
    calls = []
    real = chain_module.boundary_roots

    def counting(n, lam):
        calls.append(np.size(lam))
        return real(n, lam)

    monkeypatch.setattr(chain_module, "boundary_roots", counting)
    return calls


def test_loop_and_grid_make_one_root_solve(monkeypatch):
    calls = count_root_solves(monkeypatch)
    r = track_loop(4, L4_EP, 0.05, steps=64)
    assert r.refinements == 0
    assert calls == [130]                     # every loop point, both modes
    calls.clear()
    grid = overlap_grid(4, 0.95, 1.05, -0.05, 0.05, 5, 5)
    usable = int((~grid.pole_mask).sum())
    assert calls == [2 * usable]


def test_track_loop_solves_only_bisection_midpoints_on_demand(monkeypatch):
    # the through-EP loop bisects until it gives up; apart from the one
    # solve of the loop points, each solve holds one level's midpoints,
    # every one of them between two points already solved, both modes
    calls = count_root_solves(monkeypatch)
    solved = []
    real = topology_module.mode_spectra

    def recording(L, gammas, mode):
        gammas = np.atleast_1d(gammas)
        if solved:
            pairs = (np.add.outer(solved, solved) / 2).ravel()
            assert all(np.min(abs(pairs - g)) == 0 for g in gammas)
        solved.extend(gammas)
        return real(L, gammas, mode)

    monkeypatch.setattr(topology_module, "mode_spectra", recording)
    with pytest.raises(AmbiguousContinuation, match="after 12 levels"):
        track_loop(4, L4_EP + 0.05, 0.05, steps=64)
    assert calls[0] == 130
    assert len(calls) == 1 + topology_module._MAX_REFINEMENTS
    assert all(c >= 2 and c % 2 == 0 for c in calls[1:])
    assert sum(calls) == 2 * len(solved)


def test_overlap_grid_is_symmetric_under_conjugate_gamma():
    # H(conj gamma) = conj H(gamma): on a window symmetric about the real
    # axis the pair's energies are conjugate and its rigidities equal
    grid = overlap_grid(4, 0.95, 1.05, -0.05, 0.05, 5, 5)
    n = grid.im_vals.size
    for i in range(grid.re_vals.size):
        for j in range(n):
            if grid.pole_mask[i, j]:
                continue
            here = sorted(zip((grid.energy_a[i, j], grid.energy_b[i, j]),
                              (grid.overlap_a[i, j], grid.overlap_b[i, j])),
                          key=lambda t: (t[0].real, t[0].imag))
            there = sorted(zip((grid.energy_a[i, n - 1 - j].conjugate(),
                                grid.energy_b[i, n - 1 - j].conjugate()),
                               (grid.overlap_a[i, n - 1 - j],
                                grid.overlap_b[i, n - 1 - j])),
                           key=lambda t: (t[0].real, t[0].imag))
            for (e1, r1), (e2, r2) in zip(here, there):
                assert abs(e1 - e2) < 1e-10 and abs(r1 - r2) < 1e-10


def test_rigidity_matches_full_space_ed_vectors(monkeypatch):
    # random occupation pairs in both parity sectors at random anisotropies,
    # set in place of the default pair; each state is found in a full 2^L
    # dense solve by its energy, and levels without a clear gap are skipped
    rng = np.random.default_rng(11)
    checked, parities = 0, set()
    for L in (4, 6, 8):
        records = locate_eps(L, "both")
        for _ in range(4):
            g = complex(*rng.uniform(-3, 3, 2))
            if min(abs(g - 1), abs(g + 1)) < 0.05:
                continue
            ep = min(records, key=lambda r: abs(r.gamma - g))
            pat_a = tuple(int(b) for b in rng.integers(0, 2, L))
            pat_b = list(rng.integers(0, 2, L))
            if sum(pat_b) % 2 != sum(pat_a) % 2:
                pat_b[0] ^= 1
            pat_b = tuple(int(b) for b in pat_b)
            parities.add(sum(pat_a) % 2)
            monkeypatch.setattr(topology_module, "_default_selector",
                                lambda L, center: (ep, pat_a, pat_b))
            grid = overlap_grid(L, g.real, g.real + 0.01, g.imag, g.imag + 0.01,
                                2, 2)
            for i, re in enumerate(grid.re_vals):
                for j, im in enumerate(grid.im_vals):
                    vals, vecs = np.linalg.eig(
                        build_spin_hamiltonian(L, complex(re, im)))
                    for energy, rig in ((grid.energy_a[i, j], grid.overlap_a[i, j]),
                                        (grid.energy_b[i, j], grid.overlap_b[i, j])):
                        dist = np.abs(vals - energy)
                        k = int(np.argmin(dist))
                        assert dist[k] < 1e-9 * (1 + abs(energy))
                        if np.sort(dist)[1] < 1e-2:
                            continue
                        ref = abs(phase_rigidity(vecs[:, k]))
                        assert abs(rig - ref) < 1e-8
                        checked += 1
    assert parities == {0, 1} and checked >= 60


def test_track_loop_around_ep_swaps_the_pair():
    r = track_loop(4, L4_EP, 0.05, steps=64)
    assert r.permutation == [0, 1, 3, 2]
    assert r.sign_flips == [False] * 4
    assert r.closed and r.closure_defect < 1e-10
    # a transposition is an involution: composing the loop with itself
    # restores every label
    p = r.permutation
    assert [p[p[k]] for k in range(4)] == [0, 1, 2, 3]


def test_track_loop_coarse_steps_succeed_by_bisection():
    # eight steps around the L = 4 EP are too coarse to match directly;
    # bisection settles every step, and the permutation is the one the
    # fine loop reads without any
    coarse = track_loop(4, L4_EP, 0.3, steps=8)
    fine = track_loop(4, L4_EP, 0.3, steps=256)
    assert (coarse.refinements, fine.refinements) == (4, 0)
    for r in (coarse, fine):
        assert r.permutation == [0, 1, 3, 2]
        assert r.sign_flips == [False] * 4


def test_track_loop_orientation_reversal_inverts():
    ccw = track_loop(4, L4_EP, 0.05, steps=64)
    cw = track_loop(4, L4_EP, 0.05, steps=64, orientation=-1)
    inverse = [0] * 4
    for k, t in enumerate(ccw.permutation):
        inverse[t] = k
    assert cw.permutation == inverse
    assert cw.closed


def test_track_loop_without_ep_is_identity():
    r = track_loop(4, 0.2 + 0.1j, 0.05, steps=64)
    assert r.permutation == [0, 1, 2, 3]
    assert r.sign_flips == [False] * 4
    assert r.closed and r.closure_defect < 1e-10


def test_track_loop_labels_are_quasi_energy_branches():
    # labels are numbered as quasi_energies numbers them at the loop's
    # start point, so around an EP the two moved labels are the branches
    # whose roots sit nearest the EP root there
    radius = 0.01
    for ep in [r for r in locate_eps(14, "I") if r.gamma.imag > 0]:
        r = track_loop(14, ep.gamma, radius, steps=256)
        moved = [k for k, q in enumerate(r.permutation) if q != k]
        pts = quasi_energies(ChainSpec(14, ep.gamma + radius), warn=False)
        nearest = sorted((abs(p.x - ep.x), k) for k, p in enumerate(pts)
                         if p.mode == ep.mode)[:2]
        assert r.closed and moved == sorted(k for _, k in nearest)


def test_track_loop_validation():
    with pytest.raises(DegenerateInput):
        track_loop(4, 0.2, 0.05, steps=4)
    with pytest.raises(DegenerateInput):
        track_loop(4, 0.2, 0.05, orientation=0)
    with pytest.raises(DegenerateInput, match="chain length"):
        track_loop("4", 0.2, 0.05)


def fake_roots(rows):
    """Stand-in for ``mode_spectra`` on a loop centred at gamma = 0.

    ``rows(s)`` gives one point's (2, L/2) roots x, mode I then mode II,
    at the angle fraction s in [0, 1); each eps is x + 100, far from its
    own negative, so no sign choice is in doubt.
    """
    def spectra(L, gammas, mode):
        s = [np.angle(g) / (2 * np.pi) % 1.0 for g in np.atleast_1d(gammas)]
        x = np.array([rows(t) for t in s], dtype=complex)
        return x + 100, x

    return spectra


def gliding_roots(a0: complex, b0: complex, sigma: float):
    """Fake roots: mode I's 0 and 1 jump to a0 and b0 at the fraction sigma.

    Up to ``sigma`` mode I's roots are 0 and 1 and mode II's 10 and 20;
    past it mode I's jump to a0 and b0 and then glide back to 0 and 1 by
    the end of the loop, so the loop closes on the identity.
    """
    def rows(s):
        first = [0, 1]
        if s >= sigma:
            u = (s - sigma) / (1 - sigma)
            first = [(1 - u) * a0, (1 - u) * b0 + u]
        return [first, [10, 20]]

    return fake_roots(rows)


def test_track_loop_bisects_when_two_labels_share_a_nearest_candidate(
        monkeypatch):
    # the jump happens between the first two loop points
    steps = 64
    sigma = 0.9 / steps
    # a jump of the same size in which each root keeps its own nearest
    # candidate is accepted as it stands
    monkeypatch.setattr(topology_module, "mode_spectra",
                        gliding_roots(0.2, 1.2, sigma))
    clean = track_loop(4, 0, 0.5, steps=steps)
    assert clean.permutation == [0, 1, 2, 3] and clean.refinements == 0
    # 0.45 is the clear nearest candidate of both 0 and 1 (0.5+2i is more
    # than twice as far from each), so the two roots collide; every
    # bisection of that step still straddles the jump, so it stays a
    # collision until the refinement budget runs out
    monkeypatch.setattr(topology_module, "mode_spectra",
                        gliding_roots(0.45, 0.5 + 2j, sigma))
    with pytest.raises(AmbiguousContinuation):
        track_loop(4, 0, 0.5, steps=steps)


def test_track_loop_follows_values_through_reordered_rows(monkeypatch):
    # every loop point lists each mode's closed root trajectories in an
    # order of its own; the continued labels must undo each reordering,
    # step after step, so the loop closes on the identity
    def rows(s):
        x = 10.0 * np.arange(4).reshape(2, 2) + 0.1 * np.exp(2j * np.pi * s)
        rng = np.random.default_rng(round(s * 4096))
        return [x[0][rng.permutation(2)], x[1][rng.permutation(2)]]

    monkeypatch.setattr(topology_module, "mode_spectra", fake_roots(rows))
    r = track_loop(4, 0, 0.5, steps=64)
    assert r.permutation == [0, 1, 2, 3] and not any(r.sign_flips)
    assert r.refinements == 0


def test_track_loop_does_not_depend_on_the_chunking(monkeypatch):
    # steps checked in one chunk, one at a time and (at L = 14) in uneven
    # chunks of three give the same labels and bisect the same steps: on
    # an L = 14 loop, on the coarse loop that bisects four times and under
    # the gliding fake, where the refusal must name the same step
    ep = next(r for r in locate_eps(14, "I") if r.gamma.imag > 0)

    def outcomes():
        got = []
        for args, steps in (((14, ep.gamma, 0.01), 256), ((4, L4_EP, 0.3), 8)):
            r = track_loop(*args, steps=steps)
            got.append((r.permutation, r.sign_flips, r.refinements))
        with monkeypatch.context() as m:
            m.setattr(topology_module, "mode_spectra",
                      gliding_roots(0.2, 1.2, 0.9 / 64))
            r = track_loop(4, 0, 0.5, steps=64)
            got.append((r.permutation, r.sign_flips, r.refinements))
            m.setattr(topology_module, "mode_spectra",
                      gliding_roots(0.45, 0.5 + 2j, 0.9 / 64))
            with pytest.raises(AmbiguousContinuation) as refusal:
                track_loop(4, 0, 0.5, steps=64)
            got.append(str(refusal.value))
        return got

    whole = outcomes()
    assert [r[2] for r in whole[:3]] == [0, 4, 0]
    for entries in (1, 3 * 2 * 7 ** 2):
        monkeypatch.setattr(topology_module, "_CHUNK_ENTRIES", entries)
        assert outcomes() == whole


def test_track_loop_through_ep_is_ambiguous():
    # the circle passes through the exceptional point itself, where the
    # tracked branches genuinely coincide and no bisection can resolve them
    with pytest.raises(AmbiguousContinuation):
        track_loop(4, L4_EP + 0.05, 0.05, steps=64)


def test_track_loop_of_one_root_per_mode():
    # at L = 2 each mode has a single root, the only candidate there is
    r = track_loop(2, 0.3 + 0.2j, 0.05, steps=16)
    assert r.permutation == [0, 1] and r.sign_flips == [False, False]
    assert r.refinements == 0


def test_track_loop_refinement_obeys_the_value_limit(monkeypatch):
    # the coarse L = 4 loop bisects four steps in one level: its 9 + 4
    # points of 4 values fit a limit of 52 and not one of 51
    monkeypatch.setattr(topology_module, "_LOOP_VALUE_LIMIT", 52)
    assert track_loop(4, L4_EP, 0.3, steps=8).refinements == 4
    monkeypatch.setattr(topology_module, "_LOOP_VALUE_LIMIT", 51)
    with pytest.raises(AmbiguousContinuation, match="after 0 levels"):
        track_loop(4, L4_EP, 0.3, steps=8)


# Loops with the outcomes and bisection counts of the earlier route,
# which matched all 2L signed quasi-energies of both modes together:
# L, centre, radius, steps, the moved labels' images, the labels that
# return negated, and the bisections that route made.
FROZEN_LOOPS = [
    # the middle upper-half-plane EP of locate_eps(L, "I"), radius 0.3
    # times its distance to the nearest other EP
    (20, -0.2227715050338246 + 0.9748706870887875j, 0.07751655845616941,
     256, {4: 9, 9: 4}, {4, 9}, 183),
    (40, -0.1312831917903998 + 0.9913449064545221j, 0.042551193432641264,
     256, {9: 19, 19: 9}, {9, 19}, 1520),
    # an edge-mode loop that encloses no EP
    (40, 2.5 - 0.3j, 0.1, 256, {}, set(), 7936),
    # coarse loops past an edge state whose small eps turns fast: its
    # sign is followed only because zero counts as an eps candidate
    (12, 0.7213671321845228 + 1.1410958088352472j, 0.9439101781941146,
     64, {7: 11, 8: 7, 9: 8, 11: 9}, {7, 8, 9, 11}, 1878),
    (14, 0.22753524279334414 - 0.0374515826060704j, 0.6180972806731246,
     16, {4: 5, 5: 4}, {4, 5}, 1298),
]


@pytest.mark.parametrize(
    "L, center, radius, steps, moved, negated, bisections", FROZEN_LOOPS,
    ids=["L20-bulk", "L40-bulk", "L40-edge", "L12-coarse", "L14-coarse"])
def test_track_loop_matches_frozen_outcomes(L, center, radius, steps, moved,
                                            negated, bisections):
    r = track_loop(L, center, radius, steps=steps)
    assert r.permutation == [moved.get(k, k) for k in range(L)]
    assert r.sign_flips == [k in negated for k in range(L)]
    assert r.refinements <= bisections


def test_track_loop_reaches_l_100_without_bisection():
    # a loop around a bulk EP at L = 100 settles every step directly
    # and moves exactly that EP's two labels, both in mode I's block
    L = 100
    records = locate_eps(L, "both")
    upper = [r for r in locate_eps(L, "I") if r.gamma.imag > 0]
    ep = upper[len(upper) // 2]
    radius = 0.3 * min(abs(r.gamma - ep.gamma) for r in records
                       if r.gamma != ep.gamma)
    start = time.perf_counter()
    r = track_loop(L, ep.gamma, radius)
    assert time.perf_counter() - start < 30
    assert r.refinements == 0
    moved = [k for k, q in enumerate(r.permutation) if q != k]
    pts = quasi_energies(ChainSpec(L, ep.gamma + radius), warn=False)
    nearest = sorted((abs(p.x - ep.x), k) for k, p in enumerate(pts)
                     if p.mode == "I")[:2]
    assert moved == sorted(k for _, k in nearest)
    assert max(moved) < L // 2


def test_branch_scaling_square_root():
    for L in (4, 6):
        for ep in locate_eps(L, "II"):
            fit = branch_scaling_probe(ep)
            assert abs(fit.exponent - 0.5) < 0.05
            assert fit.fit_residual < 1e-3
            assert fit.splittings.shape == fit.radii.shape


def test_branch_scaling_probe_solves_only_the_ep_mode(monkeypatch):
    # every radius is one boundary parameter, all of them of the EP's mode,
    # solved together in one call
    calls = []
    real = chain_module.boundary_roots

    def counting(n, lam):
        calls.append(np.atleast_1d(lam))
        return real(n, lam)

    monkeypatch.setattr(chain_module, "boundary_roots", counting)
    ep = locate_eps(8, "II")[0]
    fit = branch_scaling_probe(ep)
    assert len(calls) == 1
    lams = calls[0]
    assert lams.shape == (fit.radii.size, 1)
    # mode II's 1/lambda, divided as chain.mode_spectra divides arrays
    assert np.array_equal(lams[:, 0], 1 / gamma_to_lambda(ep.gamma + fit.radii))
