"""Dense-matrix cross-checks: spin Hamiltonian, ED, closed forms, EP states."""

import warnings
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from xyep.basis import assemble_basis, many_body_energies, operator_coefficients
from xyep.chain import ChainSpec, build_quasi_hamiltonian
from xyep.ep import ep_state_catalog, jordan_decomposition, locate_eps
from xyep.errors import DegenerateInput, SizeLimit, XYEPWarning
from xyep.oracle import (EP_STATE_LIMIT, REALIZE_LIMIT, SPIN_LIMIT,
                         VECTOR_LIMIT, build_ep_states, build_spin_hamiltonian,
                         ed_eigen, geometric_multiplicities, l4_closed_form,
                         match_spectra, parity_sectors, realize_operator)

RNG = np.random.default_rng(20240817)


def random_gamma():
    return complex(RNG.uniform(-1.5, 1.5), RNG.uniform(-1.5, 1.5))


def kron_spin_hamiltonian(L, gamma):
    """Reference assembly: each bond term as a Kronecker product padded with
    identities (site 1 is the first factor), subtracted sx.sx then sy.sy."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    xx, yy = np.kron(sx, sx), np.kron(sy, sy).real
    gamma = complex(gamma)
    H = np.zeros((2 ** L, 2 ** L), dtype=complex)
    for j in range(1, L):
        def pad(bond):
            return np.kron(np.eye(2 ** (j - 1)),
                           np.kron(bond, np.eye(2 ** (L - j - 1))))
        H -= 0.25 * (1 + gamma) * pad(xx)
        H -= 0.25 * (1 - gamma) * pad(yy)
    return H


def kron_modes(L):
    """Reference phased annihilators c_j = (-1)^j sz x ... x sz x s- x 1 x
    ... x 1 as Kronecker products (s- at site j clears its bit)."""
    sz, sm = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])
    modes = []
    for j in range(1, L + 1):
        op = reduce(np.kron, [sz] * (j - 1) + [sm] + [np.eye(2)] * (L - j))
        modes.append((-1) ** j * op.astype(complex))
    return modes


def kron_realize_operator(L, row):
    """Reference (1/sqrt2) sum_j [a_j (c_j + c_j^+) + b_j (c_j - c_j^+)]
    summed over the Kronecker modes."""
    X = np.zeros((2 ** L, 2 ** L), dtype=complex)
    for j, c in enumerate(kron_modes(L)):
        X += row[j] * (c + c.conj().T) + row[L + j] * (c - c.conj().T)
    return X / np.sqrt(2.0)


def realize_quadratic_form(L, M):
    """Dense matrix of (1/2) C^+ M C over the phased modes, where C stacks
    the L annihilators followed by the L creators."""
    modes = kron_modes(L)
    C = modes + [c.conj().T for c in modes]
    H = np.zeros((2 ** L, 2 ** L), dtype=complex)
    for a in range(2 * L):
        Ca_dag = C[a].conj().T
        for b in range(2 * L):
            if M[a, b] != 0:
                H += 0.5 * M[a, b] * (Ca_dag @ C[b])
    return H


@pytest.mark.parametrize("gamma", [0, 0.7, 0.3 + 0.5j, -1.2 + 0.1j])
def test_spin_hamiltonian_equals_kron_assembly_bit_for_bit(gamma):
    for L in range(2, 9):
        assert np.array_equal(build_spin_hamiltonian(L, gamma),
                              kron_spin_hamiltonian(L, gamma))


def test_realize_operator_equals_kron_assembly_bit_for_bit():
    for L in range(1, REALIZE_LIMIT + 1):
        row = RNG.standard_normal(2 * L) + 1j * RNG.standard_normal(2 * L)
        assert np.array_equal(realize_operator(L, row),
                              kron_realize_operator(L, row))


def test_parity_sectors():
    even, odd = parity_sectors(3)
    assert even.tolist() == [0, 3, 5, 6]
    assert odd.tolist() == [1, 2, 4, 7]
    for L in (1, 4, 7):
        even, odd = parity_sectors(L)
        assert even.size == odd.size == 2 ** (L - 1)
        assert np.array_equal(np.sort(np.concatenate([even, odd])),
                              np.arange(2 ** L))


def bit_reversal(L):
    """Basis index of each state's mirror image under site j -> L+1-j."""
    states = np.arange(2 ** L)
    mirror = np.zeros_like(states)
    for bit in range(L):
        mirror |= ((states >> bit) & 1) << (L - 1 - bit)
    return mirror


def test_blocked_ed_eigen_matches_the_full_solve():
    # at gamma = 1 only the sx.sx bonds remain, so for odd L the index
    # reversal within a sector (the flip of every site but one) commutes
    # with H as well, and for even L one sector reversed equals the other
    cases = [(L, random_gamma()) for L in range(2, 10)] + [(3, 1.0), (4, 1.0), (5, 1.0)]
    for L, gamma in cases:
        H = build_spin_hamiltonian(L, gamma)
        # the site reflection commutes with H exactly
        mirror = bit_reversal(L)
        assert np.array_equal(H[np.ix_(mirror, mirror)], H)
        full = np.linalg.eigvals(H)
        scale = float(np.max(np.abs(full)))
        vals = ed_eigen(H, want_vectors=False).values
        assert match_spectra(vals, full).max_abs_diff <= 1e-12 * scale
        res = ed_eigen(H)
        assert match_spectra(res.values, full).max_abs_diff <= 1e-12 * scale
        assert res.max_residual < 1e-12 * scale
        assert np.max(np.abs(H @ res.vectors - res.vectors * res.values)) \
            < 1e-12 * scale
        # every vector lives in one parity sector, exactly
        even, odd = parity_sectors(L)
        in_even = ~np.any(res.vectors[odd], axis=0)
        in_odd = ~np.any(res.vectors[even], axis=0)
        assert np.all(in_even ^ in_odd)
        assert in_even.sum() == in_odd.sum() == 2 ** (L - 1)
        # the site reflection keeps every vector up to a sign
        mirrored = res.vectors[mirror]
        assert np.all(np.minimum(
            np.max(np.abs(mirrored - res.vectors), axis=0),
            np.max(np.abs(mirrored + res.vectors), axis=0)) < 1e-15)
        if L % 2 == 0:
            # and for even L so does the spin flip s -> 2^L-1-s
            flipped = res.vectors[::-1]
            assert np.all(np.minimum(
                np.max(np.abs(flipped - res.vectors), axis=0),
                np.max(np.abs(flipped + res.vectors), axis=0)) < 1e-15)


def test_ed_eigen_with_spin_flip_but_without_reflection_symmetry():
    # one in-sector entry and its flip partner change, so each sector still
    # splits in flip halves but the reflection no longer splits them
    for L in (4, 6, 8):
        H = build_spin_hamiltonian(L, random_gamma())
        N = 2 ** L
        for idx in parity_sectors(L):
            i, j = idx[0], idx[1]
            H[i, j] += 0.25
            H[N - 1 - i, N - 1 - j] += 0.25
        mirror = bit_reversal(L)
        assert not np.array_equal(H[np.ix_(mirror, mirror)], H)
        full = np.linalg.eigvals(H)
        scale = float(np.max(np.abs(full)))
        vals = ed_eigen(H, want_vectors=False).values
        assert match_spectra(vals, full).max_abs_diff <= 1e-12 * scale
        res = ed_eigen(H)
        assert match_spectra(res.values, full).max_abs_diff <= 1e-12 * scale
        assert np.max(np.abs(H @ res.vectors - res.vectors * res.values)) \
            < 1e-12 * scale


def test_ed_eigen_without_spin_flip_symmetry_solves_each_sector_as_before():
    # one in-sector entry per sector changes but not its flip partner, so
    # neither spin-flip shortcut applies and each sector is solved whole
    for L in range(2, 8):
        H = build_spin_hamiltonian(L, random_gamma())
        sectors = parity_sectors(L)
        for idx in sectors:
            H[idx[0], idx[1]] += 0.25
        vecs = np.zeros_like(H)
        vals, only, resid, start = [], [], 0.0, 0
        for idx in sectors:
            block = H[np.ix_(idx, idx)]
            w, v = np.linalg.eig(block)
            resid = max(resid, float(np.max(np.abs(block @ v - v * w[None, :]))))
            vecs[idx, start:start + w.size] = v
            start += w.size
            vals.append(w)
            only.append(np.linalg.eigvals(block))
        vals, only = np.concatenate(vals), np.concatenate(only)
        order = np.lexsort((vals.imag, vals.real))
        res = ed_eigen(H)
        assert np.array_equal(res.values, vals[order])
        assert np.array_equal(res.vectors, vecs[:, order])
        assert res.max_residual == resid
        only = only[np.lexsort((only.imag, only.real))]
        assert np.array_equal(ed_eigen(H, want_vectors=False).values, only)


@pytest.mark.parametrize("L, mirrored, sizes", [
    # odd L: the spin flip swaps the sectors, so each sector splits only by
    # the site reflection, into its 2^(L-2) + 2^((L-3)/2) mirror-even and
    # 2^(L-2) - 2^((L-3)/2) mirror-odd states (the middle site sets a
    # palindrome's parity)
    (3, False, [3, 1, 3, 1]),
    (5, False, [10, 6, 10, 6]),
    (7, False, [36, 28, 36, 28]),
    # even L: the flip, then the reflection, split each sector in four; at
    # L = 4 one character of the even sector has no state
    (4, False, [4, 2, 2, 2, 2, 2, 2]),
    (6, False, [10, 6, 10, 6, 10, 6, 6, 10]),
    (8, False, [40, 24, 32, 32, 32, 32, 32, 32]),
    (10, False, [136, 120, 136, 120, 136, 120, 120, 136]),
    # an entry of the even sector and its mirror image change, so that
    # sector keeps the reflection but not the flip: its 8 palindromes and
    # 12 pairs make the mirror-even leaf of 20 and the mirror-odd one of 12
    (6, True, [20, 12, 10, 6, 6, 10]),
])
def test_sectors_are_solved_as_their_symmetry_leaves(monkeypatch, L, mirrored,
                                                     sizes):
    H = build_spin_hamiltonian(L, random_gamma())
    if mirrored:
        mirror = bit_reversal(L)
        H[0, 3] += 0.25
        H[mirror[0], mirror[3]] += 0.25
    full = np.linalg.eigvals(H)
    solved = []
    real = np.linalg.eigvals

    def counting(B):
        solved.append(B.shape[0])
        return real(B)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    vals = ed_eigen(H, want_vectors=False).values
    assert solved == sizes
    scale = float(np.max(np.abs(full)))
    assert match_spectra(vals, full).max_abs_diff <= 1e-12 * scale


def test_ed_eigen_solves_other_matrices_whole():
    # a dense matrix couples the parity sectors and a 3 x 3 one has none,
    # so both must give exactly the whole-matrix solve
    rng = np.random.default_rng(11)
    for n in (16, 3):
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        vals, vecs = np.linalg.eig(H)
        order = np.lexsort((vals.imag, vals.real))
        vals, vecs = vals[order], vecs[:, order]
        res = ed_eigen(H)
        assert np.array_equal(res.values, vals)
        assert np.array_equal(res.vectors, vecs)
        assert res.max_residual == float(
            np.max(np.abs(H @ vecs - vecs * vals[None, :])))
        only = np.linalg.eigvals(H)
        only = only[np.lexsort((only.imag, only.real))]
        assert np.array_equal(ed_eigen(H, want_vectors=False).values, only)


def test_non_square_matrices_are_refused():
    for H in (np.zeros((4, 3)), np.zeros(4), np.zeros((2, 2, 2))):
        with pytest.raises(DegenerateInput, match="matrix must be square"):
            ed_eigen(H)
        with pytest.raises(DegenerateInput, match="matrix must be square"):
            geometric_multiplicities(H)
    # empty and non-finite matrices once ended in a raw ValueError or
    # LinAlgError
    nan, inf = np.eye(4), build_spin_hamiltonian(4, 0.3)
    nan[1, 2], inf[0, 3] = np.nan, np.inf
    for H in (np.zeros((0, 0)), nan, inf):
        for call in (ed_eigen, geometric_multiplicities):
            with pytest.raises(DegenerateInput, match="non-empty and finite"):
                call(H)


def test_spin_hamiltonian_structure():
    g = 0.4 + 0.9j
    H = build_spin_hamiltonian(4, g)
    assert H.shape == (16, 16)
    # complex symmetric, and linear in the anisotropy
    assert np.max(np.abs(H - H.T)) == 0.0
    H0 = build_spin_hamiltonian(4, 0.0)
    H1 = build_spin_hamiltonian(4, 1.0)
    assert_allclose(H, H0 + g * (H1 - H0), atol=1e-14)
    # hermitian exactly when the coupling is real
    assert np.max(np.abs(H0 - H0.conj().T)) == 0.0
    assert np.max(np.abs(H - H.conj().T)) > 0.1


def test_two_site_spectrum_closed_form():
    g = -0.3 + 0.55j
    vals = np.sort_complex(np.linalg.eigvals(build_spin_hamiltonian(2, g)))
    expect = np.sort_complex(np.array([0.5, -0.5, g / 2, -g / 2]))
    assert_allclose(vals, expect, atol=1e-12)


def test_jordan_wigner_mode_algebra():
    L = 4
    modes = kron_modes(L)
    eye = np.eye(2 ** L)
    for i in range(L):
        ci = modes[i]
        assert np.max(np.abs(ci @ ci)) == 0.0
        for j in range(L):
            cj = modes[j]
            anti = ci @ cj.conj().T + cj.conj().T @ ci
            assert_allclose(anti, (1.0 if i == j else 0.0) * eye, atol=1e-13)
            assert np.max(np.abs(ci @ cj + cj @ ci)) < 1e-13


def test_realize_quadratic_form_matches_spin_hamiltonian():
    for L in (2, 4, 6):
        spec = ChainSpec(L, random_gamma())
        qh = build_quasi_hamiltonian(spec)
        H_modes = realize_quadratic_form(L, qh.M)
        H_spin = build_spin_hamiltonian(L, spec.gamma)
        assert np.max(np.abs(H_modes - H_spin)) < 1e-13


def test_ed_eigen_sorting_and_residual():
    H = build_spin_hamiltonian(4, 0.8 + 0.2j)
    res = ed_eigen(H)
    keys = np.lexsort((res.values.imag, res.values.real))
    assert np.all(keys == np.arange(16))
    assert res.max_residual < 1e-10
    vals_only = ed_eigen(H, want_vectors=False)
    assert vals_only.vectors is None
    assert_allclose(vals_only.values, res.values, atol=1e-10)


def test_ed_eigen_size_limits():
    with pytest.raises(SizeLimit):
        ed_eigen(np.zeros((2 ** 11, 2 ** 11)), want_vectors=True)
    with pytest.raises(SizeLimit):
        ed_eigen(np.zeros((2 ** 13, 2 ** 13)), want_vectors=False)
    with pytest.raises(SizeLimit, match="at least two sites"):
        build_spin_hamiltonian(1, 0.3 + 0.2j)
    with pytest.raises(SizeLimit, match="capped at L = 12"):
        build_spin_hamiltonian(SPIN_LIMIT + 1, 0.3 + 0.2j)
    with pytest.raises(SizeLimit, match="capped at L = 8"):
        realize_operator(REALIZE_LIMIT + 1, np.zeros(2 * REALIZE_LIMIT + 2))
    # refused before any array is built
    for L in (-1, 0, SPIN_LIMIT + 1, 40):
        with pytest.raises(SizeLimit, match="parity sectors need"):
            parity_sectors(L)
    with pytest.raises(SizeLimit, match="capped at dimension 2\\^10"):
        geometric_multiplicities(np.zeros((2 ** VECTOR_LIMIT + 1,) * 2))


def test_many_body_vs_ed():
    for _ in range(3):
        spec = ChainSpec(6, random_gamma())
        analytic = many_body_energies(spec).energies
        ed = ed_eigen(build_spin_hamiltonian(6, spec.gamma),
                      want_vectors=False)
        scale = max(1.0, float(np.max(np.abs(ed.values))))
        m = match_spectra(analytic, ed.values, tol=1e-8 * scale)
        assert m.max_abs_diff < 1e-8 * scale


def test_l4_closed_form_matches_ed():
    g = 0.7 + 0.3j
    cf = l4_closed_form(g)
    assert cf.energies.shape == (16,)
    assert len(cf.labels) == 16
    H = build_spin_hamiltonian(4, g)
    m = match_spectra(cf.energies, np.linalg.eigvals(H), tol=1e-10)
    assert m.max_abs_diff < 1e-10
    # the tabulated vectors are exact eigenvectors, not just the values
    for k in range(16):
        v = cf.vectors[:, k]
        v = v / np.linalg.norm(v)
        assert np.max(np.abs(H @ v - cf.energies[k] * v)) < 1e-10


def test_l4_closed_form_limit_required():
    for g in (0.0, 1.0, -1.0, 0j, 1 + 0j):
        with pytest.raises(DegenerateInput, match="closed forms degenerate"):
            l4_closed_form(g)


def test_l4_closed_form_refuses_anisotropies_it_cannot_keep_finite():
    # 5 gamma^2 or a cubed energy once overflowed into NaN energies with a
    # RuntimeWarning; just inside the range every entry is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for g in (1e160, 1e200, 1e150 + 1e150j, 1e103, 5e-324):
            with pytest.raises(DegenerateInput, match="closed forms overflow"):
                l4_closed_form(g)
        for g in (6.9e101, 6.9e101j, -6.9e101 + 6.9e101j, 2.4e-308, 1e-300j):
            cf = l4_closed_form(g)
            assert np.all(np.isfinite(cf.energies))
            assert np.all(np.isfinite(cf.vectors))


def test_geometric_multiplicities_defective_block():
    H = np.zeros((3, 3), dtype=complex)
    H[0, 0] = H[1, 1] = 1.0
    H[0, 1] = 1.0
    H[2, 2] = 2.0
    records = geometric_multiplicities(H)
    assert [(r.algebraic, r.geometric) for r in records] == [(2, 1), (1, 1)]
    assert abs(records[0].value - 1.0) < 1e-7
    assert abs(records[1].value - 2.0) < 1e-12


def test_geometric_multiplicities_refuse_three_values_inside_the_join_radius():
    # 0, 1e-9 and 3e-9 stand far closer to one another than to 1 and 2
    with pytest.raises(DegenerateInput, match="three or more eigenvalues cluster"):
        geometric_multiplicities(np.diag([0.0, 1e-9, 3e-9, 1.0, 2.0]))


def test_geometric_multiplicities_never_join_values_of_different_leaves():
    # the parity splits the spectrum into {0, 1} and {6e-8, 1.2e-7}; within
    # its leaf each pair is as far apart as the leaf's norm, so all are simple
    records = geometric_multiplicities(np.diag([0.0, 6e-8, 1.2e-7, 1.0]))
    assert [(r.algebraic, r.geometric) for r in records] == [(1, 1)] * 4
    assert [r.value for r in records] == [0.0, 6e-8, 1.2e-7, 1.0]


def test_geometric_multiplicities_ambiguous_cluster():
    with pytest.raises(DegenerateInput, match="nullity 0"):
        geometric_multiplicities(np.diag([0.0, 5e-7, 1.0]))


@pytest.mark.parametrize("L, n_eps", [(4, None), (6, None), (8, None), (10, 1)])
def test_geometric_multiplicities_count_the_ep_states(L, n_eps):
    # at an EP the chain has 3 * 2^(L-2) independent eigenstates, one in
    # each of its 2^(L-2) defective pairs
    for ep in locate_eps(L, "both")[:n_eps]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", XYEPWarning)
            count = ep_state_catalog(ChainSpec(L, ep.gamma), ep).count
        records = geometric_multiplicities(build_spin_hamiltonian(L, ep.gamma))
        assert sum(r.geometric for r in records) == count == 3 * 2 ** (L - 2)
        assert sum((r.algebraic, r.geometric) == (2, 1) for r in records) \
            == 2 ** (L - 2)


def test_geometric_multiplicities_solve_only_leaf_blocks(monkeypatch):
    # the census runs on the leaf blocks of ed_eigen, the largest of 40 at
    # L = 8, and runs a rank test for each defective pair only
    H = build_spin_hamiltonian(8, locate_eps(8, "both")[0].gamma)
    sizes = {"eigvals": [], "svd": []}
    for name, log in sizes.items():
        def counting(B, *args, _real=getattr(np.linalg, name), _log=log, **kw):
            _log.append(B.shape[0])
            return _real(B, *args, **kw)
        monkeypatch.setattr(np.linalg, name, counting)
    geometric_multiplicities(H)
    assert max(sizes["eigvals"] + sizes["svd"]) <= 40
    assert len(sizes["svd"]) == 2 ** (8 - 2)


def test_match_spectra_permutation_and_mismatch():
    a = np.array([1 + 1j, -2.0, 0.3j, 4.0])
    m = match_spectra(a, a[::-1])
    assert m.max_abs_diff == 0.0
    assert not m.greedy_used
    assert_allclose(a[m.order_a], a[::-1][m.order_b], atol=0)
    with pytest.raises(DegenerateInput, match="spectra differ in size"):
        match_spectra(a, a[:3])


def test_match_spectra_greedy_fallback():
    # real parts straddle the 1e-9 rounding bucket, so the sorted pairing
    # crosses branches and the nearest-neighbour fallback must kick in
    a = np.array([4.9e-10 + 1j, 5.1e-10 + 0j])
    b = np.array([5.1e-10 + 1j, 4.9e-10 + 0j])
    m = match_spectra(a, b, tol=1e-8)
    assert m.greedy_used
    assert m.max_abs_diff < 1e-9
    assert_allclose(a[m.order_a], b[m.order_b], atol=1e-9)


def test_realize_operator_reproduces_scalar_anticommutators():
    from xyep.basis import anticommutator

    spec = ChainSpec(4, 0.45 - 0.7j)
    coeffs = operator_coefficients(assemble_basis(spec))
    eye = np.eye(2 ** 4)
    pairs = [("R", 1, "Lstar", 1), ("R", 1, "Lstar", 2), ("R", 2, "R", 1),
             ("L", 1, "Rstar", 1), ("Lstar", 3, "Lstar", 4), ("R", 1, "Rstar", 3)]
    for fam_a, i, fam_b, j in pairs:
        row_a = getattr(coeffs, fam_a)[i - 1]
        row_b = getattr(coeffs, fam_b)[j - 1]
        X = realize_operator(4, row_a)
        Y = realize_operator(4, row_b)
        scalar = anticommutator(coeffs, fam_a, i, fam_b, j)
        assert np.max(np.abs(X @ Y + Y @ X - scalar * eye)) < 1e-9


def test_realize_operator_row_length_check():
    with pytest.raises(DegenerateInput, match="row must have length 8"):
        realize_operator(4, np.zeros(6))


def test_build_ep_states_four_sites():
    records = locate_eps(4)
    ep = min(records, key=lambda r: abs(r.gamma - (0.6 + 0.8j)))
    assert abs(ep.gamma - (0.6 + 0.8j)) < 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", XYEPWarning)
        spec = ChainSpec(4, ep.gamma)
        jd = jordan_decomposition(spec, ep)
        st = build_ep_states(spec, jd)
    assert st.states.shape == (16, 12)
    assert st.rank == 12
    assert st.max_eigen_residual < 1e-8 * st.h_norm
    assert st.vacuum_dims == (8, 8)
    assert sorted(set(st.sectors)) == ["minus_minus", "mixed", "plus_plus"]
    assert all(len(occ) == 4 for occ in st.occupations)
    # the mixed eigenvectors agree whichever vacuum they are grown from
    assert st.mixed_overlap_min > 1 - 1e-8
    # naive repeated raising with the defective mode collapses
    assert st.naive_square_norm < 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", XYEPWarning)
        cat = ep_state_catalog(spec, ep)
    ground = min((e.energy for e in cat.entries), key=lambda e: e.real)
    assert min(st.energies, key=lambda e: e.real) == pytest.approx(ground)


@pytest.mark.parametrize("L, k", [(L, k) for L in (4, EP_STATE_LIMIT)
                                  for k in range(2 * (L - 2))])
def test_build_ep_states_at_every_ep_up_to_its_size_limit(L, k):
    ep = locate_eps(L)[k]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", XYEPWarning)
        spec = ChainSpec(L, ep.gamma)
        jd = jordan_decomposition(spec, ep)
        st = build_ep_states(spec, jd)
        cat = ep_state_catalog(spec, ep)
    count = 3 * 2 ** (L - 2)
    assert st.states.shape == (2 ** L, count)
    assert st.rank == count
    assert st.max_eigen_residual < 1e-8 * st.h_norm
    assert st.mixed_overlap_min > 1 - 1e-8
    assert st.vacuum_dims == (2 ** (L - 1), 2 ** (L - 1))
    # the explicit states follow the catalog entry by entry
    assert st.occupations == [e.occupation for e in cat.entries]
    assert_allclose(st.energies, [e.energy for e in cat.entries], rtol=0,
                    atol=1e-12)


def test_build_ep_states_refuses_another_chains_jordan_decomposition():
    ep = min(locate_eps(4), key=lambda r: abs(r.gamma - (0.6 + 0.8j)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", XYEPWarning)
        jd = jordan_decomposition(ChainSpec(4, ep.gamma), ep)
    for spec in (ChainSpec(4, 0.3 + 0.2j), ChainSpec(6, ep.gamma)):
        with pytest.raises(DegenerateInput, match="another chain"):
            build_ep_states(spec, jd)


def test_build_ep_states_size_limit():
    spec = ChainSpec(EP_STATE_LIMIT + 2, 0.5 + 0.5j)
    with pytest.raises(SizeLimit):
        build_ep_states(spec, None)
