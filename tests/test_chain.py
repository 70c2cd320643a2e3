import dataclasses
import warnings

import numpy as np
import pytest

import xyep.chain as chain_module
from xyep.basis import assemble_basis, column_from_halves, many_body_energies
from xyep.chain import (
    ChainSpec,
    build_quasi_hamiltonian,
    eps_of_x,
    gamma_to_lambda,
    lambda_to_gamma,
    mode_arrays,
    mode_spectra,
    mode_vector_poly,
    mode_vectors,
    quasi_energies,
)
from xyep.ep import jordan_decomposition, locate_eps
from xyep.errors import (
    DefectiveBasis,
    DegenerateInput,
    EpsilonZero,
    LambdaSingular,
    ModeCoincidenceWarning,
    NearEPWarning,
    NonConvergence,
)
from xyep.oracle import (build_spin_hamiltonian, l4_closed_form, parity_sectors,
                         realize_operator)
from xyep.polyalg import _CHUNK_ENTRIES, chebyshev_u
from xyep.topology import overlap_grid, track_loop

RNG = np.random.default_rng(20240816)


def random_gammas(n, avoid_real_axis=True):
    g = RNG.uniform(-1.6, 1.6, n) + 1j * RNG.uniform(0.15, 1.6, n)
    return [complex(z) for z in g]


def test_spec_validation():
    with pytest.raises(DegenerateInput):
        ChainSpec(3, 0.5)
    with pytest.raises(DegenerateInput):
        ChainSpec(0, 0.5)
    with pytest.raises(LambdaSingular):
        ChainSpec(4, -1.0)
    assert ChainSpec(6, 0.2).n_pairs == 3


def test_lambda_gamma_roundtrip():
    for g in random_gammas(10) + [0.3 + 0.4j, -1.2, 2.0 - 0.7j]:
        lam = gamma_to_lambda(g)
        assert lambda_to_gamma(lam) == pytest.approx(g, abs=1e-13)
        # swapping the mode role inverts lambda and negates gamma
        assert gamma_to_lambda(-g) == pytest.approx(1 / lam, abs=1e-13)
    with pytest.raises(LambdaSingular):
        gamma_to_lambda(-1.0)
    with pytest.raises(LambdaSingular):
        lambda_to_gamma(1.0)


def x_of_eps(gamma, eps):
    """The dispersion solved for the Chebyshev variable x of a quasi-energy."""
    return (2 * eps * eps - 1 - gamma * gamma) / (1 - gamma * gamma)


def test_x_eps_maps_inverse():
    for g in random_gammas(6):
        for _ in range(4):
            e = complex(RNG.standard_normal() + 1j * RNG.standard_normal())
            x = x_of_eps(g, e)
            back = eps_of_x(g, x)
            # principal square root: agreement up to overall sign
            assert min(abs(back - e), abs(back + e)) < 1e-12 * (1 + abs(e))
            assert back.real > 0 or (back.real == 0 and back.imag >= 0) \
                or abs(back) < 1e-300


def test_quasi_hamiltonian_structure():
    spec = ChainSpec(6, 0.4 + 0.3j)
    qh = build_quasi_hamiltonian(spec)
    L = spec.L
    A, B, M = qh.A, qh.B, qh.M
    S = quasi_matrix_by_definition(L, spec.gamma)[3]
    np.testing.assert_allclose(M[:L, :L], A)
    np.testing.assert_allclose(M[:L, L:], B)
    np.testing.assert_allclose(M[L:, :L], -B)
    np.testing.assert_allclose(M[L:, L:], -A)
    np.testing.assert_allclose(M, M.T)  # complex symmetric
    np.testing.assert_allclose(A, A.T)
    np.testing.assert_allclose(B, -B.T)
    np.testing.assert_allclose(S @ S, np.eye(2 * L), atol=1e-15)
    # column_from_halves is left-multiplication by S
    halves = RNG.standard_normal((2 * L, 3)) + 1j * RNG.standard_normal((2 * L, 3))
    np.testing.assert_allclose(column_from_halves(halves[:L], halves[L:]),
                               S @ halves, atol=1e-15)
    # nearest-neighbour couplings only
    assert np.max(np.abs(np.triu(A, 2))) == 0
    assert abs(A[0, 1] - 0.5) < 1e-15
    assert abs(B[0, 1] - (0.4 + 0.3j) / 2) < 1e-15


def quasi_matrix_by_definition(L, g):
    """A, B, M = [[A, B], [-B, -A]] and S, entry by entry from the definition."""
    A = np.zeros((L, L), dtype=complex)
    B = np.zeros((L, L), dtype=complex)
    for j in range(L - 1):
        A[j, j + 1] = A[j + 1, j] = 0.5
        B[j, j + 1] = g / 2
        B[j + 1, j] = -g / 2
    eye = np.eye(L)
    return (A, B, np.block([[A, B], [-B, -A]]),
            np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0))


def test_quasi_hamiltonian_is_its_definition():
    for L in range(2, 14, 2):
        for g in (0.4 + 0.3j, -1.2 + 0.7j, 2.5 - 0.3j, 0.9j):
            qh = build_quasi_hamiltonian(ChainSpec(L, g))
            *matrices, S = quasi_matrix_by_definition(L, g)
            for got, want in zip((qh.A, qh.B, qh.M), matrices):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            # S itself is column_from_halves of the identity's halves
            top, bottom = np.split(np.eye(2 * L), 2)
            assert np.array_equal(column_from_halves(top, bottom), S)


def test_l2_quasi_energies_closed_form():
    g = 0.3 + 0.4j
    pts = quasi_energies(ChainSpec(2, g))
    got = sorted((p.mode, p.epsilon) for p in pts)
    assert got[0][0] == "I" and got[1][0] == "II"
    assert got[0][1] == pytest.approx((1 + g) / 2, abs=1e-14)
    assert got[1][1] == pytest.approx((1 - g) / 2, abs=1e-14)


def test_gamma_zero_energies_are_cosines():
    # open XX chain: quasi-energies cos(n pi / (L+1)), doubly degenerate
    for L in (4, 8, 14):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModeCoincidenceWarning)
            pts = quasi_energies(ChainSpec(L, 0.0))
        expect = sorted(
            [np.cos(n * np.pi / (L + 1)) for n in range(1, L // 2 + 1)] * 2,
            reverse=True)
        got = sorted((p.epsilon.real for p in pts), reverse=True)
        np.testing.assert_allclose(got, expect, atol=1e-13)
        assert max(abs(p.epsilon.imag) for p in pts) < 1e-13


def test_boundary_polynomial_roots_are_quasi_energy_xs():
    spec = ChainSpec(8, 0.7 - 0.2j)
    n = spec.n_pairs
    lam = gamma_to_lambda(spec.gamma)
    for mode, mode_lam in (("I", lam), ("II", 1 / lam)):
        xs = np.array([p.x for p in quasi_energies(spec) if p.mode == mode])
        u = chebyshev_u(xs, n)[0]
        vals = u[n + 1] - mode_lam * u[n]
        assert np.max(np.abs(vals)) < 1e-10


def test_quasi_energies_label_branches_of_each_mode():
    spec = ChainSpec(12, -0.45 + 0.75j)
    points = quasi_energies(spec)
    assert quasi_energies(spec, warn=False) == points
    for mode, pts in (("I", points[:6]), ("II", points[6:])):
        assert [p.branch for p in pts] == list(range(1, 7))
        assert all(p.mode == mode and p.sign == 1 for p in pts)
        keys = [(p.epsilon.real, p.epsilon.imag) for p in pts]
        assert keys == sorted(keys, reverse=True)
        assert all(p.epsilon == eps_of_x(spec.gamma, p.x) for p in pts)


def test_mode_spectra_rows_are_the_quasi_energies():
    # one root solve for many anisotropies; each row is, bit for bit, the
    # labelled points of its anisotropy alone, mode I's five then mode II's
    gammas = np.array(random_gammas(7) + [0.0, 2.5 - 0.3j, -0.9])
    for k, mode in enumerate(("I", "II")):
        eps, x = mode_spectra(10, gammas, mode)
        assert eps.shape == x.shape == (gammas.size, 1, 5)
        for g, e_row, x_row in zip(gammas, eps[:, 0], x[:, 0]):
            pts = quasi_energies(ChainSpec(10, g), warn=False)
            pts = pts[5 * k: 5 * k + 5]
            assert np.array_equal(e_row, [p.epsilon for p in pts])
            assert np.array_equal(x_row, [p.x for p in pts])
    for g in (1.0, -1.0):
        with pytest.raises(LambdaSingular):
            mode_spectra(6, [0.3 + 0.2j, g], "I")
    with pytest.raises(DegenerateInput):
        mode_spectra(5, [0.3], "I")
    with pytest.raises(DegenerateInput, match="'I', 'II' or 'both', got 'III'"):
        mode_spectra(6, [0.3], "III")


def test_both_modes_are_the_one_mode_rows_side_by_side():
    # one root solve for both modes; each row is, bit for bit, the two
    # one-mode rows side by side.  At n = 100 the stacked batch crosses a
    # chunk boundary of the root kernel that the one-mode batches do not.
    rows_per_chunk = _CHUNK_ENTRIES // 100 ** 2
    for L, gammas in ((10, random_gammas(9) + [0.0, 2.5 - 0.3j, -0.9]),
                      (200, random_gammas(14))):
        if L == 200:
            assert len(gammas) < rows_per_chunk < 2 * len(gammas)
        both = mode_spectra(L, gammas, "both")
        for got, one, two in zip(both, mode_spectra(L, gammas, "I"),
                                 mode_spectra(L, gammas, "II")):
            assert got.shape == (len(gammas), 2, L // 2)
            assert np.array_equal(got, np.hstack([one, two]))
    spec = ChainSpec(10, gammas[0])
    eps, x = mode_spectra(10, spec.gamma, "both")
    pts = quasi_energies(spec, warn=False)
    assert np.array_equal(eps[0], [[p.epsilon for p in pts[:5]],
                                   [p.epsilon for p in pts[5:]]])
    assert np.array_equal(x[0], [[p.x for p in pts[:5]], [p.x for p in pts[5:]]])


def test_gamma_maps_give_the_same_bits_for_scalars_and_arrays():
    g = np.array(random_gammas(50) + [0.3, -2.0, 1j])
    x = RNG.standard_normal(g.size) + 1j * RNG.standard_normal(g.size)
    lam = gamma_to_lambda(g)
    assert np.array_equal(lam, [gamma_to_lambda(z) for z in g])
    assert np.array_equal(lambda_to_gamma(lam), [lambda_to_gamma(z) for z in lam])
    assert np.array_equal(eps_of_x(g, x), [eps_of_x(a, b) for a, b in zip(g, x)])
    assert all(type(f(0.3 + 0.1j)) is complex
               for f in (gamma_to_lambda, lambda_to_gamma))
    assert type(eps_of_x(0.3 + 0.1j, 0.5)) is complex


def values_along_dispersion(spec, mode, eps):
    phi, psi, _ = mode_arrays(spec.L, spec.gamma, mode, eps, x_of_eps(spec.gamma, eps))
    return np.concatenate([phi[0], psi[0]])


def test_mode_arrays_derivative_follows_the_dispersion():
    spec = ChainSpec(10, 0.35 - 0.6j)
    h = 1e-5
    points = quasi_energies(spec, warn=False)
    for mode, pts in (("I", points[:5]), ("II", points[5:])):
        eps = np.array([p.epsilon for p in pts])
        x = np.array([p.x for p in pts])
        block = mode_arrays(spec.L, spec.gamma, mode, eps, x, order=1)
        # all roots of the mode in one call, then each root as a scalar (k = 1)
        for j, (e, xx) in enumerate([(eps, x)] + list(zip(eps, x))):
            k = np.size(e)
            phi, psi, boundary = mode_arrays(spec.L, spec.gamma, mode, e, xx, order=1)
            phi0, psi0, boundary0 = mode_arrays(spec.L, spec.gamma, mode, e, xx)
            assert phi.shape == psi.shape == (2, 10, k)
            assert phi0.shape == psi0.shape == (1, 10, k)
            assert boundary.shape == boundary0.shape == (k,)
            # the values row is the order-0 evaluation itself
            assert np.array_equal(phi[0], phi0[0]) and np.array_equal(psi[0], psi0[0])
            assert np.array_equal(boundary, boundary0)
            if j:
                # one root on its own is that root's column of the block,
                # up to rounding (numpy's loops may round by batch size)
                for one, many in zip((phi, psi, boundary), block):
                    col = many[..., j - 1:j]
                    assert np.max(np.abs(one - col)) <= 1e-14 * np.max(np.abs(col))
            # central difference along the dispersion x(eps), column by column
            fd = (values_along_dispersion(spec, mode, e + h)
                  - values_along_dispersion(spec, mode, e - h)) / (2 * h)
            exact = np.concatenate([phi[1], psi[1]])
            assert np.all(np.max(np.abs(exact - fd), axis=0)
                          < 1e-7 * np.max(np.abs(exact), axis=0))
    with pytest.raises(DegenerateInput):
        mode_arrays(spec.L, spec.gamma, mode, eps, x, order=2)


def test_stacked_mode_arrays_match_one_anisotropy_calls():
    # a stack of m anisotropies is m evaluations side by side, at either
    # order: slice i is bit for bit the call at gammas[i] alone
    rng = np.random.default_rng(5)
    gammas = rng.uniform(-2, 2, 9) + 1j * rng.uniform(-2, 2, 9)
    L, n = 10, 5
    eps, x = mode_spectra(L, gammas, "both")
    for order in (0, 1):
        for k, mode in enumerate(("I", "II")):
            stacked = mode_arrays(L, gammas, mode, eps[:, k], x[:, k], order)
            assert stacked[0].shape == stacked[1].shape == (9, order + 1, L, n)
            assert stacked[2].shape == (9, n)
            for i, g in enumerate(gammas):
                one = mode_arrays(L, g, mode, eps[i, k], x[i, k], order)
                for got, want in zip(stacked, one):
                    assert np.array_equal(got[i], want)


def test_every_consumer_makes_one_mode_arrays_call_per_mode(monkeypatch):
    # chain.chebyshev_u is called once per mode_arrays call and nowhere else
    shapes = []
    real = chain_module.chebyshev_u

    def counting(x, n, order=0):
        shapes.append(np.shape(x))
        return real(x, n, order)

    monkeypatch.setattr(chain_module, "chebyshev_u", counting)
    assemble_basis(ChainSpec(40, 0.3 + 0.4j))
    assert shapes == [(20,), (20,)]
    shapes.clear()
    ep = next(r for r in locate_eps(20) if r.mode == "II")
    jordan_decomposition(ChainSpec(20, ep.gamma), ep)
    # mode I whole, mode II without the coalescing pair, then the
    # +eps_EP chain, whose image is the -eps_EP chain
    assert shapes == [(10,), (8,), (1,)]
    shapes.clear()
    # the cell nearest the EP, read once for the sector, then all 2 x 2
    # cells in one stacked chunk
    overlap_grid(6, 0.0, 0.7, 0.2, 0.9, 2, 2)
    assert shapes == [(1, 3), (1, 3), (4, 3), (4, 3)]


def test_boundary_polynomial_pole():
    for mode in ("I", "II"):
        with pytest.raises(LambdaSingular):
            mode_spectra(4, 1.0, mode)
    with pytest.raises(LambdaSingular):
        quasi_energies(ChainSpec(4, 1.0))
    with pytest.raises(DegenerateInput):
        mode_spectra(4, 0.5, "III")


def test_mode_vectors_parity_support_exact():
    # arrays are 0-indexed: site 2m sits at index 2m-1, so mode I phi
    # (even sites) occupies odd indices and psi (odd sites) even indices
    spec = ChainSpec(10, -0.4 + 0.9j)
    for p in quasi_energies(spec):
        mv = mode_vector_poly(spec, p)
        if p.mode == "I":
            assert np.all(mv.phi[0::2] == 0)
            assert np.all(mv.psi[1::2] == 0)
        else:
            assert np.all(mv.phi[1::2] == 0)
            assert np.all(mv.psi[0::2] == 0)


def test_mode_equations_and_normalization():
    for L in (2, 6, 12, 14):
        for g in random_gammas(3):
            spec = ChainSpec(L, g)
            qh = build_quasi_hamiltonian(spec)
            for p in quasi_energies(spec):
                mv = mode_vector_poly(spec, p)
                # (A+B) phi = eps psi and (A-B) psi = eps phi, densely
                r1 = (qh.A + qh.B) @ mv.phi - mv.epsilon * mv.psi
                r2 = (qh.A - qh.B) @ mv.psi - mv.epsilon * mv.phi
                assert max(np.linalg.norm(r1), np.linalg.norm(r2)) < 1e-10
                norm = mv.phi @ mv.phi + mv.psi @ mv.psi
                assert abs(norm - 1) < 1e-10
                assert mv.boundary_residual < 1e-8


def test_minus_branch_is_sign_partner():
    spec = ChainSpec(6, 0.5 + 0.6j)
    pts = quasi_energies(spec)
    for p in pts:
        mv_plus = mode_vector_poly(spec, p)
        mv_minus = mode_vector_poly(spec, p.negated())
        np.testing.assert_allclose(mv_minus.phi, -mv_plus.phi, atol=1e-12)
        np.testing.assert_allclose(mv_minus.psi, mv_plus.psi, atol=1e-12)


def test_mode_vectors_normalize_each_column_of_one_mode():
    spec = ChainSpec(12, -0.3 + 0.7j)
    points = quasi_energies(spec, warn=False)
    for mode, pts in (("I", points[:6]), ("II", points[6:])):
        phi, psi, scale, residual = mode_vectors(spec, mode, pts)
        raw_phi, raw_psi, _ = mode_arrays(spec.L, spec.gamma, mode,
                                          [p.epsilon for p in pts], [p.x for p in pts])
        assert np.array_equal(phi, raw_phi[0] * scale)
        assert np.array_equal(psi, raw_psi[0] * scale)
        assert np.max(np.abs(np.sum(phi * phi + psi * psi, axis=0) - 1)) < 1e-12
        assert np.all(residual < 1e-8)
        for j, p in enumerate(pts):
            # the k = 1 case is mode_vector_poly, the same column to rounding
            mv = mode_vector_poly(spec, p)
            col = np.concatenate([phi[:, j], psi[:, j]])
            one = np.concatenate([mv.phi, mv.psi])
            assert np.max(np.abs(one - col)) < 1e-14
            assert mv.boundary_residual < 1e-8
            # a -eps point yields the same +eps halves
            plus, _, _, _ = mode_vectors(spec, mode, [p])
            minus, _, _, _ = mode_vectors(spec, mode, [p.negated()])
            assert np.array_equal(minus, plus)


def test_column_sign_does_not_depend_on_the_batch():
    # the largest entries of a column tie under the chain's reflection
    # symmetry, so a sign read from them followed rounding; these columns
    # came out negated between one point and the whole mode
    for L, g, mode, branch in ((12, -0.3 + 0.7j, "I", 5),
                               (20, 0.2 + 0.1j, "II", 8)):
        spec = ChainSpec(L, g)
        pts = quasi_energies(spec, warn=False)
        pts = pts[:L // 2] if mode == "I" else pts[L // 2:]
        phi, psi, _, _ = mode_vectors(spec, mode, pts)
        mv = mode_vector_poly(spec, pts[branch - 1])
        assert np.max(np.abs(mv.phi - phi[:, branch - 1])) < 1e-14
        assert np.max(np.abs(mv.psi - psi[:, branch - 1])) < 1e-14
        # the site-1 entry carries the sign: Re > 0 in every column
        assert np.all((phi[0] + psi[0]).real > 0)


def test_epsilon_zero_rejected():
    spec = ChainSpec(4, 0.2 + 0.1j)
    pt = quasi_energies(spec)[0]
    broken = type(pt)(mode=pt.mode, branch=pt.branch, sign=pt.sign,
                      epsilon=0.0, x=pt.x)
    with pytest.raises(EpsilonZero):
        mode_vector_poly(spec, broken)


def test_non_finite_quasi_energies_are_refused():
    # gamma^2 overflows above |gamma| ~ 1.34e154; that must not come back
    # as NaN quasi-energies or as numpy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        eps, _ = mode_spectra(4, 1e150, "I")
        assert np.all(np.isfinite(eps))
        with pytest.raises(DegenerateInput, match="not finite at gamma = 1e"):
            mode_spectra(4, [0.3 + 0.2j, 1e200], "II")
        with pytest.raises(DegenerateInput, match="not finite"):
            quasi_energies(ChainSpec(4, 1e200))
        with pytest.raises(DegenerateInput, match="not finite"):
            assemble_basis(ChainSpec(4, 1e155))


def test_non_finite_anisotropies_are_refused_by_name():
    # refused before gamma_to_lambda runs, so numpy warns about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateInput, match=r"got gamma = nan\+0j$"):
            mode_spectra(4, [0.3 + 0.2j, np.nan, complex(np.inf, 0)], "I")
        with pytest.raises(DegenerateInput, match=r"got gamma = inf\+0j$"):
            mode_spectra(4, [0.3, np.inf], "II")
        for g in (np.nan, np.inf, complex(0.2, np.inf)):
            for call in (ChainSpec, build_spin_hamiltonian):
                with pytest.raises(DegenerateInput, match="must be finite"):
                    call(4, g)
            with pytest.raises(DegenerateInput, match="must be finite"):
                l4_closed_form(g)


@pytest.mark.parametrize("call", [
    lambda: ChainSpec(4.0, 0.3),
    lambda: mode_spectra(4.0, 0.3, "I"),
    lambda: locate_eps(6.0),
    lambda: track_loop(4.0, 0.2 + 0.1j, 0.05),
    lambda: track_loop(4, 0.2 + 0.1j, 0.05, steps=9.0),
    lambda: overlap_grid(4, 0.55, 0.65, 0.75, 0.85, n_re=3.0, n_im=3),
    lambda: overlap_grid(4, 0.55, 0.65, 0.75, 0.85, n_re=3, n_im="3"),
    lambda: build_spin_hamiltonian(4.0, 0.3),
    lambda: realize_operator(4.0, np.zeros(8)),
    lambda: parity_sectors(4.0),
])
def test_non_integral_sizes_are_refused(call):
    # each of these once passed validation and died in a raw TypeError
    with pytest.raises(DegenerateInput, match="must be an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ChainSpec(4, "abc"),
    lambda: ChainSpec(4, "0.3"),
    lambda: ChainSpec(4, None),
    lambda: track_loop(4, "abc", 0.05),
    lambda: track_loop(4, 0.2, "0.05"),
    lambda: track_loop(4, 0.2, 0.05 + 0j),
    lambda: overlap_grid(4, "0", 1, 0, 1, 3, 3),
    lambda: overlap_grid(4, 0, 1, 0, 1j, 3, 3),
    lambda: build_spin_hamiltonian(4, "0.3"),
    lambda: l4_closed_form("0.3"),
])
def test_non_numeric_parameters_are_refused(call):
    # each of these once died in a raw ValueError or TypeError, or took a
    # string through complex()
    with pytest.raises(DegenerateInput, match="must be a (real )?number"):
        call()


def test_numpy_scalars_are_numbers():
    assert ChainSpec(4, np.float32(0.5)).gamma == 0.5
    assert ChainSpec(4, np.complex128(0.3 + 0.2j)) == ChainSpec(4, 0.3 + 0.2j)
    assert track_loop(4, np.complex64(0.2 + 0.1j), np.float64(0.05),
                      steps=8).radius == 0.05


def test_unknown_modes_are_refused():
    # any mode but "I" once evaluated as mode II, without a refusal
    spec = ChainSpec(4, 0.3 + 0.2j)
    points = quasi_energies(spec, warn=False)[:2]
    for mode in ("1", "i", "both"):
        with pytest.raises(DegenerateInput, match="mode must be 'I' or 'II'"):
            mode_arrays(spec.L, spec.gamma, mode, [p.epsilon for p in points],
                        [p.x for p in points])
        with pytest.raises(DegenerateInput, match="mode must be 'I' or 'II'"):
            mode_vectors(spec, mode, points)


def test_mode_coincidence_warning_at_gamma_zero():
    with pytest.warns(ModeCoincidenceWarning):
        quasi_energies(ChainSpec(4, 0.0))


def near_ep_messages(spec):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        quasi_energies(spec)
    return [(w.category, str(w.message)) for w in caught]


def test_near_ep_warning():
    # one warning each, 1e-10 from an L = 4 EP and close to an L = 14 one
    tail = "nearly coincide; an exceptional point may be close"
    assert near_ep_messages(ChainSpec(4, 0.6 + 0.8j + 1e-10)) == [
        (NearEPWarning, "mode II: boundary roots -2.49997e-06-0.499993j and "
                        f"2.50004e-06-0.500008j {tail}")]
    assert near_ep_messages(ChainSpec(14, -1.65121487112 + 3.11832745295j)) == [
        (NearEPWarning, "mode I: boundary roots 0.891089+0.0882522j and "
                        f"0.891089+0.0882525j {tail}")]


def test_near_ep_warnings_list_close_pairs_in_row_major_order(monkeypatch):
    # three mutually close roots and one far away: every close pair is
    # reported once, first root first, in the order the roots are listed
    xs = [0.5 + 0j, 0.3 + 0j, 0.5 + 2e-5j, 0.50003 + 0j]

    def fake_spectra(L, gammas, mode):
        # an L = 8 row, four roots per mode; eps is not read by the check
        assert (L, mode) == (8, "both")
        row = np.array([[xs, xs]])
        return row, row

    monkeypatch.setattr(chain_module, "mode_spectra", fake_spectra)
    got = [msg for _, msg in near_ep_messages(ChainSpec(8, 0.3 + 0.2j))]
    pairs = [(0, 2), (0, 3), (2, 3)]
    assert got == [f"mode {mode}: boundary roots {xs[i]:.6g} and {xs[k]:.6g} "
                   "nearly coincide; an exceptional point may be close"
                   for mode in ("I", "II") for i, k in pairs]


def test_warnings_name_the_line_that_called_the_package():
    # both warnings are issued inside xyep.chain, but each names this
    # file, so the default filter shows a repeated one per call site
    for spec, kind in ((ChainSpec(4, 0.0), ModeCoincidenceWarning),
                       (ChainSpec(4, 0.6 + 0.8j + 1e-10), NearEPWarning)):
        for call in (quasi_energies, assemble_basis, many_body_energies):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    call(spec)
                except DefectiveBasis:
                    pass
            assert [(w.category, w.filename) for w in caught] == [(kind, __file__)]


@pytest.mark.xfail(strict=True, reason="eps_of_x cancels the edge quasi-energy "
                   "to noise; ROADMAP item 2 (per-mode product identity) mends it")
def test_the_edge_quasi_energy_matches_high_precision():
    # frozen from an 80-digit mpmath run (mpmath 1.3.0): polyroots of
    # U_10 - lam U_9 in the power basis with mode II's lam = 1/lambda, eps
    # evaluated in mpmath on the principal branch; |eps| = 2.70855197358549e-9
    ref = complex(2.5665232519614675e-09, -8.6557044239911730e-10)
    edge = quasi_energies(ChainSpec(20, 1.3 + 0.1j), warn=False)[-1]
    assert (edge.mode, edge.branch) == ("II", 10)
    assert abs(edge.epsilon - ref) <= 1e-12 * abs(ref)


def test_real_gamma_spectra_real():
    for g in (0.35, -0.8, 1.7, 2.5):
        pts = quasi_energies(ChainSpec(10, g))
        assert max(abs(p.epsilon.imag) for p in pts) < 1e-10


def count_root_solves(monkeypatch, fail_first=False):
    """Calls of chain's boundary_roots from now on; optionally refuse the first."""
    calls = []
    real = chain_module.boundary_roots

    def counting(*args):
        calls.append(args)
        if fail_first and len(calls) == 1:
            raise NonConvergence("patched refusal")
        return real(*args)

    monkeypatch.setattr(chain_module, "boundary_roots", counting)
    return calls


def test_a_spec_solves_its_roots_once(monkeypatch):
    calls = count_root_solves(monkeypatch)
    spec = ChainSpec(8, 0.3 - 0.4j)
    quasi_energies(spec)
    assemble_basis(spec)
    many_body_energies(spec)
    quasi_energies(spec, warn=False)
    assert len(calls) == 1


def test_equal_specs_do_not_share_a_solve(monkeypatch):
    calls = count_root_solves(monkeypatch)
    a, b = ChainSpec(8, 0.3 - 0.4j), ChainSpec(8, 0.3 - 0.4j)
    assert a == b and hash(a) == hash(b)
    quasi_energies(a)
    quasi_energies(b)
    assert len(calls) == 2


def test_the_kept_spectrum_is_read_only():
    spec = ChainSpec(6, 0.3 + 0.2j)
    first = quasi_energies(spec)
    assert isinstance(spec._points, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec._points[0].epsilon = 0
    # every call hands out a new list of the kept points
    kept = list(first)
    first.reverse()
    first[0] = None
    second = quasi_energies(spec)
    assert second is not first and second == kept
    # a spec near an EP warns on every call that asks for warnings
    near = ChainSpec(4, 0.6 + 0.8j + 1e-10)
    for _ in range(3):
        with pytest.warns(NearEPWarning):
            quasi_energies(near)
    # and a spec that is never asked for them never looks for near pairs
    quiet = ChainSpec(8, 0.6 + 0.8j)
    quasi_energies(quiet, warn=False)
    assert "_points" in vars(quiet) and "_near_ep_pairs" not in vars(quiet)


def test_a_near_ep_spec_warns_on_every_call():
    spec = ChainSpec(4, 0.6 + 0.8j + 1e-10)
    first = near_ep_messages(spec)
    assert len(first) == 1 and first[0][0] is NearEPWarning
    assert near_ep_messages(spec) == first


def test_a_refused_solve_is_not_kept(monkeypatch):
    calls = count_root_solves(monkeypatch, fail_first=True)
    spec = ChainSpec(6, 0.3 + 0.2j)
    with pytest.raises(NonConvergence, match="patched refusal"):
        quasi_energies(spec)
    assert quasi_energies(spec) == quasi_energies(ChainSpec(6, 0.3 + 0.2j))
    assert len(calls) == 3


def test_a_reused_spec_returns_what_a_fresh_one_does():
    spec = ChainSpec(10, 0.35 - 0.55j)
    quasi_energies(spec)
    basis, many = assemble_basis(spec), many_body_energies(spec)
    fresh = ChainSpec(10, 0.35 - 0.55j)
    assert quasi_energies(spec) == quasi_energies(fresh)
    fresh_basis = assemble_basis(ChainSpec(10, 0.35 - 0.55j))
    assert np.array_equal(basis.V, fresh_basis.V)
    assert np.array_equal(basis.Lambda, fresh_basis.Lambda)
    assert np.array_equal(many.energies,
                          many_body_energies(ChainSpec(10, 0.35 - 0.55j)).energies)
