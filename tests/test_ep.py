"""Exceptional-point search, Jordan chains, and the many-body census."""

import dataclasses
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import xyep.basis as basis_module
import xyep.chain as chain_module
import xyep.ep as ep_module
from xyep.chain import (ChainSpec, build_quasi_hamiltonian, gamma_to_lambda,
                        lambda_to_gamma, quasi_energies)
from xyep.ep import (coalescing_order, ep_state_catalog,
                     generalized_eigenvector, jordan_decomposition,
                     locate_eps, reference_ep_gammas)
from xyep.basis import (MANY_BODY_LIMIT, assemble_basis, column_from_halves,
                        pair_columns)
from xyep.errors import DefectiveBasis, DegenerateInput, SizeLimit, XYEPWarning
from xyep.oracle import build_spin_hamiltonian, ed_eigen, match_spectra

L4_EP_GAMMA = 0.6 + 0.8j


def closest_record(records, gamma):
    return min(records, key=lambda r: abs(r.gamma - gamma))


def quiet_spec(L, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", XYEPWarning)
        return ChainSpec(L, gamma)


def test_lambda_gamma_maps_are_inverse():
    # the map that turns a double root's lambda into the EP's gamma
    for g in (0.3 + 0.4j, -1.2, 2.0 - 0.7j):
        lam = gamma_to_lambda(g)
        assert lambda_to_gamma(lam) == pytest.approx(g, abs=1e-14)


def test_locate_eps_l4_exact_values():
    records = locate_eps(4)
    assert len(records) == 4
    got_II = {r.gamma for r in records if r.mode == "II"}
    got_I = {r.gamma for r in records if r.mode == "I"}
    for expect in (L4_EP_GAMMA, L4_EP_GAMMA.conjugate()):
        assert min(abs(g - expect) for g in got_II) < 1e-12
        assert min(abs(g + expect) for g in got_I) < 1e-12
    for r in records:
        assert abs(abs(r.gamma) - 1.0) < 1e-12
        assert r.boundary_residual < 1e-10
        # independent momentum-space stationarity route confirms the merge
        assert r.momentum_residual < 1e-10
        # epsilon and x lie on the dispersion x = (2 eps^2 - 1 - g^2)/(1 - g^2)
        g = r.gamma
        assert abs(r.x - (2 * r.epsilon ** 2 - 1 - g * g) / (1 - g * g)) < 1e-10


def test_locate_eps_smallest_chain_has_none():
    assert locate_eps(2) == []


def test_locate_eps_count_through_l100():
    for L in range(4, 102, 2):
        assert len(locate_eps(L, "both")) == 2 * (L - 2)


def test_locate_eps_l60_residuals():
    records = locate_eps(60, "both")
    assert len(records) == 116
    for r in records:
        assert r.momentum_residual <= 1e-8
        assert r.boundary_residual <= 1e-10


# mpmath reference (34 digits, Newton in t on the stationarity condition
# of sin((n+1)t) / sin(nt)): the mode II EP of largest |gamma| at L = 100
L100_EP_GAMMA = 10.987702222206883 + 21.54496936243968j
L100_EP_X = 0.997619817451315 - 0.002033021833535923j


def test_locate_eps_l100_matches_frozen_reference():
    ep = closest_record(locate_eps(100, "II"), L100_EP_GAMMA)
    assert abs(ep.gamma - L100_EP_GAMMA) <= 1e-10 * abs(L100_EP_GAMMA)
    assert abs(ep.x - L100_EP_X) <= 1e-10


# mpmath reference (60 digits, Newton on the Wronskian's definition
# U_n' U_{n-1} - U_n U_{n-1}'; Newton on U_400(x) = 401 gives the same 22
# digits): the mode I EP of largest |gamma| at L = 400
L400_EP_X = 0.999849036189058555831 + 0.0001290874912078304694692j
L400_EP_GAMMA = -43.61345551804286300078 + 85.58558040381135229919j


def test_locate_eps_l400_matches_frozen_reference():
    records = locate_eps(400, "both")
    assert len(records) == 2 * 398
    ep = records[0]
    assert (ep.mode, ep.L) == ("I", 400)
    assert abs(ep.x - L400_EP_X) <= 1e-12 * abs(L400_EP_X)
    assert abs(ep.gamma - L400_EP_GAMMA) <= 1e-12 * abs(L400_EP_GAMMA)
    # the momentum-space stationarity condition holds at every root
    assert max(r.momentum_residual for r in records) <= 4e-14


def test_locate_eps_input_validation():
    for bad_L in (0, 3, 7, -4):
        with pytest.raises(DegenerateInput):
            locate_eps(bad_L)
    with pytest.raises(DegenerateInput):
        locate_eps(4, mode="III")


def test_mode_i_is_negated_mode_ii():
    recs_I = locate_eps(8, "I")
    recs_II = locate_eps(8, "II")
    assert len(recs_I) == len(recs_II) == 6
    neg = sorted((-r.gamma for r in recs_II), key=lambda z: (z.real, z.imag))
    got = sorted((r.gamma for r in recs_I), key=lambda z: (z.real, z.imag))
    assert_allclose(np.array(got), np.array(neg), atol=1e-12)
    # EP sets are closed under conjugation
    for r in recs_II:
        assert min(abs(s.gamma - r.gamma.conjugate()) for s in recs_II) < 1e-10


def test_located_eps_match_reference_component_wise():
    # reference values carry four decimals, so compare per component
    for L in (4, 6, 8, 10):
        records = locate_eps(L)
        for mode in ("I", "II"):
            got = [r.gamma for r in records if r.mode == mode]
            refs = reference_ep_gammas(L, mode)
            assert len(got) == len(refs)
            for ref in refs:
                d = min(max(abs(g.real - ref.real), abs(g.imag - ref.imag))
                        for g in got)
                assert d < 5e-5, f"L={L} mode {mode} ref {ref}: {d:.2e}"


def test_reference_gammas_bounds_and_symmetry():
    with pytest.raises(DegenerateInput):
        reference_ep_gammas(16, "II")
    refs_II = reference_ep_gammas(6, "II")
    refs_I = reference_ep_gammas(6, "I")
    assert sorted((-g for g in refs_II), key=lambda z: (z.real, z.imag)) == \
        sorted(refs_I, key=lambda z: (z.real, z.imag))
    for mode in ("both", "x", None):
        with pytest.raises(DegenerateInput, match="mode must be 'I' or 'II'"):
            reference_ep_gammas(4, mode)


def test_coalescing_order_nearest_first_rest_in_branch_order():
    for ep in locate_eps(10):
        points = quasi_energies(quiet_spec(10, ep.gamma + 1e-3), warn=False)
        points = points[:5] if ep.mode == "I" else points[5:]
        order = coalescing_order([p.x for p in points], ep)
        dist = [abs(points[i].x - ep.x) for i in order]
        assert dist[0] <= dist[1] <= min(dist[2:])
        rest = [points[i].branch for i in order[2:]]
        assert rest == sorted(rest)
        assert sorted(points[i].branch for i in order) == list(range(1, 6))


def test_nan_residuals_raise_defective_basis(monkeypatch):
    # a NaN residual fails every comparison, so each gate must refuse it
    ep = closest_record(locate_eps(6), 0.3399 + 0.5547j)
    spec = ChainSpec(6, ep.gamma)
    real_vectors, real_arrays = basis_module.mode_vectors, ep_module.mode_arrays

    def nan_vectors(*args):
        phi, psi, s, res = real_vectors(*args)
        return np.full_like(phi, np.nan), psi, s, res

    def nan_arrays(*args, **kwargs):
        phi, psi, boundary = real_arrays(*args, **kwargs)
        return np.full_like(phi, np.nan), psi, boundary

    with monkeypatch.context() as m:
        m.setattr(basis_module, "mode_vectors", nan_vectors)
        with pytest.raises(DefectiveBasis, match="inverse residual nan"):
            jordan_decomposition(spec, ep)
    monkeypatch.setattr(ep_module, "mode_arrays", nan_arrays)
    for entry in (generalized_eigenvector, jordan_decomposition):
        with np.errstate(invalid="ignore"), pytest.raises(
                DefectiveBasis, match="chain identity residual nan"):
            entry(spec, ep)


def test_generalized_eigenvector_gauge_and_support():
    records = locate_eps(6)
    ep = closest_record(records, 0.3399 + 0.5547j)
    spec = quiet_spec(6, ep.gamma)
    for sign in (+1, -1):
        ch = generalized_eigenvector(spec, ep, sign)
        assert ch.epsilon == pytest.approx(sign * ep.epsilon)
        # gauge: w.w = 0 at the degeneracy, u.w = 1, u.u = 0 by choice of beta
        assert abs(ch.w_self) < 1e-10
        assert abs(ch.cross - 1.0) < 1e-10
        assert abs(ch.u_self) < 1e-10
        assert ch.chain_residual < 1e-8
        assert ch.eigen_residual < 1e-8
        # checkerboard support: mode II puts psi on even sites (odd 0-based
        # indices) and phi on odd sites, for the chain partner too
        if ep.mode == "II":
            zero_phi, zero_psi = ch.phi_w[1::2], ch.psi_w[0::2]
            zero_phi_u, zero_psi_u = ch.phi_u[1::2], ch.psi_u[0::2]
        else:
            zero_phi, zero_psi = ch.phi_w[0::2], ch.psi_w[1::2]
            zero_phi_u, zero_psi_u = ch.phi_u[0::2], ch.psi_u[1::2]
        for arr in (zero_phi, zero_psi, zero_phi_u, zero_psi_u):
            assert np.max(np.abs(arr)) < 1e-12


def test_generalized_eigenvector_rejects_mismatch():
    ep = closest_record(locate_eps(4), L4_EP_GAMMA)
    with pytest.raises(DegenerateInput):
        generalized_eigenvector(ChainSpec(4, 0.5 + 0.1j), ep)
    with pytest.raises(DegenerateInput):
        generalized_eigenvector(quiet_spec(4, ep.gamma), ep, sign=2)


def test_jordan_decomposition_invariants():
    for L, seed_gamma in ((4, L4_EP_GAMMA), (6, 0.8030 + 1.3107j)):
        ep = closest_record(locate_eps(L), seed_gamma)
        spec = quiet_spec(L, ep.gamma)
        jd = jordan_decomposition(spec, ep)
        N = 2 * L
        assert jd.V.shape == jd.J.shape == (N, N)
        assert jd.jordan_residual < 1e-8
        assert jd.inv_residual < 1e-9
        assert jd.rank_deficiency_plus == 1
        assert jd.rank_deficiency_minus == 1
        # J: diagonal plus exactly two superdiagonal units at +-eps_EP
        offdiag = jd.J - np.diag(np.diag(jd.J))
        p = jd.chain_start
        assert offdiag[p, p + 1] == 1.0 and offdiag[p + 2, p + 3] == 1.0
        offdiag[p, p + 1] = offdiag[p + 2, p + 3] = 0.0
        assert np.max(np.abs(offdiag)) == 0.0
        assert jd.J[p, p] == jd.J[p + 1, p + 1] == pytest.approx(ep.epsilon)
        assert jd.J[p + 2, p + 2] == pytest.approx(-ep.epsilon)
        # V_inv rows are the columns transposed, each chain's w and u swapped
        swap = list(range(p)) + [p + 1, p, p + 3, p + 2]
        assert np.array_equal(jd.V_inv, jd.V[:, swap].T)
        assert np.array_equal(column_from_halves(jd.phis, jd.psis), jd.V)
        assert len(jd.points) == p
        assert np.max(np.abs(jd.V_inv @ jd.V - np.eye(N))) < 1e-9


def test_both_bases_take_their_pair_columns_from_pair_columns():
    for L in (4, 6, 10):
        for ep in locate_eps(L):
            spec = quiet_spec(L, ep.gamma)
            jd = jordan_decomposition(spec, ep)
            phis, psis, points = pair_columns(spec, jd.points[0::2])
            assert points == jd.points
            assert np.array_equal(jd.V[:, : jd.chain_start],
                                  column_from_halves(phis, psis))
        spec = ChainSpec(L, 0.3 - 0.2j)
        basis = assemble_basis(spec)
        phis, psis, points = pair_columns(spec, quasi_energies(spec))
        assert points == basis.points
        assert np.array_equal(basis.V, column_from_halves(phis, psis))


def dense_rank_deficiency(M, eps):
    sv = np.linalg.svd(M - eps * np.eye(len(M)), compute_uv=False)
    # the count below is not borderline: one value at rounding level,
    # the next well clear of the 1e-8 relative threshold
    assert sv[-1] < 1e-12 * sv[0] and sv[-2] > 1e-3 * sv[0]
    return int(np.sum(sv < 1e-8 * sv[0]))


def test_jordan_certificates_match_the_dense_formulas_at_every_ep():
    # the residuals come from the checkerboard halves without M; the
    # dense products with M give the same numbers up to rounding
    u = np.finfo(float).eps
    for L in range(4, 22, 2):
        for ep in locate_eps(L):
            spec = quiet_spec(L, ep.gamma)
            jd = jordan_decomposition(spec, ep)
            M = build_quasi_hamiltonian(spec).M
            m_norm = np.linalg.norm(M)
            assert m_norm == pytest.approx(
                np.sqrt((L - 1) * (1 + abs(ep.gamma) ** 2)), rel=1e-15)
            V, N = jd.V, 2 * L
            rows = np.max(np.sum(np.abs(V) ** 2, axis=1))
            inv = np.max(np.abs(V @ jd.V_inv - np.eye(N)))
            assert abs(jd.inv_residual - inv) <= N * u * rows
            scale = 4 * u * np.linalg.norm(V) \
                * (1 + np.linalg.norm(jd.J) / m_norm)
            jordan = np.linalg.norm(M @ V - V @ jd.J) / m_norm
            assert abs(jd.jordan_residual - jordan) <= scale
            assert jd.rank_deficiency_plus == dense_rank_deficiency(M, ep.epsilon)
            assert jd.rank_deficiency_minus == dense_rank_deficiency(M, -ep.epsilon)
            for sign in (+1, -1):
                ch = generalized_eigenvector(spec, ep, sign)
                w = column_from_halves(ch.phi_w, ch.psi_w)
                shifted = M - ch.epsilon * np.eye(N)
                chain = np.linalg.norm(shifted @ column_from_halves(
                    ch.phi_u, ch.psi_u) - w) / m_norm
                eigen = np.linalg.norm(shifted @ w) / m_norm
                assert abs(ch.chain_residual - chain) <= scale
                assert abs(ch.eigen_residual - eigen) <= scale


def test_jordan_decomposition_rejects_gamma_mismatch():
    ep = closest_record(locate_eps(4), L4_EP_GAMMA)
    with pytest.raises(DegenerateInput, match="anisotropy does not match"):
        jordan_decomposition(ChainSpec(4, 0.2 + 0.1j), ep)
    with pytest.raises(DegenerateInput, match="coalescing boundary roots"):
        jordan_decomposition(quiet_spec(4, ep.gamma),
                             dataclasses.replace(ep, x=ep.x + 1e-3))


@pytest.mark.parametrize("entry", [generalized_eigenvector, jordan_decomposition,
                                   ep_state_catalog])
def test_ep_entry_points_refuse_a_record_of_another_length(entry):
    # an L = 4 record at L = 6 was once refused with misleading residual
    # or root-identification errors
    ep = closest_record(locate_eps(4), L4_EP_GAMMA)
    with pytest.raises(DegenerateInput, match=r"spec length L = 6 does not "
                                              r"match the EP record's L = 4"):
        entry(ChainSpec(6, ep.gamma), ep)


def test_ep_state_catalog_census():
    ep = closest_record(locate_eps(4), L4_EP_GAMMA)
    spec = quiet_spec(4, ep.gamma)
    cat = ep_state_catalog(spec, ep)
    assert cat.count == 3 * 2 ** (4 - 2)
    assert cat.total_algebraic == 2 ** 4
    by_sector = {}
    for e in cat.entries:
        by_sector.setdefault(e.sector, []).append(e)
    assert {k: len(v) for k, v in by_sector.items()} == \
        {"plus_plus": 4, "mixed": 4, "minus_minus": 4}
    for e in cat.entries:
        assert len(e.occupation) == 4
        assert e.geometric == 1
        assert e.algebraic == (2 if e.sector == "mixed" else 1)
        assert e.vanishes_naively == (e.sector == "plus_plus")
    assert all(e.vacuum == "both" for e in by_sector["mixed"])
    # fixed simple-pair pattern: sectors differ by one defective quantum
    eps_ep = cat.epsilon_ep
    for pp, mx, mm in zip(by_sector["plus_plus"], by_sector["mixed"],
                          by_sector["minus_minus"]):
        assert pp.occupation[:2] == mx.occupation[:2] == mm.occupation[:2]
        assert pp.energy - mx.energy == pytest.approx(eps_ep, abs=1e-12)
        assert mx.energy - mm.energy == pytest.approx(eps_ep, abs=1e-12)


def test_ep_state_catalog_matches_ed_spectrum():
    # the catalog with each mixed (algebraic weight 2) entry counted twice
    # is the whole 2^L spectrum; a defective ED pair splits by about
    # sqrt(machine eps) around its catalog energy
    for L in (4, 6):
        for ep in locate_eps(L):
            spec = quiet_spec(L, ep.gamma)
            cat = ep_state_catalog(spec, ep)
            energies = [e.energy for e in cat.entries
                        for _ in range(e.algebraic)]
            # each energy is its slots' signed half-epsilons summed left to
            # right, then the sector's shift, bit for bit
            shifts = {"plus_plus": cat.epsilon_ep, "mixed": 0.0,
                      "minus_minus": -cat.epsilon_ep}
            assert all(e.energy == complex(
                sum((0.5 if b else -0.5) * eps for (_, eps), b
                    in zip(cat.slot_epsilons, e.occupation)) + shifts[e.sector])
                for e in cat.entries)
            ed = ed_eigen(build_spin_hamiltonian(L, ep.gamma), want_vectors=False)
            assert match_spectra(energies, ed.values).max_abs_diff < 1e-6


def test_every_residual_check_raises_defective_basis(monkeypatch):
    ep = closest_record(locate_eps(6), 0.3399 + 0.5547j)
    spec = quiet_spec(6, ep.gamma)
    # a root 1e-3 off the double root breaks the chain identity
    with pytest.raises(DefectiveBasis, match="chain identity residual"):
        generalized_eigenvector(spec, dataclasses.replace(ep, x=ep.x + 1e-3))
    real = ep_module._jordan_chains

    def stretched(*args):
        # doubled chains still meet the chain identity, but not V^-1 = V^T
        phis, psis, betas = real(*args)
        return [2 * h for h in phis], [2 * h for h in psis], betas

    monkeypatch.setattr(ep_module, "_jordan_chains", stretched)
    with pytest.raises(DefectiveBasis, match="structured inverse residual"):
        jordan_decomposition(spec, ep)


def test_jordan_chain_columns_are_the_generalized_eigenvectors():
    # the decomposition and generalized_eigenvector share one evaluation
    # of both chains, so the columns are the same numbers
    for L in (4, 10, 20):
        for ep in locate_eps(L):
            spec = quiet_spec(L, ep.gamma)
            jd = jordan_decomposition(spec, ep)
            for k, sign in enumerate((+1, -1)):
                ch = generalized_eigenvector(spec, ep, sign)
                w = jd.chain_start + 2 * k
                for got, want in ((jd.phis[:, w], ch.phi_w),
                                  (jd.psis[:, w], ch.psi_w),
                                  (jd.phis[:, w + 1], ch.phi_u),
                                  (jd.psis[:, w + 1], ch.psi_u)):
                    assert np.array_equal(got, want)


def test_the_minus_chain_is_the_chiral_image_of_the_plus_chain():
    # P: (phi, psi) -> (-phi, psi) anticommutes with S^T M S, so
    # (w', u') = (-iPw, iPu) is the -eps_EP chain in the same gauge
    for L in range(4, 22, 2):
        for ep in locate_eps(L):
            spec = quiet_spec(L, ep.gamma)
            plus = generalized_eigenvector(spec, ep, +1)
            minus = generalized_eigenvector(spec, ep, -1)
            for got, want in ((minus.phi_w, 1j * plus.phi_w),
                              (minus.psi_w, -1j * plus.psi_w),
                              (minus.phi_u, -1j * plus.phi_u),
                              (minus.psi_u, 1j * plus.psi_u)):
                assert np.array_equal(got, want)
            assert minus.epsilon == -plus.epsilon
            assert minus.beta == -plus.beta
            assert minus.chain_residual == plus.chain_residual
            assert minus.eigen_residual == plus.eigen_residual


def test_jordan_decomposition_solves_once_and_builds_both_chains_at_once(
        monkeypatch):
    # chain.chebyshev_u runs once per mode_arrays call, at its order
    roots, orders = [], []
    real_roots, real_u = chain_module.boundary_roots, chain_module.chebyshev_u

    def count_roots(n, lam):
        roots.append(np.size(lam))
        return real_roots(n, lam)

    def count_orders(x, n, order=0):
        orders.append((order, np.size(x)))
        return real_u(x, n, order)

    monkeypatch.setattr(chain_module, "boundary_roots", count_roots)
    monkeypatch.setattr(chain_module, "chebyshev_u", count_orders)
    ep = closest_record(locate_eps(10), 0.2806 + 0.7035j)
    jordan_decomposition(quiet_spec(10, ep.gamma), ep)
    assert roots == [2]                       # both modes, one solve
    assert orders == [(0, 5), (0, 3), (1, 1)]  # the +eps_EP chain only


def test_each_jordan_chain_is_certified_once(monkeypatch):
    # jordan_decomposition reads the chain residuals off its whole-basis
    # stencil_residual call; generalized_eigenvector certifies its four
    # chain columns (the +eps_EP chain and its image) in one call of its own
    calls = []
    stencil, inverse = ep_module.stencil_residual, ep_module.inverse_residual

    def count_stencil(gamma, phis, *args):
        calls.append(("stencil", phis.shape[1]))
        return stencil(gamma, phis, *args)

    def count_inverse(phis, *args):
        calls.append(("inverse", phis.shape[1]))
        return inverse(phis, *args)

    monkeypatch.setattr(ep_module, "stencil_residual", count_stencil)
    monkeypatch.setattr(ep_module, "inverse_residual", count_inverse)
    ep = closest_record(locate_eps(10), 0.2806 + 0.7035j)
    spec = quiet_spec(10, ep.gamma)
    jordan_decomposition(spec, ep)
    assert calls == [("stencil", 20), ("inverse", 20)]
    calls.clear()
    generalized_eigenvector(spec, ep, -1)
    assert calls == [("stencil", 4)]


def test_the_rank_test_factors_l_by_l_blocks(monkeypatch):
    # S^T (M - eps I) S splits into two L x L blocks, shared by -eps, so
    # no 2L x 2L matrix is ever factored
    shapes, real_svd = [], np.linalg.svd

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    for L in (4, 10):
        ep = locate_eps(L)[0]
        jordan_decomposition(quiet_spec(L, ep.gamma), ep)
    assert shapes == [(2, 4, 4), (2, 10, 10)]


def test_ep_search_size_cap_refuses_before_any_work(monkeypatch):
    def refuse(n):
        raise AssertionError("double_roots ran past the size guard")

    monkeypatch.setattr(ep_module, "double_roots", refuse)
    cap = ep_module._EP_SEARCH_LIMIT
    with pytest.raises(SizeLimit, match=f"capped at L = {cap}, got {cap + 2}"):
        locate_eps(cap + 2)
    monkeypatch.setattr(ep_module, "_EP_SEARCH_LIMIT", 8)
    for L, mode in ((10, "both"), (100000, "I")):
        with pytest.raises(SizeLimit, match=f"capped at L = 8, got {L}"):
            locate_eps(L, mode)


def test_ep_state_catalog_size_guard_refuses_before_any_work(monkeypatch):
    L = MANY_BODY_LIMIT + 2
    ep = locate_eps(L, "II")[0]

    def refuse(*args):
        raise AssertionError("jordan_decomposition ran past the size guard")

    monkeypatch.setattr(ep_module, "jordan_decomposition", refuse)
    with pytest.raises(SizeLimit):
        ep_state_catalog(quiet_spec(L, ep.gamma), ep)

