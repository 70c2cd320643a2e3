import tracemalloc
import warnings

import numpy as np
import pytest

import xyep.basis as basis_module
from xyep.basis import (
    FAMILIES,
    MANY_BODY_LIMIT,
    anticommutator,
    assemble_basis,
    column_from_halves,
    inverse_residual,
    many_body_energies,
    operator_coefficients,
    pair_columns,
)
from xyep.chain import (ChainSpec, SpectralPoint, build_quasi_hamiltonian,
                        mode_vector_poly, mode_vectors, quasi_energies)
from xyep.errors import DefectiveBasis, DegenerateInput, SizeLimit, XYEPWarning

RNG = np.random.default_rng(77)


def random_gamma():
    return complex(RNG.uniform(-1.5, 1.5), RNG.uniform(0.2, 1.5))


def test_biorthogonality_and_reconstruction():
    for L in (2, 6, 12):
        spec = ChainSpec(L, random_gamma())
        basis = assemble_basis(spec)
        qh = build_quasi_hamiltonian(spec)
        eye = np.eye(2 * L)
        assert np.max(np.abs(basis.V @ basis.V_inv - eye)) < 1e-9
        assert np.max(np.abs(basis.V_inv @ basis.V - eye)) < 1e-9
        rebuilt = basis.V @ np.diag(basis.Lambda) @ basis.V_inv
        assert np.linalg.norm(rebuilt - qh.M) < 1e-9 * np.linalg.norm(qh.M)
        # transpose-structured inverse away from EPs
        np.testing.assert_allclose(basis.V_inv, basis.V.T, atol=1e-9)


def test_columns_come_in_sign_pairs():
    spec = ChainSpec(6, 0.3 - 0.7j)
    basis = assemble_basis(spec)
    lam = basis.Lambda
    assert lam.shape == (12,)
    np.testing.assert_allclose(lam[0::2], -lam[1::2], atol=1e-14)
    eps = [p.epsilon for p in basis.points[0::2]]
    np.testing.assert_allclose(lam[0::2], eps, atol=1e-14)


def test_defective_basis_raised_at_ep():
    with pytest.raises(DefectiveBasis):
        with pytest.warns(Warning):
            assemble_basis(ChainSpec(4, 0.6 + 0.8j))


def test_nan_columns_raise_defective_basis(monkeypatch):
    # NaN fails every comparison, so the residual gate must refuse it
    def nan_vectors(spec, mode, points):
        phi, psi, s, res = mode_vectors(spec, mode, points)
        return np.full_like(phi, np.nan), psi, s, res

    monkeypatch.setattr(basis_module, "mode_vectors", nan_vectors)
    with pytest.raises(DefectiveBasis, match="orthogonality residual nan"):
        assemble_basis(ChainSpec(4, 0.3 + 0.2j))


def test_a_bilinearly_null_mode_vector_is_a_defective_basis(monkeypatch):
    # at this point phi.phi + psi.psi = 1 + (-1j)^2 = 0 exactly; every
    # entry point refuses it with the one kind, DefectiveBasis
    spec = ChainSpec(2, 0.5)
    point = SpectralPoint("I", 1, 1, 0.75j, 0.3)
    null = "a mode vector is bilinearly null; the spectrum is defective here"
    with pytest.raises(DefectiveBasis, match=null):
        mode_vectors(spec, "I", [point])
    with pytest.raises(DefectiveBasis, match=null):
        mode_vector_poly(spec, point)
    mode_ii = quasi_energies(spec, warn=False)[1:]
    monkeypatch.setattr(basis_module, "quasi_energies",
                        lambda spec: [point] + mode_ii)
    with pytest.raises(DefectiveBasis, match=null):
        assemble_basis(spec)


def test_an_overflowing_mode_vector_is_a_defective_basis():
    # U_199(10) ~ 1e258: the halves are finite, their squares are not;
    # the norm is refused by name, with no numpy warning
    spec = ChainSpec(400, 0.5)
    point = SpectralPoint("I", 1, 1, 1.0, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DefectiveBasis, match="bilinear norm is not finite"):
            mode_vector_poly(spec, point)


def sweep_specs():
    """Six anisotropies with |gamma| in [0.05, 3] at each L, and L = 400."""
    rng = np.random.default_rng(27)
    for L in (8, 20, 60, 120):
        for r, a in zip(rng.uniform(0.05, 3, 6), rng.uniform(0, 2 * np.pi, 6)):
            yield ChainSpec(L, complex(r * np.cos(a), r * np.sin(a)))
    yield ChainSpec(400, 0.4j)


def test_certificates_from_halves_match_the_dense_products():
    # assemble_basis never forms M or V V^T; its residuals are those
    # dense products up to rounding, and it refuses exactly where the
    # dense orthogonality residual exceeds the tolerance
    u = np.finfo(float).eps
    refused = certified = 0
    for spec in sweep_specs():
        L = spec.L
        phis, psis, labels = pair_columns(spec, quasi_energies(spec, warn=False))
        V = column_from_halves(phis, psis)
        Lambda = np.array([p.epsilon for p in labels])
        orth = np.max(np.abs(V @ V.T - np.eye(2 * L)))
        M = build_quasi_hamiltonian(spec).M
        diag = np.max(np.abs(M @ V - V * Lambda))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", XYEPWarning)
            if orth > 1e-6:
                with pytest.raises(DefectiveBasis):
                    assemble_basis(spec)
                refused += 1
                continue
            basis = assemble_basis(spec)
        certified += 1
        rows = np.max(np.sum(np.abs(V) ** 2, axis=1))
        assert abs(basis.orth_residual - orth) <= L * u * rows
        assert abs(basis.diag_residual - diag) <= 4 * u * np.max(np.abs(V)) \
            * (1 + abs(spec.gamma) + np.max(np.abs(Lambda)))
        for got, want in ((basis.V, V), (basis.phis, phis), (basis.psis, psis)):
            assert got.tobytes() == want.tobytes()
    assert (refused, certified) == (9, 16)


def test_a_refused_basis_pays_only_for_its_gate(monkeypatch):
    # the inverse residual gates first; V and the stencil residual are
    # computed only for a basis that passes
    calls = []
    for name in ("stencil_residual", "column_from_halves"):
        monkeypatch.setattr(basis_module, name,
                            lambda *args, name=name: calls.append(name))
    defective = (r"bilinear orthogonality residual \S+ > 1e-06; "
                 r"the spectrum is \(numerically\) defective here")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", XYEPWarning)
        with pytest.raises(DefectiveBasis, match=f"^{defective}$"):
            assemble_basis(ChainSpec(14, 1.3 + 0.1j))
    assert calls == []


def test_the_inverse_residual_needs_all_of_v():
    spec = ChainSpec(6, 0.3 - 0.7j)
    phis, psis, points = pair_columns(spec, quasi_energies(spec)[:2])
    with pytest.raises(DegenerateInput, match="4 pair and 0 chain columns"):
        inverse_residual(phis, psis, points)


def test_bilinear_halves_split_evenly():
    # the +eps row against the -eps column forces phi.phi = psi.psi = 1/2
    spec = ChainSpec(8, 0.9 + 0.4j)
    basis = assemble_basis(spec)
    for k in range(0, 16, 2):
        phi, psi = basis.phis[:, k], basis.psis[:, k]
        assert abs(phi @ phi - 0.5) < 1e-10
        assert abs(psi @ psi - 0.5) < 1e-10


def expected_anticommutator(fam_a, i, fam_b, j):
    conjugate = {"R": "Lstar", "Lstar": "R", "Rstar": "L", "L": "Rstar"}
    if conjugate[fam_a] == fam_b:
        return 1.0 if i == j else 0.0
    if fam_a == fam_b:
        # same family: -1 between the two signs of one branch
        same_branch = (i + 1) // 2 == (j + 1) // 2
        return -1.0 if (same_branch and i != j) else 0.0
    # cross-mode combinations vanish by parity support
    return 0.0


def test_anticommutator_full_table():
    for L in (2, 6, 14):
        spec = ChainSpec(L, random_gamma())
        coeffs = operator_coefficients(assemble_basis(spec))
        worst = 0.0
        for fam_a in FAMILIES:
            for fam_b in FAMILIES:
                for i in range(1, L + 1):
                    for j in range(1, L + 1):
                        got = anticommutator(coeffs, fam_a, i, fam_b, j)
                        want = expected_anticommutator(fam_a, i, fam_b, j)
                        worst = max(worst, abs(got - want))
        assert worst < 1e-10


def test_anticommutator_validates_input():
    spec = ChainSpec(4, 0.5 + 0.5j)
    coeffs = operator_coefficients(assemble_basis(spec))
    with pytest.raises(DegenerateInput):
        anticommutator(coeffs, "Q", 1, "R", 1)
    with pytest.raises(DegenerateInput):
        anticommutator(coeffs, "R", 0, "R", 1)
    with pytest.raises(DegenerateInput):
        anticommutator(coeffs, "R", 5, "R", 1)
    for index in (1.5, "1"):
        with pytest.raises(DegenerateInput, match="must be an integer"):
            anticommutator(coeffs, "R", 1, "Lstar", index)
        with pytest.raises(DegenerateInput, match="must be an integer"):
            anticommutator(coeffs, "R", index, "Lstar", 1)


def test_many_body_spectrum_shape_and_ground():
    spec = ChainSpec(6, 0.4 + 0.2j)
    mb = many_body_energies(spec)
    assert mb.energies.shape == (64,)
    assert mb.occupations.shape == (64, 6)
    # the all-minus configuration is the vacuum, -E0/2 = -(sum eps)/2
    ground = -sum(p.epsilon for p in quasi_energies(spec)) / 2
    assert not mb.occupations[0].any()
    assert mb.energies[0] == pytest.approx(ground, abs=1e-12)
    assert np.min(mb.energies.real) == pytest.approx(ground.real, abs=1e-10)
    # spectrum is symmetric under global sign flip
    flipped = np.sort_complex(-mb.energies)
    np.testing.assert_allclose(np.sort_complex(mb.energies), flipped,
                               atol=1e-10)


def test_many_body_size_guard_refuses_before_any_work(monkeypatch):
    # the guard must fire before the quasi-energies, let alone the 2^40
    # occupation table, are computed
    def fail(*args, **kwargs):
        raise AssertionError("many_body_energies did work past its size guard")

    monkeypatch.setattr(basis_module, "quasi_energies", fail)
    with pytest.raises(SizeLimit):
        many_body_energies(ChainSpec(40, 0.3 + 0.2j))
    assert MANY_BODY_LIMIT == 20
    with pytest.raises(SizeLimit):
        many_body_energies(ChainSpec(MANY_BODY_LIMIT + 2, 0.3 + 0.2j))


def test_occupation_energy_consistency():
    spec = ChainSpec(4, 0.7 + 0.1j)
    mb = many_body_energies(spec)
    eps = np.concatenate([mb.epsilons_I, mb.epsilons_II])
    for bits, energy in zip(mb.occupations, mb.energies):
        expect = 0.5 * (2 * bits - 1) @ eps
        assert abs(energy - expect) < 1e-12
    # at 2^16 rows, each column is many runs of zeros and ones: row s is
    # still the bits of s
    L = 16
    mb = many_body_energies(ChainSpec(L, -0.45 + 0.75j))
    bits = (np.arange(2 ** L)[:, None] >> np.arange(L - 1, -1, -1)) & 1
    eps = np.concatenate([mb.epsilons_I, mb.epsilons_II])
    assert np.array_equal(mb.occupations, bits)
    assert np.max(np.abs(mb.energies - 0.5 * (2 * bits - 1) @ eps)) < 1e-12


def test_many_body_energies_allocate_a_few_times_their_result():
    # the sign matrix's int64, float and complex temporaries, 2^L x L
    # each, once took 150 MB at L = 18 for a 9 MB result
    tracemalloc.start()
    try:
        mb = many_body_energies(ChainSpec(18, 0.3 + 0.2j))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (mb.energies.nbytes + mb.occupations.nbytes)


def test_mode_vectors_columns_are_the_basis_columns():
    spec = ChainSpec(6, 0.4 + 0.3j)
    basis = assemble_basis(spec)
    k = 0
    both = quasi_energies(spec, warn=False)
    for mode, points in (("I", both[:3]), ("II", both[3:])):
        phi, psi, scale, residual = mode_vectors(spec, mode, points)
        assert phi.shape == psi.shape == (6, 3)
        assert scale.shape == residual.shape == (3,)
        for j, pt in enumerate(points):
            # +eps column, then its -eps partner (-phi, psi), exactly
            assert basis.points[2 * k] == pt
            assert basis.points[2 * k + 1] == pt.negated()
            assert (basis.Lambda[2 * k], basis.Lambda[2 * k + 1]) == \
                (pt.epsilon, -pt.epsilon)
            for col, (phi_c, psi_c) in ((2 * k, (phi[:, j], psi[:, j])),
                                        (2 * k + 1, (-phi[:, j], psi[:, j]))):
                assert np.array_equal(basis.phis[:, col], phi_c)
                assert np.array_equal(basis.psis[:, col], psi_c)
                assert np.array_equal(basis.V[:, col],
                                      column_from_halves(phi_c, psi_c))
            k += 1
    assert k == 6
