"""The boundary-polynomial kernel: recurrence, roots and double roots."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import Chebyshev

import xyep.chain as chain_module
import xyep.polyalg as polyalg_module
from xyep.chain import (ChainSpec, gamma_to_lambda, mode_arrays, mode_spectra,
                        quasi_energies)
from xyep.errors import DegenerateInput, NonConvergence
from xyep.polyalg import boundary_roots, chebyshev_u, double_roots

EPS = np.finfo(float).eps


def boundary_cheb(n, lam):
    """U_n - lam U_{n-1} in the Chebyshev basis, built from U_k = T_{k+1}' / (k+1)."""
    u_n = Chebyshev.basis(n + 1).deriv() / (n + 1)
    u_m = Chebyshev.basis(n).deriv() / n
    return u_n - lam * u_m


def test_chebyshev_integer_coefficients_frozen():
    # U_5(x) = 32x^5 - 32x^3 + 6x, U'_5(x) = 160x^4 - 96x^2 + 6
    x = np.array([0.0, 0.3, -1.1, 0.4 - 0.7j])
    u = chebyshev_u(x, 5, 1)
    assert u.shape == (2, 7, 4)
    np.testing.assert_array_equal(u[0, 0], 0)          # U_{-1}
    np.testing.assert_array_equal(u[0, 1], 1)          # U_0
    np.testing.assert_array_equal(u[0, 2], 2 * x)      # U_1
    np.testing.assert_allclose(u[0, 6], 32 * x**5 - 32 * x**3 + 6 * x,
                               rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(u[1, 6], 160 * x**4 - 96 * x**2 + 6,
                               rtol=1e-14, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=200),
       st.floats(min_value=0.05, max_value=3.09))
def test_chebyshev_sine_identity(m, theta):
    # U_m(cos t) = sin((m+1)t) / sin t; the recurrence loses at most a few
    # ulps per step, so large orders stay accurate.  The identity is taken
    # at the angle of the rounded x (rounding cos(theta) alone moves U_m by
    # ~1e-11 near theta = 0.05), through U_m(-x) = (-1)^m U_m(x) so that
    # the angle is small and arccos stays accurate near x = -1
    x = np.cos(theta)
    t = np.arccos(abs(x))
    val = chebyshev_u(x, m)[0, m + 1]
    expect = np.sign(x) ** m * np.sin((m + 1) * t) / np.sin(t)
    assert abs(val - expect) < 1e-12 * (1 + abs(expect))


def test_poly_derivative():
    # values and first derivatives against numpy's Chebyshev-series
    # algebra; no caller needs a higher derivative, so none is offered
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.2, 1.2, 6) + 1j * rng.uniform(-0.5, 0.5, 6)
    n = 9
    u = chebyshev_u(x, n, 1)
    for k in range(n + 1):
        uk = Chebyshev.basis(k + 1).deriv() / (k + 1)
        for d in range(2):
            want = uk.deriv(d)(x) if d else uk(x)
            np.testing.assert_allclose(u[d, k + 1], want, rtol=1e-12, atol=1e-12)
    with pytest.raises(DegenerateInput, match="order must be 0 or 1, got 2"):
        chebyshev_u(x, n, 2)


def test_kernel_rejects_degenerate_input():
    with pytest.raises(DegenerateInput):
        boundary_roots(3, complex(np.nan, 0.0))
    # one non-finite parameter refuses the whole batch, named on its own
    with pytest.raises(DegenerateInput, match=r"finite, got 0\+infj$"):
        boundary_roots(3, [0.5, complex(0.0, np.inf), 2.0, np.nan])


def test_roots_of_zero_poly_rejected():
    # n = 0: the boundary polynomial is a constant and has no roots
    with pytest.raises(DegenerateInput):
        boundary_roots(0, 0.5)


def test_resultant_requires_x_dependence():
    # a linear boundary polynomial has no double root
    with pytest.raises(DegenerateInput):
        double_roots(1)


def test_roots_quadratic_closed_form():
    # n = 2: U_2 - lam U_1 = 4x^2 - 2 lam x - 1
    for lam in (0.3 - 1.1j, 2.5, -0.7j):
        got = np.sort_complex(boundary_roots(2, lam))
        s = np.sqrt(lam * lam + 4 + 0j)
        want = np.sort_complex(np.array([(lam + s) / 4, (lam - s) / 4]))
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_kernel_at_gamma_zero_gives_cosines():
    # lam = -1: sin((n+1)t) + sin(nt) = 0 at t = 2 pi k / (2n + 1)
    for n in (1, 4, 7, 30):
        got = np.sort_complex(boundary_roots(n, gamma_to_lambda(0.0)))
        want = np.sort(np.cos(2 * np.pi * np.arange(1, n + 1) / (2 * n + 1)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_roots_against_numpy_random_polys():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(3, 13))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        mine = boundary_roots(n, lam)
        ref = boundary_cheb(n, lam).roots()
        for z in ref:
            assert np.min(np.abs(mine - z)) < 1e-9 * max(1.0, abs(z))


def test_roots_backward_error_bound():
    # residual from the sine form U_k(cos t) = sin((k+1)t) / sin t, scaled
    # as in the certificate; an independent route, so allow a few ulps more
    rng = np.random.default_rng(3)
    for n in (3, 8, 17):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        for x in boundary_roots(n, lam):
            t = np.arccos(x)
            uk = np.sin(np.arange(1, n + 2) * t) / np.sin(t)
            scale = (1 + abs(lam)) * np.abs(uk).max() * (1 + abs(x))
            assert abs(uk[n] - lam * uk[n - 1]) / scale < 64 * n * EPS


def test_roots_nonconvergence_surfaces(monkeypatch):
    # starts far from every root: two Newton steps cannot meet the
    # certificate, and the kernel must refuse rather than return them
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda T: np.full(T.shape[:-1], 40.0 + 0j))
    with pytest.raises(NonConvergence):
        boundary_roots(6, 0.4 + 0.2j)


def test_roots_nonconvergence_of_one_row_refuses_the_batch(monkeypatch):
    real = np.linalg.eigvals

    def one_bad_row(T):
        vals = real(T)
        vals[min(2, vals.shape[0] - 1)] = 40.0
        return vals

    lams = [0.4 + 0.2j, -1.3, 0.1 - 2j, 3j]
    assert boundary_roots(6, lams).shape == (4, 6)
    monkeypatch.setattr(np.linalg, "eigvals", one_bad_row)
    with pytest.raises(NonConvergence):
        boundary_roots(6, lams)


def test_batched_rows_equal_single_parameter_solves():
    # every step acts on each row alone, so a row is bit for bit the
    # solve of its parameter on its own, and a scalar keeps shape (n,)
    rng = np.random.default_rng(17)
    for n in range(2, 101):
        lams = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        batch = boundary_roots(n, lams)
        assert batch.shape == (2, n)
        for lam, row in zip(lams, batch):
            single = boundary_roots(n, lam)
            assert single.shape == (n,)
            assert np.array_equal(row, single)
    assert boundary_roots(4, np.empty(0)).shape == (0, 4)


def test_chunking_does_not_change_the_roots(monkeypatch):
    rng = np.random.default_rng(19)
    lams = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    for n in (2, 7, 40):
        whole = boundary_roots(n, lams)
        monkeypatch.setattr(polyalg_module, "_CHUNK_ENTRIES", 1)
        one_row_each = boundary_roots(n, lams)
        monkeypatch.undo()
        assert np.array_equal(whole, one_row_each)


def test_many_parameters_at_large_degree_stay_in_bounded_memory():
    # without chunks, 300 parameters at n = 100 held about 144 MB at once
    lams = np.exp(2j * np.pi * np.arange(300) / 300) * 1.5
    tracemalloc.start()
    try:
        x = boundary_roots(100, lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.shape == (300, 100)
    assert peak < 32 * 2 ** 20


def test_double_root_splits_within_backward_error():
    # the L = 4 EP gamma = 0.6 + 0.8i puts mode II at lam = -2i, where
    # 4x^2 - 2 lam x - 1 has the double root x = -i/2; rounding splits it
    # by about sqrt(eps), and the certificate still accepts both roots
    lam = 1 / gamma_to_lambda(0.6 + 0.8j)
    xs = boundary_roots(2, lam)
    assert xs.size == 2
    assert np.max(np.abs(xs + 0.5j)) < 1e-7


def test_resultant_eliminates_to_known_discriminant():
    # 4x^2 - 2 lam x - 1 has a double x-root iff lam^2 + 4 = 0; eliminating
    # lam through the Wronskian must land on lam = +-2i, x = lam / 4
    x, lam, err = double_roots(2)
    order = np.argsort(lam.imag)
    np.testing.assert_allclose(lam[order], [-2j, 2j], atol=1e-14)
    np.testing.assert_allclose(x[order], [-0.5j, 0.5j], atol=1e-14)
    assert np.all(err <= 16 * 2 * EPS)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=24),
       st.complex_numbers(max_magnitude=20.0, allow_nan=False,
                          allow_infinity=False))
def test_roots_reconstruct_monic_product(n, lam):
    # 2^n prod (x - x_k) is the boundary polynomial itself
    xs = boundary_roots(n, lam)
    assert xs.size == n
    product = Chebyshev.fromroots(xs) * 2.0 ** n
    want = boundary_cheb(n, lam)
    scale = np.abs(want.coef).max()
    assert np.abs(product.coef - want.coef).max() < 1e-10 * scale


def test_wronskian_closed_forms_agree_with_the_recurrence():
    # W = U_n' U_{n-1} - U_n U_{n-1}' from the order-1 rows equals
    # 2 sum_{k<n} U_k^2, 2 sum_{j<n} (n - j) U_{2j} and
    # (U_{2n} - 2n - 1) / (2 (x^2 - 1)) to rounding
    rng = np.random.default_rng(31)
    x = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-0.6, 0.6, 40)
    for n in range(2, 41):
        u = chebyshev_u(x, 2 * n, 1)
        w = u[1, n + 1] * u[0, n] - u[0, n + 1] * u[1, n]
        squares = 2 * np.sum(u[0, 1: n + 1] ** 2, axis=0)
        even = 2 * sum((n - j) * u[0, 2 * j + 1] for j in range(n))
        closed = (u[0, 2 * n + 1] - 2 * n - 1) / (2 * (x * x - 1))
        # the size of the terms each form adds up
        scale = 2 * np.sum(np.abs(u[0, 1: n + 1]) ** 2, axis=0)
        for other in (squares, even, closed):
            assert np.all(np.abs(other - w) <= 16 * n * EPS * scale)


@pytest.mark.parametrize("n", range(2, 25))
def test_double_roots_reconstruct_the_wronskian(n):
    # completeness: 2^(2n-1) prod (x - x_i) over the 2n - 2 double roots
    # is W itself, coefficient by coefficient in the Chebyshev basis
    x, _, _ = double_roots(n)
    assert x.size == 2 * n - 2
    product = Chebyshev.fromroots(x) * 2.0 ** (2 * n - 1)
    want = 2 * sum((n - j) * Chebyshev.basis(2 * j + 1).deriv() / (2 * j + 1)
                   for j in range(n))
    scale = np.abs(want.coef).max()
    assert np.abs(product.coef - want.coef).max() < 1e-10 * scale


# mpmath references (34 digits, Newton in t on sin((n+1)t) - lam sin(nt)
# from x = cos t): per chain length, anisotropy and mode, the four roots
# of largest modulus (ends of the spectrum, and the edge mode of mode II
# at gamma = 1.3 + 0.1i) and the two of smallest modulus
FROZEN_ROOTS = {
    (120, (0.35-0.55j), "I"): [
        -0.998670717939781-2.824186340458711e-05j,
        0.9986599364791718-1.2147289619434764e-05j,
        -0.9946866624756981-0.00011285068270795994j,
        0.9946433748620951-4.8553622539743674e-05j,
        0.020133176238648295-0.0082610751252953536j,
        -0.031267706766966386-0.0085747748841480086j,
    ],
    (120, (0.35-0.55j), "II"): [
        0.9986443397294622+1.2360054334973488e-05j,
        -0.9986340082074912+2.9421021342650488e-05j,
        0.994580996857577+4.9405372290081886e-05j,
        -0.994539491699746+0.00011758842444447344j,
        0.005796365245591889+0.0085196715955388157j,
        -0.04666008389607604+0.0088516481803131881j,
    ],
    (120, (1.3+0.1j), "I"): [
        0.9986805839190035+2.1552830523317793e-06j,
        -0.9986689642911214+1.2855232061302141e-06j,
        0.9947257685880617+8.5869404069007451e-06j,
        -0.9946794193861769+5.1326319057856e-06j,
        -0.023599695324086657+0.00060441563836085156j,
        0.0279091915817914+0.00061237401754578086j,
    ],
    (120, (1.3+0.1j), "II"): [
        3.5660377358490565-0.98113207547169812j,
        -0.998634891440471-1.3351932051516443e-06j,
        0.9986226656298659-2.2986289674368221e-06j,
        -0.9945432726414417-5.330792587151603e-06j,
        -0.0021911376478065134-0.00061789524754792935j,
        0.050136574124556695-0.00062491550221952083j,
    ],
    (400, (0.35-0.55j), "I"): [
        -0.9998777534936475-7.874189721000298e-07j,
        0.9998774616968377-3.3584700327203132e-07j,
        -0.9995110445187994-3.1494032936377022e-06j,
        0.9995098769124253-1.3432997086420693e-06j,
        0.006105942096070635-0.0025369126394856607j,
        -0.009515217691710912-0.0025665597973534046j,
    ],
    (400, (0.35-0.55j), "II"): [
        0.9998770331300536+3.3761049437477228e-07j,
        -0.9998767450724135+7.971831667333932e-07j,
        0.9995081626679+1.3503541927684927e-06j,
        -0.999507010005315+3.1884759974648438e-06j,
        0.0017250594628729443+0.0025607490225840498j,
        -0.013991419488709049+0.0025909053967993244j,
    ],
    (400, (1.3+0.1j), "I"): [
        0.9998780390481828+6.0625618486878621e-08j,
        -0.9998777138470367+3.5807257892857102e-08j,
        0.99951218581474+2.4241303509232062e-07j,
        -0.9995108853443961+1.4320490517554942e-07j,
        -0.007161220619826655+0.00018426455341741924j,
        0.0084696588253243+0.00018501005904015356j,
    ],
    (400, (1.3+0.1j), "II"): [
        3.5660377358490565-0.98113207547169812j,
        -0.9998767774928451-3.6219307784063972e-08j,
        0.9998764472599229-6.1816291340331379e-08j,
        -0.9995071402895623-1.4485271267212278e-07j,
        -0.0006574434986358724-0.00018547840897576036j,
        0.015048778548323543-0.00018619912297588413j,
    ],
}


@pytest.mark.parametrize("L,gamma,mode", list(FROZEN_ROOTS))
def test_kernel_matches_frozen_high_precision_roots(L, gamma, mode):
    lam = gamma_to_lambda(gamma)
    xs = boundary_roots(L // 2, lam if mode == "I" else 1 / lam)
    assert xs.size == L // 2
    for want in FROZEN_ROOTS[(L, gamma, mode)]:
        assert np.min(np.abs(xs - want)) <= 1e-12 * abs(want)


def order_one_polish(n, lam, start):
    """The reference polish: Newton with P' from the derivative recurrence.

    The same two steps from the same start as :func:`boundary_roots`, but
    P' is ``chebyshev_u(z, n, 1)``'s; returns the roots and whether they
    meet the 16 n eps certificate.
    """
    def f(z):
        u = chebyshev_u(z, n, 1)
        return u[:, n + 1] - lam * u[:, n]

    z = polyalg_module._newton(f, start, polyalg_module._NEWTON_STEPS)
    with np.errstate(all="ignore"):
        err = polyalg_module._backward_error(chebyshev_u(z, n)[0], lam, z)
    return z, bool(np.max(err) <= 16 * n * EPS)


def kernel_and_reference(monkeypatch, n, lam):
    """boundary_roots(n, lam), or None where it refuses, and the reference
    polish from the same comrade-matrix start (recorded, not recomputed)."""
    starts, real = [], np.linalg.eigvals

    def recording(T):
        starts.append(real(T))
        return starts[-1]

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    try:
        x = boundary_roots(n, lam)
    except NonConvergence:
        x = None
    finally:
        monkeypatch.undo()
    start = starts[0].reshape(-1) / 2
    return x, start, order_one_polish(n, lam, start)


def test_the_roots_do_not_move_with_the_slope_from_the_value_row(monkeypatch):
    # a seeded draw over n = 1..200 (log-uniform, so the O(n^3) eigensolve
    # stays cheap), half with |lam| in [0.05, 4] and half within 1e-3 of
    # the unit circle, plus two inputs whose recurrence overflows
    rng = np.random.default_rng(28)
    ns = np.rint(np.exp(rng.uniform(0, np.log(200), 500))).astype(int)
    ns[:2] = 1, 200
    mags = np.where(np.arange(500) % 2, rng.uniform(0.05, 4, 500),
                    1 + rng.uniform(-1e-3, 1e-3, 500))
    lams = mags * np.exp(2j * np.pi * rng.random(500))
    cases = list(zip(ns.tolist(), lams.tolist())) + [(200, 1e6), (120, 1e4)]
    worst_root = worst_slope = 0.0
    refused = []
    for n, lam in cases:
        x, start, (ref, certified) = kernel_and_reference(monkeypatch, n, lam)
        assert (x is not None) == certified
        if x is None:
            refused.append((n, lam))
            continue
        worst_root = max(worst_root, np.max(np.abs(x - ref) / np.abs(ref)))
        # P' of the identity against the derivative recurrence, away from
        # x = +-1 where the identity divides by 1 - x^2
        for z in (start, x):
            keep = np.abs(1 - z * z) > 1e-2
            want = chebyshev_u(z, n, 1)[1]
            want = (want[n + 1] - lam * want[n])[keep]
            got = polyalg_module._value_and_slope(z, n, lam)[1][keep]
            worst_slope = max(worst_slope,
                              np.max(np.abs(got - want) / np.abs(want), initial=0))
    assert worst_root <= 4.5e-16
    assert worst_slope <= 1e-10
    assert refused == [(200, 1e6), (120, 1e4)]


def test_a_root_at_plus_minus_one_is_certified_without_warnings(monkeypatch):
    # lam = +-(n + 1)/n puts a root exactly at x = +-1, where the slope
    # identity is 0/0; no step is taken there, and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 5, 30):
            for lam in ((n + 1) / n, -(n + 1) / n):
                x, _, (ref, certified) = kernel_and_reference(monkeypatch, n, lam)
                assert certified
                assert np.array_equal(x, ref)
                assert np.min(np.abs(x - np.sign(lam))) < 1e-15


def test_an_overflowing_recurrence_refuses_without_warnings():
    # U_200 at x ~ 5e5 overflows: the kernel refuses, and numpy's
    # overflow and invalid-value warnings stay inside it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="backward error nan"):
            boundary_roots(200, 1e6)
        with pytest.raises(NonConvergence):
            quasi_energies(ChainSpec(400, 1.000001))


def test_only_the_value_row_is_evaluated_for_the_roots(monkeypatch):
    # boundary_roots and mode_spectra run chebyshev_u at order 0 only;
    # double_roots (W' = 4 sum U_k U_k') and mode_arrays at order 1
    orders, real = [], polyalg_module.chebyshev_u

    def recording(x, n, order=0):
        orders.append(order)
        return real(x, n, order)

    monkeypatch.setattr(polyalg_module, "chebyshev_u", recording)
    monkeypatch.setattr(chain_module, "chebyshev_u", recording)
    boundary_roots(7, [0.3 + 0.4j, 1.7, -2.5j])
    boundary_roots(40, 0.9j)
    mode_spectra(12, [0.2 + 0.1j, 1.3], "both")
    assert orders and set(orders) == {0}
    orders.clear()
    double_roots(5)
    assert orders and set(orders) == {1}
    orders.clear()
    mode_arrays(8, 0.4, "I", [0.5 + 0.1j], [0.2], order=1)
    assert orders == [1]
