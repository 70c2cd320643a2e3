"""The boundary polynomial of the open chain and its roots.

Every quasi-energy of one mode is a root x of

    P(x, lam) = U_n(x) - lam * U_{n-1}(x),    n = L / 2,

with U_k the Chebyshev polynomials of the second kind, and an
exceptional point is a double root of P.  This module holds the three
things that work on P:

* :func:`chebyshev_u`, the three-term recurrence for U_k and its first
  derivative (the only evaluator of P and P');
* :func:`boundary_roots`, the n roots of P for one lam or for many in
  one stacked solve.  Below a crossover degree they start as the
  eigenvalues of a tridiagonal comrade matrix (Good, "The colleague
  matrix", 1961), an O(n^3) solve; from it on, from the open-chain
  quantization x = cos(theta), z^{2n+1} = (1 - lam z) / (z - lam) with
  z = e^{i theta} (Lieb, Schultz and Mattis, 1961), and Aberth-Ehrlich
  steps, O(n^2) each.  Either start is Newton-polished on the value row
  of the recurrence alone and certified by a backward error; a row from
  the quantization must also have pairwise disjoint Weierstrass
  inclusion discs, which proves it holds all n roots, and a row that
  fails is solved again from the comrade matrix;
* :func:`double_roots`, the exceptional points: the roots of the
  Wronskian W = U_n' U_{n-1} - U_n U_{n-1}' = 2 sum_{k<n} U_k^2, which
  eliminates lam by hand (Mason and Handscomb, "Chebyshev Polynomials",
  2003), from a comrade matrix too, with lam read off as U_n / U_{n-1}.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput, NonConvergence

__all__ = ["chebyshev_u", "boundary_roots", "double_roots"]

_NEWTON_STEPS = 2
# boundary_roots starts from the open-chain quantization from this degree
# on, and from the comrade matrix below it (the measured crossover)
_QUANTIZED_DEGREE = 26
# at most this many Aberth steps per row; 6 sufficed for every n <= 1000
_ABERTH_STEPS = 10
# boundary_roots holds at most this many comrade-matrix or root-difference
# entries (m n^2) at once, which bounds its memory for many parameters at
# large degree
_CHUNK_ENTRIES = 2 ** 18


def chebyshev_u(x, n: int, order: int = 0) -> np.ndarray:
    """U_{-1}, U_0, ..., U_n at x, and at ``order = 1`` their derivatives.

    Entry ``[d, k + 1]`` is the d-th derivative of U_k at x, so the shape
    is ``(order + 1, n + 2) + shape(x)``; the derivative row differentiates
    U_{k+1} = 2x U_k - U_{k-1}, and the value row is the same at either
    order.  Other orders raise :class:`DegenerateInput`.
    """
    if order not in (0, 1):
        raise DegenerateInput(f"order must be 0 or 1, got {order}")
    x = np.asarray(x, dtype=complex)
    u = np.zeros((order + 1, n + 2) + x.shape, dtype=complex)
    u[0, 1] = 1.0
    two_x = 2 * x
    val = u[0]
    for k in range(1, n + 1):
        val[k + 1] = two_x * val[k] - val[k - 1]
    if order:
        der = u[1]
        for k in range(1, n + 1):
            der[k + 1] = two_x * der[k] - der[k - 1] + 2.0 * val[k]
    return u


def _backward_error(ud: np.ndarray, lam, x: np.ndarray) -> np.ndarray:
    """|U_n - lam U_{n-1}| relative to the size of the terms that make it.

    ``ud`` is one derivative order of :func:`chebyshev_u`, so the same
    measure certifies P (order 0) and P' (order 1); ``lam`` broadcasts
    against x.
    """
    n = ud.shape[0] - 2
    scale = (1 + abs(lam)) * np.abs(ud[1:]).max(axis=0) * (1 + np.abs(x))
    return np.abs(ud[n + 1] - lam * ud[n]) / scale


def _newton(f, x: np.ndarray, steps: int) -> np.ndarray:
    """Newton steps on f(x) -> (value, derivative); a step is kept only where it lowers |f|."""
    with np.errstate(all="ignore"):
        val, der = f(x)
        for _ in range(steps):
            x_new = x - val / der
            val_new, der_new = f(x_new)
            better = np.abs(val_new) < np.abs(val)
            x = np.where(better, x_new, x)
            val = np.where(better, val_new, val)
            der = np.where(better, der_new, der)
    return x


def _value_and_slope(z: np.ndarray, n: int, lam) -> tuple[np.ndarray, np.ndarray]:
    """P = U_n - lam U_{n-1} at z and P' from the same value row (0/0 at z = +-1)."""
    u = chebyshev_u(z, n)[0]
    slope = ((n + 1) * u[n] - n * z * u[n + 1]
             - lam * (n * u[n - 1] - (n - 1) * z * u[n])) / (1 - z * z)
    return u[n + 1] - lam * u[n], slope


def _tolerance(n: int) -> float:
    return 16 * n * np.finfo(float).eps


def _certify(err: np.ndarray, n: int, what: str):
    tol = _tolerance(n)
    worst = float(np.max(err, initial=0.0))
    if not worst <= tol:
        raise NonConvergence(
            f"{what}: backward error {worst:.3e} exceeds {tol:.3e} (n = {n})")


def _quantized_start(n: int, lams: np.ndarray) -> np.ndarray:
    """cos(theta_k), k = 1..n, for each lam, from the open-chain quantization.

    With x = cos(theta) and z = e^{i theta}, P = 0 reads z^{2n+1} = R(z),
    R(z) = (1 - lam z) / (z - lam) (Lieb, Schultz and Mattis, Ann. Phys.
    16, 407 (1961)); two sweeps of theta <- (2 pi k - i Log R) / (2n + 1)
    from theta = pi k / (n + 1), exact at lam = 0 and at lam = -1.
    """
    k = np.arange(1, n + 1)
    lam = lams[:, None]
    theta = np.pi * k / (n + 1)
    for _ in range(2):
        z = np.exp(1j * theta)
        theta = (2 * np.pi * k - 1j * np.log((1 - lam * z) / (z - lam))) / (2 * n + 1)
    return np.cos(theta)


def _aberth(n: int, lam: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Aberth-Ehrlich steps on the rows of x, each row with its own lam.

    A row stops once every step is below 1e-15 (1 + |x|), or after
    ``_ABERTH_STEPS`` steps; a step that is not finite is not taken.
    """
    rows, idx = np.arange(x.shape[0]), np.arange(n)
    for _ in range(_ABERTH_STEPS):
        z = x[rows]
        val, slope = _value_and_slope(z, n, lam[rows])
        d = z[:, :, None] - z[:, None, :]
        d[:, idx, idx] = np.inf
        ratio = val / slope
        step = ratio / (1 - ratio * (1 / d).sum(-1))
        step[~np.isfinite(step)] = 0
        x[rows] = z - step
        rows = rows[(np.abs(step) > 1e-15 * (1 + np.abs(z))).any(-1)]
        if not rows.size:
            break
    return x


def _isolated(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether each row's Weierstrass discs are pairwise disjoint.

    The disc about x_i has radius r_i = n |P(x_i)| / (2^n prod_{j != i}
    |x_i - x_j|), 2^n being the leading coefficient of P; disjoint discs
    each hold exactly one root (Braess and Hadeler, 1973), so the row
    holds all n roots, up to the rounding of the computed |P(x_i)|, which
    the backward-error bound limits.  The product is summed as logs,
    which neither overflows nor underflows at large n.
    """
    n = x.shape[-1]
    d = np.abs(x[:, :, None] - x[:, None, :])
    idx = np.arange(n)
    d[:, idx, idx] = 0.5  # log(2 d_ii) = 0 leaves j = i out of the product
    r = np.exp(np.log(n * np.abs(p) / 2) - np.log(2 * d).sum(-1))
    d[:, idx, idx] = np.inf
    return (d > r[:, :, None] + r[:, None, :]).all(axis=(1, 2))


def _quantized(n: int, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row from :func:`_quantized_start`, and which rows are kept.

    Aberth steps, then the two Newton steps of the comrade path; a row is
    kept if it meets the backward-error bound and its discs are disjoint.
    """
    lam = lams[:, None]
    with np.errstate(all="ignore"):
        x = _aberth(n, lam, _quantized_start(n, lams))
        z = _newton(lambda z: _value_and_slope(z, n, lam), x, _NEWTON_STEPS)
        u = chebyshev_u(z, n)[0]
        kept = (_backward_error(u, lam, z).max(-1) <= _tolerance(n)) \
            & _isolated(u[n + 1] - lam * u[n], z)
    return z, kept


def _comrade(n: int, lams: np.ndarray) -> np.ndarray:
    """Roots of each row from the comrade-matrix start, certified, shape (m, n).

    det(2x - T) is P for the n x n tridiagonal T = tridiag(1, 0, 1) with
    T[n-1, n-1] = lam, so the roots start as the eigenvalues of T, halved.
    """
    idx = np.arange(n - 1)
    T = np.zeros((lams.size, n, n), dtype=complex)
    T[:, idx, idx + 1] = T[:, idx + 1, idx] = 1.0
    T[:, n - 1, n - 1] = lams
    # the rows' roots side by side, each with its own lam
    lam_x = np.repeat(lams, n)
    z = _newton(lambda z: _value_and_slope(z, n, lam_x),
                np.linalg.eigvals(T).reshape(-1) / 2, _NEWTON_STEPS)
    with np.errstate(all="ignore"):
        _certify(_backward_error(chebyshev_u(z, n)[0], lam_x, z), n,
                 "boundary roots")
    return z.reshape(lams.size, n)


def boundary_roots(n: int, lam) -> np.ndarray:
    """The n roots x of U_n(x) - lam U_{n-1}(x), with multiplicity.

    ``lam`` is one boundary parameter or an array of them; the roots
    have shape ``shape(lam) + (n,)``, so a scalar gives ``(n,)`` and m
    parameters ``(m, n)``, row i holding the roots for ``lam[i]``.

    Below degree ``_QUANTIZED_DEGREE`` the roots start as the eigenvalues
    of the comrade matrix (:func:`_comrade`), which costs O(n^3) per
    parameter.  From that degree on they start from the open-chain
    quantization (:func:`_quantized_start`) and take Aberth-Ehrlich steps
    (Bini, Numer. Algorithms 13, 179 (1996)), O(n^2) each.  Either way
    each root then takes two Newton steps, with P' read off the value row
    by (1 - x^2) U_k' = (k + 1) U_{k-1} - k x U_k; P' only steers, as a
    step is kept only where |P| falls.  Every row must meet the
    backward-error bound 16 n eps on P.  A quantized row must also have
    pairwise disjoint Weierstrass discs, which proves it holds all n
    roots; a row that fails either is solved again from the comrade
    start, and :class:`NonConvergence` is raised if that row fails the
    bound.  The bound holds at a double root as well, where the
    coalescing pair stays split by about sqrt(eps) (its discs meet, so
    it takes the comrade path).  Rows are solved in chunks of at most
    ``_CHUNK_ENTRIES`` matrix entries; every step acts on each row
    alone, so a row does not depend on the others or on the chunking.
    """
    if n < 1:
        raise DegenerateInput(f"boundary polynomial needs degree >= 1, got {n}")
    lam = np.asarray(lam, dtype=complex)
    bad = ~np.isfinite(lam)
    if bad.any():
        raise DegenerateInput(
            f"boundary parameter must be finite, got {lam[bad][0]:.6g}")
    lams = lam.reshape(-1)
    x = np.empty((lams.size, n), dtype=complex)
    rows = max(1, _CHUNK_ENTRIES // (n * n))
    for start in range(0, lams.size, rows):
        part = lams[start: start + rows]
        if n < _QUANTIZED_DEGREE:
            x[start: start + rows] = _comrade(n, part)
            continue
        z, kept = _quantized(n, part)
        if not kept.all():
            z[~kept] = _comrade(n, part[~kept])
        x[start: start + rows] = z
    return x.reshape(lam.shape + (n,))


def double_roots(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (x, lam) at which U_n - lam U_{n-1} has a double root in x.

    These are the 2n - 2 roots of the Wronskian W = 2 sum_{j<n} (n - j)
    U_{2j}; W / 2 = det(2x - T) for T = tridiag(1, 0, 1) with n - j
    subtracted at column 2j of its last row (the comrade matrix), so they
    start as the eigenvalues of T, halved, and take two Newton steps on
    W = 2 sum_{k<n} U_k^2 and W' = 4 sum_{k<n} U_k U_k' (one order-1 row,
    no U'').  Returns x, lam = U_n / U_{n-1} and the larger of the backward
    errors of P and P' at (x, lam); both must meet 16 n eps, else
    :class:`NonConvergence` is raised.
    """
    if n < 2:
        raise DegenerateInput(f"a double root needs degree >= 2, got {n}")
    T = np.eye(2 * n - 2, k=1)
    T += T.T
    T[-1, ::2] -= np.arange(n, 1, -1)
    start = np.linalg.eigvals(T) / 2
    del T  # the order-1 rows below are the peak memory; T need not add to it

    def f(z):
        u = chebyshev_u(z, n, 1)[:, 1: n + 1]
        return (2 * np.einsum("k...,k...->...", u[0], u[0]),
                4 * np.einsum("k...,k...->...", u[0], u[1]))

    x = _newton(f, start, _NEWTON_STEPS)
    u = chebyshev_u(x, n, 1)
    lam = u[0, n + 1] / u[0, n]
    with np.errstate(all="ignore"):
        err = np.maximum(*(_backward_error(ud, lam, x) for ud in u))
    _certify(err, n, "double roots")
    return x, lam, err
