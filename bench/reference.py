"""High-precision reference values, computed without importing xyep.

Every quantization root of the open chain solves
``U_n(x) - lam * U_{n-1}(x) = 0`` with ``n = L/2``; mode I uses
``lam = -(1 - gamma)/(1 + gamma)`` and mode II its inverse.  Writing
``x = cos(theta)`` turns ``U_m(x)`` into ``sin((m+1) theta)/sin(theta)``,
so each root is a zero of ``sin((n+1) theta) - lam * sin(n theta)``.
Float starts come from the eigenvalues of the n x n tridiagonal matrix
``T = tridiag(1, 0, 1)`` with ``T[n-1, n-1] = lam`` (``det(2x - T)`` is the
boundary polynomial); mpmath Newton steps in theta then carry every root
to ``DIGITS`` significant digits.  Exceptional points are the double
roots: zeros of the Wronskian ``U_n' U_{n-1} - U_n U_{n-1}'`` (degree
L - 2, rooted in the Chebyshev basis), polished in theta on
``(n+1) cos((n+1)t) sin(nt) - n sin((n+1)t) cos(nt)``.

mpmath is not a declared dependency of the package; this module is the
only place the benchmark imports it.
"""

from __future__ import annotations

import itertools

import numpy as np
from numpy.polynomial import Chebyshev

try:
    from mpmath import mp
except ImportError as exc:  # pragma: no cover - depends on the environment
    raise SystemExit(
        "bench: mpmath is required for the reference values "
        "(pip install mpmath)") from exc

DIGITS = 34
# Newton stops once a step is below this share of |theta|
_STEP_TOL = 1e-30
_MAX_NEWTON = 8


class ReferenceFailure(Exception):
    """A reference value could not be certified (no convergence, lost root)."""


def gamma_to_lambda(gamma: complex) -> complex:
    return -(1 - gamma) / (1 + gamma)


def lambda_to_gamma(lam: complex) -> complex:
    return (1 + lam) / (1 - lam)


def eps_of_x(gamma: complex, x: complex) -> complex:
    """Principal quasi-energy: Re eps >= 0, ties broken to Im eps >= 0."""
    e = np.sqrt(complex(((1 - gamma * gamma) * x + 1 + gamma * gamma) / 2))
    if e.real < 0 or (e.real == 0 and e.imag < 0):
        e = -e
    return complex(e)


def _newton_theta(theta, f):
    """Newton on an analytic f(theta) -> (value, derivative) at mp precision."""
    for _ in range(_MAX_NEWTON):
        val, der = f(theta)
        if der == 0:
            raise ReferenceFailure("vanishing derivative in reference Newton")
        step = val / der
        theta -= step
        if abs(step) <= _STEP_TOL * (1 + abs(theta)):
            return theta
    raise ReferenceFailure("reference Newton did not converge")


def tridiagonal_roots(n: int, lam: complex) -> np.ndarray:
    T = np.zeros((n, n), dtype=complex)
    idx = np.arange(n - 1)
    T[idx, idx + 1] = T[idx + 1, idx] = 1.0
    T[n - 1, n - 1] = lam
    return np.linalg.eigvals(T) / 2


def _check_distinct(xs: np.ndarray, what: str):
    if xs.size < 2:
        return
    gaps = np.abs(xs[:, None] - xs[None, :]) + np.eye(xs.size)
    if gaps.min() <= 1e-10 * (1 + np.abs(xs).max()):
        raise ReferenceFailure(f"{what}: polished roots are not distinct")


def boundary_roots(n: int, lam: complex, skip_near=None) -> np.ndarray:
    """All n roots x of U_n - lam U_{n-1}, each to DIGITS digits.

    ``skip_near`` names a known double root: the two float starts
    closest to it are dropped (Newton converges only linearly there) and
    the value is inserted twice, exactly as given.
    """
    mp.dps = DIGITS
    starts = tridiagonal_roots(n, lam)
    if skip_near is not None:
        far = np.argsort(np.abs(starts - skip_near))[2:]
        starts = starts[far]
    lam_mp = mp.mpc(lam)

    def f(theta):
        s1, c1 = mp.sin((n + 1) * theta), mp.cos((n + 1) * theta)
        s0, c0 = mp.sin(n * theta), mp.cos(n * theta)
        return s1 - lam_mp * s0, (n + 1) * c1 - lam_mp * n * c0

    out = []
    for x0 in starts:
        theta = _newton_theta(mp.acos(mp.mpc(complex(x0))), f)
        x = complex(mp.cos(theta))
        if abs(x - x0) > 1e-6 * (1 + abs(x0)):
            raise ReferenceFailure("reference root wandered from its start")
        out.append(x)
    if skip_near is not None:
        out += [complex(skip_near)] * 2
    xs = np.array(out, dtype=complex)
    _check_distinct(xs[:n - 2] if skip_near is not None else xs,
                    f"boundary roots n={n}")
    return xs


def quasi_energies(L: int, gamma: complex, ep=None) -> dict[str, np.ndarray]:
    """Positive-branch quasi-energies per mode, largest (Re, Im) first.

    ``ep`` is an optional ``(mode, x)`` double root to take as exact.
    """
    lam = gamma_to_lambda(gamma)
    out = {}
    for mode, lam_m in (("I", lam), ("II", 1 / lam)):
        skip = ep[1] if ep is not None and ep[0] == mode else None
        xs = boundary_roots(L // 2, lam_m, skip_near=skip)
        eps = np.array([eps_of_x(gamma, x) for x in xs])
        out[mode] = eps[np.lexsort((-eps.imag, -eps.real))]
    return out


def many_body(eps_I: np.ndarray, eps_II: np.ndarray) -> np.ndarray:
    """All 2^L energies (1/2) sum_k s_k eps_k, s_k = +-1, as a flat array."""
    eps = np.concatenate([eps_I, eps_II])
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=eps.size)))
    return 0.5 * signs @ eps


def _wronskian_roots(n: int) -> np.ndarray:
    u_n = Chebyshev.basis(n + 1).deriv() / (n + 1)
    u_m = Chebyshev.basis(n).deriv() / n
    return (u_n.deriv() * u_m - u_n * u_m.deriv()).roots()


def ep_points_float(L: int) -> list[complex]:
    """Exceptional anisotropies of both modes in double precision only."""
    n = L // 2
    out = []
    for x in _wronskian_roots(n):
        t = np.arccos(complex(x))
        g = lambda_to_gamma(np.sin((n + 1) * t) / np.sin(n * t))
        out += [g, -g]
    return out


def ep_points(L: int) -> list[dict]:
    """All 2(L-2) exceptional points at chain length L, to DIGITS digits.

    Each entry holds mode, lam, gamma, the double root x and the
    principal quasi-energy there.  Mode II points are the images
    lam -> 1/lam (gamma -> -gamma) of the mode I points.
    """
    mp.dps = DIGITS
    n = L // 2

    def h(theta):
        s1, c1 = mp.sin((n + 1) * theta), mp.cos((n + 1) * theta)
        s0, c0 = mp.sin(n * theta), mp.cos(n * theta)
        return (n + 1) * c1 * s0 - n * s1 * c0, -(2 * n + 1) * s1 * s0

    out = []
    for x0 in _wronskian_roots(n):
        theta = _newton_theta(mp.acos(mp.mpc(complex(x0))), h)
        lam_mp = mp.sin((n + 1) * theta) / mp.sin(n * theta)
        x = complex(mp.cos(theta))
        for mode, lam in (("I", lam_mp), ("II", 1 / lam_mp)):
            gamma = complex((1 + lam) / (1 - lam))
            out.append({"mode": mode, "lam": complex(lam), "gamma": gamma,
                        "x": x, "epsilon": eps_of_x(gamma, x)})
    gammas = np.array([p["gamma"] for p in out])
    if len(out) != 2 * (L - 2):
        raise ReferenceFailure(f"L={L}: {len(out)} EPs, expected {2 * (L - 2)}")
    _check_distinct(gammas, f"EP anisotropies L={L}")
    return out
