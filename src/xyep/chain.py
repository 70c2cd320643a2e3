"""Single-particle structure of the open anisotropic chain.

The quadratic form behind the spin Hamiltonian is encoded in a 2L x 2L
complex symmetric block matrix M = [[A, B], [-B, -A]] built from the
nearest-neighbour couplings.  Its spectrum comes in two families
("modes"), each governed by the boundary polynomial
U_n(x) - lam U_{n-1}(x) in the Chebyshev variable x, with lam for mode I
and 1/lam for mode II; every root x yields a quasi-energy pair +-eps and
an explicitly known eigenvector with checkerboard support.

:func:`mode_spectra` is the one place where roots (from
:func:`xyep.polyalg.boundary_roots`) become branch-ordered quasi-energies,
for many anisotropies and one or both modes in one root solve, laid out
``(m, k, L/2)``: anisotropy, mode (mode I first), branch;
:func:`quasi_energies` labels its one-anisotropy row of both modes, and
:func:`mode_arrays` is the one evaluator of mode data: eigenvector
halves and, at order 1, their eps-derivative, at any number of roots of
one mode and any number of anisotropies in one call, so
consumers make one call per mode (the two Jordan chains at an
exceptional point share one; a rigidity grid, one per chunk of cells);
:func:`mode_vectors` normalizes such a block column by column.

A :class:`ChainSpec` solves its boundary roots once: its first
:func:`quasi_energies` call keeps the :func:`mode_spectra` row on the
instance as labelled points, and every later quasi-energy, basis or
many-body call on that spec reads them.  Equal but distinct specs do
not share the result, so build one spec per chain and pass it around.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DefectiveBasis,
    DegenerateInput,
    EpsilonZero,
    LambdaSingular,
    ModeCoincidenceWarning,
    NearEPWarning,
    as_int,
    as_number,
)
from .polyalg import boundary_roots, chebyshev_u

__all__ = [
    "ChainSpec",
    "QuasiHamiltonian",
    "SpectralPoint",
    "ModeVector",
    "MODES",
    "gamma_to_lambda",
    "lambda_to_gamma",
    "eps_of_x",
    "build_quasi_hamiltonian",
    "check_length",
    "mode_names",
    "mode_spectra",
    "quasi_energies",
    "mode_arrays",
    "mode_vectors",
    "mode_vector_poly",
]

MODES = ("I", "II")

# boundary-root pairs closer than this trigger NearEPWarning; the
# splitting scales like sqrt of the distance to the exceptional gamma,
# so this catches anisotropies within roughly 1e-8 of an EP
NEAR_EP_TOL = 1e-4


@dataclass(frozen=True)
class ChainSpec:
    """Chain length and complex anisotropy.

    ``L`` must be an even integer, at least 2, and ``gamma`` a finite
    number (a string such as ``"0.3"`` is refused).  ``gamma = -1`` is
    excluded outright: the boundary parameter lambda has a pole there.
    A spec solves its boundary roots once, on the first
    :func:`quasi_energies` call, and keeps them; an equal but distinct
    spec solves them again.
    """

    L: int
    gamma: complex

    def __post_init__(self):
        object.__setattr__(self, "L", check_length(self.L))
        object.__setattr__(self, "gamma",
                           complex(as_number(self.gamma, "anisotropy")))
        _check_finite(self.gamma)
        if self.gamma == -1:
            raise LambdaSingular("gamma = -1 is a pole of the boundary parameter")

    @property
    def n_pairs(self) -> int:
        return self.L // 2

    @cached_property
    def _points(self) -> tuple["SpectralPoint", ...]:
        """Both modes' :func:`mode_spectra` row as labelled points, in the
        order :func:`quasi_energies` returns; a refusal is not kept."""
        eps, x = (row[0].tolist()
                  for row in mode_spectra(self.L, self.gamma, "both"))
        return tuple(SpectralPoint(mode=mode, branch=b + 1, sign=+1,
                                   epsilon=e, x=xx)
                     for mode, es, xs in zip(MODES, eps, x)
                     for b, (e, xx) in enumerate(zip(es, xs)))

    @cached_property
    def _near_ep_pairs(self) -> tuple[tuple[str, complex, complex], ...]:
        """(mode, x, x') of each pair of one mode's roots that nearly
        coincide (NEAR_EP_TOL), in row-major order."""
        x = np.array([[p.x for p in self._points if p.mode == m] for m in MODES])
        close = np.abs(x[:, :, None] - x[:, None, :]) \
            <= NEAR_EP_TOL * (1 + np.abs(x))[:, :, None]
        mode, i, j = np.nonzero(np.triu(close, 1))
        return tuple((MODES[k], x[k, a], x[k, b]) for k, a, b in zip(mode, i, j))


def check_length(L) -> int:
    """L as an int; DegenerateInput unless it is an even integer >= 2."""
    L = as_int(L, "chain length")
    if L < 2 or L % 2:
        raise DegenerateInput(f"chain length must be even and >= 2, got {L}")
    return L


def mode_names(mode: str) -> tuple[str, ...]:
    """The modes ``mode`` names: :data:`MODES` for ``"both"``, else ``(mode,)``."""
    if mode != "both" and mode not in MODES:
        raise DegenerateInput(f"mode must be 'I', 'II' or 'both', got {mode!r}")
    return MODES if mode == "both" else (mode,)


def _check_finite(gammas):
    """DegenerateInput naming the first anisotropy that is not finite."""
    gammas = np.atleast_1d(gammas)
    bad = ~np.isfinite(gammas)
    if bad.any():
        raise DegenerateInput(
            f"anisotropy must be finite, got gamma = {gammas[bad][0]:.6g}")


def _result(value: np.ndarray):
    """A numpy result as a Python complex for scalar input, else the array."""
    return complex(value) if np.ndim(value) == 0 else value


# The maps below evaluate in numpy whether given a scalar or an array,
# so one anisotropy's value is bit for bit its entry in a batch.

def gamma_to_lambda(gamma):
    """Boundary parameter lambda = -(1 - gamma) / (1 + gamma)."""
    gamma = np.asarray(gamma, dtype=complex)
    if (gamma == -1).any():
        raise LambdaSingular("lambda diverges at gamma = -1")
    return _result(-(1 - gamma) / (1 + gamma))


def lambda_to_gamma(lam):
    """Inverse map gamma = (1 + lambda) / (1 - lambda)."""
    lam = np.asarray(lam, dtype=complex)
    if (lam == 1).any():
        raise LambdaSingular("gamma diverges at lambda = 1")
    return _result((1 + lam) / (1 - lam))


def eps_of_x(gamma, x):
    """Principal quasi-energy branch: Re eps >= 0, ties broken to Im eps >= 0.

    ``gamma`` and ``x`` broadcast against each other.
    """
    g2 = np.square(np.asarray(gamma, dtype=complex))
    e = np.sqrt(((1 - g2) * np.asarray(x, dtype=complex) + 1 + g2) / 2)
    flip = (e.real < 0) | ((e.real == 0) & (e.imag < 0))
    return _result(np.where(flip, -e, e))


@dataclass(frozen=True)
class QuasiHamiltonian:
    """The block matrix M together with its ingredients A and B."""

    spec: ChainSpec
    A: np.ndarray
    B: np.ndarray
    M: np.ndarray


def build_quasi_hamiltonian(spec: ChainSpec) -> QuasiHamiltonian:
    """Assemble M = [[A, B], [-B, -A]] for the open chain."""
    L, g = spec.L, spec.gamma
    j = np.arange(L - 1)
    A = np.zeros((L, L), dtype=complex)
    B = np.zeros((L, L), dtype=complex)
    A[j, j + 1] = A[j + 1, j] = 0.5
    B[j, j + 1] = g / 2
    B[j + 1, j] = -g / 2
    M = np.empty((2 * L, 2 * L), dtype=complex)
    M[:L, :L], M[:L, L:], M[L:, :L], M[L:, L:] = A, B, -B, -A
    return QuasiHamiltonian(spec=spec, A=A, B=B, M=M)


@dataclass(frozen=True)
class SpectralPoint:
    """One labelled quasi-energy: mode, branch index within the mode, and sign."""

    mode: str
    branch: int
    sign: int
    epsilon: complex
    x: complex

    def negated(self) -> "SpectralPoint":
        return SpectralPoint(self.mode, self.branch, -self.sign,
                             -self.epsilon, self.x)


def mode_spectra(L: int, gammas, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Positive-branch quasi-energies of one or both modes at m anisotropies.

    ``gammas`` holds m anisotropies (a scalar counts as m = 1) and
    ``mode`` is ``"I"``, ``"II"`` or ``"both"``; returns ``(eps, x)`` of
    shape ``(m, k, L/2)``, k = 1 for one mode and k = 2 for both (mode I
    first), from one :func:`xyep.polyalg.boundary_roots` call.  Row
    ``[i, j]`` holds mode j's branches at ``gammas[i]`` in branch order,
    decreasing (Re eps, Im eps), so it is the same whatever else is in
    the batch.  Raises :class:`LambdaSingular` at gamma = +-1 and
    :class:`DegenerateInput` when some gamma or eps is not finite
    (gamma^2 overflows above |gamma| ~ 1e154).
    """
    L, modes = check_length(L), mode_names(mode)
    gammas = np.atleast_1d(np.asarray(gammas, dtype=complex))
    _check_finite(gammas)
    if ((gammas == 1) | (gammas == -1)).any():
        raise LambdaSingular("boundary polynomial undefined at gamma = +-1")
    lam = gamma_to_lambda(gammas)
    # (m, k): each anisotropy's boundary parameters, lam for mode I, 1/lam for II
    lams = np.stack([lam if m == "I" else 1 / lam for m in modes], -1)
    x = boundary_roots(L // 2, lams)
    with np.errstate(over="ignore", invalid="ignore"):
        eps = eps_of_x(gammas[:, None, None], x)
    bad = ~np.all(np.isfinite(eps), axis=(1, 2))
    if bad.any():
        raise DegenerateInput(
            f"quasi-energies are not finite at gamma = {gammas[bad][0]:.6g}")
    order = np.lexsort((-eps.imag, -eps.real), axis=-1)
    return np.take_along_axis(eps, order, -1), np.take_along_axis(x, order, -1)


def _outside_stacklevel() -> int:
    """``stacklevel`` that makes the caller's warning name the first frame outside xyep."""
    frame, level = sys._getframe(1), 1
    while frame and frame.f_globals.get("__package__") == __package__:
        frame, level = frame.f_back, level + 1
    return level


def quasi_energies(spec: ChainSpec, warn: bool = True) -> list[SpectralPoint]:
    """The L positive-branch quasi-energies as labelled points, in branch order.

    The one-anisotropy row of :func:`mode_spectra` for both modes: per
    mode, branches are numbered 1..L/2 in order of decreasing
    (Re eps, Im eps), and mode I's L/2 points come before mode II's.
    Emits :class:`NearEPWarning` when two roots of one boundary
    polynomial nearly coincide (see NEAR_EP_TOL) and
    :class:`ModeCoincidenceWarning` at gamma = 0 where the two modes
    have identical spectra; both name the first caller outside this
    package.  The points are made on the first call for ``spec`` and
    kept on it, the near pairs on the first call that warns; each call
    returns a new list and warns again.  Equal specs share none.
    """
    if warn:
        if abs(gamma_to_lambda(spec.gamma) + 1) < 1e-14:
            warnings.warn("gamma = 0: both modes share one boundary condition",
                          ModeCoincidenceWarning, stacklevel=_outside_stacklevel())
        for mode, x, x2 in spec._near_ep_pairs:
            warnings.warn(
                f"mode {mode}: boundary roots {x:.6g} and {x2:.6g} nearly "
                "coincide; an exceptional point may be close", NearEPWarning,
                stacklevel=_outside_stacklevel())
    return list(spec._points)


@dataclass(frozen=True)
class ModeVector:
    """Eigenvector data (phi, psi) of one spectral point.

    phi lives on even sites and psi on odd sites for mode I; mode II
    swaps the supports.  Normalized so phi.phi + psi.psi = 1 under the
    unconjugated bilinear form, with a deterministic overall sign.
    ``boundary_residual`` is the value of the would-be component just
    outside the chain, which vanishes exactly on a quantized root.
    """

    mode: str
    sign: int
    epsilon: complex
    phi: np.ndarray
    psi: np.ndarray
    scale: complex
    boundary_residual: float


def mode_arrays(L: int, gammas, mode: str, eps, x, order: int = 0):
    """Unnormalized (phi, psi) for the +eps branch at k roots of one mode.

    ``eps`` and ``x`` have shape ``leading + (k,)`` (a scalar counts as
    k = 1) and are evaluated in one recurrence; ``gammas`` broadcasts
    against their leading axes, so a scalar serves every root and an
    array of m anisotropies stacks m evaluations, ``eps`` and ``x`` then
    ``(m, k)``.  ``phi`` and ``psi`` have shape
    ``leading + (order + 1, L, k)`` and the boundary values shape
    ``leading + (k,)``; slice i of a stack is bit for bit the call at
    ``gammas[i]`` alone.  As in :func:`xyep.polyalg.chebyshev_u`, row d
    is the d-th derivative: ``order = 1`` adds d(phi, psi)/d(eps) along
    the dispersion x(eps).
    Even sites carry plain Chebyshev values; odd sites carry the
    eps-dependent combination.  Division by eps makes eps = 0 unusable
    here, so it raises :class:`EpsilonZero`.  det(A +- B) is a nonzero
    constant for gamma != +-1, so no exact eps vanishes, but
    :func:`eps_of_x` can cancel an edge mode's eps to exactly 0 at large
    L (the README's known limitation on edge-mode quasi-energies).
    """
    L = check_length(L)
    n = L // 2
    eps = np.atleast_1d(np.asarray(eps, dtype=complex))
    if np.any(eps == 0):
        raise EpsilonZero("mode construction divides by the quasi-energy")
    if mode not in MODES:
        raise DegenerateInput(f"mode must be 'I' or 'II', got {mode!r}")
    # one anisotropy for all k roots of its row of eps and x
    g = np.asarray(gammas, dtype=complex)[..., None]
    u = chebyshev_u(np.atleast_1d(x), n, order)
    ca, cb = (1 + g, 1 - g) if mode == "I" else (1 - g, 1 + g)
    # U_0 .. U_{n-1} on sites 2,4,..,L; the eps-dependent mix on 1,3,..,L-1
    even = [u[0, 1: n + 1]]
    odd = [(ca * u[0, 1: n + 1] + cb * u[0, 0: n]) / (2 * eps)]
    if order:
        w = 1 - g * g
        du = u[1]
        even.append(du[1: n + 1] * (4 * eps / w))
        odd.append(-odd[0] / eps + (ca * du[1: n + 1] + cb * du[0: n]) * (2 / w))
    phi = np.zeros((order + 1, L) + eps.shape, dtype=complex)
    psi = np.zeros_like(phi)
    # site s (1-based) lives at array index s-1
    even_half, odd_half = (phi, psi) if mode == "I" else (psi, phi)
    even_half[:, 1::2] = even
    odd_half[:, 0::2] = odd
    boundary = (ca * u[0, n + 1] + cb * u[0, n]) / (2 * eps)
    # the leading axes of eps go first: leading + (order + 1, L, k)
    axes = (*range(2, phi.ndim - 1), 0, 1, -1)
    return phi.transpose(axes), psi.transpose(axes), boundary


def mode_vectors(spec: ChainSpec, mode: str, points: list[SpectralPoint]):
    """Normalized +eps halves (L x k) of k points of one mode, in one call.

    Each column is scaled to phi.phi + psi.psi = 1, with the sign that
    makes the site-1 entry phi[0] + psi[0] have Re > 0 (or Re = 0,
    Im > 0).  One half vanishes there by the checkerboard support and
    the other is (1 +- gamma) / (2 eps) before scaling, nonzero for
    every chain, so no rounding tie decides the sign.  Returns
    ``(phi, psi, scale, boundary_residual)``: the halves, the k scales
    applied to the :func:`mode_arrays` values, and |scale * boundary|,
    which vanishes on a quantized root.  The -eps partner of a column
    is (-phi, psi), exactly; a null column, or one whose norm overflows,
    raises :class:`DefectiveBasis`.
    """
    eps = [p.epsilon if p.sign > 0 else -p.epsilon for p in points]
    phi, psi, boundary = mode_arrays(spec.L, spec.gamma, mode, eps,
                                     [p.x for p in points])
    phi, psi = phi[0], psi[0]
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = np.sum(phi * phi + psi * psi, axis=0)
    if not np.isfinite(n2).all():
        raise DefectiveBasis("a mode vector's bilinear norm is not finite")
    if np.any(np.abs(n2) < 1e-300):
        raise DefectiveBasis("a mode vector is bilinearly null; the "
                             "spectrum is defective here")
    s = 1.0 / np.sqrt(n2)
    lead = (phi[0] + psi[0]) * s
    s = np.where((lead.real < 0) | ((lead.real == 0) & (lead.imag < 0)), -s, s)
    return phi * s, psi * s, s, np.abs(s * boundary)


def mode_vector_poly(spec: ChainSpec, point: SpectralPoint) -> ModeVector:
    """Eigenvector of M at a spectral point: :func:`mode_vectors` with k = 1.

    The -eps partner is produced from the +eps one by flipping phi, so
    the pair relation (phi, psi) -> (-phi, psi) holds exactly.
    """
    phi, psi, s, residual = mode_vectors(spec, point.mode, [point])
    return ModeVector(mode=point.mode, sign=point.sign, epsilon=point.epsilon,
                      phi=phi[:, 0] if point.sign > 0 else -phi[:, 0],
                      psi=psi[:, 0], scale=s[0], boundary_residual=residual[0])
