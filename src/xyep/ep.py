"""Exceptional points: location, Jordan structure, and state counting.

A degeneracy of one mode requires its boundary polynomial
U_n(x) - lam U_{n-1}(x) to have a double root in x.  Eliminating lam
from the polynomial and its x-derivative leaves the Wronskian
U_n' U_{n-1} - U_n U_{n-1}' = 2 sum_{k<n} U_k^2, a polynomial in x alone
whose roots are the double roots themselves: the x != +-1 with
U_L(x) = L + 1 (:func:`xyep.polyalg.double_roots`); lam is then
U_n / U_{n-1} at each of them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainSpec,
    MODES,
    SpectralPoint,
    check_length,
    eps_of_x,
    lambda_to_gamma,
    mode_arrays,
    mode_names,
    quasi_energies,
)
from .basis import (MANY_BODY_LIMIT, ORTH_TOL, column_from_halves,
                    inverse_residual, pair_columns, sign_pattern_sums,
                    stencil_residual)
from .errors import DefectiveBasis, DegenerateInput, SizeLimit
from .polyalg import double_roots

__all__ = [
    "EPRecord",
    "JordanChain",
    "JordanDecomposition",
    "EPStateEntry",
    "EPStateCatalog",
    "locate_eps",
    "reference_ep_gammas",
    "coalescing_order",
    "generalized_eigenvector",
    "jordan_decomposition",
    "ep_state_catalog",
]

# locate_eps refuses longer chains: double_roots(L/2) peaks at 84 MB
# (tracemalloc) at L = 2048, the order-1 recurrence over 2n - 2 roots
_EP_SEARCH_LIMIT = 2048


@dataclass(frozen=True)
class EPRecord:
    """One exceptional point of one mode."""

    L: int
    mode: str
    lam: complex
    gamma: complex
    x: complex
    epsilon: complex
    boundary_residual: float
    momentum_residual: float


def _momentum_ep_residual(L: int, x: complex) -> float:
    """Relative defect of the coalescence condition in momentum form.

    Double x-roots are stationary points of sin((L+2)k)/sin(Lk), giving
    (L+2) sin(Lk) cos((L+2)k) = L sin((L+2)k) cos(Lk).
    """
    k = 0.5 * cmath.acos(x)
    t1 = (L + 2) * cmath.sin(L * k) * cmath.cos((L + 2) * k)
    t2 = L * cmath.sin((L + 2) * k) * cmath.cos(L * k)
    scale = max(abs(t1), abs(t2), 1.0)
    return abs(t1 - t2) / scale


def locate_eps(L: int, mode: str = "both") -> list[EPRecord]:
    """All exceptional points of the requested mode(s) at chain length L.

    Mode I carries L-2 of them; mode II is the image of mode I under
    lambda -> 1/lambda, equivalently gamma -> -gamma.  Sorted by
    decreasing |gamma| then decreasing Im gamma, so conjugate partners
    are adjacent.  Chains longer than ``_EP_SEARCH_LIMIT`` = 2048 raise
    :class:`SizeLimit` before any array is built.
    """
    L = check_length(L)
    wanted = mode_names(mode)
    if L > _EP_SEARCH_LIMIT:
        raise SizeLimit(f"EP search capped at L = {_EP_SEARCH_LIMIT}, got {L}")
    if L == 2:
        return []

    xs, lams, b_res = double_roots(L // 2)
    x_row, res_row = xs.tolist(), b_res.tolist()
    m_row = [_momentum_ep_residual(L, x) for x in x_row]
    records = []
    # per mode: lam, gamma and eps at every double root, in one pass
    for mlabel in wanted:
        lam_mode = lams if mlabel == "I" else 1 / lams
        g = lambda_to_gamma(lam_mode)
        records += [EPRecord(L, mlabel, *fields) for fields in zip(
            lam_mode.tolist(), g.tolist(), x_row, eps_of_x(g, xs).tolist(),
            res_row, m_row)]
    records.sort(key=lambda r: (r.mode, -round(abs(r.gamma), 10),
                                -r.gamma.imag))
    return records


# Frozen reference values (four decimals; mode II, upper half plane).
# Mode I values are the negatives and complex conjugates complete each
# quadruple.  Kept as a regression anchor for the search above.
_REFERENCE_EP_MODE_II = {
    4: [0.6000 + 0.8000j],
    6: [0.8030 + 1.3107j, 0.3399 + 0.5547j],
    8: [1.0116 + 1.7804j, 0.4138 + 0.9104j, 0.2413 + 0.4246j],
    10: [1.2233 + 2.2336j, 0.4893 + 1.2264j, 0.2806 + 0.7035j,
         0.1886 + 0.3444j],
    12: [1.4367 + 2.6784j, 0.5666 + 1.5242j, 0.3192 + 0.9477j,
         0.2143 + 0.5764j, 0.1555 + 0.2899j],
    14: [1.6512 + 3.1183j, 0.6452 + 1.8120j, 0.3587 + 1.1746j,
         0.2378 + 0.7787j, 0.1744 + 0.4898j, 0.1326 + 0.2505j],
}


def reference_ep_gammas(L: int, mode: str) -> list[complex]:
    """Reference exceptional anisotropies (both half-planes) for one mode."""
    if mode not in MODES:
        raise DegenerateInput(f"mode must be 'I' or 'II', got {mode!r}")
    if L not in _REFERENCE_EP_MODE_II:
        raise DegenerateInput(f"no reference values recorded for L = {L}")
    base = _REFERENCE_EP_MODE_II[L]
    sign = 1 if mode == "II" else -1
    out = []
    for g in base:
        out.append(sign * g)
        out.append(sign * g.conjugate())
    return out


def coalescing_order(x, ep: EPRecord) -> np.ndarray:
    """Indices along the last axis of roots x that put the coalescing pair first.

    The pair is the two roots nearest ``ep.x``, nearest first; the other
    indices follow in increasing order, so rows in branch order (from
    :func:`xyep.chain.mode_spectra`) keep it for the rest.
    """
    near = np.argsort(np.abs(np.asarray(x) - ep.x), axis=-1)
    return np.concatenate([near[..., :2], np.sort(near[..., 2:], axis=-1)],
                          axis=-1)


@dataclass(frozen=True)
class JordanChain:
    """Eigenvector w and generalized partner u of one defective block.

    Gauge: u.u = 0 under the bilinear form and u.w = 1, which is the
    normalization, unique up to an overall sign, making the chain
    columns participate in an exactly transpose-structured inverse.
    (Orthogonality of u against w alone cannot fix the gauge because
    w.w = 0 at the degeneracy.)  P: (phi, psi) -> (-phi, psi)
    anticommutes with S^T M S, so the -eps_EP chain is (-iPw, iPu) of
    the +eps_EP one, in the same gauge, with -beta and the same residuals.
    """

    mode: str
    sign: int
    epsilon: complex
    x: complex
    phi_w: np.ndarray
    psi_w: np.ndarray
    phi_u: np.ndarray
    psi_u: np.ndarray
    beta: complex
    chain_residual: float
    eigen_residual: float
    w_self: complex
    u_self: complex
    cross: complex


def _check_record(spec: ChainSpec, ep: EPRecord):
    """Refuse a spec whose length or anisotropy is not the EP record's."""
    if spec.L != ep.L:
        raise DegenerateInput(f"spec length L = {spec.L} does not match "
                              f"the EP record's L = {ep.L}")
    if abs(spec.gamma - ep.gamma) > 1e-10 * (1 + abs(ep.gamma)):
        raise DegenerateInput("spec anisotropy does not match the EP record")


def _m_norm(spec: ChainSpec) -> float:
    """Frobenius norm of M: 2(L-1) entries 1/2 and 2(L-1) entries +-gamma/2."""
    return float(np.sqrt((spec.L - 1) * (1 + abs(spec.gamma) ** 2)))


def _jordan_chains(spec: ChainSpec, ep: EPRecord) -> tuple[list, list, complex]:
    """Checkerboard halves of the chain columns w+, u+, w-, u-, and beta.

    One order-1 :func:`xyep.chain.mode_arrays` call at the EP root gives
    the +eps_EP chain, normalized to the :class:`JordanChain` gauge; the
    -eps_EP chain is its image (-iPw, iPu), exactly.
    """
    phi, psi, _ = mode_arrays(spec.L, spec.gamma, ep.mode, ep.epsilon, ep.x,
                              order=1)
    (phi_w, phi_u), (psi_w, psi_u) = phi[..., 0], psi[..., 0]
    cross = phi_u @ phi_w + psi_u @ psi_w
    if abs(cross) < 1e-14:
        raise DegenerateInput("chain cross norm vanishes: higher-order defect")
    beta = -(phi_u @ phi_u + psi_u @ psi_u) / (2 * cross)
    scale = 1 / np.sqrt(complex(cross))
    w = scale * phi_w, scale * psi_w
    u = scale * (phi_u + beta * phi_w), scale * (psi_u + beta * psi_w)
    return ([w[0], u[0], 1j * w[0], -1j * u[0]],
            [w[1], u[1], -1j * w[1], 1j * u[1]], beta)


def _chain_residuals(spec: ChainSpec, residual: np.ndarray) -> tuple[float, float]:
    """Eigen and chain residuals of the +eps_EP chain, the last two halves
    out of :func:`xyep.basis.stencil_residual`; refuses above 1e-7."""
    eigen_res, chain_res = (np.linalg.norm(residual[:, -2:], axis=0)
                            / _m_norm(spec)).tolist()
    if not chain_res <= 1e-7:
        raise DefectiveBasis(f"chain identity residual {chain_res:.3e} exceeds 1e-7")
    return eigen_res, chain_res


def generalized_eigenvector(spec: ChainSpec, ep: EPRecord,
                            sign: int = +1) -> JordanChain:
    """Jordan chain of the +-eps block at an exceptional point.

    w is the (defective) eigenvector and u solves (M - eps) S u = S w
    in checkerboard coordinates; u is the parameter derivative of the
    eps-branch eigenvector, projected to the stated gauge; the -eps
    chain is the +eps chain's image (see :class:`JordanChain`).  One
    :func:`xyep.basis.stencil_residual` call certifies the +eps chain, and
    :class:`DefectiveBasis` is raised above 1e-7 relative chain residual.
    Both chains are evaluated exactly as :func:`jordan_decomposition`
    evaluates them, so the result equals that basis's chain columns.
    """
    _check_record(spec, ep)
    if sign not in (+1, -1):
        raise DegenerateInput("sign must be +1 or -1")
    phis, psis, beta = _jordan_chains(spec, ep)
    residual = stencil_residual(spec.gamma, np.column_stack(phis),
                                np.column_stack(psis), [], ep.epsilon)
    eigen_res, chain_res = _chain_residuals(spec, residual)
    k = 0 if sign > 0 else 2
    phi_w, phi_u, psi_w, psi_u = phis[k: k + 2] + psis[k: k + 2]
    return JordanChain(
        mode=ep.mode, sign=sign, epsilon=sign * ep.epsilon, x=ep.x,
        phi_w=phi_w, psi_w=psi_w, phi_u=phi_u, psi_u=psi_u, beta=sign * beta,
        chain_residual=chain_res, eigen_residual=eigen_res,
        w_self=complex(phi_w @ phi_w + psi_w @ psi_w),
        u_self=complex(phi_u @ phi_u + psi_u @ psi_u),
        cross=complex(phi_u @ phi_w + psi_u @ psi_w))


@dataclass(frozen=True)
class JordanDecomposition:
    """M = V J V^{-1} at an exceptional point.

    The columns, with checkerboard halves ``phis``/``psis``, are
    :func:`xyep.basis.pair_columns` of the simple points (``points``
    labels them), then the chains (w, u) at +eps_EP and -eps_EP, which
    make J's two 2x2 upper Jordan blocks; the -eps_EP chain is the
    +eps_EP chain's image (see :class:`JordanChain`).  V^{-1} equals V^T
    with each chain's w and u rows swapped.  Gamma = [[0, I], [I, 0]]
    takes M - eps I to -(M + eps I), so ``rank_deficiency_minus`` equals
    ``rank_deficiency_plus``.
    """

    spec: ChainSpec
    ep: EPRecord
    points: list[SpectralPoint]
    V: np.ndarray
    V_inv: np.ndarray
    J: np.ndarray
    phis: np.ndarray
    psis: np.ndarray
    chain_start: int
    inv_residual: float
    jordan_residual: float
    rank_deficiency_plus: int
    rank_deficiency_minus: int


def _simple_points(spec: ChainSpec, ep: EPRecord) -> list[SpectralPoint]:
    """Quasi-energies of both modes without the EP's coalescing pair, mode I first."""
    _check_record(spec, ep)
    points = quasi_energies(spec, warn=False)
    n = spec.n_pairs
    start = MODES.index(ep.mode) * n
    own = points[start: start + n]
    order = coalescing_order([p.x for p in own], ep)
    if max(abs(own[i].x - ep.x) for i in order[:2]) > 1e-4 * (1 + abs(ep.x)):
        raise DegenerateInput("could not identify the coalescing boundary roots")
    return points[:start] + [own[i] for i in order[2:]] + points[start + n:]


def jordan_decomposition(spec: ChainSpec, ep: EPRecord) -> JordanDecomposition:
    """Assemble the full 2L x 2L Jordan basis at an exceptional point.

    The work is done once per EP: one root solve for both modes, one
    order-1 :func:`xyep.chain.mode_arrays` call at the EP root, one
    :func:`xyep.basis.stencil_residual` call for the chain and Jordan
    residuals, one :func:`xyep.basis.inverse_residual` call and one
    stacked SVD of two L x L blocks for the rank deficiency at +-eps_EP.
    """
    L = spec.L
    phis, psis, points = pair_columns(spec, _simple_points(spec, ep))
    chain_start = len(points)
    chain_phis, chain_psis, _ = _jordan_chains(spec, ep)
    phis = np.column_stack([phis, *chain_phis])
    psis = np.column_stack([psis, *chain_psis])

    J = np.diag(np.array([p.epsilon for p in points] + [ep.epsilon] * 2
                         + [-ep.epsilon] * 2, dtype=complex))
    J[chain_start, chain_start + 1] = J[chain_start + 2, chain_start + 3] = 1.0
    residual = stencil_residual(spec.gamma, phis, psis, points, ep.epsilon)
    _chain_residuals(spec, residual)
    inv_res = inverse_residual(phis, psis, points)
    if not inv_res <= ORTH_TOL:
        raise DefectiveBasis(
            f"structured inverse residual {inv_res:.3e} exceeds 1e-6")

    # V^{-1} rows are the columns transposed, w and u of each chain swapped
    V = column_from_halves(phis, psis)
    swap = np.arange(2 * L)
    swap[chain_start:] = swap[chain_start:][[1, 0, 3, 2]]
    # S is orthogonal, and each -eps column (the -eps_EP chain's too)
    # repeats its +eps column's residual norm
    jordan_res = float(np.sqrt(2) * np.linalg.norm(residual)) / _m_norm(spec)
    # nullity of M - eps I: S^T (M - eps I) S = [[-eps, (A+B)^T],
    # [A+B, -eps]] is one L x L block per half support
    g, n = spec.gamma, spec.n_pairs
    AB = np.diag(np.full(L - 1, (1 + g) / 2), 1) \
        + np.diag(np.full(L - 1, (1 - g) / 2), -1)
    blocks = np.zeros((2, L, L), dtype=complex)
    for k, K in enumerate((AB[0::2, 1::2], AB[1::2, 0::2])):
        blocks[k, :n, n:], blocks[k, n:, :n] = K.T, K
    blocks[:, range(L), range(L)] = -ep.epsilon
    sv = np.linalg.svd(blocks, compute_uv=False)
    deficiency = int(np.sum(sv < 1e-8 * np.max(sv)))
    return JordanDecomposition(
        spec=spec, ep=ep, points=points, V=V, V_inv=V[:, swap].T, J=J,
        phis=phis, psis=psis, chain_start=chain_start, inv_residual=inv_res,
        jordan_residual=jordan_res, rank_deficiency_plus=deficiency,
        rank_deficiency_minus=deficiency)


@dataclass(frozen=True)
class EPStateEntry:
    """One many-body level at an exceptional point."""

    sector: str
    occupation: tuple[int, ...]
    energy: complex
    algebraic: int
    geometric: int
    vacuum: str
    vanishes_naively: bool


@dataclass(frozen=True)
class EPStateCatalog:
    """Census of the 3 * 2^(L-2) eigenstates at an exceptional point.

    Occupation slots list the simple quasi-particle pairs in Jordan
    column order followed by the two degenerate slots.  Mixed entries
    are genuine many-body Jordan blocks: algebraic weight 2, one
    eigenvector, reachable from both vacua.
    """

    spec: ChainSpec
    ep: EPRecord
    epsilon_ep: complex
    slot_epsilons: list[tuple[str, complex]]
    entries: list[EPStateEntry]

    @property
    def count(self) -> int:
        return len(self.entries)

    @property
    def total_algebraic(self) -> int:
        return sum(e.algebraic for e in self.entries)


def ep_state_catalog(spec: ChainSpec, ep: EPRecord) -> EPStateCatalog:
    """Enumerate sectors, occupations, and energies at an exceptional point.

    The catalog holds 3 * 2^(L-2) entries, so chains longer than
    ``basis.MANY_BODY_LIMIT`` raise :class:`SizeLimit` before any work.
    """
    if spec.L > MANY_BODY_LIMIT:
        raise SizeLimit(f"EP state catalog capped at L = {MANY_BODY_LIMIT}")
    jd = jordan_decomposition(spec, ep)
    slots = [(p.mode, p.epsilon) for p in jd.points[0::2]]
    bases, patterns = sign_pattern_sums(np.array([e for _, e in slots]))
    eps_ep = ep.epsilon
    # per sector: its name, the two degenerate slots' occupation, the energy
    # shift, the algebraic weight, the vacuum, and whether naive raising
    # with the defective eigenvector gives zero
    sectors = (("plus_plus", (1, 1), eps_ep, 1, "omega1", True),
               ("mixed", (1, 0), 0.0, 2, "both", False),
               ("minus_minus", (0, 0), -eps_ep, 1, "omega2", False))
    entries = [EPStateEntry(sector, pattern + pair, complex(base + shift),
                            algebraic, 1, vacuum, naive)
               for pattern, base in zip(map(tuple, patterns.tolist()),
                                        bases.tolist())
               for sector, pair, shift, algebraic, vacuum, naive in sectors]
    return EPStateCatalog(spec=spec, ep=ep, epsilon_ep=eps_ep,
                          slot_epsilons=slots, entries=entries)
