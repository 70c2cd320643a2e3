"""Exceptional points: location, Jordan structure, and state counting.

A degeneracy of one mode requires its boundary polynomial
U_n(x) - lam U_{n-1}(x) to have a double root in x.  Eliminating lam
from the polynomial and its x-derivative leaves the Wronskian
U_n' U_{n-1} - U_n U_{n-1}', a polynomial in x alone whose roots are the
double roots themselves (:func:`xyep.polyalg.double_roots`); lam is then
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
from .basis import (MANY_BODY_LIMIT, certify_halves, column_from_halves,
                    pair_columns, sign_pattern_sums)
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

# locate_eps refuses longer chains: double_roots(L/2) samples the
# Wronskian into 3 (n + 2)(2n - 1) complex entries, about 100 MB at
# L = 2048, besides a (2n - 2)^2 companion matrix
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
    # per mode: lam, gamma and eps at every double root, in one pass each
    per_mode = {}
    for mlabel in wanted:
        lam_mode = lams if mlabel == "I" else 1 / lams
        g = lambda_to_gamma(lam_mode)
        per_mode[mlabel] = (lam_mode, g, eps_of_x(g, xs))
    records = []
    for k, (x, res) in enumerate(zip(xs, b_res)):
        x = complex(x)
        m_res = _momentum_ep_residual(L, x)
        for mlabel in wanted:
            lam_mode, g, eps = per_mode[mlabel]
            records.append(EPRecord(
                L=L, mode=mlabel, lam=complex(lam_mode[k]), gamma=complex(g[k]),
                x=x, epsilon=complex(eps[k]),
                boundary_residual=float(res), momentum_residual=m_res))
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
    unique normalization making the chain columns participate in an
    exactly transpose-structured inverse.  (Orthogonality of u against
    w alone cannot fix the gauge because w.w = 0 at the degeneracy.)
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


def _jordan_chains(spec: ChainSpec, ep: EPRecord) -> tuple[list, list, list]:
    """Checkerboard halves of the chain columns w+, u+, w-, u-, and the betas.

    One order-1 :func:`xyep.chain.mode_arrays` call evaluates both
    chains, each normalized to the :class:`JordanChain` gauge.
    """
    phi, psi, _ = mode_arrays(spec.L, spec.gamma, ep.mode,
                              [ep.epsilon, -ep.epsilon], [ep.x] * 2, order=1)
    betas, phis, psis = [], [], []
    for k in range(2):
        phi_w, phi_u = phi[..., k]
        psi_w, psi_u = psi[..., k]
        cross = phi_u @ phi_w + psi_u @ psi_w
        if abs(cross) < 1e-14:
            raise DegenerateInput(
                "chain cross norm vanishes: higher-order defect")
        u_self = phi_u @ phi_u + psi_u @ psi_u
        beta = -u_self / (2 * cross)
        scale = 1 / np.sqrt(complex(cross))
        betas.append(beta)
        phis += [scale * phi_w, scale * (phi_u + beta * phi_w)]
        psis += [scale * psi_w, scale * (psi_u + beta * psi_w)]
    return phis, psis, betas


def _chain_residuals(spec: ChainSpec, residual: np.ndarray) -> tuple[list, list]:
    """Eigen and chain residuals at +-eps from the last four halves out of
    :func:`xyep.basis.certify_halves`; refuses a chain above 1e-7."""
    eigen_res, chain_res = (np.linalg.norm(residual[:, -4:], axis=0)
                            / _m_norm(spec)).reshape(2, 2).T.tolist()
    for res in chain_res:
        if not res <= 1e-7:
            raise DefectiveBasis(f"chain identity residual {res:.3e} exceeds 1e-7")
    return eigen_res, chain_res


def generalized_eigenvector(spec: ChainSpec, ep: EPRecord,
                            sign: int = +1) -> JordanChain:
    """Jordan chain of the +-eps block at an exceptional point.

    w is the (defective) eigenvector and u solves (M - eps) S u = S w
    in checkerboard coordinates; u is the parameter derivative of the
    eps-branch eigenvector, projected to the stated gauge.  One
    :func:`xyep.basis.certify_halves` call certifies both chains, and
    :class:`DefectiveBasis` is raised above 1e-7 relative chain residual.
    Both chains are evaluated exactly as :func:`jordan_decomposition`
    evaluates them, so the result equals that basis's chain columns.
    """
    _check_record(spec, ep)
    if sign not in (+1, -1):
        raise DegenerateInput("sign must be +1 or -1")
    phis, psis, betas = _jordan_chains(spec, ep)
    _, residual = certify_halves(spec.gamma, np.column_stack(phis),
                                 np.column_stack(psis), [], [ep.epsilon, -ep.epsilon])
    eigen_res, chain_res = _chain_residuals(spec, residual)
    k = 0 if sign > 0 else 1
    phi_w, phi_u, psi_w, psi_u = phis[2 * k: 2 * k + 2] + psis[2 * k: 2 * k + 2]
    return JordanChain(
        mode=ep.mode, sign=sign, epsilon=-ep.epsilon if k else ep.epsilon, x=ep.x,
        phi_w=phi_w, psi_w=psi_w, phi_u=phi_u, psi_u=psi_u, beta=betas[k],
        chain_residual=chain_res[k], eigen_residual=eigen_res[k],
        w_self=complex(phi_w @ phi_w + psi_w @ psi_w),
        u_self=complex(phi_u @ phi_u + psi_u @ psi_u),
        cross=complex(phi_u @ phi_w + psi_u @ psi_w))


@dataclass(frozen=True)
class JordanDecomposition:
    """M = V J V^{-1} at an exceptional point.

    The columns, with checkerboard halves ``phis``/``psis``, are
    :func:`xyep.basis.pair_columns` of the simple points (``points``
    labels them), then the chains (w, u) at +eps_EP and -eps_EP, which
    make J's two 2x2 upper Jordan blocks.  V^{-1} equals V^T with each
    chain's w and u rows swapped.
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
    order-1 :func:`xyep.chain.mode_arrays` call for both chains, one
    :func:`xyep.basis.certify_halves` call for every residual and one
    stacked SVD of L x L blocks for the rank deficiencies at +-eps_EP.
    """
    L = spec.L
    phis, psis, points = pair_columns(spec, _simple_points(spec, ep))
    chain_start = len(points)
    chain_phis, chain_psis, _ = _jordan_chains(spec, ep)
    phis = np.column_stack([phis, *chain_phis])
    psis = np.column_stack([psis, *chain_psis])

    chain_eps = [ep.epsilon, -ep.epsilon]
    J = np.diag(np.array([p.epsilon for p in points]
                         + [e for e in chain_eps for _ in "wu"], dtype=complex))
    J[chain_start, chain_start + 1] = 1.0
    J[chain_start + 2, chain_start + 3] = 1.0
    inv_res, residual = certify_halves(spec.gamma, phis, psis, points, chain_eps)
    _chain_residuals(spec, residual)
    if not inv_res <= 1e-6:
        raise DefectiveBasis(
            f"structured inverse residual {inv_res:.3e} exceeds 1e-6")

    # V^{-1} rows are the columns transposed, w and u of each chain swapped
    V = column_from_halves(phis, psis)
    swap = np.arange(2 * L)
    swap[chain_start:] = swap[chain_start:][[1, 0, 3, 2]]
    # S is orthogonal, and each pair's -eps column repeats its +eps
    # column's residual norm
    jordan_res = np.linalg.norm(np.hstack([residual[:, :chain_start // 2],
                                           residual]))
    # nullities of M -+ eps I: S^T (M - eps I) S = [[-eps, (A+B)^T],
    # [A+B, -eps]] is one L x L block per half support
    g, n = spec.gamma, spec.n_pairs
    P = np.diag(np.full(L - 1, (1 + g) / 2), 1) \
        + np.diag(np.full(L - 1, (1 - g) / 2), -1)
    blocks = np.zeros((2, 2, L, L), dtype=complex)
    for k, K in enumerate((P[0::2, 1::2], P[1::2, 0::2])):
        blocks[:, k, :n, n:], blocks[:, k, n:, :n] = K.T, K
    blocks[..., range(L), range(L)] = np.array([-1, 1])[:, None, None] * ep.epsilon
    sv = np.linalg.svd(blocks, compute_uv=False)
    plus, minus = np.sum(sv < 1e-8 * np.max(sv, axis=(1, 2), keepdims=True),
                         axis=(1, 2)).tolist()
    return JordanDecomposition(
        spec=spec, ep=ep, points=points, V=V, V_inv=V[:, swap].T, J=J,
        phis=phis, psis=psis, chain_start=chain_start, inv_residual=inv_res,
        jordan_residual=float(jordan_res) / _m_norm(spec),
        rank_deficiency_plus=plus, rank_deficiency_minus=minus)


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
    entries = []
    for pattern, base in zip(map(tuple, patterns.tolist()), bases.tolist()):
        for sector, occ_pair, shift, vacuum in (
                ("plus_plus", (1, 1), eps_ep, "omega1"),
                ("mixed", (1, 0), 0.0, "both"),
                ("minus_minus", (0, 0), -eps_ep, "omega2"),
        ):
            entries.append(EPStateEntry(
                sector=sector,
                occupation=pattern + occ_pair,
                energy=complex(base + shift),
                algebraic=2 if sector == "mixed" else 1,
                geometric=1,
                vacuum=vacuum,
                vanishes_naively=(sector == "plus_plus")))
    return EPStateCatalog(spec=spec, ep=ep, epsilon_ep=eps_ep,
                          slot_epsilons=slots, entries=entries)
