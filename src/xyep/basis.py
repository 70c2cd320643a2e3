"""Biorthogonal eigenbasis and the quasi-particle algebra built on it.

Away from degeneracies the matrix M diagonalizes as M = V Lambda V^{-1}
with V^{-1} = V^T: the eigenvectors are orthonormal under the plain
(unconjugated) bilinear form.  Each eigenvector column yields one
annihilation/creation coefficient row; anticommutators of the realized
operators reduce to bilinear scalars of those rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import (
    MODES,
    ChainSpec,
    SpectralPoint,
    mode_vectors,
    quasi_energies,
)
from .errors import DefectiveBasis, DegenerateInput, SizeLimit, as_int

__all__ = [
    "BiorthogonalBasis",
    "OperatorCoefficients",
    "ManyBodySpectrum",
    "column_from_halves",
    "pair_columns",
    "stencil_residual",
    "inverse_residual",
    "assemble_basis",
    "operator_coefficients",
    "anticommutator",
    "many_body_energies",
]

FAMILIES = ("R", "Rstar", "Lstar", "L")

# many_body_energies returns an L 2^L-byte int8 occupation table and
# 2^L complex energies, 21 MB and 17 MB at L = 20; both are filled in
# place, so the call peaks at their 38 MB (tracemalloc)
MANY_BODY_LIMIT = 20

# both bases are refused above this inverse residual max|V V^{-1} - I|
ORTH_TOL = 1e-6


@dataclass(frozen=True)
class BiorthogonalBasis:
    """Eigenvector matrix V, its transpose-inverse, and the column bookkeeping.

    Columns come in +/- pairs: mode I branches first (each +eps column
    immediately followed by its -eps partner), then mode II.  ``points``
    holds the signed spectral label of every column and ``phis``/``psis``
    the checkerboard halves before the S rotation.
    """

    spec: ChainSpec
    points: list[SpectralPoint]
    V: np.ndarray
    V_inv: np.ndarray
    Lambda: np.ndarray
    phis: np.ndarray
    psis: np.ndarray
    orth_residual: float
    diag_residual: float


def column_from_halves(phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Column(s) of V from checkerboard halves: left-multiplication by S.

    S = (1/sqrt2)[[I, I], [I, -I]]; ``phi`` and ``psi`` are one column
    each, L x k blocks of columns, or stacks of such blocks.
    """
    top = (phi + psi) / np.sqrt(2.0)
    bot = (phi - psi) / np.sqrt(2.0)
    return np.concatenate([top, bot], axis=-min(top.ndim, 2))


def pair_columns(spec: ChainSpec, points: list[SpectralPoint]):
    """Checkerboard halves of the +/- eps column pairs of positive-branch points.

    Columns are grouped by mode, mode I first, in the order of ``points``
    within a mode.  One :func:`xyep.chain.mode_vectors` call per mode
    gives the +eps halves; each +eps column is followed by its -eps
    partner (-phi, psi), exactly.  Returns ``(phis, psis, labels)``: two
    L x 2k blocks and the signed spectral label of every column.
    """
    per_mode = [[p for p in points if p.mode == m] for m in MODES]
    # each mode's +eps halves, every column doubled for its -eps partner
    phis, psis = (np.repeat(np.hstack(h), 2, axis=1) for h in zip(*[
        mode_vectors(spec, m, pts)[:2] for m, pts in zip(MODES, per_mode)]))
    np.negative(phis[:, 1::2], out=phis[:, 1::2])
    labels = [q for pts in per_mode for p in pts for q in (p, p.negated())]
    return phis, psis, labels


def _plus_halves(phis, psis, pairs, chain):
    """The halves of each pair's +eps column, then of the first ``chain``
    columns after the pairs, phi rows over psi rows."""
    cols = [*range(0, pairs, 2), *range(pairs, pairs + chain)]
    return np.vstack([phis.take(cols, axis=1), psis.take(cols, axis=1)])


def stencil_residual(gamma, phis, psis, points, chain_eps=None):
    """The halves S^T (M V - V J) at the +eps columns of V = S [phis; psis].

    Columns: :func:`pair_columns`' layout, labelled by ``points``, then,
    unless ``chain_eps`` is None, a Jordan chain (w, u) at ``chain_eps``
    and its image (-iPw, iPu) at -``chain_eps``, P: (phi, psi) -> (-phi,
    psi).  Only +eps halves are read, M is never formed: S^T M S = [[0,
    A-B], [A+B, 0]] is a two-term stencil.  Each -eps column's residual
    has the norm of its +eps column's.
    """
    L, n = len(phis), len(points) // 2
    chain = [] if chain_eps is None else [chain_eps] * 2
    H = _plus_halves(phis, psis, len(points), len(chain))
    eps = [p.epsilon for p in points[::2]] + chain
    # ((A+B) X)_j = (1+g)/2 X_{j+1} + (1-g)/2 X_{j-1}; A-B swaps the two
    up, down = (1 + gamma) / 2, (1 - gamma) / 2
    R = -H * np.array(eps, dtype=complex)
    R[:L - 1] += down * H[L + 1:]
    R[1:L] += up * H[L:-1]
    R[L:-1] += up * H[1:L]
    R[L + 1:] += down * H[:L - 1]
    R[:, n + 1::2] -= H[:, n::2]
    return R


def inverse_residual(phis, psis, points) -> float:
    """max|V V_inv - I| of V = S [phis; psis], from the +eps halves.

    The columns make up all of V: :func:`pair_columns`' layout, labelled
    by ``points``, then possibly a Jordan chain and its image as
    :func:`stencil_residual` reads them; V_inv = V^T with each chain's w
    and u rows swapped.  V V_inv - I = [[F+G-I, F-G], [F-G, F+G-I]] with
    F = phi phi^T and G = psi psi^T over the +eps pair halves plus the
    chain's w u^T + u w^T.
    """
    L, n = len(phis), len(points) // 2
    chain = phis.shape[1] - len(points)  # columns (w, u) and their image
    if phis.shape[1] != 2 * L or chain not in (0, 4):
        raise DegenerateInput(f"{len(points)} pair and {chain} chain columns "
                              f"do not make up V of a length-{L} chain")
    H = _plus_halves(phis, psis, len(points), chain // 2)
    E = np.zeros((2, L, L), dtype=complex)  # F + G - I and F - G
    for p in (0, 1):  # each half of a column lives on one site parity
        f, g = H[p:L:2, :n], H[L + p::2, :n]
        f, g = f @ f.T, g @ g.T
        if chain:  # the chain's w u^T + u w^T joins F and G
            for half, h in ((f, H[p:L:2, n:]), (g, H[L + p::2, n:])):
                half += np.outer(h[:, 0], h[:, 1]) + np.outer(h[:, 1], h[:, 0])
        np.add(f, g, out=E[0, p::2, p::2])
        np.subtract(f, g, out=E[1, p::2, p::2])
    E[0].flat[::L + 1] -= 1
    return float(np.max(np.abs(E)))


def assemble_basis(spec: ChainSpec) -> BiorthogonalBasis:
    """Diagonalize M from the closed-form mode vectors.

    The columns are :func:`pair_columns` of all quasi-energies.  Raises
    :class:`DefectiveBasis` at a bilinearly null mode vector or when
    :func:`inverse_residual` max|V V^T - I| exceeds ``ORTH_TOL`` or is
    not a number, the numerical signatures of an exceptional point; V
    and the :func:`stencil_residual` are computed only once it passes.
    """
    L = spec.L
    phis, psis, points = pair_columns(spec, quasi_energies(spec))
    Lambda = np.array([p.epsilon for p in points], dtype=complex)
    orth = inverse_residual(phis, psis, points)
    if not orth <= ORTH_TOL:
        raise DefectiveBasis(
            f"bilinear orthogonality residual {orth:.3e} > {ORTH_TOL:g}; "
            "the spectrum is (numerically) defective here")
    V = column_from_halves(phis, psis)
    residual = stencil_residual(spec.gamma, phis, psis, points)
    diag = float(np.max(np.abs(column_from_halves(residual[:L], residual[L:]))))
    return BiorthogonalBasis(spec=spec, points=points, V=V, V_inv=V.T,
                             Lambda=Lambda, phis=phis, psis=psis,
                             orth_residual=orth, diag_residual=diag)


@dataclass(frozen=True)
class OperatorCoefficients:
    """Coefficient rows (a | b) of the four quasi-particle families.

    An operator with row (a, b) acts as (1/sqrt2) sum_j [a_j (c_j + c_j^+)
    + b_j (c_j - c_j^+)].  Per branch k of the owning mode, row 2k-2
    (0-based) belongs to the +eps index 2k-1 and row 2k-1 to the -eps
    index 2k of the family's 1-based labelling.
    """

    spec: ChainSpec
    R: np.ndarray        # mode I rows of V^{-1}: (phi, psi)
    Rstar: np.ndarray    # mode II rows of V^{-1}
    Lstar: np.ndarray    # mode I columns of V: (phi, -psi)
    L: np.ndarray        # mode II columns of V
    epsilons_I: np.ndarray
    epsilons_II: np.ndarray


def operator_coefficients(basis: BiorthogonalBasis) -> OperatorCoefficients:
    """Extract the four coefficient-row families from an assembled basis.

    :func:`assemble_basis` puts mode I's L columns first, then mode II's,
    so each family is a slice of the column halves.
    """
    L = basis.spec.L
    phis, psis = basis.phis.T, basis.psis.T
    return OperatorCoefficients(
        spec=basis.spec,
        R=np.hstack([phis[:L], psis[:L]]),
        Rstar=np.hstack([phis[L:], psis[L:]]),
        Lstar=np.hstack([phis[:L], -psis[:L]]),
        L=np.hstack([phis[L:], -psis[L:]]),
        epsilons_I=basis.Lambda[:L:2],
        epsilons_II=basis.Lambda[L::2],
    )


def anticommutator(coeffs: OperatorCoefficients, family_a: str, index_a: int,
                   family_b: str, index_b: int) -> complex:
    """Scalar value of the anticommutator of two quasi-particle operators.

    Indices are 1-based integers within each family.  For rows (a, b) and
    (a', b') the canonical fermion algebra gives {X, Y} = a.a' - b.b'.
    """
    index_a, index_b = as_int(index_a, "index"), as_int(index_b, "index")
    for fam, idx in ((family_a, index_a), (family_b, index_b)):
        if fam not in FAMILIES:
            raise DegenerateInput(f"unknown operator family {fam!r}")
        if not 1 <= idx <= getattr(coeffs, fam).shape[0]:
            raise DegenerateInput(f"index {idx} out of range for family {fam}")
    L = coeffs.spec.L
    ra = getattr(coeffs, family_a)[index_a - 1]
    rb = getattr(coeffs, family_b)[index_b - 1]
    return complex(ra[:L] @ rb[:L] - ra[L:] @ rb[L:])


@dataclass(frozen=True)
class ManyBodySpectrum:
    """All 2^L many-body energies with their occupation patterns.

    ``occupations[s]`` lists the L bits (mode I branches then mode II);
    bit 1 contributes +eps/2 and bit 0 contributes -eps/2.
    """

    spec: ChainSpec
    epsilons_I: np.ndarray
    epsilons_II: np.ndarray
    energies: np.ndarray
    occupations: np.ndarray


def _pattern_energies(start, eps: np.ndarray) -> np.ndarray:
    """start + (1/2) sum_k s_k eps_k over all 2^n sign patterns s, each summed
    left to right from ``start``; pattern r at index r, slot 0 most significant."""
    n = len(eps)
    energies = np.full(2 ** n, start, dtype=complex)
    for k, e in enumerate(eps):
        # E <- [E - e/2, E + e/2] interleaved, in place: pattern r of the
        # first k slots sits at index r 2^(n-k)
        step, half = 2 ** (n - k), 0.5 * e
        np.add(energies[::step], half, out=energies[step // 2::step])
        energies[::step] -= half
    return energies


def _pattern_bits(n: int) -> np.ndarray:
    """The int8 table whose row r holds the n bits of r, slot 0 most significant."""
    bits = np.zeros((2 ** n, n), dtype=np.int8)
    for k in range(n):  # column k: runs of 2^(n-1-k) zeros, then as many ones
        bits.reshape(2 ** k, 2, -1, n)[:, 1, :, k] = 1
    return bits


def sign_pattern_sums(eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1/2) sum_k s_k eps_k over all 2^n sign patterns s, each summed left to
    right, and the int8 table whose row r holds the bits of r, slot 0 most
    significant, bit 1 for s_k = +1."""
    return _pattern_energies(0.0, eps), _pattern_bits(len(eps))


def sign_pattern_chunks(eps: np.ndarray, size: int):
    """:func:`sign_pattern_sums` ``size`` (a power of two) patterns at a
    time, bit for bit and in the same order, without its 2^n tables: each
    chunk starts from one sum over the leading slots and adds the last
    log2(size) slots as it does."""
    n = len(eps)
    lead = max(0, n - (size.bit_length() - 1))
    tail_bits = _pattern_bits(n - lead)
    for start, head_bits in zip(_pattern_energies(0.0, eps[:lead]),
                                _pattern_bits(lead)):
        bits = np.empty((len(tail_bits), n), dtype=np.int8)
        bits[:, :lead], bits[:, lead:] = head_bits, tail_bits
        yield _pattern_energies(start, eps[lead:]), bits


def many_body_epsilons(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mode I's and mode II's quasi-energies in branch order, for a chain
    whose 2^L patterns may be enumerated: chains longer than
    ``MANY_BODY_LIMIT`` raise :class:`SizeLimit` before any work is done."""
    if spec.L > MANY_BODY_LIMIT:
        raise SizeLimit(f"many-body enumeration capped at L = {MANY_BODY_LIMIT}")
    pts = quasi_energies(spec)
    return tuple(np.array([p.epsilon for p in pts if p.mode == mode])
                 for mode in MODES)


def many_body_energies(spec: ChainSpec) -> ManyBodySpectrum:
    """Enumerate E(alpha) = (1/2) sum_k s_k eps_k over all sign patterns.

    All 2^L patterns are held in memory, so chains longer than
    ``MANY_BODY_LIMIT`` raise :class:`SizeLimit` before any work is done.
    """
    eps_I, eps_II = many_body_epsilons(spec)
    energies, occupations = sign_pattern_sums(np.concatenate([eps_I, eps_II]))
    return ManyBodySpectrum(spec=spec, epsilons_I=eps_I, epsilons_II=eps_II,
                            energies=energies, occupations=occupations)
