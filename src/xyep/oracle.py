"""Independent many-body checks by dense exact diagonalization.

Everything here is built straight from spin flips and fermion strings,
with no input from the closed-form spectral data, so it can arbitrate
the analytic route.  Every spin-space operator is filled from bit flips
of the basis index in O(L 2^L): the spin Hamiltonian bond by bond, each
quasi-particle operator mode by mode with its Jordan-Wigner string as a
running sign.  The parity, the spin flip (the basis index reversed) and
the site reflection (its bits reversed) commute with the Hamiltonian.  In
each parity sector the flip and the reflection generate a group of index
maps, and the splitter projects the sector onto each of its characters,
one character sum per leaf block: up to eight leaves of about 2^(L-3) for
even L (seven at L = 4, where one character has no orbit), four for odd L
(the flip swaps the parity sectors).  The eigensolve and the many-body
census both run on every leaf.  Dense matrices cap the reachable sizes;
the limits are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, SizeLimit, as_int, as_number

__all__ = [
    "EDResult",
    "L4ClosedForm",
    "MatchResult",
    "ClusterRecord",
    "EPStates",
    "build_spin_hamiltonian",
    "parity_sectors",
    "ed_eigen",
    "l4_closed_form",
    "geometric_multiplicities",
    "realize_operator",
    "build_ep_states",
    "match_spectra",
]

SPIN_LIMIT = 12        # dense 2^L x 2^L Hamiltonians
VECTOR_LIMIT = 10      # full eigenvector computation
REALIZE_LIMIT = 8      # quasi-particle operator realization
EP_STATE_LIMIT = 6     # explicit many-body states at an exceptional point

# geometric_multiplicities joins a pair split by at most this ratio of its
# distance to the rest; a dense solve splits a defective pair by ~sqrt(eps)
_JOIN_RATIO = 1e-3
# singular values below this fraction of the largest count as null
_RANK_TOL = 1e-8


def _anisotropy(gamma) -> complex:
    """gamma as a complex number; DegenerateInput unless it is a finite one."""
    g = complex(as_number(gamma, "anisotropy"))
    if not np.isfinite(g):
        raise DegenerateInput(f"anisotropy must be finite, got gamma = {g:.6g}")
    return g


def _check_matrix(H: np.ndarray, limit: int) -> None:
    """DegenerateInput unless H is a square, non-empty, finite matrix;
    SizeLimit if its dimension exceeds 2^limit (checked before any pass)."""
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DegenerateInput(f"matrix must be square, got shape {H.shape}")
    if H.shape[0] > 2 ** limit:
        raise SizeLimit(f"dense solve capped at dimension 2^{limit}")
    if not H.size or not np.all(np.isfinite(H)):
        raise DegenerateInput("matrix must be non-empty and finite")


def build_spin_hamiltonian(L: int, gamma: complex) -> np.ndarray:
    """Dense open-chain Hamiltonian with complex anisotropy.

    H = -(1/2) sum_j [ (1+gamma)/2 sx.sx + (1-gamma)/2 sy.sy ].
    Site 1 is the most significant bit of the basis index and spin up
    encodes bit 0.  Bond j flips bits j and j+1; its sx.sx element is 1
    and its sy.sy element is -(1-2b_j)(1-2b_{j+1}).  Complex symmetric
    by construction (H == H.T exactly).
    """
    L = as_int(L, "chain length")
    if L < 2:
        raise SizeLimit(f"need at least two sites, got {L}")
    if L > SPIN_LIMIT:
        raise SizeLimit(f"dense spin Hamiltonian capped at L = {SPIN_LIMIT}")
    gamma = _anisotropy(gamma)
    cxx = 0.25 * (1 + gamma)
    cyy = 0.25 * (1 - gamma)
    states = np.arange(2 ** L)
    H = np.zeros((2 ** L, 2 ** L), dtype=complex)
    for j in range(1, L):
        low = L - j - 1                    # bit of site j + 1
        spins = 1 - 2 * ((states >> low) & 1)
        yy = -spins * (1 - 2 * ((states >> (low + 1)) & 1))
        flipped = states ^ (3 << low)
        # the two terms in the order of the operator sum, so every entry
        # is rounded exactly as the Kronecker-product assembly rounds it
        H[flipped, states] -= cxx
        H[flipped, states] -= cyy * yy
    return H


@dataclass(frozen=True)
class EDResult:
    """Eigenvalues (and optionally eigenvectors) sorted by (Re, Im)."""

    values: np.ndarray
    vectors: np.ndarray | None
    max_residual: float
    h_norm: float


def parity_sectors(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis indices of even and of odd popcount, each in increasing order.

    Every bond of the spin Hamiltonian flips two spins, so it couples no
    index of one sector to an index of the other.
    """
    L = as_int(L, "chain length")
    if not 1 <= L <= SPIN_LIMIT:
        raise SizeLimit(f"parity sectors need 1 <= L <= {SPIN_LIMIT}, got {L}")
    states = np.arange(2 ** L)
    odd = np.zeros_like(states)
    for bit in range(L):
        odd ^= (states >> bit) & 1
    return states[odd == 0], states[odd == 1]


def _split_eig(H: np.ndarray, solve):
    """``solve(leaf)`` run on each leaf block of H, its outputs concatenated
    and its vectors (or None) lifted back to H's basis.

    An H of dimension 2^L with no nonzero entry coupling the even and odd
    parity sectors is split sector by sector, its vectors with exact zeros in
    the other; else H is one leaf.  In a sector B, the spin flip (even L; the
    sector reversed) and the site reflection (each index's bits reversed)
    that B commutes with exactly generate an abelian group G of index maps.
    For each character chi of G (the flip's sign before the reflection's,
    + before -), the leaf holds the orbit minima r on whose stabiliser G_r
    chi is 1, in increasing order: leaf[r, s] = sum_g chi(g) B[r, g(s)] /
    sqrt(|G_r| |G_s|), lifted as x[g(r)] = chi(g) w_r sqrt(|G_r| / |G|).
    """
    N, L = H.shape[0], H.shape[0].bit_length() - 1
    sectors = parity_sectors(L) if N > 1 and not N & (N - 1) else ()
    if not sectors or np.any(H[np.ix_(*sectors)]) or np.any(H[np.ix_(*sectors[::-1])]):
        sectors = (np.arange(N),)
    parts, lifted = [], []
    for rows in sectors:
        B, n = H[np.ix_(rows, rows)], rows.size
        # the group's elements as index maps, each character's values on them
        group, chars = [np.arange(n)], [np.ones(1)]
        if len(sectors) > 1:
            mirror = sum(((rows >> k) & 1) << (L - 1 - k) for k in range(L))
            flip = [np.arange(n)[::-1]] if L % 2 == 0 else []
            for p in flip + [np.searchsorted(rows, mirror)]:
                if np.array_equal(B[np.ix_(p, p)], B):
                    group += [p[g] for g in group]
                    chars = [np.concatenate([c, sign * c]) for c in chars
                             for sign in (1.0, -1.0)]
        group = np.array(group)
        reps = np.flatnonzero(group.min(0) == np.arange(n))
        stab = group[:, reps] == reps
        for chi in chars:
            keep = np.all(stab <= (chi[:, None] == 1), 0)
            r, size = reps[keep], stab[:, keep].sum(0)
            if not r.size:
                continue
            leaf = sum(c * B[np.ix_(r, g[r])] for c, g in zip(chi, group))
            out, w = solve(leaf / np.sqrt(np.outer(size, size)))
            parts.append(out)
            if w is not None:
                lifted.append(np.zeros((N, w.shape[1]), dtype=complex))
                w = w * np.sqrt(size / len(group))[:, None]
                for c, g in zip(chi, group):
                    lifted[-1][rows[g[r]]] = c * w
    return np.concatenate(parts), np.hstack(lifted) if lifted else None


def ed_eigen(H: np.ndarray, want_vectors: bool = True) -> EDResult:
    """Dense nonsymmetric eigensolve with a backward-error report.

    Each leaf block of the symmetry split (module docstring) is solved and
    its vectors lifted back; a matrix without those symmetries is solved
    whole.  ``max_residual`` is the largest |leaf v - lambda v| over the
    leaves.  Vectors up to 2^10 only; values up to 2^12.  An empty,
    non-square or non-finite matrix raises DegenerateInput.
    """
    _check_matrix(H, VECTOR_LIMIT if want_vectors else SPIN_LIMIT)
    h_norm, resid = float(np.linalg.norm(H, np.inf)), [0.0]

    def solve(leaf):
        if not want_vectors:
            return np.linalg.eigvals(leaf), None
        vals, v = np.linalg.eig(leaf)
        resid.append(float(np.max(np.abs(leaf @ v - v * vals[None, :]))))
        return vals, v

    vals, vecs = _split_eig(H, solve)
    order = np.lexsort((vals.imag, vals.real))
    return EDResult(vals[order], vecs[:, order] if want_vectors else None,
                    max(resid), h_norm)


@dataclass(frozen=True)
class L4ClosedForm:
    """All sixteen closed-form eigenpairs of the four-site chain."""

    gamma: complex
    energies: np.ndarray
    vectors: np.ndarray           # columns, unnormalized closed forms
    labels: list[str]


def l4_closed_form(gamma: complex) -> L4ClosedForm:
    """Radical-form spectrum and eigenvectors for L = 4.

    The displayed denominators vanish at gamma in {0, +1, -1}; those
    parameters need limiting forms and raise :class:`DegenerateInput`, as
    do parts of gamma above 7e101 or below 2.3e-308, where the forms overflow.
    """
    g = _anisotropy(gamma)
    if g in (0, 1, -1) or g * g == 1:
        raise DegenerateInput("closed forms degenerate at gamma in {0, +1, -1}")
    # the forms cube energies of order |gamma| and divide by gamma
    if not 2.3e-308 < max(abs(g.real), abs(g.imag)) < 7e101:
        raise DegenerateInput(f"closed forms overflow at gamma = {g:.6g}")
    dp = np.sqrt(5 * g * g + 6 * g + 5 + 0j)
    dm = np.sqrt(5 * g * g - 6 * g + 5 + 0j)

    energies: list[complex] = []
    vectors: list[np.ndarray] = []
    labels: list[str] = []

    def add(E, v, label):
        energies.append(complex(E))
        vectors.append(np.asarray(v, dtype=complex))
        labels.append(label)

    add(0.5, [0, 0, 0, -1, 0, 1, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0], "half+")
    add(-0.5, [0, 0, 0, -1, 0, -1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0], "half-")
    add(g / 2, [-1, 0, 0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 0, 0, 0, 1], "gammahalf+")
    add(-g / 2, [-1, 0, 0, 0, 0, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0, 1], "gammahalf-")

    for sgn, tag in ((1, "+"), (-1, "-")):
        E = (g - 1 + sgn * dm) / 4
        a = (g - 2 * E) / (g - 1)
        b = -a
        add(E, [0, -1, a, 0, a, 0, 0, 1, -1, 0, 0, b, 0, b, 1, 0], f"f1{tag}")
    for sgn, tag in ((1, "+"), (-1, "-")):
        E = (1 + g + sgn * dp) / 4
        a = (g - 2 * E) / (g + 1)
        b = -a
        add(E, [0, 1, a, 0, b, 0, 0, -1, -1, 0, 0, b, 0, a, 1, 0], f"f2{tag}")
    for sgn, tag in ((1, "+"), (-1, "-")):
        E = (1 - g + sgn * dm) / 4
        a = (-g - 2 * E) / (g - 1)
        b = (g + 2 * E) / (g - 1)
        add(E, [0, -1, a, 0, b, 0, 0, -1, 1, 0, 0, a, 0, b, 1, 0], f"f3{tag}")
    for sgn, tag in ((1, "+"), (-1, "-")):
        E = -(1 + g + sgn * dp) / 4
        a = (-g - 2 * E) / (g + 1)
        add(E, [0, 1, a, 0, a, 0, 0, 1, 1, 0, 0, a, 0, a, 1, 0], f"f4{tag}")
    for eta in (1, -1):
        for s in (1, -1):
            E = -(eta * dp + s * dm) / 4
            c = (4 * E ** 3 - (5 * g * g + 8) * E) / (6 * g)
            d = -5 * g / 4 + E * E / g
            e = (-4 * E ** 3 + (5 * g * g + 2) * E) / (3 * g)
            add(E, [1, 0, 0, c, 0, d, e, 0, 0, e, d, 0, c, 0, 0, 1],
                f"f5({eta:+d},{s:+d})")

    return L4ClosedForm(gamma=g, energies=np.array(energies),
                        vectors=np.column_stack(vectors), labels=labels)


@dataclass(frozen=True)
class ClusterRecord:
    """One eigenvalue cluster with algebraic and geometric multiplicity."""

    value: complex
    algebraic: int
    geometric: int
    spread: float


def _leaf_census(leaf: np.ndarray):
    """The ClusterRecords of one leaf block (see geometric_multiplicities)."""
    vals = np.linalg.eigvals(leaf)
    d = np.abs(vals[:, None] - vals)
    np.fill_diagonal(d, np.inf)
    # each row: the distances to the others, nearest first, then the leaf's
    # inf-norm; column m - 1 of ``inside``: the m nearest join (none at 1 x 1)
    dist = np.sort(d, 1)
    dist[:, -1] = np.linalg.norm(leaf, np.inf)
    inside = dist[:, :-1] <= _JOIN_RATIO * dist[:, 1:]
    if np.any(inside[:, 1:]):
        raise DegenerateInput("three or more eigenvalues cluster at "
                              f"{vals[np.argmax(np.any(inside[:, 1:], 1))]:.6g}")
    partner, joined = np.argmin(d, 1), np.any(inside[:, :1], 1)
    joined &= joined[partner]
    records = [ClusterRecord(complex(v), 1, 1, 0.0) for v in vals[~joined]]
    for i in np.flatnonzero(joined & (np.arange(vals.size) < partner)):
        mu, split = complex(np.mean(vals[[i, partner[i]]])), float(dist[i, 0])
        sv = np.linalg.svd(leaf - mu * np.eye(vals.size), compute_uv=False)
        geom = int(np.sum(sv < _RANK_TOL * sv[0]))
        if not 1 <= geom <= 2:
            raise DegenerateInput(f"pair at {mu:.6g} has nullity {geom}")
        records.append(ClusterRecord(mu, 2, geom, split / 2))
    return records, None


def geometric_multiplicities(H: np.ndarray) -> list[ClusterRecord]:
    """Cluster eigenvalues and measure each cluster's eigenspace dimension.

    Each leaf block of :func:`ed_eigen` is clustered on its own: a
    mutual-nearest pair is joined when its split is at most ``_JOIN_RATIO``
    times its distance to the rest of the leaf (the leaf's inf-norm when it
    holds nothing else); its geometric multiplicity is the number of
    singular values of leaf - mu I, mu the pair's mean, below ``_RANK_TOL``
    times the largest.  A nullity other than 1 or 2 raises
    :class:`DegenerateInput`, as does a value whose two or more nearest lie
    that close (a cluster of three or more).  Every other value is simple,
    with no rank test.  Dimensions up to 2^10 only.
    """
    _check_matrix(H, VECTOR_LIMIT)
    records, _ = _split_eig(H, _leaf_census)
    return sorted(records, key=lambda r: (r.value.real, r.value.imag))


def realize_operator(L: int, row: np.ndarray) -> np.ndarray:
    """Dense matrix of the operator with coefficient row (a | b).

    X = (1/sqrt2) sum_j [ a_j (c_j + c_j^+) + b_j (c_j - c_j^+) ] over the
    phased Jordan-Wigner modes, filled from bit flips in O(L 2^L) like
    :func:`build_spin_hamiltonian`.  c_j clears the bit of site j and c_j^+
    sets it, both with the sign (-1)^j prod_{k<j} (1 - 2 b_k).  The extra
    (-1)^j flips every bond term of the induced quadratic form, so the spin
    Hamiltonian equals +(1/2) C^+ M C for the block matrix M used throughout.
    """
    L = as_int(L, "chain length")
    if L > REALIZE_LIMIT:
        raise SizeLimit(f"operator realization capped at L = {REALIZE_LIMIT}")
    row = np.asarray(row, dtype=complex)
    if row.size != 2 * L:
        raise DegenerateInput(f"coefficient row must have length {2 * L}")
    states = np.arange(2 ** L)
    X = np.zeros((2 ** L, 2 ** L), dtype=complex)
    string = np.ones(2 ** L)
    for j in range(1, L + 1):
        bit = (states >> (L - j)) & 1
        X[states ^ (1 << (L - j)), states] = (-1) ** j * string * np.where(
            bit, row[j - 1] + row[L + j - 1], row[j - 1] - row[L + j - 1])
        string *= 1 - 2 * bit
    return X / np.sqrt(2.0)


@dataclass(frozen=True)
class MatchResult:
    """Outcome of pairing two spectra value by value."""

    max_abs_diff: float
    greedy_used: bool
    order_a: np.ndarray
    order_b: np.ndarray


def match_spectra(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> MatchResult:
    """Pair two equal-length spectra and report the worst separation.

    Primary strategy: sort both by (Re rounded to 1e-9, Im) and pair in
    order.  If that leaves a pair further apart than ``tol``, fall back
    to greedy nearest-neighbour matching.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise DegenerateInput(f"spectra differ in size: {a.size} vs {b.size}")

    def sorted_order(v):
        return np.lexsort((v.imag, np.round(v.real, 9)))

    oa, ob = sorted_order(a), sorted_order(b)
    diff = np.abs(a[oa] - b[ob])
    if diff.size == 0 or diff.max() <= tol:
        return MatchResult(max_abs_diff=float(diff.max(initial=0.0)),
                           greedy_used=False, order_a=oa, order_b=ob)

    used = np.zeros(b.size, dtype=bool)
    pair = np.empty(b.size, dtype=int)
    worst = 0.0
    for idx in oa:
        d = np.abs(b - a[idx])
        d[used] = np.inf
        j = int(np.argmin(d))
        used[j] = True
        pair[idx] = j
        worst = max(worst, float(d[j]))
    return MatchResult(max_abs_diff=worst, greedy_used=True,
                       order_a=oa, order_b=pair[oa])


# ---------------------------------------------------------------------------
# explicit many-body states at an exceptional point
# ---------------------------------------------------------------------------

def _joint_null_space(ops: list[np.ndarray]) -> np.ndarray:
    _, sv, vh = np.linalg.svd(np.vstack(ops))
    keep = np.sum(sv > _RANK_TOL * sv[0])
    null = vh[keep:].conj().T
    if null.shape[1] == 0:
        raise DegenerateInput("the requested annihilation conditions admit no state")
    return null


@dataclass(frozen=True)
class EPStates:
    """Explicit eigenstates at an exceptional point, organized by sector.

    The two degenerate quasi-particle slots support three sign sectors.
    Mixed-sector eigenvectors are shared between the two vacua; the
    (+,+) sector exists only through the first vacuum because repeated
    naive raising with the defective eigenvector squares to zero
    (``naive_square_norm``).
    """

    sectors: list[str]
    occupations: list[tuple[int, ...]]
    energies: np.ndarray
    states: np.ndarray
    max_eigen_residual: float
    rank: int
    vacuum_dims: tuple[int, int]
    mixed_overlap_min: float
    naive_square_norm: float
    h_norm: float


def build_ep_states(spec, jordan) -> EPStates:
    """Construct all 3 * 2^(L-2) eigenstates at an exceptional point.

    ``jordan`` must be a Jordan decomposition of the quasi-Hamiltonian
    of ``spec`` at the EP (see the ep module); another chain's is
    refused with :class:`DegenerateInput`.  Its column data supplies the
    coefficient rows for every quasi-particle operator.  Two joint
    vacua are found by explicit null-space computation, each a random
    combination of its null space from a generator seeded with 0, so
    the result is deterministic; sector projectors then fill in the
    occupation patterns.
    """
    L = spec.L
    if L > EP_STATE_LIMIT:
        raise SizeLimit(f"explicit EP states capped at L = {EP_STATE_LIMIT}")
    if jordan.spec != spec:
        raise DegenerateInput("the Jordan decomposition is of another chain")
    H = build_spin_hamiltonian(L, spec.gamma)
    h_norm = float(np.linalg.norm(H, np.inf))

    # per column k of V, its annihilator-side operator and its V^{-1}-row
    # operator (the row equals the partner column transposed)
    cols = list(zip(jordan.phis.T, jordan.psis.T))
    lop = [realize_operator(L, np.concatenate([phi, -psi])) for phi, psi in cols]
    rop = [realize_operator(L, np.concatenate([phi, psi])) for phi, psi in cols]
    wp, up, wm, um = range(jordan.chain_start, jordan.chain_start + 4)

    # sector projectors of the degenerate 2x2 Jordan blocks
    proj_hat_plus = lop[wp] @ rop[up]
    proj_tilde_plus = lop[up] @ rop[wp]
    proj_hat_minus = lop[wm] @ rop[um]
    proj_tilde_minus = lop[um] @ rop[wm]

    # vacuum 1: killed by the +block annihilator and the -block row op
    omega1_basis = _joint_null_space([lop[wp], rop[wm]])
    # vacuum 2: the mirrored pair of conditions
    omega2_basis = _joint_null_space([lop[wm], rop[wp]])
    rng = np.random.default_rng(0)

    def pick(basis):
        v = basis @ (rng.standard_normal(basis.shape[1])
                     + 1j * rng.standard_normal(basis.shape[1]))
        return v / np.linalg.norm(v)

    omega1, omega2 = pick(omega1_basis), pick(omega2_basis)

    # number projectors of the simple pairs, in column-pair order
    pair_info = [(jordan.J[i, i], lop[i] @ rop[i], lop[i + 1] @ rop[i + 1])
                 for i in range(0, wp, 2)]

    eps_ep = jordan.J[up, up]
    sectors, occupations, energies, states = [], [], [], []
    mixed_overlap_min = 1.0
    n_pairs = len(pair_info)
    for bits in range(2 ** n_pairs):
        pattern = tuple((bits >> (n_pairs - 1 - k)) & 1 for k in range(n_pairs))
        base, projected1, projected2 = 0j, omega1, omega2
        for k, (eps_k, p_plus, p_minus) in enumerate(pair_info):
            op = p_plus if pattern[k] else p_minus
            base += (0.5 if pattern[k] else -0.5) * eps_k
            projected1 = op @ projected1
            projected2 = op @ projected2
        for sector, vec, shift, occ_pair in (
                ("plus_plus", proj_tilde_plus @ projected1, eps_ep, (1, 1)),
                ("mixed", proj_hat_minus @ projected1, 0.0, (1, 0)),
                ("minus_minus", proj_tilde_minus @ projected2, -eps_ep, (0, 0)),
        ):
            nrm = np.linalg.norm(vec)
            if nrm < 1e-12:
                raise DegenerateInput(
                    f"sector {sector} pattern {pattern} collapsed to zero")
            states.append(vec / nrm)
            sectors.append(sector)
            occupations.append(pattern + occ_pair)
            energies.append(base + shift)
        # the mixed state is reachable from either vacuum; record agreement
        alt = proj_hat_plus @ projected2
        nrm = np.linalg.norm(alt)
        if nrm > 1e-12:
            ov = abs(np.vdot(states[-2], alt / nrm))
            mixed_overlap_min = min(mixed_overlap_min, float(ov))

    states_mat = np.column_stack(states)
    energies_arr = np.array(energies)
    resid = float(np.max(np.abs(H @ states_mat - states_mat * energies_arr[None, :])))
    sv = np.linalg.svd(states_mat, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))

    # naive double raising with the defective eigenvector collapses
    naive_sq = float(np.linalg.norm(rop[wp] @ rop[wp]) /
                     max(np.linalg.norm(rop[wp]) ** 2, 1e-300))

    return EPStates(sectors=sectors, occupations=occupations,
                    energies=energies_arr, states=states_mat,
                    max_eigen_residual=resid, rank=rank,
                    vacuum_dims=(omega1_basis.shape[1], omega2_basis.shape[1]),
                    mixed_overlap_min=mixed_overlap_min,
                    naive_square_norm=naive_sq, h_norm=h_norm)
