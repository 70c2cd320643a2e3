"""Exact solution toolkit for the open non-Hermitian anisotropic XY chain."""

__version__ = "0.1.0"

from .chain import (
    ChainSpec,
    ModeVector,
    SpectralPoint,
    build_quasi_hamiltonian,
    eps_of_x,
    gamma_to_lambda,
    lambda_to_gamma,
    mode_vector_poly,
    quasi_energies,
)
from .basis import (
    BiorthogonalBasis,
    OperatorCoefficients,
    anticommutator,
    assemble_basis,
    many_body_energies,
    operator_coefficients,
)
from .ep import (
    EPRecord,
    JordanDecomposition,
    ep_state_catalog,
    generalized_eigenvector,
    jordan_decomposition,
    locate_eps,
    reference_ep_gammas,
)
from .oracle import (
    build_ep_states,
    build_spin_hamiltonian,
    ed_eigen,
    geometric_multiplicities,
    l4_closed_form,
    match_spectra,
    realize_operator,
)
from .topology import (
    LoopResult,
    OverlapGrid,
    branch_scaling_probe,
    overlap_grid,
    track_loop,
)

__all__ = [name for name in dir() if not name.startswith("_")]
