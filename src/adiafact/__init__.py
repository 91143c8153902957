"""Factoring odd integers with compiled multiplication tables and adiabatic evolution.

The pipeline: compile the target into per-column balance equations over
the factors' interior bits and carries, propagate the system down to a
few equations, turn the survivors into a diagonal penalty operator, and
drive the transverse-field ground state through a discretized linear
schedule.  Zero-energy basis states decode to exact factorizations.
"""

from .compiler import (
    ColumnEquation,
    EquationSystem,
    build_layout,
    enumerate_width_splits,
    simplify,
    system_from_document,
    system_to_document,
)
from .engine import (
    EvolutionTrace,
    GapTrace,
    Schedule,
    TracePoint,
    gap_profile,
    initial_state,
    lowest_eigenvalues,
    populations,
    propagate_step,
    run_schedule,
)
from .errors import (
    AdiafactError,
    DimensionMismatch,
    DimensionTooLarge,
    EmptySystem,
    EvenInput,
    InconsistentMap,
    IndexOutOfRange,
    Infeasible,
    InvariantViolation,
    NotFactorable,
    NumericalFailure,
    TooSmall,
    UnmappedVariable,
    WidthMismatch,
)
from .hamiltonian import (
    DiagonalOperator,
    QubitMap,
    assemble_problem,
    direct_cost_diagonal,
    interpolated_hamiltonian,
    polynomial_to_diagonal,
    qubit_cap,
)
from .orchestrator import (
    FactorResult,
    GroundManifold,
    SweepPoint,
    decode_assignment,
    factor,
    ground_manifold,
    select_split,
    success_probability,
    sweep,
)
from .pseudobool import Monomial, Poly, PseudoBooleanPolynomial, VarId

__version__ = "0.1.0"

__all__ = [
    "AdiafactError",
    "ColumnEquation",
    "DiagonalOperator",
    "DimensionMismatch",
    "DimensionTooLarge",
    "EmptySystem",
    "EquationSystem",
    "EvenInput",
    "EvolutionTrace",
    "FactorResult",
    "GapTrace",
    "GroundManifold",
    "InconsistentMap",
    "IndexOutOfRange",
    "Infeasible",
    "InvariantViolation",
    "Monomial",
    "NotFactorable",
    "NumericalFailure",
    "Poly",
    "PseudoBooleanPolynomial",
    "QubitMap",
    "Schedule",
    "SweepPoint",
    "TooSmall",
    "TracePoint",
    "UnmappedVariable",
    "VarId",
    "WidthMismatch",
    "assemble_problem",
    "build_layout",
    "decode_assignment",
    "direct_cost_diagonal",
    "enumerate_width_splits",
    "factor",
    "gap_profile",
    "ground_manifold",
    "initial_state",
    "interpolated_hamiltonian",
    "lowest_eigenvalues",
    "polynomial_to_diagonal",
    "populations",
    "propagate_step",
    "qubit_cap",
    "run_schedule",
    "select_split",
    "simplify",
    "success_probability",
    "sweep",
    "system_from_document",
    "system_to_document",
]
