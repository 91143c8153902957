"""End-to-end factoring: compile, screen, evolve, decode.

select_split() walks the width splits in balance order.  A split either
dies in propagation (Infeasible), collapses so the factors read off the
fixed bits (preprocessed mode), or leaves a small system whose penalty
operator factor(), sweep() and the CLI simulate (adiabatic mode).  The
answer is decoded from the most populated zero-energy basis state and
verified exactly against the target; the run's ground-manifold
population is reported as a diagnostic, never used as a gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .compiler import EquationSystem, build_layout, enumerate_width_splits, simplify
from .errors import (
    DimensionTooLarge,
    EmptySystem,
    IndexOutOfRange,
    Infeasible,
    InvariantViolation,
    NotFactorable,
    TooManyVariables,
    UnmappedVariable,
)
from .engine import EvolutionTrace, Schedule, gap_profile, run_schedule
from .hamiltonian import (
    DiagonalOperator,
    MixerSpec,
    QubitMap,
    _basis_values,
    assemble_problem,
    polynomial_to_diagonal,
    qubit_cap,
)
from .pseudobool import Monomial, Poly, Rational, VarId

ENUMERATION_LIMIT = 24


@dataclass(frozen=True)
class GroundManifold:
    indices: tuple[int, ...]
    energy: Rational


def ground_manifold(problem: DiagonalOperator) -> GroundManifold:
    """Exact minimum of the diagonal and every index attaining it."""
    return GroundManifold(problem.ground_indices(), problem.min_energy())


def success_probability(
    populations: np.ndarray, manifold: Union[GroundManifold, Sequence[int]]
) -> float:
    """Total population on the manifold indices."""
    indices = manifold.indices if isinstance(manifold, GroundManifold) else tuple(manifold)
    total = 0.0
    for index in indices:
        if not 0 <= index < len(populations):
            raise IndexOutOfRange(f"index {index} outside 0..{len(populations) - 1}")
        total += float(populations[index])
    return total


def decode_assignment(
    assignment: Mapping[VarId, int], system: EquationSystem
) -> tuple[int, int]:
    """Read the factors (p, q) off interior bits plus the system's fixed values.

    The assignment covers free variables; fixed variables come from the
    system.  Bits 0 and width-1 of each factor are 1 by construction.

    Raises:
        UnmappedVariable: an interior bit is neither assigned nor fixed.
    """
    merged = dict(system.fixed)
    merged.update(assignment)

    def read(kind: str, width: int) -> int:
        value = 1 | (1 << (width - 1))
        for i in range(1, width - 1):
            var = VarId(kind, i)
            try:
                bit = merged[var]
            except KeyError as exc:
                raise UnmappedVariable(f"no value for interior bit {var}") from exc
            value |= bit << i
        return value

    w_p, w_q = system.widths
    return read("p", w_p), read("q", w_q)


def _system_objective(system: EquationSystem) -> Poly:
    """Sum of squared residuals plus pair products: zero exactly on solutions."""
    total = Poly()
    for eq in system.equations:
        residual = eq.residual
        total = total + residual * residual
    for pair in system.forbidden_pairs:
        total = total + Poly({Monomial(pair): 1})
    return total


def brute_force_min(
    objective: Union[Poly, EquationSystem], limit: int = ENUMERATION_LIMIT
) -> tuple[Rational, tuple[dict, ...]]:
    """Exact minimum of a polynomial (or a system's violation measure) by enumeration.

    For an EquationSystem the objective is the sum of squared residuals
    plus the forbidden-pair products, so the minimum is 0 exactly when
    the system is solvable and the argmin set is the solution set.

    Returns:
        (minimum value, assignments attaining it in basis-index order).

    Raises:
        TooManyVariables: more than limit variables to enumerate.
        ValueError: coefficients too large for exact int64 evaluation.
    """
    poly = _system_objective(objective) if isinstance(objective, EquationSystem) else objective
    variables = poly.variables()
    if len(variables) > limit:
        raise TooManyVariables(f"{len(variables)} variables exceed the limit of {limit}")
    qmap = QubitMap(variables)
    diagonal = DiagonalOperator(qmap.n, *_basis_values(poly, variables))
    argmins = tuple(qmap.assignment_of(index) for index in diagonal.ground_indices())
    return diagonal.min_energy(), argmins


def _verified(target: int, p: int, q: int) -> tuple[int, int]:
    """The factors in ascending order, once their product is checked exactly."""
    if p * q != target:
        raise InvariantViolation(f"decoded factors {p} * {q} do not multiply to {target}")
    return min(p, q), max(p, q)


@dataclass(frozen=True)
class FactorResult:
    """Outcome of factor(): the factors plus run diagnostics."""

    target: int
    p: int
    q: int
    widths: tuple[int, int]
    mode: str  # "preprocessed" | "adiabatic"
    success_probability: float
    ground_manifold: tuple[int, ...]
    min_gap: Optional[float]
    schedule: Optional[Schedule]
    trace: Optional[EvolutionTrace] = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.target,
            "p": self.p,
            "q": self.q,
            "widths": list(self.widths),
            "mode": self.mode,
            "success_probability": self.success_probability,
            "ground_manifold": list(self.ground_manifold),
            "min_gap": self.min_gap,
            "schedule": self.schedule.to_json_dict() if self.schedule else None,
        }


def select_split(
    target: int, widths: Optional[tuple[int, int]] = None, pairing: str = "last"
) -> tuple[EquationSystem, Optional[QubitMap], Optional[DiagonalOperator]]:
    """(simplified system, qubit map, penalty diagonal) of the split to anneal.

    Walks enumerate_width_splits(target) in balance order (only widths
    when given) to the first split that propagation solves outright (map
    and diagonal are then None), or whose register fits the qubit cap
    and whose penalty diagonal has a zero-energy state.

    Raises:
        EvenInput, TooSmall, WidthMismatch: bad target or explicit widths.
        DimensionTooLarge: the only viable splits exceed the qubit cap
            (the message names the smallest register skipped).
        NotFactorable: every split is infeasible or has no zero-energy state.
    """
    splits = [tuple(widths)] if widths is not None else enumerate_width_splits(target)
    smallest: Optional[int] = None  # smallest register skipped for the cap
    for w_p, w_q in splits:
        try:
            system = simplify(build_layout(target, w_p, w_q))
        except Infeasible:
            continue
        if system.is_solved:
            return system, None, None
        qmap, penalty = assemble_problem(system, pairing=pairing)
        if qmap.n > qubit_cap():
            smallest = min(qmap.n, smallest or qmap.n)
            continue
        problem = polynomial_to_diagonal(penalty, qmap)
        if problem.min_energy() == 0:
            return system, qmap, problem
    if smallest is not None:
        raise DimensionTooLarge(
            f"{target}: the smallest skipped split needs {smallest} qubits,"
            f" above the cap of {qubit_cap()}"
        )
    raise NotFactorable(f"{target}: no width split admits a zero-energy factorization")


def factor(
    target: int,
    widths: Optional[tuple[int, int]] = None,
    g: float = 0.6,
    T: float = 20.0,
    M: int = 20,
    pairing: str = "last",
    checkpoints: tuple[int, ...] = (),
    gap_points: int = 51,
) -> FactorResult:
    """Factor an odd target by compiled adiabatic evolution.

    Args:
        target: odd integer >= 9.
        widths: try only this split instead of the enumeration order.
        g, T, M, checkpoints: schedule parameters (see Schedule).
        pairing: penalty strategy passed to assemble_problem.
        gap_points: s samples for the reported minimal gap; 0 skips it.

    Returns:
        FactorResult with p <= q and p * q == target, exactly.

    Raises:
        EvenInput, TooSmall, WidthMismatch, DimensionTooLarge,
            NotFactorable: no split to anneal (see select_split).
        InvariantViolation: the decoded factors do not multiply to the target.
    """
    system, qmap, problem = select_split(target, widths, pairing)
    if problem is None:
        p, q = _verified(target, *decode_assignment({}, system))
        return FactorResult(
            target, p, q, widths=system.widths, mode="preprocessed",
            success_probability=1.0, ground_manifold=(), min_gap=None,
            schedule=None,
        )
    manifold = ground_manifold(problem)
    schedule = Schedule(g=g, T=T, M=M, checkpoints=checkpoints)
    mixer = MixerSpec(qmap.n, g)
    trace = run_schedule(mixer, problem, schedule)
    pops = trace.final_populations
    best = max(manifold.indices, key=lambda i: pops[i])
    # zero energy certifies the equations, hence the product; check it anyway
    p, q = _verified(target, *decode_assignment(qmap.assignment_of(best), system))
    min_gap = None
    if gap_points:
        min_gap = gap_profile(mixer, problem, points=gap_points, k=2).min_gap
    return FactorResult(
        target, p, q, widths=system.widths, mode="adiabatic",
        success_probability=success_probability(pops, manifold),
        ground_manifold=manifold.indices, min_gap=min_gap,
        schedule=schedule, trace=trace,
    )


@dataclass(frozen=True)
class SweepPoint:
    value: float
    success_probability: float
    min_gap: Optional[float]


def sweep(
    target: int,
    axis: str,
    values: Sequence[float],
    widths: Optional[tuple[int, int]] = None,
    g: float = 0.6,
    T: float = 20.0,
    M: int = 20,
    pairing: str = "last",
    gap_points: int = 51,
) -> list[SweepPoint]:
    """Rerun one compiled instance while varying a single schedule axis.

    axis is "g", "T" or "M"; values replaces that parameter pointwise.
    The instance is the split factor() anneals (select_split), selected
    once; the minimal gap only depends on g, so it is cached per field
    strength.

    Raises:
        EmptySystem: the instance is fully solved by preprocessing, so
            there is no evolution to sweep.
        DimensionTooLarge, NotFactorable: no split to anneal (see select_split).
    """
    if axis not in ("g", "T", "M"):
        raise ValueError(f"axis must be g, T or M, got {axis!r}")
    _, qmap, problem = select_split(target, widths, pairing)
    if problem is None:
        raise EmptySystem(f"{target}: nothing left to solve")
    manifold = ground_manifold(problem)
    gaps: dict[float, Optional[float]] = {}
    points = []
    for value in values:
        params = {"g": g, "T": T, "M": M}
        params[axis] = value if axis != "M" else int(value)
        mixer = MixerSpec(qmap.n, params["g"])
        schedule = Schedule(g=params["g"], T=params["T"], M=params["M"])
        trace = run_schedule(mixer, problem, schedule)
        prob = success_probability(trace.final_populations, manifold)
        if params["g"] not in gaps:
            gaps[params["g"]] = (
                gap_profile(mixer, problem, points=gap_points, k=2).min_gap
                if gap_points
                else None
            )
        points.append(SweepPoint(float(value), prob, gaps[params["g"]]))
    return points
