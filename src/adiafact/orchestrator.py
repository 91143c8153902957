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
from typing import Mapping, Optional, Sequence

import numpy as np

from .compiler import EquationSystem, build_layout, enumerate_width_splits, simplify
from .errors import (
    DimensionTooLarge,
    EmptySystem,
    IndexOutOfRange,
    Infeasible,
    InvariantViolation,
    NotFactorable,
    UnmappedVariable,
)
from .engine import EvolutionTrace, Schedule, gap_profile, run_schedule
from .hamiltonian import (
    DiagonalOperator,
    QubitMap,
    assemble_problem,
    polynomial_to_diagonal,
    qubit_cap,
)
from .pseudobool import VarId


@dataclass(frozen=True)
class GroundManifold:
    indices: tuple[int, ...]
    energy: int


def ground_manifold(problem: DiagonalOperator) -> GroundManifold:
    """Exact minimum of the diagonal and every index attaining it."""
    return GroundManifold(problem.ground_indices(), problem.min_energy())


def success_probability(populations: np.ndarray, manifold: GroundManifold) -> float:
    """Total population on the manifold indices."""
    total = 0.0
    for index in manifold.indices:
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
        ValueError: an interior bit has a value other than 0 or 1.
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
            if bit not in (0, 1):
                raise ValueError(f"interior bit {var} has value {bit!r}, not 0 or 1")
            value |= bit << i
        return value

    w_p, w_q = system.widths
    return read("p", w_p), read("q", w_q)


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


def _fits_a_pair(target: int, w_p: int, w_q: int) -> bool:
    """Whether p's range for target = p * q, odd p of w_p bits and q of w_q bits, is not empty."""
    low = max((1 << (w_p - 1)) + 1, -(-target // ((1 << w_q) - 1)))  # ceil(N / (2^w_q - 1))
    return low <= min((1 << w_p) - 1, target // ((1 << (w_q - 1)) + 1))


def select_split(
    target: int, widths: Optional[tuple[int, int]] = None, pairing: str = "last"
) -> tuple[EquationSystem, Optional[QubitMap], Optional[DiagonalOperator]]:
    """(simplified system, qubit map, penalty diagonal) of the split to anneal.

    Walks enumerate_width_splits(target) in balance order (only widths
    when given), past every split that no factor pair fits (_fits_a_pair),
    to the first split that propagation solves outright (map and diagonal
    are then None), or whose register fits the qubit cap and whose
    penalty diagonal has a zero-energy state.

    Raises:
        EvenInput, TooSmall, WidthMismatch: bad target or explicit widths.
        DimensionTooLarge: the only viable splits exceed the qubit cap
            (the message names the smallest split skipped and its qubits).
        NotFactorable: every split is infeasible or has no zero-energy state.
    """
    splits = [tuple(widths)] if widths is not None else enumerate_width_splits(target)
    smallest: Optional[tuple[int, tuple[int, int]]] = None  # (qubits, widths) skipped for the cap
    for w_p, w_q in splits:
        layout = build_layout(target, w_p, w_q)  # refuses bad widths first
        if not _fits_a_pair(target, w_p, w_q):
            continue
        try:
            system = simplify(layout)
        except Infeasible:
            continue
        if system.is_solved:
            return system, None, None
        n = len(system.variables)
        if n > qubit_cap():
            if smallest is None or n < smallest[0]:
                smallest = (n, (w_p, w_q))
            continue  # skipped before its penalty is built
        qmap, penalty = assemble_problem(system, pairing=pairing)
        problem = polynomial_to_diagonal(penalty, qmap)
        if problem.min_energy() == 0:
            return system, qmap, problem
    if smallest is not None:
        raise DimensionTooLarge(
            f"{target}: the smallest skipped split {smallest[1]} needs {smallest[0]} qubits,"
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
    gap_points: int = 51,
) -> FactorResult:
    """Factor an odd target by compiled adiabatic evolution.

    Args:
        target: odd integer >= 9.
        widths: try only this split instead of the enumeration order.
        g, T, M: schedule parameters (see Schedule).
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
    schedule = Schedule(g=g, T=T, M=M)
    min_gap = None
    if gap_points:
        min_gap = gap_profile(problem, g, points=gap_points, k=2).min_gap
    trace = run_schedule(problem, schedule)
    pops = trace.final_populations
    best = max(manifold.indices, key=lambda i: pops[i])
    # zero energy certifies the equations, hence the product; check it anyway
    p, q = _verified(target, *decode_assignment(qmap.assignment_of(best), system))
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

    axis is "g", "T" or "M"; values replaces that parameter pointwise
    (M values must be whole numbers).  The instance is the split factor()
    anneals (select_split), selected once; the minimal gap only depends
    on g, so it is cached per field strength.

    Raises:
        EmptySystem: the instance is fully solved by preprocessing, so
            there is no evolution to sweep.
        DimensionTooLarge, NotFactorable: no split to anneal (see select_split).
        ValueError: an unknown axis, or an M value that is not a whole number.
    """
    if axis not in ("g", "T", "M"):
        raise ValueError(f"axis must be g, T or M, got {axis!r}")
    fractional = [v for v in values if axis == "M" and not float(v).is_integer()]
    if fractional:
        raise ValueError(f"step count must be a whole number, got {fractional[0]}")
    _, _, problem = select_split(target, widths, pairing)
    if problem is None:
        raise EmptySystem(f"{target}: nothing left to solve")
    manifold = ground_manifold(problem)
    gaps: dict[float, Optional[float]] = {}
    points = []
    for value in values:
        schedule = Schedule(**{"g": g, "T": T, "M": M, axis: value})
        if gap_points and schedule.g not in gaps:
            gaps[schedule.g] = gap_profile(problem, schedule.g, points=gap_points, k=2).min_gap
        trace = run_schedule(problem, schedule)
        prob = success_probability(trace.final_populations, manifold)
        points.append(SweepPoint(float(value), prob, gaps.get(schedule.g)))
    return points
