"""Discretized adiabatic evolution and spectra.

H(s) = (1 - s) * g * sum_i X_i + s * Hp is interpolated linearly in s, with
g from the schedule, and the M step unitaries U_m = exp(-i * H(m/M) * T/M)
are applied in order to the mixer ground state.  Natural units throughout
(hbar = 1): T and the inverse of g share one time scale.

Each step is propagated one of two ways, both exact to roundoff:

- dense: build the 2^n x 2^n H(s) and form the exponential from its
  eigensystem (propagate_step), O(8^n) per step;
- matrix-free: short-iteration Lanczos with adaptive substeps (Park &
  Light 1986; Hochbruck & Lubich 1997), which needs only products H(s) @ v
  at O(n * 2^n) each (hamiltonian._apply_interpolated).

The choice is made before the step runs, from the register size n and
the a-priori bound W(s) * tau on the step's spectral width, with
W(s) = s * (E_max - E_min) + 2 * (1 - s) * g * n: a step goes matrix-free
when its predicted substeps times the measured cost of one substep
(_STEP_COST_MS) are below the measured cost of a dense step.  Registers
of up to 7 qubits therefore always take the dense path, and so do steps
whose width would need more substeps than a dense step costs.

Spectra (gap_profile) are dense eigenvalue solves.  Sizes are desk scale
on purpose: n is capped (see hamiltonian.qubit_cap).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from typing import IO, Optional

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NumericalFailure
from .hamiltonian import (
    DiagonalOperator,
    _apply_interpolated,
    _check_dim,
    _check_field,
    interpolated_hamiltonian,
)

_FLOAT_FMT = "%.12g"

# Lanczos substeps: at most _KRYLOV_DIM basis vectors each, accepted when
# the a-posteriori error estimate is at most _SUBSTEP_TOL, with lengths
# taken from the grid left * 2^(-k/4), k < _SUBSTEP_GRID (24 octaves).
_KRYLOV_DIM = 30
_SUBSTEP_TOL = 1e-13
_SUBSTEP_GRID = 96
# Spectral width W * h that one substep is predicted to cover.  Where a
# step needed several substeps, each covered 12.8 to 30 (the 6-, 9- and
# 10-qubit registers of 77, 323 and 121 and a 6-qubit direct-cost diagonal,
# at T/M of 1, 8 and 10).
_SUBSTEP_WIDTH = 12.0
# Cost in milliseconds of one dense step (interpolated_hamiltonian plus
# propagate_step) and of one full Lanczos substep (30 products), by register
# size: medians of repeated runs, rounded, on 2 cores with 2 OpenBLAS
# threads, numpy 2.4, Python 3.11.
# Dense costs for 12 qubits (an 8.7 s eigh) and beyond (x8 per qubit) are
# extrapolated, not run; larger registers use the 14-qubit row.
_STEP_COST_MS = {
    1: (0.04, 0.15),
    2: (0.034, 0.23),
    3: (0.042, 0.42),
    4: (0.072, 0.84),
    5: (0.2, 1.8),
    6: (0.6, 2.0),
    7: (2.5, 2.5),
    8: (10.2, 2.9),
    9: (42.0, 3.0),
    10: (200.0, 4.3),
    11: (1370.0, 6.5),
    12: (8700.0, 9.1),
    13: (70000.0, 22.7),
    14: (560000.0, 46.0),
}


@dataclass(frozen=True)
class Schedule:
    """Linear annealing schedule: total time T, M steps, field strength g.

    checkpoints lists the step counts after which populations are
    recorded; step 0 is the initial state.  An empty tuple means the
    default quartiles {0, M/4, M/2, 3M/4, M} (rounded, deduplicated).
    """

    g: float = 0.6
    T: float = 20.0
    M: int = 20
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError(f"total time must be positive, got {self.T}")
        if not math.isfinite(self.T):
            raise ValueError(f"total time must be finite, got {self.T}")
        if self.M < 1 or self.M != int(self.M):
            raise ValueError(f"step count must be a positive integer, got {self.M}")
        _check_field(self.g)
        for c in self.checkpoints:
            if not 0 <= c <= self.M:
                raise ValueError(f"checkpoint {c} outside 0..{self.M}")

    @property
    def tau(self) -> float:
        return self.T / self.M

    def s_at(self, step: int) -> float:
        return step / self.M

    def resolved_checkpoints(self) -> tuple[int, ...]:
        if self.checkpoints:
            return tuple(sorted(set(self.checkpoints)))
        quarters = {round(k * self.M / 4) for k in range(5)}
        return tuple(sorted(quarters))

    def to_json_dict(self) -> dict:
        return {
            "g": self.g,
            "T": self.T,
            "M": self.M,
            "checkpoints": list(self.resolved_checkpoints()),
        }


@dataclass(frozen=True)
class TracePoint:
    step: int
    s: float
    populations: np.ndarray


@dataclass(frozen=True)
class EvolutionTrace:
    """Populations at the requested checkpoints plus the final state."""

    n: int
    schedule: Schedule
    points: tuple[TracePoint, ...]
    final_state: np.ndarray
    norm_drift: float  # | |final_state| - 1 |
    products: int  # H @ v products of the matrix-free steps; 0 when every step was dense

    @property
    def final_populations(self) -> np.ndarray:
        return populations(self.final_state)

    def to_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        writer.writerow(["step", "s", "index", "population"])
        for point in self.points:
            for index, value in enumerate(point.populations):
                writer.writerow(
                    [point.step, _FLOAT_FMT % point.s, index, _FLOAT_FMT % value]
                )


@dataclass(frozen=True)
class GapTrace:
    """k lowest energies sampled along s, and the minimal E1 - E0 before s = 1."""

    s_values: np.ndarray
    energies: np.ndarray  # shape (len(s_values), k), ascending within a row
    min_gap: Optional[float]

    @property
    def k(self) -> int:
        return self.energies.shape[1]

    def to_csv(self, stream: IO[str]) -> None:
        writer = csv.writer(stream)
        writer.writerow(["s"] + [f"E{j}" for j in range(self.k)])
        for s, row in zip(self.s_values, self.energies):
            writer.writerow([_FLOAT_FMT % s] + [_FLOAT_FMT % e for e in row])


def initial_state(n: int) -> np.ndarray:
    """Mixer ground state: amplitude (-1)^popcount(b) / 2^(n/2) on basis state b."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    _check_dim(n)
    dim = 1 << n
    signs = np.array([1.0 if bin(b).count("1") % 2 == 0 else -1.0 for b in range(dim)])
    return (signs / np.sqrt(dim)).astype(np.complex128)


def populations(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def propagate_step(state: np.ndarray, hamiltonian: np.ndarray, tau: float) -> np.ndarray:
    """Apply exp(-i * hamiltonian * tau) to the state.

    The exponential is synthesized from the eigendecomposition of the
    (real symmetric or Hermitian) Hamiltonian.

    Raises:
        DimensionMismatch: state and Hamiltonian sizes differ.
        NumericalFailure: non-finite entries or a failed eigensolve.
    """
    if hamiltonian.ndim != 2 or hamiltonian.shape[0] != hamiltonian.shape[1]:
        raise DimensionMismatch(f"Hamiltonian shape {hamiltonian.shape} is not square")
    if state.shape != (hamiltonian.shape[0],):
        raise DimensionMismatch(
            f"state of length {state.shape} against matrix {hamiltonian.shape}"
        )
    if not np.all(np.isfinite(hamiltonian)):
        raise NumericalFailure("Hamiltonian contains non-finite entries")
    try:
        energies, basis = np.linalg.eigh(hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    phases = np.exp(-1j * energies * tau)
    return basis @ (phases * (basis.conj().T @ state))


def _substep_length(
    theta: np.ndarray, vecs: np.ndarray, residual: float, left: float
) -> float:
    """Longest grid length h <= left whose error estimate, and every shorter one's, passes.

    The estimate is residual * |e_m^T exp(-i T h) e_1|, with the small
    tridiagonal T = vecs @ diag(theta) @ vecs.T.  NaN estimates never pass.
    """
    lengths = left * 2.0 ** (-np.arange(_SUBSTEP_GRID) / 4)
    ends = vecs[-1] * vecs[0]
    estimates = residual * np.abs(np.exp(-1j * np.outer(lengths, theta)) @ ends)
    failing = np.flatnonzero(~(estimates <= _SUBSTEP_TOL))
    if failing.size == 0:
        return left
    if failing[-1] == _SUBSTEP_GRID - 1:
        raise NumericalFailure(
            f"Lanczos substep cannot meet its tolerance (estimate {estimates[-1]:.3e})"
        )
    return float(lengths[failing[-1] + 1])


def _lanczos_step(apply, state: np.ndarray, tau: float) -> tuple[np.ndarray, int]:
    """exp(-i * H * tau) @ state by short-iteration Lanczos; returns (state, products).

    apply(v) returns H @ v for a real symmetric H; products counts its calls.
    Each substep builds an orthonormal Krylov basis of at most _KRYLOV_DIM
    vectors (full reorthogonalization, two Gram-Schmidt passes),
    diagonalizes the small tridiagonal T exactly and advances by the
    longest length its error estimate allows (_substep_length).  A basis
    whose last coefficient falls below the tolerance spans an invariant
    subspace to roundoff, and its estimate lets it cover the rest of the step.

    Raises:
        NumericalFailure: a non-finite Lanczos coefficient, or no substep
            length meets the tolerance.
    """
    size = min(_KRYLOV_DIM, state.size)
    basis = np.empty((size, state.size), dtype=np.complex128)
    alpha = np.empty(size)
    beta = np.empty(size)
    products = 0
    left = tau
    while left > 0:
        norm = float(np.linalg.norm(state))
        basis[0] = state / norm
        for j in range(size):
            w = apply(basis[j])
            products += 1
            done = basis[: j + 1]
            coeffs = (done @ w.conj()).conj()
            alpha[j] = coeffs[j].real
            w -= coeffs @ done
            w -= (done @ w.conj()).conj() @ done
            beta[j] = np.linalg.norm(w)
            if not (np.isfinite(alpha[j]) and np.isfinite(beta[j])):
                raise NumericalFailure(f"non-finite Lanczos coefficient at iteration {j}")
            if beta[j] <= _SUBSTEP_TOL or j + 1 == size:
                break
            basis[j + 1] = w / beta[j]
        k = j + 1
        off = beta[: k - 1]
        tridiagonal = np.diag(alpha[:k]) + np.diag(off, 1) + np.diag(off, -1)
        try:
            theta, vecs = np.linalg.eigh(tridiagonal)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"tridiagonal eigensolve failed: {exc}") from exc
        h = _substep_length(theta, vecs, beta[k - 1] * norm, left)
        state = norm * ((vecs @ (np.exp(-1j * theta * h) * vecs[0])) @ basis[:k])
        left -= h
    return state, products


def _lanczos_pays(n: int, width_tau: float) -> bool:
    """Whether the predicted Lanczos substeps cost less than one dense step.

    width_tau is W(s) * tau; a non-finite value predicts no saving.
    """
    dense_ms, substep_ms = _STEP_COST_MS[min(n, max(_STEP_COST_MS))]
    return (1.0 + width_tau / _SUBSTEP_WIDTH) * substep_ms < dense_ms


def run_schedule(problem: DiagonalOperator, schedule: Schedule) -> EvolutionTrace:
    """Evolve the mixer ground state through the discretized schedule.

    The field strength is schedule.g.  Returns the populations at every
    requested checkpoint and the final state.  Identical inputs produce
    identical traces: the evolution is deterministic.

    Raises:
        NumericalFailure: a step failed or the norm drifted badly.
    """
    marks = set(schedule.resolved_checkpoints())
    state = initial_state(problem.n)
    points = []
    if 0 in marks:
        points.append(TracePoint(0, 0.0, populations(state)))
    g, tau = schedule.g, schedule.tau
    energy_width = float(problem.max_energy() - problem.min_energy())
    products = 0
    for step in range(1, schedule.M + 1):
        s = schedule.s_at(step)
        width = s * energy_width + 2.0 * (1.0 - s) * g * problem.n
        if _lanczos_pays(problem.n, width * tau):
            apply = partial(_apply_interpolated, s, g, problem)
            state, used = _lanczos_step(apply, state, tau)
            products += used
        else:
            state = propagate_step(state, interpolated_hamiltonian(s, g, problem), tau)
        if step in marks:
            points.append(TracePoint(step, s, populations(state)))
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    if not drift <= 1e-6:
        raise NumericalFailure(f"state norm drifted by {drift:.3e}")
    return EvolutionTrace(problem.n, schedule, tuple(points), state, drift, products)


def lowest_eigenvalues(hamiltonian: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending."""
    dim = hamiltonian.shape[0]
    if not 1 <= k <= dim:
        raise IndexOutOfRange(f"k={k} outside 1..{dim}")
    if not np.all(np.isfinite(hamiltonian)):
        raise NumericalFailure("Hamiltonian contains non-finite entries")
    try:
        energies = np.linalg.eigvalsh(hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolve failed: {exc}") from exc
    return energies[:k]


def gap_profile(
    problem: DiagonalOperator, g: float, points: int = 101, k: int = 3
) -> GapTrace:
    """Sample the k lowest energies of H(s) at field strength g on a uniform s grid.

    min_gap is the smallest E1 - E0 over sampled s < 1 (None for k = 1);
    at s = 1 a degenerate ground manifold closes the gap by construction,
    which is why that endpoint is excluded.
    """
    _check_field(g)
    if points < 2:
        raise ValueError(f"need at least two sample points, got {points}")
    s_values = np.linspace(0.0, 1.0, points)
    rows = np.empty((points, k))
    for i, s in enumerate(s_values):
        rows[i] = lowest_eigenvalues(interpolated_hamiltonian(s, g, problem), k)
    min_gap = None
    if k >= 2:
        before_end = s_values < 1.0
        min_gap = float(np.min(rows[before_end, 1] - rows[before_end, 0]))
    return GapTrace(s_values, rows, min_gap)
