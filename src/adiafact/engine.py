"""Discretized adiabatic evolution and spectra.

H(s) = (1 - s) * g * sum_i X_i + s * Hp is interpolated linearly in s, with
g from the schedule, and the M step unitaries U_m = exp(-i * H(m/M) * T/M)
are applied in order to the mixer ground state.  Natural units throughout
(hbar = 1): T and the inverse of g share one time scale.

Each step is propagated one of two ways, both exact to roundoff:

- dense: the eigensystem of the 2^n x 2^n H(s) (propagate_step), O(8^n);
- matrix-free: a Chebyshev expansion (Tal-Ezer & Kosloff 1984) over the
  spectral interval [s * E_min - (1 - s) * g * n, s * E_max + (1 - s) * g * n]
  of H(s), one product H(s) @ v per Bessel coefficient J_k(r * tau) above
  roundoff, r the half-width.  The product (hamiltonian._apply_interpolated)
  applies the mixer as one small dense flip-sum matrix product per block of
  at most six qubits: two products up to 12 qubits, one more for each
  further six.

One rule picks the path for every step and every spectrum sample
(_matrix_free_pays).  A dense solve of the 2^n-square H(s) costs O(8^n) and
one product O(2^n), so a dense step costs about 4^n / _DENSE_DIVISOR
products; a Chebyshev step needs one product per term plus
_STEP_OVERHEAD products' worth of recurrence and setup, and goes matrix-free
when that sum is the smaller.  Registers of up to 4 qubits stay dense at
any width, and steps too wide to pay stay dense, refused from a lower
bound on their term count (_term_floor) before any coefficient is computed.

Spectra (gap_profile) take both endpoints from closed forms.  Their
interior samples are dense eigenvalue solves, except for at most two
levels on registers where a full Lanczos basis (_BASIS_CAP products) pays
by the same rule, 9 qubits and up: there a warm-started Lanczos with full
reorthogonalization (_lanczos_lowest) runs on the same matrix-free
products.  A sample whose spectrum is too wide for that basis to resolve
sends the rest of its profile dense.  Sizes are desk scale on purpose: n
is capped (see hamiltonian.qubit_cap).
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

# A Chebyshev expansion ends at its last Bessel coefficient above _TERM_TOL.
_TERM_TOL = 1e-16
# _matrix_free_pays prices a dense step (interpolated_hamiltonian plus
# propagate_step) of n qubits at 4^n / _DENSE_DIVISOR products.  Both costs
# timed at 5 to 11 qubits (2 cores, 2 OpenBLAS threads, numpy 2.4) give
# divisors between 136 and 253.  170 lies in that range and above 163, the
# least divisor that keeps a full Lanczos basis (_BASIS_CAP products) dense
# at 8 qubits, where the dense sample is the faster.  Every matrix-free run
# is charged _STEP_OVERHEAD products more for its setup, which keeps
# registers of up to 4 qubits dense at any width.
_DENSE_DIVISOR = 170
_STEP_OVERHEAD = 2
# A Lanczos sample of gap_profile stops when the residual estimates of its
# Ritz pairs reach _RITZ_TOL, checked every _CHECK_STRIDE basis vectors;
# a basis of _BASIS_CAP vectors without convergence sends the rest of the
# profile dense.  gap_profile takes Lanczos samples where a full basis pays
# by _matrix_free_pays, from 9 qubits up (400 * 170 < 4^9).  Its start
# vector carries seeded noise of norm _NOISE.
_RITZ_TOL = 1e-10
_CHECK_STRIDE = 4
_BASIS_CAP = 400
_NOISE = 1e-2
_NOISE_SEED = 143


class _BasisFull(NumericalFailure):
    """A Lanczos sample filled its basis without converging.

    products counts the basis vectors spent; _lanczos_samples adds the
    samples before it, and sets rows to the energies those found.
    """

    def __init__(self, message: str, products: int):
        super().__init__(message)
        self.products = products
        self.rows = None


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
        if not (self.M >= 1 and self.M % 1 == 0):
            raise ValueError(f"step count must be a positive integer, got {self.M}")
        _check_field(self.g)
        for c in self.checkpoints:
            if not c % 1 == 0:
                raise ValueError(f"checkpoint {c} is not a whole step count")
            if not 0 <= c <= self.M:
                raise ValueError(f"checkpoint {c} outside 0..{self.M}")
        object.__setattr__(self, "M", int(self.M))
        object.__setattr__(self, "checkpoints", tuple(int(c) for c in self.checkpoints))

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
    # H @ v products of the Lanczos samples, the full basis of one that fell
    # back to dense included; 0 when every sample was dense
    products: int

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
    # fold the bits of every index onto bit 0, which ends up holding the parity
    parity = np.arange(dim)
    shift = 1
    while shift < n:
        parity ^= parity >> shift
        shift <<= 1
    signs = (1 - 2 * (parity & 1)).astype(np.float64)
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


def _bessel_coefficients(x: float) -> np.ndarray:
    """J_0(x), ..., J_K(x) for x >= 0, with K the last order above _TERM_TOL.

    Miller's backward recurrence J_(k-1) = (2k / x) * J_k - J_(k+1), started
    from 1 and 0 well past the last significant order, rescaled before it
    can overflow and normalized by J_0 + 2 * (J_2 + J_4 + ...) = 1.  Below
    x = 2 * _TERM_TOL, J_1 is negligible and J_0 is 1 to roundoff.
    """
    if x <= 2 * _TERM_TOL:
        return np.ones(1)
    start = int(x + 20 + 12 * x ** (1 / 3))
    values = [0.0] * start + [1.0, 0.0]
    for k in range(start, 0, -1):
        values[k - 1] = (2 * k / x) * values[k] - values[k + 1]
        if abs(values[k - 1]) > 1e250:
            values = [v * 1e-250 for v in values]
    coeffs = np.array(values) / (values[0] + 2 * math.fsum(values[2::2]))
    return coeffs[: np.flatnonzero(np.abs(coeffs) > _TERM_TOL)[-1] + 1]


def _term_floor(x: float) -> float:
    """A lower bound on the term count K of _bessel_coefficients(x).

    K is 0 up to x = 2 * _TERM_TOL and at least x + 10 * x^(1/3) above it
    (checked against scipy's jv on a grid of x up to 5000); non-finite
    for a non-finite x.
    """
    return 0.0 if x <= 2 * _TERM_TOL else x + 10 * x ** (1 / 3)


def _chebyshev_step(apply, state, tau, lo, hi, coeffs) -> np.ndarray:
    """exp(-i * H * tau) @ state by a Chebyshev expansion.

    apply(v) returns H @ v for a Hermitian H with spectrum in [lo, hi], and
    coeffs are _bessel_coefficients(r * tau).  With H = c + r * X (c, r the
    interval's centre and half-width), exp(-i * H * tau) is
    exp(-i * c * tau) * sum_k a_k * J_k(r * tau) * T_k(X), with a_0 = 1 and
    a_k = 2 * (-i)^k, and each vector T_k(X) @ state costs one product.

    Raises:
        NumericalFailure: the propagated state is not finite.
    """
    centre, radius = (hi + lo) / 2, (hi - lo) / 2
    weights = 2 * coeffs * np.array([1, -1j, -1, 1j])[np.arange(coeffs.size) % 4]
    result = coeffs[0] * state
    # T_1 = X T_0, then T_(k+1) = 2 X T_k - T_(k-1)
    previous, current, factor = 0.0, state, 1.0
    for weight in weights[1:]:
        following = (apply(current) - centre * current) * (factor / radius) - previous
        previous, current, factor = current, following, 2.0
        result += weight * current
    result *= np.exp(-1j * centre * tau)
    if not np.isfinite(np.vdot(result, result).real):
        raise NumericalFailure("Chebyshev step produced a non-finite state")
    return result


def _matrix_free_pays(n: int, products: float) -> bool:
    """Whether a matrix-free run of this many products beats one dense step of n qubits.

    False for a non-finite count, so such a step or sample stays dense.
    """
    return (products + _STEP_OVERHEAD) * _DENSE_DIVISOR < 4**n


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
    g, tau, n = schedule.g, schedule.tau, problem.n
    e_min, e_max = float(problem.min_energy()), float(problem.max_energy())
    products = 0
    for step in range(1, schedule.M + 1):
        s = schedule.s_at(step)
        lo, hi = s * e_min - (1 - s) * g * n, s * e_max + (1 - s) * g * n
        # a step too wide to pay is refused from the floor of its term count,
        # before any coefficient is computed
        x = (hi - lo) / 2 * tau
        coeffs = _bessel_coefficients(x) if _matrix_free_pays(n, _term_floor(x)) else None
        if coeffs is not None and _matrix_free_pays(n, coeffs.size - 1):
            apply = partial(_apply_interpolated, s, g, problem)
            state = _chebyshev_step(apply, state, tau, lo, hi, coeffs)
            products += coeffs.size - 1
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


def _lanczos_lowest(apply, start, k, first_check) -> tuple[np.ndarray, np.ndarray, int]:
    """The k lowest Ritz values of a real symmetric H, their Ritz vectors and the basis size.

    apply(v) returns H @ v.  The Krylov basis grown from start is fully
    reorthogonalized (two Gram-Schmidt passes per vector), and its
    tridiagonal projection is diagonalized from first_check vectors on,
    every _CHECK_STRIDE vectors (every sixteenth of the basis once that is
    more), until the residual estimates beta_m * |y_last| of the k lowest
    Ritz pairs are at most _RITZ_TOL.  The basis size equals the number of
    products.

    Raises:
        NumericalFailure: a non-finite product.
        _BasisFull: no convergence within _BASIS_CAP vectors.
    """
    cap = min(_BASIS_CAP, start.size)
    basis = np.empty((cap, start.size))
    alpha, beta = np.empty(cap), np.empty(cap)
    basis[0] = start / np.linalg.norm(start)
    check = max(first_check, k)
    for m in range(1, cap + 1):
        w = apply(basis[m - 1])
        alpha[m - 1] = basis[m - 1] @ w
        for _ in range(2):
            w -= basis[:m].T @ (basis[:m] @ w)
        beta[m - 1] = norm = np.linalg.norm(w)
        if not math.isfinite(norm):
            raise NumericalFailure("Lanczos produced a non-finite vector")
        if m >= check or m == cap or norm == 0.0:
            # eigh reads only the lower triangle of the tridiagonal projection
            try:
                theta, y = np.linalg.eigh(np.diag(alpha[:m]) + np.diag(beta[: m - 1], -1))
            except np.linalg.LinAlgError as exc:
                raise NumericalFailure(f"tridiagonal eigensolve failed: {exc}") from exc
            if np.all(norm * np.abs(y[-1, :k]) <= _RITZ_TOL):
                return theta[:k], y[:, :k].T @ basis[:m], m
            check = m + max(_CHECK_STRIDE, m // 16)
        if m < cap:
            basis[m] = w / norm
    raise _BasisFull(f"Lanczos did not converge within {cap} vectors", cap)


def _lanczos_samples(
    problem: DiagonalOperator, g: float, s_values, k: int
) -> tuple[np.ndarray, int]:
    """The k lowest energies of H(s) at each s in (0, 1), and the products spent.

    Each sample starts from the sum of the previous sample's Ritz vectors
    (the first from the mixer ground state) plus one fixed seeded noise
    vector, and first checks convergence two vectors short of the previous
    basis size, so that sizes can shrink as well as grow.

    Raises:
        NumericalFailure: a non-finite product.
        _BasisFull: a sample did not converge; it carries the rows found
            before it and every product spent.
    """
    rows = np.empty((len(s_values), k))
    noise = np.random.default_rng(_NOISE_SEED).standard_normal(problem.dim)
    noise *= _NOISE / np.linalg.norm(noise)
    start, size, products = initial_state(problem.n).real, 0, 0
    for i, s in enumerate(s_values):
        apply = partial(_apply_interpolated, s, g, problem)
        try:
            rows[i], vectors, size = _lanczos_lowest(apply, start + noise, k, size - 2)
        except _BasisFull as exc:
            exc.rows, exc.products = rows[:i], products + exc.products
            raise
        products += size
        start = vectors.sum(axis=0)
    return rows, products


def gap_profile(
    problem: DiagonalOperator, g: float, points: int = 101, k: int = 3
) -> GapTrace:
    """Sample the k lowest energies of H(s) at field strength g on a uniform s grid.

    min_gap is the smallest E1 - E0 over sampled s < 1 (None for k = 1);
    at s = 1 a degenerate ground manifold closes the gap by construction,
    which is why that endpoint is excluded.

    The endpoints are closed forms: at s = 0 the levels g * (2j - n) with
    multiplicity C(n, j), at s = 1 the sorted diagonal.  Interior samples
    are dense eigenvalue solves, or Lanczos (_lanczos_lowest) for k <= 2
    on registers where a full basis costs less than a dense sample
    (_matrix_free_pays).  A Lanczos sample that fills its basis without
    converging (a spectrum too wide against its gap) and every sample
    after it are dense solves, whatever their size; products then counts
    the Lanczos products spent, the full basis of that sample included.
    For
    s < 1, H(s) is irreducible and, after the gauge Z on every qubit, has
    no positive off-diagonal entry, so E0 is simple (Perron-Frobenius); a
    single Krylov vector with a random component then yields E0 and the
    value of E1 even when E1 is degenerate.  It can miss a degenerate
    E1 = E2, so k >= 3 stays dense.
    """
    _check_field(g)
    if points < 2:
        raise ValueError(f"need at least two sample points, got {points}")
    n = problem.n
    _check_dim(n)
    if not 1 <= k <= problem.dim:
        raise IndexOutOfRange(f"k={k} outside 1..{problem.dim}")
    s_values = np.linspace(0.0, 1.0, points)
    rows = np.empty((points, k))
    levels = g * np.arange(-n, n + 1, 2)
    rows[0] = np.repeat(levels, [math.comb(n, j) for j in range(n + 1)])[:k]
    rows[-1] = np.sort(problem.as_array)[:k]
    dense_from, products = 1, 0
    if k <= 2 and _matrix_free_pays(n, _BASIS_CAP):
        try:
            rows[1:-1], products = _lanczos_samples(problem, g, s_values[1:-1], k)
            dense_from = points - 1
        except _BasisFull as exc:
            dense_from = 1 + len(exc.rows)
            rows[1:dense_from], products = exc.rows, exc.products
    for i in range(dense_from, points - 1):
        rows[i] = lowest_eigenvalues(interpolated_hamiltonian(s_values[i], g, problem), k)
    min_gap = None
    if k >= 2:
        before_end = s_values < 1.0
        min_gap = float(np.min(rows[before_end, 1] - rows[before_end, 0]))
    return GapTrace(s_values, rows, min_gap, products)
