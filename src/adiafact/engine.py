"""Discretized adiabatic evolution and spectra.

H(s) = (1 - s) * g * sum_i X_i + s * Hp is interpolated linearly in s, with
g from the schedule, and the M step unitaries U_m = exp(-i * H(m/M) * T/M)
are applied in order to the mixer ground state.  Natural units throughout
(hbar = 1): T and the inverse of g share one time scale.

Each step is propagated one of two ways, both exact to roundoff:

- dense: the eigensystem of the 2^n x 2^n H(s) (propagate_step), O(8^n).
  A run of consecutive dense steps is one (m, 2^n, 2^n) stack from
  interpolated_hamiltonian over an array of s, decomposed in one eigh
  call and applied first to last; a stack holds at most _STACK_BYTES of
  matrices and at least one, so memory does not grow with M;
- matrix-free: a Chebyshev expansion (Tal-Ezer & Kosloff 1984) over the
  spectral interval [s * E_min - (1 - s) * g * n, s * E_max + (1 - s) * g * n]
  of H(s), one product H(s) @ v per Bessel coefficient J_k(r * tau) above
  roundoff, r the half-width.  H(s) is real, so the state's real and
  imaginary parts run through the recurrence as the two rows of one real
  stack, and each coefficient's factor (-i)^k is a quarter turn of that
  pair.  The three-term recurrence is the one the spectral filters run
  (_chebyshev_vectors), unscaled, updated in place on each product's
  output.  The product (hamiltonian._apply_interpolated) applies the mixer
  as one small dense flip-sum matrix product per block of at most six
  qubits: two products up to 12 qubits, one more for each further six.

One rule picks the path for every step and every spectrum sample
(_matrix_free_pays).  A dense solve of the 2^n-square H(s) costs O(8^n) and
one product O(2^n), so a dense step costs about 4^n / _DENSE_DIVISOR
products; a Chebyshev step needs one product per term plus
_STEP_OVERHEAD products' worth of recurrence and setup, and goes matrix-free
when that sum is the smaller.  Registers of up to 4 qubits stay dense at
any width, and steps too wide to pay stay dense, refused from a lower
bound on their term count (_term_floor) before any coefficient is computed.

Spectra (gap_profile) take both endpoints from closed forms.  Their
interior samples come from one block of p real vectors carried along s:
Chebyshev-filtered subspace iteration (_filtered_lowest; Zhou, Saad, Tiago
& Chelikowsky 2006), whose filter damps the spectrum above the block's
largest Ritz value up to the same exact upper end, and which multiplies
the whole block in one product call.  The filter is the steps' Chebyshev
recurrence (_chebyshev_vectors), scaled to about 1 at the lowest Ritz
value.  An iteration of degree d costs p * (d + 1) products; a sample
where that does not pay, which includes every register of up to 6
qubits, is a dense eigenvalue solve.  Dense samples never feed the block:
they are collected during the walk along s and solved after it as stacks
under the same _STACK_BYTES bound, one eigvalsh call (lowest_eigenvalues)
each.  Sizes are desk scale on purpose: n is capped (see
hamiltonian.qubit_cap).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from itertools import islice
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
# divisors between 136 and 253; 170 lies in that range.  Every matrix-free run
# is charged _STEP_OVERHEAD products more for its setup, which keeps
# registers of up to 4 qubits dense at any width.
_DENSE_DIVISOR = 170
_STEP_OVERHEAD = 2
# An interior sample of gap_profile (_filtered_lowest) stops when the k lowest
# Ritz pairs have residuals of at most _RESIDUAL_TOL, and fails after
# _MAX_ITERATIONS filtered iterations.  Its block holds _GUARD vectors more
# than the levels at or below the k-th diagonal entry, drawn with
# _NOISE_SEED.  A filter's degree is at least _MIN_DEGREE, which keeps the
# QR and Rayleigh-Ritz step a small share of an iteration and every register
# of up to 6 qubits dense (3 * 9 products outweigh 4^6 / 170).
_RESIDUAL_TOL = 1e-7
_MAX_ITERATIONS = 100
_GUARD = 2
_MIN_DEGREE = 8
_NOISE_SEED = 143
# The dense steps of a run and the dense samples of a profile are solved as
# (m, dim, dim) stacks, one LAPACK call each, of at most _STACK_BYTES of
# matrices and at least one: 128 matrices at 4 qubits, 8 at 6, 2 at 7 and
# one from 8 qubits on.  eigh returns as many bytes of eigenvectors, so a
# stack needs about twice the bound; at 256 KiB the anneal benchmark's
# peak RSS rose by 0.2 MiB (median of 11 runs, 2 cores, numpy 2.4).
_STACK_BYTES = 256 * 1024


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
    # products of one state by H(s) in the filtered samples, one per state of
    # a stacked call; 0 when every sample was dense
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


def _check_stack(hamiltonian: np.ndarray) -> int:
    """The size of a square matrix or of each matrix of an (m, dim, dim) stack."""
    if hamiltonian.ndim not in (2, 3) or hamiltonian.shape[-1] != hamiltonian.shape[-2]:
        raise DimensionMismatch(
            f"Hamiltonian shape {hamiltonian.shape} is not square or a stack of square matrices"
        )
    return hamiltonian.shape[-1]


def propagate_step(state: np.ndarray, hamiltonian: np.ndarray, tau: float) -> np.ndarray:
    """Apply exp(-i * hamiltonian * tau) to the state.

    The exponential is synthesized from the eigendecomposition of the
    (real symmetric or Hermitian) Hamiltonian.  An (m, dim, dim) stack of
    Hamiltonians is m steps, decomposed in one call and applied first to
    last; the result is then the (m, dim) array of the states after each
    step.

    Raises:
        DimensionMismatch: state and Hamiltonian sizes differ, or a
            Hamiltonian is not square.
        NumericalFailure: non-finite entries or a failed eigensolve.
    """
    dim = _check_stack(hamiltonian)
    if state.shape != (dim,):
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
    if hamiltonian.ndim == 2:
        return basis @ (phases * (basis.conj().T @ state))
    states = np.empty((len(hamiltonian), dim), dtype=np.result_type(basis, state, phases))
    for step, (vectors, turn) in enumerate(zip(basis, phases)):
        state = states[step] = vectors @ (turn * (vectors.conj().T @ state))
    return states


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


def _chebyshev_vectors(apply, rows, centre, radius, first=1.0):
    """Yield y_1, y_2, ... of the scaled Chebyshev recurrence in X = (H - centre) / radius.

    y_0 is rows, y_1 = first * X y_0 and y_(k+1) = 2 * sigma_(k+1) * X y_k -
    sigma_k * sigma_(k+1) * y_(k-1), with sigma_1 = first and sigma_(k+1) =
    1 / (2 / first - sigma_k) (Zhou, Saad, Tiago & Chelikowsky, J. Comput.
    Phys. 219, 172, 2006, algorithm 3.1).  At first = 1 every sigma is
    exactly 1 and y_k is T_k(X) y_0, the plain recurrence of a Chebyshev
    expansion.  At first = radius / (scale - centre), scale below the
    interval [centre - radius, centre + radius], y_k is T_k(X) y_0 /
    T_k((scale - centre) / radius): a filter that damps the interval and
    amplifies the spectrum below it, about 1 at scale, so that a high
    degree cannot overflow.

    Each vector costs one apply call, made when the vector is asked for.
    apply(v) must return H @ v for every row of v as a new array: the
    recurrence updates that array in place into the next vector, with one
    scratch array for the terms it subtracts.  It writes neither into rows
    nor into a vector it has yielded, so a caller may keep any of them.
    """
    scratch, previous, current, sigma = np.empty_like(rows), rows, apply(rows), first
    current -= np.multiply(rows, centre, out=scratch)
    current *= first / radius
    while True:
        yield current
        following = 1 / (2 / first - sigma)
        vector = apply(current)
        vector -= np.multiply(current, centre, out=scratch)
        vector *= 2 * following / radius
        # a step's factors (first = 1) are all exactly 1, and 1.0 * y is y bit
        # for bit: the product is skipped
        factor = sigma * following
        vector -= previous if factor == 1.0 else np.multiply(previous, factor, out=scratch)
        previous, current, sigma = current, vector, following


def _chebyshev_step(apply, state, tau, lo, hi, coeffs) -> np.ndarray:
    """exp(-i * H * tau) @ state by a Chebyshev expansion.

    apply(v) returns H @ v as a new array for every row of a real v, H
    real symmetric with spectrum in [lo, hi], and coeffs are
    _bessel_coefficients(r * tau).  With H = c + r * X (c, r the
    interval's centre and half-width), exp(-i * H * tau) is
    exp(-i * c * tau) * sum_k a_k * J_k(r * tau) * T_k(X), with a_0 = 1 and
    a_k = 2 * (-i)^k.  X is real, so the state's real and imaginary parts
    run through the recurrence (_chebyshev_vectors at first = 1) as the
    two rows of one real (2, 2^n) stack, and each vector T_k(X) @ state
    costs one product call; none is computed past the last coefficient.
    On that pair a_k is 2 times a quarter turn: -i takes (x, y) to
    (y, -x).  The pair is joined into one complex state before the phase
    exp(-i * c * tau).

    Raises:
        NumericalFailure: the propagated state is not finite.
    """
    centre, radius = (hi + lo) / 2, (hi - lo) / 2
    # (-i)^k for k = 0, 1, 2, 3 as 2 x 2 turns of the (real, imaginary) pair
    turn = np.array([[0.0, 1.0], [-1.0, 0.0]])
    turns = np.array([np.eye(2), turn, -np.eye(2), -turn])
    weights = 2 * coeffs[:, None, None] * turns[np.arange(coeffs.size) % 4]
    pair = np.stack([state.real, state.imag])
    result = coeffs[0] * pair
    for weight, vector in zip(weights[1:], _chebyshev_vectors(apply, pair, centre, radius)):
        result += weight @ vector
    result = (result[0] + 1j * result[1]) * np.exp(-1j * centre * tau)
    if not np.isfinite(np.vdot(result, result).real):
        raise NumericalFailure("Chebyshev step produced a non-finite state")
    return result


def _matrix_free_pays(n: int, products: float) -> bool:
    """Whether a matrix-free run of this many products beats one dense step of n qubits.

    False for a non-finite count, so such a step or sample stays dense.
    """
    return (products + _STEP_OVERHEAD) * _DENSE_DIVISOR < 4**n


def _stack_size(dim: int) -> int:
    """How many dim x dim float64 matrices one dense stack holds (_STACK_BYTES)."""
    return max(1, _STACK_BYTES // (8 * dim * dim))


def run_schedule(problem: DiagonalOperator, schedule: Schedule) -> EvolutionTrace:
    """Evolve the mixer ground state through the discretized schedule.

    The field strength is schedule.g.  Returns the populations at every
    requested checkpoint and the final state.  Identical inputs produce
    identical traces: the evolution is deterministic.

    Consecutive dense steps are propagated as stacks of up to
    _stack_size(dim) steps (propagate_step), whose checkpoints are read
    from the states after each step; a matrix-free step runs on its own.

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
    products, dense, chunk = 0, [], _stack_size(problem.dim)
    for step in range(1, schedule.M + 1):
        s = schedule.s_at(step)
        lo, hi = s * e_min - (1 - s) * g * n, s * e_max + (1 - s) * g * n
        # a step too wide to pay is refused from the floor of its term count,
        # before any coefficient is computed
        x = (hi - lo) / 2 * tau
        coeffs = _bessel_coefficients(x) if _matrix_free_pays(n, _term_floor(x)) else None
        chebyshev = coeffs is not None and _matrix_free_pays(n, coeffs.size - 1)
        if not chebyshev:
            dense.append(step)
        # the pending dense steps go as one stack before a matrix-free step,
        # when the stack is full, and at the end
        if dense and (chebyshev or len(dense) == chunk or step == schedule.M):
            at = [schedule.s_at(d) for d in dense]
            states = propagate_step(state, interpolated_hamiltonian(np.array(at), g, problem), tau)
            points += [TracePoint(d, a, populations(after))
                       for d, a, after in zip(dense, at, states) if d in marks]
            state = states[-1]
            dense.clear()
        if chebyshev:
            apply = partial(_apply_interpolated, s, g, problem)
            state = _chebyshev_step(apply, state, tau, lo, hi, coeffs)
            products += coeffs.size - 1
            if step in marks:
                points.append(TracePoint(step, s, populations(state)))
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    if not drift <= 1e-6:
        raise NumericalFailure(f"state norm drifted by {drift:.3e}")
    return EvolutionTrace(problem.n, schedule, tuple(points), state, drift, products)


def lowest_eigenvalues(hamiltonian: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending.

    Of an (m, dim, dim) stack, those of each matrix, as an (m, k) array
    from one call.

    Raises:
        DimensionMismatch: the Hamiltonian is not square or a stack of
            square matrices.
        IndexOutOfRange: k outside 1..dim.
        NumericalFailure: non-finite entries or a failed eigensolve.
    """
    dim = _check_stack(hamiltonian)
    if not 1 <= k <= dim:
        raise IndexOutOfRange(f"k={k} outside 1..{dim}")
    if not np.all(np.isfinite(hamiltonian)):
        raise NumericalFailure("Hamiltonian contains non-finite entries")
    try:
        energies = np.linalg.eigvalsh(hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolve failed: {exc}") from exc
    return energies[..., :k]


def _orthonormal_rows(vectors: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the rows' span, as the C-contiguous rows of a (p, dim) array."""
    return np.ascontiguousarray(np.linalg.qr(vectors.T)[0].T)


def _filtered_lowest(apply, block, k, hi, n) -> tuple[Optional[np.ndarray], np.ndarray, int]:
    """The k lowest eigenvalues of a real symmetric H by Chebyshev-filtered subspace iteration.

    apply(x) returns H @ x for every row of x at once; block holds p >= k
    orthonormal rows and hi bounds the spectrum of H from above.  Each
    iteration is a Rayleigh-Ritz step on the block, then, unless the k
    lowest Ritz pairs have residuals |H x - theta x| of at most
    _RESIDUAL_TOL, a Chebyshev filter that damps [theta_max, hi] followed
    by QR.  Its degree is the one whose gain on the k-th level over
    theta_max, about e^(2 d / sqrt(ratio)) with ratio = (hi - theta_max) /
    (theta_max - theta_(k-1)), carries the residual one e-fold below the
    tolerance, and at least _MIN_DEGREE; a warm block mostly converges after
    one filter.  Returns the k lowest Ritz values, or None when
    an iteration of p * (degree + 1) products does not pay against a dense
    sample (_matrix_free_pays), with the block's Ritz vectors and the
    products spent.

    Raises:
        NumericalFailure: a non-finite product, a failed eigensolve, or no
            convergence within _MAX_ITERATIONS iterations.
    """
    p, products = block.shape[0], 0
    for _ in range(_MAX_ITERATIONS):
        image = apply(block)
        products += p
        projection = block @ image.T
        if not np.all(np.isfinite(projection)):
            raise NumericalFailure("filtered subspace met a non-finite product")
        try:
            theta, ritz = np.linalg.eigh(projection)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"Rayleigh-Ritz eigensolve failed: {exc}") from exc
        block, image = ritz.T @ block, ritz.T @ image
        residual = np.linalg.norm(image[:k] - theta[:k, None] * block[:k], axis=1).max()
        if residual <= _RESIDUAL_TOL:
            return theta[:k], block, products
        # a filter of degree d shrinks the residual about e^(2 d / sqrt(ratio))
        # times; aim one e-fold past the tolerance
        spread, degree = float(theta[-1] - theta[k - 1]), math.inf
        if spread > 0:
            ratio = max(hi - theta[-1], 0.0) / spread
            degree = max(_MIN_DEGREE, (math.log(residual / _RESIDUAL_TOL) + 1) / 2 * math.sqrt(ratio))
        if not _matrix_free_pays(n, p * (degree + 1)):
            return None, block, products
        degree = math.ceil(degree)
        # the degree-th vector of the filter that damps [theta_max, hi],
        # scaled to about 1 at theta_0; the generator is dropped with it
        centre, radius = (hi + theta[-1]) / 2, (hi - theta[-1]) / 2
        block = _orthonormal_rows(next(islice(
            _chebyshev_vectors(apply, block, centre, radius, radius / (theta[0] - centre)),
            degree - 1, None)))
        products += p * degree
    raise NumericalFailure(f"filtered subspace did not converge within {_MAX_ITERATIONS} iterations")


def gap_profile(
    problem: DiagonalOperator, g: float, points: int = 101, k: int = 3
) -> GapTrace:
    """Sample the k lowest energies of H(s) at field strength g on a uniform s grid.

    min_gap is the smallest E1 - E0 over sampled s < 1 (None for k = 1);
    at s = 1 a degenerate ground manifold closes the gap by construction,
    which is why that endpoint is excluded.

    The endpoints are closed forms: at s = 0 the levels g * (2j - n) with
    multiplicity C(n, j), at s = 1 the sorted diagonal.  Interior samples
    come from one block carried from each sample to the next
    (_filtered_lowest).  Its size p is the number of diagonal entries at or
    below the k-th smallest, which bounds the multiplicity of every level
    among the k lowest near s = 1, plus _GUARD; the first block is the
    mixer ground state plus p - 1 seeded random vectors.  A sample whose
    next filtered iteration, p * (d + 1) products for a filter of degree
    d, costs more than a dense solve (_matrix_free_pays) is a dense solve,
    and a profile whose cheapest iteration cannot pay builds no block.
    Dense samples never feed the block, so they are collected during the
    walk and solved after it, in s order, as stacks of up to
    _stack_size(dim) matrices, one lowest_eigenvalues call each.
    products counts the products of one state by H(s) spent on filtered
    samples, those that ended dense included.

    Raises:
        NumericalFailure: a non-finite product or level, a failed dense
            solve, or a filtered sample that did not converge.
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
    size = min(int(np.count_nonzero(problem.as_array <= rows[-1, -1])) + _GUARD, problem.dim)
    block, products = None, 0
    if points > 2 and _matrix_free_pays(n, size * (_MIN_DEGREE + 1)):
        noise = np.random.default_rng(_NOISE_SEED).standard_normal((size - 1, problem.dim))
        block = _orthonormal_rows(np.vstack([initial_state(n).real, noise]))
    e_max = float(problem.max_energy())
    dense, chunk = [], _stack_size(problem.dim)
    for i in range(1, points - 1):
        s, found = s_values[i], None
        if block is not None:
            apply = partial(_apply_interpolated, s, g, problem)
            hi = s * e_max + (1 - s) * g * n
            found, block, spent = _filtered_lowest(apply, block, k, hi, n)
            products += spent
        if found is None:
            dense.append(i)
        else:
            rows[i] = found
    for start in range(0, len(dense), chunk):
        at = dense[start:start + chunk]
        rows[at] = lowest_eigenvalues(interpolated_hamiltonian(s_values[at], g, problem), k)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise NumericalFailure(f"spectrum is not finite at s = {s_values[np.argmin(finite)]:g}")
    min_gap = None
    if k >= 2:
        before_end = s_values < 1.0
        min_gap = float(np.min(rows[before_end, 1] - rows[before_end, 0]))
    return GapTrace(s_values, rows, min_gap, products)
