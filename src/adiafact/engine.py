"""Discretized adiabatic evolution and spectra.

H(s) = (1 - s) * g * sum_i X_i + s * Hp is interpolated linearly in s, with
g from the schedule, and the M step unitaries U_m = exp(-i * H(m/M) * T/M)
are applied in order to the mixer ground state.  Natural units throughout
(hbar = 1): T and the inverse of g share one time scale.

Each step is propagated one of two ways, both exact to roundoff:

- dense: the eigensystem of the 2^n x 2^n H(s), O(8^n).  Both dense
  solvers (propagate_step, lowest_eigenvalues) take (m, 2^n, 2^n) stacks
  only: a run of consecutive dense steps is one stack from
  interpolated_hamiltonian over an array of s, decomposed in one eigh
  call and applied first to last; a stack holds at most _STACK_BYTES of
  matrices and at least one, so memory does not grow with M;
- matrix-free: a Chebyshev expansion (Tal-Ezer & Kosloff 1984) over the
  spectral interval [s * E_min - (1 - s) * g * n, s * E_max + (1 - s) * g * n]
  of H(s), one product H(s) @ v per Bessel coefficient J_k(r * tau) above
  roundoff, r the half-width.  H(s) is real, so the state's real and
  imaginary parts run through the recurrence as the two rows of one real
  stack; (-i)^k is a sign and, for odd k, a quarter turn of that pair,
  applied once per step to the sum of the odd terms.  The recurrence
  (_chebyshev_vectors), which the spectral filters run too, is the plain
  T_(k+1) = 2 X T_k - T_(k-1) in X = (H - centre) / radius on H = a *
  sum_i X_i + diag(b), a = (1 - s) * g and b = s * E: the flip-sum kernel
  (hamiltonian._FlipSum) gets its block matrices scaled once by 2 * a /
  radius and the block views of three rotating buffers, so a vector is
  its matrix products plus four passes.

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
the whole block in one product call.  The filter is the steps'
recurrence, kept finite at any degree by exact power-of-two rescales.
Each Rayleigh-Ritz step also yields the block's flip images sum_i X_i v,
so H(s) v = (1 - s) * g * sum_i X_i v + s * E * v is known at every s
for the vectors already seen: a sample starts from one Rayleigh-Ritz
step over the k converged Ritz vectors of the last _WINDOW filtered
samples plus the carried block (_window_start), which costs no product
and hands off its Ritz values and flip images.  The sample filters
first; its one Rayleigh-Ritz step with real products, after the filter,
certifies every level.  An iteration of degree d costs p * (d + 1)
products, priced before a sample's first product from the last degree;
a sample where that does not pay, which includes every register of up to
6 qubits, is a dense eigenvalue solve.  Dense samples never feed the
block: they are collected during the walk along s and solved after it as
stacks under the same _STACK_BYTES bound, one eigvalsh call
(lowest_eigenvalues) each.  Sizes are desk scale on purpose: n is capped
(see hamiltonian.qubit_cap).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import reduce
from itertools import count, islice
from typing import IO, Optional

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, NumericalFailure
from .hamiltonian import (
    DiagonalOperator,
    _apply_flip_sum,
    _FlipSum,
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
# gap_profile warm-starts each filtered sample from the k Ritz vectors of the
# last _WINDOW filtered samples (_window_start), whose span drops directions of
# Gram eigenvalue at most _SPAN_TOL^2 plus the Gram matrix's roundoff (_EPS
# relative).  51-point k = 2 profiles of 121 took 19605, 16940, 12350, 9630 and
# 8760 products at windows of 1 (the carried block alone), 2, 4, 6 and 8
# samples; in two sets of 12 alternating rounds (2 cores, 2 OpenBLAS threads,
# numpy 2.4) windows of 4, 6 and 8 took medians of 118, 109 and 121 ms, then
# 115, 99 and 99 ms, so 6 keeps the smaller window at the same speed.  A span
# tolerance of 1e-6 took 10930 products, one of 1e-10 the same 9630.
_WINDOW = 6
_SPAN_TOL = 1e-8
_EPS = float(np.finfo(np.float64).eps)
# A filter (_chebyshev_vectors with a floor) rescales its live vectors after at
# most e^_GROWTH of growth, far below float64's e^709 and far above roundoff.
_GROWTH = 256.0
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
        object.__setattr__(self, "checkpoints", tuple([int(c) for c in self.checkpoints]))

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
    """Mixer ground state: the product of n one-qubit ground states (|0> - |1>) / sqrt(2).

    Amplitude (-1)^popcount(b) / 2^(n/2) on basis state b.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got {n}")
    _check_dim(n)
    # the tensor product as an outer product: np.kron took 2 to 5 times longer up to 10 qubits
    # (numpy 2.4, 2 cores)
    signs = reduce(np.multiply.outer, [np.array([1.0, -1.0])] * n).ravel()
    return (signs / np.sqrt(1 << n)).astype(np.complex128)


def populations(state: np.ndarray) -> np.ndarray:
    return np.abs(state) ** 2


def _check_stack(hamiltonian: np.ndarray) -> int:
    """Both dense solvers' input checks, a finite (m, dim, dim) stack; returns dim."""
    if hamiltonian.ndim != 3 or hamiltonian.shape[1] != hamiltonian.shape[2]:
        raise DimensionMismatch(
            f"Hamiltonian shape {hamiltonian.shape} is not a stack of square matrices"
        )
    if not np.all(np.isfinite(hamiltonian)):
        raise NumericalFailure("Hamiltonian contains non-finite entries")
    return hamiltonian.shape[-1]


def propagate_step(state: np.ndarray, hamiltonian: np.ndarray, tau: float) -> np.ndarray:
    """Apply exp(-i * H_j * tau) for each H_j of an (m, dim, dim) stack, first to last.

    Each exponential is synthesized from the eigendecomposition of its
    (real symmetric or Hermitian) matrix, and the whole stack is
    decomposed in one call.  Returns the (m, dim) array of the states
    after each step; a one-element stack is one step.

    Raises:
        DimensionMismatch: the Hamiltonian is not a stack of square
            matrices, or the state's size differs from theirs.
        NumericalFailure: non-finite entries or a failed eigensolve.
    """
    dim = _check_stack(hamiltonian)
    if state.shape != (dim,):
        raise DimensionMismatch(
            f"state of length {state.shape} against matrix {hamiltonian.shape}"
        )
    try:
        energies, basis = np.linalg.eigh(hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    phases = np.exp(-1j * energies * tau)
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


def _chebyshev_vectors(a, b, rows, centre, radius, floor=None):
    """Yield y_1, y_2, ... of the Chebyshev recurrence in X = (H - centre) / radius.

    H = a * sum_i X_i + diag(b), b a float64 array of 2^n entries.  y_0 is
    rows, y_1 = X y_0 and y_(k+1) = 2 X y_k - y_(k-1), so y_k = T_k(X) y_0.
    A filter passes floor, a lower bound on the spectrum below the
    interval, and uses only the direction of its last vector: T_k grows
    at most e^acosh|x| times a vector, x = (floor - centre) / radius, so
    every _GROWTH / acosh|x| vectors both live vectors are scaled by one
    power of two that brings the newer one's largest entry below 1.  y_k
    is then 2^-j T_k(X) y_0, exact in direction and finite at any degree.

    Each vector costs one product call (hamiltonian._FlipSum, its matrices
    scaled once by 2 * a / radius), made when it is asked for, plus four
    passes with d = 2 * (b - centre) / radius, made once: y_(k+1) is the
    product plus d * y_k minus y_(k-1) (y_1 is half of the first two).
    Three buffers rotate through y_(k-1), y_k and y_(k+1), so nothing is
    allocated per vector.  rows is never written; a yielded vector stays
    as it is while the next two are asked for (a rescale scales it with
    the next one), and the third after it overwrites it.
    """
    flips = _FlipSum(2 * a / radius, np.empty(rows.shape))
    # d repeated for every row: a broadcast product took 1.5 times longer at 10 qubits
    diagonal = np.subtract(b, centre, out=np.empty(rows.shape))
    diagonal *= 2 / radius
    buffers = [flips.views(np.empty(rows.shape)) for _ in range(3)]
    growth = 0.0 if floor is None else math.acosh(max(1.0, (centre - floor) / radius))
    period = max(1, int(_GROWTH / growth)) if growth > 0 else 0
    previous, current, scratch = None, flips.views(rows), flips.scratch
    for degree in count(1):
        following = buffers[degree % 3]
        flips.apply(current, following)
        vector = following[0]
        vector += np.multiply(current[0], diagonal, out=scratch)
        if previous is None:
            vector *= 0.5
        else:
            vector -= previous[0]
            if period and degree % period == 0:
                # an infinite or NaN entry leaves the exponent at 0: no rescale
                shift = math.frexp(float(np.abs(vector, out=scratch).max()))[1]
                if shift > 0:
                    np.ldexp(vector, -shift, out=vector)
                    np.ldexp(current[0], -shift, out=current[0])
        previous, current = current, following
        yield vector


def _chebyshev_step(a, b, state, tau, lo, hi, coeffs) -> np.ndarray:
    """exp(-i * H * tau) @ state by a Chebyshev expansion.

    H = a * sum_i X_i + diag(b) (b a float64 array) is real symmetric with
    spectrum in [lo, hi], and coeffs are _bessel_coefficients(r * tau).
    With H = c + r * X (c, r the
    interval's centre and half-width), exp(-i * H * tau) is
    exp(-i * c * tau) * sum_k a_k * J_k(r * tau) * T_k(X), with a_0 = 1 and
    a_k = 2 * (-i)^k.  X is real, so the state's real and imaginary parts
    run through the recurrence (_chebyshev_vectors, without a floor) as
    the two rows of one real (2, 2^n) stack, one product call per term and
    none past the last coefficient.  (-i)^k is (-1)^(k // 2), times -i for
    odd k: each vector, scaled by +-2 * J_k, is added into the even or the
    odd sum, and -i takes the odd sum's pair (x, y) to (y, -x) once before
    the phase exp(-i * c * tau).

    Raises:
        NumericalFailure: the propagated state is not finite.
    """
    centre, radius = (hi + lo) / 2, (hi - lo) / 2
    weights = 2 * coeffs * np.array([1.0, 1.0, -1.0, -1.0])[np.arange(coeffs.size) % 4]
    pair = np.stack([state.real, state.imag])
    sums = [coeffs[0] * pair, np.zeros_like(pair)]
    term = np.empty_like(pair)
    # the generator, and its buffers, go when the loop ends
    for k, (weight, vector) in enumerate(
            zip(weights[1:].tolist(), _chebyshev_vectors(a, b, pair, centre, radius)), start=1):
        sums[k % 2] += np.multiply(vector, weight, out=term)
    even, odd = sums
    even[0] += odd[1]
    even[1] -= odd[0]
    result = np.empty(state.shape, dtype=np.complex128)
    result.real, result.imag = even
    result *= np.exp(-1j * centre * tau)
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
            state = _chebyshev_step((1 - s) * g, s * problem.as_array, state, tau, lo, hi, coeffs)
            products += coeffs.size - 1
            if step in marks:
                points.append(TracePoint(step, s, populations(state)))
    drift = abs(float(np.linalg.norm(state)) - 1.0)
    if not drift <= 1e-6:
        raise NumericalFailure(f"state norm drifted by {drift:.3e}")
    return EvolutionTrace(problem.n, schedule, tuple(points), state, drift, products)


def lowest_eigenvalues(hamiltonian: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues of each matrix of an (m, dim, dim) stack.

    An (m, k) array, ascending within a row, from one call.

    Raises:
        DimensionMismatch: the Hamiltonian is not a stack of square matrices.
        IndexOutOfRange: k outside 1..dim.
        NumericalFailure: non-finite entries or a failed eigensolve.
    """
    dim = _check_stack(hamiltonian)
    if not 1 <= k <= dim:
        raise IndexOutOfRange(f"k={k} outside 1..{dim}")
    try:
        energies = np.linalg.eigvalsh(hamiltonian)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolve failed: {exc}") from exc
    return energies[:, :k]


def _orthonormal_rows(vectors: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the rows' span, as the C-contiguous rows of a (p, dim) array."""
    return np.ascontiguousarray(np.linalg.qr(vectors.T)[0].T)


def _window_start(a, b, window, pair) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """The lowest Ritz pairs of H = a * sum_i X_i + diag(b) over a window's span plus a block's.

    window and pair are (2, m, dim) stacks of real rows [0] and their
    images sum_i X_i [1], so H @ v = a * sum_i X_i v + b * v costs no
    product.  pair's p rows are orthonormal; window's need not be.  Twice,
    the window's rows are projected off the block and whitened through
    the eigensystem of their Gram matrix, dropping each direction whose
    Gram eigenvalue is at or below _SPAN_TOL^2, where its image would be
    mostly roundoff, plus the Gram matrix's own roundoff, m * eps times
    its largest eigenvalue; the second pass restores orthonormality to
    roundoff.
    Only the rows go through these steps: coeffs records each basis row as
    a combination of the block's and the window's rows, and takes the flip
    images of the basis and of the Ritz vectors from theirs.  Returns the p
    lowest Ritz vectors over the block plus what is left of the window, as
    orthonormal rows, and the hand-off _filtered_lowest takes: their Ritz
    values and flip images.

    Raises:
        NumericalFailure: a failed eigensolve.
    """
    p, m = pair.shape[1], window.shape[1]
    rows, coeffs = window[0], np.eye(m, p + m, p)
    try:
        for _ in range(2):
            overlap = rows @ pair[0].T
            rows = rows - overlap @ pair[0]
            coeffs[:, :p] -= overlap
            values, vectors = np.linalg.eigh(rows @ rows.T)
            keep = values > _SPAN_TOL**2 + values.size * _EPS * values.max(initial=0.0)
            turn = (vectors[:, keep] / np.sqrt(values[keep])).T
            rows, coeffs = turn @ rows, turn @ coeffs
        basis = np.vstack([pair[0], rows])
        coeffs = np.vstack([np.eye(p, p + m), coeffs])
        # basis @ (a * sum_i X_i basis + b * basis).T, the flip images taken through coeffs
        flips = np.hstack([basis @ pair[1].T, basis @ window[1].T])
        theta, ritz = np.linalg.eigh(a * (flips @ coeffs.T) + (basis * b) @ basis.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Rayleigh-Ritz eigensolve failed: {exc}") from exc
    ritz = ritz[:, :p].T
    coeffs = ritz @ coeffs
    images = coeffs[:, :p] @ pair[1]
    images += coeffs[:, p:] @ window[1]
    return ritz @ basis, (theta[:p], images)


def _rayleigh_ritz(a, b, block, scratch) -> tuple[np.ndarray, np.ndarray]:
    """A Rayleigh-Ritz step of H = a * sum_i X_i + diag(b) on the block's orthonormal rows.

    One product of the whole block; scratch, of its shape, is overwritten.
    Returns the ascending Ritz values and the (2, p, dim) stack of the Ritz
    vectors over their images sum_i X_i.

    Raises:
        NumericalFailure: a non-finite product or a failed eigensolve.
    """
    pair = np.empty((2,) + block.shape)
    pair[0] = block
    _apply_flip_sum(pair[0], pair[1], scratch)
    image = np.multiply(block, b, out=scratch)
    image += a * pair[1]
    projection = block @ image.T
    if not np.all(np.isfinite(projection)):
        raise NumericalFailure("filtered subspace met a non-finite product")
    try:
        theta, ritz = np.linalg.eigh(projection)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Rayleigh-Ritz eigensolve failed: {exc}") from exc
    return theta, ritz.T @ pair


def _filtered_lowest(
    a, b, block, k, hi, n, handoff=None
) -> tuple[Optional[np.ndarray], np.ndarray, int, float]:
    """The k lowest eigenvalues of H = a * sum_i X_i + diag(b) by Chebyshev-filtered subspace iteration.

    block holds p >= k orthonormal rows and hi bounds the spectrum of H
    from above; handoff is None or the Ritz values and flip images of
    block's rows from a product-free Rayleigh-Ritz step (_window_start).
    An iteration is, unless the k lowest Ritz pairs have residuals |H x -
    theta x| of at most _RESIDUAL_TOL, a Chebyshev filter that damps
    [theta_max, hi] and QR, then a Rayleigh-Ritz step with one product of
    the whole block (_rayleigh_ritz).  A cold start begins with such a
    step; a handed-off one filters first, and goes through one step even
    when its residuals already pass, so real products certify every
    level.  The degree is the one whose gain on the k-th level over
    theta_max, about e^(2 d / sqrt(ratio)) with ratio = (hi - theta_max)
    / (theta_max - theta_(k-1)), carries the residual one e-fold below the
    tolerance, at most the one that grows theta_0 over theta_(k-1) e^18
    times, and at least _MIN_DEGREE.

    Returns (levels, pair, products, degree): the k lowest Ritz values,
    or None when an iteration of p * (degree + 1) products does not pay
    against a dense sample (_matrix_free_pays); the (2, p, dim) stack of
    the block's Ritz vectors and their images sum_i X_i; the products
    spent; and the degree of the last filter priced, _MIN_DEGREE when
    none was.

    Raises:
        NumericalFailure: a non-finite product, a failed eigensolve, or no
            convergence within _MAX_ITERATIONS iterations.
    """
    p, products, degree = block.shape[0], 0, _MIN_DEGREE
    # b's least entry less the mixer's widest reach bounds the spectrum from below
    floor, scratch = float(b.min()) - a * n, np.empty_like(block)
    # pair is None until a real Rayleigh-Ritz step has certified the Ritz pairs
    pair = None
    if handoff is None:
        theta, pair = _rayleigh_ritz(a, b, block, scratch)
        products += p
    else:
        theta, flips = handoff
    for _ in range(_MAX_ITERATIONS):
        if pair is not None:
            block, flips = pair
        residual = np.linalg.norm(a * flips[:k] + (b - theta[:k, None]) * block[:k], axis=1).max()
        if residual <= _RESIDUAL_TOL and pair is not None:
            return theta[:k], pair, products, degree
        if residual > _RESIDUAL_TOL:
            # a filter of degree d shrinks the residual about e^(2 d / sqrt(ratio))
            # times; aim one e-fold past the tolerance
            centre, radius = (hi + theta[-1]) / 2, (hi - theta[-1]) / 2
            spread, degree = float(theta[-1] - theta[k - 1]), math.inf
            if spread > 0:
                ratio = max(hi - theta[-1], 0.0) / spread
                degree = (math.log(residual / _RESIDUAL_TOL) + 1) / 2 * math.sqrt(ratio)
                if ratio > 0:
                    # T_d grows theta_0 over theta_(k-1) e^(d * lead) times, x = (centre - theta) / radius;
                    # past e^18 the other rows fall below roundoff and QR returns noise
                    x_0, x_k = 1 + (theta[-1] - theta[[0, k - 1]]) / radius
                    lead = math.acosh(x_0) - math.acosh(x_k)
                    if degree * lead > 18:
                        degree = 18 / lead
                degree = max(_MIN_DEGREE, degree)
            if not _matrix_free_pays(n, p * (degree + 1)):
                return None, np.stack([block, flips]) if pair is None else pair, products, degree
            # the ceil(degree)-th vector of the filter that damps [theta_max, hi];
            # the generator is dropped with it
            last = math.ceil(degree)
            block = _orthonormal_rows(next(islice(
                _chebyshev_vectors(a, b, block, centre, radius, floor), last - 1, None)))
            products += p * last
        theta, pair = _rayleigh_ritz(a, b, block, scratch)
        products += p
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
    (_filtered_lowest), on H(s) = a * sum_i X_i + diag(b) with a = (1 - s)
    * g and b = s * E made once per sample.  Its size p is the number of
    diagonal entries at or below the k-th smallest, which bounds the
    multiplicity of every level among the k lowest near s = 1, plus
    _GUARD; the first block is the mixer ground state plus p - 1 seeded
    random vectors.  From the second filtered sample on, the block is
    warm-started: the k converged Ritz vectors of each of the last
    _WINDOW filtered samples are kept with their images sum_i X_i v, and
    one Rayleigh-Ritz step of H(s) over their span plus the carried block
    (_window_start) costs no product, since H(s) v = a * sum_i X_i v + b *
    v; its p lowest Ritz vectors, with their Ritz values and flip images,
    start the filter, and the Rayleigh-Ritz step after it certifies every
    level with real products.  A sample is priced before its first
    product, at p * (d + 1) products for d the degree of
    the last filter priced (_MIN_DEGREE before any): when that costs more
    than a dense solve (_matrix_free_pays) the sample is a dense solve, as
    is a sample whose own next iteration cannot pay, and a profile whose
    cheapest iteration cannot pay builds no block.  Dense samples never
    feed the block, so they are collected during the walk and solved after
    it, in s order, as stacks of up to _stack_size(dim) matrices, one
    lowest_eigenvalues call each.  products counts the products of one
    state by H(s) spent on filtered samples, those that ended dense
    included.

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
    pair, handoff, window, filled, products, degree = None, None, None, 0, 0, _MIN_DEGREE
    if points > 2 and _matrix_free_pays(n, size * (degree + 1)):
        noise = np.random.default_rng(_NOISE_SEED).standard_normal((size - 1, problem.dim))
        block = _orthonormal_rows(np.vstack([initial_state(n).real, noise]))
        # a ring of the k Ritz vectors of the last _WINDOW filtered samples, the
        # carried block's included, over their flip images
        window = np.empty((2, _WINDOW * k, problem.dim))
    e_max = float(problem.max_energy())
    dense, chunk = [], _stack_size(problem.dim)
    for i in range(1, points - 1):
        s, found = s_values[i], None
        if window is not None and _matrix_free_pays(n, size * (degree + 1)):
            a, b = (1 - s) * g, s * problem.as_array
            hi = s * e_max + (1 - s) * g * n
            if pair is not None:
                slot = filled % _WINDOW * k
                window[:, slot:slot + k] = pair[:, :k]
                filled += 1
                block, handoff = _window_start(a, b, window[:, :min(filled, _WINDOW) * k], pair)
            found, pair, spent, degree = _filtered_lowest(a, b, block, k, hi, n, handoff)
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
