"""Problem operators for the compiled equation systems, and the interpolated H(s).

Each simplified equation contributes a penalty that vanishes exactly on
its solutions.  Squaring the residual is the default; when the square
would exceed quadratic order and the residual contains a two-variable
product A*B, the penalty

    A*B + (2A + 2B - 1)*S + 2*S^2        with S = residual - A*B

is used instead.  Over binary variables it equals
2 * (1/2 * (A + B - 1/2) + S)^2 - 1/8, so it is nonnegative on integer S
and vanishes exactly where A*B + S does, while cutting the top monomial
degree by one; integer residuals give integer penalties.  S keeps whatever
is left of A*B's own coefficient (c_AB - 1, which is -2 when the product
enters with -1).  With R = A*B + S and idempotent variables the same
polynomial is 2*R^2 + (2A + 2B - 1 - 4*A*B)*R, and that is how it is
computed: the square R^2, which decides whether to pair at all, is reused,
and pairing costs one more pass over R's terms.

Penalties are built only by assemble_problem, on the system's monomial
masks, where a product of monomials is the OR of their masks and a mask
is its basis index in QubitMap(system.variables): assemble_problem adds
every equation's penalty into one {mask: coefficient} dict and returns
it as a mask-backed Poly, whose terms are built only if a caller reads
them.
polynomial_to_diagonal takes that dict as it is under the map
assemble_problem returned (any other Poly, or another map, is read into
masks) and evaluates it on all 2^n basis states with a subset-sum (zeta)
transform: each coefficient is placed at its mask, and n in-place passes
add each entry into its partner with one more bit set, O(n * 2^n)
whatever the number of terms.

The mixer is the uniform transverse field g * sum_i X_i.  Its ground
state, the start of every schedule, and its levels at s = 0 are closed
forms in engine (initial_state, gap_profile).  As an operator it is built
here two ways: interpolated_hamiltonian(s, g, problem) builds H(s) = (1 -
s) * g * sum_i X_i + s * problem as dense matrices, the (m, dim, dim)
stack of a 1-D array of m values of s, and _FlipSum, the one matrix-free
kernel, applies factor * sum_i X_i to a real vector or a stack of them:
the qubits are cut into the fewest blocks of at most _FLIP_BLOCK
(_flip_blocks), and each block is one product with its small 0/1
flip-sum matrix scaled by factor.  The engine builds one per Chebyshev
step or filter (factor = 2 * a / radius), hands it its buffers' block
views once, and adds the rest of H(s) v itself; a complex state is the
stack of its real and imaginary parts.  _apply_flip_sum is one unscaled
product, the flip images the engine's Rayleigh-Ritz steps keep.

Energies are exact int64 integers; float views are derived, so ground
manifolds are identified by exact comparison, never by tolerance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .compiler import EquationSystem
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptySystem,
    InconsistentMap,
    UnmappedVariable,
)
from .pseudobool import Poly, VarId, _poly_to_masks, _variable_bits

_CAP_ENV = "ADIAFACT_MAX_QUBITS"
_DEFAULT_CAP = 14

PAIRINGS = ("last", "first", "none")


def qubit_cap() -> int:
    """Densest register this build will materialize (override via ADIAFACT_MAX_QUBITS)."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return _DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{_CAP_ENV} must be positive, got {cap}")
    return cap


def _check_dim(n: int) -> None:
    cap = qubit_cap()
    if n > cap:
        raise DimensionTooLarge(f"{n} qubits exceed the cap of {cap} (2^{n} amplitudes)")


def _check_field(g: float) -> None:
    if not g > 0:
        raise ValueError(f"field strength must be positive, got {g}")
    if not math.isfinite(g):
        raise ValueError(f"field strength must be finite, got {g}")


@dataclass(frozen=True)
class QubitMap:
    """Assigns each free variable a qubit; variables[0] is the most significant bit.

    Sorted variable order is p interiors ascending, then q interiors,
    then carries by (source column, target column).
    """

    variables: tuple[VarId, ...]

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise InconsistentMap("duplicate variables in qubit map")
        if tuple(sorted(self.variables)) != self.variables:
            raise InconsistentMap("qubit map must list variables in sorted order")

    @property
    def n(self) -> int:
        return len(self.variables)

    def assignment_of(self, index: int) -> dict:
        if not 0 <= index < (1 << self.n):
            raise ValueError(f"index {index} outside 0..{(1 << self.n) - 1}")
        return {var: int(bool(index & bit)) for var, bit in _variable_bits(self.variables).items()}


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """2^n exact integer energies; equality is identity, never array-wise."""

    n: int
    numerators: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.numerators)
        if values.shape != (1 << self.n,):
            raise DimensionMismatch(
                f"{values.size} energies for {self.n} qubits (need {1 << self.n})"
            )
        if not (np.issubdtype(values.dtype, np.integer) and np.can_cast(values.dtype, np.int64)):
            raise ValueError(f"energies must be integers that fit int64, got {values.dtype}")
        values = values.astype(np.int64, copy=False)
        values.setflags(write=False)
        object.__setattr__(self, "numerators", values)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def as_array(self) -> np.ndarray:
        values = self.numerators.astype(np.float64)
        values.setflags(write=False)
        return values

    def min_energy(self) -> int:
        return int(self.numerators.min())

    def max_energy(self) -> int:
        return int(self.numerators.max())

    def ground_indices(self) -> tuple[int, ...]:
        floor = self.numerators.min()
        return tuple(np.flatnonzero(self.numerators == floor).tolist())


def _square(terms: list) -> dict:
    """R^2 as mask -> coefficient for R's (mask, coefficient) terms; zeros kept.

    c_i^2 * m_i for each term and 2 * c_i * c_j * (m_i | m_j) for each
    pair i < j.
    """
    acc: dict = {}
    for i, (mono, coeff) in enumerate(terms):
        acc[mono] = acc.get(mono, 0) + coeff * coeff
        twice = 2 * coeff
        for other, c in terms[i + 1 :]:
            union = mono | other
            acc[union] = acc.get(union, 0) + twice * c
    return acc


def _paired_product(terms: list, pairing: str) -> int:
    """Mask of the product pairing picks ("last" or "first") in Poly's order, or 0."""
    products = [mono for mono, _ in terms if mono.bit_count() == 2]
    return (min if pairing == "last" else max)(products, default=0)


def _add_paired(acc: dict, terms: list, square: dict, product: int) -> None:
    """Add A*B + (2A + 2B - 1)*S + 2*S^2 into acc, computed as 2R^2 + (2A + 2B - 1 - 4AB)*R.

    square is R^2 (from _square), so pairing costs one more pass over R's terms.
    """
    a = product & -product
    for mono, coeff in square.items():
        acc[mono] = acc.get(mono, 0) + 2 * coeff
    factor = ((a, 2), (product ^ a, 2), (0, -1), (product, -4))
    for mono, coeff in terms:
        for f, k in factor:
            union = f | mono
            acc[union] = acc.get(union, 0) + k * coeff


def _add_penalty(acc: dict, terms: dict, pairing: str) -> None:
    """Add the penalty of the residual with these mask terms into acc (zeros allowed).

    The paired penalty of the module docstring when pairing is "last" or
    "first", the square has a nonzero monomial above quadratic order and
    R has a two-variable product; the square R^2 otherwise.
    """
    terms = list(terms.items())
    square = _square(terms)
    if pairing != "none" and any(c and m.bit_count() > 2 for m, c in square.items()):
        product = _paired_product(terms, pairing)
        if product:
            _add_paired(acc, terms, square, product)
            return
    for mono, coeff in square.items():
        acc[mono] = acc.get(mono, 0) + coeff


def assemble_problem(
    system: EquationSystem, pairing: str = "last"
) -> tuple[QubitMap, Poly]:
    """Sum the per-equation penalties into the problem polynomial.

    pairing: "last" (default) and "first" choose the paired product for
    equations whose squared penalty would exceed quadratic order; "none"
    always squares, which keeps the penalty symmetric under the p/q swap
    at the cost of higher-degree monomials.  Every penalty is added mask
    by mask into one accumulator, which the returned polynomial wraps
    under system.variables: its terms are built only when it is read, and
    polynomial_to_diagonal under the returned map takes the masks as they are.

    Returns:
        (qubit map over the free variables, penalty polynomial).  The
        polynomial is nonnegative on all assignments and vanishes exactly
        on the system's solutions.

    Raises:
        EmptySystem: the system has no free variables left.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"pairing must be one of {PAIRINGS}, got {pairing!r}")
    qmap = QubitMap(system.variables)
    if qmap.n == 0:
        raise EmptySystem(f"{system.target}: nothing left to solve")
    acc: dict = {}
    for eq in system.equations:
        _add_penalty(acc, eq.terms, pairing)
    return qmap, Poly._from_masks(acc, system.variables)


def polynomial_to_diagonal(poly: Poly, qmap: QubitMap) -> DiagonalOperator:
    """Evaluate the polynomial on every computational basis state.

    Raises:
        UnmappedVariable: the polynomial mentions a variable outside the map.
        DimensionTooLarge: the map exceeds the qubit cap.
        ValueError: a coefficient is not an int, or too large for an int64 diagonal.
    """
    try:
        terms = _poly_to_masks(poly, qmap.variables)
    except KeyError:
        unmapped = set(poly.variables()) - set(qmap.variables)
        raise UnmappedVariable(f"no qubit for {sorted(unmapped)}") from None
    _check_dim(qmap.n)
    return DiagonalOperator(qmap.n, _basis_values(terms, qmap.n))


def _basis_values(terms: dict, n: int) -> np.ndarray:
    """The {mask: coefficient} polynomial at every index of an n-qubit basis, exactly.

    A subset-sum (zeta) transform: each coefficient is placed at its mask,
    then pass i adds every entry with bit i clear into its partner with
    bit i set, so entry x ends as the sum over the monomials whose masks
    lie inside x.  n passes over 2^n entries.

    Raises ValueError when a coefficient is not an int or the values could
    overflow int64.  Every partial sum is a subset sum of the coefficients,
    so bounding the sum of their magnitudes bounds every intermediate.
    """
    stray = next((coeff for coeff in terms.values() if not isinstance(coeff, int)), None)
    if stray is not None:
        raise ValueError(f"polynomial coefficient {stray!r} is not an integer")
    if sum(abs(coeff) for coeff in terms.values()) >= 1 << 63:
        raise ValueError("polynomial coefficients too large for an int64 diagonal")
    values = np.zeros(1 << n, dtype=np.int64)
    values[list(terms)] = list(terms.values())
    for i in range(n):
        view = values.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return values


def direct_cost_diagonal(target: int, w_x: int, w_y: int) -> DiagonalOperator:
    """Cost (target - x*y)^2 over all w_x- and w_y-bit integers.

    Basis index is (x << w_y) | y.  This is the comparison scheme whose
    spectral range grows with target^2, unlike the table compilation.
    Raises ValueError when the largest cost could overflow int64.
    """
    if target < 1:
        raise ValueError(f"target must be positive, got {target}")
    if w_x < 1 or w_y < 1:
        raise ValueError(f"widths must be positive, got ({w_x}, {w_y})")
    n = w_x + w_y
    _check_dim(n)
    if max(target, ((1 << w_x) - 1) * ((1 << w_y) - 1) - target) ** 2 >= 1 << 63:
        raise ValueError("direct costs too large for an int64 diagonal")
    x = np.arange(1 << w_x, dtype=np.int64)
    y = np.arange(1 << w_y, dtype=np.int64)
    costs = (target - np.outer(x, y)) ** 2
    return DiagonalOperator(n, costs.reshape(-1))


@lru_cache(maxsize=None)
def _bit_flip_entries(n: int) -> np.ndarray:
    """Flat indices of the 2^n x 2^n entries whose two states differ in exactly one bit."""
    rows = np.arange(1 << n)[:, None]
    flat = ((rows << n) | (rows ^ (1 << np.arange(n)))).ravel()
    flat.setflags(write=False)
    return flat


# Largest block of qubits whose flips one matrix product applies, so the flip-sum
# matrices are at most 2^_FLIP_BLOCK square.  A register is cut into the fewest
# blocks of at most this size, as nearly equal as they go (_flip_blocks).
_FLIP_BLOCK = 5


@lru_cache(maxsize=None)
def _flip_sum_matrix(bits: int) -> np.ndarray:
    """The 2^bits x 2^bits matrix of sum_i X_i over bits qubits.

    It holds 1 where two states differ in exactly one bit and 0 elsewhere.
    """
    dim = 1 << bits
    flips = np.zeros(dim * dim)
    flips[_bit_flip_entries(bits)] = 1.0
    matrix = flips.reshape(dim, dim)
    matrix.setflags(write=False)
    return matrix


def interpolated_hamiltonian(s, g: float, problem: DiagonalOperator) -> np.ndarray:
    """(1 - s) * g * sum_i X_i + s * problem, as dense real symmetric matrices.

    A 1-D array of m values of s gives the (m, dim, dim) stack of their
    matrices in order, the form the dense solvers take (engine.propagate_step,
    engine.lowest_eigenvalues).  One value gives one (dim, dim) matrix, for
    inspection.  Every s, g and the qubit cap are checked before anything
    is allocated.
    """
    values = np.asarray(s, dtype=np.float64)
    if values.ndim > 1:
        raise ValueError(f"interpolation parameters must be one value or a 1-D array, "
                         f"got shape {values.shape}")
    outside = ~((0.0 <= values) & (values <= 1.0))
    if outside.any():
        raise ValueError(f"interpolation parameter must lie in [0, 1], "
                         f"got {values.flat[np.argmax(outside)]}")
    _check_field(g)
    _check_dim(problem.n)
    dim = problem.dim
    stack = values.reshape(-1, 1)
    out = np.zeros((stack.shape[0], dim * dim))
    out[:, _bit_flip_entries(problem.n)] = (1.0 - stack) * g
    out[:, :: dim + 1] = stack * problem.as_array
    return out.reshape(values.shape + (dim, dim))


def _flip_blocks(n: int) -> list[int]:
    """The qubit counts of the flip-sum blocks of an n-qubit register, lowest bits first.

    The fewest blocks of at most _FLIP_BLOCK qubits, as nearly equal as
    they go, a smaller one on top and the larger ones right below it: 5 + 4
    at 9 qubits, 5 + 5 at 10, 4 + 4 + 3 at 11, 4 + 4 + 4 at 12, 4 + 5 + 4
    at 13, 5 + 5 + 4 at 14, 5 + 5 + 5 at 15, 4 + 4 + 4 + 4 at 16.  Chosen by
    timing each order of one product on 5 rows (2 cores, numpy 2.4): at 13
    qubits 4 + 5 + 4 took 143-147 us, 5 + 4 + 4 157-163 us; at 14 qubits
    5 + 5 + 4 took 344-350 us, the other orders 375-394 us.
    """
    count = -(-n // _FLIP_BLOCK)
    size, larger = divmod(n, count)
    return [size] * (count - 1 - larger) + [size + 1] * larger + [size]


class _FlipSum:
    """factor * sum_i X_i on real states, through block views of each buffer made once.

    scratch is a C-contiguous float64 array of the shape of the states,
    one of 2^n amplitudes or a stack of them; views(array) gives an array
    of that shape with its view for each block (_flip_blocks), and
    apply(source, target), both from views(), writes factor * sum_i X_i @
    source into target, which must be C-contiguous, and overwrites
    scratch.  With a state viewed as rows over the lowest block's 2^b
    columns, that block's flips are one product V @ F into target; viewed
    as (rows above, 2^b, 2^below), each higher block's flips are one
    stacked product F @ V into scratch, added into target.  F is the
    block's flip-sum matrix (_flip_sum_matrix) scaled once by factor, so a
    product costs O(2^n * 2^b) per block and state.  The caller has checked
    the qubit cap.
    """

    __slots__ = ("scratch", "_low", "_upper", "_shapes", "_parts")

    def __init__(self, factor: float, scratch: np.ndarray):
        low, *upper = _flip_blocks(scratch.shape[-1].bit_length() - 1)
        self.scratch = scratch
        self._low = _flip_sum_matrix(low) * factor
        self._upper, self._shapes, below = [], [(-1, 1 << low)], low
        for bits in upper:
            self._upper.append(_flip_sum_matrix(bits) * factor)
            self._shapes.append((-1, 1 << bits, 1 << below))
            below += bits
        self._parts = self.views(scratch)[2:]

    def views(self, array: np.ndarray) -> list[np.ndarray]:
        """array, then its view for each block, lowest first."""
        return [array] + [array.reshape(shape) for shape in self._shapes]

    def apply(self, source: list[np.ndarray], target: list[np.ndarray]) -> None:
        """target[0] = factor * sum_i X_i @ source[0], for views() of both."""
        np.matmul(source[1], self._low, out=target[1])
        for matrix, block, part in zip(self._upper, source[2:], self._parts):
            np.matmul(matrix, block, out=part)
            target[0] += self.scratch


def _apply_flip_sum(v: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """out = sum_i X_i @ v for every state of v, one product of the _FlipSum kernel.

    v, out and scratch are C-contiguous float64 arrays of one shape; out
    receives the result and scratch is overwritten.
    """
    flips = _FlipSum(1.0, scratch)
    flips.apply(flips.views(v), flips.views(out))
