"""Problem and mixer operators for the compiled equation systems.

Each simplified equation contributes a penalty that vanishes exactly on
its solutions.  Squaring the residual is the default; when the square
would exceed quadratic order and the residual contains a two-variable
product A*B, the penalty

    A*B + (2A + 2B - 1)*S + 2*S^2        with S = residual - A*B

is used instead.  Over binary variables it equals
2 * (1/2 * (A + B - 1/2) + S)^2 - 1/8, so it is nonnegative on integer S
and vanishes exactly where A*B + S does, while cutting the top monomial
degree by one; integer residuals give integer penalties.  The mixer is
the uniform transverse field g * sum_i X_i, whose ground state is the
uniform-magnitude superposition used as the start of every schedule.

Energies are int64 numerators over one common scale; float views are derived,
so ground manifolds are identified by exact comparison, never by tolerance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Union

import numpy as np

from .compiler import ColumnEquation, EquationSystem
from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptySystem,
    InconsistentMap,
    NotApplicable,
    UnmappedVariable,
)
from .pseudobool import Poly, Rational, VarId

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

    @classmethod
    def from_system(cls, system: EquationSystem) -> "QubitMap":
        return cls(system.free_variables())

    @property
    def n(self) -> int:
        return len(self.variables)

    def index_of(self, assignment: Mapping[VarId, int]) -> int:
        index = 0
        for i, var in enumerate(self.variables):
            try:
                bit = assignment[var]
            except KeyError as exc:
                raise UnmappedVariable(f"assignment is missing {var}") from exc
            if bit:
                index |= 1 << (self.n - 1 - i)
        return index

    def assignment_of(self, index: int) -> dict:
        if not 0 <= index < (1 << self.n):
            raise ValueError(f"index {index} outside 0..{(1 << self.n) - 1}")
        return {
            var: (index >> (self.n - 1 - i)) & 1 for i, var in enumerate(self.variables)
        }


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """2^n exact energies numerators[i] / scale; equality is identity, never array-wise."""

    n: int
    numerators: np.ndarray
    scale: int = 1

    def __post_init__(self):
        values = np.asarray(self.numerators, dtype=np.int64)
        if values.shape != (1 << self.n,):
            raise DimensionMismatch(
                f"{values.size} energies for {self.n} qubits (need {1 << self.n})"
            )
        values.setflags(write=False)
        object.__setattr__(self, "numerators", values)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def _exact(self, numerator) -> Rational:
        return int(numerator) if self.scale == 1 else Fraction(int(numerator), self.scale)

    @cached_property
    def energies(self) -> tuple[Rational, ...]:
        return tuple(self._exact(v) for v in self.numerators.tolist())

    @cached_property
    def as_array(self) -> np.ndarray:
        values = self.numerators / self.scale
        values.setflags(write=False)
        return values

    def min_energy(self) -> Rational:
        return self._exact(self.numerators.min())

    def max_energy(self) -> Rational:
        return self._exact(self.numerators.max())

    def ground_indices(self) -> tuple[int, ...]:
        floor = self.numerators.min()
        return tuple(np.flatnonzero(self.numerators == floor).tolist())


def _residual(source: Union[ColumnEquation, Poly]) -> Poly:
    return source.residual if isinstance(source, ColumnEquation) else source


def penalty_polynomial(equation: Union[ColumnEquation, Poly]) -> Poly:
    """Squared residual: nonnegative, zero exactly on the equation's solutions."""
    residual = _residual(equation)
    return residual * residual


def quadratize_equation(
    equation: Union[ColumnEquation, Poly], pairing: str = "last"
) -> Poly:
    """Penalty for residual A*B + S built without squaring the product.

    pairing picks which two-variable product becomes (A, B): "last" takes
    the lexicographically last product term, "first" the first.

    Raises:
        NotApplicable: no two-variable product to pair, or non-integer
            coefficients (the identity needs integer-valued S).
    """
    residual = _residual(equation)
    if any(coeff.denominator != 1 for _, coeff in residual.items()):
        raise NotApplicable("quadratization needs integer coefficients")
    products = [mono for mono, _ in residual.items() if mono.degree == 2]
    if not products:
        raise NotApplicable("no two-variable product term to pair")
    if pairing not in ("last", "first"):
        raise ValueError(f"pairing must be 'last' or 'first', got {pairing!r}")
    mono = products[-1] if pairing == "last" else products[0]
    a, b = mono
    product = Poly({mono: 1})
    s_part = residual - product
    linear = 2 * Poly.variable(a) + 2 * Poly.variable(b) - 1
    return product + linear * s_part + 2 * s_part * s_part


def assemble_problem(
    system: EquationSystem, pairing: str = "last"
) -> tuple[QubitMap, Poly]:
    """Sum the per-equation penalties into the problem polynomial.

    pairing: "last" (default) and "first" choose the paired product for
    equations whose squared penalty would exceed quadratic order; "none"
    always squares, which keeps the penalty symmetric under the p/q swap
    at the cost of higher-degree monomials.

    Returns:
        (qubit map over the free variables, penalty polynomial).  The
        polynomial is nonnegative on all assignments and vanishes exactly
        on the system's solutions.

    Raises:
        EmptySystem: the system has no free variables left.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"pairing must be one of {PAIRINGS}, got {pairing!r}")
    qmap = QubitMap.from_system(system)
    if qmap.n == 0:
        raise EmptySystem(f"{system.target}: nothing left to solve")
    total = Poly()
    for eq in system.equations:
        penalty = penalty_polynomial(eq)
        if pairing != "none" and penalty.degree > 2:
            try:
                penalty = quadratize_equation(eq, pairing)
            except NotApplicable:
                pass  # no pairable product; keep the plain square
        total = total + penalty
    return qmap, total


def polynomial_to_diagonal(poly: Poly, qmap: QubitMap) -> DiagonalOperator:
    """Evaluate the polynomial on every computational basis state.

    Raises:
        UnmappedVariable: the polynomial mentions a variable outside the map.
        DimensionTooLarge: the map exceeds the qubit cap.
        ValueError: the coefficients are too large for an int64 diagonal.
    """
    unmapped = set(poly.variables()) - set(qmap.variables)
    if unmapped:
        raise UnmappedVariable(f"no qubit for {sorted(unmapped)}")
    _check_dim(qmap.n)
    return DiagonalOperator(qmap.n, *_basis_values(poly, qmap.variables))


def _basis_values(poly: Poly, variables: tuple[VarId, ...]) -> tuple[np.ndarray, int]:
    """(numerators, scale): poly at basis index i is numerators[i] / scale exactly.

    variables[0] is the most significant bit.  Raises ValueError when the
    scaled coefficients could overflow int64.
    """
    scale = lcm(*(coeff.denominator for _, coeff in poly.items()))
    terms = [(mono, int(coeff * scale)) for mono, coeff in poly.items()]
    if sum(abs(coeff) for _, coeff in terms) >= 1 << 63:
        raise ValueError("polynomial coefficients too large for an int64 diagonal")
    n = len(variables)
    weight = {var: 1 << (n - 1 - i) for i, var in enumerate(variables)}
    index = np.arange(1 << n)
    values = np.zeros(1 << n, dtype=np.int64)
    for mono, coeff in terms:
        mask = sum(weight[var] for var in mono)
        values[(index & mask) == mask] += coeff
    return values, scale


def direct_cost_diagonal(target: int, w_x: int, w_y: int) -> DiagonalOperator:
    """Cost (target - x*y)^2 over all w_x- and w_y-bit integers.

    Basis index is (x << w_y) | y.  This is the comparison scheme whose
    spectral range grows with target^2, unlike the table compilation.
    """
    if target < 1:
        raise ValueError(f"target must be positive, got {target}")
    if w_x < 1 or w_y < 1:
        raise ValueError(f"widths must be positive, got ({w_x}, {w_y})")
    n = w_x + w_y
    _check_dim(n)
    x = np.arange(1 << w_x, dtype=np.int64)
    y = np.arange(1 << w_y, dtype=np.int64)
    costs = (target - np.outer(x, y)) ** 2
    return DiagonalOperator(n, costs.reshape(-1))


@dataclass(frozen=True)
class MixerSpec:
    """Uniform transverse field g * sum_i X_i on n qubits."""

    n: int
    g: float = 0.6

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one qubit, got {self.n}")
        _check_dim(self.n)
        if not self.g > 0:
            raise ValueError(f"field strength must be positive, got {self.g}")

    @property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense form: entry g between basis states differing in exactly one bit."""
        dim = self.dim
        out = np.zeros((dim, dim))
        rows = np.arange(dim)
        for k in range(self.n):
            out[rows, rows ^ (1 << k)] = self.g
        out.setflags(write=False)
        return out


def interpolated_hamiltonian(
    s: float, mixer: MixerSpec, problem: DiagonalOperator
) -> np.ndarray:
    """(1 - s) * mixer + s * problem, as a dense real symmetric matrix."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"interpolation parameter must lie in [0, 1], got {s}")
    if mixer.n != problem.n:
        raise DimensionMismatch(
            f"mixer acts on {mixer.n} qubits but the problem has {problem.n}"
        )
    out = (1.0 - s) * mixer.matrix
    np.fill_diagonal(out, out.diagonal() + s * problem.as_array)
    return out
