"""Compile an odd target into the column equations of its multiplication table.

A factorization N = p*q with bit widths (w_p, w_q) is written as the
grade-school multiplication table over the unknown interior bits of p and
q; the top and bottom bits of both factors are pinned to 1 (odd factors,
full width).  Each output column c contributes one balance equation

    sum_{i+j=c} P_i*Q_j + carries into c = N_c + sum_m 2^m * z_(c,c+m)

with just enough carry bits to hold the column's largest possible value,
and no carry reaching past the last column.  simplify() then drives a
fixpoint of cheap propagation rules over the system:

  * interval pruning per equation, with forbidden pairs tightening the
    bounds of sums of exclusive linear terms,
  * forcing whole equations that sit at an interval endpoint of zero,
  * recording forbidden pairs from x + y = 1 constraints and deleting
    monomials that contain both members of a pair,
  * substituting fixed variables, discarding satisfied equations, and
    deduplicating equal residuals.

Every step is a sound implication of the system together with the pairs
recorded so far, so the solution set projected onto surviving variables
is preserved.  A pair is only ever recorded while an equation enforcing
it stays in the system (its source constraint, or an explicit xy = 0
equation), which keeps penalty operators built from the equations alone
faithful to the full constraint set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import EvenInput, Infeasible, InvariantViolation, TooSmall, WidthMismatch
from .pseudobool import Monomial, Poly, Rational, VarId


@dataclass(frozen=True)
class ColumnEquation:
    """One balance constraint lhs == rhs.

    column records which table column produced the equation; reductions
    keep the column of their source, and equations loaded from a document
    carry None.
    """

    lhs: Poly
    rhs: Poly
    column: Optional[int] = None

    @property
    def residual(self) -> Poly:
        return self.lhs - self.rhs

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class EquationSystem:
    target: int
    widths: tuple[int, int]
    equations: tuple[ColumnEquation, ...]
    fixed: dict
    forbidden_pairs: tuple[frozenset, ...]

    def free_variables(self) -> tuple[VarId, ...]:
        seen: set[VarId] = set()
        for eq in self.equations:
            seen.update(eq.residual.variables())
        for pair in self.forbidden_pairs:
            seen.update(pair)
        return tuple(sorted(seen))

    @property
    def is_solved(self) -> bool:
        return not self.free_variables()

    def interior_variables(self) -> tuple[VarId, ...]:
        wp, wq = self.widths
        ps = [VarId.p(i) for i in range(1, wp - 1)]
        qs = [VarId.q(i) for i in range(1, wq - 1)]
        return tuple(ps + qs)


def _validate_target(target: int) -> None:
    if target % 2 == 0:
        raise EvenInput(f"{target} is even; both factors are assumed odd")
    if target < 9:
        raise TooSmall(f"{target} < 9, the smallest odd product of two odd factors > 1")


def _validate_split(target: int, w_p: int, w_q: int) -> None:
    _validate_target(target)
    n = target.bit_length()
    if not 2 <= w_p <= w_q:
        raise WidthMismatch(f"need 2 <= w_p <= w_q, got ({w_p}, {w_q})")
    if w_p + w_q not in (n, n + 1):
        raise WidthMismatch(
            f"widths ({w_p}, {w_q}) sum to {w_p + w_q}; expected {n} or {n + 1} for {target}"
        )


def enumerate_width_splits(target: int) -> list[tuple[int, int]]:
    """All width pairs 2 <= w_p <= w_q with w_p+w_q in {n, n+1}.

    n is the bit length of the target.  Splits are ordered by increasing
    width imbalance, so the balanced split is tried first; the ordering
    is total because the two admissible sums have different parities.
    """
    _validate_target(target)
    n = target.bit_length()
    splits = []
    for total in (n, n + 1):
        for w_p in range(2, total // 2 + 1):
            splits.append((w_p, total - w_p))
    splits.sort(key=lambda s: (s[1] - s[0], s[0] + s[1]))
    return splits


def build_layout(target: int, w_p: int, w_q: int) -> EquationSystem:
    """Lay out the multiplication table for target = p*q at the given widths.

    Args:
        target: odd integer >= 9.
        w_p, w_q: bit widths of the two factors, 2 <= w_p <= w_q, summing
            to the target's bit length n or to n+1.

    Returns:
        The unsimplified system: one equation per output column, carry
        budgets K_c = floor(log2(max lhs)) capped so no carry leaves the
        table.  Trivially satisfied columns (e.g. column 0: 1 = 1) are
        kept; simplify() discards them.

    Raises:
        EvenInput, TooSmall: bad target.
        WidthMismatch: widths out of range for the target.
    """
    _validate_split(target, w_p, w_q)

    def bit_polys(width: int, kind: str) -> list[Poly]:
        one = Poly.constant(1)
        out = [one]
        for i in range(1, width - 1):
            out.append(Poly.variable(VarId(kind, i)))
        out.append(one)
        return out

    p_bits = bit_polys(w_p, "p")
    q_bits = bit_polys(w_q, "q")
    last_col = w_p + w_q - 1
    incoming: dict[int, list[VarId]] = {c: [] for c in range(last_col + 1)}
    equations = []
    for c in range(last_col + 1):
        lhs = Poly()
        n_products = 0
        for i in range(max(0, c - w_q + 1), min(w_p - 1, c) + 1):
            lhs = lhs + p_bits[i] * q_bits[c - i]
            n_products += 1
        for carry in incoming[c]:
            lhs = lhs + Poly.variable(carry)
        max_lhs = n_products + len(incoming[c])
        budget = max_lhs.bit_length() - 1 if max_lhs >= 1 else 0
        budget = min(budget, last_col - c)  # carries cannot spill past the last column
        rhs = Poly.constant((target >> c) & 1)
        for m in range(1, budget + 1):
            carry = VarId.carry(c, c + m)
            incoming[c + m].append(carry)
            rhs = rhs + (1 << m) * Poly.variable(carry)
        equations.append(ColumnEquation(lhs, rhs, column=c))
    return EquationSystem(target, (w_p, w_q), tuple(equations), {}, ())


def _canon_sign(poly: Poly) -> Poly:
    """Flip the sign so the first non-constant term has a positive coefficient."""
    for mono, coeff in poly.items():
        if mono:
            return poly if coeff > 0 else -poly
    return poly


def _pair_key(pair: frozenset) -> tuple:
    return tuple(sorted(pair))


class _Row:
    __slots__ = ("column", "poly", "dead")

    def __init__(self, column: Optional[int], poly: Poly):
        self.column = column
        self.poly = poly
        self.dead = False


class _Propagator:
    """Mutable fixpoint state for simplify()."""

    def __init__(self, system: EquationSystem):
        self.target = system.target
        self.widths = system.widths
        self.fixed: dict[VarId, int] = dict(system.fixed)
        self.pairs: set[frozenset] = set(system.forbidden_pairs)
        self.rows: list[_Row] = []  # append-only, so a row's index is its creation order
        var_count = len(system.free_variables())
        for eq in system.equations:
            self._push(eq.column, eq.residual)
        # every pass fixes a variable, records a pair, or deletes material,
        # so the fixpoint arrives well inside this budget
        self._pass_budget = 4 * (var_count + len(self.rows)) + 8

    # -- bookkeeping -------------------------------------------------

    def _push(self, column: Optional[int], poly: Poly) -> None:
        self.rows.append(_Row(column, poly))

    def _live(self) -> Iterable[_Row]:
        return (row for row in self.rows if not row.dead)

    def _fix(self, var: VarId, value: int) -> bool:
        prev = self.fixed.get(var)
        if prev is not None:
            if prev != value:
                raise Infeasible(f"{self.target}: {var} required to be both 0 and 1")
            return False
        self.fixed[var] = value
        for pair in [p for p in self.pairs if var in p]:
            self.pairs.discard(pair)
            if value == 1:
                (other,) = set(pair) - {var}
                self._fix(other, 0)
        return True

    def _add_pair(self, x: VarId, y: VarId) -> bool:
        for var, other in ((x, y), (y, x)):
            val = self.fixed.get(var)
            if val == 1:
                return self._fix(other, 0)
            if val == 0:
                return False
        key = frozenset((x, y))
        if key in self.pairs:
            return False
        self.pairs.add(key)
        return True

    # -- interval machinery ------------------------------------------

    def _bounds(self, poly: Poly) -> tuple[Rational, Rational]:
        """Value interval of the residual, one monomial at a time.

        Forbidden pairs sharpen the bound for pairs of exclusive linear
        terms of the same sign: at most one of the two can be active.
        """
        lo = hi = poly.constant_term
        lin_pos: dict[VarId, Rational] = {}
        lin_neg: dict[VarId, Rational] = {}
        for mono, coeff in poly.items():
            if not mono:
                continue
            if mono.degree == 1:
                (lin_pos if coeff > 0 else lin_neg)[mono[0]] = coeff
            elif coeff > 0:
                hi += coeff
            else:
                lo += coeff
        used_hi: set[VarId] = set()
        used_lo: set[VarId] = set()
        for pair in sorted(self.pairs, key=_pair_key):
            x, y = sorted(pair)
            if x in lin_pos and y in lin_pos and not {x, y} & used_hi:
                hi += max(lin_pos[x], lin_pos[y])
                used_hi |= {x, y}
            if x in lin_neg and y in lin_neg and not {x, y} & used_lo:
                lo += min(lin_neg[x], lin_neg[y])
                used_lo |= {x, y}
        hi += sum(c for v, c in lin_pos.items() if v not in used_hi)
        lo += sum(c for v, c in lin_neg.items() if v not in used_lo)
        return lo, hi

    # -- passes -------------------------------------------------------

    def run(self) -> None:
        for _ in range(self._pass_budget):
            if not self._pass():
                return
        raise InvariantViolation("propagation did not reach a fixpoint within budget")

    def _pass(self) -> bool:
        changed = self._normalize()
        for row in list(self._live()):
            if row.dead:
                continue
            poly = row.poly.substitute(self.fixed)
            if poly != row.poly:
                row.poly = poly
                changed = True
            if not poly:
                row.dead = True
                changed = True
                continue
            if poly.degree == 0:
                raise Infeasible(self._explain(row, poly))
            changed = self._apply_rules(row, poly) or changed
        return changed

    def _normalize(self) -> bool:
        changed = False
        seen: dict[Poly, _Row] = {}
        for row in self.rows:
            if row.dead:
                continue
            poly = _canon_sign(self._strip_pairs(row.poly.substitute(self.fixed)))
            if poly != row.poly:
                row.poly = poly
                changed = True
            if not poly:
                row.dead = True
                changed = True
                continue
            if poly.degree == 0:
                raise Infeasible(self._explain(row, poly))
            if poly in seen:
                row.dead = True
                changed = True
            else:
                seen[poly] = row
        return changed

    def _strip_pairs(self, poly: Poly) -> Poly:
        for pair in sorted(self.pairs, key=_pair_key):
            if self._is_atom_of(poly, pair):
                continue  # keep the xy = 0 equation that backs the pair
            poly = poly.without_monomials(pair)
        return poly

    @staticmethod
    def _is_atom_of(poly: Poly, pair: frozenset) -> bool:
        terms = list(poly.items())
        return len(terms) == 1 and set(terms[0][0]) == set(pair)

    def _apply_rules(self, row: _Row, poly: Poly) -> bool:
        lo, hi = self._bounds(poly)
        if lo > 0 or hi < 0:
            raise Infeasible(self._explain(row, poly))
        plain_lo, plain_hi = poly.bounds()
        if plain_hi == 0:
            return self._force_extreme(row, poly, maximize=True)
        if plain_lo == 0:
            return self._force_extreme(row, poly, maximize=False)

        changed = False
        for var in poly.variables():
            if var in self.fixed:
                continue
            feasible = []
            for value in (0, 1):
                trial = {var: value}
                if value == 1:
                    for pair in self.pairs:
                        if var in pair:
                            (other,) = set(pair) - {var}
                            trial.setdefault(other, 0)
                reduced = poly.substitute(trial)
                t_lo, t_hi = self._bounds(reduced)
                feasible.append(t_lo <= 0 <= t_hi)
            if not feasible[0] and not feasible[1]:
                raise Infeasible(self._explain(row, poly))
            if feasible[0] != feasible[1]:
                self._fix(var, 0 if feasible[0] else 1)
                changed = True
                poly = _canon_sign(poly.substitute(self.fixed))
                row.poly = poly
                if not poly:
                    row.dead = True
                    return True
                if poly.degree == 0:
                    raise Infeasible(self._explain(row, poly))

        changed = self._record_pair_sum(poly) or changed
        return changed

    def _force_extreme(self, row: _Row, poly: Poly, maximize: bool) -> bool:
        """The residual can only vanish at an interval endpoint: pin every term."""
        changed = False
        atoms = []
        for mono, coeff in poly.items():
            if not mono:
                continue
            if (coeff > 0) == maximize:
                for var in mono:
                    changed = self._fix(var, 1) or changed
            elif mono.degree == 1:
                changed = self._fix(mono[0], 0) or changed
            else:
                if mono.degree == 2:
                    changed = self._add_pair(*mono) or changed
                atoms.append(mono)
        replacements = [Poly({mono: 1}) for mono in atoms]
        if len(replacements) == 1 and replacements[0] == _canon_sign(poly):
            return changed  # the row already is its own xy = 0 atom
        row.dead = True
        for replacement in replacements:
            self._push(row.column, replacement)
        return True

    def _record_pair_sum(self, poly: Poly) -> bool:
        """x + y = 1 (up to scale) marks {x, y} as mutually exclusive."""
        terms = list(poly.items())
        if len(terms) != 3:
            return False
        coeffs = {mono: coeff for mono, coeff in terms}
        const = coeffs.pop(Monomial(), None)
        if const is None or len(coeffs) != 2:
            return False
        (m1, c1), (m2, c2) = coeffs.items()
        if m1.degree == m2.degree == 1 and c1 == c2 == -const:
            return self._add_pair(m1[0], m2[0])
        return False

    def _explain(self, row: _Row, poly: Poly) -> str:
        where = f"column {row.column}" if row.column is not None else "equation"
        return f"{self.target} with widths {self.widths}: {where} cannot balance ({poly} = 0)"

    # -- output -------------------------------------------------------

    def result(self) -> EquationSystem:
        # sorted() is stable, so rows of one column keep their creation order
        rows = sorted(
            self._live(), key=lambda r: r.column if r.column is not None else 1 << 30
        )
        equations = tuple(_reshape(row.poly, row.column) for row in rows)
        fixed = dict(sorted(self.fixed.items()))
        pairs = tuple(sorted(self.pairs, key=_pair_key))
        return EquationSystem(self.target, self.widths, equations, fixed, pairs)


def _reshape(residual: Poly, column: Optional[int]) -> ColumnEquation:
    lhs: dict[Monomial, Rational] = {}
    rhs: dict[Monomial, Rational] = {}
    for mono, coeff in residual.items():
        if coeff > 0 and mono:
            lhs[mono] = coeff
        else:
            rhs[mono] = -coeff
    return ColumnEquation(Poly(lhs), Poly(rhs), column)


def simplify(system: EquationSystem) -> EquationSystem:
    """Propagate the system to a fixpoint of the reduction rules.

    Returns a new system whose solution set, projected onto surviving
    variables, is in bijection with the input's: values of eliminated
    variables are recorded in fixed, and mutually exclusive pairs in
    forbidden_pairs.

    Raises:
        Infeasible: the system has no solution, i.e. this width split
            admits no factorization.
    """
    propagator = _Propagator(system)
    propagator.run()
    return propagator.result()


def compile_system(target: int, widths: Optional[tuple[int, int]] = None) -> EquationSystem:
    """Lay out and simplify; without explicit widths, the first feasible split wins.

    Raises:
        Infeasible: the given widths (or every enumerated split) admit no
            factorization.
    """
    if widths is not None:
        return simplify(build_layout(target, widths[0], widths[1]))
    last_error: Optional[Infeasible] = None
    for w_p, w_q in enumerate_width_splits(target):
        try:
            return simplify(build_layout(target, w_p, w_q))
        except Infeasible as exc:
            last_error = exc
    raise Infeasible(f"{target}: every width split is infeasible") from last_error


# -- JSON document ----------------------------------------------------


def _frac_str(value: Rational) -> str:
    return f"{value.numerator}/{value.denominator}"


def _poly_to_terms(poly: Poly) -> list:
    return [[_frac_str(coeff), [str(v) for v in mono]] for mono, coeff in poly.items()]


def _poly_from_terms(terms: list) -> Poly:
    acc = []
    for coeff, names in terms:
        value = Fraction(coeff)
        value = value.numerator if value.denominator == 1 else value
        acc.append((Monomial(VarId.parse(name) for name in names), value))
    return Poly(acc)


def system_to_document(system: EquationSystem) -> dict:
    """Serialize to the interchange document (exact rationals as num/den strings)."""
    return {
        "n": system.target,
        "widths": list(system.widths),
        "variables": [str(v) for v in system.free_variables()],
        "equations": [
            {"lhs": _poly_to_terms(eq.lhs), "rhs": _poly_to_terms(eq.rhs)}
            for eq in system.equations
        ],
        "fixed": {str(v): value for v, value in system.fixed.items()},
        "forbidden_pairs": [
            [str(v) for v in sorted(pair)] for pair in system.forbidden_pairs
        ],
    }


def system_from_document(doc: dict) -> EquationSystem:
    """Inverse of system_to_document; column provenance is not retained."""
    try:
        target = int(doc["n"])
        widths = (int(doc["widths"][0]), int(doc["widths"][1]))
        equations = tuple(
            ColumnEquation(_poly_from_terms(eq["lhs"]), _poly_from_terms(eq["rhs"]))
            for eq in doc["equations"]
        )
        fixed = {
            VarId.parse(name): int(value) for name, value in doc.get("fixed", {}).items()
        }
        pairs = tuple(
            frozenset(VarId.parse(name) for name in pair)
            for pair in doc.get("forbidden_pairs", [])
        )
    except (KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed system document: {exc}") from exc
    declared = [VarId.parse(name) for name in doc.get("variables", [])]
    system = EquationSystem(target, widths, equations, dict(sorted(fixed.items())), pairs)
    _validate_layout_rules(system)
    if declared and tuple(sorted(declared)) != system.free_variables():
        raise ValueError("declared variables do not match the equations")
    return system


def _validate_layout_rules(system: EquationSystem) -> None:
    """Refuse what build_layout could not have produced for the system's target and widths.

    Raises:
        EvenInput, TooSmall, WidthMismatch: as build_layout would.
        ValueError: a fixed value outside {0, 1}, a variable outside the
            table, or a forbidden pair that is not two distinct variables.
    """
    w_p, w_q = system.widths
    _validate_split(system.target, w_p, w_q)
    for pair in system.forbidden_pairs:
        if len(pair) != 2:
            names = sorted(str(v) for v in pair)
            raise ValueError(f"malformed system document: forbidden pair {names} "
                             "is not two distinct variables")
    for var, value in system.fixed.items():
        if value not in (0, 1):
            raise ValueError(f"malformed system document: {var} fixed to {value}, not 0 or 1")
    last_col = w_p + w_q - 1
    interior_top = {"p": w_p - 2, "q": w_q - 2}
    for var in set(system.free_variables()) | set(system.fixed):
        kind, a, b = var
        inside = 0 <= a < b <= last_col if kind == "z" else 1 <= a <= interior_top[kind]
        if not inside:
            raise ValueError(
                f"malformed system document: {var} lies outside the table at widths "
                f"{system.widths}"
            )
