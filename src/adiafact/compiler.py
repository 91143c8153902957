"""Compile an odd target into the column equations of its multiplication table.

A factorization N = p*q with bit widths (w_p, w_q) is written as the
grade-school multiplication table over the unknown interior bits of p and
q; the top and bottom bits of both factors are pinned to 1 (odd factors,
full width).  Each output column c contributes one balance equation

    sum_{i+j=c} P_i*Q_j + carries into c = N_c + sum_m 2^m * z_(c,c+m)

with just enough carry bits to hold the column's largest possible value,
and no carry reaching past the last column.  Each equation is stored as
its residual, left side minus right side, as a dict from monomial masks
to coefficients under the system's one numbering of its free variables:
build_layout writes these rows, the propagator reduces them, the penalty
squares them, and residual, lhs and rhs are Poly views for documents.
simplify() then repeats passes of cheap propagation rules until one
changes nothing.  A pass settles each live equation once: it deletes
monomials that contain both members of a forbidden pair, substitutes the
fixed variables, normalizes the sign, and drops the equation if it
vanishes or equals one settled earlier in the pass.  Then the rules run
on it:

  * interval pruning, with forbidden pairs tightening the bounds of
    sums of exclusive linear terms,
  * forcing whole equations that sit at an interval endpoint of zero,
  * recording forbidden pairs from x + y = 1 constraints.

Propagation records each forbidden pair once, as partner masks, and is
incremental.  When an equation's evaluation (settle, then rules) starts,
it records its variables, which of them are fixed and the pairs between
two of them, the one pair list the evaluation reads; a later pass
evaluates it again only when the fixed values or the pairs over those
variables differ.  An equation split off by the endpoint rule starts
unevaluated.  A skipped equation still takes part in the pass's
duplicate check.  Skipping is exact: settle and rules read only the
equation's polynomial, the fixed values of its own variables and the
pairs between them, and its variables only shrink; settling is
idempotent (substitution only removes variables, so it cannot make a
product that a pair forbids); and an evaluation that changes nothing has
no side effect.  So every pass returns what it would with every
equation evaluated, and the pass count does not move.

The propagator takes the system's rows as they are, with fixed values
and pairs as masks under the same numbering; its result only renumbers
the surviving rows onto the variables still free.  A Poly is built only
for an Infeasible message.  Every interval starts as the plain interval
of the terms and is narrowed by one pair rule.  The rules price each trial
value in closed form: from the equation's plain interval, v = 0 takes off
the terms that contain v, and v = 1 takes off its partners' terms and
merges each m*v into m; the pair rule then reads the linear coefficients
the trial leaves, without building the substituted terms.

Every step is a sound implication of the system together with the pairs
recorded so far, so the solution set projected onto surviving variables
is preserved.  A pair is only ever recorded while an equation enforcing
it stays in the system (its source constraint, or an explicit xy = 0
equation), which keeps penalty operators built from the equations alone
faithful to the full constraint set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import EvenInput, Infeasible, InvariantViolation, TooSmall, WidthMismatch
from .pseudobool import (Poly, VarId, _bits, _mask_order, _masks_to_poly, _poly_to_masks,
                         _variable_bits)


@dataclass(frozen=True)
class ColumnEquation:
    """One balance constraint residual == 0, as the residual's {mask: coefficient} terms.

    variables is the numbering of the system that holds the equation.
    column records which table column produced the equation; reductions
    keep the column of their source, and equations loaded from a document
    carry None.  residual, lhs and rhs are Poly views built on demand; lhs
    and rhs write the equation as lhs == rhs: the positive non-constant
    terms on the left, every other term negated on the right.
    """

    terms: dict
    variables: tuple[VarId, ...] = field(repr=False)
    column: Optional[int] = None

    @property
    def residual(self) -> Poly:
        return _masks_to_poly(self.terms, self.variables)

    @property
    def lhs(self) -> Poly:
        return _masks_to_poly({m: c for m, c in self.terms.items() if m and c > 0}, self.variables)

    @property
    def rhs(self) -> Poly:
        negated = {m: -c for m, c in self.terms.items() if not m or c < 0}
        return _masks_to_poly(negated, self.variables)

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class EquationSystem:
    """Column equations under one numbering: variables, every variable the equations
    and forbidden pairs mention, sorted; each mask follows _variable_bits(variables)."""

    target: int
    widths: tuple[int, int]
    variables: tuple[VarId, ...]
    equations: tuple[ColumnEquation, ...]
    fixed: dict
    forbidden_pairs: tuple[frozenset, ...]

    @classmethod
    def from_residuals(cls, target: int, widths: tuple[int, int], residuals: Iterable,
                       fixed: dict, forbidden_pairs: tuple) -> "EquationSystem":
        """The system of (residual Poly, column) pairs, numbered over what they mention."""
        residuals = list(residuals)
        names = set().union(*forbidden_pairs, *(r.variables() for r, _ in residuals))
        variables = tuple(sorted(names))
        equations = tuple([ColumnEquation(_poly_to_masks(residual, variables), variables, column)
                           for residual, column in residuals])
        return cls(target, widths, variables, equations, fixed, tuple(forbidden_pairs))

    @property
    def is_solved(self) -> bool:
        return not self.variables


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


def _carries(w_p: int, w_q: int) -> list[VarId]:
    """Every carry, by column: z{c}_{c+1} .. z{c}_{c+K_c} for the carry budget K_c of column c."""
    last_col = w_p + w_q - 1
    incoming = [0] * (last_col + 1)
    carries = []
    for c in range(last_col + 1):
        max_lhs = max(0, min(w_p - 1, c) - max(0, c - w_q + 1) + 1) + incoming[c]
        for m in range(1, min(max(max_lhs.bit_length() - 1, 0), last_col - c) + 1):
            incoming[c + m] += 1
            carries.append(VarId.carry(c, c + m))
    return carries


def _table_variables(w_p: int, w_q: int) -> tuple[VarId, ...]:
    """The table's variables, sorted: the interior bits of p, then of q, then every carry."""
    interiors = [VarId(kind, i) for kind, w in zip("pq", (w_p, w_q)) for i in range(1, w - 1)]
    return tuple(interiors + _carries(w_p, w_q))


def build_layout(target: int, w_p: int, w_q: int) -> EquationSystem:
    """Lay out the multiplication table for target = p*q at the given widths.

    Args:
        target: odd integer >= 9.
        w_p, w_q: bit widths of the two factors, 2 <= w_p <= w_q, summing
            to the target's bit length n or to n+1.

    Returns:
        The unsimplified system: one equation per output column, carry
        budgets K_c = floor(log2(max lhs)) capped so no carry leaves the
        table.  Trivially satisfied columns (e.g. column 0: 1 = 1, residual
        0) are kept; simplify() discards them.

    Raises:
        EvenInput, TooSmall: bad target.
        WidthMismatch: widths out of range for the target.
    """
    _validate_split(target, w_p, w_q)

    variables = _table_variables(w_p, w_q)
    bit = _variable_bits(variables)
    # residual of column c: products and incoming carries, minus target bit and outgoing carries
    rows = [{0: -((target >> c) & 1)} for c in range(w_p + w_q)]
    # the top and bottom bits of both factors are pinned to 1, so they have no bit
    p_masks = [bit.get(VarId.p(i), 0) for i in range(w_p)]
    for j in range(w_q):
        q_mask = bit.get(VarId.q(j), 0)
        for i, p_mask in enumerate(p_masks):
            rows[i + j][p_mask | q_mask] = rows[i + j].get(p_mask | q_mask, 0) + 1
    for carry in variables[w_p + w_q - 4:]:  # the carries, after the interior bits
        _, source, dest = carry
        rows[source][bit[carry]] = -(1 << (dest - source))
        rows[dest][bit[carry]] = 1
    equations = tuple([ColumnEquation({m: k for m, k in row.items() if k}, variables, c)
                       for c, row in enumerate(rows)])
    return EquationSystem(target, (w_p, w_q), variables, equations, {}, ())


def _substitute(terms: dict[int, int], ones: int, zeros: int) -> dict[int, int]:
    """Set the variables of ones to 1 and those of zeros to 0; zero sums drop out."""
    out: dict[int, int] = {}
    for mono, coeff in terms.items():
        if mono & zeros:
            continue  # a zero factor kills the term
        mono &= ~ones
        total = out.get(mono, 0) + coeff
        if total:
            out[mono] = total
        else:
            out.pop(mono, None)
    return out


class _Row:
    """One live residual and what the propagator knows about it.

    terms maps each monomial, as the mask of its variables' bits, to its
    nonzero coefficient.  variables is the mask of every variable the terms
    mention, key the terms as a hashable set for the duplicate check, and
    lo, hi their plain interval: the constant plus every negative, and plus
    every positive, coefficient, each monomial taken as an independent 0/1
    term.  set_terms keeps all of them in step.

    read is (variables, which of them are fixed, the pairs between them) as
    the last evaluation started; while the fixed values and pairs over those
    variables match it, the row would evaluate to no change.  Its pair list
    is the one that evaluation reads throughout.
    """

    __slots__ = ("column", "terms", "variables", "key", "lo", "hi", "dead", "read")

    def __init__(self, column: Optional[int], terms: dict[int, int]):
        self.column = column
        self.dead = False
        self.read = (0, 0, None)  # None matches no pair list, so a new row starts awake
        self.set_terms(terms)

    def set_terms(self, terms: dict[int, int]) -> None:
        self.terms = terms
        self.key = frozenset(terms.items())
        variables = 0
        lo = hi = terms.get(0, 0)
        for mono, coeff in terms.items():
            if not mono:
                continue
            variables |= mono
            if coeff > 0:
                hi += coeff
            else:
                lo += coeff
        self.variables, self.lo, self.hi = variables, lo, hi


class _Propagator:
    """Mutable fixpoint state for simplify(), on the system's integer bitmasks.

    Rows take the system's masks as they are, so Poly's term order is
    ascending popcount, then descending mask (_mask_order), and the order
    of pairs as sorted VarId tuples is descending mask.  Fixed values are
    the masks ones and zeros, and a pair is the mask of its two variables.
    The pairs are recorded once, as partner masks: _partners maps each
    paired variable's bit to the mask of its partners.
    """

    def __init__(self, system: EquationSystem):
        self.target = system.target
        self.widths = system.widths
        self.variables = system.variables
        bit = _variable_bits(self.variables)
        self.ones = self.zeros = 0
        self._partners: dict[int, int] = {}  # variable bit -> mask of the variables paired with it
        self._own: dict[int, list[int]] = {}  # _own_pairs memo, emptied when _partners changes
        self.fixed = system.fixed  # passed through to the result
        for var in bit.keys() & system.fixed.keys():
            self._fix(bit[var], system.fixed[var])
        for pair in system.forbidden_pairs:
            self._add_pair(*(bit[var] for var in pair))  # a fixed member settles the pair
        # append-only, so a row's index is its creation order
        self.rows = [_Row(eq.column, eq.terms) for eq in system.equations]
        # every pass fixes a variable, records a pair, or deletes material,
        # so the fixpoint arrives well inside this budget
        self._pass_budget = 4 * (len(self.variables) + len(self.rows)) + 8

    # -- bookkeeping -------------------------------------------------

    def _var(self, bit: int) -> VarId:
        return self.variables[-bit.bit_length()]

    def _live(self) -> Iterable[_Row]:
        return (row for row in self.rows if not row.dead)

    def _own_pairs(self, variables: int) -> list[int]:
        """The pairs between two of the given variables, descending."""
        own = self._own.get(variables)
        if own is None:
            own = self._own[variables] = sorted(
                [x | y for x, partners in self._partners.items() if x & variables
                 for y in _bits(partners & variables & (x - 1))], reverse=True)
        return own

    def _fix(self, var: int, value: int) -> bool:
        if var & (self.ones | self.zeros):
            if bool(var & self.ones) != bool(value):
                raise Infeasible(f"{self.target}: {self._var(var)} required to be both 0 and 1")
            return False
        if value:
            self.ones |= var
        else:
            self.zeros |= var
        partners = self._partners.pop(var, 0)
        if partners:
            self._own = {}
        for other in _bits(partners):
            rest = self._partners.pop(other) & ~var
            if rest:
                self._partners[other] = rest
            if value == 1:
                self._fix(other, 0)
        return True

    def _add_pair(self, x: int, y: int) -> bool:
        for var, other in ((x, y), (y, x)):
            if var & self.ones:
                return self._fix(other, 0)
            if var & self.zeros:
                return False
        if self._partners.get(x, 0) & y:
            return False
        self._partners[x] = self._partners.get(x, 0) | y
        self._partners[y] = self._partners.get(y, 0) | x
        self._own = {}
        return True

    # -- interval machinery ------------------------------------------

    @staticmethod
    def _sharpen(coefficient, lo: int, hi: int, pairs: list[int]) -> tuple[int, int]:
        """Narrow the plain interval (lo, hi) of some terms by the pairs.

        coefficient(x) is the linear coefficient of the variable bit x in
        those terms, 0 or None where there is none.  Of two linear terms of
        one sign whose variables form a pair, at most one can be active, so
        the smaller one is taken back off.  Pairs match greedily in the
        order given, and each term is used at most once.
        """
        used = 0
        for pair in pairs:
            if pair & used:
                continue
            x = pair & -pair
            cx = coefficient(x)
            if not cx:
                continue
            cy = coefficient(pair ^ x)
            if cy and cx * cy > 0:
                used |= pair
                if cx > 0:
                    hi -= min(cx, cy)
                else:
                    lo -= max(cx, cy)
        return lo, hi

    def _probe(self, row: _Row, var: int,
               pairs: list[int]) -> tuple[tuple[int, int], tuple[int, int]]:
        """Intervals of the row at var = 0 and at var = 1, var's partners then 0.

        Each starts from the row's plain interval and moves only by the
        terms the trial reaches: var = 0 drops the terms that contain var;
        var = 1 drops the terms of its partners and merges each m*var into
        m (a linear var into the constant).  _sharpen then narrows both by
        the row's pairs, reading the linear coefficients the trial leaves:
        var's own drops out at 0, and at 1 x's becomes terms[x] +
        terms[x | var] for x outside var and its partners.
        """
        terms = row.terms
        partners = self._partners.get(var, 0)
        lo0 = lo1 = row.lo
        hi0 = hi1 = row.hi
        for mono, coeff in terms.items():
            if mono & var:
                if coeff > 0:
                    hi0 -= coeff
                    hi1 -= coeff
                else:
                    lo0 -= coeff
                    lo1 -= coeff
                if mono & partners:
                    continue
                rest = mono ^ var
                if not rest:
                    lo1 += coeff
                    hi1 += coeff
                    continue
                old = terms.get(rest, 0)
                if old > 0:
                    hi1 -= old
                else:
                    lo1 -= old
                if old + coeff > 0:
                    hi1 += old + coeff
                else:
                    lo1 += old + coeff
            elif mono & partners:
                if coeff > 0:
                    hi1 -= coeff
                else:
                    lo1 -= coeff
        if not pairs:
            return (lo0, hi0), (lo1, hi1)
        get = terms.get
        gone = var | partners
        return (self._sharpen(lambda x: x != var and get(x), lo0, hi0, pairs),
                self._sharpen(lambda x: not x & gone and get(x, 0) + get(x | var, 0),
                              lo1, hi1, pairs))

    # -- passes -------------------------------------------------------

    def run(self) -> None:
        for _ in range(self._pass_budget):
            if not self._pass():
                return
        raise InvariantViolation("propagation did not reach a fixpoint within budget")

    def _pass(self) -> bool:
        changed = False
        seen: set[frozenset] = set()
        for row in list(self._live()):  # rows pushed during the pass wait for the next
            fixed = self.ones | self.zeros  # per row: rows fix variables mid-pass
            variables, was_fixed, pairs = row.read
            awake = fixed & variables != was_fixed or self._own_pairs(variables) != pairs
            if awake:
                # The evaluation reads this one list, and it may go stale without
                # changing a result: until _record_pair_sum at the end, pairs are
                # only dropped, by _fix, and each dropped pair has a variable that
                # the next _settle removes from the row.  That _strip_pairs finds
                # no monomial with both of its variables (the first settle took
                # them out), and _sharpen skips a pair whose variable is gone.
                pairs = self._own_pairs(row.variables)
                row.read = (row.variables, fixed & row.variables, pairs)
                changed = self._settle(row, pairs) or changed
                if row.dead:
                    continue
            if row.key in seen:
                row.dead = True
                changed = True
                continue
            seen.add(row.key)
            if awake:
                changed = self._apply_rules(row, pairs) or changed
        return changed

    def _settle(self, row: _Row, pairs: list[int]) -> bool:
        """Strip pairs, substitute fixed values, normalize the sign; True if the row changed."""
        terms = row.terms
        if pairs:
            terms = self._strip_pairs(terms, pairs)
        if row.variables & (self.ones | self.zeros):
            terms = _substitute(terms, self.ones, self.zeros)
        if not terms:
            row.dead = True
            return True
        if len(terms) == 1 and 0 in terms:
            raise Infeasible(self._explain(row, terms))
        # the first non-constant term in Poly's order takes a positive coefficient
        if terms[min(filter(None, terms), key=_mask_order)] < 0:
            terms = {mono: -coeff for mono, coeff in terms.items()}
        if terms == row.terms:
            return False
        row.set_terms(terms)
        return True

    @staticmethod
    def _strip_pairs(terms: dict[int, int], pairs: list[int]) -> dict[int, int]:
        for pair in pairs:
            if len(terms) == 1 and pair in terms:
                continue  # keep the xy = 0 equation that backs the pair
            if any(mono & pair == pair for mono in terms):
                terms = {mono: c for mono, c in terms.items() if mono & pair != pair}
        return terms

    def _apply_rules(self, row: _Row, pairs: list[int]) -> bool:
        lo, hi = self._sharpen(row.terms.get, row.lo, row.hi, pairs)
        if lo > 0 or hi < 0:
            raise Infeasible(self._explain(row, row.terms))
        if row.hi == 0:
            return self._force_extreme(row, maximize=True)
        if row.lo == 0:
            return self._force_extreme(row, maximize=False)

        changed = False
        for var in _bits(row.variables):  # the row's variables on entry, in VarId order
            if var & (self.ones | self.zeros):
                continue
            feasible = [t_lo <= 0 <= t_hi for t_lo, t_hi in self._probe(row, var, pairs)]
            if not feasible[0] and not feasible[1]:
                raise Infeasible(self._explain(row, row.terms))
            if feasible[0] != feasible[1]:
                self._fix(var, 0 if feasible[0] else 1)
                changed = True
                self._settle(row, pairs)
                if row.dead:
                    return True

        changed = self._record_pair_sum(row.terms) or changed
        return changed

    def _force_extreme(self, row: _Row, maximize: bool) -> bool:
        """The residual can only vanish at an interval endpoint: pin every term."""
        terms = row.terms
        changed = False
        atoms = []
        for mono in sorted(terms, key=_mask_order):
            if not mono:
                continue
            if (terms[mono] > 0) == maximize:
                for var in _bits(mono):
                    changed = self._fix(var, 1) or changed
            elif not mono & (mono - 1):
                changed = self._fix(mono, 0) or changed
            else:
                if mono.bit_count() == 2:
                    x = mono & -mono
                    changed = self._add_pair(x, mono ^ x) or changed
                atoms.append(mono)
        if len(atoms) == 1 and terms == {atoms[0]: 1}:
            return changed  # the row already is its own xy = 0 atom
        row.dead = True
        for mono in atoms:
            self.rows.append(_Row(row.column, {mono: 1}))
        return True

    def _record_pair_sum(self, terms: dict[int, int]) -> bool:
        """x + y = 1 (up to scale) marks {x, y} as mutually exclusive."""
        if len(terms) != 3 or 0 not in terms:
            return False
        (m1, c1), (m2, c2) = ((mono, c) for mono, c in terms.items() if mono)
        if not m1 & (m1 - 1) and not m2 & (m2 - 1) and c1 == c2 == -terms[0]:
            return self._add_pair(m1, m2)
        return False

    def _explain(self, row: _Row, terms: dict[int, int]) -> str:
        where = f"column {row.column}" if row.column is not None else "equation"
        return (f"{self.target} with widths {self.widths}: {where} cannot balance "
                f"({_masks_to_poly(terms, self.variables)} = 0)")

    # -- output -------------------------------------------------------

    def result(self) -> EquationSystem:
        # sorted() is stable, so rows of one column keep their creation order
        rows = sorted(
            self._live(), key=lambda r: r.column if r.column is not None else 1 << 30
        )
        pairs = self._own_pairs((1 << len(self.variables)) - 1)
        # renumber the rows onto the surviving variables
        alive = 0
        for mask in [row.variables for row in rows] + pairs:
            alive |= mask
        variables = tuple([self._var(bit) for bit in _bits(alive)])
        moved = dict(zip(_bits(alive), _variable_bits(variables).values()))
        equations = tuple([ColumnEquation(
            {sum(moved[bit] for bit in _bits(m)): c for m, c in row.terms.items()},
            variables, row.column) for row in rows])
        fixed = dict(self.fixed)
        fixed.update((self._var(bit), int(bool(bit & self.ones)))
                     for bit in _bits(self.ones | self.zeros))
        return EquationSystem(self.target, self.widths, variables, equations,
                              dict(sorted(fixed.items())),
                              tuple([frozenset(map(self._var, _bits(pair))) for pair in pairs]))


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


# -- JSON document ----------------------------------------------------


def _json_int(value) -> int:
    """value itself if it is a JSON integer; a float, a bool, null or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _poly_to_terms(poly: Poly) -> list:
    return [[coeff, [str(v) for v in mono]] for mono, coeff in poly.items()]


def _residual_from_document(equation: dict) -> Poly:
    """lhs - rhs of one document equation, built from a single term list."""
    terms = []
    for side, sign in (("lhs", 1), ("rhs", -1)):
        for coeff, names in equation[side]:
            value = _json_int(coeff)
            variables = [VarId.parse(name) for name in names]
            if len(set(variables)) != len(variables):
                raise ValueError(f"monomial {names} names a variable twice")
            terms.append((variables, sign * value))
    return Poly(terms)


def system_to_document(system: EquationSystem) -> dict:
    """Serialize to the interchange document, every coefficient a JSON integer."""
    return {
        "n": system.target,
        "widths": list(system.widths),
        "variables": [str(v) for v in system.variables],
        "equations": [
            {"lhs": _poly_to_terms(eq.lhs), "rhs": _poly_to_terms(eq.rhs)}
            for eq in system.equations
        ],
        "fixed": {str(v): value for v, value in system.fixed.items()},
        "forbidden_pairs": [
            [str(v) for v in sorted(pair)] for pair in system.forbidden_pairs
        ],
    }


def _pair_from_names(names: list) -> frozenset:
    pair = frozenset(VarId.parse(name) for name in names)
    if len(names) != 2 or len(pair) != 2:
        raise ValueError(f"forbidden pair {names} is not two distinct variables")
    return pair


def system_from_document(doc: dict) -> EquationSystem:
    """Inverse of system_to_document; column provenance is not retained.

    n, every coefficient and every fixed value must be JSON integers (a
    float, a bool, null or any string, one that spells an integer too, is
    refused), and widths a list of exactly two.  A monomial may name each
    variable once.  The variables list is optional; when present, even
    empty, it must list exactly the free variables.
    """
    try:
        target = _json_int(doc["n"])
        if not isinstance(doc["widths"], list) or len(doc["widths"]) != 2:
            raise ValueError(f"widths {doc['widths']!r} are not a list of two integers")
        widths = (_json_int(doc["widths"][0]), _json_int(doc["widths"][1]))
        residuals = [(_residual_from_document(eq), None) for eq in doc["equations"]]
        fixed = {
            VarId.parse(name): _json_int(value) for name, value in doc.get("fixed", {}).items()
        }
        pairs = tuple([_pair_from_names(names) for names in doc.get("forbidden_pairs", [])])
        declared = None
        if "variables" in doc:
            declared = tuple(sorted(VarId.parse(name) for name in doc["variables"]))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"malformed system document: {exc}") from exc
    system = EquationSystem.from_residuals(target, widths, residuals,
                                           dict(sorted(fixed.items())), pairs)
    _validate_layout_rules(system)
    if declared is not None and declared != system.variables:
        raise ValueError("malformed system document: declared variables do not match "
                         "the equations")
    return system


def _validate_layout_rules(system: EquationSystem) -> None:
    """Refuse what build_layout could not have produced for the system's target and widths.

    Raises:
        EvenInput, TooSmall, WidthMismatch: as build_layout would.
        ValueError: a fixed value outside {0, 1}, a fixed variable that an
            equation or a forbidden pair still mentions, or a variable
            outside the table.
    """
    _validate_split(system.target, *system.widths)
    table = set(_table_variables(*system.widths))
    for var, value in system.fixed.items():
        if value not in (0, 1):
            raise ValueError(f"malformed system document: {var} fixed to {value}, not 0 or 1")
    free = set(system.variables)
    stale = sorted(free.intersection(system.fixed))
    if stale:
        raise ValueError(f"malformed system document: {stale[0]} is fixed but an equation "
                         "or a forbidden pair still mentions it")
    outside = sorted(free.union(system.fixed) - table)
    if outside:
        raise ValueError(f"malformed system document: {outside[0]} lies outside the table "
                         f"at widths {system.widths}")
