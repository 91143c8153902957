"""Exact multilinear polynomials over binary variables.

Everything the compiler manipulates is a polynomial in {0,1}-valued
variables with rational coefficients.  Idempotence x*x = x is applied on
every multiplication, so monomials stay squarefree and each polynomial
has a unique normal form: a map from sorted variable tuples to nonzero
coefficients.  Coefficients are plain ints unless an input is truly
rational, in which case fractions.Fraction arithmetic keeps them exact;
either way ground-state energies are compared against exact zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, Union

Rational = Union[int, Fraction]

_KIND_NAMES = {"p": "p", "q": "q", "z": "z"}


class VarId(tuple):
    """Identifier of one binary variable.

    Three kinds: ``p``/``q`` are interior factor bits indexed by bit
    position, ``z`` is a carry indexed by (source column, target column).
    Tuple inheritance gives hashing and a total order for free; the kind
    letters were chosen so the lexicographic order is p bits, then q
    bits, then carries, which is also the qubit order.
    """

    __slots__ = ()

    def __new__(cls, kind: str, a: int, b: int = 0):
        if kind not in _KIND_NAMES:
            raise ValueError(f"unknown variable kind {kind!r}")
        return super().__new__(cls, (kind, a, b))

    @property
    def kind(self) -> str:
        return self[0]

    @classmethod
    def p(cls, i: int) -> "VarId":
        return cls("p", i)

    @classmethod
    def q(cls, i: int) -> "VarId":
        return cls("q", i)

    @classmethod
    def carry(cls, from_col: int, to_col: int) -> "VarId":
        if to_col <= from_col:
            raise ValueError(f"carry must move left: {from_col} -> {to_col}")
        return cls("z", from_col, to_col)

    def __str__(self) -> str:
        if self[0] == "z":
            return f"z{self[1]}_{self[2]}"
        return f"{self[0]}{self[1]}"

    def __repr__(self) -> str:
        return f"VarId({self})"

    @classmethod
    def parse(cls, text: str) -> "VarId":
        """Inverse of str(); accepts p<i>, q<i> and z<from>_<to>."""
        kind = text[:1]
        try:
            if kind in ("p", "q"):
                return cls(kind, int(text[1:]))
            if kind == "z":
                frm, to = text[1:].split("_")
                return cls.carry(int(frm), int(to))
        except ValueError:
            pass
        raise ValueError(f"cannot parse variable name {text!r}")


class Monomial(tuple):
    """A squarefree product of variables; the empty monomial is the constant 1."""

    __slots__ = ()

    def __new__(cls, variables: Iterable[VarId] = ()):
        return super().__new__(cls, sorted(set(variables)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple.__add__(self, other))

    @property
    def degree(self) -> int:
        return len(self)

    def __str__(self) -> str:
        return "*".join(str(v) for v in self) if self else "1"


ONE = Monomial()


def _termkey(item):
    # degree first, then lexicographic: constant, linears, pair products, ...
    mono = item[0]
    return (len(mono), mono)


class PseudoBooleanPolynomial:
    """Immutable multilinear polynomial with exact (int or Fraction) coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[dict, Iterable, None] = None):
        # the one place terms are accumulated, zeros dropped and the order fixed
        acc: dict[Monomial, Rational] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for mono, coeff in items:
                if not isinstance(mono, Monomial):
                    mono = Monomial(mono)
                c = acc.get(mono, 0) + coeff
                if c:
                    acc[mono] = c
                else:
                    acc.pop(mono, None)
        self._terms = dict(sorted(acc.items(), key=_termkey))

    @classmethod
    def constant(cls, value: Rational) -> "PseudoBooleanPolynomial":
        return cls({ONE: value} if value else None)

    @classmethod
    def variable(cls, var: VarId) -> "PseudoBooleanPolynomial":
        return cls({Monomial((var,)): 1})

    def items(self) -> Iterator[tuple[Monomial, Rational]]:
        return iter(self._terms.items())

    def coefficient(self, mono: Monomial) -> Rational:
        return self._terms.get(mono, 0)

    @property
    def constant_term(self) -> Rational:
        return self._terms.get(ONE, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def degree(self) -> int:
        return max((m.degree for m in self._terms), default=0)

    def variables(self) -> tuple[VarId, ...]:
        seen = set()
        for mono in self._terms:
            seen.update(mono)
        return tuple(sorted(seen))

    def __add__(self, other) -> "PseudoBooleanPolynomial":
        other = _coerce(other)
        return PseudoBooleanPolynomial(chain(self._terms.items(), other._terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> "PseudoBooleanPolynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "PseudoBooleanPolynomial":
        return _coerce(other) + (-self)

    def __neg__(self) -> "PseudoBooleanPolynomial":
        return PseudoBooleanPolynomial({m: -c for m, c in self._terms.items()})

    def __mul__(self, other) -> "PseudoBooleanPolynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return PseudoBooleanPolynomial()
            return PseudoBooleanPolynomial({m: c * other for m, c in self._terms.items()})
        other = _coerce(other)
        return PseudoBooleanPolynomial(
            (m1 * m2, c1 * c2)  # idempotent union of the monomials
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PseudoBooleanPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined here")
        out = PseudoBooleanPolynomial.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    def evaluate(self, assignment: Mapping[VarId, int]) -> Rational:
        total = 0
        for mono, coeff in self._terms.items():
            for var in mono:
                if not assignment[var]:
                    break
            else:
                total += coeff
        return total

    def substitute(self, fixed: Mapping[VarId, int]) -> "PseudoBooleanPolynomial":
        """Plug in 0/1 values for some variables; others pass through."""
        def surviving_terms():
            for mono, coeff in self._terms.items():
                keep = []
                for var in mono:
                    val = fixed.get(var)
                    if val is None:
                        keep.append(var)
                    elif val == 0:
                        break  # a zero factor kills the term
                else:
                    yield Monomial(keep), coeff

        return PseudoBooleanPolynomial(surviving_terms())

    def without_monomials(self, pair: frozenset) -> "PseudoBooleanPolynomial":
        """Drop every monomial containing all variables of the pair."""
        return PseudoBooleanPolynomial(
            {m: c for m, c in self._terms.items() if not pair.issubset(m)}
        )

    def bounds(self) -> tuple[Rational, Rational]:
        """Value interval treating each monomial as an independent 0/1 term.

        Coarse by design: correlations between monomials are ignored, so
        the true range is contained in the returned one.
        """
        lo = hi = self.constant_term
        for mono, coeff in self._terms.items():
            if mono is ONE or not mono:
                continue
            if coeff > 0:
                hi += coeff
            else:
                lo += coeff
        return lo, hi

    def __eq__(self, other) -> bool:
        if isinstance(other, PseudoBooleanPolynomial):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({ONE: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self._terms.items():
            body = str(mono)
            if mono is ONE or not mono:
                text = str(abs(coeff))
            elif abs(coeff) == 1:
                text = body
            else:
                text = f"{abs(coeff)}*{body}"
            parts.append(("- " if coeff < 0 else "+ ") + text)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self) -> str:
        return f"PseudoBooleanPolynomial({self})"


def _coerce(value) -> PseudoBooleanPolynomial:
    if isinstance(value, PseudoBooleanPolynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return PseudoBooleanPolynomial.constant(value)
    if isinstance(value, VarId):
        return PseudoBooleanPolynomial.variable(value)
    raise TypeError(f"cannot treat {value!r} as a polynomial")


Poly = PseudoBooleanPolynomial
