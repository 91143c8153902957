"""Exact multilinear polynomials over binary variables.

Every equation and penalty is a polynomial in {0,1}-valued variables
with integer coefficients.  Monomials are squarefree (x*x = x), so each
polynomial has a unique normal form: a map from sorted variable tuples to
nonzero coefficients.  Coefficients are plain Python ints, so ground-state
energies are compared against exact zero.  The compiler and the penalty
hold them as {monomial mask: coefficient} under a sorted numbering
(_variable_bits); Poly is their form at the edges (documents, printing,
Infeasible messages, the penalty assemble_problem returns), with builders
and readers but no arithmetic the program calls.  _poly_to_masks and
_masks_to_poly convert.  Poly._from_masks wraps such a dict without
converting it: the term dict is built on first read, and _poly_to_masks
hands the stored dict back to a reader that passes the same numbering,
so a penalty that only becomes a diagonal never builds its Monomials.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, Union

_KINDS = {"p", "q", "z"}


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
        if kind not in _KINDS:
            raise ValueError(f"unknown variable kind {kind!r}")
        return super().__new__(cls, (kind, a, b))

    def __getnewargs__(self):
        # tuple's own passes the whole tuple as kind; copy and pickle need the fields
        return tuple(self)

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
        """Inverse of str(); accepts p<i>, q<i> and z<from>_<to> in canonical form only.

        int() also reads "01", " 1" and "+1", so a name is refused unless
        it prints back as itself.
        """
        kind = text[:1]
        var = None
        try:
            if kind in ("p", "q"):
                var = cls(kind, int(text[1:]))
            elif kind == "z":
                frm, to = text[1:].split("_")
                var = cls.carry(int(frm), int(to))
        except ValueError:
            pass
        if var is None or str(var) != text:
            raise ValueError(f"cannot parse variable name {text!r}")
        return var


class Monomial(tuple):
    """A squarefree product of variables; the empty monomial is the constant 1."""

    __slots__ = ()

    def __new__(cls, variables: Iterable[VarId] = ()):
        return super().__new__(cls, sorted(set(variables)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        """The union of two monomials."""
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
    """Immutable multilinear polynomial with exact integer coefficients."""

    __slots__ = ("_terms", "_masks")

    def __init__(self, terms: Union[dict, Iterable, None] = None):
        self._masks = None
        # the one place terms are accumulated, zeros dropped and the order fixed
        acc: dict[Monomial, int] = {}
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
    def _from_masks(cls, terms: dict[int, int],
                    variables: tuple[VarId, ...]) -> "PseudoBooleanPolynomial":
        """The polynomial of {mask: coefficient} terms under _variable_bits(variables).

        terms is kept, zero coefficients and all, and must not be mutated
        afterwards; the term dict is built from it on first read.
        """
        poly = cls.__new__(cls)
        poly._masks = (terms, variables)
        return poly

    def __getattr__(self, name: str):
        # only a mask-backed polynomial's _terms is ever unset: build it once, on first read
        if name != "_terms" or self._masks is None:
            raise AttributeError(name)
        self._terms = _masks_to_poly(*self._masks)._terms
        return self._terms

    @classmethod
    def constant(cls, value: int) -> "PseudoBooleanPolynomial":
        return cls({ONE: value} if value else None)

    @classmethod
    def variable(cls, var: VarId) -> "PseudoBooleanPolynomial":
        return cls({Monomial((var,)): 1})

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    @property
    def constant_term(self) -> int:
        return self._terms.get(ONE, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def variables(self) -> tuple[VarId, ...]:
        seen = set()
        for mono in self._terms:
            seen.update(mono)
        return tuple(sorted(seen))

    # The program calls no Poly arithmetic: __init__, __mul__, __rmul__ and substitute stay
    # because perfbench's tracer counts their calls and fails when one is missing.

    def __mul__(self, other) -> "PseudoBooleanPolynomial":
        if isinstance(other, int):
            if not other:
                return PseudoBooleanPolynomial()
            return PseudoBooleanPolynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, PseudoBooleanPolynomial):
            return NotImplemented
        return PseudoBooleanPolynomial(
            (m1 * m2, c1 * c2)  # idempotent union of the monomials
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )

    __rmul__ = __mul__

    def substitute(self, fixed: Mapping[VarId, int]) -> "PseudoBooleanPolynomial":
        """Plug in 0/1 values for some variables; others pass through.

        Returns self when no variable of the mapping occurs in the polynomial.
        """
        if fixed.keys().isdisjoint(chain.from_iterable(self._terms)):
            return self

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

    def __eq__(self, other) -> bool:
        if isinstance(other, PseudoBooleanPolynomial):
            return self._terms == other._terms
        if isinstance(other, int):
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
            if not mono:
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


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, highest first: its variables in ascending order."""
    while mask:
        bit = 1 << (mask.bit_length() - 1)
        yield bit
        mask ^= bit


def _mask_order(mask: int) -> tuple[int, int]:
    """Poly's term order on masks: degree, then ascending variables."""
    return mask.bit_count(), -mask


def _variable_bits(variables: tuple[VarId, ...]) -> dict[VarId, int]:
    """Each variable's bit, variables[0] the top one: a monomial's mask is its basis index."""
    return {var: 1 << (len(variables) - 1 - i) for i, var in enumerate(variables)}


def _poly_to_masks(poly: Poly, variables: tuple[VarId, ...]) -> dict[int, int]:
    """poly as {monomial mask: coefficient} under _variable_bits(variables), in poly's order.

    For a mask-backed poly (Poly._from_masks) read under the very numbering
    it was built under, its stored dict as it is: in accumulation order,
    zero coefficients included.  The caller must not mutate the result.
    Raises KeyError when poly mentions a variable outside variables.
    """
    if poly._masks is not None and poly._masks[1] is variables:
        return poly._masks[0]
    bit = _variable_bits(variables)
    return {sum(bit[var] for var in mono): coeff for mono, coeff in poly.items()}


def _masks_to_poly(terms: Mapping[int, int], variables: tuple[VarId, ...]) -> Poly:
    """Inverse of _poly_to_masks; zero coefficients drop out."""
    return Poly((tuple.__new__(Monomial, [variables[-bit.bit_length()] for bit in _bits(mask)]), c)
                for mask, c in terms.items())


Poly = PseudoBooleanPolynomial
