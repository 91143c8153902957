"""Polynomial algebra over binary variables."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiafact import Monomial, Poly, VarId, assemble_problem, compile_system
from adiafact.pseudobool import _masks_to_poly, _poly_to_masks, _variable_bits

from oracles import poly_add, poly_bounds, poly_evaluate, poly_multiply, poly_terms


def poly_of(*terms):
    return Poly([(Monomial(vs), c) for c, vs in terms])


def test_varid_ordering_is_p_then_q_then_carries():
    ordered = [VarId.p(1), VarId.p(2), VarId.q(1), VarId.q(3), VarId.carry(1, 2), VarId.carry(2, 3)]
    assert sorted(reversed(ordered)) == ordered


def test_varid_str_roundtrip():
    for var in (VarId.p(1), VarId.q(12), VarId.carry(3, 5)):
        assert VarId.parse(str(var)) == var
    with pytest.raises(ValueError):
        VarId.parse("x3")
    # int() reads all of these; only the canonical spelling names a variable
    for text in ("p01", "p 1", "p+1", "q1 ", " q1", "z1_02", "z01_2", "z1_ 2", "p1_0", "p"):
        with pytest.raises(ValueError):
            VarId.parse(text)
    with pytest.raises(ValueError):
        VarId.carry(4, 2)


def test_copies_and_pickles_round_trip_equal():
    system = compile_system(143, (4, 4))
    _, penalty = assemble_problem(system)  # mask-backed and unread
    for value in (VarId.p(1), VarId.carry(2, 4), Monomial((VarId.q(2), VarId.p(1))), penalty,
                  system):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value


def test_monomial_is_sorted_and_squarefree():
    x, y = VarId.p(1), VarId.q(1)
    assert Monomial((y, x, y)) == Monomial((x, y))
    assert Monomial((x,)) * Monomial((x, y)) == Monomial((x, y))
    assert Monomial().degree == 0


def test_monomial_product_is_the_sorted_union():
    pool = [VarId.p(1), VarId.p(2), VarId.q(1), VarId.q(2), VarId.carry(1, 2)]
    rng = random.Random(5)
    for _ in range(300):
        a = Monomial(rng.sample(pool, rng.randint(0, 3)))
        b = Monomial(rng.sample(pool, rng.randint(0, 3)))
        product = a * b
        assert type(product) is Monomial
        assert tuple(product) == tuple(sorted(set(a) | set(b)))


def test_idempotent_square():
    x = Poly.variable(VarId.p(1))
    assert x * x == x
    assert (2 * x) * (2 * x) * (2 * x) == 8 * x


def test_arithmetic_matches_pointwise_evaluation():
    # the library's product and the oracle's sum and product, against the oracle's values
    rng = random.Random(7)
    variables = [VarId.p(1), VarId.p(2), VarId.q(1)]

    def random_poly():
        terms = []
        for _ in range(rng.randint(1, 6)):
            mono = Monomial(rng.sample(variables, rng.randint(0, 3)))
            terms.append((mono, rng.randint(-9, 9)))
        return Poly(terms)

    for _ in range(50):
        a, b = random_poly(), random_poly()
        for bits in range(8):
            point = {v: (bits >> i) & 1 for i, v in enumerate(variables)}
            va, vb = poly_evaluate(a, point), poly_evaluate(b, point)
            assert poly_evaluate(a * b, point) == va * vb
            assert poly_evaluate(poly_multiply(a, b), point) == va * vb
            assert poly_evaluate(poly_add(a, b), point) == va + vb
            assert poly_evaluate(poly_add(a, poly_multiply(b, {frozenset(): -1})), point) == va - vb
        assert poly_terms(a * b) == poly_multiply(a, b)


def test_int_coefficients_stay_int():
    x, y = VarId.p(1), VarId.q(1)
    linear = poly_of((1, [x]), (-2, [y]), (3, []))
    poly = linear * linear
    results = [poly, poly.substitute({x: 1}), 3 * poly, poly * -1]
    assert all(type(c) is int for p in results for _, c in p.items())
    assert type(poly.constant_term) is int and type(Poly().constant_term) is int


def test_fractional_operands_are_refused():
    # coefficients are ints only; a Fraction or float operand is no polynomial
    x = Poly.variable(VarId.p(1))
    for value in (Fraction(1, 3), Fraction(6, 2), 0.5):
        with pytest.raises(TypeError):
            value * x
        with pytest.raises(TypeError):
            x * value


def test_zero_coefficients_vanish():
    x = VarId.p(1)
    assert not poly_of((1, [x]), (-1, [x]))
    assert len(poly_of((1, [x]), (1, []), (-1, [x]))) == 1
    assert Poly.variable(x) * 0 == Poly()
    assert Poly.constant(0) == Poly()


def test_substitute_fixes_values():
    x, y = VarId.p(1), VarId.q(1)
    poly = poly_of((1, [x, y]), (2, [x]), (-1, []))
    assert poly.substitute({x: 1}) == poly_of((1, [y]), (1, []))
    assert poly.substitute({x: 0}) == Poly.constant(-1)
    assert poly.substitute({}) == poly


def test_substitute_without_a_shared_variable_returns_the_polynomial_itself():
    x, y, z = VarId.p(1), VarId.q(1), VarId.carry(1, 2)
    poly = poly_of((1, [x, y]), (2, [x]), (-1, []))
    for fixed in ({}, {z: 0}, {z: 1, VarId.p(2): 0}):
        same = poly.substitute(fixed)
        assert same is poly
        assert same == poly_of((1, [x, y]), (2, [x]), (-1, []))
    assert Poly().substitute({x: 1}) == Poly()
    # one shared variable among unrelated ones still substitutes
    fixed = poly.substitute({z: 1, y: 0})
    assert fixed is not poly and fixed == poly_of((2, [x]), (-1, []))


def test_bounds_treat_monomials_independently():
    # the oracle's interval, which the propagator's intervals are checked against
    x, y = VarId.p(1), VarId.q(1)
    poly = poly_of((1, [x]), (1, [y]), (-2, [x, y]), (-1, []))
    lo, hi = poly_bounds(poly)
    assert lo == -3 and hi == 1
    # the true range is narrower; the bound must contain it
    values = [
        poly_evaluate(poly, {x: a, y: b}) for a in (0, 1) for b in (0, 1)
    ]
    assert lo <= min(values) and max(values) <= hi


def test_canonical_term_order_is_degree_then_lex():
    x, y = VarId.p(1), VarId.q(1)
    poly = poly_of((1, [y, x]), (1, [y]), (1, [x]), (-5, []))
    monomials = [mono for mono, _ in poly.items()]
    assert monomials == [Monomial(), Monomial((x,)), Monomial((y,)), Monomial((x, y))]


def test_variables_are_sorted_and_distinct():
    x, y = VarId.p(1), VarId.q(2)
    poly = poly_of((1, [y, x]), (2, [y]), (3, []))
    assert poly.variables() == (x, y)
    assert Poly.constant(4).variables() == ()


_MASK_POOL = [VarId.p(i) for i in range(1, 5)] + [VarId.q(i) for i in range(1, 5)] + [
    VarId.carry(1, 2), VarId.carry(2, 3), VarId.carry(2, 4), VarId.carry(3, 5),
]


@st.composite
def _numbered_polys(draw):
    """A random Poly and a sorted variable tuple that holds at least its variables."""
    monomial = st.lists(st.sampled_from(_MASK_POOL), max_size=5).map(Monomial)
    poly = Poly(draw(st.lists(st.tuples(monomial, st.integers(-50, 50)), max_size=12)))
    extra = draw(st.sets(st.sampled_from(_MASK_POOL)))
    return poly, tuple(sorted(extra.union(poly.variables())))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_numbered_polys())
def test_masks_round_trip_in_poly_order(numbered):
    poly, variables = numbered
    masks = _poly_to_masks(poly, variables)
    assert _masks_to_poly(masks, variables) == poly
    # degree first, then ascending variables: popcount, then descending mask
    assert list(masks) == sorted(masks, key=lambda mask: (mask.bit_count(), -mask))
    # a monomial's mask is the OR of its variables' bits, variables[0] the top bit
    bit = _variable_bits(variables)
    assert list(bit.values()) == [1 << i for i in reversed(range(len(variables)))]
    for mono, mask in zip((mono for mono, _ in poly.items()), masks):
        assert mask == sum(bit[var] for var in mono)
