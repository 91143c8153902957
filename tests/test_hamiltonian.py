"""Penalty construction, paired penalties, diagonals, mixer."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiafact import (
    DiagonalOperator,
    DimensionMismatch,
    DimensionTooLarge,
    EmptySystem,
    EquationSystem,
    InconsistentMap,
    Infeasible,
    Monomial,
    Poly,
    QubitMap,
    UnmappedVariable,
    VarId,
    assemble_problem,
    build_layout,
    direct_cost_diagonal,
    enumerate_width_splits,
    gap_profile,
    initial_state,
    interpolated_hamiltonian,
    polynomial_to_diagonal,
    qubit_cap,
    simplify,
)
from adiafact import engine
from adiafact.hamiltonian import _apply_flip_sum, _basis_values
from adiafact.pseudobool import _poly_to_masks

from oracles import (dense_mixer, flip_sum, odd_semiprimes, poly_add, poly_evaluate,
                     poly_multiply, poly_terms)

P1, P2, Q1, Q2 = VarId.p(1), VarId.p(2), VarId.q(1), VarId.q(2)


def poly_of(*terms):
    return Poly([(Monomial(vs), c) for c, vs in terms])


def one_equation_penalty(residual, pairing):
    """The penalty assemble_problem builds for the system of this one residual."""
    system = EquationSystem.from_residuals(143, (4, 4), [(residual, None)], {}, ())
    return assemble_problem(system, pairing)[1]


def degree(poly):
    return max((len(mono) for mono, _ in poly.items()), default=0)


def all_points(variables):
    for bits in product((0, 1), repeat=len(variables)):
        yield dict(zip(variables, bits))


@pytest.fixture(scope="module")
def system143():
    return simplify(build_layout(143, 4, 4))


class TestPenalty:
    def test_square_is_nonnegative_and_exact(self):
        residual = poly_of((1, [P1]), (1, [Q1]), (-1, []))
        penalty = one_equation_penalty(residual, "none")
        for point in all_points([P1, Q1]):
            value = poly_evaluate(penalty, point)
            assert value >= 0
            assert (value == 0) == (poly_evaluate(residual, point) == 0)

    def test_quadratization_preserves_zero_set(self):
        # residual A*B + S over four variables, S with mixed signs
        residual = poly_of(
            (1, [P1, Q2]), (1, [P2, Q1]), (-1, []),
        )
        for pairing in ("first", "last"):
            penalty = one_equation_penalty(residual, pairing)
            for point in all_points([P1, P2, Q1, Q2]):
                value = poly_evaluate(penalty, point)
                assert value >= 0
                assert (value == 0) == (poly_evaluate(residual, point) == 0)

    def test_quadratization_lowers_degree_by_one(self):
        residual = poly_of((1, [P1, Q2]), (1, [P2, Q1]), (-1, []))
        assert degree(one_equation_penalty(residual, "none")) == 4
        assert degree(one_equation_penalty(residual, "last")) == 3

    def test_quadratization_keeps_integer_coefficients(self):
        residual = poly_of((1, [P1, Q2]), (1, [P2, Q1]), (-1, []))
        for pairing in ("first", "last"):
            penalty = one_equation_penalty(residual, pairing)
            assert all(type(c) is int for _, c in penalty.items())

    def test_an_unknown_pairing_is_refused_with_or_without_a_product(self):
        for residual in (poly_of((1, [P1]), (1, [Q1]), (-1, [])),
                         poly_of((1, [P1, Q2]), (1, [P2, Q1]), (-1, []))):
            with pytest.raises(ValueError, match="pairing must be"):
                one_equation_penalty(residual, "bogus")

    def test_pairing_selects_first_or_last_product(self):
        residual = poly_of((1, [P1, Q2]), (1, [P2, Q1]), (-1, []))
        first = one_equation_penalty(residual, "first")
        last = one_equation_penalty(residual, "last")
        # first-pairing keeps the p1*q2 product linear-free; the images differ
        assert first != last
        assert first.coefficient(Monomial((P1, Q2))) == 1
        assert last.coefficient(Monomial((P2, Q1))) == 1


def paired_by_poly_arithmetic(residual, product):
    """A*B + (2A + 2B - 1)*S + 2*S^2 with S = residual - A*B, in the oracle's arithmetic."""
    a, b = product
    ab = frozenset(product)
    s_part = poly_add(residual, {ab: -1})
    linear = {frozenset([a]): 2, frozenset([b]): 2, frozenset(): -1}
    return poly_add({ab: 1}, poly_multiply(linear, s_part),
                    poly_multiply({frozenset(): 2}, s_part, s_part))


class TestPairedProductCoefficient:
    """103 (4, 4), column 3: the product enters with coefficient -1, so S keeps it at -2."""

    @pytest.fixture(scope="class")
    def system103(self):
        return simplify(build_layout(103, 4, 4))

    def column3(self, system):
        (residual,) = [eq.residual for eq in system.equations if eq.column == 3]
        assert str(residual) == "-2 + 2*z3_4 + 4*z3_5 - p1*q2 - p2*q1"
        return residual

    @pytest.mark.parametrize("pairing, product", [("first", (P1, Q2)), ("last", (P2, Q1))])
    def test_quadratization_matches_poly_arithmetic(self, system103, pairing, product):
        residual = self.column3(system103)
        assert poly_add(residual, {frozenset(product): -1})[frozenset(product)] == -2
        expected = paired_by_poly_arithmetic(residual, product)
        assert poly_terms(one_equation_penalty(residual, pairing)) == expected

    @pytest.mark.parametrize("pairing", ["first", "last"])
    def test_assembly_matches_poly_arithmetic(self, system103, pairing):
        expected = {}
        for eq in system103.equations:
            square = poly_multiply(eq.residual, eq.residual)
            products = sorted(tuple(sorted(m)) for m in poly_terms(eq.residual) if len(m) == 2)
            if max(map(len, square), default=0) > 2 and products:
                product = products[0] if pairing == "first" else products[-1]
                square = paired_by_poly_arithmetic(eq.residual, product)
            expected = poly_add(expected, square)
        _, penalty = assemble_problem(system103, pairing)
        assert poly_terms(penalty) == expected
        # in Poly's order: degree first, then the sorted variable tuples
        monomials = [mono for mono, _ in penalty.items()]
        assert monomials == sorted(monomials, key=lambda mono: (len(mono), mono))
        assert penalty.coefficient(Monomial((P1, P2, Q1, Q2))) == 8


def test_penalties_and_diagonals_are_frozen(gates_below_256):
    # tests/gates.py hashes them over 9..1023 in CI; this is its short range
    assert gates_below_256.penalty == (
        "4e38c660b06941edbcef3d523b7d0fedf9a299573874d1609fb24214816e16df", 137, 354,
    )


def _unsolved_systems(lo, hi):
    """Every split of odd n in [lo, hi] that propagation leaves feasible and unsolved."""
    for n in range(lo | 1, hi + 1, 2):
        for w_p, w_q in enumerate_width_splits(n):
            try:
                system = simplify(build_layout(n, w_p, w_q))
            except Infeasible:
                continue
            if not system.is_solved:
                yield system


@pytest.mark.parametrize("pairing", ["last", "first", "none"])
def test_mask_backed_penalties_read_as_their_plain_polys(pairing):
    # each read is the first on its own penalty, so every reader builds the terms itself
    readers = [len, hash, str, lambda poly: list(poly.items())]
    checked = 0
    for system in _unsolved_systems(9, 255):
        qmap, penalty = assemble_problem(system, pairing)
        plain = Poly(list(assemble_problem(system, pairing)[1].items()))
        for read in readers:
            assert read(assemble_problem(system, pairing)[1]) == read(plain)
        assert assemble_problem(system, pairing)[1] == plain
        assert plain == assemble_problem(system, pairing)[1]
        if qmap.n <= qubit_cap():
            # penalty is still unread here: its stored masks give the diagonal
            assert np.array_equal(polynomial_to_diagonal(penalty, qmap).numerators,
                                  polynomial_to_diagonal(plain, qmap).numerators)
        checked += 1
    assert checked == 137


class TestAssembly143:
    def test_first_pairing_reproduces_the_eleven_terms(self, system143):
        _, penalty = assemble_problem(system143, pairing="first")
        expected = poly_of(
            (5, []),
            (-3, [P1]), (-1, [P2]), (-1, [Q1]), (-3, [Q2]),
            (2, [P1, Q1]), (1, [P1, Q2]), (-3, [P2, Q1]), (2, [P2, Q2]),
            (2, [P1, P2, Q1]), (2, [P2, Q1, Q2]),
        )
        assert penalty == expected

    def test_default_pairing_is_the_swapped_image(self, system143):
        _, default = assemble_problem(system143)
        _, first = assemble_problem(system143, pairing="first")
        swap = {P1: Q1, Q1: P1, P2: Q2, Q2: P2}
        swapped = Poly(
            [(Monomial(swap[v] for v in mono), c) for mono, c in first.items()]
        )
        assert default == swapped

    def test_square_mode_keeps_the_degree_four_term(self, system143):
        _, penalty = assemble_problem(system143, pairing="none")
        assert degree(penalty) == 4
        assert penalty.coefficient(Monomial((P1, P2, Q1, Q2))) == 2

    def test_all_modes_share_the_ground_set(self, system143):
        grounds = set()
        for pairing in ("first", "last", "none"):
            qmap, penalty = assemble_problem(system143, pairing=pairing)
            diag = polynomial_to_diagonal(penalty, qmap)
            assert diag.min_energy() == 0
            grounds.add(diag.ground_indices())
        assert grounds == {(6, 9)}

    def test_empty_system(self):
        with pytest.raises(EmptySystem):
            assemble_problem(simplify(build_layout(15, 2, 3)))  # solved in preprocessing


def test_residuals_and_penalties_have_int_coefficients():
    checked = 0
    for target in odd_semiprimes(512):
        for w_p, w_q in enumerate_width_splits(target):
            try:
                system = simplify(build_layout(target, w_p, w_q))
            except Infeasible:
                continue
            polys = [eq.residual for eq in system.equations]
            if not system.is_solved:
                for pairing in ("last", "first", "none"):
                    polys.append(assemble_problem(system, pairing)[1])
            for poly in polys:
                assert all(type(c) is int for _, c in poly.items()), (target, w_p, w_q, poly)
            checked += 1
    assert checked > 100


class TestDiagonal:
    def test_143_energies(self, system143):
        qmap, penalty = assemble_problem(system143, pairing="first")
        diag = polynomial_to_diagonal(penalty, qmap)
        assert [int(e) for e in diag.numerators.tolist()] == [
            5, 2, 4, 1, 4, 3, 0, 1, 2, 0, 3, 1, 1, 1, 1, 3,
        ]
        assert diag.max_energy() == 5
        assert all(type(e) is int for e in diag.numerators.tolist())

    def test_diagonal_matches_pointwise_evaluation(self, system143):
        qmap, penalty = assemble_problem(system143, pairing="first")
        diag = polynomial_to_diagonal(penalty, qmap)
        for index in range(diag.dim):
            point = qmap.assignment_of(index)
            assert diag.numerators[index] == poly_evaluate(penalty, point)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_integer_polynomials_match_pointwise_evaluation(self, data):
        pool = (P1, P2, Q1, Q2, VarId.p(3), VarId.q(3),
                VarId.carry(1, 2), VarId.carry(2, 3), VarId.carry(2, 4), VarId.carry(3, 4))
        qmap = QubitMap(tuple(sorted(pool[: data.draw(st.integers(0, len(pool)), label="n")])))
        monomial = (st.lists(st.sampled_from(qmap.variables), max_size=4)
                    if qmap.n else st.just([]))
        coeff = st.integers(-(2**40), 2**40)
        poly = Poly(data.draw(st.lists(st.tuples(monomial, coeff), max_size=12), label="terms"))
        values = _basis_values(_poly_to_masks(poly, qmap.variables), qmap.n)
        assert values.dtype == np.int64
        assert values.tolist() == [
            poly_evaluate(poly, qmap.assignment_of(index)) for index in range(1 << qmap.n)
        ]

    def test_storage_is_a_read_only_int64_array(self, system143):
        qmap, penalty = assemble_problem(system143, pairing="first")
        diag = polynomial_to_diagonal(penalty, qmap)
        assert diag.numerators.dtype == np.int64
        assert not diag.numerators.flags.writeable
        assert all(type(e) is int for e in diag.numerators.tolist())
        assert diag.ground_indices() == (6, 9)
        assert all(type(i) is int for i in diag.ground_indices())

    def test_fractional_coefficients_are_refused(self):
        # a Poly built from raw terms can still carry a Fraction or a float
        for coeff in (Fraction(1, 3), Fraction(6, 2), 0.5):
            with pytest.raises(ValueError, match="not an integer"):
                polynomial_to_diagonal(poly_of((coeff, [P1]), (1, [])), QubitMap((P1,)))

    def test_non_integer_energies_are_refused(self):
        # int64 storage would truncate 0.5 to a false zero-energy ground state,
        # and wrap the uint64 2^64 - 1 to a false -1
        wraps = np.array([2**64 - 1, 0], dtype=np.uint64)
        for energies in (np.array([0.5, 1.7]), np.array([0.0, 1.0]), [0.5, 1], [2**70, 0], wraps):
            with pytest.raises(ValueError, match="integers"):
                DiagonalOperator(1, energies)
        assert DiagonalOperator(1, np.array([3, -2], dtype=np.int8)).numerators.tolist() == [3, -2]

    def test_equality_is_identity(self, system143):
        qmap, penalty = assemble_problem(system143, pairing="first")
        a = polynomial_to_diagonal(penalty, qmap)
        b = polynomial_to_diagonal(penalty, qmap)
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_length_must_match_the_register(self):
        with pytest.raises(DimensionMismatch):
            DiagonalOperator(2, [0, 1, 2])

    def test_coefficients_that_could_overflow_int64_are_refused(self):
        qmap = QubitMap((P1, Q1))
        fits = polynomial_to_diagonal(poly_of((2**62, [P1]), (2**62 - 1, [Q1])), qmap)
        assert fits.max_energy() == 2**63 - 1
        with pytest.raises(ValueError, match="too large"):
            polynomial_to_diagonal(poly_of((2**62, [P1]), (2**62, [Q1])), qmap)

    def test_unmapped_variable(self, system143):
        _, penalty = assemble_problem(system143, pairing="first")
        with pytest.raises(UnmappedVariable, match=r"^no qubit for \[VarId\(q2\)\]$"):
            polynomial_to_diagonal(penalty, QubitMap((P1, P2, Q1)))

    def test_an_unmapped_variable_is_reported_before_the_cap(self, system143, monkeypatch):
        monkeypatch.setenv("ADIAFACT_MAX_QUBITS", "3")
        _, penalty = assemble_problem(system143, pairing="first")
        with pytest.raises(UnmappedVariable, match=r"^no qubit for \[VarId\(q2\)\]$"):
            polynomial_to_diagonal(penalty, QubitMap((P1, P2, VarId.p(3), Q1)))

    @pytest.mark.parametrize("pairing", ["last", "first", "none"])
    def test_a_mask_backed_penalty_under_a_larger_map(self, system143, pairing):
        # p3 sits between p2 and q1, so every q bit moves under the larger map
        wider = QubitMap((P1, P2, VarId.p(3), Q1, Q2))
        _, penalty = assemble_problem(system143, pairing)
        plain = Poly(list(assemble_problem(system143, pairing)[1].items()))
        energies = polynomial_to_diagonal(penalty, wider).numerators
        assert np.array_equal(energies, polynomial_to_diagonal(plain, wider).numerators)
        assert energies.tolist() == [
            poly_evaluate(plain, wider.assignment_of(index)) for index in range(1 << wider.n)
        ]

    def test_qubit_cap_is_enforced(self, system143, monkeypatch):
        monkeypatch.setenv("ADIAFACT_MAX_QUBITS", "3")
        assert qubit_cap() == 3
        qmap, penalty = assemble_problem(system143, pairing="first")
        with pytest.raises(DimensionTooLarge):
            polynomial_to_diagonal(penalty, qmap)

    def test_qubit_cap_default(self, monkeypatch):
        monkeypatch.delenv("ADIAFACT_MAX_QUBITS", raising=False)
        assert qubit_cap() == 14


class TestQubitMap:
    def test_order_and_indexing(self, system143):
        qmap = QubitMap(system143.variables)
        assert qmap.variables == (P1, P2, Q1, Q2)
        assert qmap.assignment_of(6) == {P1: 0, P2: 1, Q1: 1, Q2: 0}
        assert qmap.assignment_of(9) == {P1: 1, P2: 0, Q1: 0, Q2: 1}

    def test_carries_sort_after_interior_bits(self):
        variables = (P1, Q1, VarId.carry(1, 2), VarId.carry(2, 3))
        qmap = QubitMap(variables)
        assert qmap.variables == variables

    def test_duplicates_rejected(self):
        with pytest.raises(InconsistentMap):
            QubitMap((P1, P1))

    def test_unsorted_rejected(self):
        with pytest.raises(InconsistentMap):
            QubitMap((Q1, P1))


class TestDirectCost:
    def test_21_has_zero_at_3_times_7(self):
        diag = direct_cost_diagonal(21, 2, 3)
        index = (3 << 3) | 7
        assert diag.numerators[index] == 0
        assert diag.min_energy() == 0

    def test_143_spectral_range(self):
        diag = direct_cost_diagonal(143, 4, 4)
        assert diag.min_energy() == 0
        assert diag.max_energy() == 20449  # (143 - 0*0)^2
        assert type(diag.max_energy()) is int and type(diag.min_energy()) is int

    def test_costs_that_could_overflow_int64_are_refused(self):
        # (10**10 - 9)^2 wrapped around int64, and 2**70 overflowed inside numpy
        for target in (10**10, 2**70, 3037000500):
            with pytest.raises(ValueError, match="too large for an int64 diagonal"):
                direct_cost_diagonal(target, 2, 2)
        # 3037000499^2 is the largest square below 2^63
        assert direct_cost_diagonal(3037000499, 1, 1).max_energy() == 3037000499**2
        assert direct_cost_diagonal(10**9, 2, 2).min_energy() == (10**9 - 9) ** 2

    def test_validation(self):
        with pytest.raises(ValueError):
            direct_cost_diagonal(0, 2, 2)
        with pytest.raises(DimensionTooLarge):
            direct_cost_diagonal(3, 10, 10)


class TestMixerAndInterpolation:
    def test_matrix_is_symmetric_single_flip(self):
        zero = DiagonalOperator(3, np.zeros(8, dtype=np.int64))
        matrix = interpolated_hamiltonian(0.0, 0.6, zero)
        assert np.array_equal(matrix, matrix.T)
        for i in range(8):
            for j in range(8):
                expected = 0.6 if bin(i ^ j).count("1") == 1 else 0.0
                assert matrix[i, j] == expected

    def test_initial_state_is_mixer_ground_state(self):
        for n in (1, 2, 4):
            mixer = interpolated_hamiltonian(0.0, 0.6, DiagonalOperator(n, np.arange(1 << n)))
            psi = initial_state(n)
            residual = mixer @ psi - (-n * 0.6) * psi
            assert np.max(np.abs(residual)) < 1e-12

    def test_field_must_be_positive(self):
        diag = DiagonalOperator(2, np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            interpolated_hamiltonian(0.5, 0.0, diag)
        with pytest.raises(ValueError):
            interpolated_hamiltonian(0.5, -1.0, diag)

    def test_field_must_be_finite(self):
        diag = DiagonalOperator(2, np.zeros(4, dtype=np.int64))
        for g in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="field strength"):
                interpolated_hamiltonian(0.5, g, diag)

    def test_interpolation_endpoints(self, system143):
        qmap, penalty = assemble_problem(system143, pairing="first")
        diag = polynomial_to_diagonal(penalty, qmap)
        h0 = interpolated_hamiltonian(0.0, 0.6, diag)
        h1 = interpolated_hamiltonian(1.0, 0.6, diag)
        assert np.array_equal(h0, dense_mixer(4, 0.6))
        assert np.array_equal(h1, np.diag(diag.as_array))
        hermiticity = np.max(np.abs(h0 - h0.conj().T))
        assert hermiticity <= 1e-12

    def test_interpolation_validation(self, system143):
        qmap, penalty = assemble_problem(system143, pairing="first")
        diag = polynomial_to_diagonal(penalty, qmap)
        with pytest.raises(ValueError):
            interpolated_hamiltonian(1.5, 0.6, diag)
        with pytest.raises(ValueError):
            interpolated_hamiltonian(-0.1, 0.6, diag)

    def test_an_array_of_s_stacks_the_matrices_in_order(self):
        diag = DiagonalOperator(3, np.random.default_rng(4).integers(-20, 20, 8))
        s_values = np.array([0.0, 0.05, 0.37, 0.37, 1.0])
        stack = interpolated_hamiltonian(s_values, 0.6, diag)
        assert stack.shape == (5, 8, 8)
        for s, matrix in zip(s_values, stack):
            assert np.array_equal(matrix, interpolated_hamiltonian(s, 0.6, diag))
        assert interpolated_hamiltonian(np.array([0.5]), 0.6, diag).shape == (1, 8, 8)
        assert interpolated_hamiltonian(np.float64(0.5), 0.6, diag).shape == (8, 8)

    def test_a_stack_is_checked_before_anything_is_allocated(self):
        import tracemalloc

        diag = DiagonalOperator(6, np.zeros(64, dtype=np.int64))
        stack_bytes = 64 * 64 * 64 * 8
        for bad in (1.5, -0.1, float("nan")):
            s_values = np.full(64, 0.5)
            s_values[37] = bad
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"got {bad}"):
                    interpolated_hamiltonian(s_values, 0.6, diag)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < stack_bytes // 100
        with pytest.raises(ValueError, match="field strength"):
            interpolated_hamiltonian(np.full(64, 0.5), 0.0, diag)
        with pytest.raises(ValueError, match="1-D array"):
            interpolated_hamiltonian(np.full((2, 2), 0.5), 0.6, diag)

    def test_matches_the_oracle_mixer_plus_the_diagonal(self):
        rng = np.random.default_rng(3)
        diagonals = [
            DiagonalOperator(n, rng.integers(0, 40, 1 << n)) for n in (1, 3, 4)
        ] + [DiagonalOperator(3, rng.integers(-20, 20, 8))]
        for diag in diagonals:
            for g in (0.3, 0.6, 1.7):
                for s in (0.0, 0.05, 0.37, 0.5, 0.9, 1.0):
                    expected = (1 - s) * dense_mixer(diag.n, g) + np.diag(s * diag.as_array)
                    h = interpolated_hamiltonian(s, g, diag)
                    assert np.array_equal(h, expected), (diag.n, g, s)

    def test_matrix_free_product_matches_the_dense_matrix(self):
        # H(s) = (1 - s) * g * sum_i X_i + diag(s * E) built from the flip sum
        # the way the engine builds it
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            diag = DiagonalOperator(n, rng.integers(-60, 60, 1 << n))
            for s in (0.0, 1.0, *rng.uniform(0.0, 1.0, 3)):
                g = rng.uniform(0.05, 2.0)
                h = interpolated_hamiltonian(s, g, diag)
                for v in (rng.normal(size=1 << n), rng.normal(size=(2, 1 << n))):
                    flips, scratch = np.empty_like(v), np.empty_like(v)
                    _apply_flip_sum(v, flips, scratch)
                    got = (1 - s) * g * flips + s * diag.as_array * v
                    assert np.max(np.abs(got - v @ h)) <= 1e-13, (n, s, g, v.shape)

    def test_blocked_product_matches_the_flip_sum_oracle(self):
        # 1..19 qubits take one block up to 5 qubits, then two, three from 11
        # qubits and four from 16 (_flip_blocks), with blocks of 1 to 5
        # qubits at the bottom, in the middle and on top.  Above 16 qubits,
        # two vectors keep the cost down.
        rng = np.random.default_rng(29)
        for n in range(1, 20):
            dim = 1 << n
            vectors = (rng.normal(size=dim), rng.normal(size=(2, dim)))
            if n <= 16:
                vectors += (rng.normal(size=(4, dim)),)
            if n <= 12:
                # stacks of states, one product per call; the (2, 3) stack
                # has two leading axes
                for shape in ((1, dim), (3, dim), (6, dim), (2, 3, dim)):
                    vectors += (rng.normal(size=shape),)
            for v in vectors:
                before = v.copy()
                out, scratch = np.full_like(v, np.nan), np.full_like(v, np.nan)
                assert _apply_flip_sum(v, out, scratch) is None
                # only out and scratch are written, and every entry of out
                assert np.array_equal(v, before)
                for row, state in zip(out.reshape(-1, dim), v.reshape(-1, dim)):
                    assert np.max(np.abs(row - flip_sum(state))) <= 1e-13, (n, v.shape)

    def test_the_cap_is_checked_before_anything_is_built(self, monkeypatch):
        four = DiagonalOperator(4, np.zeros(16, dtype=np.int64))
        monkeypatch.setenv("ADIAFACT_MAX_QUBITS", "3")
        with pytest.raises(DimensionTooLarge):
            interpolated_hamiltonian(0.5, 0.6, four)
        with pytest.raises(DimensionTooLarge):
            interpolated_hamiltonian(np.full(8, 0.5), 0.6, four)
        with pytest.raises(DimensionTooLarge):
            gap_profile(four, 0.6, points=3, k=2)
        # a register the filtered path would take fails before its block exists
        def no_block(*args):
            raise AssertionError("filtered block allocated")

        nine = DiagonalOperator(9, np.zeros(512, dtype=np.int64))
        monkeypatch.setenv("ADIAFACT_MAX_QUBITS", "8")
        monkeypatch.setattr(engine, "_filtered_lowest", no_block)
        with pytest.raises(DimensionTooLarge, match="9 qubits exceed the cap of 8"):
            gap_profile(nine, 0.6, points=3, k=2)
