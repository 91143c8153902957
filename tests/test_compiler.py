"""Table layout and constraint propagation."""

import contextlib
import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiafact import (
    EquationSystem,
    EvenInput,
    Infeasible,
    InvariantViolation,
    Monomial,
    Poly,
    TooSmall,
    VarId,
    WidthMismatch,
    build_layout,
    compiler,
    decode_assignment,
    enumerate_width_splits,
    simplify,
    system_from_document,
    system_to_document,
)
from adiafact.pseudobool import _variable_bits

import oracles
from gates import walk


def poly_of(*terms):
    return Poly([(Monomial(vs), c) for c, vs in terms])


def residuals(system):
    return [eq.residual for eq in system.equations]


class TestWidthSplits:
    def test_143_order(self):
        assert enumerate_width_splits(143) == [
            (4, 4), (4, 5), (3, 5), (3, 6), (2, 6), (2, 7),
        ]

    def test_balanced_split_first_for_25(self):
        splits = enumerate_width_splits(25)
        assert splits[0] == (3, 3)
        assert (2, 3) in splits

    def test_9(self):
        assert enumerate_width_splits(9) == [(2, 2), (2, 3)]

    def test_sum_n_split_of_25_has_no_solution(self):
        # brute force over all odd candidates with top bit set
        for w_p, w_q in enumerate_width_splits(25):
            if w_p + w_q != 5:
                continue
            products = {
                p * q
                for p in oracles.candidate_factors(w_p)
                for q in oracles.candidate_factors(w_q)
            }
            assert 25 not in products

    def test_rejects_bad_targets(self):
        with pytest.raises(EvenInput):
            enumerate_width_splits(144)
        with pytest.raises(TooSmall):
            enumerate_width_splits(7)


class TestLayout:
    def test_143_column_count_and_trivial_column(self):
        system = build_layout(143, 4, 4)
        assert len(system.equations) == 8
        c0 = system.equations[0]
        # 1 = 1: the pinned bits' product balances target bit 0
        assert c0.column == 0 and c0.residual == Poly()

    def test_143_column_1(self):
        eq = build_layout(143, 4, 4).equations[1]
        # p1 + q1 = 1 + 2*z1_2
        assert eq.residual == poly_of(
            (1, [VarId.p(1)]), (1, [VarId.q(1)]),
            (-1, []), (-2, [VarId.carry(1, 2)]),
        )

    def test_143_column_3(self):
        eq = build_layout(143, 4, 4).equations[3]
        # 2 + p1*q2 + p2*q1 + z2_3 = 1 + 2*z3_4 + 4*z3_5
        assert eq.residual == poly_of(
            (2, []),
            (1, [VarId.p(1), VarId.q(2)]),
            (1, [VarId.p(2), VarId.q(1)]),
            (1, [VarId.carry(2, 3)]),
            (-1, []),
            (-2, [VarId.carry(3, 4)]),
            (-4, [VarId.carry(3, 5)]),
        )
        # the views: positive variable terms on the left, the rest negated on the right
        assert str(eq) == "z2_3 + p1*q2 + p2*q1 = -1 + 2*z3_4 + 4*z3_5"
        assert oracles.poly_add(eq.lhs, oracles.poly_multiply({frozenset(): -1}, eq.rhs)) == \
            oracles.poly_terms(eq.residual)

    def test_143_carry_set_matches_budgets(self):
        system = build_layout(143, 4, 4)
        carries = {v for eq in system.equations for v in eq.residual.variables() if v.kind == "z"}
        expected = {
            VarId.carry(1, 2),
            VarId.carry(2, 3), VarId.carry(2, 4),
            VarId.carry(3, 4), VarId.carry(3, 5),
            VarId.carry(4, 5), VarId.carry(4, 6),
            VarId.carry(5, 6), VarId.carry(5, 7),
            VarId.carry(6, 7),
        }
        assert carries == expected

    def test_last_column_emits_no_carry(self):
        for target, w_p, w_q in ((143, 4, 4), (35, 3, 3), (15, 2, 3)):
            system = build_layout(target, w_p, w_q)
            last = w_p + w_q - 1
            for eq in system.equations:
                for var in eq.residual.variables():
                    if var.kind == "z":
                        assert var[2] <= last

    def test_carry_coefficients_are_powers_of_two(self):
        for eq in build_layout(143, 4, 4).equations:
            for mono, coeff in eq.rhs.items():
                if len(mono) == 0:
                    continue
                assert type(coeff) is int and coeff > 0 and coeff & (coeff - 1) == 0

    def test_width_validation(self):
        with pytest.raises(WidthMismatch):
            build_layout(143, 3, 4)  # sums to 7, need 8 or 9
        with pytest.raises(WidthMismatch):
            build_layout(143, 5, 4)  # w_p > w_q
        with pytest.raises(WidthMismatch):
            build_layout(143, 1, 7)


class TestSimplify143:
    def test_143_reaches_the_known_fixpoint(self):
        system = simplify(build_layout(143, 4, 4))
        p1, p2, q1, q2 = VarId.p(1), VarId.p(2), VarId.q(1), VarId.q(2)
        assert residuals(system) == [
            poly_of((1, [p1]), (1, [q1]), (-1, [])),
            poly_of((1, [p2]), (1, [q2]), (-1, [])),
            poly_of((1, [p1, q2]), (1, [p2, q1]), (-1, [])),
        ]
        assert system.fixed == {
            VarId.carry(1, 2): 0,
            VarId.carry(2, 3): 0,
            VarId.carry(2, 4): 0,
            VarId.carry(3, 4): 1,
            VarId.carry(3, 5): 0,
            VarId.carry(4, 5): 1,
            VarId.carry(4, 6): 0,
            VarId.carry(5, 6): 1,
            VarId.carry(5, 7): 0,
            VarId.carry(6, 7): 1,
        }
        assert set(system.forbidden_pairs) == {
            frozenset((p1, q1)),
            frozenset((p2, q2)),
        }
        assert system.variables == (p1, p2, q1, q2)

    def test_every_carry_is_fixed(self):
        system = simplify(build_layout(143, 4, 4))
        assert all(v.kind == "z" for v in system.fixed)
        assert len(system.fixed) == 10

    def test_idempotent(self):
        # every feasible split of odd n in 9..255, 143 at (4, 4) among them; a
        # second simplify hands the propagator fixed values and pairs
        splits = [(n, *widths) for n in range(9, 256, 2) for widths in enumerate_width_splits(n)]
        feasible = 0
        for split in splits:
            try:
                once = simplify(build_layout(*split))
            except Infeasible:
                continue
            feasible += 1
            twice = simplify(once)
            assert residuals(twice) == residuals(once), split
            assert twice.fixed == once.fixed, split
            assert twice.forbidden_pairs == once.forbidden_pairs, split
            assert twice.variables == once.variables, split
        assert feasible == 208


class TestSimplifyGeneral:
    def test_single_equation_example(self):
        # p1 + q1 = 1 + 2z: z must be 0, pair {p1, q1} recorded
        p1, q1, z = VarId.p(1), VarId.q(1), VarId.carry(1, 2)
        residual = poly_of((1, [p1]), (1, [q1]), (-1, []), (-2, [z]))
        system = EquationSystem.from_residuals(143, (4, 4), [(residual, 1)], {}, ())
        reduced = simplify(system)
        assert reduced.fixed == {z: 0}
        assert reduced.forbidden_pairs == (frozenset((p1, q1)),)
        assert residuals(reduced) == [poly_of((1, [p1]), (1, [q1]), (-1, []))]

    def test_25_with_2_3_is_infeasible(self):
        with pytest.raises(Infeasible):
            simplify(build_layout(25, 2, 3))

    def test_9_solves_completely(self):
        system = simplify(build_layout(9, 2, 2))
        assert system.is_solved
        assert not system.equations

    @pytest.mark.parametrize("value", [1, 0])
    def test_an_input_pair_with_a_fixed_member_is_settled(self, value):
        # the pair {p1, p2} over p1, which the input already fixes: p1 = 1
        # sends p2 to 0, and p1 = 0 leaves nothing for the pair to forbid
        p1, p2, q1 = VarId.p(1), VarId.p(2), VarId.q(1)
        residual = poly_of((1, [p2]), (1, [q1]), (-1, []))
        system = simplify(EquationSystem.from_residuals(
            143, (4, 4), [(residual, None)], {p1: value}, (frozenset((p1, p2)),)))
        if value:
            assert system.is_solved and not system.equations
            assert system.fixed == {p1: 1, p2: 0, q1: 1}
            assert system.forbidden_pairs == ()
        else:
            assert system.variables == (p2, q1)
            assert system.fixed == {p1: 0}
            assert system.forbidden_pairs == (frozenset((p2, q1)),)
            assert residuals(system) == [residual]
        assert system_from_document(system_to_document(system)) == system

    def test_pass_budget_overrun_is_typed(self, monkeypatch):
        from adiafact import compiler

        monkeypatch.setattr(compiler._Propagator, "_pass", lambda self: True)
        with pytest.raises(InvariantViolation, match="fixpoint"):
            simplify(build_layout(143, 4, 4))


class TestCompileDigest:
    def test_output_below_256_is_frozen(self, gates_below_256):
        # every document, equation column and verdict of the 640 splits of
        # odd n in 9..255, 147 at widths (3, 5) among them; a propagator
        # change that moves any of them must declare it and re-freeze this
        digest = "2c0b31af5c3df24d64f800e2ef3072ddec10c15970a636b02ca9427eaa49473c"
        assert gates_below_256.compile == (digest, 640, 208)

    def test_large_screen_targets_are_frozen(self):
        # the screen workload's large targets: 1763 = 41*43, and 10403 = 101*103,
        # 30227 = 167*181 and the prime 1046527 past the 9..2047 range CI hashes
        digest = "8e149f60722297114f7820d2634c6423942777fdaa9799cb61b7ffc306f13657"
        assert walk((1763, 10403, 30227, 1046527)).compile == (digest, 52, 34)

    def test_infeasible_messages_below_256_are_frozen(self, gates_below_256):
        # tests/gates.py hashes them over 9..2047 and the large targets in CI
        digest = "fd823fa2c23997a3031880aa9741e99c282f2887beae34fa9da45a50cfaef369"
        assert gates_below_256.infeasible == (digest, 432)


def _pass_log(monkeypatch) -> list:
    """Record what every propagation pass returns, in order."""
    log = []
    original = compiler._Propagator._pass

    def logged(self):
        log.append(original(self))
        return log[-1]

    monkeypatch.setattr(compiler._Propagator, "_pass", logged)
    return log


_PROBE_VARS = [VarId.p(i) for i in range(1, 4)] + [VarId.q(i) for i in range(1, 4)]


@st.composite
def _probes(draw):
    """A multilinear polynomial, a pair set and a one-variable trial with its partners."""
    variables = _PROBE_VARS[: draw(st.integers(1, len(_PROBE_VARS)))]
    monomials = st.sets(st.sampled_from(variables), max_size=4).map(Monomial)
    # integers only, as every row the propagator sees holds; -12..12 covers
    # the small coefficients of real rows and larger ones that cancel unevenly
    coeffs = st.integers(-12, 12).filter(bool)
    var = draw(st.sampled_from(variables))
    terms = draw(st.lists(st.tuples(monomials, coeffs), max_size=10))
    # m and m*var with opposite coefficients cancel once var is set to 1
    twins = draw(st.lists(st.tuples(monomials, coeffs), max_size=3))
    terms += twins + [(mono * Monomial((var,)), -coeff) for mono, coeff in twins]
    two = st.sets(st.sampled_from(variables), min_size=2, max_size=2).map(frozenset)
    pairs = draw(st.sets(two, max_size=5)) if len(variables) > 1 else set()
    trial = {var: draw(st.sampled_from((0, 1)))}
    if trial[var]:
        for pair in pairs:
            if var in pair:
                (other,) = pair - {var}
                trial[other] = 0
    return Poly(terms), pairs, trial


def _pair_narrowed_bounds(poly, pairs):
    """The oracle's bounds, narrowed by the pairs as an independent reference for the propagator.

    Of two linear terms of one sign whose variables form a pair, at most one
    is active, so the smaller one comes back off; the pairs match greedily,
    in order of their sorted variable tuples, each term at most once.
    """
    lo, hi = oracles.poly_bounds(poly)
    terms = oracles.poly_terms(poly)
    linear = {min(mono): coeff for mono, coeff in terms.items() if len(mono) == 1}
    used = set()
    for x, y in sorted(tuple(sorted(pair)) for pair in pairs):
        if used & {x, y} or x not in linear or y not in linear:
            continue
        cx, cy = linear[x], linear[y]
        if cx > 0 and cy > 0:
            hi -= min(cx, cy)
            used |= {x, y}
        elif cx < 0 and cy < 0:
            lo -= max(cx, cy)
            used |= {x, y}
    return lo, hi


def _probed(poly, pairs, var):
    """The propagator of a one-row system holding poly, and its probe of var on that row."""
    # the second equation numbers var even where poly does not mention it
    residuals = [(poly, None), (Poly.variable(var), None)]
    system = EquationSystem.from_residuals(143, (4, 4), residuals, {}, tuple(pairs))
    propagator = compiler._Propagator(system)
    row = propagator.rows[0]
    return propagator, propagator._probe(row, _variable_bits(system.variables)[var],
                                         propagator._own_pairs(row.variables))


@st.composite
def _paired_rows(draw):
    """A row of at most six variables with int coefficients, most of them linear, and pairs."""
    variables = _PROBE_VARS[: draw(st.integers(2, len(_PROBE_VARS)))]
    size = len(variables)
    linear = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    terms = [(coeff, [var]) for var, coeff in zip(variables, linear) if coeff]
    monomials = st.sets(st.sampled_from(variables), max_size=3).map(list)
    terms += draw(st.lists(st.tuples(st.integers(-4, 4).filter(bool), monomials), max_size=4))
    two = st.sets(st.sampled_from(variables), min_size=2, max_size=2).map(frozenset)
    return poly_of(*terms), variables, draw(st.sets(two, max_size=6))


@st.composite
def _pair_records(draw):
    """A variable count up to 8, steps of _add_pair and _fix on their bits, and masks to read."""
    size = draw(st.integers(2, 8))
    var = st.integers(0, size - 1).map(lambda i: 1 << i)
    pair = st.tuples(st.just("pair"), var, var).filter(lambda step: step[1] != step[2])
    fix = st.tuples(st.just("fix"), var, st.sampled_from((0, 1)))
    steps = draw(st.lists(st.one_of(pair, pair, fix), max_size=24))
    masks = draw(st.lists(st.integers(0, (1 << size) - 1), min_size=1, max_size=4))
    return size, steps, masks + [(1 << size) - 1]


class TestPairRecord:
    """The pairs among a mask, derived from the partner masks, follow every change to them."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_pair_records())
    def test_own_pairs_are_the_standing_pairs_in_descending_order(self, record):
        size, steps, masks = record
        variables = tuple(sorted([VarId.p(i) for i in range(1, 5)] +
                                 [VarId.q(i) for i in range(1, 5)])[:size])
        propagator = compiler._Propagator(EquationSystem(143, (4, 4), variables, (), {}, ()))
        standing = set()  # every pair recorded and not yet dropped, as masks

        def check():
            for mask in masks:
                expected = sorted([p for p in standing if p & mask == p], reverse=True)
                assert propagator._own_pairs(mask) == expected, (mask, steps)

        check()
        for step, x, y in steps:
            fixed = propagator.ones | propagator.zeros
            try:
                if step == "pair":
                    propagator._add_pair(x, y)
                    if not (x | y) & fixed:
                        standing.add(x | y)
                else:
                    propagator._fix(x, y)
            except Infeasible:
                return  # propagation stops here
            # a fixed variable is in no pair
            fixed = propagator.ones | propagator.zeros
            standing = {p for p in standing if not p & fixed}
            check()


class TestPairRule:
    """Pairs narrow the row and trial intervals without cutting off a value the row can take."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_paired_rows())
    def test_narrowed_intervals_are_the_greedy_ones_and_hold_every_value(self, row):
        poly, variables, pairs = row
        residuals = [(poly, None)] + [(Poly.variable(var), None) for var in variables]
        system = EquationSystem.from_residuals(143, (4, 4), residuals, {}, tuple(pairs))
        bit = _variable_bits(system.variables)
        # the interval _apply_rules checks is its first call of the pair rule
        intervals = []
        sharpen = compiler._Propagator._sharpen

        def recorded(*args):
            intervals.append(sharpen(*args))
            return intervals[-1]

        with mock.patch.object(compiler._Propagator, "_sharpen", staticmethod(recorded)):
            propagator = compiler._Propagator(system)
            row = propagator.rows[0]
            with contextlib.suppress(Infeasible):
                propagator._apply_rules(row, propagator._own_pairs(row.variables))
        lo, hi = intervals[0]
        assert (lo, hi) == _pair_narrowed_bounds(poly, pairs)
        propagator = compiler._Propagator(system)  # _apply_rules may have fixed variables
        row = propagator.rows[0]
        own = propagator._own_pairs(row.variables)
        probes = {var: propagator._probe(row, bit[var], own) for var in variables}
        for var, trials in probes.items():
            partners = [other for pair in pairs if var in pair for other in pair - {var}]
            at_one = dict.fromkeys(partners, 0) | {var: 1}
            assert trials == (_pair_narrowed_bounds(oracles.poly_substitute(poly, {var: 0}), pairs),
                              _pair_narrowed_bounds(oracles.poly_substitute(poly, at_one), pairs))
        for values in itertools.product((0, 1), repeat=len(variables)):
            assignment = dict(zip(variables, values))
            if any(all(assignment[var] for var in pair) for pair in pairs):
                continue
            value = oracles.poly_evaluate(poly, assignment)
            assert lo <= value <= hi
            for var, trials in probes.items():
                t_lo, t_hi = trials[assignment[var]]
                assert t_lo <= value <= t_hi, (var, assignment[var])


class TestIncrementalPropagation:
    """Skipped rows and the closed-form probe change no result of the propagator."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_probes())
    def test_probe_bounds_match_the_substituted_polynomial(self, probe):
        poly, pairs, trial = probe
        var, value = next(iter(trial.items()))
        _, intervals = _probed(poly, pairs, var)
        expected = _pair_narrowed_bounds(oracles.poly_substitute(poly, trial), pairs)
        assert intervals[value] == expected

    def test_probe_bounds_see_a_cancellation(self):
        x, y, z, v = VarId.p(1), VarId.p(2), VarId.p(3), VarId.q(1)
        pairs = (frozenset((x, y)), frozenset((y, z)))
        # x*v and x cancel at v = 1
        assert _probed(poly_of((1, [x, v]), (-1, [x]), (1, [])), pairs, v)[1] == ((0, 1), (1, 1))
        # at v = 1 the x term vanishes, so it must not take y from the pair {y, z}
        poly = poly_of((1, [x, v]), (-1, [x]), (-1, [y]), (-2, [z]))
        assert _probed(poly, pairs, v)[1][1] == (-2, 0)

    def test_a_pair_excludes_zero_from_a_closed_form_interval(self):
        # x + y + v = 2 with {x, y}: at v = 0 the plain interval (-2, 0) holds 0,
        # but x and y cannot both be 1, so at most -1 remains
        x, y, v = VarId.p(1), VarId.p(2), VarId.q(1)
        poly = poly_of((1, [x]), (1, [y]), (1, [v]), (-2, []))
        assert _probed(poly, [frozenset((x, y))], v)[1] == ((-2, -1), (-1, 0))
        # x*v + y = 2: x turns linear only at v = 1, where the pair then bites
        poly = poly_of((1, [x, v]), (1, [y]), (-2, []))
        assert _probed(poly, [frozenset((x, y))], v)[1] == ((-2, -1), (-2, -1))

    def test_a_linear_trial_variable_becomes_the_constant(self):
        # 2v - x - 1: v = 1 leaves 1 - x, v = 0 leaves -x - 1
        x, v = VarId.p(1), VarId.q(1)
        poly = poly_of((2, [v]), (-1, [x]), (-1, []))
        assert _probed(poly, [], v)[1] == ((-2, -1), (0, 1))

    def test_partners_of_the_trial_variable_drop_out_at_one(self):
        # v = 1 sends its partner y to 0, which removes 3y and the y*z term
        x, y, z, v = VarId.p(1), VarId.p(2), VarId.p(3), VarId.q(1)
        poly = poly_of((1, [v]), (3, [y]), (-2, [y, z]), (-1, [x]), (-1, []))
        assert _probed(poly, [frozenset((v, y))], v)[1] == ((-4, 2), (-1, 0))

    def test_rows_kept_awake_give_the_same_output_and_passes(self, monkeypatch):
        log = _pass_log(monkeypatch)
        default = walk(range(9, 256, 2)).compile
        default_passes = list(log)
        log.clear()
        # every row evaluated in every pass: a row's record always reads as new
        monkeypatch.setattr(compiler._Row, "read", property(lambda self: (0, 0, None),
                                                            lambda self, value: None))
        assert walk(range(9, 256, 2)).compile == default
        assert log == default_passes
        assert default_passes.count(False) == 208  # one fixpoint per feasible split

    def test_a_row_is_evaluated_again_only_when_what_it_read_changes(self, monkeypatch):
        a, b, c, d = VarId.p(1), VarId.p(2), VarId.q(1), VarId.q(2)
        x, y, z = VarId.carry(1, 2), VarId.carry(2, 3), VarId.carry(3, 4)
        u, v, w = VarId.carry(4, 5), VarId.carry(5, 6), VarId.carry(6, 7)
        residuals = [(poly, column) for column, poly in enumerate((
            poly_of((1, [a]), (1, [b]), (1, [c]), (1, [d]), (-2, [])),  # reads a
            poly_of((1, [a]), (-1, [])),  # fixes a = 1 in the first pass
            poly_of((1, [x]), (1, [y]), (1, [z]), (-1, [])),  # reads the pair {x, y}
            poly_of((1, [x]), (1, [y]), (-1, [])),  # records {x, y} in the first pass
            poly_of((1, [u]), (1, [v]), (1, [w]), (-2, [])),  # reads neither
        ))]
        settled = []  # the columns settled in each pass
        original_pass = compiler._Propagator._pass
        original_settle = compiler._Propagator._settle

        def logged_pass(self):
            settled.append([])
            return original_pass(self)

        def logged_settle(self, row, pairs):
            settled[-1].append(row.column)
            return original_settle(self, row, pairs)

        monkeypatch.setattr(compiler._Propagator, "_pass", logged_pass)
        monkeypatch.setattr(compiler._Propagator, "_settle", logged_settle)
        system = simplify(EquationSystem.from_residuals(143, (4, 4), residuals, {}, ()))
        assert system.fixed == {a: 1}
        assert system.forbidden_pairs == (frozenset((x, y)),)
        # column 0 again for the fixed a, columns 2 and 3 for the new pair; column 4
        # is skipped though a was fixed and a pair recorded outside it
        assert settled == [[0, 1, 2, 3, 4], [0, 2, 3], []]

    def test_evaluation_totals_below_256_are_frozen(self, gates_below_256):
        # a looser awake rule keeps every output but evaluates more rows;
        # tests/gates.py counts them over 9..2047 and the large targets in CI
        assert gates_below_256.evaluations == {
            "_apply_rules": 7153, "_settle": 11184, "_pass": 1889, "_probe": 22868}

    @pytest.mark.parametrize("layout", [(143, 4, 4), (899, 5, 5)],
                             ids=["143-4-4", "899-5-5"])
    def test_the_fixpoint_pass_evaluates_no_row(self, monkeypatch, layout):
        rules_per_pass = []
        original_pass = compiler._Propagator._pass
        original_rules = compiler._Propagator._apply_rules

        def counted_pass(self):
            rules_per_pass.append(0)
            return original_pass(self)

        def counted_rules(self, row, pairs):
            rules_per_pass[-1] += 1
            return original_rules(self, row, pairs)

        monkeypatch.setattr(compiler._Propagator, "_pass", counted_pass)
        monkeypatch.setattr(compiler._Propagator, "_apply_rules", counted_rules)
        simplify(build_layout(*layout))
        assert rules_per_pass[0] and rules_per_pass[-1] == 0


@st.composite
def _splits(draw):
    """An odd target from 9 to 511, prime or composite, and one of its width splits."""
    target = 2 * draw(st.integers(4, 255)) + 1
    return target, draw(st.sampled_from(enumerate_width_splits(target)))


class TestSolutionPreservation:
    """Propagation must not create or destroy solutions."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_splits())
    def test_random_odd_targets_keep_the_column_solutions(self, split):
        target, (w_p, w_q) = split
        oracle = {
            tuple(sorted(sol.items())) for sol in oracles.column_solutions(target, w_p, w_q)
        }
        try:
            system = simplify(build_layout(target, w_p, w_q))
        except Infeasible:
            assert not oracle
            return
        assert oracles.simplified_solutions(system) == oracle

    @pytest.mark.parametrize("target", [9, 15, 21, 25, 33, 35, 49, 143, 321, 493])
    def test_bijection_against_column_arithmetic(self, target):
        for w_p, w_q in enumerate_width_splits(target):
            oracle = {
                tuple(sorted(sol.items()))
                for sol in oracles.column_solutions(target, w_p, w_q)
            }
            try:
                system = simplify(build_layout(target, w_p, w_q))
            except Infeasible:
                assert not oracle
                continue
            assert oracles.simplified_solutions(system) == oracle

    @pytest.mark.parametrize("target", [15, 21, 25, 35, 143, 225])
    def test_raw_layout_solutions_are_the_column_arithmetic(self, target):
        # the unsimplified table, at most 17 variables, solved by enumeration;
        # 225 = 15*15 fills whole columns, so its solutions use weight-4 carries
        for w_p, w_q in enumerate_width_splits(target):
            oracle = {
                tuple(sorted(sol.items()))
                for sol in oracles.column_solutions(target, w_p, w_q)
            }
            assert oracles.simplified_solutions(build_layout(target, w_p, w_q)) == oracle

    def test_oracle_accepts_exactly_the_factorizations(self):
        # grade-school columns accept (p, q) iff p*q hits the target
        for target in (21, 25, 143):
            for w_p, w_q in enumerate_width_splits(target):
                found = {
                    sol
                    for sol in (
                        (p, q)
                        for p in oracles.candidate_factors(w_p)
                        for q in oracles.candidate_factors(w_q)
                    )
                    if sol[0] * sol[1] == target
                }
                accepted = len(oracles.column_solutions(target, w_p, w_q))
                assert accepted == len(found)


class TestDocument:
    def test_roundtrip_143(self):
        system = simplify(build_layout(143, 4, 4))
        doc = system_to_document(system)
        assert doc["n"] == 143
        assert doc["widths"] == [4, 4]
        assert doc["variables"] == ["p1", "p2", "q1", "q2"]
        assert doc["fixed"]["z1_2"] == 0 and doc["fixed"]["z6_7"] == 1
        assert ["p1", "q1"] in doc["forbidden_pairs"]
        loaded = system_from_document(doc)
        assert loaded.target == system.target
        assert loaded.widths == system.widths
        assert residuals(loaded) == residuals(system)
        assert loaded.fixed == system.fixed
        assert loaded.forbidden_pairs == system.forbidden_pairs
        # and the document survives a JSON print cycle unchanged
        assert json.loads(json.dumps(doc)) == doc

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_splits())
    def test_round_trip_keeps_the_system_and_its_factors(self, split):
        target, widths = split
        layout = build_layout(target, *widths)
        try:
            systems = (layout, simplify(layout))
        except Infeasible:
            systems = (layout,)
        for system in systems:
            loaded = system_from_document(json.loads(json.dumps(system_to_document(system))))
            assert (loaded.target, loaded.widths) == (system.target, system.widths)
            assert residuals(loaded) == residuals(system)
            assert loaded.fixed == system.fixed
            assert loaded.forbidden_pairs == system.forbidden_pairs
        # the simplified system and its copy decode to the factorizations at these widths
        factorizations = {
            (p, q)
            for p in oracles.candidate_factors(widths[0])
            for q in oracles.candidate_factors(widths[1])
            if p * q == target
        }
        system = systems[-1]
        if system is layout:
            assert not factorizations
            return
        for copy in (system, system_from_document(system_to_document(system))):
            decoded = {decode_assignment(dict(s), copy) for s in oracles.simplified_solutions(copy)}
            assert decoded == factorizations

    def test_coefficients_serialize_as_json_integers(self):
        doc = system_to_document(simplify(build_layout(143, 4, 4)))
        coeffs = [c for eq in doc["equations"] for c, _ in eq["lhs"] + eq["rhs"]]
        assert {type(c) for c in coeffs} == {int} and set(coeffs) == {1}
        assert '"lhs": [[1, ["p1"]]' in json.dumps(doc)

    def test_loaded_coefficients_match_the_layout_types(self):
        system = simplify(build_layout(143, 4, 4))
        loaded = system_from_document(system_to_document(system))
        for eq in loaded.equations:
            assert all(type(c) is int for _, c in eq.residual.items())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(min_value=-2**80, max_value=2**80))
    def test_every_integer_coefficient_loads_and_writes_back(self, k):
        # the constant of p1 + q1 = 1 takes any JSON integer k, however large
        doc = system_to_document(simplify(build_layout(143, 4, 4)))
        doc["equations"][0]["rhs"] = [[k, []]]
        loaded = system_from_document(doc)
        constant = loaded.equations[0].rhs.coefficient(Monomial())
        assert type(constant) is int and constant == k
        written = system_to_document(loaded)
        if not k:
            doc["equations"][0]["rhs"] = []  # a zero term drops out as it loads
        assert written == doc

    def test_malformed_document(self):
        with pytest.raises(ValueError):
            system_from_document({"n": 143})
        good = system_to_document(simplify(build_layout(143, 4, 4)))
        bad = dict(good, variables=["p1"])
        with pytest.raises(ValueError):
            system_from_document(bad)

    def test_loading_does_not_lay_out_the_table(self, monkeypatch):
        # the layout rules read the table's variable list, not its w_p * w_q
        # products, so a wide document loads as fast as a narrow one
        good = system_to_document(simplify(build_layout(143, 4, 4)))

        def no_layout(*args):
            raise AssertionError("build_layout called")

        monkeypatch.setattr(compiler, "build_layout", no_layout)
        loaded = system_from_document(good)
        assert system_to_document(loaded) == good
        wide = {"n": (1 << 1599) + 1, "widths": [800, 800],
                "equations": [{"lhs": [[1, ["p1"]], [1, ["q798"]]], "rhs": [[1, []]]}]}
        assert system_from_document(wide).variables == (VarId.p(1), VarId.q(798))
        with pytest.raises(ValueError, match="z0_1 lies outside the table"):
            system_from_document({**wide, "fixed": {"z0_1": 0}})
        with pytest.raises(WidthMismatch, match="sum to 1603; expected 1600 or 1601"):
            system_from_document({**wide, "widths": [800, 803]})
