"""End-to-end factoring, decoding and exact cross-checks against the oracles."""

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiafact import (
    DimensionTooLarge,
    EmptySystem,
    EvenInput,
    GroundManifold,
    IndexOutOfRange,
    InvariantViolation,
    NotFactorable,
    TooSmall,
    VarId,
    WidthMismatch,
    assemble_problem,
    build_layout,
    decode_assignment,
    enumerate_width_splits,
    factor,
    ground_manifold,
    polynomial_to_diagonal,
    qubit_cap,
    select_split,
    simplify,
    success_probability,
    sweep,
)

from oracles import factor_pairs, odd_semiprimes, poly_evaluate, simplified_solutions

SUCCESS_143 = 0.9887597017028644


@pytest.fixture(scope="module")
def system143():
    return simplify(build_layout(143, 4, 4))


@pytest.fixture(scope="module")
def problem143(system143):
    qmap, penalty = assemble_problem(system143, pairing="first")
    return qmap, polynomial_to_diagonal(penalty, qmap)


class TestDecode:
    def test_the_two_ground_states_decode_to_the_factors(self, system143, problem143):
        qmap, _ = problem143
        assert decode_assignment(qmap.assignment_of(6), system143) == (13, 11)
        assert decode_assignment(qmap.assignment_of(9), system143) == (11, 13)

    def test_end_bits_are_implicit(self, system143):
        # all interior bits zero gives 1001b = 9 on both factors
        zeros = {v: 0 for v in (VarId.p(1), VarId.p(2), VarId.q(1), VarId.q(2))}
        assert decode_assignment(zeros, system143) == (9, 9)

    def test_missing_interior_bit(self, system143):
        from adiafact import UnmappedVariable

        with pytest.raises(UnmappedVariable):
            decode_assignment({VarId.p(1): 1}, system143)

    @pytest.mark.parametrize("value", [5, 2, -1])
    def test_a_bit_other_than_0_or_1_is_refused(self, system143, value):
        # ORed in unchecked, p1 = 5 would set bits 1 and 3 and read (11, 11)
        p1, p2, q1, q2 = VarId.p(1), VarId.p(2), VarId.q(1), VarId.q(2)
        with pytest.raises(ValueError, match=f"p1 has value {value}, not 0 or 1"):
            decode_assignment({p1: value, p2: 0, q1: 1, q2: 0}, system143)


class TestManifold:
    def test_ground_manifold_143(self, problem143):
        _, diag = problem143
        manifold = ground_manifold(diag)
        assert manifold.indices == (6, 9)
        assert manifold.energy == 0

    def test_success_probability_sums_indices(self, problem143):
        pops = np.zeros(16)
        pops[6], pops[9] = 0.25, 0.5
        _, diag = problem143
        assert success_probability(pops, ground_manifold(diag)) == 0.75
        assert success_probability(pops, GroundManifold((6,), 0)) == 0.25

    def test_out_of_range_index(self):
        with pytest.raises(IndexOutOfRange):
            success_probability(np.zeros(4), GroundManifold((4,), 0))


class TestBruteForce:
    """The library's diagonal against exhaustive evaluation in tests/oracles.py."""

    def test_system_minimum_is_zero_on_the_solution_set(self, system143):
        solutions = simplified_solutions(system143)
        decoded = sorted(decode_assignment(dict(s), system143) for s in solutions)
        assert decoded == [(11, 13), (13, 11)]

    def test_agrees_with_the_diagonal(self, system143, problem143):
        qmap, diag = problem143
        _, penalty = assemble_problem(system143, pairing="first")
        values = [poly_evaluate(penalty, qmap.assignment_of(i)) for i in range(1 << qmap.n)]
        assert values == diag.numerators.tolist()
        assert min(values) == diag.min_energy() == 0
        assert tuple(i for i, v in enumerate(values) if v == 0) == diag.ground_indices()

    def test_integer_minimum_is_an_int(self, problem143):
        _, diag = problem143
        assert type(ground_manifold(diag).energy) is int


class TestFactor:
    def test_wrong_factors_are_refused(self, monkeypatch):
        from adiafact import orchestrator

        monkeypatch.setattr(orchestrator, "decode_assignment", lambda *args: (3, 3))
        with pytest.raises(InvariantViolation, match="do not multiply"):
            factor(15)  # preprocessed
        with pytest.raises(InvariantViolation, match="do not multiply"):
            factor(143, gap_points=0)  # adiabatic

    def test_143_runs_the_evolution(self):
        # 101 gap samples to match the grid the frozen reference used
        result = factor(143, gap_points=101)
        assert (result.p, result.q) == (11, 13)
        assert result.widths == (4, 4)
        assert result.mode == "adiabatic"
        assert result.ground_manifold == (6, 9)
        assert result.min_gap == pytest.approx(1.818155342778935e-05, rel=1e-6)
        assert result.success_probability == pytest.approx(SUCCESS_143, abs=1e-9)

    def test_small_targets_solve_in_preprocessing(self):
        for target, p, q in [(15, 3, 5), (21, 3, 7), (25, 5, 5)]:
            result = factor(target)
            assert (result.p, result.q) == (p, q)
            assert result.mode == "preprocessed"
            assert result.success_probability == 1.0
            assert result.schedule is None

    def test_35_needs_two_qubits(self):
        result = factor(35)
        assert (result.p, result.q) == (5, 7)
        assert result.mode == "adiabatic"
        assert result.success_probability == pytest.approx(0.995001, abs=1e-5)

    def test_pairing_choice_does_not_move_the_success_probability(self):
        probs = {
            pairing: factor(143, pairing=pairing, gap_points=0).success_probability
            for pairing in ("first", "last")
        }
        assert probs["first"] == pytest.approx(probs["last"], abs=1e-12)

    def test_explicit_widths_are_honored(self):
        result = factor(143, widths=(4, 4))
        assert result.widths == (4, 4)
        with pytest.raises(NotFactorable):
            factor(25, widths=(2, 3))  # 5*5 does not fit these widths

    def test_primes_are_rejected(self):
        for prime in (11, 17, 19):
            with pytest.raises(NotFactorable):
                factor(prime)

    def test_input_validation(self):
        with pytest.raises(EvenInput):
            factor(12)
        with pytest.raises(TooSmall):
            factor(7)

    def test_qubit_cap_surfaces_as_dimension_error(self, monkeypatch):
        monkeypatch.setenv("ADIAFACT_MAX_QUBITS", "1")
        with pytest.raises(DimensionTooLarge):
            factor(143, widths=(4, 4))

    def test_json_round_trip_fields(self):
        d = factor(35).to_json_dict()
        assert d["n"] == 35 and (d["p"], d["q"]) == (5, 7)
        assert d["mode"] == "adiabatic"
        assert d["schedule"]["M"] == 20
        assert d["schedule"]["checkpoints"] == [0, 5, 10, 15, 20]

    def test_gap_point_count_is_checked_before_the_anneal(self, monkeypatch):
        from adiafact import orchestrator

        def no_anneal(*args):
            raise AssertionError("the anneal ran before the gap profile")

        monkeypatch.setattr(orchestrator, "run_schedule", no_anneal)
        with pytest.raises(ValueError, match="two sample points"):
            factor(323, gap_points=1)
        with pytest.raises(ValueError, match="two sample points"):
            sweep(323, "T", [10.0, 20.0], gap_points=1)


class TestCapBeforePenalty:
    """select_split skips an over-cap register before assembling its penalty."""

    @pytest.mark.parametrize("cap, outcomes", [
        (14, {305: "15 qubits", 481: "16 qubits"}),
        (15, {305: ((3, 6), (7509,)), 481: "16 qubits"}),
        (16, {305: ((3, 6), (7509,)), 481: ((4, 6), (20820,))}),
    ])
    def test_outcomes_on_305_and_481(self, monkeypatch, cap, outcomes):
        from adiafact import orchestrator
        from adiafact.hamiltonian import QubitMap

        assemble = orchestrator.assemble_problem

        def within_cap(system, pairing="last"):
            n = QubitMap(system.variables).n
            assert n <= qubit_cap(), f"penalty assembled for a {n}-qubit register"
            return assemble(system, pairing=pairing)

        monkeypatch.setattr(orchestrator, "assemble_problem", within_cap)
        monkeypatch.setenv("ADIAFACT_MAX_QUBITS", str(cap))
        for target, expected in outcomes.items():
            if isinstance(expected, str):
                with pytest.raises(DimensionTooLarge, match=f"needs {expected}, above the cap"):
                    select_split(target)
                continue
            system, _, problem = select_split(target)
            assert (system.widths, problem.ground_indices()) == expected


class TestSplitsNoPairFits:
    """select_split skips a split whose range of p is empty before it simplifies it."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(4, (1 << 15) - 1).map(lambda k: 2 * k + 1))
    def test_every_skipped_split_has_no_factorization(self, target):
        from adiafact.orchestrator import _fits_a_pair

        fitting = {(p.bit_length(), q.bit_length()) for p, q in factor_pairs(target)}
        for w_p, w_q in enumerate_width_splits(target):
            if not _fits_a_pair(target, w_p, w_q):
                assert (w_p, w_q) not in fitting, (target, w_p, w_q)

    def test_a_prime_on_explicit_widths_is_not_simplified(self, monkeypatch):
        # 1046527 is prime; propagation leaves 46 variables on (9, 11), which
        # the cap used to report as "needs 46 qubits"
        from adiafact import orchestrator

        def refuse(system):
            raise AssertionError(f"simplified {system.widths}")

        monkeypatch.setattr(orchestrator, "simplify", refuse)
        with pytest.raises(NotFactorable):
            select_split(1046527, (9, 11))

    def test_bad_widths_are_refused_before_the_skip(self):
        with pytest.raises(WidthMismatch, match=r"^need 2 <= w_p <= w_q, got \(1, 7\)$"):
            select_split(143, (1, 7))
        with pytest.raises(WidthMismatch, match=r"^widths \(3, 3\) sum to 6; expected 8 or 9 for 143$"):
            select_split(143, (3, 3))

    def test_the_cap_error_names_the_smallest_skipped_split(self):
        message = f"1763: the smallest skipped split (6, 6) needs 20 qubits, above the cap of {qubit_cap()}"
        with pytest.raises(DimensionTooLarge, match=f"^{re.escape(message)}$"):
            select_split(1763)


def test_a_poly_is_built_only_for_the_returned_penalty(monkeypatch):
    # layout, propagation, assembly and the diagonal work on masks; the penalty's
    # Poly terms are built only when a caller reads them
    from adiafact import Poly

    built = []
    original = Poly.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counted)
    system = simplify(build_layout(143, 4, 4))
    assert len(built) == 0
    select_split(143)
    assert len(built) == 0
    _, penalty = assemble_problem(system)
    assert len(built) == 0
    len(penalty)
    assert len(built) == 1
    str(penalty), hash(penalty), list(penalty.items())
    assert len(built) == 1


class TestFactorAgainstArithmetic:
    # 133 and 145 compile to 11- and 12-qubit registers whose dense
    # eigensolves dominate the suite; everything else stays at n <= 10
    TARGETS = [n for n in odd_semiprimes(150) if n not in (133, 145)]

    def test_factors_multiply_back(self):
        for target in self.TARGETS:
            result = factor(target, gap_points=0)
            assert result.p * result.q == target
            assert result.p <= result.q
            if result.mode == "adiabatic":
                uniform = len(result.ground_manifold) / 2**result.trace.n
                assert result.success_probability > uniform


class TestSweep:
    def test_time_axis_from_quench_to_adiabatic(self):
        points = sweep(143, "T", [1e-9, 20.0], widths=(4, 4), gap_points=0)
        probs = [p.success_probability for p in points]
        assert probs[0] == pytest.approx(0.125, abs=1e-9)
        assert probs[1] == pytest.approx(SUCCESS_143, abs=1e-9)

    def test_step_refinement_at_fixed_time_converges(self):
        # T=100 with only 20 steps is a coarse discretization; refining
        # M recovers the slow-evolution limit
        points = sweep(143, "M", [20, 100], widths=(4, 4), T=100.0, gap_points=0)
        probs = [p.success_probability for p in points]
        assert probs[0] < probs[1]
        assert probs[1] == pytest.approx(0.9999387891, abs=1e-9)

    def test_gap_cached_per_field_strength(self):
        points = sweep(143, "T", [10.0, 20.0], widths=(4, 4), gap_points=21)
        assert points[0].min_gap == points[1].min_gap
        assert points[0].min_gap is not None

    def test_g_axis_changes_the_gap(self):
        points = sweep(143, "g", [0.3, 0.6], widths=(4, 4), gap_points=21)
        assert points[0].min_gap != points[1].min_gap

    def test_m_axis_coerces_to_int(self):
        points = sweep(143, "M", [5.0, 20.0], widths=(4, 4), gap_points=0)
        assert len(points) == 2
        assert points[1].success_probability == pytest.approx(SUCCESS_143, abs=1e-9)

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            sweep(143, "tau", [1.0])

    def test_preprocessed_instances_cannot_be_swept(self):
        from adiafact import EmptySystem

        with pytest.raises(EmptySystem):
            sweep(15, "T", [20.0])


class TestOneSplitPolicy:
    """compile, sweep, simulate and spectrum take the split factor() anneals, or refuse alike."""

    @pytest.fixture
    def annealed(self, monkeypatch):
        # the evolution is not under test here: record each operator handed to
        # the engine and answer with a flat state
        from adiafact import cli, orchestrator

        problems = []

        def run_schedule(problem, schedule):
            problems.append(problem)
            return SimpleNamespace(final_populations=np.full(problem.dim, 1 / problem.dim))

        def gap_profile(problem, g, points, k):
            problems.append(problem)
            return SimpleNamespace(min_gap=None, to_csv=lambda stream: None)

        for module in (orchestrator, cli):
            monkeypatch.setattr(module, "run_schedule", run_schedule)
            monkeypatch.setattr(module, "gap_profile", gap_profile)
        return problems

    def test_every_odd_semiprime_below_512(self, annealed, capsys):
        from adiafact.cli import main

        def cli(*argv):
            code = main([str(arg) for arg in argv])
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        for target in odd_semiprimes(512):
            annealed.clear()
            try:
                result = factor(target, gap_points=0)
            except (NotFactorable, DimensionTooLarge) as exc:
                with pytest.raises(type(exc)):
                    sweep(target, "T", [1.0], gap_points=0)
                code = 2 if isinstance(exc, NotFactorable) else 1
                for argv in (("compile", target), ("simulate", target),
                             ("spectrum", target, "--points", 2)):
                    assert cli(*argv) == (code, "", f"adiafact: {exc}\n"), argv
                continue
            code, out, _ = cli("compile", target)
            assert code == 0 and json.loads(out)["widths"] == list(result.widths), target
            if result.mode == "preprocessed":
                with pytest.raises(EmptySystem):
                    sweep(target, "T", [1.0], gap_points=0)
                for argv in (("simulate", target), ("spectrum", target, "--points", 2)):
                    code, out, err = cli(*argv)
                    assert (code, out) == (1, "") and "nothing left to solve" in err, argv
                continue
            (chosen,) = annealed
            assert chosen.min_energy() == 0, target
            sweep(target, "T", [1.0], gap_points=0)
            code, out, _ = cli("simulate", target, "--M", 1)
            assert code == 0 and json.loads(out)["widths"] == list(result.widths), target
            assert cli("spectrum", target, "--points", 2)[0] == 0
            assert len(annealed) == 4
            for problem in annealed[1:]:
                assert np.array_equal(problem.numerators, chosen.numerators), target
