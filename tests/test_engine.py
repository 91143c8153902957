"""Stepped evolution against an independent matrix-exponential reference."""

import hashlib
import io
import math
from itertools import islice

import numpy as np
import pytest
from scipy.special import jv

from adiafact import (
    DiagonalOperator,
    DimensionMismatch,
    IndexOutOfRange,
    NumericalFailure,
    Schedule,
    assemble_problem,
    build_layout,
    direct_cost_diagonal,
    gap_profile,
    initial_state,
    interpolated_hamiltonian,
    lowest_eigenvalues,
    polynomial_to_diagonal,
    populations,
    propagate_step,
    run_schedule,
    select_split,
    simplify,
)
from adiafact import engine
from adiafact.engine import (
    _bessel_coefficients,
    _chebyshev_step,
    _chebyshev_vectors,
    _matrix_free_pays,
)
from adiafact.hamiltonian import _FlipSum, _apply_flip_sum

from oracles import dense_mixer, expm_schedule, sparse_levels, sparse_schedule

# frozen reference values, computed once with an independent
# scipy.linalg.expm propagation of the same discretized schedule
SUCCESS_143 = 0.9887597017028644
MIN_GAP_143 = 1.818155342778935e-05


@pytest.fixture(scope="module")
def problem143():
    system = simplify(build_layout(143, 4, 4))
    qmap, penalty = assemble_problem(system, pairing="first")
    return polynomial_to_diagonal(penalty, qmap)


@pytest.fixture(scope="module")
def registers():
    """factor()'s registers of 5, 6, 7, 9 and 10 qubits, by target."""
    return {target: select_split(target)[2] for target in (119, 77, 295, 323, 121)}


def interval(problem, schedule, s):
    """The spectral interval run_schedule gives the step at s."""
    field = (1 - s) * schedule.g * problem.n
    return s * float(problem.min_energy()) - field, s * float(problem.max_energy()) + field


def dense_levels(problem, g, s_values, k):
    """The k lowest eigenvalues at each s of the oracle mixer plus the diagonal."""
    mixer = dense_mixer(problem.n, g)
    return np.array(
        [np.linalg.eigvalsh((1 - s) * mixer + np.diag(s * problem.as_array))[:k] for s in s_values]
    )


def no_dense_matrix(*args):
    raise AssertionError("dense H(s) built")


def sparse_oracle_errors(target, points=11):
    """The engine's largest level and amplitude errors against the sparse oracles.

    On factor()'s register for target: the interior samples of a k = 2
    profile of this many points against sparse_levels, and the default
    schedule's final state against sparse_schedule.  CI runs it on 209,
    265, 305 and 481 (13 to 16 qubits); tier-1 on 145 (12 qubits), at 11 points
    and at factor()'s 51, where the warm start has a full window to act on.
    """
    problem, sched = select_split(target)[2], Schedule()
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(engine, "interpolated_hamiltonian", no_dense_matrix)
        profile = gap_profile(problem, sched.g, points=points, k=2)
        final = run_schedule(problem, sched).final_state
    levels = np.array([sparse_levels(problem.as_array, sched.g, s, 2)
                       for s in profile.s_values[1:-1]])
    reference = sparse_schedule(problem.as_array, sched.g, sched.T, sched.M)
    return (float(np.max(np.abs(profile.energies[1:-1] - levels))),
            float(np.max(np.abs(final - reference))))


def routed_run(problem, schedule):
    """run_schedule's trace and the path of each step, "C" Chebyshev or "d" dense.

    A stack of dense steps (an (m, dim, dim) Hamiltonian) counts m steps.
    """
    paths = []

    def spy(path, function):
        def wrapped(*args):
            paths.append(path * (len(args[1]) if args[1].ndim == 3 else 1))
            return function(*args)
        return wrapped

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(engine, "_chebyshev_step", spy("C", engine._chebyshev_step))
        patched.setattr(engine, "propagate_step", spy("d", engine.propagate_step))
        trace = run_schedule(problem, schedule)
    return trace, "".join(paths)


def dense_run(problem, schedule):
    """The schedule stepped through propagate_step on the dense H(s) only, one-step stacks."""
    state = initial_state(problem.n)
    for step in range(1, schedule.M + 1):
        h = interpolated_hamiltonian(np.array([schedule.s_at(step)]), schedule.g, problem)
        state = propagate_step(state, h, schedule.tau)[0]
    return state


def stepped_run(problem, schedule, paths):
    """The state after each step, one matrix or expansion at a time along the paths."""
    state, states = initial_state(problem.n), []
    for step, path in enumerate(paths, start=1):
        s = schedule.s_at(step)
        if path == "d":
            h = interpolated_hamiltonian(np.array([s]), schedule.g, problem)
            state = propagate_step(state, h, schedule.tau)[0]
        else:
            lo, hi = interval(problem, schedule, s)
            coeffs = _bessel_coefficients((hi - lo) / 2 * schedule.tau)
            state = _chebyshev_step((1 - s) * schedule.g, s * problem.as_array, state,
                                    schedule.tau, lo, hi, coeffs)
        states.append(state)
    return states


def stack_of(problem, matrices):
    """A stack bound of this many of the problem's matrices (None: the default bound)."""
    return engine._STACK_BYTES if matrices is None else matrices * 8 * problem.dim**2


class TestSchedule:
    def test_defaults(self):
        sched = Schedule()
        assert (sched.g, sched.T, sched.M) == (0.6, 20.0, 20)
        assert sched.tau == 1.0
        assert sched.s_at(20) == 1.0
        assert sched.resolved_checkpoints() == (0, 5, 10, 15, 20)

    def test_explicit_checkpoints(self):
        sched = Schedule(M=10, checkpoints=(10, 3, 3, 0))
        assert sched.resolved_checkpoints() == (0, 3, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(T=0.0)
        with pytest.raises(ValueError):
            Schedule(M=0)
        with pytest.raises(ValueError):
            Schedule(g=-0.6)
        with pytest.raises(ValueError):
            Schedule(M=10, checkpoints=(11,))

    def test_whole_float_step_count_is_stored_as_int(self, problem143):
        sched = Schedule(M=2.0)
        assert type(sched.M) is int and sched.to_json_dict()["M"] == 2
        assert type(sched.to_json_dict()["M"]) is int
        a, b = run_schedule(problem143, sched), run_schedule(problem143, Schedule(M=2))
        assert np.array_equal(a.final_state, b.final_state)
        assert [p.step for p in a.points] == [p.step for p in b.points] == [0, 1, 2]

    def test_fractional_checkpoint_is_refused(self):
        # it would pass the range check and then never be recorded
        with pytest.raises(ValueError, match="checkpoint 2.5"):
            Schedule(M=4, checkpoints=(2.5,))
        whole = Schedule(M=4, checkpoints=(2.0,))
        assert whole.resolved_checkpoints() == (2,)
        listed = whole.to_json_dict()["checkpoints"]
        assert listed == [2] and type(listed[0]) is int

    def test_time_and_field_must_be_finite(self):
        # no step count covers T = inf, and NaN would pass a plain "> 0" check
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="total time"):
                Schedule(T=bad)
            with pytest.raises(ValueError, match="field strength"):
                Schedule(g=bad)

    def test_json_dict(self):
        d = Schedule(M=4).to_json_dict()
        assert d == {"g": 0.6, "T": 20.0, "M": 4, "checkpoints": [0, 1, 2, 3, 4]}


class TestInitialState:
    def test_amplitudes_alternate_by_parity(self):
        psi = initial_state(4)
        assert psi.shape == (16,)
        for b in range(16):
            sign = -1.0 if bin(b).count("1") % 2 else 1.0
            assert psi[b] == pytest.approx(sign * 0.25)

    def test_normalized(self):
        for n in (1, 3, 6):
            assert np.linalg.norm(initial_state(n)) == pytest.approx(1.0, abs=1e-15)

    def test_bytes_match_the_popcount_formula(self, monkeypatch):
        monkeypatch.setenv("ADIAFACT_MAX_QUBITS", "16")
        for n in range(1, 17):
            dim = 1 << n
            signs = np.array([1.0 if bin(b).count("1") % 2 == 0 else -1.0 for b in range(dim)])
            expected = (signs / np.sqrt(dim)).astype(np.complex128)
            assert initial_state(n).tobytes() == expected.tobytes(), n

    def test_bad_size(self):
        with pytest.raises(ValueError):
            initial_state(0)


class TestPropagateStep:
    def test_single_qubit_ground_state_gains_global_phase(self):
        # H = g * sigma_x, ground state (1,-1)/sqrt(2) with energy -g,
        # so one step multiplies by exp(+i g tau) exactly
        g, tau = 0.6, 0.7
        psi = initial_state(1)
        out = propagate_step(psi, dense_mixer(1, g)[None], tau)[0]
        assert np.allclose(out, np.exp(1j * g * tau) * psi, atol=1e-14)

    def test_unitarity(self, problem143):
        rng = np.random.default_rng(7)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        h = interpolated_hamiltonian(np.array([0.37]), 0.6, problem143)
        out = propagate_step(state, h, 1.0)[0]
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            propagate_step(np.zeros(4, complex), np.zeros((1, 2, 2)), 1.0)
        with pytest.raises(DimensionMismatch):
            propagate_step(np.zeros(2, complex), np.zeros((1, 2, 3)), 1.0)
        # one matrix is not a stack
        with pytest.raises(DimensionMismatch):
            propagate_step(np.zeros(2, complex), np.zeros((2, 2)), 1.0)

    def test_nonfinite_rejected(self):
        h = np.array([[[np.nan, 0.0], [0.0, 1.0]]])
        with pytest.raises(NumericalFailure):
            propagate_step(np.zeros(2, complex), h, 1.0)

    def test_a_stack_is_steps_applied_in_order(self, problem143):
        s_values = np.array([0.1, 0.35, 0.35, 0.9])
        stack = interpolated_hamiltonian(s_values, 0.6, problem143)
        states = propagate_step(initial_state(4), stack, 0.7)
        assert states.shape == (4, 16)
        state = initial_state(4)
        for matrix, after in zip(stack, states):
            state = propagate_step(state, matrix[None], 0.7)[0]
            assert np.array_equal(after, state)
        one = propagate_step(initial_state(4), stack[:1], 0.7)
        assert one.shape == (1, 16) and np.array_equal(one[0], states[0])

    def test_stack_shape_checks(self):
        for h in (np.zeros((3, 2, 3)), np.zeros(2), np.zeros((1, 1, 2, 2))):
            with pytest.raises(DimensionMismatch):
                propagate_step(np.zeros(2, complex), h, 1.0)
        with pytest.raises(DimensionMismatch):
            propagate_step(np.zeros(4, complex), np.zeros((3, 2, 2)), 1.0)

    def test_a_non_finite_matrix_of_a_stack_fails_before_any_eigh(self, monkeypatch):
        def no_eigh(matrix):
            raise AssertionError("eigh called")

        stack = np.zeros((3, 2, 2))
        stack[2, 1, 0] = np.inf
        monkeypatch.setattr(engine.np.linalg, "eigh", no_eigh)
        with pytest.raises(NumericalFailure, match="non-finite"):
            propagate_step(np.zeros(2, complex), stack, 1.0)


class TestRunSchedule:
    def test_final_state_matches_expm_reference(self, problem143):
        sched = Schedule()
        trace = run_schedule(problem143, sched)
        reference = expm_schedule(
            np.array([float(e) for e in problem143.numerators.tolist()]),
            sched.g,
            sched.T,
            sched.M,
        )
        assert np.max(np.abs(trace.final_state - reference)) < 1e-12

    def test_field_strength_comes_from_the_schedule(self, problem143):
        sched = Schedule(g=0.3, T=7.0, M=9)
        trace = run_schedule(problem143, sched)
        reference = expm_schedule(problem143.as_array, 0.3, 7.0, 9)
        assert np.max(np.abs(trace.final_state - reference)) < 1e-12

    def test_frozen_success_probability(self, problem143):
        sched = Schedule()
        trace = run_schedule(problem143, sched)
        pops = trace.final_populations
        assert pops[6] + pops[9] == pytest.approx(SUCCESS_143, abs=1e-12)

    def test_instant_quench_leaves_the_uniform_distribution(self, problem143):
        sched = Schedule(T=1e-9, M=1)
        trace = run_schedule(problem143, sched)
        pops = trace.final_populations
        assert np.allclose(pops, 1 / 16, atol=1e-9)
        assert pops[6] + pops[9] == pytest.approx(0.125, abs=1e-9)

    def test_slower_schedule_converges_further(self, problem143):
        fast = run_schedule(problem143, Schedule())
        slow = run_schedule(problem143, Schedule(T=100.0, M=100))
        def success(trace):
            return trace.final_populations[6] + trace.final_populations[9]
        assert success(slow) > success(fast)
        assert success(slow) == pytest.approx(0.9999387891, abs=1e-9)

    def test_norm_drift_stays_tiny(self, problem143):
        trace = run_schedule(problem143, Schedule(T=100.0, M=100))
        assert abs(np.linalg.norm(trace.final_state) - 1.0) <= 1e-9

    def test_populations_always_sum_to_one(self, problem143):
        trace = run_schedule(problem143, Schedule())
        for point in trace.points:
            assert point.populations.sum() == pytest.approx(1.0, abs=1e-9)

    def test_checkpoints_recorded_in_order(self, problem143):
        sched = Schedule(checkpoints=(0, 7, 20))
        trace = run_schedule(problem143, sched)
        assert [p.step for p in trace.points] == [0, 7, 20]
        assert [p.s for p in trace.points] == [0.0, 0.35, 1.0]
        assert np.allclose(trace.points[0].populations, 1 / 16)
        assert np.array_equal(
            trace.points[-1].populations, trace.final_populations
        )

    def test_deterministic(self, problem143):
        a = run_schedule(problem143, Schedule())
        b = run_schedule(problem143, Schedule())
        assert np.array_equal(a.final_state, b.final_state)


class TestMatrixFreeSteps:
    @pytest.mark.parametrize("x", [0.0, 1e-3, 1.0, 4.2, 60.0, 400.0, 3000.0])
    def test_bessel_coefficients_match_scipy(self, x):
        coeffs = _bessel_coefficients(x)
        orders = np.arange(coeffs.size)
        assert np.max(np.abs(coeffs - jv(orders, x))) <= 1e-13
        # the expansion stops where the coefficients fall below roundoff
        assert abs(coeffs[-1]) > engine._TERM_TOL
        assert np.all(np.abs(jv(np.arange(coeffs.size, coeffs.size + 40), x)) <= 1e-15)
        # at least r * tau terms, the bound run_schedule refuses wide steps by
        assert coeffs.size - 1 >= x
        if x == 0.0:
            assert coeffs.tolist() == [1.0]

    def test_term_floor_is_a_lower_bound_on_the_term_count(self):
        # run_schedule refuses a step from x = r * tau alone: the expansion
        # runs to the last order above _TERM_TOL, so an order at or past x
        # that scipy's jv still finds above it proves x a lower bound on the
        # term count, on a dense grid of x up to 5000
        x = np.concatenate([np.geomspace(3e-16, 1, 2000), np.linspace(1, 5000, 9401)[1:]])
        assert np.all(np.abs(jv(np.ceil(x), x)) > engine._TERM_TOL)
        # the recurrence's own term count, on a coarser grid
        for value in x[::38]:
            assert _bessel_coefficients(value).size - 1 >= value
        # below 2 * _TERM_TOL the expansion is the single term J_0 = 1, and a
        # width that small prices as none
        for value in (0.0, 1e-17, 2 * engine._TERM_TOL):
            assert _bessel_coefficients(value).size == 1
            for n in range(1, 21):
                assert _matrix_free_pays(n, value) == _matrix_free_pays(n, 0)

    def test_small_registers_keep_the_dense_path(self):
        # every register of sweep-small and 143, whatever the schedule
        for n in range(1, 5):
            for width_tau in (0.0, 1.0, 30.0, 1e4):
                x = width_tau / 2
                assert not _matrix_free_pays(n, x)
                assert not _matrix_free_pays(n, _bessel_coefficients(x).size - 1)

    def test_wide_steps_keep_the_dense_path(self, monkeypatch):
        def no_coefficients(x):
            raise AssertionError(f"coefficients computed for x={x}")

        # refused from the width alone, without running the recurrence: 1e7
        # (5e6 products) outweighs a dense step up to the default 14-qubit
        # cap, but not from 15 qubits, where one costs 4^15 / 170 = 6.3e6
        monkeypatch.setattr(engine, "_bessel_coefficients", no_coefficients)
        for n in range(1, 21):
            for width_tau in (1e7, float("inf"), float("nan")):
                assert _matrix_free_pays(n, width_tau / 2) == (width_tau == 1e7 and n >= 15)
        # and a run of such steps never asks for their coefficients
        wide = DiagonalOperator(5, np.arange(32) * 10**6)
        assert run_schedule(wide, Schedule()).products == 0

    def test_large_registers_go_matrix_free_at_the_default_schedule(self, registers):
        for target in (323, 121):
            problem = registers[target]
            width = float(problem.max_energy() - problem.min_energy())
            for x in (width / 2, 0.6 * problem.n):
                assert _matrix_free_pays(problem.n, _bessel_coefficients(x).size - 1)

    # a change to the cost rule or the product kernel that moves a route of
    # the benchmark's anneal registers shows here
    @pytest.mark.parametrize(
        "target, dense_steps", [(143, 20), (899, 20), (3599, 20), (77, 20), (323, 0), (121, 0)]
    )
    def test_routes_at_the_default_schedule(self, target, dense_steps):
        problem = select_split(target)[2]
        trace, paths = routed_run(problem, Schedule())
        assert len(paths) == 20 and paths.count("d") == dense_steps
        assert (trace.products > 0) == (dense_steps < 20)
        # gap_profile(k=2) takes filtered samples from 9 qubits up
        assert (gap_profile(problem, 0.6, points=3, k=2).products > 0) == (problem.n >= 9)

    @pytest.mark.parametrize("target", [119, 77, 295])
    def test_matches_expm_reference(self, registers, monkeypatch, target):
        problem = registers[target]
        # T/M = 8 takes expansions of 63 to 137 terms
        for sched in (Schedule(), Schedule(T=40.0, M=5)):
            reference = expm_schedule(problem.as_array, sched.g, sched.T, sched.M)
            chosen = run_schedule(problem, sched)
            with monkeypatch.context() as forced:
                forced.setattr(engine, "_matrix_free_pays", lambda n, products: True)
                matrix_free = run_schedule(problem, sched)
            assert matrix_free.products > 0
            for trace in (chosen, matrix_free):
                assert np.max(np.abs(trace.final_state - reference)) <= 1e-12

    @pytest.mark.parametrize(
        "target, sched", [(323, Schedule(T=300.0, M=4)), (121, Schedule(T=8.0, M=2))]
    )
    def test_large_registers_match_the_dense_propagator(self, registers, target, sched):
        problem = registers[target]
        trace, paths = routed_run(problem, sched)
        # 323 mixes both paths within one run; 121 takes only matrix-free steps
        assert "C" in paths and ("d" not in paths) == (target == 121)
        assert trace.products > 0
        assert np.max(np.abs(trace.final_state - dense_run(problem, sched))) <= 1e-12

    def test_each_step_is_unitary(self, registers):
        problem = registers[119]
        sched = Schedule()
        eye = np.eye(problem.dim, dtype=np.complex128)
        for step in range(1, sched.M + 1):
            s = sched.s_at(step)
            a, b = (1 - s) * sched.g, s * problem.as_array
            lo, hi = interval(problem, sched, s)
            coeffs = _bessel_coefficients((hi - lo) / 2 * sched.tau)
            columns = [_chebyshev_step(a, b, e, sched.tau, lo, hi, coeffs) for e in eye.T]
            u = np.column_stack(columns)
            assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-10

    def test_repeated_runs_are_bitwise_identical(self, registers):
        a = run_schedule(registers[323], Schedule(T=40.0, M=5))
        b = run_schedule(registers[323], Schedule(T=40.0, M=5))
        assert np.array_equal(a.final_state, b.final_state)
        assert (a.products, a.norm_drift) == (b.products, b.norm_drift)

    def test_no_dense_matrix_and_no_register_eigh(self, registers, problem143, monkeypatch):
        def no_eigh(matrix):
            raise AssertionError(f"eigh of a {matrix.shape[0]}-dimensional matrix")

        monkeypatch.setattr(engine, "interpolated_hamiltonian", no_dense_matrix)
        monkeypatch.setattr(engine.np.linalg, "eigh", no_eigh)
        for target in (323, 121):
            trace = run_schedule(registers[target], Schedule())
            assert trace.products > 0 and trace.norm_drift <= 1e-9
        with pytest.raises(AssertionError, match="dense H"):
            run_schedule(problem143, Schedule())

    def test_wide_spectra_stay_bounded_and_exact(self, monkeypatch):
        # direct-cost diagonals span about 2e4: a Chebyshev step would need
        # thousands of products, so every step stays dense, refused from the
        # width alone without computing a single expansion coefficient
        computed = []
        monkeypatch.setattr(engine, "_bessel_coefficients", lambda x: computed.append(x))
        for widths in ((3, 3), (4, 4)):
            problem = direct_cost_diagonal(143, *widths)
            trace = run_schedule(problem, Schedule())
            assert trace.products == 0
            assert np.array_equal(trace.final_state, dense_run(problem, Schedule()))
        assert computed == []

    def test_trace_reports_norm_drift_and_products(self, registers, problem143):
        dense = run_schedule(problem143, Schedule())
        assert dense.products == 0
        assert dense.norm_drift == abs(float(np.linalg.norm(dense.final_state)) - 1.0)
        matrix_free = run_schedule(registers[323], Schedule())
        assert matrix_free.products >= Schedule().M
        assert matrix_free.norm_drift == abs(float(np.linalg.norm(matrix_free.final_state)) - 1.0)
        assert matrix_free.norm_drift <= 1e-9

    def test_non_finite_chebyshev_coefficient_fails(self):
        # a non-finite product, then a non-finite expansion coefficient
        with pytest.raises(NumericalFailure, match="non-finite"):
            _chebyshev_step(1.0, np.full(32, np.nan), initial_state(5), 1.0, -3.0, 3.0,
                            _bessel_coefficients(3.0))
        with pytest.raises(NumericalFailure, match="non-finite"):
            _chebyshev_step(0.0, np.ones(32), initial_state(5), 1.0, -3.0, 3.0,
                            np.array([1.0, np.nan]))

    @pytest.mark.parametrize("target, products", [(323, 895), (121, 1374)])
    def test_steps_multiply_the_state_as_one_real_pair(self, registers, monkeypatch, target,
                                                       products):
        # the complex state runs through the product as a C-contiguous real
        # (2, 2^n) stack of its real and imaginary parts, one call per term,
        # into buffers of the same form; products still counts complex-state
        # products
        problem = registers[target]
        shapes, apply = [], _FlipSum.apply

        def checked(flips, source, target):
            for array in (source[0], target[0], flips.scratch):
                assert array.dtype == np.float64 and array.flags.c_contiguous
            assert source[0].shape == target[0].shape == flips.scratch.shape
            shapes.append(source[0].shape)
            apply(flips, source, target)

        monkeypatch.setattr(_FlipSum, "apply", checked)
        trace = run_schedule(problem, Schedule())
        assert trace.products == len(shapes) == products
        assert set(shapes) == {(2, problem.dim)}

    def test_coefficients_are_computed_once_per_step(self, registers, monkeypatch):
        calls = []

        def counted(x):
            calls.append(x)
            return _bessel_coefficients(x)

        monkeypatch.setattr(engine, "_bessel_coefficients", counted)
        trace = run_schedule(registers[323], Schedule())
        assert len(calls) == Schedule().M == 20
        assert trace.products == sum(_bessel_coefficients(x).size - 1 for x in calls)

    @pytest.mark.parametrize("target, recurrences", [(77, 20), (119, 6)])
    def test_steps_that_cannot_pay_skip_the_recurrence(self, registers, monkeypatch, target,
                                                       recurrences):
        # every step of both registers runs dense at the default schedule;
        # r * tau lets all 20 steps of 77 and 6 of 119 through to the
        # recurrence, whose term count then refuses them
        calls = []

        def counted(x):
            calls.append(x)
            return _bessel_coefficients(x)

        monkeypatch.setattr(engine, "_bessel_coefficients", counted)
        trace = run_schedule(registers[target], Schedule())
        assert len(calls) == recurrences and trace.products == 0

    def test_non_finite_product_fails(self, registers, monkeypatch):
        # a non-finite product inside a run fails before the final norm check
        monkeypatch.setattr(_FlipSum, "apply", lambda flips, source, target: target[0].fill(np.nan))
        with pytest.raises(NumericalFailure, match="Chebyshev"):
            run_schedule(registers[323], Schedule())

    def test_norm_check_catches_nan(self, problem143, monkeypatch):
        monkeypatch.setattr(engine, "propagate_step",
                            lambda state, h, tau: np.full((len(h), state.size), np.nan))
        with pytest.raises(NumericalFailure, match="norm"):
            run_schedule(problem143, Schedule())


class TestChebyshevRecurrence:
    """_chebyshev_vectors, which both Chebyshev steps and spectral filters run,
    against T_k of the eigenvalues of a dense H (np.linalg.eigh and
    np.polynomial.chebyshev)."""

    S, G = 0.4, 0.6

    @pytest.fixture
    def system(self, registers):
        """The 5-qubit register's H(s) at s = 0.4 as (a, b), its eigensystem and a random block."""
        problem = registers[119]
        h = interpolated_hamiltonian(self.S, self.G, problem)
        energies, basis = np.linalg.eigh(h)
        terms = ((1 - self.S) * self.G, self.S * problem.as_array)
        block = np.random.default_rng(7).standard_normal((3, problem.dim))
        return terms, energies, basis, block

    @staticmethod
    def polynomial(energies, basis, block, centre, radius, degree):
        """T_degree((H - centre) / radius) applied to every row of the block."""
        values = np.polynomial.chebyshev.chebval((energies - centre) / radius, [0] * degree + [1])
        return ((block @ basis) * values) @ basis.T

    @staticmethod
    def relative_error(got, expected):
        return np.linalg.norm(got - expected) / np.linalg.norm(expected)

    def test_the_plain_recurrence_is_t_k(self, system):
        (a, b), energies, basis, block = system
        lo, hi = energies[0] - 0.5, energies[-1] + 0.25
        centre, radius = (hi + lo) / 2, (hi - lo) / 2
        vectors = [v.copy() for v in islice(_chebyshev_vectors(a, b, block, centre, radius), 8)]
        for degree, vector in enumerate(vectors, start=1):
            expected = self.polynomial(energies, basis, block, centre, radius, degree)
            assert self.relative_error(vector, expected) <= 1e-10

    def test_the_plain_recurrence_is_bitwise_the_unscaled_one(self, system):
        # the vectors are those of T_1 = X T_0, T_(k+1) = 2 X T_k - T_(k-1),
        # computed out of place from the same flip-sum kernel: 2 X y is the
        # flip sum with its matrices scaled by 2 a / radius plus
        # 2 (b - centre) / radius times y, and T_1 is half of it
        (a, b), energies, _, block = system
        lo, hi = energies[0], energies[-1]
        centre, radius = (hi + lo) / 2, (hi - lo) / 2
        flips = _FlipSum(2 * a / radius, np.empty_like(block))
        diagonal = (b - centre) * (2 / radius)
        previous, current = None, block
        for vector in islice(_chebyshev_vectors(a, b, block, centre, radius), 12):
            twice = np.empty_like(current)
            flips.apply(flips.views(current), flips.views(twice))
            twice = twice + current * diagonal
            following = twice * 0.5 if previous is None else twice - previous
            previous, current = current, following
            assert np.array_equal(vector, current)

    @pytest.mark.parametrize("degree", [1, 2, 9, 25])
    def test_the_scaled_filter_is_t_d_over_its_value_at_scale(self, system, degree):
        # the filter gap_profile runs: damp [E_3, hi], E_0 below it the floor;
        # the filter keeps only T_d's direction, so over T_d at the floor its
        # vector is T_d / T_d((E_0 - centre) / radius) times a power of two
        (a, b), energies, basis, block = system
        lo, hi, scale = energies[3], energies[-1] + 0.25, energies[0]
        centre, radius = (hi + lo) / 2, (hi - lo) / 2
        vectors = _chebyshev_vectors(a, b, block, centre, radius, scale)
        vector = next(islice(vectors, degree - 1, None))
        at_scale = np.polynomial.chebyshev.chebval((scale - centre) / radius, [0] * degree + [1])
        expected = self.polynomial(energies, basis, block, centre, radius, degree) / at_scale
        power = np.log2(np.linalg.norm(vector / at_scale) / np.linalg.norm(expected))
        assert abs(power - round(power)) <= 1e-10
        assert self.relative_error(vector / at_scale / 2.0 ** round(power), expected) <= 1e-10

    @pytest.mark.parametrize("degree", [1000, 3000])
    @pytest.mark.parametrize("x_s", [-1.18, -4.37])
    def test_a_high_degree_filter_stays_finite_and_finds_the_ground_vector(self, x_s, degree):
        # on 77's H(s) the interval is set so that E_0 lies at x_s below it:
        # T_d at x_s reaches about e^592 to e^6464, past float64, and the
        # power-of-two rescale keeps every vector finite; every row turns
        # onto the ground vector
        problem, s = select_split(77)[2], 0.5
        a, b = (1 - s) * self.G, s * problem.as_array
        energies, basis = np.linalg.eigh(interpolated_hamiltonian(s, self.G, problem))
        hi = energies[-1]
        lo = ((1 + x_s) * hi - 2 * energies[0]) / (x_s - 1)
        assert energies[0] < lo
        centre, radius = (hi + lo) / 2, (hi - lo) / 2
        assert (energies[0] - centre) / radius == pytest.approx(x_s)
        block = np.random.default_rng(11).standard_normal((3, problem.dim))
        rows = engine._orthonormal_rows(block)
        vectors = _chebyshev_vectors(a, b, rows, centre, radius, energies[0])
        vector = next(islice(vectors, degree - 1, None))
        assert np.all(np.isfinite(vector)) and np.max(np.abs(vector)) > 0
        overlaps = np.abs(vector @ basis[:, 0]) / np.linalg.norm(vector, axis=1)
        assert np.max(np.abs(overlaps - 1)) <= 1e-10

    @pytest.mark.parametrize("scaled", [False, True])
    def test_kept_vectors_are_never_overwritten(self, system, scaled):
        # the recurrence rotates three buffers: a vector kept while the next
        # two are asked for equals the one taken from a fresh generator, the
        # third after it is written into its buffer, and the input rows are
        # never written
        (a, b), energies, _, block = system
        lo, hi = energies[2 if scaled else 0], energies[-1]
        centre, radius = (hi + lo) / 2, (hi - lo) / 2
        floor = energies[0] if scaled else None
        rows = block.copy()
        fresh = [v.copy() for v in islice(_chebyshev_vectors(a, b, rows, centre, radius, floor), 9)]
        kept = []
        for degree, vector in enumerate(_chebyshev_vectors(a, b, rows, centre, radius, floor),
                                        start=1):
            assert not np.shares_memory(vector, rows)
            kept.append(vector)
            for back, held in enumerate(reversed(kept[-3:])):
                assert np.array_equal(held, fresh[degree - 1 - back])
            if degree == len(fresh):
                break
        # the fourth vector is written into the first one's buffer, and so on
        assert [id(v) for v in kept[3:]] == [id(v) for v in kept[:-3]]
        assert len({id(v) for v in kept}) == 3
        assert np.array_equal(rows, block)

    def test_each_vector_costs_one_product_when_asked_for(self, system, monkeypatch):
        (a, b), energies, _, block = system
        calls, apply = [], _FlipSum.apply

        def counted(flips, source, target):
            calls.append(source[0].shape)
            apply(flips, source, target)

        monkeypatch.setattr(_FlipSum, "apply", counted)
        vectors = _chebyshev_vectors(a, b, block, 0.0, float(energies[-1] - energies[0]))
        assert calls == []
        for taken in range(1, 5):
            next(vectors)
            assert calls == [block.shape] * taken


class TestSpectra:
    def test_lowest_eigenvalues_sorted_subset(self, problem143):
        h = interpolated_hamiltonian(np.array([0.5]), 0.6, problem143)
        three = lowest_eigenvalues(h, 3)[0]
        assert list(three) == sorted(three)
        assert np.allclose(three, np.linalg.eigvalsh(h[0])[:3])

    def test_a_stack_gives_each_matrix_its_levels(self, problem143):
        stack = interpolated_hamiltonian(np.array([0.2, 0.5, 0.8]), 0.6, problem143)
        levels = lowest_eigenvalues(stack, 3)
        assert levels.shape == (3, 3)
        for matrix, row in zip(stack, levels):
            assert np.array_equal(row, lowest_eigenvalues(matrix[None], 3)[0])
        # k is checked against the matrix size, not the stack's length
        assert lowest_eigenvalues(np.zeros((2, 2, 2)), 2).shape == (2, 2)
        for k in (0, 3):
            with pytest.raises(IndexOutOfRange, match=f"k={k} outside 1..2"):
                lowest_eigenvalues(np.zeros((5, 2, 2)), k)
        with pytest.raises(IndexOutOfRange, match="k=17 outside 1..16"):
            lowest_eigenvalues(stack, 17)

    def test_shape_checks(self):
        for h in (np.zeros((2, 2)), np.zeros((2, 3)), np.zeros(4), np.zeros((2, 2, 3)),
                  np.zeros((1, 1, 2, 2))):
            with pytest.raises(DimensionMismatch):
                lowest_eigenvalues(h, 1)

    def test_a_non_finite_matrix_of_a_stack_fails_before_any_solve(self, monkeypatch):
        def no_solve(matrix):
            raise AssertionError("eigvalsh called")

        stack = np.zeros((3, 2, 2))
        stack[1, 0, 0] = np.nan
        monkeypatch.setattr(engine.np.linalg, "eigvalsh", no_solve)
        with pytest.raises(NumericalFailure, match="non-finite"):
            lowest_eigenvalues(stack, 1)

    def test_k_range(self, problem143):
        h = interpolated_hamiltonian(np.array([0.5]), 0.6, problem143)
        with pytest.raises(IndexOutOfRange):
            lowest_eigenvalues(h, 0)
        with pytest.raises(IndexOutOfRange):
            lowest_eigenvalues(h, 17)
        # gap_profile checks k itself, since its endpoints need no solve
        for k in (0, 17):
            with pytest.raises(IndexOutOfRange, match=f"k={k} outside 1..16"):
                gap_profile(problem143, 0.6, points=3, k=k)

    def test_gap_profile_endpoints(self, problem143):
        trace = gap_profile(problem143, 0.6, points=101, k=3)
        assert trace.s_values[0] == 0.0 and trace.s_values[-1] == 1.0
        # mixer ground energy is -n*g at s=0
        assert trace.energies[0, 0] == pytest.approx(-2.4, abs=1e-12)
        # at s=1 the two factorizations are degenerate at zero
        assert trace.energies[-1, 0] == pytest.approx(0.0, abs=1e-12)
        assert trace.energies[-1, 1] == pytest.approx(0.0, abs=1e-12)
        assert trace.energies[-1, 2] == pytest.approx(1.0, abs=1e-12)

    def test_gap_stays_open_before_the_end(self, problem143):
        trace = gap_profile(problem143, 0.6, points=101, k=2)
        interior = trace.energies[:-1]
        assert np.all(interior[:, 1] - interior[:, 0] > 0)
        assert trace.min_gap == pytest.approx(MIN_GAP_143, rel=1e-9)

    def test_min_gap_none_for_single_level(self, problem143):
        trace = gap_profile(problem143, 0.6, points=11, k=1)
        assert trace.min_gap is None

    def test_point_count_validation(self, problem143):
        with pytest.raises(ValueError):
            gap_profile(problem143, 0.6, points=1)

    def test_field_must_be_positive(self, problem143):
        for g in (0.0, -1.0):
            with pytest.raises(ValueError, match="field strength"):
                gap_profile(problem143, g, points=1)

    def test_a_non_finite_level_fails_naming_its_s(self, problem143, monkeypatch):
        # the s = 0 closed form overflows; these rows used to be returned as -inf
        with np.errstate(over="ignore"), pytest.raises(NumericalFailure, match="at s = 0$"):
            gap_profile(problem143, 1e308, points=5, k=3)
        # every interior sample of a 2-qubit register is a dense solve
        monkeypatch.setattr(engine, "lowest_eigenvalues", lambda h, k: np.full((len(h), k), np.nan))
        diag = DiagonalOperator(2, np.array([1, 2, 3, 4]))
        with pytest.raises(NumericalFailure, match="at s = 0.25$"):
            gap_profile(diag, 0.6, points=5, k=2)


class TestFilteredGapProfile:
    @pytest.mark.parametrize("target", [323, 121])
    def test_every_sample_matches_dense(self, registers, monkeypatch, target):
        problem = registers[target]
        monkeypatch.setattr(engine, "interpolated_hamiltonian", no_dense_matrix)
        trace = gap_profile(problem, 0.6, points=51, k=2)
        expected = dense_levels(problem, 0.6, trace.s_values, 2)
        # the warm start pins the gain: without it these profiles spent 9468
        # (323) and 19605 (121) products
        assert 0 < trace.products <= {323: 7000, 121: 14000}[target]
        assert np.max(np.abs(trace.energies - expected)) <= 1e-12
        gaps = expected[:-1, 1] - expected[:-1, 0]
        assert abs(trace.min_gap - gaps.min()) <= 1e-12
        ground = gap_profile(problem, 0.6, points=51, k=1)
        assert ground.min_gap is None and ground.products > 0
        assert np.max(np.abs(ground.energies[:, 0] - expected[:, 0])) <= 1e-12

    def test_the_window_step_spends_no_product(self, registers, monkeypatch):
        # exact eigenvectors of H(s) in the window come back as the lowest rows
        # of the start block, orthonormal, with no product; copies of the
        # block's own rows are dropped as roundoff, and the eigenvectors of
        # the samples just before s, nearly parallel to those at s, leave the
        # start orthonormal to roundoff
        problem, s, k = registers[323], 0.5, 2

        def lowest(at):
            return np.linalg.eigh(interpolated_hamiltonian(at, 0.6, problem))[1][:, :k].T

        a, b, exact = (1 - s) * 0.6, s * problem.as_array, lowest(s)
        block = engine._orthonormal_rows(np.random.default_rng(3).standard_normal((4, problem.dim)))

        def with_flips(rows):
            out, scratch = np.empty_like(rows), np.empty_like(rows)
            _apply_flip_sum(rows, out, scratch)
            return np.stack([rows, out])

        window = with_flips(np.vstack([block[:k], lowest(s - 0.04), lowest(s - 0.02),
                                       exact + 1e-3 * block[:k], exact]))
        pair = with_flips(block)

        def no_product(*args):
            raise AssertionError("product")

        monkeypatch.setattr(_FlipSum, "apply", no_product)
        theta, start = engine._window_start(a, b, window, pair)
        assert start.shape == pair.shape and theta.shape == (len(block),)
        start = start[0]
        assert np.max(np.abs(start @ start.T - np.eye(len(block)))) <= 1e-13
        # the lowest k rows span the exact eigenvectors: their overlap is orthogonal
        overlap = np.linalg.svd(start[:k] @ exact.T, compute_uv=False)
        assert np.max(np.abs(overlap - 1)) <= 1e-10

    @pytest.mark.parametrize("target", [323, 121])
    def test_the_hand_off_matches_a_real_rayleigh_ritz_step(self, registers, monkeypatch, target):
        # every warm sample of factor()'s 51-point profile starts from the
        # window step's Ritz values and flip images, taken with no product
        # through its recorded coefficients; a real-product Rayleigh-Ritz
        # step of the same vectors gives the same values, and the same
        # images of the k lowest vectors, whose residuals price the filter
        # (a guard vector's image, built partly from window directions near
        # the span tolerance, was seen 1.7e-10 off on 145)
        window_start, checked, k = engine._window_start, [], 2

        def compared(a, b, window, pair):
            theta, start = window_start(a, b, window, pair)
            block, flips = start
            real, _ = engine._rayleigh_ritz(a, b, block)
            assert np.max(np.abs(theta - real)) <= 1e-10
            images = np.empty_like(block)
            _apply_flip_sum(block, images, np.empty_like(block))
            assert np.max(np.abs(flips[:k] - images[:k])) <= 1e-10
            checked.append(len(theta))
            return theta, start

        monkeypatch.setattr(engine, "_window_start", compared)
        gap_profile(registers[target], 0.6, points=51, k=k)
        assert len(checked) == 48

    def test_a_converged_hand_off_still_pays_one_real_step(self, registers):
        # a start whose residuals already pass skips the filter, and one
        # real-product Rayleigh-Ritz step of the block certifies its levels:
        # from a window step over the exact eigenvectors and the previous
        # sample's, and from a real step of the exact eigenvectors alone
        problem, s, k = registers[323], 0.5, 2
        a, b = (1 - s) * 0.6, s * problem.as_array

        def with_flips(at):
            rows = np.ascontiguousarray(
                np.linalg.eigh(interpolated_hamiltonian(at, 0.6, problem))[1][:, :4].T)
            flips = np.empty_like(rows)
            _apply_flip_sum(rows, flips, np.empty_like(rows))
            return np.stack([rows, flips])

        energies = np.linalg.eigvalsh(interpolated_hamiltonian(s, 0.6, problem))
        exact = with_flips(s)
        starts = [engine._window_start(a, b, with_flips(s - 0.02)[:, :k], exact),
                  engine._rayleigh_ritz(a, b, exact[0])]
        for theta, pair in starts:
            found, certified, products = engine._filtered_lowest(a, b, theta, pair, k)
            assert products == 4 and certified.shape == exact.shape
            assert np.max(np.abs(found - energies[:k])) <= 1e-12

    @pytest.mark.parametrize("target, k", [pytest.param(295, 2, id="295"),
                                           pytest.param(511, 2, id="511"),
                                           pytest.param(511, 3, id="511-3")])
    def test_a_sample_is_priced_before_its_first_product(self, monkeypatch, target, k):
        # on 7 qubits the walk stops at its first interior sample, so no warm
        # start is made and every level is a dense solve.  On 295 the cold
        # Rayleigh-Ritz step prices a filter that cannot pay, and the profile
        # spends one block's products (294 when each sample paid its own
        # step); 511 pays for one filter iteration before its next one cannot
        # pay (95 products at k = 2, 75 at k = 3, from the seeded block)
        problem = select_split(target)[2]
        assert problem.n == 7
        def no_window(*args):
            raise AssertionError("warm start of a sample that cannot pay")

        monkeypatch.setattr(engine, "_window_start", no_window)
        trace = gap_profile(problem, 0.6, points=51, k=k)
        size = np.count_nonzero(problem.as_array <= trace.energies[-1, -1]) + engine._GUARD
        if target == 295:
            assert 0 < trace.products <= size
        else:
            assert trace.products > size
        expected = dense_levels(problem, 0.6, trace.s_values, k)
        assert np.max(np.abs(trace.energies - expected)) <= 1e-12

    def test_an_eight_qubit_profile_keeps_its_filtered_samples(self, monkeypatch):
        # 319's first filter is priced near the limit of what pays on 8
        # qubits, and all of its interior samples stay filtered
        problem = select_split(319)[2]
        assert problem.n == 8
        monkeypatch.setattr(engine, "interpolated_hamiltonian", no_dense_matrix)
        trace = gap_profile(problem, 0.6, points=51, k=2)
        assert trace.products > 0
        expected = dense_levels(problem, 0.6, trace.s_values, 2)
        assert np.max(np.abs(trace.energies - expected)) <= 1e-12

    def test_a_fifty_one_point_profile_matches_the_sparse_oracles(self):
        # factor()'s grid: from the seventh interior sample on, every
        # filtered sample starts from a full window
        level_error, state_error = sparse_oracle_errors(145, points=51)
        assert level_error <= 1e-10 and state_error <= 1e-10

    @pytest.mark.parametrize("target, bound", [(145, 75000), (161, 63000)])
    def test_four_hundred_and_one_points_complete(self, target, bound):
        # next to the mixer the cold start and its degree cap, then 399
        # warm-started samples; without the window these profiles spent
        # 150616 (145) and 126596 (161) products
        trace = gap_profile(select_split(target)[2], 0.6, points=401, k=2)
        assert 0 < trace.products <= bound
        assert np.all(np.diff(trace.energies[:-1], axis=1) > 0)

    @pytest.mark.parametrize("target, s", [(121, 0.001), (145, 0.0025)])
    def test_a_cold_start_next_to_the_mixer_converges(self, target, s):
        # the first interior sample of a 1001- and a 401-point profile: the
        # mixer's first excited level is an n-fold cluster that the block
        # cannot hold, and a filter steep enough to split it off would grow
        # the ground direction over every other row past roundoff
        problem = select_split(target)[2]
        second = np.sort(problem.as_array)[1]
        size = int(np.count_nonzero(problem.as_array <= second)) + engine._GUARD
        seeded = engine._seeded_rows(size - 1, problem.dim)
        block = engine._orthonormal_rows(np.vstack([initial_state(problem.n).real, seeded]))
        a, b = (1 - s) * 0.6, s * problem.as_array
        theta, pair = engine._rayleigh_ritz(a, b, block)
        found, _, products = engine._filtered_lowest(a, b, theta, pair, 2)
        assert found is not None and products > 0
        assert np.max(np.abs(found - sparse_levels(problem.as_array, 0.6, s, 2))) <= 1e-10

    def test_the_seeded_rows_are_frozen(self):
        # the first block's rows are 53-bit integers from the stdlib generator,
        # scaled by a power of two and shifted by 1/2, so every step is exact
        # and the bytes hold on any platform and BLAS build; a change to the
        # generator's stream or to the helper fails here, not as a drift in
        # every filtered profile
        rows = engine._seeded_rows(3, 512)
        assert rows.shape == (3, 512) and rows.dtype == np.float64
        assert -0.5 <= rows.min() and rows.max() < 0.5
        digest = hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest()
        assert digest == "8ac8b5e253248feb58cf777c22819f73228a4447666f3e8e2c19fbb2dcb273f2"

    @pytest.mark.xfail(strict=True, raises=NumericalFailure, reason="ROADMAP item 11")
    def test_a_fine_grid_converges_next_to_the_mixer(self):
        # at 3001 points the first interior samples sit within 3e-3 of s = 0,
        # where the second and third levels lie in the mixer's 8-fold first
        # excited level, a cluster that the block, sized for s = 1, cannot hold
        problem = select_split(319)[2]
        trace = gap_profile(problem, 0.6, points=3001, k=3)
        expected = dense_levels(problem, 0.6, trace.s_values[:9], 3)
        assert np.max(np.abs(trace.energies[:9] - expected)) <= 1e-12

    def test_a_twelve_qubit_register_matches_the_sparse_oracles(self):
        # no dense H(s) on 145's 12 qubits: every sample and step is matrix-free
        level_error, state_error = sparse_oracle_errors(145)
        assert level_error <= 1e-10 and state_error <= 1e-10

    def test_an_eleven_qubit_register_matches_dense(self):
        problem = select_split(133)[2]
        assert problem.n == 11
        trace = gap_profile(problem, 0.6, points=5, k=2)
        assert trace.products > 0
        expected = dense_levels(problem, 0.6, trace.s_values[1:-1], 2)
        assert np.max(np.abs(trace.energies[1:-1] - expected)) <= 1e-12

    def test_symmetric_registers_match_dense(self):
        # 121 = 11 * 11 squared without pairing keeps the p/q swap symmetry;
        # a diagonal of (popcount - 3)^2 commutes with every qubit
        # permutation, which makes E1 = E2 at every interior s
        system = simplify(build_layout(121, 4, 4))
        qmap, penalty = assemble_problem(system, pairing="none")
        popcount = np.array([bin(b).count("1") for b in range(1 << 9)])
        permutation_symmetric = DiagonalOperator(9, (popcount - 3) ** 2)
        for problem in (polynomial_to_diagonal(penalty, qmap), permutation_symmetric):
            trace = gap_profile(problem, 0.6, points=11, k=2)
            assert trace.products > 0
            expected = dense_levels(problem, 0.6, trace.s_values, 3)
            assert np.max(np.abs(trace.energies - expected[:, :2])) <= 1e-12
            if problem is permutation_symmetric:
                interior = expected[1:-1]
                assert np.max(np.abs(interior[:, 2] - interior[:, 1])) <= 1e-12

    def test_three_levels_match_dense_on_a_degenerate_pair(self):
        # the permutation-symmetric diagonal on 10 qubits has E1 = E2 at
        # every interior s: a block of C(10, 3) + 2 vectors holds both
        popcount = np.array([bin(b).count("1") for b in range(1 << 10)])
        problem = DiagonalOperator(10, (popcount - 3) ** 2)
        trace = gap_profile(problem, 0.6, points=11, k=3)
        expected = dense_levels(problem, 0.6, trace.s_values, 3)
        assert trace.products > 0
        assert np.max(np.abs(trace.energies - expected)) <= 1e-12
        interior = expected[1:-1]
        assert np.max(np.abs(interior[:, 2] - interior[:, 1])) <= 1e-12

    @pytest.mark.parametrize("n", [9, 10])
    def test_a_fourfold_first_excited_level_matches_dense(self, n):
        # E1 = 1 four times over at s = 1, so near the end E1 sits in a
        # cluster of four; the block holds all of it, every state at or
        # below E1 plus the guard
        rng = np.random.default_rng(n)
        energies = rng.integers(2, 40, 1 << n)
        energies[0] = 0
        energies[rng.choice(np.arange(1, 1 << n), 4, replace=False)] = 1
        problem = DiagonalOperator(n, energies)
        trace = gap_profile(problem, 0.6, points=21, k=2)
        expected = dense_levels(problem, 0.6, trace.s_values, 5)
        assert trace.products > 0
        assert np.max(np.abs(trace.energies - expected[:, :2])) <= 1e-12
        assert np.max(np.abs(expected[-2, 1:5] - expected[-2, 1])) <= 0.02

    def test_direct_cost_gap_resolves_a_wide_spectrum(self, monkeypatch):
        # (143 - x*y)^2 over 5-bit x and y spans 6.7e5 with an x <-> y
        # symmetry and E1 - E0 below 1e-11: a filter that pays there needs
        # more products than a dense sample, so every sample is dense, and a
        # filter forced to run matches the dense levels too
        problem = direct_cost_diagonal(143, 5, 5)
        trace = gap_profile(problem, 0.6, points=7, k=2)
        expected = dense_levels(problem, 0.6, trace.s_values, 2)
        assert np.max(np.abs(trace.energies - expected)) <= 1e-9
        monkeypatch.setattr(engine, "_matrix_free_pays", lambda n, products: True)
        monkeypatch.setattr(engine, "interpolated_hamiltonian", no_dense_matrix)
        filtered = gap_profile(problem, 0.6, points=7, k=2)
        assert filtered.products > 0
        assert np.max(np.abs(filtered.energies - expected)) <= 1e-9

    def test_a_sample_that_cannot_pay_is_dense(self, registers, monkeypatch):
        # the third sample's iteration is priced as one that cannot pay: the
        # walk stops there, after its product-free window step and before
        # any product of its own, and samples 3 to 9 are one dense stack
        # solved after the walk
        problem = registers[323]
        calls, spent = [], []
        window_start, filtered, dense = (
            engine._window_start, engine._filtered_lowest, engine.lowest_eigenvalues)

        def spied_window(*args):
            calls.append("window")
            return window_start(*args)

        def third_cannot_pay(a, b, theta, pair, k):
            calls.append("filter")
            with monkeypatch.context() as patched:
                if len(spent) == 2:
                    patched.setattr(engine, "_matrix_free_pays", lambda n, products: False)
                found = filtered(a, b, theta, pair, k)
            spent.append(found[2])
            return found

        def spied_dense(hamiltonian, k):
            calls.append(len(hamiltonian))
            return dense(hamiltonian, k)

        monkeypatch.setattr(engine, "_STACK_BYTES", stack_of(problem, 7))
        monkeypatch.setattr(engine, "_window_start", spied_window)
        monkeypatch.setattr(engine, "_filtered_lowest", third_cannot_pay)
        monkeypatch.setattr(engine, "lowest_eigenvalues", spied_dense)
        trace = gap_profile(problem, 0.6, points=11, k=2)
        assert calls == ["filter", "window", "filter", "window", "filter", 7]
        # every product is one stacked call over the block: 323's two
        # zero-energy states plus the guard, whose cold step starts the walk
        block = 2 + engine._GUARD
        assert spent[2] == 0 and min(spent[:2]) > 0 and spent[0] % block == 0
        assert trace.products == block + sum(spent)
        expected = dense_levels(problem, 0.6, trace.s_values, 2)
        assert np.max(np.abs(trace.energies - expected)) <= 1e-12

    def test_closed_form_endpoints_match_dense(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("eigenvalue solve at an endpoint")

        monkeypatch.setattr(engine, "lowest_eigenvalues", no_solve)
        monkeypatch.setattr(engine, "_filtered_lowest", no_solve)
        rng = np.random.default_rng(5)
        for n in range(2, 7):
            problem = DiagonalOperator(n, rng.integers(-30, 30, 1 << n))
            for g in (0.3, 0.6, 1.7):
                trace = gap_profile(problem, g, points=2, k=problem.dim)
                expected = dense_levels(problem, g, (0.0, 1.0), problem.dim)
                assert np.max(np.abs(trace.energies - expected)) <= 1e-12
                # multiplicities: C(n, j) copies of g * (2j - n), the diagonal sorted
                levels, counts = np.unique(trace.energies[0], return_counts=True)
                assert np.array_equal(levels, g * np.arange(-n, n + 1, 2))
                assert counts.tolist() == [math.comb(n, j) for j in range(n + 1)]
                assert np.array_equal(trace.energies[1], np.sort(problem.as_array))
                for k in range(1, n + 3):
                    fewer = gap_profile(problem, g, points=2, k=k)
                    assert np.array_equal(fewer.energies, trace.energies[:, :k])

    def test_routing_keeps_small_registers_dense(self, registers, problem143, monkeypatch):
        # the cheapest filtered iteration, three vectors through a filter of
        # the least degree, pays from 7 qubits
        cheapest = 3 * (engine._MIN_DEGREE + 1)
        assert [n for n in range(1, 21) if _matrix_free_pays(n, cheapest)] == list(range(7, 21))

        def no_filter(*args):
            raise AssertionError("filtered sample")

        with monkeypatch.context() as patched:
            patched.setattr(engine, "_filtered_lowest", no_filter)
            for problem in (problem143, registers[119], registers[77]):
                for k in (1, 2, 3):
                    assert gap_profile(problem, 0.6, points=11, k=k).products == 0
        assert gap_profile(registers[323], 0.6, points=3, k=3).products > 0

    def test_repeated_profiles_are_bitwise_identical(self, registers):
        a = gap_profile(registers[323], 0.6, points=11, k=2)
        b = gap_profile(registers[323], 0.6, points=11, k=2)
        assert np.array_equal(a.energies, b.energies) and a.products == b.products

    def test_non_convergence_fails(self, registers, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_ITERATIONS", 1)
        with pytest.raises(NumericalFailure, match="did not converge within 1 iterations"):
            gap_profile(registers[323], 0.6, points=3, k=2)

    def test_non_finite_product_fails(self, registers, monkeypatch):
        monkeypatch.setattr(_FlipSum, "apply", lambda flips, source, target: target[0].fill(np.nan))
        with pytest.raises(NumericalFailure, match="non-finite"):
            gap_profile(registers[323], 0.6, points=3, k=2)
        # a non-finite filter vector reaches the next Rayleigh-Ritz step through QR
        monkeypatch.undo()
        vectors = engine._chebyshev_vectors

        def non_finite(*args):
            for vector in vectors(*args):
                vector.fill(np.nan)
                yield vector

        monkeypatch.setattr(engine, "_chebyshev_vectors", non_finite)
        with pytest.raises(NumericalFailure, match="non-finite"):
            gap_profile(registers[323], 0.6, points=3, k=2)


class TestStackedDenseRoute:
    """Dense steps and samples solved as stacks give the one-matrix results bit for bit.

    matrices sets the stack bound: None keeps the default, 1 solves every
    matrix alone, and 3 cuts the default schedule's runs mid-way across
    its checkpoints at steps 5 and 15 and leaves a short last stack.
    """

    @pytest.mark.parametrize("matrices", [None, 1, 3])
    @pytest.mark.parametrize("target", [35, 143, 77])
    def test_dense_runs_match_one_step_at_a_time(self, monkeypatch, target, matrices):
        problem = select_split(target)[2]
        assert problem.n == {35: 2, 143: 4, 77: 6}[target]
        monkeypatch.setattr(engine, "_STACK_BYTES", stack_of(problem, matrices))
        for sched in (Schedule(), Schedule(T=40.0, M=5), Schedule(T=66.0, M=33, checkpoints=(4, 33))):
            trace, paths = routed_run(problem, sched)
            assert paths == "d" * sched.M
            assert np.array_equal(trace.final_state, dense_run(problem, sched))
            states = stepped_run(problem, sched, paths)
            for point in trace.points[1:]:
                assert point.s == sched.s_at(point.step)
                assert np.array_equal(point.populations, populations(states[point.step - 1]))

    @pytest.mark.parametrize("matrices", [None, 1, 3])
    def test_runs_mixing_both_routes_match_one_step_at_a_time(self, registers, monkeypatch,
                                                              matrices):
        # on 6 qubits, a narrow diagonal under a strong field narrows along
        # s and ends matrix-free; 77 at T = M = 33 starts matrix-free
        narrow = DiagonalOperator(6, np.random.default_rng(6).integers(0, 4, 64))
        runs = [(narrow, Schedule(g=1.0), "d" * 9 + "C" * 11),
                (registers[77], Schedule(T=33.0, M=33), "C" + "d" * 32)]
        for problem, sched, routes in runs:
            monkeypatch.setattr(engine, "_STACK_BYTES", stack_of(problem, matrices))
            trace, paths = routed_run(problem, sched)
            assert paths == routes
            states = stepped_run(problem, sched, paths)
            assert np.array_equal(trace.final_state, states[-1])
            for point in trace.points[1:]:
                assert np.array_equal(point.populations, populations(states[point.step - 1]))

    @pytest.mark.parametrize("matrices", [None, 1, 3])
    @pytest.mark.parametrize("target", [35, 143, 77, 295])
    def test_dense_samples_match_one_solve_at_a_time(self, monkeypatch, target, matrices):
        # 295's 7-qubit profile builds a block whose every sample ends dense
        problem = select_split(target)[2]
        monkeypatch.setattr(engine, "_STACK_BYTES", stack_of(problem, matrices))
        for g, k in ((0.6, 2), (1.1, 3)):
            trace = gap_profile(problem, g, points=21, k=k)
            assert (trace.products > 0) == (target == 295)
            expected = [
                lowest_eigenvalues(interpolated_hamiltonian(np.array([s]), g, problem), k)[0]
                for s in trace.s_values[1:-1]
            ]
            assert np.array_equal(trace.energies[1:-1], np.array(expected))
            gaps = trace.energies[:-1, 1] - trace.energies[:-1, 0]
            assert trace.min_gap == float(np.min(gaps))

    def test_stacks_stay_within_the_bound(self, problem143, monkeypatch):
        # a long schedule or a fine profile is solved chunk by chunk, so
        # memory does not grow with M or the number of points
        sizes = []

        def sized(function, stack):
            def wrapped(*args):
                sizes.append(len(args[stack]))
                return function(*args)
            return wrapped

        monkeypatch.setattr(engine, "propagate_step", sized(propagate_step, 1))
        monkeypatch.setattr(engine, "lowest_eigenvalues", sized(lowest_eigenvalues, 0))
        chunk = engine._stack_size(problem143.dim)
        assert chunk == 128 and engine._stack_size(1 << 6) == 8
        assert engine._stack_size(1 << 8) == engine._stack_size(1 << 9) == 1
        run_schedule(problem143, Schedule(M=300))
        assert sizes == [128, 128, 44]
        sizes.clear()
        gap_profile(problem143, 0.6, points=302, k=2)
        assert sizes == [128, 128, 44]


class TestCsv:
    def test_trace_csv_schema(self, problem143):
        trace = run_schedule(problem143, Schedule(checkpoints=(0, 20)))
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "step,s,index,population"
        assert len(lines) == 1 + 2 * 16
        first = lines[1].split(",")
        assert first[:3] == ["0", "0", "0"]
        assert float(first[3]) == pytest.approx(1 / 16)

    def test_gap_csv_schema(self, problem143):
        trace = gap_profile(problem143, 0.6, points=5, k=3)
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "s,E0,E1,E2"
        assert len(lines) == 6
        assert lines[1].split(",")[1] == "-2.4"

    def test_float_format_keeps_twelve_digits(self, problem143):
        trace = gap_profile(problem143, 0.6, points=3, k=2)
        buf = io.StringIO()
        trace.to_csv(buf)
        row = buf.getvalue().strip().splitlines()[2].split(",")
        assert row[0] == "0.5"
        assert abs(float(row[1]) - trace.energies[1, 0]) < 1e-10
