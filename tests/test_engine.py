"""Stepped evolution against an independent matrix-exponential reference."""

import io

import numpy as np
import pytest

from adiafact import (
    DimensionMismatch,
    IndexOutOfRange,
    NumericalFailure,
    Schedule,
    assemble_problem,
    compile_system,
    gap_profile,
    initial_state,
    interpolated_hamiltonian,
    lowest_eigenvalues,
    polynomial_to_diagonal,
    populations,
    propagate_step,
    run_schedule,
)

from oracles import dense_mixer, expm_schedule

# frozen reference values, computed once with an independent
# scipy.linalg.expm propagation of the same discretized schedule
SUCCESS_143 = 0.9887597017028644
MIN_GAP_143 = 1.818155342778935e-05


@pytest.fixture(scope="module")
def problem143():
    system = compile_system(143, (4, 4))
    qmap, penalty = assemble_problem(system, pairing="first")
    return polynomial_to_diagonal(penalty, qmap)


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

    def test_bad_size(self):
        with pytest.raises(ValueError):
            initial_state(0)


class TestPropagateStep:
    def test_single_qubit_ground_state_gains_global_phase(self):
        # H = g * sigma_x, ground state (1,-1)/sqrt(2) with energy -g,
        # so one step multiplies by exp(+i g tau) exactly
        g, tau = 0.6, 0.7
        psi = initial_state(1)
        out = propagate_step(psi, dense_mixer(1, g), tau)
        assert np.allclose(out, np.exp(1j * g * tau) * psi, atol=1e-14)

    def test_unitarity(self, problem143):
        rng = np.random.default_rng(7)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        h = interpolated_hamiltonian(0.37, 0.6, problem143)
        out = propagate_step(state, h, 1.0)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            propagate_step(np.zeros(4, complex), np.zeros((2, 2)), 1.0)
        with pytest.raises(DimensionMismatch):
            propagate_step(np.zeros(2, complex), np.zeros((2, 3)), 1.0)

    def test_nonfinite_rejected(self):
        h = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalFailure):
            propagate_step(np.zeros(2, complex), h, 1.0)


class TestRunSchedule:
    def test_final_state_matches_expm_reference(self, problem143):
        sched = Schedule()
        trace = run_schedule(problem143, sched)
        reference = expm_schedule(
            np.array([float(e) for e in problem143.energies]),
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


class TestSpectra:
    def test_lowest_eigenvalues_sorted_subset(self, problem143):
        h = interpolated_hamiltonian(0.5, 0.6, problem143)
        three = lowest_eigenvalues(h, 3)
        assert list(three) == sorted(three)
        assert np.allclose(three, np.linalg.eigvalsh(h)[:3])

    def test_k_range(self, problem143):
        h = interpolated_hamiltonian(0.5, 0.6, problem143)
        with pytest.raises(IndexOutOfRange):
            lowest_eigenvalues(h, 0)
        with pytest.raises(IndexOutOfRange):
            lowest_eigenvalues(h, 17)

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
