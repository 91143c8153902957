"""Acceptance gate: nine pinned criteria, one verdict line each.

Verdict lines are collected in VERDICT_LINES and echoed after the run
by the conftest terminal-summary hook, so they stay visible whether or
not output capture is on.  Tolerances and time budgets are fixed here
on purpose; loosening them is a regression, not a fix.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from adiafact import (
    Infeasible,
    Monomial,
    Poly,
    Schedule,
    VarId,
    assemble_problem,
    build_layout,
    decode_assignment,
    direct_cost_diagonal,
    enumerate_width_splits,
    factor,
    gap_profile,
    ground_manifold,
    interpolated_hamiltonian,
    polynomial_to_diagonal,
    propagate_step,
    run_schedule,
    simplify,
    success_probability,
)

from oracles import (
    basis_index,
    column_solutions,
    odd_semiprimes,
    poly_evaluate,
    simplified_solutions,
)

P1, P2, Q1, Q2 = VarId.p(1), VarId.p(2), VarId.q(1), VarId.q(2)

VERDICT_LINES: list[str] = []


@contextmanager
def verdict(number: int, title: str):
    try:
        yield
    except BaseException:
        VERDICT_LINES.append(f"criterion {number}: FAIL  {title}")
        print(VERDICT_LINES[-1], flush=True)
        raise
    VERDICT_LINES.append(f"criterion {number}: PASS  {title}")
    print(VERDICT_LINES[-1], flush=True)


def poly_of(*terms):
    return Poly([(Monomial(vs), c) for c, vs in terms])


def test_criterion_1_compiler_regression():
    with verdict(1, "compile 143 (4,4): the three residual equations, all carries fixed"):
        t0 = time.perf_counter()
        system = simplify(build_layout(143, 4, 4))
        elapsed = time.perf_counter() - t0

        residuals = {eq.residual for eq in system.equations}
        expected = {
            poly_of((1, [P1]), (1, [Q1]), (-1, [])),
            poly_of((1, [P2]), (1, [Q2]), (-1, [])),
            poly_of((1, [P2, Q1]), (1, [P1, Q2]), (-1, [])),
        }
        assert residuals == expected

        fixed = {str(var): value for var, value in system.fixed.items()}
        assert fixed == {
            "z1_2": 0, "z2_3": 0, "z2_4": 0, "z3_4": 1, "z3_5": 0,
            "z4_5": 1, "z4_6": 0, "z5_6": 1, "z5_7": 0, "z6_7": 1,
        }
        assert all(v.kind != "z" for v in system.variables)
        assert elapsed < 0.1


def test_criterion_2_hamiltonian_regression():
    with verdict(2, "pairing-first penalty equals the known 11-term polynomial exactly"):
        system = simplify(build_layout(143, 4, 4))
        _, penalty = assemble_problem(system, pairing="first")
        expected = poly_of(
            (5, []),
            (-3, [P1]), (-1, [P2]), (-1, [Q1]), (-3, [Q2]),
            (2, [P1, Q1]), (1, [P1, Q2]), (-3, [P2, Q1]), (2, [P2, Q2]),
            (2, [P1, P2, Q1]), (2, [P2, Q1, Q2]),
        )
        assert penalty == expected  # exact integer equality, no tolerance


def test_criterion_3_ground_manifold():
    with verdict(3, "diagonal minimum is exactly 0, attained exactly at indices 6 and 9"):
        system = simplify(build_layout(143, 4, 4))
        qmap, penalty = assemble_problem(system, pairing="first")
        diag = polynomial_to_diagonal(penalty, qmap)
        manifold = ground_manifold(diag)
        assert manifold.energy == 0
        assert manifold.indices == (6, 9)

        # the penalty at each of the 16 assignments, evaluated outside the diagonal kernel
        cube = itertools.product((0, 1), repeat=4)
        assignments = [dict(zip(qmap.variables, bits)) for bits in cube]
        values = [poly_evaluate(penalty, a) for a in assignments]
        assert min(values) == 0
        zeros = [a for a, value in zip(assignments, values) if value == 0]
        assert tuple(sorted(basis_index(a, qmap.variables) for a in zeros)) == (6, 9)


def test_criterion_4_headline_simulation():
    with verdict(4, "g=0.6 T=20 M=20 puts 0.989 +/- 0.005 on the ground manifold"):
        t0 = time.perf_counter()
        system = simplify(build_layout(143, 4, 4))
        qmap, penalty = assemble_problem(system)
        diag = polynomial_to_diagonal(penalty, qmap)
        schedule = Schedule(g=0.6, T=20.0, M=20)
        trace = run_schedule(diag, schedule)
        prob = success_probability(trace.final_populations, ground_manifold(diag))
        elapsed = time.perf_counter() - t0
        assert abs(prob - 0.989) <= 0.005
        assert elapsed < 5.0


def test_criterion_5_spectrum_shape():
    with verdict(5, "E0 starts at -2.4, stays separated for s<1, meets E1 at 0 when s=1"):
        system = simplify(build_layout(143, 4, 4))
        qmap, penalty = assemble_problem(system, pairing="first")
        diag = polynomial_to_diagonal(penalty, qmap)
        profile = gap_profile(diag, 0.6, points=101, k=3)

        assert profile.energies[0, 0] == pytest.approx(-2.4, abs=1e-12)
        interior = profile.energies[profile.s_values < 1.0]
        assert np.all(interior[:, 1] - interior[:, 0] > 0)
        assert profile.energies[-1, 0] == pytest.approx(0.0, abs=1e-12)
        assert profile.energies[-1, 1] == pytest.approx(0.0, abs=1e-12)


def test_criterion_6_end_to_end_factorizations():
    with verdict(6, "factor() recovers (11,13) (3,5) (3,7) (5,5) (5,7)"):
        t0 = time.perf_counter()
        expected = {143: (11, 13), 15: (3, 5), 21: (3, 7), 25: (5, 5), 35: (5, 7)}
        for target, (p, q) in expected.items():
            result = factor(target)
            assert (result.p, result.q) == (p, q)
            assert result.p * result.q == target
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0


def test_criterion_7_soundness_sweep():
    with verdict(7, "simplification preserves solution sets for every odd semiprime < 512"):
        t0 = time.perf_counter()
        checked = 0
        for target in odd_semiprimes(512):
            for w_p, w_q in enumerate_width_splits(target):
                oracle = {
                    tuple(sorted(a.items()))
                    for a in column_solutions(target, w_p, w_q)
                }
                try:
                    system = simplify(build_layout(target, w_p, w_q))
                except Infeasible:
                    assert oracle == set(), (target, w_p, w_q)
                    continue
                ours = simplified_solutions(system)
                assert ours == oracle, (target, w_p, w_q)
                for solution in ours:
                    p, q = decode_assignment(dict(solution), system)
                    assert p * q == target
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked > 100  # the sweep must not silently skip everything
        assert elapsed < 60.0


def test_criterion_8_numerical_invariants():
    with verdict(8, "unitary steps, bounded norm drift, unit populations, swap symmetry"):
        system = simplify(build_layout(143, 4, 4))
        qmap, penalty = assemble_problem(system, pairing="first")
        diag = polynomial_to_diagonal(penalty, qmap)
        dim = 1 << qmap.n

        # per-step unitarity of the synthesized propagator
        schedule = Schedule(g=0.6, T=20.0, M=20)
        eye = np.eye(dim, dtype=np.complex128)
        for step in range(1, schedule.M + 1):
            h = interpolated_hamiltonian(np.array([schedule.s_at(step)]), schedule.g, diag)
            u = np.column_stack(
                [propagate_step(eye[:, j], h, schedule.tau)[0] for j in range(dim)]
            )
            assert np.max(np.abs(u.conj().T @ u - eye)) <= 1e-10

        # norm drift over a long schedule
        fine = Schedule(g=0.6, T=20.0, M=100, checkpoints=tuple(range(0, 101, 10)))
        trace = run_schedule(diag, fine)
        assert abs(np.linalg.norm(trace.final_state) - 1.0) <= 1e-9

        # populations are a probability vector at every checkpoint
        for point in trace.points:
            assert abs(point.populations.sum() - 1.0) <= 1e-9
            assert np.all(point.populations >= 0)

        # p <-> q swap symmetry of the square-penalty assembly on
        # equal-width instances; quadratization picks one product per
        # equation and loses this symmetry, so it is checked where the
        # operator itself commutes with the swap
        for target, width in ((35, 3), (143, 4)):
            sq_system = simplify(build_layout(target, width, width))
            sq_map, sq_penalty = assemble_problem(sq_system, pairing="none")
            sq_diag = polynomial_to_diagonal(sq_penalty, sq_map)
            sq_trace = run_schedule(sq_diag, Schedule(g=0.6, T=20.0, M=20))
            pops = sq_trace.final_populations

            def swapped(var):
                if var.kind == "p":
                    return VarId.q(var[1])
                if var.kind == "q":
                    return VarId.p(var[1])
                return var

            perm = np.empty(1 << sq_map.n, dtype=int)
            for index in range(1 << sq_map.n):
                assignment = sq_map.assignment_of(index)
                perm[index] = basis_index(
                    {swapped(v): bit for v, bit in assignment.items()}, sq_map.variables
                )
            assert np.max(np.abs(pops - pops[perm])) <= 1e-6


def test_criterion_9_spectral_scaling():
    with verdict(9, "direct-cost range grows with N, table-scheme range with log2 N"):
        direct = direct_cost_diagonal(143, 4, 4)
        assert direct.max_energy() >= 2 * 10**4  # (143 - 1*1)^2 and worse

        system = simplify(build_layout(143, 4, 4))
        qmap, penalty = assemble_problem(system, pairing="first")
        table = polynomial_to_diagonal(penalty, qmap)
        assert table.max_energy() <= 20
        assert direct.min_energy() == table.min_energy() == 0
