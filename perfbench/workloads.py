"""The benchmark's three workloads: seeded inputs, closed-loop calls, output checks.

Each workload drives adiafact's public API the way a caller would: one
call at a time, the next issued after the previous one returns.  The
seed only chooses inputs (target order, axis values); the program sees
the generated arguments and nothing else.

A workload splits every call in two: ``invoke`` runs the program and is
timed; ``check`` inspects the outputs and returns the problems found
(an empty list means the call is correct).  Checks compare against the
stored references in references.json and against independent arithmetic
(decoded factors must multiply back to the target).  The only library
code a check calls is QubitMap.assignment_of, which defines what a basis
index means; no public function is called, so a traced run attributes
no check work to the program.

``counts`` collects the outcomes only the caller can see (captured CLI
output bytes, screen modes); the tracer reads them for its per-layer
figures.
"""

from __future__ import annotations

import io
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

TOLERANCE = 1e-9  # the suite freezes SUCCESS_143 / MIN_GAP_143 at this tolerance

ANNEAL_TARGETS = (143, 899, 3599, 77, 323, 121)
SCREEN_LARGE = (1763, 10403, 30227, 1046527)
SWEEP_TARGETS = (35, 899, 143, 3599)
SWEEP_AXES = ("g", "T", "M")
SWEEP_CALLS = 108  # a multiple of 4 targets x 3 axes, so every pass has the same mix
SWEEP_VALUES_PER_CALL = 3
# Axis values come from fixed grids so that every value any seed can draw
# has a stored reference row.  Run cost does not depend on g or T; the M
# values of one call always sum to 60 steps, so no seed draws a heavier pass.
M_LOW = range(5, 16)
M_TOTAL = 40
M_MIDDLE = 20
SWEEP_GRIDS = {
    "g": tuple(round(0.2 + 0.05 * k, 2) for k in range(27)),
    "T": tuple(range(4, 41)),
    "M": tuple(sorted({*M_LOW, *(M_TOTAL - m for m in M_LOW), M_MIDDLE})),
}
SWEEP_HEADER = "value,success_probability,min_gap"


def odd_semiprimes(below: int) -> tuple[int, ...]:
    """Odd n < below with exactly two prime factors, counted with multiplicity."""

    def is_prime(k: int) -> bool:
        return k > 1 and all(k % d for d in range(2, int(k**0.5) + 1))

    out = []
    for n in range(9, below, 2):
        for p in range(3, int(n**0.5) + 1, 2):
            if n % p == 0:
                if is_prime(p) and is_prime(n // p):
                    out.append(n)
                break
    return tuple(out)


SCREEN_TARGETS = odd_semiprimes(512) + SCREEN_LARGE


def sweep_key(target: int, axis: str, value: float) -> str:
    return f"{target}/{axis}/{value:g}"


def read_factor(kind: str, width: int, bits: dict) -> int:
    """Factor value from its interior bits; the end bits are 1 by construction."""
    value = 1 | (1 << (width - 1))
    for i in range(1, width - 1):
        value |= bits[(kind, i, 0)] << i
    return value


class Workload:
    """One named closed loop over seeded inputs."""

    name = ""

    def __init__(self, api, references: dict, seed: int):
        self.api = api
        self.references = references
        self.rng = random.Random(seed)
        self.counts: Counter = Counter()

    def pass_inputs(self) -> list:
        """The calls of the next pass; each pass draws afresh from the seeded generator."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def invoke(self, item):
        raise NotImplementedError

    def check(self, item, result) -> list[str]:
        raise NotImplementedError


class Anneal(Workload):
    """factor(N) at the default schedule over registers of 2 to 10 qubits."""

    name = "anneal"

    def pass_inputs(self) -> list:
        order = list(ANNEAL_TARGETS)
        self.rng.shuffle(order)
        return order

    def warm_up(self) -> None:
        self.api.factor(35)

    def invoke(self, target):
        return self.api.factor(target)

    def check(self, target, result) -> list[str]:
        ref = self.references["anneal"][str(target)]
        problems = []
        if result.p * result.q != target:
            problems.append(f"{result.p} * {result.q} != {target}")
        if [result.p, result.q] != ref["factors"]:
            problems.append(f"factors {[result.p, result.q]}, expected {ref['factors']}")
        if result.mode != ref["mode"] or list(result.widths) != ref["widths"]:
            problems.append(
                f"mode/widths {result.mode}/{list(result.widths)}, "
                f"expected {ref['mode']}/{ref['widths']}"
            )
        for field in ("success_probability", "min_gap"):
            got, want = getattr(result, field), ref[field]
            if got is None or abs(got - want) > TOLERANCE:
                problems.append(f"{field} {got!r}, expected {want!r} within {TOLERANCE}")
        return [f"factor({target}): {p}" for p in problems]


class Screen(Workload):
    """The classical split loop of factor(), stopped where the engine would start."""

    name = "screen"

    def pass_inputs(self) -> list:
        order = list(SCREEN_TARGETS)
        self.rng.shuffle(order)
        return order

    def warm_up(self) -> None:
        self.invoke(15)

    def invoke(self, target):
        """Mirror factor()'s split walk; return the outcome and what decodes it.

        test_screen_agrees_with_factor checks that this walk reaches the
        outcome factor() reaches, so a change to factor()'s walk shows there.
        """
        api = self.api
        cap = api.qubit_cap()
        for w_p, w_q in api.enumerate_width_splits(target):
            base = api.build_layout(target, w_p, w_q)
            try:
                system = api.simplify(base)
            except api.Infeasible:
                continue
            if system.is_solved:
                p, q = api.decode_assignment({}, system)
                self.counts["mode_preprocessed"] += 1
                outcome = {"outcome": "preprocessed", "widths": [w_p, w_q], "factors": [p, q]}
                return outcome, None
            qmap, penalty = api.assemble_problem(system)
            if qmap.n > cap:
                continue
            manifold = api.ground_manifold(api.polynomial_to_diagonal(penalty, qmap))
            if manifold.energy != 0:
                continue
            self.counts["mode_adiabatic"] += 1
            outcome = {
                "outcome": "handoff",
                "widths": [w_p, w_q],
                "qubits": qmap.n,
                "ground": list(manifold.indices),
            }
            return outcome, (system, qmap)
        return {"outcome": "none"}, None

    def check(self, target, result) -> list[str]:
        outcome, decoder = result
        problems = []
        ref = self.references["screen"][str(target)]
        if outcome != ref:
            problems.append(f"outcome {outcome}, expected {ref}")
        if outcome["outcome"] == "preprocessed":
            p, q = outcome["factors"]
            if p * q != target:
                problems.append(f"preprocessed factors {p} * {q} != {target}")
        elif outcome["outcome"] == "handoff":
            system, qmap = decoder
            w_p, w_q = system.widths
            for index in outcome["ground"]:
                bits = dict(system.fixed)
                bits.update(qmap.assignment_of(index))
                p, q = read_factor("p", w_p, bits), read_factor("q", w_q, bits)
                if p * q != target:
                    problems.append(f"ground index {index} decodes to {p} * {q}")
        return [f"screen({target}): {p}" for p in problems]


class SweepSmall(Workload):
    """In-process `adiafact sweep` CLI calls over 2- to 4-qubit registers."""

    name = "sweep-small"

    def pass_inputs(self) -> list:
        calls = []
        for k in range(SWEEP_CALLS):
            target = SWEEP_TARGETS[k % len(SWEEP_TARGETS)]
            axis = SWEEP_AXES[k % len(SWEEP_AXES)]
            calls.append((target, axis, self.draw_values(axis)))
        return calls

    def draw_values(self, axis: str) -> tuple:
        if axis != "M":
            return tuple(self.rng.sample(SWEEP_GRIDS[axis], SWEEP_VALUES_PER_CALL))
        low = self.rng.choice(M_LOW)
        values = [low, M_TOTAL - low, M_MIDDLE]
        self.rng.shuffle(values)
        return tuple(values)

    def warm_up(self) -> None:
        self.invoke((35, "T", (10,)))

    def invoke(self, item):
        target, axis, values = item
        argv = ["sweep", str(target), "--axis", axis, "--values"]
        argv += [f"{v:g}" for v in values]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.api.cli.main(argv)
        text = out.getvalue()
        self.counts["output_bytes"] += len(text.encode())
        return code, text, err.getvalue()

    def check(self, item, result) -> list[str]:
        target, axis, values = item
        code, text, err = result
        where = f"sweep {target} --axis {axis} --values {' '.join(f'{v:g}' for v in values)}"
        if code != 0:
            return [f"{where}: exit code {code}: {err.strip()}"]
        lines = text.splitlines()
        if not lines or lines[0] != SWEEP_HEADER:
            return [f"{where}: header {lines[:1]}, expected {SWEEP_HEADER!r}"]
        rows = lines[1:]
        if len(rows) != len(values):
            return [f"{where}: {len(rows)} rows for {len(values)} values"]
        problems = []
        gap_by_g: dict = {}
        for value, row in zip(values, rows):
            try:
                cells = row.split(",")
                got_value, prob, gap = float(cells[0]), float(cells[1]), float(cells[2])
            except (ValueError, IndexError):
                problems.append(f"unparsable row {row!r}")
                continue
            if got_value != float(value):
                problems.append(f"row value {got_value}, expected {value}")
            if not 0.0 <= prob <= 1.0:
                problems.append(f"success probability {prob} outside [0, 1]")
            g = value if axis == "g" else None
            if gap_by_g.setdefault(g, gap) != gap:
                problems.append(f"min_gap {gap} differs from {gap_by_g[g]} at the same g")
            ref = self.references["sweep"].get(sweep_key(target, axis, value))
            if ref is None:
                problems.append(f"no reference row for {sweep_key(target, axis, value)}")
            elif abs(prob - ref[0]) > TOLERANCE or abs(gap - ref[1]) > TOLERANCE:
                problems.append(f"row {row!r} differs from reference {ref}")
        return [f"{where}: {p}" for p in problems]


WORKLOADS = {cls.name: cls for cls in (Anneal, SweepSmall, Screen)}
