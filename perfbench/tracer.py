"""Spans around every call into adiafact's public functions, recorded from outside.

install() replaces each public module-level function of the six layers
with a timing wrapper at every adiafact namespace that binds it: the
package itself, and the modules that import it by name (orchestrator
binds simplify, build_layout, assemble_problem, polynomial_to_diagonal,
run_schedule and gap_profile; engine binds interpolated_hamiltonian; cli
binds compile_system).  The polynomial class only gets call counters:
its methods run hundreds of thousands of times per screen pass, and a
span each would swamp the run.

A span is [name, start, end, parent, call id]; the call id is the
workload call (one closed-loop request) the span belongs to.  Spans stay
in memory and are written out once, when the run ends.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("pseudobool", "compiler", "hamiltonian", "engine", "orchestrator", "cli")
POLY_COUNTED = {"__init__": "init", "substitute": "substitute", "__mul__": "mul", "__rmul__": "mul"}


class Tracer:
    def __init__(self, api):
        self.api = api
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = defaultdict(float)
        self.call_id = 0
        self._restore: list[tuple] = []
        self._observers = {
            "compiler.simplify": self._on_simplify,
            "hamiltonian.assemble_problem": self._on_assemble,
            "hamiltonian.polynomial_to_diagonal": self._on_diagonal,
            "hamiltonian.interpolated_hamiltonian": self._on_dense,
            "engine.propagate_step": self._on_propagate,
            "engine.lowest_eigenvalues": self._on_lowest,
            "engine.run_schedule": self._on_run_schedule,
            "orchestrator.factor": self._on_factor,
        }
        self._cap = api.qubit_cap()

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "adiafact"]
        for layer in LAYERS:
            module = sys.modules[f"adiafact.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._span_wrapper(f"{layer}.{attr}", fn)
                for namespace in modules:
                    for bound_as, value in list(vars(namespace).items()):
                        if value is fn:
                            self._replace(namespace, bound_as, fn, wrapper)
        poly = self.api.Poly
        for method, label in POLY_COUNTED.items():
            self._replace(poly, method, poly.__dict__[method], self._count_wrapper(
                f"pseudobool.Poly.{label}.calls", poly.__dict__[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        observer = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call_id]
            stack.append(len(self.spans))
            self.spans.append(span)
            result = error = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if observer is not None:
                    observer(args, result, error)

        return traced

    # -- counters taken at the layer boundaries --------------------------

    def _on_simplify(self, args, system, error):
        if error is not None:
            self.counts["compiler.simplify.infeasible"] += isinstance(error, self.api.Infeasible)
            return
        seen = set(v for pair in system.forbidden_pairs for v in pair)
        for eq in system.equations:
            seen.update(eq.lhs.variables())
            seen.update(eq.rhs.variables())
        self.counts["compiler.free_vars.total"] += len(seen)

    def _on_assemble(self, args, result, error):
        if error is None:
            qmap, penalty = result
            self.counts["hamiltonian.penalty_terms"] += len(penalty)
            self.counts["hamiltonian.cap_skips"] += qmap.n > self._cap
            self.maxima["hamiltonian.qubits_max"] = max(
                self.maxima["hamiltonian.qubits_max"], qmap.n)

    def _on_diagonal(self, args, problem, error):
        if error is None:
            self.counts["hamiltonian.diagonal_entries"] += problem.dim

    def _on_dense(self, args, matrix, error):
        if error is None:
            self.counts["hamiltonian.dense_bytes_computed"] += matrix.nbytes

    def _on_propagate(self, args, result, error):
        self.counts["engine.eig_work_d3"] += args[1].shape[0] ** 3  # (state, hamiltonian, tau)

    def _on_lowest(self, args, result, error):
        self.counts["engine.eig_work_d3"] += args[0].shape[0] ** 3  # (hamiltonian, k)

    def _on_run_schedule(self, args, trace, error):
        if error is None:
            drift = abs(float(np.linalg.norm(trace.final_state)) - 1.0)
            self.maxima["engine.norm_drift_max"] = max(self.maxima["engine.norm_drift_max"], drift)

    def _on_factor(self, args, result, error):
        if error is None:
            self.counts[f"orchestrator.mode_{result.mode}"] += 1

    # -- output ----------------------------------------------------------

    def span_table(self) -> dict[str, dict]:
        """Per function: calls, inclusive seconds, self seconds and each call's duration."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                      "durations": []})
        for (name, start, end, parent, _), children in zip(self.spans, child_time):
            row = table[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - children
            row["durations"].append(end - start)
        return table

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def write(self, path, stamp: dict) -> None:
        """Spans as JSON lines after one header line holding the stamp."""
        with open(path, "w") as stream:
            stream.write(json.dumps({"stamp": stamp, "fields": ["name", "start", "end",
                                                                 "parent", "call_id"]}) + "\n")
            for span in self.spans:
                stream.write(json.dumps(span) + "\n")


def per_layer_metrics(tracer: Tracer, passes: int, traced_wall: float, untraced_wall: float,
                      caller_counts: Counter) -> dict[str, tuple[float, str]]:
    """The traced run's per-layer figures, per pass, as name -> (value, unit).

    Seconds are summed over all calls in a pass.  Maxima are over the
    whole run.  traced_wall is the traced passes' total, untraced_wall
    one untraced pass of the same workload in the same process.
    """
    table = tracer.span_table()
    counts = tracer.counts

    def seconds(name, field="s"):
        return table[name][field] / passes if name in table else 0.0

    def calls(name):
        return table[name]["calls"] / passes if name in table else 0.0

    def per_pass(key):
        return counts[key] / passes

    def layer_self(layer):
        return sum(row["self_s"] for name, row in table.items()
                   if name.startswith(layer + ".")) / passes

    def median(values):
        ordered = sorted(values)
        return ordered[(len(ordered) - 1) // 2] if ordered else 0.0

    simplify_calls = table["compiler.simplify"]["calls"] if "compiler.simplify" in table else 0
    feasible = simplify_calls - counts["compiler.simplify.infeasible"]
    engine_calls = sum(row["calls"] for name, row in table.items() if name.startswith("engine."))
    propagate = table.get("engine.propagate_step", {"durations": []})["durations"]
    modes = {mode: (counts[f"orchestrator.mode_{mode}"] + caller_counts[f"mode_{mode}"]) / passes
             for mode in ("adiabatic", "preprocessed")}
    traced_pass = traced_wall / passes
    s, n = "s", "count"
    return {
        "pseudobool.Poly.init.calls": (per_pass("pseudobool.Poly.init.calls"), n),
        "pseudobool.Poly.substitute.calls": (per_pass("pseudobool.Poly.substitute.calls"), n),
        "pseudobool.Poly.mul.calls": (per_pass("pseudobool.Poly.mul.calls"), n),
        "compiler.build_layout.s": (seconds("compiler.build_layout"), s),
        "compiler.simplify.s": (seconds("compiler.simplify"), s),
        "compiler.simplify.calls": (calls("compiler.simplify"), n),
        "compiler.simplify.infeasible": (per_pass("compiler.simplify.infeasible"), n),
        "compiler.split_yield": (feasible / simplify_calls if simplify_calls else 0.0, "ratio"),
        "compiler.free_vars": (counts["compiler.free_vars.total"] / feasible if feasible else 0.0,
                               n),
        "compiler.self_s": (layer_self("compiler"), s),
        "hamiltonian.assemble_problem.s": (seconds("hamiltonian.assemble_problem"), s),
        "hamiltonian.penalty_terms": (per_pass("hamiltonian.penalty_terms"), n),
        "hamiltonian.polynomial_to_diagonal.s": (seconds("hamiltonian.polynomial_to_diagonal"), s),
        "hamiltonian.diagonal_entries": (per_pass("hamiltonian.diagonal_entries"), n),
        "hamiltonian.qubits_max": (tracer.maxima["hamiltonian.qubits_max"], "qubits"),
        "hamiltonian.cap_skips": (per_pass("hamiltonian.cap_skips"), n),
        "hamiltonian.interpolated_hamiltonian.calls": (
            calls("hamiltonian.interpolated_hamiltonian"), n),
        "hamiltonian.interpolated_hamiltonian.s": (
            seconds("hamiltonian.interpolated_hamiltonian"), s),
        "hamiltonian.dense_bytes_computed": (per_pass("hamiltonian.dense_bytes_computed"), "B"),
        "hamiltonian.self_s": (layer_self("hamiltonian"), s),
        "engine.run_schedule.s": (seconds("engine.run_schedule"), s),
        "engine.propagate_step.calls": (calls("engine.propagate_step"), n),
        "engine.propagate_step.s": (seconds("engine.propagate_step"), s),
        "engine.propagate_step.p50_s": (median(propagate), s),
        "engine.gap_profile.s": (seconds("engine.gap_profile"), s),
        "engine.lowest_eigenvalues.calls": (calls("engine.lowest_eigenvalues"), n),
        "engine.lowest_eigenvalues.s": (seconds("engine.lowest_eigenvalues"), s),
        "engine.eig_work_d3": (per_pass("engine.eig_work_d3"), "dim3"),
        "engine.norm_drift_max": (tracer.maxima["engine.norm_drift_max"], "norm"),
        "engine.calls": (engine_calls / passes, n),
        "engine.calls_per_s": (engine_calls / traced_wall, "1/s"),
        "engine.self_s": (layer_self("engine"), s),
        "orchestrator.factor.s": (seconds("orchestrator.factor"), s),
        "orchestrator.factor.self_s": (seconds("orchestrator.factor", "self_s"), s),
        "orchestrator.sweep.s": (seconds("orchestrator.sweep"), s),
        "orchestrator.ground_manifold.s": (seconds("orchestrator.ground_manifold"), s),
        "orchestrator.splits_tried": (calls("compiler.build_layout"), n),
        "orchestrator.mode_adiabatic": (modes["adiabatic"], n),
        "orchestrator.mode_preprocessed": (modes["preprocessed"], n),
        "orchestrator.self_s": (layer_self("orchestrator"), s),
        "cli.main.s": (seconds("cli.main"), s),
        "cli.main.self_s": (seconds("cli.main", "self_s"), s),
        "cli.output_bytes": (caller_counts["output_bytes"] / passes, "B"),
        "cli.self_s": (layer_self("cli"), s),
        "bench.untraced_wall_s": (untraced_wall, s),
        "bench.traced_wall_s": (traced_pass, s),
        "bench.trace_overhead_s": (traced_pass - untraced_wall, s),
        "bench.self_s": ((traced_wall - tracer.top_level_seconds()) / passes, s),
    }
