"""Command line driver.

Subcommands mirror the library stages:

  compile   target -> equation-system JSON (or the penalty diagonal as CSV)
  simulate  run the schedule, print a summary JSON, optionally dump the trace CSV
  spectrum  sample the k lowest energies along s as CSV
  factor    full pipeline, print a FactorResult JSON
  sweep     vary one schedule axis, emit (value, success, min gap) CSV

Exit codes: 0 success, 1 usage or invalid request, 2 infeasible or not
factorable, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from functools import lru_cache
from typing import Optional

import numpy as np

from . import orchestrator
from .compiler import _frac_str, compile_system, system_from_document, system_to_document
from .engine import _FLOAT_FMT, Schedule, gap_profile, run_schedule
from .errors import (
    AdiafactError,
    EmptySystem,
    Infeasible,
    NotFactorable,
    NumericalFailure,
)
from .hamiltonian import assemble_problem, polynomial_to_diagonal


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for infeasibility; argparse uses 2 for usage errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FIRST_FEASIBLE = "bit widths of the factors (default: first feasible split)"
_FACTOR_SPLIT = "bit widths of the factors (default: the split factor anneals or solves)"


def _add_instance_args(parser, widths_help: str, target_optional: bool = False):
    if target_optional:
        parser.add_argument("target", type=int, nargs="?", help="odd integer to compile")
    else:
        parser.add_argument("target", type=int, help="odd integer to compile")
    parser.add_argument("--widths", type=int, nargs=2, metavar=("WP", "WQ"), help=widths_help)
    parser.add_argument(
        "--paper-pairing", action="store_true",
        help="pair the lexicographically first product when quadratizing",
    )


def _add_schedule_args(parser: argparse.ArgumentParser):
    parser.add_argument("--g", type=float, default=0.6, help="transverse field strength")
    parser.add_argument("--T", type=float, default=20.0, help="total evolution time")
    parser.add_argument("--M", type=int, default=20, help="number of schedule steps")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adiafact", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a target into an equation system")
    _add_instance_args(p_compile, _FIRST_FEASIBLE)
    p_compile.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="json: system document; csv: penalty diagonal (index, energy)",
    )
    p_compile.add_argument("--out", help="write here instead of stdout")

    p_sim = sub.add_parser("simulate", help="run the adiabatic schedule")
    _add_instance_args(p_sim, _FACTOR_SPLIT, target_optional=True)
    _add_schedule_args(p_sim)
    p_sim.add_argument(
        "--system", help="load a compiled system document instead of compiling"
    )
    p_sim.add_argument(
        "--checkpoints", type=int, nargs="+", default=None,
        help="steps at which to record populations (default: quartiles)",
    )
    p_sim.add_argument("--out", help="write the evolution trace CSV here")

    p_spec = sub.add_parser("spectrum", help="sample the low spectrum along s")
    _add_instance_args(p_spec, _FACTOR_SPLIT)
    p_spec.add_argument("--g", type=float, default=0.6, help="transverse field strength")
    p_spec.add_argument("--levels", type=int, default=3, help="how many energies per sample")
    p_spec.add_argument("--points", type=int, default=101, help="number of s samples")
    p_spec.add_argument("--out", help="write the CSV here instead of stdout")

    p_factor = sub.add_parser("factor", help="factor a target end to end")
    _add_instance_args(p_factor, _FACTOR_SPLIT)
    _add_schedule_args(p_factor)
    p_factor.add_argument(
        "--points", type=int, default=51, help="s samples for the reported min gap (0: skip)"
    )
    p_factor.add_argument("--out", help="write the result JSON here")

    p_sweep = sub.add_parser("sweep", help="vary one schedule axis")
    _add_instance_args(p_sweep, _FACTOR_SPLIT)
    _add_schedule_args(p_sweep)
    p_sweep.add_argument("--axis", choices=("g", "T", "M"), required=True)
    p_sweep.add_argument(
        "--values", type=float, nargs="+", required=True, help="axis values to run"
    )
    p_sweep.add_argument(
        "--points", type=int, default=51, help="s samples for the min-gap column (0: skip)"
    )
    p_sweep.add_argument("--out", help="write the CSV here instead of stdout")
    return parser


@contextmanager
def _open_out(path: Optional[str]):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", newline="") as stream:
            yield stream


def _pairing(args) -> str:
    return "first" if args.paper_pairing else "last"


def _widths(args) -> Optional[tuple[int, int]]:
    return tuple(args.widths) if args.widths else None


def _cmd_compile(args) -> int:
    system = compile_system(args.target, _widths(args))
    if args.format == "json":
        with _open_out(args.out) as stream:
            json.dump(system_to_document(system), stream, indent=2)
            stream.write("\n")
        return 0
    qmap, penalty = assemble_problem(system, pairing=_pairing(args))
    problem = polynomial_to_diagonal(penalty, qmap)
    with _open_out(args.out) as stream:
        writer = csv.writer(stream)
        writer.writerow(["index", "energy"])
        for index, energy in enumerate(problem.energies):
            writer.writerow([index, _frac_str(energy)])
    return 0


def _load_problem(args):
    """(system, penalty diagonal) of a loaded document, or of factor()'s split."""
    if getattr(args, "system", None):
        if args.widths:
            raise ValueError("--widths cannot be combined with --system")
        with open(args.system) as stream:
            document = json.load(stream)
        system = system_from_document(document)
        if args.target is not None and args.target != system.target:
            raise ValueError(
                f"target {args.target} does not match the document's n={system.target}"
            )
        qmap, penalty = assemble_problem(system, pairing=_pairing(args))
        return system, polynomial_to_diagonal(penalty, qmap)
    if args.target is None:
        raise ValueError("a target (or --system) is required")
    system, _, problem = orchestrator.select_split(args.target, _widths(args), _pairing(args))
    if problem is None:
        raise EmptySystem(f"{args.target}: nothing left to solve")
    return system, problem


def _cmd_simulate(args) -> int:
    system, problem = _load_problem(args)
    checkpoints = tuple(args.checkpoints) if args.checkpoints else ()
    schedule = Schedule(g=args.g, T=args.T, M=args.M, checkpoints=checkpoints)
    trace = run_schedule(problem, schedule)
    manifold = orchestrator.ground_manifold(problem)
    summary = {
        "n": system.target,
        "widths": list(system.widths),
        "qubits": problem.n,
        "ground_manifold": list(manifold.indices),
        "ground_energy": _frac_str(manifold.energy),
        "success_probability": orchestrator.success_probability(
            trace.final_populations, manifold
        ),
        "schedule": schedule.to_json_dict(),
    }
    if args.out:
        with _open_out(args.out) as stream:
            trace.to_csv(stream)
    json.dump(summary, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_spectrum(args) -> int:
    _, problem = _load_problem(args)
    profile = gap_profile(problem, args.g, points=args.points, k=args.levels)
    with _open_out(args.out) as stream:
        profile.to_csv(stream)
    return 0


def _cmd_factor(args) -> int:
    result = orchestrator.factor(
        args.target,
        widths=_widths(args),
        g=args.g,
        T=args.T,
        M=args.M,
        pairing=_pairing(args),
        gap_points=args.points,
    )
    with _open_out(args.out) as stream:
        json.dump(result.to_json_dict(), stream, indent=2)
        stream.write("\n")
    return 0


def _cmd_sweep(args) -> int:
    points = orchestrator.sweep(
        args.target,
        args.axis,
        args.values,
        widths=_widths(args),
        g=args.g,
        T=args.T,
        M=args.M,
        pairing=_pairing(args),
        gap_points=args.points,
    )
    with _open_out(args.out) as stream:
        writer = csv.writer(stream)
        writer.writerow(["value", "success_probability", "min_gap"])
        for point in points:
            writer.writerow(
                [
                    _FLOAT_FMT % point.value,
                    _FLOAT_FMT % point.success_probability,
                    "" if point.min_gap is None else _FLOAT_FMT % point.min_gap,
                ]
            )
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "simulate": _cmd_simulate,
    "spectrum": _cmd_spectrum,
    "factor": _cmd_factor,
    "sweep": _cmd_sweep,
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process, on the first main() call, not at import."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # overflow and invalid values surface as the NumericalFailure of an
        # explicit finiteness check, so numpy's warnings would only repeat it
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except (Infeasible, NotFactorable) as exc:
        print(f"adiafact: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"adiafact: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (AdiafactError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"adiafact: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError says nothing
        print(f"adiafact: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
