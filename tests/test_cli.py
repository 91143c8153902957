"""Command line behavior: outputs, round trips, exit codes."""

import contextlib
import copy
import hashlib
import io
import json
import re
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiafact import NotFactorable, build_layout, select_split, simplify, system_to_document
from adiafact.cli import main

SUCCESS_143 = 0.9887597017028644


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _energies(csv_text):
    """The energies of compile's index,energy CSV."""
    return [int(row.split(",")[1]) for row in csv_text.split()[1:]]


class TestCompile:
    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "compile", "143", "--widths", "4", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 143
        assert doc["widths"] == [4, 4]
        assert len(doc["equations"]) == 3
        assert doc["fixed"]["z3_4"] == 1
        assert ["p1", "q1"] in doc["forbidden_pairs"]
        assert doc["equations"][0]["rhs"] == [[1, []]]
        assert all(type(coeff) is int for coeff, _ in doc["equations"][0]["lhs"])

    def test_csv_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "compile", "143", "--widths", "4", "4",
            "--format", "csv", "--paper-pairing",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,energy"
        assert len(lines) == 17
        assert _energies(out) == [5, 2, 4, 1, 4, 3, 0, 1, 2, 0, 3, 1, 1, 1, 1, 3]

    def test_csv_diagonals_are_frozen(self, capsys):
        # sha256 over "N code\n" + stdout per target; the CSV is all integers,
        # so the digest does not depend on the platform
        digest = hashlib.sha256()
        for target in (35, 77, 121, 143, 323, 899, 3599):
            code, out, _ = run_cli(capsys, "compile", str(target), "--format", "csv")
            digest.update(f"{target} {code}\n{out}".encode())
        assert digest.hexdigest() == (
            "51b31bc87a093b23f29d370a304f26dac66e8c6dd02449e2665ff31121550533"
        )

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        code, out, _ = run_cli(capsys, "compile", "143", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 143

    def test_compile_falls_through_to_feasible_split(self, capsys):
        system, qmap, problem = select_split(15)
        assert system.widths == (2, 3)  # (2, 2) gives 3*3 = 9 != 15
        assert system.is_solved and qmap is None and problem is None
        code, out, _ = run_cli(capsys, "compile", "15")
        assert code == 0 and json.loads(out)["widths"] == [2, 3]

    def test_compile_all_splits_infeasible(self, capsys):
        with pytest.raises(NotFactorable) as refused:
            select_split(11)
        assert run_cli(capsys, "compile", "11") == (2, "", f"adiafact: {refused.value}\n")

    def test_compile_takes_the_split_factor_takes(self, capsys):
        # the first split that propagation does not refute is (4, 4) for 119,
        # with no zero-energy state, and (4, 5) for 265, 15 qubits over the
        # cap; factor anneals (3, 5) and (3, 6)
        for target, widths in (("119", [3, 5]), ("265", [3, 6])):
            code, out, _ = run_cli(capsys, "compile", target)
            assert code == 0 and json.loads(out)["widths"] == widths
            code, out, _ = run_cli(capsys, "compile", target, "--format", "csv")
            assert code == 0 and min(_energies(out)) == 0
        # factor solves 33 on (2, 4) by propagation alone, so there is no diagonal
        code, out, _ = run_cli(capsys, "compile", "33")
        assert code == 0 and json.loads(out)["widths"] == [2, 4]
        code, out, err = run_cli(capsys, "compile", "33", "--format", "csv")
        assert (code, out) == (1, "") and "nothing left to solve" in err

    def test_explicit_widths_compile_a_split_factor_refuses(self, capsys):
        # (3, 3) of 33 has no zero-energy state, and (6, 6) of 1763 has 20 qubits
        code, out, _ = run_cli(capsys, "compile", "33", "--widths", "3", "3", "--format", "csv")
        assert code == 0 and min(_energies(out)) == 1
        code, out, _ = run_cli(capsys, "compile", "1763", "--widths", "6", "6")
        assert code == 0 and len(json.loads(out)["variables"]) == 20
        assert run_cli(capsys, "compile", "1763")[0] == 1


class TestSimulate:
    def test_summary_and_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "143", "--widths", "4", "4",
            "--checkpoints", "0", "20", "--out", str(trace_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["n"] == 143
        assert summary["qubits"] == 4
        assert summary["ground_manifold"] == [6, 9]
        assert summary["ground_energy"] == 0
        assert summary["success_probability"] == pytest.approx(SUCCESS_143, abs=1e-9)
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "step,s,index,population"
        assert len(lines) == 1 + 2 * 16

    def test_instant_quench(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "143", "--widths", "4", "4", "--T", "1e-9", "--M", "1"
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["success_probability"] == pytest.approx(0.125, abs=1e-9)

    def test_system_document_round_trip(self, capsys, tmp_path):
        doc_path = tmp_path / "sys.json"
        code, _, _ = run_cli(
            capsys, "compile", "143", "--widths", "4", "4", "--out", str(doc_path)
        )
        assert code == 0
        code, fused, _ = run_cli(capsys, "simulate", "143", "--widths", "4", "4")
        assert code == 0
        code, loaded, _ = run_cli(capsys, "simulate", "--system", str(doc_path))
        assert code == 0
        assert loaded == fused

    def test_system_conflicts(self, capsys, tmp_path):
        doc_path = tmp_path / "sys.json"
        run_cli(capsys, "compile", "143", "--out", str(doc_path))
        code, _, err = run_cli(
            capsys, "simulate", "--system", str(doc_path), "--widths", "4", "4"
        )
        assert code == 1 and "--widths" in err
        code, _, err = run_cli(capsys, "simulate", "141", "--system", str(doc_path))
        assert code == 1 and "does not match" in err

    def test_anneals_the_split_factor_selects(self, capsys):
        # the first feasible split (4, 4) has ground energy 1; factor(119) anneals (3, 5)
        code, out, _ = run_cli(capsys, "simulate", "119")
        assert code == 0
        summary = json.loads(out)
        assert summary["widths"] == [3, 5]
        assert summary["ground_energy"] == 0

    def test_target_required_without_system(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 1 and "required" in err


class TestSpectrum:
    def test_csv_levels(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "143", "--widths", "4", "4",
            "--levels", "3", "--points", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,E0,E1,E2"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "-2.4"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(0.0, abs=1e-12)
        assert float(last[2]) == pytest.approx(0.0, abs=1e-12)


    def test_twelve_qubit_levels_build_no_dense_matrix(self, capsys, monkeypatch):
        # 145's register has 12 qubits, where a dense H(s) is 4096 square;
        # the frozen rows are those dense solves printed
        from adiafact import engine

        def no_dense_matrix(*args):
            raise AssertionError("dense H(s) built")

        monkeypatch.setattr(engine, "interpolated_hamiltonian", no_dense_matrix)
        code, out, err = run_cli(capsys, "spectrum", "145", "--points", "5")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "s,E0,E1,E2"
        expected = [
            [0, -7.2, -6, -6],
            [0.25, -1.82333075656, -1.28791035204, -1.19335275448],
            [0.5, -0.408210580565, 0.0762145587627, 0.351315231731],
            [0.75, -0.0628560791728, 0.667803611595, 1.30789207123],
            [1, 0, 1, 2],
        ]
        got = [[float(value) for value in line.split(",")] for line in lines[1:]]
        assert np.max(np.abs(np.array(got) - np.array(expected))) <= 1e-9


class TestFactorCommand:
    def test_result_json(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "143", "--points", "0")
        assert code == 0
        result = json.loads(out)
        assert (result["p"], result["q"]) == (11, 13)
        assert result["mode"] == "adiabatic"
        assert result["min_gap"] is None

    def test_preprocessed_target(self, capsys):
        code, out, _ = run_cli(capsys, "factor", "15")
        assert code == 0
        result = json.loads(out)
        assert (result["p"], result["q"]) == (3, 5)
        assert result["mode"] == "preprocessed"
        assert result["schedule"] is None


class TestSweepCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "143", "--widths", "4", "4",
            "--axis", "T", "--values", "1e-9", "20", "--points", "0",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,success_probability,min_gap"
        quench = lines[1].split(",")
        assert float(quench[1]) == pytest.approx(0.125, abs=1e-9)
        assert quench[2] == ""  # gap skipped
        assert float(lines[2].split(",")[1]) == pytest.approx(SUCCESS_143, abs=1e-9)


class TestExitCodes:
    def test_usage_errors_exit_1(self, capsys):
        assert run_cli(capsys, "compile")[0] == 1
        assert run_cli(capsys, "nonsense", "9")[0] == 1
        assert run_cli(capsys, "compile", "15", "--format", "xml")[0] == 1

    def test_even_and_small_targets_exit_1(self, capsys):
        assert run_cli(capsys, "compile", "12")[0] == 1
        assert run_cli(capsys, "factor", "7")[0] == 1

    def test_infeasible_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "compile", "25", "--widths", "2", "3")
        assert code == 2 and err != ""
        assert run_cli(capsys, "factor", "17")[0] == 2
        # feasible, but the split holds no factorization (ground energy 1)
        code, _, err = run_cli(capsys, "simulate", "119", "--widths", "4", "4")
        assert code == 2 and "zero-energy" in err

    def test_oversized_register_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("ADIAFACT_MAX_QUBITS", "2")
        code, _, err = run_cli(capsys, "simulate", "143", "--widths", "4", "4")
        assert code == 1 and "qubit" in err.lower()

    def test_oversized_register_error_names_the_smallest_skipped_split(self, capsys):
        code, _, err = run_cli(capsys, "factor", "1763")
        assert code == 1 and "20 qubits" in err

    def test_solved_split_cannot_be_annealed(self, capsys):
        # factor 33 solves widths (2, 4) by propagation; (3, 3) holds no factorization
        code, out, err = run_cli(capsys, "sweep", "33", "--axis", "T", "--values", "10", "20")
        assert (code, out) == (1, "") and "nothing left to solve" in err

    def test_fractional_step_count_is_refused_before_any_run(self, capsys):
        # M=2.5 used to run as M=2 and be reported as 2.5
        code, out, err = run_cli(
            capsys, "sweep", "143", "--axis", "M", "--values", "2.5", "2", "--points", "0"
        )
        assert (code, out) == (1, "") and "2.5" in err
        code, out, _ = run_cli(
            capsys, "sweep", "143", "--axis", "M", "--values", "20", "--points", "0"
        )
        assert code == 0 and out.splitlines()[1].startswith("20,")

    def test_non_finite_schedule_inputs_exit_1(self, capsys):
        # these used to exit 0 with NaN JSON or CSV, or 3 after numpy warnings
        for argv in (
            ("simulate", "143", "--T", "inf"),
            ("sweep", "143", "--axis", "T", "--values", "inf"),
            ("simulate", "143", "--g", "inf"),
            ("spectrum", "143", "--g", "nan", "--points", "3"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err.startswith("adiafact: ") and "Traceback" not in err, argv

    @pytest.mark.parametrize("argv", [
        ("spectrum", "143", "--g", "1e308", "--points", "5"),
        ("factor", "143", "--g", "1e308"),
    ])
    def test_overflowing_spectrum_exits_3_with_one_line(self, argv):
        # the s = 0 levels overflow: spectrum used to exit 0 with -inf rows,
        # and both commands wrote numpy's RuntimeWarnings to stderr
        proc = subprocess.run(
            [sys.executable, "-m", "adiafact", *argv], capture_output=True, text=True, timeout=120
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "adiafact: numerical failure: spectrum is not finite at s = 0\n"

    def test_missing_system_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--system", str(tmp_path / "no.json"))
        assert code == 1

    def test_malformed_system_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(capsys, "simulate", "--system", str(path))[0] == 1
        doc = _document_143(capsys)
        doc["equations"][0]["lhs"][0][0] = "1/1"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--system", str(path))
        assert (code, err) == (1, "adiafact: malformed system document: '1/1' is not an integer\n")
        # documents build_layout could not have produced; the optional variable
        # list is left out so that only the layout rules can refuse them
        good = _document_143(capsys)
        declared = good.pop("variables")
        stray_bit = json.loads(json.dumps(good["equations"]))
        stray_bit[0]["lhs"].append([1, ["p9"]])
        # column 0 of a (4, 4) table has no carry budget
        stray_carry = json.loads(json.dumps(good["equations"]))
        stray_carry[0]["lhs"].append([1, ["z0_1"]])
        # a fixed variable that an equation or a pair still mentions: p1 sits
        # in two equations and in the pair {p1, q1}
        no_equations = {"equations": [], "forbidden_pairs": good["forbidden_pairs"]}
        breaches = [
            {"fixed": {**good["fixed"], "z3_4": 7}},
            {"n": 144},
            {"n": 3},
            {"widths": [1, 99]},
            {"equations": stray_bit},
            {"fixed": {**good["fixed"], "z6_9": 0}},
            {"equations": stray_carry},
            {"fixed": {**good["fixed"], "z0_5": 0}},
            {"forbidden_pairs": [["p1"]]},
            {"forbidden_pairs": [["p1", "q1", "q2"]]},
            {"forbidden_pairs": [["p1", "p1", "q1"]]},
            {"fixed": {**good["fixed"], "p1": 1}},
            {**no_equations, "fixed": {**good["fixed"], "p1": 0}},
        ]
        # build_layout's own typed errors refuse these; everything else is
        # refused as a malformed system document
        typed = [{"n": 144}, {"n": 3}, {"widths": [1, 99]}]
        # documents of the wrong JSON types: n, the widths and fixed values
        # must be integers, not floats, strings or bools; so must the
        # coefficients, and variable names parse
        def with_first_term(term):
            equations = json.loads(json.dumps(good["equations"]))
            equations[0]["lhs"][0] = term
            return {"equations": equations}

        mistyped = [
            {"variables": [5]},
            {"fixed": []},
            {"n": 143.7},
            {"n": "143"},
            {"widths": "44"},
            {"widths": [4.0, 4]},
            {"fixed": {**good["fixed"], "z3_4": 1.5}},
            {"fixed": {**good["fixed"], "z3_4": True}},
            with_first_term([1.5, ["p1"]]),
            with_first_term([1.0, ["p1"]]),
            with_first_term([True, ["p1"]]),
            with_first_term([None, ["p1"]]),
            with_first_term(["abc", ["p1"]]),
            with_first_term([1, ["x9"]]),
            # a monomial names each variable once; p1*p1 is no table term
            with_first_term([1, ["p1", "p1"]]),
            # a coefficient is a JSON integer, never a string that spells one
            *(with_first_term([spelling, ["p1"]]) for spelling in
              ("1/1", "1/3", "2/6", "6/2", "3", "+3/1", "03/1", " 3/1", "1/0", "1.5")),
            # widths are exactly two integers
            {"widths": [4, 4, 99]},
            # a variables list that is present must match, even when empty
            {"variables": []},
            {"variables": declared[:-1]},
        ]
        # names that int() reads but that are not the canonical str(VarId),
        # each respelt everywhere it occurs so that only the spelling is wrong
        def respelt(name, spelling):
            return json.loads(json.dumps(good).replace(f'"{name}"', f'"{spelling}"'))

        noncanonical = [
            respelt("p1", "p01"),
            respelt("p1", "p 1"),
            respelt("p1", "p+1"),
            respelt("q1", "q1 "),
            respelt("z1_2", "z1_02"),
        ]
        for breach in breaches + mistyped + noncanonical:
            path.write_text(json.dumps({**good, **breach}))
            code, out, err = run_cli(capsys, "simulate", "--system", str(path))
            assert (code, out) == (1, ""), breach
            assert "Traceback" not in err, breach
            assert breach in typed or "malformed system document" in err, breach

    def test_overflowing_coefficients_exit_1(self, capsys, tmp_path):
        # squared, these coefficients wrapped around int64 and moved the ground state
        doc = _document_143(capsys)
        for eq in doc["equations"][:2]:
            eq["lhs"][0][0] = 3037000499
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--system", str(path))
        assert code == 1 and out == "" and "too large" in err

    def test_memory_error_exits_1_with_one_line(self, capsys, monkeypatch):
        from adiafact import cli

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "gap_profile", no_memory)
        for message, line in (
            ("Unable to allocate 2.00 GiB", "adiafact: Unable to allocate 2.00 GiB\n"),
            ("", "adiafact: out of memory\n"),
        ):
            code, out, err = run_cli(capsys, "spectrum", "143", "--points", "3")
            assert (code, out, err) == (1, "", line)

    def test_propagation_budget_overrun_exits_1(self, capsys, monkeypatch):
        from adiafact import compiler

        monkeypatch.setattr(compiler._Propagator, "_pass", lambda self: True)
        code, _, err = run_cli(capsys, "compile", "143")
        assert code == 1 and "fixpoint" in err


@lru_cache(maxsize=None)
def _good_documents() -> tuple:
    return tuple(
        system_to_document(simplify(build_layout(target, *widths)))
        for target, widths in ((143, (4, 4)), (323, (5, 5)), (899, (5, 5)))
    )


# what a loadable document could hold in these places; everything drawn below misses it
_CANONICAL_NAME = re.compile(r"[pq][0-9]+|z[0-9]+_[0-9]+")
_NOT_INT = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4), st.lists(st.integers(), max_size=3)
)


def _bad_text(canonical):
    return st.text(max_size=6).filter(lambda text: not canonical.fullmatch(text))


@st.composite
def _malformed_documents(draw):
    """A compiled document with one part broken so that no loader could accept it."""
    doc = copy.deepcopy(draw(st.sampled_from(_good_documents())))
    w_p, w_q = doc["widths"]
    sides = [side for eq in doc["equations"] for side in (eq["lhs"], eq["rhs"]) if side]
    terms = [term for side in sides for term in side]
    kind = draw(st.sampled_from(
        ["drop", "n", "widths", "split", "term", "coefficient", "name", "fixed value",
         "fixed free", "fixed shape", "pair", "variables", "document"]
    ))
    if kind == "drop":
        del doc[draw(st.sampled_from(["n", "widths", "equations"]))]
    elif kind == "n":
        doc["n"] = draw(_NOT_INT | st.integers(max_value=8) | st.integers().map(lambda k: 2 * k))
    elif kind == "widths":
        doc["widths"] = draw(
            _NOT_INT.filter(lambda value: not isinstance(value, list) or len(value) != 2)
            | st.lists(st.integers(), max_size=5).filter(lambda value: len(value) != 2)
            | st.tuples(st.integers(), _NOT_INT).map(list)
        )
    elif kind == "split":
        bits = doc["n"].bit_length()
        doc["widths"] = draw(st.tuples(st.integers(-3, 20), st.integers(-3, 20)).filter(
            lambda w: not (2 <= w[0] <= w[1] and sum(w) in (bits, bits + 1))).map(list))
    elif kind == "term":
        side = draw(st.sampled_from(sides))
        side[draw(st.integers(0, len(side) - 1))] = draw(
            st.none() | st.integers() | st.lists(st.text(max_size=3), max_size=1)
            | st.lists(st.text(max_size=3), min_size=3, max_size=4)
        )
    elif kind == "coefficient":
        draw(st.sampled_from(terms))[0] = draw(_NOT_INT)
    elif kind == "name":
        names = draw(st.sampled_from([term[1] for term in terms if term[1]]))
        outside = [f"p{i}" for i in (0, w_p - 1, w_p + 3)] + [f"q{i}" for i in (0, w_q - 1)]
        names[draw(st.integers(0, len(names) - 1))] = draw(
            _bad_text(_CANONICAL_NAME) | st.sampled_from(outside) | st.integers() | st.none()
        )
    elif kind == "fixed value":
        name = draw(st.sampled_from(sorted(doc["fixed"])))
        doc["fixed"][name] = draw(_NOT_INT | st.integers().filter(lambda k: k not in (0, 1)))
    elif kind == "fixed free":
        doc["fixed"][draw(st.sampled_from(doc["variables"]))] = draw(st.sampled_from([0, 1]))
    elif kind == "fixed shape":
        doc["fixed"] = draw(st.none() | st.integers() | st.text(max_size=3)
                            | st.lists(st.integers(), max_size=2))
    elif kind == "pair":
        free = st.sampled_from(doc["variables"])
        doc["forbidden_pairs"].append(draw(
            st.lists(free, max_size=4).filter(lambda pair: len(set(pair)) != 2 or len(pair) != 2)
            | st.tuples(free, _bad_text(_CANONICAL_NAME)).map(list)
        ))
    elif kind == "variables":
        declared = doc["variables"]
        doc["variables"] = draw(st.sampled_from([
            declared[1:], declared + ["p0"], declared + declared[:1], 7, None,
        ]))
    else:
        doc = draw(st.none() | st.integers() | st.text(max_size=4) | st.lists(st.integers()))
    return doc


class TestMalformedDocuments:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_malformed_documents())
    def test_every_malformed_document_exits_with_one_line(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "malformed.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", "--system", str(path)])
        assert code == 1 and out.getvalue() == "", doc
        message = err.getvalue()
        assert message.startswith("adiafact: ") and message.count("\n") == 1, message
        assert message.endswith("\n") and "Traceback" not in message


class TestParserReuse:
    CALLS = (
        ("compile", "143", "--no-such-option"),
        ("compile", "143", "--widths", "4", "4"),
        ("sweep", "35", "--axis", "T", "--values", "10", "12", "--points", "5"),
    )

    def test_later_calls_match_a_first_call(self, capsys, monkeypatch):
        from adiafact import cli

        firsts = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            firsts.append(run_cli(capsys, *argv))
        assert firsts[0][0] == 1 and "unrecognized arguments" in firsts[0][2]
        assert firsts[1][0] == 0 and firsts[2][0] == 0
        builds, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        assert [run_cli(capsys, *argv) for argv in self.CALLS] == firsts
        assert len(builds) == 1
        cli._parser.cache_clear()


def _document_143(capsys):
    code, out, _ = run_cli(capsys, "compile", "143", "--widths", "4", "4")
    assert code == 0
    return json.loads(out)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "adiafact", "factor", "15"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["p"] == 3
