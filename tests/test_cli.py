"""Command line behavior: outputs, round trips, exit codes."""

import json
import subprocess
import sys

import pytest

from adiafact.cli import main

SUCCESS_143 = 0.9887597017028644


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert doc["equations"][0]["rhs"] == [["1/1", []]]
        assert all("/" in coeff for coeff, _ in doc["equations"][0]["lhs"])

    def test_csv_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "compile", "143", "--widths", "4", "4",
            "--format", "csv", "--paper-pairing",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,energy"
        assert len(lines) == 17
        energies = [int(row.split(",")[1].split("/")[0]) for row in lines[1:]]
        assert energies == [5, 2, 4, 1, 4, 3, 0, 1, 2, 0, 3, 1, 1, 1, 1, 3]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        code, out, _ = run_cli(capsys, "compile", "143", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["n"] == 143


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
        assert summary["ground_energy"] == "0/1"
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
        assert summary["ground_energy"] == "0/1"

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

    def test_missing_system_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--system", str(tmp_path / "no.json"))
        assert code == 1

    def test_malformed_system_file_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(capsys, "simulate", "--system", str(path))[0] == 1
        doc = _document_143(capsys)
        doc["equations"][0]["lhs"][0][0] = "1/0"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "simulate", "--system", str(path))
        assert code == 1 and "malformed" in err
        # documents build_layout could not have produced; the optional variable
        # list is emptied so that only the layout rules can refuse them
        good = _document_143(capsys)
        stray_bit = json.loads(json.dumps(good["equations"]))
        stray_bit[0]["lhs"].append(["1/1", ["p9"]])
        breaches = [
            {"fixed": {**good["fixed"], "z3_4": 7}},
            {"n": 144},
            {"n": 3},
            {"widths": [1, 99]},
            {"equations": stray_bit},
            {"fixed": {**good["fixed"], "z6_9": 0}},
            {"forbidden_pairs": [["p1"]]},
            {"forbidden_pairs": [["p1", "q1", "q2"]]},
        ]
        for breach in breaches:
            path.write_text(json.dumps({**good, "variables": [], **breach}))
            code, out, _ = run_cli(capsys, "simulate", "--system", str(path))
            assert (code, out) == (1, ""), breach

    def test_overflowing_coefficients_exit_1(self, capsys, tmp_path):
        # squared, these coefficients wrapped around int64 and moved the ground state
        doc = _document_143(capsys)
        for eq in doc["equations"][:2]:
            eq["lhs"][0][0] = "3037000499/1"
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "simulate", "--system", str(path))
        assert code == 1 and out == "" and "too large" in err

    def test_propagation_budget_overrun_exits_1(self, capsys, monkeypatch):
        from adiafact import compiler

        monkeypatch.setattr(compiler._Propagator, "_pass", lambda self: True)
        code, _, err = run_cli(capsys, "compile", "143")
        assert code == 1 and "fixpoint" in err


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
