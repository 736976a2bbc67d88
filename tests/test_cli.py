import json

import numpy as np
import pytest

from cnfopt.alpf import trace_from_jsonl
from cnfopt.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_camel_summary_reaches_origin(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--catalog", "ex7", "--solver", "alpf",
            "--eps", "1e-6", "--rho0", "10", "--growth", "100",
            "--start", "2,2,2,2,2", "--output", "table",
        )
        assert code == EXIT_OK
        summary = out.strip().splitlines()[-1]
        assert summary.startswith("x = (0.000000, 0.000000)")

    def test_sparse_table_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--catalog", "ex9", "--n", "10", "--lambda", "10",
            "--growth", "10", "--inner", "newton", "--inner-iters", "300",
            "--output", "table",
        )
        assert code == EXIT_OK
        header = out.splitlines()[0].split()
        assert header == ["k", "rho_k", "x^k", "f(x^k)", "||x^k||_0", "surr", "e^k"]
        final_row = [ln for ln in out.splitlines() if ln and ln[0].isdigit()][-1]
        assert "10.0000" in final_row  # objective column of the last iteration

    def test_jsonl_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--catalog", "ex9", "--n", "4", "--growth", "10",
            "--inner", "newton", "--output", "jsonl",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert json.loads(lines[-1]).keys() == {"summary"}
        trace = trace_from_jsonl("\n".join(lines[:-1]))
        assert trace.solver == "alpf"
        assert trace.records

    def test_json_document(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--catalog", "ex9", "--n", "4", "--growth", "10",
            "--inner", "newton", "--output", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert {"problem", "solver", "status", "records", "summary"} <= doc.keys()

    def test_deterministic_output(self, capsys):
        argv = (
            "solve", "--catalog", "ex9", "--n", "4", "--growth", "10",
            "--inner", "newton", "--seed", "7", "--output", "jsonl",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_start_pattern_linear(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--catalog", "ex8", "--n", "3", "--inner", "newton",
            "--start-pattern", "linear", "--output", "jsonl",
        )
        assert code == EXIT_OK
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        mags = np.abs(summary["x"])
        assert mags.max() - mags.min() <= 1e-3

    def test_penalty_solver(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--catalog", "ex8", "--n", "3", "--solver", "penalty",
            "--inner", "newton", "--start-pattern", "linear", "--output", "jsonl",
        )
        assert code == EXIT_OK
        meta = json.loads(out.splitlines()[0])
        assert meta["solver"] == "penalty"

    def test_decomposed_solver(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--catalog", "ex9", "--n", "6", "--growth", "10",
            "--solver", "decomposed", "--blocks", "2", "--sigma0", "5",
            "--inner", "newton", "--output", "jsonl",
        )
        assert code == EXIT_OK
        meta = json.loads(out.splitlines()[0])
        assert meta["solver"] == "decomposed"

    def test_short_start_zero_padded(self, capsys):
        # only x is given; the auxiliary block pads with zeros
        code, out, _ = run_cli(
            capsys,
            "solve", "--catalog", "ex7", "--start", "2,2", "--output", "jsonl",
        )
        assert code == EXIT_OK
        first = json.loads(out.splitlines()[1])
        assert first["k"] == 1

    def test_default_output_is_jsonl_when_not_a_tty(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--catalog", "ex9", "--n", "4", "--growth", "10",
            "--inner", "newton",
        )
        assert code == EXIT_OK
        for line in out.strip().splitlines():
            json.loads(line)  # every line must be standalone JSON

    def test_problem_file_ingestion(self, capsys, tmp_path):
        from cnfopt.model import dump_problem
        from cnfopt.problems import build

        path = tmp_path / "ex7.cnf"
        path.write_text(dump_problem(build("ex7").problem), encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "solve", "--problem", str(path), "--start", "2,2,2,2,2",
            "--output", "jsonl",
        )
        assert code == EXIT_OK
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert abs(summary["x"][0]) <= 1e-3


class TestSummaryVerdict:
    """The summary certifies only a run that stopped with a finite e: the
    certificate's tolerances scale with e, and infinite ones accept any
    point.  The JSON summaries write non-finite numbers as null."""

    # diverges at the first outer iteration: f is nan and e infinite
    DIVERGED = ("solve", "--catalog", "ex7", "--start=1e200,1e200", "--max-outer", "3")
    SUMMARY = {"x": [1e200, 1e200], "f": None, "e": None, "norm0": 2,
               "status": "inner_failure", "verdict": None}

    def test_jsonl_summary(self, capsys):
        code, out, _ = run_cli(capsys, *self.DIVERGED, "--output", "jsonl")
        assert code == EXIT_SOLVER
        line = out.splitlines()[-1]
        assert json.loads(line) == {"summary": self.SUMMARY}
        assert "NaN" not in line and "Infinity" not in line

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, *self.DIVERGED, "--output", "json")
        assert code == EXIT_SOLVER
        assert json.loads(out)["summary"] == self.SUMMARY
        # the summary is the document's last field; the records keep their tokens
        tail = out[out.index('"summary"'):]
        assert "NaN" not in tail and "Infinity" not in tail

    def test_table_summary(self, capsys):
        code, out, _ = run_cli(capsys, *self.DIVERGED, "--output", "table")
        assert code == EXIT_SOLVER
        assert "certified_global" not in out
        assert out.splitlines()[-1].endswith("f = nan  e = inf  ||x||_0 = 2  verdict = none")

    def test_a_stopped_run_is_certified(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--catalog", "ex7", "--start", "2,2,2,2,2",
                               "--output", "jsonl")
        assert code == EXIT_OK
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["status"] == "approx_stop"
        assert summary["verdict"] == "kkt_point"


class TestCertify:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--catalog", "ex5", "--point", "0,0,0,0,0,0"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["verdict"] == "certified_global"
        assert doc["kkt"]["u"] == pytest.approx([1.0], abs=1e-6)
        assert doc["kkt"]["v"] == pytest.approx([0, 0, 0, 0], abs=1e-6)

    def test_x_only_point_is_lifted(self, capsys):
        code, out, _ = run_cli(capsys, "certify", "--catalog", "ex5", "--point", "0,0")
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "certified_global"

    def test_bad_point_length(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--catalog", "ex5", "--point", "1,2,3")
        assert code == EXIT_CONFIG
        assert "error" in err


class TestValidateAndCatalog:
    def test_validate_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--catalog", "ex7", "--samples", "100"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["convexity_violations"] == 0
        assert doc["max_exactness_gap"] <= 1e-9
        assert doc["max_lift_residual"] <= 1e-10

    def test_catalog_lists_entries(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == EXIT_OK
        for entry_id in ("ex1a", "ex5", "ex7", "ex8", "ex9"):
            assert entry_id in out


class TestExitCodes:
    def test_solver_failure_exit_two(self, capsys, tmp_path):
        path = tmp_path / "line.cnf"
        path.write_text(
            'problem "line"\nvar x 1\naux y 0\nobjective: x[1]\n', encoding="utf-8"
        )
        code, _, _ = run_cli(capsys, "solve", "--problem", str(path), "--output", "jsonl")
        assert code == EXIT_SOLVER

    def test_unknown_catalog_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--catalog", "nope")
        assert code == EXIT_CONFIG
        assert "unknown catalog id" in err

    def test_unknown_catalog_message_is_printed_as_it_is(self, capsys):
        # not the repr of the KeyError's message, in quotes
        code, out, err = run_cli(capsys, "solve", "--catalog", "ex6")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("error: unknown catalog id 'ex6'; valid: "
                       "ex1a, ex1b, ex2, ex3, ex4, ex5, ex7, ex8, ex9\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the solve reaches the seeded convexity sampling of its stop test
            (["solve", "--catalog", "ex7", "--seed", "-10", "--max-outer", "5"],
             "seed must be an integer >= 0, got -10"),
            # checked before the problem loads, as --samples is
            (["validate", "--catalog", "ex9", "--n", "4", "--seed", "-1"],
             "--seed must be an integer >= 0"),
            (["validate", "--catalog", "nope", "--seed", "-1"],
             "--seed must be an integer >= 0"),
        ],
        ids=["solve", "validate", "validate-before-load"],
    )
    def test_negative_seed_exit_three(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"error: {message}\n"

    def test_certify_takes_no_seed(self, capsys):
        # certify samples nothing, so a seed would be accepted and ignored
        code, out, err = run_cli(capsys, "certify", "--catalog", "ex5", "--point", "0,0",
                                 "--seed", "1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: unrecognized arguments: --seed 1\n"

    @pytest.mark.parametrize("command", ["certify", "validate"])
    def test_one_argument_max_is_a_format_error(self, capsys, tmp_path, command):
        path = tmp_path / "max.cnf"
        path.write_text('problem "max"\nvar x 1\naux y 1\nobjective: x[1]^2 + y[1]^2\n'
                        'reference: max(x[1])\n')
        argv = ["--point", "1,1"] if command == "certify" else []
        code, out, err = run_cli(capsys, command, "--problem", str(path), *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: line 5: max takes at least two arguments (line 1, column 1)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # the point passes; the stop test's convexity sampling over the
            # default box reaches x < 0
            ["solve", "--start=0.5"],
            ["validate"],
            ["certify", "--point=-1"],
        ],
        ids=["solve", "validate", "certify"],
    )
    def test_evaluation_outside_the_domain_exit_three(self, capsys, tmp_path, argv):
        path = tmp_path / "root.cnf"
        path.write_text('problem "root"\nvar x 1\naux y 0\nobjective: (x[1]-3)^2\n'
                        'ineq: 1 - sqrt(x[1])\n')
        command, *rest = argv
        code, out, err = run_cli(capsys, command, "--problem", str(path), *rest)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: sqrt of negative value -") and err.count("\n") == 1
        assert err.endswith(" at line 1, column 5\n")

    def test_missing_file_exit_three(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--problem", "/does/not/exist.cnf")
        assert code == EXIT_CONFIG

    def test_malformed_flag_exit_three(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--catalog", "ex7", "--rho0", "abc")
        assert code == EXIT_CONFIG

    def test_decomposed_needs_blocks(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--catalog", "ex9", "--n", "4", "--solver", "decomposed"
        )
        assert code == EXIT_CONFIG
        assert "--blocks" in err

    def test_bad_problem_file_exit_three(self, capsys, tmp_path):
        path = tmp_path / "bad.cnf"
        path.write_text('problem "bad"\nvar x 1\naux y 0\nobjective: x[2]\n')
        code, _, _ = run_cli(capsys, "solve", "--problem", str(path))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("bounds", ["a 1", "-inf inf", "0 nan"])
    def test_bad_box_problem_file_exit_three(self, capsys, tmp_path, bounds):
        path = tmp_path / "box.cnf"
        path.write_text(f'problem "box"\nvar x 1\naux y 0\nobjective: x[1]^2\nbox: {bounds}\n')
        code, out, err = run_cli(capsys, "validate", "--problem", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: line 5: box takes finite '<lo> <hi>' with lo < hi\n"

    @pytest.mark.parametrize(
        "expression",
        ["(" * 400 + "x[1]" + ")" * 400, "-" * 3000 + "x[1]", "x[1]" + "^2" * 2000],
        ids=["parentheses", "unary-minus", "powers"],
    )
    def test_deeply_nested_problem_file_exit_three(self, capsys, tmp_path, expression):
        path = tmp_path / "deep.cnf"
        path.write_text(f'problem "deep"\nvar x 1\naux y 0\nobjective: {expression}\n')
        code, _, err = run_cli(capsys, "solve", "--problem", str(path))
        assert code == EXIT_CONFIG
        assert "nested deeper" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--catalog", "ex7", "--samples", "0"],
            ["certify", "--catalog", "ex5", "--point", "0,0", "--feas-tol", "0"],
            ["solve", "--catalog", "ex7", "--eps", "-1"],
            ["solve", "--catalog", "ex7", "--inner-iters", "0"],
            ["solve", "--catalog", "ex7", "--max-outer", "0"],
            ["solve", "--catalog", "ex9", "--n", "10", "--solver", "decomposed", "--blocks", "50"],
        ],
        ids=["samples", "feas-tol", "eps", "inner-iters", "max-outer", "blocks"],
    )
    def test_number_out_of_range_exit_three(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--rho0", "nan"],
            ["solve", "--growth", "nan"],
            ["solve", "--solver", "decomposed", "--blocks", "2", "--sigma0", "nan"],
            ["solve", "--solver", "decomposed", "--blocks", "2", "--sigma0", "-1"],
            ["solve", "--eps", "inf"],
            ["solve", "--start", "1,nan"],
            ["certify", "--point", "1,nan,0,0"],
        ],
        ids=["rho0-nan", "growth-nan", "sigma0-nan", "sigma0-negative", "eps-inf", "start-nan",
             "point-nan"],
    )
    def test_non_finite_or_out_of_range_setting_exit_three(self, capsys, argv):
        command, *rest = argv
        code, out, err = run_cli(capsys, command, "--catalog", "ex9", "--n", "4", *rest)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--catalog", "ex9", "--n", "4", "--lambda", "nan"],
            ["--catalog", "ex9", "--n", "4", "--lambda", "inf"],
            ["--catalog", "ex4", "--b", "inf"],
            ["--catalog", "ex4", "--b", "nan"],
        ],
        ids=["ex9-lambda-nan", "ex9-lambda-inf", "ex4-b-inf", "ex4-b-nan"],
    )
    def test_non_finite_catalog_parameter_exit_three(self, capsys, argv):
        # the parameter becomes a constant of the problem's expressions,
        # which the compiled forms could not write as a literal
        code, out, err = run_cli(capsys, "solve", *argv, "--max-outer", "2")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a finite number" in err
        assert "Traceback" not in err

    def test_start_and_pattern_conflict(self, capsys):
        code, _, err = run_cli(
            capsys,
            "solve", "--catalog", "ex7", "--start", "1,1",
            "--start-pattern", "linear",
        )
        assert code == EXIT_CONFIG
        assert "mutually exclusive" in err
