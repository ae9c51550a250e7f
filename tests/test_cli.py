from __future__ import annotations

import json

import pytest

from cuberips import cli
from cuberips.cli import Report, VerifyReport, main


def _strip_elapsed(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("elapsed_ms")
    )


def test_betti_tsv_output(capsys):
    assert main(["betti", "--n", "4", "--r", "2", "--maxdim", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dim\tbetti\ttrusted"
    assert "3\t9\tyes" in out
    assert out[-2] == "counts\t16\t80\t160\t120\t16\t0"
    assert out[-1].startswith("elapsed_ms\t")


def test_betti_known_outputs(capsys):
    assert main(["betti", "--m", "12", "--r", "2", "--maxdim", "4"]) == 0
    assert "3\t2\tyes" in capsys.readouterr().out.splitlines()
    assert main(["betti", "--n", "3", "--r", "0", "--maxdim", "1"]) == 0
    assert "0\t7\tyes" in capsys.readouterr().out.splitlines()


def test_betti_json_round_trip(capsys):
    argv = ["betti", "--n", "3", "--r", "1", "--maxdim", "2", "--format", "json"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    report = Report.from_json(text)
    assert report.command == "betti"
    assert report.params["m"] == 8 and report.params["r"] == 1
    assert report.betti[1] == {"dim": 1, "value": 5, "trusted": True}
    assert report.counts == [8, 12, 0, 0]
    assert Report.from_json(report.to_json()) == report


def test_predict_tsv(capsys):
    assert main(["predict", "--n", "8", "--r", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "status\tconjecture"
    assert "4\t351" in lines and "7\t1120" in lines
    assert main(["predict", "--n", "9", "--r", "2"]) == 0
    assert "3\t7937" in capsys.readouterr().out.splitlines()
    assert main(["predict", "--n", "5", "--r", "4"]) == 0
    assert "15\t1" in capsys.readouterr().out.splitlines()


def test_predict_json_round_trip(capsys):
    assert main(["predict", "--n", "6", "--r", "2", "--format", "json"]) == 0
    report = Report.from_json(capsys.readouterr().out)
    assert report.prediction == {"status": "theorem", "values": {3: 209}}
    assert Report.from_json(report.to_json()) == report


def test_predict_accepts_power_of_two_m(capsys):
    assert main(["predict", "--m", "16", "--r", "2"]) == 0
    assert "3\t9" in capsys.readouterr().out.splitlines()
    assert main(["predict", "--m", "12", "--r", "2"]) == 3


def test_argument_errors_exit_3(capsys):
    assert main(["betti", "--r", "2"]) == 3
    assert main(["betti", "--n", "3", "--m", "8", "--r", "2"]) == 3
    assert main(["betti", "--n", "0", "--r", "2"]) == 3
    assert main(["betti", "--n", "3", "--r", "-1"]) == 3
    assert main(["betti", "--n", "3", "--r", "2", "--field", "6"]) == 3
    assert main(["verify", "nonsense"]) == 3
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "betti" in capsys.readouterr().out


def test_budget_failures_exit_2(capsys, monkeypatch):
    assert main(["betti", "--n", "4", "--r", "2", "--budget", "100"]) == 2
    err = capsys.readouterr().err
    assert "budget exceeded" in err
    assert "partial counts\t16\t80" in err
    monkeypatch.setenv("VRQ_BUDGET", "100")
    assert main(["betti", "--n", "4", "--r", "2"]) == 2
    monkeypatch.setenv("VRQ_BUDGET", "1000")
    assert main(["betti", "--n", "4", "--r", "2"]) == 0
    capsys.readouterr()


def test_explicit_budget_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("VRQ_BUDGET", "100")
    assert main(["betti", "--n", "4", "--r", "2", "--budget", "1000"]) == 0
    capsys.readouterr()


def test_invalid_budget_exits_3(capsys):
    assert main(["betti", "--n", "4", "--r", "2", "--budget", "0"]) == 3
    capsys.readouterr()


def test_export_skeleton(tmp_path, capsys):
    path = tmp_path / "export.txt"
    argv = ["betti", "--n", "3", "--r", "2", "--maxdim", "3",
            "--export-skeleton", str(path)]
    assert main(argv) == 0
    capsys.readouterr()
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "4 8 3 2"
    assert len(lines) == 1 + 8 + 24 + 32 + 16


def test_verify_kneser_tsv(capsys):
    assert main(["verify", "kneser", "--nmax", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ok\tn=4")
    assert "passed\tyes" in lines


def test_verify_oracle_json_round_trip(capsys):
    argv = ["verify", "oracle", "--samples", "8", "--format", "json"]
    assert main(argv) == 0
    report = VerifyReport.from_json(capsys.readouterr().out)
    assert report.suite == "oracle"
    assert report.passed and len(report.checks) == 8
    assert VerifyReport.from_json(report.to_json()) == report


def test_verify_table1_grid(capsys):
    assert main(["verify", "table1", "--nmax", "3", "--rmax", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    grid = [line for line in lines if line.startswith(("grid\t", "r="))]
    assert grid[0] == "grid\tn=1\tn=2\tn=3"
    assert len(grid) == 5  # header + r=0..3
    assert all(cell == "match" for row in grid[1:] for cell in row.split("\t")[1:])


def test_verify_failure_exits_1(capsys, monkeypatch):
    from cuberips.experiments import KneserReport
    from cuberips.homology import BettiVector

    def fake_check(n, p=2, budget=None):
        bv = BettiVector(p=p, maxdim=3, reduced_betti=(0, 0, 0, 0), trusted_through=3)
        return KneserReport(n=n, p=p, expected=1, betti=bv, passed=False)

    monkeypatch.setattr(cli, "kneser_check", fake_check)
    assert main(["verify", "kneser", "--nmax", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL\tn=4")
    assert "passed\tno" in lines


def test_reports_are_deterministic(capsys):
    argv = ["betti", "--m", "12", "--r", "2", "--maxdim", "3"]
    assert main(argv) == 0
    first = _strip_elapsed(capsys.readouterr().out)
    assert main(argv) == 0
    second = _strip_elapsed(capsys.readouterr().out)
    assert first == second

    jargv = argv + ["--format", "json"]
    assert main(jargv) == 0
    a = json.loads(capsys.readouterr().out)
    assert main(jargv) == 0
    b = json.loads(capsys.readouterr().out)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


@pytest.mark.parametrize("argv", [
    ["verify", "lemma-link", "--mmax", "0"],
    ["verify", "theorem-gm2", "--mmax", "0"],
    ["verify", "splitting", "--mmax", "1"],
    ["verify", "kneser", "--nmax", "3"],
    ["verify", "oracle", "--samples", "0"],
])
def test_suite_without_checks_exits_3(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no checks" in captured.err


@pytest.mark.parametrize("argv", [
    ["predict", "--n", "4", "--field", "4"],
    ["predict", "--n", "4", "--maxdim", "2"],
    ["predict", "--n", "4", "--budget", "5"],
    ["verify", "kneser", "--n", "5"],
    ["verify", "kneser", "--m", "5"],
])
def test_options_a_subcommand_does_not_read_exit_3(capsys, argv):
    assert main(argv) == 3
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_budget_abort_prints_partial_counts(capsys):
    assert main(["verify", "kneser", "--budget", "20"]) == 2
    err = capsys.readouterr().err
    assert "budget exceeded" in err
    assert "partial counts\t6\t12" in err


def test_verify_splitting_json(capsys):
    argv = ["verify", "splitting", "--mmax", "16", "--format", "json"]
    assert main(argv) == 0
    report = VerifyReport.from_json(capsys.readouterr().out)
    assert report.passed and len(report.checks) == 15
    assert report.checks[-1] == {
        "name": "m=16 dims=[0, 1, 2, 3]",
        "passed": True,
        "computed": "(0, 0, 0, 9)",
        "expected": "(0, 0, 0, 9)",
    }
