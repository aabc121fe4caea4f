import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from cdtlab import verify
from cdtlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassnum:
    def test_basic(self, capsys):
        code, out = run(capsys, "classnum", "-23")
        assert code == 0
        data = json.loads(out)
        assert data["h"] == 3
        assert [1, 1, 6] in data["forms"]

    def test_conductor(self, capsys):
        code, out = run(capsys, "classnum", "-3", "--conductor", "5")
        assert code == 0
        assert json.loads(out)["h"] == 2

    def test_bad_discriminant(self, capsys):
        code, _ = run(capsys, "classnum", "-6")
        assert code == 2

    def test_enumeration_limit(self, capsys):
        # D = -3 (10^9 + 7)^2 is refused before its forms are enumerated
        assert main(["classnum", "-3", "--conductor", "1000000007"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: class enumeration of D = -3000000042000000147 exceeds the limit"
            " |D| <= 10000000000"
        ]


class TestCount:
    def test_form_count(self, capsys):
        code, out = run(capsys, "count", "1", "0", "1", "10000")
        assert code == 0
        data = json.loads(out)
        assert data["lattice_points"] == data["pi_class"] * 4

    def test_per_class_csv(self, capsys, tmp_path):
        path = tmp_path / "eq.csv"
        code, out = run(
            capsys, "count", "1", "1", "6", "50000", "--per-class", "--csv", str(path)
        )
        assert code == 0
        assert json.loads(out)["h"] == 3
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4 and lines[0] == "a,b,c,count,expected,rel_error"

    def test_unwritable_csv(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code = main(["count", "1", "1", "6", "1e4", "--per-class", "--csv", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_int64_overflow_rejected(self, capsys):
        code = main(["count", "1", "1", "1000000000000", "1e7"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "error: form (1, 1, 1000000000000) at x = 10000000 "
            "overflows int64 lattice arithmetic\n"
        )

    def test_negative_x_counts_nothing(self, capsys):
        code, out = run(capsys, "count", "1", "1", "6", "-5")
        assert code == 0
        assert json.loads(out)["lattice_points"] == 0

    def test_negative_float_x_is_a_value(self, capsys):
        # argparse would take -1e7 for an option without _Parser's matcher
        code, out = run(capsys, "count", "1", "1", "6", "-1e7")
        assert code == 0
        assert json.loads(out)["lattice_points"] == 0

    def test_indefinite_rejected(self, capsys):
        code, _ = run(capsys, "count", "1", "5", "1", "100")
        assert code == 2

    def test_table_over_size_cap(self, capsys):
        code = main(["count", "1", "1", "6", "1e10"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: prime cache up to") and err.count("\n") == 1


class TestDelta:
    def test_value(self, capsys):
        code, out = run(capsys, "delta", "1", "0", "1", "--modulus", "15015")
        assert code == 0
        data = json.loads(out)
        assert data["delta"] == "25/192"
        assert not data["obstructed"]

    def test_obstructed(self, capsys):
        code, out = run(capsys, "delta", "1", "0", "1", "--modulus", "30")
        assert code == 0
        data = json.loads(out)
        assert data["obstructed"] and data["delta_float"] == 0.0


class TestSieve:
    def test_table(self, capsys):
        code, out = run(
            capsys, "sieve", "--z", "8", "--R", "1e10", "--support", "3,5,7"
        )
        assert code == 0
        data = json.loads(out)
        assert data["lambda"]["1"] == 1
        assert data["lambda"]["105"] == -1

    def test_power_past_float_range(self, capsys):
        # p^(beta + 1) overflows a float; it lies above R, as at --kappa 40
        code, out = run(
            capsys, "sieve", "--z", "8", "--R", "1e10", "--support", "3,5,7", "--kappa", "200"
        )
        assert code == 0
        data = json.loads(out)
        assert data["beta"] == 1801.0 and data["lambda"] == {"1": 1}

    def test_bad_kind(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sieve", "--z", "8", "--R", "100", "--kind", "diagonal",
                  "--support", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--z", "8", "--support", "3,4"], "support entry 4 is not a prime"),
            (["--z", "1", "--support", "3"], "sifting level z must exceed 1, got 1.0"),
            (["--z", "8", "--support", "3,3,5"], "support primes must be distinct, got (3, 3, 5)"),
            (["--z", "8", "--support", "3", "--R", "inf"], "level R must be a finite number, got inf"),
            (["--z", "8", "--support", "3", "--R", "nan"], "level R must be a finite number, got nan"),
            (["--z", "8", "--support", "3", "--kappa", "nan"], "kappa must be a finite number, got nan"),
            (["--z", "8", "--support", "3", "--kappa", "inf"], "kappa must be a finite number, got inf"),
            (["--z", "8", "--support", "3", "--kappa", "-1"], "kappa must be >= 0, got -1.0"),
            (["--z", "8", "--support", "3", "--kappa", "1e308"],
             "kappa = 1e+308 puts 9 kappa + 1 past the float range"),
        ],
        ids=["composite-support", "z-one", "repeated-support", "R-inf", "R-nan", "kappa-nan",
             "kappa-inf", "kappa-negative", "kappa-past-float"],
    )
    def test_bad_spec_rejected(self, capsys, argv, message):
        assert main(["sieve", "--R", "1e10", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_non_integer_support_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sieve", "--z", "8", "--R", "1e10", "--support", "3,x"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: cdtlab sieve: argument --support: "
            "expected comma-separated integers, got '3,x'"
        ]


class TestWeights:
    def test_explicit_params(self, capsys):
        code, out = run(
            capsys, "weights", "--x", "1e5", "--epsilon", "0.05", "--ell", "4"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize(
        "given", [["--epsilon", "0.05"], ["--ell", "4"]], ids=["epsilon", "ell"]
    )
    def test_lone_epsilon_or_ell_rejected(self, capsys, given):
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--x", "1e5", *given])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: cdtlab weights: --epsilon and --ell go together: give both or neither"
        ]

    @pytest.mark.parametrize("ell", ["80", "200"])
    def test_large_ell_reports(self, capsys, ell):
        # the decay bounds (2 ell/eps)^ell pass a float's range here
        code, out = run(capsys, "weights", "--x", "1e5", "--epsilon", "0.05", "--ell", ell)
        assert code in (0, 1)

        def not_json(name):
            raise ValueError(f"{name} is not JSON")

        assert json.loads(out, parse_constant=not_json)["params"]["ell"] == int(ell)

    @pytest.mark.parametrize("x", ["1e206", "1e210"])
    def test_x_past_float_range_rejected(self, capsys, x):
        # |F(-1.5 log x)| ~ e^(1.5 eps) x^1.5 passes the largest float near 3e205
        assert main(["weights", "--x", x, "--epsilon", "0.05", "--ell", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: x = {float(x):g} exceeds 3.0299e+205, the largest x at which "
            "e^(sigma eps) x^sigma fits a float for sigma = 1.5"
        ]

    def test_x_below_float_limit_reports(self, capsys):
        code, out = run(capsys, "weights", "--x", "1e205", "--epsilon", "0.05", "--ell", "4")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_standard_choice_out_of_range(self, capsys):
        # ell = 4 * 10 * 2 = 80: the standard epsilon is below 1/4 only past 2560^640
        assert main(["weights", "--x", "1e12"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: the standard choice ell = 4 c_ZDE n_K = 80, epsilon = 8 ell "
            "x^(-1/(8 ell)) gives epsilon = 613 at x = 1e+12, outside (0, 1/4); "
            "for n_K = 2, c_ZDE = 10 it needs x > (32 ell)^(8 ell) = 2560^640, "
            "or give epsilon and ell"
        ]

    def test_standard_choice_in_range(self, capsys):
        # ell = 8: valid past 256^64 = 1.3e154
        code, out = run(capsys, "weights", "--x", "1e160", "--c-ZDE", "1")
        assert code == 0
        assert json.loads(out)["params"]["ell"] == 8

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--x", "1e5", "--n-K", "0"], "n_K must be an integer >= 1, got 0"),
            (["--x", "1e5", "--n-K", "-1"], "n_K must be an integer >= 1, got -1"),
            (["--x", "1e5", "--c-ZDE", "-1"], "c_ZDE must be an integer >= 1, got -1"),
            (["--x", "nan", "--epsilon", "0.1", "--ell", "2"], "x must be a finite number, got nan"),
            (["--x", "inf", "--epsilon", "0.1", "--ell", "2"], "x must be a finite number, got inf"),
        ],
        ids=["n-K-zero", "n-K-negative", "c-ZDE-negative", "x-nan", "x-inf"],
    )
    def test_bad_input_rejected(self, capsys, argv, message):
        assert main(["weights", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


class TestBounds:
    def test_plain(self, capsys):
        code, out = run(capsys, "bounds", "--x", "1e12")
        assert code == 0
        data = json.loads(out)
        assert data["eta"] > 0 and data["B1"] == 1.0

    def test_range_past_float(self, capsys):
        # Q^40 = (4e8)^40 is no float: it lies above every float x
        code, out = run(capsys, "bounds", "--x", "1e12", "--D-K", "1e8")
        assert code == 0
        data = json.loads(out)
        assert data["thm11_error"] == "out of range: thm11_error requires x >= Q^40.0"
        assert data["main_term_floor"] == (
            "out of range: main_term_floor requires x >= Q^360"
        )

    def test_theta1_reaches_output(self, capsys):
        # Q = 4: x = 1e220 lies above Q^360, in main_term_floor's range
        argv = ["bounds", "--x", "1e220", "--D-K", "1", "--beta1", "0.999", "--theta1"]
        negative, positive = (run(capsys, *argv, theta1) for theta1 in ("-1", "1"))
        assert negative[0] == positive[0] == 0
        assert negative[1] != positive[1]
        assert json.loads(negative[1])["main_term_floor"]["case"] == "negative_theta1"
        assert json.loads(positive[1])["main_term_floor"]["case"] == "small_lambda"

    def test_siegel_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out = run(
            capsys, "bounds", "--x", "1e12", "--beta1", "0.999",
            "--csv", str(path),
        )
        assert code == 0
        data = json.loads(out)
        assert data["nu1"] < 1
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("x,") and len(lines) > 5

    def test_siegel_out_of_range(self, capsys):
        # Q = 12: x = 1e12 lies below Q^36
        code, out = run(capsys, "bounds", "--x", "1e12", "--beta1", "0.999")
        assert code == 0
        assert json.loads(out)["siegel"] == "out of range: siegel_error requires x >= Q^36.0"

    def test_siegel_warning_one_line(self, capsys):
        code = main(["bounds", "--x", "1e12", "--beta1", "0.999"])
        err = capsys.readouterr().err
        assert code == 0
        assert err.count("\n") == 1
        assert err.startswith("warning: supplied Siegel zero")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--x", "1e12", "--n-K", "0"], "n_K must be an integer >= 1, got 0"),
            (["--x", "nan"], "x must be a finite number, got nan"),
            (["--x", "inf"], "x must be a finite number, got inf"),
            (["--x", "1e12", "--D-K", "nan"], "D_K must be a finite number, got nan"),
            (["--x", "1e12", "--Q-cal", "inf"], "Qcal must be a finite number, got inf"),
            (["--x", "1e12", "--n-K", "200"], "Q must be a finite number, got inf"),
            (["--x", "1e12", "--D-K", "1e308", "--Q-cal", "10"],
             "Q must be a finite number, got inf"),
            (["--x", "1e12", "--beta1", "0.5"], "beta1 must lie in (1/2, 1)"),
            (["--x", "1e12", "--beta1", "0.9", "--theta1", "0"],
             "theta1 = 0 exactly when beta1 is absent"),
            (["--x", "1e12", "--beta1", "0.9", "--theta1", "2"], "theta1 must be -1, 0 or +1"),
        ],
        ids=["n-K-zero", "x-nan", "x-inf", "D-K-nan", "Q-cal-inf", "Q-past-int-float",
             "Q-past-float", "beta1-half", "theta1-zero", "theta1-two"],
    )
    def test_bad_input_rejected(self, capsys, argv, message):
        assert main(["bounds", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("theta1", ["-1", "1"])
    def test_theta1_without_beta1_rejected(self, capsys, theta1):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--x", "1e12", "--theta1", theta1])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: cdtlab bounds: --theta1 needs --beta1"]


class TestExperiment:
    def test_pass_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "exp.json"
        code, out = run(
            capsys, "experiment", "1", "0", "1", "--modulus", "15",
            "--x", "1e6", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text() == out
        data = json.loads(out)
        assert data["passed"] is True
        # the order users and the benchmark's sifted job read the report in
        assert list(data) == [
            "config", "lhs", "rhs", "rel_error", "budget",
            "obstructed", "trivially_true", "passed", "density",
        ]
        assert list(data["config"]) == ["form", "D", "P", "z", "x", "h"]

    def test_obstructed_passes(self, capsys):
        code, out = run(
            capsys, "experiment", "1", "0", "1", "--modulus", "30", "--x", "1e5"
        )
        assert code == 0
        assert json.loads(out)["obstructed"] is True

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "0"])
    def test_bad_tolerance_rejected(self, capsys, tolerance):
        argv = ["experiment", "1", "0", "1", "--modulus", "15015", "--x", "1e5"]
        assert main(argv + ["--tolerance", tolerance]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: tolerance must be a finite number > 0, got {float(tolerance)}"
        ]


class TestVerify:
    def test_quick(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_kronecker_check_can_fail(self, monkeypatch):
        monkeypatch.setattr(verify.arith, "kronecker", lambda D, n: 1)
        name, ok, _ = verify.run_checks()[0]
        assert "kronecker" in name
        assert not ok

    def test_kronecker_gets_discriminants(self, monkeypatch):
        kronecker = verify.arith.kronecker

        def checked(D, n):
            assert D % 4 in (0, 1), D
            return kronecker(D, n)

        monkeypatch.setattr(verify.arith, "kronecker", checked)
        assert all(ok for _, ok, _ in verify.run_checks())


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "1", "1", "6", "1e4"],
            ["experiment", "1", "0", "1", "--modulus", "15", "--x", "1e4"],
        ],
    )
    def test_workers_below_one_rejected(self, capsys, argv, workers):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", workers])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: cdtlab {argv[0]}: argument --workers: must be at least 1, got {workers}"
        ]

    def test_verify_takes_no_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--workers", "2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def test_csv_without_per_class_rejected(self, capsys, tmp_path):
        path = tmp_path / "eq.csv"
        with pytest.raises(SystemExit) as exc:
            main(["count", "1", "1", "6", "1e4", "--csv", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: cdtlab count: --csv needs --per-class"]
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "1", "1", "6", "nan"],
            ["count", "1", "1", "6", "inf"],
            ["count", "1", "1", "6", "--", "-inf"],
            ["count", "1", "1", "6", "-inf"],
            ["count", "1", "1", "6", "inf", "--per-class"],
            ["experiment", "1", "0", "1", "--modulus", "15", "--x", "nan"],
            ["experiment", "1", "0", "1", "--modulus", "15", "--x", "inf"],
            ["experiment", "1", "0", "1", "--modulus", "15", "--x=-inf"],
        ],
        ids=[
            "count-nan",
            "count-inf",
            "count-minus-inf",
            "count-minus-inf-no-dashes",
            "per-class-inf",
            "experiment-nan",
            "experiment-inf",
            "experiment-minus-inf",
        ],
    )
    def test_non_finite_x_rejected(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        x = next(a for a in argv if "inf" in a or "nan" in a).removeprefix("--x=")
        assert captured.err.splitlines() == [
            f"error: x must be a finite number, got {float(x)}"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "1", "1", "6", "2", "--per-class"],
            ["experiment", "1", "0", "1", "--modulus", "15", "--x", "2"],
        ],
        ids=["per-class", "experiment"],
    )
    def test_x_at_two_rejected(self, capsys, argv):
        # both reports divide by Li(x), and Li(2) = 0
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: x must exceed 2, since Li(2) = 0; got x = 2.0"
        ]

    def test_no_scipy_in_any_command(self, tmp_path):
        # a fresh interpreter, without the suite's block on scipy: no
        # subcommand and not the bridge may load it
        code = """
import contextlib, io, sys
from cdtlab import chebotarev, cli, quadforms
commands = [
    ["classnum", "-23"],
    ["count", "1", "1", "6", "1e5"],
    ["count", "1", "1", "6", "1e5", "--per-class"],
    ["delta", "1", "0", "1", "--modulus", "15015"],
    ["sieve", "--z", "8", "--R", "1e10", "--support", "3,5,7"],
    ["weights", "--x", "1e5", "--epsilon", "0.05", "--ell", "4"],
    ["bounds", "--x", "1e12", "--beta1", "0.999", "--csv", sys.argv[1]],
    ["experiment", "1", "0", "1", "--modulus", "15015", "--x", "1e5"],
    ["verify", "--full"],
]
subcommands = cli.build_parser()._subparsers._group_actions[0].choices  # no public list
assert {argv[0] for argv in commands} == set(subcommands)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        assert cli.main(argv) == 0, argv
chebotarev.bridge_check(quadforms.Form(1, 1, 6), 1e4)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        proc = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "sweep.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cdtlab.cli", "classnum", "-23"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["h"] == 3


def _readme_commands() -> list[list[str]]:
    """The argv of each `cdtlab` line in README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [
        shlex.split(line.split("#")[0])[1:]
        for line in readme.splitlines()
        if line.startswith("cdtlab ")
    ]


# argv at the edges of each command's domain: each prints strict JSON or
# nothing, with one error line
EDGE_ARGV = [
    ["bounds", "--x", "1e12", "--D-K", "1e8"],
    ["bounds", "--x", "1e12", "--n-K", "200"],
    ["bounds", "--x", "1e12", "--D-K", "1e308", "--Q-cal", "10"],
    ["bounds", "--x", "1e300", "--D-K", "1", "--beta1", "0.99999999"],
    ["bounds", "--x", "1e220", "--D-K", "1", "--beta1", "0.999", "--theta1", "-1"],
    ["sieve", "--z", "8", "--R", "1e10", "--support", "3,5,7", "--kappa", "200"],
    ["sieve", "--z", "8", "--R", "1e10", "--support", "3,5,7", "--kappa", "1e308"],
    ["sieve", "--z", "8", "--R", "inf", "--support", "3"],
    ["weights", "--x", "1e205", "--epsilon", "0.05", "--ell", "200"],
    ["count", "1", "1", "6", "-inf"],
]


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv",
        [a for a in _readme_commands() if a[0] != "verify"] + EDGE_ARGV,
        ids=lambda argv: " ".join(argv),
    )
    def test_stdout_is_strict_json(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()

        def not_json(name):
            raise ValueError(f"{name} is not JSON")

        if code == 2:
            assert captured.out == "" and captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1
        else:
            json.loads(captured.out, parse_constant=not_json)

    def test_readme_has_the_commands(self):
        assert {a[0] for a in _readme_commands()} >= {
            "classnum", "count", "delta", "sieve", "weights", "bounds", "experiment",
        }
