"""End-to-end CLI checks: exit codes, canonical output, reruns."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zetakit

from zetakit import varieties
from zetakit.cli import main
from zetakit.varieties import affine, gm, point_spec, projective, projective_space


@pytest.fixture()
def specs(tmp_path):
    paths = {}

    def write(name, data):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)

    write("p1", projective_space(1).to_json())
    write("gm", gm("x0").to_json())
    write("rel", affine(1, f="x0^2", base_map=["x0"]).to_json())
    write("ledger", {
        "classes": {
            "A1": affine(1).to_json(),
            "origin": point_spec().to_json(),
            "Gm": gm().to_json(),
        },
        "relations": [{"left": "A1", "right": ["origin", "Gm"],
                       "provenance": "cell structure"}],
        "realizations": [{"type": "point-count", "p": 3},
                         {"type": "exp-sum", "p": 5, "twist": 2}],
    })
    write("broken", {
        "classes": {"A1": affine(1).to_json(), "Gm": gm().to_json()},
        "relations": [{"left": "A1", "right": ["Gm"]}],
        "realizations": [{"type": "point-count", "p": 3}],
    })
    write("strat", {
        "target": {"ambient": {"type": "projective", "dim": 2},
                   "equations": ["x2*(x0*x2 - x1^2)"], "inequations": []},
        "candidates": {
            "conic": {"ambient": {"type": "projective", "dim": 2},
                      "equations": ["x2*(x0*x2 - x1^2)", "x0*x2 - x1^2"],
                      "inequations": []},
        },
        "bounds": [4, 8, 16, 32, 64],
    })
    paths["dir"] = str(tmp_path)
    return paths


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_zeta_reports_rational_form(specs, capsys):
    code, out = run(["zeta", "--spec", specs["p1"], "--p", "5", "--order", "8"],
                    capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["series"][:3] == [1, 6, 31]
    assert report["rational"]["Q"] == [1, -6, 5]


def test_zeta_rerun_is_byte_identical(specs, capsys):
    argv = ["zeta", "--spec", specs["gm"], "--p", "3", "--order", "6"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second
    assert first.endswith("\n")


def test_expzeta_twisted(specs, capsys):
    code, out = run(["expzeta", "--spec", specs["gm"], "--p", "3",
                     "--order", "6", "--twist", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["q"] == 3
    assert "tally" in report


def test_heights_csv(specs, tmp_path, capsys):
    out_path = tmp_path / "counts.csv"
    code, _ = run(["heights", "--spec", specs["p1"], "--bound", "64",
                   "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "B,N"
    assert len(lines) >= 5


def test_witt_lift(specs, capsys):
    code, out = run(["witt", "--spec", specs["p1"], "--p", "3",
                     "--order", "10"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["endo_class"]["plus"]["rank"] == 2
    assert report["endo_class"]["minus"]["rank"] == 0


def test_fourier_inversion(specs, capsys):
    code, out = run(["fourier", "--spec", specs["rel"], "--p", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert len(report["checks"]) == 4  # one per nontrivial twist


def test_fourier_without_base_map_is_a_usage_error(specs, capsys):
    code, _ = run(["fourier", "--spec", specs["gm"], "--p", "3"], capsys)
    assert code == 2


def test_ledger_pass_and_fail(specs, capsys):
    code, out = run(["ledger", "--spec", specs["ledger"]], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"

    code, out = run(["ledger", "--spec", specs["broken"]], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    rep = report["relations"][0]["reports"][0]
    assert rep["witness"] == {"left": 3, "right": 2}


def test_stratify_job(specs, capsys):
    code, out = run(["stratify", "--spec", specs["strat"]], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["chain"] == ["U", "conic"]


def test_selftest(capsys):
    code, out = run(["selftest"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert all(c["verdict"] == "pass" for c in report["checks"])


def test_missing_file_exit_code(tmp_path, capsys):
    code, _ = run(["zeta", "--spec", str(tmp_path / "nope.json"),
                   "--p", "3", "--order", "4"], capsys)
    assert code == 2


def test_unreadable_spec_path_exits_2(specs, capsys):
    code = main(["zeta", "--spec", specs["dir"], "--p", "3", "--order", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["zeta", "expzeta", "witt"])
def test_negative_order_exits_2(specs, capsys, command):
    code = main([command, "--spec", specs["gm"], "--p", "3", "--order", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--order" in captured.err


def usage_error(argv, capsys):
    """Assert that argv exits 2 with an empty stdout; returns stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    return captured.err


@pytest.mark.parametrize("command, spec, field", [
    ("zeta", "gm", ["--p", "4", "--order", "3"]),
    ("zeta", "gm", ["--p", "3", "--k", "0", "--order", "3"]),
    ("expzeta", "gm", ["--p", "4", "--order", "3"]),
    ("witt", "gm", ["--p", "3", "--k", "0", "--order", "3"]),
    ("fourier", "rel", ["--p", "4"]),
], ids=["zeta-p4", "zeta-k0", "expzeta-p4", "witt-k0", "fourier-p4"])
def test_bad_field_exits_2(specs, capsys, command, spec, field):
    err = usage_error([command, "--spec", specs[spec], *field], capsys)
    assert "NotPrime" in err or "DegreeZero" in err


def test_field_too_large_exits_1(specs, capsys):
    code = main(["zeta", "--spec", specs["gm"], "--p", "2", "--k", "30",
                 "--order", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "BudgetExceeded" in captured.err


@pytest.mark.parametrize("spec", ["gm", "cubic"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_exits_2(specs, tmp_path, capsys, spec, budget):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(affine(2, ["x1^2 + x0*x1 - x0^3 - 1"]).to_json()))
    spec = specs["gm"] if spec == "gm" else str(path)
    err = usage_error(["zeta", "--spec", spec, "--p", "3", "--order", "3",
                       "--budget", budget], capsys)
    assert "--budget" in err


def test_budget_variable_below_one_exits_2_without_a_walk(specs, capsys, monkeypatch):
    # gm's count comes from a gcd, so no enumeration ever reads the budget
    monkeypatch.setenv("ZETAKIT_BUDGET", "-3")
    err = usage_error(["zeta", "--spec", specs["gm"], "--p", "3", "--order", "3"],
                      capsys)
    assert "ZETAKIT_BUDGET" in err


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_heights_bound_below_one_exits_2(specs, capsys, bound):
    err = usage_error(["heights", "--spec", specs["p1"], "--bound", bound], capsys)
    assert "--bound" in err


def test_heights_json_report(specs, capsys):
    argv = ["heights", "--spec", specs["p1"], "--bound", "64"]
    code, out = run(argv, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["job"]["bound"] == 64
    assert report["table"]["bounds"] == [1, 2, 4, 8, 16, 32, 64]
    assert report["table"]["counts"][:2] == [4, 8]  # 0, oo, +-1; then +-2, +-1/2
    assert set(report["fit"]) == {"beta", "t", "c", "residual"}
    assert report["sigma"] == report["fit"]["beta"]
    assert abs(report["sigma"] - 2) < 0.1  # Schanuel: N(B) ~ c B^2 on P^1
    assert "fit_note" not in report
    assert run(argv, capsys) == (0, out)

    code, out = run(["heights", "--spec", specs["p1"], "--bound", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["table"]["bounds"] == [1, 3]
    assert report["fit_note"] == "2 usable samples"
    assert "sigma" not in report and "fit" not in report


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(["zeta", "--spec", str(bad), "--p", "3", "--order", "4"],
                  capsys)
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_heights_nonhomogeneous_spec_exits_1(tmp_path, capsys):
    path = tmp_path / "affine_line.json"
    path.write_text(json.dumps(projective(1, ["x0 - 1"]).to_json()))
    code, out = run(["heights", "--spec", str(path), "--bound", "10"], capsys)
    assert code == 1
    assert out == ""


def test_heights_affine_spec_exits_1(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(affine(1).to_json()))
    code = main(["heights", "--spec", str(path), "--bound", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "NotProjective" in captured.err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_heights_degree_below_one_exits_2(specs, capsys, degree):
    code = main(["heights", "--spec", specs["p1"], "--bound", "10", "--degree", degree])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--degree" in captured.err


def test_ledger_height_count_on_an_affine_class_exits_1(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "classes": {"A1": affine(1).to_json(), "origin": point_spec().to_json(),
                    "Gm": gm().to_json()},
        "relations": [{"left": "A1", "right": ["origin", "Gm"]}],
        "realizations": [{"type": "height-count", "bounds": [4, 8]}],
    }))
    code = main(["ledger", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "NotProjective" in captured.err


def test_toml_spec_and_malformed_toml(tmp_path, capsys):
    good = tmp_path / "line.toml"
    good.write_text('[ambient]\ntype = "affine"\ndim = 1\n')
    code, out = run(["zeta", "--spec", str(good), "--p", "3", "--order", "4"], capsys)
    assert code == 0
    assert json.loads(out)["series"] == [1, 3, 9, 27, 81]
    bad = tmp_path / "bad.toml"
    bad.write_text('[ambient\ntype = "affine"\n')
    code, out = run(["zeta", "--spec", str(bad), "--p", "3", "--order", "4"], capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("data", [
    {"ambient": {"type": "affine"}},
    {"ambient": {"type": "affine", "dim": "2"}},
    {"ambient": {"type": "torus", "dim": 1}},
    {"equations": ["x0"]},
    [1, 2],
], ids=["no-dim", "string-dim", "unknown-type", "no-ambient", "not-an-object"])
def test_spec_without_a_valid_ambient_exits_2(tmp_path, capsys, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, out = run(["zeta", "--spec", str(path), "--p", "3", "--order", "4"], capsys)
    assert code == 2
    assert out == ""


def test_expzeta_enumerates_each_degree_once(specs, capsys, monkeypatch):
    degrees = []
    histogram = varieties._histogram

    def spy(X, F, m, twist, budget):
        degrees.append(m)
        return histogram(X, F, m, twist, budget)

    monkeypatch.setattr(varieties, "_histogram", spy)
    code, _ = run(["expzeta", "--spec", specs["gm"], "--p", "3", "--order", "5"], capsys)
    assert code == 0
    assert degrees == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("command, job", [
    ("ledger", {"relations": []}),
    ("ledger", {"classes": [], "realizations": [], "relations": []}),
    ("ledger", {"classes": {}, "relations": []}),
    ("ledger", {"classes": {}, "realizations": {}, "relations": []}),
    ("ledger", {"classes": {}, "realizations": []}),
    ("ledger", {"classes": {}, "realizations": [{"p": 3}], "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": 1, "p": 3}], "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "point-count"}], "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "exp-sum", "p": "5"}],
                "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "height-count"}], "relations": []}),
    ("ledger", {"classes": {}, "realizations": [[]], "relations": []}),
    ("ledger", {"classes": {}, "realizations": [], "relations": [{"right": []}]}),
    ("ledger", [1, 2]),
    ("ledger", {"classes": {}, "realizations": [{"type": "point-count", "p": 3, "m": "2"}],
                "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "point-count", "p": 3, "k": "x"}],
                "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "point-count", "p": 3, "m": 0}],
                "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "point-count", "p": 4}],
                "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "exp-sum", "p": 3, "twist": "1"}],
                "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "exp-sum", "p": 3, "twist": 3}],
                "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "height-count", "degree": 0,
                                                 "bounds": [4, 8]}], "relations": []}),
    ("ledger", {"classes": {"A1": affine(1).to_json()}, "realizations": [],
                "relations": [{"left": "A1", "right": ["A2"]}]}),
    ("ledger", {"classes": {"A1": affine(1).to_json()}, "realizations": [],
                "relations": [{"left": "A2", "right": ["A1"]}]}),
    ("ledger", {"classes": {}, "realizations": [{"type": "height-count",
                                                 "bounds": ["a"]}], "relations": []}),
    ("ledger", {"classes": {}, "realizations": [{"type": "height-count",
                                                 "bounds": [8, 4]}], "relations": []}),
    ("stratify", {"bounds": [4, 8]}),
    ("stratify", {"target": "P2"}),
    ("stratify", {"target": {"ambient": {"type": "projective", "dim": 1}},
                  "candidates": []}),
    ("stratify", {"target": projective_space(2).to_json(), "bounds": ["a"]}),
    ("stratify", {"target": projective_space(2).to_json(), "bounds": [8, 8, 16, 32, 64]}),
    ("stratify", {"target": projective_space(2).to_json(), "bounds": [0, 8]}),
    ("stratify", {"target": projective_space(2).to_json(), "bound": "60"}),
    ("stratify", {"target": projective_space(2).to_json(), "degree": 0}),
    ("stratify", {"target": projective_space(2).to_json(), "margin": "x"}),
    ("stratify", {"target": projective_space(2).to_json(), "margin": True}),
], ids=["no-classes", "list-classes", "no-realizations", "dict-realizations",
        "no-relations", "no-type", "int-type", "no-p", "string-p", "no-bounds",
        "list-realization", "relation-without-left", "not-an-object",
        "string-m", "string-k", "zero-m", "non-prime-p", "string-twist", "twist-out-of-range",
        "zero-degree", "undeclared-right-class", "undeclared-left-class",
        "string-realization-bounds", "decreasing-realization-bounds",
        "no-target", "string-target", "list-candidates", "string-bounds",
        "repeated-bounds", "zero-bound-in-bounds", "string-bound",
        "zero-stratify-degree", "string-margin", "bool-margin"])
def test_malformed_job_file_exits_2(tmp_path, capsys, command, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main([command, "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_out_of_range_twist_exits_2(specs, capsys):
    # GF(9) would read twist 9 as index 0, the trivial character
    code = main(["expzeta", "--spec", specs["gm"], "--p", "3", "--k", "2",
                 "--order", "3", "--twist", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "twist" in captured.err


def test_non_string_spec_polynomial_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"ambient": {"type": "affine", "dim": 1},
                                "equations": [1.5]}))
    code = main(["zeta", "--spec", str(path), "--p", "3", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "1.5" in captured.err


@pytest.mark.parametrize("fields, field", [
    ({"ambient": {"type": "projective", "dim": 1}, "f": "x0*x1"}, "'f'"),
    ({"ambient": {"type": "projective", "dim": 1}, "base_map": ["x0"]}, "'base_map'"),
    ({"ambient": {"type": "affine", "dim": 1}, "equations": 5}, "'equations'"),
    ({"ambient": {"type": "affine", "dim": 1}, "base_map": 3}, "'base_map'"),
    ({"ambient": {"type": "affine", "dim": 1}, "equations": "x0"}, "'equations'"),
    ({"ambient": {"type": "affine", "dim": 1}, "equations": [True]}, "'equations'"),
    ({"ambient": {"type": "affine", "dim": 1}, "inequations": [None]}, "'inequations'"),
    ({"ambient": {"type": "affine", "dim": 1}, "f": False}, "'f'"),
], ids=["projective-f", "projective-base-map", "int-equations", "int-base-map",
        "string-equations", "bool-equation", "null-inequation", "bool-f"])
def test_spec_fields_of_the_wrong_kind_exit_2_naming_the_field(tmp_path, capsys, fields, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(fields))
    err = usage_error(["expzeta", "--spec", str(path), "--p", "3", "--order", "2"], capsys)
    assert field in err


def test_projective_spec_with_a_zero_f_is_accepted(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"ambient": {"type": "projective", "dim": 1}, "f": "0"}))
    code, out = run(["expzeta", "--spec", str(path), "--p", "3", "--order", "2"], capsys)
    assert code == 0
    assert json.loads(out)["series"] == [1, [4, 0], [13, 0]]


@pytest.mark.parametrize("order", ["0", "1"])
def test_witt_order_below_two_exits_2(specs, capsys, order):
    err = usage_error(["witt", "--spec", specs["p1"], "--p", "3", "--order", order], capsys)
    assert "--order" in err


def test_stratify_candidate_with_two_extra_equations_exits_1(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({
        "target": projective(2, ["x2*(x0*x2 - x1^2)"]).to_json(),
        "candidates": {"pt": projective(2, ["x0", "x2"]).to_json()},
        "bounds": [4, 8, 16, 32, 64],
    }))
    code = main(["stratify", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "UnrepresentableComplement" in captured.err and "'pt'" in captured.err


def test_malformed_budget_variable_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(affine(2, ["x1^2 + x0*x1 - x0^3 - 1"]).to_json()))
    for raw in ("abc", "0", "-3"):
        monkeypatch.setenv("ZETAKIT_BUDGET", raw)
        code = main(["zeta", "--spec", str(path), "--p", "3", "--order", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "ZETAKIT_BUDGET" in captured.err and repr(raw) in captured.err
    monkeypatch.setenv("ZETAKIT_BUDGET", "1000")
    assert varieties.default_budget() == 1000


_FAILING_CHECKS = """
import sys
from zetakit import cli
from zetakit.series import SeriesTrunc
assert False  # stripped under -O
checks = [lambda: cli._assert_equal(1, 2), lambda: cli._assert_true(False),
          lambda: cli._assert_series(SeriesTrunc(2, [1, 4, 13]), [1, 4, 14])]
for check in checks:
    try:
        check()
    except Exception:
        continue
    sys.exit("a failing check passed")
"""


def test_selftest_checks_survive_python_O():
    src = str(Path(zetakit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", _FAILING_CHECKS],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    done = subprocess.run([sys.executable, "-O", "-m", "zetakit.cli", "selftest"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["verdict"] == "pass"


def test_usage_errors_without_a_position_carry_no_position_suffix(specs, tmp_path, capsys):
    # these errors point at no position in a text, so the message ends
    # where the sentence does
    ledger = tmp_path / "ledger.json"
    ledger.write_text(json.dumps({"classes": {}, "relations": [],
                                  "realizations": [{"type": "volume", "p": 3}]}))
    for argv, message in (
            (["fourier", "--spec", specs["gm"], "--p", "3"],
             "fourier needs a spec with a base_map"),
            (["ledger", "--spec", str(ledger)], "unknown realization type 'volume'")):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
