"""End-to-end CLI checks: exit codes, canonical output, reruns."""

import json

import pytest

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
