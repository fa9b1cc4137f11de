"""Class-relation checking: disjoint covers, ledger additivity, strata."""

import json

import pytest

from zetakit import cli, heights, scissor
from zetakit.cyclofield import build_field, character
from zetakit.errors import (
    DoubleCovered,
    NoStrictDrop,
    TotalMismatch,
    Uncovered,
    UnrepresentableComplement,
)
from zetakit.scissor import (
    Decomposition,
    ExpSumRealization,
    HeightCountRealization,
    LedgerRelation,
    PointCountRealization,
    accumulation_assembler_check,
    ledger_check,
    stratify,
    verify_disjoint_cover,
)
from zetakit.varieties import (
    affine,
    affine_line,
    affine_space,
    gm,
    point_spec,
    projective,
    projective_space,
)

BOUNDS = (4, 8, 16, 32, 64)


def realizations():
    F3, F4 = build_field(3, 1), build_field(2, 2)
    return [
        PointCountRealization(F3, 1),
        PointCountRealization(F4, 2),
        ExpSumRealization(character(F3), 1),
    ]


def test_line_splits_into_origin_and_torus():
    d = Decomposition(affine_line(), (point_spec(), gm()))
    reports = verify_disjoint_cover(d, realizations())
    assert all(r.verdict == "pass" for r in reports)


def test_cover_detects_overlap():
    d = Decomposition(affine_line(), (affine_line(), point_spec()))
    with pytest.raises(DoubleCovered):
        verify_disjoint_cover(d, realizations())


def test_cover_detects_gap_with_witness():
    d = Decomposition(affine_line(), (gm(),))  # forgot the origin
    with pytest.raises(Uncovered):
        verify_disjoint_cover(d, realizations())
    reports = verify_disjoint_cover(d, realizations(), strict=False)
    assert reports[0].verdict == "fail"
    assert reports[0].witness == [0]  # the missing point, by element index


def test_plane_cell_decomposition():
    d = Decomposition(
        affine_space(2),
        (affine(2, ["x0"]), affine(2, inequations=["x0"])),
    )
    reports = verify_disjoint_cover(d, realizations())
    assert all(r.verdict == "pass" for r in reports)


def test_height_realization_cover():
    d = Decomposition(
        projective_space(1),
        (projective(1, inequations=["x1"]), projective(1, equations=["x1"])),
    )
    reports = verify_disjoint_cover(
        d, [HeightCountRealization(1, BOUNDS)])
    assert reports[0].verdict == "pass"


def test_cover_total_mismatch_has_the_ledger_witness_shape():
    # every point of Gm lies in A^1 once, but A^1 has one point more
    d = Decomposition(gm(), (affine_line(),))
    with pytest.raises(TotalMismatch):
        verify_disjoint_cover(d, realizations()[:1])
    rep, = verify_disjoint_cover(d, realizations()[:1], strict=False)
    assert rep.witness == {"left": 2, "right": 3}
    assert isinstance(rep.error, TotalMismatch)
    assert rep.to_json() == {"realization": rep.tag, "verdict": "fail",
                             "witness": {"left": 2, "right": 3},
                             "details": {"kind": "total"}}
    d = Decomposition(projective_space(1), (projective(1, inequations=["x1"]),))
    rep, = verify_disjoint_cover(d, [HeightCountRealization(1, BOUNDS)], strict=False)
    assert rep.witness == {"B": 4, "left": 24, "right": 23}  # (1:0) is missing


def test_ledger_additivity():
    registry = {
        "A1": affine_line(),
        "origin": point_spec(),
        "Gm": gm(),
    }
    rel = LedgerRelation("A1", ("origin", "Gm"), "cell structure")
    reports = ledger_check(rel, registry, realizations())
    assert all(r.verdict == "pass" for r in reports)


def test_ledger_failure_is_witnessed():
    registry = {"A1": affine_line(), "Gm": gm()}
    rel = LedgerRelation("A1", ("Gm",), "broken on purpose")
    reports = ledger_check(rel, registry, realizations(), strict=False)
    assert reports[0].verdict == "fail"
    assert reports[0].witness == {"left": 3, "right": 2}


def test_strict_ledger_check_raises_the_first_failure():
    registry = {"A1": affine_line(), "Gm": gm()}
    rel = LedgerRelation("A1", ("Gm",), "broken on purpose")
    with pytest.raises(TotalMismatch, match="'left': 3, 'right': 2"):
        ledger_check(rel, registry, realizations(), strict=True)


def test_ledger_job_with_an_unknown_realization_type_exits_2(tmp_path, capsys):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"classes": {}, "relations": [],
                                "realizations": [{"type": "volume", "p": 3}]}))
    assert cli.main(["ledger", "--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown realization type 'volume'" in captured.err


def test_ledger_height_sigma_report():
    registry = {
        "P2": projective_space(2),
        "line": projective(2, equations=["x2"]),
        "U": projective(2, inequations=["x2"]),
    }
    rel = LedgerRelation("P2", ("line", "U"), "hyperplane split")
    reports = ledger_check(
        rel, registry, [HeightCountRealization(1, (4, 8, 16, 32, 48))])
    rep = reports[0]
    assert rep.verdict == "pass"
    assert rep.details["complement_consistent"]
    assert rep.details["sieve_drop"]["line"]  # dim drops, sigma drops
    assert not rep.details["sieve_drop"]["U"]


def test_stratify_peels_off_the_sparse_conic():
    union = projective(2, equations=["x2*(x0*x2 - x1^2)"])
    # inner stratum spelled with one extra equation so complements exist
    candidates = {
        "conic": projective(2, equations=["x2*(x0*x2 - x1^2)",
                                          "x0*x2 - x1^2"]),
    }
    result = stratify(union, candidates, 1, BOUNDS, name="C")
    assert result["chain"] == ["C", "conic"]
    assert set(result["pieces"]) == {"C\\conic", "conic"}
    assert result["sigma"]["C"] - result["sigma"]["conic"] >= 0.25


def test_stratify_skips_a_candidate_outside_the_current_stratum():
    union = projective(2, equations=["x2*(x0*x2 - x1^2)"])
    candidates = {
        "line": projective(2, equations=["x0"]),  # (0:1:1) is not on the union
        "conic": projective(2, equations=["x2*(x0*x2 - x1^2)", "x0*x2 - x1^2"]),
    }
    result = stratify(union, candidates, 1, BOUNDS, name="C")
    assert result["chain"] == ["C", "conic"]
    assert set(result["sigma"]) == {"C", "conic"}
    assert "line" not in result["relation"].right


def test_stratify_scans_each_candidate_once_per_round(monkeypatch):
    union = projective(2, equations=["x2*(x0*x2 - x1^2)"])
    conic = projective(2, equations=["x2*(x0*x2 - x1^2)", "x0*x2 - x1^2"])
    scans = []
    box_heights = heights._box_heights

    def spy(X, *args, **kwargs):
        scans.append(X)
        return box_heights(X, *args, **kwargs)

    monkeypatch.setattr(heights, "_box_heights", spy)
    result = stratify(union, {"conic": conic}, 1, BOUNDS, name="C")
    assert scans == [union, conic]  # U's table, then one checked scan of the conic
    monkeypatch.undo()
    sigma = {nm: heights.abscissa_estimate(heights.height_count_table(X, 1, BOUNDS))
             for nm, X in (("C", union), ("conic", conic))}
    assert result["sigma"] == sigma
    assert result["chain"] == ["C", "conic"]


def test_stratify_names_a_candidate_without_a_one_equation_complement():
    union = projective(2, equations=["x2*(x0*x2 - x1^2)"])
    point = projective(2, equations=["x0", "x2"])  # (0:1:0), two extra equations
    with pytest.raises(UnrepresentableComplement, match="'pt'"):
        stratify(union, {"pt": point}, 1, BOUNDS, name="C")


def test_stratify_without_drop_raises():
    candidates = {"all": projective_space(2)}
    with pytest.raises(NoStrictDrop):
        stratify(projective_space(2), candidates, 1, BOUNDS)


def test_assembler_strong_composition():
    union = projective(2, equations=["x2*(x0*x2 - x1^2)"])
    line = projective(2, equations=["x2"])
    rep = accumulation_assembler_check(union, line, "strong", 1, BOUNDS)
    assert rep.verdict == "pass"


def test_assembler_rejects_non_accumulating():
    conic = projective(2, equations=["x0*x2 - x1^2"])
    union = projective(2, equations=["x2*(x0*x2 - x1^2)"])
    rep = accumulation_assembler_check(union, conic, "strong", 1, BOUNDS)
    assert rep.verdict == "fail"
    assert rep.witness is not None
