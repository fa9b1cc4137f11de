"""Command-line job runner.

Every subcommand reads a spec file plus field/bound parameters, runs the
corresponding computation with an explicit budget, and returns its
report: a dict, or the CSV text of a count table.  `main` alone echoes
the job into a dict report, writes it as canonical JSON (sorted keys) to
--out or stdout, and sets the exit code from the report's verdict.
Reruns of the same job produce byte-identical output.  Exit codes: 0
unless the verdict is "fail", 1 when it is or a check raised, 2 usage or
parse problems.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, heights, kexp, scissor, varieties, witt, zetas
from .cyclofield import build_field, character
from .errors import DegreeZero, NotPrime, ParseError, ZetakitError
from .series import SeriesTrunc


def _add_common(sp, field=True, order=False, bound=False, spec=True):
    if spec:
        sp.add_argument("--spec", required=True, help="variety/job spec file (JSON or TOML)")
    if field:
        sp.add_argument("--p", type=int, required=True, help="characteristic")
        sp.add_argument("--k", type=int, default=1, help="base field degree")
    if order:
        sp.add_argument("--order", type=int, required=True, help="series truncation order")
    if bound:
        sp.add_argument("--bound", type=int, required=True, help="height bound B")
    sp.add_argument("--out", help="output path (default: stdout)")
    sp.add_argument("--budget", type=int, help="enumeration budget override")


def _job_echo(args):
    keys = ("command", "spec", "p", "k", "order", "bound", "twist", "degree", "budget")
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="zetakit",
        description="zeta functions, character sums, heights, and class-relation checks",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("zeta", help="point-count zeta with dual-route verification")
    _add_common(sp, order=True)

    sp = sub.add_parser("expzeta", help="exponential-sum zeta over Z[zeta_p]")
    _add_common(sp, order=True)
    sp.add_argument("--twist", type=int, default=1, help="character twist c (element index)")

    sp = sub.add_parser("heights", help="bounded-height count table and estimates")
    _add_common(sp, field=False, bound=True)
    sp.add_argument("--degree", type=int, default=1, help="line bundle degree m")

    sp = sub.add_parser("witt", help="reconstruct a zeta and lift it to an endomorphism pair")
    _add_common(sp, order=True)

    sp = sub.add_parser("fourier", help="Fourier inversion check for a relative class")
    _add_common(sp)

    sp = sub.add_parser("ledger", help="check class relations from a ledger file")
    _add_common(sp, field=False)

    sp = sub.add_parser("stratify", help="build an arithmetic stratification")
    _add_common(sp, field=False)

    sp = sub.add_parser("selftest", help="run the built-in identity suite")
    _add_common(sp, field=False, spec=False)
    return ap


# ---------------------------------------------------------------------------
# Subcommands


def _field(p, k):
    """build_field(p, k), with a characteristic that is not a prime or a
    degree below 1 a ParseError; a field too large stays BudgetExceeded."""
    try:
        return build_field(p, k)
    except (NotPrime, DegreeZero) as exc:
        raise ParseError(f"{type(exc).__name__}: {exc}") from None


def _require_budget(args):
    """--budget, or without it ZETAKIT_BUDGET, must be at least 1; checked
    before the job runs, since a job that enumerates nothing never reads it."""
    budget = varieties.default_budget() if args.budget is None else args.budget
    if budget < 1:
        raise ParseError(f"--budget must be at least 1, got {budget}")


def _cmd_zeta(args):
    X = varieties.load_spec(args.spec)
    F = _field(args.p, args.k)
    series = zetas.hw_zeta(X, F, args.order, args.budget)
    report = {"verdict": "pass", "series": series.to_json(), "q": F.q}
    try:
        rc = zetas.rational_reconstruct(series, (args.order - 2) // 2)
        report["rational"] = rc.to_json()
    except ZetakitError:
        pass
    return report


def _cmd_expzeta(args):
    X = varieties.load_spec(args.spec)
    F = _field(args.p, args.k)
    chi = _character(F, args.twist)
    tally = varieties.closed_point_tally(X, chi, args.order, args.budget)
    series = zetas.exp_zeta_from_tally(tally, args.order)
    return {"verdict": "pass", "q": F.q,
            "series": series.to_json(), "tally": tally.to_json()}


def _cmd_heights(args):
    if args.degree < 1:
        raise ParseError(f"--degree must be at least 1, got {args.degree}")
    if args.bound < 1:
        raise ParseError(f"--bound must be at least 1, got {args.bound}")
    X = varieties.load_spec(args.spec)
    bounds = heights.dyadic_bounds(args.bound)
    tbl = heights.height_count_table(X, args.degree, bounds, args.budget)
    if args.out and args.out.endswith(".csv"):
        return tbl.to_csv()
    report = {"table": tbl.to_json()}
    try:
        report["sigma"] = heights.abscissa_estimate(tbl)
        report["fit"] = heights.asymptotic_fit(tbl).to_json()
    except ZetakitError as exc:
        report["fit_note"] = str(exc)
    return report


def _cmd_witt(args):
    X = varieties.load_spec(args.spec)
    F = _field(args.p, args.k)
    series = zetas.hw_zeta(X, F, args.order, args.budget)
    cls = witt.lift_roundtrip(series, (args.order - 2) // 2)
    return {"verdict": "pass", "series": series.to_json(), "endo_class": cls.to_json()}


def _cmd_fourier(args):
    X = varieties.load_spec(args.spec)
    if X.base_map is None:
        raise ParseError("fourier needs a spec with a base_map")
    F = _field(args.p, args.k)
    cls = kexp.KExpClass.generator(X)
    results = []
    for t in range(1, F.q):
        chi = character(F, F.from_index(t))
        rep = kexp.inversion_check(cls, chi, args.budget)
        rep["twist"] = t
        results.append(rep)
    return {"verdict": "pass", "checks": results}


def _character(F, twist):
    """The additive character of twist index c; ParseError unless 0 <= c < q,
    since F.from_index would reduce c silently."""
    if not 0 <= twist < F.q:
        raise ParseError(f"twist must be in [0, {F.q}), got {twist}")
    return character(F, F.from_index(twist))


def _job_field(data, key, kind, default=None, least=None):
    """data[key] (default when absent), checked to be a `kind`, a type or
    a tuple of types (bools are not ints), and at least `least`;
    ParseError otherwise."""
    if not isinstance(data, dict):
        raise ParseError(f"job entries must be objects, got {data!r}")
    value = data.get(key, default)
    if (not isinstance(value, kind) or isinstance(value, bool)
            or least is not None and value < least):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = " or ".join(k.__name__ for k in kinds)
        at_least = "" if least is None else f" >= {least}"
        raise ParseError(f"job field {key!r} must be a {names}{at_least}, got {value!r}")
    return value


def _job_bounds(data):
    """data["bounds"]: height bounds, ints >= 1 strictly increasing;
    ParseError otherwise."""
    bounds = _job_field(data, "bounds", list)
    if (not bounds or any(not isinstance(b, int) or isinstance(b, bool) or b < 1
                          for b in bounds)
            or any(a >= b for a, b in zip(bounds, bounds[1:]))):
        raise ParseError("job field 'bounds' must be strictly increasing ints >= 1, "
                         f"got {bounds!r}")
    return tuple(bounds)


def _cmd_ledger(args):
    with open(args.spec) as fh:
        job = json.load(fh)
    registry = {name: varieties.spec_from_json(data)
                for name, data in _job_field(job, "classes", dict).items()}
    realizations = [_realization_from_json(r)
                    for r in _job_field(job, "realizations", list)]
    reports = []
    for rel_data in _job_field(job, "relations", list):
        rel = scissor.LedgerRelation(_job_field(rel_data, "left", str),
                                     tuple(_job_field(rel_data, "right", list)),
                                     rel_data.get("provenance", "ledger file"))
        for name in (rel.left, *rel.right):
            if not isinstance(name, str) or name not in registry:
                raise ParseError(f"relation names an undeclared class {name!r}")
        reps = scissor.ledger_check(rel, registry, realizations,
                                    args.budget, strict=False)
        reports.append({"relation": rel.to_json(),
                        "reports": [r.to_json() for r in reps]})
    failed = any(r["verdict"] != "pass" for rel in reports for r in rel["reports"])
    return {"verdict": "fail" if failed else "pass", "relations": reports}


def _realization_from_json(data):
    kind = _job_field(data, "type", str)
    if kind == "height-count":
        return scissor.HeightCountRealization(
            _job_field(data, "degree", int, 1, least=1), _job_bounds(data))
    if kind not in ("point-count", "exp-sum"):
        raise ParseError(f"unknown realization type {kind!r}")
    F = _field(_job_field(data, "p", int), _job_field(data, "k", int, 1, least=1))
    m = _job_field(data, "m", int, 1, least=1)
    if kind == "point-count":
        return scissor.PointCountRealization(F, m)
    return scissor.ExpSumRealization(
        _character(F, _job_field(data, "twist", int, 1)), m)


def _cmd_stratify(args):
    with open(args.spec) as fh:
        job = json.load(fh)
    target = varieties.spec_from_json(_job_field(job, "target", dict))
    candidates = _job_field(job, "candidates", dict) if "candidates" in job else {}
    candidates = {name: varieties.spec_from_json(data) for name, data in candidates.items()}
    bounds = (_job_bounds(job) if "bounds" in job
              else heights.dyadic_bounds(_job_field(job, "bound", int, 60, least=1)))
    result = scissor.stratify(
        target, candidates, _job_field(job, "degree", int, 1, least=1), bounds,
        margin=_job_field(job, "margin", (int, float), 0.25), budget=args.budget)
    return {
        "chain": result["chain"],
        "sigma": result["sigma"],
        "pieces": {name: spec.to_json() for name, spec in result["pieces"].items()},
        "relation": result["relation"].to_json(),
    }


def _cmd_selftest(args):
    from .polynomials import Poly

    checks = []

    def run(name, fn):
        try:
            fn()
            checks.append({"check": name, "verdict": "pass"})
        except Exception as exc:  # noqa: BLE001 - every failure must be reported
            checks.append({"check": name, "verdict": "fail", "error": str(exc)})

    F2, F3 = build_field(2, 1), build_field(3, 1)
    run("gm zeta dual route", lambda: zetas.exp_zeta(
        varieties.gm(Poly.parse("x0", 1)), character(F2), 8, args.budget))
    run("p1 hasse-weil closed form", lambda: _assert_series(
        zetas.hw_zeta(varieties.projective_space(1), F3, 8, args.budget),
        [sum(3**j for j in range(m + 1)) for m in range(9)]))
    # N_m = 3^m - (-1)^m, so Z = (1 + t) / (1 - 3t): walks _sqrt_roots on the table kernel
    run("circle hasse-weil closed form", lambda: _assert_series(
        zetas.hw_zeta(varieties.circle(), F3, 8, args.budget),
        [1] + [4 * 3 ** (m - 1) for m in range(1, 9)]))
    run("trace identity", lambda: witt.trace_identity_check([[1, 1], [1, 0]], 10))
    run("gauss sum square", lambda: _assert_equal(
        kexp.realize(kexp.kexp_mul(*(2 * [kexp.KExpClass.generator(
            varieties.affine_line(Poly.parse("x0^2", 1)))])), character(F3)), -3))
    run("schanuel p1", lambda: _assert_true(
        heights.schanuel_check(1, 200, args.budget, tolerance=0.05)["verdict"] == "pass"))
    run("cover a1 = {0} + gm", lambda: scissor.verify_disjoint_cover(
        scissor.Decomposition(varieties.affine_line(None),
                              (varieties.point_spec(), varieties.gm(None))),
        [scissor.PointCountRealization(F3, 1)]))
    failed = any(c["verdict"] != "pass" for c in checks)
    return {"verdict": "fail" if failed else "pass", "checks": checks}


# explicit raises, not assert statements, so `python -O` keeps the checks
def _assert_series(series, coeffs):
    series.require_equal(SeriesTrunc(series.order, coeffs))


def _assert_equal(a, b):
    if a != b:
        raise AssertionError((a, b))


def _assert_true(v):
    if not v:
        raise AssertionError


_COMMANDS = {
    "zeta": _cmd_zeta,
    "expzeta": _cmd_expzeta,
    "heights": _cmd_heights,
    "witt": _cmd_witt,
    "fourier": _cmd_fourier,
    "ledger": _cmd_ledger,
    "stratify": _cmd_stratify,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _require_budget(args)
        if getattr(args, "order", 0) < 0:
            raise ParseError(f"--order must be at least 0, got {args.order}")
        report = _COMMANDS[args.command](args)
        text = report  # the CSV table of `heights --out *.csv`
        if isinstance(report, dict):
            text = json.dumps({**report, "job": _job_echo(args)}, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 1 if isinstance(report, dict) and report.get("verdict") == "fail" else 0
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZetakitError as exc:
        print(f"assertion failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
