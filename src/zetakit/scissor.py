"""Scissor-congruence ledger: decompositions and class relations, checked
under executable realizations.

No Grothendieck group is ever constructed.  A relation [U] = sum [X_i] is
an observable claim.  A realization measures each spec (a point count, a
character sum, or a table of height counts) and one comparison,
`_additivity`, checks that the sides add, a table bound by bound.  A
failure's witness is the first pair that differs, {"left", "right"} plus
"B" for a table.  A disjoint cover over a finite field first walks every
target point and names the first one in no piece or in two; the walked
total is then the left side of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import heights, varieties
from .cyclotomic import json_scalar
from .errors import (
    DoubleCovered,
    NoStrictDrop,
    NotASubvariety,
    TotalMismatch,
    Uncovered,
    UnrepresentableComplement,
    ZetakitError,
)
from .varieties import VarietySpec

_SIGMA_TOLERANCE = 0.25  # abscissa gap between "keeps the boundary" and "drops"


@dataclass(frozen=True)
class Decomposition:
    """A target and pieces claimed to cover it disjointly."""

    target: VarietySpec
    pieces: tuple

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))


@dataclass(frozen=True)
class LedgerRelation:
    """[left] = sum of [right_i], with a provenance note."""

    left: str
    right: tuple
    provenance: str = "unspecified"

    def __post_init__(self):
        object.__setattr__(self, "right", tuple(self.right))

    def to_json(self):
        return {"left": self.left, "right": list(self.right),
                "provenance": self.provenance}


@dataclass
class RealizationReport:
    tag: str
    verdict: str  # 'pass' | 'fail'
    witness: object = None
    details: dict = field(default_factory=dict)
    error: ZetakitError | None = None  # a failure's exception, raised when strict

    def to_json(self):
        out = {"realization": self.tag, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


# Realizations: each measures a spec; covers walk the points of field_spec


@dataclass(frozen=True)
class PointCountRealization:
    field_spec: object  # FieldSpec
    m: int = 1

    @property
    def tag(self):
        return f"point-count(q={self.field_spec.q},m={self.m})"

    def measure(self, X, budget=None):
        return varieties.count_points_ff(X, self.field_spec, self.m, budget)


@dataclass(frozen=True)
class ExpSumRealization:
    chi: object  # AdditiveCharacter
    m: int = 1

    @property
    def tag(self):
        c = self.chi.c.index()
        return f"exp-sum(q={self.chi.field.q},chi={c},m={self.m})"

    @property
    def field_spec(self):
        return self.chi.field

    def measure(self, X, budget=None):
        return varieties.exp_sum(X, self.chi, self.m, budget)


@dataclass(frozen=True)
class HeightCountRealization:
    bundle_degree: int
    bounds: tuple
    field_spec = None

    @property
    def tag(self):
        return f"height-count(O({self.bundle_degree}),B<={max(self.bounds)})"

    def measure(self, X, budget=None):
        return heights.height_count_table(X, self.bundle_degree, self.bounds, budget)


def _additivity(real, lhs, parts, details):
    """The report on lhs = sum(parts) under `real`: scalars compare whole,
    height tables bound by bound.  A pass carries details(), evaluated
    only then; a failure, the first pair that differs."""
    if isinstance(lhs, heights.HeightCountTable):
        rows = [({"B": b}, n, sum(t.counts[i] for t in parts))
                for i, (b, n) in enumerate(zip(lhs.bounds, lhs.counts))]
    else:  # summed from a zero of lhs's kind, so an empty right side keeps its form
        rows = [({}, lhs, sum(parts, lhs * 0))]
    for where, left, right in rows:
        if left != right:
            witness = {**where, "left": json_scalar(left), "right": json_scalar(right)}
            return RealizationReport(real.tag, "fail", witness, {"kind": "total"},
                                     TotalMismatch(f"{real.tag}: {witness}"))
    return RealizationReport(real.tag, "pass", details=details())


# ---------------------------------------------------------------------------
# Disjoint covers


def verify_disjoint_cover(d: Decomposition, realizations, budget=None,
                          strict=True):
    """Check that the pieces cover the target once each, per realization.

    Finite-field realizations walk every target point (vectorized) and
    demand exactly one containing piece, then compare the walked total
    with the pieces' point counts; height realizations compare count
    tables.  With strict=True the first failure raises Uncovered /
    DoubleCovered / TotalMismatch.
    """
    reports = []
    for real in realizations:
        reports.append(rep := _cover(d, real, budget))
        if strict and rep.verdict != "pass":
            raise rep.error
    return reports


def _cover(d, real, budget):
    """A point's hit count is the sum of the piece masks; the witness is
    the first target point, in enumeration order, not hit exactly once."""
    if real.field_spec is None:  # nothing to walk: compare the count tables
        table = real.measure(d.target, budget)
        return _additivity(real, table, [real.measure(p, budget) for p in d.pieces],
                           lambda: {"bounds": list(table.bounds),
                                    "counts": list(table.counts)})
    F, m = real.field_spec, real.m
    total = 0
    for inside, masks, point in varieties.membership_walk(d.target, d.pieces, F, m, budget):
        bad = inside & (sum(masks, np.zeros(len(inside), dtype=np.int64)) != 1)
        if bad.any():
            row = int(np.argmax(bad))
            witness, hits = point(row), [i for i, mk in enumerate(masks) if mk[row]]
            if not hits:
                return RealizationReport(real.tag, "fail", witness,
                                         {"kind": "uncovered"}, Uncovered(witness))
            return RealizationReport(real.tag, "fail", witness,
                                     {"kind": "double-covered", "pieces": hits},
                                     DoubleCovered(witness))
        total += int(inside.sum())
    parts = [varieties.count_points_ff(piece, F, m, budget) for piece in d.pieces]
    return _additivity(real, total, parts, lambda: {"points": total})


# ---------------------------------------------------------------------------
# Ledger relations


def ledger_check(rel: LedgerRelation, registry, realizations, budget=None,
                 strict=True):
    """Additivity of a class relation under each realization.

    registry maps class ids to VarietySpecs.  Height realizations also
    report abscissa estimates: the largest piece must match the target
    (complement keeps the convergence boundary) and pieces strictly
    below it are flagged as sieve-grade drops.
    """
    left = registry[rel.left]
    right = [registry[r] for r in rel.right]
    reports = []
    for real in realizations:
        lhs = real.measure(left, budget)
        parts = [real.measure(s, budget) for s in right]
        reports.append(rep := _additivity(real, lhs, parts,
                                          lambda: _ledger_details(rel, lhs, parts)))
        if strict and rep.verdict != "pass":
            raise rep.error
    return reports


def _ledger_details(rel, lhs, parts):
    """A scalar's value, or the abscissa estimates of height tables."""
    if not isinstance(lhs, heights.HeightCountTable):
        return {"value": json_scalar(lhs)}
    sigma = {nm: heights.abscissa_estimate(t)
             for nm, t in zip((rel.left, *rel.right), (lhs, *parts))}
    top = max((sigma[nm] for nm in rel.right), default=None)
    details = {"sigma": sigma}
    if top is not None:
        details["complement_consistent"] = abs(top - sigma[rel.left]) < _SIGMA_TOLERANCE
        details["sieve_drop"] = {
            nm: sigma[rel.left] - sigma[nm] > _SIGMA_TOLERANCE for nm in rel.right
        }
    return details


# ---------------------------------------------------------------------------
# Stratification


def stratify(U: VarietySpec, candidates, m, bounds, margin=0.25, budget=None,
             name="U"):
    """Greedy nested chain of strata by estimated convergence boundary.

    candidates maps names to specs.  At each step the candidate inside
    the current stratum with the largest abscissa drop (at least `margin`)
    is appended; ties go to the candidate with fewer points at the top
    bound.  Pieces are the successive complements, each a locally closed
    spec.  NoStrictDrop when no candidate drops by `margin`.
    """
    bounds = sorted(bounds)
    sigma = {name: heights.abscissa_estimate(
        heights.height_count_table(U, m, bounds, budget, name=name))}
    chain = [(name, U)]
    remaining = dict(candidates)
    while True:
        current_name, current = chain[-1]
        options = []  # ((-drop, points at the top bound), name), in candidate order
        for nm, cand in remaining.items():
            try:
                prim = heights._check_subvariety(cand, current, m, bounds[-1], budget)
            except NotASubvariety:
                continue
            if nm not in sigma:
                sigma[nm] = heights.abscissa_estimate(
                    heights._count_table(prim, m, bounds, nm))
            drop = sigma[current_name] - sigma[nm]
            if drop >= margin:
                options.append(((-drop, int(prim.sum())), nm))
        if not options:
            break
        nm = min(options, key=lambda o: o[0])[1]
        chain.append((nm, remaining.pop(nm)))
    if len(chain) == 1:
        raise NoStrictDrop(f"no candidate drops the abscissa by {margin} below {name}")
    pieces = {f"{outer}\\{nm}": _complement(top, nm, inner)
              for (outer, top), (nm, inner) in zip(chain, chain[1:])}
    pieces[chain[-1][0]] = chain[-1][1]
    relation = LedgerRelation(name, tuple(pieces), "stratification")
    return {"chain": [nm for nm, _ in chain], "sigma": sigma,
            "pieces": pieces, "relation": relation}


def _complement(outer: VarietySpec, name, inner: VarietySpec) -> VarietySpec:
    """outer minus the candidate `name`, which must be cut out of it by one
    extra equation: the complement of more is not one spec."""
    extra = [e for e in inner.equations if e not in outer.equations]
    if len(extra) != 1:
        raise UnrepresentableComplement(
            f"candidate {name!r} is cut out by {len(extra)} extra equations; "
            "a complement needs exactly one")
    return VarietySpec(outer.ambient, outer.dim, outer.equations,
                       outer.inequations + (extra[0],), outer.f, outer.base_map)


# ---------------------------------------------------------------------------
# Accumulation assembler


def accumulation_assembler_check(U, V, mode, m, bounds, middle=None,
                                 budget=None) -> RealizationReport:
    """Accumulation verdict for V in U, with the composition closure.

    mode 'strong' requires a strong verdict; 'weak' accepts weak or
    strong (strong implies weak).  When a middle spec with V inside it
    inside U is supplied, the two-step verdicts are composed and must
    agree with the direct one — the finite-grid form of the liminf
    product argument.
    """
    tag = f"accumulation({mode},O({m}),B<={max(bounds)})"
    direct = heights.accumulation_test(V, U, m, bounds, budget=budget)
    ok = (direct["verdict"] == "strong" if mode == "strong"
          else direct["verdict"] in ("strong", "weak"))
    details = {"direct": direct}
    if middle is not None:
        lower = heights.accumulation_test(V, middle, m, bounds, budget=budget)
        upper = heights.accumulation_test(middle, U, m, bounds, budget=budget)
        composed_strong = (lower["verdict"] == "strong"
                           and upper["verdict"] == "strong")
        details["lower"] = lower
        details["upper"] = upper
        details["composition"] = "strong" if composed_strong else "inconclusive"
        if composed_strong and direct["verdict"] != "strong":
            ok = False
    verdict = "pass" if ok else "fail"
    witness = None if ok else direct["ratios"]
    return RealizationReport(tag, verdict, witness, details)
