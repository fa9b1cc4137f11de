"""Scissor-congruence ledger: decompositions and class relations, checked
under executable realizations.

No Grothendieck group is ever constructed.  A relation [U] = sum [X_i] is
an observable claim: under a point-count realization the counts must add,
under an exponential-sum realization the character sums must add, and
under a height realization the count tables must add bound by bound.
Failures always carry a concrete witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import heights, varieties
from .cyclotomic import Cyclotomic
from .errors import (
    DoubleCovered,
    NoStrictDrop,
    NotASubvariety,
    TotalMismatch,
    Uncovered,
)
from .varieties import VarietySpec


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

    def to_json(self):
        out = {"realization": self.tag, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


# Realization descriptors


@dataclass(frozen=True)
class PointCountRealization:
    field_spec: object  # FieldSpec
    m: int = 1

    @property
    def tag(self):
        return f"point-count(q={self.field_spec.q},m={self.m})"


@dataclass(frozen=True)
class ExpSumRealization:
    chi: object  # AdditiveCharacter
    m: int = 1

    @property
    def tag(self):
        c = self.chi.c.index()
        return f"exp-sum(q={self.chi.field.q},chi={c},m={self.m})"


@dataclass(frozen=True)
class HeightCountRealization:
    bundle_degree: int
    bounds: tuple

    @property
    def tag(self):
        return f"height-count(O({self.bundle_degree}),B<={max(self.bounds)})"


# ---------------------------------------------------------------------------
# Disjoint covers


def verify_disjoint_cover(d: Decomposition, realizations, budget=None,
                          strict=True):
    """Check that the pieces cover the target once each, per realization.

    Finite-field realizations walk every target point (vectorized) and
    demand exactly one containing piece; height realizations demand exact
    count additivity at every bound.  With strict=True the first failure raises
    Uncovered / DoubleCovered / TotalMismatch.
    """
    reports = []
    for real in realizations:
        if isinstance(real, (PointCountRealization, ExpSumRealization)):
            rep = _cover_pointwise(d, real, budget)
        elif isinstance(real, HeightCountRealization):
            rep = _cover_heights(d, real, budget)
        else:
            raise TypeError(f"unknown realization {real!r}")
        reports.append(rep)
        if strict and rep.verdict != "pass":
            raise rep.details["error"]
    return reports


def _cover_pointwise(d, real, budget):
    """A point's hit count is the sum of the piece masks; the witness is
    the first target point, in enumeration order, not hit exactly once."""
    F = real.field_spec if isinstance(real, PointCountRealization) else real.chi.field
    total = 0
    for inside, masks, point in varieties.membership_walk(
            d.target, d.pieces, F, real.m, budget):
        bad = inside & (sum(masks, np.zeros(len(inside), dtype=np.int64)) != 1)
        if bad.any():
            row = int(np.argmax(bad))
            witness, hits = point(row), [i for i, mk in enumerate(masks) if mk[row]]
            if not hits:
                return RealizationReport(real.tag, "fail", witness,
                                         {"error": Uncovered(witness), "kind": "uncovered"})
            return RealizationReport(real.tag, "fail", witness,
                                     {"error": DoubleCovered(witness),
                                      "kind": "double-covered", "pieces": hits})
        total += int(inside.sum())
    piece_total = sum(varieties.count_points_ff(piece, F, real.m, budget)
                      for piece in d.pieces)
    if piece_total != total:
        err = TotalMismatch(f"target has {total} points, pieces sum to {piece_total}")
        return RealizationReport(real.tag, "fail", [total, piece_total],
                                 {"error": err, "kind": "total"})
    return RealizationReport(real.tag, "pass", details={"points": total})


def _cover_heights(d, real, budget):
    bounds = sorted(real.bounds)
    m = real.bundle_degree
    tu = heights.height_count_table(d.target, m, bounds, budget)
    piece_tables = [heights.height_count_table(p, m, bounds, budget)
                    for p in d.pieces]
    for i, b in enumerate(bounds):
        lhs = tu.counts[i]
        rhs = sum(t.counts[i] for t in piece_tables)
        if lhs != rhs:
            err = TotalMismatch(f"at B={b}: target {lhs}, pieces {rhs}")
            return RealizationReport(real.tag, "fail", {"B": b, "target": lhs,
                                                        "pieces": rhs},
                                     {"error": err, "kind": "total"})
    return RealizationReport(real.tag, "pass",
                             details={"bounds": bounds, "counts": list(tu.counts)})


# ---------------------------------------------------------------------------
# Ledger relations


def ledger_check(rel: LedgerRelation, registry, realizations, budget=None,
                 sigma_tolerance=0.25, strict=True):
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
        if isinstance(real, PointCountRealization):
            lhs = varieties.count_points_ff(left, real.field_spec, real.m, budget)
            rhs = sum(varieties.count_points_ff(s, real.field_spec, real.m, budget)
                      for s in right)
            rep = _totals_report(real.tag, lhs, rhs)
        elif isinstance(real, ExpSumRealization):
            lhs = varieties.exp_sum(left, real.chi, real.m, budget)
            rhs = Cyclotomic.integer(real.chi.p, 0)
            for s in right:
                rhs = rhs + varieties.exp_sum(s, real.chi, real.m, budget)
            rep = _totals_report(real.tag, lhs, rhs,
                                 jsonify=lambda v: v.to_json())
        elif isinstance(real, HeightCountRealization):
            rep = _ledger_heights(rel, left, right, real, budget, sigma_tolerance)
        else:
            raise TypeError(f"unknown realization {real!r}")
        reports.append(rep)
        if strict and rep.verdict != "pass":
            raise rep.details["error"]
    return reports


def _totals_report(tag, lhs, rhs, jsonify=lambda v: v):
    if lhs != rhs:
        err = TotalMismatch(f"{tag}: left {lhs!r} != right {rhs!r}")
        return RealizationReport(tag, "fail",
                                 {"left": jsonify(lhs), "right": jsonify(rhs)},
                                 {"error": err, "kind": "total"})
    return RealizationReport(tag, "pass", details={"value": jsonify(lhs)})


def _ledger_heights(rel, left, right, real, budget, tol):
    bounds = sorted(real.bounds)
    m = real.bundle_degree
    tl = heights.height_count_table(left, m, bounds, budget, name=rel.left)
    piece_tables = [heights.height_count_table(s, m, bounds, budget, name=nm)
                    for nm, s in zip(rel.right, right)]
    for i, b in enumerate(bounds):
        lhs = tl.counts[i]
        rhs = sum(t.counts[i] for t in piece_tables)
        if lhs != rhs:
            err = TotalMismatch(f"at B={b}: {rel.left} {lhs}, pieces {rhs}")
            return RealizationReport(real.tag, "fail",
                                     {"B": b, "left": lhs, "right": rhs},
                                     {"error": err, "kind": "total"})
    sigma = {rel.left: heights.abscissa_estimate(tl)}
    for t in piece_tables:
        sigma[t.variety] = heights.abscissa_estimate(t)
    top = max((sigma[nm] for nm in rel.right), default=None)
    details = {"sigma": sigma}
    if top is not None:
        details["complement_consistent"] = abs(top - sigma[rel.left]) < tol
        details["sieve_drop"] = {
            nm: sigma[rel.left] - sigma[nm] > tol for nm in rel.right
        }
    return RealizationReport(real.tag, "pass", details=details)


# ---------------------------------------------------------------------------
# Stratification


def stratify(U: VarietySpec, candidates, m, bounds, margin=0.25, budget=None,
             strict=True, name="U"):
    """Greedy nested chain of strata by estimated convergence boundary.

    At each step the candidate inside the current stratum with the
    largest abscissa drop (at least `margin`) is appended; ties go to the
    candidate with fewer points at the top bound.  Pieces are the
    successive complements, each a locally closed spec.
    """
    bounds = sorted(bounds)
    named = dict(candidates.items() if isinstance(candidates, dict)
                 else ((f"V{i}", c) for i, c in enumerate(candidates)))
    sigma = {name: heights.abscissa_estimate(
        heights.height_count_table(U, m, bounds, budget, name=name))}
    chain = [(name, U)]
    remaining = dict(named)
    while True:
        current_name, current = chain[-1]
        best = None
        for nm, cand in list(remaining.items()):
            try:
                hs = heights._check_subvariety(cand, current, m, bounds[-1], budget)
            except NotASubvariety:
                continue
            if nm not in sigma:
                sigma[nm] = heights.abscissa_estimate(
                    heights._count_table(hs, m, bounds, nm))
            drop = sigma[current_name] - sigma[nm]
            if drop < margin:
                continue
            key = (-drop, len(hs))
            if best is None or key < best[0]:
                best = (key, nm, cand)
        if best is None:
            break
        _, nm, cand = best
        chain.append((nm, cand))
        del remaining[nm]
    if len(chain) == 1:
        if strict:
            raise NoStrictDrop(
                f"no candidate drops the abscissa by {margin} below {name}")
        pieces = {name: U}
        relation = LedgerRelation(name, (name,), "stratification")
        return {"chain": [name], "sigma": sigma, "pieces": pieces,
                "relation": relation}
    pieces = {}
    for (top_name, top), nxt in zip(chain, chain[1:] + [None]):
        if nxt is None:
            pieces[top_name] = top
        else:
            pieces[f"{top_name}\\{nxt[0]}"] = _complement(top, nxt[1])
    relation = LedgerRelation(name, tuple(pieces), "stratification")
    return {"chain": [nm for nm, _ in chain], "sigma": sigma,
            "pieces": pieces, "relation": relation}


def _complement(outer: VarietySpec, inner: VarietySpec) -> VarietySpec:
    """outer minus inner, for an inner cut out by one extra equation."""
    extra = [e for e in inner.equations if e not in outer.equations]
    if len(extra) != 1:
        raise ValueError(
            "complement needs the inner stratum cut out by one extra equation")
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
