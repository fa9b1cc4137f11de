"""Weil heights over Q: enumeration, count tables, growth estimates."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetakit
from conftest import _walk_in_small_chunks
from zetakit import heights, varieties
from zetakit.errors import (
    BudgetExceeded,
    DegreeZero,
    InsufficientSamples,
    NonHomogeneous,
    NotASubvariety,
    NotProjective,
    PrefixTooShort,
    ZeroVector,
)
from zetakit.polynomials import Poly
from zetakit.varieties import affine, projective, projective_space


def test_normalize_reduces_and_fixes_sign():
    assert heights.normalize((6, -4)).coords == (3, -2)
    assert heights.normalize((-6, 4)).coords == (3, -2)
    assert heights.normalize((0, -5)).coords == (0, 1)


def test_normalize_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        heights.normalize((0, 0, 0))


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=4))
def test_normalize_is_idempotent(coords):
    if all(c == 0 for c in coords):
        return
    p = heights.normalize(coords)
    assert heights.normalize(p.coords).coords == p.coords
    assert math.gcd(*p.coords) == 1


def test_weil_height():
    assert heights.weil_height(heights.normalize((3, -7))) == 7
    assert heights.weil_height(heights.normalize((3, -7)), m=2) == 49


def test_product_formula():
    for lam in ("3/4", "-10", "7/9", "1"):
        report = heights.verify_product_formula(lam)
        assert report["product"] == "1"


def test_high_degree_equation_is_evaluated_exactly():
    # x0*x1^64 leaves int64 inside the box at B=10, where a wrapped
    # evaluation finds 46 points; only (1:0) and (0:1) lie on it
    X = projective(1, ["x0*x1^64"])
    assert heights.count_points(X, 1, 10) == 2
    with pytest.raises(NotASubvariety):
        heights.accumulation_test(projective_space(1), X, 1, (10,))


def test_p1_count_small_bound():
    # P^1(Q), height <= 2: (0:1),(1:0),(1:1),(1:-1),(1:2),(2:1),(1:-2),(2:-1)
    assert heights.count_points(projective_space(1), 1, 2) == 8


def test_counts_are_farey_like():
    # N(P^1, B) = 4 * sum_{k<=B} phi(k)
    def phi(k):
        return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)

    for B in (3, 5, 10):
        expected = 4 * sum(phi(k) for k in range(1, B + 1))
        assert heights.count_points(projective_space(1), 1, B) == expected


def test_height_table_monotone_and_consistent():
    bounds = heights.dyadic_bounds(64)
    tbl = heights.height_count_table(projective_space(1), 1, bounds)
    assert list(tbl.bounds) == sorted(tbl.bounds)
    for b, n in zip(tbl.bounds, tbl.counts):
        assert n == heights.count_points(projective_space(1), 1, b)


def test_bundle_twist_rescales_heights():
    # h_{O(2)} = h_{O(1)}^2, so N_{O(2)}(B^2) = N_{O(1)}(B)
    X = projective_space(1)
    assert heights.count_points(X, 2, 49) == heights.count_points(X, 1, 7)


def test_abscissa_estimate_p1():
    tbl = heights.height_count_table(projective_space(1), 1,
                                     heights.dyadic_bounds(300))
    sigma = heights.abscissa_estimate(tbl)
    assert abs(sigma - 2.0) < 0.25


def test_abscissa_needs_enough_samples():
    tbl = heights.HeightCountTable("X", 1, (2, 4), (8, 30))
    with pytest.raises(InsufficientSamples):
        heights.abscissa_estimate(tbl)


def test_asymptotic_fit_picks_pure_power_law():
    tbl = heights.height_count_table(projective_space(1), 1,
                                     heights.dyadic_bounds(300))
    fit = heights.asymptotic_fit(tbl)
    assert fit.t == 0  # N ~ c B^2, no log factor
    assert abs(fit.beta - 2.0) < 0.25


def test_accumulation_line_dominates_line_union_conic():
    # inside the curve {line} u {conic}, almost all points sit on the line
    union = projective(2, equations=["x2*(x0*x2 - x1^2)"])
    line = projective(2, equations=["x2"])
    verdict = heights.accumulation_test(line, union, 1,
                                        heights.dyadic_bounds(40))
    assert verdict["verdict"] == "strong"


def test_accumulation_requires_subvariety():
    conic = projective(2, equations=["x0*x2 - x1^2"])
    line = projective(2, equations=["x2"])
    with pytest.raises(NotASubvariety):
        heights.accumulation_test(conic, line, 1, heights.dyadic_bounds(20))


def test_schanuel_small():
    report = heights.schanuel_check(1, 200, tolerance=0.05)
    assert report["verdict"] == "pass"


def test_merge_product_counts_exact():
    lam = np.arange(1, 101)
    count, report = heights.merge_product_counts(lam, lam, 100)
    brute = sum(1 for i in lam for j in lam if i * j < 100)
    assert count == brute
    assert report["beta_constant"] == 1.0


def test_merge_product_counts_prefix_guard():
    with pytest.raises(PrefixTooShort):
        heights.merge_product_counts([1, 2, 3], [1, 2, 3], 100)


# ---------------------------------------------------------------------------
# The box scan against a scalar oracle


def _oracle_scan(X, m, B, within=None):
    """Sorted heights of the normalized points of X with h_{O(m)} <= B, by
    itertools.product over the whole box, normalize and Python-int
    evaluation; with within=U, the NotASubvariety message for the first
    normalized point of X (in lex order) that violates U, or None."""
    H = 0
    while (H + 1) ** m <= B:
        H += 1
    U = [(e, True) for e in within.equations] + [(h, False) for h in within.inequations] \
        if within is not None else []
    found = []
    for coords in itertools.product(range(-H, H + 1), repeat=X.nvars):
        if not any(coords) or heights.normalize(coords).coords != coords:
            continue
        if (any(e.eval_int(coords) != 0 for e in X.equations)
                or any(h.eval_int(coords) == 0 for h in X.inequations)):
            continue
        for poly, vanish in U:
            if (poly.eval_int(coords) == 0) != vanish:
                return None, (f"point {list(coords)} violates "
                              f"{poly!r}{'' if vanish else ' != 0'}")
        found.append(max(abs(c) for c in coords))
    return sorted(found), None


def _expand(counts):
    """Sorted heights, one per point, from the box scan's counts per height."""
    return np.repeat(np.arange(len(counts)), counts).tolist()


@st.composite
def _homogeneous_poly(draw, nv):
    degree = draw(st.integers(1, 3))
    monomials = [e for e in itertools.product(range(degree + 1), repeat=nv)
                 if sum(e) == degree]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3,
                           unique=True))
    return Poly(nv, {e: draw(st.integers(-3, 3).filter(bool)) for e in chosen})


@st.composite
def _scan_case(draw):
    nv = draw(st.integers(2, 4))
    H = draw(st.integers(0, {2: 12, 3: 5, 4: 3}[nv]))
    m = draw(st.sampled_from((1, 2)))
    B = draw(st.integers(max(H**m - 2, 0), H**m))

    def spec():
        eqs = draw(st.lists(_homogeneous_poly(nv), max_size=2))
        ineqs = draw(st.lists(_homogeneous_poly(nv), max_size=1))
        return projective(nv - 1, eqs, ineqs)

    return spec(), spec(), m, B


@settings(max_examples=60, deadline=None)
@given(_scan_case())
def test_point_heights_match_scalar_oracle(case):
    X, U, m, B = case
    expected, _ = _oracle_scan(X, m, B)
    assert heights.point_heights(X, m, B).tolist() == expected
    _, witness = _oracle_scan(X, m, B, within=U)
    if witness is None:
        assert _expand(heights._box_heights(X, m, B, None, within=U)) == expected
    else:
        with pytest.raises(NotASubvariety) as exc:
            heights._box_heights(X, m, B, None, within=U)
        assert str(exc.value) == witness


@pytest.mark.parametrize("X, m, B", [
    (projective_space(0), 1, 0),
    (projective_space(0), 1, 7),
    (projective_space(0), 2, 3),
    (projective_space(2), 1, 0),
    (projective_space(2), 3, 30),
    (projective(1, ["x0*x1^64"]), 1, 10),  # evaluated over Python ints
    (projective(2, ["x0*x2 - x1^2"], ["x0 + x1 + x2"]), 1, 9),
])
def test_point_heights_fixed_cases(X, m, B):
    assert heights.point_heights(X, m, B).tolist() == _oracle_scan(X, m, B)[0]


@pytest.mark.parametrize("X", [
    projective(2, equations=["x2*(x0*x2 - x1^2)"]),  # the union curve
    projective(2, equations=["x2"]),  # its line
    projective_space(2),
], ids=["union", "line", "P2"])
@pytest.mark.parametrize("m, bounds", [
    (1, (-1, 0, 0.5, 1, 2, 3, 7, 12)),
    (2, (0, 0.5, 1, 2, 3, 4, 5, 8, 9, 10, 26, 99, 144)),  # non-squares too
])
def test_count_tables_match_the_point_heights(X, m, bounds):
    hs = heights.point_heights(X, m, bounds[-1])
    want = [sum(1 for h in hs.tolist() if h**m <= b) for b in bounds]
    assert want == np.searchsorted(hs, [heights._height_root(b, m) for b in bounds],
                                   side="right").tolist()
    assert list(heights.height_count_table(X, m, bounds).counts) == want
    assert [heights.count_points(X, m, b) for b in bounds] == want


def test_within_witness_is_first_violating_point():
    # each point of the line x2 = 0 violates x0*x1 + x1^2 unless x1 = 0
    # or x0 = -x1; the first normalized one in lex order is (0, 1, 0)
    V = projective(2, ["x2"])
    U = projective(2, ["x0*x1 + x1^2"])
    _, witness = _oracle_scan(V, 1, 6, within=U)
    assert witness == "point [0, 1, 0] violates Poly(x1^2+x0*x1)"
    with pytest.raises(NotASubvariety) as exc:
        heights.accumulation_test(V, U, 1, (3, 6))
    assert str(exc.value) == witness


# (X, U, m, B): each scan also runs with within=U, which the oracle either
# passes or fails at its first violating point
SPLIT_CASES = [
    (projective_space(0), projective(0, ["x0"]), 1, 7),
    (projective_space(3), projective(3, ["x0*x3 - x1*x2"]), 1, 3),
    (projective(2, ["x0*x2 - x1^2"], ["x0 + x1 + x2"]),
     projective(2, ["x0*x2 - x1^2"], ["x1"]), 1, 9),
    (projective(2, ["x0*x2 - x1^2"], ["x0 + x1 + x2"]),
     projective(2, ["x2*(x0*x2 - x1^2)"]), 2, 81),
    (projective(1, ["x0*x1^64"]), projective(1, ["x0"]), 1, 10),  # Python ints
]


@pytest.mark.parametrize("split", ["R", "T"])
@pytest.mark.parametrize("X, U, m, B", SPLIT_CASES,
                         ids=["P0", "P3", "conic", "conic-in-union", "object"])
def test_box_scan_matches_scalar_oracle_in_small_chunks(monkeypatch, X, U, m, B, split):
    H = heights._height_root(B, m)
    Q = 2 * H + 1
    shapes = _walk_in_small_chunks(monkeypatch, Q, 1, split)
    expected, _ = _oracle_scan(X, m, B)
    _, witness = _oracle_scan(X, m, B, within=U)
    assert heights.point_heights(X, m, B).tolist() == expected
    if witness is None:
        assert _expand(heights._box_heights(X, m, B, None, within=U)) == expected
    else:
        with pytest.raises(NotASubvariety) as exc:
            heights._box_heights(X, m, B, None, within=U)
        assert str(exc.value) == witness
    if split == "T":
        assert all(R == 1 and T < Q for R, T in shapes)
    else:  # the slab whose last coordinate leads spans H values
        assert all(R <= 2 and T in (H, Q) for R, T in shapes)
        assert X.nvars == 1 or (2, Q) in shapes


@pytest.mark.parametrize("split", ["R", "T"])
@pytest.mark.parametrize("X, B", [
    (projective(2, [], ["x0 + x1 + x2"]), 6),  # a mask that flags most points
    (projective(2, [], ["x0*x1*x2"]), 6),
    (projective(3, [], ["x0*x3 - x1*x2"]), 3),
    (projective(2, ["x0 + x1 - x2"]), 6),  # one that flags few
], ids=["plane", "axes", "quadric", "line"])
def test_masked_chunks_match_the_scalar_oracle(monkeypatch, X, B, split):
    _walk_in_small_chunks(monkeypatch, 2 * B + 1, 1, split)
    assert heights.point_heights(X, 1, B).tolist() == _oracle_scan(X, 1, B)[0]


# ---------------------------------------------------------------------------
# The slab solver against the box scan


def _solved_slabs(X):
    """The slabs of X that the solver takes, in order of their lead."""
    slabs = (heights._plan_slab(X, None, lead) for lead in range(X.nvars))
    return [s for s in slabs if s.y is not None]


# (equation in P^2, B, dtype of the rows): every one is solved in its
# first slab, and the box scan (solve=False) is the oracle
SOLVER_CASES = [
    ("x2*(x0*x2 - x1^2)", 12, np.int32),  # the union curve
    ("x0*x2 - x1^2", 12, np.int32),  # roots outside the box, non-divisible ones
    ("x2 - 3*x0 + x1", 12, np.int32),  # linear, with roots outside the box
    ("2*x2 - x0", 12, np.int32),  # 2 divides half of the rows
    ("x1*x2", 12, np.int32),  # a = c = 0: full fibers where x1 = 0
    ("x1*x2^2 + x0*x1*x2", 12, np.int32),  # full fibers of a quadratic
    ("x1*x2^2 + x0^2*x2 - x0^3", 12, np.int32),  # a vanishing lead: linear where x1 = 0
    ("x0^2 + x1^2 + x2^2", 12, np.int32),  # negative discriminants only
    ("x0^2 + x1^2 - x2^2", 12, np.int32),  # Pythagorean triples
    ("x2^2 - x0*x1 + 3*x1^2", 12, np.int32),  # discriminants of both signs
    ("x0^8*x2^2 - x1^10", 6, np.int64),  # the discriminant passes 2^31
    ("x0^63*x2^2 - x0*x1^64", 3, object),  # as x0*x1^64: Python ints
    ("x0^63*x2 - x1^64", 3, object),
]


@pytest.mark.parametrize("split", [None, "R", "T"])
@pytest.mark.parametrize("eq, B, dtype", SOLVER_CASES, ids=[c[0] for c in SOLVER_CASES])
def test_solver_matches_the_box_scan(monkeypatch, eq, B, dtype, split):
    X = projective(2, [eq])
    slabs = _solved_slabs(X)
    assert slabs[0].lead == 0
    quadratics = [s.coeffs for s in slabs if not s.coeffs[0].is_zero()]
    assert heights._Integers(B, X.equations, quadratics).dtype == dtype
    if split is not None:
        _walk_in_small_chunks(monkeypatch, 2 * B + 1, 1, split)
    for m, b in ((1, B), (2, B * B)):
        assert (heights._box_heights(X, m, b, None).tolist()
                == heights._box_heights(X, m, b, None, solve=False).tolist())


def test_union_curve_solver_matches_the_box_scan_under_signed_permutations():
    # the 48 signed permutations of the coordinates fix every count; each
    # moves the solved coordinate and the signs of the coefficients
    counts = set()
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            v = [f"({s}*x{i})" for s, i in zip(signs, perm)]
            X = projective(2, [f"{v[2]}*({v[0]}*{v[2]} - {v[1]}^2)"])
            assert _solved_slabs(X)
            solved = heights._box_heights(X, 1, 20, None)
            assert solved.tolist() == heights._box_heights(X, 1, 20, None, solve=False).tolist()
            counts.add(tuple(solved.tolist()))
    assert len(counts) == 1


def test_conic_counts_like_the_projective_line():
    # x0*x2 = x1^2 is the image of P^1 under (s : t) -> (s^2 : st : t^2),
    # of height max(|s|, |t|)^2, so #C(B) = #P^1(isqrt(B)); the box scan
    # would walk 8001^3 / 2 points at B = 4000, far past the default budget
    conic = projective(2, ["x0*x2 - x1^2"])
    for B in (256, 4000):
        assert (heights.count_points(conic, 1, B)
                == heights.count_points(projective_space(1), 1, math.isqrt(B)))
    assert heights.count_points(conic, 1, 4000) == 4912


def test_solver_budget_is_charged_before_any_walk(monkeypatch):
    # the conic's first slab is solved for x2 and walks (x0, x1); the
    # second keeps -x1^2, of degree 0 in x2, and walks x1 alone; the
    # third walks x2: H (2H + 1) + 2H points in all, each slab within a
    # budget one short of the sum
    conic = projective(2, ["x0*x2 - x1^2"])
    H = 20
    charge = H * (2 * H + 1) + 2 * H
    assert charge < (2 * H + 1) ** 3 // 2
    expected = heights.count_points(projective_space(1), 1, math.isqrt(H))
    walks = []
    chunks = varieties._chunks

    def spy(*args):
        walks.append(args[1])
        return chunks(*args)

    monkeypatch.setattr(varieties, "_chunks", spy)
    with pytest.raises(BudgetExceeded):
        heights.count_points(conic, 1, H, budget=charge - 1)
    assert walks == []
    assert heights.count_points(conic, 1, H, budget=charge) == expected
    assert walks == [(2,), (1,), (0, 1)]


# (spec, B, dtype of the rows): a slab solved with conditions of X left
# over, which the tally masks on the roots and on the full fibers
TALLY_CASES = [
    (projective(2, ["x0*x2 - x1^2"], ["x1"]), 12, np.int32),
    (projective(2, ["x0*x2 - x1^2"], ["x0 + x1 + x2"]), 12, np.int32),
    (projective(2, ["x1*x2"], ["x0 + x2"]), 12, np.int32),  # cut full fibers
    (projective(3, ["x0*x3 - x1*x2", "x0*x2 - x1^2"]), 5, np.int32),  # two equations
    (projective(3, ["x1*x3", "x2^2 - x0*x3"], ["x0 + x3"]), 5, np.int32),
    (projective(2, ["x0^8*x2^2 - x1^10"], ["x0 + x1 + x2"]), 6, np.int64),
    (projective(2, ["x1^64*x2"], ["x0 + x2"]), 3, object),  # Python ints
]


@pytest.mark.parametrize("split", [None, "R", "T"])
@pytest.mark.parametrize("X, B, dtype", TALLY_CASES,
                         ids=["conic-x1", "conic-plane", "axes", "twisted", "fibers-2eq",
                              "int64", "object"])
def test_leftover_conditions_are_masked_like_the_box_scan(monkeypatch, X, B, dtype, split):
    slabs = [heights._plan_slab(X, None, lead) for lead in range(X.nvars)]
    assert any(s.y is not None and any(s.own) for s in slabs)
    quadratics = [s.coeffs for s in slabs if s.y is not None and not s.coeffs[0].is_zero()]
    assert heights._Integers(B, X.equations + X.inequations, quadratics).dtype == dtype
    if split is not None:
        _walk_in_small_chunks(monkeypatch, 2 * B + 1, 1, split)
    for m, b in ((1, B), (2, B * B)):
        assert (heights._box_heights(X, m, b, None).tolist()
                == heights._box_heights(X, m, b, None, solve=False).tolist())


@st.composite
def _solver_case(draw):
    nv = draw(st.integers(2, 4))
    B = draw(st.integers(0, {2: 12, 3: 5, 4: 3}[nv]))
    eqs = draw(st.lists(_homogeneous_poly(nv), max_size=2))
    ineqs = draw(st.lists(_homogeneous_poly(nv), max_size=2))
    return projective(nv - 1, eqs, ineqs), B


@settings(max_examples=150, deadline=None)
@given(_solver_case())
def test_solver_matches_the_box_scan_on_random_specs(case):
    X, B = case
    assert (heights._box_heights(X, 1, B, None).tolist()
            == heights._box_heights(X, 1, B, None, solve=False).tolist())


def test_conic_without_its_axis_counts_past_the_box_scan():
    # x1 != 0 drops (1 : 0 : 0) and (0 : 0 : 1) from the 4912 points; the
    # inequation is masked on the roots of x2, so the walk stays H (2H + 1)
    assert heights.count_points(projective(2, ["x0*x2 - x1^2"], ["x1"]), 1, 4000) == 4910


def test_a_cut_full_fiber_grid_is_charged_as_it_is_formed(monkeypatch):
    # x1*x2 solved for x2 in the first slab: every x2 is a root where
    # x1 = 0, and x0 + x2 != 0 cuts those H rows times 2H + 1 values of x2
    X = projective(2, ["x1*x2"], ["x0 + x2"])
    H = 20
    walk = H * (2 * H + 1) + 2 * H
    grid = H * (2 * H + 1)
    expected = heights._box_heights(X, 1, H, None, solve=False)
    walks = []
    chunks = varieties._chunks

    def spy(*args):
        walks.append(args[1])
        return chunks(*args)

    monkeypatch.setattr(varieties, "_chunks", spy)
    with pytest.raises(BudgetExceeded) as exc:
        heights.count_points(X, 1, H, budget=walk + grid - 1)
    assert exc.value.estimate == walk + grid
    assert walks == [(2,), (1,), (0, 1)]  # raised inside the last walk
    assert heights._box_heights(X, 1, H, walk + grid).tolist() == expected.tolist()
    # without the inequation the fibers are binned, not charged
    assert heights.count_points(projective(2, ["x1*x2"]), 1, H, budget=walk) > 0


def test_python_int_rows_are_charged_by_size():
    # x0^20000 reaches 2 * 1000^20000 at B = 1000, 3164 words of 63 bits,
    # so the scan's H (2H + 1) + H points cost 3164 each; int64 rows cost 1
    X = projective(1, ["x0^20000 - x1^20000"])
    H = 1000
    words = -(-(2 * H**20000).bit_length() // 63)
    assert heights._Integers(H, X.equations).cost == words == 3164
    with pytest.raises(BudgetExceeded) as exc:
        heights.count_points(X, 1, H)
    assert exc.value.estimate == words * (H * (2 * H + 1) + H)
    assert heights._Integers(H, [Poly(2, {(6, 0): 1})]).cost == 1  # 10^18: int64
    assert heights.count_points(X, 1, 3, budget=words * (3 * 7 + 3)) == 2


def test_integer_sqrt_and_divide_are_exact_on_every_tier():
    top = math.isqrt(2**63 - 1)  # the largest int64 square's root
    values = [0, 1, 2, 3, 4, -4, 24, 25, 26, (2**31 - 1) ** 2, (2**31 - 1) ** 2 - 1,
              top**2, top**2 - 1, top**2 + 1, (top - 1) ** 2 + 1]
    for dtype, H in ((np.int32, 1), (np.int64, 1), (object, 1)):
        ring = heights._Integers(H, [Poly(1, {(0,): 2**31 if dtype is np.int64 else
                                              2**63 if dtype is object else 1})])
        assert ring.dtype == dtype
        rows = [v for v in values if dtype is not np.int32 or abs(v) < 2**31]
        if dtype is object:
            rows += [(10**30 + 7) ** 2, (10**30 + 7) ** 2 + 1]
        square, root = ring.sqrt(np.array(rows, dtype=dtype))
        assert square.tolist() == [v >= 0 and math.isqrt(v) ** 2 == v for v in rows]
        assert [int(r) for r, s in zip(root, square) if s] == [
            math.isqrt(v) for v, s in zip(rows, square) if s]
        a = np.array([7, -7, 6, -6, 0, 9], dtype=dtype)
        b = np.array([2, 2, -3, 4, 5, -3], dtype=dtype)
        exact, q = ring.divide(a, b)
        assert exact.tolist() == [False, False, True, False, True, True]
        assert [int(v) for v in q[exact]] == [-2, 0, -3]


def test_integer_rows_take_the_narrowest_exact_dtype():
    # sum |c| * H^deg decides: 2^31 - 1 is int32, 2^31 is int64, 2^63 is
    # Python ints; 2H, the largest index, counts too
    def dtype(H, c, deg=1):
        return heights._Integers(H, [Poly(2, {(deg, 0): c})]).dtype

    assert dtype(1, 2**31 - 1) == np.int32
    assert dtype(1, 2**31) == np.int64
    assert dtype(1, 2**63 - 1) == np.int64
    assert dtype(1, 2**63) is object
    assert dtype(2**10, 1, 3) == np.int32  # 2^30
    assert dtype(2**10, 2, 3) == np.int64  # 2^31
    assert heights._Integers(2**30 - 1, []).dtype == np.int32
    assert heights._Integers(2**30, []).dtype == np.int64


def test_int64_rows_count_like_the_scalar_oracle():
    # x0^10 reaches 10^10 at B = 10: past int32, where a wrapped value
    # would vanish at points off the curve |x0| = |x1|
    X = projective(1, ["x0^10 - x1^10"])
    assert heights._Integers(10, X.equations).dtype == np.int64
    assert heights.point_heights(X, 1, 10).tolist() == _oracle_scan(X, 1, 10)[0] == [1, 1]


def test_condition_free_chunk_work_is_bounded_by_the_chunk(monkeypatch):
    # P^0's one slab walks H = B values, here in chunks of 2^16: each
    # chunk's heights span only its own values, so beyond the histogram
    # the scan's peak is a few dozen bytes per chunk point, where binning
    # a chunk over all of 0..H would take 8 bytes per height
    B, chunk = 4_000_000, 1 << 16
    _walk_in_small_chunks(monkeypatch, chunk + 2, 1, "T")
    inversion, peaks = heights._mobius_inversion, []

    def measured(A):
        peaks.append(tracemalloc.get_traced_memory()[1] - A.nbytes)
        return inversion(A)

    monkeypatch.setattr(heights, "_mobius_inversion", measured)
    tracemalloc.start()
    try:
        assert heights.count_points(projective_space(0), 1, B) == 1
    finally:
        tracemalloc.stop()
    assert peaks[0] < 128 * chunk


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=400))
def test_mobius_inversion_matches_definition(values):
    A = np.array(values, dtype=np.int64)
    A[0] = 0

    def mu(n):
        out = 1
        for p, e in heights._factorize(n).items():
            if e > 1:
                return 0
            out = -out
        return out

    expected = [0] + [sum(mu(d) * values[h // d] for d in range(1, h + 1) if h % d == 0)
                      for h in range(1, len(values))]
    assert heights._mobius_inversion(A.copy()).tolist() == expected


# ---------------------------------------------------------------------------
# Input validation


NONHOMOGENEOUS = projective(1, ["x0 - 1"])


def test_nonhomogeneous_spec_is_rejected():
    # before the check, count_points returned 21 here: x0 = 1, x1 in [-10, 10]
    with pytest.raises(NonHomogeneous):
        heights.count_points(NONHOMOGENEOUS, 1, 10)
    with pytest.raises(NonHomogeneous):
        heights.count_points(projective(1, [], ["x0 + 1"]), 1, 10)
    with pytest.raises(NonHomogeneous):
        heights.height_count_table(NONHOMOGENEOUS, 1, (5, 10))


def test_accumulation_rejects_nonhomogeneous_sub_and_ambient():
    with pytest.raises(NonHomogeneous):
        heights.accumulation_test(NONHOMOGENEOUS, projective_space(1), 1, (5, 10))
    with pytest.raises(NonHomogeneous):
        heights.accumulation_test(projective(1, ["x0"]), NONHOMOGENEOUS, 1, (5, 10))


def test_affine_specs_and_degrees_below_one_are_typed_errors():
    with pytest.raises(NotProjective):
        heights.count_points(affine(1), 1, 5)
    with pytest.raises(NotProjective):
        heights.accumulation_test(projective_space(1), affine(2), 1, (5, 10))
    for m in (0, -1):
        with pytest.raises(DegreeZero):
            heights.count_points(projective_space(1), m, 5)


def test_huge_bound_exceeds_budget():
    # the float root of 10^400 overflowed before the budget was checked
    with pytest.raises(BudgetExceeded):
        heights.count_points(projective_space(1), 1, 10**400)
    with pytest.raises(BudgetExceeded):
        heights.count_points(projective_space(1), 3, 10**400)


@given(st.integers(1, 10**60), st.integers(1, 7))
def test_height_root_is_exact(k, m):
    assert heights._height_root(k**m, m) == k
    assert heights._height_root(k**m - 1, m) == k - 1
    assert heights._height_root((k + 1) ** m - 1, m) == k


_STRIPPED_CHECKS = """
import numpy as np
from zetakit import bulk, heights
from zetakit.varieties import projective_space
assert False  # stripped under -O
x = np.zeros(4)
checks = [
    lambda: heights.HeightCountTable("x", 1, (8, 4), (5, 3)),
    lambda: heights.HeightCountTable("x", 1, (4, 8), (5, 3)),
    lambda: bulk._mod_p(x, 3, bulk._FLOAT_EXACT, np.empty_like(x)),
    lambda: heights.count_points(projective_space(1), 1, 5),
]
heights._mobius_inversion = lambda A: A - 1  # negative primitive counts
for check in checks:
    try:
        check()
    except AssertionError:
        continue
    raise SystemExit("a failing check passed")
"""


def test_checks_survive_python_O():
    src = str(Path(zetakit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-O", "-c", _STRIPPED_CHECKS],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("bounds,counts,message", [
    ((8, 4), (3, 5), "not increasing"),
    ((4, 4), (3, 5), "not increasing"),
    ((4, 8), (5, 3), "decrease"),
])
def test_count_table_rejects_unordered_bounds_and_counts(bounds, counts, message):
    with pytest.raises(AssertionError, match=message):
        heights.HeightCountTable("x", 1, bounds, counts)
