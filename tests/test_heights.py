"""Weil heights over Q: enumeration, count tables, growth estimates."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetakit import heights
from zetakit.errors import (
    BudgetExceeded,
    InsufficientSamples,
    NonHomogeneous,
    NotASubvariety,
    PrefixTooShort,
    ZeroVector,
)
from zetakit.polynomials import Poly
from zetakit.varieties import projective, projective_space


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
        assert heights._box_heights(X, m, B, None, within=U).tolist() == expected
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
