"""Weil heights over Q: enumeration, count tables, growth estimates."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetakit import heights
from zetakit.errors import (
    InsufficientSamples,
    NotASubvariety,
    PrefixTooShort,
    ZeroVector,
)
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
