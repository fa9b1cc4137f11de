"""Zeta series: Hasse-Weil closed forms, twisted L-series, reconstruction."""

import json
import math
from fractions import Fraction

import pytest

from zetakit import varieties
from zetakit.cyclofield import build_field, character
from zetakit.cyclotomic import Cyclotomic
from zetakit.errors import InsufficientOrder, NoCandidate, RouteMismatch, TallyTooShallow
from zetakit.polynomials import Poly
from zetakit.series import SeriesTrunc, euler_factor
from zetakit.varieties import (
    affine,
    affine_line,
    circle,
    closed_point_tally,
    gm,
    projective_space,
)
from zetakit.zetas import (
    _dual_route,
    exp_zeta,
    exp_zeta_from_tally,
    hw_zeta,
    kapranov_check,
    rational_reconstruct,
)


def expand(num, den, order):
    """Reference expansion of num/den as integer series."""
    s = SeriesTrunc(order, num + [0] * (order + 1 - len(num)))
    d = SeriesTrunc(order, den + [0] * (order + 1 - len(den)))
    return s * d.inverse()


def test_affine_line_zeta(F3):
    assert hw_zeta(affine_line(), F3, 8) == expand([1], [1, -3], 8)


def test_projective_line_zeta(F5):
    z = hw_zeta(projective_space(1), F5, 8)
    assert z == expand([1], [1, -6, 5], 8)  # 1/((1-t)(1-5t))


def test_gm_zeta(F4):
    z = hw_zeta(gm(), F4, 8)
    assert z == expand([1, -1], [1, -4], 8)  # (1-t)/(1-4t)


def test_circle_zeta_odd_characteristic(F3):
    # 4, 8, 28, 80, ... = 3^m - (-1)^m points
    z = hw_zeta(circle(), F3, 6)
    assert z == expand([1, 1], [1, -3], 6)  # (1+t)/(1-3t)


def test_twisted_line_zeta_is_a_polynomial(F2):
    # sum_{x in F_{2^m}^*} (-1)^{Tr x} = -1, so Z = exp(-sum t^m/m) = 1 - t
    z = exp_zeta(gm(Poly.parse("x0", 1)), character(F2), 8)
    assert list(z.coeffs) == [1, -1] + [0] * 7


def test_quadratic_twist_gives_gauss_euler_factor(F3):
    # N_{chi,m} for f = x^2 on A^1 is g or 3^{m/2} (Hasse-Davenport)
    z = exp_zeta(affine_line(Poly.parse("x0^2", 1)), character(F3), 6)
    g = z.coeffs[1]
    assert g * g == -3
    # degree-2 coefficient of exp(g t + (-g^2/2 + ...)): check via N_2 = 3
    assert 2 * z.coeffs[2] == g * g + 3


def test_exp_zeta_from_tally_matches(F5):
    X = circle(Poly.parse("x0*x1", 2))
    chi = character(F5)
    tally = closed_point_tally(X, chi, 5)
    assert exp_zeta_from_tally(tally, 5) == exp_zeta(X, chi, 5)


def test_kapranov_coefficients(F3):
    X = gm(Poly.parse("x0", 1))
    report = kapranov_check(X, character(F3), 4)
    assert report["verdict"] == "pass"
    assert [row["n"] for row in report["rows"]] == [0, 1, 2, 3, 4]


# -- rational reconstruction ---------------------------------------------------


def test_reconstruct_geometric():
    s = expand([1], [1, -3], 10)
    rc = rational_reconstruct(s, 2)
    assert list(rc.numerator) == [1]
    assert list(rc.denominator) == [1, -3]
    assert rc.expand(10) == s


def test_reconstruct_prefers_minimal_degrees(F5):
    z = hw_zeta(projective_space(2), F5, 10)
    rc = rational_reconstruct(z, 3)
    # (1-t)(1-5t)(1-25t), numerator 1
    assert list(rc.numerator) == [1]
    assert len(rc.denominator) == 4
    assert rc.expand(10) == z


def test_reconstruct_needs_enough_coefficients():
    s = expand([1], [1, -3], 3)
    with pytest.raises(InsufficientOrder):
        rational_reconstruct(s, 4)


def test_reconstruct_rejects_non_rational_series():
    # exp(t) has no degree <= 2 rational form; all candidates must fail
    from fractions import Fraction

    coeffs = [Fraction(1, math.factorial(n)) for n in range(11)]
    with pytest.raises(NoCandidate):
        rational_reconstruct(SeriesTrunc(10, coeffs), 2)


def test_reconstruct_gauss_sum_numerator_over_z_zeta3(F3):
    # exp(sum -(-g)^m t^m / m) = 1 + g t with g = 1 + 2 zeta the Gauss sum
    z = Cyclotomic.zeta_power(3, 1)
    rc = rational_reconstruct(exp_zeta(affine_line("x0^2"), character(F3), 6), 2)
    assert list(rc.numerator) == [1, 1 + 2 * z]
    assert list(rc.denominator) == [1]


def test_reconstruct_cyclotomic_denominator_inverts_a_pivot(F3):
    # one point with f = 1: N_m = zeta^m, so Z = 1 / (1 - zeta t)
    z = Cyclotomic.zeta_power(3, 1)
    s = exp_zeta(affine(1, ["x0"], f="1"), character(F3), 6)
    rc = rational_reconstruct(s, 2)
    assert list(rc.numerator) == [1]
    assert list(rc.denominator) == [1, -z]
    assert rc.expand(6) == s


def test_rational_candidate_with_fractions_serializes():
    s = SeriesTrunc(6, [Fraction(1, 2**n) for n in range(7)])
    text = json.dumps(rational_reconstruct(s, 2).to_json())
    assert json.loads(text) == {"P": [1], "Q": [1, "-1/2"], "verified_order": 6}


def test_hw_zeta_rejects_counts_that_no_closed_points_give(monkeypatch, F3):
    # N_1 = 2, N_2 = 0 has an integral zeta but -1 closed points of degree 2
    fake = {1: 2, 2: 0}
    monkeypatch.setattr(varieties, "count_points_ff",
                        lambda X, F, m, budget=None: fake[m])
    with pytest.raises(AssertionError, match="orbit inversion failed at degree 2"):
        hw_zeta(affine_line(), F3, 2)


def test_exp_zeta_from_tally_refuses_a_shallow_tally(F5):
    X = circle(Poly.parse("x0*x1", 2))
    tally = closed_point_tally(X, character(F5), 4)
    with pytest.raises(TallyTooShallow, match="tally depth 4"):
        exp_zeta_from_tally(tally, 5)
    assert exp_zeta_from_tally(tally, 4) == exp_zeta(X, character(F5), 4)


def test_kapranov_check_enumerates_each_degree_once(monkeypatch, F3):
    degrees = []
    histogram = varieties._histogram

    def spy(X, F, m, twist, budget):
        degrees.append(m)
        return histogram(X, F, m, twist, budget)

    monkeypatch.setattr(varieties, "_histogram", spy)
    assert kapranov_check(gm(Poly.parse("x0", 1)), character(F3), 4)["verdict"] == "pass"
    assert degrees == [1, 2, 3, 4]


def test_dual_route_raises_when_the_routes_differ():
    # route A: exp(t) = 1 + t; route B: (1 - t)^-2 = 1 + 2t
    with pytest.raises(RouteMismatch, match="zeta routes differ"):
        _dual_route([1], [euler_factor(1, 1, 2, 1)], 1)


def test_rational_reconstruct_refuses_a_negative_degree_bound():
    with pytest.raises(NoCandidate, match="max_deg must be at least 0"):
        rational_reconstruct(SeriesTrunc(3, [1, 1, 1, 1]), -1)
