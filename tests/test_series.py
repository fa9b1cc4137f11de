"""Truncated power series over Z, Q, and Z[zeta_p]."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetakit.cyclotomic import Cyclotomic
from zetakit.errors import CoefficientMismatch, NonIntegralCoefficient, OrderMismatch
from zetakit.series import (
    SeriesTrunc,
    euler_factor,
    exp_power_sums,
    from_log_derivative,
    log_derivative,
)


def geom(q, order):
    return SeriesTrunc(order, [q**n for n in range(order + 1)])


def test_geometric_series_inverse():
    s = geom(3, 10)
    assert s * s.inverse() == SeriesTrunc.one(10)
    assert s.inverse() == SeriesTrunc(10, [1, -3] + [0] * 9)


def test_exp_power_sums_affine_line():
    # N_m = q^m gives 1/(1 - q t)
    q = 5
    s = exp_power_sums([q**m for m in range(1, 9)], 8)
    assert s == geom(q, 8)


def test_euler_factor_expansion():
    # (1 - t)^{-2} = sum (n+1) t^n
    s = euler_factor(1, 1, 2, 6)
    assert list(s.coeffs) == [n + 1 for n in range(7)]
    # (1 - zeta_3 t^2)^{-1}
    z = Cyclotomic.zeta_power(3, 1)
    s = euler_factor(z, 2, 1, 6)
    assert list(s.coeffs) == [1, 0, z, 0, z * z, 0, z ** 3]


def test_log_derivative_roundtrip():
    u = SeriesTrunc(6, [1, 2, -1, 3, 0, 1, 4])
    assert from_log_derivative(log_derivative(u), 6) == u


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatch):
        SeriesTrunc.one(4) * SeriesTrunc.one(5)


def test_integrality_check():
    s = SeriesTrunc(2, [1, Fraction(1, 2), 0])
    assert not s.is_integral()
    t = SeriesTrunc(2, [1, Fraction(4, 2), 0])
    assert list(t.to_integral().coeffs) == [1, 2, 0]


def test_to_integral_checks_and_returns_self():
    z = Cyclotomic.zeta_power(3, 1)
    s = SeriesTrunc(2, [1, Fraction(6, 3), 2 * z])
    assert s.to_integral() is s
    with pytest.raises(NonIntegralCoefficient, match="t\\^2"):
        SeriesTrunc(2, [1, 2, z / 2]).to_integral()


def test_require_equal_names_the_first_differing_coefficient():
    z = Cyclotomic.zeta_power(3, 1)
    s = SeriesTrunc(3, [1, z, 2, 5])
    assert s.require_equal(SeriesTrunc(3, [1, z, Cyclotomic.integer(3, 2), 5])) is s
    with pytest.raises(CoefficientMismatch) as exc:
        s.require_equal(SeriesTrunc(3, [1, z, 3, 4]))
    assert exc.value.n == 2
    with pytest.raises(OrderMismatch):
        s.require_equal(SeriesTrunc.one(2))


def test_cyclotomic_coefficients_multiply():
    z = Cyclotomic.zeta_power(3, 1)
    u = SeriesTrunc(3, [1, z, 0, 0])
    v = SeriesTrunc(3, [1, z * z, 0, 0])
    # (1 + z t)(1 + z^2 t) = 1 + (z + z^2) t + t^2 = 1 - t + t^2
    assert list((u * v).coeffs) == [1, -1, 1, 0]


coeff = st.integers(min_value=-5, max_value=5)


@st.composite
def unit_series(draw, order=6):
    tail = draw(st.lists(coeff, min_size=order, max_size=order))
    return SeriesTrunc(order, [1] + tail)


@given(unit_series(), unit_series(), unit_series())
def test_multiplication_is_a_commutative_monoid(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * SeriesTrunc.one(6) == a


@given(unit_series())
def test_inverse_roundtrip(a):
    assert a.inverse().inverse() == a


@given(unit_series())
def test_exp_log_roundtrip(a):
    assert from_log_derivative(log_derivative(a), 6) == a
