"""Exact arithmetic in Z[zeta_p] (coefficient vectors of length p-1)."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zetakit.cyclotomic import Cyclotomic, demote, json_scalar, solve_exact
from zetakit.errors import MixedCyclotomicOrder, NonRational


def zeta(p, e=1):
    return Cyclotomic.zeta_power(p, e)


def test_power_relation_folds_to_minimal_polynomial():
    # 1 + zeta + zeta^2 = 0 in Z[zeta_3]
    z = zeta(3)
    assert 1 + z + z * z == 0


def test_zeta_power_wraps_mod_p():
    assert zeta(5, 7) == zeta(5, 2)
    assert zeta(5, 5) == Cyclotomic.integer(5, 1)


def test_gauss_sum_square():
    g = 1 + 2 * zeta(3)
    assert g * g == -3


def test_integer_coercion_both_sides():
    z = zeta(7)
    assert 2 + z == z + 2
    assert (3 * z) - z == 2 * z


def test_mixed_orders_rejected():
    with pytest.raises(MixedCyclotomicOrder):
        zeta(3) + zeta(5)


def test_inverse_of_unit():
    z = zeta(5, 2)
    assert z * z.inverse() == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.integer(3, 0).inverse()


def test_rational_value():
    x = Cyclotomic.integer(3, 6) / 4
    assert x.is_rational()
    assert x.rational_value() == Fraction(3, 2)
    assert not zeta(3).is_rational()
    with pytest.raises(NonRational):
        zeta(3).rational_value()


def test_to_integral():
    x = Cyclotomic.integer(3, 6) / 2
    assert x.to_integral() == 3
    with pytest.raises(ValueError):
        (Cyclotomic.integer(3, 1) / 2).to_integral()


def test_normal_form():
    assert type(demote(Fraction(6, 3))) is int and demote(Fraction(6, 3)) == 2
    assert demote(Fraction(1, 2)) == Fraction(1, 2)
    assert type(demote(True)) is int
    x = Cyclotomic(3, [Fraction(4, 2), True])
    assert x.coeffs == (2, 1) and all(type(c) is int for c in x.coeffs)
    assert x.is_integral() and x.to_integral() is x
    assert json_scalar(Fraction(-1, 2)) == "-1/2"
    assert json_scalar(Cyclotomic(3, [Fraction(1, 2), 3])) == ["1/2", 3]


def test_solve_exact_over_q_and_q_zeta():
    # x + y = 3, x - y = 1, 2x = 4: consistent, overdetermined
    assert solve_exact([[1, 1], [1, -1], [2, 0]], [3, 1, 4], 2) == [2, 1]
    assert solve_exact([[1, 1], [1, 1]], [1, 2], 2) is None
    # a free variable is set to 0
    assert solve_exact([[2, 4]], [1], 2) == [Fraction(1, 2), 0]
    z = zeta(5)
    assert solve_exact([[z]], [1 + z], 1) == [(1 + z) * z.inverse()]


def test_from_exponent_counts_matches_sum():
    counts = [2, 0, 1, 3]  # 2 + zeta^2 + 3 zeta^3 in Z[zeta_5]
    total = Cyclotomic.integer(5, 0)
    for e, c in enumerate(counts):
        total = total + c * zeta(5, e)
    assert Cyclotomic.from_exponent_counts(5, counts) == total


small = st.integers(min_value=-6, max_value=6)


@st.composite
def cyclo(draw, p=5):
    coeffs = draw(st.lists(small, min_size=p - 1, max_size=p - 1))
    return Cyclotomic(p, coeffs)


@given(cyclo(), cyclo(), cyclo())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(cyclo())
def test_additive_inverse(a):
    assert a + (-a) == 0


@given(cyclo())
def test_division_roundtrip(a):
    if not a.is_zero():
        assert (a * a) / a == a


@st.composite
def unit(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    q = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    x = Cyclotomic(p, draw(st.lists(q, min_size=p - 1, max_size=p - 1)))
    assume(not x.is_zero())
    return x


@given(unit())
def test_inverse_is_exact(x):
    assert x * x.inverse() == 1
