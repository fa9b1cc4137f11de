"""The big Witt ring on 1 + tZ[[t]]: ghost maps, L, lifts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetakit import witt
from zetakit.cyclofield import character
from zetakit.cyclotomic import Cyclotomic
from zetakit.errors import (
    CoefficientMismatch,
    ConstantTermNotOne,
    NonRational,
    NonSquare,
    UnverifiedCandidate,
    ZetakitError,
)
from zetakit.series import SeriesTrunc, log_derivative
from zetakit.witt import (
    EndoClass,
    L_map,
    WittVector,
    char_series,
    companion_matrix,
    direct_sum,
    exponentiability_check,
    ghost,
    ghost_inverse,
    kron,
    lift_roundtrip,
    trace_identity_check,
    witt_add,
    witt_mul,
    zeta_lift,
)
from zetakit.varieties import affine
from zetakit.zetas import exp_zeta, rational_reconstruct

T = 8


def line(a, order=T):
    """The Witt vector 1/(1 - a t), i.e. the Teichmueller-style generator."""
    return WittVector(SeriesTrunc(order, [a**n for n in range(order + 1)]))


def test_ghost_of_geometric_is_constant_power_sums():
    g = ghost(line(3).series)
    assert list(g.components) == [3**m for m in range(1, T + 1)]


def test_ghost_roundtrip():
    u = SeriesTrunc(T, [1, 2, -1, 0, 3, 1, 0, -2, 5])
    assert ghost_inverse(ghost(u), T).series == u


def test_witt_sum_is_series_product():
    assert witt_add(line(2), line(3)).series == line(2).series * line(3).series


def test_witt_product_of_lines():
    # [a] * [b] = [ab]
    assert witt_mul(line(2), line(3)) == line(6)


def test_witt_ring_identities():
    one = WittVector.mul_unit(T)
    u = WittVector(SeriesTrunc(T, [1, 1, 2, 0, -1, 3, 0, 1, 1]))
    v = line(2)
    w = line(-1)
    assert witt_mul(u, one) == u
    assert witt_mul(u, v) == witt_mul(v, u)
    lhs = witt_mul(u, witt_add(v, w))
    rhs = witt_add(witt_mul(u, v), witt_mul(u, w))
    assert lhs == rhs


def test_char_series_of_companion_matrix():
    poly = [1, -5, 6]  # (1-2t)(1-3t)
    M = companion_matrix(poly)
    assert list(char_series(M).coeffs)[:3] == poly


def test_L_of_direct_sum_is_witt_sum():
    A = ((2, 1), (0, 1))
    B = ((3,),)
    assert L_map(direct_sum(A, B), T) == witt_add(L_map(A, T), L_map(B, T))


def test_L_of_a_large_direct_sum_goes_through_the_trace_series():
    # 10 x 10 is past the Leibniz determinant's rank, each 5 x 5 summand is not
    rng = random.Random(11)
    A, B = ([[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)] for _ in range(2))
    M = direct_sum(A, B)
    assert len(M) > witt._LEIBNIZ_MAX >= len(A)
    assert L_map(M, 8) == witt_add(L_map(A, 8), L_map(B, 8))


def test_L_of_kronecker_is_witt_product():
    A = ((2, 1), (0, 1))
    B = ((3,),)
    assert L_map(kron(A, B), T) == witt_mul(L_map(A, T), L_map(B, T))


def test_fibonacci_L_series():
    M = ((1, 1), (1, 0))
    s = L_map(M, 6).series
    assert list(s.coeffs) == [1, 1, 2, 3, 5, 8, 13]


def test_trace_identity_random_matrices():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        assert trace_identity_check(M, 10)["verdict"] == "pass"


def test_non_square_rejected():
    with pytest.raises(NonSquare):
        trace_identity_check(((1, 2),), 4)


def test_exponentiability(F3):
    from zetakit.varieties import affine_line, gm

    report = exponentiability_check(affine_line(), gm(), F3, 6)
    assert report["verdict"] == "pass"


def test_zeta_lift_roundtrip_p1(F5):
    from zetakit.varieties import projective_space
    from zetakit.zetas import hw_zeta

    z = hw_zeta(projective_space(1), F5, 12)
    cls = lift_roundtrip(z, 2)
    assert cls.plus_rank == 2 and cls.minus_rank == 0
    assert cls.value(12).series == z


def test_zeta_lift_rejects_underverified():
    s = SeriesTrunc(4, [1, 4, 16, 64, 256])
    rc = rational_reconstruct(s, 1)
    rc = type(rc)(rc.numerator, rc.denominator, 1)  # pretend t^1 only
    with pytest.raises(UnverifiedCandidate):
        zeta_lift(rc)


def test_zeta_lift_rejects_a_series_that_was_not_reconstructed():
    with pytest.raises(UnverifiedCandidate, match="not a reconstruction result"):
        zeta_lift(SeriesTrunc(4, [1, 4, 16, 64, 256]))


def test_zeta_lift_of_rational_cyclotomic_coefficients(F3):
    # points 0, 1 with f = 1, 2: Z = 1 / ((1 - zeta t)(1 - zeta^2 t)) = 1 / (1 + t + t^2)
    z = exp_zeta(affine(1, ["x0^2 - x0"], f="x0 + 1"), character(F3), 6)
    rc = rational_reconstruct(z, 2)
    assert list(rc.denominator) == [1, 1, 1]
    assert all(isinstance(c, Cyclotomic) for c in rc.denominator[1:])
    cls = zeta_lift(rc)
    assert (cls.plus_rank, cls.minus_rank) == (2, 0)
    assert cls.value(6).series == z
    assert lift_roundtrip(z, 2) == cls


def test_companion_matrix_rejects_irrational_coefficients(F3):
    zeta = Cyclotomic.zeta_power(3, 1)
    with pytest.raises(NonRational):
        companion_matrix([1, zeta])
    # Z = 1 / (1 - zeta t) reconstructs, but has no lift over Q
    s = exp_zeta(affine(1, ["x0"], f="1"), character(F3), 6)
    with pytest.raises(ZetakitError):
        lift_roundtrip(s, 2)


@pytest.mark.parametrize("check", [
    lambda: companion_matrix([2, 1]),
    lambda: WittVector(SeriesTrunc(2, [2, 1])),
    lambda: log_derivative(SeriesTrunc(2, [2, 1])),
], ids=["companion_matrix", "WittVector", "log_derivative"])
def test_constant_term_checks_raise_a_typed_error(check):
    with pytest.raises(ConstantTermNotOne):
        check()


def test_trace_identity_names_the_first_bad_coefficient(monkeypatch):
    from zetakit import witt

    exact = witt._trace_series
    monkeypatch.setattr(witt, "_trace_series",
                        lambda M, T: exact(M, T) + SeriesTrunc(T, [0, 0, 0, 1]))
    with pytest.raises(CoefficientMismatch) as exc:
        trace_identity_check(((1, 1), (1, 0)), 6)
    assert exc.value.n == 3


def test_endo_class_value_with_minus_part():
    # L(2) / L(1) = (1-t)/(1-2t)
    cls = EndoClass(1, ((2,),), 1, ((1,),))
    got = cls.value(5).series
    assert list(got.coeffs) == [1, 1, 2, 4, 8, 16]


small = st.integers(min_value=-4, max_value=4)


@st.composite
def witt_vec(draw, order=5):
    tail = draw(st.lists(small, min_size=order, max_size=order))
    return WittVector(SeriesTrunc(order, [1] + tail))


@given(witt_vec(), witt_vec(), witt_vec())
def test_witt_multiplication_distributes(a, b, c):
    lhs = witt_mul(a, witt_add(b, c))
    rhs = witt_add(witt_mul(a, b), witt_mul(a, c))
    assert lhs.series.coeffs == rhs.series.coeffs


@given(witt_vec())
def test_mul_unit_is_neutral(a):
    assert witt_mul(a, WittVector.mul_unit(5)) == a
