"""Sparse integer polynomials: parsing, evaluation, substitution."""

import math

import pytest

from zetakit.errors import BudgetExceeded, ParseError
from zetakit.polynomials import Poly
from zetakit.varieties import affine, count_points_ff


def test_parse_roundtrip_through_to_string():
    for text in ["x0^2 + x1^2 - 1", "x0*x1 - 2", "3", "-x0 + x1^3"]:
        f = Poly.parse(text, 2)
        assert Poly.parse(f.to_string(), 2) == f


def test_parse_respects_precedence():
    assert Poly.parse("x0 + x1*x0^2", 2) == \
        Poly.variable(2, 0) + Poly.variable(2, 1) * Poly.variable(2, 0) ** 2


def test_parse_error_carries_position():
    with pytest.raises(ParseError):
        Poly.parse("x0 + + x1", 2)
    with pytest.raises(ParseError):
        Poly.parse("x5", 2)  # out-of-range variable


def test_eval_int():
    f = Poly.parse("x0^2*x1 - 3*x1 + 7", 2)
    assert f.eval_int((2, 5)) == 4 * 5 - 15 + 7


def test_eval_ff_matches_mod_p(F5):
    f = Poly.parse("x0^3 + 2*x0 - 1", 1)
    for i in range(5):
        x = F5.from_index(i)
        assert f.eval_ff((x,)).index() == f.eval_int((i,)) % 5


def test_substitute_partial():
    f = Poly.parse("x0*x1 + x1^2", 2)
    g = f.substitute({0: 3})
    assert g == Poly.parse("3*x1 + x1^2", 2)


def test_rename_shifts_variables():
    f = Poly.parse("x0 + x1^2", 2)
    g = f.rename({0: 1, 1: 2}, 3)
    assert g == Poly.parse("x1 + x2^2", 3)


def test_degree_and_homogeneity():
    assert Poly.parse("x0^2 + x0*x1", 2).is_homogeneous()
    assert not Poly.parse("x0^2 + x1", 2).is_homogeneous()
    assert Poly.parse("x0^2*x1 + x1", 2).total_degree() == 3


def test_linear_form_predicate():
    assert Poly.parse("x0 - 2*x1", 2).is_linear_form()
    assert not Poly.parse("x0 + 1", 2).is_linear_form()
    assert not Poly.parse("x0*x1", 2).is_linear_form()


def test_canonical_key_is_stable_under_reordering():
    a = Poly.parse("x0 + x1", 2)
    b = Poly.parse("x1 + x0", 2)
    assert a.canonical_key() == b.canonical_key()


def test_ring_operations():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert (x + y) * (x - y) == x ** 2 - y ** 2
    assert (x + 1) ** 3 == x ** 3 + 3 * x ** 2 + 3 * x + 1


def test_power_squares_and_multiplies(monkeypatch):
    # x0^n with n = 10^9 + 7 once took n products, and hung the parser
    n = 10**9 + 7
    products = []
    mul = Poly.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    f = Poly.parse(f"x0^{n}", 2)
    assert f.terms == {(n, 0): 1}
    assert 0 < len(products) <= 2 * math.log2(n)


@pytest.mark.parametrize("n", range(8))
def test_power_matches_repeated_products(n):
    f = Poly.parse("2*x0 - x1 + 3", 2)
    expected = Poly.constant(2, 1)
    for _ in range(n):
        expected = expected * f
    assert f ** n == expected


def test_a_dense_power_multiplies_n_times_after_its_charge(monkeypatch):
    # squaring a dense power costs more than the products it saves, so
    # f^n of t terms takes n - 1 products, charged t * C(n + t - 1, t)
    # term products before the first
    f, n, t = Poly.parse("2*x0 - x1 + 3", 2), 6, 3
    charge = t * math.comb(n + t - 1, t)
    expected = Poly.constant(2, 1)
    for _ in range(n):
        expected = expected * f
    products = []
    mul = Poly.__mul__

    def counted(self, other):
        products.append(len(self.terms) * len(other.terms))
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    monkeypatch.setenv("ZETAKIT_BUDGET", str(charge - 1))
    with pytest.raises(BudgetExceeded):
        f ** n
    assert products == []
    monkeypatch.setenv("ZETAKIT_BUDGET", str(charge))
    assert f ** n == expected
    assert len(products) == n - 1 and sum(products) <= charge


def test_a_dense_power_past_the_budget_is_refused_before_it_expands():
    # 2 * C(10^7 + 1, 2) ~ 10^14 term products; the monomial stays cheap
    with pytest.raises(BudgetExceeded):
        Poly.parse("(x0 + 1)^10000000", 1)
    assert Poly.parse("(2*x0)^10000000", 1).terms == {(10**7,): 2**10**7}


def test_a_huge_exponent_counts_over_a_finite_field(F9):
    # parsed in a few dozen products, then reduced mod Q - 1 by the field:
    # x1 = 1 - x0^n has one solution for each x0 in F_729
    X = affine(2, ["x0^1000000007 + x1 - 1"])
    assert count_points_ff(X, F9, 3) == 729
