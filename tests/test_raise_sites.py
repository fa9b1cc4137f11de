"""Typed-error raise sites that the other tests do not reach: each input
below raises the named error, not a generic one and not a wrong number."""

import pytest

from zetakit import gfpoly
from zetakit.cyclofield import build_field, character
from zetakit.errors import (
    InsufficientSamples,
    MissingBaseMap,
    NoCandidate,
    NotASubvariety,
    NotPrime,
    ParseError,
    PoorFit,
    PrefixTooShort,
    TallyTooShallow,
    ZeroInput,
)
from zetakit.heights import (
    HeightCountTable,
    abscissa_estimate,
    accumulation_test,
    asymptotic_fit,
    merge_product_counts,
    verify_product_formula,
)
from zetakit.kexp import KExpClass, inversion_check
from zetakit.polynomials import Poly
from zetakit.series import SeriesTrunc
from zetakit.varieties import affine, closed_point_tally, projective_space, sym_divisors
from zetakit.zetas import rational_reconstruct


@pytest.mark.parametrize("text,position", [
    ("x0 )", 3),  # trailing input
    ("x0^", 3),  # no exponent
    ("(x0", 3),  # unclosed parenthesis
    ("x + 1", 1),  # no variable index
])
def test_malformed_spec_names_its_position(text, position):
    with pytest.raises(ParseError, match=rf"at position {position}\)") as info:
        Poly.parse(text, 1)
    assert info.value.position == position


def test_product_formula_of_zero():
    with pytest.raises(ZeroInput):
        verify_product_formula(0)


def test_merge_of_an_empty_prefix():
    with pytest.raises(PrefixTooShort, match="empty"):
        merge_product_counts([], [1], 5)


def test_abscissa_from_less_than_a_decade():
    tbl = HeightCountTable("V", 1, (10, 11, 12, 13, 14), (1, 2, 3, 4, 5))
    with pytest.raises(InsufficientSamples, match="decade"):
        abscissa_estimate(tbl)


def test_asymptotic_fit_of_counts_no_power_law_fits():
    tbl = HeightCountTable("V", 1, tuple(10**j for j in range(6)),
                           (1, 1, 1, 10**3, 10**3, 10**9))
    with pytest.raises(PoorFit):
        asymptotic_fit(tbl)


def test_accumulation_across_ambient_dimensions():
    with pytest.raises(NotASubvariety, match="dimension"):
        accumulation_test(projective_space(1), projective_space(2), 1, [4, 8])


def test_inversion_of_an_absolute_class():
    c = KExpClass.generator(affine(1, f="x0"))
    with pytest.raises(MissingBaseMap):
        inversion_check(c, character(build_field(3, 1)))


def test_sym_divisors_past_the_tally_depth():
    X, chi = affine(1), character(build_field(3, 1))
    tally = closed_point_tally(X, chi, 2)
    with pytest.raises(TallyTooShallow):
        sym_divisors(X, chi, 3, tally)


def test_reconstruction_of_a_series_not_starting_at_one():
    with pytest.raises(NoCandidate, match="start"):
        rational_reconstruct(SeriesTrunc(6, [2, 1, 1]), 2)


def test_polynomial_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gfpoly.divmod_((1, 1), (), 3)


def test_a_prime_past_64_bits_is_refused():
    p = 2**64 + 13
    assert gfpoly.is_prime(p)
    with pytest.raises(NotPrime, match="64 bits"):
        build_field(p, 1)
