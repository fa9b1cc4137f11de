"""Exponential classes: the group algebra, Fourier transform, Poisson."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetakit import kexp
from zetakit.cyclofield import build_field, character
from zetakit.cyclotomic import Cyclotomic
from zetakit.errors import (
    BaseMismatch,
    CoefficientMismatch,
    MissingBaseMap,
    NonzeroRealization,
    NotASubgroup,
)
from zetakit.kexp import (
    KExpClass,
    annihilator_check,
    delta_class,
    fourier_realized,
    fourier_symbolic,
    inversion_check,
    kexp_mul,
    phi,
    poisson_finite_check,
    realize,
    realize_relative,
)
from zetakit.polynomials import Poly
from zetakit.varieties import affine, affine_line, enumerate_points, gm, point_spec


def gen(spec):
    return KExpClass.generator(spec)


def sq():
    return gen(affine_line(Poly.parse("x0^2", 1)))


def test_class_group_algebra():
    a, b = gen(affine_line()), gen(gm())
    assert a - a == KExpClass.zero()
    assert a + b == b + a
    assert 2 * a == a + a
    assert (a - b) + b == a


def test_realize_is_additive(F3, F5):
    a = gen(affine_line(Poly.parse("x0^3", 1)))
    b = gen(gm(Poly.parse("x0", 1)))
    for F in (F3, F5):
        chi = character(F)
        assert realize(a + b, chi) == realize(a, chi) + realize(b, chi)
        assert realize(a - b, chi) == realize(a, chi) - realize(b, chi)


def test_gauss_sum_square_via_class_product(F3):
    value = realize(kexp_mul(sq(), sq()), character(F3))
    assert value == -3
    assert value == 1 * Cyclotomic.integer(3, -3)


def test_product_realizes_multiplicatively(F5):
    chi = character(F5)
    a = gen(affine_line(Poly.parse("x0^2", 1)))
    b = gen(gm(Poly.parse("x0", 1)))
    assert realize(kexp_mul(a, b), chi) == realize(a, chi) * realize(b, chi)


def test_annihilator_class():
    # [A^1, x]: the full character sum vanishes for every nontrivial twist
    cls = gen(affine_line(Poly.parse("x0", 1)))
    fields = [build_field(2, 1), build_field(3, 1), build_field(2, 2),
              build_field(5, 1), build_field(7, 1)]
    assert annihilator_check(cls, fields)["verdict"] == "pass"


def test_non_annihilator_is_caught(F3):
    with pytest.raises(NonzeroRealization):
        annihilator_check(gen(point_spec()), [F3])


def test_phi_kills_every_class(F5):
    # phi([X,f]) = [X x A^1, f + t] sums a full fiber of chi: always 0
    for cls in (gen(affine_line()), gen(gm(Poly.parse("x0", 1)))):
        value = realize(phi(cls.generators()[0][1]), character(F5))
        assert value.is_zero()


# -- relative classes and Fourier ---------------------------------------------


def rel_line(f="x0^2"):
    return gen(affine(1, f=f, base_map=["x0"]))


def test_realize_relative_counts_fibers(F3):
    psi = realize_relative(gen(affine(1, f="0", base_map=["x0"])),
                           character(F3))
    assert all(psi((s,)) == 1 for s in range(3))
    assert psi.total() == 3


def test_relative_needs_base_map(F3):
    with pytest.raises(MissingBaseMap):
        realize_relative(gen(affine_line()), character(F3))
    with pytest.raises(MissingBaseMap):
        fourier_symbolic(gen(affine_line()))


def test_base_dimension_mismatch():
    one = gen(affine(1, base_map=["x0"]))
    two = gen(affine(2, base_map=["x0", "x1"]))
    with pytest.raises(BaseMismatch):
        kexp_mul(one, two)
    with pytest.raises(BaseMismatch):
        (one + two).base_dim()


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (2, 2)])
def test_fibered_product_realizes_pointwise(p, k):
    # [A^1, x^2] - 2 delta_0 over x, times [x0*x1 = 1, x0 + x1] over x0^2
    F = build_field(p, k)
    chi = character(F)
    c1 = rel_line() - 2 * delta_class((0,))
    c2 = gen(affine(2, ["x0*x1 - 1"], f="x0 + x1", base_map=["x0^2"]))
    psi1, psi2 = realize_relative(c1, chi), realize_relative(c2, chi)
    product = realize_relative(kexp_mul(c1, c2), chi)
    assert product.table == {s: psi1(s) * psi2(s) for s in psi1.table}


def test_fourier_of_delta_is_a_character(F5):
    chi = character(F5)
    psi = realize_relative(fourier_symbolic(delta_class((2,))), chi)
    x2 = F5.from_index(2)
    for y in range(5):
        expected = Cyclotomic.zeta_power(5, chi.exponent(x2 * F5.from_index(y)))
        assert psi((y,)) == expected


def every_character():
    """Every nontrivial character of F_3 and of F_4, F_8, F_9, where field
    products of elements are not products of their indices mod p."""
    for p, k in [(3, 1), (2, 2), (2, 3), (3, 2)]:
        F = build_field(p, k)
        for t in range(1, F.q):
            yield character(F, F.from_index(t))


def test_fourier_realized_matches_symbolic():
    cls = rel_line()
    for chi in every_character():
        direct = fourier_realized(realize_relative(cls, chi))
        symbolic = realize_relative(fourier_symbolic(cls), chi)
        assert direct.table == symbolic.table


@pytest.mark.parametrize("q", [3, 5, 7])
def test_inversion_dimension_one(q):
    F = build_field(q, 1)
    report = inversion_check(rel_line(), character(F))
    assert report["verdict"] == "pass"
    assert report["scale"] == q


def test_inversion_dimension_two(F3):
    cls = gen(affine(2, f="x0*x1", base_map=["x0", "x1"]))
    report = inversion_check(cls, character(F3))
    assert report["verdict"] == "pass"
    assert report["scale"] == 9


def test_poisson_for_the_diagonal():
    cls = gen(affine(2, f="x0^2 + x1", base_map=["x0", "x1"]))
    for chi in every_character():
        psi = realize_relative(cls, chi)
        q = chi.field.q
        for eqs, size in (([], q * q), (["x0 - x1"], q), (["x0", "x1"], 1)):
            report = poisson_finite_check(psi, eqs)
            assert report == {"verdict": "pass", "H_size": size,
                              "Hperp_size": q * q // size}


def test_poisson_catches_a_wrong_transform(F3, monkeypatch):
    psi = realize_relative(gen(affine(2, f="x0^2 + x1", base_map=["x0", "x1"])),
                           character(F3))
    transform = kexp._transform_at

    def off_by_one(*args):
        values = transform(*args)
        y = next(iter(values))
        values[y] = values[y] + 1
        return values

    monkeypatch.setattr(kexp, "_transform_at", off_by_one)
    with pytest.raises(CoefficientMismatch):
        poisson_finite_check(psi, ["x0 - x1"])


def test_poisson_rejects_non_subgroup(F3):
    psi = realize_relative(rel_line(), character(F3))
    with pytest.raises(NotASubgroup):
        poisson_finite_check(psi, ["x0^2"])
    with pytest.raises(NotASubgroup):
        poisson_finite_check(psi, ["x0 - 1"])


# -- fiberwise realization against a scalar fiber walk ------------------------


def scalar_fibers(c, chi):
    """Psi by walking every point through the scalar oracle."""
    F, d = chi.field, c.base_dim()
    table = {s: Cyclotomic.integer(chi.p, 0)
             for s in itertools.product(range(F.q), repeat=d)}
    for coef, spec in c.generators():
        for x in enumerate_points(kexp._drop_base(spec), F):
            s = tuple(u.eval_ff(x).index() for u in spec.base_map)
            table[s] = table[s] + coef * chi(spec.f.eval_ff(x))
    return table


@st.composite
def relative_classes(draw):
    pk = draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]))
    nv, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 3)] * nv)

    def poly(max_terms):
        return Poly(nv, draw(st.dictionaries(exps, st.integers(-2, 2),
                                             max_size=max_terms)))

    def spec():
        eqs = [poly(2) for _ in range(draw(st.integers(0, 1)))]
        return affine(nv, eqs, f=poly(3), base_map=[poly(2) for _ in range(d)])

    c = KExpClass.zero()
    for _ in range(draw(st.integers(1, 2))):
        c = c + draw(st.integers(-2, 3).filter(bool)) * gen(spec())
    return c, pk, draw(st.integers(1, pk[0] ** pk[1] - 1))


@settings(max_examples=40)
@given(relative_classes())
def test_realize_relative_matches_scalar_fiber_walk(case):
    c, (p, k), t = case
    if c.is_zero():
        return  # two generators cancelled: nothing to realize
    F = build_field(p, k)
    chi = character(F, F.from_index(t))
    assert realize_relative(c, chi).table == scalar_fibers(c, chi)
