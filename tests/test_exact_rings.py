"""The exact-arithmetic layer's two ring-generic algorithms: `power` and
`row_reduce`/`solve`, checked in every ring that uses them."""

import itertools
import operator

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from zetakit import gfpoly
from zetakit.bulk import BulkField, _ConvKernel
from zetakit.cyclofield import build_field
from zetakit.cyclotomic import Cyclotomic, demote, is_zero, power, row_reduce, solve
from zetakit.polynomials import Poly

EXPONENTS = range(65)


def _bound(e):
    """At most 2 log2(e) products: floor(log2 e) squarings and as many
    multiplications."""
    return 2 * (e.bit_length() - 1) if e else 0


def _counted(mul, products):
    def counted(*args):
        products.append(1)
        return mul(*args)

    return counted


def _repeated(x, e, mul, one):
    out = one
    for _ in range(e):
        out = mul(out, x)
    return out


def test_power_of_ints_matches_repeated_products():
    for x in (0, 1, -1, 2, 3, -7):
        for e in EXPONENTS:
            products = []
            assert power(x, e, _counted(operator.mul, products), 1) == x**e
            assert len(products) <= _bound(e)


def test_power_of_cyclotomics_matches_repeated_products(monkeypatch):
    x = Cyclotomic(5, (1, -2, 0, 3))
    expected = [_repeated(x, e, operator.mul, Cyclotomic.integer(5, 1)) for e in EXPONENTS]
    products = []
    monkeypatch.setattr(Cyclotomic, "__mul__", _counted(Cyclotomic.__mul__, products))
    for e in EXPONENTS:
        products.clear()
        assert x**e == expected[e]
        assert len(products) <= _bound(e)
    assert x**-3 * x**3 == 1


def test_powmod_matches_repeated_products(monkeypatch):
    p, m = 3, gfpoly.smallest_irreducible(3, 4)
    a = (2, 1, 0, 1, 2, 1)  # unreduced mod m
    expected = [_repeated(a, e, lambda x, y: gfpoly.mulmod(x, y, m, p), (1,)) for e in EXPONENTS]
    products = []
    monkeypatch.setattr(gfpoly, "mulmod", _counted(gfpoly.mulmod, products))
    for e in EXPONENTS:
        products.clear()
        assert gfpoly.powmod(a, e, m, p) == gfpoly.mod(expected[e], m, p)
        assert len(products) <= _bound(e)


def test_monomial_poly_power_matches_repeated_products(monkeypatch):
    x = Poly.parse("-2*x0*x1^3", 2)
    expected = [_repeated(x, e, operator.mul, Poly.constant(2, 1)) for e in EXPONENTS]
    products = []
    monkeypatch.setattr(Poly, "__mul__", _counted(Poly.__mul__, products))
    for e in EXPONENTS:
        products.clear()
        assert x**e == expected[e]
        assert len(products) <= _bound(e)
    assert Poly.parse("0", 1) ** 0 == Poly.constant(1, 1)


def test_convolution_kernel_power_matches_repeated_products(monkeypatch):
    K = BulkField(build_field(3, 17, max_bits=64))._kernel
    assert isinstance(K, _ConvKernel)
    rows = K.digits_of(np.array([0, 1, 3, 12345, 3**17 - 1], dtype=np.int64))
    one = K.pow(rows, 0)
    assert K.index_of(one).tolist() == [1] * len(rows)  # 0^0 = 1 as well
    expected = [_repeated(rows, e, K.mul, one) for e in EXPONENTS]
    products = []
    monkeypatch.setattr(K, "mul", _counted(K.mul, products))
    for e in EXPONENTS:
        products.clear()
        assert np.array_equal(K.pow(rows, e), expected[e])
        assert len(products) <= _bound(e)


# ---------------------------------------------------------------------------
# row_reduce and solve over GF(p) and over Q(zeta_5)


def _gf(p):
    return (lambda v: v % p), (lambda v: pow(v, -1, p))


Q_ZETA5 = demote, (lambda v: v.inverse())


def _gf_entry(p):
    return st.integers(0, 3 * p)  # unreduced entries are reduced first


def _zeta5_entry():
    return st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(
        lambda c: Cyclotomic(5, c))


def _matrices(entry, n_max=4):
    return st.integers(1, n_max).flatmap(lambda n: st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


def _dot(row, x, norm):
    return norm(sum((a * b for a, b in zip(row, x)), 0))


def _leibniz(M, norm):
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = sign
        for i, j in enumerate(perm):
            term = term * M[i][j]
        total = total + term
    return norm(total)


def _check_row_reduce(M, norm, inv):
    n = len(M)
    rows = [row[:] for row in M]
    pivots, det = row_reduce(rows, n, norm, inv)
    assert is_zero(norm(det - _leibniz(M, norm)))
    assert (len(pivots) == n) == (not is_zero(det))
    # reduced row echelon form: the i-th pivot is 1 in row i, the only
    # nonzero of its column; the rows past the last pivot are zero
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert rows[i][c] == 1
        assert all(is_zero(rows[j][c]) for j in range(n) if j != i)
        assert all(is_zero(v) for v in rows[i][:c])
    assert all(is_zero(v) for row in rows[len(pivots):] for v in row)
    # the reduced rows span the original ones: each original row is the
    # combination of reduced rows given by its entries in the pivot columns
    for row in M:
        combo = [norm(sum((row[c] * rows[i][j] for i, c in enumerate(pivots)), 0))
                 for j in range(n)]
        assert all(is_zero(norm(a - b)) for a, b in zip(combo, row))
    return pivots


def _check_solve(M, x0, norm, inv):
    n = len(M)
    rhs = [_dot(row, x0, norm) for row in M]
    sol = solve([row[:] for row in M], rhs, n, norm, inv)
    assert sol is not None
    assert all(is_zero(norm(_dot(row, sol, norm) - b)) for row, b in zip(M, rhs))
    # a last row that repeats the sum of the first two, with a right-hand
    # side that does not, is inconsistent: (1, 1, 0, ..., -1) certifies it
    if n >= 2:
        extra = [norm(a + b) for a, b in zip(M[0], M[1])]
        bad = rhs + [norm(rhs[0] + rhs[1] + 1)]
        assert solve([row[:] for row in M] + [extra], bad, n, norm, inv) is None


@given(st.sampled_from([2, 3, 5, 7]).flatmap(
    lambda p: st.tuples(st.just(p), _matrices(_gf_entry(p)),
                        st.lists(st.integers(0, p - 1), min_size=4, max_size=4))))
def test_row_reduce_and_solve_over_gf_p(case):
    p, M, x0 = case
    norm, inv = _gf(p)
    _check_row_reduce(M, norm, inv)
    _check_solve(M, x0[:len(M)], norm, inv)


@given(_matrices(_zeta5_entry(), n_max=3),
       st.lists(_zeta5_entry(), min_size=3, max_size=3))
def test_row_reduce_and_solve_over_q_zeta5(M, x0):
    norm, inv = Q_ZETA5
    _check_row_reduce(M, norm, inv)
    _check_solve(M, x0[:len(M)], norm, inv)


def test_row_reduce_over_q_zeta5_finds_singular_and_swapped_pivots():
    z = Cyclotomic.zeta_power(5, 1)
    zero = Cyclotomic.integer(5, 0)
    norm, inv = Q_ZETA5
    # a zero leading entry forces a swap, which flips the determinant's sign
    M = [[zero, z], [1 + z, z * z]]
    assert _check_row_reduce(M, norm, inv) == [0, 1]
    assert row_reduce([row[:] for row in M], 2, norm, inv)[1] == -(z * (1 + z))
    # the second column is (1 + z) times the first: rank 1
    M = [[z, z * (1 + z)], [z * z, z * z * (1 + z)]]
    assert _check_row_reduce(M, norm, inv) == [0]
