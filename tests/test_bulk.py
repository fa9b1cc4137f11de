"""Differential tests of the bulk kernels against scalar FFElem arithmetic.

Fields up to 2^24 elements run on the discrete-log table kernel; GF(3^16)
runs on the digit-convolution kernel.  Each test draws random rows plus the
edge elements 0, 1 and -1.
"""

import numpy as np
import pytest

from zetakit import bulk
from zetakit.bulk import BulkField
from zetakit.cyclofield import build_field, character, trace_to_prime_int
from zetakit.varieties import affine, count_points_ff, exponent_histogram

TABLE_FIELDS = [(2, 1), (2, 4), (2, 9), (3, 1), (3, 5), (5, 1), (5, 3), (7, 2),
                (131, 1), (131, 2)]


def _rows(F, count, seed):
    """Random element indices led by 0, 1 and -1."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, F.q, count)
    idx[:3] = [0, 1, F.element(-1).index()]
    return idx


def _check_against_scalar(F, count, slow_count, seed=0):
    """Arithmetic on `count` rows; powers and traces on the first slow_count."""
    B = BulkField(F)
    I, J = _rows(F, count, seed), _rows(F, count, seed + 1)[::-1].copy()
    x, y = B.digits_of(I), B.digits_of(J)
    X = [F.from_index(int(i)) for i in I]
    Y = [F.from_index(int(j)) for j in J]

    def same(rows, elems):
        assert B.index_of(rows).tolist() == [e.index() for e in elems]

    same(x, X)
    same(B.add(x, y), [a + b for a, b in zip(X, Y)])
    same(B.add(x, B.neg(x)), [F.zero()] * count)  # Zech-undefined sum a + (-a)
    same(B.neg(x), [-a for a in X])
    same(B.mul(x, y), [a * b for a, b in zip(X, Y)])
    for c in (0, 1, 2, -1, F.p + 3):
        same(B.scale(c, x), [a * c for a in X])
    one = B.const(1, count)
    same(B.mul(x, one), X)
    same(B.add(x, B.const(0, count)), X)
    assert B.is_zero(x).tolist() == [a.is_zero() for a in X]
    assert B.nonzero(x).tolist() == [not a.is_zero() for a in X]
    Q = F.q
    xs, ys, Xs, Ys = x[:slow_count], y[:slow_count], X[:slow_count], Y[:slow_count]
    for e in (0, 1, 2, 3, Q - 1, 2 * (Q - 1), Q, 2**31 + 5):
        same(B.pow(xs, e), [a**e if e else F.one() for a in Xs])
    twist = F.from_index(min(2, Q - 1))
    w = B.trace_weights(twist)
    assert B.linear_form(xs, w).tolist() == [trace_to_prime_int(twist * a) for a in Xs]
    assert B.pair_trace(xs, ys, w).tolist() == [
        trace_to_prime_int(twist * a * b) for a, b in zip(Xs, Ys)]


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_table_kernel_matches_scalar_arithmetic(p, k):
    F = build_field(p, k)
    assert isinstance(BulkField(F)._kernel, bulk._TableKernel)
    _check_against_scalar(F, 300, 300)


def test_convolution_kernel_matches_scalar_arithmetic():
    F = build_field(3, 16, max_bits=64)  # 3^16 > 2^24
    assert isinstance(BulkField(F)._kernel, bulk._ConvKernel)
    _check_against_scalar(F, 2000, 100)


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_antilog_is_a_permutation_of_the_nonzero_indices(p, k):
    F = build_field(p, k)
    t = bulk._log_tables(F)
    Q = F.q
    assert np.array_equal(np.sort(t.antilog[:Q - 1]), np.arange(1, Q))
    assert t.antilog[Q - 1] == 0 and t.log[0] == Q - 1
    assert np.array_equal(t.log[t.antilog], np.arange(Q))


@pytest.mark.parametrize("p,k", [(2, 6), (3, 5), (5, 3), (7, 1), (131, 2), (3, 16)])
def test_trace_gram_equals_its_definition(p, k):
    F = build_field(p, k, max_bits=64)
    B = BulkField(F)
    basis = [F.from_index(p**j) for j in range(k)]
    for twist in (F.one(), F.from_index(F.q - 2)):
        want = [[trace_to_prime_int(twist * bs * bt) for bt in basis] for bs in basis]
        assert B.trace_gram(B.trace_weights(twist)) == want


def test_tables_are_built_only_by_walks():
    bulk._cache.clear()
    F = build_field(3, 1)
    # a quadratic f on a full block and a univariate count enumerate nothing
    exponent_histogram(affine(2, f="x0*x1"), character(F), 8)
    count_points_ff(affine(1, ["x0^2 + 1"]), F, 8)
    assert not bulk._cache
    count_points_ff(affine(2, ["x0^2 + x1^2 - 1"]), F, 4)
    assert list(bulk._cache) == [build_field(3, 4)]


@pytest.mark.parametrize("p", [2, 3, 7, 131, 65521, (1 << 24) - 3])
def test_float_reduction_is_exact_up_to_its_bound(p):
    rng = np.random.default_rng(p)
    top = bulk._FLOAT_EXACT - 1
    multiples = rng.integers(0, top // p, 5000, dtype=np.int64) * p
    ints = np.concatenate([rng.integers(0, top, 20000, dtype=np.int64),
                           multiples, multiples + 1, multiples + p - 1,
                           np.arange(top - 1000, top + 1, dtype=np.int64),
                           np.arange(0, 1000, dtype=np.int64)])
    x = ints.astype(np.float64)
    got = bulk._mod_p(x, p, top, np.empty_like(x))
    assert np.array_equal(got.astype(np.int64), ints % p)
    with pytest.raises(AssertionError):
        bulk._mod_p(x, p, bulk._FLOAT_EXACT, np.empty_like(x))
