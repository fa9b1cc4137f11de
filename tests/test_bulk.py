"""Differential tests of the bulk kernels against scalar FFElem arithmetic.

Fields up to 2^26 elements run on the discrete-log table kernel; GF(3^17)
runs on the digit-convolution kernel.  Each test draws random rows plus the
edge elements 0, 1 and -1.
"""

import sys
import tracemalloc
from concurrent import futures

import numpy as np
import pytest

from zetakit import bulk
from zetakit.bulk import BulkField
from zetakit.cyclofield import build_field, character, trace_to_prime_int
from zetakit.errors import BudgetExceeded
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
    # key_of: keys in [0, Q), one per element; the int32 rows themselves on
    # the table kernel, int64 indices on the convolution kernel
    keys = B.key_of(x)
    table = isinstance(B._kernel, bulk._TableKernel)
    assert keys.dtype == (np.int32 if table else np.int64)
    assert 0 <= keys.min() and keys.max() < F.q
    pairs = set(zip(keys.tolist(), I.tolist()))
    assert len(pairs) == len(set(keys.tolist())) == len(set(I.tolist()))
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
    w = B.trace_form(twist)
    assert B.linear_form(xs, w).tolist() == [trace_to_prime_int(twist * a) for a in Xs]
    assert B.linear_form(B.mul(xs, ys), w).tolist() == [
        trace_to_prime_int(twist * a * b) for a, b in zip(Xs, Ys)]
    assert B.eq(x, y).tolist() == [a == b for a, b in zip(X, Y)]
    assert B.eq(x, x).all() and B.eq(B.add(x, B.neg(x)), B.const(0, count)).all()
    _check_grid(B, x[:slow_count], y[:slow_count], Xs, Ys, w, twist)


def _check_grid(B, x, y, X, Y, w, twist, R=7, T=11):
    """(R, 1) columns against (1, T) rows: every binary operation yields
    the (R, T) grid of the scalar results, and unary ones keep the shape."""
    F = B.spec
    col, row = x[:R][:, None], y[:T][None]
    assert col.shape[:2] == (R, 1) and row.shape[:2] == (1, T)

    def same(rows, grid):
        assert rows.shape[:2] == (len(grid), len(grid[0]))
        assert B.index_of(rows).tolist() == [[e.index() for e in r] for r in grid]

    def grid(op):
        return [[op(a, b) for b in Y[:T]] for a in X[:R]]

    same(B.add(col, row), grid(lambda a, b: a + b))
    same(B.mul(col, row), grid(lambda a, b: a * b))
    same(B.add(B.mul(col, row), B.const(1, (1, 1))), grid(lambda a, b: a * b + 1))
    assert B.eq(col, row).tolist() == grid(lambda a, b: a == b)
    assert B.eq(B.add(col, row), B.neg(col)).tolist() == grid(lambda a, b: a + b == -a)
    assert B.is_zero(B.add(col, row)).tolist() == grid(lambda a, b: (a + b).is_zero())
    assert B.linear_form(B.mul(col, row), w).tolist() == grid(
        lambda a, b: trace_to_prime_int(twist * a * b))
    for e in (0, 2, F.q):
        same(B.pow(col, e), [[a**e if e else F.one()] for a in X[:R]])
    same(B.scale(2, B.neg(row)), [[-2 * b for b in Y[:T]]])


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_table_kernel_matches_scalar_arithmetic(p, k):
    F = build_field(p, k)
    assert isinstance(BulkField(F)._kernel, bulk._TableKernel)
    _check_against_scalar(F, 300, 300)


@pytest.mark.parametrize("p,k", [(2, 16), (3, 10)])
def test_table_kernel_powers_past_int32(p, k):
    # M * (e mod M) >= 2^31 for M = Q - 1: pow multiplies in int64 there
    F = build_field(p, k)
    B = BulkField(F)
    assert isinstance(B._kernel, bulk._TableKernel)
    M = F.q - 1
    exponents = [M - 1, 3 * M - 2, (M << 33) + M - 5]
    assert all(M * (e % M) >= 1 << 31 for e in exponents)
    idx = _rows(F, 200, F.q)
    x, X = B.digits_of(idx), [F.from_index(int(i)) for i in idx]
    for e in exponents:
        got = B.pow(x, e)
        assert got.dtype == np.int32
        assert B.index_of(got).tolist() == [(a**e).index() for a in X]
        assert B.index_of(B.pow(x[:6][:, None], e))[:, 0].tolist() == [
            (a**e).index() for a in X[:6]]


def test_convolution_kernel_matches_scalar_arithmetic():
    F = build_field(3, 17, max_bits=64)  # 3^17 > 2^26
    assert isinstance(BulkField(F)._kernel, bulk._ConvKernel)
    _check_against_scalar(F, 2000, 100)


def test_trace_weights_over_a_prime_field_past_the_default_bits():
    # GF(2^26 - 5) and its square are admitted with max_bits=64; their
    # traces must not rebuild the prime field under the default bound
    p = (1 << 26) - 5
    F = build_field(p, 1, max_bits=64)
    assert BulkField(F).trace_weights(F.from_index(12345)) == [12345]
    F2 = build_field(p, 2, max_bits=64)
    assert trace_to_prime_int(F2.one()) == 2
    assert trace_to_prime_int(F2.from_index(p)) == (-F2.modulus[1]) % p  # Tr(x)
    _check_against_scalar(F, 300, 50)


@pytest.mark.parametrize("p,k", [(16777213, 2), (4294967311, 1)])
def test_convolution_kernel_is_exact_past_int64(p, k):
    # a product's worst case n (p-1)^2 (1 + (n-1)(p-1)) passes 2^63 before
    # its reduction, which wrapped around in int64
    F = build_field(p, k, max_bits=64)
    _check_against_scalar(F, 300, 50)
    if k == 1:  # sqrt over GF(p^2) first scans all p prime-field elements
        _check_sqrt(BulkField(F), _rows(F, 2000, p))


def test_kernel_is_chosen_at_the_table_limit_without_building_tables():
    bulk._cache.clear()
    below, above = build_field(3, 16, max_bits=64), build_field(3, 17, max_bits=64)
    assert below.q <= bulk._TABLE_LIMIT < above.q
    kernel = BulkField(below)._kernel
    assert isinstance(kernel, bulk._TableKernel) and kernel._tables is None
    assert isinstance(BulkField(above)._kernel, bulk._ConvKernel)
    # a prime below the limit whose square passes 2^51, the bound of the
    # table build's exact float64 reduction
    prime = build_field((1 << 26) - 5, 1, max_bits=64)
    assert isinstance(BulkField(prime)._kernel, bulk._ConvKernel)
    assert not bulk._cache


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_antilog_is_a_permutation_of_the_nonzero_indices(p, k):
    F = build_field(p, k)
    t = bulk._log_tables(F)
    Q = F.q
    assert np.array_equal(np.sort(t.antilog[:Q - 1]), np.arange(1, Q))
    assert t.antilog[Q - 1] == 0 and t.log[0] == Q - 1
    assert np.array_equal(t.log[t.antilog], np.arange(Q))


@pytest.mark.parametrize("p,k", [f for f in TABLE_FIELDS if f[0] in (2, 3, 131)])
def test_twisted_trace_tables_match_scalar_traces(p, k):
    # each twisted table is the trace table of 1 rotated by the twist's log
    F = build_field(p, k)
    B = BulkField(F)
    Q = F.q
    t = bulk._log_tables(F)
    rng = np.random.default_rng(Q)
    twists = [F.zero(), F.one(), F.element(-1), F.from_index(int(t.antilog[Q - 2])),
              *(F.from_index(int(i)) for i in rng.integers(1, Q, 2))]
    every = np.arange(Q, dtype=np.int64)
    elems = [F.from_index(i) for i in range(Q)]
    traces = [trace_to_prime_int(a) for a in elems]  # by element index
    for twist in twists:
        got = B.linear_form(B.digits_of(every), B.trace_form(twist))
        assert got.tolist() == [traces[(twist * a).index()] for a in elems]


def _peak_above(build):
    """(result, peak bytes traced while building it above what was held
    before)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_table_build_allocates_only_the_tables_it_keeps():
    F = build_field(2, 20)
    tables, peak = _peak_above(lambda: bulk._LogTables(F))
    assert peak - tables.nbytes <= 2 << 20
    # a twisted trace table is a rotated copy, with no temporary of size Q
    B = BulkField(F)
    B._kernel._tables = tables  # the tables measured above, not a second build
    table, peak = _peak_above(lambda: B.trace_form(F.from_index(12345)))
    assert table.nbytes == F.q and peak <= table.nbytes + (64 << 10)


@pytest.mark.parametrize("p,k", [(2, 6), (3, 5), (5, 3), (7, 1), (131, 2), (3, 16)])
def test_trace_gram_equals_its_definition(p, k):
    F = build_field(p, k, max_bits=64)
    B = BulkField(F)
    basis = [F.from_index(p**j) for j in range(k)]
    for twist in (F.one(), F.from_index(F.q - 2)):
        want = [[trace_to_prime_int(twist * bs * bt) for bt in basis] for bs in basis]
        assert B.trace_gram(B.trace_weights(twist)) == want


@pytest.mark.parametrize("p,k", [(2, 1), (2, 5), (3, 1), (3, 7), (3, 14), (5, 4),
                                 (7, 3), (131, 2), (3, 16)])
def test_trace_weights_equal_the_scalar_traces(p, k):
    F = build_field(p, k, max_bits=64)
    B = BulkField(F)
    for twist in (F.zero(), F.one(), F.from_index(F.q - 2), F.from_index(p + 1)):
        want = [trace_to_prime_int(twist * F.from_index(p**j)) for j in range(k)]
        assert B.trace_weights(twist) == want


def _check_sqrt(B, idx):
    """sqrt of squares, and is_square against Euler's criterion, on rows
    with the given element indices (0 among them); returns the number of
    non-squares."""
    F = B.spec
    a = B.digits_of(idx)
    square, root = B.sqrt(a)
    assert np.array_equal(square, B.eq(B.mul(root, root), a))
    euler = [F.p == 2 or x.is_zero() or x ** ((F.q - 1) // 2) == F.one()
             for x in map(F.from_index, idx[:200].tolist())]
    assert square[:200].tolist() == euler
    a2 = B.mul(a, a)
    square2, root2 = B.sqrt(a2)
    assert square2.all() and B.eq(B.mul(root2, root2), a2).all()
    zero = np.flatnonzero(idx == 0)
    assert square[zero].all() and B.is_zero(root[zero]).all()
    return int((~square).sum())


def _conv(F):
    """A BulkField on the convolution kernel, also below the table limit."""
    B = BulkField(F)
    B._kernel = bulk._ConvKernel(B)
    return B


@pytest.mark.parametrize("p,k", TABLE_FIELDS + [(17, 1), (257, 1)])
def test_sqrt_on_a_full_walk_of_each_kernel(p, k):
    # 17 - 1 = 2^4 and 257 - 1 = 2^8 take every Tonelli-Shanks round
    F = build_field(p, k)
    for B in (BulkField(F), _conv(F)):
        nonsquares = _check_sqrt(B, np.arange(F.q, dtype=np.int64))
        assert nonsquares == (0 if p == 2 else (F.q - 1) // 2)


@pytest.mark.parametrize("p,k", [(2, 4), (3, 2), (131, 1)])
def test_add_with_a_broadcast_constant_on_each_kernel(p, k):
    # a (1, 1) constant, zero or not, on the left and on the right of a
    # (1, T) row, an (R, 1) column and an (R, T) grid that hold zero
    F = build_field(p, k)
    R, T = 5, 7
    idx = _rows(F, R * T, p)
    elems = [F.from_index(int(i)) for i in idx]
    for B in (BulkField(F), _conv(F)):
        flat = B.digits_of(idx)
        for shape in ((1, R * T), (R * T, 1), (R, T)):
            a = flat.reshape(shape + flat.shape[1:])
            for c in (0, 1, -1):
                const = B.const(c, (1, 1))
                want = [(x + c).index() for x in elems]
                for got in (B.add(const, a), B.add(a, const)):
                    assert got.shape[:2] == shape
                    assert B.index_of(got).ravel().tolist() == want
                both = B.add(B.const(0, (1, 1)), const)
                assert both.shape[:2] == (1, 1)
                assert B.index_of(both).item() == F.element(c).index()


def test_constant_rows_are_made_once_and_hold_their_constants_on_many_threads():
    # eight threads that switch often ask one field for five constants'
    # (1, 1) rows: each holds its constant, read-only, and once made a
    # constant's row is the one every later call gets
    F = build_field(3, 3)
    values = [0, 1, -1, F.from_index(5), F.from_index(26)]
    want = [F.element(v).index() if isinstance(v, int) else v.index() for v in values]
    for B in (BulkField(F), _conv(F)):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with futures.ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda i: B.const(values[i % 5], (1, 1)), range(400),
                                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for i, rows in enumerate(got):
            assert rows.shape[:2] == (1, 1) and not rows.flags.writeable
            assert B.index_of(rows).item() == want[i % 5]
        assert all(B.const(v, (1, 1)) is B.const(v, (1, 1)) for v in values)


def test_log_tables_are_built_once_per_field_on_many_threads():
    # eight threads that switch often ask for six fields' tables, none of
    # them cached, beside twelve cached ones: each field's tables are
    # built once, and no thread sees the cache change under it
    bulk._cache.clear()
    for p, k in ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2),
                 (13, 1), (17, 1), (19, 1)):
        bulk._log_tables(build_field(p, k))
    fields = [build_field(p, k) for p, k in ((2, 2), (3, 2), (3, 1), (5, 1), (7, 1), (11, 1))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with futures.ThreadPoolExecutor(8) as pool:
            got = list(pool.map(lambda i: bulk._log_tables(fields[i % 6]), range(600),
                                timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(t is got[i % 6] for i, t in enumerate(got))
    assert all(got[i] is bulk._log_tables(F) for i, F in enumerate(fields))


@pytest.mark.parametrize("p,k", [(3, 17), (5, 12), (3, 18), (2, 27)])
def test_sqrt_on_the_convolution_kernel(p, k):
    # v_2(Q - 1) is 1, 4 and 3 for the odd fields
    F = build_field(p, k, max_bits=64)
    B = BulkField(F)
    assert isinstance(B._kernel, bulk._ConvKernel)
    _check_sqrt(B, _rows(F, 2000, p))


def test_tables_are_built_only_by_walks():
    bulk._cache.clear()
    F = build_field(3, 1)
    # a quadratic f on a full block and a univariate count enumerate nothing
    exponent_histogram(affine(2, f="x0*x1"), character(F), 8)
    count_points_ff(affine(1, ["x0^2 + 1"]), F, 8)
    assert not bulk._cache
    # walks refused by their budget, on the engine and on a square-root
    # fiber, build no tables, not even for their trace forms
    for X in (affine(2, ["x0^3 + x1^3 + x0*x1 - 1"], f="x0*x1"),
              affine(3, ["x0^2 + x1^2 + x2^2 - 1"], f="x0*x1*x2")):
        with pytest.raises(BudgetExceeded):
            exponent_histogram(X, character(F), 8, budget=10**5)
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


@pytest.mark.parametrize("p", [2, 3, 7, 131, 65521])
def test_float32_reduction_is_exact_below_its_bound(p):
    ints = np.arange(bulk._FLOAT32_EXACT, dtype=np.int64)  # every value
    x = ints.astype(np.float32)
    got = bulk._mod_p(x, p, bulk._FLOAT32_EXACT - 1, np.empty_like(x))
    assert np.array_equal(got.astype(np.int64), ints % p)
    with pytest.raises(AssertionError):
        bulk._mod_p(x, p, bulk._FLOAT32_EXACT, np.empty_like(x))
