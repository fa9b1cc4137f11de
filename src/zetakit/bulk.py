"""Vectorized arithmetic over GF(p^n) for bulk point enumeration.

A BulkField holds field elements as row arrays in one of two
representations, chosen once from the field size Q = p^n:

* Q <= 2^24, the table kernel.  A row is the discrete logarithm of the
  element to the primitive root g of smallest index (int32; zero is the
  sentinel Q - 1).  Multiplication, negation, scaling and powers are
  index arithmetic mod Q - 1; addition goes through Zech's logarithm
  zech[k] = log(1 + g^k) (Huber, "Some comments on Zech's logarithms",
  IEEE Trans. IT 1990); a trace is one gather from a Q-entry table.  The
  antilog, log and Zech tables take 12 bytes per field element, and each
  trace table 1 byte per element for p < 256.  They are built on first
  use, one small matmul mod p per fixed-size block of powers of g, and
  kept per field in a cache bounded in bytes.
* Q > 2^24, the convolution kernel.  A row is the digit vector over
  GF(p) in the basis 1, x, ..., x^(n-1), the scalar layer's basis.
  Multiplication is a convolution followed by a linear reduction whose
  rows are the digits of x^j mod the modulus.  Memory stays at
  O(chunk * n), so these fields are limited only by the enumeration
  budget, not by table construction.

Callers never branch on the representation: rows come from element
indices (digits_of) and go back to them (index_of); everything else is
arithmetic, predicates and traces on rows.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import gfpoly
from .cyclofield import FieldSpec, trace_to_prime_int

# fields up to this size use the table kernel
_TABLE_LIMIT = 1 << 24
# least-recently-used table sets are dropped past this many bytes
_CACHE_BYTES = 1 << 28
# rows per block when building the antilog table
_BUILD_ROWS = 1 << 12
# trace tables kept per field
_TRACE_TABLES = 4
# _mod_p is exact on float64 integers below this
_FLOAT_EXACT = 1 << 51


def _mod_p(x, p, bound, out):
    """x mod p for float64 x holding integers in [0, bound], as
    x - p * floor((x + 0.5) / p), written to out.

    The computed quotient is off by at most (x + 0.5) / p * 2^-52, which
    stays below its distance 0.5 / p to the nearest integer while
    bound < 2^51; np.mod on float64 is about ten times slower.
    """
    assert bound < _FLOAT_EXACT, f"{bound} too large for an exact float64 reduction"
    quot = np.add(x, 0.5)
    quot *= 1 / p
    np.floor(quot, out=quot)
    quot *= p
    return np.subtract(x, quot, out=out)


class BulkField:
    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.n = spec.k
        self.Q = spec.q
        # reduction rows: digits of x^j mod modulus for j in [n, 2n-1)
        rows = []
        xj = gfpoly.mod((0,) * self.n + (1,), spec.modulus, self.p)  # x^n mod m
        for _ in range(self.n - 1):
            rows.append(list(xj) + [0] * (self.n - len(xj)))
            xj = gfpoly.mod(tuple([0] + list(xj)), spec.modulus, self.p)
        self.red = np.array(rows, dtype=np.int64).reshape(max(self.n - 1, 0), self.n)
        kernel = _TableKernel if self.Q <= _TABLE_LIMIT else _ConvKernel
        self._kernel = kernel(self)

    # -- element construction ---------------------------------------------

    def digits_of(self, idx):
        """Rows of the elements with the given int64 indices."""
        return self._kernel.digits_of(idx)

    def index_of(self, a):
        """Element indices (int64) of rows: the inverse of digits_of."""
        return self._kernel.index_of(a)

    def const(self, value, rows=1):
        """A scalar, an int (prime subfield) or an FFElem, repeated over
        `rows` rows (a read-only broadcast)."""
        idx = value % self.p if isinstance(value, int) else value.index()
        one = self._kernel.digits_of(np.array([idx], dtype=np.int64))
        return np.broadcast_to(one, (rows,) + one.shape[1:])

    # -- arithmetic --------------------------------------------------------
    # Row arrays broadcast: either operand may be a single row.

    def add(self, a, b):
        return self._kernel.add(a, b)

    def neg(self, a):
        return self._kernel.neg(a)

    def scale(self, c, a):
        """Multiply by a prime-subfield constant c (int)."""
        return self._kernel.scale(c, a)

    def mul(self, a, b):
        return self._kernel.mul(a, b)

    def pow(self, a, e):
        """a^e for an int e >= 0, with 0^0 = 1."""
        return self._kernel.pow(a, e)

    # -- predicates and reductions ----------------------------------------

    def is_zero(self, a):
        return self._kernel.is_zero(a)

    def nonzero(self, a):
        return ~self._kernel.is_zero(a)

    def linear_form(self, a, w):
        """digits(a) . w mod p per row, for an int vector w of length n;
        with w = trace_weights(c) this is Tr(c * a)."""
        return self._kernel.linear_form(a, w)

    def pair_trace(self, x, y, w):
        """linear_form(x * y, w) over row pairs (x[i], y[i])."""
        return self._kernel.pair_trace(x, y, w)

    def trace_weights(self, twist):
        """Weights w with Tr_{F_Q/F_p}(twist * x) = digits(x) . w mod p.

        twist is an FFElem of this field; computed scalarly per basis vector.
        """
        return [trace_to_prime_int(twist * self.spec.from_index(self.p**j))
                for j in range(self.n)]

    def trace_gram(self, w):
        """M[s][t] = Tr(twist * x^s * x^t) for w = trace_weights(twist).

        Entries depend only on s + t.  The n - 1 traces past x^(n-1) follow
        from w, since x^(n+j) = sum_t red[j][t] x^t.
        """
        p, n = self.p, self.n
        h = [int(v) % p for v in w]
        h += [sum(int(r) * v for r, v in zip(row, h)) % p for row in self.red]
        return [[h[s + t] for t in range(n)] for s in range(n)]


# ---------------------------------------------------------------------------
# Q > 2^24: digit rows


class _ConvKernel:
    def __init__(self, F: BulkField):
        p, n = F.p, F.n
        self.p, self.n = p, n
        self.gram = F.trace_gram
        # narrowest dtype that can hold the worst-case pre-reduction value
        self.bound = bound = n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))
        if bound < (1 << 15) - 1:
            self.dtype = np.int16
        elif bound < (1 << 31) - 1:
            self.dtype = np.int32
        else:
            self.dtype = np.int64
        self.red = F.red.astype(self.dtype)
        # from n = 8 on, the reduction runs as a float64 matmul (integer
        # matmul has no BLAS path), exact while the values stay below 2^51
        self.float_reduce = n >= 8 and bound < _FLOAT_EXACT
        self.red_f = self.red.astype(np.float64)
        self.place_values = np.power(np.int64(p), np.arange(n, dtype=np.int64))
        # digits_of peels `span` digits per divmod, through a table of the
        # digits of 0 .. p^span - 1 (no table when p alone exceeds 2^16)
        self.span = 1
        while self.span < n and p ** (self.span + 1) <= 1 << 16:
            self.span += 1
        self.block = p**self.span
        self.digit_table = None
        if self.block <= 1 << 16:
            table = np.arange(self.block, dtype=np.int64)
            self.digit_table = np.empty((self.block, self.span), dtype=self.dtype)
            for j in range(self.span):
                table, self.digit_table[:, j] = np.divmod(table, p)
        # pair_trace's bilinear form, sum_st x_s M_st y_t, is exact in
        # float64 while n^2 (p-1)^3 < 2^53; past that it runs in int64
        self.form_dtype = np.float64 if n * n * (p - 1) ** 3 < 1 << 53 else np.int64

    def digits_of(self, idx):
        n, span = self.n, self.span
        out = np.empty((len(idx), n), dtype=self.dtype)
        for j in range(0, n, span):
            idx, low = np.divmod(idx, self.block)
            out[:, j:j + span] = (low[:, None] if self.digit_table is None
                                  else self.digit_table[low, :n - j])
        return out

    def index_of(self, a):
        return a @ self.place_values

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def scale(self, c, a):
        return (a * (c % self.p)) % self.p

    def mul(self, a, b):
        n = self.n
        if n == 1:
            return (a * b) % self.p
        N = max(a.shape[0], b.shape[0])
        conv = np.zeros((N, 2 * n - 1), dtype=self.dtype)
        for i in range(n):
            ai = a[:, i : i + 1]
            conv[:, i : i + n] += ai * b
        if self.float_reduce:
            out = conv[:, :n].astype(np.float64)
            out += conv[:, n:].astype(np.float64) @ self.red_f
            return _mod_p(out, self.p, self.bound, out).astype(self.dtype)
        out = conv[:, :n] + conv[:, n:] @ self.red
        return out % self.p

    def pow(self, a, e):
        if e == 0:
            one = np.zeros((1, self.n), dtype=self.dtype)
            one[0, 0] = 1
            return np.broadcast_to(one, a.shape).copy()
        result = None
        base = a
        while e:
            if e & 1:
                result = base if result is None else self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def is_zero(self, a):
        return ~a.any(axis=1)

    def linear_form(self, a, w):
        return (a @ np.asarray(w, dtype=self.dtype)) % self.p

    def pair_trace(self, x, y, w):
        # x^T M y with the trace Gram matrix M: no field multiplication
        dt = self.form_dtype
        left = x.astype(dt) @ np.array(self.gram(w), dtype=dt)
        if dt is np.int64:
            left %= self.p
        return np.einsum("in,in->i", left, y.astype(dt)).astype(np.int64) % self.p


# ---------------------------------------------------------------------------
# Q <= 2^24: discrete-log rows


class _TableKernel:
    def __init__(self, F: BulkField):
        self.spec = F.spec
        self.p = F.p
        self.M = M = F.Q - 1  # the order of g, and the code of zero
        # log(-1): g^(M/2) = -1 for odd p; -1 = 1 in characteristic 2
        self.log_minus_one = np.int32(M // 2 if self.p % 2 else 0)
        self._tables = None

    @property
    def t(self):
        if self._tables is None:  # built only when rows are first needed
            self._tables = _log_tables(self.spec)
        return self._tables

    def digits_of(self, idx):
        return self.t.log[idx]

    def index_of(self, a):
        return self.t.antilog[a].astype(np.int64)

    def _reduce(self, s):
        """s mod M in place, for int32 s in [0, 2M].  As uint32, s - M wraps
        to above 2^31 when s < M, so the minimum picks s there."""
        u = s.view(np.uint32)
        return np.minimum(u, u - np.uint32(self.M), out=u).view(np.int32)

    def mul(self, a, b):
        M = self.M
        s = self._reduce(np.add(a, b, dtype=np.int32))
        s[np.maximum(a, b) == M] = M
        return s

    def add(self, a, b):
        # g^a + g^b = g^(a + zech[b - a])
        M = self.M
        d = np.subtract(b, a, dtype=np.int32)
        d += M
        z = self.t.zech[self._reduce(d)]
        s = self._reduce(np.add(a, z, dtype=np.int32))
        s[z == M] = M  # b = -a
        np.copyto(s, b, where=a == M)
        np.copyto(s, a, where=b == M)
        return s

    def neg(self, a):
        return self.mul(a, self.log_minus_one)

    def scale(self, c, a):
        return self.mul(a, self.t.log[c % self.p])

    def pow(self, a, e):
        M = self.M
        if e == 0:
            return np.zeros(a.shape, dtype=np.int32)  # log 1, also for 0^0
        e %= M
        if e == 1:
            return a
        dt = np.int32 if M * e < 1 << 31 else np.int64
        s = ((a.astype(dt) * e) % M).astype(np.int32)
        s[a == M] = M
        return s

    def is_zero(self, a):
        return a == self.M

    def linear_form(self, a, w):
        return self.t.trace_table(w)[a]

    def pair_trace(self, x, y, w):
        return self.linear_form(self.mul(x, y), w)


class _LogTables:
    """antilog[k] = index of g^k (antilog[Q-1] = 0), its inverse log
    (log[0] = Q-1), zech[k] = log(1 + g^k), and trace tables by weights."""

    def __init__(self, spec: FieldSpec):
        p, n, Q = spec.p, spec.k, spec.q
        M = Q - 1
        self.p = p
        g = _primitive_root(spec)

        def times(c):  # digit rows times this matrix = digit rows times c
            return np.array([(c * spec.from_index(p**j)).coeffs for j in range(n)],
                            dtype=np.float64)

        bound = n * (p - 1) ** 2  # digit rows times a digit matrix

        # digits of g^0, ..., g^(S-1) by doubling; then each block of S
        # powers is the previous one times g^S
        S = min(_BUILD_ROWS, M)
        block = np.zeros((1, n))
        block[0, 0] = 1
        while len(block) < S:
            prod = block @ times(g ** len(block))
            block = np.vstack([block, _mod_p(prod, p, bound, prod)])[:S]
        step = times(g**S)
        place = np.power(float(p), np.arange(n))
        prod = np.empty_like(block)
        self.antilog = np.empty(Q, dtype=np.int32)
        self.antilog[M] = 0
        for start in range(0, M, S):
            rows = min(S, M - start)
            self.antilog[start:start + rows] = block[:rows] @ place
            _mod_p(np.matmul(block, step, out=prod), p, bound, block)
        self.log = np.empty(Q, dtype=np.int32)
        self.log[self.antilog[:M]] = np.arange(M, dtype=np.int32)
        self.log[0] = M
        # index of 1 + y: the constant digit of y's index steps up mod p
        plus_one = self.antilog[:M] + 1
        plus_one[plus_one % p == 0] -= p
        self.zech = np.empty(Q, dtype=np.int32)
        self.zech[:M] = self.log[plus_one]
        self.zech[M] = M  # unused: sums with zero bypass the table
        self._traces = OrderedDict()

    @property
    def nbytes(self):
        return sum(a.nbytes for a in (self.antilog, self.log, self.zech,
                                      *self._traces.values()))

    def trace_table(self, w):
        """T[k] = digits(g^k) . w mod p, and T[Q-1] = 0."""
        p = self.p
        key = tuple(int(v) % p for v in w)
        table = self._traces.pop(key, None)
        if table is None:
            # by index first: digit j of the index has place value p^j
            by_index = np.zeros(1, dtype=np.int32)
            for wj in reversed(key):
                digit = (wj * np.arange(p, dtype=np.int64) % p).astype(np.int32)
                by_index = ((by_index[:, None] + digit) % p).ravel()
            dtype = np.uint8 if p <= 256 else np.uint16 if p <= 1 << 16 else np.int32
            table = by_index.astype(dtype)[self.antilog]
            while len(self._traces) >= _TRACE_TABLES:
                self._traces.popitem(last=False)
        self._traces[key] = table
        return table


def _primitive_root(spec: FieldSpec):
    """The element of smallest index whose multiplicative order is Q - 1."""
    M = spec.q - 1
    cofactors = [M // r for r in set(gfpoly._prime_factors(M))]
    one = spec.one()
    for i in range(1, spec.q):
        x = spec.from_index(i)
        if all(x**c != one for c in cofactors):
            return x
    raise AssertionError(f"no primitive root in {spec}")


_cache = OrderedDict()  # FieldSpec -> _LogTables, least recently used first


def _log_tables(spec: FieldSpec) -> _LogTables:
    tables = _cache.pop(spec, None) or _LogTables(spec)
    _cache[spec] = tables
    while len(_cache) > 1 and sum(t.nbytes for t in _cache.values()) > _CACHE_BYTES:
        _cache.popitem(last=False)
    return tables
