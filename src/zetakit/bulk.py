"""Vectorized arithmetic over GF(p^n) for bulk point enumeration.

A BulkField holds field elements as row arrays in one of two
representations, chosen once from the field size Q = p^n:

* Q <= 2^26, the table kernel (except prime fields above about 2^25.5,
  whose table build would not be exact).  A row is the discrete logarithm of the
  element to the primitive root g of smallest index (int32; zero is the
  sentinel Q - 1).  Multiplication, negation, scaling, powers and square
  roots (half an even log; an odd log is a non-square for odd p) are
  index arithmetic mod Q - 1; addition goes through Zech's logarithm
  zech[k] = log(1 + g^k) (Huber, "Some comments on Zech's logarithms",
  IEEE Trans. IT 1990); a trace is one gather from a Q-entry table.  The
  antilog, log and Zech tables and the trace table of 1, T1[k] = Tr(g^k),
  take 13 bytes per field element for p < 256 (about 872 MB at the
  limit).  They are built on first use, one small matmul mod p per
  fixed-size block of powers of g; each block also scatters its logs and
  its traces, and a second blocked pass gathers Zech's logarithms, so the
  build allocates nothing of size Q beyond the tables.  Since
  Tr(c g^k) = T1[(k + log c) mod (Q - 1)], a twisted trace table is T1
  rotated by log c: one copy, 1 byte per element for p < 256, with no
  gather, built once per walk by trace_form and dropped with the walk.
  The four tables above are kept per field in a cache bounded in bytes.
* Otherwise the convolution kernel.  A row is the digit vector over
  GF(p) in the basis 1, x, ..., x^(n-1), the scalar layer's basis.
  Multiplication is a convolution followed by a linear reduction whose
  rows are the digits of x^j mod the modulus: one integer matmul in the
  narrowest dtype that holds its worst case (Python ints, dtype object,
  from 2^63 on), so the chunk pool starts no BLAS threads.  (The table
  build's block products are the only float products; they run once per
  field, on the caller's thread.)  A square root is
  Tonelli-Shanks (Cohen, "A Course in Computational Algebraic Number
  Theory", algorithm 1.5.1) on whole arrays, S - 1 masked rounds for
  Q - 1 = 2^S t, from a non-residue found once per field.  Memory stays at
  O(chunk * n), so these fields are limited only by the enumeration
  budget, not by table construction.

Rows are gathered by index: table lookups are ndarray.take, and the
square-root fiber and the one point tally compact a chunk's mask once
(np.flatnonzero) and take each array there; a boolean mask costs about
five times as much at half density (NumPy 2.4, x86-64).  Table powers
reduce as s - s // M * M: NumPy divides by a scalar with a multiply and
shift (libdivide) for //, not for %, which is about three times slower.

Callers never branch on the representation: rows come from element
indices (digits_of) and go back to them (index_of) or to matching keys
(key_of); everything else is arithmetic, predicates and traces on rows,
the last through a kernel's own trace form (trace_form).
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict

import numpy as np

from . import gfpoly
from .cyclofield import FieldSpec
from .cyclotomic import power

# fields up to this size use the table kernel
_TABLE_LIMIT = 1 << 26
# least-recently-used table sets are dropped past this many bytes
_CACHE_BYTES = 1 << 28
# rows per block when building the antilog table
_BUILD_ROWS = 1 << 12
# _mod_p is exact on float64 integers below _FLOAT_EXACT, float32 below
# _FLOAT32_EXACT
_FLOAT_EXACT = 1 << 51
_FLOAT32_EXACT = 1 << 22


def _mod_p(x, p, bound, out):
    """x mod p for float64 or float32 x holding integers in [0, bound], as
    x - p * floor((x + 0.5) / p), written to out.

    1 / p and the product each round once, so the computed quotient is off
    by at most (x + 0.5) / p * 2^-52 in float64 (2^-23 in float32), which
    stays below its distance 0.5 / p to the nearest integer while
    bound < 2^51 (2^22); np.mod on float64 is about ten times slower.
    """
    limit = _FLOAT32_EXACT if x.dtype == np.float32 else _FLOAT_EXACT
    if bound >= limit:
        raise AssertionError(f"{bound} too large for an exact {x.dtype} reduction")
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
        self.red = _reduction_rows(spec)
        # the table build reduces float64 values up to n (p-1)^2 with _mod_p,
        # which rules out only prime fields above about 2^25.5
        tables = self.Q <= _TABLE_LIMIT and self.n * (self.p - 1) ** 2 < _FLOAT_EXACT
        kernel = _TableKernel if tables else _ConvKernel
        self._kernel = kernel(self)
        self._consts = {}  # (index, shape) -> the rows const returns

    # -- element construction ---------------------------------------------

    def digits_of(self, idx):
        """Rows of the elements with the given int64 indices."""
        return self._kernel.digits_of(idx)

    def index_of(self, a):
        """Element indices (int64) of rows: the inverse of digits_of."""
        return self._kernel.index_of(a)

    def key_of(self, a):
        """An integer injection of rows into [0, Q): equal keys mean equal
        elements.  On the table kernel it is the int32 row itself, with no
        gather or copy, so it suits matching but not element order; on the
        convolution kernel it is the int64 element index."""
        return self._kernel.key_of(a)

    def const(self, value, shape=1):
        """A scalar, an int (prime subfield) or an FFElem, repeated over a
        row shape (an int or a tuple; a read-only broadcast), made once per
        field, so a walk's chunks share it (a race makes it twice)."""
        key = (value % self.p if isinstance(value, int) else value.index(),
               (shape,) if isinstance(shape, int) else tuple(shape))
        if key not in self._consts:
            one = self._kernel.digits_of(np.array([key[0]], dtype=np.int64))
            self._consts[key] = np.broadcast_to(one, key[1] + one.shape[1:])
        return self._consts[key]

    # -- arithmetic --------------------------------------------------------
    # Row arrays may have leading axes, which broadcast: a (R, 1) column of
    # rows times a (1, T) row of rows is an (R, T) grid of rows.

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

    def sqrt(self, a):
        """(is_square, root): where a is a square, and there a root with
        root^2 = a (either one; zero's root is zero).  root is unspecified
        elsewhere.  In characteristic 2 every element is a square."""
        return self._kernel.sqrt(a)

    # -- predicates and reductions ----------------------------------------

    def is_zero(self, a):
        return self._kernel.is_zero(a)

    def eq(self, a, b):
        """Where a and b hold the same element (operands broadcast)."""
        return self._kernel.eq(a, b)

    def nonzero(self, a):
        return ~self._kernel.is_zero(a)

    def linear_form(self, a, form):
        """Tr(c * a) mod p per row, for form = trace_form(c)."""
        return self._kernel.linear_form(a, form)

    def trace_form(self, twist):
        """The form that linear_form reads as Tr(twist * a), for an FFElem
        twist of this field: the trace weights of twist, in the row dtype,
        on digit rows; on log rows the trace table of twist, T[k] =
        Tr(twist g^k), which builds the field's tables on first use."""
        return self._kernel.trace_form(twist, self.trace_weights)

    def trace_weights(self, twist):
        """Weights w with Tr_{F_Q/F_p}(twist * x) = digits(x) . w mod p.

        twist is an FFElem of this field.  With x the class of the variable,
        w_j = Tr(twist * x^j) = sum_i twist_i * s_(i+j), where s_k = Tr(x^k)
        is the k-th power sum of the roots of the monic modulus
        x^n + c_(n-1) x^(n-1) + ... + c_0, from Newton's identities:
        s_0 = n and s_k = -sum_(i=1)^min(k-1, n) c_(n-i) s_(k-i) - [k <= n] k c_(n-k).
        """
        p, n, c = self.p, self.n, self.spec.modulus
        s = [n % p]
        for k in range(1, 2 * n - 1):
            acc = sum(c[n - i] * s[k - i] for i in range(1, min(k - 1, n) + 1))
            if k <= n:
                acc += k * c[n - k]
            s.append(-acc % p)
        t = twist.coeffs
        return [sum(t[i] * s[i + j] for i in range(n)) % p for j in range(n)]

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
# Q > 2^26 and large primes: digit rows


class _ConvKernel:
    def __init__(self, F: BulkField):
        p, n = F.p, F.n
        self.p, self.n = p, n
        self.spec, self.Q = F.spec, F.Q
        # narrowest dtype that holds the worst-case pre-reduction value, so
        # the integer reduction in mul is exact; Python ints from 2^63 on
        bound = n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))
        if bound < (1 << 15) - 1:
            self.dtype = np.int16
        elif bound < (1 << 31) - 1:
            self.dtype = np.int32
        elif bound < (1 << 63) - 1:
            self.dtype = np.int64
        else:
            self.dtype = object
        self.red = F.red.astype(self.dtype)
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

    def digits_of(self, idx):
        n, span = self.n, self.span
        out = np.empty((len(idx), n), dtype=self.dtype)
        for j in range(0, n, span):
            idx, low = np.divmod(idx, self.block)
            out[:, j:j + span] = (low[:, None] if self.digit_table is None
                                  else self.digit_table[low, :n - j])
        return out

    def index_of(self, a):
        return (a @ self.place_values).astype(np.int64, copy=False)

    key_of = index_of

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
        shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        conv = np.zeros(shape + (2 * n - 1,), dtype=self.dtype)
        for i in range(n):
            conv[..., i : i + n] += a[..., i : i + 1] * b
        conv = conv.reshape(-1, 2 * n - 1)  # one 2-D matmul for the reduction
        out = (conv[:, :n] + conv[:, n:] @ self.red) % self.p
        return out.reshape(shape + (n,))

    def pow(self, a, e):
        if e == 0:
            one = np.zeros((1, self.n), dtype=self.dtype)
            one[0, 0] = 1
            return np.broadcast_to(one, a.shape).copy()
        return power(a, e, self.mul, None)  # e >= 1 here

    def sqrt(self, a):
        if self.p == 2:  # squaring is onto: a = (a^(Q/2))^2
            return np.ones(a.shape[:-1], dtype=bool), self.pow(a, self.Q // 2)
        # Q - 1 = 2^S t, t odd; units[j] = c^(2^j) for c = z^t, a primitive
        # 2^S-th root of unity from a non-residue z
        S, t, c = _two_power_part(self.spec)
        units = [self.digits_of(np.array([c], dtype=np.int64))]
        for _ in range(S - 1):
            units.append(self.mul(units[-1], units[-1]))
        one = self.digits_of(np.array([1], dtype=np.int64))
        w = self.pow(a, (t - 1) // 2)
        root = self.mul(a, w)  # a^((t+1)/2)
        b = self.mul(root, w)  # a^t; root^2 = a * b throughout
        for k in range(S - 1, 0, -1):
            # on squares b^(2^k) = 1; where b^(2^(k-1)) = -1 instead,
            # multiplying b by c^(2^(S-k)) and root by c^(2^(S-k-1)) keeps
            # root^2 = a * b and makes b^(2^(k-1)) = 1
            e = b
            for _ in range(k - 1):
                e = self.mul(e, e)
            flip = ~self.eq(e, one)[..., None]
            root = np.where(flip, self.mul(root, units[S - k - 1]), root)
            b = np.where(flip, self.mul(b, units[S - k]), b)
        # Euler's criterion: a^((Q-1)/2) = b^(2^(S-1)) is unchanged by the
        # rounds (c^(2^S) = 1), so b ends at 1 exactly on nonzero squares
        return self.eq(b, one) | self.is_zero(a), root

    def is_zero(self, a):  # any() is object on object rows before NumPy 2
        return ~a.any(axis=-1).astype(bool, copy=False)

    def eq(self, a, b):
        return (a == b).all(axis=-1)

    def trace_form(self, twist, weights):
        return np.array(weights(twist), dtype=self.dtype)

    def linear_form(self, a, form):
        return ((a @ form) % self.p).astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Q <= 2^26: discrete-log rows


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

    def key_of(self, a):
        return a

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
        z = self.t.zech.take(self._reduce(d))
        s = self._reduce(np.add(a, z, dtype=np.int32))
        s[z == M] = M  # b = -a
        for zero, other in ((a, b), (b, a)):  # a nonzero constant copies nothing
            where = zero == M
            if where.any():
                np.copyto(s, other, where=where)
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
        s = np.multiply(a, e, dtype=np.int32 if M * e < 1 << 31 else np.int64)
        s -= s // M * M  # NumPy divides by a scalar without a division, not so for %
        s = s.astype(np.int32, copy=False)
        s[a == M] = M
        return s

    def sqrt(self, a):
        M = self.M
        if self.p == 2:  # M is odd: g^k = (g^((k + M) / 2))^2 for odd k
            return np.ones(a.shape, dtype=bool), (a + (a & 1) * M) >> 1
        # M is even: g^k is a square iff k is even, zero (code M) included
        root = a >> 1
        root[a == M] = M
        return (a & 1) == 0, root

    def is_zero(self, a):
        return a == self.M

    def eq(self, a, b):
        return a == b

    def trace_form(self, twist, weights):
        """T[k] = Tr(twist g^k), T[Q-1] = 0: trace1 rotated by log twist
        (trace1 itself for twist = 1, all zeros for twist = 0)."""
        trace1, M = self.t.trace1, self.M
        shift = int(self.t.log[twist.index()])
        table = trace1 if shift == 0 else np.zeros_like(trace1)
        if 0 < shift < M:
            table[:M - shift] = trace1[shift:M]
            table[M - shift:M] = trace1[:shift]
        return table

    def linear_form(self, a, form):
        return form.take(a)


class _LogTables:
    """antilog[k] = index of g^k (antilog[Q-1] = 0), its inverse log
    (log[0] = Q-1), zech[k] = log(1 + g^k) and trace1[k] = Tr(g^k)
    (trace1[Q-1] = 0).  A walk's twisted trace table is trace1 rotated
    (_TableKernel.trace_form)."""

    def __init__(self, spec: FieldSpec):
        p, n, Q = spec.p, spec.k, spec.q
        M = Q - 1
        g = _primitive_root(spec)

        bound = n * (p - 1) ** 2  # digit rows times a digit matrix or vector
        # float32 halves the cost of the block products where it is exact
        dtype = np.float32 if bound < _FLOAT32_EXACT else np.float64

        def times(c):  # digit rows times this matrix = digit rows times c
            return np.array([(c * spec.from_index(p**j)).coeffs for j in range(n)],
                            dtype=dtype)

        # digits of g^0, ..., g^(S-1) by doubling; then each block of S
        # powers is the previous one times g^S.  Each block also scatters
        # its logs and its traces, so nothing of size Q is allocated beyond
        # the tables kept.
        S = min(_BUILD_ROWS, M)
        block = np.zeros((1, n), dtype=dtype)
        block[0, 0] = 1
        while len(block) < S:
            prod = block @ times(g ** len(block))
            block = np.vstack([block, _mod_p(prod, p, bound, prod)])[:S]
        step = times(g**S)
        place = np.power(float(p), np.arange(n))  # float64: indices pass 2^24
        one = np.array(BulkField(spec).trace_weights(spec.one()), dtype=dtype)
        prod = np.empty_like(block)
        tr = np.empty(S, dtype=dtype)
        self.antilog = np.empty(Q, dtype=np.int32)
        self.antilog[M] = 0
        self.log = np.empty(Q, dtype=np.int32)
        self.log[0] = M
        self.trace1 = np.empty(Q, dtype=np.uint8 if p <= 256 else
                               np.uint16 if p <= 1 << 16 else np.int32)
        self.trace1[M] = 0
        for start in range(0, M, S):
            rows = min(S, M - start)
            part = self.antilog[start:start + rows]
            part[:] = block[:rows] @ place
            self.log[part] = np.arange(start, start + rows, dtype=np.int32)
            self.trace1[start:start + rows] = _mod_p(np.matmul(block, one, out=tr),
                                                     p, bound, tr)[:rows]
            _mod_p(np.matmul(block, step, out=prod), p, bound, block)
        self.zech = np.empty(Q, dtype=np.int32)
        self.zech[M] = M  # unused: sums with zero bypass the table
        # index of 1 + y: the constant digit of y's index steps up mod p
        for start in range(0, M, S):
            plus_one = self.antilog[start:min(start + S, M)] + 1
            plus_one[plus_one % p == 0] -= p
            self.zech[start:start + len(plus_one)] = self.log[plus_one]

    @property
    def nbytes(self):
        return sum(a.nbytes for a in (self.antilog, self.log, self.zech, self.trace1))


@functools.lru_cache(maxsize=64)
def _reduction_rows(spec: FieldSpec):
    """Digits of x^j mod the modulus for j in [n, 2n-1), one row each,
    read-only: every BulkField of the field shares them."""
    n, p = spec.k, spec.p
    rows = []
    xj = gfpoly.mod((0,) * n + (1,), spec.modulus, p)  # x^n mod m
    for _ in range(n - 1):
        rows.append(list(xj) + [0] * (n - len(xj)))
        xj = gfpoly.mod(tuple([0] + list(xj)), spec.modulus, p)
    red = np.array(rows, dtype=np.int64).reshape(max(n - 1, 0), n)
    red.flags.writeable = False
    return red


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


@functools.lru_cache(maxsize=8)
def _two_power_part(spec: FieldSpec):
    """(S, t, index of z^t) with Q - 1 = 2^S t, t odd, for the quadratic
    non-residue z of smallest index (odd p)."""
    M = spec.q - 1
    S = (M & -M).bit_length() - 1
    t = M >> S
    one = spec.one()
    for i in range(2, spec.q):
        z = spec.from_index(i)
        if z ** (M // 2) != one:
            return S, t, (z**t).index()
    raise AssertionError(f"no quadratic non-residue in {spec}")


_cache = OrderedDict()  # FieldSpec -> _LogTables, least recently used first
_cache_lock = threading.Lock()


def _log_tables(spec: FieldSpec) -> _LogTables:
    """The field's tables, built once under a lock (chunk workers may ask
    for them too); the cache's size is summed only when a table joins."""
    with _cache_lock:
        tables = _cache.get(spec)
        if tables is not None:
            _cache.move_to_end(spec)
            return tables
        tables = _cache[spec] = _LogTables(spec)
        while len(_cache) > 1 and sum(t.nbytes for t in _cache.values()) > _CACHE_BYTES:
            _cache.popitem(last=False)
        return tables
