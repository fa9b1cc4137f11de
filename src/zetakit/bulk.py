"""Vectorized arithmetic over GF(p^n) for bulk point enumeration.

Elements are rows of an (N, n) digit matrix over GF(p) (basis
1, x, ..., x^(n-1), same modulus as the scalar layer).  Addition is
digitwise; multiplication is a convolution followed by a linear
reduction whose rows are the digits of x^j mod the modulus.  This keeps
memory at O(chunk * n) and avoids discrete-log tables, so field sizes
are limited only by the enumeration budget, not by table construction.
"""

from __future__ import annotations

import numpy as np

from .cyclofield import FieldSpec


class BulkField:
    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.n = spec.k
        self.Q = spec.q
        p, n = self.p, self.n
        # reduction rows: digits of x^j mod modulus for j in [n, 2n-1)
        rows = []
        from . import gfpoly

        xj = gfpoly.mod((0,) * n + (1,), spec.modulus, p)  # x^n mod m
        for _ in range(n - 1):
            rows.append(list(xj) + [0] * (n - len(xj)))
            xj = gfpoly.mod(tuple([0] + list(xj)), spec.modulus, p)
        # narrowest dtype that can hold the worst-case pre-reduction value
        bound = n * (p - 1) ** 2 * (1 + (n - 1) * (p - 1))
        if bound < (1 << 15) - 1:
            self.dtype = np.int16
        elif bound < (1 << 31) - 1:
            self.dtype = np.int32
        else:
            self.dtype = np.int64
        self.red = np.array(rows, dtype=self.dtype).reshape(max(n - 1, 0), n)
        # float mirror: integer matmul has no BLAS path; values stay far
        # below 2^53 so float64 products are exact
        self.red_f = self.red.astype(np.float64)
        self.place_values = np.power(np.int64(p), np.arange(n, dtype=np.int64))

    # -- element construction ---------------------------------------------

    def digits_of(self, idx):
        """Digit rows for an arbitrary int64 index array."""
        out = np.empty((len(idx), self.n), dtype=self.dtype)
        for j in range(self.n):
            idx, out[:, j] = np.divmod(idx, self.p)
        return out

    def index_of(self, a):
        """Element indices of digit rows: the inverse of digits_of."""
        return a @ self.place_values

    def const(self, value):
        """Digits of a scalar: an int (prime subfield) or an FFElem."""
        if isinstance(value, int):
            d = [value % self.p] + [0] * (self.n - 1)
        else:
            d = list(value.coeffs)
        return np.array([d], dtype=self.dtype)

    # -- arithmetic --------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def scale(self, c, a):
        """Multiply by a prime-subfield constant c (int)."""
        return (a * (c % self.p)) % self.p

    def mul(self, a, b):
        """Elementwise product of digit arrays (broadcasting rows of size 1)."""
        n = self.n
        if n == 1:
            return (a * b) % self.p
        N = max(a.shape[0], b.shape[0])
        conv = np.zeros((N, 2 * n - 1), dtype=self.dtype)
        for i in range(n):
            ai = a[:, i : i + 1]
            conv[:, i : i + n] += ai * b
        if n >= 8:
            out = conv[:, :n].astype(np.float64)
            out += conv[:, n:].astype(np.float64) @ self.red_f
            return np.mod(out, self.p).astype(self.dtype)
        out = conv[:, :n] + conv[:, n:] @ self.red
        return out % self.p

    def pow(self, a, e):
        if e == 0:
            return np.broadcast_to(self.const(1), a.shape).copy()
        result = None
        base = a
        while e:
            if e & 1:
                result = base if result is None else self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    # -- predicates and reductions ----------------------------------------

    def is_zero(self, a):
        return ~a.any(axis=1)

    def nonzero(self, a):
        return a.any(axis=1)

    def linear_form(self, a, w):
        """(a @ w) mod p for an int vector w of length n; used for traces."""
        return (a @ np.asarray(w, dtype=self.dtype)) % self.p

    def trace_weights(self, twist):
        """Weights w with Tr_{F_Q/F_p}(twist * x) = digits(x) . w mod p.

        twist is an FFElem of this field; computed scalarly per basis vector.
        """
        from .cyclofield import trace_to_prime_int

        w = []
        for j in range(self.n):
            basis = self.spec.element([0] * j + [1] + [0] * (self.n - j - 1))
            w.append(trace_to_prime_int(twist * basis))
        return w
