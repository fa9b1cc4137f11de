"""Exact arithmetic in Z[zeta_p] (and its fraction field) for prime p,
and the one exact-scalar layer every module above builds on.

Elements are stored as coefficient vectors of length p-1 in the basis
1, zeta, ..., zeta^(p-2), with the canonical reduction
1 + zeta + ... + zeta^(p-1) = 0 applied on construction.  For p = 2 the
basis has length 1 and the ring is just Z.

Normal form: an exact scalar is an int, a Fraction with denominator
other than 1, or a Cyclotomic whose coefficients are in that form.
`demote` maps a scalar to it, and `Cyclotomic` and `series.SeriesTrunc`
apply it to every coefficient on construction.  So a scalar is integral
exactly when it is an int or a Cyclotomic with int coefficients, and
nothing downstream converts Fractions back to ints.  The same layer
holds the one zero test (`is_zero`) and the one scalar-to-JSON map
(`json_scalar`).  A rational Cyclotomic stays a Cyclotomic.

It also holds the two algorithms every exact ring shares, each given the
ring's operations: `power`, the one square-and-multiply (for Poly,
Cyclotomic, GF(p)[x] mod m and the convolution kernel's rows), and
`row_reduce`/`solve`, the one Gauss-Jordan (over Q and Q(zeta_p) as
`solve_exact`, over GF(p) as cyclofield's `_row_reduce`/`_solve_mod_p`,
and over Q[[t]] truncated at t^n as the determinant of `witt.char_series`,
where every pivot it meets is a unit).
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import MixedCyclotomicOrder, NonRational


class Cyclotomic:
    """An element of Q(zeta_p), exact; integral iff all coefficients are ints."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p={p}, got {len(coeffs)}")
        self.p = p
        self.coeffs = tuple(c if type(c) is int else demote(c) for c in coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def integer(cls, p, n):
        return cls(p, (n,) + (0,) * (p - 2))

    @classmethod
    def zeta_power(cls, p, e):
        """zeta_p^e, reduced to the canonical basis."""
        e %= p
        if e < p - 1:
            coeffs = [0] * (p - 1)
            coeffs[e] = 1
            return cls(p, coeffs)
        # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        return cls(p, (-1,) * (p - 1))

    @classmethod
    def from_exponent_counts(cls, p, counts):
        """Sum of counts[e] * zeta^e over e in range(p)."""
        coeffs = [counts[e] for e in range(p - 1)]
        top = counts[p - 1] if len(counts) == p else 0
        return cls(p, [c - top for c in coeffs])

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise MixedCyclotomicOrder(f"p={self.p} vs p={other.p}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.integer(self.p, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Cyclotomic(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.p, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.p, [a * other for a in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.p
        # convolution with exponents mod p, then fold zeta^(p-1) away
        full = [0] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                full[(i + j) % p] += a * b
        top = full[p - 1]
        return Cyclotomic(p, [full[e] - top for e in range(p - 1)])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, operator.mul, Cyclotomic.integer(self.p, 1))

    def inverse(self):
        """Multiplicative inverse in Q(zeta_p), via the multiplication matrix."""
        p = self.p
        n = p - 1
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # columns: self * zeta^j expressed in the basis
        cols = [(self * Cyclotomic.zeta_power(p, j)).coeffs for j in range(n)]
        mat = [[cols[j][i] for j in range(n)] for i in range(n)]
        return Cyclotomic(p, solve_exact(mat, [1] + [0] * (n - 1), n))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * Fraction(1, 1) * Fraction(other) ** -1
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- predicates and conversions ---------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_integral(self):
        return all(isinstance(c, int) for c in self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational():
            raise NonRational(f"{self!r} is not rational")
        return self.coeffs[0]

    def to_integral(self):
        """Return self after checking that every coefficient is an int."""
        if not self.is_integral():
            raise ValueError(f"non-integral coefficients {self!r}")
        return self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        if self.is_rational():
            return f"Cyclo(p={self.p}, {self.coeffs[0]})"
        terms = " + ".join(f"{c}*z^{e}" for e, c in enumerate(self.coeffs) if c != 0)
        return f"Cyclo(p={self.p}, {terms})"

    def to_json(self):
        return [json_scalar(c) for c in self.coeffs]


# ---------------------------------------------------------------------------
# Exact scalars: int / Fraction / Cyclotomic uniformly


def demote(c):
    """The normal form of an exact scalar: integral Fractions and bools
    become ints; everything else is returned as it is."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    if isinstance(c, bool):
        return int(c)
    return c


def is_zero(c):
    if isinstance(c, Cyclotomic):
        return c.is_zero()
    return c == 0


def is_integral(c):
    """True for ints and Cyclotomics with int coefficients (normal form)."""
    if isinstance(c, Cyclotomic):
        return c.is_integral()
    return isinstance(c, int)


def json_scalar(c):
    """A Cyclotomic as its coefficient list, a Fraction as "a/b", an int as is."""
    if isinstance(c, Cyclotomic):
        return c.to_json()
    return str(c) if isinstance(c, Fraction) else c


def solve_exact(rows, rhs, nvars):
    """`solve` over Q or Q(zeta_p): a solution in normal form, free
    variables set to 0, or None if the system is inconsistent."""
    return solve(rows, rhs, nvars, demote,
                 lambda c: c.inverse() if isinstance(c, Cyclotomic) else 1 / Fraction(c))


# ---------------------------------------------------------------------------
# The ring-generic power and Gauss-Jordan


def power(x, e, mul, one):
    """x^e for an int e >= 0 under the associative product mul, one for
    e = 0.  Squares and multiplies from the top bit down: at most
    2 log2(e) products, none by one and no squaring past the top bit."""
    if e == 0:
        return one
    out = x
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


def row_reduce(rows, n_cols, norm, inv):
    """Gauss-Jordan on the first n_cols columns of rows, in place, over
    the field whose elements norm puts in normal form and inv inverts
    (nonzero ones).  Every entry is normalized first.  Returns the pivot
    columns, the i-th pivot in row i, and det, the product of the pivots
    signed by the row swaps, or 0 when a column has no pivot: the
    determinant of a square matrix.  It also serves a ring that is not a
    field, Q[[t]] truncated at t^n for `witt.char_series`, since every
    pivot it meets there is a unit."""
    for i, row in enumerate(rows):
        rows[i] = [norm(v) for v in row]
    pivots, det = [], 1
    for c in range(n_cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if not is_zero(rows[i][c])), None)
        if pivot is None:
            det = 0
            continue
        lead = rows[pivot][c]
        det = norm(det * lead if pivot == r else -(det * lead))
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = inv(lead)
        rows[r] = [norm(v * scale) for v in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and not is_zero(f):
                rows[i] = [norm(v - f * w) for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, det


def solve(rows, rhs, nvars, norm, inv):
    """A solution of rows . x = rhs over the field of `row_reduce`, free
    variables set to 0, or None if the system is inconsistent."""
    aug = [[*row, b] for row, b in zip(rows, rhs)]
    pivots, _ = row_reduce(aug, nvars, norm, inv)
    if any(not is_zero(row[-1]) for row in aug[len(pivots):]):
        return None
    sol = [0] * nvars
    for r, c in enumerate(pivots):
        sol[c] = aug[r][-1]
    return sol
