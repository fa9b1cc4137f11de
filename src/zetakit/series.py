"""Truncated power series with exact coefficients.

Coefficients may be ints, Fractions, or cyclotomic integers; all
operations are exact and truncate at a fixed order T.  Includes the
exp-of-power-sums recurrence, binomial Euler factors, and the log
derivative (ghost) transform used by the Witt-ring layer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyclotomic
from .errors import NonIntegralCoefficient, OrderMismatch


class SeriesTrunc:
    """c0 + c1 t + ... + cT t^T, exact, truncated at T."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [0] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(_demote(c) for c in coeffs)

    @classmethod
    def one(cls, order):
        return cls(order, [1])

    @classmethod
    def zero(cls, order):
        return cls(order, [])

    def __getitem__(self, n):
        return self.coeffs[n]

    def _coerce(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return SeriesTrunc(self.order, [other])
        if isinstance(other, SeriesTrunc):
            if other.order != self.order:
                raise OrderMismatch(f"T={self.order} vs T={other.order}")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SeriesTrunc(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return SeriesTrunc(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        T = self.order
        out = [0] * (T + 1)
        for i, a in enumerate(self.coeffs):
            if _is_zero(a):
                continue
            for j in range(T + 1 - i):
                b = other.coeffs[j]
                if not _is_zero(b):
                    out[i + j] = out[i + j] + a * b
        return SeriesTrunc(T, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        result = SeriesTrunc.one(self.order)
        base = self
        if n < 0:
            base = base.inverse()
            n = -n
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self):
        """Series inverse; the constant term must be a unit."""
        T = self.order
        c0 = self.coeffs[0]
        inv0 = _unit_inverse(c0)
        out = [inv0] + [0] * T
        for n in range(1, T + 1):
            s = 0
            for m in range(1, n + 1):
                if not _is_zero(self.coeffs[m]):
                    s = s + self.coeffs[m] * out[n - m]
            out[n] = -(inv0 * s)
        return SeriesTrunc(T, out)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def truncate(self, order):
        return SeriesTrunc(order, self.coeffs[: order + 1])

    def is_integral(self):
        return all(_coeff_is_integral(c) for c in self.coeffs)

    def to_integral(self):
        """Assert every coefficient is integral; demote Fractions to ints."""
        out = []
        for n, c in enumerate(self.coeffs):
            try:
                out.append(_force_integral(c))
            except ValueError:
                raise NonIntegralCoefficient(f"t^{n} coefficient {c!r}")
        return SeriesTrunc(self.order, out)

    def to_json(self):
        return [c.to_json() if isinstance(c, Cyclotomic) else
                (str(c) if isinstance(c, Fraction) else c) for c in self.coeffs]

    def __repr__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if _is_zero(c):
                continue
            parts.append(f"{c!r}" if n == 0 else f"({c!r})t^{n}")
        return "SeriesTrunc(" + (" + ".join(parts) or "0") + f"; T={self.order})"


# ---------------------------------------------------------------------------
# Transforms


def exp_power_sums(power_sums, order):
    """exp(sum_{m>=1} N_m t^m / m) via the recurrence n c_n = sum N_m c_{n-m}.

    power_sums[m-1] = N_m; works over Q or Q(zeta_p); caller asserts
    integrality when the result must be integral.
    """
    out = [1] + [0] * order
    for n in range(1, order + 1):
        s = 0
        for m in range(1, n + 1):
            Nm = power_sums[m - 1]
            if not _is_zero(Nm):
                s = s + Nm * out[n - m]
        out[n] = _divide(s, n)
    return SeriesTrunc(order, out)


def euler_factor(alpha, r, a, order):
    """(1 - alpha t^r)^(-a) for integer a >= 0, expanded with binomials.

    Integer-exact: the t^(rj) coefficient is C(a+j-1, j) alpha^j.
    """
    out = [0] * (order + 1)
    out[0] = 1
    j = 1
    apow = alpha
    while r * j <= order:
        out[r * j] = math.comb(a + j - 1, j) * apow
        j += 1
        apow = apow * alpha
    return SeriesTrunc(order, out)


def log_derivative(u: SeriesTrunc):
    """Coefficients g_1..g_T of t u'(t)/u(t); requires u(0) = 1.

    Recurrence: m u_m = sum_{j=1}^{m} g_j u_{m-j}.
    """
    T = u.order
    if u.coeffs[0] != 1:
        raise ValueError("log derivative needs constant term 1")
    g = [0] * (T + 1)  # g[0] unused
    for m in range(1, T + 1):
        s = m * u.coeffs[m]
        for j in range(1, m):
            if not _is_zero(g[j]):
                s = s - g[j] * u.coeffs[m - j]
        g[m] = s
    return g[1:]


# the inverse of log_derivative is the same recurrence, n u_n = sum g_m u_{n-m}
from_log_derivative = exp_power_sums


# ---------------------------------------------------------------------------
# Scalar helpers (int / Fraction / Cyclotomic uniformly)


def _is_zero(c):
    if isinstance(c, Cyclotomic):
        return c.is_zero()
    return c == 0


def _demote(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _divide(c, n):
    if isinstance(c, Cyclotomic):
        return _demote_cyclo(c / n)
    return _demote(Fraction(c) / n)


def _demote_cyclo(c):
    if c.is_integral():
        return c
    try:
        return c.to_integral()
    except ValueError:
        return c


def _unit_inverse(c0):
    if isinstance(c0, Cyclotomic):
        return _demote_cyclo(c0.inverse())
    return _demote(Fraction(1) / Fraction(c0))


def _coeff_is_integral(c):
    if isinstance(c, Cyclotomic):
        return c.is_integral()
    if isinstance(c, Fraction):
        return c.denominator == 1
    return isinstance(c, int)


def _force_integral(c):
    if isinstance(c, Cyclotomic):
        return c.to_integral()
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(str(c))
        return c.numerator
    return c
