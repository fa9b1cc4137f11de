"""Truncated power series with exact coefficients.

Coefficients may be ints, Fractions, or cyclotomic integers; all
operations are exact and truncate at a fixed order T.  Every coefficient
is kept in the normal form of `cyclotomic.demote` from construction on,
so a series is integral exactly when each coefficient is an int or a
Cyclotomic with int coefficients, and `to_integral` only checks.
Includes the exp-of-power-sums recurrence, binomial Euler factors, the
log derivative (ghost) transform used by the Witt-ring layer, and
`require_equal`, the one coefficientwise comparison that names the first
differing t^n.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyclotomic, demote, is_integral, is_zero, json_scalar
from .errors import (
    CoefficientMismatch,
    ConstantTermNotOne,
    NonIntegralCoefficient,
    OrderMismatch,
)


class SeriesTrunc:
    """c0 + c1 t + ... + cT t^T, exact, truncated at T."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        coeffs = list(coeffs)[: order + 1]
        coeffs += [0] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = tuple(demote(c) for c in coeffs)

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
            if is_zero(a):
                continue
            for j in range(T + 1 - i):
                b = other.coeffs[j]
                if not is_zero(b):
                    out[i + j] = out[i + j] + a * b
        return SeriesTrunc(T, out)

    __rmul__ = __mul__

    def inverse(self):
        """Series inverse; the constant term must be a unit."""
        T = self.order
        inv0 = demote(Fraction(1) / self.coeffs[0])
        out = [inv0] + [0] * T
        for n in range(1, T + 1):
            s = 0
            for m in range(1, n + 1):
                if not is_zero(self.coeffs[m]):
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

    def is_integral(self):
        return all(is_integral(c) for c in self.coeffs)

    def to_integral(self):
        """Return self after checking that every coefficient is integral."""
        for n, c in enumerate(self.coeffs):
            if not is_integral(c):
                raise NonIntegralCoefficient(f"t^{n} coefficient {c!r}")
        return self

    def require_equal(self, other):
        """Return self if it equals other coefficientwise; otherwise raise
        CoefficientMismatch(n, self[n], other[n]) at the first t^n that differs."""
        other = self._coerce(other)
        for n, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            if a != b:
                raise CoefficientMismatch(n, a, b)
        return self

    def to_json(self):
        return [json_scalar(c) for c in self.coeffs]

    def __repr__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if is_zero(c):
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
            if not is_zero(Nm):
                s = s + Nm * out[n - m]
        out[n] = demote(s / Fraction(n))
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
        raise ConstantTermNotOne("log derivative needs constant term 1")
    g = [0] * (T + 1)  # g[0] unused
    for m in range(1, T + 1):
        s = m * u.coeffs[m]
        for j in range(1, m):
            if not is_zero(g[j]):
                s = s - g[j] * u.coeffs[m - j]
        g[m] = s
    return g[1:]


# the inverse of log_derivative is the same recurrence, n u_n = sum g_m u_{n-m}
from_log_derivative = exp_power_sums

