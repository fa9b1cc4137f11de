"""Big Witt vectors as truncated series, and their rational avatars.

A Witt vector is a series with constant term 1; Witt addition is the
series product and Witt multiplication goes through the ghost (log
derivative) coordinates, where both operations become pointwise.  A
rational series lifts to a graded pair of endomorphisms via companion
matrices, with L(M) = det(1 - tM)^(-1) as the bridge back.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyclotomic, json_scalar
from .errors import (
    ConstantTermNotOne,
    NonIntegralResult,
    NonRational,
    NonSquare,
    UnverifiedCandidate,
)
from .series import SeriesTrunc, exp_power_sums, from_log_derivative, log_derivative
from .zetas import RationalCandidate, hw_zeta, rational_reconstruct


class WittVector:
    """A truncated element of 1 + t R[[t]]; wraps a SeriesTrunc."""

    __slots__ = ("series",)

    def __init__(self, series: SeriesTrunc):
        if series.coeffs[0] != 1:
            raise ConstantTermNotOne("Witt vectors have constant term 1")
        self.series = series

    @classmethod
    def one(cls, order):
        """The additive identity: the constant series 1."""
        return cls(SeriesTrunc.one(order))

    @classmethod
    def mul_unit(cls, order):
        """The multiplicative identity (1 - t)^(-1) = 1 + t + t^2 + ..."""
        return cls(SeriesTrunc(order, [1] * (order + 1)))

    @property
    def order(self):
        return self.series.order

    def __eq__(self, other):
        if isinstance(other, WittVector):
            return self.series == other.series
        if isinstance(other, SeriesTrunc):
            return self.series == other
        return NotImplemented

    def __hash__(self):
        return hash(self.series)

    def is_integral(self):
        return self.series.is_integral()

    def to_json(self):
        return self.series.to_json()

    def __repr__(self):
        return f"WittVector({self.series!r})"


@dataclass(frozen=True)
class GhostVector:
    """Ghost coordinates g_1..g_T; both Witt operations act pointwise here."""

    components: tuple

    @property
    def order(self):
        return len(self.components)

    def __add__(self, other):
        return GhostVector(tuple(a + b for a, b in zip(self.components, other.components)))

    def __mul__(self, other):
        return GhostVector(tuple(a * b for a, b in zip(self.components, other.components)))


def _as_series(u):
    return u.series if isinstance(u, WittVector) else u


def witt_add(u, v) -> WittVector:
    """Witt sum: the ordinary product of the two series."""
    return WittVector(_as_series(u) * _as_series(v))


def ghost(u) -> GhostVector:
    """Ghost coordinates: g_m is the t^m coefficient of t u'(t)/u(t)."""
    return GhostVector(tuple(log_derivative(_as_series(u))))


def ghost_inverse(g: GhostVector, order=None) -> WittVector:
    """Unique series with the given ghost coordinates; exact over Q."""
    comps = g.components if isinstance(g, GhostVector) else tuple(g)
    if order is None:
        order = len(comps)
    return WittVector(from_log_derivative(comps, order))


def witt_mul(u, v) -> WittVector:
    """Witt product: pointwise on ghosts, then back.

    When both factors are integral the product is asserted integral
    (true on everything in scope: zetas of varieties are exponentiable).
    """
    us, vs = _as_series(u), _as_series(v)
    out = ghost_inverse(ghost(us) * ghost(vs), us.order)
    if us.is_integral() and vs.is_integral() and not out.is_integral():
        raise NonIntegralResult(f"{us!r} * {vs!r} -> {out.series!r}")
    return out


# ---------------------------------------------------------------------------
# Matrices and the L map

# Matrices are tuples of tuples over Z or Q (Fractions); tiny and exact,
# so no numpy here.


def _check_square(M):
    M = tuple(tuple(row) for row in M)
    if any(len(row) != len(M) for row in M):
        raise NonSquare(f"{len(M)} rows of lengths {[len(r) for r in M]}")
    return M


def mat_mul(A, B):
    n = len(A)
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_trace(M):
    return sum(M[i][i] for i in range(len(M)))


def direct_sum(A, B):
    """Block-diagonal matrix; realizes Witt addition under L."""
    n, m = len(A), len(B)
    top = [tuple(row) + (0,) * m for row in A]
    bot = [(0,) * n + tuple(row) for row in B]
    return tuple(top + bot)


def kron(A, B):
    """Kronecker product; realizes Witt multiplication under L."""
    m = len(B)
    return tuple(
        tuple(A[i][j] * B[k][l] for j in range(len(A)) for l in range(m))
        for i in range(len(A))
        for k in range(m)
    )


def char_series(M) -> SeriesTrunc:
    """det(1 - tM) as an exact polynomial, by the Leibniz expansion.

    Fine for the small ranks in scope; degree is len(M).
    """
    M = _check_square(M)
    n = len(M)
    coeffs = [0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        # product of (delta - t M)[i, perm(i)] as a degree-<=1 polynomial
        prod = [sign, 0]
        for i in range(n):
            const = 1 if perm[i] == i else 0
            lin = -M[i][perm[i]]
            prod = _poly_mul_small(prod, [const, lin], n)
        for d, c in enumerate(prod[: n + 1]):
            coeffs[d] += c
    return SeriesTrunc(n, coeffs)


def _poly_mul_small(a, b, cap):
    out = [0] * (cap + 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0 and i + j <= cap:
                out[i + j] += x * y
    return out


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


_LEIBNIZ_MAX = 8


def L_map(M, T: int) -> WittVector:
    """L(M) = det(1 - tM)^(-1) through t^T.

    Small matrices go through the exact determinant; larger ones through
    exp of trace power sums (the two agree — see trace_identity_check).
    """
    M = _check_square(M)
    if len(M) == 0:
        return WittVector.one(T)
    if len(M) <= _LEIBNIZ_MAX:
        poly = char_series(M)
        return WittVector(SeriesTrunc(T, poly.coeffs).inverse())
    return WittVector(_trace_series(M, T))


def trace_identity_check(M, T: int) -> dict:
    """exp(sum tr(M^m) t^m / m) == det(1 - tM)^(-1), exactly through t^T.

    The two sides are computed by genuinely different routes: power sums
    of traces versus the Leibniz determinant.
    """
    M = _check_square(M)
    lhs = _trace_series(M, T)
    rhs = SeriesTrunc(T, char_series(M).coeffs).inverse() if M else SeriesTrunc.one(T)
    lhs.require_equal(rhs)
    return {"verdict": "pass", "rank": len(M), "order": T, "series": lhs.to_json()}


def _trace_series(M, T):
    """exp(sum tr(M^m) t^m / m) through t^T: the trace route to L(M)."""
    traces, P = [], M
    for _ in range(T):
        traces.append(mat_trace(P))
        P = mat_mul(P, M)
    return exp_power_sums(traces, T)


# ---------------------------------------------------------------------------
# Rational Witt vectors


@dataclass(frozen=True)
class EndoClass:
    """A graded pair of endomorphisms; its value is L(M+) -_W L(M-).

    Companion matrices stand in for eigenvalue diagonals: L only sees the
    characteristic polynomial, so nothing is lost by staying over Q.
    """

    plus_rank: int
    plus_matrix: tuple
    minus_rank: int
    minus_matrix: tuple

    def value(self, T: int) -> WittVector:
        pos = L_map(self.plus_matrix, T).series
        neg = L_map(self.minus_matrix, T).series
        return WittVector(pos * neg.inverse())

    def to_json(self):
        return {
            "plus": {"rank": self.plus_rank,
                     "matrix": [[json_scalar(x) for x in row] for row in self.plus_matrix]},
            "minus": {"rank": self.minus_rank,
                      "matrix": [[json_scalar(x) for x in row] for row in self.minus_matrix]},
        }


def companion_matrix(coeffs):
    """Matrix M with det(1 - tM) = 1 + c_1 t + ... + c_d t^d.

    coeffs is the full coefficient list starting at the constant 1; a
    Cyclotomic coefficient must be rational (NonRational otherwise).
    """
    if not coeffs or coeffs[0] != 1:
        raise ConstantTermNotOne("polynomial must have constant term 1")
    cs = [c.rational_value() if isinstance(c, Cyclotomic) else c for c in coeffs[1:]]
    while cs and cs[-1] == 0:
        cs.pop()
    d = len(cs)
    if d == 0:
        return ()
    for c in cs:
        if not isinstance(c, (int, Fraction)):
            raise NonRational(f"companion lift needs rational coefficients, got {c!r}")
    rows = []
    for i in range(d):
        row = [0] * d
        if i + 1 < d:
            row[i + 1] = 1
        row[0] = -cs[i]
        rows.append(tuple(row))
    return tuple(rows)


def zeta_lift(rc: RationalCandidate) -> EndoClass:
    """Lift a verified rational series to a graded endomorphism pair.

    The denominator becomes the plus part, the numerator the minus part;
    the lift is re-expanded and compared against the candidate.
    """
    if not isinstance(rc, RationalCandidate):
        raise UnverifiedCandidate(f"not a reconstruction result: {rc!r}")
    need = len(rc.numerator) + len(rc.denominator) - 1
    if rc.verified_order < max(need, 1):
        raise UnverifiedCandidate(
            f"verified to t^{rc.verified_order}, need t^{max(need, 1)}")
    plus = companion_matrix(list(rc.denominator))
    minus = companion_matrix(list(rc.numerator))
    cls = EndoClass(len(plus), plus, len(minus), minus)
    T = rc.verified_order
    cls.value(T).series.require_equal(rc.expand(T))
    return cls


def lift_roundtrip(series: SeriesTrunc, max_deg: int) -> EndoClass:
    """reconstruct -> lift -> L, asserting the series is reproduced."""
    rc = rational_reconstruct(series, max_deg)
    cls = zeta_lift(rc)
    cls.value(series.order).series.require_equal(series)
    return cls


# ---------------------------------------------------------------------------
# Exponentiability of point-count zetas


def exponentiability_check(X, Y, F, T: int, budget=None) -> dict:
    """Product and disjoint-union laws for zetas, exact to t^T.

    zeta(X x Y) must be the Witt product of the factors, and the zeta
    built from summed counts (disjoint union) their Witt sum.
    """
    from . import varieties

    zx = WittVector(hw_zeta(X, F, T, budget))
    zy = WittVector(hw_zeta(Y, F, T, budget))
    direct = hw_zeta(varieties.product_spec(X, Y), F, T, budget)
    star = witt_mul(zx, zy).series.require_equal(direct)

    counts = [
        varieties.count_points_ff(X, F, m, budget) + varieties.count_points_ff(Y, F, m, budget)
        for m in range(1, T + 1)
    ]
    summed = witt_add(zx, zy).series.require_equal(exp_power_sums(counts, T))
    return {
        "verdict": "pass",
        "order": T,
        "product": star.to_json(),
        "disjoint_union": summed.to_json(),
    }
