"""Zeta functions of varieties over finite fields, as truncated series.

Both zetas share one closed-point core.  The per-degree point counts
(hw_zeta) or exponent histograms (exp_zeta) go through one orbit
inversion (`varieties.orbit_inversion`) into closed points, and one
comparison (`_dual_route`) checks exp of the power sums against the
Euler product over those closed points, exactly, before anything is
returned.  Both routes rest on the same counts, so their agreement is an
identity of formal series once the inversion is integral and
nonnegative.  The inversion's divisibility and sign checks constrain the
enumerated histograms only below the top degree T: an error of T*k
points in the degree-T histogram yields a wrong series with no error
raised.  Also houses reconstruction of a truncated series as a rational
function P/Q by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import varieties
from .cyclofield import AdditiveCharacter, FieldSpec
from .cyclotomic import Cyclotomic
from .errors import (
    CoefficientMismatch,
    InsufficientOrder,
    NoCandidate,
    RouteMismatch,
    TallyTooShallow,
)
from .series import SeriesTrunc, euler_factor, exp_power_sums
from .varieties import ClosedPointTally, VarietySpec


def hw_zeta(X: VarietySpec, F: FieldSpec, T: int, budget=None) -> SeriesTrunc:
    """exp(sum #X(F_{q^m}) t^m / m) over Z, cross-checked against the
    Euler product prod_r (1 - t^r)^(-a_r) over closed points."""
    counts = [varieties.count_points_ff(X, F, m, budget) for m in range(1, T + 1)]

    def factors():  # inverted only once route A is integral
        a = varieties.orbit_inversion([n] for n in counts)
        for (r, _e), n in sorted(a.items()):
            yield euler_factor(1, r, n, T)

    return _dual_route(counts, factors(), T)


def exp_zeta(X: VarietySpec, chi: AdditiveCharacter, T: int, budget=None) -> SeriesTrunc:
    """Exponential-sum zeta over Z[zeta_p], dual-route.

    Route A: exp(sum N_{chi,m} t^m / m) in Q(zeta_p), integrality asserted.
    Route B: prod over closed points of (1 - alpha t^r)^(-a_{alpha,r}),
    with alpha ranging over zeta_p^e in ascending exponent order.
    """
    return exp_zeta_from_tally(varieties.closed_point_tally(X, chi, T, budget), T)


def exp_zeta_from_tally(tally: ClosedPointTally, T: int) -> SeriesTrunc:
    """exp_zeta through t^T from a precomputed tally of depth >= T."""
    if tally.r_max < T:
        raise TallyTooShallow(f"tally depth {tally.r_max} < requested order {T}")
    sums = [tally.n_chi_m(m) for m in range(1, T + 1)]
    factors = (euler_factor(Cyclotomic.zeta_power(tally.p, e), r, count, T)
               for (r, e), count in sorted(tally.a.items()) if r <= T)
    return _dual_route(sums, factors, T)


def _dual_route(power_sums, euler_factors, T) -> SeriesTrunc:
    """Route A, exp(sum N_m t^m / m) with every coefficient integral,
    against route B, the product of the Euler factors (consumed after
    route A); raises RouteMismatch unless they agree and returns route B."""
    route_a = exp_power_sums(power_sums, T).to_integral()
    route_b = SeriesTrunc.one(T)
    for factor in euler_factors:
        route_b = route_b * factor
    if route_a != route_b:
        raise RouteMismatch(f"zeta routes differ: {route_a!r} vs {route_b!r}")
    return route_b


def kapranov_check(X: VarietySpec, chi: AdditiveCharacter, n_max: int, budget=None):
    """Coefficientwise comparison of the zeta series against direct sums
    over degree-n effective 0-cycles, for n <= n_max."""
    tally = varieties.closed_point_tally(X, chi, n_max, budget)
    z = exp_zeta_from_tally(tally, n_max)
    rows = []
    for n in range(n_max + 1):
        if n == 0:
            lhs = Cyclotomic.integer(chi.p, 1)
            count = 1
        else:
            count, lhs = varieties.sym_divisors(X, chi, n, tally=tally)
        rhs = z.coeffs[n]
        if isinstance(rhs, int):
            rhs = Cyclotomic.integer(chi.p, rhs)
        if lhs != rhs:
            raise CoefficientMismatch(n, lhs, rhs)
        rows.append({"n": n, "sym_count": count, "coefficient": lhs.to_json()})
    return {"verdict": "pass", "n_max": n_max, "rows": rows}


# ---------------------------------------------------------------------------
# Rational reconstruction


@dataclass(frozen=True)
class RationalCandidate:
    numerator: tuple  # P coefficients, ascending, P(0) = 1
    denominator: tuple  # Q coefficients, ascending, Q(0) = 1
    verified_order: int

    def expand(self, order) -> SeriesTrunc:
        P = SeriesTrunc(order, list(self.numerator))
        Q = SeriesTrunc(order, list(self.denominator))
        return P * Q.inverse()

    def to_json(self):
        return {
            "P": [_scalar_json(c) for c in self.numerator],
            "Q": [_scalar_json(c) for c in self.denominator],
            "verified_order": self.verified_order,
        }


def _scalar_json(c):
    return c.to_json() if isinstance(c, Cyclotomic) else c


def rational_reconstruct(s: SeriesTrunc, max_deg: int) -> RationalCandidate:
    """Smallest rational function P/Q (by total then denominator degree)
    matching s through its full order, found by exact linear algebra."""
    if s.order < 2 * max_deg + 2:
        raise InsufficientOrder(f"order {s.order} < {2 * max_deg + 2}")
    if s.coeffs[0] != 1:
        raise NoCandidate("series does not start at 1")
    for total in range(0, 2 * max_deg + 1):
        for dq in range(0, min(total, max_deg) + 1):
            dp = total - dq
            if dp > max_deg:
                continue
            cand = _try_degrees(s, dp, dq)
            if cand is not None:
                return cand
    raise NoCandidate(f"no P/Q with degrees <= {max_deg} matches to t^{s.order}")


def _try_degrees(s, dp, dq):
    T = s.order
    # unknowns q_1..q_dq with q_0 = 1; equations (s*Q)_n = 0 for dp < n <= T
    rows, rhs = [], []
    for n in range(dp + 1, T + 1):
        rows.append([s.coeffs[n - j] if n - j >= 0 else 0 for j in range(1, dq + 1)])
        rhs.append(-s.coeffs[n])
    q = _solve_consistent(rows, rhs, dq)
    if q is None:
        return None
    Q = [1] + q
    # P = s * Q truncated at dp
    P = []
    for n in range(dp + 1):
        c = 0
        for j in range(min(n, dq) + 1):
            c = c + Q[j] * s.coeffs[n - j]
        P.append(_demote(c))
    cand = RationalCandidate(tuple(P), tuple(_demote(c) for c in Q), T)
    if cand.expand(T) != s:
        return None
    return cand


def _demote(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    if isinstance(c, Cyclotomic) and not c.is_integral():
        try:
            return c.to_integral()
        except ValueError:
            return c
    return c


def _solve_consistent(rows, rhs, nvars):
    """Solve an (over)determined linear system exactly; None if inconsistent.

    Works over Q or Q(zeta_p); free variables are set to 0.
    """
    rows = [[_lift(x) for x in row] for row in rows]
    rhs = [_lift(x) for x in rhs]
    m = len(rows)
    pivots = []
    r = 0
    for col in range(nvars):
        piv = next((i for i in range(r, m) if not _is_zero(rows[i][col])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rhs[r], rhs[piv] = rhs[piv], rhs[r]
        inv = _inv(rows[r][col])
        rows[r] = [x * inv for x in rows[r]]
        rhs[r] = rhs[r] * inv
        for i in range(m):
            if i != r and not _is_zero(rows[i][col]):
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
                rhs[i] = rhs[i] - f * rhs[r]
        pivots.append(col)
        r += 1
    for i in range(r, m):
        if not _is_zero(rhs[i]):
            return None
    sol = [_lift(0)] * nvars
    for i, col in enumerate(pivots):
        sol[col] = rhs[i]
    # leftover free variables would make pivot rows only partially determined;
    # re-verification by expansion in the caller catches any bad choice
    return [_demote(x) for x in sol]


def _lift(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


def _is_zero(x):
    if isinstance(x, Cyclotomic):
        return x.is_zero()
    return x == 0


def _inv(x):
    if isinstance(x, Cyclotomic):
        return x.inverse()
    return 1 / x
