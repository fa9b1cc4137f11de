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

from . import varieties
from .cyclofield import AdditiveCharacter, FieldSpec
from .cyclotomic import Cyclotomic, demote, json_scalar, solve_exact
from .errors import (
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
    sums = [(1, Cyclotomic.integer(chi.p, 1))] + [
        varieties.sym_divisors(X, chi, n, tally=tally) for n in range(1, n_max + 1)]
    SeriesTrunc(n_max, [lhs for _, lhs in sums]).require_equal(z)
    rows = [{"n": n, "sym_count": count, "coefficient": lhs.to_json()}
            for n, (count, lhs) in enumerate(sums)]
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
            "P": [json_scalar(c) for c in self.numerator],
            "Q": [json_scalar(c) for c in self.denominator],
            "verified_order": self.verified_order,
        }


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
    # free variables are set to 0; the expansion check below catches a bad choice
    q = solve_exact(rows, rhs, dq)
    if q is None:
        return None
    Q = [1] + q
    # P = s * Q truncated at dp
    P = []
    for n in range(dp + 1):
        c = 0
        for j in range(min(n, dq) + 1):
            c = c + Q[j] * s.coeffs[n - j]
        P.append(demote(c))
    cand = RationalCandidate(tuple(P), tuple(Q), T)
    if cand.expand(T) != s:
        return None
    return cand

