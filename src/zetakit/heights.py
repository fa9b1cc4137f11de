"""Rational points of bounded height on subvarieties of projective space.

Points of P^n(Q) are gcd-and-sign normalized integer vectors; the Weil
height of a normalized point is max|x_i|, raised to the bundle degree m
for O(m).  Counting is exhaustive enumeration inside the height box by
one vectorized, chunked scan (`_box_heights`) that evaluates polynomials
exactly: in int64 under a proven bound, over Python ints above it.
Everything downstream (abscissa estimates, asymptotic fits, accumulation
classification) works off exact count tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded,
    InsufficientSamples,
    NotASubvariety,
    PoorFit,
    PrefixTooShort,
    ZeroInput,
    ZeroVector,
)
from .varieties import VarietySpec, default_budget

_CHUNK = 1 << 20


@dataclass(frozen=True)
class RationalProjPoint:
    """Unique representative of a point of P^n(Q): gcd 1, leading sign +."""

    coords: tuple

    def __iter__(self):
        return iter(self.coords)

    def to_json(self):
        return list(self.coords)


def normalize(coords) -> RationalProjPoint:
    """gcd-reduce and flip signs so the first nonzero coordinate is positive."""
    coords = [int(c) for c in coords]
    g = math.gcd(*coords) if len(coords) > 1 else abs(coords[0])
    if g == 0:
        raise ZeroVector(repr(coords))
    lead = next(c for c in coords if c)
    if lead < 0:
        g = -g
    return RationalProjPoint(tuple(c // g for c in coords))


def weil_height(point, m: int = 1) -> int:
    """h_{O(m)} = (max_i |x_i|)^m on a normalized point."""
    coords = point.coords if isinstance(point, RationalProjPoint) else tuple(point)
    return max(abs(c) for c in coords) ** m


def verify_product_formula(lam) -> dict:
    """prod_v |lambda|_v = 1 for lambda in Q*, checked exactly.

    The finite places contribute p^(-v_p) for each prime p dividing the
    numerator or denominator; the archimedean place contributes |lambda|.
    """
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroInput("product formula needs lambda != 0")
    factors = {"infinity": abs(lam)}
    product = abs(lam)
    for n, sign in ((lam.numerator, -1), (lam.denominator, 1)):
        for p, e in _factorize(abs(n)).items():
            contrib = Fraction(p) ** (sign * e)
            factors[str(p)] = factors.get(str(p), Fraction(1)) * contrib
            product *= contrib
    assert product == 1, (lam, factors)
    return {"lambda": str(lam), "factors": {k: str(v) for k, v in factors.items()},
            "product": str(product)}


def _factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Enumeration


def _height_root(B, m):
    """Largest integer H with H^m <= B."""
    H = int(round(B ** (1.0 / m)))
    while H**m > B:
        H -= 1
    while (H + 1) ** m <= B:
        H += 1
    return H


def _row_evaluator(poly, H):
    """Evaluator of an integer polynomial on coordinate columns with
    |x_i| <= H.  It works in int64 when sum |c| * H^deg < 2^63, which
    bounds every partial product and sum, and over Python ints otherwise.
    """
    big = sum(abs(c) * H ** sum(exps) for exps, c in poly.terms.items()) >= 1 << 63
    dtype = object if big else np.int64

    def evaluate(cols):
        total = np.zeros(cols[0].shape, dtype=dtype)
        for exps, c in poly.terms.items():
            v = np.full(cols[0].shape, c, dtype=dtype)
            for col, e in zip(cols, exps):
                if e:
                    v *= col.astype(dtype, copy=False) ** e
            total += v
        return total

    return evaluate


def _conditions(X, H):
    """(poly, evaluator, must vanish) for each equation and inequation."""
    return ([(e, _row_evaluator(e, H), True) for e in X.equations]
            + [(h, _row_evaluator(h, H), False) for h in X.inequations])


def _box_heights(X: VarietySpec, m: int, B, budget, within=None):
    """The box scan: sorted max|x_i| over the normalized points of X with
    h_{O(m)} <= B.  With within=U, each of those points must also satisfy
    U's conditions, and NotASubvariety names the first one that does not.
    """
    budget = budget if budget is not None else default_budget()
    H = _height_root(B, m)
    side = 2 * H + 1
    nv = X.nvars
    total = side**nv
    if total > budget:
        raise BudgetExceeded(total, budget)
    own = _conditions(X, H)
    outer = _conditions(within, H) if within is not None else []
    heights = []
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        cols = []
        for _ in range(nv):
            idx, digit = np.divmod(idx, side)
            cols.append(digit - H)
        cols = cols[::-1]  # x0 most significant, for determinism only
        mask = np.ones(len(idx), dtype=bool)
        for _, ev, vanish in own:
            mask &= (ev(cols) == 0) == vanish
        if not mask.all():
            cols = [col[mask] for col in cols]
        arr = np.stack(cols, axis=1)
        # gcd 1, leading nonzero coordinate positive
        keep = np.gcd.reduce(np.abs(arr), axis=1) == 1
        keep &= arr[np.arange(len(arr)), np.argmax(arr != 0, axis=1)] > 0
        pts = arr[keep]
        for poly, ev, vanish in outer:
            bad = (ev(list(pts.T)) == 0) != vanish
            if bad.any():
                raise NotASubvariety(f"point {pts[bad][0].tolist()} violates "
                                     f"{poly!r}{'' if vanish else ' != 0'}")
        heights.append(np.abs(pts).max(axis=1))
    out = np.concatenate(heights)
    out.sort()
    return out


def point_heights(X: VarietySpec, m: int, B, budget=None):
    """Sorted max|x_i| values over the normalized points of X with height
    h_{O(m)} <= B; the basis for every count below."""
    if X.ambient != "projective":
        raise ValueError("height counting is defined on projective specs")
    return _box_heights(X, m, B, budget)


def count_points(X: VarietySpec, m: int, B, budget=None) -> int:
    """Number of rational points of X with h_{O(m)} <= B, exactly."""
    return int(len(point_heights(X, m, B, budget)))


# ---------------------------------------------------------------------------
# Count tables and estimators


@dataclass(frozen=True)
class HeightCountTable:
    variety: str
    bundle_degree: int
    bounds: tuple
    counts: tuple

    def __post_init__(self):
        assert all(a < b for a, b in zip(self.bounds, self.bounds[1:]))
        assert all(a <= b for a, b in zip(self.counts, self.counts[1:]))

    def to_csv(self):
        lines = ["B,N"] + [f"{b},{n}" for b, n in zip(self.bounds, self.counts)]
        return "\n".join(lines) + "\n"

    def to_json(self):
        return {"variety": self.variety, "bundle_degree": self.bundle_degree,
                "bounds": list(self.bounds), "counts": list(self.counts)}


def height_count_table(X: VarietySpec, m: int, bounds, budget=None,
                       name="variety") -> HeightCountTable:
    """Exact N(B) for each bound, from one enumeration at the largest."""
    bounds = sorted(bounds)
    return _count_table(point_heights(X, m, bounds[-1], budget), m, bounds, name)


def _count_table(hs, m, bounds, name):
    exact = hs.astype(object) if len(hs) and int(hs[-1]) ** m >= 1 << 62 else hs
    hm = exact**m  # exact integer heights
    counts = tuple(int(np.sum(hm <= b)) for b in bounds)
    return HeightCountTable(name, m, tuple(bounds), counts)


def dyadic_bounds(top, samples=8):
    """Geometric B-grid ending at `top`."""
    out = []
    b = top
    for _ in range(samples):
        out.append(b)
        b = max(1, b // 2)
    return tuple(sorted(set(out)))


def _top_half(tbl: HeightCountTable):
    pairs = [(b, n) for b, n in zip(tbl.bounds, tbl.counts) if n > 0]
    if len(pairs) < 4:
        raise InsufficientSamples(f"{len(pairs)} usable samples")
    if pairs[-1][0] < 10 * pairs[0][0]:
        raise InsufficientSamples("B-grid spans less than a decade")
    return pairs[len(pairs) // 2:]


def abscissa_estimate(tbl: HeightCountTable) -> float:
    """Slope of log N against log B over the top half of the grid."""
    pairs = _top_half(tbl)
    lb = np.log([b for b, _ in pairs])
    ln = np.log([n for _, n in pairs])
    slope, _ = np.polyfit(lb, ln, 1)
    return float(slope)


@dataclass(frozen=True)
class AsymptoticFit:
    beta: float
    t: int
    c: float
    residual: float

    def to_json(self):
        return {"beta": self.beta, "t": self.t, "c": self.c,
                "residual": self.residual}


def asymptotic_fit(tbl: HeightCountTable, t_grid=(0, 1, 2, 3),
                   threshold=0.05) -> AsymptoticFit:
    """Best fit N(B) ~ c B^beta (log B)^t over the integer t grid.

    Least squares in log space on the top half of the grid; the residual
    is the rms log misfit and must come in under the threshold.
    """
    pairs = _top_half(tbl)
    if any(b <= 1 for b, _ in pairs):
        raise InsufficientSamples("need bounds > 1 for log-log fitting")
    lb = np.log([b for b, _ in pairs])
    ln = np.log([float(n) for _, n in pairs])
    llb = np.log(lb)
    best = None
    for t in t_grid:
        y = ln - t * llb
        (slope, intercept), res = _lstsq_line(lb, y)
        if best is None or res < best[0] - 1e-9:  # ties go to the smaller t
            best = (res, t, slope, intercept)
    res, t, slope, intercept = best
    if res > threshold:
        raise PoorFit(f"rms log residual {res:.4f} > {threshold}")
    return AsymptoticFit(float(slope), int(t), float(math.exp(intercept)), float(res))


def _lstsq_line(x, y):
    coeffs = np.polyfit(x, y, 1)
    pred = np.polyval(coeffs, x)
    rms = float(np.sqrt(np.mean((y - pred) ** 2)))
    return (float(coeffs[0]), float(coeffs[1])), rms


# ---------------------------------------------------------------------------
# Accumulation


def accumulation_test(V: VarietySpec, U: VarietySpec, m: int, bounds,
                      strong=0.9, weak=0.1, budget=None) -> dict:
    """Classify V inside U as a strongly/weakly/non-accumulating subvariety.

    Finite-data proxy for the limit definitions: ratio at the top bound
    above `strong` (and not decaying) means strong; minimum ratio over
    the top half above `weak` means weak; else none.
    """
    bounds = sorted(bounds)
    tv = _count_table(_check_subvariety(V, U, m, bounds[-1], budget), m, bounds, "V")
    tu = height_count_table(U, m, bounds, budget, name="U")
    ratios = [nv / nu if nu else 0.0 for nv, nu in zip(tv.counts, tu.counts)]
    top = ratios[len(ratios) // 2:]
    if ratios[-1] > strong and ratios[-1] >= top[0] - 1e-9:
        verdict = "strong"
    elif min(top) > weak:
        verdict = "weak"
    else:
        verdict = "none"
    return {"verdict": verdict, "ratios": ratios, "bounds": list(bounds),
            "thresholds": {"strong": strong, "weak": weak},
            "counts_sub": list(tv.counts), "counts_ambient": list(tu.counts)}


def _check_subvariety(V, U, m, B, budget):
    """Every counted point of V must satisfy U's defining conditions.

    Returns V's sorted heights from the same scan, so V's box is scanned
    once when its counts are needed too.
    """
    if V.nvars != U.nvars:
        raise NotASubvariety("ambient dimension mismatch")
    return _box_heights(V, m, B, budget, within=U)


# ---------------------------------------------------------------------------
# Reference asymptotics


def _zeta_value(s, cutoff=2000):
    """Riemann zeta at integer s >= 2: direct sum plus Euler-Maclaurin tail."""
    head = sum(k ** (-s) for k in range(1, cutoff))
    tail = cutoff ** (1 - s) / (s - 1) + 0.5 * cutoff ** (-s)
    return head + tail


def schanuel_check(n: int, B: int, budget=None, tolerance=None) -> dict:
    """N(P^n(Q), B) against the leading constant 2^n/zeta(n+1) * B^(n+1)."""
    from .varieties import projective_space

    count = count_points(projective_space(n), 1, B, budget)
    constant = 2**n / _zeta_value(n + 1)
    ratio = count / B ** (n + 1)
    rel = abs(ratio - constant) / constant
    report = {"n": n, "B": B, "count": count, "ratio": ratio,
              "constant": constant, "relative_error": rel}
    if tolerance is not None:
        report["verdict"] = "pass" if rel < tolerance else "fail"
    return report


def merge_product_counts(lam, mu, B, r=0, s=0, c_lam=1.0, c_mu=1.0) -> tuple:
    """N(B) = #{(i,j): lam_i * mu_j < B} for nondecreasing height multisets.

    Computed as sum_i N_mu(B / lam_i); compared against the product
    asymptotic C(r,s) c_lam c_mu B log^(r+s+1) B, where C is the Euler
    beta function value B(r+1, s+1).
    """
    lam = np.asarray(lam, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if len(lam) == 0 or len(mu) == 0:
        raise PrefixTooShort("empty height prefix")
    if lam[-1] * mu[-1] < B:
        # the prefixes provably cannot reach the bound, so pairs are missing
        raise PrefixTooShort(f"prefixes top out at {lam[-1]} * {mu[-1]} < {B}")
    active = lam[lam * mu[0] < B]
    # per-i counts by binary search on the sorted mu prefix
    count = int(np.searchsorted(mu, B / active, side="left").sum())
    C = math.gamma(r + 1) * math.gamma(s + 1) / math.gamma(r + s + 2)
    t = r + s + 1
    predicted = C * c_lam * c_mu * B * math.log(B) ** t
    report = {"count": count, "predicted": predicted, "t": t,
              "beta_constant": C,
              "ratio": count / predicted if predicted else float("inf")}
    return count, report
