"""Rational points of bounded height on subvarieties of projective space.

Points of P^n(Q) are gcd-and-sign normalized integer vectors; the Weil
height of a normalized point is max|x_i|, raised to the bundle degree m
for O(m).  Counting is exhaustive enumeration of the height box by one
vectorized, chunked scan (`_box_heights`).  It walks only the half box
(first nonzero coordinate positive), evaluates polynomials exactly (in
int64 under a proven bound, over Python ints above it), and bins every
point of X by max|x_i| with no gcd test.  Each such point is g times a
unique normalized point and the conditions of X must be homogeneous, so
the histogram is 1 * P for the normalized counts P, which Moebius
inversion recovers: P = mu * histogram.  Everything downstream (abscissa
estimates, asymptotic fits, accumulation classification) works off exact
count tables.
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
from .varieties import VarietySpec, default_budget, require_homogeneous

_CHUNK = 1 << 20
# trailing coordinates of a block span at most this many values, or one
# coordinate when a single one spans more
_TRAIL = 1 << 10


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
    """Largest integer H >= 0 with H^m <= B (0 when B < 1), in exact
    integer arithmetic: Newton steps down from a power of two above it."""
    if m < 1:
        raise ValueError(f"bundle degree must be at least 1, got {m}")
    B = int(B)  # H^m is an integer, so a fractional part never matters
    if B < 1:
        return 0
    if m == 1:
        return B
    x = 1 << -(-B.bit_length() // m)
    while True:
        y = ((m - 1) * x + B // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def _row_evaluator(poly, H):
    """Evaluator of an integer polynomial on coordinate columns with
    |x_i| <= H.  It works in int64 when sum |c| * H^deg < 2^63, which
    bounds every partial product and sum, and over Python ints otherwise.

    Columns are arrays that broadcast against each other (None for a
    coordinate the polynomial does not use).  Factors of equal shape are
    multiplied first, so only the last product of a term has the shape
    of the whole block.
    """
    big = sum(abs(c) * H ** sum(exps) for exps, c in poly.terms.items()) >= 1 << 63
    dtype = object if big else np.int64
    terms = [(c, [(i, e) for i, e in enumerate(exps) if e])
             for exps, c in poly.terms.items()]

    def evaluate(cols):
        total = np.zeros((), dtype=dtype)
        for c, factors in terms:
            groups = {}
            for i, e in factors:
                f = cols[i].astype(dtype, copy=False) ** e
                groups[f.shape] = groups[f.shape] * f if f.shape in groups else f
            v = np.array(c, dtype=dtype)
            for g in sorted(groups.values(), key=np.size):
                v = v * g
            total = total + v
        return total

    return evaluate


def _conditions(X, H, zeros):
    """(poly, evaluator, must vanish) for each equation and inequation,
    the evaluator taking the coordinates in `zeros` to be 0."""
    return [(e, _row_evaluator(e.substitute(zeros), H), vanish)
            for polys, vanish in ((X.equations, True), (X.inequations, False))
            for e in polys]


def _holds(conditions, cols):
    """Mask of the points of the block where every condition holds (True
    when there are none); it may broadcast to the block's shape."""
    mask = True
    for _, ev, vanish in conditions:
        value = ev(cols)
        mask = mask & ((value == 0) if vanish else (value != 0))
    return mask


def _box_heights(X: VarietySpec, m: int, B, budget, within=None):
    """The box scan: sorted max|x_i| over the normalized points of X with
    h_{O(m)} <= B.  With within=U, each of those points must also satisfy
    U's conditions, and NotASubvariety names the first one that does not.

    Only the half box is walked (first nonzero coordinate positive), and
    without gcds: A[h] counts every such point of X with max|x_i| = h.
    Each is g times a unique normalized point, and X's conditions are
    homogeneous, so A = 1 * P for the normalized counts P, and P = mu * A.
    """
    budget = budget if budget is not None else default_budget()
    for Y in (X, within):
        if Y is not None:
            if Y.ambient != "projective":
                raise ValueError("height counting is defined on projective specs")
            require_homogeneous(Y)
    H = _height_root(B, m)
    nv = X.nvars
    total = (2 * H + 1) ** nv
    if total > budget:
        raise BudgetExceeded(total, budget)
    hist = np.zeros(H + 1, dtype=np.int32 if total < 1 << 31 else np.int64)
    for lead in reversed(range(nv)):
        _scan_slab(X, within, H, lead, hist)
    prim = _mobius_inversion(hist)
    assert prim.min() >= 0, "negative primitive count"
    heights = np.flatnonzero(prim)
    return np.repeat(heights, prim[heights])


def _scan_slab(X, within, H, lead, hist):
    """Add into hist the heights of the points of X in the slab where
    x_0 .. x_{lead-1} = 0 and x_lead is in [1, H], walked in lex order.

    A block is a run of prefixes (x_lead and the free coordinates before
    the trailing ones, one (rows, 1) column each) times every value of
    the trailing coordinates (one (1, T) column each).
    """
    nv, side = X.nvars, 2 * H + 1
    zeros = dict.fromkeys(range(lead), 0)
    own = _conditions(X, H, zeros)
    outer = _conditions(within, H, zeros) if within is not None else []
    free = nv - 1 - lead
    t = 0
    while t < free and side <= _CHUNK and side ** (t + 1) <= max(side, _TRAIL):
        t += 1
    T = side**t
    idx = np.arange(T, dtype=np.int64)
    tail = []
    for _ in range(t):
        idx, digit = np.divmod(idx, side)
        tail.insert(0, (digit - H).reshape(1, T))
    tail_max = np.abs(tail).max(axis=0) if tail else None
    prefixes = H * side ** (free - t)
    rows = max(1, _CHUNK // T)
    for start in range(0, prefixes, rows):
        idx = np.arange(start, min(start + rows, prefixes), dtype=np.int64)[:, None]
        head = []
        for _ in range(free - t):
            idx, digit = np.divmod(idx, side)
            head.insert(0, digit - H)
        head.insert(0, idx + 1)
        cols = [None] * lead + head + tail
        shape = (len(idx), T)
        mask = _holds(own, cols)
        head_max = head[0]  # x_lead > 0
        for col in head[1:]:
            head_max = np.maximum(head_max, np.abs(col))
        lo = int(head_max.min())  # heights in this block start here
        h = head_max - lo if tail_max is None else np.maximum(head_max - lo, tail_max - lo)
        if mask is not True:
            h = np.broadcast_to(h, shape)[np.broadcast_to(mask, shape)]
        counts = np.bincount(h.ravel())
        hist[lo:lo + len(counts)] += counts
        if outer:
            _check_within(outer, cols, shape, mask, lead)


def _check_within(outer, cols, shape, mask, lead):
    """Raise NotASubvariety at the first point of the block, in walk order,
    that satisfies X (mask) but violates one of U's conditions.

    That point is normalized: had it a common factor g > 1, its quotient
    by g would violate the same homogeneous condition earlier in the slab.
    """
    full = [None if c is None else np.broadcast_to(c, shape) for c in cols]
    if mask is True:
        bad = ~np.broadcast_to(_holds(outer, cols), shape).ravel()
    else:  # evaluate U only where X holds
        sel = np.flatnonzero(np.broadcast_to(mask, shape))
        i, j = np.divmod(sel, shape[1])
        kept = [None if c is None else c[i, j] for c in full]
        bad = ~np.broadcast_to(_holds(outer, kept), sel.shape)
    if not bad.any():
        return
    first = int(np.argmax(bad))
    flat = first if mask is True else int(sel[first])
    i, j = divmod(flat, shape[1])
    point = [0] * lead + [int(c[i, j]) for c in full[lead:]]
    assert math.gcd(*point) == 1, f"first violating point {point} is not normalized"
    for poly, _, vanish in outer:
        if (poly.eval_int(point) == 0) != vanish:
            raise NotASubvariety(f"point {point} violates "
                                 f"{poly!r}{'' if vanish else ' != 0'}")
    raise AssertionError(f"point {point} flagged but satisfies every condition")


def _mobius_inversion(A):
    """P = mu * A (Dirichlet convolution on indices 1..H), in place.

    mu is the Euler product of (1 - T_p), where T_p moves the value at h
    to p*h.  A prime p <= sqrt(H) is one slice update.  The primes above
    sqrt(H) touch disjoint index sets and read only indices below sqrt(H),
    which none of them writes, so they go together: one gather per
    multiplier j < sqrt(H).
    """
    H = len(A) - 1
    if H < 2:
        return A
    root = math.isqrt(H)
    sieve = np.ones(H + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve)
    del sieve
    for p in primes[primes <= root].tolist():
        A[p::p] -= A[1:H // p + 1].copy()  # the read overlaps the write
    large = primes[primes > root]
    for j in range(1, H // (root + 1) + 1):
        np.subtract.at(A, j * large[:np.searchsorted(large, H // j, side="right")], A[j])
    return A


def point_heights(X: VarietySpec, m: int, B, budget=None):
    """Sorted max|x_i| values over the normalized points of X with height
    h_{O(m)} <= B; the basis for every count below."""
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
    """Counts from sorted max|x_i| values: h^m <= b iff h <= root(b, m)."""
    roots = np.array([_height_root(b, m) for b in bounds], dtype=np.int64)
    counts = tuple(int(c) for c in np.searchsorted(hs, roots, side="right"))
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
