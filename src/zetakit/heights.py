"""Rational points of bounded height on subvarieties of projective space.

Points of P^n(Q) are gcd-and-sign normalized integer vectors; the Weil
height of a normalized point is max|x_i|, raised to the bundle degree m
for O(m).  Counting is exhaustive enumeration of the height box
(`_box_heights`) on the chunk engine that walks finite fields
(`varieties._chunks` and `_Chunk`), here over the exact integers -H..H
(`_Integers`: int32 or int64 under a proven bound, Python ints above
it).  It walks only the half box (first nonzero coordinate positive),
one slab per leading coordinate, and bins every point of X by max|x_i|
with no gcd test: a chunk that X's conditions do not cut is binned from
the max|x_i| of its rows and of its columns alone, so no height grid is
built (`_chunk_counts`).  A slab is solved for the last coordinate y
after its lead in which some equation has degree 1 or 2, else degree 0
(`_plan_slab`), and only its other coordinates are walked: scanned
chunks and the roots |y| <= H go through one tally (`_count_slab`),
which masks the conditions left on them.  The budget is charged before
any walk with the points the slabs walk, at most the half box.  The
scan stays the solver's oracle, and counts within a second variety U
are always scanned, since NotASubvariety names the first bad point in
the scan's walk order.  Each point counted is g times a unique
normalized point and the conditions of X must be homogeneous, so the
histogram is 1 * P for the normalized counts P, which Moebius
inversion recovers: P = mu * histogram.  A count N(B) is the
cumulative sum of P up to the largest height H with H^m <= B, so no
per-point array is built except where `point_heights` asks for the
sorted heights.  Everything downstream (abscissa estimates, asymptotic
fits, accumulation classification) works off exact count tables.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import gfpoly, varieties
from .errors import (
    DegreeZero,
    InsufficientSamples,
    NotASubvariety,
    NotProjective,
    PoorFit,
    PrefixTooShort,
    ZeroInput,
    ZeroVector,
)
from .polynomials import Poly
from .varieties import VarietySpec, _check_budget, require_homogeneous


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
    if product != 1:
        raise AssertionError(f"product formula fails for {lam}: {factors}")
    return {"lambda": str(lam), "factors": {k: str(v) for k, v in factors.items()},
            "product": str(product)}


def _factorize(n):
    return Counter(gfpoly._prime_factors(n))


# ---------------------------------------------------------------------------
# Enumeration


def _height_root(B, m):
    """Largest integer H >= 0 with H^m <= B (0 when B < 1), in exact
    integer arithmetic: Newton steps down from a power of two above it."""
    if m < 1:
        raise DegreeZero(f"bundle degree must be at least 1, got {m}")
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


class _Integers:
    """The integers -H..H as a ring with BulkField's row interface, so the
    box scan runs on the chunk engine: index i is the integer i - H, and
    a row holds the integer itself.  Rows take the narrowest exact dtype
    for the bound S = max(2H, sum |c| * H^deg over every polynomial
    given), which bounds every partial product and sum the engine forms
    and every index: int32 when S < 2^31, int64 when S < 2^63, and
    Python ints (object) otherwise.  A point costs the budget 1 on the
    int32 and int64 tiers and ceil(bits / 63) of S on Python ints, whose
    arithmetic takes time by size.

    For each coefficient triple (a, b, c) of an equation a y^2 + b y + c
    that a slab solves for y, S also covers (2T)^2, T the sum of the
    three coefficients' bounds: that bounds the discriminant b^2 - 4ac
    and everything the root formula forms from it (sqrt, divide).
    """

    n = 1  # one int per row
    p = 0  # the characteristic: an integer coefficient is kept as it is

    def __init__(self, H, polys, quadratics=()):
        self.H, self.Q = H, 2 * H + 1

        def size(poly):
            return sum(abs(c) * H ** sum(exps) for exps, c in poly.terms.items())

        bound = max([2 * H] + [size(poly) for poly in polys]
                    + [(2 * sum(map(size, abc))) ** 2 for abc in quadratics])
        self.dtype = np.int32 if bound < 1 << 31 else np.int64 if bound < 1 << 63 else object
        self.cost = 1 if self.dtype is not object else -(-bound.bit_length() // 63)

    def digits_of(self, idx):
        return (idx - self.H).astype(self.dtype)

    def index_of(self, a):
        return a + self.H

    def const(self, value, shape):
        return np.full(shape, value, dtype=self.dtype)

    # exact arithmetic on rows
    add, neg, mul, scale, pow, eq = map(staticmethod, (
        operator.add, operator.neg, operator.mul, operator.mul, operator.pow, operator.eq))

    @staticmethod
    def is_zero(a):
        return a == 0

    def sqrt(self, a):
        """(is_square, root): where a is a perfect square, and there its
        root >= 0; root is unspecified elsewhere.  On int32 and int64 rows
        the root is the float64 square root rounded to the nearest integer:
        below 2^63 its error is under 2^-20, so at a square it is exact,
        and squaring it back in the row dtype decides.  Python ints take
        math.isqrt."""
        a0 = np.maximum(a, 0)
        if self.dtype is object:
            root = _isqrt(a0)
        else:
            root = np.rint(np.sqrt(a0, dtype=np.float64)).astype(self.dtype)
        return root * root == a, root

    @staticmethod
    def divide(a, b):
        """(exact, quotient): where b (nonzero) divides a, and the floor
        quotient a // b, which is a / b there."""
        q = a // b
        return q * b == a, q


_isqrt = np.frompyfunc(math.isqrt, 1, 1)


def _box_heights(X: VarietySpec, m: int, B, budget, within=None, solve=True):
    """The box scan: P[h] counts the normalized points of X with max|x_i|
    = h, for h = 0 .. H, the largest H with H^m <= B.  With within=U,
    each of those points must also satisfy U's conditions, and
    NotASubvariety names the first one that does not.

    Only the half box is walked (first nonzero coordinate positive), and
    without gcds: A[h] counts every such point of X with max|x_i| = h.
    Each is g times a unique normalized point, and X's conditions are
    homogeneous, so A = 1 * P for the normalized counts P, and P = mu * A.
    The conditions are evaluated on rows of the narrowest exact dtype
    (_Integers); the heights themselves are binned per chunk, over that
    chunk's range of heights only (_chunk_counts).

    Each slab, one per leading coordinate, is scanned or solved for one
    coordinate y (_plan_slab), and one tally (_count_slab) masks its
    candidates with the conditions of X left on them, bins them and
    checks U.  The budget is charged before any walk with the points the
    slabs walk, at most the half box ((2H+1)^(n+1) - 1) / 2, and again,
    as it is formed, with each full fiber that leftover conditions cut,
    since its points are evaluated; a point costs _Integers.cost.

    The solver is a fast path, not a replacement: the scan, forced with
    solve=False, stays the oracle its tests compare with, and an
    independent second route for these counts must not use it, or both
    routes would share the code they check.  A count within U is always
    scanned, since its NotASubvariety names the first bad point in the
    scan's lex walk order, which the solver's roots do not follow.
    """
    specs = [X] if within is None else [X, within]
    for Y in specs:
        if Y.ambient != "projective":
            raise NotProjective("height counting is defined on projective specs")
        require_homogeneous(Y)
    H = _height_root(B, m)
    slabs = [_plan_slab(X, within, lead, solve) for lead in reversed(range(X.nvars))]
    ring = _Integers(H, [e for Y in specs for e in Y.equations + Y.inequations],
                     [s.coeffs for s in slabs if s.y is not None and not s.coeffs[0].is_zero()])
    spent = 0

    def charge(points):
        nonlocal spent
        spent += ring.cost * points
        _check_budget(spent, budget)

    charge(sum(H * ring.Q ** (len(s.walked) - 1) for s in slabs))
    total = (2 * H + 1) ** X.nvars
    hist = np.zeros(H + 1, dtype=np.int32 if total < 1 << 31 else np.int64)
    for slab in slabs:
        _count_slab(slab, within, ring, hist, budget, charge)
    prim = _mobius_inversion(hist)
    if prim.min() < 0:
        raise AssertionError("negative primitive count")
    return prim


class _Slab(NamedTuple):  # builds faster at import than a frozen dataclass
    """The points of the half box with x_0 .. x_{lead-1} = 0 and x_lead in
    [1, H].  walked are the coordinates the slab walks, lead first; y is
    the coordinate solved for, or None when the slab is scanned, and
    coeffs the coefficients (a, b, c) of the equation solved, as
    a y^2 + b y + c.  own are X's (equations, inequations) with those
    zeros substituted, nonzero and left to the tally (the equation solved
    is not), and outer U's (None without U)."""

    lead: int
    walked: tuple
    own: tuple
    outer: tuple
    y: int | None = None
    coeffs: tuple = ()


def _plan_slab(X, within, lead, solve=True):
    """The slab of leading coordinate lead.  Without U, and unless
    solve=False, it is solved for the last coordinate y after lead in
    which some equation e of X has degree 1 or 2 there, or, failing that,
    degree 0 (e does not involve y: the rows where e vanishes are full
    fibers, the others have no root).  Otherwise it is scanned."""
    zeros = dict.fromkeys(range(lead), 0)
    own, outer = [None if Y is None else ([e.substitute(zeros) for e in Y.equations],
                                          [h.substitute(zeros) for h in Y.inequations])
                  for Y in (X, within)]
    coords = tuple(range(lead, X.nvars))
    eqs, ineqs = [e for e in own[0] if not e.is_zero()], own[1]
    for degrees in ((1, 2), (0,)) if solve and within is None else ():
        for y in reversed(coords[1:]):
            for e in eqs:
                coeffs = varieties._y_coefficients(e, y)
                if max(coeffs) in degrees:
                    return _Slab(lead, tuple(v for v in coords if v != y),
                                 ([q for q in eqs if q is not e], ineqs), outer, y,
                                 tuple(Poly(e.nvars, coeffs.get(k)) for k in (2, 1, 0)))
    return _Slab(lead, coords, (eqs, ineqs), outer)


def _walk(slab, ring, budget):
    """(chunk, a, b) for each chunk of the slab's walk (varieties._chunks,
    x_lead in [1, H]): a is the (R, 1) int64 max |x| of each prefix's
    leading coordinates (0 when there are none) and b the (1, T) |x| of
    the last coordinate, both fresh arrays."""
    for chunk in varieties._chunks(ring, slab.walked, budget,
                                   {slab.lead: (ring.H + 1, ring.Q)}):
        *cols, last = [np.abs(d).astype(np.int64, copy=False) for d in chunk.elems.values()]
        yield (chunk, functools.reduce(np.maximum, cols, np.zeros((chunk.shape[0], 1), np.int64)),
               last)


def _count_slab(slab, within, ring, hist, budget, charge):
    """Add into hist the heights of the points of X in the slab, walked in
    lex order by the chunk engine.  A function of its own, so that the
    last chunk's arrays are freed before Moebius inversion.

    One tally takes each grid of candidates of height max(a_i, b_j): a
    scanned chunk (a_i the max |x| of a prefix's leading coordinates, b_j
    = |x| of its last one); a solved chunk's roots y (_roots), as one row
    of heights max(|x|, |y|); and the points x where every y is a root,
    times -H..H.  It masks the conditions of X left on the slab, and a
    mask that flags few points is compacted once (np.flatnonzero), for
    the binning (_chunk_counts) and for U's check alike.
    """
    H, y, cut = ring.H, slab.y, any(slab.own)

    def tally(cands, a, b):
        inside = None
        if cut:
            inside = cands.mask(*slab.own)
            flagged = np.count_nonzero(inside)
            if not flagged:
                return
            if flagged == inside.size:
                inside = None
            elif 8 * flagged < inside.size:  # a gathered point costs ~8 grid points
                inside = np.flatnonzero(inside)
        lo, counts = _chunk_counts(a, b, inside)
        hist[lo:lo + len(counts)] += counts
        if slab.outer is not None:
            _check_within(within, slab.outer, cands, inside, slab.lead, H)

    for chunk, a, b in _walk(slab, ring, budget):
        if y is None:
            tally(chunk, a.ravel(), b.ravel())
            continue
        h0 = np.maximum(a, b).ravel()  # (R, 1) and (1, T) span the chunk
        rows, ys, full = _roots(ring, *(chunk.eval(q) for q in slab.coeffs))
        if len(rows):  # a solved slab has no U, so uncut candidates are not formed
            tally(chunk.select(rows, {y: ys}) if cut else None, np.zeros(1, np.int64),
                  np.maximum(h0[rows], np.abs(ys).astype(np.int64)))
        if len(full):
            if cut:  # the grid's points are evaluated one by one
                charge(len(full) * ring.Q)
            xs = chunk.select(full).elems
            tally(varieties._Chunk(ring, {**{v: d.T for v, d in xs.items()},
                                          y: ring.digits_of(np.arange(ring.Q))[None]},
                                   (len(full), ring.Q)),
                  h0[full], np.abs(np.arange(-H, H + 1)))


def _roots(ring, a, b, c):
    """(rows, ys, full) for flat rows of the coefficients of a y^2 + b y + c:
    the integer roots ys, |y| <= H, at the rows given (a row once per
    root), and the rows where a = b = c = 0.  The roots are (-b +- s) / 2a
    with s^2 = b^2 - 4ac where a != 0 (the second where s > 0), and -c / b
    where a = 0 != b, each kept where s and the quotient are integers."""
    zero = ring.is_zero(a)
    quad, lin = np.flatnonzero(~zero), np.flatnonzero(zero)
    # each candidate root is a quotient num / den, kept where it is exact
    A, Bq = a[quad], b[quad]
    D = Bq * Bq - 4 * (A * c[quad])
    square, s = ring.sqrt(D)
    one = np.flatnonzero(square)
    two = one[D[one] > 0]
    at = np.concatenate([one, two])
    Bl, Cl = b[lin], c[lin]
    nonzero = ~ring.is_zero(Bl)
    single = np.flatnonzero(nonzero)
    rows = np.concatenate([quad[at], lin[single]])
    exact, ys = ring.divide(np.concatenate([np.concatenate([s[one], -s[two]]) - Bq[at],
                                            -Cl[single]]),
                            np.concatenate([2 * A[at], Bl[single]]))
    keep = exact & (np.abs(ys) <= ring.H)
    return rows[keep], ys[keep], lin[~nonzero & ring.is_zero(Cl)]


def _chunk_counts(a, b, inside):
    """(lo, counts): counts[h - lo] is the number of grid points (i, j)
    with max(a_i, b_j) = h, of those that inside flags, or of all when it
    is None.  inside is a flat bool mask of the grid (row-major), or the
    flat indices of a few flagged points.  No height is below
    lo = max(min a, min b), so a and b are clipped at lo, in place, and
    counts spans only the chunk's own heights, never 0..H.

    Without a mask, the two marginals give the counts: a point has height
    h when a_i = h and b_j <= h, or when b_j = h and a_i < h, and above
    the shorter marginal's range only the other side's values occur.  A
    few flagged points are gathered by index; a denser mask weights each
    a_i by its row's flagged points with b_j <= a_i and each b_j by its
    column's others, two sums over a bool grid.
    """
    mins = a.min(), b.min()
    lo = int(max(mins))
    for v, vmin in zip((a, b), mins):
        v -= lo
        if vmin < lo:
            np.maximum(v, 0, out=v)
    if inside is None:
        ca, cb = np.bincount(a), np.bincount(b)
        k = min(len(ca), len(cb))
        head = ca[:k] * np.cumsum(cb[:k]) + cb[:k] * (np.cumsum(ca[:k]) - ca[:k])
        counts, other = (ca, len(b)) if len(ca) > len(cb) else (cb, len(a))
        counts *= other
        counts[:k] = head
        return lo, counts
    if inside.dtype != bool:
        i, j = np.divmod(inside, len(b))
        return lo, np.bincount(np.maximum(a[i], b[j]))
    grid = inside.reshape(len(a), len(b))
    low = grid & (b <= a[:, None])  # flagged points whose height is a_i
    size = int(max(a.max(), b.max())) + 1
    # float64 weights count exactly: a chunk has far fewer than 2^53 points
    counts = (np.bincount(a, low.sum(axis=1), size)
              + np.bincount(b, (grid ^ low).sum(axis=0), size))
    return lo, counts.astype(np.int64)


def _check_within(U, outer, chunk, inside, lead, H):
    """Raise NotASubvariety at the first point of the chunk, in walk order,
    that lies on X (inside, as _chunk_counts takes it) but violates one of
    U's conditions, given as (equations, inequations) with the slab's
    zeros substituted.  U is evaluated on X's points only, on every point
    of the chunk when inside is None.

    That point is normalized: had it a common factor g > 1, its quotient
    by g would violate the same homogeneous condition earlier in the slab.
    """
    if inside is not None:
        chunk = chunk.select(np.flatnonzero(inside) if inside.dtype == bool else inside)
    bad = ~chunk.mask(*outer)
    if not bad.any():
        return
    point = [0] * lead + [i - H for i in chunk.point(int(np.argmax(bad)))]
    if math.gcd(*point) != 1:
        raise AssertionError(f"first violating point {point} is not normalized")
    for polys, vanish in ((U.equations, True), (U.inequations, False)):
        for poly in polys:
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
    h_{O(m)} <= B, one per point."""
    counts = _box_heights(X, m, B, budget)
    return np.repeat(np.arange(len(counts)), counts)


def count_points(X: VarietySpec, m: int, B, budget=None) -> int:
    """Number of rational points of X with h_{O(m)} <= B, exactly."""
    return int(_box_heights(X, m, B, budget).sum())


# ---------------------------------------------------------------------------
# Count tables and estimators


@dataclass(frozen=True)
class HeightCountTable:
    variety: str
    bundle_degree: int
    bounds: tuple
    counts: tuple

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.bounds, self.bounds[1:])):
            raise AssertionError(f"bounds {self.bounds} are not increasing")
        if any(a > b for a, b in zip(self.counts, self.counts[1:])):
            raise AssertionError(f"counts {self.counts} decrease")

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
    return _count_table(_box_heights(X, m, bounds[-1], budget), m, bounds, name)


def _count_table(prim, m, bounds, name):
    """Counts from the normalized counts per height of a scan at a bound
    at least max(bounds): h^m <= b iff h <= root(b, m)."""
    total = np.cumsum(prim)
    counts = tuple(int(total[_height_root(b, m)]) for b in bounds)
    return HeightCountTable(name, m, tuple(bounds), counts)


def dyadic_bounds(top):
    """Geometric B-grid ending at `top`: the distinct max(1, top // 2^j),
    j < 8."""
    out = []
    b = top
    for _ in range(8):
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


def asymptotic_fit(tbl: HeightCountTable) -> AsymptoticFit:
    """Best fit N(B) ~ c B^beta (log B)^t over t = 0, 1, 2, 3.

    Least squares in log space on the top half of the grid; the residual
    is the rms log misfit and must come in under 0.05.
    """
    pairs = _top_half(tbl)
    if any(b <= 1 for b, _ in pairs):
        raise InsufficientSamples("need bounds > 1 for log-log fitting")
    lb = np.log([b for b, _ in pairs])
    ln = np.log([float(n) for _, n in pairs])
    llb = np.log(lb)
    best = None
    for t in range(4):
        y = ln - t * llb
        (slope, intercept), res = _lstsq_line(lb, y)
        if best is None or res < best[0] - 1e-9:  # ties go to the smaller t
            best = (res, t, slope, intercept)
    res, t, slope, intercept = best
    if res > 0.05:
        raise PoorFit(f"rms log residual {res:.4f} > 0.05")
    return AsymptoticFit(float(slope), int(t), float(math.exp(intercept)), float(res))


def _lstsq_line(x, y):
    coeffs = np.polyfit(x, y, 1)
    pred = np.polyval(coeffs, x)
    rms = float(np.sqrt(np.mean((y - pred) ** 2)))
    return (float(coeffs[0]), float(coeffs[1])), rms


# ---------------------------------------------------------------------------
# Accumulation


def accumulation_test(V: VarietySpec, U: VarietySpec, m: int, bounds,
                      budget=None) -> dict:
    """Classify V inside U as a strongly/weakly/non-accumulating subvariety.

    Finite-data proxy for the limit definitions: ratio at the top bound
    above `strong` (and not decaying) means strong; minimum ratio over
    the top half above `weak` means weak; else none.
    """
    strong, weak = 0.9, 0.1
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

    Returns V's normalized counts per height from the same scan, so V's
    box is scanned once when its counts are needed too.
    """
    if V.nvars != U.nvars:
        raise NotASubvariety("ambient dimension mismatch")
    return _box_heights(V, m, B, budget, within=U)


# ---------------------------------------------------------------------------
# Reference asymptotics


def _zeta_value(s):
    """Riemann zeta at integer s >= 2: direct sum plus Euler-Maclaurin tail."""
    cutoff = 2000
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
