"""Variety descriptions and exact point enumeration over finite fields.

A VarietySpec is an affine or projective ambient space with integer
polynomial equations (= 0), inequations (!= 0), an optional morphism f
to the affine line (affine ambient only) and an optional base map.

Constraint-disjoint variable blocks are handled independently: counts
multiply and character-exponent histograms convolve mod p, which keeps
product varieties inside the budget.  Per block, in order of preference:
  * no constraints: a power of the field size; for linearized or (odd p)
    quadratic f, an exact histogram without enumeration;
  * one variable: roots via gcd with x^Q - x, walked over the base field
    when f is nonzero and they all lie there;
  * two variables with separable equations: key matching, never Q^2;
  * otherwise the chunked engine, under a candidate budget.

Every point walk over a finite field goes through one chunk loop
(`_chunks`) and one evaluator (`_Chunk`): block tallies, the pair scan,
fiber histograms over a base map and the membership walks behind cover
checks.  `PointEnumeration` is the scalar reference that the tests
compare them against; no production path uses it.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import gfpoly
from .bulk import BulkField
from .cyclofield import (
    AdditiveCharacter,
    FieldSpec,
    build_field,
    embedding,
    trace_to_prime_int,
)
from .cyclotomic import Cyclotomic
from .errors import (
    BudgetExceeded,
    NonHomogeneous,
    ProjectiveWithNonzeroF,
    TallyTooShallow,
)
from .polynomials import Poly

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 20


def default_budget():
    return int(os.environ.get("ZETAKIT_BUDGET", DEFAULT_BUDGET))


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class VarietySpec:
    ambient: str  # 'affine' or 'projective'
    dim: int  # affine coordinates, or n for P^n
    equations: tuple
    inequations: tuple
    f: Poly = None
    base_map: tuple = None

    @property
    def nvars(self):
        return self.dim if self.ambient == "affine" else self.dim + 1

    def canonical_key(self):
        return (
            self.ambient,
            self.dim,
            tuple(sorted(e.canonical_key() for e in self.equations)),
            tuple(sorted(h.canonical_key() for h in self.inequations)),
            self.f.canonical_key() if self.f is not None else None,
            tuple(u.canonical_key() for u in self.base_map) if self.base_map else None,
        )

    def to_json(self):
        out = {
            "ambient": {"type": self.ambient, "dim": self.dim},
            "equations": [e.to_string() for e in self.equations],
            "inequations": [h.to_string() for h in self.inequations],
        }
        if self.f is not None and not self.f.is_zero():
            out["f"] = self.f.to_string()
        if self.base_map is not None:
            out["base_map"] = [u.to_string() for u in self.base_map]
        return out

    def __repr__(self):
        return f"VarietySpec({json.dumps(self.to_json())})"


def affine(dim, equations=(), inequations=(), f=None, base_map=None):
    eqs = tuple(_as_poly(e, dim) for e in equations)
    ineqs = tuple(_as_poly(h, dim) for h in inequations)
    fp = _as_poly(f, dim) if f is not None else Poly(dim)
    bm = tuple(_as_poly(u, dim) for u in base_map) if base_map is not None else None
    return VarietySpec("affine", dim, eqs, ineqs, fp, bm)


def projective(n, equations=(), inequations=()):
    nv = n + 1
    eqs = tuple(_as_poly(e, nv) for e in equations)
    ineqs = tuple(_as_poly(h, nv) for h in inequations)
    return VarietySpec("projective", n, eqs, ineqs, None, None)


def _as_poly(e, nvars):
    if isinstance(e, Poly):
        if e.nvars != nvars:
            raise ValueError("variable count mismatch in spec polynomial")
        return e
    if isinstance(e, int):
        return Poly.constant(nvars, e)
    return Poly.parse(e, nvars)


def spec_from_json(data):
    amb = data["ambient"]
    if amb["type"] == "affine":
        return affine(
            amb["dim"],
            data.get("equations", ()),
            data.get("inequations", ()),
            data.get("f"),
            data.get("base_map"),
        )
    if amb["type"] == "projective":
        return projective(amb["dim"], data.get("equations", ()), data.get("inequations", ()))
    raise ValueError(f"unknown ambient type {amb['type']!r}")


def load_spec(path):
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".toml"):
        import tomllib

        data = tomllib.loads(text)
    else:
        data = json.loads(text)
    return spec_from_json(data)


def product_spec(X: VarietySpec, Y: VarietySpec) -> VarietySpec:
    """X x Y with f = f_X + f_Y (affine ambients only)."""
    if X.ambient != "affine" or Y.ambient != "affine":
        raise ValueError("product_spec requires affine ambients")
    nX, nY = X.dim, Y.dim
    n = nX + nY
    shift = {i: i + nX for i in range(nY)}
    eqs = [e.rename(dict(enumerate(range(nX))), n) for e in X.equations]
    eqs += [e.rename(shift, n) for e in Y.equations]
    ineqs = [h.rename(dict(enumerate(range(nX))), n) for h in X.inequations]
    ineqs += [h.rename(shift, n) for h in Y.inequations]
    f = X.f.rename(dict(enumerate(range(nX))), n) + Y.f.rename(shift, n)
    return VarietySpec("affine", n, tuple(eqs), tuple(ineqs), f, None)


# -- standard examples used throughout the test corpus ----------------------


def affine_line(f=None):
    return affine(1, f=f)


def affine_space(d, f=None):
    return affine(d, f=f)


def gm(f=None):
    return affine(1, inequations=["x0"], f=f)


def point_spec(value=0, f=None):
    return affine(1, equations=[f"x0-{value}" if value else "x0"], f=f)


def circle(f=None):
    return affine(2, equations=["x0^2+x1^2-1"], f=f)


def torus2(f=None):
    """A^2 minus the coordinate cross {x*y = 0}."""
    return affine(2, inequations=["x0*x1"], f=f)


def projective_space(n):
    return projective(n)


# ---------------------------------------------------------------------------
# Budget plumbing


def _check_budget(estimate, budget):
    if estimate > budget:
        raise BudgetExceeded(estimate, budget)


def _extension_spec(F: FieldSpec, m: int) -> FieldSpec:
    # building the field is cheap (irreducibility scan, no tables);
    # enumeration cost is gated separately wherever elements are streamed
    return build_field(F.p, F.k * m, max_bits=64)


# ---------------------------------------------------------------------------
# Reduction mod p and component decomposition


def _reduce_polys(spec: VarietySpec, p):
    """Reduce equations/inequations/f mod p; detect trivially (non)empty specs.

    Returns (eqs, ineqs, f, empty) with constant constraints folded away.
    """
    eqs, ineqs = [], []
    empty = False
    for e in spec.equations:
        r = Poly(e.nvars, {k: c % p for k, c in e.terms.items()})
        if r.is_zero():
            continue
        if not r.variables():  # nonzero constant == 0 is unsatisfiable
            empty = True
        eqs.append(r)
    for h in spec.inequations:
        r = Poly(h.nvars, {k: c % p for k, c in h.terms.items()})
        if r.is_zero():  # 0 != 0 is unsatisfiable
            empty = True
            continue
        if not r.variables():
            continue  # nonzero constant != 0 always holds
        if len(r.terms) == 1:
            # a monomial is nonzero iff each of its variables is, so split
            # the condition; this keeps independent variables decoupled
            (exps, _c), = r.terms.items()
            for i, e in enumerate(exps):
                if e:
                    ineqs.append(Poly.variable(r.nvars, i))
            continue
        ineqs.append(r)
    f = spec.f if spec.f is not None else Poly(spec.nvars)
    f = Poly(f.nvars, {k: c % p for k, c in f.terms.items()})
    return eqs, ineqs, f, empty


def _components(nvars, eqs, ineqs, f):
    """Split variables into constraint-disjoint blocks.

    Blocks are joined by shared equations/inequations and by monomials of f
    that straddle blocks (so exponent histograms convolve exactly).  The
    constant term of f is returned separately.
    """
    parent = list(range(nvars))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    groups = [poly.variables() for poly in eqs + ineqs]
    f_const = f.terms.get((0,) * nvars, 0)
    for exps in f.terms:
        used = {i for i, n in enumerate(exps) if n}
        if used:
            groups.append(used)
    for used in groups:
        used = sorted(used)
        for a, b in zip(used, used[1:]):
            union(a, b)
    comps = {}
    for v in range(nvars):
        comps.setdefault(find(v), []).append(v)
    out = []
    for vs in sorted(comps.values()):
        comp_eqs = [e for e in eqs if e.variables() and e.variables() <= set(vs)]
        comp_ineqs = [h for h in ineqs if h.variables() <= set(vs) and h.variables()]
        comp_f = Poly(nvars, {k: c for k, c in f.terms.items()
                              if {i for i, n in enumerate(k) if n} <= set(vs)
                              and any(k)})
        out.append((vs, comp_eqs, comp_ineqs, comp_f))
    return out, f_const


# ---------------------------------------------------------------------------
# Counting


def count_points_ff(X: VarietySpec, F: FieldSpec, m: int = 1, budget=None) -> int:
    """#X(F_{q^m}), exact."""
    budget = budget if budget is not None else default_budget()
    if X.ambient == "projective":
        return _count_projective(X, F, m, budget)
    return _count_affine(X, F, m, budget)


def _count_projective(X, F, m, budget):
    total = 0
    for j, chart in _projective_charts(X):
        cell = VarietySpec("affine", max(X.dim - j, 1),
                           tuple(map(chart, X.equations)),
                           tuple(map(chart, X.inequations)), None, None)
        if j < X.dim:
            total += _count_affine(cell, F, m, budget)
        elif not _reduce_polys(cell, F.p)[3]:
            total += 1  # the point (0:...:0:1); its constraints are constants
    return total


def require_homogeneous(X):
    """Raise NonHomogeneous unless every condition of X is homogeneous, so
    that it defines a subset of projective space."""
    for e in X.equations + X.inequations:
        if not e.is_homogeneous():
            raise NonHomogeneous(f"{e!r} is not homogeneous")


def _projective_charts(X):
    """The affine charts of P^n, in the order PointEnumeration walks them.

    Chart j is x_i = 0 for i < j and x_j = 1.  Yields (j, chart), where
    chart(poly) restricts a polynomial to the free coordinates
    x_{j+1}, ..., x_n renumbered from 0 (one dummy variable when none is
    free).
    """
    require_homogeneous(X)
    n = X.dim
    for j in range(n + 1):
        fixed = {**dict.fromkeys(range(j), 0), j: 1}
        mapping = {i: max(i - j - 1, 0) for i in range(n + 1)}

        def chart(poly, fixed=fixed, mapping=mapping, nv=max(n - j, 1)):
            return poly.substitute(fixed).rename(mapping, nv)

        yield j, chart


def _count_affine(X, F, m, budget):
    p = F.p
    eqs, ineqs, f, empty = _reduce_polys(X, p)
    if empty:
        return 0
    n_ext = F.k * m
    Q = p**n_ext
    comps, _ = _components(X.nvars, eqs, ineqs, Poly(X.nvars))
    total = 1
    for vs, c_eqs, c_ineqs, _f in comps:
        total *= _count_component(vs, c_eqs, c_ineqs, F, m, Q, budget)
        if total == 0:
            return 0
    return total


def _count_component(vs, eqs, ineqs, F, m, Q, budget):
    p = F.p
    n_ext = F.k * m
    r = len(vs)
    if not eqs and not ineqs:
        return Q**r
    if r == 1:
        return _count_univariate(vs[0], eqs, ineqs, p, n_ext, Q)
    if r == 2 and eqs:
        E = _extension_spec(F, m)
        match, _ = _pair_match(vs, eqs, ineqs, BulkField(E), budget)
        if match is not None:
            return match.count
    E = _extension_spec(F, m)
    return int(_enumerate_block(vs, eqs, ineqs, None, None, E, budget).sum())


def _count_univariate(var, eqs, ineqs, p, n_ext, Q):
    """Roots in GF(p^n_ext) of the equation system minus inequation loci."""
    bad = _univariate_product(ineqs, var, p)
    if bad is None:
        return 0
    g = _univariate_gcd(eqs, var, p)
    if g:
        if gfpoly.deg(g) == 0:
            return 0
        roots = _distinct_root_poly(g, p, n_ext)
        return gfpoly.deg(roots) - gfpoly.deg(gfpoly.gcd(roots, bad, p))
    # no equations (or all vanished identically): Q minus the inequation roots
    if bad == (1,):
        return Q
    return Q - gfpoly.root_count(bad, p, n_ext)


def _univariate_gcd(eqs, var, p):
    """gcd of the equations as polynomials in var over GF(p); None if none."""
    g = None
    for e in eqs:
        u = e.to_univariate(var, p)
        g = u if g is None else gfpoly.gcd(g, u, p)
    return g


def _univariate_product(ineqs, var, p):
    """Product of the inequations in var over GF(p); None when one of them
    vanishes identically."""
    prod = (1,)
    for h in ineqs:
        hu = h.to_univariate(var, p)
        if not hu:
            return None
        prod = gfpoly.mul(prod, hu, p)
    return prod


def _distinct_root_poly(g, p, n_ext):
    """gcd(x^Q - x, g): squarefree product of the linear factors over GF(p^n)."""
    x = (0, 1)
    xq = gfpoly.powmod(x, p**n_ext, g, p)
    return gfpoly.gcd(gfpoly.sub(xq, x, p), g, p)


# ---------------------------------------------------------------------------
# The chunked enumeration engine


class _Chunk:
    """One chunk of a block walk: BulkField rows per variable, with a power
    cache per variable, and the evaluator of polynomials over them."""

    def __init__(self, B, rows, elems):
        self.bulk = B
        self.rows = rows
        self.elems = elems
        self.powers = {v: {1: d} for v, d in elems.items()}

    def eval(self, poly):
        """BulkField rows of an integer polynomial's values at every row."""
        B = self.bulk
        tot = None
        for exps, c in poly.terms.items():
            c %= B.p
            if c == 0:
                continue
            val = None
            for v, d in self.elems.items():
                e = exps[v]
                if e:
                    pw = self.powers[v]
                    if e not in pw:
                        pw[e] = B.pow(d, e)
                    val = pw[e] if val is None else B.mul(val, pw[e])
            if val is None:
                val = B.const(c, self.rows)
            elif c != 1:
                val = B.scale(c, val)
            tot = val if tot is None else B.add(tot, val)
        if tot is None:
            tot = B.const(0, self.rows)
        return tot

    def mask(self, eqs, ineqs):
        """Rows where every equation vanishes and no inequation does."""
        B = self.bulk
        mask = np.ones(self.rows, dtype=bool)
        for e in eqs:
            mask &= B.is_zero(self.eval(e))
        for h in ineqs:
            mask &= B.nonzero(self.eval(h))
        return mask

    def point(self, row):
        """Element indices of one row, in variable order."""
        return [int(self.bulk.index_of(d[row])) for d in self.elems.values()]


def _chunks(B, vs, budget):
    """The chunk loop: walk the flat index space Q^r of the variables vs,
    vs[0] most significant (PointEnumeration's order), after charging
    Q^r against the budget.  Yields one _Chunk per slice."""
    Q = B.Q
    total = Q ** len(vs)
    _check_budget(total, budget)
    step = max(1 << 12, _CHUNK // B.n)
    for start in range(0, total, step):
        rem = np.arange(start, min(start + step, total), dtype=np.int64)
        rows = len(rem)
        place = []
        for _ in vs:
            rem, cur = np.divmod(rem, Q)
            place.append(cur)
        elems = {v: B.digits_of(cur) for v, cur in zip(vs, reversed(place))}
        yield _Chunk(B, rows, elems)


def _enumerate_block(vs, eqs, ineqs, f, trace_w, E: FieldSpec, budget,
                     keys=()):
    """Tally the points of one variable block over E, in chunks.

    Returns a flat int64 bincount indexed by key * p + e: e is the trace
    exponent of f under the weights trace_w (0 when f is None), and key is
    the flat element index of the key polynomials' values, first key most
    significant (a single slot when there are no keys).
    """
    B = BulkField(E)
    p, Q = E.p, E.q
    tally = np.zeros(Q ** len(keys) * p, dtype=np.int64)
    for chunk in _chunks(B, vs, budget):
        mask = chunk.mask(eqs, ineqs)
        if not mask.any():
            continue
        if f is None:
            code = np.zeros(int(mask.sum()), dtype=np.int64)
        else:
            code = B.linear_form(chunk.eval(f), trace_w)[mask]
        key = 0
        for u in keys:
            key = key * Q + B.index_of(chunk.eval(u)[mask])
        tally += np.bincount(key * p + code, minlength=len(tally))
    return tally


def fiber_histograms(X: VarietySpec, chi: AdditiveCharacter, budget=None):
    """Counts h[s, e] of points x in X(F_q) with base_map(x) = s and
    chi(Tr f(x)) = zeta_p^e.

    Rows follow the base points s in itertools.product order over element
    indices (first coordinate most significant).
    """
    budget = budget if budget is not None else default_budget()
    E = _extension_spec(chi.field, 1)
    raw = _enumerate_block(list(range(X.nvars)), X.equations, X.inequations,
                           X.f, BulkField(E).trace_weights(chi.c), E, budget,
                           keys=X.base_map or ())
    return raw.reshape(-1, chi.p)


def membership_walk(X: VarietySpec, others, F: FieldSpec, m: int = 1,
                    budget=None):
    """Walk the ambient space of X over F_{q^m} in chunks, in the order
    PointEnumeration visits points.

    Yields (inside, masks, point) per chunk: inside marks the rows that lie
    on X, masks[i] the rows on others[i] (specs on the same ambient), and
    point(row) is that row's coordinates as element indices.
    """
    budget = budget if budget is not None else default_budget()
    B = BulkField(_extension_spec(F, m))
    if X.ambient == "affine":
        cells = [((), X.nvars, lambda poly: poly)]
    else:
        cells = [([0] * j + [1], X.dim - j, chart)
                 for j, chart in _projective_charts(X)]
    for lead, r, chart in cells:
        conds = [([chart(e) for e in S.equations],
                  [chart(h) for h in S.inequations]) for S in (X, *others)]
        for chunk in _chunks(B, list(range(r)), budget):
            inside, *masks = [chunk.mask(eqs, ineqs) for eqs, ineqs in conds]
            yield inside, masks, lambda row, c=chunk, lead=lead: [*lead, *c.point(row)]


# ---------------------------------------------------------------------------
# Character-exponent histograms


def exponent_histogram(X: VarietySpec, chi: AdditiveCharacter, m: int,
                       budget=None) -> list:
    """Counts h[e] of points x in X(F_{q^m}) with chi(Tr f(x)) = zeta_p^e."""
    budget = budget if budget is not None else default_budget()
    F = chi.field
    p = F.p
    if X.ambient == "projective":
        if X.f is not None and not X.f.is_zero():
            raise ProjectiveWithNonzeroF("exponential sums need an affine spec")
        return [_count_projective(X, F, m, budget)] + [0] * (p - 1)
    eqs, ineqs, f, empty = _reduce_polys(X, p)
    if empty:
        return [0] * p
    if f.is_zero():
        return [_count_affine(X, F, m, budget)] + [0] * (p - 1)

    E = _extension_spec(F, m)
    twist_big = embedding(F, E)(chi.c)
    trace_w = BulkField(E).trace_weights(twist_big)
    comps, f_const = _components(X.nvars, eqs, ineqs, f)
    const_exp = (f_const * trace_to_prime_int(twist_big)) % p if f_const else 0

    hist = [0] * p
    hist[const_exp] = 1
    for vs, c_eqs, c_ineqs, c_f in comps:
        part = _component_hist(vs, c_eqs, c_ineqs, c_f, chi, m, E, twist_big,
                               trace_w, budget)
        hist = _convolve_mod_p(hist, part, p)
    return hist


def _component_hist(vs, eqs, ineqs, f, chi, m, E, twist, trace_w, budget):
    """Exponent histogram of one constraint-disjoint block, fast path first."""
    p, Q = E.p, E.q
    F = chi.field
    if f.is_zero():
        return [_count_component(vs, eqs, ineqs, F, m, Q, budget)] + [0] * (p - 1)
    if not eqs and not ineqs:
        part = _full_space_hist(vs, f, E, twist)
        if part is not None:
            return part
    if len(vs) == 1:
        part = _univariate_hist(vs[0], eqs, ineqs, f, chi, m, E, twist, budget)
        if part is not None:
            return part
    if len(vs) == 2 and eqs:
        part = _pair_hist(vs, eqs, ineqs, f, E, trace_w, budget)
        if part is not None:
            return part
    raw = _enumerate_block(vs, eqs, ineqs, f, trace_w, E, budget)
    return [int(v) for v in raw]


def _full_space_hist(vs, f, E, twist):
    """Exact histogram over a full affine block, no enumeration.

    Handles f built from Frobenius-linearized monomials a*x^(p^j) (any p;
    the trace form is F_p-linear in the point) and, for odd p, arbitrary
    f of total degree <= 2 via a quadratic form on the digit space.
    Returns None when neither shape applies.
    """
    p, Q = E.p, E.q
    r = len(vs)
    lin = _linearized_twists(f, E, twist)
    if lin is not None:
        if all(d.is_zero() for d in lin):
            return [Q**r] + [0] * (p - 1)
        return [Q**r // p] * p
    if p != 2 and f.total_degree() <= 2:
        return _quadratic_digit_hist(vs, f, E, twist)
    return None


def _linearized_twists(f, E, twist):
    """Per-variable effective twists d_i with Tr(c f(x)) = sum Tr(d_i x_i),
    valid when every monomial is a*x_i^(p^j); None otherwise.

    Uses Tr(z^(p^t)) = Tr(z): the twist absorbs an inverse Frobenius.
    """
    p, n = E.p, E.k
    d = {}
    for exps, a in f.terms.items():
        used = [i for i, e in enumerate(exps) if e]
        if len(used) != 1:
            return None
        i = used[0]
        e = exps[i]
        j = 0
        while e % p == 0:
            e //= p
            j += 1
        if e != 1:
            return None
        contrib = (twist * E.element(a)).frobenius((n - j) % n)
        d[i] = d.get(i, E.zero()) + contrib
    return list(d.values())


def _quadratic_digit_hist(vs, f, E, twist):
    """Histogram of Tr(c f(x)) for quadratic f over the full block, odd p.

    The trace is a quadratic function on the F_p digit space; congruence
    diagonalization makes it separable, so single-digit histograms convolve.
    """
    p, n = E.p, E.k
    N = len(vs) * n
    pos = {v: idx for idx, v in enumerate(vs)}
    B = BulkField(E)
    gram = B.trace_gram(B.trace_weights(twist))  # scaled per monomial below
    A = [[0] * N for _ in range(N)]
    L = [0] * N
    inv2 = pow(2, -1, p)
    for exps, a in f.terms.items():
        used = [(i, e) for i, e in enumerate(exps) if e]
        a %= p
        if not a:
            continue
        deg = sum(e for _, e in used)
        if deg == 1:
            (i, _), = used
            base = pos[i] * n
            for s in range(n):
                L[base + s] = (L[base + s] + a * gram[s][0]) % p  # b_0 = 1
        elif deg == 2 and len(used) == 1:
            (i, _), = used
            base = pos[i] * n
            for s in range(n):
                for t in range(n):
                    A[base + s][base + t] = (A[base + s][base + t]
                                             + a * gram[s][t]) % p
        elif deg == 2 and len(used) == 2:
            (i, _), (j, _) = used
            bi, bj = pos[i] * n, pos[j] * n
            for s in range(n):
                for t in range(n):
                    half = (a * gram[s][t] * inv2) % p
                    A[bi + s][bj + t] = (A[bi + s][bj + t] + half) % p
                    A[bj + t][bi + s] = (A[bj + t][bi + s] + half) % p
        else:
            return None
    D, P = _diagonalize_symmetric(A, p)
    beta = [sum(P[s][t] * L[s] for s in range(N)) % p for t in range(N)]
    hist = [1] + [0] * (p - 1)
    for t in range(N):
        d, b = D[t][t], beta[t]
        part = [0] * p
        for y in range(p):
            part[(d * y * y + b * y) % p] += 1
        hist = _convolve_mod_p(hist, part, p)
    return hist


def _diagonalize_symmetric(A, p):
    """Congruence-diagonalize a symmetric matrix mod odd p.

    Returns (D, P) with D = P^T A P diagonal; works in place on a copy.
    """
    N = len(A)
    A = [row[:] for row in A]
    P = [[int(i == j) for j in range(N)] for i in range(N)]

    def col_add(i, j, lam):  # col_i += lam * col_j, matching row op, track P
        for s in range(N):
            A[s][i] = (A[s][i] + lam * A[s][j]) % p
        for s in range(N):
            A[i][s] = (A[i][s] + lam * A[j][s]) % p
        for s in range(N):
            P[s][i] = (P[s][i] + lam * P[s][j]) % p

    def col_swap(i, j):
        for s in range(N):
            A[s][i], A[s][j] = A[s][j], A[s][i]
        A[i], A[j] = A[j], A[i]
        for s in range(N):
            P[s][i], P[s][j] = P[s][j], P[s][i]

    for k in range(N):
        if A[k][k] == 0:
            piv = next((i for i in range(k + 1, N) if A[i][i] != 0), None)
            if piv is not None:
                col_swap(k, piv)
            else:
                found = next(((i, j) for i in range(k, N)
                              for j in range(i + 1, N) if A[i][j] != 0), None)
                if found is None:
                    break  # remaining block is zero
                i, j = found
                col_add(i, j, 1)  # diagonal at i becomes 2*A[i][j] != 0
                if i != k:
                    col_swap(k, i)
        dinv = pow(A[k][k], -1, p)
        for i in range(k + 1, N):
            if A[i][k]:
                col_add(i, k, (-A[i][k] * dinv) % p)
    return A, P


def _univariate_hist(var, eqs, ineqs, f, chi, m, E, twist, budget):
    """Exact histogram for a one-variable block whose constraint roots all
    lie in the base field; None when that cannot be certified cheaply.

    For rho in the base field F_q inside F_Q = F_{q^m},
    Tr_{F_Q/F_p}(c f(rho)) = Tr_{F_q/F_p}(m * c * f(rho)), so the roots are
    walked by the engine over F_q with the trace weights of m * c.
    """
    F = chi.field
    p, n = E.p, E.k
    if F.q > 4096:
        return None
    weights = BulkField(F).trace_weights(F.element(m) * chi.c)

    def base_hist(eqs, ineqs):
        return _enumerate_block([var], eqs, ineqs, f, weights, F, budget)

    def in_base(R):
        return gfpoly.deg(_distinct_root_poly(R, p, F.k)) == gfpoly.deg(R)

    if eqs:
        g = _univariate_gcd(eqs, var, p)
        if gfpoly.deg(g) <= 0:
            return [0] * p
        R = _distinct_root_poly(g, p, n)
        if gfpoly.deg(R) <= 0:
            return [0] * p
        if not in_base(R):
            return None
        assert int(base_hist(eqs, []).sum()) == gfpoly.deg(R)
        return [int(v) for v in base_hist(eqs, ineqs)]

    # no equations: full line minus the inequation root loci
    full = _full_space_hist([var], f, E, twist)
    if full is None:
        return None
    H = _univariate_product(ineqs, var, p)
    if H is None:
        return [0] * p  # an inequation is identically zero mod p
    R = _distinct_root_poly(H, p, n)
    if gfpoly.deg(R) <= 0:
        return full
    if not in_base(R):
        return None
    bad = base_hist([], []) - base_hist([], ineqs)
    assert int(bad.sum()) == gfpoly.deg(R)
    return [a - int(b) for a, b in zip(full, bad)]


class _PairMatch:
    """Solution set of a 2-variable block with separable equations.

    Each equation must split as u(x) + w(y) = 0; inequations must be
    univariate.  Solutions are pairs with key(x) = (u_k(x))_k equal to
    key(y) = (-w_k(y))_k, matched through a bucket-offset table over the
    key range when it fits in memory, else by sort-and-search.  Never Q^2.
    """

    def __init__(self, ix, lo, hi, iy_sorted):
        self.ix = ix  # surviving x indices
        self.lo = lo  # per-x match range into iy_sorted
        self.hi = hi
        self.iy_sorted = iy_sorted

    @property
    def count(self):
        return int((self.hi - self.lo).sum(dtype=np.int64))

    def pairs(self, chunk):
        """Yield (I, J) element-index arrays covering all solution pairs.

        Blocks are whole x-rows expanded by np.repeat, roughly `chunk`
        pairs each (one oversized row can exceed it).
        """
        counts = (self.hi - self.lo).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)))
        nrows = len(counts)
        row = 0
        while row < nrows:
            end = int(np.searchsorted(starts, starts[row] + chunk, side="left"))
            end = min(max(end, row + 1), nrows)
            c = counts[row:end]
            seg = np.repeat(np.arange(row, end, dtype=np.int64), c)
            if len(seg):
                base = starts[row]
                within = np.arange(starts[end] - base, dtype=np.int64)
                within -= starts[seg] - base
                yield self.ix[seg], self.iy_sorted[self.lo[seg] + within]
            row = end


# key ranges up to this many buckets use a direct offset table
_BUCKET_LIMIT = 1 << 28


def _pair_match(vs, eqs, ineqs, B: BulkField, budget, extra_jobs=()):
    """Match a separable 2-variable block over the field of B.

    Returns (match, extra outputs); match is None when the block does not
    fit the separable shape.  extra_jobs are (univariate poly,
    reduce_chunk) pairs evaluated in the same scan as the keys.
    """
    v1, v2 = vs
    splits = []
    for e in eqs:
        u_terms, w_terms = {}, {}
        for exps, c in e.terms.items():
            if exps[v1] and exps[v2]:
                return None, None
            (w_terms if exps[v2] else u_terms)[exps] = c
        splits.append((Poly(e.nvars, u_terms), Poly(e.nvars, w_terms)))
    for h in ineqs:
        if len(h.variables()) > 1:
            return None, None
    Q = B.Q
    key_range = Q ** len(splits)
    if key_range >= 1 << 62:
        return None, None  # combined match keys would overflow int64

    jobs = []
    for u, w in splits:
        jobs.append((u, B.index_of))
        jobs.append((w, lambda vals: B.index_of(B.neg(vals))))
    ineq_sides = []
    for h in ineqs:
        ineq_sides.append(next(iter(h.variables())))
        jobs.append((h, B.nonzero))
    # x and y run over the same Q elements: one scan of v1 evaluates every
    # job, with the y-side written in v1, so both sides share a power cache
    jobs = [(poly.rename({**{i: i for i in range(poly.nvars)}, v2: v1}, poly.nvars),
             reduce_chunk) for poly, reduce_chunk in jobs + list(extra_jobs)]
    outs = [[] for _ in jobs]
    for chunk in _chunks(B, [v1], budget):
        for out, (poly, reduce_chunk) in zip(outs, jobs):
            out.append(reduce_chunk(chunk.eval(poly)))
    outs = [np.concatenate(o) for o in outs]

    key_dtype = np.int32 if key_range < (1 << 31) else np.int64
    xkey = np.zeros(Q, dtype=key_dtype)
    ykey = np.zeros(Q, dtype=key_dtype)
    pos = 0
    for _ in splits:
        xkey *= key_dtype(Q)
        xkey += outs[pos].astype(key_dtype)
        ykey *= key_dtype(Q)
        ykey += outs[pos + 1].astype(key_dtype)
        pos += 2
    maskx = np.ones(Q, dtype=bool)
    masky = np.ones(Q, dtype=bool)
    for hv in ineq_sides:
        if hv == v1:
            maskx &= outs[pos]
        else:
            masky &= outs[pos]
        pos += 1
    extras = outs[pos:]
    ix = np.nonzero(maskx)[0]
    iy = np.nonzero(masky)[0]
    del maskx, masky
    yk = ykey[iy]
    del ykey
    order = np.argsort(yk, kind="stable")  # radix sort on integer keys
    iy_sorted = iy[order]
    if key_range <= _BUCKET_LIMIT:
        offsets = np.zeros(key_range + 1, dtype=np.int64)
        np.cumsum(np.bincount(yk, minlength=key_range), out=offsets[1:])
        del yk, order
        xk = xkey[ix]
        lo = offsets[xk]
        hi = offsets[xk + 1]
    else:
        yk_sorted = yk[order]
        del yk, order
        lo = np.searchsorted(yk_sorted, xkey[ix], side="left")
        hi = np.searchsorted(yk_sorted, xkey[ix], side="right")
    return _PairMatch(ix, lo, hi, iy_sorted), extras


def _pair_hist(vs, eqs, ineqs, f, E, trace_w, budget):
    """Exponent histogram over a separable-equation pair block.

    Univariate f-terms contribute per-variable trace exponents from the
    matching scan; each cross monomial a*x^c*y^d contributes
    Tr(twist * a x^c * y^d) per pair through BulkField.pair_trace.
    """
    v1, v2 = vs
    p = E.p
    uni1, uni2, cross = {}, {}, []
    for exps, c in f.terms.items():
        if exps[v1] and exps[v2]:
            used = [i for i, e in enumerate(exps) if e]
            if len(used) != 2:
                return None
            cross.append((exps, c))
        elif exps[v2]:
            uni2[exps] = c
        else:
            uni1[exps] = c
    B = BulkField(E)
    extra = [(Poly(f.nvars, uni), lambda vals: B.linear_form(vals, trace_w))
             for uni in (uni1, uni2)]
    match, extras = _pair_match(vs, eqs, ineqs, B, budget, extra_jobs=extra)
    if match is None:
        return None
    _check_budget(match.count, budget)  # the pairs are expanded below
    eU, eV = extras
    hist = np.zeros(p, dtype=np.int64)
    for I, J in match.pairs(1 << 20):
        e = eU[I].astype(np.int64) + eV[J]
        if cross:
            x, y = B.digits_of(I), B.digits_of(J)
            for exps, c in cross:
                left = B.pow(x, exps[v1])
                if c != 1:
                    left = B.scale(c, left)
                e += B.pair_trace(left, B.pow(y, exps[v2]), trace_w)
        hist += np.bincount(e % p, minlength=p)
    return [int(v) for v in hist]


def _convolve_mod_p(h1, h2, p):
    out = [0] * p
    for a in range(p):
        if h1[a] == 0:
            continue
        for b in range(p):
            if h2[b] == 0:
                continue
            out[(a + b) % p] += h1[a] * h2[b]
    return out


def exp_sum(X: VarietySpec, chi: AdditiveCharacter, m: int = 1, budget=None) -> Cyclotomic:
    """N_{chi,m}(X,f) = sum over X(F_{q^m}) of chi at the trace of f."""
    hist = exponent_histogram(X, chi, m, budget)
    return Cyclotomic.from_exponent_counts(chi.p, list(hist) + [0] * (chi.p - len(hist)))


# ---------------------------------------------------------------------------
# Closed-point tallies


@dataclass
class ClosedPointTally:
    field: FieldSpec  # the base field F_q
    p: int
    r_max: int
    a: dict  # (r, e) -> count of closed points of degree r with alpha = zeta^e

    def a_r(self, r):
        return sum(c for (rr, _e), c in self.a.items() if rr == r)

    def recovered_count(self, m):
        """N_m = sum over r | m of r * a_r."""
        return sum(r * self.a_r(r) for r in _divisors(m) if r <= self.r_max)

    def n_chi_m(self, m) -> Cyclotomic:
        """N_{chi,m} = sum over alpha, r|m of r * a_{alpha,r} * alpha^(m/r)."""
        total = Cyclotomic.integer(self.p, 0)
        for r in _divisors(m):
            if r > self.r_max:
                continue
            for e in range(self.p):
                c = self.a.get((r, e), 0)
                if c:
                    total = total + r * c * Cyclotomic.zeta_power(self.p, e * (m // r))
        return total

    def closed_points(self, max_degree=None):
        """Expanded list of (degree, exponent) per closed point."""
        out = []
        for (r, e), c in sorted(self.a.items()):
            if max_degree is not None and r > max_degree:
                continue
            out.extend([(r, e)] * c)
        return out

    def to_json(self):
        return {
            "q": self.field.q,
            "r_max": self.r_max,
            "a": {f"{r},{e}": c for (r, e), c in sorted(self.a.items())},
        }


def closed_point_tally(X: VarietySpec, chi: AdditiveCharacter, r_max: int,
                       budget=None) -> ClosedPointTally:
    """Counts a_{alpha,r} of closed points of degree r with character value
    alpha = zeta_p^e, for r <= r_max.

    Derived from per-degree exponent histograms by subfield inversion:
    a point of exact degree d contributes d geometric points over F_{q^r}
    (d | r), each at exponent (r/d) * e mod p.  Exact divisibility by r is
    asserted at every step.
    """
    if X.ambient == "projective" and X.f is not None and not X.f.is_zero():
        raise ProjectiveWithNonzeroF("tallies need f = 0 on projective specs")
    p = chi.p
    a = {}
    for r in range(1, r_max + 1):
        hist = list(exponent_histogram(X, chi, r, budget))
        for d in _divisors(r):
            if d == r:
                continue
            mult = r // d
            for e in range(p):
                c = a.get((d, e), 0)
                if c:
                    hist[(mult * e) % p] -= d * c
        for e in range(p):
            if hist[e] % r != 0 or hist[e] < 0:
                raise AssertionError(
                    f"orbit inversion failed at degree {r}: histogram {hist}")
            if hist[e]:
                a[(r, e)] = hist[e] // r
    return ClosedPointTally(chi.field, p, r_max, a)


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


# ---------------------------------------------------------------------------
# Effective 0-cycles (symmetric products)


def effective_divisors(points, n):
    """All multiplicity assignments over the closed-point list with total
    degree exactly n.  Yields tuples of (index, multiplicity)."""

    def rec(i, remaining):
        if remaining == 0:
            yield ()
            return
        if i == len(points):
            return
        r, _e = points[i]
        for mult in range(remaining // r + 1):
            for rest in rec(i + 1, remaining - mult * r):
                yield ((i, mult),) + rest if mult else rest

    yield from rec(0, n)


def sym_divisors(X: VarietySpec, chi: AdditiveCharacter, n: int,
                 tally: ClosedPointTally = None, budget=None):
    """(count, sum) over degree-n effective 0-cycles: count = #Sym^n X(F_q),
    sum = sum over divisors D of chi(f^(n)(D))."""
    if tally is None:
        tally = closed_point_tally(X, chi, max(n, 1), budget)
    if tally.r_max < n:
        raise TallyTooShallow(f"tally depth {tally.r_max} < requested degree {n}")
    points = tally.closed_points(max_degree=n)
    p = chi.p
    count = 0
    total = Cyclotomic.integer(p, 0)
    for assignment in effective_divisors(points, n):
        count += 1
        e_total = 0
        for idx, mult in assignment:
            _r, e = points[idx]
            e_total += e * mult
        total = total + Cyclotomic.zeta_power(p, e_total)
    return count, total


# ---------------------------------------------------------------------------
# Point enumeration (scalar; for small fields, witnesses, membership checks)


class PointEnumeration:
    """Exhaustive duplicate-free stream of points of X(F_{q^m})."""

    def __init__(self, X: VarietySpec, F: FieldSpec, m: int = 1, budget=None):
        self.spec = X
        self.base = F
        self.m = m
        self.budget = budget if budget is not None else default_budget()
        if X.ambient == "projective":
            require_homogeneous(X)
        est = (F.q**m) ** X.nvars
        _check_budget(est, self.budget)
        self.field = _extension_spec(F, m)

    @property
    def count(self):
        return count_points_ff(self.spec, self.base, self.m, self.budget)

    def points(self):
        X, E = self.spec, self.field
        if X.ambient == "affine":
            yield from _affine_points(X, E)
        else:
            yield from _projective_points(X, E)

    def __iter__(self):
        return self.points()


def enumerate_points(X: VarietySpec, F: FieldSpec, m: int = 1, budget=None):
    return PointEnumeration(X, F, m, budget)


def _satisfies(X, point):
    return all(e.eval_ff(point).is_zero() for e in X.equations) and all(
        not h.eval_ff(point).is_zero() for h in X.inequations
    )


def _affine_points(X, E):
    for idx in itertools.product(range(E.q), repeat=X.nvars):
        point = tuple(E.from_index(i) for i in idx)
        if _satisfies(X, point):
            yield point


def _projective_points(X, E):
    n = X.dim
    for j in range(n + 1):
        for idx in itertools.product(range(E.q), repeat=n - j):
            point = tuple(
                [E.zero()] * j + [E.one()] + [E.from_index(i) for i in idx]
            )
            if _satisfies(X, point):
                yield point
