"""Variety descriptions and exact point enumeration over finite fields.

A VarietySpec is an affine or projective ambient space with integer
polynomial equations (= 0), inequations (!= 0), an optional morphism f
to the affine line (affine ambient only) and an optional base map.

A point count is the f = 0 case of a character-exponent histogram, and
both run one pipeline (`_histogram`): projective charts, reduction mod p,
then constraint-disjoint variable blocks, whose histograms convolve mod p,
which keeps product varieties inside the budget; each convolution is
charged its pairs of nonzero entries.  A block's histogram has one entry
when its f is 0 and p entries otherwise, so a count is one number end to
end; `exponent_histogram` alone pads to p and rotates by f's constant
term.  Each block goes to the first strategy of one ordered tuple that
takes it:
  1. no constraints: a power of the field size; for f built from
     Frobenius-linear monomials a*x^(p^j) and (odd p) monomials of degree
     2, an exact histogram without enumeration, in closed form from the
     centre, rank and discriminant of one quadratic function on the
     block's F_p digits;
  2. one variable: roots via gcd with x^Q - x, which give a count
     directly; for f != 0, one walk over the base field, when the roots
     that decide the histogram all lie there, checked against the gcd
     count;
  3. two or more variables, an equation e solved for one variable y at
     each point of the others: by a square root when e has degree 1 or
     (odd p) 2 in y with a constant leading coefficient, Q^(r-1)
     candidates; else, for two variables and e = u(x) + w(y), from a
     table of every y sorted by w(y), 2Q candidates plus the roots
     expanded;
  4. the chunked engine, under a candidate budget.

Every point walk goes through one chunk loop (`_chunks`) and one
evaluator (`_Chunk`): block tallies, the walks of strategy 3 and its
root table, fiber histograms over a base map, the membership walks
behind cover checks and, over the exact integers of `heights._Integers`,
the height box.  A chunk is a grid of prefixes of the leading
variables, as (R, 1) columns, times values of
the last variable, as a (1, T) row; flattened row-major, the grids keep
PointEnumeration's order (first variable most significant).  Monomials
are evaluated at their smallest broadcast shape, an equation is tested
as "terms with the last variable = minus the others", and the trace of
f is the sum of its terms' traces, so only mixed monomials are computed
on the full grid.

One tally (`_enumerate_block`) turns points into histogram entries for
the engine, `fiber_histograms`, strategy 2's base-field walk and
strategy 3, whose root solvers hand it the roots at each chunk's points
as its candidates.  Its walk goes through `_sum_chunks`: a walk of more
than one chunk runs its chunks on a pool of one thread per usable CPU,
which NumPy's GIL-free kernels keep busy, and adds their tallies in walk
order.  The walk itself, with its budget charge and then its one trace
form (BulkField.trace_form), stays on the caller's thread, and a walk of
one chunk runs there too.  The height box scan and `membership_walk`
stay sequential: a height chunk holds about 9 MB of temporaries (8.7 MB
under tracemalloc on the scanned slab 0 of the cubic x0^3 + x1^3 + x2^3
- 3*x0*x1*x2 at H = 128), and the subvariety and cover checks built on
them name the first failing point in walk order.

`PointEnumeration` is the scalar reference that the tests compare them
against; no production path uses it.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import os
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import gfpoly
from .bulk import BulkField
from .cyclofield import (
    AdditiveCharacter,
    FieldSpec,
    _row_reduce,
    _solve_mod_p,
    build_field,
    embedding,
    trace_to_prime_int,
)
from .cyclotomic import Cyclotomic
from .errors import (
    BudgetExceeded,
    NonHomogeneous,
    ParseError,
    ProjectiveWithNonzeroF,
    RouteMismatch,
    TallyTooShallow,
)
from .polynomials import Poly

DEFAULT_BUDGET = 10**8
_CHUNK = 1 << 20


def default_budget():
    raw = os.environ.get("ZETAKIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = None
    if budget is None or budget < 1:
        raise ParseError(f"ZETAKIT_BUDGET must be an integer >= 1, got {raw!r}")
    return budget


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
    if not isinstance(e, str):
        raise ParseError(f"spec polynomial must be a string or an int, got {e!r}")
    return Poly.parse(e, nvars)


def spec_from_json(data):
    amb = data.get("ambient") if isinstance(data, dict) else None
    if not isinstance(amb, dict) or amb.get("type") not in ("affine", "projective"):
        raise ParseError(f"spec needs an affine or projective ambient, got {amb!r}")
    dim = amb.get("dim")
    if type(dim) is not int or dim < 0:
        raise ParseError(f"ambient dim must be a nonnegative integer, got {dim!r}")
    if amb["type"] == "affine":
        return affine(
            dim,
            data.get("equations", ()),
            data.get("inequations", ()),
            data.get("f"),
            data.get("base_map"),
        )
    return projective(dim, data.get("equations", ()), data.get("inequations", ()))


def load_spec(path):
    import tomllib  # about 5 ms, so only spec files pay for it

    with open(path) as fh:
        text = fh.read()
    try:
        data = tomllib.loads(text) if path.endswith(".toml") else json.loads(text)
    except (tomllib.TOMLDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
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
    """Charge an enumeration of ~estimate candidates; None is the default
    budget, resolved here and nowhere else, and a budget below 1 is a
    ParseError."""
    if budget is None:
        budget = default_budget()
    elif budget < 1:
        raise ParseError(f"budget must be an integer >= 1, got {budget!r}")
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
    that straddle blocks (so exponent histograms convolve exactly).  No
    block takes the constant term of f, which only rotates the histogram
    (exponent_histogram).  Blocks come smallest first, so an empty one
    ends a walk before a larger one is enumerated.
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
    for vs in sorted(comps.values(), key=lambda vs: (len(vs), vs)):
        comp_eqs = [e for e in eqs if e.variables() and e.variables() <= set(vs)]
        comp_ineqs = [h for h in ineqs if h.variables() <= set(vs) and h.variables()]
        comp_f = Poly(nvars, {k: c for k, c in f.terms.items()
                              if {i for i, n in enumerate(k) if n} <= set(vs)
                              and any(k)})
        out.append((vs, comp_eqs, comp_ineqs, comp_f))
    return out


# ---------------------------------------------------------------------------
# Counts and character-exponent histograms: one pipeline


def count_points_ff(X: VarietySpec, F: FieldSpec, m: int = 1, budget=None) -> int:
    """#X(F_{q^m}), exact."""
    return _histogram(X, F, m, None, budget)[0]


def exponent_histogram(X: VarietySpec, chi: AdditiveCharacter, m: int,
                       budget=None) -> list:
    """Counts h[e] of points x in X(F_{q^m}) with chi(Tr f(x)) = zeta_p^e.

    The one place a histogram is padded to p entries and rotated by f's
    constant term c, by Tr_{F_{q^m}/F_p}(c chi.c) = c m Tr_{F/F_p}(chi.c).
    """
    if X.ambient == "projective" and X.f is not None and not X.f.is_zero():
        raise ProjectiveWithNonzeroF("exponential sums need an affine spec")
    p, twist = chi.p, None if chi.is_trivial() else chi.c
    hist = _histogram(X, chi.field, m, twist, budget)
    hist.extend(itertools.repeat(0, p - len(hist)))
    c = 0 if twist is None or X.f is None else X.f.terms.get((0,) * X.nvars, 0) % p
    shift = c * m * trace_to_prime_int(twist) % p if c else 0
    return hist[-shift:] + hist[:-shift]


def _histogram(X, F, m, twist, budget):
    """Counts h[e] of points x in X(F_{q^m}) with Tr(twist * f(x)) = e mod p.

    twist None is a count: f is dropped, since Tr(0 * f) = 0, and h is
    [#X].  A projective X is the disjoint union of its affine charts, each
    a count.  Each cell is reduced mod p and split into constraint-disjoint
    blocks: the first block's histogram (from _block_histogram; [1] for a
    cell without variables) convolves mod p with the others', and a cell
    stops at the first block that leaves its histogram all zero.  h has
    one entry when no block has an f term, else p; f's constant term is
    left to exponent_histogram.
    """
    p = F.p
    _check_budget(0, budget)  # a bad budget fails here, not only where it is read
    hist = None
    for _lead, r, chart in _cells(X):
        eqs, ineqs, f, empty = _reduce_polys(chart(X), p)
        if empty:
            continue
        job = _Block((), (), (), Poly(f.nvars), F, m, budget)
        if twist is not None and not f.is_zero():
            job = replace(job, f=f, c=twist, twist=embedding(F, job.E)(twist))
        part = None
        for vs, c_eqs, c_ineqs, c_f in _components(r, eqs, ineqs, job.f):
            h = _block_histogram(replace(job, vs=vs, eqs=c_eqs, ineqs=c_ineqs, f=c_f))
            part = h if part is None else _convolve_mod_p(part, h, p, budget)
            if not any(part):
                break
        part = part or [1]
        hist = part if hist is None else [a + b for a, b in zip(hist, part)]
    return hist or [0]


@dataclass(frozen=True)
class _Block:
    """A constraint-disjoint variable block of a histogram over F_{q^m}.

    c is the character twist in F and twist its image in F_{q^m}; both
    are None for a count.  A walk turns twist into its kernel's trace form
    (BulkField.trace_form) itself, once its budget is charged.
    """
    vs: list
    eqs: list
    ineqs: list
    f: Poly
    F: FieldSpec
    m: int
    budget: object  # an int, or None for the default
    c: object = None
    twist: object = None

    @property
    def E(self):  # on demand: a count over a field too large to build needs none
        return _extension_spec(self.F, self.m)


def _block_histogram(b: _Block):
    """The histogram from the first strategy that takes the block.

    Each strategy returns None for a block it does not handle; the
    chunked engine takes every block.
    """
    # names looked up per call, so a test can stand in for one strategy
    for strategy in (_full_space_hist, _univariate_hist, _fiber_hist, _engine_hist):
        part = strategy(b)
        if part is not None:
            return part


def require_homogeneous(X):
    """Raise NonHomogeneous unless every condition of X is homogeneous, so
    that it defines a subset of projective space."""
    for e in X.equations + X.inequations:
        if not e.is_homogeneous():
            raise NonHomogeneous(f"{e!r} is not homogeneous")


def _cells(X):
    """The affine cells of X's ambient, in PointEnumeration's order, as
    (lead, r, chart): chart(S) is the affine spec that a spec S on the
    ambient cuts out of the cell, in its r free coordinates (one dummy
    variable when r = 0), and lead the coordinates fixed before them.
    Affine space is one cell; chart j of P^n has x_i = 0 for i < j,
    x_j = 1 and x_{j+1}, ..., x_n free, renumbered from 0.
    """
    if X.ambient == "affine":
        yield (), X.nvars, lambda S: S
        return
    require_homogeneous(X)
    n = X.dim
    for j in range(n + 1):
        fixed = {**dict.fromkeys(range(j), 0), j: 1}
        mapping = {i: max(i - j - 1, 0) for i in range(n + 1)}

        def chart(S, fixed=fixed, mapping=mapping, nv=max(n - j, 1)):
            return affine(nv, *([e.substitute(fixed).rename(mapping, nv) for e in c]
                                for c in (S.equations, S.inequations)))

        yield [0] * j + [1], n - j, chart


# ---------------------------------------------------------------------------
# The chunked enumeration engine


class _Chunk:
    """One chunk of a block walk, laid out as a grid: R prefixes of the
    block's leading variables as (R, 1) columns of rows, times T values
    of its last variable as a (1, T) row, in any ring with BulkField's row
    interface.  The chunk's points are the grid flattened row-major: flat
    row i * T + j is prefix i with the j-th value of the last variable.

    Each monomial is evaluated at its smallest broadcast shape: powers are
    taken on the columns and the row (cached per variable), a scale on
    the first factor, and only monomials that mix the last variable with
    leading ones reach the full grid.
    """

    def __init__(self, B, elems, shape, start=0):
        self.bulk = B
        self.elems = elems  # variable -> rows, the last variable last
        self.shape = shape
        self.start = start  # flat position of the first point in the walk
        self.rows = shape[0] * shape[1]
        self.powers = {v: {1: d} for v, d in elems.items()}

    def _value(self, c, factors):
        """Rows of a planned term (_plan) c * prod v^e, at its smallest
        broadcast shape."""
        B, powers = self.bulk, self.powers
        if not factors:
            return B.const(c, (1, 1))
        for v, e in factors:
            if e not in powers[v]:
                powers[v][e] = B.pow(self.elems[v], e)
        first, *rest = (powers[v][e] for v, e in factors)
        val = first if c == 1 else B.scale(c, first)
        for fac in rest:
            val = B.mul(val, fac)
        return val

    def _plan(self, poly):
        return _plan(poly, self.bulk.p, tuple(self.elems))

    def _sums(self, poly):
        """(inner, outer): the sums of poly's terms with and without the
        last variable, each None when there is no such term.  Each term is
        evaluated as it is added, so one term at a time is held."""
        B = self.bulk
        sums = {True: None, False: None}
        for has_last, c, factors in self._plan(poly):
            val = self._value(c, factors)
            acc = sums[has_last]
            sums[has_last] = val if acc is None else B.add(acc, val)
        return sums[True], sums[False]

    def eval(self, poly):
        """Rows of an integer polynomial's values at every point, flat: a
        view that may share the walk's rows, so callers only read it."""
        B = self.bulk
        sums = [v for v in self._sums(poly) if v is not None]
        val = B.add(*sums) if len(sums) == 2 else sums[0] if sums else B.const(0, (1, 1))
        tail = val.shape[2:]
        if val.shape[:2] != self.shape:
            val = np.broadcast_to(val, self.shape + tail)
        return val.reshape((self.rows,) + tail)

    def _vanishes(self, poly):
        """Where poly is zero: its terms with the last variable equal the
        negated sum of the others, so no full-grid addition is made."""
        B = self.bulk
        inner, outer = self._sums(poly)
        if inner is None and outer is None:
            return np.ones((1, 1), dtype=bool)
        if inner is None or outer is None:
            return B.is_zero(outer if inner is None else inner)
        return B.eq(inner, B.neg(outer))

    def mask(self, eqs, ineqs):
        """Flat rows where every equation vanishes and no inequation does.
        The first condition's own array collects the others, so the full
        grid is allocated only when some condition spans it."""
        conds = itertools.chain((self._vanishes(e) for e in eqs),
                                (~self._vanishes(h) for h in ineqs))
        mask = next(conds, None)
        if mask is None:
            mask = np.ones((1, 1), dtype=bool)
        for cond in conds:
            if np.broadcast_shapes(mask.shape, cond.shape) == mask.shape:
                mask &= cond
            else:
                mask = mask & cond
        return np.broadcast_to(mask, self.shape).ravel()

    def trace(self, poly, form):
        """Flat Tr(twist * poly) mod p at every point, for form the walk's
        BulkField.trace_form(twist): the sum of each term's linear_form,
        since the trace is additive; one term's linear_form is already
        reduced."""
        p = self.bulk.p
        plan = self._plan(poly)
        if len(plan) == 1:
            code = self.bulk.linear_form(self._value(*plan[0][1:]), form)
        else:
            dtype = np.int32 if (len(plan) + 1) * p < 1 << 31 else np.int64
            code = np.zeros((1, 1), dtype=dtype)
            for _has_last, c, factors in plan:
                code = code + self.bulk.linear_form(self._value(c, factors), form)
            code %= p
        return np.broadcast_to(code, self.shape).ravel()

    def select(self, rows, more=None):
        """The chunk of the given flat rows, in that order, as one (1, k)
        row per variable, gathered through broadcast views: no full grid
        is copied; more maps further variables, placed last, to k rows."""
        rows = np.asarray(rows)
        i, j = np.divmod(rows, self.shape[1]) if self.shape[0] > 1 else (0, rows)
        elems = {v: np.broadcast_to(d, self.shape + d.shape[2:])[i, j][None]
                 for v, d in self.elems.items()}
        elems.update((v, d[None]) for v, d in (more or {}).items())
        return _Chunk(self.bulk, elems, (1, len(rows)))

    def point(self, row):
        """Element indices of one flat row, in variable order."""
        return [int(self.bulk.index_of(d[0, 0])) for d in self.select([row]).elems.values()]


@functools.lru_cache(maxsize=64)
def _plan(poly, p, order):
    """poly's nonzero terms in characteristic p (0 keeps integers) as
    (has_last, c, factors), factors the (v, e) pairs in a chunk's variable
    order (its last variable last): constants, then terms in the leading
    variables only, then the last variable alone, then mixed terms, so
    that sums taken in this order grow to the full grid last.  Only
    exponents decide the order, so a walk plans each polynomial once and
    evaluates its terms lazily."""
    out = []
    for exps, c in poly.terms.items():
        c = c % p if p else c
        if c:
            has_last = bool(order) and exps[order[-1]] > 0
            out.append((has_last, c, tuple((v, exps[v]) for v in order if exps[v])))
    return tuple(sorted(out, key=lambda t: (t[0], len(t[2]) > t[0])))


def _chunks(B, vs, budget, ranges=None):
    """The chunk loop: walk the points of the variables vs, vs[0] most
    significant (PointEnumeration's order), variable v over the element
    indices [lo, hi) = ranges[v] (default [0, Q)), after charging the
    number of points against the budget.  Yields one _Chunk per grid of
    about _CHUNK / n points.

    A grid holds R prefixes of vs[:-1], in mixed radix, and T values of
    vs[-1].  While the values of vs[-1] fit in one chunk, T is all of
    them and R prefixes share the one row, built once; otherwise R = 1
    and consecutive chunks take consecutive slices of T values.  Either
    way the grids, flattened row-major, continue the walk order.
    """
    spans = [(ranges or {}).get(v, (0, B.Q)) for v in vs]
    sizes = [hi - lo for lo, hi in spans]
    _check_budget(math.prod(sizes), budget)
    if not vs:  # the one point of a block without variables
        yield _Chunk(B, {}, (1, 1))
        return
    *lead, last = vs
    (lo, hi), size = spans[-1], sizes[-1]
    step = max(1, _CHUNK // B.n)
    T = max(1, min(size, step))
    R = step // T
    prefixes = math.prod(sizes[:-1])
    row = None
    for start in range(0, prefixes, R):
        idx = np.arange(start, min(start + R, prefixes), dtype=np.int64)
        place = np.unravel_index(idx, sizes[:-1]) if lead else ()
        cols = {v: B.digits_of(cur + first)[:, None]
                for v, (first, _), cur in zip(lead, spans, place)}
        for t in range(lo, hi, T):
            if row is None or T < size:
                row = B.digits_of(np.arange(t, min(t + T, hi), dtype=np.int64))[None]
            yield _Chunk(B, {**cols, last: row}, (len(idx), row.shape[1]),
                         start * size + t - lo)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=1)
def _pool(workers):
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(workers, thread_name_prefix="zetakit-chunk")


def _sum_chunks(chunks, fn, length):
    """The int64 sum, of the given length, of fn(chunk) over a _chunks
    walk; fn returns an int64 array of that length, or 0.

    The walk stays on the caller's thread, and with it the budget charge,
    the first build of a field's tables and the walk's trace form, which
    the caller builds once the charge is made.  A walk of one chunk, or a
    process with one usable CPU, runs fn there too; a longer walk runs fn
    on a pool of one thread per usable CPU (NumPy releases the GIL in its
    kernels), with at most workers + 1 chunks in flight.  Results are
    added in walk order.  Once a chunk has raised, no further chunk is
    submitted; those in flight are waited for, and the first exception in
    walk order is raised.
    """
    total = np.zeros(length, dtype=np.int64)
    workers = _usable_cpus()
    walk = iter(chunks)
    head = list(itertools.islice(walk, 2 if workers > 1 else 0))
    if len(head) < 2:
        for chunk in itertools.chain(head, walk):
            total += fn(chunk)
        return total
    from concurrent import futures  # about 4 ms, so only walks on the pool pay for it

    pool = _pool(workers)
    pending = collections.deque()
    try:
        for chunk in itertools.chain(head, walk):
            pending.append(pool.submit(fn, chunk))
            if len(pending) > workers:
                total += pending.popleft().result()
            if any(f.done() and f.exception() is not None for f in pending):
                break
    finally:
        futures.wait(pending)
    for f in pending:
        total += f.result()
    return total


def _enumerate_block(vs, eqs, ineqs, f, twist, B: BulkField, budget, keys=(),
                     fiber=None):
    """The one tally: the points of one variable block over B's field,
    walked in chunks over vs, as a flat int64 bincount indexed by
    key * width + e.  e is Tr(twist * f) mod p for an FFElem twist of the
    field and width is p, or, when f is None, e is 0 and width 1; key is
    the flat element index of the key polynomials' values, first key most
    significant (a single slot when there are no keys).

    A chunk's candidates are its points, or, with a fiber (y, roots) from
    a root solver (_fiber), the points (x, y) of each (rows, ys) batch of
    roots(chunk) = (n, batches), gathered into one chunk; a count with no
    conditions and no keys adds up the n roots and gathers nothing.
    Candidates are masked by eqs and ineqs and compacted (np.flatnonzero)
    before their traces and keys are gathered for one np.bincount.  The
    trace form of twist is built once, after the walk's first chunk has
    charged the budget, so a refused walk builds no tables.
    """
    p, Q = B.p, B.Q
    width = 1 if f is None else p
    length = Q ** len(keys) * width
    walk = _chunks(B, vs, budget)
    head = list(itertools.islice(walk, 1))
    form = None if f is None else B.trace_form(twist)
    count = f is None and not keys
    y, roots = fiber or (None, None)

    def tally(pts):
        at = np.flatnonzero(pts.mask(eqs, ineqs)) if eqs or ineqs else None
        n = pts.rows if at is None else len(at)
        if count:
            return np.array([n])
        if not n:
            return 0
        code = 0 if f is None else _gather(pts.trace(f, form), at)
        key = 0
        for u in keys:
            key = key * Q + B.index_of(_gather(pts.eval(u), at))
        return np.bincount(key * width + code, minlength=length)

    def fiber_tally(chunk):
        n, batches = roots(chunk)
        if count and not (eqs or ineqs):
            return np.array([n])
        return sum(tally(chunk.select(rows, {y: ys})) for rows, ys in batches)

    return _sum_chunks(itertools.chain(head, walk),
                       tally if fiber is None else fiber_tally, length)


def _gather(a, at):
    """a's flat rows at the positions at, or all of them for None."""
    return a if at is None else a.take(at, axis=0)


def fiber_histograms(X: VarietySpec, chi: AdditiveCharacter, budget=None):
    """Counts h[s, e] of points x in X(F_q) with base_map(x) = s and
    chi(Tr f(x)) = zeta_p^e.

    Rows follow the base points s in itertools.product order over element
    indices (first coordinate most significant).
    """
    E = _extension_spec(chi.field, 1)
    raw = _enumerate_block(list(range(X.nvars)), X.equations, X.inequations,
                           X.f, chi.c, BulkField(E), budget, keys=X.base_map or ())
    return raw.reshape(-1, chi.p)


def membership_walk(X: VarietySpec, others, F: FieldSpec, m: int = 1,
                    budget=None):
    """Walk the ambient space of X over F_{q^m} in chunks, in the order
    PointEnumeration visits points.

    Yields (inside, masks, point) per chunk: inside marks the rows that lie
    on X, masks[i] the rows on others[i] (specs on the same ambient), and
    point(row) is that row's coordinates as element indices.
    """
    B = BulkField(_extension_spec(F, m))
    for lead, r, chart in _cells(X):
        conds = [(S.equations, S.inequations) for S in map(chart, (X, *others))]
        for chunk in _chunks(B, list(range(r)), budget):
            inside, *masks = [chunk.mask(eqs, ineqs) for eqs, ineqs in conds]
            yield inside, masks, lambda row, c=chunk, lead=lead: [*lead, *c.point(row)]


# ---------------------------------------------------------------------------
# Block strategies, in dispatch order


def _full_space_hist(b: _Block):
    """Exact histogram over a block without constraints, no enumeration.

    [Q^r] for f = 0.  Otherwise Tr(twist * f) is one quadratic
    function x^T A x + L . x of the block's N = r * n digits over F_p
    (Lidl and Niederreiter, ch. 6), built in one pass over f's monomials:
    a * x_i^(p^j), for any p, adds the trace weights of
    (twist * a)^(p^(n - j)) to x_i's slice of L, since Tr(z^p) = Tr(z);
    a * x_i * x_k, for odd p, adds a/2 times the trace Gram matrix to the
    (i, k) and (k, i) blocks of A.  Any other monomial, or a constraint,
    returns None.  A centre x0 with 2A x0 = -L gives
    f(x0 + y) = y^T A y + kappa, kappa = L . x0 / 2; with none, L is not
    orthogonal to ker A, along which f moves evenly: the histogram is
    uniform.  For A's pivot columns I, A is congruent to A[I, I] + 0, so
    with h = |I| // 2 and D = det A[I, I], Thms 6.26-6.27 give
    hist[e] = p^(N-1) + eta((-1)^h D) p^(N-1-h) nu(e - kappa), where eta
    is the quadratic character and nu(v) is p - 1 at 0 and -1 elsewhere
    for |I| even, eta(v) for |I| odd.  For p = 2, A = 0, so the histogram
    is [p^N, 0, ..., 0] or uniform.
    """
    if b.eqs or b.ineqs:
        return None
    p, n = b.F.p, b.F.k * b.m  # b.E is built only for f != 0
    N = n * len(b.vs)
    if b.f.is_zero():
        return [p**N]
    at = {v: idx * n for idx, v in enumerate(b.vs)}
    A = [[0] * N for _ in range(N)]
    L = [0] * N
    B = BulkField(b.E)
    gram = B.trace_gram(B.trace_weights(b.twist))
    half = (p + 1) // 2  # 1/2 mod an odd p
    for exps, a in b.f.terms.items():  # a is nonzero mod p
        used = [(v, e) for v, e in enumerate(exps) if e]
        v, e = used[0]
        j = 0
        while e % p == 0:
            e, j = e // p, j + 1
        if len(used) == 1 and e == 1:  # a * x_v^(p^j)
            w = B.trace_weights((b.twist * b.E.element(a)).frobenius((n - j) % n))
            L[at[v]:at[v] + n] = [(x + y) % p for x, y in zip(L[at[v]:at[v] + n], w)]
        elif p != 2 and sum(e for _, e in used) == 2:  # x_i * x_k, i = k allowed
            i, k = (at[u] for u, d in used for _ in range(d))
            for s, row in enumerate(gram):
                for t, g in enumerate(row):
                    A[i + s][k + t] = (A[i + s][k + t] + a * half * g) % p
                    A[k + t][i + s] = (A[k + t][i + s] + a * half * g) % p
        else:
            return None
    x0 = _solve_mod_p(A, [-v * half % p for v in L], p)  # A's rows are its columns
    if x0 is None:
        return [p ** (N - 1)] * p
    kappa = sum(v * x for v, x in zip(L, x0)) * half % p
    I, _ = _row_reduce([row[:] for row in A], N, p)
    h = len(I) // 2
    _, D = _row_reduce([[A[i][j] for j in I] for i in I], len(I), p)
    _check_budget(p, b.budget)
    base = p ** (N - 1)
    amp = p ** (N - 1 - h) * (1 if pow((-1) ** h * D, (p - 1) // 2, p) == 1 else -1)
    if len(I) % 2 == 0:
        hist = [base - amp] * p
        hist[kappa] = base + (p - 1) * amp
        return hist
    eta = np.full(p, -1, np.int8)  # from one table of squares
    eta[0] = 0
    eta[np.arange(1, p // 2 + 1) ** 2 % p] = 1
    vals = np.array([base - amp, base, base + amp], dtype=object)
    return vals[np.roll(eta, kappa) + 1].tolist()


def _univariate_hist(b: _Block):
    """Exact histogram for a one-variable block from its roots in
    F_Q = F_{q^m}, by gcds with x^Q - x; None when f != 0 and one walk over
    the base field cannot give it.

    The finite side is the roots of the gcd of the equations that no
    inequation vanishes at, or, with no equations, the roots of the
    product of the inequations.  A count is the size of the first, or Q
    minus the size of the second, and nothing is walked.  For f != 0 the
    finite side must lie in the base field F_q, of any size, since the
    walk charges q where the engine would charge Q: for rho in F_q,
    Tr_{F_Q/F_p}(c f(rho)) = Tr_{F_q/F_p}(m * c * f(rho)), so the engine
    walks F_q once with the twist m * c, over the block's conditions or,
    with no equations, the product of the inequations as the only
    equation.  A walk whose point count differs from the gcd
    count raises RouteMismatch, so the histogram returned is the one
    checked.
    """
    if len(b.vs) != 1:
        return None
    F, p, var = b.F, b.F.p, b.vs[0]
    n = F.k * b.m
    bad = (1,)
    for h in b.ineqs:
        bad = gfpoly.mul(bad, h.to_univariate(var, p), p)
    if b.eqs:
        g = functools.reduce(lambda a, u: gfpoly.gcd(a, u, p),
                             (e.to_univariate(var, p) for e in b.eqs))
        roots = gfpoly.distinct_roots(g, p, n)
        finite = gfpoly.divmod_(roots, gfpoly.gcd(roots, bad, p), p)[0]
        count = gfpoly.deg(finite)
    else:
        finite = gfpoly.distinct_roots(bad, p, n)
        count = p**n - gfpoly.deg(finite)
    if b.f.is_zero():
        return [count]
    if not count:
        return [0] * p
    if gfpoly.deg(gfpoly.distinct_roots(finite, p, F.k)) != gfpoly.deg(finite):
        return None
    if b.eqs:
        full, eqs, ineqs = [0] * p, b.eqs, b.ineqs
    else:
        full = _full_space_hist(replace(b, ineqs=[]))
        if full is None:
            return None
        eqs, ineqs = [math.prod(b.ineqs, start=Poly.constant(b.f.nvars, 1))], []
    walked = _enumerate_block([var], eqs, ineqs, b.f, F.element(b.m) * b.c, BulkField(F),
                              b.budget)
    if int(walked.sum()) != gfpoly.deg(finite):
        raise RouteMismatch(f"walk over F_{F.q}: {walked.sum()} points, "
                            f"gcd: {gfpoly.deg(finite)}")
    sign = 1 if b.eqs else -1
    return [a + sign * int(v) for a, v in zip(full, walked)]


def _y_coefficients(e, y):
    """{k: the terms of the coefficient of y^k in e}, without y."""
    coeffs = {}
    for exps, c in e.terms.items():
        coeffs.setdefault(exps[y], {})[exps[:y] + (0,) + exps[y + 1:]] = c
    return coeffs


def _constant(terms, p):
    """The value mod p of a coefficient's terms if it is a constant, else 0."""
    exps = next(iter(terms))
    return terms[exps] % p if len(terms) == 1 and not any(exps) else 0


def _fiber(b: _Block):
    """(solver, e, y): the first equation e of the block, with the
    variable y it is solved for (the last variable tried first), that a
    fiber solver takes; None when neither does.

    _sqrt_roots comes first: e of degree 1 or (odd p) 2 in y with a
    constant leading coefficient, nonzero mod p.  Else _table_roots, for
    two variables: e = u(x) + w(y) with w nonconstant, over a field of
    fewer than 2^31 elements, so that keys and indices fit in int32.
    """
    if len(b.vs) < 2:
        return None
    p = b.F.p
    splits = [(e, y, _y_coefficients(e, y)) for y in reversed(b.vs) for e in b.eqs]
    for e, y, coeffs in splits:
        d = max(coeffs)
        if d in (1, 2) and (d == 1 or p != 2) and _constant(coeffs[d], p):
            return _sqrt_roots, e, y
    if len(b.vs) == 2 and b.F.q ** b.m < 1 << 31:
        for e, y, coeffs in splits:
            if max(coeffs) and all(_constant(c, p) for k, c in coeffs.items() if k):
                return _table_roots, e, y
    return None


def _fiber_hist(b: _Block):
    """Exponent histogram over a block with an equation e that a solver
    takes (_fiber): the roots y of e at the points of the other variables
    are the candidates of the one tally (_enumerate_block), over the
    conditions the solver leaves.  One BulkField serves the solver and
    the tally."""
    fiber = _fiber(b)
    if fiber is None:
        return None
    solver, e, y = fiber
    B = BulkField(b.E)
    roots, eqs, ineqs = solver(b, B, e, y, [q for q in b.eqs if q is not e], b.ineqs)
    f = None if b.f.is_zero() else b.f
    return _enumerate_block([v for v in b.vs if v != y], eqs, ineqs, f, b.twist, B,
                            b.budget, fiber=(y, roots)).tolist()


def _sqrt_roots(b: _Block, B, e, y, eqs, ineqs):
    """The roots of e = a y^2 + g(x) y + h(x), or a y + h(x), for a
    nonzero constant a: Q^(r-1) points x are charged, not Q^r.

    For odd p the roots are y = (-g +- s) / 2a with s^2 = D = g^2 - 4ah:
    1 + eta(D) of them for the quadratic character eta (Ireland and Rosen,
    ch. 8), so the second is taken only where D != 0.  The chunk rows of
    each kind are compacted once (np.flatnonzero) and s, and g, are
    gathered at them with take.  Degree 1 has the one root y = -h / a.
    Every other condition is left to the points.
    """
    coeffs = _y_coefficients(e, y)
    p = b.F.p
    a = _constant(coeffs[max(coeffs)], p)
    lin, const = (Poly(e.nvars, coeffs.get(k)) for k in (1, 0))

    def roots(chunk):
        h = chunk.eval(const)
        if 2 not in coeffs:
            rows = np.arange(chunk.rows)
            ys = B.scale(-pow(a, -1, p), h)
        else:
            g = None if lin.is_zero() else chunk.eval(lin)
            D = B.scale(-4 * a, h)
            if g is not None:
                D = B.add(B.mul(g, g), D)
            square, s = B.sqrt(D)
            one, two = np.flatnonzero(square), np.flatnonzero(square & B.nonzero(D))
            rows = np.concatenate([one, two])
            s = np.concatenate([s.take(one, axis=0), B.neg(s.take(two, axis=0))])
            if g is not None:
                s = B.add(B.neg(g.take(rows, axis=0)), s)
            ys = B.scale(pow(2 * a, -1, p), s)
        return len(rows), [(rows, ys)]

    return roots, eqs, ineqs


def _table_roots(b: _Block, B, e, y, eqs, ineqs):
    """The roots of e = u(x) + w(y) in a two-variable block, from a table
    of the elements t sorted by the key of -w(t).

    One walk over t in F_Q (charged Q) evaluates u(t) and -w(t), sharing
    the chunk's powers, and the conditions on x alone and on y alone; a
    t that fails one gets the key Q.  The t are sorted by key (one np.sort
    of the distinct int64 values key << 32 | index, whose low words are
    then the sorted indices), those keyed Q are cut off the end, and
    offsets[k] is where key k starts.  The roots at x are the run
    offsets[key(u(x))] up to the next offset, so a count is the sum of
    the run lengths; runs are expanded by np.repeat, about _CHUNK points
    at a time, and charged against the budget.  The conditions on x and
    y together are left to the points.
    Memory per field element, beyond the tables' 13: 4 of x keys, 8 of y
    keys packed and sorted, 4 of sorted indices and 4 of offsets.
    """
    x, = (v for v in b.vs if v != y)
    Q = B.Q
    u = Poly(e.nvars, {k: c for k, c in e.terms.items() if not k[y]})
    minus_w = (u - e).rename({y: x}, e.nvars)  # in x, to share the powers

    conds = (eqs, ineqs)
    on_x = [[q for q in c if y not in q.variables()] for c in conds]
    on_y = [[q.rename({y: x}, q.nvars) for q in c if x not in q.variables()] for c in conds]
    eqs, ineqs = ([q for q in c if len(q.variables()) == 2] for c in conds)

    # the keys of -w(t) and of u(t) by position in the walk; Q, past
    # every key, where a condition fails
    packed = np.empty(Q, dtype=np.int64)
    xkeys = np.empty(Q, dtype=np.int32)
    for chunk in _chunks(B, [x], b.budget):
        at = slice(chunk.start, chunk.start + chunk.rows)
        for out, poly, conds in ((packed, minus_w, on_y), (xkeys, u, on_x)):
            out[at] = B.key_of(chunk.eval(poly))
            if any(conds):
                out[at][~chunk.mask(*conds)] = Q
    packed <<= 32
    packed |= np.arange(Q, dtype=np.int32)
    packed.sort()
    packed = packed[:np.searchsorted(packed, Q << 32)]  # the t that pass
    table = packed.astype(np.int32)  # the low words
    packed >>= 32  # the keys, in order: counted a slice at a time
    offsets = np.zeros(Q + 1, dtype=np.int32)
    for i in range(0, len(packed), _CHUNK):
        seg = packed[i:i + _CHUNK]
        counts = np.bincount(seg - seg[0])
        offsets[seg[0] + 1:seg[0] + 1 + len(counts)] += counts
    del packed
    np.cumsum(offsets, out=offsets)
    expanded = 0
    lock = threading.Lock()  # chunks may expand on several threads

    def expand(lo, hi, n):
        nonlocal expanded
        with lock:
            expanded += n
            total = expanded
        _check_budget(total, b.budget)
        starts = np.zeros(len(lo) + 1, dtype=np.int64)
        np.cumsum(hi - lo, out=starts[1:])
        # whole runs per batch, cut where a run starts at or past k * _CHUNK
        cuts = [0, *np.searchsorted(starts, np.arange(_CHUNK, n, _CHUNK)).tolist(), len(lo)]
        shift = lo - starts[:-1]  # root j of run i is table[shift[i] + starts[i] + j]
        for r, end in zip(cuts, cuts[1:]):
            rows = np.repeat(np.arange(r, end), np.diff(starts[r:end + 1]))
            at = shift[rows]
            at += np.arange(starts[r], starts[end])
            yield rows, B.digits_of(table[at])

    def roots(chunk):  # the x walk repeats the table walk's positions
        # a key of Q clips to the empty run offsets[Q]:offsets[Q]
        k = xkeys[chunk.start:chunk.start + chunk.rows]
        lo, hi = np.take(offsets, k), np.take(offsets[1:], k, mode="clip")
        n = int(hi.sum(dtype=np.int64) - lo.sum(dtype=np.int64))
        return n, expand(lo, hi, n)

    return roots, eqs, ineqs


def _engine_hist(b: _Block):
    """The chunked engine over the whole block, under the budget."""
    f = None if b.f.is_zero() else b.f
    return _enumerate_block(b.vs, b.eqs, b.ineqs, f, b.twist, BulkField(b.E),
                            b.budget).tolist()


def _convolve_mod_p(h1, h2, p, budget):
    """The histogram of the sum mod p of independent exponents, of
    min(p, len(h1) + len(h2) - 1) entries, so two counts give a count; the
    pairs of nonzero entries it adds up are charged against the budget."""
    n1 = list(itertools.compress(range(p), h1))
    n2 = list(itertools.compress(range(p), h2))
    _check_budget(len(n1) * len(n2), budget)
    out = [0] * min(p, len(h1) + len(h2) - 1)
    for a in n1:
        u = h1[a]
        for b in n2:
            out[(a + b) % p] += u * h2[b]
    return out


def exp_sum(X: VarietySpec, chi: AdditiveCharacter, m: int = 1, budget=None) -> Cyclotomic:
    """N_{chi,m}(X,f) = sum over X(F_{q^m}) of chi at the trace of f."""
    return Cyclotomic.from_exponent_counts(chi.p, exponent_histogram(X, chi, m, budget))


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

    def _depth_divisors(self, m):
        """The divisors of m; TallyTooShallow past the tally's depth, where
        the closed points of degree m are not counted."""
        if m > self.r_max:
            raise TallyTooShallow(f"tally depth {self.r_max} < requested degree {m}")
        return _divisors(m)

    def recovered_count(self, m):
        """N_m = sum over r | m of r * a_r."""
        return sum(r * self.a_r(r) for r in self._depth_divisors(m))

    def n_chi_m(self, m) -> Cyclotomic:
        """N_{chi,m} = sum over alpha, r|m of r * a_{alpha,r} * alpha^(m/r)."""
        total = Cyclotomic.integer(self.p, 0)
        for r in self._depth_divisors(m):
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

    The per-degree exponent histograms go through orbit_inversion one
    degree at a time, so a failed inversion stops the enumeration there.
    """
    hists = (exponent_histogram(X, chi, r, budget) for r in range(1, r_max + 1))
    return ClosedPointTally(chi.field, chi.p, r_max, orbit_inversion(hists))


def orbit_inversion(histograms) -> dict:
    """Closed points a[(r, e)] from histograms h_r[e] given in degree order
    r = 1, 2, ... (any iterable; each is read only after the degrees below
    it are inverted).

    A closed point of exact degree d at exponent e contributes d points
    over F_{q^r} for each d | r, each at exponent (r/d) * e mod p, where p
    is the histogram length (a one-entry histogram [N_r] is a point count).
    What is left at degree r must be divisible by r and nonnegative; an
    AssertionError names the first degree where it is not.
    """
    a = {}
    for r, hist in enumerate(histograms, 1):
        hist = list(hist)
        p = len(hist)
        for (d, e), c in a.items():
            if r % d == 0 and d < r:
                hist[(r // d * e) % p] -= d * c
        for e in range(p):
            if hist[e] % r != 0 or hist[e] < 0:
                raise AssertionError(
                    f"orbit inversion failed at degree {r}: histogram {hist}")
            if hist[e]:
                a[(r, e)] = hist[e] // r
    return a


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
        if X.ambient == "projective":
            require_homogeneous(X)
        _check_budget((F.q**m) ** X.nvars, budget)
        self.field = _extension_spec(F, m)

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
