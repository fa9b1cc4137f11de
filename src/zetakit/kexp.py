"""Classes of varieties with exponentials, and their Fourier transform.

A class is a formal integer combination of generators [X, f] — affine
specs carrying an exponent polynomial — optionally relative to a base
S = A^d through a polynomial map u.  Realization over (F_q, chi) sends
[X, f] to the character sum over X(F_q), or fiberwise to a function on
the base; the symbolic Fourier transform and its realized counterpart
are checked against each other exactly.

Fiberwise realization is one pass of the chunked engine of `varieties`
per generator.  The realized transform and finite Poisson summation stay
scalar sums over the base table: a route independent of the symbolic
transform they are checked against.  Both read the pairing chi(<s, y>)
from one q x q table of the exponents of chi(a * b), built with scalar
field products; chi is additive, so the exponent of chi(<s, y>) is the
sum of the table entries at (s_i, y_i), mod p.  Poisson summation takes
the transform only at the points of H-perp.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import varieties
from .cyclofield import AdditiveCharacter, FieldSpec, character
from .cyclotomic import Cyclotomic
from .errors import (
    BaseMismatch,
    CoefficientMismatch,
    IncompleteTable,
    MissingBaseMap,
    NonzeroRealization,
    NotASubgroup,
)
from .polynomials import Poly
from .varieties import VarietySpec


class KExpClass:
    """Formal sum of generators; identical canonical forms merge."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, (coef, spec) in (terms or {}).items():
            if coef:
                clean[key] = (coef, spec)
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def generator(cls, spec: VarietySpec, coef=1):
        if spec.ambient != "affine":
            raise ValueError("generators are affine specs (with f)")
        return cls({spec.canonical_key(): (coef, spec)})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, KExpClass):
            return NotImplemented
        terms = dict(self.terms)
        for key, (coef, spec) in other.terms.items():
            old = terms.get(key, (0, spec))[0]
            terms[key] = (old + coef, spec)
        return KExpClass(terms)

    def __neg__(self):
        return KExpClass({k: (-c, s) for k, (c, s) in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, KExpClass):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return KExpClass({k: (n * c, s) for k, (c, s) in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, KExpClass):
            return NotImplemented
        return {k: c for k, (c, _) in self.terms.items()} == {
            k: c for k, (c, _) in other.terms.items()
        }

    def __hash__(self):
        return hash(tuple(sorted((k, c) for k, (c, _) in self.terms.items())))

    def generators(self):
        return [(coef, spec) for coef, spec in self.terms.values()]

    def base_dim(self):
        """Common base dimension, or None for absolute classes."""
        dims = {len(s.base_map) if s.base_map else None
                for _, s in self.terms.values()}
        if len(dims) > 1:
            raise BaseMismatch(f"mixed bases {dims}")
        return dims.pop() if dims else None

    def to_json(self):
        return [{"coef": c, "spec": s.to_json()} for c, s in self.generators()]

    def __repr__(self):
        parts = [f"{c}*[{s!r}]" for c, s in self.generators()]
        return "KExpClass(" + (" + ".join(parts) or "0") + ")"


def kexp_mul(c1: KExpClass, c2: KExpClass) -> KExpClass:
    """Bilinear product; on generators [X,f][Y,g] = [X x Y, f + g].

    Relative classes multiply by fibered product over the shared A^d
    base: the two base maps are equated coordinatewise.
    """
    d1, d2 = c1.base_dim(), c2.base_dim()
    if (d1 is None) != (d2 is None) or d1 != d2:
        raise BaseMismatch(f"base {d1} vs {d2}")
    out = KExpClass.zero()
    for a, X in c1.generators():
        for b, Y in c2.generators():
            out = out + KExpClass.generator(_generator_product(X, Y), a * b)
    return out


def _generator_product(X, Y):
    prod = varieties.product_spec(X, Y)
    if X.base_map is None:
        return prod
    nX, n = X.dim, prod.dim
    shift = {i: i + nX for i in range(Y.dim)}
    ident = dict(enumerate(range(nX)))
    u1 = [u.rename(ident, n) for u in X.base_map]
    u2 = [u.rename(shift, n) for u in Y.base_map]
    eqs = prod.equations + tuple(a - b for a, b in zip(u1, u2))
    return VarietySpec("affine", n, eqs, prod.inequations, prod.f, tuple(u1))


def phi(spec: VarietySpec) -> KExpClass:
    """The annihilator construction: [X x A^1, f + t]."""
    return KExpClass.generator(
        _generator_product(_drop_base(spec),
                           varieties.affine_line(Poly.parse("x0", 1))))


def _drop_base(spec):
    if spec.base_map is None:
        return spec
    return VarietySpec(spec.ambient, spec.dim, spec.equations,
                       spec.inequations, spec.f, None)


# ---------------------------------------------------------------------------
# Realization


def realize(c: KExpClass, chi: AdditiveCharacter, m: int = 1,
            budget=None) -> Cyclotomic:
    """mu_chi: the integer combination of character sums, in Z[zeta_p]."""
    total = Cyclotomic.integer(chi.p, 0)
    for coef, spec in c.generators():
        total = total + coef * varieties.exp_sum(_drop_base(spec), chi, m, budget)
    return total


def annihilator_check(c: KExpClass, fields, budget=None) -> dict:
    """The class must realize to exactly 0 for every nontrivial character.

    fields: iterable of FieldSpec; all q-1 nontrivial twists are tried.
    """
    checked = []
    for F in fields:
        for t in range(1, F.q):
            chi = character(F, F.from_index(t))
            value = realize(c, chi, budget=budget)
            if not value.is_zero():
                raise NonzeroRealization(F.q, t, value)
            checked.append({"q": F.q, "twist": t})
    return {"verdict": "pass", "characters": checked}


@dataclass(frozen=True)
class MotFunction:
    """A function on S(F_q) = F_q^d with values in Z[zeta_p]; total table."""

    field: FieldSpec
    chi: AdditiveCharacter
    d: int
    table: dict  # tuple of element indices -> Cyclotomic

    def __call__(self, s):
        return self.table[tuple(s)]

    def total(self):
        out = Cyclotomic.integer(self.chi.p, 0)
        for v in self.table.values():
            out = out + v
        return out


def _base_points(F, d):
    return itertools.product(range(F.q), repeat=d)


def realize_relative(c: KExpClass, chi: AdditiveCharacter,
                     budget=None) -> MotFunction:
    """Fiberwise realization: Psi(s) = sum over the fiber of chi(f(x)),
    from one (base point x exponent) histogram per generator."""
    d = c.base_dim()
    if d is None:
        raise MissingBaseMap("class is absolute; no base to realize over")
    F = chi.field
    counts = sum(coef * varieties.fiber_histograms(spec, chi, budget).astype(object)
                 for coef, spec in c.generators())
    table = {s: Cyclotomic.from_exponent_counts(chi.p, list(row))
             for s, row in zip(_base_points(F, d), counts)}
    return MotFunction(F, chi, d, table)


# ---------------------------------------------------------------------------
# Fourier


def fourier_symbolic(c: KExpClass) -> KExpClass:
    """[X,f]_V  ->  [X x V^dual, f + <u, y>]_{V^dual}, extended linearly."""
    out = KExpClass.zero()
    for coef, spec in c.generators():
        if spec.base_map is None:
            raise MissingBaseMap(f"{spec!r} carries no base map")
        d = len(spec.base_map)
        nX = spec.dim
        n = nX + d
        ident = dict(enumerate(range(nX)))
        eqs = tuple(e.rename(ident, n) for e in spec.equations)
        ineqs = tuple(h.rename(ident, n) for h in spec.inequations)
        f = spec.f.rename(ident, n)
        for i, u in enumerate(spec.base_map):
            f = f + u.rename(ident, n) * Poly.variable(n, nX + i)
        base = tuple(Poly.variable(n, nX + i) for i in range(d))
        out = out + KExpClass.generator(
            VarietySpec("affine", n, eqs, ineqs, f, base), coef)
    return out


def _pairing(chi: AdditiveCharacter):
    """pair(s, y): the exponent of chi(<s, y>) at index tuples s, y, read
    from one q x q table of the exponents of chi(a * b): chi is additive."""
    elems = [chi.field.from_index(i) for i in range(chi.field.q)]
    T = [[chi.exponent(a * b) for b in elems] for a in elems]
    return lambda s, y: sum(T[a][b] for a, b in zip(s, y)) % chi.p


def _transform_at(psi: MotFunction, ys, pair) -> dict:
    """{y: Psi-hat(y) = sum_s Psi(s) chi(<s, y>)} at the base points ys."""
    expected = psi.field.q**psi.d
    if len(psi.table) != expected:
        raise IncompleteTable(f"{len(psi.table)} of {expected} base points")
    p = psi.chi.p
    support = [(s, v) for s, v in psi.table.items() if not v.is_zero()]
    return {y: sum((v * Cyclotomic.zeta_power(p, pair(s, y)) for s, v in support),
                   Cyclotomic.integer(p, 0))
            for y in ys}


def fourier_realized(psi: MotFunction) -> MotFunction:
    """Psi-hat(y) = sum_s Psi(s) chi(<s, y>), exact on the full table."""
    table = _transform_at(psi, _base_points(psi.field, psi.d), _pairing(psi.chi))
    return MotFunction(psi.field, psi.chi, psi.d, table)


def delta_class(s0) -> KExpClass:
    """The class of a base point: [pt, 0] with u(pt) = s0 (constants)."""
    base = tuple(Poly.constant(1, int(v)) for v in s0)
    return KExpClass.generator(
        VarietySpec("affine", 1, (Poly.parse("x0", 1),), (), Poly(1), base))


def inversion_check(c: KExpClass, chi: AdditiveCharacter, budget=None) -> dict:
    """realize(FF c)(s) == q^d * realize(c)(-s), entry by entry."""
    d = c.base_dim()
    if d is None:
        raise MissingBaseMap("inversion needs a relative class")
    F = chi.field
    double = realize_relative(fourier_symbolic(fourier_symbolic(c)), chi, budget)
    plain = realize_relative(c, chi, budget)
    scale = F.q**d
    for s in _base_points(F, d):
        neg = tuple((-F.from_index(i)).index() for i in s)
        lhs = double.table[tuple(s)]
        rhs = scale * plain.table[neg]
        if lhs != rhs:
            raise CoefficientMismatch(tuple(s), lhs, rhs)
    return {"verdict": "pass", "q": F.q, "d": d, "scale": scale}


# ---------------------------------------------------------------------------
# Finite Poisson summation


def poisson_finite_check(psi: MotFunction, h_equations) -> dict:
    """|H-perp| * sum_H Psi == sum_{H-perp} Psi-hat, exactly.

    H is the common zero set of linear forms on V = F_q^d; H-perp, cut out
    by the pairing table, is found by exhaustive search (V is tiny), and
    Psi-hat is taken on H-perp only.
    """
    F, chi, d = psi.field, psi.chi, psi.d
    eqs = [Poly.parse(e, d) if isinstance(e, str) else e for e in h_equations]
    for e in eqs:
        if not e.is_linear_form():
            raise NotASubgroup(f"{e!r} is not a linear form")
    elems = [F.from_index(i) for i in range(F.q)]
    points = list(_base_points(F, d))
    H = [s for s in points
         if all(e.eval_ff(tuple(elems[i] for i in s)).is_zero() for e in eqs)]
    pair = _pairing(chi)
    Hperp = [y for y in points if all(pair(s, y) == 0 for s in H)]
    zero = Cyclotomic.integer(chi.p, 0)
    rhs = sum(_transform_at(psi, Hperp, pair).values(), zero)
    lhs = sum((psi.table[s] for s in H), zero)
    if len(Hperp) * lhs != rhs:
        raise CoefficientMismatch("poisson", len(Hperp) * lhs, rhs)
    return {"verdict": "pass", "H_size": len(H), "Hperp_size": len(Hperp)}
