"""Prime and extension finite fields with exact additive characters.

A field GF(p^k) is described by a FieldSpec carrying the lexicographically
smallest monic irreducible modulus of degree k over GF(p); elements are
coefficient tuples in the basis 1, x, ..., x^(k-1).  Extension towers are
always built over GF(p) directly, and subfields embed via the smallest
root of the small modulus inside the big field.  Character values live in
Z[zeta_p] (see cyclotomic.py), never in floats.  Powers go through
cyclotomic's one square-and-multiply (via `gfpoly.powmod`), and linear
algebra mod p through its one Gauss-Jordan.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import gfpoly
from .cyclotomic import Cyclotomic, row_reduce, solve
from .errors import (
    BudgetExceeded,
    DegreeZero,
    FieldMismatch,
    IncompatibleFields,
    NotPrime,
)

# Default cap on directly constructed fields: p^k <= 2**24 keeps full
# enumeration of the field desk-scale.  Internal extension builds may pass
# a larger max_bits tied to the caller's enumeration budget.
DEFAULT_MAX_BITS = 24


@dataclass(frozen=True)
class FieldSpec:
    p: int
    k: int
    modulus: tuple  # length k+1, monic, ascending coefficients

    @property
    def q(self):
        return self.p**self.k

    def zero(self):
        return FFElem(self, (0,) * self.k)

    def one(self):
        return self.element(1)

    def element(self, coeffs):
        """Build an element from an int (prime-subfield value) or coefficient list."""
        if isinstance(coeffs, int):
            coeffs = (coeffs % self.p,) + (0,) * (self.k - 1)
        else:
            coeffs = tuple(c % self.p for c in coeffs)
            if len(coeffs) != self.k:
                raise ValueError(f"need {self.k} coefficients, got {len(coeffs)}")
        return FFElem(self, coeffs)

    def from_index(self, i):
        """Element number i, base-p digits with the constant term least significant."""
        coeffs = []
        for _ in range(self.k):
            coeffs.append(i % self.p)
            i //= self.p
        return FFElem(self, tuple(coeffs))

    def to_json(self):
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"


@functools.cache
def build_field(p: int, k: int, max_bits: int = DEFAULT_MAX_BITS) -> FieldSpec:
    """The canonical GF(p^k): lexicographically smallest monic irreducible modulus."""
    if not gfpoly.is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p >= 1 << 64:
        raise NotPrime(f"{p} exceeds 64 bits")
    if k < 1:
        raise DegreeZero(f"extension degree must be >= 1, got {k}")
    if p**k > 1 << max_bits:
        raise BudgetExceeded(p**k, 1 << max_bits)
    return FieldSpec(p, k, gfpoly.smallest_irreducible(p, k))


class FFElem:
    """Immutable element of a FieldSpec; supports ring ops, powers, Frobenius."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, FFElem):
            if isinstance(other, int):
                return self.field.element(other)
            return None
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        p = self.field.p
        return FFElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        F = self.field
        prod = gfpoly.mulmod(gfpoly.trim(self.coeffs, F.p), gfpoly.trim(other.coeffs, F.p),
                             F.modulus, F.p)
        return F.element(list(prod) + [0] * (F.k - len(prod)))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, e):
        F = self.field
        if e < 0:
            return self.inverse() ** (-e)
        r = gfpoly.powmod(gfpoly.trim(self.coeffs, F.p), e, F.modulus, F.p)
        return F.element(list(r) + [0] * (F.k - len(r)))

    def frobenius(self, times=1):
        """x -> x^(p^times)."""
        return self ** (self.field.p**times)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def index(self):
        i = 0
        for c in reversed(self.coeffs):
            i = i * self.field.p + c
        return i

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.field.element(other)
        if not isinstance(other, FFElem):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"{list(self.coeffs)}:{self.field!r}"


# ---------------------------------------------------------------------------
# Subfield embeddings and traces


class Embedding:
    """The deterministic embedding GF(p^k) -> GF(p^(k*m)).

    Realized by the smallest root (by element index) of the small modulus
    inside the big field; that root is located inside the Frobenius-fixed
    subspace, so no factoring is needed.
    """

    def __init__(self, small: FieldSpec, big: FieldSpec):
        if small.p != big.p or big.k % small.k != 0:
            raise IncompatibleFields(f"{small} does not embed in {big}")
        self.small = small
        self.big = big
        if small.k == 1:
            root = big.one()
        elif small == big:
            # x is a root of the modulus, and index p is the smallest outside F_p
            root = big.element([0, 1] + [0] * (big.k - 2))
        else:
            root = self._find_root()
        # matrix of the embedding: columns are digits of root^i
        powers = [big.one()]
        for _ in range(small.k - 1):
            powers.append(powers[-1] * root)
        self.root = root
        self._power_coeffs = [e.coeffs for e in powers]

    def _find_root(self):
        small, big = self.small, self.big
        p, n, k = big.p, big.k, small.k
        # subfield GF(p^k) inside big = kernel of Frobenius^k - id (F_p-linear)
        cols = []
        for j in range(n):
            basis = big.element([0] * j + [1] + [0] * (n - j - 1))
            img = basis.frobenius(k)
            cols.append([(img.coeffs[i] - (1 if i == j else 0)) % p for i in range(n)])
        kernel = _kernel_mod_p(cols, p)
        candidates = []
        h = gfpoly.trim(small.modulus, p)
        for vec in _span(kernel, p):
            x = big.element(vec)
            if _eval_poly(h, x).is_zero():
                candidates.append(x)
        if not candidates:
            raise IncompatibleFields("no root of the subfield modulus found")
        return min(candidates, key=lambda e: e.index())

    def __call__(self, x: FFElem) -> FFElem:
        if x.field != self.small:
            raise FieldMismatch("element not in the source field")
        p, n = self.big.p, self.big.k
        out = [0] * n
        for c, pw in zip(x.coeffs, self._power_coeffs):
            if c:
                for i in range(n):
                    out[i] = (out[i] + c * pw[i]) % p
        return self.big.element(out)

    def pullback(self, y: FFElem) -> FFElem:
        """Inverse on the image; raises if y is not in the embedded subfield."""
        p = self.big.p
        cols = [list(pw) for pw in self._power_coeffs]
        sol = _solve_mod_p(cols, list(y.coeffs), p)
        if sol is None:
            raise IncompatibleFields("element does not lie in the subfield image")
        return self.small.element(sol)


@functools.cache
def embedding(small: FieldSpec, big: FieldSpec) -> Embedding:
    return Embedding(small, big)


def trace(x: FFElem, down_to: FieldSpec) -> FFElem:
    """Tr over the subfield: sum of x^(q^i) for i < m, pulled back to down_to."""
    big = x.field
    if down_to.p != big.p or big.k % down_to.k != 0:
        raise IncompatibleFields(f"{down_to} is not a subfield of {big}")
    m = big.k // down_to.k
    q = down_to.q
    acc = x
    y = x
    for _ in range(m - 1):
        y = y**q
        acc = acc + y
    if down_to == big:
        return acc
    return embedding(down_to, big).pullback(acc)


def trace_to_prime_int(x: FFElem) -> int:
    """Absolute trace down to GF(p), as an integer in [0, p)."""
    if x.field.k == 1:
        return x.coeffs[0]
    # the prime field is far smaller than x's field, which was admitted
    return trace(x, build_field(x.field.p, 1, max_bits=64)).coeffs[0]


# ---------------------------------------------------------------------------
# Additive characters


@dataclass(frozen=True)
class AdditiveCharacter:
    """chi_c(x) = zeta_p ^ Tr_{F_q/F_p}(c*x); nontrivial iff c != 0."""

    field: FieldSpec
    c: FFElem

    def __post_init__(self):
        if self.c.field != self.field:
            raise FieldMismatch("twist does not live in the character's field")

    @property
    def p(self):
        return self.field.p

    def is_trivial(self):
        return self.c.is_zero()

    def exponent(self, x: FFElem) -> int:
        """The exponent e with chi(x) = zeta_p^e; x may live in an extension.

        For x in GF(q^m) the character is evaluated at the relative trace,
        which by transitivity equals the absolute trace of (embedded c) * x.
        """
        if x.field == self.field:
            return trace_to_prime_int(self.c * x)
        if x.field.p != self.field.p or x.field.k % self.field.k != 0:
            raise FieldMismatch(f"{x.field} is not an extension of {self.field}")
        c_big = embedding(self.field, x.field)(self.c)
        return trace_to_prime_int(c_big * x)

    def __call__(self, x: FFElem) -> Cyclotomic:
        return Cyclotomic.zeta_power(self.p, self.exponent(x))


def character(field: FieldSpec, c=1) -> AdditiveCharacter:
    """Convenience constructor; c is an int or coefficient list."""
    return AdditiveCharacter(field, field.element(c) if not isinstance(c, FFElem) else c)


# ---------------------------------------------------------------------------
# Small exact linear algebra mod p (column-based)


def _eval_poly(coeffs, x: FFElem):
    acc = x.field.zero()
    for c in reversed(coeffs):
        acc = acc * x + x.field.element(c)
    return acc


def _gf(p):
    """GF(p)'s normal form and inverse, the field of `row_reduce` and `solve`."""
    return (lambda v: v % p), (lambda v: pow(v, -1, p))


def _row_reduce(rows, n_cols, p):
    """`row_reduce` over GF(p): the pivot columns and the determinant mod p."""
    return row_reduce(rows, n_cols, *_gf(p))


def _kernel_mod_p(cols, p):
    """Kernel basis of the matrix with the given columns, over GF(p)."""
    rows = [list(row) for row in zip(*cols)]
    pivots, _ = _row_reduce(rows, len(cols), p)
    basis = []
    for c in range(len(cols)):
        if c in pivots:
            continue
        vec = [0] * len(cols)
        vec[c] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-rows[r][c]) % p
        basis.append(vec)
    return basis


def _span(basis, p):
    """All GF(p)-linear combinations of the basis vectors."""
    if not basis:
        yield [0] * 0
        return
    n = len(basis[0])
    total = p ** len(basis)
    for i in range(total):
        vec = [0] * n
        j = i
        for b in basis:
            c = j % p
            j //= p
            if c:
                for t in range(n):
                    vec[t] = (vec[t] + c * b[t]) % p
        yield vec


def _solve_mod_p(cols, rhs, p):
    """Solve A x = rhs mod p for A given by columns; None if inconsistent."""
    return solve(zip(*cols), rhs, len(cols), *_gf(p))
