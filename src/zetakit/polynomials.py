"""Multivariate polynomials with integer coefficients.

Variables are named x0..x{n-1}; terms map exponent tuples to int
coefficients.  These polynomials are reduced coherently mod any prime
when evaluated over a finite field, and evaluated exactly over Z for
height computations.  String syntax: integer coefficients, +, -, *, ^
and parentheses, e.g. "x0^2+x1^2-1" or "2*x0*x1".
"""

from __future__ import annotations

import math

from .errors import ParseError


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exps, c in (terms or {}).items():
            if c != 0:
                clean[tuple(exps)] = clean.get(tuple(exps), 0) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def parse(cls, text, nvars):
        return _Parser(text, nvars).parse()

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return Poly.constant(self.nvars, other)
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n (1 for n <= 0).  A monomial (or 0) squares and
        multiplies: at most 2 log2(n) products of one term.  A base of t
        terms multiplies by itself n times, since squaring a dense power
        costs more than the products it saves, after charging the
        t * C(n + t - 1, t) term products that can form against the
        default budget, so an expansion too large to finish raises
        BudgetExceeded before it starts."""
        t = len(self.terms)
        if t > 1 and n > 1:
            from .varieties import _check_budget

            _check_budget(t * math.comb(n + t - 1, t), None)
            out = self
            for _ in range(n - 1):
                out = out * self
            return out
        out, base = None, self
        while n > 0:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return Poly.constant(self.nvars, 1) if out is None else out

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def variables(self):
        used = set()
        for e in self.terms:
            used.update(i for i, x in enumerate(e) if x)
        return used

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def is_linear_form(self):
        """Linear with zero constant term (subgroup-defining over a field)."""
        return all(sum(e) == 1 for e in self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def canonical_key(self):
        return (self.nvars, tuple(sorted(self.terms.items())))

    # -- evaluation and substitution ---------------------------------------

    def eval_int(self, point):
        total = 0
        for e, c in self.terms.items():
            v = c
            for x, n in zip(point, e):
                if n:
                    v *= x**n
            total += v
        return total

    def eval_ff(self, point):
        """Evaluate at a tuple of FFElem (coefficients reduced mod p)."""
        field = point[0].field
        total = field.zero()
        for e, c in self.terms.items():
            v = field.element(c)
            for x, n in zip(point, e):
                if n:
                    v = v * x**n
            total = total + v
        return total

    def substitute(self, assignment):
        """Partial evaluation: assignment maps var index -> int constant.

        Returns a Poly in the same variable numbering with those variables
        eliminated (their exponents folded into the coefficient).
        """
        terms = {}
        for e, c in self.terms.items():
            coeff = c
            new_e = list(e)
            for i, val in assignment.items():
                if e[i]:
                    coeff *= val ** e[i]
                    new_e[i] = 0
            key = tuple(new_e)
            terms[key] = terms.get(key, 0) + coeff
        return Poly(self.nvars, terms)

    def rename(self, mapping, new_nvars):
        """Re-index variables; mapping maps old index -> new index."""
        terms = {}
        for e, c in self.terms.items():
            new_e = [0] * new_nvars
            for i, n in enumerate(e):
                if n:
                    new_e[mapping[i]] += n
            key = tuple(new_e)
            terms[key] = terms.get(key, 0) + c
        return Poly(new_nvars, terms)

    def to_univariate(self, var, p):
        """Coefficient tuple over GF(p) in the single used variable `var`."""
        if not self.variables() <= {var}:
            raise ValueError("polynomial is not univariate in the given variable")
        d = max((e[var] for e in self.terms), default=0)
        coeffs = [0] * (d + 1)
        for e, c in self.terms.items():
            coeffs[e[var]] += c
        from . import gfpoly

        return gfpoly.trim(coeffs, p)

    def to_string(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            factors = []
            if abs(c) != 1 or not any(e):
                factors.append(str(abs(c)))
            for i, n in enumerate(e):
                if n == 1:
                    factors.append(f"x{i}")
                elif n > 1:
                    factors.append(f"x{i}^{n}")
            mono = "*".join(factors)
            parts.append(("-" if c < 0 else "+") + mono)
        s = "".join(parts)
        return s[1:] if s.startswith("+") else s

    def __repr__(self):
        return f"Poly({self.to_string()})"


class _Parser:
    def __init__(self, text, nvars):
        self.text = text
        self.nvars = nvars
        self.pos = 0

    def parse(self):
        result = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return result

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self):
        sign = 1
        if self._peek() == "-":
            self.pos += 1
            sign = -1
        elif self._peek() == "+":
            self.pos += 1
        result = sign * self._term()
        while self._peek() in ("+", "-"):
            op = self._peek()
            self.pos += 1
            t = self._term()
            result = result + t if op == "+" else result - t
        return result

    def _term(self):
        result = self._factor()
        while self._peek() == "*":
            self.pos += 1
            result = result * self._factor()
        return result

    def _factor(self):
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise ParseError("expected integer exponent", start)
            base = base ** int(self.text[start : self.pos])
        return base

    def _atom(self):
        ch = self._peek()
        start = self.pos
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch == "-":
            self.pos += 1
            return -self._factor()
        if ch.isdigit():
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return Poly.constant(self.nvars, int(self.text[start : self.pos]))
        if ch == "x":
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == dstart:
                raise ParseError("expected variable index after 'x'", dstart)
            idx = int(self.text[dstart : self.pos])
            if idx >= self.nvars:
                raise ParseError(f"variable x{idx} out of range (nvars={self.nvars})", dstart)
            return Poly.variable(self.nvars, idx)
        raise ParseError(f"unexpected character {ch!r}" if ch else "unexpected end of input",
                         self.pos)
