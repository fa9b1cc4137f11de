"""Univariate polynomial arithmetic over GF(p).

Polynomials are tuples of ints in [0, p), ascending degree, with the
leading coefficient nonzero; () is the zero polynomial.  Everything here
is scalar and exact; the vectorized engine lives in bulk.py.
"""

from __future__ import annotations

import functools


def trim(coeffs, p):
    coeffs = [c % p for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def deg(a):
    return len(a) - 1  # deg(0) == -1 by convention


def add(a, b, p):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], p)


def neg(a, p):
    return tuple((-c) % p for c in a)


def sub(a, b, p):
    return add(a, neg(b, p), p)


def mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out, p)


def divmod_(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv_lead) % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return trim(q, p), trim(a, p)


def mod(a, b, p):
    return divmod_(a, b, p)[1]


def gcd(a, b, p):
    while b:
        a, b = b, mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple((c * inv) % p for c in a)  # monic normalization
    return a


def mulmod(a, b, m, p):
    return mod(mul(a, b, p), m, p)


def powmod(a, e, m, p):
    result = (1,)
    a = mod(a, m, p)
    while e:
        if e & 1:
            result = mulmod(result, a, m, p)
        a = mulmod(a, a, m, p)
        e >>= 1
    return result


def is_irreducible(f, p):
    """Rabin's test: f of degree k is irreducible over GF(p) iff
    x^(p^k) == x mod f and gcd(x^(p^(k/l)) - x, f) == 1 for prime l | k."""
    k = deg(f)
    if k <= 0:
        return False
    if k == 1:
        return True
    x = (0, 1)
    for ell in sorted(set(_prime_factors(k))):
        d = k // ell
        xq = powmod(x, p**d, f, p)
        if deg(gcd(sub(xq, x, p), f, p)) > 0:
            return False
    return powmod(x, p**k, f, p) == x


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n):
    """Deterministic Miller-Rabin for 64-bit inputs."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def smallest_irreducible(p, k):
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Lower-order coefficients are scanned as base-p digits with the constant
    term least significant, so e.g. (2,3) yields x^3 + x + 1.
    """
    if k == 1:
        return (0, 1)
    for i in range(p**k):
        lower, j = [], i
        for _ in range(k):
            lower.append(j % p)
            j //= p
        f = tuple(lower) + (1,)
        if is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


def distinct_roots(f, p, n):
    """gcd(x^(p^n) - x, f) for nonzero f: the monic product of its distinct
    linear factors over GF(p^n), whose degree is f's number of roots there."""
    x = (0, 1)
    return gcd(sub(powmod(x, p**n, f, p), x, p), f, p)
