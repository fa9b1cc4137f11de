"""GF(p) polynomial arithmetic, field towers, traces, characters, and the
small linear algebra mod p beside them."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetakit import gfpoly
from zetakit.cyclofield import (
    _kernel_mod_p,
    _row_reduce,
    _solve_mod_p,
    build_field,
    character,
    embedding,
    trace,
    trace_to_prime_int,
)
from zetakit.cyclotomic import Cyclotomic
from zetakit.errors import FieldMismatch, NotPrime


# -- gfpoly -----------------------------------------------------------------


def test_smallest_irreducible_is_deterministic_and_irreducible():
    for p, k in [(2, 1), (2, 4), (3, 2), (5, 3), (7, 2)]:
        f = gfpoly.smallest_irreducible(p, k)
        assert len(f) == k + 1 and f[-1] == 1
        assert gfpoly.is_irreducible(f, p)
        assert f == gfpoly.smallest_irreducible(p, k)


def test_known_conway_like_choices():
    # lexicographically smallest monic irreducibles, low-degree first
    assert list(gfpoly.smallest_irreducible(2, 2)) == [1, 1, 1]    # x^2+x+1
    assert list(gfpoly.smallest_irreducible(3, 2)) == [1, 0, 1]    # x^2+1
    assert list(gfpoly.smallest_irreducible(5, 2)) == [2, 0, 1]    # x^2+2


def test_reducible_detected():
    # x^2 - 1 = (x-1)(x+1) over F_5
    assert not gfpoly.is_irreducible([4, 0, 1], 5)


def test_divmod_reconstructs():
    p = 7
    a, b = [3, 0, 1, 5, 2], [4, 1, 1]
    q, r = gfpoly.divmod_(a, b, p)
    lhs = gfpoly.add(gfpoly.mul(q, b, p), r, p)
    assert lhs == gfpoly.trim(a, p)


def test_build_field_rejects_composite_characteristic():
    with pytest.raises(NotPrime):
        build_field(6, 1)


# -- field arithmetic -------------------------------------------------------


def test_field_cardinality_and_index_roundtrip(F9):
    assert F9.q == 9
    seen = {F9.from_index(i).index() for i in range(9)}
    assert seen == set(range(9))


def test_multiplicative_group_order(F9):
    one = F9.one()
    for i in range(1, 9):
        x = F9.from_index(i)
        assert x ** 8 == one  # Lagrange in F_9^*
        assert x * x.inverse() == one


def test_frobenius_fixes_prime_subfield(F9):
    for i in range(3):
        x = F9.from_index(i)
        assert x.frobenius() == x
    # and is a field automorphism of order k
    x = F9.from_index(5)
    assert x.frobenius(2) == x


def test_mixed_field_arithmetic_rejected(F3, F5):
    with pytest.raises(FieldMismatch):
        F3.one() + F5.one()


@given(st.integers(0, 24), st.integers(0, 24))
def test_frobenius_is_additive_and_multiplicative(i, j):
    F = build_field(5, 2)
    x, y = F.from_index(i), F.from_index(j)
    assert (x + y).frobenius() == x.frobenius() + y.frobenius()
    assert (x * y).frobenius() == x.frobenius() * y.frobenius()


# -- embeddings and traces --------------------------------------------------


def test_embedding_is_a_ring_map(F3, F9):
    emb = embedding(F3, F9)
    for i in range(3):
        for j in range(3):
            x, y = F3.from_index(i), F3.from_index(j)
            assert emb(x + y) == emb(x) + emb(y)
            assert emb(x * y) == emb(x) * emb(y)
            assert emb.pullback(emb(x)) == x


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (2, 5), (7, 3)])
def test_self_embedding_root_is_the_generator(p, k):
    # the root search over all of GF(p^k) finds x, the smallest root there
    F = build_field(p, k)
    emb = embedding(F, F)
    assert emb.root == emb._find_root()
    assert emb.root.index() == p


def test_self_embedding_of_a_large_field_is_the_identity():
    F = build_field(3, 10)
    emb = embedding(F, F)
    for i in (0, 1, 2, 3, 4, 1234, 59048):
        x = F.from_index(i)
        assert emb(x) == x
        assert emb.pullback(x) == x


def test_trace_surjects_and_is_additive(F9, F3):
    emb = embedding(F3, F9)
    values = set()
    for i in range(9):
        x = F9.from_index(i)
        t = trace(x, F3)
        assert emb(t) == x + x.frobenius()  # k=2: Tr = id + Frob
        values.add(t.index())
    assert values == {0, 1, 2}


def test_trace_transitivity():
    F3 = build_field(3, 1)
    F81 = build_field(3, 4)
    F9 = build_field(3, 2)
    for i in range(81):
        x = F81.from_index(i)
        direct = trace(x, F3)
        via = trace(embedding(F9, F81).pullback(
            embedding(F9, F81)(trace(x, F9))), F3)
        assert direct == via
        assert trace_to_prime_int(x) == direct.index()


# -- additive characters ----------------------------------------------------


def test_character_is_multiplicative_on_addition(F9):
    chi = character(F9)
    for i in range(9):
        for j in range(9):
            x, y = F9.from_index(i), F9.from_index(j)
            assert chi(x + y) == chi(x) * chi(y)


def test_character_sum_vanishes_for_nontrivial_twist(F5):
    for t in range(1, 5):
        chi = character(F5, F5.from_index(t))
        total = Cyclotomic.integer(5, 0)
        for i in range(5):
            total = total + chi(F5.from_index(i))
        assert total.is_zero()


def test_trivial_character(F5):
    chi = character(F5, F5.zero())
    assert chi.is_trivial()
    assert all(chi.exponent(F5.from_index(i)) == 0 for i in range(5))


# -- linear algebra mod p -----------------------------------------------------


def _det(M, p):
    """The determinant mod p as a sum over permutations."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(M[i][perm[i]] for i in range(n))
    return total % p


def _rank(M, p):
    """The size of the largest nonzero minor, from permutation sums."""
    rows, cols = range(len(M)), range(len(M[0]) if M else 0)
    return next((k for k in range(min(len(rows), len(cols)), 0, -1)
                 if any(_det([[M[i][j] for j in C] for i in R], p)
                        for R in itertools.combinations(rows, k)
                        for C in itertools.combinations(cols, k))), 0)


def _random_square_matrices():
    """Seeded square matrices mod p, sparse enough that singular ones and
    ones whose first column needs a row swap both occur."""
    rng = random.Random(20)
    for p in (2, 3, 7, 101):
        for n in range(1, 6):
            for _ in range(12):
                zeros = rng.choice([0.0, 0.4, 0.7])
                yield p, [[0 if rng.random() < zeros else rng.randrange(p)
                           for _ in range(n)] for _ in range(n)]


def test_row_reduce_returns_the_determinant():
    singular = swapped = 0
    for p, M in _random_square_matrices():
        n = len(M)
        rows = [row[:] for row in M]
        pivots, det = _row_reduce(rows, n, p)
        assert det == _det(M, p)
        # the i-th pivot is the first column that raises the rank to i + 1
        assert pivots == [c for c in range(n)
                          if _rank([row[:c + 1] for row in M], p) >
                          _rank([row[:c] for row in M], p)]
        singular += len(pivots) < n
        swapped += len(pivots) == n and M[0][0] % p == 0
    assert singular and swapped


def test_kernel_and_solve_mod_p_against_the_rank():
    rng = random.Random(21)
    for p, M in _random_square_matrices():
        n = len(M)
        cols = [list(c) for c in zip(*M)]
        rank = _rank(M, p)
        kernel = _kernel_mod_p(cols, p)
        assert len(kernel) == n - rank == _rank(kernel, p)
        for vec in kernel:
            assert all(sum(a * x for a, x in zip(row, vec)) % p == 0 for row in M)
        for rhs in ([rng.randrange(p) for _ in range(n)], [0] * n):
            sol = _solve_mod_p(cols, rhs, p)
            augmented = [[*row, b] for row, b in zip(M, rhs)]
            assert (sol is None) == (_rank(augmented, p) > rank)
            if sol is not None:
                assert [sum(a * x for a, x in zip(row, sol)) % p for row in M] == rhs
