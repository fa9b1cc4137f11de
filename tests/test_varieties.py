"""Point counting, exponent histograms, and closed-point tallies.

The fast counting paths (the full space's closed form, from the centre,
rank and discriminant of its quadratic function on the digit space;
fibers solved by a square root or a root table) are cross-checked here
against a direct scalar enumeration, which is its own independent
implementation, and each strategy against the chunked engine, the closed
form also on random blocks.
"""

import itertools
import random
import sys
import threading
import time
import tracemalloc
from concurrent import futures
from dataclasses import replace

import numpy as np
import pytest
from conftest import _walk_in_small_chunks
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zetakit import bulk, kexp, scissor, varieties
from zetakit.bulk import BulkField
from zetakit.cyclofield import build_field, character, embedding, trace_to_prime_int
from zetakit.cyclotomic import Cyclotomic
from zetakit.errors import (
    BudgetExceeded,
    NonHomogeneous,
    ParseError,
    ProjectiveWithNonzeroF,
    RouteMismatch,
    TallyTooShallow,
)
from zetakit.polynomials import Poly
from zetakit.varieties import (
    affine,
    affine_line,
    affine_space,
    circle,
    closed_point_tally,
    count_points_ff,
    enumerate_points,
    exp_sum,
    exponent_histogram,
    gm,
    point_spec,
    product_spec,
    projective,
    projective_space,
    spec_from_json,
    sym_divisors,
    torus2,
    VarietySpec,
)


def brute_histogram(X, chi, m):
    """Scalar-oracle histogram of an affine spec: walk F_{q^m}^n in
    PointEnumeration's order and evaluate point by point in FFElem
    arithmetic.  Each power x^e, coefficient and character exponent is
    computed once per walk."""
    assert X.ambient == "affine"
    F = chi.field
    E = build_field(F.p, F.k * m, max_bits=64)
    elems = [E.from_index(i) for i in range(E.q)]
    powers = {}  # (element index, exponent) -> FFElem
    coeffs = {}  # int -> FFElem
    exponents = {}  # FFElem -> chi exponent

    def value(poly, idx):
        total = E.zero()
        for exps, c in poly.terms.items():
            if c not in coeffs:
                coeffs[c] = E.element(c)
            term = coeffs[c]
            for i, e in zip(idx, exps):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = elems[i] ** e
                    term = term * powers[i, e]
            total = total + term
        return total

    def exponent(y):
        if y not in exponents:
            exponents[y] = chi.exponent(y)
        return exponents[y]

    h = [0] * chi.p
    for idx in itertools.product(range(E.q), repeat=X.nvars):
        if all(value(e, idx).is_zero() for e in X.equations) and not any(
                value(u, idx).is_zero() for u in X.inequations):
            h[exponent(value(X.f, idx)) if X.f is not None else 0] += 1
    return h


# -- counts with known closed forms ------------------------------------------


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_standard_counts(p, k):
    F = build_field(p, k)
    q = F.q
    for m in (1, 2):
        Q = q**m
        assert count_points_ff(affine_line(), F, m) == Q
        assert count_points_ff(gm(), F, m) == Q - 1
        assert count_points_ff(torus2(), F, m) == (Q - 1) ** 2
        assert count_points_ff(projective_space(1), F, m) == Q + 1
        assert count_points_ff(projective_space(2), F, m) == Q**2 + Q + 1
        assert count_points_ff(point_spec(), F, m) == 1


def test_circle_counts():
    # x^2 + y^2 = 1: q - chi_4(q) points for odd q, 2 in characteristic 2
    assert count_points_ff(circle(), build_field(3, 1), 1) == 4
    assert count_points_ff(circle(), build_field(5, 1), 1) == 4
    assert count_points_ff(circle(), build_field(7, 1), 1) == 8
    assert count_points_ff(circle(), build_field(2, 1), 1) == 2


def test_product_count_is_multiplicative(F3):
    X, Y = gm(), circle()
    XY = product_spec(X, Y)
    for m in (1, 2):
        assert count_points_ff(XY, F3, m) == \
            count_points_ff(X, F3, m) * count_points_ff(Y, F3, m)


def test_enumeration_agrees_with_count(F5):
    X = affine(2, equations=["x0*x1 - 1"])  # a hyperbola, i.e. G_m
    pts = list(enumerate_points(X, F5, 1))
    assert len(pts) == count_points_ff(X, F5, 1) == 4
    assert len(set(tuple(c.index() for c in x) for x in pts)) == 4


def test_budget_enforced(F5):
    with pytest.raises(BudgetExceeded):
        count_points_ff(affine(6, ["x0^3 + x1*x2 + x3*x4*x5 - 1"]),
                        F5, 3, budget=10**4)


@pytest.mark.parametrize("run", [
    lambda F3: count_points_ff(gm("x0"), F3, budget=-5),  # the gcd count walks nothing
    lambda F3: count_points_ff(affine_space(2), F3, budget=0),  # nor does the full space
    lambda F3: exponent_histogram(affine_line("x0"), character(F3), 1, budget=-1),
    lambda F3: count_points_ff(affine(2, ["x1^2 + x0*x1 - x0^3 - 1"]), F3, budget=-5),
], ids=["gm", "full-space", "linear-f", "cubic"])
def test_budget_below_one_is_a_parse_error(F3, run):
    with pytest.raises(ParseError, match="budget must be an integer >= 1"):
        run(F3)


def test_budget_of_one_counts_without_a_walk(F3):
    assert count_points_ff(gm(), F3, budget=1) == 2


def test_histogram_convolutions_are_charged_to_the_budget():
    # x0^2 and x1^2 are two blocks of 505 values each over F_1009, so
    # their convolution adds up 505 * 505 pairs
    F = build_field(1009, 1)
    X = affine(2, f="x0^2 + x1^2")
    with pytest.raises(BudgetExceeded, match="255025"):
        exponent_histogram(X, character(F), 1, budget=10**5)
    # x^2 + y^2 = e: 2p - 1 points at e = 0 and p - 1 elsewhere, p = 1 mod 4
    assert list(exponent_histogram(X, character(F), 1)) == [2017] + [1008] * 1008
    # one block starts the fold, so no pairs are charged: 5004 values
    hist = exponent_histogram(affine_line(f="x0^2"), character(build_field(10007, 1)), 1,
                              budget=10**5)
    assert sum(hist) == 10007 and sum(map(bool, hist)) == 5004


@pytest.mark.parametrize("f,calls", [("x0*x1", 0), ("x0^2 + 3", 0), ("x0^2 + x1^2", 1)])
def test_block_histograms_fold_from_the_first_block(monkeypatch, f, calls):
    # the first block starts the fold and the constant term rotates it, so
    # only a second block is convolved
    seen = []
    convolve = varieties._convolve_mod_p
    monkeypatch.setattr(varieties, "_convolve_mod_p",
                        lambda *args: seen.append(args) or convolve(*args))
    X = affine(2 if "x1" in f else 1, f=f)
    chi = character(build_field(101, 1))
    assert list(exponent_histogram(X, chi, 1)) == brute_histogram(X, chi, 1)
    assert len(seen) == calls


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("X", [
    affine(2, f="x0*x1 + 5"),
    affine(2, ["x0^2 + x1^2 - 1"], f="5"),  # every block a count: padded, then rotated
], ids=["cross-term", "constant-only"])
def test_constant_term_rotates_by_its_trace(F9, X, m):
    # Tr_{F_{9^m}/F_3}(twist * 5) = 5 * m * 2 mod 3: 1 at m = 1 and 2 at
    # m = 2, not 5 mod 3 = 2 at both
    twist = next(c for c in map(F9.from_index, range(9)) if trace_to_prime_int(c) == 2)
    chi = character(F9, twist)
    assert list(exponent_histogram(X, chi, m)) == brute_histogram(X, chi, m)


def test_constant_term_rotates_a_large_prime_histogram():
    p = 1000003
    want = [p - 1] * p
    want[3] = 2 * p - 1
    assert list(exponent_histogram(affine(2, f="x0*x1 + 3"), character(build_field(p, 1)),
                                   1)) == want


def test_full_space_closed_form_walks_nothing():
    # x0*x1 over F_10007: the closed form charges p, not (p/2)^2 pairs per digit
    p = 10007
    X = affine(2, f="x0*x1")
    assert list(exponent_histogram(X, character(build_field(p, 1)), 1, budget=10**5)) == \
        [2 * p - 1] + [p - 1] * (p - 1)


def test_mixed_full_space_block_takes_the_closed_form(F3):
    # Frobenius-linear x0^9 and quadratic x0*x1 + x1^2 in one block: no
    # enumeration of the Q^2 = 3^12 points, so a small budget passes
    X = affine(2, f="x0^9 + x0*x1 + x1^2")
    assert list(exponent_histogram(X, character(F3), 6, budget=10**4)) == \
        [177633, 176904, 176904]


def test_connected_quadratic_form_swaps_a_pivot():
    # one block of four variables whose diagonalization swaps a column in
    F9 = build_field(3, 2)
    X = affine(4, f="2*x0*x2 + 2*x1*x2 + 2*x2*x3 + 2*x3^2")
    chi = character(F9, F9.from_index(3))
    assert list(exponent_histogram(X, chi, 1)) == brute_histogram(X, chi, 1) == \
        [2349, 2106, 2106]


def test_projective_equations_must_be_homogeneous(F3):
    X = projective(2, equations=["x0^2 + x1"])
    with pytest.raises(NonHomogeneous):
        count_points_ff(X, F3, 1)


# -- histograms against the scalar oracle ------------------------------------


ORACLE_CASES = [
    (affine_line(Poly.parse("x0^2", 1)), 3, 1, 2),
    (affine_line(Poly.parse("x0^3 + x0", 1)), 5, 1, 1),
    (gm(Poly.parse("x0", 1)), 2, 2, 2),
    (circle(Poly.parse("x0*x1", 2)), 3, 1, 2),
    (circle(Poly.parse("x0*x1", 2)), 5, 1, 1),
    (torus2(Poly.parse("x0 + x1", 2)), 3, 1, 2),
    (affine(2, ["x1^2 - x0^3 - 1"], f="x0"), 5, 1, 1),
    # a count block ([Q - 1]) convolved with a p-entry one
    (product_spec(circle(Poly.parse("x0*x1", 2)), gm()), 5, 1, 1),
    (product_spec(circle(Poly.parse("x0*x1", 2)), gm()), 5, 1, 2),
    (product_spec(circle(Poly.parse("x0*x1", 2)), gm()), 3, 2, 1),
]


@pytest.mark.parametrize("X,p,k,m", ORACLE_CASES)
def test_histogram_matches_scalar_enumeration(X, p, k, m):
    F = build_field(p, k)
    chi = character(F)
    assert list(exponent_histogram(X, chi, m)) == brute_histogram(X, chi, m)


def test_twisted_histogram_matches_oracle(F5):
    X = affine_line(Poly.parse("x0^2", 1))
    for t in range(1, 5):
        chi = character(F5, F5.from_index(t))
        assert list(exponent_histogram(X, chi, 1)) == brute_histogram(X, chi, 1)


def test_gauss_sum(F3):
    g = exp_sum(affine_line(Poly.parse("x0^2", 1)), character(F3))
    assert g == 1 + 2 * Cyclotomic.zeta_power(3, 1)
    assert g * g == -3


def test_exp_sum_over_full_line_vanishes(F5):
    # sum over F_q of chi(x) = 0 for nontrivial chi
    assert exp_sum(affine_line(Poly.parse("x0", 1)), character(F5)).is_zero()


# -- closed points ------------------------------------------------------------


def test_closed_points_of_line_count_irreducibles(F2):
    # degree-r closed points of A^1/F_2 = monic irreducibles of degree r
    tally = closed_point_tally(affine_line(), character(F2, F2.zero()), 4)
    assert [tally.a_r(r) for r in (1, 2, 3, 4)] == [2, 1, 2, 3]


def test_tally_recovers_point_counts(F3):
    X = circle()
    tally = closed_point_tally(X, character(F3, F3.zero()), 4)
    for m in (1, 2, 3, 4):
        assert tally.recovered_count(m) == count_points_ff(X, F3, m)


def test_tally_recovers_character_sums(F3):
    X = gm(Poly.parse("x0", 1))
    chi = character(F3)
    tally = closed_point_tally(X, chi, 3)
    for m in (1, 2, 3):
        assert tally.n_chi_m(m) == exp_sum(X, chi, m)


def test_tally_refuses_degrees_past_its_depth(F3):
    # N_3 of the circle over F_3 is 28; a depth-2 tally holds no degree-3 points
    tally = closed_point_tally(circle(), character(F3, F3.zero()), 2)
    assert count_points_ff(circle(), F3, 3) == 28
    with pytest.raises(TallyTooShallow, match="tally depth 2 < requested degree 3"):
        tally.recovered_count(3)
    with pytest.raises(TallyTooShallow, match="tally depth 2 < requested degree 3"):
        tally.n_chi_m(3)


def test_sym_counts_of_affine_line(F3):
    # Sym^n A^1 = A^n, so the count over F_q is q^n
    chi = character(F3, F3.zero())
    for n in (1, 2, 3, 4):
        count, _total = sym_divisors(affine_line(), chi, n)
        assert count == 3**n


# -- spec serialization --------------------------------------------------------


def test_spec_json_roundtrip():
    X = affine(2, ["x0^2 + x1^2 - 1"], ["x0"], f="x0*x1")
    Y = spec_from_json(X.to_json())
    assert Y.canonical_key() == X.canonical_key()


def test_projective_spec_roundtrip():
    X = projective(2, equations=["x0*x2 - x1^2"])
    Y = spec_from_json(X.to_json())
    assert Y.canonical_key() == X.canonical_key()


# -- the engine against the scalar oracle on generated specs -------------------


@st.composite
def small_specs(draw):
    """Affine specs with at most 20,000 candidate points over F_{q^m}."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k, m = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    Q = p ** (k * m)
    nv = draw(st.integers(1, max(n for n in (1, 2, 3) if Q**n <= 20000)))
    exps = st.tuples(*[st.sampled_from([0, 1, 2, 3, p, p * p])] * nv)

    def poly(max_terms):
        return Poly(nv, draw(st.dictionaries(exps, st.integers(-3, 3),
                                             max_size=max_terms)))

    eqs = [poly(3) for _ in range(draw(st.integers(0, 2)))]
    ineqs = [poly(2) for _ in range(draw(st.integers(0, 1)))]
    return affine(nv, eqs, ineqs, f=poly(3)), p, k, m


@settings(max_examples=15)
# a separable equation with a cross term in f: a square root per x0 over F_9
@example((affine(2, ["x0^3 - x0 + x1^2 - 1"], f="x0*x1 + x1^2"), 3, 1, 2))
# a root table where u(x0) = 0, whose key on the table kernel is Q - 1
@example((affine(2, ["x1^2"], f="x0*x1"), 2, 1, 1))
@given(small_specs())
def test_fast_paths_match_scalar_oracle_on_generated_specs(case):
    X, p, k, m = case
    F = build_field(p, k)
    chi = character(F, F.from_index(F.q - 1))
    brute = brute_histogram(X, chi, m)  # one scalar walk serves both checks
    assert list(exponent_histogram(X, chi, m)) == brute
    assert count_points_ff(X, F, m) == sum(brute)


def test_pair_expansion_is_charged_to_the_budget(F3):
    # x^Q - x vanishes on all of F_Q, so every one of Q^2 pairs matches
    X = affine(2, ["x0^2187 - x0 + x1^2187 - x1"], f="x0*x1")
    with pytest.raises(BudgetExceeded):
        exponent_histogram(X, character(F3), 7, budget=10**5)


def _scalar_cover_witness(d, F, m):
    """First target point, in enumeration order, not hit exactly once."""
    for point in enumerate_points(d.target, F, m):
        hits = [i for i, piece in enumerate(d.pieces)
                if varieties._satisfies(piece, point)]
        if len(hits) != 1:
            return [x.index() for x in point], hits
    return None, None


BROKEN_COVERS = [
    # off the conic, only x2 != 0 is covered: misses (1:1:0) first
    (projective(2), [projective(2, ["x0*x2 - x1^2"]),
                     projective(2, inequations=["x0*x2 - x1^2", "x2"])]),
    # the line x0 + x1 + x2 = 0 meets the cell x0 = 0 twice over
    (projective(2), [projective(2, inequations=["x0"]),
                     projective(2, ["x0"]),
                     projective(2, ["x0 + x1 + x2", "x1 - x2"])]),
    (projective(3, ["x0*x3 - x1*x2"]),
     [projective(3, ["x0*x3 - x1*x2", "x1"]),
      projective(3, ["x0*x3 - x1*x2"], ["x1 + x3"])]),
    (affine(3, ["x0*x1 - x2"]),
     [affine(3, ["x0*x1 - x2", "x0 - x1"]),
      affine(3, ["x0*x1 - x2"], ["x0 - x1", "x2 - 1"])]),
]


@pytest.mark.parametrize("target,pieces", BROKEN_COVERS)
@pytest.mark.parametrize("p,k,m", [(2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 1, 2)])
def test_cover_witness_is_the_scalar_walks_first_failure(target, pieces, p, k, m):
    _check_cover_witness(target, pieces, build_field(p, k), m)


def _check_cover_witness(target, pieces, F, m):
    d = scissor.Decomposition(target, pieces)
    report, = scissor.verify_disjoint_cover(
        d, [scissor.PointCountRealization(F, m)], strict=False)
    witness, hits = _scalar_cover_witness(d, F, m)
    if witness is None:
        assert report.details.get("kind") != "uncovered"
        return
    assert report.witness == witness
    assert report.details["kind"] == ("uncovered" if not hits else "double-covered")
    if hits:
        assert report.details["pieces"] == hits


# -- no production path walks points one FFElem at a time ------------------------


def test_production_paths_do_not_use_the_scalar_oracle(monkeypatch, F3, F4):
    def refuse(self):
        raise AssertionError("scalar point walk in a production path")
        yield  # pragma: no cover

    monkeypatch.setattr(varieties.PointEnumeration, "points", refuse)
    taken = []
    univariate = varieties._univariate_hist

    def spy(b):  # counts go through the same strategy; record histograms only
        part = univariate(b)
        if not b.f.is_zero():
            taken.append(part is not None)
        return part

    monkeypatch.setattr(varieties, "_univariate_hist", spy)

    cls = kexp.KExpClass.generator(affine(2, f="x0*x1", base_map=["x0", "x1"]))
    psi = kexp.realize_relative(cls, character(F3))
    assert psi.total() == 3  # sum of chi(xy) over F_3^2
    assert kexp.inversion_check(cls, character(F3))["verdict"] == "pass"
    cells = [
        scissor.Decomposition(affine(2), [affine(2, ["x0"]),
                                          affine(2, inequations=["x0"])]),
        scissor.Decomposition(projective(2), [projective(2, inequations=["x0"]),
                                              projective(2, ["x0"], ["x1"]),
                                              projective(2, ["x0", "x1"])]),
    ]
    for d in cells:
        for F in (F3, F4):
            report, = scissor.verify_disjoint_cover(
                d, [scissor.PointCountRealization(F, 2)])
            assert report.verdict == "pass"
    X = affine(1, ["x0^3 - x0"], ["x0 - 1"], f="x0^2")
    assert list(exponent_histogram(X, character(F3), 2)) == [1, 0, 1]  # Tr(x^2) at x = 0, 2
    assert taken == [True]


@pytest.mark.parametrize("p", [131, 257])
def test_pair_cross_terms_with_digits_above_127(p):
    # digits >= 128 must not wrap in the root table's cross terms
    F = build_field(p, 1)
    X = affine(2, ["x0^3 + x1^3 - 1"], f="x0*x1")
    chi = character(F, F.from_index(1))
    assert list(exponent_histogram(X, chi, 1)) == brute_histogram(X, chi, 1)


# -- one dispatcher: each block strategy against the engine ---------------------


def _block(nv, p, k, m, eqs=(), ineqs=(), f=None, twist=-1):
    """A block over all nv variables of affine(nv, ...), reduced mod p, with
    a nonzero twist, by default the last element of F_q, when f is given
    (as _histogram builds it)."""
    F = build_field(p, k)
    eqs, ineqs, fp, _ = varieties._reduce_polys(affine(nv, eqs, ineqs, f=f), p)
    b = varieties._Block(list(range(nv)), eqs, ineqs, fp, F, m, 10**7)
    if f is None:
        return b
    c = F.from_index(twist % F.q)
    return replace(b, c=c, twist=embedding(F, b.E)(c))


def _use_workers(monkeypatch, workers):
    """Run multi-chunk walks as if the process had this many CPUs: inline
    for 1, else on a pool of that many threads."""
    monkeypatch.setattr(varieties, "_usable_cpus", lambda: workers)


def _force_table(monkeypatch):
    """Send every block with two or more variables to the root table, which
    solves its first equation for its last variable."""
    monkeypatch.setattr(varieties, "_fiber",
                        lambda b: (varieties._table_roots, b.eqs[0], b.vs[-1]))


# blocks of up to about 10^6 candidate points, beyond the scalar oracle; a
# solver name stands for _fiber_hist with that solver, the table forced
STRATEGY_CASES = [
    ("_full_space_hist", _block(2, 2, 10, 1)),
    ("_full_space_hist", _block(2, 2, 5, 2, f="x0^2 + x1^8 + x1")),
    ("_full_space_hist", _block(2, 5, 4, 1, f="x0^2 + 3*x0*x1 + 2*x1")),
    ("_full_space_hist", _block(1, 3, 1, 12, f="x0^3 + x0^9")),
    ("_full_space_hist", _block(1, 7, 7, 1, f="3*x0^2 + x0")),
    ("_univariate_hist", _block(1, 7, 1, 7, ["x0^49 - x0"], ["x0 - 1"])),
    ("_univariate_hist", _block(1, 3, 12, 1, ineqs=["x0^2 + 1"])),
    ("_univariate_hist", _block(1, 2, 20, 1, ["x0^3 - 1"])),
    ("_univariate_hist", _block(1, 5, 8, 1, ["x0^25 - x0", "x0^5 - x0^2"])),
    ("_univariate_hist", _block(1, 3, 4, 3, ["x0^2 + 1", "x0^2 + x0 + 2"])),
    ("_univariate_hist", _block(1, 3, 2, 6, ["x0^9 - x0"], ["x0 - 1"], f="x0^2 + x0^5")),
    ("_univariate_hist", _block(1, 2, 4, 5, ineqs=["x0^4 - x0"], f="x0 + x0^4")),
    ("_univariate_hist", _block(1, 5, 1, 8, ineqs=["x0^5 - x0"], f="x0^2")),
    ("_univariate_hist", _block(1, 7, 1, 7, ["x0^7 - x0"], f="x0^3")),
    ("_univariate_hist", _block(1, 3, 1, 12, ["x0^2 + 1", "x0^2 + x0 + 2"], f="x0")),
    ("_table_roots", _block(2, 2, 10, 1, ["x0^3 + x1^5 + 1"])),
    ("_table_roots", _block(2, 3, 6, 1, ["x0^2 + x1^2 - 1"], ["x0"], f="x0*x1 + x1^2")),
    ("_table_roots", _block(2, 5, 2, 2, ["x0^3 - x1^2 - 1"], f="x0^2*x1")),
    ("_table_roots", _block(2, 7, 3, 1, ["x0^2 + 3*x1^3 - 2", "x0^3 - x1"])),
    ("_table_roots", _block(2, 7, 1, 3, ["x0^2 + 3*x1^3 - 2"], f="x0*x1^2 + x0")),
    # the circle: no y term, so the roots are +-s / 2a
    ("_sqrt_roots", _block(2, 3, 2, 3, ["x0^2 + x1^2 - 1"], f="x0*x1")),
    ("_sqrt_roots", _block(2, 3, 2, 3, ["x0^2 + x1^2 - 2"])),
    # a y term g(x) = x0 (the cubic of the zeta corpus), and a leading 3
    ("_sqrt_roots", _block(2, 5, 1, 3, ["x1^2 + x0*x1 - x0^3 - 2"])),
    ("_sqrt_roots", _block(2, 7, 1, 3, ["3*x1^2 + x0*x1 + x0^2 - 1"], f="x1^3 + x0")),
    ("_sqrt_roots", _block(2, 7, 2, 1, ["x1^2 - x0^3 - 3*x0"], ["x1"], f="x0*x1")),
    # y^2 = x0^2: a double root at x0 = 0
    ("_sqrt_roots", _block(2, 3, 1, 5, ["x1^2 - x0^2"], f="x0 + x1^2")),
    ("_sqrt_roots", _block(2, 3, 1, 5, ["x1^2 - x0^2"])),
    # degree 1 in y, with y in an inequation and in f
    ("_sqrt_roots", _block(2, 5, 2, 1, ["2*x1 + x0^3 - 1"], ["x0*x1 - 1"], f="x0*x1")),
    # three variables; y = x2 also in a second equation, an inequation and f
    ("_sqrt_roots", _block(3, 3, 1, 3, ["x2^2 + x0*x2 + x1 - 1", "x0*x2 + x1^2 - x2"],
                           ["x2 - x0"], f="x2^2*x1 + x0")),
    ("_sqrt_roots", _block(3, 5, 2, 1, ["x0^2 + 2*x1^2 + 3*x2^2 - 1"], f="x0*x1*x2")),
    ("_sqrt_roots", _block(3, 3, 2, 1, ["x0*x1 + x2^2 - x1*x2 - 1"], ["x0 + x2"])),
    # an inequation in x0 and x1 together, left to the expanded points
    ("_table_roots", _block(2, 5, 2, 1, ["x0^3 + x1^3 - 1"], ["x0*x1 - 1", "x0 + x1"],
                            f="x0^2*x1")),
    ("_table_roots", _block(2, 5, 2, 1, ["x0^3 + x1^3 - 1"], ["x0*x1 - 1", "x0 + x1"])),
    # rank 1 with the linear part on the kernel: uniform
    ("_full_space_hist", _block(2, 5, 1, 2, f="x0^2 + 2*x0*x1 + x1^2 + x0 - x1")),
    # rank 1, the linear part off the kernel: the remainder is zero
    ("_full_space_hist", _block(2, 5, 1, 2, f="x0^2 + 2*x0*x1 + x1^2 + x0 + x1")),
    # no square terms and a zero first row: a pivot swapped in
    ("_full_space_hist", _block(3, 3, 1, 1, f="x1*x2")),
    # Frobenius-linear and quadratic monomials in one block
    ("_full_space_hist", _block(2, 3, 1, 6, f="x0^9 + x0*x1 + x1^2")),
]


@pytest.mark.parametrize("name,block", STRATEGY_CASES)
def test_strategy_matches_the_engine_on_the_same_block(monkeypatch, name, block):
    if name == "_table_roots":
        _force_table(monkeypatch)
    elif name == "_sqrt_roots":
        assert varieties._fiber(block)[0] is varieties._sqrt_roots
    strategy = varieties._fiber_hist if name.endswith("_roots") else getattr(varieties, name)
    part = strategy(block)
    assert part is not None
    assert part == varieties._engine_hist(block)
    if block.f.is_zero():
        assert len(part) == 1  # a count is one entry
    # the same in small chunks, inline and on a pool of two threads
    _walk_in_small_chunks(monkeypatch, block.F.q ** block.m, block.F.k * block.m, "T")
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        assert strategy(block) == part


def _random_full_space_blocks(count, seed):
    """Seeded constraint-free blocks of at most 4096 points over small
    fields, f a sum of linear, Frobenius, square, cross and cubic monomials."""
    rng = random.Random(seed)
    for _ in range(count):
        p, k, m = rng.choice([(2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 1), (3, 1, 2),
                              (3, 2, 1), (5, 1, 1), (5, 2, 1), (7, 1, 1), (7, 1, 2)])
        n = k * m
        nv = rng.randint(1, max(v for v in (1, 2, 3) if p ** (n * v) <= 4096))
        x = [f"x{rng.randrange(nv)}" for _ in range(3)]
        monomials = [x[0], f"{x[0]}^{p ** rng.randint(1, n)}", f"{x[0]}^2",
                     f"{x[0]}*{x[1]}", f"{x[0]}*{x[1]}*{x[2]}"]
        f = " + ".join(f"{rng.randint(1, p - 1)}*{rng.choice(monomials)}"
                       for _ in range(rng.randint(1, 4)))
        yield _block(nv, p, k, m, f=f, twist=rng.randrange(1, p**k))


def test_full_space_closed_form_matches_the_engine_on_random_blocks():
    taken = declined = 0
    for block in _random_full_space_blocks(300, seed=22):
        part = varieties._full_space_hist(block)
        if part is None:
            declined += 1
        else:
            taken += 1
            assert part == varieties._engine_hist(block), block.f
    assert taken > 150 and declined > 20


@pytest.mark.parametrize("p,nv,f", [
    (101, 3, "x0*x1 + x1*x2 + x0^2"),  # rank 3, centre 0
    (101, 3, "x0*x1 + x1*x2 + x0^2 + 5*x2"),  # rank 3, f(centre) != 0
    (101, 3, "x0^2 + 2*x0*x1 + x1^2 + x2^2 + x0 + x1"),  # rank 2 of 3
    (1009, 2, "x0*x1 + 3*x0^2 + x1"),  # rank 2, f(centre) != 0
    (1009, 2, "x0^2 + 2*x0*x1 + x1^2 + x0 + x1"),  # rank 1 of 2
])
def test_connected_full_space_blocks_over_larger_primes(p, nv, f):
    block = _block(nv, p, 1, 1, f=f)
    assert varieties._full_space_hist(block) == varieties._engine_hist(block)


@pytest.mark.parametrize("block,solver", [
    (_block(2, 2, 2, 1, ["x0^2 + x1^2 - 1"]), "_table_roots"),  # p = 2: no square root
    (_block(2, 5, 1, 1, ["x0^3 + x1^3 - 1"], f="x0*x1"), "_table_roots"),  # degree 3 in both
    (_block(2, 3, 1, 2, ["x0*x1^2 + x0^2*x1 - 1"]), None),  # leading x0 in x1, x1 in x0
    (_block(3, 5, 1, 1, ["x0^3 + x1^3 + x2^3 - 1"]), None),  # separable, but three variables
], ids=["p2", "cubic", "non-constant-lead", "r3-cubic"])
def test_quadratic_strategy_declines_blocks_without_a_quadratic_fiber(block, solver):
    # the square root declines each block: two-variable separable ones go
    # to the root table, the others to the engine
    found = varieties._fiber(block)
    assert (found and found[0].__name__) == solver
    if solver is None:
        assert varieties._fiber_hist(block) is None


@pytest.mark.parametrize("split", ["R", "T"])
def test_quadratic_strategy_in_small_chunks(monkeypatch, split):
    # the leading variables of a three-variable block split across chunks
    block = _block(3, 3, 1, 3, ["x2^2 + x0*x2 + x1 - 1"], ["x2 - x0"], f="x2^2*x1 + x0")
    want = varieties._engine_hist(block)
    shapes = _walk_in_small_chunks(monkeypatch, 27, 3, split)
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        assert varieties._fiber_hist(block) == want
    assert len(shapes) > 1


def test_table_solver_in_small_chunks(monkeypatch):
    # x^9 - x is F_9-linear, so each x0 has about 9 roots x1: the table walk,
    # the x0 walk and each chunk's runs split into several pieces
    block = _block(2, 3, 4, 1, ["x0^9 - x0 + x1^9 - x1"], ["x0 + x1 + 1"], f="x0*x1 + x1")
    want = varieties._engine_hist(block)
    shapes = _walk_in_small_chunks(monkeypatch, 81, 4, "T")
    assert varieties._fiber(block)[0] is varieties._table_roots
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        assert varieties._fiber_hist(block) == want
    assert len(shapes) == 8  # two walks of two chunks per worker count


def test_expansion_budget_is_exact_on_worker_threads(monkeypatch):
    # 9 roots per x0, 729 in all, expanded in 21 chunks of 4 points on four
    # threads that switch often: the walks of 81 points pass, a budget of
    # 729 is met exactly, and 728 raises from a worker with no chunk left
    # running
    block = _block(2, 3, 4, 1, ["x0^9 - x0 + x1^9 - x1"], ["x0 + x1 + 1"], f="x0*x1 + x1")
    want = varieties._engine_hist(block)
    monkeypatch.setattr(varieties, "_CHUNK", 4 * 4)
    _use_workers(monkeypatch, 4)
    lock = threading.Lock()
    running, raised_on = 0, []
    sum_chunks = varieties._sum_chunks

    def spy(chunks, fn, length):
        def watched(chunk):
            nonlocal running
            with lock:
                running += 1
            try:
                return fn(chunk)
            except BudgetExceeded:
                raised_on.append(threading.current_thread())
                raise
            finally:
                with lock:
                    running -= 1

        return sum_chunks(chunks, watched, length)

    monkeypatch.setattr(varieties, "_sum_chunks", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            assert varieties._fiber_hist(replace(block, budget=729)) == want
            with pytest.raises(BudgetExceeded):
                varieties._fiber_hist(replace(block, budget=728))
            assert running == 0
    finally:
        sys.setswitchinterval(interval)
    assert raised_on and threading.main_thread() not in raised_on


def test_one_chunk_walks_run_on_the_callers_thread(monkeypatch):
    _use_workers(monkeypatch, 2)
    monkeypatch.setattr(varieties, "_pool", None)  # a pool would fail here
    threads = []

    def fn(i):
        threads.append(threading.current_thread())
        return np.ones(1, dtype=np.int64)

    assert varieties._sum_chunks(range(1), fn, 1).tolist() == [1]
    assert threads == [threading.current_thread()]


def test_chunk_pool_raises_the_first_failure_in_walk_order(monkeypatch):
    # three threads: once chunk 3 is submitted, chunk 2 fails, then chunk
    # 1, while chunk 3 is still running and chunk 0 holds the walk until
    # both have failed; chunk 4 would be submitted only after chunk 0 is
    # added.  Waits on the futures set this order, not timing.
    _use_workers(monkeypatch, 3)
    started, finished, submitted = [], [], []
    four_submitted = threading.Event()

    class Recording(futures.ThreadPoolExecutor):
        def submit(self, fn, *args):
            future = super().submit(fn, *args)
            submitted.append(future)
            if len(submitted) == 4:
                four_submitted.set()
            return future

    pool = Recording(3)
    monkeypatch.setattr(varieties, "_pool", lambda workers: pool)

    def fn(i):
        started.append(i)
        if i < 3:  # chunk i waits for the chunks after it, up to chunk 2
            four_submitted.wait(10)
            futures.wait(submitted[i + 1:3], timeout=10)
        else:
            time.sleep(0.3)
        finished.append(i)
        if i in (1, 2):
            raise ValueError(i)
        return np.ones(1, dtype=np.int64)

    with pytest.raises(ValueError) as caught:
        varieties._sum_chunks(range(20), fn, 1)
    assert caught.value.args == (1,)
    assert sorted(finished) == sorted(started) == [0, 1, 2, 3]
    pool.shutdown()


def test_concurrent_trace_tables_match_scalar_traces():
    # five twists, each rotated into its own trace table by threads that
    # switch often, with the field's tables bound before the pool starts
    F = build_field(3, 5)
    B = BulkField(F)
    tables = B._kernel.t
    powers = [F.from_index(int(i)) for i in tables.antilog[:-1]]  # g^k
    twists = [F.from_index(i) for i in (1, 2, 7, 100, 242)]
    want = {}
    for i, c in enumerate(twists):
        want[i] = [trace_to_prime_int(c * x) for x in powers] + [0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with futures.ThreadPoolExecutor(4) as pool:
            got = pool.map(lambda i: (i % 5, B.trace_form(twists[i % 5]).tolist()),
                           range(200))
            for i, table in got:
                assert table == want[i]
    finally:
        sys.setswitchinterval(interval)


TWISTED_WALKS = [
    ("engine", lambda: varieties._engine_hist(
        _block(2, 3, 1, 3, ["x0^3 + x1^3 + x0*x1 - 1"], f="x0*x1")), 27, 3),
    ("fiber", lambda: varieties._fiber_hist(
        _block(3, 3, 1, 2, ["x0^2 + x1^2 + x2^2 - 1"], f="x0*x1*x2")), 9, 2),
    ("base-field", lambda: varieties._univariate_hist(
        _block(1, 7, 1, 2, ["x0^7 - x0"], f="x0^3 + x0")), 7, 1),
    ("fiber-histograms", lambda: varieties.fiber_histograms(
        affine(2, ["x0^2 - x1^3 - x1"], f="x0*x1", base_map=["x0"]),
        character(build_field(5, 1))), 5, 1),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("walk,Q,n", [w[1:] for w in TWISTED_WALKS],
                         ids=[w[0] for w in TWISTED_WALKS])
def test_each_twisted_walk_builds_one_trace_form_on_the_callers_thread(
        monkeypatch, walk, Q, n, workers):
    # in small chunks, inline and on a pool, the form is built once per
    # walk, on the caller's thread and never on a worker
    trace_form = BulkField.trace_form
    threads = []

    def spy(self, twist):
        threads.append(threading.current_thread())
        return trace_form(self, twist)

    monkeypatch.setattr(BulkField, "trace_form", spy)
    shapes = _walk_in_small_chunks(monkeypatch, Q, n, "T")
    _use_workers(monkeypatch, workers)
    walk()
    assert threads == [threading.current_thread()]
    assert len(shapes) > 1


@pytest.mark.parametrize("block", [
    _block(2, 3, 2, 2, ["x0^2 + x1^2 - 1"], f="x0*x1"),
    _block(2, 17, 1, 1, ["x1^2 + x0*x1 - x0^3 - 2"], ["x1 - 1"], f="x1"),  # 17 - 1 = 2^4
    _block(3, 5, 1, 2, ["x0^2 + 2*x1^2 + 3*x2^2 - 1"], f="x0*x1*x2"),
], ids=["circle", "cubic", "r3"])
def test_quadratic_strategy_on_the_convolution_kernel(monkeypatch, block):
    # the digit-vector kernel's Tonelli-Shanks roots, against table walks
    want = varieties._engine_hist(block)
    monkeypatch.setattr(bulk, "_TABLE_LIMIT", 0)
    assert isinstance(BulkField(block.E)._kernel, bulk._ConvKernel)
    assert varieties._fiber_hist(block) == want


def test_swapped_variables_give_the_square_root_the_other_variable():
    # y^2 = x^3 + x + 1 over F_{9^6}, 9^12 points, beyond the engine: as
    # x1^2 = x0^3 + ... the square root solves for x1, with the variables
    # swapped for x0, and both walks give one histogram
    hists = []
    for equation, f, y in [("x1^2 - x0^3 - x0 - 1", "x0*x1 + x1", 1),
                           ("x0^2 - x1^3 - x1 - 1", "x1*x0 + x0", 0)]:
        block = _block(2, 3, 2, 6, [equation], f=f)
        solver, _e, solved = varieties._fiber(block)
        assert (solver, solved) == (varieties._sqrt_roots, y)
        hists.append(varieties._fiber_hist(block))
    assert hists[0] == hists[1] == [176985, 176499, 176499]


@pytest.mark.parametrize("kernel", ["table", "convolution"])
@pytest.mark.parametrize("f", [None, "x0*x1 + x1"])
@pytest.mark.parametrize("equation,count", [
    ("x1^2 + 2*x0*x1 + x0^2 - 3", 0),  # D = 12, not a square in F_343: no roots
    ("x1^2 - 2*x0*x1 + x0^2", 343),  # D = 0: the one root x1 = x0
], ids=["no-square", "all-zero"])
def test_square_roots_of_a_constant_discriminant(monkeypatch, kernel, f, equation, count):
    # every chunk gathers no roots, or first roots only
    block = _block(2, 7, 1, 3, [equation], f=f)
    assert varieties._fiber(block)[0] is varieties._sqrt_roots
    want = varieties._engine_hist(block)
    assert sum(want) == count
    if kernel == "convolution":
        monkeypatch.setattr(bulk, "_TABLE_LIMIT", 0)
        assert isinstance(BulkField(block.E)._kernel, bulk._ConvKernel)
    _walk_in_small_chunks(monkeypatch, 343, 3, "T")
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        assert varieties._fiber_hist(block) == want


@pytest.mark.parametrize("workers", [1, 2])
def test_a_count_sums_one_entry_per_chunk(monkeypatch, workers):
    # counts over F_p, p near 10^6, in chunks of 2^14 points, by the fiber
    # strategy (the circle), the full space and one variable's roots: no
    # histogram of p entries (8p bytes as a list or an int64 array) is
    # made, not a chunk's, the walk's total, a block's or a cell's
    F = build_field(999983, 1)
    p = F.q
    cases = [(circle(), p + 1),  # -1 is not a square mod p = 3 mod 4
             (affine_space(2), p * p),
             (affine(1, inequations=["x0^2 - 2"]), p - 2)]  # 2 is a square mod p = 7 mod 8
    count_points_ff(circle(), F)  # builds the tables outside the trace
    monkeypatch.setattr(varieties, "_CHUNK", 1 << 14)
    _use_workers(monkeypatch, workers)
    sum_chunks, walks, highs = varieties._sum_chunks, [], []

    def spy(chunks, fn, length):  # the walk's own peak, and the call's before it
        before, high = tracemalloc.get_traced_memory()
        highs.append(high)
        tracemalloc.reset_peak()
        total = sum_chunks(chunks, fn, length)
        walks.append(tracemalloc.get_traced_memory()[1] - before)
        return total

    monkeypatch.setattr(varieties, "_sum_chunks", spy)
    for X, want in cases:
        highs.clear()
        tracemalloc.start()
        try:
            assert count_points_ff(X, F) == want
            peak = max(highs + [tracemalloc.get_traced_memory()[1]])
        finally:
            tracemalloc.stop()
        assert peak < 4 * p, X  # the whole call: half of p int64 entries
    assert len(walks) == 1 and walks[0] < 8 * p // 4  # the circle's one walk


@pytest.mark.parametrize("f", [None, "x0*x1 + x1"])
def test_table_solver_on_the_convolution_kernel(monkeypatch, f):
    # digit rows as table keys: the key of zero is 0 there, not Q - 1
    block = _block(2, 3, 5, 1, ["x0^4 + x1^4 - x0"], ["x1 - 1", "x0 - x1"], f=f)
    want = varieties._engine_hist(block)
    monkeypatch.setattr(bulk, "_TABLE_LIMIT", 0)
    assert isinstance(BulkField(block.E)._kernel, bulk._ConvKernel)
    assert varieties._fiber(block)[0] is varieties._table_roots
    assert varieties._fiber_hist(block) == want


@pytest.mark.parametrize("p,m", [(3, 8), (2, 9)], ids=["sqrt", "root-table"])
def test_pooled_walks_on_the_convolution_kernel(monkeypatch, p, m):
    # n >= 8 digits per row, walked in several chunks inline and on the pool
    X = circle("x0*x1")
    chi = character(build_field(p, 1))
    want = exponent_histogram(X, chi, m)  # the table kernel
    monkeypatch.setattr(bulk, "_TABLE_LIMIT", 0)
    assert isinstance(BulkField(build_field(p, m))._kernel, bulk._ConvKernel)
    shapes = _walk_in_small_chunks(monkeypatch, p**m, m, "T")
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        assert exponent_histogram(X, chi, m) == want
    assert len(shapes) > 2


# three separable equations over F_{3^7}; x1 = x0 and x1 = -x0 solve all
SEPARABLE = ["x0^3 - x0 - x1^3 + x1", "x0^2 - x1^2", "x0^4 - x1^4"]


@pytest.mark.parametrize("f", [None, "x0*x1 + x1^2 + x0"])
@pytest.mark.parametrize("neqs", [1, 2, 3])
def test_separable_equations_on_the_root_table_match_the_engine(monkeypatch, neqs, f):
    # with two or three equations x1 = ±x0, so x1^2 != 1 leaves x0 = ±1
    # without a partner and every other x0 with one; the table solves the
    # first equation, and the others are tested on its roots
    _force_table(monkeypatch)
    block = _block(2, 3, 7, 1, SEPARABLE[:neqs], ["x0", "x1^2 - 1"], f=f)
    part = varieties._fiber_hist(block)
    assert part is not None
    assert part == varieties._engine_hist(block)


def test_root_table_memory_is_bounded_by_the_field():
    # two separable equations over GF(2^14): one table for the first, of
    # 2^14 keys, where joint keys of both would span 2^28
    F = build_field(2, 14)
    X = affine(2, ["x0^3 + x0 + x1^3 + x1", "x0^2 + x1^2"])  # x1 = x0
    bulk._cache.clear()
    tracemalloc.start()
    try:
        assert count_points_ff(X, F, 1) == 2**14
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def _fiber_peak(equation, solver, f, m):
    """Traced peak of _fiber_hist on a block of one equation over F_{9^m},
    the field's tables included."""
    block = _block(2, 3, 2, m, [equation], f=f)
    assert varieties._fiber(block)[0] is solver
    bulk._cache.clear()
    tracemalloc.start()
    try:
        assert varieties._fiber_hist(block) is not None
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("f", [None, "x0*x1"])
def test_pair_strategy_memory_grows_by_a_bounded_amount_per_element(f):
    # x0^4 + x1^4 = 1 on the root table over F_{3^(2m)}: its traced peak
    # may grow by at most 48 bytes per extra element from Q = 3^12 (m = 6)
    # to Q = 3^14 (m = 7)
    def peak(m):
        return _fiber_peak("x0^4 + x1^4 - 1", varieties._table_roots, f, m)

    assert (peak(7) - peak(6)) / (3**14 - 3**12) <= 48


@pytest.mark.parametrize("f", [None, "x0*x1"])
def test_quadratic_strategy_memory_grows_by_a_bounded_amount_per_element(f):
    # the circle by a square root: chunks of x0 and their roots x1, so
    # little beyond the tables' 13 bytes per element
    def peak(m):
        return _fiber_peak("x0^2 + x1^2 - 1", varieties._sqrt_roots, f, m)

    assert (peak(7) - peak(6)) / (3**14 - 3**12) <= 24


@pytest.mark.parametrize("X", [
    affine(3, ["x0^2 + 1"], f="x1^2*x2 + x1*x2^2"),
    affine(3, ["x2^2 + 1"], f="x0^2*x1 + x0*x1^2"),
])
def test_count_and_histogram_stop_at_the_same_empty_block(X):
    # x^2 + 1 has no root in F_243, so the f-block (3^10 points) is never walked
    F = build_field(3, 5)
    assert count_points_ff(X, F, 1, budget=10**4) == 0
    assert exponent_histogram(X, character(F), 1, budget=10**4) == [0, 0, 0]


def test_counts_never_expand_pairs(monkeypatch, F3):
    monkeypatch.setattr(varieties._Chunk, "select", None)
    X = affine(2, ["x0^2187 - x0 + x1^2187 - x1"], f="x0*x1")
    assert count_points_ff(X, F3, 7, budget=10**5) == 2187**2
    # a trivial character is a count as well: f is never evaluated
    assert exponent_histogram(X, character(F3, F3.zero()), 7,
                              budget=10**5) == [2187**2, 0, 0]


def test_projective_spec_with_f_is_refused(F3):
    X = VarietySpec("projective", 1, (), (), Poly.parse("x0*x1", 2), None)
    for chi in (character(F3), character(F3, F3.zero())):
        with pytest.raises(ProjectiveWithNonzeroF):
            exponent_histogram(X, chi, 1)
        with pytest.raises(ProjectiveWithNonzeroF):
            closed_point_tally(X, chi, 2)


# the engine misses a point on every walk, or only on walks given
# inequations, which a check walk made without them would not see
@pytest.mark.parametrize("ineqs,only_with_ineqs", [
    ([], False), (["x0 - 1"], False), (["x0 - 1"], True),
], ids=["ineqs0", "ineqs1", "ineqs1-only-with-inequations"])
def test_univariate_walk_that_misses_a_root_is_a_route_mismatch(monkeypatch, ineqs,
                                                                 only_with_ineqs):
    engine = varieties._enumerate_block

    def faulty(vs, eqs, ineqs, *args, **kwargs):
        tally = engine(vs, eqs, ineqs, *args, **kwargs)
        if ineqs or not only_with_ineqs:
            tally[tally.nonzero()[0][:1]] -= 1
        return tally

    monkeypatch.setattr(varieties, "_enumerate_block", faulty)
    # with equations: x^3 - x; without: the inequation locus of x^3 - x
    eqs, ineqs = (["x0^3 - x0"], ineqs) if ineqs else ([], ["x0^3 - x0"])
    block = _block(1, 3, 1, 2, eqs, ineqs, f="x0^2")
    with pytest.raises(RouteMismatch):
        varieties._univariate_hist(block)



@pytest.mark.parametrize("eqs,ineqs", [(["x0^2 + 1"], []), ([], ["x0^2 + 1"])])
def test_univariate_roots_outside_the_base_field_go_to_the_engine(F3, eqs, ineqs):
    # x^2 + 1 has its roots in F_9, not F_3, so a walk over F_3 cannot see them
    assert varieties._univariate_hist(_block(1, 3, 1, 2, eqs, ineqs, f="x0^2")) is None
    X = affine(1, eqs, ineqs, f="x0^2")
    chi = character(F3, F3.from_index(2))
    assert list(exponent_histogram(X, chi, 2)) == brute_histogram(X, chi, 2)


def test_univariate_walk_takes_a_large_base_field():
    # x = +-1 over F_4099^2: the walk charges q = 4099, the engine Q = q^2
    F = build_field(4099, 1)
    X = affine(1, ["x0^2 - 1"], f="x0")
    chi = character(F)
    hist = list(exponent_histogram(X, chi, 2, budget=10**5))
    expected = [0] * 4099
    expected[2] = expected[-2] = 1  # Tr(+-1) = +-2 from F_4099^2
    assert hist == expected
    assert list(exponent_histogram(X, chi, 2)) == hist

# -- the engine's grid layout against the scalar oracle -------------------------


# blocks of r = 1, 2, 3 variables over F_7, F_9 and F_5, with inequations,
# and an f with a constant, leading-only, last-only and mixed terms
GRID_CASES = [
    (1, 7, 1, 1, ["x0^4 - x0^2 + 1 - x0^3"], ["x0 - 1"], "x0^3 + 2*x0 + 1"),
    (2, 3, 1, 2, ["x0^2*x1 + x1^3 - x0 + 1"], ["x0*x1 - 2"], "x0*x1^2 + x1 + x0^2 + 1"),
    (3, 5, 1, 1, ["x0*x1*x2 + x2^2 - x0 - 1"], ["x0 + x1*x2"], "x0^2*x2 + x1*x2 + x0 + 2"),
]


@pytest.mark.parametrize("split", ["R", "T"])
@pytest.mark.parametrize("twisted", [False, True], ids=["count", "twisted"])
@pytest.mark.parametrize("nv,p,k,m,eqs,ineqs,f", GRID_CASES,
                         ids=["r1", "r2", "r3"])
def test_engine_grid_matches_scalar_oracle(monkeypatch, nv, p, k, m, eqs, ineqs, f,
                                           twisted, split):
    F = build_field(p, k)
    chi = character(F, F.from_index(F.q - 1))
    X = affine(nv, eqs, ineqs, f=f if twisted else None)
    want = brute_histogram(X, chi, m)
    Q = F.q**m
    shapes = _walk_in_small_chunks(monkeypatch, Q, k * m, split)
    block = _block(nv, p, k, m, eqs, ineqs, f=f if twisted else None)
    if not twisted:  # a count is the one entry of an f = 0 histogram
        assert not any(want[1:])
        want = want[:1]
    assert varieties._engine_hist(block) == want
    if split == "T":
        assert all(R == 1 and T < Q for R, T in shapes)
    else:
        assert {T for _R, T in shapes} == {Q}
        assert len(shapes) == -(-Q ** (nv - 1) // 2)  # two prefixes per chunk


@pytest.mark.parametrize("split", ["R", "T"])
@pytest.mark.parametrize("X", [
    affine(2, ["x0^2 - x1^3 - x1"], ["x1 - 1"], f="x0*x1 + x1^2 + 2",
           base_map=["x0 + x1"]),
    affine(3, inequations=["x0*x1 + x2"], f="x0*x2 + x1^2",
           base_map=["x2", "x0*x1"]),
], ids=["r2", "r3"])
def test_fiber_histograms_match_scalar_oracle_in_small_chunks(monkeypatch, X, split):
    F = build_field(5, 1)
    chi = character(F, F.from_index(2))
    want = np.zeros((F.q ** len(X.base_map), chi.p), dtype=np.int64)
    for x in enumerate_points(X, F, 1):
        s = 0
        for u in X.base_map:
            s = s * F.q + u.eval_ff(x).index()
        want[s, chi.exponent(X.f.eval_ff(x))] += 1
    _walk_in_small_chunks(monkeypatch, F.q, 1, split)
    for workers in (1, 2):
        _use_workers(monkeypatch, workers)
        assert np.array_equal(varieties.fiber_histograms(X, chi), want)


@pytest.mark.parametrize("split", ["R", "T"])
@pytest.mark.parametrize("target,pieces", BROKEN_COVERS)
@pytest.mark.parametrize("p,k,m", [(3, 1, 1), (2, 2, 1), (3, 1, 2)])
def test_cover_witness_is_the_same_in_small_chunks(monkeypatch, target, pieces,
                                                   p, k, m, split):
    _walk_in_small_chunks(monkeypatch, p ** (k * m), k * m, split)
    _check_cover_witness(target, pieces, build_field(p, k), m)


# -- orbit inversion -------------------------------------------------------------


def test_orbit_inversion_of_point_counts():
    # N_m = 2^m on A^1/F_2: degree-r closed points are the monic irreducibles
    assert varieties.orbit_inversion([2**m] for m in range(1, 5)) == {
        (1, 0): 2, (2, 0): 1, (3, 0): 2, (4, 0): 3}


def test_orbit_inversion_of_exponent_histograms():
    # p = 3; closed points: degree 1 at exponents 0 and 1, degree 2 at 2,
    # degree 3 at 1.  Over F_{q^r} a degree-d point (d | r) at exponent e
    # gives d points at (r/d) * e mod 3.
    hists = [[1, 1, 0], [1, 0, 2 + 1], [2, 3, 0]]
    assert varieties.orbit_inversion(hists) == {
        (1, 0): 1, (1, 1): 1, (2, 2): 1, (3, 1): 1}


@pytest.mark.parametrize("hists", [
    [[2], [0], [8]],  # -2 points of degree 2
    [[1], [2], [1]],  # 1 point left at degree 2, not divisible by 2
    [[1, 1, 0], [0, 0, 1], [2, 3, 0]],  # -1 points at exponent 0
    [[1, 1, 0], [1, 0, 2], [2, 3, 0]],  # 1 point left at exponent 2
], ids=["counts-negative", "counts-not-divisible",
        "histograms-negative", "histograms-not-divisible"])
def test_orbit_inversion_stops_at_the_first_bad_degree(hists):
    asked = []

    def stream():
        for r, h in enumerate(hists, 1):
            asked.append(r)
            yield h

    with pytest.raises(AssertionError, match="orbit inversion failed at degree 2"):
        varieties.orbit_inversion(stream())
    assert asked == [1, 2]  # degree 3 is never asked for
