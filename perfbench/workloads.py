"""Seeded workloads for the zetakit benchmark.

A workload turns a seed into inputs (variety specs as JSON, character
twists as element indices), hands them to zetakit's public parsers and
builders, and returns a Case: the jobs to time plus, for each job, a
check that is independent of the program's own two-route verification.

The seed only picks among inputs of equal cost (coefficients, twists,
coordinate permutations); field, series depth and box size are fixed per
workload so that timings from different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from zetakit import heights, kexp, varieties, witt, zetas
from zetakit.cyclofield import build_field, character
from zetakit.cyclotomic import Cyclotomic


class CheckFailed(Exception):
    """A job's result disagrees with the benchmark's own check."""


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    # result -> canonical JSON value for the reference; raises CheckFailed
    check: Callable[[object], object]


@dataclass
class Case:
    key: str  # names the input variant; references are stored under it
    jobs: list


def _affine_spec(dim, equations=(), inequations=(), f=None, base_map=None):
    spec = {"ambient": {"type": "affine", "dim": dim},
            "equations": list(equations), "inequations": list(inequations)}
    if f is not None:
        spec["f"] = f
    if base_map is not None:
        spec["base_map"] = list(base_map)
    return spec


def _projective_spec(n, equations=()):
    return {"ambient": {"type": "projective", "dim": n},
            "equations": list(equations)}


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# expzeta_pair: twisted zeta of a circle over F_9, pair matching + bulk mul


EXPZETA_ORDER = 7


def expzeta_pair(seed) -> Case:
    rng = random.Random(seed)
    a = rng.choice((1, 2))
    twist = rng.randrange(1, 9)
    F = build_field(3, 2)
    X = varieties.spec_from_json(
        _affine_spec(2, [f"x0^2 + x1^2 - {a}"], f="x0*x1"))
    chi = character(F, F.from_index(twist))

    def check(z):
        got = [_z3(z.coeffs[n]) for n in (1, 2)]
        want = _circle_zeta_prefix(F.modulus, a, twist)
        _require(got == want, f"t^1, t^2 coefficients {got} != brute force {want}")
        return z.to_json()

    return Case(f"a={a},twist={twist}", [
        Job("exp_zeta", lambda: zetas.exp_zeta(X, chi, EXPZETA_ORDER), check)])


def _z3(c):
    """A Z[zeta_3] series coefficient as (a, b) = a + b*zeta."""
    if isinstance(c, Cyclotomic):
        return tuple(int(x) for x in c.coeffs)
    return (int(c), 0)


def _circle_zeta_prefix(modulus, a, twist):
    """Coefficients of t and t^2 of the twisted zeta of x0^2 + x1^2 = a with
    f = x0*x1, by a scalar character sum over F_9 and F_81.

    F_9 = F_3[x]/(modulus) in the program's basis (the twist is given in
    it); F_81 is built here as F_9[y]/(y^2 - nu) for a non-square nu, so
    no embedding or extension modulus is shared with the program.
    """
    m0, m1 = modulus[0], modulus[1]
    elems = [(i % 3, i // 3) for i in range(9)]
    index = {e: i for i, e in enumerate(elems)}
    add9 = [[index[((u0 + v0) % 3, (u1 + v1) % 3)] for v0, v1 in elems]
            for u0, u1 in elems]
    mul9 = [[index[((u0 * v0 - m0 * u1 * v1) % 3,
                    (u0 * v1 + u1 * v0 - m1 * u1 * v1) % 3)] for v0, v1 in elems]
            for u0, u1 in elems]
    tr9 = [(2 * u0 - m1 * u1) % 3 for u0, u1 in elems]  # Tr(x) = -m1
    nu = next(v for v in range(1, 9) if all(mul9[z][z] != v for z in range(9)))

    def add81(s, t):
        return (add9[s[0]][t[0]], add9[s[1]][t[1]])

    def mul81(s, t):
        (u1, v1), (u2, v2) = s, t
        return (add9[mul9[u1][u2]][mul9[nu][mul9[v1][v2]]],
                add9[mul9[u1][v2]][mul9[v1][u2]])

    def power_sum(points, add, mul, trace, target, c):
        squares = {x: mul(x, x) for x in points}
        hist = [0, 0, 0]
        for x0 in points:
            for x1 in points:
                if add(squares[x0], squares[x1]) == target:
                    hist[trace(mul(c, mul(x0, x1)))] += 1
        return (hist[0] - hist[2], hist[1] - hist[2])  # zeta^2 = -1 - zeta

    a9 = index[(a, 0)]
    n1 = power_sum(range(9), lambda s, t: add9[s][t], lambda s, t: mul9[s][t],
                   tr9.__getitem__, a9, twist)
    # Tr_{F_81/F_9}(u + v y) = 2u
    n2 = power_sum([(u, v) for u in range(9) for v in range(9)], add81, mul81,
                   lambda s: tr9[add9[s[0]][s[0]]], (a9, 0), (twist, 0))

    def zmul(s, t):  # zeta^2 = -1 - zeta
        return (s[0] * t[0] - s[1] * t[1], s[0] * t[1] + s[1] * t[0] - s[1] * t[1])

    sq = zmul(n1, n1)
    # exp(N1 t + N2 t^2 / 2) = 1 + N1 t + (N1^2 + N2)/2 t^2 + ...
    num = (sq[0] + n2[0], sq[1] + n2[1])
    if num[0] % 2 or num[1] % 2:
        return [n1, ("non-integral", num)]
    return [n1, (num[0] // 2, num[1] // 2)]


# ---------------------------------------------------------------------------
# zeta_exhaustive: Hasse-Weil zeta of an affine cubic over F_3, exhaustive


HW_ORDER = 7


def zeta_exhaustive(seed) -> Case:
    rng = random.Random(seed)
    a1, a6 = rng.choice((1, 2)), rng.choice((1, 2))
    F = build_field(3, 1)
    X = varieties.spec_from_json(
        _affine_spec(2, [f"x1^2 + {a1}*x0*x1 - x0^3 - {a6}"]))

    def run():
        z = zetas.hw_zeta(X, F, HW_ORDER)
        rc = zetas.rational_reconstruct(z, 2)
        witt.lift_roundtrip(z, 2)
        return z, rc

    def check(out):
        z, rc = out
        n1 = sum(1 for x0 in range(3) for x1 in range(3)
                 if (x1 * x1 + a1 * x0 * x1 - x0**3 - a6) % 3 == 0)
        P, Q = list(rc.numerator), list(rc.denominator)
        _require(Q == [1, -3], f"denominator {Q} != 1 - 3t")
        _require(len(P) == 3 and P[0] == 1 and P[2] == 3,
                 f"numerator {P} is not 1 + c t + 3 t^2")
        _require(P[1] ** 2 <= 12, f"|c| = |{P[1]}| exceeds 2*sqrt(3)")
        _require(z.coeffs[1] == n1 == 3 + P[1],
                 f"N_1: series {z.coeffs[1]}, brute force {n1}, 3 + c = {3 + P[1]}")
        return {"zeta": z.to_json(), "rational": rc.to_json()}

    return Case(f"a1={a1},a6={a6}", [Job("hw_zeta+reconstruct+lift", run, check)])


# ---------------------------------------------------------------------------
# fourier_scalar: Fourier inversion and Poisson summation, scalar path

# classes as lists of (coefficient, spec JSON) or (coefficient, ("delta", s0))
FOURIER_CLASSES = [
    [(1, ("delta", (1,)))],
    [(1, _affine_spec(1, f="x0^2", base_map=["x0"]))],
    [(1, _affine_spec(1, inequations=["x0"], f="x0", base_map=["x0"]))],
    [(1, _affine_spec(1, f="0", base_map=["x0^2"]))],
    [(1, _affine_spec(1, f="x0^2", base_map=["x0"])), (-2, ("delta", (0,)))],
    [(1, ("delta", (1, 0)))],
    [(1, _affine_spec(2, f="x0*x1", base_map=["x0", "x1"]))],
    [(1, _affine_spec(2, f="x0 + x1", base_map=["x0", "x1"]))],
]
POISSON_PSI = {
    "a": _affine_spec(2, f="x0^2 + x1", base_map=["x0", "x1"]),
    "b": _affine_spec(2, f="x0*x1", base_map=["x0", "x1"]),
}
POISSON_H = [("a", []), ("a", ["x0"]), ("a", ["x0 - x1"]), ("a", ["x0", "x1"]),
             ("b", ["x1"])]
FOURIER_Q = (3, 5)


def _parse_class(terms):
    out = kexp.KExpClass.zero()
    for coef, item in terms:
        if isinstance(item, tuple):
            out = out + coef * kexp.delta_class(item[1])
        else:
            out = out + kexp.KExpClass.generator(varieties.spec_from_json(item), coef)
    return out


def fourier_scalar(seed) -> Case:
    rng = random.Random(seed)
    twists = {q: rng.randrange(1, q) for q in FOURIER_Q}
    classes = [_parse_class(terms) for terms in FOURIER_CLASSES]
    psis = {name: kexp.KExpClass.generator(varieties.spec_from_json(spec))
            for name, spec in POISSON_PSI.items()}

    def check(report):
        _require(report["verdict"] == "pass", f"verdict {report['verdict']!r}")
        return report

    jobs = []
    for q in FOURIER_Q:
        F = build_field(q, 1)
        chi = character(F, F.from_index(twists[q]))
        for i, c in enumerate(classes):
            jobs.append(Job(f"inversion q={q} class={i}",
                            lambda c=c, chi=chi: kexp.inversion_check(c, chi), check))
        for name, h in POISSON_H:
            jobs.append(Job(
                f"poisson q={q} psi={name} H={h}",
                lambda psi=psis[name], chi=chi, h=h: kexp.poisson_finite_check(
                    kexp.realize_relative(psi, chi), h),
                check))
    key = ",".join(f"twist{q}={twists[q]}" for q in FOURIER_Q)
    return Case(key, jobs)


# ---------------------------------------------------------------------------
# heights_box: bounded-height counts over Q, box scan only


def heights_box(seed) -> Case:
    rng = random.Random(seed)
    perm = [0, 1, 2]
    rng.shuffle(perm)
    # a signed permutation of the coordinates maps the box, gcd and the
    # leading-sign normalization onto themselves, so every count is fixed
    v = [f"x{perm[i]}" if rng.random() < 0.5 else f"(-x{perm[i]})" for i in range(3)]
    line = varieties.spec_from_json(_projective_spec(2, [v[2]]))
    union = varieties.spec_from_json(
        _projective_spec(2, [f"{v[2]}*({v[0]}*{v[2]} - {v[1]}^2)"]))
    space = varieties.spec_from_json(_projective_spec(3))

    def check_accumulation(report):
        _require(report["verdict"] == "strong", f"verdict {report['verdict']!r}")
        return {k: report[k] for k in ("verdict", "bounds", "counts_sub",
                                       "counts_ambient")}

    def check_table(tbl):
        return {"bounds": list(tbl.bounds), "counts": list(tbl.counts)}

    # one reference for every seed: the counts must not depend on it
    return Case("all", [
        Job("accumulation line in union",
            lambda: heights.accumulation_test(line, union, 1,
                                              heights.dyadic_bounds(128)),
            check_accumulation),
        Job("height_count_table P^3",
            lambda: heights.height_count_table(space, 1, heights.dyadic_bounds(30)),
            check_table),
    ])


WORKLOADS = {
    "expzeta_pair": expzeta_pair,
    "zeta_exhaustive": zeta_exhaustive,
    "fourier_scalar": fourier_scalar,
    "heights_box": heights_box,
}
