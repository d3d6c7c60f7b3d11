"""Disc areas and counts, wall-curve sphere classes, and the differential.

A basepoint in the interior of the moment body bounds exactly one rigid disc
per facet; its area is height above the facet plane, <A, nu> + alpha.  The
generating series of these areas reproduces the defining theta sum.  Sphere
corrections live on wall curves (the P^1 dual to a honeycomb edge); their
generating series exponentiates to the correction factor C with constant
term 1.  The differential table, multiplication by the defining section on
the theta basis, lives in `series`; here it is checked against a numeric
Leibniz identity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .lattice import (
    LatticeVector,
    MomentPoint,
    Rational,
    coset_reps,
    enumerate_shifted_ball,
    lambda_map,
    norm_form,
)
from .series import (
    NumericValue,
    TauSeries,
    differential_table,
    shell_tail,
    shifted_theta_value,
)
from .tropical import NEIGHBOURS, facet, polytope_contains_strictly


def disc_area(a: MomentPoint, m: LatticeVector) -> Fraction:
    """Exact area <A, nu(F_m)> + alpha(F_m) of the disc hitting facet m."""
    if not polytope_contains_strictly(a):
        raise ValueError("basepoint must lie strictly inside the moment body")
    f = facet(m)
    return (
        Fraction(a.xi1) * f.normal[0]
        + Fraction(a.xi2) * f.normal[1]
        + Fraction(a.eta) * f.normal[2]
        + f.offset
    )


def disc_series(a: MomentPoint, cutoff: Rational) -> TauSeries:
    """Sum of tau^area over all facets with area <= cutoff (one disc each)."""
    if not polytope_contains_strictly(a):
        raise ValueError("basepoint must lie strictly inside the moment body")
    cutoff = Fraction(cutoff)
    xi1, xi2 = Fraction(a.xi1), Fraction(a.xi2)
    # area(m) = eta - <m, xi> + N(m) = eta - N(u) + N(m - u) with u the
    # lambda-image of xi, and d u is integral for d = 3 lcm(den xi): the
    # areas are base + N(d m - d u)/d^2, a norm ball about the coset -d u.
    d = 3 * math.lcm(xi1.denominator, xi2.denominator)
    u = lambda_map((xi1, xi2))
    base = Fraction(a.eta) - norm_form(*u)
    ball = enumerate_shifted_ball((int(-d * u[0]), int(-d * u[1])), d, (cutoff - base) * d * d)
    return TauSeries.from_terms([(base + Fraction(q, d * d), 1) for q in ball.values()], cutoff)


class WallCurve(NamedTuple):
    """The sphere class dual to a honeycomb edge, with divisor degrees.

    Degrees are the coefficients of the unique relation among the four facet
    normals around the edge, normalized so the two wing rays carry +1.
    """

    edge: tuple[LatticeVector, LatticeVector]
    degrees: dict[LatticeVector, int]


def wall_degrees(edge: tuple[LatticeVector, LatticeVector]) -> WallCurve:
    ta, tb = edge
    delta = (tb.n1 - ta.n1, tb.n2 - ta.n2)
    if delta not in NEIGHBOURS:
        raise ValueError(f"tiles {ta} and {tb} are not adjacent")
    k = NEIGHBOURS.index(delta)  # the wings are the neighbours on either side
    degrees = {ta + NEIGHBOURS[k - 1]: 1, ta + NEIGHBOURS[(k + 1) % 6]: 1, ta: -1, tb: -1}
    total = [0, 0, 0]
    for t, d in degrees.items():
        nu = facet(t).normal
        for i in range(3):
            total[i] += d * nu[i]
    if total != [0, 0, 0]:
        raise AssertionError("wall relation is not in the kernel of the rays")
    return WallCurve(edge, degrees)


def wall_curves_window(radius: Rational) -> list[WallCurve]:
    """Wall curves whose both tiles satisfy N(m) <= radius, deduplicated."""
    tiles = enumerate_shifted_ball((0, 0), 1, radius)
    return [
        wall_degrees((t, t + delta))
        for t in map(LatticeVector._make, sorted(tiles))
        for delta in NEIGHBOURS
        if delta > (0, 0) and t + delta in tiles  # each edge from its lesser tile
    ]


class SphereClass(NamedTuple):
    """A nonnegative wall-curve combination with its total divisor degrees."""

    degrees: tuple[tuple[LatticeVector, int], ...]
    total_degree: int  # tau-weight: every wall sphere has area one

    def degree_map(self) -> dict[LatticeVector, int]:
        return dict(self.degrees)


def g_series(
    anchor: LatticeVector, candidates: list[SphereClass], max_order: int
) -> TauSeries:
    """Open-mirror generating series for the given facet.

    Each admitted class d contributes
        (-1)^(D_I . d) * (-(D_I . d) - 1)! / prod_{I' != I} (D_I' . d)!
    weighted tau^(total degree); classes failing D_I.d < 0 or any
    D_I'.d < 0 (I' != I) contribute nothing.
    """
    pairs = []
    for cand in candidates:
        degs = cand.degree_map()
        if sum(degs.values()) != 0:
            raise ValueError("candidate has incomplete degree data")
        d_anchor = degs.get(anchor, 0)
        if d_anchor >= 0:
            continue
        if any(d < 0 for t, d in degs.items() if t != anchor):
            continue
        k = -d_anchor
        coef = Fraction((-1) ** k * math.factorial(k - 1))
        for t, d in degs.items():
            if t != anchor:
                coef /= math.factorial(d)
        pairs.append((Fraction(cand.total_degree), coef))
    return TauSeries.from_terms(pairs, Fraction(max_order))


def admitted_classes(
    walls: list[WallCurve], anchor: LatticeVector, max_total: int
) -> list[SphereClass]:
    """Distinct admitted classes among wall combinations of size <= max_total.

    Admitted means the anchor degree is negative and every other degree is
    nonnegative; one class is kept per degree map.  Tiles are indexed as
    ints and a search state is the degree vector.  The first wall touches
    the anchor (no other combination makes its degree negative).  After
    that the search is driven by the deficit, the total negative degree
    outside the anchor: while it is positive, a completion must add a wall
    with the first negative non-anchor tile as a +1 wing, so only those
    (at most six) walls are tried; at deficit 0 every wall is.  A wall
    cancels at most two units of deficit, which prunes the rest.  Each
    degree state is expanded once (a visited set); since every wall sphere
    has area one, a state reached at two wall counts is inconsistent data
    and raises.
    """
    tiles = sorted({t for w in walls for t in w.degrees} | {anchor})
    index = {t: i for i, t in enumerate(tiles)}
    a = index[anchor]
    moves = [tuple((index[t], d) for t, d in w.degrees.items()) for w in walls]
    repairs: list[list[int]] = [[] for _ in tiles]  # walls with tile i as a wing
    for k, move in enumerate(moves):
        for i, d in move:
            if d > 0:
                repairs[i].append(k)
    openers = [k for k, move in enumerate(moves) if any(i == a for i, _ in move)]
    deg = [0] * len(tiles)
    seen: dict[tuple[int, ...], int] = {}
    out = []

    def rec(depth: int, deficit: int) -> None:
        state = tuple(deg)
        if state in seen:
            if seen[state] != depth:
                raise ValueError(f"degree map reached with {seen[state]} and {depth} walls")
            return
        seen[state] = depth
        if deficit == 0 and deg[a] < 0:
            degs = tuple((tiles[i], d) for i, d in enumerate(deg) if d != 0)
            out.append(SphereClass(degs, depth))
        if depth == max_total:
            return
        if depth == 0:
            branch = openers
        elif deficit > 0:
            branch = repairs[next(i for i, d in enumerate(deg) if d < 0 and i != a)]
        else:
            branch = range(len(moves))
        for k in branch:
            after = deficit
            for i, d in moves[k]:
                old = deg[i]
                deg[i] = old + d
                if i != a:
                    after += max(-old - d, 0) - max(-old, 0)
            if after <= 2 * (max_total - depth - 1):
                rec(depth + 1, after)
            for i, d in moves[k]:
                deg[i] -= d

    rec(0, 0)
    return out


def sphere_count_C(max_order: int, window: Rational = 9) -> TauSeries:
    """exp of the anchor-facet generating series, specialized to weight tau.

    Every wall sphere has area one, so a class of total degree d carries
    tau^d.  The constant term is exactly 1.  Higher terms depend on the
    wall window and are reported as such by the CLI.
    """
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    if max_order == 0:
        return TauSeries.one(0)
    anchor = LatticeVector(0, 0)
    classes = admitted_classes(wall_curves_window(window), anchor, max_order)
    g = g_series(anchor, classes, max_order)
    c = g.exp()
    if c.coefficient(0) != 1:
        raise AssertionError("sphere count lost its leading 1")
    return c


class LeibnizReport(NamedTuple):
    i: int
    j: int
    x: tuple[float, float]
    tau: float
    cutoff: float
    items: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return all(it["residual"] <= it["tail_bound"] for it in self.items)

    @property
    def status(self) -> str:
        """Indeterminate if a value is not finite, or a tail bound admits
        every residual that |lhs| + |rhs| allows.
        """
        for it in self.items:
            lhs, rhs = abs(float(it["lhs"])), abs(float(it["rhs"]))
            values = (lhs, rhs, it["residual"], it["tail_bound"])
            if not all(map(math.isfinite, values)) or it["tail_bound"] >= lhs + rhs:
                return "indeterminate"
        return "pass" if self.passed else "fail"

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "j": self.j,
            "x": [repr(v) for v in self.x],
            "tau": repr(self.tau),
            "cutoff": repr(self.cutoff),
            "passed": self.passed,
            "items": list(self.items),
        }


def leibniz_check(
    i: int,
    j: int,
    x_sample: tuple[float, float],
    tau: float,
    cutoff: Rational,
) -> LeibnizReport:
    """Numeric check that the differential table satisfies the Leibniz identity.

    For each input rep e of level l-1 it compares
        S * n_e(l-1, x)   vs   sum_f T_f(e) n_f(l, x)
    with n_e(level, x) = sum over n of tau^(level * N(n + lam - e/level)),
    lam = lambda(log_tau x), and S = n_0(1, x) the defining section.  Both
    sides also carry the quasi-periodicity factor tau^kappa(log_tau x),
    which cancels and is left out.  The residual must sit below the
    combined truncation tail bound.
    """
    level = j - i
    if level < 2:
        raise ValueError("need j - i >= 2")
    if not (0 < tau < 1):
        raise ValueError("tau must lie in (0, 1)")
    cutoff = Fraction(cutoff)
    cut_f = float(cutoff)
    log_tau = math.log(tau)
    xi = (math.log(x_sample[0]) / log_tau, math.log(x_sample[1]) / log_tau)
    lam = ((2 * xi[0] - xi[1]) / 3.0, (2 * xi[1] - xi[0]) / 3.0)
    n = {
        lv: {
            e: shifted_theta_value(lv, (lam[0] - e.n1 / lv, lam[1] - e.n2 / lv), tau, cut_f)
            for e in coset_reps(lv)
        }
        for lv in (1, level - 1, level)
    }
    s = n[1][LatticeVector(0, 0)]

    table = differential_table(i, j, cutoff)
    # Unknown tail of each structure-constant series: its terms are
    # tau^(N(w)/(l(l-1))) over a lattice coset, and shells of radius r hold
    # at most 8(r+2) of them, with N >= r^2/2.
    t_tail = shell_tail(tau, 1.0 / (2.0 * level * (level - 1)), cut_f, 0)
    items = []
    for e in coset_reps(level - 1):
        lhs = s.times(n[level - 1][e])
        rhs = rhs_tail = 0.0
        for f, ts in table.entries[e].items():
            term = NumericValue(ts.series().evaluate(tau), t_tail).times(n[level][f])
            rhs += term.value
            rhs_tail += term.tail_bound
        items.append(
            {
                "e_in": [e.n1, e.n2],
                "lhs": repr(lhs.value),
                "rhs": repr(rhs),
                "residual": abs(lhs.value - rhs),
                "tail_bound": lhs.tail_bound + rhs_tail,
            }
        )
    return LeibnizReport(i, j, x_sample, tau, cut_f, tuple(items))

