"""Linear Lagrangians in the fiber torus: intersections and triangle counts.

The slope-k Lagrangians intersect pairwise in (j-i)^2 points indexed by
coset representatives.  Products of morphisms count triangles in the
universal cover; each triangle carries the weight tau^area.  The area is
computed two ways: geometrically from the symplectic form on the two edge
vectors, and in closed form through the lattice quadratic weight.  The two
must agree exactly, term for term.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .lattice import (
    LatticeVector,
    Rational,
    Vec2,
    coset_reps,
    enumerate_shifted_ball,
    kappa,
    lambda_map,
)
from .series import ScaledSeries, theta_products


class TriangleDatum(NamedTuple):
    """A triangle contributing to the product for slopes i < j < k.

    `e` indexes the output corner (level k - i); `gamma_a` is the lattice
    translate distinguishing triangles with the same corners.
    """

    i: int
    j: int
    k: int
    e: LatticeVector
    gamma_a: LatticeVector

    @property
    def xi0(self) -> Vec2:
        lp = self.j - self.i
        lpp = self.k - self.j
        l = self.k - self.i
        es = self.e.std
        gs = self.gamma_a.std
        return (
            Fraction(lpp, l * lp) * es[0] + Fraction(gs[0], lp),
            Fraction(lpp, l * lp) * es[1] + Fraction(gs[1], lp),
        )

    def edges(self) -> list[tuple[Vec2, Vec2]]:
        """The three edge vectors in R^4 = (base, angle); they sum to zero."""
        lp = self.j - self.i
        lpp = self.k - self.j
        xi0 = self.xi0
        lam = lambda_map(xi0)
        # q -> p1 has base part xi0 and angle part -i * lambda(xi0);
        # q -> p2 is (lp/lpp) * (xi0, -k * lambda(xi0)).
        e1 = (xi0, (-self.i * lam[0], -self.i * lam[1]))
        r = Fraction(lp, lpp)
        qp2 = ((r * xi0[0], r * xi0[1]), (-self.k * r * lam[0], -self.k * r * lam[1]))
        e2 = (
            (qp2[0][0] - e1[0][0], qp2[0][1] - e1[0][1]),
            (qp2[1][0] - e1[1][0], qp2[1][1] - e1[1][1]),
        )
        e3 = ((-qp2[0][0], -qp2[0][1]), (-qp2[1][0], -qp2[1][1]))
        return [e1, e2, e3]


def _omega(a: tuple[Vec2, Vec2], b: tuple[Vec2, Vec2]) -> Fraction:
    """Standard form d(base) wedge d(angle) on R^4 vectors."""
    (ab, aa), (bb, ba) = a, b
    return ab[0] * ba[0] + ab[1] * ba[1] - aa[0] * bb[0] - aa[1] * bb[1]


def triangle_area_oracle(t: TriangleDatum) -> Fraction:
    """|1/2 omega(edge1, edge2)| evaluated directly on the lifted edges."""
    e1, e2, _ = t.edges()
    # q->p2 = e1 + e2.
    qp2 = ((e1[0][0] + e2[0][0], e1[0][1] + e2[0][1]), (e1[1][0] + e2[1][0], e1[1][1] + e2[1][1]))
    return abs(_omega(e1, qp2)) / 2


def triangle_area_closed(t: TriangleDatum) -> Fraction:
    """Closed-form area -(l/(l' l'')) kappa((l''/l) e + gamma_a)."""
    lp = t.j - t.i
    lpp = t.k - t.j
    l = t.k - t.i
    es = t.e.std
    gs = t.gamma_a.std
    arg = (Fraction(lpp, l) * es[0] + gs[0], Fraction(lpp, l) * es[1] + gs[1])
    return -Fraction(l, lp * lpp) * kappa(arg)


def triangles_up_to(
    i: int, j: int, k: int, max_area: Rational
) -> list[TriangleDatum]:
    """All triangles for (i, j, k) with area at most max_area."""
    if not i < j < k:
        raise ValueError("slopes must satisfy i < j < k")
    lp, lpp, l = j - i, k - j, k - i
    bound, out = Fraction(max_area) * l * lp * lpp, []
    for e in coset_reps(l):
        for a in enumerate_shifted_ball((lpp * e.n1, lpp * e.n2), l, bound):
            out.append(TriangleDatum(i, j, k, e, LatticeVector(*a)))
    return out


def mu2_closed(
    i: int, j: int, k: int, cutoff: Rational
) -> dict[tuple[LatticeVector, LatticeVector, LatticeVector], ScaledSeries]:
    """Triangle-count series for the products of all pairs of basis morphisms.

    The value at (e1, e2, e) is the coefficient of output representative e
    in the product of the (i, j) basis morphism e1 and the (j, k) one e2:
    the sum of tau^((l/(l' l'')) N((l''/l) e + a)) over lattice translates
    a with a = e1 - e (mod l') and a = -e2 (mod l'').  Each a satisfies
    those congruences for exactly one pair, e1 = (a + e) mod l' and
    e2 = -a mod l'', so one ball per e, N(l a + l'' e) <= cutoff l l' l'',
    serves every pair.  The exponent is the integer N(l a + l'' e) over
    the fixed denominator l l' l'', and each value holds its integer terms.
    Keys run over e1, then e2, then e, each in `coset_reps` order.
    """
    if not i < j < k:
        raise ValueError("slopes must satisfy i < j < k")
    lp, lpp, l = j - i, k - j, k - i
    cutoff = Fraction(cutoff)
    reps, bound = coset_reps(l), cutoff * l * lp * lpp
    # keyed by plain pairs, which hash and compare as the LatticeVectors
    counts: dict[tuple[tuple[int, int], tuple[int, int], LatticeVector], dict[int, int]] = {}
    for e in reps:
        n1, n2 = e
        for (a1, a2), norm in enumerate_shifted_ball((lpp * n1, lpp * n2), l, bound).items():
            c = counts.setdefault((((a1 + n1) % lp, (a2 + n2) % lp), (-a1 % lpp, -a2 % lpp), e), {})
            c[norm] = c.get(norm, 0) + 1
    den = l * lp * lpp
    found = {key: ScaledSeries(tuple(sorted(c.items())), den, cutoff) for key, c in counts.items()}
    empty = ScaledSeries((), den, cutoff)  # most keys when gcd(l', l'') > 1
    return {
        key: found.get(key, empty)
        for key in itertools.product(coset_reps(lp), coset_reps(lpp), reps)
    }


class PairResult(NamedTuple):
    e1: LatticeVector
    e2: LatticeVector
    matches: bool
    first_mismatch: str | None


class FunctorReport(NamedTuple):
    """Per-basis-pair comparison of theta structure constants vs triangles."""

    i: int
    j: int
    k: int
    cutoff: Fraction
    pairs: tuple[PairResult, ...] = ()

    @property
    def all_match(self) -> bool:
        return all(p.matches for p in self.pairs)

    def to_json(self) -> dict:
        return {
            "triple": [self.i, self.j, self.k],
            "cutoff": str(self.cutoff),
            "all_match": self.all_match,
            "pairs": [
                {
                    "e_in": [[p.e1.n1, p.e1.n2], [p.e2.n1, p.e2.n2]],
                    "matches": p.matches,
                    "first_mismatch": p.first_mismatch,
                }
                for p in self.pairs
            ],
        }


def functor_check(i: int, j: int, k: int, cutoff: Rational) -> FunctorReport:
    """Compare both product computations for every basis pair of (i, j, k).

    Both sides are cut at `cutoff` and count over the same denominator
    l l' l'', so their integer terms compare directly; the `Fraction`s of
    a pair are built only for its mismatch text.  Discrepancies are report
    content, not exceptions.
    """
    if not i < j < k:
        raise ValueError("slopes must satisfy i < j < k")
    cutoff = Fraction(cutoff)
    tri = mu2_closed(i, j, k, cutoff)
    reps = sorted(coset_reps(k - i))
    results = []
    for (e1, e2), theta in theta_products(j - i, k - j, cutoff).items():
        mismatch = None
        for rep in reps:
            a, b = theta[rep], tri[e1, e2, rep]
            if a.terms != b.terms:
                mismatch = f"rep ({rep.n1},{rep.n2}): theta {a.series()} vs triangles {b.series()}"
                break
        results.append(PairResult(e1, e2, mismatch is None, mismatch))
    return FunctorReport(i, j, k, cutoff, tuple(results))
