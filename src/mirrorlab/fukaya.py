"""Linear Lagrangians in the fiber torus: intersections and triangle counts.

The slope-k Lagrangians intersect pairwise in (j-i)^2 points indexed by
coset representatives.  Products of morphisms count triangles in the
universal cover; each triangle carries the weight tau^area, in closed form
through the lattice norm: (l/(l' l'')) N((l''/l) e + a) for the output
representative e and the lattice translate a.  The functor identity compares
these counts, term for term, with the theta structure constants.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .lattice import LatticeVector, Rational, coset_reps, enumerate_shifted_ball
from .series import ScaledSeries, theta_products


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
