"""Exact formal series in the area parameter tau: a TauSeries is a finite
sum of c * tau^e with rational c and e, with an explicit cutoff: exponents
above it are unknown, not zero.  The disc and sphere counts of `gw` are
TauSeries; `series` builds them only to evaluate or print its own series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple


class TauSeries(NamedTuple):
    """Finite tau-polynomial with rational exponents and a knowledge cutoff.

    `*` is the series product, not tuple repetition; `exp` sums its powers.
    There is no series sum: `+` raises TypeError instead of joining the
    tuples, and from_terms(a.terms + b.terms, cutoff) adds.
    """

    terms: tuple[tuple[Fraction, Fraction], ...]  # (exponent, coefficient)
    cutoff: Fraction

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Fraction, Fraction]], cutoff: Fraction) -> "TauSeries":
        cutoff = Fraction(cutoff)
        acc: dict[Fraction, Fraction] = {}
        for e, c in pairs:
            e, c = Fraction(e), Fraction(c)
            if e > cutoff:
                continue
            acc[e] = acc.get(e, Fraction(0)) + c
        terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return TauSeries(terms, cutoff)

    __add__ = None

    def __mul__(self, other: "TauSeries") -> "TauSeries":
        # The unknown tail of either factor contaminates products above the
        # smaller cutoff, so knowledge does not extend past min(cutoffs).
        cutoff = min(self.cutoff, other.cutoff)
        pairs = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                if e <= cutoff:
                    pairs.append((e, c1 * c2))
        return TauSeries.from_terms(pairs, cutoff)

    def coefficient(self, e: Fraction) -> Fraction:
        e = Fraction(e)
        for ee, c in self.terms:
            if ee == e:
                return c
        return Fraction(0)

    def evaluate(self, tau: float) -> float:
        # Left to right: sum() of floats compensates its rounding from
        # Python 3.12 on, so the report bytes would depend on the version.
        total = 0.0
        for e, c in self.terms:
            total += float(c) * tau ** float(e)
        return total

    def exp(self) -> "TauSeries":
        """exp of a series with positive integer exponents, truncated.

        The sum of f^k / k! over the powers f^k that have a term at or below
        the cutoff: f^k opens at k times f's least exponent, so past the
        first power without one, none has.
        """
        if any(e.denominator != 1 or e <= 0 for e, _ in self.terms):
            raise ValueError("exp requires positive integer exponents")
        terms, power, k = [(Fraction(0), Fraction(1))], self, 1
        while power.terms:
            terms += [(e, c / math.factorial(k)) for e, c in power.terms]
            power, k = power * self, k + 1
        return TauSeries.from_terms(terms, self.cutoff)

    def to_json(self) -> dict:
        return {
            "cutoff": str(self.cutoff),
            "terms": [[str(e), str(c)] for e, c in self.terms],
        }

    def __str__(self) -> str:
        if not self.terms:
            return f"0 (+O(tau^{self.cutoff}))"
        body = " + ".join(f"{c}*tau^{e}" for e, c in self.terms)
        return f"{body} (+O(tau^{self.cutoff}))"
