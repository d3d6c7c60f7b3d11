"""Exact formal series in the area parameter tau, and theta sections.

A TauSeries is a finite sum of c * tau^e with rational c and e, together
with an explicit cutoff: exponents above the cutoff are unknown, not zero.
The exact engine keeps exponents as integers over a fixed denominator: a
ScaledSeries holds the integer terms (x, c) of sum c tau^(x/den), and theta
sections are stored as Laurent data, a map from integer x-exponent (in the
basis where the lattice pairing is integral) to the integer terms {x: c}
over the section's own denominator den.  The differential, multiplication by
the defining section on the theta basis, is a slice of the theta products.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .lattice import (
    LatticeVector,
    Rational,
    coset_reps,
    enumerate_shifted_ball,
    min_norm_in_coset,
)


class TauSeries(NamedTuple):
    """Finite tau-polynomial with rational exponents and a knowledge cutoff.

    `+` and `*` are series arithmetic, not tuple concatenation and repetition.
    """

    terms: tuple[tuple[Fraction, Fraction], ...]  # (exponent, coefficient)
    cutoff: Fraction

    @staticmethod
    def from_terms(pairs: Iterable[tuple[Rational, Rational]], cutoff: Rational) -> "TauSeries":
        cutoff = Fraction(cutoff)
        acc: dict[Fraction, Fraction] = {}
        for e, c in pairs:
            e, c = Fraction(e), Fraction(c)
            if e > cutoff:
                continue
            acc[e] = acc.get(e, Fraction(0)) + c
        terms = tuple(sorted((e, c) for e, c in acc.items() if c != 0))
        return TauSeries(terms, cutoff)

    @staticmethod
    def one(cutoff: Rational) -> "TauSeries":
        return TauSeries.from_terms([(0, 1)], cutoff)

    def __add__(self, other: "TauSeries") -> "TauSeries":
        cutoff = min(self.cutoff, other.cutoff)
        return TauSeries.from_terms(list(self.terms) + list(other.terms), cutoff)

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

    def scale(self, c: Rational) -> "TauSeries":
        c = Fraction(c)
        if c == 0:
            return TauSeries((), self.cutoff)
        return TauSeries(tuple((e, k * c) for e, k in self.terms), self.cutoff)

    def shift(self, delta: Rational) -> "TauSeries":
        """Multiply by tau^delta (moves the cutoff along with the terms)."""
        delta = Fraction(delta)
        return TauSeries(tuple((e + delta, c) for e, c in self.terms), self.cutoff + delta)

    def truncate(self, cutoff: Rational) -> "TauSeries":
        cutoff = Fraction(cutoff)
        if cutoff >= self.cutoff:
            return self
        return TauSeries(tuple((e, c) for e, c in self.terms if e <= cutoff), cutoff)

    def coefficient(self, e: Rational) -> Fraction:
        e = Fraction(e)
        for ee, c in self.terms:
            if ee == e:
                return c
        return Fraction(0)

    def leading(self) -> tuple[Fraction, Fraction] | None:
        return self.terms[0] if self.terms else None

    def evaluate(self, tau: float) -> float:
        # Left to right: sum() of floats compensates its rounding from
        # Python 3.12 on, so the report bytes would depend on the version.
        total = 0.0
        for e, c in self.terms:
            total += float(c) * tau ** float(e)
        return total

    def exp(self) -> "TauSeries":
        """exp of a series with positive integer exponents, truncated.

        Uses the recursion (exp f)' = f' exp f on integer degrees.
        """
        if any(e.denominator != 1 or e <= 0 for e, _ in self.terms):
            raise ValueError("exp requires positive integer exponents")
        n = math.floor(self.cutoff)
        f = [Fraction(0)] * (n + 1)
        for e, c in self.terms:
            f[int(e)] = c
        g = [Fraction(0)] * (n + 1)
        g[0] = Fraction(1)
        for k in range(1, n + 1):
            g[k] = sum(Fraction(j) * f[j] * g[k - j] for j in range(1, k + 1)) / k
        return TauSeries.from_terms([(Fraction(k), g[k]) for k in range(n + 1)], self.cutoff)

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


class ScaledSeries(NamedTuple):
    """sum c tau^(x/den) over integer terms (x, c), nonzero c in increasing x,
    known up to `cutoff`; `series()` builds its `Fraction`s, for a mismatch
    text or a float evaluation, and `to_json()` writes TauSeries' report
    without them."""

    terms: tuple[tuple[int, int], ...]
    den: int
    cutoff: Fraction

    def series(self) -> TauSeries:
        den = self.den
        return TauSeries(tuple((Fraction(x, den), Fraction(c)) for x, c in self.terms), self.cutoff)

    def to_json(self) -> dict:
        """`self.series().to_json()`: each exponent x/den in lowest terms."""
        den, terms = self.den, []
        for x, c in self.terms:
            g = math.gcd(x, den)
            terms.append([str(x // g) if g == den else f"{x // g}/{den // g}", str(c)])
        return {"cutoff": str(self.cutoff), "terms": terms}


class LaurentSection(NamedTuple):
    """A section of a level-`level` theta bundle as Laurent data in x.

    `coeffs` maps an integer x-exponent pair to the terms {x: c} of the
    tau-series sum c tau^(x/den) multiplying that monomial; all member
    series share the section cutoff.  For the basis section of
    representative e, den = level and the key lattice is -(level*n + e).
    Equality compares `coeffs` too; a section is not hashable.
    """

    level: int
    cutoff: Fraction
    den: int
    coeffs: dict[tuple[int, int], dict[int, int]]


class NumericValue(NamedTuple):
    """A truncated numeric sum together with a bound on the dropped tail."""

    value: float
    tail_bound: float

    def times(self, other: NumericValue) -> NumericValue:
        """The product, with |AB - ab| <= |a| tb + |b| ta + ta tb whenever
        |A - a| <= ta and |B - b| <= tb."""
        a, ta = self
        b, tb = other
        return NumericValue(a * b, abs(a) * tb + abs(b) * ta + ta * tb)


def theta_section(e: LatticeVector, level: int, cutoff: Rational) -> LaurentSection:
    """The basis section of representative e at the given level.

    Terms are tau^(level * N(n + e/level)) x^(-(level*n + e)) over all lattice
    n; every term with tau-exponent <= cutoff is included.
    """
    if level < 1:
        raise ValueError("level must be positive")
    if not (0 <= e.n1 < level and 0 <= e.n2 < level):
        raise ValueError(f"{e} is not a level-{level} representative")
    cutoff = Fraction(cutoff)
    # level * N(n + e/level) = N(w)/level with w = level*n + e; the key is -w.
    coeffs = {
        (-(level * n1 + e.n1), -(level * n2 + e.n2)): {norm: 1}
        for (n1, n2), norm in enumerate_shifted_ball(e, level, cutoff * level).items()
    }
    return LaurentSection(level, cutoff, level, coeffs)


def section_mul(s1: LaurentSection, s2: LaurentSection) -> LaurentSection:
    """Product section; level adds, cutoff is the minimum of the factors'.

    The product runs on integer exponents over den = lcm(s1.den, s2.den),
    after one rescale of each factor's exponents by den // s.den.  Each
    factor's terms are sorted by exponent, so the inner loop stops at the
    first pair past the cutoff.
    """
    cutoff = min(s1.cutoff, s2.cutoff)
    den = math.lcm(s1.den, s2.den)
    limit = math.floor(cutoff * den)
    f1, f2 = (
        sorted((x * (den // s.den), k, c) for k, t in s.coeffs.items() for x, c in t.items())
        for s in (s1, s2)
    )
    acc: dict[tuple[int, int], dict[int, int]] = {}
    for x1, (a1, b1), c1 in f1:
        for x2, (a2, b2), c2 in f2:
            x = x1 + x2
            if x > limit:
                break
            terms = acc.setdefault((a1 + a2, b1 + b2), {})
            terms[x] = terms.get(x, 0) + c1 * c2
    return LaurentSection(s1.level + s2.level, cutoff, den, acc)


def section_mul_decompose(
    s1: LaurentSection, s2: LaurentSection, cutoff: Rational
) -> dict[LatticeVector, ScaledSeries]:
    """Structure constants C_e with  s1*s2 = sum_e C_e * (basis section e).

    Works by matching the product against the x-exponent lattices of the
    level-(l1+l2) basis sections: the key class -(l*n + e) determines e and
    the basis tau-exponent N(l*n + e)/l to divide out.  Every x-exponent
    class must agree on the overlap of its validity ranges.  Exponents are
    compared and shifted as integers over D = l*l1*l2, which the
    structure-constant exponents' denominators divide, and cut at
    floor(cutoff*D), and each C_e is returned as integer terms over D.
    C_e is known up to the smaller of cutoff and the product's cutoff minus
    the basis exponent.  Keys run over e in `coset_reps` order.
    """
    cutoff = Fraction(cutoff)
    level = s1.level + s2.level
    den = level * s1.level * s2.level
    prod = section_mul(s1, s2)
    up, off = divmod(den, prod.den)
    if off:  # basis sections have den = level, and lcm(l1, l2) divides D
        raise AssertionError(f"product exponents in (1/{prod.den})Z are not in (1/{den})Z")
    limit = math.floor(prod.cutoff * den)
    # One pass groups the keys by class, each with D times its basis
    # exponent, base.  Every term of a key lies in the key's own validity
    # range: shifted by -base, its exponent is at most limit - base.
    classes: dict[tuple[int, int], list[tuple[int, dict[int, int]]]] = {}
    scale = s1.level * s2.level
    for (k1, k2), terms in prod.coeffs.items():
        base = (k1 * k1 + k1 * k2 + k2 * k2) * scale
        classes.setdefault((-k1 % level, -k2 % level), []).append((base, terms))
    cut = math.floor(cutoff * den)
    out = {}
    for rep, n_min in _coset_min_norms(level).items():
        members = classes.get(rep)
        if members is None:
            # Representatives whose minimal basis exponent exceeds the cutoff
            # do not appear in the truncated product: zero series.
            out[rep] = ScaledSeries((), den, min(cutoff, prod.cutoff - Fraction(n_min, level)))
            continue
        # The smallest basis exponent (the first of equal ones) leaves the
        # largest validity range; that key gives the constant, and every
        # other key must equal it on the other key's range.
        base, terms = min(members, key=lambda m: m[0])
        const = {x * up - base: c for x, c in terms.items()}
        ys = sorted(const)
        for b, t in members:
            if t is not terms and (
                len(t) != bisect.bisect_right(ys, limit - b)
                or [const.get(x * up - b) for x in t] != [*t.values()]
            ):
                raise AssertionError(f"inconsistent structure constant for representative {rep}")
        out[rep] = ScaledSeries(
            tuple((y, const[y]) for y in ys[: bisect.bisect_right(ys, cut)] if const[y]),
            den,
            min(cutoff, prod.cutoff - Fraction(base, den)),
        )
    return out


@functools.cache
def _coset_min_norms(level: int) -> dict[LatticeVector, int]:
    """N_min(-e mod level) for each level-`level` representative e."""
    return {rep: min_norm_in_coset((-rep.n1, -rep.n2), level) for rep in coset_reps(level)}


def decomposition_padding(level: int) -> Fraction:
    """Extra cutoff needed on the factors so every C_e is valid to the target.

    The class of representative e costs N_min(-e mod level)/level of validity.
    """
    return Fraction(max(_coset_min_norms(level).values()), level)


# The 12 automorphisms of the norm form N, each as (a, b, c, d) for the map
# (n1, n2) -> (a n1 + b n2, c n1 + d n2): the six powers of the rotation
# (n1, n2) -> (-n2, n1 + n2), then each of them followed by the swap
# (n1, n2) -> (n2, n1).
_NORM_AUTOMORPHISMS = (
    (1, 0, 0, 1), (0, -1, 1, 1), (-1, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, -1), (1, 1, -1, 0),
    (0, 1, 1, 0), (1, 1, 0, -1), (1, 0, -1, -1), (0, -1, -1, 0), (-1, -1, 0, 1), (-1, 0, 1, 1),
)


def theta_products(
    l1: int, l2: int, cutoff: Rational
) -> dict[tuple[LatticeVector, LatticeVector], dict[LatticeVector, ScaledSeries]]:
    """Decompositions of every product (basis e1, level l1) * (basis e2, level l2).

    Two exact symmetries map the table to itself, C_{h e1, h e2}(h e) =
    C_{e1, e2}(e), with indices taken mod their levels l1, l2 and l = l1 + l2:
    each automorphism of N acting on all three indices, and each translation
    by a g-torsion point u, g = gcd(l1, l2), which moves e1, e2 and e by
    (l1/g)u, (l2/g)u and (l/g)u (Mumford, Tata Lectures on Theta I, ch. II).
    So only the first pair of each orbit, in key order, is decomposed, and
    every other pair of the orbit is a relabeling of it.  Each factor section
    of those pairs is built once, on first use, with enough extra cutoff that
    every structure constant is complete up to `cutoff` exactly.  Keys run
    over e1, then e2, and each inner dict over e, all in `coset_reps` order,
    as in `fukaya.mu2_closed`.
    """
    cutoff = Fraction(cutoff)
    level, g = l1 + l2, math.gcd(l1, l2)
    pad = decomposition_padding(level)
    section = functools.cache(lambda e, l: theta_section(e, l, cutoff + pad))
    # h = (a, b, c, d, u1, u2) sends a level-l index e to A e + (l/g) u mod l.
    group = [(*a, u1, u2) for a in _NORM_AUTOMORPHISMS for u2 in range(g) for u1 in range(g)]

    # Relabeled indices are plain pairs, which hash and compare as the
    # LatticeVectors of the returned keys.
    def act(h: tuple[int, ...], e: tuple[int, int], l: int) -> tuple[int, int]:
        a, b, c, d, u1, u2 = h
        s = l // g
        return (a * e[0] + b * e[1] + s * u1) % l, (c * e[0] + d * e[1] + s * u2) % l

    reps1, reps2, reps = coset_reps(l1), coset_reps(l2), coset_reps(level)
    table: dict[tuple[tuple[int, int], ...], dict[tuple[int, int], ScaledSeries]] = {}
    for e1 in reps1:
        for e2 in reps2:
            if (e1, e2) in table:
                continue
            consts = section_mul_decompose(section(e1, l1), section(e2, l2), cutoff)
            for h in group:
                pair = act(h, e1, l1), act(h, e2, l2)
                if pair not in table:
                    table[pair] = {act(h, e, level): c for e, c in consts.items()}
    return {(e1, e2): {e: table[e1, e2][e] for e in reps} for e1 in reps1 for e2 in reps2}


class DifferentialTable(NamedTuple):
    """Structure constants of multiplication by the defining section.

    entries[input rep e][output rep e~] is the tau-series coefficient T_e~(e)
    in s * theta_e = sum over e~ of T_e~(e) theta_e~, as integer terms.
    """

    level: int
    cutoff: Fraction
    entries: dict[LatticeVector, dict[LatticeVector, ScaledSeries]]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "cutoff": str(self.cutoff),
            "entries": [
                {
                    "e_in": [e.n1, e.n2],
                    "out": [
                        {"e_out": [f.n1, f.n2], "series": ts.to_json()}
                        for f, ts in sorted(row.items())
                    ],
                }
                for e, row in sorted(self.entries.items())
            ],
        }


def differential_table(i: int, j: int, cutoff: Rational) -> DifferentialTable:
    """Coefficients of (defining section) * (level l-1 basis) on the level-l basis:
    the e1 = 0 slice of theta_products(1, l-1), l = j - i."""
    level = j - i
    if level < 2:
        raise ValueError("need j - i >= 2")
    cutoff = Fraction(cutoff)
    entries = {e: consts for (_, e), consts in theta_products(1, level - 1, cutoff).items()}
    return DifferentialTable(level, cutoff, entries)


def shifted_theta_value(
    level: int, w: tuple[float, float], tau: float, cutoff: float
) -> NumericValue:
    """sum over n of tau^(level * N(n + w)) for real shift w, plus tail bound.

    The bound covers the dropped terms, level*N(n + w) > cutoff: shells
    |n + w| in [r, r+1) hold at most 8(r+2) lattice translates,
    N(v) >= |v|^2/2, and dropped terms have |n + w| > sqrt(2*cutoff/(3*level)).
    """
    if not (0 < tau < 1):
        raise ValueError("tau must lie in (0, 1)")
    total = 0.0
    for q in enumerate_shifted_ball(w, 1, cutoff / level).values():
        total += tau ** (level * q)
    r0 = max(0, math.floor(math.sqrt(max(2.0 * cutoff / (3.0 * level), 0.0))) - 1)
    return NumericValue(total, shell_tail(tau, level / 2.0, cutoff, r0))


def shell_tail(tau: float, a: float, e_min: float, r0: int) -> float:
    """Closed-form upper bound on sum_{r >= r0} 8(r+2) tau^max(e_min, a r^2).

    For 0 < tau < 1 and a > 0.  The rows r <= r1 still at exponent e_min sum
    as an arithmetic series.  Past them f(x) = (x+2) tau^(a x^2) is
    unimodal, so its sum over x >= r2 is at most its integral from r2 plus
    its peak; with c = -a log(tau) and z = sqrt(c) r2 that integral is
    tau^(a r2^2) (1/(2c) + sqrt(pi/c) e^(z^2) erfc(z)).  The factor
    1 + 1e-12 covers rounding.
    """
    c = -a * math.log(tau)
    r1 = math.floor(math.sqrt(e_min / a)) if e_min >= 0 else -1
    flat = max(r1 - r0 + 1, 0) * (r0 + r1 + 4) / 2 * tau ** e_min
    r2 = max(r0, r1 + 1)
    z = math.sqrt(c) * r2
    # e^(z^2) erfc(z) < 1/(z sqrt(pi)), used where erfc nears underflow
    scaled = math.exp(z * z) * math.erfc(z) if z < 20.0 else 1.0 / (z * math.sqrt(math.pi))
    integral = tau ** (a * r2 * r2) * (0.5 / c + math.sqrt(math.pi / c) * scaled)
    x = max(r2, math.sqrt(1.0 + 0.5 / c) - 1.0)  # f peaks where 2c x (x + 2) = 1
    return 8.0 * (flat + integral + (x + 2.0) * tau ** (a * x * x)) * (1.0 + 1e-12)
