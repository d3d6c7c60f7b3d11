"""Exact arithmetic for the rank-2 polarization lattice.

The lattice is Z<g', g''> with g' = (2,1) and g'' = (1,2) in standard
coordinates, i.e. the image of Z^2 under the Gram matrix M = [[2,1],[1,2]].
All weights in the theta/counting layers are driven by the positive definite
norm form N(n1,n2) = n1^2 + n1*n2 + n2^2, so finite truncations are always
norm balls, never coordinate boxes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

Rational = Fraction
Vec2 = tuple[Fraction, Fraction]

# Inverse of the polarization's Gram matrix ((2, 1), (1, 2)) (exact).
GRAM_INV = (
    (Fraction(2, 3), Fraction(-1, 3)),
    (Fraction(-1, 3), Fraction(2, 3)),
)


class LatticeVector(NamedTuple):
    """Lattice element n1*g' + n2*g''; `std` gives standard coordinates.

    A NamedTuple, so hashing and comparison run in C; it equals and hashes
    like the plain pair (n1, n2), so no dict or set mixes the two as keys.
    """

    n1: int
    n2: int

    @property
    def std(self) -> tuple[int, int]:
        return (2 * self.n1 + self.n2, self.n1 + 2 * self.n2)

    @property
    def norm(self) -> int:
        """Positive definite norm form N(n) = n1^2 + n1 n2 + n2^2."""
        return self.n1 * self.n1 + self.n1 * self.n2 + self.n2 * self.n2

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.n1 + other.n1, self.n2 + other.n2)

    def __neg__(self) -> "LatticeVector":
        return LatticeVector(-self.n1, -self.n2)


class MomentPoint(NamedTuple):
    """Moment coordinates (xi1, xi2, eta), exact rationals."""

    xi1: Fraction
    xi2: Fraction
    eta: Fraction


def lambda_map(v: Vec2) -> Vec2:
    """Apply the inverse Gram matrix to a standard-coordinate vector.

    On lattice vectors this returns the (n1, n2) basis coordinates.
    """
    a, b = Fraction(v[0]), Fraction(v[1])
    return (
        GRAM_INV[0][0] * a + GRAM_INV[0][1] * b,
        GRAM_INV[1][0] * a + GRAM_INV[1][1] * b,
    )


def kappa(v: Vec2) -> Fraction:
    """Quadratic weight -1/2 <v, lambda(v)> of a standard-coordinate vector.

    For a lattice vector n1*g' + n2*g'' this equals -(n1^2 + n1 n2 + n2^2).
    """
    a, b = Fraction(v[0]), Fraction(v[1])
    la = lambda_map((a, b))
    return -(a * la[0] + b * la[1]) / 2


def norm_form(w1: Fraction, w2: Fraction) -> Fraction:
    """N(w) = w1^2 + w1 w2 + w2^2 on (possibly rational) basis coordinates."""
    return w1 * w1 + w1 * w2 + w2 * w2


def coset_reps(level: int) -> list[LatticeVector]:
    """The level**2 representatives e1*g' + e2*g'', 0 <= e1, e2 < level.

    Row-major order with e1 varying fastest: (0,0), (1,0), ..., (0,1), ...
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    return [LatticeVector(e1, e2) for e2 in range(level) for e1 in range(level)]


def gamma_act_moment(g: LatticeVector, p: MomentPoint) -> MomentPoint:
    """Translate a moment point by a lattice vector.

    The action is (xi, eta) -> (xi - g_std, eta - kappa(g) - <xi, lambda(g)>);
    it is an exact group action and preserves membership in the moment body
    eta >= trop(xi).
    """
    gs = g.std
    xi1 = Fraction(p.xi1) - gs[0]
    xi2 = Fraction(p.xi2) - gs[1]
    eta = Fraction(p.eta) + g.norm - (Fraction(p.xi1) * g.n1 + Fraction(p.xi2) * g.n2)
    return MomentPoint(xi1, xi2, eta)


def enumerate_shifted_ball(shift: Vec2, bound: Rational) -> dict[LatticeVector, int | float]:
    """All integer n with N(n + shift) <= bound (shift in basis coordinates).

    The only place a norm bound becomes a coordinate box: N(w) >= (3/4) w_i^2,
    so |n_i + shift_i| <= sqrt(4B/3) < isqrt(floor(4B/3) + 1) + 1.  Returns a
    dict from each point to the norm it was tested on, so a caller that needs
    that norm evaluates it once.  Float input is tested in floats as given,
    on the float N(n + shift).  Exact input (int or Fraction) is scaled once
    to integers: with d the common denominator of the shift and B = p/q, the
    test is q N(d n + d shift) <= p d^2, and the norm is the integer
    N(d n + d shift) = d^2 N(n + shift).  Points are in row-major order, n1
    outer.
    """
    s1, s2 = shift
    if bound < 0:
        return {}
    half = math.isqrt(int(4 * bound // 3) + 1) + 1
    rows = range(math.floor(-s1 - half), math.ceil(-s1 + half) + 1)
    cols = range(math.floor(-s2 - half), math.ceil(-s2 + half) + 1)
    if any(isinstance(v, float) for v in (s1, s2, bound)):
        norms = ((n1, n2, norm_form(n1 + s1, n2 + s2)) for n1 in rows for n2 in cols)
        return {LatticeVector(n1, n2): q for n1, n2, q in norms if q <= bound}
    s1, s2, bound = Fraction(s1), Fraction(s2), Fraction(bound)
    d = math.lcm(s1.denominator, s2.denominator)
    t1, t2 = s1.numerator * (d // s1.denominator), s2.numerator * (d // s2.denominator)
    q, limit = bound.denominator, bound.numerator * d * d
    out = {}
    for n1 in rows:
        w1 = d * n1 + t1
        for n2 in cols:
            w2 = d * n2 + t2
            norm = w1 * w1 + w1 * w2 + w2 * w2
            if q * norm <= limit:
                out[LatticeVector(n1, n2)] = norm
    return out


def min_norm_in_coset(residue: tuple[int, int], modulus: int) -> int:
    """Minimal N over the coset residue + modulus*Z^2.

    With r the reduced representative, the coset is modulus*(n + r/modulus),
    so its minimum is modulus^2 times the least N(n + r/modulus), a ball
    search with r itself (n = 0) on the boundary.  The enumerator returns
    that norm scaled by d^2, d the shift's denominator.
    """
    r1, r2 = residue[0] % modulus, residue[1] % modulus
    shift = (Fraction(r1, modulus), Fraction(r2, modulus))
    ball = enumerate_shifted_ball(shift, Fraction(norm_form(r1, r2), modulus * modulus))
    d = modulus // math.gcd(r1, r2, modulus)
    return min(ball.values()) * (modulus // d) ** 2
