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


class MomentPoint(NamedTuple):
    """Moment coordinates (xi1, xi2, eta), exact rationals."""

    xi1: Fraction
    xi2: Fraction
    eta: Fraction


def lambda_map(v: Vec2) -> Vec2:
    """Apply the inverse Gram matrix (1/3)((2, -1), (-1, 2)) to a standard-coordinate vector.

    On lattice vectors this returns the (n1, n2) basis coordinates.
    """
    a, b = Fraction(v[0]), Fraction(v[1])
    return ((2 * a - b) / 3, (2 * b - a) / 3)


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


def enumerate_shifted_ball(
    residue: tuple[int, int], modulus: int, bound: Rational
) -> dict[tuple[int, int], int | float]:
    """All n with N(modulus n + residue) <= bound, each mapped to that norm.

    The only place a norm bound becomes a coordinate box: N(w) >= (3/4) w_i^2,
    so |modulus n_i + residue_i| <= sqrt(4B/3) < half.  A caller that needs
    the norm reads it here, evaluated once.  An integer residue and modulus
    with an exact bound B = p/q are tested on integers, q N <= p.  A float
    residue (modulus 1 for shifted_theta_value) or bound is tested in floats
    as given.  Points are plain pairs (n1, n2), which cost a tenth of a
    LatticeVector to build and equal and hash as one, in row-major order,
    n1 outer.
    """
    r1, r2 = residue
    if bound < 0:
        return {}
    half = math.isqrt(4 * Fraction(bound) // 3 + 1) + 1  # 4 * bound can overflow a float
    floats = any(isinstance(v, float) for v in (r1, r2, bound))
    p, q = (bound, 1) if floats else Fraction(bound).as_integer_ratio()
    out = {}
    for n1 in range(-int((r1 + half) // modulus), int((half - r1) // modulus) + 1):
        w1 = modulus * n1 + r1
        for n2 in range(-int((r2 + half) // modulus), int((half - r2) // modulus) + 1):
            w2 = modulus * n2 + r2
            norm = w1 * w1 + w1 * w2 + w2 * w2
            if q * norm <= p:
                out[n1, n2] = norm
    return out


def min_norm_in_coset(residue: tuple[int, int], modulus: int) -> int:
    """Minimal N over the coset residue + modulus*Z^2.

    A ball search with the reduced representative r itself (n = 0) on the
    boundary.
    """
    r = (residue[0] % modulus, residue[1] % modulus)
    return min(enumerate_shifted_ball(r, modulus, norm_form(*r)).values())
