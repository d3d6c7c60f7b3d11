"""Vertex charts of the moment body: monomial coordinate systems in x, y, z,
T, glued by unimodular monomial maps on exponent vectors (x, y, z, T), T
fixed; each chart's coordinate product is v0 = xyz.  No command runs or
loads this module yet (ROADMAP T(b))."""

from __future__ import annotations

from typing import NamedTuple

from .lattice import LatticeVector

Monomial = tuple[int, int, int, int]  # exponents of (x, y, z, T)

V0: Monomial = (1, 1, 1, 0)


def monomial_mul(*ms: Monomial) -> Monomial:
    out = [0, 0, 0, 0]
    for m in ms:
        for i in range(4):
            out[i] += m[i]
    return tuple(out)  # type: ignore[return-value]


def _cross(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(p * q for p, q in zip(u, v))


class MonomialMap(NamedTuple):
    """A substitution x, y, z -> monomials (T fixed), acting on exponents."""

    x: Monomial
    y: Monomial
    z: Monomial

    def apply(self, m: Monomial) -> Monomial:
        out = [0, 0, 0, m[3]]
        for coeff, img in zip(m[:3], (self.x, self.y, self.z)):
            for i in range(4):
                out[i] += coeff * img[i]
        return tuple(out)  # type: ignore[return-value]

    def compose(self, other: "MonomialMap") -> "MonomialMap":
        """self after other: (self . other)(m) = self(other(m))."""
        return MonomialMap(self.apply(other.x), self.apply(other.y), self.apply(other.z))

    def inverse(self) -> "MonomialMap":
        """Exact inverse; the xyz block of every chart map is unimodular.

        With a, b, c the columns of the xyz block A (the images' exponents)
        and t the T-exponent row, A^-1 has rows b x c, c x a, a x b over
        det A = a . (b x c), and the inverse's T row is -t A^-1.
        """
        a, b, c = (img[:3] for img in (self.x, self.y, self.z))
        rows = (_cross(b, c), _cross(c, a), _cross(a, b))
        det = _dot(a, rows[0])
        if det not in (1, -1):
            raise ValueError("monomial map is not invertible over the integers")
        t = (self.x[3], self.y[3], self.z[3])
        cols = [tuple(det * row[k] for row in rows) for k in range(3)]
        return MonomialMap(*(col + (-_dot(t, col),) for col in cols))

    def __pow__(self, k: int) -> "MonomialMap":
        if k < 0:
            return self.inverse() ** (-k)
        out = IDENTITY_MAP
        for _ in range(k):
            out = self.compose(out)
        return out


IDENTITY_MAP = MonomialMap((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))

# Hexagon rotation: x -> T^-2 y^-1, y -> T x y, z -> T y z.  Preserves v0
# and has order six.
HEX_GEN = MonomialMap((0, -1, 0, -2), (1, 1, 0, 1), (0, 1, 1, 1))

# One-tile translations on the toric coordinates: the generator actions
# scale coordinates by powers of T and v0.
GAMMA_P_ACTION = MonomialMap((2, 1, 1, 3), (0, 1, 0, 0), (-1, -1, 0, -3))
GAMMA_PP_ACTION = MonomialMap((1, 0, 0, 0), (1, 2, 1, 3), (-1, -1, 0, -3))


def gamma_chart_action(g: LatticeVector) -> MonomialMap:
    """Monomial substitution realizing a lattice translation of charts."""
    return (GAMMA_PP_ACTION ** g.n2).compose(GAMMA_P_ACTION ** g.n1)


# The six vertex charts of the base tile, as coordinate monomial triples.
BASE_CHARTS: dict[int, tuple[Monomial, Monomial, Monomial]] = {
    0: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
    1: ((0, 1, 1, 1), (0, -1, 0, -2), (1, 1, 0, 1)),      # T v0 x^-1, T^-2 y^-1, T v0 z^-1
    2: ((1, 0, 0, 0), (1, 2, 1, 3), (-1, -1, 0, -3)),     # x, T^3 v0 y, T^-3 v0^-1 z
    3: ((-1, 0, 0, -2), (0, -1, 0, -2), (2, 2, 1, 4)),    # T^-2 x^-1, T^-2 y^-1, T^4 v0^2 z^-1
    4: ((2, 1, 1, 3), (0, 1, 0, 0), (-1, -1, 0, -3)),     # T^3 v0 x, y, T^-3 v0^-1 z
    5: ((-1, 0, 0, -2), (1, 0, 1, 1), (1, 1, 0, 1)),      # T^-2 x^-1, T v0 y^-1, T v0 z^-1
}


class ChartLabel(NamedTuple):
    tile: LatticeVector
    k: int  # vertex index mod 6


class Chart(NamedTuple):
    """Coordinate functions of a vertex chart, as global monomials."""

    label: ChartLabel
    coords: tuple[Monomial, Monomial, Monomial]

    def coordinate_product(self) -> Monomial:
        return monomial_mul(*self.coords)


def chart(label: ChartLabel) -> Chart:
    """The chart at the given tile vertex; tile translates act by monomials."""
    k = label.k % 6
    base = BASE_CHARTS[k]
    coords = tuple(gamma_chart_action(label.tile).apply(m) for m in base)
    return Chart(label, coords)  # type: ignore[arg-type]
