"""Tropicalized theta function, honeycomb tiling, moment body, monodromy.

The tropicalization phi(xi) = max over lattice n of  <xi, n> - N(n)  cuts the
plane into a honeycomb of hexagonal tiles.  A tile is the LatticeVector m
whose term wins on it: it is centred at m.std, shares an edge with each of
the six tiles m + NEIGHBOURS, and carries a facet of the moment body
eta >= phi(xi) with normal (-m1, -m2, 1) and offset N(m) = m.norm.  The
monodromy class of the torus fibration over tile m is fixed by the tile
alone: -m.  The algebra of the body's vertex charts is in `charts`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .lattice import (
    LatticeVector,
    MomentPoint,
    Rational,
    Vec2,
    enumerate_shifted_ball,
)


class TropValue(NamedTuple):
    value: Fraction
    maximizers: tuple[LatticeVector, ...]


class Facet(NamedTuple):
    """Supporting plane data of a tile: <normal, (xi, eta)> + offset = 0."""

    normal: tuple[int, int, int]
    offset: int


# The six minimal vectors of N, in cyclic order: tile m shares an edge with
# m + NEIGHBOURS[k], whose ends it shares with m + NEIGHBOURS[k -/+ 1 mod 6].
NEIGHBOURS = tuple(
    LatticeVector(*v) for v in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
)

# Hexagon vertex offsets from a tile center, in cyclic order.
HEX_VERTEX_OFFSETS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def trop_phi(xi: Vec2) -> TropValue:
    """Max of <xi, n> - N(n) with all maximizers, exact; `trop_scaled` on a common denominator."""
    x1, x2 = Fraction(xi[0]), Fraction(xi[1])
    d = math.lcm(x1.denominator, x2.denominator)
    p1, p2 = x1.numerator * (d // x1.denominator), x2.numerator * (d // x2.denominator)
    value, maxim = trop_scaled(p1, p2, d)
    return TropValue(Fraction(value, d), maxim)


def trop_scaled(p1: int, p2: int, d: int) -> tuple[int, tuple[LatticeVector, ...]]:
    """d * phi(xi) and the sorted maximizers of phi at xi = (p1/d, p2/d), d >= 1.

    Reduces xi to the fundamental domain (periodicity), where only 0 and
    NEIGHBOURS can win, and translates the answer back, all on integers.
    """
    # g = floor(lambda(xi) + 1/2); (a1, a2) = d * r for r = xi - g_std.
    g1 = (4 * p1 - 2 * p2 + 3 * d) // (6 * d)
    g2 = (4 * p2 - 2 * p1 + 3 * d) // (6 * d)
    a1 = p1 - d * (2 * g1 + g2)
    a2 = p2 - d * (g1 + 2 * g2)
    # <r, n> - N(n) = N(u) - N(n - u) with u = lambda(r) in [-1/2, 1/2)^2, so
    # N(u) <= 3/4 and the winners are the n nearest u.  Any n other than 0 and
    # NEIGHBOURS has N(n) >= 3, so N(n - u) >= (sqrt 3 - sqrt(3/4))^2 = 3/4
    # >= N(0 - u); equality needs u = (-1/2, -1/2), where n = (-1, 0) is nearer.
    best, arg = 0, [(0, 0)]  # the value at n = 0
    for n1, n2 in NEIGHBOURS:
        val = a1 * n1 + a2 * n2 - d * (n1 * n1 + n1 * n2 + n2 * n2)
        if val > best:
            best = val
            arg = [(n1, n2)]
        elif val == best:
            arg.append((n1, n2))
    maxim = tuple(sorted(LatticeVector(n1 + g1, n2 + g2) for n1, n2 in arg))
    # d phi(xi) = d phi(r) + d N(g) + <d r, g> by periodicity; cross-check
    # against the direct value at a translated maximizer.
    value = best + d * (g1 * g1 + g1 * g2 + g2 * g2) + a1 * g1 + a2 * g2
    m = maxim[0]
    if value != p1 * m.n1 + p2 * m.n2 - d * m.norm:
        raise AssertionError(f"trop_scaled{(p1, p2, d)}: periodic value {value} is not the direct one")
    return value, maxim


def tile_vertices(t: LatticeVector) -> list[tuple[int, int]]:
    cx, cy = t.std
    return [(cx + dx, cy + dy) for dx, dy in HEX_VERTEX_OFFSETS]


def facet(t: LatticeVector) -> Facet:
    return Facet((-t.n1, -t.n2, 1), t.norm)


def polytope_contains_strictly(p: MomentPoint) -> bool:
    return Fraction(p.eta) > trop_phi((p.xi1, p.xi2)).value


# ---------------------------------------------------------------------------
# Monodromy of the torus fibration: the class is fixed by the tile alone.


def monodromy_class(xi: Vec2) -> tuple[int, int]:
    """Integer monodromy data of the tile containing xi.

    The loop around the degenerate fiber rotates the phase of the
    coordinate vanishing on the tile's divisor; per tile m the angular
    shift is -m.  Raises on the tropical curve, where the class jumps.
    """
    maximizers = trop_phi(xi).maximizers
    if len(maximizers) > 1:
        raise ValueError("monodromy class is undefined on region boundaries")
    return (-maximizers[0].n1, -maximizers[0].n2)


def monodromy_corner_table() -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """Representative interior points of the four classes in one cell.

    The fundamental parallelogram centered at the chart vertex (-1, -1)
    meets the four tiles carrying classes (0,0), (0,1), (1,0), (1,1).
    """
    f = Fraction
    return {
        (0, 0): (f(1, 2), f(1, 2)),       # upper right: z-vanishing tile
        (0, 1): (f(-1, 2), f(-3, 2)),     # right: y-vanishing tile
        (1, 0): (f(-3, 2), f(-1, 2)),     # left: x-vanishing tile
        (1, 1): (f(-5, 2), f(-5, 2)),     # bottom left
    }


def transport_fractions(r_x: float, r_y: float, r_z: float) -> tuple[float, float, float]:
    """Monodromy phase fractions r_i^-2 / sum r_j^-2 of the three norms; they sum to one."""
    inv = (r_x ** -2.0, r_y ** -2.0, r_z ** -2.0)
    s = sum(inv)
    return (inv[0] / s, inv[1] / s, inv[2] / s)


# ---------------------------------------------------------------------------
# Emitters

_SVG_SCALE = 40  # SVG units per unit of xi


def svg_tiling(window: tuple[float, float, float, float]) -> str:
    """Honeycomb tiling over a window as an SVG document.

    Integer-scaled coordinates keep the output byte-stable across platforms.
    Tiles are stroked hexagons labelled by (m1, m2); trivalent vertices of
    the tropical curve are marked with small circles.
    """
    x0, y0, x1, y1 = window
    width, height = round((x1 - x0) * _SVG_SCALE), round((y1 - y0) * _SVG_SCALE)
    if width < 1 or height < 1:  # round(1/2) is 0
        raise ValueError(f"window must be more than 1/{2 * _SVG_SCALE} wide and high")
    pad = 3
    # m = lambda(center), m1 = (2 cx - cy)/3 and m2 = (2 cy - cx)/3, on the padded window
    cx0, cx1 = math.ceil(x0 - pad), math.floor(x1 + pad)
    cy0, cy1 = math.ceil(y0 - pad), math.floor(y1 + pad)
    tiles = [
        LatticeVector(m1, m2)
        for m1 in range(-((cy1 - 2 * cx0) // 3), (2 * cx1 - cy0) // 3 + 1)
        for m2 in range(-((cx1 - 2 * cy0) // 3), (2 * cy1 - cx0) // 3 + 1)
        if cx0 <= 2 * m1 + m2 <= cx1 and cy0 <= m1 + 2 * m2 <= cy1
    ]

    def sx(v: float) -> int:
        return round((v - x0) * _SVG_SCALE)

    def sy(v: float) -> int:
        return round((y1 - v) * _SVG_SCALE)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    vertices = set()
    for t in tiles:
        pts = tile_vertices(t)
        vertices.update(pts)
        pt_str = " ".join(f"{sx(px)},{sy(py)}" for px, py in pts)
        lines.append(
            f'<polygon points="{pt_str}" fill="none" stroke="black" stroke-width="2"/>'
        )
        cx, cy = t.std
        if x0 <= cx <= x1 and y0 <= cy <= y1:
            lines.append(
                f'<text x="{sx(cx)}" y="{sy(cy)}" font-size="{_SVG_SCALE // 3}" '
                f'text-anchor="middle">({t.n1},{t.n2})</text>'
            )
    for vx, vy in sorted(vertices):
        if x0 <= vx <= x1 and y0 <= vy <= y1:
            lines.append(f'<circle cx="{sx(vx)}" cy="{sy(vy)}" r="3" fill="black"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def facet_csv(radius: Rational) -> str:
    """Facet table m1,m2,nu1,nu2,nu3,alpha for all tiles with N(m) <= radius."""
    rows = ["m1,m2,nu1,nu2,nu3,alpha"]
    ball = enumerate_shifted_ball((0, 0), 1, radius)  # each tile's N(m)
    for n1, n2 in sorted(ball, key=lambda n: (ball[n], n)):
        f = facet(LatticeVector(n1, n2))
        rows.append(f"{n1},{n2},{f.normal[0]},{f.normal[1]},{f.normal[2]},{f.offset}")
    return "\n".join(rows) + "\n"
