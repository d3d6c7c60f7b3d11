import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorlab.lattice import (
    LatticeVector,
    MomentPoint,
    enumerate_shifted_ball,
    lambda_map,
    norm_form,
)
from mirrorlab.charts import (
    BASE_CHARTS,
    GAMMA_P_ACTION,
    GAMMA_PP_ACTION,
    HEX_GEN,
    IDENTITY_MAP,
    ChartLabel,
    MonomialMap,
    V0,
    chart,
    gamma_chart_action,
)
from mirrorlab.tropical import (
    facet,
    facet_csv,
    polytope_contains_strictly,
    svg_tiling,
    tile_vertices,
    trop_phi,
    trop_scaled,
)
from _oracles import gamma_act_moment, trop_box

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=16)
lattice_vectors = st.builds(
    LatticeVector, st.integers(-5, 5), st.integers(-5, 5)
)


def test_trop_phi_examples():
    tv = trop_phi((F(0), F(0)))
    assert tv.value == 0 and tv.maximizers == (LatticeVector(0, 0),)
    assert trop_phi((F(2), F(1))).value == 1
    tv = trop_phi((F(1), F(1)))
    assert tv.value == 0
    assert set(tv.maximizers) == {
        LatticeVector(0, 0),
        LatticeVector(1, 0),
        LatticeVector(0, 1),
    }


def test_vertex_has_three_maximizers():
    tv = trop_phi((F(1), F(0)))
    assert set(tv.maximizers) == {
        LatticeVector(0, 0),
        LatticeVector(1, 0),
        LatticeVector(1, -1),
    }


_WRONG_NORM_PROBE = """
from fractions import Fraction
from mirrorlab import tropical

class WrongNorm(tropical.LatticeVector):
    __slots__ = ()

    @property
    def norm(self):
        return super().norm + 1

tropical.LatticeVector = WrongNorm
try:
    print(tropical.trop_phi((Fraction(1, 2), Fraction(1, 3))).value)
except AssertionError:
    print("raised")
"""


def test_trop_phi_cross_check_survives_optimize():
    # the periodic value is checked against the direct one under python -O too
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_NORM_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert proc.stdout.strip() == "raised"


@given(rationals, rationals, lattice_vectors)
@settings(max_examples=100)
def test_periodicity_exact(x1, x2, g):
    base = trop_phi((x1, x2))
    gs = g.std
    shifted = trop_phi((x1 + gs[0], x2 + gs[1]))
    pairing = x1 * g.n1 + x2 * g.n2
    assert shifted.value == base.value + g.norm + pairing


@given(rationals, rationals)
@settings(max_examples=60)
def test_argmax_dominates_brute_force(x1, x2):
    tv = trop_phi((x1, x2))
    best = max(
        x1 * n.n1 + x2 * n.n2 - n.norm
        for n in map(LatticeVector._make, enumerate_shifted_ball((0, 0), 1, 600))
    )
    assert tv.value == best


def _trop_phi_fraction(xi):
    """The Fraction search that trop_phi's integer kernel replaced, kept as its oracle."""
    x1, x2 = F(xi[0]), F(xi[1])
    w = lambda_map((x1, x2))
    g1, g2 = math.floor(w[0] + F(1, 2)), math.floor(w[1] + F(1, 2))
    r1, r2 = x1 - 2 * g1 - g2, x2 - g1 - 2 * g2
    best, arg = None, []
    for n1 in range(-4, 5):
        for n2 in range(-4, 5):
            val = r1 * n1 + r2 * n2 - (n1 * n1 + n1 * n2 + n2 * n2)
            if best is None or val > best:
                best, arg = val, [LatticeVector(n1, n2)]
            elif val == best:
                arg.append(LatticeVector(n1, n2))
    shift = LatticeVector(g1, g2)
    value = best + norm_form(F(g1), F(g2)) + r1 * g1 + r2 * g2
    return value, tuple(sorted(n + shift for n in arg))


small_denominator_rationals = st.builds(F, st.integers(-72, 72), st.integers(1, 12))


@st.composite
def points_on_the_curve(draw):
    """A point of a hexagon edge of some tile: two or three maximizers tie."""
    vs = tile_vertices(LatticeVector(draw(st.integers(-4, 4)), draw(st.integers(-4, 4))))
    k = draw(st.integers(0, 5))
    s = draw(st.builds(F, st.integers(0, 12), st.integers(1, 12)).filter(lambda s: s <= 1))
    (ax, ay), (bx, by) = vs[k], vs[(k + 1) % 6]
    return (ax + s * (bx - ax), ay + s * (by - ay))


@given(small_denominator_rationals, small_denominator_rationals)
@settings(max_examples=200)
def test_trop_phi_matches_fraction_oracle(x1, x2):
    tv = trop_phi((x1, x2))
    assert (tv.value, tv.maximizers) == _trop_phi_fraction((x1, x2))


@given(points_on_the_curve())
@settings(max_examples=100)
def test_trop_phi_matches_fraction_oracle_on_the_curve(xi):
    tv = trop_phi(xi)
    assert len(tv.maximizers) >= 2
    assert (tv.value, tv.maximizers) == _trop_phi_fraction(xi)


def test_trop_phi_matches_fraction_oracle_on_a_sixth_grid():
    # every honeycomb vertex in [-3, 3]^2, and the ties of the reduced square
    # such as (-3/2, -3/2), (-1, -1/2) and (1, 1)
    grid = [F(k, 6) for k in range(-18, 19)]
    for xi in ((x1, x2) for x1 in grid for x2 in grid):
        tv = trop_phi(xi)
        assert (tv.value, tv.maximizers) == _trop_phi_fraction(xi), xi


# xi = (p1/d, p2/d) with |xi|_inf <= 8, so that the box search stays small
scaled_points = st.integers(1, 16).flatmap(
    lambda d: st.tuples(st.integers(-8 * d, 8 * d), st.integers(-8 * d, 8 * d), st.just(d))
)
# a vertex, an edge point, and the ties of the reduced square at d = 6
_TIES = ((1, 0, 1), (1, 1, 1), (-9, -9, 6), (-6, -3, 6), (6, 3, 6))


@given(scaled_points)
@example((1, 0, 1))
@example((-9, -9, 6))
@settings(max_examples=200)
def test_trop_scaled_is_trop_phi_times_d(p):
    p1, p2, d = p
    tv = trop_phi((F(p1, d), F(p2, d)))
    assert trop_scaled(p1, p2, d) == (d * tv.value, tv.maximizers)


@given(scaled_points, st.integers(2, 60))
@example((1, 1, 1), 7)
@settings(max_examples=100)
def test_trop_scaled_is_invariant_under_scaling(p, k):
    p1, p2, d = p
    value, maxim = trop_scaled(p1, p2, d)
    assert trop_scaled(k * p1, k * p2, k * d) == (k * value, maxim)


@given(scaled_points)
@settings(max_examples=100)
def test_trop_scaled_matches_box_search(p):
    assert trop_scaled(*p) == trop_box(*p)


@pytest.mark.parametrize("p", _TIES)
def test_trop_scaled_matches_box_search_on_ties(p):
    value, maxim = trop_scaled(*p)
    assert len(maxim) >= 2 and (value, maxim) == trop_box(*p)


def test_tile_of():
    assert trop_phi((F(0), F(0))).maximizers == (LatticeVector(0, 0),)
    assert trop_phi((F(10), F(5))).maximizers == (LatticeVector(5, 0),)
    assert len(trop_phi((F(1), F(0))).maximizers) == 3


@given(rationals, rationals)
@settings(max_examples=50)
def test_tile_argmax_consistent_with_edges(x1, x2):
    maximizers = trop_phi((x1, x2)).maximizers
    if len(maximizers) > 1:
        return
    t = maximizers[0]
    c1, c2 = 2 * t.n1 + t.n2, t.n1 + 2 * t.n2
    assert c1 - 1 <= x1 <= c1 + 1
    assert c2 - 1 <= x2 <= c2 + 1
    assert (t.n1 - t.n2) - 1 <= x1 - x2 <= (t.n1 - t.n2) + 1


def test_facets():
    assert facet(LatticeVector(0, 0)).normal == (0, 0, 1)
    assert facet(LatticeVector(0, 0)).offset == 0
    assert facet(LatticeVector(1, 0)) .normal == (-1, 0, 1)
    assert facet(LatticeVector(1, 0)).offset == 1
    assert facet(LatticeVector(1, 1)).normal == (-1, -1, 1)
    assert facet(LatticeVector(1, 1)).offset == 3


def test_polytope_membership():
    assert polytope_contains_strictly(MomentPoint(F(0), F(0), F(1, 2)))
    assert not polytope_contains_strictly(MomentPoint(F(0), F(0), F(0)))  # on the boundary
    assert not polytope_contains_strictly(MomentPoint(F(0), F(0), F(-1)))


@given(rationals, rationals, rationals, lattice_vectors)
@settings(max_examples=60)
def test_membership_invariant_under_action(x1, x2, eta, g):
    # the height eta - trop(xi), whose sign decides membership, is preserved
    p = MomentPoint(x1, x2, eta)
    q = gamma_act_moment(g, p)
    assert q.eta - trop_phi((q.xi1, q.xi2)).value == eta - trop_phi((x1, x2)).value


# --- charts ---------------------------------------------------------------


def test_hex_generator_order_six():
    assert HEX_GEN ** 6 == IDENTITY_MAP
    assert HEX_GEN ** 3 != IDENTITY_MAP
    g3 = HEX_GEN ** 3
    assert g3.x == (-1, 0, 0, -2)  # T^-2 x^-1
    assert g3.y == (0, -1, 0, -2)  # T^-2 y^-1


def test_hex_generator_action_on_xy():
    assert HEX_GEN.x == (0, -1, 0, -2)  # T^-2 y^-1
    assert HEX_GEN.y == (1, 1, 0, 1)    # T x y


def test_base_chart_table_matches_conventions():
    assert BASE_CHARTS[1] == ((0, 1, 1, 1), (0, -1, 0, -2), (1, 1, 0, 1))
    for k in range(6):
        ch = chart(ChartLabel(LatticeVector(0, 0), k))
        assert ch.coordinate_product() == V0


def test_chart_product_is_v0_on_translates():
    for m in (LatticeVector(1, 0), LatticeVector(0, -1), LatticeVector(2, -1),
              LatticeVector(-1, -1)):
        for k in range(6):
            assert chart(ChartLabel(m, k)).coordinate_product() == V0


def test_gamma_actions():
    assert GAMMA_PP_ACTION.x == (1, 0, 0, 0)
    assert GAMMA_PP_ACTION.y == (1, 2, 1, 3)    # T^3 v0 y
    assert GAMMA_PP_ACTION.z == (-1, -1, 0, -3)  # T^-3 v0^-1 z
    assert GAMMA_P_ACTION.compose(GAMMA_PP_ACTION) == GAMMA_PP_ACTION.compose(
        GAMMA_P_ACTION
    )
    assert gamma_chart_action(LatticeVector(0, 0)) == IDENTITY_MAP
    assert gamma_chart_action(LatticeVector(-1, 2)) == (
        GAMMA_P_ACTION.inverse().compose(GAMMA_PP_ACTION ** 2)
    )


@given(lattice_vectors, lattice_vectors)
@settings(max_examples=30)
def test_gamma_chart_action_is_a_homomorphism(g, h):
    assert gamma_chart_action(g + h) == gamma_chart_action(g).compose(gamma_chart_action(h))
    assert gamma_chart_action(LatticeVector(-g.n1, -g.n2)) == gamma_chart_action(g).inverse()


def test_actions_preserve_v0():
    for mm in (HEX_GEN, GAMMA_P_ACTION, GAMMA_PP_ACTION):
        assert mm.apply(V0) == V0


def test_gamma_pp_matches_hex_square_up_to_permutation():
    g2 = HEX_GEN ** 2
    permuted = MonomialMap(g2.y, g2.z, g2.x)
    assert permuted == GAMMA_PP_ACTION


def chart_transition(a, b):
    """Monomial map expressing chart-b coordinates through chart-a ones."""
    return MonomialMap(*chart(a).coords).inverse().compose(MonomialMap(*chart(b).coords))


def test_transitions_fix_v0_and_compose():
    a = ChartLabel(LatticeVector(0, 0), 0)
    b = ChartLabel(LatticeVector(0, 0), 1)
    c = ChartLabel(LatticeVector(1, -1), 4)
    for pair in ((a, b), (a, c), (b, c)):
        tr = chart_transition(*pair)
        assert tr.apply(V0) == V0
    ab = chart_transition(a, b)
    bc = chart_transition(b, c)
    ac = chart_transition(a, c)
    assert ab.compose(bc) == ac
    assert chart_transition(a, a) == IDENTITY_MAP


def test_monomial_inverse():
    for mm in (HEX_GEN, GAMMA_P_ACTION, BASE_CHARTS and MonomialMap(*BASE_CHARTS[3])):
        assert mm.compose(mm.inverse()) == IDENTITY_MAP
        assert mm.inverse().compose(mm) == IDENTITY_MAP


_CHART_MAPS = (HEX_GEN, GAMMA_P_ACTION, GAMMA_PP_ACTION,
               *(MonomialMap(*images) for images in BASE_CHARTS.values()))


@given(st.lists(st.sampled_from(_CHART_MAPS + tuple(m ** -1 for m in _CHART_MAPS)),
                min_size=1, max_size=8))
def test_monomial_inverse_of_products(factors):
    mm = IDENTITY_MAP
    for f in factors:
        mm = mm.compose(f)
    assert mm.compose(mm.inverse()) == IDENTITY_MAP
    assert mm.inverse().compose(mm) == IDENTITY_MAP


def test_chart_unknown_label():
    with pytest.raises(Exception):
        MonomialMap((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)).inverse()


# --- emitters -------------------------------------------------------------


def test_facet_csv_radius_one():
    csv = facet_csv(1)
    lines = csv.strip().splitlines()
    assert lines[0] == "m1,m2,nu1,nu2,nu3,alpha"
    assert len(lines) == 8  # header + 7 tiles
    assert lines[1] == "0,0,0,0,1,0"


def test_svg_deterministic_and_labeled():
    one = svg_tiling((-3, -3, 3, 3))
    two = svg_tiling((-3, -3, 3, 3))
    assert one == two
    assert "(0,0)" in one and "(1,0)" in one
    assert one.startswith("<?xml")
    with pytest.raises(ValueError):
        svg_tiling((1, 1, 1, 5))


@pytest.mark.parametrize("g", [LatticeVector(300, -100), LatticeVector(10**6, 0)])
def test_svg_of_a_translated_window_translates_the_labels(g):
    # the tiles come from the window itself, so a far window costs what a
    # near one does
    window = (-2.5, -1.0, 3.25, 4.0)
    gx, gy = g.std
    far = svg_tiling((window[0] + gx, window[1] + gy, window[2] + gx, window[3] + gy))
    near = re.sub(
        r">\((-?\d+),(-?\d+)\)<",
        lambda m: f">({int(m[1]) + g.n1},{int(m[2]) + g.n2})<",
        svg_tiling(window),
    )
    assert far == near


@given(rationals, rationals, st.fractions(min_value=0, max_value=6, max_denominator=8),
       lattice_vectors)
@settings(max_examples=60)
def test_height_above_graph_is_action_invariant(x1, x2, above, g):
    # the lattice action preserves eta - trop(xi) exactly
    p = MomentPoint(x1, x2, trop_phi((x1, x2)).value + above)
    q = gamma_act_moment(g, p)
    assert q.eta - trop_phi((q.xi1, q.xi2)).value == above
