import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorlab.gw import (
    SphereClass,
    WallCurve,
    admitted_classes,
    disc_area,
    disc_series,
    g_series,
    sphere_count_C,
    wall_curves_window,
    wall_degrees,
)
from mirrorlab.lattice import LatticeVector, MomentPoint
from mirrorlab.series import (
    TauSeries,
    differential_table,
    leibniz_check,
    shifted_theta_value,
    theta_products,
    theta_section,
)
from mirrorlab.tropical import NEIGHBOURS, facet, trop_phi
from _oracles import gamma_act_moment
from series_view import tau_series

lattice_vectors = st.builds(LatticeVector, st.integers(-3, 3), st.integers(-3, 3))
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)


def interior_point(x1, x2, eta_above):
    phi = trop_phi((x1, x2)).value
    return MomentPoint(x1, x2, phi + eta_above)


def test_disc_area_examples():
    a = MomentPoint(F(0), F(0), F(1, 2))
    assert disc_area(a, LatticeVector(0, 0)) == F(1, 2)
    assert disc_area(a, LatticeVector(1, 0)) == F(3, 2)
    with pytest.raises(ValueError):
        disc_area(MomentPoint(F(0), F(0), F(0)), LatticeVector(0, 0))


@given(lattice_vectors, small_rationals, small_rationals,
       st.fractions(min_value=F(1, 4), max_value=2, max_denominator=8),
       st.builds(LatticeVector, st.integers(-2, 2), st.integers(-2, 2)))
@settings(max_examples=60)
def test_disc_area_covariant(g, x1, x2, above, m):
    a = interior_point(x1, x2, above)
    b = gamma_act_moment(g, a)
    # the facet relabeling that matches the moment translation by g
    assert disc_area(b, LatticeVector(m.n1 - g.n1, m.n2 - g.n2)) == disc_area(a, m)


def test_disc_series_at_axis_point():
    a = MomentPoint(F(0), F(0), F(1, 2))
    s = disc_series(a, F(8))
    expected = TauSeries.from_terms(
        [(F(1, 2), 1), (F(3, 2), 6), (F(7, 2), 6), (F(9, 2), 6), (F(15, 2), 12)], 8
    )
    assert s == expected


def test_disc_series_empty_below_min_area():
    a = MomentPoint(F(0), F(0), F(1, 2))
    assert not disc_series(a, F(1, 4)).terms


@given(small_rationals, small_rationals,
       st.fractions(min_value=F(1, 4), max_value=2, max_denominator=8))
@settings(max_examples=40, deadline=None)
def test_disc_series_matches_theta_exponents(x1, x2, above):
    """Multiset of disc areas minus height equals the theta evaluation lattice."""
    a = interior_point(x1, x2, above)
    cutoff = F(6)
    s = disc_series(a, cutoff)
    disc_exps = []
    for e, c in s.terms:
        disc_exps.extend([e - a.eta] * int(c))
    theta_exps = []
    # theta terms evaluate to exponent N(n) - <xi, n> at |x_i| = tau^xi_i
    bound = cutoff - a.eta
    from mirrorlab.lattice import enumerate_shifted_ball

    for n in map(LatticeVector._make, enumerate_shifted_ball((0, 0), 1, 200)):
        exp = n.norm - (a.xi1 * n.n1 + a.xi2 * n.n2)
        if exp <= bound:
            theta_exps.append(exp)
    assert sorted(disc_exps) == sorted(theta_exps)


def test_disc_series_invariant_under_action():
    a = MomentPoint(F(1, 3), F(1, 5), F(2))
    assert trop_phi((a.xi1, a.xi2)).value < a.eta
    for g in (LatticeVector(1, 0), LatticeVector(-1, 2)):
        b = gamma_act_moment(g, a)
        assert disc_series(b, F(7)) == disc_series(a, F(7))


def test_wall_degrees_example():
    w = wall_degrees((LatticeVector(0, 0), LatticeVector(1, 0)))
    assert w.degrees == {
        LatticeVector(1, -1): 1,
        LatticeVector(0, 1): 1,
        LatticeVector(0, 0): -1,
        LatticeVector(1, 0): -1,
    }
    with pytest.raises(ValueError):
        wall_degrees((LatticeVector(0, 0), LatticeVector(2, 0)))


def test_wall_degrees_kernel_and_equivariance():
    # one edge in each of the six neighbour directions
    t = LatticeVector(2, -1)
    for edge in ((t, t + delta) for delta in NEIGHBOURS):
        w = wall_degrees(edge)
        total = [0, 0, 0]
        for t, d in w.degrees.items():
            nu = facet(t).normal
            for i in range(3):
                total[i] += d * nu[i]
        assert total == [0, 0, 0]
        assert sorted(w.degrees.values()) == [-1, -1, 1, 1]
    # translation equivariance
    g = LatticeVector(1, -1)
    base = wall_degrees((LatticeVector(0, 0), LatticeVector(1, 0)))
    def relabel(t):  # the facet relabeling that matches the moment translation by g
        return LatticeVector(t.n1 - g.n1, t.n2 - g.n2)

    moved = wall_degrees((relabel(LatticeVector(0, 0)), relabel(LatticeVector(1, 0))))
    assert moved.degrees == {relabel(t): d for t, d in base.degrees.items()}


def test_g_series_rejects_single_wall_and_signs():
    anchor = LatticeVector(0, 0)
    walls = wall_curves_window(3)
    singles = [SphereClass(tuple(sorted(w.degrees.items())), 1) for w in walls]
    assert not g_series(anchor, singles, 3).terms
    classes = admitted_classes(walls, anchor, 3)
    for cand in classes:
        degs = cand.degree_map()
        assert degs[anchor] < 0
        assert all(d >= 0 for t, d in degs.items() if t != anchor)
        assert sum(degs.values()) == 0
        k = -degs[anchor]
        assert k - 1 >= 0  # factorial argument finite


def _multiset_classes(walls, anchor, max_total):
    """Reference search: every nondecreasing wall multiset, kept per degree map."""
    walls = sorted(
        walls, key=lambda w: (0 if anchor in w.degrees else 1, sorted(w.edge))
    )
    out = {}
    n = len(walls)
    acc = {}
    deficit = 0

    def apply(i, sign):
        nonlocal deficit
        for t, d in walls[i].degrees.items():
            old = acc.get(t, 0)
            new = old + sign * d
            acc[t] = new
            if t != anchor:
                deficit += max(-new, 0) - max(-old, 0)

    def rec(start, depth):
        if depth > 0 and acc.get(anchor, 0) < 0 and deficit == 0:
            degs = tuple(sorted((t, d) for t, d in acc.items() if d != 0))
            out.setdefault(degs, depth)
        if depth == max_total:
            return
        for i in range(start, n):
            if depth == 0 and anchor not in walls[i].degrees:
                break
            apply(i, +1)
            if deficit <= 2 * (max_total - depth - 1):
                rec(i, depth + 1)
            apply(i, -1)

    rec(0, 0)
    return out


@pytest.mark.parametrize(
    "window, max_total",
    [(3, k) for k in range(6)] + [(5, k) for k in range(6)] + [(9, 4), (16, 4)],
)
def test_admitted_classes_match_multiset_search(window, max_total):
    walls = wall_curves_window(window)
    anchor = LatticeVector(0, 0)
    classes = admitted_classes(walls, anchor, max_total)
    found = {c.degrees: c.total_degree for c in classes}
    assert len(found) == len(classes)  # one class per degree map
    assert found == _multiset_classes(walls, anchor, max_total)


def test_admitted_classes_reject_inconsistent_wall_counts():
    walls = wall_curves_window(3)
    empty = WallCurve((LatticeVector(0, 0), LatticeVector(1, 0)), {})
    assert admitted_classes(walls, LatticeVector(0, 0), 3)
    with pytest.raises(ValueError, match="walls"):
        admitted_classes(walls + [empty], LatticeVector(0, 0), 3)


@pytest.mark.parametrize("window", [3, 5, 9])
def test_sphere_count_converges_in_window(window):
    expected = TauSeries.from_terms(
        [(0, 1), (2, 3), (3, -4), (4, 27), (5, -96), (6, 453)], 6
    )
    assert sphere_count_C(6, window) == expected


def test_g_series_empty_candidates():
    assert not g_series(LatticeVector(0, 0), [], 4).terms
    assert TauSeries((), F(4)).exp() == TauSeries.one(4)


def test_sphere_count_constant_term():
    c = sphere_count_C(0)
    assert c == TauSeries.one(0)
    c3 = sphere_count_C(3)
    assert c3.coefficient(0) == 1
    assert c3.coefficient(1) == 0
    assert c3.coefficient(2) == 3
    assert c3.coefficient(3) == -4
    assert not any(e < 0 for e, _ in c3.terms)


def test_sphere_count_invertible_leading_one():
    c = sphere_count_C(3)
    # invert the truncated series; the product must be 1 up to the cutoff
    inv = TauSeries.one(3)
    for _ in range(4):
        inv = TauSeries.from_terms([*inv.terms, (0, 1), *((e, -k) for e, k in (c * inv).terms)], 3)
    assert (c * inv) == TauSeries.one(3)


def test_differential_table_level_two_matches_product():
    tab = differential_table(0, 2, F(12))
    e0 = LatticeVector(0, 0)
    func = tau_series(theta_products(1, 1, F(12))[e0, e0])
    assert set(tab.entries) == {e0}
    for rep, series in func.items():
        assert tau_series(tab.entries[e0][rep]) == series  # its cutoff is already 12


def test_differential_table_denominators_and_leading():
    tab = differential_table(0, 3, F(9))
    assert tab.level == 3
    entries = tau_series(tab.entries)
    for e, row in entries.items():
        for f, ts in row.items():
            for exp, _ in ts.terms:
                assert exp >= 0
                assert (3 * 2) % exp.denominator == 0
    # unique order-zero coefficient: the identity-compatible entry
    e0 = LatticeVector(0, 0)
    assert entries[e0][e0].coefficient(0) == 1
    zeros = [
        (e, f)
        for e, row in entries.items()
        for f, ts in row.items()
        if ts.coefficient(0) != 0
    ]
    assert zeros == [(e0, e0)]


def test_differential_requires_level_two():
    with pytest.raises(ValueError):
        differential_table(0, 1, F(4))


def test_shifted_basis_value_against_section():
    # at |x| = (1, 1) the shift of rep e at level 2 is -e/2, and the shifted
    # sum equals the section's terms summed at tau
    e = LatticeVector(1, 0)
    val, tail = shifted_theta_value(2, (-1 / 2, 0.0), 0.1, 10.0)
    sec = theta_section(e, 2, F(10))
    brute = sum(t.evaluate(0.1) for t in tau_series(sec).values())
    assert abs(val - brute) <= 2 * tail


def test_leibniz_identity():
    rep = leibniz_check(0, 2, (1.0, 1.0), 0.1, F(12))
    assert rep.passed
    for item in rep.items:
        assert item["residual"] < item["tail_bound"]


_LEIBNIZ_PROBE = """
import sys
from fractions import Fraction
from mirrorlab.series import leibniz_check
assert leibniz_check(0, 2, (1.0, 1.0), 0.1, Fraction(12)).passed
print(sorted(m for m in ("mirrorlab.gw", "mirrorlab.tropical") if m in sys.modules))
"""


def test_leibniz_searches_no_sphere_classes():
    # both sides of the identity are free of the sphere count C: in a fresh
    # process, leibniz_check never loads gw, where the sphere classes live
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _LEIBNIZ_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert proc.stdout.split() == ["[]"]


def test_leibniz_cutoff_zero_counts_flat_configurations():
    rep = leibniz_check(0, 2, (1.0, 1.0), 0.1, F(0))
    item = rep.items[0]
    assert float(item["lhs"]) == 1.0
    assert float(item["rhs"]) == 1.0
    # the dropped tail (about 3e3) dwarfs lhs + rhs: nothing is checked
    assert item["tail_bound"] > 1e3
    assert rep.passed and rep.status == "indeterminate"


def test_leibniz_shifted_sample():
    # replacing x by a lattice translate leaves the identity intact
    tau = 0.1
    gp = (2, 1)
    x = (tau ** -gp[0], tau ** -gp[1])
    rep = leibniz_check(0, 2, x, tau, F(12))
    assert rep.passed


def test_leibniz_computes_each_basis_sum_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return shifted_theta_value(*args)

    monkeypatch.setattr("mirrorlab.series.shifted_theta_value", counted)
    leibniz_check(0, 4, (1.0, 1.0), 0.1, F(12))
    # l^2 + (l-1)^2 sums at level 4, plus the defining section
    assert len(calls) == 16 + 9 + 1


@pytest.mark.parametrize("g", [LatticeVector(2, 1), LatticeVector(-1, 3)])
def test_leibniz_sides_are_lattice_periodic(g):
    # x -> x tau^(-g.std) shifts lambda(log_tau x) by -g, a lattice vector, so
    # no side picks up the quasi-periodicity factor
    tau = 0.1
    x = (0.8, 1.7)
    gs = g.std
    base = leibniz_check(0, 3, x, tau, F(12))
    moved = leibniz_check(0, 3, (x[0] * tau ** -gs[0], x[1] * tau ** -gs[1]), tau, F(12))
    for a, b in zip(base.items, moved.items):
        for key in ("lhs", "rhs"):
            assert float(b[key]) == pytest.approx(float(a[key]), rel=1e-12, abs=0)
    assert moved.passed
