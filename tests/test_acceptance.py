"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import time
from fractions import Fraction as F

import numpy as np

from mirrorlab.fukaya import functor_check
from mirrorlab.gw import admitted_classes, disc_series, sphere_count_C, wall_curves_window
from mirrorlab.kahler import (
    DEFAULT_C_BASE,
    DEFAULT_L,
    DEFAULT_P,
    DEFAULT_T,
    REGION_IDS,
    FiberPoint,
    metric,
    metric_certificate,
    monodromy_class,
    region_samples,
)
from mirrorlab.lattice import (
    LatticeVector,
    MomentPoint,
    enumerate_shifted_ball,
)
from mirrorlab.series import TauSeries, differential_table, leibniz_check, theta_products
from mirrorlab.tropical import facet, monodromy_corner_table, trop_phi
from _oracles import (
    derivative_check,
    from_logs,
    harmonic_difference_check,
    transport_fractions,
    triangle_area_closed,
    triangle_area_oracle,
    triangles_up_to,
)
from series_view import tau_series


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_functor_identity():
    started = time.monotonic()
    triples = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 4))
    for triple in triples:
        report = functor_check(*triple, cutoff=F(20))
        assert report.all_match, report.to_json()
    elapsed = time.monotonic() - started
    assert elapsed < 30
    _report(1, f"functor identity exact to tau^20 on {len(triples)} triples "
               f"({elapsed:.1f}s)")


def test_criterion_2_triangle_area_oracle():
    count = 0
    for t in triangles_up_to(0, 1, 2, F(12)):
        assert triangle_area_oracle(t) == triangle_area_closed(t)
        count += 1
    _report(2, f"geometric area equals closed form on {count} triangles, "
               "zero tolerance")


def test_criterion_3_leading_structure_constants():
    e0 = LatticeVector(0, 0)
    cs = tau_series(theta_products(1, 1, F(10))[e0, e0])
    golden_00 = TauSeries.from_terms([(0, 1), (2, 6), (6, 6), (8, 6)], 10)
    assert cs[e0] == golden_00
    assert cs[LatticeVector(1, 0)].terms[0] == (F(1, 2), F(2))
    # independent brute-force scan: fix one x-exponent per class and read
    # the coefficient series off the product of the defining sums directly
    def brute_constants(rep: tuple[int, int]) -> dict[F, F]:
        base = F(rep[0] ** 2 + rep[0] * rep[1] + rep[1] ** 2, 2)
        acc: dict[F, F] = {}
        for na in map(LatticeVector._make, enumerate_shifted_ball((0, 0), 1, 12)):
            nb = LatticeVector(rep[0] - na.n1, rep[1] - na.n2)
            exp = F(na.norm + nb.norm) - base
            if exp <= 10:
                acc[exp] = acc.get(exp, F(0)) + 1
        return acc

    got_00 = sorted((e, v) for e, v in brute_constants((0, 0)).items() if e <= 8)
    assert got_00 == [(F(0), 1), (F(2), 6), (F(6), 6), (F(8), 6)]
    got_10 = sorted((e, v) for e, v in brute_constants((1, 0)).items() if e <= F(3, 2))
    assert got_10 == [(F(1, 2), 2), (F(3, 2), 2)]
    _report(3, "leading structure constants match the brute-force lattice scan")


def test_criterion_4_disc_theta_agreement():
    eta = F(1, 2)
    series = disc_series(MomentPoint(F(0), F(0), eta), F(15) + eta)
    normalized = TauSeries(tuple((e - eta, c) for e, c in series.terms), series.cutoff - eta)
    expect = {F(0): 1, F(1): 6, F(3): 6, F(4): 6, F(7): 12, F(9): 6, F(12): 6, F(13): 12}
    for e, c in normalized.terms:
        if e <= 15:
            assert expect.get(e, 0) == c, (e, c)
    for e, c in expect.items():
        assert normalized.coefficient(e) == c
    # exponent-multiset equality at 20 random rational interior points
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        x1 = F(int(rng.integers(-600, 600)), 120)
        x2 = F(int(rng.integers(-600, 600)), 120)
        above = F(int(rng.integers(1, 48)), 24)
        eta = trop_phi((x1, x2)).value + above
        a = MomentPoint(x1, x2, eta)
        cutoff = F(8)
        s = disc_series(a, cutoff)
        disc_exps = []
        for e, c in s.terms:
            disc_exps.extend([e - eta] * int(c))
        theta_exps = [
            n.norm - (x1 * n.n1 + x2 * n.n2)
            for n in map(LatticeVector._make, enumerate_shifted_ball((0, 0), 1, 400))
            if n.norm - (x1 * n.n1 + x2 * n.n2) <= cutoff - eta
        ]
        assert sorted(disc_exps) == sorted(theta_exps)
        checked += 1
    _report(4, "disc series equals theta evaluation term-for-term "
               "(axis point to tau^15, 20 random basepoints)")


def test_criterion_5_tropical_periodicity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        xi = (F(int(rng.integers(-4000, 4000)), 256),
              F(int(rng.integers(-4000, 4000)), 256))
        g = LatticeVector(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        base = trop_phi(xi)
        gs = g.std
        shifted = trop_phi((xi[0] + gs[0], xi[1] + gs[1]))
        assert shifted.value == base.value + g.norm + xi[0] * g.n1 + xi[1] * g.n2
    tv = trop_phi((F(1), F(1)))
    assert set(tv.maximizers) == {
        LatticeVector(0, 0), LatticeVector(1, 0), LatticeVector(0, 1),
    }
    _report(5, "periodicity exact on 100 samples; trivalent vertex at (1,1)")


def test_criterion_6_metric_certificate():
    started = time.monotonic()
    cert = metric_certificate(
        T=DEFAULT_T, l=DEFAULT_L, p=DEFAULT_P, samples=500, seed=7,
        c_base=DEFAULT_C_BASE,
    )
    assert cert["status"] == "pass"
    assert all(row["min_eig"] > 0 for row in cert["regions"].values())
    # analytic vs finite differences
    for region in REGION_IDS:
        for r in region_samples(region, 2, seed=17).tolist():
            rel_g, rel_h = derivative_check(FiberPoint(*r))
            assert rel_g <= 1e-6 and rel_h <= 1e-6
    # deep interior sample against the leading diagonal
    ms = metric(from_logs(DEFAULT_L / 3, DEFAULT_L / 3))
    target = np.eye(3) * (8.0 / 3.0) * DEFAULT_T ** 2
    assert np.allclose(ms.matrix, target, rtol=0.10)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _report(6, f"7500-sample positivity certificate, finite-difference "
               f"agreement, interior diagonal within 10% ({elapsed:.1f}s)")


def test_criterion_7_monodromy():
    for r in region_samples("VII", 25, seed=7).tolist() + [[1.0, 1.0, 1.0]]:
        assert abs(sum(transport_fractions(*r)) - 1.0) <= 1e-14
    corners = monodromy_corner_table()
    assert {monodromy_class(xi) for xi in corners.values()} == {
        (0, 0), (0, 1), (1, 0), (1, 1),
    }
    for cls, xi in corners.items():
        assert monodromy_class(xi) == cls
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        xi = (F(int(rng.integers(-4000, 4000)), 997),
              F(int(rng.integers(-4000, 4000)), 997))
        try:
            plus = monodromy_class(xi)
            minus = monodromy_class((-xi[0], -xi[1]))
        except ValueError:
            continue
        assert minus == (-plus[0], -plus[1])
        checked += 1
    _report(7, "fractions sum to 1, four corner classes, antisymmetry on 50 samples")


def test_criterion_8_chart_algebra():
    from mirrorlab.charts import (
        ChartLabel,
        HEX_GEN,
        IDENTITY_MAP,
        V0,
        chart,
    )

    assert HEX_GEN ** 6 == IDENTITY_MAP
    for k in range(6):
        assert chart(ChartLabel(LatticeVector(0, 0), k)).coordinate_product() == V0
    rng = np.random.default_rng(7)
    for _ in range(100):
        logs = rng.uniform(-1.0, 41.0, size=2)
        q = from_logs(float(logs[0]), float(logs[1]))
        assert abs(harmonic_difference_check(q)) <= 1e-12
    _report(8, "hexagon generator has order six, chart products equal the "
               "superpotential, pullback identity at 100 points")


def test_criterion_9_differential_and_leibniz():
    tab = differential_table(0, 2, F(15))
    e0 = LatticeVector(0, 0)
    func = tau_series(theta_products(1, 1, F(15))[e0, e0])
    for rep, series in func.items():
        assert tau_series(tab.entries[e0][rep]) == series  # its cutoff is already 15
    for i, j in ((0, 2), (0, 3)):
        report = leibniz_check(i, j, (1.0, 1.0), 0.1, F(15))
        assert report.status == "pass", report.to_json()
    _report(9, "level-2 table equals the functor data; Leibniz residuals "
               "below their tail bounds at (0,2) and (0,3)")


def test_criterion_10_sphere_count():
    c = sphere_count_C(3)
    assert c.coefficient(0) == 1
    anchor = LatticeVector(0, 0)
    walls = wall_curves_window(9)
    for w in walls:
        total = [0, 0, 0]
        for t, d in w.degrees.items():
            nu = facet(t).normal
            for i in range(3):
                total[i] += d * nu[i]
        assert total == [0, 0, 0]
    for cand in admitted_classes(walls, anchor, 3):
        degs = cand.degree_map()
        assert degs[anchor] < 0
        assert all(d >= 0 for t, d in degs.items() if t != anchor)
    _report(10, "constant term 1, sign conditions on every admitted class, "
                "wall relations exact kernel vectors")
