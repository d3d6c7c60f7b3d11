import math
from fractions import Fraction as F

import numpy as np
import pytest

from mirrorlab import _ad, kahler
from mirrorlab._ad import D2
from mirrorlab.kahler import (
    DEFAULT_C_BASE,
    DEFAULT_L,
    DEFAULT_P,
    DEFAULT_T,
    REGION_IDS,
    BumpProfile,
    FiberPoint,
    boundary_pair_catalog,
    calibrate_c_base,
    derivative_check,
    formula_key,
    harmonic_difference_check,
    harmonic_sixfold_check,
    hex_orbit,
    kahler_F,
    metric,
    metric_certificate,
    moment_coords,
    moment_shift_gamma_prime,
    monodromy_class,
    monodromy_corner_table,
    phi_xyz,
    potential_value,
    region_classify,
    region_samples,
    transport_fractions,
)


# The sigma-orbits of the formula keys, sigma: (x, y, z) -> (y, z, x).
ORBITS = (
    ("g_yz", "g_xz", "g_xy"),
    ("I", "III", "V"),
    ("axis_x", "axis_y", "axis_z"),
    ("IIA", "IVA", "VIA"),
    ("IIB", "IVB", "VIB"),
    ("VIC", "IIC", "IVC"),
)


def sigma(key, k):
    """sigma^k of a formula key; VII is fixed."""
    for orbit in ORBITS:
        if key in orbit:
            return orbit[(orbit.index(key) + k) % 3]
    assert key == "VII"
    return key


def center_point():
    r = DEFAULT_T ** (DEFAULT_L / 3)
    return FiberPoint(r, r, r)


def test_fiber_point_invariant():
    q = center_point()
    assert q.on_fiber
    off = FiberPoint(q.r_x * 1.01, q.r_y, q.r_z)
    assert not off.on_fiber


def test_phi_symmetric_and_tiny_at_center():
    q = center_point()
    px, py, pz = phi_xyz(q)
    assert px == py == pz
    assert abs(px) < 1e-25


def test_phi_difference_identity():
    # phi_x - phi_y equals the potential difference over log T
    for q in region_samples("I", 5, seed=3) + region_samples("g_xy", 5, seed=3):
        px, py, _ = phi_xyz(q)
        t, (rx, ry, rz) = q.T, q.r
        g_xz = (
            math.log1p((t * rx) ** 2)
            + math.log1p((t * rz) ** 2)
            + math.log1p((t * t * rx * rz) ** 2)
        )
        g_yz = (
            math.log1p((t * ry) ** 2)
            + math.log1p((t * rz) ** 2)
            + math.log1p((t * t * ry * rz) ** 2)
        )
        assert abs((px - py) - (g_xz - g_yz) / math.log(t)) < 1e-12 * max(
            1.0, abs(px - py)
        )


def test_region_examples():
    assert region_classify(center_point()) == "VII"
    a = (DEFAULT_L / 4 - DEFAULT_L / (2 * DEFAULT_P)) / 2 - 1
    q = FiberPoint.from_logs(a, (DEFAULT_L - a) / 2, (DEFAULT_L - a) / 2)
    assert region_classify(q) == "I"
    q = FiberPoint.from_logs((DEFAULT_L + 1) / 2 - 1, (DEFAULT_L + 1) / 2 + 1, -1.0)
    assert region_classify(q) == "axis_z"


def test_sampler_classifier_agreement():
    for region in REGION_IDS:
        for q in region_samples(region, 25, seed=7):
            assert q.on_fiber
            assert region_classify(q) == region


def test_samples_are_seed_deterministic():
    a = [q.r for q in region_samples("IIA", 5, seed=9)]
    b = [q.r for q in region_samples("IIA", 5, seed=9)]
    c = [q.r for q in region_samples("IIA", 5, seed=10)]
    assert a == b
    assert a != c


def test_bump_profile_contracts():
    prof = BumpProfile()
    # ranges at saturation
    assert prof.a3(DEFAULT_T ** prof.d_inner * 0.99) == pytest.approx(2 / 3)
    assert prof.a3(DEFAULT_T ** prof.d_outer * 1.01) == pytest.approx(1.0)
    assert prof.a5(DEFAULT_T ** prof.d_inner * 0.99) == pytest.approx(0.0)
    assert prof.a5(DEFAULT_T ** prof.d_outer * 1.01) == pytest.approx(1.0)
    for w in (0.1, 0.3, 0.49):
        assert prof.a4(w) == 0.0
    assert prof.a4(prof.w_ramp + 0.1) == 0.5
    for w in (0.6, 1.0, 5.0):
        assert abs(prof.a4(-w) + prof.a4(w)) < 1e-14
    assert prof.a6(prof.t1 + 0.1) == 0.0
    assert prof.a6(prof.t0 - 0.1) == 1.0
    # monotonicity on a grid
    grid = [prof.t0 + k * (prof.t1 - prof.t0) / 50 for k in range(51)]
    vals = [prof.a6(s) for s in grid]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_bump_derivative_budget():
    prof = BumpProfile()
    budget = prof.derivative_budget()
    for name, row in budget.items():
        assert row["max_d1"] <= row["c1"] / prof.l + 1e-12
        assert row["c1"] < 60  # order p, not order l
        assert row["max_d2"] * prof.l ** 2 <= (row["c2"] + 1e-9) ** 2 + 1e-9


def test_region_vii_leading_matrix():
    ms = metric(center_point())
    target = np.eye(3) * (8.0 / 3.0) * DEFAULT_T ** 2
    assert np.allclose(ms.matrix, target, rtol=0.1)
    assert ms.min_eigenvalue > 0


def test_metric_symmetric_and_region_tagged():
    for region in ("I", "IIB", "g_xy", "axis_z"):
        q = region_samples(region, 1, seed=5)[0]
        ms = metric(q)
        assert np.allclose(ms.matrix, ms.matrix.T, atol=1e-10)
        assert ms.region == region


def test_metric_positive_on_modest_sample():
    for region in REGION_IDS:
        for q in region_samples(region, 20, seed=13):
            assert metric(q).min_eigenvalue > 0, (region, q.logs())


def test_derivative_cross_validation():
    for region in REGION_IDS:
        for q in region_samples(region, 2, seed=21):
            rel_g, rel_h = derivative_check(q)
            assert rel_g < 1e-6, (region, rel_g)
            assert rel_h < 1e-6, (region, rel_h)


def test_cyclic_equivariance():
    q = region_samples("I", 1, seed=5)[0]
    assert q.rotated(1).r == (q.r_z, q.r_x, q.r_y)
    assert q.rotated(2).r == (q.r_y, q.r_z, q.r_x)
    for region in REGION_IDS:
        for q in region_samples(region, 10, seed=5):
            key = formula_key(q)
            for k in (1, 2):
                qk = q.rotated(k)
                assert formula_key(qk) == sigma(key, k), (region, k, q.logs())
                value = potential_value(q, key)
                if key == "VII":
                    # one symmetric body, summed in a fixed order: exact up to rounding
                    assert potential_value(qk, key) == pytest.approx(value, rel=1e-15)
                else:
                    assert potential_value(qk, sigma(key, k)) == value


def test_seam_catalog_covers_every_formula_key():
    base = {
        ("I", "VII"), ("I", "IIA"), ("IIA", "IIB"), ("IIB", "IIC"), ("IIC", "III"),
        ("axis_x", "I"), ("g_xy", "axis_x"),
    }
    expected = {(sigma(a, k), sigma(b, k)) for a, b in base for k in range(3)}
    got = {(formula_key(q1), formula_key(q2)) for q1, q2 in boundary_pair_catalog()}
    assert got == expected
    keys = {key for pair in got for key in pair}
    assert keys == {key for orbit in ORBITS for key in orbit} | {"VII"}


def test_potential_continuity_across_seams():
    for q1, q2 in boundary_pair_catalog():
        assert abs(kahler_F(q1) - kahler_F(q2)) <= 1e-9


def test_seam_formula_agreement_exact():
    prof = BumpProfile()
    l = DEFAULT_L
    q = FiberPoint.from_logs(l / 8 - 1, (l - (l / 8 - 1)) / 2, None)
    assert abs(potential_value(q, "I") - potential_value(q, "VII")) < 1e-20
    a = 3.4
    q = FiberPoint.from_logs(a, a + prof.t1, None)
    assert potential_value(q, "I") == potential_value(q, "IIA")
    q = FiberPoint.from_logs(a, a + prof.t0, None)
    assert potential_value(q, "IIA") == potential_value(q, "IIB")


def test_region_vii_against_interpolation_identity():
    # VII equals the IIA formula at the interior bump endpoints
    q = center_point()
    prof = BumpProfile()
    via_vii = potential_value(q, "VII", prof)
    via_iia = potential_value(q, "IIA", prof)  # a3 = 2/3, a5 = 0 deep inside
    assert via_vii == pytest.approx(via_iia, rel=1e-12)


def test_saturated_interpolation_rebuilds_pair_potential():
    # with the radial weights saturated and the odd weight at 1/2,
    # base + D + Theta/2 collapses to the two-coordinate potential
    for q in region_samples("I", 5, seed=9):
        t, (rx, ry, rz) = q.T, q.r
        lp = math.log1p
        g_yz = lp((t * ry) ** 2) + lp((t * rz) ** 2) + lp((t * t * ry * rz) ** 2)
        g_xy = lp((t * rx) ** 2) + lp((t * ry) ** 2) + lp((t * t * rx * ry) ** 2)
        px = lp((t * rx) ** 2) - lp((t * t * ry * rz) ** 2)
        py = lp((t * ry) ** 2) - lp((t * t * rx * rz) ** 2)
        pz = lp((t * rz) ** 2) - lp((t * t * rx * ry) ** 2)
        d_i = px - 0.5 * (py + pz)
        th_i = py - pz
        rebuilt = g_yz + d_i + 0.5 * th_i
        assert rebuilt == pytest.approx(g_xy, rel=1e-12, abs=1e-300)


def test_moment_coords_monotone_and_symmetric():
    for q in region_samples("I", 4, seed=3) + region_samples("VII", 4, seed=3):
        xi = moment_coords(q)
        step = 0.05
        q_up = FiberPoint(
            q.r_x * math.exp(step), q.r_y, q.r_z * math.exp(-step), q.T, q.l, q.p
        )
        assert moment_coords(q_up)[0] > xi[0]
        q_up_y = FiberPoint(
            q.r_x, q.r_y * math.exp(step), q.r_z * math.exp(-step), q.T, q.l, q.p
        )
        assert moment_coords(q_up_y)[1] > xi[1]
    qs = FiberPoint.from_logs(14.0, 14.0)
    xi = moment_coords(qs)
    assert xi[0] == pytest.approx(xi[1], abs=1e-15)


def test_moment_gamma_prime_shift():
    for region in ("VII", "I", "IIB"):
        q = region_samples(region, 1, seed=2)[0]
        shift = moment_shift_gamma_prime(q)
        assert shift[0] == pytest.approx(2.0, abs=1e-9)
        assert shift[1] == pytest.approx(1.0, abs=1e-9)


def test_transport_fractions():
    assert transport_fractions(FiberPoint(1.0, 1.0, 1.0)) == pytest.approx(
        (1 / 3, 1 / 3, 1 / 3)
    )
    w = transport_fractions(FiberPoint(0.1, 1.0, 1.0))
    assert w == pytest.approx((100 / 102, 1 / 102, 1 / 102))
    tiny = transport_fractions(FiberPoint(1e-9, 1.0, 1.0))
    assert tiny[0] == pytest.approx(1.0, abs=1e-14)
    for q in region_samples("VII", 5, seed=4):
        assert abs(sum(transport_fractions(q)) - 1.0) <= 1e-14


def test_monodromy_corner_classes():
    for cls, xi in monodromy_corner_table().items():
        assert monodromy_class(xi) == cls


def test_monodromy_antisymmetry_and_boundary():
    rng = np.random.default_rng(7)
    count = 0
    while count < 50:
        xi = (
            F(int(rng.integers(-4000, 4000)), 997),
            F(int(rng.integers(-4000, 4000)), 997),
        )
        try:
            plus = monodromy_class(xi)
            minus = monodromy_class((-xi[0], -xi[1]))
        except ValueError:
            continue
        assert minus == (-plus[0], -plus[1])
        count += 1
    with pytest.raises(ValueError):
        monodromy_class((F(1), F(0)))


def test_monodromy_consistent_with_transport_dominance():
    # deep in a tile the dominant inverse-square fraction names the class
    probes = {
        (0, 0): FiberPoint.from_logs(1.0, 1.0, None),    # z tiny
        (1, 0): FiberPoint.from_logs(38.0, 1.0, 1.0),    # x tiny
        (0, 1): FiberPoint.from_logs(1.0, 38.0, 1.0),    # y tiny
    }
    for cls, q in probes.items():
        w = transport_fractions(q)
        assert (round(w[0]), round(w[1])) == cls


def test_harmonic_identities():
    for q in region_samples("g_xy", 10, seed=5) + region_samples("VII", 10, seed=5):
        assert abs(harmonic_difference_check(q)) <= 1e-12
        assert abs(harmonic_sixfold_check(q)) <= 1e-12
    q = FiberPoint(0.3, 1.0 / DEFAULT_T, 0.5)
    assert harmonic_difference_check(q) == pytest.approx(0.0, abs=1e-12)


def test_hex_orbit_closes():
    q = region_samples("VII", 1, seed=6)[0]
    orbit = hex_orbit(q)
    assert len(orbit) == 6
    t = q.T
    last = orbit[-1]
    closed = (1.0 / (t * t * last[1]), t * last[0] * last[1], t * last[1] * last[2])
    for got, want in zip(closed, orbit[0]):
        assert got == pytest.approx(want, rel=1e-9)
    for r in orbit:
        assert r[0] * r[1] * r[2] == pytest.approx(t ** q.l, rel=1e-9)


def test_certificate_statuses():
    cert = metric_certificate(samples=5)
    assert cert["status"] == "pass"
    for region, row in cert["regions"].items():
        pts = region_samples(region, 5)
        eigs = [metric(q).min_eigenvalue for q in pts]
        worst = eigs.index(min(eigs))  # the first of equal minima
        assert row["min_eig"] == eigs[worst]
        assert row["worst_point"] == list(pts[worst].logs())
    empty = metric_certificate(samples=0)
    assert empty["status"] == "indeterminate"


def test_calibration_is_power_of_two():
    c = calibrate_c_base()
    assert math.log2(c) == int(math.log2(c))
    assert c == DEFAULT_C_BASE


def _metric_per_point(q, prof, c_base):
    """The per-point metric: jet of F + c|xyz|^2, then one 3x3 eigvalsh."""
    f = kahler._potential_ad(q, prof, formula_key(q))
    if c_base:
        u = D2.var(q.r_x, 0) * D2.var(q.r_y, 1) * D2.var(q.r_z, 2)
        f = f + (u * u) * c_base
    mat = np.array(_ad.hessian_matrix(f)) + np.diag(np.divide(f.g, q.r))
    diag = np.diagonal(mat)
    if np.any(diag <= 0):
        return mat, -float("inf")
    d = 1.0 / np.sqrt(diag)
    return mat, float(np.linalg.eigvalsh(mat * np.outer(d, d))[0])


def test_batched_finisher_is_bit_identical():
    prof = BumpProfile()
    pts = [q for region in REGION_IDS for q in region_samples(region, 4, seed=19)]
    keys, jets = kahler._jets(pts, prof)
    assert keys == [formula_key(q) for q in pts]
    saw_inf = False
    for c in (0.0, 1.0, 2.0 ** 100, 2.0 ** 139):
        mats, min_eigs = kahler._metric_from_jets(jets, c)
        for q, mat, eig in zip(pts, mats, min_eigs):
            ms = metric(q, prof, c)
            want_mat, want_eig = _metric_per_point(q, prof, c)
            assert mat.tobytes() == ms.matrix.tobytes() == want_mat.tobytes()
            assert eig.tobytes() == np.float64(ms.min_eigenvalue).tobytes()
            assert eig.tobytes() == np.float64(want_eig).tobytes()
            saw_inf = saw_inf or eig == -np.inf
    assert saw_inf  # c = 0 leaves non-positive diagonals, e.g. in the g regions


def test_calibration_matches_per_point_scan():
    prof = BumpProfile()
    pts = [q for region in REGION_IDS for q in region_samples(region, 3)]
    want = next(
        2.0 ** k
        for k in range(-80, 200)
        if all(metric(q, prof, 2.0 ** k).min_eigenvalue > 1e-9 for q in pts)
    )
    assert calibrate_c_base(samples=3) == want
