import functools
import importlib.util
import math
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mirrorlab import _ad, kahler
from mirrorlab._ad import D2
from mirrorlab.kahler import (
    DEFAULT_C_BASE,
    DEFAULT_L,
    DEFAULT_P,
    DEFAULT_SEED,
    DEFAULT_T,
    REGION_IDS,
    BumpProfile,
    FiberPoint,
    calibrate_c_base,
    formula_key,
    metric,
    metric_certificate,
    monodromy_class,
    region_samples,
)
from mirrorlab.tropical import monodromy_corner_table
from _oracles import (
    boundary_pair_catalog,
    derivative_budget,
    derivative_check,
    from_logs,
    harmonic_difference_check,
    harmonic_sixfold_check,
    hex_orbit,
    least_power_of_two_scan,
    moment_coords,
    moment_shift_gamma_prime,
    point_key,
    potential_value,
    rotated,
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


def points(region, count, seed=kahler.DEFAULT_SEED, T=DEFAULT_T, l=DEFAULT_L, p=DEFAULT_P):
    """The rows of `region_samples` as FiberPoints."""
    return [FiberPoint(*r, T, l, p) for r in region_samples(region, count, seed, T, l, p).tolist()]


def on_fiber(q):
    """The product of the norms is T^l, to 1e-12 relative."""
    prod = q.r_x * q.r_y * q.r_z
    return abs(prod - q.T ** q.l) <= 1e-12 * q.T ** q.l


def region_classify(q):
    """The region identifier of a fiber point (IV and VI bands unsplit)."""
    key = point_key(q)
    return kahler._FORMULA_TO_REGION.get(key, key)


def _float_phis(q):
    T = q.T
    rx, ry, rz = q.r
    px = math.log1p((T * rx) ** 2) - math.log1p((T * T * ry * rz) ** 2)
    py = math.log1p((T * ry) ** 2) - math.log1p((T * T * rx * rz) ** 2)
    pz = math.log1p((T * rz) ** 2) - math.log1p((T * T * rx * ry) ** 2)
    return px, py, pz


def phi_xyz(q):
    """The three log_T-normalized coordinate combinations."""
    ln_t = math.log(q.T)
    px, py, pz = _float_phis(q)
    return (px / ln_t, py / ln_t, pz / ln_t)


def oracle_key(q):
    """The per-point classifier that the lane `formula_key` replaced, kept as its oracle."""
    a, b, c = q.logs()
    moderate = [i for i, v in enumerate((a, b, c)) if v <= kahler.MODERATE_LOG]
    if len(moderate) >= 2:
        if len(moderate) == 3:
            raise ValueError("point is not near a deep fiber")
        (far,) = {0, 1, 2} - set(moderate)
        return sigma("g_yz", far)
    if len(moderate) == 1:
        return sigma("axis_x", moderate[0])
    px, py, pz = _float_phis(q)
    d_i = px - 0.5 * (py + pz)
    d_iii = py - 0.5 * (px + pz)
    d_v = pz - 0.5 * (px + py)
    d_lo = q.T ** (q.l / 4)
    if max(d_i, d_iii, d_v) <= d_lo:
        return "VII"
    prof = q.profile
    t0, t1 = prof.t0, prof.t1
    fam = max(range(3), key=lambda i: (d_i, d_iii, d_v)[i])
    a, b, c = kahler._rotate((a, b, c), -fam)
    u, v = b - a, c - a
    if u >= t1 and v >= t1:
        base = "I"
    elif u <= v:
        base = "IIA" if u >= t0 else "IIB"
    else:
        base = "VIC" if v >= t0 else "VIB"
    return sigma(base, fam)


def test_fiber_point_invariant():
    q = center_point()
    assert on_fiber(q)
    off = FiberPoint(q.r_x * 1.01, q.r_y, q.r_z)
    assert not on_fiber(off)


def test_phi_symmetric_and_tiny_at_center():
    q = center_point()
    px, py, pz = phi_xyz(q)
    assert px == py == pz
    assert abs(px) < 1e-25


def test_phi_difference_identity():
    # phi_x - phi_y equals the potential difference over log T
    for q in points("I", 5, seed=3) + points("g_xy", 5, seed=3):
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
    q = from_logs(a, (DEFAULT_L - a) / 2, (DEFAULT_L - a) / 2)
    assert region_classify(q) == "I"
    q = from_logs((DEFAULT_L + 1) / 2 - 1, (DEFAULT_L + 1) / 2 + 1, -1.0)
    assert region_classify(q) == "axis_z"


def _metric_cert_draws():
    """(count, seed) of every region draw of the metric-cert benchmark ops at seeds 1-20."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "ops.py"
    spec = importlib.util.spec_from_file_location("perfbench_ops", path)
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    draws = set()
    for seed in range(1, 21):
        for argv in ops.workload_ops("metric-cert", seed):
            opt = dict(zip(argv[1::2], argv[2::2]))
            count = int(opt["--samples"])
            if opt["--c-base"] == "auto":
                count = max(count, kahler.CALIBRATION_SAMPLES)
            draws.add((count, int(opt["--seed"])))
    return sorted(draws)


def test_formula_key_matches_oracle_on_every_metric_cert_draw():
    prof = BumpProfile()
    draws = _metric_cert_draws()
    assert (300, 7) in draws and len(draws) > 2  # the auto op and the fixed op's seeds
    for count, seed in draws:
        for region in REGION_IDS:
            rows = region_samples(region, count, seed)
            want = [oracle_key(FiberPoint(*r)) for r in rows.tolist()]
            assert [kahler._KEYS[c] for c in formula_key(rows, prof)] == want, (region, seed)


def test_three_moderate_logs_raise():
    prof = BumpProfile()
    message = "^point is not near a deep fiber$"
    for rows in ([[1.0, 1.0, 1.0]], [center_point().r, [0.5, 0.2, DEFAULT_T ** 1.5]]):
        with pytest.raises(ValueError, match=message):
            formula_key(np.array(rows), prof)
        with pytest.raises(ValueError, match=message):
            oracle_key(FiberPoint(*rows[-1]))
    assert formula_key(np.empty((0, 3)), prof).shape == (0,)


def _deep_terms(q):
    """max(d_I, d_III, d_V) and the (u, v) that `oracle_key` compares with t0 and t1."""
    px, py, pz = _float_phis(q)
    d = (px - 0.5 * (py + pz), py - 0.5 * (px + pz), pz - 0.5 * (px + py))
    fam = d.index(max(d))
    a, b, c = kahler._rotate(q.logs(), -fam)
    return max(d), b - a, c - a


def _nudged(q, i, hit, steps=200):
    """q with norm i moved by the fewest ulps (at most steps) at which hit holds; None if none."""
    field = ("r_x", "r_y", "r_z")[i]
    up = down = q[i]
    for _ in range(steps + 1):
        for x in (up, down):
            if hit(moved := q._replace(**{field: x})):
                return moved
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
    return None


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(["moderate", "u=t0", "u=t1", "v=t0", "v=t1", "d"]),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
    st.integers(0, 2),
)
def test_formula_key_matches_oracle_on_band_edges(edge, x, y, k):
    # Points whose recomputed logs or phis land exactly on a classifier edge:
    # a log equal to MODERATE_LOG, u or v equal to t0 or t1, or max d equal
    # to T^(l/4).  Built in the x family, rotated by sigma^k, then one norm
    # is moved ulp by ulp until the edge holds in floats.
    prof, l = BumpProfile(), DEFAULT_L
    lo, hi = kahler.sampler_windows(l, DEFAULT_P)["a"]
    a = lo + (hi - lo) * x  # a deep x log, as the I, II, IV and VI samplers draw
    if edge == "moderate":
        b = 3.5 + 4.5 * y  # at most 2 for a g region, else an axis
        q, i = from_logs(kahler.MODERATE_LOG, b), 0
        hit = lambda q: kahler.MODERATE_LOG in q.logs()  # noqa: E731
    elif edge == "d":
        # log1p((T r_x)^2) = T^(l/4) up to rounding; the other phis are far smaller
        r_x = math.sqrt(math.expm1(DEFAULT_T ** (l / 4))) / DEFAULT_T
        a = math.log(r_x) / math.log(DEFAULT_T)
        q, i = from_logs(a, (l - a - 8 * y) / 2, (l - a + 8 * y) / 2)._replace(r_x=r_x), 0
        hit = lambda q: _deep_terms(q)[0] == q.T ** (q.l / 4)  # noqa: E731
    else:
        side, band = edge.split("=")
        e = getattr(prof, band)
        i = 1 if side == "u" else 2
        logs = [a, l - 2 * a - e]
        logs.insert(i, a + e)
        q = from_logs(*logs)
        hit = lambda q: _deep_terms(q)[i] == e  # noqa: E731
    q = _nudged(rotated(q, k), (i + k) % 3, hit)
    assume(q is not None)
    field = ("r_x", "r_y", "r_z")[(i + k) % 3]
    near = [q] + [q._replace(**{field: math.nextafter(q[(i + k) % 3], to)}) for to in (0.0, 1.0)]
    got = formula_key(np.array([p.r for p in near]), prof)
    assert [kahler._KEYS[c] for c in got] == [oracle_key(p) for p in near]
    assert point_key(q) == oracle_key(q)


# Rows exactly on a classifier edge under libm, each found by a search for
# a row that numpy's routine for the same function moves off that edge (on
# an x86-64 host with numpy 2.4 the lanes then give I):
# - a log_T norm equal to MODERATE_LOG, which np.log in place of math.log misses;
# - max d equal to T^(l/4), which np.log1p in place of math.log1p misses;
# - max d equal to T^(l/4), which x * x in place of pow(x, 2) misses.
@pytest.mark.parametrize("r, T, l, key", [
    ((0.05787179344619736, 1.7516040587557488e-12, 1.7516040587557488e-12), 0.24056556995172307, 40, "axis_x"),
    ((0.5790761346364421, 0.050051989559642796, 0.050051989559642796), 0.804144700695926, 30, "VII"),
    ((0.12233568995542547, 3.001382470639913e-05, 3.001382470639913e-05), 0.4656645688129229, 30, "VII"),
])
def test_formula_key_keeps_libm_on_edges(r, T, l, key):
    q = FiberPoint(*r, T, l, DEFAULT_P)
    if key == "VII":
        assert _deep_terms(q)[0] == T ** (l / 4)
    else:
        assert math.log(r[0]) / math.log(T) == kahler.MODERATE_LOG
    assert kahler._KEYS[formula_key(np.array([r]), q.profile)[0]] == oracle_key(q) == key


def test_sampler_classifier_agreement():
    # "in_region" is a recount of the certificate's own samples; at the
    # defaults a few IIB and IV samples near a band edge are VII
    rows = metric_certificate(samples=500, seed=7)["regions"]
    for region in REGION_IDS:
        pts = points(region, 500, seed=7)
        assert all(on_fiber(q) for q in pts)
        count = sum(region_classify(q) == region for q in pts)
        assert rows[region]["in_region"] == count, region
    assert region_classify(points("IIB", 49, seed=7)[48]) == "VII"
    assert region_classify(points("IV", 55, seed=7)[54]) == "VII"
    assert {r: row["in_region"] for r, row in rows.items() if row["in_region"] < 500} == {
        "IIB": 485, "IV": 496, "VI": 497,
    }


@pytest.mark.parametrize("c_base", ["auto", DEFAULT_C_BASE])
def test_regions_without_their_own_samples_are_not_a_pass(c_base):
    # at l = 20 no I, II, III, IV, V or VI sample classifies into its region
    cert = metric_certificate(l=20, samples=50, c_base=c_base)
    empty = {r for r, row in cert["regions"].items() if row["in_region"] == 0}
    assert empty == {"I", "IIA", "IIB", "IIC", "III", "IV", "V", "VI"}
    assert cert["status"] != "pass"
    # at l = 24 every sampled eigenvalue clears, yet those regions are
    # still unsampled: indeterminate, not pass
    cert = metric_certificate(l=24, samples=50, c_base="auto")
    assert cert["c_base"] is not None
    assert all(row["min_eig"] > 0 for row in cert["regions"].values())
    assert cert["regions"]["I"]["in_region"] == 0
    assert cert["status"] == "indeterminate"


def test_samples_are_seed_deterministic():
    a = region_samples("IIA", 5, seed=9)
    assert a.shape == (5, 3) and a.dtype == np.float64
    assert a.tolist() == region_samples("IIA", 5, seed=9).tolist()
    assert a.tolist() != region_samples("IIA", 5, seed=10).tolist()
    assert a.tolist() == region_samples("IIA", 8, seed=9)[:5].tolist()  # a prefix of more


_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = 2 ** 64 - 1


def _splitmix64(z):
    """SplitMix64's output function on a Python int (Steele, Lea & Flood 2014)."""
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _MASK64
    return z ^ z >> 31


def _scalar_pairs(seed, ridx, count):
    """`_uniform_pairs` one Python int at a time: the stream's oracle."""
    nwords = max(1, -(-seed.bit_length() // 64))
    key = 0
    for w in [seed >> 64 * i & _MASK64 for i in range(nwords)] + [ridx]:
        key = _splitmix64((key + _GAMMA & _MASK64) ^ w)
    return [
        tuple((_splitmix64(key + (2 * idx + j) * _GAMMA & _MASK64) >> 11) * 2.0 ** -53 for j in (1, 2))
        for idx in range(count)
    ]


def _uniform_sampler(region, count, seed, T, l, p):
    """A per-sample sampler on the scalar stream, kept as `region_samples`' oracle.

    It returns `region_samples`' count x 3 array of norms.
    """
    win = kahler.sampler_windows(l, p)
    orbit, k = kahler._ROTATION.get(region, ((region,), 0))
    out = []
    for pair in _scalar_pairs(seed, REGION_IDS.index(region), count):
        draws = iter(pair)

        def u(lo, hi):
            return lo + (hi - lo) * next(draws)

        if region == "VII":
            a = l / 3 + u(-0.5, 0.5)
            b = l / 3 + u(-0.5, 0.5)
            q = from_logs(a, b, None, T, l, p)
        elif orbit[0] in ("I", "axis_x"):
            a = u(*win["a"]) if orbit[0] == "I" else u(-1.0, 1.0)
            w = u(-8.0, 8.0) if orbit[0] == "I" else u(-3.0, 3.0)
            logs = kahler._rotate((a, (l - a - w) / 2, (l - a + w) / 2), k)
            q = from_logs(*logs, T, l, p)
        elif orbit[0] == "g_yz":
            logs = [u(-1.0, 1.0), u(-1.0, 1.0)]
            logs.insert(k, l - logs[0] - logs[1])
            q = from_logs(*logs, T, l, p)
        elif region in ("IIA", "IIB"):
            a = u(*win["a"])
            th = u(*win[region])
            q = from_logs(a, a + th, None, T, l, p)
        elif region == "IIC":
            b = u(*win["a"])
            th = u(*win["IIA"])
            q = from_logs(b + th, b, None, T, l, p)
        else:  # IV and VI: sigma and sigma^2 of (m, n, l - m - n)
            s = u(*win["a"])
            d = u(*win["IV"])
            m, n = (s, s + d) if d >= 0 else (s - d, s)
            logs = kahler._rotate((m, n, l - m - n), 1 if region == "IV" else 2)
            q = from_logs(*logs, T, l, p)
        out.append(q.r)
    return np.array(out, float).reshape(-1, 3)


@pytest.mark.parametrize("l", [40, 60])
# 2 ** 64 + 5 and 2 ** 128 + 1 key the stream with two and three seed words
@pytest.mark.parametrize("seed", [0, 7, 999999, 2 ** 40 + 5, 2 ** 64 + 5, 2 ** 128 + 1])
def test_samples_match_uniform_oracle(seed, l):
    for region in REGION_IDS:
        got = region_samples(region, 12, seed, DEFAULT_T, l, 17)
        want = _uniform_sampler(region, 12, seed, DEFAULT_T, l, 17)
        assert got.shape == want.shape == (12, 3) and got.tobytes() == want.tobytes(), region


def test_splitmix64_known_answers():
    # SplitMix64 from state 0: its first three outputs
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    states = np.arange(1, 4, dtype=np.uint64) * kahler._GAMMA
    assert kahler._mix(states).tolist() == want
    assert [_splitmix64(k * _GAMMA & _MASK64) for k in (1, 2, 3)] == want
    assert kahler._uniform_pairs(7, 0, 2)[0].tolist() == [0.5570122015098184, 0.14612911130338602]
    assert kahler._uniform_pairs(2 ** 128 + 1, 14, 2)[0].tolist() == [0.053264633406472583, 0.7598401191056807]


@pytest.mark.parametrize("count", [0, 1, 500])
# one to three seed words; 2 ** 64 - 1 and 2 ** 64 straddle the second word
@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 5, 2 ** 128 + 1])
def test_uniform_pairs_match_scalar_splitmix64(seed, count):
    for ridx in range(len(REGION_IDS)):
        got = kahler._uniform_pairs(seed, ridx, count)
        assert got.shape == (count, 2) and got.dtype == np.float64
        want = np.array(_scalar_pairs(seed, ridx, count), float).reshape(-1, 2)
        assert got.tobytes() == want.tobytes(), ridx


def test_uniform_pairs_wrap_without_warnings():
    # uint64 lanes wrap mod 2 ** 64; no scalar overflow warning, no float promotion
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = kahler._uniform_pairs(2 ** 128 + 1, 3, 500)
    assert got.tobytes() == np.array(_scalar_pairs(2 ** 128 + 1, 3, 500)).tobytes()


def test_uniform_pairs_refuse_bad_seeds_and_counts():
    with pytest.raises(ValueError, match="non-negative"):
        kahler._uniform_pairs(-1, 0, 3)
    with pytest.raises(ValueError, match="non-negative"):
        region_samples("I", 1, seed=-(2 ** 40))
    # the CLI's --samples domain; refused before anything is allocated
    assert kahler._uniform_pairs(7, 0, 0).shape == (0, 2)
    assert region_samples("I", -1).shape == (0, 3)  # a count <= 0 draws nothing, as range(count)
    with pytest.raises(ValueError, match=r"at most 2\*\*32 samples"):
        kahler._uniform_pairs(7, 0, 2 ** 32 + 1)
    with pytest.raises(ValueError, match=r"at most 2\*\*32 samples"):
        region_samples("VII", 2 ** 40, seed=7)


# the metric-cert benchmark ops: (samples, seed, c_base)
@pytest.mark.parametrize("samples, seed, c_base", [(300, 7, "auto"), (500, 215045, 2.0 ** 139)])
def test_certificate_matches_per_sample_generator_oracle(monkeypatch, samples, seed, c_base):
    got = metric_certificate(samples=samples, seed=seed, c_base=c_base)
    monkeypatch.setattr(kahler, "region_samples", _uniform_sampler)
    # dict equality, not a digest: eigvalsh bits may differ across LAPACK builds
    assert got == metric_certificate(samples=samples, seed=seed, c_base=c_base)
    assert got["status"] == "pass"


def test_empty_sampler_window_is_named():
    # at l = 40, p = 10 the IIB band offset window is (3.02, -3.02)
    assert kahler.sampler_windows(40, 10)["IIB"] == (3.02, -3.02)
    with pytest.raises(ValueError, match=r"region IIB: sampler window 'IIB' is empty"):
        region_samples("IIB", 1, l=40, p=10)
    assert len(region_samples("IIA", 3, l=40, p=10)) == 3  # its windows are not empty
    # empty means low >= high, as in sampler_windows: one point is empty too
    assert kahler.sampler_windows(40, 500)["a"] == (3.98, 3.98)
    with pytest.raises(ValueError, match=r"region VI: sampler window 'a' is empty"):
        region_samples("VI", 1, l=40, p=500)
    assert len(region_samples("VII", 3, l=40, p=500)) == 3  # VII draws from no named window
    assert region_samples("IIB", 0, l=40, p=10).shape == (0, 3)  # nothing drawn, nothing to refuse


@pytest.mark.parametrize("c_base", [None, DEFAULT_C_BASE, "auto"])
def test_certificate_refuses_empty_windows_whenever_it_draws(c_base):
    # one rule for every c_base: it raises iff it draws, and "auto" always draws
    with pytest.raises(ValueError, match=r"region IIB: sampler window 'IIB' is empty"):
        metric_certificate(l=40, p=10, samples=1, c_base=c_base)
    if c_base == "auto":
        with pytest.raises(ValueError, match=r"sampler window 'IIB' is empty"):
            metric_certificate(l=40, p=10, samples=0, c_base=c_base)
    else:
        assert metric_certificate(l=40, p=10, samples=0, c_base=c_base)["status"] == "indeterminate"


def at(fn, *args):
    """Values of a profile function at float arguments, as one lane call."""
    return fn(D2.const(args)).v.tolist()


def radial(prof, i):
    """a3 (i = 0) or a5 (i = 1) of the profile, from `BumpProfile.a3_a5`."""
    return lambda d: prof.a3_a5(d)[i]


def test_bump_profile_contracts():
    prof = BumpProfile()
    a3, a5 = radial(prof, 0), radial(prof, 1)
    # ranges at saturation
    assert at(a3, DEFAULT_T ** (prof.l / 4) * 0.99) == [pytest.approx(2 / 3)]
    assert at(a3, DEFAULT_T ** prof.d_outer * 1.01) == [pytest.approx(1.0)]
    assert at(a5, DEFAULT_T ** (prof.l / 4) * 0.99) == [pytest.approx(0.0)]
    assert at(a5, DEFAULT_T ** prof.d_outer * 1.01) == [pytest.approx(1.0)]
    assert at(prof.a4, 0.1, 0.3, 0.49) == [0.0, 0.0, 0.0]
    assert at(prof.a4, prof.w_ramp + 0.1) == [0.5]
    for w in (0.6, 1.0, 5.0):
        assert abs(at(prof.a4, -w)[0] + at(prof.a4, w)[0]) < 1e-14
    assert at(prof.a6, prof.t1 + 0.1, prof.t0 - 0.1) == [0.0, 1.0]
    # monotonicity on a grid
    grid = [prof.t0 + k * (prof.t1 - prof.t0) / 50 for k in range(51)]
    vals = at(prof.a6, *grid)
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


def test_bump_derivative_budget():
    prof = BumpProfile()
    budget = derivative_budget(prof)
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
        q = points(region, 1, seed=5)[0]
        ms = metric(q)
        assert np.allclose(ms.matrix, ms.matrix.T, atol=1e-10)
        assert ms.region == region


def test_each_point_is_evaluated_with_its_own_profile():
    # a T = 0.2 point is classified and evaluated with the profile of T = 0.2
    q = from_logs(13.0, 13.5, T=0.2)
    own = BumpProfile(DEFAULT_L, DEFAULT_P, 0.2)
    assert q.profile == own
    key = point_key(q)
    assert potential_value(q, key) == _tuple_potential(q, own, key).v
    eig = metric(q).min_eigenvalue
    assert eig == _metric_per_point(q, _tuple_jets(q, own), DEFAULT_C_BASE)[1]
    assert eig == pytest.approx(4.25e-7, rel=1e-3)
    assert derivative_check(q) == _derivative_check_per_point(q, own)
    # the default profile, of T = 0.1, would give another metric
    other = kahler._metric_from_jets(kahler._jets(np.array([q.r]), BumpProfile())[1], DEFAULT_C_BASE)[1]
    assert other[0] == pytest.approx(1.06e-7, rel=1e-2)


def test_metric_positive_on_modest_sample():
    for region in REGION_IDS:
        for q in points(region, 20, seed=13):
            assert metric(q).min_eigenvalue > 0, (region, q.logs())


def test_derivative_cross_validation():
    for region in REGION_IDS:
        for q in points(region, 2, seed=21):
            rel_g, rel_h = derivative_check(q)
            assert rel_g < 1e-6, (region, rel_g)
            assert rel_h < 1e-6, (region, rel_h)


def test_cyclic_equivariance():
    q = points("I", 1, seed=5)[0]
    assert rotated(q, 1).r == (q.r_z, q.r_x, q.r_y)
    assert rotated(q, 2).r == (q.r_y, q.r_z, q.r_x)
    for region in REGION_IDS:
        for q in points(region, 10, seed=5):
            key = point_key(q)
            for k in (1, 2):
                qk = rotated(q, k)
                assert point_key(qk) == sigma(key, k), (region, k, q.logs())
                value = potential_value(q, key)
                if key == "VII":
                    # one symmetric body, summed in a fixed order: exact up to rounding
                    assert potential_value(qk, key) == pytest.approx(value, rel=1e-15)
                else:
                    assert potential_value(qk, sigma(key, k)) == value


# Profiles (T, l, p) that metric-check accepts: the defaults, the least l
# that glues at T = 0.1, a smaller T with a wider band, and T = 0.5.
GLUED = [(0.1, 40, 17), (0.1, 32, 17), (0.05, 60, 20), (0.5, 40, 17)]
SEAM_EPS = 1e-8  # boundary_pair_catalog's default


def seam_jump_ratio(q1, q2, eps=SEAM_EPS):
    """|F(q1) - F(q2)|, each by its point's own formula, over 2 eps |ln T|
    times the larger l1 norm of F's gradient in log r.

    The points differ by at most 2 eps in each log_T norm, so a potential
    that glues jumps by at most that bound to first order: the ratio is at
    most about 1.  A seam where the two formulas differ shows as a jump
    that no step of 2 eps explains.
    """
    values, slopes = [], []
    for q in (q1, q2):
        f = kahler._potential_ad([q.r], q.profile, point_key(q))
        values.append(float(f.v[0]))
        slopes.append(float(np.abs(f.g[:, 0] * q.r).sum()))
    return abs(values[0] - values[1]) / (2 * eps * abs(math.log(q1.T)) * max(slopes))


@pytest.mark.parametrize("T, l, p", GLUED)
def test_seam_catalog_covers_every_formula_key(T, l, p):
    base = {
        ("I", "VII"), ("I", "IIA"), ("IIA", "IIB"), ("IIB", "IIC"), ("IIC", "III"),
        ("axis_x", "I"), ("g_xy", "axis_x"),
    }
    expected = {(sigma(a, k), sigma(b, k)) for a, b in base for k in range(3)}
    got = {(point_key(q1), point_key(q2)) for q1, q2 in boundary_pair_catalog(T, l, p)}
    assert got == expected
    keys = {key for pair in got for key in pair}
    assert keys == {key for orbit in ORBITS for key in orbit} | {"VII"}


@pytest.mark.parametrize("T, l, p", GLUED)
def test_potential_continuity_across_seams(T, l, p):
    for q1, q2 in boundary_pair_catalog(T, l, p):
        f1, f2 = (potential_value(q, point_key(q)) for q in (q1, q2))
        assert abs(f1 - f2) <= 1e-9
        assert seam_jump_ratio(q1, q2) <= 2, (point_key(q1), point_key(q2))


@pytest.mark.parametrize("T, l, p", GLUED)
def test_potential_continuity_along_the_axis_seam(T, l, p):
    # log_T r_x = MODERATE_LOG with the y log b across (2, l - 4): the
    # catalog's axis pair sits at b = c only, and this walk also meets the
    # borders of axis_x with IIA, IIB, VIB and VIC
    m, met = kahler.MODERATE_LOG, set()
    for i in range(1, 400):
        b = m + (l - 3 * m) * i / 400
        q1 = from_logs(m - SEAM_EPS, b, None, T, l, p)
        q2 = from_logs(m + SEAM_EPS, b, None, T, l, p)
        met.add(point_key(q2))
        assert point_key(q1) == "axis_x"
        assert seam_jump_ratio(q1, q2) <= 2, (b, point_key(q2))
    assert met == {"I", "IIA", "IIB", "VIB", "VIC"}


def test_seam_oracle_reports_the_axis_jump_that_metric_check_refuses():
    # at l 31 the neighbour's radial gate is not saturated on the axis seam
    # (cli._metric_check refuses the profile): the jump, 2.1e-10, is under
    # the absolute bound above, and some 2,000 times the gradient step
    T, l, p = 0.1, 31, 17
    ratios = {(point_key(q1), point_key(q2)): seam_jump_ratio(q1, q2)
              for q1, q2 in boundary_pair_catalog(T, l, p)}
    axis = {(sigma("axis_x", k), sigma("I", k)) for k in range(3)}
    assert {pair for pair, ratio in ratios.items() if ratio > 2} == axis
    assert min(ratios[pair] for pair in axis) > 1000
    q1, q2 = (from_logs(kahler.MODERATE_LOG + e, (l - 2) / 2, None, T, l, p)
              for e in (-SEAM_EPS, SEAM_EPS))
    assert abs(potential_value(q1, "axis_x") - potential_value(q2, "I")) < 1e-9


def test_seam_formula_agreement_exact():
    prof = BumpProfile()
    l = DEFAULT_L
    q = from_logs(l / 8 - 1, (l - (l / 8 - 1)) / 2, None)
    assert abs(potential_value(q, "I") - potential_value(q, "VII")) < 1e-20
    a = 3.4
    q = from_logs(a, a + prof.t1, None)
    assert potential_value(q, "I") == potential_value(q, "IIA")
    q = from_logs(a, a + prof.t0, None)
    assert potential_value(q, "IIA") == potential_value(q, "IIB")


def test_region_vii_against_interpolation_identity():
    # VII equals the IIA formula at the interior bump endpoints
    q = center_point()
    via_vii = potential_value(q, "VII")
    via_iia = potential_value(q, "IIA")  # a3 = 2/3, a5 = 0 deep inside
    assert via_vii == pytest.approx(via_iia, rel=1e-12)


def test_saturated_interpolation_rebuilds_pair_potential():
    # with the radial weights saturated and the odd weight at 1/2,
    # base + D + Theta/2 collapses to the two-coordinate potential
    for q in points("I", 5, seed=9):
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
    for q in points("I", 4, seed=3) + points("VII", 4, seed=3):
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
    qs = from_logs(14.0, 14.0)
    xi = moment_coords(qs)
    assert xi[0] == pytest.approx(xi[1], abs=1e-15)


def test_moment_gamma_prime_shift():
    for region in ("VII", "I", "IIB"):
        q = points(region, 1, seed=2)[0]
        shift = moment_shift_gamma_prime(q)
        assert shift[0] == pytest.approx(2.0, abs=1e-9)
        assert shift[1] == pytest.approx(1.0, abs=1e-9)


def test_transport_fractions():
    assert transport_fractions(1.0, 1.0, 1.0) == pytest.approx(
        (1 / 3, 1 / 3, 1 / 3)
    )
    w = transport_fractions(0.1, 1.0, 1.0)
    assert w == pytest.approx((100 / 102, 1 / 102, 1 / 102))
    tiny = transport_fractions(1e-9, 1.0, 1.0)
    assert tiny[0] == pytest.approx(1.0, abs=1e-14)
    for q in points("VII", 5, seed=4):
        assert abs(sum(transport_fractions(*q.r)) - 1.0) <= 1e-14


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
        (0, 0): from_logs(1.0, 1.0, None),    # z tiny
        (1, 0): from_logs(38.0, 1.0, 1.0),    # x tiny
        (0, 1): from_logs(1.0, 38.0, 1.0),    # y tiny
    }
    for cls, q in probes.items():
        w = transport_fractions(*q.r)
        assert (round(w[0]), round(w[1])) == cls


def test_harmonic_identities():
    for q in points("g_xy", 10, seed=5) + points("VII", 10, seed=5):
        assert abs(harmonic_difference_check(q)) <= 1e-12
        assert abs(harmonic_sixfold_check(q)) <= 1e-12
    q = FiberPoint(0.3, 1.0 / DEFAULT_T, 0.5)
    assert harmonic_difference_check(q) == pytest.approx(0.0, abs=1e-12)


def test_hex_orbit_closes():
    q = points("VII", 1, seed=6)[0]
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
        pts = points(region, 5)
        eigs = [metric(q).min_eigenvalue for q in pts]
        worst = eigs.index(min(eigs))  # the first of equal minima
        assert row["min_eig"] == eigs[worst]
        assert row["worst_point"] == list(pts[worst].logs())
    assert cert["coverage"] == {
        "kind": "sampled",
        "samples_per_region": 5,
        "windows": kahler.sampler_windows(DEFAULT_L, DEFAULT_P),
    }
    empty = metric_certificate(samples=0)
    assert empty["status"] == "indeterminate"
    assert empty["coverage"]["samples_per_region"] == 0


def auto_c_base(T=DEFAULT_T, l=DEFAULT_L, p=DEFAULT_P, seed=DEFAULT_SEED):
    """The c_base that `metric_certificate` calibrates with c_base "auto"."""
    return metric_certificate(T, l, p, 0, seed, "auto")["c_base"]


def test_calibration_is_power_of_two():
    c = auto_c_base()
    assert math.log2(c) == int(math.log2(c))
    assert c == DEFAULT_C_BASE


# ---------------------------------------------------------------------------
# The per-point tuple jet: the reference the lane kernel is checked against.
# It shares no code with `_ad` and `kahler._potential_ad`.


class TupleD2:
    """One point's value, gradient and packed Hessian (xx, xy, xz, yy, yz, zz)."""

    PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

    def __init__(self, v, g=(0.0, 0.0, 0.0), h=(0.0,) * 6):
        self.v, self.g, self.h = v, g, h

    @staticmethod
    def var(value, index):
        return TupleD2(value, tuple(1.0 if i == index else 0.0 for i in range(3)))

    def __add__(self, o):
        if not isinstance(o, TupleD2):
            return TupleD2(self.v + o, self.g, self.h)
        return TupleD2(
            self.v + o.v,
            tuple(a + b for a, b in zip(self.g, o.g)),
            tuple(a + b for a, b in zip(self.h, o.h)),
        )

    __radd__ = __add__

    def __neg__(self):
        return TupleD2(-self.v, tuple(-a for a in self.g), tuple(-a for a in self.h))

    def __sub__(self, o):
        if not isinstance(o, TupleD2):
            return TupleD2(self.v - o, self.g, self.h)
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if not isinstance(o, TupleD2):
            return TupleD2(self.v * o, tuple(a * o for a in self.g), tuple(a * o for a in self.h))
        g = tuple(self.g[i] * o.v + self.v * o.g[i] for i in range(3))
        h = tuple(
            self.h[k] * o.v + self.v * o.h[k] + self.g[i] * o.g[j] + self.g[j] * o.g[i]
            for k, (i, j) in enumerate(self.PAIRS)
        )
        return TupleD2(self.v * o.v, g, h)

    __rmul__ = __mul__

    def chain(self, f, fp, fpp):
        g = tuple(fp * a for a in self.g)
        h = tuple(
            fp * self.h[k] + fpp * self.g[i] * self.g[j] for k, (i, j) in enumerate(self.PAIRS)
        )
        return TupleD2(f, g, h)


def _t_log(x):
    if not isinstance(x, TupleD2):
        return math.log(x)
    return x.chain(math.log(x.v), 1.0 / x.v, -1.0 / (x.v * x.v))


def _t_log1p(x):
    d = 1.0 / (1.0 + x.v)
    return x.chain(math.log1p(x.v), d, -d * d)


def _t_value(x):
    return x.v if isinstance(x, TupleD2) else float(x)


def _t_smoothstep(t):
    if _t_value(t) <= 0.0:
        return 0.0
    if _t_value(t) >= 1.0:
        return 1.0
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _t_radial_s(prof, d):
    if _t_value(d) <= 0.0:
        return 1.0
    return (_t_log(d) * (1.0 / math.log(prof.T)) - prof.d_outer) * (prof.p / prof.l)


def _t_a3(prof, d):
    return 1.0 - _t_smoothstep(_t_radial_s(prof, d)) * (1.0 / 3.0)


def _t_a5(prof, d):
    return 1.0 - _t_smoothstep(_t_radial_s(prof, d))


def _t_a4(prof, w):
    if _t_value(w) < 0.0:
        return -_t_a4(prof, -w)
    return _t_smoothstep((w - prof.w_sliver) * (1.0 / (prof.w_ramp - prof.w_sliver))) * 0.5


def _t_a6(prof, theta):
    return _t_smoothstep((prof.t1 - theta) * (1.0 / (prof.t1 - prof.t0)))


def _tuple_potential(q, prof, key):
    """The potential's jet at one point by the formula of key, on tuples."""
    T = q.T
    r = tuple(TupleD2.var(v, i) for i, v in enumerate(q.r))

    def lp(k, u):
        return _t_log1p(u * u * T ** (2 * k))

    def g(u, v):
        return lp(1, u) + lp(1, v) + lp(2, u * v)

    def w(u, v):
        return (_t_log(u) - _t_log(v)) * (1.0 / math.log(T))

    if key == "VII":
        rx, ry, rz = r
        return (g(rx, ry) + g(rx, rz) + g(ry, rz)) * (1.0 / 3.0)
    (orbit,) = [o for o in ORBITS if key in o]
    k = orbit.index(key)
    x, y, z = (r[(i + k) % 3] for i in range(3))  # the norms read in sigma^-k order
    g_yz = g(y, z)
    if orbit[0] == "g_yz":
        return g_yz
    px = lp(1, x) - lp(2, y * z)
    py = lp(1, y) - lp(2, x * z)
    pz = lp(1, z) - lp(2, x * y)
    if orbit[0] == "IIB":
        d = px + py - pz * 0.5
        return (g_yz - py) + _t_a3(prof, d) * d - 0.5 * _t_a5(prof, d) * pz
    d_x = px - (py + pz) * 0.5
    if orbit[0] == "I":
        return (
            g_yz + _t_a3(prof, d_x) * d_x
            + _t_a4(prof, w(z, y)) * _t_a5(prof, d_x) * (py - pz)
        )
    if orbit[0] == "axis_x":
        return g_yz + d_x + _t_a4(prof, w(z, y)) * (py - pz)
    if orbit[0] == "IIA":
        a6, near, far = _t_a6(prof, w(y, x)), py, pz
    else:
        a6, near, far = _t_a6(prof, -w(x, z)), pz, py
    d = d_x + 1.5 * a6 * near
    return (
        g_yz - a6 * near + _t_a3(prof, d) * d
        + 0.5 * _t_a5(prof, d) * (near - far - a6 * near)
    )


def _tuple_jets(q, prof):
    """The tuple jets of F and of the base term |xyz|^2 at q."""
    u = TupleD2.var(q.r_x, 0) * TupleD2.var(q.r_y, 1) * TupleD2.var(q.r_z, 2)
    return _tuple_potential(q, prof, point_key(q)), u * u


def _square(h):
    """The 3x3 Hessian of a packed tuple one."""
    return np.array([[h[0], h[1], h[2]], [h[1], h[3], h[4]], [h[2], h[4], h[5]]])


def _metric_per_point(q, jets, c_base):
    """The per-point metric: jet of F + c|xyz|^2, then one 3x3 eigvalsh."""
    f, u = jets
    if c_base:
        f = f + u * c_base
    mat = _square(f.h) + np.diag(np.divide(f.g, q.r))
    diag = np.diagonal(mat)
    if np.any(diag <= 0):
        return mat, -float("inf")
    d = 1.0 / np.sqrt(diag)
    return mat, float(np.linalg.eigvalsh(mat * np.outer(d, d))[0])


def test_batched_finisher_is_bit_identical():
    prof = BumpProfile()
    pts = [q for region in REGION_IDS for q in points(region, 4, seed=19)]
    codes, jets = kahler._jets(np.array([q.r for q in pts]), prof)
    assert [kahler._KEYS[c] for c in codes] == [oracle_key(q) for q in pts]
    oracle = [_tuple_jets(q, prof) for q in pts]
    saw_inf = False
    for c in (0.0, 1.0, 2.0 ** 100, 2.0 ** 139):
        mats, min_eigs = kahler._metric_from_jets(jets, c)
        for q, mat, eig, tj in zip(pts, mats, min_eigs, oracle):
            ms = metric(q, c)
            want_mat, want_eig = _metric_per_point(q, tj, c)
            assert mat.tobytes() == ms.matrix.tobytes() == want_mat.tobytes()
            assert eig.tobytes() == np.float64(ms.min_eigenvalue).tobytes()
            assert eig.tobytes() == np.float64(want_eig).tobytes()
            saw_inf = saw_inf or eig == -np.inf
    assert saw_inf  # c = 0 leaves non-positive diagonals, e.g. in the g regions


def test_non_finite_rows_stay_out_of_eigvalsh():
    # at c = 1e308 some rows overflow; they get nan, and the other rows keep
    # the bits they have in a batch without the broken ones
    jets = _calibration_jets(7, samples=5)
    mats, min_eigs = kahler._metric_from_jets(jets, 1e308)
    broken = ~np.isfinite(mats).all(axis=(1, 2))
    assert broken.any() and not broken.all()
    assert np.isnan(min_eigs[broken]).all() and not np.isnan(min_eigs[~broken]).any()
    rows = tuple(a[~broken] for a in jets)
    assert min_eigs[~broken].tobytes() == kahler._metric_from_jets(rows, 1e308)[1].tobytes()


def test_breakdown_makes_a_passing_certificate_indeterminate(monkeypatch):
    finisher = kahler._metric_from_jets
    want = metric_certificate(samples=3, c_base=DEFAULT_C_BASE)
    assert want["status"] == "pass"

    def first_row_breaks(jets, c):
        mats, min_eigs = finisher(jets, c)
        min_eigs[0] = np.nan
        return mats, min_eigs

    monkeypatch.setattr(kahler, "_metric_from_jets", first_row_breaks)
    got = metric_certificate(samples=3, c_base=DEFAULT_C_BASE)
    assert got["status"] == "indeterminate"
    for region, row in got["regions"].items():
        assert row.pop("breakdowns") == 1
        assert row["min_eig"] >= want["regions"][region]["min_eig"]
    monkeypatch.setattr(kahler, "_metric_from_jets", lambda jets, c: (None, np.full(3, np.nan)))
    got = metric_certificate(samples=3, c_base=DEFAULT_C_BASE)
    assert got["status"] == "indeterminate"
    assert all(r["min_eig"] is None and r["worst_point"] is None and r["breakdowns"] == 3
               for r in got["regions"].values())


def test_a_zero_min_eigenvalue_fails_the_certificate(monkeypatch):
    # no real draw gives exactly 0.0; a matrix with a zero eigenvalue is not
    # positive definite, so one such row fails the whole certificate
    finisher = kahler._metric_from_jets
    calls = []

    def third_region_singular(jets, c):
        mats, min_eigs = finisher(jets, c)
        calls.append(None)
        if len(calls) == 3:
            min_eigs[1] = 0.0
        return mats, min_eigs

    monkeypatch.setattr(kahler, "_metric_from_jets", third_region_singular)
    got = metric_certificate(samples=3, c_base=DEFAULT_C_BASE)
    assert got["status"] == "fail"
    assert [r for r, row in got["regions"].items() if row["min_eig"] <= 0] == [REGION_IDS[2]]
    assert got["regions"][REGION_IDS[2]]["min_eig"] == 0.0


def test_calibration_matches_per_point_scan():
    prof = BumpProfile()
    pts = [q for region in REGION_IDS for q in points(region, 3)]
    oracle = [_tuple_jets(q, prof) for q in pts]
    want = next(
        2.0 ** k
        for k in range(-80, 200)
        if all(_metric_per_point(q, tj, 2.0 ** k)[1] > 1e-9 for q, tj in zip(pts, oracle))
    )
    assert calibrate_c_base(_calibration_jets(7, samples=3), 1e-9) == want


def _calibration_jets(seed, samples=60):
    pts = [q for region in REGION_IDS for q in points(region, samples, seed)]
    return kahler._jets(np.array([q.r for q in pts]).reshape(-1, 3), BumpProfile())[1]


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11, 99])
def test_watch_list_scan_matches_linear_scan(seed):
    jets = _calibration_jets(seed)
    want = least_power_of_two_scan(jets, 1e-9)
    assert calibrate_c_base(jets, 1e-9) == want
    assert auto_c_base(seed=seed) == want


@pytest.mark.parametrize("margin, found", [(1e-6, True), (1e-4, False), (1.0, False)])
def test_watch_list_scan_at_larger_margins(margin, found):
    # At 1e-4 rows that clear the small powers fail again once c U dominates,
    # so a power passing the watched rows must still be tried on every row;
    # at 1.0 no row can clear, as the normalized diagonal is 1.
    jets = _calibration_jets(7, samples=10)
    want = least_power_of_two_scan(jets, margin)
    assert (want is not None) == found
    assert calibrate_c_base(jets, margin) == want


def test_calibration_without_points_certifies_no_power():
    # with no rows every power would pass vacuously; none is evidence for one
    jets = _calibration_jets(7, samples=0)
    assert len(jets[0]) == 0
    assert calibrate_c_base(jets, 1e-9) is None


def test_calibration_takes_few_full_batches(monkeypatch):
    rows = []
    finisher = kahler._metric_from_jets

    def counted(jets, c):
        rows.append(len(jets[0]))
        return finisher(jets, c)

    monkeypatch.setattr(kahler, "_metric_from_jets", counted)
    assert auto_c_base() == DEFAULT_C_BASE
    full = len(REGION_IDS) * kahler.CALIBRATION_SAMPLES
    assert rows.count(full) <= 3
    assert max(rows) == full


@pytest.mark.parametrize("T, l, p, seed", [
    *((DEFAULT_T, DEFAULT_L, DEFAULT_P, seed) for seed in range(1, 6)),
    (DEFAULT_T, 24, DEFAULT_P, DEFAULT_SEED),
    (0.2, 60, 20, DEFAULT_SEED),
    (0.5, DEFAULT_L, DEFAULT_P, DEFAULT_SEED),  # no power of two certifies
])
def test_calibration_matches_full_batch_scan(T, l, p, seed):
    r = np.concatenate(
        [region_samples(region, kahler.CALIBRATION_SAMPLES, seed, T, l, p) for region in REGION_IDS]
    )
    jets = kahler._jets(r, BumpProfile(l, p, T))[1]
    want = least_power_of_two_scan(jets, kahler.CALIBRATION_MARGIN)
    assert (want is None) == (T == 0.5)
    assert calibrate_c_base(jets, kahler.CALIBRATION_MARGIN) == want
    assert auto_c_base(T, l, p, seed) == want


def _counting_finisher(monkeypatch):
    """Patch `_metric_from_jets` to record the row count of each call; returns the list."""
    rows = []
    finisher = kahler._metric_from_jets

    def counted(jets, c):
        rows.append(len(jets[0]))
        return finisher(jets, c)

    monkeypatch.setattr(kahler, "_metric_from_jets", counted)
    return rows


def test_calibration_tries_powers_in_few_batches(monkeypatch):
    rows = _counting_finisher(monkeypatch)
    assert auto_c_base() == DEFAULT_C_BASE
    assert len(rows) <= 40
    assert max(rows) == len(REGION_IDS) * kahler.CALIBRATION_SAMPLES


def test_calibration_when_every_row_fails_the_first_power(monkeypatch):
    # every row is watched after the first power, so each window holds one power
    jets = _calibration_jets(7, samples=10)
    fails = ~(kahler._metric_from_jets(jets, 2.0 ** -80)[1] > 1e-9)
    jets = tuple(a[fails] for a in jets)
    assert len(jets[0]) > 1
    want = least_power_of_two_scan(jets, 1e-9)
    assert want is not None
    rows = _counting_finisher(monkeypatch)
    assert calibrate_c_base(jets, 1e-9) == want
    assert max(rows) == len(jets[0])


@pytest.mark.parametrize("samples", [0, 20, 60, 300])
def test_auto_certificate_shares_the_calibration_draw(samples):
    for seed in (7, 3):
        want = metric_certificate(samples=samples, seed=seed, c_base=auto_c_base(seed=seed))
        assert metric_certificate(samples=samples, seed=seed, c_base="auto") == want


def test_auto_certificate_without_a_power_of_two():
    # at T = 0.5 no power of two certifies the calibration points
    assert auto_c_base(T=0.5) is None
    cert = metric_certificate(T=0.5, samples=2, c_base="auto")
    assert cert == metric_certificate(T=0.5, samples=2, c_base=None)
    assert cert["status"] == "indeterminate" and cert["c_base"] is None


def _derivative_check_per_point(q, prof, h_grad=1e-6, h_hess=1e-4):
    """`derivative_check` on the tuple jet, one evaluation per stencil point."""
    key = point_key(q)

    def f_at(*steps):
        d = [0.0, 0.0, 0.0]
        for i, s in steps:
            d[i] += s
        qq = FiberPoint(*(r * math.exp(s) for r, s in zip(q.r, d)), q.T, q.l, q.p)
        return _tuple_potential(qq, prof, key).v

    f = _tuple_potential(q, prof, key)
    g_log = np.multiply(f.g, q.r)
    h_log = _square(f.h) * np.outer(q.r, q.r) + np.diag(g_log)
    fd_g = np.array([(f_at((i, h_grad)) - f_at((i, -h_grad))) / (2 * h_grad) for i in range(3)])
    fd_h = np.zeros((3, 3))
    for i in range(3):
        for j in range(i, 3):
            fd_h[i][j] = fd_h[j][i] = sum(
                si * sj * f_at((i, si * h_hess), (j, sj * h_hess))
                for si in (1, -1) for sj in (1, -1)
            ) / (4 * h_hess ** 2)
    rel_g = float(np.linalg.norm(g_log - fd_g) / max(np.linalg.norm(g_log), 1e-300))
    rel_h = float(np.linalg.norm(h_log - fd_h) / max(np.linalg.norm(h_log), 1e-300))
    return rel_g, rel_h


def test_derivative_check_matches_per_point_stencil():
    # the samples of acceptance criterion 6: the one-call stencil changes no bit
    prof = BumpProfile()
    for region in REGION_IDS:
        for q in points(region, 2, seed=17):
            assert derivative_check(q) == _derivative_check_per_point(q, prof)


def test_lane_logs_are_libm():
    # numpy's vectorized log and log1p differ from libm in the last bit on
    # some inputs, which would change report bytes
    rng = np.random.default_rng(3)
    xs = np.concatenate([rng.uniform(1e-9, 2.0, 20000), np.exp(rng.uniform(-60.0, 60.0, 20000))])
    x = D2.var(xs, 0)
    assert _ad.log(x).v.tolist() == [math.log(v) for v in xs.tolist()]
    assert _ad.log1p(x).v.tolist() == [math.log1p(v) for v in xs.tolist()]


def _same_jet(lane, i, want):
    """Lane i of a lane jet equals a tuple jet (or a constant) byte for byte."""
    if not isinstance(want, TupleD2):
        want = TupleD2(want)  # a clamped profile value: no derivatives
        assert not lane.g[:, i].any() and not lane.h[:, i].any()
        return np.float64(want.v).tobytes() == lane.v[i].tobytes()
    return (
        np.float64(want.v).tobytes() == lane.v[i].tobytes()
        and np.array(want.g).tobytes() == lane.g[:, i].tobytes()
        and np.array(want.h).tobytes() == lane.h[:, i].tobytes()
    )


FORMULA_KEYS = [key for orbit in ORBITS for key in orbit] + ["VII"]
_PROF = BumpProfile()
# log_T offsets at the profiles' branch edges: the a4 sliver and ramp, the
# a6 band edges, and zero (equal norms, w = 0)
_EDGES = (0.0, 0.5, -0.5, _PROF.w_ramp, -_PROF.w_ramp, _PROF.t0, _PROF.t1, -_PROF.t0, -_PROF.t1)
log_t = st.floats(-4.0, 44.0)
fiber_logs = st.one_of(
    st.tuples(log_t, log_t).map(lambda ab: (ab[0], ab[1], DEFAULT_L - ab[0] - ab[1])),
    # two logs a branch edge apart, the third closing the fiber, in any order
    st.tuples(st.floats(0.0, 20.0), st.sampled_from(_EDGES), st.permutations(range(3))).map(
        lambda t: tuple(
            (t[0], t[0] + t[1], DEFAULT_L - 2 * t[0] - t[1])[i] for i in t[2]
        )
    ),
    # near the deep centre, where the radial arguments are <= 0 (clamped)
    st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)).map(
        lambda ab: (DEFAULT_L / 3 + ab[0], DEFAULT_L / 3 + ab[1], DEFAULT_L / 3 - ab[0] - ab[1])
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FORMULA_KEYS), st.lists(fiber_logs, min_size=1, max_size=6))
def test_lane_jets_match_tuple_oracle(key, logs):
    prof = BumpProfile()
    pts = [from_logs(*abc) for abc in logs]
    lane = kahler._potential_ad([q.r for q in pts], prof, key)
    for i, q in enumerate(pts):
        assert _same_jet(lane, i, _tuple_potential(q, prof, key)), (key, q.logs())


def test_profile_branch_edges_match_tuple_oracle():
    prof = BumpProfile()
    ws = [0.0, -0.0, 0.3, -0.3, 0.5, -0.5, 1.2, -1.2, prof.w_ramp, -prof.w_ramp, 9.0, -9.0]
    thetas = [prof.t1, prof.t0, prof.t1 + 0.2, prof.t0 - 0.2, (prof.t0 + prof.t1) / 2]
    ds = [-1.0, -0.0, 0.0, DEFAULT_T ** prof.d_outer, DEFAULT_T ** (prof.l / 4), 1e-12, 0.5]
    ts = [0.0, -0.0, 1.0, -0.5, 0.25, 0.75, 1.5]
    cases = (
        (prof.a4, lambda x: _t_a4(prof, x), ws),
        (prof.a6, lambda x: _t_a6(prof, x), thetas),
        (radial(prof, 0), lambda x: _t_a3(prof, x), ds),
        (radial(prof, 1), lambda x: _t_a5(prof, x), ds),
        (kahler._smoothstep, _t_smoothstep, ts),
    )
    for lane_fn, tuple_fn, args in cases:
        for index in range(3):
            lane = lane_fn(D2.var(args, index))
            for i, x in enumerate(args):
                assert _same_jet(lane, i, tuple_fn(TupleD2.var(x, index))), (lane_fn, x)


_POOL = [q for region in REGION_IDS for q in points(region, 2, seed=23)] + [
    from_logs(a, a + e) for a in (3.0, 4.6) for e in _EDGES
]


@functools.cache
def _pool_jets():
    return kahler._jets(np.array([q.r for q in _POOL]), BumpProfile())[1]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=25), st.randoms())
def test_jets_are_batch_independent(picks, rnd):
    full = _pool_jets()
    rnd.shuffle(picks)
    codes, jets = kahler._jets(np.array([_POOL[i].r for i in picks]), BumpProfile())
    assert [kahler._KEYS[c] for c in codes] == [oracle_key(_POOL[i]) for i in picks]
    for row, i in enumerate(picks):
        for got, want in zip(jets, full):
            assert got[row].tobytes() == want[i].tobytes()
