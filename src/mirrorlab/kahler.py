"""Piecewise Kähler potential and its sampled metric certification.

The potential on a fiber interpolates between the three two-coordinate toric
potentials g_xy, g_xz, g_yz near a chart vertex, through bump functions of
radial and angular combinations of the coordinate norms.  The interpolation
identities used for gluing hold exactly at the bump endpoints, so the
potential is continuous across a seam where the bumps of both formulas sit
at their endpoints.  That is not automatic: on the axis seam, a log_T norm
equal to MODERATE_LOG, the axis formula equals its deep neighbour only if
the neighbour's radial gate is saturated there, which metric-check requires
of its T, l and p.

Everything here is double-precision numerics; the polar-coordinate metric is
obtained by forward-mode differentiation of the exact regional formulas (no
small-radius approximations); the tests cross-validate it by finite
differences.  Conventions:

* all logarithms of norms are natural; the angular bump arguments are
  measured in log_T units (so derivative budgets scale like 1/l);
* metric entries follow the polar Hessian normalization
  G_ii = d^2F/dr_i^2 + (1/r_i) dF/dr_i,  G_ij = d^2F/dr_i dr_j,
  under which the deep interior block is T^2 diag(8/3, 8/3, 8/3);
* positive definiteness is decided on the diagonally normalized matrix,
  which is scale-invariant and numerically robust for graded matrices;
* the certificate path runs on lanes, one row of three norms per sample:
  `region_samples` draws an n x 3 array, `formula_key` gives each row one
  integer code, and `_jets` evaluates each code's formula once, on that
  code's rows, each shared sub-jet once.  Only + - * / and comparisons are
  numpy lane operations; log, log1p and every ** go element by element
  through libm, as in `_ad`, so each row has the bits it has alone, also
  where the calibration batches it at several powers of two as c_base.

The potential is invariant under the cyclic symmetry sigma: (x, y, z) ->
(y, z, x) of the superpotential v0 = xyz.  On points, sigma moves the norm
of coordinate i to coordinate i + 1 (mod 3), so a point in region I (x
dominant) goes to region III (y dominant); on formula keys it is a step
along one of the six orbits

    g_yz -> g_xz -> g_xy      I -> III -> V      axis_x -> axis_y -> axis_z
    IIA -> IVA -> VIA         IIB -> IVB -> VIB  VIC -> IIC -> IVC

while VII is fixed.  Each orbit's formula, classifier branch, sampler and
seams are written once for its first key (the x-family member) and
rotated; the key sigma^k(base) is the base formula applied to the norms
(r_x, r_y, r_z) read in the order sigma^-k, each norm keeping its own
derivative index.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

import numpy as np

from . import _ad
from ._ad import D2

DEFAULT_T = 0.1
DEFAULT_L = 40
DEFAULT_P = 17
DEFAULT_SEED = 7
# Smallest power of two making every sampled normalized eigenvalue positive
# with margin at the defaults: the c_base of metric-check's --c-base auto.
DEFAULT_C_BASE = 2.0 ** 139
# Per-region sample count and eigenvalue margin of the calibration.
CALIBRATION_SAMPLES = 60
CALIBRATION_MARGIN = 1e-9
# A log_T norm at most this is "moderate"; a fiber point with three moderate
# logs is not near a deep fiber, which needs l > 3 * MODERATE_LOG.
MODERATE_LOG = 2.0

REGION_IDS = (
    "g_xy", "g_xz", "g_yz",
    "I", "IIA", "IIB", "IIC", "III", "IV", "V", "VI", "VII",
    "axis_x", "axis_y", "axis_z",
)

_FORMULA_TO_REGION = {
    "IVA": "IV", "IVB": "IV", "IVC": "IV",
    "VIA": "VI", "VIB": "VI", "VIC": "VI",
}

# The sigma-orbits of the formula keys; entry k of an orbit is sigma^k of
# its first entry.
_ORBITS = (
    ("g_yz", "g_xz", "g_xy"),
    ("I", "III", "V"),
    ("axis_x", "axis_y", "axis_z"),
    ("IIA", "IVA", "VIA"),
    ("IIB", "IVB", "VIB"),
    ("VIC", "IIC", "IVC"),
)
_ROTATION = {key: (orbit, k) for orbit in _ORBITS for k, key in enumerate(orbit)}
# The labels of `formula_key`'s codes: code 3 j + k is sigma^k of orbit j's
# first key, so sigma on codes stays inside each block of three; VII is 18.
_KEYS = tuple(key for orbit in _ORBITS for key in orbit) + ("VII",)
# The REGION_IDS index of each code's region.
_REGION_OF = np.array([REGION_IDS.index(_FORMULA_TO_REGION.get(k, k)) for k in _KEYS])


def __getattr__(name: str):
    """tropical's `monodromy_class` on demand, for the span tracer's name (ROADMAP F(b))."""
    if name != "monodromy_class":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .tropical import monodromy_class  # loading kahler does not compile tropical
    return monodromy_class


def _rotate(t: tuple, k: int) -> tuple:
    """sigma^k of a coordinate triple: entry i moves to position i + k (mod 3)."""
    return tuple(t[(i - k) % 3] for i in range(3))


class FiberPoint(NamedTuple):
    """Norms of the three toric coordinates, with the scale parameters.

    When the point represents a fiber of the superpotential the product of
    the norms is T^l; derivative machinery is free to step off the fiber.
    """

    r_x: float
    r_y: float
    r_z: float
    T: float = DEFAULT_T
    l: int = DEFAULT_L
    p: int = DEFAULT_P

    @property
    def r(self) -> tuple[float, float, float]:
        return (self.r_x, self.r_y, self.r_z)

    def logs(self) -> tuple[float, float, float]:
        """log_T of the three norms."""
        ln_t = math.log(self.T)
        return tuple(math.log(r) / ln_t for r in self.r)

    @property  # for `metric`, which perfbench/spans.py patches
    def profile(self) -> "BumpProfile":
        """The bump profile of the point's own T, l and p."""
        return BumpProfile(self.l, self.p, self.T)


class BumpProfile(NamedTuple):
    """The four interpolation profiles, as rescaled quintic smoothsteps.

    Radial profiles are functions of log_T of the radial coordinate over the
    annulus [l/4 - l/p, l/4]; angular profiles are functions of log_T norm
    ratios.  Quintic steps have vanishing first and second derivatives at
    their endpoints, so all gluing identities hold with exact endpoint
    values and the derivative budgets scale like p/l and (p/l)^2.
    """

    l: int = DEFAULT_L
    p: int = DEFAULT_P
    T: float = DEFAULT_T

    @property
    def d_outer(self) -> float:
        return self.l / 4 - self.l / self.p

    @property
    def t1(self) -> float:  # angular band edges, log_T units
        return self.l / 8 - self.l / self.p

    @property
    def t0(self) -> float:
        return self.l / 8 - 2 * self.l / self.p

    @property
    def w_sliver(self) -> float:
        return 0.5

    @property
    def w_ramp(self) -> float:
        return 0.5 + self.l / (2 * self.p)

    def a3_a5(self, d: D2) -> tuple[D2, D2]:
        """Radial weight a3 in [2/3, 1] and gate a5 in [0, 1], from one smoothstep.

        Both are 1 at the outer edge; at the interior a3 is 2/3, a5 is 0.
        """
        s = _smoothstep(self._radial_s(d))
        return 1.0 - s * (1.0 / 3.0), 1.0 - s

    def _radial_s(self, d: D2) -> D2:
        interior = d.v <= 0.0  # clamped to 1; the log reads 1.0 there instead of d
        log_t_d = _ad.log(_ad.where(interior, 1.0, d)) * (1.0 / math.log(self.T))
        return _ad.where(interior, 1.0, (log_t_d - self.d_outer) * (self.p / self.l))

    def a4(self, w: D2) -> D2:
        """Odd angular weight in [-1/2, 1/2] of a log_T norm ratio.

        Constant 0 on the sliver |w| <= 1/2 (ratio within one T-order) and
        saturated at +-1/2 beyond w_ramp.
        """
        negative = w.v < 0.0
        s = (_ad.where(negative, -w, w) - self.w_sliver) * (1.0 / (self.w_ramp - self.w_sliver))
        a = _smoothstep(s) * 0.5
        return _ad.where(negative, -a, a)

    def a6(self, theta: D2) -> D2:
        """Angular blend in [0, 1]: 0 at the pure sector, 1 at the midband."""
        s = (self.t1 - theta) * (1.0 / (self.t1 - self.t0))
        return _smoothstep(s)


def _smoothstep(t: D2) -> D2:
    """Quintic step: 0 below 0, 1 above 1, C^2 at both ends."""
    step = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    return _ad.where(t.v <= 0.0, 0.0, _ad.where(t.v >= 1.0, 1.0, step))


# ---------------------------------------------------------------------------
# Region classification


def formula_key(r: np.ndarray, prof: BumpProfile) -> np.ndarray:
    """The formula code of each row of norms in the n x 3 r; its label is `_KEYS[code]`.

    The labels split the IV and VI bands into thirds.  A row with two
    moderate logs is g_yz rotated to its far coordinate, one with one is
    axis_x rotated to it; the others compare the phi combinations d with
    T^(l/4) (VII at or below) and classify sigma^-fam of the row, whose x
    family dominates, by the band edges t0, t1.  Raises if a row has three
    moderate logs.
    """
    T, n = prof.T, len(r)
    logs = (_ad._libm(math.log, r.ravel()) / math.log(T)).reshape(n, 3)
    moderate = logs <= MODERATE_LOG
    count = moderate.sum(axis=1)
    if (count == 3).any():
        raise ValueError("point is not near a deep fiber")
    code = np.where(count == 2, np.argmin(moderate, axis=1), 6 + np.argmax(moderate, axis=1))
    deep = np.flatnonzero(count == 0)
    rd = r[deep]

    def lp(x: np.ndarray) -> np.ndarray:  # log1p(x ** 2), both through libm
        return _ad._libm(math.log1p, _ad._libm(pow, x.ravel(), 2)).reshape(x.shape)

    # phi_x = log1p((T r_x)^2) - log1p((T^2 r_y r_z)^2), and its rotations
    phi = lp(T * rd) - lp(T * T * rd[:, [1, 0, 0]] * rd[:, [2, 2, 1]])
    d = phi - 0.5 * (phi[:, [1, 0, 0]] + phi[:, [2, 2, 1]])  # d_I, d_III, d_V
    # A tie u == v < t1 puts all three logs within l/12 of l/3, which is
    # VII, so no tie reaches the u <= v test.
    fam = np.argmax(d, axis=1)  # the first of equal maxima
    a, b, c = np.take_along_axis(logs[deep], (fam[:, None] + np.arange(3)) % 3, axis=1).T
    u, v = b - a, c - a
    t0, t1 = prof.t0, prof.t1
    # the codes of I, IIA, IIB, VIC and VIB, rotated by fam
    base = np.where((u >= t1) & (v >= t1), 3,
                    np.where(u <= v, np.where(u >= t0, 9, 12), np.where(v >= t0, 15, 14)))
    base += (base + fam) % 3 - base % 3
    code[deep] = np.where(d.max(axis=1) <= T ** (prof.l / 4), 18, base)
    return code


# ---------------------------------------------------------------------------
# Potential and metric


def _potential_ad(r, prof: BumpProfile, key: str) -> D2:
    """Jet of the potential by the formula of key, one lane per norm triple in r.

    The fiber scale T is the profile's.
    """
    T = prof.T
    ln_t = math.log(T)
    r = tuple(D2.var(norms, i) for i, norms in enumerate(np.asarray(r, dtype=float).T))

    def lp(k: int, u: D2) -> D2:
        return _ad.log1p(u * u * T ** (2 * k))

    def w(u: D2, v: D2) -> D2:  # log_T(|u| / |v|), an angular profile argument
        return (_ad.log(u) - _ad.log(v)) * (1.0 / ln_t)

    # Each lp jet is taken once; g(u, v) = lp(1, u) + lp(1, v) + lp(2, u v).
    if key == "VII":
        rx, ry, rz = r
        lx, ly, lz = lp(1, rx), lp(1, ry), lp(1, rz)
        return ((lx + ly + lp(2, rx * ry)) + (lx + lz + lp(2, rx * rz))
                + (ly + lz + lp(2, ry * rz))) * (1.0 / 3.0)
    if key not in _ROTATION:
        raise ValueError(f"unknown region formula {key!r}")
    orbit, k = _ROTATION[key]
    # The x-family formula of the orbit, on the norms read in sigma^-k order.
    x, y, z = _rotate(r, -k)
    ly, lz, lyz = lp(1, y), lp(1, z), lp(2, y * z)
    g_yz = ly + lz + lyz
    if orbit[0] == "g_yz":
        return g_yz
    px = lp(1, x) - lyz
    py = ly - lp(2, x * z)
    pz = lz - lp(2, x * y)
    if orbit[0] == "IIB":
        d = px + py - pz * 0.5
        a3, a5 = prof.a3_a5(d)
        return (g_yz - py) + a3 * d - 0.5 * a5 * pz
    d_x = px - (py + pz) * 0.5
    if orbit[0] == "I":
        a3, a5 = prof.a3_a5(d_x)
        return g_yz + a3 * d_x + prof.a4(w(z, y)) * a5 * (py - pz)
    if orbit[0] == "axis_x":
        return g_yz + d_x + prof.a4(w(z, y)) * (py - pz)
    # IIA blends toward the xy band as r_y / r_x grows, VIC toward the zx band.
    if orbit[0] == "IIA":
        a6, near, far = prof.a6(w(y, x)), py, pz
    else:
        a6, near, far = prof.a6(-w(x, z)), pz, py
    d = d_x + 1.5 * a6 * near
    a3, a5 = prof.a3_a5(d)
    return g_yz - a6 * near + a3 * d + 0.5 * a5 * (near - far - a6 * near)


# No command runs `metric` or builds a MetricSample: perfbench/spans.py patches
# `metric` (ROADMAP F(b)).
class MetricSample(NamedTuple):
    point: FiberPoint
    region: str
    matrix: np.ndarray
    min_eigenvalue: float  # of the diagonally normalized matrix


def metric(q: FiberPoint, c_base: float = DEFAULT_C_BASE) -> MetricSample:
    """Polar-coordinate metric sample at q, base term included.

    The base contribution c_base * |xyz|^2 adds the rank-one positive piece
    that removes the flat direction where the fiber potential degenerates to
    a two-coordinate one.
    """
    codes, jets = _jets(np.array([q.r]), q.profile)
    mats, min_eigs = _metric_from_jets(jets, c_base)
    return MetricSample(q, REGION_IDS[_REGION_OF[codes[0]]], mats[0], float(min_eigs[0]))


def _jets(r: np.ndarray, prof: BumpProfile) -> tuple[np.ndarray, tuple]:
    """Formula codes and stacked jets of the potential F and the base term at the norm rows r.

    The jets are (r, F.g, F.h, U.g, U.h) with one row per point, where U is
    |xyz|^2 and h is packed xx, xy, xz, yy, yz, zz.  The metric is linear in
    the base coefficient c (F + c U), so one set of jets serves every c.  F
    is evaluated once per formula code, on the lanes of that code's rows.
    """
    codes = formula_key(r, prof)
    u = D2.var(r[:, 0], 0) * D2.var(r[:, 1], 1) * D2.var(r[:, 2], 2)
    u = u * u
    f_g, f_h = np.empty((len(r), 3)), np.empty((len(r), 6))
    for code in np.flatnonzero(np.bincount(codes)).tolist():  # np.unique would import numpy.ma
        idx = np.flatnonzero(codes == code)
        f = _potential_ad(r[idx], prof, _KEYS[code])
        f_g[idx], f_h[idx] = f.g.T, f.h.T
    return codes, (r, f_g, f_h, u.g.T, u.h.T)


def _metric_from_jets(jets: tuple, c_base: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metric matrices and normalized min-eigenvalues at stacked jets.

    G = Hess(F + c U) + diag(grad(F + c U) / r), c_base one c or an array of
    one c per row, with the base term skipped when every c is zero; a row
    whose diagonal is not positive gets -inf, the rest the least eigenvalue
    of the diagonally normalized matrix.  A row whose matrix or normalized
    matrix is not finite (the float range broke down, as at a huge c) gets
    nan and never reaches eigvalsh.  Each row takes the same float
    operations in the same order as a lone point at its c, so batching
    changes no bits.
    """
    r, f_g, f_h, u_g, u_h = jets
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.asarray(c_base, dtype=float).reshape(-1, 1)
        if c.any():
            f_g = f_g + u_g * c
            f_h = f_h + u_h * c
        n = len(r)
        grad_term = np.zeros((n, 3, 3))
        grad_term[:, range(3), range(3)] = np.divide(f_g, r)
        mats = _ad.hessian_matrix(f_h) + grad_term
        diag = np.diagonal(mats, axis1=1, axis2=2)
        finite = np.isfinite(mats).all(axis=(1, 2))
        ok = finite & ~np.any(diag <= 0, axis=1)
        min_eigs = np.where(finite, -np.inf, np.nan)
        if ok.any():
            d = 1.0 / np.sqrt(diag[ok])
            normalized = mats[ok] * (d[:, :, None] * d[:, None, :])
            sound = np.isfinite(normalized).all(axis=(1, 2))
            eigs = np.full(len(normalized), np.nan)
            eigs[sound] = np.linalg.eigvalsh(normalized[sound])[:, 0]
            min_eigs[ok] = eigs
    return mats, min_eigs


# ---------------------------------------------------------------------------
# Region samplers and the positivity certificate


def sampler_windows(l: int, p: int) -> dict[str, tuple[float, float]]:
    """The (low, high) windows `region_samples` draws from; low >= high is empty.

    "a" is the deep log of the I, II, IV and VI samplers; "IIA" (also IIC),
    "IIB" and "IV" (also VI) are band offsets 0.02 inside `BumpProfile` edges.
    """
    prof = BumpProfile(l, p)  # band edges do not involve T
    t0, t1 = prof.t0, prof.t1
    return {
        "a": (l / 8 - l / (2 * p) - 1 + 0.02, l / 8 - 1 - 0.02),
        "IIA": (t0 + 0.02, t1 - 0.02),
        "IIB": (-t0 + 0.02, t0 - 0.02),
        "IV": (-t1 + 0.02, t1 - 0.02),
    }


# The two windows each sampler draws from, in draw order: a (low, high) pair
# or a `sampler_windows` key.  A region not listed is a rotation of the first
# key of its orbit, and VI of IV.
_SAMPLER_DRAWS = {
    "VII": ((-0.5, 0.5), (-0.5, 0.5)),
    "I": ("a", (-8.0, 8.0)),
    "axis_x": ((-1.0, 1.0), (-3.0, 3.0)),
    "g_yz": ((-1.0, 1.0), (-1.0, 1.0)),
    "IIA": ("a", "IIA"),
    "IIB": ("a", "IIB"),
    "IIC": ("a", "IIA"),
    "IV": ("a", "IV"),
}

_GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's counter step


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function on uint64 lanes, mod 2**64."""
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return z ^ z >> np.uint64(31)


def _uniform_pairs(seed: int, ridx: int, count: int) -> np.ndarray:
    """count x 2 uniforms in [0, 1) from a SplitMix64 counter stream keyed by (seed, ridx).

    The key starts at 0 and absorbs the 64-bit words of seed, least
    significant first, then ridx: key = mix((key + gamma) ^ word).  Row idx
    is mix(key + (2 idx + 1) gamma) and mix(key + (2 idx + 2) gamma), each
    cut to its top 53 bits (Steele, Lea & Flood 2014; a counter-based
    stream as in Salmon et al. 2011).  Every uint64 operand is an np.uint64:
    before NEP 50 (numpy 1.24), np.uint64 with a Python int promotes to
    float64.  Lane arithmetic wraps without a warning.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    if count > 2**32:  # the CLI's --samples domain, refused before anything is allocated
        raise ValueError(f"at most 2**32 samples per region, not {count}")
    words = [seed & 2**64 - 1]
    while seed := seed >> 64:
        words.append(seed & 2**64 - 1)
    key = np.zeros(1, np.uint64)
    for w in words + [ridx]:
        key = _mix((key + _GAMMA) ^ np.uint64(w))
    # no rows for a count <= 0, as for range(count)
    steps = np.arange(1, 2 * max(count, 0) + 1, dtype=np.uint64).reshape(-1, 2)
    return (_mix(key + steps * _GAMMA) >> np.uint64(11)) * 2.0**-53


def region_samples(
    region: str,
    count: int,
    seed: int = DEFAULT_SEED,
    T: float = DEFAULT_T,
    l: int = DEFAULT_L,
    p: int = DEFAULT_P,
) -> np.ndarray:
    """Deterministic seeded samples from the region's sampler windows, as count x 3 norms.

    A sample near a band edge can classify elsewhere (a few IIB and IV
    samples are VII at the defaults; at l = 20 most are).  Sample idx
    takes its two uniform draws from row idx of `_uniform_pairs(seed, r)`,
    r the region's REGION_IDS index, so the output does not depend on
    evaluation order and fewer samples are a prefix of more.  All count
    draws are computed at once, without numpy.random; row idx holds T ** x
    for each of its three logs x.  IV and VI are sigma and
    sigma^2 of one band draw.  Raises for an empty window, a negative seed
    or over 2**32 samples.
    """
    if region not in REGION_IDS:
        raise ValueError(f"unknown region {region!r}")
    orbit, k = _ROTATION.get(region, ((region,), 0))  # IV, VI, VII: no orbit
    family = region if region in _SAMPLER_DRAWS else orbit[0]
    if region in ("IV", "VI"):
        family, k = "IV", 1 + (region == "VI")
    win = sampler_windows(l, p)
    windows = [win[w] if isinstance(w, str) else w for w in _SAMPLER_DRAWS[family]]
    for w, (lo, hi) in zip(_SAMPLER_DRAWS[family], windows):
        if count > 0 and lo >= hi:  # only a sampler_windows window can be empty
            raise ValueError(
                f"region {region}: sampler window {w!r} is empty at l={l}, p={p} "
                f"(low {lo!r} >= high {hi!r})"
            )
    (lo1, hi1), (lo2, hi2) = windows
    u = _uniform_pairs(seed, REGION_IDS.index(region), count)
    s, t = lo1 + (hi1 - lo1) * u[:, 0], lo2 + (hi2 - lo2) * u[:, 1]

    def fiber(a, b):  # the third log closes the fiber
        return a, b, l - a - b

    if family == "VII":
        logs = fiber(l / 3 + s, l / 3 + t)
    elif family in ("I", "axis_x"):
        # sigma^k of a point whose x log is s, with spread t between the
        # other two
        logs = _rotate((s, (l - s - t) / 2, (l - s + t) / 2), k)
    elif family == "g_yz":
        # two moderate logs in x < y < z order; the k-th closes the fiber
        logs = [s, t]
        logs.insert(k, l - s - t)
    elif family in ("IIA", "IIB"):
        logs = fiber(s, s + t)
    elif family == "IIC":
        logs = fiber(s + t, s)
    else:  # IV and VI: (m, n) is (s, s + t) for t >= 0, else (s - t, s)
        m, n = np.where(t >= 0, s, s - t), np.where(t >= 0, s + t, s)
        logs = _rotate((m, n, l - m - n), k)
    logs = np.stack(logs, axis=1)
    return _ad._libm(partial(pow, T), logs.ravel()).reshape(logs.shape)


def metric_certificate(
    T: float = DEFAULT_T,
    l: int = DEFAULT_L,
    p: int = DEFAULT_P,
    samples: int = 500,
    seed: int = DEFAULT_SEED,
    c_base: float | str | None = DEFAULT_C_BASE,
) -> dict:
    """Sampled positive-definiteness certificate, region by region.

    c_base "auto" draws each region at max(samples, CALIBRATION_SAMPLES)
    points; the calibration reads the first CALIBRATION_SAMPLES rows of its
    jets and the certificate the first samples rows.  Raises at an empty
    sampler window whenever it draws, for any c_base.  Indeterminate, with
    nothing certified, for no samples or no c_base; else "fail" if some
    sample fails, "indeterminate" if some region's "in_region" (its samples
    that classify into it) is 0 or some region has "breakdowns" (samples
    whose metric left the float range; "min_eig" covers the others), and
    "pass".  "coverage" says the verdict rests on samples: how many per
    region, from which `sampler_windows`.
    """
    prof = BumpProfile(l, p, T)
    auto = c_base == "auto"
    count = max(samples, CALIBRATION_SAMPLES) if auto else samples
    # each region drawn and differentiated once, one at a time unless the
    # calibration needs them all first
    drawn = (_jets(region_samples(r, count, seed, T, l, p), prof) for r in REGION_IDS)
    if auto:
        drawn = list(drawn)
        # each jet's first CALIBRATION_SAMPLES rows of every region, stacked
        stacked = tuple(
            np.concatenate([a[:CALIBRATION_SAMPLES] for a in parts])
            for parts in zip(*(jets for _, jets in drawn))
        )
        c_base = calibrate_c_base(stacked, CALIBRATION_MARGIN)
    certify = samples > 0 and c_base is not None
    status = "pass" if certify else "indeterminate"
    regions = {}
    for ridx, (region, (codes, jets)) in enumerate(zip(REGION_IDS, drawn)):
        worst = None
        worst_point = None
        broken = 0
        if certify:
            jets = [a[:samples] for a in jets]
            min_eigs = _metric_from_jets(jets, c_base)[1]
            broken = int(np.isnan(min_eigs).sum())
            if broken < samples:
                i = int(np.nanargmin(min_eigs))  # the first of equal minima, past nan
                worst = float(min_eigs[i])
                # the sample point, rebuilt from its norms (the first jet)
                worst_point = list(FiberPoint(*jets[0][i].tolist(), T, l, p).logs())
        regions[region] = {
            "samples": samples,
            "in_region": int(np.count_nonzero(_REGION_OF[codes[:samples]] == ridx)),
            "min_eig": worst,
            "worst_point": worst_point,
        }
        if broken:
            regions[region]["breakdowns"] = broken
        if worst is not None and worst <= 0:
            status = "fail"
    if status == "pass" and not all(
        row["in_region"] and "breakdowns" not in row for row in regions.values()
    ):
        status = "indeterminate"
    return {
        "T": T,
        "l": l,
        "p": p,
        "seed": seed,
        "c_base": c_base,
        "status": status,
        "coverage": {"kind": "sampled", "samples_per_region": samples,
                     "windows": sampler_windows(l, p)},
        "regions": regions,
    }


def calibrate_c_base(jets: tuple, margin: float) -> float | None:
    """Smallest 2^k, -80 <= k < 200, at which every row's min-eigenvalue clears margin.

    `metric_certificate`'s c_base "auto", at its stacked calibration jets.
    Equal to trying every row at every power, with less work: the rows that
    failed the last power are watched, and while one of them still fails
    the power fails with no other row evaluated; the full batch runs only
    once they all pass.  Each watched row is tried at the next m powers in
    one batch, m = max(1, (n - 1) // watched) for n rows, so no batch
    exceeds the full one; the rule is replayed power by power on its pass
    matrix (pass is not monotone in c: no power is skipped).  A row has the
    same bits in any batch and at a c of its own, so this decides exactly
    as the full batches would.  None without rows: no evidence for a power.
    """
    n = len(jets[0])
    if not n:
        return None
    watch, k = np.arange(0), -80  # the rows that failed the last power, and the power
    while k < 200:
        if len(watch):
            m = min(max(1, (n - 1) // len(watch)), 200 - k)
            idx = np.tile(watch, m)  # each watched row at k, then at k + 1, ...
            cs = np.repeat(np.ldexp(1.0, np.arange(k, k + m)), len(watch))
            fails = ~(_metric_from_jets(tuple(a[idx] for a in jets), cs)[1] > margin)
            # still[j]: the watched rows that failed every power from k to k + j
            still = np.logical_and.accumulate(fails.reshape(m, -1), axis=0)
            passed = np.flatnonzero(~still.any(axis=1))
            if not len(passed):
                watch, k = watch[still[-1]], k + m
                continue
            k += int(passed[0])
        watch = np.flatnonzero(~(_metric_from_jets(jets, 2.0 ** k)[1] > margin))
        if not len(watch):
            return 2.0 ** k
        k += 1
    return None
