"""Reference implementations that the tests compare the program against.

No command runs these: the geometric triangle-area oracle, which checks the
closed-form exponents of `fukaya.mu2_closed`; the lattice quadratic weight
and the lattice action on moment coordinates; the box search of the
tropical maximum; and the finite-difference checks of the Kähler
potential's jets, and the plain calibration scan.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from mirrorlab import _ad, kahler
from mirrorlab._ad import D2
from mirrorlab.kahler import BumpProfile, FiberPoint, _potential_ad
from mirrorlab.lattice import (
    LatticeVector,
    MomentPoint,
    Rational,
    Vec2,
    coset_reps,
    enumerate_shifted_ball,
    lambda_map,
    norm_form,
)


class TriangleDatum(NamedTuple):
    """A triangle contributing to the product for slopes i < j < k.

    `e` indexes the output corner (level k - i); `gamma_a` is the lattice
    translate distinguishing triangles with the same corners.
    """

    i: int
    j: int
    k: int
    e: LatticeVector
    gamma_a: LatticeVector

    @property
    def xi0(self) -> Vec2:
        lp = self.j - self.i
        lpp = self.k - self.j
        l = self.k - self.i
        es = self.e.std
        gs = self.gamma_a.std
        return (
            Fraction(lpp, l * lp) * es[0] + Fraction(gs[0], lp),
            Fraction(lpp, l * lp) * es[1] + Fraction(gs[1], lp),
        )

    def edges(self) -> list[tuple[Vec2, Vec2]]:
        """The three edge vectors in R^4 = (base, angle); they sum to zero."""
        lp = self.j - self.i
        lpp = self.k - self.j
        xi0 = self.xi0
        lam = lambda_map(xi0)
        # q -> p1 has base part xi0 and angle part -i * lambda(xi0);
        # q -> p2 is (lp/lpp) * (xi0, -k * lambda(xi0)).
        e1 = (xi0, (-self.i * lam[0], -self.i * lam[1]))
        r = Fraction(lp, lpp)
        qp2 = ((r * xi0[0], r * xi0[1]), (-self.k * r * lam[0], -self.k * r * lam[1]))
        e2 = (
            (qp2[0][0] - e1[0][0], qp2[0][1] - e1[0][1]),
            (qp2[1][0] - e1[1][0], qp2[1][1] - e1[1][1]),
        )
        e3 = ((-qp2[0][0], -qp2[0][1]), (-qp2[1][0], -qp2[1][1]))
        return [e1, e2, e3]


def _omega(a: tuple[Vec2, Vec2], b: tuple[Vec2, Vec2]) -> Fraction:
    """Standard form d(base) wedge d(angle) on R^4 vectors."""
    (ab, aa), (bb, ba) = a, b
    return ab[0] * ba[0] + ab[1] * ba[1] - aa[0] * bb[0] - aa[1] * bb[1]


def triangle_area_oracle(t: TriangleDatum) -> Fraction:
    """|1/2 omega(edge1, edge2)| evaluated directly on the lifted edges."""
    e1, e2, _ = t.edges()
    # q->p2 = e1 + e2.
    qp2 = ((e1[0][0] + e2[0][0], e1[0][1] + e2[0][1]), (e1[1][0] + e2[1][0], e1[1][1] + e2[1][1]))
    return abs(_omega(e1, qp2)) / 2


def triangle_area_closed(t: TriangleDatum) -> Fraction:
    """Closed-form area -(l/(l' l'')) kappa((l''/l) e + gamma_a)."""
    lp = t.j - t.i
    lpp = t.k - t.j
    l = t.k - t.i
    es = t.e.std
    gs = t.gamma_a.std
    arg = (Fraction(lpp, l) * es[0] + gs[0], Fraction(lpp, l) * es[1] + gs[1])
    return -Fraction(l, lp * lpp) * kappa(arg)


def triangles_up_to(
    i: int, j: int, k: int, max_area: Rational
) -> list[TriangleDatum]:
    """All triangles for (i, j, k) with area at most max_area."""
    if not i < j < k:
        raise ValueError("slopes must satisfy i < j < k")
    lp, lpp, l = j - i, k - j, k - i
    bound, out = Fraction(max_area) * l * lp * lpp, []
    for e in coset_reps(l):
        for a in enumerate_shifted_ball((lpp * e.n1, lpp * e.n2), l, bound):
            out.append(TriangleDatum(i, j, k, e, LatticeVector(*a)))
    return out


def kappa(v: Vec2) -> Fraction:
    """Quadratic weight -1/2 <v, lambda(v)> of a standard-coordinate vector.

    With (p, q) = lambda(v), v = (2p + q, p + 2q), so <v, lambda(v)> = 2 N(p, q);
    on a lattice vector n1*g' + n2*g'' this is -(n1^2 + n1 n2 + n2^2).
    """
    return -norm_form(*lambda_map(v))


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


def trop_box(p1: int, p2: int, d: int) -> tuple[int, tuple[LatticeVector, ...]]:
    """d * max over lattice n of <xi, n> - N(n) at xi = (p1/d, p2/d), and the
    sorted n that attain it, by a search over a box: n = 0 gives 0, and
    N(n) >= (3/4)|n|_inf^2, so every maximizer has |n|_inf <= (4/3)|xi|_1.
    """
    reach = -(-4 * (abs(p1) + abs(p2)) // (3 * d)) + 1
    box = range(-reach, reach + 1)
    values = {
        LatticeVector(n1, n2): p1 * n1 + p2 * n2 - d * (n1 * n1 + n1 * n2 + n2 * n2)
        for n1 in box
        for n2 in box
    }
    top = max(values.values())
    return top, tuple(sorted(n for n, v in values.items() if v == top))


def derivative_budget(prof: BumpProfile, samples: int = 200) -> dict:
    """Measured max log-derivatives of the profiles, with budget constants.

    Reports c such that |d alpha / d(log arg)| <= c / l and the second
    derivative is <= c^2 / l^2 at the sampled arguments.
    """
    out = {}
    h = 1e-4

    def norms(s: list[float]) -> D2:  # the radial profiles read the norm T^s
        return D2.const([prof.T ** x for x in s])

    for name, fn, lo, hi in (
        ("a3", lambda s: prof.a3_a5(norms(s))[0], prof.d_outer, prof.l / 4),
        ("a5", lambda s: prof.a3_a5(norms(s))[1], prof.d_outer, prof.l / 4),
        ("a4", lambda s: prof.a4(D2.const(s)), -prof.w_ramp - 1, prof.w_ramp + 1),
        ("a6", lambda s: prof.a6(D2.const(s)), prof.t0 - 1, prof.t1 + 1),
    ):
        s = [lo + (hi - lo) * k / samples for k in range(samples + 1)]
        f0, fp, fm = (fn(x).v.tolist() for x in (s, [x + h for x in s], [x - h for x in s]))
        d1 = d2 = 0.0
        for a, b, c in zip(f0, fp, fm):
            d1 = max(d1, abs(b - c) / (2 * h))
            d2 = max(d2, abs(b - 2 * a + c) / (h * h))
        out[name] = {
            "max_d1": d1,
            "max_d2": d2,
            "c1": d1 * prof.l,
            "c2": math.sqrt(max(d2, 0.0)) * prof.l if d2 > 0 else 0.0,
        }
    return out


def derivative_check(q: FiberPoint) -> tuple[float, float]:
    """Relative deviation of analytic vs central-difference log-derivatives.

    Gradient step follows the stated 1e-6 in log r; the Hessian uses a
    larger step, 1e-4, to stay above second-difference roundoff.
    """
    h_grad, h_hess = 1e-6, 1e-4

    def moved(*steps: tuple[int, float]) -> list[float]:
        """The norms after moving log r_i by s for each (i, s) in steps."""
        d = [0.0, 0.0, 0.0]
        for i, s in steps:
            d[i] += s
        return [r * math.exp(s) for r, s in zip(q.r, d)]

    # One lane call on q's key: the centre, then the gradient steps, then
    # the mixed steps (on the diagonal they take the step 2 h_hess).
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    signs = [(si, sj) for si in (1, -1) for sj in (1, -1)]
    stencil = [moved()]
    stencil += [moved((i, s)) for i in range(3) for s in (h_grad, -h_grad)]
    stencil += [moved((i, si * h_hess), (j, sj * h_hess)) for i, j in pairs for si, sj in signs]
    f = _potential_ad(stencil, q.profile, q.key)
    values = f.v.tolist()
    g_log = np.multiply(f.g[:, 0], q.r)
    h_log = _ad.hessian_matrix(f.h.T)[0] * np.outer(q.r, q.r) + np.diag(g_log)
    fd_g = np.array([(values[1 + 2 * i] - values[2 + 2 * i]) / (2 * h_grad) for i in range(3)])
    fd_h = np.zeros((3, 3))
    for n, (i, j) in enumerate(pairs):
        at = values[7 + 4 * n : 11 + 4 * n]
        fd_h[i][j] = fd_h[j][i] = sum(
            si * sj * v for (si, sj), v in zip(signs, at)
        ) / (4 * h_hess ** 2)
    rel_g = float(np.linalg.norm(g_log - fd_g) / max(np.linalg.norm(g_log), 1e-300))
    rel_h = float(np.linalg.norm(h_log - fd_h) / max(np.linalg.norm(h_log), 1e-300))
    return rel_g, rel_h


def potential_value(q: FiberPoint, key: str) -> float:
    """Potential evaluated with an explicit region formula (for seam tests)."""
    return float(_potential_ad([q.r], q.profile, key).v[0])


def least_power_of_two_scan(jets: tuple, margin: float) -> float | None:
    """The least 2^k, -80 <= k < 200, at which every row's min-eigenvalue clears margin.

    Every row at every power, one full batch per power: the scan that
    `kahler.calibrate_c_base` does with watched rows and windows of
    powers.  None without rows or without such a power.
    """
    if not len(jets[0]):
        return None
    return next(
        (2.0 ** k for k in range(-80, 200)
         if np.all(kahler._metric_from_jets(jets, 2.0 ** k)[1] > margin)),
        None,
    )
