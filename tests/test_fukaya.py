import hashlib
import math
from collections import Counter
from fractions import Fraction as F

import pytest

from mirrorlab import cli, series
from mirrorlab.fukaya import functor_check, mu2_closed
from mirrorlab.lattice import LatticeVector, coset_reps, enumerate_shifted_ball, norm_form
from mirrorlab.series import ScaledSeries, TauSeries, theta_products
from _oracles import TriangleDatum, triangle_area_closed, triangle_area_oracle, triangles_up_to
from series_view import tau_series


def test_triangle_area_examples():
    t = TriangleDatum(0, 1, 2, LatticeVector(0, 0), LatticeVector(0, 0))
    assert triangle_area_oracle(t) == 0
    t2 = TriangleDatum(0, 1, 2, LatticeVector(0, 0), LatticeVector(1, 0))
    assert triangle_area_oracle(t2) == 2
    assert triangle_area_closed(t2) == 2


def test_oracle_equals_closed_form_everywhere():
    for triple in ((0, 1, 2), (0, 1, 3), (0, 2, 3)):
        for t in triangles_up_to(*triple, F(10)):
            assert triangle_area_oracle(t) == triangle_area_closed(t)


def test_edges_close_exactly():
    for t in triangles_up_to(0, 2, 3, F(6)):
        edges = t.edges()
        for comp in range(2):
            assert sum(e[0][comp] for e in edges) == 0
            assert sum(e[1][comp] for e in edges) == 0


def _mu2_crt(i, j, k, e1, e2, cutoff):
    """One basis pair's triangle series, one CRT-restricted ball per output rep.

    The congruences a = e1 - e (mod l') and a = -e2 (mod l'') leave one
    residue r mod L = lcm(l', l'') per coordinate, or none, so a = r + L m
    with N(l L m + l r + l'' e) at most cutoff l l' l''.
    """
    lp, lpp, l = j - i, k - j, k - i
    big = math.lcm(lp, lpp)
    bound = F(cutoff) * l * lp * lpp
    out = {}
    for e in coset_reps(l):
        r1 = _crt(e1.n1 - e.n1, lp, -e2.n1, lpp)
        r2 = _crt(e1.n2 - e.n2, lp, -e2.n2, lpp)
        counts = Counter()
        if r1 is not None and r2 is not None:
            residue = (l * r1 + lpp * e.n1, l * r2 + lpp * e.n2)
            for norm in enumerate_shifted_ball(residue, l * big, bound).values():
                counts[norm] += 1
        out[e] = ScaledSeries(tuple(sorted(counts.items())), l * lp * lpp, F(cutoff))
    return out


def _crt(u, m1, v, m2):
    """The x in [0, lcm(m1, m2)) with x = u (mod m1) and x = v (mod m2), if any."""
    return next(
        (x for x in range(math.lcm(m1, m2)) if (x - u) % m1 == 0 and (x - v) % m2 == 0), None
    )


def _pair(table, e1, e2):
    """One basis pair's {output rep: series} out of the all-pairs table."""
    return {e: s for (a, b, e), s in table.items() if (a, b) == (e1, e2)}


def test_mu2_leading_series():
    e0 = LatticeVector(0, 0)
    m = mu2_closed(0, 1, 2, F(10))
    assert [(e, c) for e, c in tau_series(m[e0, e0, e0]).terms][:3] == [
        (F(0), F(1)),
        (F(2), F(6)),
        (F(6), F(6)),
    ]


def test_mu2_matches_theta_route():
    table = tau_series(mu2_closed(0, 1, 3, F(12)))
    products = tau_series(theta_products(1, 2, F(12)))
    for e1 in coset_reps(1):
        for e2 in coset_reps(2):
            theta = products[e1, e2]
            for rep in coset_reps(3):
                assert table[e1, e2, rep] == theta[rep]  # its cutoff is already 12


def test_functor_builds_each_theta_section_once(monkeypatch):
    # (0, 2, 5) has 4 * 9 basis pairs in 7 orbits: one decomposition per
    # orbit, and no factor section built twice
    sections, decompositions = Counter(), []
    build, decompose = series.theta_section, series.section_mul_decompose

    def counted_build(e, level, cutoff):
        sections[e, level] += 1
        return build(e, level, cutoff)

    def counted_decompose(s1, s2, cutoff):
        decompositions.append((s1.level, s2.level))
        return decompose(s1, s2, cutoff)

    monkeypatch.setattr(series, "theta_section", counted_build)
    monkeypatch.setattr(series, "section_mul_decompose", counted_decompose)
    assert functor_check(0, 2, 5, F(8)).all_match
    assert decompositions == [(2, 3)] * 7
    assert set(sections.values()) == {1}


def test_a_wrong_relabeling_fails_the_functor_check(monkeypatch):
    # (n1, n2) -> (n2, -n1) does not preserve N, so it maps the theta table
    # off itself; the triangle route still counts every pair and disagrees
    autos = series._NORM_AUTOMORPHISMS
    monkeypatch.setattr(series, "_NORM_AUTOMORPHISMS", (autos[0], (0, 1, -1, 0), *autos[1:]))
    report = functor_check(0, 2, 5, F(8))
    assert not report.all_match
    first = next(p for p in report.pairs if not p.matches)
    # the text is built only on a mismatch, so nothing else pins it
    assert (first.e1, first.e2) == ((0, 0), (0, 2))
    assert first.first_mismatch == (
        "rep (1,0): theta 1*tau^62/15 (+O(tau^8)) vs triangles 0 (+O(tau^8))"
    )
    out, code = cli.run(["functor", "--i", "0", "--j", "2", "--k", "5", "--cutoff", "8"])
    assert code == 1
    assert hashlib.sha256(out).hexdigest() == (
        "6faf17d317b8c791deabfa5d3ddaa5c8b0af1b923af2569b935e7520992dfd9e"
    )


# Gaps (l', l''); the non-coprime ones have output reps whose coset is empty.
ORACLE_GAPS = ((1, 1), (1, 2), (2, 2), (2, 4), (3, 3))


def _mu2_ball_filter(i, j, k, e1, e2, cutoff):
    """mu2_closed by filtering the whole shifted ball for each output rep."""
    lp, lpp, l = j - i, k - j, k - i
    out = {}
    for e in coset_reps(l):
        shift = (F(lpp * e.n1, l), F(lpp * e.n2, l))
        pairs = []
        ball = enumerate_shifted_ball((lpp * e.n1, lpp * e.n2), l, cutoff * l * lp * lpp)
        for a in map(LatticeVector._make, ball):
            if (a.n1 - e1.n1 + e.n1) % lp or (a.n2 - e1.n2 + e.n2) % lp:
                continue
            if (a.n1 + e2.n1) % lpp or (a.n2 + e2.n2) % lpp:
                continue
            exp = F(l, lp * lpp) * norm_form(a.n1 + shift[0], a.n2 + shift[1])
            pairs.append((exp, F(1)))
        out[e] = TauSeries.from_terms(pairs, cutoff)
    return out


@pytest.mark.parametrize("gap", ORACLE_GAPS)
def test_mu2_matches_ball_filter(gap):
    lp, lpp = gap
    cutoff = F(11, 2)
    table = mu2_closed(-1, lp - 1, lp + lpp - 1, cutoff)
    empty = 0
    for e1 in coset_reps(lp):
        for e2 in coset_reps(lpp):
            got = tau_series(_pair(table, e1, e2))
            want = _mu2_ball_filter(-1, lp - 1, lp + lpp - 1, e1, e2, cutoff)
            assert list(got) == list(want)
            for rep, series in want.items():
                assert got[rep].terms == series.terms and got[rep].cutoff == cutoff
                empty += not series.terms
    # at this cutoff only the empty cosets give zero series
    assert (empty > 0) == (math.gcd(lp, lpp) > 1)


@pytest.mark.parametrize(
    "triple, cutoff",
    [((-1, lp - 1, lp + lpp - 1), F(11, 2)) for lp, lpp in ORACLE_GAPS] + [((0, 4, 8), F(12))],
)
def test_mu2_table_matches_crt_reference(triple, cutoff):
    # the all-pairs table holds exactly the per-pair CRT series, in the
    # order e1, then e2, then the output rep
    lp, lpp = triple[1] - triple[0], triple[2] - triple[1]
    table = mu2_closed(*triple, cutoff)
    want = {
        (e1, e2, e): series
        for e1 in coset_reps(lp)
        for e2 in coset_reps(lpp)
        for e, series in _mu2_crt(*triple, e1, e2, cutoff).items()
    }
    assert list(table) == list(want)
    assert table == want
    assert all(type(key[0]) is LatticeVector for key in table)


def test_mu2_invalid_reps():
    # representatives are no longer an input: the table covers every pair
    with pytest.raises(ValueError):
        mu2_closed(0, 2, 1, F(4))


def test_mu2_zero_exponent_location():
    # an order-zero term appears only where the weight argument can vanish
    for (e1, e2, e), series in tau_series(mu2_closed(0, 2, 3, F(8))).items():
        if e2 == LatticeVector(0, 0) and series.coefficient(0):
            # (l''/l) e + a = 0 requires e = 0 mod l when gcd(l, l'') = 1
            assert (e.n1 * 1) % 3 == 0 and (e.n2 * 1) % 3 == 0


def test_mu2_translation_relabels_outputs():
    # shifting both input representatives by delta permutes outputs by 2*delta
    e0, delta = LatticeVector(0, 0), LatticeVector(1, 1)
    table = mu2_closed(0, 2, 4, F(10))
    base = _pair(table, e0, e0)
    e1 = LatticeVector(delta.n1 % 2, delta.n2 % 2)
    shifted = _pair(table, e1, e1)
    for e, series in base.items():
        target = LatticeVector((e.n1 + 2) % 4, (e.n2 + 2) % 4)
        assert shifted[target] == series
    base_multiset = sorted(s.terms for s in base.values())
    shifted_multiset = sorted(s.terms for s in shifted.values())
    assert base_multiset == shifted_multiset


def test_functor_check_passes_and_serializes():
    rep = functor_check(0, 1, 2, F(12))
    assert rep.all_match
    obj = rep.to_json()
    assert obj["triple"] == [0, 1, 2]
    assert all(p["matches"] for p in obj["pairs"])


def test_functor_check_prefix_stability():
    small = functor_check(0, 1, 3, F(6))
    big = functor_check(0, 1, 3, F(12))
    assert small.all_match and big.all_match
    # matched prefixes never change when the cutoff grows
    e0 = LatticeVector(0, 0)
    lo = tau_series(theta_products(1, 2, F(6))[e0, e0])
    hi = tau_series(theta_products(1, 2, F(12))[e0, e0])
    for rep, series in lo.items():
        assert TauSeries.from_terms(hi[rep].terms, F(6)) == series  # hi's cutoff is 12


def test_functor_cutoff_zero():
    rep = functor_check(0, 1, 2, F(0))
    assert rep.all_match
