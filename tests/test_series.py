import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorlab import series
from mirrorlab.lattice import LatticeVector, coset_reps, min_norm_in_coset
from mirrorlab.series import (
    LaurentSection,
    NumericValue,
    ScaledSeries,
    TauSeries,
    decomposition_padding,
    section_mul,
    section_mul_decompose,
    shell_tail,
    shifted_theta_value,
    theta_products,
    theta_section,
)
from series_view import tau_series


def ts(pairs, cutoff):
    return TauSeries.from_terms(pairs, cutoff)


def test_add_examples():
    # a sum is from_terms on both term lists, at the smaller cutoff
    assert ts(ts([(0, 1), (2, 6)], 5).terms + ts([(0, -1)], 5).terms, 5) == ts([(2, 6)], 5)
    x = ts([(1, 3)], 4)
    assert ts(x.terms + TauSeries((), F(4)).terms, 4) == x
    with pytest.raises(TypeError):  # not tuple concatenation
        x + x
    a = ts([(0, 1), (1, 1)], 2)
    b = ts([(3, 1)], 3)
    assert ts(a.terms + b.terms, min(a.cutoff, b.cutoff)) == ts([(0, 1), (1, 1)], 2)


def test_mul_examples():
    one_plus = ts([(0, 1), (1, 1)], 10)
    one_minus = ts([(0, 1), (1, -1)], 10)
    assert one_plus * one_minus == ts([(0, 1), (2, -1)], 10)
    half = ts([(F(1, 2), 1)], 3)
    assert half * half == ts([(1, 1)], 3)
    g = ts([(0, 1), (1, 6)], 1)
    assert g * g == ts([(0, 1), (1, 12)], 1)


series_strategy = st.lists(
    st.tuples(
        st.fractions(min_value=0, max_value=4, max_denominator=6),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    ),
    max_size=6,
).map(lambda pairs: TauSeries.from_terms(pairs, 4))


@given(series_strategy, series_strategy, series_strategy)
@settings(max_examples=40)
def test_ring_axioms_up_to_cutoff(a, b, c):
    def add(x, y):
        return ts(x.terms + y.terms, min(x.cutoff, y.cutoff))

    assert add(a, b) == add(b, a)
    assert a * b == b * a
    assert add(add(a, b), c) == add(a, add(b, c))
    lhs = a * add(b, c)
    rhs = add(a * b, a * c)
    common = min(lhs.cutoff, rhs.cutoff)
    assert ts(lhs.terms, common) == ts(rhs.terms, common)


def test_json_roundtrip_and_shape():
    s = ts([(F(1, 2), 2), (F(3, 2), -5)], F(7, 2))
    obj = s.to_json()
    assert obj == {"cutoff": "7/2", "terms": [["1/2", "2"], ["3/2", "-5"]]}
    back = json.loads(json.dumps(obj))
    assert ts([(F(e), F(c)) for e, c in back["terms"]], F(back["cutoff"])) == s


@settings(max_examples=100)
@given(
    st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**20, 10**20)), max_size=6),
    st.integers(1, 10**4),
    st.fractions(min_value=0),
)
def test_scaled_json_matches_its_fraction_series(terms, den, cutoff):
    # the exponents x/den in lowest terms, written from the integers
    scaled = ScaledSeries(tuple(sorted(dict(terms).items())), den, cutoff)
    assert scaled.to_json() == scaled.series().to_json()


def test_theta_section_level_one():
    s = theta_section(LatticeVector(0, 0), 1, F(1))
    assert len(s.coeffs) == 7
    origin = tau_series(s)[(0, 0)]
    assert origin.terms[0] == (0, 1)
    # every term of a basis section sits on the key lattice -(l n + e)
    s3 = theta_section(LatticeVector(1, 2), 3, F(6))
    for key in s3.coeffs:
        assert (-key[0] - 1) % 3 == 0
        assert (-key[1] - 2) % 3 == 0


def test_theta_section_min_exponent_level_two():
    s = theta_section(LatticeVector(1, 0), 2, F(4))
    assert min(e for t in tau_series(s).values() for e, _ in t.terms) == F(1, 2)


def test_theta_section_completeness_under_enlargement():
    small = tau_series(theta_section(LatticeVector(1, 1), 2, F(6)))
    big = tau_series(theta_section(LatticeVector(1, 1), 2, F(12)))
    for key in small:
        assert ts(big[key].terms, 6) == small[key]
    for key, t in big.items():
        if min(e for e, _ in t.terms) <= 6:
            assert key in small


def test_product_constants_golden():
    e0 = LatticeVector(0, 0)
    cs = tau_series(theta_products(1, 1, F(10))[e0, e0])
    assert cs[LatticeVector(0, 0)] == ts([(0, 1), (2, 6), (6, 6), (8, 6)], 10)
    assert ts(cs[LatticeVector(1, 0)].terms, 2) == ts(
        [(F(1, 2), 2), (F(3, 2), 2)], 2
    )


def recompose(constants, level, cutoff):
    """Rebuild sum_e C_e * (basis section e) up to the stated cutoff, per x-exponent."""
    cutoff = F(cutoff)
    acc = {}
    for rep, c in constants.items():
        base, c = tau_series(theta_section(rep, level, cutoff)), ts(c.terms, min(cutoff, c.cutoff))
        for key, t in base.items():
            prod = c * t
            if not prod.terms:
                continue
            if key in acc:
                prod = ts(acc[key].terms + prod.terms, min(acc[key].cutoff, prod.cutoff))
            acc[key] = prod
    return acc


def test_decompose_recompose_roundtrip():
    e0 = LatticeVector(0, 0)
    s1 = theta_section(e0, 1, F(12))
    s2 = theta_section(LatticeVector(1, 0), 2, F(12))
    prod = section_mul(s1, s2)
    constants = tau_series(section_mul_decompose(s1, s2, F(12)))
    target = min(c.cutoff for c in constants.values())
    rebuilt = recompose(constants, 3, target)
    prod_series = tau_series(prod)
    for key, t in rebuilt.items():
        p = prod_series[key]
        assert ts(p.terms, min(t.cutoff, p.cutoff)) == ts(t.terms, min(prod.cutoff, t.cutoff))
    for key, t in prod_series.items():
        if ts(t.terms, target).terms:
            assert key in rebuilt


def test_decompose_commutative():
    a = theta_section(LatticeVector(0, 0), 1, F(10))
    b = theta_section(LatticeVector(1, 1), 2, F(10))
    ab = section_mul_decompose(a, b, F(10))
    ba = section_mul_decompose(b, a, F(10))
    assert ab == ba


def _fraction_product(s1, s2):
    """The product section key by key, multiplied as Fraction series."""
    f2 = tau_series(s2).items()
    prod = {}
    for k1, t1 in tau_series(s1).items():
        for k2, t2 in f2:
            t = t1 * t2
            key = (k1[0] + k2[0], k1[1] + k2[1])
            if t.terms:
                if key in prod:
                    t = ts(prod[key].terms + t.terms, min(prod[key].cutoff, t.cutoff))
                prod[key] = t
    return prod


def _decompose_fraction(prod, level, prod_cutoff, cutoff=None):
    """section_mul_decompose on the Fraction product: shift and compare every key."""
    best = {}
    for key, t in prod.items():
        rep = LatticeVector((-key[0]) % level, (-key[1]) % level)
        base_exp = F(key[0] ** 2 + key[0] * key[1] + key[1] ** 2, level)
        cand = ts([(e - base_exp, c) for e, c in t.terms], min(prod_cutoff, t.cutoff) - base_exp)
        if rep not in best:
            best[rep] = cand
        else:
            common = min(best[rep].cutoff, cand.cutoff)
            assert ts(best[rep].terms, common) == ts(cand.terms, common)
            if cand.cutoff > best[rep].cutoff:
                best[rep] = cand
    for rep in coset_reps(level):
        if rep not in best:
            defect = F(min_norm_in_coset((-rep.n1, -rep.n2), level), level)
            best[rep] = TauSeries((), prod_cutoff - defect)
    if cutoff is not None:
        best = {rep: ts(t.terms, min(cutoff, t.cutoff)) for rep, t in best.items()}
    return {rep: best[rep] for rep in coset_reps(level)}  # in section_mul_decompose's order


@pytest.mark.parametrize("gap", ((1, 1), (1, 2), (2, 2), (2, 4), (3, 3)))
def test_decompose_matches_fraction_oracle(gap):
    # lcm(l1, l2) < l1 * l2 on the last three gaps; the factors' cutoffs differ
    l1, l2 = gap
    cutoff = F(11, 2)
    pad = decomposition_padding(l1 + l2)
    for e1 in coset_reps(l1):
        for e2 in coset_reps(l2):
            s1 = theta_section(e1, l1, cutoff + pad)
            s2 = theta_section(e2, l2, cutoff + pad + F(1, 3))
            # section_mul equals the Fraction product key by key
            prod, want_prod = section_mul(s1, s2), _fraction_product(s1, s2)
            assert (prod.level, prod.den, prod.cutoff) == (l1 + l2, math.lcm(l1, l2), s1.cutoff)
            assert sorted(prod.coeffs) == sorted(want_prod)
            prod_series = tau_series(prod)
            for key, t in want_prod.items():
                assert prod_series[key] == t
            # the factors' smaller cutoff truncates nothing: the reference's None
            for cut, ref_cut in ((min(s1.cutoff, s2.cutoff), None), (cutoff, cutoff)):
                got = tau_series(section_mul_decompose(s1, s2, cut))
                want = _decompose_fraction(want_prod, l1 + l2, s1.cutoff, ref_cut)
                assert list(got) == list(want)
                for rep, t in want.items():
                    assert got[rep].terms == t.terms and got[rep].cutoff == t.cutoff


def test_decompose_rejects_exponents_off_the_denominator():
    s1 = theta_section(LatticeVector(0, 0), 1, F(4))
    s2 = theta_section(LatticeVector(0, 0), 1, F(4))
    bad = LaurentSection(1, F(4), 7, {(0, 0): {1: 1}})  # tau^(1/7), not in (1/2)Z
    assert section_mul_decompose(s1, s2, F(4))
    with pytest.raises(AssertionError, match="not in"):
        section_mul_decompose(s1, bad, F(4))


def test_decompose_rejects_a_product_that_is_not_a_basis_combination():
    # theta_00 * 1 keeps tau^N(k) at every key k, but a level-2 basis section
    # carries tau^(N(k)/2): keys (0, 0) and (2, 0) of one class disagree.
    s1 = theta_section(LatticeVector(0, 0), 1, F(4))
    one = LaurentSection(1, F(4), 1, {(0, 0): {0: 1}})
    with pytest.raises(AssertionError, match="inconsistent"):
        section_mul_decompose(s1, one, F(4))


def test_decompose_detects_one_changed_coefficient(monkeypatch):
    # +1 on a term of a key that is neither its class's smallest-base key nor
    # the first key seen of the class
    s1 = theta_section(LatticeVector(0, 0), 1, F(8))
    s2 = theta_section(LatticeVector(1, 0), 2, F(8))
    assert section_mul_decompose(s1, s2, F(8))
    prod = section_mul(s1, s2)
    classes = {}
    for key in prod.coeffs:
        classes.setdefault(((-key[0]) % 3, (-key[1]) % 3), []).append(key)
    keys = max(classes.values(), key=len)
    norm = lambda k: k[0] ** 2 + k[0] * k[1] + k[1] ** 2
    smallest = min(keys, key=norm)
    key = next(k for k in keys[1:] if norm(k) > norm(smallest))
    terms = dict(prod.coeffs[key])
    terms[max(terms)] += 1
    mutated = prod._replace(coeffs={**prod.coeffs, key: terms})
    monkeypatch.setattr(series, "section_mul", lambda a, b: mutated)
    with pytest.raises(AssertionError, match="inconsistent structure constant"):
        section_mul_decompose(s1, s2, F(8))


def test_decomposition_padding_bounds():
    for level in (2, 3, 4, 5):
        pad = decomposition_padding(level)
        assert 0 <= pad <= 3 * level  # N_min <= 3 l^2 over any coset


def test_order_zero_terms_follow_compatibility():
    # an order-zero coefficient exists only when the residue conditions
    # admit a translate annihilating the weight argument
    e0 = LatticeVector(0, 0)
    products = tau_series(theta_products(1, 2, F(6)))
    cs = products[e0, e0]
    lead = {e: c.coefficient(0) for e, c in cs.items()}
    assert lead[LatticeVector(0, 0)] == 1
    assert sum(1 for v in lead.values() if v != 0) == 1
    cs_odd = products[e0, LatticeVector(0, 1)]
    assert all(c.coefficient(0) == 0 for c in cs_odd.values())


def test_shifted_theta_value_at_the_centre():
    val, tail = shifted_theta_value(1, (0.0, 0.0), 0.1, 8.0)
    # representation counts 1, 6, 6, 6, 12 at norms 0, 1, 3, 4, 7
    expected = 1 + 6e-1 + 6e-3 + 6e-4 + 12e-7
    assert abs(val - expected) < 1e-15
    assert 0 < tail < 1e-5  # conservative but far below the kept terms
    assert abs(val - expected) < tail
    with pytest.raises(ValueError):
        shifted_theta_value(1, (0.0, 0.0), 1.5, 8.0)


exact = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
radius = st.fractions(min_value=0, max_value=10, max_denominator=1000)
unit = st.fractions(min_value=-1, max_value=1, max_denominator=1000)


@given(exact, radius, unit, exact, radius, unit)
@settings(max_examples=300)
def test_product_tail_bounds_the_product_error(a, ta, u, b, tb, v):
    # exact oracle: any A within ta of a and B within tb of b
    big_a, big_b = a + u * ta, b + v * tb
    prod = NumericValue(a, ta).times(NumericValue(b, tb))
    assert prod.value == a * b
    assert abs(big_a * big_b - a * b) <= prod.tail_bound


def test_exp_of_integer_series():
    g = ts([(2, 6), (3, -12)], 5)
    c = g.exp()
    assert c.coefficient(0) == 1
    assert c.coefficient(2) == 6
    assert c.coefficient(3) == -12
    assert c.coefficient(4) == 18  # 6^2/2
    with pytest.raises(ValueError):
        ts([(F(1, 2), 1)], 3).exp()


def test_evaluate_sums_left_to_right():
    # (1e16 + 1) - 1e16 rounds to 0 left to right; sum() of floats, which
    # compensates from Python 3.12 on, would give 1 and move leibniz's bytes
    assert ts([(0, 10**16), (1, 1), (2, -(10**16))], 3).evaluate(1.0) == 0.0


def test_invalid_rep_rejected():
    with pytest.raises(ValueError):
        theta_section(LatticeVector(2, 0), 2, F(4))
    with pytest.raises(ValueError):
        theta_section(LatticeVector(0, 0), 0, F(4))


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=2))
@settings(max_examples=10, deadline=None)
def test_decompose_validity_covers_padding(l1, l2):
    # theta_products promises completeness to the requested cutoff
    cutoff = F(6)
    products = theta_products(l1, l2, cutoff)
    for e1 in coset_reps(l1):
        for e2 in coset_reps(l2):
            cs = products[e1, e2]
            assert all(c.cutoff >= cutoff for c in cs.values())


def test_norm_automorphisms_are_the_group_of_n():
    # the literal is the group generated by the rotation (n1, n2) -> (-n2, n1 + n2)
    # and the swap, and every element preserves N
    def compose(p, q):  # p after q
        a, b, c, d = p
        e, f, g, h = q
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    group, frontier = {(1, 0, 0, 1)}, [(1, 0, 0, 1)]
    while frontier:
        m = frontier.pop()
        for gen in ((0, -1, 1, 1), (0, 1, 1, 0)):
            if (img := compose(gen, m)) not in group:
                group.add(img)
                frontier.append(img)
    autos = series._NORM_AUTOMORPHISMS
    assert len(autos) == 12 and set(autos) == group
    for a, b, c, d in autos:
        for n in coset_reps(3):
            image = LatticeVector(a * n.n1 + b * n.n2, c * n.n1 + d * n.n2)
            assert image.norm == n.norm


def _unreduced_products(l1, l2, cutoff):
    """theta_products without the symmetries: every basis pair decomposed."""
    pad = decomposition_padding(l1 + l2)
    f1, f2 = ({e: theta_section(e, l, cutoff + pad) for e in coset_reps(l)} for l in (l1, l2))
    return {
        (e1, e2): section_mul_decompose(s1, s2, cutoff)
        for e1, s1 in f1.items()
        for e2, s2 in f2.items()
    }


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=0, max_value=8, max_denominator=3),
)
@settings(max_examples=30, deadline=None)
def test_theta_products_equal_the_unreduced_table(l1, l2, cutoff):
    # the orbit relabeling reproduces every decomposition, cutoffs included
    got, want = theta_products(l1, l2, cutoff), _unreduced_products(l1, l2, cutoff)
    assert got == want and list(got) == list(want)
    assert all(list(row) == coset_reps(l1 + l2) for row in got.values())


def _shell_sum(tau, a, e_min, r0):
    """sum_{r >= r0} 8(r+2) tau^max(e_min, a r^2), term by term.

    Stops at the row past which every exponent exceeds 800/|log tau|, so
    every later term underflows to zero.
    """
    last = math.isqrt(math.ceil((e_min + 800.0 / -math.log(tau)) / a)) + 1
    return sum(8.0 * (r + 2) * tau ** max(e_min, a * r * r) for r in range(r0, last + 1))


@given(
    tau=st.floats(min_value=0.01, max_value=0.99),
    level=st.integers(min_value=1, max_value=6),
    cutoff=st.floats(min_value=0.0, max_value=40.0),
    r0=st.integers(min_value=0, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_shell_tail_bounds_the_shell_sum(tau, level, cutoff, r0):
    callers = (
        # series.shifted_theta_value at this level
        level / 2.0,
        # the structure-constant tail of gw.leibniz_check at level + 1
        1.0 / (2.0 * (level + 1) * level),
    )
    for a in callers:
        assert shell_tail(tau, a, cutoff, r0) >= _shell_sum(tau, a, cutoff, r0)


def test_shell_tail_near_tau_one():
    tau = 0.999999999
    for level in (2, 6):
        # the structure-constant tail of the level-l Leibniz check
        a = 1.0 / (2.0 * level * (level - 1))
        c = -a * math.log(tau)
        bound = shell_tail(tau, a, 0.0, 0)
        # sum_r 8(r+2) tau^(a r^2) exceeds the integral of 8x e^(-c x^2),
        # which is 4/c; summing only r < 200000 reaches about half of that
        # at level 6.
        assert 4.0 / c <= bound <= 4.01 / c
    assert math.isfinite(shifted_theta_value(2, (0.0, 0.0), tau, 15.0).tail_bound)


@given(
    st.integers(1, 6),
    st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    st.floats(0.01, 0.9),
    st.floats(-1, 30),
)
def test_shifted_theta_value_sums_each_norm_once(level, w, tau, cutoff):
    from mirrorlab.lattice import enumerate_shifted_ball, norm_form

    # the same float terms, in the same order, with N(n + w) evaluated again
    total = 0.0
    for n1, n2 in enumerate_shifted_ball(w, 1, cutoff / level):
        total += tau ** (level * norm_form(n1 + w[0], n2 + w[1]))
    assert shifted_theta_value(level, w, tau, cutoff).value == total
