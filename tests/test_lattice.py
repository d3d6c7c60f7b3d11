import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorlab.lattice import (
    LatticeVector,
    MomentPoint,
    coset_reps,
    enumerate_shifted_ball,
    lambda_map,
    min_norm_in_coset,
    norm_form,
)
from _oracles import gamma_act_moment, kappa

small_ints = st.integers(min_value=-6, max_value=6)
lattice_vectors = st.builds(LatticeVector, small_ints, small_ints)
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def test_generator_coordinates():
    assert LatticeVector(1, 0).std == (2, 1)  # g'
    assert LatticeVector(0, 1).std == (1, 2)  # g''


def test_lambda_on_generators_and_linearity():
    assert lambda_map((2, 1)) == (1, 0)
    assert lambda_map((1, 2)) == (0, 1)
    assert lambda_map((0, 0)) == (0, 0)
    assert lambda_map((1, 1)) == (F(1, 3), F(1, 3))


@given(lattice_vectors)
def test_lambda_inverts_basis_map(v):
    assert lambda_map(v.std) == (v.n1, v.n2)


@given(rationals, rationals, rationals, rationals)
def test_lambda_symmetric(a1, a2, b1, b2):
    la = lambda_map((b1, b2))
    lb = lambda_map((a1, a2))
    assert a1 * la[0] + a2 * la[1] == b1 * lb[0] + b2 * lb[1]


def test_kappa_examples():
    assert kappa((2, 1)) == -1
    assert kappa((0, 0)) == 0
    assert kappa((3, 3)) == -3


@given(lattice_vectors)
def test_kappa_is_negative_norm_form(v):
    assert kappa(v.std) == -v.norm
    assert v.norm == norm_form(F(v.n1), F(v.n2))


@given(rationals, rationals)
def test_kappa_matches_the_gram_pairing(a, b):
    # the -1/2 <v, lambda(v)> definition, with lambda inverting the Gram matrix
    la = lambda_map((a, b))
    assert (2 * la[0] + la[1], la[0] + 2 * la[1]) == (a, b)
    assert kappa((a, b)) == -(a * la[0] + b * la[1]) / 2


@given(lattice_vectors, lattice_vectors)
def test_kappa_parallelogram_identity(a, b):
    pairing = (
        F(a.std[0]) * b.n1 + F(a.std[1]) * b.n2
    )  # <a, lambda(b)> in standard/basis pairing
    s = a + b
    assert kappa(s.std) == kappa(a.std) + kappa(b.std) - pairing


def test_coset_reps():
    assert [(e.n1, e.n2) for e in coset_reps(1)] == [(0, 0)]
    assert [(e.n1, e.n2) for e in coset_reps(2)] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    reps = coset_reps(3)
    assert len(reps) == 9
    assert len({(e.n1 % 3, e.n2 % 3) for e in reps}) == 9
    with pytest.raises(ValueError):
        coset_reps(0)


def test_gamma_act_examples():
    p0 = MomentPoint(F(0), F(0), F(0))
    assert gamma_act_moment(LatticeVector(1, 0), p0) == MomentPoint(F(-2), F(-1), F(1))
    assert gamma_act_moment(LatticeVector(0, 0), p0) == p0
    p1 = MomentPoint(F(1), F(0), F(0))
    assert gamma_act_moment(LatticeVector(0, 1), p1) == MomentPoint(F(0), F(-2), F(1))


@given(lattice_vectors, lattice_vectors, rationals, rationals, rationals)
@settings(max_examples=60)
def test_gamma_act_is_group_action(g, h, x1, x2, eta):
    p = MomentPoint(x1, x2, eta)
    lhs = gamma_act_moment(g + h, p)
    rhs = gamma_act_moment(g, gamma_act_moment(h, p))
    assert lhs == rhs
    assert gamma_act_moment(LatticeVector(0, 0), p) == p


def test_norm_ball_counts():
    assert [(n1, n2) for n1, n2 in enumerate_shifted_ball((0, 0), 1, 0)] == [(0, 0)]
    assert type(next(iter(enumerate_shifted_ball((0, 0), 1, 0)))) is tuple  # plain pairs
    assert len(enumerate_shifted_ball((0, 0), 1, 1)) == 7
    assert len(enumerate_shifted_ball((0, 0), 1, 3)) == 13
    norms = sorted(LatticeVector(*v).norm for v in enumerate_shifted_ball((0, 0), 1, 3))
    assert 2 not in norms  # norm two is not represented


@given(
    st.one_of(
        st.integers(min_value=0, max_value=30),
        st.floats(min_value=0, max_value=30),
        st.fractions(min_value=0, max_value=30, max_denominator=60),
    ),
    st.one_of(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 12)),
        st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.just(1)),
    ),
)
def test_norm_ball_matches_box_scan(bound, coset):
    import math

    # integer residues are tested on integers, float residues (at modulus 1,
    # as shifted_theta_value needs) and float bounds in floats as given
    r1, r2, modulus = coset
    points = enumerate_shifted_ball((r1, r2), modulus, bound)
    # every input also gives each point's tested norm N(modulus n + residue)
    if isinstance(r1, float):
        assert all(q == norm_form(n1 + r1, n2 + r2) for (n1, n2), q in points.items())
    else:
        assert all(
            type(q) is int and q == norm_form(modulus * n1 + r1, modulus * n2 + r2)
            for (n1, n2), q in points.items()
        )
    # on the ball |modulus n_i + r_i| <= sqrt(4 bound/3) < 2 isqrt(bound) + 4, and |r_i| <= 30
    half = (2 * math.isqrt(int(bound)) + 34) // modulus + 2
    want = {
        LatticeVector(n1, n2)
        for n1 in range(-half, half + 1)
        for n2 in range(-half, half + 1)
        if norm_form(modulus * n1 + r1, modulus * n2 + r2) <= bound
    }
    assert set(points) == want


def test_norm_ball_half_width_is_exact():
    # 4 * bound overflows a float here; the half-width must not
    ball = enumerate_shifted_ball((0.5, 0.25), 10**200, sys.float_info.max)
    assert ball == {LatticeVector(0, 0): 0.4375}


def test_shifted_ball_and_coset_minimum():
    pts = enumerate_shifted_ball((1, 0), 2, 1)  # N(n + (1/2, 0)) <= 1/4
    assert {(n1, n2) for n1, n2 in pts} == {(0, 0), (-1, 0)}
    assert min_norm_in_coset((1, 0), 2) == 1
    assert min_norm_in_coset((0, 0), 3) == 0
    assert min_norm_in_coset((2, 2), 3) == norm_form(F(-1), F(-1))


def _min_norm_box_scan(residue, modulus):
    """Reference minimum: the 6x6 box of coset points around the reduced
    representative.  Outside it N >= (3/4)(2*modulus)^2 = 3*modulus^2, which
    no minimum exceeds."""
    r1, r2 = residue[0] % modulus, residue[1] % modulus
    return min(
        LatticeVector(r1 + modulus * n1, r2 + modulus * n2).norm
        for n1 in range(-3, 3)
        for n2 in range(-3, 3)
    )


def test_min_norm_in_coset_matches_box_scan():
    for modulus in range(1, 13):
        for r1 in range(-modulus, modulus):
            for r2 in range(-modulus, modulus):
                want = _min_norm_box_scan((r1, r2), modulus)
                assert min_norm_in_coset((r1, r2), modulus) == want, (r1, r2, modulus)
