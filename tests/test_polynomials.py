"""Sparse polynomial arithmetic, the grevlex order, parser and printer."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetroids.fields import QQ, PrimeField
from symmetroids.polynomials import (
    Polynomial,
    PolyParseError,
    Ring,
    format_polynomial,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
    parse_polynomial,
)

F31991 = PrimeField(31991)
F7 = PrimeField(7)


def poly(text, ring):
    return parse_polynomial(text, ring)


# --- monomial helpers -------------------------------------------------


def test_mono_helpers():
    assert mono_mul((1, 2), (3, 0)) == (4, 2)
    assert mono_divides((1, 0), (2, 3))
    assert not mono_divides((3, 0), (2, 3))
    assert mono_div((4, 2), (1, 2)) == (3, 0)
    assert mono_lcm((2, 1), (1, 3)) == (2, 3)


def _grevlex_reference(a, b):
    """Textbook comparator: total degree, then reversed exponent tie-break.

    a > b iff deg a > deg b, or degrees tie and the LAST index where the
    exponents differ has a SMALLER exponent in a.
    """
    da, db = sum(a), sum(b)
    if da != db:
        return 1 if da > db else -1
    for i in reversed(range(len(a))):
        if a[i] != b[i]:
            return 1 if a[i] < b[i] else -1
    return 0


def _compare(a, b):
    """-1, 0 or 1 as a < b, a == b, a > b under grevlex_key."""
    ka, kb = grevlex_key(a), grevlex_key(b)
    return (ka > kb) - (ka < kb)


def test_grevlex_against_reference_comparator():
    monos = [m for d in range(6) for m in monomials_of_degree(3, d)]
    for a in monos:
        for b in monos:
            assert _compare(a, b) == _grevlex_reference(a, b)


def test_grevlex_classic_ordering_facts():
    # x*z^2 < y^3 in grevlex on (x, y, z) despite lex saying otherwise
    assert grevlex_key((1, 0, 2)) < grevlex_key((0, 3, 0))
    # within one degree: x^2 > x*y > y^2 > x*z > y*z > z^2
    degree2 = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    ordered = sorted(degree2, key=grevlex_key, reverse=True)
    assert ordered == degree2


def test_monomials_of_degree_counts():
    for nvars in (1, 2, 3, 4):
        for d in range(0, 6):
            got = monomials_of_degree(nvars, d)
            assert len(got) == math.comb(d + nvars - 1, nvars - 1)
            assert len(set(got)) == len(got)
            assert all(sum(m) == d and len(m) == nvars for m in got)
    assert monomials_of_degree(3, -1) == []


# --- arithmetic -------------------------------------------------------


def test_basic_arithmetic_and_cancellation():
    ring = Ring(2, QQ)
    f = poly("x0^2 + 2*x0*x1", ring)
    g = poly("x0^2 - 2*x0*x1", ring)
    assert f + g == poly("2*x0^2", ring)
    assert f - f == Polynomial.zero(ring)
    assert not (f - f)
    assert (f * g) == poly("x0^4 - 4*x0^2*x1^2", ring)
    assert f.scale(Fraction(1, 2)) == poly("1/2*x0^2 + x0*x1", ring)
    assert (-f) + f == Polynomial.zero(ring)


def test_pow():
    ring = Ring(2, F7)
    f = poly("x0 + x1", ring)
    assert f**7 == poly("x0^7 + x1^7", ring)  # Frobenius in char 7
    assert f**0 == Polynomial.constant(ring, 1)
    with pytest.raises(ValueError):
        f ** (-1)


def test_degree_and_homogeneity():
    ring = Ring(3, QQ)
    f = poly("x0^2*x1 + x2^3", ring)
    assert f.degree() == 3
    assert f.is_homogeneous()
    assert f.homogeneous_degree() == 3
    g = poly("x0 + x1^2", ring)
    assert not g.is_homogeneous()
    assert Polynomial.zero(ring).is_homogeneous()


def test_partial_derivative_and_euler_relation():
    ring = Ring(4, QQ)
    f = poly("x0^3*x1 + 2*x1^2*x2^2 - x3^4", ring)
    d = f.homogeneous_degree()
    euler = Polynomial.zero(ring)
    for i in range(4):
        euler = euler + Polynomial.variable(ring, i) * f.partial_derivative(i)
    assert euler == f.scale(Fraction(d))


def test_evaluate():
    ring = Ring(2, F7)
    f = poly("x0^2 + 3*x1", ring)
    assert f.evaluate((2, 1)) == 0
    assert f.evaluate((0, 0)) == 0
    assert poly("5", ring).evaluate((6, 6)) == 5


def test_linear_change_composition_and_validation():
    ring = Ring(2, F7)
    f = poly("x0^2 + x1^2", ring)
    a = [[1, 1], [0, 1]]  # x0 -> x0 + x1, x1 -> x1
    g = f.linear_change(a)
    assert g == poly("x0^2 + 2*x0*x1 + 2*x1^2", ring)
    with pytest.raises(ValueError):
        f.linear_change([[1, 1], [1, 1]])


def test_dehomogenize_and_eliminate():
    ring4 = Ring(4, F7)
    f = poly("x0^2*x3 + x1*x2*x3 + x3^3", ring4)
    aff = f.dehomogenize(3)
    ring3 = aff.ring
    assert ring3.nvars == 3
    assert aff == poly("x0^2 + x1*x2 + 1", ring3)
    # eliminating x3 by x3 -> -(x0 + x1) keeps homogeneity
    repl = poly("-1*x0 - x1", ring3)
    cut = f.eliminate_variable(3, repl)
    assert cut.ring.nvars == 3
    assert cut.is_homogeneous() and cut.homogeneous_degree() == 3


def test_substitute_identity():
    ring = Ring(3, QQ)
    f = poly("x0^2*x1 - x2^3 + 4", ring)
    images = [Polynomial.variable(ring, i) for i in range(3)]
    assert f.substitute(images) == f


# --- parser and printer ----------------------------------------------


def test_parse_canonical_examples():
    ring = Ring(4, F31991)
    f = poly("x0^2 + 31990*x1*x2", ring)
    assert format_polynomial(f) == "x0^2 + 31990*x1*x2"
    g = poly("x0 - x1", ring)
    assert format_polynomial(g) == "x0 + 31990*x1"


def test_parse_rational_coefficients():
    ring = Ring(2, QQ)
    f = poly("1/2*x0^2 - 3*x1 + 7/3", ring)
    assert f.terms[(2, 0)] == Fraction(1, 2)
    assert f.terms[(0, 1)] == Fraction(-3)
    assert f.terms[(0, 0)] == Fraction(7, 3)
    text = format_polynomial(f)
    assert parse_polynomial(text, ring) == f


def test_parse_errors_carry_positions():
    ring = Ring(2, F7)
    with pytest.raises(PolyParseError) as err:
        parse_polynomial("x0 + x9", ring)
    assert err.value.position >= 5
    with pytest.raises(PolyParseError):
        parse_polynomial("x0 ++ x1", ring)
    with pytest.raises(PolyParseError):
        parse_polynomial("", ring)
    with pytest.raises(PolyParseError):
        parse_polynomial("1/2*x0", ring)  # fractions need Q
    with pytest.raises(PolyParseError):
        parse_polynomial("x0^", ring)
    with pytest.raises(PolyParseError):
        parse_polynomial("x0 + $", ring)


def test_format_zero_and_constants():
    ring = Ring(2, F7)
    assert format_polynomial(Polynomial.zero(ring)) == "0"
    assert format_polynomial(Polynomial.constant(ring, 3)) == "3"
    ringq = Ring(2, QQ)
    c = Polynomial.constant(ringq, Fraction(-2, 3))
    assert format_polynomial(c) == "-2/3"
    assert parse_polynomial("-2/3", ringq) == c


# --- hypothesis property tests ----------------------------------------


def _random_poly_strategy(ring, max_terms=6, max_exp=3):
    if isinstance(ring.field, PrimeField):
        coeff = st.integers(min_value=0, max_value=ring.field.p - 1)
    else:
        coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    mono = st.tuples(
        *[st.integers(min_value=0, max_value=max_exp)] * ring.nvars
    )
    return st.dictionaries(mono, coeff, max_size=max_terms).map(
        lambda d: Polynomial.from_terms(ring, d)
    )


RING_Q2 = Ring(2, QQ)
RING_F3 = Ring(3, F31991)


@settings(max_examples=60, deadline=None)
@given(
    _random_poly_strategy(RING_F3),
    _random_poly_strategy(RING_F3),
    _random_poly_strategy(RING_F3),
)
def test_ring_axioms_fp(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Polynomial.zero(RING_F3) == f


@settings(max_examples=40, deadline=None)
@given(_random_poly_strategy(RING_Q2), _random_poly_strategy(RING_Q2))
def test_print_parse_round_trip_q(f, g):
    for h in (f, g, f * g, f - g):
        text = format_polynomial(h)
        assert parse_polynomial(text, RING_Q2) == h


@settings(max_examples=40, deadline=None)
@given(_random_poly_strategy(RING_F3))
def test_print_parse_round_trip_fp(f):
    text = format_polynomial(f)
    assert parse_polynomial(text, RING_F3) == f


@settings(max_examples=40, deadline=None)
@given(_random_poly_strategy(RING_F3), _random_poly_strategy(RING_F3))
def test_derivative_is_linear_and_leibniz(f, g):
    for i in range(RING_F3.nvars):
        assert (f + g).partial_derivative(i) == f.partial_derivative(
            i
        ) + g.partial_derivative(i)
        assert (f * g).partial_derivative(i) == f.partial_derivative(
            i
        ) * g + f * g.partial_derivative(i)


@settings(max_examples=30, deadline=None)
@given(
    _random_poly_strategy(RING_F3),
    st.tuples(*[st.integers(min_value=0, max_value=31990)] * 3),
    st.tuples(*[st.integers(min_value=0, max_value=31990)] * 3),
)
def test_evaluation_is_ring_homomorphism(f, p, q):
    g = f * f + f
    assert g.evaluate(p) == F31991.add(
        F31991.mul(f.evaluate(p), f.evaluate(p)), f.evaluate(p)
    )
    assert (f + f).evaluate(q) == F31991.add(f.evaluate(q), f.evaluate(q))
