"""Exact coefficient field: canonical forms, arithmetic, evaluation, profiling."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import poly_eval, prs_gcd
from qhc.cli import Context
from qhc.coeffring import (
    CoeffError,
    RatCoeff,
    RC_ONE,
    RC_Q,
    RC_T,
    RC_ZERO,
    p_exact_div,
    p_gcd,
    p_mul,
    p_scale,
)

Q = RC_Q
T = RC_T
one = RC_ONE


def num(n):
    return RatCoeff.from_int(n)


# a modest pool of structured coefficients for property tests
monos = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def coeffs(draw):
    terms = draw(st.lists(monos, min_size=0, max_size=4))
    acc = RC_ZERO
    for c, eq, et in terms:
        acc = acc + RatCoeff.monomial(c, eq, et)
    if draw(st.booleans()):
        acc = acc / (one + T * T)
    return acc


def test_cancellation_example():
    # (t - 1/t) * 1/(t^2 - 1) = 1/t
    a = T - T**-1
    b = (T * T - one).inverse()
    assert a * b == T**-1


def test_common_denominator_example():
    a = (one + T * T).inverse()
    b = (T * T) * (one + T * T).inverse()
    assert a + b == one


def test_mul_expand_example():
    # (q^-2 - 1) * q^2 = 1 - q^2
    assert (Q**-2 - one) * Q**2 == one - Q * Q


def test_eval_examples():
    a = Q**-2 - one
    assert a.eval(Fraction(2), Fraction(3)) == Fraction(-3, 4)
    b = (one + T * T).inverse()
    assert b.eval(Fraction(2), Fraction(1)) == Fraction(1, 2)
    assert one.eval(Fraction(7), Fraction(11)) == 1


def test_eval_vanishing_denominator_names_factor():
    a = (Q - one).inverse()
    with pytest.raises(CoeffError, match="q - 1"):
        a.eval(Fraction(1), Fraction(2))
    b = Q**-2
    with pytest.raises(CoeffError, match="q"):
        b.eval(Fraction(0), Fraction(2))


def test_denom_profile_examples():
    a = (Q**2 * T * (one + T * T)).inverse()
    p = a.denom_profile()
    assert (p.q_power, p.t_power, p.t2plus1_power) == (2, 1, 1)
    assert p.clean

    b = T - T**-1
    p = b.denom_profile()
    assert (p.q_power, p.t_power, p.t2plus1_power) == (0, 1, 0)
    assert p.clean

    c = (Q - one).inverse()
    p = c.denom_profile()
    assert (p.q_power, p.t_power, p.t2plus1_power) == (0, 0, 0)
    assert not p.clean
    assert str(p.residual) == "q - 1"


def test_coeff_arith_dispatch_and_div_by_zero():
    with pytest.raises(CoeffError):
        one / RC_ZERO


def test_canonical_sign():
    # denominators get a positive leading coefficient under graded lex q < t
    a = one / (RatCoeff.from_int(-1) * T + RC_ZERO)
    assert str(a) == "-1/t"
    assert a * T == num(-1)


@settings(max_examples=200, deadline=None)
@given(coeffs(), coeffs(), coeffs())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    if a:
        assert a * a.inverse() == one


@settings(max_examples=200, deadline=None)
@given(coeffs(), coeffs())
def test_eval_is_hom(a, b):
    q0, t0 = Fraction(3), Fraction(5)
    assert (a * b).eval(q0, t0) == a.eval(q0, t0) * b.eval(q0, t0)
    assert (a + b).eval(q0, t0) == a.eval(q0, t0) + b.eval(q0, t0)


@settings(max_examples=200, deadline=None)
@given(coeffs())
def test_canonicalization_idempotent(a):
    again = RatCoeff(dict(a.num), dict(a.den))
    assert again == a
    g = p_gcd(a.num, a.den)
    assert g == {(0, 0): 1} or not a.num


@settings(max_examples=100, deadline=None)
@given(coeffs(), coeffs())
def test_gcd_divides_products(a, b):
    if not a or not b:
        return
    f, g = p_mul(a.num, b.num), p_mul(a.num, b.den)
    d = p_gcd(f, g)
    # a.num divides the gcd of the two products
    from qhc.coeffring import p_exact_div
    p_exact_div(d, a.num)


@st.composite
def monomial_denominators(draw):
    """(num, den) with den = c*q^a*t^b; num may share a monomial and an integer with den."""
    c = draw(st.sampled_from([1, -1, 2, -2, 3, -3, 6, -6]))
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    num: dict = {}
    for x, y, v in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-6, 6)), max_size=4)):
        num[(x, y)] = num.get((x, y), 0) + v
    num = {m: v for m, v in num.items() if v}
    if draw(st.booleans()):
        k = draw(st.sampled_from([1, -1, 2, 3, 6]))
        num = p_mul(num, {(draw(st.integers(0, a)), draw(st.integers(0, b))): k})
    return num, {(a, b): c}


@settings(max_examples=300, deadline=None)
@given(monomial_denominators())
def test_single_term_denominator_matches_gcd_path(pair):
    num, den = pair
    h = {(0, 0): 1, (1, 1): 1}  # den*h has two terms, so the right side goes through p_gcd
    fast = RatCoeff(num, den)
    slow = RatCoeff(p_mul(num, h), p_mul(den, h))
    assert (fast.num, fast.den) == (slow.num, slow.den)
    assert str(fast) == str(slow)


@settings(max_examples=300, deadline=None)
@given(monomial_denominators())
def test_single_term_numerator_matches_gcd_path(pair):
    den, num = pair  # the one-term side becomes the numerator
    assume(len(den) > 1)
    h = {(0, 0): 1, (1, 1): 1}  # num*h has two terms, so the right side goes through p_gcd
    fast = RatCoeff(num, den)
    slow = RatCoeff(p_mul(num, h), p_mul(den, h))
    assert (fast.num, fast.den) == (slow.num, slow.den)
    assert str(fast) == str(slow)


points = st.builds(
    Fraction,
    st.integers(-7, 7).filter(bool),
    st.integers(1, 5),
)


@settings(max_examples=300, deadline=None)
@given(coeffs(), coeffs(), points, points)
def test_eval_matches_term_by_term_oracle(a, b, q0, t0):
    c = a / b if b else a
    d = poly_eval(c.den, q0, t0)
    if d == 0:
        with pytest.raises(CoeffError, match="vanishes"):
            c.eval(q0, t0)
    else:
        assert c.eval(q0, t0) == poly_eval(c.num, q0, t0) / d


small_polys = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)), max_size=4,
).map(lambda ts: {(a, b): c for a, b, c in ts if c})


@settings(max_examples=300, deadline=None)
@given(small_polys, small_polys, small_polys, st.sampled_from([1, 2, 6]))
def test_gcd_matches_the_prs_oracle(a, b, h, k):
    # f = k*a*h and g = b*h share h, and p_gcd must agree with the primitive
    # PRS on every pair, coprime cofactors or not
    assume(a and b and h)
    f, g = p_mul(a, p_scale(h, k)), p_mul(b, h)
    assert p_gcd(f, g) == prs_gcd(f, g), (f, g)


def _poly(text):
    """A polynomial in q and t with nonnegative exponents, from the parser."""
    c = Context("daha").parse(text).scalar_coeff()
    assert c.lden is None and min(min(m) for m in c.lnum) >= 0
    return c.lnum


@pytest.mark.parametrize("f, g, want", [
    # the common factor is the content in q of both sides as polynomials in
    # t, which the gcd in Z[t] of the images at q = xi has to keep
    ("(q+1)*(t+1)", "(q+1)*(t+2)", "q + 1"),
    # at an even q the images of q*t + q + 2 and q*t + q are both even, so
    # the image gcd there is twice the image of h and the primitive part of
    # the lift drops the 2
    ("(q*t+q+2)*(q^2*t-3*t+1)", "(q*t+q)*(q^2*t-3*t+1)", "q^2*t - 3*t + 1"),
    # a squared shared factor with coefficients near 10^9
    ("(999999937*q^2*t - 999999929*t^2 + 1000000007)^2*(q - 2*t)",
     "(999999937*q^2*t - 999999929*t^2 + 1000000007)^2*(q*t + 5)",
     "(999999937*q^2*t - 999999929*t^2 + 1000000007)^2"),
    # monomial and integer contents
    ("6*q^2*t*(q + t)", "4*q*t^3*(q + t)*(q - t)", "2*q*t*(q + t)"),
])
def test_gcd_fixed_cases(f, g, want):
    f, g, want = _poly(f), _poly(g), _poly(want)
    assert p_gcd(f, g) == want == prs_gcd(f, g)
    assert p_gcd(g, f) == want
