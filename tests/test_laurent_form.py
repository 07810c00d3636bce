"""RatCoeff's stored form: Laurent numerators over the unit denominator."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poly_eval
from qhc import coeffring
from qhc.coeffring import CoeffError, RatCoeff, RC_ONE, RC_Q, RC_T, RC_ZERO, p_mul
from qhc.rewrite import POINTS

Q, T, one = RC_Q, RC_T, RC_ONE
P = POINTS[0][2]
T2P1 = one + T * T

monos = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def laurents(draw):
    acc = RC_ZERO
    for c, eq, et in draw(st.lists(monos, max_size=3)):
        acc = acc + RatCoeff.monomial(c, eq, et)
    return acc


@st.composite
def values(draw):
    """A Laurent value, maybe inverted, times a Laurent value, a multiple of
    1/(1+t^2) or of 1+t^2, plus a Laurent value."""
    acc = draw(laurents())
    if acc and draw(st.booleans()):
        acc = acc.inverse()
    acc = acc * draw(laurents())
    acc = acc * draw(st.sampled_from([one, T2P1, T2P1.inverse()]))
    return acc + draw(laurents())


def is_unit_monomial(den):
    return len(den) == 1 and next(iter(den.values())) == 1


@settings(max_examples=100, deadline=None)
@given(values(), values())
def test_stored_form_is_canonical(a, b):
    # the classic pair round-trips, and by the gcd path too
    assert RatCoeff(a.num, a.den) == a
    h = {(0, 0): 1, (1, 1): 1}
    slow = RatCoeff(p_mul(a.num, h), p_mul(a.den, h))
    assert slow == a
    assert hash(slow) == hash(a)
    # equal values built by different paths hash alike
    for x, y in ((a * b, b * a), ((a + b) - b, a), (a * T2P1 / T2P1, a), (a + b, b + a)):
        assert x == y
        assert hash(x) == hash(y)
    # the unit marker is set exactly when the classic denominator is q^i*t^j
    for x in (a, a * b, a + b):
        assert (x.lden is None) == is_unit_monomial(x.den)


def test_cancelled_fraction_leaves_the_slow_path():
    x = T2P1 * T**-1 / T2P1
    assert x.lden is None
    assert x == T**-1
    y = RatCoeff({(0, 2): 1, (0, 0): 1}, {(0, 3): 1, (0, 1): 1})
    assert y.lden is None
    assert y == x
    assert str(y) == "1/t"


def test_integer_denominator_is_not_laurent():
    half = one / RatCoeff.from_int(2)
    assert half.lden == {(0, 0): 2}
    assert str(half * Q**-1) == "1/(2*q)"
    assert (half + half).lden is None


def test_laurent_arithmetic_needs_no_gcd(monkeypatch):
    def boom(*args):
        raise AssertionError("gcd path taken")

    a = Q**-2 * T + RatCoeff.from_int(3) - Q * T**-1
    b = T**-3 - RatCoeff.from_int(2) * Q
    m = RatCoeff.monomial(2, -1, 1)
    with monkeypatch.context() as mp:
        mp.setattr(coeffring, "p_gcd", boom)
        mp.setattr(coeffring, "p_exact_div", boom)
        got = [a * b, a + b, a - b, -a, a**3, a**-2, m**-3, b**-1 * m]
        texts = [str(x) for x in got + [a, b, m]]
    q0, t0 = Fraction(2, 3), Fraction(5, 7)
    av, bv, mv = (x.eval(q0, t0) for x in (a, b, m))
    want = [av * bv, av + bv, av - bv, -av, av**3, av**-2, mv**-3, mv / bv]
    assert [x.eval(q0, t0) for x in got] == want
    assert texts[-3:] == ["(3*q^2*t - q^3 + t^2)/(q^2*t)", "(-2*q*t^3 + 1)/t^3", "2*t/q"]
    assert texts[6] == "q^3/(8*t^3)"


def residue(f: Fraction) -> int:
    return f.numerator * pow(f.denominator, -1, P) % P


@settings(max_examples=100, deadline=None)
@given(values(), st.sampled_from([(Fraction(2, 3), Fraction(5, 7)), (Fraction(-3, 4), Fraction(1, 2)),
                                  (Fraction(7, 5), Fraction(-2, 9))]))
def test_signed_eval_matches_oracle(a, point):
    q0, t0 = point
    want = poly_eval(a.num, q0, t0) / poly_eval(a.den, q0, t0)
    if a.lden is None:
        assert poly_eval(a.lnum, q0, t0) == want
    assert a.eval(q0, t0) == want
    assert a.eval_mod(q0, t0, P) == residue(want)


def test_negative_power_vanishing_mod_p_names_q():
    with pytest.raises(CoeffError, match=r"denominator factor q vanishes at .* mod "):
        (Q**-2).eval_mod(Fraction(P, 3), Fraction(2), P)
    with pytest.raises(CoeffError, match="denominator factor t vanishes"):
        (Q * T**-1 + one).eval(Fraction(1, 2), Fraction(0))
    assert (Q**-2).eval_mod(Fraction(P + 1, 3), Fraction(2), P) == residue(Fraction(9, 1))
