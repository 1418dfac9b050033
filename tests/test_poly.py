import pytest
from hypothesis import given, strategies as st

from impactzeta.errors import NonUnitDenominator, NotDivisible
from impactzeta.poly import (
    ONE,
    Q,
    X,
    ZERO,
    BiPoly,
    RationalFn,
    exact_div,
    q_pow,
    series_expand,
    x_pow,
)


def P(*terms):
    return BiPoly(tuple(terms))


def test_canonical_form():
    a = P((0, 0, 1), (0, 0, 2), (1, 2, 0), (0, 1, -1))
    assert a.terms == ((0, 0, 3), (0, 1, -1))
    assert P((0, 0, 1), (0, 0, -1)) == ZERO
    assert BiPoly().is_zero()


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        BiPoly(((-1, 0, 1),))


def test_mul_telescoping():
    assert (ONE - X) * (ONE + X + x_pow(2)) == ONE - x_pow(3)


def test_add_cancellation():
    assert (ONE + Q * x_pow(2)) + BiPoly.const(-1) == Q * x_pow(2)


def test_square():
    assert (ONE - X) ** 2 == ONE - 2 * X + x_pow(2)


def test_exact_div_geometric():
    assert exact_div(ONE - x_pow(5), ONE - X) == ONE + X + x_pow(2) + x_pow(3) + x_pow(4)


def test_exact_div_not_divisible():
    with pytest.raises(NotDivisible):
        exact_div(ONE - x_pow(3), ONE - x_pow(2))


def test_exact_div_cancels_factor():
    a = (ONE + Q * x_pow(2)) * (ONE - X)
    assert exact_div(a, ONE - X) == ONE + Q * x_pow(2)


def test_exact_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)


def test_series_expand_long_division():
    f = RationalFn(ONE + Q * x_pow(2), ONE - X)
    got = series_expand(f, 3)
    assert list(got.coefficients) == [ONE, ONE, ONE + Q, ONE + Q]


def test_series_expand_geometric_even():
    f = RationalFn(ONE, ONE - x_pow(2))
    assert series_expand(f, 4).at_q(0) == [1, 0, 1, 0, 1]


def test_series_expand_with_q():
    f = RationalFn(ONE - X + Q * x_pow(2), ONE - X)
    got = series_expand(f, 4)
    assert list(got.coefficients) == [ONE, ZERO, Q, Q, Q]


def test_series_expand_requires_unit_constant_term():
    with pytest.raises(NonUnitDenominator):
        series_expand(RationalFn(ONE, X), 2)
    with pytest.raises(NonUnitDenominator):
        series_expand(RationalFn(ONE, 2 * ONE - X), 2)


def test_subs_q_examples():
    assert (ONE + Q * x_pow(2)).subs_q(3) == ONE + 3 * x_pow(2)
    assert (q_pow(2) * x_pow(4)).subs_q(1) == x_pow(4)
    s2 = ONE - X + Q * x_pow(2) - Q * x_pow(3) + q_pow(2) * x_pow(4)
    assert s2.subs_q(2) == ONE - X + 2 * x_pow(2) - 2 * x_pow(3) + 4 * x_pow(4)


def test_rational_equality_cross_multiplies():
    f = RationalFn(ONE - x_pow(2), (ONE - X) * (ONE + X))
    g = RationalFn(ONE, ONE)
    assert f == g
    assert RationalFn(ONE, ONE - X) != RationalFn(ONE, ONE - x_pow(2))


def test_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFn(ONE, ZERO)


def test_str_rendering():
    assert str(ONE - X + 3 * Q * x_pow(2)) == "1 - X + 3*q*X^2"
    assert str(ZERO) == "0"


terms = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(-9, 9)
)
bipolys = st.lists(terms, max_size=5).map(lambda ts: BiPoly(tuple(ts)))


@given(bipolys, bipolys, bipolys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(bipolys, bipolys)
def test_exact_div_roundtrip(a, b):
    if b.is_zero():
        return
    assert exact_div(a * b, b) == a


@given(bipolys, st.integers(0, 6), st.integers(0, 6))
def test_series_prefix_consistency(num, d1, d2):
    f = RationalFn(num, (ONE - X) * (ONE - x_pow(2)))
    s1 = series_expand(f, d1)
    s2 = series_expand(f, d2)
    for k in range(min(d1, d2) + 1):
        assert s1.coefficients[k] == s2.coefficients[k]


@given(bipolys, bipolys, st.integers(-4, 4))
def test_subs_q_commutes_with_arithmetic(a, b, q0):
    assert (a + b).subs_q(q0) == a.subs_q(q0) + b.subs_q(q0)
    assert (a * b).subs_q(q0) == a.subs_q(q0) * b.subs_q(q0)


@given(bipolys)
def test_series_of_polynomial_recovers_coefficients(a):
    f = RationalFn(a, ONE)
    d = max((xe for _, xe, _ in a.terms), default=0)
    prefix = series_expand(f, d)
    rebuilt = sum(
        (c * x_pow(k) for k, c in enumerate(prefix.coefficients)), ZERO
    )
    assert rebuilt == a
