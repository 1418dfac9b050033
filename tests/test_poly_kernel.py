"""The Z[q, X] kernel builds canonical results without re-canonicalising them.

Only the public constructors run ``_canonical``; products, sums, the
monomials ``x_pow`` and ``q_pow``, the prefixes of shifted sums
(``x_shift_sums``), negation, ``subs_q``, ``x_coefficients`` and the
``exact_div`` quotient are built in canonical order directly.  The tests
below hold each of those results to ``_canonical``, keep the left fold as
the referee for ``x_shift_sums`` and the scan-the-remainder long division as
the referee for the heap-ordered ``exact_div``, and hold
``RationalFn.__eq__`` over a shared denominator to cross-multiplication.
"""

from unittest import mock

import pytest
from hypothesis import assume, example, given, strategies as st

from impactzeta import poly
from impactzeta.errors import NotDivisible
from impactzeta.poly import (
    ONE,
    Q,
    X,
    ZERO,
    BiPoly,
    RationalFn,
    exact_div,
    q_pow,
    x_pow,
    x_shift_sums,
)


def referee_div(a: BiPoly, b: BiPoly) -> BiPoly:
    """Long division that finds each leading remainder term by a full scan."""
    lb_q, lb_x, lb_c = b.terms[-1]
    rem = {(qe, xe): c for qe, xe, c in a.terms}
    quo = []
    while rem:
        rq, rx = max(rem, key=lambda k: (k[1], k[0]))
        rc = rem[rq, rx]
        if rq < lb_q or rx < lb_x or rc % lb_c != 0:
            raise NotDivisible(f"({a}) is not divisible by ({b})")
        tq, tx, tc = rq - lb_q, rx - lb_x, rc // lb_c
        quo.append((tq, tx, tc))
        for bq, bx, bc in b.terms:
            key = (tq + bq, tx + bx)
            nc = rem.get(key, 0) - tc * bc
            if nc:
                rem[key] = nc
            else:
                rem.pop(key, None)
    return BiPoly(tuple(quo))


def divides_term(b: BiPoly, t: BiPoly) -> bool:
    """Whether b divides the single term t in Z[q, X]."""
    if len(b.terms) != 1:
        return False
    (bq, bx, bc), (tq, tx, tc) = b.terms[0], t.terms[0]
    return tq >= bq and tx >= bx and tc % bc == 0


def assert_canonical(p: BiPoly) -> None:
    assert type(p) is BiPoly
    assert p.terms == poly._canonical(p.terms)
    assert all(c != 0 for _, _, c in p.terms)


# Small exponents and coefficients of both signs, so that random sums and
# products often cancel terms, or cancel completely.
terms = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-5, 5))
bipolys = st.lists(terms, max_size=6).map(lambda ts: BiPoly(tuple(ts)))
nonzero = bipolys.filter(lambda p: not p.is_zero())
monomials = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-6, 6)).filter(
    lambda t: t[2] != 0
).map(lambda t: BiPoly((t,)))


# -- exact division against the referee ----------------------------------------


# Dividing 1 - X^8 by 1 - X pushes a new remainder key at every step and
# cancels the one before it.
@example(sum((x_pow(k) for k in range(8)), ZERO), ONE - X)
@example(ONE + Q * X - x_pow(2), Q - X)
@given(bipolys, nonzero)
def test_exact_div_recovers_the_factor_and_matches_the_referee(a, b):
    ab = a * b
    quotient = exact_div(ab, b)
    assert quotient == a
    assert quotient == referee_div(ab, b)
    assert_canonical(quotient)


@given(bipolys, nonzero, monomials)
def test_exact_div_and_referee_reject_the_same_remainder(a, b, t):
    assume(not divides_term(b, t))
    with pytest.raises(NotDivisible):
        exact_div(a * b + t, b)
    with pytest.raises(NotDivisible):
        referee_div(a * b + t, b)


# -- results built in canonical order -------------------------------------------


@given(bipolys, bipolys, st.integers(-4, 4))
def test_every_built_result_is_canonical(a, b, k):
    results = [
        a * b, a * k, k * a, a + b, a + k, k + a, a - b, a - k, k - a, -a,
        a - a, a + (-a), a * 0, a * ZERO,
        a.subs_q(k),
        *a.x_coefficients().values(),
    ]
    if not b.is_zero():
        results.append(exact_div(a * b, b))
    for r in results:
        assert_canonical(r)
    assert (a - a).is_zero() and (a * 0).is_zero() and (a + (-a)).is_zero()


def test_full_cancellation_gives_the_empty_tuple():
    for r in (X - X, (ONE + Q) * 0, ((Q - 2) * X).subs_q(2), 3 - BiPoly.const(3)):
        assert r.terms == ()
        assert r == ZERO


def test_public_constructors_still_validate():
    with pytest.raises(ValueError):
        BiPoly.term(-1, 0)
    with pytest.raises(ValueError):
        BiPoly(((0, -2, 1),))
    assert BiPoly.term(0, 0, 0).is_zero()
    assert BiPoly.const(0) == ZERO


# -- shifted sums against the left fold ------------------------------------------


@given(st.lists(bipolys, min_size=1, max_size=6), nonzero)
def test_x_shift_sums_are_the_left_folds_without_canonicalising(nums, den):
    fs = [RationalFn(num, den) for num in nums]
    with mock.patch.object(poly, "_canonical", side_effect=poly._canonical) as spy:
        sums = x_shift_sums(fs)
    assert spy.call_count == 0
    assert len(sums) == len(fs)
    for n, total in enumerate(sums):
        assert total.den is fs[0].den
        assert total.num == sum((x_pow(i) * nums[n - i] for i in range(n + 1)), BiPoly())
        assert_canonical(total.num)


def test_monomials_are_built_without_canonicalising():
    with mock.patch.object(poly, "_canonical", side_effect=poly._canonical) as spy:
        monomials = [(x_pow(k), q_pow(k)) for k in range(6)]
    assert spy.call_count == 0
    for k, (xk, qk) in enumerate(monomials):
        assert xk.terms == BiPoly.term(0, k).terms == ((0, k, 1),)
        assert qk.terms == BiPoly.term(k, 0).terms == ((k, 0, 1),)
    for power in (x_pow, q_pow):
        with pytest.raises(ValueError, match="nonnegative"):
            power(-1)


# -- equality of rational functions -----------------------------------------------


@given(bipolys, nonzero, bipolys, nonzero, st.booleans())
def test_ratfn_equality_is_cross_multiplication(n1, d1, n2, d2, share):
    if share:
        d2 = d1
    f, g = RationalFn(n1, d1), RationalFn(n2, d2)
    expected = n1 * d2 == n2 * d1
    assert (f == g) is expected
    assert (g == f) is expected
    # An equal multiple of both parts is the same function.
    assert RationalFn(n1 * d2, d1 * d2) == f


def test_ratfn_equality_examples():
    assert RationalFn(2 * X, 2 * ONE) == RationalFn(X, ONE)
    assert RationalFn(X, ONE - X) != RationalFn(X + 1, ONE - X)
    assert RationalFn(X + X, ONE - X) == RationalFn(2 * X, ONE - X)
