"""The closed-form sums of shifted polynomials, against the left fold.

``basin_genfun_q`` and ``full_zeta`` sum X^i times a leaf function through
``poly.x_shift_sums``, which builds the sums of every height in one pass,
and the low-type sums are sum_k q^k X^{2k}, built as one term list and
canonicalised once.  The referees below rebuild every sum as the left fold
``sum(..., BiPoly())``, which canonicalises each partial sum, and the guards
count canonicalisations to keep the shifted sums of built leaves from
sliding back into that fold or into a re-sort.
"""

import pytest

from impactzeta import poly
from impactzeta.building import BasinKind
from impactzeta.genfun import basin_genfun_q, layer_genfun_q, tail_denominator
from impactzeta.orders import all_cases, full_zeta, numerator_poly, principal_zeta
from impactzeta.poly import ONE, BiPoly, RationalFn, q_pow, x_pow, x_shift_sums
from impactzeta.suites import ALL_KINDS, line_fixture_suite

MAX_N = 12


def left_fold(leaf, n):
    """sum_i X^i * leaf(n - i).num, one canonicalisation per partial sum."""
    return sum((x_pow(i) * leaf(n - i).num for i in range(n + 1)), BiPoly())


def r_fold(k):
    """sum_{j <= k} q^j X^{2j}, folded term by term."""
    return sum((q_pow(j) * x_pow(2 * j) for j in range(k + 1)), BiPoly())


# -- referees ----------------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_basin_sum_equals_the_left_fold(kind):
    for n in range(MAX_N + 1):
        assert basin_genfun_q(kind, n).num == left_fold(lambda k: layer_genfun_q(kind, k), n)


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.tag.value)
def test_full_zeta_sum_equals_the_left_fold(case):
    for n in range(MAX_N + 1):
        assert full_zeta(case, n).num == left_fold(lambda k: principal_zeta(case, k), n)


# The saturated walk counts, written out by hand: q^n, (q + 1) q^(n-1) and
# (q - 1) q^(n-1) for n >= 1, and 1 at n = 0.
PLATEAU = {
    BasinKind.RAMIFIED: lambda n: q_pow(n),
    BasinKind.UNRAMIFIED: lambda n: (q_pow(1) + 1) * q_pow(n - 1),
    BasinKind.SPLIT: lambda n: (q_pow(1) - 1) * q_pow(n - 1),
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_layer_low_sum_equals_the_fold(kind):
    tail = tail_denominator(kind)
    for n in range(MAX_N + 1):
        low = r_fold(n - 1)
        plateau = PLATEAU[kind](n) if n else ONE
        assert layer_genfun_q(kind, n).num == low * tail + plateau * x_pow(2 * n)


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.tag.value)
def test_numerator_family_equals_the_fold(case):
    head = {
        BasinKind.UNRAMIFIED: ONE + x_pow(1),
        BasinKind.SPLIT: ONE - x_pow(1),
    }
    for n in range(MAX_N + 1):
        if case.tag is BasinKind.RAMIFIED:
            want = r_fold(n)
        else:
            want = ONE if n == 0 else head[case.tag] * r_fold(n - 1) + q_pow(n) * x_pow(2 * n)
        assert numerator_poly(case, n) == want


def test_line_basin_equals_the_fold():
    one_minus_x = ONE - x_pow(1)
    for n in range(MAX_N + 1):
        expected = RationalFn(r_fold(n).subs_q(1), one_minus_x)
        assert basin_genfun_q(BasinKind.RAMIFIED, n).subs_q(1) == expected
    checks = [c for c in line_fixture_suite(MAX_N) if c.name.startswith("line ramified basin")]
    assert len(checks) == MAX_N + 1
    assert all(c.passed for c in checks)


# -- canonicalisation guards -------------------------------------------------


def canonical_calls(monkeypatch, build):
    """How many times ``build()`` canonicalises a term list."""
    calls = []
    real = poly._canonical

    def counting(terms):
        calls.append(None)
        return real(terms)

    with monkeypatch.context() as patched:
        patched.setattr(poly, "_canonical", counting)
        build()
    return len(calls)


def shift_sum_canonical_calls(monkeypatch, leaves):
    """Canonicalisations of the shifted sums of leaves[:9] and leaves[:33]."""
    return [canonical_calls(monkeypatch, lambda: x_shift_sums(leaves[: n + 1])) for n in (8, 32)]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_basin_sum_canonicalises_a_fixed_number_of_times(monkeypatch, kind):
    layers = [layer_genfun_q(kind, k) for k in range(33)]
    assert shift_sum_canonical_calls(monkeypatch, layers) == [0, 0]


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.tag.value)
def test_full_zeta_canonicalises_a_fixed_number_of_times(monkeypatch, case):
    principals = [principal_zeta(case, k) for k in range(33)]
    assert shift_sum_canonical_calls(monkeypatch, principals) == [0, 0]
