import sys
from collections import Counter
from itertools import product

import pytest

from impactzeta import building, genfun, orders, poly, suites
from impactzeta.building import BasinKind
from impactzeta.errors import ArityMismatch
from impactzeta.orders import (
    all_cases,
    check_main_theorem,
    check_zeta_recurrence,
    classify_type,
    contribution,
    extension_case,
    full_zeta,
    numerator_poly,
    principal_zeta,
    unit_index,
    zeta_denominator,
)
from impactzeta.poly import ONE, Q, ZERO, RationalFn, q_pow, series_expand, x_pow
from impactzeta.report import all_passed
from impactzeta.suites import arithmetic_suite, identity_suite

RAM = extension_case(BasinKind.RAMIFIED)
UNRAM = extension_case(BasinKind.UNRAMIFIED)
SPLIT = extension_case(BasinKind.SPLIT)


def test_case_vectors():
    assert (RAM.e_vec, RAM.f_vec, len(RAM.f_vec)) == ((2,), (1,), 1)
    assert (UNRAM.e_vec, UNRAM.f_vec, len(UNRAM.f_vec)) == ((1,), (2,), 1)
    assert (SPLIT.e_vec, SPLIT.f_vec, len(SPLIT.f_vec)) == ((1, 1), (1, 1), 2)


def test_translation_vector_contributes_two():
    for case in all_cases():
        assert contribution(case, case.e_vec) == 2


def test_unit_index_values():
    assert unit_index(RAM, 3) == q_pow(3)
    assert unit_index(UNRAM, 1) == Q + 1
    assert unit_index(SPLIT, 2) == (Q - 1) * Q
    for case in all_cases():
        assert unit_index(case, 0) == ONE


def _is_low(case, n, omega):
    return any(w < t for w, t in zip(omega, case.threshold(n)))


def test_classify_low_not_occurring():
    assert _is_low(RAM, 2, (3,))
    assert classify_type(RAM, 2, (3,)).is_zero()


def test_classify_low_occurring():
    assert _is_low(RAM, 2, (2,))
    assert classify_type(RAM, 2, (2,)) == Q
    assert contribution(RAM, (2,)) == 2


def test_classify_high_split():
    assert not _is_low(SPLIT, 1, (1, 2))
    assert classify_type(SPLIT, 1, (1, 2)) == Q - 1
    assert contribution(SPLIT, (1, 2)) == 3


def test_classify_unramified_low():
    assert _is_low(UNRAM, 2, (1,))
    assert classify_type(UNRAM, 2, (1,)) == Q
    assert contribution(UNRAM, (1,)) == 2


def test_classify_arity():
    with pytest.raises(ArityMismatch):
        classify_type(RAM, 1, (1, 2))
    with pytest.raises(ArityMismatch):
        classify_type(SPLIT, 1, (2,))
    # A type is always a g-tuple: a bare int is not one, even for a field.
    with pytest.raises(TypeError):
        classify_type(RAM, 1, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        contribution(SPLIT, (1, -1))


def test_principal_zeta_examples():
    one_minus_x = ONE - x_pow(1)
    assert principal_zeta(RAM, 1) == RationalFn(
        ONE - x_pow(1) + Q * x_pow(2), one_minus_x
    )
    assert principal_zeta(UNRAM, 1) == RationalFn(
        ONE + Q * x_pow(2), ONE - x_pow(2)
    )
    assert principal_zeta(SPLIT, 0) == RationalFn(ONE, one_minus_x**2)


def test_full_zeta_numerators():
    assert full_zeta(RAM, 2).num == ONE + Q * x_pow(2) + q_pow(2) * x_pow(4)
    assert full_zeta(UNRAM, 1).num == ONE + x_pow(1) + Q * x_pow(2)
    assert full_zeta(SPLIT, 1).num == ONE - x_pow(1) + Q * x_pow(2)


def test_numerator_poly_closed_forms():
    assert numerator_poly(RAM, 2) == ONE + Q * x_pow(2) + q_pow(2) * x_pow(4)
    assert numerator_poly(UNRAM, 0) == ONE
    assert numerator_poly(SPLIT, 0) == ONE
    assert numerator_poly(SPLIT, 2) == (
        ONE
        - x_pow(1)
        + Q * x_pow(2)
        - Q * x_pow(3)
        + q_pow(2) * x_pow(4)
    )


def test_numerator_degree_and_leading_coefficient():
    for case in all_cases():
        for n in range(9):
            num = full_zeta(case, n).num
            assert max(xe for _, xe, _ in num.terms) == 2 * n
            assert (n, 2 * n, 1) in num.terms


def test_base_case_all_ideals_principal():
    for case in all_cases():
        assert full_zeta(case, 0) == principal_zeta(case, 0)


def test_series_counts_are_nonnegative():
    for case in all_cases():
        for n in range(5):
            prefix = series_expand(full_zeta(case, n), 10)
            for coeff in prefix.coefficients:
                assert all(c > 0 for _, _, c in coeff.terms), (case.tag, n)


def test_type_counts_sum_to_the_principal_series():
    """Summing |X_omega| X^c(omega) over every type with c(omega) <= 12 gives
    the first 13 series coefficients of principal_zeta, symbolically in q.
    principal_zeta reads only the diagonal and threshold types, so this
    checks that every high type shares the count at t_n."""
    degree = 12
    for case in all_cases():
        for n in range(7):
            coeffs = [ZERO] * (degree + 1)
            for omega in product(range(degree + 1), repeat=len(case.f_vec)):
                c = contribution(case, omega)
                if c <= degree:
                    coeffs[c] = coeffs[c] + classify_type(case, n, omega)
            series = series_expand(principal_zeta(case, n), degree).coefficients
            assert series == tuple(coeffs), (case.tag, n)


def test_recurrence_and_main_theorem():
    for case in all_cases():
        principals = [principal_zeta(case, n) for n in range(9)]
        fulls = [full_zeta(case, n) for n in range(9)]
        layers = [genfun.layer_genfun_q(case.tag, n) for n in range(9)]
        assert all_passed(check_zeta_recurrence(case, principals, fulls))
        assert all_passed(check_main_theorem(case, principals, fulls, layers))


def test_main_theorem_rejects_lists_of_different_lengths():
    principals = [principal_zeta(SPLIT, n) for n in range(4)]
    fulls = [full_zeta(SPLIT, n) for n in range(4)]
    layers = [genfun.layer_genfun_q(SPLIT.tag, n) for n in range(3)]
    with pytest.raises(ValueError):
        check_main_theorem(SPLIT, principals, fulls, layers)
    with pytest.raises(ValueError):
        check_main_theorem(SPLIT, principals[:3], fulls, layers)


def _patch_bindings(monkeypatch, real, replacement):
    """Replace the function ``real`` under every binding in the package."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "impactzeta"]
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, key, replacement)


def _count_calls(monkeypatch, *reals) -> Counter:
    """Count the calls of each function, keyed by (name, args), under every
    binding in the package."""
    calls = Counter()
    for real in reals:

        def counted(*args, real=real):
            calls[real.__name__, args] += 1
            return real(*args)

        _patch_bindings(monkeypatch, real, counted)
    return calls


def test_identity_suite_builds_each_closed_form_once(monkeypatch):
    """Neither leaf is memoised, so the suite builds principal_zeta once per
    (case, n) and layer_genfun_q once per (kind, n), sums the full and basin
    functions from those lists, and never calls full_zeta or basin_genfun_q,
    which would rebuild every leaf below n.  All four are counted under every
    binding in the package; n_max = 45 is past the 128 entries a memo of
    3 x 41 keys would hold."""
    calls = _count_calls(
        monkeypatch,
        orders.principal_zeta,
        orders.full_zeta,
        genfun.layer_genfun_q,
        genfun.basin_genfun_q,
    )
    for n_max, builds in ((8, 27), (45, 138)):
        calls.clear()
        assert all_passed(identity_suite(n_max))
        heights = range(n_max + 1)
        leaves = [("principal_zeta", (case, n)) for case in all_cases() for n in heights]
        leaves += [("layer_genfun_q", (kind, n)) for kind in BasinKind for n in heights]
        assert calls == Counter(leaves)
        per_leaf = Counter(name for name, _ in calls.elements())
        assert per_leaf == {"principal_zeta": builds, "layer_genfun_q": builds}


def test_arithmetic_suite_builds_each_principal_function_once(monkeypatch):
    """The arithmetic suite reads the principal and full series at every prime
    from one principal function per (case, n): 9 builds for n <= 2 over the
    default grid of two primes per case, where a build per (case, p, n) and
    series would make 54."""
    calls = _count_calls(monkeypatch, orders.principal_zeta)
    assert all_passed(arithmetic_suite(2, 4))
    leaves = [("principal_zeta", (case, n)) for case in all_cases() for n in range(3)]
    assert calls == Counter(leaves)
    assert sum(calls.values()) == 9


def test_suites_sum_every_height_in_one_kernel_pass(monkeypatch):
    """identity_suite sums the full and basin functions of every height in one
    x_shift_sums pass per case and per basin, 6 at any n_max, where a pass
    per height would make 6 (n_max + 1) and the suite cubic in n_max; the
    arithmetic suite makes one pass per case."""
    lengths = []
    real = poly.x_shift_sums

    def counted(fs):
        lengths.append(len(fs))
        return real(fs)

    _patch_bindings(monkeypatch, real, counted)
    for n_max in (8, 32):
        lengths.clear()
        assert all_passed(identity_suite(n_max))
        assert lengths == [n_max + 1] * 6
    lengths.clear()
    assert all_passed(arithmetic_suite(2, 4))
    assert lengths == [3] * 3


def test_main_theorem_catches_wrong_low_type_counts(monkeypatch):
    """The principal zeta is summed from classify_type, so a low-type count
    that is off by a factor q must fail the comparison with the tree side."""
    real = orders.classify_type

    def off_by_q(case, n, omega):
        count = real(case, n, omega)
        return count * Q if _is_low(case, n, omega) else count

    monkeypatch.setattr(orders, "classify_type", off_by_q)
    results = identity_suite(4)
    for case in all_cases():
        main = [
            c.passed
            for c in results
            if c.name.startswith(f"main-theorem {case.tag.value} ")
        ]
        # O_0 has no low types; every O_n with n >= 1 has the type 0.
        assert main == [True, False, False, False, False], case.tag


def test_main_theorem_catches_a_wrong_plateau_at_one_height(monkeypatch):
    """The suites build the layer functions and sum the basin functions from
    them, so an extra q^7 X^14 / tail in the split layer function at n = 7,
    a plateau off by q^7, must fail the main theorem there, and nowhere else."""
    real = suites.layer_genfun_q

    def plus_q7(kind, n):
        layer = real(kind, n)
        if (kind, n) != (BasinKind.SPLIT, 7):
            return layer
        return RationalFn(layer.num + q_pow(7) * x_pow(14), layer.den)

    monkeypatch.setattr(suites, "layer_genfun_q", plus_q7)
    failed = [c.name for c in identity_suite(8) if not c.passed]
    assert failed == ["main-theorem split n=7"]


def test_main_theorem_checks_the_branching_rule(monkeypatch):
    """The layer functions read their plateau from building.first_arity, so
    a split basin vertex with m off-basin children instead of m - 1 must fail
    the main theorem at every n >= 1, and nothing else.  oracle_suite no
    longer sees this mutant: its BFS (distance_profile) and the closed forms
    now share the rule.  The TruncatedTree referee, which does not read
    first_arity, still sees it
    (tests/test_building.py::test_array_tree_matches_address_construction)."""
    real = building.first_arity

    def split_gets_m(kind, m):
        return m if kind is BasinKind.SPLIT else real(kind, m)

    _patch_bindings(monkeypatch, real, split_gets_m)
    assert genfun.first_arity is split_gets_m
    failed = [c.name for c in identity_suite(8) if not c.passed]
    assert failed == [f"main-theorem split n={n}" for n in range(1, 9)]


def test_full_zeta_equals_basin_genfun():
    from impactzeta.genfun import basin_genfun_q

    for case in all_cases():
        for n in range(9):
            assert full_zeta(case, n) == basin_genfun_q(case.tag, n)


def test_denominators():
    assert zeta_denominator(RAM) == ONE - x_pow(1)
    assert zeta_denominator(UNRAM) == ONE - x_pow(2)
    assert zeta_denominator(SPLIT) == (ONE - x_pow(1)) ** 2
