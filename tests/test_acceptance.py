"""Acceptance criteria, one test per criterion.

Every identity is exact, so the tolerance everywhere is exact integer
equality; each test prints a single pass/fail line.
"""

import time
from itertools import product

from impactzeta.building import (
    BasinKind,
    BuildingSpec,
    distance_profile,
    way_out_vertex,
)
from impactzeta.genfun import (
    basin_genfun,
    basin_genfun_q,
    check_recurrence_q,
    geodesic_genfun_q,
    layer_genfun,
    layer_genfun_q,
    reachable_count_closed,
    reachable_count_oracle,
)
from impactzeta.orders import (
    all_cases,
    check_zeta_recurrence,
    full_zeta,
    numerator_poly,
    principal_zeta,
    zeta_denominator,
)
from impactzeta.poly import ONE, ZERO, RationalFn, series_expand, x_pow
from impactzeta.report import all_passed
from impactzeta.suites import arithmetic_suite

ALL_KINDS = (BasinKind.RAMIFIED, BasinKind.UNRAMIFIED, BasinKind.SPLIT)


def _report(number: int, label: str, ok: bool):
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"acceptance criterion {number} failed: {label}"


def test_acceptance_1_numerator_reproduction():
    start = time.time()
    ok = True
    for case in all_cases():
        V = zeta_denominator(case)
        for n in range(9):
            full = full_zeta(case, n)
            expected = numerator_poly(case, n)
            ok = ok and full.num == expected
            ok = ok and full == RationalFn(expected, V)
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report(1, f"numerator families reproduced symbolically, n <= 8 ({elapsed:.2f}s)", ok)


def test_acceptance_2_main_theorem():
    start = time.time()
    ok = True
    for case in all_cases():
        for n in range(9):
            ok = ok and principal_zeta(case, n) == layer_genfun_q(case.tag, n)
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report(2, f"principal zeta = layer generating function, n <= 8 ({elapsed:.2f}s)", ok)


def test_acceptance_3_both_recurrences():
    ok = True
    for case in all_cases():
        principals = [principal_zeta(case, n) for n in range(9)]
        fulls = [full_zeta(case, n) for n in range(9)]
        ok = ok and all_passed(check_zeta_recurrence(case, principals, fulls))
    for kind in ALL_KINDS:
        layers = [layer_genfun_q(kind, n) for n in range(9)]
        basins = [basin_genfun_q(kind, n) for n in range(9)]
        ok = ok and all_passed(check_recurrence_q(kind, layers, basins))
    # Numeric spot checks on top of the symbolic form.
    for kind, m in product(ALL_KINDS, (2, 3)):
        spec = BuildingSpec(kind, m)
        for n in range(1, 9):
            lhs = basin_genfun(spec, n)
            rhs = layer_genfun(spec, n) + x_pow(1) * basin_genfun(spec, n - 1)
            ok = ok and lhs == rhs
    _report(3, "basin and order-zeta recurrences hold exactly, n = 1..8", ok)


def test_acceptance_4_geodesic_relation():
    one_minus_x2 = ONE - x_pow(2)
    ok = True
    for kind in ALL_KINDS:
        for n in range(9):
            for walk in (layer_genfun_q(kind, n), basin_genfun_q(kind, n)):
                geo = geodesic_genfun_q(kind, walk)
                ok = ok and walk == RationalFn(geo.num, geo.den * one_minus_x2)
    _report(4, "walk flavor = geodesic flavor / (1 - X^2), n <= 8", ok)


def test_acceptance_5_combinatorial_oracle():
    start = time.time()
    n_max, d_max = 5, 12
    ok = True
    for kind, m in product(ALL_KINDS, (2, 3)):
        spec = BuildingSpec(kind, m)
        for n in range(n_max + 1):
            profile = distance_profile(spec, way_out_vertex(n), d_max)
            layer_series = series_expand(layer_genfun(spec, n), d_max).at_q(0)
            basin_series = series_expand(basin_genfun(spec, n), d_max).at_q(0)
            for d in range(d_max + 1):
                r_oracle = reachable_count_oracle(profile, d, "layer")
                p_oracle = reachable_count_oracle(profile, d, "basin")
                ok = ok and layer_series[d] == r_oracle
                ok = ok and basin_series[d] == p_oracle
                if n >= 1:
                    ok = ok and reachable_count_closed(spec, n, d) == r_oracle
            # Arbiter for the split coefficient readings: m^k below the
            # threshold, slope (l+1)(m-1)m^{n-1} beyond it.
            if kind is BasinKind.SPLIT and n >= 1:
                for k in range(n):
                    ok = ok and reachable_count_oracle(profile, 2 * k) == m**k
                for ell in range(d_max - 2 * n + 1):
                    want = (ell + 1) * (m - 1) * m ** (n - 1)
                    ok = ok and reachable_count_oracle(profile, 2 * n + ell) == want
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    _report(
        5,
        f"BFS oracle equals closed forms, m in (2,3), n <= 5, d <= 12 ({elapsed:.2f}s)",
        ok,
    )


def test_acceptance_6_arithmetic_oracle():
    start = time.time()
    results = arithmetic_suite(n_max=2, d_bound=6)
    elapsed = time.time() - start
    ok = all_passed(results) and elapsed < 300.0
    labels = {r.name.split()[0] for r in results}
    expected_parts = {
        "unit-index",
        "type-histogram",
        "principal-series",
        "vertex-layer",
        "source-distance",
        "traveling",
    }
    ok = ok and expected_parts <= labels
    _report(
        6,
        f"p-adic enumeration matches counting results, n <= 2, bound 6 "
        f"({len(results)} checks, {elapsed:.1f}s)",
        ok,
    )


def test_acceptance_7_degenerate_line_fixture():
    ok = True
    one_minus_x = ONE - x_pow(1)
    one_minus_x2 = ONE - x_pow(2)
    d_max = 12
    unram_line = BuildingSpec(BasinKind.UNRAMIFIED, 1)
    ram_line = BuildingSpec(BasinKind.RAMIFIED, 1)
    for n in range(6):
        layer_m1 = layer_genfun_q(BasinKind.UNRAMIFIED, n).subs_q(1)
        expected = RationalFn(ONE if n == 0 else ONE + x_pow(2 * n), one_minus_x2)
        ok = ok and layer_m1 == expected
        basin_m1 = basin_genfun_q(BasinKind.RAMIFIED, n).subs_q(1)
        geometric = sum((x_pow(2 * k) for k in range(n + 1)), ZERO)
        ok = ok and basin_m1 == RationalFn(geometric, one_minus_x)
        # BFS on the two line fixtures agrees with the specialized series.
        unram_profile = distance_profile(unram_line, way_out_vertex(n), d_max)
        ram_profile = distance_profile(ram_line, way_out_vertex(n), d_max)
        layer_series = series_expand(layer_m1, d_max).at_q(0)
        basin_series = series_expand(basin_m1, d_max).at_q(0)
        for d in range(d_max + 1):
            ok = ok and layer_series[d] == reachable_count_oracle(
                unram_profile, d, "layer"
            )
            ok = ok and basin_series[d] == reachable_count_oracle(
                ram_profile, d, "basin"
            )
    _report(7, "m = 1 line fixtures reproduce the degenerate closed forms", ok)
