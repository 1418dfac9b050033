"""Verification suite drivers behind ``impactzeta verify`` and the tests.

Three suites:

* identities: symbolic checks (numerator families, the correspondence
  between principal zeta and layer generating functions, both recurrences,
  the geodesic relation).  The suite builds each leaf once per case or
  basin and height, sums the full and basin functions of every height in
  one ``poly.x_shift_sums`` pass per case or basin, and hands them to the
  checks, which only compare.
* oracle: height-pruned BFS counts against closed forms built after every BFS.
* arithmetic: the p-adic enumeration oracle against the type-counting
  results (unit indices, type histograms and contributions, principal and
  full series prefixes, the traveling map), its generator search against
  the multiplier-ring criterion, and, with no formula, the placement of
  every ideal at a vertex of its multiplier level, filling the ball around
  O_n.  One ``ClassAtlas(inst, n, bound)`` per (case, p, n) builds its own
  truncation and places every ideal.  The principal and full functions are
  built once per (case, n) and expanded at every prime.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Iterable, Optional

from .building import (
    BasinKind,
    BuildingSpec,
    distance,
    distance_profile,
    layer_members,
    way_out_vertex,
)
from .genfun import (
    check_geodesic_q,
    check_recurrence_q,
    layer_genfun_q,
    oracle_series_check,
)
from .orders import (
    all_cases,
    check_main_theorem,
    check_zeta_recurrence,
    classify_type,
    contribution,
    extension_case,
    principal_count_series,
    principal_zeta,
    unit_index,
)
from .padic import (
    ClassAtlas,
    coset_reps,
    enumerate_ideals,
    make_case,
    multiplier_level,
    source_and_distance_check,
    traveling,
)
from .poly import ONE, BiPoly, RationalFn, series_expand, x_pow, x_shift_sums
from .report import CheckResult, all_passed

ALL_KINDS = (BasinKind.RAMIFIED, BasinKind.UNRAMIFIED, BasinKind.SPLIT)
# Enumeration grid: residue characteristics exercised per case.
DEFAULT_PRIMES = {
    BasinKind.RAMIFIED: (2, 3),
    BasinKind.UNRAMIFIED: (3, 5),
    BasinKind.SPLIT: (2, 3),
}


def _walk_functions(kinds: Iterable[BasinKind], n_max: int):
    """The layer and basin functions of O_n per basin, for n = 0..n_max."""
    layers = {kind: [layer_genfun_q(kind, n) for n in range(n_max + 1)] for kind in kinds}
    return layers, {k: x_shift_sums(ls) for k, ls in layers.items()}


def identity_suite(n_max: int) -> list[CheckResult]:
    layers, basins = _walk_functions(ALL_KINDS, n_max)
    results: list[CheckResult] = []
    for case in all_cases():
        principals = [principal_zeta(case, n) for n in range(n_max + 1)]
        fulls = x_shift_sums(principals)
        results.extend(check_main_theorem(case, principals, fulls, layers[case.tag]))
        results.extend(check_zeta_recurrence(case, principals, fulls))
    for kind in ALL_KINDS:
        results.extend(check_recurrence_q(kind, layers[kind], basins[kind]))
        results.extend(check_geodesic_q(kind, layers[kind], basins[kind]))
    return results


def oracle_suite(ms: Iterable[int], n_max: int, d_max: int) -> list[CheckResult]:
    sources = [(BuildingSpec(k, m), n) for k, m, n in product(ALL_KINDS, ms, range(n_max + 1))]
    # Every BFS runs before any closed form is built or expanded, so a size
    # whose profile meets the state cap fails before the long series expansions.
    profiles = [distance_profile(spec, way_out_vertex(n), d_max) for spec, n in sources]
    layers, basins = _walk_functions(ALL_KINDS, n_max)
    results: list[CheckResult] = []
    for (spec, n), profile in zip(sources, profiles):
        walks = (layers[spec.kind][n], basins[spec.kind][n])
        results.extend(oracle_series_check(spec, n, profile, walks))
    return results


def line_fixture_suite(n_max: int = 6, d_max: int = 14) -> list[CheckResult]:
    """Degenerate m = 1 line checks: closed forms and BFS agree.

    On the line, the vertex-basin layer function is (1 + X^{2n})/(1 - X^2)
    and the edge-basin basin function is (1 + X^2 + ... + X^{2n})/(1 - X).
    Each ``line oracle`` check folds the per-d checks of
    :func:`oracle_series_check` on the line into one.
    """
    kinds = (BasinKind.UNRAMIFIED, BasinKind.RAMIFIED)
    sources = [(BuildingSpec(kind, 1), n) for kind in kinds for n in range(n_max + 1)]
    profiles = [distance_profile(spec, way_out_vertex(n), d_max) for spec, n in sources]
    layers, basins = _walk_functions(kinds, n_max)
    results: list[CheckResult] = []
    for n in range(n_max + 1):
        # A single layer vertex at n = 0, two at distance 2n apart otherwise.
        expected = RationalFn(ONE if n == 0 else ONE + x_pow(2 * n), ONE - x_pow(2))
        ok = layers[BasinKind.UNRAMIFIED][n].subs_q(1) == expected
        results.append(CheckResult(f"line unramified layer n={n}", ok))
        expected = RationalFn(BiPoly(tuple((0, 2 * k, 1) for k in range(n + 1))), ONE - x_pow(1))
        ok = basins[BasinKind.RAMIFIED][n].subs_q(1) == expected
        results.append(CheckResult(f"line ramified basin n={n}", ok))
    for (spec, n), profile in zip(sources, profiles):
        walks = (layers[spec.kind][n], basins[spec.kind][n])
        ok = all_passed(oracle_series_check(spec, n, profile, walks))
        results.append(CheckResult(f"line oracle {spec.kind.value} n={n}", ok))
    return results


def _possible_types(case, bound: int):
    """Type vectors (g-tuples) with contribution at most the bound."""
    return [
        omega
        for omega in product(range(bound + 1), repeat=len(case.f_vec))
        if contribution(case, omega) <= bound
    ]


def arithmetic_suite(
    n_max: int,
    d_bound: int,
    primes: Optional[dict[BasinKind, tuple[int, ...]]] = None,
) -> list[CheckResult]:
    primes = DEFAULT_PRIMES if primes is None else primes
    results: list[CheckResult] = []
    for kind in ALL_KINDS:
        kind_primes = primes.get(kind, ())
        if not kind_primes:
            continue
        case = extension_case(kind)
        # One principal and one full function per (case, n), read at every prime.
        principals = [principal_zeta(case, n) for n in range(n_max + 1)]
        fulls = x_shift_sums(principals)
        for p in kind_primes:
            inst = make_case(kind, p)
            label = f"{kind.value} p={p}"
            for n in range(n_max + 1):
                # (a) unit indices by counting coset keys of unit norm.
                reps = coset_reps(inst, n)
                want = unit_index(case, n).subs_q(p).as_int()
                results.append(
                    CheckResult(
                        f"unit-index {label} n={n}",
                        len(reps) == want,
                        f"enumerated {len(reps)}, formula {want}",
                    )
                )
                # One atlas per (case, p, n) places every ideal.  Its tree
                # is built first, so the tree cap fails before the scan cap.
                atlas = ClassAtlas(inst, n, d_bound)
                tree = atlas.tree
                records = enumerate_ideals(inst, n, d_bound)
                principal = [r for r in records if r.principal]
                # (b) type histogram against the counting rules, and the
                # contribution of each type against the index exponent.
                histogram = Counter(r.type_eps for r in principal)
                predicted = {
                    omega: classify_type(case, n, omega).subs_q(p).as_int()
                    for omega in _possible_types(case, d_bound)
                }
                # Types outside the grid come last, with a prediction of 0.
                wrong = [
                    f"type {omega}: {histogram[omega]} enumerated, "
                    f"{predicted.get(omega, 0)} predicted"
                    for omega in {**predicted, **histogram}
                    if histogram[omega] != predicted.get(omega, 0)
                ] + [
                    f"type {r.type_eps}: contribution {c}, index exponent {k}"
                    for r in principal
                    if (c := contribution(case, r.type_eps)) != (k := r.lattice.index_exponent)
                ]
                results.append(
                    CheckResult(
                        f"type-histogram {label} n={n}", not wrong, wrong[0] if wrong else ""
                    )
                )
                # (c) principal and full series prefixes, by index exponent.
                principal_series = principal_count_series(principals[n], d_bound, p)
                for check, members, series in (
                    ("principal-series", principal, principal_series),
                    ("ideal-series", records, series_expand(fulls[n], d_bound).at_q(p)),
                ):
                    by_index = Counter(r.lattice.index_exponent for r in members)
                    results.append(
                        CheckResult(
                            f"{check} {label} n={n}",
                            all(by_index[d] == series[d] for d in range(d_bound + 1)),
                            f"observed {sorted(by_index.items())}",
                        )
                    )
                # (d) vertices: the principal classes are exactly the layer-n
                # vertices within contribution reach (the smallest
                # contribution at a vertex is its distance to the way out).
                vertex_set = {atlas.place(r.lattice) for r in principal}
                way_out = way_out_vertex(n)
                reachable = {
                    v
                    for v in layer_members(tree, n)
                    if distance(tree, v, way_out) <= d_bound
                }
                results.append(
                    CheckResult(
                        f"vertex-layer {label} n={n}",
                        vertex_set == reachable,
                        f"{len(vertex_set)} vertices",
                    )
                )
                # (e) principality: the generator search against the
                # multiplier-ring criterion, which never looks at norms.
                disagree = [
                    r
                    for r in records
                    if (multiplier_level(inst, n, r.lattice) == n) != r.principal
                ]
                results.append(
                    CheckResult(
                        f"principal-deciders {label} n={n}",
                        not disagree,
                        f"{len(records)} ideals, {len(disagree)} disagree",
                    )
                )
                # (d') every ideal at a vertex of its multiplier level.
                checked, failures = source_and_distance_check(atlas)
                detail = f"{checked} vertices checked"
                if failures:
                    detail += f", first failure {failures[0]}"
                results.append(
                    CheckResult(f"source-distance {label} n={n}", not failures, detail)
                )
                # (f) traveling map: bijection onto the next level's
                # non-principal ideals, one index step up.
                if n < n_max:
                    inner = enumerate_ideals(inst, n, d_bound - 1)
                    image = {traveling(inst, n, r.lattice) for r in inner}
                    nxt = enumerate_ideals(inst, n + 1, d_bound)
                    non_principal = {r.lattice for r in nxt if not r.principal}
                    results.append(
                        CheckResult(
                            f"traveling {label} n={n}->{n + 1}",
                            len(image) == len(inner) and image == non_principal,
                            f"{len(inner)} ideals mapped",
                        )
                    )
    return results
