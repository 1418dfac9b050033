from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from impactzeta.building import (
    BasinKind,
    BuildingSpec,
    build_line_tree,
    build_truncated,
    distance_profile,
    way_out_vertex,
)
from impactzeta import genfun
from impactzeta.errors import NotDivisible, TruncationInsufficient, UnsupportedHeight
from impactzeta.genfun import (
    basin_genfun,
    basin_genfun_q,
    check_geodesic_q,
    check_recurrence_q,
    geodesic_genfun_q,
    layer_genfun,
    layer_genfun_q,
    oracle_series_check,
    reachable_count_closed,
    reachable_count_oracle,
)
from impactzeta.poly import ONE, RationalFn, exact_div, series_expand, x_pow
from impactzeta.report import all_passed

UNRAM = BasinKind.UNRAMIFIED
RAM = BasinKind.RAMIFIED
SPLIT = BasinKind.SPLIT


def spec(kind, m):
    return BuildingSpec(kind, m)


def oracle(kind, m, n, d, which="layer"):
    """r(d, O_n) or p(d, O_n) from the distance profile of the way-out vertex."""
    profile = distance_profile(spec(kind, m), way_out_vertex(n), d)
    return reachable_count_oracle(profile, d, which)


# -- closed-form counts ----------------------------------------------------


def test_closed_counts_examples():
    assert reachable_count_closed(spec(UNRAM, 2), 2, 4) == 6
    assert reachable_count_closed(spec(RAM, 3), 1, 5) == 3
    assert reachable_count_closed(spec(SPLIT, 3), 1, 2) == 2
    assert reachable_count_closed(spec(UNRAM, 2), 2, 3) == 0


def test_closed_counts_need_positive_height():
    with pytest.raises(UnsupportedHeight):
        reachable_count_closed(spec(UNRAM, 2), 0, 2)


def test_split_even_counts_below_threshold():
    # The even coefficient below the saturation threshold is m^k; the
    # off-by-one alternative m^{k-1} disagrees with the BFS oracle.
    m, n, k = 3, 2, 1
    count = oracle(SPLIT, m, n, 2 * k)
    assert count == m**k
    assert count != m ** (k - 1)
    assert reachable_count_closed(spec(SPLIT, m), n, 2 * k) == count


def test_split_growth_beyond_threshold():
    # At d = 2n + l the count is (l+1)(m-1)m^{n-1}, not l(m-1)m^{n-1}.
    m, n = 3, 1
    for ell in range(5):
        count = oracle(SPLIT, m, n, 2 * n + ell)
        assert count == (ell + 1) * (m - 1) * m ** (n - 1)


# -- oracle -----------------------------------------------------------------


def test_oracle_examples():
    assert oracle(UNRAM, 2, 2, 2) == 2
    assert oracle(RAM, 2, 1, 1, "basin") == 1
    assert oracle(SPLIT, 2, 1, 0) == 1


def test_oracle_truncation_guard():
    profile = distance_profile(spec(SPLIT, 2), way_out_vertex(1), 2)
    with pytest.raises(TruncationInsufficient):
        reachable_count_oracle(profile, 5)
    assert reachable_count_oracle(profile, -1) == 0


def test_oracle_running_sums_follow_the_profile_read():
    # Two profiles read in turn: each read must use its own running sums,
    # which equal the slice sums over d, d - 2, ..., d mod 2.
    profiles = [
        distance_profile(spec(kind, 2), way_out_vertex(2), 9)
        for kind in (UNRAM, SPLIT)
    ]
    for d in range(10):
        for profile in profiles + profiles[::-1]:
            for which, counts in zip(("layer", "basin"), profile):
                assert reachable_count_oracle(profile, d, which) == sum(
                    counts[d % 2 : d + 1 : 2]
                )


def test_oracle_keeps_the_running_sums_of_the_last_profile_only():
    # The module-level memo is bounded at one entry: the profile read last
    # and its (layer, basin) running sums, nothing of the profiles before.
    profiles = [
        distance_profile(spec(kind, 2), way_out_vertex(1), 6)
        for kind in (UNRAM, RAM, SPLIT)
    ]
    for profile in profiles:
        reachable_count_oracle(profile, 3)
    last = profiles[-1]
    assert len(genfun._running) == 2
    assert genfun._running[0] is last
    assert genfun._running[1] == [
        [sum(counts[d % 2 : d + 1 : 2]) for d in range(len(counts))] for counts in last
    ]


def test_oracle_rejects_unknown_height_class():
    profile = distance_profile(spec(UNRAM, 2), way_out_vertex(1), 2)
    with pytest.raises(ValueError):
        reachable_count_oracle(profile, 2, "layers")


# -- referee: the scan over the full-tree BFS distance map -------------------

REFEREE_RADIUS = 4
REFEREE_MAX_D = 2 * REFEREE_RADIUS + 2


def _scan_count(hist, h, d, which):
    """Count the scan way: every (distance, height) bin of the distance map, for one d."""
    count = 0
    for (dx, hx), vertices in hist.items():
        reached = dx <= d and (d - dx) % 2 == 0
        in_class = hx == h if which == "layer" else hx <= h
        if reached and in_class:
            count += vertices
    return count


def _referee_tree(name):
    if name.startswith("line-"):
        return build_line_tree(BasinKind(name[5:]), REFEREE_RADIUS)
    kind, m = name.rsplit("-", 1)
    halfwidth = REFEREE_MAX_D if kind == SPLIT.value else 0
    return build_truncated(spec(BasinKind(kind), int(m)), REFEREE_RADIUS, halfwidth)


def _covered_d(tree, v):
    """Largest d whose ball (height <= h(v), distance <= d from v) is in the tree.

    Every height up to the radius is covered; on the split basin that ball
    reaches the anchors within d - h(v) of the anchor of v.
    """
    if tree.spec.kind is SPLIT:
        return min(REFEREE_MAX_D, tree.halfwidth - abs(v.anchor) + v.height)
    return REFEREE_MAX_D


@pytest.mark.parametrize(
    "name",
    [f"{k.value}-{m}" for k in (UNRAM, RAM, SPLIT) for m in (2, 3)]
    + ["line-unramified", "line-ramified"],
)
def test_histogram_oracle_matches_scan_referee(name):
    # Every source of height <= 2, not only the way-out vertices: split
    # anchors other than 0 and the second ramified anchor take other
    # neighbour rules at the basin.  Higher up, the way-out vertices.
    tree = _referee_tree(name)
    sources = [v for v in tree.vertices if v.height <= 2] + [
        way_out_vertex(n) for n in range(3, REFEREE_RADIUS + 1)
    ]
    for v in sources:
        max_d = _covered_d(tree, v)
        profile = distance_profile(tree.spec, v, max_d)
        hist = Counter((dx, x.height) for x, dx in tree.bfs_distances(v).items())
        for d in range(max_d + 1):
            for which in ("layer", "basin"):
                assert reachable_count_oracle(profile, d, which) == _scan_count(
                    hist, v.height, d, which
                ), (v, d, which)


# -- closed forms -----------------------------------------------------------


def test_layer_genfun_examples():
    one_minus_x = ONE - x_pow(1)
    one_minus_x2 = ONE - x_pow(2)
    f = layer_genfun(spec(UNRAM, 2), 1)
    assert f == RationalFn(ONE + 2 * x_pow(2), one_minus_x2)
    g = layer_genfun(spec(RAM, 2), 1)
    assert g == RationalFn(ONE - x_pow(1) + 2 * x_pow(2), one_minus_x)
    h = layer_genfun(spec(SPLIT, 2), 1)
    assert h == RationalFn(ONE - 2 * x_pow(1) + 2 * x_pow(2), one_minus_x**2)
    base = layer_genfun(spec(UNRAM, 2), 0)
    assert base == RationalFn(ONE, one_minus_x2)


def test_basin_genfun_examples():
    one_minus_x = ONE - x_pow(1)
    one_minus_x2 = ONE - x_pow(2)
    f = basin_genfun(spec(UNRAM, 3), 1)
    assert f == RationalFn(ONE + x_pow(1) + 3 * x_pow(2), one_minus_x2)
    g = basin_genfun(spec(RAM, 3), 2)
    assert g == RationalFn(ONE + 3 * x_pow(2) + 9 * x_pow(4), one_minus_x)
    h = basin_genfun(spec(SPLIT, 3), 1)
    assert h == RationalFn(ONE - x_pow(1) + 3 * x_pow(2), one_minus_x**2)


def test_split_layer_numerator_at_n2():
    # Direct expansion: (1-X)^2 (1 + mX^2) + (m-1) m X^4 over (1-X)^2.
    m = 2
    f = layer_genfun(spec(SPLIT, m), 2)
    expected_num = (
        ONE
        - 2 * x_pow(1)
        + (1 + m) * x_pow(2)
        - 2 * m * x_pow(3)
        + m * m * x_pow(4)
    )
    assert f.num == expected_num


def test_geodesic_examples():
    # Edge basin, n = 0: one basin vertex at distance 0, one at distance 1.
    g = geodesic_genfun_q(RAM, layer_genfun(spec(RAM, 2), 0))
    assert g == RationalFn(ONE + x_pow(1), ONE)
    layer_at_distance = distance_profile(spec(RAM, 2), way_out_vertex(0), 1)[0]
    assert layer_at_distance[:2] == (1, 1)
    # Vertex basin: geodesic basin flavor is (1 - X^2) * basin, a polynomial.
    basin_geodesic = geodesic_genfun_q(UNRAM, basin_genfun(spec(UNRAM, 2), 1))
    assert basin_geodesic.den == ONE
    assert basin_geodesic.num == ONE + x_pow(1) + 2 * x_pow(2)


def _walks(kind, n_max):
    """The layer and basin functions from O_0, ..., O_{n_max}, q symbolic."""
    heights = range(n_max + 1)
    return [layer_genfun_q(kind, n) for n in heights], [basin_genfun_q(kind, n) for n in heights]


def test_geodesic_relation_symbolic():
    for kind in (UNRAM, RAM, SPLIT):
        assert all_passed(check_geodesic_q(kind, *_walks(kind, 8)))


@pytest.mark.parametrize("kind", [UNRAM, RAM, SPLIT])
def test_geodesic_cofactor_equals_dividing_the_product(kind):
    """Referee: the geodesic flavour as (1 - X^2) * num divided by den, with
    den the walk denominator, resp. 1 - X in the split case."""
    one_minus_x2 = ONE - x_pow(2)
    for walks in _walks(kind, 12):
        for walk in walks:
            den = ONE - x_pow(1) if kind is SPLIT else walk.den
            geo = geodesic_genfun_q(kind, walk)
            assert geo.num == exact_div(one_minus_x2 * walk.num, den)
            assert geo.den == (den if kind is SPLIT else ONE)


@pytest.mark.parametrize("kind", [UNRAM, RAM])
def test_geodesic_of_a_finite_basin_walk_over_a_cubed_tail_raises(kind):
    walk = RationalFn(layer_genfun_q(kind, 3).num, (ONE - x_pow(1)) ** 3)
    with pytest.raises(NotDivisible):
        geodesic_genfun_q(kind, walk)


def test_recurrence_reports():
    for kind in (UNRAM, RAM, SPLIT):
        assert all_passed(check_recurrence_q(kind, *_walks(kind, 8)))


# -- oracle equivalence ------------------------------------------------------


@pytest.mark.parametrize("kind", [UNRAM, RAM, SPLIT])
@pytest.mark.parametrize("m", [2, 3])
def test_oracle_equivalence_small_grid(kind, m):
    for n in range(4):
        source = way_out_vertex(n)
        profile = distance_profile(spec(kind, m), source, 8)
        walks = (layer_genfun_q(kind, n), basin_genfun_q(kind, n))
        assert all_passed(oracle_series_check(spec(kind, m), n, profile, walks))


def test_parity_laws():
    # Unramified layer coefficients vanish at odd d; ramified coefficients
    # are constant in d once d >= 2n.
    s = series_expand(layer_genfun(spec(UNRAM, 3), 2), 11).at_q(0)
    assert all(s[d] == 0 for d in range(1, 12, 2))
    r = series_expand(layer_genfun(spec(RAM, 3), 2), 11).at_q(0)
    assert len({r[d] for d in range(4, 12)}) == 1


def test_monotone_saturation():
    m, n = 3, 2
    for kind, plateau in [(UNRAM, (m + 1) * m ** (n - 1)), (RAM, m**n)]:
        for d in range(2 * n, 2 * n + 6):
            expected = plateau if (kind is RAM or d % 2 == 0) else 0
            assert reachable_count_closed(spec(kind, m), n, d) == expected
    slope = (m - 1) * m ** (n - 1)
    counts = [reachable_count_closed(spec(SPLIT, m), n, 2 * n + ell) for ell in range(5)]
    assert [b - a for a, b in zip(counts, counts[1:])] == [slope] * 4


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([UNRAM, RAM, SPLIT]),
    st.integers(2, 3),
    st.integers(0, 3),
)
def test_count_table_invariants(kind, m, n):
    profile = distance_profile(spec(kind, m), way_out_vertex(n), 8)
    r = [reachable_count_oracle(profile, d, "layer") for d in range(9)]
    p = [reachable_count_oracle(profile, d, "basin") for d in range(9)]
    assert r[0] == 1
    for d in range(9):
        assert r[d] <= p[d]
    for d in range(2, 9):
        assert r[d] >= r[d - 2]
        assert p[d] >= p[d - 2]
