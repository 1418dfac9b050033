import pytest
from hypothesis import given, settings, strategies as st

from impactzeta.building import (
    BasinKind,
    BuildingSpec,
    build_line_tree,
    build_truncated,
    way_out_vertex,
)
from impactzeta.errors import TruncationInsufficient, UnsupportedHeight
from impactzeta.genfun import (
    basin_genfun,
    check_geodesic_q,
    check_recurrence,
    check_recurrence_q,
    count_table,
    genfun_record,
    geodesic_genfun,
    geodesic_count_oracle,
    layer_genfun,
    oracle_series_check,
    reachable_count_closed,
    reachable_count_oracle,
)
from impactzeta.poly import ONE, RationalFn, series_expand, x_pow
from impactzeta.report import all_passed

UNRAM = BasinKind.UNRAMIFIED
RAM = BasinKind.RAMIFIED
SPLIT = BasinKind.SPLIT


def spec(kind, m):
    return BuildingSpec(kind, m)


def tree_for(kind, m, radius, extra=8):
    hw = radius + extra if kind is SPLIT else 0
    return build_truncated(spec(kind, m), radius, hw)


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
    tree = tree_for(SPLIT, m, n)
    v = way_out_vertex(tree.spec, n)
    oracle = reachable_count_oracle(tree, v, 2 * k, "layer")
    assert oracle == m**k
    assert oracle != m ** (k - 1)
    assert reachable_count_closed(tree.spec, n, 2 * k) == oracle


def test_split_growth_beyond_threshold():
    # At d = 2n + l the count is (l+1)(m-1)m^{n-1}, not l(m-1)m^{n-1}.
    m, n = 3, 1
    tree = tree_for(SPLIT, m, n, extra=10)
    v = way_out_vertex(tree.spec, n)
    for ell in range(5):
        oracle = reachable_count_oracle(tree, v, 2 * n + ell, "layer")
        assert oracle == (ell + 1) * (m - 1) * m ** (n - 1)


# -- oracle -----------------------------------------------------------------


def test_oracle_examples():
    unram = tree_for(UNRAM, 2, 2)
    assert reachable_count_oracle(unram, way_out_vertex(unram.spec, 2), 2) == 2
    ram = tree_for(RAM, 2, 1)
    assert reachable_count_oracle(ram, way_out_vertex(ram.spec, 1), 1, "basin") == 1
    split = tree_for(SPLIT, 2, 1)
    assert reachable_count_oracle(split, way_out_vertex(split.spec, 1), 0) == 1


def test_oracle_truncation_guard():
    split = build_truncated(spec(SPLIT, 2), 1, 2)
    with pytest.raises(TruncationInsufficient):
        reachable_count_oracle(split, way_out_vertex(split.spec, 1), 5)
    unram = tree_for(UNRAM, 2, 1)
    with pytest.raises(TruncationInsufficient):
        reachable_count_oracle(unram, way_out_vertex(unram.spec, 2), 1)


def test_oracle_rejects_unknown_height_class():
    tree = tree_for(UNRAM, 2, 1)
    with pytest.raises(ValueError):
        reachable_count_oracle(tree, way_out_vertex(tree.spec, 1), 2, "layers")


# -- referee: the per-d scan over the BFS distance map -----------------------

REFEREE_RADIUS = 4


def _scan_count(dist, h, d, which, exact):
    """Count the scan way: every vertex of the distance map, for one d."""
    count = 0
    for x, dx in dist.items():
        reached = dx == d if exact else dx <= d and (d - dx) % 2 == 0
        in_class = x.height == h if which == "layer" else x.height <= h
        if reached and in_class:
            count += 1
    return count


def _referee_tree(name):
    if name.startswith("line-"):
        return build_line_tree(BasinKind(name[5:]), REFEREE_RADIUS)
    kind, m = name.rsplit("-", 1)
    # Split walks of length 2R + 2 from anchor 0 need halfwidth 2R + 2.
    return tree_for(BasinKind(kind), int(m), REFEREE_RADIUS, extra=REFEREE_RADIUS + 2)


@pytest.mark.parametrize(
    "name",
    [f"{k.value}-{m}" for k in (UNRAM, RAM, SPLIT) for m in (2, 3)]
    + ["line-unramified", "line-ramified"],
)
def test_histogram_oracle_matches_scan_referee(name):
    tree = _referee_tree(name)
    for n in range(REFEREE_RADIUS + 1):
        v = way_out_vertex(tree.spec, n)
        dist = tree.bfs_distances(v)
        for d in range(2 * REFEREE_RADIUS + 3):
            for which in ("layer", "basin"):
                assert reachable_count_oracle(tree, v, d, which) == _scan_count(
                    dist, n, d, which, exact=False
                ), (n, d, which)
                assert geodesic_count_oracle(tree, v, d, which) == _scan_count(
                    dist, n, d, which, exact=True
                ), (n, d, which)


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
    g = geodesic_genfun(spec(RAM, 2), 0, "layer")
    assert g == RationalFn(ONE + x_pow(1), ONE)
    tree = tree_for(RAM, 2, 1)
    v = way_out_vertex(tree.spec, 0)
    assert geodesic_count_oracle(tree, v, 0) == 1
    assert geodesic_count_oracle(tree, v, 1) == 1
    # Vertex basin: geodesic basin flavor is (1 - X^2) * basin, a polynomial.
    record = genfun_record(spec(UNRAM, 2), 1)
    assert record.basin_geodesic.den == ONE
    assert record.basin_geodesic.num == ONE + x_pow(1) + 2 * x_pow(2)


def test_geodesic_relation_symbolic():
    for kind in (UNRAM, RAM, SPLIT):
        assert all_passed(check_geodesic_q(kind, 8))


def test_recurrence_reports():
    assert all_passed(check_recurrence(spec(UNRAM, 2), 6))
    assert all_passed(check_recurrence(spec(RAM, 5), 6))
    assert all_passed(check_recurrence(spec(SPLIT, 2), 6))
    for kind in (UNRAM, RAM, SPLIT):
        assert all_passed(check_recurrence_q(kind, 8))


# -- oracle equivalence ------------------------------------------------------


@pytest.mark.parametrize("kind", [UNRAM, RAM, SPLIT])
@pytest.mark.parametrize("m", [2, 3])
def test_oracle_equivalence_small_grid(kind, m):
    hw = 9 if kind is SPLIT else 0
    tree = build_truncated(spec(kind, m), 3, hw)
    for n in range(4):
        assert all_passed(oracle_series_check(tree, n, 8))


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
    hw = 11 if kind is SPLIT else 0
    tree = build_truncated(spec(kind, m), max(n, 1), hw)
    v = way_out_vertex(tree.spec, n)
    table = count_table(tree, v, 8)
    assert table.r[0] == 1
    for d in range(9):
        assert table.r[d] <= table.p[d]
    for d in range(2, 9):
        assert table.r[d] >= table.r[d - 2]
        assert table.p[d] >= table.p[d - 2]
