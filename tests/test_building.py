import itertools

import pytest
from hypothesis import given, settings, strategies as st

from impactzeta import building
from impactzeta.building import (
    BasinKind,
    BuildingSpec,
    VertexAddr,
    build_line_tree,
    build_truncated,
    distance,
    distance_profile,
    first_arity,
    layer_members,
    way_out_vertex,
)
from impactzeta.errors import LimitExceeded, RadiusTooSmall, UnknownVertex


def test_spec_domain():
    # m = 1 is the line, on which the split basin would be the whole tree.
    for kind in BasinKind:
        with pytest.raises(ValueError, match="at least"):
            BuildingSpec(kind, 0)
    with pytest.raises(ValueError, match="at least 2 on the split basin"):
        BuildingSpec(BasinKind.SPLIT, 1)
    for kind in (BasinKind.UNRAMIFIED, BasinKind.RAMIFIED):
        assert BuildingSpec(kind, 1).m == 1
    for r in range(5):
        assert len(build_line_tree(BasinKind.UNRAMIFIED, r)) == 2 * r + 1
        assert len(build_line_tree(BasinKind.RAMIFIED, r)) == 2 * r + 2


def test_unramified_vertex_count():
    tree = build_truncated(BuildingSpec(BasinKind.UNRAMIFIED, 2), 3)
    assert len(tree) == 22  # 1 + 3 + 6 + 12


def test_ramified_vertex_count():
    tree = build_truncated(BuildingSpec(BasinKind.RAMIFIED, 2), 1)
    assert len(tree) == 6  # 2 basin + 2m


def test_split_radius_zero_is_path():
    tree = build_truncated(BuildingSpec(BasinKind.SPLIT, 2), 0, 4)
    assert len(tree) == 9
    degrees = sorted(len(tree.adjacency[v]) for v in tree.vertices)
    assert degrees == [1, 1, 2, 2, 2, 2, 2, 2, 2]


def test_split_requires_halfwidth():
    with pytest.raises(ValueError):
        build_truncated(BuildingSpec(BasinKind.SPLIT, 2), 3, 1)


def _build(kind, m, radius):
    """A truncation of each kind; m = 1 gives the line trees."""
    if m == 1:
        return build_line_tree(kind, radius)
    return build_truncated(BuildingSpec(kind, m), radius, radius)


@pytest.mark.parametrize(
    "kind,m,radius",
    [(kind, m, radius) for kind in BasinKind for m in (2, 3) for radius in (0, 1, 3)]
    + [(BasinKind.UNRAMIFIED, 1, 3), (BasinKind.RAMIFIED, 1, 3)],
)
def test_vertex_cap(monkeypatch, kind, m, radius):
    # The cap is checked against the predicted count before any vertex is
    # built; at the exact count the build succeeds, one below it fails.
    size = len(_build(kind, m, radius))
    monkeypatch.setattr(building, "MAX_VERTICES", size)
    assert len(_build(kind, m, radius)) == size
    monkeypatch.setattr(building, "MAX_VERTICES", size - 1)
    with pytest.raises(LimitExceeded):
        _build(kind, m, radius)


def test_cap_errors_name_what_overflowed(monkeypatch):
    monkeypatch.setattr(building, "MAX_VERTICES", 20)
    with pytest.raises(
        LimitExceeded,
        match=r"^truncated tree ramified m=3 radius=2 halfwidth=0: "
        r"26 vertices, above MAX_VERTICES = 20$",
    ):
        build_truncated(BuildingSpec(BasinKind.RAMIFIED, 3), 2)
    spec = BuildingSpec(BasinKind.SPLIT, 3)
    with pytest.raises(
        LimitExceeded,
        match=r"^distance profile split m=3 source=0:0\.0 radius=40: "
        r"\d+ states, above MAX_VERTICES = 20$",
    ):
        distance_profile(spec, way_out_vertex(2), 40)


def test_heights():
    # The height of an address is its graph distance to the basin edge.
    tree = build_truncated(BuildingSpec(BasinKind.RAMIFIED, 2), 2)
    for v, h in [
        (VertexAddr(0), 0),
        (VertexAddr(1), 0),
        (VertexAddr(1, (1,)), 1),
        (VertexAddr(0, (0, 1)), 2),
    ]:
        dist = tree.bfs_distances(v)
        assert v.height == h == min(dist[VertexAddr(0)], dist[VertexAddr(1)])
    assert VertexAddr(7) not in tree
    with pytest.raises(UnknownVertex):
        tree.neighbors(VertexAddr(7))


def test_address_strings():
    # The export format: the anchor, then the word joined by dots.
    addrs = [VertexAddr(-2), VertexAddr(1, (1,)), VertexAddr(0, (0, 12, 3))]
    assert [str(v) for v in addrs] == ["-2", "1:1", "0:0.12.3"]


def test_distance_examples():
    ram = build_truncated(BuildingSpec(BasinKind.RAMIFIED, 2), 2)
    assert distance(ram, VertexAddr(0), VertexAddr(1)) == 1  # across the edge
    assert distance(ram, way_out_vertex(0), way_out_vertex(2)) == 2
    split = build_truncated(BuildingSpec(BasinKind.SPLIT, 2), 1, 4)
    # way-out O_1 to the off-apartment neighbor of apartment position 2:
    # 1 down + 2 along + 1 up.
    assert distance(split, VertexAddr(0, (0,)), VertexAddr(2, (0,))) == 4


def test_layer_members_counts():
    unram = build_truncated(BuildingSpec(BasinKind.UNRAMIFIED, 2), 3)
    assert len(layer_members(unram, 3)) == 12  # (m+1) m^{n-1}
    ram = build_truncated(BuildingSpec(BasinKind.RAMIFIED, 3), 2)
    assert len(layer_members(ram, 2)) == 18  # 2 m^n
    split = build_truncated(BuildingSpec(BasinKind.SPLIT, 2), 1, 3)
    assert layer_members(split, 0) == frozenset(VertexAddr(j) for j in range(-3, 4))
    with pytest.raises(RadiusTooSmall):
        layer_members(unram, 4)


def test_way_out_vertices():
    spec = BuildingSpec(BasinKind.UNRAMIFIED, 2)
    tree = build_truncated(spec, 4)
    for i, j in itertools.combinations(range(5), 2):
        oi, oj = way_out_vertex(i), way_out_vertex(j)
        assert distance(tree, oi, oj) == abs(i - j)
        assert oi in tree and oi.height == i


@pytest.mark.parametrize(
    "kind,m,radius,halfwidth",
    [
        (BasinKind.UNRAMIFIED, 2, 3, 0),
        (BasinKind.UNRAMIFIED, 3, 2, 0),
        (BasinKind.RAMIFIED, 2, 3, 0),
        (BasinKind.RAMIFIED, 3, 2, 0),
        (BasinKind.SPLIT, 2, 2, 4),
        (BasinKind.SPLIT, 3, 2, 3),
    ],
)
def test_bfs_matches_closed_form_exhaustively(kind, m, radius, halfwidth):
    tree = build_truncated(BuildingSpec(kind, m), radius, halfwidth)
    for u in tree.vertices:
        dist = tree.bfs_distances(u)
        for v in tree.vertices:
            assert dist[v] == distance(tree, u, v), (u, v)


def test_neighbor_heights_differ_by_one_except_in_basin():
    for kind, hw in [
        (BasinKind.UNRAMIFIED, 0),
        (BasinKind.RAMIFIED, 0),
        (BasinKind.SPLIT, 3),
    ]:
        tree = build_truncated(BuildingSpec(kind, 2), 2, hw)
        for v in tree.vertices:
            for w in tree.adjacency[v]:
                if v.height == 0 and w.height == 0:
                    continue
                assert abs(v.height - w.height) == 1


def test_interior_degree_is_m_plus_one():
    for kind, hw in [
        (BasinKind.UNRAMIFIED, 0),
        (BasinKind.RAMIFIED, 0),
        (BasinKind.SPLIT, 4),
    ]:
        m = 3
        tree = build_truncated(BuildingSpec(kind, m), 2, hw)
        for v in tree.vertices:
            interior = v.height < tree.radius
            if kind is BasinKind.SPLIT and abs(v.anchor) >= tree.halfwidth:
                interior = False
            if interior:
                assert len(tree.adjacency[v]) == m + 1, v


def test_line_tree_unramified():
    tree = build_line_tree(BasinKind.UNRAMIFIED, 4)
    assert tree.spec.m == 1
    assert len(layer_members(tree, 0)) == 1
    for n in range(1, 5):
        assert len(layer_members(tree, n)) == 2
    members = sorted(layer_members(tree, 2), key=lambda v: (v.anchor, v.word))
    assert distance(tree, members[0], members[1]) == 4


def test_line_tree_ramified():
    tree = build_line_tree(BasinKind.RAMIFIED, 3)
    assert len(layer_members(tree, 0)) == 2
    for n in range(1, 4):
        assert len(layer_members(tree, n)) == 2


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([BasinKind.UNRAMIFIED, BasinKind.RAMIFIED, BasinKind.SPLIT]),
    st.integers(2, 4),
    st.data(),
)
def test_bfs_matches_closed_form_random_pairs(kind, m, data):
    radius = 3 if m == 2 else 2
    hw = 4 if kind is BasinKind.SPLIT else 0
    tree = build_truncated(BuildingSpec(kind, m), radius, hw)
    u = data.draw(st.sampled_from(tree.vertices))
    v = data.draw(st.sampled_from(tree.vertices))
    assert distance(tree, u, v) == tree.bfs_distances(u)[v]


def _reference_tree(kind, m, radius, halfwidth):
    """Address-keyed construction, layer by layer, with sorted adjacency."""
    if kind is BasinKind.UNRAMIFIED:
        anchors = [0]
    elif kind is BasinKind.RAMIFIED:
        anchors = [0, 1]
    else:
        anchors = list(range(-halfwidth, halfwidth + 1))
    adjacency = {VertexAddr(j): [] for j in anchors}
    for a, b in zip(anchors, anchors[1:]):
        adjacency[VertexAddr(a)].append(VertexAddr(b))
        adjacency[VertexAddr(b)].append(VertexAddr(a))
    frontier = [VertexAddr(j) for j in anchors]
    for depth in range(radius):
        arity = first_arity(kind, m) if depth == 0 else m
        next_frontier = []
        for parent in frontier:
            for i in range(arity):
                child = VertexAddr(parent.anchor, parent.word + (i,))
                adjacency[child] = [parent]
                adjacency[parent].append(child)
                next_frontier.append(child)
        frontier = next_frontier
    key = lambda v: (v.anchor, v.word)  # noqa: E731
    vertices = tuple(sorted(adjacency, key=key))
    return vertices, {v: tuple(sorted(ns, key=key)) for v, ns in adjacency.items()}


@pytest.mark.parametrize(
    "kind,m,radius,halfwidth",
    [
        (kind, m, radius, 3 if kind is BasinKind.SPLIT else 0)
        for kind in BasinKind
        for m in (2, 3)
        for radius in (0, 1, 3)
    ]
    + [(BasinKind.SPLIT, 2, 2, 5)],
)
def test_array_tree_matches_address_construction(kind, m, radius, halfwidth):
    tree = build_truncated(BuildingSpec(kind, m), radius, halfwidth)
    vertices, adjacency = _reference_tree(kind, m, radius, halfwidth)
    assert tree.vertices == vertices
    assert tree.adjacency == adjacency
    assert len(tree) == len(vertices)
    for v in vertices:
        assert v in tree
        assert tree.neighbors(v) == adjacency[v]
    outside = [
        VertexAddr(halfwidth + 2),
        VertexAddr(0, (first_arity(kind, m),)),
        VertexAddr(0, (0,) * (radius + 1)),
        VertexAddr(0, (-1,)),
        "0",
    ]
    for v in outside:
        assert v not in tree
    with pytest.raises(UnknownVertex):
        tree.neighbors(VertexAddr(0, (0,) * (radius + 1)))
    with pytest.raises(UnknownVertex):
        tree.bfs_distances(VertexAddr(0, (0,) * (radius + 1)))


@pytest.mark.parametrize("kind", [BasinKind.UNRAMIFIED, BasinKind.RAMIFIED])
def test_line_tree_matches_address_construction(kind):
    tree = build_line_tree(kind, 5)
    vertices, adjacency = _reference_tree(kind, 1, 5, 0)
    assert tree.vertices == vertices
    assert tree.adjacency == adjacency


@pytest.mark.parametrize("kind", [BasinKind.UNRAMIFIED, BasinKind.RAMIFIED])
def test_deep_line_tree_builds_without_recursion(kind):
    radius = 2000
    tree = build_line_tree(kind, radius)
    basin = 1 if kind is BasinKind.UNRAMIFIED else 2
    assert len(tree) == basin + 2 * radius
    far = way_out_vertex(radius)
    assert far in tree
    # From O_R the only other height-R vertex is the far end of the line.
    layer, _ = distance_profile(tree.spec, far, 2 * radius + basin - 1)
    assert len(layer) == 2 * radius + basin
    assert layer[0] == layer[-1] == 1 and sum(layer) == 2


@pytest.mark.parametrize(
    "kind,address",
    [
        (BasinKind.UNRAMIFIED, VertexAddr(1)),
        (BasinKind.UNRAMIFIED, VertexAddr(0, (3,))),
        (BasinKind.RAMIFIED, VertexAddr(2)),
        (BasinKind.RAMIFIED, VertexAddr(1, (2,))),
        (BasinKind.SPLIT, VertexAddr(-5, (1,))),
        (BasinKind.SPLIT, VertexAddr(3, (0, 2))),
        (BasinKind.SPLIT, VertexAddr(0, (-1,))),
    ],
)
def test_distance_profile_rejects_addresses_outside_the_tree(kind, address):
    with pytest.raises(UnknownVertex):
        distance_profile(BuildingSpec(kind, 2), address, 3)


def test_distance_profile_refuses_a_negative_radius():
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        distance_profile(BuildingSpec(BasinKind.SPLIT, 2), way_out_vertex(1), -1)
