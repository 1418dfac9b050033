"""Homogeneous trees with a basin, layers, heights, and the way out.

The tree is homogeneous of degree ``m + 1``.  Three basin shapes are
supported: a single vertex (unramified), a single edge (ramified), and a
bi-infinite apartment (split).  Vertices carry basin-relative addresses
``(anchor, word)``: the anchor names the nearest basin vertex and the word
lists child indices along the path leaving the basin, so the height of a
vertex (its layer index) is simply the word length.

Anchors are integers: 0 for the unramified vertex, 0 and 1 for the ends of
the ramified edge, every integer j along the split apartment.  The trees,
the BFS and the p-adic ``ClassAtlas`` read the basin from one rule,
:func:`basin_neighbors`; a basin vertex's other edges lead to its children.
None of them reads the closed form's own count of those children, defined
below.  Child index 0 is reserved for the way-out direction, so the
way-out vertex of height n is always ``(0, (0,) * n)``.

The walk-count oracle needs no truncation: :func:`distance_profile` runs a
BFS over states (anchor, height, arrival edge), each carrying the number of
vertices in it, and never enters a vertex higher than its source.

A :class:`TruncatedTree` is an explicit finite piece of the tree, a map
from each vertex address to its neighbours built depth first from the
anchors.  It places the ideals for the p-adic ``ClassAtlas``, backs the
``tree`` command, and :meth:`TruncatedTree.bfs_distances` referees
:func:`distance` and :func:`distance_profile`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import LimitExceeded, RadiusTooSmall, UnknownVertex
from .poly import BiPoly

# Largest truncated tree, and most BFS states one distance profile may visit.
MAX_VERTICES = 200_000


class BasinKind(Enum):
    UNRAMIFIED = "unramified"
    RAMIFIED = "ramified"
    SPLIT = "split"


def basin_neighbors(kind: BasinKind, a: int) -> tuple[int, ...]:
    """The anchors joined to anchor ``a`` by a basin edge."""
    if kind is BasinKind.SPLIT:
        return (a - 1, a + 1)
    return (1 - a,) if kind is BasinKind.RAMIFIED else ()


@dataclass(frozen=True)
class BuildingSpec:
    """A basin kind together with the branching parameter m (degree m + 1).

    m = 1 gives the bi-infinite line, on which only the unramified and
    ramified basins sit; the split basin would be the whole line, so it
    needs m >= 2.
    """

    kind: BasinKind
    m: int

    def __post_init__(self):
        least = max(1, len(basin_neighbors(self.kind, 0)))
        if self.m < least:
            raise ValueError(f"m must be at least {least} on the {self.kind.value} basin")


@dataclass(frozen=True)
class VertexAddr:
    """Canonical basin-relative address of a vertex."""

    anchor: int
    word: tuple[int, ...] = ()

    @property
    def height(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        body = ".".join(map(str, self.word))
        return f"{self.anchor}" if not body else f"{self.anchor}:{body}"


def first_arity(kind: BasinKind, m: int | BiPoly) -> int | BiPoly:
    """The closed form's count of a basin vertex's off-basin children, for
    numeric m or symbolic m = q; the BFS that checks it reads only the basin."""
    if kind is BasinKind.UNRAMIFIED:
        return m + 1
    if kind is BasinKind.RAMIFIED:
        return m
    return m - 1


def _anchor_range(spec: BuildingSpec, halfwidth: int):
    if spec.kind is BasinKind.SPLIT:
        return list(range(-halfwidth, halfwidth + 1))
    return [0, *basin_neighbors(spec.kind, 0)]


class TruncatedTree:
    """An explicit finite piece of the tree, immutable after construction.

    ``adjacency`` maps every vertex address to its neighbour addresses, both
    keys and neighbours in ``(anchor, word)`` order; ``vertices`` lists the
    keys in that order; :func:`basin_neighbors` gives the basin edges.  It
    serves ``ClassAtlas``, the ``tree`` command and (:meth:`bfs_distances`)
    the tests as a referee; :func:`build_truncated` builds it.
    """

    def __init__(self, spec: BuildingSpec, radius: int, halfwidth: int = 0):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.spec = spec
        self.radius = radius
        self.halfwidth = halfwidth
        m = spec.m
        # A basin vertex's children: degree m + 1 less all its basin edges.
        sides = {a: basin_neighbors(spec.kind, a) for a in _anchor_range(spec, halfwidth)}
        above = sum(m**h for h in range(radius))
        size = sum(1 + (m + 1 - len(side)) * above for side in sides.values())
        if size > MAX_VERTICES:
            raise LimitExceeded(
                f"truncated tree {spec.kind.value} m={m} radius={radius} "
                f"halfwidth={halfwidth}: {size} vertices, above MAX_VERTICES = {MAX_VERTICES}"
            )

        basin = {
            VertexAddr(a): tuple(VertexAddr(b) for b in side if b in sides)
            for a, side in sides.items()
        }
        # Depth first, children in digit order: vertices enter in (anchor,
        # word) order.  A stack entry holds a vertex and its neighbours
        # nearer the basin, which precede its children in that order.
        adjacency: dict[VertexAddr, tuple[VertexAddr, ...]] = {}
        stack = list(basin.items())[::-1]
        while stack:
            u, inner = stack.pop()
            if u.height < radius:
                arity = m if u.word else m + 1 - len(sides[u.anchor])
                children = [VertexAddr(u.anchor, u.word + (c,)) for c in range(arity)]
                adjacency[u] = (*inner, *children)
                up = (u,)
                stack += [(w, up) for w in reversed(children)]
            else:
                adjacency[u] = inner
        # Only a basin vertex can have a neighbour (the next anchor) that
        # sorts after its children.
        for v in basin:
            adjacency[v] = tuple(sorted(adjacency[v], key=lambda w: (w.anchor, w.word)))
        self.adjacency = adjacency
        self.vertices = tuple(adjacency)

    def __contains__(self, v: VertexAddr) -> bool:
        return v in self.adjacency

    def __len__(self) -> int:
        return len(self.adjacency)

    def neighbors(self, v: VertexAddr) -> tuple[VertexAddr, ...]:
        try:
            return self.adjacency[v]
        except KeyError:
            raise UnknownVertex(str(v)) from None

    def bfs_distances(self, source: VertexAddr) -> dict[VertexAddr, int]:
        """Graph distances from ``source`` to every truncation vertex (uncached)."""
        dist = {source: 0}
        queue = [source]
        for u in queue:
            k = dist[u] + 1
            for w in self.neighbors(u):
                if w not in dist:
                    dist[w] = k
                    queue.append(w)
        return dist


def build_truncated(
    spec: BuildingSpec, radius: int, apartment_halfwidth: int = 0
) -> TruncatedTree:
    """Materialize all vertices of height <= radius (split: |j| <= halfwidth).

    Adjacency is complete for vertices of height < radius.  Raises
    :class:`LimitExceeded` when the vertex count would exceed ``MAX_VERTICES``.
    """
    if spec.kind is BasinKind.SPLIT and apartment_halfwidth < radius:
        raise ValueError("split truncation needs apartment_halfwidth >= radius")
    halfwidth = apartment_halfwidth if spec.kind is BasinKind.SPLIT else 0
    return TruncatedTree(spec, radius, halfwidth)


def build_line_tree(kind: BasinKind, radius: int) -> TruncatedTree:
    """Truncation of the degenerate m = 1 line."""
    return TruncatedTree(BuildingSpec(kind, 1), radius)


def distance_profile(
    spec: BuildingSpec, source: VertexAddr, radius: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-distance vertex counts ``(layer, basin)`` from ``source``, up to ``radius``.

    With h the height of ``source``, ``layer[k]`` counts the vertices of
    height exactly h at distance k, and ``basin[k]`` those of height at most
    h; both have length ``radius + 1``.  The BFS never enters a vertex above
    h.  That loses none of them: height is the distance to the basin, a
    convex subtree, so along a geodesic it is largest at one of the two ends
    (Serre, *Trees*, ch. II).

    The BFS runs on states ``(anchor, height, arrival)``, the arrival being
    how the vertex was entered: as the source, from its parent, from a child
    or from a neighbouring anchor.  Vertices in one state have the same
    onward steps, so each state carries the number of vertices in it (the
    transfer-matrix method: Stanley, *Enumerative Combinatorics* I, 4.7).
    The steps read :func:`basin_neighbors`, never the closed form's arity.
    Each visited state counts against ``MAX_VERTICES``.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    m, kind = spec.m, spec.kind
    a0, word = source.anchor, source.word
    if a0 not in _anchor_range(spec, abs(a0)) or not all(
        0 <= c < (m if i else m + 1 - len(basin_neighbors(kind, a0))) for i, c in enumerate(word)
    ):
        raise UnknownVertex(str(source))
    h, visited = len(word), 0
    layer, basin = [], []
    frontier = Counter({(a0, h, "source"): 1})
    for k in range(radius + 1):
        visited += len(frontier)
        if visited > MAX_VERTICES:
            raise LimitExceeded(
                f"distance profile {spec.kind.value} m={m} source={source} "
                f"radius={radius}: {visited} states, above MAX_VERTICES = {MAX_VERTICES}"
            )
        layer.append(sum(count for (_, t, _), count in frontier.items() if t == h))
        basin.append(sum(frontier.values()))
        if k == radius:
            break
        # In a tree every neighbour but the one a vertex was entered from is
        # one step further from the source.
        nxt: Counter = Counter()
        for (a, t, arrival), count in frontier.items():
            side = () if t else basin_neighbors(kind, a)
            # Up to every child but the one it came from, of m, or m + 1 less
            # the basin edges at the basin (none at m = 1 or split m = 2).
            children = (m if t else m + 1 - len(side)) - (arrival == "child")
            if t < h and children:
                nxt[a, t + 1, "parent"] += count * children
            if t and arrival != "parent":
                nxt[a, t - 1, "child"] += count
            # Along the basin, away from the source's anchor.
            for b in side:
                if abs(b - a0) > abs(a - a0):
                    nxt[b, 0, "side"] += count
        frontier = nxt
    return tuple(layer), tuple(basin)


def distance(tree: TruncatedTree, u: VertexAddr, v: VertexAddr) -> int:
    """Length of the unique geodesic, from the closed-form address rule.

    Same anchor: drop the common word prefix and count remaining letters.
    Different anchors: both words in full, plus the basin separation of the
    anchors, which sit at consecutive integers.  The BFS route is available
    separately for cross-checks.
    """
    if u not in tree:
        raise UnknownVertex(str(u))
    if v not in tree:
        raise UnknownVertex(str(v))
    if u.anchor == v.anchor:
        common = 0
        for a, b in zip(u.word, v.word):
            if a != b:
                break
            common += 1
        return len(u.word) + len(v.word) - 2 * common
    return len(u.word) + len(v.word) + abs(u.anchor - v.anchor)


def layer_members(tree: TruncatedTree, n: int) -> frozenset[VertexAddr]:
    """All truncation vertices of height exactly n."""
    if n > tree.radius:
        raise RadiusTooSmall(f"layer {n} not covered by radius {tree.radius}")
    return frozenset(v for v in tree.vertices if v.height == n)


def way_out_vertex(n: int) -> VertexAddr:
    """The canonical height-n vertex on the way out: all-zero word off anchor 0."""
    if n < 0:
        raise ValueError("height must be nonnegative")
    return VertexAddr(0, (0,) * n)
