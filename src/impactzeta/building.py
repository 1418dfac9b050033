"""Homogeneous trees with a basin, layers, heights, and the way out.

The tree is homogeneous of degree ``m + 1``.  Three basin shapes are
supported: a single vertex (unramified), a single edge (ramified), and a
bi-infinite apartment (split).  Vertices carry basin-relative addresses
``(anchor, word)``: the anchor names the nearest basin vertex and the word
lists child indices along the path leaving the basin, so the height of a
vertex (its layer index) is simply the word length.

Anchors are encoded as integers: the unramified basin has the single anchor
0; the ramified edge has anchors 0 and 1 (1 being the second endpoint); the
split apartment has one anchor per integer position j.  Child index 0 is
reserved for the way-out direction, so the way-out vertex of height n is
always ``(0, (0,) * n)``.

A :class:`TruncatedTree` is stored as integer-indexed arrays.  Vertices are
numbered in ``(anchor, word)`` order, which is a depth-first pre-order of
each anchor's subtree, so the numbering needs no sort.  Per vertex the tree
keeps its ``parent`` number (-1 on the basin), the child ``digit`` it hangs
from, its ``height`` and its neighbor numbers in increasing order.  Every
subtree below height 1 is complete, so an address is turned into its
number by arithmetic on subtree sizes.  Addresses are the edge of the API
only: the ``vertices`` and ``adjacency`` views in address form are built on
first use, and the BFS behind the walk-count oracle runs on numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum

from .errors import LimitExceeded, RadiusTooSmall, UnknownVertex

DEFAULT_MAX_VERTICES = 200_000
# Distance profiles kept per tree (one per BFS source, oldest dropped first).
PROFILE_CACHE_SIZE = 64


class BasinKind(Enum):
    UNRAMIFIED = "unramified"
    RAMIFIED = "ramified"
    SPLIT = "split"


@dataclass(frozen=True)
class BuildingSpec:
    """A basin kind together with the branching parameter m (degree m + 1)."""

    kind: BasinKind
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("branching parameter m must be at least 2")


def _line_spec(kind: BasinKind) -> BuildingSpec:
    # Degenerate m = 1 fixture: the tree is a line.  Only the test
    # constructor below uses this; it bypasses the m >= 2 validation.
    spec = object.__new__(BuildingSpec)
    object.__setattr__(spec, "kind", kind)
    object.__setattr__(spec, "m", 1)
    return spec


@dataclass(frozen=True)
class VertexAddr:
    """Canonical basin-relative address of a vertex."""

    anchor: int
    word: tuple[int, ...] = ()

    @property
    def height(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        body = ".".join(str(i) for i in self.word)
        return f"{self.anchor}" if not body else f"{self.anchor}:{body}"


def first_arity(kind: BasinKind, m: int) -> int:
    """Number of off-basin children of a basin vertex."""
    if kind is BasinKind.UNRAMIFIED:
        return m + 1
    if kind is BasinKind.RAMIFIED:
        return m
    return m - 1


def _anchor_range(spec: BuildingSpec, halfwidth: int):
    if spec.kind is BasinKind.UNRAMIFIED:
        return [0]
    if spec.kind is BasinKind.RAMIFIED:
        return [0, 1]
    return list(range(-halfwidth, halfwidth + 1))


class TruncatedTree:
    """An explicit finite piece of the tree, immutable after construction.

    Built by :func:`build_truncated` and :func:`build_line_tree`.
    """

    def __init__(self, spec: BuildingSpec, radius: int, halfwidth: int = 0):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        self.spec = spec
        self.radius = radius
        self.halfwidth = halfwidth
        m = spec.m
        self._arity0 = arity0 = first_arity(spec.kind, m)
        # _sizes[h]: vertices in the subtree of an off-basin vertex of height h.
        self._sizes = sizes = [0] * (radius + 2)
        for h in range(radius, 0, -1):
            sizes[h] = 1 + m * sizes[h + 1]
        anchors = _anchor_range(spec, halfwidth)
        cap = int(os.environ.get("IMPACTZETA_MAX_VERTICES", DEFAULT_MAX_VERTICES))
        if len(anchors) * (1 + arity0 * sizes[1]) > cap:
            raise LimitExceeded(f"vertex cap {cap} exceeded")

        parent: list[int] = []
        digit: list[int] = []
        height: list[int] = []
        adj: list[list[int]] = []
        roots: dict[int, int] = {}
        for j in anchors:
            roots[j] = len(parent)
            stack = [(-1, -1, 0)]
            while stack:
                p, c, h = stack.pop()
                i = len(parent)
                parent.append(p)
                digit.append(c)
                height.append(h)
                if p < 0:
                    adj.append([])
                else:
                    adj.append([p])
                    adj[p].append(i)
                if h < radius:
                    arity = arity0 if h == 0 else m
                    stack.extend([(i, k, h + 1) for k in range(arity - 1, -1, -1)])
        # Basin edges join consecutive anchors (the ramified edge, the apartment).
        for a, b in zip(anchors, anchors[1:]):
            adj[roots[a]].append(roots[b])
            adj[roots[b]].append(roots[a])
        for i in roots.values():
            adj[i].sort()

        self._roots = roots
        self._parent = parent
        self._digit = digit
        self._height = height
        self._adj = [tuple(ns) for ns in adj]
        self._vertices: tuple[VertexAddr, ...] | None = None
        self._adjacency: dict[VertexAddr, tuple[VertexAddr, ...]] | None = None
        self._profiles: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    def _index(self, v) -> int | None:
        """Number of the vertex at address v, or None if v is not in the tree."""
        if not isinstance(v, VertexAddr):
            return None
        i = self._roots.get(v.anchor)
        if i is None or len(v.word) > self.radius:
            return None
        arity, sizes = self._arity0, self._sizes
        for h, c in enumerate(v.word, 1):
            if not 0 <= c < arity:
                return None
            i += 1 + c * sizes[h]
            arity = self.spec.m
        return i

    def _require(self, v: VertexAddr) -> int:
        i = self._index(v)
        if i is None:
            raise UnknownVertex(str(v))
        return i

    def __contains__(self, v: VertexAddr) -> bool:
        return self._index(v) is not None

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def vertices(self) -> tuple[VertexAddr, ...]:
        """Every vertex address, in ``(anchor, word)`` order."""
        if self._vertices is None:
            anchor_at = {i: a for a, i in self._roots.items()}
            out: list[VertexAddr] = []
            for p, c in zip(self._parent, self._digit):
                if p < 0:
                    out.append(VertexAddr(anchor_at[len(out)]))
                else:
                    u = out[p]
                    out.append(VertexAddr(u.anchor, u.word + (c,)))
            self._vertices = tuple(out)
        return self._vertices

    @property
    def adjacency(self) -> dict[VertexAddr, tuple[VertexAddr, ...]]:
        """Sorted neighbor addresses of every vertex, keyed breadth-first."""
        if self._adjacency is None:
            vs, adj = self.vertices, self._adj
            order = sorted(range(len(vs)), key=self._height.__getitem__)
            self._adjacency = {vs[i]: tuple(vs[j] for j in adj[i]) for i in order}
        return self._adjacency

    def neighbors(self, v: VertexAddr) -> tuple[VertexAddr, ...]:
        vs = self.vertices
        return tuple(vs[j] for j in self._adj[self._require(v)])

    def _frontiers(self, source: int):
        """Breadth-first layers from vertex number ``source``: distance 0, 1, ..."""
        adj = self._adj
        seen = bytearray(len(adj))
        seen[source] = 1
        frontier = [source]
        while frontier:
            yield frontier
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = 1
                        nxt.append(w)
            frontier = nxt

    def bfs_distances(self, source: VertexAddr) -> dict[VertexAddr, int]:
        """Graph distances from ``source`` to every truncation vertex (uncached)."""
        s = self._require(source)
        vs = self.vertices
        return {
            vs[u]: k for k, frontier in enumerate(self._frontiers(s)) for u in frontier
        }

    def distance_profile(
        self, source: VertexAddr
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-distance vertex counts ``(layer, basin)`` from one BFS.

        With h the height of ``source``, ``layer[k]`` counts the vertices at
        distance k of height exactly h and ``basin[k]`` those of height at
        most h.  The last ``PROFILE_CACHE_SIZE`` profiles are kept.
        """
        s = self._require(source)
        profile = self._profiles.get(s)
        if profile is None:
            height = self._height
            h = height[s]
            layer, basin = [], []
            for frontier in self._frontiers(s):
                heights = [height[u] for u in frontier]
                layer.append(heights.count(h))
                basin.append(sum(x <= h for x in heights))
            profile = (tuple(layer), tuple(basin))
            if len(self._profiles) >= PROFILE_CACHE_SIZE:
                del self._profiles[next(iter(self._profiles))]
            self._profiles[s] = profile
        return profile


def build_truncated(
    spec: BuildingSpec, radius: int, apartment_halfwidth: int = 0
) -> TruncatedTree:
    """Materialize all vertices of height <= radius (split: |j| <= halfwidth).

    Adjacency is complete for vertices of height < radius.  Raises
    :class:`LimitExceeded` when the vertex count would exceed the cap from
    the ``IMPACTZETA_MAX_VERTICES`` environment variable.
    """
    if spec.kind is BasinKind.SPLIT and apartment_halfwidth < radius:
        raise ValueError("split truncation needs apartment_halfwidth >= radius")
    halfwidth = apartment_halfwidth if spec.kind is BasinKind.SPLIT else 0
    return TruncatedTree(spec, radius, halfwidth)


def build_line_tree(kind: BasinKind, radius: int) -> TruncatedTree:
    """Degenerate m = 1 constructor: the tree is a bi-infinite line.

    Test-only fixture for the unramified / ramified basins sitting on a
    line; the split basin would be the whole tree and is not supported.
    """
    if kind is BasinKind.SPLIT:
        raise ValueError("the split basin has no m = 1 line form")
    return TruncatedTree(_line_spec(kind), radius)


def height(tree: TruncatedTree, v: VertexAddr) -> int:
    """Layer index of v: its graph distance to the nearest basin vertex."""
    if v not in tree:
        raise UnknownVertex(str(v))
    return v.height


def _anchor_separation(kind: BasinKind, a: int, b: int) -> int:
    if a == b:
        return 0
    if kind is BasinKind.RAMIFIED:
        return 1
    if kind is BasinKind.SPLIT:
        return abs(a - b)
    raise AssertionError("unramified basin has a single anchor")


def distance(tree: TruncatedTree, u: VertexAddr, v: VertexAddr) -> int:
    """Length of the unique geodesic, from the closed-form address rule.

    Same anchor: drop the common word prefix and count remaining letters.
    Different anchors: both words in full, plus the basin separation of the
    anchors.  The BFS route is available separately for cross-checks.
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
    sep = _anchor_separation(tree.spec.kind, u.anchor, v.anchor)
    return len(u.word) + len(v.word) + sep


def bfs_distance(tree: TruncatedTree, u: VertexAddr, v: VertexAddr) -> int:
    return tree.bfs_distances(u)[v]


def layer_members(tree: TruncatedTree, n: int) -> frozenset[VertexAddr]:
    """All truncation vertices of height exactly n."""
    if n > tree.radius:
        raise RadiusTooSmall(f"layer {n} not covered by radius {tree.radius}")
    return frozenset(v for v, h in zip(tree.vertices, tree._height) if h == n)


def way_out_vertex(spec: BuildingSpec, n: int) -> VertexAddr:
    """The canonical height-n vertex on the way out: all-zero word off anchor 0."""
    if n < 0:
        raise ValueError("height must be nonnegative")
    return VertexAddr(0, (0,) * n)
