"""Walk-count generating functions of the three basin families.

For a vertex v of height n, ``r(d, v)`` counts the height-n vertices
reachable from v by a walk of length d, and ``p(d, v)`` counts the
reachable vertices of height at most n.  On a tree, x is reachable by a
walk of length d exactly when d >= d(x, v) and d has the same parity as
d(x, v), which is what both the closed forms and the BFS oracle implement.

The closed forms for the way-out vertices O_n share one shape across the
three basins:

    layer(n) = sum_{k<n} m^k X^{2k}  +  plateau(n) * X^{2n} / tail

with tail (1 - X) for the edge basin, (1 - X^2) for the vertex basin and
(1 - X)^2 for the apartment basin, and plateau(n) the saturated walk count
m^n, (m+1)m^{n-1}, (m-1)m^{n-1} respectively (1 when n = 0).  Basin
generating functions unroll the recurrence

    basin(n) = layer(n) + X * basin(n-1).

Closed forms are built once with the branching parameter kept symbolic (the
same indeterminate as q); numeric m is a substitution view.  For the even
walk counts below the threshold and for the linear growth beyond it in the
apartment case, the BFS oracle is the arbiter of the exact coefficients
(m^k at d = 2k < 2n, and (l+1)(m-1)m^{n-1} at d = 2n + l).
"""

from __future__ import annotations

from dataclasses import dataclass

from .building import (
    BasinKind,
    BuildingSpec,
    TruncatedTree,
    VertexAddr,
    way_out_vertex,
)
from .errors import TruncationInsufficient, UnsupportedHeight
from .poly import ONE, BiPoly, RationalFn, exact_div, q_pow, series_expand, x_pow
from .report import CheckResult

_ONE_MINUS_X = ONE - x_pow(1)
_ONE_MINUS_X2 = ONE - x_pow(2)


def tail_denominator(kind: BasinKind) -> BiPoly:
    if kind is BasinKind.RAMIFIED:
        return _ONE_MINUS_X
    if kind is BasinKind.UNRAMIFIED:
        return _ONE_MINUS_X2
    return _ONE_MINUS_X * _ONE_MINUS_X


def _plateau_q(kind: BasinKind, n: int) -> BiPoly:
    """Saturated walk count (ramified/unramified) or growth slope (split)."""
    if n == 0:
        return ONE
    if kind is BasinKind.RAMIFIED:
        return q_pow(n)
    if kind is BasinKind.UNRAMIFIED:
        return (q_pow(1) + 1) * q_pow(n - 1)
    return (q_pow(1) - 1) * q_pow(n - 1)


def layer_genfun_q(kind: BasinKind, n: int) -> RationalFn:
    """Layer generating function from O_n with the branching symbolic."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tail = tail_denominator(kind)
    low = sum((q_pow(k) * x_pow(2 * k) for k in range(n)), BiPoly())
    num = low * tail + _plateau_q(kind, n) * x_pow(2 * n)
    return RationalFn(num, tail)


def basin_genfun_q(kind: BasinKind, n: int) -> RationalFn:
    """Basin generating function from O_n: sum_i X^i * layer(n - i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tail = tail_denominator(kind)
    num = sum(
        (x_pow(i) * layer_genfun_q(kind, n - i).num for i in range(n + 1)),
        BiPoly(),
    )
    return RationalFn(num, tail)


def layer_genfun(spec: BuildingSpec, n: int) -> RationalFn:
    return layer_genfun_q(spec.kind, n).subs_q(spec.m)


def basin_genfun(spec: BuildingSpec, n: int) -> RationalFn:
    return basin_genfun_q(spec.kind, n).subs_q(spec.m)


def geodesic_genfun_q(kind: BasinKind, n: int, which: str = "layer") -> RationalFn:
    """Geodesic flavor: (1 - X^2) times the walk generating function.

    A polynomial for the finite basins; denominator (1 - X) in the split
    case.  The reduction is done by exact division, so a failed identity
    raises rather than returning an unreduced ratio.
    """
    f = layer_genfun_q(kind, n) if which == "layer" else basin_genfun_q(kind, n)
    num2 = _ONE_MINUS_X2 * f.num
    if kind is BasinKind.SPLIT:
        return RationalFn(exact_div(num2, _ONE_MINUS_X), _ONE_MINUS_X)
    return RationalFn(exact_div(num2, f.den), ONE)


def geodesic_genfun(spec: BuildingSpec, n: int, which: str = "layer") -> RationalFn:
    return geodesic_genfun_q(spec.kind, n, which).subs_q(spec.m)


def reachable_count_closed(spec: BuildingSpec, n: int, d: int) -> int:
    """Closed-form r(d, O_n) for a way-out vertex off the basin (n >= 1)."""
    if n < 1:
        raise UnsupportedHeight("closed-form walk counts need n >= 1")
    if d < 0:
        raise ValueError("walk length must be nonnegative")
    m = spec.m
    kind = spec.kind
    if d < 2 * n:
        return m ** (d // 2) if d % 2 == 0 else 0
    if kind is BasinKind.RAMIFIED:
        return m**n
    if kind is BasinKind.UNRAMIFIED:
        return (m + 1) * m ** (n - 1) if d % 2 == 0 else 0
    ell = d - 2 * n
    return (ell + 1) * (m - 1) * m ** (n - 1)


def _check_coverage(tree: TruncatedTree, v: VertexAddr, d: int):
    if v not in tree:
        raise TruncationInsufficient(f"{v} is outside the truncation")
    if tree.radius < v.height:
        raise TruncationInsufficient(
            f"radius {tree.radius} does not cover height {v.height}"
        )
    if tree.spec.kind is BasinKind.SPLIT and tree.halfwidth < abs(v.anchor) + d:
        raise TruncationInsufficient(
            f"halfwidth {tree.halfwidth} cannot certify walks of length {d} from {v}"
        )


def _distance_counts(
    tree: TruncatedTree, v: VertexAddr, which: str
) -> tuple[int, ...]:
    """Vertices of the chosen height class at each BFS distance from v."""
    layer, basin = tree.distance_profile(v)
    if which == "layer":
        return layer
    if which == "basin":
        return basin
    raise ValueError(f"which must be 'layer' or 'basin', got {which!r}")


def reachable_count_oracle(
    tree: TruncatedTree, v: VertexAddr, d: int, which: str = "layer"
) -> int:
    """BFS oracle for r(d, v) / p(d, v): distance <= d and matching parity.

    Sums the BFS distance histogram from v over d, d - 2, ..., d mod 2.
    """
    _check_coverage(tree, v, d)
    counts = _distance_counts(tree, v, which)
    return sum(counts[d % 2 : d + 1 : 2]) if d >= 0 else 0


def geodesic_count_oracle(
    tree: TruncatedTree, v: VertexAddr, d: int, which: str = "layer"
) -> int:
    """BFS oracle for the exact-distance counts behind the geodesic flavor."""
    _check_coverage(tree, v, d)
    counts = _distance_counts(tree, v, which)
    return counts[d] if 0 <= d < len(counts) else 0


@dataclass(frozen=True)
class CountTable:
    """Oracle walk counts r(d, v) and p(d, v) for d = 0..max_d."""

    spec: BuildingSpec
    v: VertexAddr
    max_d: int
    r: tuple[int, ...]
    p: tuple[int, ...]


def count_table(tree: TruncatedTree, v: VertexAddr, max_d: int) -> CountTable:
    r = tuple(reachable_count_oracle(tree, v, d, "layer") for d in range(max_d + 1))
    p = tuple(reachable_count_oracle(tree, v, d, "basin") for d in range(max_d + 1))
    return CountTable(tree.spec, v, max_d, r, p)


@dataclass(frozen=True)
class GenFunRecord:
    """Layer/basin generating functions from O_n, walk and geodesic flavors."""

    spec: BuildingSpec
    n: int
    layer: RationalFn
    basin: RationalFn
    layer_geodesic: RationalFn
    basin_geodesic: RationalFn


def genfun_record(spec: BuildingSpec, n: int) -> GenFunRecord:
    return GenFunRecord(
        spec,
        n,
        layer_genfun(spec, n),
        basin_genfun(spec, n),
        geodesic_genfun(spec, n, "layer"),
        geodesic_genfun(spec, n, "basin"),
    )


def check_recurrence(spec: BuildingSpec, n_max: int) -> list[CheckResult]:
    """Verify basin(n) = layer(n) + X * basin(n-1) for 1 <= n <= n_max."""
    results = []
    for n in range(1, n_max + 1):
        lhs = basin_genfun(spec, n)
        rhs = layer_genfun(spec, n) + x_pow(1) * basin_genfun(spec, n - 1)
        ok = lhs == rhs
        results.append(
            CheckResult(
                f"basin-recurrence {spec.kind.value} m={spec.m} n={n}", ok
            )
        )
    return results


def check_recurrence_q(kind: BasinKind, n_max: int) -> list[CheckResult]:
    """Same recurrence with the branching parameter kept symbolic."""
    results = []
    for n in range(1, n_max + 1):
        lhs = basin_genfun_q(kind, n)
        rhs = layer_genfun_q(kind, n) + x_pow(1) * basin_genfun_q(kind, n - 1)
        results.append(
            CheckResult(f"basin-recurrence {kind.value} symbolic n={n}", lhs == rhs)
        )
    return results


def check_geodesic_q(kind: BasinKind, n_max: int) -> list[CheckResult]:
    """Verify zeta = geodesic-zeta / (1 - X^2) for both flavors, symbolically."""
    results = []
    for n in range(n_max + 1):
        for which in ("layer", "basin"):
            walk = layer_genfun_q(kind, n) if which == "layer" else basin_genfun_q(kind, n)
            geo = geodesic_genfun_q(kind, n, which)
            ok = walk == RationalFn(geo.num, geo.den * _ONE_MINUS_X2)
            results.append(
                CheckResult(f"geodesic {kind.value} {which} n={n}", ok)
            )
    return results


def oracle_series_check(
    tree: TruncatedTree, n: int, max_d: int
) -> list[CheckResult]:
    """Compare closed-form series coefficients with the BFS oracle at O_n.

    Covers the layer counts (closed formula for n >= 1, series coefficients
    of the layer generating function for every n) and the basin counts
    (series coefficients of the basin generating function).
    """
    spec = tree.spec
    v = way_out_vertex(spec, n)
    layer_series = series_expand(layer_genfun(spec, n), max_d).at_q(0)
    basin_series = series_expand(basin_genfun(spec, n), max_d).at_q(0)
    results = []
    label = f"{spec.kind.value} m={spec.m} n={n}"
    for d in range(max_d + 1):
        r_oracle = reachable_count_oracle(tree, v, d, "layer")
        p_oracle = reachable_count_oracle(tree, v, d, "basin")
        ok_r = layer_series[d] == r_oracle
        ok_p = basin_series[d] == p_oracle
        if n >= 1:
            ok_r = ok_r and reachable_count_closed(spec, n, d) == r_oracle
        results.append(
            CheckResult(
                f"oracle {label} d={d}",
                ok_r and ok_p,
                f"r={r_oracle} p={p_oracle}",
            )
        )
    return results
