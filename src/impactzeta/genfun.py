"""Walk-count generating functions of the three basin families.

For a vertex v of height n, ``r(d, v)`` counts the height-n vertices
reachable from v by a walk of length d, and ``p(d, v)`` counts the
reachable vertices of height at most n.  On a tree, x is reachable by a
walk of length d exactly when d >= d(x, v) and d has the same parity as
d(x, v), which is what both the closed forms and the BFS oracle implement.
The oracle reads the counts of one :func:`building.distance_profile` per
source: a BFS over states (anchor, height, arrival edge) with a vertex
count for each, that never climbs above the height of its source, so it
needs no truncated tree.

The closed forms for the way-out vertices O_n share one shape across the
three basins:

    layer(n) = sum_{k<n} m^k X^{2k}  +  plateau(n) * X^{2n} / tail

with tail (1 - X) for the edge basin, (1 - X^2) for the vertex basin and
(1 - X)^2 for the apartment basin, and plateau(n) the number of height-n
vertices above one anchor, ``first_arity * m^{n-1}`` (1 when n = 0), read
from :func:`building.first_arity` with m kept symbolic as q.  So the
``main-theorem`` check compares the unit index [O_0^* : O_n^*] of the order
side with the branching rule of the tree.  Basin generating functions
unroll the recurrence

    basin(n) = layer(n) + X * basin(n-1).

Closed forms are built, not memoised, with the branching parameter kept
symbolic (the same indeterminate as q); numeric m is a substitution view.
The walk counts are the series coefficients of these functions, which
:func:`oracle_series_check` compares with the BFS oracle at every d.
A piecewise formula below spells the layer coefficients out (m^k at
d = 2k < 2n, the plateau at d >= 2n, l + 1 times the plateau at d = 2n + l
in the apartment case); no command reads it.
"""

from __future__ import annotations

from .building import BasinKind, BuildingSpec, first_arity
from .errors import TruncationInsufficient, UnsupportedHeight
from .poly import ONE, Q, BiPoly, RationalFn, exact_div, q_pow, series_expand, x_pow, x_shift_sums
from .report import CheckResult

_ONE_MINUS_X = ONE - x_pow(1)
_ONE_MINUS_X2 = ONE - x_pow(2)


def tail_denominator(kind: BasinKind) -> BiPoly:
    if kind is BasinKind.RAMIFIED:
        return _ONE_MINUS_X
    if kind is BasinKind.UNRAMIFIED:
        return _ONE_MINUS_X2
    return _ONE_MINUS_X * _ONE_MINUS_X


def layer_genfun_q(kind: BasinKind, n: int) -> RationalFn:
    """Layer generating function from O_n with the branching symbolic."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tail = tail_denominator(kind)
    low = BiPoly(tuple((k, 2 * k, 1) for k in range(n)))
    plateau = first_arity(kind, Q) * q_pow(n - 1) if n else ONE
    num = low * tail + plateau * x_pow(2 * n)
    return RationalFn(num, tail)


def basin_genfun_q(kind: BasinKind, n: int) -> RationalFn:
    """Basin generating function from O_n: sum_i X^i * layer(n - i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return x_shift_sums([layer_genfun_q(kind, k) for k in range(n + 1)])[-1]


def layer_genfun(spec: BuildingSpec, n: int) -> RationalFn:
    return layer_genfun_q(spec.kind, n).subs_q(spec.m)


def basin_genfun(spec: BuildingSpec, n: int) -> RationalFn:
    return basin_genfun_q(spec.kind, n).subs_q(spec.m)


def geodesic_genfun_q(kind: BasinKind, walk: RationalFn) -> RationalFn:
    """Geodesic flavor: (1 - X^2) times the layer or basin function ``walk``.

    A polynomial for the finite basins; denominator (1 - X) in the split
    case.  The walk numerator is multiplied by the cofactor (1 - X^2) / den,
    with den the walk denominator, resp. (1 - X) in the split case.  That
    cofactor comes from exact division, so a denominator that does not
    divide 1 - X^2 raises rather than returning an unreduced ratio.
    """
    if kind is BasinKind.SPLIT:
        return RationalFn(walk.num * exact_div(_ONE_MINUS_X2, _ONE_MINUS_X), _ONE_MINUS_X)
    return RationalFn(walk.num * exact_div(_ONE_MINUS_X2, walk.den), ONE)


def reachable_count_closed(spec: BuildingSpec, n: int, d: int) -> int:
    """Closed-form r(d, O_n) for a way-out vertex off the basin (n >= 1)."""
    if n < 1:
        raise UnsupportedHeight("closed-form walk counts need n >= 1")
    if d < 0:
        raise ValueError("walk length must be nonnegative")
    m, kind = spec.m, spec.kind
    if d < 2 * n:
        return m ** (d // 2) if d % 2 == 0 else 0
    plateau = first_arity(kind, m) * m ** (n - 1)
    if kind is BasinKind.RAMIFIED:
        return plateau
    if kind is BasinKind.UNRAMIFIED:
        return plateau if d % 2 == 0 else 0
    return (d - 2 * n + 1) * plateau


# The last profile read by reachable_count_oracle and its running parity
# sums (layer, basin); one entry, held so that its identity stays unique.
_running: list = [None, ()]


def reachable_count_oracle(
    profile: tuple[tuple[int, ...], tuple[int, ...]], d: int, which: str = "layer"
) -> int:
    """BFS oracle for r(d, v) / p(d, v): distance <= d and matching parity.

    Reads the running parity sum r(d) = r(d - 2) + counts[d] of the
    ``distance_profile`` of v.  The sums are built once per profile: a
    caller reading d = 0, 1, ..., D from one profile pays O(D), not O(D^2).
    """
    if which not in ("layer", "basin"):
        raise ValueError(f"which must be 'layer' or 'basin', got {which!r}")
    layer, basin = profile
    if d >= len(layer):
        raise TruncationInsufficient(f"no BFS count at distance {d} > {len(layer) - 1}")
    if d < 0:
        return 0
    if _running[0] is not profile:
        sums = [list(layer), list(basin)]
        for counts in sums:
            for k in range(2, len(counts)):
                counts[k] += counts[k - 2]
        _running[:] = [profile, sums]
    return _running[1][which == "basin"][d]


def check_recurrence_q(
    kind: BasinKind, layers: list[RationalFn], basins: list[RationalFn]
) -> list[CheckResult]:
    """Verify basin(n) = layer(n) + X * basin(n-1) symbolically for n >= 1, where
    layers[n] and basins[n] are the functions from O_n.  Unequal lengths raise ValueError."""
    results = []
    for n, (layer, basin) in enumerate(zip(layers, basins, strict=True)):
        if n:
            ok = basin == layer + x_pow(1) * basins[n - 1]
            results.append(CheckResult(f"basin-recurrence {kind.value} symbolic n={n}", ok))
    return results


def check_geodesic_q(
    kind: BasinKind, layers: list[RationalFn], basins: list[RationalFn]
) -> list[CheckResult]:
    """Verify zeta = geodesic-zeta / (1 - X^2) for both flavors symbolically, where
    layers[n] and basins[n] are the functions from O_n.  Unequal lengths raise ValueError."""
    results = []
    for n, walks in enumerate(zip(layers, basins, strict=True)):
        for which, walk in zip(("layer", "basin"), walks):
            geo = geodesic_genfun_q(kind, walk)
            ok = walk == RationalFn(geo.num, geo.den * _ONE_MINUS_X2)
            results.append(CheckResult(f"geodesic {kind.value} {which} n={n}", ok))
    return results


def oracle_series_check(
    spec: BuildingSpec,
    n: int,
    profile: tuple[tuple[int, ...], tuple[int, ...]],
    walks: tuple[RationalFn, RationalFn],
) -> list[CheckResult]:
    """Compare closed-form series coefficients with the BFS oracle at O_n.

    ``profile`` is the ``distance_profile`` of O_n, up to the longest walk,
    and ``walks`` its layer and basin functions in q, read at q = m.  Covers
    the layer counts (layer series) and the basin counts (basin series).
    """
    max_d = len(profile[0]) - 1
    layer_series, basin_series = (series_expand(f.subs_q(spec.m), max_d).at_q(0) for f in walks)
    results = []
    label = f"{spec.kind.value} m={spec.m} n={n}"
    for d in range(max_d + 1):
        r_oracle = reachable_count_oracle(profile, d, "layer")
        p_oracle = reachable_count_oracle(profile, d, "basin")
        results.append(
            CheckResult(
                f"oracle {label} d={d}",
                layer_series[d] == r_oracle and basin_series[d] == p_oracle,
                f"r={r_oracle} p={p_oracle}",
            )
        )
    return results
