"""Ideal-type counting for the main sequence of quadratic orders.

For a quadratic algebra L/K (unramified or ramified field extension, or the
split algebra K x K) with residue cardinality q, the orders O_n sit in a
chain and their ideal zeta functions are rational in X = q^{-s}.  Principal
ideals are grouped by type: the g-tuple of uniformizer valuations of a
generator, one per factor of L (a 1-tuple for a field).  classify_type
returns the count |X_omega| of a type as a polynomial in q: types below the
threshold t_n occur only along the diagonal d * e_vec, and every high type
occurs with multiplicity the unit index [O_0^* : O_n^*].  Each type omega
contributes q^{-c(omega) s} where the contribution c is f * omega, resp.
omega_1 + omega_2, so the principal zeta function is a finite low-type sum
plus a geometric high-type tail, and the full zeta function unrolls

    full(n) = principal(n) + X * full(n-1).

principal_zeta and full_zeta return these as RationalFn over the case
denominator V; cleared against V they produce the numerator families

    R_n = sum q^k X^{2k},   U_n = (1+X) R_{n-1} + q^n X^{2n},
    S_n = (1-X) R_{n-1} + q^n X^{2n},

and the symbolic cross-check against the tree-side generating functions is
the executable form of the correspondence between the two viewpoints.
Nothing is memoised: ``suites`` hands the check functions lists of these
and of the tree-side layer functions, so this module imports nothing from genfun.

Note the index convention [O_n : I] = q^{+c(eps(I))}: indices of nonzero
ideals are >= 1, and the p-adic enumeration oracle measures them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .building import BasinKind
from .errors import ArityMismatch
from .poly import ONE, Q, BiPoly, RationalFn, exact_div, q_pow, series_expand, x_pow, x_shift_sums
from .report import CheckResult


@dataclass(frozen=True)
class ExtensionCase:
    """Case tag with translation vector e and inertia vector f, one entry
    per factor of L (so the factor count g is their length)."""

    tag: BasinKind
    e_vec: tuple[int, ...]
    f_vec: tuple[int, ...]

    def threshold(self, n: int) -> tuple[int, ...]:
        """Componentwise ideal threshold t_n; types below it are low."""
        return tuple(n * e for e in self.e_vec)


_CASES = {
    BasinKind.RAMIFIED: ExtensionCase(BasinKind.RAMIFIED, (2,), (1,)),
    BasinKind.UNRAMIFIED: ExtensionCase(BasinKind.UNRAMIFIED, (1,), (2,)),
    BasinKind.SPLIT: ExtensionCase(BasinKind.SPLIT, (1, 1), (1, 1)),
}


def extension_case(tag: BasinKind) -> ExtensionCase:
    return _CASES[tag]


def all_cases() -> list[ExtensionCase]:
    return [_CASES[t] for t in (BasinKind.RAMIFIED, BasinKind.UNRAMIFIED, BasinKind.SPLIT)]


def normalize_type(case: ExtensionCase, omega: tuple[int, ...]) -> tuple[int, ...]:
    vec = tuple(omega)
    if len(vec) != len(case.f_vec):
        raise ArityMismatch(f"{case.tag.value} types have {len(case.f_vec)} component(s)")
    if any(w < 0 for w in vec):
        raise ValueError("type components must be nonnegative")
    return vec


def contribution(case: ExtensionCase, omega: tuple[int, ...]) -> int:
    """c(omega) = f . omega; the ideal index is q to this power."""
    vec = normalize_type(case, omega)
    return sum(f * w for f, w in zip(case.f_vec, vec))


def unit_index(case: ExtensionCase, n: int) -> BiPoly:
    """[O_0^* : O_n^*] as a polynomial in q.

    For n >= 1, O_n^* = o^* (1 + p^n O_0), so the index is
    |(O_0/p^n)^*| / |(o/p^n)^*| = q^{n+1-sum f_i} prod (q^{f_i} - 1) / (q - 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ONE
    units = q_pow(n + 1 - sum(case.f_vec))
    for f in case.f_vec:
        units = units * (q_pow(f) - 1)
    return exact_div(units, Q - 1)


def classify_type(case: ExtensionCase, n: int, omega: tuple[int, ...]) -> BiPoly:
    """|X_omega|, the number of principal ideals of O_n of type omega, in q.

    Low types (some component below t_n) occur only at omega = d * e_vec
    (0 <= d < n) with count [O_{n-d}^* : O_n^*] = q^d, since each step
    O_k^*/O_{k+1}^* (k >= 1) has order q (the slope map); every other low
    type has count 0.  Every high type has count [O_0^* : O_n^*].
    """
    vec = normalize_type(case, omega)
    if all(w >= t for w, t in zip(vec, case.threshold(n))):
        return unit_index(case, n)
    d = vec[0] // case.e_vec[0]
    return q_pow(d) if vec == tuple(d * e for e in case.e_vec) else BiPoly()


def zeta_denominator(case: ExtensionCase) -> BiPoly:
    """The denominator V = prod (1 - X^{f_i}) of the zeta functions."""
    den = ONE
    for f in case.f_vec:
        den = den * (ONE - x_pow(f))
    return den


def principal_zeta(case: ExtensionCase, n: int) -> RationalFn:
    """Exact principal-ideal zeta: low-type sum plus geometric high tail.

    Each diagonal low type d * e_vec (d < n) contributes count * X^c; the
    high types omega >= t_n all share the count at t_n, and summing X^{f.omega}
    over them gives X^{f.t_n} / V.  The result is over V.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    den = zeta_denominator(case)
    low = []
    for d in range(n):
        omega = tuple(d * e for e in case.e_vec)
        c = contribution(case, omega)
        low.extend((qe, xe + c, coeff) for qe, xe, coeff in classify_type(case, n, omega).terms)
    top = case.threshold(n)
    num = BiPoly(tuple(low)) * den + classify_type(case, n, top) * x_pow(contribution(case, top))
    return RationalFn(num, den)


def full_zeta(case: ExtensionCase, n: int) -> RationalFn:
    """The full ideal zeta of O_n, over V: full(n) = sum_i X^i principal(n - i).

    The last prefix of ``poly.x_shift_sums`` over principal(0..n), which
    unrolls full(k) = principal(k) + X * full(k - 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return x_shift_sums([principal_zeta(case, k) for k in range(n + 1)])[-1]


def numerator_poly(case: ExtensionCase, n: int) -> BiPoly:
    """The closed-form numerator family built straight from its definition."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def r_poly(k: int) -> BiPoly:
        return BiPoly(tuple((j, 2 * j, 1) for j in range(k + 1)))

    if case.tag is BasinKind.RAMIFIED:
        return r_poly(n)
    if n == 0:
        return ONE
    head = ONE + x_pow(1) if case.tag is BasinKind.UNRAMIFIED else ONE - x_pow(1)
    return head * r_poly(n - 1) + q_pow(n) * x_pow(2 * n)


def check_zeta_recurrence(
    case: ExtensionCase, principals: list[RationalFn], fulls: list[RationalFn]
) -> list[CheckResult]:
    """full(n) = principal(n) + X * full(n-1) symbolically in q, for the functions
    principals[n] and fulls[n] of O_n."""
    results = []
    for n, (prev, full) in enumerate(zip(fulls, fulls[1:]), start=1):
        ok = full == principals[n] + x_pow(1) * prev
        results.append(CheckResult(f"zeta-recurrence {case.tag.value} n={n}", ok))
    return results


def check_main_theorem(
    case: ExtensionCase,
    principals: list[RationalFn],
    fulls: list[RationalFn],
    layers: list[RationalFn],
) -> list[CheckResult]:
    """Principal zeta principals[n] from the type count equals the tree-side layer
    generating function layers[n] (q for m), and the numerator of the full zeta
    fulls[n] equals the numerator family.  Unequal lengths raise ValueError."""
    results = []
    for n, (principal, full, layer) in enumerate(zip(principals, fulls, layers, strict=True)):
        ok_main = principal == layer
        results.append(CheckResult(f"main-theorem {case.tag.value} n={n}", ok_main))
        ok_num = full.num == numerator_poly(case, n)
        results.append(CheckResult(f"numerator {case.tag.value} n={n}", ok_num))
    return results


def principal_count_series(principal: RationalFn, degree: int, q0: int) -> list[int]:
    """Principal-ideal counts by index exponent at q = q0, from the principal
    zeta function of O_n."""
    return series_expand(principal, degree).at_q(q0)
