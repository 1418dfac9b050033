"""Exact arithmetic in Z[q, X], rational functions, and truncated series.

Everything downstream is an identity between polynomials in the two
commuting indeterminates ``q`` (residue cardinality / branching symbol) and
``X`` (the series variable), so coefficients are plain Python integers and
no floating point appears anywhere.  Terms are kept in a canonical order
sorted by ``(x_exponent, q_exponent)`` with zero coefficients dropped, so
structural equality of term tuples is mathematical equality.

Cost model: only ``BiPoly(...)``, ``const`` and ``term`` canonicalise and
validate.  Other results are canonical by construction: a product or a sum
accumulates in one dict pass and sorts its nonzero keys once, ``x_pow`` and
``q_pow`` build their one term directly, negation, ``subs_q`` and
``x_coefficients`` keep their order, and ``exact_div`` pops each leading term
from a heap, O(t log t) for t remainder terms.  ``x_shift_sums`` builds every
prefix of a shifted sum in one pass over a running dict, with one sort per
prefix, so the n + 1 sums of n + 1 leaves cost what their output does.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import NonUnitDenominator, NotDivisible

# One term: (q_exponent, x_exponent, coefficient).
Term = tuple[int, int, int]


def _sorted_terms(acc: dict[tuple[int, int], int]) -> tuple[Term, ...]:
    """The canonical term tuple of coefficients keyed by ``(x_exp, q_exp)``."""
    keys = sorted([key for key, c in acc.items() if c])
    return tuple([(qe, xe, acc[xe, qe]) for xe, qe in keys])


def _canonical(terms: Iterable[Term]) -> tuple[Term, ...]:
    acc: dict[tuple[int, int], int] = {}
    for qe, xe, c in terms:
        if qe < 0 or xe < 0:
            raise ValueError("exponents must be nonnegative")
        acc[xe, qe] = acc.get((xe, qe), 0) + c
    return _sorted_terms(acc)


def _merged(a: tuple[Term, ...], b: tuple[Term, ...], sign: int) -> BiPoly:
    """a + sign*b for canonical term tuples a and b."""
    acc = {(xe, qe): c for qe, xe, c in a}
    for qe, xe, c in b:
        acc[xe, qe] = acc.get((xe, qe), 0) + sign * c
    return _trusted(_sorted_terms(acc))


@dataclass(frozen=True)
class BiPoly:
    """A polynomial in q and X with integer coefficients, in canonical form."""

    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical(self.terms))

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c: int) -> BiPoly:
        return BiPoly(((0, 0, c),))

    @staticmethod
    def term(q_exp: int, x_exp: int, coeff: int = 1) -> BiPoly:
        return BiPoly(((q_exp, x_exp, coeff),))

    # -- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def x_coefficients(self) -> dict[int, BiPoly]:
        """Coefficient of each power of X, as a polynomial in q."""
        by_x: dict[int, list[Term]] = {}
        for qe, xe, c in self.terms:
            by_x.setdefault(xe, []).append((qe, 0, c))
        return {xe: _trusted(tuple(ts)) for xe, ts in by_x.items()}

    def as_int(self) -> int:
        """The value of a constant polynomial."""
        if self.is_zero():
            return 0
        if self.terms == ((0, 0, self.terms[0][2]),):
            return self.terms[0][2]
        raise ValueError(f"not a constant polynomial: {self}")

    # -- ring operations ------------------------------------------------

    def __add__(self, other: Union[BiPoly, int]) -> BiPoly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _merged(self.terms, other.terms, 1)

    __radd__ = __add__

    def __neg__(self) -> BiPoly:
        return _trusted(tuple((qe, xe, -c) for qe, xe, c in self.terms))

    def __sub__(self, other: Union[BiPoly, int]) -> BiPoly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _merged(self.terms, other.terms, -1)

    def __rsub__(self, other: Union[BiPoly, int]) -> BiPoly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _merged(other.terms, self.terms, -1)

    def __mul__(self, other: Union[BiPoly, int]) -> BiPoly:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[tuple[int, int], int] = {}
        for qa, xa, ca in self.terms:
            for qb, xb, cb in other.terms:
                key = (xa + xb, qa + qb)
                acc[key] = acc.get(key, 0) + ca * cb
        return _trusted(_sorted_terms(acc))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BiPoly:
        if n < 0:
            raise ValueError("negative powers are not defined")
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def subs_q(self, q0: int) -> BiPoly:
        """Substitute the integer q0 for q, leaving a polynomial in X."""
        by_x: dict[int, int] = {}
        for qe, xe, c in self.terms:
            by_x[xe] = by_x.get(xe, 0) + c * q0**qe
        return _trusted(tuple((0, xe, c) for xe, c in by_x.items() if c))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for qe, xe, c in self.terms:
            factors = []
            if qe:
                factors.append("q" if qe == 1 else f"q^{qe}")
            if xe:
                factors.append("X" if xe == 1 else f"X^{xe}")
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _trusted(terms: tuple[Term, ...]) -> BiPoly:
    """A BiPoly on terms already in canonical form, without ``__post_init__``."""
    poly = object.__new__(BiPoly)
    object.__setattr__(poly, "terms", terms)
    return poly


def _coerce(value: Union[BiPoly, int]) -> BiPoly | None:
    if isinstance(value, BiPoly):
        return value
    if isinstance(value, int):
        return BiPoly.const(value)
    return None


ZERO = BiPoly()
ONE = BiPoly.const(1)
Q = BiPoly.term(1, 0)
X = BiPoly.term(0, 1)


def x_pow(k: int) -> BiPoly:
    if k < 0:
        raise ValueError("exponents must be nonnegative")
    return _trusted(((0, k, 1),))


def q_pow(k: int) -> BiPoly:
    if k < 0:
        raise ValueError("exponents must be nonnegative")
    return _trusted(((k, 0, 1),))


def exact_div(a: BiPoly, b: BiPoly) -> BiPoly:
    """Exact quotient a/b in Z[q, X].

    Division runs against the leading term of ``b`` in the canonical
    ``(x_exponent, q_exponent)`` order; for a single divisor the remainder
    of that process vanishes exactly when ``b`` divides ``a``, so a failed
    step raises :class:`NotDivisible` (which is how identity checks report
    a mismatch).
    """
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    *rest, (lb_q, lb_x, lb_c) = b.terms
    # Keys are negated (x, q) exponents, so the heap's minimum leads.  A key is
    # pushed once, below the popped one, and kept in ``rem`` (0 if cancelled).
    rem = {(-xe, -qe): c for qe, xe, c in a.terms}
    heap = list(rem)
    heapq.heapify(heap)
    quo: list[Term] = []
    while heap:
        key = heapq.heappop(heap)
        rc = rem.pop(key)
        if not rc:
            continue
        tx, tq = -key[0] - lb_x, -key[1] - lb_q
        if tq < 0 or tx < 0 or rc % lb_c != 0:
            raise NotDivisible(f"({a}) is not divisible by ({b})")
        tc = rc // lb_c
        quo.append((tq, tx, tc))
        for bq, bx, bc in rest:
            key = (-tx - bx, -tq - bq)
            if key in rem:
                rem[key] -= tc * bc
            else:
                rem[key] = -tc * bc
                heapq.heappush(heap, key)
    return _trusted(tuple(reversed(quo)))


@dataclass(frozen=True, eq=False)
class RationalFn:
    """A ratio of two BiPoly, never reduced to lowest terms.

    Equality is cross-multiplication (num*other.den == other.num*den), which
    is how the identities downstream are stated, or, over an equal nonzero
    denominator, the same verdict from the numerators.  Hashing is disabled.
    """

    num: BiPoly
    den: BiPoly = ONE

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: RationalFn) -> RationalFn:
        if self.den == other.den:
            return RationalFn(self.num + other.num, self.den)
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: Union[RationalFn, BiPoly, int]) -> RationalFn:
        if isinstance(other, RationalFn):
            return RationalFn(self.num * other.num, self.den * other.den)
        factor = _coerce(other)
        if factor is None:
            return NotImplemented
        return RationalFn(self.num * factor, self.den)

    __rmul__ = __mul__

    def subs_q(self, q0: int) -> RationalFn:
        return RationalFn(self.num.subs_q(q0), self.den.subs_q(q0))

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def x_shift_sums(fs: list[RationalFn]) -> list[RationalFn]:
    """Every prefix S_n = sum_i X^i * fs[n - i], all over the denominator of fs[0].

    One pass, S_n = fs[n] + X * S_{n-1}: the running dict holds X^{-n} S_n,
    keyed by ``(x_exp - n, q_exp)``, so a new leaf adds its terms in place
    and a snapshot shifts its sorted keys back by n, which keeps their order.
    """
    sums: list[RationalFn] = []
    acc: dict[tuple[int, int], int] = {}
    for n, f in enumerate(fs):
        for qe, xe, c in f.num.terms:
            key = (xe - n, qe)
            c += acc.get(key, 0)
            if c:
                acc[key] = c
            else:
                del acc[key]
        terms = tuple([(qe, xe + n, acc[xe, qe]) for xe, qe in sorted(acc)])
        sums.append(RationalFn(_trusted(terms), fs[0].den))
    return sums


@dataclass(frozen=True)
class SeriesPrefix:
    """Coefficients of X^0..X^D of a power series, each a polynomial in q."""

    coefficients: tuple[BiPoly, ...]

    def __post_init__(self):
        for c in self.coefficients:
            if any(xe != 0 for _, xe, _ in c.terms):
                raise ValueError("series coefficients must be polynomials in q")

    def at_q(self, q0: int) -> list[int]:
        return [c.subs_q(q0).as_int() for c in self.coefficients]


def series_expand(f: RationalFn, degree: int) -> SeriesPrefix:
    """First ``degree + 1`` coefficients of the power series of ``f`` in X.

    Requires the denominator's constant term (q^0 X^0 coefficient) to be 1,
    which holds for every denominator this package produces (products of
    (1 - X) and (1 - X^2) factors).
    """
    if degree < 0:
        raise ValueError("truncation degree must be nonnegative")
    den_by_x = f.den.x_coefficients()
    if den_by_x.get(0, ZERO) != ONE:
        raise NonUnitDenominator(f"denominator constant term is not 1: {f.den}")
    num_by_x = f.num.x_coefficients()
    # Only the nonzero X-degrees of the denominator contribute.
    den_terms = sorted((j, dj) for j, dj in den_by_x.items() if j)
    coeffs: list[BiPoly] = []
    for k in range(degree + 1):
        s = num_by_x.get(k, ZERO)
        for j, dj in den_terms:
            if j > k:
                break
            s = s - dj * coeffs[k - j]
        coeffs.append(s)
    return SeriesPrefix(tuple(coeffs))
