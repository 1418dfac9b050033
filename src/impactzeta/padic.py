"""Quadratic algebras over Z_p in exact integers, and the lattice-side oracle.

Everything here is desk-scale verification machinery.  A case instance
fixes a quadratic algebra O_K[Delta] with Delta^2 = tau*Delta - delta:

* ramified:   Delta^2 = -p          (Eisenstein, tau = 0)
* unramified: Delta^2 = epsilon     (smallest positive nonresidue mod p),
              and Delta^2 = Delta - 1 at p = 2 (x^2 + x + 1 is
              irreducible mod 2)
* split:      Delta^2 = (p+1)Delta - p,  realizing Delta = (1, p) in K x K

``CaseInstance`` refuses a (tau, delta) outside its case: a ramified Delta
is Eisenstein (p | tau, p || delta), an unramified x^2 - tau*x + delta is
irreducible mod p, and a split Delta is exactly (1, p), which
``_exact_type`` reads.  Elements x + y*Delta are integer pairs (x, y).
Rank-2 lattices are 2x2 column spans over Z_p in upper-triangular Hermite
form, computed from exact integer columns; homothety classes (vertices of
the degree-(p+1) tree) are primitive Hermite forms.  Tree distance between
classes is the gap of the elementary-divisor valuations of the
change-of-basis matrix.

The ideal enumeration below is an oracle: it lists every finite-index
sublattice of O_n = O_K[p^n Delta] up to the index bound, keeps the ones
closed under multiplication by p^n*Delta, and tests principality by a
generator search over the p^2 classes of I/pI (whether an element generates
depends only on its class mod pI), confirming a found generator alpha by
comparing the Hermite form of alpha*O_n with the ideal.  A second decider,
the multiplier level (the least h with p^h*Delta*I inside I; I is principal
iff it is n), shares nothing with the search.  Placement is separate from
the scan: ``ClassAtlas(inst, n, bound)`` builds the truncation that holds
the ideals of O_n up to the bound, and its ``place`` puts an ideal at the
tree vertex of its class, whose height must be its multiplier level;
``source_and_distance_check`` reads the case, n and bound from the atlas.
Nothing here reads the formulas (``orders``, ``genfun``) that these
results check.

Cost: for the index bound B the scan visits sum_{k<=B} sum_{a<=k} p^a
Hermite forms [[p^a, c], [0, p^(k-a)]] and runs one closure test on each.
A candidate is a plain tuple (p, a, c, b); the closure test (``is_ideal``)
rejects on the cheapest residues first and forms powers of p only for
the survivors.  Only a candidate that passes becomes a LatticeHNF, built
without the validating constructor, since the loop over 0 <= c < p^a is
the reduction condition.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .building import (
    BasinKind,
    BuildingSpec,
    VertexAddr,
    basin_neighbors,
    build_truncated,
    distance as tree_distance,
    way_out_vertex,
)
from .errors import (
    InvariantViolation,
    LimitExceeded,
    NotAnIdeal,
    NotInOrderUnit,
    OutsideTruncation,
    UnsupportedPrime,
)

MAX_ENUMERATED_LATTICES = 2_000_000
MAX_COSET_REPS = 100_000
# Entries kept by the one cache here: the enumerations of _enumerate_core.
CACHE_SIZE = 256


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _is_nonresidue(e: int, p: int) -> bool:
    """Euler's criterion at an odd prime p: e^((p-1)/2) = -1 mod p."""
    return pow(e, (p - 1) // 2, p) == p - 1


@dataclass(frozen=True)
class CaseInstance:
    """A concrete (case, p) quadratic algebra with fixed Delta."""

    tag: BasinKind
    p: int
    tau: int
    delta: int

    def __post_init__(self):
        p, tau, delta = self.p, self.tau, self.delta
        if not is_prime(p):
            raise UnsupportedPrime(f"{p} is not prime")
        if self.tag is BasinKind.RAMIFIED:
            ok = tau % p == 0 and delta % p == 0 and delta % (p * p) != 0
        elif self.tag is BasinKind.SPLIT:
            ok = (tau, delta) == (p + 1, p)
        elif p == 2:
            ok = tau * delta % 2 == 1
        else:
            ok = _is_nonresidue(tau * tau - 4 * delta, p)
        if not ok:
            raise ValueError(f"tau={tau}, delta={delta} is not a {self.tag.value} algebra at p={p}")


def make_case(tag: BasinKind, p: int) -> CaseInstance:
    if not is_prime(p):
        raise UnsupportedPrime(f"{p} is not prime")
    if tag is BasinKind.RAMIFIED:
        return CaseInstance(tag, p, tau=0, delta=p)
    if tag is BasinKind.SPLIT:
        return CaseInstance(tag, p, tau=p + 1, delta=p)
    if p == 2:
        return CaseInstance(tag, p, tau=1, delta=1)
    eps = next(e for e in range(2, p) if _is_nonresidue(e, p))
    return CaseInstance(tag, p, tau=0, delta=-eps)


def _is_unit(inst: CaseInstance, u: tuple[int, int]) -> bool:
    """Whether x + y*Delta is a unit: its norm x^2 + tau*x*y + delta*y^2 is prime to p."""
    x, y = u
    return (x * x + inst.tau * x * y + inst.delta * y * y) % inst.p != 0


def _mul_matrix(inst: CaseInstance, n: int, u: int, v: int) -> tuple[int, int, int, int]:
    """Multiplication by u + v*p^n*Delta on the O_n basis {1, p^n*Delta}.

    Entries (m00, m01, m10, m11): the columns are the images of 1 and p^n*Delta.
    """
    pn = inst.p**n
    return (u, -inst.delta * pn * pn * v, v, u + inst.tau * pn * v)


def _val(p: int, r: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return v


def in_order_unit(inst: CaseInstance, n: int, u: tuple[int, int]) -> bool:
    """A unit of O_n = O_K[p^n Delta]: Delta coordinate of val >= n, unit norm."""
    return u[1] % inst.p**n == 0 and _is_unit(inst, u)


def slope_map(inst: CaseInstance, n: int, u: tuple[int, int]) -> int:
    """z * w^{-1} mod p for a unit u = w + z p^n Delta of O_n (n >= 1)."""
    if n < 1:
        raise ValueError("the slope map is defined for n >= 1")
    if not in_order_unit(inst, n, u):
        raise NotInOrderUnit(f"{u} is not a unit of level {n}")
    x, y = u
    return (y // inst.p**n) * pow(x, -1, inst.p) % inst.p


def coset_reps(inst: CaseInstance, n: int) -> list[tuple[int, int]]:
    """Representatives of O_0^*/O_n^*, one per coset, from a scan of coset keys.

    O_n^* = Z_p^* * (1 + p^n O_0), so units u and v share a coset exactly
    when u = lambda*v mod p^n for some lambda in Z_p^*.  Dividing u mod p^n
    by a unit coordinate (x when x is a unit, otherwise y: p cannot divide
    both) gives the one element of its coset among the keys

    * 1 + y*Delta, with 0 <= y < p^n, and
    * x + Delta, with p | x and 0 <= x < p^n.

    The scan keeps the keys of unit norm, with no target count: the number
    kept is the index [O_0^* : O_n^*].  For n = 0 the quotient is trivial
    and the one representative is 1.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if n == 0:
        return [(1, 0)]
    p = inst.p
    pn = p**n
    count = pn + pn // p
    if count > MAX_COSET_REPS:
        raise LimitExceeded(
            f"coset representatives {inst.tag.value} p={p} n={n}: "
            f"{count} candidate keys, above MAX_COSET_REPS = {MAX_COSET_REPS}"
        )
    keys = [(1, y) for y in range(pn)] + [(x, 1) for x in range(0, pn, p)]
    return [u for u in keys if _is_unit(inst, u)]


# -- lattices -----------------------------------------------------------


class _HNF(NamedTuple):
    p: int
    a_exp: int
    c: int
    b_exp: int


class LatticeHNF(_HNF):
    """Column span of [[p^a, c], [0, p^b]] with 0 <= c < p^a."""

    __slots__ = ()

    def __new__(cls, p: int, a_exp: int, c: int, b_exp: int):
        if not 0 <= c < p**a_exp:
            raise ValueError("off-diagonal entry must be reduced")
        return tuple.__new__(cls, (p, a_exp, c, b_exp))

    @property
    def index_exponent(self) -> int:
        return self.a_exp + self.b_exp

    def matrix(self) -> tuple[int, int, int, int]:
        """Entries (m00, m01, m10, m11) with m10 = 0."""
        return (self.p**self.a_exp, self.c, 0, self.p**self.b_exp)

    def __str__(self) -> str:
        return f"[[{self.p}^{self.a_exp},{self.c}],[0,{self.p}^{self.b_exp}]]"


def hnf(p: int, m00: int, m01: int, m10: int, m11: int) -> LatticeHNF:
    """Hermite form of the Z_p-span of the integer columns (m00, m10), (m01, m11).

    Column operations only (Cohen, GTM 138, section 2.4): the bottom entry of
    least valuation, p^b*u, becomes the pivot p^b; clearing the other bottom
    entry leaves a first column of valuation val(det) - b.  Every caller
    passes a full-rank span, so a singular one is an InvariantViolation.
    """
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise InvariantViolation("the columns do not span a full-rank lattice")
    if m11 == 0 or (m10 != 0 and _val(p, m10) < _val(p, m11)):
        m00, m01, m10, m11 = m01, m00, m11, m10
    b = _val(p, m11)
    a = _val(p, det) - b
    pa = p**a
    return LatticeHNF(p, a, m01 * pow(m11 // p**b, -1, pa) % pa, b)


def class_rep(L: LatticeHNF) -> LatticeHNF:
    """Primitive representative of the homothety class (vertex) of L."""
    vals = [L.a_exp, L.b_exp]
    if L.c:
        vals.append(_val(L.p, L.c))
    v = min(vals)
    return LatticeHNF(L.p, L.a_exp - v, L.c // L.p**v, L.b_exp - v)


def order_lattice(p: int, n: int) -> LatticeHNF:
    """O_n in the coordinate basis {1, Delta}: span of (1,0) and (0, p^n)."""
    return LatticeHNF(p, 0, 0, n)


def anchor_lattice(inst: CaseInstance, a: int) -> LatticeHNF:
    """The class of Delta^a * O_0: the basin vertex at anchor a.

    The torus moves the basin, and the uniformizer Delta steps it one anchor
    along: a unit Delta fixes the one unramified vertex, Delta crosses the
    ramified edge (Delta^2 = -p), and Delta = (1, p) translates the split
    apartment.  For a < 0 the class is that of conj(Delta)^(-a) * O_0, with
    conj(Delta) = tau - Delta = delta / Delta, so the element stays integral.
    """
    step = (0, 1) if a >= 0 else (inst.tau, -1)  # Delta or conj(Delta)
    m00, m01, m10, m11 = _mul_matrix(inst, 0, *step)
    x, y = 1, 0
    for _ in range(abs(a)):
        x, y = m00 * x + m01 * y, m10 * x + m11 * y
    return class_rep(hnf(inst.p, *_mul_matrix(inst, 0, x, y)))


def lattice_distance(inst: CaseInstance, A: LatticeHNF, B: LatticeHNF) -> int:
    """Tree distance between the classes of A and B.

    This is the gap |v2 - v1| of the elementary-divisor valuations of
    A^{-1} B, computed as val(det A) + val(det B) - 2 * minval(adj(A) * B);
    the value only depends on the homothety classes.  Both lattices are
    nonsingular, so adj(A) * B has a nonzero entry.
    """
    a00, a01, a10, a11 = A.matrix()
    b00, b01, b10, b11 = B.matrix()
    # adj(A) = [[a11, -a01], [-a10, a00]]
    c00 = a11 * b00 - a01 * b10
    c01 = a11 * b01 - a01 * b11
    c10 = -a10 * b00 + a00 * b10
    c11 = -a10 * b01 + a00 * b11
    mv = min(_val(inst.p, e) for e in (c00, c01, c10, c11) if e)
    return A.index_exponent + B.index_exponent - 2 * mv


def neighbor_classes(L: LatticeHNF) -> list[LatticeHNF]:
    """The p + 1 classes at tree distance 1 from the class of L.

    They are the classes of the index-p sublattices (Serre, *Trees*, ch.
    II.1): L*diag(1, p), then L*[[p, t], [0, 1]] for 0 <= t < p, whose
    Hermite forms are (p, a, c*p mod p^a, b + 1) and (p, a + 1, c + t*p^a, b).
    Two distinct sublattices of one index are never homothetic, so the
    p + 1 classes are distinct.
    """
    p, a, c, b = L
    pa = p**a
    return [class_rep(LatticeHNF(p, a, c * p % pa, b + 1))] + [
        class_rep(LatticeHNF(p, a + 1, c + t * pa, b)) for t in range(p)
    ]


class ClassAtlas:
    """Bijection between lattice classes and the tree addresses of O_n's ideals.

    The truncation holds every ideal of O_n of index exponent at most
    max_contribution.  Its radius is n: an ideal's class sits at the height
    of its multiplier level, which is at most n.  Height is the distance
    to the basin (Serre, *Trees*, ch. II), so a split class at height
    h <= n and anchor j != 0 lies at distance n + |j| + h from O_n; the
    index exponents at a vertex start at its distance, so the anchors run
    out to |j| = max_contribution - n; the other basins ignore the halfwidth.

    Built by breadth-first descent from the anchor classes, anchor a seeded
    with ``anchor_lattice(inst, a)`` and the classes of its
    ``basin_neighbors`` kept from its children, labelling children in
    sorted Hermite order except at the way-out vertex of each height h,
    whose child 0, the next way-out vertex, is forced to be the next
    main-sequence class O_{h+1}.  A negative size raises ``ValueError``.
    """

    def __init__(self, inst: CaseInstance, n: int, max_contribution: int):
        if n < 0 or max_contribution < 0:
            raise ValueError("need n >= 0 and max_contribution >= 0")
        self.inst = inst
        self.n = n
        self.max_contribution = max_contribution
        spec = BuildingSpec(inst.tag, inst.p)
        self.tree = tree = build_truncated(spec, n, max(max_contribution - n, n))
        # Each anchor's class, with its basin neighbours' classes (one past
        # each end of the truncated apartment) excluded from its children.
        anchors = [v.anchor for v in tree.vertices if not v.word]
        basin = {b for a in anchors for b in (a, *basin_neighbors(inst.tag, a))}
        line = {a: anchor_lattice(inst, a) for a in basin}
        queue = deque(
            (VertexAddr(a), line[a], tuple(line[b] for b in basin_neighbors(inst.tag, a)))
            for a in anchors
        )
        self._by_class: dict[LatticeHNF, VertexAddr] = {}
        while queue:
            addr, lat, excluded = queue.popleft()
            if lat in self._by_class:
                raise InvariantViolation(f"class {lat} registered twice")
            self._by_class[lat] = addr
            if addr.height >= tree.radius:
                continue
            children = sorted(c for c in neighbor_classes(lat) if c not in excluded)
            if addr == way_out_vertex(addr.height):
                nxt = order_lattice(inst.p, addr.height + 1)
                if nxt not in children:
                    raise InvariantViolation("main-sequence class missing among children")
                children.remove(nxt)
                children.insert(0, nxt)
            queue.extend(
                (VertexAddr(addr.anchor, addr.word + (i,)), child, (lat,))
                for i, child in enumerate(children)
            )

    def locate(self, lat: LatticeHNF) -> VertexAddr:
        cls = class_rep(lat)
        addr = self._by_class.get(cls)
        if addr is None:
            raise OutsideTruncation(
                f"class {cls} of {self.inst.tag.value} p={self.inst.p} is outside the "
                f"atlas of radius {self.tree.radius} halfwidth {self.tree.halfwidth}"
            )
        return addr

    def place(self, L: LatticeHNF) -> VertexAddr:
        """The address of the class of the ideal L of O_n (in the O_n basis)."""
        return self.locate(_ideal_class(self.n, L))


# -- ideal enumeration ---------------------------------------------------


@dataclass(frozen=True)
class IdealRecord:
    """One enumerated finite-index ideal of O_n (in the O_n basis).

    It carries no tree address: ``ClassAtlas.place`` gives that.  The
    generator is the pair (x, y) of x + y*Delta, or None when the ideal is
    not principal.
    """

    lattice: LatticeHNF
    generator: Optional[tuple[int, int]] = None
    type_eps: Optional[tuple[int, ...]] = None
    distance_to_main: Optional[int] = None

    @property
    def principal(self) -> bool:
        return self.generator is not None


def is_ideal(inst: CaseInstance, n: int, L: tuple[int, int, int, int]) -> bool:
    """Closure of the sublattice L = (p, a, c, b) under multiplication by p^n*Delta.

    L is any tuple (p, a, c, b) of Hermite data; a LatticeHNF is one.  On
    the O_n basis {1, p^n*Delta}, p^n*Delta sends (x, y) to
    (-delta p^{2n} y, x + tau p^n y), and (w0, w1) lies in L iff p^b | w1
    and p^a | w0 - c*w1/p^b.  For the two columns of L this reads:

    * (p^a, 0) maps to (0, p^a), which lies in L iff a >= b and
      p^a | c*p^(a-b), that is, p^b | c;
    * then, with c = p^b*r, (c, p^b) maps to (-delta p^{2n} p^b,
      p^b (r + tau p^n)), which lies in L iff p^a divides
      p^b (delta p^{2n} + r (r + tau p^n)), that is,
      r^2 + tau p^n r + delta p^{2n} = 0 mod p^(a-b).

    Precondition: L[0] == inst.p.  The residue tests below read p from L,
    and the scan never checks it per call (traveling checks its argument).

    Wherever the residue c mod p can decide, it is tested first, and no
    power of p is formed and no f_n(r) = r^2 + tau p^n r + delta p^{2n}
    evaluated before a candidate survives it:

    * b >= 1: (1) p does not divide c; (2) a < b; (3) p^b does not divide
      c; a = b passes;
    * b = 0, n >= 1: f_n(c) = c^2 mod p, so (1) p does not divide c; a = 0
      passes;
    * b = 0, n = 0: a = 0 passes;
    * survivors: p^n is formed only for n >= 1 (f_0(r) = r (r + tau) +
      delta), f_n(r) is evaluated once, and (4) p does not divide f_n(r);
      (5) only then the root condition mod p^(a-b).

    The residue c mod p settles most candidates, so it comes first; the
    README gives the share each step ends on the arithmetic-b7 grid.
    """
    p, a, c, b = L
    if b:
        if c % p or a < b:
            return False
        r, rem = divmod(c, p**b)
        if rem:
            return False
        j = a - b
        if not j:
            return True
    else:
        if n and c % p:
            return False
        if not a:
            return True
        r = c
        j = a
    if n:
        pn = p**n
        f = r * (r + inst.tau * pn) + inst.delta * pn * pn
    else:
        f = r * (r + inst.tau) + inst.delta
    return not f % p and not f % p**j


def _delta_maps_into(inst: CaseInstance, n: int, L: LatticeHNF, M: LatticeHNF) -> bool:
    """Whether p^n*Delta maps the lattice L into the lattice M (O_n basis)."""
    pn = inst.p**n
    pa = M.p**M.a_exp
    pb = M.p**M.b_exp
    for x, y in ((L.p**L.a_exp, 0), (L.c, L.p**L.b_exp)):
        w1 = x + inst.tau * pn * y
        if w1 % pb or (-inst.delta * pn * pn * y - M.c * (w1 // pb)) % pa:
            return False
    return True


def multiplier_level(inst: CaseInstance, n: int, L: LatticeHNF) -> int:
    """The least h with p^h*Delta*L inside L: the multiplier ring is O_h.

    Quadratic orders are Gorenstein, so the O_n-ideal L is principal exactly
    when its level is n (always, for n = 0); unlike the generator search,
    this decider never looks at norms.  p^(n-k)*Delta*L lies in L iff
    p^n*Delta*L lies in p^k*L.  This holds for every n - k at or above the
    level, so the scan tries k = 1, 2, ... and stops at the first failure:
    a principal ideal costs one test.
    """
    for k in range(1, n + 1):
        pkL = LatticeHNF(L.p, L.a_exp + k, L.p**k * L.c, L.b_exp + k)
        if not _delta_maps_into(inst, n, L, pkL):
            return n - k + 1
    return 0


def _find_generator(
    inst: CaseInstance, n: int, L: LatticeHNF
) -> Optional[tuple[int, int]]:
    """Search for a generator among the p^2 classes of I/pI.

    An element alpha of I generates iff val_p(N(alpha)) equals the index
    exponent k (it is always >= k on I).  This only depends on alpha mod pI:
    adding beta in pI to a generator alpha gives alpha*(1 + beta/alpha) with
    beta/alpha in pO_n, so a unit multiple; and if alpha + beta generated,
    then so would alpha by the same argument.  So the candidates
    s*e1 + t*e2 with 0 <= s, t < p, for the Hermite basis e1 = (p^a, 0),
    e2 = (c, p^b), decide principality exactly.  The scan runs t outer and
    s inner and stops at the first hit, which is the first hit of a scan
    over all of I mod p^{k+1} in the same order.  Returns O_n-basis
    coordinates of the generator, or None when the ideal is non-principal.
    """
    p = inst.p
    k = L.index_exponent
    pk = p**k
    pk1 = pk * p
    pa = p**L.a_exp
    pb = p**L.b_exp
    tau_n = inst.tau * p**n
    delta_n = inst.delta * p ** (2 * n)
    for t in range(p):
        v = t * pb
        t1 = t * L.c
        lin = tau_n * v
        quad = delta_n * v * v
        for s in range(p):
            u = s * pa + t1
            norm = u * u + lin * u + quad
            if norm % pk == 0 and norm % pk1 != 0:
                return (u, v)
    return None


@functools.lru_cache(maxsize=CACHE_SIZE)
def _enumerate_core(
    inst: CaseInstance, n: int, max_contribution: int
) -> tuple[IdealRecord, ...]:
    p = inst.p
    total = sum(p**a for k in range(max_contribution + 1) for a in range(k + 1))
    if total > MAX_ENUMERATED_LATTICES:
        raise LimitExceeded(
            f"ideal enumeration {inst.tag.value} p={p} n={n} "
            f"max-contribution={max_contribution}: {total} candidate lattices, "
            f"above MAX_ENUMERATED_LATTICES = {MAX_ENUMERATED_LATTICES}"
        )
    on_class = class_rep(order_lattice(p, n))
    # Read at call time, so a wrapper bound in this module sees every candidate.
    ideal_test = is_ideal
    records = []
    for k in range(max_contribution + 1):
        for a in range(k + 1):
            b = k - a
            for c in range(p**a):
                if not ideal_test(inst, n, (p, a, c, b)):
                    continue
                # range(p**a) is the reduction condition: no need to revalidate.
                L = tuple.__new__(LatticeHNF, (p, a, c, b))
                coords = _find_generator(inst, n, L)
                if coords is None:
                    records.append(IdealRecord(L))
                    continue
                u, v = coords
                _confirm_generator(inst, n, L, u, v)
                gen = (u, p**n * v)
                dist = lattice_distance(inst, _ideal_class(n, L), on_class)
                records.append(IdealRecord(L, gen, _exact_type(inst, *gen), dist))
    return tuple(records)


def _confirm_generator(inst: CaseInstance, n: int, L: LatticeHNF, u: int, v: int):
    """Check alpha*O_n = I by Hermite-form comparison (exact integers)."""
    H = hnf(inst.p, *_mul_matrix(inst, n, u, v))
    if H != L:
        raise InvariantViolation(f"claimed generator spans {H}, not {L}")


def _exact_type(inst: CaseInstance, x: int, y: int) -> tuple[int, ...]:
    """Type of a nonzero x + y*Delta from exact integer coordinates: a g-tuple.

    Ramified: (val_pi,) = (min(2 val(x), 2 val(y) + 1),).  Unramified:
    (min(val(x), val(y)),).  Split: val_p of each factor component, (x + y)
    and (x + p*y).  A zero coordinate has infinite valuation and is skipped.
    """
    p = inst.p
    if inst.tag is BasinKind.SPLIT:
        return (_val(p, x + y), _val(p, x + p * y))
    if inst.tag is BasinKind.RAMIFIED:
        return (min(2 * _val(p, z) + i for i, z in enumerate((x, y)) if z),)
    return (min(_val(p, z) for z in (x, y) if z),)


def _ideal_class(n: int, L: LatticeHNF) -> LatticeHNF:
    """Homothety class of the ideal in {1, Delta} coordinates.

    The O_n basis differs from {1, Delta} by diag(1, p^n), so the Hermite
    data only shifts in the second diagonal exponent.
    """
    return class_rep(LatticeHNF(L.p, L.a_exp, L.c, L.b_exp + n))


def enumerate_ideals(inst: CaseInstance, n: int, max_contribution: int) -> list[IdealRecord]:
    """All ideals of O_n with index exponent <= max_contribution.

    Records come in scan order: by index exponent, then a, then c.  They
    carry no tree address; ``ClassAtlas.place`` gives one.
    """
    if n < 0 or max_contribution < 0:
        raise ValueError("need n >= 0 and max_contribution >= 0")
    return list(_enumerate_core(inst, n, max_contribution))


def traveling(inst: CaseInstance, n: int, J: LatticeHNF) -> LatticeHNF:
    """p*J as an ideal of O_{n+1} (in the O_{n+1} basis).

    An element u + v p^n Delta of O_n maps to pu + v p^{n+1} Delta, so the
    basis change is diag(p, 1) and the Hermite data shifts in the first
    diagonal exponent.
    """
    if J.p != inst.p:
        raise NotAnIdeal(f"{J} is a lattice over {J.p}, not over {inst.p}")
    if not is_ideal(inst, n, J):
        raise NotAnIdeal(f"{J} is not an ideal of level {n}")
    out = LatticeHNF(J.p, J.a_exp + 1, J.p * J.c, J.b_exp)
    if not is_ideal(inst, n + 1, out):
        raise InvariantViolation("traveling image is not an ideal")
    return out


def source_and_distance_check(atlas: ClassAtlas) -> tuple[int, list[str]]:
    """Placement of every ideal of the atlas's O_n, vertex by vertex over the ball.

    The ball is every vertex of the atlas's truncation within distance
    max_contribution (the atlas's bound) of the way-out vertex O_n, and
    any vertex holding an ideal.  v passes when (i) each ideal there has
    multiplier level h(v), (ii) each principal one has lattice distance
    dist(v, O_n) to O_n, and (iii) the index exponents there are exactly
    dist, dist + 2, ... up to the bound.  So the pairs (vertex, index
    exponent) are distinct and fill the ball.  Returns the number of
    vertices checked and a description of each failing vertex, in the order
    of the truncation.
    """
    inst, n, max_contribution, tree = atlas.inst, atlas.n, atlas.max_contribution, atlas.tree
    by_vertex: dict[VertexAddr, list[IdealRecord]] = {}
    for rec in enumerate_ideals(inst, n, max_contribution):
        by_vertex.setdefault(atlas.place(rec.lattice), []).append(rec)
    target = way_out_vertex(n)
    checked = 0
    failures = []
    for v in tree.vertices:
        dist = tree_distance(tree, v, target)
        group = by_vertex.get(v, [])
        if dist > max_contribution and not group:
            continue
        checked += 1
        exponents = sorted(r.lattice.index_exponent for r in group)
        if not (
            exponents == list(range(dist, max_contribution + 1, 2))
            and all(multiplier_level(inst, n, r.lattice) == v.height for r in group)
            and all(r.distance_to_main == dist for r in group if r.principal)
        ):
            failures.append(f"vertex={v}: distance {dist}, index exponents {exponents}")
    return checked, failures
