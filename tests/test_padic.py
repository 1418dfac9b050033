import dataclasses
import importlib
import pkgutil
from collections import Counter
from itertools import product

import pytest

from impactzeta.building import (
    BasinKind,
    VertexAddr,
    distance,
    layer_members,
    way_out_vertex,
)
from impactzeta.errors import (
    ImpactZetaError,
    InvariantViolation,
    LimitExceeded,
    NotAnIdeal,
    NotInOrderUnit,
    OutsideTruncation,
    UnsupportedPrime,
)
from impactzeta.orders import extension_case, principal_count_series, principal_zeta, unit_index
from impactzeta.padic import (
    CACHE_SIZE,
    _confirm_generator,
    _delta_maps_into,
    _enumerate_core,
    _exact_type,
    _find_generator,
    _ideal_class,
    CaseInstance,
    ClassAtlas,
    LatticeHNF,
    anchor_lattice,
    class_rep,
    coset_reps,
    enumerate_ideals,
    hnf,
    in_order_unit,
    is_ideal,
    lattice_distance,
    make_case,
    multiplier_level,
    neighbor_classes,
    order_lattice,
    slope_map,
    source_and_distance_check,
    traveling,
)
from impactzeta.report import all_passed
import impactzeta
from impactzeta import padic, suites
from impactzeta.suites import arithmetic_suite

RAM = BasinKind.RAMIFIED
UNRAM = BasinKind.UNRAMIFIED
SPLIT = BasinKind.SPLIT


@pytest.fixture(scope="module")
def ram3():
    return make_case(RAM, 3)


@pytest.fixture(scope="module")
def unram3():
    return make_case(UNRAM, 3)


@pytest.fixture(scope="module")
def split3():
    return make_case(SPLIT, 3)


# -- case construction ------------------------------------------------------


def test_make_case_parameters(ram3, unram3):
    assert (ram3.tau, ram3.delta) == (0, 3)
    assert (unram3.tau, unram3.delta) == (0, -2)  # Delta^2 = 2, a nonresidue mod 3
    unram2 = make_case(UNRAM, 2)
    assert (unram2.tau, unram2.delta) == (1, 1)  # Delta^2 = Delta - 1
    split5 = make_case(SPLIT, 5)
    assert (split5.tau, split5.delta) == (6, 5)


PRIMES_BELOW_200 = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


def test_make_case_validation():
    # Every case has an instance at every prime, p = 2 included, that its
    # case rule accepts; only a non-prime p is refused.
    for tag in (RAM, UNRAM, SPLIT):
        for p in PRIMES_BELOW_200:
            assert make_case(tag, p).p == p
        for p in (0, 1, 4, 9):
            with pytest.raises(UnsupportedPrime, match=f"{p} is not prime"):
                make_case(tag, p)


@pytest.mark.parametrize(
    "tag,p,tau,delta",
    [
        (RAM, 6, 0, 6),  # the ramified rule alone would accept it
        (RAM, 0, 0, 0),  # the ramified rule alone would divide by 0
        (SPLIT, 4, 5, 4),  # Delta = (1, p) at a composite p
    ],
)
def test_case_instance_refuses_a_composite_p(tag, p, tau, delta):
    with pytest.raises(UnsupportedPrime, match=f"{p} is not prime"):
        CaseInstance(tag, p, tau, delta)


def test_unramified_delta_is_minus_the_least_nonresidue():
    # Referee: the set of squares mod p, against Euler's criterion.
    for p in PRIMES_BELOW_200[1:]:
        squares = {x * x % p for x in range(1, p)}
        least = min(e for e in range(2, p) if e not in squares)
        assert make_case(UNRAM, p).delta == -least, p


@pytest.mark.parametrize(
    "tag,p,tau,delta",
    [
        (RAM, 2, 0, 4),  # p^2 divides delta: not Eisenstein
        (RAM, 3, 0, 9),
        (RAM, 2, 1, 2),  # p does not divide tau
        (UNRAM, 3, 0, -1),  # x^2 - 1 splits mod 3
        (SPLIT, 3, 1, 3),  # a split Delta other than (1, p)
        (SPLIT, 3, 3, 3),
    ],
)
def test_case_instance_refuses_an_algebra_outside_its_case(tag, p, tau, delta):
    message = f"tau={tau}, delta={delta} is not a {tag.value} algebra at p={p}"
    with pytest.raises(ValueError, match=message):
        CaseInstance(tag, p, tau, delta)


# -- element arithmetic ------------------------------------------------------


def _mul(inst, u, v):
    """The product of the elements u = (x, y) and v of O_0, as a pair."""
    m00, m01, m10, m11 = padic._mul_matrix(inst, 0, *u)
    return (m00 * v[0] + m01 * v[1], m10 * v[0] + m11 * v[1])


def test_mul_examples(ram3, split3):
    assert _mul(split3, (0, 1), (0, 1)) == (-3, 4)  # minimal polynomial X^2-4X+3
    assert _mul(ram3, (1, 1), (1, -1)) == (4, 0)  # (1+D)(1-D) = 1 - D^2 = 1 + 3
    assert _mul(ram3, (5, 7), (1, 0)) == (5, 7)


def test_elem_type_examples(ram3, unram3, split3):
    # 3*Delta in the split case has factor components (0 + 3, 0 + 3*3).
    assert _exact_type(split3, 0, 3) == (1, 2)
    # A type is a g-tuple in every case: a 1-tuple for the two fields.
    assert _exact_type(ram3, 0, 1) == (1,)
    assert _exact_type(unram3, 3, 3) == (1,)
    assert _exact_type(ram3, 9, 0) == (4,)


def test_enumeration_overflow_guard():
    inst = make_case(RAM, 2)
    message = (
        r"ideal enumeration ramified p=2 n=0 max-contribution=22: "
        r"\d+ candidate lattices, above MAX_ENUMERATED_LATTICES = 2000000"
    )
    with pytest.raises(LimitExceeded, match=message):
        enumerate_ideals(inst, 0, 22)
    # 3^11 + 3^10 = 236196 candidate keys, refused before the scan.
    message = (
        r"coset representatives ramified p=3 n=11: "
        r"236196 candidate keys, above MAX_COSET_REPS = 100000"
    )
    with pytest.raises(LimitExceeded, match=message):
        coset_reps(make_case(RAM, 3), 11)


# -- unit filtration ----------------------------------------------------------


def test_slope_map_examples(ram3):
    p = 3
    assert slope_map(ram3, 1, (1, 2 * p)) == 2
    assert slope_map(ram3, 1, (1, 0)) == 0
    assert slope_map(ram3, 1, (2, p)) == 2  # 1 * 2^{-1} = 2 mod 3
    with pytest.raises(NotInOrderUnit):
        slope_map(ram3, 1, (1, 1))


def test_slope_map_is_homomorphism(ram3, unram3, split3):
    for inst in (ram3, unram3, split3):
        n = 1
        units = [(w, z * inst.p**n) for w in range(1, inst.p) for z in range(inst.p)]
        for u in units:
            for v in units:
                lhs = slope_map(inst, n, _mul(inst, u, v))
                rhs = (slope_map(inst, n, u) + slope_map(inst, n, v)) % inst.p
                assert lhs == rhs
        # Kernel: slope 0 exactly on the next order's units.
        for u in units:
            assert (slope_map(inst, n, u) == 0) == in_order_unit(inst, n + 1, u)


@pytest.mark.parametrize(
    "build,n,bound", [(enumerate_ideals, -1, 3), (enumerate_ideals, 1, -1), (ClassAtlas, 1, -1)]
)
def test_negative_sizes_are_refused(build, n, bound):
    with pytest.raises(ValueError, match="need n >= 0 and max_contribution >= 0"):
        build(make_case(SPLIT, 2), n, bound)


def test_coset_reps_counts(ram3, unram3, split3):
    assert coset_reps(ram3, 0) == [(1, 0)]
    assert len(coset_reps(ram3, 2)) == 9
    assert len(coset_reps(unram3, 1)) == 4
    assert len(coset_reps(split3, 1)) == 2
    # F_4^* / F_2^* has order 3: the keys 1, 1 + Delta and Delta.
    unram2 = make_case(UNRAM, 2)
    assert coset_reps(unram2, 1) == [(1, 0), (1, 1), (0, 1)]
    with pytest.raises(ValueError, match="n >= 0"):
        coset_reps(ram3, -1)
    # [O_{n-d}^* : O_n^*] = p^d: each level past the first adds a factor p.
    for inst in (ram3, unram3, split3, make_case(SPLIT, 2)):
        p = inst.p
        for n in range(2, 5):
            for d in range(1, n):
                assert len(coset_reps(inst, n)) == p**d * len(coset_reps(inst, n - d))


def test_coset_counts_match_unit_index_formula():
    for tag, p in [
        (RAM, 2), (RAM, 3), (RAM, 5), (RAM, 7),
        (UNRAM, 2), (UNRAM, 3), (UNRAM, 5), (UNRAM, 7),
        (SPLIT, 2), (SPLIT, 3), (SPLIT, 5), (SPLIT, 7),
    ]:
        inst = make_case(tag, p)
        case = extension_case(tag)
        for n in range(6):
            formula = unit_index(case, n).subs_q(p).as_int()
            assert len(coset_reps(inst, n)) == formula, (tag, p, n)


CASES = [(RAM, 2), (RAM, 3), (UNRAM, 3), (UNRAM, 5), (SPLIT, 2), (SPLIT, 3), (UNRAM, 2)]


def _same_coset(inst, n, u, v):
    """The referee: u / v, tested as u * conj(v), is a unit of O_n.

    conj(v) = x + y*(tau - Delta) is v^{-1} * N(v), and N(v) is a p-adic unit.
    """
    x, y = v
    return in_order_unit(inst, n, _mul(inst, u, (x + inst.tau * y, -y)))


@pytest.mark.parametrize("tag,p", CASES, ids=[f"{t.value}-{p}" for t, p in CASES])
def test_unit_class_key_matches_pairwise_quotient_test(tag, p):
    # Exhaustive: every unit x + y*Delta with 0 <= x, y < p^n lies in the
    # coset of exactly one coset key, by the pairwise quotient test.  Every
    # unit of O_0 is congruent mod p^n to one of these, and 1 + p^n O_0 lies
    # in O_n^*, so the keys reach every coset, once.
    inst = make_case(tag, p)
    for n in (1, 2) if p <= 3 else (1,):
        pn = p**n
        reps = coset_reps(inst, n)
        for x in range(pn):
            for y in range(pn):
                u = (x, y)
                if in_order_unit(inst, 0, u):
                    hits = [v for v in reps if _same_coset(inst, n, u, v)]
                    assert len(hits) == 1, (n, u, hits)
    # The referee accepts pairs built equivalent, u * lambda * (1 + p^n w),
    # with large coordinates.
    for n in (1, 3):
        for u in coset_reps(inst, n)[:20]:
            for lam, (wx, wy) in [(1, (5, 7)), (p * p - 1, (-3, 11))]:
                v = _mul(inst, _mul(inst, u, (lam, 0)), (1 + p**n * wx, p**n * wy))
                assert _same_coset(inst, n, u, v)


@pytest.mark.parametrize("tag,p", CASES, ids=[f"{t.value}-{p}" for t, p in CASES])
def test_coset_reps_match_the_pairwise_scan(tag, p):
    # The keys are units of O_0 and pairwise inequivalent, past the depth
    # that the exhaustive test above reaches.
    inst = make_case(tag, p)
    for n in range(4 if p <= 3 else 3):
        reps = coset_reps(inst, n)
        assert all(in_order_unit(inst, 0, u) for u in reps)
        for i, u in enumerate(reps):
            assert not any(_same_coset(inst, n, u, v) for v in reps[:i])


# -- lattices -----------------------------------------------------------------


def test_hnf_reduce_basic(ram3):
    # Columns (3, 0) and (1, 1) span the standard lattice shifted: det 3.
    L = hnf(3, 3, 1, 0, 1)
    assert (L.a_exp, L.c, L.b_exp) == (1, 1, 0)
    # Unimodular column mixes do not change the span.
    L2 = hnf(3, 4, 1, 1, 1)
    assert L2 == L


def test_class_rep_strips_scaling():
    L = LatticeHNF(3, 2, 3, 1)
    assert class_rep(L) == LatticeHNF(3, 1, 1, 0)
    assert class_rep(LatticeHNF(3, 0, 0, 0)) == order_lattice(3, 0)


def test_lattice_distances(ram3):
    o0 = order_lattice(3, 0)
    pi = anchor_lattice(ram3, 1)
    assert lattice_distance(ram3, o0, o0) == 0
    assert lattice_distance(ram3, o0, pi) == 1
    for n in range(5):
        assert lattice_distance(ram3, o0, class_rep(order_lattice(3, n))) == n


def test_anchor_lattice_positions():
    # Consecutive anchors are adjacent classes, on the ramified edge and
    # along the split apartment, and anchor 0 is the class of O_0.
    for p in (2, 3, 5):
        o0 = order_lattice(p, 0)
        ram, unram, split = (make_case(tag, p) for tag in (RAM, UNRAM, SPLIT))
        for inst, anchors in ((ram, range(2)), (split, range(-3, 4))):
            assert anchor_lattice(inst, 0) == o0
            for a, b in product(anchors, repeat=2):
                d = lattice_distance(inst, anchor_lattice(inst, a), anchor_lattice(inst, b))
                assert d == abs(a - b)
        # The class of Delta*O_0 across the ramified edge.
        assert anchor_lattice(ram, 1) == LatticeHNF(p, 1, 0, 0)
        # The unramified Delta is a unit, so it fixes the one basin vertex.
        assert anchor_lattice(unram, 1) == anchor_lattice(unram, -1) == o0


def test_lattice_record_contract(ram3):
    with pytest.raises(ValueError, match="reduced"):
        LatticeHNF(3, 2, 9, 0)  # c = p^a
    with pytest.raises(ValueError, match="reduced"):
        LatticeHNF(3, 2, -1, 0)
    L = LatticeHNF(3, 4, 17, 2)
    with pytest.raises(AttributeError):
        L.c = 1
    twin = hnf(3, 81, 17, 0, 9)
    assert twin == L and hash(twin) == hash(L)
    assert len({L, twin, LatticeHNF(3, 4, 17, 1)}) == 2
    assert (str(L), L.index_exponent) == ("[[3^4,17],[0,3^2]]", 6)
    # The record is its own key: it equals, and sorts as, the tuple (p, a, c, b).
    assert L == (3, 4, 17, 2)
    assert sorted([L, LatticeHNF(3, 1, 2, 5), LatticeHNF(3, 4, 5, 0)]) == [
        (3, 1, 2, 5), (3, 4, 5, 0), (3, 4, 17, 2)
    ]
    assert repr(L) == "LatticeHNF(p=3, a_exp=4, c=17, b_exp=2)"
    # traveling's image set: distinct ideals of O_0 stay distinct in O_1.
    inner = enumerate_ideals(ram3, 0, 3)
    assert len({traveling(ram3, 0, r.lattice) for r in inner}) == len(inner)


def _acted_class(inst, u, base):
    """Homothety class of u * base, multiplying each column of base by u."""
    b00, b01, b10, b11 = base.matrix()
    (x0, y0), (x1, y1) = _mul(inst, u, (b00, b10)), _mul(inst, u, (b01, b11))
    return class_rep(hnf(inst.p, x0, x1, y0, y1))


def test_unit_action_fixes_basin(ram3, unram3, split3):
    # The coset representatives have unit norm (the determinant of
    # multiplication by u) and fix the anchor classes.
    def units(inst):
        return coset_reps(inst, 1) + coset_reps(inst, 2)

    for inst in (ram3, unram3, split3):
        o0 = order_lattice(inst.p, 0)
        for u in units(inst):
            assert in_order_unit(inst, 0, u)
            acted = _acted_class(inst, u, o0)
            assert lattice_distance(inst, acted, o0) == 0
    # Ramified units also fix the second anchor; split units fix every
    # apartment class.
    pi = anchor_lattice(ram3, 1)
    for u in units(ram3):
        acted = _acted_class(ram3, u, pi)
        assert lattice_distance(ram3, acted, pi) == 0
    for j in (-2, 1, 3):
        target = anchor_lattice(split3, j)
        for u in units(split3):
            acted = _acted_class(split3, u, target)
            assert lattice_distance(split3, acted, target) == 0


# -- ideal enumeration --------------------------------------------------------


def test_ideal_closure_examples(ram3):
    assert is_ideal(ram3, 1, LatticeHNF(3, 1, 0, 0))  # pO_0 inside O_1
    assert not is_ideal(ram3, 1, LatticeHNF(3, 0, 0, 1))
    assert is_ideal(ram3, 1, LatticeHNF(3, 2, 3, 0))


def test_enumerate_histogram_ramified(ram3):
    records = enumerate_ideals(ram3, 1, 3)
    hist = Counter(r.type_eps for r in records if r.principal)
    assert hist == {(0,): 1, (2,): 3, (3,): 3}
    assert sum(1 for r in records if not r.principal) == 3


def test_enumerate_histogram_split(split3):
    records = enumerate_ideals(split3, 1, 2)
    hist = Counter(r.type_eps for r in records if r.principal)
    assert hist == {(0, 0): 1, (1, 1): 2}


def test_enumerate_histogram_unramified():
    inst = make_case(UNRAM, 5)
    records = enumerate_ideals(inst, 1, 2)
    by_c = Counter(r.lattice.index_exponent for r in records if r.principal)
    assert by_c == {0: 1, 2: 6}


@pytest.mark.parametrize("tag", [RAM, UNRAM, SPLIT])
def test_scan_visits_every_reduced_hermite_form_once(monkeypatch, tag):
    # n = 0 and n >= 1 take different branches of the closure test.
    bound = 4
    seen = []

    def recording(inst, n, L):
        seen.append(L)
        return is_ideal(inst, n, L)

    monkeypatch.setattr(padic, "is_ideal", recording)
    for p in (2, 3):
        inst = make_case(tag, p)
        # The candidates are plain (p, a, c, b) tuples; only an ideal gets a record.
        expected = {
            (p, a, c, k - a)
            for k in range(bound + 1)
            for a in range(k + 1)
            for c in range(p**a)
        }
        for n in (0, 1, 2):
            seen.clear()
            _enumerate_core.cache_clear()
            records = enumerate_ideals(inst, n, bound)
            # is_ideal reads p from the candidate, so every call is over inst.p.
            assert all(L[0] == inst.p for L in seen), (p, n)
            assert len(seen) == len(set(seen)) and set(seen) == expected, (p, n)
            assert len(seen) == sum(p**a for k in range(bound + 1) for a in range(k + 1))
            # The scan builds its candidates without validation; the checked
            # constructor must accept every one of them.
            assert all(LatticeHNF(*L) == L for L in seen)
            assert records and all(type(r.lattice) is LatticeHNF for r in records)


@pytest.mark.parametrize(
    "tag,p",
    [
        (RAM, 2),
        (RAM, 3),
        (RAM, 5),
        (SPLIT, 2),
        (SPLIT, 3),
        (SPLIT, 5),
        (UNRAM, 3),
        (UNRAM, 5),
        (UNRAM, 7),
        (UNRAM, 2),
    ],
)
def test_closure_test_matches_the_column_referee(tag, p):
    # The root condition of is_ideal against the direct test that p^n*Delta
    # maps both Hermite columns into L, on every reduced Hermite form.  At
    # p >= 5 this proves the exit on c mod p (f_n(c) = c^2 mod p for n >= 1)
    # with index exponent <= 4 and n <= 4.
    inst = make_case(tag, p)
    max_k, max_n = (5, 3) if p <= 3 else (4, 4)
    forms = [
        LatticeHNF(p, a, c, k - a)
        for k in range(max_k + 1)
        for a in range(k + 1)
        for c in range(p**a)
    ]
    for n in range(max_n + 1):
        for L in forms:
            want = _delta_maps_into(inst, n, L, L)
            assert is_ideal(inst, n, L) == want, (n, L)
            assert is_ideal(inst, n, tuple(L)) == want, (n, L)


def test_caches_are_bounded():
    # Every lru_cache wrapper defined in an impactzeta module, at module level
    # or on a class, keeps at most its module's CACHE_SIZE entries: an
    # unbounded cache (maxsize=None) fails here.  The package has one
    # lru_cache, and CACHE_SIZE is defined only in the module that holds it.
    # This scan cannot see plain module-level memos: tests/test_module_state.py
    # lists them from the source, and genfun._running, the one other, is
    # pinned to one entry in tests/test_genfun.py.
    cached = {}
    sized = []
    for info in pkgutil.iter_modules(impactzeta.__path__):
        module = importlib.import_module(f"impactzeta.{info.name}")
        if hasattr(module, "CACHE_SIZE"):
            sized.append(module)
        namespaces = [vars(module)] + [
            vars(obj) for obj in vars(module).values() if isinstance(obj, type)
        ]
        for ns in namespaces:
            for obj in ns.values():
                if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                    cached[obj] = module
    assert cached == {_enumerate_core: padic}
    assert sized == [padic]
    for fn, module in cached.items():
        maxsize = fn.cache_info().maxsize
        assert maxsize is not None, f"{module.__name__}.{fn.__qualname__} is unbounded"
        assert isinstance(module.CACHE_SIZE, int)
        assert maxsize == module.CACHE_SIZE, f"{module.__name__}.{fn.__qualname__}"
    assert _enumerate_core.cache_info().maxsize == CACHE_SIZE


def test_enumerate_series_match(ram3, unram3, split3):
    for inst in (ram3, unram3, split3):
        case = extension_case(inst.tag)
        for n in range(2):
            records = enumerate_ideals(inst, n, 5)
            by_c = Counter(r.lattice.index_exponent for r in records if r.principal)
            series = principal_count_series(principal_zeta(case, n), 5, inst.p)
            assert [by_c.get(d, 0) for d in range(6)] == series


def test_generator_spans_ideal(ram3):
    # Confirmed during enumeration, but double-check one by hand: the
    # index-9 ideal with generator 3 is 3*O_1.
    records = enumerate_ideals(ram3, 1, 2)
    three = [r for r in records if r.principal and r.type_eps == (2,)]
    assert len(three) == 3
    lattices = {r.lattice for r in three}
    assert LatticeHNF(3, 1, 0, 1) in lattices  # 3*O_1 = [[3,0],[0,3]]


def _exhaustive_generator(inst, n, L):
    """Referee: scan every element of I mod p^{k+1} O_n for a generator.

    Same order as the library's search (second Hermite coefficient outer),
    but over all p^{k+1-b} * p^{k+1-a} residues instead of I/pI.
    """
    p = inst.p
    k = L.index_exponent
    pk, pk1 = p**k, p ** (k + 1)
    pa, pb = p**L.a_exp, p**L.b_exp
    for bcoef in range(pk1 // pb):
        v = bcoef * pb
        for acoef in range(pk1 // pa):
            u = acoef * pa + bcoef * L.c
            norm = u * u + inst.tau * p**n * u * v + inst.delta * p ** (2 * n) * v * v
            if norm % pk == 0 and norm % pk1 != 0:
                return (u, v)
    return None


REFEREE_GRID = [
    (RAM, 2, 5), (RAM, 3, 5), (RAM, 5, 4),
    (UNRAM, 3, 5), (UNRAM, 5, 4),
    (SPLIT, 2, 5), (SPLIT, 3, 5), (SPLIT, 5, 4),
    (UNRAM, 2, 6),
]


@pytest.mark.parametrize("tag,p,bound", REFEREE_GRID)
def test_generator_search_matches_exhaustive_scan(tag, p, bound):
    inst = make_case(tag, p)
    for n in range(3):
        records = enumerate_ideals(inst, n, bound)
        for rec in records:
            coords = _exhaustive_generator(inst, n, rec.lattice)
            assert rec.principal == (coords is not None), rec.lattice
            if coords is not None:
                u, v = coords
                assert rec.generator == (u, p**n * v)
            # The multiplier-ring criterion is a second, norm-free decider.
            assert (multiplier_level(inst, n, rec.lattice) == n) == rec.principal


def test_generator_search_proves_non_principal(ram3):
    # pO_0 inside O_1: the search over I/pI must come up empty, as the full
    # scan does, and the multiplier ring O_0 is larger than O_1.
    L = LatticeHNF(3, 1, 0, 0)
    assert is_ideal(ram3, 1, L)
    assert _find_generator(ram3, 1, L) is None
    assert _exhaustive_generator(ram3, 1, L) is None
    assert multiplier_level(ram3, 1, L) == 0
    # O_1 itself is principal for both deciders.
    O1 = LatticeHNF(3, 0, 0, 0)
    assert _find_generator(ram3, 1, O1) == (1, 0)
    assert multiplier_level(ram3, 1, O1) == 1
    # As ideals of O_2, p^2*O_0 has level 0 and p*O_1 (traveled) level 1.
    assert multiplier_level(ram3, 2, LatticeHNF(3, 2, 0, 0)) == 0
    assert multiplier_level(ram3, 2, traveling(ram3, 1, O1)) == 1


def test_a_wrong_generator_is_an_invariant_violation(ram3):
    O1 = LatticeHNF(3, 0, 0, 0)
    _confirm_generator(ram3, 1, O1, 1, 0)
    # 3 spans 3*O_1, not O_1.
    with pytest.raises(InvariantViolation, match="claimed generator spans"):
        _confirm_generator(ram3, 1, O1, 3, 0)
    assert issubclass(InvariantViolation, ImpactZetaError)
    assert not issubclass(InvariantViolation, AssertionError)


def test_vertex_layer_reach_at_n3():
    # Layer-3 vertices of the finite ramified basin lie up to distance 7 from
    # the way out, beyond the bound 6; only the reachable ones must appear.
    results = arithmetic_suite(3, 6, {RAM: (2,)})
    names = {r.name for r in results}
    assert "vertex-layer ramified p=2 n=3" in names
    assert "principal-deciders ramified p=2 n=3" in names
    assert all_passed(results), [r.name for r in results if not r.passed]


def test_an_empty_prime_grid_runs_no_checks():
    # An empty mapping means "no primes", not "the default grid".
    assert arithmetic_suite(1, 3, {}) == []


def test_type_histogram_fails_on_a_type_outside_the_grid(monkeypatch):
    # A principal record whose type no counting rule predicts must not pass.
    def with_stray_type(*args, **kwargs):
        records = enumerate_ideals(*args, **kwargs)
        stray = next(r for r in records if r.principal)
        return records + [dataclasses.replace(stray, type_eps=(99,))]

    monkeypatch.setattr(suites, "enumerate_ideals", with_stray_type)
    results = arithmetic_suite(1, 4, {RAM: (3,)})
    histogram = [r for r in results if r.name.startswith("type-histogram ramified p=3")]
    assert len(histogram) == 2
    assert not any(r.passed for r in histogram)
    # The detail names the first type whose count disagrees: every type on
    # the grid agrees, so it is the stray one.
    assert {r.detail for r in histogram} == {"type (99,): 1 enumerated, 0 predicted"}


@pytest.mark.parametrize("tag", [RAM, UNRAM, SPLIT])
def test_a_reducible_delta_at_p2_is_refused(tag):
    # Delta^2 = Delta (tau = 1, delta = 0): x^2 + x = x(x + 1) splits mod 2,
    # so this algebra is none of the three cases, and no instance is built.
    with pytest.raises(ValueError, match=f"tau=1, delta=0 is not a {tag.value} algebra at p=2"):
        CaseInstance(tag, 2, tau=1, delta=0)


OTHER_ALGEBRAS = [
    (RAM, 2, 2, -2), (RAM, 2, 0, 6), (RAM, 3, 3, 3),
    (UNRAM, 3, 1, -1), (UNRAM, 5, 0, -3),
]


@pytest.mark.parametrize("tag,p,tau,delta", OTHER_ALGEBRAS)
def test_the_suite_passes_on_other_algebras_of_the_case(monkeypatch, tag, p, tau, delta):
    # The zeta functions depend only on the case, so every (tau, delta) that
    # the case rule accepts passes the suite.  Split is left out: its rule
    # accepts only Delta = (1, p), which _exact_type reads.
    monkeypatch.setattr(suites, "make_case", lambda tag, p: CaseInstance(tag, p, tau, delta))
    _enumerate_core.cache_clear()
    try:
        results = arithmetic_suite(2, 6, {tag: (p,)})
    finally:
        _enumerate_core.cache_clear()
    assert len(results) == 23
    assert all_passed(results), [r.name for r in results if not r.passed]


def test_traveling_examples(ram3):
    o0_as_ideal = LatticeHNF(3, 0, 0, 0)
    image = traveling(ram3, 0, o0_as_ideal)
    assert image == LatticeHNF(3, 1, 0, 0)
    records = enumerate_ideals(ram3, 1, 3)
    rec = {r.lattice: r for r in records}
    assert rec[LatticeHNF(3, 1, 0, 0)].principal is False  # pO_0 is not principal in O_1
    with pytest.raises(NotAnIdeal):
        traveling(ram3, 1, LatticeHNF(3, 0, 0, 1))


def test_traveling_rejects_a_lattice_over_another_prime(ram3):
    # is_ideal reads p from its argument and passes these forms over 2 for the
    # p = 3 instance, so without the prime check p*J would be a lattice over 2.
    for a, b in ((0, 0), (1, 1)):
        assert traveling(ram3, 0, LatticeHNF(3, a, 0, b)) == LatticeHNF(3, a + 1, 0, b)
        over_two = LatticeHNF(2, a, 0, b)
        for n in (0, 1):
            with pytest.raises(NotAnIdeal, match="over 2, not over 3"):
                traveling(ram3, n, over_two)


def test_traveling_bijection_small(ram3):
    inner = enumerate_ideals(ram3, 0, 3)
    image = {traveling(ram3, 0, r.lattice) for r in inner}
    outer = enumerate_ideals(ram3, 1, 4)
    non_principal = {r.lattice for r in outer if not r.principal}
    assert image == non_principal
    assert len(image) == len(inner)


# -- vertex location -----------------------------------------------------------


def test_atlas_spine(ram3):
    atlas = ClassAtlas(ram3, 2, 2)
    for n in range(3):
        assert atlas.locate(order_lattice(3, n)) == way_out_vertex(n)
    assert atlas.locate(anchor_lattice(ram3, 1)).anchor == 1
    with pytest.raises(
        OutsideTruncation,
        match=r"class \[\[3\^0,0\],\[0,3\^5\]\] of ramified p=3 is outside "
        r"the atlas of radius 2 halfwidth 0",
    ):
        atlas.locate(order_lattice(3, 5))


def _sublattice_classes(L):
    """Classes of L*S over the index-p matrices S, each product in Hermite form."""
    p = L.p
    m00, m01, m10, m11 = L.matrix()
    subs = [(1, 0, 0, p)] + [(p, t, 0, 1) for t in range(p)]
    out = []
    for s00, s01, s10, s11 in subs:
        c00, c01 = m00 * s00 + m01 * s10, m00 * s01 + m01 * s11
        c10, c11 = m10 * s00 + m11 * s10, m10 * s01 + m11 * s11
        out.append(class_rep(hnf(p, c00, c01, c10, c11)))
    return out


def test_neighbor_classes_match_the_sublattice_products():
    # The closed-form Hermite data of the p + 1 neighbours against the
    # products L*S reduced by hnf, over every class of the atlases.
    classes = 0
    for tag, p in product(BasinKind, (2, 3, 5, 7)):
        inst = make_case(tag, p)
        for L in ClassAtlas(inst, 2, 4)._by_class:
            near = neighbor_classes(L)
            assert near == _sublattice_classes(L)
            assert len(set(near)) == p + 1
            assert all(lattice_distance(inst, L, c) == 1 for c in near)
            classes += 1
    assert classes == 780


def test_atlas_covers_layers():
    # The atlas is a bijection: one class per truncation vertex, each
    # located back at its own vertex.
    for tag, p in product(BasinKind, (2, 3)):
        atlas = ClassAtlas(make_case(tag, p), 2, 2)
        vertices = list(atlas._by_class.values())
        assert len(vertices) == len(atlas.tree) and set(vertices) == set(atlas.tree.vertices)
        for cls, v in atlas._by_class.items():
            assert atlas.locate(cls) == v


def test_ideal_vertices_fill_layer(ram3):
    atlas = ClassAtlas(ram3, 1, 3)
    records = enumerate_ideals(ram3, 1, 3)
    vertices = {atlas.place(r.lattice) for r in records if r.principal}
    assert vertices == set(layer_members(atlas.tree, 1))
    # The non-principal ideals p^k*O_0 and p^k*Delta*O_0 sit on the basin.
    basin = {atlas.place(r.lattice) for r in records if not r.principal}
    assert basin == {VertexAddr(0), VertexAddr(1)}
    # Odd-type ideals live on the second anchor's side.
    for r in records:
        if r.principal and r.type_eps[0] % 2 == 1:
            assert atlas.place(r.lattice).anchor == 1
        elif r.principal:
            assert atlas.place(r.lattice).anchor == 0


def test_ideal_vertex_of_main_order(ram3):
    atlas = ClassAtlas(ram3, 1, 3)
    records = enumerate_ideals(ram3, 1, 3)
    on = [r for r in records if r.principal and r.type_eps == (0,)]
    assert len(on) == 1
    vertex = atlas.place(on[0].lattice)
    assert vertex == way_out_vertex(1)
    # O_1 in {1, Delta} coordinates is the order lattice of level 1.
    assert atlas.locate(order_lattice(3, 1)) == vertex


def test_split_high_type_vertex(split3):
    atlas = ClassAtlas(split3, 1, 3)
    records = enumerate_ideals(split3, 1, 3)
    offset = [r for r in records if r.principal and r.type_eps == (1, 2)]
    assert offset
    for r in offset:
        assert abs(atlas.place(r.lattice).anchor) == 1
        assert r.distance_to_main == 3


def test_principal_anchor_follows_type():
    # A generator of type omega moves O_n along the basin as Delta^a does:
    # a = omega_2 - omega_1 on the split apartment, omega_1 mod 2 across the
    # ramified edge, and 0 at the unramified vertex.  A mirrored apartment
    # fails on every split record of nonzero a.
    predicted = {
        SPLIT: lambda eps: eps[1] - eps[0],
        RAM: lambda eps: eps[0] % 2,
        UNRAM: lambda eps: 0,
    }
    checked = 0
    for tag, p, n in product(BasinKind, (2, 3, 5), range(3)):
        inst = make_case(tag, p)
        atlas = ClassAtlas(inst, n, 6)
        for r in enumerate_ideals(inst, n, 6):
            if r.principal:
                assert atlas.place(r.lattice).anchor == predicted[tag](r.type_eps), (tag, p, n, r)
                checked += 1
    assert checked == 737


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_split_atlas_halfwidth_is_the_farthest_anchor(p, n):
    # The split ideals of O_n up to the bound reach anchor bound - n, and
    # the atlas's halfwidth is exactly that wherever it exceeds the radius.
    inst = make_case(SPLIT, p)
    for bound in range(7):
        atlas = ClassAtlas(inst, n, bound)
        records = enumerate_ideals(inst, n, bound)
        farthest = max(abs(atlas.place(r.lattice).anchor) for r in records)
        assert farthest == max(bound - n, 0)
        if bound >= 2 * n:
            assert farthest == atlas.tree.halfwidth


def test_source_and_distance(monkeypatch, ram3, unram3, split3):
    real = padic.multiplier_level
    for inst in (ram3, unram3, split3):
        atlas = ClassAtlas(inst, 1, 4)
        tree = atlas.tree
        # One vertex checked per vertex within distance 4 of O_1 in the
        # truncation, and none fails.
        target = way_out_vertex(1)
        ball = [v for v in tree.vertices if distance(tree, v, target) <= 4]
        assert source_and_distance_check(atlas) == (len(ball), [])
        # Every ball vertex holds an ideal, so a level one too high fails
        # each of them, and the failures name the vertices in tree order.
        monkeypatch.setattr(padic, "multiplier_level", lambda inst, n, L: real(inst, n, L) + 1)
        checked, failures = source_and_distance_check(atlas)
        monkeypatch.undo()
        assert checked == len(ball)
        assert [f.partition(": ")[0] for f in failures] == [f"vertex={v}" for v in ball]


def _class_moved_by_delta(inst):
    """_ideal_class over inst, with every non-principal class moved one Delta step."""

    def moved(n, L):
        cls = _ideal_class(n, L)
        if multiplier_level(inst, n, L) == n:
            return cls
        m00, m01, _, m11 = cls.matrix()
        # Delta*(x, y) = (-delta*y, x + tau*y) in the {1, Delta} coordinates.
        return class_rep(hnf(inst.p, 0, -inst.delta * m11, m00, m01 + inst.tau * m11))

    return moved


@pytest.mark.parametrize(
    "tag,p,n", [(RAM, 2, 1), (RAM, 3, 2), (UNRAM, 3, 2), (UNRAM, 5, 2)]
)
def test_source_check_sees_moved_non_principal_classes(monkeypatch, tag, p, n):
    # Multiplication by Delta keeps heights and moves these classes to other
    # vertices inside the atlas; no principal record changes.
    inst = make_case(tag, p)
    atlas = ClassAtlas(inst, n, 6)
    assert source_and_distance_check(atlas)[1] == []
    monkeypatch.setattr(padic, "_ideal_class", _class_moved_by_delta(inst))
    assert source_and_distance_check(atlas)[1]


@pytest.mark.parametrize("tag", [RAM, SPLIT])
@pytest.mark.parametrize("shift", [-1, 1])
def test_source_check_sees_a_multiplier_level_off_by_one(monkeypatch, tag, shift):
    # The ideals of O_2 sit at heights 0, 1 and 2, so a shift clamped to
    # 0..2 still moves some level off its vertex height.
    inst = make_case(tag, 3)
    real = padic.multiplier_level

    def shifted(inst, n, L):
        return min(max(real(inst, n, L) + shift, 0), n)

    monkeypatch.setattr(padic, "multiplier_level", shifted)
    atlas = ClassAtlas(inst, 2, 6)
    checked, failures = source_and_distance_check(atlas)
    assert checked and failures


def test_source_distance_detail_names_the_first_failing_vertex(monkeypatch):
    inst = make_case(RAM, 3)
    name = "source-distance ramified p=3 n=2"

    def source_check():
        return next(r for r in arithmetic_suite(2, 6, {RAM: (3,)}) if r.name == name)

    atlas = ClassAtlas(inst, 2, 6)
    checked, failures = source_and_distance_check(atlas)
    passing = source_check()
    assert passing.passed and passing.detail == f"{checked} vertices checked"
    real = padic.multiplier_level
    monkeypatch.setattr(padic, "multiplier_level", lambda inst, n, L: real(inst, n, L) + 1)
    checked, failures = source_and_distance_check(atlas)
    assert failures[0] == "vertex=0: distance 2, index exponents [2, 4, 6]"
    failing = source_check()
    assert not failing.passed
    assert failing.detail == f"{checked} vertices checked, first failure {failures[0]}"
    assert failing.detail == (
        "26 vertices checked, first failure vertex=0: distance 2, index exponents [2, 4, 6]"
    )


def test_arithmetic_suite_enumerates_and_places_once_per_point(monkeypatch):
    # Every binding of enumerate_ideals in the package is counted, and every
    # atlas is counted at construction.  Per (case, p) on the default primes
    # at n_max = 1: 4n + 2 calls for 2n + 1 distinct keys, the counts that
    # the traced benchmark run pins, and one atlas per n.
    calls = []
    atlases = []
    real_enumerate = padic.enumerate_ideals
    real_init = ClassAtlas.__init__

    def counted_enumerate(inst, n, max_contribution):
        calls.append((inst, n, max_contribution))
        return real_enumerate(inst, n, max_contribution)

    def counted_init(self, inst, n, max_contribution):
        real_init(self, inst, n, max_contribution)
        atlases.append((inst, self.tree.radius))

    for info in pkgutil.iter_modules(impactzeta.__path__):
        module = importlib.import_module(f"impactzeta.{info.name}")
        for name, value in list(vars(module).items()):
            if value is real_enumerate:
                monkeypatch.setattr(module, name, counted_enumerate)
    monkeypatch.setattr(ClassAtlas, "__init__", counted_init)
    assert all_passed(arithmetic_suite(1, 3))
    pairs = sum(len(ps) for ps in suites.DEFAULT_PRIMES.values())
    assert pairs == 6
    assert len(calls) == pairs * (4 * 1 + 2) == 36
    assert len(set(calls)) == pairs * (2 * 1 + 1) == 18
    assert len(atlases) == pairs * 2 == 12
    assert len(set(atlases)) == 12


def _failing_checks(primes):
    # The enumeration cache would hide a mutant from a warm scan.
    _enumerate_core.cache_clear()
    try:
        return {r.name for r in arithmetic_suite(2, 6, primes) if not r.passed}
    finally:
        _enumerate_core.cache_clear()


@pytest.mark.parametrize(
    "tag,killed",
    [
        (RAM, {"source-distance ramified p=3 n=1", "source-distance ramified p=3 n=2"}),
        (UNRAM, {"source-distance unramified p=3 n=2"}),
    ],
)
def test_suite_sees_moved_non_principal_classes(monkeypatch, tag, killed):
    # Split is left out: there the moved classes leave the truncation, and
    # the mutant raises OutsideTruncation instead of failing a check.
    assert _failing_checks({tag: (3,)}) == set()
    monkeypatch.setattr(padic, "_ideal_class", _class_moved_by_delta(make_case(tag, 3)))
    assert _failing_checks({tag: (3,)}) == killed


def test_suite_sees_a_multiplier_level_one_too_high(monkeypatch):
    real = padic.multiplier_level

    def raised(inst, n, L):
        return real(inst, n, L) + 1

    for module in (padic, suites):
        monkeypatch.setattr(module, "multiplier_level", raised)
    primes = {kind: (3,) for kind in (RAM, UNRAM, SPLIT)}
    assert _failing_checks(primes) == {
        f"{check} {kind.value} p=3 n={n}"
        for check in ("principal-deciders", "source-distance")
        for kind in (RAM, UNRAM, SPLIT)
        for n in range(3)
    }


def test_unramified_distance_two_sources(unram3):
    atlas = ClassAtlas(unram3, 1, 4)
    records = enumerate_ideals(unram3, 1, 4)
    target = way_out_vertex(1)
    for r in records:
        vertex = atlas.place(r.lattice)
        if r.principal and vertex != target:
            assert r.distance_to_main == 2
            assert min(
                x.lattice.index_exponent
                for x in records
                if x.principal and atlas.place(x.lattice) == vertex
            ) == 2
