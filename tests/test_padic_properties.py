"""Randomized properties of the lattice and element layers.

The Hermite reduction is checked against an independent membership oracle:
w lies in the Z_p-span of the columns of M exactly when both entries of
adj(M) * w have valuation at least val(det M).
"""

from hypothesis import assume, given, settings, strategies as st

from impactzeta.building import BasinKind
from impactzeta.padic import (
    LatticeHNF,
    _exact_type,
    class_rep,
    hnf,
    lattice_distance,
    make_case,
)

PRIMES = (2, 3, 5, 7)
BIG = 10**9


def val(p, r):
    if r == 0:
        return BIG
    v = 0
    while r % p == 0:
        r //= p
        v += 1
    return v


def in_span(p, matrix, w):
    m00, m01, m10, m11 = matrix
    det = m00 * m11 - m01 * m10
    a0 = m11 * w[0] - m01 * w[1]
    a1 = -m10 * w[0] + m00 * w[1]
    vd = val(p, det)
    return val(p, a0) >= vd and val(p, a1) >= vd


# Small entries mixed with entries near +-10^40: exact integers carry any size.
entries = st.one_of(st.integers(-200, 200), st.integers(-(10**40), 10**40))


@settings(max_examples=500)
@given(st.sampled_from(PRIMES), entries, entries, entries, entries)
def test_hnf_spans_the_same_lattice(p, m00, m01, m10, m11):
    det = m00 * m11 - m01 * m10
    assume(det != 0)
    M = (m00, m01, m10, m11)
    H = hnf(p, m00, m01, m10, m11)
    assert H.index_exponent == val(p, det)
    h = H.matrix()
    for col in ((h[0], h[2]), (h[1], h[3])):
        assert in_span(p, M, col)
    for col in ((m00, m10), (m01, m11)):
        assert in_span(p, h, col)


@settings(max_examples=300)
@given(st.sampled_from(PRIMES), entries, entries, entries, entries, st.integers(0, 2))
def test_hnf_invariant_under_column_ops_and_scaling(p, m00, m01, m10, m11, s):
    det = m00 * m11 - m01 * m10
    assume(det != 0)
    H1 = hnf(p, m00, m01, m10, m11)
    # Add one column to the other and swap: same span.
    H2 = hnf(p, m01, m00 + m01, m11, m10 + m11)
    assert H1 == H2
    # Scaling by p^s shifts both diagonal exponents.
    H3 = hnf(p, m00 * p**s, m01 * p**s, m10 * p**s, m11 * p**s)
    assert class_rep(H3) == class_rep(H1)


def lattices(p):
    return st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 26)).map(
        lambda t: LatticeHNF(p, t[0], t[2] % p ** t[0], t[1])
    )


@settings(max_examples=200)
@given(st.sampled_from(PRIMES).flatmap(lambda p: st.tuples(st.just(p), lattices(p), lattices(p), lattices(p))))
def test_distance_is_a_metric(args):
    p, A, B, C = args
    inst = make_case(BasinKind.RAMIFIED, p)
    dab = lattice_distance(inst, A, B)
    assert dab == lattice_distance(inst, B, A)
    assert dab >= 0
    assert (dab == 0) == (class_rep(A) == class_rep(B))
    assert lattice_distance(inst, A, C) <= dab + lattice_distance(inst, B, C)


@settings(max_examples=200)
@given(
    st.sampled_from([BasinKind.RAMIFIED, BasinKind.UNRAMIFIED, BasinKind.SPLIT]),
    st.integers(0, 2),
    st.integers(0, 80),
    st.integers(0, 80),
    st.integers(0, 80),
    st.integers(0, 80),
)
def test_type_is_additive_on_products(kind, pidx, x1, y1, x2, y2):
    p = (2, 3, 5)[pidx]
    # With nonnegative coordinates a nonzero element also has nonzero split
    # components (x + y, x + p*y), so every type below is finite.
    assume((x1, y1) != (0, 0) and (x2, y2) != (0, 0))
    inst = make_case(kind, p)
    # (x1 + y1 D)(x2 + y2 D) with D^2 = tau D - delta, in exact integers.
    x = x1 * x2 - inst.delta * y1 * y2
    y = x1 * y2 + y1 * x2 + inst.tau * y1 * y2
    ta = _exact_type(inst, x1, y1)
    tb = _exact_type(inst, x2, y2)
    tab = _exact_type(inst, x, y)
    assert tab == tuple(a + b for a, b in zip(ta, tb))
