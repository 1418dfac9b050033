"""Each suite's checks hold over the whole region of sizes they claim.

A check that fails for a reason outside its own claim (a truncation too
small for the size, a precision rule that misses a corner) shows up here as
a failing size, not as a false counterexample to the mathematics.
"""

import time

import pytest

from impactzeta.building import BasinKind
from impactzeta.suites import arithmetic_suite, oracle_suite

ARITHMETIC_PRIMES = [
    (kind, p)
    for kind in BasinKind
    for p in (2, 3, 5)
    if not (kind is BasinKind.UNRAMIFIED and p == 2)
]


def _failures(results):
    return [r.name for r in results if not r.passed]


def test_oracle_suite_holds_for_every_small_size():
    for n in range(5):
        for d in range(9):
            results = oracle_suite((2, 3), n, d)
            assert results and not _failures(results), (n, d, _failures(results))


def test_oracle_suite_stretch_inside_the_30s_gate():
    # The ball from O_20 on the apartment of m = 3 has about 7 * 10^9
    # vertices; the state BFS visits at most 697 states per source.
    start = time.time()
    results = oracle_suite((2, 3), 20, 40)
    elapsed = time.time() - start
    assert len(results) == 3 * 2 * 21 * 41 and not _failures(results)
    assert elapsed < 30.0


@pytest.mark.parametrize(
    "kind,p", ARITHMETIC_PRIMES, ids=[f"{k.value}-{p}" for k, p in ARITHMETIC_PRIMES]
)
def test_arithmetic_suite_holds_for_every_small_size(kind, p):
    for n in range(3):
        for bound in range(7):
            results = arithmetic_suite({kind: (p,)}, n, bound)
            assert results and not _failures(results), (n, bound, _failures(results))
