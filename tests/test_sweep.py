"""Each suite's checks hold over the whole region of sizes they claim.

A check that fails for a reason outside its own claim (a truncation too
small for the size, a precision rule that misses a corner) shows up here as
a failing size, not as a false counterexample to the mathematics.
"""

import time

import pytest

from impactzeta import genfun
from impactzeta.building import BasinKind
from impactzeta.cli import main
from impactzeta.errors import LimitExceeded
from impactzeta.poly import q_pow
from impactzeta.suites import arithmetic_suite, oracle_suite

ARITHMETIC_PRIMES = [(kind, p) for kind in BasinKind for p in (2, 3, 5)]


def _failures(results):
    return [r.name for r in results if not r.passed]


def test_oracle_suite_holds_for_every_small_size():
    for n in range(5):
        for d in range(9):
            results = oracle_suite((2, 3), n, d)
            assert results and not _failures(results), (n, d, _failures(results))


def test_oracle_suite_catches_a_wrong_plateau_from_its_first_walk(monkeypatch):
    """The oracle suite compares the layer and basin series, the one closed
    form of each walk count, with the BFS counts.  An extra q^3 in the split
    plateau at n = 3 changes the layer series of O_3 from d = 6 = 2n on, and
    through basin(n) = layer(n) + X * basin(n-1) the basin series of O_4 and
    O_5 one and two steps later; every other check still holds."""
    real = genfun._plateau_q

    def plus_q3(kind, n):
        extra = q_pow(3) if (kind, n) == (BasinKind.SPLIT, 3) else 0
        return real(kind, n) + extra

    monkeypatch.setattr(genfun, "_plateau_q", plus_q3)
    results = oracle_suite((2,), 5, 12)
    expected = [
        f"oracle split m=2 n={n} d={d}" for n in (3, 4, 5) for d in range(n + 3, 13)
    ]
    assert len(results) == 3 * 6 * 13
    assert _failures(results) == expected


def test_oracle_suite_stretch_inside_the_30s_gate():
    # The ball from O_20 on the apartment of m = 3 has about 7 * 10^9
    # vertices; the state BFS visits at most 697 states per source.
    start = time.time()
    results = oracle_suite((2, 3), 20, 40)
    elapsed = time.time() - start
    assert len(results) == 3 * 2 * 21 * 41 and not _failures(results)
    assert elapsed < 30.0


def test_oracle_suite_meets_the_state_cap_before_any_series(monkeypatch):
    # Only the split profiles meet the cap at this length; the finite basins
    # come first in the check order, and their closed forms would take about
    # half a minute to expand that far before the split BFS ran.
    def expand(*args):
        raise AssertionError("series_expand ran before the state cap was met")

    monkeypatch.setattr(genfun, "series_expand", expand)
    with pytest.raises(LimitExceeded, match="distance profile split m=2 source=0"):
        oracle_suite((2, 3), 1, 100_000)


def test_counts_on_a_finite_basin_inside_the_30s_gate(capsys):
    # The ball is finite, so the cap never stops an absurd --max-d: the
    # series and the running parity sums must be linear in it.
    start = time.time()
    code = main(
        ["counts", "--basin", "unramified", "--m", "2", "-n", "3",
         "--max-d", "100000", "--format", "csv"]
    )
    elapsed = time.time() - start
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 1 + 100_001
    # From O_3 at m = 2: 12 vertices of height 3, and 3 + 12 of height
    # 1 or 3, are at even distance.
    assert lines[-2:] == ["99999,0,0,7", "100000,12,12,15"]
    assert elapsed < 30.0


@pytest.mark.parametrize(
    "kind,p", ARITHMETIC_PRIMES, ids=[f"{k.value}-{p}" for k, p in ARITHMETIC_PRIMES]
)
def test_arithmetic_suite_holds_for_every_small_size(kind, p):
    for n in range(3):
        for bound in range(7):
            results = arithmetic_suite(n, bound, {kind: (p,)})
            assert results and not _failures(results), (n, bound, _failures(results))
