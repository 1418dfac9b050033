"""Workloads of the ``impactzeta verify`` benchmark, and why each one is there.

Every workload is a fixed parameter grid handed to the CLI.  The three
benchmark workloads use the shared layers in different ways, so that each
layer has one workload that exercises it and one that bypasses it:

* ``poly`` is symbolic in q on ``identities-n32`` and works on short
  numeric series on ``oracle-n7-d16``;
* ``genfun`` evaluates closed forms on ``identities-n32`` and fills BFS
  count tables on ``oracle-n7-d16``;
* ``building`` runs BFS on ``oracle-n7-d16`` and serves as the
  ``ClassAtlas`` index (no BFS) on ``arithmetic-b7``;
* ``padic`` runs only on ``arithmetic-b7``.

Predictions, stated before any optimisation is measured: which end-to-end
metric each group of per-layer metrics (``--trace 1``) should move, and
where the prediction is "no change".

* ``poly.*``, ``orders.*`` and ``genfun.closed_form_*`` move ``verify_s``
  on ``identities-n32``; no change on ``arithmetic-b7``.
* ``building.*``, ``genfun.oracle_*`` and ``genfun.vertices_scanned`` move
  ``verify_s`` and ``peak_rss_mb`` on ``oracle-n7-d16``; little change on
  ``arithmetic-b7``.
* ``padic.*`` moves ``verify_s`` on ``arithmetic-b7``; no change on the
  other two workloads.
* ``suites.self_s`` and ``cli.unattributed_s`` are time in the suite loops
  and in the CLI outside every layer span; ``trace.overhead_ratio`` is
  traced over untraced ``verify_s``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Defaults of ``impactzeta verify`` that the workloads below rely on.
ORACLE_MS = (2, 3)
ORACLE_MAX_N = 5
ORACLE_MAX_D = 12
ARITHMETIC_MAX_N = 2
ARITHMETIC_MAX_CONTRIBUTION = 6
ARITHMETIC_PRIMES = (2, 3, 3, 5, 2, 3)  # ramified 2, 3; unramified 3, 5; split 2, 3
# The identities suite always appends the m = 1 line fixture (n <= 6, d <= 14)
# for the unramified and ramified basins, which calls the BFS oracle.
LINE_FIXTURE_ORACLE_CALLS = 2 * (6 + 1) * (14 + 1) * 2


@dataclass(frozen=True)
class Workload:
    """One ``impactzeta verify`` invocation and what it is expected to do."""

    name: str
    suite: str
    max_n: Optional[int] = None
    max_d: Optional[int] = None
    max_contribution: Optional[int] = None
    min_checks: int = 1
    why: str = ""
    stresses: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()
    # Layers whose summed self time should exceed every other layer's.
    dominant: tuple[str, ...] = ()

    def argv(self) -> list[str]:
        """Arguments after ``impactzeta``."""
        args = ["verify", "--suite", self.suite]
        if self.max_n is not None:
            args += ["--max-n", str(self.max_n)]
        if self.max_d is not None:
            args += ["--max-d", str(self.max_d)]
        if self.max_contribution is not None:
            args += ["--max-contribution", str(self.max_contribution)]
        return args + ["--format", "json"]

    def expected_trace_counts(self) -> dict[str, int]:
        """Wrapper counts that follow from the parameters alone.

        A traced run whose counters differ has missed a rebinding of a
        wrapped function (or the program changed what the suite does).
        """
        oracle_calls = 0
        enumerate_calls = enumerate_distinct = lattices = 0
        if self.suite == "identities":
            oracle_calls = LINE_FIXTURE_ORACLE_CALLS
        elif self.suite == "oracle":
            n_max = ORACLE_MAX_N if self.max_n is None else self.max_n
            d_max = ORACLE_MAX_D if self.max_d is None else self.max_d
            # kinds x m x n x d x {layer, basin}
            oracle_calls = 3 * len(ORACLE_MS) * (n_max + 1) * (d_max + 1) * 2
        elif self.suite == "arithmetic":
            n_max = ARITHMETIC_MAX_N if self.max_n is None else self.max_n
            bound = (
                ARITHMETIC_MAX_CONTRIBUTION
                if self.max_contribution is None
                else self.max_contribution
            )
            pairs = len(ARITHMETIC_PRIMES)
            # Per (case, p): enumerate + source check for every n, and the
            # traveling check enumerates (n, bound - 1) and (n + 1, bound).
            enumerate_calls = pairs * (4 * n_max + 2)
            enumerate_distinct = pairs * (2 * n_max + 1)
            lattices = sum(
                (n_max + 1) * _hermite_forms(p, bound)
                + n_max * _hermite_forms(p, bound - 1)
                for p in ARITHMETIC_PRIMES
            )
        return {
            "genfun.oracle_calls": oracle_calls,
            "padic.enumerate_calls": enumerate_calls,
            "padic.enumerate_distinct": enumerate_distinct,
            "padic.lattices_scanned": lattices,
        }


def _hermite_forms(p: int, bound: int) -> int:
    """Hermite-form sublattices of index p^k, k <= bound: sum_k sum_{a<=k} p^a."""
    return sum(p**a for k in range(bound + 1) for a in range(k + 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "identities-n32",
            "identities",
            max_n=32,
            min_checks=616,
            why="Symbolic Z[q,X] arithmetic at high degree; BiPoly canonicalisation "
            "dominates, so poly and closed-form changes show here and nowhere else.",
            stresses=("poly", "orders", "genfun closed forms"),
            bypasses=("padic", "building BFS beyond the small m = 1 line fixture"),
            dominant=("poly",),
        ),
        Workload(
            "oracle-n7-d16",
            "oracle",
            max_n=7,
            max_d=16,
            min_checks=816,
            why="BFS count tables on trees of up to ~10^5 vertices; the only "
            "workload with large memory, so tree layout changes show in peak_rss_mb.",
            stresses=("building BFS", "genfun oracle"),
            bypasses=("padic", "symbolic poly (numeric series only)"),
            dominant=("building", "genfun"),
        ),
        Workload(
            "arithmetic-b7",
            "arithmetic",
            max_contribution=7,
            min_checks=102,
            why="The p-adic oracle: generator search and the ideal filter over 473k "
            "Hermite forms; trees serve only as a ClassAtlas index, with no BFS.",
            stresses=("padic enumeration", "padic ClassAtlas"),
            bypasses=("building BFS", "genfun oracle", "symbolic poly"),
            dominant=("padic",),
        ),
    )
}
