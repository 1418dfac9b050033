"""Closed-loop benchmark of ``impactzeta verify``.

Usage, from the repository root::

    python3 bench/run.py --workload identities-n32 --seed 1 --seconds 30 --trace 0

One client runs one ``impactzeta verify ... --format json`` subprocess at a
time and waits for it to exit before starting the next, until the time is
up.  Every run starts a fresh interpreter, so the module-level caches of
``padic`` start empty each time.  Between verify runs it times
``impactzeta --version`` (interpreter start, package import and argparse),
which every invocation pays.  The seed sets the children's
``PYTHONHASHSEED`` and the order of runs within a round; the program
receives nothing else from it.

Every verify run passes through the correctness gate: exit code 0, no
failed check, and at least the workload's recorded number of checks.  A
run that fails the gate stays in the sample and counts all its checks as
failed.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it alternates traced runs
(``trace_child.py``) with untraced ones and reports the per-layer metrics.
The lines before it are a readable table: median, quartiles and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES_PER_ROUND = 3
# Settings that change what the program computes; the harness refuses them.
FORBIDDEN_ENV = ("IMPACTZETA_MAX_VERTICES", "PYTHONOPTIMIZE")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class GateResult:
    attempted: int
    failed: int
    checks: int  # as reported by the program; 0 when unreadable


def child_env(seed: int) -> dict[str, str]:
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": str(seed % 2**32),
    }


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes]:
    """Read stdout and stderr to EOF; kill the child at the deadline."""
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        killed = False
        while sel.get_map():
            timeout = None if killed else deadline - time.perf_counter()
            if timeout is not None and timeout <= 0:
                proc.kill()
                killed, timeout = True, None
            for key, _ in sel.select(timeout):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def run_child(argv: list[str], env: dict[str, str]) -> ChildRun:
    """Run argv to completion; wall time, rusage CPU and peak RSS of the child."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = _drain(proc, start + CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,  # Linux reports KiB
        proc.returncode,
        out.decode(errors="replace"),
        err.decode(errors="replace"),
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "impactzeta.cli", *args]


def gate(workload: Workload, returncode: int, stdout: str) -> GateResult:
    """Correctness of one verify run, counted in checks."""
    try:
        doc = json.loads(stdout)
        results = doc["results"]
        checks, failed = int(results["checks"]), int(results["failed"])
        entries = doc["checks"]
    except (ValueError, KeyError, TypeError):
        checks, failed, entries = 0, 0, []
    ok = (
        returncode == 0
        and failed == 0
        and checks >= workload.min_checks
        and len(entries) == checks
        and all(e.get("passed") is True for e in entries)
    )
    attempted = max(checks, workload.min_checks)
    return GateResult(attempted, 0 if ok else attempted, checks)


def measure_setup(env: dict[str, str]) -> float:
    run = run_child(cli_argv(["--version"]), env)
    if run.returncode != 0 or not run.stdout.strip():
        raise BenchError(f"impactzeta --version failed ({run.returncode}): {run.stderr.strip()}")
    return run.wall_s


def closed_loop(kinds: list[str], seed: int, seconds: float, step) -> None:
    """Run shuffled rounds of ``kinds`` while another round fits in the time.

    At least one round always runs.  ``step(kind)`` performs one run.
    """
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            step(kind)
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            return


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def unit_of(metric: str) -> str:
    """Units follow the metric name's suffix."""
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"), ("_yield", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def report(correct: bool, attempted: int, failed: int, samples: dict[str, list]) -> None:
    """Readable table, then the JSON result as the last line of stdout."""
    metrics = {}
    for name, values in samples.items():
        value = statistics.median(values)
        q1, q3 = _quartiles(values)
        unit = unit_of(name)
        print(f"{name:32s} {value:14.6f} {unit:6s} q1={q1:.6f} q3={q3:.6f} n={len(values)}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def end_to_end(workload: Workload, seed: int, seconds: float) -> None:
    env = child_env(seed)
    measure_setup(env)  # untimed: compiles the package's bytecode once
    verify, setup = [], []
    gates: list[GateResult] = []

    def step(kind: str) -> None:
        if kind == "setup":
            setup.append(measure_setup(env))
            return
        run = run_child(cli_argv(workload.argv()), env)
        result = gate(workload, run.returncode, run.stdout)
        if result.failed:
            print(f"gate failed (exit {run.returncode}): {run.stderr.strip()[-500:]}", file=sys.stderr)
        verify.append(run)
        gates.append(result)

    closed_loop(["verify"] + ["setup"] * SETUP_SAMPLES_PER_ROUND, seed, seconds, step)
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    samples = {
        "verify_s": [r.wall_s for r in verify],
        "verify_cpu_s": [r.cpu_s for r in verify],
        "peak_rss_mb": [r.peak_rss_mb for r in verify],
        "setup_s": setup,
        "checks": [g.checks for g in gates],
        "check_pass_ratio": [1 - failed / attempted],
    }
    print(f"workload {workload.name}: {len(verify)} verify runs, {len(setup)} setup runs")
    report(failed == 0, attempted, failed, samples)


def layer_metrics(child: dict) -> dict[str, float]:
    """Per-layer metrics from one traced child's spans and counters."""
    spans, counters = child["spans"], child["counters"]

    def calls(span: str) -> int:
        return spans.get(span, [0, 0.0])[0]

    def self_s(span: str) -> float:
        return spans.get(span, [0, 0.0])[1]

    def layer_s(layer: str) -> float:
        return sum((s for name, (_, s) in spans.items() if name.split(".")[0] == layer), 0.0)

    def counter(name: str) -> int:
        return counters.get(name, 0)

    scanned = counter("padic.lattices_scanned")
    return {
        "poly.bipoly_new": child["counts"]["poly.bipoly_new"],
        "poly.mul_calls": calls("poly.mul"),
        "poly.mul_s": self_s("poly.mul"),
        "poly.add_calls": calls("poly.add"),
        "poly.add_s": self_s("poly.add"),
        "poly.exact_div_calls": calls("poly.exact_div"),
        "poly.exact_div_s": self_s("poly.exact_div"),
        "poly.series_expand_calls": calls("poly.series_expand"),
        "poly.series_expand_s": self_s("poly.series_expand"),
        "poly.ratfn_eq_calls": calls("poly.ratfn_eq"),
        "poly.ratfn_eq_s": self_s("poly.ratfn_eq"),
        "poly.self_s": layer_s("poly"),
        "orders.full_zeta_calls": calls("orders.full_zeta"),
        "orders.full_zeta_s": self_s("orders.full_zeta"),
        "orders.principal_zeta_calls": calls("orders.principal_zeta"),
        "orders.classify_type_calls": calls("orders.classify_type"),
        "orders.classify_type_s": self_s("orders.classify_type"),
        "orders.self_s": layer_s("orders"),
        "genfun.closed_form_calls": calls("genfun.closed_form"),
        "genfun.closed_form_s": self_s("genfun.closed_form"),
        "genfun.oracle_calls": calls("genfun.oracle"),
        "genfun.oracle_s": self_s("genfun.oracle"),
        "genfun.vertices_scanned": counter("genfun.vertices_scanned"),
        "genfun.self_s": layer_s("genfun"),
        "building.trees_built": calls("building.build"),
        "building.vertices_built": counter("building.vertices_built"),
        "building.build_s": self_s("building.build"),
        "building.bfs_calls": calls("building.bfs"),
        "building.bfs_distinct_sources": counter("building.bfs_distinct_sources"),
        "building.bfs_s": self_s("building.bfs"),
        "building.layer_members_s": self_s("building.layer_members"),
        "building.self_s": layer_s("building"),
        "padic.enumerate_calls": calls("padic.enumerate"),
        "padic.enumerate_distinct": counter("padic.enumerate_distinct"),
        "padic.enumerate_self_s": self_s("padic.enumerate"),
        "padic.lattices_scanned": scanned,
        "padic.is_ideal_s": self_s("padic.is_ideal"),
        "padic.ideals_found": counter("padic.ideals_found"),
        "padic.principal_found": counter("padic.principal_found"),
        "padic.ideal_yield": counter("padic.ideals_found") / scanned if scanned else 0.0,
        "padic.lattice_distance_calls": calls("padic.lattice_distance"),
        "padic.lattice_distance_s": self_s("padic.lattice_distance"),
        "padic.atlas_builds": calls("padic.atlas"),
        "padic.atlas_s": self_s("padic.atlas"),
        "padic.locate_calls": calls("padic.locate"),
        "padic.coset_reps_s": self_s("padic.coset_reps"),
        "padic.source_check_s": self_s("padic.source_check"),
        "padic.traveling_calls": calls("padic.traveling"),
        "padic.self_s": layer_s("padic"),
        "suites.self_s": layer_s("suites"),
        "cli.unattributed_s": child["wall_s"] - child["top_s"],
    }


LAYERS = ("poly", "orders", "genfun", "building", "padic", "suites", "cli")


def self_check(workload: Workload, child: dict, metrics: dict[str, float]) -> None:
    """Wrapper counts must match what the workload parameters imply."""
    problems = [
        f"{name}: traced {metrics[name]}, expected {want}"
        for name, want in workload.expected_trace_counts().items()
        if metrics[name] != want
    ]
    ideal_tests = child["spans"].get("padic.is_ideal", [0, 0.0])[0]
    # traveling tests its argument and its image: two is_ideal calls each.
    if ideal_tests != metrics["padic.lattices_scanned"] + 2 * metrics["padic.traveling_calls"]:
        problems.append(f"padic.is_ideal: {ideal_tests} calls not accounted for")
    if problems:
        raise BenchError("trace self-check failed: " + "; ".join(problems))


def dominant_layer_line(workload: Workload, metrics: dict[str, float]) -> str:
    shares = {layer: metrics.get(f"{layer}.self_s", 0.0) for layer in LAYERS}
    shares["cli"] = metrics["cli.unattributed_s"]
    predicted = sum(shares[layer] for layer in workload.dominant)
    others = max(s for layer, s in shares.items() if layer not in workload.dominant)
    verdict = "matches" if predicted > others else "MISMATCH with"
    ranked = ", ".join(f"{k}={v:.3f}s" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
    return f"layer self time: {ranked}; {verdict} prediction {'+'.join(workload.dominant)}"


def traced(workload: Workload, seed: int, seconds: float) -> None:
    env = child_env(seed)
    measure_setup(env)  # untimed: compiles the package's bytecode once
    plain, traced_walls, per_run = [], [], []
    gates: list[GateResult] = []

    def step(kind: str) -> None:
        if kind == "verify":
            run = run_child(cli_argv(workload.argv()), env)
            gates.append(gate(workload, run.returncode, run.stdout))
            plain.append(run.wall_s)
            return
        run = run_child([sys.executable, str(BENCH_DIR / "trace_child.py"), *workload.argv()], env)
        if run.returncode != 0:
            raise BenchError(f"traced run failed ({run.returncode}): {run.stderr.strip()[-500:]}")
        child = json.loads(run.stdout)
        gates.append(gate(workload, child["exit"], child["stdout"]))
        metrics = layer_metrics(child)
        self_check(workload, child, metrics)
        traced_walls.append(run.wall_s)
        per_run.append(metrics)

    closed_loop(["verify", "traced"], seed, seconds, step)
    samples = {name: [m[name] for m in per_run] for name in per_run[0]}
    samples["trace.overhead_ratio"] = [statistics.median(traced_walls) / statistics.median(plain)]
    attempted = sum(g.attempted for g in gates)
    failed = sum(g.failed for g in gates)
    print(f"workload {workload.name}: {len(per_run)} traced runs, {len(plain)} untraced runs")
    print(f"stresses {', '.join(workload.stresses)}; bypasses {', '.join(workload.bypasses)}")
    print(dominant_layer_line(workload, {n: statistics.median(v) for n, v in samples.items()}))
    report(failed == 0, attempted, failed, samples)


def main(argv: list[str] | None = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        for name in FORBIDDEN_ENV:
            if name in os.environ:
                raise BenchError(f"{name} is set; unset it, it changes what is measured")
        if not (SRC / "impactzeta" / "__init__.py").is_file():
            raise BenchError(f"no impactzeta source tree under {SRC}")
        run = traced if args.trace else end_to_end
        run(workloads[args.workload], args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
