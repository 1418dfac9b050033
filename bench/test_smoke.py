"""Smoke test of the benchmark harness itself, at tiny sizes.

Run from the repository root (takes a few seconds)::

    python3 -m pytest bench -q

It checks that every metric named in ``BENCHMARK.json`` is printed by name
with its unit, that the traced run passes its self-check, and that the
correctness gate trips on a nonzero exit and on lost checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from workloads import Workload

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

TINY = {
    w.name: w
    for w in (
        Workload("identities-tiny", "identities", max_n=2, min_checks=76),
        Workload("arithmetic-tiny", "arithmetic", max_n=1, max_contribution=3, min_checks=66),
    )
}


def _run(capsys, workloads, name, trace=0):
    argv = ["--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, workloads=workloads)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_are_printed_with_units(capsys, name):
    code, result = _run(capsys, TINY, name)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= TINY[name].min_checks
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_prints_per_layer_metrics(capsys, name):
    code, result = _run(capsys, TINY, name, trace=1)
    assert code == 0 and result["correct"] is True
    assert _units(result) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_gate_trips_on_nonzero_exit(capsys):
    # An unknown suite is a usage error: the CLI exits with code 2.
    broken = {"broken": Workload("broken", "no-such-suite", min_checks=5)}
    code, result = _run(capsys, broken, "broken")
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["check_pass_ratio"]["value"] == 0.0


def test_gate_trips_on_lost_checks(capsys):
    greedy = {"greedy": Workload("greedy", "identities", max_n=2, min_checks=77)}
    code, result = _run(capsys, greedy, "greedy")
    assert code == 0 and result["correct"] is False
    assert result["metrics"]["checks"]["value"] == 76


def test_refuses_settings_that_change_the_program(capsys, monkeypatch):
    monkeypatch.setenv("IMPACTZETA_MAX_VERTICES", "10")
    assert run.main(["--workload", "identities-tiny", "--seed", "1", "--seconds", "0"], TINY) == 1
    assert capsys.readouterr().out == ""


def test_benchmark_file_matches_workload_table():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] == run.WORKLOADS[w["name"]].why for w in BENCHMARK["workloads"])
