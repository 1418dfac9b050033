import json

import pytest

from impactzeta.cli import main, poly_from_json, poly_to_json
from impactzeta.orders import full_zeta, all_cases
from impactzeta.poly import ONE, Q, q_pow, x_pow


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_zeta_json_numerator(capsys):
    code, out, _ = run(
        capsys, "zeta", "--case", "ramified", "-n", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"]["name"] == "impactzeta"
    assert doc["results"]["numerator"]["terms"] == [
        [0, 0, "1"],
        [1, 2, "1"],
        [2, 4, "1"],
    ]


def test_zeta_split_base(capsys):
    code, out, _ = run(capsys, "zeta", "--case", "split", "-n", "0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["numerator"]["terms"] == [[0, 0, "1"]]
    assert doc["results"]["denominator"]["terms"] == [
        [0, 0, "1"],
        [0, 1, "-2"],
        [0, 2, "1"],
    ]


def test_zeta_series_specialized(capsys):
    code, out, _ = run(
        capsys,
        "zeta",
        "--case",
        "unramified",
        "-n",
        "1",
        "--q",
        "3",
        "--series-terms",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    # Ideal counts of the level-1 order at q = 3 by index exponent:
    # 1, 1, q+1, 1, q+1.
    assert doc["results"]["series"] == [1, 1, 4, 1, 4]


def test_deterministic_output(capsys):
    args = ("enumerate", "--case", "ramified", "--p", "3", "-n", "1",
            "--max-contribution", "3", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_polynomial_roundtrip():
    for case in all_cases():
        for n in range(4):
            num = full_zeta(case, n).numerator
            assert poly_from_json(poly_to_json(num)) == num
    big = 10**30 * Q * x_pow(2) + ONE - q_pow(5)
    assert poly_from_json(poly_to_json(big)) == big


def test_enumerate_csv(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--case",
        "ramified",
        "--p",
        "3",
        "-n",
        "1",
        "--max-contribution",
        "3",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case,p,n,type,contribution,vertex,distance,principal"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 10
    assert sum(1 for r in rows if r[-1] == "true") == 7


def test_enumerate_split_base_counts(capsys):
    code, out, _ = run(
        capsys,
        "enumerate",
        "--case",
        "split",
        "--p",
        "3",
        "-n",
        "0",
        "--max-contribution",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    rows = doc["results"]["ideals"]
    assert all(r["principal"] for r in rows)
    by_c = {}
    for r in rows:
        by_c[r["contribution"]] = by_c.get(r["contribution"], 0) + 1
    assert by_c == {0: 1, 1: 2, 2: 3}


def test_enumerate_precision_failure_exit_code(capsys):
    code, _, err = run(
        capsys,
        "enumerate",
        "--case",
        "ramified",
        "--p",
        "3",
        "-n",
        "1",
        "--max-contribution",
        "4",
        "--precision",
        "5",
    )
    assert code == 1
    assert "error" in err


def test_tree_dot(capsys):
    code, out, _ = run(
        capsys, "tree", "--basin", "unramified", "--m", "2", "--radius", "2",
        "--format", "dot",
    )
    assert code == 0
    assert out.count("label=") == 10  # 1 + 3 + 6 vertices
    assert out.count(" -- ") == 9
    assert out.startswith("graph")


def test_tree_layer_table(capsys):
    code, out, _ = run(
        capsys, "tree", "--basin", "ramified", "--m", "2", "--radius", "1"
    )
    assert code == 0
    assert "layer 0: 2" in out
    assert "layer 1: 4" in out


def test_tree_split_count(capsys):
    code, out, _ = run(
        capsys,
        "tree",
        "--basin",
        "split",
        "--m",
        "2",
        "--radius",
        "1",
        "--halfwidth",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["vertices"] == 14
    assert doc["results"]["layer_sizes"] == {"0": 7, "1": 7}


def test_verify_identities_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "identities", "--max-n", "4"
    )
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_small_arithmetic(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "arithmetic",
        "--p",
        "3",
        "--max-n",
        "1",
        "--max-contribution",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["failed"] == 0


def test_genfun_json(capsys):
    code, out, _ = run(
        capsys,
        "genfun",
        "--basin",
        "split",
        "--m",
        "2",
        "-n",
        "1",
        "--series-terms",
        "5",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    layer = doc["results"]["layer"]
    assert layer["numerator"]["terms"] == [[0, 0, "1"], [0, 1, "-2"], [0, 2, "2"]]
    # Frozen from the BFS oracle on the truncated tree.
    assert doc["results"]["layer_series"] == [1, 0, 1, 2, 3, 4]
    assert doc["results"]["basin_series"] == [1, 1, 3, 5, 7, 9]


def test_counts_table(capsys):
    code, out, _ = run(
        capsys,
        "counts",
        "--basin",
        "ramified",
        "--m",
        "3",
        "-n",
        "1",
        "--max-d",
        "6",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,r_closed,r_oracle,p_oracle"
    assert len(lines) == 8
    for line in lines[1:]:
        d, r_closed, r_oracle, _ = line.split(",")
        assert r_closed == r_oracle


def test_verify_all_quick(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "all",
        "--max-n",
        "1",
        "--m",
        "2",
        "--p",
        "3",
        "--max-d",
        "4",
        "--max-contribution",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["failed"] == 0
    assert doc["results"]["checks"] > 0


def test_verify_failure_exit_code(capsys, monkeypatch):
    from impactzeta import cli
    from impactzeta.report import CheckResult

    monkeypatch.setattr(
        cli, "identity_suite", lambda n: [CheckResult("rigged", False, "boom")]
    )
    monkeypatch.setattr(cli, "line_fixture_suite", lambda: [])
    code, out, _ = run(capsys, "verify", "--suite", "identities")
    assert code == 1
    assert "FAIL" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeta", "--case", "nonsense", "-n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    # Invalid flag combinations the parser cannot see also exit 2.
    code, _, err = run(
        capsys, "tree", "--basin", "split", "--m", "2", "--radius", "2",
        "--halfwidth", "1",
    )
    assert code == 2
    assert "usage error" in err


def test_counts_split_base(capsys):
    code, out, _ = run(
        capsys, "counts", "--basin", "split", "--m", "2", "-n", "0",
        "--max-d", "4", "--format", "csv",
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # Walks along the apartment from a basin vertex: d + 1 endpoints.
    assert [int(r[1]) for r in rows] == [1, 2, 3, 4, 5]
    assert [int(r[2]) for r in rows] == [1, 2, 3, 4, 5]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "zeta", "--case", "ramified", "-n", "1", "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["request"]["subcommand"] == "zeta"


def test_verify_max_n_zero_is_literal(capsys):
    from impactzeta.suites import identity_suite, line_fixture_suite

    code, out, _ = run(
        capsys, "verify", "--suite", "identities", "--max-n", "0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["request"]["max_n"] == 0
    assert doc["results"]["checks"] == len(identity_suite(0)) + len(line_fixture_suite())
    assert doc["results"]["checks"] < len(identity_suite(8)) + len(line_fixture_suite())


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "identities", "--max-n", "-1"],
        ["verify", "--suite", "oracle", "--max-d", "-1"],
        ["verify", "--suite", "arithmetic", "--max-contribution", "-1"],
        ["counts", "--basin", "ramified", "--m", "2", "-n", "1", "--max-d", "-1"],
        ["enumerate", "--case", "ramified", "--p", "2", "-n", "0", "--max-contribution", "-1"],
    ],
)
def test_negative_sizes_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_verify_arithmetic_zero_bound(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "arithmetic", "--p", "2", "--max-n", "0",
        "--max-contribution", "0", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["failed"] == 0 and doc["results"]["checks"] > 0


def test_counts_closed_form_mismatch_exit_code(capsys, monkeypatch):
    from impactzeta import cli

    monkeypatch.setattr(cli, "reachable_count_closed", lambda spec, n, d: -1)
    code, out, err = run(
        capsys, "counts", "--basin", "ramified", "--m", "2", "-n", "1", "--max-d", "3"
    )
    assert code == 1
    assert out == ""
    assert "walk-count formula -1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--case", "ramified", "-n", "-1"],
        ["genfun", "--basin", "ramified", "--m", "2", "-n", "-1"],
        ["counts", "--basin", "ramified", "--m", "2", "-n", "-1"],
        ["enumerate", "--case", "ramified", "--p", "3", "-n", "-1", "--max-contribution", "3"],
        ["tree", "--basin", "ramified", "--m", "2", "--radius", "-1"],
        ["tree", "--basin", "split", "--m", "2", "--radius", "1", "--halfwidth", "-1"],
    ],
)
def test_negative_heights_and_radii_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be >= 0" in err
    assert "radius must be nonnegative" not in err


def test_verify_arithmetic_p2_skips_unramified(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "arithmetic", "--p", "2", "--max-n", "1",
        "--max-contribution", "3", "--format", "json",
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names and not any("unramified" in name for name in names)
    assert "unramified case skipped" in err
