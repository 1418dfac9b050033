import json
import shlex
from pathlib import Path

import pytest

from impactzeta import building, padic
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
            num = full_zeta(case, n).num
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


def test_enumerate_has_no_precision_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--case", "ramified", "--p", "3", "-n", "1",
              "--max-contribution", "4", "--precision", "40"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision" in capsys.readouterr().err


def test_verify_oracle_with_max_n_beyond_max_d(capsys):
    # Sources higher than the longest walk are checked too.
    code, out, err = run(
        capsys, "verify", "--suite", "oracle", "--max-n", "4", "--max-d", "2",
        "--format", "json",
    )
    assert code == 0, err
    assert json.loads(out)["results"] == {"checks": 90, "passed": 90, "failed": 0}


def test_tree_dot(capsys):
    code, out, _ = run(
        capsys, "tree", "--basin", "unramified", "--m", "2", "--radius", "2",
        "--format", "dot",
    )
    assert code == 0
    assert out.count("label=") == 10  # 1 + 3 + 6 vertices
    assert out.count(" -- ") == 9
    assert out.startswith("graph")
    code, out, _ = run(
        capsys, "tree", "--basin", "ramified", "--m", "2", "--radius", "1",
        "--format", "dot",
    )
    assert code == 0
    # Vertices in (anchor, word) order; each edge once, from its first endpoint.
    assert out == "\n".join([
        "graph building {",
        "  node [shape=circle];",
        '  v0 [label="0"];',
        '  v0_0 [label="1"];',
        '  v0_1 [label="1"];',
        '  v1 [label="0"];',
        '  v1_0 [label="1"];',
        '  v1_1 [label="1"];',
        "  v0 -- v0_0;",
        "  v0 -- v0_1;",
        "  v0 -- v1;",
        "  v1 -- v1_0;",
        "  v1 -- v1_1;",
        "}",
        "",
    ])


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


def test_counts_reach_a_height_beyond_the_old_truncation(capsys):
    code, out, err = run(
        capsys, "counts", "--basin", "unramified", "--m", "3", "-n", "12",
        "--max-d", "4", "--format", "json",
    )
    assert code == 0, err
    rows = json.loads(out)["results"]["counts"]
    assert len(rows) == 5
    assert all(row["r_oracle"] == row["r_closed"] for row in rows)


def test_verify_oracle_reach_beyond_the_old_truncation(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "oracle", "--max-n", "8", "--max-d", "18",
        "--format", "json",
    )
    assert code == 0, err
    assert json.loads(out)["results"] == {"checks": 1026, "passed": 1026, "failed": 0}


def test_verify_oracle_stretch(capsys):
    # Its largest ball (split, m = 3, n = 10) has 590,489 vertices.
    code, out, err = run(
        capsys, "verify", "--suite", "oracle", "--max-n", "10", "--max-d", "24",
        "--format", "json",
    )
    assert code == 0, err
    assert json.loads(out)["results"] == {"checks": 1650, "passed": 1650, "failed": 0}


def test_vertex_cap_bounds_the_ball(capsys, monkeypatch):
    monkeypatch.setattr(building, "MAX_VERTICES", 100)
    code, out, err = run(
        capsys, "tree", "--basin", "split", "--m", "3", "--radius", "3"
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: truncated tree split m=3 radius=3 halfwidth=3: "
        "189 vertices, above MAX_VERTICES = 100\n"
    )


def test_tree_cap_fails_before_the_enumeration_cap(capsys):
    # Both caps are exceeded; the atlas builds its tree before the scan starts.
    code, out, err = run(
        capsys, "enumerate", "--case", "ramified", "--p", "3", "-n", "12",
        "--max-contribution", "20",
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: truncated tree ramified m=3 radius=12 halfwidth=0: "
        "1594322 vertices, above MAX_VERTICES = 200000\n"
    )


def test_invariant_violation_is_one_error_line(capsys, monkeypatch):
    real = padic._confirm_generator
    # Each claimed generator scaled by p spans p*I, never I.
    monkeypatch.setattr(
        padic,
        "_confirm_generator",
        lambda inst, n, L, u, v: real(inst, n, L, inst.p * u, inst.p * v),
    )
    padic._enumerate_core.cache_clear()
    code, out, err = run(
        capsys, "enumerate", "--case", "ramified", "--p", "3", "-n", "1", "--max-contribution", "2"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: claimed generator spans") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--case", "split", "-n", "2", "--series-terms", "-1"],
        ["genfun", "--basin", "split", "--m", "2", "-n", "2", "--series-terms", "-1"],
    ],
)
def test_negative_series_terms_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --series-terms: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(
            ["zeta", "--case", "ramified", "-n", "2", "--q", q, "--series-terms", "3"],
            "--q",
            id=q,
        )
        for q in ("-3", "0", "1")
    ]
    + [
        pytest.param(["genfun", "--basin", "split", "--m", "1", "-n", "2"], "--m", id="genfun"),
        pytest.param(["counts", "--basin", "split", "--m", "1", "-n", "2"], "--m", id="counts"),
        pytest.param(["tree", "--basin", "split", "--m", "1", "--radius", "2"], "--m", id="tree"),
        pytest.param(
            ["verify", "--suite", "oracle", "--m", "1", "--max-n", "1"], "--m", id="verify-oracle"
        ),
        pytest.param(
            ["verify", "--suite", "identities", "--m", "1", "--max-n", "1"],
            "--m",
            id="verify-identities",
        ),
        pytest.param(
            ["verify", "--suite", "arithmetic", "--m", "0", "--max-n", "0"],
            "--m",
            id="verify-arithmetic",
        ),
    ],
)
def test_residue_size_below_two_rejected_at_parse_time(capsys, argv, flag):
    # A residue field has at least 2 elements; q = -3 used to print the
    # negative "ideal counts" 1 1 -2 -2 and exit 0, and verify accepted
    # --m 1 for the suites that do not read it.
    value = argv[argv.index(flag) + 1]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 2, got {value}" in capsys.readouterr().err


def test_verify_arithmetic_zero_bound(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "arithmetic", "--p", "2", "--max-n", "0",
        "--max-contribution", "0", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["failed"] == 0 and doc["results"]["checks"] > 0


def test_enumeration_overflow_names_the_enumeration(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "arithmetic", "--max-n", "3",
        "--max-contribution", "9",
    )
    assert code == 1 and out == ""
    assert "unramified p=5 n=0 max-contribution=9" in err
    assert "MAX_ENUMERATED_LATTICES" in err


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


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (
            ["enumerate", "--case", "ramified", "--p", "4", "-n", "1",
             "--max-contribution", "3"],
            "4 is not prime",
        ),
        (["verify", "--suite", "arithmetic", "--p", "4"], "4 is not prime"),
    ],
)
def test_non_prime_rejected_at_parse_time(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "usage:" in err


def test_enumerate_unramified_p2_lists_its_ideals(capsys):
    # Delta^2 = Delta - 1 realises the unramified case at p = 2.
    code, out, err = run(
        capsys, "enumerate", "--case", "unramified", "--p", "2", "-n", "1",
        "--max-contribution", "2",
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "case: unramified  p: 2  n: 1  bound: 2  ideals: 5"
    assert sum(line.startswith("[P]") for line in lines) == 4


def test_verify_arithmetic_p2_runs_all_three_cases(capsys):
    # All three cases run at p = 2, and nothing is written to stderr.
    code, out, err = run(
        capsys, "verify", "--suite", "arithmetic", "--p", "2", "--max-n", "2",
        "--max-contribution", "6", "--format", "json",
    )
    assert code == 0
    assert err == ""
    checks = json.loads(out)["checks"]
    assert len(checks) == 69 and all(c["passed"] for c in checks)
    assert sum("unramified p=2" in c["name"] for c in checks) == 23


def test_output_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(
        capsys, "zeta", "--case", "ramified", "-n", "2", "--format", "json",
        "--output", str(target),
    )
    assert code == 2
    assert out == ""
    assert f"usage error: cannot write {target}" in err
    assert "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["zeta", "--case", "split", "-n", "1"],
        ["genfun", "--basin", "split", "--m", "2", "-n", "1"],
        ["counts", "--basin", "split", "--m", "2", "-n", "1", "--max-d", "2"],
        ["enumerate", "--case", "split", "--p", "2", "-n", "0", "--max-contribution", "1"],
        ["verify", "--suite", "identities", "--max-n", "0"],
        ["tree", "--basin", "split", "--m", "2", "--radius", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_empty_output_path_is_a_usage_error(capsys, argv):
    # An empty --output used to read as "no path": the output went to
    # stdout and the command exited 0.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", ""])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --output: must be a nonempty path" in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["verify", "--suite", "oracle", "--m", "2", "--m", "2", "--max-n", "1",
          "--max-d", "2"], "--m 2"),
        (["verify", "--suite", "arithmetic", "--p", "3", "--p", "5", "--p", "3",
          "--max-n", "0", "--max-contribution", "2"], "--p 3"),
    ],
)
def test_verify_repeated_value_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert f"usage error: {message} is given more than once" in err


@pytest.mark.parametrize(
    ("argv", "request_block"),
    [
        (
            ["zeta", "--case", "ramified", "-n", "2", "--q", "3"],
            {"subcommand": "zeta", "case": "ramified", "n": 2, "q": 3,
             "series_terms": None},
        ),
        (
            ["genfun", "--basin", "split", "--m", "2", "-n", "1", "--series-terms", "4"],
            {"subcommand": "genfun", "basin": "split", "m": 2, "n": 1,
             "series_terms": 4},
        ),
        (
            ["counts", "--basin", "ramified", "--m", "3", "-n", "1"],
            {"subcommand": "counts", "basin": "ramified", "m": 3, "n": 1, "max_d": 10},
        ),
        (
            ["enumerate", "--case", "ramified", "--p", "3", "-n", "1",
             "--max-contribution", "2"],
            {"subcommand": "enumerate", "case": "ramified", "p": 3, "n": 1,
             "max_contribution": 2},
        ),
        (
            ["verify", "--suite", "identities", "--max-n", "1", "--m", "2"],
            {"subcommand": "verify", "suite": "identities", "max_n": 1, "m": [2],
             "p": None, "max_d": 12, "max_contribution": 6},
        ),
        (
            ["tree", "--basin", "split", "--m", "2", "--radius", "3"],
            {"subcommand": "tree", "basin": "split", "m": 2, "radius": 3,
             "halfwidth": 3},
        ),
        (
            ["tree", "--basin", "ramified", "--m", "2", "--radius", "1",
             "--halfwidth", "4"],
            {"subcommand": "tree", "basin": "ramified", "m": 2, "radius": 1,
             "halfwidth": None},
        ),
    ],
)
def test_request_echoes_every_option_in_parser_order(capsys, argv, request_block):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    request = json.loads(out)["request"]
    assert list(request) == list(request_block)
    assert request == request_block


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("impactzeta ")]


def test_readme_cli_examples_run(capsys):
    lines = _readme_cli_lines()
    assert len(lines) == 10
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert code == 0, (line, err)
