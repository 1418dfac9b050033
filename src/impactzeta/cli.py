"""Command-line front end.

Subcommands: ``zeta`` (numerator/denominator and series of the order zeta),
``genfun`` (tree-side generating functions), ``counts`` (walk-count tables,
closed form next to the BFS oracle), ``enumerate`` (the p-adic ideal
table), ``verify`` (the identity/oracle/arithmetic suites) and ``tree``
(truncated-tree export, DOT or layer table).

Output is deterministic: identical invocations produce identical bytes.
Exit codes: 0 success, 1 verification/enumeration failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import __version__
from .building import (
    BasinKind,
    BuildingSpec,
    TruncatedTree,
    build_truncated,
    layer_members,
)
from .errors import ClosedFormMismatch, ImpactZetaError
from .genfun import (
    count_table,
    genfun_record,
    layer_genfun,
    reachable_count_closed,
    way_out_vertex,
)
from .orders import extension_case, full_zeta
from .padic import MIN_PRECISION, enumerate_ideals, make_case
from .poly import BiPoly, RationalFn, series_expand
from .report import CheckResult
from .suites import (
    arithmetic_suite,
    identity_suite,
    line_fixture_suite,
    oracle_suite,
)

_KIND_NAMES = {k.value: k for k in BasinKind}


def poly_to_json(poly: BiPoly) -> dict:
    """Big-integer-safe encoding: terms [q_exp, x_exp, coeff-as-string]."""
    return {"terms": [[qe, xe, str(c)] for qe, xe, c in poly.terms]}


def poly_from_json(obj: dict) -> BiPoly:
    return BiPoly(tuple((qe, xe, int(c)) for qe, xe, c in obj["terms"]))


def ratfn_to_json(f: RationalFn) -> dict:
    return {"numerator": poly_to_json(f.num), "denominator": poly_to_json(f.den)}


def _document(request: dict, results: dict, checks: Optional[list[CheckResult]] = None) -> dict:
    doc = {
        "tool": {"name": "impactzeta", "version": __version__},
        "request": request,
        "results": results,
    }
    if checks is not None:
        doc["checks"] = [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ]
    return doc


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _vertex_str(v) -> str:
    return str(v)


# -- zeta ---------------------------------------------------------------


def cmd_zeta(args) -> int:
    case = extension_case(_KIND_NAMES[args.case])
    rec = full_zeta(case, args.n)
    num, den = rec.numerator, rec.denominator
    if args.q is not None:
        num, den = num.subs_q(args.q), den.subs_q(args.q)
    request = {
        "subcommand": "zeta",
        "case": args.case,
        "n": args.n,
        "q": args.q,
        "series_terms": args.series_terms,
    }
    results: dict = {
        "numerator": poly_to_json(num),
        "denominator": poly_to_json(den),
    }
    series = None
    if args.series_terms is not None:
        prefix = series_expand(RationalFn(num, den), args.series_terms)
        if args.q is not None:
            series = prefix.at_q(0)
            results["series"] = series
        else:
            series = [poly_to_json(c) for c in prefix.coefficients]
            results["series"] = series
    if args.format == "json":
        _emit(_json_text(_document(request, results)), args.output)
    else:
        lines = [
            f"case: {args.case}  n: {args.n}" + (f"  q: {args.q}" if args.q is not None else ""),
            f"numerator: {num}",
            f"denominator: {den}",
        ]
        if args.series_terms is not None:
            if args.q is not None:
                lines.append("series: " + " ".join(str(c) for c in series))
            else:
                prefix = series_expand(RationalFn(num, den), args.series_terms)
                lines.append(
                    "series: " + " | ".join(str(c) for c in prefix.coefficients)
                )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


# -- genfun ---------------------------------------------------------------


def cmd_genfun(args) -> int:
    spec = BuildingSpec(_KIND_NAMES[args.basin], args.m)
    rec = genfun_record(spec, args.n)
    request = {
        "subcommand": "genfun",
        "basin": args.basin,
        "m": args.m,
        "n": args.n,
        "series_terms": args.series_terms,
    }
    results = {
        "layer": ratfn_to_json(rec.layer),
        "basin": ratfn_to_json(rec.basin),
        "layer_geodesic": ratfn_to_json(rec.layer_geodesic),
        "basin_geodesic": ratfn_to_json(rec.basin_geodesic),
    }
    if args.series_terms is not None:
        results["layer_series"] = series_expand(rec.layer, args.series_terms).at_q(0)
        results["basin_series"] = series_expand(rec.basin, args.series_terms).at_q(0)
    if args.format == "json":
        _emit(_json_text(_document(request, results)), args.output)
    else:
        lines = [
            f"basin: {args.basin}  m: {args.m}  n: {args.n}",
            f"layer: {rec.layer}",
            f"basin-fn: {rec.basin}",
            f"layer-geodesic: {rec.layer_geodesic}",
            f"basin-geodesic: {rec.basin_geodesic}",
        ]
        if args.series_terms is not None:
            lines.append("layer series: " + " ".join(map(str, results["layer_series"])))
            lines.append("basin series: " + " ".join(map(str, results["basin_series"])))
        _emit("\n".join(lines) + "\n", args.output)
    return 0


# -- counts ---------------------------------------------------------------


def cmd_counts(args) -> int:
    spec = BuildingSpec(_KIND_NAMES[args.basin], args.m)
    halfwidth = args.max_d + args.n if spec.kind is BasinKind.SPLIT else 0
    tree = build_truncated(spec, args.n, halfwidth)
    v = way_out_vertex(spec, args.n)
    table = count_table(tree, v, args.max_d)
    # Closed values from the series of the layer generating function; for
    # n >= 1 these agree with the piecewise walk-count formula.
    closed_series = series_expand(layer_genfun(spec, args.n), args.max_d).at_q(0)
    rows = []
    for d in range(args.max_d + 1):
        closed = closed_series[d]
        if args.n >= 1:
            formula = reachable_count_closed(spec, args.n, d)
            if closed != formula:
                raise ClosedFormMismatch(
                    f"layer series gives {closed} at d={d}, "
                    f"walk-count formula {formula}"
                )
        rows.append(
            {"d": d, "r_closed": closed, "r_oracle": table.r[d], "p_oracle": table.p[d]}
        )
    request = {
        "subcommand": "counts",
        "basin": args.basin,
        "m": args.m,
        "n": args.n,
        "max_d": args.max_d,
    }
    if args.format == "json":
        _emit(_json_text(_document(request, {"counts": rows})), args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["d", "r_closed", "r_oracle", "p_oracle"])
        for row in rows:
            writer.writerow([row["d"], row["r_closed"], row["r_oracle"], row["p_oracle"]])
        _emit(buf.getvalue(), args.output)
    else:
        lines = [f"basin: {args.basin}  m: {args.m}  n: {args.n}"]
        lines += [
            f"d={row['d']:>3}  r_closed={row['r_closed']:>8}  "
            f"r_oracle={row['r_oracle']:>8}  p_oracle={row['p_oracle']:>8}"
            for row in rows
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


# -- enumerate -------------------------------------------------------------


def cmd_enumerate(args) -> int:
    kind = _KIND_NAMES[args.case]
    n, bound = args.n, args.max_contribution
    precision = args.precision
    if precision is None:
        precision = max(MIN_PRECISION, bound + 2 * n + 2)
    inst = make_case(kind, args.p, precision)
    if kind is BasinKind.SPLIT:
        halfwidth = max(bound - 2 * n, n)
        tree = build_truncated(BuildingSpec(kind, args.p), n, halfwidth)
    else:
        tree = build_truncated(BuildingSpec(kind, args.p), n)
    records = enumerate_ideals(inst, n, bound, tree)
    request = {
        "subcommand": "enumerate",
        "case": args.case,
        "p": args.p,
        "n": n,
        "max_contribution": bound,
        "precision": precision,
    }

    def type_str(t) -> str:
        if t is None:
            return ""
        if isinstance(t, tuple):
            return "|".join(str(c) for c in t)
        return str(t)

    rows = []
    for r in records:
        rows.append(
            {
                "case": args.case,
                "p": args.p,
                "n": n,
                "type": type_str(r.type_eps),
                "contribution": "" if r.contribution is None else r.contribution,
                "vertex": "" if r.vertex is None else _vertex_str(r.vertex),
                "distance": "" if r.distance_to_main is None else r.distance_to_main,
                "principal": r.principal,
                "lattice": str(r.lattice),
                "index_exponent": r.index_exponent,
                "generator": "" if r.generator is None else str(r.generator),
            }
        )
    if args.format == "json":
        _emit(_json_text(_document(request, {"ideals": rows})), args.output)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["case", "p", "n", "type", "contribution", "vertex", "distance", "principal"]
        )
        for row in rows:
            writer.writerow(
                [
                    row["case"],
                    row["p"],
                    row["n"],
                    row["type"],
                    row["contribution"],
                    row["vertex"],
                    row["distance"],
                    str(row["principal"]).lower(),
                ]
            )
        _emit(buf.getvalue(), args.output)
    else:
        lines = [
            f"case: {args.case}  p: {args.p}  n: {n}  bound: {bound}  "
            f"ideals: {len(rows)}"
        ]
        for row in rows:
            mark = "P" if row["principal"] else "-"
            lines.append(
                f"[{mark}] k={row['index_exponent']} lattice={row['lattice']} "
                f"type={row['type'] or '-'} c={row['contribution']} "
                f"vertex={row['vertex'] or '-'} d={row['distance']}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


# -- verify ----------------------------------------------------------------


def cmd_verify(args) -> int:
    checks: list[CheckResult] = []
    suites = (
        ["identities", "oracle", "arithmetic"] if args.suite == "all" else [args.suite]
    )
    if "identities" in suites:
        checks.extend(identity_suite(8 if args.max_n is None else args.max_n))
        checks.extend(line_fixture_suite())
    if "oracle" in suites:
        ms = tuple(args.m) if args.m else (2, 3)
        checks.extend(oracle_suite(ms, 5 if args.max_n is None else args.max_n, args.max_d))
    if "arithmetic" in suites:
        if args.p:
            primes = {k: tuple(args.p) for k in BasinKind}
            # p = 2 unramified is unsupported: drop it, and skip the case
            # when no other prime was asked for.
            primes[BasinKind.UNRAMIFIED] = tuple(p for p in args.p if p != 2)
            if not primes[BasinKind.UNRAMIFIED]:
                print(
                    "note: unramified case skipped (p = 2 is not supported)",
                    file=sys.stderr,
                )
        else:
            primes = None
        n_max = 2 if args.max_n is None else args.max_n
        checks.extend(arithmetic_suite(primes, n_max, args.max_contribution))
    passed = sum(1 for c in checks if c.passed)
    request = {
        "subcommand": "verify",
        "suite": args.suite,
        "max_n": args.max_n,
        "m": args.m,
        "p": args.p,
        "max_d": args.max_d,
        "max_contribution": args.max_contribution,
    }
    summary = {"checks": len(checks), "passed": passed, "failed": len(checks) - passed}
    if args.format == "json":
        _emit(_json_text(_document(request, summary, checks)), args.output)
    else:
        lines = []
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail and not c.passed else ""
            lines.append(f"[{status}] {c.name}{detail}")
        lines.append(
            f"{summary['passed']}/{summary['checks']} checks passed"
        )
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if passed == len(checks) else 1


# -- tree ------------------------------------------------------------------


def _dot_id(v) -> str:
    anchor = f"m{-v.anchor}" if v.anchor < 0 else str(v.anchor)
    word = "_".join(str(i) for i in v.word)
    return f"v{anchor}" + (f"_{word}" if word else "")


def tree_to_dot(tree: TruncatedTree) -> str:
    """Undirected DOT export with height labels on the vertices."""
    lines = ["graph building {", "  node [shape=circle];"]
    for v in tree.vertices:
        lines.append(f'  {_dot_id(v)} [label="{v.height}"];')
    seen = set()
    for v in tree.vertices:
        for w in tree.adjacency[v]:
            key = tuple(sorted(((v.anchor, v.word), (w.anchor, w.word))))
            if key in seen:
                continue
            seen.add(key)
            lines.append(f"  {_dot_id(v)} -- {_dot_id(w)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_tree(args) -> int:
    spec = BuildingSpec(_KIND_NAMES[args.basin], args.m)
    halfwidth = args.halfwidth if args.halfwidth is not None else args.radius
    tree = build_truncated(spec, args.radius, halfwidth)
    layer_sizes = {
        n: len(layer_members(tree, n)) for n in range(args.radius + 1)
    }
    request = {
        "subcommand": "tree",
        "basin": args.basin,
        "m": args.m,
        "radius": args.radius,
        "halfwidth": halfwidth if spec.kind is BasinKind.SPLIT else None,
    }
    if args.format == "dot":
        _emit(tree_to_dot(tree), args.output)
    elif args.format == "json":
        results = {
            "vertices": len(tree),
            "layer_sizes": {str(k): v for k, v in layer_sizes.items()},
            "vertex_list": [_vertex_str(v) for v in tree.vertices],
        }
        _emit(_json_text(_document(request, results)), args.output)
    else:
        lines = [
            f"basin: {args.basin}  m: {args.m}  radius: {args.radius}  "
            f"vertices: {len(tree)}"
        ]
        lines += [f"layer {n}: {size}" for n, size in layer_sizes.items()]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


# -- parser ----------------------------------------------------------------


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactzeta",
        description="Zeta numerators of quadratic orders and the matching "
        "tree generating functions, with brute-force cross-checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cases = sorted(_KIND_NAMES)

    p_zeta = sub.add_parser("zeta", help="order zeta numerator/denominator")
    p_zeta.add_argument("--case", required=True, choices=cases)
    p_zeta.add_argument("-n", type=_nonnegative, required=True)
    p_zeta.add_argument("--q", type=int, default=None)
    p_zeta.add_argument("--series-terms", type=int, default=None)
    p_zeta.add_argument("--format", choices=["json", "text"], default="text")
    p_zeta.add_argument("--output", default=None)
    p_zeta.set_defaults(func=cmd_zeta)

    p_gen = sub.add_parser("genfun", help="layer/basin generating functions")
    p_gen.add_argument("--basin", required=True, choices=cases)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("-n", type=_nonnegative, required=True)
    p_gen.add_argument("--series-terms", type=int, default=None)
    p_gen.add_argument("--format", choices=["json", "text"], default="text")
    p_gen.add_argument("--output", default=None)
    p_gen.set_defaults(func=cmd_genfun)

    p_counts = sub.add_parser("counts", help="walk-count tables, closed vs oracle")
    p_counts.add_argument("--basin", required=True, choices=cases)
    p_counts.add_argument("--m", type=int, required=True)
    p_counts.add_argument("-n", type=_nonnegative, required=True)
    p_counts.add_argument("--max-d", type=_nonnegative, default=10)
    p_counts.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_counts.add_argument("--output", default=None)
    p_counts.set_defaults(func=cmd_counts)

    p_enum = sub.add_parser("enumerate", help="p-adic ideal table")
    p_enum.add_argument("--case", required=True, choices=cases)
    p_enum.add_argument("--p", type=int, required=True)
    p_enum.add_argument("-n", type=_nonnegative, required=True)
    p_enum.add_argument("--max-contribution", type=_nonnegative, required=True)
    p_enum.add_argument("--precision", type=int, default=None)
    p_enum.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_enum.add_argument("--output", default=None)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=["identities", "oracle", "arithmetic", "all"],
    )
    p_verify.add_argument("--max-n", type=_nonnegative, default=None)
    p_verify.add_argument("--m", type=int, action="append", default=None)
    p_verify.add_argument("--p", type=int, action="append", default=None)
    p_verify.add_argument("--max-d", type=_nonnegative, default=12)
    p_verify.add_argument("--max-contribution", type=_nonnegative, default=6)
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_tree = sub.add_parser("tree", help="truncated tree export")
    p_tree.add_argument("--basin", required=True, choices=cases)
    p_tree.add_argument("--m", type=int, required=True)
    p_tree.add_argument("--radius", type=_nonnegative, required=True)
    p_tree.add_argument("--halfwidth", type=_nonnegative, default=None)
    p_tree.add_argument("--format", choices=["dot", "json", "text"], default="text")
    p_tree.add_argument("--output", default=None)
    p_tree.set_defaults(func=cmd_tree)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Flag combinations the parser cannot see (e.g. halfwidth < radius).
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ImpactZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
