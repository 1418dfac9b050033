"""Command-line front end.

Subcommands: ``zeta`` (numerator/denominator and series of the order zeta),
``genfun`` (tree-side generating functions), ``counts`` (walk-count tables,
closed form next to the BFS oracle), ``enumerate`` (the p-adic ideal
table), ``verify`` (the identity/oracle/arithmetic suites) and ``tree``
(truncated-tree export, DOT or layer table).

Each subcommand calls the layer functions directly and hands its results to
one writer, ``_write``: the JSON document echoes every option of the
subcommand under ``request`` (in parser order, after ``subcommand``), CSV
goes through ``csv.writer`` and the text formats are joined lines.  Output
is deterministic: identical invocations produce identical bytes.
Exit codes: 0 success, 1 verification/enumeration failure, 2 usage error
(including an ``--output`` path that is empty or cannot be written and a
value given twice to ``verify --m`` or ``--p``).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from typing import Optional

from . import __version__
from .building import (
    BasinKind,
    BuildingSpec,
    TruncatedTree,
    build_truncated,
    distance_profile,
    way_out_vertex,
)
from .errors import ImpactZetaError
from .genfun import (
    basin_genfun,
    geodesic_genfun_q,
    layer_genfun,
    reachable_count_oracle,
)
from .orders import extension_case, full_zeta
from .padic import ClassAtlas, enumerate_ideals, is_prime, make_case
from .poly import BiPoly, RationalFn, series_expand
from .report import CheckResult
from .suites import (
    arithmetic_suite,
    identity_suite,
    line_fixture_suite,
    oracle_suite,
)

_KIND_NAMES = {k.value: k for k in BasinKind}
# Parsed attributes that say where and how to write, not what was computed.
_NOT_ECHOED = ("format", "output", "func")


def poly_to_json(poly: BiPoly) -> dict:
    """Big-integer-safe encoding: terms [q_exp, x_exp, coeff-as-string]."""
    return {"terms": [[qe, xe, str(c)] for qe, xe, c in poly.terms]}


def poly_from_json(obj: dict) -> BiPoly:
    return BiPoly(tuple((qe, xe, int(c)) for qe, xe, c in obj["terms"]))


def _write(
    args, results: dict, text: list, checks: Optional[list[CheckResult]] = None, **derived
) -> None:
    """Write one subcommand's output in ``args.format`` to ``--output`` or stdout.

    ``results`` (and ``checks``) fill the JSON document, whose ``request``
    echoes the parsed options with ``derived`` values in their place.
    ``text`` is the table rows for CSV and the output lines otherwise.
    """
    if args.format == "json":
        request = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
        doc = {
            "tool": {"name": "impactzeta", "version": __version__},
            "request": request | derived,
            "results": results,
        }
        if checks is not None:
            doc["checks"] = [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
            ]
        body = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(text)
        body = buf.getvalue()
    else:
        body = "\n".join(text) + "\n"
    if args.output is None:
        sys.stdout.write(body)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(body)
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: {exc.strerror}") from None


# -- zeta ---------------------------------------------------------------


def cmd_zeta(args) -> int:
    zeta = full_zeta(extension_case(_KIND_NAMES[args.case]), args.n)
    num, den = zeta.num, zeta.den
    head = f"case: {args.case}  n: {args.n}"
    if args.q is not None:
        num, den = num.subs_q(args.q), den.subs_q(args.q)
        head += f"  q: {args.q}"
    results: dict = {"numerator": poly_to_json(num), "denominator": poly_to_json(den)}
    text = [head, f"numerator: {num}", f"denominator: {den}"]
    if args.series_terms is not None:
        prefix = series_expand(RationalFn(num, den), args.series_terms)
        if args.q is not None:
            results["series"] = prefix.at_q(0)
            text.append("series: " + " ".join(map(str, results["series"])))
        else:
            results["series"] = [poly_to_json(c) for c in prefix.coefficients]
            text.append("series: " + " | ".join(map(str, prefix.coefficients)))
    _write(args, results, text)
    return 0


# -- genfun ---------------------------------------------------------------


def cmd_genfun(args) -> int:
    spec = BuildingSpec(_KIND_NAMES[args.basin], args.m)
    functions = {"layer": layer_genfun(spec, args.n), "basin": basin_genfun(spec, args.n)}
    for key, f in list(functions.items()):
        functions[f"{key}_geodesic"] = geodesic_genfun_q(spec.kind, f)
    results = {
        key: {"numerator": poly_to_json(f.num), "denominator": poly_to_json(f.den)}
        for key, f in functions.items()
    }
    labels = ("layer", "basin-fn", "layer-geodesic", "basin-geodesic")
    text = [f"basin: {args.basin}  m: {args.m}  n: {args.n}"]
    text += [f"{label}: {f}" for label, f in zip(labels, functions.values())]
    if args.series_terms is not None:
        for key in ("layer", "basin"):
            series = series_expand(functions[key], args.series_terms).at_q(0)
            results[f"{key}_series"] = series
            text.append(f"{key} series: " + " ".join(map(str, series)))
    _write(args, results, text)
    return 0


# -- counts ---------------------------------------------------------------


def cmd_counts(args) -> int:
    spec = BuildingSpec(_KIND_NAMES[args.basin], args.m)
    profile = distance_profile(spec, way_out_vertex(args.n), args.max_d)
    # Closed values are the series coefficients of the layer generating function.
    closed_series = series_expand(layer_genfun(spec, args.n), args.max_d).at_q(0)
    rows = []
    for d in range(args.max_d + 1):
        r_oracle = reachable_count_oracle(profile, d, "layer")
        p_oracle = reachable_count_oracle(profile, d, "basin")
        closed = closed_series[d]
        rows.append({"d": d, "r_closed": closed, "r_oracle": r_oracle, "p_oracle": p_oracle})
    if args.format == "csv":
        text = [["d", "r_closed", "r_oracle", "p_oracle"]] + [list(r.values()) for r in rows]
    else:
        text = [f"basin: {args.basin}  m: {args.m}  n: {args.n}"] + [
            f"d={row['d']:>3}  r_closed={row['r_closed']:>8}  "
            f"r_oracle={row['r_oracle']:>8}  p_oracle={row['p_oracle']:>8}"
            for row in rows
        ]
    _write(args, {"counts": rows}, text)
    return 0


# -- enumerate -------------------------------------------------------------

_CSV_COLUMNS = ("case", "p", "n", "type", "contribution", "vertex", "distance")


def cmd_enumerate(args) -> int:
    kind = _KIND_NAMES[args.case]
    n, bound = args.n, args.max_contribution
    inst = make_case(kind, args.p)
    atlas = ClassAtlas(inst, n, bound)
    records = enumerate_ideals(inst, n, bound)
    rows = [
        {
            "case": args.case,
            "p": args.p,
            "n": n,
            "type": "|".join(map(str, r.type_eps or ())),
            "contribution": r.lattice.index_exponent if r.principal else "",
            "vertex": str(atlas.place(r.lattice)),
            "distance": "" if r.distance_to_main is None else r.distance_to_main,
            "principal": r.principal,
            "lattice": str(r.lattice),
            "index_exponent": r.lattice.index_exponent,
            "generator": "" if r.generator is None else "{} + {}*D".format(*r.generator),
        }
        for r in records
    ]
    if args.format == "csv":
        text = [[*_CSV_COLUMNS, "principal"]] + [
            [*(row[k] for k in _CSV_COLUMNS), str(row["principal"]).lower()]
            for row in rows
        ]
    else:
        text = [
            f"case: {args.case}  p: {args.p}  n: {n}  bound: {bound}  "
            f"ideals: {len(rows)}"
        ] + [
            f"[{'P' if row['principal'] else '-'}] k={row['index_exponent']} "
            f"lattice={row['lattice']} type={row['type'] or '-'} "
            f"c={row['contribution']} vertex={row['vertex']} d={row['distance']}"
            for row in rows
        ]
    _write(args, {"ideals": rows}, text)
    return 0


# -- verify ----------------------------------------------------------------


def cmd_verify(args) -> int:
    for flag, values in (("--m", args.m), ("--p", args.p)):
        repeated = sorted({v for v in values or () if values.count(v) > 1})
        if repeated:
            raise ValueError(f"{flag} {repeated[0]} is given more than once")
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
        primes = {k: tuple(args.p) for k in BasinKind} if args.p else None
        n_max = 2 if args.max_n is None else args.max_n
        checks.extend(arithmetic_suite(n_max, args.max_contribution, primes))
    passed = sum(1 for c in checks if c.passed)
    text = [
        f"[{'pass' if c.passed else 'FAIL'}] {c.name}"
        + (f"  ({c.detail})" if c.detail and not c.passed else "")
        for c in checks
    ]
    text.append(f"{passed}/{len(checks)} checks passed")
    summary = {"checks": len(checks), "passed": passed, "failed": len(checks) - passed}
    _write(args, summary, text, checks)
    return 0 if passed == len(checks) else 1


# -- tree ------------------------------------------------------------------


def _dot_id(v) -> str:
    anchor = f"m{-v.anchor}" if v.anchor < 0 else str(v.anchor)
    word = "_".join(str(i) for i in v.word)
    return f"v{anchor}" + (f"_{word}" if word else "")


def tree_to_dot(tree: TruncatedTree) -> list[str]:
    """Undirected DOT export with height labels on the vertices, as lines."""
    lines = ["graph building {", "  node [shape=circle];"]
    for v in tree.vertices:
        lines.append(f'  {_dot_id(v)} [label="{v.height}"];')
    # Each edge once, from the endpoint that comes first in vertex order.
    for v in tree.vertices:
        for w in tree.adjacency[v]:
            if (v.anchor, v.word) < (w.anchor, w.word):
                lines.append(f"  {_dot_id(v)} -- {_dot_id(w)};")
    lines.append("}")
    return lines


def cmd_tree(args) -> int:
    spec = BuildingSpec(_KIND_NAMES[args.basin], args.m)
    halfwidth = args.halfwidth if args.halfwidth is not None else args.radius
    tree = build_truncated(spec, args.radius, halfwidth)
    heights = Counter(v.height for v in tree.vertices)
    layer_sizes = {n: heights[n] for n in range(args.radius + 1)}
    results = {
        "vertices": len(tree),
        "layer_sizes": {str(k): v for k, v in layer_sizes.items()},
        "vertex_list": [str(v) for v in tree.vertices],
    }
    if args.format == "dot":
        text = tree_to_dot(tree)
    else:
        text = [
            f"basin: {args.basin}  m: {args.m}  radius: {args.radius}  "
            f"vertices: {len(tree)}"
        ] + [f"layer {n}: {size}" for n, size in layer_sizes.items()]
    _write(
        args, results, text, halfwidth=halfwidth if spec.kind is BasinKind.SPLIT else None
    )
    return 0


# -- parser ----------------------------------------------------------------


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _residue_size(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2, got {value}")
    return value


def _output_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must be a nonempty path")
    return text


def _prime(text: str) -> int:
    value = int(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
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
    p_zeta.add_argument("--q", type=_residue_size, default=None)
    p_zeta.add_argument("--series-terms", type=_nonnegative, default=None)
    p_zeta.add_argument("--format", choices=["json", "text"], default="text")
    p_zeta.set_defaults(func=cmd_zeta)

    p_gen = sub.add_parser("genfun", help="layer/basin generating functions")
    p_gen.add_argument("--basin", required=True, choices=cases)
    p_gen.add_argument("--m", type=_residue_size, required=True)
    p_gen.add_argument("-n", type=_nonnegative, required=True)
    p_gen.add_argument("--series-terms", type=_nonnegative, default=None)
    p_gen.add_argument("--format", choices=["json", "text"], default="text")
    p_gen.set_defaults(func=cmd_genfun)

    p_counts = sub.add_parser("counts", help="walk-count tables, closed vs oracle")
    p_counts.add_argument("--basin", required=True, choices=cases)
    p_counts.add_argument("--m", type=_residue_size, required=True)
    p_counts.add_argument("-n", type=_nonnegative, required=True)
    p_counts.add_argument("--max-d", type=_nonnegative, default=10)
    p_counts.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_counts.set_defaults(func=cmd_counts)

    p_enum = sub.add_parser("enumerate", help="p-adic ideal table")
    p_enum.add_argument("--case", required=True, choices=cases)
    p_enum.add_argument("--p", type=_prime, required=True)
    p_enum.add_argument("-n", type=_nonnegative, required=True)
    p_enum.add_argument("--max-contribution", type=_nonnegative, required=True)
    p_enum.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=["identities", "oracle", "arithmetic", "all"],
    )
    p_verify.add_argument("--max-n", type=_nonnegative, default=None)
    p_verify.add_argument("--m", type=_residue_size, action="append", default=None)
    p_verify.add_argument("--p", type=_prime, action="append", default=None)
    p_verify.add_argument("--max-d", type=_nonnegative, default=12)
    p_verify.add_argument("--max-contribution", type=_nonnegative, default=6)
    p_verify.add_argument("--format", choices=["json", "text"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_tree = sub.add_parser("tree", help="truncated tree export")
    p_tree.add_argument("--basin", required=True, choices=cases)
    p_tree.add_argument("--m", type=_residue_size, required=True)
    p_tree.add_argument("--radius", type=_nonnegative, required=True)
    p_tree.add_argument("--halfwidth", type=_nonnegative, default=None)
    p_tree.add_argument("--format", choices=["dot", "json", "text"], default="text")
    p_tree.set_defaults(func=cmd_tree)

    for p_sub in sub.choices.values():
        p_sub.add_argument("--output", type=_output_path, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Flag combinations the parser cannot see (e.g. halfwidth < radius,
        # or a value given twice to verify --m or --p).
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ImpactZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
