"""Command-line surface.

Subcommands: construct, diameter, analyze, decide, enumerate, brute-force,
export-cnf, verify-claims.  Orientations travel as canonical JSON
({"parts": [...], "arcs": [[u,v], ...]}, arcs sorted), optionally with a
completion_log section describing choices a constructor made.

--format exists only where it changes the output: text (default) or json
for diameter, analyze, brute-force and verify-claims; json (default) or dot
for construct.  decide, enumerate and export-cnf each have one fixed output.

Exit codes: 0 success / all claims pass, 1 failed claim, 2 usage or data
error, 3 a claim ended Unknown (budget).

Only graphcore and search load with this module.  Each command imports the
module it uses (constructions, analysis, cnf or claims) when it runs, and
the parser reads the family names from claims, so a one-shot run compiles
no module its command does not need.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import asdict

from . import __version__
from .graphcore import (
    INFINITE,
    OrientdiamError,
    diameter,
    dumps,
    loads,
    make_complete_multipartite,
    stable_json_dumps,
    to_dot,
    to_json_dict,
)
from .search import (
    SearchConfig,
    brute_force_min_diameter,
    decide_diameter2,
    enumerate_diameter2,
)

USAGE_ERROR = 2


class CliError(OrientdiamError):
    pass


def _int(token: str) -> int:
    """A sign and ASCII digits, spaces around them; int() alone takes "1_0" and non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", token.strip()):
        raise ValueError(token)
    return int(token)


def _decimal(token: str) -> float:
    """A sign, ASCII digits with at most one point, an optional exponent, spaces around them."""
    if not re.fullmatch(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", token.strip()):
        raise ValueError(token)
    return float(token)


# argparse names a rejected value by its type's __name__: "invalid integer value: '1_0'"
_int.__name__, _decimal.__name__ = "integer", "decimal"


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(_int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"--parts expects comma-separated integers, got {text!r}")
    return parts


def _read_orientation(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")
    return loads(text)  # raises ParseError with line/column on malformed JSON


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_distance(fmt: str, parts, key: str, d) -> int:
    """Print d as text ('infinite' if unreachable) or as JSON {parts, key} (null)."""
    value = None if d == INFINITE else int(d)
    if fmt == "json":
        _emit(stable_json_dumps({"parts": list(parts), key: value}), None)
    else:
        print("infinite" if value is None else value)
    return 0


def cmd_construct(args) -> int:
    from .constructions import complete_graph_orientation, middle_layer_bipartite, paper_families

    parts = _parse_parts(args.parts)
    log = ()
    if args.scheme == "paper":
        families = paper_families()
        if len(parts) != 3 or parts[0] != 3 or parts[1] not in families:
            covered = " and ".join(f"3,{p},q" for p in families)
            raise CliError(f"scheme 'paper' covers parts {covered}; got {args.parts}")
        D, log = families[parts[1]][1](parts[2])
    elif args.scheme == "middle-layer":
        if len(parts) != 2:
            raise CliError("scheme 'middle-layer' needs two parts p,q")
        D = middle_layer_bipartite(parts[0], parts[1])
    else:  # tournament
        if any(p != 1 for p in parts):
            raise CliError("scheme 'tournament' needs parts 1,1,...,1")
        D = complete_graph_orientation(len(parts))
    _emit(to_dot(D) if args.format == "dot" else dumps(D, completion_log=log), args.out)
    return 0


def cmd_diameter(args) -> int:
    D = _read_orientation(args.file)
    return _report_distance(args.format, D.topology.parts, "diameter", diameter(D))


def cmd_analyze(args) -> int:
    from .analysis import (
        SIGN_LABELS, AnalysisError, DiameterNotTwo, case_signature, resolve_anchor,
        sign_condition_violations, sign_partition,
    )

    D = _read_orientation(args.file)
    anchor = resolve_anchor(D.topology.parts, args.anchor)
    partitions = sign_partition(D, anchor)
    try:
        violations = sign_condition_violations(D, anchor)
        verdict = "pass" if not violations else "violated"
    except DiameterNotTwo:
        violations, verdict = None, "not-applicable (diameter exceeds 2)"
    except AnalysisError:
        violations, verdict = None, "not-applicable (needs a tripartite orientation)"
    try:
        signature = case_signature(D, anchor)
    except AnalysisError:
        signature = None
    if args.format == "json":
        doc = {
            "parts": list(D.topology.parts),
            "anchor": anchor,
            "sign_classes": {
                f"part{pi + 1}": {label: list(classes[label]) for label in SIGN_LABELS}
                for pi, classes in sorted(partitions.items())
            },
            "necessary_conditions": verdict,
            "violations": violations,
            "case_signature": None
            if signature is None
            else {"raw": list(signature.raw), "canonical": list(signature.canonical)},
        }
        _emit(stable_json_dumps(doc), None)
        return 0
    topo = D.topology
    print(f"sign partition of K{tuple(topo.parts)} anchored at part {anchor + 1}")
    print(("class    " + "".join(f"part{pi + 1:<4}" for pi in sorted(partitions))).rstrip())
    for label in SIGN_LABELS:
        row = f"{label:<9}"
        for pi in sorted(partitions):
            members = ",".join(topo.vertex_name(v) for v in partitions[pi][label])
            row += f"{members or '-':<8}"
        print(row.rstrip())
    print(f"diameter-2 necessary conditions: {verdict}")
    if violations:
        for v in violations:
            print(f"  violation: {v}")
    if signature is not None:
        print(f"case signature: raw {signature.raw} canonical {signature.canonical}")
    return 0


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        node_budget=args.budget_nodes,
        time_budget=args.budget_seconds,
        symmetry_breaking=not args.no_symmetry,
    )


def cmd_decide(args) -> int:
    parts = _parse_parts(args.parts)
    outcome = decide_diameter2(parts, _search_config(args))
    doc = {
        "parts": list(parts),
        "verdict": outcome.verdict.value,
        "witness": None if outcome.witness is None else to_json_dict(outcome.witness),
        "stats": {**asdict(outcome.stats), "wall_time": round(outcome.stats.wall_time, 4)},
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_enumerate(args) -> int:
    parts = _parse_parts(args.parts)
    topology = make_complete_multipartite(parts)
    found = enumerate_diameter2(topology, limit=args.limit)
    doc = {"parts": list(parts), "count": len(found),
           "orientations": [to_json_dict(D)["arcs"] for D in found]}
    _emit(json.dumps(doc) + "\n", args.out)
    return 0


def cmd_brute_force(args) -> int:
    parts = _parse_parts(args.parts)
    f_value = brute_force_min_diameter(make_complete_multipartite(parts))
    return _report_distance(args.format, parts, "oriented_diameter", f_value)


def cmd_export_cnf(args) -> int:
    from .cnf import export_cnf

    parts = _parse_parts(args.parts)
    stats = export_cnf(parts, args.out)
    print(
        f"wrote {args.out}: {stats.variables} variables "
        f"({stats.edge_variables} edge, {stats.path_variables} path, "
        f"{stats.lex_variables} lex), {stats.clauses} clauses"
    )
    return 0


def cmd_verify_claims(args) -> int:
    from .claims import verify_claims

    q_range = None
    if args.q_range:
        try:
            lo, hi = args.q_range.split("..")
            q_range = (_int(lo), _int(hi))
        except ValueError:
            raise CliError(f"--q-range expects LO..HI, got {args.q_range!r}")
    report = verify_claims(args.family, q_range=q_range, cfg=_search_config(args), cnf_dir=".")
    if args.format == "json":
        _emit(report.to_json(), None)
    else:
        _emit(report.to_text(), None)
        for path in report.cnf_emitted:
            print(f"emitted CNF for external solving: {path}")
    return report.exit_code


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as CliError, so main prints them as its one error line."""

    def error(self, message):
        raise CliError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on its first call; main and the tests share it."""
    from .claims import FAMILIES

    parser = _Parser(
        prog="orientdiam",
        description="construct, verify and search diameter-2 orientations of complete multipartite graphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    text_or_json = argparse.ArgumentParser(add_help=False)
    text_or_json.add_argument("--format", choices=("text", "json"), default="text")

    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget-seconds", type=_decimal, default=SearchConfig.time_budget)
    budget.add_argument("--budget-nodes", type=_int, default=SearchConfig.node_budget)
    budget.add_argument("--no-symmetry", action="store_true")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a known orientation family")
    p.add_argument("--parts", required=True)
    p.add_argument("--scheme", choices=("paper", "middle-layer", "tournament"), default="paper")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("diameter", parents=[text_or_json], help="measure an orientation file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("analyze", parents=[text_or_json], help="sign classes and case signature")
    p.add_argument("--file", required=True)
    p.add_argument("--anchor", type=_int)  # default: the first part of size 3
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("decide", parents=[budget], help="decide diameter-2 orientability")
    p.add_argument("--parts", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("enumerate", help="list all diameter-2 orientations")
    p.add_argument("--parts", required=True)
    p.add_argument("--limit", type=_int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("brute-force", parents=[text_or_json], help="exact oriented diameter by enumeration")
    p.add_argument("--parts", required=True)
    p.set_defaults(func=cmd_brute_force)

    p = sub.add_parser("export-cnf", help="emit the DIMACS encoding")
    p.add_argument("--parts", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_cnf)

    p = sub.add_parser("verify-claims", parents=[text_or_json, budget], help="re-verify a claim family")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--q-range", default=None)
    p.set_defaults(func=cmd_verify_claims)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # --help and --version still exit 0
        return args.func(args)
    except (OrientdiamError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
