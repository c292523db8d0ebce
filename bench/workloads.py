"""The benchmark's workloads: fixed instance lists, expectations and checks.

A workload is a list of operations.  Each operation calls one public entry
point of orientdiam and returns the raw output; its check runs afterwards,
outside the timed region, and returns a list of problems (empty = correct).
The seed only changes the order in which an instance's parts are listed;
verdicts, CNF sizes and search node counts do not depend on it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import orientdiam
from orientdiam import cli
from orientdiam.graphcore import diameter, has_diameter_at_most_2, loads

# Verdicts recorded from the paper, except K(3,5,20): its None is this
# engine's own result and has not been cross-checked by another route.
REFUTE = ((3, 3, 7), (3, 4, 12), (3, 5, 20))
WITNESS = ((3, 4, 11), (4, 4, 26), (4, 4, 34))

# The paper's two refuted thresholds, and the variable and clause counts of
# their DIMACS export as recorded when this benchmark was introduced.
THRESHOLDS = ((3, 3, 7), (3, 4, 12))
CNF_SIZES = {(3, 3, 7): (831, 2586), (3, 4, 12): (2226, 6930)}
CONSTRUCTED = tuple((3, 3, q) for q in range(3, 7)) + tuple((3, 4, q) for q in range(4, 12))
ORACLE_GRAPH = (2, 2, 3)
ORACLE_DIAMETER = 3
CLAIM_FAMILIES = ("33q", "34q", "baselines")


@dataclass
class Operation:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]


def listing(parts, rng: random.Random) -> tuple[int, ...]:
    """List parts with the largest at a seed-chosen position.

    The other parts keep ascending order.  Swapping them is a different
    search, not a relabelling: for K(3,5,20) it changes the block edge order,
    the node count (3,149,404 vs 2,857,643) and the time by about a third,
    which would swamp the run-to-run spread if the seed chose it.
    """
    parts = sorted(parts)
    largest = parts.pop()
    parts.insert(rng.randrange(len(parts) + 1), largest)
    return tuple(parts)


def _arg(parts) -> str:
    return ",".join(map(str, parts))


def _expect(condition, message) -> list:
    return [] if condition else [message]


def _check_witness(parts, D) -> list:
    if D is None:
        return [f"K{parts}: no witness"]
    return (_expect(tuple(D.topology.parts) == tuple(parts), f"K{parts}: witness is for K{D.topology.parts}")
            + _expect(diameter(D) == 2, f"K{parts}: witness diameter {diameter(D)}")
            + _expect(has_diameter_at_most_2(D), f"K{parts}: witness fails the 2-step test"))


def decide_operation(parts, expected: orientdiam.Verdict) -> Operation:
    def check(outcome) -> list:
        problems = _expect(outcome.verdict is expected,
                           f"K{parts}: verdict {outcome.verdict.value}, expected {expected.value}")
        if expected is orientdiam.Verdict.EXISTS:
            problems += _check_witness(parts, outcome.witness)
        return problems

    return Operation(f"decide {parts}", lambda: orientdiam.decide_diameter2(parts), check)


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_operation(argv, check) -> Operation:
    def checked(result: CliResult) -> list:
        if result.code != 0:
            return [f"exit {result.code}: {result.stderr.strip()[-200:]}"]
        return check(result.stdout)

    return Operation(" ".join(argv), lambda: run_cli(argv), checked)


def _json_check(test):
    def check(stdout) -> list:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"unparseable output: {exc}"]
        return test(doc)
    return check


def _claims_report(doc) -> list:
    claims = doc.get("claims", [])
    return (_expect(claims, "empty claim report")
            + [f"{c['claim_id']} observed {c['observed']}, expected {c['expected']}"
               for c in claims if not c["passed"]]
            + _expect(not doc.get("cnf_emitted"), f"unexpected CNF output {doc.get('cnf_emitted')}"))


def _cnf_check(parts, path):
    variables, clauses = CNF_SIZES[tuple(sorted(parts))]

    def check(stdout) -> list:
        with open(path, encoding="utf-8") as fh:
            header = next((line for line in fh if line.startswith("p cnf ")), "")
        return (_expect(f"{variables} variables" in stdout and f"{clauses} clauses" in stdout,
                        f"K{parts}: reported {stdout.strip()!r}, expected {variables}/{clauses}")
                + _expect(header.split() == ["p", "cnf", str(variables), str(clauses)],
                          f"K{parts}: DIMACS header {header.strip()!r}"))
    return check


def _constructed_check(parts, path):
    def check(stdout) -> list:
        with open(path, encoding="utf-8") as fh:
            D = loads(fh.read())
        return _check_witness(parts, D)
    return check


def _analysis_check(doc) -> list:
    return (_expect(doc.get("necessary_conditions") == "pass",
                    f"necessary conditions: {doc.get('necessary_conditions')}")
            + _expect(doc.get("case_signature") is not None, "no case signature"))


def refute_operations(rng) -> list[Operation]:
    return [decide_operation(listing(p, rng), orientdiam.Verdict.NONE) for p in REFUTE]


def witness_operations(rng) -> list[Operation]:
    return [decide_operation(listing(p, rng), orientdiam.Verdict.EXISTS) for p in WITNESS]


def crosscheck_operations(rng) -> list[Operation]:
    """The paper's reproduction and its independent routes, through cli.main."""
    ops = [cli_operation(["verify-claims", "--family", family, "--format", "json"],
                         _json_check(_claims_report)) for family in CLAIM_FAMILIES]
    for base in THRESHOLDS:
        parts = listing(base, rng)
        path = "k{}.cnf".format("_".join(map(str, parts)))
        ops.append(cli_operation(["export-cnf", "--parts", _arg(parts), "--out", path],
                                 _cnf_check(parts, path)))
    # the paper scheme takes its parts as 3,3,q or 3,4,q, so no reordering
    for parts in CONSTRUCTED:
        path = "k{}.json".format("_".join(map(str, parts)))
        ops.append(cli_operation(["construct", "--parts", _arg(parts), "--out", path],
                                 _constructed_check(parts, path)))
        ops.append(cli_operation(["analyze", "--file", path, "--format", "json"],
                                 _json_check(_analysis_check)))
    for base in THRESHOLDS:  # refuted again with symmetry breaking off
        parts = listing(base, rng)
        ops.append(cli_operation(
            ["decide", "--no-symmetry", "--parts", _arg(parts)],
            _json_check(lambda doc, parts=parts: _expect(
                doc["verdict"] == "none", f"K{parts}: symmetry off says {doc['verdict']}"))))
    parts = listing(ORACLE_GRAPH, rng)
    ops.append(cli_operation(["brute-force", "--parts", _arg(parts)],
                             lambda out, parts=parts: _expect(
                                 out.strip() == str(ORACLE_DIAMETER),
                                 f"K{parts}: brute force gives {out.strip()!r}")))
    ops.append(cli_operation(["enumerate", "--parts", _arg(parts)],
                             _json_check(lambda doc, parts=parts: _expect(
                                 doc["count"] == 0, f"K{parts}: {doc['count']} diameter-2 orientations"))))
    return ops


WORKLOADS = {
    "refute": refute_operations,
    "witness": witness_operations,
    "crosscheck": crosscheck_operations,
}


def operations(workload: str, seed: int) -> list[Operation]:
    return WORKLOADS[workload](random.Random(seed))
