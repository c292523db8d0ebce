"""Claim tables: rebuild and re-measure every classification the toolkit covers.

Each claim row pins an expected oriented-diameter value and the method used
to observe it.  One family K(3,p,q) per p of paper_families().  Its claims
for q = p up to the last constructive q build the orientation and measure
diameter 2.  Past that, refutation claims run the exhaustive decision
procedure.  A None verdict observes the value 3 only when its
cases_enumerated lists every canonical case class of p (10 at p=3, 19 at
p=4); it then combines with the general upper bound (every complete
multipartite graph on three or more parts orients to diameter at most 3).
The baselines family re-derives small values by brute force.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from .analysis import canonical_case_classes
from .cnf import TooManyClauses, export_cnf
from .constructions import paper_families
from .graphcore import INFINITE, MAX_VERTICES, OrientdiamError, diameter, make_complete_multipartite
from .search import SearchConfig, Verdict, brute_force_min_diameter, decide_diameter2

# family -> p, for K(3, p, q)
_TABLES = {f"3{p}q": p for p in paper_families()}

_BASELINES = (
    ("K4", (1, 1, 1, 1), 3),
    ("K5", (1, 1, 1, 1, 1), 2),
    ("K(2,2)", (2, 2), 3),
    ("K(2,3)", (2, 3), 4),
)

FAMILIES = (*_TABLES, "baselines")


class BadFamily(OrientdiamError):
    pass


class BadRange(OrientdiamError):
    pass


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    family: str
    q: int | None
    expected: int
    method: str  # construct | search | brute-force
    observed: int | None
    passed: bool
    unknown: bool
    wall_time: float

    def to_json_dict(self) -> dict:
        return {**asdict(self), "wall_time": round(self.wall_time, 3)}


@dataclass(frozen=True)
class ClaimReport:
    records: tuple[ClaimRecord, ...]
    cnf_emitted: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        # definite failures dominate; Unknown maps to the budget exit code
        if any(not r.passed and not r.unknown for r in self.records):
            return 1
        if any(r.unknown for r in self.records):
            return 3
        return 0

    def to_json(self) -> str:
        doc = {
            "claims": [r.to_json_dict() for r in self.records],
            "cnf_emitted": list(self.cnf_emitted),
            "exit_code": self.exit_code,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        headers = ("claim", "q", "expected", "observed", "method", "result", "time")
        rows = []
        for r in self.records:
            observed = "?" if r.observed is None else str(r.observed)
            result = "PASS" if r.passed else ("UNKNOWN" if r.unknown else "FAIL")
            rows.append(
                (r.claim_id, "-" if r.q is None else str(r.q), str(r.expected),
                 observed, r.method, result, f"{r.wall_time:.2f}s")
            )
        widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        out.append("  ".join("-" * w for w in widths))
        for row in rows:
            out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(out) + "\n"


def _claim(claim_id, family, q, expected, method, observe) -> ClaimRecord:
    """Time observe(), which returns (observed, unknown), and record it."""
    t0 = time.monotonic()
    observed, unknown = observe()
    return ClaimRecord(claim_id, family, q, expected, method, observed,
                       observed == expected, unknown, time.monotonic() - t0)


def _measured(d):
    """A measured distance as an observation; an infinite one observes nothing."""
    return (None if d == INFINITE else int(d)), False


def _refute(p, q, cfg, cnf_dir, emitted):
    """Observe f(K(3,p,q)) through decide_diameter2; an Unknown emits its CNF."""
    parts = (3, p, q)
    outcome = decide_diameter2(parts, cfg)
    if outcome.verdict is Verdict.EXISTS:
        return 2, False
    if outcome.verdict is Verdict.NONE:
        # a refutation proves 3 only if it went through every case class
        covered = outcome.stats.cases_enumerated == canonical_case_classes(p)
        return (3 if covered else None), False
    if cnf_dir is not None:
        path = f"{cnf_dir}/k{'_'.join(str(s) for s in parts)}.cnf"
        try:
            export_cnf(parts, path)  # the cap is checked before anything is built
        except TooManyClauses:
            return None, True
        emitted.append(path)
    return None, True


def verify_claims(family: str, q_range=None, cfg: SearchConfig | None = None,
                  cnf_dir: str | None = None) -> ClaimReport:
    """Run one claim family and return the report.

    For a K(3,p,q) family, q_range (default p up to one past the family's
    last constructive q) is clamped below at p, and refused before any row
    runs if K(3,p,hi) would pass graphcore.MAX_VERTICES; the baselines
    family takes no q_range.  A refutation that ends Unknown is reported as
    unknown and, when cnf_dir is given, its DIMACS instance is written there
    for an external solver, unless it would exceed cnf.MAX_CNF_CLAUSES.
    """
    if family not in FAMILIES:
        raise BadFamily(f"family must be one of {FAMILIES}, got {family!r}")
    if family == "baselines":
        if q_range is not None:
            # the baselines have no q, so a range would be ignored and pass vacuously
            raise BadRange(f"family {family} has no q, so q range {q_range[0]}..{q_range[1]}"
                           " selects no claims")
        return ClaimReport(tuple(
            _claim(f"baseline-{name}", family, None, expected, "brute-force",
                   lambda: _measured(brute_force_min_diameter(make_complete_multipartite(parts))))
            for name, parts, expected in _BASELINES
        ))
    if cfg is None:
        cfg = SearchConfig()
    p = _TABLES[family]
    last_built, builder = paper_families()[p]
    lo, hi = q_range if q_range is not None else (p, last_built + 1)
    lo = max(lo, p)  # the classification starts at q = p
    if lo > hi:
        # an empty table would pass vacuously
        raise BadRange(f"q range {lo}..{hi} of family {family} selects no claims")
    if 3 + p + hi > MAX_VERTICES:
        raise BadRange(f"q range {lo}..{hi} of family {family} reaches K(3,{p},{hi}) with"
                       f" {3 + p + hi} vertices, past the cap of {MAX_VERTICES} vertices")
    records = []
    emitted: list[str] = []
    for q in range(lo, hi + 1):
        claim_id = f"{family}-q{q}"
        if q <= last_built:
            record = _claim(claim_id, family, q, 2, "construct",
                            lambda: _measured(diameter(builder(q)[0])))
        else:
            record = _claim(claim_id, family, q, 3, "search",
                            lambda: _refute(p, q, cfg, cnf_dir, emitted))
        records.append(record)
    return ClaimReport(tuple(records), tuple(emitted))
