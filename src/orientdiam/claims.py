"""Claim tables: rebuild and re-measure every classification the toolkit covers.

Each claim row pins an expected oriented-diameter value and the method used
to observe it.  Constructive rows build the orientation and measure its
diameter; refutation rows run the exhaustive decision procedure and combine
a None verdict with the general upper bound (every complete multipartite
graph on three or more parts orients to diameter at most 3) to conclude the
value is exactly 3.  A formula-unverified method exists for reporting
untested formula values and never counts as a pass.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .constructions import construct_33q, construct_34q
from .graphcore import INFINITE, diameter, make_complete_multipartite
from .search import SearchConfig, Verdict, brute_force_min_diameter, decide_diameter2
from .cnf import export_cnf

FAMILIES = ("33q", "34q", "baselines")

_DEFAULT_RANGES = {"33q": (3, 7), "34q": (4, 12)}
_CONSTRUCTIVE = {"33q": (3, 6, construct_33q), "34q": (4, 11, construct_34q)}
_THRESHOLD_EXPECTED = {"33q": 3, "34q": 3}

_BASELINES = (
    ("K4", (1, 1, 1, 1), 3),
    ("K5", (1, 1, 1, 1, 1), 2),
    ("K(2,2)", (2, 2), 3),
    ("K(2,3)", (2, 3), 4),
)


class BadFamily(ValueError):
    pass


class BadRange(ValueError):
    pass


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    family: str
    q: int | None
    expected: int
    method: str  # construct | search | brute-force | formula-unverified
    observed: int | None
    passed: bool
    unknown: bool
    wall_time: float

    def __post_init__(self):
        # an unverified formula may be reported but can never count as a pass
        if self.method == "formula-unverified" and self.passed:
            raise ValueError("formula-unverified claims cannot pass")

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "family": self.family,
            "q": self.q,
            "expected": self.expected,
            "method": self.method,
            "observed": self.observed,
            "passed": self.passed,
            "unknown": self.unknown,
            "wall_time": round(self.wall_time, 3),
        }


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


def _constructive_claim(family: str, q: int, builder) -> ClaimRecord:
    t0 = time.monotonic()
    D = builder(q)
    observed = diameter(D)
    observed = None if observed == INFINITE else int(observed)
    return ClaimRecord(
        claim_id=f"{family}-q{q}",
        family=family,
        q=q,
        expected=2,
        method="construct",
        observed=observed,
        passed=observed == 2,
        unknown=False,
        wall_time=time.monotonic() - t0,
    )


def _search_claim(family: str, parts, q: int, expected: int, cfg, cnf_dir):
    t0 = time.monotonic()
    outcome = decide_diameter2(parts, cfg)
    emitted = None
    if outcome.verdict is Verdict.EXISTS:
        observed, unknown = 2, False
    elif outcome.verdict is Verdict.NONE:
        # no diameter-2 orientation + the <=3 upper bound for >=3 parts
        observed, unknown = 3, False
    else:
        observed, unknown = None, True
        if cnf_dir is not None:
            path = f"{cnf_dir}/k{'_'.join(str(p) for p in parts)}.cnf"
            export_cnf(parts, path)
            emitted = path
    record = ClaimRecord(
        claim_id=f"{family}-q{q}",
        family=family,
        q=q,
        expected=expected,
        method="search",
        observed=observed,
        passed=observed == expected,
        unknown=unknown,
        wall_time=time.monotonic() - t0,
    )
    return record, emitted


def verify_claims(family: str, q_range=None, cfg: SearchConfig | None = None,
                  cnf_dir: str | None = None) -> ClaimReport:
    """Run one claim family and return the report.

    For 33q/34q the constructive range is built and measured; values past it
    go through decide_diameter2, where an Unknown verdict is reported as
    unknown and, when cnf_dir is given, its DIMACS instance is written there
    for an external solver.
    """
    if family not in FAMILIES:
        raise BadFamily(f"family must be one of {FAMILIES}, got {family!r}")
    if cfg is None:
        cfg = SearchConfig()
    records = []
    emitted = []
    if family == "baselines":
        for name, parts, expected in _BASELINES:
            t0 = time.monotonic()
            f_value = brute_force_min_diameter(make_complete_multipartite(parts))
            observed = None if f_value == INFINITE else int(f_value)
            records.append(
                ClaimRecord(
                    claim_id=f"baseline-{name}",
                    family="baselines",
                    q=None,
                    expected=expected,
                    method="brute-force",
                    observed=observed,
                    passed=observed == expected,
                    unknown=False,
                    wall_time=time.monotonic() - t0,
                )
            )
        return ClaimReport(tuple(records))

    lo, hi = q_range if q_range is not None else _DEFAULT_RANGES[family]
    c_lo, c_hi, builder = _CONSTRUCTIVE[family]
    lo = max(lo, c_lo)  # the classification starts at the constructive range
    if lo > hi:
        # an empty table would pass vacuously
        raise BadRange(f"q range {lo}..{hi} of family {family} selects no claims")
    p_mid = 3 if family == "33q" else 4
    for q in range(lo, hi + 1):
        if c_lo <= q <= c_hi:
            records.append(_constructive_claim(family, q, builder))
        else:
            record, path = _search_claim(
                family, (3, p_mid, q), q, _THRESHOLD_EXPECTED[family], cfg, cnf_dir
            )
            records.append(record)
            if path:
                emitted.append(path)
    return ClaimReport(tuple(records), tuple(emitted))
