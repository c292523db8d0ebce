#!/usr/bin/env python3
"""Reproduce the full classification tables end to end.

Builds and measures every constructive case, refutes past the thresholds by
exhaustive search, and re-derives the baseline values by brute force.  Exit
code 0 means every claim checked out.
"""

import sys

from orientdiam.claims import verify_claims


def main() -> int:
    worst = 0
    for family in ("33q", "34q", "baselines"):
        report = verify_claims(family, cnf_dir=".")
        print(f"== {family} ==")
        print(report.to_text())
        for path in report.cnf_emitted:
            print(f"(emitted {path} for an external SAT solver)")
        worst = max(worst, report.exit_code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
