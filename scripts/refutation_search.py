#!/usr/bin/env python3
"""Run the exhaustive refutations with full statistics and emit CNFs.

K(3,3,7) and K(3,4,12) are the first sizes past the diameter-2 thresholds;
the search proves no diameter-2 orientation exists, and the DIMACS export
gives an independent route through any external SAT solver (both instances
should come back UNSAT).  Returns 1 unless both verdicts are None and each
covers every canonical case class.
"""

import sys

from orientdiam.analysis import canonical_case_classes
from orientdiam.cnf import export_cnf
from orientdiam.search import SearchConfig, decide_diameter2


def main() -> int:
    cfg = SearchConfig()
    ok = True
    for parts in ((3, 3, 7), (3, 4, 12)):
        outcome = decide_diameter2(parts, cfg)
        s = outcome.stats
        print(f"K{parts}: verdict={outcome.verdict.value}")
        print(f"  nodes={s.nodes} blocks={s.blocks_explored} max_depth={s.max_depth} "
              f"wall={s.wall_time:.3f}s")
        classes = canonical_case_classes(parts[1])
        print(f"  covers {len(s.cases_enumerated)} of {len(classes)} canonical cases")
        name = f"k{'_'.join(str(p) for p in parts)}.cnf"
        stats = export_cnf(parts, name)
        print(f"  wrote {name}: {stats.variables} vars, {stats.clauses} clauses")
        ok &= outcome.verdict.value == "none" and s.cases_enumerated == classes
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
