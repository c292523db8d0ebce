"""Run the benchmark over several seeds and write one trajectory point.

    python3 bench/record.py --seeds 1-10 --out bench/BENCH_1.json

For each workload it makes one untraced run per seed and one traced run
(first seed), each as `bench/run.py` would be run on its own, and records
every run's result, the median and quartiles of each end-to-end metric,
their spread (interquartile range over median) and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["seed"] = seed
    # the raw wall and set-up times and the probe time are printed, not in the JSON
    printed = dict(line.split(" = ", 1) for line in lines[:-1] if " = " in line)
    result["raw"] = {name: float(printed[name].split()[0])
                     for name in ("wall_s", "setup_raw_s", "probe_s")}
    return result


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = run.load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    point = {"environment": run.environment(), "run_seconds": seconds,
             "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        stats = {m["name"]: {**summary([r["metrics"][m["name"]]["value"] for r in runs]),
                             "unit": m["unit"], "bound": m["bound"]}
                 for m in spec["end_to_end"]}
        stats.update({f"raw.{name}": {**summary([r["raw"][name] for r in runs]), "unit": "s"}
                      for name in ("wall_s", "setup_raw_s", "probe_s")})
        for name, s in stats.items():
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.3f} (bound {s.get('bound', '-')})", flush=True)
        point["workloads"][workload] = {
            "end_to_end": stats,
            "runs": runs,
            "traced": run_once(workload, seeds[0], seconds, 1),
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
