"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from orientdiam import Verdict  # noqa: E402

SPEC = run.load_spec()


def bench(workload, seed, trace, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return done


@pytest.fixture(scope="module")
def crosscheck_runs():
    return [bench("crosscheck", 5, trace) for trace in (0, 0, 1)]


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json(crosscheck_runs):
    untraced, _, traced = (last_json(d) for d in crosscheck_runs)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_correct_run_reports_no_failures(crosscheck_runs):
    for result in map(last_json, crosscheck_runs):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_two_runs_give_identical_search_nodes(crosscheck_runs):
    first, second = (last_json(d)["metrics"]["search_nodes"]["value"] for d in crosscheck_runs[:2])
    assert first == second > 0


def test_tracer_covers_every_per_layer_metric():
    derived = {"host.wall_s", "host.probe_s", "trace.overhead_ratio", "failed_ratio"}
    assert set(layers.Tracer().metrics()) | derived == {m["name"] for m in SPEC["per_layer"]}


def test_wrong_expectation_counts_as_failure():
    ops = [workloads.decide_operation((3, 3, 7), Verdict.EXISTS),
           workloads.decide_operation((3, 3, 6), Verdict.EXISTS)]
    done = run.run_pass(ops, traced=False)
    assert done.attempted == 2 and done.normalised > 0 and done.probe > 0
    assert len(done.failures) == 1 and "expected exists" in done.failures[0]


def test_traced_pass_reconciles_with_search_stats():
    ops = [workloads.decide_operation((3, 4, 12), Verdict.NONE),
           workloads.decide_operation((3, 4, 11), Verdict.EXISTS)]
    done = run.run_pass(ops, traced=True)
    assert done.failures == [] and done.normalised is None  # no probe time in spans
    m = done.layers
    assert m["search.kernel.nodes"] + m["search.frames.count"] == done.nodes
    blocks = sum(m[f"search.blocks.{r}"] for r in
                 ("too_few_profiles", "cover_unreachable", "kernel_exhausted", "found"))
    assert blocks == m["search.frames.count"] and m["search.blocks.found"] == 1
    parts = sum(m[f"search.{l}.s"] for l in ("orbits", "frames", "kernel", "witness"))
    assert parts + m["search.decide.other_s"] == pytest.approx(m["search.decide.s"])


def test_missing_layer_is_unmeasured_not_zero(monkeypatch):
    resolve = layers._resolve
    monkeypatch.setattr(layers, "_resolve",
                        lambda t: None if t == "search._antichain_cover" else resolve(t))
    ops = [workloads.decide_operation((3, 4, 12), Verdict.NONE)]
    traced = run.run_pass(ops, traced=True)
    assert traced.failures == []
    assert traced.unmeasured == {"search.kernel": "orientdiam.search._antichain_cover"}
    assert traced.layers["search.kernel.s"] is None
    assert traced.layers["search.blocks.found"] is None
    assert traced.layers["search.frames.count"] > 0
    assert run.run_pass(ops, traced=False).failures == []


def test_seed_reorders_parts_without_changing_them():
    listings = {tuple(op.name for op in workloads.operations("refute", seed)) for seed in range(8)}
    assert len(listings) > 1
    rng = random.Random(0)
    for parts in workloads.REFUTE + workloads.WITNESS:
        listed = workloads.listing(parts, rng)
        assert sorted(listed) == sorted(parts)
        smaller = [p for p in listed if p != max(parts)]
        assert smaller == sorted(smaller)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("refute", 1, 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
