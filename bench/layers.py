"""Spans around the layer entry points of orientdiam, installed from outside.

Nothing under src/ knows about this module.  A layer is a set of functions
(module, attribute); installing it rebinds every orientdiam module global
that holds one of those functions to a wrapper that opens a span, so calls
made through `from .x import f` bindings are seen too.  Spans nest: a
layer's `.s` is its inclusive time and its `.self_s` that time minus the
spans opened inside it.  A target that no longer exists leaves its layer
"unmeasured": it is reported by name with no value, never as 0.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "orientdiam"


def _resolve(target):
    module_name, attr = target.rsplit(".", 1)
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    return getattr(module, attr, None)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Patches:
    """Rebinds module globals and puts every original back on restore()."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, original, replacement):
        for module in _package_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)

    def set(self, module, name, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def restore(self):
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


class NodeTap:
    """Sums SearchStats.nodes over every decide_diameter2 call, however reached.

    Installed in untraced runs too: it costs one call per decision.
    """

    def __init__(self):
        self.nodes = 0

    @contextmanager
    def installed(self):
        original = _resolve("search.decide_diameter2")

        def tapped(*args, **kwargs):
            outcome = original(*args, **kwargs)
            self.nodes += outcome.stats.nodes
            return outcome

        patches = Patches()
        patches.replace_everywhere(original, tapped)
        try:
            yield self
        finally:
            patches.restore()


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.children = defaultdict(float)
        self.counts = defaultdict(int)
        self.stack = []
        self.decide_mismatches = []
        self.unmeasured = {}

    def span(self, layer, fn, before=None, after=None):
        """Wrap fn in a span named layer; a call already inside it is not re-counted."""
        stack = self.stack

        def hook(h, *args):
            try:
                return h(*args)
            except (AttributeError, IndexError, KeyError, TypeError) as exc:
                # the wrapped function changed shape; its numbers would be wrong
                self.unmeasured[layer] = f"{fn.__qualname__}: {type(exc).__name__}: {exc}"

        def wrapper(*args, **kwargs):
            if layer in stack:
                return fn(*args, **kwargs)
            state = hook(before, args, kwargs) if before else None
            stack.append(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.inclusive[layer] += dt
                if stack:
                    self.children[stack[-1]] += dt
            if after:
                hook(after, state, args, kwargs, result)
            return result

        return wrapper

    def self_time(self, layer):
        return self.inclusive[layer] - self.children[layer]

    @contextmanager
    def installed(self):
        patches = Patches()
        try:
            for layer, targets, before, after in self._layers():
                for target in targets:
                    fn = _resolve(target)
                    if fn is None:
                        self.unmeasured[layer] = f"{PACKAGE}.{target}"
                        continue
                    patches.replace_everywhere(fn, self.span(layer, fn, before, after))
            self._install_revalidation(patches)
            yield self
        finally:
            patches.restore()

    def _install_revalidation(self, patches):
        # decide re-validates its witness with graphcore.diameter; attribute
        # that call to the witness layer, with the diameter span nested inside
        search = importlib.import_module(f"{PACKAGE}.search")
        measured = getattr(search, "diameter", None)
        if measured is not None and "search.witness" not in self.unmeasured:
            patches.set(search, "diameter", self.span("search.witness", measured))

    def _layers(self):
        c = self.counts

        def decide_before(args, kwargs):
            return c["search.kernel.nodes"]

        def decide_after(kernel_before, args, kwargs, outcome):
            if "search.kernel" in self.unmeasured:
                return
            stats = outcome.stats
            delta = c["search.kernel.nodes"] - kernel_before
            if delta + stats.blocks_explored != stats.nodes:
                self.decide_mismatches.append(
                    f"{args[0]}: kernel nodes {delta} + blocks {stats.blocks_explored}"
                    f" != SearchStats.nodes {stats.nodes}")

        def orbits_after(state, args, kwargs, reps):
            c["search.orbits.codes"] += 1 << len(args[1])
            c["search.orbits.reps"] += len(reps)

        def frames_after(state, args, kwargs, frame):
            c["search.frames.count"] += 1
            c["search.frames.profiles"] += len(frame.profiles)
            c["search.frames.cover_pairs"] += len(frame.cover_pairs)

        def kernel_before(args, kwargs):
            return args[2].nodes

        def kernel_after(nodes_before, args, kwargs, chosen):
            frame, q, budget = args[:3]
            c["search.kernel.nodes"] += budget.nodes - nodes_before
            if len(frame.profiles) < q:
                reason = "too_few_profiles"
            elif not frame.feasible:
                reason = "cover_unreachable"
            elif chosen is None:
                reason = "kernel_exhausted"
            else:
                reason = "found"
            c[f"search.blocks.{reason}"] += 1

        def counter(name):
            def after(state, args, kwargs, result):
                c[name] += 1
            return after

        def export_after(state, args, kwargs, stats):
            c["cnf.variables"] += stats.variables
            c["cnf.clauses"] += stats.clauses
            c["cnf.bytes"] += os.path.getsize(args[1])

        return (
            ("search.decide", ["search.decide_diameter2"], decide_before, decide_after),
            ("search.orbits", ["search._block_representatives"], None, orbits_after),
            ("search.frames", ["search._BlockFrame"], None, frames_after),
            ("search.kernel", ["search._antichain_cover"], kernel_before, kernel_after),
            ("search.witness", ["search._assemble_witness"], None, counter("search.witness.count")),
            ("search.oracle", ["search.brute_force_min_diameter", "search.enumerate_diameter2"],
             None, counter("search.oracle.calls")),
            ("search.oracle.bfs", ["search._diameter_below"], None, counter("search.oracle.bfs_calls")),
            ("graphcore.diameter", ["graphcore.diameter"], None, counter("graphcore.diameter.calls")),
            ("cnf.encode", ["cnf.encode_diameter2"], None, None),
            ("cnf.write", ["cnf.export_cnf"], None, export_after),
            ("constructions", [f"constructions.{f}" for f in (
                "build_33q", "build_34q", "construct_33q", "construct_34q",
                "middle_layer_bipartite", "complete_graph_orientation")], None, None),
            ("analysis", [f"analysis.{f}" for f in (
                "sign_partition", "sign_condition_violations", "case_signature",
                "out_neighborhood_family", "max_antichain")], None, None),
            ("claims", ["claims.verify_claims"], None, None),
            ("cli", ["cli.main"], None, None),
        )

    # The layers whose times add up to decide time; all are spans opened
    # directly inside decide_diameter2.
    DECIDE_PARTS = ("search.orbits", "search.frames", "search.kernel", "search.witness")

    def metrics(self):
        """Per-layer values of this pass; a metric of an unmeasured layer is None."""
        c, inc = self.counts, self.inclusive
        kernel_s = inc["search.kernel"]
        rows = (
            ("search.orbits.s", "search.orbits", inc["search.orbits"]),
            ("search.orbits.codes", "search.orbits", c["search.orbits.codes"]),
            ("search.orbits.reps", "search.orbits", c["search.orbits.reps"]),
            ("search.frames.s", "search.frames", inc["search.frames"]),
            ("search.frames.count", "search.frames", c["search.frames.count"]),
            ("search.frames.profiles", "search.frames", c["search.frames.profiles"]),
            ("search.frames.cover_pairs", "search.frames", c["search.frames.cover_pairs"]),
            ("search.blocks.too_few_profiles", "search.kernel", c["search.blocks.too_few_profiles"]),
            ("search.blocks.cover_unreachable", "search.kernel", c["search.blocks.cover_unreachable"]),
            ("search.blocks.kernel_exhausted", "search.kernel", c["search.blocks.kernel_exhausted"]),
            ("search.blocks.found", "search.kernel", c["search.blocks.found"]),
            ("search.kernel.s", "search.kernel", kernel_s),
            ("search.kernel.nodes", "search.kernel", c["search.kernel.nodes"]),
            ("search.kernel.nodes_per_s", "search.kernel",
             c["search.kernel.nodes"] / kernel_s if kernel_s else 0.0),
            ("search.witness.s", "search.witness", inc["search.witness"]),
            ("search.witness.count", "search.witness", c["search.witness.count"]),
            ("search.decide.s", "search.decide", inc["search.decide"]),
            ("search.decide.other_s", "search.decide", self.self_time("search.decide")),
            ("search.oracle.s", "search.oracle", inc["search.oracle"]),
            ("search.oracle.calls", "search.oracle", c["search.oracle.calls"]),
            ("search.oracle.bfs_s", "search.oracle.bfs", inc["search.oracle.bfs"]),
            ("search.oracle.bfs_calls", "search.oracle.bfs", c["search.oracle.bfs_calls"]),
            ("graphcore.diameter.s", "graphcore.diameter", inc["graphcore.diameter"]),
            ("graphcore.diameter.calls", "graphcore.diameter", c["graphcore.diameter.calls"]),
            ("cnf.encode.s", "cnf.encode", inc["cnf.encode"]),
            ("cnf.write.s", "cnf.write", self.self_time("cnf.write")),
            ("cnf.variables", "cnf.write", c["cnf.variables"]),
            ("cnf.clauses", "cnf.write", c["cnf.clauses"]),
            ("cnf.bytes", "cnf.write", c["cnf.bytes"]),
            ("constructions.s", "constructions", inc["constructions"]),
            ("analysis.s", "analysis", inc["analysis"]),
            ("claims.self_s", "claims", self.self_time("claims")),
            ("cli.self_s", "cli", self.self_time("cli")),
        )
        return {name: None if layer in self.unmeasured else value for name, layer, value in rows}

    def reconcile(self):
        """Problems with this pass's spans, as messages; empty when they add up."""
        problems = list(self.decide_mismatches)
        parts = sum(self.inclusive[layer] for layer in self.DECIDE_PARTS)
        inside = self.children["search.decide"]
        if abs(parts - inside) > 1e-6 * max(1.0, inside):
            problems.append(f"orbits+frames+kernel+witness took {parts:.6f} s but the spans"
                            f" directly inside decide took {inside:.6f} s")
        return problems
