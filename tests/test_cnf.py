"""The DIMACS encoding: well-formedness, counts, and semantic fidelity.

The semantic oracle enumerates every edge-variable assignment, derives the
auxiliary variables from their defining clauses (a two-step variable is the
conjunction of its arcs, a prefix variable the running equality of two
rows), and evaluates the full clause set.  On instances this small that is
an exact model count.
"""

from __future__ import annotations

import os

import pytest

import orientdiam as od
from orientdiam.cnf import (
    BadOutPath, _add_lex_leq, _path_count, decode_model, encode_diameter2, export_cnf)


def parse_dimacs(path):
    n_vars = n_clauses = None
    clauses = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p cnf"):
                _, _, v, c = line.split()
                n_vars, n_clauses = int(v), int(c)
                continue
            lits = [int(tok) for tok in line.split()]
            assert lits[-1] == 0
            clauses.append(tuple(lits[:-1]))
    return n_vars, n_clauses, clauses


def expected_counts(parts):
    """Recompute the advertised variable/clause counts from first principles."""
    topo = od.make_complete_multipartite(parts)
    n = topo.n_vertices
    edge_vars = topo.n_edges
    aux = 0
    cover_clauses = 0
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            witnesses = sum(
                1
                for w in range(n)
                if topo.part_of[w] not in (topo.part_of[u], topo.part_of[v])
            )
            aux += witnesses
            cover_clauses += 1
    sizes = topo.parts
    big = max(range(len(sizes)), key=lambda i: (sizes[i], i))
    k = n - sizes[big]
    pairs = sizes[big] - 1
    if k == 0:
        lex_vars = lex_clauses = 0
    elif k == 1:
        lex_vars, lex_clauses = 0, pairs
    else:
        lex_vars = pairs * (k - 1)
        lex_clauses = pairs * (6 * k - 6)
    variables = edge_vars + aux + lex_vars
    clauses = 3 * aux + cover_clauses + lex_clauses
    return variables, clauses, edge_vars, aux, lex_vars


class TestCounts:
    def test_k337_edge_variables(self):
        _, stats = encode_diameter2((3, 3, 7))
        assert stats.edge_variables == 51

    # (5,) and (1, 4) order rows of no column and of one column
    @pytest.mark.parametrize("parts", [(1, 1, 1), (2, 2, 2), (3, 3, 7), (3, 4, 12), (5,), (1, 4)])
    def test_stats_match_independent_count(self, parts, tmp_path):
        path = tmp_path / "instance.cnf"
        stats = export_cnf(parts, path)
        v, c, edge_vars, aux, lex_vars = expected_counts(parts)
        assert stats.variables == v
        assert stats.clauses == c
        assert stats.edge_variables == edge_vars
        assert stats.path_variables == aux
        assert stats.lex_variables == lex_vars

    # the clause cap reads this count before anything is built
    @pytest.mark.parametrize("parts", [(5,), (2, 3), (1, 2, 3, 4), (3, 7, 70), (30, 30, 30)])
    def test_path_count_matches_independent_count(self, parts):
        assert _path_count(od.make_complete_multipartite(parts)) == expected_counts(parts)[3]

    @pytest.mark.parametrize("parts", [(1, 1, 1), (3, 3, 7), (3, 4, 12)])
    def test_dimacs_well_formed(self, parts, tmp_path):
        path = tmp_path / "instance.cnf"
        stats = export_cnf(parts, path)
        n_vars, n_clauses, clauses = parse_dimacs(path)
        assert n_vars == stats.variables
        assert n_clauses == stats.clauses == len(clauses)
        assert all(0 < abs(l) <= n_vars for cl in clauses for l in cl)


class TestLexOrder:
    # sign -1 negates every row literal, as arc_lit does for arcs high -> low
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", range(5))
    def test_clauses_mean_lex_order(self, k, sign):
        row_a = [sign * v for v in range(1, k + 1)]
        row_b = [sign * v for v in range(k + 1, 2 * k + 1)]
        clauses = []
        n_vars = _add_lex_leq(clauses, 2 * k, row_a, row_b)

        def value(lit, bits):
            return (bits >> abs(lit) - 1 & 1) == (lit > 0)

        # the row assignments that some assignment of the prefix variables satisfies
        satisfiable = {bits & (1 << 2 * k) - 1 for bits in range(1 << n_vars)
                       if all(any(value(l, bits) for l in cl) for cl in clauses)}
        # lists of bools compare lexicographically, true above false
        assert satisfiable == {rows for rows in range(1 << 2 * k)
                               if [value(l, rows) for l in row_a] <= [value(l, rows) for l in row_b]}


def derived_models(parts):
    """Yield (true_var_set, satisfied) over all edge assignments."""
    clauses, stats = encode_diameter2(parts)
    n_edges = stats.edge_variables
    defining = [cl for cl in clauses]
    for bits in range(1 << n_edges):
        assign = {}
        for var in range(1, n_edges + 1):
            assign[var] = bool((bits >> (var - 1)) & 1)
        # derive auxiliaries by unit-propagating their definitions in order:
        # every non-edge variable is defined from strictly earlier variables
        changed = True
        while changed:
            changed = False
            for cl in defining:
                unknown = [l for l in cl if abs(l) not in assign]
                if len(unknown) != 1:
                    continue
                if any(assign.get(abs(l)) == (l > 0) for l in cl if abs(l) in assign):
                    continue
                lit = unknown[0]
                assign[abs(lit)] = lit > 0
                changed = True
        if len(assign) < stats.variables:
            # leftover variables are unconstrained either way; default false
            for var in range(1, stats.variables + 1):
                assign.setdefault(var, False)
        ok = all(any(assign[abs(l)] == (l > 0) for l in cl) for cl in clauses)
        yield {v for v, t in assign.items() if t}, ok


class TestSemantics:
    def test_k3_satisfiable_and_decodes_to_cycles(self):
        sat_models = [tv for tv, ok in derived_models((1, 1, 1)) if ok]
        assert sat_models
        for true_vars in sat_models:
            D = decode_model((1, 1, 1), true_vars)
            assert od.diameter(D) == 2

    def test_small_instances_agree_with_decision_procedure(self):
        for parts in ((1, 1, 1), (2, 2), (1, 1, 2), (2, 2, 2), (3, 3)):
            satisfiable = any(ok for _, ok in derived_models(parts))
            verdict = od.decide_diameter2(parts).verdict
            assert satisfiable == (verdict is od.Verdict.EXISTS), parts

    def test_satisfying_models_decode_to_diameter_two(self):
        for true_vars, ok in derived_models((2, 2, 2)):
            if ok:
                D = decode_model((2, 2, 2), true_vars)
                assert od.diameter(D) == 2

    def test_decode_reads_true_as_low_to_high(self):
        parts = (1, 1, 2)
        edges = od.make_complete_multipartite(parts).edges()
        aux = range(len(edges) + 1, encode_diameter2(parts)[1].variables + 1)
        for code in range(1 << len(edges)):
            true_vars = {i + 1 for i in range(len(edges)) if code >> i & 1}
            expected = sorted((u, v) if i + 1 in true_vars else (v, u)
                              for i, (u, v) in enumerate(edges))
            assert decode_model(parts, true_vars).arcs() == expected
            # auxiliary and unknown ids are ignored
            assert decode_model(parts, [*true_vars, *aux, 0, 10**6]).arcs() == expected

    def test_export_matches_encoded_clauses(self, tmp_path):
        # the frozen encodings' shapes and K(3,3,7): the empty clauses of (5,),
        # one-column lex rows, and 13-, 15- and 16-literal lex clauses of
        # (3,4,12), so every clause length the writer keeps a template for
        path = tmp_path / "x.cnf"
        for parts in (5,), (1, 4), (2, 2, 2), (1, 2, 3, 4), (3, 4, 12), (3, 3, 7):
            export_cnf(parts, path)
            _, _, clauses = parse_dimacs(path)
            encoded = encode_diameter2(parts)[0]
            assert clauses == [tuple(cl) for cl in encoded], parts
            # byte for byte, against a formatter that writes each literal by str()
            body = path.read_text(encoding="utf-8").split("\n", 4)[4]
            assert body == "".join(" ".join(map(str, cl)) + " 0\n" for cl in encoded), parts

    def test_one_shot_parts_write_the_same_file(self, tmp_path):
        # the header used to re-read the parts, after the encoder had used
        # them up, and named the graph K()
        listed, iterated = tmp_path / "listed.cnf", tmp_path / "iterated.cnf"
        export_cnf([2, 2, 3], listed)
        export_cnf(iter([2, 2, 3]), iterated)
        assert listed.read_text().startswith("c diameter-2 orientation of K(2, 2, 3)\n")
        assert iterated.read_bytes() == listed.read_bytes()

    @pytest.mark.parametrize("out_path", [None, 1, True, 5], ids=repr)
    def test_export_refuses_what_is_not_a_path(self, out_path):
        # open() takes an int as a file descriptor: 1 and True used to write
        # the file to stdout and close it, and None raised a bare TypeError
        saved = os.dup(1)
        try:
            with pytest.raises(BadOutPath, match=f"os.PathLike path, got {out_path!r}$"):
                export_cnf((2, 2), out_path)
            os.fstat(1)  # stdout is still open
        finally:
            os.dup2(saved, 1)
            os.close(saved)


def dpll(n_vars, clauses):
    """Minimal complete solver (unit propagation + chronological backtracking).

    Test-local oracle only; slow but sound and complete, which is all the
    cross-check needs.
    """
    from collections import defaultdict

    occur = defaultdict(list)
    for ci, cl in enumerate(clauses):
        for lit in cl:
            occur[lit].append(ci)
    assign: dict[int, bool] = {}
    trail: list[int] = []

    def propagate(queue):
        while queue:
            lit = queue.pop()
            var, val = abs(lit), lit > 0
            seen = assign.get(var)
            if seen is not None:
                if seen != val:
                    return False
                continue
            assign[var] = val
            trail.append(var)
            for ci in occur[-lit]:
                unassigned = None
                satisfied = False
                for l in clauses[ci]:
                    v = assign.get(abs(l))
                    if v is None:
                        if unassigned is None:
                            unassigned = l
                        else:
                            unassigned = Ellipsis  # at least two open literals
                    elif v == (l > 0):
                        satisfied = True
                        break
                if satisfied or unassigned is Ellipsis:
                    continue
                if unassigned is None:
                    return False
                queue.append(unassigned)
        return True

    def search():
        var = next((v for v in range(1, n_vars + 1) if v not in assign), None)
        if var is None:
            return True
        for val in (True, False):
            mark = len(trail)
            if propagate([var if val else -var]) and search():
                return True
            while len(trail) > mark:
                assign.pop(trail.pop())
        return False

    units = [cl[0] for cl in clauses if len(cl) == 1]
    if not propagate(units):
        return False
    return search()


class TestRefutationCrossCheck:
    def test_k337_unsat_by_independent_solver(self):
        # the refutation reproduced through a second, unrelated procedure
        clauses, stats = encode_diameter2((3, 3, 7))
        assert dpll(stats.variables, clauses) is False
        assert od.decide_diameter2((3, 3, 7)).verdict is od.Verdict.NONE

    def test_k336_sat_by_independent_solver(self):
        clauses, stats = encode_diameter2((3, 3, 6))
        assert dpll(stats.variables, clauses) is True
