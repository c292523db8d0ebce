"""Command-line round trips, formats, and exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import orientdiam as od
from orientdiam import analysis, cli
from orientdiam.claims import FAMILIES
from orientdiam.cli import build_parser, main
from orientdiam.graphcore import MAX_VERTICES, GraphTopology, OrientdiamError
from orientdiam.search import SearchConfig, SearchError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstructAndDiameter:
    def test_construct_then_measure(self, capsys, tmp_path):
        path = tmp_path / "d10.json"
        code, _, _ = run(capsys, "construct", "--parts", "3,4,10", "--scheme", "paper",
                         "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "diameter", "--file", str(path))
        assert code == 0
        assert out.strip() == "2"

    def test_round_trip_is_byte_identical(self, capsys, tmp_path):
        path = tmp_path / "d6.json"
        run(capsys, "construct", "--parts", "3,3,6", "--out", str(path))
        original = path.read_bytes()
        doc = json.loads(original)
        D = od.graphcore.from_json_dict(doc)
        re_emitted = od.graphcore.dumps(D, completion_log=doc["completion_log"])
        assert re_emitted.encode() == original

    def test_construct_rejects_unknown_family(self, capsys):
        code, _, err = run(capsys, "construct", "--parts", "3,5,9")
        assert code == 2
        assert "error" in err

    def test_construct_dot(self, capsys):
        code, out, _ = run(capsys, "construct", "--parts", "3,3,4", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_middle_layer_scheme(self, capsys):
        code, out, _ = run(capsys, "construct", "--parts", "4,6", "--scheme", "middle-layer")
        assert code == 0
        assert json.loads(out)["parts"] == [4, 6]

    def test_tournament_scheme(self, capsys):
        code, out, _ = run(capsys, "construct", "--parts", "1,1,1,1,1", "--scheme", "tournament")
        assert code == 0
        assert len(json.loads(out)["arcs"]) == 10

    def test_missing_arc_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"parts":[1,1,1],"arcs":[[0,1],[1,2]]}')
        code, _, err = run(capsys, "diameter", "--file", str(path))
        assert code == 2
        assert "MissingEdge" in err

    def test_diameter_json(self, capsys, tmp_path):
        path = tmp_path / "d4.json"
        run(capsys, "construct", "--parts", "3,3,4", "--out", str(path))
        code, out, _ = run(capsys, "diameter", "--file", str(path), "--format", "json")
        assert code == 0
        assert out == '{"parts":[3,3,4],"diameter":2}\n'

    def test_tournament_dot_names_vertices(self, capsys):
        code, out, _ = run(capsys, "construct", "--parts", "1,1,1,1,1", "--scheme", "tournament",
                           "--format", "dot")
        assert code == 0
        assert "{ rank=same; p1v1; }" in out and "{ rank=same; p5v1; }" in out

    def test_malformed_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"parts": [1,1,')
        code, _, err = run(capsys, "diameter", "--file", str(path))
        assert code == 2
        assert "ParseError" in err and "line" in err


# Malformed files and arguments: each must exit 2 with an error line, never
# trace back (exit 1 means a failed claim) or be read as something else.
MALFORMED = [
    ("diameter", '{"parts":[1,1,1],"arcs":[[0,"a"]]}'),
    ("diameter", '{"parts":[1,1,1],"arcs":[[0,3,9]]}'),
    ("diameter", '{"parts":[1,1,1],"arcs":[[0,7],[1,2],[2,0]]}'),
    ("diameter", '{"parts":"ab","arcs":[]}'),
    ("diameter", '{"parts":[true,2],"arcs":[[0,1],[0,2]]}'),
    ("diameter", f'{{"parts":[{MAX_VERTICES + 1}],"arcs":[]}}'),
    pytest.param("diameter", b'{"parts":[1,1,1],"arcs":[]}\xff', id="diameter-not-utf8"),
    pytest.param("diameter", "[" * 100_000 + "]" * 100_000, id="diameter-deep-nesting"),
    pytest.param("diameter", '{"parts":[' + "9" * 5_000 + '],"arcs":[]}', id="diameter-long-int"),
    # the error line quotes a bounded prefix of the bad value, not all of it
    pytest.param("diameter", '{"parts":"' + "a" * 2_000_000 + '","arcs":[]}',
                 id="diameter-long-parts"),
    pytest.param("diameter", '{"parts":[1,1,1],"arcs":[[0,"' + "a" * 2_000_000 + '"]]}',
                 id="diameter-long-arc"),
    pytest.param("diameter", '{"parts":[1,1,1],"arcs":"' + "a" * 2_000_000 + '"}',
                 id="diameter-long-arcs"),
    ("analyze --anchor 7", None),
    ("analyze --anchor -1", None),
    ("enumerate --parts 1,1,1 --limit 0", ""),
    ("enumerate --parts 1,1,1 --limit -3", ""),
    ("decide --parts 3,,4", ""),
    ("brute-force --parts x", ""),
    ("construct --scheme middle-layer --parts 1,2,3", ""),
    ("construct --scheme tournament --parts 1,2", ""),
    pytest.param("diameter", '{"parts":[1,1]}', id="diameter-no-arcs"),
    # 8.4M edges, the first one missing: named without listing the edges
    pytest.param("diameter", json.dumps({"parts": [1] * MAX_VERTICES, "arcs": []}),
                 id="diameter-singletons-no-arcs"),
]


@pytest.mark.parametrize("command,text", MALFORMED)
def test_malformed_input_is_exit_2(capsys, tmp_path, command, text):
    # text is the --file contents, as text or bytes; None stands for a
    # K(3,3,3) construction, and "" for a command that reads no file
    argv = command.split()
    path = tmp_path / "input.json"
    if text is None:
        # every part has three vertices, so -1 would pass the size check
        run(capsys, "construct", "--parts", "3,3,3", "--out", str(path))
    elif isinstance(text, bytes):
        path.write_bytes(text)
    elif text:
        path.write_text(text)
    if text != "":
        argv += ["--file", str(path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert len(err.encode()) < 300


# int() alone would also read "1_0" as 10 and non-ASCII digits as ASCII ones
@pytest.mark.parametrize("argv", [
    ["decide", "--parts", "3,3,1_0"],
    ["decide", "--parts", "3,3,\u0661\u0660"],
    ["construct", "--parts", "3,3,\uff14"],
    ["verify-claims", "--family", "33q", "--q-range", "1_0..12"],
    ["verify-claims", "--family", "33q", "--q-range", "7..\u0667"],
    ["enumerate", "--parts", "1,1,1", "--limit", "1_0"],
    ["analyze", "--file", "x.json", "--anchor", "\u0660"],
    ["decide", "--parts", "3,3,3", "--budget-nodes", "\u0661\u0660"],
    ["decide", "--parts", "3,3,3", "--budget-seconds", "1_0"],
    ["decide", "--parts", "3,3,3", "--budget-seconds", "\u0661.5"],
])
def test_integers_are_ascii_digits(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: CliError:") and err.count("\n") == 1
    # argparse names a rejected value by its type; the helpers' names stay private
    assert not any("_int" in line or "_decimal" in line for line in err.splitlines())


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "--parts", "1,1,1", "--limit", "1_0"],
     "argument --limit: invalid integer value: '1_0'"),
    (["decide", "--parts", "3,3,3", "--budget-seconds", "x"],
     "argument --budget-seconds: invalid decimal value: 'x'"),
])
def test_rejected_value_names_its_type(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: CliError: {message}\n")


def test_integers_take_a_sign_and_surrounding_spaces(capsys):
    code, out, _ = run(capsys, "construct", "--parts", " 3, +3 ,4 ")
    assert code == 0
    assert json.loads(out)["parts"] == [3, 3, 4]


def test_vertex_cap_is_exit_2(capsys):
    code, _, err = run(capsys, "decide", "--parts", f"3,3,{MAX_VERTICES - 5}")
    assert code == 2
    assert err.startswith("error:")


# Each cap is checked against a count, before the edge list or any clause
# is built: K(2048,2048) has 4.2M edges, K(30,30,30) needs 964k clauses.
OVER_CAP = [
    "enumerate --parts 2048,2048",
    "brute-force --parts 2048,2048",
    "export-cnf --parts 30,30,30 --out {out}",
]


@pytest.mark.parametrize("command", OVER_CAP)
def test_size_cap_checked_before_building(capsys, monkeypatch, tmp_path, command):
    def built(*args):
        raise AssertionError("built before the cap check")

    monkeypatch.setattr(GraphTopology, "edges", built)
    out = tmp_path / "over.cnf"
    code, _, err = run(capsys, *command.format(out=out).split())
    assert code == 2
    assert err.startswith("error:")
    assert not out.exists()


# An oracle over its cap names the edge count and the cap, both in edges.
@pytest.mark.parametrize("command,message", [
    ("enumerate --parts 3,3,2", "error: TooManyEdges: 21 edges exceed the cap of 16 edges\n"),
    ("brute-force --parts 1,1,1,1,1,1,1",
     "error: TooManyEdges: 21 edges exceed the cap of 20 edges\n"),
])
def test_oracle_cap_message(capsys, command, message):
    code, out, err = run(capsys, *command.split())
    assert code == 2
    assert out == ""
    assert err == message


# middle-layer leaves the size check to the topology builder
def test_middle_layer_zero_part(capsys):
    code, out, err = run(capsys, "construct", "--scheme", "middle-layer", "--parts", "0,3")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: ZeroPart: all part sizes must be >= 1, got (0, 3)"]


# cli.main catches the root alone, so an error class outside it would trace back.
def test_every_error_class_has_the_root():
    defined = set()
    for info in pkgutil.iter_modules(od.__path__):
        module = importlib.import_module(f"orientdiam.{info.name}")
        defined |= {obj for obj in vars(module).values() if isinstance(obj, type)
                    and issubclass(obj, BaseException) and obj.__module__ == module.__name__}
    assert sorted(cls.__name__ for cls in defined if not issubclass(cls, OrientdiamError)) == []
    assert len(defined - {OrientdiamError}) == 28


def test_new_error_class_is_exit_2(capsys, monkeypatch):
    class Fresh(OrientdiamError):
        pass

    def refuse(*args):
        raise Fresh("refused")

    monkeypatch.setattr(cli, "decide_diameter2", refuse)
    assert run(capsys, "decide", "--parts", "3,3,3") == (2, "", "error: Fresh: refused\n")


def test_reused_parser_reaches_a_patched_function(capsys, monkeypatch):
    # main builds its parser once; the subcommands look up what they call
    # at call time, so a patch made after an earlier run still takes effect
    assert run(capsys, "decide", "--parts", "3,3,3")[0] == 0
    parser = build_parser()

    def refuse(*args):
        raise SearchError("patched")

    monkeypatch.setattr(cli, "decide_diameter2", refuse)
    assert run(capsys, "decide", "--parts", "3,3,3") == (2, "", "error: SearchError: patched\n")
    assert build_parser() is parser


# Every option of every subcommand, and every SearchConfig field: a change
# that adds or removes a settable value has to edit these.
OPTIONS = {
    "construct": ["--format", "--out", "--parts", "--scheme"],
    "diameter": ["--file", "--format"],
    "analyze": ["--anchor", "--file", "--format"],
    "decide": ["--budget-nodes", "--budget-seconds", "--no-symmetry", "--out", "--parts"],
    "enumerate": ["--limit", "--out", "--parts"],
    "brute-force": ["--format", "--parts"],
    "export-cnf": ["--out", "--parts"],
    "verify-claims": ["--budget-nodes", "--budget-seconds", "--family", "--format",
                      "--no-symmetry", "--q-range"],
}


def test_option_surface_is_pinned():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {name: sorted(opt for action in p._actions if action.dest != "help"
                          for opt in action.option_strings)
             for name, p in sub.choices.items()}
    assert found == OPTIONS
    assert sum(map(len, found.values())) == 27
    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "node_budget", "time_budget", "symmetry_breaking"]


# Options a subcommand does not honour are rejected, not silently ignored.
REJECTED = [
    "decide --parts 3,3,3 --seed 1",
    "decide --parts 3,3,3 --no-case-split",
    "decide --parts 3,3,3 --format json",
    "enumerate --parts 1,1,1 --format json",
    "export-cnf --parts 1,1,1 --out x.cnf --format text",
    "diameter --file x.json --format dot",
    "brute-force --parts 1,1,1 --format dot",
    "construct --parts 3,3,3 --format text",
]


@pytest.mark.parametrize("command", REJECTED)
def test_unsupported_option_is_exit_2(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: CliError:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [[], ["decide"], ["verify-claims", "--format", "json"]])
def test_missing_argument_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: CliError:") and "required" in err and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(("usage: orientdiam", "orientdiam "))


# python -m orientdiam, in a real process, answers as main does
@pytest.mark.parametrize("argv,code,out,err", [
    ("brute-force --parts 2,2,3", 0, "3\n", ""),
    ("decide --parts 3,x", 2, "",
     "error: CliError: --parts expects comma-separated integers, got '3,x'\n"),
])
def test_package_runs_as_a_module(argv, code, out, err):
    src = pathlib.Path(od.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "orientdiam", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


class TestAnalyze:
    def test_text_report(self, capsys, tmp_path):
        path = tmp_path / "d6.json"
        run(capsys, "construct", "--parts", "3,3,6", "--out", str(path))
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--anchor", "0")
        assert code == 0
        assert "sign partition" in out
        assert "pass" in out
        assert "raw (1, 1, 2)" in out

    @pytest.mark.parametrize("anchor", ["0", "1"])
    def test_text_lines_end_without_spaces(self, capsys, tmp_path, anchor):
        path = tmp_path / "d6.json"
        run(capsys, "construct", "--parts", "3,3,6", "--out", str(path))
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--anchor", anchor)
        assert code == 0 and "part3" in out
        assert [line for line in out.splitlines() if line != line.rstrip()] == []

    def test_text_report_lists_violations(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "d6.json"
        run(capsys, "construct", "--parts", "3,3,6", "--out", str(path))
        monkeypatch.setattr(analysis, "sign_condition_violations",
                            lambda D, anchor: ["part 2 class +++ has size 2 != 1"])
        code, out, _ = run(capsys, "analyze", "--file", str(path))
        assert code == 0
        assert "diameter-2 necessary conditions: violated\n" in out
        assert "  violation: part 2 class +++ has size 2 != 1\n" in out

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "d4.json"
        run(capsys, "construct", "--parts", "3,3,4", "--out", str(path))
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["case_signature"]["raw"] == [0, 1, 1]
        assert doc["necessary_conditions"] == "pass"

    def test_anchor_option_reaches_case_signature(self, capsys, tmp_path):
        path = tmp_path / "d6.json"
        run(capsys, "construct", "--parts", "3,3,6", "--out", str(path))
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--anchor", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["anchor"] == 1
        assert list(doc["sign_classes"]) == ["part1", "part3"]
        # part 2's out-degrees into part 1; part 1's into part 2 are (1, 1, 2)
        assert doc["case_signature"]["raw"] == [1, 2, 2]

    def test_anchor_of_wrong_size_is_named_by_its_index(self, capsys, tmp_path):
        # --anchor, the out-of-range message and the JSON anchor are 0-based,
        # so this message names the part the same way
        path = tmp_path / "d4.json"
        run(capsys, "construct", "--parts", "3,3,4", "--out", str(path))
        code, out, err = run(capsys, "analyze", "--file", str(path), "--anchor", "2")
        assert (code, out) == (2, "")
        assert err == "error: AnchorNotSize3: anchor part index 2 has size 4, need 3\n"

    @pytest.mark.parametrize("parts,anchor", [((3, 4, 11), 0), ((4, 3, 11), 1), ((11, 3, 4), 1)])
    def test_default_anchor_is_first_size_three_part(self, capsys, tmp_path, parts, anchor):
        outcome = od.decide_diameter2(parts)
        path = tmp_path / "w.json"
        path.write_text(od.graphcore.dumps(outcome.witness))
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["anchor"] == anchor
        assert doc["necessary_conditions"] == "pass"
        assert tuple(doc["case_signature"]["canonical"]) in outcome.stats.cases_enumerated

    def test_sign_partition_built_once_per_run(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "d6.json"
        run(capsys, "construct", "--parts", "3,3,6", "--out", str(path))
        calls = []
        original = analysis.sign_partition

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(analysis, "sign_partition", counting)  # cli imports it per run
        for fmt in ("text", "json"):
            code, _, _ = run(capsys, "analyze", "--file", str(path), "--format", fmt)
            assert code == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_diameter_above_two_is_not_applicable(self, capsys, tmp_path, fmt):
        topo = od.make_complete_multipartite([3, 1, 1])
        path = tmp_path / "k311.json"
        path.write_text(od.graphcore.dumps(od.orient(topo, topo.edges())))  # all low -> high
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--format", fmt)
        assert code == 0
        assert "not-applicable (diameter exceeds 2)" in out

    def test_bipartite_is_not_applicable(self, capsys, tmp_path):
        path = tmp_path / "ml.json"
        path.write_text(od.graphcore.dumps(od.middle_layer_bipartite(3, 3)))
        code, out, _ = run(capsys, "analyze", "--file", str(path))
        assert code == 0
        assert "conditions: not-applicable (needs a tripartite orientation)\n" in out
        assert "case signature" not in out
        code, out, _ = run(capsys, "analyze", "--file", str(path), "--format", "json")
        doc = json.loads(out)
        assert doc["necessary_conditions"] == "not-applicable (needs a tripartite orientation)"
        assert doc["violations"] is None and doc["case_signature"] is None


class TestDecide:
    def test_exists_with_witness(self, capsys):
        code, out, _ = run(capsys, "decide", "--parts", "3,3,6")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "exists"
        D = od.graphcore.from_json_dict(doc["witness"])
        assert od.diameter(D) == 2

    def test_refutation(self, capsys):
        code, out, _ = run(capsys, "decide", "--parts", "3,3,7",
                           "--budget-seconds", "600")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "none"
        assert len(doc["stats"]["cases_enumerated"]) == 10

    @pytest.mark.parametrize("seconds", ["nan", "inf"])
    def test_non_finite_budget_is_exit_2(self, capsys, seconds):
        code, _, err = run(capsys, "decide", "--parts", "3,3,3", "--budget-seconds", seconds)
        assert code == 2
        assert err.startswith("error:")


class TestSmallCommands:
    def test_brute_force(self, capsys):
        code, out, _ = run(capsys, "brute-force", "--parts", "1,1,1,1")
        assert code == 0
        assert out.strip() == "3"

    def test_brute_force_json(self, capsys):
        code, out, _ = run(capsys, "brute-force", "--parts", "2,3", "--format", "json")
        assert json.loads(out)["oriented_diameter"] == 4

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--parts", "1,1,1")
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_export_cnf(self, capsys, tmp_path):
        path = tmp_path / "k337.cnf"
        code, out, _ = run(capsys, "export-cnf", "--parts", "3,3,7", "--out", str(path))
        assert code == 0
        assert path.exists()
        assert "51 edge" in out


class TestVerifyClaims:
    def test_33q_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify-claims", "--family", "33q")
        assert code == 0
        assert out.count("PASS") == 5  # q = 3..6 constructive + q = 7 refuted
        assert "33q-q7" in out

    def test_34q_constructive_rows(self, capsys):
        code, out, _ = run(capsys, "verify-claims", "--family", "34q",
                           "--q-range", "4..11")
        assert code == 0
        assert out.count("PASS") == 8

    def test_baselines(self, capsys):
        code, out, _ = run(capsys, "verify-claims", "--family", "baselines",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        observed = {r["claim_id"]: r["observed"] for r in doc["claims"]}
        assert observed == {
            "baseline-K4": 3,
            "baseline-K5": 2,
            "baseline-K(2,2)": 3,
            "baseline-K(2,3)": 4,
        }

    def test_text_lines_end_without_spaces(self, capsys):
        code, out, _ = run(capsys, "verify-claims", "--family", "baselines")
        assert code == 0 and out.count("\n") == 6
        assert [line for line in out.splitlines() if line != line.rstrip()] == []

    def test_reports_deterministic_modulo_timing(self, capsys):
        def snapshot():
            _, out, _ = run(capsys, "verify-claims", "--family", "baselines",
                            "--format", "json")
            doc = json.loads(out)
            for row in doc["claims"]:
                row.pop("wall_time")
            return doc

        assert snapshot() == snapshot()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_passes_without_writing_cnf(self, capsys, monkeypatch, tmp_path, family):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "verify-claims", "--family", family, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["claims"] and all(row["passed"] for row in doc["claims"])
        assert doc["cnf_emitted"] == [] and doc["exit_code"] == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family", ["33q", "34q"])
    def test_without_symmetry_matches_the_default(self, capsys, family):
        # symmetry breaking off enumerates all 512 blocks of K(3,3,7) (512
        # nodes) and all 4,096 of K(3,4,12) (4,096 nodes), an independent
        # route to the same verdicts at both of the paper's thresholds
        def observed(*extra):
            code, out, _ = run(capsys, "verify-claims", "--family", family, "--format", "json",
                               *extra)
            assert code == 0
            rows = json.loads(out)["claims"]
            assert rows and all(row["passed"] for row in rows)
            return {row["claim_id"]: row["observed"] for row in rows}

        assert observed("--no-symmetry") == observed()

    def test_unknown_emits_cnf_in_cwd(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "verify-claims", "--family", "33q", "--q-range", "7..7",
                           "--budget-nodes", "1")
        assert code == 3
        assert "UNKNOWN" in out
        assert out.endswith("emitted CNF for external solving: ./k3_3_7.cnf\n")
        assert [p.name for p in tmp_path.iterdir()] == ["k3_3_7.cnf"]

    def test_bad_family_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify-claims", "--family", "55q")
        assert (code, out) == (2, "")
        assert err.startswith("error: CliError:") and err.count("\n") == 1

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify-claims", "--family", "33q", "--q-range", "bogus")
        assert code == 2

    @pytest.mark.parametrize("q_range", ["5..3", "9..9"])
    def test_baselines_range_is_exit_2(self, capsys, q_range):
        code, out, err = run(capsys, "verify-claims", "--family", "baselines", "--q-range", q_range)
        assert code == 2
        assert err.startswith("error: BadRange:")
        assert out == ""

    def test_range_past_the_vertex_cap_is_exit_2(self, capsys):
        code, out, err = run(capsys, "verify-claims", "--family", "34q", "--q-range", "12..4095")
        assert code == 2
        assert err.startswith("error: BadRange:") and "cap of 4096 vertices" in err
        assert out == ""

    @pytest.mark.parametrize("q_range", ["9..3", "1..2"])
    def test_empty_range_is_exit_2(self, capsys, q_range):
        # 1..2 lies wholly below the family's first q, so it selects nothing too
        code, out, err = run(capsys, "verify-claims", "--family", "33q", "--q-range", q_range)
        assert code == 2
        assert err == (f"error: BadRange: q range {q_range} of family 33q, whose q starts at 3,"
                       " selects no claims\n")
        assert out == ""
