"""What `import orientdiam` loads, and how names reach the modules loaded later.

Each check runs in a fresh interpreter, so no module is loaded beforehand.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import orientdiam as od

from test_design import _defined

SRC = pathlib.Path(od.__file__).resolve().parent.parent


def _fresh(script: str, *args: str):
    """Run script in a new interpreter that imports the package from src/; its stdout as JSON."""
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


IMPORT_SET = """
import importlib, json, sys
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "orientdiam")
import orientdiam
after_import = loaded()
from orientdiam import cli
after_cli = loaded()
submodule = orientdiam.cnf is sys.modules["orientdiam.cnf"]
homes = json.loads(sys.argv[1])
star = {}
exec("from orientdiam import *", star)
wrong = [name for name in orientdiam.__all__
         if not getattr(orientdiam, name) is star[name]
         is getattr(importlib.import_module(f"orientdiam.{homes[name]}"), name)]
print(json.dumps({"import": after_import, "cli": after_cli, "submodule": submodule, "wrong": wrong,
                  "star": sorted(k for k in star if k != "__builtins__")}))
"""


def test_import_loads_only_graphcore_and_search():
    # name -> the module whose top level defines it
    homes = {name: path.stem for path in sorted((SRC / "orientdiam").glob("*.py"))
             for name, _ in _defined(ast.parse(path.read_text(encoding="utf-8")))}
    got = _fresh(IMPORT_SET, json.dumps(homes))
    assert got["import"] == ["orientdiam", "orientdiam.graphcore", "orientdiam.search"]
    assert got["cli"] == ["orientdiam", "orientdiam.cli", "orientdiam.graphcore", "orientdiam.search"]
    assert got["submodule"]  # a module the package has not loaded yet is an attribute too
    assert got["wrong"] == []
    assert got["star"] == sorted(od.__all__)
    assert len(od.__all__) == 35


ONE_SHOT = """
import contextlib, io, json, sys
from orientdiam import cli
after_cli = "argparse" in sys.modules
cli.build_parser()
after_parser = "argparse" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["decide", "--parts", "3,3,7"])
print(json.dumps({"argparse": [after_cli, after_parser], "code": code,
                  "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "orientdiam"),
                  "stdlib": sorted({"dataclasses", "inspect"} & set(sys.modules))}))
"""


def test_argparse_loads_with_the_first_parser():
    assert _fresh(ONE_SHOT)["argparse"] == [False, True]


def test_decide_loads_neither_claims_nor_constructions():
    # the --family choices are cli's own copy of claims.FAMILIES; every
    # record is a named tuple, so nothing loads dataclasses and its inspect
    got = _fresh(ONE_SHOT)
    assert got["code"] == 0
    assert got["modules"] == ["orientdiam", "orientdiam.cli", "orientdiam.graphcore",
                              "orientdiam.search"]
    assert got["stdlib"] == []


def test_dir_and_missing_names():
    assert {"__all__", *od.__all__} <= set(dir(od))
    with pytest.raises(AttributeError, match="no_such_name"):
        od.no_such_name
    assert not hasattr(od, "no_such_name")


# bench/layers.py rebinds a function by identity in every loaded module and
# puts the originals back; a module that first loads while a wrapper is
# installed must not keep that wrapper.  verify-claims loads claims here.
TWO_TAPS = """
import contextlib, io, json, sys
from orientdiam import cli, search

def tapped_run(original):
    nodes = [0]

    def tapped(*args, **kwargs):
        outcome = original(*args, **kwargs)
        nodes[0] += outcome.stats.nodes
        return outcome

    saved = [(module, name) for key, module in list(sys.modules.items())
             if module is not None and key.partition(".")[0] == "orientdiam"
             for name, value in list(vars(module).items()) if value is original]
    for module, name in saved:
        setattr(module, name, tapped)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify-claims", "--family", "33q", "--format", "json"])
    finally:
        for module, name in saved:
            setattr(module, name, original)
    return code, nodes

original = search.decide_diameter2
first = tapped_run(original)
second = tapped_run(original)
print(json.dumps([first, second]))
"""


def test_a_module_loaded_under_a_wrapper_does_not_keep_it():
    # K(3,3,7) is refuted over its 18 block orbits, one node each; a claims
    # that kept the first wrapper would read 36 then 0
    (code1, nodes1), (code2, nodes2) = _fresh(TWO_TAPS)
    assert (code1, code2) == (0, 0)
    assert (nodes1, nodes2) == ([18], [18])
