"""The scripts under scripts/ run end to end and report success."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,cnf_files", [
    ("reproduce_tables", []),
    ("refutation_search", ["k3_3_7.cnf", "k3_4_12.cnf"]),
])
def test_script_succeeds(monkeypatch, tmp_path, capsys, name, cnf_files):
    monkeypatch.chdir(tmp_path)
    assert load(name).main() == 0
    assert sorted(p.name for p in tmp_path.glob("*.cnf")) == cnf_files
