"""What a CLI child and ``import gclin`` load, and the lazy package namespace.

A CLI run is one short process whose start-up is part of every verb's
cost, so each verb should import only the modules it runs.  The children
run the real ``python -m gclin`` with ``-X importtime``, which reports
every module the import system loads.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import gclin
from gclin.samples import random_gcs
from gclin.serialize import encode_aut

SRC = Path(gclin.__file__).resolve().parent.parent
STRUCTURE_CORE = {"gclin", "gclin.cli", "gclin.core", "gclin.fields", "gclin.linalg", "gclin.serialize"}


def imported(argv):
    """The modules the interpreter imports for argv, beyond a bare start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def names(args):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args], capture_output=True, env=env, check=False, text=True
        )
        found = set()
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                found.add(line.rsplit("|", 1)[1].strip())
        return proc.returncode, found

    code, seen = names(argv)
    _, bare = names(["-c", "pass"])
    return code, seen - bare


@pytest.fixture(scope="module")
def structure_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("payloads") / "j.json"
    path.write_text(json.dumps(encode_aut(random_gcs(Random(7), 2))))
    return str(path)


@pytest.mark.parametrize(
    "verb",
    [["validate"], ["convert", "--to", "E"], ["transform", "--twist"], ["transform", "--dual"]],
    ids=["validate", "convert-E", "twist", "dual"],
)
def test_structure_verbs_load_only_core_modules(verb, structure_file):
    code, loaded = imported(["-m", "gclin", *verb, structure_file])
    assert code in (0, 1)
    assert {m for m in loaded if m.split(".")[0] == "gclin"} == STRUCTURE_CORE
    assert "dataclasses" not in loaded


def test_decompose_loads_no_spinor_layer(structure_file):
    # decompose reads its B-field and symplectic form off E as a matrix
    # (core.standard_two_form), so no multivector is built
    code, loaded = imported(["-m", "gclin", "decompose", structure_file])
    assert code == 0
    assert "gclin.classification" in loaded
    assert not {"gclin.multivector", "gclin.spinor"} & loaded


def test_selftest_loads_every_module_but_not_dataclasses():
    # selftest runs every layer, so no verb can load more of gclin than it
    code, loaded = imported(["-m", "gclin", "selftest", "--seed", "0"])
    assert code == 0
    modules = {p.stem for p in (SRC / "gclin").glob("*.py")} - {"__init__", "__main__"}
    assert {m for m in loaded if m.startswith("gclin.")} == {f"gclin.{m}" for m in modules}
    assert "dataclasses" not in loaded


def test_bare_import_loads_no_submodule():
    code, loaded = imported(["-c", "import gclin"])
    assert code == 0
    assert {m for m in loaded if m.split(".")[0] == "gclin"} == {"gclin"}


def test_star_import_binds_the_defining_modules_objects():
    namespace = {}
    exec("from gclin import *", namespace)
    del namespace["__builtins__"]
    assert len(gclin.__all__) == len(set(gclin.__all__)) == 70
    assert set(namespace) == set(gclin.__all__)
    for name, obj in namespace.items():
        owner = getattr(obj, "__module__", None) or type(obj).__module__
        assert owner.startswith("gclin."), name
        assert getattr(importlib.import_module(owner), name) is obj, name
        assert getattr(gclin, name) is obj
    assert set(gclin.__all__) <= set(dir(gclin))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        gclin.no_such_name
    assert gclin.core is importlib.import_module("gclin.core")


def test_private_linalg_names_stay_behind_its_boundary():
    # the stored integer rows are linalg's format: no other module imports a
    # private linalg name, or reads, builds or joins stored rows through
    # linalg's private attributes
    stored = {"_z", "_of", "_span", "_meet", "_rows_over"}
    for path in sorted((SRC / "gclin").glob("*.py")):
        if path.stem == "linalg":
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        private = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level, node.module) in ((1, "linalg"), (0, "gclin.linalg"))
            for alias in node.names
            if alias.name.startswith("_")
        }
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not private, (path.stem, private)
        assert not attributes & stored, (path.stem, attributes & stored)
        assert "_remainder" not in source, path.stem
    # membership and kernels read a subspace's kept null rows
    linalg = ast.parse((SRC / "gclin" / "linalg.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(linalg) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_remainder", "_null_space"}


def test_no_module_imports_the_removed_carrying_copy():
    # a structure keeps its checked eigenspace (core.to_eigenspace), so no
    # caller asks core for a copy that carries it, as core._carrying did
    assert not hasattr(importlib.import_module("gclin.core"), "_carrying")
    tests = Path(__file__).resolve().parent
    for path in sorted([*(SRC / "gclin").glob("*.py"), *tests.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported_names = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in ("core", "gclin.core")
            for alias in node.names
        }
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "_carrying" not in imported_names | attributes, path.name
