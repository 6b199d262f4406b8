"""The names of gclin that the benchmark in perfbench/ looks up.

perfbench/run.py records ``fields._ratio.__name__`` as the scalar backend
(compare.py refuses records whose backends differ), perfbench/spans.py
counts calls of ``fields.rational`` and ``GaussianRational.__init__`` and
reads its per-layer counts by qualified name, and perfbench/workloads.py
imports gclin by name.  A refactor that renames or removes one of them
fails here, in seconds, instead of in the benchmark.
"""

import importlib.util
from pathlib import Path
from random import Random

from gclin import core, fields, linalg, multivector

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the counters run.py reads through Tracer.fid, by "layer:qualname"
COUNTED = (
    "fields:rational",
    "fields:GaussianRational.__init__",
    "linalg:Matrix.rref",
    "multivector:Multivector.wedge",
    "core:to_eigenspace",
    "core:validate_aut",
    "core:validate_eigenspace",
)


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_exist_and_are_callable():
    assert fields._ratio.__name__ == "Fraction"
    for fn in (
        fields._ratio,
        fields.rational,
        fields.GaussianRational.__init__,
        linalg.Matrix.rref,
        multivector.Multivector.wedge,
        core.to_eigenspace,
        core.validate_aut,
        core.validate_eigenspace,
    ):
        assert callable(fn)


def test_tracer_finds_every_counted_function():
    tracer = load("spans").Tracer()
    try:
        tracer.install()
        for name in COUNTED:
            tracer.fid(name)  # raises ValueError for a name it did not wrap
    finally:
        tracer.uninstall()
    assert fields.rational.__module__ == "gclin.fields"


def test_workload_items_run_against_this_tree():
    workloads = load("workloads")
    rng = Random(0)
    workloads.relations_item(workloads.relation_pair(rng, 2, 0, False))
    workloads.roundtrip_cycle(workloads.structure(rng, 2, 2))
