"""Byte-for-byte golden test of the CLI.

``tests/cli_golden.json`` holds a set of payload files and, for each
invocation, its argv, exit code and stdout as once recorded.  The test
writes the payload files into a temporary directory, runs ``cli.main``
there in process (so file names in argv and in messages are relative) and
compares stdout byte for byte.

The data file is recorded by running this module as a script from the
repository root, ``PYTHONPATH=src python tests/test_cli_golden.py``.  It
is meant to be recorded once and then left alone: a refactor that keeps
the CLI output must keep this test green without touching it.
"""

import argparse
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gclin.cli import build_parser, main

DATA = Path(__file__).with_name("cli_golden.json")


def _run(argv):
    """(exit code, stdout bytes) of one in-process CLI run; stderr is dropped."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects before any verb runs
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def _load():
    return json.loads(DATA.read_text(encoding="utf-8"))


GOLDEN = _load() if DATA.exists() else {"payloads": {}, "cases": []}


@pytest.fixture(scope="module")
def payload_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, text in GOLDEN["payloads"].items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_data_file_present():
    assert DATA.exists() and GOLDEN["cases"]


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=[" ".join(c["argv"]) for c in GOLDEN["cases"]])
def test_cli_bytes_match_golden(case, payload_dir, monkeypatch):
    monkeypatch.chdir(payload_dir)
    code, out = _run(case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"].encode("utf-8")


def test_cases_cover_every_verb_and_verdict():
    # the golden file is the one pin on the verdict output, so every verb,
    # and every subspace test and canonical-rel both ways, must have a case
    (verbs,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (tests,) = [a.choices for a in verbs["subspace"]._actions if a.dest == "test"]
    exits = {}
    for case in GOLDEN["cases"]:
        argv = case["argv"]
        keys = [argv[0], *(argv[i + 1] for i, arg in enumerate(argv) if arg == "--test")]
        for key in keys:
            exits.setdefault(key, set()).add(case["exit"])
    assert set(verbs) <= set(exits)
    for key in [*tests, "canonical-rel"]:
        assert {0, 1} <= exits.get(key, set()), key


def _payloads():
    """The fixed payload files: hand-written ones and seeded samples."""
    from random import Random

    from gclin.classification import build_graphnotsub_example, build_subnotquot_example
    from gclin.core import TwoForm, complex_structure, direct_sum, symplectic_structure, to_eigenspace
    from gclin.fields import QQ
    from gclin.linalg import Matrix, Subspace
    from gclin.relations import identity_relation, map_relation
    from gclin.samples import random_gcs, random_relation_chain
    from gclin.serialize import encode_aut, encode_eigenspace, encode_relation, encode_spinor, encode_subspace
    from gclin.spinor import spinor_from_subspace

    def sub(n, *rows):
        return encode_subspace(Subspace.from_spanning(QQ, n, rows))

    rot = Matrix(QQ, [[0, -1], [1, 0]])
    z2 = Matrix.zero(QQ, 2, 2)
    omega4 = TwoForm(Matrix(QQ, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]))
    symp4 = symplectic_structure(omega4)
    complex4 = complex_structure(Matrix.from_blocks(QQ, [[rot, z2], [z2, rot]]))
    mixed4 = direct_sum(symplectic_structure(TwoForm(rot)), complex_structure(rot))
    rand4 = random_gcs(Random(4), 4)
    rand2 = random_gcs(Random(7), 2)
    subnotquot, w_snq, _, _ = build_subnotquot_example()
    graphnotsub, w_gns, k_gns = build_graphnotsub_example()

    bad_aut = encode_aut(symp4)
    bad_aut["j"]["j2"][0][1] = "2"
    bad_rational = encode_aut(symp4)
    bad_rational["j"]["j1"][0][0] = "1.5"
    chain = random_relation_chain(Random(5), 4, 2)
    a2, b2 = random_gcs(Random(8), 2), random_gcs(Random(9), 2)

    objects = {
        "symp4.json": encode_aut(symp4),
        "complex4.json": encode_aut(complex4),
        "mixed4.json": encode_aut(mixed4),
        "rand4.json": encode_aut(rand4),
        "rand2.json": encode_aut(rand2),
        "rand4_E.json": encode_eigenspace(to_eigenspace(rand4)),
        "rand4_spinor.json": encode_spinor(spinor_from_subspace(to_eigenspace(rand4).e).rep),
        "subnotquot.json": encode_aut(subnotquot),
        "graphnotsub.json": encode_aut(graphnotsub),
        "k_gns.json": encode_aut(k_gns),
        "k_gns_minus.json": encode_aut(complex_structure(-k_gns.j1)),
        "bad_aut.json": bad_aut,
        "bad_E.json": {
            "E": {"ambient_dim": 4, "basis": [["1", "0", "0", "0"], ["0", "0", "1", "0"]]},
            "n": 2,
            "repr": "E",
        },
        "impure_spinor.json": {
            "n": 2,
            "repr": "spinor",
            "spinor": [{"coeff": "1", "indices": []}, {"coeff": "1", "indices": [1]}],
        },
        "real_spinor.json": {"n": 2, "repr": "spinor", "spinor": [{"coeff": "1", "indices": [1]}]},
        "repeated_index.json": {
            "n": 2,
            "repr": "spinor",
            "spinor": [{"coeff": "1", "indices": [1, 1]}],
        },
        "big_spinor.json": {"n": 17, "repr": "spinor", "spinor": []},
        "big_aut.json": {"n": 17, "repr": "aut", "j": {}},
        "bad_rational.json": bad_rational,
        "b4.json": [["0", "1", "0", "-1/2"], ["-1", "0", "2", "0"], ["0", "-2", "0", "0"], ["1/2", "0", "0", "0"]],
        "w_snq.json": encode_subspace(w_snq),
        "w_gns.json": encode_subspace(w_gns),
        "w_p1.json": sub(4, [1, 0, 0, 0]),
        "w_p1q1.json": sub(4, [1, 0, 0, 0], [0, 1, 0, 0]),
        "w_p1p2.json": sub(4, [1, 0, 0, 0], [0, 0, 1, 0]),
        "w_p1q1p2.json": sub(4, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]),
        "w_p2q2.json": sub(4, [0, 0, 1, 0], [0, 0, 0, 1]),
        "w_p1p2_mixed.json": sub(4, [1, 0, 1, 0]),
        "w_ambient3.json": sub(3, [1, 0, 0]),
        "w_rand4.json": sub(4, [1, 2, 0, -1], [0, 1, 1, 1]),
        "rel_ident.json": encode_relation(identity_relation(rand2)),
        "rel_chain0.json": encode_relation(chain[0]),
        "rel_chain1.json": encode_relation(chain[1]),
        "rel_bad.json": encode_relation(map_relation(Matrix.identity(QQ, 2), a2, b2)),
    }
    payloads = {name: json.dumps(obj, sort_keys=True) for name, obj in objects.items()}
    payloads["malformed.json"] = "{not json"
    return payloads


# (argv, expected exit code); the recorder refuses to write a data file
# whose recorded codes differ, so each listed outcome is really exercised.
_CASES = [
    (["validate", "symp4.json"], 0),
    (["validate", "bad_aut.json"], 1),
    (["validate", "rand4_E.json"], 0),
    (["validate", "bad_E.json"], 1),
    (["validate", "rand4_spinor.json"], 0),
    (["validate", "impure_spinor.json"], 1),
    (["validate", "real_spinor.json"], 1),
    (["convert", "--to", "aut", "rand4_E.json"], 0),
    (["convert", "--to", "E", "rand4.json"], 0),
    (["convert", "--to", "spinor", "rand4.json"], 0),
    (["convert", "--to", "aut", "rand4_spinor.json"], 0),
    (["convert", "--to", "spinor", "symp4.json"], 0),
    (["transform", "--b", "b4.json", "rand4.json"], 0),
    (["transform", "--beta", "b4.json", "rand4.json"], 0),
    (["transform", "--twist", "rand4.json"], 0),
    (["transform", "--dual", "rand4.json"], 0),
    (["classify-type", "rand4.json"], 0),
    (["classify-type", "mixed4.json"], 0),
    (["recover", "symp4.json"], 0),
    (["recover", "complex4.json"], 0),
    (["recover", "rand2.json"], 0),
    (["recover", "mixed4.json"], 2),
    (["subspace", "--test", "gc", "--w", "w_snq.json", "subnotquot.json"], 0),
    (["subspace", "--test", "gc", "--w", "w_gns.json", "graphnotsub.json"], 1),
    (["subspace", "--test", "isotropic", "--w", "w_p1.json", "symp4.json"], 0),
    (["subspace", "--test", "isotropic", "--w", "w_p1q1p2.json", "symp4.json"], 1),
    (["subspace", "--test", "coisotropic", "--w", "w_p1q1p2.json", "symp4.json"], 0),
    (["subspace", "--test", "coisotropic", "--w", "w_p1.json", "symp4.json"], 1),
    (["subspace", "--test", "lagrangian", "--w", "w_p1p2.json", "symp4.json"], 0),
    (["subspace", "--test", "lagrangian", "--w", "w_p1.json", "symp4.json"], 1),
    (["subspace", "--test", "lagrangian", "--w", "w_p1q1p2.json", "symp4.json"], 1),
    (["subspace", "--test", "graph", "--w", "w_gns.json", "--k", "k_gns.json", "graphnotsub.json"], 0),
    (["subspace", "--test", "graph", "--w", "w_gns.json", "--k", "k_gns_minus.json", "graphnotsub.json"], 1),
    (["subspace", "--test", "graph", "--w", "w_gns.json", "graphnotsub.json"], 2),
    (["subspace", "--test", "split", "--w", "w_p1p2.json", "--n", "w_p2q2.json", "complex4.json"], 1),
    (["subspace", "--test", "split", "--w", "w_p1q1.json", "--n", "w_p2q2.json", "complex4.json"], 0),
    (["subspace", "--test", "split", "--w", "w_p1q1.json", "--n", "w_p1p2.json", "symp4.json"], 1),
    (["subspace", "--test", "split", "--w", "w_p1q1.json", "symp4.json"], 0),
    (["subspace", "--test", "split", "--w", "w_p1.json", "symp4.json"], 1),
    (["subspace", "--test", "split", "--w", "w_p1q1.json", "complex4.json"], 0),
    (["subspace", "--test", "split", "--w", "w_p1.json", "complex4.json"], 1),
    (["subspace", "--test", "split", "--w", "w_p1p2_mixed.json", "rand4.json"], 1),
    (["subspace", "--test", "split", "--w", "w_p1.json", "mixed4.json"], 2),
    (["subspace", "--test", "gc", "--w", "w_ambient3.json", "symp4.json"], 2),
    (["induce", "--sub", "--w", "w_snq.json", "subnotquot.json"], 0),
    (["induce", "--quot", "--w", "w_snq.json", "subnotquot.json"], 1),
    (["induce", "--sub", "--w", "w_gns.json", "graphnotsub.json"], 1),
    (["induce", "--quot", "--w", "w_rand4.json", "rand4.json"], 0),
    (["induce", "--sub", "--w", "w_rand4.json", "rand4.json"], 0),
    (["decompose", "rand4.json"], 0),
    (["decompose", "mixed4.json"], 0),
    (["canonical", "--s", "rand4.json"], 0),
    (["canonical", "--c", "rand4.json"], 0),
    (["canonical", "--c", "complex4.json"], 0),
    (["compose", "rel_chain1.json", "rel_chain0.json"], 0),
    (["compose", "rel_ident.json", "rel_ident.json"], 0),
    (["compose", "rel_ident.json", "rel_chain0.json"], 2),
    (["canonical-rel", "rel_chain0.json"], 0),
    (["canonical-rel", "rel_bad.json"], 1),
    (["demo", "subnotquot"], 0),
    (["demo", "notquot"], 0),
    (["demo", "graphnotsub"], 0),
    (["selftest", "--seed", "0"], 0),
    (["validate", "malformed.json"], 2),
    (["validate", "missing.json"], 2),
    (["validate", "bad_rational.json"], 2),
    (["validate", "repeated_index.json"], 2),
    (["validate", "big_spinor.json"], 2),
    (["convert", "--to", "spinor", "big_aut.json"], 2),
    (["subspace", "--test", "bogus", "--w", "w_p1.json", "symp4.json"], 2),
]


def record():
    """Run every case on the current tree and write the data file."""
    import tempfile

    payloads = _payloads()
    cases = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        for name, text in payloads.items():
            Path(root, name).write_text(text, encoding="utf-8")
        os.chdir(root)
        try:
            for argv, expected in _CASES:
                code, out = _run(argv)
                if code != expected:
                    raise SystemExit(f"{argv}: exit {code}, expected {expected}: {out!r}")
                cases.append({"argv": argv, "exit": code, "stdout": out.decode("utf-8")})
        finally:
            os.chdir(cwd)
    DATA.write_text(json.dumps({"cases": cases, "payloads": payloads}, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
