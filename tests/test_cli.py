import json
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from gclin import classification, cli, core, relations, spinor
from gclin.classification import canonical_omega
from gclin.cli import main
from gclin.core import GCAut, TwoForm, complex_structure, symplectic_structure, to_eigenspace
from gclin.fields import QI, QQ
from gclin.linalg import Matrix, Subspace
from gclin.relations import identity_relation, map_relation
from gclin.samples import random_gcs
from gclin.serialize import (
    PayloadError,
    decode_rational,
    encode_aut,
    encode_eigenspace,
    encode_matrix,
    encode_relation,
    encode_spinor,
    encode_subspace,
)

OMEGA2 = TwoForm(Matrix(QQ, [[0, -1], [1, 0]]))
ROT = Matrix(QQ, [[0, -1], [1, 0]])


@pytest.fixture()
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_good_structure(write, capsys):
    path = write("s.json", encode_aut(symplectic_structure(OMEGA2)))
    code, out = run(capsys, "validate", path)
    assert code == 0
    assert json.loads(out) == {"result": True, "violations": []}


def test_validate_reports_equation_labels(write, capsys):
    payload = encode_aut(symplectic_structure(OMEGA2))
    payload["j"]["j2"] = [["0/1", "1/1"], ["1/1", "0/1"]]
    code, out = run(capsys, "validate", write("bad.json", payload))
    assert code == 1
    data = json.loads(out)
    assert data["result"] is False
    assert any(v.startswith("e:6") and "skew" in v for v in data["violations"])


def test_validate_eigenspace_payload(write, capsys):
    e = to_eigenspace(symplectic_structure(OMEGA2))
    code, out = run(capsys, "validate", write("e.json", encode_eigenspace(e)))
    assert code == 0 and json.loads(out)["result"] is True


def test_empty_basis_in_a_huge_ambient_space_is_answered_at_once(write, capsys):
    # a basis of no rows is eliminated without walking its 10**9 columns
    e = write("e.json", {"n": 5 * 10**8, "repr": "E", "E": {"ambient_dim": 10**9, "basis": []}})
    w = write("w.json", {"ambient_dim": 10**9, "basis": []})
    structure = write("s.json", encode_aut(symplectic_structure(OMEGA2)))
    for argv, code, line in (
        (["validate", e], 1, {"result": False, "violations": ["dim"]}),
        (
            ["subspace", "--test", "isotropic", "--w", w, structure],
            2,
            {"error": "subspace ambient dimension does not match the structure"},
        ),
    ):
        start = time.perf_counter()
        got, out = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (got, json.loads(out)) == (code, line)


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("depth", [3000, 100_000])
def test_deeply_nested_json_exits_2(tmp_path, capsys, depth):
    # the JSON parser raises RecursionError past its nesting limit
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert out.count("\n") == 1 and "error" in json.loads(out)
    if depth == 100_000:
        assert json.loads(out) == {"error": f"malformed JSON in {path}: nested too deeply"}


def test_deeply_nested_json_child_prints_no_traceback(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "gclin", "canonical-rel", str(path)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=src),
        text=True,
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout.count("\n") == 1 and "nested too deeply" in json.loads(proc.stdout)["error"]
    assert "Traceback" not in proc.stderr


def test_repeated_index_in_multivector_term_exits_2(write, capsys):
    payload = {"n": 2, "repr": "spinor", "spinor": [{"coeff": "1", "indices": [2, 1, 2]}]}
    code, out = run(capsys, "validate", write("rep.json", payload))
    assert code == 2
    assert json.loads(out) == {"error": "repeated index in term"}


@pytest.mark.parametrize(
    "text", ["1.5", " 3/4 ", "1e200000", "3/0", "+1", "3/-4", "1_000", "\u0663", ""]
)
def test_rational_outside_grammar_exits_2(write, capsys, text):
    payload = encode_aut(symplectic_structure(OMEGA2))
    payload["j"]["j1"][0][0] = text
    code, out = run(capsys, "validate", write("bad.json", payload))
    assert code == 2
    assert "bad rational" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "entry, message",
    [
        ("[" + ", ".join(["1"] * 200_000) + "]", "expected a rational string, got [1, 1, "),
        ("[" * 300 + "1" + "]" * 300, "expected a rational string, got [[[["),
        ('"' + "1" * 200_000 + '.5"', "bad rational '1111"),
    ],
    ids=["long-list", "deep-list", "long-string"],
)
def test_bad_rational_error_line_is_bounded(tmp_path, capsys, entry, message):
    # the offending value, given here as JSON text, is echoed cut short
    # with an ellipsis, not whole
    payload = encode_aut(symplectic_structure(OMEGA2))
    payload["j"]["j1"][0][0] = "ENTRY"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload).replace('"ENTRY"', entry))
    code, out = run(capsys, "validate", str(path))
    assert code == 2
    assert out.count("\n") == 1 and len(out.encode()) < 1024
    error = json.loads(out)["error"]
    assert error.startswith(message) and "..." in error


def test_unexpected_scalar_keys_error_line_is_bounded(write, capsys):
    payload = encode_eigenspace(to_eigenspace(symplectic_structure(OMEGA2)))
    payload["E"]["basis"][0][0] = {f"k{i}": 0 for i in range(50_000)}
    code, out = run(capsys, "validate", write("keys.json", payload))
    assert code == 2
    assert len(out.encode()) < 1024
    assert json.loads(out)["error"].startswith("unexpected keys in scalar: ['k0', 'k1', ")


def test_short_bad_rational_is_echoed_whole():
    with pytest.raises(PayloadError, match=r"^bad rational '1\.5': expected an integer or 'p/q'$"):
        decode_rational("1.5")
    with pytest.raises(PayloadError, match=r"^expected a rational string, got \[1, 2\]$"):
        decode_rational([1, 2])


def test_rational_grammar_accepts_ints_and_fractions():
    assert decode_rational(3) == 3
    assert decode_rational("-2/4") == QQ.coerce("-1/2")
    assert decode_rational("007") == 7
    for bad in (True, 1.5, None):
        with pytest.raises(PayloadError):
            decode_rational(bad)


@pytest.mark.parametrize(
    "exc",
    [
        AssertionError("equation list disagrees with the direct criteria"),
        ZeroDivisionError("division by zero in Q(i)"),
        TypeError("cannot interpret 'x' as a rational"),
    ],
    ids=["assertion", "zero-division", "type"],
)
def test_internal_error_exits_3_without_traceback(write, capsys, monkeypatch, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "validate_aut", fail)
    src = write("s.json", encode_aut(symplectic_structure(OMEGA2)))
    code = main(["validate", src])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out) == {"error": f"{type(exc).__name__}: {exc}"}
    assert captured.err == ""


def test_wrong_shape_exits_2(write, capsys):
    payload = encode_aut(symplectic_structure(OMEGA2))
    payload["j"]["j1"] = [["1/1"]]
    code, out = run(capsys, "validate", write("bad.json", payload))
    assert code == 2


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 2, "repr": "spinor", "spinor": [{"coeff": "1", "indices": 5}]}, "term indices must be a list"),
        ({"n": 2, "repr": "spinor", "spinor": [{"coeff": "1", "indices": [True]}]}, "term indices must lie in 1..n"),
        ({"n": True, "repr": "spinor", "spinor": [{"coeff": "1", "indices": []}]}, "nonnegative integer n"),
    ],
    ids=["indices-not-a-list", "boolean-index", "boolean-n"],
)
def test_malformed_payload_types_exit_2(write, capsys, payload, message):
    code, out = run(capsys, "validate", write("bad.json", payload))
    assert code == 2
    assert message in json.loads(out)["error"]


def _refuse_spinor(*args):
    raise RuntimeError("a spinor was built over the size limit")


def test_spinor_verb_over_the_size_limit_exits_2_before_building(write, capsys, monkeypatch):
    monkeypatch.setattr(spinor, "spinor_from_subspace", _refuse_spinor)
    n = cli.MAX_SPINOR_N + 24
    src = write("big.json", encode_aut(symplectic_structure(canonical_omega(n // 2))))
    code, out = run(capsys, "convert", "--to", "spinor", src)
    assert code == 2
    limit = cli.MAX_SPINOR_N
    assert json.loads(out) == {"error": f"spinor size limit: n = {n} exceeds MAX_SPINOR_N = {limit}"}


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["convert", "--to", "aut"], ["classify-type"]],
    ids=["validate", "convert", "classify-type"],
)
def test_spinor_payload_over_the_size_limit_exits_2(write, capsys, monkeypatch, argv):
    for name in ("structure_from_spinor", "annihilator_subspace", "mukai_pairing"):
        monkeypatch.setattr(spinor, name, _refuse_spinor)
    monkeypatch.setattr(cli, "decode_gcs", _refuse_spinor)
    n = cli.MAX_SPINOR_N + 2
    src = write("spin.json", {"n": n, "repr": "spinor", "spinor": [{"coeff": "1", "indices": []}]})
    code, out = run(capsys, *argv, src)
    assert code == 2
    assert f"MAX_SPINOR_N = {cli.MAX_SPINOR_N}" in json.loads(out)["error"]


def test_spinor_size_limit_is_inclusive(write, capsys):
    n = cli.MAX_SPINOR_N
    src = write("edge.json", encode_aut(symplectic_structure(canonical_omega(n // 2))))
    code, out = run(capsys, "convert", "--to", "spinor", src)
    assert code == 0
    assert len(json.loads(out)["spinor"]) == 2 ** (n // 2)


@pytest.mark.parametrize("argv", [["validate"], ["convert", "--to", "aut"]], ids=["validate", "loader"])
def test_spinor_payload_builds_its_eigenspace_once(write, capsys, monkeypatch, argv):
    # validate and the loader decide the payload by one function, which
    # builds E from the standard form once and checks and keeps that E
    built = []
    build = spinor.subspace_from_standard_form

    def counting(sf):
        built.append(sf)
        return build(sf)

    monkeypatch.setattr(spinor, "subspace_from_standard_form", counting)
    phi = spinor.spinor_from_subspace(to_eigenspace(random_gcs(Random(5), 4)).e).rep
    src = write("spin.json", encode_spinor(phi))
    code, _ = run(capsys, *argv, src)
    assert code == 0
    assert len(built) == 1


@pytest.mark.parametrize(
    "argv,payload,message",
    [
        (["convert", "--to", "aut"], "spinor", "Mukai pairing disagrees with E meeting its conjugate"),
        (["validate"], "spinor", "Mukai pairing disagrees with E meeting its conjugate"),
        (["convert", "--to", "spinor"], "aut", "the spinor of a structure pairs to zero with its conjugate"),
    ],
    ids=["loader", "validate", "convert"],
)
def test_a_pairing_that_disagrees_with_e_exits_3(write, capsys, monkeypatch, argv, payload, message):
    j = random_gcs(Random(6), 4)
    phi = spinor.spinor_from_subspace(to_eigenspace(j).e).rep
    src = write("j.json", encode_spinor(phi) if payload == "spinor" else encode_aut(j))
    monkeypatch.setattr(spinor, "mukai_pairing", lambda alpha, beta: QI.zero)
    code, out = run(capsys, *argv, src)
    assert code == 3
    assert json.loads(out) == {"error": f"AssertionError: {message}"}


# Seconds each spinor verb may take at n = MAX_SPINOR_N on the Fraction
# backend; measured at 1.5-3.5 s per verb on 2 shared CPUs.
SPINOR_VERB_BUDGET = 10


def test_spinor_verbs_at_the_size_limit_meet_their_budget(write, capsys, tmp_path):
    src = write("j.json", encode_aut(random_gcs(Random(3), cli.MAX_SPINOR_N)))
    spin_path = tmp_path / "spin.json"
    for argv in (["convert", "--to", "spinor", src], ["validate", str(spin_path)], ["classify-type", str(spin_path)]):
        started = time.perf_counter()
        code, out = run(capsys, *argv)
        elapsed = time.perf_counter() - started
        assert code == 0, out
        assert elapsed < SPINOR_VERB_BUDGET, f"{argv[0]} took {elapsed:.1f}s"
        if argv[0] == "convert":
            spin_path.write_text(out)
    assert json.loads(spin_path.read_text())["n"] == cli.MAX_SPINOR_N


# Seconds each structure verb may take at n = 16 on the Fraction backend;
# measured at 0.4-1.1 s per verb on 2 shared CPUs, where intersections
# that eliminated twice the ambient width took 4-10 s.
STRUCTURE_VERB_BUDGET = 3


def test_structure_verbs_at_n16_meet_their_budget(write, capsys):
    src = write("j.json", encode_aut(random_gcs(Random(3), 16)))
    for argv in (["classify-type"], ["decompose"], ["canonical", "--s"], ["canonical", "--c"]):
        started = time.perf_counter()
        code, out = run(capsys, *argv, src)
        elapsed = time.perf_counter() - started
        assert code == 0, out
        assert elapsed < STRUCTURE_VERB_BUDGET, f"{' '.join(argv)} took {elapsed:.1f}s"


def test_convert_round_trip_is_byte_identical(write, capsys, tmp_path):
    rng = Random(1)
    j = random_gcs(rng, 4)
    src = write("j.json", encode_aut(j))
    code, direct = run(capsys, "convert", "--to", "aut", src)
    assert code == 0
    code, spinor_text = run(capsys, "convert", "--to", "spinor", src)
    assert code == 0
    spin_path = tmp_path / "spin.json"
    spin_path.write_text(spinor_text)
    code, back = run(capsys, "convert", "--to", "aut", str(spin_path))
    assert code == 0
    assert back == direct


def test_convert_through_eigenspace(write, capsys, tmp_path):
    rng = Random(2)
    j = random_gcs(rng, 4)
    src = write("j.json", encode_aut(j))
    code, e_text = run(capsys, "convert", "--to", "E", src)
    assert code == 0
    e_path = tmp_path / "e.json"
    e_path.write_text(e_text)
    code, back = run(capsys, "convert", "--to", "aut", str(e_path))
    assert code == 0
    code, direct = run(capsys, "convert", "--to", "aut", src)
    assert back == direct


def test_output_is_deterministic(write, capsys):
    path = write("s.json", encode_aut(symplectic_structure(OMEGA2)))
    _, first = run(capsys, "classify-type", path)
    _, second = run(capsys, "classify-type", path)
    assert first == second


def test_transform_b_then_minus_b_is_identity(write, capsys, tmp_path):
    rng = Random(3)
    j = random_gcs(rng, 4)
    src = write("j.json", encode_aut(j))
    bmat = [["0/1", "2/1", "0/1", "0/1"], ["-2/1", "0/1", "0/1", "0/1"],
            ["0/1", "0/1", "0/1", "1/1"], ["0/1", "0/1", "-1/1", "0/1"]]
    bpath = write("b.json", bmat)
    code, moved = run(capsys, "transform", "--b", bpath, src)
    assert code == 0
    moved_path = tmp_path / "moved.json"
    moved_path.write_text(moved)
    neg = [[_negate(x) for x in row] for row in bmat]
    neg_path = write("nb.json", neg)
    code, back = run(capsys, "transform", "--b", neg_path, str(moved_path))
    code, direct = run(capsys, "convert", "--to", "aut", src)
    assert back == direct


def test_transform_twist_and_dual(write, capsys):
    src = write("c.json", encode_aut(complex_structure(ROT)))
    code, twisted = run(capsys, "transform", "--twist", src)
    assert code == 0
    code, direct = run(capsys, "convert", "--to", "aut", src)
    assert twisted == direct  # twist fixes transformed-free complex structures
    code, dual = run(capsys, "transform", "--dual", src)
    assert code == 0 and json.loads(dual)["repr"] == "aut"


def test_classify_and_recover(write, capsys):
    src = write("s.json", encode_aut(symplectic_structure(OMEGA2)))
    code, out = run(capsys, "classify-type", src)
    assert code == 0
    assert json.loads(out)["is_symplectic"] is True
    code, out = run(capsys, "recover", src)
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "symplectic"
    assert data["b"] == encode_matrix(Matrix.zero(QQ, 2, 2))


def test_subspace_gc_predicate_exit_codes(write, capsys):
    from gclin.classification import build_subnotquot_example

    structure, w, _, _ = build_subnotquot_example()
    src = write("s.json", encode_aut(structure))
    wpath = write("w.json", encode_subspace(w))
    code, out = run(capsys, "subspace", "--test", "gc", "--w", wpath, src)
    assert code == 0 and json.loads(out)["result"] is True
    # isotropic test fails for this W and carries a witness
    code, out = run(capsys, "subspace", "--test", "isotropic", "--w", wpath, src)
    assert code == 1
    assert "witness" in json.loads(out)


def test_subspace_split_search(write, capsys):
    src = write("s.json", encode_aut(symplectic_structure(OMEGA2)))
    wpath = write("w.json", encode_subspace(Subspace.full(QQ, 2)))
    code, out = run(capsys, "subspace", "--test", "split", "--w", wpath, src)
    assert code == 0
    assert json.loads(out)["complement"] == encode_subspace(Subspace.zero(QQ, 2))


def test_induce_quotient_negative_exit(write, capsys):
    from gclin.classification import build_subnotquot_example

    structure, w, _, _ = build_subnotquot_example()
    src = write("s.json", encode_aut(structure))
    wpath = write("w.json", encode_subspace(w))
    code, out = run(capsys, "induce", "--quot", "--w", wpath, src)
    assert code == 1
    data = json.loads(out)
    assert data["is_gc"] is False and data["dim"] == 2 and "witness" in data


def test_decompose_and_canonical(write, capsys):
    rng = Random(4)
    j = random_gcs(rng, 4)
    src = write("j.json", encode_aut(j))
    code, out = run(capsys, "decompose", src)
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"b", "jw", "omega", "s", "w"}
    code, out = run(capsys, "canonical", "--s", src)
    assert code == 0 and "s" in json.loads(out)
    code, out = run(capsys, "canonical", "--c", src)
    assert code == 0 and "complex_structure" in json.loads(out)


def test_compose_and_canonical_rel(write, capsys):
    rng = Random(5)
    a = random_gcs(rng, 2)
    ident = identity_relation(a)
    r1 = write("r1.json", encode_relation(ident))
    r2 = write("r2.json", encode_relation(ident))
    code, out = run(capsys, "compose", r1, r2)
    assert code == 0
    assert json.loads(out)["graph"] == encode_subspace(ident.graph)
    code, out = run(capsys, "canonical-rel", r1)
    assert code == 0 and json.loads(out)["result"] is True
    # a non-canonical relation exits 1 with a witness
    bad = encode_relation(
        map_relation(Matrix.identity(QQ, 2), a, random_gcs(rng, 2))
    )
    code, out = run(capsys, "canonical-rel", write("bad.json", bad))
    if code == 1:
        assert "witness" in json.loads(out)


@pytest.mark.parametrize("verb", ["compose", "canonical-rel"])
def test_relation_endpoints_are_checked_as_structures(write, capsys, verb):
    # J = 0 squares to 0, not -1: an identity graph between two such
    # endpoints is no relation of structures, though it would pass the
    # class tests
    z = Matrix.zero(QQ, 2, 2)
    zero = GCAut(z, z, z, z)
    path = write("zero.json", encode_relation(map_relation(Matrix.identity(QQ, 2), zero, zero)))
    code, out = run(capsys, verb, *[path] * (2 if verb == "compose" else 1))
    assert code == 2
    assert json.loads(out)["error"].startswith("invalid structure: e:1 ")


def test_demo_subnotquot_payload(capsys):
    code, out = run(capsys, "demo", "subnotquot")
    assert code == 0
    data = json.loads(out)
    assert data["is_gc_subspace"] is True
    assert data["is_gc_quotient"] is False
    assert data["witness"] == "pi(p1+i q2)"


def test_demo_notquot_payload(capsys):
    code, out = run(capsys, "demo", "notquot")
    assert code == 0
    data = json.loads(out)
    assert data["dim_ker"] == 4
    assert data["c_is_gc_subspace"] is False
    assert data["quotient_is_gc"] is True
    assert data["quotient_is_beta_symplectic"] is True
    assert data["omega_degenerate_on_c"] is True


def test_demo_graphnotsub_payload(capsys):
    code, out = run(capsys, "demo", "graphnotsub")
    assert code == 0
    data = json.loads(out)
    assert data == {"is_gc_subspace": False, "satisfies_graph_condition": True}


def test_selftest_deterministic_and_green(capsys):
    code, first = run(capsys, "selftest", "--seed", "0")
    assert code == 0
    data = json.loads(first)
    assert data["failed"] == 0
    code, second = run(capsys, "selftest", "--seed", "0")
    assert second == first
    assert all(set(check) == {"name", "ok"} for check in data["checks"])


def _reassemble_raising(d):
    raise ZeroDivisionError("injected")


@pytest.mark.parametrize(
    "module,name,broken,failing,reason",
    [
        (
            classification,
            "reassemble",
            _reassemble_raising,
            "classification-round-trips",
            "ZeroDivisionError: injected",
        ),
        (
            relations,
            "is_canonical",
            lambda r: False,
            "relation-closure",
            "AssertionError: check returned false",
        ),
        # decompose's own reassembly check is the one selftest relies on
        (
            classification,
            "reassemble",
            lambda d: None,
            "classification-round-trips",
            "AssertionError: decomposition failed to reassemble the input",
        ),
        # representation-round-trips rebuilds J from a caller-built E
        (core, "_aut_of", lambda e, b_inv: None, "representation-round-trips", "AssertionError: check returned false"),
    ],
    ids=["raises", "returns-false", "decompose-raises", "rebuild-broken"],
)
def test_selftest_failure_carries_reason(capsys, monkeypatch, module, name, broken, failing, reason):
    monkeypatch.setattr(module, name, broken)
    code, out = run(capsys, "selftest", "--seed", "0")
    assert code == 1
    data = json.loads(out)
    assert (data["failed"], data["passed"]) == (1, 3)
    for check in data["checks"]:
        if check["name"] == failing:
            assert check == {"error": reason, "name": check["name"], "ok": False}
        else:
            assert check == {"name": check["name"], "ok": True}


@pytest.mark.parametrize("argv", [["convert", "--to", "E"], ["classify-type"]])
def test_aut_payload_is_validated_once(write, capsys, monkeypatch, argv):
    # each verb uses the payload's eigenspace, which the loader hands over
    j = random_gcs(Random(7), 2)
    path = write("j.json", encode_aut(j))
    validated = []

    def counting(validate):
        def count(k):
            validated.append(k)
            return validate(k)

        return count

    # every check of a whole structure: the standalone one and the one
    # that solves for the eigenspace
    monkeypatch.setattr(core, "_validated", counting(core._validated))
    monkeypatch.setattr(cli, "_validated", core._validated)
    monkeypatch.setattr(core, "validate_aut", counting(core.validate_aut))
    monkeypatch.setattr(cli, "validate_aut", core.validate_aut)
    code, _ = run(capsys, *argv, path)
    assert code == 0
    assert sum(k == j for k in validated) == 1


def _negate(text):
    value = -QQ.coerce(text)
    return f"{value.numerator}/{value.denominator}"
