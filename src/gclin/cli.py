"""Command-line front end.

Every verb reads JSON payloads, dispatches to one library operation
family, and prints a single JSON object with deterministic key order.
Exit codes: 0 = success or predicate true, 1 = predicate false,
2 = malformed input or invalid structure, 3 = internal error (a failed
cross-check or an arithmetic or type fault), reported by exception type
and message.  A file that cannot be read, is not JSON or nests too deeply
for the parser exits 2.

``subspace`` and ``canonical-rel`` print through ``_emit_verdict``:
``result``, a ``witness`` when it is false, and any extra keys.  The
tests in ``_WITNESSES`` (gc, isotropic, coisotropic, lagrangian) and
``canonical-rel`` give a vector as witness; ``graph`` and ``split``
still give a message.

A CLI run is one short process, so its start-up is part of every verb's
cost.  Only ``core``, ``fields``, ``linalg`` and ``serialize`` load with
this module; each verb imports the rest of gclin where it runs, and the
spinor layer only on the branches that handle spinors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    EQUATION_LABELS,
    BiVector,
    GCAut,
    IsotropicE,
    TwoForm,
    _validated,
    dualize,
    to_aut,
    to_eigenspace,
    twist,
    validate_aut,
    validate_eigenspace,
)
from .fields import QI, QQ, I
from .linalg import Matrix, Subspace
from .serialize import (
    decode_gcs,
    decode_relation,
    decode_subspace,
    decode_two_form_matrix,
    encode_aut,
    encode_eigenspace,
    encode_matrix,
    encode_relation,
    encode_spinor,
    encode_standard_form,
    encode_subspace,
    encode_vector,
)


# A spinor on an n-dimensional carrier has up to 2^n terms (2^(n/2) for a
# symplectic structure), so spinor payloads and verbs that build a spinor
# are refused above this size.
MAX_SPINOR_N = 16


class CliError(Exception):
    """Input or domain error; reported as JSON on exit code 2."""


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _describe_exception(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}") from None
    except RecursionError:
        raise CliError(f"malformed JSON in {path}: nested too deeply") from None


# What the loader prints for each label of spinor.structure_from_spinor
_SPINOR_ERRORS = {
    "zero": "zero spinor",
    "purity": "spinor is not pure",
    "conjugate-pairing": "spinor pairs to zero with its conjugate",
}


def _structure_to_aut(obj) -> GCAut:
    if isinstance(obj, GCAut):
        check = _validated(obj)
        if not check:
            raise CliError("invalid structure: " + ", ".join(_labeled(check.violations)))
        return obj
    if isinstance(obj, IsotropicE):
        try:
            return to_aut(obj)
        except ValueError as exc:
            raise CliError(f"invalid structure: {exc}") from None
    from .multivector import Multivector

    if isinstance(obj, Multivector):
        from .spinor import structure_from_spinor

        j = structure_from_spinor(obj)
        if isinstance(j, str):
            raise CliError("invalid structure: " + _SPINOR_ERRORS[j])
        return j
    raise CliError("unsupported structure payload")


def _load_gcs(path: str, builds_spinor: bool = False):
    """Decode a structure payload, refusing spinor sizes over MAX_SPINOR_N."""
    payload = _load_json(path)
    if isinstance(payload, dict) and (builds_spinor or payload.get("repr") == "spinor"):
        n = payload.get("n")
        if isinstance(n, int) and n > MAX_SPINOR_N:
            raise CliError(f"spinor size limit: n = {n} exceeds MAX_SPINOR_N = {MAX_SPINOR_N}")
    return decode_gcs(payload)


def _load_aut(path: str, builds_spinor: bool = False) -> GCAut:
    return _structure_to_aut(_load_gcs(path, builds_spinor))


def _labeled(violations) -> list:
    """Each violation's label, followed by its equation for J's e:k."""
    return [f"{v} {EQUATION_LABELS[v]}" if v in EQUATION_LABELS else v for v in violations]


def _cmd_validate(args) -> int:
    obj = _load_gcs(args.file)
    if isinstance(obj, GCAut):
        violations = validate_aut(obj).violations
    elif isinstance(obj, IsotropicE):
        violations = validate_eigenspace(obj).violations
    else:
        from .spinor import structure_from_spinor

        verdict = structure_from_spinor(obj)
        # a zero form is not a pure spinor, and validate reports it so
        violations = [] if isinstance(verdict, GCAut) else ["purity" if verdict == "zero" else verdict]
    _emit({"result": not violations, "violations": _labeled(violations)})
    return 1 if violations else 0


def _cmd_convert(args) -> int:
    j = _load_aut(args.file, builds_spinor=args.to == "spinor")
    if args.to == "aut":
        _emit(encode_aut(j))
    elif args.to == "E":
        _emit(encode_eigenspace(to_eigenspace(j)))
    else:
        from .spinor import mukai_pairing, spinor_with_standard_form

        line, sf = spinor_with_standard_form(to_eigenspace(j).e)
        # Chevalley's criterion: E meets its conjugate only in 0
        if not mukai_pairing(line.rep, line.rep.conjugate()):
            raise AssertionError("the spinor of a structure pairs to zero with its conjugate")
        payload = encode_spinor(line.rep)
        payload["standard_form"] = encode_standard_form(sf)
        _emit(payload)
    return 0


def _cmd_transform(args) -> int:
    j = _load_aut(args.file)
    if args.b:
        from .transforms import b_transform

        m = decode_two_form_matrix(_load_json(args.b), j.n)
        out = b_transform(j, TwoForm(m))
    elif args.beta:
        from .transforms import beta_transform

        m = decode_two_form_matrix(_load_json(args.beta), j.n)
        out = beta_transform(j, BiVector(m))
    elif args.twist:
        out = twist(j)
    else:
        out = dualize(j)
    _emit(encode_aut(out))
    return 0


def _cmd_classify_type(args) -> int:
    from .transforms import classify_type

    t = classify_type(_load_aut(args.file))
    _emit({field: getattr(t, field) for field in t._fields})
    return 0


def _cmd_recover(args) -> int:
    from .transforms import recover

    data = recover(_load_aut(args.file))
    out = {"b": encode_matrix(data.b.m), "kind": data.kind}
    if data.kind == "symplectic":
        out["omega"] = encode_matrix(data.omega.m)
    else:
        out["j"] = encode_matrix(data.jmat)
    _emit(out)
    return 0


def _load_subspace(path: str, n: int) -> Subspace:
    sub = decode_subspace(_load_json(path), QQ)
    if sub.ambient_dim != n:
        raise CliError("subspace ambient dimension does not match the structure")
    return sub


def _emit_verdict(ok, witness, extra=None) -> int:
    """Print a predicate's verdict, its witness when it is false, and any
    extra keys; the exit code is the verdict's."""
    out = {"result": ok, **(extra or {})}
    if not ok:
        out["witness"] = witness
    _emit(out)
    return 0 if ok else 1


# The subspace tests whose negative verdict is a vector of V + V*: each
# takes the subspaces module, which the verb running it imports, and
# returns None when W passes, else the witness.
_WITNESSES = {
    "gc": lambda s, j, w: s.induce_on_subspace(j, w).witness,
    "isotropic": lambda s, j, w: s.generalized_isotropic_witness(j, w),
    "coisotropic": lambda s, j, w: s.generalized_coisotropic_witness(j, w),
    "lagrangian": lambda s, j, w: (
        s.generalized_isotropic_witness(j, w) or s.generalized_coisotropic_witness(j, w)
    ),
}


def _emit_witness(test, j, w) -> int:
    """Run one of the tests in _WITNESSES and print its verdict."""
    from . import subspaces

    witness = _WITNESSES[test](subspaces, j, w)
    return _emit_verdict(witness is None, None if witness is None else encode_vector(witness))


def _cmd_subspace(args) -> int:
    from . import subspaces

    j = _load_aut(args.file)
    w = _load_subspace(args.w, j.n)
    if args.test in _WITNESSES:
        return _emit_witness(args.test, j, w)
    if args.test == "graph":
        if not args.k:
            raise CliError("--test graph needs --k with a structure on W")
        ok = subspaces.satisfies_graph_condition(j, w, _structure_to_aut(_load_gcs(args.k)))
        return _emit_verdict(ok, "graph generator escapes the graph-plus-annihilator")
    if args.n:
        complement = _load_subspace(args.n, j.n)
        ok = subspaces.verify_split(j, w, complement)
        why = "carrier does not split along the given pair"
    else:
        complement = subspaces.find_split_complement(j, w)
        ok = complement is not None
        why = "no splitting complement exists"
    return _emit_verdict(ok, why, {"complement": encode_subspace(complement)} if ok else None)


def _cmd_induce(args) -> int:
    from .subspaces import induce_on_quotient, induce_on_subspace

    j = _load_aut(args.file)
    w = _load_subspace(args.w, j.n)
    ind = induce_on_subspace(j, w) if args.sub else induce_on_quotient(j, w)
    out = {
        "dim": ind.ew.dim,
        "ew": encode_subspace(ind.ew),
        "is_gc": ind.is_gc,
    }
    if ind.is_gc:
        out["jw"] = encode_aut(ind.jw)
    else:
        out["witness"] = encode_vector(ind.witness)
    _emit(out)
    return 0 if ind.is_gc else 1


def _cmd_decompose(args) -> int:
    from .classification import decompose

    d = decompose(_load_aut(args.file))
    _emit(
        {
            "b": encode_matrix(d.b.m),
            "jw": encode_matrix(d.jw),
            "omega": encode_matrix(d.omega.m),
            "s": encode_subspace(d.s),
            "w": encode_subspace(d.w),
        }
    )
    return 0


def _cmd_canonical(args) -> int:
    from .classification import canonical_c, canonical_s

    j = _load_aut(args.file)
    if args.s:
        _emit({"s": encode_subspace(canonical_s(j))})
    else:
        c, jc = canonical_c(j)
        _emit({"c": encode_subspace(c), "complex_structure": encode_matrix(jc)})
    return 0


def _cmd_compose(args) -> int:
    from .relations import compose

    first = decode_relation(_load_json(args.rel1), _structure_to_aut)
    second = decode_relation(_load_json(args.rel2), _structure_to_aut)
    _emit(encode_relation(compose(first, second)))
    return 0


def _cmd_canonical_rel(args) -> int:
    # canonical relations are the generalized Lagrangian ones: the subspace
    # verb's witness search on the graph in the twisted product
    rel = decode_relation(_load_json(args.rel), _structure_to_aut)
    return _emit_witness("lagrangian", rel.twisted, rel.graph)


# Each demo builds a fixture of the paper, raises AssertionError when a
# verdict the paper states for it has changed, and returns the payload
# the demo verb prints.  selftest's paper-fixtures check runs them all.


def _demo_subnotquot():
    from .classification import build_subnotquot_example
    from .subspaces import induce_on_quotient, induce_on_subspace

    structure, w, _, _ = build_subnotquot_example()
    ind = induce_on_subspace(structure, w)
    quot = induce_on_quotient(structure, w)
    if not ind.is_gc or quot.is_gc:
        raise AssertionError("fixture verdicts changed")
    # pi(p1 + i q2) in quotient coordinates (pi(p2), pi(q2))
    witness = [QI.zero, I, QI.zero, QI.zero]
    bad = quot.ew.intersect(quot.ew.conjugate())
    if not bad.contains(witness):
        raise AssertionError("stated witness left the intersection")
    return {
        "is_gc_quotient": False,
        "is_gc_subspace": True,
        "witness": "pi(p1+i q2)",
        "witness_vector": encode_vector(witness),
    }


def _demo_notquot():
    from .classification import build_notquot_example, canonical_c
    from .subspaces import induce_on_quotient, induce_on_subspace
    from .transforms import classify_type

    structure, omega, t = build_notquot_example()
    ker = (Matrix.identity(QQ, structure.n) + t @ t).kernel()
    if ker.dim != 4:
        raise AssertionError("the kernel of 1 + T^2 is not 4-dimensional")
    c, _ = canonical_c(structure)
    if c != ker:
        raise AssertionError("canonical subspace differs from the kernel")
    ind = induce_on_subspace(structure, c)
    quot = induce_on_quotient(structure, c)
    if ind.is_gc or not quot.is_gc:
        raise AssertionError("fixture verdicts changed")
    return {
        "c_is_gc_subspace": False,
        "dim_ker": ker.dim,
        "omega_degenerate_on_c": not omega.restrict(c.basis.data).m.is_invertible(),
        "quotient_is_beta_symplectic": classify_type(quot.jw).is_beta_symplectic,
        "quotient_is_gc": True,
    }


def _demo_graphnotsub():
    from .classification import build_graphnotsub_example
    from .subspaces import induce_on_subspace, satisfies_graph_condition

    structure, w, k = build_graphnotsub_example()
    if not satisfies_graph_condition(structure, w, k) or induce_on_subspace(structure, w).is_gc:
        raise AssertionError("fixture verdicts changed")
    return {"is_gc_subspace": False, "satisfies_graph_condition": True}


_DEMOS = {
    "subnotquot": _demo_subnotquot,
    "notquot": _demo_notquot,
    "graphnotsub": _demo_graphnotsub,
}


def _cmd_demo(args) -> int:
    _emit(_DEMOS[args.name]())
    return 0


def _selftest_checks(seed: int):
    from random import Random

    from .classification import decompose
    from .relations import annihilator_composition_identity, compose, is_canonical
    from .samples import random_gcs, random_relation_chain
    from .spinor import annihilator_subspace, spinor_from_subspace

    rng = Random(seed)
    checks = []

    def record(name, fn):
        entry = {"name": name, "ok": True}
        try:
            if not fn():
                raise AssertionError("check returned false")
        except Exception as exc:
            entry.update(ok=False, error=_describe_exception(exc))
        checks.append(entry)

    def fixtures():
        for demo in _DEMOS.values():
            demo()
        return True

    record("paper-fixtures", fixtures)

    def round_trips():
        for n in (2, 4):
            for _ in range(3):
                j = random_gcs(rng, n)
                e = to_eigenspace(j)
                # a fresh E keeps no J, so J is rebuilt from it and checked
                if to_aut(IsotropicE(n, e.e)) != j:
                    return False
                line = spinor_from_subspace(e.e)
                back = annihilator_subspace(line.rep)
                if back != e.e:
                    return False
        return True

    record("representation-round-trips", round_trips)

    def decomposition():
        # decompose reassembles its result and raises when it is not the input
        for n in (2, 4):
            for _ in range(2):
                decompose(random_gcs(rng, n))
        return True

    record("classification-round-trips", decomposition)

    def relations():
        for _ in range(3):
            chain = random_relation_chain(rng, 4, 2)
            composed = compose(chain[1], chain[0])
            if not is_canonical(composed):
                return False
            if not annihilator_composition_identity(chain[1], chain[0]):
                return False
        return True

    record("relation-closure", relations)
    return checks


def _cmd_selftest(args) -> int:
    checks = _selftest_checks(args.seed)
    failed = sum(1 for check in checks if not check["ok"])
    payload = {
        "checks": checks,
        "failed": failed,
        "passed": len(checks) - failed,
        "seed": args.seed,
    }
    _emit(payload)
    return 0 if payload["failed"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gclin",
        description="Exact computations with generalized complex structures.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a structure payload")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("--to", required=True, choices=["aut", "E", "spinor"])
    p.add_argument("file")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser("transform", help="apply a transform")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--b", metavar="MATRIX_FILE")
    group.add_argument("--beta", metavar="MATRIX_FILE")
    group.add_argument("--twist", action="store_true")
    group.add_argument("--dual", action="store_true")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("classify-type", help="detect transformed classical types")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_classify_type)

    p = sub.add_parser("recover", help="recover classical data behind a transform")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("subspace", help="test a subspace")
    p.add_argument("--test", required=True, choices=[*_WITNESSES, "graph", "split"])
    p.add_argument("--w", required=True, metavar="SUBSPACE_FILE")
    p.add_argument("--k", metavar="GCS_FILE")
    p.add_argument("--n", metavar="SUBSPACE_FILE")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_subspace)

    p = sub.add_parser("induce", help="induce a structure on a subspace or quotient")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sub", action="store_true")
    group.add_argument("--quot", action="store_true")
    p.add_argument("--w", required=True, metavar="SUBSPACE_FILE")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_induce)

    p = sub.add_parser("decompose", help="factor into transformed classical pieces")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("canonical", help="canonical subspaces")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--s", action="store_true")
    group.add_argument("--c", action="store_true")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("compose", help="compose two relations (first after second)")
    p.add_argument("rel1")
    p.add_argument("rel2")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("canonical-rel", help="test a relation for canonicity")
    p.add_argument("rel")
    p.set_defaults(fn=_cmd_canonical_rel)

    p = sub.add_parser("demo", help="run a built-in fixture")
    p.add_argument("name", choices=list(_DEMOS))
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("selftest", help="run condensed self checks")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:
        _emit({"error": str(exc)})
        return 2
    except (AssertionError, ZeroDivisionError, TypeError) as exc:
        _emit({"error": _describe_exception(exc)})
        return 3


if __name__ == "__main__":
    sys.exit(main())
