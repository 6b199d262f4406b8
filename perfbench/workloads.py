"""Seeded inputs, items and their verification for the four workloads.

gclin sees only the generated inputs.  An item is one unit of work: it
runs, verifies its own result against invariants of the theory (never
against gclin's internal cross-checks), and returns gclin objects that
``encode`` turns into canonical JSON text for the output digests.

A workload is a fixed list of items, the sizes spread evenly through
it, which the timed loop runs in whole passes.  Structures
are stratified by the dimension of their symplectic part, which is what
their cost depends on most, so that two seeds differ in the matrices but
not in the mix of structure types.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from functools import partial
from random import Random

from gclin import classification, cli, core, relations, serialize, spinor, subspaces, transforms
from gclin.fields import QQ
from gclin.linalg import Matrix, Subspace
from gclin.samples import (
    random_bivector,
    random_complex_matrix,
    random_invertible,
    random_subspace,
    random_symplectic_form,
    random_two_form,
)


class VerificationError(Exception):
    """An item's result broke an invariant it must satisfy."""


def check(ok, what):
    if not ok:
        raise VerificationError(what)


def canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Item:
    """One unit of work: ``run()`` does and verifies it, ``encode(result)``
    gives its canonical output text."""

    __slots__ = ("key", "run", "encode")

    def __init__(self, key, run, encode):
        self.key, self.run, self.encode = key, run, encode


def structure(rng: Random, n: int, s: int, with_beta: bool = True) -> core.GCAut:
    """Random structure on R^n whose untransformed symplectic part has dimension s."""
    parts = []
    if s:
        parts.append(core.symplectic_structure(random_symplectic_form(rng, s)))
    if n - s:
        parts.append(core.complex_structure(random_complex_matrix(rng, n - s)))
    j = parts[0] if len(parts) == 1 else core.direct_sum(*parts)
    j = transforms.b_transform(j, random_two_form(rng, n))
    if with_beta:
        j = transforms.beta_transform(j, random_bivector(rng, n))
    return j


def interleave(groups):
    """One list of the items of every group, each group spread evenly over it."""
    tagged = [((k + 0.5) / len(g), n, item) for n, g in groups.items() for k, item in enumerate(g)]
    return [item for *_, item in sorted(tagged, key=lambda t: t[:2])]


def stratified_pool(rng: Random, n: int, count: int):
    """count structures on R^n, cycling the symplectic dimension 0, 2, ..., n."""
    return [structure(rng, n, 2 * (i % (n // 2 + 1))) for i in range(count)]


def mixed_pool(rng: Random, n: int, count: int):
    """count structures on R^n with symplectic and complex parts of about equal size."""
    return [structure(rng, n, 2 * (n // 4)) for _ in range(count)]


# -- roundtrip ---------------------------------------------------------------

# structures at each n: 104 items, a pass of about 6 nominal seconds with
# Fraction scalars.  n = 2 and n = 4 cover each symplectic dimension equally,
# n = 6 and n = 8 (half of the pass) are of mixed type.  The median
# falls among the n = 2 items and the 90th percentile among the n = 4 items.
ROUNDTRIP_POOL = {2: 86, 4: 14, 6: 2, 8: 2}


def roundtrip_cycle(j):
    """to_eigenspace -> to_aut -> spinor_from_subspace -> annihilator_subspace -> to_aut."""
    n = j.n
    e = core.to_eigenspace(j)
    check(e.e.dim == n, "eigenspace is not maximal")
    check(core.to_aut(e) == j, "to_aut(to_eigenspace(j)) != j")
    line = spinor.spinor_from_subspace(e.e)
    check(not line.rep.is_zero(), "zero spinor")
    back = spinor.annihilator_subspace(line.rep)
    check(back == e.e, "annihilator of the spinor != E")
    check(core.to_aut(core.IsotropicE(n, back)) == j, "to_aut(annihilator) != j")
    return e, line


def encode_roundtrip(out):
    e, line = out
    return canonical_json([serialize.encode_eigenspace(e), serialize.encode_spinor(line.rep)])


class Roundtrip:
    name = "roundtrip"
    reference = "fraction"

    def __init__(self, seed: int):
        rng = Random(f"roundtrip/{seed}")
        self.pools = {
            n: (stratified_pool if n <= 4 else mixed_pool)(rng, n, c) for n, c in ROUNDTRIP_POOL.items()
        }

    def items(self):
        groups = {}
        for n, pool in self.pools.items():
            groups[n] = [Item(f"n{n}/{i}", partial(roundtrip_cycle, j), encode_roundtrip) for i, j in enumerate(pool)]
        return interleave(groups)


# -- classify ----------------------------------------------------------------

# structures at each n, each symplectic dimension equally often; each
# structure gives 7 items, 217 items in a pass of about 5 nominal seconds.
# The n = 2 weight puts the median and the 90th percentile inside dense
# bands of item times.  n = 6 and n = 8 stay in the traced size sweep: one n = 8
# pipeline takes about 10 s.
CLASSIFY_POOL = {2: 28, 4: 3}


def decompose_item(state):
    j = state["j"]
    d = classification.decompose(j)
    check(classification.reassemble(d) == j, "reassemble(decompose(j)) != j")
    check(d.s.dim + d.w.dim == j.n, "decomposition dimensions do not add up")
    check(d.omega.m.is_invertible(), "symplectic part is degenerate")
    state["s"] = d.s
    return d


def encode_decomposition(d):
    return {
        "b": serialize.encode_matrix(d.b.m),
        "jw": serialize.encode_matrix(d.jw),
        "omega": serialize.encode_matrix(d.omega.m),
        "s": serialize.encode_subspace(d.s),
        "w": serialize.encode_subspace(d.w),
    }


def classify_type_item(state):
    j = state["j"]
    t = transforms.classify_type(j)
    by_blocks = (
        j.j2.is_zero() and j.j3.is_zero(),
        j.j2.is_zero(),
        j.j3.is_zero(),
        j.j1.is_zero(),
        j.j2.is_invertible(),
        j.j3.is_invertible(),
    )
    flags = (
        t.is_complex,
        t.is_b_complex,
        t.is_beta_complex,
        t.is_symplectic,
        t.is_b_symplectic,
        t.is_beta_symplectic,
    )
    check(flags == by_blocks, "type flags disagree with their block definitions")
    return t


def encode_type(t):
    return {
        "b_complex": t.is_b_complex,
        "b_symplectic": t.is_b_symplectic,
        "beta_complex": t.is_beta_complex,
        "beta_symplectic": t.is_beta_symplectic,
        "complex": t.is_complex,
        "symplectic": t.is_symplectic,
    }


def recover_item(state):
    j = state["j"]
    recoverable = j.j2.is_zero() or j.j2.is_invertible()
    try:
        rec = transforms.recover(j)
    except ValueError:
        check(not recoverable, "recover refused a B-complex or B-symplectic structure")
        return None
    check(recoverable, "recover accepted a structure of mixed type")
    if rec.kind == "symplectic":
        classical = core.symplectic_structure(rec.omega)
    else:
        classical = core.complex_structure(rec.jmat)
    check(transforms.b_transform(classical, rec.b) == j, "recovered data do not reassemble")
    return rec


def encode_recovered(rec):
    if rec is None:
        return None
    core_data = rec.omega.m if rec.kind == "symplectic" else rec.jmat
    return {"b": serialize.encode_matrix(rec.b.m), "kind": rec.kind, "m": serialize.encode_matrix(core_data)}


def canonical_s_item(state):
    s = classification.canonical_s(state["j"])
    # S is invariant under B-transforms, and decompose takes it after one
    check(s == state["s"], "canonical_s differs from the decomposition's S")
    return s


def canonical_c_item(state):
    c, jc = classification.canonical_c(state["j"])
    check(c.dim % 2 == 0, "canonical C has odd dimension")
    check(jc @ jc == -Matrix.identity(QQ, c.dim), "complex structure on C does not square to -1")
    return c, jc


def encode_canonical_c(out):
    c, jc = out
    return {"c": serialize.encode_subspace(c), "jc": serialize.encode_matrix(jc)}


def induce_item(state, quotient):
    j, w = state["j"], state["w"]
    ind = (subspaces.induce_on_quotient if quotient else subspaces.induce_on_subspace)(j, w)
    expected = j.n - w.dim if quotient else w.dim
    check(ind.ew.dim == expected, "induced eigenspace has the wrong dimension")
    check(ind.is_gc == ind.ew.intersect(ind.ew.conjugate()).is_zero(), "induced verdict is wrong")
    return ind


def encode_induced(ind):
    out = {"ew": serialize.encode_subspace(ind.ew), "is_gc": ind.is_gc}
    if ind.is_gc:
        out["jw"] = serialize.encode_aut(ind.jw)
    return out


def encode_step(encode, out):
    return canonical_json(encode(out))


CLASSIFY_STEPS = (
    ("decompose", decompose_item, encode_decomposition),
    ("classify_type", classify_type_item, encode_type),
    ("recover", recover_item, encode_recovered),
    ("canonical_s", canonical_s_item, serialize.encode_subspace),
    ("canonical_c", canonical_c_item, encode_canonical_c),
    ("induce_sub", partial(induce_item, quotient=False), encode_induced),
    ("induce_quot", partial(induce_item, quotient=True), encode_induced),
)


class Classify:
    name = "classify"
    reference = "fraction"

    def __init__(self, seed: int):
        rng = Random(f"classify/{seed}")
        self.pools = {}
        for n, count in CLASSIFY_POOL.items():
            self.pools[n] = [
                {"j": j, "w": random_subspace(rng, n)} for j in stratified_pool(rng, n, count)
            ]

    def items(self):
        """The steps of each structure in order: canonical_s needs the S of decompose."""
        pipelines = {}
        for n, pool in self.pools.items():
            pipelines[n] = [
                [Item(f"n{n}/{i}/{step}", partial(fn, st), partial(encode_step, enc)) for step, fn, enc in CLASSIFY_STEPS]
                for i, st in enumerate(pool)
            ]
        return [item for pipeline in interleave(pipelines) for item in pipeline]


# -- relations ---------------------------------------------------------------

# pairs at each n, each symplectic dimension equally often; every third
# pair is widened
RELATIONS_POOL = {2: 70, 4: 30}


def relation_pair(rng: Random, n: int, s: int, widen: bool):
    a = structure(rng, n, s)
    mu1 = random_invertible(rng, n)
    b = core.conjugate_by_basis(a, mu1)
    mu2 = random_invertible(rng, n)
    c = core.conjugate_by_basis(b, mu2)
    gamma = relations.map_relation(mu1, a, b)
    phi = relations.map_relation(mu2, b, c)
    if widen:
        gamma = relations.LinearRelation(a, b, gamma.graph.sum(Subspace.zero(QQ, 2 * n)))
    return {"a": a, "b": b, "mu1": mu1, "gamma": gamma, "phi": phi}


def relations_item(p):
    gamma, phi = p["gamma"], p["phi"]
    for rel in (gamma, phi):
        check(relations.is_canonical(rel), "input relation is not canonical")
        check(relations.is_isotropic_relation(rel), "input relation is not isotropic")
        check(relations.is_coisotropic_relation(rel), "input relation is not coisotropic")
    composed = relations.compose(phi, gamma)
    check(composed.graph.dim == gamma.source.n, "composite has the wrong dimension")
    check(relations.is_isotropic_relation(composed), "composite is not isotropic")
    check(relations.is_coisotropic_relation(composed), "composite is not coisotropic")
    check(relations.is_canonical(composed), "composite is not canonical")
    check(relations.annihilator_composition_identity(phi, gamma), "annihilator identity fails")
    check(relations.graph_iso_test(p["mu1"], p["a"], p["b"]), "graph of an isomorphism rejected")
    return composed


def encode_relation(rel):
    return canonical_json(serialize.encode_relation(rel))


class Relations:
    name = "relations"
    reference = "fraction"

    def __init__(self, seed: int):
        rng = Random(f"relations/{seed}")
        self.pools = {}
        for n, count in RELATIONS_POOL.items():
            self.pools[n] = [
                relation_pair(rng, n, 2 * (i // 3 % (n // 2 + 1)), i % 3 == 2) for i in range(count)
            ]

    def items(self):
        groups = {}
        for n, pool in self.pools.items():
            groups[n] = [Item(f"n{n}/{i}", partial(relations_item, p), encode_relation) for i, p in enumerate(pool)]
        return interleave(groups)


# -- cli ---------------------------------------------------------------------

# one payload set per entry: two at n = 2, one at n = 4, 53 items in a
# pass of about 6 nominal seconds
CLI_SIZES = (2, 2, 4)
# verbs whose exit code is a predicate verdict (0 true, 1 false)
PREDICATE_VERBS = ("subspace", "induce")


def write_json(path, value):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(value))


def cli_payloads(rng: Random, n: int, tag: str, folder: str):
    """Write one payload set on R^n; returns the argument lists to run on it."""
    j = structure(rng, n, 2 * (n // 4))
    pure = structure(rng, n, n, with_beta=False)
    p = relation_pair(rng, n, 2 * (n // 4), False)

    def path(name):
        return os.path.join(folder, f"{tag}-{name}.json")

    write_json(path("j"), serialize.encode_aut(j))
    write_json(path("pure"), serialize.encode_aut(pure))
    write_json(path("w"), serialize.encode_subspace(random_subspace(rng, n, n // 2)))
    write_json(path("b"), serialize.encode_matrix(random_two_form(rng, n).m))
    write_json(path("beta"), serialize.encode_matrix(random_bivector(rng, n).m))
    write_json(path("rel1"), serialize.encode_relation(p["phi"]))
    write_json(path("rel2"), serialize.encode_relation(p["gamma"]))
    J, W = path("j"), path("w")
    argvs = [
        ["validate", J],
        ["convert", "--to", "E", J],
        ["convert", "--to", "spinor", J],
        ["transform", "--b", path("b"), J],
        ["transform", "--beta", path("beta"), J],
        ["transform", "--twist", J],
        ["classify-type", J],
        ["recover", path("pure")],
        ["subspace", "--test", "gc", "--w", W, J],
        ["subspace", "--test", "lagrangian", "--w", W, J],
        ["induce", "--sub", "--w", W, J],
        ["induce", "--quot", "--w", W, J],
        ["compose", path("rel1"), path("rel2")],
        ["canonical-rel", path("rel1")],
        ["transform", "--dual", J],
    ]
    if n == 2:
        # at n = 4 these take 0.5 to 0.8 s, three times the other verbs, and
        # the classify workload already times them
        argvs += [["decompose", J], ["canonical", "--s", J], ["canonical", "--c", J]]
    return argvs


def check_cli_output(argv, code, out: bytes, err: bytes):
    """Check the exit code, stderr and stdout of one gclin invocation."""
    check(not err, "stderr is not empty: " + err.decode(errors="replace")[-200:])
    check(out.endswith(b"\n") and out.count(b"\n") == 1, "stdout is not one line")
    try:
        payload = json.loads(out)
    except ValueError:
        raise VerificationError("stdout is not JSON") from None
    check(isinstance(payload, dict) and "error" not in payload, f"error output: {out[:200]!r}")
    if argv[0] in PREDICATE_VERBS:
        verdict = payload.get("result", payload.get("is_gc"))
        check(code == (0 if verdict else 1), f"exit code {code} does not match the verdict")
    else:
        check(code == 0, f"unexpected exit code {code}")
    if argv[0] == "canonical-rel":
        check(payload == {"result": True}, "graph relation reported as not canonical")


class Cli:
    """One ``python -m gclin`` child per item, run from the checkout's source."""

    name = "cli"

    def __init__(self, seed: int, src: str, folder: str):
        rng = Random(f"cli/{seed}")
        self.folder = folder
        os.makedirs(folder, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=src)
        self.argvs = {k: cli_payloads(rng, n, f"n{n}-{k}", folder) for k, n in enumerate(CLI_SIZES)}
        self.argvs[len(CLI_SIZES)] = [["demo", "subnotquot"], ["demo", "graphnotsub"]]
        self.in_process = False

    @property
    def reference(self):
        """A child's cost is mostly interpreter start; an in-process call's is Python work."""
        return "fraction" if self.in_process else "interpreter"

    def run_child(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "gclin", *argv], capture_output=True, env=self.env, check=False
        )
        check_cli_output(argv, proc.returncode, proc.stdout, proc.stderr)
        return proc.stdout

    def run_in_process(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out = buf.getvalue().encode()
        check_cli_output(argv, code, out, b"")
        return out

    def items(self):
        run = self.run_in_process if self.in_process else self.run_child
        groups = {}
        for k, argvs in self.argvs.items():
            groups[k] = [Item(" ".join(map(os.path.basename, a)), partial(run, a), bytes.decode) for a in argvs]
        return interleave(groups)


def make(name: str, seed: int, root: str):
    if name == "cli":
        folder = os.path.join(root, "perfbench", "out", f"cli-{os.getpid()}")
        return Cli(seed, os.path.join(root, "src"), folder)
    return {"roundtrip": Roundtrip, "classify": Classify, "relations": Relations}[name](seed)
