"""JSON encoding of every exchange payload.

Rationals travel as reduced "p/q" strings so no precision is lost;
Gaussian rationals as {"re", "im"} objects; matrices as row-major nested
arrays; subspaces as {"ambient_dim", "basis"}.  Encoders emit canonical
values, so serializing the same object twice gives identical text.

The multivector and relation coders import their layers when they run,
so decoding and encoding structures, subspaces and matrices loads only
``core``, ``fields`` and ``linalg``.
"""

from __future__ import annotations

import re

from .core import GCAut, IsotropicE
from .fields import QI, QQ, GaussianRational, format_rational, rational, rational_from_ints
from .linalg import Matrix, Subspace

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .multivector import Multivector
    from .relations import LinearRelation
    from .spinor import StandardForm


class PayloadError(ValueError):
    """Malformed input payload."""


def encode_rational(x) -> str:
    return format_rational(x)


_RATIONAL_LITERAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_ECHO_CHARS = 80


def _echo(data) -> str:
    """repr(data) for an error message, cut to _ECHO_CHARS characters with
    an ellipsis, so that one bad entry cannot make the message as large as
    the payload; shorter values print whole."""
    text = repr(data)
    return text if len(text) <= _ECHO_CHARS else text[: _ECHO_CHARS - 3] + "..."


def decode_rational(data):
    """A JSON integer, or a string "p" or "p/q" of ASCII digits with q != 0.

    The digits the grammar matched become the rational directly; nothing
    parses the string a second time.
    """
    if isinstance(data, bool) or not isinstance(data, (str, int)):
        raise PayloadError(f"expected a rational string, got {_echo(data)}")
    if isinstance(data, int):
        return rational(data)
    match = _RATIONAL_LITERAL.fullmatch(data)
    if not match:
        raise PayloadError(f"bad rational {_echo(data)}: expected an integer or 'p/q'")
    num, den = match.groups()
    try:
        return rational_from_ints(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise PayloadError(f"bad rational {_echo(data)}: {exc}") from None


def encode_gaussian(x: GaussianRational) -> dict:
    return {"im": format_rational(x.im), "re": format_rational(x.re)}


def decode_gaussian(data) -> GaussianRational:
    if isinstance(data, dict):
        extra = set(data) - {"re", "im"}
        if extra:
            raise PayloadError(f"unexpected keys in scalar: {_echo(sorted(extra))}")
        return GaussianRational(
            decode_rational(data.get("re", 0)), decode_rational(data.get("im", 0))
        )
    return GaussianRational(decode_rational(data))


def encode_matrix(m: Matrix) -> list:
    if m.field is QQ:
        return [[encode_rational(x) for x in row] for row in m.data]
    return [[encode_gaussian(x) for x in row] for row in m.data]


def decode_matrix(data, field, cols=None) -> Matrix:
    if not isinstance(data, list) or any(not isinstance(r, list) for r in data):
        raise PayloadError("matrix payload must be a nested array")
    decode = decode_rational if field is QQ else decode_gaussian
    try:
        return Matrix(field, [[decode(x) for x in row] for row in data], cols=cols)
    except ValueError as exc:
        raise PayloadError(str(exc)) from None


def encode_subspace(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": encode_matrix(s.basis)}


def decode_subspace(data, field) -> Subspace:
    if not isinstance(data, dict) or "ambient_dim" not in data:
        raise PayloadError("subspace payload needs ambient_dim and basis")
    ambient = data["ambient_dim"]
    if not isinstance(ambient, int) or ambient < 0:
        raise PayloadError("ambient_dim must be a nonnegative integer")
    basis = decode_matrix(data.get("basis", []), field, cols=ambient)
    if basis.rows and basis.cols != ambient:
        raise PayloadError("basis width does not match ambient_dim")
    return Subspace.from_spanning(field, ambient, basis)


def decode_two_form_matrix(data, n=None) -> Matrix:
    m = decode_matrix(data, QQ)
    if m.rows != m.cols or (n is not None and m.rows != n):
        raise PayloadError("two-form matrix has the wrong shape")
    if not m.is_skew():
        raise PayloadError("two-form matrix must be skew")
    return m


def encode_aut(j: GCAut) -> dict:
    return {
        "j": {
            "j1": encode_matrix(j.j1),
            "j2": encode_matrix(j.j2),
            "j3": encode_matrix(j.j3),
            "j4": encode_matrix(j.j4),
        },
        "n": j.n,
        "repr": "aut",
    }


def encode_eigenspace(e: IsotropicE) -> dict:
    return {"E": encode_subspace(e.e), "n": e.n, "repr": "E"}


def encode_multivector(mv: Multivector) -> list:
    from .multivector import mask_to_indices

    # distinct masks have distinct index tuples, so the sort never reaches the mask
    terms = mv.terms
    keyed = sorted((mask_to_indices(m), m) for m in terms)
    return [
        {"coeff": encode_gaussian(terms[mask]), "indices": [i + 1 for i in indices]}
        for indices, mask in keyed
    ]


def decode_multivector(data, n: int) -> Multivector:
    from .multivector import Multivector, indices_to_mask

    if not isinstance(data, list):
        raise PayloadError("multivector payload must be a list of terms")
    terms = {}
    for item in data:
        if not isinstance(item, dict) or "indices" not in item or "coeff" not in item:
            raise PayloadError("each term needs indices and coeff")
        indices = item["indices"]
        if not isinstance(indices, list):
            raise PayloadError("term indices must be a list")
        if any(isinstance(i, bool) or not isinstance(i, int) or i < 1 or i > n for i in indices):
            raise PayloadError("term indices must lie in 1..n")
        try:
            mask = indices_to_mask([i - 1 for i in indices])
        except ValueError as exc:
            raise PayloadError(str(exc)) from None
        coeff = decode_gaussian(item["coeff"])
        if mask in terms:
            raise PayloadError("repeated term in multivector")
        terms[mask] = coeff
    return Multivector(n, terms)


def encode_spinor(mv: Multivector) -> dict:
    return {"n": mv.n, "repr": "spinor", "spinor": encode_multivector(mv)}


def encode_standard_form(sf: StandardForm) -> dict:
    return {
        "c": encode_gaussian(sf.c),
        "factors": [encode_multivector(f) for f in sf.factors],
        "k": sf.k,
        "u": encode_multivector(sf.u),
    }


def decode_gcs(data):
    """Decode a structure payload; returns a GCAut, IsotropicE or Multivector."""
    if not isinstance(data, dict):
        raise PayloadError("structure payload must be an object")
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise PayloadError("structure payload needs a nonnegative integer n")
    repr_tag = data.get("repr")
    if repr_tag == "aut":
        blocks = data.get("j")
        if not isinstance(blocks, dict):
            raise PayloadError("aut payload needs a j block object")
        try:
            mats = [
                decode_matrix(blocks[k], QQ, cols=n) for k in ("j1", "j2", "j3", "j4")
            ]
        except KeyError as exc:
            raise PayloadError(f"missing block {exc}") from None
        for m in mats:
            if m.rows != n or m.cols != n:
                raise PayloadError("blocks must be n x n")
        return GCAut(*mats)
    if repr_tag == "E":
        sub = decode_subspace(data.get("E"), QI)
        if sub.ambient_dim != 2 * n:
            raise PayloadError("eigenspace ambient must be 2n")
        return IsotropicE(n, sub)
    if repr_tag == "spinor":
        return decode_multivector(data.get("spinor", []), n)
    raise PayloadError("repr must be one of aut, E, spinor")


def encode_relation(r: LinearRelation) -> dict:
    return {
        "graph": encode_subspace(r.graph),
        "source": encode_aut(r.source),
        "target": encode_aut(r.target),
    }


def decode_relation(data, as_aut) -> LinearRelation:
    """A relation payload; as_aut turns each endpoint, a decoded aut or E
    structure, into a checked GCAut, or raises."""
    if not isinstance(data, dict):
        raise PayloadError("relation payload must be an object")
    from .relations import LinearRelation

    def endpoint(payload):
        obj = decode_gcs(payload)
        if not isinstance(obj, (GCAut, IsotropicE)):
            raise PayloadError("relation endpoints must be aut or E structures")
        return as_aut(obj)

    try:
        source = endpoint(data["source"])
        target = endpoint(data["target"])
        graph = decode_subspace(data["graph"], QQ)
    except KeyError as exc:
        raise PayloadError(f"missing relation field {exc}") from None
    try:
        return LinearRelation(source, target, graph)
    except ValueError as exc:
        raise PayloadError(str(exc)) from None


def encode_vector(v) -> list:
    out = []
    for x in v:
        if isinstance(x, GaussianRational):
            out.append(encode_gaussian(x))
        else:
            out.append(encode_rational(x))
    return out
