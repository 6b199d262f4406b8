"""The frozen records against frozen dataclasses, which they replace.

Two records are rebuilt here as frozen dataclasses with the same fields,
defaults and ``__post_init__``; the records must construct, refuse,
compare, hash and print as those do.
"""

import importlib
from dataclasses import field, fields, make_dataclass
from random import Random

import pytest

from gclin.core import BiVector, IsotropicE, Record, TwoForm, to_eigenspace
from gclin.fields import QI, QQ
from gclin.linalg import Matrix
from gclin.samples import random_gcs
from gclin.spinor import SpinorLine, spinor_from_subspace
from gclin.transforms import RecoveredData


def _skew_check(self):
    if not self.m.is_skew():
        raise ValueError("two-form matrix must be skew")


OracleTwoForm = make_dataclass(
    "TwoForm", [("m", Matrix)], namespace={"__post_init__": _skew_check}, frozen=True
)
OracleRecoveredData = make_dataclass(
    "RecoveredData",
    [("kind", str), ("b", TwoForm), ("jmat", object, field(default=None)), ("omega", object, field(default=None))],
    frozen=True,
)

SKEW = Matrix(QQ, [[0, -1], [1, 0]])
SKEW2 = Matrix(QQ, [[0, 3], [-3, 0]])


def values(obj, oracle):
    return tuple(getattr(obj, f.name) for f in fields(oracle))


def cases():
    b, omega = TwoForm(SKEW), TwoForm(SKEW2)
    yield TwoForm, OracleTwoForm, (SKEW,), {}
    yield TwoForm, OracleTwoForm, (), {"m": SKEW2}
    yield RecoveredData, OracleRecoveredData, ("complex", b), {}
    yield RecoveredData, OracleRecoveredData, ("symplectic", b), {"omega": omega}
    yield RecoveredData, OracleRecoveredData, (), {"kind": "complex", "b": b, "jmat": SKEW}
    yield RecoveredData, OracleRecoveredData, ("symplectic", b, None, omega), {}


@pytest.mark.parametrize("record, oracle, args, kwargs", list(cases()))
def test_construction_equality_hash_and_repr_match_the_dataclass(record, oracle, args, kwargs):
    r, o = record(*args, **kwargs), oracle(*args, **kwargs)
    assert values(r, o) == values(o, o)
    assert r == record(*args, **kwargs) and not r != record(*args, **kwargs)
    assert hash(r) == hash(o)
    assert repr(r) == repr(o)
    # a record never equals an instance of another class, the oracle included
    assert r != o and o != r
    assert (r == 1) is False


@pytest.mark.parametrize("record, oracle", [(TwoForm, OracleTwoForm), (RecoveredData, OracleRecoveredData)])
def test_binding_errors_match_the_dataclass(record, oracle):
    b = TwoForm(SKEW)
    bad = [((), {}), ((SKEW, SKEW, SKEW, SKEW, SKEW), {}), ((SKEW,), {"nope": 1})]
    if record is RecoveredData:
        bad += [(("complex",), {}), (("complex", b), {"kind": "x"})]
    for args, kwargs in bad:
        for cls in (record, oracle):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


def test_post_init_refuses_like_the_dataclass():
    not_skew = Matrix(QQ, [[1, 0], [0, 1]])
    for cls in (TwoForm, OracleTwoForm):
        with pytest.raises(ValueError, match="two-form matrix must be skew"):
            cls(not_skew)
    with pytest.raises(ValueError, match="bivector matrix must be skew"):
        BiVector(not_skew)
    with pytest.raises(ValueError):
        IsotropicE(3, to_eigenspace(random_gcs(Random(1), 2)).e)


def test_fields_are_frozen():
    for obj in (TwoForm(SKEW), OracleTwoForm(SKEW), RecoveredData("complex", TwoForm(SKEW))):
        with pytest.raises(AttributeError):
            obj.m = SKEW2
        with pytest.raises(AttributeError):
            obj.extra = 1
        with pytest.raises(AttributeError):
            del obj.b


def test_records_of_different_classes_differ():
    assert TwoForm(SKEW) != BiVector(SKEW)
    assert BiVector(SKEW) != TwoForm(SKEW)
    assert len({TwoForm(SKEW), TwoForm(SKEW), BiVector(SKEW)}) == 2


def test_spinor_lines_compare_and_hash_by_their_normalized_representative():
    e = to_eigenspace(random_gcs(Random(4), 4)).e
    line = spinor_from_subspace(e)
    same = SpinorLine.of(line.rep.scale(QI.coerce(3)))
    assert same == line and hash(same) == hash(line)
    assert SpinorLine(line.rep.scale(QI.coerce(3))) != line
    assert line != TwoForm(SKEW)
    assert {line, same} == {line}


def test_every_record_class_has_its_own_init():
    # one code object per class: the benchmark tracer maps code objects, by
    # identity, to the functions it wraps
    for module in ("classification", "relations", "spinor", "subspaces", "transforms"):
        importlib.import_module(f"gclin.{module}")
    records = Record.__subclasses__()
    assert len(records) == 11
    assert len({id(cls.__init__.__code__) for cls in records}) == 11
