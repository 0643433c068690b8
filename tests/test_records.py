"""The eleven immutable records share one base, ``cmfix.records.Record``.

Each record builds positionally or by keyword, refuses assignment, compares
and hashes by the tuple of its fields, is never equal to an instance of
another class, prints as ``Name(field=value, ...)``, and comes back equal
from ``copy``, ``deepcopy`` and ``pickle``: ``invariants.first_failure``
prints that repr as its witness, so it is part of the selftest output.
``CyclotomicNumber`` keeps its own ``==``, ``hash`` and repr, which compare
a rational value with an ``int`` as ``int`` does.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from cmfix.arith import CyclotomicNumber
from cmfix.fixed_points import ComponentDescriptor, NestingReport, component_catalog
from cmfix.linalg import Mat
from cmfix.parameters import CyclicCMSurface, ParamSet
from cmfix.quiver import QuiverRep, SimplicityResult
from cmfix.records import Record
from cmfix.wreath import (CentralElement, FiltrationReport, WreathTable, char_dimension,
                          character_table, inverse_class)

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


def _descriptor_fields():
    (c,) = component_catalog(1, 2, 2, ParamSet(1, THIRD, (0,)))
    return tuple(getattr(c, f) for f in ComponentDescriptor._fields)


def _table_fields():
    t = character_table(2, 2)
    return (t.l, t.n, t.labels, t.classes, t.sizes, t.raw)


# class -> a function giving the fields of one instance, in constructor order
SAMPLES = {
    Mat: lambda: (2, 2, ((1, HALF), (0, -3))),
    CyclotomicNumber: lambda: (3, (THIRD, Fraction(-2))),
    ParamSet: lambda: (2, HALF, (THIRD, -THIRD)),
    CyclicCMSurface: lambda: (2, (THIRD, -THIRD)),
    ComponentDescriptor: _descriptor_fields,
    NestingReport: lambda: (1, 2, 2, 3, 4, ()),
    QuiverRep: lambda: ((1, 1), (Mat(1, 1, [[1]]), Mat(1, 1, [[2]])),
                        (Mat(1, 1, [[3]]), Mat(1, 1, [[4]]))),
    SimplicityResult: lambda: ("Unknown", None, 7),
    WreathTable: _table_fields,
    CentralElement: lambda: (2, 1, ((((1,), ()), CyclotomicNumber.one(2)),)),
    FiltrationReport: lambda: (2, 2, 2, ((), ()), True, 5, ()),
}
RECORDS = sorted(SAMPLES, key=lambda cls: cls.__name__)


def _build(cls):
    return cls(*SAMPLES[cls]())


def test_every_record_class_is_sampled():
    assert set(SAMPLES) == set(Record.__subclasses__())
    assert all(len(SAMPLES[cls]()) == len(cls._fields) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_refuses_assignment_and_deletion(cls):
    rec = _build(cls)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.extra = 1


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    a, b = _build(cls), cls(**dict(zip(cls._fields, SAMPLES[cls]())))
    assert a == b and not a != b and a is not b
    assert copy.copy(a) == a
    key = tuple(getattr(a, f) for f in cls._fields)
    assert a != key  # a record is not a tuple
    if cls is ComponentDescriptor:  # its label_injection is a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(key)
    if cls is not CyclotomicNumber:
        shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in cls._fields)
        assert repr(a) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_of_different_classes_are_never_equal(cls):
    rec = _build(cls)
    assert all(rec != _build(other) for other in RECORDS if other is not cls)

    class Copy(cls):
        pass

    twin = Copy(*SAMPLES[cls]())
    assert Copy._fields == cls._fields
    # a number compares by value, as an int does with an instance of a subclass
    assert (twin == rec and rec == twin) if cls is CyclotomicNumber else (twin != rec != twin)


def _copies(rec):
    return copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_copy_deepcopy_and_pickle_rebuild_an_equal_record(cls):
    rec = _build(cls)
    for twin in _copies(rec):
        assert type(twin) is cls and twin == rec and repr(twin) == repr(rec)


def test_a_wreath_table_whose_values_were_read_copies_and_pickles():
    t = character_table(2, 3)
    assert t.values
    for twin in _copies(t):
        assert twin == t and twin.values == t.values and twin.index == t.index


def test_the_wreath_table_derives_index_inverse_and_dims_once():
    t = character_table(2, 3)
    assert WreathTable._fields == ("l", "n", "labels", "classes", "sizes", "raw")
    index = {lam: i for i, lam in enumerate(t.labels)}
    assert t.index == index
    assert t.inverse == tuple(index[inverse_class(c)] for c in t.classes)
    assert t.dims == tuple(char_dimension(lam) for lam in t.labels)
    for name in ("index", "inverse", "dims", "values"):
        assert getattr(t, name) is getattr(t, name)  # a cached property, computed once
    # what was derived takes no part in equality or the repr
    fresh = WreathTable(t.l, t.n, t.labels, t.classes, t.sizes, t.raw)
    assert fresh == t and hash(fresh) == hash(t) and repr(fresh) == repr(t)


def test_the_repr_text_is_the_class_name_and_its_fields():
    assert (repr(ParamSet(2, Fraction(1, 2), (Fraction(1, 3), Fraction(-1, 3))))
            == "ParamSet(l=2, a=Fraction(1, 2), k=(Fraction(1, 3), Fraction(-1, 3)))")
    assert (repr(SimplicityResult("Simple"))
            == "SimplicityResult(status='Simple', witness=None, trials=0)")
    assert repr(Mat(1, 2, [[1, HALF]])) == "Mat(rows=1, cols=2, data=((1, Fraction(1, 2)),))"
    assert repr(CyclotomicNumber(3, (THIRD, -2))) == "1/3 + -2*z3"


def test_defaults_and_coercion():
    s = SimplicityResult("Simple")
    assert s.witness is None and s.trials == 0
    assert SimplicityResult("Unknown", trials=3) == SimplicityResult("Unknown", None, 3)
    p = ParamSet(l=2, a=1, k=[THIRD, "-1/3"])
    assert type(p.a) is Fraction and p.k == (THIRD, -THIRD)
    assert all(type(x) is Fraction for x in (p.a, *p.k))
    assert CyclicCMSurface(2, [1, -1]).roots == (Fraction(1), Fraction(-1))
    assert QuiverRep(["1", 1.0], *SAMPLES[QuiverRep]()[1:]).d == (1, 1)


@pytest.mark.parametrize("call", [
    lambda: FiltrationReport(2, 2, 2),
    lambda: FiltrationReport(2, 2, 2, ((), ()), True, 5, (), 0),
    lambda: NestingReport(1, 2, 2, 3, 4, failures=(), extra=0),
    lambda: NestingReport(1, 2, 2, 3, 4, (), k1=1),
    lambda: NestingReport(k1=1, k2=2, l=2, n=3, pairs_checked=4),
])
def test_a_wrong_call_is_a_type_error(call):
    with pytest.raises(TypeError):
        call()


X11 = (Mat(1, 1, [[1]]), Mat(1, 1, [[2]]))


@pytest.mark.parametrize("call,message", [
    (lambda: ParamSet(0, 0, ()), "l must be >= 1"),
    (lambda: ParamSet(2, 0, (1,)), "need exactly l=2 values of k"),
    (lambda: ParamSet(2, 0, (1, 1)), "k must sum to 0, got (Fraction(1, 1), Fraction(1, 1))"),
    (lambda: ParamSet(1, "x", (0,)), "Invalid literal for Fraction: 'x'"),
    (lambda: CyclicCMSurface(2, ("x",)), "Invalid literal for Fraction: 'x'"),
    (lambda: QuiverRep((1, 1), X11[:1], X11), "need one X and one Y per vertex"),
    (lambda: QuiverRep((1, 2), X11, X11), "X[0] must be 1x2"),
    (lambda: QuiverRep((1, 1), X11, (Mat(1, 2, [[1, 2]]), X11[1])), "Y[0] must be 1x1"),
])
def test_invalid_input_raises_the_same_value_error(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
