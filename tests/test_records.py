"""The frozen records against ``dataclasses``.

Every value and result class is a frozen record made by ``uvcore._frozen``.
Each is checked against a twin that the standard library's
``dataclass(frozen=True)`` builds from the same fields, defaults and
``__post_init__``: construction, equality, hashing, ``repr``, ordering,
refused assignment, copies and pickles must agree.
"""

import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uvinfo import apps, chancap, infocalc, memoryless, uvcore
from uvinfo.uvcore import FrozenInstanceError

F = Fraction

RECORDS = sorted(
    (cls for module in (uvcore, infocalc, chancap, memoryless, apps)
     for cls in vars(module).values()
     if isinstance(cls, type) and cls.__module__ == module.__name__
     and cls.__dict__.get("__setattr__") is uvcore._refuse),
    key=lambda cls: cls.__qualname__)


def fields(cls) -> tuple:
    return tuple(cls.__dict__.get("__annotations__", ()))


def derived(cls) -> tuple:
    """The names of the properties that ``cls`` derives from its fields."""
    return tuple(n for n, v in cls.__dict__.items() if isinstance(v, property))


def twin(cls):
    """``cls`` rebuilt by ``dataclasses``, with the same name, fields,
    defaults, derived properties, ``__post_init__`` and ordering."""
    names = fields(cls)
    namespace = {"__annotations__": dict.fromkeys(names, "object"),
                 "__qualname__": cls.__qualname__}
    namespace.update((n, cls.__dict__[n])
                     for n in names + derived(cls) if n in cls.__dict__)
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__dict__["__post_init__"]
    return dataclasses.dataclass(frozen=True, order="__lt__" in cls.__dict__)(
        type(cls.__name__, (), namespace))


TWINS = {cls: twin(cls) for cls in RECORDS}

# small values of every kind the records hold; the validating
# ``__post_init__`` methods accept many of them and refuse the rest the same
# way in both classes
values = st.one_of(
    st.integers(0, 6), st.builds(F, st.integers(0, 6), st.integers(1, 6)),
    st.sampled_from(["", "X", "associated"]), st.none(), st.booleans(),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.frozensets(st.builds(F, st.integers(1, 4), st.integers(4, 6)),
                  max_size=3),
    st.lists(st.integers(0, 3), max_size=2))


def outcome(call):
    """A call's result, or the type and text of what it raised."""
    try:
        return "ok", call()
    except FrozenInstanceError as exc:
        return dataclasses.FrozenInstanceError, str(exc)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc) if not isinstance(exc, TypeError) else ""


def seen(pair):
    """An outcome with records replaced by their ``repr``, comparable
    across a record and its twin."""
    kind, value = pair
    return kind, repr(value) if kind == "ok" else value


def test_every_value_class_is_a_record():
    assert len(RECORDS) == 31
    names = {cls.__qualname__ for cls in RECORDS}
    assert {"BitString", "CapacityResult", "CardinalityPower", "Channel",
            "IntervalUnion", "OverlapFamily"} <= names
    # the side profile is private and never compared or hashed
    assert "_SideProfile" not in names
    assert derived(chancap.CapacityResult) == ("thresholds",)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_record_matches_its_dataclass_twin(cls, data):
    other = TWINS[cls]
    names = fields(cls)
    args = data.draw(st.lists(values, min_size=len(names),
                              max_size=len(names)), "args")
    args2 = data.draw(st.lists(values, min_size=len(names),
                               max_size=len(names)), "args2")
    keywords = dict(zip(names, args))
    required = [n for n in names if n not in cls.__dict__]

    # construction: positional, keyword, defaults, and refused calls
    for build in (lambda k: k(*args), lambda k: k(**keywords),
                  lambda k: k(*args[:len(required)]),
                  lambda k: k(*args, None),
                  lambda k: k(*args[:1], **{names[0]: 1}),
                  lambda k: k(*args[:-1]),
                  lambda k: k(*args, stray=1)):
        assert seen(outcome(lambda: build(cls))) == \
            seen(outcome(lambda: build(other)))
    made = outcome(lambda: cls(*args))
    if made[0] != "ok":
        return
    if outcome(lambda: cls(*args2))[0] != "ok":
        args2 = args  # then the second record is an equal one
    record, record2 = made[1], cls(*args2)
    mirror, mirror2 = other(*args), other(*args2)

    assert repr(record) == repr(mirror)
    for name in derived(cls):
        assert seen(outcome(lambda: getattr(record, name))) == \
            seen(outcome(lambda: getattr(mirror, name)))
    assert (record == cls(*args)) and not (record != cls(*args))
    assert (record == record2) == (mirror == mirror2)
    assert record != mirror and record.__eq__(mirror) is NotImplemented
    assert outcome(lambda: hash(record)) == outcome(lambda: hash(mirror))
    if record == record2 and outcome(lambda: hash(record))[0] == "ok":
        assert hash(record) == hash(record2)
    if "__lt__" in cls.__dict__:
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert outcome(lambda: getattr(record, op)(record2)) == \
                outcome(lambda: getattr(mirror, op)(mirror2))
        with pytest.raises(TypeError):
            record < mirror

    # no field or derived property can be assigned or deleted, nor a new
    # attribute set
    for name in names + derived(cls) + ("extra",):
        assert outcome(lambda: setattr(record, name, 1)) == \
            outcome(lambda: setattr(mirror, name, 1))
        assert outcome(lambda: delattr(record, name)) == \
            outcome(lambda: delattr(mirror, name))
    with pytest.raises(AttributeError):
        record.__setattr__(names[0], 1)

    # copies and pickles are equal records of the same class
    for clone in (copy.copy, copy.deepcopy,
                  lambda r: pickle.loads(pickle.dumps(r))):
        cloned = clone(record)
        assert type(cloned) is cls and cloned == record
        assert vars(cloned) == vars(record)


def test_frozen_instance_error_is_an_attribute_error():
    record = chancap.CapacityResult(2, (0, 1), (), F(0))
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'count'$"):
        record.count = 3
    with pytest.raises(FrozenInstanceError, match=r"^cannot delete field 'count'$"):
        del record.count
    # the derived thresholds are refused as a field is
    with pytest.raises(FrozenInstanceError,
                       match=r"^cannot assign to field 'thresholds'$"):
        record.thresholds = ()
    assert record.thresholds == ()


def test_uncertainty_kind_is_a_class_constant():
    # kind left the fields: equality, hashing and repr never compared it
    # across classes, since records of different classes are never equal
    for m in (uvcore.CardinalityPower(3), uvcore.LebesguePlusOffset(F(1, 2)),
              uvcore.DiameterPlusOne(4),
              uvcore.ExplicitWeights.of_mapping({"a": 1})):
        assert m.kind == type(m).kind and "kind" not in vars(m)
        assert "kind" not in repr(m)
    assert repr(uvcore.CardinalityPower(3)) == \
        "CardinalityPower(base_size=3, exponent=1)"


def test_count_results_share_bits_and_render():
    count = chancap.CapacityResult(8, (), (), F(0))
    assert (count.bits, count.render(), count.render_bits()) == (3.0, "3", "3")
    mi = infocalc.MIResult(3, "associated", None)
    assert (mi.render(), mi.bits) == ("log2(3)", math.log2(3))
    for cls in (chancap.CapacityResult, chancap.MISupResult,
                chancap.AvgOverlapResult, infocalc.MIResult):
        assert issubclass(cls, uvcore._CountResult)


def test_records_compile_no_code():
    # the helper builds closures: no method of a record has source of its own
    for cls in RECORDS:
        for name in ("__init__", "__eq__", "__hash__", "__repr__"):
            code = cls.__dict__[name].__code__
            assert code.co_filename == uvcore.__file__, (cls, name)
