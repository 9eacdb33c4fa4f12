"""Value semantics of the record classes, each a ``collections.namedtuple``
subclass with ``__slots__ = ()``.

The expected reprs are the ``Name(field=value, ...)`` text the records
have always printed (failure messages of the verify suites embed them).
A record is a tuple: it equals a plain tuple of its values, so two
classes whose values can coincide would compare equal.  The local types,
which caches and ``transition.compose`` compare, never can.
"""

import copy
import importlib
import pickle

import pytest

import kida
from kida import eta, localfactor as lf, qexp
from kida import splitting as sp
from kida import transition as tr, verify
from kida.errors import IncoherentGenericData, SpecParseError

RAM = lf.LocalCharData(True, True, False, 9)
UNRAM = lf.LocalCharData(False, False)
PLACE = sp.RamifiedPlace(1123, 11, 1, 1)
F23 = sp.parse_field_spec("cyclotomic:23:degree=11")
F1123 = sp.parse_field_spec("cyclotomic:1123:degree=11")


ALG = tr.transition(p=11, base_field=sp.rationals(), ext_field=F23,
                    base=tr.InvariantRecord("algebraic", 0, 1),
                    form=eta.DELTA, assert_hypotheses=True)

LF_REPORT = (
    "LocalFactorReport(ell=23, local_degree=11, places=1, m=0, "
    "path='table', local_type=UnramifiedPS(a=10, c=1, p=11))")
UNRAM_REPR = ("LocalCharData(ramified=False, trivial_mod_p=False, "
              "becomes_unramified_over_extension=True, order_on_inertia=1)")
RAM_REPR = ("LocalCharData(ramified=True, trivial_mod_p=True, "
            "becomes_unramified_over_extension=False, order_on_inertia=9)")

# one instance of every record class, with its repr
CASES = {
    "LocalCharData": (RAM, RAM_REPR),
    "UnramifiedPS": (lf.UnramifiedPS(7, 8, 5), "UnramifiedPS(a=2, c=3, p=5)"),
    "Delta": (eta.Delta(1200), "Delta(precision=1200)"),
    "CharacterLines": (lf.CharacterLines((RAM, UNRAM)),
                       f"CharacterLines(chars=({RAM_REPR}, {UNRAM_REPR}))"),
    "Generic": (lf.Generic((2, 1, 0)), "Generic(m_values=(2, 1, 0))"),
    "EllipticCurve": (qexp.EllipticCurve(0, -1, 1, -10, -20),
                      "EllipticCurve(a1=0, a2=-1, a3=1, a4=-10, a6=-20)"),
    "CoefficientTable": (qexp.CoefficientTable(2, 11, {2: -2, 3: -1}),
                         "CoefficientTable(weight=2, level=11, "
                         "ap={2: -2, 3: -1})"),
    "PlaceData": (sp.efg(F23, 23),
                  "PlaceData(ell=23, e=11, f=1, g=1)"),
    "TowerPlaceData": (sp.tower_places(F23, 1123, 11),
                       "TowerPlaceData(ell=1123, p=11, g_layers=(1, 11, 11), "
                       "g_infinity=11)"),
    "RamifiedPlace": (PLACE,
                      "RamifiedPlace(ell=1123, local_degree=11, places=1, "
                      "f_prime_to_p=1)"),
    "RamifiedSet": (sp.ramified_set(sp.rationals(), F1123, 11),
                    "RamifiedSet(entries=(RamifiedPlace(ell=1123, "
                    "local_degree=11, places=1, f_prime_to_p=1),), "
                    "degree=11, base=AbelianField(conductor=1, degree=1), "
                    "ext=AbelianField(conductor=1123, degree=11))"),
    "InvariantRecord": (tr.InvariantRecord("algebraic", 0, 1),
                        "InvariantRecord(kind='algebraic', mu=0, lam=1)"),
    "LocalFactorReport": (ALG.places[0], LF_REPORT),
    "TransitionReport": (
        ALG,
        "TransitionReport(kind='algebraic', p=11, form='delta', "
        "base_spec='Q', ext_spec='cyclotomic:23:gens=22', "
        "base_field=AbelianField(conductor=1, degree=1), "
        "ext_field=AbelianField(conductor=23, degree=11), degree=11, "
        "lambda_in=1, lambda_out=11, "
        f"places=({LF_REPORT},), "
        "hypotheses=(('graded_pieces_residually_distinct', True), "
        "('archimedean_rank_condition', True), "
        "('residual_invariants_vanish', True), "
        "('inertia_coinvariants_divisible', True)), warnings=())"),
}


def rebuilt(record):
    """The record's constructor called again on its own field values."""
    return type(record)(*(getattr(record, name) for name in record._fields))


def test_every_record_class_is_covered():
    classes = set()
    for name in kida._SUBMODULES:
        module = importlib.import_module(f"kida.{name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and issubclass(cls, tuple)
                    and hasattr(cls, "_fields")
                    and cls.__module__ == module.__name__):
                # a namedtuple subclass that adds no instance dict
                assert cls.__dict__.get("__slots__") == (), cls
                assert cls.__base__.__bases__ == (tuple,), cls
                classes.add(cls.__name__)
    assert classes == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    record, expected_repr = CASES[name]
    assert type(record).__name__ == name
    assert repr(record) == expected_repr
    assert not hasattr(record, "__dict__")
    twin = rebuilt(record)
    assert twin is not record and twin == record and not twin != record
    assert copy.copy(record) == record
    # a stated decision: a record equals a plain tuple of its values
    values = tuple(getattr(record, field) for field in record._fields)
    assert record == values and values == record
    assert all(record != rec for key, (rec, _) in CASES.items()
               if key != name)
    assert hash(twin) == hash(record)
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == twin      # unchanged


def test_local_types_never_equal_each_other():
    # UnramifiedPS has three fields and the other two one; Generic holds
    # at least one int, CharacterLines only LocalCharData tuples.  So a
    # twist_sum cache entry or compose's restricted type is never read
    # for a type of another class.
    assert [len(cls._fields) for cls in (lf.UnramifiedPS, lf.CharacterLines,
                                         lf.Generic)] == [3, 1, 1]
    types = [lf.UnramifiedPS(a, c, 3) for a in range(3) for c in range(3)]
    types += [lf.parse_local_type(spec, 3) for spec in (
        "sc", "special:unram,triv", "special:ram,triv,dies",
        "ramps:unram,triv;ram,nontriv,survives", "generic:0",
        "generic:1,0,0", "generic:2,1,1,0,0,0,0,0,0")]
    for x in types:
        for y in types:
            if type(x) is not type(y):
                assert x != y and y != x
    with pytest.raises(IncoherentGenericData):
        lf.Generic(())


def test_suite_result_is_mutable_with_fixed_fields():
    res = verify.SuiteResult("hasse", {"bound": 30})
    assert not hasattr(res, "__dict__")
    res.checks += 1
    res.fail("counterexample")
    assert (res.name, res.params, res.checks, res.failures) == (
        "hasse", {"bound": 30}, 1, ["counterexample"])
    assert not res.passed
    with pytest.raises(AttributeError):
        res.other = 0


def test_output_mappings_hold_no_record():
    # json.dumps would print a record as a list, where it once refused it
    mapping = ALG.as_mapping()
    assert {type(value) for value in mapping.values()} <= {bool, int, str}


@pytest.mark.parametrize("name", ["LocalCharData", "UnramifiedPS",
                                  "CharacterLines", "Generic",
                                  "EllipticCurve", "TowerPlaceData",
                                  "InvariantRecord", "Delta"])
def test_pickle_round_trip(name):
    record = CASES[name][0]
    assert pickle.loads(pickle.dumps(record)) == record


def test_place_report_equality_reads_its_local_type():
    # the table value and type string are read off the local type, so a
    # report of another type is another report, with the same price
    rep = ALG.places[0]
    other = tr.LocalFactorReport(rep.ell, rep.local_degree, rep.places,
                                 rep.m, rep.path, lf.CharacterLines(()))
    assert other != rep and other.m == rep.m
    assert (other.h, other.type_spec) == (0, "sc")
    assert (rep.h, rep.type_spec) == (0, "ups:a=10,c=1")
    generic = tr.LocalFactorReport(rep.ell, 3, rep.places, 2, "generic",
                                   lf.Generic((1, 0, 0)))
    assert (generic.h, generic.type_spec) == (None, "generic:1,0,0")


def test_fields_that_take_no_part_in_equality():
    # the table's hash ignores the order its entries were read in
    a = qexp.CoefficientTable(2, 11, {2: -2, 3: -1})
    b = qexp.CoefficientTable(2, 11, {3: -1, 2: -2})
    assert a == b and hash(a) == hash(b)
    assert a != qexp.CoefficientTable(2, 11, {2: -2})


def test_normalisation_in_constructors():
    ups = lf.UnramifiedPS(-1, 16, 5)
    assert (ups.a, ups.c, ups.p) == (4, 1, 5)
    assert ups == lf.UnramifiedPS(4, 1, 5)


# a record whose __new__ checks or reduces its fields, a change of them,
# and what the constructor makes of the changed fields: the same record
# or the same refusal
REPLACED = {
    "LocalCharData": (lf.LocalCharData(False, True),
                      {"order_on_inertia": 5}, lf.LocalCharData(False, True)),
    "UnramifiedPS": (lf.UnramifiedPS(2, 1, 5), {"a": 7},
                     lf.UnramifiedPS(7, 1, 5)),
    "CharacterLines": (lf.CharacterLines(()), {"chars": (UNRAM,) * 3},
                       SpecParseError),
    "Generic": (lf.Generic((1, 0, 0)), {"m_values": (1, -1, 0)},
                IncoherentGenericData),
    "InvariantRecord": (tr.InvariantRecord("algebraic", 0, 1), {"lam": -4},
                        SpecParseError),
}


@pytest.mark.parametrize("record, changes, made", REPLACED.values(),
                         ids=list(REPLACED))
def test_replace_and_make_build_through_the_constructor(record, changes,
                                                        made):
    fields = {**record._asdict(), **changes}
    for build in (lambda: record._replace(**changes),
                  lambda: type(record)._make(fields.values())):
        if isinstance(made, type):
            with pytest.raises(made):
                build()
        else:
            assert build() == made


def test_local_char_data_defaults():
    unram = lf.LocalCharData(False, True, False, 7)
    assert unram.becomes_unramified_over_extension is True
    assert unram.order_on_inertia == 1
    assert unram == lf.LocalCharData(False, True)
    ram = lf.LocalCharData(True, False)
    assert ram.becomes_unramified_over_extension is True
    assert ram.order_on_inertia is None
    assert lf.LocalCharData(ramified=True, trivial_mod_p=True,
                            order_on_inertia=3).order_on_inertia == 3
    with pytest.raises(SpecParseError, match="order > 1 on inertia"):
        lf.LocalCharData(True, True, True, 1)


def test_constructor_validation():
    with pytest.raises(IncoherentGenericData):
        lf.Generic((1, -1, 0))
    with pytest.raises(SpecParseError):     # V is two-dimensional
        lf.CharacterLines((UNRAM, UNRAM, UNRAM))
    with pytest.raises(SpecParseError):
        tr.InvariantRecord("algebraic", 1, 3)
    with pytest.raises(TypeError):
        sp.PlaceData(2, 1, 1)
    assert qexp.EllipticCurve(a4=-1) == qexp.EllipticCurve(0, 0, 0, -1, 0)
    assert verify.SuiteResult("x", {}).failures == []
    assert verify.SuiteResult("x", {}).failures is not \
        verify.SuiteResult("x", {}).failures
