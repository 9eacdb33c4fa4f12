"""Value semantics of the record classes built on ``errors.Record``.

The expected reprs are the ``Name(field=value, ...)`` text the records
have always printed (failure messages of the verify suites embed them).
"""

import copy
import pickle

import pytest

from kida import chargroup as cg, localfactor as lf, qexp, splitting as sp
from kida import transition as tr, verify
from kida.errors import IncoherentGenericData, Record

G = cg.FiniteAbelianGroup((2, 4))
RAM = lf.LocalCharData(True, True, False, 9)
UNRAM = lf.LocalCharData(False, False)
PLACE = sp.RamifiedPlace(1123, 11, 1, 1)
F23 = sp.parse_field_spec("cyclotomic:23:degree=11")
F1123 = sp.parse_field_spec("cyclotomic:1123:degree=11")


ALG = tr.transition(p=11, base_field=sp.rationals(), ext_field=F23,
                    base=tr.InvariantRecord("algebraic", 0, 1),
                    form=qexp.delta_form(), assert_hypotheses=True)

LF_REPORT = (
    "LocalFactorReport(ell=23, local_degree=11, places=1, m=0, h=0, "
    "path='table', type_spec='ups:a=10,c=1')")
UNRAM_REPR = ("LocalCharData(ramified=False, trivial_mod_p=False, "
              "becomes_unramified_over_extension=True, order_on_inertia=1)")
RAM_REPR = ("LocalCharData(ramified=True, trivial_mod_p=True, "
            "becomes_unramified_over_extension=False, order_on_inertia=9)")

# one instance of every record class, with its repr
CASES = {
    "FiniteAbelianGroup": (G, "FiniteAbelianGroup(invariant_factors=(2, 4))"),
    "Character": (cg.Character(G, (1, 3)),
                  "Character(group=FiniteAbelianGroup(invariant_factors="
                  "(2, 4)), exponents=(1, 3))"),
    "LocalCharData": (RAM, RAM_REPR),
    "UnramifiedPS": (lf.UnramifiedPS(7, 8, 5), "UnramifiedPS(a=2, c=3, p=5)"),
    "RamifiedPS": (lf.RamifiedPS(RAM, UNRAM),
                   f"RamifiedPS(phi1={RAM_REPR}, phi2={UNRAM_REPR})"),
    "Special": (lf.Special(UNRAM), f"Special(phi={UNRAM_REPR})"),
    "Supercuspidal": (lf.Supercuspidal(), "Supercuspidal()"),
    "Generic": (lf.Generic(3, (2, 1, 0)),
                "Generic(degree=3, m_values=(2, 1, 0))"),
    "EllipticCurve": (qexp.EllipticCurve(0, -1, 1, -10, -20),
                      "EllipticCurve(a1=0, a2=-1, a3=1, a4=-10, a6=-20)"),
    "CoefficientTable": (qexp.CoefficientTable(2, 11, {2: -2, 3: -1}),
                         "CoefficientTable(weight=2, level=11, "
                         "ap={2: -2, 3: -1})"),
    "ModularFormData": (qexp.delta_form(),
                        "ModularFormData(weight=12, level=1, source=Delta)"),
    "PlaceData": (sp.efg(F23, 23),
                  "PlaceData(ell=23, e=11, f=1, g=1, degree=11)"),
    "TowerPlaceData": (sp.tower_places(F23, 1123, 11),
                       "TowerPlaceData(ell=1123, p=11, g_layers=(1, 11, 11), "
                       "g_infinity=11, stabilized_at=1)"),
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
        "lambda_in=1, lambda_out=11, mu_in=0, mu_out=0, "
        f"places=({LF_REPORT},), "
        "hypotheses=(('graded_pieces_residually_distinct', True), "
        "('archimedean_rank_condition', True), "
        "('residual_invariants_vanish', True), "
        "('inertia_coinvariants_divisible', True)), warnings=())"),
    "SuiteResult": (verify.SuiteResult("hasse", {"bound": 30}),
                    "SuiteResult(name='hasse', params={'bound': 30}, "
                    "checks=0, failures=[])"),
}

MUTABLE = {"SuiteResult"}


def rebuilt(record):
    """The record's constructor called again on its own field values."""
    return type(record)(*(getattr(record, name)
                          for name in record.__slots__))


def test_every_record_class_is_covered():
    classes = {cls.__name__ for cls in Record.__subclasses__()
               if cls.__module__.startswith("kida.")}
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
    # equal values in another class are not equal
    other = type("Other", (Record,), {"__slots__": record.__slots__})
    stranger = other.__new__(other)
    for slot in record.__slots__:
        object.__setattr__(stranger, slot, getattr(record, slot))
    assert record != stranger and stranger != record
    assert all(record != rec for key, (rec, _) in CASES.items()
               if key != name)
    field = record.__slots__[0] if record.__slots__ else "anything"
    if name in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
        twin.checks += 1
        assert twin != record
    else:
        assert hash(twin) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert record == twin      # unchanged


@pytest.mark.parametrize("name", ["FiniteAbelianGroup", "Character",
                                  "RamifiedPS", "Generic", "EllipticCurve",
                                  "InvariantRecord"])
def test_pickle_round_trip(name):
    record = CASES[name][0]
    assert pickle.loads(pickle.dumps(record)) == record


def test_fields_that_take_no_part_in_equality():
    rep = ALG.places[0]
    other = tr.LocalFactorReport(rep.ell, rep.local_degree, rep.places,
                                 rep.m, rep.h, rep.path, rep.type_spec,
                                 local_type=lf.Supercuspidal())
    assert other == rep and hash(other) == hash(rep)
    assert other.local_type != rep.local_type
    # the table's hash ignores the order its entries were read in
    a = qexp.CoefficientTable(2, 11, {2: -2, 3: -1})
    b = qexp.CoefficientTable(2, 11, {3: -1, 2: -2})
    assert a == b and hash(a) == hash(b)
    assert a != qexp.CoefficientTable(2, 11, {2: -2})


def test_normalisation_in_constructors():
    ups = lf.UnramifiedPS(-1, 16, 5)
    assert (ups.a, ups.c, ups.p) == (4, 1, 5)
    assert ups == lf.UnramifiedPS(4, 1, 5)


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
    with pytest.raises(ValueError):
        lf.LocalCharData(True, True, True, 1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        cg.FiniteAbelianGroup((2, 3))
    with pytest.raises(ValueError):
        cg.Character(G, (2, 0))
    with pytest.raises(IncoherentGenericData):
        lf.Generic(3, (1, 0))
    with pytest.raises(ValueError):
        qexp.ModularFormData(12, 2, qexp.DELTA_SOURCE)
    with pytest.raises(ValueError):
        tr.InvariantRecord("algebraic", 1, 3)
    with pytest.raises(TypeError):
        sp.PlaceData(2, 1, 1, 1)
    assert qexp.EllipticCurve(a4=-1) == qexp.EllipticCurve(0, 0, 0, -1, 0)
    assert verify.SuiteResult("x", {}).failures == []
    assert verify.SuiteResult("x", {}).failures is not \
        verify.SuiteResult("x", {}).failures
