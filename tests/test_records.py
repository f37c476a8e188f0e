"""The record types of the package: constructors, validation, equality and
hash, ordering, immutability and repr, pinned as the program relies on them."""

import copy
import pickle
import random
from fractions import Fraction as F

import pytest

from orbifold24.affine import (
    AffineLabel,
    HVector,
    ProductAlgebra,
    ProductLabel,
    TwistClassification,
)
from orbifold24.orbifold import SeedSubalgebra, SemisimpleShape
from orbifold24.qseries import CharacterFit, QSeries
from orbifold24.rootsys import MAX_RANK, RootSystemError, SimpleType
from orbifold24.scenarios import CheckResult, Report, Scenario

A1, G2, A3 = SimpleType("A", 1), SimpleType("G", 2), SimpleType("A", 3)
ALGEBRA = ProductAlgebra.of(("A1", 2), ("G2", 1))
ALGEBRA_REPR = ("ProductAlgebra(factors=((SimpleType(letter='A', rank=1), 2), "
                "(SimpleType(letter='G', rank=2), 1)))")


def label():
    return AffineLabel(A1, 2, (1,))


def h_vector():
    return HVector.from_fundamental(ALGEBRA, [[F(1, 2)], [0, 0]])


def shape():
    return SemisimpleShape(((A3, 5), (A1, 2), (A3, 5)), 2)


def frozen_records():
    """One instance of each immutable record type."""
    return {
        "SimpleType": G2,
        "AffineLabel": label(),
        "TwistClassification": TwistClassification("positive", F(1, 2)),
        "ProductAlgebra": ALGEBRA,
        "ProductLabel": ProductLabel(ALGEBRA, (label(), AffineLabel(G2, 1, (0, 0)))),
        "HVector": h_vector(),
        "SemisimpleShape": shape(),
        "SeedSubalgebra": SeedSubalgebra(A1, 2, ((2, 0),), ((2, 0), (-2, 0))),
        "CharacterFit": CharacterFit(F(3), F(5), QSeries({-2: 1}, 2, 1)),
        "CheckResult": CheckResult("x", "1", "2"),
    }


def scenario(**kw):
    return Scenario("M1", ALGEBRA, h_vector(), F(1, 2), shape(), 3, 4, shape(), **kw)


def test_constructors_take_positional_and_keyword_arguments():
    assert SimpleType(letter="D", rank=7) == SimpleType("D", 7)
    assert AffineLabel(type=A1, level=2, coeffs=(1,)) == label()
    assert ProductAlgebra(factors=ALGEBRA.factors) == ALGEBRA
    assert HVector(algebra=ALGEBRA, ints=h_vector().ints) == h_vector()
    assert SemisimpleShape(ideals=shape().ideals, center_dim=2) == shape()
    assert SeedSubalgebra(type=A1, level=2, simple_roots=((2,),), roots=((2,), (-2,))) == \
        SeedSubalgebra(A1, 2, ((2,),), ((2,), (-2,)))
    assert CheckResult(name="x", expected="1", actual="1").ok
    assert not CheckResult("x", "1", "2").ok
    fit = CharacterFit(c0=F(1), c_minus1=F(2), series=QSeries({}, 1, 1))
    assert (fit.c0, fit.c_minus1) == (1, 2)
    pl = ProductLabel(algebra=ALGEBRA, labels=(label(), AffineLabel(G2, 1, (0, 0))))
    assert pl.coeffs == ((1,), (0, 0))
    assert str(pl) == "(1; 0,0)"


def test_constructor_defaults():
    c = TwistClassification("precondition_violated")
    assert (c.kind, c.value, c.witness) == ("precondition_violated", None, None)
    assert TwistClassification(kind="zero_with_witness", witness="vacuum", value=F(0)).witness == "vacuum"
    assert SemisimpleShape(((A1, 1),)).center_dim == 0
    r = Report("M1", [], ["a"], ["n"])
    assert r.error is None and r.status == "pass"
    assert Report(scenario="M1", checks=[], assumptions=[], notes=[], error="boom").status == "error"
    sc, other = scenario(), scenario()
    assert (sc.table_max_weight, sc.table_weights, sc.expect_table_counts, sc.base_weights,
            sc.expect_twisted_seed, sc.lattice) == (None, None, None, None, None, False)
    assert sc.assumptions == [] and sc.notes == []
    assert sc.assumptions is not other.assumptions and sc.notes is not other.notes
    assert scenario(lattice=True, notes=["n"]).notes == ["n"]


def test_derived_fields():
    m = label()
    assert m.datum.type == A1 and m.weight_num > 0
    assert len(h_vector().pairings) == 2
    assert shape().ideals == ((A1, 2), (A3, 5), (A3, 5))
    assert (shape().rank, shape().dim) == (9, 35)


@pytest.mark.parametrize("make, message", [
    (lambda: SimpleType("A", 13), "exceeds supported cap"),
    (lambda: SimpleType("E", 9), "invalid simple type E9"),
    (lambda: SimpleType("B", 1), "invalid simple type B1"),
    (lambda: ProductAlgebra(()), "at least one factor"),
    (lambda: ProductAlgebra(((A1, 0),)), "levels must be positive"),
    (lambda: AffineLabel(A1, 0, (0,)), "level must be a positive integer"),
    (lambda: AffineLabel(A1, 1, (0, 0)), "bad weight coefficients"),
    (lambda: AffineLabel(A1, 1, (2,)), "not admissible at level 1"),
])
def test_constructors_validate(make, message):
    with pytest.raises(RootSystemError, match=message):
        make()


def test_equality_and_hash_ignore_the_derived_fields():
    a, b = label(), label()
    object.__setattr__(b, "datum", None)
    object.__setattr__(b, "weight_num", -1)
    assert a == b and hash(a) == hash(b)
    assert a != AffineLabel(A1, 2, (0,))
    h, g = h_vector(), h_vector()
    object.__setattr__(g, "pairings", ())
    assert h == g and hash(h) == hash(g)
    assert h != HVector.from_fundamental(ALGEBRA, [[F(1, 2)], [F(1, 2), 0]])


def test_equality_is_by_value_within_one_type():
    for name, x in frozen_records().items():
        y = copy.copy(x)
        assert x == y and pickle.loads(pickle.dumps(x)) == x, name
        if name == "CharacterFit":  # its series is unhashable
            with pytest.raises(TypeError, match="unhashable"):
                hash(x)
        else:
            assert hash(x) == hash(y), name
    assert SimpleType("A", 1) != ("A", 1)
    assert shape() != SemisimpleShape(shape().ideals)
    assert ALGEBRA != ProductAlgebra.of(("A1", 2))
    assert scenario() == scenario() and scenario() != scenario(lattice=True)
    assert Report("M1", [], [], []) == Report("M1", [], [], [])
    assert Report("M1", [], [], []) != Report("M1", [], [], [], "boom")


def every_simple_type():
    ranks = {"A": range(1, 13), "B": range(2, 13), "C": range(2, 13), "D": range(3, 13),
             "E": (6, 7, 8), "F": (4,), "G": (2,)}
    return [SimpleType(letter, n) for letter, ns in ranks.items() for n in ns if n <= MAX_RANK]


def test_simple_types_sort_by_letter_then_rank():
    types = every_simple_type()
    assert len(types) == 49
    shuffled = types[:]
    random.Random(0).shuffle(shuffled)
    assert sorted(shuffled) == sorted(shuffled, key=lambda t: (t.letter, t.rank)) == types
    assert SimpleType("A", 12) < SimpleType("B", 2) <= SimpleType("B", 2) < SimpleType("B", 10)
    assert SimpleType("G", 2) > SimpleType("F", 4) >= SimpleType("F", 4)
    assert max(types) == G2 and min(types) == A1
    with pytest.raises(TypeError):
        A1 < ("A", 2)


FIELDS = {"SimpleType": "rank", "AffineLabel": "level", "TwistClassification": "kind",
          "ProductAlgebra": "factors", "ProductLabel": "labels", "HVector": "ints",
          "SemisimpleShape": "center_dim", "SeedSubalgebra": "roots", "CharacterFit": "c0",
          "CheckResult": "actual"}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_frozen_records_refuse_assignment(name):
    x = frozen_records()[name]
    for field in (FIELDS[name], "anything"):
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
    with pytest.raises(AttributeError):
        delattr(x, FIELDS[name])
    assert x == frozen_records()[name]


def test_scenario_and_report_are_mutable_and_unhashable():
    sc = scenario()
    sc.lattice = True
    sc.notes.append("n")
    assert sc == scenario(lattice=True, notes=["n"])
    rep = Report("M1", [], [], [])
    rep.error = "boom"
    assert rep.status == "error"
    for x in (sc, rep):
        with pytest.raises(TypeError):
            hash(x)


def test_reprs():
    records = frozen_records()
    assert repr(records["SimpleType"]) == "SimpleType(letter='G', rank=2)"
    assert repr(records["AffineLabel"]) == \
        "AffineLabel(type=SimpleType(letter='A', rank=1), level=2, coeffs=(1,))"
    assert repr(records["TwistClassification"]) == \
        "TwistClassification(kind='positive', value=Fraction(1, 2), witness=None)"
    assert repr(ALGEBRA) == ALGEBRA_REPR
    h_repr = (f"HVector(algebra={ALGEBRA_REPR}, ints=(IntWeight(den=4, coords=(1,), labels=(2,)), "
              "IntWeight(den=1, coords=(0, 0), labels=(0, 0))))")
    assert repr(records["HVector"]) == h_repr
    assert repr(records["ProductLabel"]) == (
        f"ProductLabel(algebra={ALGEBRA_REPR}, labels=(AffineLabel(type=SimpleType(letter='A', "
        "rank=1), level=2, coeffs=(1,)), AffineLabel(type=SimpleType(letter='G', rank=2), "
        "level=1, coeffs=(0, 0))))")
    shape_repr = ("SemisimpleShape(ideals=((SimpleType(letter='A', rank=1), 2), "
                  "(SimpleType(letter='A', rank=3), 5), (SimpleType(letter='A', rank=3), 5)), "
                  "center_dim=2)")
    assert repr(records["SemisimpleShape"]) == shape_repr
    assert repr(records["SeedSubalgebra"]) == (
        "SeedSubalgebra(type=SimpleType(letter='A', rank=1), level=2, simple_roots=((2, 0),), "
        "roots=((2, 0), (-2, 0)))")
    assert repr(records["CharacterFit"]) == (
        "CharacterFit(c0=Fraction(3, 1), c_minus1=Fraction(5, 1), "
        "series=QSeries(1*q^(-2/2); trunc 2/2))")
    assert repr(records["CheckResult"]) == "CheckResult(name='x', expected='1', actual='2')"
    assert repr(Report("M1", [CheckResult("x", "1", "1")], ["a"], [])) == (
        "Report(scenario='M1', checks=[CheckResult(name='x', expected='1', actual='1')], "
        "assumptions=['a'], notes=[], error=None)")
    assert repr(scenario()) == (
        f"Scenario(name='M1', algebra={ALGEBRA_REPR}, h={h_repr}, expect_h_norm=Fraction(1, 2), "
        f"expect_fixed={shape_repr}, expect_fixed_dim=3, expect_new_dim=4, "
        f"expect_shape={shape_repr}, table_max_weight=None, table_weights=None, "
        "expect_table_counts=None, base_weights=None, expect_twisted_seed=None, lattice=False, "
        "assumptions=[], notes=[])")
    # str is the short form where a class defines one, and the repr elsewhere
    assert (str(G2), str(label()), str(ALGEBRA)) == ("G2", "A1,2:(1)", "A1,2 G2,1")
    assert str(shape()) == "A1,2 A3,5^2 U(1)^2"
    assert str(h_vector()) == h_repr


@pytest.mark.parametrize("name", ["SimpleType", "AffineLabel", "ProductAlgebra", "HVector",
                                  "SemisimpleShape"])
def test_records_told_from_tuples_are_not_tuples(name):
    assert not isinstance(frozen_records()[name], tuple)
