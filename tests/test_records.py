"""Record types: field-wise construction, equality, hashing, immutability."""

import copy
import pickle
from fractions import Fraction

import pytest

from radpi import AngleRatio, FixedReal, PowerForm, PrecisionContext, Seed
from radpi._record import Record


def test_equality_and_hash_are_field_wise():
    assert FixedReal(5, 64) == FixedReal(5, 64)
    assert hash(FixedReal(5, 64)) == hash((5, 64))
    assert FixedReal(5, 64) != FixedReal(5, 65)
    assert FixedReal(5, 64) != (5, 64)
    assert Seed(2, 2) == Seed(Fraction(2), Fraction(2), 1)
    assert PrecisionContext(128) != PrecisionContext(128, 64)


# FixedReal and PowerForm compare field by field without Record's tuples, and
# keep its hash
@pytest.mark.parametrize("value, equal, unequal", [
    (FixedReal(5, 64), FixedReal(5, 64), [FixedReal(5, 65), FixedReal(-5, 64), (5, 64), 5]),
    (PowerForm(2, 4, 2, 3), PowerForm(1, 2, 1, Fraction(3)),
     [PowerForm(1, 2, 1, 5), PowerForm(3, 2, 1, 3), PowerForm(1, 4, 1, 3), PowerForm(1, 2, 0, 3),
      (1, 2, 1, 3), FixedReal(5, 64)]),
])
def test_fixed_real_and_power_form_equal_only_their_class_with_equal_fields(value, equal, unequal):
    class Sub(type(value)):
        __slots__ = ()

    assert value == equal and not value != equal
    assert hash(value) == hash(equal) == hash(Record._values(equal))
    assert len({value, equal}) == 1
    assert value != Sub(*Record._values(value))
    for other in unequal:
        assert value != other and other != value and not value == other


def test_fields_cannot_be_assigned_or_deleted():
    x = FixedReal(5, 64)
    with pytest.raises(AttributeError):
        x.mantissa = 6
    with pytest.raises(AttributeError):
        del x.scale_bits
    with pytest.raises(AttributeError):
        Seed(2, 2).extra = 1
    assert x == FixedReal(5, 64)


def test_constructor_takes_fields_by_position_or_name():
    assert AngleRatio("exact", rational=Fraction(4)) == AngleRatio("exact", Fraction(4), None)
    with pytest.raises(TypeError):
        AngleRatio()
    with pytest.raises(TypeError):
        AngleRatio("exact", None, None, None)
    with pytest.raises(TypeError):
        AngleRatio("exact", ratio=Fraction(4))


def test_repr_names_every_field():
    assert repr(Seed(2, 3, -1)) == ("Seed(m=Rational(numerator=2, denominator=1), "
                                    "s=Rational(numerator=3, denominator=1), sign=-1)")


def test_copy_and_pickle_rebuild_through_the_constructor():
    seed = Seed(2, 3, -1)
    assert copy.deepcopy(seed) == seed
    assert pickle.loads(pickle.dumps(FixedReal(7, 64))) == FixedReal(7, 64)
