"""Field arithmetic: exact rationals and word-sized prime fields."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symmetroids.fields import (
    DEFAULT_PRIME,
    QQ,
    FieldError,
    PrimeField,
    RationalField,
    field_from_json,
)


def test_rational_singleton_basic_ops():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.inv(Fraction(-7, 5)) == Fraction(-5, 7)
    assert QQ.neg(Fraction(1, 2)) == Fraction(-1, 2)
    assert QQ.zero == 0 and QQ.one == 1
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_prime_field_validation():
    PrimeField(3)
    PrimeField(31991)
    with pytest.raises(FieldError):
        PrimeField(2)
    with pytest.raises(FieldError):
        PrimeField(9)
    with pytest.raises(FieldError):
        PrimeField(1)
    with pytest.raises(FieldError):
        PrimeField(561)
    with pytest.raises(FieldError):
        PrimeField(2**62 + 57)


def test_default_prime_is_usable():
    field = PrimeField(DEFAULT_PRIME)
    assert field.mul(field.inv(12345), 12345) == field.one


def test_prime_field_ops_mod_p():
    field = PrimeField(7)
    assert field.add(5, 4) == 2
    assert field.mul(3, 5) == 1
    assert field.neg(3) == 4
    assert field.sub(2, 5) == 4
    assert field.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_parse_coefficient():
    field = PrimeField(11)
    assert field.parse_coefficient("7", None) == 7
    assert field.parse_coefficient("-1", None) == 10
    with pytest.raises(FieldError):
        field.parse_coefficient("1", "2")
    assert QQ.parse_coefficient("3", "4") == Fraction(3, 4)
    assert QQ.parse_coefficient("-5", None) == Fraction(-5)
    with pytest.raises(FieldError):
        QQ.parse_coefficient("1", "0")


def test_field_json_round_trip():
    assert field_from_json("Q") is QQ
    field = field_from_json({"Fp": 31991})
    assert isinstance(field, PrimeField) and field.p == 31991
    assert field_from_json(field.to_json()) == field
    assert QQ.to_json() == "Q"
    with pytest.raises(FieldError):
        field_from_json({"Fp": 10})
    with pytest.raises(FieldError):
        field_from_json("R")


def test_rational_field_equality_is_singleton_like():
    assert RationalField() == QQ


@given(st.integers(min_value=0, max_value=31990), st.integers(min_value=0, max_value=31990))
def test_prime_field_axioms(a, b):
    field = PrimeField(31991)
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, b) == field.mul(b, a)
    assert field.add(a, field.neg(a)) == field.zero
    if a:
        assert field.mul(a, field.inv(a)) == field.one
    assert field.mul(a, field.add(b, field.one)) == field.add(
        field.mul(a, b), a
    )


@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
)
def test_rational_axioms(a, b):
    assert QQ.add(a, b) == a + b
    assert QQ.mul(a, b) == a * b
    assert QQ.sub(a, b) == a - b


REIMPORT_SCRIPT = """
import gc, importlib, sys, weakref
import symmetroids
from symmetroids import fields
ref = weakref.ref(fields.PrimeField)
del symmetroids, fields
for name in [m for m in sys.modules if m == "symmetroids" or m.startswith("symmetroids.")]:
    del sys.modules[name]
importlib.import_module("symmetroids")
gc.collect()
print("dead" if ref() is None else "alive")
"""


def test_reimport_releases_old_classes(fresh_python):
    # module-level typing.Union aliases used to pin every superseded copy
    # of the field classes in typing's cache
    assert fresh_python(REIMPORT_SCRIPT) == "dead"
