import itertools

import pytest

from qmds import Field, FieldElement, FieldMismatchError, is_prime
from qmds.gf import MAX_Q

PRIMES_TO_13 = [2, 3, 5, 7, 11, 13]


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


def test_field_rejects_modulus_too_large_for_int64_products():
    # 4294967311 is prime; its residue products overflow int64, and the
    # bound is checked before the (slow) trial division
    for q in (MAX_Q, 4294967311, (1 << 61) - 1):
        with pytest.raises(ValueError, match="below 2\\^31"):
            Field(q)


def test_field_accepts_largest_prime_below_bound():
    assert Field(MAX_Q - 1).q == 2**31 - 1


def test_field_rejects_non_prime():
    for q in (0, 1, 4, 6, 8, 9, 10, 12):
        with pytest.raises(ValueError):
            Field(q)


def test_add_examples():
    gf7 = Field(7)
    assert (gf7.element(3) + gf7.element(5)).value == 1
    gf3 = Field(3)
    assert (gf3.element(2) + gf3.element(0)).value == 2
    gf5 = Field(5)
    assert (gf5.element(4) + gf5.element(4)).value == 3


def test_mul_examples():
    gf7 = Field(7)
    assert (gf7.element(3) * gf7.element(5)).value == 1
    gf3 = Field(3)
    assert (gf3.element(2) * gf3.element(2)).value == 1
    for q in PRIMES_TO_13:
        field = Field(q)
        for x in field.elements():
            assert (x * field.one) == x


def test_inv_examples():
    assert Field(7).element(3).inv().value == 5
    assert Field(5).element(4).inv().value == 4
    for q in PRIMES_TO_13:
        assert Field(q).one.inv().value == 1


def test_inv_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Field(5).zero.inv()


def test_pow_examples():
    gf3 = Field(3)
    assert (gf3.element(2) ** 2).value == 1
    assert (Field(7).element(3) ** 3).value == 6
    # 0**0 = 1 so the all-ones generator row survives an evaluation point of 0
    for q in PRIMES_TO_13:
        field = Field(q)
        for x in field.elements():
            assert (x**0).value == 1


def test_pow_matches_repeated_multiplication():
    field = Field(11)
    for value in range(11):
        x = field.element(value)
        acc = field.one
        for e in range(8):
            assert (x**e) == acc
            acc = acc * x


def test_field_mismatch_rejected():
    a = Field(5).element(2)
    b = Field(7).element(2)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b
    with pytest.raises(FieldMismatchError):
        Field(5).element(b)


def test_element_range_enforced():
    with pytest.raises(ValueError):
        FieldElement(5, Field(5))
    with pytest.raises(ValueError):
        FieldElement(-1, Field(5))
    assert Field(5).element(12).value == 2  # coercion reduces mod q


@pytest.mark.parametrize("q", PRIMES_TO_13)
def test_field_axioms_exhaustive(q):
    """Associativity, commutativity, distributivity, identities, inverses."""
    field = Field(q)
    elements = field.elements()
    for x, y in itertools.product(elements, repeat=2):
        assert x + y == y + x
        assert x * y == y * x
    for x, y, z in itertools.product(elements, repeat=3):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
    for x in elements:
        assert x + field.zero == x
        assert x * field.one == x
        assert x + (-x) == field.zero
        if x.value != 0:
            assert x * x.inv() == field.one
            assert (x / x) == field.one
