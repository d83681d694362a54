import pytest

from qmds import is_prime
from qmds.gf import MAX_Q, check_modulus


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


def test_field_rejects_modulus_too_large_for_int64_products():
    # 4294967311 is prime; its residue products overflow int64, and the
    # bound is checked before the (slow) trial division
    for q in (MAX_Q, 4294967311, (1 << 61) - 1):
        with pytest.raises(ValueError, match="below 2\\^31"):
            check_modulus(q)


def test_field_accepts_largest_prime_below_bound():
    check_modulus(MAX_Q - 1)
    assert MAX_Q - 1 == 2**31 - 1


def test_field_rejects_non_prime():
    for q in (0, 1, 4, 6, 8, 9, 10, 12):
        with pytest.raises(ValueError, match="prime"):
            check_modulus(q)
