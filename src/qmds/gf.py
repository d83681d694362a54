"""Exact arithmetic in prime fields GF(q)."""

from __future__ import annotations

import math


# Largest modulus plus one.  Below it a product of two residues is below
# 2^62, so the int64 eliminations never overflow; above it they would
# return wrong ranks without any error.
MAX_Q = 1 << 31


class FieldMismatchError(ValueError):
    """Raised when an operation mixes elements of different fields."""


def check_modulus(q: int) -> None:
    """Reject a modulus that is not a prime below MAX_Q.

    The size bound is checked first: trial division stalls on large inputs.
    """
    if q >= MAX_Q:
        raise ValueError(
            f"q must be below 2^31 so GF(q) products fit in int64: got q={q}"
        )
    if not is_prime(q):
        raise ValueError(f"q must be prime: got q={q}")


def is_prime(n: int) -> bool:
    """Trial-division primality check; fine for desk-scale moduli."""
    if n < 2:
        return False
    for i in range(2, math.isqrt(n) + 1):
        if n % i == 0:
            return False
    return True


class Field:
    """The prime field GF(q).

    Parameters
    ----------
    q : int
        Prime modulus, 2 <= q < 2^31.  Primality is verified by trial
        division; extension fields GF(p^m), m > 1, are deliberately
        unsupported.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        check_modulus(q)
        self.q = q

    def element(self, value) -> "FieldElement":
        """Coerce an integer (or element of this field) into GF(q)."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatchError(
                    f"element of GF({value.field.q}) is not in GF({self.q})"
                )
            return value
        return FieldElement(int(value) % self.q, self)

    def elements(self) -> list["FieldElement"]:
        """All q elements, in value order."""
        return [FieldElement(v, self) for v in range(self.q)]

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        return f"GF({self.q})"


class FieldElement:
    """An element of GF(q), stored as a machine integer in [0, q-1].

    Immutable; all operations are pure and eagerly reduced mod q.
    Mixing elements of different fields raises FieldMismatchError.
    """

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: Field):
        if not 0 <= value < field.q:
            raise ValueError(f"value {value} outside [0, {field.q - 1}]")
        self.value = value
        self.field = field

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"cannot combine GF({self.field.q}) with GF({other.field.q})"
                )
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value + other.value) % self.field.q, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value - other.value) % self.field.q, self.field)

    def __neg__(self):
        return FieldElement((-self.value) % self.field.q, self.field)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement((self.value * other.value) % self.field.q, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def inv(self) -> "FieldElement":
        """Multiplicative inverse; raises ZeroDivisionError for 0."""
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.field.q})")
        return FieldElement(pow(self.value, -1, self.field.q), self.field)

    def __pow__(self, exponent: int) -> "FieldElement":
        """Square-and-multiply power; 0**0 is defined as 1."""
        if exponent < 0:
            return self.inv() ** (-exponent)
        return FieldElement(pow(self.value, exponent, self.field.q), self.field)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.q
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.q, self.value))

    def __int__(self) -> int:
        return self.value

    __index__ = __int__

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.field.q})"
