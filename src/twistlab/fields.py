"""Exact scalar arithmetic over the rationals and over prime fields F_p.

Scalars are plain values: ``fractions.Fraction`` over Q and canonical
residues 0..p-1 (plain ``int``) over F_p.  Canonical form is unique, so
``==`` on scalars is structural equality and bool(x) tests nonzero.
"""

from __future__ import annotations

from fractions import Fraction

PRIME_BOUND = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Field descriptor (Q or F_p) bundled with arithmetic on raw scalars."""

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and (
            characteristic >= PRIME_BOUND or not _is_prime(characteristic)
        ):
            raise ValueError(
                f"characteristic must be 0 or a prime below 2^16, got {characteristic}"
            )
        self.characteristic = characteristic
        if characteristic == 0:
            self.zero = Fraction(0)
            self.one = Fraction(1)
        else:
            self.zero = 0
            self.one = 1

    @property
    def name(self) -> str:
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.characteristic == self.characteristic

    def __hash__(self) -> int:
        return hash(("Field", self.characteristic))

    def __repr__(self) -> str:
        return f"Field({self.name})"

    # construction

    def scalar(self, x):
        """Coerce an int, Fraction or string to a canonical scalar."""
        p = self.characteristic
        if p == 0:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, (int, str)):
                return Fraction(x)
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, int):
            return x % p
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise ZeroDivisionError(f"{x} has no image in F{p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        raise TypeError(f"cannot coerce {x!r} into F{p}")

    # arithmetic

    def add(self, x, y):
        p = self.characteristic
        return x + y if p == 0 else (x + y) % p

    def sub(self, x, y):
        p = self.characteristic
        return x - y if p == 0 else (x - y) % p

    def mul(self, x, y):
        p = self.characteristic
        return x * y if p == 0 else (x * y) % p

    def neg(self, x):
        p = self.characteristic
        return -x if p == 0 else (-x) % p

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of zero")
        p = self.characteristic
        return 1 / x if p == 0 else pow(x, -1, p)

    # enumeration and serialization

    def elements(self) -> list:
        if self.characteristic == 0:
            raise ValueError("Q has infinitely many elements")
        return list(range(self.characteristic))

    def scalar_to_str(self, x) -> str:
        return str(x)


QQ = Field(0)


def GF(p: int) -> Field:
    return Field(p)


def field_from_name(name: str) -> Field:
    """Parse a field tag: "Q" or "F<p>", accepted only as the field's own
    ``name`` spells it (so not "F0" or "F007")."""
    if name == "Q":
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        field = Field(int(name[1:]))
        if field.name == name:
            return field
    raise ValueError(f"unknown field tag {name!r} (expected Q or F<p>)")
