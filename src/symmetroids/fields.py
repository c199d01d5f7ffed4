"""Exact coefficient fields: the rationals and odd prime fields.

Every computation in this package is exact.  Coefficients are either
`fractions.Fraction` values (always in lowest terms with positive
denominator, which the stdlib guarantees) or plain ints in ``[0, p)``
representing residues of an odd prime field.  The field objects below
carry the arithmetic; polynomials and matrices store the raw values.

Prime fields must have word-sized odd characteristic.  Characteristic 2
is rejected because symmetric rank arguments divide by 2 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# PEP 604 unions, not typing.Union: typing caches Union[...] objects, and
# that cache would keep every superseded copy of these classes alive
# across a re-import of the package.
Coeff = int | Fraction


class FieldError(ValueError):
    """Invalid field construction or a coefficient outside the field."""


def _is_probable_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for word-sized inputs.
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RationalField:
    """The field of arbitrary-precision rationals."""

    characteristic: int = 0

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def normalize(self, value) -> Fraction:
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def parse_coefficient(self, numerator: str, denominator: "str | None") -> Fraction:
        if denominator is None:
            return Fraction(int(numerator))
        den = int(denominator)
        if den == 0:
            raise FieldError("zero denominator")
        return Fraction(int(numerator), den)

    def format_coefficient(self, value) -> str:
        return str(Fraction(value))

    def to_json(self):
        return "Q"

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for an odd word-sized prime p; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if self.p == 2:
            raise FieldError("characteristic 2 is not supported")
        if self.p >= 1 << 62:
            raise FieldError("modulus must be word-sized")
        if not _is_probable_prime(self.p):
            raise FieldError(f"{self.p} is not prime")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def normalize(self, value) -> int:
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return value.numerator % self.p
            raise FieldError(f"rational {value} is not an F_{self.p} residue")
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def parse_coefficient(self, numerator: str, denominator: "str | None") -> int:
        if denominator is not None:
            raise FieldError("fraction coefficients are only valid over Q")
        return int(numerator) % self.p

    def format_coefficient(self, value) -> str:
        return str(value % self.p)

    def to_json(self):
        return {"Fp": self.p}

    def __str__(self) -> str:
        return f"F_{self.p}"


QQ = RationalField()

#: Default modulus for node-counting pipelines: large enough that chart
#: genericity and point-separation arguments hold with margin, small
#: enough that residue arithmetic stays in machine words.
DEFAULT_PRIME = 31991

Field = RationalField | PrimeField


def field_from_json(obj) -> Field:
    """Inverse of ``Field.to_json``: "Q" or {"Fp": p}."""
    if obj == "Q":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"Fp"}:
        return PrimeField(int(obj["Fp"]))
    raise FieldError(f"unrecognized field description: {obj!r}")
