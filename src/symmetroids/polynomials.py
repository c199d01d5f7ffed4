"""Sparse multivariate polynomials over exact fields.

A polynomial is an immutable mapping from exponent vectors (tuples of
nonnegative ints, one slot per ring variable) to nonzero coefficients.
Zero coefficients are dropped eagerly, so the zero polynomial is the
empty mapping and equality is plain dict equality.

The one term order is grevlex: higher total degree wins; ties break by
the *smallest* exponent on the *last* variable.  ``grevlex_key`` is its
one definition, the flat tuple ``(deg, -e_{n-1}, ..., -e_0)`` that sorts
monomials ascending.  Negating every slot gives a key for the descending
order, which is what the Groebner engine's division heap uses.  Every
number the package reads off a Groebner basis is a dimension of
k[x]/I, which does not depend on the order.

``Polynomial.linear_change`` is the one coordinate change: x -> A y,
for charts of P^3 and plane sections alike.  It runs Horner's scheme in
one variable after another, so every product multiplies by the linear
image of one variable and no power of an image is ever formed.

The text format is deliberately tiny.  Variables are ``x0 .. x{n-1}``,
``^`` marks exponents >= 2, ``*`` separates factors, coefficients are
integers (or ``a/b`` rationals over Q).  The canonical printer emits
terms in descending grevlex with explicit ``*`` so that
parse(print(f)) == f exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .fields import Coeff, Field, FieldError, RationalField
from .linalg import rank_over_field

Monomial = "tuple[int, ...]"


@dataclass(frozen=True)
class Ring:
    """A polynomial ring: a coefficient field and a variable count."""

    nvars: int
    field: Field

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("a ring needs at least one variable")

    def zero_monomial(self) -> "tuple[int, ...]":
        return (0,) * self.nvars

    def __str__(self) -> str:
        return f"{self.field}[{', '.join(f'x{i}' for i in range(self.nvars))}]"


def mono_divides(a, b) -> bool:
    """True when x^a divides x^b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(mono):
    """Ascending grevlex sort key of an exponent vector."""
    return (sum(mono), *[-e for e in reversed(mono)])


# Unused in the package; it stays bound because the benchmark's tracer
# (bench/spans.py) files each Ideal.groebner_basis call under its grevlex
# span by comparing against polynomials.GREVLEX.
GREVLEX = grevlex_key


def monomials_of_degree(nvars: int, degree: int) -> "list[tuple[int, ...]]":
    """All exponent vectors of the given total degree, ascending grevlex."""
    if degree < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, nvars)
    out.sort(key=grevlex_key)
    return out


def monomials_up_to_degree(nvars: int, degree: int) -> "list[tuple[int, ...]]":
    out = []
    for d in range(degree + 1):
        out.extend(monomials_of_degree(nvars, d))
    return out


@lru_cache(maxsize=None)
def _monomial_table(nvars: int, degree: int, up_to: bool):
    """(exponents, weights, codes) of monomials_of_degree or monomials_up_to_degree.

    `exponents` is a read-only int64 array with one monomial per row.
    Every exponent is below base = degree + 1, and on such vectors
    e @ weights = deg(e) * base^n - sum_i e_i * base^i is injective and
    ascending in grevlex: degree first, then descending in the number
    whose base-`base` digits are e_{n-1}, ..., e_0.  `codes` is
    exponents @ weights, so it is sorted.  The codes are int64 when
    they fit, Python ints otherwise.
    """
    monos = (monomials_up_to_degree if up_to else monomials_of_degree)(nvars, degree)
    exponents = np.array(monos, dtype=np.int64).reshape(-1, nvars)
    base = degree + 1
    dtype = np.int64 if base ** (nvars + 1) < 2**63 else object
    weights = np.array([base**nvars - base**i for i in range(nvars)], dtype=dtype)
    codes = exponents @ weights
    for array in (exponents, weights, codes):
        array.flags.writeable = False
    return exponents, weights, codes


def monomial_array(nvars: int, degree: int, up_to: bool = False) -> np.ndarray:
    """monomials_of_degree (or monomials_up_to_degree) as a read-only int64 array.

    Memoized per (nvars, degree, up_to): one row per monomial, in the
    same order.
    """
    return _monomial_table(nvars, degree, up_to)[0]


def shift_positions(poly: "Polynomial", shifts: np.ndarray, degree: int, up_to: bool = False):
    """(positions, coefficients) of poly times each monomial in `shifts`.

    Every product must lie in monomial_array(nvars, degree, up_to), the
    target list.  positions[s, k] is the index in that list of term s of
    poly times shifts[k]; coefficients[s] is the coefficient of term s,
    int64 over a prime field and Fractions in an object array over Q.
    The target list's code e @ weights is linear in e, so a product's
    code is the sum of its factors' codes, and one searchsorted against
    the sorted target codes finds every position.
    """
    _, weights, codes = _monomial_table(poly.ring.nvars, degree, up_to)
    exponents = np.array(list(poly.terms), dtype=np.int64)
    dtype = object if isinstance(poly.ring.field, RationalField) else np.int64
    coefficients = np.array(list(poly.terms.values()), dtype=dtype)
    products = (exponents @ weights)[:, None] + shifts @ weights
    return np.searchsorted(codes, products), coefficients


class Polynomial:
    """An immutable sparse polynomial attached to a ring.

    ``terms`` maps exponent tuples to nonzero raw coefficients (ints for
    prime fields, Fractions over Q).  Treat it as read-only.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring, {})

    @classmethod
    def constant(cls, ring: Ring, value) -> "Polynomial":
        c = ring.field.normalize(value)
        if not c:
            return cls(ring, {})
        return cls(ring, {ring.zero_monomial(): c})

    @classmethod
    def from_terms(cls, ring: Ring, items) -> "Polynomial":
        field = ring.field
        terms: dict = {}
        for mono, coeff in dict(items).items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != ring.nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono}")
            c = field.normalize(coeff)
            if c:
                terms[mono] = c
        return cls(ring, terms)

    # -- basic queries -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __len__(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        if not self.terms:
            raise ValueError("the zero polynomial has no homogeneous degree")
        degrees = {sum(m) for m in self.terms}
        if len(degrees) != 1:
            raise ValueError("polynomial is not homogeneous")
        return degrees.pop()

    # -- arithmetic -----------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        field = self.ring.field
        add = field.add
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            if prev is None:
                out[m] = c
            else:
                v = add(prev, c)
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        field = self.ring.field
        mul = field.mul
        add = field.add
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                c = mul(ca, cb)
                prev = out.get(m)
                if prev is None:
                    out[m] = c
                else:
                    v = add(prev, c)
                    if v:
                        out[m] = v
                    else:
                        del out[m]
        return Polynomial(self.ring, out)

    def scale(self, value) -> "Polynomial":
        field = self.ring.field
        c = field.normalize(value)
        if not c:
            return Polynomial.zero(self.ring)
        mul = field.mul
        return Polynomial(self.ring, {m: mul(cv, c) for m, cv in self.terms.items()})

    # -- calculus and substitution ---------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        if not 0 <= index < self.ring.nvars:
            raise ValueError(f"variable index {index} out of range")
        field = self.ring.field
        out: dict = {}
        for m, c in self.terms.items():
            e = m[index]
            if e == 0:
                continue
            coeff = field.mul(c, field.normalize(e))
            if not coeff:
                continue
            dm = m[:index] + (e - 1,) + m[index + 1 :]
            prev = out.get(dm)
            if prev is None:
                out[dm] = coeff
            else:
                v = field.add(prev, coeff)
                if v:
                    out[dm] = v
                else:
                    del out[dm]
        return Polynomial(self.ring, out)

    def evaluate(self, point: Sequence) -> Coeff:
        if len(point) != self.ring.nvars:
            raise ValueError("point has wrong length")
        field = self.ring.field
        values = [field.normalize(v) for v in point]
        total = field.zero
        for m, c in self.terms.items():
            acc = c
            for v, e in zip(values, m):
                for _ in range(e):
                    acc = field.mul(acc, v)
            total = field.add(total, acc)
        return total

    def linear_change(self, matrix) -> "Polynomial":
        """The composite f(A y): substitute x_i -> sum_j A[i][j] y_j.

        A is nvars x k with full column rank k, and the result lives in
        Ring(k, field).  A square A is an invertible change of
        coordinates; a 4 x 3 one parametrizes a plane of P^3.  The
        substitution is Horner's scheme in x_0, x_1, ... (see
        `_LinearMap`).
        """
        return _LinearMap(self.ring, matrix)(self)

    def dehomogenize(self, chart: int) -> "Polynomial":
        """Set variable `chart` to 1 and drop it; requires homogeneous input."""
        if self.terms and not self.is_homogeneous():
            raise ValueError("dehomogenization needs a homogeneous polynomial")
        if not 0 <= chart < self.ring.nvars:
            raise ValueError(f"chart index {chart} out of range")
        ring = Ring(self.ring.nvars - 1, self.ring.field)
        field = ring.field
        out: dict = {}
        for m, c in self.terms.items():
            dm = m[:chart] + m[chart + 1 :]
            prev = out.get(dm)
            if prev is None:
                out[dm] = c
            else:
                v = field.add(prev, c)
                if v:
                    out[dm] = v
                else:
                    del out[dm]
        return Polynomial(ring, out)

    # -- text -----------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<{self.ring}: {format_polynomial(self)}>"


class _LinearMap:
    """x_i -> sum_j A[i][j] y_j from `ring` into Ring(k), for a checked A.

    The map is normalized and checked (nvars x k, full column rank k)
    once, when it is built; calling it on a polynomial of `ring` checks
    nothing more, and the images of the variables are shared by every
    polynomial the map moves.  A call is Horner's scheme in x_0, then
    x_1, ...: writing f = sum_e x_0^e f_e with each f_e free of x_0,

        f(A y) = (...(f_top(A y) l_0 + f_{top-1}(A y)) l_0 + ...) l_0 + f_0(A y),

    where l_0 is x_0's image and each f_e is moved the same way in the
    later variables.  Every product is by one linear image, and no power
    of an image is formed.
    """

    def __init__(self, ring: Ring, matrix):
        field = ring.field
        rows = [[field.normalize(v) for v in row] for row in matrix]
        k = len(rows[0]) if rows else 0
        if len(rows) != ring.nvars or k < 1 or any(len(r) != k for r in rows):
            raise ValueError("substitution matrix has wrong shape")
        if rank_over_field(rows, field) != k:
            raise ValueError("substitution matrix does not have full column rank")
        self.target = Ring(k, field)
        self.images = [
            Polynomial.from_terms(
                self.target,
                {tuple(1 if j == l else 0 for l in range(k)): row[j] for j in range(k) if row[j]},
            )
            for row in rows
        ]

    def __call__(self, poly: Polynomial) -> Polynomial:
        if not poly.terms:
            return Polynomial.zero(self.target)
        # The groups hold the polynomial's own monomial keys: no new
        # object per term, so a move allocates no more than its products.
        return self._horner(poly.terms, list(poly.terms), 0)

    def _horner(self, terms: dict, monos: list, i: int) -> Polynomial:
        """The image of the terms on `monos` with x_0 .. x_{i-1} set to 1.

        The monomials agree in those exponents; the callers' Horner
        steps supply their factors.
        """
        mono = monos[0]
        if len(monos) == 1 and not any(mono[i:]):
            return Polynomial(self.target, {self.target.zero_monomial(): terms[mono]})
        groups: dict = {}
        for mono in monos:
            groups.setdefault(mono[i], []).append(mono)
        image = self.images[i]
        top = max(groups)
        acc = self._horner(terms, groups[top], i + 1)
        for e in range(top - 1, -1, -1):
            acc = acc * image
            if e in groups:
                acc = acc + self._horner(terms, groups[e], i + 1)
        return acc


# ---------------------------------------------------------------------------
# Text format


class PolyParseError(ValueError):
    """Syntax or semantic error in polynomial text, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^/":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError("variable name needs digits after 'x'", i)
            tokens.append(("var", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse the additive normal form described in the module docstring."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    field = ring.field
    terms: dict = {}

    def add_term(mono, coeff):
        prev = terms.get(mono)
        if prev is None:
            if coeff:
                terms[mono] = coeff
        else:
            v = field.add(prev, coeff)
            if v:
                terms[mono] = v
            else:
                del terms[mono]

    def parse_uint(context: str) -> int:
        kind, value, p = advance()
        if kind != "int":
            raise PolyParseError(f"expected {context}", p)
        return int(value)

    def parse_factor(exponents):
        kind, value, p = advance()
        if kind != "var":
            raise PolyParseError("expected a variable", p)
        index = int(value[1:])
        if index >= ring.nvars:
            raise PolyParseError(f"unknown variable {value} in a {ring.nvars}-variable ring", p)
        exp = 1
        if peek()[0] == "^":
            advance()
            exp = parse_uint("an exponent")
        exponents[index] += exp

    def parse_term(sign: int):
        kind, value, p = peek()
        coeff = None
        if kind == "int":
            advance()
            den = None
            if peek()[0] == "/":
                advance()
                den_tok = advance()
                if den_tok[0] != "int":
                    raise PolyParseError("expected a denominator", den_tok[2])
                den = den_tok[1]
            try:
                coeff = field.parse_coefficient(value, den)
            except FieldError as exc:
                raise PolyParseError(str(exc), p) from None
            if peek()[0] == "*":
                advance()
                if peek()[0] != "var":
                    raise PolyParseError("expected a variable after '*'", peek()[2])
        if peek()[0] == "var":
            exponents = [0] * ring.nvars
            parse_factor(exponents)
            while peek()[0] == "*":
                advance()
                parse_factor(exponents)
            mono = tuple(exponents)
        elif coeff is not None:
            mono = ring.zero_monomial()
        else:
            raise PolyParseError("expected a term", peek()[2])
        if coeff is None:
            coeff = field.one
        if sign < 0:
            coeff = field.neg(coeff)
        add_term(mono, coeff)

    sign = 1
    kind, _, _ = peek()
    if kind in ("+", "-"):
        advance()
        sign = -1 if kind == "-" else 1
    parse_term(sign)
    while peek()[0] != "end":
        kind, value, p = advance()
        if kind not in ("+", "-"):
            raise PolyParseError(f"expected '+' or '-', found {value!r}", p)
        parse_term(-1 if kind == "-" else 1)
    return Polynomial(ring, terms)


def _format_monomial(mono) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i}")
        elif e >= 2:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def format_polynomial(poly: Polynomial) -> str:
    """Canonical text: descending grevlex, explicit '*', minimal signs.

    Over Q the printer uses binary +/- with positive rendered
    coefficients; over F_p coefficients are residues in [0, p) and only
    '+' appears.  parse_polynomial inverts this exactly.
    """
    if not poly.terms:
        return "0"
    field = poly.ring.field
    rational = isinstance(field, RationalField)
    pieces = []
    terms = sorted(poly.terms.items(), key=lambda kv: grevlex_key(kv[0]), reverse=True)
    for i, (mono, coeff) in enumerate(terms):
        mono_text = _format_monomial(mono)
        if rational:
            negative = coeff < 0
            mag = -coeff if negative else coeff
            if not mono_text:
                body = field.format_coefficient(mag)
            elif mag == 1:
                body = mono_text
            else:
                body = f"{field.format_coefficient(mag)}*{mono_text}"
            if i == 0:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f" - {body}" if negative else f" + {body}")
        else:
            if not mono_text:
                body = field.format_coefficient(coeff)
            elif coeff == field.one:
                body = mono_text
            else:
                body = f"{field.format_coefficient(coeff)}*{mono_text}"
            pieces.append(body if i == 0 else f" + {body}")
    return "".join(pieces)
