"""Counter-based deterministic randomness for reproducible fixtures.

Every "random" object in this package is a pure function of an integer
seed and a tuple of string tags.  Draw k is derived as

    SHA-256(f"{seed}|{tag0/tag1/...}|{k}")  ->  256-bit big-endian int

reduced mod p for prime fields, or mapped to a signed integer in
[-99, 99] over Q.  No global state, no platform dependence: the same
seed and tags give the same coefficients everywhere, which is what lets
pinned scenario seeds stay meaningful.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from .fields import Field, PrimeField
from .linalg import det_over_field
from .polynomials import Polynomial, Ring, monomials_of_degree


def _digest_int(seed: int, tags: "tuple[str, ...]", counter: int) -> int:
    label = f"{seed}|{'/'.join(tags)}|{counter}".encode()
    return int.from_bytes(hashlib.sha256(label).digest(), "big")


def element_stream(field: Field, seed: int, *tags: str) -> Iterator:
    """Infinite stream of field elements for (seed, tags), counter order."""
    counter = 0
    prime = isinstance(field, PrimeField)
    while True:
        value = _digest_int(seed, tags, counter)
        if prime:
            yield value % field.p
        else:
            yield field.normalize(value % 199 - 99)
        counter += 1


def random_form(ring: Ring, degree: int, seed: int, *tags: str) -> Polynomial:
    """A dense homogeneous form: one drawn coefficient per monomial.

    Monomials are enumerated in descending grevlex so the coefficient
    layout is part of the documented generator contract.  Negative
    degree gives the zero polynomial.
    """
    if degree < 0:
        return Polynomial.zero(ring)
    stream = element_stream(ring.field, seed, *tags)
    terms = {}
    for mono in reversed(monomials_of_degree(ring.nvars, degree)):
        c = next(stream)
        if c:
            terms[mono] = c
    return Polynomial(ring, terms)


def random_invertible_matrix(field: Field, size: int, seed: int, *tags: str):
    """A deterministic invertible size x size matrix of field elements.

    Singular draws bump a retry tag, so the result is still a pure
    function of (seed, tags).
    """
    for attempt in range(64):
        stream = element_stream(field, seed, *tags, f"try{attempt}")
        rows = tuple(tuple(next(stream) for _ in range(size)) for _ in range(size))
        if det_over_field(rows, field):
            return rows
    raise RuntimeError("could not draw an invertible matrix")


def random_point(field: Field, length: int, seed: int, *tags: str) -> "tuple[int, ...]":
    stream = element_stream(field, seed, *tags)
    return tuple(next(stream) for _ in range(length))
