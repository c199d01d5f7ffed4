"""Grobner bases over exact fields, sized for zero-dimensional work.

The engine is a plain Buchberger loop with the two classical pair
filters (coprime leading monomials and the Gebauer-Moller chain
criteria), normal pair selection (smallest lcm degree first, ties broken
by grevlex and then by index), and full tail reduction at the end.  The
term order is grevlex throughout.  Output bases are reduced: monic,
minimal, mutually tail-reduced, sorted by ascending leading monomial.
Reduced bases are unique per ideal, which makes basis equality a usable
ideal-equality test and makes the whole pipeline deterministic.

Inside the engine a monomial in n variables is one Python int, the
packed key K = (Q << 16n) + E of Monagan and Pearce (*Sparse polynomial
division using a heap*, J. Symb. Comput. 2011):

- E holds the exponents in 16-bit fields, e_i in bits 16i .. 16i + 15;
  the top bit of each field is a guard bit;
- Q = deg * B^(n-1) - sum_{i>=1} e_i * B^(i-1) with B = 2^16, the
  grevlex rank of the monomial.

Both parts are linear in the exponents, so the key of a product is the
sum of the keys, int order is grevlex, and x^a divides x^m exactly when
(K_m - K_a) & guard == 0, a borrow out of any field landing on its
guard bit.  That difference is then the key of the quotient.  Every
monomial of degree below 2^15 fits; a key is made only from an input
monomial or the lcm of two leading monomials, and every other monomial
the loop meets is grevlex-below one of those, so the degree check sits
at those two places and raises ResourceBudgetError past the limit.

Division keeps the working polynomial in a dict plus a lazy heap of
negated keys, so extracting the current lead term is O(log n) and
shifting a reducer's tail term is one int addition.  The pending
S-pairs sit in a heap keyed by (lcm key, i, j), which is the selection
order above; pairs the chain criterion drops stay in the heap and are
skipped when popped.  Each basis element counts the pending pairs that
name it, plus one while it is in the basis, and its (lead, tail) is
dropped when that count reaches zero, so the loop holds the live basis
and the pairs still to run, not every element it ever made.  Keys are
decoded to exponent tuples only for the output; GroebnerBasis encodes
its elements once and runs every query on keys.

A pair budget (default 200000, overridable via the
SYMMETROIDS_PAIR_BUDGET environment variable) turns runaway
computations into a clean ResourceBudgetError.
"""

from __future__ import annotations

import heapq
import math
import os
from collections import deque
from functools import cached_property
from operator import mul as _mul
from typing import Iterable

import numpy as np

from .fields import PrimeField
from .linalg import char_poly_mod_p, squarefree_univariate_mod_p
from .polynomials import Polynomial, Ring, grevlex_key, mono_divides, mono_lcm
from .randomness import random_form

DEFAULT_PAIR_BUDGET = 200_000
PAIR_BUDGET_ENV = "SYMMETROIDS_PAIR_BUDGET"
# Random separating forms tried before a quotient counts as uncertified.
CERTIFICATE_ATTEMPTS = 5
# Bits per exponent field of a packed key; the top one is the guard bit.
FIELD_BITS = 16
# Monomials of this degree or more do not fit a packed key.
DEGREE_LIMIT = 1 << (FIELD_BITS - 1)
FIELD_MASK = (1 << FIELD_BITS) - 1


class ResourceBudgetError(Exception):
    """The S-pair budget ran out, or a monomial outgrew the packed keys."""


class CertificateError(ValueError):
    """The reducedness certificate cannot run on this input."""


class PairBudgetError(ValueError):
    """SYMMETROIDS_PAIR_BUDGET does not hold an integer."""


def effective_pair_budget(pair_budget: "int | None") -> int:
    if pair_budget is not None:
        return pair_budget
    env = os.environ.get(PAIR_BUDGET_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise PairBudgetError(
                f"{PAIR_BUDGET_ENV} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_PAIR_BUDGET


class Packing:
    """Packed monomial keys of a ring with n variables (see the module docstring)."""

    __slots__ = ("weights", "shifts", "guard", "mask")

    def __init__(self, nvars: int):
        base = 1 << FIELD_BITS
        width = FIELD_BITS * nvars
        top = base ** (nvars - 1)
        self.shifts = tuple(FIELD_BITS * i for i in range(nvars))
        # K = sum_i e_i * weights[i]: the Q weight above bit 16n, the
        # field's unit below it
        self.weights = tuple(
            ((top - (base ** (i - 1) if i else 0)) << width) + (1 << s)
            for i, s in enumerate(self.shifts)
        )
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in self.shifts)
        self.mask = (1 << width) - 1

    @staticmethod
    def check_degree(degree: int) -> None:
        if degree >= DEGREE_LIMIT:
            raise ResourceBudgetError(
                f"a monomial of degree {degree} exceeds the packed-monomial "
                f"limit of {DEGREE_LIMIT - 1}"
            )

    def encode(self, mono) -> int:
        """The key of an exponent tuple; ResourceBudgetError past the degree limit."""
        self.check_degree(sum(mono))
        return sum(map(_mul, mono, self.weights))

    def decode(self, key: int) -> "tuple[int, ...]":
        e = key & self.mask
        return tuple([(e >> s) & FIELD_MASK for s in self.shifts])

    def encode_terms(self, terms: dict) -> dict:
        encode = self.encode
        return {encode(m): c for m, c in terms.items()}

    def decode_terms(self, terms: dict) -> dict:
        decode = self.decode
        return {decode(k): c for k, c in terms.items()}


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _normal_form_raw(fterms: dict, reducers, field, guard: int) -> dict:
    """Remainder of f modulo a list of monic (lead, tail) reducers, all on keys.

    The remainder's terms come out in descending grevlex order.
    """
    if not fterms:
        return {}
    # over F_p the arithmetic is inlined; p = 0 selects the field's
    # methods, for Q
    p = field.characteristic
    sub = field.sub
    mul = field.mul
    neg = field.neg
    push = heapq.heappush
    pop = heapq.heappop
    work = dict(fterms)
    heap = [-k for k in work]
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        m = -pop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        for lead, tail in reducers:
            q = m - lead
            if not q & guard:
                break
        else:
            out[m] = c
            continue
        for tk, tc in tail.items():
            mono = tk + q
            prev = work.get(mono)
            if prev is None:
                # a product of nonzero field elements is nonzero
                work[mono] = -c * tc % p if p else neg(mul(c, tc))
                push(heap, -mono)
            else:
                val = (prev - c * tc) % p if p else sub(prev, mul(c, tc))
                if val:
                    work[mono] = val
                else:
                    del work[mono]
    return out


def _split_monic(terms: dict, field):
    """(lead key, tail dict) of a monic copy of a polynomial on keys."""
    lead = max(terms)
    lc = terms[lead]
    if lc == field.one:
        tail = {m: c for m, c in terms.items() if m != lead}
    else:
        inv = field.inv(lc)
        mul = field.mul
        tail = {m: mul(c, inv) for m, c in terms.items() if m != lead}
    return lead, tail


def _spoly_raw(a, b, lcm: int, field) -> dict:
    """S(a, b) of monic (lead, tail) pairs whose leads have the lcm key given."""
    lead_a, tail_a = a
    lead_b, tail_b = b
    qa = lcm - lead_a
    qb = lcm - lead_b
    s = {m + qa: c for m, c in tail_a.items()}
    neg = field.neg
    sub = field.sub
    for m, c in tail_b.items():
        mono = m + qb
        prev = s.get(mono)
        if prev is None:
            s[mono] = neg(c)
        else:
            v = sub(prev, c)
            if v:
                s[mono] = v
            else:
                del s[mono]
    return s


def _is_constant_terms(terms: dict) -> bool:
    return len(terms) == 1 and 0 in terms


def _buchberger_raw(inputs: "list[dict]", packing: Packing, field, budget: int):
    """Buchberger on keys; the reduced basis as monic (lead, tail) pairs."""
    guard = packing.guard
    one = [(0, {})]

    # per element: (lead, tail) and the decoded lead, both None once freed
    store: "list[tuple | None]" = []
    leads: "list[tuple | None]" = []
    # pending pairs naming an element, plus one while it is alive
    refs: "list[int]" = []
    alive: "list[int]" = []
    pending: "dict[tuple[int, int], int]" = {}
    queue: "list[tuple[int, int, int]]" = []

    def reducers():
        return [store[g] for g in alive]

    def release(g: int):
        refs[g] -= 1
        if not refs[g]:
            store[g] = leads[g] = None

    def add(r: dict):
        store.append(_split_monic(r, field))
        leads.append(packing.decode(store[-1][0]))
        refs.append(1)
        update(len(store) - 1)

    def update(h: int):
        # Gebauer-Moller update: prune new pairs by the chain criterion,
        # drop coprime-lead pairs, filter stale old pairs, retire basis
        # elements whose lead became divisible.
        h_key = store[h][0]
        h_lm = leads[h]
        candidates = deque((g, packing.encode(mono_lcm(h_lm, leads[g]))) for g in alive)
        kept: "list[tuple]" = []
        while candidates:
            g, l = candidates.popleft()
            if _coprime(h_lm, leads[g]):
                kept.append((g, l))
                continue
            dominated = any(not (l - l2) & guard for _, l2 in candidates) or any(
                not (l - l2) & guard for _, l2 in kept
            )
            if not dominated:
                kept.append((g, l))
        for (i, j), l in list(pending.items()):
            if not (l - h_key) & guard:
                lm = packing.decode(l)
                if mono_lcm(leads[i], h_lm) != lm and mono_lcm(leads[j], h_lm) != lm:
                    del pending[(i, j)]
                    release(i)
                    release(j)
        for g, l in kept:
            if not _coprime(h_lm, leads[g]):
                pending[(g, h)] = l
                heapq.heappush(queue, (l, g, h))
                refs[g] += 1
                refs[h] += 1
        still = []
        for g in alive:
            if (store[g][0] - h_key) & guard:
                still.append(g)
            else:
                release(g)
        alive[:] = still + [h]

    for terms in inputs:
        if not terms:
            continue
        r = _normal_form_raw(terms, reducers(), field, guard)
        if not r:
            continue
        if _is_constant_terms(r):
            return one
        add(r)

    processed = 0
    while pending:
        l, i, j = heapq.heappop(queue)
        if pending.pop((i, j), None) is None:
            continue
        processed += 1
        if processed > budget:
            raise ResourceBudgetError(
                f"S-pair budget of {budget} exhausted ({processed} pairs processed)"
            )
        s = _spoly_raw(store[i], store[j], l, field)
        release(i)
        release(j)
        r = _normal_form_raw(s, reducers(), field, guard)
        if not r:
            continue
        if _is_constant_terms(r):
            return one
        add(r)

    return _reduce_basis_raw([store[g] for g in alive], field, guard)


def _reduce_basis_raw(elements, field, guard: int):
    """Minimalize then tail-reduce; output sorted by ascending lead."""
    elements = sorted(elements, key=lambda e: e[0])
    minimal = []
    for lead, tail in elements:
        if all((lead - other[0]) & guard for other in minimal):
            minimal.append((lead, tail))
    reduced = []
    for idx, (lead, tail) in enumerate(minimal):
        others = [minimal[k] for k in range(len(minimal)) if k != idx]
        reduced.append((lead, _normal_form_raw(tail, others, field, guard)))
    reduced.sort(key=lambda e: e[0])
    return reduced


class GroebnerBasis:
    """A reduced basis together with division and staircase queries."""

    def __init__(self, ring: Ring, raw_elements):
        self.ring = ring
        self._raw = list(raw_elements)
        self._packing = Packing(ring.nvars)
        self._reducers = [
            (self._packing.encode(lm), self._packing.encode_terms(tail))
            for lm, tail in self._raw
        ]
        self.elements = tuple(
            Polynomial(ring, {lm: ring.field.one, **tail}) for lm, tail in self._raw
        )

    def __len__(self) -> int:
        return len(self._raw)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.ring == other.ring and self.elements == other.elements

    def __iter__(self):
        return iter(self.elements)

    def lead_monomials(self) -> "list[tuple[int, ...]]":
        return [lm for lm, _ in self._raw]

    def is_unit_ideal(self) -> bool:
        return len(self._raw) == 1 and not any(self._raw[0][0])

    def _normal_form_keys(self, terms: dict) -> dict:
        return _normal_form_raw(terms, self._reducers, self.ring.field, self._packing.guard)

    def normal_form(self, poly: Polynomial) -> Polynomial:
        if poly.ring != self.ring:
            raise ValueError("polynomial lives in a different ring")
        packing = self._packing
        out = self._normal_form_keys(packing.encode_terms(poly.terms))
        return Polynomial(self.ring, packing.decode_terms(out))

    def quotient_monomials(self) -> "tuple[tuple[int, ...], ...] | None":
        """The staircase basis of the quotient, or None when infinite.

        Finiteness is the classical test: every variable must carry a
        pure-power leading monomial.  The staircase is enumerated once
        per basis and shared by every caller, hence a tuple.
        """
        return self._staircase

    @cached_property
    def _staircase(self) -> "tuple[tuple[int, ...], ...] | None":
        lms = self.lead_monomials()
        if not lms:
            return None
        if any(not any(lm) for lm in lms):
            return ()
        n = self.ring.nvars
        caps = []
        for i in range(n):
            pure = [
                lm[i]
                for lm in lms
                if lm[i] > 0 and all(e == 0 for k, e in enumerate(lm) if k != i)
            ]
            if not pure:
                return None
            caps.append(min(pure))
        out = []
        stack = [(0, ())]
        while stack:
            i, prefix = stack.pop()
            if i == n:
                mono = prefix
                if not any(mono_divides(lm, mono) for lm in lms):
                    out.append(mono)
                continue
            for e in range(caps[i]):
                stack.append((i + 1, prefix + (e,)))
        out.sort(key=grevlex_key)
        return tuple(out)

    def colength(self):
        """Vector-space dimension of the quotient; math.inf when infinite."""
        basis = self.quotient_monomials()
        if basis is None:
            return math.inf
        return len(basis)


class Ideal:
    """An ideal given by generators."""

    def __init__(self, ring: Ring, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise ValueError("generator ring mismatch")
            if g:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)

    def groebner_basis(self, *, pair_budget: "int | None" = None) -> GroebnerBasis:
        """The reduced grevlex basis, computed afresh on each call."""
        budget = effective_pair_budget(pair_budget)
        packing = Packing(self.ring.nvars)
        inputs = [packing.encode_terms(g.terms) for g in self.generators]
        reduced = _buchberger_raw(inputs, packing, self.ring.field, budget)
        return GroebnerBasis(
            self.ring,
            [(packing.decode(lead), packing.decode_terms(tail)) for lead, tail in reduced],
        )


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) after making both inputs monic."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    if not f or not g:
        raise ValueError("S-polynomial of zero")
    field = f.ring.field
    packing = Packing(f.ring.nvars)
    a = _split_monic(packing.encode_terms(f.terms), field)
    b = _split_monic(packing.encode_terms(g.terms), field)
    lcm = packing.encode(mono_lcm(packing.decode(a[0]), packing.decode(b[0])))
    return Polynomial(f.ring, packing.decode_terms(_spoly_raw(a, b, lcm, field)))


def audit_s_polynomials(basis: GroebnerBasis) -> bool:
    """Criterion-free audit: every S-pair must reduce to zero."""
    elems = basis.elements
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            s = s_polynomial(elems[i], elems[j])
            if basis.normal_form(s):
                return False
    return True


# ---------------------------------------------------------------------------
# Radical membership


def radical_membership(
    f: Polynomial, ideal: Ideal, pair_budget: "int | None" = None
) -> bool:
    """f in rad(I), decided by 1 in I + (t*f - 1).

    The Buchberger loop short-circuits the moment a nonzero constant
    appears, so positive answers return quickly.
    """
    if f.ring != ideal.ring:
        raise ValueError("ring mismatch")
    if not f:
        return True
    ring = ideal.ring
    ext = Ring(ring.nvars + 1, ring.field)
    field = ring.field
    gens = [
        Polynomial(ext, {(0,) + m: c for m, c in g.terms.items()})
        for g in ideal.generators
    ]
    tf = {(1,) + m: c for m, c in f.terms.items()}
    const = (0,) * ext.nvars
    tf[const] = field.neg(field.one)
    gens.append(Polynomial(ext, tf))
    basis = Ideal(ext, gens).groebner_basis(pair_budget=pair_budget)
    return basis.is_unit_ideal()


# ---------------------------------------------------------------------------
# Multiplication matrices and the reducedness certificate


def multiplication_matrix(basis: GroebnerBasis, ell: Polynomial):
    """(matrix, staircase) of multiplication by ell on the quotient.

    Column j holds the coordinates of NF(ell * b_j) in the staircase
    basis; requires a zero-dimensional quotient and deg(ell) <= 1.
    """
    if ell.ring != basis.ring:
        raise ValueError("ring mismatch")
    if ell.degree() > 1:
        raise ValueError("multiplication matrices are built for linear forms")
    staircase = basis.quotient_monomials()
    if staircase is None:
        raise ValueError("quotient is not finite-dimensional")
    n = len(staircase)
    field = basis.ring.field
    matrix = [[field.zero] * n for _ in range(n)]
    packing = basis._packing
    # each ell * b_j is made as a sum of keys, so its degree is checked here
    packing.check_degree(max(map(sum, staircase), default=0) + 1)
    keys = [packing.encode(m) for m in staircase]
    index = {k: i for i, k in enumerate(keys)}
    ell_terms = packing.encode_terms(ell.terms)
    for j, key in enumerate(keys):
        image = basis._normal_form_keys({k + key: c for k, c in ell_terms.items()})
        for k, c in image.items():
            matrix[index[k]][j] = c
    return matrix, staircase


def colength_where_unit(basis: GroebnerBasis, ell: Polynomial) -> int:
    """Dimension of the part of the quotient A on which ell is a unit.

    A is the product of its local algebras A_P, one per point P of the
    zero-dimensional scheme, and multiplication by a linear form ell is
    invertible on A_P when ell(P) != 0 and nilpotent when ell(P) = 0.
    So the characteristic polynomial of that multiplication has 0 as a
    root of multiplicity sum of dim A_P over the zeros P of ell, and the
    answer is the colength minus that multiplicity.  Over F_p with p
    greater than the colength, which the characteristic polynomial needs.
    """
    matrix, staircase = multiplication_matrix(basis, ell)
    if not staircase:
        return 0
    chi = char_poly_mod_p(np.array(matrix, dtype=np.int64), basis.ring.field.p)
    return len(staircase) - next(k for k, c in enumerate(reversed(chi)) if c)


def squarefree_certificate(basis: GroebnerBasis, seed: int) -> bool:
    """Probabilistically certify that a zero-dimensional quotient is reduced.

    Draw a random linear form ell, build its multiplication matrix, and
    test the characteristic polynomial for squarefreeness.  A squarefree
    answer proves the quotient is reduced (the algebra is then generated
    by ell and isomorphic to F_p[x]/(squarefree)); a False answer only
    means "not certified", though after CERTIFICATE_ATTEMPTS forms on a
    reduced quotient the failure probability is astronomically small.
    """
    field = basis.ring.field
    if not isinstance(field, PrimeField):
        raise CertificateError("the reducedness certificate runs over prime fields")
    staircase = basis.quotient_monomials()
    if staircase is None:
        raise CertificateError("quotient is not finite-dimensional")
    t = len(staircase)
    if t == 0:
        return True
    if field.p <= t:
        raise CertificateError(
            f"certificate needs p > colength ({field.p} <= {t})"
        )
    for attempt in range(CERTIFICATE_ATTEMPTS):
        ell = random_form(basis.ring, 1, seed, "separator", str(attempt))
        matrix, _ = multiplication_matrix(basis, ell)
        chi = char_poly_mod_p(np.array(matrix, dtype=np.int64), field.p)
        if squarefree_univariate_mod_p(chi, field.p):
            return True
    return False
