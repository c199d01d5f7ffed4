"""Grobner bases over exact fields, sized for zero-dimensional work.

The engine is a plain Buchberger loop with the two classical pair
filters (coprime leading monomials and the Gebauer-Moller chain
criteria), normal pair selection (smallest lcm degree first, ties broken
by grevlex and then by index), and full tail reduction at the end.  The
term order is grevlex throughout.  Output bases are reduced: monic,
minimal, mutually tail-reduced, sorted by ascending leading monomial.
Reduced bases are unique per ideal, which makes basis equality a usable
ideal-equality test and makes the whole pipeline deterministic.

Division keeps the working polynomial in a dict plus a lazy max-heap of
monomial keys, so extracting the current lead term is O(log n) instead
of a linear scan; that is the difference between seconds and minutes on
the dense Jacobian ideals this package feeds in.

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
from typing import Iterable

import numpy as np

from .fields import PrimeField
from .linalg import char_poly_mod_p, squarefree_univariate_mod_p
from .polynomials import (
    Polynomial,
    Ring,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)
from .randomness import random_linear_form

DEFAULT_PAIR_BUDGET = 200_000
PAIR_BUDGET_ENV = "SYMMETROIDS_PAIR_BUDGET"
# Random separating forms tried before a quotient counts as uncertified.
CERTIFICATE_ATTEMPTS = 5


class ResourceBudgetError(Exception):
    """The S-pair budget was exhausted before the basis stabilized."""


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


def _heap_key(mono):
    """A key whose min-heap order equals descending grevlex."""
    return tuple([-k for k in grevlex_key(mono)])


def _coprime(a, b) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def _normal_form_raw(fterms: dict, reducers, field, key_cache: dict) -> dict:
    """Remainder of f modulo a list of monic (lead, tail) reducers."""
    if not fterms:
        return {}
    # over F_p the arithmetic is inlined; p = 0 selects the field's
    # methods, for Q
    p = field.characteristic
    sub = field.sub
    mul = field.mul
    neg = field.neg
    work = dict(fterms)
    heap = []
    for m in work:
        hk = key_cache.get(m)
        if hk is None:
            hk = _heap_key(m)
            key_cache[m] = hk
        heap.append((hk, m))
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, None)
        if c is None:
            continue
        hit = None
        for lm, tail in reducers:
            ok = True
            for x, y in zip(lm, m):
                if x > y:
                    ok = False
                    break
            if ok:
                hit = (lm, tail)
                break
        if hit is None:
            out[m] = c
            continue
        lm, tail = hit
        q = tuple([y - x for x, y in zip(lm, m)])
        shifted = any(q)
        for tm, tc in tail.items():
            mono = tuple([x + y for x, y in zip(tm, q)]) if shifted else tm
            prev = work.get(mono)
            if prev is None:
                val = -c * tc % p if p else neg(mul(c, tc))
                if val:
                    work[mono] = val
                    hk = key_cache.get(mono)
                    if hk is None:
                        hk = _heap_key(mono)
                        key_cache[mono] = hk
                    heapq.heappush(heap, (hk, mono))
            else:
                val = (prev - c * tc) % p if p else sub(prev, mul(c, tc))
                if val:
                    work[mono] = val
                else:
                    del work[mono]
    return out


def _split_monic(terms: dict, field):
    """(lead monomial, tail dict) of a monic copy of the polynomial."""
    lm = max(terms, key=grevlex_key)
    lc = terms[lm]
    if lc == field.one:
        tail = {m: c for m, c in terms.items() if m != lm}
    else:
        inv = field.inv(lc)
        mul = field.mul
        tail = {m: mul(c, inv) for m, c in terms.items() if m != lm}
    return lm, tail


def _spoly_raw(a, b, field) -> dict:
    lm_a, tail_a = a
    lm_b, tail_b = b
    l = mono_lcm(lm_a, lm_b)
    qa = mono_div(l, lm_a)
    qb = mono_div(l, lm_b)
    s: dict = {}
    for m, c in tail_a.items():
        s[mono_mul(m, qa)] = c
    neg = field.neg
    sub = field.sub
    for m, c in tail_b.items():
        mono = mono_mul(m, qb)
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
    return len(terms) == 1 and not any(next(iter(terms)))


def _buchberger_raw(inputs: "list[dict]", ring: Ring, budget: int):
    """Raw Buchberger; returns a list of monic (lead, tail) pairs."""
    field = ring.field
    key_cache: dict = {}
    one = [((0,) * ring.nvars, {})]

    store: "list[tuple]" = []
    alive: "list[int]" = []
    pending: "dict[tuple[int, int], tuple]" = {}

    def reducers():
        return [store[g] for g in alive]

    def update(h_idx: int):
        # Gebauer-Moller update: prune new pairs by the chain criterion,
        # drop coprime-lead pairs, filter stale old pairs, retire basis
        # elements whose lead became divisible.
        h_lm = store[h_idx][0]
        candidates = deque((g, mono_lcm(h_lm, store[g][0])) for g in alive)
        kept: "list[tuple]" = []
        while candidates:
            g, l = candidates.popleft()
            if _coprime(h_lm, store[g][0]):
                kept.append((g, l))
                continue
            dominated = any(mono_divides(l2, l) for _, l2 in candidates) or any(
                mono_divides(l2, l) for _, l2 in kept
            )
            if not dominated:
                kept.append((g, l))
        for (i, j) in list(pending):
            _, l = pending[(i, j)]
            if (
                mono_divides(h_lm, l)
                and mono_lcm(store[i][0], h_lm) != l
                and mono_lcm(store[j][0], h_lm) != l
            ):
                del pending[(i, j)]
        for g, l in kept:
            if not _coprime(h_lm, store[g][0]):
                a, b = (g, h_idx) if g < h_idx else (h_idx, g)
                pending[(a, b)] = (sum(l), l)
        alive[:] = [g for g in alive if not mono_divides(h_lm, store[g][0])]
        alive.append(h_idx)

    for terms in inputs:
        if not terms:
            continue
        r = _normal_form_raw(terms, reducers(), field, key_cache)
        if not r:
            continue
        if _is_constant_terms(r):
            return one
        store.append(_split_monic(r, field))
        update(len(store) - 1)

    processed = 0
    while pending:
        pair = min(
            pending.items(),
            key=lambda kv: (kv[1][0], grevlex_key(kv[1][1]), kv[0]),
        )[0]
        del pending[pair]
        processed += 1
        if processed > budget:
            raise ResourceBudgetError(
                f"S-pair budget of {budget} exhausted ({processed} pairs processed)"
            )
        i, j = pair
        s = _spoly_raw(store[i], store[j], field)
        r = _normal_form_raw(s, reducers(), field, key_cache)
        if not r:
            continue
        if _is_constant_terms(r):
            return one
        store.append(_split_monic(r, field))
        update(len(store) - 1)

    return _reduce_basis_raw([store[g] for g in alive], field, key_cache)


def _reduce_basis_raw(elements, field, key_cache):
    """Minimalize then tail-reduce; output sorted by ascending lead."""
    elements = sorted(elements, key=lambda e: grevlex_key(e[0]))
    minimal = []
    for lm, tail in elements:
        if not any(mono_divides(other[0], lm) for other in minimal):
            minimal.append((lm, tail))
    reduced = []
    for idx, (lm, tail) in enumerate(minimal):
        others = [minimal[k] for k in range(len(minimal)) if k != idx]
        new_tail = _normal_form_raw(tail, others, field, key_cache)
        reduced.append((lm, new_tail))
    reduced.sort(key=lambda e: grevlex_key(e[0]))
    return reduced


class GroebnerBasis:
    """A reduced basis together with division and staircase queries."""

    def __init__(self, ring: Ring, raw_elements):
        self.ring = ring
        self._raw = list(raw_elements)
        self._key_cache: dict = {}
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

    def normal_form(self, poly: Polynomial) -> Polynomial:
        if poly.ring != self.ring:
            raise ValueError("polynomial lives in a different ring")
        out = _normal_form_raw(poly.terms, self._raw, self.ring.field, self._key_cache)
        return Polynomial(self.ring, out)

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
        raw = _buchberger_raw([dict(g.terms) for g in self.generators], self.ring, budget)
        return GroebnerBasis(self.ring, raw)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) after making both inputs monic."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    if not f or not g:
        raise ValueError("S-polynomial of zero")
    field = f.ring.field
    a = _split_monic(f.terms, field)
    b = _split_monic(g.terms, field)
    return Polynomial(f.ring, _spoly_raw(a, b, field))


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
    index = {m: i for i, m in enumerate(staircase)}
    n = len(staircase)
    field = basis.ring.field
    matrix = [[field.zero] * n for _ in range(n)]
    for j, mono in enumerate(staircase):
        product = ell * Polynomial(basis.ring, {mono: field.one})
        image = basis.normal_form(product)
        for m, c in image.terms.items():
            matrix[index[m]][j] = c
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
        ell = random_linear_form(basis.ring, seed, "separator", str(attempt))
        matrix, _ = multiplication_matrix(basis, ell)
        chi = char_poly_mod_p(np.array(matrix, dtype=np.int64), field.p)
        if squarefree_univariate_mod_p(chi, field.p):
            return True
    return False
