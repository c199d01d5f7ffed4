"""Colength oracle by brute-force linear algebra, independent of division.

For an affine ideal I = (g_1, ..., g_k) the oracle works with two
degrees: a measurement degree m and a certificate degree M >= m.  Stack
the coefficient vectors of every multiple x^a * g_i of total degree
<= M over the monomials of degree <= M; the span V_M of the rows meets
R_{<=m} in

    dim(V_M cap R_{<=m}) = rank(A) - rank(A restricted to degree > m)

and the quotient proxy

    dim(m, M) = #(monomials of degree <= m) - dim(V_M cap R_{<=m})

is nonincreasing in M with limit dim R_{<=m} / (I cap R_{<=m}), which in
turn equals the colength once m passes the regularity of a
zero-dimensional ideal.  The certificate slack matters: an ideal element
of low degree may only be reachable through cancellation between
higher-degree multiples, and measuring with M = m silently counts the
Hilbert function of the homogenized generators instead, which overshoots
whenever the top-degree forms share a projective zero (try
(x0^3 - 1, x1^2 - x0, x2 - x0*x1)).

A_M is assembled with numpy: for each generator, one `shift_positions`
lookup against the memoized monomials of degree <= M locates every
term of every multiple x^a * g_i, and one scatter writes the
coefficients.

The oracle answers only from agreement windows: for each m it raises M
until two consecutive values of dim(m, M) agree, and it returns the
common value of two consecutive settled measurements dim*(m-1), dim*(m).
Anything that never settles within the escalation budget comes back as
None (inconclusive); ideals that are not zero-dimensional never settle.
The default starting measurement degree is three times the maximum
generator degree.

This module exists to cross-check the staircase count coming out of the
Buchberger engine through a completely different mechanism: no monomial
orders, no division, just ranks.  It intentionally imports nothing from
the groebner module.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .fields import PrimeField
from .linalg import rank_mod_p, rank_over_field
from .polynomials import Polynomial, monomial_array, shift_positions


def _macaulay_matrix(generators, nvars: int, M: int, field) -> np.ndarray:
    """Rows x^a * g_i of degree <= M over the monomials of degree <= M.

    Columns run by ascending degree, so for every m the monomials of
    degree > m are the trailing columns.  The rows of g_i follow its
    multipliers x^a in ascending grevlex; each g_i is one
    `shift_positions` lookup and one scatter.  Prime-field entries are
    int64, rational ones Fractions in an object array.
    """
    blocks = [
        (g, monomial_array(nvars, M - g.degree(), up_to=True))
        for g in generators
        if g.degree() <= M
    ]
    dtype = np.int64 if isinstance(field, PrimeField) else object
    a = np.zeros((sum(len(s) for _, s in blocks), comb(nvars + M, M)), dtype=dtype)
    row = 0
    for g, shifts in blocks:
        positions, coefficients = shift_positions(g, shifts, M, up_to=True)
        a[np.arange(row, row + len(shifts)), positions] = coefficients[:, None]
        row += len(shifts)
    return a


def _rank(a: np.ndarray, field) -> int:
    if not a.size:
        return 0
    if isinstance(field, PrimeField):
        return rank_mod_p(a, field.p)
    return rank_over_field(a, field)


def _certified_dimension_at(generators, nvars: int, m: int, M: int, field, built) -> int:
    """dim(m, M); `built` maps M to (A_M, rank A_M) for reuse within one call.

    Measurement degrees only grow, one at a time, so A_M serves no later
    measurement once m reaches M: it leaves `built` then.
    """
    if M not in built:
        a = _macaulay_matrix(generators, nvars, M, field)
        built[M] = (a, _rank(a, field))
    a, rank_full = built.pop(M) if M == m else built[M]
    n_low = comb(nvars + m, m)
    rank_high = _rank(a[:, n_low:], field)
    return n_low - (rank_full - rank_high)


def _settled_dimension(generators, nvars: int, m: int, escalations: int, field, built):
    previous = None
    for slack in range(escalations + 1):
        current = _certified_dimension_at(generators, nvars, m, m + slack, field, built)
        if current == previous:
            return current
        previous = current
    return None


def macaulay_colength(
    generators: "list[Polynomial]",
    degree_cap: "int | None" = None,
    escalations: int = 4,
) -> "int | None":
    """Stabilized quotient dimension, or None when it never settles.

    Settles the certificate degree at each measurement degree, then
    returns the common value of two consecutive settled measurements,
    raising the measurement degree by one up to `escalations` times.
    Ideals that are not zero-dimensional never stabilize and come back
    as None.
    """
    gens = [g for g in generators if g]
    if not gens:
        return None
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    if any(g.degree() == 0 for g in gens):
        return 0
    if degree_cap is None:
        degree_cap = 3 * max(g.degree() for g in gens)
    degree_cap = max(degree_cap, 2)
    built: dict = {}
    previous = _settled_dimension(
        gens, ring.nvars, degree_cap - 1, escalations, ring.field, built
    )
    for step in range(escalations + 1):
        cap = degree_cap + step
        current = _settled_dimension(
            gens, ring.nvars, cap, escalations, ring.field, built
        )
        if current is not None and current == previous:
            return current
        previous = current
    return None
