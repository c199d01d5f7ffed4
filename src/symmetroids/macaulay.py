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

A_M is assembled with numpy, directly in elimination order: for each
generator, one `shift_positions` lookup against the memoized monomials
of degree <= M locates every term of every multiple x^a * g_i, and one
scatter writes the coefficients.  Rows run by ascending total degree of
x^a * g_i and columns by descending monomial degree.  So for M' <= M,
A_{M'} is a leading block of rows of A_M (its rows vanish on the
monomials of degree > M'), and A_{M'} restricted to degree > m is that
block on the leading columns.  Both eliminations in `linalg` walk the
rows in order and take each pivot leftmost, so a later row never moves
an earlier pivot and

    rank A[:R, :C] = #{pivots (r, c) with r < R and c < C}

(the rank profile of Dumas, Pernet and Sultan, J. Symb. Comput. 2017).
One elimination of A_M therefore gives dim(m, M') for every
m <= M' <= M.

The oracle answers only from agreement windows: for each m it raises M
until two consecutive values of dim(m, M) agree, and it returns the
common value of two consecutive settled measurements dim*(m-1), dim*(m).
Anything that never settles within ESCALATIONS steps comes back as
None (inconclusive); ideals that are not zero-dimensional never settle.
The starting measurement degree, the cap, is three times the maximum
generator degree, and at least 2.  A call eliminates A_{cap+1} once:
when the measurements at cap - 1 and cap settle at once, as they do for
the node-counting ideals, they need nothing higher.  A measurement that
needs a certificate degree above the one eliminated re-eliminates A at
that degree; (x0*x1), which never settles, is eliminated at 7, 8, ... 11.

This module exists to cross-check the staircase count coming out of the
Buchberger engine through a completely different mechanism: no monomial
orders, no division, just ranks.  It intentionally imports nothing from
the groebner module.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .fields import PrimeField
from .linalg import pivots_det_over_field, pivots_mod_p
from .polynomials import Polynomial, monomial_array, shift_positions

# Unused here; it stays bound in this module because the benchmark's
# tracer wraps macaulay.rank_mod_p by name.
from .linalg import rank_mod_p  # noqa: F401

# How many degrees above the first the oracle raises a measurement, and a
# certificate degree above its measurement, before it gives up.
ESCALATIONS = 4


def _row_count(degrees, nvars: int, M: int) -> int:
    """Rows of A_M: the multiples x^a * g_i of total degree <= M."""
    return sum(comb(nvars + M - d, nvars) for d in degrees if d <= M)


def _macaulay_matrix(generators, nvars: int, M: int, field) -> np.ndarray:
    """A_M in elimination order: the multiples x^a * g_i of degree <= M.

    Rows run by ascending total degree of x^a * g_i, then by generator,
    then by x^a in ascending grevlex, so for every M' <= M the rows of
    A_{M'} lead.  Columns are the monomials of degree <= M in descending
    grevlex, so for every m those of degree > m lead.  Each g_i is one
    `shift_positions` lookup and one scatter straight into A_M.
    Prime-field entries are int64, rational ones Fractions in an object
    array.
    """
    ncols = comb(nvars + M, M)
    gens = [g for g in generators if g.degree() <= M]
    # row_index[i][k]: the row of x^a * g_i for the k-th multiplier x^a
    row_index = [np.empty(comb(nvars + M - g.degree(), nvars), dtype=np.intp) for g in gens]
    row = 0
    for total in range(M + 1):
        for g, rows in zip(gens, row_index):
            s = total - g.degree()
            if s < 0:
                continue
            # the multipliers of degree s follow the C(nvars + s - 1, nvars) of lower degree
            first, count = comb(nvars + s - 1, nvars), comb(nvars + s - 1, s)
            rows[first : first + count] = np.arange(row, row + count)
            row += count
    dtype = np.int64 if isinstance(field, PrimeField) else object
    a = np.zeros((row, ncols), dtype=dtype)
    for g, rows in zip(gens, row_index):
        shifts = monomial_array(nvars, M - g.degree(), up_to=True)
        positions, coefficients = shift_positions(g, shifts, M, up_to=True)
        a[rows, ncols - 1 - positions] = coefficients[:, None]
    return a


class _Elimination:
    """The pivots of one A_top, and every dim(m, M) read off them.

    A measurement with M > top eliminates A_M in its place.
    """

    def __init__(self, generators, nvars: int, field, top: int):
        self.generators, self.nvars, self.field = generators, nvars, field
        self.degrees = [g.degree() for g in generators]
        self._eliminate(top)

    def _eliminate(self, top: int) -> None:
        a = _macaulay_matrix(self.generators, self.nvars, top, self.field)
        if isinstance(self.field, PrimeField):
            pivots = pivots_mod_p(a, self.field.p)
        else:
            pivots = pivots_det_over_field(a, self.field)[0]
        self.top = top
        self.rows, self.columns = np.array(pivots, dtype=np.intp).reshape(-1, 2).T

    def dimension(self, m: int, M: int) -> int:
        """dim(m, M) = n_low - rank A_M + rank A_M[:, deg > m], for m <= M."""
        if M > self.top:
            self._eliminate(M)
        nvars, top = self.nvars, self.top
        n_low = comb(nvars + m, m)
        in_a_M = self.rows < _row_count(self.degrees, nvars, M)
        high = self.columns < comb(nvars + top, top) - n_low
        return n_low - int(np.count_nonzero(in_a_M)) + int(np.count_nonzero(in_a_M & high))


def _settled_dimension(elimination: _Elimination, m: int):
    previous = None
    for slack in range(ESCALATIONS + 1):
        current = elimination.dimension(m, m + slack)
        if current == previous:
            return current
        previous = current
    return None


def macaulay_colength(generators: "list[Polynomial]") -> "int | None":
    """Stabilized quotient dimension, or None when it never settles.

    Settles the certificate degree at each measurement degree, then
    returns the common value of two consecutive settled measurements,
    raising the measurement degree by one up to ESCALATIONS times from
    the cap.
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
    degree_cap = max(3 * max(g.degree() for g in gens), 2)
    elimination = _Elimination(gens, ring.nvars, ring.field, degree_cap + 1)
    previous = _settled_dimension(elimination, degree_cap - 1)
    for step in range(ESCALATIONS + 1):
        current = _settled_dimension(elimination, degree_cap + step)
        if current is not None and current == previous:
            return current
        previous = current
    return None
