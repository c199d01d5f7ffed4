"""Exact linear algebra kernels.

There are two eliminations, and the library asks both only for pivots,
ranks and determinants.  `_forward_chain` is the numpy kernel for
prime-field matrices of any size: `pivots_mod_p` returns its pivots and
`rank_mod_p` counts them.  `pivots_det_over_field` is plain Python
elimination over either field, returning pivots and determinant, and
`rank_over_field` and `det_over_field` read it.  It serves rational
matrices and the tiny prime-field matrices (4x4 coordinate changes,
Hessians and minors) whose arithmetic costs less than numpy's fixed
per-call set-up.

Both report each pivot as a (row, column) pair, in ascending row order,
and both honour one contract: the rows are eliminated in order, each
reduced by the pivot rows before it, and its leftmost nonzero entry
becomes its pivot.  A later row never moves an earlier pivot, so for
every leading submatrix

    rank A[:R, :C] = #{pivots (r, c) with r < R and c < C}

(the rank profile of Dumas, Pernet and Sultan, J. Symb. Comput. 2017).
The pivot list is the same whichever way the earlier rows are combined,
so the blocked kernel below gives the same pairs as the plain one.

The F_p elimination is blocked, forward-only elimination with delayed
modular reduction in the manner of Dumas, Giorgi and Pernet
(FFLAS-FFPACK, ACM TOMS 2008).  The matrix is read in panels of
PANEL_ROWS rows.  Each panel that adds pivots leaves one step of a
chain (positions, keep, E_k): its pivot columns, the mask of the
columns that stay free, and its pivot rows on those columns.  A new
panel B is reduced by the earlier steps in order,

    B = B[:, keep] - (B[:, positions] mod p) @ E_k,

and then a short loop echelonizes what is left of it, one step per
panel row, so the number of Python-level steps does not grow with the
number of columns.  Stored rows are never reduced again, E is never
re-stacked and nothing is back-substituted, since the pivots are all
the callers need.  Once every column is a pivot, the remaining rows
are not read.

The residues and every reduction, row scaling and column clear are
int64; float64 carries only the chain products, on BLAS.  That split
is exact whenever a dot product of n residues cannot leave the range
where float64 holds integers exactly:

    n * (p - 1)^2 + p < 2^53,   n = min(rows, cols).

A panel entry is not reduced mod p between the chain steps and the
in-panel loop; only the factors (the pivot columns) are.  Each step
subtracts at most r_k (p - 1)^2 from it, where r_k is the number of
pivots that step or in-panel pivot adds, and those numbers sum to at
most the rank, which is at most n.  So every entry, and every partial
sum of a product, stays within n (p - 1)^2 + p of zero: float64 holds
each product and each difference exactly, and the int64 entries are
far from overflow.  The reductions run in int64 because numpy's
integer remainder is several times faster than its float64 one.  For
p = 31991 the bound holds for n up to about 8.8 million.  Above it the
same code runs on numpy object arrays of Python ints, so it is exact
for every prime that `PrimeField` accepts.  The characteristic
polynomial makes the same choice with n the matrix size, in float64.

The characteristic polynomial uses the Faddeev-LeVerrier recurrence,
which divides by 1..n and therefore needs p > n.  That matches its one
caller: certifying that a zero-dimensional quotient of colength n is
reduced over a field with p > n.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fields import Coeff, Field

# Rows per panel: enough for the products to run at BLAS speed, few
# enough that the per-row loop inside a panel stays cheap.
PANEL_ROWS = 64


def _exact_dtype(n: int, p: int):
    """float64 when sums of n products of residues are exact, else object."""
    return np.float64 if n * (p - 1) ** 2 + p < 2**53 else object


def _forward_chain(matrix, p: int):
    """(pivots, chain): forward elimination over F_p, one panel at a time.

    pivots lists each pivot as a (row, column) pair of the input, in
    ascending row order.  Panel k that adds pivots leaves one chain step
    (positions, keep, rows): `positions` are its pivot columns and `keep`
    the mask of the other ones, both within the columns that were still
    free before it, and `rows` are its pivot rows on the kept columns,
    reduced mod p and held in the dtype of the products (on `positions`
    they are the identity).  Panels are int64, or object past the
    bound.  The input is read one panel at a time and never modified or
    copied whole.
    """
    a = np.asarray(matrix)
    rows, cols = a.shape
    product = _exact_dtype(min(rows, cols), p)
    dtype = np.int64 if product is np.float64 else object
    pivots: "list[tuple[int, int]]" = []
    free = np.arange(cols)
    chain = []
    for start in range(0, rows, PANEL_ROWS):
        if not free.size:
            break
        block = (a[start : start + PANEL_ROWS] % p).astype(dtype, copy=False)
        for positions, keep, reduced in chain:
            factors = (block[:, positions] % p).astype(product, copy=False)
            block = block[:, keep]
            # the difference is an integer within the bound, so float64
            # computes it exactly and the cast back to int64 loses nothing
            np.subtract(block, factors @ reduced, out=block, casting="unsafe")
        found = _echelonize_panel(block, p)
        if not found:
            continue
        positions = [j for _, j in found]
        keep = np.ones(free.size, dtype=bool)
        keep[positions] = False
        reduced = block[[i for i, _ in found]][:, keep] % p
        chain.append((positions, keep, reduced.astype(product, copy=False)))
        pivots.extend((start + i, int(free[j])) for i, j in found)
        free = free[keep]
    return pivots, chain


def _echelonize_panel(block: np.ndarray, p: int) -> "list[tuple[int, int]]":
    """Echelonize a panel in place; returns its (row, pivot column) pairs.

    Each pivot row is scaled to a leading 1 and its column is cleared
    from every other panel row, so the pivot rows come out reduced
    against each other.  All of it is integer arithmetic in the panel's
    dtype, int64 or object.  Only a row about to be used and the pivot
    column are reduced mod p on the way; every other entry drops by at
    most (p - 1)^2 per pivot, which the caller's bound allows, and the
    caller reduces the pivot rows it keeps.
    """
    found = []
    for i in range(len(block)):
        row = block[i]
        row %= p
        (nonzero,) = row.nonzero()
        if not nonzero.size:
            continue
        j = int(nonzero[0])
        row *= pow(int(row[j]), -1, p)
        row %= p
        factors = block[:, j] % p
        factors[i] = 0
        (hit,) = factors.nonzero()
        if hit.size:
            block[hit, j:] -= factors[hit, None] * row[j:]
        found.append((i, j))
    return found


def pivots_mod_p(matrix: np.ndarray, p: int) -> "list[tuple[int, int]]":
    """The (row, column) pivot pairs over F_p; does not modify the input."""
    return _forward_chain(matrix, p)[0]


def rank_mod_p(matrix: np.ndarray, p: int) -> int:
    """Rank over F_p; does not modify the input."""
    return len(_forward_chain(matrix, p)[0])


def char_poly_mod_p(matrix: np.ndarray, p: int) -> "list[int]":
    """Coefficients [c_n, ..., c_1, c_0] of det(tI - M) over F_p, monic.

    Faddeev-LeVerrier; requires p > n.
    """
    a = np.asarray(matrix)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if p <= n:
        raise ValueError("characteristic polynomial recurrence needs p > n")
    dtype = _exact_dtype(n, p)
    a = (a % p).astype(dtype)
    coeffs = [1]
    m = np.zeros((n, n), dtype=dtype)
    c = 1
    identity = np.eye(n, dtype=dtype)
    for k in range(1, n + 1):
        m = (a @ ((m + c * identity) % p)) % p
        c = (-int(np.trace(m)) * pow(k, -1, p)) % p
        coeffs.append(c)
    return coeffs


def poly_deriv_mod_p(coeffs: Sequence[int], p: int) -> "list[int]":
    """Derivative of a univariate polynomial given high-to-low coefficients."""
    n = len(coeffs) - 1
    if n <= 0:
        return [0]
    out = [(coeffs[i] * (n - i)) % p for i in range(n)]
    return _trim(out)


def _trim(coeffs):
    i = 0
    while i < len(coeffs) - 1 and coeffs[i] == 0:
        i += 1
    return list(coeffs[i:])


def poly_gcd_mod_p(a: Sequence[int], b: Sequence[int], p: int) -> "list[int]":
    """Monic gcd of univariate polynomials, high-to-low coefficients."""
    fa = _trim([x % p for x in a])
    fb = _trim([x % p for x in b])

    def is_zero(f):
        return len(f) == 1 and f[0] == 0

    def rem(num, den):
        num = list(num)
        dd = len(den) - 1
        inv = pow(den[0], -1, p)
        while len(num) - 1 >= dd and not is_zero(num):
            factor = num[0] * inv % p
            for i, dc in enumerate(den):
                num[i] = (num[i] - factor * dc) % p
            num = _trim(num)
        return num

    while not is_zero(fb):
        fa, fb = fb, rem(fa, fb)
    inv = pow(fa[0], -1, p)
    return [c * inv % p for c in fa]


def squarefree_univariate_mod_p(coeffs: Sequence[int], p: int) -> bool:
    """True when gcd(f, f') is constant; valid whenever deg f < p."""
    f = _trim([c % p for c in coeffs])
    if len(f) - 1 >= p:
        raise ValueError("squarefree test needs deg f < p")
    if len(f) <= 1:
        return True
    df = poly_deriv_mod_p(f, p)
    if len(df) == 1 and df[0] == 0:
        return False
    return len(poly_gcd_mod_p(f, df, p)) == 1


def pivots_det_over_field(rows, field: Field) -> "tuple[list[tuple[int, int]], Coeff]":
    """(pivots, determinant) of a matrix of raw field values.

    Plain Python elimination that walks the rows in order: each row is
    reduced by the pivot rows before it, and its leftmost nonzero entry,
    if any, becomes a (row, column) pivot.  The determinant is the
    field's zero unless the matrix is square and invertible; the 0x0
    matrix has determinant one.
    """
    sub, mul = field.sub, field.mul
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    echelon = []  # (column, inverse of the leading entry, row from that column on)
    pivots = []
    det = field.one
    for r, raw in enumerate(rows):
        row = [field.normalize(v) for v in raw]
        for j, inv, top in echelon:
            if row[j]:
                factor = mul(row[j], inv)
                row[j:] = [sub(a, mul(factor, b)) for a, b in zip(row[j:], top)]
        for j, lead in enumerate(row):
            if lead:
                break
        else:
            continue
        det = mul(det, lead)
        echelon.append((j, field.inv(lead), row[j:]))
        pivots.append((r, j))
        if len(pivots) == ncols:
            break
    if not len(pivots) == nrows == ncols:
        return pivots, field.zero
    # det is the product of the leading entries times the sign of the
    # permutation that sends row r to its pivot column
    swaps = 0
    for k, (_, j) in enumerate(pivots):
        for _, later in pivots[k + 1 :]:
            swaps += j > later
    return pivots, field.neg(det) if swaps % 2 else det


def det_over_field(rows, field: Field) -> Coeff:
    """Determinant of a small square matrix of raw field values."""
    return pivots_det_over_field(rows, field)[1]


def rank_over_field(rows, field: Field) -> int:
    """Rank of a small matrix of raw field values (either field)."""
    return len(pivots_det_over_field(rows, field)[0])
