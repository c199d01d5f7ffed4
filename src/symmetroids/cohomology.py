"""Graded cohomology bookkeeping for the cokernel of a symmetric matrix.

A matrix phi of degree type (d_1, ..., d_h) presents a sheaf as

    0 -> (+) O(-l_j)  --phi-->  (+) O(-r_i)  ->  coker  ->  0,

and because the middle terms are direct sums of line bundles on P^n
(n = 3 for the surface case, n = 2 for a plane section) the sequence is
exact on global sections in every twist.  Two exact quantities follow:

* h0(m): the dimension of the degree-m cokernel piece, computed as a
  rank of the block matrix whose (i, j) block multiplies by entry(i, j)
  from the degree (m - l_j) piece to the degree (m - r_i) piece;
* chi(m): the alternating sum of Hilbert polynomials
  sum B(m - r_i) - sum B(m - l_j), where B(a) = (a+1)(a+2)(a+3)/6 on
  P^3 and (a+1)(a+2)/2 on P^2, evaluated as polynomials at every
  integer (this is the sheaf Euler characteristic, negative twists
  included).

A presentation is the `SymmetricFormMatrix` itself: on P^3 for the
surface, and on P^2 for a plane section, which
`plane_section_presentation` cuts with one 4 x 3 linear change of the
coordinates.  Every function below takes the matrix.

The block matrix is assembled with numpy.  The monomial bases of the
graded pieces are the memoized arrays of `polynomials.monomial_array`,
and each nonzero block (i, j) takes one `shift_positions` lookup
(integer grevlex codes and one searchsorted) and one scatter of the
entry's coefficients, instead of a Python loop over columns and terms.

For a plane-section presentation the support is a curve, cohomology
vanishes above degree 1, and h1(m) = h0(m) - chi(m) is an honest
nonnegative number.  Serre duality on a plane curve of degree d with a
self-dual-up-to-delta cokernel pairs the twists m and d - 3 + delta - m;
`duality_symmetry_check` verifies h1(m) = h0(d - 3 + delta - m) across
a symmetric range (`table_duality_symmetry` decides it on a table that
is already built).  For quartic surfaces chi(coker) relates linearly to
the node count: chi = (8 - t)/4 in the even (delta = 0) case, which
`check_chi_node_formula` tests exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import PrimeField
from .linalg import rank_mod_p, rank_over_field
from .matrices import DegreeType, SymmetricFormMatrix
from .polynomials import monomial_array, shift_positions
from .randomness import element_stream


class PresentationError(ValueError):
    """A cohomology table that no presentation can have (a negative h1)."""


class RangeTooSmallError(ValueError):
    """The twist range contains no dual pair to test."""


def surface_presentation(matrix: SymmetricFormMatrix) -> SymmetricFormMatrix:
    """The presentation on P^3: the matrix itself."""
    return matrix


def plane_section_presentation(
    matrix: SymmetricFormMatrix, seed: int
) -> SymmetricFormMatrix:
    """Restrict the presentation to a seeded random plane H = {h = 0}.

    h = a0 x0 + ... + a3 x3 with hash-derived coefficients; draws with
    a3 = 0 are skipped, so that x_i -> x_i for i < 3 and
    x3 -> -(a0 x0 + a1 x1 + a2 x2)/a3 parametrize H.  The result lives on
    P^2 with the same twists.
    """
    field = matrix.field
    stream = element_stream(field, seed, "plane")
    while True:
        coeffs = [next(stream) for _ in range(4)]
        if coeffs[3]:
            break
    scale = field.neg(field.inv(coeffs[3]))
    section = [[field.one if i == j else field.zero for j in range(3)] for i in range(3)]
    section.append([field.mul(c, scale) for c in coeffs[:3]])
    return matrix.linear_change(section)


def graded_piece_dimension(nvars: int, degree: int) -> int:
    """dim of the degree-d piece of a polynomial ring (0 for d < 0)."""
    if degree < 0:
        return 0
    out = 1
    for k in range(1, nvars):
        out = out * (degree + k) // k
    return out


def hilbert_polynomial_value(n: int, a: int) -> int:
    """chi(O(a)) on P^{n-1} as a polynomial in a, exact at all integers."""
    if n == 4:
        return (a + 1) * (a + 2) * (a + 3) // 6
    if n == 3:
        return (a + 1) * (a + 2) // 2
    raise ValueError("ambient must be P^3 (n=4) or P^2 (n=3)")


def hilbert_function_coker(matrix: SymmetricFormMatrix, m: int) -> int:
    """dim of the degree-m piece of coker(phi): target dims minus rank."""
    piece = _degree_piece_matrix(matrix, m)
    total_rows, total_cols = piece.shape
    if total_rows == 0:
        return 0
    if total_cols == 0:
        return total_rows
    field = matrix.field
    if isinstance(field, PrimeField):
        rank = rank_mod_p(piece, field.p)
    else:
        rank = rank_over_field(piece, field)
    return total_rows - rank


def _degree_piece_matrix(matrix: SymmetricFormMatrix, m: int) -> np.ndarray:
    """phi in degree m, as a block matrix over the graded monomial bases.

    Row block i holds the degree m - r_i monomials and column block j
    the degree m - l_j ones, each ascending grevlex; block (i, j)
    multiplies by entry (i, j).  Each block is one `shift_positions`
    lookup and one scatter.  Prime-field entries are int64, rational
    ones Fractions in an object array (zeros are the int 0).
    """
    dt = matrix.degree_type
    n = matrix.ring.nvars
    row_degrees = [m - ri for ri in dt.target_twists]
    col_blocks = [monomial_array(n, m - lj) for lj in dt.source_twists]
    row_offsets = [0]
    for degree in row_degrees:
        row_offsets.append(row_offsets[-1] + graded_piece_dimension(n, degree))
    dtype = np.int64 if isinstance(matrix.field, PrimeField) else object
    piece = np.zeros((row_offsets[-1], sum(len(b) for b in col_blocks)), dtype=dtype)
    col = 0
    for j, shifts in enumerate(col_blocks):
        cols = np.arange(col, col + len(shifts))
        col += len(shifts)
        if not len(shifts):
            continue
        for i, degree in enumerate(row_degrees):
            entry = matrix.entries[i][j]
            if entry:
                positions, coefficients = shift_positions(entry, shifts, degree)
                piece[row_offsets[i] + positions, cols] = coefficients[:, None]
    return piece


def chi_from_resolution(matrix: SymmetricFormMatrix, m: int) -> int:
    """chi(coker(phi)(m)) from the split resolution, exact for every m."""
    dt = matrix.degree_type
    n = matrix.ring.nvars
    total = 0
    for ri in dt.target_twists:
        total += hilbert_polynomial_value(n, m - ri)
    for lj in dt.source_twists:
        total -= hilbert_polynomial_value(n, m - lj)
    return total


@dataclass(frozen=True)
class CohomologyRow:
    m: int
    h0: int
    h1: "int | None"
    chi: int


@dataclass(frozen=True)
class CohomologyTable:
    degree_type: DegreeType
    n: int
    rows: "tuple[CohomologyRow, ...]"

    def row(self, m: int) -> CohomologyRow:
        for r in self.rows:
            if r.m == m:
                return r
        raise KeyError(f"twist {m} not in table")

    def to_json_dict(self) -> dict:
        return {
            "degree_type": list(self.degree_type.degrees),
            "d": self.degree_type.d,
            "delta": self.degree_type.delta,
            "ambient": f"P^{self.n - 1}",
            "rows": [
                {"m": r.m, "h0": r.h0, "h1": r.h1, "chi": r.chi} for r in self.rows
            ],
        }

    def format_text(self) -> str:
        header = f"{'m':>4} {'h0':>6} {'h1':>6} {'chi':>7}"
        lines = [header]
        for r in self.rows:
            h1 = "-" if r.h1 is None else str(r.h1)
            lines.append(f"{r.m:>4} {r.h0:>6} {h1:>6} {r.chi:>7}")
        return "\n".join(lines)


def cohomology_table(matrix: SymmetricFormMatrix, m_range) -> CohomologyTable:
    """The (h0, h1, chi) table over the twist range.

    On a curve (n = 3) h1 = h0 - chi and must be nonnegative; a negative
    value would mean the presentation is broken and raises.  On the
    surface (n = 4) only h0 and chi are exposed; h1 is None.
    """
    rows = []
    curve = matrix.ring.nvars == 3
    for m in m_range:
        h0 = hilbert_function_coker(matrix, m)
        chi = chi_from_resolution(matrix, m)
        h1 = None
        if curve:
            h1 = h0 - chi
            if h1 < 0:
                raise PresentationError(
                    f"h1({m}) = {h1} < 0: presentation is inconsistent"
                )
        rows.append(CohomologyRow(m, h0, h1, chi))
    return CohomologyTable(matrix.degree_type, matrix.ring.nvars, tuple(rows))


def duality_symmetry_check(matrix: SymmetricFormMatrix, m_range) -> bool:
    """Serre-duality symmetry h1(m) == h0(d - 3 + delta - m) on a curve.

    Computes the table over the range and decides with
    `table_duality_symmetry`; the errors are raised before any h0 is
    computed.
    """
    ms = sorted(set(m_range))
    _dual_pairs(matrix.degree_type, matrix.ring.nvars, ms)
    return table_duality_symmetry(cohomology_table(matrix, ms))


def table_duality_symmetry(table: CohomologyTable) -> bool:
    """The duality decision of `duality_symmetry_check` on a built table.

    Only twist pairs with both ends among the table's rows are testable;
    raises ValueError off a curve and RangeTooSmallError when there are
    no pairs.
    """
    pairs = _dual_pairs(table.degree_type, table.n, [r.m for r in table.rows])
    return all(table.row(m).h1 == table.row(partner).h0 for m, partner in pairs)


def _dual_pairs(dt: DegreeType, n: int, ms) -> "list[tuple[int, int]]":
    if n != 3:
        raise ValueError("duality symmetry is a curve-level check")
    pivot = dt.d - 3 + dt.delta
    twists = set(ms)
    pairs = [(m, pivot - m) for m in sorted(twists) if pivot - m in twists]
    if not pairs:
        raise RangeTooSmallError(
            f"no twist pair (m, {pivot} - m) lies inside the range"
        )
    return pairs


def check_chi_node_formula(matrix: SymmetricFormMatrix, t: int) -> bool:
    """chi(coker) == (8 - t)/4 for quartic surfaces, exact arithmetic."""
    dt = matrix.degree_type
    if dt.d != 4:
        raise ValueError("the node formula applies to quartic surfaces")
    chi = chi_from_resolution(matrix, 0)
    return Fraction(chi) == Fraction(8 - t, 4)
