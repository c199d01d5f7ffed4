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
from .nodes import NodeReport
from .polynomials import Polynomial, Ring, monomial_array, shift_positions
from .randomness import element_stream


class PresentationError(ValueError):
    """Entries incompatible with the graded shape of the presentation."""


class RangeTooSmallError(ValueError):
    """The twist range contains no dual pair to test."""


@dataclass(frozen=True)
class GradedPresentation:
    """A symmetric matrix viewed as a graded presentation of its cokernel."""

    degree_type: DegreeType
    ring: Ring
    entries: "tuple[tuple[Polynomial, ...], ...]"

    def __post_init__(self):
        dt = self.degree_type
        h = dt.h
        if self.ring.nvars not in (3, 4):
            raise PresentationError("presentations live on P^3 or a plane P^2")
        if len(self.entries) != h or any(len(r) != h for r in self.entries):
            raise PresentationError(f"expected a {h} x {h} matrix")
        r = dt.target_twists
        l = dt.source_twists
        for i in range(h):
            for j in range(h):
                e = self.entries[i][j]
                if e.ring != self.ring:
                    raise PresentationError("entry ring mismatch")
                if e and (not e.is_homogeneous() or e.homogeneous_degree() != l[j] - r[i]):
                    raise PresentationError(
                        f"entry ({i}, {j}) must be homogeneous of degree {l[j] - r[i]}"
                    )

    @property
    def n(self) -> int:
        """Number of homogeneous variables of the ambient space."""
        return self.ring.nvars


def surface_presentation(matrix: SymmetricFormMatrix) -> GradedPresentation:
    return GradedPresentation(matrix.degree_type, matrix.ring, matrix.entries)


def plane_section_presentation(
    matrix: SymmetricFormMatrix, seed: int
) -> GradedPresentation:
    """Restrict the presentation to a seeded random plane.

    The plane is a0 x0 + ... + a3 x3 = 0 with hash-derived coefficients;
    draws with a3 = 0 are skipped so x3 can be eliminated.  The result
    lives on P^2 with the same twists.
    """
    field = matrix.field
    stream = element_stream(field, seed, "plane")
    while True:
        coeffs = [next(stream) for _ in range(4)]
        if coeffs[3]:
            break
    ring3 = Ring(3, field)
    scale = field.neg(field.inv(coeffs[3]))
    replacement = Polynomial.from_terms(
        ring3,
        {
            (1, 0, 0): field.mul(coeffs[0], scale),
            (0, 1, 0): field.mul(coeffs[1], scale),
            (0, 0, 1): field.mul(coeffs[2], scale),
        },
    )
    rows = tuple(
        tuple(e.eliminate_variable(3, replacement) for e in row)
        for row in matrix.entries
    )
    return GradedPresentation(matrix.degree_type, ring3, rows)


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


def hilbert_function_coker(pres: GradedPresentation, m: int) -> int:
    """dim of the degree-m piece of coker(phi): target dims minus rank."""
    matrix = _degree_piece_matrix(pres, m)
    total_rows, total_cols = matrix.shape
    if total_rows == 0:
        return 0
    if total_cols == 0:
        return total_rows
    field = pres.ring.field
    if isinstance(field, PrimeField):
        rank = rank_mod_p(matrix, field.p)
    else:
        rank = rank_over_field(matrix, field)
    return total_rows - rank


def _degree_piece_matrix(pres: GradedPresentation, m: int) -> np.ndarray:
    """phi in degree m, as a block matrix over the graded monomial bases.

    Row block i holds the degree m - r_i monomials and column block j
    the degree m - l_j ones, each ascending grevlex; block (i, j)
    multiplies by entry (i, j).  Each block is one `shift_positions`
    lookup and one scatter.  Prime-field entries are int64, rational
    ones Fractions in an object array (zeros are the int 0).
    """
    dt = pres.degree_type
    n = pres.n
    row_degrees = [m - ri for ri in dt.target_twists]
    col_blocks = [monomial_array(n, m - lj) for lj in dt.source_twists]
    row_offsets = [0]
    for degree in row_degrees:
        row_offsets.append(row_offsets[-1] + graded_piece_dimension(n, degree))
    dtype = np.int64 if isinstance(pres.ring.field, PrimeField) else object
    matrix = np.zeros((row_offsets[-1], sum(len(b) for b in col_blocks)), dtype=dtype)
    col = 0
    for j, shifts in enumerate(col_blocks):
        cols = np.arange(col, col + len(shifts))
        col += len(shifts)
        if not len(shifts):
            continue
        for i, degree in enumerate(row_degrees):
            entry = pres.entries[i][j]
            if entry:
                positions, coefficients = shift_positions(entry, shifts, degree)
                matrix[row_offsets[i] + positions, cols] = coefficients[:, None]
    return matrix


def chi_from_resolution(pres: GradedPresentation, m: int) -> int:
    """chi(coker(phi)(m)) from the split resolution, exact for every m."""
    dt = pres.degree_type
    n = pres.n
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


def cohomology_table(pres: GradedPresentation, m_range) -> CohomologyTable:
    """The (h0, h1, chi) table over the twist range.

    On a curve (n = 3) h1 = h0 - chi and must be nonnegative; a negative
    value would mean the presentation is broken and raises.  On the
    surface (n = 4) only h0 and chi are exposed; h1 is None.
    """
    rows = []
    curve = pres.n == 3
    for m in m_range:
        h0 = hilbert_function_coker(pres, m)
        chi = chi_from_resolution(pres, m)
        h1 = None
        if curve:
            h1 = h0 - chi
            if h1 < 0:
                raise PresentationError(
                    f"h1({m}) = {h1} < 0: presentation is inconsistent"
                )
        rows.append(CohomologyRow(m, h0, h1, chi))
    return CohomologyTable(pres.degree_type, pres.n, tuple(rows))


def duality_symmetry_check(pres: GradedPresentation, m_range) -> bool:
    """Serre-duality symmetry h1(m) == h0(d - 3 + delta - m) on a curve.

    Computes the table over the range and decides with
    `table_duality_symmetry`; the errors are raised before any h0 is
    computed.
    """
    ms = sorted(set(m_range))
    _dual_pairs(pres.degree_type, pres.n, ms)
    return table_duality_symmetry(cohomology_table(pres, ms))


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


def check_chi_node_formula(pres: GradedPresentation, report: NodeReport) -> bool:
    """chi(coker) == (8 - t)/4 for quartic surfaces, exact arithmetic."""
    dt = pres.degree_type
    if dt.d != 4:
        raise ValueError("the node formula applies to quartic surfaces")
    chi = chi_from_resolution(pres, 0)
    return Fraction(chi) == Fraction(8 - report.t, 4)
