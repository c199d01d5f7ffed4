"""Symmetric matrices of homogeneous forms on P^3 or P^2 and their degree types.

A degree type is a nondecreasing integer tuple (d_1, ..., d_h) together
with a surface degree d and a parity bit delta in {0, 1}, subject to

    d_i = d_j (mod 2),   d = delta + d_i (mod 2),   sum d_i = d.

It fixes the graded shape of a symmetric matrix phi whose determinant
cuts out a degree-d surface: entry (i, j) is homogeneous of degree
(d_i + d_j)/2 (identically zero when that is negative), the cokernel of
phi is presented by ⊕ O(-l_j) -> ⊕ O(-r_i) with

    l_j = (d + delta + d_j)/2,      r_i = (d + delta - d_i)/2,

and entry degrees match l_j - r_i.  Four named constraints on a degree
type recur everywhere downstream:

* determinant_nonzero:    d_i + d_{h+1-i} > 0  (else det phi = 0),
* determinant_squarefree: d_i + d_{h-i} > 0    (else det phi has a
  repeated factor for trivial shape reasons),
* twist_positive:         r_i > 0 for all i    (the cokernel has no
  sections in negative twists; equivalently d_i <= d + delta - 2),
* smooth_plane_section:   d_i + d_{h-1-i} > 0  (a generic plane section
  of the cokernel support stays smooth).

Pairing constraints are vacuous at indices whose partner falls outside
1..h.

`SymmetricFormMatrix.linear_change` moves a matrix on P^3 to a chart of
P^3 (an invertible 4 x 4 map) or restricts it to a plane P^2 (a 4 x 3
map of rank 3); the degree type stays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from .fields import Field, field_from_json
from .linalg import det_over_field
from .polynomials import Polynomial, Ring, _LinearMap, format_polynomial, parse_polynomial
from .randomness import element_stream, random_form

AMBIENT_VARS = 4


class DegreeTypeError(ValueError):
    """A tuple that cannot be the degree type of a symmetric matrix."""


class DegenerateMatrixError(Exception):
    """A matrix whose determinant vanishes identically."""


@dataclass(frozen=True)
class DegreeType:
    """A validated degree type (d, delta, degrees)."""

    d: int
    delta: int
    degrees: "tuple[int, ...]"

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(int(v) for v in self.degrees))
        if self.d < 1:
            raise DegreeTypeError("surface degree must be positive")
        if self.delta not in (0, 1):
            raise DegreeTypeError("delta must be 0 or 1")
        if not self.degrees:
            raise DegreeTypeError("degree tuple is empty")
        if any(a > b for a, b in zip(self.degrees, self.degrees[1:])):
            raise DegreeTypeError(f"degree tuple {self.degrees} is not nondecreasing")
        want = (self.d - self.delta) % 2
        for v in self.degrees:
            if v % 2 != want:
                raise DegreeTypeError(
                    f"entry {v} has the wrong parity: every d_i must be congruent to"
                    f" d - delta = {self.d - self.delta} mod 2"
                )
        if sum(self.degrees) != self.d:
            raise DegreeTypeError(
                f"degree tuple {self.degrees} sums to {sum(self.degrees)}, not d = {self.d}"
            )

    @property
    def h(self) -> int:
        return len(self.degrees)

    @property
    def source_twists(self) -> "tuple[int, ...]":
        """l_j = (d + delta + d_j)/2."""
        return tuple((self.d + self.delta + v) // 2 for v in self.degrees)

    @property
    def target_twists(self) -> "tuple[int, ...]":
        """r_i = (d + delta - d_i)/2."""
        return tuple((self.d + self.delta - v) // 2 for v in self.degrees)

    def entry_degree(self, i: int, j: int) -> int:
        """Degree of entry (i, j); negative values force the zero entry."""
        return (self.degrees[i] + self.degrees[j]) // 2

    def pairing_failure(self, shift: int) -> "int | None":
        """The first 1-based i with d_i + d_{h+shift-i} <= 0 (partner in 1..h), or None."""
        h = self.h
        for i in range(1, h + 1):
            j = h + shift - i
            if 1 <= j <= h and self.degrees[i - 1] + self.degrees[j - 1] <= 0:
                return i
        return None

    def constraint_failures(self) -> "dict[str, int | None]":
        """Per named constraint (in the order above), its first failing 1-based index or None."""
        return {
            "determinant_nonzero": self.pairing_failure(1),
            "determinant_squarefree": self.pairing_failure(0),
            "twist_positive": next(
                (i for i, r in enumerate(self.target_twists, start=1) if r <= 0), None
            ),
            "smooth_plane_section": self.pairing_failure(-1),
        }

    def constraint_flags(self) -> "dict[str, bool]":
        return {name: i is None for name, i in self.constraint_failures().items()}

    def __str__(self) -> str:
        body = ",".join(str(v) for v in self.degrees)
        return f"({body})"


def ambient_ring(field: Field) -> Ring:
    """The homogeneous coordinate ring of P^3 over the field."""
    return Ring(AMBIENT_VARS, field)


@dataclass(frozen=True)
class SurfaceSpec:
    """A degree-d surface in P^3 given by one homogeneous polynomial."""

    f: Polynomial
    d: int
    provenance: str = ""

    def __post_init__(self):
        if self.f.ring.nvars != AMBIENT_VARS:
            raise ValueError("surfaces live in 4 homogeneous variables")
        if not self.f:
            raise ValueError("the zero polynomial does not cut out a surface")
        if not self.f.is_homogeneous() or self.f.homogeneous_degree() != self.d:
            raise ValueError(f"polynomial is not homogeneous of degree {self.d}")

    @property
    def ring(self) -> Ring:
        return self.f.ring


@dataclass(frozen=True)
class SymmetricFormMatrix:
    """A symmetric h x h matrix of forms with a prescribed degree type."""

    degree_type: DegreeType
    ring: Ring
    entries: "tuple[tuple[Polynomial, ...], ...]"

    def __post_init__(self):
        dt = self.degree_type
        h = dt.h
        if self.ring.nvars not in (3, AMBIENT_VARS):
            raise ValueError("matrices of forms live on P^3 or a plane P^2")
        if len(self.entries) != h or any(len(row) != h for row in self.entries):
            raise ValueError(f"expected a {h} x {h} matrix")
        for i in range(h):
            for j in range(h):
                e = self.entries[i][j]
                if e.ring != self.ring:
                    raise ValueError("entry ring mismatch")
                if e != self.entries[j][i]:
                    raise ValueError(f"matrix is not symmetric at ({i}, {j})")
                if e:
                    deg = dt.entry_degree(i, j)
                    if deg < 0:
                        raise ValueError(
                            f"entry ({i}, {j}) must vanish: its degree slot is negative"
                        )
                    if not e.is_homogeneous() or e.homogeneous_degree() != deg:
                        raise ValueError(
                            f"entry ({i}, {j}) is not homogeneous of degree {deg}"
                        )

    @property
    def h(self) -> int:
        return self.degree_type.h

    @property
    def field(self) -> Field:
        return self.ring.field

    def linear_change(self, transform) -> "SymmetricFormMatrix":
        """phi(A y): each entry as `Polynomial.linear_change(A)` gives it.

        A is checked once for the whole matrix (one row per variable,
        full column rank k), and the entries share its checked images,
        each entry moved by Horner's scheme.  The upper triangle is
        moved and mirrored down; the result lives in Ring(k, field).
        """
        move = _LinearMap(self.ring, transform)
        return SymmetricFormMatrix.from_upper_triangle(
            self.degree_type, lambda i, j: move(self.entries[i][j])
        )

    @classmethod
    def from_rows(cls, degree_type: DegreeType, ring: Ring, rows) -> "SymmetricFormMatrix":
        entries = tuple(tuple(row) for row in rows)
        return cls(degree_type, ring, entries)

    @classmethod
    def from_upper_triangle(cls, degree_type: DegreeType, entry) -> "SymmetricFormMatrix":
        """Entry (i, j) is entry(i, j) for i <= j, mirrored down; the ring is the entries'."""
        h = degree_type.h
        grid = [[None] * h for _ in range(h)]
        for i in range(h):
            for j in range(i, h):
                grid[i][j] = grid[j][i] = entry(i, j)
        return cls.from_rows(degree_type, grid[0][0].ring, grid)

    @classmethod
    def random(cls, degree_type: DegreeType, field: Field, seed: int) -> "SymmetricFormMatrix":
        """Dense random entries on the upper triangle, mirrored down.

        Entry (i, j) with i <= j draws its coefficients from the stream
        tagged ("entry", i, j), so matrices are reproducible per seed.
        """
        ring = ambient_ring(field)
        return cls.from_upper_triangle(
            degree_type,
            lambda i, j: random_form(
                ring, degree_type.entry_degree(i, j), seed, "entry", str(i), str(j)
            ),
        )


def _minor(
    matrix: SymmetricFormMatrix, rows: "tuple[int, ...]", cols: int, memo: dict
) -> Polynomial:
    """The minor of phi on rows (an increasing tuple) and the columns in cols (a bitmask).

    It is expanded along the first of the rows, and memo keeps every
    sub-minor on (rows, cols).  One memo serves a whole matrix, so minors
    that share a row suffix and its columns share their expansion; the
    exponential memo is the right tool at h <= 7.
    """
    if not rows:
        return Polynomial.constant(matrix.ring, 1)
    got = memo.get((rows, cols))
    if got is not None:
        return got
    total = Polynomial.zero(matrix.ring)
    sign = 1
    for j in range(matrix.h):
        bit = 1 << j
        if not cols & bit:
            continue
        entry = matrix.entries[rows[0]][j]
        if entry:
            sub = _minor(matrix, rows[1:], cols & ~bit, memo)
            if sub:
                term = entry * sub
                total = total + term if sign > 0 else total - term
        sign = -sign
    memo[rows, cols] = total
    return total


def determinant(matrix: SymmetricFormMatrix) -> Polynomial:
    """det(phi); raises DegenerateMatrixError when identically zero."""
    h = matrix.h
    det = _minor(matrix, tuple(range(h)), (1 << h) - 1, {})
    if not det:
        raise DegenerateMatrixError(
            f"matrix of type {matrix.degree_type} has identically zero determinant"
        )
    return det


def surface_from_matrix(matrix: SymmetricFormMatrix) -> SurfaceSpec:
    return SurfaceSpec(determinant(matrix), matrix.degree_type.d)


def minors_ideal_generators(matrix: SymmetricFormMatrix, size: int) -> "list[Polynomial]":
    """All size x size minors, deduplicated by symmetry.

    minor(I, J) equals minor(J, I) for a symmetric matrix, so only index
    pairs with I <= J lexicographically are emitted; identically zero
    minors are dropped.  Order of the output is the (I, J) lex order,
    hence deterministic.  Size 0 gives the one empty minor, 1.  All
    minors share one memo of the cofactor expansion.
    """
    h = matrix.h
    if not 0 <= size <= h:
        raise ValueError(f"minor size {size} out of range 0..{h}")
    subsets = list(combinations(range(h), size))
    masks = [sum(1 << j for j in J) for J in subsets]
    memo: dict = {}
    out = []
    for a, I in enumerate(subsets):
        for cols in masks[a:]:
            minor = _minor(matrix, I, cols, memo)
            if minor:
                out.append(minor)
    return out


def congruence_transform(matrix: SymmetricFormMatrix, transform) -> SymmetricFormMatrix:
    """A^T phi A for a constant invertible A compatible with the grading.

    A may only mix indices of equal degree-type entry (A[k][i] nonzero
    requires d_k == d_i); anything else would wreck the graded shape.
    """
    dt = matrix.degree_type
    h = dt.h
    field = matrix.field
    a = [[field.normalize(v) for v in row] for row in transform]
    if len(a) != h or any(len(row) != h for row in a):
        raise ValueError(f"transform must be {h} x {h}")
    for k in range(h):
        for i in range(h):
            if a[k][i] and dt.degrees[k] != dt.degrees[i]:
                raise ValueError(
                    f"transform entry ({k}, {i}) mixes degrees {dt.degrees[k]} and {dt.degrees[i]}"
                )
    if not det_over_field(a, field):
        raise ValueError("transform matrix is singular")
    ring = matrix.ring
    zero = Polynomial.zero(ring)
    # B = A^T phi, then B A; scalar-by-polynomial products throughout.
    b = [[zero] * h for _ in range(h)]
    for i in range(h):
        for j in range(h):
            acc = zero
            for k in range(h):
                if a[k][i] and matrix.entries[k][j]:
                    acc = acc + matrix.entries[k][j].scale(a[k][i])
            b[i][j] = acc
    c = [[zero] * h for _ in range(h)]
    for i in range(h):
        for j in range(h):
            acc = zero
            for k in range(h):
                if b[i][k] and a[k][j]:
                    acc = acc + b[i][k].scale(a[k][j])
            c[i][j] = acc
    return SymmetricFormMatrix.from_rows(dt, ring, c)


def random_congruence_matrix(degree_type: DegreeType, field: Field, seed: int):
    """A random invertible grading-compatible transform (degree-block form)."""
    h = degree_type.h
    degrees = degree_type.degrees
    for attempt in range(64):
        stream = element_stream(field, seed, "congruence", f"try{attempt}")
        rows = [
            [next(stream) if degrees[k] == degrees[i] else field.zero for i in range(h)]
            for k in range(h)
        ]
        if det_over_field(rows, field):
            return tuple(tuple(row) for row in rows)
    raise RuntimeError("could not draw an invertible congruence transform")


# ---------------------------------------------------------------------------
# Serialization


def matrix_to_json_dict(matrix: SymmetricFormMatrix) -> dict:
    dt = matrix.degree_type
    return {
        "field": matrix.field.to_json(),
        "d": dt.d,
        "delta": dt.delta,
        "degree_type": list(dt.degrees),
        "entries": [
            [format_polynomial(e) for e in row] for row in matrix.entries
        ],
    }


def matrix_from_json_dict(obj: dict) -> SymmetricFormMatrix:
    """Read a matrix; the upper triangle is authoritative for symmetry."""
    field = field_from_json(obj["field"])
    dt = DegreeType(int(obj["d"]), int(obj["delta"]), tuple(obj["degree_type"]))
    ring = ambient_ring(field)
    raw = obj["entries"]
    h = dt.h
    if len(raw) != h or any(len(row) != h for row in raw):
        raise ValueError(f"expected a {h} x {h} entries grid")
    return SymmetricFormMatrix.from_upper_triangle(
        dt, lambda i, j: parse_polynomial(raw[i][j], ring)
    )


def dump_json_bytes(obj: dict) -> bytes:
    """Stable serialization used for files and content hashes."""
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def surface_to_json_dict(spec: SurfaceSpec) -> dict:
    out = {
        "field": spec.ring.field.to_json(),
        "d": spec.d,
        "f": format_polynomial(spec.f),
    }
    if spec.provenance:
        out["provenance"] = spec.provenance
    return out


def surface_from_json_dict(obj: dict) -> SurfaceSpec:
    field = field_from_json(obj["field"])
    ring = ambient_ring(field)
    f = parse_polynomial(obj["f"], ring)
    return SurfaceSpec(f, int(obj["d"]), str(obj.get("provenance", "")))
