"""Search for 16-nodal quartics inside the squared-coordinate family.

The classical 4-parameter (projectively) family

    a (x0^4 + x1^4 + x2^4 + x3^4)
      + b (x0^2 x1^2 + x2^2 x3^2)
      + c (x0^2 x2^2 + x1^2 x3^2)
      + d (x0^2 x3^2 + x1^2 x2^2)
      + e  x0 x1 x2 x3

is invariant under the order-16 group generated by even sign changes
and the double transpositions (01)(23), (02)(13).  A member singular at
one generic point is therefore singular along the whole 16-point orbit,
which is how the classical 16-nodal quartics arise.  The search picks a
seeded random point P, solves the four linear conditions grad f(P) = 0
for the five coefficients, and keeps the member exactly when the full
node pipeline certifies t = 16.  No split 2x2-style presentation backs
these surfaces; the search result is certified by the generic pipeline
alone, which is why it is optional and fixture-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import PrimeField
from .groebner import CertificateError
from .linalg import det_over_field
from .matrices import AMBIENT_VARS, SurfaceSpec, surface_to_json_dict
from .nodes import (
    ChartMismatchError,
    DegenerateSurfaceError,
    NodeReport,
    canonical_point,
    count_nodes,
)
from .polynomials import Polynomial, Ring
from .randomness import random_point

# Exponent vectors of the five invariant basis quartics; the paired
# squares come from the orbit structure under (01)(23) and (02)(13).
_BASIS: "tuple[tuple[tuple[int, int, int, int], ...], ...]" = (
    ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4)),
    ((2, 2, 0, 0), (0, 0, 2, 2)),
    ((2, 0, 2, 0), (0, 2, 0, 2)),
    ((2, 0, 0, 2), (0, 2, 2, 0)),
    ((1, 1, 1, 1),),
)


@dataclass(frozen=True)
class SearchResult:
    surface: SurfaceSpec
    report: NodeReport
    coefficients: "tuple[int, ...]"
    point: "tuple[int, ...]"
    trial: int
    node_seed: int

    def to_json_dict(self) -> dict:
        out = surface_to_json_dict(self.surface)
        out["seed"] = self.node_seed
        out["report"] = self.report.to_json_dict()
        out["coefficients"] = list(self.coefficients)
        out["point"] = list(self.point)
        out["trial"] = self.trial
        return out


def _basis_polynomials(ring: Ring) -> "list[Polynomial]":
    one = ring.field.one
    return [
        Polynomial.from_terms(ring, {mono: one for mono in monos})
        for monos in _BASIS
    ]


def _member(ring: Ring, coeffs) -> Polynomial:
    field = ring.field
    total = Polynomial.zero(ring)
    for c, basis in zip(coeffs, _basis_polynomials(ring)):
        if c:
            total = total + basis.scale(field.normalize(c))
    return total


def family_member(field: PrimeField, coefficients) -> SurfaceSpec:
    """The quartic with the given five coefficients (a, b, c, d, e)."""
    if len(coefficients) != 5:
        raise ValueError("family members take five coefficients")
    ring = Ring(AMBIENT_VARS, field)
    f = _member(ring, coefficients)
    return SurfaceSpec(f, 4, "squared-coordinate family")


def _kernel_vector(system, field: PrimeField) -> "tuple[int, ...] | None":
    """The kernel vector of a 4x5 system, scaled to a last nonzero entry of 1.

    None when the kernel has dimension above 1.  By Cramer's rule the
    signed 4x4 minors (-1)^j det(A without column j) form a vector that
    every row of A annihilates (it expands a 5x5 matrix with that row
    repeated); they all vanish exactly when A has rank below 4.
    """
    minors = [
        det_over_field([row[:j] + row[j + 1 :] for row in system], field)
        for j in range(len(system) + 1)
    ]
    if not any(minors):
        return None
    return canonical_point(
        field, [field.neg(m) if j % 2 else m for j, m in enumerate(minors)]
    )


def search_sixteen_nodes(
    field: PrimeField, seed: int, budget: int = 8
) -> "SearchResult | None":
    """Look for a certified 16-nodal member; None when the budget runs out.

    Each trial solves grad f(P) = 0 at a fresh seeded point P for the
    coefficient vector.  Trials with a kernel of dimension above 1 or
    with a degenerate or uncertified member are skipped.
    """
    p = field.p
    # certification multiplies on a 16-dimensional quotient, so its
    # characteristic polynomial cannot be squarefree unless p > 16
    if p <= 16:
        raise CertificateError(f"certified 16-node searches need p > 16, got {p}")
    ring = Ring(AMBIENT_VARS, field)
    basis = _basis_polynomials(ring)
    gradients = [
        [b.partial_derivative(v) for v in range(AMBIENT_VARS)] for b in basis
    ]
    for trial in range(budget):
        point = random_point(field, AMBIENT_VARS, seed, "kummer", str(trial))
        system = [
            [gradients[j][v].evaluate(point) for j in range(5)]
            for v in range(AMBIENT_VARS)
        ]
        coeffs = _kernel_vector(system, field)
        if coeffs is None:
            continue
        # the basis quartics share no monomial, so a nonzero vector
        # gives a nonzero member
        spec = family_member(field, coeffs)
        try:
            report = count_nodes(spec, seed=seed)
        except (DegenerateSurfaceError, ChartMismatchError):
            continue
        if report.t == 16 and report.reduced_certified:
            return SearchResult(spec, report, coeffs, point, trial, seed)
    return None
