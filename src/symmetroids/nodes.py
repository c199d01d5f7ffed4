"""Counting and certifying the nodes of a surface in P^3.

The singular scheme of F = {f = 0} is cut out by f and its four
partials, and by the partials alone when the characteristic p does not
divide d = deg f: Euler's relation d * f = sum_i x_i * d_i f then puts f
in the ideal of its partials.  When p | d the relation says nothing about
f, which stays in the Jacobian ideal.  After a random invertible
coordinate change the singular points all land in the affine chart
x3 = 1 (finitely many points cannot hit a random plane over a large
field), so the count is the staircase colength of the dehomogenized
Jacobian ideal in three variables.  Two independent random charts must
agree before a count is reported; a mismatch means a singular point
slipped to infinity and is a retryable fluke, not a result.

The colength counts each singular point by its local algebra dimension,
so `t` equals the node count exactly when the singular scheme is
reduced; the squarefree certificate from the multiplication matrix of a
random linear form supplies that proof.

For a surface that comes from a symmetric matrix phi, the same chart is
reused to compare the Jacobian ideal J of det(phi) with the ideal M of
(h-1)-minors of phi, whose zeros are the locus where phi drops to rank
h-2.  J is always contained in M: Jacobi's formula writes each partial
of det(phi) as tr(adj(phi) * d(phi)/dx_k), the entries of adj(phi) are
signed (h-1)-minors, Laplace expansion puts det(phi) itself in M, and
the chart change and dehomogenization are ring maps.  This is an
identity over Z, so it holds in every characteristic.  Given J in M,
"equal colength and equal radicals" holds exactly when M = J, which in
turn holds exactly when M has the colength t of J: a zero-dimensional
ideal strictly larger than J has a strictly smaller colength.  So one
grevlex basis of M and its staircase count tie the node set to the
rank-drop locus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import PrimeField
from .groebner import GroebnerBasis, Ideal, squarefree_certificate

# Unused here; they stay bound in this module because the benchmark's
# tracer wraps nodes.radical_membership and nodes.determinant by name.
from .groebner import radical_membership  # noqa: F401
from .linalg import rank_over_field
from .matrices import determinant  # noqa: F401
from .matrices import AMBIENT_VARS, SurfaceSpec, SymmetricFormMatrix, minors_ideal_generators
from .polynomials import Ring
from .randomness import random_invertible_matrix


class DegenerateSurfaceError(Exception):
    """The singular locus is not a finite set of points."""


class ChartMismatchError(Exception):
    """Two random charts disagreed on the colength; rerun with a new seed."""


class UnsupportedFieldError(ValueError):
    """The node pipeline runs over prime fields only."""


@dataclass
class NodeReport:
    """Outcome of a node count, JSON-serializable for the CLI."""

    t: int
    reduced_certified: bool
    per_chart: "list[dict]"
    seed: int
    rank_drop_consistent: "bool | None" = None

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "reduced_certified": self.reduced_certified,
            "rank_drop_consistent": self.rank_drop_consistent,
            "charts": self.per_chart,
            "seed": self.seed,
        }


def affine_jacobian_ideal(spec: SurfaceSpec, transform) -> Ideal:
    """Jacobian ideal in the chart x3 = 1 after the coordinate change.

    Its generators are the four partials of g = f after the change, and
    g itself only when the characteristic p divides d.  Otherwise
    Euler's relation, dehomogenized,

        d * g(x, 1) = sum_{i<3} x_i (d_i g)(x, 1) + (d_3 g)(x, 1),

    puts g in the ideal of its partials: the ideal is the same, and the
    Macaulay oracle's cap drops from 3d to 3(d-1).  Over Q
    (characteristic 0) g is never kept.
    """
    g = spec.f.linear_change(transform)
    gens4 = [g.partial_derivative(i) for i in range(AMBIENT_VARS)]
    p = spec.ring.field.characteristic
    if p and spec.d % p == 0:
        gens4.insert(0, g)
    gens3 = [h.dehomogenize(AMBIENT_VARS - 1) for h in gens4 if h]
    ring3 = Ring(AMBIENT_VARS - 1, spec.ring.field)
    return Ideal(ring3, gens3)


def count_nodes(
    spec: SurfaceSpec,
    seed: int,
    audit: bool = True,
    pair_budget: "int | None" = None,
) -> NodeReport:
    """Colength of the Jacobian scheme in a generic chart, audited.

    Raises DegenerateSurfaceError when the singular locus is positive
    dimensional, ChartMismatchError when the audit chart disagrees
    (retry with another seed), UnsupportedFieldError over Q.
    """
    field = spec.ring.field
    if not isinstance(field, PrimeField):
        raise UnsupportedFieldError("node counting runs over a prime field")
    per_chart = []
    first_basis: "GroebnerBasis | None" = None
    tags = ["chart-a", "chart-b"] if audit else ["chart-a"]
    counts = []
    for tag in tags:
        transform = random_invertible_matrix(field, AMBIENT_VARS, seed, tag)
        ideal = affine_jacobian_ideal(spec, transform)
        basis = ideal.groebner_basis(pair_budget=pair_budget)
        colength = basis.colength()
        if colength == math.inf:
            raise DegenerateSurfaceError(
                "singular locus is not zero-dimensional in a generic chart"
            )
        per_chart.append({"chart": tag, "colength": int(colength)})
        counts.append(int(colength))
        if first_basis is None:
            first_basis = basis
    if len(set(counts)) > 1:
        raise ChartMismatchError(
            f"chart colengths disagree: {counts}; retry with a different seed"
        )
    certified = squarefree_certificate(first_basis, seed)
    return NodeReport(
        t=counts[0],
        reduced_certified=certified,
        per_chart=per_chart,
        seed=seed,
    )


def rank_drop_check(
    matrix: SymmetricFormMatrix,
    report: NodeReport,
    pair_budget: "int | None" = None,
) -> bool:
    """Tie the Jacobian scheme of det(phi) to the rank <= h-2 locus of phi.

    In the chart the report used, the ideal M of (h-1)-minors always
    contains the Jacobian ideal J of det(phi) (Jacobi's formula and
    Laplace expansion, see the module docstring).  Equal colength plus
    each ideal's generators in the other's radical therefore holds
    exactly when M = J, and for J in M that is exactly when M has
    colength t, the chart-a colength of J.  So the check is one grevlex
    basis of M and its staircase count; no basis of J is needed.  The
    verdict is stored on the report and returned.
    """
    field = matrix.field
    if not isinstance(field, PrimeField):
        raise UnsupportedFieldError("rank-drop checks run over a prime field")
    transform = random_invertible_matrix(field, AMBIENT_VARS, report.seed, "chart-a")
    # Change coordinates once on the low-degree entries, not on each minor.
    minors = minors_ideal_generators(matrix.linear_change(transform), matrix.h - 1)
    ring3 = Ring(AMBIENT_VARS - 1, field)
    minors_ideal = Ideal(ring3, [m.dehomogenize(AMBIENT_VARS - 1) for m in minors])
    minors_basis = minors_ideal.groebner_basis(pair_budget=pair_budget)
    consistent = minors_basis.colength() == report.t
    report.rank_drop_consistent = consistent
    return consistent


def hessian_rank_at_point(spec: SurfaceSpec, point) -> int:
    """Rank of the 4x4 matrix of second partials of f at a surface point.

    At a singular point the point itself lies in the kernel (Euler), so
    the rank is at most 3, and equals 3 exactly at an ordinary node
    provided the characteristic does not divide d-1.
    """
    field = spec.ring.field
    values = [field.normalize(v) for v in point]
    if spec.f.evaluate(values):
        raise ValueError("point does not lie on the surface")
    hessian = []
    for i in range(AMBIENT_VARS):
        row = []
        fi = spec.f.partial_derivative(i)
        for j in range(AMBIENT_VARS):
            row.append(fi.partial_derivative(j).evaluate(values))
        hessian.append(row)
    return rank_over_field(hessian, field)


def canonical_point(field: PrimeField, coords) -> "tuple[int, ...]":
    """Scale a projective point so its last nonzero coordinate is 1."""
    values = [field.normalize(v) for v in coords]
    last = None
    for i in range(len(values) - 1, -1, -1):
        if values[i]:
            last = i
            break
    if last is None:
        raise ValueError("the zero vector is not a projective point")
    inv = field.inv(values[last])
    return tuple(field.mul(v, inv) for v in values)


def enumerate_rational_singular_points(spec: SurfaceSpec) -> "list[tuple[int, ...]]":
    """All F_p-rational singular points by exhaustive evaluation (p <= 64).

    Points are canonical representatives (last nonzero coordinate 1),
    listed chart by chart in lexicographic order of the free coordinates.
    """
    field = spec.ring.field
    if not isinstance(field, PrimeField):
        raise UnsupportedFieldError("point enumeration runs over a prime field")
    p = field.p
    if p > 64:
        raise ValueError("exhaustive enumeration is limited to p <= 64")
    polys = [spec.f] + [spec.f.partial_derivative(i) for i in range(AMBIENT_VARS)]
    polys = [g for g in polys if g]
    found = []
    for chart in range(AMBIENT_VARS - 1, -1, -1):
        free = chart
        grids = np.meshgrid(*[np.arange(p, dtype=np.int64)] * free, indexing="ij")
        count = p**free
        coords = np.zeros((count, AMBIENT_VARS), dtype=np.int64)
        for i in range(free):
            coords[:, i] = grids[i].reshape(-1)
        coords[:, chart] = 1
        mask = np.ones(count, dtype=bool)
        max_exp = max(max(m) for g in polys for m in g.terms)
        powers = {}
        for var in range(AMBIENT_VARS):
            col = coords[:, var]
            table = np.ones((max_exp + 1, count), dtype=np.int64)
            for e in range(1, max_exp + 1):
                table[e] = table[e - 1] * col % p
            powers[var] = table
        for g in polys:
            vals = np.zeros(count, dtype=np.int64)
            for mono, c in g.terms.items():
                term = np.full(count, c, dtype=np.int64)
                for var, e in enumerate(mono):
                    if e:
                        term = term * powers[var][e] % p
                vals = (vals + term) % p
            mask &= vals == 0
            if not mask.any():
                break
        for row in coords[mask]:
            found.append(tuple(int(v) for v in row))
    return found
