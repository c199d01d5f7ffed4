"""Counting and certifying the nodes of a surface in P^3.

The singular scheme of F = {f = 0} is cut out by f and its four
partials, and by the partials alone when the characteristic p does not
divide d = deg f: Euler's relation d * f = sum_i x_i * d_i f then puts f
in the ideal of its partials.  When p | d the relation says nothing about
f, which stays in the Jacobian ideal.  After a random invertible
coordinate change, chart a, the singular points all land in the affine
chart x3 = 1 (finitely many points cannot hit a random plane over a large
field), so the count is the staircase colength t of the dehomogenized
Jacobian ideal in three variables.

A second random chart b audits the count: a point that one chart sends
to infinity makes the two colengths disagree, which is a retryable
fluke, not a result.  Chart b needs no basis of its own once chart a is
proved to see every singular point.  The Jacobian generators, restricted
to chart a's plane at infinity x3 = 0, are forms in three variables; if
they span every form of degree D = 3(d-2)+1 they have no common zero
there, and for generic forms of degree d-1 they do (Macaulay's bound).
Then t is the length of the whole singular scheme.  Chart b's
coordinate x3 is a linear form l in chart a's coordinates, and chart b
sees the part of the scheme where l does not vanish: its colength is t
minus the multiplicity of 0 as a root of the characteristic polynomial
of multiplication by l on chart a's quotient.  Both charts see one
projective scheme, since a linear change of coordinates maps the ideal
of the partials onto the ideal of the partials and f is kept in both
charts or in neither, and local lengths do not depend on the chart.
When the proof fails, or p <= t leaves the characteristic polynomial no
room, chart b gets a Buchberger basis of its own.  Either way the
result is the colength chart b's own basis would have, so a disagreement
still raises ChartMismatchError.  The check on the Groebner engine
itself is independent of both charts: the Macaulay rank oracle in
macaulay.py recomputes colengths without division.

The colength counts each singular point by its local algebra dimension,
so `t` equals the node count exactly when the singular scheme is
reduced; the squarefree certificate from the multiplication matrix of a
random linear form supplies that proof.

For a surface that comes from a symmetric matrix phi, the report keeps
its chart-a transform and its chart-a basis of the Jacobian ideal J of
f, and the rank-drop check reads both to compare J with the ideal M of
(h-1)-minors of phi, whose zeros are the locus where phi drops to rank
h-2.  Only count_nodes draws the charts.  When det(phi) is a
nonzero scalar multiple of f, J is contained in M: Jacobi's formula
writes each partial of det(phi) as tr(adj(phi) * d(phi)/dx_k), the
entries of adj(phi) are signed (h-1)-minors, Laplace expansion puts
det(phi) itself in M, and the chart change and dehomogenization are ring
maps.  This is an identity over Z, so it holds in every characteristic.
Given J in M, "equal colength and equal radicals" holds exactly when
M = J, and that holds exactly when M is in J: when every minor, moved to
chart a and dehomogenized, has normal form 0 modulo J's basis.  So the
check is one determinant and one normal form per minor; it builds no
basis of its own.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import linalg
from .fields import PrimeField
from .groebner import GroebnerBasis, Ideal, colength_where_unit, squarefree_certificate

# Unused here; it stays bound in this module because the benchmark's
# tracer wraps nodes.radical_membership by name.
from .groebner import radical_membership  # noqa: F401
from .linalg import det_over_field, rank_over_field
from .matrices import (
    AMBIENT_VARS,
    DegenerateMatrixError,
    SurfaceSpec,
    SymmetricFormMatrix,
    determinant,
    minors_ideal_generators,
)
from .polynomials import Polynomial, Ring, monomial_array, shift_positions
from .randomness import random_invertible_matrix


class DegenerateSurfaceError(Exception):
    """The singular locus is not a finite set of points."""


class ChartMismatchError(Exception):
    """Two random charts disagreed on the colength; rerun with a new seed."""


class UnsupportedFieldError(ValueError):
    """The node pipeline runs over prime fields only."""


@dataclasses.dataclass
class NodeReport:
    """Outcome of a node count, JSON-serializable for the CLI.

    `surface`, `chart` (the chart-a transform) and `basis` (the chart-a
    basis of its Jacobian ideal) are handed on to the rank-drop check;
    the JSON leaves them out.
    """

    t: int
    reduced_certified: bool
    per_chart: "list[dict]"
    seed: int
    surface: SurfaceSpec = dataclasses.field(compare=False, repr=False)
    chart: "tuple[tuple[int, ...], ...]" = dataclasses.field(compare=False, repr=False)
    basis: GroebnerBasis = dataclasses.field(compare=False, repr=False)
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

    Chart a's colength is read off a reduced basis of its Jacobian ideal.
    The audit compares it with chart b's colength, which is read off
    chart a's quotient when chart a provably sees every singular point
    and p > t, and off a basis of chart b's own ideal otherwise (see the
    module docstring).  Raises DegenerateSurfaceError when the singular
    locus is positive dimensional, ChartMismatchError when the charts
    disagree (retry with another seed), UnsupportedFieldError over Q.
    """
    field = spec.ring.field
    if not isinstance(field, PrimeField):
        raise UnsupportedFieldError("node counting runs over a prime field")
    chart_a = random_invertible_matrix(field, AMBIENT_VARS, seed, "chart-a")
    ideal = affine_jacobian_ideal(spec, chart_a)
    basis, t = _basis_and_colength(ideal, pair_budget)
    per_chart = [{"chart": "chart-a", "colength": t}]
    if audit:
        chart_b = random_invertible_matrix(field, AMBIENT_VARS, seed, "chart-b")
        if field.p > t and _nothing_at_infinity(ideal, spec.d):
            colength_b = colength_where_unit(basis, _chart_coordinate(chart_a, chart_b, ideal.ring))
        else:
            _, colength_b = _basis_and_colength(affine_jacobian_ideal(spec, chart_b), pair_budget)
        per_chart.append({"chart": "chart-b", "colength": colength_b})
        if colength_b != t:
            raise ChartMismatchError(
                f"chart colengths disagree: {[t, colength_b]}; retry with a different seed"
            )
    certified = squarefree_certificate(basis, seed)
    return NodeReport(
        t=t,
        reduced_certified=certified,
        per_chart=per_chart,
        seed=seed,
        surface=spec,
        chart=chart_a,
        basis=basis,
    )


def _basis_and_colength(ideal: Ideal, pair_budget: "int | None") -> "tuple[GroebnerBasis, int]":
    basis = ideal.groebner_basis(pair_budget=pair_budget)
    colength = basis.colength()
    if colength == math.inf:
        raise DegenerateSurfaceError(
            "singular locus is not zero-dimensional in a generic chart"
        )
    return basis, int(colength)


def _nothing_at_infinity(ideal: Ideal, d: int) -> bool:
    """True only if the chart's Jacobian scheme has no point on x3 = 0.

    Each generator is a form with x3 set to 1: a partial, of degree
    d - 1, or the surface itself, of degree d, when p | d.  A form's
    terms of its own degree are its restriction to x3 = 0, and a point
    of the scheme there is a common zero in P^2 of the restrictions.
    The terms of degree d - 1 and d of every generator give them all;
    the surface's terms of degree d - 1 restrict its x3 partial again.
    If the multiples of degree D = 3(d-2)+1 of these forms span all
    forms of degree D, every x_i^D is in their ideal and they have no
    common zero.  Three forms of degree d - 1 with no common zero pass
    (Macaulay's bound); a False answer proves nothing.  D is at least 0
    for a plane, whose partials are constants.
    """
    top = max(3 * (d - 2) + 1, 0)
    nvars = ideal.ring.nvars
    forms = []
    for g in ideal.generators:
        for e in (d - 1, d):
            part = {m: c for m, c in g.terms.items() if sum(m) == e}
            if part and e <= top:
                forms.append((Polynomial(ideal.ring, part), monomial_array(nvars, top - e)))
    block = np.zeros(
        (sum(len(shifts) for _, shifts in forms), len(monomial_array(nvars, top))), dtype=np.int64
    )
    row = 0
    for form, shifts in forms:
        positions, coefficients = shift_positions(form, shifts, top)
        block[row + np.arange(len(shifts)), positions] = coefficients[:, None]
        row += len(shifts)
    # looked up on linalg at call time, so that the benchmark's tracer
    # files this rank under linalg.rank.other
    return linalg.rank_mod_p(block, ideal.ring.field.p) == block.shape[1]


def _chart_coordinate(chart_a, chart_b, ring: Ring) -> Polynomial:
    """det(T_b) times chart b's x3, in chart a's affine coordinates.

    A point x = T_a y has chart-b coordinates z = T_b^{-1} x, and by
    Cramer's rule det(T_b) * z3 = det(T_b's first three columns | x).
    That is linear in y: its coefficient of y_k puts column k of T_a in
    the last place.  Setting y3 = 1 gives a linear form whose zeros are
    the points that chart b sends to infinity.
    """
    field = ring.field
    row = [
        det_over_field([b[:3] + (a[k],) for a, b in zip(chart_a, chart_b)], field)
        for k in range(AMBIENT_VARS)
    ]
    units = [tuple(int(i == k) for i in range(ring.nvars)) for k in range(ring.nvars)]
    return Polynomial.from_terms(ring, zip(units + [ring.zero_monomial()], row))


def rank_drop_check(matrix: SymmetricFormMatrix, report: NodeReport) -> bool:
    """Tie the Jacobian scheme of det(phi) to the rank <= h-2 locus of phi.

    The verdict is M = J in the report's chart a, where M is the ideal of
    (h-1)-minors of phi and J the Jacobian ideal of the report's surface
    f.  A det(phi) that is zero or not a scalar multiple of f reads False.
    Otherwise J is in M (Jacobi's formula and Laplace expansion, see the
    module docstring), so M = J exactly when every minor reduces to 0
    modulo the report's basis of J; for J in M that is the same as M
    having colength t.  The verdict is stored on the report and returned.
    """
    if not isinstance(matrix.field, PrimeField):
        raise UnsupportedFieldError("rank-drop checks run over a prime field")
    try:
        consistent = _is_scalar_multiple(determinant(matrix), report.surface.f)
    except DegenerateMatrixError:
        consistent = False
    if consistent:
        # Change coordinates once on the low-degree entries, not on each minor.
        minors = minors_ideal_generators(matrix.linear_change(report.chart), matrix.h - 1)
        consistent = not any(
            report.basis.normal_form(m.dehomogenize(AMBIENT_VARS - 1)) for m in minors
        )
    report.rank_drop_consistent = consistent
    return consistent


def _is_scalar_multiple(g: Polynomial, f: Polynomial) -> bool:
    """g == c * f for a nonzero constant c; f and g are nonzero."""
    field = f.ring.field
    mono, coeff = next(iter(f.terms.items()))
    c = g.terms.get(mono)
    return c is not None and g == f.scale(field.mul(c, field.inv(coeff)))


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
