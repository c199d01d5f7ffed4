"""Shipping checklist: one test per release criterion, run with -v for
one verdict line each.

Hard time limits are asserted where the criterion demands them;
per-seed runtime targets are soft and emit warnings instead of failing,
so a slow box degrades loudly but does not flake the gate.  Frozen
numbers carry their provenance inline: classical values from the
determinantal-surface literature, oracle values fixed by the rank-based
colength oracle before this suite was written (scripts/
pin_oracle_values.py re-derives them), and identities that are true by
construction.
"""

import time
import warnings

import pytest

from symmetroids.cohomology import (
    check_chi_node_formula,
    chi_from_resolution,
    cohomology_table,
    duality_symmetry_check,
    plane_section_presentation,
    surface_presentation,
)
from symmetroids.enumeration import ConstraintProfile, enumerate_degree_types
from symmetroids.fields import DEFAULT_PRIME, PrimeField
from symmetroids.groebner import audit_s_polynomials
from symmetroids.macaulay import macaulay_colength
from symmetroids.matrices import (
    DegreeType,
    SymmetricFormMatrix,
    congruence_transform,
    determinant,
    random_congruence_matrix,
    surface_from_matrix,
)
from symmetroids.nodes import (
    affine_jacobian_ideal,
    count_nodes,
    enumerate_rational_singular_points,
    hessian_rank_at_point,
)
from symmetroids.polynomials import Polynomial
from symmetroids.randomness import random_form, random_invertible_matrix
from symmetroids.scenarios import (
    load_fixture_surface,
    run_scenario,
    type_seed_report,
)

F = PrimeField(DEFAULT_PRIME)
SEEDS = (1, 2, 3, 4, 5)
CAYLEY_SEEDS = (2, 11, 13, 15, 17)

# (d, delta, degrees, expected t): the quartic t = 8 is classical; the
# linear-symmetroid counts 4/10/20 were fixed by the rank oracle and,
# for the cubic, by exhaustive F_7 point enumeration on the fixture.
PIPELINE_FAMILIES = (
    (4, 0, (2, 2), 8),
    (3, 0, (1, 1, 1), 4),
    (4, 1, (1, 1, 1, 1), 10),
    (5, 0, (1, 1, 1, 1, 1), 20),
)

SMOOTH_SECTION_TYPES = (
    (4, 0, (2, 2)),
    (4, 1, (1, 3)),
    (4, 1, (1, 1, 1, 1)),
    (5, 0, (1, 1, 3)),
    (5, 0, (1, 1, 1, 1, 1)),
)


def soft_deadline(elapsed, limit, label):
    if elapsed > limit:
        warnings.warn(
            f"{label} took {elapsed:.1f}s, soft target is {limit:.0f}s",
            stacklevel=2,
        )


def family_reports(d, delta, degrees):
    return [type_seed_report(d, delta, degrees, F, seed) for seed in SEEDS]


def test_criterion_1_enumeration_exactness():
    started = time.monotonic()
    assert [t.degrees for t in enumerate_degree_types(4, 0)] == [
        (2, 2),
        (0, 2, 2),
        (0, 0, 2, 2),
    ]
    assert [t.degrees for t in enumerate_degree_types(4, 1)] == [
        (1, 3),
        (-1, -1, 3, 3),
        (-1, 1, 1, 3),
        (1, 1, 1, 1),
    ]
    # (-1, 1, 5) stays out: its last target twist is zero (documented)
    assert [t.degrees for t in enumerate_degree_types(5, 0)] == [
        (-1, 3, 3),
        (1, 1, 3),
        (-1, -1, 1, 3, 3),
        (-1, 1, 1, 1, 3),
        (1, 1, 1, 1, 1),
    ]
    smooth = ConstraintProfile.smooth_section()
    assert [t.degrees for t in enumerate_degree_types(4, 0, smooth)] == [(2, 2)]
    assert [t.degrees for t in enumerate_degree_types(4, 1, smooth)] == [
        (1, 3),
        (1, 1, 1, 1),
    ]
    assert [t.degrees for t in enumerate_degree_types(5, 0, smooth)] == [
        (1, 1, 3),
        (1, 1, 1, 1, 1),
    ]
    assert time.monotonic() - started < 1.0


def test_criterion_2_quartic_22_pipeline():
    matrix0 = SymmetricFormMatrix.random(DegreeType(4, 0, (2, 2)), F, seed=1)
    for seed in SEEDS:
        started = time.monotonic()
        report = type_seed_report(4, 0, (2, 2), F, seed)
        assert report.t == 8, seed
        assert report.reduced_certified, seed
        assert report.rank_drop_consistent, seed
        soft_deadline(time.monotonic() - started, 60, f"(2,2) seed {seed}")
    pres = surface_presentation(matrix0)
    assert chi_from_resolution(pres, 0) == 0
    report = type_seed_report(4, 0, (2, 2), F, 1)
    assert check_chi_node_formula(pres, report.t)


def test_criterion_3_linear_symmetroids():
    for d, delta, degrees, expected in PIPELINE_FAMILIES:
        if degrees == (2, 2):
            continue
        started = time.monotonic()
        for report in family_reports(d, delta, degrees):
            assert report.t == expected, (degrees, report.seed)
            assert report.reduced_certified, (degrees, report.seed)
            assert report.rank_drop_consistent, (degrees, report.seed)
        if degrees == (1, 1, 1, 1, 1):
            soft_deadline(time.monotonic() - started, 300, "5x5 sweep")
    # fixture anchor: the four-nodal cubic over F_7, nodes enumerated
    # exhaustively and recounted through the pipeline on pinned seeds
    spec = load_fixture_surface("cayley_cubic.json")
    points = enumerate_rational_singular_points(spec)
    assert len(points) == 4
    assert all(hessian_rank_at_point(spec, pt) == 3 for pt in points)
    for seed in CAYLEY_SEEDS:
        report = count_nodes(spec, seed=seed)
        assert report.t == 4
        assert report.reduced_certified


def test_criterion_4_cohomology_tables():
    started = time.monotonic()
    matrix = SymmetricFormMatrix.random(DegreeType(4, 0, (2, 2)), F, seed=1)
    pres = plane_section_presentation(matrix, seed=1)
    table = cohomology_table(pres, range(-2, 4))
    assert table.row(0).h0 == 0
    assert table.row(1).h0 == 2
    assert table.row(1).h1 == 0
    quintic = SymmetricFormMatrix.random(DegreeType(5, 0, (1, 1, 3)), F, seed=1)
    qpres = plane_section_presentation(quintic, seed=1)
    qtable = cohomology_table(qpres, range(-1, 5))
    assert qtable.row(1).h0 <= 1
    # duality symmetry over a width >= 6 window for every smooth-section type
    for d, delta, degrees in SMOOTH_SECTION_TYPES:
        m = SymmetricFormMatrix.random(DegreeType(d, delta, degrees), F, seed=1)
        p = plane_section_presentation(m, seed=1)
        lo = -2 if delta == 0 and d == 4 else -1
        window = range(lo, lo + 6)
        assert duality_symmetry_check(p, window), degrees
    assert time.monotonic() - started < 10.0


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    ideals = []
    for d, delta, degrees, expected in PIPELINE_FAMILIES:
        dt = DegreeType(d, delta, degrees)
        for seed in SEEDS:
            matrix = SymmetricFormMatrix.random(dt, F, seed=seed)
            spec = surface_from_matrix(matrix)
            chart = random_invertible_matrix(F, 4, seed, "chart-a")
            ideals.append((affine_jacobian_ideal(spec, chart), expected, F))
    cayley = load_fixture_surface("cayley_cubic.json")
    f7 = cayley.ring.field
    for seed in CAYLEY_SEEDS:
        chart = random_invertible_matrix(f7, 4, seed, "chart-a")
        ideals.append((affine_jacobian_ideal(cayley, chart), 4, f7))

    for index, (ideal, expected, field) in enumerate(ideals):
        basis = ideal.groebner_basis()
        count = basis.colength()
        assert count == expected, index
        assert macaulay_colength(list(ideal.generators)) == count, index
        assert audit_s_polynomials(basis), index
        ring = ideal.ring
        for k in range(100):
            f = random_form(ring, 1 + k % 4, index + 1, "nf-probe", str(k))
            reduced = basis.normal_form(f)
            assert basis.normal_form(reduced) == reduced
        for change_seed in range(1, 6):
            a = random_invertible_matrix(field, 3, change_seed, "accept-change")
            moved = [g.linear_change(a) for g in ideal.generators]
            moved_basis = type(ideal)(ring, moved).groebner_basis()
            assert moved_basis.colength() == count, (index, change_seed)
    assert time.monotonic() - started < 600.0


def test_criterion_6_congruence_identities():
    instances = [
        (4, 0, (2, 2)),
        (4, 1, (1, 3)),
        (4, 1, (1, 1, 1, 1)),
        (5, 0, (1, 1, 3)),
        (5, 0, (1, 1, 1, 1, 1)),
        (3, 0, (1, 1, 1)),
        (4, 0, (0, 2, 2)),
        (5, 0, (-1, 3, 3)),
        (4, 1, (-1, 1, 1, 3)),
        (6, 0, (2, 2, 2)),
    ]
    assert len(instances) == 10
    countable = {(2, 2), (1, 1, 1), (1, 1, 1, 1)}
    for seed, (d, delta, degrees) in enumerate(instances, start=1):
        dt = DegreeType(d, delta, degrees)
        matrix = SymmetricFormMatrix.random(dt, F, seed=seed)
        a = random_congruence_matrix(dt, F, seed)
        moved = congruence_transform(matrix, a)
        det_a = _det_constant(a)
        lhs = determinant(moved)
        rhs = determinant(matrix).scale(F.mul(det_a, det_a))
        assert lhs == rhs, degrees
        if degrees in countable:
            before = count_nodes(surface_from_matrix(matrix), seed=seed)
            after = count_nodes(surface_from_matrix(moved), seed=seed)
            assert before.t == after.t, degrees


def _det_constant(rows):
    """Determinant of a small constant matrix by cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F.zero
    sign = F.one
    for j in range(n):
        minor = [
            [rows[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        term = F.mul(rows[0][j], _det_constant(minor))
        total = F.add(total, F.mul(sign, term))
        sign = F.neg(sign)
    return total


def test_criterion_7a_rank_drop_locus_equivalence():
    # substitute check: on every generic pipeline instance the Jacobian
    # scheme and the (h-1)-minor scheme agree (colength + both radical
    # memberships), which is what ties nodes to the rank <= h-2 locus
    for d, delta, degrees, expected in PIPELINE_FAMILIES:
        for seed in SEEDS:
            report = type_seed_report(d, delta, degrees, F, seed)
            assert report.rank_drop_consistent is True, (degrees, seed)


def test_criterion_7b_sixteen_node_search():
    result = run_scenario("kummer-search")
    if result.skipped:
        pytest.skip("sixteen-node search skipped by manifest")
    assert result.passed, result.format_text()
    checks = {c.name: c for c in result.checks}
    assert checks["t"].observed == 16
