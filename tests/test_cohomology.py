"""Cohomology tables of coker presentations and their symmetries.

Frozen h0/h1/chi values below were hand-derived from the twisted
resolution 0 -> sum O(-l_j) -> sum O(-r_i) -> coker -> 0 and verified
stable across seeds 1-5; the plane-section values additionally satisfy
the duality pivot d - 3 + delta on the nose.
"""

import json

import pytest

from symmetroids import cohomology
from symmetroids.cohomology import (
    CohomologyTable,
    RangeTooSmallError,
    check_chi_node_formula,
    chi_from_resolution,
    cohomology_table,
    duality_symmetry_check,
    graded_piece_dimension,
    hilbert_function_coker,
    hilbert_polynomial_value,
    plane_section_presentation,
    surface_presentation,
)
from symmetroids.fields import DEFAULT_PRIME, QQ, PrimeField
from symmetroids.matrices import DegreeType, SymmetricFormMatrix, determinant

F = PrimeField(DEFAULT_PRIME)


def matrix_of(dtype, seed=1):
    return SymmetricFormMatrix.random(dtype, F, seed=seed)


# ---------------------------------------------------------------------------
# Binomial helpers


def test_hilbert_polynomial_values():
    # dim of degree-a forms in 4 variables: C(a+3, 3)
    assert hilbert_polynomial_value(4, 0) == 1
    assert hilbert_polynomial_value(4, 1) == 4
    assert hilbert_polynomial_value(4, 2) == 10
    assert hilbert_polynomial_value(4, 3) == 20
    # exactness at negative twists, where the binomial goes negative
    assert hilbert_polynomial_value(4, -1) == 0
    assert hilbert_polynomial_value(4, -2) == 0
    assert hilbert_polynomial_value(4, -3) == 0
    assert hilbert_polynomial_value(4, -4) == -1
    # 3 variables: C(a+2, 2)
    assert hilbert_polynomial_value(3, 0) == 1
    assert hilbert_polynomial_value(3, 2) == 6
    assert hilbert_polynomial_value(3, -1) == 0
    assert hilbert_polynomial_value(3, -2) == 0
    assert hilbert_polynomial_value(3, -3) == 1


def test_graded_piece_dimension_matches_polynomial():
    for n in (3, 4):
        for a in range(0, 6):
            assert graded_piece_dimension(n, a) == hilbert_polynomial_value(n, a)
    assert graded_piece_dimension(4, -1) == 0


# ---------------------------------------------------------------------------
# Presentations


def test_surface_presentation_shape():
    matrix = matrix_of(DegreeType(4, 0, (2, 2)))
    pres = surface_presentation(matrix)
    assert pres is matrix
    assert pres.ring.nvars == 4
    assert pres.degree_type.degrees == (2, 2)


def test_section_presentation_shape():
    pres = plane_section_presentation(matrix_of(DegreeType(4, 0, (2, 2))), seed=1)
    assert pres.ring.nvars == 3


def test_presentation_validates_entry_degrees():
    dt = DegreeType(4, 0, (2, 2))
    good = surface_presentation(matrix_of(dt))
    ring = good.ring
    # swap in an entry of the wrong degree
    from symmetroids.polynomials import parse_polynomial

    bad_entries = list(list(row) for row in good.entries)
    bad_entries[0][0] = parse_polynomial("x0", ring)
    with pytest.raises(ValueError, match="not homogeneous of degree 2"):
        SymmetricFormMatrix.from_rows(dt, ring, bad_entries)


# ---------------------------------------------------------------------------
# Frozen tables for the (2, 2) quartic


def test_quartic_22_section_table():
    matrix = matrix_of(DegreeType(4, 0, (2, 2)))
    pres = plane_section_presentation(matrix, seed=1)
    table = cohomology_table(pres, range(-2, 4))
    assert [table.row(m).h0 for m in range(-2, 4)] == [0, 0, 0, 2, 6, 10]
    assert [table.row(m).h1 for m in range(-2, 4)] == [10, 6, 2, 0, 0, 0]
    assert table.row(0).chi == -2
    assert table.row(1).chi == 2


def test_quartic_22_section_duality():
    matrix = matrix_of(DegreeType(4, 0, (2, 2)))
    pres = plane_section_presentation(matrix, seed=1)
    # pivot d - 3 + delta = 1: h1(m) == h0(1 - m)
    assert duality_symmetry_check(pres, range(-2, 4))


def test_quartic_22_surface_chi_formula():
    matrix = matrix_of(DegreeType(4, 0, (2, 2)))
    pres = surface_presentation(matrix)
    assert chi_from_resolution(pres, 0) == 0
    # t = 8 nodes: chi = (8 - 8)/4 = 0
    assert check_chi_node_formula(pres, 8)
    assert not check_chi_node_formula(pres, 4)


def test_tables_stable_across_seeds():
    dt = DegreeType(4, 0, (2, 2))
    rows = []
    for seed in range(1, 6):
        pres = plane_section_presentation(matrix_of(dt, seed=seed), seed=seed)
        table = cohomology_table(pres, range(-2, 4))
        rows.append(tuple((r.m, r.h0, r.h1, r.chi) for r in table.rows))
    assert len(set(rows)) == 1


# ---------------------------------------------------------------------------
# Frozen values for the odd quartics and the quintics


def test_quartic_13_section_values():
    matrix = matrix_of(DegreeType(4, 1, (1, 3)))
    pres = plane_section_presentation(matrix, seed=1)
    table = cohomology_table(pres, range(-1, 5))
    assert table.row(1).h0 == 1
    assert table.row(1).h1 == 1
    # pivot d - 3 + delta = 2
    assert duality_symmetry_check(pres, range(-1, 5))


def test_quartic_13_surface_chi():
    pres = surface_presentation(matrix_of(DegreeType(4, 1, (1, 3))))
    assert chi_from_resolution(pres, 0) == 1
    # delta = 1: (8 - 6)/4 is not an integer and the formula must say no
    assert not check_chi_node_formula(pres, 6)


def test_quartic_1111_section_values():
    matrix = matrix_of(DegreeType(4, 1, (1, 1, 1, 1)))
    pres = plane_section_presentation(matrix, seed=1)
    table = cohomology_table(pres, range(-1, 5))
    assert table.row(1).h0 == 0
    assert duality_symmetry_check(pres, range(-1, 5))


def test_quintic_113_section_values():
    matrix = matrix_of(DegreeType(5, 0, (1, 1, 3)))
    pres = plane_section_presentation(matrix, seed=1)
    table = cohomology_table(pres, range(-1, 5))
    assert table.row(1).h0 == 1
    assert table.row(1).h1 == 1
    assert duality_symmetry_check(pres, range(-1, 5))


def test_quintic_11111_section_values():
    matrix = matrix_of(DegreeType(5, 0, (1, 1, 1, 1, 1)))
    pres = plane_section_presentation(matrix, seed=1)
    table = cohomology_table(pres, range(-1, 5))
    assert table.row(1).h0 == 0
    assert duality_symmetry_check(pres, range(-1, 5))


def test_chi_formula_rejects_non_quartics():
    pres = surface_presentation(matrix_of(DegreeType(5, 0, (1, 1, 3))))
    with pytest.raises(ValueError):
        check_chi_node_formula(pres, 16)


# ---------------------------------------------------------------------------
# Table plumbing


def test_table_row_lookup_and_json():
    matrix = matrix_of(DegreeType(4, 0, (2, 2)))
    pres = plane_section_presentation(matrix, seed=1)
    table = cohomology_table(pres, range(0, 2))
    obj = table.to_json_dict()
    text = json.dumps(obj)
    assert json.loads(text) == obj
    assert obj["rows"][0]["m"] == 0
    with pytest.raises(KeyError):
        table.row(99)


def test_table_format_text():
    matrix = matrix_of(DegreeType(4, 0, (2, 2)))
    surface = cohomology_table(surface_presentation(matrix), range(0, 2))
    text = surface.format_text()
    # surface-level h1 is not computed and prints as a dash
    assert "-" in text
    section = cohomology_table(
        plane_section_presentation(matrix, seed=1), range(0, 2)
    )
    assert "-2" in section.format_text() or "2" in section.format_text()


def test_duality_needs_curve_and_range():
    matrix = matrix_of(DegreeType(4, 0, (2, 2)))
    with pytest.raises(ValueError):
        duality_symmetry_check(surface_presentation(matrix), range(-2, 4))
    pres = plane_section_presentation(matrix, seed=1)
    # pivot is 1; the range {5, 6} contains no dual pair
    with pytest.raises(RangeTooSmallError):
        duality_symmetry_check(pres, range(5, 7))


def test_surface_table_has_no_h1():
    matrix = matrix_of(DegreeType(4, 0, (2, 2)))
    table = cohomology_table(surface_presentation(matrix), range(0, 3))
    assert all(r.h1 is None for r in table.rows)


# ---------------------------------------------------------------------------
# The table against the rank path, twist by twist

AGREEMENT_TYPES = [
    (4, 0, (2, 2)),
    (4, 1, (1, 3)),
    (4, 1, (1, 1, 1, 1)),
    (5, 0, (1, 1, 3)),
    (5, 0, (1, 1, 1, 1, 1)),
    (4, 1, (-1, 1, 1, 3)),
    (6, 1, (1,) * 6),
]


@pytest.mark.parametrize("field", [F, PrimeField(7), QQ], ids=["F31991", "F7", "Q"])
@pytest.mark.parametrize("d, delta, degrees", AGREEMENT_TYPES, ids=[str(t[2]) for t in AGREEMENT_TYPES])
def test_table_rows_match_the_rank_path(d, delta, degrees, field):
    matrix = SymmetricFormMatrix.random(DegreeType(d, delta, degrees), field, seed=2)
    # the largest source twist l_j is 4 here, so m = 5 already fills every
    # block; the rank path over Q runs on Fractions and would take about
    # 100 s up to m = 8, so Q stops at 5
    twists = range(-3, 6 if field is QQ else 9)
    for pres in (surface_presentation(matrix), plane_section_presentation(matrix, seed=2)):
        table = cohomology_table(pres, twists)
        assert [r.m for r in table.rows] == list(twists)
        for row in table.rows:
            assert row.h0 == hilbert_function_coker(pres, row.m), (pres.ring.nvars, row.m)
            assert row.chi == chi_from_resolution(pres, row.m)


def equal_rows_matrix():
    """A (0,2,2) quartic matrix whose index 1 copies index 2, so det == 0."""
    template = matrix_of(DegreeType(4, 0, (0, 2, 2)))
    e = template.entries
    rows = [list(r) for r in e]
    for j in range(3):
        rows[1][j] = rows[j][1] = e[2][j]
    rows[1][1] = e[2][2]
    return SymmetricFormMatrix.from_rows(template.degree_type, template.ring, rows)


def count_rank_path_twists(monkeypatch):
    seen = []
    rank_path = cohomology.hilbert_function_coker

    def counted(pres, m):
        seen.append(m)
        return rank_path(pres, m)

    monkeypatch.setattr(cohomology, "hilbert_function_coker", counted)
    return seen


def test_a_degenerate_matrix_takes_the_rank_path_at_every_twist(monkeypatch):
    matrix = equal_rows_matrix()
    seen = count_rank_path_twists(monkeypatch)
    table = cohomology_table(surface_presentation(matrix), range(-2, 6))
    assert seen == list(range(-2, 6))
    # the two equal rows leave a kernel from degree l_j = 3 on: the
    # cokernel outgrows its Euler characteristic
    assert [(r.m, r.h0, r.chi) for r in table.rows[-3:]] == [(3, 19, 18), (4, 36, 32), (5, 60, 50)]


def test_a_zero_at_the_certificate_point_takes_the_rank_path(monkeypatch):
    matrix = plane_section_presentation(matrix_of(DegreeType(4, 0, (2, 2))), seed=1)
    twists = range(-2, 5)
    certified = cohomology_table(matrix, twists)
    # every entry has positive degree, so det(phi) vanishes at the origin
    # although the section's determinant is a nonzero quartic
    assert determinant(matrix)
    points = []

    def origin(field, length, seed, *tags):
        points.append((length, seed, tags))
        return (field.zero,) * length

    monkeypatch.setattr(cohomology, "random_point", origin)
    seen = count_rank_path_twists(monkeypatch)
    assert cohomology_table(matrix, twists) == certified
    assert points == [(3, 0, ("injective",))]
    assert seen == list(twists)
