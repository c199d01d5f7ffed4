"""Degree types, symmetric form matrices, congruence, serialization."""

import json
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetroids.fields import QQ, PrimeField
from symmetroids.matrices import (
    DegenerateMatrixError,
    DegreeType,
    DegreeTypeError,
    SurfaceSpec,
    SymmetricFormMatrix,
    ambient_ring,
    congruence_transform,
    determinant,
    dump_json_bytes,
    matrix_from_json_dict,
    matrix_to_json_dict,
    minors_ideal_generators,
    random_congruence_matrix,
    surface_from_json_dict,
    surface_from_matrix,
    surface_to_json_dict,
)
from symmetroids.linalg import det_over_field
from symmetroids.polynomials import Polynomial, Ring, parse_polynomial
from symmetroids.randomness import random_invertible_matrix

F = PrimeField(31991)


# --- degree types ------------------------------------------------------


def test_degree_type_twists_and_entry_degrees():
    dt = DegreeType(4, 0, (2, 2))
    assert dt.h == 2
    assert dt.source_twists == (3, 3)
    assert dt.target_twists == (1, 1)
    assert dt.entry_degree(0, 0) == 2
    dt = DegreeType(4, 1, (1, 3))
    assert dt.source_twists == (3, 4)
    assert dt.target_twists == (2, 1)
    assert dt.entry_degree(0, 0) == 1
    assert dt.entry_degree(0, 1) == 2
    assert dt.entry_degree(1, 1) == 3


def test_degree_type_negative_entries_forced_zero():
    dt = DegreeType(5, 0, (-1, 3, 3))
    assert dt.entry_degree(0, 0) == -1  # the (1,1) slot must hold the zero form
    assert dt.entry_degree(0, 1) == 1


def test_degree_type_validation():
    with pytest.raises(DegreeTypeError):
        DegreeType(4, 0, (3, 1))  # not nondecreasing
    with pytest.raises(DegreeTypeError):
        DegreeType(4, 0, (1, 3))  # parity: d_i must match d - delta mod 2
    with pytest.raises(DegreeTypeError):
        DegreeType(4, 0, (2, 4))  # sum != d
    with pytest.raises(DegreeTypeError):
        DegreeType(4, 2, (2, 2))  # delta out of range
    with pytest.raises(DegreeTypeError):
        DegreeType(0, 0, ())


def test_constraint_flags():
    flags = DegreeType(4, 0, (2, 2)).constraint_flags()
    assert flags["determinant_nonzero"]
    assert flags["twist_positive"]
    assert flags["determinant_squarefree"]
    assert flags["smooth_plane_section"]
    flags = DegreeType(5, 0, (-1, 3, 3)).constraint_flags()
    assert flags["determinant_nonzero"]
    assert not flags["smooth_plane_section"]


def test_pairing_shifts():
    # shift s pairs index i with h + s - i; the shifted anti-diagonal sums
    # must stay positive for the corresponding determinant statement
    dt = DegreeType(4, 0, (0, 2, 2))
    assert dt.pairing_failure(1) is None  # i=1 with j=3: 0 + 2 > 0
    assert dt.pairing_failure(0) is None  # i=1 with j=2: 0 + 2 > 0
    assert dt.pairing_failure(-1) == 1  # i=1 with j=1: 0 + 0 <= 0
    dt = DegreeType(4, 0, (0, 4))
    assert dt.pairing_failure(1) is None
    assert dt.pairing_failure(0) == 1  # i=1 pairs with itself: 0 + 0 <= 0


def test_constraint_failures_give_the_first_failing_index():
    dt = DegreeType(5, 0, (-1, 1, 5))
    assert dt.constraint_failures() == {
        "determinant_nonzero": None,
        "determinant_squarefree": 1,  # i=1 with j=2: -1 + 1 <= 0
        "twist_positive": 3,  # r_3 = (5 - 5)/2 = 0
        "smooth_plane_section": 1,  # i=1 with j=1: -1 - 1 <= 0
    }
    assert dt.constraint_flags() == {
        name: i is None for name, i in dt.constraint_failures().items()
    }


# --- matrices ----------------------------------------------------------


def test_random_matrix_shape_and_symmetry():
    dt = DegreeType(4, 0, (2, 2))
    m = SymmetricFormMatrix.random(dt, F, seed=1)
    assert m.entries[0][1] == m.entries[1][0]
    for i in range(2):
        for j in range(2):
            e = m.entries[i][j]
            assert e.is_homogeneous() and e.homogeneous_degree() == 2
    assert m == SymmetricFormMatrix.random(dt, F, seed=1)
    assert m != SymmetricFormMatrix.random(dt, F, seed=2)


def test_zero_slots_for_negative_entry_degrees():
    dt = DegreeType(5, 0, (-1, 3, 3))
    m = SymmetricFormMatrix.random(dt, F, seed=1)
    assert not m.entries[0][0]
    assert m.entries[0][1].homogeneous_degree() == 1


@pytest.mark.parametrize("field", [F, QQ], ids=["F31991", "Q"])
def test_linear_change_commutes_with_the_determinant(field):
    # a ring map: det(phi(A y)) = det(phi)(A y), for a chart and for a plane
    dt = DegreeType(5, 0, (-1, 1, 1, 1, 3))
    m = SymmetricFormMatrix.random(dt, field, seed=2)
    chart = random_invertible_matrix(field, 4, 2, "chart")
    plane = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [3, -2, 5]]
    for transform, nvars in ((chart, 4), (plane, 3)):
        moved = m.linear_change(transform)
        assert moved.ring == Ring(nvars, field)
        assert moved.degree_type == dt
        assert not moved.entries[0][0]
        for i in range(dt.h):
            for j in range(dt.h):
                assert moved.entries[i][j] == m.entries[i][j].linear_change(transform)
        assert determinant(moved) == determinant(m).linear_change(transform)


def test_matrices_live_on_p3_or_a_plane():
    dt = DegreeType(4, 0, (2, 2))
    for nvars in (3, 4):
        ring = Ring(nvars, F)
        q = parse_polynomial("x0^2 + x1*x2", ring)
        SymmetricFormMatrix.from_rows(dt, ring, [[q, q], [q, q]])
    ring = Ring(2, F)
    q = parse_polynomial("x0^2 + x1^2", ring)
    with pytest.raises(ValueError, match="P\\^3 or a plane"):
        SymmetricFormMatrix.from_rows(dt, ring, [[q, q], [q, q]])


def test_determinant_degree_and_symmetry_memo():
    for degrees, d, delta in [((2, 2), 4, 0), ((1, 1, 1), 3, 0), ((1, 3), 4, 1)]:
        dt = DegreeType(d, delta, degrees)
        m = SymmetricFormMatrix.random(dt, F, seed=3)
        f = determinant(m)
        assert f.is_homogeneous() and f.homogeneous_degree() == d


def test_determinant_degenerate():
    dt = DegreeType(4, 0, (2, 2))
    ring = ambient_ring(F)
    q = parse_polynomial("x0^2 + x1*x2", ring)
    rows = ((q, q), (q, q))
    m = SymmetricFormMatrix(dt, ring, rows)
    with pytest.raises(DegenerateMatrixError):
        determinant(m)
    with pytest.raises(DegenerateMatrixError):
        surface_from_matrix(m)


def per_minor_det(rows, ring):
    """Cofactor expansion of one minor along its first row, memoized on the
    remaining columns only: a fresh expansion for every minor."""
    h = len(rows)
    memo = {}

    def rec(row, mask):
        if row == h:
            return Polynomial.constant(ring, 1)
        if mask not in memo:
            total = Polynomial.zero(ring)
            sign = 1
            for j in range(h):
                if mask & 1 << j:
                    if rows[row][j]:
                        term = rows[row][j] * rec(row + 1, mask & ~(1 << j))
                        total = total + term if sign > 0 else total - term
                    sign = -sign
            memo[mask] = total
        return memo[mask]

    return rec(0, (1 << h) - 1)


COFACTOR_TYPES = [
    DegreeType(4, 0, (2, 2)),
    DegreeType(4, 1, (1, 3)),
    DegreeType(4, 1, (1, 1, 1, 1)),
    DegreeType(5, 0, (1, 1, 3)),
    DegreeType(5, 0, (1, 1, 1, 1, 1)),
    DegreeType(6, 1, (1,) * 6),
    # entry (0, 0) has degree -1, so the matrix has a zero entry
    DegreeType(4, 1, (-1, 1, 1, 3)),
]


@pytest.mark.parametrize("dtype", COFACTOR_TYPES, ids=str)
def test_shared_expansion_matches_a_per_minor_expansion(dtype):
    chart = random_invertible_matrix(F, 4, 1, "chart-a")
    m = SymmetricFormMatrix.random(dtype, F, seed=1).linear_change(chart)
    h = m.h
    assert determinant(m) == per_minor_det(m.entries, m.ring)
    for size in range(h + 1):
        want = []
        subsets = list(combinations(range(h), size))
        for I in subsets:
            for J in subsets:
                if J >= I:
                    minor = per_minor_det([[m.entries[i][j] for j in J] for i in I], m.ring)
                    if minor:
                        want.append(minor)
        assert minors_ideal_generators(m, size) == want, size


def test_minors_deduplication():
    dt = DegreeType(3, 0, (1, 1, 1))
    m = SymmetricFormMatrix.random(dt, F, seed=1)
    minors = minors_ideal_generators(m, 2)
    # symmetric 3x3: 2x2 minors with I <= J, that is 6 * (6 + 1) / 2 ... but
    # index pairs are C(3,2) x C(3,2) = 9 reduced to 6 by minor(I,J) = minor(J,I)
    assert len(minors) == 6
    for g in minors:
        assert g.is_homogeneous() and g.homogeneous_degree() == 2


def test_empty_minor_is_one():
    # the 0x0 determinant: a 1x1 matrix's (h-1)-minors ideal is the unit ideal
    m = SymmetricFormMatrix.random(DegreeType(4, 0, (4,)), F, seed=1)
    assert minors_ideal_generators(m, 0) == [Polynomial.constant(m.ring, 1)]
    for size in (-1, 2):
        with pytest.raises(ValueError):
            minors_ideal_generators(m, size)


def test_congruence_det_identity_single():
    dt = DegreeType(4, 1, (1, 3))
    m = SymmetricFormMatrix.random(dt, F, seed=5)
    a = random_congruence_matrix(dt, F, seed=6)
    m2 = congruence_transform(m, a)
    det_a = det_over_field([list(r) for r in a], F)
    lhs = determinant(m2)
    rhs = determinant(m).scale(F.mul(det_a, det_a))
    assert lhs == rhs


def test_congruence_rejects_degree_mixing_and_singular():
    dt = DegreeType(4, 1, (1, 3))
    m = SymmetricFormMatrix.random(dt, F, seed=5)
    with pytest.raises(ValueError):
        congruence_transform(m, [[1, 1], [0, 1]])  # mixes degrees 1 and 3
    dt2 = DegreeType(4, 0, (2, 2))
    m2 = SymmetricFormMatrix.random(dt2, F, seed=5)
    with pytest.raises(ValueError):
        congruence_transform(m2, [[1, 1], [1, 1]])


def test_matrix_json_round_trip_bytes_identical():
    dt = DegreeType(5, 0, (1, 1, 3))
    m = SymmetricFormMatrix.random(dt, F, seed=9)
    obj = matrix_to_json_dict(m)
    m2 = matrix_from_json_dict(json.loads(dump_json_bytes(obj)))
    assert m2 == m
    assert dump_json_bytes(matrix_to_json_dict(m2)) == dump_json_bytes(obj)


def test_matrix_json_upper_triangle_is_authoritative():
    obj = {
        "field": {"Fp": 31991},
        "d": 3,
        "delta": 0,
        "degree_type": [1, 1, 1],
        "entries": [
            ["x0", "x1", "x2"],
            ["IGNORED", "x3", "x0"],
            ["IGNORED", "IGNORED", "x1"],
        ],
    }
    # the reader mirrors the upper triangle; lower entries are not parsed
    m = matrix_from_json_dict(obj)
    assert m.entries[1][0] == m.entries[0][1]
    assert m.entries[2][0] == m.entries[0][2]


def test_surface_json_round_trip():
    dt = DegreeType(4, 0, (2, 2))
    m = SymmetricFormMatrix.random(dt, F, seed=2)
    spec = SurfaceSpec(determinant(m), dt.d, provenance="test")
    again = surface_from_json_dict(surface_to_json_dict(spec))
    assert again.f == spec.f and again.d == spec.d
    assert again.provenance == "test"


def test_matrix_over_q():
    dt = DegreeType(3, 0, (1, 1, 1))
    m = SymmetricFormMatrix.random(dt, QQ, seed=1)
    f = determinant(m)
    assert f.is_homogeneous() and f.homogeneous_degree() == 3
    round_trip = matrix_from_json_dict(matrix_to_json_dict(m))
    assert round_trip == m


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_congruence_node_type_invariants_random_transforms(seed_m, seed_a):
    dt = DegreeType(3, 0, (1, 1, 1))
    m = SymmetricFormMatrix.random(dt, F, seed=seed_m)
    a = random_congruence_matrix(dt, F, seed=seed_a)
    m2 = congruence_transform(m, a)
    assert m2.degree_type == dt
    det_a = det_over_field([list(r) for r in a], F)
    assert determinant(m2) == determinant(m).scale(F.mul(det_a, det_a))
