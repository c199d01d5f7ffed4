"""Sixteen-node search inside the squared-coordinate quartic family.

The pinned seed-1 result was double-checked at freeze time: the node
pipeline certifies t = 16 and the rank-based colength oracle agrees in
both charts (scripts/pin_oracle_values.py reruns that derivation).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetroids import kummer
from symmetroids.fields import DEFAULT_PRIME, PrimeField
from symmetroids.groebner import CertificateError
from symmetroids.kummer import family_member, search_sixteen_nodes
from symmetroids.nodes import (
    count_nodes,
    enumerate_rational_singular_points,
    hessian_rank_at_point,
)

F = PrimeField(DEFAULT_PRIME)


def test_family_member_shape():
    spec = family_member(F, (1, 0, 0, 0, 0))
    assert spec.d == 4
    assert spec.f.degree() == 4
    # the sum of fourth powers has 4 terms; adding the mixed basis fills in
    assert len(spec.f.terms) == 4
    full = family_member(F, (1, 1, 1, 1, 1))
    assert len(full.f.terms) == 11


def test_family_member_validates_length():
    with pytest.raises(ValueError):
        family_member(F, (1, 2, 3))


def test_search_pinned_seed():
    result = search_sixteen_nodes(F, seed=1)
    assert result is not None
    assert result.trial == 0
    assert result.report.t == 16
    assert result.report.reduced_certified
    assert result.coefficients == (5460, 4040, 13084, 2830, 1)
    assert result.point == (16408, 22331, 24911, 27046)
    # the found surface really is singular at the seeded point: rebuild
    # and evaluate every gradient entry there
    spec = result.surface
    values = [spec.ring.field.normalize(v) for v in result.point]
    assert spec.f.evaluate(values) == 0
    for i in range(4):
        assert spec.f.partial_derivative(i).evaluate(values) == 0


def test_search_is_deterministic():
    a = search_sixteen_nodes(F, seed=1)
    b = search_sixteen_nodes(F, seed=1)
    assert a.coefficients == b.coefficients
    assert a.point == b.point
    assert a.report.t == b.report.t


def test_search_zero_budget_returns_none():
    assert search_sixteen_nodes(F, seed=1, budget=0) is None


def test_search_result_json_is_surface_superset():
    result = search_sixteen_nodes(F, seed=1)
    obj = result.to_json_dict()
    # loadable as a plain surface: the node CLI re-verifies it unchanged
    assert obj["d"] == 4
    assert "f" in obj and "field" in obj
    assert obj["report"]["t"] == 16
    assert obj["seed"] == result.node_seed
    assert tuple(obj["coefficients"]) == result.coefficients


def test_found_surface_recounts_under_fresh_seed():
    result = search_sixteen_nodes(F, seed=1)
    report = count_nodes(result.surface, seed=2)
    assert report.t == 16


def test_search_rejects_fields_too_small_to_certify():
    # the certificate needs p > colength, so p <= 16 can never succeed
    with pytest.raises(CertificateError):
        search_sixteen_nodes(PrimeField(13), seed=1)


def test_small_field_orbit_is_visible():
    # over F_31 the whole 16-point orbit happens to be rational, so the
    # exhaustive enumeration confirms the colength count point by point
    result = search_sixteen_nodes(PrimeField(31), seed=4, budget=12)
    assert result is not None
    assert result.trial == 4
    assert result.report.t == 16
    points = enumerate_rational_singular_points(result.surface)
    assert len(points) == 16
    for point in points[:4]:
        assert hessian_rank_at_point(result.surface, point) == 3


# -- the 4x5 kernel by Cramer's rule against Gauss-Jordan ------------------


def gauss_jordan_kernel(rows, p):
    """A right-kernel basis over F_p by textbook Gauss-Jordan.

    One vector per free column: 1 there, minus that RREF column at the pivots.
    """
    m = [[v % p for v in row] for row in rows]
    ncols = len(m[0])
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, col in zip(m, pivots):
            v[col] = -row[free] % p
        basis.append(v)
    return basis


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([31, 31991, 2**61 - 1]),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2),
)
def test_kernel_vector_matches_gauss_jordan(seed, p, rank, zero_cols):
    # a product through `rank` columns, then whole columns zeroed
    rng = random.Random(seed)
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(4)]
    right = [[rng.randrange(p) for _ in range(5)] for _ in range(rank)]
    system = [
        [sum(left[i][k] * right[k][j] for k in range(rank)) % p for j in range(5)]
        for i in range(4)
    ]
    for j in rng.sample(range(5), zero_cols):
        for row in system:
            row[j] = 0
    kernel = gauss_jordan_kernel(system, p)
    got = kummer._kernel_vector(system, PrimeField(p))
    if len(kernel) > 1:
        assert got is None
        return
    (v,) = kernel
    last = max(i for i, x in enumerate(v) if x)
    inv = pow(v[last], -1, p)
    assert got == tuple(x * inv % p for x in v)
