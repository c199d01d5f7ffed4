"""Rank-based colength oracle, cross-checked against the staircase count.

The oracle shares no code path with the Buchberger engine (no monomial
orders, no division), so agreement between the two is a genuine
consistency check rather than a tautology.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetroids import linalg, macaulay
from symmetroids.fields import QQ, PrimeField
from symmetroids.groebner import Ideal
from symmetroids.macaulay import macaulay_colength
from symmetroids.matrices import surface_from_matrix
from symmetroids.nodes import affine_jacobian_ideal
from symmetroids.polynomials import Polynomial, Ring, parse_polynomial
from symmetroids.randomness import random_invertible_matrix
from symmetroids.scenarios import load_fixture_surface, load_manifest, type_matrix

F = PrimeField(31991)
R2 = Ring(2, F)
R3 = Ring(3, F)


def polys(ring, *texts):
    return [parse_polynomial(t, ring) for t in texts]


def test_monomial_complete_intersections():
    assert macaulay_colength(polys(R3, "x0^2", "x1^3", "x2^4")) == 24
    assert macaulay_colength(polys(R2, "x0", "x1")) == 1
    assert macaulay_colength(polys(R2, "x0^5", "x1^5")) == 25


def test_split_points():
    # (x0^2 - 1, x1^2 - 4) vanishes on four rational points
    assert macaulay_colength(polys(R2, "x0^2 - 1", "x1^2 - 4")) == 4


def test_split_points_at_a_prime_near_two_to_the_61():
    # the elimination runs on object arrays of Python ints here
    ring = Ring(2, PrimeField(2**61 - 1))
    assert macaulay_colength(polys(ring, "x0^2 - 1", "x1^2 - 4")) == 4


def test_fat_point():
    # the square of the maximal ideal has colength 3 in two variables
    assert macaulay_colength(polys(R2, "x0^2", "x0*x1", "x1^2")) == 3


def test_positive_dimensional_returns_none():
    assert macaulay_colength(polys(R2, "x0*x1")) is None
    assert macaulay_colength(polys(R3, "x0^2 - x1*x2")) is None


def test_unit_and_empty_inputs():
    assert macaulay_colength(polys(R2, "1")) == 0
    assert macaulay_colength(polys(R2, "x0", "x0 + 1", "x1")) == 0
    assert macaulay_colength([]) is None
    assert macaulay_colength([Polynomial(R2, {})]) is None


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        macaulay_colength(
            [parse_polynomial("x0", R2), parse_polynomial("x0", R3)]
        )


def test_rational_field_supported():
    q2 = Ring(2, QQ)
    assert macaulay_colength(polys(q2, "x0^2 - 1/4", "x1^3 - x0")) == 6


def test_agrees_with_staircase_on_mixed_systems():
    cases = [
        (R3, ("x0^2 - x1", "x1^2 - x2", "x2^2 - x0")),
        (R2, ("x0^2 + x1^2 - 1", "x0*x1 - 1")),
        (R3, ("x0^3 - 1", "x1^2 - x0", "x2 - x0*x1")),
        (R3, ("x0^2", "x1 - 1", "x2^2 - 2")),
    ]
    for ring, texts in cases:
        gens = polys(ring, *texts)
        staircase = Ideal(ring, gens).groebner_basis().colength()
        oracle = macaulay_colength(gens)
        assert oracle == staircase, texts


def test_invariant_under_coordinate_change():
    gens = polys(R3, "x0^2 - x1", "x1^2 - x2", "x2^2 - x0")
    base = macaulay_colength(gens)
    for seed in range(1, 4):
        a = random_invertible_matrix(F, 3, seed, "macaulay-change")
        moved = [g.linear_change(a) for g in gens]
        assert macaulay_colength(moved) == base


@settings(max_examples=20, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=4),
    b=st.integers(min_value=1, max_value=4),
    c=st.integers(min_value=1, max_value=30)
)
def test_bezout_for_shifted_powers(a, b, c):
    # (x0^a - c, x1^b - x0) is a complete intersection of colength a*b
    gens = polys(R2, f"x0^{a} - {c}", f"x1^{b} - x0")
    assert macaulay_colength(gens) == a * b


def count_eliminations(monkeypatch):
    """Record the degree M of each A_M built and the shape of each elimination."""
    built, shapes = [], []
    build, kernel = macaulay._macaulay_matrix, macaulay.pivots_mod_p

    def counting_build(generators, degrees, nvars, M, field):
        built.append(M)
        return build(generators, degrees, nvars, M, field)

    def counting_kernel(a, p):
        shapes.append(a.shape)
        return kernel(a, p)

    monkeypatch.setattr(macaulay, "_macaulay_matrix", counting_build)
    monkeypatch.setattr(macaulay, "pivots_mod_p", counting_kernel)
    return built, shapes


def quartic_chart_partials():
    """The chart-a partials of the seed-1 (2,2) quartic, and the quartic."""
    spec = surface_from_matrix(type_matrix(4, 0, (2, 2), F, 1))
    chart = random_invertible_matrix(F, 4, 1, "chart-a")
    partials = list(affine_jacobian_ideal(spec, chart).generators)
    return partials, spec.f.linear_change(chart).dehomogenize(3)


def test_a_settled_call_builds_and_eliminates_one_matrix(monkeypatch):
    # quartic (2,2) symmetroid: its four cubic partials in three
    # variables (the quartic itself is in their ideal), degree cap 9.
    # The measurements (8, 8), (8, 9), (9, 9), (9, 10) all read off the
    # pivots of A_10: 4 * C(10, 3) rows x^a * g_i over the C(13, 3)
    # monomials of degree <= 10.
    generators, _ = quartic_chart_partials()
    assert [g.degree() for g in generators] == [3, 3, 3, 3]
    built, shapes = count_eliminations(monkeypatch)
    assert macaulay_colength(generators) == 8
    assert built == [10]
    assert shapes == [(4 * 120, 286)]


def test_the_cap_is_three_times_the_largest_generator_degree(monkeypatch):
    # the same ideal with the quartic added: degree cap 12, and the
    # measurements (11, 11) ... (12, 13) read off A_13, C(12, 3) + 4 *
    # C(13, 3) rows over the C(16, 3) monomials of degree <= 13
    partials, f = quartic_chart_partials()
    built, shapes = count_eliminations(monkeypatch)
    assert macaulay_colength([f] + partials) == 8
    assert built == [13]
    assert shapes == [(220 + 4 * 286, 560)]


def cayley_chart_partials():
    """The chart-a partials of the Cayley cubic over F_7, first manifest seed."""
    cubic = load_fixture_surface("cayley_cubic.json")
    seed = load_manifest()["scenarios"]["cayley-cubic"]["seeds"][0]
    chart = random_invertible_matrix(cubic.ring.field, 4, seed, "chart-a")
    return list(affine_jacobian_ideal(cubic, chart).generators)


@pytest.mark.parametrize(
    "ideal, p, shape",
    [
        (cayley_chart_partials, 7, (4 * 56, 120)),
        (lambda: quartic_chart_partials()[0], 31991, (4 * 120, 286)),
    ],
    ids=["cayley-A7", "(2,2)-A10"],
)
def test_blocked_kernel_finds_the_plain_pivots_on_macaulay_matrices(ideal, p, shape):
    # the random and planted matrices of test_linalg are dense or evenly
    # sparse; the oracle's A_{cap+1} is sparse, degree-ordered and far
    # from full rank, and both eliminations must agree on it pair for pair
    generators = ideal()
    ring = generators[0].ring
    assert ring.field.p == p
    degrees = [g.degree() for g in generators]
    top = 3 * max(degrees) + 1
    a = macaulay._macaulay_matrix(generators, degrees, ring.nvars, top, ring.field)
    assert a.shape == shape
    before = a.copy()
    pivots = linalg.pivots_mod_p(a, p)
    assert np.array_equal(a, before)
    assert pivots == linalg.pivots_det_over_field(a.tolist(), ring.field)[0]
    assert 0 < len(pivots) < shape[1]


@pytest.mark.parametrize(
    "d, delta, degrees, seed, t",
    [
        (5, 0, (1, 1, 3), 1, 16),
        (5, 0, (1, 1, 3), 2, 16),
        (6, 1, (1,) * 6, 1, 35),
        (7, 0, (1,) * 7, 1, 56),
    ],
    ids=["(1,1,3)-s1", "(1,1,3)-s2", "6x6-s1", "7x7-s1"],
)
def test_oracle_counts_the_nodes_of_the_other_certify_types(d, delta, degrees, seed, t):
    # the acceptance suite's oracle criterion covers the quartic, cubic and
    # (1,1,1,1,1) ideals; these are the other types certify runs, with the
    # pinned t = 16 for (1,1,3) and t = C(n + 1, 3) nodes for the n x n
    # linear symmetroids, 35 for the 6x6 and 56 for the 7x7
    spec = surface_from_matrix(type_matrix(d, delta, degrees, F, seed))
    chart = random_invertible_matrix(F, 4, seed, "chart-a")
    assert macaulay_colength(list(affine_jacobian_ideal(spec, chart).generators)) == t


def test_an_unsettled_call_re_eliminates_at_each_higher_degree(monkeypatch):
    # (x0*x1) is not zero-dimensional: every measurement settles at once
    # but never agrees with the one before, so each step of the cap needs
    # A one degree higher, from cap + 1 = 7 up to 11
    built, shapes = count_eliminations(monkeypatch)
    assert macaulay_colength(polys(R2, "x0*x1")) is None
    assert built == [7, 8, 9, 10, 11]
    assert len(shapes) == 5


def _package_imports(module: str) -> "set[str]":
    """Names of the package modules that one module's source imports."""
    source = (Path(macaulay.__file__).parent / f"{module}.py").read_text()
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith("symmetroids.")]
            out.update(name.split(".")[1] for name in names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(a.name for a in node.names)
            elif node.module and node.module.startswith("symmetroids."):
                out.add(node.module.split(".")[1])
    return out


def test_oracle_imports_nothing_from_groebner():
    # the oracle is an independent check only while no import path,
    # direct or through another module, leads to the Buchberger engine
    reached, todo = set(), ["macaulay"]
    while todo:
        module = todo.pop()
        for name in _package_imports(module) - reached:
            reached.add(name)
            todo.append(name)
    assert "linalg" in reached
    assert "groebner" not in reached
