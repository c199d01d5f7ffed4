"""Rank-based colength oracle, cross-checked against the staircase count.

The oracle shares no code path with the Buchberger engine (no monomial
orders, no division), so agreement between the two is a genuine
consistency check rather than a tautology.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetroids import macaulay
from symmetroids.fields import QQ, PrimeField
from symmetroids.groebner import Ideal
from symmetroids.macaulay import macaulay_colength
from symmetroids.matrices import surface_from_matrix
from symmetroids.nodes import affine_jacobian_ideal
from symmetroids.polynomials import Polynomial, Ring, parse_polynomial
from symmetroids.randomness import random_invertible_matrix
from symmetroids.scenarios import type_matrix

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


def test_each_certificate_matrix_is_built_and_ranked_once(monkeypatch):
    # quartic (2,2) symmetroid: degree-3 Jacobian generators, degree cap 9.
    # The measurements (8, 8), (8, 9), (9, 9), (9, 10) need the full ranks
    # of A_8, A_9, A_10 and the high-degree ranks of A_9 and A_10: five.
    spec = surface_from_matrix(type_matrix(4, 0, (2, 2), F, 1))
    chart = random_invertible_matrix(F, 4, 1, "chart-a")
    generators = list(affine_jacobian_ideal(spec, chart).generators)
    shapes = []
    rank = macaulay.rank_mod_p

    def counting_rank(a, p):
        shapes.append(a.shape)
        return rank(a, p)

    monkeypatch.setattr(macaulay, "rank_mod_p", counting_rank)
    assert macaulay_colength(generators) == 8
    assert len(shapes) == 5
    assert len(set(shapes)) == 5


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
