"""Node counting, certification, rank-drop consistency, point enumeration.

Pinned counts below were frozen from two agreeing and independent
routes: the staircase colength of the audited Jacobian ideal and the
rank-based oracle in macaulay.py (scripts/pin_oracle_values.py re-runs
the derivation end to end).  The four-nodal cubic is additionally
anchored by exhaustive F_7 point enumeration.
"""

import json
import math
from importlib import resources

import pytest

from symmetroids.fields import QQ, DEFAULT_PRIME, PrimeField
from symmetroids.groebner import CertificateError
from symmetroids.kummer import search_sixteen_nodes
from symmetroids.macaulay import macaulay_colength
from symmetroids.matrices import (
    DegreeType,
    SurfaceSpec,
    SymmetricFormMatrix,
    minors_ideal_generators,
    surface_from_matrix,
)
from symmetroids.groebner import Ideal
from symmetroids.nodes import (
    ChartMismatchError,
    DegenerateSurfaceError,
    UnsupportedFieldError,
    affine_jacobian_ideal,
    canonical_point,
    count_nodes,
    enumerate_rational_singular_points,
    hessian_rank_at_point,
    rank_drop_check,
)
from symmetroids.polynomials import Polynomial, Ring, parse_polynomial
from symmetroids.randomness import random_form, random_invertible_matrix

F = PrimeField(DEFAULT_PRIME)
R4 = Ring(4, F)


def spec_from(text, d, field=F):
    ring = Ring(4, field)
    return SurfaceSpec(parse_polynomial(text, ring), d)


def load_cayley():
    data = json.loads(
        resources.files("symmetroids.data").joinpath("cayley_cubic.json").read_text()
    )
    field = PrimeField(data["field"]["Fp"])
    ring = Ring(4, field)
    return SurfaceSpec(parse_polynomial(data["f"], ring), data["d"])


def count_bases(monkeypatch):
    """A list that records each Ideal.groebner_basis call from now on."""
    calls = []
    basis_of = Ideal.groebner_basis

    def counted(ideal, **kwargs):
        calls.append(ideal)
        return basis_of(ideal, **kwargs)

    monkeypatch.setattr(Ideal, "groebner_basis", counted)
    return calls


# ---------------------------------------------------------------------------
# Smooth and degenerate baselines


def test_smooth_quartic_has_no_nodes():
    fermat = spec_from("x0^4 + x1^4 + x2^4 + x3^4", 4)
    report = count_nodes(fermat, seed=1)
    assert report.t == 0
    assert report.reduced_certified
    assert [c["colength"] for c in report.per_chart] == [0, 0]


def test_smooth_quadric():
    quadric = spec_from("x0*x1 - x2*x3", 2)
    assert count_nodes(quadric, seed=1).t == 0


def test_double_quadric_is_degenerate():
    # (x0*x1 - x2*x3)^2 is singular along the whole quadric
    q = parse_polynomial("x0*x1 - x2*x3", R4)
    with pytest.raises(DegenerateSurfaceError):
        count_nodes(SurfaceSpec(q * q, 4), seed=1)


def test_cone_is_degenerate_or_single_point():
    # x3 does not appear: cone over a plane quartic, vertex is a worse
    # singularity but the singular locus is still zero-dimensional
    cone = spec_from("x0^4 + x1^4 + x2^4", 4)
    report = count_nodes(cone, seed=1)
    assert report.t > 0


def test_rationals_rejected():
    ring_q = Ring(4, QQ)
    spec = SurfaceSpec(parse_polynomial("x0^4 + x1^4 + x2^4 + x3^4", ring_q), 4)
    with pytest.raises(UnsupportedFieldError):
        count_nodes(spec, seed=1)


# ---------------------------------------------------------------------------
# The four-nodal cubic fixture


def test_cayley_fixture_counts_four_nodes():
    spec = load_cayley()
    for seed in (2, 11, 13, 15, 17):
        report = count_nodes(spec, seed=seed)
        assert report.t == 4, seed
        assert report.reduced_certified, seed


def test_cayley_point_enumeration():
    spec = load_cayley()
    points = enumerate_rational_singular_points(spec)
    # the four coordinate points of P^3 in canonical form
    assert points == [
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    ] or sorted(points) == sorted(
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    )
    assert len(points) == 4
    for point in points:
        assert hessian_rank_at_point(spec, point) == 3


def test_cayley_chart_mismatch_seed(monkeypatch):
    # each seed places a node at infinity in chart a: seed 1 reads 3 in
    # chart a and 2 in chart b, seed 4 reads 2 and 4.  Chart a's quotient
    # cannot see those nodes, so the proof that nothing lies at infinity
    # fails and chart b gets a basis of its own; a chart-b colength read
    # off chart a's quotient would say 2 at seed 4 and hide the mismatch
    spec = load_cayley()
    calls = count_bases(monkeypatch)
    for seed in (1, 4):
        calls.clear()
        with pytest.raises(ChartMismatchError):
            count_nodes(spec, seed=seed)
        assert len(calls) == 2, seed


def test_affine_jacobian_matches_macaulay():
    spec = load_cayley()
    field = spec.ring.field
    transform = random_invertible_matrix(field, 4, 2, "chart-a")
    ideal = affine_jacobian_ideal(spec, transform)
    assert macaulay_colength(list(ideal.generators)) == 4


# ---------------------------------------------------------------------------
# Chart b: read off chart a's quotient after the proof, Buchberger otherwise


def buchberger_chart_b(spec, seed):
    """Chart b's colength from a basis of its own Jacobian ideal."""
    transform = random_invertible_matrix(spec.ring.field, 4, seed, "chart-b")
    return affine_jacobian_ideal(spec, transform).groebner_basis().colength()


def matrix_surface(d, delta, degrees, seed):
    matrix = SymmetricFormMatrix.random(DegreeType(d, delta, degrees), F, seed=seed)
    return surface_from_matrix(matrix)


def kummer_member():
    member = search_sixteen_nodes(F, seed=1)
    return member.surface, member.node_seed


def moved_cayley():
    """The Cayley cubic with its nodes moved off the coordinate points."""
    cubic = load_cayley()
    move = random_invertible_matrix(cubic.ring.field, 4, 1, "moved")
    return SurfaceSpec(cubic.f.linear_change(move), 3)


def small_field_surface(p, seed):
    """A random surface of degree p over F_p, whose Jacobian ideal keeps f."""
    field = PrimeField(p)
    return SurfaceSpec(random_form(Ring(4, field), p, seed, "pd"), p)


MANIFEST_TYPES = [
    (4, 0, (2, 2)),
    (4, 1, (1, 3)),
    (4, 1, (1, 1, 1, 1)),
    (5, 0, (1, 1, 3)),
    (5, 0, (1, 1, 1, 1, 1)),
]
CHART_B_CASES = (
    [(f"{t[2]}-s{s}", lambda t=t, s=s: (matrix_surface(*t, s), s))
     for t in MANIFEST_TYPES for s in range(1, 6)]
    + [(f"{h}x{h}-s{s}", lambda h=h, delta=delta, s=s: (matrix_surface(h, delta, (1,) * h, s), s))
       for h, delta in ((6, 1), (7, 0)) for s in (1, 2)]
    + [("kummer", kummer_member)]
    + [(f"cayley-s{s}", lambda s=s: (load_cayley(), s)) for s in (2, 11, 13, 15, 17)]
    # p | d: t = 1 and 2, and two smooth surfaces whose proof that
    # nothing lies at infinity needs the terms of f itself
    + [(f"quintic-F5-s{s}", lambda s=s: (small_field_surface(5, s), s)) for s in (2, 4, 5)]
    + [("cubic-F3-s3", lambda: (small_field_surface(3, 3), 3))]
)


@pytest.mark.parametrize("case", [c for _, c in CHART_B_CASES], ids=[i for i, _ in CHART_B_CASES])
def test_chart_b_colength_read_off_chart_a_matches_buchberger(case, monkeypatch):
    spec, seed = case()
    chart_b = buchberger_chart_b(spec, seed)
    calls = count_bases(monkeypatch)
    report = count_nodes(spec, seed=seed)
    assert report.per_chart[1] == {"chart": "chart-b", "colength": chart_b}
    # one basis: chart a's; chart b came from its quotient
    assert len(calls) == 1


LEAVING_CASES = [
    # nothing lies at chart a's infinity, but chart b sends 1, 2 or 3 of
    # the moved cubic's four nodes there, and the one node of an F_3 cubic
    (f"moved-cayley-s{s}", lambda s=s: (moved_cayley(), s)) for s in (5, 15, 29)
] + [("cubic-F3-s5", lambda: (small_field_surface(3, 5), 5))]


@pytest.mark.parametrize("case", [c for _, c in LEAVING_CASES], ids=[i for i, _ in LEAVING_CASES])
def test_chart_b_read_off_chart_a_sees_nodes_leave(case, monkeypatch):
    # the colength read off chart a's quotient must fall to Buchberger's
    # chart-b value, and the charts then disagree as they always did
    spec, seed = case()
    chart_a = affine_jacobian_ideal(
        spec, random_invertible_matrix(spec.ring.field, 4, seed, "chart-a")
    ).groebner_basis().colength()
    chart_b = buchberger_chart_b(spec, seed)
    assert chart_b < chart_a
    calls = count_bases(monkeypatch)
    with pytest.raises(ChartMismatchError, match=rf"\[{chart_a}, {chart_b}\]"):
        count_nodes(spec, seed=seed)
    assert len(calls) == 1


def test_chart_b_falls_back_to_buchberger_when_p_is_at_most_t(monkeypatch):
    # over F_7 the (2,2) quartic's 8 nodes leave the characteristic
    # polynomial's recurrence no room, so chart b gets a basis of its own
    # and the certificate then refuses the field
    field = PrimeField(7)
    matrix = SymmetricFormMatrix.random(DegreeType(4, 0, (2, 2)), field, seed=1)
    calls = count_bases(monkeypatch)
    with pytest.raises(CertificateError):
        count_nodes(surface_from_matrix(matrix), seed=1)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# The Jacobian ideal: the four partials, and f only when p divides d


def chart_partials(spec, transform):
    """The four partials of f after the chart change, in the chart x3 = 1."""
    g = spec.f.linear_change(transform)
    partials = [g.partial_derivative(i).dehomogenize(3) for i in range(4)]
    return [h for h in partials if h]


@pytest.mark.parametrize("seed,t", [(1, 9), (2, 6), (3, 9), (4, 3)])
def test_jacobian_ideal_keeps_f_when_p_divides_d(seed, t):
    # over F_3 the cubic's Euler relation reads 0 = sum x_i d_i f: the
    # partials x2*x3, x1*x3, x1*x2 (and d_0 f = 3*x0^2 = 0) vanish on
    # three lines, and only f cuts them down to points.  F_3 is too small
    # for a generic chart, so the colength moves with the seed.
    field = PrimeField(3)
    spec = spec_from("x0^3 + x1*x2*x3", 3, field)
    transform = random_invertible_matrix(field, 4, seed, "chart-a")
    ideal = affine_jacobian_ideal(spec, transform)
    assert [g.degree() for g in ideal.generators] == [3, 2, 2, 2, 2]
    assert ideal.groebner_basis().colength() == t
    partials = chart_partials(spec, transform)
    assert Ideal(Ring(3, field), partials).groebner_basis().colength() == math.inf
    assert macaulay_colength(partials) is None


def test_jacobian_ideal_drops_f_when_p_does_not_divide_d():
    # 4 * f(x, 1) = sum_{i<3} x_i (d_i f)(x, 1) + (d_3 f)(x, 1), so f
    # adds nothing to the ideal of its partials
    matrix = SymmetricFormMatrix.random(DegreeType(4, 0, (2, 2)), F, seed=1)
    spec = surface_from_matrix(matrix)
    transform = random_invertible_matrix(F, 4, 1, "chart-a")
    ideal = affine_jacobian_ideal(spec, transform)
    partials = chart_partials(spec, transform)
    assert list(ideal.generators) == partials
    assert [g.degree() for g in partials] == [3, 3, 3, 3]
    f = spec.f.linear_change(transform).dehomogenize(3)
    with_f = Ideal(Ring(3, F), [f] + partials).groebner_basis()
    assert ideal.groebner_basis() == with_f
    assert with_f.colength() == 8


# ---------------------------------------------------------------------------
# Determinantal quartics and quintics (pinned counts)


def test_generic_symmetroid_counts():
    cases = [
        (DegreeType(4, 0, (2, 2)), 8),
        (DegreeType(4, 1, (1, 3)), 6),
        (DegreeType(4, 1, (1, 1, 1, 1)), 10),
    ]
    for dtype, expected in cases:
        matrix = SymmetricFormMatrix.random(dtype, F, seed=1)
        spec = surface_from_matrix(matrix)
        report = count_nodes(spec, seed=1)
        assert report.t == expected, dtype
        assert report.reduced_certified, dtype
        assert rank_drop_check(matrix, report), dtype
        assert report.rank_drop_consistent


def test_node_report_json_shape():
    matrix = SymmetricFormMatrix.random(DegreeType(4, 0, (2, 2)), F, seed=3)
    report = count_nodes(surface_from_matrix(matrix), seed=3)
    obj = report.to_json_dict()
    assert obj["t"] == report.t
    assert obj["reduced_certified"] is True
    assert {c["chart"] for c in obj["charts"]} == {"chart-a", "chart-b"}
    assert obj["seed"] == 3


def test_rank_drop_rejects_foreign_matrix():
    # a report computed for one surface must not validate another type
    m22 = SymmetricFormMatrix.random(DegreeType(4, 0, (2, 2)), F, seed=1)
    m13 = SymmetricFormMatrix.random(DegreeType(4, 1, (1, 3)), F, seed=1)
    report = count_nodes(surface_from_matrix(m22), seed=1)
    assert not rank_drop_check(m13, report)


def seed_one_report(dtype):
    return count_nodes(surface_from_matrix(SymmetricFormMatrix.random(dtype, F, seed=1)), seed=1)


@pytest.mark.parametrize(
    "dtype",
    [DegreeType(4, 0, (2, 2)), DegreeType(4, 1, (1, 1, 1, 1)), DegreeType(5, 0, (1, 1, 3))],
    ids=str,
)
def test_rank_drop_rejects_another_seed_of_the_same_type(dtype):
    report = seed_one_report(dtype)
    assert rank_drop_check(SymmetricFormMatrix.random(dtype, F, seed=2), report) is False
    assert report.rank_drop_consistent is False


def test_rank_drop_rejects_the_zero_matrix():
    # every minor of the zero matrix is 0, which lies in any J: only the
    # determinant guard can say False here
    dtype = DegreeType(4, 0, (2, 2))
    report = seed_one_report(dtype)
    zero = Polynomial.zero(R4)
    matrix = SymmetricFormMatrix.from_rows(dtype, R4, [[zero, zero], [zero, zero]])
    assert rank_drop_check(matrix, report) is False


def test_rank_drop_accepts_a_scalar_multiple_of_the_determinant():
    matrix = SymmetricFormMatrix.random(DegreeType(4, 0, (2, 2)), F, seed=1)
    report = count_nodes(SurfaceSpec(surface_from_matrix(matrix).f.scale(7), 4), seed=1)
    assert report.t == 8
    assert rank_drop_check(matrix, report) is True


def test_rank_drop_builds_no_basis_of_its_own(monkeypatch):
    # with the audit too: chart b's colength is read off chart a's
    # quotient once the proof that nothing lies at infinity holds
    calls = count_bases(monkeypatch)
    matrix = SymmetricFormMatrix.random(DegreeType(5, 0, (1, 1, 3)), F, seed=1)
    for audit in (False, True):
        calls.clear()
        report = count_nodes(surface_from_matrix(matrix), seed=1, audit=audit)
        assert rank_drop_check(matrix, report) is True
        assert len(calls) == 1, audit


# ---------------------------------------------------------------------------
# Rank-drop check against the minors ideal

RANK_DROP_TYPES = [
    (DegreeType(4, 0, (2, 2)), 8),
    (DegreeType(4, 1, (1, 3)), 6),
    (DegreeType(4, 1, (1, 1, 1, 1)), 10),
    (DegreeType(5, 0, (1, 1, 3)), 16),
]


def chart_a_minors_basis(matrix, seed):
    """The chart-a (h-1)-minors basis, moving each minor (not the matrix)."""
    transform = random_invertible_matrix(F, 4, seed, "chart-a")
    gens = [
        m.linear_change(transform).dehomogenize(3)
        for m in minors_ideal_generators(matrix, matrix.h - 1)
    ]
    return Ideal(Ring(3, F), gens).groebner_basis()


@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize("dtype,t", RANK_DROP_TYPES, ids=lambda v: str(v))
def test_jacobian_ideal_lies_in_minors_ideal(dtype, t, seed):
    # Jacobi's formula and Laplace expansion put J inside M, which is
    # what turns the rank-drop check into the membership test M in J
    matrix = SymmetricFormMatrix.random(dtype, F, seed=seed)
    minors_basis = chart_a_minors_basis(matrix, seed)
    transform = random_invertible_matrix(F, 4, seed, "chart-a")
    jac = affine_jacobian_ideal(surface_from_matrix(matrix), transform)
    assert not any(minors_basis.normal_form(g) for g in jac.generators)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("dtype,t", RANK_DROP_TYPES, ids=lambda v: str(v))
def test_rank_drop_verdicts_pinned(dtype, t, seed):
    matrix = SymmetricFormMatrix.random(dtype, F, seed=seed)
    report = count_nodes(surface_from_matrix(matrix), seed=seed)
    assert report.t == t
    assert rank_drop_check(matrix, report) is True
    assert report.rank_drop_consistent is True


VERDICT_CASES = [
    (dtype, seed)
    for dtype in [
        DegreeType(4, 0, (2, 2)),
        DegreeType(4, 1, (1, 3)),
        DegreeType(4, 1, (1, 1, 1, 1)),
        DegreeType(5, 0, (1, 1, 3)),
        DegreeType(5, 0, (1, 1, 1, 1, 1)),
        DegreeType(4, 1, (-1, 1, 1, 3)),
        DegreeType(6, 0, (2, 2, 2)),
    ]
    for seed in range(1, 6)
] + [(DegreeType(6, 1, (1,) * 6), seed) for seed in (1, 2)]


@pytest.mark.parametrize(
    "dtype,seed", VERDICT_CASES, ids=[f"{d}-s{s}" for d, s in VERDICT_CASES]
)
def test_rank_drop_verdict_matches_the_minors_colength(dtype, seed):
    # the reference verdict: the chart-a basis of M has colength t,
    # which for J in M says M = J
    matrix = SymmetricFormMatrix.random(dtype, F, seed=seed)
    report = count_nodes(surface_from_matrix(matrix), seed=seed)
    by_colength = chart_a_minors_basis(matrix, seed).colength() == report.t
    assert rank_drop_check(matrix, report) is by_colength
    assert by_colength


# ---------------------------------------------------------------------------
# Point utilities


def test_canonical_point_scaling():
    f7 = PrimeField(7)
    assert canonical_point(f7, (2, 4, 6, 0)) == (5, 3, 1, 0)
    assert canonical_point(f7, (0, 0, 0, 3)) == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        canonical_point(f7, (0, 0, 0, 0))


def test_hessian_rank_demands_surface_point():
    spec = load_cayley()
    with pytest.raises(ValueError):
        hessian_rank_at_point(spec, (1, 1, 1, 1))


def test_enumeration_rejects_large_fields():
    spec = spec_from("x0^4 + x1^4 + x2^4 + x3^4", 4)
    with pytest.raises(ValueError):
        enumerate_rational_singular_points(spec)


def test_enumeration_smooth_surface_is_empty():
    f7 = PrimeField(7)
    spec = spec_from("x0^2 + x1^2 + x2^2 + x3^2", 2, field=f7)
    assert enumerate_rational_singular_points(spec) == []


def test_enumeration_finds_single_node():
    f7 = PrimeField(7)
    # x0^2 + x1^2 + x2^2 vanishes doubly at [0:0:0:1]
    spec = spec_from("x0^2*x3 + x1^2*x3 + x2^2*x3 + x0^3", 3, field=f7)
    points = enumerate_rational_singular_points(spec)
    assert (0, 0, 0, 1) in points
