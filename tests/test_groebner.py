"""Buchberger engine: reduced bases, division, radical membership, certificates.

Expected colengths for the complete intersections below are the Bezout
products of the generator degrees, checked independently against the
rank-based oracle in test_macaulay.py.
"""

import hashlib
import math
import tracemalloc
from operator import add, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symmetroids.fields import QQ, PrimeField
from symmetroids.groebner import (
    DEGREE_LIMIT,
    CertificateError,
    Ideal,
    Packing,
    ResourceBudgetError,
    audit_s_polynomials,
    colength_where_unit,
    multiplication_matrix,
    radical_membership,
    s_polynomial,
    squarefree_certificate,
)
from symmetroids.macaulay import macaulay_colength
from symmetroids.matrices import DegreeType, SymmetricFormMatrix, surface_from_matrix
from symmetroids.nodes import affine_jacobian_ideal
from symmetroids.polynomials import (
    Polynomial,
    Ring,
    grevlex_key,
    mono_divides,
    parse_polynomial,
)
from symmetroids.randomness import random_form, random_invertible_matrix

F = PrimeField(31991)
R3 = Ring(3, F)
R2 = Ring(2, F)


def poly(text, ring=R3):
    return parse_polynomial(text, ring)


def ideal(*texts, ring=R3):
    return Ideal(ring, [poly(t, ring) for t in texts])


# ---------------------------------------------------------------------------
# Reduced bases


def test_basis_is_reduced():
    # reduced: monic leads, and no tail monomial divisible by another lead
    basis = ideal("x0^2 + x1^2 - 1", "x0*x1 - 1", ring=R2).groebner_basis()
    leads = basis.lead_monomials()
    assert len(set(leads)) == len(leads)
    for g in basis:
        lm = max(g.terms, key=grevlex_key)
        assert g.terms[lm] == F.one
        for mono in g.terms:
            if mono == lm:
                continue
            for other in leads:
                assert not all(o <= m for o, m in zip(other, mono)) or other == mono


def test_basis_unique_across_generator_presentations():
    # the same ideal from scrambled generating sets gives the identical basis
    a = ideal("x0^2 - x1", "x1^2 - x2")
    b = ideal("x1^2 - x2", "x0^2 - x1 + 3*x1^2 - 3*x2")
    assert a.groebner_basis() == b.groebner_basis()


def test_basis_detects_distinct_ideals():
    a = ideal("x0^2 - x1", "x1^2 - x2")
    b = ideal("x0^2 - x1", "x1^2 - x0")
    assert a.groebner_basis() != b.groebner_basis()


def test_unit_ideal_short_circuit():
    basis = ideal("x0", "x0 + 1").groebner_basis()
    assert basis.is_unit_ideal()
    assert basis.colength() == 0


def test_katsura_like_system_against_the_oracle():
    # the staircase colength must match the rank-based Macaulay oracle,
    # which shares no code with the Buchberger engine
    gens = ("x0 + 2*x1 + 2*x2 - 1", "x0^2 + 2*x1^2 + 2*x2^2 - x0", "2*x0*x1 + 2*x1*x2 - x1")
    i1 = ideal(*gens)
    basis = i1.groebner_basis()
    assert basis.colength() == macaulay_colength(list(i1.generators))
    member = poly(gens[0]) * poly("x2^3 - 5") + poly(gens[2]) * poly("x0 - x1")
    assert not basis.normal_form(member)


# ---------------------------------------------------------------------------
# S-polynomials and division


def test_spoly_cancels_leads():
    f = poly("x0^2 + x1")
    g = poly("x0*x1 + x2")
    s = s_polynomial(f, g)
    # S = x1*f - x0*g kills the x0^2*x1 term
    assert s == poly("x1^2 - x0*x2")


def test_spoly_rejects_zero():
    with pytest.raises(ValueError):
        s_polynomial(poly("x0"), Polynomial(R3, {}))


def test_full_spoly_audit():
    for texts in [
        ("x0^2 + x1^2 - 1", "x0*x1 - 1"),
        ("x0^3 - x1", "x1^3 - x2", "x2^3 - x0"),
        ("x0^2 - x1*x2", "x1^2 - x0*x2", "x2^2 - x0*x1"),
    ]:
        basis = ideal(*texts).groebner_basis()
        assert audit_s_polynomials(basis)


def test_normal_form_properties():
    basis = ideal("x0^2 - x1", "x1^2 - x2").groebner_basis()
    f = poly("x0^4 + x0^2 + 7")
    r = basis.normal_form(f)
    # remainder supported outside the lead-monomial staircase
    leads = basis.lead_monomials()
    for mono in r.terms:
        assert not any(all(l <= m for l, m in zip(lm, mono)) for lm in leads)
    # f - r is in the ideal, and reduction is idempotent
    assert not basis.normal_form(f - r)
    assert basis.normal_form(r) == r
    # x0^4 = (x0^2)^2 -> x1^2 -> x2, so f reduces to x2 + x1 + 7
    assert r == poly("x2 + x1 + 7")


def test_normal_form_ring_mismatch():
    basis = ideal("x0^2 - x1", ring=R2).groebner_basis()
    with pytest.raises(ValueError):
        basis.normal_form(poly("x0", ring=R3))


# ---------------------------------------------------------------------------
# Staircase colengths


def test_colengths_of_complete_intersections():
    # colength of (x0^a, x1^b, x2^c) is a*b*c; Bezout for generic mixtures
    assert ideal("x0^2", "x1^3", "x2^4").groebner_basis().colength() == 24
    fermat = ideal("x0^2 - 1", "x1^2 - 2", "x2^2 - 3")
    assert fermat.groebner_basis().colength() == 8
    assert (
        ideal("x0^2 - x1", "x1^2 - x2", "x2^2 - x0").groebner_basis().colength()
        == 8
    )


def test_colength_infinite_for_positive_dimensional():
    basis = ideal("x0^2 - x1*x2").groebner_basis()
    assert basis.colength() == math.inf
    assert basis.quotient_monomials() is None


def test_quotient_monomials_structure():
    basis = ideal("x0^2", "x1^2", ring=R2).groebner_basis()
    assert set(basis.quotient_monomials()) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_staircase_is_enumerated_once_per_basis_and_shared_as_a_tuple():
    basis = ideal("x0^2 - 1", "x1^2 - 2", "x2^2 - 3").groebner_basis()
    reads = []
    lead_monomials = basis.lead_monomials
    basis.lead_monomials = lambda: reads.append(1) or lead_monomials()
    staircase = basis.quotient_monomials()
    assert isinstance(staircase, tuple) and len(staircase) == 8
    assert basis.colength() == 8
    assert squarefree_certificate(basis, seed=1)
    _, shared = multiplication_matrix(basis, poly("x0 + 2*x1 + 3*x2"))
    assert shared is staircase and basis.quotient_monomials() is staircase
    assert len(reads) == 1


# ---------------------------------------------------------------------------
# Radical membership


def test_radical_membership_detects_nilpotents():
    i1 = ideal("x0^2", ring=R2)
    assert radical_membership(poly("x0", ring=R2), i1)
    assert radical_membership(poly("x0^5 + x0^2", ring=R2), i1)
    assert not radical_membership(poly("x1", ring=R2), i1)
    assert not radical_membership(poly("x0 + x1", ring=R2), i1)


def test_radical_membership_zero_poly():
    assert radical_membership(Polynomial(R2, {}), ideal("x0", ring=R2))


# ---------------------------------------------------------------------------
# Multiplication matrices and the reducedness certificate


def test_multiplication_matrix_shape_and_trace():
    basis = ideal("x0^2 - 1", "x1^2 - 1", ring=R2).groebner_basis()
    matrix, staircase = multiplication_matrix(basis, poly("x0", ring=R2))
    assert len(staircase) == 4
    assert len(matrix) == 4 and all(len(row) == 4 for row in matrix)
    # mult-by-x0 on F[x0,x1]/(x0^2-1, x1^2-1) squares to the identity
    idx = {m: i for i, m in enumerate(staircase)}
    for mono in staircase:
        col = [matrix[r][idx[mono]] for r in range(4)]
        # x0 * mono lands on a single staircase monomial with coefficient 1
        assert sum(1 for c in col if c != 0) == 1


def test_multiplication_matrix_rejects_quadratic():
    basis = ideal("x0^2 - 1", ring=R2).groebner_basis()
    with pytest.raises(ValueError):
        multiplication_matrix(basis, poly("x0^2", ring=R2))


def test_certificate_accepts_reduced_points():
    # eight distinct points: (pm1, pm sqrt2, pm sqrt3) split over F_31991
    basis = ideal("x0^2 - 1", "x1^2 - 4", "x2^2 - 9").groebner_basis()
    assert squarefree_certificate(basis, seed=1)


def test_certificate_rejects_double_structure():
    basis = ideal("x0^2", "x1 - 1", "x2 - 1").groebner_basis()
    assert not squarefree_certificate(basis, seed=1)


def test_certificate_empty_quotient():
    basis = ideal("1").groebner_basis()
    assert squarefree_certificate(basis, seed=1)


def test_certificate_demands_prime_field_and_room():
    q_ring = Ring(2, QQ)
    basis = Ideal(q_ring, [parse_polynomial("x0^2 - 1", q_ring)]).groebner_basis()
    with pytest.raises(CertificateError):
        squarefree_certificate(basis, seed=1)
    tiny = Ring(2, PrimeField(3))
    crowded = Ideal(
        tiny, [parse_polynomial("x0^2 - 1", tiny), parse_polynomial("x1^2 - 1", tiny)]
    ).groebner_basis()
    with pytest.raises(CertificateError):
        squarefree_certificate(crowded, seed=1)


def test_certificate_infinite_quotient():
    basis = ideal("x0").groebner_basis()
    with pytest.raises(CertificateError):
        squarefree_certificate(basis, seed=1)


@pytest.mark.parametrize(
    "ell,want",
    [
        # a double point at the origin and a simple point at x0 = 1
        ("x0", 1),
        ("x0 - 1", 2),
        ("x0 + x2 - 2", 3),
        ("x1 + 1", 3),
        # a form vanishing at every point
        ("x1", 0),
    ],
)
def test_colength_where_unit_counts_the_points_off_the_form(ell, want):
    basis = ideal("x0^3 - x0^2", "x1", "x2").groebner_basis()
    assert basis.colength() == 3
    assert colength_where_unit(basis, poly(ell)) == want


def test_colength_where_unit_of_the_empty_quotient():
    assert colength_where_unit(ideal("1").groebner_basis(), poly("x0")) == 0


# ---------------------------------------------------------------------------
# Budgets


def test_pair_budget_raises():
    # leads share variables, so the coprime criterion cannot prune the pairs
    gens = ("x0^2 - x1*x2", "x1^2 - x0*x2", "x2^2 - x0*x1")
    with pytest.raises(ResourceBudgetError):
        Ideal(R3, [poly(t) for t in gens]).groebner_basis(pair_budget=1)


def test_coprime_leads_cost_no_pairs():
    # pairwise coprime leads: Buchberger's first criterion empties the queue
    gens = ("x0^3 - x1*x2", "x1^3 - x0*x2", "x2^3 - x0*x1")
    basis = Ideal(R3, [poly(t) for t in gens]).groebner_basis(pair_budget=0)
    assert len(basis) == 3


def test_budget_on_ideal_is_per_call():
    i1 = ideal("x0^2 - x1*x2", "x1^2 - x0*x2", "x2^2 - x0*x1")
    with pytest.raises(ResourceBudgetError):
        i1.groebner_basis(pair_budget=1)
    # a later unconstrained call on the same object still completes;
    # the variety contains the line x0 = x1 = x2, hence infinite colength
    basis = i1.groebner_basis()
    assert audit_s_polynomials(basis)
    assert basis.colength() == math.inf


# ---------------------------------------------------------------------------
# Property tests


@st.composite
def small_polys(draw):
    nterms = draw(st.integers(min_value=1, max_value=4))
    terms = {}
    for _ in range(nterms):
        mono = tuple(draw(st.integers(min_value=0, max_value=2)) for _ in range(3))
        coeff = draw(st.integers(min_value=1, max_value=31990))
        terms[mono] = coeff
    return Polynomial(R3, terms)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=1, max_value=10_000))
def test_membership_of_random_combinations(seed):
    i1 = ideal("x0^2 - x1", "x1*x2 - 1")
    basis = i1.groebner_basis()
    a = random_form(R3, 2, seed, "comb-a")
    b = random_form(R3, 1, seed, "comb-b")
    combo = a * i1.generators[0] + b * i1.generators[1]
    assert not basis.normal_form(combo)


@settings(max_examples=25, deadline=None)
@given(f=small_polys(), g=small_polys())
def test_normal_form_is_linear_and_idempotent(f, g):
    basis = ideal("x0^2 - x1", "x1^2 - x2", "x2^2 - x0").groebner_basis()
    rf = basis.normal_form(f)
    rg = basis.normal_form(g)
    assert basis.normal_form(f + g) == rf + rg
    assert basis.normal_form(rf) == rf
    assert not basis.normal_form(f - rf)


# ---------------------------------------------------------------------------
# Packed monomial keys, against the tuple functions of polynomials


@st.composite
def monomials(draw, nvars, degree_cap=DEGREE_LIMIT - 1):
    """An exponent tuple in nvars variables of total degree at most degree_cap."""
    degree = draw(st.integers(min_value=0, max_value=degree_cap))
    cuts = sorted(draw(st.integers(min_value=0, max_value=degree)) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


@st.composite
def monomial_pairs(draw, product_fits=False):
    """(nvars, a, b) with b often a multiple of a; with product_fits,
    deg(a) + deg(b) stays below the degree limit."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    # low degrees make divisibility and equal keys common
    cap = draw(st.sampled_from([40, DEGREE_LIMIT - 1]))
    a = draw(monomials(nvars, cap // 2 if product_fits else cap))
    if draw(st.booleans()):
        room = cap - sum(a) * (2 if product_fits else 1)
        return nvars, a, tuple(map(add, a, draw(monomials(nvars, room))))
    return nvars, a, draw(monomials(nvars, cap - sum(a) if product_fits else cap))


@settings(max_examples=300, deadline=None)
@given(pair=monomial_pairs())
def test_packed_keys_decode_and_order_as_grevlex(pair):
    nvars, a, b = pair
    packing = Packing(nvars)
    ka, kb = packing.encode(a), packing.encode(b)
    assert packing.decode(ka) == a and packing.decode(kb) == b
    assert (ka < kb) == (grevlex_key(a) < grevlex_key(b))
    assert (ka == kb) == (a == b)


@settings(max_examples=300, deadline=None)
@given(pair=monomial_pairs(product_fits=True))
def test_packed_keys_add_under_products(pair):
    nvars, a, b = pair
    packing = Packing(nvars)
    ring = Ring(nvars, F)
    (product,) = (Polynomial(ring, {a: 1}) * Polynomial(ring, {b: 1})).terms
    assert packing.encode(a) + packing.encode(b) == packing.encode(product)


@settings(max_examples=300, deadline=None)
@given(pair=monomial_pairs())
# a borrow out of the first field, and one that runs through several
@example(pair=(3, (1, 0, 0), (0, 1, 0)))
@example(pair=(4, (1, 0, 0, 0), (0, 0, 0, 1)))
@example(pair=(3, (0, 1, 0), (5, 0, 1)))
@example(pair=(2, (DEGREE_LIMIT - 1, 0), (0, DEGREE_LIMIT - 1)))
def test_packed_guard_test_is_divisibility(pair):
    nvars, a, b = pair
    packing = Packing(nvars)
    for x, y in ((a, b), (b, a)):
        difference = packing.encode(y) - packing.encode(x)
        assert (not difference & packing.guard) == mono_divides(x, y)
        if mono_divides(x, y):
            assert difference == packing.encode(tuple(map(sub, y, x)))


def test_packed_keys_stop_at_the_degree_limit():
    top = DEGREE_LIMIT - 1
    assert top == 2**15 - 1
    r1 = Ring(1, F)
    basis = Ideal(r1, [Polynomial(r1, {(top,): 1, (0,): 1})]).groebner_basis()
    assert basis.lead_monomials() == [(top,)] and basis.colength() == top
    with pytest.raises(ResourceBudgetError, match=f"limit of {top}"):
        Ideal(r1, [Polynomial(r1, {(top + 1,): 1})]).groebner_basis()
    with pytest.raises(ResourceBudgetError, match=f"limit of {top}"):
        Packing(3).encode((top, 1, 0))
    # an lcm past the limit: x0^(2^14) x1 and x0 x1^(2^14) share variables
    half = DEGREE_LIMIT // 2
    with pytest.raises(ResourceBudgetError, match=f"degree {DEGREE_LIMIT} exceeds"):
        ideal(f"x0^{half}*x1", f"x0*x1^{half}", ring=R2).groebner_basis()


# ---------------------------------------------------------------------------
# Regression pins, frozen from the tuple-monomial engine this one replaced

CHART_A_TYPES = {
    "22": (4, 0, (2, 2)),
    "13": (4, 1, (1, 3)),
    "1111": (4, 1, (1, 1, 1, 1)),
    "113": (5, 0, (1, 1, 3)),
    "11111": (5, 0, (1, 1, 1, 1, 1)),
    "111111": (6, 1, (1,) * 6),
    "1111111": (7, 0, (1,) * 7),
}


def chart_a_ideal(name, seed):
    """The chart-a Jacobian ideal of a seeded matrix, as count_nodes builds it."""
    d, delta, degrees = CHART_A_TYPES[name]
    matrix = SymmetricFormMatrix.random(DegreeType(d, delta, degrees), F, seed=seed)
    chart = random_invertible_matrix(F, 4, seed, "chart-a")
    return affine_jacobian_ideal(surface_from_matrix(matrix), chart)


def basis_digest(basis):
    return hashlib.sha256(repr([sorted(g.terms.items()) for g in basis]).encode()).hexdigest()


BASIS_DIGESTS = [
    ("22-s1", "ecc79bd03e5ae14ad802e7c8655b2d97bc350c1f0cb97533c186774a6f1a1f27"),
    ("22-s2", "38aaee4c8b32cca75806dd9937512368e26305f1726334d70e7745587b7d45fa"),
    ("22-s3", "baff1b0483238d5f89fbdeb0d7dc520543cba2881a98653f0c142490c5c8c365"),
    ("13-s1", "07ebadc01bde41faf8df88fc543859c7ed1172062e39a2a81405e6af04b3e3ae"),
    ("13-s2", "4e2d9f40a7657cd4d300d4cbfd4960ed155763df7546ad40ab0dfe43f363910b"),
    ("13-s3", "9e85cbd1f092d8a149c23201f64c7e21fb91af47d6c0a6e7fd34c249b6b6288a"),
    ("1111-s1", "5b056ab06377a522b4234f202e1bc2eae360983778087f58b6c77d3cec95e8bc"),
    ("1111-s2", "e5bc7a0eddadaa11a11810f62fc55410084bb2fcac9ca5a532572ba71d0941a4"),
    ("1111-s3", "9171167e257a0ccd6c36e20501b52f328f92f23a25eab440e18807d3fdcefced"),
    ("113-s1", "b0a91fc2712ac9447dfb2573ac3bbe8c77a84fc426e4f335c15f07f927de746b"),
    ("113-s2", "387a9eba261e38885965e8214ef0e5978f3955160c59273a923237489e4fcba9"),
    ("113-s3", "2d2ae92787c4e61aeab166ff759e1f5ef041793e8a9083c0addc47db6f74510f"),
    ("11111-s1", "d2f1a1559eb7a30db244766defb521e24e357a573267749b1f2ae204f1c7a097"),
    ("11111-s2", "3879d4c4a8261a1700443885c12beb84f1ed5896b678e6340781faa11a8bb2b6"),
    ("11111-s3", "877802db4900e24d77554056cb3f5afe9b436fe416ae8c1fd7e82fe0454fd078"),
    ("111111-s1", "59cba232a2fe98383ef31c4c16a226a97a892994894519cdcaeb036d9db79351"),
    ("111111-s2", "d601e25231514988236c8a97d71935e56aa999e7aafb54720c6622568a81d46d"),
    ("1111111-s1", "76662c833657d7a631e7122c00c6c87b0e60bf9fb1d359bb95f27f5e38a93492"),
    ("1111111-s2", "ff64754752957b105b0e2647682106961905919acbb06c72d82cb51b172793c3"),
]


@pytest.mark.parametrize("case,digest", BASIS_DIGESTS, ids=[c for c, _ in BASIS_DIGESTS])
def test_chart_a_bases_are_pinned(case, digest):
    name, seed = case.split("-s")
    basis = chart_a_ideal(name, int(seed)).groebner_basis()
    assert basis_digest(basis) == digest
    assert audit_s_polynomials(basis)


def test_rational_basis_is_pinned():
    q3 = Ring(3, QQ)
    gens = ("x0^2 + 2*x1^2 + 2*x2^2 - x0", "2*x0*x1 + 2*x1*x2 - x1", "x0 + 2*x1 + 2*x2 - 1")
    basis = Ideal(q3, [parse_polynomial(t, q3) for t in gens]).groebner_basis()
    digest = "ca8fa83659323e07a85ba153e281b08d9764c34213a6d2bfbecd80e95a5fa88b"
    assert basis_digest(basis) == digest
    assert audit_s_polynomials(basis)


def test_radical_membership_basis_is_pinned(monkeypatch):
    bases = []
    basis_of = Ideal.groebner_basis

    def recorded(ideal, **kwargs):
        bases.append(basis_of(ideal, **kwargs))
        return bases[-1]

    monkeypatch.setattr(Ideal, "groebner_basis", recorded)
    # x0 - 1 vanishes on half of the eight points, so 1 is not in I + (t f - 1)
    points = ideal("x0^2 - 1", "x1^2 - x0", "x2^2 - x1")
    assert not radical_membership(poly("x0 - 1"), points)
    (basis,) = bases
    assert basis.ring.nvars == 4
    digest = "ae5a25a3c9d35ca5dbda70af0d7e78697d94d8743cc4a610b04bc1827296b409"
    assert basis_digest(basis) == digest


@pytest.mark.parametrize(
    "name,pairs", [("22", 33), ("13", 33), ("1111", 28), ("113", 64), ("11111", 59)]
)
def test_pair_order_is_pinned_by_the_smallest_budget(name, pairs):
    # the processed-pair count of a seed-1 chart-a basis depends on the
    # order the pairs are taken in
    ideal = chart_a_ideal(name, 1)
    ideal.groebner_basis(pair_budget=pairs)
    with pytest.raises(ResourceBudgetError, match=rf"\({pairs} pairs processed\)"):
        ideal.groebner_basis(pair_budget=pairs - 1)


def test_basis_frees_retired_elements():
    # the loop makes 121 elements for a final basis of 28; holding them
    # all took 1.8 MB at the peak, the live ones about 0.55 MB
    ideal = chart_a_ideal("1111111", 1)
    tracemalloc.start()
    try:
        ideal.groebner_basis()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20
