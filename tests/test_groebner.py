"""Buchberger engine: reduced bases, division, radical membership, certificates.

Expected colengths for the complete intersections below are the Bezout
products of the generator degrees, checked independently against the
rank-based oracle in test_macaulay.py.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetroids.fields import QQ, PrimeField
from symmetroids.groebner import (
    CertificateError,
    Ideal,
    ResourceBudgetError,
    audit_s_polynomials,
    multiplication_matrix,
    radical_membership,
    s_polynomial,
    squarefree_certificate,
)
from symmetroids.macaulay import macaulay_colength
from symmetroids.polynomials import Polynomial, Ring, grevlex_key, parse_polynomial
from symmetroids.randomness import random_form

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
