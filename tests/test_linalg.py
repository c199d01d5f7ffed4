"""Exact linear algebra mod p and over the rationals."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symmetroids import linalg
from symmetroids.linalg import (
    PANEL_ROWS,
    char_poly_mod_p,
    det_over_field,
    poly_gcd_mod_p,
    rank_mod_p,
    rank_over_field,
    squarefree_univariate_mod_p,
)
from symmetroids.fields import QQ, PrimeField


def test_rank_mod_p_known():
    p = 31991
    assert rank_mod_p([[1, 2], [2, 4]], p) == 1
    assert rank_mod_p([[1, 0], [0, 1]], p) == 2
    assert rank_mod_p([[0, 0], [0, 0]], p) == 0
    # rank drops only modulo 5
    m = [[1, 2], [3, 11]]
    assert rank_mod_p(m, 5) == 1
    assert rank_mod_p(m, 7) == 2


def test_char_poly_known_matrices():
    p = 31991
    # diag(2, 3): x^2 - 5x + 6
    assert char_poly_mod_p([[2, 0], [0, 3]], p) == [1, p - 5, 6]
    # nilpotent: x^2
    assert char_poly_mod_p([[0, 1], [0, 0]], p) == [1, 0, 0]
    # companion matrix of x^3 - 2x - 5
    c = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert char_poly_mod_p(c, p) == [1, 0, p - 2, p - 5]


def test_char_poly_needs_large_p():
    with pytest.raises(ValueError):
        char_poly_mod_p([[0] * 7 for _ in range(7)], 7)


def test_poly_gcd_and_squarefree():
    p = 31991
    # (x-1)^2 (x-2) has gcd (x-1) with its derivative
    f = [1, p - 4, 5, p - 2]
    g = poly_gcd_mod_p(f, [3, p - 8, 5], p)
    assert g == [1, p - 1]
    assert not squarefree_univariate_mod_p(f, p)
    assert squarefree_univariate_mod_p([1, 0, p - 2], p)  # x^2 - 2
    assert squarefree_univariate_mod_p([1, 5], p)
    assert squarefree_univariate_mod_p([1], p)


def test_rank_rational():
    m = [
        [Fraction(1, 2), Fraction(1, 3)],
        [Fraction(3, 2), Fraction(1)],
    ]
    assert rank_over_field(m, QQ) == 1
    assert rank_over_field([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], QQ) == 2
    assert rank_over_field([], QQ) == 0


def test_rank_and_det_over_field_dispatch():
    f7 = PrimeField(7)
    assert rank_over_field([[3, 1], [6, 2]], f7) == 1
    assert rank_over_field([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], QQ) == 1
    assert det_over_field([[1, 2], [3, 4]], f7) == (4 - 6) % 7
    assert det_over_field(
        [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(3)]], QQ
    ) == Fraction(1, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=100), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_char_poly_trace_det_consistency(rows):
    p = 31991
    coeffs = char_poly_mod_p(rows, p)
    assert len(coeffs) == 4 and coeffs[0] == 1
    trace = sum(rows[i][i] for i in range(3)) % p
    assert coeffs[1] == (-trace) % p
    det = int(round(float(np.linalg.det(np.array(rows, dtype=float)))))
    assert coeffs[3] == (-det) % p


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=31990), min_size=4, max_size=4),
        min_size=2,
        max_size=6,
    )
)
def test_rank_bounds(rows):
    p = 31991
    r = rank_mod_p(rows, p)
    assert 0 <= r <= min(len(rows), 4)


# -- the forward chain against pure-Python references ----------------------

# Dot products of n residues stay exact in float64 while
# n * (p - 1)^2 + p < 2^53.  For n = 72 these two primes sit on either
# side of that bound, so the same shapes run once on int64 panels with
# float64 products and entries just under 2^53, and once on Python ints.
BOUND_N = 72
PRIME_BELOW_BOUND = 11184799
PRIME_ABOVE_BOUND = 11184829


def rref_reference(rows, p):
    """(nonzero RREF rows, pivot columns) by textbook Gauss-Jordan on ints."""
    m = [[v % p for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
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
    return m[: len(pivots)], pivots


def char_poly_reference(rows, p):
    """Faddeev-LeVerrier on Python ints."""
    n = len(rows)
    m = [[0] * n for _ in range(n)]
    c = 1
    coeffs = [1]
    for k in range(1, n + 1):
        shifted = [[(m[i][j] + (c if i == j else 0)) % p for j in range(n)] for i in range(n)]
        m = [
            [sum(rows[i][l] * shifted[l][j] for l in range(n)) % p for j in range(n)]
            for i in range(n)
        ]
        c = (-sum(m[i][i] for i in range(n)) * pow(k, -1, p)) % p
        coeffs.append(c)
    return coeffs


def random_matrix(seed, rows, cols, rank, p, density=1.0):
    """rows x cols over F_p of rank <= `rank`, then with entries zeroed at random."""
    rng = random.Random(seed)
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    out = []
    for i in range(rows):
        row = [sum(left[i][k] * right[k][j] for k in range(rank)) % p for j in range(cols)]
        out.append([v if rng.random() < density else 0 for v in row])
    return out


def check_against_reference(rows, p):
    _, want_pivots = rref_reference(rows, p)
    assert rank_mod_p(rows, p) == len(want_pivots)
    # the panels find their pivot columns out of order, but the set is the RREF's
    assert sorted(j for _, j in linalg._forward_chain(rows, p)[0]) == want_pivots


shape_cases = st.tuples(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=1, max_value=90),
    st.integers(min_value=0, max_value=90),
    st.sampled_from([1.0, 0.3, 0.04]),
)


@settings(max_examples=25, deadline=None)
@given(shape_cases, st.sampled_from([5, 31991, 2**61 - 1]))
def test_echelon_matches_reference(case, p):
    seed, rows, cols, rank, density = case
    matrix = random_matrix(seed, rows, cols, min(rank, rows, cols), p, density)
    check_against_reference(matrix, p)


@settings(max_examples=6, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([(72, 72), (130, 72), (72, 100)]),
    st.sampled_from([PRIME_BELOW_BOUND, PRIME_ABOVE_BOUND]),
)
def test_echelon_on_both_sides_of_float_bound(seed, shape, p):
    PrimeField(p)
    assert (BOUND_N * (p - 1) ** 2 + p < 2**53) == (p == PRIME_BELOW_BOUND)
    rows, cols = shape
    assert min(rows, cols) == BOUND_N and rows > PANEL_ROWS
    rank = random.Random(seed).choice([BOUND_N, BOUND_N - 5])
    check_against_reference(random_matrix(seed, rows, cols, rank, p), p)


def multi_panel_matrix(seed, rows, cols, rank, p, zero_cols):
    """A matrix over at least three panels whose second panel adds no pivot.

    The second panel's rows are combinations of two rows of the first,
    and `zero_cols` random columns are zero throughout.
    """
    m = random_matrix(seed, rows, cols, rank, p)
    rng = random.Random(seed)
    for i in range(PANEL_ROWS, 2 * PANEL_ROWS):
        a, b = rng.sample(m[:PANEL_ROWS], 2)
        s, t = rng.randrange(p), rng.randrange(p)
        m[i] = [(s * x + t * y) % p for x, y in zip(a, b)]
    for j in rng.sample(range(cols), zero_cols):
        for row in m:
            row[j] = 0
    return m


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2 * PANEL_ROWS + 1, max_value=200),
    st.integers(min_value=66, max_value=100),
    st.integers(min_value=40, max_value=100),
    st.integers(min_value=0, max_value=5),
    st.sampled_from([31991, 2**61 - 1]),
)
# rank is clamped to cols = 66 and two zeroed columns leave rank <= 64 =
# PANEL_ROWS, so a single chain step is correct here
@example(seed=0, rows=129, cols=66, rank=67, zero_cols=2, p=31991)
def test_forward_chain_over_several_panels(seed, rows, cols, rank, zero_cols, p):
    matrix = multi_panel_matrix(seed, rows, cols, min(rank, cols), p, zero_cols)
    _, chain = linalg._forward_chain(matrix, p)
    if min(rank, cols) > PANEL_ROWS + zero_cols:
        # each zeroed column costs at most one pivot, so the rank exceeds
        # PANEL_ROWS; the first panel has at most PANEL_ROWS pivots, so a
        # later one adds more
        assert len(chain) >= 2
    check_against_reference(matrix, p)


@settings(max_examples=4, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([PRIME_BELOW_BOUND, PRIME_ABOVE_BOUND]),
)
def test_forward_chain_on_both_sides_of_float_bound(seed, p):
    # min(rows, cols) = 72 sits on the bound; rank 72 needs pivots from
    # the first and the third panel, so two chain steps reduce panel three
    matrix = multi_panel_matrix(seed, 3 * PANEL_ROWS + 10, BOUND_N, BOUND_N, p, 0)
    _, chain = linalg._forward_chain(matrix, p)
    assert len(chain) == 2
    check_against_reference(matrix, p)


# -- the pivot list gives the rank of every leading submatrix -------------


def column_profile_reference(rows, p=None):
    """Pivot columns of textbook column-by-column forward elimination.

    Over F_p, or over Q when p is None.  The elimination of the first C
    columns is that of rows[:, :C], so the pivots below C number its rank.
    """
    m = [[Fraction(v) if p is None else v % p for v in row] for row in rows]
    ncols = len(m[0]) if m else 0
    out = []
    for col in range(ncols):
        r = len(out)
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r][col:]
        inv = 1 / top[0] if p is None else pow(top[0], -1, p)
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] * inv
                tail = [a - f * b for a, b in zip(m[i][col:], top)]
                m[i][col:] = tail if p is None else [v % p for v in tail]
        out.append(col)
    return out


def planted_rank_matrix(seed, rows, cols, rank, zero_cols, field):
    """A product through `rank` columns, with `zero_cols` columns zeroed.

    Entries are residues over F_p and small integers over Q.
    """
    rng = random.Random(seed)
    low, high = (0, field.p) if isinstance(field, PrimeField) else (-3, 4)
    left = [[rng.randrange(low, high) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(low, high) for _ in range(cols)] for _ in range(rank)]
    zero = set(rng.sample(range(cols), zero_cols))
    return [
        [0 if j in zero else field.normalize(sum(x * y[j] for x, y in zip(row, right)))
         for j in range(cols)]
        for row in left
    ]


@pytest.mark.parametrize(
    "field", [PrimeField(31991), PrimeField(2**61 - 1), QQ], ids=["float64", "object", "Q"]
)
@settings(max_examples=4, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2 * PANEL_ROWS + 1, max_value=200),
    st.data(),
)
def test_pivots_count_the_rank_of_every_leading_submatrix(field, seed, rows, data):
    # rank < cols leaves a free column, so all three or more panels run
    prime = isinstance(field, PrimeField)
    cols = data.draw(st.integers(min_value=66, max_value=80) if prime else st.integers(4, 16))
    rank = data.draw(st.integers(min_value=1, max_value=cols - 1))
    zero_cols = data.draw(st.integers(min_value=0, max_value=min(5, cols - 1)))
    matrix = planted_rank_matrix(seed, rows, cols, rank, zero_cols, field)
    pivots = linalg.pivots_det_over_field(matrix, field)[0]
    assert rank_over_field(matrix, field) == len(pivots)
    if prime:
        # the blocked kernel finds the same pairs as the plain elimination
        assert linalg.pivots_mod_p(matrix, field.p) == pivots
        assert rank_mod_p(matrix, field.p) == len(pivots)
    cuts = {0, 1, PANEL_ROWS, PANEL_ROWS + 1, 2 * PANEL_ROWS, rows}
    cuts.add(random.Random(seed).randrange(rows))
    for r in sorted(cuts):
        profile = column_profile_reference(matrix[:r], field.p if prime else None)
        for c in range(cols + 1):
            want = sum(j < c for j in profile)
            assert sum(i < r and j < c for i, j in pivots) == want, (r, c)


def test_rank_exact_for_primes_near_two_to_the_61():
    # (p-1)^2 overflows int64; row 2 is 2 * row 1 mod p
    p = 2**61 - 1
    assert rank_mod_p([[3, p - 1], [6, p - 2]], p) == 1
    assert rank_mod_p([[3, p - 1], [6, p - 3]], p) == 2


def test_rank_exact_where_one_product_leaves_float64():
    # (p-1)^2 = 1 mod p, but (p-1)^2 itself is about 2^62
    p = 2**31 - 1
    assert rank_mod_p([[1, p - 1], [p - 1, 1]], p) == 1


def test_char_poly_exact_for_p_two_to_the_31_minus_one():
    p = 2**31 - 1
    rng = random.Random(8)
    rows = [[rng.randrange(p) for _ in range(8)] for _ in range(8)]
    assert char_poly_mod_p(rows, p) == char_poly_reference(rows, p)


# -- the small-matrix elimination against its definitions -----------------

F7 = PrimeField(7)
F31991 = PrimeField(31991)


def leibniz_det(rows, field):
    """The determinant as the signed sum over permutations."""
    total = field.zero
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        term = field.neg(field.one) if inversions % 2 else field.one
        for i, j in enumerate(perm):
            term = field.mul(term, field.normalize(rows[i][j]))
        total = field.add(total, term)
    return total


def minor_rank(rows):
    """Rank over Q as the size of the largest nonzero minor."""
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for rs in combinations(range(nrows), k):
            for cs in combinations(range(ncols), k):
                if leibniz_det([[rows[r][c] for c in cs] for r in rs], QQ):
                    return k
    return 0


def entries(field):
    if field is QQ:
        return st.builds(
            Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)
        )
    # small values make singular matrices common; large ones cover the field
    return st.integers(min_value=0, max_value=2) | st.integers(min_value=0, max_value=field.p - 1)


@st.composite
def square_cases(draw):
    field = draw(st.sampled_from([F7, F31991, QQ]))
    n = draw(st.integers(min_value=0, max_value=5))
    rows = draw(
        st.lists(st.lists(entries(field), min_size=n, max_size=n), min_size=n, max_size=n)
    )
    return field, rows


@st.composite
def rational_cases(draw):
    """Up to 4x5 over Q; about half are products through a narrower middle."""
    nrows = draw(st.integers(min_value=1, max_value=4))
    ncols = draw(st.integers(min_value=1, max_value=5))
    entry = entries(QQ)
    if draw(st.booleans()):
        return draw(
            st.lists(
                st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
            )
        )
    k = draw(st.integers(min_value=1, max_value=3))
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=nrows, max_size=nrows))
    right = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=k, max_size=k))
    return [
        [sum(left[i][l] * right[l][j] for l in range(k)) for j in range(ncols)]
        for i in range(nrows)
    ]


@settings(max_examples=150, deadline=None)
@given(square_cases())
def test_det_over_field_matches_leibniz(case):
    field, rows = case
    want = leibniz_det(rows, field)
    assert det_over_field(rows, field) == want
    assert (rank_over_field(rows, field) == len(rows)) == bool(want)


@settings(max_examples=150, deadline=None)
@given(rational_cases())
def test_rank_rational_matches_largest_nonzero_minor(rows):
    assert rank_over_field(rows, QQ) == minor_rank(rows)
