"""Rank-matrix assembly: the numpy builders against term-by-term fills.

`cohomology._degree_piece_matrix` and `macaulay._macaulay_matrix` locate
every shifted monomial by integer grevlex codes.  The references below
fill the same matrices the direct way, one monomial tuple and one dict
lookup per term, and the matrices must agree entry for entry (over a
prime field: dtype, shape and bytes).
"""

from fractions import Fraction

import numpy as np
import pytest

from symmetroids import cohomology, linalg, macaulay
from symmetroids.cli import main
from symmetroids.cohomology import (
    GradedPresentation,
    hilbert_function_coker,
    plane_section_presentation,
    surface_presentation,
)
from symmetroids.fields import QQ, PrimeField
from symmetroids.macaulay import macaulay_colength
from symmetroids.matrices import DegreeType, SymmetricFormMatrix, surface_from_matrix
from symmetroids.nodes import affine_jacobian_ideal
from symmetroids.polynomials import (
    Polynomial,
    Ring,
    monomial_array,
    monomials_of_degree,
    monomials_up_to_degree,
    parse_polynomial,
    shift_positions,
)
from symmetroids.randomness import random_invertible_matrix
from symmetroids.scenarios import load_fixture_surface, load_manifest, type_matrix

F = PrimeField(31991)

# The five manifest degree types, the 6x6 linear symmetroid, and a type
# whose negative-degree entries are zero.
TYPES = [
    (4, 0, (2, 2)),
    (4, 1, (1, 3)),
    (4, 1, (1, 1, 1, 1)),
    (5, 0, (1, 1, 3)),
    (5, 0, (1, 1, 1, 1, 1)),
    (6, 1, (1,) * 6),
    (4, 1, (-1, 1, 1, 3)),
]


def reference_degree_piece(pres, m):
    """The block matrix of phi in degree m, filled one term at a time."""
    dt = pres.degree_type
    n = pres.n
    row_monos = [monomials_of_degree(n, m - ri) for ri in dt.target_twists]
    col_monos = [monomials_of_degree(n, m - lj) for lj in dt.source_twists]
    total_rows = sum(len(b) for b in row_monos)
    total_cols = sum(len(b) for b in col_monos)
    row_offset, row_index, acc = [], [], 0
    for block in row_monos:
        row_offset.append(acc)
        row_index.append({mono: k for k, mono in enumerate(block)})
        acc += len(block)
    prime = isinstance(pres.ring.field, PrimeField)
    if prime:
        matrix = np.zeros((total_rows, total_cols), dtype=np.int64)
    else:
        matrix = [[Fraction(0)] * total_cols for _ in range(total_rows)]
    col = 0
    for j, block in enumerate(col_monos):
        for mono in block:
            for i in range(dt.h):
                entry = pres.entries[i][j]
                for em, ec in entry.terms.items():
                    target = tuple(x + y for x, y in zip(em, mono))
                    matrix[row_offset[i] + row_index[i][target]][col] = ec
            col += 1
    return np.array(matrix, dtype=object).reshape(total_rows, total_cols) if not prime else matrix


def reference_macaulay(generators, nvars, M, field):
    """Rows x^a * g_i of degree <= M, filled one term at a time."""
    columns = monomials_up_to_degree(nvars, M)
    col_index = {mono: i for i, mono in enumerate(columns)}
    rows = []
    for g in generators:
        room = M - g.degree()
        if room < 0:
            continue
        for mult in monomials_up_to_degree(nvars, room):
            row = [0] * len(columns)
            for mono, c in g.terms.items():
                row[col_index[tuple(x + y for x, y in zip(mono, mult))]] = c
            rows.append(row)
    dtype = np.int64 if isinstance(field, PrimeField) else object
    return np.array(rows, dtype=dtype).reshape(len(rows), len(columns))


def in_elimination_order(generators, nvars, M, reference):
    """The reference fill permuted into `_macaulay_matrix`'s documented order.

    Rows stably by the total degree of x^a * g_i, columns by descending
    grevlex (the reverse of monomials_up_to_degree).
    """
    totals = [
        g.degree() + sum(mult)
        for g in generators
        if g.degree() <= M
        for mult in monomials_up_to_degree(nvars, M - g.degree())
    ]
    order = sorted(range(len(totals)), key=totals.__getitem__)
    return reference[order][:, ::-1]


def assert_same_matrix(got, want):
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    if got.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


def presentations(d, delta, degrees, field):
    matrix = SymmetricFormMatrix.random(DegreeType(d, delta, degrees), field, seed=2)
    return [surface_presentation(matrix), plane_section_presentation(matrix, seed=2)]


def twists(dt):
    """From below every block (all empty) to a few twists past the largest."""
    lo = min(dt.target_twists + dt.source_twists) - 1
    hi = max(dt.target_twists + dt.source_twists) + 2
    return range(lo, hi + 1)


@pytest.mark.parametrize("field", [F, QQ], ids=["F31991", "Q"])
@pytest.mark.parametrize("d, delta, degrees", TYPES, ids=[str(t[2]) for t in TYPES])
def test_degree_piece_matrix_matches_term_by_term_fill(d, delta, degrees, field):
    dt = DegreeType(d, delta, degrees)
    shapes = set()
    for pres in presentations(d, delta, degrees, field):
        for m in twists(dt):
            got = cohomology._degree_piece_matrix(pres, m)
            assert_same_matrix(got, reference_degree_piece(pres, m))
            shapes.add((got.shape[0] > 0, got.shape[1] > 0))
    # empty row blocks and empty column blocks both occur
    assert {(False, False), (True, False), (True, True)} <= shapes


@pytest.mark.parametrize("field", [F, QQ], ids=["F31991", "Q"])
def test_degree_piece_matrix_with_zero_entries(field):
    d, delta, degrees = 4, 1, (1, 1, 1, 1)
    pres = presentations(d, delta, degrees, field)[0]
    zero = Polynomial.zero(pres.ring)
    entries = [list(row) for row in pres.entries]
    entries[0][1] = entries[1][0] = zero
    entries[2][2] = zero
    pres = GradedPresentation(pres.degree_type, pres.ring, tuple(map(tuple, entries)))
    for m in range(-2, 5):
        got = cohomology._degree_piece_matrix(pres, m)
        assert_same_matrix(got, reference_degree_piece(pres, m))


def cayley_ideal():
    cubic = load_fixture_surface("cayley_cubic.json")
    seed = load_manifest()["scenarios"]["cayley-cubic"]["seeds"][0]
    chart = random_invertible_matrix(cubic.ring.field, 4, seed, "chart-a")
    return list(affine_jacobian_ideal(cubic, chart).generators)


def quartic_ideal():
    spec = surface_from_matrix(type_matrix(4, 1, (1, 3), F, 1))
    chart = random_invertible_matrix(F, 4, 1, "chart-a")
    return list(affine_jacobian_ideal(spec, chart).generators)


def rational_ideal():
    ring = Ring(2, QQ)
    return [parse_polynomial(t, ring) for t in ("x0^2 - 1/2*x1", "x1^3 - 3/7*x0 + 2")]


@pytest.mark.parametrize(
    "ideal, degrees",
    [(cayley_ideal, (1, 2, 3, 6)), (quartic_ideal, (2, 3, 4, 9)), (rational_ideal, (2, 4, 6))],
    ids=["cayley", "quartic(1,3)", "rational"],
)
def test_macaulay_matrix_matches_term_by_term_fill(ideal, degrees):
    gens = ideal()
    ring = gens[0].ring
    # below the largest generator degree some generators have no rows
    assert min(degrees) < max(g.degree() for g in gens)
    for M in degrees:
        got = macaulay._macaulay_matrix(gens, ring.nvars, M, ring.field)
        want = reference_macaulay(gens, ring.nvars, M, ring.field)
        assert_same_matrix(got, in_elimination_order(gens, ring.nvars, M, want))


def reference_rank(a, field):
    if not a.size:
        return 0
    if isinstance(field, PrimeField):
        return linalg.rank_mod_p(a, field.p)
    return linalg.rank_over_field(a, field)


@pytest.mark.parametrize(
    "ideal",
    [cayley_ideal, quartic_ideal, rational_ideal],
    ids=["cayley", "quartic(1,3)", "rational"],
)
def test_every_dimension_reads_off_one_pivot_list(ideal):
    # dim(m, M) = n_low - rank A_M + rank A_M[:, deg > m] for every
    # m <= M <= top, with A_M built on its own and ranked whole, against
    # the count over the pivots of the one elimination of A_top
    gens = ideal()
    ring = gens[0].ring
    n, field = ring.nvars, ring.field
    top = 3 * max(g.degree() for g in gens) + 1
    elimination = macaulay._Elimination(gens, n, field, top)
    for M in range(top + 1):
        a = reference_macaulay(gens, n, M, field)
        rank_full = reference_rank(a, field)
        for m in range(M + 1):
            n_low = len(monomials_up_to_degree(n, m))
            want = n_low - rank_full + reference_rank(a[:, n_low:], field)
            assert elimination.dimension(m, M) == want, (m, M)
    assert elimination.top == top


def test_monomial_arrays_follow_the_monomial_lists():
    for nvars, degree in [(1, 0), (2, 5), (3, 7), (4, 6)]:
        assert monomial_array(nvars, degree).tolist() == [
            list(e) for e in monomials_of_degree(nvars, degree)
        ]
        assert monomial_array(nvars, degree, up_to=True).tolist() == [
            list(e) for e in monomials_up_to_degree(nvars, degree)
        ]
    assert monomial_array(3, -1).shape == (0, 3)
    assert monomial_array(4, 5) is monomial_array(4, 5)
    assert not monomial_array(4, 5).flags.writeable


def test_shift_positions_uses_python_int_codes_when_int64_would_overflow():
    # 40 variables up to degree 2: the codes reach 2 * 3^40 > 2^63
    ring = Ring(40, F)
    poly = Polynomial.variable(ring, 0) + Polynomial.variable(ring, 39).scale(5)
    shifts = monomial_array(40, 1, up_to=True)
    positions, coefficients = shift_positions(poly, shifts, 2, up_to=True)
    index = {mono: k for k, mono in enumerate(monomials_up_to_degree(40, 2))}
    for s, (mono, c) in enumerate(poly.terms.items()):
        assert coefficients[s] == c
        for k, shift in enumerate(shifts.tolist()):
            assert positions[s, k] == index[tuple(a + b for a, b in zip(mono, shift))]


# -- the kernel calls stay where the benchmark's spans look for them -------


def test_rank_calls_go_through_the_callers_module_globals(monkeypatch):
    # cohomology ranks through its own rank_mod_p; macaulay eliminates
    # once, through its own pivots_mod_p
    calls = {"cohomology": 0, "macaulay": 0}

    def counting(name, kernel):
        def counted(a, p):
            calls[name] += 1
            return kernel(a, p)

        return counted

    def refuse(a, p):
        raise AssertionError("kernel reached through the linalg module global")

    monkeypatch.setattr(cohomology, "rank_mod_p", counting("cohomology", cohomology.rank_mod_p))
    monkeypatch.setattr(macaulay, "pivots_mod_p", counting("macaulay", macaulay.pivots_mod_p))
    monkeypatch.setattr(linalg, "rank_mod_p", refuse)
    monkeypatch.setattr(linalg, "pivots_mod_p", refuse)
    pres = presentations(4, 0, (2, 2), F)[1]
    assert hilbert_function_coker(pres, 3) == 10
    assert calls == {"cohomology": 1, "macaulay": 0}
    spec = surface_from_matrix(type_matrix(4, 0, (2, 2), F, 1))
    chart = random_invertible_matrix(F, 4, 1, "chart-a")
    assert macaulay_colength(list(affine_jacobian_ideal(spec, chart).generators)) == 8
    assert calls == {"cohomology": 1, "macaulay": 1}


# -- the CLI decides duality on the table it prints ---------------------------

SECTION_TABLE_113_SEED2 = """\
   m     h0     h1     chi
  -2      0     15     -15
  -1      0     10     -10
   0      0      5      -5
   1      1      1       0
   2      5      0       5
   3     10      0      10
   4     15      0      15
duality symmetry: ok
"""


def test_cli_section_mode_computes_each_h0_once(tmp_path, capsys, monkeypatch):
    matrix_file = tmp_path / "m.json"
    assert main([
        "build", "--type", "(1,1,3)", "--d", "5", "--delta", "0", "--seed", "2",
        "--out", str(matrix_file),
    ]) == 0
    capsys.readouterr()
    twists_seen = []
    h0 = cohomology.hilbert_function_coker

    def counted(pres, m):
        twists_seen.append(m)
        return h0(pres, m)

    monkeypatch.setattr(cohomology, "hilbert_function_coker", counted)
    code = main([
        "cohomology", str(matrix_file), "--mode", "section",
        "--m-min", "-2", "--m-max", "4", "--seed", "2",
    ])
    assert code == 0
    assert capsys.readouterr().out == SECTION_TABLE_113_SEED2
    # one h0 per twist; recomputing the table for duality made it 14
    assert twists_seen == list(range(-2, 5))
