"""`Polynomial.linear_change`, the one coordinate change, against a reference.

The reference is the general ring map x_i -> g_i on sparse polynomials:
each power g_i^e by repeated squaring, then one product per term.  A
linear change is that map with linear images, and a plane section is
that map with x_i -> x_i for i < 3 and x3 -> a replacement linear form,
the last variable eliminated.  `linear_change` must give the same
polynomial, term for term, on square maps over F_7, F_31991, F_(2^61-1)
and Q, on the chart-a move of the 6x6 and 7x7 determinants, and on the
4 x 3 map of every seeded plane section.
"""

import pytest

from symmetroids import polynomials as polynomials_module
from symmetroids.cohomology import plane_section_presentation
from symmetroids.fields import QQ, PrimeField
from symmetroids.matrices import DegreeType, SymmetricFormMatrix, surface_from_matrix
from symmetroids.polynomials import Polynomial, Ring, parse_polynomial
from symmetroids.randomness import element_stream, random_form, random_invertible_matrix

F7 = PrimeField(7)
F31991 = PrimeField(31991)

# The five manifest degree types and the 6x6 linear symmetroid.
TYPES = [
    (4, 0, (2, 2)),
    (4, 1, (1, 3)),
    (4, 1, (1, 1, 1, 1)),
    (5, 0, (1, 1, 3)),
    (5, 0, (1, 1, 1, 1, 1)),
    (6, 1, (1,) * 6),
]


def reference_power(g, e):
    result = Polynomial.constant(g.ring, 1)
    base = g
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result


def reference_substitute(f, images):
    """f(g_0, ..., g_{n-1}) for images g_i in one ring."""
    target = images[0].ring
    result = Polynomial.zero(target)
    for m, c in f.terms.items():
        part = Polynomial.constant(target, c)
        for i, e in enumerate(m):
            if e:
                part = part * reference_power(images[i], e)
        result = result + part
    return result


def variable(ring, index):
    return Polynomial(ring, {tuple(int(k == index) for k in range(ring.nvars)): ring.field.one})


def reference_eliminate(f, index, replacement):
    """x_index -> replacement; the other variables map across in order."""
    target = replacement.ring
    images = [variable(target, k) for k in range(target.nvars)]
    images.insert(index, replacement)
    return reference_substitute(f, images)


def linear_images(matrix, ring):
    """x_i -> sum_j A[i][j] y_j as polynomials in `ring`."""
    return [
        sum((variable(ring, j).scale(a) for j, a in enumerate(row)), Polynomial.zero(ring))
        for row in matrix
    ]


def sample_polynomials(ring, seed):
    """Forms of degree 0..7, two sums of forms of different degrees, and a
    sparse polynomial whose exponents of x0 and x1 skip values."""
    forms = [random_form(ring, deg, seed, "f", str(deg)) for deg in range(8)]
    last = ring.nvars - 1
    sparse = parse_polynomial(f"x0^6*x{last} + x1^4 + 1", ring)
    return forms + [forms[1] + forms[3], forms[0] + forms[2] + forms[4], sparse]


@pytest.mark.parametrize(
    "field", [F7, F31991, PrimeField(2**61 - 1), QQ], ids=["F7", "F31991", "F2^61-1", "Q"]
)
@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_square_maps_match_the_reference(field, nvars):
    ring = Ring(nvars, field)
    for seed in (1, 2):
        transform = random_invertible_matrix(field, nvars, seed, "change")
        images = linear_images(transform, ring)
        for f in sample_polynomials(ring, seed):
            got = f.linear_change(transform)
            assert got.ring == ring
            assert got.terms == reference_substitute(f, images).terms


def test_square_map_in_characteristic_seven():
    ring = Ring(2, F7)
    f = parse_polynomial("x0^7 + 3*x0*x1^6 + x1^2", ring)
    transform = [[1, 1], [0, 6]]  # x0 -> x0 + x1, x1 -> -x1
    images = linear_images(transform, ring)
    assert f.linear_change(transform) == reference_substitute(f, images)
    # (x0 + x1)^7 = x0^7 + x1^7 in characteristic 7
    assert parse_polynomial("x0^7", ring).linear_change(transform) == parse_polynomial(
        "x0^7 + x1^7", ring
    )


@pytest.mark.parametrize("d, delta, degrees", [TYPES[-1], (7, 0, (1,) * 7)], ids=["6x6", "7x7"])
def test_determinants_move_to_chart_a_as_the_reference_moves_them(d, delta, degrees):
    matrix = SymmetricFormMatrix.random(DegreeType(d, delta, degrees), F31991, seed=1)
    f = surface_from_matrix(matrix).f
    chart = random_invertible_matrix(F31991, 4, 1, "chart-a")
    want = reference_substitute(f, linear_images(chart, f.ring))
    assert f.linear_change(chart).terms == want.terms


def section_replacement(field, seed):
    """-(a0 x0 + a1 x1 + a2 x2)/a3 for the seeded plane of a section."""
    stream = element_stream(field, seed, "plane")
    while True:
        coeffs = [next(stream) for _ in range(4)]
        if coeffs[3]:
            break
    scale = field.neg(field.inv(coeffs[3]))
    ring3 = Ring(3, field)
    return sum(
        (variable(ring3, j).scale(field.mul(coeffs[j], scale)) for j in range(3)),
        Polynomial.zero(ring3),
    )


@pytest.mark.parametrize("field", [F31991, QQ], ids=["F31991", "Q"])
@pytest.mark.parametrize("d, delta, degrees", TYPES, ids=[str(t[2]) for t in TYPES])
def test_section_map_matches_the_reference(d, delta, degrees, field):
    for seed in (1, 2):
        matrix = SymmetricFormMatrix.random(DegreeType(d, delta, degrees), field, seed=seed)
        section = plane_section_presentation(matrix, seed=seed)
        replacement = section_replacement(field, seed)
        assert section.ring == replacement.ring
        for i, row in enumerate(matrix.entries):
            for j, entry in enumerate(row):
                want = reference_eliminate(entry, 3, replacement)
                assert section.entries[i][j].terms == want.terms


def test_maps_without_full_column_rank_are_rejected():
    f = parse_polynomial("x0^2 + x1*x3 + x2^2", Ring(4, F31991))
    g = parse_polynomial("x0*x1 + x2^2", Ring(3, F31991))
    with pytest.raises(ValueError, match="wrong shape"):
        f.linear_change([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # 3 rows for 4 variables
    with pytest.raises(ValueError, match="wrong shape"):
        f.linear_change([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1]])  # ragged
    with pytest.raises(ValueError, match="full column rank"):
        g.linear_change([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])  # 3 x 4
    with pytest.raises(ValueError, match="full column rank"):
        # the third column is the sum of the first two: rank 2
        f.linear_change([[1, 0, 1], [0, 1, 1], [2, 3, 5], [1, 1, 2]])
    with pytest.raises(ValueError, match="full column rank"):
        f.linear_change([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_a_matrix_move_checks_its_map_once(monkeypatch):
    matrix = SymmetricFormMatrix.random(DegreeType(6, 1, (1,) * 6), F31991, seed=1)
    chart = random_invertible_matrix(F31991, 4, 1, "chart-a")
    per_entry = [[e.linear_change(chart) for e in row] for row in matrix.entries]
    checks = []
    rank = polynomials_module.rank_over_field

    def counted(rows, field):
        checks.append(len(rows))
        return rank(rows, field)

    monkeypatch.setattr(polynomials_module, "rank_over_field", counted)
    moved = matrix.linear_change(chart)
    # one rank check for the 21 entries of the upper triangle
    assert checks == [4]
    assert [list(row) for row in moved.entries] == per_entry
    with pytest.raises(ValueError, match="full column rank"):
        matrix.linear_change([[1, 1, 0], [1, 1, 0], [0, 0, 1], [0, 0, 0]])  # rank 2
    assert checks == [4, 4]
