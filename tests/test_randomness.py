"""Counter-based deterministic generation: stability and independence."""

from fractions import Fraction

from symmetroids.fields import QQ, PrimeField
from symmetroids.linalg import rank_over_field
from symmetroids.polynomials import Ring, monomials_of_degree
from symmetroids.randomness import (
    element_stream,
    random_form,
    random_invertible_matrix,
    random_point,
)

F = PrimeField(31991)


def test_stream_is_deterministic_and_tag_separated():
    def take(seed, tag, n=5):
        stream = element_stream(F, seed, tag)
        return [next(stream) for _ in range(n)]

    assert take(1, "x") == take(1, "x")  # replayable
    assert take(1, "x") != take(1, "y")  # tags separate streams
    assert take(1, "x") != take(2, "x")  # seeds separate streams
    restarts = [next(element_stream(F, 1, "x")) for _ in range(3)]
    assert restarts == [restarts[0]] * 3  # restarting replays counter 0
    assert take(1, "x", 3) != restarts  # within a stream the counter advances


def test_stream_over_q_stays_small():
    s = element_stream(QQ, 3, "q")
    values = [next(s) for _ in range(50)]
    assert all(isinstance(v, Fraction) for v in values)
    assert all(-99 <= v <= 99 for v in values)


def test_random_form_shape_and_determinism():
    ring = Ring(4, F)
    f = random_form(ring, 2, 5, "entry", "0", "1")
    g = random_form(ring, 2, 5, "entry", "0", "1")
    assert f == g
    assert f.is_homogeneous() and f.homogeneous_degree() == 2
    # dense draw: one coefficient per monomial, drawn in canonical order
    assert len(f.terms) <= len(monomials_of_degree(4, 2))
    assert random_form(ring, 2, 5, "entry", "0", "2") != f


def test_random_linear_form():
    ring = Ring(3, F)
    form = random_form(ring, 1, 9, "aux")
    assert form.is_homogeneous() and form.homogeneous_degree() == 1


def test_random_invertible_matrix():
    for seed in range(1, 6):
        rows = random_invertible_matrix(F, 4, seed, "chart-a")
        assert rank_over_field(rows, F) == 4
    again = random_invertible_matrix(F, 4, 1, "chart-a")
    assert again == random_invertible_matrix(F, 4, 1, "chart-a")
    assert again != random_invertible_matrix(F, 4, 1, "chart-b")


def test_random_point_length_and_range():
    pt = random_point(F, 4, 11, "kummer", "0")
    assert len(pt) == 4
    assert all(0 <= c < F.p for c in pt)
    assert pt == random_point(F, 4, 11, "kummer", "0")
