"""Degree-type enumeration against frozen lists and a brute-force oracle.

The quartic and quintic lists are classical; the oracle below re-derives
them (and everything else with d <= 6) by filtering a plain integer box
with none of the production pruning, so agreement is meaningful.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symmetroids.enumeration import (
    CONSTRAINT_NAMES,
    ConstraintProfile,
    enumerate_degree_types,
    explain_rejection,
)
from symmetroids.matrices import DegreeType, DegreeTypeError


def as_tuples(types):
    return [t.degrees for t in types]


def oracle_enumerate(d, delta, profile, h_max):
    """Re-enumerate with itertools over the same documented box.

    Unpruned combinations blow up for long tuples, so the comparison is
    capped at h_max; every classification list lives at h <= d anyway.
    """
    lower = 3 - d - delta
    out = []
    for h in range(1, h_max + 1):
        # largest possible entry: everything else sits at the floor
        upper = max(d, d - (h - 1) * lower)
        values = [v for v in range(lower, upper + 1) if (v - d + delta) % 2 == 0]
        for combo in itertools.combinations_with_replacement(values, h):
            if sum(combo) != d:
                continue
            try:
                dt = DegreeType(d, delta, combo)
            except DegreeTypeError:
                continue
            flags = dt.constraint_flags()
            if all(flags[name] for name in profile.enabled()):
                out.append(combo)
    out.sort(key=lambda t: (len(t), t))
    return out


# ---------------------------------------------------------------------------
# Frozen classification lists


def test_quartic_even_list():
    got = as_tuples(enumerate_degree_types(4, 0))
    assert got == [(2, 2), (0, 2, 2), (0, 0, 2, 2)]


def test_quartic_odd_list():
    got = as_tuples(enumerate_degree_types(4, 1))
    assert got == [(1, 3), (-1, -1, 3, 3), (-1, 1, 1, 3), (1, 1, 1, 1)]


def test_quintic_list():
    got = as_tuples(enumerate_degree_types(5, 0))
    assert got == [
        (-1, 3, 3),
        (1, 1, 3),
        (-1, -1, 1, 3, 3),
        (-1, 1, 1, 1, 3),
        (1, 1, 1, 1, 1),
    ]
    # (-1, 1, 5) sums to 5 with the right parity but its last target
    # twist vanishes, so it must stay out
    assert (-1, 1, 5) not in got


def test_smooth_section_sublists():
    profile = ConstraintProfile.smooth_section()
    assert as_tuples(enumerate_degree_types(4, 0, profile)) == [(2, 2)]
    assert as_tuples(enumerate_degree_types(4, 1, profile)) == [
        (1, 3),
        (1, 1, 1, 1),
    ]
    assert as_tuples(enumerate_degree_types(5, 0, profile)) == [
        (1, 1, 3),
        (1, 1, 1, 1, 1),
    ]


def test_cubic_contains_linear_type():
    got = as_tuples(enumerate_degree_types(3, 0))
    assert (1, 1, 1) in got
    # the 1x1 shape (3,) has target twist (3 - 3)/2 = 0 and is excluded
    assert (3,) not in got


def test_input_validation():
    with pytest.raises(ValueError):
        enumerate_degree_types(0, 0)
    with pytest.raises(ValueError):
        enumerate_degree_types(4, 2)


# ---------------------------------------------------------------------------
# Profiles


def test_profile_from_names_round_trip():
    profile = ConstraintProfile.from_names(["twist_positive"])
    assert profile.enabled() == ("twist_positive",)
    with pytest.raises(ValueError):
        ConstraintProfile.from_names(["twist_positive", "nonsense"])


def test_profile_monotonicity():
    # enabling more constraints can only shrink the list
    loose = ConstraintProfile.from_names([])
    for d, delta in [(3, 0), (4, 0), (4, 1), (5, 0), (5, 1), (6, 0)]:
        all_types = set(as_tuples(enumerate_degree_types(d, delta, loose)))
        default = set(as_tuples(enumerate_degree_types(d, delta)))
        smooth = set(
            as_tuples(
                enumerate_degree_types(d, delta, ConstraintProfile.smooth_section())
            )
        )
        assert smooth <= default <= all_types


# ---------------------------------------------------------------------------
# Brute-force oracle agreement


def test_oracle_agreement_small_degrees():
    profiles = {
        "default": ConstraintProfile.default(),
        "smooth": ConstraintProfile.smooth_section(),
        "loose": ConstraintProfile.from_names(["determinant_nonzero"]),
    }
    h_max = 6
    for d in range(1, 6):
        for delta in (0, 1):
            for name, profile in profiles.items():
                got = [
                    t for t in as_tuples(enumerate_degree_types(d, delta, profile))
                    if len(t) <= h_max
                ]
                want = oracle_enumerate(d, delta, profile, h_max)
                assert got == want, (d, delta, name)


def test_every_emitted_type_validates():
    for d in range(1, 7):
        for delta in (0, 1):
            for dt in enumerate_degree_types(d, delta):
                assert dt.d == d and dt.delta == delta
                assert sum(dt.degrees) == d
                assert dt.degrees == tuple(sorted(dt.degrees))
                assert all(r > 0 for r in dt.target_twists)
            # an empty explanation means the full four-constraint profile
            # passes, so it characterizes the smooth-section list
            smooth = ConstraintProfile.smooth_section()
            for dt in enumerate_degree_types(d, delta, smooth):
                assert explain_rejection(d, delta, dt.degrees) == []


# ---------------------------------------------------------------------------
# Rejection explanations


def test_explain_structural_problems():
    assert explain_rejection(4, 0, ()) == [("empty", 0)]
    assert ("sum", 0) in explain_rejection(4, 0, (2, 4))
    assert ("parity", 1) in explain_rejection(4, 0, (1, 3))
    assert ("not_nondecreasing", 2) in explain_rejection(4, 0, (4, 0))


def test_explain_constraint_problems():
    # the classical quintic exclusion: last target twist is (5+0-5)/2 = 0
    problems = explain_rejection(5, 0, (-1, 1, 5))
    assert ("twist_positive", 3) in problems
    # explanations cover the whole four-constraint profile, so the
    # squarefree and smooth-section pairings show up as well
    assert ("determinant_squarefree", 1) in problems
    assert ("determinant_nonzero", 1) not in problems
    problems = explain_rejection(4, 0, (-2, 2, 4))
    assert ("twist_positive", 3) in problems


def test_explain_is_consistent_with_enumeration():
    # anything explain_rejection clears must be in the smooth-section
    # list (the profile explanations are computed against), and vice versa
    d, delta = 5, 0
    smooth = ConstraintProfile.smooth_section()
    emitted = set(as_tuples(enumerate_degree_types(d, delta, smooth)))
    lower = 3 - d - delta
    values = [v for v in range(lower, d + 7) if (v - d + delta) % 2 == 0]
    for h in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(values, h):
            if sum(combo) != d:
                continue
            clears = explain_rejection(d, delta, combo) == []
            assert clears == (combo in emitted), combo


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    delta=st.integers(min_value=0, max_value=1),
    data=st.data(),
)
def test_rejection_reasons_are_named_constraints(d, delta, data):
    h = data.draw(st.integers(min_value=1, max_value=4))
    degrees = tuple(
        sorted(data.draw(st.integers(min_value=-3, max_value=6)) for _ in range(h))
    )
    problems = explain_rejection(d, delta, degrees)
    structural = {"empty", "not_nondecreasing", "parity", "sum"}
    for reason, index in problems:
        assert reason in structural or reason in CONSTRAINT_NAMES
        assert 0 <= index <= h
