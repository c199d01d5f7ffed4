"""Enumerating the degree types admissible for a surface degree.

Given (d, delta) and a constraint profile, emit every nondecreasing
integer tuple with the right parity and sum that passes the enabled
constraints, ordered by length and then lexicographically.  The search
box is finite by design: entries start at 3 - d - delta (the lower
bound forced by determinant_nonzero together with twist_positive) and
tuple length runs to 2d; when twist_positive is disabled the same box
still applies and is part of the documented semantics.

Two profiles matter in practice.  The default {determinant_nonzero,
twist_positive} reproduces the classification of symmetric matrix
shapes for nodal quartics and quintics; note that (-1, 1, 5) at
(d, delta) = (5, 0) fails twist_positive (its last target twist is 0)
and is deliberately absent.  The smooth-section profile adds
determinant_squarefree and smooth_plane_section and cuts the lists down
to the shapes whose generic member has a smooth plane section.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import DegreeType

CONSTRAINT_NAMES = (
    "determinant_nonzero",
    "determinant_squarefree",
    "twist_positive",
    "smooth_plane_section",
)


@dataclass(frozen=True)
class ConstraintProfile:
    """Which of the four named constraints the enumerator enforces."""

    determinant_nonzero: bool = True
    determinant_squarefree: bool = False
    twist_positive: bool = True
    smooth_plane_section: bool = False

    @classmethod
    def default(cls) -> "ConstraintProfile":
        return cls()

    @classmethod
    def smooth_section(cls) -> "ConstraintProfile":
        return cls(
            determinant_nonzero=True,
            determinant_squarefree=True,
            twist_positive=True,
            smooth_plane_section=True,
        )

    @classmethod
    def from_names(cls, names) -> "ConstraintProfile":
        wanted = set(names)
        unknown = wanted - set(CONSTRAINT_NAMES)
        if unknown:
            raise ValueError(f"unknown constraints: {sorted(unknown)}")
        return cls(
            determinant_nonzero="determinant_nonzero" in wanted,
            determinant_squarefree="determinant_squarefree" in wanted,
            twist_positive="twist_positive" in wanted,
            smooth_plane_section="smooth_plane_section" in wanted,
        )

    def enabled(self) -> "tuple[str, ...]":
        return tuple(n for n in CONSTRAINT_NAMES if getattr(self, n))


# The named profiles: the CLI's --profile and the manifest's "profile".
PROFILES = {
    "default": ConstraintProfile.default(),
    "smooth-section": ConstraintProfile.smooth_section(),
}


def enumerate_degree_types(
    d: int, delta: int, profile: "ConstraintProfile | None" = None
) -> "list[DegreeType]":
    """All admissible degree types in the documented search box.

    Output is sorted by tuple length, then lexicographically; every
    element is a validated DegreeType.
    """
    if d < 1:
        raise ValueError("surface degree must be positive")
    if delta not in (0, 1):
        raise ValueError("delta must be 0 or 1")
    if profile is None:
        profile = ConstraintProfile.default()
    lower = 3 - d - delta
    parity = (d - delta) % 2
    found = []
    for h in range(1, 2 * d + 1):
        for degrees in _nondecreasing_tuples(d, h, lower, parity):
            dt = DegreeType(d, delta, degrees)
            flags = dt.constraint_flags()
            if all(flags[name] for name in profile.enabled()):
                found.append(dt)
    found.sort(key=lambda t: (t.h, t.degrees))
    return found


def _nondecreasing_tuples(total: int, length: int, lower: int, parity: int):
    """Nondecreasing integer tuples with prescribed sum, floor, parities."""

    def rec(prefix, remaining, slots, minimum):
        if slots == 1:
            v = remaining
            if v >= minimum and v % 2 == parity:
                yield prefix + (v,)
            return
        start = minimum
        if start % 2 != parity:
            start += 1
        v = start
        # nondecreasing tail: slots copies of v cannot overshoot the sum
        while v * slots <= remaining:
            yield from rec(prefix + (v,), remaining - v, slots - 1, v)
            v += 2

    yield from rec((), total, length, lower)


def explain_rejection(d: int, delta: int, degrees) -> "list[tuple[str, int]]":
    """Why a tuple is not admissible: (reason, witness index) pairs.

    Index conventions are 1-based to match the pairing constraints;
    structural problems (parity, sum, ordering) report the offending
    position, or index 0 when the tuple as a whole is at fault.  An
    empty list means the tuple passes every constraint in the full
    profile.
    """
    degrees = tuple(int(v) for v in degrees)
    problems: "list[tuple[str, int]]" = []
    if not degrees:
        return [("empty", 0)]
    for i, (a, b) in enumerate(zip(degrees, degrees[1:]), start=1):
        if a > b:
            problems.append(("not_nondecreasing", i + 1))
    want = (d - delta) % 2
    for i, v in enumerate(degrees, start=1):
        if v % 2 != want:
            problems.append(("parity", i))
    if sum(degrees) != d:
        problems.append(("sum", 0))
    if problems:
        return problems
    failures = DegreeType(d, delta, degrees).constraint_failures()
    return [(name, i) for name, i in failures.items() if i is not None]
