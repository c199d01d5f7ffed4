"""The benchmark's workloads: seeded instances, their runs and their checks.

Every workload is a closed loop with one client: instances run one after
another, in a fixed order, in one process (workers=1).  Instances are
built from the workload seed; the library sees only the generated
inputs.  Each run builds fresh matrix and Ideal objects and calls the
public functions of matrices, nodes, groebner (through nodes),
macaulay, cohomology and kummer directly, never the memoizing scenarios
path (run_scenario, type_seed_report), so a repeated pass recomputes
everything.

Why these workloads:

* certify: the user-facing path of `verify-case` (random matrix,
  determinant, count_nodes, rank_drop_check, plane section, cohomology
  table and duality on the manifest window) for the five manifest types
  (three seeds each of (2,2) and (1,3), six each of (1,1,1,1) and
  (1,1,3), one of (1,1,1,1,1) per pass) and the 6x6 linear symmetroid,
  plus the `nodes` path on surface files (the 7x7 linear symmetroid and
  a 16-nodal Kummer member) and the 16-node search itself.  Almost all
  of its time is in groebner and polynomials, most of it in
  rank_drop_check.  It exercises ROADMAP
  items 2 and 5 and bypasses item 3 (rank_mod_p is under 1% here).
* oracle: macaulay_colength on chart-a Jacobian ideals (Cayley cubic,
  quartic types, 16-nodal Kummer member), built the way
  scripts/pin_oracle_values.py and the acceptance oracle test build
  them.  Nearly all of its time is rank_mod_p on tall sparse Macaulay
  matrices.  It exercises ROADMAP item 3 and bypasses groebner.  The
  quintic ideals (15-17 s each) do not fit a pass that repeats within
  one run, so the quartic types and the Cayley cubic stand for them.
* cohomology: wide-window cohomology tables of the surface and of a
  plane section, with the duality check on the section, for the five
  manifest types (two seeds of (1,1,1,1)) and the 6x6.  It uses the
  same rank_mod_p as oracle on near-square blocks and on many small
  matrices where assembly dominates, so a kernel tuned only for the tall
  Macaulay shape shows up here.

The Tier-1 test suite is not a workload: almost all of its time is the
oracle-equivalence test, whose cost the oracle workload reproduces.

Instance seeds come from INSTANCE_SEEDS, every one of which certifies
each certify instance kind below: a chart that sends a node to infinity
(probability about t/p per chart) raises ChartMismatchError, which the
library documents as a fluke to retry with another seed, not a result.
The Cayley cubic lives over F_7, where that is likely, so its chart
seeds are the manifest's pinned ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from math import comb
from typing import Callable

INSTANCE_SEEDS = tuple(range(1, 41))
WORKLOADS = ("certify", "oracle", "cohomology")

# Degree-type scenarios of the manifest, in manifest order.
MANIFEST_TYPES = (
    "d4-delta0-type22",
    "d4-delta1-type13",
    "d4-delta1-type1111",
    "d5-type113",
    "d5-type11111",
)
QUARTIC_TYPES = MANIFEST_TYPES[:3]
# Linear symmetroids beyond the manifest, as (d, delta) of the d x d
# matrix of linear forms; their node count is t = C(d+1, 3).
LINEAR_6X6 = (6, 1)
LINEAR_7X7 = (7, 0)
# Seeds per pass of each manifest type in certify; each divides the
# largest.  Instance times fall in clusters by type, and a median or
# percentile that lands on the edge of a cluster jumps with small
# changes of speed.  These counts put certify's median in the middle of
# the (1,1,1,1) cluster (as many cheaper instances as dearer ones) and
# its tail percentile (ten samples beyond it: the 6x6, the 7x7 and the
# (1,1,1,1,1) case above) inside the (1,1,3) cluster.
CERTIFY_SEEDS = {
    "d4-delta0-type22": 3,
    "d4-delta1-type13": 3,
    "d4-delta1-type1111": 6,
    "d5-type113": 6,
    "d5-type11111": 1,
}
CERTIFY_BLOCKS = max(CERTIFY_SEEDS.values())
CAYLEY_CHARTS_PER_PASS = 3
SURFACE_WINDOW = range(-2, 12)
SECTION_WINDOW = range(-2, 21)
# h0 == chi must hold at this many of the top surface twists.
SURFACE_TOP_ROWS = 2


@dataclass
class Instance:
    """One unit of timed work; run() does it and returns failed checks."""

    id: str
    sizes: dict
    run: Callable[[], "list[str]"] = dataclass_field(repr=False)


def instance_seed(seed: int, k: int) -> int:
    return INSTANCE_SEEDS[(seed * CERTIFY_BLOCKS + k) % len(INSTANCE_SEEDS)]


def _expected_t(entry: dict) -> int:
    return next(c["value"] for c in entry["checks"] if c["check"] == "t")


def _node_failures(report, t: int, rank_drop: bool) -> "list[str]":
    failures = []
    if report.t != t:
        failures.append(f"t = {report.t}, expected {t}")
    if not report.reduced_certified:
        failures.append("not certified reduced")
    if rank_drop and report.rank_drop_consistent is not True:
        failures.append("rank-drop locus inconsistent")
    return failures


def _section_failures(table, entry: dict) -> "list[str]":
    """The manifest's section_h0 / section_h1 values inside the table's window."""
    rows = {r.m: r for r in table.rows}
    failures = []
    for check in entry["checks"]:
        kind = check["check"]
        if not kind.startswith("section_") or check["m"] not in rows:
            continue
        row = rows[check["m"]]
        observed = row.h1 if kind == "section_h1" else row.h0
        holds = observed <= check["value"] if kind == "section_h0_le" else observed == check["value"]
        if not holds:
            failures.append(f"{kind}({check['m']}) = {observed}, expected {check['value']}")
    return failures


def _type_spec(manifest: dict, sid: str):
    entry = manifest["scenarios"][sid]
    return entry, entry["d"], entry["delta"], tuple(entry["degrees"])


def _linear_spec(d: int, delta: int):
    """(d, delta, degrees, t) of the d x d symmetric matrix of linear forms."""
    return d, delta, (1,) * d, comb(d + 1, 3)


def _label(degrees) -> str:
    return "(" + ",".join(str(v) for v in degrees) + ")"


def _kummer_member(manifest: dict, s: int):
    """The 16-nodal member the manifest's search finds from seed s."""
    from symmetroids import fields, kummer

    entry = manifest["scenarios"]["kummer-search"]
    member = kummer.search_sixteen_nodes(fields.PrimeField(entry["p"]), s, entry["budget"])
    if member is None:
        raise RuntimeError(f"no 16-nodal member from seed {s}")
    return member


def certify_instances(manifest: dict, field, seed: int) -> "list[Instance]":
    from symmetroids import cohomology, kummer, matrices, nodes

    def verify_case(d, delta, degrees, s, t, window, entry):
        def run():
            dt = matrices.DegreeType(d, delta, degrees)
            matrix = matrices.SymmetricFormMatrix.random(dt, field, seed=s)
            spec = matrices.surface_from_matrix(matrix)
            report = nodes.count_nodes(spec, seed=s)
            nodes.rank_drop_check(matrix, report)
            section = cohomology.plane_section_presentation(matrix, seed=s)
            table = cohomology.cohomology_table(section, window)
            failures = _node_failures(report, t, rank_drop=True)
            failures += _section_failures(table, entry)
            if not cohomology.duality_symmetry_check(section, window):
                failures.append("duality fails")
            return failures

        sizes = {"d": d, "delta": delta, "h": len(degrees), "t": t, "seed": s,
                 "window": [window.start, window.stop - 1]}
        return Instance(f"certify/{_label(degrees)}/s{s}", sizes, run)

    def surface_file(name, obj, s, t):
        def run():
            spec = matrices.surface_from_json_dict(obj)
            return _node_failures(nodes.count_nodes(spec, seed=s), t, rank_drop=False)

        return Instance(f"certify/file-{name}/s{s}", {"d": obj["d"], "t": t, "seed": s}, run)

    def sixteen_node_search(kummer_field, s, budget, t):
        def run():
            result = kummer.search_sixteen_nodes(kummer_field, s, budget)
            if result is None:
                return [f"no 16-nodal member within {budget} trials"]
            return _node_failures(result.report, t, rank_drop=False)

        return Instance(f"certify/kummer-search/s{s}", {"d": 4, "t": t, "seed": s}, run)

    s = instance_seed(seed, 0)
    d, delta, degrees, t = _linear_spec(*LINEAR_6X6)
    pivot = d - 3 + delta
    singles = [verify_case(d, delta, degrees, s, t, range(-1, pivot + 2), {"checks": []})]
    d, delta, degrees, t = _linear_spec(*LINEAR_7X7)
    matrix = matrices.SymmetricFormMatrix.random(matrices.DegreeType(d, delta, degrees), field, seed=s)
    septic = matrices.surface_to_json_dict(matrices.surface_from_matrix(matrix))
    singles.append(surface_file("7x7", septic, s, t))
    entry = manifest["scenarios"]["kummer-search"]
    member = _kummer_member(manifest, s)
    t = _expected_t(entry)
    singles.append(sixteen_node_search(member.surface.ring.field, s, entry["budget"], t))
    singles.append(surface_file("kummer", matrices.surface_to_json_dict(member.surface), s, t))

    # Seed-major order, with the types of fewer seeds and the single
    # instances spread over the seed blocks, so that each kind of instance
    # runs at several points of a pass.
    after_block = {(j + 1) * CERTIFY_BLOCKS // len(singles) - 1: single
                   for j, single in enumerate(singles)}
    out = []
    for k in range(CERTIFY_BLOCKS):
        s = instance_seed(seed, k)
        for sid in MANIFEST_TYPES:
            if k % (CERTIFY_BLOCKS // CERTIFY_SEEDS[sid]):
                continue
            entry, d, delta, degrees = _type_spec(manifest, sid)
            lo, hi = entry["duality_range"]
            out.append(verify_case(d, delta, degrees, s, _expected_t(entry), range(lo, hi + 1), entry))
        if k in after_block:
            out.append(after_block[k])
    return out


def oracle_instances(manifest: dict, field, seed: int) -> "list[Instance]":
    from symmetroids import macaulay, matrices, nodes, randomness, scenarios

    def colength(label, spec, s, t, sizes):
        chart = randomness.random_invertible_matrix(spec.ring.field, 4, s, "chart-a")
        generators = list(nodes.affine_jacobian_ideal(spec, chart).generators)

        def run():
            got = macaulay.macaulay_colength(generators)
            return [] if got == t else [f"Macaulay colength {got}, expected {t}"]

        sizes = dict(sizes, t=t, seed=s, p=spec.ring.field.p, generators=len(generators),
                     max_degree=max(g.degree() for g in generators))
        return Instance(f"oracle/{label}/s{s}", sizes, run)

    out = []
    cayley_entry = manifest["scenarios"]["cayley-cubic"]
    cubic = scenarios.load_fixture_surface(cayley_entry["file"])
    charts = cayley_entry["seeds"]
    for k in range(CAYLEY_CHARTS_PER_PASS):
        s = charts[(seed + k) % len(charts)]
        out.append(colength("cayley", cubic, s, _expected_t(cayley_entry), {"d": 3}))
    s = instance_seed(seed, 0)
    for sid in QUARTIC_TYPES:
        entry, d, delta, degrees = _type_spec(manifest, sid)
        matrix = matrices.SymmetricFormMatrix.random(matrices.DegreeType(d, delta, degrees), field, seed=s)
        out.append(colength(_label(degrees), matrices.surface_from_matrix(matrix), s,
                            _expected_t(entry), {"d": d, "delta": delta, "h": len(degrees)}))
    member = _kummer_member(manifest, s)
    t = _expected_t(manifest["scenarios"]["kummer-search"])
    out.append(colength("kummer", member.surface, member.node_seed, t, {"d": 4}))
    return out


def cohomology_instances(manifest: dict, field, seed: int) -> "list[Instance]":
    from symmetroids import cohomology, matrices

    def surface_table(d, delta, degrees, s):
        def run():
            dt = matrices.DegreeType(d, delta, degrees)
            matrix = matrices.SymmetricFormMatrix.random(dt, field, seed=s)
            pres = cohomology.surface_presentation(matrix)
            table = cohomology.cohomology_table(pres, SURFACE_WINDOW)
            return [
                f"surface h0({r.m}) = {r.h0} != chi = {r.chi}"
                for r in table.rows[-SURFACE_TOP_ROWS:]
                if r.h0 != r.chi
            ]

        sizes = {"d": d, "delta": delta, "h": len(degrees), "seed": s,
                 "window": [SURFACE_WINDOW.start, SURFACE_WINDOW.stop - 1]}
        return Instance(f"cohomology/surface{_label(degrees)}/s{s}", sizes, run)

    def section_table(d, delta, degrees, s, entry):
        pivot = d - 3 + delta
        duality_window = range(SECTION_WINDOW.start, pivot - SECTION_WINDOW.start + 1)

        def run():
            dt = matrices.DegreeType(d, delta, degrees)
            matrix = matrices.SymmetricFormMatrix.random(dt, field, seed=s)
            section = cohomology.plane_section_presentation(matrix, seed=s)
            table = cohomology.cohomology_table(section, SECTION_WINDOW)
            failures = _section_failures(table, entry)
            if not cohomology.duality_symmetry_check(section, duality_window):
                failures.append("duality fails")
            return failures

        sizes = {"d": d, "delta": delta, "h": len(degrees), "seed": s,
                 "window": [SECTION_WINDOW.start, SECTION_WINDOW.stop - 1],
                 "duality_window": [duality_window.start, duality_window.stop - 1]}
        return Instance(f"cohomology/section{_label(degrees)}/s{s}", sizes, run)

    s = instance_seed(seed, 0)
    types = [(s, *_type_spec(manifest, sid)) for sid in MANIFEST_TYPES]
    types.append((s, {"checks": []}, *_linear_spec(*LINEAR_6X6)[:3]))
    # A second seed of (1,1,1,1): with six cheap and six costly pairs of
    # tables the median would fall in the gap between the two groups and
    # average one table of each; this puts it among the (1,1,1,1) tables.
    types.insert(3, (instance_seed(seed, 1), *_type_spec(manifest, "d4-delta1-type1111")))
    out = []
    for s, entry, d, delta, degrees in types:
        out.append(surface_table(d, delta, degrees, s))
        out.append(section_table(d, delta, degrees, s, entry))
    return out


BUILDERS = {
    "certify": certify_instances,
    "oracle": oracle_instances,
    "cohomology": cohomology_instances,
}
