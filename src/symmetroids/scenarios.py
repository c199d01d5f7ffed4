"""Named end-to-end verification scenarios with pinned seeds.

Each scenario ties the full pipeline together for one case study: build
the seeded matrices, count and certify nodes, tie the count to the
rank-drop locus, and check the cohomology tables.  Expected values live
in data/scenarios.json together with a provenance tag:

* "classical": the value is forced by the underlying geometry and was
  checked against the standard results before being pinned;
* "oracle": the value was fixed by an independent computation (the
  Macaulay-matrix colength oracle, exhaustive small-field enumeration,
  or a full-table run) and is asserted for reproducibility;
* "identity": bookkeeping that must hold by construction (determinism,
  internal consistency).

The module keeps no state: every run rebuilds its matrices and reports
from (type, field, seed) or from the fixture file.  Each scenario kind
only observes; one loop turns the manifest's checks into CheckRecords.
`_sweep` is the one process fan-out: a scenario maps its seeds over it,
and `run_all` with several ids maps whole scenarios over it (their seeds
then run serially), and so does scripts/seed_sweep.py with its seed
range.  Results merge by pure concatenation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources

from .cohomology import (
    check_chi_node_formula,
    chi_from_resolution,
    cohomology_table,
    plane_section_presentation,
    surface_presentation,
    table_duality_symmetry,
)
from .enumeration import PROFILES, enumerate_degree_types, explain_rejection
from .fields import Field, PrimeField, field_from_json
from .groebner import CertificateError, ResourceBudgetError
from .kummer import search_sixteen_nodes
from .matrices import (
    DegreeType,
    SurfaceSpec,
    SymmetricFormMatrix,
    surface_from_json_dict,
    surface_from_matrix,
)
from .nodes import (
    ChartMismatchError,
    DegenerateSurfaceError,
    NodeReport,
    count_nodes,
    enumerate_rational_singular_points,
    hessian_rank_at_point,
    rank_drop_check,
)

SCENARIO_IDS = (
    "d4-delta0-type22",
    "d4-delta1-type13",
    "d4-delta1-type1111",
    "d5-type113",
    "d5-type11111",
    "cayley-cubic",
    "enumeration-all",
    "kummer-search",
)

_PIPELINE_ERRORS = (
    DegenerateSurfaceError,
    ChartMismatchError,
    CertificateError,
    ResourceBudgetError,
)


class UnknownScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class CheckRecord:
    name: str
    expected: object
    observed: object
    tag: str
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "observed": self.observed,
            "tag": self.tag,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    passed: bool
    skipped: bool
    checks: "tuple[CheckRecord, ...]"
    wall_time: float

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "skipped": self.skipped,
            "wall_time": round(self.wall_time, 3),
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def format_text(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        lines = [f"{self.scenario}: {status} ({self.wall_time:.2f}s)"]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            lines.append(
                f"  [{c.tag}] {c.name}: expected {c.expected}, "
                f"observed {c.observed} .. {mark}"
            )
        return "\n".join(lines)


@lru_cache(maxsize=1)
def load_manifest() -> dict:
    text = resources.files("symmetroids").joinpath("data/scenarios.json").read_text()
    return json.loads(text)


def load_fixture_surface(name: str) -> SurfaceSpec:
    text = resources.files("symmetroids").joinpath(f"data/{name}").read_text()
    return surface_from_json_dict(json.loads(text))


# Always empty: the package keeps no report cache.  The name stays bound
# because the benchmark's memoization guard (bench/run.py) reads it.
_REPORT_CACHE: "dict[tuple, NodeReport]" = {}


def type_matrix(
    d: int, delta: int, degrees, field: Field, seed: int
) -> SymmetricFormMatrix:
    dt = DegreeType(d, delta, tuple(degrees))
    return SymmetricFormMatrix.random(dt, field, seed=seed)


def type_seed_case(
    d: int,
    delta: int,
    degrees,
    field: Field,
    seed: int,
    pair_budget: "int | None" = None,
) -> "tuple[SymmetricFormMatrix, NodeReport]":
    """One seeded matrix and its count_nodes + rank_drop_check report."""
    matrix = type_matrix(d, delta, degrees, field, seed)
    report = count_nodes(surface_from_matrix(matrix), seed=seed, pair_budget=pair_budget)
    rank_drop_check(matrix, report)
    return matrix, report


def type_seed_report(
    d: int,
    delta: int,
    degrees,
    field: Field,
    seed: int,
    pair_budget: "int | None" = None,
) -> NodeReport:
    """count_nodes + rank_drop_check for one seeded matrix."""
    return type_seed_case(d, delta, degrees, field, seed, pair_budget)[1]


def _sweep(task, items, workers: int) -> list:
    """[task(item) for item in items], across processes when workers > 1."""
    if workers > 1 and len(items) > 1:
        # Imported here so that a serial run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, items))
    return [task(item) for item in items]


def _check_records(checks, observe) -> list:
    """One CheckRecord per manifest check.

    `observe(name, expected, check)` returns (record name, observed,
    passed), or None for a check the scenario kind does not know.
    """
    records = []
    for check in checks:
        name, expected = check["check"], check["value"]
        name, observed, passed = observe(name, expected, check) or (name, None, False)
        records.append(CheckRecord(name, expected, observed, check["tag"], passed))
    return records


def _per_seed_check(name: str, expected, reports):
    """The checks that read one value off every seed's report."""
    if name == "t":
        observed = [r.t for r in reports]
        return name, observed, all(v == expected for v in observed)
    if name in ("reduced_certified", "rank_drop_consistent"):
        observed = [getattr(r, name) for r in reports]
        return name, observed, all(v is expected for v in observed)
    return None


def _run_degree_type(entry: dict, field: Field, workers: int, pair_budget) -> list:
    d, delta, degrees = entry["d"], entry["delta"], tuple(entry["degrees"])
    seeds = entry["seeds"]
    task = partial(type_seed_case, d, delta, degrees, field, pair_budget=pair_budget)
    cases = _sweep(task, seeds, workers)
    reports = [report for _, report in cases]

    matrix0 = cases[0][0]
    lo, hi = entry["duality_range"]
    table0 = cohomology_table(
        plane_section_presentation(matrix0, seed=seeds[0]), range(lo, hi + 1)
    )

    def observe(name, expected, check):
        if name == "surface_chi0":
            observed = chi_from_resolution(surface_presentation(matrix0), 0)
            return name, observed, observed == expected
        if name == "chi_node_formula":
            observed = check_chi_node_formula(surface_presentation(matrix0), reports[0].t)
            return name, observed, observed is expected
        if name in ("section_h0", "section_h1"):
            row = table0.row(check["m"])
            observed = row.h0 if name == "section_h0" else row.h1
            return f"{name}({check['m']})", observed, observed == expected
        if name == "section_h0_le":
            observed = table0.row(check["m"]).h0
            return f"section_h0({check['m']}) <= {expected}", observed, observed <= expected
        if name == "duality":
            observed = table_duality_symmetry(table0)
            return f"duality[{lo},{hi}]", observed, observed is expected
        return _per_seed_check(name, expected, reports)

    return _check_records(entry["checks"], observe)


def _run_fixture(entry: dict, workers: int, pair_budget) -> list:
    spec = load_fixture_surface(entry["file"])
    points = enumerate_rational_singular_points(spec)
    ranks = [hessian_rank_at_point(spec, P) for P in points]
    task = partial(count_nodes, spec, pair_budget=pair_budget)
    reports = _sweep(task, entry["seeds"], workers)

    def observe(name, expected, check):
        if name == "enumeration_count":
            return name, len(points), len(points) == expected
        if name == "hessian_ranks":
            observed = sorted(set(ranks)) or None
            return name, observed, observed == [expected]
        if name == "t_matches_enumeration":
            observed = all(r.t == len(points) for r in reports)
            return name, observed, observed is expected
        return _per_seed_check(name, expected, reports)

    return _check_records(entry["checks"], observe)


def _run_enumeration(entry: dict) -> list:
    checks = []
    for item in entry["lists"]:
        if item["profile"] not in PROFILES:
            raise UnknownScenarioError(f"unknown constraint profile {item['profile']!r}")
        found = enumerate_degree_types(item["d"], item["delta"], PROFILES[item["profile"]])
        observed = [list(dt.degrees) for dt in found]
        name = f"list ({item['d']},{item['delta']}) {item['profile']}"
        if "expected" in item:
            expected, passed = item["expected"], observed == item["expected"]
        else:
            expected, passed = item["contains"], item["contains"] in observed
            name += " contains"
        checks.append(CheckRecord(name, expected, observed, item["tag"], passed))
    for rej in entry.get("rejections", []):
        witnesses = explain_rejection(rej["d"], rej["delta"], tuple(rej["degrees"]))
        expected = [rej["reason"], rej["index"]]
        checks.append(
            CheckRecord(
                f"rejection {tuple(rej['degrees'])}",
                expected,
                [list(w) for w in witnesses],
                rej["tag"],
                tuple(expected) in witnesses,
            )
        )
    return checks


def _run_kummer(entry: dict, pair_budget) -> "tuple[list, bool]":
    result = search_sixteen_nodes(PrimeField(entry["p"]), entry["seed"], entry["budget"])
    if result is None:
        return [CheckRecord("found", True, False, "identity", False)], True
    report = result.report

    def observe(name, expected, check):
        if name == "t":
            return name, report.t, report.t == expected
        if name == "reduced_certified":
            return name, report.reduced_certified, report.reduced_certified is expected
        if name == "redetermination":
            rerun = count_nodes(
                result.surface, seed=result.node_seed, pair_budget=pair_budget
            )
            observed = (
                rerun.t == report.t
                and rerun.reduced_certified == report.reduced_certified
                and rerun.per_chart == report.per_chart
            )
            return name, observed, observed is expected
        return None

    return _check_records(entry["checks"], observe), False


def run_scenario(
    scenario_id: str,
    workers: int = 1,
    pair_budget: "int | None" = None,
) -> ScenarioResult:
    manifest = load_manifest()
    try:
        entry = manifest["scenarios"][scenario_id]
    except KeyError:
        raise UnknownScenarioError(
            f"unknown scenario {scenario_id!r}; known: {', '.join(SCENARIO_IDS)}"
        ) from None
    field = field_from_json(manifest["field"])
    start = time.perf_counter()
    skipped = False
    try:
        kind = entry["kind"]
        if kind == "degree-type":
            checks = _run_degree_type(entry, field, workers, pair_budget)
        elif kind == "fixture":
            checks = _run_fixture(entry, workers, pair_budget)
        elif kind == "enumeration":
            checks = _run_enumeration(entry)
        elif kind == "kummer":
            checks, skipped = _run_kummer(entry, pair_budget)
        else:
            raise UnknownScenarioError(f"unknown scenario kind {kind!r}")
    except _PIPELINE_ERRORS as exc:
        checks = [
            CheckRecord(
                "pipeline",
                "completes",
                f"{type(exc).__name__}: {exc}",
                "identity",
                False,
            )
        ]
    wall = time.perf_counter() - start
    passed = bool(checks) and all(c.passed for c in checks) and not skipped
    return ScenarioResult(scenario_id, passed, skipped, tuple(checks), wall)


def run_all(
    ids=None, workers: int = 1, pair_budget: "int | None" = None
) -> "list[ScenarioResult]":
    """Run several scenarios, fanning out across processes when asked."""
    ids = list(ids) if ids is not None else list(SCENARIO_IDS)
    for sid in ids:
        if sid not in SCENARIO_IDS:
            raise UnknownScenarioError(f"unknown scenario {sid!r}")
    if len(ids) == 1:
        return [run_scenario(ids[0], workers=workers, pair_budget=pair_budget)]
    return _sweep(partial(run_scenario, pair_budget=pair_budget), ids, workers)
