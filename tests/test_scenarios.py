"""Manifest-driven verification scenarios: shapes, tags, fast end-to-end runs."""

import json

import pytest

from symmetroids.scenarios import (
    SCENARIO_IDS,
    UnknownScenarioError,
    load_fixture_surface,
    load_manifest,
    run_all,
    run_scenario,
)

FAST_SCENARIOS = ("d4-delta0-type22", "d4-delta1-type13", "cayley-cubic", "enumeration-all")


def test_manifest_lists_every_scenario():
    manifest = load_manifest()
    assert set(manifest["scenarios"]) == set(SCENARIO_IDS)
    assert len(SCENARIO_IDS) == 8


def test_manifest_checks_carry_provenance_tags():
    manifest = load_manifest()
    allowed = {"classical", "oracle", "identity"}
    seen = set()
    for body in manifest["scenarios"].values():
        for check in body.get("checks", []):
            assert check["tag"] in allowed, check
            seen.add(check["tag"])
        for entry in body.get("lists", []):
            seen.add(entry["tag"])
    assert seen == allowed


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenarioError):
        run_scenario("no-such-scenario")


def test_fixture_surface_loads():
    spec = load_fixture_surface("cayley_cubic.json")
    assert spec.d == 3
    assert spec.ring.field.p == 7


@pytest.mark.parametrize("scenario_id", FAST_SCENARIOS)
def test_fast_scenarios_pass(scenario_id):
    result = run_scenario(scenario_id)
    assert result.passed, result.format_text()
    assert not result.skipped
    assert result.checks
    for check in result.checks:
        assert check.passed, (scenario_id, check.name)


def test_result_json_shape():
    result = run_scenario("d4-delta0-type22")
    obj = result.to_json_dict()
    text = json.dumps(obj)
    assert json.loads(text) == obj
    assert obj["scenario"] == "d4-delta0-type22"
    assert obj["passed"] is True
    names = {c["name"] for c in obj["checks"]}
    assert "t" in names
    assert any("duality" in n for n in names)
    for check in obj["checks"]:
        assert {"name", "expected", "observed", "tag", "passed"} <= set(check)


def test_result_format_text_mentions_every_check():
    result = run_scenario("enumeration-all")
    text = result.format_text()
    for check in result.checks:
        assert check.name in text


def test_run_all_subset():
    results = run_all(["cayley-cubic", "enumeration-all"])
    assert [r.scenario for r in results] == ["cayley-cubic", "enumeration-all"]
    assert all(r.passed for r in results)


def test_wall_time_recorded():
    result = run_scenario("enumeration-all")
    assert result.wall_time >= 0


def test_run_all_workers_keep_pair_budget():
    # a budget of one S-pair stops both pipelines; worker processes must
    # see the same budget as the serial run
    ids = ["d4-delta0-type22", "cayley-cubic"]
    serial = run_all(ids, workers=1, pair_budget=1)
    pooled = run_all(ids, workers=2, pair_budget=1)

    def strip(results):
        return [{k: v for k, v in r.to_json_dict().items() if k != "wall_time"} for r in results]

    assert strip(pooled) == strip(serial)
    assert not any(r.passed for r in pooled)


def test_import_leaves_process_pools_unloaded(fresh_python):
    # a serial run must not pay for loading the process-pool machinery
    code = (
        "import sys, symmetroids; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    assert fresh_python(code) == "[]"


def test_pair_budget_env_reaches_a_repeated_scenario(monkeypatch):
    # the budget in force decides the run: a scenario that passed once
    # in this process must hit the budget when it is lowered
    assert run_scenario("d4-delta0-type22").passed
    monkeypatch.setenv("SYMMETROIDS_PAIR_BUDGET", "1")
    result = run_scenario("d4-delta0-type22")
    assert not result.passed
    [check] = result.checks
    assert check.name == "pipeline"
    assert not check.passed
    assert check.observed.startswith("ResourceBudgetError:")


@pytest.mark.parametrize("scenario_id", ["d4-delta0-type22", "cayley-cubic"])
def test_seed_fan_out_matches_the_serial_run(scenario_id):
    def strip(result):
        return {k: v for k, v in result.to_json_dict().items() if k != "wall_time"}

    serial = run_scenario(scenario_id)
    pooled = run_scenario(scenario_id, workers=2)
    assert strip(pooled) == strip(serial)
    assert pooled.passed
