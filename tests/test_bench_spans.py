"""The benchmark tracer (bench/spans.py) and memoization guard (bench/run.py)
against the current package.

The tracer patches library functions by name.  Installing it here makes
a renamed or deleted name fail the suite instead of a traced benchmark
run, and uninstalling must leave every patched attribute as it was.
"""

import sys
from pathlib import Path


def test_tracer_install_and_uninstall_restore_every_attribute(repo_module):
    spans = repo_module("bench/spans.py")
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.uninstall()
    assert patched
    assert not tracer._patches
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_traced_node_pipeline_files_every_basis_under_grevlex(repo_module):
    # the tracer names a basis span by comparing the call's order against
    # polynomials.GREVLEX, at call time: without that name the traced
    # pipeline fails, and a positional groebner_basis argument would be
    # read as an order and filed under the block span
    from symmetroids import nodes
    from symmetroids.fields import PrimeField
    from symmetroids.matrices import DegreeType, SymmetricFormMatrix, surface_from_matrix

    spans = repo_module("bench/spans.py")
    matrix = SymmetricFormMatrix.random(DegreeType(4, 0, (2, 2)), PrimeField(31991), seed=1)
    spec = surface_from_matrix(matrix)
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        report = nodes.count_nodes(spec, seed=1)
        assert nodes.rank_drop_check(matrix, report)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    # chart a only: chart b's colength is read off chart a's quotient,
    # and the rank-drop check reduces the minors modulo chart a's basis
    assert names.count("groebner.basis.grevlex") == 1
    assert "groebner.basis.block" not in names
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_benchmark_memoization_guard_finds_no_report_cache(repo_module, monkeypatch):
    # bench/run.py reads scenarios._REPORT_CACHE after its passes: the
    # name must stay bound, and running a scenario must leave it empty
    from symmetroids.scenarios import run_scenario

    bench_dir = Path(__file__).resolve().parents[1] / "bench"
    loaded_before = set(sys.modules)
    monkeypatch.syspath_prepend(str(bench_dir))
    try:
        run = repo_module("bench/run.py")
    finally:
        for name in ("spans", "workloads"):
            if name not in loaded_before:
                sys.modules.pop(name, None)
    assert run_scenario("cayley-cubic").passed
    assert run.memoization_used() is False
