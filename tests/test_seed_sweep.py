"""scripts/seed_sweep.py: a seed the pipeline rejects is tallied, not fatal."""

import sys

import pytest


def test_sweep_tallies_certificate_errors(repo_module, monkeypatch, capsys):
    # over F_7 the (2,2) quartic's 8 nodes leave no room for the certificate
    sweep = repo_module("scripts/seed_sweep.py")
    monkeypatch.setattr(
        sys,
        "argv",
        ["seed_sweep.py", "--type", "(2,2)", "--d", "4", "--p", "7", "--seeds", "1", "2"],
    )
    assert sweep.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        "seed 1: CertificateError",
        "seed 2: CertificateError",
        "tally: {'CertificateError': 2}",
    ]


@pytest.mark.parametrize(
    "error",
    [
        "DegenerateMatrixError",
        "DegenerateSurfaceError",
        "ChartMismatchError",
        "CertificateError",
        "ResourceBudgetError",
    ],
)
def test_run_seed_names_each_pipeline_error(repo_module, monkeypatch, error):
    sweep = repo_module("scripts/seed_sweep.py")
    exc_class = getattr(sweep, error)

    def fail(*args, **kwargs):
        raise exc_class("injected")

    monkeypatch.setattr(sweep, "surface_from_matrix", fail)
    assert sweep.run_seed((4, 0, (2, 2), 31991, 3)) == (3, error)
