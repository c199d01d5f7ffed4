"""Every library function has a caller outside the test suite.

A top-level function or a public method of `src/symmetroids` counts as
reachable when its name appears as an identifier (a name or an
attribute, not an import or a string) somewhere in `src/`, `scripts/`
or `bench/*.py`.  Code that only the tests call fails this test unless
it is on the allowlist below, each entry with its reason.  The match is
by bare name, so it errs towards "reachable".
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

ALLOWLIST = {
    # paper-claim acceptance tests
    "congruence_transform": "congruence invariance of the node count (acceptance criterion 6)",
    "random_congruence_matrix": "draws the congruences of acceptance criterion 6",
    "audit_s_polynomials": "criterion-free Buchberger audit of the acceptance tests",
    # tracer hooks
    "radical_membership": "bench/spans.py wraps nodes.radical_membership by name",
    # public entry points, exported from the package
    "run_all": "runs every pinned scenario, the library form of verify-case",
}


def library_functions():
    """{name: module file} of top-level functions and public methods."""
    found = {}
    for path in sorted((REPO_ROOT / "src" / "symmetroids").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                found[node.name] = path.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = path.name
    return found


def referenced_identifiers():
    paths = [
        *(REPO_ROOT / "src").rglob("*.py"),
        *(REPO_ROOT / "scripts").rglob("*.py"),
        *(REPO_ROOT / "bench").glob("*.py"),
    ]
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_library_function_has_a_caller_outside_the_tests():
    references = referenced_identifiers()
    unreached = {
        name: module
        for name, module in library_functions().items()
        if name.rsplit(".", 1)[-1] not in references
    }
    assert {n: m for n, m in unreached.items() if n not in ALLOWLIST} == {}
    # an entry that gained a caller or lost its definition leaves the list
    assert sorted(unreached) == sorted(ALLOWLIST)
