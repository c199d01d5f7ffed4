"""The benchmark tracer (bench/spans.py) against the current package.

The tracer patches library functions by name.  Installing it here makes
a renamed or deleted name fail the suite instead of a traced benchmark
run, and uninstalling must leave every patched attribute as it was.
"""


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
