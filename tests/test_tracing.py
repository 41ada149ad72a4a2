"""The benchmark's tracer wraps package functions by name: every name must resolve.

``perfbench/tracing.py`` looks up each name in ``SPANS`` and ``COUNTED`` when
it installs, so a traced name that the package deletes or renames would fail
only in a traced benchmark run.  Installing and uninstalling the tracer here
makes that a test failure.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attribute(tracing, name):
    owner, attr = tracing._resolve(name)
    return owner.__dict__[attr]


def test_tracer_wraps_and_restores_every_traced_name():
    tracing = _load_tracing()
    names = tracing.SPANS + tracing.COUNTED
    originals = {name: _attribute(tracing, name) for name in names}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert [nm for nm in names if _attribute(tracing, nm) is originals[nm]] == []
    finally:
        tracer.uninstall()
    assert [nm for nm in names if _attribute(tracing, nm) is not originals[nm]] == []
