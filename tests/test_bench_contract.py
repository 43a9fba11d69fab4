"""The benchmark harness in perfbench/ still fits the package it traces.

perfbench/ names idealkit functions by span name and patches module
attributes by name. A rename or deletion in src/ that breaks one of those
names would only show when `perfbench/run.py --trace 1` runs; these checks
catch it in the test suite. Nothing under perfbench/ is changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

if not PERFBENCH.is_dir():
    pytest.skip("no perfbench directory", allow_module_level=True)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


spans = _load("spans")
run = _load("run")
for _short in spans.TRACED_MODULES:
    importlib.import_module(f"{spans.PACKAGE}.{_short}")


def test_every_named_span_is_traced():
    traced = {name for name, *_ in spans._public_targets()}
    named = ({span for span, _, _ in run.LAYER_STATS} | set(run.BREAKDOWN)
             | set(spans.OUTCOMES))
    assert named - traced == set()


def test_every_extra_binding_exists():
    for _, short, attr in spans.EXTRA_BINDINGS:
        assert hasattr(sys.modules[f"{spans.PACKAGE}.{short}"], attr), attr


def test_tracer_installs_and_uninstalls():
    matrix = sys.modules[f"{spans.PACKAGE}.matrix"]
    det = matrix.PolyMatrix.det
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert matrix.PolyMatrix.det is not det
    finally:
        tracer.uninstall()
    assert matrix.PolyMatrix.det is det
