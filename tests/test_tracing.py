"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracing.py`` looks the public functions of each layer up by
name.  Installing and removing it here makes the rename or deletion of one
of them fail the test suite, not only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import toricfrob

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _namespaces():
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name.split(".")[0] == "toricfrob"
    }


def test_tracer_installs_and_restores_every_namespace():
    originals = _namespaces()
    tracer = _tracer_class()()
    tracer.install(toricfrob)
    try:
        traced = _namespaces()
    finally:
        tracer.uninstall()
    assert _namespaces() == originals
    wrapped = {
        (name, attr)
        for name, space in traced.items()
        for attr, value in space.items()
        if value is not originals[name].get(attr)
    }
    for attr in ("frobenius_decompose", "verify_projection_formula"):
        assert ("toricfrob.frobenius", attr) in wrapped
