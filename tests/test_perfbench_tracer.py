"""The traced benchmark run rebinds rtopt's import-time names.

``perfbench/run.py --trace 1`` refuses to report when a binding listed in
``tracer.REQUIRED_BINDINGS`` was missed, so a module that stops importing
a traced function by name breaks the traced run.  This test catches that
in the ordinary suite.
"""

import importlib.util
from pathlib import Path

import rtopt

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_required_name():
    tracer = load_tracer_module().Tracer(rtopt)
    tracer.install()
    try:
        assert tracer.check_bindings() == []
    finally:
        tracer.uninstall()
    assert not hasattr(rtopt.problems.as_input_vector, "__wrapped__")
    assert not hasattr(rtopt.problems.ScalarOracle.value, "__wrapped__")
