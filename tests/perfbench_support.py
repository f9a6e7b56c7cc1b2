"""The benchmark's own modules and instruments, for the tests that use them.

``perfbench/workloads.py``, ``tracer.py`` and ``checks.py`` are loaded by
path, read-only, once for every test file; none imports another benchmark
module.  ``input_checks`` counts ``as_input_vector`` calls with the
benchmark's tracer, which rebinds the function at every rtopt module that
imports it, so a check added at any import site counts.
"""

import importlib.util
import sys
from pathlib import Path

import rtopt
from rtopt import problems

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench_module(name: str):
    """``perfbench/<name>.py``, which imports no other benchmark module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


WORKLOADS, TRACER, CHECKS = map(load_perfbench_module, ("workloads", "tracer", "checks"))


def input_checks(run) -> tuple[int, object]:
    """``(calls, result)``: the ``as_input_vector`` calls ``run()`` makes,
    counted by the benchmark's tracer with every binding it needs in place,
    and what ``run()`` returns."""
    tracer = TRACER.Tracer(rtopt)
    tracer.install()
    try:
        assert tracer.check_bindings() == []
        result = run()
    finally:
        tracer.uninstall()
    assert not hasattr(problems.as_input_vector, "__wrapped__")
    return tracer.totals["problems.as_input_vector"][0], result
