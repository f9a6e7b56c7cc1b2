"""In-memory call tracer for the traced benchmark run.

The tracer wraps the public functions and methods of every rtopt layer
from the outside; the package itself is not changed.  Several modules
bind a function's name at import (``from .problems import
as_input_vector``), so wrapping one module attribute would miss calls:
``install`` rebinds every module-level name in the package that refers to
a wrapped function, and ``check_bindings`` fails if a binding the
benchmark depends on was missed.

Layer boundaries (the run, config load, subproblem solve, Cauchy search,
projected descent, the ``basic-ma`` box search, export) are recorded as
spans with their parent.  Hot leaf calls (input validation, oracle and
corrected-model evaluations, trust-region bookkeeping) are aggregated per
enclosing span as a count and a time.  Self time is a call's duration
minus the calls traced inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter

# (module, attribute, traced name, is a span).  Class attributes are
# given as "Class.method".
TARGETS = (
    ("problems", "as_input_vector", "problems.as_input_vector", False),
    ("problems", "get_problem", "problems.get_problem", True),
    ("problems", "ScalarOracle.value", None, False),
    ("problems", "ScalarOracle.gradient", None, False),
    ("problems", "ProblemPair.evaluate_plant", "problems.pair", False),
    ("problems", "ProblemPair.plant_gradient", "problems.pair", False),
    ("problems", "ProblemPair.evaluate_model", "problems.pair", False),
    ("problems", "ProblemPair.model_gradient", "problems.pair", False),
    ("corrected_model", "CorrectedModel.__init__", "corrected_model.init", False),
    ("corrected_model", "CorrectedModel.value", "corrected_model.value", False),
    ("corrected_model", "CorrectedModel.gradient", "corrected_model.gradient", False),
    ("corrected_model", "CorrectedModel.value_change", "corrected_model.value_change", False),
    ("corrected_model", "ModifierFilter.update", "corrected_model.filter_update", False),
    ("subproblem", "solve_subproblem", "subproblem.solve", True),
    ("subproblem", "cauchy_point", "subproblem.cauchy_point", True),
    ("subproblem", "projected_descent", "subproblem.projected_descent", True),
    ("trust_region", "compute_rho", "trust_region.compute_rho", False),
    ("trust_region", "accept_candidate", "trust_region.accept_candidate", False),
    ("trust_region", "update_radius", "trust_region.update_radius", False),
    ("trust_region", "TrustRegionState.__post_init__", "trust_region.state_init", False),
    ("drivers", "run_basic_ma", "drivers.run", True),
    ("drivers", "run_trust_region", "drivers.run", True),
    ("drivers", "run_ma_tr", "drivers.run", True),
    ("drivers", "_box_minimize", "drivers.box_minimize", True),
    ("reporting", "export_trace", None, True),
    ("reporting", "summarize", "reporting.summarize", True),
    ("reporting", "trace_to_dict", "reporting.trace_to_dict", False),
    ("config", "config_from_dict", "config.config_from_dict", True),
    ("config", "load_config", "config.load_config", True),
    ("config", "run_config", "config.run_config", True),
)

# Import-time bindings the benchmark's numbers depend on: (module,
# attribute) pairs that must hold the traced wrapper once installed.
REQUIRED_BINDINGS = (
    *((m, "as_input_vector")
      for m in ("problems", "corrected_model", "subproblem", "trust_region", "drivers")),
    ("drivers", "solve_subproblem"),
    ("drivers", "projected_descent"),
    ("subproblem", "cauchy_point"),
    ("subproblem", "projected_descent"),
    ("config", "run_basic_ma"),
    ("config", "run_trust_region"),
    ("config", "run_ma_tr"),
    ("config", "get_problem"),
    ("config", "config_from_dict"),
)

SPAN_NAME, SPAN_PARENT, SPAN_ROOT, SPAN_START, SPAN_END, SPAN_LEAVES = range(6)


class Tracer:
    """Spans, per-name call totals and event counts, kept in memory.

    ``totals[name]`` is ``[calls, total seconds, self seconds]``;
    ``events`` counts outcomes seen at the boundaries (accepted
    candidates, degenerate ratios, Cauchy overrides, bytes exported).
    """

    def __init__(self, package):
        self.package = package
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.events = defaultdict(int)
        self.spans: list[list] = []
        self.last_problem = None
        self._roles = weakref.WeakKeyDictionary()
        self._frames: list[list] = []  # [start, traced child seconds]
        self._open: list[int] = []  # indices of open spans
        self._last_root = 0
        self._undo: list[tuple] = []
        self._wrappers: dict[str, object] = {}

    # -- recording -------------------------------------------------------

    def _enter_span(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        root = self.spans[parent][SPAN_ROOT] if parent >= 0 else len(self.spans)
        if parent < 0:
            self._last_root = root
        self.spans.append([name, parent, root, _clock(), 0.0, {}])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _record(self, name: str, frame: list, end: float, span: int | None):
        duration = end - frame[0]
        if self._frames:
            self._frames[-1][1] += duration
        total = self.totals[name]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if span is not None:
            self.spans[span][SPAN_END] = end
            self._open.pop()
        elif self._open:
            leaves = self.spans[self._open[-1]][SPAN_LEAVES]
            leaf = leaves.get(name)
            if leaf is None:
                leaves[name] = [1, duration]
            else:
                leaf[0] += 1
                leaf[1] += duration

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into rtopt."""
        index = self._enter_span(name)
        frame = [_clock(), 0.0]
        self._frames.append(frame)
        try:
            yield
        finally:
            end = _clock()
            self._frames.pop()
            self._record(name, frame, end, index)

    def _wrap(self, fn, name, is_span, name_of=None, after=None):
        frames = self._frames

        def traced(*args, **kwargs):
            key = name if name_of is None else name_of(args, kwargs)
            index = self._enter_span(key) if is_span else None
            frame = [_clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                frames.pop()
                self._record(key, frame, end, index)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- outcome hooks ---------------------------------------------------

    def _oracle_name(self, kind):
        def name_of(args, kwargs):
            return f"problems.{self._roles.get(args[0], 'other')}_{kind}"

        return name_of

    def _after_get_problem(self, pair):
        self._roles[pair.plant] = "plant"
        self._roles[pair.model] = "model"
        self.last_problem = pair

    def _after_solve(self, result):
        self.events["subproblem.override"] += bool(result.cauchy_override_applied)
        self.events["subproblem.descent_evaluations"] += result.descent_evaluations

    def _after_rho(self, rho):
        self.events["trust_region.degenerate"] += rho is None

    def _after_accept(self, accepted):
        self.events["trust_region.accepted"] += bool(accepted)

    def _after_export(self, path):
        self.events["reporting.bytes_written"] += path.stat().st_size

    # -- installation ----------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == prefix or n.startswith(prefix + "."))]

    def install(self):
        """Wrap every target and rebind every module-level name that refers
        to a wrapped function."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        pkg = self.package.__name__
        after = {
            "get_problem": self._after_get_problem,
            "solve_subproblem": self._after_solve,
            "compute_rho": self._after_rho,
            "accept_candidate": self._after_accept,
            "export_trace": self._after_export,
        }
        modules = self._modules()
        for module_name, attr, name, is_span in TARGETS:
            module = importlib.import_module(f"{pkg}.{module_name}")
            owner_name, _, member = attr.rpartition(".")
            name_of = None
            if attr.startswith("ScalarOracle."):
                name_of = self._oracle_name(member)
            elif member == "export_trace":
                name_of = _export_name
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                wrapper = self._wrap(original, name, is_span, name_of, after.get(member))
                self._undo.append((owner, member, original))
                setattr(owner, member, wrapper)
                continue
            original = getattr(module, member)
            wrapper = self._wrap(original, name, is_span, name_of, after.get(member))
            self._wrappers[f"{module_name}.{member}"] = wrapper
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._undo.append((site, key, original))
                        setattr(site, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def check_bindings(self) -> list[str]:
        """Names still bound to an unwrapped original after ``install``."""
        pkg = self.package.__name__
        originals = {id(w.__wrapped__) for w in self._wrappers.values()}
        missed = [f"{module.__name__}.{key}" for module in self._modules()
                  for key, value in vars(module).items() if id(value) in originals]
        for module_name, attr in REQUIRED_BINDINGS:
            value = getattr(importlib.import_module(f"{pkg}.{module_name}"), attr)
            if getattr(value, "__wrapped__", None) is None:
                missed.append(f"{pkg}.{module_name}.{attr}")
        return sorted(set(missed))

    # -- output ----------------------------------------------------------

    def layer_self_seconds(self) -> dict[str, float]:
        out = defaultdict(float)
        for name, (_, _, self_s) in self.totals.items():
            out[name.split(".", 1)[0]] += self_s
        return dict(out)

    def leaf_calls_under(self, span_name: str, leaf: str) -> int:
        return sum(s[SPAN_LEAVES].get(leaf, (0,))[0]
                   for s in self.spans if s[SPAN_NAME] == span_name)

    def calls_in_last_root(self, leaf: str) -> int:
        """Calls of ``leaf`` under the most recent top-level span."""
        return sum(s[SPAN_LEAVES].get(leaf, (0,))[0] for s in self.spans[self._last_root:])

    def write_spans(self, path):
        names = sorted({s[SPAN_NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "columns": ["name", "parent", "root", "start_s", "end_s", "leaves"],
            "names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _export_name(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs.get("format")
    return f"reporting.export_{fmt}"
