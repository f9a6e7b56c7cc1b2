"""The three iterative optimization schemes, one loop, its run schema and
traces.

* ``run_ma_tr``: reference-based loop on the gradient-matched corrected
  model; candidates come from the ball-constrained subproblem, acceptance
  and radius follow the achieved/predicted decrease ratio.
* ``run_trust_region``: the same loop with gain 1.  The trust-region
  framework's model also matches the plant value, but that shift cancels
  from the value changes and gradients the loop reads, so it is no
  setting and the iterates are those of ``run_ma_tr``.
* ``run_basic_ma``: the loop's limit of an infinite radius and no
  acceptance test: minimize the corrected model over the whole (boxed)
  input space and always move there.

A driver's keywords are the :class:`RunConfig` fields of its algorithm,
``SETTINGS[algorithm]``.  Every run returns a :class:`RunTrace` holding
one record per iteration, termination metadata, plant-probe counts and
its settings in :class:`RunConfig` field order.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .corrected_model import CorrectedModel, ModifierFilter, check_alpha
from .errors import OracleError, as_float, as_int, as_str, as_vector, or_none, require
from .problems import ProblemPair, as_input_vector, check_noise, lookup_problem
from .subproblem import projected_descent, solve_subproblem
from .trust_region import TrustRegionState, accept_candidate, compute_rho, update_radius

__all__ = [
    "ALGORITHMS",
    "FORMATS",
    "RunConfig",
    "SETTINGS",
    "IterationRecord",
    "RunTrace",
    "run_basic_ma",
    "run_trust_region",
    "run_ma_tr",
    "check_convergence",
    "DEGENERATE",
    "TERMINATION_STATUSES",
]

# Marker stored in a record's rho slot when the predicted model decrease
# was too small for the acceptance ratio to be meaningful.
DEGENERATE = "degenerate"

TERMINATION_STATUSES = (
    "converged",
    "max-iterations",
    "unbounded-subproblem",
    "outside-box",
    "oracle-failure",
    "stalled",
)


ALGORITHMS = ("basic-ma", "trust-region", "ma-tr")
_LOOPS = ("trust-region", "ma-tr")
FORMATS = ("csv", "json")
# the output suffixes, each naming its trace format
_SUFFIXES = tuple("." + f for f in FORMATS)


def _check_tolerance(tolerance: float) -> float:
    """The stopping tolerance, a finite number > 0, as a float."""
    tolerance = as_float("tolerance", tolerance)
    require(tolerance > 0.0, "tolerance", "must be finite and > 0, got {}", tolerance)
    return tolerance


def _setting(default=MISSING, algorithms=ALGORITHMS, recorded=True):
    """A RunConfig field: ``algorithms`` may set it in a config and, if
    ``recorded``, record it in ``trace.config``."""
    return field(default=default, metadata={"algorithms": algorithms, "recorded": recorded})


@dataclass(frozen=True)
class RunConfig:
    """One run's settings: the config-file schema, the drivers' defaults
    and, for the fields each algorithm records, the key order of
    ``trace.config``.

    It is frozen, and building or ``replace``-ing one applies every type
    rule, the one each field's annotation names, and the range rule of every
    setting, ``noise_level`` and ``seed`` by the rule ``ProblemPair`` applies
    too: config files, driver keywords and hand-built configs are valid once
    built.  ``u0`` is stored as a tuple of floats, so no field can change in
    place; ``trace.config`` records it as a list.  The trust-region helpers
    read the same fields, ``radius_max`` None being unbounded.  The stopping
    rules are among them: the schemes iterate forever, and stopping is the
    run's setting.
    """

    problem: str = _setting()
    algorithm: str = _setting()
    u0: tuple = _setting()
    delta0: float = _setting(1.0, _LOOPS)
    eta1: float = _setting(0.1, _LOOPS)
    eta2: float = _setting(0.9, _LOOPS)
    expansion_factor: float = _setting(2.0, _LOOPS)
    shrink_factor: float = _setting(0.5, _LOOPS)
    radius_max: float | None = _setting(None, _LOOPS)
    alpha: float = _setting(1.0, ("basic-ma", "ma-tr"))
    noise_level: float = _setting(0.0)
    seed: int = _setting(0)
    tolerance: float = _setting(1e-6)
    max_iterations: int = _setting(500)
    max_plant_evaluations: int = _setting(10_000)
    box_halfwidth: float = _setting(1e6, ("basic-ma",))
    output: str | None = _setting(None, recorded=False)

    @property
    def format(self) -> str | None:
        """The trace format ``output`` names by its suffix, or None without
        an output."""
        return None if self.output is None else self.output.rpartition(".")[2]

    def __post_init__(self):
        """Read every field through the type rule its annotation names and
        store it as its Python type, check ``algorithm`` against its names,
        reject a field it does not take unless it holds its default, check
        the suffix of ``output``, then apply the range rule of every
        setting.  A violation raises ``ConfigError`` naming the field."""
        for name, rule, default in _TYPED:
            value = getattr(self, name)
            if value is not default:  # a default is already of its type
                object.__setattr__(self, name, rule(name, value))
        algorithm, output = self.algorithm, self.output
        require(algorithm in ALGORITHMS, "algorithm", "must be one of {}; got {!r}",
                ", ".join(ALGORITHMS), algorithm)
        for name, takes, default in _RESTRICTED:
            require(algorithm in takes or getattr(self, name) == default, name,
                    "not applicable to algorithm {!r} (valid for {})", algorithm, ", ".join(takes))
        require(output is None or output.endswith(_SUFFIXES), "output",
                "must end in {}; got {!r}", " or ".join(_SUFFIXES), output)
        check_noise(self.noise_level, self.seed)
        _check_tolerance(self.tolerance)
        require(self.max_iterations >= 1, "max_iterations", "must be >= 1")
        probes = self.max_plant_evaluations
        require(probes >= 2, "max_plant_evaluations", "must be >= 2: the start probes twice")
        eta1, eta2, radius_max = self.eta1, self.eta2, self.radius_max
        require(0.0 < eta1 <= eta2 < 1.0, "eta1",
                "require 0 < eta1 <= eta2 < 1, got eta1={}, eta2={}", eta1, eta2)
        shrink, expansion = self.shrink_factor, self.expansion_factor
        require(0.0 < shrink < 1.0, "shrink_factor", "must lie in (0, 1), got {}", shrink)
        require(expansion > 1.0, "expansion_factor", "must be finite and > 1, got {}", expansion)
        if radius_max is not None:  # None: unbounded
            require(radius_max > 0.0, "radius_max", "must be > 0, got {}", radius_max)
        check_alpha(self.alpha)
        delta0 = self.delta0
        require(delta0 > 0.0, "delta0", "must be finite and > 0, got {}", delta0)
        require(radius_max is None or delta0 <= radius_max, "delta0", "must not exceed radius_max")
        halfwidth = self.box_halfwidth
        require(halfwidth > 0.0, "box_halfwidth", "must be finite and > 0, got {}", halfwidth)


# RunConfig field annotation -> type rule
_RULES = {
    "str": as_str,
    "tuple": as_vector,
    "float": as_float,
    "int": as_int,
    "float | None": or_none(as_float),
    "str | None": or_none(as_str),
}
# (name, type rule, default) of each RunConfig field, in field order
_TYPED = tuple((f.name, _RULES[f.type], f.default) for f in fields(RunConfig))
# (name, algorithms, default) of each RunConfig field that some algorithm does not take
_RESTRICTED = tuple((f.name, f.metadata["algorithms"], f.default) for f in fields(RunConfig)
                    if f.metadata["algorithms"] != ALGORITHMS)

# trace.config keys per algorithm, in RunConfig field order
_RECORDED = {
    a: tuple(
        f.name
        for f in fields(RunConfig)
        if f.metadata["recorded"] and a in f.metadata["algorithms"]
    )
    for a in ALGORITHMS
}

# each driver's keywords: its algorithm's recorded fields but those its problem and u0 give
_GIVEN = ("problem", "algorithm", "u0", "noise_level", "seed")
SETTINGS = {a: tuple(n for n in _RECORDED[a] if n not in _GIVEN) for a in ALGORITHMS}


@dataclass
class IterationRecord:
    """Snapshot of one loop iteration.

    ``reference`` is the point the corrected model was anchored at during
    the iteration; ``applied_input`` is the candidate actually applied to
    the plant.  ``rho`` is a float, the string ``"degenerate"``, or None
    for the loop without an acceptance test.  ``radius`` is the radius the
    subproblem used, or None likewise.
    """

    k: int
    applied_input: np.ndarray
    reference: np.ndarray
    plant_value_at_reference: float
    plant_gradient_norm_at_reference: float
    rho: float | str | None
    radius: float | None
    accepted: bool
    cauchy_override: bool
    modifiers: np.ndarray


@dataclass
class RunTrace:
    problem_id: str
    algorithm: str
    config: dict
    records: list[IterationRecord]
    termination_status: str
    plant_value_evaluations: int
    plant_gradient_evaluations: int
    final_reference: np.ndarray
    final_plant_value: float
    final_gradient_norm: float
    notes: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def plant_evaluation_count(self) -> int:
        return self.plant_value_evaluations + self.plant_gradient_evaluations

    @property
    def accepted_count(self) -> int:
        return sum(1 for r in self.records if r.accepted)


def check_convergence(trace: RunTrace, tolerance: float) -> bool:
    """Whether the trace's final reference is first-order critical to the
    given tolerance (measured plant gradient norm)."""
    tolerance = _check_tolerance(tolerance)
    if not np.isfinite(trace.final_gradient_norm):
        raise ValueError("trace has no finite final gradient norm")
    return trace.final_gradient_norm <= tolerance


# the box search without a declared Hessian: random starts, the descent
# budget of each start, and the margin within which a point is on the box
_BOX_RANDOM_STARTS = 8
_BOX_BUDGET_PER_START = 2000
_BOX_BOUNDARY_RTOL = 1e-9


def _box_minimize(model: CorrectedModel, halfwidth: float, rng: np.random.Generator | None):
    """The ``basic-ma`` step: the corrected model's minimizer over the box
    ``[-halfwidth, halfwidth]^n``.  Returns ``(point, status)``, where
    ``status`` is None or the status that ends the run.  ``current`` is
    the model's anchor.

    With a declared Hessian ``q diag(w) q^T`` (``w`` ascending) the step
    is ``s = q (q^T g / w)`` over the nonzero eigenvalues, and the
    minimizer nearest ``current`` is ``current - s``.  Zero is judged to
    rounding, with ``tol = 10 n eps``: ``|w_i| <= tol max|w|`` is zero,
    and ``g`` lies off H's range when its part on those eigenvectors
    exceeds ``tol (|g| + max|w| (|s| + |current|))``, the rounding scale
    of ``g`` and of ``H s = g``.  The model is unbounded below when ``g``
    lies off the range or ``w[0] < -tol max|w|``.
    Without a Hessian, projected descent runs from the origin, ``current``
    and ``_BOX_RANDOM_STARTS`` draws of ``rng``; it sees only the box, so a
    best point on its boundary with the descent direction pointing outward
    is reported like a minimizer beyond the box.
    """
    current = model.anchor
    w, q, gt = model.anchor_terms()[2:]
    if w is not None:
        tol = 10 * w.size * math.ulp(1.0)  # 10 n eps
        scale = max(-w[0], w[-1])  # max |w|
        if w[0] < -tol * scale:
            return current, "unbounded-subproblem"
        if w[0] > tol * scale:  # no null eigenvalue: w ascends from w[0]
            step = gt / w
        else:
            null = np.abs(w) <= tol * scale
            step = np.where(null, 0.0, gt) / np.where(null, 1.0, w)
            if np.linalg.norm(gt[null]) > tol * (
                np.linalg.norm(gt) + scale * (np.linalg.norm(step) + np.linalg.norm(current))
            ):
                return current, "unbounded-subproblem"
        point = current - q @ step
        point.setflags(write=False)
        # an overflowed step is outside too: NaN fails the comparison
        return point, None if all(abs(x) <= halfwidth for x in point.tolist()) else "outside-box"

    def project(u):
        return np.clip(u, -halfwidth, halfwidth)

    starts = [np.zeros(model.dimension), current]
    starts.extend(rng.normal(scale=10.0, size=model.dimension) for _ in range(_BOX_RANDOM_STARTS))

    best_x = None
    best_f = np.inf
    for s in starts:
        x, fx, _ = projected_descent(
            model.value_change, model.gradient, project(s), project, _BOX_BUDGET_PER_START
        )
        if fx < best_f:
            best_x, best_f = x, fx

    g = model.gradient(best_x)
    margin = halfwidth * _BOX_BOUNDARY_RTOL
    upper, lower = best_x >= halfwidth - margin, best_x <= margin - halfwidth
    outward = (upper & (g < 0.0)) | (lower & (g > 0.0))
    return best_x, "outside-box" if outward.any() else None


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a measured gradient; inf where its square overflows."""
    return math.sqrt(float(v.dot(v)))


def _run(problem: ProblemPair, cfg: RunConfig) -> RunTrace:
    """The loop of all three drivers, running ``cfg`` on ``problem``.
    The trust-region loops step to the corrected model's minimizer in the
    ball of the current radius, and the achieved/predicted decrease ratio
    decides acceptance and the next radius.  ``basic-ma`` is the limit of
    an infinite radius and no acceptance test: it steps by
    ``_box_minimize`` and applies every candidate.
    """
    _check_length(cfg, problem.dimension)
    ball = cfg.algorithm != "basic-ma"
    # Each point is checked once, the start here and a candidate by its solver, and is then
    # handed over read-only, never copied: the oracles and accept_candidate take it (_checked).
    u = as_input_vector(cfg.u0, problem.dimension)
    config = {name: getattr(cfg, name) for name in _RECORDED[cfg.algorithm]}
    # a config may name its problem by label; the trace records the catalog id
    config["problem"], config["u0"] = problem.identifier, u.tolist()
    v0, g0 = problem.plant_evaluations()
    notes = ["no convergence guarantee"] if cfg.alpha < 1.0 else []
    # the box search's random starts; a declared Hessian needs none
    rng = None if ball or problem.model.hessian is not None else np.random.default_rng(cfg.seed)

    records: list[IterationRecord] = []
    status = None
    # the probe count past which a pass cannot afford its two probes
    budget = cfg.max_plant_evaluations - 2 + v0 + g0
    ref_grad = unmeasured = np.full(problem.dimension, np.nan)
    state = model = model_value = model_grad = None
    filt = ModifierFilter(cfg.alpha, problem.dimension)
    try:
        ref_value = problem.evaluate_plant(u, _checked=True)
        ref_grad = problem.plant_gradient(u, _checked=True)
        radius0 = cfg.delta0 if ball else math.inf
        state = TrustRegionState(reference=u, radius=radius0, reference_plant_value=ref_value)
        gnorm = _norm(ref_grad)
        for k in range(cfg.max_iterations + 1):
            # Every stop that needs no solve; the pass at the cap only checks.
            # A ball shrunk to 0.0 predicts no decrease: every later iteration
            # would be degenerate and only shrink the radius.
            if gnorm <= cfg.tolerance:
                status = "converged"
            elif k == cfg.max_iterations or sum(problem.plant_evaluations()) > budget:
                status = "max-iterations"
            elif state.radius == 0.0:
                status = "stalled"
            if status is not None:
                break
            # A rejected step keeps the reference and its measurements (models are never
            # noisy).  At gain 1 the filter would return the same bits, so the modifiers and
            # the model with its anchor terms stay; a lower gain steps it every iteration.
            if model is None or filt.alpha < 1.0:
                if model_grad is None:
                    model_grad = problem.model.gradient(state.reference, _checked=True)
                    # the start, or one the solve did not measure; basic-ma's model
                    # measures it when a step needs it, which the closed form never does
                    if model_value is None and ball:
                        model_value = problem.model.value(state.reference, _checked=True)
                lam = filt.update(ref_grad, model_grad)
                model = CorrectedModel(problem.model, lam, state.reference,
                                       _run=(model_value, model_grad))
            anchor = state.reference
            anchor_value = state.reference_plant_value
            radius = state.radius
            if ball:
                result = solve_subproblem(model, radius)
                candidate = result.candidate
                if result.predicted_change >= 0.0:  # no predicted decrease
                    status = "stalled"
            else:
                candidate, status = _box_minimize(model, cfg.box_halfwidth, rng)
            if status is not None:
                break
            cand_value = problem.evaluate_plant(candidate, _checked=True)
            if ball:
                # The model enters the ratio as its change from the anchor,
                # which is the same with or without the value shift.
                rho = compute_rho(anchor_value, cand_value, result.predicted_change)
                accepted = accept_candidate(state, candidate, cand_value, rho, cfg, _checked=True)
                state.radius = update_radius(radius, rho, cfg)
                rho = DEGENERATE if rho is None else rho
                override = result.cauchy_override_applied
            else:
                rho, radius, accepted, override = None, None, True, False
                state.reference, state.reference_plant_value = candidate, cand_value
            # the record's fields in order; the modifiers have the bytes of this iteration's update
            records.append(IterationRecord(k, candidate, anchor, anchor_value, gnorm, rho, radius,
                                           accepted, override, model.modifiers))
            if accepted:  # NaN if the probe fails: the old gradient is not the new one's
                model_value = model.measured_base_value(state.reference)
                ref_grad, model, model_grad = unmeasured, None, None
                ref_grad = problem.plant_gradient(state.reference, _checked=True)
                gnorm = _norm(ref_grad)
    except OracleError:
        status = "oracle-failure"

    if state is None:  # initial measurement failed
        final_ref, final_val = u, float("nan")
    else:
        final_ref, final_val = state.reference, state.reference_plant_value
    v1, g1 = problem.plant_evaluations()
    return RunTrace(
        problem_id=problem.identifier,
        algorithm=cfg.algorithm,
        config=config,
        records=records,
        termination_status=status,
        plant_value_evaluations=v1 - v0,
        plant_gradient_evaluations=g1 - g0,
        final_reference=final_ref,
        final_plant_value=final_val,
        final_gradient_norm=_norm(ref_grad),
        notes=notes,
    )


def _check_length(cfg: RunConfig, dimension: int) -> None:
    """Reject a ``cfg`` whose ``u0`` does not have ``dimension`` entries."""
    n = len(cfg.u0)
    require(n == dimension, "u0", "length {} does not match problem dimension {}", n, dimension)


def _drive(algorithm, problem, u0, settings) -> RunTrace:
    """A driver call as the RunConfig it describes, run on ``problem``.
    ``settings`` are the call's keywords, each a field of
    ``SETTINGS[algorithm]``; the rest take RunConfig's defaults.
    ``run_config`` instead passes the RunConfig it built ``problem`` from,
    alone, as the private ``_config``, with its ``u0``: a config of this
    algorithm, problem, noise, seed and ``u0``, checked when it was built,
    runs as it is.  Any other ``_config`` is not a setting."""
    cfg = settings.get("_config") if len(settings) == 1 else None
    if not (isinstance(cfg, RunConfig) and cfg.algorithm == algorithm and cfg.u0 is u0
            and (cfg.noise_level, cfg.seed) == (problem.noise_level, problem.seed)
            and lookup_problem(cfg.problem)[0] == problem.identifier):
        takes = SETTINGS[algorithm]
        for name in settings:
            require(name in takes, name, "not a setting of {} (takes {})", algorithm,
                    ", ".join(takes))
        cfg = RunConfig(
            problem=problem.identifier,
            algorithm=algorithm,
            u0=u0,
            noise_level=problem.noise_level,
            seed=problem.seed,
            **settings,
        )
    # NumPy overflow inside a run is quiet: its inf or NaN ends the run in a status
    with np.errstate(over="ignore", invalid="ignore"):
        return _run(problem, cfg)


def run_basic_ma(problem: ProblemPair, u0, **settings) -> RunTrace:
    """Gradient-matched model correction with a whole-box model solve and
    no acceptance test, the trust-region loop's limit of an infinite
    radius: the minimizer is always applied and becomes the next
    correction point.  The box search, which runs only when the model
    declares no Hessian, is seeded by the problem's seed.

    Terminates when the measured plant gradient at the current iterate is
    within tolerance, when the corrected model is unbounded below
    (``unbounded-subproblem``) or its minimizer leaves the box
    (``outside-box``), or at the iteration/evaluation caps.
    """
    return _drive("basic-ma", problem, u0, settings)


def run_trust_region(problem: ProblemPair, u0, **settings) -> RunTrace:
    """Reference-based loop on the value-and-gradient matched model: the
    ``ma-tr`` loop with gain 1, since the value shift changes no iterate.
    """
    return _drive("trust-region", problem, u0, settings)


def run_ma_tr(problem: ProblemPair, u0, **settings) -> RunTrace:
    """Reference-based loop on the gradient-matched corrected model.

    With ``alpha`` below 1 the correction is filtered and the run is
    annotated accordingly.
    """
    return _drive("ma-tr", problem, u0, settings)
