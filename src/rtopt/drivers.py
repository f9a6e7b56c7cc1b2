"""The three iterative optimization loops, their run schema and traces.

* ``run_basic_ma``: correct the model at the latest iterate, minimize the
  corrected model over the whole (boxed) input space, always move there.
* ``run_ma_tr``: reference-based loop on the gradient-matched corrected
  model; candidates come from the ball-constrained subproblem, acceptance
  and radius follow the achieved/predicted decrease ratio.
* ``run_trust_region``: the same loop with gain 1 and the value shift
  recorded.  The loop reads only value changes and gradients, from which
  the shift cancels, so the iterates are those of ``run_ma_tr``.

Every run returns a :class:`RunTrace` holding one record per iteration,
termination metadata, plant-probe counts and its settings in
:class:`RunConfig` field order.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .corrected_model import CorrectedModel, ModifierFilter, check_alpha
from .errors import OracleError, require
from .problems import ProblemPair, as_input_vector
from .subproblem import projected_descent, solve_subproblem
from .trust_region import (
    TrustRegionConstants,
    TrustRegionState,
    accept_candidate,
    compute_rho,
    update_radius,
)

__all__ = [
    "ALGORITHMS",
    "FORMATS",
    "RunConfig",
    "StoppingCriteria",
    "check_arguments",
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
    "oracle-failure",
    "stalled",
)


ALGORITHMS = ("basic-ma", "trust-region", "ma-tr")
_LOOPS = ("trust-region", "ma-tr")
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class StoppingCriteria:
    """Loop termination plumbing; the underlying schemes iterate forever."""

    tolerance: float = 1e-6
    max_iterations: int = 500
    max_plant_evaluations: int = 10_000

    def __post_init__(self):
        require(
            0.0 < self.tolerance < math.inf,
            "tolerance",
            f"must be finite and > 0, got {self.tolerance}",
        )
        require(self.max_iterations >= 1, "max_iterations", "must be >= 1")
        require(self.max_plant_evaluations >= 1, "max_plant_evaluations", "must be >= 1")


def _setting(default=MISSING, algorithms=ALGORITHMS, recorded=None, choices=None):
    """A RunConfig field: ``algorithms`` may set it in a config, ``recorded``
    (by default the same) record it in ``trace.config``, and ``choices``
    lists its allowed values when it is a name."""
    return field(
        default=default,
        metadata={
            "algorithms": algorithms,
            "recorded": algorithms if recorded is None else recorded,
            "choices": choices,
        },
    )


@dataclass
class RunConfig:
    """One run's settings: the config-file schema and, for the fields each
    algorithm records, the key order of ``trace.config``.

    Field types and metadata drive config parsing; the range rules live in
    the objects a run builds (``TrustRegionConstants``,
    ``StoppingCriteria``, ``ProblemPair``) and in ``check_arguments``.
    ``trust-region`` records the gain and the shift it runs with but takes
    neither as a setting.
    """

    problem: str = _setting()
    algorithm: str = _setting(choices=ALGORITHMS)
    u0: list = _setting()
    delta0: float = _setting(1.0, _LOOPS)
    eta1: float = _setting(TrustRegionConstants.eta1, _LOOPS)
    eta2: float = _setting(TrustRegionConstants.eta2, _LOOPS)
    gamma1: float = _setting(TrustRegionConstants.gamma1, _LOOPS)
    gamma2: float = _setting(TrustRegionConstants.gamma2, _LOOPS)
    expansion_factor: float = _setting(TrustRegionConstants.expansion_factor, _LOOPS)
    shrink_factor: float = _setting(TrustRegionConstants.shrink_factor, _LOOPS)
    radius_max: float | None = _setting(None, _LOOPS)
    alpha: float = _setting(1.0, ("basic-ma", "ma-tr"), recorded=ALGORITHMS)
    shift_enabled: bool = _setting(False, ("ma-tr",), recorded=_LOOPS)
    noise_level: float = _setting(0.0)
    seed: int = _setting(0)
    tolerance: float = _setting(StoppingCriteria.tolerance)
    max_iterations: int = _setting(StoppingCriteria.max_iterations)
    max_plant_evaluations: int = _setting(StoppingCriteria.max_plant_evaluations)
    subproblem_budget: int = _setting(200, _LOOPS)
    box_halfwidth: float = _setting(1e6, ("basic-ma",))
    output: str | None = _setting(None, recorded=())
    format: str = _setting("csv", recorded=(), choices=FORMATS)

    def constants(self) -> TrustRegionConstants:
        return TrustRegionConstants(
            eta1=self.eta1,
            eta2=self.eta2,
            gamma1=self.gamma1,
            gamma2=self.gamma2,
            expansion_factor=self.expansion_factor,
            shrink_factor=self.shrink_factor,
            radius_max=math.inf if self.radius_max is None else self.radius_max,
        )

    def stopping(self) -> StoppingCriteria:
        return StoppingCriteria(
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            max_plant_evaluations=self.max_plant_evaluations,
        )


# trace.config keys per algorithm, in RunConfig field order
_RECORDED = {
    a: tuple(f.name for f in fields(RunConfig) if a in f.metadata["recorded"])
    for a in ALGORITHMS
}


def check_arguments(
    alpha: float = 1.0,
    delta0: float = 1.0,
    radius_max: float = math.inf,
    subproblem_budget: int = 1,
    box_halfwidth: float = 1.0,
) -> None:
    """The drivers' argument rules, shared with config loading.  A driver
    passes the arguments it takes; the defaults are valid placeholders."""
    check_alpha(alpha)
    require(0.0 < delta0 < math.inf, "delta0", f"must be finite and > 0, got {delta0}")
    require(delta0 <= radius_max, "delta0", "must not exceed radius_max")
    require(subproblem_budget >= 1, "subproblem_budget", "must be >= 1")
    require(
        0.0 < box_halfwidth < math.inf,
        "box_halfwidth",
        f"must be finite and > 0, got {box_halfwidth}",
    )


def _record_config(algorithm, problem, u, stop, constants=None, **settings) -> dict:
    """``trace.config``: the settings ``algorithm`` records, in RunConfig
    field order.  ``settings`` holds the driver's other arguments."""
    values = {
        "problem": problem.identifier,
        "algorithm": algorithm,
        "u0": [float(x) for x in u],
        "noise_level": problem.noise_level,
        "seed": problem.seed,
        **vars(stop),
        **settings,
    }
    if constants is not None:
        values.update(vars(constants))
        if math.isinf(constants.radius_max):
            values["radius_max"] = None  # RunConfig's "unbounded"
    return {name: values[name] for name in _RECORDED[algorithm]}


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
    StoppingCriteria(tolerance=tolerance)  # the one tolerance rule
    if not np.isfinite(trace.final_gradient_norm):
        raise ValueError("trace has no finite final gradient norm")
    return trace.final_gradient_norm <= tolerance


def _box_minimize(
    model: CorrectedModel,
    current: np.ndarray,
    halfwidth: float,
    rng: np.random.Generator,
    n_random_starts: int = 8,
    budget_per_start: int = 2000,
    boundary_rtol: float = 1e-9,
):
    """Multi-start projected descent of the corrected model over the box
    ``[-halfwidth, halfwidth]^n``.

    Returns ``(point, unbounded)``.  ``unbounded`` is set when the best
    point sits on the box boundary with the descent direction pointing
    outward there, i.e. the model keeps decreasing beyond the box.
    """
    dim = model.dimension

    def project(u):
        return np.clip(u, -halfwidth, halfwidth)

    starts = [np.zeros(dim), current.copy()]
    starts.extend(rng.normal(scale=10.0, size=dim) for _ in range(n_random_starts))

    best_x = None
    best_f = np.inf
    for s in starts:
        x, fx, _ = projected_descent(
            model.value_change, model.gradient, project(s), project, budget_per_start
        )
        if fx < best_f:
            best_x, best_f = x, fx

    g = model.gradient(best_x)
    margin = halfwidth * boundary_rtol
    unbounded = False
    for i in range(dim):
        at_upper = best_x[i] >= halfwidth - margin
        at_lower = best_x[i] <= -halfwidth + margin
        if (at_upper and g[i] < 0.0) or (at_lower and g[i] > 0.0):
            unbounded = True
            break
    return best_x, unbounded


def run_basic_ma(
    problem: ProblemPair,
    u0,
    alpha: float = 1.0,
    stop: StoppingCriteria | None = None,
    box_halfwidth: float = 1e6,
    seed: int = 0,
) -> RunTrace:
    """Gradient-matched model correction with a whole-space model solve and
    no acceptance test: the subproblem minimizer is always applied and
    becomes the next correction point.

    Terminates when the measured plant gradient at the current iterate is
    within tolerance, when the corrected model is detected to be unbounded
    below on the search box, or at the iteration/evaluation caps.
    """
    stop = stop or StoppingCriteria()
    check_arguments(alpha=alpha, box_halfwidth=box_halfwidth)
    u = as_input_vector(u0, problem.dimension)
    rng = np.random.default_rng(seed)
    v0, g0 = problem.plant_evaluations()
    notes = []
    if alpha < 1.0:
        notes.append("no convergence guarantee")
    config = _record_config(
        "basic-ma", problem, u, stop, alpha=alpha, seed=seed, box_halfwidth=box_halfwidth
    )

    records: list[IterationRecord] = []
    status = "max-iterations"
    value = float("nan")
    grad = np.full(problem.dimension, np.nan)
    filt = ModifierFilter(alpha, problem.dimension)
    try:
        value = problem.evaluate_plant(u)
        grad = problem.plant_gradient(u)
        for k in range(stop.max_iterations):
            gnorm = math.sqrt(float(grad.dot(grad)))
            if gnorm <= stop.tolerance:
                status = "converged"
                break
            used = sum(problem.plant_evaluations()) - (v0 + g0)
            if used + 2 > stop.max_plant_evaluations:
                status = "max-iterations"
                break
            lam = filt.update(grad, problem.model_gradient(u))
            model = CorrectedModel(problem.model, lam, anchor=u)
            candidate, unbounded = _box_minimize(model, u, box_halfwidth, rng)
            if unbounded:
                status = "unbounded-subproblem"
                break
            cand_value = problem.evaluate_plant(candidate)
            cand_grad = problem.plant_gradient(candidate)
            records.append(
                IterationRecord(
                    k=k,
                    applied_input=candidate.copy(),
                    reference=u.copy(),
                    plant_value_at_reference=value,
                    plant_gradient_norm_at_reference=gnorm,
                    rho=None,
                    radius=None,
                    accepted=True,
                    cauchy_override=False,
                    modifiers=lam.copy(),
                )
            )
            u, value, grad = candidate, cand_value, cand_grad
        # the cap can land exactly on the converging iteration
        if status == "max-iterations" and math.sqrt(float(grad.dot(grad))) <= stop.tolerance:
            status = "converged"
    except OracleError:
        status = "oracle-failure"

    v1, g1 = problem.plant_evaluations()
    return RunTrace(
        problem_id=problem.identifier,
        algorithm="basic-ma",
        config=config,
        records=records,
        termination_status=status,
        plant_value_evaluations=v1 - v0,
        plant_gradient_evaluations=g1 - g0,
        final_reference=u.copy(),
        final_plant_value=value,
        final_gradient_norm=math.sqrt(float(grad.dot(grad))),
        notes=notes,
    )


def _tr_loop(
    algorithm: str,
    problem: ProblemPair,
    u0,
    delta0: float,
    constants: TrustRegionConstants | None,
    alpha: float,
    shift_enabled: bool,
    stop: StoppingCriteria | None,
    subproblem_budget: int,
) -> RunTrace:
    constants = constants or TrustRegionConstants()
    stop = stop or StoppingCriteria()
    check_arguments(
        alpha=alpha,
        delta0=delta0,
        radius_max=constants.radius_max,
        subproblem_budget=subproblem_budget,
    )
    u = as_input_vector(u0, problem.dimension)
    config = _record_config(
        algorithm,
        problem,
        u,
        stop,
        constants,
        delta0=delta0,
        alpha=alpha,
        shift_enabled=shift_enabled,
        subproblem_budget=subproblem_budget,
    )
    v0, g0 = problem.plant_evaluations()
    notes = []
    if alpha < 1.0:
        notes.append("no convergence guarantee")

    records: list[IterationRecord] = []
    status = "max-iterations"
    ref_grad = np.full(problem.dimension, np.nan)
    state = None
    filt = ModifierFilter(alpha, problem.dimension)
    try:
        ref_value = problem.evaluate_plant(u)
        ref_grad = problem.plant_gradient(u)
        state = TrustRegionState(reference=u, radius=delta0, reference_plant_value=ref_value)
        for k in range(stop.max_iterations):
            gnorm = math.sqrt(float(ref_grad.dot(ref_grad)))
            if gnorm <= stop.tolerance:
                status = "converged"
                break
            used = sum(problem.plant_evaluations()) - (v0 + g0)
            if used + 2 > stop.max_plant_evaluations:
                status = "max-iterations"
                break
            lam = filt.update(ref_grad, problem.model_gradient(state.reference))
            model = CorrectedModel(problem.model, lam, anchor=state.reference)
            anchor = state.reference.copy()
            anchor_value = state.reference_plant_value
            radius = state.radius
            result = solve_subproblem(model, anchor, radius, budget=subproblem_budget)
            candidate = result.candidate
            if np.array_equal(candidate, anchor):
                # The radius no longer moves the candidate: the predicted
                # change is exactly 0, so every later iteration would be
                # degenerate and only shrink the radius towards 0.
                status = "stalled"
                break
            cand_value = problem.evaluate_plant(candidate)
            # The model enters the ratio as its change from the anchor,
            # which is the same with or without the value shift.
            rho = compute_rho(anchor_value, cand_value, 0.0, model.value_change(candidate))
            accepted = accept_candidate(state, candidate, cand_value, rho, constants)
            state.radius = update_radius(radius, rho, constants)
            records.append(
                IterationRecord(
                    k=k,
                    applied_input=candidate.copy(),
                    reference=anchor,
                    plant_value_at_reference=anchor_value,
                    plant_gradient_norm_at_reference=gnorm,
                    rho=DEGENERATE if rho is None else rho,
                    radius=radius,
                    accepted=accepted,
                    cauchy_override=result.cauchy_override_applied,
                    modifiers=lam.copy(),
                )
            )
            if accepted:
                ref_grad = problem.plant_gradient(state.reference)
        # the cap can land exactly on the converging iteration
        if status == "max-iterations" and math.sqrt(float(ref_grad.dot(ref_grad))) <= stop.tolerance:
            status = "converged"
    except OracleError:
        status = "oracle-failure"

    if state is None:  # initial measurement failed
        final_ref, final_val = u.copy(), float("nan")
    else:
        final_ref, final_val = state.reference.copy(), state.reference_plant_value
    v1, g1 = problem.plant_evaluations()
    return RunTrace(
        problem_id=problem.identifier,
        algorithm=algorithm,
        config=config,
        records=records,
        termination_status=status,
        plant_value_evaluations=v1 - v0,
        plant_gradient_evaluations=g1 - g0,
        final_reference=final_ref,
        final_plant_value=final_val,
        final_gradient_norm=math.sqrt(float(ref_grad.dot(ref_grad))),
        notes=notes,
    )


def run_trust_region(
    problem: ProblemPair,
    u0,
    delta0: float = 1.0,
    constants: TrustRegionConstants | None = None,
    stop: StoppingCriteria | None = None,
    subproblem_budget: int = 200,
) -> RunTrace:
    """Reference-based loop on the value-and-gradient matched model: the
    ``ma-tr`` loop with gain 1 and the value shift recorded.
    """
    return _tr_loop(
        "trust-region", problem, u0, delta0, constants, 1.0, True, stop, subproblem_budget
    )


def run_ma_tr(
    problem: ProblemPair,
    u0,
    delta0: float = 1.0,
    constants: TrustRegionConstants | None = None,
    alpha: float = 1.0,
    stop: StoppingCriteria | None = None,
    shift_enabled: bool = False,
    subproblem_budget: int = 200,
) -> RunTrace:
    """Reference-based loop on the gradient-matched corrected model.

    With ``alpha`` below 1 the correction is filtered and the run is
    annotated accordingly.  ``shift_enabled`` is recorded only: the shift
    cancels from every decrease, so the iterates are identical either way.
    """
    return _tr_loop(
        "ma-tr", problem, u0, delta0, constants, alpha, shift_enabled, stop, subproblem_budget
    )
