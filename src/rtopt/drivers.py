"""The three iterative optimization loops and their run traces.

* ``run_basic_ma``: correct the model at the latest iterate, minimize the
  corrected model over the whole (boxed) input space, always move there.
* ``run_trust_region``: classic reference-based loop; candidates come from
  the ball-constrained subproblem on a value-and-gradient matched model,
  acceptance and radius follow the achieved/predicted decrease ratio.
* ``run_ma_tr``: same loop built on the gradient-matched corrected model
  (optionally value-shifted; the iterates do not depend on the shift).

Every run returns a :class:`RunTrace` holding one record per iteration
plus termination metadata and plant-probe counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corrected_model import CorrectedModel, ModifierFilter
from .errors import OracleError
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
    "StoppingCriteria",
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
)


@dataclass(frozen=True)
class StoppingCriteria:
    """Loop termination plumbing; the underlying schemes iterate forever."""

    tolerance: float = 1e-6
    max_iterations: int = 500
    max_plant_evaluations: int = 10_000

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.max_plant_evaluations < 1:
            raise ValueError("max_plant_evaluations must be >= 1")


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
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
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
    config: dict | None = None,
) -> RunTrace:
    """Gradient-matched model correction with a whole-space model solve and
    no acceptance test: the subproblem minimizer is always applied and
    becomes the next correction point.

    Terminates when the measured plant gradient at the current iterate is
    within tolerance, when the corrected model is detected to be unbounded
    below on the search box, or at the iteration/evaluation caps.
    """
    stop = stop or StoppingCriteria()
    u = as_input_vector(u0, problem.dimension)
    rng = np.random.default_rng(seed)
    v0, g0 = problem.plant_evaluations()
    notes = []
    if alpha < 1.0:
        notes.append("no convergence guarantee")
    if config is None:
        config = {
            "problem": problem.identifier,
            "algorithm": "basic-ma",
            "u0": [float(x) for x in u],
            "alpha": alpha,
            "noise_level": problem.noise_level,
            "seed": seed,
            "tolerance": stop.tolerance,
            "max_iterations": stop.max_iterations,
            "max_plant_evaluations": stop.max_plant_evaluations,
            "box_halfwidth": box_halfwidth,
        }

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
    problem: ProblemPair,
    u: np.ndarray,
    delta0: float,
    constants: TrustRegionConstants,
    alpha: float,
    shift_enabled: bool,
    stop: StoppingCriteria,
    algorithm: str,
    subproblem_budget: int,
    config: dict,
) -> RunTrace:
    if delta0 <= 0:
        raise ValueError("delta0 must be > 0")
    if delta0 > constants.radius_max:
        raise ValueError("delta0 must not exceed radius_max")
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
            model = CorrectedModel(
                problem.model,
                lam,
                anchor=state.reference,
                shift_enabled=shift_enabled,
                plant_value_at_anchor=state.reference_plant_value if shift_enabled else None,
            )
            anchor = state.reference.copy()
            anchor_value = state.reference_plant_value
            radius = state.radius
            result = solve_subproblem(model, anchor, radius, budget=subproblem_budget)
            candidate = result.candidate
            cand_value = problem.evaluate_plant(candidate)
            # Model values enter the ratio relative to the anchor; the
            # constant shift cancels from the ratio regardless.
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


def _tr_config(
    problem, algorithm, u, delta0, constants, alpha, shift_enabled, stop, subproblem_budget
) -> dict:
    return {
        "problem": problem.identifier,
        "algorithm": algorithm,
        "u0": [float(x) for x in u],
        "delta0": delta0,
        "eta1": constants.eta1,
        "eta2": constants.eta2,
        "gamma1": constants.gamma1,
        "gamma2": constants.gamma2,
        "expansion_factor": constants.expansion_factor,
        "shrink_factor": constants.shrink_factor,
        "radius_max": None if np.isinf(constants.radius_max) else constants.radius_max,
        "alpha": alpha,
        "shift_enabled": shift_enabled,
        "noise_level": problem.noise_level,
        "seed": problem.seed,
        "tolerance": stop.tolerance,
        "max_iterations": stop.max_iterations,
        "max_plant_evaluations": stop.max_plant_evaluations,
        "subproblem_budget": subproblem_budget,
    }


def run_trust_region(
    problem: ProblemPair,
    u0,
    delta0: float = 1.0,
    constants: TrustRegionConstants | None = None,
    stop: StoppingCriteria | None = None,
    subproblem_budget: int = 200,
) -> RunTrace:
    """Reference-based loop on the value-and-gradient matched model: the
    corrected model is built with the constant shift so its value and
    gradient both equal the plant's at the reference.
    """
    constants = constants or TrustRegionConstants()
    stop = stop or StoppingCriteria()
    u = as_input_vector(u0, problem.dimension)
    config = _tr_config(
        problem, "trust-region", u, delta0, constants, 1.0, True, stop, subproblem_budget
    )
    return _tr_loop(
        problem, u, delta0, constants, 1.0, True, stop, "trust-region", subproblem_budget, config
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
    annotated accordingly.  ``shift_enabled`` adds the constant value
    shift to the model; the produced iterates are identical either way.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    constants = constants or TrustRegionConstants()
    stop = stop or StoppingCriteria()
    u = as_input_vector(u0, problem.dimension)
    config = _tr_config(
        problem, "ma-tr", u, delta0, constants, alpha, shift_enabled, stop, subproblem_budget
    )
    return _tr_loop(
        problem, u, delta0, constants, alpha, shift_enabled, stop, "ma-tr", subproblem_budget, config
    )
