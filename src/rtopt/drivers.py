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


def _setting(default=MISSING, algorithms=ALGORITHMS, recorded=True, choices=None):
    """A RunConfig field: ``algorithms`` may set it in a config and, if
    ``recorded``, record it in ``trace.config``; ``choices`` lists its
    allowed values when it is a name."""
    return field(
        default=default,
        metadata={"algorithms": algorithms, "recorded": recorded, "choices": choices},
    )


@dataclass
class RunConfig:
    """One run's settings: the config-file schema, the drivers' defaults
    and, for the fields each algorithm records, the key order of
    ``trace.config``.

    Field types and metadata drive config parsing.  ``check`` holds the
    range rules of the settings the run's objects do not check themselves
    (``TrustRegionConstants``, ``StoppingCriteria``, ``ProblemPair``).
    """

    problem: str = _setting()
    algorithm: str = _setting(choices=ALGORITHMS)
    u0: list = _setting()
    delta0: float = _setting(1.0, _LOOPS)
    eta1: float = _setting(TrustRegionConstants.eta1, _LOOPS)
    eta2: float = _setting(TrustRegionConstants.eta2, _LOOPS)
    expansion_factor: float = _setting(TrustRegionConstants.expansion_factor, _LOOPS)
    shrink_factor: float = _setting(TrustRegionConstants.shrink_factor, _LOOPS)
    radius_max: float | None = _setting(None, _LOOPS)
    alpha: float = _setting(1.0, ("basic-ma", "ma-tr"))
    noise_level: float = _setting(0.0)
    seed: int = _setting(0)
    tolerance: float = _setting(StoppingCriteria.tolerance)
    max_iterations: int = _setting(StoppingCriteria.max_iterations)
    max_plant_evaluations: int = _setting(StoppingCriteria.max_plant_evaluations)
    box_halfwidth: float = _setting(1e6, ("basic-ma",))
    output: str | None = _setting(None, recorded=False)
    format: str = _setting("csv", recorded=False, choices=FORMATS)

    def _values_for(self, cls) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(cls)}

    def constants(self) -> TrustRegionConstants:
        values = self._values_for(TrustRegionConstants)
        if self.radius_max is None:  # unbounded
            values["radius_max"] = math.inf
        return TrustRegionConstants(**values)

    def stopping(self) -> StoppingCriteria:
        return StoppingCriteria(**self._values_for(StoppingCriteria))

    def check(self) -> RunConfig:
        """Apply the range rules of every setting but the problem's;
        returns ``self``.  A violation raises ``ConfigError`` naming the
        field."""
        self.stopping()
        radius_max = self.constants().radius_max
        check_alpha(self.alpha)
        delta0 = self.delta0
        require(0.0 < delta0 < math.inf, "delta0", f"must be finite and > 0, got {delta0}")
        require(delta0 <= radius_max, "delta0", "must not exceed radius_max")
        require(
            0.0 < self.box_halfwidth < math.inf,
            "box_halfwidth",
            f"must be finite and > 0, got {self.box_halfwidth}",
        )
        return self


# trace.config keys per algorithm, in RunConfig field order
_RECORDED = {
    a: tuple(
        f.name
        for f in fields(RunConfig)
        if f.metadata["recorded"] and a in f.metadata["algorithms"]
    )
    for a in ALGORITHMS
}


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
    if model.hessian is not None:
        w, q, _ = model.base_model.hessian_eigh()
        gt = model.anchor_terms()[3]
        tol = 10 * w.size * math.ulp(1.0)  # 10 n eps
        scale = max(-w[0], w[-1])  # max |w|
        null = np.abs(w) <= tol * scale
        with np.errstate(over="ignore", invalid="ignore"):
            step = np.where(null, 0.0, gt) / np.where(null, 1.0, w)
            off_range = null.any() and np.linalg.norm(gt[null]) > tol * (
                np.linalg.norm(gt) + scale * (np.linalg.norm(step) + np.linalg.norm(current))
            )
            point = current - q @ step
        if w[0] < -tol * scale or off_range:
            return current, "unbounded-subproblem"
        # an overflowed step is outside too: NaN fails the comparison
        return point, None if np.all(np.abs(point) <= halfwidth) else "outside-box"

    def project(u):
        return np.clip(u, -halfwidth, halfwidth)

    starts = [np.zeros(model.dimension), current.copy()]
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
    with np.errstate(over="ignore"):
        return math.sqrt(float(v.dot(v)))


def _run(problem: ProblemPair, cfg: RunConfig) -> RunTrace:
    """The loop of all three drivers, running ``cfg`` on ``problem``.
    The trust-region loops step to the corrected model's minimizer in the
    ball of the current radius, and the achieved/predicted decrease ratio
    decides acceptance and the next radius.  ``basic-ma`` is the limit of
    an infinite radius and no acceptance test: it steps by
    ``_box_minimize`` and applies every candidate.
    """
    ball = cfg.algorithm != "basic-ma"
    constants, stop = cfg.check().constants(), cfg.stopping()
    u = as_input_vector(cfg.u0, problem.dimension)
    config = {name: getattr(cfg, name) for name in _RECORDED[cfg.algorithm]}
    config["u0"] = u.tolist()
    v0, g0 = problem.plant_evaluations()
    notes = ["no convergence guarantee"] if cfg.alpha < 1.0 else []
    # the box search's random starts; a declared Hessian needs none
    rng = None if ball or problem.model.hessian is not None else np.random.default_rng(cfg.seed)

    records: list[IterationRecord] = []
    status = "max-iterations"
    ref_grad = unmeasured = np.full(problem.dimension, np.nan)
    state = model = model_grad = None
    filt = ModifierFilter(cfg.alpha, problem.dimension)
    try:
        ref_value = problem.evaluate_plant(u)
        ref_grad = problem.plant_gradient(u)
        radius0 = cfg.delta0 if ball else math.inf
        state = TrustRegionState(reference=u, radius=radius0, reference_plant_value=ref_value)
        for k in range(stop.max_iterations):
            gnorm = _norm(ref_grad)
            if gnorm <= stop.tolerance:
                status = "converged"
                break
            used = sum(problem.plant_evaluations()) - (v0 + g0)
            if used + 2 > stop.max_plant_evaluations:
                status = "max-iterations"
                break
            # A rejected step keeps the reference and its gradients (models are never
            # noisy), so the model too, with its anchor terms, unless the filter moves it.
            if model_grad is None:
                model_grad = problem.model_gradient(state.reference)
            lam = filt.update(ref_grad, model_grad)
            if model is None or lam.tobytes() != model.modifiers.tobytes():
                model = CorrectedModel(problem.model, lam, state.reference, base_gradient=model_grad)
            anchor = state.reference.copy()
            anchor_value = state.reference_plant_value
            radius = state.radius
            # No predicted model decrease, as in a ball shrunk to 0.0: every
            # later iteration would be degenerate and only shrink the radius.
            if ball and radius == 0.0:
                end = "stalled"
            elif ball:
                result = solve_subproblem(model, radius)
                candidate = result.candidate
                end = "stalled" if result.predicted_change >= 0.0 else None
            else:
                candidate, end = _box_minimize(model, cfg.box_halfwidth, rng)
            if end is not None:
                status = end
                break
            cand_value = problem.evaluate_plant(candidate)
            if ball:
                # The model enters the ratio as its change from the anchor,
                # which is the same with or without the value shift.
                rho = compute_rho(anchor_value, cand_value, result.predicted_change)
                accepted = accept_candidate(state, candidate, cand_value, rho, constants)
                state.radius = update_radius(radius, rho, constants)
                rho = DEGENERATE if rho is None else rho
                override = result.cauchy_override_applied
            else:
                rho, radius, accepted, override = None, None, True, False
                state.reference, state.reference_plant_value = candidate, cand_value
            records.append(
                IterationRecord(
                    k=k,
                    applied_input=candidate.copy(),
                    reference=anchor,
                    plant_value_at_reference=anchor_value,
                    plant_gradient_norm_at_reference=gnorm,
                    rho=rho,
                    radius=radius,
                    accepted=accepted,
                    cauchy_override=override,
                    modifiers=lam.copy(),
                )
            )
            if accepted:  # NaN if the probe fails: the old gradient is not the new one's
                ref_grad, model, model_grad = unmeasured, None, None
                ref_grad = problem.plant_gradient(state.reference)
        # the cap can land exactly on the converging iteration
        if status == "max-iterations" and _norm(ref_grad) <= stop.tolerance:
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


def _drive(algorithm, problem, u0, stop=None, constants=None, **settings) -> RunTrace:
    """A driver call as the RunConfig it describes, run on ``problem``.
    A driver passes its parameters as they are: ``stop`` and
    ``constants`` stand for their fields (None leaves RunConfig's
    defaults), and every other setting is named as its RunConfig field."""
    if stop is not None:
        settings.update(vars(stop))
    if constants is not None:
        settings.update(vars(constants))
        if math.isinf(constants.radius_max):
            settings["radius_max"] = None  # RunConfig's "unbounded"
    cfg = RunConfig(
        problem=problem.identifier,
        algorithm=algorithm,
        u0=u0,
        noise_level=problem.noise_level,
        seed=problem.seed,
        **settings,
    )
    return _run(problem, cfg)


def run_basic_ma(
    problem: ProblemPair,
    u0,
    alpha: float = RunConfig.alpha,
    stop: StoppingCriteria | None = None,
    box_halfwidth: float = RunConfig.box_halfwidth,
) -> RunTrace:
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
    return _drive("basic-ma", **locals())


def run_trust_region(
    problem: ProblemPair,
    u0,
    delta0: float = RunConfig.delta0,
    constants: TrustRegionConstants | None = None,
    stop: StoppingCriteria | None = None,
) -> RunTrace:
    """Reference-based loop on the value-and-gradient matched model: the
    ``ma-tr`` loop with gain 1, since the value shift changes no iterate.
    """
    return _drive("trust-region", **locals())


def run_ma_tr(
    problem: ProblemPair,
    u0,
    delta0: float = RunConfig.delta0,
    constants: TrustRegionConstants | None = None,
    alpha: float = RunConfig.alpha,
    stop: StoppingCriteria | None = None,
) -> RunTrace:
    """Reference-based loop on the gradient-matched corrected model.

    With ``alpha`` below 1 the correction is filtered and the run is
    annotated accordingly.
    """
    return _drive("ma-tr", **locals())
