"""Ball-constrained minimization of a corrected model.

The candidate is produced in two phases: a line search along the steepest
descent ray from the anchor (yielding the Cauchy point), then projected
gradient descent inside the ball started from that point.  If descent ever
returns a candidate worse than the Cauchy point, the Cauchy point is used
instead; the safeguard makes the decrease certifiable regardless of how
the descent phase behaves.

All model queries go through ``CorrectedModel.value_change`` (value
relative to the anchor), so the computed candidate is bit-identical
whether or not the model carries a constant shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrected_model import CorrectedModel
from .problems import as_input_vector

__all__ = [
    "SubproblemResult",
    "SufficientDecreaseParams",
    "cauchy_point",
    "solve_subproblem",
    "check_sufficient_decrease",
    "estimate_beta",
    "projected_descent",
]


@dataclass(frozen=True)
class SufficientDecreaseParams:
    """Constants of the model-decrease certificate: a fraction kappa in
    (0, 1) and a curvature bound beta > 1."""

    kappa: float = 0.1
    beta: float = 2.0

    def __post_init__(self):
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must be in (0, 1), got {self.kappa}")
        if not self.beta > 1.0:
            raise ValueError(f"beta must be > 1, got {self.beta}")


@dataclass
class SubproblemResult:
    candidate: np.ndarray
    cauchy_point: np.ndarray
    cauchy_step: float
    cauchy_override_applied: bool
    descent_evaluations: int


def _ball_projection(anchor: np.ndarray, radius: float):
    def project(u):
        d = u - anchor
        norm = math.sqrt(float(d.dot(d)))
        if norm <= radius:
            return u.copy()
        return anchor + d * (radius / norm)

    return project


def cauchy_point(
    model: CorrectedModel,
    anchor,
    radius: float,
    scan_points: int = 16,
    rel_tol: float = 1e-8,
    max_evals: int = 100,
) -> tuple[np.ndarray, float]:
    """Minimize the model along ``anchor - t * grad(anchor)`` within the ball.

    A coarse uniform scan over the admissible step range seeds a
    golden-section refinement, and the best point ever evaluated is
    returned, so the result never does worse than any scanned point and
    strictly improves on the anchor whenever the gradient is nonzero.
    Returns ``(point, t)`` with t the unnormalized ray parameter; a zero
    gradient returns ``(anchor, 0.0)``.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    anchor = as_input_vector(anchor, model.dimension)
    g = model.gradient(anchor)
    gnorm = math.sqrt(float(g.dot(g)))
    if gnorm == 0.0:
        return anchor.copy(), 0.0

    t_max = radius / gnorm

    def phi(t: float) -> float:
        return model.value_change(anchor - t * g)

    evals = 0
    # t = 0 is the anchor: change is 0 by definition, no evaluation needed.
    best_t, best_val = 0.0, 0.0
    dt = t_max / scan_points
    scan_vals = [0.0]
    for j in range(1, scan_points + 1):
        t = j * dt
        v = phi(t)
        evals += 1
        scan_vals.append(v)
        if v < best_val:
            best_t, best_val = t, v
    j_star = int(np.argmin(scan_vals))
    lo = max(j_star - 1, 0) * dt
    hi = min(j_star + 1, scan_points) * dt

    # Golden-section refinement inside the bracket.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = phi(x1), phi(x2)
    evals += 2
    for t, v in ((x1, f1), (x2, f2)):
        if v < best_val:
            best_t, best_val = t, v
    while (b - a) > rel_tol * t_max and evals < max_evals:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = phi(x1)
            evals += 1
            if f1 < best_val:
                best_t, best_val = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = phi(x2)
            evals += 1
            if f2 < best_val:
                best_t, best_val = x2, f2

    # Parabolic polish: golden section stops at a bracket width relative to
    # the full step range, which is coarse when the radius is wide; one
    # three-point parabola fit recovers interior smooth minima to near
    # machine precision (exactly, for quadratic rays).  Kept only if it
    # does not do worse.
    h = max(b - a, 1e-12 * t_max)
    if evals + 4 <= max_evals and best_t - h >= 0.0 and best_t + h <= t_max:
        f_lo, f_mid, f_hi = phi(best_t - h), phi(best_t), phi(best_t + h)
        evals += 3
        denom = f_hi - 2.0 * f_mid + f_lo
        if denom > 0.0:
            t_p = best_t - h * (f_hi - f_lo) / (2.0 * denom)
            if 0.0 <= t_p <= t_max:
                v = phi(t_p)
                evals += 1
                if v <= best_val:
                    best_t, best_val = t_p, v

    if best_t == 0.0:
        # Nonzero gradient guarantees a nearby improving step; the coarse
        # scan can miss it when the dip is inside the first segment.
        t = dt
        for _ in range(60):
            t *= 0.5
            v = phi(t)
            evals += 1
            if v < 0.0:
                best_t, best_val = t, v
                break

    point = anchor - best_t * g
    return point, best_t


def projected_descent(
    change_fn,
    grad_fn,
    start: np.ndarray,
    project,
    budget: int,
    initial_step: float = 1.0,
    tol: float = 1e-12,
    max_backtracks: int = 60,
) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent with spectral (Barzilai-Borwein) steps
    and Armijo backtracking.

    ``change_fn`` is the objective measured relative to an arbitrary fixed
    base; only differences matter.  ``budget`` caps the combined number of
    value and gradient evaluations.  Returns ``(best_point, best_change,
    evaluations_used)`` where best is over every point evaluated.
    """
    x = project(np.asarray(start, dtype=float))
    fx = change_fn(x)
    evals = 1
    best_x, best_f = x.copy(), fx
    if evals >= budget:
        return best_x, best_f, evals
    g = grad_fn(x)
    evals += 1
    step = float(initial_step)
    x_prev = None
    g_prev = None

    while evals < budget:
        r = project(x - g) - x
        if math.sqrt(float(r.dot(r))) <= tol * max(1.0, math.sqrt(float(x.dot(x)))):
            break
        if x_prev is not None:
            s = x - x_prev
            y = g - g_prev
            sy = float(s @ y)
            if math.isfinite(sy) and sy > 0.0:
                step = float(s @ s) / sy
            else:
                step *= 2.0  # nonconvex stretch: grow until backtracking bites
        step = min(max(step, 1e-16), 1e16)

        moved = False
        t = step
        cand = x
        fc = fx
        for _ in range(max_backtracks):
            if evals >= budget:
                break
            cand = project(x - t * g)
            d = cand - x
            if math.sqrt(float(d.dot(d))) == 0.0:
                break
            fc = change_fn(cand)
            evals += 1
            # ties go to the later point: it is the more refined iterate
            if fc <= best_f:
                best_x, best_f = cand.copy(), fc
            if fc <= fx + 1e-4 * float(g @ d):
                moved = True
                break
            t *= 0.5
        if not moved:
            break
        x_prev, g_prev = x, g
        x, fx = cand, fc
        step = t
        if evals >= budget:
            break
        g = grad_fn(x)
        evals += 1

    return best_x, best_f, evals


def solve_subproblem(
    model: CorrectedModel,
    anchor,
    radius: float,
    budget: int = 200,
    start=None,
) -> SubproblemResult:
    """Approximately minimize the corrected model over the closed ball of
    the given radius around the anchor.

    The descent phase starts from the Cauchy point unless ``start`` is
    given.  Whatever it produces, the returned candidate never has a
    larger model value than the Cauchy point: a worse candidate is
    overridden and the override recorded.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    anchor = as_input_vector(anchor, model.dimension)
    project = _ball_projection(anchor, radius)

    cp, t_cp = cauchy_point(model, anchor, radius)
    cp_change = model.value_change(cp)

    x0 = cp if start is None else as_input_vector(start, model.dimension)
    g = model.gradient(anchor)
    gnorm = math.sqrt(float(g.dot(g)))
    initial_step = radius / gnorm if gnorm > 0 else 1.0
    best, best_change, evals = projected_descent(
        model.value_change, model.gradient, x0, project, budget, initial_step
    )

    override = best_change > cp_change
    return SubproblemResult(
        candidate=project(cp if override else best),
        cauchy_point=cp,
        cauchy_step=t_cp,
        cauchy_override_applied=override,
        descent_evaluations=evals,
    )


def check_sufficient_decrease(
    model_ref: float,
    model_cand: float,
    grad_norm: float,
    radius: float,
    params: SufficientDecreaseParams,
) -> bool:
    """True iff the model decrease reaches the certified fraction of
    ``grad_norm * min(grad_norm / beta, radius)``.
    """
    for name, v in (
        ("model_ref", model_ref),
        ("model_cand", model_cand),
        ("grad_norm", grad_norm),
        ("radius", radius),
    ):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if grad_norm < 0:
        raise ValueError("grad_norm must be >= 0")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    decrease = model_ref - model_cand
    threshold = params.kappa * grad_norm * min(grad_norm / params.beta, radius)
    return decrease >= threshold


def estimate_beta(
    model: CorrectedModel,
    anchor,
    radius: float,
    n_samples: int = 5,
    floor_eps: float = 1e-6,
) -> float:
    """Sampled curvature bound along the steepest-descent ray, floored
    strictly above 1.

    The bound is the largest absolute second-difference quotient of the
    model at a few points along the ray; it is advisory (a sample, not a
    proof) and falls back to ``1 + floor_eps`` on flat models.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    anchor = as_input_vector(anchor, model.dimension)
    g = model.gradient(anchor)
    gnorm = math.sqrt(float(g.dot(g)))
    if gnorm == 0.0:
        return 1.0 + floor_eps
    d = -g / gnorm
    h = max(radius * 1e-3, 1e-8)
    largest = 0.0
    for i in range(n_samples):
        s = radius * i / n_samples
        x = anchor + s * d
        quotient = (
            model.value_change(x + h * d)
            - 2.0 * model.value_change(x)
            + model.value_change(x - h * d)
        ) / h**2
        if math.isfinite(quotient):
            largest = max(largest, abs(quotient))
    return max(1.0 + floor_eps, largest)
