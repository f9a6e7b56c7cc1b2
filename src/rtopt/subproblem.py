"""Ball-constrained minimization of a corrected model.

Both paths start from the Cauchy point, the model's minimizer along the
steepest-descent ray from the anchor inside the ball.  When the model
declares a constant Hessian (every catalog model is a quadratic, and the
linear correction leaves its Hessian unchanged) the Cauchy point has a
closed form and the subproblem is solved exactly by the Moré-Sorensen
method.  Otherwise the ray is searched numerically and projected gradient
descent inside the ball continues from the Cauchy point.  If either path
returns a candidate worse than the Cauchy point, the Cauchy point is used
instead; the safeguard makes the decrease certifiable regardless of how
the second phase behaves.

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
    """``predicted_change`` is the model change from the anchor at ``candidate``."""

    candidate: np.ndarray
    predicted_change: float
    cauchy_point: np.ndarray
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
    gradient=None,
) -> tuple[np.ndarray, float]:
    """Minimize the model along ``anchor - t * grad(anchor)`` within the ball.

    With a constant model Hessian H the minimizer is t = g.g / g.Hg,
    clipped to the ball, and the ball's boundary when g.Hg <= 0.
    Otherwise a coarse uniform scan over the admissible step range seeds a
    golden-section refinement, and the best point ever evaluated is
    returned, so the result never does worse than any scanned point and
    strictly improves on the anchor whenever the gradient is nonzero.
    Returns ``(point, t)`` with t the unnormalized ray parameter; a zero
    gradient returns ``(anchor, 0.0)``.  ``gradient``, the model gradient
    at the anchor, is evaluated here unless the caller already has it.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    anchor = as_input_vector(anchor, model.dimension)
    g = model.gradient(anchor) if gradient is None else gradient
    gnorm = math.sqrt(float(g.dot(g)))
    if gnorm == 0.0:
        return anchor.copy(), 0.0

    t_max = radius / gnorm
    hessian = model.hessian
    if hessian is not None:
        curvature = float(g @ (hessian @ g))
        t = t_max if curvature <= 0.0 else min(float(g.dot(g)) / curvature, t_max)
        return anchor - t * g, t

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


# Newton on the secular equation converges quadratically, monotonically
# from the left; this only bounds the loop.
_MAX_NEWTON_STEPS = 100


def _exact_step(w: np.ndarray, q: np.ndarray, g: np.ndarray, radius: float) -> np.ndarray:
    """Global minimizer s of ``g.s + s.Hs / 2`` over ``||s|| <= radius``,
    where ``H = q diag(w) q^T`` with ``w`` ascending (Moré & Sorensen 1983;
    Conn, Gould & Toint, *Trust-Region Methods*, 2000, ch. 7).

    The minimizer is ``s = -(H + lam I)^-1 g`` for the smallest
    ``lam >= low = max(0, -w[0])`` with ``||s|| <= radius``, on the
    boundary unless ``lam`` is 0.  In the eigenbasis ``lam = low + mu``,
    and ``H + low I`` has the eigenvalues ``shifted``, exactly 0 on the
    pole, so the distance to the pole stays exact however close the root
    lies to it.  ``mu`` solves ``1/||s|| = 1/radius`` by Newton's method:
    the left side is increasing and concave in ``mu``, so from the left
    the iterates rise monotonically to the root.  In the hard case ``g``
    has no component on the pole of a negative eigenvalue and ``||s||``
    stays inside the ball there; the step is then filled up to the
    boundary along the bottom eigenvector.
    """
    gt = q.T @ g
    shifted = w + max(0.0, -w[0])
    pole = shifted == 0.0
    # From the pole, 1/||s|| rises from 0 with slope 1/||gt[pole]||, so
    # this is Newton's first step; there is none off the pole.
    mu = math.sqrt(float(gt[pole] @ gt[pole])) / radius
    if mu == 0.0:
        gt[pole] = 0.0  # below the pole's resolution, if not already 0
        shifted[pole] = 1.0  # any positive value: nothing is divided there
        s = -gt / shifted
        slack = radius * radius - float(s @ s)
        if slack >= 0.0:
            if w[0] < 0.0:  # hard case
                s[0] = math.sqrt(slack)
            return q @ s
    for _ in range(_MAX_NEWTON_STEPS):
        d = shifted + mu
        c = gt / d
        norm2 = float(c @ c)
        norm = math.sqrt(norm2)
        if norm <= radius:
            break
        step = norm2 * (norm - radius) / (radius * float(c @ (c / d)))
        if mu + step == mu:
            break
        mu += step
    return q @ (-gt / (shifted + mu))


def solve_subproblem(
    model: CorrectedModel,
    anchor,
    radius: float,
    budget: int = 200,
    start=None,
) -> SubproblemResult:
    """Minimize the corrected model over the closed ball of the given
    radius around the anchor.

    A model with a constant Hessian is minimized exactly.  Otherwise the
    minimum is approximated by projected descent, which starts from the
    Cauchy point unless ``start`` is given and spends at most ``budget``
    model values and gradients.  The returned candidate never has a larger
    model value than the Cauchy point: a worse candidate is overridden and
    the override recorded.  On the exact path, when neither the exact step
    nor the Cauchy point registers a model decrease, the candidate is the
    anchor itself.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    anchor = as_input_vector(anchor, model.dimension)
    project = _ball_projection(anchor, radius)

    g = model.gradient(anchor)
    cp, _ = cauchy_point(model, anchor, radius, gradient=g)
    cp_change = model.value_change(cp)

    if model.hessian is None:
        x0 = cp if start is None else as_input_vector(start, model.dimension)
        gnorm = math.sqrt(float(g.dot(g)))
        initial_step = radius / gnorm if gnorm > 0 else 1.0
        best, best_change, evals = projected_descent(
            model.value_change, model.gradient, x0, project, budget, initial_step
        )
    else:
        w, q = model.base_model.hessian_eigh()
        best = project(anchor + _exact_step(w, q, g, radius))
        # eigenvalues tiny beside g overflow the step: the Cauchy point stands in
        finite = all(map(math.isfinite, best.tolist()))
        best_change = model.value_change(best) if finite else math.inf
        evals = 0

    override = best_change > cp_change
    measured, change = (cp, cp_change) if override else (best, best_change)
    candidate = project(measured)
    if candidate.tolist() != measured.tolist():  # rounding at the boundary
        change = model.value_change(candidate)
    if model.hessian is not None and min(best_change, cp_change) >= 0.0:
        # No measurable decrease: the trust-region loop stops 'stalled'
        # here instead of shrinking the radius towards 0.
        candidate, change = anchor, 0.0
    return SubproblemResult(
        candidate=candidate,
        predicted_change=change,
        cauchy_point=cp,
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
