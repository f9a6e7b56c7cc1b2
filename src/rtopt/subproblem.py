"""Ball-constrained minimization of a corrected model.

Both paths start from the Cauchy point, the model's minimizer along the
steepest-descent ray from the anchor inside the ball.  When the model
declares a constant Hessian (every catalog model is a quadratic, and the
linear correction leaves its Hessian unchanged) the Cauchy point has a
closed form and the subproblem is solved exactly by the Moré-Sorensen
method.  Otherwise the ray is scanned, projected gradient descent on the
ray refines the scan's best point, and the same descent inside the ball
continues from the Cauchy point.  If either path returns a candidate
worse than the Cauchy point, the Cauchy point is used instead; the
safeguard makes the decrease certifiable regardless of how the second
phase behaves.  Either path reports the model change at its candidate;
a change >= 0 predicts no decrease, and the trust-region loop then stops
``stalled``.

All model queries go through ``CorrectedModel.value_change`` (value
relative to the anchor), so the computed candidate is bit-identical
whether or not the model carries a constant shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrected_model import CorrectedModel
from .errors import OracleError
from .problems import as_input_vector

__all__ = [
    "SubproblemResult",
    "cauchy_point",
    "solve_subproblem",
    "check_sufficient_decrease",
    "estimate_beta",
    "projected_descent",
]


@dataclass
class SubproblemResult:
    """``predicted_change`` is the model change from the anchor at
    ``candidate``; a value >= 0 predicts no model decrease, on either path."""

    candidate: np.ndarray
    predicted_change: float
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


# The ray search without a declared Hessian: scan points, and the cap on
# the model values and gradients of the scan and the descent together.
_SCAN_POINTS = 16
_SCAN_MAX_EVALS = 100


def cauchy_point(model: CorrectedModel, radius: float) -> tuple[np.ndarray, float]:
    """Minimize the model along ``anchor - t * grad(anchor)`` within the ball.

    With a constant model Hessian H the minimizer is t = g.g / g.Hg,
    clipped to the ball, and the ball's boundary when g.Hg <= 0.
    Otherwise a uniform scan of the ray, which finds far dips, brackets
    its best point, and ``projected_descent`` on the distance along the
    ray refines it inside the bracket with the rest of the evaluations.
    The descent keeps the best point it evaluates, starting with the
    scan's, so the result never does worse than any scanned point, and
    it improves on the anchor unless the model is flat along the ray to
    rounding.
    Returns ``(point, change)``, ``change`` the model change from the
    anchor at ``point``.  A zero gradient, or one whose g.g overflows so
    that every step along the ray rounds to 0, returns ``(anchor, 0.0)``.
    When ``t |g| + max|anchor|``, which bounds the closed form's point and
    every scanned one, overflows, the ray leaves the floating-point range
    and ``OracleError`` is raised.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    anchor = model.anchor
    g, gg, curvature, *_ = model.anchor_terms()
    if not 0.0 < gg < math.inf:
        return anchor.copy(), 0.0
    gnorm = math.sqrt(gg)

    t = radius / gnorm  # the ball's boundary
    if curvature is not None and curvature > 0.0:
        t = min(gg / curvature, t)
    # |anchor - t g| <= this componentwise, rounding included; it never warns
    if t * gnorm + max(map(abs, anchor.tolist())) == math.inf:
        raise OracleError(f"the Cauchy ray leaves the floating-point range at radius {radius}")
    if curvature is not None:
        point = anchor - t * g
        return point, model.value_change(point)

    # The search runs on the distance s = t |g| along the ray, in the
    # ball's units, so its stopping rule does not depend on |g|.
    def ray(s: float) -> np.ndarray:
        return anchor - (s / gnorm) * g

    ds = radius / _SCAN_POINTS
    # s = 0 is the anchor: change is 0 by definition, no evaluation needed.
    scan = [0.0] + [model.value_change(ray(j * ds)) for j in range(1, _SCAN_POINTS + 1)]
    j = int(np.argmin(scan))
    lo, hi = max(j - 1, 0) * ds, min(j + 1, _SCAN_POINTS) * ds
    best, change, _ = projected_descent(
        lambda s: model.value_change(ray(s[0])),
        lambda s: np.array([-float(g @ model.gradient(ray(s[0]))) / gnorm]),
        np.array([j * ds]),
        lambda s: np.clip(s, lo, hi),
        _SCAN_MAX_EVALS - _SCAN_POINTS,
        (hi - lo) / gnorm,
        start_value=scan[j],
    )
    return ray(best[0]), change


# projected descent stops when the projected gradient step is below this,
# relative to max(1, |x|), or after this many halvings of one step
_DESCENT_TOL = 1e-12
_MAX_BACKTRACKS = 60
# the subproblem's descent spends at most this many model values and gradients
_DESCENT_BUDGET = 200
# values within this of each other, relative to |f|, are equal to rounding:
# there the sufficient-decrease test is read off the gradients (Hager &
# Zhang, SIAM J. Optim. 16(1), 2005, whose default this is); a step must
# make this share of the decrease its slope predicts
_VALUE_RTOL = 1e-6
_ARMIJO = 1e-4


def projected_descent(
    change_fn,
    grad_fn,
    start: np.ndarray,
    project,
    budget: int,
    initial_step: float = 1.0,
    *,
    start_value: float | None = None,
) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent with spectral (Barzilai-Borwein) steps
    and Armijo backtracking.

    ``change_fn`` is the objective measured relative to an arbitrary fixed
    base; only differences matter.  ``budget`` caps the combined number of
    value and gradient evaluations.  Returns ``(best_point, best_change,
    evaluations_used)`` where best is over every point evaluated.
    ``start`` is validated and copied; a non-finite one raises ValueError.
    A known ``start_value`` is not measured again but counts as an evaluation.

    Near a minimizer the decrease a step makes sinks below the rounding of
    the values, which would stop the descent short of it by about
    ``sqrt(eps |f| / curvature)``.  A step whose value is within
    ``_VALUE_RTOL |f|`` of the current one therefore passes the Armijo
    test when the gradients at both ends pass it by the trapezoid rule,
    exact for quadratics, and it becomes the best point if its value ties
    with the best to the same margin.
    """
    x = project(as_input_vector(start))
    fx = change_fn(x) if start_value is None else start_value
    evals = 1
    best_x, best_f = x.copy(), fx
    if evals >= budget:
        return best_x, best_f, evals
    g = grad_fn(x)
    evals += 1
    step = float(initial_step)
    x_prev = None
    g_prev = None
    g_next = None  # the gradient at an accepted step, when the test took it

    while evals < budget:
        r = project(x - g) - x
        if math.sqrt(float(r.dot(r))) <= _DESCENT_TOL * max(1.0, math.sqrt(float(x.dot(x)))):
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
        for _ in range(_MAX_BACKTRACKS):
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
            slope = float(g @ d)
            if fc <= fx + _ARMIJO * slope:
                moved = True
                break
            if fc <= fx + _VALUE_RTOL * abs(fx) and evals < budget:
                g_next = grad_fn(cand)
                evals += 1
                if float(g_next @ d) <= (2.0 * _ARMIJO - 1.0) * slope:
                    if fc <= best_f + _VALUE_RTOL * abs(best_f):
                        best_x, best_f = cand.copy(), fc
                    moved = True
                    break
                g_next = None
            t *= 0.5
        if not moved:
            break
        x_prev, g_prev = x, g
        x, fx = cand, fc
        step = t
        if g_next is not None:
            g, g_next = g_next, None
            continue
        if evals >= budget:
            break
        g = grad_fn(x)
        evals += 1

    return best_x, best_f, evals


# Newton on the secular equation converges quadratically, monotonically
# from the left; this only bounds the loop.
_MAX_NEWTON_STEPS = 100


def _exact_step(w, q, gt, radius: float) -> np.ndarray:
    """Global minimizer s of ``g.s + s.Hs / 2`` over ``||s|| <= radius``,
    where ``H = q diag(w) q^T`` with ``w`` ascending (Moré & Sorensen 1983;
    Conn, Gould & Toint, *Trust-Region Methods*, 2000, ch. 7), given
    ``gt = q^T g``.

    The minimizer is ``s = -(H + lam I)^-1 g`` for the smallest
    ``lam >= low = max(0, -w[0])`` with ``||s|| <= radius``, on the
    boundary unless ``lam`` is 0.  In the eigenbasis ``lam = low + mu``,
    and ``H + low I`` has the eigenvalues ``shifted``, exactly 0 on the
    pole, so the distance to the pole stays exact however close the root
    lies to it; a positive-definite ``H`` has no pole, and ``shifted`` is
    ``w``.  ``mu`` solves ``1/||s|| = 1/radius`` by Newton's method: the
    left side is increasing and concave in ``mu``, so from the left the
    iterates rise monotonically to the root; a first pass at ``mu = 0``
    is the test for an interior minimizer.  In the hard case ``g`` has no
    component on the pole of a negative eigenvalue and ``||s||`` stays
    inside the ball there; the step is then filled up to the
    boundary along the bottom eigenvector.
    """
    if w[0] > 0.0:  # positive definite: w + 0.0 is w to the bit, and there is no pole
        shifted, mu = w, 0.0
    else:
        shifted = w + max(0.0, -w[0])
        pole = shifted == 0.0
        # from the pole 1/||s|| rises from 0 with slope 1/||gt[pole]||: Newton's first step
        mu = math.sqrt(float(gt[pole] @ gt[pole])) / radius
        if mu == 0.0:
            gt = np.where(pole, 0.0, gt)  # below the pole's resolution, if not already 0
            shifted = np.where(pole, 1.0, shifted)  # any positive value: nothing is divided there
    for _ in range(_MAX_NEWTON_STEPS):
        d = shifted + mu
        c = gt / d
        norm2 = float(c @ c)
        slack = radius * radius - norm2
        if mu == 0.0 and slack >= 0.0:  # mu is 0 on the first pass only: an interior step
            s = -c  # -gt / d to the bit: d is finite and positive
            if w[0] < 0.0:  # hard case
                s[0] = math.sqrt(slack)
            return q @ s
        norm = math.sqrt(norm2)
        if norm <= radius:
            break
        slope = radius * float(c @ (c / d))
        if slope == 0.0:  # a subnormal radius: the step is below resolution
            break
        step = norm2 * (norm - radius) / slope
        if mu + step == mu:
            break
        mu += step
    return q @ (-gt / (shifted + mu))


def solve_subproblem(model: CorrectedModel, radius: float) -> SubproblemResult:
    """Minimize the corrected model over the closed ball of the given
    radius around its anchor.

    A model with a constant Hessian is minimized exactly.  Otherwise the
    minimum is approximated by projected descent, which starts from the
    Cauchy point and spends at most ``_DESCENT_BUDGET`` model values and
    gradients.  The returned candidate never has a larger model value than
    the Cauchy point: a worse candidate is overridden and the override
    recorded.  The candidate is returned whether or not it decreases the
    model; its ``predicted_change`` says which.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    anchor = model.anchor
    project = _ball_projection(anchor, radius)

    _, gg, _, w, q, gt = model.anchor_terms()
    cp, cp_change = cauchy_point(model, radius)

    if gt is None:
        initial_step = radius / math.sqrt(gg) if gg > 0 else 1.0
        # the descent projects its start: cp_change holds if that leaves cp in place
        known = cp_change if project(cp).tobytes() == cp.tobytes() else None
        # a g.g that overflows overflows the ball's norms too; they then scale steps to 0
        with np.errstate(over="ignore", invalid="ignore"):
            best, best_change, evals = projected_descent(
                model.value_change, model.gradient, cp, project, _DESCENT_BUDGET, initial_step,
                start_value=known,
            )
    else:
        # eigenvalues tiny beside g overflow the step: the Cauchy point stands in
        with np.errstate(over="ignore", invalid="ignore"):
            best = project(anchor + _exact_step(w, q, gt, radius))
        finite = all(map(math.isfinite, best.tolist()))
        best_change = model.value_change(best) if finite else math.inf
        evals = 0

    override = best_change > cp_change
    measured, change = (cp, cp_change) if override else (best, best_change)
    candidate = project(measured)
    if candidate.tolist() != measured.tolist():  # rounding at the boundary
        change = model.value_change(candidate)
    return SubproblemResult(
        candidate=candidate,
        predicted_change=change,
        cauchy_override_applied=override,
        descent_evaluations=evals,
    )


def check_sufficient_decrease(
    change: float,
    grad_norm: float,
    radius: float,
    beta: float,
    kappa: float = 0.1,
) -> bool:
    """True iff the model decrease ``-change`` reaches the fraction
    ``kappa`` in (0, 1) of ``grad_norm * min(grad_norm / beta, radius)``,
    for a curvature bound ``beta`` > 1.
    """
    for name, v in (("change", change), ("grad_norm", grad_norm), ("radius", radius)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if grad_norm < 0:
        raise ValueError("grad_norm must be >= 0")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must be in (0, 1), got {kappa}")
    if not beta > 1.0:
        raise ValueError(f"beta must be > 1, got {beta}")
    threshold = kappa * grad_norm * min(grad_norm / beta, radius)
    return -change >= threshold


# estimate_beta's sample points along the ray, and its floor's margin above 1
_BETA_SAMPLES = 5
_BETA_FLOOR_EPS = 1e-6


def estimate_beta(model: CorrectedModel, radius: float) -> float:
    """Sampled curvature bound along the steepest-descent ray from the
    model's anchor, floored strictly above 1.

    The bound is the largest absolute second-difference quotient of the
    model at a few points along the ray; it is advisory (a sample, not a
    proof) and falls back to ``1 + _BETA_FLOOR_EPS`` on flat models.
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    anchor = model.anchor
    g, gg, *_ = model.anchor_terms()
    gnorm = math.sqrt(gg)
    if gnorm == 0.0:
        return 1.0 + _BETA_FLOOR_EPS
    d = -g / gnorm
    h = max(radius * 1e-3, 1e-8)
    largest = 0.0
    for i in range(_BETA_SAMPLES):
        s = radius * i / _BETA_SAMPLES
        x = anchor + s * d
        quotient = (
            model.value_change(x + h * d)
            - 2.0 * model.value_change(x)
            + model.value_change(x - h * d)
        ) / h**2
        if math.isfinite(quotient):
            largest = max(largest, abs(quotient))
    return max(1.0 + _BETA_FLOOR_EPS, largest)
