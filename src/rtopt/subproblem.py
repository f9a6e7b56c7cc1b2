"""Ball-constrained minimization of a corrected model.

When the model declares a constant Hessian (every catalog model is a
quadratic, and the linear correction leaves its Hessian unchanged) the
subproblem is solved exactly by the Moré-Sorensen method.  The ball's
global minimizer decreases the model at least as much as the Cauchy
point, the minimizer along the steepest-descent ray from the anchor
inside the ball, which is all trust-region convergence asks of a step
(Conn, Gould & Toint 2000, §6.3), so the Cauchy point stands in only for
an exact step that overflows.  Otherwise the ray is scanned, projected
gradient descent on the ray refines the scan's best point, the same
descent inside the ball continues from the Cauchy point, and the Cauchy
point replaces a worse candidate, so the decrease is certifiable however
the descent behaves.  Each point is projected once, where it is built,
and its model change, measured there, is reported; a change >= 0
predicts no decrease, and the trust-region loop then stops ``stalled``.

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
            return u  # a point the ball holds is returned as is
        return anchor + d * (radius / norm)

    return project


# The ray search without a declared Hessian: scan points, and the cap on
# the model values and gradients of the scan and the descent together.
_SCAN_POINTS = 16
_SCAN_MAX_EVALS = 100


def cauchy_point(model: CorrectedModel, radius: float) -> tuple[np.ndarray, float]:
    """Minimize the model along ``anchor - t * grad(anchor)`` within the ball.

    With a constant model Hessian ``H = q diag(w) q^T`` the minimizer is
    t = g.g / g.Hg, clipped to the ball, and the ball's boundary when
    g.Hg <= 0; g.Hg is ``sum w_i (q^T g)_i^2`` from ``anchor_terms``.
    Otherwise a uniform scan of the ray, which finds far dips, brackets
    its best point, and ``projected_descent`` on the distance along the
    ray refines it inside the bracket with the rest of the evaluations.
    The descent keeps the best point it evaluates, starting with the
    scan's, so the result never does worse than any scanned point, and
    it improves on the anchor unless the model is flat along the ray to
    rounding.  Each point is projected onto the ball before it is measured.
    Returns ``(point, change)``, a read-only point and the model change from
    the anchor there.  A zero gradient, or one whose g.g overflows so
    that every step along the ray rounds to 0, returns ``(anchor, 0.0)``.
    When ``t |g| + max|anchor|``, which bounds the closed form's point and
    every scanned one, overflows, the ray leaves the floating-point range
    and ``OracleError`` is raised.
    """
    if not radius > 0:  # NaN fails too
        raise ValueError(f"radius must be > 0, got {radius}")
    anchor = model.anchor
    g, gg, w, _, gt = model.anchor_terms()
    if not 0.0 < gg < math.inf:
        return anchor, 0.0
    gnorm = math.sqrt(gg)

    t = radius / gnorm  # the ball's boundary
    if w is not None:
        with model.errstate():  # g.Hg may overflow or turn NaN, and then fails the test below
            curvature = float(w.dot(gt * gt))
        if curvature > 0.0:
            t = min(gg / curvature, t)
    # |anchor - t g| <= this componentwise, rounding included; it never warns
    if t * gnorm + max(map(abs, anchor.tolist())) == math.inf:
        raise OracleError(f"the Cauchy ray leaves the floating-point range at radius {radius}")
    project = _ball_projection(anchor, radius)
    if w is not None:
        point = project(anchor - g * t)  # t * g's bits, dispatched faster
        point.setflags(write=False)  # finite by the test above: the oracle takes it as it is
        return point, model.value_change(point, _checked=True)

    # The search runs on the distance s = t |g| along the ray, in the
    # ball's units, so its stopping rule does not depend on |g|.
    def ray(s: float) -> np.ndarray:
        return project(anchor - (s / gnorm) * g)

    ds = radius / _SCAN_POINTS
    # s = 0 is the anchor: change is 0 by definition, no evaluation needed.
    scan = [0.0] + [model.value_change(ray(j * ds)) for j in range(1, _SCAN_POINTS + 1)]
    j = int(np.argmin(scan))
    lo, hi = max(j - 1, 0) * ds, min(j + 1, _SCAN_POINTS) * ds
    best, change, _ = projected_descent(
        lambda s: model.value_change(ray(s[0])),
        lambda s: np.array([-(float(g.dot(model.gradient(ray(s[0])))) + 0.0) / gnorm]),
        np.array([j * ds]),
        lambda s: np.clip(s, lo, hi),
        _SCAN_MAX_EVALS - _SCAN_POINTS,
        (hi - lo) / gnorm,
        start_value=scan[j],
    )
    point = ray(best[0])
    point.setflags(write=False)
    return point, change


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
    evaluations_used)`` where best, read-only, is over every point evaluated.
    ``start`` is validated, copied and projected, unless a known
    ``start_value``, measured at ``start`` itself, counts as its
    evaluation.  A non-finite start, a NaN ``initial_step`` or a budget
    below 1 raises ValueError; other steps are clamped to [1e-16, 1e16].  A
    step at the ceiling becomes the unit move ``max(1, |x|) / |g|``, and a
    failed trial beyond 1e8 unit moves is followed by it, not by half its step.

    Near a minimizer the decrease a step makes sinks below the rounding of
    the values, which would stop the descent short of it by about
    ``sqrt(eps |f| / curvature)``.  A step whose value is within
    ``_VALUE_RTOL |f|`` of the current one therefore passes the Armijo
    test when the gradients at both ends pass it by the trapezoid rule,
    exact for quadratics, and it becomes the best point if its value ties
    with the best to the same margin.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    step = float(initial_step)
    if math.isnan(step):  # the clamp below would keep it, and no step would move
        raise ValueError(f"initial_step must not be NaN, got {initial_step}")
    x = as_input_vector(start) if start_value is not None else project(as_input_vector(start))
    fx = change_fn(x) if start_value is None else start_value
    evals = 1
    best_x, best_f = x.copy(), fx
    if evals < budget:
        g = grad_fn(x)
        evals += 1
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
            sy = float(s.dot(y))  # a zero's sign fails the test either way
            if math.isfinite(sy) and sy > 0.0:
                step = float(s.dot(s)) / sy
            else:
                step *= 2.0  # nonconvex stretch: grow until backtracking bites
        # 60 halvings from the ceiling may never move: a unit move instead
        unit = max(1.0, math.sqrt(float(x.dot(x)))) / (math.sqrt(float(g.dot(g))) or 1.0)
        step = min(max(unit if step >= 1e16 else step, 1e-16), 1e16)

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
            slope = float(g.dot(d))  # a zero's sign changes no comparison below
            if fc <= fx + _ARMIJO * slope:
                moved = True
                break
            if fc <= fx + _VALUE_RTOL * abs(fx) and evals < budget:
                g_next = grad_fn(cand)
                evals += 1
                if float(g_next.dot(d)) <= (2.0 * _ARMIJO - 1.0) * slope:
                    if fc <= best_f + _VALUE_RTOL * abs(best_f):
                        best_x, best_f = cand.copy(), fc
                    moved = True
                    break
                g_next = None
            t = unit if t > 1e8 * unit > 0.0 else t * 0.5  # from afar too, halvings may never move
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

    best_x.setflags(write=False)
    return best_x, best_f, evals


# Newton on the secular equation converges quadratically, monotonically
# from the left; this only bounds the loop.
_MAX_NEWTON_STEPS = 100


def _exact_step(w, q, gt, radius: float, first=None) -> np.ndarray:
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
    boundary along the bottom eigenvector.  ``first``, for a positive-
    definite ``H`` only, is the radius-free first pass ``(c, c.c, c.(c/w))``
    (``CorrectedModel.newton_start``).  No later pass changes the step at a
    ``mu`` that overflows or turns NaN, so that step is returned at once.
    """
    if w[0] > 0.0:  # positive definite: no shift and no pole
        shifted, mu = w, 0.0
    else:
        shifted = w + max(0.0, -w[0])
        pole = shifted == 0.0
        # from the pole 1/||s|| rises from 0 with slope 1/||gt[pole]||: Newton's first step
        mu = math.sqrt(float(gt[pole].dot(gt[pole]))) / radius
        if mu == 0.0:
            gt = np.where(pole, 0.0, gt)  # below the pole's resolution, if not already 0
            shifted = np.where(pole, 1.0, shifted)  # any positive value: nothing is divided there
    for _ in range(_MAX_NEWTON_STEPS):
        d = shifted + mu if mu else shifted  # + 0.0 would change no bit: shifted has no -0.0
        if first is not None and not mu:  # the first pass, the same at every radius
            c, norm2, cw = first
        else:
            c = gt / d
            norm2, cw = float(c.dot(c)), None
        slack = radius * radius - norm2
        if mu == 0.0 and slack >= 0.0:  # mu is 0 on the first pass only: an interior step
            s = -c  # -gt / d to the bit: d is finite and positive
            if w[0] < 0.0:  # hard case
                s[0] = math.sqrt(slack)
            return q @ s
        norm = math.sqrt(norm2)
        if norm <= radius:
            break
        slope = radius * (float(c.dot(c / d)) if cw is None else cw)
        if slope == 0.0:  # a subnormal radius: the step is below resolution
            break
        step = norm2 * (norm - radius) / slope
        if mu + step == mu:
            break
        mu += step
        if not math.isfinite(mu):  # after an overflowing norm
            return q @ (-gt / (shifted + mu))
    else:
        return q @ (-gt / (shifted + mu))
    return q @ -c  # -gt / d to the bit, at this pass's mu


def solve_subproblem(model: CorrectedModel, radius: float) -> SubproblemResult:
    """Minimize the corrected model over the closed ball of the given
    radius around its anchor.

    A model with a constant Hessian is minimized exactly, its step
    projected onto the ball, checked finite, marked read-only and measured
    once; the Cauchy point overrides a step that is not finite, and the
    anchor replaces one whose change rounds above 0.  Otherwise projected
    descent starts from the Cauchy point with its measured change, spends
    at most ``_DESCENT_BUDGET`` model values and gradients, and a worse
    candidate is overridden by the Cauchy point.  The candidate is
    returned whether or not it decreases the model; its
    ``predicted_change`` says which.
    """
    if not radius > 0:  # NaN fails too
        raise ValueError(f"radius must be > 0, got {radius}")
    anchor = model.anchor
    project = _ball_projection(anchor, radius)

    _, gg, w, q, gt = model.anchor_terms()
    if gt is not None:
        with model.errstate():
            first = model.newton_start() if w[0] > 0.0 else None
            step = project(anchor + _exact_step(w, q, gt, radius, first))
        if not all(map(math.isfinite, step.tolist())):  # eigenvalues tiny beside g
            return SubproblemResult(*cauchy_point(model, radius), True, 0)
        step.setflags(write=False)  # checked here: the oracle takes it as it is
        change = model.value_change(step, _checked=True)
        if change > 0.0:  # the anchor is in the ball: a minimizer's increase is rounding
            step, change = anchor, 0.0
        return SubproblemResult(step, change, False, 0)

    cp, cp_change = cauchy_point(model, radius)
    initial_step = radius / math.sqrt(gg) if gg > 0 else 1.0
    # a g.g that overflows overflows the ball's norms too; they then scale steps to 0
    with model.errstate():
        best, best_change, evals = projected_descent(
            model.value_change, model.gradient, cp, project, _DESCENT_BUDGET, initial_step,
            start_value=cp_change,
        )
    if best_change > cp_change:
        return SubproblemResult(cp, cp_change, True, evals)
    return SubproblemResult(best, best_change, False, evals)


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

    The bound is the largest ``|d.(grad(x + h d) - grad(x - h d))| / 2h``
    for the unit ray direction ``d`` at a few points ``x`` on the ray; it
    is advisory (a sample, not a proof) and falls back to
    ``1 + _BETA_FLOOR_EPS`` on flat models.  ``grad`` is the base model's:
    the constant modifiers cancel from the difference in exact arithmetic,
    and added first their rounding, up to about ``eps |modifiers| / h``
    (``h = max(radius / 1000, 1e-8)``), would swamp the curvature far from
    the origin.  A curvature modifier would add its own exact ``d.E d``.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be > 0 and finite, got {radius}")
    anchor = model.anchor
    g, gg, *_ = model.anchor_terms()
    gnorm = math.sqrt(gg)
    if gnorm == 0.0:
        return 1.0 + _BETA_FLOOR_EPS
    d = -g / gnorm
    h = max(radius * 1e-3, 1e-8)
    largest = 0.0
    for i in range(_BETA_SAMPLES):
        x = anchor + (radius * i / _BETA_SAMPLES) * d
        difference = model.base_model.gradient(x + h * d) - model.base_model.gradient(x - h * d)
        quotient = float(d.dot(difference)) / (2.0 * h)
        if math.isfinite(quotient):
            largest = max(largest, abs(quotient))
    return max(1.0 + _BETA_FLOOR_EPS, largest)
