"""Tests for the ball-constrained solver, Cauchy search, and decrease checks."""

import inspect
import math
import re
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from perfbench_support import input_checks

from rtopt import (
    CorrectedModel,
    ScalarOracle,
    cauchy_point,
    check_sufficient_decrease,
    estimate_beta,
    get_problem,
    solve_subproblem,
)
from rtopt import subproblem
from rtopt.drivers import _box_minimize
from rtopt.problems import PROBLEM_IDS
from rtopt.subproblem import _exact_step, projected_descent


def sphere_model(dim=2):
    return ScalarOracle(lambda u: float(np.dot(u, u)), lambda u: 2.0 * u, dim)


def linear_model(c):
    c = np.asarray(c, dtype=float)
    return ScalarOracle(lambda u: float(c @ u), lambda u: c.copy(), c.size)


def quadratic_model(h):
    """u.Hu / 2 with its Hessian declared, so the exact path runs."""
    h = np.asarray(h, dtype=float)
    return ScalarOracle(
        lambda u: 0.5 * float(u @ (h @ u)), lambda u: h @ u, h.shape[0], hessian=h
    )


class TestCauchyPoint:
    def test_sphere_boundary_minimum(self):
        cm = CorrectedModel(sphere_model(), [0.0, 0.0], anchor=[1.0, 0.0])
        point, change = cauchy_point(cm, 0.5)
        assert point == pytest.approx([0.5, 0.0], abs=1e-7)
        assert change == pytest.approx(-0.75, abs=1e-8)

    def test_zero_gradient_stays_at_anchor(self):
        cm = CorrectedModel(sphere_model(), [0.0, 0.0], anchor=[0.0, 0.0])
        point, change = cauchy_point(cm, 1.0)
        assert np.array_equal(point, [0.0, 0.0])
        assert change == 0.0

    def test_linear_model_reaches_boundary(self):
        cm = CorrectedModel(linear_model([3.0, 4.0]), [0.0, 0.0], anchor=[0.0, 0.0])
        point, change = cauchy_point(cm, 1.0)
        assert point == pytest.approx([-0.6, -0.8], abs=1e-9)
        assert change == pytest.approx(-5.0, abs=1e-9)

    def test_wide_radius_finds_exact_ray_minimizer(self):
        # 1-d strictly convex quadratic: ray from anchor 1 passes through 0
        cm = CorrectedModel(sphere_model(1), [0.0], anchor=[1.0])
        point, change = cauchy_point(cm, 100.0)
        assert abs(point[0]) <= 1e-8
        assert change == pytest.approx(-1.0, abs=1e-8)

    def test_improves_on_anchor_when_gradient_nonzero(self):
        rng = np.random.default_rng(11)
        for pid in ("P1", "P2", "P3", "P4"):
            p = get_problem(pid)
            # the same function without a declared Hessian searches the ray
            twin = ScalarOracle(p.model.value, p.model.gradient, p.dimension)
            for _ in range(10):
                anchor = rng.uniform(-3, 3, size=p.dimension)
                lam = p.plant_gradient(anchor) - p.model_gradient(anchor)
                radius = rng.uniform(0.1, 3.0)
                for model in (p.model, twin):
                    cm = CorrectedModel(model, lam, anchor=anchor)
                    if np.linalg.norm(cm.gradient(anchor)) == 0.0:
                        continue
                    _, change = cauchy_point(cm, radius)
                    assert change < 0.0

    def test_finds_a_dip_inside_the_first_scan_segment(self):
        # 1000 u^2 - u along u = t: every scanned value, from t = 1/16 on,
        # is positive, and the minimizer is t = 5e-4
        base = ScalarOracle(lambda u: 1000.0 * float(u @ u), lambda u: 2000.0 * u, 1)
        cm = CorrectedModel(base, [-1.0], anchor=[0.0])
        point, change = cauchy_point(cm, 1.0)
        assert point == pytest.approx([5e-4], abs=1e-12)
        assert change == pytest.approx(-2.5e-4, abs=1e-12)

    def test_scan_catches_far_dip_on_nonconvex_ray(self):
        # two dips along the descent ray; the nearer one is shallower
        def poly(u):
            x = u[0]
            return float((x * (x + 1.0) * (x + 2.2)) ** 2 + 0.05 * x)

        def poly_grad(u):
            x = u[0]
            p = x * (x + 1.0) * (x + 2.2)
            dp = 3.0 * x**2 + 6.4 * x + 2.2
            return np.array([2.0 * p * dp + 0.05])

        oracle = ScalarOracle(poly, poly_grad, 1)
        cm = CorrectedModel(oracle, [0.0], anchor=[0.0])
        radius = 3.0
        point, _ = cauchy_point(cm, radius)
        # independent oracle: dense scan of the ray segment
        ts = np.linspace(0.0, radius / abs(cm.gradient([0.0])[0]), 20001)
        ray_values = [cm.value_change([-t * cm.gradient([0.0])[0]]) for t in ts]
        assert cm.value_change(point) <= min(ray_values) + 1e-6
        assert point[0] == pytest.approx(-2.2, abs=0.1)

    def test_nonpositive_radius_rejected(self):
        cm = CorrectedModel(sphere_model(), [0.0, 0.0], anchor=[0.0, 0.0])
        with pytest.raises(ValueError, match="radius"):
            cauchy_point(cm, 0.0)

    def test_descent_reuses_the_scans_best_value(self, monkeypatch):
        # A wavy model without a declared Hessian: the ray is scanned, and
        # the descent starts from the scan's best point with its value.
        oracle = ScalarOracle(
            lambda u: float(u @ u) + math.sin(3.0 * u[0]),
            lambda u: 2.0 * u + np.array([3.0 * math.cos(3.0 * u[0]), 0.0]),
            2,
        )
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(20):
            anchor = rng.uniform(-2.0, 2.0, size=2)
            cases.append((anchor, rng.normal(size=2), rng.uniform(0.1, 3.0)))

        def run():
            out = []
            for anchor, lam, radius in cases:
                cm = CorrectedModel(oracle, lam, anchor=anchor)
                before = oracle.value_calls
                point, change = cauchy_point(cm, radius)
                out.append((oracle.value_calls - before, point.tolist(), change))
            return out

        reused = run()

        def measured_again(*args, start_value, **kwargs):
            return projected_descent(*args, **kwargs)

        monkeypatch.setattr(subproblem, "projected_descent", measured_again)
        again = run()
        saved = []
        for (calls, point, change), (calls_again, point_again, change_again) in zip(reused, again):
            saved.append(calls_again - calls)
            assert (point, change) == (point_again, change_again)
        # where the scan's best point is its last, which the model's value
        # memo holds, measuring it again costs no call either
        assert saved == [0, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0]

    def test_change_is_the_models_change_at_the_point(self):
        # The returned change is the model's own value_change at the point,
        # bit for bit, on either path, and 0.0 at a zero gradient.
        rng = np.random.default_rng(17)
        for pid in PROBLEM_IDS:
            p = get_problem(pid)
            twin = ScalarOracle(p.model.value, p.model.gradient, p.dimension)
            for i in range(10):
                anchor = rng.uniform(-3.0, 3.0, size=p.dimension)
                # i = 0: the correction cancels the gradient at the anchor
                gap = 0.0 if i == 0 else p.plant_gradient(anchor)
                lam = gap - p.model_gradient(anchor)
                radius = rng.uniform(0.05, 4.0)
                for model in (p.model, twin):
                    cm = CorrectedModel(model, lam, anchor=anchor)
                    point, change = cauchy_point(cm, radius)
                    measured = cm.value_change(point)
                    assert struct.pack("d", change) == struct.pack("d", measured)
                    if i == 0:
                        assert point.tolist() == anchor.tolist() and change == 0.0


    def test_the_point_is_projected_where_it_is_built(self):
        # On linear models the Cauchy point is the ray's boundary point.  On
        # both paths it is that point projected onto the ball once, and its
        # change is measured there.  A point the ball scaled may move again
        # by rounding when projected a second time, so the test pins one
        # projection, not a fixed point of the projection.
        rng = np.random.default_rng(41)
        scaled = 0
        for _ in range(50):
            anchor, c = rng.uniform(-3.0, 3.0, size=2), rng.normal(size=2)
            radius = rng.uniform(0.05, 4.0)
            project = subproblem._ball_projection(anchor, radius)
            raw = anchor - c * (radius / math.sqrt(float(c @ c)))
            scaled += project(raw).tobytes() != raw.tobytes()
            for hessian in (None, np.zeros((2, 2))):  # the ray search, the closed form
                model = ScalarOracle(lambda u: float(c @ u), lambda u: c.copy(), 2, hessian)
                point, change = cauchy_point(CorrectedModel(model, [0.0, 0.0], anchor), radius)
                assert point.tobytes() == project(raw).tobytes()
                fresh = CorrectedModel(model, [0.0, 0.0], anchor).value_change(point)
                assert struct.pack("d", change) == struct.pack("d", fresh)
        assert scaled > 0

    @pytest.mark.parametrize("curvature, point", [(2.0, [0.0, 0.0]), (-2.0, [-1.0, 0.0])])
    def test_overflowing_curvature_is_quiet(self, curvature, point):
        # g.g = 1e308 is finite and g.Hg overflows: an infinite curvature
        # takes no step, a negative one runs to the boundary
        model = quadratic_model([[curvature, 0.0], [0.0, 1.0]])
        cm = CorrectedModel(model, [1e154, 0.0], anchor=[0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, change = cauchy_point(cm, 1.0)
        assert got.tolist() == point and change == cm.value_change(got)

    @pytest.mark.parametrize("kind", ["definite", "indefinite", "singular"])
    def test_eigenbasis_curvature_matches_the_dense_product(self, kind):
        # g.Hg read as sum w_i (q^T g)_i^2 from the anchor terms gives the
        # closed-form point that the dense g.Hg gives, to rounding
        rng = np.random.default_rng(["definite", "indefinite", "singular"].index(kind))
        for _ in range(300):
            n = int(rng.integers(1, 5))
            w = 10.0 ** rng.uniform(-2.0, 2.0, n)
            if kind != "definite":
                w[0] = 0.0 if kind == "singular" else -w[0]
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            h = q @ np.diag(w) @ q.T
            h = (h + h.T) / 2.0  # exactly symmetric, as a declared Hessian must be
            anchor = rng.uniform(-3.0, 3.0, n)
            cm = CorrectedModel(quadratic_model(h), rng.normal(size=n), anchor=anchor)
            radius = 10.0 ** rng.uniform(-2.0, 1.0)
            g = cm.gradient(anchor)
            gg, curvature = float(g @ g), float(g @ (h @ g))
            t = radius / math.sqrt(gg)
            if curvature > 0.0:
                t = min(gg / curvature, t)
            want = subproblem._ball_projection(anchor, radius)(anchor - t * g)
            point, _ = cauchy_point(cm, radius)
            assert np.linalg.norm(point - want) <= 1e-12 * np.linalg.norm(want - anchor)


class TestSolveSubproblem:
    def test_interior_minimizer_found(self):
        # corrected sphere with unconstrained minimizer (1, 1) inside the ball
        cm = CorrectedModel(sphere_model(), [-2.0, -2.0], anchor=[0.0, 0.0])
        result = solve_subproblem(cm, 10.0)
        assert result.candidate == pytest.approx([1.0, 1.0], abs=1e-6)
        assert not result.cauchy_override_applied

    def test_boundary_minimizer_found(self):
        cm = CorrectedModel(sphere_model(), [-2.0, -2.0], anchor=[0.0, 0.0])
        result = solve_subproblem(cm, 0.5)
        expected = 0.5 / np.sqrt(2.0)
        assert result.candidate == pytest.approx([expected, expected], abs=1e-6)

    def test_anisotropic_interior_minimizer(self):
        oracle = ScalarOracle(
            lambda u: float(u[0] ** 2 + 10.0 * u[1] ** 2),
            lambda u: np.array([2.0 * u[0], 20.0 * u[1]]),
            2,
        )
        cm = CorrectedModel(oracle, [-1.0, -5.0], anchor=[0.0, 0.0])
        result = solve_subproblem(cm, 5.0)
        assert result.candidate == pytest.approx([0.5, 0.25], abs=1e-6)

    def test_candidate_never_worse_than_cauchy_point(self):
        rng = np.random.default_rng(23)
        for pid in ("P1", "P2", "P3", "P4"):
            p = get_problem(pid)
            for _ in range(10):
                anchor = rng.uniform(-3, 3, size=p.dimension)
                lam = p.plant_gradient(anchor) - p.model_gradient(anchor)
                cm = CorrectedModel(p.model, lam, anchor=anchor)
                radius = rng.uniform(0.05, 4.0)
                result = solve_subproblem(cm, radius)
                dist = np.linalg.norm(result.candidate - anchor)
                assert dist <= radius * (1.0 + 1e-12) + 1e-12
                assert (
                    cm.value_change(result.candidate)
                    <= cm.value_change(cauchy_point(cm, radius)[0]) + 1e-12
                )

    def test_concave_model_runs_to_boundary(self):
        p = get_problem("P2")
        anchor = [1.0]
        lam = p.plant_gradient(anchor) - p.model_gradient(anchor)
        cm = CorrectedModel(p.model, lam, anchor=anchor)
        result = solve_subproblem(cm, 1.0)
        assert result.candidate == pytest.approx([0.0], abs=1e-9)

    def test_nonpositive_radius_rejected(self):
        cm = CorrectedModel(sphere_model(), [0.0, 0.0], anchor=[0.0, 0.0])
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius must be > 0"):
                solve_subproblem(cm, radius)

    def test_cauchy_value_measured_once_without_a_hessian(self, monkeypatch):
        # The ray search measures the Cauchy point once and returns its
        # change; the descent starting there takes that change instead of a
        # second, and starts from the point itself.
        points = []

        def value(u):
            points.append(u.tobytes())
            return float(u @ u) + math.sin(3.0 * u[0])

        oracle = ScalarOracle(
            value, lambda u: 2.0 * u + np.array([3.0 * math.cos(3.0 * u[0]), 0.0]), 2
        )
        rng = np.random.default_rng(11)
        cases = [
            (rng.uniform(-2.0, 2.0, size=2), rng.normal(size=2), rng.uniform(0.1, 3.0))
            for _ in range(50)
        ]

        def run():
            out = []
            for anchor, lam, radius in cases:
                cm = CorrectedModel(oracle, lam, anchor=anchor)
                cp = cauchy_point(cm, radius)[0]
                points.clear()
                r = solve_subproblem(cm, radius)
                kept = subproblem._ball_projection(anchor, radius)(cp).tobytes() == cp.tobytes()
                result = (r.candidate.tobytes(), r.predicted_change, r.descent_evaluations)
                out.append((kept, points.count(cp.tobytes()), result))
            return out

        reused = run()
        assert [calls for _, calls, _ in reused] == [1] * len(cases)

        def measured_again(*args, start_value=None, **kwargs):
            return projected_descent(*args, **kwargs)

        # measured again, the start is projected again: where that leaves it
        # in place, the solve is the same
        monkeypatch.setattr(subproblem, "projected_descent", measured_again)
        again = run()
        assert sum(kept for kept, *_ in reused) >= 25
        assert [r for kept, _, r in again if kept] == [r for kept, _, r in reused if kept]

    def test_cauchy_point_overrides_a_worse_descent_without_a_hessian(self):
        # The descent's tie rule can keep a point a rounding step worse than
        # the Cauchy point it started from (at anchor (0.89, -0.81), radius
        # 10**-5.8, on this double well); the solve then returns that point.
        well = ScalarOracle(
            lambda u: float(np.sum(u**4) - np.sum(u**2)), lambda u: 4.0 * u**3 - 2.0 * u, 2
        )
        rng = np.random.default_rng(0)
        overrides = 0
        for _ in range(512):
            cm = CorrectedModel(well, [0.0, 0.0], anchor=rng.uniform(-1.5, 1.5, 2))
            radius = 10.0 ** rng.uniform(-6.0, -3.0)
            result = solve_subproblem(cm, radius)
            if result.cauchy_override_applied:
                overrides += 1
                cp, cp_change = cauchy_point(cm, radius)
                assert result.candidate.tobytes() == cp.tobytes()
                assert result.predicted_change == cp_change
        assert overrides >= 1


class TestProjectedDescent:
    def test_reaches_the_minimizer_below_value_rounding(self):
        # with curvature 0.1 and |f| ~ 1e3 at the minimizer, a step of
        # 1e-6 changes the value by 5e-14, below its rounding; the
        # gradients still tell the descent where to go
        rng = np.random.default_rng(5)
        for _ in range(50):
            q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            h = q @ np.diag([0.1, 5.0, 8.0]) @ q.T
            h = (h + h.T) / 2.0
            target = rng.uniform(-20.0, 20.0, size=3)
            b = -h @ target
            x, _, _ = projected_descent(
                lambda u: 0.5 * float(u @ (h @ u)) + float(b @ u),
                lambda u: h @ u + b,
                np.zeros(3),
                lambda u: np.clip(u, -1e3, 1e3),
                2000,
            )
            assert x == pytest.approx(target, abs=1e-8)

    @pytest.mark.parametrize(
        "budget, point, change, values, gradients",
        [(1, [1.0], 1.0, 1, 0), (3, [0.5], 0.25, 2, 1)],
        ids=["start-only", "one-accepted-step"],
    )
    def test_budget_caps_the_evaluations(self, budget, point, change, values, gradients):
        # x^2 from 1 with a first step of 0.25: the gradient 2 moves it to 0.5,
        # which passes the Armijo test with the budget spent
        calls = []

        def value(u):
            calls.append("value")
            return float(u @ u)

        def gradient(u):
            calls.append("gradient")
            return 2.0 * u

        result = projected_descent(value, gradient, [1.0], lambda u: u, budget, 0.25)
        assert (result[0].tolist(), result[1], result[2]) == (point, change, budget)
        assert (calls.count("value"), calls.count("gradient")) == (values, gradients)

    @pytest.mark.parametrize("start", [[math.nan], [math.inf, 0.0]], ids=["nan", "inf"])
    def test_non_finite_start_rejected_before_any_evaluation(self, start):
        def unreachable(u):
            raise AssertionError("evaluated a non-finite start")

        with pytest.raises(ValueError, match="non-finite"):
            projected_descent(unreachable, unreachable, start, unreachable, 10)

    def test_a_start_with_a_known_value_is_taken_as_given(self):
        # the value was measured at the start itself: it is not projected
        def unreachable(u):
            raise AssertionError("projected or measured the start")

        result = projected_descent(unreachable, unreachable, [2.0], unreachable, 1,
                                   start_value=4.0)
        assert (result[0].tolist(), result[1], result[2]) == ([2.0], 4.0, 1)

    def test_nan_initial_step_rejected_before_any_evaluation(self):
        def unreachable(u):
            raise AssertionError("evaluated with a NaN step")

        with pytest.raises(ValueError, match="initial_step"):
            projected_descent(unreachable, unreachable, [1.0], unreachable, 50, math.nan)

    @pytest.mark.parametrize("initial_step", [0.0, -1.0, math.inf])
    def test_other_initial_steps_are_clamped(self, initial_step):
        # x^2 from 1: a first step clamped to [1e-16, 1e16] still moves the
        # descent, the ceiling as a unit move
        x, change, _ = projected_descent(
            lambda u: float(u @ u), lambda u: 2.0 * u, [1.0], lambda u: u, 200, initial_step
        )
        assert abs(x[0]) < 1e-6 and change < 1e-12

    @pytest.mark.parametrize("initial_step", [math.inf, 1e16])
    def test_a_step_at_the_ceiling_is_a_unit_move(self, initial_step):
        # from 1e16, 50 evaluations of halvings would never reach a step that
        # moves; the unit move max(1, |x|) / |g| = 1/2 reaches the minimizer
        x, change, evals = projected_descent(
            lambda u: float(u @ u), lambda u: 2.0 * u, [1.0], lambda u: u, 50, initial_step
        )
        assert (x.tolist(), change, evals) == ([0.0], 0.0, 4)

    @pytest.mark.parametrize("initial_step", [1e9, 1e12, 1e14, 1e15])
    def test_a_far_trial_that_fails_is_followed_by_the_unit_move(self, initial_step):
        # 50 evaluations of halvings from 1e15 would never reach a step that
        # moves; past 1e8 unit moves a failed trial is followed by the unit move
        x, change, evals = projected_descent(
            lambda u: float(u @ u), lambda u: 2.0 * u, [1.0], lambda u: u, 50, initial_step
        )
        assert (x.tolist(), change, evals) == ([0.0], 0.0, 5)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_1_rejected_before_any_evaluation(self, budget):
        def unreachable(u):
            raise AssertionError("evaluated with no budget")

        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            projected_descent(unreachable, unreachable, [1.0], unreachable, budget)


eigenvalues = st.one_of(
    st.sampled_from([-2.0, 0.0, 1.0]),
    st.floats(min_value=-10.0, max_value=-1e-3),
    st.floats(min_value=1e-3, max_value=10.0),
)
components = st.one_of(
    st.just(0.0),
    st.floats(min_value=-10.0, max_value=-1e-3),
    st.floats(min_value=1e-3, max_value=10.0),
)


@st.composite
def ball_problems(draw):
    """(H, g, radius) with H symmetric, 1-3-D: definite, indefinite,
    singular, or a hard case (g orthogonal to the bottom eigenvector of a
    negative eigenvalue, with the pole step inside the ball)."""
    n = draw(st.integers(min_value=1, max_value=3))
    w = np.array(draw(st.lists(eigenvalues, min_size=n, max_size=n)))
    gt = np.array(draw(st.lists(components, min_size=n, max_size=n)))
    radius = draw(st.floats(min_value=1e-3, max_value=1e3))
    if draw(st.booleans()):  # hard case
        bottom = int(np.argmin(w))
        w[bottom] = -abs(w[bottom]) - 0.5
        tied = w == w[bottom]
        gt[tied] = 0.0
        pole_step = gt[~tied] / (w[~tied] - w[bottom])
        radius = math.sqrt(float(pole_step @ pole_step)) + radius
    q = np.eye(n)
    if draw(st.booleans()):  # rotate the eigenbasis
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        q = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]
    h = q @ np.diag(w) @ q.T
    return (h + h.T) / 2.0, q @ gt, radius


class TestExactSubproblem:
    @settings(max_examples=500, deadline=None)
    @given(ball_problems())
    def test_meets_optimality_conditions(self, problem):
        h, g, radius = problem
        n = g.size
        cm = CorrectedModel(quadratic_model(h), g, anchor=np.zeros(n))
        result = solve_subproblem(cm, radius)
        s = result.candidate
        assert result.descent_evaluations == 0
        assert math.sqrt(float(s @ s)) <= radius * (1.0 + 1e-12)

        # Moré-Sorensen: (H + lam I) s = -g, lam >= 0, lam (radius - |s|) = 0,
        # H + lam I positive semidefinite; lam is recovered from s
        w = np.linalg.eigvalsh(h)
        h_norm = float(np.max(np.abs(w)))
        g_norm = math.sqrt(float(g @ g))
        lam_scale = h_norm + g_norm / radius
        ss = float(s @ s)
        lam = -float(s @ (g + h @ s)) / ss if ss > 0.0 else 0.0
        residual = h @ s + lam * s + g
        # a finite exact step is never overridden: it is the candidate
        assert not result.cauchy_override_applied
        assert math.sqrt(float(residual @ residual)) <= 1e-12 * (
            g_norm + (h_norm + abs(lam)) * radius
        )
        tol = 1e-9 * lam_scale
        assert lam >= -tol
        assert lam * (radius - math.sqrt(ss)) <= tol * radius
        assert lam + w[0] >= -tol

        change = cm.value_change(s)
        assert result.predicted_change == change
        cp = cauchy_point(cm, radius)[0]
        assert change <= cm.value_change(cp) + 1e-12 * lam_scale * radius**2
        assert check_sufficient_decrease(change, g_norm, radius, max(h_norm, 1.5))

    def test_step_shifts_the_lowest_eigenvalue_to_an_exact_pole(self):
        # H = diag(-1, 2) shifted by 1 has the eigenvalues (0, 3): from the
        # exact pole Newton's first step is the root, s = (-1, 0)
        w, q = np.array([-1.0, 2.0]), np.eye(2)
        assert _exact_step(w, q, np.array([1.0, 0.0]), 1.0).tolist() == [-1.0, 0.0]
        # a convex H is not shifted: the interior step is -g / w
        w = np.array([1.0, 2.0])
        assert _exact_step(w, q, np.array([1.0, 2.0]), 10.0).tolist() == [-1.0, -1.0]

    def test_a_step_the_ball_scaled_is_projected_once(self):
        # the ball scales this exact step, and projecting the scaled point
        # again would move it by rounding: the candidate is the point
        # projected once, and its predicted change is measured there
        p = get_problem("P4")
        anchor, radius = np.array([-0.05, 1.03]), 0.125
        cm = CorrectedModel(p.model, [-1.3, -4.5], anchor=anchor)
        project = subproblem._ball_projection(anchor, radius)
        once = project(anchor + _exact_step(*cm.anchor_terms()[2:], radius))
        assert project(once).tobytes() != once.tobytes()
        result = solve_subproblem(cm, radius)
        assert not result.cauchy_override_applied
        assert result.candidate.tobytes() == once.tobytes()
        assert result.predicted_change == cm.value_change(once)

    @pytest.mark.parametrize("kind", ["definite", "indefinite", "hard", "n = 1"])
    def test_the_candidate_is_the_exact_step_projected_once(self, kind):
        # seeded models of each kind: the candidate has the bytes of the one
        # projection rule applied to anchor + the exact step, and its change
        # is measured there.  On the boundary the ball scales some steps by
        # rounding, and a second projection would move some of those again
        # (n >= 2).
        # A diagonal Hessian has the unit eigenbasis, so the hard case's 0
        # in q^T g on the bottom eigenvector is exact.
        rng = np.random.default_rng(["definite", "indefinite", "hard", "n = 1"].index(kind))
        scaled = moved_again = 0
        for _ in range(200):
            n = 1 if kind == "n = 1" else int(rng.integers(2, 5))
            w = 10.0 ** rng.uniform(-2.0, 2.0, n)
            if kind != "definite":
                w[0] *= -1.0 if kind != "n = 1" else rng.choice([-1.0, 1.0])
            anchor, lam = rng.uniform(-3.0, 3.0, n), rng.normal(size=n)
            if kind == "hard":
                anchor[0] = lam[0] = 0.0  # g is 0 on the bottom eigenvector
                h = np.diag(w)
            else:
                q = np.linalg.qr(rng.normal(size=(n, n)))[0]
                h = q @ np.diag(w) @ q.T
            oracle = quadratic_model((h + h.T) / 2.0)
            cm = CorrectedModel(oracle, lam, anchor=anchor)
            radius = 10.0 ** rng.uniform(-2.0, 2.0)
            with np.errstate(over="ignore", invalid="ignore"):
                raw = cm.anchor + _exact_step(*cm.anchor_terms()[2:], radius)
            project = subproblem._ball_projection(cm.anchor, radius)
            once = project(raw)
            scaled += once.tobytes() != raw.tobytes()
            moved_again += project(once).tobytes() != once.tobytes()
            change = CorrectedModel(oracle, lam, anchor=anchor).value_change(once)
            want, want_change = (once, change) if change <= 0.0 else (cm.anchor, 0.0)
            result = solve_subproblem(cm, radius)
            assert not result.cauchy_override_applied
            assert result.candidate.tobytes() == want.tobytes()
            assert struct.pack("d", result.predicted_change) == struct.pack("d", want_change)
        if kind != "n = 1":  # where no seeded step is scaled
            assert scaled > 0 and moved_again > 0

    def test_solvers_read_curvature_only_from_the_anchor_terms(self, monkeypatch):
        p = get_problem("P4")
        cm = CorrectedModel(p.model, [3.0, -0.5], anchor=[0.5, -1.25])
        cm.anchor_terms()

        def unreachable():
            raise AssertionError("the solvers reached the base model's eigendecomposition")

        monkeypatch.setattr(p.model, "hessian_eigh", unreachable)
        assert solve_subproblem(cm, 0.5).predicted_change < 0.0
        point, status = _box_minimize(cm, 10.0, None)
        assert status is None and point.tolist() == [-1.5, 0.25]

    def test_hard_case_fills_to_the_boundary(self):
        # g has no component on the eigenvalue -1; the pole step (0, -2/3)
        # lies inside the ball of radius 2
        cm = CorrectedModel(quadratic_model([[-1.0, 0.0], [0.0, 2.0]]), [0.0, 2.0],
                            anchor=[0.0, 0.0])
        result = solve_subproblem(cm, 2.0)
        expected = [math.sqrt(4.0 - 4.0 / 9.0), -2.0 / 3.0]
        assert result.candidate == pytest.approx(expected, abs=1e-12)

    def test_a_rise_by_rounding_returns_the_anchor(self):
        # A rotated singular H can have a computed lowest eigenvalue just below
        # 0.  At a zero gradient the exact step then fills to the boundary
        # along that eigenvector, where the model may rise by rounding; the
        # anchor, which changes nothing, is returned instead.
        rises = 0
        for seed in range(200):
            q = np.linalg.qr(np.random.default_rng(seed).normal(size=(2, 2)))[0]
            h = q @ np.diag([0.0, 3.0]) @ q.T
            cm = CorrectedModel(quadratic_model((h + h.T) / 2.0), [0.0, 0.0], anchor=[0.0, 0.0])
            result = solve_subproblem(cm, 1.0)
            assert result.predicted_change <= 0.0 and not result.cauchy_override_applied
            if cm.value_change(_exact_step(*cm.anchor_terms()[2:], 1.0)) > 0.0:
                rises += 1
                assert result.candidate.tolist() == [0.0, 0.0] and result.predicted_change == 0.0
        assert rises > 0

    def test_overflowing_step_falls_back_to_the_cauchy_point(self):
        # -g / w overflows the Newton iteration on a tiny eigenvalue; the
        # minimizer is the boundary point along -g, the Cauchy point.  The
        # overflow stays inside the solver: no warning reaches the caller.
        cm = CorrectedModel(quadratic_model([[4e-285]]), [1.0], anchor=[0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve_subproblem(cm, 1.0)
        assert result.candidate == pytest.approx([-1.0], rel=1e-15)
        assert result.cauchy_override_applied

    def test_closed_form_cauchy_step(self):
        # t = g.g / g.Hg = 5 / 8 along g = (1, 2) for H = diag(4, 1)
        cm = CorrectedModel(quadratic_model([[4.0, 0.0], [0.0, 1.0]]), [1.0, 2.0],
                            anchor=[0.0, 0.0])
        point, change = cauchy_point(cm, 10.0)
        assert point.tolist() == [-0.625, -1.25]
        assert change == cm.value_change(point)
        # nonpositive curvature along g: the boundary
        cm = CorrectedModel(quadratic_model([[-1.0, 0.0], [0.0, 0.0]]), [3.0, 4.0],
                            anchor=[0.0, 0.0])
        point, _ = cauchy_point(cm, 2.0)
        assert point == pytest.approx([-1.2, -1.6], rel=1e-15)

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_agrees_with_the_scan_path_on_the_catalog(self, pid):
        p = get_problem(pid)
        # the same function without a declared Hessian searches the ray
        scan = ScalarOracle(p.model.value, p.model.gradient, p.dimension)
        rng = np.random.default_rng(31)
        for _ in range(20):
            anchor = rng.uniform(-3.0, 3.0, size=p.dimension)
            lam = p.plant_gradient(anchor) - p.model_gradient(anchor)
            radius = rng.uniform(0.05, 4.0)
            models = [CorrectedModel(m, lam, anchor=anchor) for m in (p.model, scan)]
            exact, approx = (solve_subproblem(cm, radius) for cm in models)
            assert approx.descent_evaluations > 0 and exact.descent_evaluations == 0
            exact_cp, approx_cp = (cauchy_point(cm, radius)[0] for cm in models)
            assert exact_cp == pytest.approx(approx_cp, abs=1e-12)
            assert exact.candidate == pytest.approx(approx.candidate, abs=1e-6)
            for result, cm in zip((exact, approx), models):
                assert result.predicted_change == cm.value_change(result.candidate)

    def test_a_solve_measures_each_point_once(self):
        # building the model measures nothing; the solve takes one model
        # gradient, at the anchor, and two values, at the exact step and at
        # the anchor, whether or not that step is the Cauchy point to the bit
        # (it is on P3's sphere)
        for model, on_the_cauchy_point in (
            (get_problem("P3").model, True),
            (quadratic_model([[4.0, 0.0], [0.0, 1.0]]), False),
        ):
            before = (model.value_calls, model.gradient_calls)
            cm = CorrectedModel(model, [1.0, -3.0], anchor=[0.5, 0.5])
            assert (model.value_calls, model.gradient_calls) == before
            result = solve_subproblem(cm, 0.3)
            calls = (model.value_calls - before[0], model.gradient_calls - before[1])
            cp = cauchy_point(cm, 0.3)[0]
            assert (result.candidate.tobytes() == cp.tobytes()) == on_the_cauchy_point
            assert calls == (2, 1)

    @pytest.mark.parametrize("solve", [solve_subproblem, cauchy_point])
    def test_a_public_solve_checks_no_vector_after_the_build(self, solve):
        # the model checked its anchor, and the solver checks the point it
        # makes: each reaches the oracle as it is, with no second input check
        # at any import site (the tracer counts them all)
        models = []
        for pid in PROBLEM_IDS:
            model = get_problem(pid).model
            n = model.dimension
            models.append(CorrectedModel(model, [0.25, -3.0][:n], anchor=[0.5, 0.5][:n]))

        def solve_each():
            for cm in models:
                solve(cm, 0.3)
                assert (cm.base_model.value_calls, cm.base_model.gradient_calls) == (2, 1)

        assert input_checks(solve_each)[0] == 0

    def test_the_cauchy_point_is_built_only_for_an_overflowing_step(self, monkeypatch):
        def unreachable(model, radius):
            raise AssertionError("the exact path built the Cauchy point")

        monkeypatch.setattr(subproblem, "cauchy_point", unreachable)
        rng = np.random.default_rng(37)
        for pid in PROBLEM_IDS:  # convex (P1, P3, P4) and concave (P2) models
            p = get_problem(pid)
            for _ in range(20):
                anchor = rng.uniform(-3.0, 3.0, size=p.dimension)
                lam = p.plant_gradient(anchor) - p.model_gradient(anchor)
                cm = CorrectedModel(p.model, lam, anchor=anchor)
                assert not solve_subproblem(cm, rng.uniform(0.05, 4.0)).cauchy_override_applied
        # indefinite, and the hard case
        for g in ([1.0, 1.0], [0.0, 2.0]):
            cm = CorrectedModel(quadratic_model([[-1.0, 0.0], [0.0, 2.0]]), g, anchor=[0.0, 0.0])
            assert not solve_subproblem(cm, 2.0).cauchy_override_applied
        # the overflowing step of test_overflowing_step_falls_back_to_the_cauchy_point
        cm = CorrectedModel(quadratic_model([[4e-285]]), [1.0], anchor=[0.0])
        with pytest.raises(AssertionError, match="built the Cauchy point"):
            solve_subproblem(cm, 1.0)

    def test_a_new_radius_reuses_the_anchor_terms(self):
        p = get_problem("P4")
        cm = CorrectedModel(p.model, [1.0, -3.0], anchor=[0.5, 0.5])
        solve_subproblem(cm, 2.0)
        for radius in (1.0, 0.5, 0.25):
            before = p.model.gradient_calls
            result = solve_subproblem(cm, radius)
            assert p.model.gradient_calls == before
            fresh = CorrectedModel(p.model, [1.0, -3.0], anchor=[0.5, 0.5])
            expected = solve_subproblem(fresh, radius)
            assert result.candidate.tolist() == expected.candidate.tolist()
            assert result.predicted_change == expected.predicted_change


class TestSufficientDecrease:
    def test_hand_computed_quadratic_case(self):
        # 1-d quadratic from anchor 1 with radius 0.5: decrease 0.75
        assert check_sufficient_decrease(-0.75, 2.0, 0.5, beta=2.0, kappa=0.5)

    def test_zero_gradient_is_vacuous(self):
        assert check_sufficient_decrease(0.0, 0.0, 0.5, beta=2.0, kappa=0.5)

    def test_insufficient_decrease_fails(self):
        assert not check_sufficient_decrease(-0.1, 2.0, 0.5, beta=2.0, kappa=0.5)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match=r"kappa must be in \(0, 1\), got 1.0"):
            check_sufficient_decrease(-0.75, 2.0, 0.5, beta=2.0, kappa=1.0)
        with pytest.raises(ValueError, match="beta must be > 1, got 1.0"):
            check_sufficient_decrease(-0.75, 2.0, 0.5, beta=1.0, kappa=0.5)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.nan, 2.0, 0.5), "change must be finite, got nan"),
            ((-0.75, math.inf, 0.5), "grad_norm must be finite, got inf"),
            ((-0.75, 2.0, -math.inf), "radius must be finite, got -inf"),
            ((-0.75, -1.0, 0.5), "grad_norm must be >= 0"),
            ((-0.75, 2.0, 0.0), "radius must be > 0"),
        ],
        ids=["nan-change", "inf-grad-norm", "inf-radius", "negative-grad-norm", "zero-radius"],
    )
    def test_invalid_arguments_rejected(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            check_sufficient_decrease(*args, beta=2.0)


class TestEstimateBeta:
    def test_quadratic_curvature(self):
        cm = CorrectedModel(sphere_model(1), [1.0], anchor=[1.0])
        assert estimate_beta(cm, 1.0) == pytest.approx(2.0, abs=1e-3)

    def test_linear_model_floors_just_above_one(self):
        cm = CorrectedModel(linear_model([3.0]), [0.0], anchor=[0.0])
        assert estimate_beta(cm, 1.0) == pytest.approx(1.0 + 1e-6, abs=1e-9)

    def test_concave_curvature_magnitude(self):
        p = get_problem("P2")
        anchor = [1.0]
        lam = p.plant_gradient(anchor) - p.model_gradient(anchor)
        cm = CorrectedModel(p.model, lam, anchor=anchor)
        assert estimate_beta(cm, 1.0) == pytest.approx(2.0, abs=1e-3)

    def test_always_strictly_above_one(self):
        cm = CorrectedModel(sphere_model(), [0.0, 0.0], anchor=[0.0, 0.0])
        assert estimate_beta(cm, 1.0) > 1.0

    def test_nonpositive_radius_rejected(self):
        cm = CorrectedModel(sphere_model(1), [1.0], anchor=[1.0])
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius must be > 0"):
                estimate_beta(cm, radius)

    @pytest.mark.parametrize("radius", [1e-3, 1e-6])
    def test_large_modifiers_keep_the_curvature(self, radius):
        # P4's corrected gradient at (30, -40) is of order 1e5: second
        # differences of its values cancelled to 2.302 and 4,547 here
        p = get_problem("P4")
        anchor = np.array([30.0, -40.0])
        cm = CorrectedModel(p.model, p.plant_gradient(anchor) - p.model_gradient(anchor), anchor)
        values = p.model.value_calls
        assert estimate_beta(cm, radius) == pytest.approx(2.0, abs=1e-3)
        assert p.model.value_calls == values  # the gradient is differenced, never the value

    def test_far_anchors_keep_the_curvature_at_a_tiny_radius(self):
        # the modifiers here reach ~1e10: differenced with the gradient, their
        # rounding gave the floor or up to 26.5, never within 1e-3 of 2
        p = get_problem("P4")
        estimates = []
        for anchor in np.random.default_rng(7).uniform(-1000.0, 1000.0, (300, 2)):
            lam = p.plant_gradient(anchor) - p.model_gradient(anchor)
            estimates.append(estimate_beta(CorrectedModel(p.model, lam, anchor), 1e-6))
        assert max(abs(b - 2.0) for b in estimates) < 1e-4


def _reference_exact_step(w, q, gt, radius):
    """The exact step without the positive-definite fast path and with a
    separate interior test: the reference whose bits ``_exact_step``
    must return."""
    shifted = w + max(0.0, -w[0])
    pole = shifted == 0.0
    mu = math.sqrt(float(gt[pole] @ gt[pole])) / radius
    if mu == 0.0:
        gt = np.where(pole, 0.0, gt)
        shifted = np.where(pole, 1.0, shifted)
        s = -gt / shifted
        slack = radius * radius - float(s @ s)
        if slack >= 0.0:
            if w[0] < 0.0:
                s[0] = math.sqrt(slack)
            return q @ s
    for _ in range(subproblem._MAX_NEWTON_STEPS):
        d = shifted + mu
        c = gt / d
        norm2 = float(c @ c)
        norm = math.sqrt(norm2)
        if norm <= radius:
            break
        slope = radius * float(c @ (c / d))
        if slope == 0.0:
            break
        step = norm2 * (norm - radius) / slope
        if mu + step == mu:
            break
        mu += step
        if not math.isfinite(mu):  # no later pass would change it
            break
    return q @ (-gt / (shifted + mu))


KINDS = ("definite", "indefinite", "singular", "hard")


def exact_step_case(rng, kind):
    """(w, q, gt, radius) of one kind, 1-4-D, ``w`` ascending and, like
    ``hessian_eigh``'s, read-only; radii from 1e-300 to 1e300."""
    n = int(rng.integers(1, 5))
    w = np.sort(10.0 ** rng.uniform(-5.0, 5.0, n))
    if kind != "definite":
        w[0] = 0.0 if kind == "singular" else -w[0]
        w = np.sort(w)
    gt = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    gt[rng.random(n) < 0.2] = 0.0
    if kind == "hard":
        gt[w == w[0]] = 0.0
    q = np.eye(n) if rng.random() < 0.3 else np.linalg.qr(rng.normal(size=(n, n)))[0]
    w.setflags(write=False)
    return w, q, gt, 10.0 ** rng.uniform(-300.0, 300.0)


def seeded_exact_step_cases(kind):
    """The 500 cases of one kind that the comparison with the reference runs."""
    rng = np.random.default_rng(KINDS.index(kind))
    return [exact_step_case(rng, kind) for _ in range(500)]


def product_components(rng, n):
    """n components for the scalar-product check: mostly normal numbers of
    magnitude 10^-5..10^5, with +-0.0, subnormals and +-inf mixed in."""
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-5.0, 5.0, n)
    kind = rng.random(n)
    x = np.where(kind < 0.15, rng.choice([-0.0, 0.0], n), x)
    x = np.where((0.15 <= kind) & (kind < 0.25), rng.normal(size=n) * 2.0**-1030, x)
    return np.where(kind > 0.98, rng.choice([-math.inf, math.inf], n), x)


class TestScalarProducts:
    """The solvers and the model take scalar products with ``dot`` instead
    of ``@``, which costs the matmul ufunc's dispatch.  That is safe only
    while the bits agree: ``x.dot(x)`` with ``x @ x``, and ``x.dot(y) + 0.0``
    with ``x @ y`` (at n = 1 ``dot`` multiplies directly and keeps a -0.0
    that ``@`` sums to +0.0)."""

    def test_dot_has_the_bits_of_matmul(self):
        rng = np.random.default_rng(22)
        seen = set()
        for n in range(1, 33):
            for _ in range(300):
                x, y = product_components(rng, n), product_components(rng, n)
                with np.errstate(over="ignore", invalid="ignore"):
                    want, got = float(x @ y), float(x.dot(y))
                    assert struct.pack("d", got + 0.0) == struct.pack("d", want), (x, y)
                    assert struct.pack("d", float(x.dot(x))) == struct.pack("d", float(x @ x))
                if struct.pack("d", got) != struct.pack("d", want):
                    seen.add("-0.0 without + 0.0")
                seen.add("inf" if abs(want) == math.inf else "nan" if want != want else
                         "subnormal" if 0.0 < abs(want) < 2.0**-1022 else "normal")
        assert seen == {"-0.0 without + 0.0", "inf", "nan", "subnormal", "normal"}


class TestExactStepBits:
    @staticmethod
    def compare(cases):
        for w, q, gt, radius in cases:
            # the solver runs the step under this errstate: extreme radii overflow
            with np.errstate(over="ignore", invalid="ignore"):
                got = _exact_step(w, q, gt.copy(), radius)
                want = _reference_exact_step(w, q, gt.copy(), radius)
            assert got.tobytes() == want.tobytes(), (w, q, gt, radius)

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_bits_as_the_step_without_the_fast_path(self, kind):
        self.compare(seeded_exact_step_cases(kind))

    def test_same_bits_at_a_lowered_step_cap(self, monkeypatch):
        # no seeded case takes more than a few Newton passes: at a cap of 2
        # the cases that need more end at the cap's return
        monkeypatch.setattr(subproblem, "_MAX_NEWTON_STEPS", 2)
        self.compare([case for kind in KINDS[:2] for case in seeded_exact_step_cases(kind)])

    def test_the_comparison_reaches_every_exit(self, monkeypatch):
        # the interior and hard-case returns, each break of the Newton loop
        # (inside the ball, zero slope, mu + step == mu), the return at a mu
        # that overflowed or turned NaN, the step cap's return (at the
        # lowered cap) and the return after a break, found by a line tracer
        lines, first = inspect.getsourcelines(_exact_step)
        exits = {
            first + i
            for i, line in enumerate(lines)
            if line.strip().startswith(("return", "break", "s[0] = "))
        }
        assert len(exits) == 8
        code, ran = _exact_step.__code__, set()

        def trace_lines(frame, event, arg):
            ran.add(frame.f_lineno)
            return trace_lines

        def trace_calls(frame, event, arg):
            return trace_lines if frame.f_code is code else None

        cases = [case for kind in KINDS for case in seeded_exact_step_cases(kind)]
        previous = sys.gettrace()
        sys.settrace(trace_calls)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for w, q, gt, radius in cases:
                    _exact_step(w, q, gt.copy(), radius)
                monkeypatch.setattr(subproblem, "_MAX_NEWTON_STEPS", 2)
                for w, q, gt, radius in cases[:1000]:
                    _exact_step(w, q, gt.copy(), radius)
        finally:
            sys.settrace(previous)
        assert exits - ran == set()

    def test_a_models_first_pass_gives_the_same_bits(self):
        # the model's radius-free first pass against the one computed here,
        # on positive-definite models, from the interior to the boundary
        rng = np.random.default_rng(22)
        inside = set()
        for _ in range(300):
            n = int(rng.integers(1, 5))
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            h = q @ np.diag(10.0 ** rng.uniform(-3.0, 3.0, n)) @ q.T
            cm = CorrectedModel(quadratic_model((h + h.T) / 2.0), rng.normal(size=n),
                                anchor=rng.normal(size=n))
            w, q, gt = cm.anchor_terms()[2:]
            first = cm.newton_start()
            c = gt / w
            assert cm.newton_start() is first
            assert [x.tobytes() if isinstance(x, np.ndarray) else x for x in first] == [
                c.tobytes(), float(c @ c), float(c @ (c / w))
            ]
            for radius in 10.0 ** rng.uniform(-4.0, 4.0, 3):
                with np.errstate(over="ignore", invalid="ignore"):
                    got = _exact_step(w, q, gt, radius, first)
                    want = _exact_step(w, q, gt, radius)
                assert got.tobytes() == want.tobytes()
                inside.add(bool(np.linalg.norm(got) < radius * (1.0 - 1e-9)))
        assert inside == {True, False}

    @pytest.mark.parametrize("kind", ["indefinite", "singular", "hard"])
    def test_an_indefinite_models_first_pass_gives_the_same_bits(self, kind, monkeypatch):
        # the seeded cases as models (anchor 0, so g is the modifiers q gt),
        # each re-solved at a halving ladder of radii as a run re-solves a
        # kept model after rejected steps: every solve hands _exact_step the
        # one first pass the model built, read-only, and gets the step's bits
        # without it
        solves = []

        def compared(w, q, gt, radius, first=None):
            step = _exact_step(w, q, gt, radius, first)
            solves.append((first, step.tobytes() == _exact_step(w, q, gt, radius).tobytes()))
            return step

        monkeypatch.setattr(subproblem, "_exact_step", compared)
        for w, q, gt, radius in seeded_exact_step_cases(kind):
            q = q.copy()
            q.setflags(write=False)
            h = q @ np.diag(w) @ q.T
            model = ScalarOracle(lambda u, h=h: 0.5 * float(u @ (h @ u)), lambda u, h=h: h @ u,
                                 w.size, _curvature=(h, (w, q)))
            cm = CorrectedModel(model, q @ gt, anchor=np.zeros(w.size))
            gt = cm.anchor_terms()[4]
            first = cm.newton_start()
            assert cm.newton_start() is first
            shifted, pole, pole_norm = first
            assert not (shifted.flags.writeable or pole.flags.writeable)
            want = w + max(0.0, -w[0])
            assert shifted.tobytes() == want.tobytes()
            assert pole.tolist() == (want == 0.0).tolist() and pole.any()
            assert pole_norm == math.sqrt(float(gt[pole] @ gt[pole]))
            solves.clear()
            for k in range(6):
                solve_subproblem(cm, min(radius, 1e100) * 0.5**k)
            assert [(given is first, same) for given, same in solves] == [(True, True)] * 6

    def test_a_public_first_pass_is_quiet(self):
        # a tiny eigenvalue beside a large gradient overflows c = q^T g / w;
        # called outside any errstate, newton_start still raises no warning
        cm = CorrectedModel(quadratic_model(np.diag([1e-300, 1.0])), [1e10, 1.0],
                            anchor=[0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c, cc, cwc = cm.newton_start()
        assert c.tolist() == [math.inf, 1.0] and cc == cwc == math.inf

    def test_definite_cases_reach_the_interior_and_the_boundary(self):
        rng = np.random.default_rng(0)
        inside = set()
        for _ in range(500):
            w, q, gt, radius = exact_step_case(rng, "definite")
            s = _exact_step(w, q, gt, min(radius, 1e100))
            inside.add(bool(np.allclose(s, q @ (-gt / w))))
        assert inside == {True, False}
