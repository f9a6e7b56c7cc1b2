"""Tests for the ball-constrained solver, Cauchy search, and decrease checks."""

import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        for (calls, point, change), (calls_again, point_again, change_again) in zip(reused, again):
            assert calls == calls_again - 1
            assert (point, change) == (point_again, change_again)

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
        # change; where the ball projection leaves the point in place, the
        # descent starting there takes that change instead of a second.
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
        inside = [calls for kept, calls, _ in reused if kept]
        assert len(inside) >= 25
        assert inside == [1] * len(inside)

        def measured_again(*args, start_value=None, **kwargs):
            return projected_descent(*args, **kwargs)

        monkeypatch.setattr(subproblem, "projected_descent", measured_again)
        assert [result for *_, result in run()] == [result for *_, result in reused]


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
        # The Cauchy point replaces the exact step when its measured model
        # value is lower.  They tie only to rounding, and near a boundary
        # minimizer the model is flat to second order along the sphere, so
        # the Cauchy point then meets the conditions to about sqrt(eps).
        rel = 1e-6 if result.cauchy_override_applied else 1e-12
        assert math.sqrt(float(residual @ residual)) <= rel * (
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

    def test_one_model_gradient_and_two_values_per_solve(self):
        p = get_problem("P3")
        cm = CorrectedModel(p.model, [1.0, -3.0], anchor=[0.5, 0.5])
        before = (p.model.value_calls, p.model.gradient_calls)
        solve_subproblem(cm, 0.3)
        assert (p.model.value_calls - before[0], p.model.gradient_calls - before[1]) == (2, 1)

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
    for _ in range(100):
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


class TestExactStepBits:
    @pytest.mark.parametrize("kind", KINDS)
    def test_same_bits_as_the_step_without_the_fast_path(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        for _ in range(500):
            w, q, gt, radius = exact_step_case(rng, kind)
            # the solver runs the step under this errstate: extreme radii overflow
            with np.errstate(over="ignore", invalid="ignore"):
                got = _exact_step(w, q, gt.copy(), radius)
                want = _reference_exact_step(w, q, gt.copy(), radius)
            assert got.tobytes() == want.tobytes(), (w, q, gt, radius)

    def test_definite_cases_reach_the_interior_and_the_boundary(self):
        rng = np.random.default_rng(0)
        inside = set()
        for _ in range(500):
            w, q, gt, radius = exact_step_case(rng, "definite")
            s = _exact_step(w, q, gt, min(radius, 1e100))
            inside.add(bool(np.allclose(s, q @ (-gt / w))))
        assert inside == {True, False}
