"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

The expensive driver runs are executed once per session and shared.
Criterion 1 checks convergence, not a rate.  On the rosenbrock-plant
benchmark (P3) the spherical surrogate makes every candidate step a
steepest-descent ray, which needs on the order of 1e4-1e5 iterations to
reach a 1e-6 gradient norm, so P3 gets its own run with an explicit
iteration and plant-probe budget; the 500-iteration default covers the
other problems.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from rtopt import (
    CorrectedModel,
    RunConfig,
    check_sufficient_decrease,
    estimate_beta,
    finite_difference_gradient,
    get_problem,
    run_basic_ma,
    run_ma_tr,
    run_trust_region,
    solve_subproblem,
    update_radius,
)
from rtopt.cli import main
from rtopt.drivers import DEGENERATE
from rtopt.problems import PROBLEM_IDS

STARTS = {"P1": [0.0, 0.0], "P2": [3.0], "P3": [-1.2, 1.0], "P4": [0.0, 0.0]}


def report(number: int, passed: bool, detail: str) -> bool:
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] criterion {number:02d}: {detail}")
    return passed


# Budget of the uncapped P3 run: about 30% above the 15,433 iterations
# and 30,752 plant probes default ma-tr takes to reach a 1e-6 gradient.
P3_BUDGET = dict(max_iterations=20_000, max_plant_evaluations=40_000)


@pytest.fixture(scope="session")
def ma_tr_suite():
    """Defaults-only gradient-matched runs from the documented starts."""
    return {pid: run_ma_tr(get_problem(pid), STARTS[pid]) for pid in STARTS}


@pytest.fixture(scope="session")
def ma_tr_p3_budgeted():
    """Default gradient-matched P3 run under ``P3_BUDGET``."""
    return run_ma_tr(get_problem("P3"), STARTS["P3"], **P3_BUDGET)


@pytest.fixture(scope="session")
def tr_suite():
    return {pid: run_trust_region(get_problem(pid), STARTS[pid]) for pid in STARTS}


def test_criterion_01_safeguarded_convergence(ma_tr_suite, ma_tr_p3_budgeted):
    traces = dict(ma_tr_suite, P3=ma_tr_p3_budgeted)
    parts = []
    ok = True
    for pid, trace in traces.items():
        good = trace.termination_status == "converged" and trace.final_gradient_norm <= 1e-6
        ok = ok and good
        budget = trace.config["max_iterations"]
        probes = trace.config["max_plant_evaluations"]
        parts.append(
            f"{pid}: {trace.termination_status} in {trace.iterations}/{budget} it, "
            f"{trace.plant_evaluation_count}/{probes} probes "
            f"(grad {trace.final_gradient_norm:.2e})"
        )
    detail = f"safeguarded runs reach grad <= 1e-6 [{'; '.join(parts)}]"
    assert report(1, ok, detail), detail


def test_criterion_02_divergence_vs_convergence():
    plain = run_basic_ma(get_problem("P2"), STARTS["P2"])
    safeguarded = run_ma_tr(get_problem("P2"), STARTS["P2"])
    ok = (
        plain.termination_status == "unbounded-subproblem"
        and safeguarded.termination_status == "converged"
    )
    detail = (
        f"plain correction on P2 -> {plain.termination_status}, "
        f"safeguarded -> {safeguarded.termination_status}"
    )
    assert report(2, ok, detail), detail


def test_criterion_03_fixed_point_on_benign_problem():
    trace = run_basic_ma(get_problem("P1"), STARTS["P1"])
    first = trace.records[0].applied_input if trace.records else None
    ok = (
        trace.termination_status == "converged"
        and trace.final_gradient_norm <= 1e-10
        and first is not None
        and np.max(np.abs(first - np.array([1.0, 1.0]))) <= 1e-8
    )
    detail = (
        f"P1 plain correction: {trace.termination_status}, first iterate {first}, "
        f"final grad {trace.final_gradient_norm:.2e}"
    )
    assert report(3, ok, detail), detail


def _rebuild(problem, record, shifted):
    return CorrectedModel(
        problem.model,
        record.modifiers,
        anchor=record.reference,
        plant_value_at_anchor=record.plant_value_at_reference if shifted else None,
    )


def test_criterion_04_matching_conditions(ma_tr_suite):
    worst_grad = 0.0
    worst_val = 0.0
    for pid, trace in ma_tr_suite.items():
        problem = get_problem(pid)
        for r in trace.records:
            plain, shifted = (_rebuild(problem, r, s) for s in (False, True))
            plant_grad = problem.plant_gradient(r.reference)
            for model in (plain, shifted):
                gap = float(np.linalg.norm(model.gradient(r.reference) - plant_grad))
                worst_grad = max(worst_grad, gap)
            worst_val = max(
                worst_val, abs(shifted.value(r.reference) - r.plant_value_at_reference)
            )
    ok = worst_grad <= 1e-12 and worst_val <= 1e-12
    detail = (
        f"gradient match worst gap {worst_grad:.2e}, "
        f"shifted value match worst gap {worst_val:.2e}"
    )
    assert report(4, ok, detail), detail


def test_criterion_05_sufficient_decrease_certificate(ma_tr_suite, tr_suite):
    checked = 0
    failures = 0
    for suite in (ma_tr_suite, tr_suite):
        for pid, trace in suite.items():
            problem = get_problem(pid)
            shifted = trace.algorithm == "trust-region"
            for r in trace.records:
                model = _rebuild(problem, r, shifted=shifted)
                change = model.value_change(r.applied_input)
                gnorm = float(np.linalg.norm(model.gradient(r.reference)))
                beta = estimate_beta(model, r.radius)
                checked += 1
                if not check_sufficient_decrease(change, gnorm, r.radius, beta, kappa=0.1):
                    failures += 1
    ok = failures == 0 and checked > 0
    detail = f"decrease certificate held at {checked - failures}/{checked} iterations"
    assert report(5, ok, detail), detail


def test_criterion_06_radius_update_conformance():
    rng = np.random.default_rng(2024)
    base = RunConfig(problem="P1", algorithm="ma-tr", u0=STARTS["P1"])
    failures = 0
    for case in range(10_000):
        radius = float(10.0 ** rng.uniform(-8, 6))
        eta1 = rng.uniform(0.01, 0.5)
        eta2 = eta1 + rng.uniform(0.0, 0.99 - eta1)
        constants = replace(
            base,
            delta0=radius,
            eta1=eta1,
            eta2=eta2,
            shrink_factor=rng.uniform(0.01, 0.99),
            expansion_factor=1.0 + rng.uniform(0.01, 9.0),
            radius_max=None if case % 3 else radius * rng.uniform(1.0, 4.0),
        ).check()
        cap = np.inf if constants.radius_max is None else constants.radius_max
        draw = rng.uniform()
        if draw < 0.05:
            rho = None
        elif draw < 0.10:
            rho = eta1  # exactly at a threshold
        elif draw < 0.15:
            rho = eta2
        else:
            rho = float(rng.uniform(-4.0, 2.5))
        out = update_radius(radius, rho, constants)
        if rho is not None and rho >= eta2:
            good = out == min(constants.expansion_factor * radius, cap)
        elif rho is not None and rho >= eta1:
            good = out == radius
        else:
            good = out == constants.shrink_factor * radius
        if not (good and out > 0.0):
            failures += 1
    ok = failures == 0
    detail = f"radius update took its branch's exact value in {10_000 - failures}/10000 cases"
    assert report(6, ok, detail), detail


def test_criterion_07_shift_equivalence(ma_tr_suite):
    """The value shift cancels from the subproblem: each record's model,
    rebuilt with and without the plant value at its reference, gives the
    same step, the one the run applied, though the two models' values at
    the reference differ."""
    checked = same = differ = 0
    for pid, trace in ma_tr_suite.items():
        problem = get_problem(pid)
        for r in trace.records:
            plain, shifted = (_rebuild(problem, r, s) for s in (False, True))
            a = solve_subproblem(plain, r.radius)
            b = solve_subproblem(shifted, r.radius)
            checked += 1
            same += (
                a.candidate.tobytes() == b.candidate.tobytes() == r.applied_input.tobytes()
                and a.predicted_change == b.predicted_change
            )
            differ += plain.value(r.reference) != shifted.value(r.reference)
    ok = checked > 0 and same == differ == checked
    detail = (
        f"shifted and unshifted models gave the applied step at {same}/{checked} "
        f"iterations, with anchor values that differ at {differ}"
    )
    assert report(7, ok, detail), detail


def test_criterion_08_monotone_acceptance(ma_tr_suite, tr_suite):
    ok = True
    for suite in (ma_tr_suite, tr_suite):
        for trace in suite.values():
            values = [r.plant_value_at_reference for r in trace.records]
            values.append(trace.final_plant_value)
            for i, r in enumerate(trace.records):
                if r.accepted and not values[i + 1] < values[i]:
                    ok = False
                if not r.accepted and values[i + 1] != values[i]:
                    ok = False
    detail = "reference plant values non-increasing, strictly lower after acceptance"
    assert report(8, ok, detail), detail


def test_criterion_09_gradient_oracle_integrity():
    worst = 0.0
    rng = np.random.default_rng(99)
    for pid in PROBLEM_IDS:
        problem = get_problem(pid)
        for _ in range(100):
            u = rng.uniform(-3.0, 3.0, size=problem.dimension)
            fd = finite_difference_gradient(problem.plant, u, 1e-5)
            worst = max(worst, float(np.max(np.abs(fd - problem.plant_gradient(u)))))
    ok = worst <= 1e-6
    detail = f"analytic vs central-difference worst gap {worst:.2e} over 100 pts/problem"
    assert report(9, ok, detail), detail


def test_criterion_10_subproblem_oracle_equivalence():
    problem = get_problem("P1")
    fixtures = [
        (np.array([0.0, 0.0]), np.array([-2.0, -2.0]), 10.0),
        (np.array([0.0, 0.0]), np.array([-2.0, -2.0]), 0.5),
        (np.array([0.5, -0.25]), np.array([1.0, -3.0]), 1.0),
    ]
    worst_solver = 0.0
    worst_grid = 0.0
    for anchor, lam, radius in fixtures:
        model = CorrectedModel(problem.model, lam, anchor=anchor)
        # analytic: spherical level sets around -lam/2, projected onto the ball
        center = -lam / 2.0
        offset = center - anchor
        dist = float(np.linalg.norm(offset))
        if dist <= radius:
            analytic = center
        else:
            analytic = anchor + offset * (radius / dist)
        # independent brute-force oracle: dense grid over the disk
        xs = np.linspace(anchor[0] - radius, anchor[0] + radius, 201)
        ys = np.linspace(anchor[1] - radius, anchor[1] + radius, 201)
        gx, gy = np.meshgrid(xs, ys)
        values = gx**2 + gy**2 + lam[0] * gx + lam[1] * gy
        inside = (gx - anchor[0]) ** 2 + (gy - anchor[1]) ** 2 <= radius**2
        values = np.where(inside, values, np.inf)
        flat = int(np.argmin(values))
        grid_best = np.array([gx.flat[flat], gy.flat[flat]])
        spacing = xs[1] - xs[0]
        worst_grid = max(worst_grid, float(np.linalg.norm(grid_best - analytic)))
        result = solve_subproblem(model, radius)
        worst_solver = max(worst_solver, float(np.linalg.norm(result.candidate - analytic)))
        assert np.linalg.norm(grid_best - analytic) <= 2.0 * spacing
    ok = worst_solver <= 1e-6
    detail = (
        f"solver vs analytic worst gap {worst_solver:.2e} "
        f"(grid cross-check within {worst_grid:.2e})"
    )
    assert report(10, ok, detail), detail


def test_criterion_11_reproducibility(tmp_path):
    config = {
        "problem": "P4",
        "algorithm": "ma-tr",
        "u0": [0.0, 0.0],
        "noise_level": 0.02,
        "seed": 42,
        "max_iterations": 40,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    ok = True
    for fmt in ("csv", "json"):
        out_a = tmp_path / f"a.{fmt}"
        out_b = tmp_path / f"b.{fmt}"
        assert main(["run", str(cfg_path), "--format", fmt, "--output", str(out_a)]) == 0
        assert main(["run", str(cfg_path), "--format", fmt, "--output", str(out_b)]) == 0
        ok = ok and out_a.read_bytes() == out_b.read_bytes()
    detail = "same config and seed exported bit-identical csv and json traces"
    assert report(11, ok, detail), detail


def test_capped_rosenbrock_run_keeps_invariants(ma_tr_suite):
    """The default 500-iteration P3 run (criterion 1 gives P3 a larger
    budget) still satisfies every per-iteration invariant and makes real
    progress; only the 500-iteration budget binds.
    """
    trace = ma_tr_suite["P3"]
    constants = RunConfig(problem="P3", algorithm="ma-tr", u0=STARTS["P3"])
    assert trace.termination_status == "max-iterations"
    assert trace.iterations == 500
    # substantial descent happened even though the tolerance was not reached
    assert trace.final_plant_value < 1.0 < trace.records[0].plant_value_at_reference
    assert trace.final_gradient_norm < 5.0
    for prev, nxt in zip(trace.records, trace.records[1:]):
        if prev.rho == DEGENERATE or prev.rho < constants.eta1:
            assert nxt.radius == constants.shrink_factor * prev.radius
        elif prev.rho >= constants.eta2:
            assert nxt.radius == constants.expansion_factor * prev.radius
        else:
            assert nxt.radius == prev.radius
        assert nxt.radius > 0.0


def test_budgeted_rosenbrock_run_has_no_degenerate_iteration(ma_tr_p3_budgeted):
    """Near the optimum the plant value is about 1e-12 and every predicted
    decrease about 1e-15; measured against that scale, none is degenerate,
    so the radius never collapses."""
    trace = ma_tr_p3_budgeted
    assert not any(r.rho == DEGENERATE for r in trace.records)
    assert all(r.radius > 0.0 for r in trace.records)
