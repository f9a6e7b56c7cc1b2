"""Tests for the three run drivers, trace structure, and loop invariants."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtopt import (
    DEGENERATE,
    ConfigError,
    CorrectedModel,
    ModifierFilter,
    ProblemPair,
    RunConfig,
    ScalarOracle,
    cauchy_point,
    check_convergence,
    check_sufficient_decrease,
    estimate_beta,
    get_problem,
    run_basic_ma,
    run_ma_tr,
    run_trust_region,
    export_trace,
    solve_subproblem,
    trace_to_dict,
)
from rtopt import corrected_model, drivers, problems, subproblem, trust_region
from rtopt.config import config_from_dict, run_config
from rtopt.problems import as_input_vector
from rtopt.drivers import SETTINGS, TERMINATION_STATUSES, _box_minimize

STARTS = {"P1": [0.0, 0.0], "P2": [3.0], "P3": [-1.2, 1.0], "P4": [0.0, 0.0]}

# the default run settings, as the trust-region helpers read them
DEFAULTS = RunConfig(problem="P1", algorithm="ma-tr", u0=STARTS["P1"])

# Polished to machine precision by local quadratic convergence from the
# standard literature coordinates; frozen here after one-time computation.
HIMMELBLAU_MINIMIZERS = [
    (3.0, 2.0),
    (-2.805118086952745, 3.131312518250573),
    (-3.779310253377747, -3.2831859912861696),
    (3.5844283403304917, -1.8481265269644034),
]


def rebuild_model(problem, record, shifted=False):
    return CorrectedModel(
        problem.model,
        record.modifiers,
        anchor=record.reference,
        plant_value_at_anchor=record.plant_value_at_reference if shifted else None,
    )


def next_radius(record, constants):
    """The radius after ``record``: expanded (up to the cap, None being
    none), kept, or shrunk by ``shrink_factor``, by the branch its rho
    falls in; ``constants`` is the run's RunConfig."""
    if record.rho == DEGENERATE or record.rho < constants.eta1:
        return constants.shrink_factor * record.radius
    if record.rho >= constants.eta2:
        cap = math.inf if constants.radius_max is None else constants.radius_max
        return min(constants.expansion_factor * record.radius, cap)
    return record.radius


class TestBasicMA:
    def test_p1_converges_in_one_step(self):
        trace = run_basic_ma(get_problem("P1"), [0.0, 0.0])
        assert trace.termination_status == "converged"
        assert trace.iterations == 1
        assert trace.records[0].applied_input == pytest.approx([1.0, 1.0], abs=1e-8)
        assert trace.records[0].modifiers == pytest.approx([-2.0, -2.0])
        assert trace.final_gradient_norm <= 1e-10

    def test_p2_subproblem_is_unbounded(self):
        for u0 in ([1.0], [3.0]):
            trace = run_basic_ma(get_problem("P2"), u0)
            assert trace.termination_status == "unbounded-subproblem"

    def test_converged_fixed_point_is_critical(self):
        trace = run_basic_ma(get_problem("P4"), [0.0, 0.0])
        if trace.termination_status == "converged":
            assert trace.final_gradient_norm <= 1e-6

    def test_p4_minimizers_leave_the_box(self):
        # the corrected sphere is convex, so the subproblem is bounded, but
        # its minimizers run (0,0) -> (7,11) -> (-800,-2700) and the next
        # one, about 1e10 out, lies beyond the 1e6 box
        trace = run_basic_ma(get_problem("P4"), [0.0, 0.0])
        assert trace.termination_status == "outside-box"
        assert trace.iterations == 2
        assert trace.plant_evaluation_count == 6
        assert trace.records[0].applied_input == pytest.approx([7.0, 11.0])

    def test_already_critical_start(self):
        trace = run_basic_ma(get_problem("P1"), [1.0, 1.0])
        assert trace.termination_status == "converged"
        assert trace.iterations == 0

    def test_filtered_run_is_annotated_and_still_converges_on_p1(self):
        trace = run_basic_ma(get_problem("P1"), [0.0, 0.0], alpha=0.5)
        assert "no convergence guarantee" in trace.notes
        assert trace.termination_status == "converged"
        # raw gradient gap is constant, so iterates approach the optimum
        # geometrically instead of in one step
        assert trace.iterations > 5

    def test_records_fields_for_ma(self):
        trace = run_basic_ma(get_problem("P1"), [0.0, 0.0])
        r = trace.records[0]
        assert r.rho is None
        assert r.radius is None
        assert r.accepted
        assert not r.cauchy_override
        assert np.array_equal(r.reference, [0.0, 0.0])
        assert r.plant_value_at_reference == 2.0

    def test_iteration_cap(self):
        # heavily filtered corrections approach the optimum only
        # geometrically, so a small cap binds before convergence
        trace = run_basic_ma(get_problem("P1"), [0.0, 0.0], alpha=0.1, max_iterations=3)
        assert trace.termination_status == "max-iterations"
        assert trace.iterations == 3

    def test_beyond_box_minimizer_is_flagged(self):
        # from this start the corrected-model minimizers race outward and
        # leave the search box; the run stops there rather than silently
        # continuing
        trace = run_basic_ma(get_problem("P3"), [-1.2, 1.0])
        assert trace.termination_status == "outside-box"


def quadratic(h, c=None, declared=True):
    """u.Hu / 2 + c.u, with its Hessian declared or not."""
    h = np.asarray(h, dtype=float)
    c = np.zeros(h.shape[0]) if c is None else np.asarray(c, dtype=float)
    return ScalarOracle(
        lambda u: 0.5 * float(u @ (h @ u)) + float(c @ u),
        lambda u: h @ u + c,
        h.shape[0],
        hessian=h if declared else None,
    )


magnitudes = st.floats(min_value=0.1, max_value=10.0)


def vectors(n, low, high):
    return st.lists(st.floats(low, high), min_size=n, max_size=n).map(np.array)


def random_basis(draw, n):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))[0]


@st.composite
def box_steps(draw):
    """(kind, H, g, anchor, halfwidth, nearest), 1-3-D, with H in a random
    eigenbasis: positive definite, indefinite, or singular and positive
    semidefinite.  ``nearest`` is the anchor plus a step in H's range, so
    it is the minimizer of a bounded model nearest the anchor, and
    g = H (anchor - nearest); the 'off-range' kind adds to g a part on H's
    null space.  ``nearest`` lies at least 10% inside the box or 10%
    beyond it."""
    n = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["definite", "indefinite", "singular", "off-range"]))
    w = draw(vectors(n, 0.1, 10.0))
    halfwidth = draw(st.floats(0.5, 100.0))
    anchor = draw(vectors(n, -0.2, 0.2)) * halfwidth
    target = draw(vectors(n, -0.9, 0.9)) * halfwidth
    if draw(st.booleans()):  # beyond the box
        i = draw(st.integers(min_value=0, max_value=n - 1))
        target[i] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.1, 3.0)) * halfwidth
    null = np.zeros(n, dtype=bool)
    if kind in ("singular", "off-range"):
        null = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assume(null.any())
        w[null] = 0.0
    elif kind == "indefinite":
        w[draw(st.integers(min_value=0, max_value=n - 1))] *= -1.0
    q = random_basis(draw, n)
    span = q[:, ~null]
    nearest = anchor + span @ (span.T @ (target - anchor))
    extent = np.max(np.abs(nearest)) / halfwidth
    assume(extent <= 0.9 or extent >= 1.1)
    h = q @ np.diag(w) @ q.T
    h = (h + h.T) / 2.0
    g = h @ (anchor - nearest)
    if kind == "off-range":
        g += q[:, null] @ np.array([draw(magnitudes) for _ in range(null.sum())])
    return kind, h, g, anchor, halfwidth, nearest


def reference_box_step(model, halfwidth):
    """The closed-form whole-box step with its null-eigenvalue masks built
    whatever the eigenvalues: the reference whose bits ``_box_minimize``
    must return for a model with a declared Hessian."""
    current = model.anchor
    w, q, gt = model.anchor_terms()[2:]
    tol = 10 * w.size * math.ulp(1.0)
    scale = max(-w[0], w[-1])
    null = np.abs(w) <= tol * scale
    step = np.where(null, 0.0, gt) / np.where(null, 1.0, w)
    off_range = null.any() and np.linalg.norm(gt[null]) > tol * (
        np.linalg.norm(gt) + scale * (np.linalg.norm(step) + np.linalg.norm(current))
    )
    point = current - q @ step
    if w[0] < -tol * scale or off_range:
        return current, "unbounded-subproblem"
    return point, None if np.all(np.abs(point) <= halfwidth) else "outside-box"


class TestWholeBoxStep:
    @settings(max_examples=150, deadline=None)
    @given(box_steps())
    def test_closed_form_has_the_bits_of_the_full_mask_form(self, problem):
        _, h, g, anchor, halfwidth, _ = problem
        model = CorrectedModel(quadratic(h), g - h @ anchor, anchor=anchor)
        point, status = _box_minimize(model, halfwidth, rng=None)
        want_point, want_status = reference_box_step(model, halfwidth)
        assert status == want_status
        assert point.tobytes() == want_point.tobytes()

    def test_closed_form_of_fixed_models_has_the_bits_of_the_full_mask_form(self):
        models = [
            CorrectedModel(get_problem(pid).model, [lam] * n, anchor=[1.0] * n)
            for pid, n in (("P1", 2), ("P2", 1), ("P4", 2))
            for lam in (1.0, 1e300)
        ]
        # eigenvalues near 1e-300 overflow the step: the point is -inf, then NaN and inf
        c = math.sqrt(0.5)
        q = np.array([[c, -c], [c, c]])
        tiny = q @ np.diag([1e-300, 2e-300]) @ q.T
        models.append(CorrectedModel(quadratic([[1e-300]]), [1e10], anchor=[0.0]))
        models.append(CorrectedModel(quadratic((tiny + tiny.T) / 2.0), [1e10, -3e10], [0.0, 0.0]))
        statuses = set()
        for model in models:
            with np.errstate(over="ignore", invalid="ignore"):  # as in a run
                point, status = _box_minimize(model, 1e6, rng=None)
                want_point, want_status = reference_box_step(model, 1e6)
            assert (status, point.tobytes()) == (want_status, want_point.tobytes())
            statuses.add(status)
        assert statuses == {None, "unbounded-subproblem", "outside-box"}

    @settings(max_examples=150, deadline=None)
    @given(box_steps())
    def test_closed_form_agrees_with_the_box_search(self, problem):
        kind, h, g, anchor, halfwidth, nearest = problem
        # the corrected model's gradient at the anchor is g
        closed = CorrectedModel(quadratic(h), g - h @ anchor, anchor=anchor)
        search = CorrectedModel(quadratic(h, declared=False), g - h @ anchor, anchor=anchor)
        assert closed.gradient(anchor) == pytest.approx(g, abs=1e-9)
        point, status = _box_minimize(closed, halfwidth, rng=None)
        found, found_status = _box_minimize(search, halfwidth, np.random.default_rng(0))

        unbounded = kind in ("indefinite", "off-range")
        assert (status == "unbounded-subproblem") == unbounded
        if unbounded:
            # the search sees only the box: it reports a model unbounded
            # below like a minimizer beyond it
            assert found_status == "outside-box"
            return
        outside = np.max(np.abs(nearest)) > halfwidth
        assert status == ("outside-box" if outside else None)
        # the closed form is the step from the anchor in H's range
        assert point == pytest.approx(nearest, abs=1e-9 * halfwidth)
        scale = 1.0 + float(np.max(np.abs(h))) * halfwidth**2
        assert h @ (point - anchor) == pytest.approx(-g, abs=1e-9 * scale)
        if kind == "definite":
            assert found_status == status
        # A singular model's other minimizers may lie in the box when the
        # nearest does not, and rounding leaves its zero curvature a few
        # eps off zero, so the search's status is not the closed form's.
        # Where either point is in the box, both reach the minimum value.
        if status is None or found_status is None:
            assert closed.value_change(point) == pytest.approx(
                search.value_change(found), abs=1e-9 * scale
            )
        if kind == "definite" and status is None:
            assert point == pytest.approx(found, abs=1e-6)

    def test_unbounded_exactly_when_curvature_or_null_gradient(self):
        # w0 < 0, or g on a zero eigenvalue, beyond rounding: parts below
        # 10 n eps of the scale count as zero; g in the range is bounded
        cases = [
            ([[-1.0, 0.0], [0.0, 2.0]], [0.0, 1.0], "unbounded-subproblem"),
            ([[-1e-12, 0.0], [0.0, 2.0]], [0.0, 1.0], "unbounded-subproblem"),
            ([[-1e-17, 0.0], [0.0, 2.0]], [0.0, 1.0], None),
            ([[0.0, 0.0], [0.0, 2.0]], [1e-12, 1.0], "unbounded-subproblem"),
            ([[0.0, 0.0], [0.0, 2.0]], [1e-300, 1.0], None),
            ([[0.0, 0.0], [0.0, 2.0]], [0.0, 1.0], None),
            ([[2.0, 0.0], [0.0, 2.0]], [1.0, 1.0], None),
        ]
        for h, g, expected in cases:
            model = CorrectedModel(quadratic(h), g, anchor=[0.0, 0.0])
            assert _box_minimize(model, 10.0, rng=None)[1] == expected

    def test_singular_hessians_are_bounded_to_rounding(self):
        # eigh leaves a rounding residue of about 1e-16 of g on the zero
        # eigenvector of this H, which is not diagonal
        h = np.array([[1.0, 2.0], [2.0, 4.0]])
        model = CorrectedModel(quadratic(h), h @ np.ones(2), anchor=[0.0, 0.0])
        point, status = _box_minimize(model, 10.0, rng=None)
        assert status is None
        assert point == pytest.approx([-0.6, -1.2], abs=1e-12)
        # g = Hu + b rounds at the scale of |H| |u|, here far above |g|
        c, s = np.cos(0.5), np.sin(0.5)
        q = np.array([[c, -s], [s, c]])
        h = q @ np.diag([0.0, 3.0]) @ q.T
        h = (h + h.T) / 2.0
        anchor, step = np.array([0.5, 0.7]), 1e-9 * q[:, 1]
        model = CorrectedModel(quadratic(h), -h @ step - h @ anchor, anchor=anchor)
        point, status = _box_minimize(model, 10.0, rng=None)
        assert status is None
        assert point == pytest.approx(anchor + step, abs=1e-12)
        # the zero eigenvector rounds at the scale of |H| |s|, here far
        # above |g|: g lies along an eigenvalue 1e6 times below |H|
        q = np.linalg.qr(np.random.default_rng(1).normal(size=(3, 3)))[0]
        h = q @ np.diag([0.0, 1e-3, 1e3]) @ q.T
        h = (h + h.T) / 2.0
        model = CorrectedModel(quadratic(h), h @ q[:, 1], anchor=np.zeros(3))
        assert _box_minimize(model, 10.0, rng=None)[1] is None

    def test_declared_hessian_builds_no_generator(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("a declared Hessian needs no random starts")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        trace = run_basic_ma(get_problem("P1", seed=5), [0.0, 0.0])
        assert trace.termination_status == "converged"
        assert trace.config["seed"] == 5


@st.composite
def quadratic_pairs(draw):
    """A ProblemPair of random 1-4-D quadratics, convex or not; the model
    declares its Hessian or not; noise-free or noisy.  Returns
    (build, u0, noisy), ``build`` making a fresh pair per run."""
    n = draw(st.integers(min_value=1, max_value=4))

    def symmetric():
        w = draw(vectors(n, -2.0, 5.0))
        q = random_basis(draw, n)
        h = q @ np.diag(w) @ q.T
        return (h + h.T) / 2.0

    plant_h, plant_c = symmetric(), draw(vectors(n, -3.0, 3.0))
    model_h, model_c = symmetric(), draw(vectors(n, -3.0, 3.0))
    declared = draw(st.booleans())
    noise = draw(st.sampled_from([0.0, 0.02]))
    seed = draw(st.integers(min_value=0, max_value=1000))
    u0 = draw(vectors(n, -3.0, 3.0))

    def build():
        plant = quadratic(plant_h, plant_c, declared=False)
        model = quadratic(model_h, model_c, declared=declared)
        return ProblemPair("random", plant, model, noise_level=noise, seed=seed)

    return build, u0, noise > 0.0


@st.composite
def loop_settings(draw):
    """(settings, constants): an initial radius and valid trust-region
    settings as driver keywords, the radius cap unbounded (None) or at
    least ``delta0``, and the RunConfig they describe, which
    ``next_radius`` reads."""
    delta0 = draw(st.floats(0.01, 10.0))
    eta1 = draw(st.floats(0.01, 0.9))
    settings = dict(
        eta1=eta1,
        eta2=draw(st.floats(eta1, 0.99)),
        expansion_factor=draw(st.floats(1.1, 4.0)),
        shrink_factor=draw(st.floats(0.05, 0.95)),
        radius_max=draw(st.one_of(st.just(None), st.floats(1.0, 100.0).map(delta0.__mul__))),
        delta0=delta0,
    )
    return settings, replace(DEFAULTS, **settings)


class TestRandomQuadraticPairs:
    @settings(max_examples=20, deadline=None)
    @given(quadratic_pairs(), loop_settings(), st.floats(0.0, 1.0, exclude_min=True))
    def test_every_driver_ends_in_a_documented_status(self, pair, loop, alpha):
        build, u0, noisy = pair
        settings, constants = loop
        stop = dict(tolerance=1e-6, max_iterations=100)
        ball = dict(settings, **stop)
        # basic-ma runs 10 iterations: its box search without a Hessian
        # spends up to 20,000 model values an iteration
        boxed = dict(stop, max_iterations=10, box_halfwidth=100.0)
        traces = {
            "basic-ma": run_basic_ma(build(), u0, **boxed),
            "trust-region": run_trust_region(build(), u0, **ball),
            "ma-tr": run_ma_tr(build(), u0, **ball),
            "filtered ma-tr": run_ma_tr(build(), u0, alpha=alpha, **ball),
        }
        for name, trace in traces.items():
            assert trace.termination_status in TERMINATION_STATUSES
            assert all(r.radius is None or r.radius > 0.0 for r in trace.records)
            if trace.termination_status == "converged":
                assert trace.final_gradient_norm <= stop["tolerance"]
            if name != "basic-ma":
                for prev, nxt in zip(trace.records, trace.records[1:]):
                    assert nxt.radius == next_radius(prev, constants)
            if name != "basic-ma" and not noisy:
                values = [r.plant_value_at_reference for r in trace.records]
                values.append(trace.final_plant_value)
                assert all(b <= a for a, b in zip(values, values[1:]))
        applied = [
            [r.applied_input for r in traces[name].records] for name in ("trust-region", "ma-tr")
        ]
        assert len(applied[0]) == len(applied[1])
        assert all(np.array_equal(a, b) for a, b in zip(*applied))


class TestTrustRegionDriver:
    def test_p1_converges(self):
        trace = run_trust_region(get_problem("P1"), [0.0, 0.0], delta0=1.0)
        assert trace.termination_status == "converged"
        assert trace.final_gradient_norm <= 1e-6

    def test_start_at_optimum_converges_at_k0(self):
        trace = run_trust_region(get_problem("P1"), [1.0, 1.0])
        assert trace.termination_status == "converged"
        assert trace.iterations == 0
        assert trace.plant_value_evaluations == 1
        assert trace.plant_gradient_evaluations == 1

    def test_reference_values_never_increase(self):
        trace = run_trust_region(get_problem("P4"), [0.0, 0.0])
        values = [r.plant_value_at_reference for r in trace.records]
        values.append(trace.final_plant_value)
        for a, b in zip(values, values[1:]):
            assert b <= a

    def test_matches_gradient_matched_run(self):
        # the two loops build models differing only by a constant, so the
        # iterate sequences coincide
        a = run_trust_region(get_problem("P4"), [0.0, 0.0])
        b = run_ma_tr(get_problem("P4"), [0.0, 0.0])
        assert a.iterations == b.iterations
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.applied_input, rb.applied_input)


class TestMaTrDriver:
    def test_p2_converges_where_plain_ma_diverges(self):
        plain = run_basic_ma(get_problem("P2"), [3.0])
        safeguarded = run_ma_tr(get_problem("P2"), [3.0])
        assert plain.termination_status == "unbounded-subproblem"
        assert safeguarded.termination_status == "converged"
        assert abs(safeguarded.final_reference[0]) <= 1e-6
        assert safeguarded.final_gradient_norm <= 1e-6

    def test_p1_one_step_with_wide_radius(self):
        trace = run_ma_tr(get_problem("P1"), [0.0, 0.0], delta0=2.0)
        assert trace.termination_status == "converged"
        assert trace.iterations == 1
        r = trace.records[0]
        assert r.applied_input == pytest.approx([1.0, 1.0], abs=1e-9)
        assert r.rho == pytest.approx(1.0, abs=1e-12)
        assert r.accepted

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            run_ma_tr(get_problem("P1"), [0.0, 0.0], alpha=0.0)

    def test_filtered_run_annotated(self):
        trace = run_ma_tr(get_problem("P1"), [0.0, 0.0], alpha=0.5)
        assert "no convergence guarantee" in trace.notes

    def test_plant_probe_accounting(self):
        trace = run_ma_tr(get_problem("P4"), [0.0, 0.0])
        assert trace.plant_value_evaluations == trace.iterations + 1
        assert trace.plant_gradient_evaluations == trace.accepted_count + 1

    def test_shift_equivalence_on_catalog(self):
        for pid, u0 in STARTS.items():
            plain = run_ma_tr(get_problem(pid), u0, max_iterations=120)
            shifted = run_trust_region(get_problem(pid), u0, max_iterations=120)
            assert plain.iterations == shifted.iterations
            for ra, rb in zip(plain.records, shifted.records):
                assert np.max(np.abs(ra.applied_input - rb.applied_input)) <= 1e-10
                assert np.max(np.abs(ra.reference - rb.reference)) <= 1e-10

    def test_gradient_matching_at_every_iteration(self):
        for pid, u0 in STARTS.items():
            problem = get_problem(pid)
            trace = run_ma_tr(problem, u0, max_iterations=120)
            check = get_problem(pid)
            for r in trace.records:
                model = rebuild_model(check, r)
                gap = np.linalg.norm(
                    model.gradient(r.reference) - check.plant_gradient(r.reference)
                )
                assert gap <= 1e-12

    def test_value_matching_when_shifted(self):
        problem = get_problem("P4")
        trace = run_trust_region(problem, [0.0, 0.0])
        check = get_problem("P4")
        for r in trace.records:
            model = rebuild_model(check, r, shifted=True)
            assert abs(model.value(r.reference) - r.plant_value_at_reference) <= 1e-12

    def test_sufficient_decrease_certificate_every_iteration(self):
        for pid, u0 in STARTS.items():
            problem = get_problem(pid)
            trace = run_ma_tr(problem, u0, max_iterations=120)
            check = get_problem(pid)
            for r in trace.records:
                model = rebuild_model(check, r)
                change = model.value_change(r.applied_input)
                gnorm = float(np.linalg.norm(model.gradient(r.reference)))
                beta = estimate_beta(model, r.radius)
                assert check_sufficient_decrease(change, gnorm, r.radius, beta, kappa=0.1)

    def test_radius_updates_follow_rho_branches(self):
        constants = DEFAULTS
        for pid, u0 in STARTS.items():
            trace = run_ma_tr(get_problem(pid), u0, max_iterations=150)
            for prev, nxt in zip(trace.records, trace.records[1:]):
                assert nxt.radius == next_radius(prev, constants)

    def test_radius_stays_positive_and_capped(self):
        trace = run_ma_tr(get_problem("P3"), [-1.2, 1.0], radius_max=4.0, max_iterations=200)
        for r in trace.records:
            assert 0.0 < r.radius <= 4.0

    def test_records_are_contiguous(self):
        trace = run_ma_tr(get_problem("P4"), [0.0, 0.0])
        assert [r.k for r in trace.records] == list(range(trace.iterations))

    def test_strict_decrease_on_accepted_iterations(self):
        trace = run_ma_tr(get_problem("P4"), [0.0, 0.0])
        values = [r.plant_value_at_reference for r in trace.records]
        values.append(trace.final_plant_value)
        for i, r in enumerate(trace.records):
            if r.accepted:
                assert values[i + 1] < values[i]
            else:
                assert values[i + 1] == values[i]

    def test_noisy_run_is_reproducible(self):
        a = run_ma_tr(get_problem("P1", noise_level=0.05, seed=9), [0.0, 0.0])
        b = run_ma_tr(get_problem("P1", noise_level=0.05, seed=9), [0.0, 0.0])
        assert a.termination_status == b.termination_status
        assert a.iterations == b.iterations
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.applied_input, rb.applied_input)
            assert ra.plant_value_at_reference == rb.plant_value_at_reference

    def test_noisy_runs_differ_across_seeds(self):
        a = run_ma_tr(get_problem("P1", noise_level=0.05, seed=1), [0.0, 0.0])
        b = run_ma_tr(get_problem("P1", noise_level=0.05, seed=2), [0.0, 0.0])
        assert a.final_plant_value != b.final_plant_value

    def test_delta0_must_respect_radius_max(self):
        with pytest.raises(ValueError, match="radius_max"):
            run_ma_tr(get_problem("P1"), [0.0, 0.0], delta0=5.0, radius_max=2.0)

    def test_cap_landing_on_converging_iteration_reports_converged(self):
        trace = run_ma_tr(get_problem("P1"), [0.0, 0.0], delta0=2.0, max_iterations=1)
        assert trace.termination_status == "converged"
        assert trace.iterations == 1

    def test_plant_evaluation_budget_binds(self):
        trace = run_ma_tr(get_problem("P4"), [0.0, 0.0], max_plant_evaluations=10)
        assert trace.termination_status == "max-iterations"
        assert trace.plant_evaluation_count <= 10

    @pytest.mark.parametrize("run", [run_basic_ma, run_trust_region, run_ma_tr])
    def test_smallest_plant_evaluation_budget_spends_the_start_probes(self, run):
        trace = run(get_problem("P4"), [0.0, 0.0], max_plant_evaluations=2)
        assert trace.termination_status == "max-iterations"
        assert trace.plant_evaluation_count == 2 and trace.iterations == 0

    def test_oracle_failure_is_reported(self):
        # unbounded-below plant whose value blows up once the iterates
        # march past the instrumented range
        def value(u):
            return -float(u[0]) if u[0] < 6.0 else float("inf")

        plant = ScalarOracle(value, lambda u: np.array([-1.0]), 1)
        model = ScalarOracle(lambda u: float(u[0] ** 2), lambda u: 2.0 * u, 1)
        pair = ProblemPair("runaway", plant, model)
        trace = run_ma_tr(pair, [0.0])
        assert trace.termination_status == "oracle-failure"
        assert trace.iterations >= 1

    @pytest.mark.parametrize("start", [1e300, -1e200])
    @pytest.mark.parametrize("run", [run_basic_ma, run_trust_region, run_ma_tr])
    @pytest.mark.parametrize("pid", ["P1", "P2", "P3", "P4"])
    def test_catalog_overflow_is_an_oracle_failure(self, pid, run, start):
        # every plant value overflows there; RuntimeWarnings are errors here
        p = get_problem(pid)
        trace = run(p, [start] * p.dimension)
        assert trace.termination_status == "oracle-failure"
        assert trace.iterations == 0 and trace.plant_value_evaluations == 1

    @pytest.mark.parametrize("algorithm", ["trust-region", "ma-tr"])
    def test_cauchy_point_beyond_the_float_range_is_an_oracle_failure(self, algorithm):
        # the closed-form Cauchy step of a small gradient in a huge ball overflows
        raw = {"problem": "P2", "algorithm": algorithm, "u0": [0.25], "delta0": 1.5e308}
        trace = run_config(config_from_dict(raw))
        assert trace.termination_status == "oracle-failure"
        assert trace.iterations == 0 and trace.plant_evaluation_count == 2

    def test_cauchy_scan_beyond_the_float_range_is_an_oracle_failure(self):
        # without a declared Hessian the ray's far end, which bounds the scan, overflows
        plant = ScalarOracle(lambda u: float(u[0]) ** 2, lambda u: 2.0 * u, 1)
        model = ScalarOracle(lambda u: -float(u[0]) ** 2, lambda u: -2.0 * u, 1)
        trace = run_ma_tr(ProblemPair("concave", plant, model), [0.01], delta0=1.5e308)
        assert trace.termination_status == "oracle-failure"
        assert trace.iterations == 0 and trace.plant_evaluation_count == 2

    @pytest.mark.parametrize("run", [run_trust_region, run_ma_tr])
    def test_sphere_model_overflow_is_an_oracle_failure(self, run):
        # on P3's valley the plant value is finite, but the sphere model's u . u overflows
        trace = run(get_problem("P3"), [1.2e77, 1.44e154])
        assert trace.termination_status == "oracle-failure"
        assert trace.iterations == 0 and trace.plant_evaluation_count == 2

    def test_basic_ma_measures_no_model_value_with_a_hessian(self):
        # the closed-form step reads the model's gradient and Hessian only, so the
        # sphere's overflowing u . u is never measured and the step leaves the box
        p = get_problem("P3")
        trace = run_basic_ma(p, [1.2e77, 1.44e154])
        assert trace.termination_status == "outside-box"
        assert trace.iterations == 0 and trace.plant_evaluation_count == 2
        assert (p.model.value_calls, p.model.gradient_calls) == (0, 1)

    def test_overflowing_user_plant_is_an_oracle_failure(self):
        plant = ScalarOracle(lambda u: float(u[0]) ** 4, lambda u: 4.0 * u**3, 1)
        model = ScalarOracle(lambda u: float(u[0]) ** 2, lambda u: 2.0 * u, 1)
        trace = run_ma_tr(ProblemPair("quartic", plant, model), [1e100])
        assert trace.termination_status == "oracle-failure"

    @pytest.mark.parametrize("run", [run_basic_ma, run_trust_region, run_ma_tr])
    def test_numpy_overflow_in_a_user_plant_is_quiet(self, run):
        # NumPy's u[0] ** 4 overflows to inf, with a RuntimeWarning outside a run
        plant = ScalarOracle(lambda u: u[0] ** 4, lambda u: 4.0 * u**3, 1)
        model = ScalarOracle(lambda u: float(u[0]) ** 2, lambda u: 2.0 * u, 1)
        trace = run(ProblemPair("quartic", plant, model), [1e100])
        assert trace.termination_status == "oracle-failure"
        assert trace.iterations == 0 and trace.plant_evaluation_count == 1

    @pytest.mark.parametrize("run", [run_basic_ma, run_trust_region, run_ma_tr])
    def test_overflowing_gradient_gap_is_an_oracle_failure(self, run):
        # both gradients are finite, but their difference, the modifiers, is not
        plant = ScalarOracle(lambda u: 0.0, lambda u: np.array([1.5e308]), 1)
        model = ScalarOracle(lambda u: 0.0, lambda u: np.array([-1.5e308]), 1, hessian=[[1.0]])
        trace = run(ProblemPair("gap", plant, model), [0.0])
        assert trace.termination_status == "oracle-failure"
        assert trace.iterations == 0 and trace.plant_evaluation_count == 2

    @pytest.mark.parametrize("run", [run_basic_ma, run_trust_region, run_ma_tr])
    @pytest.mark.parametrize("pid", ["P1", "P4"])
    def test_overflowing_noise_is_an_oracle_failure(self, pid, run):
        # noise_level 1e308 is finite, but at seed 3 a noisy measurement overflows
        trace = run(get_problem(pid, noise_level=1e308, seed=3), [0.0, 0.0])
        assert trace.termination_status == "oracle-failure"

    @pytest.mark.parametrize(
        "pid, u0, settings, status, iterations",
        [
            # the projected descent's gradient dot product overflows
            ("P4", [0.3, -1e6], {"box_halfwidth": 1e300}, "oracle-failure", 2),
            # the model change's modifiers @ (u - anchor) overflows
            ("P2", [1.3e154], {}, "outside-box", 0),
        ],
    )
    def test_overflow_in_the_box_search_is_quiet(self, pid, u0, settings, status, iterations):
        p = get_problem(pid)
        twin = ScalarOracle(p.model.value, p.model.gradient, p.dimension)
        trace = run_basic_ma(ProblemPair(pid, p.plant, twin), u0, **settings)
        assert trace.termination_status == status
        assert trace.iterations == iterations

    @pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
    @pytest.mark.parametrize("call", ["value", "gradient"])
    @pytest.mark.parametrize("oracle", ["plant", "model"])
    def test_arithmetic_error_in_an_oracle_is_an_oracle_failure(self, oracle, call, error):
        def fail(u):
            raise error("out of range")

        fns = {"value": lambda u: float(u @ u), "gradient": lambda u: 2.0 * u, call: fail}
        failing = ScalarOracle(fns["value"], fns["gradient"], 2)
        p1 = get_problem("P1")
        plant, model = (failing, p1.model) if oracle == "plant" else (p1.plant, failing)
        trace = run_ma_tr(ProblemPair("failing", plant, model), [0.0, 0.0])
        assert trace.termination_status == "oracle-failure"

    @pytest.mark.parametrize("run", [run_basic_ma, run_ma_tr])
    def test_failed_gradient_probe_leaves_no_stale_norm(self, run):
        # the plant gradient fails at the first accepted candidate, after
        # its value was measured
        def gradient(u):
            return 2.0 * (u - 1.0) if u[0] < 0.5 else np.array([np.inf, 0.0])

        plant = ScalarOracle(lambda u: float((u[0] - 1) ** 2 + (u[1] - 1) ** 2), gradient, 2)
        trace = run(ProblemPair("gradient-failure", plant, get_problem("P1").model), [0.0, 0.0])
        assert trace.termination_status == "oracle-failure"
        assert np.array_equal(trace.final_reference, trace.records[-1].applied_input)
        assert np.isnan(trace.final_gradient_norm)

    @pytest.mark.parametrize("pid", ["P1", "P4"])
    @pytest.mark.parametrize("run", [run_ma_tr, run_trust_region])
    def test_radius_collapse_ends_stalled(self, pid, run):
        # under noise the radius shrinks until the candidate rounds back to
        # the reference or registers no model decrease; the loop stops
        # there instead of shrinking the radius to 0
        trace = run(get_problem(pid, noise_level=0.02, seed=1), STARTS[pid], max_iterations=5000)
        assert trace.termination_status == "stalled"
        assert "stalled" in TERMINATION_STATUSES
        assert trace.iterations < 5000
        assert all(r.radius > 0.0 for r in trace.records)
        # the unmoved candidate is never applied to the plant
        assert trace.plant_value_evaluations == 1 + trace.iterations

    @pytest.mark.parametrize("run", [run_ma_tr, run_trust_region])
    def test_no_model_decrease_ends_stalled(self, run):
        # P1 under this noise stops where the Cauchy point still moves but
        # its model change rounds to >= 0: the subproblem predicts no decrease
        problem = get_problem("P1", noise_level=0.02, seed=1)
        trace = run(problem, STARTS["P1"], max_iterations=5000)
        assert trace.termination_status == "stalled"
        assert all(r.radius > 0.0 for r in trace.records)
        assert trace.plant_value_evaluations == 1 + trace.iterations
        # the rejected last step leaves the correction and halves the radius
        last = trace.records[-1]
        assert not last.accepted
        model = rebuild_model(problem, last)
        result = solve_subproblem(model, 0.5 * last.radius)
        cp = cauchy_point(model, 0.5 * last.radius)[0]
        assert not np.array_equal(cp, trace.final_reference)
        assert model.value_change(cp) >= 0.0
        assert result.predicted_change >= 0.0

    @pytest.mark.parametrize("hessian", [None, [[2.0]]])
    @pytest.mark.parametrize("run", [run_ma_tr, run_trust_region])
    def test_model_flat_to_rounding_stalls_at_once(self, run, hessian):
        # 1e20 swallows every model change, so no step predicts a decrease
        # on either model path; the plant gradient is not small
        plant = ScalarOracle(lambda u: float((u[0] - 1.0) ** 2), lambda u: 2.0 * (u - 1.0), 1)
        model = ScalarOracle(
            lambda u: 1e20 + float((u[0] - 1.0) ** 2), lambda u: 2.0 * (u - 1.0), 1,
            hessian=hessian,
        )
        trace = run(ProblemPair("flat", plant, model), [0.0])
        assert trace.termination_status == "stalled"
        assert trace.iterations == 0
        assert trace.plant_evaluation_count == 2

    @pytest.mark.parametrize(
        "raw, iterations",
        [
            # the Newton step of the exact solve underflows in a subnormal ball
            ({"problem": "P3", "algorithm": "ma-tr", "u0": [0, 0], "delta0": 5e-324}, 1),
            # a rejection shrinks the radius to 0.0
            ({"problem": "P3", "algorithm": "trust-region", "u0": [1e-300, 1e-300],
              "shrink_factor": 1e-300}, 2),
            # g.g overflows: the plant gradient at the start is about 1e154
            ({"problem": "P1", "algorithm": "trust-region", "u0": [5e153, 5e153]}, 0),
            ({"problem": "P1", "algorithm": "ma-tr", "u0": [5e153, 5e153]}, 0),
            # noise of 1e300 on the gradient, which overflows modifiers . anchor too
            ({"problem": "P1", "algorithm": "ma-tr", "u0": [1e100, 1e100],
              "noise_level": 1e300}, 0),
            # the same zero ball under a filter that moves the model every pass
            ({"problem": "P3", "algorithm": "ma-tr", "u0": [1e-300, 1e-300],
              "shrink_factor": 1e-300, "alpha": 0.5}, 2),
        ],
    )
    def test_zero_ball_or_overflowing_gradient_ends_stalled(self, raw, iterations):
        trace = run_config(config_from_dict(raw))
        assert trace.termination_status == "stalled"
        assert trace.iterations == iterations
        assert all(r.radius > 0.0 for r in trace.records)

    def test_zero_ball_stops_before_the_filtered_model_is_rebuilt(self):
        # the top of the pass stops the run: no solve, no oracle call
        p = get_problem("P3")
        trace = run_ma_tr(p, [1e-300, 1e-300], shrink_factor=1e-300, alpha=0.5)
        assert trace.termination_status == "stalled"
        assert [r.radius for r in trace.records] == [1.0, 1e-300]
        counts = (p.plant.value_calls, p.plant.gradient_calls,
                  p.model.value_calls, p.model.gradient_calls)
        assert counts == (3, 1, 3, 1)

    @pytest.mark.parametrize("run", [run_ma_tr, run_trust_region])
    def test_overflowing_gradient_stalls_without_a_hessian(self, run):
        p = get_problem("P1")
        twin = ScalarOracle(p.model.value, p.model.gradient, p.dimension)
        trace = run(ProblemPair("P1", p.plant, twin), [5e153, 5e153])
        assert trace.termination_status == "stalled"
        assert trace.iterations == 0

    def test_stopping_criteria_validation(self):
        for name in ("tolerance", "max_iterations", "max_plant_evaluations"):
            problem = get_problem("P1")
            with pytest.raises(ConfigError, match=f"'{name}'"):
                run_ma_tr(problem, [0.0, 0.0], **{name: 0})
            assert problem.plant_evaluations() == (0, 0)


class TestRunsWithoutAHessian:
    """Catalog models wrapped without their Hessian take the descent path
    of the subproblem and the box search of ``basic-ma``; no benchmark
    workload runs them.  Status, iterations and plant probes are pinned."""

    @staticmethod
    def without_hessian(pid):
        p = get_problem(pid)
        model = ScalarOracle(p.model.value, p.model.gradient, p.dimension)
        return ProblemPair(pid, p.plant, model)

    @pytest.mark.parametrize(
        "pid, u0, pinned",
        [
            ("P1", [-2.0, 1.5], ("converged", 3, 8)),
            ("P1", [0.5, -2.5], ("converged", 3, 8)),
            ("P2", [2.5], ("converged", 4, 9)),
            ("P2", [-1.0], ("converged", 1, 4)),
            ("P3", [-1.2, 1.0], ("max-iterations", 500, 981)),
            ("P3", [0.5, -1.5], ("max-iterations", 500, 979)),
            ("P4", [-2.0, -2.5], ("converged", 46, 67)),
            ("P4", [1.0, 2.5], ("converged", 48, 73)),
        ],
    )
    def test_trust_region_loops_are_pinned(self, pid, u0, pinned):
        for run in (run_ma_tr, run_trust_region):
            trace = run(self.without_hessian(pid), u0)
            assert (trace.termination_status, trace.iterations,
                    trace.plant_evaluation_count) == pinned

    def test_capped_basic_ma_is_pinned(self):
        trace = run_basic_ma(self.without_hessian("P1"), [-2.0, 1.5], alpha=0.3,
                             max_iterations=5)
        assert (trace.termination_status, trace.iterations,
                trace.plant_evaluation_count) == ("max-iterations", 5, 12)


class TestModelReuse:
    """A rejected step keeps the reference, its measured gradients and the
    corrected model; only the modifier filter may move the model."""

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_basic_ma_spends_no_model_value_with_a_hessian(self, alpha):
        # its closed-form step reads the anchor terms only: one model gradient per reference
        problem = get_problem("P1", noise_level=0.02, seed=1)
        trace = run_basic_ma(problem, [0.0, 0.0], alpha=alpha, max_iterations=100)
        assert trace.iterations == 100
        assert (problem.model.value_calls, problem.model.gradient_calls) == (0, 100)

    def test_one_model_gradient_per_reference(self):
        problem = get_problem("P3")
        trace = run_ma_tr(problem, STARTS["P3"])
        records = trace.records
        references = 1 + sum(r.accepted for r in records[:-1])
        assert 0 < trace.accepted_count < trace.iterations
        assert problem.model.gradient_calls == references

    def test_iteration_after_a_rejection_builds_nothing(self, monkeypatch):
        problem = get_problem("P4", noise_level=0.02, seed=1)
        built = []

        class CountedModel(CorrectedModel):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        at_solve = []

        def counted_solve(model, radius):
            at_solve.append((problem.model.gradient_calls, len(built)))
            return solve_subproblem(model, radius)

        monkeypatch.setattr(drivers, "CorrectedModel", CountedModel)
        monkeypatch.setattr(drivers, "solve_subproblem", counted_solve)
        trace = run_ma_tr(problem, [0.0, 0.0], max_iterations=100)
        records = trace.records
        rejected = [k for k in range(1, len(records)) if not records[k - 1].accepted]
        assert len(rejected) > len(records) // 2
        for k in range(1, len(records)):
            step = 0 if k in rejected else 1
            assert at_solve[k] == (at_solve[k - 1][0] + step, at_solve[k - 1][1] + step)

    @pytest.mark.parametrize("alpha", [0.3, 1.0])
    def test_filter_follows_its_recursion_on_every_iteration(self, alpha):
        u0, seed = [0.0, 0.0], 4
        problem = get_problem("P4", noise_level=0.02, seed=seed)
        trace = run_ma_tr(problem, u0, alpha=alpha, max_iterations=100)
        # a fresh pair replays the run's noise draws in the run's order
        fresh = get_problem("P4", noise_level=0.02, seed=seed)
        fresh.evaluate_plant(u0)
        plant_grad = fresh.plant_gradient(u0)
        lam = np.zeros(2)
        for r in trace.records:
            raw = plant_grad - fresh.model_gradient(r.reference)
            lam = alpha * raw + (1.0 - alpha) * lam
            assert r.modifiers.tobytes() == lam.tobytes()
            # the loop solved on a model with exactly these modifiers
            result = solve_subproblem(rebuild_model(fresh, r), r.radius)
            assert result.candidate.tobytes() == r.applied_input.tobytes()
            fresh.evaluate_plant(r.applied_input)
            if r.accepted:
                plant_grad = fresh.plant_gradient(r.applied_input)
        records = trace.records
        after_rejection = [k for k in range(1, len(records)) if not records[k - 1].accepted]
        assert after_rejection
        moved = [
            records[k].modifiers.tobytes() != records[k - 1].modifiers.tobytes()
            for k in after_rejection
        ]
        assert all(moved) if alpha < 1.0 else not any(moved)

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_filter_steps_per_reference_at_gain_1_and_per_solve_below(self, alpha, monkeypatch):
        outputs, solved = [], []

        class CountingFilter(ModifierFilter):
            def update(self, plant_grad, model_grad):
                outputs.append(super().update(plant_grad, model_grad))
                return outputs[-1].copy()

        def counted_solve(model, radius):
            solved.append(model.anchor.tobytes())
            return solve_subproblem(model, radius)

        monkeypatch.setattr(drivers, "ModifierFilter", CountingFilter)
        monkeypatch.setattr(drivers, "solve_subproblem", counted_solve)
        problem = get_problem("P4", noise_level=0.02, seed=4)
        trace = run_ma_tr(problem, [0.0, 0.0], alpha=alpha, max_iterations=100)
        # the references the run solved from: the start and each accepted candidate
        references = [k == 0 or solved[k - 1] != solved[k] for k in range(len(solved))]
        assert 1 < sum(references) < len(solved)
        if alpha == 1.0:
            assert len(outputs) == sum(references) == 1 + trace.accepted_count
            output_of = np.cumsum(references) - 1
        else:
            assert len(outputs) == len(solved)
            output_of = range(len(solved))
        for record, i in zip(trace.records, output_of):
            assert record.modifiers.tobytes() == outputs[i].tobytes()

    def test_unmoved_anchor_is_measured_once_at_a_filter_gain_below_1(self, monkeypatch):
        def run():
            problem = get_problem("P4", noise_level=0.02, seed=4)
            trace = run_ma_tr(problem, [0.0, 0.0], alpha=0.3, max_iterations=100)
            return problem.model.value_calls, json.dumps(trace_to_dict(trace))

        calls, trace = run()
        assert calls == 75

        class Remeasuring(CorrectedModel):
            """Every rebuilt model measures the base value at its anchor."""

            def __init__(self, *args, _run, **kwargs):
                super().__init__(*args, _run=(None, _run[1]), **kwargs)

        monkeypatch.setattr(drivers, "CorrectedModel", Remeasuring)
        remeasured_calls, remeasured = run()
        assert remeasured_calls > calls
        assert remeasured == trace

    def test_accepted_candidate_is_measured_once(self, monkeypatch):
        # the README's P3 baseline run: an accepted candidate's base value
        # comes from the solve, which measured the exact step last
        def run():
            problem = get_problem("P3")
            trace = run_ma_tr(problem, [-1.2, 1.0])
            return problem.model.value_calls, json.dumps(trace_to_dict(trace))

        calls, trace = run()
        assert calls == 501

        class Remeasuring(CorrectedModel):
            """Every new reference's base value is measured again."""

            def __init__(self, *args, _run, **kwargs):
                super().__init__(*args, _run=(None, _run[1]), **kwargs)

        monkeypatch.setattr(drivers, "CorrectedModel", Remeasuring)
        remeasured_calls, remeasured = run()
        assert remeasured_calls == 980
        assert remeasured == trace

    def test_validation_per_iteration_is_pinned(self, monkeypatch):
        # the README's P3 baseline run: the start is checked as an input
        # vector, and its state keeps a copy as any caller's does; the solver
        # checks each exact step finite and hands it over, so a re-check
        # anywhere in the loop, such as an oracle's or accepting a candidate,
        # adds to the two
        problem = get_problem("P3")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return as_input_vector(*args, **kwargs)

        for module in (problems, corrected_model, subproblem, trust_region, drivers):
            monkeypatch.setattr(module, "as_input_vector", counted)
        trace = run_ma_tr(problem, [-1.2, 1.0])
        assert (trace.iterations, trace.accepted_count) == (500, 479)
        assert len(calls) == 2

    @pytest.mark.parametrize("pid", ["P1", "P2", "P3", "P4"])
    def test_a_run_hands_its_candidates_to_accept_candidate(self, pid, monkeypatch):
        # the solver checked each candidate: accepting it checks nothing again,
        # and the state keeps the candidate the record holds
        accepting, calls = [], []

        def accept(*args, **kwargs):
            accepting.append(True)
            try:
                return trust_region.accept_candidate(*args, **kwargs)
            finally:
                accepting.pop()

        def counted(*args, **kwargs):
            calls.append(bool(accepting))
            return as_input_vector(*args, **kwargs)

        monkeypatch.setattr(drivers, "accept_candidate", accept)
        monkeypatch.setattr(trust_region, "as_input_vector", counted)
        for run in (run_trust_region, run_ma_tr):
            calls.clear()
            trace = run(get_problem(pid), STARTS[pid])
            assert trace.accepted_count > 0
            assert calls == [False]  # the state's copy of the start
            for r, following in zip(trace.records, trace.records[1:]):
                assert (following.reference is r.applied_input) == r.accepted


class TestSharedVectors:
    """A run checks each vector once and then shares it read-only: the
    state, the next model, the records and the trace hold the same arrays,
    and none of them can change another's."""

    @staticmethod
    def root(a):
        while a.base is not None:
            a = a.base
        return id(a)

    @pytest.mark.parametrize("pid", ["P1", "P2", "P3", "P4"])
    def test_no_writable_array_is_held_twice(self, pid, monkeypatch):
        models, states = [], []

        class Model(CorrectedModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        class State(drivers.TrustRegionState):
            def __post_init__(self):
                super().__post_init__()
                states.append(self)

        monkeypatch.setattr(drivers, "CorrectedModel", Model)
        monkeypatch.setattr(drivers, "TrustRegionState", State)
        for run in (run_basic_ma, run_trust_region, run_ma_tr):
            models.clear()
            states.clear()
            trace = run(get_problem(pid), STARTS[pid])
            held = [(("model", i), a) for i, m in enumerate(models) for a in (m.anchor, m.modifiers)]
            held += [(("state", i), state.reference) for i, state in enumerate(states)]
            held += [(("record", k), getattr(r, name)) for k, r in enumerate(trace.records)
                     for name in ("applied_input", "reference", "modifiers")]
            held.append((("final",), trace.final_reference))
            holders = {}
            for owner, a in held:
                holders.setdefault(self.root(a), []).append((owner, a))
            shared = [group for group in holders.values() if len({o for o, _ in group}) > 1]
            assert shared
            for group in shared:
                assert not any(a.flags.writeable for _, a in group), group

    def test_a_record_cannot_change_the_next_one(self):
        trace = run_ma_tr(get_problem("P3"), STARTS["P3"])
        k = next(k for k, r in enumerate(trace.records) if r.accepted)
        applied, following = trace.records[k].applied_input, trace.records[k + 1].reference
        assert following is applied
        before = following.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            applied[0] = 0.0
        assert following.tobytes() == before
        assert not trace.final_reference.flags.writeable


class TestLoopPath:
    """A run builds its models from the vectors it has checked; the public
    constructor, which checks them again, gives the same runs."""

    class PublicModel(CorrectedModel):
        built = 0

        def __init__(self, *args, _run, **kwargs):
            type(self).built += 1
            super().__init__(*args, **kwargs)

    def traces(self, make_problem, u0, monkeypatch, runs, **settings):
        fast = [json.dumps(trace_to_dict(run(make_problem(), u0, **settings))) for run in runs]
        with monkeypatch.context() as m:
            m.setattr(self.PublicModel, "built", 0)
            m.setattr(drivers, "CorrectedModel", self.PublicModel)
            public = [
                json.dumps(trace_to_dict(run(make_problem(), u0, **settings))) for run in runs
            ]
            assert self.PublicModel.built > 0
        return fast, public

    @pytest.mark.parametrize("pid", ["P1", "P2", "P3", "P4"])
    def test_public_entry_points_give_the_same_traces(self, pid, monkeypatch):
        runs = (run_basic_ma, run_trust_region, run_ma_tr)
        fast, public = self.traces(lambda: get_problem(pid), STARTS[pid], monkeypatch, runs)
        assert fast == public

    def test_public_entry_points_give_the_same_noisy_filtered_traces(self, monkeypatch):
        def problem():
            return get_problem("P4", noise_level=0.02, seed=4)

        # trust-region has no filter gain: its gain is 1
        runs = (run_basic_ma, run_ma_tr)
        fast, public = self.traces(
            problem, [0.0, 0.0], monkeypatch, runs, alpha=0.3, max_iterations=100
        )
        assert fast == public


def _finished_trace():
    """A converged run, made on its own problem."""
    return run_ma_tr(get_problem("P1"), [0.0, 0.0])


class TestArgumentRules:
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda p: run_ma_tr(p, [0.0, 0.0], tolerance=float("nan")), "tolerance"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], tolerance=float("inf")), "tolerance"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], delta0=float("nan")), "delta0"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], delta0=float("inf")), "delta0"),
            (lambda p: run_trust_region(p, [0.0, 0.0], delta0=0.0), "delta0"),
            (lambda p: run_basic_ma(p, [0.0, 0.0], box_halfwidth=-1), "box_halfwidth"),
            (lambda p: run_basic_ma(p, [0.0, 0.0], alpha=1.5), "alpha"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], radius_max=math.inf), "radius_max"),
            (lambda p: RunConfig(problem="P1", algorithm="trust-region", u0=[0.0, 0.0],
                                 radius_max=math.inf), "radius_max"),
            (lambda p: get_problem("P1", noise_level=float("nan")), "noise_level"),
            (lambda p: get_problem("P1", seed=-1), "seed"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], max_iterations=100.0), "max_iterations"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], max_plant_evaluations=50.0),
             "max_plant_evaluations"),
            # the type rules a config file applies: no string, None, bool or
            # integer too large for a float is read as a number
            (lambda p: run_ma_tr(p, [0.0, 0.0], eta1="0.1"), "eta1"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], delta0=None), "delta0"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], alpha="1"), "alpha"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], delta0=10**400), "delta0"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], expansion_factor=10**400), "expansion_factor"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], delta0=True), "delta0"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], tolerance=True), "tolerance"),
            (lambda p: run_ma_tr(p, [0.0, 0.0], alpha=True), "alpha"),
            (lambda p: run_basic_ma(p, [0.0, 0.0], box_halfwidth=True), "box_halfwidth"),
            (lambda p: get_problem("P1", seed=1.5), "seed"),
            (lambda p: get_problem("P1", seed=True), "seed"),
            (lambda p: get_problem("P1", seed=None), "seed"),
            (lambda p: get_problem("P1", noise_level=True), "noise_level"),
            (lambda p: get_problem("P1", noise_level="0.1"), "noise_level"),
            (lambda p: get_problem("P1", noise_level=10**400), "noise_level"),
            (lambda p: check_convergence(_finished_trace(), True), "tolerance"),
            (lambda p: check_convergence(_finished_trace(), "1e-6"), "tolerance"),
            (lambda p: ModifierFilter(True, 2), "alpha"),
            (lambda p: ModifierFilter("0.5", 2), "alpha"),
            (lambda p: run_ma_tr(p, [0.0, math.nan]), "u0"),
            (lambda p: run_ma_tr(p, [0.0, 0.0, 0.0]), "u0"),
            (lambda p: run_ma_tr(p, [True, 0.0]), "u0"),
        ],
        ids=[
            "tolerance-nan",
            "tolerance-inf",
            "delta0-nan",
            "delta0-inf",
            "trust-region-delta0-0",
            "box-halfwidth-negative",
            "basic-ma-alpha",
            "radius-max-inf",
            "run-config-radius-max-inf",
            "noise-level-nan",
            "seed-negative",
            "max-iterations-float",
            "max-plant-evaluations-float",
            "eta1-string",
            "delta0-none",
            "alpha-string",
            "delta0-huge-integer",
            "expansion-factor-huge-integer",
            "delta0-bool",
            "tolerance-bool",
            "alpha-bool",
            "basic-ma-box-halfwidth-bool",
            "seed-float",
            "seed-bool",
            "seed-none",
            "noise-level-bool",
            "noise-level-string",
            "noise-level-huge-integer",
            "check-convergence-tolerance-bool",
            "check-convergence-tolerance-string",
            "modifier-filter-alpha-bool",
            "modifier-filter-alpha-string",
            "u0-nan",
            "u0-too-long",
            "u0-bool",
        ],
    )
    def test_library_arguments_rejected_naming_the_argument(self, call, name):
        # the rules config loading applies, with the argument named, before any plant probe
        problem = get_problem("P1")
        with pytest.raises(ConfigError, match=f"field '{name}'"):
            call(problem)
        assert problem.plant_evaluations() == (0, 0)

    def test_numpy_values_are_taken_as_python_values(self):
        problem = get_problem("P1", noise_level=np.float32(0.5), seed=np.int64(3))
        assert (problem.noise_level, problem.seed) == (0.5, 3)
        assert (type(problem.noise_level), type(problem.seed)) == (float, int)
        trace = run_ma_tr(problem, np.array([0, 1]), delta0=np.float32(0.5),
                          max_iterations=np.int64(4), radius_max=np.float64(2.0))
        assert trace.config["u0"] == [0.0, 1.0]
        taken = {k: trace.config[k] for k in ("delta0", "max_iterations", "radius_max", "seed")}
        assert taken == {"delta0": 0.5, "max_iterations": 4, "radius_max": 2.0, "seed": 3}
        assert [type(v) for v in taken.values()] == [float, int, float, int]

    @pytest.mark.parametrize(
        "run, name, value",
        [
            (run_trust_region, "alpha", 0.5),
            (run_basic_ma, "delta0", 2.0),
            (run_ma_tr, "seed", 3),
            (run_ma_tr, "stop", {"max_iterations": 3}),
        ],
        ids=["trust-region-alpha", "basic-ma-delta0", "ma-tr-seed", "ma-tr-stop"],
    )
    def test_setting_the_algorithm_does_not_take_is_rejected(self, run, name, value):
        problem = get_problem("P1")
        with pytest.raises(ConfigError, match=f"field '{name}': not a setting of"):
            run(problem, [0.0, 0.0], **{name: value})
        assert problem.plant_evaluations() == (0, 0)


class TestCheckConvergence:
    def test_threshold_cases(self):
        trace = run_ma_tr(get_problem("P1"), [0.0, 0.0], delta0=2.0)
        assert check_convergence(trace, 1e-6)
        capped = run_ma_tr(get_problem("P3"), [-1.2, 1.0], max_iterations=5)
        assert not check_convergence(capped, 1e-6)

    def test_any_himmelblau_minimizer_counts(self):
        p = get_problem("P4")
        for m in HIMMELBLAU_MINIMIZERS:
            assert np.linalg.norm(p.plant_gradient(m)) <= 1e-10
        trace = run_ma_tr(get_problem("P4"), [0.0, 0.0])
        assert check_convergence(trace, 1e-6)
        distances = [
            np.linalg.norm(trace.final_reference - np.array(m))
            for m in HIMMELBLAU_MINIMIZERS
        ]
        assert min(distances) <= 1e-3

    def test_invalid_tolerance(self):
        trace = run_ma_tr(get_problem("P1"), [0.0, 0.0])
        with pytest.raises(ValueError, match="tolerance"):
            check_convergence(trace, 0.0)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_tolerance_rejected(self, tolerance):
        trace = run_ma_tr(get_problem("P1"), [0.0, 0.0])
        with pytest.raises(ConfigError, match="field 'tolerance'"):
            check_convergence(trace, tolerance)

    def test_trace_without_a_finite_final_gradient_norm_rejected(self):
        # the first noisy plant gradient overflows: the run ends before one is measured
        trace = run_ma_tr(get_problem("P1", noise_level=1e308, seed=3), [0.0, 0.0])
        assert trace.termination_status == "oracle-failure"
        assert math.isnan(trace.final_gradient_norm)
        with pytest.raises(ValueError, match="trace has no finite final gradient norm"):
            check_convergence(trace, 1e-6)


class TestRecordedConfig:
    """``trace.config`` is part of the JSON export: its keys, their order
    and the values' JSON types are pinned here for every algorithm."""

    BASIC_MA = {
        "problem": "P1",
        "algorithm": "basic-ma",
        "u0": [0.0, 0.0],
        "alpha": 1.0,
        "noise_level": 0.0,
        "seed": 0,
        "tolerance": 1e-06,
        "max_iterations": 500,
        "max_plant_evaluations": 10000,
        "box_halfwidth": 1000000.0,
    }
    LOOP = {
        "problem": "P1",
        "algorithm": "ma-tr",
        "u0": [0.0, 0.0],
        "delta0": 1.0,
        "eta1": 0.1,
        "eta2": 0.9,
        "expansion_factor": 2.0,
        "shrink_factor": 0.5,
        "radius_max": None,
        "alpha": 1.0,
        "noise_level": 0.0,
        "seed": 0,
        "tolerance": 1e-06,
        "max_iterations": 500,
        "max_plant_evaluations": 10000,
    }
    TRUST_REGION = {k: v for k, v in LOOP.items() if k != "alpha"}
    TRUST_REGION["algorithm"] = "trust-region"

    @staticmethod
    def assert_pinned(trace, expected):
        assert json.dumps(trace.config) == json.dumps(expected)

    def test_direct_driver_calls(self):
        self.assert_pinned(run_basic_ma(get_problem("P1"), [0, 0]), self.BASIC_MA)
        self.assert_pinned(run_trust_region(get_problem("P1"), [0, 0]), self.TRUST_REGION)
        self.assert_pinned(run_ma_tr(get_problem("P1"), [0, 0]), self.LOOP)

    def test_defaults_through_run_config(self):
        for expected in (self.BASIC_MA, self.TRUST_REGION, self.LOOP):
            raw = {"problem": "P1", "algorithm": expected["algorithm"], "u0": [0, 0]}
            self.assert_pinned(run_config(config_from_dict(raw)), expected)

    def test_settings_through_run_config(self):
        common = {"problem": "P4", "u0": [0.5, -1], "noise_level": 0.01, "seed": 3,
                  "tolerance": 0.001, "max_iterations": 5, "max_plant_evaluations": 99}
        loop = {"delta0": 0.5, "eta1": 0.2, "eta2": 0.8, "expansion_factor": 3.0,
                "shrink_factor": 0.25, "radius_max": 4.0}
        runs = [
            ({**common, "algorithm": "basic-ma", "alpha": 0.5, "box_halfwidth": 10.0},
             {**self.BASIC_MA, **common, "algorithm": "basic-ma", "alpha": 0.5,
              "box_halfwidth": 10.0}),
            ({**common, **loop, "algorithm": "trust-region"},
             {**self.TRUST_REGION, **common, **loop}),
            ({**common, **loop, "algorithm": "ma-tr", "alpha": 0.5},
             {**self.LOOP, **common, **loop, "alpha": 0.5}),
        ]
        for raw, expected in runs:
            expected["u0"] = [0.5, -1.0]
            self.assert_pinned(run_config(config_from_dict(raw)), expected)


class TestReplay:
    """``trace.config`` replays its run: through ``run_config`` it gives
    the same JSON trace, whether the run came from a library driver or
    from a config."""

    DRIVERS = {"basic-ma": run_basic_ma, "trust-region": run_trust_region, "ma-tr": run_ma_tr}

    # a value off RunConfig's default for every driver setting
    OFF_DEFAULT = {"delta0": 0.5, "eta1": 0.2, "eta2": 0.8, "expansion_factor": 3.0,
                   "shrink_factor": 0.25, "radius_max": 4.0, "alpha": 0.5, "tolerance": 1e-3,
                   "max_iterations": 7, "max_plant_evaluations": 99, "box_halfwidth": 10.0}

    @pytest.mark.parametrize("algorithm", sorted(DRIVERS))
    def test_every_driver_setting_replays(self, algorithm, tmp_path):
        settings = {name: self.OFF_DEFAULT[name] for name in SETTINGS[algorithm]}
        assert all(value != getattr(RunConfig, name) for name, value in settings.items())
        problem = get_problem("P4", noise_level=0.01, seed=3)
        library = self.DRIVERS[algorithm](problem, [0.5, -1.0], **settings)
        assert {name: library.config[name] for name in settings} == settings
        replayed = run_config(config_from_dict(library.config))
        for fmt in ("csv", "json"):
            a = export_trace(library, fmt, tmp_path / f"library.{fmt}")
            b = export_trace(replayed, fmt, tmp_path / f"replayed.{fmt}")
            assert a.read_bytes() == b.read_bytes()

    def test_integer_float_settings_replay(self, tmp_path):
        # recorded as floats, as a config file's values are
        library = run_ma_tr(get_problem("P4"), [0.5, -1.0], delta0=1, radius_max=4)
        assert (library.config["delta0"], library.config["radius_max"]) == (1.0, 4.0)
        replayed = run_config(config_from_dict(library.config))
        for fmt in ("csv", "json"):
            a = export_trace(library, fmt, tmp_path / f"library.{fmt}")
            b = export_trace(replayed, fmt, tmp_path / f"replayed.{fmt}")
            assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["noise-free", "noisy"])
    @pytest.mark.parametrize("pid", sorted(STARTS))
    @pytest.mark.parametrize("algorithm", sorted(DRIVERS))
    def test_config_replays_the_run(self, algorithm, pid, noise):
        noisy = {"noise_level": noise, "seed": 9} if noise else {}
        library = self.DRIVERS[algorithm](get_problem(pid, **noisy), STARTS[pid])
        raw = {"problem": pid, "algorithm": algorithm, "u0": STARTS[pid], **noisy}
        configured = run_config(config_from_dict(raw))
        for trace in (library, configured):
            replayed = run_config(config_from_dict(trace.config))
            # a bool, so that a failure does not diff two long JSON lines
            same = json.dumps(trace_to_dict(replayed)) == json.dumps(trace_to_dict(trace))
            assert same, f"replaying {trace.config} gives another trace"
