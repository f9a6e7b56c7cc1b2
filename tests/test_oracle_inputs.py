"""What a run hands its oracles.

Inside a run the oracles take the run's own vectors without checking them
again.  Each such vector was checked where it was made, so every input an
oracle's functions receive must be what the check gives: a finite, 1-D
float64 vector of the oracle's dimension.  It must also be read-only, so
that a function that writes into its argument raises instead of changing
the run's candidate or reference under it.  Outside a run the same holds
for every vector a public entry point keeps or returns.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopt import (
    CorrectedModel,
    ModifierFilter,
    ProblemPair,
    RunConfig,
    ScalarOracle,
    TrustRegionState,
    accept_candidate,
    cauchy_point,
    get_problem,
    run_basic_ma,
    run_ma_tr,
    run_trust_region,
    solve_subproblem,
)
from rtopt.problems import PROBLEM_IDS, as_input_vector
from rtopt.subproblem import projected_descent

RUNS = {"basic-ma": run_basic_ma, "trust-region": run_trust_region, "ma-tr": run_ma_tr}
ROLES = ("plant value", "plant gradient", "model value", "model gradient")
# the settings accept_candidate reads
SETTINGS = RunConfig(problem="P1", algorithm="ma-tr", u0=[0.0, 0.0])


def recorded_pair(pid, noise, seed, hessian, wrap):
    """``pid``'s catalog pair on new oracles whose functions are the catalog
    oracles' methods passed through ``wrap(role, method)``; the model
    declares the catalog Hessian only if ``hessian``."""
    p = get_problem(pid)

    def oracle(name, base, h=None):
        value = wrap(f"{name} value", base.value)
        gradient = wrap(f"{name} gradient", base.gradient)
        return ScalarOracle(value, gradient, base.dimension, hessian=h)

    model = oracle("model", p.model, p.model.hessian if hessian else None)
    return ProblemPair(pid, oracle("plant", p.plant), model, noise, seed)


def cells():
    """Every problem, algorithm, noise level, gain and Hessian declaration;
    trust-region has no gain setting (its gain is 1)."""
    for pid in PROBLEM_IDS:
        for algorithm in RUNS:
            for noise in (0.0, 0.02):
                for alpha in (1.0, 0.5):
                    if algorithm == "trust-region" and alpha != 1.0:
                        continue
                    for hessian in (True, False):
                        yield pid, algorithm, noise, alpha, hessian


def run(pid, algorithm, noise, alpha, hessian, u0, seed, wrap):
    problem = recorded_pair(pid, noise, seed, hessian, wrap)
    settings = {} if algorithm == "trust-region" else {"alpha": alpha}
    # P3 runs to its cap; a few dozen iterations show every kind of step
    return RUNS[algorithm](problem, u0, max_iterations=25, **settings)


@pytest.mark.parametrize("pid, algorithm, noise, alpha, hessian", list(cells()))
@settings(max_examples=3, deadline=None)
@given(start=st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2), seed=st.integers(0, 99))
def test_every_oracle_input_is_a_checked_read_only_vector(
    pid, algorithm, noise, alpha, hessian, start, seed
):
    seen = []

    def recording(role, fn):
        def recorded(u):
            seen.append(u)
            return fn(u)

        return recorded

    problem_dim = get_problem(pid).dimension
    trace = run(pid, algorithm, noise, alpha, hessian, start[:problem_dim], seed, recording)
    assert trace.termination_status != "oracle-failure"
    assert seen
    for u in seen:
        assert type(u) is np.ndarray and u.dtype == np.float64
        assert u.shape == (problem_dim,)
        assert all(map(math.isfinite, u.tolist()))
        assert not u.flags.writeable


def writes_into(target, called):
    """A ``wrap`` whose ``target`` function writes into its argument first."""

    def wrap(role, fn):
        if role != target:
            return fn

        def writing(u):
            called.append(role)
            u[0] = 7.0
            return fn(u)

        return writing

    return wrap


@pytest.mark.parametrize(
    "algorithm, role, hessian",
    [
        (algorithm, role, hessian)
        for algorithm in RUNS
        for role in ROLES
        for hessian in (True, False)
        # the one function such a run never calls (the test below)
        if (algorithm, role, hessian) != ("basic-ma", "model value", True)
    ],
)
def test_an_oracle_that_writes_into_its_argument_raises_in_a_run(algorithm, role, hessian):
    called = []
    with pytest.raises(ValueError, match="read-only"):
        run("P4", algorithm, 0.0, 1.0, hessian, [0.5, 0.5], 0, writes_into(role, called))
    assert called


def test_basic_ma_with_a_hessian_never_hands_the_model_value_a_vector():
    # its closed-form step reads no model value, so the writing function never runs
    called = []
    wrap = writes_into("model value", called)
    trace = run("P4", "basic-ma", 0.0, 1.0, True, [0.5, 0.5], 0, wrap)
    assert trace.termination_status == "outside-box" and not called


@pytest.mark.parametrize("kind", ["value", "gradient"])
def test_a_public_call_checks_and_hands_over_a_read_only_copy(kind):
    # outside a run the oracle checks its input and copies it: a function that
    # writes into that copy raises, and the caller's array is left as it was
    def writing(u):
        u[0] = 7.0
        return 0.0 if kind == "value" else u

    oracle = ScalarOracle(writing, writing, 2)
    u = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="read-only"):
        getattr(oracle, kind)(u)
    assert u.tolist() == [1.0, 2.0] and u.flags.writeable
    with pytest.raises(ValueError, match="non-finite"):
        getattr(oracle, kind)([1.0, math.nan])


def assert_held(v, callers):
    """``v`` is a read-only float vector that shares no memory with any of
    the ``callers``' arrays, read-only or not."""
    assert type(v) is np.ndarray and v.dtype == np.float64 and v.ndim == 1
    assert not v.flags.writeable
    for array in callers:
        assert not np.shares_memory(v, array)


@settings(max_examples=60, deadline=None)
@given(
    pid=st.sampled_from(PROBLEM_IDS),
    hessian=st.booleans(),
    form=st.sampled_from(["array", "read-only array", "read-only view", "list"]),
    radius=st.floats(0.05, 4.0),
    alpha=st.sampled_from([1.0, 0.5]),
    data=st.data(),
)
def test_every_vector_a_public_entry_point_keeps_or_returns_is_read_only(
    pid, hessian, form, radius, alpha, data
):
    # outside a run as inside one: whatever a caller passes, the package
    # keeps and returns read-only vectors that no caller array can change,
    # not even one the caller made read-only and later makes writable
    p = get_problem(pid)
    n = p.dimension
    callers = []

    def given_vector(bound):
        values = data.draw(st.lists(st.floats(-bound, bound), min_size=n, max_size=n))
        array = np.array(values)
        callers.append(array)
        if form == "list":
            return values
        if form == "array":
            return array
        if form == "read-only array":
            array.setflags(write=False)
            return array
        view = array[:]
        view.setflags(write=False)
        return view

    held = []

    def hold(v):
        assert_held(v, callers)
        held.append((v, v.tobytes()))

    x = data.draw(st.floats(-3.0, 3.0))
    zero_d = np.array(x)
    callers.append(zero_d)
    for u in (given_vector(3.0), zero_d, x, [x]):
        hold(as_input_vector(u))

    base = p.model if hessian else ScalarOracle(p.model.value, p.model.gradient, n)
    model = CorrectedModel(base, given_vector(10.0), anchor=given_vector(3.0))
    hold(model.anchor)
    hold(model.modifiers)
    hold(cauchy_point(model, radius)[0])
    hold(solve_subproblem(model, radius).candidate)
    best = projected_descent(
        model.value_change, model.gradient, given_vector(3.0), lambda u: np.clip(u, -3.0, 3.0), 20
    )[0]
    hold(best)

    state = TrustRegionState(reference=given_vector(3.0), radius=radius, reference_plant_value=1.0)
    hold(state.reference)
    assert accept_candidate(state, given_vector(3.0), 0.5, 0.5, SETTINGS)
    hold(state.reference)

    filt = ModifierFilter(alpha, n)
    hold(filt.previous)
    lam = filt.update(given_vector(3.0), given_vector(3.0))
    assert lam is filt.previous
    hold(lam)

    for array in callers:
        array.setflags(write=True)
        array.fill(math.nan)
    assert all(v.tobytes() == before for v, before in held)
