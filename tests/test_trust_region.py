"""Tests for the acceptance ratio, candidate acceptance, and radius update."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtopt import (
    ConfigError,
    CorrectedModel,
    RunConfig,
    TrustRegionState,
    accept_candidate,
    cauchy_point,
    compute_rho,
    estimate_beta,
    get_problem,
    run_ma_tr,
    solve_subproblem,
    update_radius,
)
from rtopt.config import config_from_dict

# a run's settings, as the trust-region helpers read them
DEFAULTS = RunConfig(problem="P1", algorithm="ma-tr", u0=[0.0, 0.0])


class TestConstants:
    def test_defaults_are_valid(self):
        c = DEFAULTS
        assert c.eta1 == 0.1 and c.eta2 == 0.9
        assert c.shrink_factor == 0.5
        assert c.expansion_factor == 2.0
        assert c.radius_max is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta1": 0.0},
            {"eta1": 0.95, "eta2": 0.9},
            {"eta2": 1.0},
            {"shrink_factor": 0.0},
            {"shrink_factor": -0.5},
            {"shrink_factor": 1.0},
            {"shrink_factor": math.nan},
            {"expansion_factor": 1.0},
            {"radius_max": 0.0},
            {"max_plant_evaluations": 1},  # the start alone probes the plant twice
        ],
    )
    def test_invalid_constants_rejected(self, kwargs):
        field = next(iter(kwargs))
        if field.startswith("eta"):  # 0 < eta1 <= eta2 < 1 is one rule, named eta1
            field = "eta1"
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            run_ma_tr(get_problem("P1"), [0.0, 0.0], **kwargs)
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            config_from_dict({"problem": "P1", "algorithm": "ma-tr", "u0": [0.0, 0.0], **kwargs})


class TestComputeRho:
    def test_plant_improved_twice_prediction(self):
        assert compute_rho(1.0, 0.0, -0.5) == pytest.approx(2.0)

    def test_plant_worsened_gives_signed_ratio(self):
        assert compute_rho(1.0, 1.5, -0.5) == pytest.approx(-1.0)

    def test_zero_model_decrease_is_degenerate(self):
        assert compute_rho(1.0, 0.5, 0.0) is None
        assert compute_rho(1.0, 0.5, -0.0) is None

    def test_negative_model_decrease_is_degenerate(self):
        assert compute_rho(1.0, 0.5, 1.0) is None

    def test_floor_scales_with_the_plant_value(self):
        # floor at plant_ref=1: 4 machine epsilons, about 8.9e-16
        assert compute_rho(1.0, 0.5, -4e-16) is None
        assert compute_rho(1.0, 0.5, -1e-15) is not None
        # the floor scales with |plant_ref|: a tiny plant value resolves a
        # tiny decrease, a large one does not
        assert compute_rho(1e-12, 5e-13, -1e-15) is not None
        assert compute_rho(10.0, 9.0, -1e-15) is None

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="plant_cand"):
            compute_rho(1.0, np.nan, 0.0)
        with pytest.raises(ValueError, match="predicted_change"):
            compute_rho(1.0, 0.5, -math.inf)

    def test_negated_decrease_is_degenerate(self):
        assert compute_rho(0.0, 1.0, 0.5) is None


class TestAcceptCandidate:
    def _state(self):
        return TrustRegionState(
            reference=np.array([0.0, 0.0]), radius=1.0, reference_plant_value=5.0
        )

    def test_accepts_above_threshold(self):
        state = self._state()
        moved = accept_candidate(state, [1.0, 0.0], 4.0, 0.5, DEFAULTS)
        assert moved
        assert np.array_equal(state.reference, [1.0, 0.0])
        assert state.reference_plant_value == 4.0

    def test_rejects_below_threshold(self):
        state = self._state()
        moved = accept_candidate(state, [1.0, 0.0], 4.0, 0.05, DEFAULTS)
        assert not moved
        assert np.array_equal(state.reference, [0.0, 0.0])
        assert state.reference_plant_value == 5.0

    def test_degenerate_never_moves(self):
        state = self._state()
        assert not accept_candidate(state, [1.0, 0.0], 0.0, None, DEFAULTS)
        assert np.array_equal(state.reference, [0.0, 0.0])

    def test_boundary_rho_accepts(self):
        state = self._state()
        assert accept_candidate(state, [1.0, 0.0], 4.0, 0.1, DEFAULTS)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_candidate_value_rejected(self, value):
        state = self._state()
        with pytest.raises(ValueError, match="candidate_plant_value"):
            accept_candidate(state, [1.0, 0.0], value, 0.5, DEFAULTS)
        assert np.array_equal(state.reference, [0.0, 0.0])
        assert state.reference_plant_value == 5.0

    def test_a_writable_candidate_is_copied_and_a_read_only_one_too(self):
        state = self._state()
        candidate = np.array([1.0, 0.0])
        assert accept_candidate(state, candidate, 4.0, 0.5, DEFAULTS)
        assert state.reference is not candidate
        candidate[0] = 7.0  # the caller's array stays the caller's
        assert state.reference.tolist() == [1.0, 0.0]
        read_only = np.array([0.5, 0.25])
        read_only.setflags(write=False)  # its owner may make it writable again
        assert accept_candidate(state, read_only, 3.0, 0.5, DEFAULTS)
        assert state.reference is not read_only
        assert state.reference.tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("written", [99.0, math.nan])
    def test_a_read_only_candidate_made_writable_again_moves_no_reference(self, written):
        # NumPy lets an array's owner re-enable writes: a candidate kept as
        # given would move the reference, even to a non-finite one
        candidate = np.array([3.0, 4.0])
        candidate.setflags(write=False)
        state = self._state()
        assert accept_candidate(state, candidate, 4.0, 0.5, DEFAULTS)
        candidate.setflags(write=True)
        candidate[1] = written
        assert state.reference.tolist() == [3.0, 4.0]

    def test_a_read_only_view_is_copied(self):
        # the view cannot be written, but its base can: kept as it is, the
        # reference would move with every write to the caller's array
        caller = np.array([1.0, 0.0])
        view = caller[:]
        view.setflags(write=False)
        state = self._state()
        assert accept_candidate(state, view, 4.0, 0.5, DEFAULTS)
        caller[0] = 5.0
        assert state.reference.tolist() == [1.0, 0.0]
        assert not state.reference.flags.writeable

    @pytest.mark.parametrize(
        "candidate, message",
        [([math.nan, 0.0], "non-finite"), ([1.0, math.inf], "non-finite"),
         ([1.0, 0.0, 0.0], "dimension mismatch"), ([[1.0, 0.0]], "1-D vector")],
    )
    def test_a_read_only_candidate_is_checked_too(self, candidate, message):
        state = self._state()
        candidate = np.array(candidate)
        candidate.setflags(write=False)
        with pytest.raises(ValueError, match=message):
            accept_candidate(state, candidate, 4.0, 0.5, DEFAULTS)
        assert state.reference.tolist() == [0.0, 0.0]


class TestUpdateRadius:
    def test_very_successful_expands(self):
        assert update_radius(1.0, 0.95, DEFAULTS) == 2.0

    def test_successful_keeps(self):
        assert update_radius(1.0, 0.5, DEFAULTS) == 1.0

    def test_failed_shrinks(self):
        assert update_radius(1.0, 0.01, DEFAULTS) == 0.5

    def test_degenerate_shrinks(self):
        assert update_radius(1.0, None, DEFAULTS) == 0.5

    def test_expansion_respects_radius_max(self):
        c = replace(DEFAULTS, radius_max=1.5)
        assert update_radius(1.0, 0.99, c) == 1.5

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            update_radius(0.0, 0.5, DEFAULTS)

    @given(
        radius=st.floats(min_value=1e-8, max_value=1e8),
        rho=st.one_of(st.none(), st.floats(min_value=-5.0, max_value=3.0)),
        eta1=st.floats(min_value=0.01, max_value=0.5),
        eta_gap=st.floats(min_value=0.0, max_value=0.45),
        shrink=st.floats(min_value=0.01, max_value=0.99),
        expansion=st.floats(min_value=1.01, max_value=10.0),
    )
    def test_output_lies_in_branch_interval(self, radius, rho, eta1, eta_gap, shrink, expansion):
        constants = replace(
            DEFAULTS,
            eta1=eta1,
            eta2=min(eta1 + eta_gap, 0.99),
            shrink_factor=shrink,
            expansion_factor=expansion,
        )
        out = update_radius(radius, rho, constants)
        if rho is not None and rho >= constants.eta2:
            assert out == expansion * radius
        elif rho is not None and rho >= constants.eta1:
            assert out == radius
        else:
            assert out == shrink * radius
        assert out > 0.0


def _model():
    p = get_problem("P1")
    return CorrectedModel(p.model, [-2.0, -2.0], anchor=[0.0, 0.0])


class TestRadiusArgument:
    """Every entry point that takes a radius rejects NaN, which compares
    false with everything, and names it; ``estimate_beta`` samples along
    the radius and needs it finite.  An infinite radius, which ``basic-ma``
    gives its state, stays valid elsewhere."""

    @pytest.mark.parametrize(
        "call, radius",
        [
            (lambda r: TrustRegionState(reference=np.zeros(2), radius=r,
                                        reference_plant_value=0.0), math.nan),
            (lambda r: update_radius(r, 0.5, DEFAULTS), math.nan),
            (lambda r: cauchy_point(_model(), r), math.nan),
            (lambda r: solve_subproblem(_model(), r), math.nan),
            (lambda r: estimate_beta(_model(), r), math.nan),
            (lambda r: estimate_beta(_model(), r), math.inf),
        ],
        ids=["state", "update_radius", "cauchy_point", "solve_subproblem", "estimate_beta",
             "estimate_beta-inf"],
    )
    def test_bad_radius_rejected_by_name(self, call, radius):
        with pytest.raises(ValueError, match=f"radius must be > 0.*got {radius}"):
            call(radius)

    def test_infinite_radius_accepted(self):
        state = TrustRegionState(reference=np.zeros(2), radius=math.inf, reference_plant_value=0.0)
        assert state.radius == math.inf
        assert cauchy_point(_model(), math.inf)[0].tolist() == [1.0, 1.0]
        assert solve_subproblem(_model(), math.inf).candidate.tolist() == [1.0, 1.0]


class TestState:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="radius"):
            TrustRegionState(reference=np.zeros(2), radius=0.0, reference_plant_value=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_reference_value_rejected(self, value):
        with pytest.raises(ValueError, match="reference_plant_value"):
            TrustRegionState(reference=np.zeros(2), radius=1.0, reference_plant_value=value)

    @pytest.mark.parametrize("value", [True, np.float32(1.5), 2])
    def test_reference_value_is_kept_as_a_float_as_accept_candidate_keeps_it(self, value):
        state = TrustRegionState(reference=np.zeros(2), radius=1.0, reference_plant_value=value)
        assert type(state.reference_plant_value) is float and state.reference_plant_value == value

    @pytest.mark.parametrize("written", [99.0, math.nan])
    def test_a_read_only_reference_made_writable_again_moves_no_reference(self, written):
        reference = np.array([1.0, 2.0])
        reference.setflags(write=False)
        state = TrustRegionState(reference=reference, radius=1.0, reference_plant_value=0.0)
        reference.setflags(write=True)
        reference[0] = written
        assert state.reference.tolist() == [1.0, 2.0]

    def test_a_read_only_view_is_copied(self):
        caller = np.array([0.0, 0.0])
        view = caller[:]
        view.setflags(write=False)
        state = TrustRegionState(reference=view, radius=1.0, reference_plant_value=0.0)
        caller[0] = 5.0
        assert state.reference.tolist() == [0.0, 0.0]
        assert not state.reference.flags.writeable

    def test_reference_move_strictly_decreases_plant_value(self):
        # rho >= eta1 > 0 with positive predicted decrease forces descent
        constants = DEFAULTS
        state = TrustRegionState(
            reference=np.zeros(1), radius=1.0, reference_plant_value=3.0
        )
        predicted = 0.8
        rho = compute_rho(3.0, 2.5, -predicted)
        assert rho is not None and rho >= constants.eta1
        accept_candidate(state, [0.5], 2.5, rho, constants)
        assert state.reference_plant_value < 3.0
