"""Tests for the acceptance ratio, candidate acceptance, and radius update."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rtopt import (
    TrustRegionConstants,
    TrustRegionState,
    accept_candidate,
    compute_rho,
    update_radius,
)


class TestConstants:
    def test_defaults_are_valid(self):
        c = TrustRegionConstants()
        assert c.eta1 == 0.1 and c.eta2 == 0.9
        assert c.shrink_factor == 0.5
        assert c.expansion_factor == 2.0
        assert math.isinf(c.radius_max)

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
        ],
    )
    def test_invalid_constants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrustRegionConstants(**kwargs)


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

    def test_threshold_is_configurable(self):
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

    def test_negated_decrease_is_degenerate_by_default(self):
        assert compute_rho(0.0, 1.0, 0.5) is None


class TestAcceptCandidate:
    def _state(self):
        return TrustRegionState(
            reference=np.array([0.0, 0.0]), radius=1.0, reference_plant_value=5.0
        )

    def test_accepts_above_threshold(self):
        state = self._state()
        moved = accept_candidate(state, [1.0, 0.0], 4.0, 0.5, TrustRegionConstants())
        assert moved
        assert np.array_equal(state.reference, [1.0, 0.0])
        assert state.reference_plant_value == 4.0

    def test_rejects_below_threshold(self):
        state = self._state()
        moved = accept_candidate(state, [1.0, 0.0], 4.0, 0.05, TrustRegionConstants())
        assert not moved
        assert np.array_equal(state.reference, [0.0, 0.0])
        assert state.reference_plant_value == 5.0

    def test_degenerate_never_moves(self):
        state = self._state()
        assert not accept_candidate(state, [1.0, 0.0], 0.0, None, TrustRegionConstants())
        assert np.array_equal(state.reference, [0.0, 0.0])

    def test_boundary_rho_accepts(self):
        state = self._state()
        assert accept_candidate(state, [1.0, 0.0], 4.0, 0.1, TrustRegionConstants())


class TestUpdateRadius:
    def test_very_successful_expands(self):
        assert update_radius(1.0, 0.95, TrustRegionConstants()) == 2.0

    def test_successful_keeps(self):
        assert update_radius(1.0, 0.5, TrustRegionConstants()) == 1.0

    def test_failed_shrinks(self):
        assert update_radius(1.0, 0.01, TrustRegionConstants()) == 0.5

    def test_degenerate_shrinks(self):
        assert update_radius(1.0, None, TrustRegionConstants()) == 0.5

    def test_expansion_respects_radius_max(self):
        c = TrustRegionConstants(radius_max=1.5)
        assert update_radius(1.0, 0.99, c) == 1.5

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            update_radius(0.0, 0.5, TrustRegionConstants())

    @given(
        radius=st.floats(min_value=1e-8, max_value=1e8),
        rho=st.one_of(st.none(), st.floats(min_value=-5.0, max_value=3.0)),
        eta1=st.floats(min_value=0.01, max_value=0.5),
        eta_gap=st.floats(min_value=0.0, max_value=0.45),
        shrink=st.floats(min_value=0.01, max_value=0.99),
        expansion=st.floats(min_value=1.01, max_value=10.0),
    )
    def test_output_lies_in_branch_interval(self, radius, rho, eta1, eta_gap, shrink, expansion):
        constants = TrustRegionConstants(
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


class TestState:
    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError, match="radius"):
            TrustRegionState(reference=np.zeros(2), radius=0.0, reference_plant_value=0.0)

    def test_reference_move_strictly_decreases_plant_value(self):
        # rho >= eta1 > 0 with positive predicted decrease forces descent
        constants = TrustRegionConstants()
        state = TrustRegionState(
            reference=np.zeros(1), radius=1.0, reference_plant_value=3.0
        )
        predicted = 0.8
        rho = compute_rho(3.0, 2.5, -predicted)
        assert rho is not None and rho >= constants.eta1
        accept_candidate(state, [0.5], 2.5, rho, constants)
        assert state.reference_plant_value < 3.0
