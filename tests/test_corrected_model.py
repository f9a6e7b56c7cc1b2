"""Tests for the first-order model correction and modifier filtering."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopt import CorrectedModel, ModifierFilter, ScalarOracle, get_problem

# desk-scale values: at +-1e6 the quadratic reaches 1e12, where rounding of
# two near-equal values can exceed any difference-relative tolerance
finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def sphere_oracle(dim=2):
    return ScalarOracle(lambda u: float(np.dot(u, u)), lambda u: 2.0 * u, dim)


def gradient_gap(plant_grad, model_grad):
    """The correction coefficients of a first update at gain 1."""
    return ModifierFilter(1.0, len(plant_grad)).update(plant_grad, model_grad)


class TestComputeModifiers:
    """At gain 1 the filter's update is the gradient gap."""

    def test_perfect_model_needs_no_correction(self):
        lam = gradient_gap([5.0, -3.0], [5.0, -3.0])
        assert np.array_equal(lam, [0.0, 0.0])

    def test_p1_at_origin(self):
        p = get_problem("P1")
        lam = gradient_gap(p.plant_gradient([0.0, 0.0]), p.model_gradient([0.0, 0.0]))
        assert lam == pytest.approx([-2.0, -2.0])

    def test_one_dimensional_mismatch(self):
        # plant u^2 vs model (u - 1)^2 at u = 0: gradients 0 and -2
        assert gradient_gap([0.0], [-2.0]) == pytest.approx([2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length mismatch"):
            gradient_gap([1.0, 2.0], [1.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            gradient_gap([np.inf], [0.0])

    def test_dimension_mismatch_with_the_filter_rejected(self):
        with pytest.raises(ValueError, match="previous must have equal length"):
            ModifierFilter(1.0, 2).update([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])


class TestFilterModifiers:
    """The update alpha * gap + (1 - alpha) * previous."""

    def test_unit_gain_passes_raw_through(self):
        filt = ModifierFilter(1.0, 2)
        filt.update([9.0, 9.0], [0.0, 0.0])
        assert np.array_equal(filt.update([3.0, -1.0], [0.0, 0.0]), [3.0, -1.0])

    def test_unit_gain_keeps_the_filter_arithmetic(self):
        # -0.0 * 1 + 0.0 * 0 is +0.0: the gap alone would keep the sign
        lam = ModifierFilter(1.0, 1).update([-0.0], [0.0])
        assert lam.tobytes() == np.array([0.0]).tobytes()

    def test_midpoint(self):
        assert ModifierFilter(0.5, 1).update([2.0], [0.0]) == pytest.approx([1.0])

    def test_geometric_series_closed_form(self):
        # iterate the recursion directly as the oracle for the closed form
        alpha, c = 0.5, 2.0
        filt = ModifierFilter(alpha, 1)
        for _ in range(4):  # k = 0..3
            lam = filt.update([c], [0.0])
        assert lam == pytest.approx([1.875])
        assert lam == pytest.approx([c * (1.0 - (1.0 - alpha) ** 4)])

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_gain_outside_range_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ModifierFilter(alpha, 1)

    @given(
        alpha=st.floats(min_value=0.01, max_value=0.99),
        c=st.floats(min_value=-100.0, max_value=100.0),
        k=st.integers(min_value=1, max_value=40),
    )
    def test_constant_raw_converges_geometrically(self, alpha, c, k):
        filt = ModifierFilter(alpha, 1)
        gap = None
        for _ in range(k):
            lam = filt.update([c], [0.0])
            previous_gap, gap = gap, abs(lam[0] - c)
        # each step multiplies the remaining gap by (1 - alpha); once the
        # gap nears rounding scale relative to c the ratio is meaningless
        if previous_gap is not None and previous_gap > 1e-6 * max(1.0, abs(c)):
            assert gap == pytest.approx((1.0 - alpha) * previous_gap, rel=1e-7)


class TestCorrectedValue:
    def test_unshifted_example(self):
        p = get_problem("P1")
        cm = CorrectedModel(p.model, [-2.0, -2.0], anchor=[0.0, 0.0])
        assert cm.value([1.0, 1.0]) == pytest.approx(-2.0)

    def test_shifted_value_matches_plant_at_anchor(self):
        p = get_problem("P1")
        cm = CorrectedModel(p.model, [-2.0, -2.0], anchor=[0.0, 0.0], plant_value_at_anchor=2.0)
        assert cm.value([0.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_value_differences_agree_across_forms(self):
        # constant term cancels from any two-point difference
        p = get_problem("P1")
        lam = [-2.0, -2.0]
        plain = CorrectedModel(p.model, lam, anchor=[0.0, 0.0])
        shifted = CorrectedModel(p.model, lam, anchor=[0.0, 0.0], plant_value_at_anchor=2.0)
        a, b = [1.0, 1.0], [0.0, 0.0]
        diff_plain = plain.value(a) - plain.value(b)
        diff_shifted = shifted.value(a) - shifted.value(b)
        assert diff_plain == pytest.approx(-2.0)
        assert abs(diff_plain - diff_shifted) <= 1e-12

    def test_plant_value_alone_applies_the_shift(self):
        p = get_problem("P1")
        cm = CorrectedModel(p.model, [-2, -2], anchor=[0, 0], plant_value_at_anchor=2.0)
        assert cm.value([0, 0]) == 2.0

    @settings(max_examples=50)
    @given(
        lam=st.tuples(finite, finite),
        anchor=st.tuples(finite, finite),
        point_a=st.tuples(finite, finite),
        point_b=st.tuples(finite, finite),
        plant_value=finite,
    )
    def test_shift_invariance_of_differences(self, lam, anchor, point_a, point_b, plant_value):
        model = sphere_oracle()
        plain = CorrectedModel(model, lam, anchor=anchor)
        shifted = CorrectedModel(model, lam, anchor=anchor, plant_value_at_anchor=plant_value)
        a, b = np.array(point_a), np.array(point_b)
        diff_plain = plain.value(a) - plain.value(b)
        diff_shifted = shifted.value(a) - shifted.value(b)
        scale = max(1.0, abs(diff_plain))
        assert abs(diff_plain - diff_shifted) <= 1e-9 * scale

    def test_value_change_is_bit_identical_across_forms(self):
        p = get_problem("P3")
        lam = [3.7, -0.2]
        plain = CorrectedModel(p.model, lam, anchor=[-1.2, 1.0])
        shifted = CorrectedModel(p.model, lam, anchor=[-1.2, 1.0], plant_value_at_anchor=24.2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.uniform(-3, 3, size=2)
            assert plain.value_change(u) == shifted.value_change(u)

    def test_value_change_matches_value_difference(self):
        p = get_problem("P1")
        cm = CorrectedModel(p.model, [0.5, -1.5], anchor=[0.2, 0.8])
        u = np.array([1.3, -0.7])
        assert cm.value_change(u) == pytest.approx(cm.value(u) - cm.value(cm.anchor))


class TestCorrectedGradient:
    def test_matches_plant_gradient_at_anchor(self):
        p = get_problem("P1")
        anchor = [0.0, 0.0]
        lam = gradient_gap(p.plant_gradient(anchor), p.model_gradient(anchor))
        cm = CorrectedModel(p.model, lam, anchor=anchor)
        assert np.linalg.norm(cm.gradient(anchor) - p.plant_gradient(anchor)) <= 1e-12

    def test_zero_modifiers_leave_model_gradient(self):
        p = get_problem("P3")
        cm = CorrectedModel(p.model, [0.0, 0.0], anchor=[1.0, 1.0])
        for u in ([0.0, 0.0], [2.0, -1.0], [0.5, 3.0]):
            assert np.array_equal(cm.gradient(u), p.model_gradient(u))

    def test_p2_anchor_match(self):
        p = get_problem("P2")
        anchor = [1.0]
        lam = gradient_gap(p.plant_gradient(anchor), p.model_gradient(anchor))
        assert lam == pytest.approx([4.0])
        cm = CorrectedModel(p.model, lam, anchor=anchor)
        assert cm.gradient(anchor) == pytest.approx([2.0])

    def test_gradient_identical_under_both_shift_modes(self):
        p = get_problem("P4")
        lam = [1.0, -2.0]
        plain = CorrectedModel(p.model, lam, anchor=[0.0, 0.0])
        shifted = CorrectedModel(p.model, lam, anchor=[0.0, 0.0], plant_value_at_anchor=170.0)
        u = [0.4, -1.1]
        assert np.array_equal(plain.gradient(u), shifted.gradient(u))

    @pytest.mark.parametrize("pid", ["P1", "P2", "P3", "P4"])
    def test_anchor_match_across_catalog(self, pid):
        p = get_problem(pid)
        rng = np.random.default_rng(3)
        for _ in range(25):
            anchor = rng.uniform(-4, 4, size=p.dimension)
            lam = gradient_gap(p.plant_gradient(anchor), p.model_gradient(anchor))
            cm = CorrectedModel(p.model, lam, anchor=anchor)
            gap = np.linalg.norm(cm.gradient(anchor) - p.plant_gradient(anchor))
            assert gap <= 1e-12


class TestAnchorTerms:
    """The subproblem's radius-free terms at the model's anchor, computed
    once."""

    def test_known_base_gradient_gives_the_same_terms_without_a_call(self):
        p = get_problem("P4")
        anchor, lam = np.array([0.5, -1.25]), [3.0, -0.5]
        measured = CorrectedModel(p.model, lam, anchor=anchor).anchor_terms()
        calls = p.model.gradient_calls
        given_model = CorrectedModel(
            p.model, lam, anchor=anchor, base_gradient=p.model.gradient(anchor)
        )
        assert p.model.gradient_calls == calls + 1
        given_terms = given_model.anchor_terms()
        assert p.model.gradient_calls == calls + 1
        assert measured[1:3] == given_terms[1:3]
        for a, b in ((measured[0], given_terms[0]), (measured[3], given_terms[3])):
            assert a.tobytes() == b.tobytes()

    def test_own_anchor_terms_are_computed_once(self):
        p = get_problem("P2")
        cm = CorrectedModel(p.model, [4.0], anchor=[1.5])
        first = cm.anchor_terms()
        calls = p.model.gradient_calls
        assert cm.anchor_terms() is first
        assert p.model.gradient_calls == calls

    def test_terms_with_a_hessian(self):
        p = get_problem("P4")
        lam = np.array([1.0, 2.0])
        u = np.array([1.0, -2.0])
        g, gg, curvature, gt = CorrectedModel(p.model, lam, anchor=u).anchor_terms()
        assert g.tolist() == (p.model.gradient(u) + lam).tolist()
        assert gg == float(g @ g) and curvature == float(g @ (p.model.hessian @ g))
        assert gt.tolist() == (p.model.hessian_eigh()[1].T @ g).tolist()

    def test_overflowing_terms_are_inf_without_a_warning(self):
        # g.g and g.Hg overflow for a gradient of 1e154 per component
        cm = CorrectedModel(get_problem("P1").model, [0.0, 0.0], anchor=[5e153, 5e153])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, gg, curvature, _ = cm.anchor_terms()
        assert gg == math.inf and curvature == math.inf

    def test_model_without_hessian_has_no_curvature_terms(self):
        cm = CorrectedModel(sphere_oracle(), [1.0, 0.0], anchor=[1.0, 1.0])
        g, gg, curvature, gt = cm.anchor_terms()
        assert g.tolist() == [3.0, 2.0] and gg == 13.0
        assert curvature is None and gt is None

    @pytest.mark.parametrize("bad", [[1.0], [1.0, np.nan], [[1.0, 2.0]]])
    def test_base_gradient_is_validated(self, bad):
        with pytest.raises(ValueError):
            CorrectedModel(sphere_oracle(), [0.0, 0.0], anchor=[0.0, 0.0], base_gradient=bad)
