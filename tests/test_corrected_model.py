"""Tests for the first-order model correction and modifier filtering."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtopt import (
    CorrectedModel,
    ModifierFilter,
    OracleError,
    ScalarOracle,
    get_problem,
    solve_subproblem,
)

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

    @pytest.mark.parametrize("kind", [np.array, list])
    @pytest.mark.parametrize("which", [0, 1])
    def test_a_non_finite_gradient_raises_one_message(self, kind, which):
        # a float array is read on Python floats and checked only when the
        # result is not finite; a list is checked first: both raise the
        # input check's error and leave the filter as it was
        filt = ModifierFilter(0.5, 2)
        filt.update([1.0, 2.0], [0.0, 0.0])
        before = filt.previous
        gradients = [[1.0, 2.0], [0.0, 0.0]]
        gradients[which][1] = math.nan
        with pytest.raises(ValueError, match="input vector contains non-finite components"):
            filt.update(*map(kind, gradients))
        assert filt.previous is before and filt.previous.tolist() == [0.5, 1.0]

    def test_dimension_mismatch_with_the_filter_rejected(self):
        with pytest.raises(ValueError, match="previous must have equal length"):
            ModifierFilter(1.0, 2).update([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])

    def test_overflowing_gap_is_an_oracle_error_without_a_warning(self):
        filt = ModifierFilter(1.0, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OracleError, match="overflows"):
                filt.update([1.5e308], [-1.5e308])
        assert filt.previous.tolist() == [0.0]


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


def components(rng, n):
    """n signed components: magnitudes 10^-300..10^300, a quarter of them near
    the largest float, where a difference may overflow, a tenth subnormal,
    and a fifth +-0.0."""
    x = 10.0 ** rng.uniform(-300.0, 300.0, n)
    x = np.where(rng.random(n) < 0.25, rng.uniform(0.5, 1.79, n) * 1e308, x)
    x = np.where(rng.random(n) < 0.1, rng.uniform(0.0, 1.0, n) * 2.0**-1022, x)
    x = rng.choice([-1.0, 1.0], n) * x
    return np.where(rng.random(n) < 0.2, rng.choice([-0.0, 0.0], n), x)


def gap_kinds(gap):
    """The kinds of component in a gradient gap the repeat check covers."""
    kinds = {"-0.0" if math.copysign(1.0, g) < 0.0 else "+0.0" for g in gap if g == 0.0}
    kinds |= {"subnormal" for g in gap if 0.0 < abs(g) < 2.0**-1022}
    return kinds | {"near overflow" for g in gap if abs(g) > 1e307}


class TestUpdateBits:
    """``update`` gives the NumPy formula's bits, and its OracleError where
    that formula overflows, without a RuntimeWarning.  At gain 1 a second
    update on the same gradients returns the first one's bits, which lets
    the run loop keep the modifiers of a rejected step."""

    def test_seeded_filters_match_the_numpy_formula(self):
        rng = np.random.default_rng(20)
        overflows = 0
        repeated = set()
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            alpha = 1.0 if rng.random() < 0.25 else 1.0 - rng.random()  # (0, 1]
            filt = ModifierFilter(alpha, n)
            for _ in range(3):
                pg, mg, previous = components(rng, n), components(rng, n), filt.previous
                with np.errstate(over="ignore", invalid="ignore"):
                    want = alpha * (pg - mg) + (1.0 - alpha) * previous
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if np.isfinite(want).all():
                        got = filt.update(pg, mg)
                    else:
                        overflows += 1
                        with pytest.raises(OracleError, match="overflows"):
                            filt.update(pg, mg)
                        assert filt.previous is previous
                        continue
                assert got.tobytes() == want.tobytes()
                assert filt.previous.tobytes() == want.tobytes()
                if alpha == 1.0:
                    assert filt.update(pg, mg).tobytes() == got.tobytes()
                    repeated |= gap_kinds(pg - mg)
        assert overflows > 50
        assert repeated == {"-0.0", "+0.0", "subnormal", "near overflow"}


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

    @pytest.mark.parametrize("plant_value", [math.inf, -math.inf, math.nan])
    def test_non_finite_plant_value_rejected(self, plant_value):
        oracle = sphere_oracle()
        with pytest.raises(ValueError, match="plant_value_at_anchor"):
            CorrectedModel(oracle, [0.5, 0.5], [0.0, 0.0], plant_value_at_anchor=plant_value)
        assert oracle.value_calls == 0


class TestValueOnDemand:
    """``value`` computes the value at the anchor when called, with the
    bits of the same constant computed once at construction: the base
    value at the anchor plus ``modifiers . anchor``, or the plant value."""

    @staticmethod
    def constructor_form(base, lam, anchor, plant_value, u):
        cm = CorrectedModel(base, lam, anchor=anchor)
        with np.errstate(over="ignore", invalid="ignore"):
            at_anchor = (
                base.value(anchor) + float(np.asarray(lam, float) @ np.asarray(anchor, float))
                if plant_value is None
                else float(plant_value)
            )
        return at_anchor + cm.value_change(u)

    @staticmethod
    def bits(x):
        return struct.pack("<d", x)

    @pytest.mark.parametrize("plant_value", [None, 24.2])
    def test_same_bits_as_a_constant_computed_at_construction(self, plant_value):
        base = get_problem("P3").model
        rng = np.random.default_rng(5)
        for _ in range(200):
            lam, anchor, u = (rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3) for _ in range(3))
            cm = CorrectedModel(base, lam, anchor=anchor, plant_value_at_anchor=plant_value)
            want = self.constructor_form(base, lam, anchor, plant_value, u)
            assert self.bits(cm.value(u)) == self.bits(want)

    @pytest.mark.parametrize("lam", [[1e10, 1e10], [1e10, -1e10]], ids=["inf", "nan"])
    @pytest.mark.parametrize("plant_value", [None, 3.0])
    def test_far_anchor_overflows_quietly(self, lam, plant_value):
        # modifiers . anchor overflows: the unshifted value is inf or NaN,
        # the shifted one finite, and no warning reaches the caller
        flat = ScalarOracle(lambda u: 1.0, lambda u: np.zeros(2), 2)
        anchor, u = [1e300, 1e300], [1e300 * (1.0 + 2.0**-52), 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cm = CorrectedModel(flat, lam, anchor=anchor, plant_value_at_anchor=plant_value)
            got = cm.value(u)
            want = self.constructor_form(flat, lam, anchor, plant_value, u)
        assert self.bits(got) == self.bits(want)
        assert math.isfinite(got) == (plant_value is not None)


class TestReadOnlyVectors:
    """A public model's anchor and modifiers are read-only, so it keeps
    matching at the anchor it was built at; building it calls no oracle."""

    @pytest.mark.parametrize("name", ["anchor", "modifiers"])
    def test_writing_into_a_public_model_raises(self, name):
        model = CorrectedModel(get_problem("P4").model, [1, -2], anchor=[0, 0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(model, name)[0] = 3.0
        assert model.anchor.tolist() == [0.0, 0.0] and model.modifiers.tolist() == [1.0, -2.0]
        assert model.value_change([0.0, 0.0]) == 0.0
        assert solve_subproblem(model, 1.0).predicted_change < 0.0

    def test_building_a_model_calls_no_oracle(self):
        base = sphere_oracle()
        model = CorrectedModel(base, [1.0, 0.0], anchor=[0.5, 0.0])
        assert (base.value_calls, base.gradient_calls) == (0, 0)
        assert model.value([1.0, 0.0]) == 2.0
        assert base.value_calls == 2  # at u, then at the anchor, once
        model.value([0.0, 0.0])
        assert base.value_calls == 3


class TestMeasuredBaseValue:
    def test_the_last_measured_point_is_kept(self):
        oracle = sphere_oracle()
        cm = CorrectedModel(oracle, [1.0, 0.0], anchor=[0.0, 0.0])
        points = [np.array([3.0, 0.5]), np.array([-1.0, 0.0])]
        for u in points:
            cm.value_change(u)
        assert cm.measured_base_value(points[0]) is None
        assert cm.measured_base_value(points[1]) == 1.0
        # to the bit: -0.0 is another point than 0.0
        assert cm.measured_base_value(np.array([-1.0, -0.0])) is None
        assert oracle.value_calls == 3


class TestValueMemo:
    """``value_change`` answers a float vector with the bytes of the last
    point it measured from the memo; any other input reaches the oracle."""

    @staticmethod
    def model():
        oracle = sphere_oracle()
        return oracle, CorrectedModel(oracle, [0.3, -1.1], anchor=[0.5, 0.25])

    def test_a_hit_costs_no_oracle_call_and_returns_the_miss_bits(self):
        oracle, cm = self.model()
        u = np.array([-0.7, 1e-310])
        miss = struct.pack("<d", cm.value_change(u))
        calls = oracle.value_calls
        # a copy and a strided view: the bytes decide, not the object
        view = np.array([[-0.7, 9.0], [1e-310, 9.0]])[:, 0]
        for hit in (u.copy(), view, u):
            assert struct.pack("<d", cm.value_change(hit)) == miss
        assert oracle.value_calls == calls

    def test_inputs_other_than_float_vectors_reach_the_oracle(self):
        oracle, cm = self.model()
        u = np.array([1.0, 2.0])
        cm.value_change(u)
        # the same bytes as a (1, 2) array, or as integers: no longer a vector of floats
        with pytest.raises(ValueError, match="1-D vector"):
            cm.value_change(u.reshape(1, 2))
        calls = oracle.value_calls
        cm.value_change(u.view(np.int64))
        assert oracle.value_calls == calls + 1
        with pytest.raises(ValueError, match="non-finite"):
            cm.value_change(np.array([math.nan, 2.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            cm.value_change(np.array([1.0, 2.0, 3.0]))

    def test_signed_zeros_are_two_points(self):
        oracle, cm = self.model()
        cm.value_change(np.array([0.0, 1.0]))
        calls = oracle.value_calls
        cm.value_change(np.array([-0.0, 1.0]))
        assert oracle.value_calls == calls + 1

    def test_a_hit_keeps_the_last_point_and_a_miss_replaces_it(self):
        oracle, cm = self.model()
        a, b = np.array([1.0, 2.0]), np.array([3.0, 0.5])
        for u in (a, a):  # a hit replaces nothing
            cm.value_change(u)
        assert cm.measured_base_value(a) == 5.0
        cm.value_change(b)
        assert cm.measured_base_value(a) is None and cm.measured_base_value(b) == 9.25
        cm.value_change(a)  # measured again: the memo held only b
        assert oracle.value_calls == 4  # the anchor, a, b and a


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
        anchor, lam = np.array([0.5, -1.25]), np.array([3.0, -0.5])
        measured = CorrectedModel(p.model, lam, anchor=anchor).anchor_terms()
        calls = p.model.gradient_calls
        given_model = CorrectedModel(
            p.model, lam, anchor=anchor, _run=(None, p.model.gradient(anchor))
        )
        assert p.model.gradient_calls == calls + 1
        given_terms = given_model.anchor_terms()
        assert p.model.gradient_calls == calls + 1
        assert measured[1] == given_terms[1]
        for a, b in zip(measured[:1] + measured[2:], given_terms[:1] + given_terms[2:]):
            assert a.tobytes() == b.tobytes()

    def test_errstate_is_quiet_unless_a_run_holds_it(self):
        p = get_problem("P1")
        anchor = np.array([1.0, 1.0])
        own = CorrectedModel(p.model, [0.0, 0.0], anchor=anchor)
        with own.errstate():
            assert (np.geterr()["over"], np.geterr()["invalid"]) == ("ignore", "ignore")
        # a run's model is solved under the errstate the run already holds
        run = CorrectedModel(p.model, np.zeros(2), anchor, _run=(None, p.model.gradient(anchor)))
        outside = np.geterr()
        with run.errstate():
            assert np.geterr() == outside

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
        g, gg, w, q, gt = CorrectedModel(p.model, lam, anchor=u).anchor_terms()
        assert g.tolist() == (p.model.gradient(u) + lam).tolist()
        assert gg == float(g @ g)
        cached_w, cached_q = p.model.hessian_eigh()
        assert w is cached_w and q is cached_q
        assert w.tolist() == [2.0, 2.0] and q.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert gt.tolist() == (q.T @ g).tolist()

    def test_overflowing_terms_are_inf_without_a_warning(self):
        # g.g overflows for a gradient of 1e154 per component
        cm = CorrectedModel(get_problem("P1").model, [0.0, 0.0], anchor=[5e153, 5e153])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gg = cm.anchor_terms()[1]
        assert gg == math.inf

    def test_model_without_hessian_has_no_curvature_terms(self):
        cm = CorrectedModel(sphere_oracle(), [1.0, 0.0], anchor=[1.0, 1.0])
        g, gg, *curvature = cm.anchor_terms()
        assert g.tolist() == [3.0, 2.0] and gg == 13.0
        assert curvature == [None, None, None]
