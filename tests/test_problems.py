"""Tests for the plant/model catalog, oracles, and probing utilities."""

import math
import warnings

import numpy as np
import pytest

from rtopt import (
    ModifierFilter,
    OracleError,
    ProblemPair,
    ScalarOracle,
    finite_difference_gradient,
    finite_difference_hessian,
    get_problem,
    list_problems,
    probe_assumptions,
)
from rtopt.problems import PROBLEM_IDS


class TestCatalogValues:
    def test_p1_plant_minimum(self):
        p = get_problem("P1")
        assert p.evaluate_plant([1.0, 1.0]) == 0.0

    def test_p1_plant_at_origin(self):
        p = get_problem("P1")
        assert p.evaluate_plant([0.0, 0.0]) == 2.0

    def test_p3_plant_minimum(self):
        p = get_problem("P3")
        assert p.evaluate_plant([1.0, 1.0]) == 0.0

    def test_p1_model_at_origin(self):
        p = get_problem("P1")
        assert p.evaluate_model([0.0, 0.0]) == 0.0
        assert np.array_equal(p.model_gradient([0.0, 0.0]), [0.0, 0.0])

    def test_p2_values_and_gradients(self):
        p = get_problem("P2")
        # analytic differentiation of u^2 and -u^2
        assert p.plant_gradient([3.0]) == pytest.approx([6.0])
        assert p.evaluate_model([3.0]) == pytest.approx(-9.0)
        assert p.model_gradient([3.0]) == pytest.approx([-6.0])

    def test_p1_plant_gradient_at_origin(self):
        p = get_problem("P1")
        assert p.plant_gradient([0.0, 0.0]) == pytest.approx([-2.0, -2.0])

    def test_p3_model_values(self):
        p = get_problem("P3")
        assert p.evaluate_model([2.0, 0.0]) == pytest.approx(4.0)
        assert p.model_gradient([2.0, 0.0]) == pytest.approx([4.0, 0.0])

    def test_sphere_model_has_np_dot_bits_and_overflows_quietly(self):
        # every P1/P3/P4 trace depends on np.dot's rounding of u . u
        rng = np.random.default_rng(3)
        model = get_problem("P3").model
        for u in rng.normal(size=(2000, 2)) * 10.0 ** rng.uniform(-150, 150, size=(2000, 1)):
            assert model.value(u) == float(np.dot(u, u))
        # beyond the float range: an OracleError, and no RuntimeWarning (an error here)
        with pytest.raises(OracleError):
            model.value([1.2e77, 1.44e154])

    def test_known_optima_are_critical(self):
        optima = {"P1": [1.0, 1.0], "P2": [0.0], "P3": [1.0, 1.0], "P4": [3.0, 2.0]}
        assert tuple(optima) == PROBLEM_IDS
        for pid, optimum in optima.items():
            p = get_problem(pid)
            gnorm = np.linalg.norm(p.plant_gradient(optimum))
            assert gnorm <= 1e-10, f"{pid}: gradient norm {gnorm} at known optimum"

    def test_list_problems(self):
        entries = list_problems()
        assert [e[0] for e in entries] == list(PROBLEM_IDS)
        assert ("P3", "rosenbrock-plant", 2) in entries

    def test_lookup_by_label(self):
        assert get_problem("wrong-curvature").identifier == "P2"

    def test_unknown_identifier(self):
        with pytest.raises(KeyError, match="unknown problem"):
            get_problem("P99")

    def test_fresh_instances_have_zero_counters(self):
        p = get_problem("P1")
        p.evaluate_plant([0.0, 0.0])
        q = get_problem("P1")
        assert q.plant_evaluations() == (0, 0)


class TestGradientIntegrity:
    """Analytic gradients must agree with central differences.

    Sampling stays inside [-3, 3]^n: at step 1e-5 the difference quotient
    carries round-off of order eps * |f| / step, and the rosenbrock plant
    reaches |f| ~ 1e5 further out, where that term alone provably exceeds
    the 1e-6 comparison tolerance.
    """

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_plant_gradients_match_finite_differences(self, pid):
        p = get_problem(pid)
        rng = np.random.default_rng(42)
        for _ in range(100):
            u = rng.uniform(-3.0, 3.0, size=p.dimension)
            fd = finite_difference_gradient(p.plant, u, 1e-5)
            analytic = p.plant_gradient(u)
            assert np.max(np.abs(fd - analytic)) <= 1e-6

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_model_gradients_match_finite_differences(self, pid):
        p = get_problem(pid)
        rng = np.random.default_rng(17)
        for _ in range(100):
            u = rng.uniform(-3.0, 3.0, size=p.dimension)
            fd = finite_difference_gradient(p.model, u, 1e-5)
            analytic = p.model_gradient(u)
            assert np.max(np.abs(fd - analytic)) <= 1e-6


class TestScalarOracle:
    def test_counters_increment_once_per_call(self):
        oracle = ScalarOracle(lambda u: float(u[0] ** 2), lambda u: 2.0 * u, 1)
        for i in range(1, 4):
            oracle.value([1.0])
            assert oracle.value_calls == i
        assert oracle.gradient_calls == 0
        oracle.gradient([1.0])
        assert oracle.gradient_calls == 1

    def test_dimension_mismatch_rejected(self):
        p = get_problem("P1")
        with pytest.raises(ValueError, match="dimension mismatch"):
            p.evaluate_plant([1.0, 2.0, 3.0])

    def test_non_finite_input_rejected(self):
        p = get_problem("P1")
        with pytest.raises(ValueError, match="non-finite"):
            p.evaluate_plant([np.nan, 0.0])

    def test_non_finite_result_signals_oracle_failure(self):
        oracle = ScalarOracle(lambda u: float("inf"), lambda u: u, 1)
        with pytest.raises(OracleError):
            oracle.value([1.0])

    @pytest.mark.parametrize("call", ["value", "gradient"])
    def test_overflow_in_the_wrapped_function_signals_oracle_failure(self, call):
        oracle = ScalarOracle(lambda u: float(u[0]) ** 4, lambda u: [float(u[0]) ** 3], 1)
        with pytest.raises(OracleError, match="OverflowError"):
            getattr(oracle, call)([1e200])

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_nonpositive_dimension_rejected(self, dimension):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            ScalarOracle(lambda u: 0.0, lambda u: u, dimension)
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            ModifierFilter(1.0, dimension)

    @pytest.mark.parametrize(
        "convert",
        [list, lambda g: g.astype(np.float32), lambda g: g.reshape(-1, 1)],
        ids=["list", "float32", "column"],
    )
    def test_gradient_output_is_converted_to_a_float_vector(self, convert):
        grad = np.array([0.5, -1.25, 3.0])  # exact in float32 too
        oracle = ScalarOracle(lambda u: 0.0, lambda u: convert(grad), 3)
        out = oracle.gradient([0.0, 0.0, 0.0])
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == (3,)
        assert out.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("output", [[0.0, 0.0, 0.0], np.zeros((2, 2))], ids=["list", "matrix"])
    def test_converted_gradient_of_wrong_length_signals_failure(self, output):
        oracle = ScalarOracle(lambda u: 0.0, lambda u: output, 2)
        with pytest.raises(OracleError, match="gradient length"):
            oracle.gradient([0.0, 0.0])

    def test_wrong_gradient_length_signals_failure(self):
        oracle = ScalarOracle(lambda u: 0.0, lambda u: np.zeros(3), 2)
        with pytest.raises(OracleError, match="gradient length"):
            oracle.gradient([0.0, 0.0])

    @pytest.mark.parametrize(
        "hessian",
        [
            [[2.0]],
            [2.0, 2.0],
            [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]],
            [[2.0, 0.0], [0.0, float("nan")]],
            [[float("inf"), 0.0], [0.0, 2.0]],
            [[2.0, 1.0], [0.0, 2.0]],
            [["a", 0.0], [0.0, 2.0]],
            [[2.0, 0.0], [0.0]],
        ],
        ids=["too-small", "vector", "not-square", "nan", "inf", "asymmetric", "text", "ragged"],
    )
    def test_bad_hessian_rejected(self, hessian):
        with pytest.raises(ValueError, match="hessian"):
            ScalarOracle(lambda u: 0.0, lambda u: np.zeros(2), 2, hessian=hessian)

    def test_declared_hessian_is_a_read_only_copy(self):
        h = np.array([[2.0, 1.0], [1.0, 3.0]])
        oracle = ScalarOracle(lambda u: 0.0, lambda u: np.zeros(2), 2, hessian=h)
        h[0, 0] = 5.0
        assert oracle.hessian[0, 0] == 2.0
        with pytest.raises(ValueError):
            oracle.hessian[0, 0] = 5.0

    def test_hessian_eigh_is_cached_read_only(self, monkeypatch):
        eigh = np.linalg.eigh
        decomposed = []
        monkeypatch.setattr(np.linalg, "eigh", lambda h: decomposed.append(h) or eigh(h))
        oracle = ScalarOracle(lambda u: 0.0, lambda u: np.zeros(2), 2,
                              hessian=[[-1.0, 0.0], [0.0, 2.0]])
        assert len(decomposed) == 1  # when the oracle is built, not at the first call
        w, q = oracle.hessian_eigh()
        assert len(decomposed) == 1
        assert ScalarOracle(lambda u: 0.0, lambda u: np.zeros(2), 2).hessian_eigh() is None
        assert w.tolist() == [-1.0, 2.0] and q.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert oracle.hessian_eigh() is oracle.hessian_eigh()
        for kept in (w, q):
            with pytest.raises(ValueError):
                kept[0] = 5.0

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_catalog_models_declare_their_hessian(self, pid):
        p = get_problem(pid)
        assert p.plant.hessian is None
        rng = np.random.default_rng(29)
        for _ in range(5):
            u = rng.uniform(-3.0, 3.0, size=p.dimension)
            fd = finite_difference_hessian(p.model, u)
            assert p.model.hessian == pytest.approx(fd, abs=1e-5)

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_pairs_share_the_catalog_curvature_but_not_their_counters(self, pid, monkeypatch):
        # the catalog Hessian is checked and decomposed once per process;
        # every pair gets fresh oracles with zeroed counters, and no holder
        # of the shared arrays, or of the arrays below them, can write them
        first = get_problem(pid)
        monkeypatch.setattr(np.linalg, "eigh", lambda h: pytest.fail("decomposed again"))
        second = get_problem(pid, noise_level=0.1, seed=3)
        assert second.model.hessian is first.model.hessian
        assert all(a is b for a, b in zip(second.model.hessian_eigh(), first.model.hessian_eigh()))
        assert len({id(first.plant), id(first.model), id(second.plant), id(second.model)}) == 4
        u = np.zeros(first.dimension)
        first.model.value(u), first.model.gradient(u), first.evaluate_plant(u)
        assert (first.model.value_calls, first.model.gradient_calls) == (1, 1)
        assert first.plant_evaluations() == (1, 0)
        assert (second.model.value_calls, second.model.gradient_calls) == (0, 0)
        assert second.plant_evaluations() == (0, 0)
        w, q = first.model.hessian_eigh()
        assert q @ np.diag(w) @ q.T == pytest.approx(first.model.hessian)
        for held in (first.model.hessian, w, q):
            while isinstance(held, np.ndarray):
                with pytest.raises(ValueError):
                    held.setflags(write=True)
                held = held.base

    def test_custom_problem_via_oracle_contract(self):
        plant = ScalarOracle(lambda u: float((u[0] - 2) ** 2), lambda u: 2 * (u - 2), 1)
        model = ScalarOracle(lambda u: float(u[0] ** 2), lambda u: 2 * u, 1)
        pair = ProblemPair("custom", plant, model)
        assert pair.evaluate_plant([2.0]) == 0.0
        assert pair.plant_gradient([0.0]) == pytest.approx([-4.0])

    def test_plant_and_model_of_different_dimensions_rejected(self):
        plant = ScalarOracle(lambda u: 0.0, lambda u: u, 2)
        model = ScalarOracle(lambda u: 0.0, lambda u: u, 1)
        with pytest.raises(ValueError, match="plant and model dimensions differ"):
            ProblemPair("custom", plant, model)


class TestDeterminismAndNoise:
    def test_noiseless_evaluation_is_bit_identical(self):
        p = get_problem("P3")
        u = [0.3, -1.7]
        assert p.evaluate_plant(u) == p.evaluate_plant(u)
        assert np.array_equal(p.plant_gradient(u), p.plant_gradient(u))

    def test_noise_perturbs_values(self):
        p = get_problem("P1", noise_level=0.1, seed=5)
        clean = get_problem("P1")
        u = [0.5, 0.5]
        assert p.evaluate_plant(u) != clean.evaluate_plant(u)

    def test_noise_is_seed_reproducible(self):
        a = get_problem("P1", noise_level=0.1, seed=7)
        b = get_problem("P1", noise_level=0.1, seed=7)
        seq_a = [a.evaluate_plant([0.0, 0.0]) for _ in range(5)]
        seq_b = [b.evaluate_plant([0.0, 0.0]) for _ in range(5)]
        assert seq_a == seq_b
        grads_a = [a.plant_gradient([1.0, 2.0]) for _ in range(3)]
        grads_b = [b.plant_gradient([1.0, 2.0]) for _ in range(3)]
        for ga, gb in zip(grads_a, grads_b):
            assert np.array_equal(ga, gb)

    def test_noise_draws_come_from_the_seeded_generator(self):
        p = get_problem("P1", noise_level=0.1, seed=7)
        clean = get_problem("P1")
        rng = np.random.default_rng(7)
        u = [0.5, -1.0]
        assert p.evaluate_plant(u) == clean.evaluate_plant(u) + 0.1 * rng.standard_normal()
        expected = clean.plant_gradient(u) + 0.1 * rng.standard_normal(2)
        assert np.array_equal(p.plant_gradient(u), expected)

    @pytest.mark.parametrize("noise_level, generators", [(0.1, [(7,)]), (0.0, [])],
                             ids=["noisy", "noise-free"])
    def test_a_noisy_pair_builds_one_generator_from_its_seed_when_built(
        self, monkeypatch, noise_level, generators
    ):
        built = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        p = get_problem("P1", noise_level=noise_level, seed=7)
        assert built == generators
        for _ in range(2):
            p.evaluate_plant([0.5, -1.0])
            p.plant_gradient([0.5, -1.0])
        assert built == generators

    @pytest.mark.parametrize("noise_level", [0.02, 1.0, 1e150])
    def test_noisy_gradient_has_numpys_element_wise_bits(self, noise_level):
        clean = get_problem("P4")
        for seed in range(20):
            p = get_problem("P4", noise_level=noise_level, seed=seed)
            rng = np.random.default_rng(seed)
            for u in ([0.0, -0.0], [1.5, -2.25], [-3.0, 1e-3]):
                expected = clean.plant_gradient(u) + noise_level * rng.standard_normal(2)
                assert p.plant_gradient(u).tobytes() == expected.tobytes()

    def test_noisy_gradient_overflow_is_an_oracle_error_without_a_warning(self):
        # noise_level 1e308 is finite; at seed 3 some of the noise overflows
        p = get_problem("P1", noise_level=1e308, seed=3)
        failed = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(5):
                for probe in (p.evaluate_plant, p.plant_gradient):
                    try:
                        probe([0.0, 0.0])
                    except OracleError as exc:
                        failed.append(str(exc).split(" is ")[0])
        assert "noisy plant gradient" in failed

    def test_different_seeds_differ(self):
        a = get_problem("P1", noise_level=0.1, seed=1)
        b = get_problem("P1", noise_level=0.1, seed=2)
        assert a.evaluate_plant([0.0, 0.0]) != b.evaluate_plant([0.0, 0.0])

    def test_model_is_never_noisy(self):
        p = get_problem("P1", noise_level=0.5, seed=3)
        assert p.evaluate_model([1.0, 1.0]) == 2.0
        assert p.evaluate_model([1.0, 1.0]) == p.evaluate_model([1.0, 1.0])

    def test_negative_noise_level_rejected(self):
        with pytest.raises(ValueError, match="noise_level"):
            get_problem("P1", noise_level=-0.1)


class TestFiniteDifferences:
    def test_p1_plant_at_origin(self):
        p = get_problem("P1")
        fd = finite_difference_gradient(p.plant, [0.0, 0.0], 1e-5)
        assert fd == pytest.approx([-2.0, -2.0], abs=1e-8)

    def test_symmetric_function_is_exact_at_zero(self):
        oracle = ScalarOracle(lambda u: float(u[0] ** 2), lambda u: 2 * u, 1)
        for step in (1.0, 0.1, 1e-3, 1e-7):
            assert finite_difference_gradient(oracle, [0.0], step)[0] == 0.0

    def test_linear_function_any_step(self):
        oracle = ScalarOracle(lambda u: 3.0 * u[0], lambda u: np.array([3.0]), 1)
        assert finite_difference_gradient(oracle, [0.0], 0.1)[0] == pytest.approx(
            3.0, abs=1e-12
        )

    def test_nonpositive_step_rejected(self):
        p = get_problem("P1")
        for difference in (finite_difference_gradient, finite_difference_hessian):
            for step in (0.0, -1e-5):
                with pytest.raises(ValueError, match="step must be > 0"):
                    difference(p.plant, [0.0, 0.0], step)

    @pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
    def test_nonfinite_step_rejected_before_any_probe(self, step):
        p = get_problem("P1")
        for difference in (finite_difference_gradient, finite_difference_hessian):
            with pytest.raises(ValueError, match="step must be > 0 and finite"):
                difference(p.plant, [0.0, 0.0], step)
        assert p.plant_evaluations() == (0, 0)

    def test_hessian_of_quadratic(self):
        p = get_problem("P1")
        h = finite_difference_hessian(p.plant, [0.3, -0.4])
        assert h == pytest.approx(2.0 * np.eye(2), abs=1e-5)

    @staticmethod
    def rosenbrock_hessian(x, y):
        return np.array([[1200.0 * x * x - 400.0 * y + 2.0, -400.0 * x], [-400.0 * x, 200.0]])

    @staticmethod
    def himmelblau_hessian(x, y):
        xx, yy, xy = 12.0 * x * x + 4.0 * y - 42.0, 12.0 * y * y + 4.0 * x - 26.0, 4.0 * (x + y)
        return np.array([[xx, xy], [xy, yy]])

    @pytest.mark.parametrize("pid", ["P3", "P4"])
    def test_hessian_differences_the_gradient(self, pid):
        # the plants' analytic Hessians, to 1e-7 relative to max(1, max|H|);
        # second differences of Himmelblau's values missed this by 8x
        p = get_problem(pid)
        exact = self.rosenbrock_hessian if pid == "P3" else self.himmelblau_hessian
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = rng.uniform(-3.0, 3.0, size=2)
            h, want = finite_difference_hessian(p.plant, u), exact(*u)
            assert np.array_equal(h, h.T)
            assert np.max(np.abs(h - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))
        assert p.plant_evaluations() == (0, 200 * 4)  # 2n gradients each, no value


class TestProbeAssumptions:
    def test_p1_constant_curvature(self):
        report = probe_assumptions(get_problem("P1"), ([-5.0, -5.0], [5.0, 5.0]), 100)
        assert report.plant_hessian_bound == pytest.approx(2.0, abs=1e-3)
        assert report.model_hessian_bound == pytest.approx(2.0, abs=1e-3)
        assert report.min_plant_value >= 0.0
        assert report.max_gradient_discrepancy <= 1e-6

    def test_p2_magnitude_of_negative_curvature(self):
        report = probe_assumptions(get_problem("P2"), ([-5.0], [5.0]), 100)
        assert report.plant_hessian_bound == pytest.approx(2.0, abs=1e-3)
        assert report.model_hessian_bound == pytest.approx(2.0, abs=1e-3)

    def test_p3_curvature_grows_with_box(self):
        # the rosenbrock curvature bound is local: larger boxes sample
        # larger curvature, so the probe only documents box-level validity
        small = probe_assumptions(get_problem("P3"), ([-1.0, -1.0], [1.0, 1.0]), 100)
        large = probe_assumptions(get_problem("P3"), ([-2.0, -2.0], [2.0, 2.0]), 100)
        assert small.plant_hessian_bound > 100.0
        assert large.plant_hessian_bound > small.plant_hessian_bound
        assert large.model_hessian_bound == pytest.approx(2.0, abs=1e-3)

    def test_nonpositive_sample_count_rejected(self):
        with pytest.raises(ValueError, match="sample_count must be >= 1"):
            probe_assumptions(get_problem("P1"), ([0.0, 0.0], [1.0, 1.0]), 0)

    @pytest.mark.parametrize("count", [2.5, True, "3", None])
    def test_non_integer_sample_count_rejected_before_any_probe(self, count):
        p = get_problem("P1")
        with pytest.raises(ValueError, match="sample_count"):
            probe_assumptions(p, ([0.0, 0.0], [1.0, 1.0]), count)
        assert p.plant_evaluations() == (0, 0)
        assert (p.model.value_calls, p.model.gradient_calls) == (0, 0)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate box"):
            probe_assumptions(get_problem("P1"), ([0.0, 0.0], [0.0, 1.0]), 10)

    def test_inverted_box_rejected(self):
        with pytest.raises(ValueError, match="degenerate box"):
            probe_assumptions(get_problem("P1"), ([1.0, 0.0], [0.0, 1.0]), 10)
