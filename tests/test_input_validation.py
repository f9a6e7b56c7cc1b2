"""Input validation at the oracle boundary.

``reference_as_input_vector`` is the NumPy element-wise validator kept as
the reference: ``as_input_vector`` must return the same bytes for every
input it accepts and raise the same ``ValueError`` for every input it
rejects.  The corrected model validates through its base oracle, so its
results must equal those for an input validated up front.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rtopt import (
    ConfigError,
    CorrectedModel,
    ModifierFilter,
    OracleError,
    ScalarOracle,
    get_problem,
    run_ma_tr,
)
from rtopt.problems import as_input_vector


def reference_as_input_vector(u, dimension=None):
    arr = np.array(u, dtype=float, copy=True)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"input must be a 1-D vector, got shape {arr.shape}")
    if dimension is not None and arr.size != dimension:
        raise ValueError(
            f"dimension mismatch: expected length {dimension}, got {arr.size}"
        )
    if arr.size == 0:
        raise ValueError("input vector has no entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input vector contains non-finite components")
    return arr


scalars = st.one_of(st.floats(), st.integers(min_value=-(2**53), max_value=2**53))
inputs = st.one_of(
    scalars,
    st.lists(scalars, max_size=4),
    st.lists(scalars, max_size=4).map(tuple),
    hnp.arrays(
        st.sampled_from([np.int64, np.float32, np.float64]),
        hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
    ),
)


def outcome(validate, u, dimension):
    try:
        return validate(u, dimension)
    except ValueError as exc:
        return exc


@settings(max_examples=400)
@given(u=inputs, dimension_mode=st.sampled_from(["none", "correct", "wrong"]))
@example(u=[], dimension_mode="none")  # a vector with no entries
def test_as_input_vector_matches_reference(u, dimension_mode):
    size = np.size(u)
    dimension = {"none": None, "correct": size, "wrong": size + 1}[dimension_mode]
    expected = outcome(reference_as_input_vector, u, dimension)
    got = outcome(as_input_vector, u, dimension)
    if isinstance(expected, ValueError):
        assert isinstance(got, ValueError)
        assert str(got) == str(expected)
        return
    assert got.dtype == np.float64
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    # no aliasing: the result is read-only and shares no memory with the input
    assert not got.flags.writeable
    assert not np.shares_memory(got, u)


# entries errors.as_vector rejects, which NumPy's float conversion takes or raises TypeError on
NOT_REAL = [["1.5", "2"], [True, False], [1 + 0j, 2], np.array([True, False])]


@pytest.mark.parametrize("u", NOT_REAL, ids=["strings", "bools", "complex", "bool-array"])
def test_entries_follow_the_config_rule_for_numbers(u):
    with pytest.raises(ValueError, match="must be real numbers, not bools or strings"):
        as_input_vector(u, 2)
    with pytest.raises(ConfigError, match=r"^field 'u0': "):
        run_ma_tr(get_problem("P1"), u)


@pytest.mark.parametrize("u", [[10**400, 0], [0, -(10**400)]])
def test_an_integer_too_large_for_a_float_is_non_finite(u):
    with pytest.raises(ValueError, match="non-finite components"):
        as_input_vector(u, 2)
    with pytest.raises(ConfigError, match=r"^field 'u0': "):
        run_ma_tr(get_problem("P1"), u)


@pytest.mark.parametrize("u", [*NOT_REAL, [[1.0], [2.0]]],
                         ids=["strings", "bools", "complex", "bool-array", "column"])
def test_filter_takes_only_vectors(u):
    filt = ModifierFilter(1.0, 2)
    with pytest.raises(ValueError):
        filt.update(u, [0.0, 0.0])
    with pytest.raises(ValueError):
        filt.update([0.0, 0.0], u)
    assert filt.previous.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_signals_oracle_failure(bad):
    oracle = ScalarOracle(lambda u: 0.0, lambda u: np.array([0.0, bad]), 2)
    with pytest.raises(OracleError, match="gradient is non-finite"):
        oracle.gradient([0.0, 0.0])


def corrected(shifted, dim=2):
    base = ScalarOracle(lambda u: float(np.dot(u, u)), lambda u: 2.0 * u, dim)
    return CorrectedModel(
        base,
        [1.5, -0.25][:dim],
        anchor=[0.5, -2.0][:dim],
        plant_value_at_anchor=3.0 if shifted else None,
    )


METHODS = ("value", "value_change", "gradient")


@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize(
    "u, message",
    [
        ([1.0, 2.0, 3.0], "dimension mismatch"),
        ([1.0], "dimension mismatch"),
        ([np.nan, 0.0], "non-finite"),
        ([0.0, -np.inf], "non-finite"),
        ([[0.0, 1.0]], "1-D"),
    ],
)
def test_corrected_model_rejects_bad_input(shifted, method, u, message):
    cm = corrected(shifted)
    counts = (cm.base_model.value_calls, cm.base_model.gradient_calls)
    with pytest.raises(ValueError, match=message):
        getattr(cm, method)(u)
    assert (cm.base_model.value_calls, cm.base_model.gradient_calls) == counts


finite = st.floats(min_value=-100.0, max_value=100.0)
pairs = st.tuples(finite, finite)


@settings(max_examples=100)
@given(
    u=st.one_of(
        pairs,
        pairs.map(list),
        pairs.map(lambda p: np.array(p, dtype=np.float32)),
        st.tuples(st.integers(-100, 100), st.integers(-100, 100)).map(np.array),
    ),
    shifted=st.booleans(),
)
def test_corrected_model_equals_prevalidated_input(u, shifted):
    cm = corrected(shifted)
    v = reference_as_input_vector(u, 2)
    assert cm.value(u) == cm.value(v)
    assert cm.value_change(u) == cm.value_change(v)
    assert cm.gradient(u).tobytes() == cm.gradient(v).tobytes()


@pytest.mark.parametrize("u", [0.75, np.float64(0.75), np.array(0.75), [0.75]])
def test_corrected_model_promotes_scalar_input_in_one_dimension(u):
    cm = corrected(shifted=False, dim=1)
    v = np.array([0.75])
    assert cm.value(u) == cm.value(v)
    assert cm.value_change(u) == cm.value_change(v)
    assert cm.gradient(u).tobytes() == cm.gradient(v).tobytes()
