"""Simulated plant/model pairs with known mismatch character.

A *plant* is the ground-truth objective that an iterative run probes one
point at a time; a *model* is the closed-form surrogate the optimizer is
allowed to evaluate freely.  Each catalog entry bundles the two.  Plant
evaluations can optionally be perturbed by seeded additive Gaussian noise;
models are always exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OracleError, _is_number, as_float, as_int, require

__all__ = [
    "ScalarOracle",
    "ProblemPair",
    "AssumptionReport",
    "finite_difference_gradient",
    "finite_difference_hessian",
    "probe_assumptions",
    "get_problem",
    "list_problems",
    "PROBLEM_IDS",
]


_FLOAT64 = np.dtype(float)


def _real_entries(u) -> bool:
    """Whether ``u`` is a real number that is not a bool, or an array, list
    or tuple of such entries: the numbers ``errors.as_vector`` accepts."""
    u = u.tolist() if hasattr(u, "tolist") else u  # a NumPy array or scalar as Python values
    return all(map(_real_entries, u)) if isinstance(u, (list, tuple)) else _is_number(u)


def as_input_vector(u, dimension: int | None = None) -> np.ndarray:
    """Validate a decision-variable vector and return a read-only copy,
    which shares no memory with ``u``: writing into it raises ValueError.

    Raises ValueError on entries that are not real numbers (bools and
    strings included), wrong shape, wrong length, or non-finite entries.
    """
    if type(u) is np.ndarray and u.dtype is _FLOAT64 and u.ndim == 1:
        arr = u.copy()  # the general conversion's bytes, without its dispatch
    else:
        if not _real_entries(u):
            raise ValueError(f"input entries must be real numbers, not bools or strings: {u!r}")
        try:
            arr = np.array(u, dtype=float, copy=True)
        except OverflowError:  # an integer too large for a float
            raise ValueError("input vector contains non-finite components") from None
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1:
            raise ValueError(f"input must be a 1-D vector, got shape {arr.shape}")
    if dimension is not None and arr.size != dimension:
        raise ValueError(
            f"dimension mismatch: expected length {dimension}, got {arr.size}"
        )
    if not all(map(math.isfinite, arr.tolist())):
        raise ValueError("input vector contains non-finite components")
    arr.setflags(write=False)
    return arr


def _as_hessian(hessian, dimension: int) -> np.ndarray:
    """Validate and copy a constant Hessian; the copy is read-only."""
    try:
        h = np.array(hessian, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"hessian must be a numeric matrix: {exc}") from None
    if h.shape != (dimension, dimension):
        raise ValueError(
            f"hessian must have shape ({dimension}, {dimension}), got {h.shape}"
        )
    if not all(map(math.isfinite, h.ravel().tolist())):
        raise ValueError("hessian contains non-finite entries")
    if not np.array_equal(h, h.T):
        raise ValueError("hessian must be symmetric")
    h.setflags(write=False)
    return h


class ScalarOracle:
    """A scalar function with its gradient, instrumented with call counters.

    Parameters
    ----------
    value_fn : callable
        Maps a length-``dimension`` vector to a float.
    grad_fn : callable
        Maps a length-``dimension`` vector to a length-``dimension`` array.
    dimension : int
        Expected input length.
    hessian : array, optional
        The function's constant Hessian, for a quadratic.  It must be a
        finite symmetric ``dimension`` x ``dimension`` matrix; the
        ball-constrained subproblem is then solved exactly.

    Every ``value``/``gradient`` call increments the corresponding counter
    by exactly one.  Non-finite results and an ``ArithmeticError`` raised
    by a wrapped function (an overflow) raise :class:`OracleError`.

    Each call checks its input with ``as_input_vector`` and hands the
    wrapped function that read-only copy.  A run, model or solver that
    checked the vector itself passes the private ``_checked=True``, and the
    function gets that vector.  Either way the argument is read-only: a wrapped
    function that writes into it raises ``ValueError``.
    """

    def __init__(
        self, value_fn: Callable, grad_fn: Callable, dimension: int, hessian=None
    ):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self.dimension = int(dimension)
        self._hessian = None if hessian is None else _as_hessian(hessian, self.dimension)
        self._eigh = None if hessian is None else np.linalg.eigh(self._hessian)
        for a in self._eigh or ():
            a.setflags(write=False)
        self.value_calls = 0
        self.gradient_calls = 0

    @property
    def hessian(self) -> np.ndarray | None:
        """The constant Hessian (read-only), or None if none was declared."""
        return self._hessian

    def hessian_eigh(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Ascending eigenvalues ``w`` and orthonormal eigenvectors
        (columns) ``q`` of the declared Hessian, both read-only, or None if
        none was declared.  The oracle computes them when it is built."""
        return self._eigh

    def value(self, u, *, _checked: bool = False) -> float:
        u = u if _checked else as_input_vector(u, self.dimension)
        self.value_calls += 1
        try:
            out = float(self._value_fn(u))
        except ArithmeticError as exc:
            raise OracleError(f"oracle value failed at u={u!r}: {exc!r}") from exc
        if not math.isfinite(out):
            raise OracleError(f"oracle value is non-finite at u={u!r}")
        return out

    def gradient(self, u, *, _checked: bool = False) -> np.ndarray:
        u = u if _checked else as_input_vector(u, self.dimension)
        self.gradient_calls += 1
        try:
            out = self._grad_fn(u)
            if not (type(out) is np.ndarray and out.dtype is _FLOAT64 and out.ndim == 1):
                out = np.asarray(out, dtype=float).reshape(-1)
        except ArithmeticError as exc:
            raise OracleError(f"oracle gradient failed at u={u!r}: {exc!r}") from exc
        if out.size != self.dimension:
            raise OracleError(
                f"gradient length {out.size} does not match dimension {self.dimension}"
            )
        if not all(map(math.isfinite, out.tolist())):
            raise OracleError(f"oracle gradient is non-finite at u={u!r}")
        return out


def check_noise(noise_level, seed) -> tuple[float, int]:
    """``noise_level`` (finite, >= 0) and ``seed`` (an integer >= 0) as a
    float and an int; a violation raises a ConfigError naming the field."""
    noise = as_float("noise_level", noise_level)
    require(noise >= 0.0, "noise_level", "must be finite and >= 0, got {}", noise)
    seed = as_int("seed", seed)
    require(seed >= 0, "seed", "must be >= 0, got {}", seed)
    return noise, seed


class ProblemPair:
    """A plant oracle bundled with its (deliberately mismatched) model.

    Plant values and gradients are perturbed by additive Gaussian noise of
    standard deviation ``noise_level`` drawn from a generator seeded with
    ``seed``, so noisy runs are reproducible.  A noisy pair builds its
    generator when it is built; a pair with ``noise_level`` 0 builds none,
    and repeated evaluation at the same point is bit-identical.  The model
    is never noisy.  A noisy measurement that overflows raises
    :class:`OracleError`, though the noise level is finite.

    Noiseless pairs are stateless apart from the call counters and may be
    shared across concurrent read-only runs when per-run counts are not
    needed; a noisy pair carries generator state and belongs to one run.

    Each method passes its input to the oracle's check.  A run's plant
    probes pass the private ``_checked=True`` with a vector it has already
    checked (see :class:`ScalarOracle`), which goes to the oracle unchecked.
    """

    def __init__(
        self,
        identifier: str,
        plant: ScalarOracle,
        model: ScalarOracle,
        noise_level: float = 0.0,
        seed: int = 0,
    ):
        if plant.dimension != model.dimension:
            raise ValueError("plant and model dimensions differ")
        self.noise_level, self.seed = check_noise(noise_level, seed)
        self.identifier = identifier
        self.dimension = plant.dimension
        self.plant = plant
        self.model = model
        self._rng = np.random.default_rng(self.seed) if self.noise_level > 0.0 else None

    def evaluate_plant(self, u, *, _checked: bool = False) -> float:
        val = self.plant.value(u, _checked=_checked)
        if self.noise_level > 0.0:
            val += self.noise_level * self._rng.standard_normal()
            if not math.isfinite(val):
                raise OracleError(f"noisy plant value is non-finite at u={u!r}")
        return val

    def plant_gradient(self, u, *, _checked: bool = False) -> np.ndarray:
        grad = self.plant.gradient(u, _checked=_checked)
        if self.noise_level > 0.0:
            # Python floats: NumPy's element-wise bits, and an overflow is a quiet inf
            noise = self._rng.standard_normal(self.dimension).tolist()
            grad = np.array([g + self.noise_level * z for g, z in zip(grad.tolist(), noise)])
            if not all(map(math.isfinite, grad.tolist())):
                raise OracleError(f"noisy plant gradient is non-finite at u={u!r}")
        return grad

    def evaluate_model(self, u) -> float:
        return self.model.value(u)

    def model_gradient(self, u) -> np.ndarray:
        return self.model.gradient(u)

    def plant_evaluations(self) -> tuple[int, int]:
        """(value calls, gradient calls) made against the plant so far."""
        return self.plant.value_calls, self.plant.gradient_calls


def _central_difference(f, u, step: float, dimension: int) -> np.ndarray:
    """``[f(u + step e_i) - f(u - step e_i)] / (2 step)`` for each unit vector
    ``e_i``, stacked as rows; a step that is not positive and finite is
    rejected before ``f`` runs."""
    if not 0.0 < step < math.inf:  # NaN fails too
        raise ValueError(f"step must be > 0 and finite, got {step}")
    u = as_input_vector(u, dimension)
    return np.array([(f(u + e) - f(u - e)) / (2.0 * step) for e in np.eye(dimension) * step])


def finite_difference_gradient(oracle: ScalarOracle, u, step: float) -> np.ndarray:
    """Central-difference gradient estimate, component i equal to
    ``[f(u + step*e_i) - f(u - step*e_i)] / (2*step)``: the oracle's values
    differenced."""
    return _central_difference(oracle.value, u, step, oracle.dimension)


def finite_difference_hessian(oracle: ScalarOracle, u, step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian estimate, symmetrized: row i is
    ``[grad f(u + step*e_i) - grad f(u - step*e_i)] / (2*step)``, the
    oracle's gradient differenced (values are never differenced twice)."""
    h = _central_difference(oracle.gradient, u, step, oracle.dimension)
    return (h + h.T) / 2.0


@dataclass
class AssumptionReport:
    """Sampled evidence about smoothness and boundedness of a problem pair.

    Advisory only: finite sampling cannot prove a global curvature bound,
    and on problems whose Hessian grows without bound the estimate simply
    reflects the box that was probed.
    """

    plant_hessian_bound: float
    model_hessian_bound: float
    min_plant_value: float
    max_gradient_discrepancy: float
    sample_count: int


# probe_assumptions' difference steps
_HESSIAN_STEP = 1e-4
_GRADIENT_STEP = 1e-5


def probe_assumptions(
    problem: ProblemPair, box: tuple, sample_count: int, seed: int = 0
) -> AssumptionReport:
    """Sample a box and report curvature bounds, the minimum plant value,
    and the worst analytic-vs-finite-difference gradient discrepancy.

    Probes the raw oracles: measurement noise is never applied, since
    difference quotients of noisy measurements would say nothing about
    the underlying functions.
    """
    lower = as_input_vector(box[0], problem.dimension)
    upper = as_input_vector(box[1], problem.dimension)
    if np.any(lower >= upper):
        raise ValueError("degenerate box: require lower < upper componentwise")
    sample_count = as_int("sample_count", sample_count)  # a ConfigError is a ValueError
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")

    rng = np.random.default_rng(seed)
    plant_bound = 0.0
    model_bound = 0.0
    min_value = math.inf
    max_discrepancy = 0.0
    for _ in range(sample_count):
        u = lower + rng.random(problem.dimension) * (upper - lower)
        hp = finite_difference_hessian(problem.plant, u, _HESSIAN_STEP)
        hm = finite_difference_hessian(problem.model, u, _HESSIAN_STEP)
        plant_bound = max(plant_bound, float(np.max(np.abs(np.linalg.eigvalsh(hp)))))
        model_bound = max(model_bound, float(np.max(np.abs(np.linalg.eigvalsh(hm)))))
        min_value = min(min_value, problem.plant.value(u))
        fd = finite_difference_gradient(problem.plant, u, _GRADIENT_STEP)
        reference = problem.plant.gradient(u)
        max_discrepancy = max(max_discrepancy, float(np.max(np.abs(fd - reference))))
    return AssumptionReport(
        plant_hessian_bound=plant_bound,
        model_hessian_bound=model_bound,
        min_plant_value=min_value,
        max_gradient_discrepancy=max_discrepancy,
        sample_count=sample_count,
    )


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

# The closed forms compute on Python floats: far out their ``**`` raises
# OverflowError, an OracleError to ScalarOracle, where NumPy's would warn.

def _p1_plant(u):
    x, y = u.tolist()
    return (x - 1.0) ** 2 + (y - 1.0) ** 2


def _p1_plant_grad(u):
    return 2.0 * (u - 1.0)


def _sphere(u):
    # np.vdot runs np.dot's BLAS kernel, so the same bits, but does not check
    # the FP status: an overflow is a quiet inf, which ScalarOracle rejects
    return float(np.vdot(u, u))


def _sphere_grad(u):
    return u + u  # 2u to the bit, without converting a scalar


def _p2_plant(u):
    return u.tolist()[0] ** 2


def _p2_model(u):
    return -(u.tolist()[0] ** 2)


def _p2_model_grad(u):
    return -2.0 * u


def _rosenbrock(u):
    x, y = u.tolist()
    return 100.0 * (y - x ** 2) ** 2 + (1.0 - x) ** 2


def _rosenbrock_grad(u):
    x, y = u.tolist()
    return np.array([-400.0 * x * (y - x ** 2) - 2.0 * (1.0 - x), 200.0 * (y - x ** 2)])


def _himmelblau(u):
    x, y = u.tolist()
    return (x ** 2 + y - 11.0) ** 2 + (x + y ** 2 - 7.0) ** 2


def _himmelblau_grad(u):
    x, y = u.tolist()
    a, b = x ** 2 + y - 11.0, x + y ** 2 - 7.0
    return np.array([4.0 * x * a + 2.0 * b, 2.0 * a + 4.0 * y * b])


_SPHERE_HESSIAN = ((2.0, 0.0), (0.0, 2.0))

_CATALOG = {
    # identifier: (label, dim, plant fns, model fns, model Hessian)
    "P1": (
        "biased-quadratic",
        2,
        (_p1_plant, _p1_plant_grad),
        (_sphere, _sphere_grad),
        _SPHERE_HESSIAN,
    ),
    "P2": (
        "wrong-curvature",
        1,
        (_p2_plant, _sphere_grad),
        (_p2_model, _p2_model_grad),
        ((-2.0,),),
    ),
    "P3": (
        "rosenbrock-plant",
        2,
        (_rosenbrock, _rosenbrock_grad),
        (_sphere, _sphere_grad),
        _SPHERE_HESSIAN,
    ),
    "P4": (
        "himmelblau-plant",
        2,
        (_himmelblau, _himmelblau_grad),
        (_sphere, _sphere_grad),
        _SPHERE_HESSIAN,
    ),
}

_BY_LABEL = {entry[0]: key for key, entry in _CATALOG.items()}

PROBLEM_IDS = tuple(_CATALOG)


def list_problems() -> list[tuple[str, str, int]]:
    """(identifier, label, dimension) for every catalog entry."""
    return [(key, entry[0], entry[1]) for key, entry in _CATALOG.items()]


def lookup_problem(identifier: str) -> tuple[str, int]:
    """(short id, dimension) of the catalog problem named by its short id
    ("P1") or its label ("biased-quadratic"); other names raise KeyError."""
    key = identifier if identifier in _CATALOG else _BY_LABEL.get(identifier)
    if key is None:
        raise KeyError(f"unknown problem {identifier!r}; catalog has: {', '.join(_CATALOG)}")
    return key, _CATALOG[key][1]


def get_problem(identifier: str, noise_level: float = 0.0, seed: int = 0) -> ProblemPair:
    """Build a fresh catalog problem (fresh oracles, zeroed counters),
    ``identifier`` naming it as ``lookup_problem`` reads it."""
    key, dim = lookup_problem(identifier)
    plant_fns, model_fns, model_hessian = _CATALOG[key][2:]
    return ProblemPair(
        identifier=key,
        plant=ScalarOracle(plant_fns[0], plant_fns[1], dim),
        model=ScalarOracle(model_fns[0], model_fns[1], dim, hessian=model_hessian),
        noise_level=noise_level,
        seed=seed,
    )
