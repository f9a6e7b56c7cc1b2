"""Simulated plant/model pairs with known mismatch character.

A *plant* is the ground-truth objective that an iterative run probes one
point at a time; a *model* is the closed-form surrogate the optimizer is
allowed to evaluate freely.  Each catalog entry bundles the two, together
with the analytically known plant optimum where one exists.  Plant
evaluations can optionally be perturbed by seeded additive Gaussian noise;
models are always exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OracleError, require

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


def as_input_vector(u, dimension: int | None = None) -> np.ndarray:
    """Validate and copy a decision-variable vector.

    Raises ValueError on wrong shape, wrong length, or non-finite entries.
    """
    arr = np.array(u, dtype=float, copy=True)
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
        self._eigh = None
        self.value_calls = 0
        self.gradient_calls = 0

    @property
    def hessian(self) -> np.ndarray | None:
        """The constant Hessian (read-only), or None if none was declared."""
        return self._hessian

    def hessian_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues ``w`` and orthonormal eigenvectors
        (columns) ``q`` of the declared Hessian, computed on the first
        call and kept read-only."""
        if self._eigh is None:
            self._eigh = np.linalg.eigh(self._hessian)
            for a in self._eigh:
                a.setflags(write=False)
        return self._eigh

    def value(self, u) -> float:
        u = as_input_vector(u, self.dimension)
        self.value_calls += 1
        try:
            out = float(self._value_fn(u))
        except ArithmeticError as exc:
            raise OracleError(f"oracle value failed at u={u!r}: {exc!r}") from exc
        if not math.isfinite(out):
            raise OracleError(f"oracle value is non-finite at u={u!r}")
        return out

    def gradient(self, u) -> np.ndarray:
        u = as_input_vector(u, self.dimension)
        self.gradient_calls += 1
        try:
            out = np.asarray(self._grad_fn(u), dtype=float).reshape(-1)
        except ArithmeticError as exc:
            raise OracleError(f"oracle gradient failed at u={u!r}: {exc!r}") from exc
        if out.size != self.dimension:
            raise OracleError(
                f"gradient length {out.size} does not match dimension {self.dimension}"
            )
        if not all(map(math.isfinite, out.tolist())):
            raise OracleError(f"oracle gradient is non-finite at u={u!r}")
        return out


class ProblemPair:
    """A plant oracle bundled with its (deliberately mismatched) model.

    Plant values and gradients are perturbed by additive Gaussian noise of
    standard deviation ``noise_level`` drawn from a generator seeded at
    construction, so noisy runs are reproducible.  With ``noise_level`` 0
    repeated evaluation at the same point is bit-identical.  The model is
    never noisy.  A noisy measurement that overflows raises
    :class:`OracleError`, though the noise level is finite.

    Noiseless pairs are stateless apart from the call counters and may be
    shared across concurrent read-only runs when per-run counts are not
    needed; a noisy pair carries generator state and belongs to one run.
    """

    def __init__(
        self,
        identifier: str,
        plant: ScalarOracle,
        model: ScalarOracle,
        known_optimum=None,
        noise_level: float = 0.0,
        seed: int = 0,
    ):
        if plant.dimension != model.dimension:
            raise ValueError("plant and model dimensions differ")
        require(
            0.0 <= noise_level < math.inf,
            "noise_level",
            f"must be finite and >= 0, got {noise_level}",
        )
        require(seed >= 0, "seed", f"must be >= 0, got {seed}")
        self.identifier = identifier
        self.dimension = plant.dimension
        self.plant = plant
        self.model = model
        self.known_optimum = (
            None if known_optimum is None else as_input_vector(known_optimum, self.dimension)
        )
        self.noise_level = float(noise_level)
        self.seed = int(seed)
        # a noise-free pair never draws, so it builds no generator
        self._rng = np.random.default_rng(self.seed) if self.noise_level > 0.0 else None

    def evaluate_plant(self, u) -> float:
        val = self.plant.value(u)
        if self.noise_level > 0.0:
            val += self.noise_level * self._rng.standard_normal()
            if not math.isfinite(val):
                raise OracleError(f"noisy plant value is non-finite at u={u!r}")
        return val

    def plant_gradient(self, u) -> np.ndarray:
        grad = self.plant.gradient(u)
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


def finite_difference_gradient(oracle: ScalarOracle, u, step: float) -> np.ndarray:
    """Central-difference gradient estimate, component i equal to
    ``[f(u + step*e_i) - f(u - step*e_i)] / (2*step)``.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    u = as_input_vector(u, oracle.dimension)
    out = np.empty(oracle.dimension)
    for i in range(oracle.dimension):
        e = np.zeros(oracle.dimension)
        e[i] = step
        out[i] = (oracle.value(u + e) - oracle.value(u - e)) / (2.0 * step)
    return out


def finite_difference_hessian(oracle: ScalarOracle, u, step: float = 1e-4) -> np.ndarray:
    """Central second-difference Hessian estimate (symmetrized)."""
    if step <= 0:
        raise ValueError("step must be > 0")
    u = as_input_vector(u, oracle.dimension)
    n = oracle.dimension
    h = np.empty((n, n))
    f0 = oracle.value(u)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = step
        h[i, i] = (oracle.value(u + ei) - 2.0 * f0 + oracle.value(u - ei)) / step**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = step
            cross = (
                oracle.value(u + ei + ej)
                - oracle.value(u + ei - ej)
                - oracle.value(u - ei + ej)
                + oracle.value(u - ei - ej)
            ) / (4.0 * step**2)
            h[i, j] = cross
            h[j, i] = cross
    return h


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
    difference quotients of noisy values would say nothing about the
    underlying functions.
    """
    lower = as_input_vector(box[0], problem.dimension)
    upper = as_input_vector(box[1], problem.dimension)
    if np.any(lower >= upper):
        raise ValueError("degenerate box: require lower < upper componentwise")
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
    return 2.0 * u


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
    # identifier: (label, dim, plant fns, model fns, model Hessian, known optimum)
    "P1": (
        "biased-quadratic",
        2,
        (_p1_plant, _p1_plant_grad),
        (_sphere, _sphere_grad),
        _SPHERE_HESSIAN,
        (1.0, 1.0),
    ),
    "P2": (
        "wrong-curvature",
        1,
        (_p2_plant, _sphere_grad),
        (_p2_model, _p2_model_grad),
        ((-2.0,),),
        (0.0,),
    ),
    "P3": (
        "rosenbrock-plant",
        2,
        (_rosenbrock, _rosenbrock_grad),
        (_sphere, _sphere_grad),
        _SPHERE_HESSIAN,
        (1.0, 1.0),
    ),
    "P4": (
        "himmelblau-plant",
        2,
        (_himmelblau, _himmelblau_grad),
        (_sphere, _sphere_grad),
        _SPHERE_HESSIAN,
        (3.0, 2.0),
    ),
}

_BY_LABEL = {entry[0]: key for key, entry in _CATALOG.items()}

PROBLEM_IDS = tuple(_CATALOG)


def list_problems() -> list[tuple[str, str, int]]:
    """(identifier, label, dimension) for every catalog entry."""
    return [(key, entry[0], entry[1]) for key, entry in _CATALOG.items()]


def get_problem(identifier: str, noise_level: float = 0.0, seed: int = 0) -> ProblemPair:
    """Build a fresh catalog problem (fresh oracles, zeroed counters).

    ``identifier`` may be the short id ("P1") or the descriptive label
    ("biased-quadratic").
    """
    key = identifier if identifier in _CATALOG else _BY_LABEL.get(identifier)
    if key is None:
        known = ", ".join(_CATALOG)
        raise KeyError(f"unknown problem {identifier!r}; catalog has: {known}")
    _, dim, plant_fns, model_fns, model_hessian, optimum = _CATALOG[key]
    return ProblemPair(
        identifier=key,
        plant=ScalarOracle(plant_fns[0], plant_fns[1], dim),
        model=ScalarOracle(model_fns[0], model_fns[1], dim, hessian=model_hessian),
        known_optimum=optimum,
        noise_level=noise_level,
        seed=seed,
    )
