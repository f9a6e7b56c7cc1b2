"""First-order correction of a mismatched model.

The correction adds a linear term whose coefficients are the gap between
the measured plant gradient and the model gradient at a reference point,
so the corrected surrogate reproduces the plant's first derivatives there.
Given the measured plant value at the reference, a constant shift
additionally pins the surrogate's *value* there; the shift cancels from
every value difference, so candidate selection and acceptance ratios are
unaffected by it.
"""

from __future__ import annotations

import math
import operator
from contextlib import nullcontext

import numpy as np

from .errors import OracleError, as_float, require
from .problems import _FLOAT64, ScalarOracle, as_input_vector, check_dimension

__all__ = [
    "check_alpha",
    "ModifierFilter",
    "CorrectedModel",
]

_UNCHANGED = nullcontext()  # holds no state, so every in-run model shares it


def check_alpha(alpha: float) -> float:
    """The correction filter gain, a number in (0, 1], as a float."""
    alpha = as_float("alpha", alpha)
    require(0.0 < alpha <= 1.0, "alpha", "must be in (0, 1], got {}", alpha)
    return alpha


def _floats(v) -> list:
    """The entries of a vector as Python floats; any but a float vector is
    checked as an input vector."""
    if type(v) is np.ndarray and v.dtype is _FLOAT64 and v.ndim == 1:
        return v.tolist()
    return as_input_vector(v).tolist()


class ModifierFilter:
    """Stateful smoothing of the correction coefficients across iterations.

    With gain 1 the update reduces to the raw gradient gap.  With gain
    below 1 the coefficients approach a constant raw gap geometrically
    with ratio (1 - gain), and the corrected gradient no longer matches
    the plant gradient exactly at the reference.  ``previous``, read-only,
    holds ``dimension`` coefficients: an integer >= 1.
    """

    def __init__(self, alpha: float, dimension: int):
        self.alpha = check_alpha(alpha)
        self.previous = np.zeros(check_dimension(dimension))
        self.previous.setflags(write=False)

    def update(self, plant_grad, model_grad) -> np.ndarray:
        """The next coefficients, ``alpha * (plant_grad - model_grad) +
        (1 - alpha) * previous``; at gain 1 with no zero in the gap, the gap
        itself: ``1.0 * x + (+-0.0)`` is x but for x = 0.  Python floats give
        NumPy's bits and overflow quietly: only a non-finite result has its
        inputs checked as input vectors; a gap that overflows raises OracleError."""
        pg, mg = _floats(plant_grad), _floats(model_grad)
        if len(pg) != len(mg):
            raise ValueError(f"gradient length mismatch: plant {len(pg)} vs model {len(mg)}")
        if len(pg) != self.previous.size:
            n, m = len(pg), self.previous.size
            raise ValueError(f"gradients and previous must have equal length, got {n} and {m}")
        lam = list(map(operator.sub, pg, mg))
        if self.alpha < 1.0 or not all(lam):
            a, b = self.alpha, 1.0 - self.alpha
            lam = [a * d + b * q for d, q in zip(lam, self.previous.tolist())]
        if not all(map(math.isfinite, lam)):
            for v in (plant_grad, model_grad):  # a non-finite gradient raises ValueError
                as_input_vector(v)
            raise OracleError("the gap between plant and model gradients overflows")
        self.previous = np.array(lam)
        self.previous.setflags(write=False)
        return self.previous


def _pole_terms(w, gt) -> tuple:
    """The exact step's radius-free terms for an indefinite or singular
    Hessian, ``w[0] <= 0``: the shifted eigenvalues ``w + max(0, -w[0])``,
    the pole mask where they are 0 and ``|gt[pole]|``, the arrays read-only."""
    shifted = w + max(0.0, -w[0])
    pole = shifted == 0.0
    shifted.setflags(write=False)
    pole.setflags(write=False)
    return shifted, pole, math.sqrt(float(gt[pole].dot(gt[pole])))


class CorrectedModel:
    """A model oracle plus linear correction, anchored at a reference point.

    Parameters
    ----------
    base_model : ScalarOracle
        The nominal model.
    modifiers : array
        Linear correction coefficients, kept as a read-only checked copy.
    anchor : array
        Reference point the correction was computed at, kept likewise.
    plant_value_at_anchor : float, optional
        Measured plant value at the anchor.  When given, it must be finite,
        and a constant is added so that ``value(anchor)`` equals it exactly.

    Building a model calls no oracle.  The base model's value at the anchor
    is measured when first needed, and its value and the change at the last
    point ``value_change`` measured are kept: ``value_change`` answers that
    point from them, and the next model may be anchored there
    (``measured_base_value``).

    A run passes the private ``_run=(base_value, base_gradient)``, the
    base model's value (None: measured when first needed) and gradient at
    the anchor.  Its anchor, modifiers and gradient, read-only vectors the
    oracles and the filter checked, are then kept as given, and the anchor
    terms are computed at once under the run's errstate, which
    ``errstate()`` then leaves as is.  The base oracle takes the anchor as
    it is: the model or its run checked it.
    """

    def __init__(
        self,
        base_model: ScalarOracle,
        modifiers,
        anchor,
        plant_value_at_anchor: float | None = None,
        *,
        _run: tuple | None = None,
    ):
        self.base_model = base_model
        self._in_run = _run is not None
        base_value, base_gradient = _run or (None, None)
        if not self._in_run:
            anchor, modifiers = (as_input_vector(v, self.dimension) for v in (anchor, modifiers))
        self.anchor, self.modifiers = anchor, modifiers
        plant = None if plant_value_at_anchor is None else float(plant_value_at_anchor)
        if plant is not None and not math.isfinite(plant):
            raise ValueError(f"plant_value_at_anchor must be finite, got {plant}")
        self._model_at_anchor = base_value
        self._plant_value = plant
        # (point bytes, base value, change) of the last point measured
        self._measured = (b"none", None, None)  # 4 bytes: no float vector's, nor None
        self._anchor_terms = self._terms(base_gradient) if self._in_run else None
        self._newton_start = None

    @property
    def dimension(self) -> int:
        return self.base_model.dimension

    # u goes to the base oracle unconverted: its input check is the only
    # validation, and it raises before any arithmetic below.

    def value(self, u) -> float:
        """Corrected value at u: model(u) + modifiers . u, or with the shift
        the measured plant value at the anchor plus the change from it, which
        is measured first, so a bad u raises before any oracle call.  No value
        change reads modifiers . anchor, which far from the origin may overflow."""
        change = self.value_change(u)
        if self._plant_value is not None:
            return self._plant_value + change
        with np.errstate(over="ignore", invalid="ignore"):
            return self._base_at_anchor() + float(self.modifiers @ self.anchor) + change

    def gradient(self, u) -> np.ndarray:
        """Corrected gradient at u; identical with or without the shift."""
        return self.base_model.gradient(u) + self.modifiers

    def anchor_terms(self) -> tuple:
        """``(g, g.g, w, q, q^T g)`` for the corrected gradient g at the
        anchor and the Hessian ``H = q diag(w) q^T``, ``w`` ascending (the
        last three None without one): the radius-free terms of the exact,
        Cauchy and whole-box steps, and the solvers' only view of the
        curvature, computed once.  A g.g that overflows is inf."""
        if self._anchor_terms is None:
            with np.errstate(over="ignore", invalid="ignore"):
                self._anchor_terms = self._terms()
        return self._anchor_terms

    def newton_start(self) -> tuple:
        """The exact step's radius-free first pass, for ``w`` and ``q^T g`` of
        ``anchor_terms``, computed once: for a positive-definite Hessian the
        first Newton pass ``(c, c.c, c.(c/w))``, ``c = q^T g / w``; otherwise
        ``_pole_terms(w, q^T g)``."""
        if self._newton_start is None:
            _, _, w, _, gt = self.anchor_terms()
            with self.errstate():
                if w[0] > 0.0:
                    c = gt / w
                    self._newton_start = c, float(c.dot(c)), float(c.dot(c / w))
                else:
                    self._newton_start = _pole_terms(w, gt)
        return self._newton_start

    def _terms(self, base=None) -> tuple:
        base = self.base_model.gradient(self.anchor, _checked=True) if base is None else base
        g = base + self.modifiers
        gg = float(g.dot(g))
        if self.base_model.hessian is None:
            return g, gg, None, None, None
        w, q = self.base_model.hessian_eigh()
        return g, gg, w, q, g @ q

    def errstate(self):
        """The context the solvers run this model's NumPy arithmetic in:
        overflow and invalid results are quiet.  A run's model holds the
        run's own such errstate, so it gets a context that changes nothing."""
        return _UNCHANGED if self._in_run else np.errstate(over="ignore", invalid="ignore")

    def value_change(self, u, *, _checked: bool = False) -> float:
        """value(u) - value(anchor), computed in the shift-free difference
        form so it is bit-identical with or without the shift.  A float
        vector with the bytes of the last point measured gets the change
        computed there; any other input goes to the oracle, which checks it
        unless the solver that checked it passes the private ``_checked=True``
        and with it a read-only 1-D float vector, whose type is not tested."""
        vector = _checked or type(u) is np.ndarray and u.ndim == 1 and u.dtype is _FLOAT64
        key = u.tobytes() if vector else None
        point, _, change = self._measured
        if point == key:
            return change
        base = self.base_model.value(u, _checked=_checked)
        if not vector:
            u = np.asarray(u, dtype=float)
            key = u.tobytes()
        # + 0.0: at n = 1 dot returns -0.0 where @ returns +0.0
        change = base - self._base_at_anchor() + (float(self.modifiers.dot(u - self.anchor)) + 0.0)
        self._measured = (key, base, change)
        return change

    def _base_at_anchor(self) -> float:
        """The base model's value at the anchor, measured here, once, unless
        a run handed it over."""
        if self._model_at_anchor is None:
            self._model_at_anchor = self.base_model.value(self.anchor, _checked=True)
        return self._model_at_anchor

    def measured_base_value(self, u) -> float | None:
        """The base model's value at the array u if u, to the bit, is the
        last point ``value_change`` measured, else None."""
        point, base, _ = self._measured
        return base if point == u.tobytes() else None
