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

import numpy as np

from .errors import require
from .problems import ScalarOracle, as_input_vector

__all__ = [
    "check_alpha",
    "ModifierFilter",
    "CorrectedModel",
]


def check_alpha(alpha: float) -> None:
    """The correction filter gain must lie in (0, 1]."""
    require(0.0 < alpha <= 1.0, "alpha", f"must be in (0, 1], got {alpha}")


class ModifierFilter:
    """Stateful smoothing of the correction coefficients across iterations.

    With gain 1 the update reduces to the raw gradient gap.  With gain
    below 1 the coefficients approach a constant raw gap geometrically
    with ratio (1 - gain), and the corrected gradient no longer matches
    the plant gradient exactly at the reference.
    """

    def __init__(self, alpha: float, dimension: int):
        check_alpha(alpha)
        self.alpha = float(alpha)
        self.previous = np.zeros(dimension)

    def update(self, plant_grad, model_grad) -> np.ndarray:
        """The next coefficients, ``alpha * (plant_grad - model_grad) +
        (1 - alpha) * previous``, at gain 1 too: a shortcut to the raw gap
        there could flip the sign of a zero."""
        pg = np.asarray(plant_grad, dtype=float).reshape(-1)
        mg = np.asarray(model_grad, dtype=float).reshape(-1)
        if pg.size != mg.size:
            raise ValueError(f"gradient length mismatch: plant {pg.size} vs model {mg.size}")
        if not all(map(math.isfinite, pg.tolist() + mg.tolist())):
            raise ValueError("gradients must be finite")
        raw = pg - mg
        if raw.size != self.previous.size:
            n, m = raw.size, self.previous.size
            raise ValueError(f"gradients and previous must have equal length, got {n} and {m}")
        self.previous = self.alpha * raw + (1.0 - self.alpha) * self.previous
        return self.previous.copy()


class CorrectedModel:
    """A model oracle plus linear correction, anchored at a reference point.

    Parameters
    ----------
    base_model : ScalarOracle
        The nominal model.
    modifiers : array
        Linear correction coefficients.
    anchor : array
        Reference point the correction was computed at.
    plant_value_at_anchor : float, optional
        Measured plant value at the anchor.  When given, a constant is
        added so that ``value(anchor)`` equals it exactly.
    base_value, base_gradient : float and array, optional
        The base model's value and gradient at the anchor, if the caller
        has them; a given one is not measured again.  The base value at the
        last point ``value_change`` measured is kept for the caller, whose
        next model may be anchored there (``measured_base_value``).
    """

    def __init__(
        self,
        base_model: ScalarOracle,
        modifiers,
        anchor,
        plant_value_at_anchor: float | None = None,
        base_value: float | None = None,
        base_gradient=None,
    ):
        self.base_model = base_model
        self.anchor = as_input_vector(anchor, base_model.dimension)
        self.modifiers = as_input_vector(modifiers, base_model.dimension)
        if base_value is None:
            base_value = base_model.value(self.anchor)
        self._model_at_anchor = float(base_value)
        if base_gradient is not None:
            base_gradient = as_input_vector(base_gradient, self.dimension)
        self._base_gradient, self._anchor_terms = base_gradient, None
        self._plant_value = None if plant_value_at_anchor is None else float(plant_value_at_anchor)
        self._last_measured = (b"", None)  # (point bytes, base value) of the last value_change

    @property
    def dimension(self) -> int:
        return self.base_model.dimension

    @property
    def hessian(self) -> np.ndarray | None:
        """The base model's constant Hessian, if it declares one: the linear
        correction leaves the Hessian unchanged."""
        return self.base_model.hessian

    # u goes to the base oracle unconverted: its input check is the only
    # validation, and it raises before any arithmetic below.

    def value(self, u) -> float:
        """Corrected value at u: model(u) + modifiers . u, or with the shift
        the measured plant value at the anchor plus the change from it.  The
        value at the anchor is computed here, on demand: no value change
        reads it, and far from the origin its modifiers . anchor may overflow."""
        at_anchor = self._plant_value
        if at_anchor is None:
            with np.errstate(over="ignore", invalid="ignore"):
                at_anchor = self._model_at_anchor + float(self.modifiers @ self.anchor)
        return at_anchor + self.value_change(u)

    def gradient(self, u) -> np.ndarray:
        """Corrected gradient at u; identical with or without the shift."""
        return self.base_model.gradient(u) + self.modifiers

    def anchor_terms(self) -> tuple:
        """``(g, g.g, g.Hg, w, q, q^T g)`` for the corrected gradient g at
        the anchor and the Hessian ``H = q diag(w) q^T``, ``w`` ascending
        (the last four None without one): the solvers' one source of
        curvature, computed on the first call.  A g.g that overflows is inf."""
        if self._anchor_terms is None:
            base = self._base_gradient
            g = (self.base_model.gradient(self.anchor) if base is None else base) + self.modifiers
            with np.errstate(over="ignore", invalid="ignore"):
                terms = (g, float(g.dot(g)), None, None, None, None)
                if self.hessian is not None:
                    w, q = self.base_model.hessian_eigh()
                    terms = (g, terms[1], float(g @ (self.hessian @ g)), w, q, q.T @ g)
            self._anchor_terms = terms
        return self._anchor_terms

    def value_change(self, u) -> float:
        """value(u) - value(anchor), computed in the shift-free difference
        form so it is bit-identical with or without the shift."""
        base = self.base_model.value(u)
        u = np.asarray(u, dtype=float).reshape(-1)
        self._last_measured = (u.tobytes(), base)
        return base - self._model_at_anchor + float(self.modifiers @ (u - self.anchor))

    def measured_base_value(self, u) -> float | None:
        """The base model's value at the array u if u, to the bit, is the
        last point ``value_change`` measured, else None."""
        point, value = self._last_measured
        return value if point == u.tobytes() else None
