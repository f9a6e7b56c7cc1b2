"""Trust-region bookkeeping: acceptance ratio, candidate acceptance, and
radius update."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import require
from .problems import as_input_vector

__all__ = [
    "TrustRegionConstants",
    "TrustRegionState",
    "compute_rho",
    "accept_candidate",
    "update_radius",
    "DEGENERACY_EPS_FACTOR",
]

# A predicted model decrease at or below this many machine epsilons times
# |f_ref|, the plant value at the reference, is degenerate: the achieved
# decrease cannot resolve it, so the acceptance ratio is undefined and the
# iteration fails.  Relative to |f_ref| it stays usable as f_ref -> 0.
DEGENERACY_EPS_FACTOR = 4.0


@dataclass(frozen=True)
class TrustRegionConstants:
    """Acceptance thresholds and radius-update factors.

    Requires 0 < eta1 <= eta2 < 1, 0 < shrink_factor < 1 and
    expansion_factor > 1.  An unsuccessful step may take any radius in
    [gamma1, gamma2] times the old one (Conn, Gould & Toint, Alg. 6.1.1);
    this loop always takes the one factor ``shrink_factor``.
    """

    eta1: float = 0.1
    eta2: float = 0.9
    expansion_factor: float = 2.0
    shrink_factor: float = 0.5
    radius_max: float = math.inf

    def __post_init__(self):
        require(
            0.0 < self.eta1 <= self.eta2 < 1.0,
            "eta1",
            f"require 0 < eta1 <= eta2 < 1, got eta1={self.eta1}, eta2={self.eta2}",
        )
        require(
            0.0 < self.shrink_factor < 1.0,
            "shrink_factor",
            f"must lie in (0, 1), got {self.shrink_factor}",
        )
        require(
            1.0 < self.expansion_factor < math.inf,
            "expansion_factor",
            f"must be finite and > 1, got {self.expansion_factor}",
        )
        require(self.radius_max > 0.0, "radius_max", f"must be > 0, got {self.radius_max}")


@dataclass
class TrustRegionState:
    """Reference iterate, its measured plant value, and the current radius."""

    reference: np.ndarray
    radius: float
    reference_plant_value: float

    def __post_init__(self):
        self.reference = as_input_vector(self.reference)
        if self.radius <= 0:
            raise ValueError("radius must be > 0")


def compute_rho(plant_ref: float, plant_cand: float, predicted_change: float) -> float | None:
    """Achieved plant decrease over the predicted model decrease
    ``-predicted_change``, the model's change from the reference at the
    candidate.

    Returns None (degenerate) when the predicted decrease does not exceed
    ``DEGENERACY_EPS_FACTOR`` machine epsilons times ``|plant_ref|``;
    callers treat that as a failed iteration.
    """
    for name, v in (
        ("plant_ref", plant_ref),
        ("plant_cand", plant_cand),
        ("predicted_change", predicted_change),
    ):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    predicted = -predicted_change
    if predicted <= DEGENERACY_EPS_FACTOR * sys.float_info.epsilon * abs(plant_ref):
        return None
    return (plant_ref - plant_cand) / predicted


def accept_candidate(
    state: TrustRegionState,
    candidate,
    candidate_plant_value: float,
    rho: float | None,
    constants: TrustRegionConstants,
) -> bool:
    """Move the reference to the candidate iff rho >= eta1.

    A degenerate (None) rho never moves the reference.  Returns whether the
    reference moved; on a move the stored plant value is updated to the
    candidate's measured value.
    """
    if rho is not None and rho >= constants.eta1:
        state.reference = as_input_vector(candidate, state.reference.size)
        state.reference_plant_value = float(candidate_plant_value)
        return True
    return False


def update_radius(
    radius: float, rho: float | None, constants: TrustRegionConstants
) -> float:
    """Next radius: expand on very successful steps, keep on successful
    ones, shrink otherwise (including degenerate rho).
    """
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if rho is not None and rho >= constants.eta2:
        return min(constants.expansion_factor * radius, constants.radius_max)
    if rho is not None and rho >= constants.eta1:
        return radius
    return constants.shrink_factor * radius
