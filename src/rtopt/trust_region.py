"""Trust-region bookkeeping: acceptance ratio, candidate acceptance, and
radius update."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .problems import as_input_vector

if TYPE_CHECKING:  # drivers imports this module
    from .drivers import RunConfig

__all__ = [
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


@dataclass
class TrustRegionState:
    """Reference iterate, its measured plant value (a float) and the current radius.
    The reference is ``as_input_vector``'s copy, which no caller's array shares."""

    reference: np.ndarray
    radius: float
    reference_plant_value: float

    def __post_init__(self):
        self.reference = as_input_vector(self.reference)
        if not self.radius > 0:  # NaN fails too
            raise ValueError(f"radius must be > 0, got {self.radius}")
        value = self.reference_plant_value
        if not math.isfinite(value):
            raise ValueError(f"reference_plant_value must be finite, got {value}")
        self.reference_plant_value = float(value)


def compute_rho(plant_ref: float, plant_cand: float, predicted_change: float) -> float | None:
    """Achieved plant decrease over the predicted model decrease
    ``-predicted_change``, the model's change from the reference at the
    candidate.

    Returns None (degenerate) when the predicted decrease does not exceed
    ``DEGENERACY_EPS_FACTOR`` machine epsilons times ``|plant_ref|``;
    callers treat that as a failed iteration.
    """
    values = (plant_ref, plant_cand, predicted_change)
    if not all(map(math.isfinite, values)):
        for name, v in zip(("plant_ref", "plant_cand", "predicted_change"), values):
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
    cfg: RunConfig,
    *,
    _checked: bool = False,
) -> bool:
    """Move the reference to the candidate iff rho >= ``cfg.eta1``.

    A degenerate (None) rho never moves the reference.  Returns whether the
    reference moved; on a move the stored plant value is updated to the
    candidate's measured value, which must be finite.  The candidate
    becomes the reference as ``TrustRegionState`` keeps one, unless a run
    hands it over checked, with the private ``_checked=True``.
    """
    if not math.isfinite(candidate_plant_value):
        raise ValueError(f"candidate_plant_value must be finite, got {candidate_plant_value}")
    if rho is not None and rho >= cfg.eta1:
        if not _checked:
            candidate = as_input_vector(candidate, state.reference.size)
        state.reference = candidate
        state.reference_plant_value = float(candidate_plant_value)
        return True
    return False


def update_radius(radius: float, rho: float | None, cfg: RunConfig) -> float:
    """Next radius from the run's settings: expand on very successful
    steps (rho >= eta2) up to ``radius_max``, None being unbounded; keep
    on successful ones; shrink otherwise, including degenerate rho.  An
    unsuccessful step may take any radius in [gamma1, gamma2] times the
    old one (Conn, Gould & Toint, Alg. 6.1.1); this loop always takes the
    one factor ``shrink_factor``.
    """
    if not radius > 0:  # NaN fails too
        raise ValueError(f"radius must be > 0, got {radius}")
    if rho is not None and rho >= cfg.eta2:
        expanded = cfg.expansion_factor * radius
        return expanded if cfg.radius_max is None else min(expanded, cfg.radius_max)
    if rho is not None and rho >= cfg.eta1:
        return radius
    return cfg.shrink_factor * radius
