"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine (2 vCPU Intel Xeon, Python 3.11.7, NumPy
2.4.6) the speed swings by up to a factor of two within seconds, as other
tenants load the cores, and a solve swings with it.  Between
solves the benchmark times a fixed kernel and scales every solve time by
``REFERENCE_KERNEL_MS`` over the kernel time measured around it.

The kernel imitates rtopt's hot loop -- input validation, a corrected
quadratic model evaluated along a ray, golden-section steps on 2-vectors
-- but calls no rtopt code, so a change to the program moves the scaled
times and a change in machine speed does not.  Measured on that machine
over 100 s, the quartile spread of a P3 solve time was 0.42; of its ratio
to this kernel, 0.05; of its ratio to a pure-integer loop, 0.18.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel time, in ms, of the reference speed that timings are scaled to.
REFERENCE_KERNEL_MS = 5.0

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _validate(u) -> np.ndarray:
    arr = np.array(u, dtype=float, copy=True)
    if arr.ndim != 1 or arr.size != 2 or not np.all(np.isfinite(arr)):
        raise ValueError("calibration kernel produced an invalid vector")
    return arr


class _Model:
    def __init__(self, modifiers, anchor):
        self.modifiers = _validate(modifiers)
        self.anchor = _validate(anchor)
        self.at_anchor = self.base(self.anchor)

    def base(self, u) -> float:
        u = _validate(u)
        return float(np.dot(u, u))

    def change(self, u) -> float:
        u = _validate(u)
        return self.base(u) - self.at_anchor + float(self.modifiers @ (u - self.anchor))

    def gradient(self, u) -> np.ndarray:
        return 2.0 * _validate(u) + self.modifiers


def kernel() -> float:
    model = _Model([0.5, -1.0], [1.0, 2.0])
    g = model.gradient(model.anchor)
    best = 0.0
    for _ in range(6):
        a, b = 0.0, 1.0
        x1, x2 = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
        f1, f2 = model.change(model.anchor - x1 * g), model.change(model.anchor - x2 * g)
        for _ in range(40):
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - _INVPHI * (b - a)
                f1 = model.change(model.anchor - x1 * g)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + _INVPHI * (b - a)
                f2 = model.change(model.anchor - x2 * g)
        best = min(best, f1, f2)
    return best


def kernel_ms() -> float:
    """Milliseconds the kernel takes now, best of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0
