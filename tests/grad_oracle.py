"""Central-difference gradient check: the slow oracle for the autodiff ops.

Its numeric side runs only the ops' forward passes, so it shares no code
with the backward closures it checks.
"""
from dataclasses import dataclass

import numpy as np

from stagegrow.autodiff import Tensor, no_grad


@dataclass(frozen=True)
class GradCheckReport:
    max_abs_diff: float
    max_rel_error: float
    worst_index: tuple[int, ...]
    tolerance: float
    passed: bool


def grad_check(f, x: Tensor, tolerance: float = 1e-3,
               step: float = 1e-3) -> GradCheckReport:
    """Compare f's reverse-mode gradient at x against central differences.

    f maps a Tensor to a scalar Tensor and must be deterministic.  Run with
    float64 data; float32 round-off easily exceeds any sensible tolerance.
    The finite-difference evaluations run under no_grad.
    """
    x.zero_grad()
    loss = f(x)
    loss.backward()
    if x.grad is None:
        raise ValueError("f does not depend on x (no gradient reached it)")
    analytic = x.grad.copy()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            hi = float(f(x).data)
            flat[i] = keep - step
            lo = float(f(x).data)
            flat[i] = keep
            num_flat[i] = (hi - lo) / (2.0 * step)

    diff = np.abs(analytic - numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = diff / denom
    worst = int(np.argmax(rel))
    return GradCheckReport(
        max_abs_diff=float(diff.reshape(-1)[worst]),
        max_rel_error=float(rel.reshape(-1)[worst]),
        worst_index=tuple(np.unravel_index(worst, x.data.shape)),
        tolerance=tolerance,
        passed=bool(rel.max() <= tolerance),
    )
