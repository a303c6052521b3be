"""Bare-numpy reference loops and the host calibration loop.

Each reference loop does the arithmetic of one library loop on preallocated
arrays, with no per-step validation, object creation or trace recording, so
that library time / reference time is the loop's overhead over bare numpy.
"""

from __future__ import annotations

import time

import numpy as np

MAX_REFERENCE_STEPS = 20_000


def _axis_slices(ndim: int):
    core = [slice(1, -1)] * ndim
    for k in range(ndim):
        up, down = list(core), list(core)
        up[k], down[k] = slice(2, None), slice(0, -2)
        yield tuple(up), tuple(down)


def _stencil(f: np.ndarray, g: np.ndarray, pairs, scale: float) -> None:
    (up, down), *rest = pairs
    np.add(f[up], f[down], out=g)
    for up, down in rest:
        np.add(g, f[up], out=g)
        np.add(g, f[down], out=g)
    g *= scale


def nonlinear_s_per_step(values: np.ndarray, alpha: float, delta: float, steps: int) -> float:
    """Stencil, denominator, power and divide per step, from `values`."""
    steps = max(1, min(steps, MAX_REFERENCE_STEPS))
    f = values.copy()
    core = (slice(1, -1),) * f.ndim
    pairs = list(_axis_slices(f.ndim))
    g = np.empty(tuple(s - 2 for s in f.shape))
    denom = np.empty_like(g)
    scale, coupling, root = 1.0 / (2 * f.ndim), -alpha * delta, 1.0 / alpha
    with np.errstate(all="ignore"):  # past blow-up the arithmetic goes NaN
        start = time.perf_counter()
        for _ in range(steps):
            _stencil(f, g, pairs, scale)
            np.power(g, alpha, out=denom)
            denom *= coupling
            denom += 1.0
            np.power(denom, root, out=denom)
            np.divide(g, denom, out=f[core])
        return (time.perf_counter() - start) / steps


def linear_s_per_step(values: np.ndarray, steps: int) -> float:
    """Interior maximum and neighbor average per step, from `values`."""
    steps = max(1, min(steps, MAX_REFERENCE_STEPS))
    h = values.copy()
    core = (slice(1, -1),) * h.ndim
    pairs = list(_axis_slices(h.ndim))
    g = np.empty(tuple(s - 2 for s in h.shape))
    scale = 1.0 / (2 * h.ndim)
    start = time.perf_counter()
    for _ in range(steps):
        h[core].max()
        _stencil(h, g, pairs, scale)
        h[core] = g
    return (time.perf_counter() - start) / steps


# The calibration loop run before every op, as (extents, steps) of the
# nonlinear step. When the shared host is slow, a step on tiny arrays slows
# the most (1.7-1.9x) and one on large arrays the least (1.2x); the ops of the
# workloads fall in between, so the loop mixes the three sizes.
CALIBRATION_LOOPS = (((4, 4), 300), ((64, 64), 80), ((256, 256), 7))
CALIBRATION_NOMINAL_MS = 8.6  # its time when the host is fast


def calib_ms(loops=CALIBRATION_LOOPS) -> float:
    """Time of the nonlinear reference loop over fixed (extents, steps) pairs.

    Runs next to the ops it calibrates, so that its time shows the host's
    speed level at that moment.
    """
    total = 0.0
    for extents, steps in loops:
        f = np.zeros(tuple(n + 2 for n in extents))
        f[(slice(1, -1),) * len(extents)] = np.linspace(0.0, 0.5, np.prod(extents)).reshape(extents)
        total += nonlinear_s_per_step(f, 2.0, 0.5, steps) * steps
    return total * 1e3


def host_calib_ms() -> float:
    """A fixed bare-numpy loop; its time shows the host's current speed level."""
    return calib_ms([((64, 64), 300)])
