"""Nonlinear lattice dynamics, blow-up detection, and scaling normalization.

The update at interior sites is

    f_next = g / (1 - alpha*delta*g^alpha)^(1/alpha),

where g is the neighbor average. The denominator vanishes when g reaches the
threshold (alpha*delta)^(-1/alpha); that event is finite-time blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import Field, MultiIndex, neighbor_mean_interior


@dataclass(frozen=True)
class Params:
    """Nonlinearity exponent alpha and coupling delta, both > 0."""

    alpha: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0):
            raise ValueError("alpha: must be > 0")
        if not (self.delta > 0):
            raise ValueError("delta: must be > 0")
        with np.errstate(all="ignore"):  # overflow, and 0 to a negative power, give inf
            c = np.float64(self.alpha) * self.delta
            ok = all(0 < c ** (e / self.alpha) < np.inf for e in (-1.0, 1.0))  # threshold, scale
        if not ok:  # an infinite alpha*delta would also make 0 * inf NaN denominators
            raise ValueError("alpha*delta must be finite, and (alpha*delta)^(+-1/alpha) finite "
                             f"and > 0; got alpha={self.alpha!r}, delta={self.delta!r}")

    @property
    def threshold(self) -> float:
        """Neighbor-average level at which the update denominator vanishes."""
        return (self.alpha * self.delta) ** (-1.0 / self.alpha)


@dataclass(frozen=True)
class BlowupSignal:
    """First offending site (lexicographic) and its neighbor-average value."""

    site: MultiIndex
    g_value: float


@dataclass(frozen=True)
class BlewUpAt:
    step: int
    site: MultiIndex
    g_value: float


@dataclass(frozen=True)
class Survived:
    steps: int


@dataclass(frozen=True)
class StepRecord:
    max_f: float
    max_g: float


@dataclass
class BlowupReport:
    outcome: BlewUpAt | Survived
    trace: list[StepRecord] = field(default_factory=list)

    @property
    def blew_up(self) -> bool:
        return isinstance(self.outcome, BlewUpAt)


def _check_solution_field(f: Field) -> None:
    if not f.boundary_is_zero():
        raise ValueError("field has nonzero boundary values")
    if not np.all(np.isfinite(f.values)):
        raise ValueError("field has non-finite values")
    if np.any(f.values < 0):
        raise ValueError("field has negative values")


def _first_offender(bad: np.ndarray, g: np.ndarray) -> BlowupSignal:
    idx = np.argwhere(bad)[0]  # argwhere is lexicographic in C order
    site = tuple(int(i) + 1 for i in idx)
    return BlowupSignal(site=site, g_value=float(g[tuple(idx)]))


_TINY = np.finfo(float).tiny


class _Stepper:
    """The nonlinear update on two preallocated full-shape buffers.

    Both buffers have a zero boundary from allocation on and only their
    interiors are ever written. The update maps zero-boundary, nonnegative,
    finite data to the same set until blow-up, so the data is checked once,
    here; afterwards the only way out of that set is an update that overflows
    to inf, which `simulate` reads from its per-step maximum.
    """

    __slots__ = ("f", "g", "_f_core", "_spare", "_spare_core", "_denom",
                 "_alpha", "_coupling", "_root", "_eps_blow")

    def __init__(self, a: Field, p: Params, eps_blow: float) -> None:
        if not eps_blow >= 0:
            raise ValueError(f"eps_blow must be >= 0, got {eps_blow}")
        _check_solution_field(a)
        core = a.domain.core
        self.f = a.values.copy()
        self._f_core = self.f[core]
        self._spare = np.zeros(a.domain.shape)
        self._spare_core = self._spare[core]
        self.g = np.empty(a.domain.interior_shape)
        self._denom = np.empty(a.domain.interior_shape)
        self._alpha = p.alpha
        self._coupling = p.alpha * p.delta
        self._root = 1.0 / p.alpha
        self._eps_blow = eps_blow

    def step(self) -> BlowupSignal | None:
        """One update: g is the neighbor average of f, and f becomes g / denom^(1/alpha).

        With denom = 1 - alpha*delta*g^alpha, the first site whose denom is at
        or below eps_blow is returned instead, and f is left unchanged.
        """
        g = neighbor_mean_interior(self.f, out=self.g)
        denom = self._denom
        np.power(g, self._alpha, out=denom)
        np.multiply(self._coupling, denom, out=denom)
        np.subtract(1.0, denom, out=denom)
        if denom.min() <= self._eps_blow:
            return _first_offender(denom <= self._eps_blow, g)
        np.power(denom, self._root, out=denom)
        np.divide(g, denom, out=self._spare_core)
        self.f, self._spare = self._spare, self.f
        self._f_core, self._spare_core = self._spare_core, self._f_core
        return None

    def at_rest(self) -> bool:
        """Whether the last update left the state unchanged, bit for bit."""
        return np.array_equal(self.f.view(np.uint64), self._spare.view(np.uint64))


def step_nonlinear(
    f: Field, p: Params, eps_blow: float = 0.0
) -> Field | BlowupSignal:
    """One nonlinear step, or a BlowupSignal if a denominator (nearly) vanishes.

    Blow-up is declared where 1 - alpha*delta*g^alpha <= eps_blow; the default
    eps_blow = 0 is the exact sign test (equality counts as blow-up since the
    update is undefined there). eps_blow must be >= 0.
    """
    stepper = _Stepper(f, p, eps_blow)
    with np.errstate(divide="ignore", over="ignore"):
        sig = stepper.step()
    return sig if sig is not None else Field(f.domain, stepper.f)


def simulate(
    a: Field, p: Params, max_steps: int, eps_blow: float = 0.0
) -> BlowupReport:
    """Iterate the nonlinear update up to max_steps, watching for blow-up.

    The neighbor average is checked at every step s = 0..max_steps, so the
    trace has s0+1 records on blow-up at s0 and max_steps+1 records on
    survival. An update that overflows to inf is a blow-up at its step, at
    the first site it set to inf. A state with all values below the smallest
    normal double that a step leaves unchanged bit for bit is a fixed point:
    its record repeats to max_steps without further steps.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    stepper = _Stepper(a, p, eps_blow)
    trace: list[StepRecord] = []
    with np.errstate(divide="ignore", over="ignore"):
        for s in range(max_steps + 1):
            max_f = float(stepper.f.max())
            if not math.isfinite(max_f):  # the boundary is never inf
                sig = _first_offender(np.isinf(stepper._f_core), stepper.g)
                outcome = BlewUpAt(step=s - 1, site=sig.site, g_value=sig.g_value)
                return BlowupReport(outcome=outcome, trace=trace)
            sig = stepper.step()  # at s == max_steps, its update is discarded
            record = StepRecord(max_f=max_f, max_g=float(stepper.g.max()))
            trace.append(record)
            if sig is not None:
                outcome = BlewUpAt(step=s, site=sig.site, g_value=sig.g_value)
                return BlowupReport(outcome=outcome, trace=trace)
            if max_f < _TINY and stepper.at_rest():
                trace += [record] * (max_steps - s)
                break
    return BlowupReport(outcome=Survived(steps=max_steps), trace=trace)


def normalize_scaling(a: Field, p: Params) -> tuple[Field, Params]:
    """Rescale so the blow-up threshold becomes 1.

    Multiplies the data by (alpha*delta)^(1/alpha) and returns parameters with
    alpha*delta = 1. The rescaled trajectory is the pointwise rescaling of the
    original one, step for step, until either blows up.
    """
    factor = (p.alpha * p.delta) ** (1.0 / p.alpha)
    scaled = Field(a.domain, a.values * factor)
    return scaled, Params(alpha=p.alpha, delta=1.0 / p.alpha)
