"""Nonlinear lattice dynamics, blow-up detection, and the scaling to threshold 1.

The update at interior sites is

    f_next = g / (1 - alpha*delta*g^alpha)^(1/alpha),

where g is the neighbor average. The denominator vanishes when g reaches the
threshold (alpha*delta)^(-1/alpha); that event is finite-time blow-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np

from .domain import BoxDomain, Field, MultiIndex, _orthant, _span_buffers, _stencil


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

    @property
    def scale(self) -> float:
        """(alpha*delta)^(1/alpha), which scales data to threshold 1: under Params(alpha, 1/alpha)
        the scaled trajectory is the original's times it, step for step until either blows up, to
        relative rounding among normal doubles, and among subnormals to one subnormal spacing."""
        return (self.alpha * self.delta) ** (1.0 / self.alpha)


@dataclass(frozen=True)
class BlewUpAt:
    """A blow-up's step, its first offending site (lexicographic) and that site's mean g."""

    step: int
    site: MultiIndex
    g_value: float


@dataclass(frozen=True)
class Survived:
    steps: int


class StepRecord(NamedTuple):
    max_f: float
    max_g: float


@dataclass
class BlowupReport:
    outcome: BlewUpAt | Survived
    trace: list[StepRecord] = field(default_factory=list)

    @property
    def blew_up(self) -> bool:
        return isinstance(self.outcome, BlewUpAt)


def _check_solution_field(f: Field) -> float:
    """The maximum of zero-boundary, nonnegative, finite data; other data raises."""
    if not f.boundary_is_zero():
        raise ValueError("field has nonzero boundary values")
    lo, hi = f.values.min(), f.values.max()  # NaN and +-inf reach one of the two
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("field has non-finite values")
    if lo < 0:
        raise ValueError("field has negative values")
    return float(hi)


def _first_offender(step: int, bad: np.ndarray, g: np.ndarray) -> BlewUpAt:
    idx = np.argwhere(bad)[0]  # argwhere is lexicographic in C order
    return BlewUpAt(step, tuple(int(i) + 1 for i in idx), float(g[tuple(idx)]))


_TINY = np.finfo(float).tiny
# Per alpha where x*x and sqrt, both correctly rounded, give np.power's double: x^alpha and
# x^(1/alpha) as ufuncs, lift and root (None: x^1 is x), then on one double, up and down, where
# CPython's float * and math.sqrt round as IEEE 754 does. The stencil gives g no -0.0 to root.
_Powers = NamedTuple("_Powers", [("lift", Any), ("root", Any), ("up", Any), ("down", Any)])
_EXACT_POWERS = {2.0: _Powers(np.square, np.sqrt, lambda x: x * x, math.sqrt),
                 0.5: _Powers(np.sqrt, np.square, math.sqrt, lambda x: x * x),
                 1.0: _Powers(None, None, lambda x: x, lambda x: x)}


class _Stepper:
    """The nonlinear update on full-shape buffers, built once per (domain, p, eps_blow).

    f, the spare, g and denom are one `_span_buffers` block, which also hands out
    their flat spans, each on a cache line. The stencil and the update run on the spans,
    where a boundary site gets g = +0.0, so denom = 1 and f = +0.0; the boundary outside
    the span is never written, so the buffers keep the +0.0 boundary they start with,
    whatever the data's zeros. f and the spare swap at each update, with their spans
    (f's is `f_span`) and the flat runs of calls that read them (`_phases`, `_copies`).
    The update maps zero-boundary, nonnegative, finite data to the same set
    until blow-up, so `load` checks the data once (a `majorant._Probe` writes amplitude times
    a profile its caller checked); afterwards the only way out of that set is an
    update that overflows to inf, which `loop` reads from the new state's maximum, `max_f`.

    A step leaves its largest mean in `max_g` and the new state's maximum in
    `max_f`. At alpha in {1/2, 1, 2} the update's calls are correctly rounded
    and monotone in g, so a full step reads max g and forms the least
    denominator and the new maximum from it, bit for bit. `np.power` is not
    bound to be monotone, so other alpha read the least denominator and the new
    state's maximum off their spans, and max g only when recording.

    A `mirror` stepper runs data that equals its mirror image along every axis (the caller
    tests it, `domain._mirror_symmetric`) on the `_orthant` of the domain: the update keeps
    that symmetry bit for bit, as a site and its mirror image add the same doubles in mirrored
    order and IEEE addition commutes. Its plans (`_stencil`'s `mirror`) refresh the ghost
    planes from their mirror planes, so each interior site reads the doubles of the whole box's
    site, in its order, and steps, stops, blow-up and overflow sites, g values and records are
    the whole box's: the extrema of a symmetric state are its orthant's, and its
    lexicographically first site in a symmetric set lies in the orthant, the lower mirror image
    of each coordinate being there.
    """

    __slots__ = ("f", "f_span", "g", "max_g", "max_f", "trace", "_g_span", "_spare",
                 "_spare_span", "_phases", "_copies", "_plan", "_denom_span", "_denom_core",
                 "_scalar", "core", "_rest", "_eps_blow", "_copy_below")

    def __init__(self, domain: BoxDomain, p: Params, eps_blow: float,
                 record: bool = False, mirror: bool = False) -> None:
        if not eps_blow >= 0:
            raise ValueError(f"eps_blow must be >= 0, got {eps_blow}")
        box = _orthant(domain) if mirror else domain
        core = self.core = box.core  # the box's interior, in its buffers and in the data
        self._rest = core if mirror else None  # the sites `at_rest` compares; None for all
        (self.f, self._spare, g, denom), spans = _span_buffers(box.shape, 4)
        self.f_span, self._spare_span, self._g_span, self._denom_span = spans
        # every plan's arguments after its source and output: neighbor sums to denom
        self._plan = (self._denom_span, True, domain.extents if mirror else ())
        self._copies = [None, None]  # f's and the spare's plans into the other, built at first use
        self.g = g[core]
        self._denom_core = denom[core]
        coupling = p.alpha * p.delta
        # denom = 1 - coupling*g^alpha, then denom^(1/alpha), as ufunc calls into denom; 1.0*x is
        # x, so a product of exactly 1.0 skips the multiply (alpha*(1/alpha) may be 1 - 2^-53).
        # Each call's arguments end in its output, passed by position, and its scalars are 0-d
        # arrays: numpy spends less per call than on `out=` or Python floats, for the same doubles
        lift, root, up, down = _EXACT_POWERS.get(p.alpha, (np.power, np.power, None, None))
        exponents = [()] * 2 if up else [(np.array(p.alpha),), (np.array(1.0 / p.alpha),)]
        calls, x, out = [], self._g_span, self._denom_span
        if lift is not None:
            calls.append((lift, (x, *exponents[0], out)))
            x = out
        if coupling != 1.0:
            calls.append((np.multiply, (np.array(coupling), x, out)))
            x = out
        calls.append((np.subtract, (np.array(1.0), x, out)))
        calls, roots = tuple(calls), () if root is None else ((root, (out, *exponents[1], out)),)
        # per parity of the state, the full step's two flat runs: f's plan into g, then denom;
        # then denom's root, and g over it into the spare
        self._phases = [(_stencil(v, g, *self._plan) + calls,
                         roots + ((np.divide, (self._g_span, out, spare)),))
                        for v, spare in ((self.f, self._spare_span), (self._spare, self.f_span))]
        # at exact powers: denom and its root at one g, as the calls form them; 1.0 * x is x, so
        # the scalar product needs no skip
        self._scalar = None if up is None else ((lambda y: 1.0 - coupling * up(y)), down)
        self.trace, self._eps_blow = ([] if record else None), eps_blow
        # the largest max_f with alpha*delta*max_f^alpha <= 2^-60, to rounding; 0 if it
        # underflows. -1, no copy steps: with eps_blow >= 1 a denominator of 1.0 is a blow-up,
        # and past alpha = 2^40 the mean's rounding above max_f could lift g^alpha past 2^-54.
        self._copy_below = -1.0 if eps_blow >= 1 or p.alpha > 2.0**40 else math.exp(
            (-60 * math.log(2) - math.log(coupling)) / p.alpha)

    def load(self, a: Field) -> float:
        """Check the data, write its interior + 0.0 onto the +0.0 buffers and return its maximum,
        which `loop` starts from: adding 0.0 keeps every double but -0.0, which becomes +0.0, so
        the stencil never meets -0.0."""
        peak = _check_solution_field(a)
        np.add(a.values[self.core], 0.0, out=self.f[self.core])
        return peak

    def loop(self, max_f: float, steps: int,
             exits=None) -> tuple[int, BlewUpAt | bool | None]:
        """Step from the loaded state, of maximum `max_f`, over s = 0..steps; the step s where
        the run stopped, and why. Each step appends to `trace`: a recording stepper runs once.

        Each s tests `max_f` for an update that overflowed, asks `exits(s, f,
        max_f)` for an outcome, steps, records, tests for blow-up, carries
        `max_f` and tests for rest, as `simulate` defines it. The stop is
        simulate's BlewUpAt (an overflow's at its first inf site, charged to step
        s - 1), the exit's value (a probe's True blows up, False survives), or None for
        survival: at rest after step s, or at the horizon s = steps.
        """
        if steps < 0:
            raise ValueError("max_steps must be >= 0")
        trace = self.trace
        with np.errstate(divide="ignore", over="ignore"):
            for s in range(steps + 1):
                # the boundary is never inf, and only a full step, which fills g, overflows
                if not math.isfinite(max_f):
                    return s - 1, _first_offender(s - 1, np.isinf(self.f[self.core]), self.g)
                if exits is not None:
                    stop = exits(s, self.f, max_f)
                    if stop is not None:
                        return s, stop
                blew_up = self.step(max_f)  # at s == steps, its update is discarded
                if trace is not None:
                    trace.append(StepRecord(max_f, self.max_g))  # the step's
                if blew_up:
                    return s, _first_offender(s, self._denom_core <= self._eps_blow, self.g)
                max_f = self.max_f  # after a copy step, max_g's float object
                if max_f < _TINY and self.at_rest():
                    return s, None
        return steps, None

    def step(self, max_f: float) -> bool:
        """One update: g is the neighbor average of f, and f becomes g / denom^(1/alpha).

        With denom = 1 - alpha*delta*g^alpha, a step where some denom is at or
        below eps_blow returns True instead, and leaves f unchanged. The
        span's boundary denominators are 1.0 and its g and f +0.0, and no
        interior one passes them, so the span's extrema are the interior's. Each is read as
        `span.item(span.argmax())` (or argmin), the first extreme element, which costs less
        than a reduce and is its double: no span holds NaN (g is finite or +inf, denom at
        worst -inf, f' = g over a positive root) or -0.0 (the kernels add 0.0 to the data).
        `max_f` is at least f's maximum; at or below `_copy_below` the update is g
        itself, which the mean writes straight into the new state, leaving g stale.
        f must be finite and >= +0.0, as the plans fold the faces (`_stencil`'s `nonnegative`):
        `load`, or a probe's caller, checks the data; `loop` stops at a non-finite `max_f` first.
        """
        if max_f <= self._copy_below:
            # Exact: g <= max_f up to the mean's rounding (under 2^-46 relative for 64 axes), so
            # alpha*delta*g^alpha < 2^-54; 1 minus it rounds to 1.0, 1.0^(1/alpha) is 1.0, g/1.0 is
            # g, and 1.0 > eps_blow, so no site blows up. The plan into the spare writes g's bits.
            if self._copies[0] is None:
                self._copies[0] = _stencil(self.f, self._spare, *self._plan)
            for ufunc, args in self._copies[0]:
                ufunc(*args)
            self.max_g = self.max_f = self._spare_span.item(self._spare_span.argmax())
        else:
            g, denom = self._g_span, self._denom_span
            means, update = self._phases[0]
            for ufunc, args in means:
                ufunc(*args)
            if self._scalar is None:
                least = denom.item(denom.argmin())
                if self.trace is not None:
                    self.max_g = g.item(g.argmax())
            else:  # the least denominator is the one at max g
                self.max_g = g.item(g.argmax())
                least = self._scalar[0](self.max_g)
            if least <= self._eps_blow:
                return True
            for ufunc, args in update:
                ufunc(*args)
            if self._scalar is not None:
                # least > eps_blow >= 0 is 1 - y with y < 1, so least >= 2^-53, its root
                # >= 2^-106, and the divide meets no zero; an overflow gives inf, as numpy's does
                self.max_f = self.max_g / self._scalar[1](least)
            else:
                self.max_f = self._spare_span.item(self._spare_span.argmax())
        self.f, self._spare, self.f_span, self._spare_span = (self._spare, self.f,
                                                              self._spare_span, self.f_span)
        self._phases.reverse()
        self._copies.reverse()
        return False

    def at_rest(self) -> bool:
        """Whether the last update left the state unchanged, bit for bit. On an orthant the
        state's ghost planes, refreshed, differ from the spare's, so its interior is compared;
        a whole box's arrays are compared whole, which costs less than a strided interior."""
        if self._rest is None:
            return self.f.tobytes() == self._spare.tobytes()
        return self.f[self._rest].tobytes() == self._spare[self._rest].tobytes()


def simulate(a: Field, p: Params, max_steps: int, eps_blow: float = 0.0) -> BlowupReport:
    """Iterate the nonlinear update up to max_steps, watching for blow-up.

    The neighbor average is checked at every step s = 0..max_steps, so the
    trace has s0+1 records on blow-up at s0 and max_steps+1 records on
    survival. An update that overflows to inf is a blow-up at its step, at
    the first site it set to inf. A state with all values below the smallest
    normal double that a step leaves unchanged bit for bit is a fixed point:
    the next record repeats to max_steps without further steps. That tail is
    the only place the trace repeats a record; the CSV writer relies on it.
    """
    stepper = _Stepper(a.domain, p, eps_blow, record=True)
    s, stop = stepper.loop(stepper.load(a), max_steps)
    if stop is not None:
        return BlowupReport(stop, stepper.trace)
    try:  # at rest after step s, the state, g and record repeat; at the horizon s = max_steps
        stepper.trace += [StepRecord(max_f=stepper.max_f, max_g=stepper.max_g)] * (max_steps - s)
    except MemoryError:  # a list repeat's MemoryError has no message
        raise MemoryError(f"steps: no memory for a trace of {max_steps + 1} records") from None
    return BlowupReport(outcome=Survived(steps=max_steps), trace=stepper.trace)
