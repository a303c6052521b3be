"""Majorant construction, comparison verification, and series bounds.

Everything here operates on the scaled system (alpha*delta = 1, blow-up
threshold 1). With h^s the linear solution and m_s its interior maximum, the
majorant is

    fbar^s = h^s / (1 - P_s)^(1/alpha),  P_s = sum_{k<=s} |m_k|^alpha,

defined while P_s < 1; it dominates the nonlinear solution pointwise and its
existence rules out blow-up. Two regime bounds certify P_infinity < 1 from
the mode coefficients alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Field, MultiIndex
from .evolution import Params, _Stepper, simulate
from .spectral import ModeTable, _linear_flow, analyze, mode_table

COMPARISON_SLACK = 1e-12


@dataclass(frozen=True)
class MajorantTrace:
    """m_0..m_S, partial sums P_s of |m|^alpha, and where the majorant lives."""

    m: np.ndarray
    partial_sums: np.ndarray
    defined_up_to: int  # largest s with P_s < 1; -1 if already P_0 >= 1

    @property
    def all_steps_defined(self) -> bool:
        return self.defined_up_to == len(self.m) - 1


def _trace_from_maxima(m: np.ndarray, alpha: float) -> MajorantTrace:
    partial = np.cumsum(np.abs(m) ** alpha)
    below = np.nonzero(partial < 1.0)[0]
    defined_up_to = int(below[-1]) if below.size else -1
    return MajorantTrace(m=m, partial_sums=partial, defined_up_to=defined_up_to)


def compute_trace(a: Field, alpha: float, S: int) -> MajorantTrace:
    """Run the linear evolution S steps recording interior maxima."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    core = a.domain.core
    m = np.array([h[core].max() for h in _linear_flow(a, S)])
    return _trace_from_maxima(m, alpha)


def majorant_field(trace: MajorantTrace, h_s: Field, s: int, alpha: float) -> Field:
    """fbar^s from the linear solution h^s; refuses s past defined_up_to."""
    if not (0 <= s <= trace.defined_up_to):
        raise ValueError(
            f"majorant undefined at step {s}: partial sum reaches 1 "
            f"after step {trace.defined_up_to}"
        )
    denom = (1.0 - trace.partial_sums[s]) ** (1.0 / alpha)
    return Field(h_s.domain, h_s.values / denom)


@dataclass(frozen=True)
class ComparisonFailure:
    step: int
    site: MultiIndex
    majorant_value: float
    solution_value: float


@dataclass(frozen=True)
class ComparisonVerdict:
    holds: bool
    margins: np.ndarray  # min over interior sites of fbar - f, one entry per checked step
    checked_steps: int  # steps 0..checked_steps-1 were verified
    defined_up_to: int
    failure: ComparisonFailure | None = None
    trace: MajorantTrace | None = None  # the linear flow's trace to S


def verify_comparison(
    a: Field, alpha: float, S: int, slack: float = COMPARISON_SLACK
) -> ComparisonVerdict:
    """Check fbar^s >= f^s pointwise and no blow-up while the majorant exists.

    Runs the scaled nonlinear dynamics (delta = 1/alpha) alongside the linear
    flow for s <= min(S, defined_up_to), and the linear flow alone on to S for
    the trace. P_s is nondecreasing, so s <= defined_up_to is decided as the
    flow goes. A failure signals an implementation bug, never expected
    behavior.
    """
    p = Params(alpha=alpha, delta=1.0 / alpha)
    core = a.domain.core
    m: list[float] = []
    margins: list[float] = []
    failure = None
    checked_steps = 0
    checking = True  # no failure yet, and P_s < 1 so far
    stepper = None  # the nonlinear flow; made, and its data checked, at its first step
    f = a.values
    P = 0.0
    with np.errstate(divide="ignore", over="ignore"):
        for s, h in enumerate(_linear_flow(a, S)):
            m.append(float(h[core].max()))
            # the expression of _trace_from_maxima, so P is partial_sums[s] bit for bit
            P = P + (np.abs(m[-1:]) ** alpha)[0]
            checking = checking and P < 1.0
            if not checking:
                continue
            if s:
                if stepper is None:
                    stepper = _Stepper(a, p, 0.0)
                stepper.average()
                sig = stepper.blowup()
                if sig is not None:
                    failure = ComparisonFailure(
                        step=s, site=sig.site, majorant_value=math.inf,
                        solution_value=sig.g_value,
                    )
                    checking = False
                    continue
                stepper.advance()
                f = stepper.f
            fbar = h / (1.0 - P) ** (1.0 / alpha)
            margins.append(float((fbar - f)[core].min()))  # both are 0 on the boundary
            checked_steps = s + 1
            bad = fbar < f - slack * np.maximum(1.0, fbar)
            if np.any(bad):
                site = tuple(int(i) for i in np.argwhere(bad)[0])
                failure = ComparisonFailure(
                    step=s, site=site, majorant_value=float(fbar[site]),
                    solution_value=float(f[site]),
                )
                checking = False
    trace = _trace_from_maxima(np.array(m), alpha)
    return ComparisonVerdict(
        holds=failure is None,
        margins=np.array(margins),
        checked_steps=checked_steps,
        defined_up_to=trace.defined_up_to,
        failure=failure,
        trace=trace,
    )


@dataclass(frozen=True)
class BoundReport:
    """Closed-form upper bound on the full series sum of |m_k|^alpha."""

    regime: str  # "alpha_le_1" | "alpha_gt_1"
    bound_value: float
    B_max: float
    s0_tail: int | None = None  # alpha_gt_1 only


def bound_alpha_le_1(B_max: float, modes: ModeTable, alpha: float) -> BoundReport:
    """Series bound B^alpha * sum over modes of 1/(1 - |c|^alpha)."""
    if not (0 < alpha <= 1):
        raise ValueError(f"regime requires 0 < alpha <= 1, got {alpha}")
    c = np.abs(modes.eigenvalues)
    bound = B_max**alpha * float(np.sum(1.0 / (1.0 - c**alpha)))
    return BoundReport(regime="alpha_le_1", bound_value=bound, B_max=B_max)


def tail_start(modes: ModeTable) -> int:
    """Smallest s with sum over modes of |c|^s < 1; the table scans for it once."""
    return modes.tail_start


def bound_alpha_gt_1(
    B_max: float, modes: ModeTable, alpha: float, m_prefix
) -> BoundReport:
    """Prefix sum of |m_k|^alpha plus the geometric tail past tail_start.

    m_prefix must supply m_0..m_{s0-1} from compute_trace (extra entries are
    ignored).
    """
    if not (alpha > 1):
        raise ValueError(f"regime requires alpha > 1, got {alpha}")
    s0 = tail_start(modes)
    m_prefix = np.asarray(m_prefix, dtype=float)
    if len(m_prefix) < s0:
        raise ValueError(f"m_prefix needs at least {s0} entries, got {len(m_prefix)}")
    c = np.abs(modes.eigenvalues)
    head = float(np.sum(np.abs(m_prefix[:s0]) ** alpha))
    tail = float(np.float64(B_max) ** alpha * np.sum(c**s0 / (1.0 - c)))  # may be inf
    return BoundReport(
        regime="alpha_gt_1", bound_value=head + tail, B_max=B_max, s0_tail=s0
    )


def regime_bound(a_scaled: Field, alpha: float) -> BoundReport:
    """The certificate for data scaled to threshold 1: the bound of alpha's regime."""
    table = mode_table(a_scaled.domain)
    B_max = analyze(a_scaled).max_abs
    if alpha <= 1:
        return bound_alpha_le_1(B_max, table, alpha)
    s0 = tail_start(table)
    with np.errstate(over="ignore"):  # data too large to certify: inf, still an upper bound
        trace = compute_trace(a_scaled, alpha, s0)
        return bound_alpha_gt_1(B_max, table, alpha, trace.m[:s0])


@dataclass(frozen=True)
class ThresholdResult:
    amplitude: float
    hit_ceiling: bool  # no blow-up even at the bracketing upper amplitude
    evaluations: list[tuple[float, bool]]  # (amplitude, blew_up) in probe order


def _bracket_top(profile: Field, p: Params) -> float:
    """The bisection's upper amplitude, which puts the profile maximum at the threshold."""
    peak = float(profile.values.max())
    if not (peak > 0 and peak * (p.threshold / peak) < math.inf):  # the top probe is finite
        raise ValueError(f"profile maximum must be > 0, and threshold/maximum finite: {peak!r}")
    return p.threshold / peak


def find_threshold(
    profile: Field, p: Params, S: int, tol: float
) -> ThresholdResult:
    """Bisect the amplitude separating survival from blow-up within S steps.

    Valid because the dynamics is monotone in the initial data. The upper
    bracket puts the profile maximum at the blow-up threshold; if even that
    survives S steps, the bracket ceiling is reported.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    hi = _bracket_top(profile, p)
    evaluations: list[tuple[float, bool]] = []

    def blows_up(lam: float) -> bool:
        scaled = Field(profile.domain, profile.values * lam)
        blew = simulate(scaled, p, S).blew_up
        evaluations.append((lam, blew))
        return blew

    if not blows_up(hi):
        return ThresholdResult(amplitude=hi, hit_ceiling=True, evaluations=evaluations)
    lo = 0.0
    # stop when the bracket is narrower than tol times the midpoint, so the
    # returned amplitude blows up at (1+tol) and survives at (1-tol) scale
    for _ in range(200):
        if hi - lo <= tol * 0.5 * (hi + lo):
            break
        mid = 0.5 * (lo + hi)
        if blows_up(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdResult(
        amplitude=0.5 * (lo + hi), hit_ceiling=False, evaluations=evaluations
    )
