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

from .domain import (Field, MultiIndex, _faces, _mirror_multiplicity, _mirror_symmetric,
                     _span_buffers)
from .evolution import _EXACT_POWERS, BlewUpAt, Params, _check_solution_field, _Stepper
from .spectral import ModeTable, _linear_flow, analyze, mode_table

COMPARISON_SLACK = 1e-12


@dataclass(frozen=True)
class MajorantTrace:
    """m_0..m_S, partial sums P_s of |m|^alpha, and where the majorant lives."""

    m: np.ndarray
    partial_sums: np.ndarray
    defined_up_to: int  # largest s with P_s < 1; -1 if already P_0 >= 1


def _trace_from_maxima(m: np.ndarray, alpha: float) -> MajorantTrace:
    with np.errstate(over="ignore"):  # inf partial sums: the majorant is undefined
        partial = np.cumsum(np.abs(m) ** alpha)
    below = np.nonzero(partial < 1.0)[0]
    defined_up_to = int(below[-1]) if below.size else -1
    return MajorantTrace(m=m, partial_sums=partial, defined_up_to=defined_up_to)


def compute_trace(a: Field, alpha: float, S: int) -> MajorantTrace:
    """Run the linear evolution S steps recording interior maxima.

    The flow's span maximum m_s reads the interior and +0.0 boundary sites,
    so a positive m_s is the interior maximum; on signed data that maximum
    can lie below +0.0, and is then reduced from h.
    """
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    core = a.domain.core
    m = np.array([m_s if m_s > 0 else h[core].max() for h, _, m_s in _linear_flow(a, S)])
    return _trace_from_maxima(m, alpha)


def majorant_field(trace: MajorantTrace, h_s: Field, s: int, alpha: float) -> Field:
    """fbar^s from the linear solution h^s; refuses s past defined_up_to."""
    if not (0 <= s <= trace.defined_up_to):
        raise ValueError(
            f"majorant undefined at step {s}: partial sum reaches 1 "
            f"after step {trace.defined_up_to}"
        )
    root = (1.0 - trace.partial_sums[s]) ** (1.0 / alpha)
    return Field(h_s.domain, _over_root(h_s.values, root))


def _over_root(h: np.ndarray, root: float, out: np.ndarray | None = None) -> np.ndarray:
    """h / root; for a root that underflowed to 0, its limit h/+0: inf where h > 0, else 0."""
    return np.divide(h, root, out=out) if root > 0 else np.where(h > 0, np.inf, 0.0)


@dataclass(frozen=True)
class ComparisonFailure:
    step: int
    site: MultiIndex
    majorant_value: float
    solution_value: float


@dataclass(frozen=True)
class ComparisonVerdict:
    holds: bool
    margins: np.ndarray  # min over interior sites of fbar - f at steps 0, 1, ... as checked
    failure: ComparisonFailure | None
    trace: MajorantTrace  # the linear flow's trace to S; its defined_up_to bounds the check


def verify_comparison(
    a: Field, alpha: float, S: int, slack: float = COMPARISON_SLACK
) -> ComparisonVerdict:
    """Check fbar^s >= f^s pointwise and no blow-up while the majorant exists.

    `_Stepper.load` checks the data at every S, and `_Stepper.loop` steps the scaled dynamics
    (delta = 1/alpha). Its exit steps the linear flow to h^s, compares fbar^s
    with f^s, and stops the run at a failure, at S or where P_s >= 1 (P_s
    never decreases). A state at rest is compared on without steps. A blow-up
    in the step to s, an overflow included, fails if s <= defined_up_to. The
    linear flow runs alone on to S for the trace, in blocks. A failure is a bug.
    h and f are nonnegative kernel buffers with a +0.0 boundary, the data + 0.0 at
    s = 0. The flow yields h with its flat span and m_s, the span's maximum, which is
    h's interior maximum; fbar and fbar - f are formed from that span and the stepper's
    `f_span` on the spans of two buffers of their own. diff's `_faces`, refilled with +inf after
    each subtract, hold the span's other sites, so the margin, the interior minimum, is the span's
    first least element: diff holds no -0.0 (x - x is +0.0) or NaN (fbar >= +0.0, f finite).
    """
    if math.isnan(slack):
        raise ValueError("slack must not be NaN")
    flow = _linear_flow(a, S)
    m: list[float] = []
    margins: list[float] = []
    failure = None
    P = 0.0
    (_, diff), (fbar_span, diff_span) = _span_buffers(a.domain.shape, 2)
    faces = _faces(diff)
    stepper = _Stepper(a.domain, Params(alpha=alpha, delta=1.0 / alpha), 0.0)
    # |m|^alpha as _trace_from_maxima's np.abs(m) ** alpha forms it, so P is partial_sums[s] bit
    # for bit: on one double at alpha in {1/2, 1, 2}, where x*x and sqrt are correctly rounded
    exact = _EXACT_POWERS.get(alpha)
    power = exact.up if exact else (lambda x: (np.array([x]) ** alpha)[0])

    def compare(s: int, f: np.ndarray, max_f: float) -> bool | None:
        nonlocal P, failure
        h, h_span, m_s = next(flow)
        m.append(m_s)
        P = P + power(abs(m_s))
        if not P < 1.0:
            return False
        root = (1.0 - P) ** (1.0 / alpha)
        fbar = _over_root(h_span, root, fbar_span)
        np.subtract(fbar, stepper.f_span, diff_span)
        for face in faces:
            face.fill(math.inf)
        margins.append(diff_span.item(diff_span.argmin()))
        # load checks that f, and so h, has a zero boundary; there a nonnegative slack makes f - tol
        # <= 0 <= fbar, and a nonnegative margin gives fbar >= f >= f - tol at every interior site
        if not (slack >= 0 and margins[-1] >= 0):  # a NaN margin goes on to the test
            fbar = _over_root(h, root)
            # slack * max(1, fbar) wherever fbar can lie below f; a zero slack is 0, not NaN at inf
            tol = slack * np.maximum(1.0, fbar) if slack else slack
            bad = fbar < f - tol
            if np.any(bad):
                site = tuple(int(i) for i in np.argwhere(bad)[0])
                failure = ComparisonFailure(
                    step=s, site=site, majorant_value=float(fbar[site]),
                    solution_value=float(f[site]),
                )
                return True
        return False if s == S else None

    with np.errstate(divide="ignore", over="ignore"):
        s, stop = stepper.loop(stepper.load(a), S, compare)
        while stop is None:  # at rest after step s < S: every later state is this one
            s += 1
            stop = compare(s, stepper.f, stepper.max_f)
    m.extend(m_s for *_, m_s in flow)
    trace = _trace_from_maxima(np.array(m), alpha)
    if isinstance(stop, BlewUpAt) and s < trace.defined_up_to:
        failure = ComparisonFailure(
            step=s + 1, site=stop.site, majorant_value=math.inf, solution_value=stop.g_value
        )
    return ComparisonVerdict(
        holds=failure is None,
        margins=np.array(margins),
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
    series = float(np.sum(1.0 / (1.0 - c**alpha)))  # inf where |c|^alpha rounds to 1
    bound = B_max**alpha * series if B_max > 0 else 0.0  # zero data: 0, not 0 * inf
    return BoundReport(regime="alpha_le_1", bound_value=bound, B_max=B_max)


def tail_start(modes: ModeTable) -> int:
    """Smallest s with sum over modes of |c|^s < 1; the table searches for it once."""
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
    """The certificate for zero-boundary data scaled to threshold 1: the bound of alpha's regime."""
    if alpha <= 1 and not a_scaled.boundary_is_zero():  # else compute_trace tests it
        raise ValueError("field has nonzero boundary values")
    table = mode_table(a_scaled.domain)
    with np.errstate(all="ignore"):  # data beyond the double range: inf, never NaN
        B_max = analyze(a_scaled).max_abs
        if alpha <= 1:
            return bound_alpha_le_1(B_max, table, alpha)
        trace = compute_trace(a_scaled, alpha, tail_start(table))
        return bound_alpha_gt_1(B_max, table, alpha, trace.m)


# The probe's exits are tested every few steps, and fire only with this
# relative margin, which absorbs the rounding of the state and the tables. The
# survival cadence is a multiple of the blow-up one, which `_Probe._exits` relies on.
_BLOWUP_EVERY = 8
_SURVIVAL_EVERY = 16
_EXIT_MARGIN = 1e-3


def _geometric(n: int, t: float) -> float:
    """sum_{j=0..n-1} e^(j*t), for t <= 0."""
    return math.expm1(n * t) / math.expm1(t) if t else n


def _log_majorant_sum(alpha: float, log_lam: float, gap: float, R: int) -> float:
    """log sum_{k=1..R} min(1, e^gap*lam^k)^alpha, for gap = log(C/M) >= 0 and R >= 1: the
    sum over M^alpha of the survival certificate, the paper's, scaled to threshold 1.

    With P_s = sum_{k=1..s} m_k^alpha, which leaves out m_0 as no step tests it,
    fbar^s = h^s/(1 - P_s)^(1/alpha) >= f^s while P_s < 1, by induction: fbar^0 = f^0, as P_0 = 0.
    If f^s <= fbar^s, averaging is positive, so g^s <= h^{s+1}/(1 - P_s)^(1/alpha), below the
    threshold 1 as P_{s+1} = P_s + m_{s+1}^alpha < 1; the update F(y) = y/(1 - y^alpha)^(1/alpha)
    increases, so f^{s+1} <= h^{s+1}/(1 - P_s - m_{s+1}^alpha)^(1/alpha) = fbar^{s+1}. So a state
    survives its next R steps if P_R < 1, where m_k are the maxima of the linear flow from it, in
    threshold units. With M = max f and C = max f/phi over the interior, f <= C*phi; averaging
    maps phi to lam*phi and never raises the maximum, so m_k <= min(M, C*lam^k). The sum of
    these bounds is (k - 1)*M^alpha plus a geometric series from the switch index k, where
    C*lam^k falls to M; any integer k keeps every term a bound on m_k. No term exceeds its term
    in C^alpha/(1-lam^alpha), the infinite sum from m_0.
    """
    switch = gap / -log_lam if log_lam < 0 else math.inf  # C*lam^k <= M from k = switch on
    k = max(1, math.ceil(switch)) if switch <= R else R + 1
    # the sum over M^alpha: k - 1 ones, then (C*lam^j/M)^alpha for j = k..R, in logs, as
    # those terms can underflow; C*lam^k <= M, so their log is <= 0 but for k's rounding
    if k > R:  # R terms of 1
        return math.log(R)
    geometric = _geometric(R + 1 - k, alpha * log_lam)
    log_geo = min(0.0, alpha * (gap + k * log_lam)) + math.log(geometric)
    return log_geo if k == 1 else math.log(k - 1 + math.exp(log_geo))


def _log_jcrit(alpha: float, log_lam: float, r: int) -> float:
    """log Jcrit(r) in threshold units: Kaplan's level of J from which blow-up comes in r steps.

    F(y) = y / (1 - alpha*delta*y^alpha)^(1/alpha) is convex and increasing, so by Jensen
    J = phi.f/sum(phi) obeys J' >= F(lam J), and J >= Jcrit(r) blows up within r more steps, where
    Jcrit(0) = threshold/lam and Jcrit(r+1) = F^-1(Jcrit(r))/lam. In u = (Jcrit/threshold)^-alpha,
    F^-1 adds 1 and dividing by lam multiplies by lam^alpha, so u(0) = lam^alpha and
    u(r) = lam^alpha*(u(r-1) + 1) = e^t*sum_{j=0..r} e^(j*t) with t = alpha*log(lam), the
    survival side's geometric sum; Jcrit(r) falls to J* = threshold*(1 - lam^alpha)^(1/alpha)/lam.
    """
    t = alpha * log_lam
    return -(t + math.log(_geometric(r + 1, t))) / alpha


class _Probe:
    """simulate's outcome for amplitude times one profile, found with two early exits.

    `_Probe(profile, peak, ...)` takes checked data and the maximum the check returned, and a call
    `probe(amplitude)` runs the loop of `simulate(amplitude * profile, p, S, eps_blow)`,
    `_Stepper.loop`, on the probe's stepper, and returns simulate's blow-up step, or None for
    survival. Two exits end a run once its outcome is certain; the map is a semigroup, so each
    applies to the current state as new data. Both hold in exact arithmetic. Survival is
    `_log_majorant_sum`'s certificate for kappa = alpha*delta/(1 - eps_blow), whose dynamics
    dominates; blow-up, with `blowup_exit`, is `_log_jcrit`'s bound, at the current step, no
    later than simulate's: eps_blow > 0 only brings blow-up forward. Sweeps, which report the
    blow-up step, go without it.

    A profile that `_mirror_symmetric` passes runs on a `mirror` stepper, one orthant of the box,
    as amplitude times it is symmetric too, and the exits read that orthant: C from phi on it, and
    phi.f from phi weighted by the sites each orthant site stands for (`_mirror_multiplicity`).
    np.sin's phi is symmetric to rounding, and these sums add in another order, which the margin
    absorbs.
    """

    def __init__(
        self, profile: Field, peak: float, p: Params, S: int, eps_blow: float, blowup_exit: bool
    ) -> None:
        domain, mirror = profile.domain, _mirror_symmetric(profile.values)
        self._stepper = stepper = _Stepper(domain, p, eps_blow, False, mirror)
        self._peak, self._unit = peak, profile.values[stepper.core] + 0.0  # -0.0 made +0.0
        self._p, self._S = p, S
        log_coupling = math.log(p.alpha) + math.log(p.delta)
        phi, lam, self._phi_sum = mode_table(domain).principal
        core = stepper.core  # its sites' interior, in its buffers and in phi
        weights = phi  # on an orthant, times the number of box sites each site stands for
        if mirror:
            weights = np.zeros(stepper.f.shape)
            weights[core] = phi[core] * _mirror_multiplicity(domain.extents)
        self._phi, self._core, self._phi_core = weights.ravel(), core, phi[core]
        self._log_lam = math.log(lam) if lam > 0 else -math.inf
        self._log_survival = -math.inf  # log kappa*sum must fall below it
        if eps_blow < 1:  # else every step blows up
            self._log_survival = math.log1p(-_EXIT_MARGIN) - log_coupling + math.log1p(-eps_blow)
        # all extents 2: lam = cos(pi/2) = 0 is 6.1e-17 as a double, and the exit would misfire
        self._blowup_exit = blowup_exit and any(N > 2 for N in domain.extents)
        self._log_threshold = math.log1p(_EXIT_MARGIN) - log_coupling / p.alpha  # with the margin

    def _exits(self, s: int, f: np.ndarray, max_f: float) -> bool | None:
        """The run's exits at step s: False for certified survival, True for Kaplan's blow-up."""
        if s % _BLOWUP_EVERY:  # so s % _SURVIVAL_EVERY too: no exit is tested
            return None
        alpha, log_lam = self._p.alpha, self._log_lam
        if s % _SURVIVAL_EVERY == 0 and max_f > 0:
            gap = math.log(float((f[self._core] / self._phi_core).max()) / max_f)  # log(C/M) >= 0
            log_sum = _log_majorant_sum(alpha, log_lam, gap, self._S - s + 1)
            if alpha * math.log(max_f) + log_sum < self._log_survival:
                return False
        if self._blowup_exit:
            J = float(self._phi @ f.ravel()) / self._phi_sum
            log_jcrit = self._log_threshold + _log_jcrit(alpha, log_lam, self._S - s)
            if J > 0 and math.log(J) >= log_jcrit:
                return True
        return None

    def __call__(self, amplitude: float) -> int | None:
        """The outcome for amplitude * profile, at an amplitude >= 0 whose product with peak its
        caller checked finite (`_bracket_top`, `cli._check_data`). The interior is bit for bit
        simulate's profile * amplitude + 0.0, and its max amplitude * peak (monotone rounding)."""
        peak = amplitude * self._peak
        stepper = self._stepper  # + 0.0: an amplitude of -0.0 would write -0.0 into the state
        np.multiply(self._unit, amplitude + 0.0, out=stepper.f[stepper.core])
        s, stop = stepper.loop(peak, self._S, self._exits)
        return None if stop is None or stop is False else s


@dataclass(frozen=True)
class ThresholdResult:
    amplitude: float
    hit_ceiling: bool  # no blow-up even at the bracketing upper amplitude
    evaluations: list[tuple[float, bool]]  # (amplitude, blew_up) in probe order


def _bracket_top(peak: float, p: Params) -> float:
    """The bisection's upper amplitude, which puts the profile maximum, `peak`, at the threshold."""
    if not (peak > 0 and peak * (p.threshold / peak) < math.inf):  # the top probe is finite
        raise ValueError(f"profile maximum must be > 0, and threshold/maximum finite: {peak!r}")
    return p.threshold / peak


def find_threshold(
    profile: Field, p: Params, S: int, tol: float, eps_blow: float = 0.0
) -> ThresholdResult:
    """Bisect the amplitude separating survival from blow-up within S steps.

    Valid because the dynamics is monotone in the initial data. The upper
    bracket puts the profile maximum at the blow-up threshold; if even that
    survives S steps, the bracket ceiling is reported. A probe's outcome is
    that of `simulate(amplitude * profile, p, S, eps_blow)`; it stops as soon
    as that outcome is certain.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    peak = _check_solution_field(profile)
    hi = _bracket_top(peak, p)
    probe = _Probe(profile, peak, p, S, eps_blow, blowup_exit=True)
    evaluations: list[tuple[float, bool]] = []

    def blows_up(lam: float) -> bool:
        blew = probe(lam) is not None
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
