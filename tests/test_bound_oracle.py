"""The alpha <= 1 regime bound, the tail start and compute_trace against exact sums at 40 digits.

`bound_alpha_le_1(1.0, table, alpha)` is the series sum over modes m of 1/(1 - |lambda_m|^alpha),
on the table's rounded eigenvalues lambda_m = (1/d) sum_k cos(m_k pi/N_k). Here the same series
is summed in mpmath over the exact eigenvalues, on every box with d = 1..3 and extents 2..6
(155 boxes) at four alphas. A mode whose cosines cancel has lambda_m exactly 0, which the table
stores as a rounded residue of about 6e-17; raised to a small alpha, the residue inflates its term
(ROADMAP item 7). The float series may lie above the exact one there, and never below it.

`ModeTable.tail_start`, the least s with sum over modes of |c|^s below 1, is held to the least s
with the exact sum below 1, wherever the exact sums decide the float's comparisons with 1.

`compute_trace`'s partial sums, on a sample of the boxes, are held to those of the linear flow
run exactly from the same doubles, within an a-priori rounding bound. So are `analyze`'s largest
coefficient B_max, against the transform with exact sines, and `bound_alpha_gt_1`'s head and
tail, against the same sums over the exact maxima, eigenvalues and B_max.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from latticeheat import (BoxDomain, Field, analyze, bound_alpha_gt_1, bound_alpha_le_1,
                         compute_trace, mode_table)

mpmath = pytest.importorskip("mpmath")

_ALPHAS = (0.01, 0.1, 0.5, 1.0)
_BOXES = [extents for d in (1, 2, 3) for extents in itertools.product(range(2, 7), repeat=d)]
_EPS = np.finfo(float).eps
# |c - |lambda|| for a table entry c, a priori: each cosine's argument m*pi/N is two roundings
# of the real one (np.pi among them), under 3 eps relative of at most pi, so under 10 eps; np.cos
# is within 4 ulps of 1; the sum over d axes and its division by d add 2 eps at most
_DELTA = 16 * _EPS


@functools.lru_cache(maxsize=None)
def _exact_eigenvalue(fractions: tuple) -> mpmath.mpf:
    """|lambda_m| at 40 digits for the sorted (m_k, N_k), 0 where the cosines cancel: a real
    cancellation leaves a residue under 1e-38, and no other eigenvalue here lies below 0.019."""
    with mpmath.workdps(40):
        lam = abs(mpmath.fsum(mpmath.cos(m * mpmath.pi / n) for m, n in fractions))
        return lam / len(fractions) if lam > mpmath.mpf(10) ** -30 else mpmath.mpf(0)


@functools.lru_cache(maxsize=None)
def _exact_eigenvalues(extents: tuple) -> list:
    """|lambda_m| at 40 digits for every mode of the box, in the table's order."""
    modes = itertools.product(*(range(1, n) for n in extents))
    return [_exact_eigenvalue(tuple(sorted(zip(m, extents)))) for m in modes]


@functools.lru_cache(maxsize=None)
def _cases() -> list:
    """(extents, alpha, float series, its error over the exact one, tolerance, whether some
    lambda_m is 0).

    The tolerance bounds the float series' distance from the exact one to first order in eps,
    doubled for the higher orders, leaving out how far a zero eigenvalue's term lies above 1.
    With x = |lambda|^alpha and t = 1/(1 - x), c^alpha is within alpha*DELTA/|lambda| + 2 eps of
    x relatively (np.power within 2 ulps), which moves t by x/(1 - x) times that, relatively;
    1 - x and its reciprocal add 2 eps. A zero eigenvalue's term is 1 exactly, and its float
    term 1/(1 - c^alpha) is at least 1, so it adds nothing below. Summing n float terms in any
    order adds (n - 1) eps times their sum (Higham 2002, section 4.2).
    """
    cases = []
    for extents in _BOXES:
        table = mode_table(BoxDomain(extents))
        lams = _exact_eigenvalues(extents)
        lam = np.array(lams, dtype=float)
        nonzero = lam > 0
        for alpha in _ALPHAS:
            got = bound_alpha_le_1(1.0, table, alpha).bound_value
            with mpmath.workdps(40):
                exact = mpmath.fsum(1 / (1 - v ** mpmath.mpf(alpha)) for v in lams)
                error = float(mpmath.mpf(got) - exact)  # got is a double, so exact in mpf
            x = lam[nonzero] ** alpha
            t = 1.0 / (1.0 - x)
            per_term = t * (x / (1.0 - x) * (alpha * _DELTA / lam[nonzero] + 2 * _EPS) + 2 * _EPS)
            tol = 2 * (per_term.sum() + (lam.size - 1) * _EPS * got)
            cases.append((extents, alpha, got, error, tol, not nonzero.all()))
    return cases


def test_the_oracle_covers_every_box_and_both_kinds():
    cases = _cases()
    assert len(cases) == 155 * len(_ALPHAS) == 620
    zero_boxes = {extents for extents, *_, zero in cases if zero}
    assert (2, 2) in zero_boxes and (4, 6) in zero_boxes and (3, 5) not in zero_boxes
    assert 0 < len(zero_boxes) < len(_BOXES)


def test_the_float_series_never_lies_below_the_exact_one():
    # rounding moves each nonzero eigenvalue's term either way; a zero eigenvalue's only up
    for extents, alpha, got, error, tol, _ in _cases():
        assert math.isfinite(got) and error >= -tol, (extents, alpha, got, error, tol)


def test_the_float_series_equals_the_exact_one_without_zero_eigenvalues():
    for extents, alpha, got, error, tol, zero in _cases():
        if not zero:
            assert abs(error) <= tol, (extents, alpha, got, error, tol)


def _tail_tolerance(lam: np.ndarray, s: int) -> float:
    """A bound on |float(np.sum(c**s)) - sum |lambda|^s| for the table's |c| near lam = |lambda|.

    At s = 0 every c**0 is 1 and the float sum is the mode count, exactly. For s >= 1, with
    |c - lam| <= DELTA, the mean value theorem puts c^s within s*(lam + DELTA)^(s-1)*DELTA of
    lam^s; np.power adds 2 eps relative, and the sum (n - 1) eps times the sum of the terms
    (Higham 2002, section 4.2). The bound is doubled for the products of these errors.
    """
    if s == 0:
        return 0.0
    upper = lam + _DELTA
    terms = s * upper ** (s - 1) * _DELTA + 2 * _EPS * upper**s
    return 2 * (terms.sum() + (lam.size - 1) * _EPS * (upper**s).sum())


@functools.lru_cache(maxsize=None)
def _tail_cases() -> list:
    """(extents, the table's tail_start, s0*, whether the exact sum at s0* - 1 is exactly 1,
    whether the decisions that fix the search's answer are decided).

    s0* is the least s with sum over modes of |lambda_m|^s below 1, summed at 40 digits. The
    exact sum is exactly 1 only by an identity of the cosines, which leaves a residue under
    1e-38; every other sum at s0* - 1 or s0* lies at least 0.012 from 1. A decision at s is
    decided where the exact sum lies farther from 1 than `_tail_tolerance`, so that the float
    sum is on the same side of 1.
    """
    cases = []
    for extents in _BOXES:
        lams = _exact_eigenvalues(extents)
        lam = np.array(lams, dtype=float)
        with mpmath.workdps(40):
            sums, powers = [mpmath.mpf(len(lams))], [mpmath.mpf(1)] * len(lams)
            while sums[-1] >= 1:
                powers = [p * v for p, v in zip(powers, lams)]
                sums.append(mpmath.fsum(powers))
            s0 = len(sums) - 1
            tie = abs(sums[s0 - 1] - 1) < mpmath.mpf(10) ** -30
            # at a tie the float may round either way at s0* - 1, so s0* - 2 must be decided
            near = (s0 - 2, s0) if tie else (s0 - 1, s0)
            decided = all(abs(sums[s] - 1) > _tail_tolerance(lam, s) for s in near if s >= 0)
        cases.append((extents, mode_table(BoxDomain(extents)).tail_start, s0, tie, decided))
    return cases


def test_tail_start_is_the_exact_first_s_below_1():
    # the table's search decides float(np.sum(c**s)) < 1; the exact sums decide every box but
    # the ties, where the exact sum at s0* - 1 is exactly 1: 0^0 on a one-mode box, 2*(1/2)^1
    # on (3,) and (3, 3), and 2*(1/sqrt 2)^2 on (4,)
    cases = _tail_cases()
    assert len(cases) == 155 and all(decided for *_, decided in cases)
    ties = {extents for extents, _, _, tie, _ in cases if tie}
    assert ties == {(2,), (2, 2), (2, 2, 2), (3,), (3, 3), (4,)}
    for extents, got, s0, tie, _ in cases:
        # On a tie the float may find the sum below 1 at s0* - 1. bound_alpha_gt_1's tail stays
        # sound there: it bounds m_k^alpha by B_max^alpha * sum |c|^k for k >= tail_start, which
        # holds wherever sum |c|^k <= 1, as x^alpha <= x for 0 <= x <= 1 and alpha > 1
        assert got == s0 or (tie and got == s0 - 1), (extents, got, s0)
    # rounding breaks one tie: on (3,) the rounded cosines sum to 1 - 1.1e-16
    assert [extents for extents, got, s0, *_ in cases if got != s0] == [(3,)]


_TRACE_S = 40
_U = _EPS / 2  # the unit roundoff
# every 1-D box, every third 2-D box and every ninth 3-D box, from the largest down: 28 boxes
_TRACE_BOXES = [extents for d, every in ((1, 1), (2, 3), (3, 9))
                for extents in [b for b in _BOXES if len(b) == d][::-every]]


def _gamma(n: int) -> mpmath.mpf:
    """gamma_n = n u / (1 - n u), the bound on n roundings (Higham 2002, section 3.4)."""
    return n * mpmath.mpf(_U) / (1 - n * mpmath.mpf(_U))


def _exact_maxima(values: np.ndarray, S: int) -> list:
    """m_0..m_S, the interior maxima of the linear flow from the doubles `values`, at 40 digits:
    each step is the exact mean of the 2d axis neighbours at every interior site."""
    h = np.vectorize(mpmath.mpf, otypes=[object])(values)
    core = tuple(slice(1, n - 1) for n in h.shape)

    def shifted(axis, by):
        return tuple(slice(1 + by, n - 1 + by) if k == axis else s
                     for k, (n, s) in enumerate(zip(h.shape, core)))

    maxima = [max(h[core].ravel())]
    for _ in range(S):
        mean = sum(h[shifted(k, by)] for k in range(h.ndim) for by in (-1, 1)) / (2 * h.ndim)
        h = np.full(h.shape, mpmath.mpf(0), dtype=object)
        h[core] = mean
        maxima.append(max(h[core].ravel()))
    return maxima


def test_compute_trace_partial_sums_lie_within_their_rounding_bound():
    # compute_trace(a, alpha, S).partial_sums against P_s = sum_{k<=s} m_k^alpha of the exact
    # flow from the same doubles, on data in [0.01, 1]. A priori: a step sums 2d nonnegative
    # terms, 2d - 1 roundings, and scales them, one more (none for d = 1, 2), so every float
    # state lies within (1 +- gamma_2d)^s of the exact one, site by site, and so does its
    # maximum. No value underflows: a nonzero one is at least 0.01 (2d)^-s > 1e-34. The power
    # (x, x*x or sqrt) adds u, so the float term lies within e_s = max((1 + gamma_2d)^(alpha s)
    # (1 + u) - 1, 1 - (1 - gamma_2d)^(alpha s) (1 - u)) of t_s = m_s^alpha, relatively, and
    # np.cumsum's sequential sum of s + 1 terms adds gamma_s times their sum (Higham 2002,
    # section 4.2): |float P_s - P_s| <= sum_k e_k t_k + gamma_s sum_k (1 + e_k) t_k.
    # Every P_s here lies farther from 1 than that, so defined_up_to, the last s with P_s < 1,
    # is the exact one (0 on most boxes; S where the flow dies out at once, as on (2,)).
    for i, extents in enumerate(_TRACE_BOXES):
        d = BoxDomain(extents)
        a = Field.from_interior(d, np.random.default_rng(i).uniform(0.01, 1.0, d.interior_shape))
        with mpmath.workdps(40):
            maxima = _exact_maxima(a.values, _TRACE_S)
            g, u = _gamma(2 * d.dims), mpmath.mpf(_U)
            for alpha in (0.5, 1.0, 2.0):
                trace = compute_trace(a, alpha, _TRACE_S)
                assert trace.partial_sums.size == _TRACE_S + 1
                exact = spread = total = mpmath.mpf(0)
                for s, m in enumerate(maxima):
                    t, x = m ** mpmath.mpf(alpha), alpha * s
                    e = max((1 + g) ** x * (1 + u) - 1, 1 - (1 - g) ** x * (1 - u))
                    exact, spread, total = exact + t, spread + e * t, total + (1 + e) * t
                    bound = spread + _gamma(s) * total
                    got = mpmath.mpf(float(trace.partial_sums[s]))
                    assert abs(got - exact) <= bound, (extents, alpha, s, got, exact, bound)
                    assert abs(exact - 1) > bound, (extents, alpha, s)
                    assert (s <= trace.defined_up_to) == (exact < 1), (extents, alpha, s)
    assert len(_TRACE_BOXES) == 28


# every other box of sorted extents, d = 1..3: 28 boxes
_SORTED_BOXES = [extents for extents in _BOXES if list(extents) == sorted(extents)][::2]


def _sorted_box_data(i: int, extents: tuple) -> Field:
    """The i-th box's data: uniform in [0.01, 1] on its interior, seeded by i."""
    d = BoxDomain(extents)
    return Field.from_interior(d, np.random.default_rng(i).uniform(0.01, 1.0, d.interior_shape))


def _b_max_bound(a: Field) -> tuple:
    """(B_max of the exact transform of a's interior at 40 digits, its a-priori rounding bound).

    The exact B_m is norm sum_n a_n prod_k sin(m_k n_k pi/N_k), norm = prod_k 2/N_k. A priori,
    per `_sine_matrix`: the integer product m n is exact, and the argument fl(fl(m n pi^)/N) is
    three roundings of m n pi/N < pi N (np.pi's own among them), so within 3 pi N u of it; sin is
    1-Lipschitz and np.sin adds at most 1 ulp, 2u. So every sine lies within eps = (3 pi N + 2)u
    of the exact one, N the largest extent, and a product of d of them, each at most 1, within
    (1 + eps)^d - 1. Axis k's dot products over N_k - 1 terms, in any order, add gamma_(N_k - 1)
    per term (Higham 2002, section 3.1), and the d of them gamma_n, n = sum_k (N_k - 1). The norm
    is d divisions and d - 1 products, and scaling by it one product more: gamma_2d. So every
    coefficient, and B_max with them, lies within
    norm sum|a| ((1 + eps)^d (1 + gamma_n) (1 + gamma_2d) - 1) of the exact one.
    """
    extents, u = a.domain.extents, mpmath.mpf(_U)
    with mpmath.workdps(40):
        out = np.vectorize(mpmath.mpf, otypes=[object])(a.interior())
        for k, n in enumerate(extents):
            sines = np.array([[mpmath.sin(i * j * mpmath.pi / n) for j in range(1, n)]
                              for i in range(1, n)], dtype=object)
            out = np.moveaxis(np.tensordot(sines, out, axes=(1, k)), 0, k)
        norm = mpmath.fprod(mpmath.mpf(2) / n for n in extents)
        exact = norm * max(abs(x) for x in out.ravel())
        eps = (3 * mpmath.pi * max(extents) + 2) * u
        n, d = sum(n - 1 for n in extents), len(extents)
        total = mpmath.fsum(mpmath.mpf(float(x)) for x in np.abs(a.interior()).ravel())
        return exact, norm * total * ((1 + eps) ** d * (1 + _gamma(n)) * (1 + _gamma(2 * d)) - 1)


def test_b_max_lies_within_its_rounding_bound():
    # analyze(a).max_abs, the B_max of every certificate, on data in [0.01, 1]; the largest error
    # is a few percent of the bound
    assert len(_SORTED_BOXES) == 28
    for i, extents in enumerate(_SORTED_BOXES):
        a = _sorted_box_data(i, extents)
        exact, bound = _b_max_bound(a)
        with mpmath.workdps(40):
            got = mpmath.mpf(analyze(a).max_abs)
            assert abs(got - exact) <= bound, (extents, got, exact, bound)


def test_bound_alpha_gt_1_lies_within_its_rounding_bound():
    # bound_alpha_gt_1(B_max, table, alpha, m) is head + tail: head = sum_{k<s0} m_k^alpha over
    # compute_trace's maxima, and tail = B_max^alpha sum_m |c_m|^s0/(1 - |c_m|) over the table's
    # eigenvalues, s0 = tail_start. Each is held to the same sum over the exact flow's maxima
    # (from the same doubles), the exact |lambda_m| and the exact B_max, at the same s0; a zero
    # B_max isolates the head and a zero prefix the tail. A priori, with g = gamma_2d:
    # - head: m_k lies within (1 +- g)^k of the exact maximum, as in the partial sums' test;
    #   np.power adds gamma_2 (1 ulp, or two products), so a term lies within e_k =
    #   max((1 + g)^(alpha k)(1 + gamma_2) - 1, 1 - (1 - g)^(alpha k)(1 - gamma_2)) of t_k
    #   relatively, and np.sum adds gamma_s0 times the terms' sum (Higham 2002, section 4.2).
    # - the series: |c - lambda| <= _DELTA, which moves f(x) = x^s0/(1 - x) by at most
    #   f'(lambda + _DELTA) _DELTA, f' increasing on [0, 1); the power, the subtraction and the
    #   division add gamma_4 relatively, and np.sum gamma_n times the terms' sum, n modes.
    # - B_max^alpha: B_max lies within beta of the exact one (`_b_max_bound`), which moves the
    #   power by at most alpha (B + beta)^(alpha - 1) beta; np.power adds gamma_2. The product with
    #   the series and the sum of head and tail add u each.
    for i, extents in enumerate(_SORTED_BOXES):
        a = _sorted_box_data(i, extents)
        table = mode_table(a.domain)
        s0, d = table.tail_start, a.domain.dims
        b_exact, beta = _b_max_bound(a)
        b_max = analyze(a).max_abs
        lams = _exact_eigenvalues(extents)
        with mpmath.workdps(40):
            maxima = _exact_maxima(a.values, s0 - 1)
            g, u, delta = _gamma(2 * d), mpmath.mpf(_U), mpmath.mpf(_DELTA)
            series = series_bound = upper_sum = mpmath.mpf(0)
            for lam in lams:
                assert lam + delta < 1
                f = lam**s0 / (1 - lam)
                slope = (s0 * (lam + delta) ** (s0 - 1) / (1 - lam - delta)
                         + (lam + delta) ** s0 / (1 - lam - delta) ** 2) * delta
                series, upper_sum = series + f, upper_sum + f + slope
                series_bound += slope + _gamma(4) * (f + slope)
            series_bound += _gamma(len(lams)) * (1 + _gamma(4)) * upper_sum
            for alpha in (1.5, 2.0, 3.0):
                trace = compute_trace(a, alpha, s0)
                head = bound_alpha_gt_1(0.0, table, alpha, trace.m).bound_value
                tail = bound_alpha_gt_1(b_max, table, alpha, np.zeros(s0)).bound_value
                got = bound_alpha_gt_1(b_max, table, alpha, trace.m).bound_value
                assert got == head + tail, (extents, alpha)
                x = mpmath.mpf(alpha)
                terms = [m**x for m in maxima]
                errors = [max((1 + g) ** (x * k) * (1 + _gamma(2)) - 1,
                              1 - (1 - g) ** (x * k) * (1 - _gamma(2))) for k in range(s0)]
                head_exact = mpmath.fsum(terms)
                head_bound = mpmath.fsum(e * t for e, t in zip(errors, terms)) + _gamma(s0) * (
                    mpmath.fsum((1 + e) * t for e, t in zip(errors, terms)))
                power = b_exact**x
                power_bound = (x * (b_exact + beta) ** (x - 1) * beta
                               + _gamma(2) * (b_exact + beta) ** x)
                tail_exact = power * series
                tail_bound = (power_bound * (series + series_bound) + power * series_bound
                              + u * (power + power_bound) * (series + series_bound))
                exact = head_exact + tail_exact
                bound = head_bound + tail_bound + u * (exact + head_bound + tail_bound)
                for name, value, want, tol in (("head", head, head_exact, head_bound),
                                               ("tail", tail, tail_exact, tail_bound),
                                               ("bound", got, exact, bound)):
                    error = abs(mpmath.mpf(value) - want)
                    assert error <= tol, (extents, alpha, name, value, want, tol)
