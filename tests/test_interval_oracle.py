"""The exact map on the input doubles, enclosed in 200-bit interval arithmetic (Moore 1966).

Every other oracle of the dynamics is a float reference path, which shares the kernel's
rounding or is compared with it bit for bit. Here the update
f' = g/(1 - alpha*delta*g^alpha)^(1/alpha) runs site by site in `mpmath.iv`, from the input
doubles, which are exact. At each step the enclosure of every denominator either lies above 0
(no real trajectory in it blows up there), has a site at or below 0 (every one does), or
straddles 0 (undecided).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeheat import (BoxDomain, Field, Params, Survived, cli, compute_trace, find_threshold,
                         regime_bound, simulate, verify_comparison)

from conftest import interior_sites, random_field

mpmath = pytest.importorskip("mpmath")

_BITS = 200
_BOXES = [(5,), (8,), (4, 4), (3, 5), (3, 3, 3)]
_ALPHAS = [0.5, 1.0, 2.0]
_DELTA = 0.5
_S = 40
_TOL = 1e-9  # the searches' tolerance, so that the amplitudes A*(1 -+ 1e-6) straddle A
_SIDES = (-1e-6, 1e-6)
_CLI_TOL = next(default for key, _, default, _ in cli._CONFIG if key == "threshold_tol")


# x^alpha and x^(1/alpha) at alpha in {1/2, 1, 2}: exact interval operations at the context's bits
_POWERS = {0.5: (mpmath.iv.sqrt, lambda x: x * x), 1.0: (lambda x: x, lambda x: x),
           2.0: (lambda x: x * x, mpmath.iv.sqrt)}


def _exact_mean(f, d):
    """The interior neighbor mean of the full-shape object array f, in f's interval context."""
    total = np.full(d.interior_shape, mpmath.iv.mpf(0), dtype=object)
    for k in range(d.dims):
        for shift in (slice(2, None), slice(0, -2)):
            view = list(d.core)
            view[k] = shift
            total = total + f[tuple(view)]
    return total / (2 * d.dims)


def _enclosure(a, p, S, states=None):
    """The exact map's outcome from the doubles of `a`: ("blew_up", s), ("survived", S), or
    ("undecided", s) at the first step s whose denominators' enclosure decides neither; the
    enclosures of f^0, f^1, ... up to that step go to `states`, if given.

    Blow-up at step s is simulate's: the mean g of the state f^s has a site where
    1 - alpha*delta*g^alpha <= 0. g^alpha and the root D^(1/alpha) are `_POWERS`."""
    iv = mpmath.iv
    prec, iv.prec = iv.prec, _BITS
    try:
        lift, root = _POWERS[p.alpha]
        coupling = iv.mpf(p.alpha) * iv.mpf(p.delta)
        d = a.domain
        f = np.empty(d.shape, dtype=object)
        f.flat = [iv.mpf(float(x)) for x in a.values.flat]
        for s in range(S + 1):
            if states is not None:
                states.append(f)
            g = list(_exact_mean(f, d).flat)
            denom = [1 - coupling * lift(x) for x in g]
            if any(x.b <= 0 for x in denom):
                return "blew_up", s
            if not all(x.a > 0 for x in denom):
                return "undecided", s
            f = f.copy()
            f[d.core] = np.array([x / root(y) for x, y in zip(g, denom)],
                                 dtype=object).reshape(d.interior_shape)
        return "survived", S
    finally:
        iv.prec = prec


def _exact_majorant(a, alpha, steps):
    """(1 - P_s, fbar^s) for s < steps, enclosed: fbar^s = h^s/(1 - P_s)^(1/alpha) from the exact
    linear flow h^s of the doubles of `a`, its interior maxima m_s and P_s = m_0^alpha + ... +
    m_s^alpha on nonnegative data; fbar^s is None where 1 - P_s is not enclosed above 0."""
    iv = mpmath.iv
    prec, iv.prec = iv.prec, _BITS
    try:
        lift, root = _POWERS[alpha]
        d = a.domain
        h = np.empty(d.shape, dtype=object)
        h.flat = [iv.mpf(float(x)) for x in a.values.flat]
        P, majorant = iv.mpf(0), []
        for s in range(steps):
            if s:
                h = h.copy()
                h[d.core] = _exact_mean(h, d)
            sites = list(h[d.core].flat)
            P = P + lift(iv.mpf([max(x.a for x in sites), max(x.b for x in sites)]))
            rest = 1 - P
            majorant.append((rest, h / root(rest) if rest.a > 0 else None))
        return majorant
    finally:
        iv.prec = prec


def _near_threshold_cases(extents, alpha, seed, tol=_TOL, sides=_SIDES):
    """find_threshold's result at `tol` for random data on the box, and (data, params) at its
    answer times 1 + side for each side."""
    d = BoxDomain(extents)
    profile = random_field(np.random.default_rng(seed), d)
    p = Params(alpha, _DELTA)
    found = find_threshold(profile, p, _S, tol)
    return found, [(Field(d, profile.values * (found.amplitude * (1 + side))), p) for side in sides]


def _simulated(a, p):
    out = simulate(a, p, _S).outcome
    return ("survived", _S) if isinstance(out, Survived) else ("blew_up", out.step)


def test_simulate_matches_the_enclosure_near_the_threshold():
    # 30 cases: every box, alpha and side once. Measured: all 30 decided, 19 survive and 11
    # blow up at steps 30 to 40, at about 0.75 s for the searches and the enclosures
    outcomes, undecided = [], 0
    for i, extents in enumerate(_BOXES):
        for alpha in _ALPHAS:
            _, cases = _near_threshold_cases(extents, alpha, seed=100 * i + int(4 * alpha))
            for a, p in cases:
                want = _enclosure(a, p, _S)
                if want[0] == "undecided":
                    undecided += 1
                    continue
                assert _simulated(a, p) == want, (extents, alpha, a.values)
                outcomes.append(want[0])
    assert undecided <= 3  # a share of at most 10 %
    assert outcomes.count("blew_up") >= 5 and outcomes.count("survived") >= 5


def test_threshold_brackets_the_exact_map_at_the_cli_tolerance():
    # find_threshold's guarantee: below its ceiling, A*(1-tol) survives S steps and A*(1+tol)
    # blows up within S. Measured on this grid: 11 of the 15 searches end below the ceiling,
    # and every one of their 22 enclosures decides and agrees, with blow-ups at steps 13 to 40
    sides, checked, undecided, ceilings = (-_CLI_TOL, _CLI_TOL), 0, 0, 0
    for i, extents in enumerate(_BOXES):
        for alpha in _ALPHAS:
            found, cases = _near_threshold_cases(extents, alpha, 100 * i + int(4 * alpha),
                                                 _CLI_TOL, sides)
            if found.hit_ceiling:
                ceilings += 1
                continue
            low, high = (_enclosure(a, p, _S) for a, p in cases)
            undecided += [low[0], high[0]].count("undecided")
            assert low[0] == "undecided" or low == ("survived", _S), (extents, alpha, low)
            assert high[0] in ("undecided", "blew_up"), (extents, alpha, high)
            checked += 2
    assert ceilings <= 5 and undecided <= checked // 10  # a share of at most 10 %


def test_the_bound_certificate_survives_in_the_exact_map():
    # soundness of `bound`: where its series reads 0.9 < 1, the majorant exists at every step, so
    # no step blows up. On this grid's random data, scaled to the amplitude where regime_bound
    # reads 0.9 (the bound is A^alpha times its value at A = 1), the enclosure of the exact map
    # on the data's doubles survives S steps. The 10 % headroom absorbs the rounding of A and
    # of the threshold scaling, as the exact map is conjugate to the scaled one.
    outcomes = []
    for i, extents in enumerate(_BOXES):
        for alpha in _ALPHAS:
            d, p = BoxDomain(extents), Params(alpha, _DELTA)
            profile = random_field(np.random.default_rng(100 * i + int(4 * alpha)), d)
            unit = regime_bound(cli._scaled(profile, 1.0, p), alpha).bound_value
            amplitude = (0.9 / unit) ** (1 / alpha)
            bound = regime_bound(cli._scaled(profile, amplitude, p), alpha).bound_value
            assert bound == pytest.approx(0.9, rel=1e-9), (extents, alpha)
            outcomes.append(_enclosure(Field(d, profile.values * amplitude), p, _S)[0])
            assert outcomes[-1] in ("survived", "undecided"), (extents, alpha)
    assert outcomes.count("undecided") <= len(outcomes) // 10  # a share of at most 10 %


def test_the_majorant_dominates_in_the_exact_map():
    # the paper's comparison fbar^s >= f^s, in exact arithmetic on the data's doubles: wherever
    # verify_comparison holds, the enclosure of fbar^s lies above that of f^s at every interior
    # site of every step it compared, and no such step blows up. The grid's random data is
    # scaled to two amplitudes (P_s is A^alpha times its value at A = 1): where P_S reads 0.9,
    # so that every step is compared, and where 1 lies halfway between P_19 and P_20, so that
    # steps 0..19 are
    decided, undecided = 0, 0
    for i, extents in enumerate(_BOXES):
        for alpha in _ALPHAS:
            d, p = BoxDomain(extents), Params(alpha, 1 / alpha)  # verify's scaled dynamics
            profile = random_field(np.random.default_rng(100 * i + int(4 * alpha)), d)
            unit = compute_trace(profile, alpha, _S).partial_sums
            for scale in (0.9 / unit[_S], 2 / (unit[19] + unit[20])):
                a = Field(d, profile.values * scale ** (1 / alpha))
                verdict = verify_comparison(a, alpha, _S)
                assert verdict.holds, (extents, alpha, scale)
                steps, states = len(verdict.margins), []  # the compared steps are 0..steps - 1
                # f^0..f^(steps - 1), and the step after them, which verify does not compare
                outcome = _enclosure(a, p, steps - 1, states)
                assert outcome[0] != "blew_up" or outcome[1] == steps - 1, (extents, alpha, scale)
                rests, fbars = zip(*_exact_majorant(a, alpha, steps))
                assert not any(rest.b <= 0 for rest in rests), (extents, alpha, scale)  # P_s >= 1
                if len(states) < steps or any(fbar is None for fbar in fbars):
                    undecided += 1
                    continue
                cells = [(fbar[n], f[n]) for fbar, f in zip(fbars, states) for n in interior_sites(d)]
                assert not any(fbar.b < f.a for fbar, f in cells), (extents, alpha, scale)
                if all(fbar.a >= f.b for fbar, f in cells):
                    decided += 1
                else:
                    undecided += 1
    assert undecided <= (decided + undecided) // 10  # a share of at most 10 %


@settings(max_examples=10, deadline=None)
@given(extents=st.sampled_from(_BOXES), alpha=st.sampled_from(_ALPHAS),
       seed=st.integers(0, 2**32 - 1))
def test_simulate_matches_the_enclosure_where_it_decides(extents, alpha, seed):
    for a, p in _near_threshold_cases(extents, alpha, seed)[1]:
        want = _enclosure(a, p, _S)
        assert want[0] == "undecided" or _simulated(a, p) == want
