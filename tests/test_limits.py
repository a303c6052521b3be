"""Two limits of the paper's lattice map, read off `find_threshold` as the box grows.

Fujita's critical exponent (Fujita 1966; Kobayashi, Sirao and Tanaka 1977): below alpha = 2/d no
positive data exists globally on Z^d, and on a box of side N the threshold of data localised at
the centre falls like N^(d - 2/alpha).

The continuum limit: with h = 1/N and delta = 1/(2 d N^2), a lattice step is a Lie-Trotter step of
u_t = Laplace(u) + u^(1 + alpha) on the unit cube with zero boundary values (Trotter 1959), so the
threshold of fixed continuum data converges like A* + C N^-2. For A sin(pi x) in 1-D at alpha = 1,
A* lies between the principal eigenvalue pi^2, below which the data exists globally, and
(4/pi) pi^2, above which Kaplan's eigenfunction argument blows it up.
"""

import math

import numpy as np

from latticeheat import BoxDomain, Field, Params, find_threshold, mode_table
from latticeheat.domain import _mirror_symmetric


def _thresholds(runs, tol):
    """find_threshold's amplitude for each (profile, params, S); none may be the bracket
    ceiling."""
    found = [find_threshold(profile, p, S, tol) for profile, p, S in runs]
    assert not any(r.hit_ceiling for r in found)
    return [r.amplitude for r in found]


def _delta(d, N):
    """Unit data at the centre site of the box of side N in d dimensions."""
    domain = BoxDomain((N,) * d)
    values = np.zeros(domain.shape)
    values[(N // 2,) * d] = 1.0
    return Field(domain, values)


def test_fujita_exponent_below_the_critical_alpha():
    # delta data, Params(alpha, 0.3), S = 8 N^2 and tol 1e-6 on 1-D alpha = 1 (N = 8..64) and
    # 2-D alpha = 1/2 (N = 4..32), where d - 2/alpha is -1 and -2. The log2 slope per doubling
    # approaches it from below (-1.16, -1.07, -1.03 and -2.62, -2.22, -2.09), and the last one
    # lies within 0.15 of it. The 2-D N = 32 box (1,089 sites, symmetric) probes on its orthant
    assert _mirror_symmetric(_delta(2, 32).values) and not _mirror_symmetric(_delta(2, 16).values)
    for d, alpha, sides in ((1, 1.0, (8, 16, 32, 64)), (2, 0.5, (4, 8, 16, 32))):
        amplitudes = _thresholds([(_delta(d, N), Params(alpha, 0.3), 8 * N * N) for N in sides],
                                 1e-6)
        slopes = [math.log2(hi / lo) for lo, hi in zip(amplitudes, amplitudes[1:])]
        gaps = [abs(slope - (d - 2 / alpha)) for slope in slopes]
        assert gaps == sorted(gaps, reverse=True) and gaps[-1] < 0.15, (d, alpha, slopes)


def test_continuum_limit_of_the_principal_sine_mode():
    # 1-D, alpha = 1: the principal sine mode (maximum 1) at Params(1, 1/(2 N^2)), S = 3/delta
    # (continuum time 3) and tol 1e-7, on N = 8..64. Successive differences shrink by a factor
    # near 4 per doubling (4.22, then 4.06); the last factor lies within 0.1 of 4, and every
    # A(N) lies in [pi^2, (4/pi) pi^2]
    amplitudes = _thresholds([(mode_table(BoxDomain((N,))).mode_field((1,)),
                               Params(1.0, 1 / (2 * N * N)), 6 * N * N) for N in (8, 16, 32, 64)],
                             1e-7)
    diffs = [lo - hi for lo, hi in zip(amplitudes, amplitudes[1:])]
    assert abs(diffs[-2] / diffs[-1] - 4) < 0.1, amplitudes
    assert all(math.pi**2 <= A <= 4 * math.pi for A in amplitudes), amplitudes
