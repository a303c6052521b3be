"""Seeded generation of the benchmark's op plans.

A plan is a list of groups; a group is the ops run on one generated instance
(field, parameters, profile). Every op is one CLI command on one config
document. The seed decides the data (random-init seeds, drawn extents, mode
indices, the order of strata); the shapes of `large-field` and
`threshold-sweep` are fixed ladders, so that per-command medians compare the
same work from seed to seed. README.md says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("certify-small", "large-field", "threshold-sweep")
COMMANDS = ("simulate", "verify", "bound", "threshold", "sweep")

# Seconds of one pass at the nominal host speed at the parent commit; a run
# of --seconds S makes round(S / PASS_SECONDS) passes, the same on every run.
PASS_SECONDS = {"certify-small": 7.8, "large-field": 6.6, "threshold-sweep": 3.9}


@dataclass(frozen=True)
class Op:
    command: str
    config: dict


def _without_steps(config: dict) -> dict:
    return {k: v for k, v in config.items() if k != "steps"}


def same_instance(a: Op, b: Op) -> bool:
    """True when two ops run one config apart from the step horizon."""
    return _without_steps(a.config) == _without_steps(b.config)


def _random_init(rng, max_amplitude: float) -> dict:
    return {
        "kind": "random",
        "seed": int(rng.integers(0, 2**31)),
        "max_amplitude": max_amplitude,
    }


# Extents of the small and the large instance of each (d, alpha) stratum:
# along each axis the three alphas of one dimension take a seed-shuffled
# half of the ladder 2, 2, 3 | 4, 5, 6 (4, 4, 5 | 5, 6, 6 for `threshold`).
_EXTENT_HALVES = ((2, 2, 3), (4, 5, 6))
_PROBE_EXTENT_HALVES = ((4, 4, 5), (5, 6, 6))


def _stratified_extents(rng, halves, d: int, count: int) -> list[list[list[int]]]:
    """Per half, `count` extents of dimension d; each axis a shuffle of the half."""
    out = []
    for half in halves:
        columns = [rng.permutation(half)[:count] for _ in range(d)]
        out.append([[int(col[i]) for col in columns] for i in range(count)])
    return out


def _certify_small(rng, smoke: bool) -> list[list[Op]]:
    """Acceptance-suite instances, stratified over (d, alpha) and extents.

    Each (d, alpha) has a small and a large instance, so that the seed
    decides which instance gets which extents but not how many small and
    large ones a pass holds.

    `threshold` uses a constant profile on extents >= 4: some interior site
    then has only interior neighbours, so the bracket's upper end blows up at
    step 0 and every search runs a full bisection. With the suite's random
    data on extents down to 2, about half the searches stop after one probe
    at the bracket ceiling, and the median flips between the two cases.
    """
    alphas = (0.5, 1.0, 2.0)
    strata = [(d, j, half) for d in (1, 2, 3) for j in range(len(alphas)) for half in (0, 1)]
    strata = [(d, j, 0) for d, j, _ in strata[::8]] if smoke else strata
    long_steps, probe_steps, verify_steps = (200, 40, 20) if smoke else (10_000, 200, 50)
    extents = {d: _stratified_extents(rng, _EXTENT_HALVES, d, len(alphas)) for d in (1, 2, 3)}
    probe_extents = {d: _stratified_extents(rng, _PROBE_EXTENT_HALVES, d, len(alphas)) for d in (1, 2, 3)}
    groups = []
    for i in rng.permutation(len(strata)):
        d, j, half = strata[i]
        alpha = alphas[j]
        base = {
            "extents": extents[d][half][j],
            "alpha": alpha,
            "delta": 1.0 / alpha,
            "steps": verify_steps,
            "amplitude": 1.0,
            "init": _random_init(rng, 0.05),
        }
        groups.append(
            [
                Op("bound", base),
                Op("verify", base),
                Op("simulate", {**base, "steps": long_steps}),
                Op(
                    "threshold",
                    {
                        **base,
                        "extents": probe_extents[d][half][j],
                        "steps": probe_steps,
                        "init": {"kind": "constant_interior"},
                    },
                ),
                Op(
                    "sweep",
                    {
                        **base,
                        "steps": probe_steps,
                        "sweep": {"alphas": [0.5, 1.0, 2.0], "amplitudes": [1.0, 4.0, 16.0]},
                    },
                ),
            ]
        )
    return groups


# (extents, steps, also bound at alpha=2). The alpha=2 bound runs only on
# 96^2, where tail_start alone takes about a second at the parent commit; on
# 128^2 it takes 8 s and would fill the run. Five fields keep a pass near
# 7 s, so each op is repeated four times in a 24 s run.
_LARGE_FIELDS = [
    ((400,), 2000, False),
    ((96, 96), 1000, True),
    ((128, 128), 1000, False),
    ((16, 16, 16), 2000, False),
    ((24, 24, 24), 1000, False),
]
_LARGE_FIELDS_SMOKE = [((40,), 60, True), ((10, 10), 60, False), ((5, 5, 5), 60, False)]


def _large_field(rng, smoke: bool) -> list[list[Op]]:
    """Large arrays: small random data that survives the horizon at alpha=2."""
    groups = []
    probe_steps = 20 if smoke else 100
    for extents, steps, bound_alpha_2 in _LARGE_FIELDS_SMOKE if smoke else _LARGE_FIELDS:
        base = {
            "extents": list(extents),
            "alpha": 2.0,
            "delta": 0.5,
            "steps": steps,
            "amplitude": 1.0,
            "init": _random_init(rng, 0.02),
        }
        ops = [Op("bound", {**base, "alpha": 0.5, "delta": 2.0})]
        if bound_alpha_2:
            ops.append(Op("bound", base))
        ops += [
            Op("verify", base),
            Op("simulate", base),
            Op(
                "threshold",
                {**base, "steps": probe_steps, "init": {"kind": "constant_interior"}},
            ),
            Op(
                "sweep",
                {
                    **base,
                    "steps": probe_steps,
                    "sweep": {"alphas": [0.5, 0.75, 1.0], "amplitudes": [1.0, 4.0, 16.0]},
                },
            ),
        ]
        groups.append(ops)
    return groups


# (extents, profile kind, steps, alpha)
_THRESHOLD_CASES = [
    ((8, 8), "delta_center", 2000, 0.5),
    ((16, 16), "sine_mode", 1000, 2.0),
    ((24, 24), "random", 1000, 0.5),
    ((32, 32), "random", 500, 2.0),
    ((12, 12, 12), "sine_mode", 500, 1.0),
    ((16, 16), "delta_center", 2000, 1.0),
]
_THRESHOLD_CASES_SMOKE = [
    ((6, 6), "random", 60, 1.0),
    ((6, 6), "sine_mode", 60, 2.0),
    ((4, 4, 4), "delta_center", 60, 0.5),
]


def _threshold_sweep(rng, smoke: bool) -> list[list[Op]]:
    """Threshold searches and sweeps, plus the single-run commands on each profile."""
    groups = []
    for extents, kind, steps, alpha in _THRESHOLD_CASES_SMOKE if smoke else _THRESHOLD_CASES:
        if kind == "random":
            init = _random_init(rng, 1.0)
        elif kind == "sine_mode":
            init = {"kind": kind, "mode": [1] * len(extents)}  # higher modes change sign
        else:
            init = {"kind": kind}
        base = {
            "extents": list(extents),
            "alpha": alpha,
            "delta": 1.0,
            "steps": steps,
            "amplitude": 0.05,
            "init": init,
        }
        groups.append(
            [
                Op("threshold", base),
                Op(
                    "sweep",
                    {**base, "sweep": {"alphas": [0.5, 1.0, 2.0], "amplitudes": [0.3, 0.6, 0.9]}},
                ),
                Op("simulate", base),
                Op("verify", base),
                Op("bound", base),
            ]
        )
    return groups


_BUILDERS = {
    "certify-small": _certify_small,
    "large-field": _large_field,
    "threshold-sweep": _threshold_sweep,
}


def make_plan(workload: str, seed: int, smoke: bool = False) -> list[list[Op]]:
    """The groups of one pass; the same (workload, seed, smoke) gives the same plan."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return _BUILDERS[workload](rng, smoke)
