"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines.
"""

import json
import time

import numpy as np
import pytest

from latticeheat import (
    BlewUpAt,
    BoxDomain,
    Field,
    Params,
    SpectralCoeffs,
    Survived,
    analyze,
    bound_alpha_le_1,
    compute_trace,
    eigenvalue,
    find_threshold,
    mode_table,
    regime_bound,
    simulate,
    step_linear_direct,
    synthesize,
    verify_comparison,
)
from latticeheat.cli import main

from conftest import interior_sites, step_nonlinear

SQ2 = np.sqrt(2) / 2


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def suite_instances(count=100, amplitude=0.05, seed=731):
    """Seeded random instances: d in 1..3, N_k in 2..6, alpha in {0.5, 1, 2}."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = int(rng.integers(1, 4))
        extents = tuple(int(rng.integers(2, 7)) for _ in range(d))
        domain = BoxDomain(extents)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        interior = rng.uniform(0.0, amplitude, size=domain.interior_shape)
        out.append((Field.from_interior(domain, interior), alpha))
    return out


def test_criterion_1_golden_blowup():
    d = BoxDomain((4,))
    a = Field(d, [0, 0.9, 0.9, 0.9, 0])
    p = Params(1, 1)
    simulate(a, p, 10)  # warm up caches before timing
    t0 = time.perf_counter()
    report = simulate(a, p, 10)
    elapsed = time.perf_counter() - t0
    ok = (
        isinstance(report.outcome, BlewUpAt)
        and report.outcome.step == 1
        and report.outcome.site == (1,)
        # 0.9 is not binary-representable; "exact" up to one rounding step
        and abs(report.outcome.g_value - 4.5) < 1e-14
        and elapsed < 1e-3
    )
    _verdict(1, ok, f"BlewUpAt(s0=1, n0=(1), g~4.5) in {elapsed * 1e3:.3f} ms")


def test_criterion_2_golden_step_values():
    d = BoxDomain((4,))
    f = Field(d, [0, 0.4, 0.4, 0.4, 0])
    out = step_nonlinear(f, Params(1, 1))
    err = np.abs(out.values - np.array([0, 0.25, 2 / 3, 0.25, 0])).max()
    _verdict(2, err <= 1e-15, f"f^1 matches hand values, max err {err:.2e}")


def test_criterion_3_comparison_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for a, alpha in suite_instances():
        v = verify_comparison(a, alpha, 50)
        assert v.holds, v.failure
        if len(v.margins):
            worst = min(worst, float(v.margins.min()))
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and elapsed < 10.0
    _verdict(
        3, ok, f"100 instances, worst margin {worst:.2e}, {elapsed:.2f} s"
    )


def test_criterion_4_certificate_soundness():
    certified = violations = 0
    for a, alpha in suite_instances():
        if regime_bound(a, alpha).bound_value < 1.0:
            certified += 1
            p = Params(alpha=alpha, delta=1.0 / alpha)  # scaled system
            report = simulate(a, p, 10_000)
            if not isinstance(report.outcome, Survived):
                violations += 1
    ok = violations == 0 and certified > 0
    _verdict(
        4, ok, f"{certified} certified instances, {violations} blow-ups at 10^4 steps"
    )


def test_criterion_5_spectral_equivalence():
    rng = np.random.default_rng(917)
    worst_gap = 0.0
    worst_resid = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        domain = BoxDomain(tuple(int(rng.integers(2, 9)) for _ in range(d)))
        a = Field.from_interior(
            domain, rng.uniform(0, 1, size=domain.interior_shape)
        )
        B = analyze(a)
        for s in (1, 10, 25, 50):
            gap = np.abs(
                synthesize(B, s).values - step_linear_direct(a, s).values
            ).max()
            worst_gap = max(worst_gap, gap)
        table = mode_table(domain)
        for mode in interior_sites(domain):
            h = table.mode_field(mode)
            resid = np.abs(
                step_linear_direct(h, 1).values - eigenvalue(domain, mode) * h.values
            ).max()
            worst_resid = max(worst_resid, resid)
    ok = worst_gap <= 1e-9 and worst_resid <= 1e-12
    _verdict(
        5,
        ok,
        f"direct-vs-spectral gap {worst_gap:.2e}, eigen residual {worst_resid:.2e}",
    )


def test_criterion_6_round_trips():
    rng = np.random.default_rng(402)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        domain = BoxDomain(tuple(int(rng.integers(2, 9)) for _ in range(d)))
        a = Field.from_interior(
            domain, rng.uniform(-1, 1, size=domain.interior_shape)
        )
        gap = np.abs(synthesize(analyze(a), 0).interior() - a.interior()).max()
        worst = max(worst, gap)
        B = SpectralCoeffs(domain, rng.uniform(-1, 1, size=domain.interior_shape))
        gap = np.abs(analyze(synthesize(B, 0)).coeffs - B.coeffs).max()
        worst = max(worst, gap)
    _verdict(6, worst <= 1e-10, f"round-trip error {worst:.2e}")


def test_criterion_7_bound_arithmetic():
    rep = bound_alpha_le_1(1.0, mode_table(BoxDomain((4,))), 1.0)
    golden_ok = abs(rep.bound_value - 7.8284271) <= 1e-6
    dominance_ok = True
    for a, alpha in suite_instances():
        bound = regime_bound(a, alpha).bound_value
        trace = compute_trace(a, alpha, 1000)
        if trace.partial_sums[-1] > bound + 1e-12:
            dominance_ok = False
    ok = golden_ok and dominance_ok
    _verdict(
        7,
        ok,
        f"bound {rep.bound_value:.7f} ~ 7.8284271; dominance over P_1000 "
        f"{'holds' if dominance_ok else 'fails'}",
    )


def test_criterion_8_monotonicity_and_thresholds():
    rng = np.random.default_rng(118)
    p = Params(1, 1)
    ok = True
    for _ in range(20):
        d = int(rng.integers(1, 3))
        domain = BoxDomain(tuple(int(rng.integers(3, 7)) for _ in range(d)))
        profile = Field.from_interior(
            domain, rng.uniform(0.2, 1.0, size=domain.interior_shape)
        )
        peak = profile.values.max()
        seen_blowup = False
        for amp in np.linspace(0.05, 1.0, 8) * (p.threshold / peak):
            blew = simulate(Field(domain, profile.values * amp), p, 100).blew_up
            if blew:
                seen_blowup = True
            elif seen_blowup:
                ok = False  # survival after blow-up breaks monotonicity
        res = find_threshold(profile, p, 100, 1e-3)
        if not res.hit_ceiling:
            above = Field(domain, profile.values * res.amplitude * (1 + 1e-3))
            below = Field(domain, profile.values * res.amplitude * (1 - 1e-3))
            if not simulate(above, p, 100).blew_up:
                ok = False
            if simulate(below, p, 100).blew_up:
                ok = False
    _verdict(8, ok, "20 combos: sweeps monotone, threshold brackets consistent")


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "extents": [4, 4],
                "alpha": 1.0,
                "delta": 1.0,
                "steps": 100,
                "init": {"kind": "random", "seed": 5, "max_amplitude": 1.0},
                "amplitude": 1.0,
                "sweep": {
                    "alphas": [0.5, 1.0, 2.0],
                    "amplitudes": [0.02, 0.2, 0.9],
                },
            }
        )
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["sweep", "--config", str(cfg_path), "--out", str(out1)])
    main(["sweep", "--config", str(cfg_path), "--out", str(out2)])
    same = (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    _verdict(9, same, "identical seeds give byte-identical sweep output")
