import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticeheat import (
    BlewUpAt,
    BoxDomain,
    ComparisonVerdict,
    Field,
    Params,
    Survived,
    bound_alpha_gt_1,
    bound_alpha_le_1,
    compute_trace,
    find_threshold,
    majorant_field,
    mode_table,
    regime_bound,
    simulate,
    step_linear_direct,
    tail_start,
    verify_comparison,
)

from latticeheat import cli, majorant
from latticeheat import domain as domain_module
from latticeheat.majorant import COMPARISON_SLACK, ComparisonFailure, _Probe, _trace_from_maxima
from latticeheat import spectral
from latticeheat.spectral import _linear_flow

from conftest import (is_span_of, mirrored, random_domain, random_field, reference_flow,
                      reference_neighbor_mean, reference_simulate, step_nonlinear,
                      with_boundary)

SQ2 = np.sqrt(2) / 2


def sine_profile_1d_n4(scale=1.0):
    d = BoxDomain((4,))
    vals = scale * np.sin(np.pi * np.arange(5) / 4)
    vals[[0, 4]] = 0.0
    return Field(d, vals)


class TestComputeTrace:
    def test_zero_data(self):
        d = BoxDomain((3, 3))
        t = compute_trace(Field(d, np.zeros(d.shape)), 1.0, 20)
        assert np.all(t.m == 0)
        assert np.all(t.partial_sums == 0)
        assert t.defined_up_to == len(t.m) - 1  # every step

    def test_geometric_series_unit_amplitude(self):
        # m_s = (cos(pi/4))^s; P_0 = 1 already, so the majorant never exists
        t = compute_trace(sine_profile_1d_n4(), 1.0, 10)
        np.testing.assert_allclose(t.m, SQ2 ** np.arange(11), atol=1e-12)
        assert t.partial_sums[0] == pytest.approx(1.0)
        assert t.defined_up_to == -1

    def test_geometric_series_small_amplitude(self):
        # P_infinity = 0.2/(1 - cos(pi/4)) ~ 0.6828 < 1: defined at all steps
        t = compute_trace(sine_profile_1d_n4(0.2), 1.0, 200)
        assert t.partial_sums[-1] == pytest.approx(0.2 / (1 - SQ2), abs=1e-9)
        assert t.defined_up_to == len(t.m) - 1  # every step

    def test_partial_sums_nondecreasing(self, rng):
        for _ in range(10):
            d = random_domain(rng)
            t = compute_trace(random_field(rng, d, 0.1), 0.5, 30)
            assert np.all(np.diff(t.partial_sums) >= 0)
            assert np.all(t.m >= 0)


class TestMajorantField:
    def test_hand_value(self):
        d = BoxDomain((4,))
        a = Field(d, [0, 0.4, 0.4, 0.4, 0])
        t = compute_trace(a, 1.0, 5)
        fbar0 = majorant_field(t, a, 0, 1.0)
        assert fbar0.values[2] == pytest.approx((0.4 / 0.6), abs=1e-14)

    def test_zero_field_maps_to_zero(self):
        d = BoxDomain((4,))
        a = sine_profile_1d_n4(0.1)
        t = compute_trace(a, 1.0, 10)
        fbar = majorant_field(t, Field(d, np.zeros(d.shape)), 3, 1.0)
        assert np.all(fbar.values == 0)

    def test_identity_when_sums_zero(self):
        d = BoxDomain((4,))
        z = Field(d, np.zeros(d.shape))
        t = compute_trace(z, 1.0, 5)
        np.testing.assert_array_equal(majorant_field(t, z, 2, 1.0).values, z.values)

    def test_refuses_undefined_steps(self):
        t = compute_trace(sine_profile_1d_n4(0.9), 1.0, 50)
        with pytest.raises(ValueError):
            majorant_field(t, sine_profile_1d_n4(0.9), t.defined_up_to + 1, 1.0)

    def test_root_underflow_gives_the_limit(self):
        # P_0 = 0.9995^0.01 is below 1, but (1 - P_0)^100 underflows to 0:
        # fbar is the limit h / +0, inf inside and 0 on the boundary
        a = Field(BoxDomain((3,)), [0, 0.9995, 0.9995, 0])
        t = compute_trace(a, 0.01, 0)
        assert t.defined_up_to == 0
        np.testing.assert_array_equal(majorant_field(t, a, 0, 0.01).values, [0, np.inf, np.inf, 0])

    def test_dominates_linear_solution(self):
        a = sine_profile_1d_n4(0.2)
        t = compute_trace(a, 1.0, 30)
        for s in range(0, 31, 5):
            h = step_linear_direct(a, s)
            fbar = majorant_field(t, h, s, 1.0)
            assert np.all(fbar.values >= h.values - 1e-15)


class TestVerifyComparison:
    def test_zero_data_trivial(self):
        d = BoxDomain((3,))
        v = verify_comparison(Field(d, np.zeros(d.shape)), 1.0, 20)
        assert v.holds
        assert np.all(v.margins == 0)

    def test_small_sine_mode_long_horizon(self):
        v = verify_comparison(sine_profile_1d_n4(0.2), 1.0, 100)
        assert v.holds
        assert len(v.margins) == 101
        assert np.all(v.margins >= -1e-12)

    def test_truncates_at_defined_up_to(self):
        v = verify_comparison(sine_profile_1d_n4(0.9), 1.0, 100)
        assert v.holds
        assert v.trace.defined_up_to < 100
        assert len(v.margins) == v.trace.defined_up_to + 1

    def test_randomized_suite(self, rng):
        for _ in range(100):
            d = random_domain(rng, max_extent=6)
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            a = random_field(rng, d, amplitude=0.05)
            v = verify_comparison(a, alpha, 50)
            assert v.holds, v.failure
            assert np.all(v.margins >= -1e-12)


    def test_returns_linear_trace(self):
        a = sine_profile_1d_n4(0.9)
        v = verify_comparison(a, 1.0, 100)
        t = compute_trace(a, 1.0, 100)
        np.testing.assert_array_equal(v.trace.m, t.m)
        np.testing.assert_array_equal(v.trace.partial_sums, t.partial_sums)
        assert v.trace.defined_up_to == t.defined_up_to

    def test_verdict_needs_its_trace(self):
        # the range the check covers is read from the trace, which every verdict carries
        with pytest.raises(TypeError, match="trace"):
            ComparisonVerdict(True, np.zeros(1), None)


def _reference_verify(a, alpha, S, slack, eps_blow=0.0):
    """verify_comparison as first written: the linear flow run once for the
    trace and again beside the nonlinear flow. Where the majorant root
    (1 - P_s)^(1/alpha) underflows to 0, majorant_field gives its limit h/+0
    (+inf where h > 0, 0 where h is 0)."""
    p = Params(alpha=alpha, delta=1.0 / alpha)
    m = [float(h[a.domain.core].max()) for h in reference_flow(a.domain, a.values, S)]
    trace = _trace_from_maxima(np.array(m), alpha)
    last = min(S, trace.defined_up_to)
    margins = []
    f = a
    for s, h in zip(range(last + 1), reference_flow(a.domain, a.values, S)):
        with np.errstate(over="ignore", invalid="ignore"):  # inf, and 0 * inf at slack 0
            fbar = majorant_field(trace, Field(a.domain, h), s, alpha).values
            tol = slack * np.maximum(1.0, fbar)
        margins.append(float((fbar[a.domain.core] - f.interior()).min()))
        if np.any(fbar < f.values - tol):
            site = tuple(int(i) for i in np.argwhere(fbar < f.values - tol)[0])
            failure = ComparisonFailure(
                step=s, site=site, majorant_value=float(fbar[site]),
                solution_value=float(f.values[site]),
            )
            return ComparisonVerdict(False, np.array(margins), failure, trace)
        if s < last:
            report, state = reference_simulate(f, p, 0, eps_blow)  # the step to s + 1
            if report.blew_up:
                failure = ComparisonFailure(
                    step=s + 1, site=report.outcome.site, majorant_value=np.inf,
                    solution_value=report.outcome.g_value,
                )
                return ComparisonVerdict(False, np.array(margins), failure, trace)
            f = Field(a.domain, state)
    return ComparisonVerdict(True, np.array(margins), None, trace)


@settings(max_examples=150, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.01, 0.5, 1.0, 1.5, 2.0]),
    amplitude=st.one_of(st.floats(0.0, 1.0), st.floats(1e-19, 1e-17)),
    S=st.integers(0, 60),
    slack=st.sampled_from([1e-12, 0.0, -1e-6, -1e-2]),
    edge=st.sampled_from([0.0, 0.0, -0.5, 0.5]),
    layout=st.sampled_from(["C", "C", "F", "strided"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(extents=[4, 3], alpha=0.01, amplitude=1.0, S=5, slack=1e-12, edge=0.0, layout="C", seed=1)
@example(extents=[5], alpha=1.0, amplitude=0.5, S=40, slack=0.0, edge=0.0, layout="C", seed=2)
@example(extents=[3, 4], alpha=2.0, amplitude=0.3, S=0, slack=1e-12, edge=-0.5, layout="C", seed=3)
@example(extents=[3], alpha=0.01, amplitude=0.96875, S=0, slack=0.0, edge=0.0, layout="C", seed=1)
@example(extents=[4, 4], alpha=1.0, amplitude=2e-18, S=30, slack=1e-12, edge=0.0, layout="C",
         seed=4)
@example(extents=[3, 3], alpha=1.0, amplitude=1e-300, S=3000, slack=1e-12, edge=0.0, layout="C",
         seed=0)
@example(extents=[5], alpha=2.0, amplitude=1e-305, S=2000, slack=0.0, edge=0.0, layout="C", seed=0)
# 3-D at alpha 2 over 300 steps: the stencil divides by 6, and verify compares on spans throughout
@example(extents=[6, 6, 6], alpha=2.0, amplitude=0.5, S=300, slack=1e-12, edge=0.0, layout="C",
         seed=1)
@example(extents=[5, 4, 6], alpha=2.0, amplitude=0.3, S=300, slack=0.0, edge=0.0, layout="F",
         seed=2)
@example(extents=[6, 6, 6], alpha=2.0, amplitude=0.5, S=300, slack=-1e-2, edge=0.0,
         layout="strided", seed=1)
# 4-D and 5-D: 3 and 4 face views of diff are refilled with +inf before the span minimum
@example(extents=[3, 4, 3, 5], alpha=2.0, amplitude=0.3, S=60, slack=1e-12, edge=0.0, layout="C",
         seed=5)
@example(extents=[3, 3, 3, 3, 3], alpha=1.0, amplitude=0.05, S=40, slack=0.0, edge=0.0,
         layout="C", seed=6)
# 2-D at alpha 0.01, P_0 = 0.99929: the root underflows to 0, so fbar is inf at every interior
# site and the margin is inf, while diff's faces would read 0 - 0 = +0.0 unless refilled
@example(extents=[4, 3], alpha=0.01, amplitude=0.98, S=5, slack=1e-12, edge=0.0, layout="C",
         seed=1)
def test_verify_matches_reference(extents, alpha, amplitude, S, slack, edge, layout, seed):
    # amplitudes near 1 truncate the majorant early, and at alpha 0.01 its
    # root underflows, or h / root overflows at some sites; near 1e-18 the
    # nonlinear flow takes copy steps (at alpha 1 from about 8.7e-19, at 1.5
    # and 2 from every amplitude drawn there); subnormal data rests long
    # before S (the last two examples at steps 77 and 190), and verify
    # compares the resting state on without steps; a negative slack
    # demands a positive margin and so exercises the failure path; with S = 0
    # the data may have a nonzero boundary, which verify rejects as simulate
    # does, though it takes no step. The data's layout is C order, Fortran order or a strided
    # view: verify reads h^0 and f^0 from the flow's and the stepper's C-ordered copies of it.
    d = BoxDomain(tuple(extents))
    a = random_field(np.random.default_rng(seed), d, amplitude=amplitude)
    a = Field(d, _laid_out(a.values, layout))
    if S == 0 and edge:
        values = np.full(d.shape, edge)
        values[d.core] = a.interior()
        with pytest.raises(ValueError, match="nonzero boundary"):
            verify_comparison(Field(d, values), alpha, S, slack)
        return
    got = verify_comparison(a, alpha, S, slack)
    want = _reference_verify(a, alpha, S, slack)
    assert _bits(got.margins) == _bits(want.margins)  # -0.0 is not +0.0
    assert (got.holds, len(got.margins), got.trace.defined_up_to, got.failure) == (
        want.holds, len(want.margins), want.trace.defined_up_to, want.failure
    )
    trace = compute_trace(a, alpha, S)
    np.testing.assert_array_equal(got.trace.m, trace.m)
    np.testing.assert_array_equal(got.trace.partial_sums, trace.partial_sums)


def _laid_out(values, layout):
    """`values` in C order, in Fortran order, or as a view of every other site of a larger array."""
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "strided":
        big = np.full(tuple(2 * n for n in values.shape), np.nan)
        view = big[(slice(None, None, 2),) * values.ndim]
        view[...] = values
        return view
    return values


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    amplitude=st.floats(0.0, 0.9),
    share=st.sampled_from([0.3, 1.0]),
    minus_boundary=st.booleans(),
    S=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(extents=[5], alpha=1.0, amplitude=0.5, share=1.0, minus_boundary=True, S=5, seed=0)
@example(extents=[4, 5], alpha=2.0, amplitude=0.0, share=0.3, minus_boundary=True, S=3, seed=0)
@example(extents=[4, 4, 4], alpha=2.0, amplitude=0.8, share=0.3, minus_boundary=True, S=40,
         seed=1)
def test_minus_zero_data_matches_zero_start_reference(extents, alpha, amplitude, share,
                                                      minus_boundary, S, seed):
    # The kernels add 0.0 to the data once, where it enters, and their stencil sums start at
    # the first axis's pair. On data with -0.0 on a share of the interior and, with
    # minus_boundary, on the boundary, every result has the bits of the references, whose
    # sums start at +0.0. amplitude <= 0.9 of the threshold keeps the step from overflowing.
    d = BoxDomain(tuple(extents))
    rng = np.random.default_rng(seed)
    interior = rng.uniform(0.0, amplitude, d.interior_shape)
    interior[rng.random(d.interior_shape) < share] = -0.0
    a = with_boundary(d, interior, -0.0 if minus_boundary else 0.0)
    mean = step_linear_direct(a, 1).values[d.core]
    assert _bits(mean) == _bits(reference_neighbor_mean(a.values))
    m = []
    flows = zip(_linear_flow(a, S), reference_flow(d, a.values + 0.0, S), strict=True)
    for s, ((got, _, m_s), h) in enumerate(flows):
        assert got.tobytes() == h.tobytes(), s
        m.append(h[d.core].max())
        assert _bits(m_s) == _bits(m[-1]), s
    p = Params(alpha, 1.0 / alpha)
    got, (want, state) = step_nonlinear(a, p), reference_simulate(a, p, 0)
    assert isinstance(got, Field) != want.blew_up
    assert got == want.outcome if want.blew_up else got.values.tobytes() == state.tobytes()
    report, (want_report, _) = simulate(a, p, S), reference_simulate(a, p, S)
    assert report.outcome == want_report.outcome
    records = [[(r.max_f, r.max_g) for r in rep.trace] for rep in (report, want_report)]
    assert _bits(records[0]) == _bits(records[1])
    got, want = verify_comparison(a, alpha, S), _reference_verify(a, alpha, S, COMPARISON_SLACK)
    assert _bits(got.margins) == _bits(want.margins)
    assert (got.holds, len(got.margins), got.failure) == (want.holds, len(want.margins),
                                                            want.failure)
    trace = _trace_from_maxima(np.array(m), alpha)
    for t in (got.trace, compute_trace(a, alpha, S)):
        assert _bits(t.m) == _bits(trace.m) and _bits(t.partial_sums) == _bits(trace.partial_sums)


def test_signed_flow_differs_from_reference_only_in_zero_signs(rng):
    # Signed data (which `bound` reads) can make a mean underflow to -0.0, and a sum of two -0.0
    # that no +0.0 starts stays -0.0: the flow then differs from the +0.0-started reference
    # only in the sign of zeros, and the trace reads |m|, so partial sums keep their bits
    signs = 0
    for _ in range(200):
        d = random_domain(rng, max_d=2)
        interior = rng.choice([-5e-324, 0.0, 5e-324, -1e-323, 0.25, -0.25], d.interior_shape)
        a = with_boundary(d, interior, 0.0)
        m = []
        for (got, *_), h in zip(_linear_flow(a, 6), reference_flow(d, a.values, 6), strict=True):
            np.testing.assert_array_equal(got, h)  # as numbers: -0.0 == +0.0
            signs += got.tobytes() != h.tobytes()
            m.append(h[d.core].max())
        for alpha in (0.5, 2.0):
            got, want = compute_trace(a, alpha, 6), _trace_from_maxima(np.array(m), alpha)
            assert _bits(np.abs(got.m)) == _bits(np.abs(want.m))
            assert _bits(got.partial_sums) == _bits(want.partial_sums)
    assert signs > 0  # the case arises


def test_verify_blowup_path_matches_reference(monkeypatch, rng):
    # the majorant rules out blow-up of the true dynamics, so a stepper with a
    # raised blow-up level stands in for a faulty one
    from latticeheat import majorant

    stepper = majorant._Stepper
    monkeypatch.setattr(majorant, "_Stepper", lambda domain, p, eps: stepper(domain, p, 0.9))
    # the stand-in blows up inside the majorant's range, and on the step just past
    # defined_up_to, which verify takes and must not count as a failure
    blowups = {"inside": 0, "edge": 0}
    for _ in range(40):
        d = random_domain(rng)
        a = random_field(rng, d, amplitude=rng.uniform(0.3, 1.0))
        got = verify_comparison(a, 1.0, 20)
        want = _reference_verify(a, 1.0, 20, COMPARISON_SLACK, eps_blow=0.9)
        np.testing.assert_array_equal(got.margins, want.margins)
        assert (got.holds, len(got.margins), got.failure) == (
            want.holds, len(want.margins), want.failure
        )
        np.testing.assert_array_equal(got.trace.m, compute_trace(a, 1.0, 20).m)
        outcome = simulate(a, Params(1.0, 1.0), 20, 0.9).outcome
        if isinstance(outcome, BlewUpAt) and outcome.step <= got.trace.defined_up_to:
            blowups["edge" if outcome.step == got.trace.defined_up_to else "inside"] += 1
    assert min(blowups.values()) > 0, blowups


class TestBounds:
    def test_le1_single_zero_mode(self):
        table = mode_table(BoxDomain((2,)))
        rep = bound_alpha_le_1(0.3, table, 0.5)
        assert rep.bound_value == pytest.approx(0.3**0.5)

    def test_le1_three_mode_sum(self):
        table = mode_table(BoxDomain((4,)))
        rep = bound_alpha_le_1(1.0, table, 1.0)
        assert rep.bound_value == pytest.approx(2 / (1 - SQ2) + 1, abs=1e-10)

    def test_le1_vanishes_with_data(self):
        table = mode_table(BoxDomain((3, 4)))
        assert bound_alpha_le_1(1e-12, table, 0.7).bound_value < 1e-6

    def test_le1_rejects_large_alpha(self):
        with pytest.raises(ValueError):
            bound_alpha_le_1(1.0, mode_table(BoxDomain((4,))), 1.5)

    def test_tail_start_minimal_domain(self):
        assert tail_start(mode_table(BoxDomain((2,)))) == 1

    def test_tail_start_1d_n4(self):
        # sum |c|^s = 2*(sqrt2/2)^s; s=2 gives 1 (not < 1), s=3 gives ~0.707
        assert tail_start(mode_table(BoxDomain((4,)))) == 3

    def test_gt1_minimal_domain(self):
        table = mode_table(BoxDomain((2,)))
        rep = bound_alpha_gt_1(0.5, table, 2.0, [0.5])
        assert rep.s0_tail == 1
        assert rep.bound_value == pytest.approx(0.25)

    def test_gt1_1d_n4_tail(self):
        table = mode_table(BoxDomain((4,)))
        m_prefix = [0.1, 0.05, 0.03]
        rep = bound_alpha_gt_1(1.0, table, 2.0, m_prefix)
        head = sum(m**2 for m in m_prefix)
        tail = 2 * SQ2**3 / (1 - SQ2)
        assert rep.bound_value == pytest.approx(head + tail, abs=1e-12)

    def test_gt1_rejects_small_alpha(self):
        with pytest.raises(ValueError):
            bound_alpha_gt_1(1.0, mode_table(BoxDomain((4,))), 1.0, [0.1])

    def test_gt1_rejects_a_prefix_shorter_than_tail_start(self):
        # tail_start is 3 on (4,): the head needs m_0..m_2
        with pytest.raises(ValueError, match="m_prefix needs at least 3 entries, got 2"):
            bound_alpha_gt_1(1.0, mode_table(BoxDomain((4,))), 2.0, [0.1, 0.05])

    def test_bounds_dominate_partial_sums(self, rng):
        from latticeheat import analyze

        for _ in range(40):
            d = random_domain(rng, max_extent=6)
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            a = random_field(rng, d, amplitude=0.05)
            table = mode_table(d)
            B_max = analyze(a).max_abs
            t = compute_trace(a, alpha, 500)
            if alpha <= 1:
                rep = bound_alpha_le_1(B_max, table, alpha)
            else:
                rep = bound_alpha_gt_1(B_max, table, alpha, t.m)
            assert rep.bound_value >= t.partial_sums[-1] - 1e-12

    def test_mode_sum_dominates_m(self, rng):
        from latticeheat import analyze

        for _ in range(20):
            d = random_domain(rng, max_extent=6)
            a = random_field(rng, d, amplitude=0.1)
            B_max = analyze(a).max_abs
            c = np.abs(mode_table(d).eigenvalues).ravel()
            t = compute_trace(a, 1.0, 40)
            for s in range(41):
                assert t.m[s] <= B_max * np.sum(c**s) + 1e-10

    def test_certificate_monotone_under_halving(self, rng):
        for _ in range(20):
            d = random_domain(rng, max_extent=6)
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            a = random_field(rng, d, amplitude=0.05)
            half = Field(d, a.values / 2)
            full = regime_bound(a, alpha)
            halved = regime_bound(half, alpha)
            assert halved.bound_value <= full.bound_value + 1e-15


@given(
    x=st.floats(min_value=0, max_value=1e6),
    y=st.floats(min_value=0, max_value=1e6),
    alpha=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=200)
def test_subadditivity_of_fractional_powers(x, y, alpha):
    # the inequality underpinning the alpha <= 1 bound chain
    assert (x + y) ** alpha <= x**alpha + y**alpha + 1e-9 * (1 + x + y)


class TestFindThreshold:
    def test_isolated_site_hits_ceiling(self):
        d = BoxDomain((2,))
        profile = Field(d, [0, 1.0, 0])
        res = find_threshold(profile, Params(1, 1), 50, 1e-3)
        assert res.hit_ceiling
        assert res.amplitude == pytest.approx(1.0)

    def test_sine_profile_brackets(self):
        profile = sine_profile_1d_n4()
        res = find_threshold(profile, Params(1, 1), 200, 1e-3)
        assert not res.hit_ceiling
        assert 0 < res.amplitude < 1.0
        above = Field(profile.domain, profile.values * res.amplitude * (1 + 1e-3))
        below = Field(profile.domain, profile.values * res.amplitude * (1 - 1e-3))
        assert simulate(above, Params(1, 1), 200).blew_up
        assert isinstance(simulate(below, Params(1, 1), 200).outcome, Survived)

    def test_longer_horizon_does_not_raise_threshold(self):
        profile = sine_profile_1d_n4()
        r200 = find_threshold(profile, Params(1, 1), 200, 1e-3)
        r400 = find_threshold(profile, Params(1, 1), 400, 1e-3)
        assert r400.amplitude <= r200.amplitude * (1 + 2e-3)

    def test_rejects_zero_profile(self):
        d = BoxDomain((4,))
        with pytest.raises(ValueError):
            find_threshold(Field(d, np.zeros(d.shape)), Params(1, 1), 10, 1e-3)


def _profile(kind, d, rng):
    if kind == "random":
        return random_field(rng, d)
    if kind == "mirrored":  # random data made equal to its mirror image along every axis
        return Field(d, mirrored(random_field(rng, d).values))
    if kind == "constant":
        return Field.from_interior(d, np.ones(d.interior_shape))
    if kind == "sine":
        return mode_table(d).mode_field((1,) * d.dims)
    values = np.zeros(d.shape)  # a delta at the centre
    values[tuple(N // 2 for N in d.extents)] = 1.0
    return Field(d, values)


def _with_signed_zeros(profile):
    """The profile with every zero made -0.0, on the boundary and inside, after its interior
    corners (1, ..., 1) and their mirror images are set to zero where that leaves a positive
    maximum; a mirror-symmetric profile stays symmetric."""
    values = profile.values.copy()
    corners = np.ix_(*([1, n - 1] for n in profile.domain.extents))
    kept = values[corners].copy()
    values[corners] = 0.0
    if not values.max() > 0:
        values[corners] = kept
    values[values == 0] = -0.0
    return Field(profile.domain, values)


def _phi_lam(d):
    """The positive sine mode scaled to maximum 1, and its eigenvalue: the table's `principal`,
    which `TestTableBuild.test_principal_keeps_the_probe_bits` checks against its expressions."""
    phi, lam, _ = mode_table(d).principal
    return phi, lam


def _log_certificate_edge(d, p, eps_blow, side, first=0):
    """The log of the multiple c of the sine mode scaled to maximum 1 at which the
    infinite sum from m_first, kappa*c^alpha*lam^(first*alpha)/(1 - lam^alpha),
    equals 1 - 1e-3, times (1 + side)^(1/alpha); in logs, as the power 1/alpha
    takes c below the double range at small alpha."""
    lam = float(mode_table(d).eigenvalues[(0,) * d.dims])
    log_kappa = math.log(p.alpha) + math.log(p.delta) - math.log1p(-eps_blow)
    return (math.log1p(-1e-3) + math.log1p(side) + math.log1p(-lam**p.alpha) - log_kappa
            - first * p.alpha * math.log(lam)) / p.alpha


def _certificate_edge(d, p, eps_blow, side, first=0):
    return math.exp(_log_certificate_edge(d, p, eps_blow, side, first))


def _horizon_edge(profile, p, S, eps_blow, side):
    """The amplitude c at which c*profile meets the survival certificate over
    the remaining horizon at step 0, kappa*sum_{k=1..S+1} min(M, C*lam^k)^alpha
    = (1 - 1e-3)*(1 + side), summed term by term."""
    d = profile.domain
    phi, lam = _phi_lam(d)
    M = float(profile.values.max())
    C = float((profile.values[d.core] / phi[d.core]).max())
    total = sum(min(M, C * lam**k) ** p.alpha for k in range(1, S + 2))
    kappa = p.alpha * p.delta / (1.0 - eps_blow)
    return ((1.0 - 1e-3) * (1.0 + side) / (kappa * total)) ** (1.0 / p.alpha)


@settings(max_examples=30, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.25, 3.0)),
    delta=st.sampled_from([0.5, 1.0, 2.0]),
    eps_blow=st.sampled_from([0.0, 1e-3, 0.3, 1.0]),
    kind=st.sampled_from(["random", "sine", "delta", "constant", "mirrored"]),
    S=st.integers(0, 150),
    seed=st.integers(0, 2**32 - 1),
    signed_zeros=st.booleans(),
)
@example(extents=[6], alpha=1.5, delta=1.0, eps_blow=0.0, kind="sine", S=100, seed=0,
         signed_zeros=False)
# mirror-symmetric data, on the orthant at `_ORTHANT_MIN_SITES` 0: np.power's alpha 1.5 with
# eps_blow > 0 on an odd 3-D box, and mirrored random data at alpha 2 with an extent 2
@example(extents=[6, 5, 4], alpha=1.5, delta=1.0, eps_blow=0.3, kind="constant", S=100, seed=0,
         signed_zeros=False)
@example(extents=[7, 2], alpha=2.0, delta=0.5, eps_blow=0.0, kind="mirrored", S=150, seed=0,
         signed_zeros=False)
@example(extents=[6], alpha=1.5, delta=1.0, eps_blow=0.3, kind="sine", S=100, seed=0,
         signed_zeros=False)
@example(extents=[6, 4], alpha=1.5, delta=1.0, eps_blow=0.0, kind="sine", S=100, seed=0,
         signed_zeros=False)
@example(extents=[6, 4], alpha=1.5, delta=1.0, eps_blow=0.3, kind="sine", S=100, seed=0,
         signed_zeros=False)
# eps_blow > 0, probes that blow up mid-run (up to step 86) and survive: at alpha 0.5 and 2 the
# kernel derives its blow-up test and maximum from max g, at 0.75 it reduces
@example(extents=[6, 4], alpha=0.5, delta=2.0, eps_blow=0.3, kind="random", S=100, seed=0,
         signed_zeros=False)
@example(extents=[6, 4], alpha=2.0, delta=0.5, eps_blow=0.3, kind="random", S=100, seed=0,
         signed_zeros=False)
@example(extents=[6, 4], alpha=0.75, delta=1.0, eps_blow=0.3, kind="random", S=100, seed=0,
         signed_zeros=False)
# the certificate over the remaining horizon: all extents 2 (lam about 6e-17), alpha 0.01,
# no step after the data's, and eps_blow 1, where every step blows up
@example(extents=[2, 2], alpha=2.0, delta=0.5, eps_blow=0.0, kind="random", S=40, seed=0,
         signed_zeros=False)
@example(extents=[2], alpha=0.5, delta=2.0, eps_blow=0.3, kind="sine", S=3, seed=0,
         signed_zeros=False)
@example(extents=[5, 4], alpha=0.01, delta=1.0, eps_blow=0.0, kind="random", S=6, seed=0,
         signed_zeros=False)
@example(extents=[6], alpha=0.01, delta=2.0, eps_blow=0.3, kind="sine", S=40, seed=0,
         signed_zeros=False)
@example(extents=[6, 4], alpha=1.5, delta=1.0, eps_blow=0.0, kind="random", S=0, seed=0,
         signed_zeros=False)
@example(extents=[5, 5], alpha=2.0, delta=0.5, eps_blow=0.3, kind="delta", S=0, seed=0,
         signed_zeros=False)
@example(extents=[6, 4], alpha=1.0, delta=1.0, eps_blow=1.0, kind="random", S=30, seed=0,
         signed_zeros=False)
# Kaplan's exit on a box of extents 2: lam = cos(pi/2) is 0, but its double is 6.1e-17, and
# without the probe's guard the exit reports a blow-up at alpha 0.01, delta 100, which simulate
# never sees, as the one interior site's mean is always 0
@example(extents=[2, 2], alpha=0.01, delta=100.0, eps_blow=0.0, kind="constant", S=50, seed=0,
         signed_zeros=False)
# -0.0 on the boundary and inside: a constant on a 3-D box (on the orthant at
# `_ORTHANT_MIN_SITES` 0) and a centred delta whose other interior sites are all -0.0
@example(extents=[6, 5, 4], alpha=2.0, delta=0.5, eps_blow=0.0, kind="constant", S=100, seed=0,
         signed_zeros=True)
@example(extents=[6, 6], alpha=1.0, delta=1.0, eps_blow=0.3, kind="delta", S=100, seed=0,
         signed_zeros=True)
def test_probe_outcome_matches_simulate(extents, alpha, delta, eps_blow, kind, S, seed,
                                        signed_zeros):
    # every probe of a threshold search, amplitudes packed around the
    # threshold it finds, the two sides of the survival certificate's edge
    # at step 0, for the sine mode those of the infinite sum's edge, and
    # amplitudes whose products underflow to subnormals or to zero, and 0,
    # against the full run of amplitude * profile
    d = BoxDomain(tuple(extents))
    profile = _profile(kind, d, np.random.default_rng(seed))
    if signed_zeros:
        profile = _with_signed_zeros(profile)
    p = Params(alpha, delta)
    res = find_threshold(profile, p, S, 1e-3, eps_blow)
    lams = [lam for lam, _ in res.evaluations]
    lams += [res.amplitude * (1 + t) for t in (-1e-3, -1e-6, 1e-6, 1e-3)]
    if eps_blow < 1:
        lams += [_horizon_edge(profile, p, S, eps_blow, side) for side in (-1e-6, 1e-6)]
        if kind == "sine":
            top = profile.values.max()
            lams += [_certificate_edge(d, p, eps_blow, side) / top for side in (-1e-6, 1e-6)]
    lams += [1e-310 / profile.values.max(), 2.0**-1074, 0.0, -0.0]
    peak = float(profile.values.max())
    with_blowup_exit = _Probe(profile, peak, p, S, eps_blow, blowup_exit=True)
    survival_only = _Probe(profile, peak, p, S, eps_blow, blowup_exit=False)
    assert not np.signbit(survival_only._unit).any()  # the stepper never meets -0.0
    for lam in lams:
        a = Field(d, profile.values * lam)
        want = simulate(a, p, S, eps_blow).outcome
        s0 = None if isinstance(want, Survived) else want.step
        assert survival_only(lam) == s0
        got = with_blowup_exit(lam)
        assert (got is None) == (s0 is None)
        assert got is None or got <= s0


def test_orthant_probe_outcome_matches_simulate():
    # the same draws with all mirror-symmetric data on the orthant, however few its sites
    with mock.patch.object(domain_module, "_ORTHANT_MIN_SITES", 0):
        test_probe_outcome_matches_simulate()


def _counting_steps(monkeypatch):
    """A list that gains an entry for every kernel step the probes take."""
    from latticeheat import majorant

    steps = []

    class CountingStepper(majorant._Stepper):
        def step(self, max_f):
            steps.append(1)
            return super().step(max_f)

    monkeypatch.setattr(majorant, "_Stepper", CountingStepper)
    return steps


def test_nan_arguments_are_rejected():
    # NaN fails every comparison, so each guard is written to fail on it; a negative slack
    # keeps its meaning, and fails this case
    d = BoxDomain((5, 5))
    a = random_field(np.random.default_rng(0), d, amplitude=0.5)
    assert not verify_comparison(a, 1.0, 10, slack=-0.5).holds
    with pytest.raises(ValueError, match="slack"):
        verify_comparison(a, 1.0, 10, slack=math.nan)
    with pytest.raises(ValueError, match="tol"):
        find_threshold(a, Params(1.0, 1.0), 10, math.nan)
    with pytest.raises(ValueError, match="alpha"):
        compute_trace(a, math.nan, 10)


def test_one_stepper_per_search(monkeypatch):
    # a search builds its stepper once, with its probe, and loads every probe's data into it
    from latticeheat import majorant

    built = []

    class Counting(majorant._Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(majorant, "_Stepper", Counting)
    d = BoxDomain((6, 4))
    profile = _profile("random", d, np.random.default_rng(0))
    for _ in range(2):
        res = find_threshold(profile, Params(1.5, 1.0), 100, 1e-3)
        assert len(res.evaluations) > 5
    assert len(built) == 2


@pytest.mark.parametrize("site, value, message", [
    ((0, 2), 1e-300, "field has nonzero boundary values"),
    ((6, 4), -0.5, "field has nonzero boundary values"),
    ((2, 2), math.nan, "field has non-finite values"),
    ((3, 1), math.inf, "field has non-finite values"),
    ((1, 3), -5e-324, "field has negative values"),
])
def test_search_checks_its_profile_first(monkeypatch, site, value, message):
    # a search checks its profile once, with the data check's message, before any probe steps;
    # NaN data fails the bracket's test too, and gets the data check's message
    steps = _counting_steps(monkeypatch)
    d = BoxDomain((6, 4))
    values = random_field(np.random.default_rng(0), d).values
    values[site] = value
    with pytest.raises(ValueError) as raised:
        find_threshold(Field(d, values), Params(1.0, 1.0), 20, 1e-3)
    assert str(raised.value) == message and not steps


def _count_calls(monkeypatch, name):
    """A list that gains an entry at every call of the latticeheat function `name`, through
    every module that holds it."""
    from latticeheat import cli, evolution, majorant

    calls, modules = [], (domain_module, evolution, majorant, cli)
    original = next(getattr(m, name) for m in modules if hasattr(m, name))

    def counted(*args):
        calls.append(1)
        return original(*args)

    for m in modules:
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, counted)
    return calls


@pytest.mark.parametrize("extents, kind", [((32, 32), "constant"), ((6, 4), "random"),
                                           ((9, 8, 10), "delta")])
def test_one_check_and_symmetry_test_per_search(monkeypatch, tmp_path, extents, kind):
    # a `find_threshold` search checks the profile and tests its symmetry once, however many
    # probes it runs; a `sweep` tests the symmetry once per alpha, and its probes take the
    # maximum the CLI checked
    from latticeheat import cli

    checks = _count_calls(monkeypatch, "_check_solution_field")
    tests = _count_calls(monkeypatch, "_mirror_symmetric")
    d = BoxDomain(extents)
    profile = _profile(kind, d, np.random.default_rng(0))
    res = find_threshold(profile, Params(0.5, 2.0), 60, 1e-3)
    assert len(res.evaluations) > 5 and (len(checks), len(tests)) == (1, 1)
    cfg = cli.parse_config({"extents": list(extents), "alpha": 1.0, "delta": 1.0, "steps": 60,
                            "init": {"kind": "constant_interior"},
                            "sweep": {"alphas": [0.5, 1.0, 2.0], "amplitudes": [0.1, 0.5, 2.0]}})
    assert cli.cmd_sweep(cfg, profile, float(profile.values.max()), tmp_path) == cli.EXIT_OK
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 10
    assert (len(checks), len(tests)) == (1, 4)


@pytest.mark.parametrize("command, count", [("simulate", 2), ("verify", 2), ("bound", 1),
                                            ("threshold", 2), ("sweep", 1)])
def test_each_command_checks_its_data_at_the_edge(monkeypatch, tmp_path, command, count):
    # through `cli.main`, the CLI checks the profile once and then only scalars; a public
    # entry it calls checks its own data once more, and a sweep's probes take the CLI's maximum
    from latticeheat import cli

    checks = _count_calls(monkeypatch, "_check_solution_field")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "extents": [16, 16], "alpha": 1.0, "delta": 1.0, "steps": 50, "amplitude": 0.1,
        "init": {"kind": "constant_interior"},
        "sweep": {"alphas": [0.5, 1.0, 2.0], "amplitudes": [0.1, 0.5, 2.0]}}))
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert code in (cli.EXIT_OK, cli.EXIT_BLOWUP) and len(checks) == count


def test_sweep_builds_the_principal_mode_once(monkeypatch, tmp_path):
    # a sweep's probes, one per alpha, read the table's `principal`: on constant data, whose
    # profile is no sine mode, the sweep's one mode_field call is that build, for any number of
    # alphas
    modes = []
    mode_field = spectral.ModeTable.mode_field

    def counted(table, mode):
        modes.append(tuple(mode))
        return mode_field(table, mode)

    monkeypatch.setattr(spectral.ModeTable, "mode_field", counted)
    mode_table.cache_clear()  # no table built by an earlier test
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "extents": [6, 5], "alpha": 1.0, "delta": 1.0, "steps": 50,
        "init": {"kind": "constant_interior"},
        "sweep": {"alphas": [0.5, 1.0, 2.0], "amplitudes": [0.1, 2.0]}}))
    code = cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK and modes == [(1, 1)]


def test_probe_exits_fire(monkeypatch):
    # at alpha = delta = 1 on (8,), the sine mode survives at 0.05 and is
    # certified before its first step, a 0.05 delta at site 1 survives and is
    # certified mid-run, and the sine mode at 0.1 blows up at step 40
    steps = _counting_steps(monkeypatch)
    d = BoxDomain((8,))
    profile = mode_table(d).mode_field((1,))
    p = Params(1.0, 1.0)
    survivor = Field(d, 0.05 * profile.values)
    report = simulate(survivor, p, 2000)
    assert isinstance(report.outcome, Survived) and report.trace[-1].max_f > 1e-100  # never at rest
    assert _Probe(profile, 1.0, p, 2000, 0.0, blowup_exit=False)(0.05) is None
    assert len(steps) == 0
    spike = Field(d, [0, 1.0, 0, 0, 0, 0, 0, 0, 0])
    report = simulate(Field(d, spike.values * 0.05), p, 2000)
    assert isinstance(report.outcome, Survived) and report.trace[-1].max_f > 1e-100
    assert _Probe(spike, 1.0, p, 2000, 0.0, blowup_exit=False)(0.05) is None
    assert 0 < len(steps) < 100
    blower = Field(d, 0.1 * profile.values)
    assert simulate(blower, p, 2000).outcome.step == 40
    assert _Probe(profile, 1.0, p, 2000, 0.0, blowup_exit=True)(0.1) < 40
    assert _Probe(profile, 1.0, p, 2000, 0.0, blowup_exit=False)(0.1) == 40


def test_probe_exits_are_tested_only_on_the_blowup_cadence():
    # the survival cadence is a multiple of the blow-up one, so off the blow-up cadence no exit
    # is tested, and _exits returns None without reading the state, which here is None; on it,
    # an exit reads the state (Kaplan's J at every multiple, the survival sum at every other)
    assert majorant._SURVIVAL_EVERY % majorant._BLOWUP_EVERY == 0
    d = BoxDomain((8,))
    probe = _Probe(mode_table(d).mode_field((1,)), 1.0, Params(1.0, 1.0), 2000, 0.0, True)
    for s in range(4 * majorant._SURVIVAL_EVERY + 1):
        if s % majorant._BLOWUP_EVERY:
            assert probe._exits(s, None, 0.05) is None
        else:
            with pytest.raises((TypeError, AttributeError)):
                probe._exits(s, None, 0.05)


@pytest.mark.parametrize("extents", [(6,), (6, 4)])
@pytest.mark.parametrize("eps_blow", [0.0, 0.3])
def test_survival_certificate_edge(monkeypatch, extents, eps_blow):
    # c * phi, with phi the sine mode at maximum 1 (sin(pi/2) on even
    # extents), is certified before its first step just inside the edge of
    # the sum from m_1, kappa*c^alpha*lam^alpha/(1 - lam^alpha) = 1 - 1e-3,
    # and steps just outside it; over 101 steps lam^(101*alpha) < 1e-9
    steps = _counting_steps(monkeypatch)
    d = BoxDomain(extents)
    phi = mode_table(d).mode_field((1,) * d.dims).values
    assert phi.max() == 1.0
    p = Params(1.5, 1.0)
    probe = _Probe(Field(d, phi), 1.0, p, 100, eps_blow, blowup_exit=True)
    inside = _certificate_edge(d, p, eps_blow, -1e-6, first=1)
    assert probe(inside) is None and len(steps) == 0
    outside = _certificate_edge(d, p, eps_blow, 1e-6, first=1)
    assert isinstance(simulate(Field(d, outside * phi), p, 100, eps_blow).outcome, Survived)
    assert probe(outside) is None and len(steps) > 0


@pytest.mark.parametrize("extents, kind, S", [((48, 48), "sine", 100), ((6, 4), "random", 30),
                                              ((9,), "delta", 5), ((2, 2), "random", 40)])
@pytest.mark.parametrize("eps_blow", [0.0, 0.3])
def test_horizon_certificate_edge(monkeypatch, extents, kind, S, eps_blow):
    # the certificate's closed form meets the term-by-term sum: just inside
    # its edge a probe is certified before its first step, just outside it
    # steps, to simulate's outcome
    steps = _counting_steps(monkeypatch)
    d = BoxDomain(extents)
    profile = _profile(kind, d, np.random.default_rng(0))
    p = Params(1.5, 1.0)
    probe = _Probe(profile, float(profile.values.max()), p, S, eps_blow, blowup_exit=True)
    inside = _horizon_edge(profile, p, S, eps_blow, -1e-6)
    assert probe(inside) is None and len(steps) == 0
    outside = _horizon_edge(profile, p, S, eps_blow, 1e-6)
    assert isinstance(simulate(Field(d, outside * profile.values), p, S, eps_blow).outcome,
                      Survived)
    assert probe(outside) is None and len(steps) > 0


def _infinite_sum_survives(d, p, eps_blow, f):
    """The survival test the probe made before the certificate over the
    remaining horizon: kappa*C^alpha/(1 - lam^alpha) < 1 - 1e-3, in logs."""
    phi, lam = _phi_lam(d)
    if not (eps_blow < 1 and lam**p.alpha < 1):
        return False
    C = float((f[d.core] / phi[d.core]).max())
    log_survival = (
        math.log1p(-1e-3) - math.log(p.alpha) - math.log(p.delta) + math.log1p(-eps_blow)
        + math.log1p(-lam**p.alpha)
    )
    return p.alpha * math.log(C) < log_survival


@settings(max_examples=200, deadline=None)
@given(
    extents=st.lists(st.integers(2, 9), min_size=1, max_size=3),
    alpha=st.one_of(st.sampled_from([0.01, 0.5, 1.0, 2.0]), st.floats(0.05, 4.0)),
    delta=st.sampled_from([0.5, 1.0, 2.0]),
    eps_blow=st.sampled_from([0.0, 1e-3, 0.3]),
    kind=st.sampled_from(["random", "sine", "delta"]),
    # the body draws no (alpha, below) pair whose edge c lies below the smallest normal
    # double, 2.2e-308: no nonzero state lies inside an edge below 5e-324, and below 2.2e-308
    # f = c*profile/C can round to zero or lose its relative precision. At alpha 0.01 the
    # power 1/alpha = 100 puts c there for large `below` (1e-347 at extents [4], delta 2,
    # below 0.998046875)
    below=st.one_of(st.just(1e-9), st.floats(1e-9, 0.999)),
    R=st.integers(1, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
# the failing draw's neighbour, with an edge of about 1e-278
@example(extents=[4], alpha=0.01, delta=2.0, eps_blow=0.0, kind="random", below=0.99, R=1, seed=0)
def test_horizon_certificate_never_weaker(extents, alpha, delta, eps_blow, kind, below, R, seed):
    # a state inside the infinite sum's edge, by the factor 1 - below on the
    # sum, is certified over any remaining horizon
    d = BoxDomain(tuple(extents))
    p = Params(alpha, delta)
    log_edge = _log_certificate_edge(d, p, eps_blow, -below)
    assume(log_edge >= math.log(np.finfo(float).tiny))
    profile = _profile(kind, d, np.random.default_rng(seed))
    phi, _ = _phi_lam(d)
    C = float((profile.values[d.core] / phi[d.core]).max())
    f = profile.values * (math.exp(log_edge) / C)
    M = float(f.max())
    assert M > 0 and _infinite_sum_survives(d, p, eps_blow, f)
    # at step 0 of S = R - 1 the certificate sums over the R remaining steps
    assert _Probe(Field(d, f), M, p, R - 1, eps_blow, blowup_exit=False)._exits(0, f, M) is False


def test_horizon_certificate_at_huge_alpha():
    # at alpha 1e307 a state far below 1 has alpha*log(m_k) = -inf: both sums
    # are 0, and both certify, but for eps_blow 1, where every step blows up
    d = BoxDomain((6,))
    p = Params(1e307, 1e-307)
    phi, _ = _phi_lam(d)
    f = 1e-30 * phi
    assert _infinite_sum_survives(d, p, 0.0, f)
    M = float(f.max())
    assert _Probe(Field(d, f), M, p, 99, 0.0, blowup_exit=False)._exits(0, f, M) is False
    assert _Probe(Field(d, f), M, p, 99, 1.0, blowup_exit=False)._exits(0, f, M) is None


@pytest.mark.parametrize("extents, alpha, delta", [((3,), 2000.0, 5e-4), ((5, 4), 700.0, 1 / 700),
                                                   ((3, 3), 1e6, 1e-6), ((6,), 1.5, 1.0)])
@pytest.mark.parametrize("amplitude", [0.5, 1.5, 3.0, 1e3])
def test_probe_far_above_threshold(extents, alpha, delta, amplitude):
    # a sweep's amplitudes come from its config, so its probes may start far above the
    # threshold; at a large alpha the certificate's geometric part, (C*lam/M)^alpha on the
    # sine mode, is far below the smallest double, and the sum must still carry M^alpha
    d = BoxDomain(extents)
    phi, _ = _phi_lam(d)
    p = Params(alpha, delta)
    probe = _Probe(Field(d, phi), 1.0, p, 20, 0.0, blowup_exit=False)
    a = Field(d, amplitude * phi)
    want = simulate(a, p, 20).outcome
    assert probe(amplitude) == (None if isinstance(want, Survived) else want.step)
    assert isinstance(want, Survived) or probe._exits(0, a.values, amplitude) is None


def test_horizon_certificate_saves_steps(monkeypatch):
    # a 48x48 constant interior at alpha 2, delta 0.5 and 100 steps: the
    # infinite sum never falls below 1 there, and its 15-probe search took
    # 1,054 kernel steps (751 with m_0 in the sum over the remaining horizon);
    # the outcomes, and so the probes, are full runs'
    steps = _counting_steps(monkeypatch)
    d = BoxDomain((48, 48))
    profile = Field.from_interior(d, np.ones(d.interior_shape))
    p = Params(2.0, 0.5)
    res = find_threshold(profile, p, 100, 1e-3)
    assert len(steps) <= 741
    assert len(res.evaluations) == 15
    for lam, blew in res.evaluations:
        assert simulate(Field(d, lam * profile.values), p, 100).blew_up == blew


def _softplus(t):
    """log(1 + e^t), without overflow."""
    return max(t, 0.0) + math.log1p(math.exp(-abs(t)))


def _recurrence_log_jcrit(lam, alpha, r_max):
    """log(Jcrit(r)/threshold) for r = 0..r_max by Kaplan's recurrence, Jcrit(0) = threshold/lam
    and Jcrit(r+1) = F^-1(Jcrit(r))/lam, whose log in threshold units is
    -softplus(-alpha*L)/alpha - log(lam)."""
    L = [-math.log(lam)]
    for _ in range(r_max):
        L.append(-_softplus(-alpha * L[-1]) / alpha - math.log(lam))
    return L


def _table_log_jcrit():
    """`majorant._log_jcrit` as a table: log Jcrit(r) by the recurrence per (alpha, log lam),
    grown to entry r as the reads need it and cut once an entry moves by less than 1e-12, the
    later entries reading the last. A table built per search up to S + 1 entries holds the same
    entries, and gives the same one at every r <= S."""
    tables = {}

    def log_jcrit(alpha, log_lam, r):
        L = tables.setdefault((alpha, log_lam), [-log_lam])
        while len(L) <= r and not (len(L) > 1 and L[-1] >= L[-2] - 1e-12):
            L.append(-_softplus(-alpha * L[-1]) / alpha - log_lam)
        return L[min(r, len(L) - 1)]

    return log_jcrit


def _recording(log_jcrit, reads):
    """log_jcrit, appending each call's r to `reads`."""
    def recorded(alpha, log_lam, r):
        reads.append(r)
        return log_jcrit(alpha, log_lam, r)

    return recorded


# the principal eigenvalues of boxes from 1-D to 3-D, lam 0.5 (3,) to 0.99997 (400,)
_KAPLAN_BOXES = [(3,), (400,), (5, 7), (48, 48), (4, 5, 4), (12, 12, 12)]
_KAPLAN_ALPHAS = [0.01, 0.1, 0.5, 1.0, 2.0, 10.0]
_KAPLAN_STEPS = [0, 1, 2, 7, 100, 1000, 10_000]


def _closed_form_cases(extents):
    """(lam, alpha, r, closed, scale) over the grids: `closed` is the probe's closed form of
    log(Jcrit(r)/threshold), `_log_jcrit`'s -(t + log G)/alpha with t = alpha*log(lam) and
    G = _geometric(r + 1, t), and `scale` = eps*(1 + |t| + log G)/alpha is the a-priori size
    of its rounding: t, G and the log each round to within a few eps of their size, and the
    division by alpha scales the sum's error."""
    d = BoxDomain(extents)
    lam = mode_table(d).principal[1]
    eps = np.finfo(float).eps
    for alpha in _KAPLAN_ALPHAS:
        t = alpha * math.log(lam)
        for r in _KAPLAN_STEPS:
            log_G = math.log(majorant._geometric(r + 1, t))
            closed = majorant._log_jcrit(alpha, math.log(lam), r)
            yield lam, alpha, r, closed, eps * (1 + abs(t) + log_G) / alpha


def _assert_exit_fires_at(d, alpha, r, log_jcrit):
    """The probe's blow-up exit, with r steps remaining, fires on a constant state at
    threshold*Jcrit(r)*(1 + margin)*e^1e-9, and not at e^-1e-9: its closed form is log_jcrit
    to 1e-9. The threshold e^(-log_jcrit/2) keeps it and the state, e^(log_jcrit/2), in the
    double range (log_jcrit reaches -921), and J, a sum over the box, rounds to 1e-12. The
    exits run at step 0 of S = r, where the survival exit, sound, certifies neither state."""
    delta = math.exp(alpha * log_jcrit / 2) / alpha  # threshold = (alpha*delta)^(-1/alpha)
    probe = _Probe(Field.from_interior(d, np.ones(d.interior_shape)), 1.0, Params(alpha, delta),
                   r, 0.0, blowup_exit=True)
    level = log_jcrit + math.log1p(1e-3) - (math.log(alpha) + math.log(delta)) / alpha
    for side, fires in ((1e-9, True), (-1e-9, False)):
        f = np.zeros(probe._stepper.f.shape)
        f[probe._stepper.core] = math.exp(level + side)
        assert probe._exits(0, f, float(f.max())) is (True if fires else None)


def test_geometric_sum():
    # sum_{j<n} e^(j*t) against the sum term by term, and its limits: n terms of 1 at t = 0
    # (and where alpha*log(lam) would underflow to it), and the one term e^0 at t = -inf
    for n in (1, 2, 7, 10_000):
        for t in (-1e-5, -0.5, -30.0):
            terms = [math.exp(j * t) for j in range(n)]
            assert math.isclose(majorant._geometric(n, t), math.fsum(terms))
        assert majorant._geometric(n, 0.0) == n
        assert math.isclose(majorant._geometric(n, -5e-324), n)
        assert majorant._geometric(n, -math.inf) == 1.0


@pytest.mark.parametrize("extents", _KAPLAN_BOXES)
def test_kaplan_closed_form_matches_recurrence(extents):
    # the recurrence rounds once per step: within 4*(r + 1) times the closed form's rounding
    # scale (measured: 0.46 times it), over every r the probe's table once held
    for lam, alpha, r, closed, scale in _closed_form_cases(extents):
        L = _recurrence_log_jcrit(lam, alpha, r)[-1]
        assert abs(closed - L) <= 4 * (r + 1) * scale
        _assert_exit_fires_at(BoxDomain(extents), alpha, r, L)


@pytest.mark.parametrize("extents", _KAPLAN_BOXES)
def test_kaplan_closed_form_matches_mpmath(extents):
    # u(r) = lam^alpha*sum_{j=0..r} lam^(alpha*j) = lam^alpha*(1 - lam^(alpha*(r+1)))/(1 -
    # lam^alpha) to 40 digits: the closed form lies within 4 times its rounding scale
    # (measured: 1.01 times it)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for lam, alpha, r, closed, scale in _closed_form_cases(extents):
            x = mpmath.mpf(lam) ** alpha
            u = x * (1 - x ** (r + 1)) / (1 - x)
            assert abs(closed - float(-mpmath.log(u) / alpha)) <= 4 * scale


def _mp_log_majorant_sum(mpmath, alpha, log_lam, gap, R):
    """log sum_{k=1..R} min(1, e^gap*lam^k)^alpha at the double inputs, in mpmath's precision:
    the k0 = min(R, floor(gap/-log(lam))) terms of 1, where gap + k*log(lam) >= 0, then the
    geometric sum e^(alpha*gap)*x^(k0+1)*(1 - x^(R-k0))/(1 - x) with x = lam^alpha."""
    L = mpmath.mpf(log_lam)
    k0 = min(R, int(mpmath.floor(gap / -L)))
    x = mpmath.exp(alpha * L)
    return mpmath.log(k0 + mpmath.exp(alpha * gap) * x ** (k0 + 1) * (1 - x ** (R - k0)) / (1 - x))


@pytest.mark.parametrize("extents", _KAPLAN_BOXES)
def test_majorant_sum_matches_mpmath(extents):
    # the survival certificate's sum against its value to 40 digits at the same double inputs:
    # within 4 times the a-priori scale eps*(1 + |t| + 2*alpha*gap + log G + |log sum|), with
    # t = alpha*log(lam) and G = _geometric(R, t), the largest geometric sum it forms. t, the
    # exponent alpha*(gap + k*log(lam)) (k*|log(lam)| <= gap + |log(lam)| at the switch index
    # k), G, the logs and the exp each round to within a few eps of their size (measured: 0.63
    # times the scale); the switch index, if its rounding moves it, moves a term within the same
    # rounding of 1
    mpmath = pytest.importorskip("mpmath")
    log_lam = math.log(_phi_lam(BoxDomain(extents))[1])
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for alpha in _KAPLAN_ALPHAS:
            t = alpha * log_lam
            for R in [R for R in _KAPLAN_STEPS if R >= 1]:
                log_G = math.log(majorant._geometric(R, t))
                for gap in (0.0, 0.5, 30.0):
                    got = majorant._log_majorant_sum(alpha, log_lam, gap, R)
                    want = float(_mp_log_majorant_sum(mpmath, alpha, log_lam, gap, R))
                    scale = eps * (1 + abs(t) + 2 * alpha * gap + log_G + abs(want))
                    assert abs(got - want) <= 4 * scale, (alpha, R, gap)


def test_closed_forms_reach_their_limits():
    # at R = r = 10^6 the survival sum from gap 0, log(x*(1 - x^R)/(1 - x)) with x = lam^alpha,
    # is log(x/(1 - x)) less the tail -log(1 - x^R), and log Jcrit(r) is
    # log((1 - x)^(1/alpha)/lam) plus -log(1 - x^(r+1))/alpha: each within 4 times its rounding
    # scale (measured: 0.75 times it). The tails are below the scale on 31 of the 36 (box, alpha)
    # pairs; the other 5 have lam near 1 and a small alpha, (400,) at alpha <= 1 and (48, 48)
    # at alpha 0.01, whose x^R runs from 0.73 down to 4e-14
    mpmath = pytest.importorskip("mpmath")
    eps, R = np.finfo(float).eps, 10**6
    reached = 0
    with mpmath.workdps(40):
        for extents in _KAPLAN_BOXES:
            log_lam = math.log(_phi_lam(BoxDomain(extents))[1])
            for alpha in _KAPLAN_ALPHAS:
                t = alpha * log_lam
                log_G = math.log(majorant._geometric(R + 1, t))
                x = mpmath.exp(alpha * mpmath.mpf(log_lam))
                limit_sum = mpmath.log(x / (1 - x))
                limit_jcrit = mpmath.log(1 - x) / alpha - log_lam
                tail_sum = -mpmath.log(1 - x**R)
                tail_jcrit = -mpmath.log(1 - x ** (R + 1)) / alpha
                scale_sum = eps * (1 + abs(t) + log_G + abs(float(limit_sum)))
                scale_jcrit = eps * (1 + abs(t) + log_G) / alpha
                got_sum = majorant._log_majorant_sum(alpha, log_lam, 0.0, R)
                got_jcrit = majorant._log_jcrit(alpha, log_lam, R)
                assert abs(got_sum - float(limit_sum - tail_sum)) <= 4 * scale_sum
                assert abs(got_jcrit - float(limit_jcrit + tail_jcrit)) <= 4 * scale_jcrit
                if tail_sum < scale_sum and tail_jcrit < scale_jcrit:
                    reached += 1
                    assert abs(got_sum - float(limit_sum)) <= 4 * scale_sum
                    assert abs(got_jcrit - float(limit_jcrit)) <= 4 * scale_jcrit
    assert reached == 31


def _threshold_sweep_searches():
    """The threshold searches of the benchmark's `threshold-sweep` workload at seed 777, and a
    48x48 constant interior at alpha 2, delta 1/2 and 100 steps: (params, S, tol, eps_blow,
    profile)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    configs = [op.config for group in workloads.make_plan("threshold-sweep", 777)
               for op in group if op.command == "threshold"]
    configs.append({"extents": [48, 48], "alpha": 2.0, "delta": 0.5, "steps": 100,
                    "amplitude": 1.0, "init": {"kind": "constant_interior"}})
    for config in configs:
        cfg = cli.parse_config(config)
        yield cfg.params, cfg.steps, cfg.threshold_tol, cfg.eps_blow, cli.build_profile(cfg)


def test_closed_form_probe_matches_table(monkeypatch):
    # the same probes, outcomes and kernel steps with the closed form as with Kaplan's recurrence
    # as a table, which the blow-up exit reads in place of `_log_jcrit` at the same remaining steps
    steps = _counting_steps(monkeypatch)
    searches = list(_threshold_sweep_searches())
    assert len(searches) == 7
    closed_form = majorant._log_jcrit
    for p, S, tol, eps_blow, profile in searches:
        runs = []
        for log_jcrit in (closed_form, _table_log_jcrit()):
            reads = []
            monkeypatch.setattr(majorant, "_log_jcrit", _recording(log_jcrit, reads))
            steps.clear()
            result = find_threshold(profile, p, S, tol, eps_blow)
            runs.append((result.evaluations, len(steps), reads))
        assert runs[0] == runs[1] and runs[1][2]  # the table was read


@settings(max_examples=150, deadline=None)
@given(
    extents=st.lists(st.integers(2, 7), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    S=st.integers(0, 60),
    signed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_flow_matches_reference_loop(extents, alpha, S, signed, seed):
    d = BoxDomain(tuple(extents))
    rng = np.random.default_rng(seed)
    a = Field.from_interior(d, rng.uniform(-1.0 if signed else 0.0, 1.0, size=d.interior_shape))
    h = list(reference_flow(d, a.values, S))  # M applied step by step as the reference mean
    np.testing.assert_array_equal(compute_trace(a, alpha, S).m, [h_s[d.core].max() for h_s in h])
    np.testing.assert_array_equal(step_linear_direct(a, S).values, h[-1])


def _signed_zero_data(d, rng):
    """Nonnegative data with -0.0 on its boundary and on a third of its interior."""
    interior = rng.uniform(0.0, 1.0, d.interior_shape)
    interior[rng.random(d.interior_shape) < 1 / 3] = -0.0
    return with_boundary(d, interior, -0.0)


def _flow_bytes(a, S):
    """(h^s, m_s) as bytes for s = 0..S from the flow, which yields each h^s with its span."""
    out = []
    for h, h_span, m_s in _linear_flow(a, S):  # h is overwritten k steps on
        assert is_span_of(h_span, h)
        out.append((h.tobytes(), _bits(m_s)))
    return out


def _block_rows(monkeypatch):
    """The row counts of the flows built from now on: each takes k rows and a spare."""
    counts, real = [], spectral._span_buffers

    def recording(shape, count):
        counts.append(count - 1)
        return real(shape, count)

    monkeypatch.setattr(spectral, "_span_buffers", recording)
    return counts


@pytest.mark.parametrize("dims", [1, 2, 3])
@pytest.mark.parametrize("k", range(2, 17))
def test_linear_flow_blocks_match_reference(monkeypatch, k, dims):
    # h^s and m_s bit for bit against the frozen reference mean, on data with -0.0, at
    # horizons of a whole number of blocks of k rows and one or two states over: S = k - 1, k,
    # k + 1, 2k and 2k + 1, and the same 31k steps on, where on boxes of at most 2,048 sites
    # the rule gives k = (S + 1) // 32 (at the first five, k = 2 whatever k is drawn)
    rng = np.random.default_rng(100 * k + dims)
    d = BoxDomain(tuple(int(n) for n in rng.integers(2, 7, dims)))
    a = _signed_zero_data(d, rng)
    horizons = [base + j for base in (0, 31 * k) for j in (k - 1, k, k + 1, 2 * k, 2 * k + 1)]
    want = [(h.tobytes(), _bits(h[d.core].max()))
            for h in reference_flow(d, a.values + 0.0, max(horizons))]
    rows = _block_rows(monkeypatch)
    for S in horizons:
        assert _flow_bytes(a, S) == want[:S + 1], S
    assert rows == [2] * 5 + [k] * 5


@pytest.mark.parametrize("extents, k", [((2000,), 16), ((60, 60), 8), ((130, 70), 3),
                                        ((23, 23, 23), 2), ((4, 4, 4, 4, 4), 10)])
def test_linear_flow_blocks_on_large_boxes_match_reference(monkeypatch, extents, k):
    # on boxes of more than 2,048 sites the rule's k is 2^15 // sites (at least 2), at every
    # horizon past 32k steps; the data is >= +0.0 or -0.0, so the 3-D and 5-D plans fold
    # their faces into the divide
    d = BoxDomain(extents)
    a = _signed_zero_data(d, np.random.default_rng(k))
    S = 33 * k + 1
    want = [(h.tobytes(), _bits(h[d.core].max())) for h in reference_flow(d, a.values + 0.0, S)]
    rows = _block_rows(monkeypatch)
    assert _flow_bytes(a, S) == want
    assert rows == [k]


@settings(max_examples=60, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 0.75, 1.0, 2.0]),
    amplitude=st.floats(0.3, 1.5),
    slack=st.sampled_from([1e-12, 0.0, -1e-2]),
    factor=st.integers(20, 40),
    extra=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
)
@example(extents=[8, 8], alpha=0.5, amplitude=0.3, slack=1e-12, factor=40, extra=0, seed=0)
def test_early_stopping_verify_matches_reference(extents, alpha, amplitude, slack, factor, extra,
                                                 seed):
    # the comparison stops at step `stop` (P_s reaches 1, or a failure) and the flow runs
    # alone on to S >= 20 * stop, over many blocks of up to 16 rows and into a partial one;
    # partial sums, margins and the verdict are the reference's
    d = BoxDomain(tuple(extents))
    a = random_field(np.random.default_rng(seed), d, amplitude=amplitude)
    stop = len(_reference_verify(a, alpha, 60, slack).margins)
    assume(stop <= 50)
    S = factor * max(stop, 1) + extra
    got, want = verify_comparison(a, alpha, S, slack), _reference_verify(a, alpha, S, slack)
    assert len(got.margins) == stop
    assert _bits(got.trace.partial_sums) == _bits(want.trace.partial_sums)
    assert _bits(got.margins) == _bits(want.margins)
    assert (got.holds, len(got.margins), got.trace.defined_up_to, got.failure) == (
        want.holds, len(want.margins), want.trace.defined_up_to, want.failure)


def _cli_regime_bound(a_scaled, alpha):
    """The CLI's regime dispatch as it stood before `regime_bound`."""
    from latticeheat import analyze

    table = mode_table(a_scaled.domain)
    B_max = analyze(a_scaled).max_abs
    if alpha <= 1:
        return bound_alpha_le_1(B_max, table, alpha)
    s0 = tail_start(table)
    trace = compute_trace(a_scaled, alpha, s0)
    return bound_alpha_gt_1(B_max, table, alpha, trace.m[:s0])


@settings(max_examples=100, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    amplitude=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_regime_bound_matches_cli_dispatch(extents, alpha, amplitude, seed):
    d = BoxDomain(tuple(extents))
    a = random_field(np.random.default_rng(seed), d, amplitude=amplitude)
    assert regime_bound(a, alpha) == _cli_regime_bound(a, alpha)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_regime_bound_refuses_a_nonzero_boundary(monkeypatch, alpha):
    # in both regimes, with one boundary test per call: at alpha <= 1 this data had a bound of
    # 0.63 (6x5, interior 0.01, one boundary site 0.3), which certifies global existence
    tests, boundary_is_zero = [], Field.boundary_is_zero
    monkeypatch.setattr(Field, "boundary_is_zero", lambda f: tests.append(1) or boundary_is_zero(f))
    d = BoxDomain((6, 5))
    a = Field.from_interior(d, np.full(d.interior_shape, 0.01))
    regime_bound(a, alpha)
    assert len(tests) == 1
    a.values[0, 2] = 0.3
    with pytest.raises(ValueError) as raised:
        regime_bound(a, alpha)
    assert str(raised.value) == "field has nonzero boundary values" and len(tests) == 2


def _scan_tail_start(c):
    """The linear scan that ModeTable.tail_start replaced: the first s >= 1
    with float(np.sum(c**s)) < 1. Sums are formed for 512 values of s at a
    time; one within 1e-9 of 1 is formed again by the scan's own expression,
    so the blocked rounding never decides."""
    start = 1
    while True:
        steps = np.arange(start, start + 512)
        totals = (c[None, :] ** steps[:, None]).sum(axis=1)
        near = np.abs(totals - 1.0) < 1e-9
        totals[near] = [float(np.sum(c ** int(s))) for s in steps[near]]
        below = np.nonzero(totals < 1.0)[0]
        if below.size:
            return int(steps[below[0]])
        start += 512


@pytest.mark.parametrize("domains", [
    [(n,) for n in range(2, 200)],
    [(n, n) for n in range(2, 41)] + [(n, n + 3) for n in range(2, 30, 3)] + [(3, 17), (30, 5)],
    [(n, n, n) for n in range(2, 14)] + [(2, 2, 40), (9, 4, 6)],
], ids=["1d", "2d", "3d"])
def test_tail_start_matches_scan(domains):
    for extents in domains:
        table = mode_table(BoxDomain(extents))
        assert table.tail_start == _scan_tail_start(np.abs(table.eigenvalues).ravel()), extents


def _count_scans(monkeypatch):
    """Record each run of the s0 scan behind the cached ModeTable.tail_start."""
    from latticeheat import ModeTable

    scans = []
    prop = ModeTable.__dict__["tail_start"]
    scan = prop.func
    monkeypatch.setattr(prop, "func", lambda table: scans.append(1) or scan(table))
    mode_table.cache_clear()
    return scans


def test_alpha_gt_1_bound_scans_for_s0_once(monkeypatch):
    scans = _count_scans(monkeypatch)
    a = random_field(np.random.default_rng(5), BoxDomain((5, 4)), amplitude=0.05)
    rep = regime_bound(a, 2.0)
    assert rep.s0_tail == tail_start(mode_table(a.domain))
    assert len(scans) == 1


def test_sweep_scans_for_s0_once(monkeypatch, tmp_path):
    from latticeheat.cli import main

    scans = _count_scans(monkeypatch)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "extents": [5, 4], "alpha": 2.0, "delta": 0.5, "steps": 10,
        "init": {"kind": "constant_interior"},
        "sweep": {"alphas": [1.5, 2.0, 3.0], "amplitudes": [0.01, 0.1]},
    }))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(scans) == 1


def _layouts(values):
    """values as every-other-element, negative-stride and (past 1-D) Fortran-ordered arrays."""
    wide = np.zeros(tuple(2 * n for n in values.shape))
    wide[(slice(None, None, 2),) * values.ndim] = values
    layouts = {"every_other": wide[(slice(None, None, 2),) * values.ndim],
               "reversed": np.ascontiguousarray(values[::-1])[::-1]}
    if values.ndim > 1:  # a 1-D array is C- and Fortran-ordered at once
        layouts["fortran"] = np.asfortranarray(values)
    return layouts


@pytest.mark.parametrize("extents", [(6,), (5, 4), (4, 3, 5)])
@pytest.mark.parametrize("amplitude", [0.3, 2.0])  # the verify flows survive; simulate blows up
def test_flows_ignore_memory_layout(rng, extents, amplitude):
    # simulate, compute_trace and verify_comparison on values that are not
    # C-contiguous give the same bits as on C-ordered values
    alpha = 1.5
    d = BoxDomain(extents)
    a = random_field(rng, d, amplitude=amplitude)
    p = Params(alpha, 1.0 / alpha)

    def bits(report, trace, verdict):
        records = [(r.max_f, r.max_g) for r in report.trace]
        return (report.outcome, np.array(records).tobytes(), trace.m.tobytes(),
                trace.partial_sums.tobytes(), verdict.holds, verdict.failure,
                verdict.margins.tobytes(), verdict.trace.m.tobytes())

    def run(field):
        return bits(simulate(field, p, 40), compute_trace(field, alpha, 40),
                    verify_comparison(field, alpha, 40))

    want = run(a)
    for name, values in _layouts(a.values).items():
        assert not values.flags.c_contiguous, name
        np.testing.assert_array_equal(values, a.values)
        assert run(Field(d, values)) == want, name


@pytest.mark.parametrize("extents", [(6,), (5, 4), (4, 3, 5)])
def test_linear_flow_starts_at_its_own_copy(rng, extents):
    # h^0 is the flow's first kernel buffer: the data + 0.0 in C order, whatever the data's
    # layout, so its -0.0 are +0.0; a nonzero boundary is refused at every S, S = 0 included
    d = BoxDomain(extents)
    interior = rng.uniform(0.0, 1.0, d.interior_shape)
    interior[rng.random(d.interior_shape) < 0.3] = -0.0
    a = with_boundary(d, interior, -0.0)
    want = (a.values + 0.0).tobytes()
    assert want != a.values.tobytes()
    for name, values in {"C": a.values, **_layouts(a.values)}.items():
        for S in (0, 3):
            h0, *_ = next(_linear_flow(Field(d, values), S))
            assert h0.flags.c_contiguous and h0.tobytes() == want, (name, S)
    edged = a.values + 0.0
    edged[(0,) * d.dims] = 0.5
    edged[(1,) + (-1,) * (d.dims - 1)] += 2.0  # from 2-D on a boundary site in the span
    for S in (0, 1):
        with pytest.raises(ValueError, match="nonzero boundary"):
            step_linear_direct(Field(d, edged), S)
        with pytest.raises(ValueError, match="nonzero boundary"):
            compute_trace(Field(d, edged), 1.0, S)
    with pytest.raises(ValueError, match="nonzero boundary"):
        step_linear_direct(Field(d, edged), 1)
