import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeheat import (
    BoxDomain,
    ComparisonVerdict,
    Field,
    Params,
    Survived,
    apply_M,
    bound_alpha_gt_1,
    bound_alpha_le_1,
    compute_trace,
    find_threshold,
    majorant_field,
    mode_table,
    simulate,
    step_linear_direct,
    tail_start,
    verify_comparison,
)

from latticeheat.domain import neighbor_mean_interior
from latticeheat.evolution import _check_solution_field, _first_offender
from latticeheat.majorant import COMPARISON_SLACK, ComparisonFailure

from conftest import random_domain, random_field

SQ2 = np.sqrt(2) / 2


def sine_profile_1d_n4(scale=1.0):
    d = BoxDomain((4,))
    vals = scale * np.sin(np.pi * np.arange(5) / 4)
    vals[[0, 4]] = 0.0
    return Field(d, vals)


class TestComputeTrace:
    def test_zero_data(self):
        d = BoxDomain((3, 3))
        t = compute_trace(Field.zeros(d), 1.0, 20)
        assert np.all(t.m == 0)
        assert np.all(t.partial_sums == 0)
        assert t.all_steps_defined

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
        assert t.all_steps_defined

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
        fbar = majorant_field(t, Field.zeros(d), 3, 1.0)
        assert np.all(fbar.values == 0)

    def test_identity_when_sums_zero(self):
        d = BoxDomain((4,))
        z = Field.zeros(d)
        t = compute_trace(z, 1.0, 5)
        np.testing.assert_array_equal(majorant_field(t, z, 2, 1.0).values, z.values)

    def test_refuses_undefined_steps(self):
        t = compute_trace(sine_profile_1d_n4(0.9), 1.0, 50)
        with pytest.raises(ValueError):
            majorant_field(t, sine_profile_1d_n4(0.9), t.defined_up_to + 1, 1.0)

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
        v = verify_comparison(Field.zeros(d), 1.0, 20)
        assert v.holds
        assert np.all(v.margins == 0)

    def test_small_sine_mode_long_horizon(self):
        v = verify_comparison(sine_profile_1d_n4(0.2), 1.0, 100)
        assert v.holds
        assert v.checked_steps == 101
        assert np.all(v.margins >= -1e-12)

    def test_truncates_at_defined_up_to(self):
        v = verify_comparison(sine_profile_1d_n4(0.9), 1.0, 100)
        assert v.holds
        assert v.defined_up_to < 100
        assert v.checked_steps == v.defined_up_to + 1

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
        assert v.trace.defined_up_to == t.defined_up_to == v.defined_up_to


def _reference_step(f, p, eps_blow=0.0):
    """step_nonlinear as first written, for the reference verify loop."""
    _check_solution_field(f)
    g = neighbor_mean_interior(f.values)
    denom = 1.0 - p.alpha * p.delta * np.power(g, p.alpha)
    bad = denom <= eps_blow
    if np.any(bad):
        return _first_offender(bad, g)
    nxt = Field.zeros(f.domain)
    nxt.interior()[...] = g / np.power(denom, 1.0 / p.alpha)
    return nxt


def _reference_verify(a, alpha, S, slack, eps_blow=0.0):
    """verify_comparison as first written: the linear flow run once for the
    trace and again beside the nonlinear flow."""
    p = Params(alpha=alpha, delta=1.0 / alpha)
    trace = compute_trace(a, alpha, S)
    last = min(S, trace.defined_up_to)
    margins = []
    f = a
    h = a
    for s in range(last + 1):
        fbar = majorant_field(trace, h, s, alpha)
        margins.append(float((fbar.values - f.values).min()))
        tol = slack * np.maximum(1.0, fbar.values)
        if np.any(fbar.values < f.values - tol):
            site = tuple(int(i) for i in np.argwhere(fbar.values < f.values - tol)[0])
            failure = ComparisonFailure(
                step=s, site=site, majorant_value=float(fbar.values[site]),
                solution_value=float(f.values[site]),
            )
            return ComparisonVerdict(False, np.array(margins), s + 1, trace.defined_up_to, failure)
        if s < last:
            nxt = _reference_step(f, p, eps_blow)
            if not isinstance(nxt, Field):
                failure = ComparisonFailure(
                    step=s + 1, site=nxt.site, majorant_value=np.inf,
                    solution_value=nxt.g_value,
                )
                return ComparisonVerdict(False, np.array(margins), s + 1, trace.defined_up_to, failure)
            f = nxt
            h = apply_M(h)
    return ComparisonVerdict(True, np.array(margins), last + 1, trace.defined_up_to)


@settings(max_examples=150, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    amplitude=st.floats(0.0, 1.0),
    S=st.integers(0, 60),
    slack=st.sampled_from([1e-12, 0.0, -1e-6, -1e-2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_verify_matches_reference(extents, alpha, amplitude, S, slack, seed):
    # amplitudes near 1 truncate the majorant early; a negative slack demands
    # a positive margin and so exercises the failure path
    d = BoxDomain(tuple(extents))
    a = random_field(np.random.default_rng(seed), d, amplitude=amplitude)
    got = verify_comparison(a, alpha, S, slack)
    want = _reference_verify(a, alpha, S, slack)
    np.testing.assert_array_equal(got.margins, want.margins)
    assert (got.holds, got.checked_steps, got.defined_up_to, got.failure) == (
        want.holds, want.checked_steps, want.defined_up_to, want.failure
    )
    trace = compute_trace(a, alpha, S)
    np.testing.assert_array_equal(got.trace.m, trace.m)
    np.testing.assert_array_equal(got.trace.partial_sums, trace.partial_sums)


def test_verify_blowup_path_matches_reference(monkeypatch, rng):
    # the majorant rules out blow-up of the true dynamics, so a stepper with a
    # raised blow-up level stands in for a faulty one
    from latticeheat import majorant

    stepper = majorant._Stepper
    monkeypatch.setattr(majorant, "_Stepper", lambda a, p, eps: stepper(a, p, 0.9))
    for _ in range(10):
        d = random_domain(rng)
        a = random_field(rng, d, amplitude=0.3)
        got = verify_comparison(a, 1.0, 20)
        want = _reference_verify(a, 1.0, 20, COMPARISON_SLACK, eps_blow=0.9)
        np.testing.assert_array_equal(got.margins, want.margins)
        assert (got.holds, got.checked_steps, got.failure) == (
            want.holds, want.checked_steps, want.failure
        )
        np.testing.assert_array_equal(got.trace.m, compute_trace(a, 1.0, 20).m)


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

    def test_bounds_dominate_partial_sums(self, rng):
        from latticeheat import analyze, normalize_scaling

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
        from latticeheat import analyze

        for _ in range(20):
            d = random_domain(rng, max_extent=6)
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            a = random_field(rng, d, amplitude=0.05)
            half = Field(d, a.values / 2)
            table = mode_table(d)
            if alpha <= 1:
                full = bound_alpha_le_1(analyze(a).max_abs, table, alpha)
                halved = bound_alpha_le_1(analyze(half).max_abs, table, alpha)
            else:
                s0 = tail_start(table)
                tf = compute_trace(a, alpha, s0)
                th = compute_trace(half, alpha, s0)
                full = bound_alpha_gt_1(analyze(a).max_abs, table, alpha, tf.m)
                halved = bound_alpha_gt_1(analyze(half).max_abs, table, alpha, th.m)
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
            find_threshold(Field.zeros(d), Params(1, 1), 10, 1e-3)
