import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeheat import (
    BlewUpAt,
    BlowupReport,
    BlowupSignal,
    BoxDomain,
    Field,
    Params,
    Survived,
    normalize_scaling,
    simulate,
    step_nonlinear,
)
from latticeheat.domain import neighbor_mean_interior
from latticeheat.evolution import StepRecord, _check_solution_field, _first_offender

from conftest import random_domain, random_field

TINY = np.finfo(float).tiny


def _reference_simulate(a, p, max_steps, eps_blow=0.0):
    """simulate as first written: every step re-validated, a fresh Field per step."""
    f = a
    trace = []
    for s in range(max_steps + 1):
        _check_solution_field(f)
        g = neighbor_mean_interior(f.values)
        trace.append(StepRecord(max_f=f.max(), max_g=float(g.max())))
        denom = 1.0 - p.alpha * p.delta * np.power(g, p.alpha)
        bad = denom <= eps_blow
        if np.any(bad):
            sig = _first_offender(bad, g)
            return BlowupReport(
                outcome=BlewUpAt(step=s, site=sig.site, g_value=sig.g_value),
                trace=trace,
            )
        if s == max_steps:
            break
        nxt = Field.zeros(f.domain)
        nxt.interior()[...] = g / np.power(denom, 1.0 / p.alpha)
        f = nxt
    return BlowupReport(outcome=Survived(steps=max_steps), trace=trace)


def _assert_same_run(fast, ref):
    assert fast.outcome == ref.outcome
    assert len(fast.trace) == len(ref.trace)
    for s, (got, want) in enumerate(zip(fast.trace, ref.trace)):
        assert got == want, f"step {s}"


class TestParams:
    def test_threshold(self):
        assert Params(1, 1).threshold == 1.0
        assert Params(1, 4).threshold == pytest.approx(0.25)
        assert Params(2, 0.5).threshold == 1.0
        assert Params(0.5, 2).threshold == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Params(0, 1)
        with pytest.raises(ValueError):
            Params(1, -2)


class TestStepNonlinear:
    def test_hand_derived_step(self):
        # g = (0.2, 0.4, 0.2); 0.2/0.8 = 0.25, 0.4/0.6 = 2/3
        d = BoxDomain((4,))
        f = Field(d, [0, 0.4, 0.4, 0.4, 0])
        out = step_nonlinear(f, Params(1, 1))
        assert isinstance(out, Field)
        np.testing.assert_allclose(
            out.values, [0, 0.25, 2 / 3, 0.25, 0], rtol=0, atol=1e-15
        )

    def test_zero_is_fixed_point(self, rng):
        d = random_domain(rng)
        out = step_nonlinear(Field.zeros(d), Params(0.7, 2.3))
        assert isinstance(out, Field)
        assert np.all(out.values == 0)

    def test_isolated_site_decays(self):
        d = BoxDomain((2,))
        f = Field(d, [0, 0.5, 0])
        out = step_nonlinear(f, Params(1, 1))
        assert isinstance(out, Field)
        assert np.all(out.values == 0)

    def test_blowup_signal_at_threshold(self):
        d = BoxDomain((4,))
        f = Field(d, [0, 2, 2, 2, 0])
        out = step_nonlinear(f, Params(1, 1))
        assert isinstance(out, BlowupSignal)
        assert out.site == (1,)  # lexicographically first offender
        assert out.g_value == 1.0

    def test_rejects_contract_violations(self):
        d = BoxDomain((4,))
        with pytest.raises(ValueError):
            step_nonlinear(Field(d, [0.1, 0, 0, 0, 0]), Params(1, 1))
        with pytest.raises(ValueError):
            step_nonlinear(Field(d, [0, -0.1, 0, 0, 0]), Params(1, 1))

    def test_rejects_negative_eps_blow(self):
        d = BoxDomain((4,))
        with pytest.raises(ValueError, match="eps_blow"):
            step_nonlinear(Field(d, [0, 0.1, 0.1, 0.1, 0]), Params(1, 1), eps_blow=-0.5)

    def test_does_not_alias_input(self):
        d = BoxDomain((4,))
        f = Field(d, [0, 0.4, 0.4, 0.4, 0])
        out = step_nonlinear(f, Params(1, 1))
        out.values[2] = 7.0
        np.testing.assert_array_equal(f.values, [0, 0.4, 0.4, 0.4, 0])

    def test_preserves_nonnegativity_and_boundary(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            f = random_field(rng, d, amplitude=0.2)
            out = step_nonlinear(f, Params(1, 1))
            if isinstance(out, Field):
                assert out.boundary_is_zero()
                assert np.all(out.values >= 0)

    def test_dominates_linear_step(self, rng):
        # denominator <= 1, so the nonlinear step is >= the neighbor average
        from latticeheat import apply_M

        for _ in range(20):
            d = random_domain(rng)
            f = random_field(rng, d, amplitude=0.2)
            out = step_nonlinear(f, Params(1, 1))
            if isinstance(out, Field):
                assert np.all(out.values >= apply_M(f).values - 1e-15)


class TestSimulate:
    def test_golden_blowup(self):
        d = BoxDomain((4,))
        a = Field(d, [0, 0.9, 0.9, 0.9, 0])
        report = simulate(a, Params(1, 1), 10)
        assert isinstance(report.outcome, BlewUpAt)
        assert report.outcome.step == 1
        assert report.outcome.site == (1,)
        assert report.outcome.g_value == pytest.approx(4.5, abs=1e-14)
        assert len(report.trace) == 2

    def test_zero_data_survives(self):
        d = BoxDomain((3, 3))
        report = simulate(Field.zeros(d), Params(2, 3), 100)
        assert report.outcome == Survived(steps=100)
        assert len(report.trace) == 101

    def test_isolated_site_survives(self):
        d = BoxDomain((2,))
        report = simulate(Field(d, [0, 0.5, 0]), Params(1, 1), 50)
        assert report.outcome == Survived(steps=50)

    def test_trace_max_g_below_threshold_before_blowup(self):
        d = BoxDomain((4,))
        a = Field(d, [0, 0.9, 0.9, 0.9, 0])
        report = simulate(a, Params(1, 1), 10)
        p = Params(1, 1)
        for rec in report.trace[:-1]:
            assert rec.max_g < p.threshold
        assert report.trace[-1].max_g >= p.threshold

    def test_blowup_time_stable_under_longer_horizon(self, rng):
        d = BoxDomain((4,))
        a = Field(d, [0, 0.9, 0.9, 0.9, 0])
        r1 = simulate(a, Params(1, 1), 10)
        r2 = simulate(a, Params(1, 1), 1000)
        assert r1.outcome == r2.outcome

    def test_monotone_in_initial_data(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            a = random_field(rng, d, amplitude=0.3)
            bump = rng.uniform(0, 0.05, size=d.interior_shape)
            b = Field.from_interior(d, a.interior() + bump)
            p = Params(1, 1)
            fa, fb = a, b
            for _ in range(10):
                na = step_nonlinear(fa, p)
                nb = step_nonlinear(fb, p)
                if not (isinstance(na, Field) and isinstance(nb, Field)):
                    # if the smaller blows up the larger must too
                    if isinstance(na, BlowupSignal):
                        assert isinstance(nb, BlowupSignal)
                    break
                assert np.all(na.values <= nb.values + 1e-12)
                fa, fb = na, nb

    def test_rejects_negative_eps_blow(self):
        d = BoxDomain((4,))
        with pytest.raises(ValueError, match="eps_blow"):
            simulate(Field(d, [0, 0.1, 0.1, 0.1, 0]), Params(1, 1), 10, eps_blow=-0.5)

    def test_zero_data_blows_up_when_eps_blow_reaches_one(self):
        # the fixed-point exit comes after the blow-up test of the step
        report = simulate(Field.zeros(BoxDomain((3, 3))), Params(1, 1), 100, eps_blow=1.0)
        assert report.outcome == BlewUpAt(step=0, site=(1, 1), g_value=0.0)
        assert len(report.trace) == 1

    def test_fixed_point_fills_trace(self):
        report = simulate(Field.zeros(BoxDomain((4,))), Params(1, 1), 5)
        assert report.outcome == Survived(steps=5)
        assert report.trace == [StepRecord(max_f=0.0, max_g=0.0)] * 6

    def test_underflowing_update_is_blowup(self):
        # 1 - g^0.01 is a few ulp above 0 at the middle site, and
        # denom^100 underflows to 0: the update writes inf there
        v = 1.0
        for _ in range(41):
            v = np.nextafter(v, 0.0)
        d = BoxDomain((4,))
        p = Params(0.01, 100)
        report = simulate(Field(d, [0, v, v, v, 0]), p, 10)
        assert report.outcome == BlewUpAt(step=0, site=(2,), g_value=float(v))
        assert report.trace == [StepRecord(max_f=float(v), max_g=float(v))]
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="non-finite"):
            _reference_simulate(Field(d, [0, v, v, v, 0]), p, 10)
        # at the horizon the overflowing update is computed but never read
        report = simulate(Field(d, [0, v, v, v, 0]), p, 0)
        assert report == BlowupReport(Survived(0), [StepRecord(max_f=float(v), max_g=float(v))])
        report = simulate(Field(d, [0, v, v, v, 0]), p, 1)
        assert report.outcome == BlewUpAt(step=0, site=(2,), g_value=float(v))


@settings(max_examples=200, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    delta=st.floats(0.25, 4.0),
    amplitude=st.floats(0.0, 1.5),
    zero=st.booleans(),
    eps_blow=st.sampled_from([0.0, 1e-3, 0.25, 1.0, 2.0]),
    steps=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulate_matches_reference(extents, alpha, delta, amplitude, zero, eps_blow, steps, seed):
    # amplitude is in units of the blow-up threshold, so about half the runs blow up
    d = BoxDomain(tuple(extents))
    p = Params(alpha, delta)
    if zero:
        a = Field.zeros(d)
    else:
        interior = np.random.default_rng(seed).uniform(0.0, amplitude * p.threshold, d.interior_shape)
        a = Field.from_interior(d, interior)
    _assert_same_run(simulate(a, p, steps, eps_blow), _reference_simulate(a, p, steps, eps_blow))


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("extents", [(3,), (6,), (5, 5), (6, 6, 6)])
def test_long_runs_to_rest_match_reference(extents, alpha):
    # small data decays to exact zero on (3,) and to a subnormal fixed point on
    # the others; the fast path stops stepping there
    d = BoxDomain(extents)
    p = Params(alpha, 1.0 / alpha)
    a = random_field(np.random.default_rng(2026), d, amplitude=0.05)
    fast = simulate(a, p, 10_000)
    _assert_same_run(fast, _reference_simulate(a, p, 10_000))
    rest = fast.trace[-1]
    assert rest.max_f < TINY
    assert (rest.max_f == 0.0) == (extents == (3,))


class TestNormalizeScaling:
    def test_identity_when_already_normalized(self):
        d = BoxDomain((4,))
        a = Field(d, [0, 0.1, 0.2, 0.1, 0])
        a2, p2 = normalize_scaling(a, Params(1, 1))
        np.testing.assert_array_equal(a2.values, a.values)
        assert p2.alpha * p2.delta == 1.0

    def test_scaling_factor(self):
        d = BoxDomain((2,))
        a = Field(d, [0, 0.1, 0])
        a2, p2 = normalize_scaling(a, Params(1, 4))
        assert a2.values[1] == pytest.approx(0.4)
        assert p2.threshold == 1.0

    def test_alpha_delta_product_one(self):
        d = BoxDomain((2,))
        a = Field(d, [0, 0.3, 0])
        a2, p2 = normalize_scaling(a, Params(2, 0.5))
        np.testing.assert_array_equal(a2.values, a.values)
        assert p2.alpha * p2.delta == 1.0

    def test_conjugacy(self, rng):
        # scaled trajectory == (alpha*delta)^(1/alpha) * unscaled trajectory
        for _ in range(15):
            d = random_domain(rng)
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            delta = float(rng.uniform(0.5, 2.0))
            p = Params(alpha, delta)
            a = random_field(rng, d, amplitude=0.2 * p.threshold)
            a2, p2 = normalize_scaling(a, p)
            factor = (alpha * delta) ** (1.0 / alpha)
            f, f2 = a, a2
            for _ in range(8):
                nf = step_nonlinear(f, p)
                nf2 = step_nonlinear(f2, p2)
                if not (isinstance(nf, Field) and isinstance(nf2, Field)):
                    break
                np.testing.assert_allclose(
                    factor * nf.values, nf2.values, rtol=0, atol=1e-12
                )
                f, f2 = nf, nf2
