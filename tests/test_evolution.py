import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeheat import (
    BlewUpAt,
    BlowupReport,
    BoxDomain,
    Field,
    Params,
    Survived,
    evolution,
    mode_table,
    simulate,
)
from latticeheat import domain as domain_module
from latticeheat.cli import _scaled
from latticeheat.domain import _mirror_symmetric, _orthant
from latticeheat.evolution import StepRecord
from latticeheat.majorant import _Probe

from conftest import (
    mirrored,
    random_domain,
    random_field,
    reference_neighbor_mean,
    reference_simulate,
    step_nonlinear,
    with_boundary,
)

TINY = np.finfo(float).tiny


def _run_kernel(a, p, max_steps, eps_blow=0.0, stepper=evolution._Stepper):
    """simulate's report, with `stepper` as its kernel, and the state the kernel ends in."""
    made = []

    class Recording(stepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with mock.patch.object(evolution, "_Stepper", Recording):
        report = simulate(a, p, max_steps, eps_blow)
    return report, made[0].f


def _bits(record):
    return np.array([record.max_f, record.max_g]).tobytes()


def _assert_same_run(a, p, max_steps, eps_blow=0.0):
    """simulate and reference_simulate agree: outcome, records and final state, bit for bit."""
    fast, state = _run_kernel(a, p, max_steps, eps_blow)
    ref, ref_state = reference_simulate(a, p, max_steps, eps_blow)
    assert fast.outcome == ref.outcome
    assert len(fast.trace) == len(ref.trace)
    for s, (got, want) in enumerate(zip(fast.trace, ref.trace)):
        assert _bits(got) == _bits(want), f"step {s}"
    # the kernel keeps the state's interior on a +0.0 boundary, whatever the data's zeros; it
    # loads the data plus 0.0, so a state left by a blow-up at step 0 holds +0.0 for -0.0
    want = with_boundary(a.domain, ref_state[a.domain.core] + 0.0, 0.0).values
    assert state.tobytes() == want.tobytes()
    return fast


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
        out = step_nonlinear(Field(d, np.zeros(d.shape)), Params(0.7, 2.3))
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
        assert isinstance(out, BlewUpAt) and out.step == 0
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
        from latticeheat import step_linear_direct

        for _ in range(20):
            d = random_domain(rng)
            f = random_field(rng, d, amplitude=0.2)
            out = step_nonlinear(f, Params(1, 1))
            if isinstance(out, Field):
                assert np.all(out.values >= step_linear_direct(f, 1).values - 1e-15)


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
        report = simulate(Field(d, np.zeros(d.shape)), Params(2, 3), 100)
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
                    if isinstance(na, BlewUpAt):
                        assert isinstance(nb, BlewUpAt)
                    break
                assert np.all(na.values <= nb.values + 1e-12)
                fa, fb = na, nb

    def test_rejects_negative_eps_blow(self):
        d = BoxDomain((4,))
        with pytest.raises(ValueError, match="eps_blow"):
            simulate(Field(d, [0, 0.1, 0.1, 0.1, 0]), Params(1, 1), 10, eps_blow=-0.5)

    def test_zero_data_blows_up_when_eps_blow_reaches_one(self):
        # the fixed-point exit comes after the blow-up test of the step
        report = simulate(Field(BoxDomain((3, 3)), np.zeros((4, 4))), Params(1, 1), 100,
                          eps_blow=1.0)
        assert report.outcome == BlewUpAt(step=0, site=(1, 1), g_value=0.0)
        assert len(report.trace) == 1

    def test_fixed_point_fills_trace(self):
        report = simulate(Field(BoxDomain((4,)), np.zeros(5)), Params(1, 1), 5)
        assert report.outcome == Survived(steps=5)
        assert report.trace == [StepRecord(max_f=0.0, max_g=0.0)] * 6

    def test_step_record_is_an_immutable_pair(self):
        rec = StepRecord(max_f=0.25, max_g=0.5)
        assert rec == StepRecord(0.25, 0.5) and (rec.max_f, rec.max_g) == (0.25, 0.5)
        with pytest.raises(AttributeError):
            rec.max_f = 1.0
        trace = [StepRecord(0.5, 0.5), rec]
        assert BlowupReport(Survived(1), trace) == BlowupReport(Survived(1), list(trace))
        assert BlowupReport(Survived(1), trace) != BlowupReport(Survived(1), trace[::-1])
        # a NamedTuple: a record is the tuple (max_f, max_g), and asdict keeps it one, so a
        # report's trace goes to JSON as [max_f, max_g] pairs
        assert rec == (0.25, 0.5) and tuple(rec) == (0.25, 0.5) and rec < StepRecord(0.25, 1.0)
        assert dataclasses.asdict(BlowupReport(Survived(1), trace))["trace"] == [(0.5, 0.5), rec]
        assert json.loads(json.dumps(dataclasses.asdict(BlowupReport(Survived(1), [rec])))) == {
            "outcome": {"steps": 1}, "trace": [[0.25, 0.5]]}

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
            reference_simulate(Field(d, [0, v, v, v, 0]), p, 10)
        # at the horizon the overflowing update is computed but never read
        report = simulate(Field(d, [0, v, v, v, 0]), p, 0)
        assert report == BlowupReport(Survived(0), [StepRecord(max_f=float(v), max_g=float(v))])
        report = simulate(Field(d, [0, v, v, v, 0]), p, 1)
        assert report.outcome == BlewUpAt(step=0, site=(2,), g_value=float(v))


@settings(max_examples=200, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    delta=st.one_of(st.none(), st.floats(0.25, 4.0)),  # None: 1/alpha, so alpha*delta is 1.0
    amplitude=st.floats(0.0, 1.5),
    shrink=st.one_of(st.just(0), st.integers(0, 1100)),
    zero=st.booleans(),
    minus_zero=st.sampled_from([0.0, 0.0, 0.3, 1.0]),  # half the runs without -0.0
    minus_boundary=st.booleans(),
    eps_blow=st.sampled_from([0.0, 1e-3, 0.25, 1.0, 2.0]),
    edge=st.sampled_from([None, None, None, None, "copy", "blow-up"]),
    ulps=st.integers(-1, 1),
    steps=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
)
# tiny data with eps_blow = 1 still blows up at step 0: its denominators are 1.0
@example(extents=[3, 3], alpha=1.0, delta=1.0, amplitude=1.0, shrink=200, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=1.0, edge=None, ulps=0, steps=10, seed=0)
# alpha = 0.01: the copy edge underflows to 0, so only zero data is copied
@example(extents=[4], alpha=0.01, delta=1.0, amplitude=0.0, shrink=0, zero=True,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.0, edge=None, ulps=0, steps=20, seed=0)
# alpha = 8, delta = 1e-6: the copy edge is 0.55 % of the threshold, crossed at step 3
@example(extents=[5, 5], alpha=8.0, delta=1e-6, amplitude=0.01, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.0, edge=None, ulps=0, steps=300, seed=1)
# 25 full updates, then copy steps to a subnormal fixed point at step 4903
@example(extents=[6, 6, 6], alpha=1.0, delta=1.0, amplitude=1.0, shrink=55, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.0, edge=None, ulps=0, steps=6000, seed=1)
# -0.0 on every interior site: the means start at +0.0, so g and the states are +0.0, also
# at the sites whose neighbors are all -0.0 (a -0.0 start would keep -0.0 there to step 2)
@example(extents=[6, 6], alpha=1.0, delta=1.0, amplitude=0.0, shrink=0, zero=True,
         minus_zero=1.0, minus_boundary=False, eps_blow=0.0, edge=None, ulps=0, steps=1, seed=0)
@example(extents=[6, 6], alpha=1.0, delta=1.0, amplitude=0.0, shrink=0, zero=True,
         minus_zero=1.0, minus_boundary=True, eps_blow=0.0, edge=None, ulps=0, steps=1, seed=0)
# -0.0 on the boundary and on a share of the interior, decaying to zero: the kernel's +0.0
# boundary lets the zero state rest, where a -0.0 one read -0.0 as every other maximum
@example(extents=[3, 4, 3], alpha=1.0, delta=None, amplitude=1.0, shrink=1000, zero=False,
         minus_zero=0.3, minus_boundary=True, eps_blow=0.0, edge=None, ulps=0, steps=2000, seed=5)
# subnormal data: at eps_blow = 1 the full update's first calls (sqrt at alpha = 0.5,
# square at 2) run on it before the blow-up at step 0; below it, copy steps, whose means
# are scaled by 1/2d (d = 1, 2) or divided by 6 (d = 3)
@example(extents=[4, 4], alpha=0.5, delta=None, amplitude=1.0, shrink=1060, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=1.0, edge=None, ulps=0, steps=3, seed=2)
@example(extents=[5, 5], alpha=2.0, delta=None, amplitude=1.0, shrink=1060, zero=False,
         minus_zero=0.3, minus_boundary=False, eps_blow=1.0, edge=None, ulps=0, steps=3, seed=2)
@example(extents=[5, 5], alpha=2.0, delta=None, amplitude=1.0, shrink=1060, zero=False,
         minus_zero=0.3, minus_boundary=True, eps_blow=1.0, edge=None, ulps=0, steps=3, seed=2)
@example(extents=[6], alpha=2.0, delta=None, amplitude=1.0, shrink=1040, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.0, edge=None, ulps=0, steps=200, seed=3)
@example(extents=[4, 3, 5], alpha=1.0, delta=None, amplitude=1.0, shrink=1030, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.3, edge=None, ulps=0, steps=200, seed=4)
# constant data one ulp either side of the copy edge and of the blow-up edge
@example(extents=[5, 5], alpha=2.0, delta=None, amplitude=0.0, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.3, edge="copy", ulps=0, steps=20, seed=0)
@example(extents=[5, 5], alpha=2.0, delta=None, amplitude=0.0, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.3, edge="copy", ulps=1, steps=20, seed=0)
@example(extents=[5, 5], alpha=0.5, delta=None, amplitude=0.0, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.0, edge="copy", ulps=1, steps=20, seed=0)
@example(extents=[5, 5], alpha=2.0, delta=None, amplitude=0.0, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.0, edge="blow-up", ulps=0, steps=20, seed=0)
@example(extents=[5, 5], alpha=2.0, delta=None, amplitude=0.0, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.0, edge="blow-up", ulps=1, steps=20, seed=0)
@example(extents=[6], alpha=0.5, delta=None, amplitude=0.0, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.3, edge="blow-up", ulps=0, steps=20, seed=0)
@example(extents=[6], alpha=0.5, delta=None, amplitude=0.0, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.3, edge="blow-up", ulps=1, steps=20, seed=0)
@example(extents=[5, 5], alpha=1.0, delta=3.0, amplitude=0.0, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.3, edge="blow-up", ulps=1, steps=20, seed=0)
@example(extents=[5, 5], alpha=1.0, delta=None, amplitude=0.0, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=1.0, edge="blow-up", ulps=1, steps=20, seed=0)
# blow-ups mid-run with eps_blow > 0: at steps 7 and 10, through the least denominator and the
# next maximum derived from max g, with and without the multiply; at step 11 through np.power
@example(extents=[3, 3], alpha=0.5, delta=None, amplitude=0.6, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.25, edge=None, ulps=0, steps=60, seed=0)
@example(extents=[6], alpha=2.0, delta=None, amplitude=1.2, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.25, edge=None, ulps=0, steps=60, seed=26)
@example(extents=[6], alpha=2.0, delta=3.0, amplitude=1.2, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.25, edge=None, ulps=0, steps=60, seed=26)
@example(extents=[3, 3, 3], alpha=0.75, delta=None, amplitude=0.8, shrink=0, zero=False,
         minus_zero=0.0, minus_boundary=False, eps_blow=0.25, edge=None, ulps=0, steps=60, seed=14)
def test_simulate_matches_reference(extents, alpha, delta, amplitude, shrink, zero, minus_zero,
                                    minus_boundary, eps_blow, edge, ulps, steps, seed):
    # amplitude is in units of the blow-up threshold, so about half the runs at
    # shrink 0 blow up; data shrunk by 2^-shrink reaches the copy path, and
    # beyond 2^-1074 of the threshold underflows. With an edge, the data is
    # constant, at the copy edge or at the largest mean that does not blow up,
    # moved by ulps; away from the boundary g is that value, exactly in 1-D and
    # 2-D. A share minus_zero of the interior sites holds -0.0, and with
    # minus_boundary every boundary site does.
    d = BoxDomain(tuple(extents))
    p = Params(alpha, 1.0 / alpha if delta is None else delta)
    rng = np.random.default_rng(seed)
    if zero:
        interior = np.zeros(d.interior_shape)
    elif edge is not None:
        level = _copy_edge(p) if edge == "copy" else _blowup_edge(p, eps_blow)
        interior = np.full(d.interior_shape, max(_nudge(level, ulps), 0.0))
    else:
        interior = np.ldexp(rng.uniform(0.0, amplitude * p.threshold, d.interior_shape), -shrink)
    interior[rng.random(d.interior_shape) < minus_zero] = -0.0
    _assert_same_run(with_boundary(d, interior, -0.0 if minus_boundary else 0.0), p, steps,
                     eps_blow)


def _copy_edge(p):
    return evolution._Stepper(BoxDomain((2,)), p, 0.0)._copy_below


def _nudge(x, ulps):
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


def _blowup_edge(p, eps_blow):
    """The largest g with 1 - alpha*delta*g^alpha > eps_blow, as the reference rounds it;
    0 when eps_blow >= 1, where every g blows up."""
    if eps_blow >= 1:
        return 0.0

    def survives(g):
        return 1.0 - p.alpha * p.delta * np.power(g, p.alpha) > eps_blow

    g = ((1.0 - eps_blow) / (p.alpha * p.delta)) ** (1.0 / p.alpha)
    while not survives(g):
        g = _nudge(g, -1)
    while survives(_nudge(g, 1)):
        g = _nudge(g, 1)
    return g


@settings(max_examples=60, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.01, 0.5, 1.0, 3.0, 8.0]),
    delta=st.floats(0.25, 4.0),
    ulps=st.integers(-2, 2),
    eps_blow=st.sampled_from([0.0, 0.25, 1.0]),
    steps=st.integers(0, 30),
    constant=st.booleans(),
    signed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(extents=[4, 4], alpha=1.0, delta=1.0, ulps=0, eps_blow=0.0, steps=10, constant=False,
         signed=False, seed=0)
@example(extents=[4, 4], alpha=1.0, delta=1.0, ulps=1, eps_blow=0.0, steps=10, constant=False,
         signed=False, seed=0)
@example(extents=[3, 3, 3], alpha=2.0, delta=0.5, ulps=0, eps_blow=1.0, steps=10, constant=False,
         signed=True, seed=0)
@example(extents=[5], alpha=0.01, delta=1.0, ulps=0, eps_blow=0.0, steps=10, constant=False,
         signed=True, seed=0)
@example(extents=[5], alpha=0.01, delta=1.0, ulps=1, eps_blow=0.0, steps=10, constant=False,
         signed=False, seed=0)
@example(extents=[4, 4], alpha=8.0, delta=1e-6, ulps=0, eps_blow=0.25, steps=30, constant=False,
         signed=False, seed=0)
# the mean of constant 3-D data at the edge rounds one double above it: a full step follows a copy
@example(extents=[4, 4, 4], alpha=3.0, delta=1.0, ulps=0, eps_blow=0.0, steps=10, constant=True,
         signed=True, seed=0)
def test_copy_edge_matches_reference(extents, alpha, delta, ulps, eps_blow, steps, constant,
                                     signed, seed):
    # data whose maximum is the copy edge, moved by `ulps` doubles: at and below
    # it the kernel copies g, above it it runs the full update, which may follow
    # a copy step whose mean rounded above the edge. With `constant`, every
    # interior site holds that maximum; with `signed`, the boundary holds -0.0.
    d = BoxDomain(tuple(extents))
    p = Params(alpha, delta)
    edge = max(_nudge(_copy_edge(p), ulps), 0.0)
    interior = np.random.default_rng(seed).uniform(0.0, 1.0, d.interior_shape)
    interior = np.minimum(interior * (edge / interior.max()), edge)
    interior.flat[interior.argmax()] = edge
    if constant:
        interior[...] = edge
    a = with_boundary(d, interior, -0.0 if signed else 0.0)
    assert float(a.values.max()) == edge
    _assert_same_run(a, p, steps, eps_blow)
    _assert_copy_keeps_max(reference_simulate(a, p, steps, eps_blow)[0], _copy_edge(p))


def _assert_copy_keeps_max(report, copy_below):
    """The invariant a copy step's maximum rests on, read from the reference: after a step whose
    max_f is at or below `copy_below`, a positive max_g is the next max_f, bit for bit."""
    for s, (rec, nxt) in enumerate(zip(report.trace, report.trace[1:])):
        if rec.max_f <= copy_below and rec.max_g > 0:
            assert np.float64(nxt.max_f).tobytes() == np.float64(rec.max_g).tobytes(), s


def test_copy_edge():
    # alpha*delta*edge^alpha is 2^-60 to rounding; it underflows to 0 for alpha = 0.01
    for alpha, delta in [(1.0, 1.0), (0.5, 3.0), (3.0, 0.3), (8.0, 1e-6), (1e12, 1e-12)]:
        edge = _copy_edge(Params(alpha, delta))
        assert alpha * delta * edge**alpha == pytest.approx(2.0**-60, rel=1e-9)
    assert _copy_edge(Params(0.01, 1.0)) == 0.0
    assert evolution._Stepper(BoxDomain((2,)), Params(1, 1), 1.0)._copy_below < 0


def test_decaying_run_copies_then_rests():
    # full updates while alpha*delta*max_f^alpha > 2^-60, copies of g after it, then the
    # fixed point; the (6, 6, 6) example of test_simulate_matches_reference, which
    # compares this run with the reference
    copies = []

    class Counting(evolution._Stepper):
        def step(self, max_f):
            copies.append(max_f <= self._copy_below)
            return super().step(max_f)

    d = BoxDomain((6, 6, 6))
    interior = np.random.default_rng(1).uniform(0.0, 1.0, d.interior_shape)
    a, p = Field.from_interior(d, np.ldexp(interior, -55)), Params(1.0, 1.0)
    report, _ = _run_kernel(a, p, 6000, stepper=Counting)
    full = copies.index(True)
    assert full == 25 and all(copies[full:]) and len(copies) == 4904
    assert report.trace[-1] is report.trace[len(copies)] and 0 < report.trace[-1].max_f < TINY
    _assert_copy_keeps_max(reference_simulate(a, p, 6000)[0], _copy_edge(p))


def test_copy_plans_are_built_at_first_use():
    # full steps, which an infinite bound on the maximum forces, build no copy plans; each
    # direction's plan is built at its first copy step. step_nonlinear passes the data's
    # maximum, so on this data it takes a copy step, to the reference's bits.
    d = BoxDomain((4, 4))
    a, p = Field.from_interior(d, np.full(d.interior_shape, 1e-30)), Params(1.0, 1.0)
    assert step_nonlinear(a, p).values.tobytes() == reference_simulate(a, p, 0)[1].tobytes()
    stepper = evolution._Stepper(d, p, 0.0)
    stepper.load(a)
    assert stepper.step(math.inf) is False and stepper.step(math.inf) is False
    assert stepper._copies == [None, None]
    assert stepper.step(stepper.f.max()) is False
    assert stepper._copies[0] is None and stepper._copies[1] is not None
    assert stepper.step(stepper.f.max()) is False
    assert None not in stepper._copies


def test_huge_alpha_takes_no_copy_steps():
    # At alpha 6e16 the mean of 3-D data 6 ulp below 1 rounds one ulp up, and
    # g^alpha grows e^7-fold: denominators are 1 - 3.4e-15, not 1.0, though
    # alpha*delta*max_f^alpha <= 2^-60. So such alpha take no copy steps.
    p = Params(6e16, 1 / 6e16)
    d = BoxDomain((4, 4, 4))
    a = Field.from_interior(d, np.full(d.interior_shape, 1 - 6 * 2.0**-53))
    assert (math.exp((-60 * math.log(2) - math.log(p.alpha * p.delta)) / p.alpha)
            >= float(a.values.max()))
    assert _copy_edge(p) < 0
    report = _assert_same_run(a, p, 5, eps_blow=1 - 2.0**-50)
    assert report.outcome.step == 0


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("extents", [(3,), (6,), (5, 5), (6, 6, 6)])
def test_long_runs_to_rest_match_reference(extents, alpha):
    # small data decays to exact zero on (3,) and to a subnormal fixed point on
    # the others; the fast path stops stepping there
    d = BoxDomain(extents)
    p = Params(alpha, 1.0 / alpha)
    a = random_field(np.random.default_rng(2026), d, amplitude=0.05)
    fast = _assert_same_run(a, p, 10_000)
    rest = fast.trace[-1]
    assert rest.max_f < TINY
    assert (rest.max_f == 0.0) == (extents == (3,))


@pytest.mark.parametrize("extents", [(4,), (3, 4), (3, 3, 4)])
def test_at_rest_tells_one_subnormal_site_apart(extents):
    # the rest test compares the two states' bytes: states that differ at one site only, by
    # one subnormal step, are not at rest, whether the rest is zero or subnormal
    d = BoxDomain(extents)
    stepper = evolution._Stepper(d, Params(1.0, 1.0), 0.0)
    site = tuple(N - 1 for N in extents)
    subnormal = np.ldexp(np.random.default_rng(0).uniform(0.0, 1.0, d.interior_shape), -1030)
    for interior in (np.zeros(d.interior_shape), subnormal):
        for state in (stepper.f, stepper._spare):
            state[d.core] = interior
        assert stepper.at_rest()
        stepper._spare[site] = np.nextafter(stepper._spare[site], 1.0)
        assert 0 < stepper._spare[site] < TINY and not stepper.at_rest()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("extents", [(5,), (5, 5), (4, 3, 5)])
def test_minus_zero_data_gives_plus_zero_means(extents, alpha):
    # sqrt(-0.0) is -0.0, and np.power(-0.0, 0.5) is -0.0 on some platforms and C's +0.0 on
    # others; the kernel's sqrt never meets -0.0 because the means start at +0.0
    d = BoxDomain(extents)
    rng = np.random.default_rng(5)
    for share in (0.5, 1.0):
        interior = rng.uniform(0.0, 0.5, d.interior_shape)
        interior[rng.random(d.interior_shape) < share] = -0.0
        a = Field.from_interior(d, interior)
        stepper = evolution._Stepper(d, Params(alpha, 1.0 / alpha), 0.0)
        stepper.load(a)
        assert stepper.step(math.inf) is False  # a full step
        assert not np.signbit(stepper._g_span).any()
        assert not np.signbit(stepper.f).any()


@pytest.mark.parametrize("alpha, delta", [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5), (2.0, 3.0),
                                          (1.0, 0.3), (1.5, 1 / 1.5), (3.0, 1.0), (49.0, 1 / 49)])
def test_exact_powers_and_unit_coupling_take_no_call(alpha, delta):
    # no np.power at alpha in {0.5, 1, 2}, and no multiply when alpha*delta is exactly 1.0,
    # which 49 * (1/49) is not
    stepper = evolution._Stepper(BoxDomain((3,)), Params(alpha, delta), 0.0)
    means, update = stepper._phases[0]
    # the 1-D plan's add and multiply start the first run, the divide into the spare ends the other
    assert [u for u, _ in means[:2]] == [np.add, np.multiply] and update[-1][0] is np.divide
    ufuncs = [ufunc for ufunc, _ in means[2:] + update[:-1]]
    assert (np.power in ufuncs) == (alpha not in (0.5, 1.0, 2.0))
    assert (np.multiply in ufuncs) == (alpha * delta != 1.0)
    assert len(ufuncs) == 1 + (alpha != 1.0) * 2 + (alpha * delta != 1.0)
    # only the exact powers derive the blow-up test and the new maximum from max g
    assert (stepper._scalar is None) == (np.power in ufuncs)


def _u64(x):
    return np.float64(x).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    delta=st.one_of(st.none(), st.floats(0.25, 4.0)),  # None: 1/alpha, so alpha*delta is 1.0
    eps_blow=st.sampled_from([0.0, 0.3, 1.0]),
    level=st.sampled_from(["random", "subnormal", "edge"]),
    ulps=st.integers(-1, 1),
    constant=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# constant data one ulp either side of the blow-up edge: away from the boundary g is the data
@example(extents=[5, 5], alpha=2.0, delta=None, eps_blow=0.0, level="edge", ulps=0,
         constant=True, seed=0)
@example(extents=[5, 5], alpha=2.0, delta=None, eps_blow=0.0, level="edge", ulps=1,
         constant=True, seed=0)
@example(extents=[6], alpha=0.5, delta=3.0, eps_blow=0.3, level="edge", ulps=0,
         constant=True, seed=0)
@example(extents=[6], alpha=0.5, delta=3.0, eps_blow=0.3, level="edge", ulps=1,
         constant=True, seed=0)
@example(extents=[5, 4], alpha=1.0, delta=2.5, eps_blow=0.3, level="edge", ulps=0,
         constant=True, seed=0)
@example(extents=[5, 4], alpha=1.0, delta=2.5, eps_blow=0.3, level="edge", ulps=1,
         constant=True, seed=0)
@example(extents=[4, 4], alpha=0.5, delta=None, eps_blow=1.0, level="subnormal", ulps=0,
         constant=False, seed=1)
@example(extents=[4, 3, 5], alpha=2.0, delta=1.5, eps_blow=0.0, level="subnormal", ulps=0,
         constant=False, seed=2)
def test_derived_extrema_match_array_path(extents, alpha, delta, eps_blow, level, ulps, constant,
                                          seed):
    # One full step at an exact power: the stepper's least denominator, formed on max g alone,
    # is the array path's denom.min(), and its next maximum the new state's f.max(), as uint64.
    # The data's maximum is random (up to 1.2 thresholds), subnormal, or the largest g that
    # does not blow up moved by `ulps`; with `constant`, every interior site holds it.
    d = BoxDomain(tuple(extents))
    p = Params(alpha, 1.0 / alpha if delta is None else delta)
    rng = np.random.default_rng(seed)
    top = {"random": 1.2 * p.threshold, "subnormal": 2.0**-1050,
           "edge": max(_nudge(_blowup_edge(p, eps_blow), ulps), 0.0)}[level]
    interior = np.full(d.interior_shape, top) if constant else rng.uniform(0, top, d.interior_shape)
    a = Field.from_interior(d, interior)
    stepper = evolution._Stepper(d, p, eps_blow)
    stepper.load(a)
    blew_up = stepper.step(math.inf)  # no finite bound on the maximum: a full step
    g = reference_neighbor_mean(a.values)
    denom = 1.0 - p.alpha * p.delta * np.power(g, p.alpha)
    assert _u64(stepper.max_g) == _u64(g.max())
    assert _u64(stepper._scalar[0](stepper.max_g)) == _u64(denom.min())
    assert blew_up == (denom.min() <= eps_blow)
    if not blew_up:
        assert _u64(stepper.max_f) == _u64(stepper.f.max())
        assert _u64(stepper.max_f) == _u64((g / np.power(denom, 1.0 / p.alpha)).max())


@pytest.mark.parametrize("alpha, delta", [(0.5, 1e-150), (1.0, 1e-300), (2.0, 1e-310)])
def test_overflowing_step_blows_up_through_derived_maximum(alpha, delta):
    # The largest g that does not blow up, at a tiny delta: at alpha 0.5 and 1 its update
    # g/denom^(1/alpha) overflows to inf, and the derived maximum is that inf, so simulate
    # reports the overflow at the step that formed it. At alpha 2, g^2 overflows first (the
    # threshold 7e154 lies above sqrt of the largest double), so denom is -inf at max g and
    # the derived test blows up at once.
    p = Params(alpha, delta)
    g = _blowup_edge(p, 0.0) if alpha != 2.0 else 2e154
    a = Field(BoxDomain((4,)), [0, g, g, g, 0])
    stepper = evolution._Stepper(a.domain, p, 0.0)
    stepper.load(a)
    with np.errstate(over="ignore"):
        blew_up = stepper.step(g)
    if alpha == 2.0:
        assert blew_up is True  # the site and g of this blow-up are simulate's, below
    else:
        assert blew_up is False and stepper.max_f == math.inf
        assert _u64(stepper.max_f) == _u64(stepper.f.max())
    report = simulate(a, p, 5)
    assert report.outcome == BlewUpAt(step=0, site=(2,), g_value=g)
    assert report.trace == [StepRecord(max_f=g, max_g=g)]


@pytest.mark.parametrize("alpha, delta", [(0.5, 1e-150), (1.0, 1e-300), (2.0, 1e-310)])
def test_step_nonlinear_reports_simulates_blowup(alpha, delta):
    # the cases above: an update that overflows to inf, or a g^2 that does, is the
    # blow-up simulate reports at step 0, never a Field holding inf
    p = Params(alpha, delta)
    g = _blowup_edge(p, 0.0) if alpha != 2.0 else 2e154
    a = Field(BoxDomain((4,)), [0, g, g, g, 0])
    outcome = simulate(a, p, 1).outcome
    assert outcome == BlewUpAt(step=0, site=(2,), g_value=g)
    assert step_nonlinear(a, p) == outcome


class _Least(float):
    """An eps_blow that keeps what a step compares with it: `least <= eps_blow` on a Python
    float `least` calls this subclass's reflected `>=` first."""

    def __ge__(self, least):
        self.seen.append(least)
        return float(self) >= least


def _clean(span):
    """Whether a span holds no NaN and no -0.0."""
    return not (np.isnan(span).any() or (np.signbit(span) & (span == 0)).any())


@settings(max_examples=150, deadline=None)
@given(
    extents=st.lists(st.integers(2, 8), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 2.0, 0.75, 1.5]),
    unit_coupling=st.booleans(),
    eps_blow=st.sampled_from([0.0, 0.3]),
    kind=st.sampled_from(["random", "subnormal", "edge", "huge"]),
    amplitude=st.floats(0.0, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
# subnormal data copies g until it rests; random data blows up at step 0 (eps_blow 0.3) or later
@example(extents=[4, 4], alpha=0.75, unit_coupling=True, eps_blow=0.0, kind="subnormal",
         amplitude=0.0, seed=0)
@example(extents=[6, 6], alpha=1.5, unit_coupling=False, eps_blow=0.3, kind="random",
         amplitude=1.2, seed=1)
@example(extents=[8, 7], alpha=0.75, unit_coupling=True, eps_blow=0.0, kind="random",
         amplitude=0.99, seed=2)
# a threshold of 1e308: neighbour sums overflow to inf at alpha 1/2, the update does at alpha 1,
# and at alpha 2 (threshold 7e154) g^2 does, so that denom is -inf
@example(extents=[5, 4, 6], alpha=0.5, unit_coupling=False, eps_blow=0.0, kind="huge",
         amplitude=0.9, seed=3)
@example(extents=[7], alpha=1.0, unit_coupling=False, eps_blow=0.0, kind="huge",
         amplitude=0.95, seed=0)
@example(extents=[6, 6], alpha=2.0, unit_coupling=False, eps_blow=0.0, kind="huge",
         amplitude=1.5, seed=4)
def test_span_extrema_are_the_reduces(extents, alpha, unit_coupling, eps_blow, kind, amplitude,
                                      seed):
    # After every step the stepper's max_g, max_f and the least denominator it tests for blow-up
    # are, bit for bit, np.maximum.reduce / np.minimum.reduce of the spans they come from, and
    # those spans hold no -0.0 and no NaN. Data: random up to `amplitude` thresholds, subnormal,
    # constant at the largest g that does not blow up, or "huge": random up to `amplitude` times
    # a threshold of 1e308, or at alpha > 1 the largest one that Params allows.
    d = BoxDomain(tuple(extents))
    delta = 1.0 / alpha if unit_coupling else 2.5
    if kind == "huge":
        delta = max(1e308 ** -alpha / alpha, 1e-310)
    p = Params(alpha, delta)
    rng = np.random.default_rng(seed)
    if kind == "edge":
        a = Field.from_interior(d, np.full(d.interior_shape, _blowup_edge(p, eps_blow)))
    else:
        top = 1e-318 if kind == "subnormal" else amplitude * p.threshold
        a = random_field(rng, d, amplitude=top)
    stepper = evolution._Stepper(d, p, eps_blow, record=True)
    stepper._eps_blow = least = _Least(eps_blow)
    least.seen = []
    denoms = []  # each full step's denominators, as its root calls find them
    snapshot = (lambda denom: denoms.append(denom.copy()), (stepper._denom_span,))
    stepper._phases = [(means, (snapshot,) + update) for means, update in stepper._phases]
    stepper.load(a)
    max_f = float(a.values.max())
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(60):
            if not math.isfinite(max_f):  # an update overflowed: `loop` stops here
                break
            full, seen = max_f > stepper._copy_below, len(least.seen)
            blew_up = stepper.step(max_f)
            if full:
                g = stepper._g_span
                denom = stepper._denom_span if blew_up else denoms.pop()
                assert _clean(g) and _clean(denom)
                assert _u64(stepper.max_g) == _u64(np.maximum.reduce(g))
                assert least.seen[seen:] == [least.seen[-1]]
                assert _u64(least.seen[-1]) == _u64(np.minimum.reduce(denom))
            else:
                assert len(least.seen) == seen and stepper.max_g is stepper.max_f
            if blew_up:
                break
            assert _clean(stepper.f_span)
            assert _u64(stepper.max_f) == _u64(np.maximum.reduce(stepper.f_span))
            max_f = stepper.max_f
            if max_f < TINY and stepper.at_rest():
                break


# Nonzero amplitudes for the conjugacy property start here: 8 steps of
# averaging on at most 6 sites per axis, and a rescaling factor of at least
# 1e-5, keep every value far above the smallest normal double (2.2e-308).
# Below it rounding is absolute, not relative (see the subnormal test).
NORMAL_RANGE_AMPLITUDE = 1e-200


def _normalized(a, p):
    """The data scaled to threshold 1 as the CLI forms it (amplitude 1), and the parameters of
    the scaled system, Params(alpha, 1/alpha)."""
    return _scaled(a, 1.0, p), Params(p.alpha, 1.0 / p.alpha)


class TestNormalizeScaling:
    def test_identity_when_already_normalized(self):
        d = BoxDomain((4,))
        a = Field(d, [0, 0.1, 0.2, 0.1, 0])
        a2, p2 = _normalized(a, Params(1, 1))
        np.testing.assert_array_equal(a2.values, a.values)
        assert p2.alpha * p2.delta == 1.0

    def test_scaling_factor(self):
        d = BoxDomain((2,))
        a = Field(d, [0, 0.1, 0])
        a2, p2 = _normalized(a, Params(1, 4))
        assert a2.values[1] == pytest.approx(0.4)
        assert p2.threshold == 1.0

    def test_alpha_delta_product_one(self):
        d = BoxDomain((2,))
        a = Field(d, [0, 0.3, 0])
        a2, p2 = _normalized(a, Params(2, 0.5))
        np.testing.assert_array_equal(a2.values, a.values)
        assert p2.alpha * p2.delta == 1.0

    @settings(max_examples=80, deadline=None)
    @given(
        extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
        alpha=st.floats(0.25, 3.0),
        delta=st.floats(0.25, 4.0),
        amplitude=st.one_of(st.just(0.0), st.floats(NORMAL_RANGE_AMPLITUDE, 0.5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conjugacy(self, extents, alpha, delta, amplitude, seed):
        # scaled trajectory == (alpha*delta)^(1/alpha) * unscaled trajectory,
        # up to a blow-up at the same step and site
        p = Params(alpha, delta)
        d = BoxDomain(tuple(extents))
        a = random_field(np.random.default_rng(seed), d, amplitude=amplitude * p.threshold)
        a2, p2 = _normalized(a, p)
        factor = (alpha * delta) ** (1.0 / alpha)
        f, f2 = a, a2
        for _ in range(8):
            nf = step_nonlinear(f, p)
            nf2 = step_nonlinear(f2, p2)
            assert type(nf) is type(nf2)
            if isinstance(nf, BlewUpAt):
                assert nf.site == nf2.site
                break
            np.testing.assert_allclose(factor * nf.values, nf2.values, rtol=1e-12, atol=0)
            f, f2 = nf, nf2

    def test_subnormal_data_agrees_to_one_subnormal_spacing(self):
        # the neighbor mean of subnormal values rounds to a multiple of the
        # smallest subnormal, so the rescaled trajectory matches only to that
        # spacing, not to a relative tolerance
        p = Params(1.0, 2.0)
        d = BoxDomain((3,))
        a = random_field(np.random.default_rng(0), d, amplitude=2.225073858507e-311 * p.threshold)
        a2, p2 = _normalized(a, p)
        f, f2 = a, a2
        for _ in range(8):
            f, f2 = step_nonlinear(f, p), step_nonlinear(f2, p2)
            assert 0 < float(f.values.max()) < TINY
            spacing = np.finfo(float).smallest_subnormal
            np.testing.assert_allclose(2.0 * f.values, f2.values, rtol=0, atol=spacing)


def _run(stepper, a, steps, exits=None):
    """One `_Stepper.loop` from `load(a)`: the step and stop, the records (None unless
    recording) and the state's bytes."""
    s, stop = stepper.loop(stepper.load(a), steps, exits)
    trace = None if stepper.trace is None else [_bits(rec) for rec in stepper.trace]
    return s, stop, trace, stepper.f.tobytes()


def _run_data(d, p, eps_blow, kind, amplitude, seed):
    """Data of one kind: random up to `amplitude` thresholds, subnormal (copy steps to rest),
    constant at the largest g that does not blow up (at tiny delta and alpha 1/2 its update
    overflows), or zero."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_field(rng, d, amplitude=amplitude * p.threshold)
    if kind == "subnormal":
        return random_field(rng, d, amplitude=1e-318)
    level = _blowup_edge(p, eps_blow) if kind == "edge" else 0.0
    return Field.from_interior(d, np.full(d.interior_shape, level))


@settings(max_examples=120, deadline=None)
@given(
    extents=st.lists(st.integers(2, 6), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    tiny_delta=st.booleans(),
    eps_blow=st.sampled_from([0.0, 0.0, 0.3]),
    record=st.booleans(),
    blowup_exit=st.booleans(),
    S=st.integers(0, 80),
    runs=st.lists(st.tuples(st.sampled_from(["random", "subnormal", "edge", "zero"]),
                            st.floats(0.0, 1.5), st.booleans(), st.integers(0, 2**32 - 1)),
                  min_size=2, max_size=6),
)
# an overflow at step 0, a rest at step 37, a blow-up at step 1 that leaves g stale, Kaplan's
# exit at step 0 and a rest at step 0
@example(extents=[4], alpha=0.5, tiny_delta=True, eps_blow=0.0, record=True, blowup_exit=True,
         S=80, runs=[("edge", 0.0, False, 0), ("subnormal", 0.0, False, 1),
                     ("random", 1.2, False, 2), ("edge", 0.0, True, 3), ("zero", 0.0, False, 4)])
# certified survival at step 0, Kaplan's exit at step 0, then blow-ups at step 1 (the last
# from edge data) that leave g stale
@example(extents=[8], alpha=1.0, tiny_delta=False, eps_blow=0.0, record=False, blowup_exit=True,
         S=80, runs=[("random", 0.02, True, 5), ("random", 1.1, True, 6),
                     ("random", 1.1, False, 6), ("edge", 0.0, False, 7)])
def test_reused_stepper_matches_fresh_one(extents, alpha, tiny_delta, eps_blow, record,
                                          blowup_exit, S, runs):
    # one stepper over a sequence of runs, whatever each leaves behind (a stale g after a
    # blow-up, inf after an overflow, a spare at rest, swapped buffers and copy plans), gives
    # each run's step, stop, records and final state, bit for bit, as a fresh one does
    d = BoxDomain(tuple(extents))
    p = Params(alpha, 1e-150 if tiny_delta else 1.0 / alpha)
    zero = Field(d, np.zeros(d.shape))
    exits = _Probe(zero, 0.0, p, S, eps_blow, blowup_exit)._exits  # of a whole-box probe
    reused = evolution._Stepper(d, p, eps_blow, record)
    for kind, amplitude, with_exits, seed in runs:
        a = _run_data(d, p, eps_blow, kind, amplitude, seed)
        run_exits = exits if with_exits else None
        got = _run(reused, a, S, run_exits)
        want = _run(evolution._Stepper(d, p, eps_blow, record), a, S, run_exits)
        assert type(got[1]) is type(want[1]) and got == want


@settings(max_examples=150, deadline=None)
@given(
    extents=st.lists(st.integers(2, 7), min_size=1, max_size=3),
    alpha=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
    tiny_delta=st.booleans(),
    eps_blow=st.sampled_from([0.0, 0.0, 0.3]),
    kind=st.sampled_from(["constant", "delta", "random", "subnormal", "edge"]),
    amplitude=st.floats(0.0, 1.5),
    S=st.integers(0, 120),
    seed=st.integers(0, 2**32 - 1),
)
# an overflow at step 0 on an odd box, a blow-up at alpha 1.5 (np.power) with eps_blow > 0, a
# centred delta that survives, copy steps to rest, and a constant that blows up on a 2x3x2 box
@example(extents=[5, 4], alpha=0.5, tiny_delta=True, eps_blow=0.0, kind="edge", amplitude=0.0,
         S=10, seed=0)
@example(extents=[6, 5, 4], alpha=1.5, tiny_delta=False, eps_blow=0.3, kind="constant",
         amplitude=1.2, S=120, seed=0)
@example(extents=[6, 6], alpha=2.0, tiny_delta=False, eps_blow=0.0, kind="delta",
         amplitude=0.9, S=120, seed=0)
@example(extents=[7, 2], alpha=1.0, tiny_delta=False, eps_blow=0.0, kind="subnormal",
         amplitude=0.0, S=120, seed=1)
@example(extents=[2, 3, 2], alpha=1.0, tiny_delta=False, eps_blow=0.3, kind="constant",
         amplitude=1.4, S=120, seed=0)
def test_orthant_stepper_matches_the_whole_box(extents, alpha, tiny_delta, eps_blow, kind,
                                               amplitude, S, seed):
    # on data equal to its mirror image along every axis, a `mirror` stepper, on one orthant,
    # gives the whole box's step and stop (blow-up and overflow sites and g included), records
    # as uint64 and interior state: constant, centred delta (extents made even) and mirrored
    # random data up to `amplitude` thresholds, subnormal data that rests, and the largest
    # constant that does not blow up, whose update overflows at tiny delta and alpha 1/2
    if kind == "delta":
        extents = [n + n % 2 for n in extents]
    d = BoxDomain(tuple(extents))
    p = Params(alpha, 1e-150 if tiny_delta else 1.0 / alpha)
    if kind in ("constant", "delta"):
        values = np.zeros(d.shape)
        values[d.core if kind == "constant" else tuple(n // 2 for n in extents)] = 1.0
        a = Field(d, values * (amplitude * p.threshold))
    else:
        a = Field(d, mirrored(_run_data(d, p, eps_blow, kind, amplitude, seed).values))
    want, got = (evolution._Stepper(d, p, eps_blow, True, mirror) for mirror in (False, True))
    assert got.loop(got.load(a), S) == want.loop(want.load(a), S)
    assert [_bits(r) for r in got.trace] == [_bits(r) for r in want.trace]
    # the orthant's core is its sites 1..N_k//2, and its state is the whole box's there
    orthant = tuple(slice(1, n // 2 + 1) for n in extents)
    assert got.core == orthant and got.f[got.core].tobytes() == want.f[orthant].tobytes()


@pytest.mark.parametrize("extents", [(5, 4, 6), (7, 6), (9,)])
def test_orthant_blows_up_where_neighbour_sums_overflow(extents):
    # at a threshold of 1e308 the data's neighbour sums overflow to inf at step 0: the whole
    # box blows up there, and so must the orthant, whose ghost faces' wrapped sums overflow too
    d = BoxDomain(extents)
    p = Params(0.5, 2e-154)
    a = Field.from_interior(d, np.full(d.interior_shape, 0.9 * p.threshold))
    want, got = (evolution._Stepper(d, p, 0.0, True, mirror) for mirror in (False, True))
    s, stop = want.loop(want.load(a), 5)
    assert s == 0 and stop.g_value == math.inf and got.loop(got.load(a), 5) == (s, stop)


def test_one_ulp_off_symmetric_data_takes_the_whole_box(monkeypatch):
    # the symmetry test is exact, and a probe builds an orthant stepper only for a profile that
    # passes it; below `_ORTHANT_MIN_SITES` a symmetric profile stays on the whole box too
    d, p = BoxDomain((6, 5, 4)), Params(1.0, 1.0)
    a = Field.from_interior(d, np.full(d.interior_shape, 0.5))

    def probe_shape(profile):  # the shape of the probe's stepper buffers, after a probe
        probe = _Probe(profile, float(profile.values.max()), p, 50, 0.0, blowup_exit=True)
        probe(1.0)
        return probe._stepper.f.shape

    assert d.n_sites < domain_module._ORTHANT_MIN_SITES and not _mirror_symmetric(a.values)
    assert probe_shape(a) == d.shape
    monkeypatch.setattr(domain_module, "_ORTHANT_MIN_SITES", 0)
    assert _mirror_symmetric(a.values)
    for site in ((1, 1, 1), (3, 2, 2), (5, 4, 3), (3, 3, 2)):
        off = a.values.copy()
        off[site] = np.nextafter(off[site], 1.0)
        assert not _mirror_symmetric(off)
        assert probe_shape(Field(d, off)) == d.shape
    assert probe_shape(a) == _orthant(d).shape


def _sine(d, amplitude):
    return Field(d, amplitude * mode_table(d).mode_field((1,) * d.dims).values)


def _stop_of(report):
    """reference_simulate's outcome as `loop` states it: the step, and the site and g of a
    blow-up or None for survival."""
    out = report.outcome
    return (out.step, (out.site, out.g_value)) if report.blew_up else (None, None)


def test_each_stop_matches_reference():
    # blow-up at step 1, at the first site whose denominator reaches 0
    d, p = BoxDomain((4,)), Params(1.0, 1.0)
    a = Field(d, [0, 0.9, 0.9, 0.9, 0])
    stepper = evolution._Stepper(d, p, 0.0, record=True)
    s, stop = stepper.loop(stepper.load(a), 10)
    ref, ref_state = reference_simulate(a, p, 10)
    assert (s, (stop.site, stop.g_value)) == _stop_of(ref) and (s, stop.site) == (1, (1,))
    assert [_bits(r) for r in stepper.trace] == [_bits(r) for r in ref.trace]
    assert stepper.f.tobytes() == ref_state.tobytes()  # the state the blow-up step read

    # overflow: the update of step 0 sets site 2 to inf, charged to step 0 at that site
    p = Params(0.5, 1e-150)
    g = _blowup_edge(p, 0.0)
    a = Field(d, [0, g, g, g, 0])
    stepper = evolution._Stepper(d, p, 0.0)
    s, stop = stepper.loop(stepper.load(a), 10)
    ref, ref_state = reference_simulate(a, p, 0)  # the reference forms that update at its horizon
    assert (s, stop) == (0, BlewUpAt(step=0, site=(2,), g_value=g))
    assert np.isinf(ref_state).tolist() == [False, False, True, False, False]
    assert ref.trace[0].max_g == g

    # rest after step s < steps, and the horizon: the state of a reference run to s
    p = Params(1.0, 1.0)
    for data, steps, at_rest in ((random_field(np.random.default_rng(3), BoxDomain((3, 3)),
                                               1e-318), 500, True),
                                 (Field(d, [0, 0.3, 0.5, 0.3, 0]), 20, False)):
        stepper = evolution._Stepper(data.domain, p, 0.0, record=True)
        s, stop = stepper.loop(stepper.load(data), steps)
        assert stop is None and (s < steps) == at_rest
        ref, ref_state = reference_simulate(data, p, s)
        assert [_bits(r) for r in stepper.trace] == [_bits(r) for r in ref.trace]
        assert stepper.f.tobytes() == ref_state.tobytes()
        if at_rest:  # one more step repeats the state
            assert reference_simulate(data, p, s + 1)[1].tobytes() == ref_state.tobytes()

    # the probe's exits on (8,): the sine mode at 0.05 is certified to survive at step 0, and
    # at 0.1 Kaplan's bound fires before the reference's blow-up at step 40
    d = BoxDomain((8,))
    exits = _Probe(Field(d, np.zeros(d.shape)), 0.0, p, 2000, 0.0, blowup_exit=True)._exits
    stepper = evolution._Stepper(d, p, 0.0)
    assert stepper.loop(stepper.load(_sine(d, 0.05)), 2000, exits) == (0, False)
    assert _stop_of(reference_simulate(_sine(d, 0.05), p, 2000)[0]) == (None, None)
    s, stop = stepper.loop(stepper.load(_sine(d, 0.1)), 2000, exits)
    assert stop is True and 0 < s < 40
    assert _stop_of(reference_simulate(_sine(d, 0.1), p, 2000)[0])[0] == 40


def test_negative_horizon_is_rejected():
    # the one check, in `loop`, serves simulate and the probes
    a, p = Field(BoxDomain((4,)), np.zeros(5)), Params(1.0, 1.0)
    with pytest.raises(ValueError, match="max_steps"):
        simulate(a, p, -1)
    with pytest.raises(ValueError, match="max_steps"):
        _Probe(a, 0.0, p, -1, 0.0, blowup_exit=True)(1.0)


def _reference_check_message(f):
    """The data check's message in its first form, an elementwise pass per test; None if the
    data pass."""
    if not f.boundary_is_zero():
        return "field has nonzero boundary values"
    if not np.all(np.isfinite(f.values)):
        return "field has non-finite values"
    if np.any(f.values < 0):
        return "field has negative values"
    return None


def test_data_check_messages_match_the_elementwise_check(rng):
    # the check reduces the data to its minimum and maximum; on fields drawn from +-0.0, NaN,
    # +-inf, +-subnormals and +-normals, on the interior alone or on every site, it raises what
    # the elementwise check raises, and warns of nothing (RuntimeWarning is an error here)
    pool = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2e-308, -2e-308, 0.5, -0.5]
    messages = set()
    for i in range(3000):
        d = random_domain(rng, max_extent=5)
        weights = rng.dirichlet(np.full(len(pool), 0.3))  # mostly one or two kinds per field
        values = rng.choice(pool, d.shape, p=weights)
        zero = rng.choice([0.0, -0.0])
        f = Field(d, values) if i % 2 else with_boundary(d, values[d.core], zero)
        want = _reference_check_message(f)
        messages.add(want)
        if want is None:
            evolution._check_solution_field(f)
        else:
            with pytest.raises(ValueError) as raised:
                evolution._check_solution_field(f)
            assert str(raised.value) == want
    assert len(messages) == 4  # every outcome arises
