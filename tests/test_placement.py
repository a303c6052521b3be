"""Every kernel buffer's flat span starts on a 64-byte cache line, on any heap.

The stepper, the linear flow's ring of rows and verify take their buffers from
`domain._span_buffers`; a pass over a span then meets the same cache-line
splits whatever the allocator did before. Each case shifts the heap with
odd-sized allocations that stay alive between constructions.
"""

import itertools

import numpy as np
import pytest

from latticeheat import BoxDomain, Field, Params, verify_comparison
from latticeheat import domain as domain_module
from latticeheat import evolution, majorant, spectral
from latticeheat.domain import _face_weights, _span, _span_buffers
from latticeheat.evolution import _Stepper
from latticeheat.spectral import _linear_flow

from conftest import is_span_of, plan_scale_and_fills, random_field

EXTENTS = [(2,), (401,), (2, 2), (97, 97), (401, 2), (5, 97), (2, 2, 2), (17, 17, 17), (2, 17, 3)]
SHIFTS = range(6)


def _shift_heap(keep, k):
    """Leave odd-sized blocks on the heap, so the next allocation lands elsewhere."""
    keep += [np.empty(2 * k + 1), bytearray(8 * k + 3), np.empty((k + 1) * 1001)]


def _on_line(a):
    return a.ctypes.data % 64 == 0


def _span_of(full):
    return full.ravel()[_span(full)]


def _same(a, b):
    """Whether two full-shape views start at one address, so are views of one buffer."""
    return a.shape == b.shape and a.ctypes.data == b.ctypes.data


def _assert_apart(arrays):
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("extents", EXTENTS)
def test_span_buffers_are_zero_apart_and_on_cache_lines(extents):
    shape = BoxDomain(extents).shape
    keep = []
    for k, count in itertools.product(SHIFTS, (1, 2, 3, 4, 17)):
        _shift_heap(keep, k)
        buffers, spans = _span_buffers(shape, count)
        assert buffers.shape == (count, *shape)  # axis 0 strides over the arrays
        assert spans.shape == (count, _span_of(buffers[0]).size)  # and over their spans
        for b, span in zip(buffers, spans):
            assert b.shape == shape and b.dtype == np.float64 and b.flags.c_contiguous
            assert b.flags.writeable and not np.any(b) and _on_line(_span_of(b))
            assert is_span_of(span, b)  # the same address and length as `_span` gives
        _assert_apart(buffers)


@pytest.mark.parametrize("extents", EXTENTS)
def test_stepper_spans_on_cache_lines(extents):
    d = BoxDomain(extents)
    keep = []
    for k in SHIFTS:
        _shift_heap(keep, k)
        stepper = _Stepper(d, Params(2.0, 0.5), 0.0)
        spans = [stepper.f_span, stepper._spare_span, stepper._g_span, stepper._denom_span]
        assert all(_on_line(s) and not np.any(s) for s in spans)
        assert _span_of(stepper.f).ctypes.data == spans[0].ctypes.data
        _assert_apart([stepper.f, stepper._spare, stepper._g_span, stepper._denom_span])
        f = stepper.f
        stepper.load(random_field(np.random.default_rng(k), d, amplitude=0.5))
        assert stepper.step(0.5) is False and stepper.f is not f  # the buffers swapped
        assert all(_on_line(s) for s in (stepper.f_span, stepper._spare_span))
        assert is_span_of(stepper.f_span, stepper.f)


@pytest.mark.parametrize("extents", EXTENTS)
def test_linear_flow_and_verify_spans_on_cache_lines(monkeypatch, extents):
    # the flow's k ring rows and the spare its plans sum into are one block, each span on a
    # cache line; h^s is row s mod k, and each row's plan, built at its first use, reads that
    # row and writes the next, mod k. At S = 600 the rule gives k = 3 on 97^2, 5 on 17^3 and
    # 16 on the other boxes. verify's fbar and fbar - f buffers start on cache lines too.
    # The data is finite and >= +0.0, so every plan, the stepper's too, is told its sources
    # are; on 3-D boxes, where the scale divides, it then divides by the shape's face weights
    # and holds no face views.
    plans, flow_buffers, verify_buffers = [], [], []
    real_buffers = domain_module._span_buffers

    def recording_stencil(values, out, pairs, nonnegative=False, mirror=()):
        plan = domain_module._stencil(values, out, pairs, nonnegative, mirror)
        plans.append((values, out, pairs, nonnegative, plan))
        return plan

    def recording(into):
        def buffers(shape, count):
            into.append(real_buffers(shape, count))
            return into[-1]
        return buffers

    monkeypatch.setattr(evolution, "_stencil", recording_stencil)  # verify's stepper
    monkeypatch.setattr(spectral, "_stencil", recording_stencil)
    monkeypatch.setattr(spectral, "_span_buffers", recording(flow_buffers))
    monkeypatch.setattr(majorant, "_span_buffers", recording(verify_buffers))
    d = BoxDomain(extents)
    weights = _face_weights(d.shape)  # one read-only span per shape, on a cache line
    assert weights is _face_weights(d.shape) and not weights.flags.writeable and _on_line(weights)
    expected = np.full(d.shape, np.inf)
    expected[d.core] = 2 * d.dims
    np.testing.assert_array_equal(weights, _span_of(expected))  # 2d inside, +inf on the faces
    keep = []
    for shift, S in itertools.product(SHIFTS, (3, 600)):
        _shift_heap(keep, shift)
        a = random_field(np.random.default_rng(shift), d, amplitude=0.1)
        plans.clear()
        flow_buffers.clear()
        states = [h for h, *_ in _linear_flow(a, S)]
        [((*rows, spare), _)] = flow_buffers
        k = len(rows)
        assert k == max(2, min(16, (S + 1) // 32, 2**15 // d.n_sites))
        assert all(_same(h, rows[s % k]) for s, h in enumerate(states))
        assert all(_on_line(_span_of(b)) for b in (*rows, spare))
        _assert_apart([*rows, spare])
        assert len(plans) == min(S, k)
        for i, (values, out, pairs, _, _) in enumerate(plans):
            assert _same(values, rows[i]) and _same(out, rows[(i + 1) % k])
            assert pairs.ctypes.data == _span_of(spare).ctypes.data and _on_line(pairs)
        verify_buffers.clear()
        assert verify_comparison(a, 1.0, S).holds
        for *_, nonnegative, plan in plans:
            assert nonnegative
            scale_by, scale, faces = plan_scale_and_fills(plan)
            if d.dims == 3:
                assert scale_by is np.divide and scale is weights
                assert faces == []
            else:  # a multiply by the exact 1/2d, and the faces' fills
                assert scale_by is np.multiply and len(faces) == d.dims - 1
        [((fbar, diff), _)] = verify_buffers
        assert fbar.shape == diff.shape == d.shape
        assert _on_line(_span_of(fbar)) and _on_line(_span_of(diff))


@pytest.mark.parametrize("extents", EXTENTS)
def test_stepper_f_span_is_the_span_of_f(extents):
    # f_span swaps with f, and the spare's span with the spare: at the start, after one and two
    # full steps, after a copy step (a maximum at or below _copy_below) and at rest
    d = BoxDomain(extents)
    stepper = _Stepper(d, Params(2.0, 0.5), 0.0)

    def spans_follow():
        return (is_span_of(stepper.f_span, stepper.f)
                and is_span_of(stepper._spare_span, stepper._spare))

    assert spans_follow()
    stepper.load(random_field(np.random.default_rng(len(extents)), d, amplitude=0.5))
    for _ in range(2):
        f = stepper.f
        assert stepper.step(0.5) is False and stepper.f is not f and spans_follow()
    tiny = random_field(np.random.default_rng(0), d, amplitude=1e-12)
    stepper.load(tiny)
    f = stepper.f
    # a copy plan
    assert stepper.step(float(tiny.values.max())) is False and stepper._copies.count(None) == 1
    assert stepper.f is not f and spans_follow()
    s, stop = stepper.loop(stepper.load(Field(d, np.zeros(d.shape))), 10)
    assert (s, stop) == (0, None) and spans_follow()  # the zero state rests after step 0
