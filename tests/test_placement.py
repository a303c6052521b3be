"""Every kernel buffer's flat span starts on a 64-byte cache line, on any heap.

The stepper, the linear flow and verify take their buffers from
`domain._span_buffers`; a pass over a span then meets the same cache-line
splits whatever the allocator did before. Each case shifts the heap with
odd-sized allocations that stay alive between constructions.
"""

import itertools

import numpy as np
import pytest

from latticeheat import BoxDomain, Params, verify_comparison
from latticeheat import domain as domain_module
from latticeheat import majorant
from latticeheat.domain import _span, _span_buffers
from latticeheat.evolution import _Stepper
from latticeheat.spectral import _linear_flow

from conftest import random_field

EXTENTS = [(2,), (401,), (2, 2), (97, 97), (401, 2), (5, 97), (2, 2, 2), (17, 17, 17), (2, 17, 3)]
SHIFTS = range(6)


def _shift_heap(keep, k):
    """Leave odd-sized blocks on the heap, so the next allocation lands elsewhere."""
    keep += [np.empty(2 * k + 1), bytearray(8 * k + 3), np.empty((k + 1) * 1001)]


def _on_line(a):
    return a.ctypes.data % 64 == 0


def _span_of(full):
    return full.ravel()[_span(full)]


def _assert_apart(arrays):
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("extents", EXTENTS)
def test_span_buffers_are_zero_apart_and_on_cache_lines(extents):
    shape = BoxDomain(extents).shape
    keep = []
    for k, count in itertools.product(SHIFTS, (1, 2, 3, 4)):
        _shift_heap(keep, k)
        buffers = _span_buffers(shape, count)
        assert len(buffers) == count
        for b in buffers:
            assert b.shape == shape and b.dtype == np.float64 and b.flags.c_contiguous
            assert b.flags.writeable and not np.any(b) and _on_line(_span_of(b))
        _assert_apart(buffers)


@pytest.mark.parametrize("extents", EXTENTS)
def test_stepper_spans_on_cache_lines(extents):
    d = BoxDomain(extents)
    keep = []
    for k in SHIFTS:
        _shift_heap(keep, k)
        stepper = _Stepper(d, Params(2.0, 0.5), 0.0)
        spans = [*stepper._spans, stepper._g_span, stepper._denom_span]
        assert all(_on_line(s) and not np.any(s) for s in spans)
        assert _span_of(stepper.f).ctypes.data == spans[0].ctypes.data
        _assert_apart([stepper.f, stepper._spare, stepper._g_span, stepper._denom_span])
        f = stepper.f
        stepper.load(random_field(np.random.default_rng(k), d, amplitude=0.5))
        assert stepper.step(0.5) is None and stepper.f is not f  # the buffers swapped
        assert all(_on_line(s) for s in (*stepper._spans, _span_of(stepper.f)))


@pytest.mark.parametrize("extents", EXTENTS)
def test_linear_flow_and_verify_spans_on_cache_lines(monkeypatch, extents):
    # every stencil plan the flow and verify build reads and writes spans on cache lines: the
    # flow's two plans run from step 0, on a copy of the data, which is h^0; verify's fbar and
    # fbar - f buffers start on cache lines too
    plans, verify_buffers = [], []
    real_init, real_buffers = domain_module._Stencil.__init__, majorant._span_buffers

    def recording_init(self, values, out, pairs):
        plans.append((values, out, pairs))
        real_init(self, values, out, pairs)

    def recording_buffers(shape, count):
        verify_buffers.append(real_buffers(shape, count))
        return verify_buffers[-1]

    monkeypatch.setattr(domain_module._Stencil, "__init__", recording_init)
    monkeypatch.setattr(majorant, "_span_buffers", recording_buffers)
    d = BoxDomain(extents)
    keep = []
    for k in SHIFTS:
        _shift_heap(keep, k)
        a = random_field(np.random.default_rng(k), d, amplitude=0.1)
        plans.clear()
        flow = list(_linear_flow(a, 3))
        assert len(plans) == 2 and flow[0] is plans[0][1] is plans[1][0]
        for values, out, pairs in plans:
            assert _on_line(_span_of(out)) and _on_line(pairs) and _on_line(_span_of(values))
        _assert_apart([plans[0][1], plans[1][1], plans[0][2]])  # the two buffers and pairs
        verify_buffers.clear()
        assert verify_comparison(a, 1.0, 3).holds
        [(fbar, diff)] = verify_buffers
        assert fbar.shape == diff.shape == d.shape
        assert _on_line(_span_of(fbar)) and _on_line(_span_of(diff))
        assert all(_on_line(_span_of(out)) and _on_line(pairs) for _, out, pairs in plans)
