"""The calls of each kernel phase, in order, with the buffer that each one writes or reads.

A full step, a copy step and a block of the linear flow each run one flat tuple of (ufunc,
args) pairs, and a step reads its extrema with `argmax` or `argmin`. Each test records what
one phase calls and compares the names and buffers with a fixed list, so that a change that
adds a pass to a phase fails here. The flow's block maxima come from one reduce over the
block, outside the tuple, and are not recorded.
"""

import math

import numpy as np
import pytest

from latticeheat import BoxDomain, Field, Params, evolution, spectral
from latticeheat.domain import _mirror_symmetric, _stencil
from latticeheat.spectral import _linear_flow

from conftest import random_field


def _recorded(calls, log):
    """`calls` with each function wrapped to log its name and the array it writes."""
    def wrap(fn, args):
        out = args[0] if fn is np.copyto else getattr(fn, "__self__", None)
        out = args[-1] if out is None else out  # a ufunc's output is its last argument

        def call(*a):
            log.append((fn.__name__, out))
            return fn(*a)
        return call, args
    return tuple(wrap(fn, args) for fn, args in calls)


def _recording_stencil(log):
    return lambda *args: _recorded(_stencil(*args), log)


class _Reads(np.ndarray):
    """A view of a span that logs the extrema read off it, and any ufunc call outside the
    recorded tuples that reads or writes it."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        self.log.append((ufunc.__name__, out[0] if out else self))
        plain = [x.view(np.ndarray) if isinstance(x, _Reads) else x for x in (*inputs, *out)]
        return getattr(ufunc, method)(*plain[:len(inputs)], *plain[len(inputs):], **kwargs)

    def argmax(self, *args, **kwargs):
        self.log.append(("argmax", self))
        return super().argmax(*args, **kwargs)

    def argmin(self, *args, **kwargs):
        self.log.append(("argmin", self))
        return super().argmin(*args, **kwargs)


def _named(log, buffers, other=None):
    """Each logged call's name and the name of the first buffer its array shares memory with,
    or `other`."""
    return [(name, next((label for label, b in buffers.items() if np.shares_memory(out, b)),
                        other)) for name, out in log]


def _step_calls(monkeypatch, extents, alpha, delta, level, mirror=False):
    """What one step of a new stepper calls on constant data at `level`, forced full by an
    infinite bound on the maximum, or a copy step at a level below `_copy_below`."""
    d = BoxDomain(extents)
    stepper = evolution._Stepper(d, Params(alpha, delta), 0.0, mirror=mirror)
    buffers = {"f": stepper.f, "spare": stepper._spare, "g": stepper._g_span,
               "denom": stepper._denom_span}
    log = []
    stepper._phases = [tuple(_recorded(run, log) for run in phase) for phase in stepper._phases]
    monkeypatch.setattr(evolution, "_stencil", _recording_stencil(log))  # the copy plans
    for name in ("f_span", "_spare_span", "_g_span", "_denom_span"):
        reads = getattr(stepper, name).view(_Reads)
        reads.log = log
        setattr(stepper, name, reads)
    a = Field.from_interior(d, np.full(d.interior_shape, level))
    assert _mirror_symmetric(a.values) == mirror
    copy = level <= stepper._copy_below
    assert copy == (level < 1e-30)  # the copy tests' level lies below every case's bound
    stepper.load(a)
    log.clear()
    assert stepper.step(level if copy else math.inf) is False
    return _named(log, buffers)


_FULL = {
    "1-D": [("add", "g"), ("multiply", "g"), ("subtract", "denom"), ("argmax", "g"),
            ("divide", "spare")],
    "2-D": [("add", "g"), ("add", "denom"), ("add", "g"), ("multiply", "g"), ("fill", "g"),
            ("square", "denom"), ("subtract", "denom"), ("argmax", "g"), ("sqrt", "denom"),
            ("divide", "spare")],
    # d = 3 divides by the face weights, so no fill; np.power reads its extrema off the spans
    "3-D": [("add", "g"), ("add", "denom"), ("add", "g"), ("add", "denom"), ("add", "g"),
            ("divide", "g"), ("power", "denom"), ("multiply", "denom"), ("subtract", "denom"),
            ("argmin", "denom"), ("power", "denom"), ("divide", "spare"), ("argmax", "spare")],
    # the ghost planes of the state first; an orthant plan fills its faces
    "orthant": [("copyto", "f"), ("copyto", "f"), ("add", "g"), ("add", "denom"), ("add", "g"),
                ("multiply", "g"), ("fill", "g"), ("sqrt", "denom"), ("multiply", "denom"),
                ("subtract", "denom"), ("argmax", "g"), ("square", "denom"),
                ("divide", "spare")],
}
_COPY = {
    "1-D": [("add", "spare"), ("multiply", "spare"), ("argmax", "spare")],
    "2-D": [("add", "spare"), ("add", "denom"), ("add", "spare"), ("multiply", "spare"),
            ("fill", "spare"), ("argmax", "spare")],
    "3-D": [("add", "spare"), ("add", "denom"), ("add", "spare"), ("add", "denom"),
            ("add", "spare"), ("divide", "spare"), ("argmax", "spare")],
    "orthant": [("copyto", "f"), ("copyto", "f"), ("add", "spare"), ("add", "denom"),
                ("add", "spare"), ("multiply", "spare"), ("fill", "spare"), ("argmax", "spare")],
}
# (extents, alpha, delta, mirror): alpha*delta is 1 in 1-D and 2-D, so no multiply
_CASES = {"1-D": ((6,), 1.0, 1.0, False), "2-D": ((4, 5), 2.0, 0.5, False),
          "3-D": ((3, 4, 5), 0.75, 1.0, False), "orthant": ((32, 32), 0.5, 1.0, True)}


@pytest.mark.parametrize("case", list(_CASES))
def test_a_full_step_runs_its_calls_and_no_more(monkeypatch, case):
    extents, alpha, delta, mirror = _CASES[case]
    assert _step_calls(monkeypatch, extents, alpha, delta, 0.1, mirror) == _FULL[case]


@pytest.mark.parametrize("case", list(_CASES))
def test_a_copy_step_runs_its_calls_and_no_more(monkeypatch, case):
    extents, alpha, delta, mirror = _CASES[case]
    assert _step_calls(monkeypatch, extents, alpha, delta, 1e-40, mirror) == _COPY[case]


_PLAN = {  # a plan into `out`; the sums of every axis after the first go through `pairs`
    (6,): [("add", "out"), ("multiply", "out")],
    (4, 5): [("add", "out"), ("add", "pairs"), ("add", "out"), ("multiply", "out"),
             ("fill", "out")],
    (3, 4, 5): [("add", "out"), ("add", "pairs"), ("add", "out"), ("add", "pairs"),
                ("add", "out"), ("divide", "out")],
}


@pytest.mark.parametrize("extents", list(_PLAN))
def test_a_linear_flow_block_runs_its_calls_and_no_more(monkeypatch, extents):
    # S = 3 makes k = 2 rows, so the second block is the plans of h1 into h0 and of h0 into h1;
    # the data is finite and >= +0.0, so the 3-D plans divide by the face weights
    log = []
    monkeypatch.setattr(spectral, "_stencil", _recording_stencil(log))
    flow = _linear_flow(random_field(np.random.default_rng(0), BoxDomain(extents), 0.5), 3)
    (h0, *_), (h1, *_) = next(flow), next(flow)
    log.clear()
    next(flow)  # the second block
    want = [(name, row if into == "out" else into) for row in ("h0", "h1")
            for name, into in _PLAN[extents]]
    assert _named(log, {"h0": h0, "h1": h1}, other="pairs") == want
