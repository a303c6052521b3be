import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import settings

from latticeheat import BlewUpAt, BlowupReport, BoxDomain, Field, Survived
from latticeheat.domain import _span
from latticeheat.evolution import StepRecord, _check_solution_field, _Stepper

# HYPOTHESIS_PROFILE=ci: no example database, so no stale local entry can
# decide a run, and every failure prints its @reproduce_failure blob
settings.register_profile("ci", database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def random_domain(rng, max_d=3, max_extent=6):
    d = int(rng.integers(1, max_d + 1))
    extents = tuple(int(rng.integers(2, max_extent + 1)) for _ in range(d))
    return BoxDomain(extents)


def random_field(rng, domain, amplitude=1.0):
    interior = rng.uniform(0.0, amplitude, size=domain.interior_shape)
    return Field.from_interior(domain, interior)


def mirrored(values):
    """`values` made equal to its mirror image n_k -> N_k - n_k along every axis, bit for bit:
    each site takes the largest value among its mirror images."""
    for k in range(values.ndim):
        values = np.maximum(values, np.flip(values, k))
    return values


def with_boundary(domain, interior, zero):
    """The field with `interior` inside and `zero`, +0.0 or -0.0, on every boundary site."""
    values = np.full(domain.shape, zero)
    values[domain.core] = interior
    return Field(domain, values)


def is_span_of(view, full):
    """Whether `view` is the flat span (`domain._span`) of the C-contiguous full-shape array
    `full`: the same first address, length and stride."""
    span = full.ravel()[_span(full)]
    return (view.ctypes.data, view.shape, view.strides) == (span.ctypes.data, span.shape,
                                                            span.strides)


def run_plan(plan):
    """Run a `_stencil` plan's calls alone, in order, as a flow splices them into its run."""
    for ufunc, args in plan:
        ufunc(*args)


def plan_scale_and_fills(plan):
    """A `_stencil` plan's scale, read off its calls: the ufunc and the scalar (or span) that
    scale the sums, and the face views that its fill calls set to +0.0."""
    [(scale_by, (_, scale, _))] = [c for c in plan if c[0] in (np.multiply, np.divide)]
    return scale_by, scale, [fn.__self__ for fn, _ in plan if fn.__name__ == "fill"]


def reference_neighbor_mean(values):
    """The interior neighbor mean as the per-axis expression over strided
    interior views, kept here as the stencil kernel's frozen reference."""
    d = values.ndim
    core = [slice(1, -1)] * d
    out = np.zeros(tuple(s - 2 for s in values.shape))
    for k in range(d):
        up = list(core)
        up[k] = slice(2, None)
        down = list(core)
        down[k] = slice(0, -2)
        out += values[tuple(up)] + values[tuple(down)]
    out /= 2 * d
    return out


def reference_flow(domain, h, steps):
    """The linear flow's reference, h^0..h^steps: h^0 is the array h, and each next state has the
    frozen reference mean of the last inside and +0.0 on the boundary."""
    yield h
    for _ in range(steps):
        h = with_boundary(domain, reference_neighbor_mean(h), 0.0).values
        yield h


def reference_offender(step, bad, g):
    """The blow-up at `step` at the lexicographically first site of the interior mask `bad`."""
    idx = np.argwhere(bad)[0]
    return BlewUpAt(step=step, site=tuple(int(i) + 1 for i in idx), g_value=float(g[tuple(idx)]))


def reference_simulate(a, p, max_steps, eps_blow=0.0):
    """simulate as first written: every step re-validated, a fresh Field per step.

    Returns the report and the last state formed, which is the state simulate's
    kernel ends in: like the kernel, it also forms the update at the horizon.
    """
    f = a
    trace = []
    for s in range(max_steps + 1):
        _check_solution_field(f)
        g = reference_neighbor_mean(f.values)
        trace.append(StepRecord(max_f=float(f.values.max()), max_g=float(g.max())))
        denom = 1.0 - p.alpha * p.delta * np.power(g, p.alpha)
        bad = denom <= eps_blow
        if np.any(bad):
            return BlowupReport(outcome=reference_offender(s, bad, g), trace=trace), f.values
        nxt = Field(f.domain, np.zeros(f.domain.shape))
        with np.errstate(divide="ignore", over="ignore"):  # an inf fails the next check
            nxt.interior()[...] = g / np.power(denom, 1.0 / p.alpha)
        f = nxt
    return BlowupReport(outcome=Survived(steps=max_steps), trace=trace), f.values


def step_nonlinear(f, p, eps_blow=0.0):
    """One nonlinear step through `_Stepper.loop`, or the BlewUpAt(step=0, ...) that `simulate`
    reports. Blow-up is declared where 1 - alpha*delta*g^alpha <= eps_blow, and at the first
    inf site of an update that overflows, which `loop` finds at step 1, where an exit stops it."""
    stepper = _Stepper(f.domain, p, eps_blow)
    _, stop = stepper.loop(stepper.load(f), 1, lambda s, *_: False if s else None)
    return stop if isinstance(stop, BlewUpAt) else Field(f.domain, stepper.f)


def write_field_json(path, f):
    """The field file the CLI's init.path reads: extents, and every site's value as a ".17g"
    string, lexicographic."""
    doc = {
        "extents": list(f.domain.extents),
        "values": [format(v, ".17g") for v in f.values.ravel()],
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def interior_sites(domain):
    """Interior multi-indices in lexicographic order, the canonical order that
    spectral coefficient vectors and file output follow."""
    return itertools.product(*(range(1, n) for n in domain.extents))


def neighbor_average(f, n):
    """Mean of the 2d axis-adjacent values at the interior site n, one site at a time."""
    n = tuple(int(c) for c in n)
    if not f.domain.is_interior(n):
        raise ValueError(f"site {n} is not interior to the domain")
    total = 0.0
    for k in range(f.domain.dims):
        plus = list(n)
        plus[k] += 1
        minus = list(n)
        minus[k] -= 1
        total += f.values[tuple(plus)] + f.values[tuple(minus)]
    return total / (2 * f.domain.dims)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
