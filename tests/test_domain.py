import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeheat import BoxDomain, Field, step_linear_direct
from latticeheat.domain import _face_weights, _span, _stencil

from conftest import (interior_sites, neighbor_average, plan_scale_and_fills, random_domain,
                      random_field, reference_neighbor_mean, run_plan, with_boundary)


class TestBoxDomain:
    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            BoxDomain(())
        with pytest.raises(ValueError):
            BoxDomain((1,))
        with pytest.raises(ValueError):
            BoxDomain((4, 0))

    @pytest.mark.parametrize("bad", [2.5, "4", True, np.True_, np.float64(4.0)])
    def test_extents_are_integers_never_truncated(self, bad):
        # int() read 2.5 as 2 and "4" as 4; numpy's integers are still read, as ints
        with pytest.raises(TypeError, match=re.escape(f"extents must be integers, got {bad!r}")):
            BoxDomain((bad, 3))
        extents = BoxDomain((np.int64(4), np.uint8(3))).extents
        assert extents == (4, 3) and all(type(n) is int for n in extents)

    def test_site_counts_are_exact_past_int64(self):
        # past int64: a product in int64 wraps to 8589934593 sites and -8589934591 interior ones
        d = BoxDomain((2**32, 2**32))
        assert d.n_sites == (2**32 + 1) ** 2 == 18446744082299486209
        assert d.n_interior == (2**32 - 1) ** 2 == 18446744065119617025

    def test_interior_sites_1d_minimal(self):
        assert list(interior_sites(BoxDomain((2,)))) == [(1,)]

    def test_interior_sites_1d(self):
        assert list(interior_sites(BoxDomain((4,)))) == [(1,), (2,), (3,)]

    def test_interior_sites_2d(self):
        # brute-force oracle: all sites with 0 < n_k < N_k
        assert list(interior_sites(BoxDomain((2, 3)))) == [(1, 1), (1, 2)]

    def test_interior_sites_matches_brute_force(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            brute = [
                n
                for n in itertools.product(*(range(N + 1) for N in d.extents))
                if all(0 < ni < Ni for ni, Ni in zip(n, d.extents))
            ]
            assert list(interior_sites(d)) == brute

    def test_partition_counts(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            sites = list(itertools.product(*(range(N + 1) for N in d.extents)))
            interior = [n for n in sites if d.is_interior(n)]
            boundary = [n for n in sites if not d.is_interior(n)]
            assert len(sites) == d.n_sites == np.prod([N + 1 for N in d.extents])
            assert len(interior) == d.n_interior == np.prod([N - 1 for N in d.extents])
            assert len(interior) + len(boundary) == len(sites)


class TestField:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Field(BoxDomain((4,)), [0, 1, 2])
        with pytest.raises(ValueError, match=r"interior shape \(3, 3\) does not match \(3, 2\)"):
            Field.from_interior(BoxDomain((4, 3)), np.zeros((3, 3)))

    def test_from_interior_has_zero_boundary(self, rng):
        d = random_domain(rng)
        f = random_field(rng, d)
        assert f.boundary_is_zero()

    def test_boundary_detection(self):
        d = BoxDomain((4,))
        f = Field(d, [0.5, 0, 0, 0, 0])
        assert not f.boundary_is_zero()


class TestNeighborAverage:
    def test_rejects_boundary_site(self):
        d = BoxDomain((4,))
        f = Field(d, np.zeros(d.shape))
        with pytest.raises(ValueError):
            neighbor_average(f, (0,))
        with pytest.raises(ValueError):
            neighbor_average(f, (4,))

    def test_single_interior_site_is_zero(self):
        d = BoxDomain((2,))
        f = Field(d, [0, 0.7, 0])
        assert neighbor_average(f, (1,)) == 0.0

    def test_1d_hand_value(self):
        d = BoxDomain((4,))
        f = Field(d, [0, 0.4, 0.4, 0.4, 0])
        assert neighbor_average(f, (2,)) == pytest.approx(0.4)

    def test_2d_isolated_interior(self):
        d = BoxDomain((2, 2))
        f = Field(d, np.zeros(d.shape))
        f.values[1, 1] = 3.0
        assert neighbor_average(f, (1, 1)) == 0.0

    def test_monotone_and_bounded(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            f = random_field(rng, d)
            g = Field(d, f.values + rng.uniform(0, 1, size=d.shape))
            for n in interior_sites(d):
                assert neighbor_average(f, n) <= neighbor_average(g, n)
                assert neighbor_average(f, n) <= f.values.max() + 1e-15

    def test_mean_interior_matches_sitewise_average(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            f = Field(d, rng.uniform(-1, 1, size=d.shape))
            g, spare = np.zeros(d.shape), np.zeros(d.shape)
            run_plan(_stencil(f.values + 0.0, g, spare.ravel()[_span(spare)]))
            g = g[d.core]
            for n in interior_sites(d):
                assert g[tuple(i - 1 for i in n)] == pytest.approx(neighbor_average(f, n), abs=1e-15)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e308, -1e308]


def _special_values(rng, shape, special, scale):
    """Signed data with +-0, subnormals, +-inf and NaN on every site, boundary included."""
    return np.where(rng.random(shape) < special, rng.choice(_SPECIAL, shape),
                    scale * rng.uniform(-1.0, 1.0, shape))


def _assert_same_means(got, want):
    """NaN at the same sites, the same bits everywhere else."""
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got.view(np.uint64)[~nan], want.view(np.uint64)[~nan])


def _assert_plus_zero_boundary(full):
    boundary = np.ones(full.shape, dtype=bool)
    boundary[(slice(1, -1),) * full.ndim] = False
    assert np.all(full.view(np.uint64)[boundary] == 0)  # +0.0


@settings(max_examples=300, deadline=None)
@given(
    extents=st.lists(st.integers(2, 7), min_size=1, max_size=4),
    special=st.floats(0.0, 1.0),
    scale=st.sampled_from([1e-310, 1e-3, 1.0, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_frozen_reference(extents, special, scale, seed):
    # step_linear_direct(h, 1), the flow's first step, takes the signed data as it is, with a
    # -0.0 boundary
    rng = np.random.default_rng(seed)
    d = BoxDomain(tuple(extents))
    data = with_boundary(d, _special_values(rng, d.shape, special, scale)[d.core], -0.0)
    with np.errstate(all="ignore"):
        want = reference_neighbor_mean(data.values)
        mean = step_linear_direct(data, 1).values
    _assert_same_means(mean[d.core], want)
    _assert_plus_zero_boundary(mean)
    minus_zero = step_linear_direct(
        with_boundary(d, np.full(d.interior_shape, -0.0), -0.0), 1).values
    assert not np.any(minus_zero.view(np.uint64))  # -0.0 on every site: +0.0 on every site


@settings(max_examples=150, deadline=None)
@given(
    extents=st.lists(st.integers(2, 7), min_size=1, max_size=4),
    special=st.floats(0.0, 1.0),
    scales=st.lists(st.sampled_from([1e-310, 1e-3, 1.0, 1e300]), min_size=2, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_plan_reuse_matches_frozen_reference(extents, special, scales, seed):
    # one plan, its source rewritten in place before each call, as the flows use it; the flows
    # and the stepper give a plan no -0.0 (they add 0.0 to the data), so nor does this source
    rng = np.random.default_rng(seed)
    shape = tuple(n + 1 for n in extents)
    values, full, spare = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    core = (slice(1, -1),) * len(shape)
    full[core] = np.nan
    plan = _stencil(values, full, spare.ravel()[_span(spare)])
    for scale in scales:
        values[...] = _special_values(rng, shape, special, scale) + 0.0
        with np.errstate(all="ignore"):
            run_plan(plan)
            want = reference_neighbor_mean(values)
        _assert_same_means(full[core], want)
        _assert_plus_zero_boundary(full)


def _fold_data(rng, domain):
    """Finite data >= +0.0 on a +0.0 boundary: +0.0, subnormals, ordinary values and values up
    to the largest that the linear flow folds, max / 4d."""
    top = np.finfo(float).max / (4 * domain.dims)
    pool = np.array([0.0, 5e-324, 1e-310, 2.5e-308, 1.0, top, np.nextafter(top, 0.0)])
    shape = domain.interior_shape
    interior = np.where(rng.random(shape) < 0.5, rng.choice(pool, shape),
                        rng.uniform(0.0, 1.0, shape) * rng.choice([1e-300, 1.0, top], shape))
    return with_boundary(domain, interior, 0.0).values


@settings(max_examples=120, deadline=None)
@given(dims=st.sampled_from([3, 5]), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_folded_plan_writes_the_fill_plans_bytes(dims, data, seed):
    # d = 3 and 5 divide by 2d; a plan told its sources are finite and >= +0.0 divides by the
    # face weights instead of filling the faces, and writes the same bytes, call after call
    extents = data.draw(st.lists(st.integers(2, 6 if dims == 3 else 4), min_size=dims,
                                 max_size=dims))
    rng = np.random.default_rng(seed)
    domain = BoxDomain(tuple(extents))
    shape = domain.shape
    values, spare, outs = np.zeros(shape), np.zeros(shape), [np.zeros(shape), np.zeros(shape)]
    for out in outs:  # a plan writes every site of the span; outside it a fill writes +0.0
        out.ravel()[_span(out)] = np.nan
    fills, folded = (_stencil(values, out, spare.ravel()[_span(spare)], nonnegative)
                     for out, nonnegative in zip(outs, (False, True)))
    assert plan_scale_and_fills(folded)[2] == []
    assert len(plan_scale_and_fills(fills)[2]) == dims - 1
    for _ in range(3):
        values[...] = _fold_data(rng, domain)
        run_plan(fills)
        run_plan(folded)
        assert outs[0].tobytes() == outs[1].tobytes()
        inside = outs[1].ravel()[_span(values)]
        weights = _face_weights(shape)
        assert not np.any(inside[weights == np.inf].view(np.uint64))  # +0.0 on the faces
        np.testing.assert_array_equal(outs[1][(slice(1, -1),) * dims].view(np.uint64),
                                      reference_neighbor_mean(values).view(np.uint64))


@pytest.mark.parametrize("extents", [(2,), (7,), (2, 2), (5, 3), (2, 2, 2, 2), (3, 4, 2, 3)])
@pytest.mark.parametrize("nonnegative", [False, True])
def test_plans_that_multiply_keep_their_faces(extents, nonnegative):
    # 2d = 2, 4, 8: the scale is a multiply by the exact 1/2d, and the faces stay fills
    shape = tuple(n + 1 for n in extents)
    values, out, spare = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    plan = _stencil(values, out, spare.ravel()[_span(spare)], nonnegative)
    scale_by, scale, faces = plan_scale_and_fills(plan)
    assert scale_by is np.multiply and scale.shape == () and scale == 1 / (2 * len(extents))
    assert len(faces) == len(extents) - 1
    assert all(np.shares_memory(face, out) for face in faces)


@pytest.mark.parametrize("dims", [3, 5])
def test_plans_that_divide_fold_only_when_told(dims):
    shape = (4, 3, 5, 3, 4)[:dims]
    values, out, spare = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    fills, folded = (_stencil(values, out, spare.ravel()[_span(spare)], nonnegative)
                     for nonnegative in (False, True))
    (fill_by, fill_scale, fill_faces), (fold_by, fold_scale, fold_faces) = (
        plan_scale_and_fills(plan) for plan in (fills, folded))
    assert fill_by is np.divide and fill_scale.shape == ()
    assert fill_scale == 2 * dims and len(fill_faces) == dims - 1
    assert fold_by is np.divide and fold_faces == []
    assert fold_scale is _face_weights(shape)  # one cached span per shape


@pytest.mark.parametrize("dims", [2, 3, 4, 5])
def test_a_face_sites_wrapped_sum_holds_one_source_at_most(dims):
    # every box with extents 2..6: inside the span, the 2d neighbors of a site
    # with a coordinate after the first at 0 or N_k hold at most one interior site, so on a
    # +0.0 boundary its sum is one source value plus +0.0s
    faces_seen = 0
    for extents in itertools.product(range(2, 7), repeat=dims):
        shape = tuple(n + 1 for n in extents)
        interior = np.zeros(shape, dtype=bool)
        interior[(slice(1, -1),) * dims] = True
        flat, span = interior.ravel(), _span(interior)
        sites = np.arange(span.start, span.stop)
        faces = sites[~flat[span]]
        counts = sum(flat[faces + k].astype(int) + flat[faces - k]
                     for k in (stride // interior.itemsize for stride in interior.strides))
        assert counts.max(initial=0) <= 1, extents
        faces_seen += faces.size
    assert faces_seen
