import itertools

import numpy as np
import pytest

from latticeheat import BoxDomain, Field, neighbor_average
from latticeheat.domain import neighbor_mean_interior

from conftest import random_domain, random_field


class TestBoxDomain:
    def test_rejects_bad_extents(self):
        with pytest.raises(ValueError):
            BoxDomain(())
        with pytest.raises(ValueError):
            BoxDomain((1,))
        with pytest.raises(ValueError):
            BoxDomain((4, 0))

    def test_interior_sites_1d_minimal(self):
        assert list(BoxDomain((2,)).interior_sites()) == [(1,)]

    def test_interior_sites_1d(self):
        assert list(BoxDomain((4,)).interior_sites()) == [(1,), (2,), (3,)]

    def test_interior_sites_2d(self):
        # brute-force oracle: all sites with 0 < n_k < N_k
        assert list(BoxDomain((2, 3)).interior_sites()) == [(1, 1), (1, 2)]

    def test_interior_sites_matches_brute_force(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            brute = [
                n
                for n in itertools.product(*(range(N + 1) for N in d.extents))
                if all(0 < ni < Ni for ni, Ni in zip(n, d.extents))
            ]
            assert list(d.interior_sites()) == brute

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
        f = Field.zeros(d)
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
        f = Field.zeros(d)
        f.values[1, 1] = 3.0
        assert neighbor_average(f, (1, 1)) == 0.0

    def test_monotone_and_bounded(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            f = random_field(rng, d)
            g = Field(d, f.values + rng.uniform(0, 1, size=d.shape))
            for n in d.interior_sites():
                assert neighbor_average(f, n) <= neighbor_average(g, n)
                assert neighbor_average(f, n) <= f.values.max() + 1e-15

    def test_mean_interior_matches_sitewise_average(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            f = Field(d, rng.uniform(-1, 1, size=d.shape))
            g = neighbor_mean_interior(f.values)
            for n in d.interior_sites():
                assert g[tuple(i - 1 for i in n)] == pytest.approx(neighbor_average(f, n), abs=1e-15)

    def test_mean_interior_into_buffer(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            f = random_field(rng, d)
            buf = np.full(d.interior_shape, np.nan)
            out = neighbor_mean_interior(f.values, out=buf)
            assert out is buf
            np.testing.assert_array_equal(buf, neighbor_mean_interior(f.values))
