import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latticeheat import (
    BoxDomain,
    Field,
    SpectralCoeffs,
    analyze,
    compute_trace,
    eigenvalue,
    mode_table,
    step_linear_direct,
    synthesize,
)

from latticeheat import spectral
from latticeheat.domain import _stencil
from latticeheat.spectral import _linear_flow, _sine_matrix

from conftest import interior_sites, random_domain, random_field


class TestOneLinearStep:
    def test_zero_field(self):
        d = BoxDomain((4,))
        assert np.all(step_linear_direct(Field(d, np.zeros(d.shape)), 1).values == 0)

    def test_hand_stencil(self):
        d = BoxDomain((4,))
        out = step_linear_direct(Field(d, [0, 1, 0, 0, 0]), 1)
        np.testing.assert_allclose(out.values, [0, 0, 0.5, 0, 0])

    def test_sine_mode_is_eigenvector(self):
        d = BoxDomain((4,))
        h = Field(d, np.sin(np.pi * np.arange(5) / 4))
        h.values[[0, 4]] = 0.0
        out = step_linear_direct(h, 1)
        np.testing.assert_allclose(
            out.values, np.cos(np.pi / 4) * h.values, atol=1e-15
        )

    def test_rejects_nonzero_boundary(self):
        d = BoxDomain((4,))
        with pytest.raises(ValueError):
            step_linear_direct(Field(d, [1, 0, 0, 0, 0]), 1)

    def test_max_norm_nonexpansive(self, rng):
        for _ in range(20):
            d = random_domain(rng)
            h = random_field(rng, d)
            assert np.abs(step_linear_direct(h, 1).values).max() <= np.abs(h.values).max() + 1e-15


class TestEigenvalue:
    def test_minimal_domains(self):
        assert eigenvalue(BoxDomain((2,)), (1,)) == pytest.approx(0.0)
        assert eigenvalue(BoxDomain((2, 2)), (1, 1)) == pytest.approx(0.0)

    def test_1d_value(self):
        assert eigenvalue(BoxDomain((4,)), (1,)) == pytest.approx(
            0.7071067812, abs=1e-10
        )

    def test_rejects_non_interior_mode(self):
        with pytest.raises(ValueError):
            eigenvalue(BoxDomain((4,)), (0,))
        with pytest.raises(ValueError):
            eigenvalue(BoxDomain((4,)), (4,))
        for mode in ((0, 1), (1, 3)):  # the table's sine modes check it too
            with pytest.raises(ValueError, match="not an interior multi-index"):
                mode_table(BoxDomain((4, 3))).mode_field(mode)

    @pytest.mark.parametrize("bad", [1.9, "2", True, np.True_, np.float64(1.0)])
    def test_eigenvalue_modes_are_integers_never_truncated(self, bad):
        # int() read (1.9, 2) as mode (1, 2)
        d = BoxDomain((4, 5))
        with pytest.raises(TypeError, match=re.escape(f"mode must be integers, got {bad!r}")):
            eigenvalue(d, (bad, 2))
        assert eigenvalue(d, (np.int64(1), np.uint8(2))) == eigenvalue(d, (1, 2))

    @pytest.mark.parametrize("bad", [1.5, "2", True, np.True_, np.float64(1.0)])
    def test_mode_field_modes_are_integers_never_truncated(self, bad):
        # int() read (1.5, "2") as mode (1, 2)
        table = mode_table(BoxDomain((4, 5)))
        with pytest.raises(TypeError, match=re.escape(f"mode must be integers, got {bad!r}")):
            table.mode_field((bad, 2))
        want = table.mode_field((1, 2)).values
        assert table.mode_field((np.int64(1), np.uint8(2))).values.tobytes() == want.tobytes()

    def test_strictly_inside_unit_interval(self, rng):
        for _ in range(20):
            d = random_domain(rng, max_extent=8)
            for mode in interior_sites(d):
                assert abs(eigenvalue(d, mode)) < 1

    def test_eigen_relation_all_modes(self, rng):
        for _ in range(10):
            d = random_domain(rng, max_extent=8)
            table = mode_table(d)
            for mode in interior_sites(d):
                h = table.mode_field(mode)
                out = step_linear_direct(h, 1)
                np.testing.assert_allclose(
                    out.values,
                    eigenvalue(d, mode) * h.values,
                    rtol=0,
                    atol=1e-12,
                )


class TestAnalyzeSynthesize:
    def test_single_site_is_identity(self):
        d = BoxDomain((2,))
        B = analyze(Field(d, [0, 0.7, 0]))
        np.testing.assert_allclose(B.coeffs, [0.7], atol=1e-15)

    def test_pure_mode(self):
        d = BoxDomain((4,))
        a = mode_table(d).mode_field((1,))
        B = analyze(a)
        np.testing.assert_allclose(B.coeffs, [1, 0, 0], atol=1e-14)

    def test_matches_dense_solve(self, rng):
        # independent oracle: solve the full sine interpolation system
        d = BoxDomain((4,))
        a = random_field(rng, d)
        n = np.arange(1, 4)
        S = np.sin(np.outer(n, n) * np.pi / 4)
        expected = np.linalg.solve(S, a.interior())
        np.testing.assert_allclose(analyze(a).coeffs, expected, atol=1e-12)

    def test_dense_solve_oracle_random_domains(self, rng):
        for _ in range(10):
            d = random_domain(rng, max_extent=8)
            a = random_field(rng, d)
            # dense system over all (site, mode) pairs, lexicographic
            sites = list(interior_sites(d))
            modes = sites
            M = np.empty((len(sites), len(modes)))
            for i, n in enumerate(sites):
                for j, m in enumerate(modes):
                    M[i, j] = np.prod(
                        [
                            np.sin(mk * np.pi * nk / Nk)
                            for mk, nk, Nk in zip(m, n, d.extents)
                        ]
                    )
            expected = np.linalg.solve(M, a.interior().ravel())
            np.testing.assert_allclose(
                analyze(a).coeffs.ravel(), expected, atol=1e-10
            )

    def test_round_trip_field(self, rng):
        for _ in range(20):
            d = random_domain(rng, max_extent=8)
            a = random_field(rng, d)
            back = synthesize(analyze(a), 0)
            np.testing.assert_allclose(
                back.interior(), a.interior(), rtol=0, atol=1e-10
            )

    def test_round_trip_coeffs(self, rng):
        for _ in range(20):
            d = random_domain(rng, max_extent=8)
            B = SpectralCoeffs(d, rng.uniform(-1, 1, size=d.interior_shape))
            back = analyze(synthesize(B, 0))
            np.testing.assert_allclose(back.coeffs, B.coeffs, rtol=0, atol=1e-10)

    def test_single_eigenvalue_power(self):
        d = BoxDomain((4,))
        B = SpectralCoeffs(d, np.array([1.0, 0.0, 0.0]))
        h3 = synthesize(B, 3)
        expected = np.cos(np.pi / 4) ** 3 * np.sin(np.pi * np.arange(5) / 4)
        expected[[0, 4]] = 0.0
        np.testing.assert_allclose(h3.values, expected, atol=1e-14)

    def test_synthesize_one_step_matches_one_linear_step(self, rng):
        for _ in range(10):
            d = random_domain(rng, max_extent=8)
            B = SpectralCoeffs(d, rng.uniform(-1, 1, size=d.interior_shape))
            np.testing.assert_allclose(
                synthesize(B, 1).values,
                step_linear_direct(synthesize(B, 0), 1).values,
                rtol=0,
                atol=1e-12,
            )


class TestStepLinearDirect:
    def test_zero_steps_is_identity(self, rng):
        d = random_domain(rng)
        a = random_field(rng, d)
        np.testing.assert_array_equal(step_linear_direct(a, 0).values, a.values)

    def test_zero_field(self):
        d = BoxDomain((3, 3))
        assert np.all(step_linear_direct(Field(d, np.zeros(d.shape)), 40).values == 0)

    def test_negative_steps_rejected(self):
        # the flow by steps, and through it the majorant trace, and the closed form
        a = Field.from_interior(BoxDomain((4,)), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="S must be >= 0"):
            step_linear_direct(a, -1)
        with pytest.raises(ValueError, match="S must be >= 0"):
            compute_trace(a, 1.0, -1)
        with pytest.raises(ValueError, match="s must be >= 0"):
            synthesize(analyze(a), -1)

    def test_spectral_vs_direct(self, rng):
        for _ in range(15):
            d = random_domain(rng, max_extent=8)
            a = random_field(rng, d)
            B = analyze(a)
            for s in (1, 5, 25, 50):
                np.testing.assert_allclose(
                    synthesize(B, s).values,
                    step_linear_direct(a, s).values,
                    rtol=0,
                    atol=1e-9,
                )

    def test_decay(self, rng):
        d = random_domain(rng, max_extent=8)
        a = random_field(rng, d)
        table = mode_table(d)
        cmax = np.abs(table.eigenvalues).max()
        h200 = step_linear_direct(a, 200)
        limit = np.abs(a.values).max() * cmax**200 + 1e-12 * d.n_interior
        assert np.abs(h200.values).max() <= limit


def _flow_plans(monkeypatch, a, S):
    """The `nonnegative` each of the flow's plans is built with, and the flow's m_s."""
    told = []

    def recording(values, out, pairs, nonnegative=False):
        told.append(nonnegative)
        return _stencil(values, out, pairs, nonnegative)

    monkeypatch.setattr(spectral, "_stencil", recording)
    with np.errstate(all="ignore"):
        m = [m_s for *_, m_s in _linear_flow(a, S)]
    return told, m


@pytest.mark.parametrize("extents", [(5, 4, 3), (3, 3, 2, 3, 2)])
def test_linear_flow_folds_only_finite_nonnegative_data_below_max_over_4d(monkeypatch, extents):
    d = BoxDomain(extents)
    top = np.finfo(float).max / (4 * d.dims)
    rng = np.random.default_rng(len(extents))
    interior = rng.uniform(0.0, 1.0, d.interior_shape)
    interior.flat[0], interior.flat[1], interior.flat[-1] = 0.0, 1.0, 5e-324  # max: scale
    for scale, folds in [(1.0, True), (top, True), (np.nextafter(top, np.inf), False)]:
        told, _ = _flow_plans(monkeypatch, Field.from_interior(d, interior * scale), 40)
        assert told and all(t == folds for t in told), scale
    for special in (-1.0, -5e-324, np.nan, np.inf):  # signed, NaN or inf data keep the fills
        values = interior.copy()
        values.flat[2] = special
        told, _ = _flow_plans(monkeypatch, Field.from_interior(d, values), 40)
        assert told and not any(told), special


@pytest.mark.parametrize("extents", [(4, 4, 4), (3, 2, 3, 2, 3)])
def test_linear_flow_overflow_stays_inf(monkeypatch, extents):
    # sums of data above max / 4d can overflow to inf; the fill plans keep the faces at +0.0,
    # where a divide by the +inf face weights would give inf / inf = NaN
    d = BoxDomain(extents)
    told, m = _flow_plans(monkeypatch, Field.from_interior(d, np.full(d.interior_shape,
                                                                      np.finfo(float).max)), 40)
    assert not any(told)
    assert m[1:] == [np.inf] * 40


def _product_sine_matrix(N):
    """`_sine_matrix` as the expression it replaced: an integer outer product, then copies."""
    idx = np.arange(1, N)
    return np.sin(np.outer(idx, idx) * np.pi / N)


def _tensordot_transform(arr, mats):
    """`spectral._transform` as the expression it replaced: a tensordot, then a moveaxis, per
    axis."""
    out = arr
    for k, S in enumerate(mats):
        out = np.moveaxis(np.tensordot(S, out, axes=(1, k)), 0, k)
    return out


def _tensordot_analyze(a):
    """`analyze`'s coefficients as the expressions they replaced: the transform of a copy of
    the interior, times np.prod's norm."""
    coeffs = _tensordot_transform(np.array(a.interior()), mode_table(a.domain).sine_matrices)
    coeffs *= float(np.prod([2.0 / N for N in a.domain.extents]))
    return coeffs


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    extents=st.lists(st.integers(2, 7), min_size=1, max_size=4),
    scale=st.sampled_from([1e-300, 1.0, 1e300]),
    specials=st.lists(st.sampled_from([np.inf, -np.inf, np.nan, 1.7e308]), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(extents=[40], scale=1.0, specials=[], seed=0)  # 1-D: a (39, 1) product
@example(extents=[2], scale=1e-300, specials=[], seed=15)  # -0.0 from np.dot, +0.0 from S @ x
@example(extents=[2, 5], scale=1.0, specials=[], seed=1)
@example(extents=[3, 2, 4, 2], scale=1.0, specials=[np.nan], seed=2)
@example(extents=[4, 3], scale=1e300, specials=[1.7e308, 1.7e308], seed=3)  # overflows to inf
def test_transform_keeps_the_tensordot_bits(extents, scale, specials, seed):
    # the same np.dot on the same bytes: every coefficient, synthesized state and non-finite
    # value (the overflowing bound's path) is the tensordot expression's, bit for bit
    rng = np.random.default_rng(seed)
    d = BoxDomain(tuple(extents))
    interior = rng.standard_normal(d.interior_shape) * scale
    interior.flat[rng.integers(0, interior.size, len(specials))] = specials
    a = Field.from_interior(d, interior)
    mats = mode_table(d).sine_matrices
    with np.errstate(all="ignore"):
        assert _same_bits(spectral._transform(a.interior(), mats),
                          _tensordot_transform(np.array(a.interior()), mats))
        B = analyze(a)
        assert _same_bits(B.coeffs, _tensordot_analyze(a))
        for s in (0, 1, 2, 7):
            want = _tensordot_transform(B.coeffs * mode_table(d).eigenvalues**s, mats)
            assert _same_bits(synthesize(B, s).interior(), want), s


def _meshgrid_eigenvalues(domain):
    """`mode_table`'s eigenvalues as the expression they replaced: a sum of meshgrid copies."""
    axis_cos = [np.cos(np.arange(1, N) * np.pi / N) for N in domain.extents]
    return sum(np.meshgrid(*axis_cos, indexing="ij")) / domain.dims


def _traced_peak(build, *args):
    """The largest memory, in bytes, that `build(*args)` held at once, numpy buffers included."""
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTableBuild:
    def test_sine_matrix_keeps_the_product_bits(self):
        # every N to 128, then a stride of 7 to 699 (400 and 699 included): each N runs the
        # same ufuncs, and all 698 extents cost about 6 s
        for N in [*range(2, 129), *range(129, 700, 7), 400, 699]:
            assert _sine_matrix(N).tobytes() == _product_sine_matrix(N).tobytes(), N

    def test_eigenvalues_keep_the_meshgrid_bits(self):
        for d in range(1, 5):
            for extents in itertools.product(range(2, 9), repeat=d):
                domain = BoxDomain(extents)
                eig = mode_table.__wrapped__(domain).eigenvalues  # uncached: a fresh build
                old = _meshgrid_eigenvalues(domain)
                assert eig.shape == old.shape and eig.tobytes() == old.tobytes(), extents

    def test_principal_keeps_the_probe_bits(self):
        # (phi, lam, sum(phi)) are, bit for bit, mode_field((1, ..., 1)) over its maximum, the
        # eigenvalue at index (0, ..., 0) and that phi's sum, on every box the eigenvalue test
        # reads
        for d in range(1, 5):
            for extents in itertools.product(range(2, 9), repeat=d):
                table = mode_table.__wrapped__(BoxDomain(extents))  # uncached: a fresh build
                phi, lam, phi_sum = table.principal
                old = table.mode_field((1,) * d).values
                old = old / old.max()
                assert phi.shape == old.shape and phi.tobytes() == old.tobytes(), extents
                assert lam.hex() == float(table.eigenvalues[(0,) * d]).hex(), extents
                assert phi_sum.hex() == float(old.sum()).hex(), extents

    def test_principal_is_read_only_and_built_once(self):
        table = mode_table(BoxDomain((5, 4, 5)))
        first = table.principal
        assert all(x is y for x, y in zip(table.principal, first))
        with pytest.raises(ValueError, match="read-only"):
            first[0][1, 1, 1] = 1.0
        assert type(first[1]) is float and type(first[2]) is float

    def test_tables_are_read_only(self):
        table = mode_table(BoxDomain((5, 4, 5)))
        with pytest.raises(ValueError, match="read-only"):
            table.eigenvalues[0, 0, 0] = 1.0
        for S in table.sine_matrices:
            with pytest.raises(ValueError, match="read-only"):
                S[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            _sine_matrix(3)[...] *= 2.0

    @pytest.mark.parametrize("extents", [(96, 96), (5, 7, 5), (16, 16, 16)])
    def test_equal_extents_share_one_matrix(self, extents):
        mats = mode_table(BoxDomain(extents)).sine_matrices
        for N, S in zip(extents, mats):
            assert S.shape == (N - 1, N - 1)
            assert all((S is T) == (N == M) for M, T in zip(extents, mats))

    def test_builds_peak_at_one_table(self):
        # the replaced expressions peaked at 2.06 matrices and 4.0 eigenvalue arrays
        assert _traced_peak(_sine_matrix, 400) <= 1.05 * 399**2 * 8
        assert _traced_peak(mode_table.__wrapped__, BoxDomain((64,) * 3)) <= 1.2 * 63**3 * 8
