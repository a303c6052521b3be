"""Linear companion dynamics and its sine-mode eigen-decomposition.

The linear step replaces each interior value by its neighbor average. Its
eigenvectors are products of sine modes sin(m_k pi n_k / N_k) over interior
mode indices m, with eigenvalue (1/d) sum_k cos(m_k pi / N_k). Analysis uses
the discrete sine orthogonality sum_{n=1}^{N-1} sin(m pi n/N) sin(m' pi n/N)
= (N/2) delta_{mm'}.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce

import numpy as np

from .domain import BoxDomain, Field, MultiIndex, _span_buffers, _Stencil


def apply_M(h: Field) -> Field:
    """One step of the linear flow: neighbor average at interior sites, zero boundary."""
    return step_linear_direct(h, 1)


def _linear_flow(a: Field, S: int) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """(h^s, its flat span, m_s) for s = 0..S: the linear flow as C-contiguous full-shape
    arrays, each with the span `_span_buffers` hands out and its maximum; checks the data.

    h^s is row s mod k of k kernel buffers, k = max(2, min(16, (S + 1) // 32, 2^15 // sites)):
    a ring of 16 rows pays for its plans only over long horizons on small arrays. h^0 is
    `a.values + 0.0` (-0.0 made +0.0), copied whole; the boundary is checked at every S. The
    steps run each row's `_Stencil` plan into the next row, built at its first use; only
    signed data's means can bring -0.0 back, and only as zeros' signs. The flow fills a block
    of k rows, takes their maxima in one reduce over the block's (k, span) view, and then
    yields them: a yielded array and its span are overwritten k steps on, which the flow
    computes when the next block is asked for.
    """
    if S < 0:
        raise ValueError("S must be >= 0")
    if not a.boundary_is_zero():
        raise ValueError("field has nonzero boundary values")
    k = max(2, min(16, (S + 1) // 32, 2**15 // a.values.size))
    (*rows, _), spans = _span_buffers(a.domain.shape, k + 1)
    *row_spans, pairs = spans  # the spare's span takes the plans' neighbor sums
    # plans fold their faces (_Stencil's `nonnegative`) on finite data >= +0.0 up to max / 4d,
    # whose sums stay finite: a mean exceeds the data's maximum by a few ulps a step at most
    folds = 0 <= a.values.min() and a.values.max() <= np.finfo(float).max / (4 * a.domain.dims)
    # a block's steps write rows 0, 1, ...: the first block's first is the copy of the data,
    # each later block's is the plan of row k - 1 into row 0, built when the second block starts
    steps = [partial(np.add, a.values, 0.0, out=rows[0])]
    steps += [_Stencil(rows[i], rows[i + 1], pairs, folds) for i in range(min(S, k - 1))]
    for start in range(0, S + 1, k):  # the block h^start..h^(start + n - 1)
        n = min(k, S + 1 - start)
        if start == k:
            steps[0] = _Stencil(rows[-1], rows[0], pairs, folds)
        for step in steps[:n]:
            step()
        yield from zip(rows, row_spans, np.maximum.reduce(spans[:n], axis=1).tolist())


def step_linear_direct(a: Field, steps: int) -> Field:
    """h^steps by iterating the averaging step; the reference for the closed form."""
    *_, (h, _, _) = _linear_flow(a, steps)
    return Field(a.domain, h.copy())


def eigenvalue(domain: BoxDomain, mode: MultiIndex) -> float:
    """Averaging-operator eigenvalue of the sine mode; always in (-1, 1)."""
    mode = tuple(int(m) for m in mode)
    if not domain.is_interior(mode):
        raise ValueError(f"mode {mode} is not an interior multi-index")
    return float(mode_table(domain).eigenvalues[tuple(m - 1 for m in mode)])


def _sine_matrix(N: int) -> np.ndarray:
    # S[m, n] = sin((m+1)(n+1) pi / N), symmetric, (N-1) x (N-1)
    idx = np.arange(1, N)
    return np.sin(np.outer(idx, idx) * np.pi / N)


@dataclass(frozen=True)
class ModeTable:
    """Eigenvalues and per-axis sine matrices for one domain."""

    domain: BoxDomain
    eigenvalues: np.ndarray  # interior shape, mode-indexed

    @cached_property
    def sine_matrices(self) -> tuple[np.ndarray, ...]:
        """The per-axis `_sine_matrix`es, built at first use: the probes read only the
        eigenvalues and `mode_field`, and on 1-D N = 400 the matrix is most of the table's cost."""
        return tuple(_sine_matrix(N) for N in self.domain.extents)

    @cached_property
    def tail_start(self) -> int:
        """Smallest s with sum over modes of |c|^s < 1; searched for once per table.

        The rounded sum never increases in s: no rounded power |c|^s does, and
        rounded addition is monotone. So doubling s brackets the first s with
        a sum below 1, and bisection finds it.
        """
        c = np.abs(self.eigenvalues).ravel()

        def below(s: int) -> bool:
            return float(np.sum(c**s)) < 1.0

        lo, hi = 0, 1  # at s=0 the sum is the mode count, never < 1
        while not below(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:  # the sum is >= 1 at lo and < 1 at hi
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if below(mid) else (mid, hi)
        return hi

    def mode_field(self, mode: MultiIndex) -> Field:
        """The product-of-sines eigenvector as a zero-boundary field."""
        mode = tuple(int(m) for m in mode)
        if not self.domain.is_interior(mode):
            raise ValueError(f"mode {mode} is not an interior multi-index")
        # sin at n=0 and n=N is analytically 0 but carries rounding, so each row's ends are cut
        rows = [np.sin(m * np.pi * np.arange(0, N + 1) / N)[1:-1]
                for m, N in zip(mode, self.domain.extents)]
        return Field.from_interior(self.domain, reduce(np.multiply.outer, rows))


@lru_cache(maxsize=None)
def mode_table(domain: BoxDomain) -> ModeTable:
    axis_cos = [np.cos(np.arange(1, N) * np.pi / N) for N in domain.extents]
    eig = sum(np.meshgrid(*axis_cos, indexing="ij")) / domain.dims
    return ModeTable(domain=domain, eigenvalues=np.asarray(eig))


@dataclass(frozen=True)
class SpectralCoeffs:
    """Sine-mode coefficients, one per interior mode, lexicographic order."""

    domain: BoxDomain
    coeffs: np.ndarray  # interior shape

    @property
    def max_abs(self) -> float:
        """Largest |coefficient|; inf if the transform overflowed (an inf or NaN coefficient)."""
        top = float(np.abs(self.coeffs).max())
        return np.inf if np.isnan(top) else top


def _transform(arr: np.ndarray, mats: tuple[np.ndarray, ...]) -> np.ndarray:
    out = arr
    for k, S in enumerate(mats):
        out = np.moveaxis(np.tensordot(S, out, axes=(1, k)), 0, k)
    return out


def analyze(a: Field) -> SpectralCoeffs:
    """Coefficients reproducing the field's interior values exactly.

    Uses orthogonality: B = prod_k (2/N_k) * (sine transform of the interior
    block). Boundary values are ignored.
    """
    table = mode_table(a.domain)
    norm = float(np.prod([2.0 / N for N in a.domain.extents]))
    coeffs = norm * _transform(np.array(a.interior()), table.sine_matrices)
    return SpectralCoeffs(domain=a.domain, coeffs=coeffs)


def synthesize(B: SpectralCoeffs, s: int) -> Field:
    """Closed-form linear solution at step s from the mode coefficients."""
    if s < 0:
        raise ValueError("s must be >= 0")
    table = mode_table(B.domain)
    weighted = B.coeffs * table.eigenvalues**s
    interior = _transform(weighted, table.sine_matrices)
    return Field.from_interior(B.domain, interior)
