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
from functools import cached_property, lru_cache

import numpy as np

from .domain import BoxDomain, Field, MultiIndex, _span, _span_buffers, _Stencil


def apply_M(h: Field) -> Field:
    """One step of the linear flow: neighbor average at interior sites, zero boundary."""
    return step_linear_direct(h, 1)


def _linear_flow(a: Field, S: int) -> Iterator[np.ndarray]:
    """h^0..h^S of the linear flow as C-contiguous full-shape arrays; checks the data on entry.

    Each h^s is one of two kernel buffers. h^0 is `a.values + 0.0` (-0.0 made
    +0.0), copied whole, so at S = 0 a nonzero boundary is kept; the boundary
    is checked only when a step is taken. The steps run the `_Stencil` plans,
    built once, of the two buffers into each other; only signed data's means
    can bring -0.0 back, and only as zeros' signs. A yielded array is
    overwritten two steps on.
    """
    if S < 0:
        raise ValueError("S must be >= 0")
    if S and not a.boundary_is_zero():
        raise ValueError("field has nonzero boundary values")
    *buffers, spare = _span_buffers(a.domain.shape, 3)
    pairs = spare.ravel()[_span(spare)]
    plans = (_Stencil(buffers[1], buffers[0], pairs), _Stencil(buffers[0], buffers[1], pairs))
    np.add(a.values, 0.0, out=buffers[0])
    yield buffers[0]
    for s in range(1, S + 1):  # step s writes buffers[s % 2]
        plans[s % 2]()
        yield buffers[s % 2]


def step_linear_direct(a: Field, steps: int) -> Field:
    """h^steps by iterating the averaging step; the reference for the closed form."""
    *_, h = _linear_flow(a, steps)
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
    sine_matrices: tuple[np.ndarray, ...]

    @classmethod
    def for_domain(cls, domain: BoxDomain) -> "ModeTable":
        mats = tuple(_sine_matrix(N) for N in domain.extents)
        axis_cos = [
            np.cos(np.arange(1, N) * np.pi / N) for N in domain.extents
        ]
        grids = np.meshgrid(*axis_cos, indexing="ij")
        eig = sum(grids) / domain.dims
        return cls(domain=domain, eigenvalues=np.asarray(eig), sine_matrices=mats)

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
        axes = [
            np.sin(m * np.pi * np.arange(0, N + 1) / N)
            for m, N in zip(mode, self.domain.extents)
        ]
        vals = axes[0]
        for ax in axes[1:]:
            vals = np.multiply.outer(vals, ax)
        # sin at n=0 and n=N is analytically 0 but carries rounding
        interior = vals.reshape(self.domain.shape)[self.domain.core]
        return Field.from_interior(self.domain, interior)


@lru_cache(maxsize=None)
def mode_table(domain: BoxDomain) -> ModeTable:
    return ModeTable.for_domain(domain)


@dataclass(frozen=True)
class SpectralCoeffs:
    """Sine-mode coefficients, one per interior mode, lexicographic order."""

    domain: BoxDomain
    coeffs: np.ndarray  # interior shape

    def flat(self) -> np.ndarray:
        return self.coeffs.ravel()  # C order = lexicographic

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
