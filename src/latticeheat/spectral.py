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

from .domain import BoxDomain, Field, MultiIndex, neighbor_mean_interior


def apply_M(h: Field) -> Field:
    """One linear step: neighbor average at interior sites, zero boundary."""
    if not h.boundary_is_zero():
        raise ValueError("field has nonzero boundary values")
    out = Field.zeros(h.domain)
    out.interior()[...] = neighbor_mean_interior(h.values)
    return out


def _linear_flow(a: Field, S: int) -> Iterator[np.ndarray]:
    """h^0..h^S of the linear flow as full-shape arrays; checks the data on entry.

    h^0 is `a.values`; later steps alternate between two zero-boundary
    buffers, so a yielded array is overwritten two steps on. As in `apply_M`,
    the boundary is checked only when a step is taken.
    """
    if S < 0:
        raise ValueError("S must be >= 0")
    if S and not a.boundary_is_zero():
        raise ValueError("field has nonzero boundary values")
    core = a.domain.core
    buffers = (np.zeros(a.domain.shape), np.zeros(a.domain.shape))
    g = np.empty(a.domain.interior_shape)
    h = a.values
    yield h
    for s in range(S):
        spare = buffers[s % 2]
        spare[core] = neighbor_mean_interior(h, out=g)
        h = spare
        yield h


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
        """Smallest s with sum over modes of |c|^s < 1; scanned for once per table."""
        c = np.abs(self.eigenvalues).ravel()
        s = 1  # at s=0 the sum is the mode count, never < 1
        while float(np.sum(c**s)) >= 1.0:
            s += 1
        return s

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
