"""Box lattice domain and fields defined on it.

The domain is the integer box {n in Z^d : 0 <= n_k <= N_k}. Sites with some
coordinate equal to 0 or N_k are boundary; everything else is interior. All
stencil operations use the 2d axis neighbors n +/- e_k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MultiIndex = tuple[int, ...]


@dataclass(frozen=True)
class BoxDomain:
    """The lattice box with extents (N_1, ..., N_d), each N_k >= 2."""

    extents: tuple[int, ...]

    def __post_init__(self) -> None:
        extents = tuple(int(n) for n in self.extents)
        object.__setattr__(self, "extents", extents)
        if len(extents) < 1:
            raise ValueError("domain needs at least one axis")
        if any(n < 2 for n in extents):
            raise ValueError(f"every extent must be >= 2, got {extents}")

    @property
    def dims(self) -> int:
        return len(self.extents)

    @property
    def shape(self) -> tuple[int, ...]:
        """Array shape covering all sites, boundary included."""
        return tuple(n + 1 for n in self.extents)

    @property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.extents)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_interior(self) -> int:
        return int(np.prod(self.interior_shape))

    @property
    def core(self) -> tuple[slice, ...]:
        """Slice tuple selecting the interior of a full-shape array."""
        return tuple(slice(1, -1) for _ in self.extents)

    def contains(self, n: MultiIndex) -> bool:
        return len(n) == self.dims and all(
            0 <= ni <= Ni for ni, Ni in zip(n, self.extents)
        )

    def is_interior(self, n: MultiIndex) -> bool:
        return len(n) == self.dims and all(
            0 < ni < Ni for ni, Ni in zip(n, self.extents)
        )

    def interior_sites(self):
        """Interior multi-indices in lexicographic order.

        This ordering is the canonical one: spectral coefficient vectors and
        file output follow it.
        """
        return itertools.product(*(range(1, n) for n in self.extents))


class Field:
    """Real values on every site of a BoxDomain, boundary included."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: BoxDomain, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != domain.shape:
            raise ValueError(
                f"values shape {values.shape} does not match domain shape {domain.shape}"
            )
        self.domain = domain
        self.values = values

    @classmethod
    def zeros(cls, domain: BoxDomain) -> "Field":
        return cls(domain, np.zeros(domain.shape))

    @classmethod
    def from_interior(cls, domain: BoxDomain, interior) -> "Field":
        """Build a zero-boundary field from interior values."""
        interior = np.asarray(interior, dtype=float)
        if interior.shape != domain.interior_shape:
            raise ValueError(
                f"interior shape {interior.shape} does not match {domain.interior_shape}"
            )
        values = np.zeros(domain.shape)
        values[domain.core] = interior
        return cls(domain, values)

    def interior(self) -> np.ndarray:
        """View of the interior block."""
        return self.values[self.domain.core]

    def copy(self) -> "Field":
        return Field(self.domain, self.values.copy())

    def max(self) -> float:
        return float(self.values.max())

    def boundary_is_zero(self) -> bool:
        probe = self.values.copy()
        probe[self.domain.core] = 0.0
        return bool(np.all(probe == 0.0))

    def __getitem__(self, n: MultiIndex) -> float:
        return float(self.values[tuple(n)])


def neighbor_mean_interior(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Average of the 2d axis neighbors at every interior site.

    `values` is a full-shape array; the result has the interior shape and is
    written to `out` when one is given.
    """
    d = values.ndim
    core = [slice(1, -1)] * d
    if out is None:
        out = np.zeros(tuple(s - 2 for s in values.shape))
    else:
        out.fill(0.0)
    for k in range(d):
        up = list(core)
        up[k] = slice(2, None)
        down = list(core)
        down[k] = slice(0, -2)
        out += values[tuple(up)] + values[tuple(down)]
    out /= 2 * d
    return out


def neighbor_average(f: Field, n: MultiIndex) -> float:
    """Mean of the 2d axis-adjacent values at the interior site n."""
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
