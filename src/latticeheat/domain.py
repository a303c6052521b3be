"""Box lattice domain and fields defined on it.

The domain is the integer box {n in Z^d : 0 <= n_k <= N_k}. Sites with some
coordinate equal to 0 or N_k are boundary; everything else is interior. All
stencil operations use the 2d axis neighbors n +/- e_k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

MultiIndex = tuple[int, ...]


def _index(n, what: str) -> int:
    """n by `operator.index`, which refuses the floats and strings `int()` truncates or parses;
    a bool is refused too."""
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise TypeError(f"{what} must be integers, got {n!r}")
    return operator.index(n)


@dataclass(frozen=True)
class BoxDomain:
    """The lattice box with extents (N_1, ..., N_d), each N_k >= 2."""

    extents: tuple[int, ...]

    def __post_init__(self) -> None:
        extents = tuple(_index(n, "extents") for n in self.extents)
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
        return math.prod(self.shape)

    @property
    def n_interior(self) -> int:
        return math.prod(self.interior_shape)

    @property
    def core(self) -> tuple[slice, ...]:
        """Sites 1..N_k - 1 per axis: a full-shape array's interior, or an orthant's in its box."""
        return tuple(slice(1, n) for n in self.extents)

    def is_interior(self, n: MultiIndex) -> bool:
        return len(n) == self.dims and all(
            0 < ni < Ni for ni, Ni in zip(n, self.extents)
        )


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

    def boundary_is_zero(self) -> bool:
        probe = self.values.copy()
        probe[self.domain.core] = 0.0
        return bool(np.all(probe == 0.0))


def _span(values: np.ndarray) -> slice:
    """The flat span of a C-contiguous full-shape array.

    It runs from site (1, ..., 1) to site (N_1 - 1, ..., N_d - 1) and holds
    every interior site; its other sites are boundary sites with some
    coordinate after the first at 0 or N_k. Sites outside it are boundary.
    """
    lo = sum(values.strides) // values.itemsize
    return slice(lo, values.size - lo)


def _span_buffers(shape: tuple[int, ...], count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` C-contiguous float arrays of a full `shape` in one zeroed allocation, as a
    (count, *shape) view and as a (count, span) view of their `_span`s; each array is padded
    to whole 64-byte cache lines, and each span starts on one, wherever the block lies."""
    n = math.prod(shape)
    size = -(-n // 8) * 8  # each array's doubles, a whole number of cache lines
    block = np.zeros(count * size + 7)
    lo = _span(block[:n].reshape(shape)).start
    start = -(block.ctypes.data // 8 + lo) % 8  # doubles are 8-byte aligned
    rows = block[start:start + count * size].reshape(count, size)
    return rows[:, :n].reshape(count, *shape), rows[:, lo:n - lo]


# Mirror-symmetric data on fewer sites (boundary included) runs on the whole box: timed with
# `find_threshold` on constant data (alpha 2, S = 100), the orthant's ghost copies, fills and
# calls cost more than the sites they save on 16^2, 8^3 and 1-D 400 (+7 to +18 %), were even
# on 24^2, 10^3 and 1-D 1000, and won from 32^2 (1,089 sites, -22 %) and 12^3 on.
_ORTHANT_MIN_SITES = 1000


def _mirror_symmetric(values: np.ndarray) -> bool:
    """Whether a full-shape array has at least `_ORTHANT_MIN_SITES` sites and equals its mirror
    image n_k -> N_k - n_k along every axis, one `==` per axis until one differs; so -0.0 and
    +0.0, which the kernels' + 0.0 makes one, are one. A search tests its profile once."""
    return values.size >= _ORTHANT_MIN_SITES and all(
        np.array_equal(values, np.flip(values, k)) for k in range(values.ndim))


def _orthant(domain: BoxDomain) -> BoxDomain:
    """The box that holds one orthant of mirror-symmetric data on `domain`, at the same indices:
    its interior is sites 1..N_k//2 along each axis k, and its last plane, N_k//2 + 1, is a ghost
    of the mirror plane N_k - N_k//2 - 1 (`_ghost_planes`), where N_k = 2 gives the boundary."""
    return BoxDomain(tuple(n // 2 + 1 for n in domain.extents))


def _ghost_planes(values: np.ndarray,
                  extents: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per axis of an array of `_orthant(BoxDomain(extents))`'s shape, its ghost plane and the
    mirror plane whose values it holds, as whole-plane views (of one site in 1-D)."""
    return tuple(tuple(values[(slice(None),) * k + (slice(i, i + 1),)]
                       for i in (n // 2 + 1, n - n // 2 - 1)) for k, n in enumerate(extents))


def _mirror_multiplicity(extents: tuple[int, ...]) -> np.ndarray:
    """How many sites of the box of `extents` each interior site of its `_orthant` stands for:
    a factor 2 per axis but on the plane N_k/2 of an even N_k, which is its own mirror image."""
    factors = [np.where(2 * np.arange(1, n // 2 + 1) == n, 1.0, 2.0) for n in extents]
    return reduce(np.multiply.outer, factors)


def _faces(values: np.ndarray) -> list[np.ndarray]:
    """The faces x_k = 0 and x_k = N_k of a full-shape array, k = 2..d, each pair one view on
    x_1 = 1..N_1 - 1: they hold the `_span`'s non-interior sites; 1-D has none."""
    return [values[(slice(1, -1),) + (slice(None),) * (k - 1) + (slice(None, None, n - 1),)]
            for k, n in enumerate(values.shape[1:], 1)]


@lru_cache(maxsize=None)
def _face_weights(shape: tuple[int, ...]) -> np.ndarray:
    """The read-only `_span` of a full `shape`: 2d at interior sites, +inf at the others."""
    (weights,), (span,) = _span_buffers(shape, 1)
    weights.fill(np.inf)
    weights[(slice(1, -1),) * len(shape)] = 2 * len(shape)
    span.flags.writeable = False
    return span


def _stencil(values: np.ndarray, out: np.ndarray, pairs: np.ndarray, nonnegative: bool = False,
             mirror: tuple[int, ...] = ()) -> tuple:
    """The mean of the 2d axis neighbors at each interior site of `values`, into `out`, both
    C-contiguous and full-shape, planned once as (ufunc, args) pairs on views built once,
    which callers splice into their own flat runs; each run reads `values` as it then is.
    The first axis's neighbor sums go into `out`'s span (`_span`), each later axis's onto them
    through `pairs` (neither may overlap `values`): one pass for the first axis, two for each
    other; the faces normal to axes 2..d, where the span holds wrapped sums, are set to +0.0.
    On `values` without -0.0 the means are those of sums from +0.0, bit for bit, as a rounded
    sum is -0.0 only if both addends are; the kernels add 0.0 to their data to that end.
    If every run's `values` is finite and >= +0.0 with a +0.0 boundary (`nonnegative`), a plan
    that divides by 2d has no face fills and divides by `_face_weights`, +inf on the faces: a
    face site's wrapped sum is one source value v >= +0.0 at most, and v / inf is +0.0.
    With `mirror`, the extents of a box, `values` is the `_orthant` of mirror-symmetric data on
    it: the first calls copy the mirror planes into the ghost planes (`_ghost_planes`), so each
    interior site adds the doubles of the whole box's site in its order. Such a plan fills its
    faces, as a ghost face's wrapped sum holds more than one source value, which could overflow.
    """
    span, flat, size = _span(values), values.ravel(), values.itemsize
    lo, hi, acc = span.start, span.stop, out.ravel()[span]
    # 1/2d is exact for d = 1, 2, 4, so x * (1/2d) rounds the real x/2d as x / 2d does
    two_d = 2 * values.ndim
    fold = nonnegative and not mirror and two_d & (two_d - 1) != 0
    scale_by, scale = ((np.multiply, np.array(1.0 / two_d)) if two_d & (two_d - 1) == 0 else
                       (np.divide, _face_weights(values.shape) if fold else np.array(float(two_d))))
    # outputs by position and scalars as 0-d arrays, as either costs numpy less per call
    calls = [(np.copyto, planes) for planes in _ghost_planes(values, mirror)] if mirror else []
    for axis, stride in enumerate(values.strides):
        k = stride // size
        plus, minus = flat[lo + k:hi + k], flat[lo - k:hi - k]
        calls += ([(np.add, (plus, minus, acc))] if axis == 0 else
                  [(np.add, (plus, minus, pairs)), (np.add, (acc, pairs, acc))])
    calls.append((scale_by, (acc, scale, acc)))
    if not fold:
        calls += [(face.fill, (0.0,)) for face in _faces(out)]
    return tuple(calls)
