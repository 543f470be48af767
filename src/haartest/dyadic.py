"""Dyadic grid combinatorics on a bounded window.

Cubes are half-open boxes indexed by (level, integer coords). Level k tiles
the window with 2**(n*k) congruent cubes; children split a cube once per
axis. All geometry here is measure-free; masses live in `measure`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class MeshExhaustedError(ValueError):
    """Raised when a construction needs cells below the finest mesh level."""


def _default_max_level(dimension: int) -> int:
    return 10 if dimension == 1 else 5


@dataclass(frozen=True)
class Grid:
    """Bounded dyadic grid: a window cube plus a finite refinement depth.

    The window is [origin + shift, origin + shift + side) per axis; `shift`
    translates the whole grid so that sweeps over translated grids can reuse
    generator parameters given in absolute coordinates.
    """

    dimension: int = 1
    origin: tuple | None = None
    side: float = 1.0
    shift: tuple | None = None
    max_level: int | None = None

    def __post_init__(self):
        n = self.dimension
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        origin = self.origin
        origin = (0.0,) * n if origin is None else tuple(float(v) for v in origin)
        if len(origin) != n:
            raise ValueError(f"origin must have {n} entries, got {len(origin)}")
        shift = self.shift
        shift = (0.0,) * n if shift is None else tuple(float(v) for v in shift)
        if len(shift) != n:
            raise ValueError(f"shift must have {n} entries, got {len(shift)}")
        if not self.side > 0:
            raise ValueError("window side must be positive")
        level = self.max_level if self.max_level is not None else _default_max_level(n)
        if level < 1:
            raise ValueError("max_level must be >= 1")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "side", float(self.side))
        object.__setattr__(self, "max_level", int(level))

    @cached_property
    def window_lower(self) -> np.ndarray:
        return np.array(self.origin) + np.array(self.shift)

    @cached_property
    def window_upper(self) -> np.ndarray:
        return self.window_lower + self.side

    @property
    def cells_per_axis(self) -> int:
        return 2 ** self.max_level

    @cached_property
    def mesh_shape(self) -> tuple:
        return (self.cells_per_axis,) * self.dimension

    @property
    def n_cells(self) -> int:
        return self.cells_per_axis ** self.dimension

    @property
    def cell_side(self) -> float:
        return self.side / self.cells_per_axis

    @property
    def cell_diameter(self) -> float:
        return self.cell_side * np.sqrt(self.dimension)

    @cached_property
    def cell_volume(self) -> float:
        return self.cell_side ** self.dimension

    @cached_property
    def flat_centers(self) -> np.ndarray:
        """Cell centers as an (n_cells, dimension) array in C order."""
        axes = [
            self.window_lower[i] + (np.arange(self.cells_per_axis) + 0.5) * self.cell_side
            for i in range(self.dimension)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def cube(self, level: int, coords) -> "DyadicCube":
        return DyadicCube(self, level, tuple(int(c) for c in coords))

    def cubes_at_level(self, level: int):
        """All level-`level` cubes in lexicographic coordinate order."""
        if level < 0 or level > self.max_level:
            raise ValueError(f"level {level} outside [0, {self.max_level}]")
        for coords in itertools.product(range(2 ** level), repeat=self.dimension):
            yield DyadicCube(self, level, coords)

    def axis_fractions(self, lo: float, hi: float, axis: int = 0) -> np.ndarray:
        """Per-cell overlap fraction of [lo, hi) along one axis."""
        base = self.window_lower[axis]
        edges = base + np.arange(self.cells_per_axis + 1) * self.cell_side
        left = np.maximum(edges[:-1], lo)
        right = np.minimum(edges[1:], hi)
        return np.clip((right - left) / self.cell_side, 0.0, 1.0)

    def box_fractions(self, lower, upper) -> tuple[np.ndarray, bool]:
        """Mesh array of per-cell coverage fractions of an axis-parallel box.

        Returns (fractions, clipped); `clipped` is True when the box extends
        beyond the window, in which case only the in-window part is counted.
        """
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        clipped = bool(
            np.any(lower < self.window_lower - 1e-12 * self.side)
            or np.any(upper > self.window_upper + 1e-12 * self.side)
        )
        per_axis = [
            self.axis_fractions(lower[i], upper[i], axis=i) for i in range(self.dimension)
        ]
        frac = per_axis[0]
        for v in per_axis[1:]:
            frac = np.multiply.outer(frac, v)
        return frac, clipped


@dataclass(frozen=True)
class DyadicCube:
    grid: Grid
    level: int
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(int(c) for c in self.coords))
        if not 0 <= self.level <= self.grid.max_level:
            raise ValueError(f"level {self.level} outside [0, {self.grid.max_level}]")
        if len(self.coords) != self.grid.dimension:
            raise ValueError("coords/dimension mismatch")
        top = 2 ** self.level
        if any(not 0 <= c < top for c in self.coords):
            raise ValueError(f"coords {self.coords} outside [0, {top}) at level {self.level}")

    # -- geometry ----------------------------------------------------------
    @property
    def side(self) -> float:
        return self.grid.side / 2 ** self.level

    @property
    def volume(self) -> float:
        return self.side ** self.grid.dimension

    @property
    def lower(self) -> np.ndarray:
        return self.grid.window_lower + np.array(self.coords) * self.side

    @property
    def upper(self) -> np.ndarray:
        return self.lower + self.side

    @property
    def center(self) -> np.ndarray:
        return self.lower + 0.5 * self.side

    def triple_box(self) -> tuple[np.ndarray, np.ndarray]:
        """The concentric dilate 3Q as (lower, upper), not clipped."""
        return self.lower - self.side, self.upper + self.side

    # -- tree structure ----------------------------------------------------
    def parent(self) -> "DyadicCube":
        if self.level == 0:
            raise ValueError("window cube has no parent")
        return DyadicCube(self.grid, self.level - 1, tuple(c // 2 for c in self.coords))

    def children(self) -> list:
        """The 2**n children in lexicographic offset order."""
        if self.level >= self.grid.max_level:
            raise MeshExhaustedError(
                f"mesh exhausted: cube at level {self.level} has no children "
                f"(max_level={self.grid.max_level})"
            )
        out = []
        for off in itertools.product((0, 1), repeat=self.grid.dimension):
            out.append(
                DyadicCube(
                    self.grid,
                    self.level + 1,
                    tuple(2 * c + o for c, o in zip(self.coords, off)),
                )
            )
        return out

    def grandchildren(self, m: int, cumulative: bool = False) -> list:
        """Descendants m levels down; with cumulative=True, levels 1..m."""
        if m < 1:
            raise ValueError("m must be >= 1")
        if self.level + m > self.grid.max_level:
            raise MeshExhaustedError(
                f"mesh exhausted: level {self.level + m} exceeds max_level "
                f"{self.grid.max_level}"
            )
        out = []
        frontier = [self]
        for _ in range(m):
            frontier = [c for q in frontier for c in q.children()]
            if cumulative:
                out.extend(frontier)
        return out if cumulative else frontier

    def contains(self, other: "DyadicCube") -> bool:
        if other.level < self.level:
            return False
        shiftv = other.level - self.level
        return all(oc >> shiftv == c for oc, c in zip(other.coords, self.coords))

    # -- mesh access -------------------------------------------------------
    def slices(self) -> tuple:
        w = 2 ** (self.grid.max_level - self.level)
        return tuple(slice(c * w, (c + 1) * w) for c in self.coords)

    def indicator(self) -> np.ndarray:
        out = np.zeros(self.grid.mesh_shape)
        out[self.slices()] = 1.0
        return out

    # -- serialization -----------------------------------------------------
    def key(self) -> str:
        return f"{self.level}:{','.join(str(c) for c in self.coords)}"

    @staticmethod
    def from_key(grid: Grid, key: str) -> "DyadicCube":
        level_str, _, coord_str = key.partition(":")
        return DyadicCube(grid, int(level_str), tuple(int(c) for c in coord_str.split(",")))


def cube_keys(levels, cubes, dimension: int) -> list:
    """`DyadicCube.key()` of the cubes of levels `levels` (one level, or one
    per cube) with C-order indices `cubes`: the array form of the key."""
    levels, cubes = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64) for a in (levels, cubes)))
    coords = [(cubes >> levels * (dimension - 1 - axis)) & ((1 << levels) - 1)
              for axis in range(dimension)]
    return [f"{level}:" + ",".join(map(str, c))
            for level, *c in zip(levels.tolist(), *(axis.tolist() for axis in coords))]


def block_sums(values: np.ndarray, dimension: int, factor: int,
               start: int | None = None) -> np.ndarray:
    """Sums over blocks of factor**dimension entries of the `dimension` mesh
    axes from axis `start` on (by default the trailing ones): the dyadic
    ancestors log2(factor) levels up.

    Each axis is halved by adding its even and odd entries, log2(factor)
    times: pairwise adds of slabs, much faster than reducing the strided
    axes of a reshape in 2-D.
    """
    start = values.ndim - dimension if start is None else start
    for axis in range(start, start + dimension):
        step = factor
        while step > 1:
            shape = values.shape[:axis] + (values.shape[axis] // 2, 2) + values.shape[axis + 1:]
            pairs = values.reshape(shape)
            head = (slice(None),) * (axis + 1)
            values = pairs[head + (0,)] + pairs[head + (1,)]
            step //= 2
    return values


def group_by_cube(mesh: np.ndarray, level: int, dimension: int | None = None,
                  start: int | None = None) -> np.ndarray:
    """(..., cubes, entries per cube, ...): `dimension` consecutive axes of
    mesh from axis `start`, a square n-D mesh array, regrouped by the
    level-`level` cubes of its grid, cubes in C order and each cube's
    entries in C order (for children: lexicographic offset order).
    dimension defaults to all axes and start to the trailing ones; the
    other axes are kept."""
    n = mesh.ndim if dimension is None else dimension
    start = mesh.ndim - n if start is None else start
    lead, trail = mesh.shape[:start], mesh.shape[start + n:]
    k = len(lead)
    side = 2 ** level
    width = mesh.shape[start] // side
    split = mesh.reshape(lead + sum(((side, width) for _ in range(n)), ()) + trail)
    order = (list(range(k)) + [k + 2 * a for a in range(n)] + [k + 2 * a + 1 for a in range(n)]
             + list(range(k + 2 * n, split.ndim)))
    return split.transpose(order).reshape(lead + (side ** n, width ** n) + trail)


def ungroup_children(grouped: np.ndarray, level: int, dimension: int) -> np.ndarray:
    """Inverse of `group_by_cube` for children: (..., 2**(n*level), 2**n)
    back to the (...,) + (2**(level+1),)*n array on the level-(level+1) cubes."""
    n = dimension
    lead = grouped.shape[:-2]
    k = len(lead)
    side = 2 ** level
    split = grouped.reshape(lead + (side,) * n + (2,) * n)
    order = list(range(k)) + [k + a + s for a in range(n) for s in (0, n)]
    return split.transpose(order).reshape(lead + (2 * side,) * n)


def refine(values: np.ndarray, dimension: int, factor: int) -> np.ndarray:
    """Each entry of the trailing `dimension` axes repeated factor times along
    each of them: values on dyadic cubes carried to their descendants
    log2(factor) levels down (the broadcast that `block_sums` undoes up to
    the factor**dimension)."""
    if factor == 1:
        return values
    lead = values.shape[:values.ndim - dimension]
    mesh = values.shape[values.ndim - dimension:]
    column = values.reshape(lead + sum(((s, 1) for s in mesh), ()))
    wide = np.broadcast_to(column, lead + sum(((s, factor) for s in mesh), ()))
    return wide.reshape(lead + tuple(s * factor for s in mesh))


def box_distance(lo1, hi1, lo2, hi2) -> float:
    """Euclidean distance between the closures of two boxes."""
    lo1, hi1, lo2, hi2 = map(np.asarray, (lo1, hi1, lo2, hi2))
    gap = np.maximum(0.0, np.maximum(lo2 - hi1, lo1 - hi2))
    return float(np.linalg.norm(gap))
