"""Weighted Haar systems: child-constant, mean-zero, L2-normalized wavelets.

Each cube with at least two positive-mass children a_1 < ... < a_k carries
k - 1 wavelets: Gram-Schmidt over the child indicators with the constant
first, which has a closed form. With M_j = m_{a_1} + sum_{i >= j} m_{a_i},
wavelet j (j = 2..k) is ((m_{a_j} / M_j) 1_{a_1, a_j..a_k} - e_{a_j}) over
sqrt(m_{a_j} (M_j - m_{a_j}) / M_j), up to the sign convention. So a level
is built in one step from its children's masses (cubes x 2**n), with no
per-cube loop; values on zero-mass children are identically zero. The
per-wavelet objects and cube slots of a system are derived from those
level arrays on demand.

The fast transform for these unbalanced wavelets works on the same arrays:
analysis sums f * mu to the level-`depth` cubes and then, level by level,
adds each wavelet's child values times its cube's children's sums, child by
child (`HaarSystem.analyse`, `analyse_cube_sums`); synthesis adds each
level's component, coarse to fine (`synthesise`, `level_components`). The
Haar matrices of `operators` are analyses too, of the operator's cube sums
on both sides, so no code path forms an n_wavelets x n_cells matrix; the
dense cell values and the Gram matrix below remain as an oracle for tests
on small grids.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .dyadic import DyadicCube, block_sums, cube_keys, group_by_cube, refine, ungroup_children
from .measure import MeshMeasure, level_masses

_SIGN_TOL = 1e-13

# sums per batch block of `HaarSystem.analyse_cube_sums`, each block copied
# once with its batch axis last: moving the whole batch of a 2-D L=6
# operator's images at once raised `characteristics`' peak RSS from 400 to
# 480 MB at depth 5, and 2**16 and 2**20 were slower than 2**18 at depth 6
_TRANSFORM_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class HaarWavelet:
    cube: DyadicCube
    index: int
    child_values: np.ndarray  # one value per child, lexicographic order
    child_masses: np.ndarray


def normalize_sign(vec: np.ndarray) -> np.ndarray:
    """Fix the sign of a vector, or of each row of an array, so that its
    leading entry is positive.

    The leading entry is the first one above 1e-13 times the largest
    magnitude, so rounding noise in front of it never decides the sign.
    """
    v = np.asarray(vec, dtype=float)
    if v.shape[-1] == 0:
        return v
    mag = np.abs(v)
    above = mag > _SIGN_TOL * mag.max(axis=-1, keepdims=True)
    lead = np.take_along_axis(v, above.argmax(axis=-1)[..., None], axis=-1)
    return np.where((lead < 0) & above.any(axis=-1, keepdims=True), -v, v)


def _child_masses(measure: MeshMeasure, level: int) -> np.ndarray:
    """(2**(n*level), 2**n): the masses of the children of every level-`level`
    cube, cubes in C order, children in lexicographic offset order."""
    return group_by_cube(level_masses(measure, level + 1), level)


def _level_wavelets(masses: np.ndarray) -> tuple:
    """(cubes, values): the wavelets of cubes whose children have masses
    `masses` (cubes x 2**n), one row each, by cube and then by child a_j,
    as the closed form of the module docstring gives them, sign-normalized.
    cubes holds each row's cube index."""
    active = masses > 0
    count = masses.shape[1]
    first = active.argmax(axis=1)
    tail = np.zeros((masses.shape[0], count + 1))
    tail[:, :count] = np.cumsum(masses[:, ::-1], axis=1)[:, ::-1]
    cubes, child = np.nonzero(active & (np.arange(count) > first[:, None]))
    m = masses[cubes, child]
    rest = masses[cubes, first[cubes]] + tail[cubes, child + 1]  # M_j - m_j
    total = m + rest
    scale = 1.0 / np.sqrt(m * rest / total)
    support = (np.arange(count) == first[cubes, None]) | (
        active[cubes] & (np.arange(count) >= child[:, None]))
    values = np.where(support, (m / total * scale)[:, None], 0.0)
    values[np.arange(cubes.size), child] = -rest / total * scale
    return cubes, normalize_sign(values)


@dataclass(frozen=True, eq=False)
class HaarLevel:
    """The wavelets of the cubes of one level: one row each, ordered by cube
    (C order), then by index within the cube."""

    level: int
    cubes: np.ndarray         # (rows,) C-order index of each row's cube
    child_values: np.ndarray  # (rows, 2**n) value on each child, lexicographic
    child_masses: np.ndarray  # (2**(n*level), 2**n) children's masses of every cube

    @cached_property
    def counts(self) -> np.ndarray:
        """Number of wavelets of every cube of the level, C order."""
        return np.bincount(self.cubes, minlength=self.child_masses.shape[0])

    @cached_property
    def starts(self) -> np.ndarray:
        """Row of every cube's first wavelet, counted from the level's first row."""
        return np.cumsum(self.counts) - self.counts

    @cached_property
    def index(self) -> np.ndarray:
        """Index of each row's wavelet within its cube."""
        return np.arange(self.cubes.size) - self.starts[self.cubes]

    @cached_property
    def padded_values(self) -> np.ndarray:
        """(cubes, 2**n - 1, 2**n): the child values of every cube's
        wavelets, rows past the cube's wavelet count zero."""
        children = self.child_masses.shape[1]
        out = np.zeros((self.counts.size, children - 1, children))
        out[self.cubes, self.index] = self.child_values
        return out


@dataclass(eq=False)
class HaarSystem:
    """All wavelets on cubes at levels 0..depth-1, ordered (level, coords, index).

    `levels` holds them as one HaarLevel per level; everything else is
    derived from those arrays.
    """

    measure: MeshMeasure
    depth: int
    levels: list

    @cached_property
    def level_rows(self) -> list:
        """Row slice of each level 0..depth-1 (rows are ordered level first)."""
        bounds = np.cumsum([0] + [lv.cubes.size for lv in self.levels])
        return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    @property
    def n_wavelets(self) -> int:
        return int(sum(lv.cubes.size for lv in self.levels))

    @cached_property
    def cube_slots(self) -> dict:
        """Cube key -> (first row, wavelet count) for every cube of levels
        0..depth-1, in system order."""
        n = self.measure.grid.dimension
        slots: dict = {}
        for lv, rows in zip(self.levels, self.level_rows):
            keys = cube_keys(lv.level, np.arange(lv.counts.size), n)
            slots.update(zip(keys, zip((rows.start + lv.starts).tolist(),
                                       lv.counts.tolist())))
        return slots

    @cached_property
    def wavelets(self) -> list:
        """One HaarWavelet per row."""
        grid = self.measure.grid
        out = []
        for lv in self.levels:
            for c, i, values in zip(lv.cubes.tolist(), lv.index.tolist(), lv.child_values):
                coords = np.unravel_index(c, (2 ** lv.level,) * grid.dimension)
                out.append(HaarWavelet(cube=grid.cube(lv.level, coords), index=i,
                                       child_values=values, child_masses=lv.child_masses[c]))
        return out

    @cached_property
    def values_matrix(self) -> np.ndarray:
        """(n_wavelets, n_cells) dense cell values, C-order cells, filled
        level by level by one broadcast each: an oracle for small grids (the
        transform methods below form no such matrix)."""
        grid = self.measure.grid
        n = grid.dimension
        out = np.zeros((self.n_wavelets, grid.n_cells))
        for lv, rows in zip(self.levels, self.level_rows):
            width = grid.cells_per_axis >> (lv.level + 1)  # a child's side, in cells
            count = lv.cubes.size
            blocks = np.broadcast_to(
                lv.child_values.reshape((count,) + (2, 1) * n),
                (count,) + (2, width) * n).reshape((count,) + (2 * width,) * n)
            cube_view = out[rows].reshape((count,) + (2 ** lv.level, 2 * width) * n)
            coords = np.unravel_index(lv.cubes, (2 ** lv.level,) * n)
            index = (np.arange(count),) + sum(((c, slice(None)) for c in coords), ())
            cube_view[index] = blocks
        return out

    @cached_property
    def weighted_matrix(self) -> np.ndarray:
        return self.values_matrix * self.measure.flat_mass

    def gram(self) -> np.ndarray:
        """Dense Gram matrix of the wavelets: an oracle for small grids."""
        return self.weighted_matrix @ self.values_matrix.T

    def mean_coefficient(self, f: np.ndarray) -> float:
        tot = self.measure.total_mass
        return float(self.measure.integrate(f) / np.sqrt(tot))

    def analyse(self, funcs: np.ndarray) -> np.ndarray:
        """(k, n_wavelets) coefficients <f, h>_mu of the rows f of funcs
        (k, n_cells): f * mu summed to the level-`depth` cubes, then
        `analyse_cube_sums`. No dense wavelet matrix is formed."""
        grid = self.measure.grid
        funcs = np.asarray(funcs, dtype=float)
        weighted = (funcs * self.measure.flat_mass).reshape((funcs.shape[0],) + grid.mesh_shape)
        return self.analyse_cube_sums(
            block_sums(weighted, grid.dimension, 2 ** (grid.max_level - self.depth)))

    def analyse_cube_sums(self, sums: np.ndarray) -> np.ndarray:
        """(k, n_wavelets) coefficients <f, h>_mu of k functions f from
        their mu-weighted sums over the level-`depth` cubes, sums (k,) +
        (2**depth,)*n: the level loop of the transform.

        Level by level, finest first, each coefficient is its wavelet's
        child values times its cube's children's sums, added child by child
        in a fixed order, and the children's sums, added the same way, are
        the next level's sums: a row takes the same floating-point operations
        in any batch. The k functions go through in blocks of
        _TRANSFORM_BLOCK_ENTRIES sums, each moved to the last axis.
        """
        n = self.measure.grid.dimension
        sums = np.asarray(sums, dtype=float)
        k = sums.shape[0]
        out = np.empty((k, self.n_wavelets))
        step = max(1, _TRANSFORM_BLOCK_ENTRIES // 2 ** (n * self.depth))
        for first in range(0, k, step):
            batch = slice(first, first + step)
            block = np.ascontiguousarray(np.moveaxis(sums[batch], 0, -1))
            for lv, rows in zip(reversed(self.levels), reversed(self.level_rows)):
                children = group_by_cube(block, lv.level, n, start=0)  # (cubes, 2**n, b)
                values = lv.padded_values  # (cubes, 2**n - 1, 2**n)
                coeffs = values[:, :, :1] * children[:, None, 0]
                total = children[:, 0].copy()
                for child in range(1, 2 ** n):
                    coeffs += values[:, :, child:child + 1] * children[:, None, child]
                    total += children[:, child]
                out[batch, rows] = coeffs[lv.cubes, lv.index].T
                block = total.reshape((2 ** lv.level,) * n + (-1,))
        return out

    def level_components(self, coeffs: np.ndarray):
        """Yield, level by level from level 0, the component of the rows of
        coeffs (k, n_wavelets) on that level: the sum over the level's cubes
        Q of D_Q f = sum over Q's wavelets h of c_h h. Each is constant on
        the level's children and is given there, as a (k,) +
        (2**(level+1),)*n array."""
        n = self.measure.grid.dimension
        coeffs = np.asarray(coeffs, dtype=float)
        k = coeffs.shape[0]
        for lv, rows in zip(self.levels, self.level_rows):
            children = np.zeros((k,) + lv.child_masses.shape)
            live = np.flatnonzero(lv.counts)
            if live.size:
                terms = coeffs[:, rows, None] * lv.child_values
                children[:, live] = np.add.reduceat(terms, lv.starts[live], axis=1)
            yield ungroup_children(children, lv.level, n)

    def synthesise(self, coeffs: np.ndarray) -> np.ndarray:
        """(k, n_cells) functions sum_h c_h h of the rows of coeffs
        (k, n_wavelets), the inverse of `analyse` on the span: the level
        components added coarse to fine, the sum so far refined one level
        before each."""
        grid = self.measure.grid
        n = grid.dimension
        k = np.shape(coeffs)[0]
        total = np.zeros((k,) + (1,) * n)
        for component in self.level_components(coeffs):
            total = refine(total, n, 2) + component
        return refine(total, n, 2 ** (grid.max_level - self.depth)).reshape(k, grid.n_cells)

    def expand(self, f: np.ndarray) -> np.ndarray:
        return self.analyse(np.asarray(f, dtype=float).reshape(1, -1))[0]

    def reconstruct(self, coeffs: np.ndarray, mean_coeff: float = 0.0) -> np.ndarray:
        flat = self.synthesise(np.asarray(coeffs, dtype=float)[None])[0]
        flat = flat + mean_coeff / np.sqrt(self.measure.total_mass)
        return flat.reshape(self.measure.grid.mesh_shape)

    def wavelet_labels(self) -> list:
        """(cube key, index within the cube) of every row."""
        n = self.measure.grid.dimension
        out = []
        for lv in self.levels:
            out.extend(zip(cube_keys(lv.level, lv.cubes, n), lv.index.tolist()))
        return out


def build_system(measure: MeshMeasure, depth: int) -> HaarSystem:
    """The system of levels 0..depth-1, each level built in one step."""
    grid = measure.grid
    if depth < 1 or depth > grid.max_level:
        raise ValueError(f"depth must be in [1, {grid.max_level}], got {depth}")
    levels = []
    for level in range(depth):
        masses = _child_masses(measure, level)
        cubes, values = _level_wavelets(masses)
        levels.append(HaarLevel(level=level, cubes=cubes, child_values=values,
                                child_masses=masses))
    return HaarSystem(measure=measure, depth=depth, levels=levels)


@lru_cache(maxsize=64)
def cached_system(measure: MeshMeasure, depth: int) -> HaarSystem:
    return build_system(measure, depth)
