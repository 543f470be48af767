"""Weighted Haar systems: child-constant, mean-zero, L2-normalized wavelets.

Each cube with at least two positive-mass children carries dim = (#positive
children - 1) wavelets, built by Gram-Schmidt over child indicators with the
constant function first. Values on zero-mass children are identically zero.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .dyadic import DyadicCube
from .measure import MeshMeasure

_SIGN_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class HaarWavelet:
    cube: DyadicCube
    index: int
    child_values: np.ndarray  # one value per child, lexicographic order
    child_masses: np.ndarray

    @property
    def cube_mass(self) -> float:
        return float(self.child_masses.sum())

    def mesh_values(self) -> np.ndarray:
        out = np.zeros(self.cube.grid.mesh_shape)
        for child, v in zip(self.cube.children(), self.child_values):
            if v != 0.0:
                out[child.slices()] = v
        return out


def normalize_sign(vec: np.ndarray) -> np.ndarray:
    """Fix the overall sign so the leading entry is positive.

    The leading entry is the first one above 1e-13 times the largest
    magnitude, so rounding noise in front of it never decides the sign.
    """
    v = np.asarray(vec, dtype=float)
    lead = np.flatnonzero(np.abs(v) > _SIGN_TOL * np.max(np.abs(v), initial=0.0))
    return -v if lead.size and v[lead[0]] < 0 else v


def build_cube_wavelets(measure: MeshMeasure, cube: DyadicCube) -> list:
    """Wavelets of one cube, by Gram-Schmidt over its positive-mass children."""
    children = cube.children()
    masses = np.array([measure.cube_mass(c) for c in children])
    active = np.flatnonzero(masses > 0)
    dim = active.size - 1
    if dim <= 0:
        return []
    w = masses[active]

    raw = [np.ones(active.size)]
    for j in range(1, active.size):
        e = np.zeros(active.size)
        e[j] = 1.0
        raw.append(e)
    ortho: list = []
    for v in raw:
        u = v.astype(float)
        for _ in range(2):  # re-orthogonalize once; enough at any mass ratio
            for b in ortho:
                u = u - (u * w @ b) * b
        nrm = float(np.sqrt(u * u @ w))
        if nrm <= 0:
            raise ValueError("degenerate child-indicator system")
        ortho.append(u / nrm)

    out = []
    for i, row in enumerate(ortho[1:]):
        values = np.zeros(len(children))
        values[active] = normalize_sign(row)
        out.append(HaarWavelet(cube=cube, index=i, child_values=values, child_masses=masses))
    return out


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random orthogonal matrix via QR with positive R diagonal."""
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def rotate_cube_wavelets(wavelets: list, rotation: np.ndarray) -> list:
    """Replace one cube's wavelets by an orthogonally rotated basis of the
    same span, re-applying the leading-sign convention."""
    if not wavelets:
        return []
    rows = rotation @ np.array([h.child_values for h in wavelets])
    return [HaarWavelet(cube=h.cube, index=i, child_values=normalize_sign(row),
                        child_masses=h.child_masses)
            for i, (h, row) in enumerate(zip(wavelets, rows))]


@dataclass(eq=False)
class HaarSystem:
    """All wavelets on cubes at levels 0..depth-1, ordered (level, coords, index)."""

    measure: MeshMeasure
    depth: int
    wavelets: list
    cube_slots: dict = field(default_factory=dict)  # cube key -> (start, count)
    rotation_seed: int | None = None

    @cached_property
    def values_matrix(self) -> np.ndarray:
        """(n_wavelets, n_cells) dense cell values, C-order cells."""
        out = np.empty((len(self.wavelets), self.measure.grid.n_cells))
        for row, h in zip(out, self.wavelets):
            row[:] = h.mesh_values().ravel()
        return out

    @cached_property
    def weighted_matrix(self) -> np.ndarray:
        return self.values_matrix * self.measure.flat_mass

    @cached_property
    def level_rows(self) -> list:
        """Row slice of each level 0..depth-1 (rows are ordered level first)."""
        levels = [h.cube.level for h in self.wavelets]
        bounds = np.searchsorted(levels, np.arange(self.depth + 1))
        return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]

    @property
    def n_wavelets(self) -> int:
        return len(self.wavelets)

    def gram(self) -> np.ndarray:
        return self.weighted_matrix @ self.values_matrix.T

    def mean_coefficient(self, f: np.ndarray) -> float:
        tot = self.measure.total_mass
        return float(self.measure.integrate(f) / np.sqrt(tot))

    def expand(self, f: np.ndarray) -> np.ndarray:
        return self.weighted_matrix @ np.asarray(f).ravel()

    def reconstruct(self, coeffs: np.ndarray, mean_coeff: float = 0.0) -> np.ndarray:
        flat = self.values_matrix.T @ np.asarray(coeffs)
        flat = flat + mean_coeff / np.sqrt(self.measure.total_mass)
        return flat.reshape(self.measure.grid.mesh_shape)

    def wavelet_labels(self) -> list:
        return [(h.cube.key(), h.index) for h in self.wavelets]


def build_system(measure: MeshMeasure, depth: int,
                 rotation_seed: int | None = None) -> HaarSystem:
    grid = measure.grid
    if depth < 1 or depth > grid.max_level:
        raise ValueError(f"depth must be in [1, {grid.max_level}], got {depth}")
    rng = np.random.default_rng(rotation_seed) if rotation_seed is not None else None
    wavelets: list = []
    slots: dict = {}
    for level in range(depth):
        for cube in grid.cubes_at_level(level):
            ws = build_cube_wavelets(measure, cube)
            if rng is not None and len(ws) >= 2:
                ws = rotate_cube_wavelets(ws, random_rotation(len(ws), rng))
            slots[cube.key()] = (len(wavelets), len(ws))
            wavelets.extend(ws)
    return HaarSystem(measure=measure, depth=depth, wavelets=wavelets,
                      cube_slots=slots, rotation_seed=rotation_seed)


@lru_cache(maxsize=64)
def cached_system(measure: MeshMeasure, depth: int,
                  rotation_seed: int | None = None) -> HaarSystem:
    return build_system(measure, depth, rotation_seed)


def lq_l2_ratio(wavelet: HaarWavelet, q: float) -> float:
    """Ratio of normalized L^q to L^2 averages of a wavelet over its cube."""
    if q <= 0:
        raise ValueError("q must be positive")
    m = wavelet.child_masses
    v = wavelet.child_values
    total = m.sum()
    if total <= 0:
        raise ValueError("wavelet cube carries no mass")
    num = float((np.abs(v) ** q * m).sum() / total) ** (1.0 / q)
    den = float((v * v * m).sum() / total) ** 0.5
    return num / den
