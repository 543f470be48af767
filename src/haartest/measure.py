"""Measures carried on the mesh cells of a dyadic grid.

A measure is a nonnegative mass per finest-level cell, uniform within each
cell. Dyadic cube masses are exact cell sums; general boxes get the
volume-fraction share of boundary cells.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import DyadicCube, Grid, _first_max, block_sums, ungroup_children


class DegenerateMeasureError(ValueError):
    """Raised when an operation needs mass that is identically zero."""


@dataclass(frozen=True, eq=False)
class MeshMeasure:
    grid: Grid
    cell_mass: np.ndarray
    label: str = "custom"

    def __post_init__(self):
        mass = np.asarray(self.cell_mass, dtype=float)
        if mass.shape != self.grid.mesh_shape:
            raise ValueError(
                f"cell_mass shape {mass.shape} does not match mesh {self.grid.mesh_shape}"
            )
        if np.any(mass < 0) or not np.all(np.isfinite(mass)):
            raise ValueError("cell masses must be finite and nonnegative")
        mass = mass.copy()
        mass.flags.writeable = False
        object.__setattr__(self, "cell_mass", mass)

    @cached_property
    def total_mass(self) -> float:
        return float(self.cell_mass.sum())

    @cached_property
    def flat_mass(self) -> np.ndarray:
        return self.cell_mass.ravel()

    def cube_mass(self, cube: DyadicCube) -> float:
        return float(self.cell_mass[cube.slices()].sum())

    def box_mass(self, lower, upper) -> float:
        """Mass of an axis-parallel box, clipped to the window."""
        frac, _ = self.grid.box_fractions(lower, upper)
        return float((self.cell_mass * frac).sum())

    def integrate(self, f: np.ndarray) -> float:
        """Integral of a mesh function against this measure."""
        return float((np.asarray(f) * self.cell_mass).sum())


@dataclass(frozen=True)
class DoublingReport:
    constant: float
    witness_cube: str
    depth: int
    clipped_at_witness: bool


def level_masses(measure: MeshMeasure, level: int) -> np.ndarray:
    """Masses of every dyadic cube at one level, indexed by coordinates."""
    grid = measure.grid
    if not 0 <= level <= grid.max_level:
        raise ValueError(f"level {level} outside [0, {grid.max_level}]")
    return block_sums(measure.cell_mass, grid.dimension, 2 ** (grid.max_level - level))


def _collar_sums(masses: np.ndarray) -> np.ndarray:
    """For level-(l+1) masses, the mass of 2Q clipped to the window for every
    level-l cube Q: per axis, the 4 level-(l+1) cubes from one before Q to
    one after it, cubes outside the window counting 0."""
    out = np.pad(masses, 1)
    for axis in range(masses.ndim):
        moved = np.moveaxis(out, axis, 0)
        span = len(moved) - 2  # twice the number of level-l cubes on the axis
        out = np.moveaxis(sum(moved[k:k + span:2] for k in range(4)), 0, axis)
    return out


def doubling_constant(measure: MeshMeasure, depth: int) -> DoublingReport:
    """Finite doubling scan: sup over dyadic cubes at levels 1..depth of
    |2Q (cap) window|_mu / |Q|_mu, skipping zero-mass cubes.

    2Q is Q and a collar half its side wide, so |2Q (cap) window|_mu is a sum
    of at most 4**n level-(l+1) cube masses, one array operation per level
    (depth <= max_level - 1 keeps 2Q on that grid). Cubes are scanned by
    level, then C order, and the witness is the first largest ratio
    (`_first_max`); 2Q is clipped exactly when Q touches the window's boundary.
    """
    grid = measure.grid
    if depth > grid.max_level - 1:
        raise ValueError(f"depth {depth} exceeds max_level-1 = {grid.max_level - 1}")
    if measure.total_mass <= 0:
        raise DegenerateMeasureError("measure has zero total mass")
    masses = [level_masses(measure, level) for level in range(1, depth + 2)]
    # -1 marks a zero-mass cube, absent from the scan
    ratios = [np.divide(_collar_sums(finer), mass, out=np.full(mass.shape, -1.0), where=mass > 0)
              for mass, finer in zip(masses, masses[1:])]
    best, part, index = _first_max(ratios)
    if part is None:
        raise DegenerateMeasureError("no dyadic cube with positive mass in scan range")
    witness = grid.cube(part + 1, index)
    top = 2 ** witness.level - 1
    clipped = any(c in (0, top) for c in witness.coords)
    return DoublingReport(
        constant=best, witness_cube=witness.key(), depth=depth, clipped_at_witness=clipped
    )


# -- generators -------------------------------------------------------------

def lebesgue(grid: Grid) -> MeshMeasure:
    cells = np.full(grid.mesh_shape, grid.cell_volume)
    return MeshMeasure(grid, cells, label="lebesgue")


def _power_antideriv(u: np.ndarray, a: float) -> np.ndarray:
    # antiderivative of |x|^a on the line, vanishing at 0
    return np.sign(u) * np.abs(u) ** (a + 1.0) / (a + 1.0)


def _power_cell_integrals_1d(edges: np.ndarray, a: float, center: float) -> np.ndarray:
    vals = _power_antideriv(edges - center, a)
    return np.diff(vals)


def _gauss_box(f, lo: np.ndarray, hi: np.ndarray, order: int = 8) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    n = lo.size
    axes_pts = [0.5 * (hi[i] - lo[i]) * nodes + 0.5 * (hi[i] + lo[i]) for i in range(n)]
    axes_w = [0.5 * (hi[i] - lo[i]) * weights for i in range(n)]
    grids = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    w = axes_w[0]
    for v in axes_w[1:]:
        w = np.multiply.outer(w, v)
    return float((f(pts) * w.ravel()).sum())


def _power_cell_nd(lo: np.ndarray, hi: np.ndarray, a: float, center: np.ndarray,
                   max_depth: int = 40) -> float:
    """Integral of |x-center|^a over a box; refines dyadically toward the
    singular point when the box contains or touches it."""
    side = float(np.max(hi - lo))
    dist = np.linalg.norm(np.maximum(0.0, np.maximum(lo - center, center - hi)))
    if dist >= 0.5 * side or max_depth == 0:
        if max_depth == 0:
            # remaining box is tiny; |x-c|^a is integrable for a > -n
            r = np.linalg.norm(hi - lo)
            return float(np.prod(hi - lo)) * (r ** a if a < 0 else np.linalg.norm(
                np.maximum(np.abs(lo - center), np.abs(hi - center))) ** a)
        return _gauss_box(lambda p: np.linalg.norm(p - center, axis=-1) ** a, lo, hi)
    total = 0.0
    mids = 0.5 * (lo + hi)
    n = lo.size
    for k in range(2 ** n):
        offs = [(k >> i) & 1 for i in range(n)]
        clo = np.where(offs, mids, lo)
        chi = np.where(offs, hi, mids)
        total += _power_cell_nd(clo, chi, a, center, max_depth - 1)
    return total


def power_weight(grid: Grid, exponent: float, center=None) -> MeshMeasure:
    """Weight |x - center|^exponent integrated exactly per cell (1-D) or by
    adaptive quadrature (n >= 2).

    Needs exponent > -dimension for local integrability; the two-weight
    characteristics stay finite on the narrower range |exponent| < dimension.
    """
    n = grid.dimension
    if not exponent > -n:
        raise ValueError(f"power exponent must satisfy a > {-n} for integrability, got {exponent}")
    if center is None:
        center = tuple(grid.window_lower)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if n == 1:
        edges = grid.window_lower[0] + np.arange(grid.cells_per_axis + 1) * grid.cell_side
        cells = _power_cell_integrals_1d(edges, exponent, center[0])
        return MeshMeasure(grid, cells, label=f"power({exponent})")
    cells = np.zeros(grid.mesh_shape)
    centers = grid.flat_centers
    half = 0.5 * grid.cell_side
    flat = cells.reshape(-1)
    for i in range(grid.n_cells):
        lo = centers[i] - half
        hi = centers[i] + half
        flat[i] = _power_cell_nd(lo, hi, exponent, center)
    return MeshMeasure(grid, flat.reshape(grid.mesh_shape), label=f"power({exponent})")


def random_dyadic_doubling(grid: Grid, ratio_bound: float, seed: int) -> MeshMeasure:
    """Random measure splitting each parent across its 2**n children with
    fractions in [1/(2**n * r), r/2**n], summing to 1 at every split.

    Fractions are (1 + e_i)/2**n with e_i centered uniform draws; centering
    keeps the sum exact and |e_i| <= min(1 - 1/r, r - 1) keeps the range.
    """
    if ratio_bound < 1:
        raise ValueError("ratio_bound must be >= 1")
    rng = np.random.default_rng(seed)
    n = grid.dimension
    nc = 2 ** n
    amp = 0.5 * min(1.0 - 1.0 / ratio_bound, ratio_bound - 1.0)
    mass = np.ones((1,) * n)
    for level in range(grid.max_level):
        eps = rng.uniform(-amp, amp, size=mass.shape + (nc,))
        eps -= eps.mean(axis=-1, keepdims=True)
        fracs = (1.0 + eps) / nc
        # last axis enumerates child offsets lexicographically, matching children()
        mass = ungroup_children((mass[..., None] * fracs).reshape(-1, nc), level, n)
    return MeshMeasure(grid, mass, label=f"doubling(r={ratio_bound},seed={seed})")


def near_point_mass(grid: Grid, sharpness: float, cell_coords=None) -> MeshMeasure:
    """Uniform background of mass 2**-sharpness plus the rest in one cell."""
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    eta = 2.0 ** (-float(sharpness))
    cells = np.full(grid.mesh_shape, eta / grid.n_cells)
    if cell_coords is None:
        cell_coords = (grid.cells_per_axis // 2,) * grid.dimension
    cells[tuple(int(c) for c in cell_coords)] += 1.0 - eta
    return MeshMeasure(grid, cells, label=f"point(sharpness={sharpness})")


def custom_cells(grid: Grid, masses, label: str = "custom") -> MeshMeasure:
    return MeshMeasure(grid, np.asarray(masses, dtype=float).reshape(grid.mesh_shape), label=label)


# -- serialization ------------------------------------------------------------

def save_measure_csv(measure: MeshMeasure, path) -> None:
    """Write (cell_index, mass) rows; cell_index is the flat C-order index."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell_index", "mass"])
        for i, m in enumerate(measure.flat_mass):
            writer.writerow([i, repr(float(m))])


def load_measure_csv(grid: Grid, path) -> MeshMeasure:
    """Read the (cell_index, mass) rows of `save_measure_csv`. A file with
    no header, a row that is not an index and a mass, an index outside the
    mesh, a repeated index or a mass that is negative, NaN or infinite
    raises ValueError, naming the file and row; a file that is not UTF-8,
    naming the file, the row and the byte offset."""
    cells = np.zeros(grid.n_cells)
    seen = set()
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, row {row}, byte {exc.start}: "
                         f"{raw[exc.start:exc.start + 1]!r} is not UTF-8") from exc
    with io.StringIO(text, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:2] != ["cell_index", "mass"]:
            raise ValueError(f"{path}, row 1: expected the header cell_index,mass, got {header}")
        for row in reader:
            where = f"{path}, row {reader.line_num}"
            try:
                idx, mass = int(row[0]), float(row[1])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{where}: expected cell_index,mass, got {row}") from exc
            if not 0 <= idx < grid.n_cells:
                raise ValueError(f"{where}: cell_index {idx} outside mesh of {grid.n_cells} cells")
            if idx in seen:
                raise ValueError(f"{where}: cell_index {idx} repeated")
            if not 0.0 <= mass < np.inf:
                raise ValueError(f"{where}: mass {row[1]} is not finite and nonnegative")
            seen.add(idx)
            cells[idx] = mass
    return MeshMeasure(grid, cells.reshape(grid.mesh_shape), label="csv")
