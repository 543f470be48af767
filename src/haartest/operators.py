"""Truncated singular kernels and their discretized operators.

Kernel families carry declared size/smoothness and lower ellipticity
constants; `check_cz_bounds` and `check_ellipticity` verify them by sampled
finite differences. Operators act by midpoint quadrature over mesh cells,
so truncations must not dip below the mesh scale. The kernels are
translation invariant, so the mesh kernel matrix is gathered from the
kernel's values at the distinct cell offsets; `points_matrix` evaluates the
kernel pair by pair at arbitrary points. One dense array serves an operator
and its adjoint: the adjoint's matrix is the transposed view of the
operator's.

The operator images of a Haar system, G diag(sigma) V^T, and the Haar
coefficient matrix W diag(omega) G diag(sigma) V^T are Haar analyses of the
kernel matrix's rows and of the images' columns, done by the systems' level
transform (the two-sided wavelet transform of an operator matrix); no
wavelet matrix V or W is formed. Every wavelet of a depth-`depth` system is
constant on the level-`depth` cubes, so one pass over G sums its
sigma-weighted columns to the cubes, and the transform finishes from those
sums. That pass is the one source of operator images (`image_blocks`): it
yields them a block of output cells at a time (row blocks of a C-ordered G,
column slices of H for the adjoint's view G = H^T), and each consumer folds
a block into what it keeps, such as the target side's sums of the Haar
matrix (`HaarMatrixFold`), before the next one is made.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .dyadic import Grid, block_sums
from .haar import HaarSystem, cached_system
from .measure import MeshMeasure

KERNEL_FAMILIES = ("hilbert", "fractional_integral", "riesz_like")

# max |S'| and |S''| of the quintic smoothstep on [0, 1]
_S1_MAX = 15.0 / 8.0
_S2_MAX = 10.0 / np.sqrt(3.0)


class TruncationError(ValueError):
    """Raised when a truncation cannot be resolved on the mesh."""


class BoundViolation(AssertionError):
    """A declared kernel constant failed a sampled check."""


@dataclass(frozen=True)
class Kernel:
    family: str
    lam: float
    dimension: int
    c_cz: float
    stein_c0: float
    grad_c1: float
    direction: tuple
    delta0: float
    sign: float = 1.0

    # -- pointwise evaluation ------------------------------------------------
    def eval(self, x, y) -> np.ndarray:
        """K(x, y) for point arrays of shape (..., n); 0 at x == y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = x - y
        r = np.linalg.norm(d, axis=-1)
        alpha = self.lam - self.dimension
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.family == "hilbert":
                val = np.where(r > 0, 1.0 / np.where(d[..., 0] != 0, d[..., 0], 1.0), 0.0)
            elif self.family == "fractional_integral":
                val = np.where(r > 0, np.where(r > 0, r, 1.0) ** alpha, 0.0)
            else:  # riesz_like
                val = np.where(r > 0, d[..., 0] * np.where(r > 0, r, 1.0) ** (alpha - 1.0), 0.0)
        return self.sign * val

    def grad2(self, x, y) -> np.ndarray:
        """Analytic gradient of K in the second argument, shape (..., n)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = x - y
        r = np.linalg.norm(d, axis=-1, keepdims=True)
        if np.any(r == 0):
            raise ValueError("gradient undefined at coincident points")
        alpha = self.lam - self.dimension
        if self.family == "hilbert":
            out = (1.0 / d) ** 2  # d/dy of 1/(x-y)
        elif self.family == "fractional_integral":
            out = -alpha * r ** (alpha - 2.0) * d
        else:
            out = -(alpha - 1.0) * d[..., :1] * d * r ** (alpha - 3.0)
            out[..., 0] -= (r ** (alpha - 1.0))[..., 0]
        return self.sign * out

    def transpose(self) -> "Kernel":
        """Kernel of the adjoint: K*(x, y) = K(y, x)."""
        if self.family == "fractional_integral":
            return self
        return replace(self, sign=-self.sign)


def make_kernel(family: str, lam: float, dimension: int,
                direction=None) -> Kernel:
    """Build a kernel with analytically derived declared constants."""
    if family not in KERNEL_FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}; choose from {KERNEL_FAMILIES}")
    n = dimension
    lam = float(lam)
    if family == "hilbert":
        if n != 1:
            raise ValueError("hilbert kernel requires dimension 1")
        if lam != 0.0:
            raise ValueError("hilbert kernel has lam = 0")
    if not 0.0 <= lam < n:
        raise ValueError(f"lam must satisfy 0 <= lam < {n}, got {lam}")
    if direction is None:
        direction = (1.0,) + (0.0,) * (n - 1)
    v = np.asarray(direction, dtype=float)
    v = v / np.linalg.norm(v)
    if family == "hilbert":
        c_cz, c0, c1 = 2.0, 1.0, 1.0
    elif family == "fractional_integral":
        a = n - lam
        c_cz = max(1.0, a, a * (a + 3.0))
        c0, c1 = 1.0, a
    else:
        if abs(v[0]) < 0.5:
            raise ValueError("riesz_like ellipticity direction needs |v_1| >= 1/2")
        a = n - lam
        c_cz = max(1.0, n + 2.0 - lam, n * (a + 1.0) * (a + 6.0))
        c0, c1 = float(abs(v[0])), a * float(abs(v[0]))
    delta0 = min(1.0, c1 / (2.0 * c_cz))
    return Kernel(family=family, lam=lam, dimension=n, c_cz=c_cz,
                  stein_c0=c0, grad_c1=c1, direction=tuple(float(t) for t in v),
                  delta0=delta0)


def smoothstep(u) -> np.ndarray:
    """Quintic smoothstep: C^2 ramp from 0 at u<=0 to 1 at u>=1."""
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)


@dataclass(frozen=True)
class Truncation:
    eps: float
    rmax: float

    def __post_init__(self):
        if not 0 < self.eps:
            raise ValueError("eps must be positive")
        if self.rmax < 4.0 * self.eps:
            raise ValueError(f"need rmax >= 4*eps for a plateau; got eps={self.eps}, rmax={self.rmax}")

    def scale(self, dist) -> np.ndarray:
        """Radial profile: 0 below eps, rises on [eps, 2eps], 1 through
        rmax/2, falls to 0 at rmax."""
        d = np.asarray(dist, dtype=float)
        rise = smoothstep((d - self.eps) / self.eps)
        fall = 1.0 - smoothstep((d - 0.5 * self.rmax) / (0.5 * self.rmax))
        return rise * fall

    def plateau(self) -> tuple:
        return 2.0 * self.eps, 0.5 * self.rmax

    def profile_factor(self, order: int) -> float:
        """Multiplier on the raw-kernel constant covering profile derivatives."""
        if order == 0:
            return 1.0
        if order == 1:
            return 1.0 + 2.0 * _S1_MAX
        if order == 2:
            return 1.0 + 4.0 * _S1_MAX + 4.0 * _S2_MAX
        raise ValueError("orders above 2 are not declared")


def default_truncation(grid: Grid) -> Truncation:
    return Truncation(eps=4.0 * grid.cell_side, rmax=4.0 * grid.side)


def eval_truncated(kernel: Kernel, trunc: Truncation, x, y) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.linalg.norm(x - y, axis=-1)
    return kernel.eval(x, y) * trunc.scale(r)


@lru_cache(maxsize=8)
def kernel_matrix(kernel: Kernel, trunc: Truncation, grid: Grid) -> np.ndarray:
    """G[i, j] = truncated kernel between cell centers i and j (C order).

    Every kernel family is translation invariant, K(x, y) = K(x - y, 0), and
    on the uniform mesh c_i - c_j = (i - j) * cell_side per axis. So G is
    Toeplitz (block-Toeplitz in 2-D) and is gathered from the kernel at the
    (2 * cells_per_axis - 1)**n exact offsets. On a window with dyadic origin,
    shift and side the centers are exact, so G equals the pairwise
    `points_matrix` build bit for bit; elsewhere they differ by the rounding
    of the centers.

    The adjoint's kernel K(y, x) has the matrix G^T. The odd families'
    kernel of sign -1 is the transpose of their sign +1 kernel, so its
    matrix is the transposed view of that one's, equal entry for entry to
    a build of its own (the offsets are exact and the kernels exactly odd);
    `fractional_integral` is its own transpose. So one dense array serves
    an operator and its adjoint.
    """
    if kernel.sign < 0 and kernel.transpose().sign > 0:
        return kernel_matrix(kernel.transpose(), trunc, grid).T
    m, n = grid.cells_per_axis, grid.dimension
    steps = np.arange(1 - m, m) * grid.cell_side
    offsets = np.stack(np.meshgrid(*[steps] * n, indexing="ij"), axis=-1)
    table = kernel.eval(offsets, 0.0) * trunc.scale(np.linalg.norm(offsets, axis=-1))
    # window w at position a of the reversed table holds the offsets
    # 2m - 2 - a - w; reversing a makes that i - j + m - 1 at (i, j)
    flip = (slice(None, None, -1),) * n
    windows = np.lib.stride_tricks.sliding_window_view(table[flip], (m,) * n)[flip]
    return np.ascontiguousarray(windows.reshape(grid.n_cells, grid.n_cells))


# points per row block of points_matrix
_POINTS_BLOCK = 1024


def points_matrix(kernel: Kernel, trunc: Truncation, points: np.ndarray,
                  grid: Grid) -> np.ndarray:
    """Truncated kernel from mesh cell centers (columns) to `points` (rows)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centers = grid.flat_centers
    out = np.empty((points.shape[0], centers.shape[0]))
    for start in range(0, points.shape[0], _POINTS_BLOCK):
        stop = min(start + _POINTS_BLOCK, points.shape[0])
        x = points[start:stop, None, :]
        y = centers[None, :, :]
        r = np.linalg.norm(x - y, axis=-1)
        out[start:stop] = kernel.eval(x, y) * trunc.scale(r)
    return out


def require_resolved(trunc: Truncation, grid: Grid) -> None:
    if trunc.eps < 2.0 * grid.cell_diameter - 1e-12 * grid.side:
        raise TruncationError(
            f"truncation under-resolved: eps={trunc.eps:.3g} is below twice the "
            f"cell diameter {grid.cell_diameter:.3g}"
        )


def apply(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure,
          f: np.ndarray) -> np.ndarray:
    """Midpoint-quadrature action of the truncated operator on a mesh
    function, evaluated at every cell center."""
    grid = sigma.grid
    require_resolved(trunc, grid)
    fw = np.asarray(f).ravel() * sigma.flat_mass
    return (kernel_matrix(kernel, trunc, grid) @ fw).reshape(grid.mesh_shape)


# kernel-matrix entries read per block of `image_blocks` (8 MB), so grids
# of up to 1024 cells take one block. A block's temporaries are a few times
# that: at 2-D L=6, depth 5, where G alone takes 166 MiB of RSS with the
# imports, the characteristics bundle's sigma pass peaked at 193, 195, 213
# and 253 MiB with blocks of 128, 256 (this budget), 512 and 1024 rows
_IMAGE_BLOCK_ENTRIES = 1 << 20

# cells per cube side from which the C-ordered pass of `image_block` weights
# and sums the last, contiguous mesh axis in one einsum: at 4 the einsum and
# the pairwise adds cost the same, and at 64 (1-D L=10, depth 4) the einsum
# is 4x faster
_FUSED_FACTOR = 4


def image_rows(grid: Grid, level: int) -> list:
    """The row slices of `image_blocks`: whole slabs, the N / 2**level
    consecutive cells whose level-`level` cubes share their first
    coordinate, as many as fit in _IMAGE_BLOCK_ENTRIES kernel-matrix
    entries and at least one. A slab holds whole cubes, so summing a
    block's rows to the cubes pairs the cells as a sum over all rows does."""
    slab = grid.n_cells >> level
    step = slab * max(1, _IMAGE_BLOCK_ENTRIES // (grid.n_cells * slab))
    return [slice(start, min(start + step, grid.n_cells))
            for start in range(0, grid.n_cells, step)]


def image_block(g: np.ndarray, sigma: MeshMeasure, level: int, rows: slice) -> np.ndarray:
    """Rows `rows` of the level-`level` cube images G diag(sigma) P, P
    mapping cells to their cubes: T(1_Q sigma) at the cells of rows, indexed
    [cell - rows.start, *cube coords].

    g is read in its own layout. A C-ordered g gives the block's rows, their
    sigma-weighted entries summed to the cubes by pairwise adds
    (`block_sums`); when cubes are at least _FUSED_FACTOR cells wide, the
    last mesh axis is weighted and summed by one einsum first. The
    transposed view g = H^T of a C-ordered H (the adjoint's matrix, see
    `kernel_matrix`) gives the block's columns of H, weighted and summed
    along H's rows: in 1-D by one batched gemv (one per cube), in n-D by one
    einsum over H laid out as (cube, cell within it) per axis. Neither pass
    transposes or copies g.
    """
    grid = sigma.grid
    n = grid.dimension
    side = 2 ** level
    factor = 2 ** (grid.max_level - level)
    if not g.flags.c_contiguous and g.T.flags.c_contiguous:
        weights = sigma.flat_mass.reshape((side, factor) * n)
        band = g.T.reshape(weights.shape + (grid.n_cells,))[..., rows]
        if n == 1:
            return (weights[:, None] @ band)[:, 0].T
        cells = list(range(2 * n))
        return np.einsum(band, cells + [2 * n], weights, cells, [2 * n] + cells[::2])
    block = g[rows]
    if factor >= _FUSED_FACTOR:
        block = np.einsum("rcf,cf->rc", block.reshape(len(block), -1, factor),
                          sigma.flat_mass.reshape(-1, factor))
        return block_sums(block.reshape((-1,) + grid.mesh_shape[1:] + (side,)),
                          n - 1, factor, start=1)
    return block_sums((block * sigma.flat_mass).reshape((-1,) + grid.mesh_shape), n, factor)


def image_blocks(g: np.ndarray, sigma: MeshMeasure, level: int):
    """Yield (rows, `image_block`) for the row slices of `image_rows`: the
    one source of operator images. Consumers fold each block into what they
    keep and drop it, so no image array need be held whole."""
    for rows in image_rows(sigma.grid, level):
        yield rows, image_block(g, sigma, level, rows)


def cube_images(g: np.ndarray, sigma: MeshMeasure, level: int) -> np.ndarray:
    """The whole (n_cells,) + (2**level,)*n cube images of `image_blocks`,
    for the scans that still need every image at once."""
    return np.concatenate([sums for _, sums in image_blocks(g, sigma, level)])


def wavelet_images(g: np.ndarray, system: HaarSystem) -> np.ndarray:
    """(n_cells, n_wavelets) operator image of every wavelet of the system,
    G diag(sigma) V^T with sigma the system's measure: the system's level
    transform of the whole `cube_images` (`HaarSystem.analyse_cube_sums`)."""
    return system.analyse_cube_sums(cube_images(g, system.measure, system.depth))


@dataclass(eq=False)
class HaarMatrix:
    """Coefficient matrix of the operator between two Haar systems.

    entries[row, col] pairs the col-th wavelet of the source system (mass
    sigma) with the row-th wavelet of the target system (mass omega).
    """

    entries: np.ndarray
    row_labels: list
    col_labels: list
    depth: int
    sigma_system: HaarSystem
    omega_system: HaarSystem
    kernel: Kernel
    trunc: Truncation


class HaarMatrixFold:
    """The HaarMatrix of the source system ssys against the target system
    osys, folded from row blocks of ssys's wavelets' images.

    `add` sums each block's omega-weighted rows to the level-`depth` cubes,
    C = P^T diag(omega) images (2**(n*depth) x n_wavelets); `matrix` then
    runs the target system's analysis of C's columns. Blocks of whole slabs
    (`image_rows`) pair the cells as `HaarSystem.analyse` of the whole
    images does, so the entries are the same bit for bit.
    """

    def __init__(self, ssys: HaarSystem, osys: HaarSystem):
        grid = ssys.measure.grid
        self.ssys, self.osys = ssys, osys
        self.sums = np.empty((2 ** ssys.depth,) * grid.dimension + (ssys.n_wavelets,))

    def add(self, rows: slice, images: np.ndarray) -> None:
        grid = self.ssys.measure.grid
        n = grid.dimension
        slab = grid.n_cells >> self.ssys.depth
        weighted = images * self.osys.measure.flat_mass[rows, None]
        self.sums[rows.start // slab:rows.stop // slab] = block_sums(
            weighted.reshape((len(images) * grid.cells_per_axis // grid.n_cells,)
                             + grid.mesh_shape[1:] + (images.shape[1],)),
            n, 2 ** (grid.max_level - self.ssys.depth), start=0)

    def matrix(self, kernel: Kernel, trunc: Truncation) -> HaarMatrix:
        entries = self.osys.analyse_cube_sums(np.moveaxis(self.sums, -1, 0)).T
        return HaarMatrix(entries=entries, row_labels=self.osys.wavelet_labels(),
                          col_labels=self.ssys.wavelet_labels(), depth=self.ssys.depth,
                          sigma_system=self.ssys, omega_system=self.osys,
                          kernel=kernel, trunc=trunc)


def assemble_haar_matrix(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure,
                         omega: MeshMeasure, depth: int,
                         rotation_seed: int | None = None) -> HaarMatrix:
    if sigma.grid != omega.grid:
        raise ValueError("sigma and omega must share a grid")
    grid = sigma.grid
    require_resolved(trunc, grid)
    ssys = cached_system(sigma, depth, rotation_seed)
    fold = HaarMatrixFold(ssys, cached_system(omega, depth, rotation_seed))
    for rows, sums in image_blocks(kernel_matrix(kernel, trunc, grid), sigma, depth):
        fold.add(rows, ssys.analyse_cube_sums(sums))
    return fold.matrix(kernel, trunc)


# -- sampled verification of declared constants -------------------------------

@dataclass(frozen=True)
class CZBoundsReport:
    measured: tuple
    declared: tuple
    samples: int
    seed: int
    worst_pair: tuple


def _fd_gradient(fn, x: np.ndarray, h: float) -> np.ndarray:
    n = x.size
    out = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        out[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return out


def _fd_hessian(fn, x: np.ndarray, h: float) -> np.ndarray:
    n = x.size
    out = np.zeros((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / h ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            out[i, j] = out[j, i] = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4.0 * h ** 2)
    return out


def check_cz_bounds(kernel: Kernel, trunc: Truncation, grid: Grid,
                    m_max: int = 2, samples: int = 48, seed: int = 0) -> CZBoundsReport:
    """Sampled size/smoothness check of the truncated kernel.

    Raises BoundViolation naming the worst pair if any sampled ratio exceeds
    the declared constant (with the profile factor folded in).
    """
    if m_max > 2:
        raise ValueError("declared constants cover m <= 2")
    rng = np.random.default_rng(seed)
    n = kernel.dimension
    lo = np.log(1.05 * trunc.eps)
    hi = np.log(0.98 * trunc.rmax)
    measured = [0.0] * (m_max + 1)
    worst = None
    ktr = lambda x, y: float(kernel.eval(x, y) * trunc.scale(np.linalg.norm(x - y)))
    for _ in range(samples):
        x = grid.window_lower + rng.uniform(0.0, 1.0, size=n) * grid.side
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        d = float(np.exp(rng.uniform(lo, hi)))
        y = x - d * u
        fd_h = 1e-5 * d
        for m in range(m_max + 1):
            if m == 0:
                mag = abs(ktr(x, y))
            elif m == 1:
                gx = _fd_gradient(lambda p: ktr(p, y), x, fd_h)
                gy = _fd_gradient(lambda p: ktr(x, p), y, fd_h)
                mag = max(np.linalg.norm(gx), np.linalg.norm(gy))
            else:
                hx = _fd_hessian(lambda p: ktr(p, y), x, fd_h)
                hy = _fd_hessian(lambda p: ktr(x, p), y, fd_h)
                mag = max(np.linalg.norm(hx, 2), np.linalg.norm(hy, 2))
            ratio = mag * d ** (n + m - kernel.lam)
            if ratio > measured[m]:
                measured[m] = ratio
                worst = (tuple(x), tuple(y), m)
    declared = tuple(kernel.c_cz * trunc.profile_factor(m) for m in range(m_max + 1))
    for m in range(m_max + 1):
        if measured[m] > declared[m] * (1.0 + 1e-3):
            raise BoundViolation(
                f"size-smoothness bound violated at order {m}: measured "
                f"{measured[m]:.6g} > declared {declared[m]:.6g} at pair {worst}"
            )
    return CZBoundsReport(measured=tuple(measured), declared=declared,
                          samples=samples, seed=seed, worst_pair=worst)


@dataclass(frozen=True)
class EllipticityReport:
    kappa: int
    inf_sum_ratio: float
    inf_term_ratio: float
    declared: float
    samples: int
    seed: int
    perturbed_inf: float | None


def check_ellipticity(kernel: Kernel, kappa: int, samples: int = 64, seed: int = 0,
                      grid: Grid | None = None, perturb: bool = False) -> EllipticityReport:
    """Lower ellipticity of the raw kernel along its declared direction.

    kappa=0 checks kernel size along v; kappa=1 checks the derivative in the
    step length, both as an infimum of the two-ended sum over sampled
    (base point, t)."""
    if kappa not in (0, 1):
        raise ValueError("kappa must be 0 or 1")
    rng = np.random.default_rng(seed)
    n = kernel.dimension
    side = grid.side if grid is not None else 1.0
    base = grid.window_lower if grid is not None else np.zeros(n)
    v = np.asarray(kernel.direction)
    declared = kernel.grad_c1 if kappa == 1 else kernel.stein_c0
    power = kernel.lam - n - kappa

    def terms(w: np.ndarray, t: float, x: np.ndarray) -> tuple:
        if kappa == 0:
            return (abs(float(kernel.eval(x + t * w, x))),
                    abs(float(kernel.eval(x, x + t * w))))
        h = 1e-5 * t
        d1 = (float(kernel.eval(x + (t + h) * w, x)) - float(kernel.eval(x + (t - h) * w, x))) / (2 * h)
        d2 = (float(kernel.eval(x, x + (t + h) * w)) - float(kernel.eval(x, x + (t - h) * w))) / (2 * h)
        return abs(d1), abs(d2)

    inf_sum = np.inf
    inf_term = np.inf
    for _ in range(samples):
        x = base + rng.uniform(0.0, 1.0, size=n) * side
        t = float(np.exp(rng.uniform(np.log(1e-3 * side), np.log(side))))
        t1, t2 = terms(v, t, x)
        scale_t = t ** (-power)
        ratio = (t1 + t2) * scale_t
        inf_sum = min(inf_sum, ratio)
        inf_term = min(inf_term, t1 * scale_t, t2 * scale_t)
        if ratio < declared * (1.0 - 1e-6):
            raise BoundViolation(
                f"ellipticity violated at (x={tuple(x)}, t={t:.6g}): "
                f"ratio {ratio:.6g} < declared {declared:.6g}"
            )
    perturbed_inf = None
    if perturb and kappa == 1 and n >= 2:
        perturbed_inf = np.inf
        for _ in range(samples):
            x = base + rng.uniform(0.0, 1.0, size=n) * side
            t = float(np.exp(rng.uniform(np.log(1e-3 * side), np.log(side))))
            raw = rng.standard_normal(n)
            raw -= raw @ v * v
            nrm = np.linalg.norm(raw)
            if nrm == 0:
                continue
            w = v + rng.uniform(0.0, 0.999) * kernel.delta0 * raw / nrm
            w = w / np.linalg.norm(w)
            if np.linalg.norm(w - v) >= kernel.delta0:
                continue
            ratio = sum(terms(w, t, x)) * t ** (-power)
            perturbed_inf = min(perturbed_inf, ratio)
            if ratio < 0.5 * declared * (1.0 - 1e-6):
                raise BoundViolation(
                    f"perturbed ellipticity violated at (x={tuple(x)}, t={t:.6g}, "
                    f"w={tuple(w)}): ratio {ratio:.6g} < {0.5 * declared:.6g}"
                )
    return EllipticityReport(kappa=kappa, inf_sum_ratio=float(inf_sum),
                             inf_term_ratio=float(inf_term), declared=declared,
                             samples=samples, seed=seed,
                             perturbed_inf=None if perturbed_inf is None else float(perturbed_inf))


# -- operator norm via eigen-iteration ----------------------------------------

@dataclass(frozen=True)
class PowerIterationResult:
    value: float
    vector: np.ndarray
    iterations: int
    converged: bool


def top_singular_value(entries: np.ndarray, tol: float = 1e-12,
                       max_iter: int = 10000) -> PowerIterationResult:
    """Largest singular value by power iteration on the normal matrix."""
    m = np.asarray(entries, dtype=float)
    if m.size == 0 or not np.any(m):
        return PowerIterationResult(0.0, np.zeros(m.shape[1] if m.ndim == 2 else 0), 0, True)
    col = np.linalg.norm(m, axis=0)
    v = col + 1e-12 * (1.0 + np.arange(m.shape[1]))  # deterministic, generic start
    v /= np.linalg.norm(v)
    prev = 0.0
    for it in range(1, max_iter + 1):
        w = m @ v
        s = float(np.linalg.norm(w))
        u = m.T @ w
        nu = float(np.linalg.norm(u))
        if nu == 0:
            return PowerIterationResult(s, v, it, True)
        v = u / nu
        if it >= 3 and abs(s - prev) <= tol * max(1.0, s):
            return PowerIterationResult(s, v, it, True)
        prev = s
    warnings.warn("power iteration did not converge; returning last iterate")
    return PowerIterationResult(prev, v, max_iter, False)
