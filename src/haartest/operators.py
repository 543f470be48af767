"""Truncated singular kernels and their discretized operators.

Kernel families carry declared size/smoothness and lower ellipticity
constants. Operators act by midpoint quadrature over mesh cells, so
truncations must not dip below the mesh scale. The kernels are
translation invariant, so every row of the mesh kernel matrix G is a window
of one table, the kernel's values at the distinct cell offsets
(`kernel_matrix`). One table serves an operator and its adjoint: the
adjoint's table is the operator's reversed. No part of G is ever copied
out of the table: G x is the convolution of the table with x, so it comes
by FFT of the zero-padded table (`_table_spectrum`, `_fft_operator`), or as
sums over strided windows of the table itself (`_window_images`).

Only two functions act by G: `apply`, for a mesh function or a
stack of them, always by FFT, and `image_blocks`, the one source of
operator images. Every wavelet of a depth-`depth` Haar system is constant
on the level-`depth` cubes, so the operator's action on a system is fixed
by the cube images G diag(sigma) P, P mapping cells to their cubes. Where
cubes are wide (`_fft_route`), `image_blocks` takes them by FFT as one
block over all output cells (`_fft_images`); else a block of output cells
at a time, by matmuls of windows of the table against sigma's masses in
each cube (`_window_images`). Either way it sums them up to the cubes of
every coarser level. Every consumer is a fold with add(rows, levels), and
one loop (`_fold_images`) hands each block to the folds of a pass before
the next one is made. The Haar coefficient matrix
W diag(omega) G diag(sigma) V^T is the two-sided level transform of the
cube-sum matrix P^T diag(omega) G diag(sigma) P (`HaarMatrixFold`); no
wavelet matrix V or W is formed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dyadic import Grid, block_sums, group_by_cube
from .haar import HaarSystem, cached_system
from .measure import MeshMeasure

KERNEL_FAMILIES = ("hilbert", "fractional_integral", "riesz_like")

# max |S'| and |S''| of the quintic smoothstep on [0, 1]
_S1_MAX = 15.0 / 8.0
_S2_MAX = 10.0 / np.sqrt(3.0)


class TruncationError(ValueError):
    """Raised when a truncation cannot be resolved on the mesh."""


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


@lru_cache(maxsize=8)
def kernel_matrix(kernel: Kernel, trunc: Truncation, grid: Grid) -> np.ndarray:
    """The offset table of the kernel matrix G: with m cells per axis, entry
    d + m - 1 ((2m - 1,) * n entries) is the truncated kernel at the offset
    d * cell_side, so G[i, j] = table[i - j + m - 1] on the C-ordered cells'
    coordinates. G itself is never formed: `image_blocks` reads its
    entries off windows of this table (`_window_images`).

    Every kernel family is translation invariant, K(x, y) = K(x - y, 0), and
    on the uniform mesh c_i - c_j = (i - j) * cell_side per axis. On a window
    with dyadic origin, shift and side the centers are exact, so the G of the
    table equals a pairwise build at the cell centers bit for bit; elsewhere
    they differ by the rounding of the centers.

    The adjoint's kernel K(y, x) has the matrix G^T, whose table is this one
    reversed on every axis. The odd families' kernel of sign -1 is the
    transpose of their sign +1 kernel, so its table is the reversed view of
    that one's, equal entry for entry to a build of its own (the offsets are
    exact and the kernels exactly odd); `fractional_integral` is its own
    transpose. So one table serves an operator and its adjoint.
    """
    m, n = grid.cells_per_axis, grid.dimension
    if kernel.sign < 0 and kernel.transpose().sign > 0:
        return kernel_matrix(kernel.transpose(), trunc, grid)[(slice(None, None, -1),) * n]
    steps = np.arange(1 - m, m) * grid.cell_side
    offsets = np.stack(np.meshgrid(*[steps] * n, indexing="ij"), axis=-1)
    return kernel.eval(offsets, 0.0) * trunc.scale(np.linalg.norm(offsets, axis=-1))


@lru_cache(maxsize=4)
def _table_spectrum(kernel: Kernel, trunc: Truncation, grid: Grid) -> tuple:
    """(spectrum, floor): the rfftn of the offset table zero-padded to
    (2m,)*n, and the rounding floor of `_fft_operator` per unit of an input
    row's l1 norm. Cached per kernel orientation; a few (2m)^n / 2 complex
    entries, where G has m^(2n)."""
    m, n = grid.cells_per_axis, grid.dimension
    table = kernel_matrix(kernel, trunc, grid)
    size = (2 * m) ** n
    spectrum = np.fft.rfftn(table, s=(2 * m,) * n, axes=tuple(range(n)))
    return spectrum, _FFT_FLOOR * np.finfo(float).eps * np.log2(size) * np.abs(table).max()


def _fft_operator(kernel: Kernel, trunc: Truncation, grid: Grid):
    """x -> G x for a stack x (k, n_cells) of mesh functions, by FFT.

    G[i, j] = table[i - j + m - 1], so G x is the linear convolution of
    the table with x at the offsets m - 1 .. 2m - 2 per axis; zero-padded
    to (2m,)*n, the cyclic convolution has no wrapped term there. pocketfft
    transforms each row alone, so a row's image does not depend on its
    stack. An output at or below its row's rounding floor (`_table_spectrum`,
    times the row's l1 norm) is set to 0: where the truncated kernel
    vanishes, G x is exactly 0, and the transform leaves rounding there."""
    m, n = grid.cells_per_axis, grid.dimension
    spectrum, floor = _table_spectrum(kernel, trunc, grid)
    shape, axes = (2 * m,) * n, tuple(range(1, n + 1))
    window = (slice(None),) + (slice(m - 1, 2 * m - 1),) * n

    def convolve(x: np.ndarray) -> np.ndarray:
        spec = np.fft.rfftn(x.reshape((-1,) + grid.mesh_shape), s=shape, axes=axes)
        spec *= spectrum
        images = np.fft.irfftn(spec, s=shape, axes=axes)[window].reshape(len(x), -1)
        images[np.abs(images) <= floor * np.abs(x).sum(axis=1, keepdims=True)] = 0.0
        return images

    return convolve


def _convolve(kernel: Kernel, trunc: Truncation, grid: Grid, count: int, inputs,
              out: np.ndarray) -> np.ndarray:
    """G x for count mesh functions x (`_fft_operator`), into out (count,
    n_cells): inputs(start, stop) gives rows start..stop of x as (k,
    n_cells), in batches whose transforms fill _IMAGE_BLOCK_ENTRIES."""
    convolve = _fft_operator(kernel, trunc, grid)
    batch = max(1, _IMAGE_BLOCK_ENTRIES // (2 * grid.cells_per_axis) ** grid.dimension)
    for start in range(0, count, batch):
        stop = min(start + batch, count)
        out[start:stop] = convolve(inputs(start, stop))
    return out


def require_resolved(trunc: Truncation, grid: Grid) -> None:
    if trunc.eps < 2.0 * grid.cell_diameter - 1e-12 * grid.side:
        raise TruncationError(
            f"truncation under-resolved: eps={trunc.eps:.3g} is below twice the "
            f"cell diameter {grid.cell_diameter:.3g}"
        )


def apply(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure,
          f: np.ndarray) -> np.ndarray:
    """Midpoint-quadrature action of the truncated operator at every cell
    center: mesh-shaped for one mesh function, (k, n_cells) for a stack of
    them (k, n_cells). By FFT (`_convolve`), which transforms each row
    alone, so that a row's image does not depend on its stack."""
    grid = sigma.grid
    require_resolved(trunc, grid)
    f = np.asarray(f)
    stack = f.ndim == 2 and f.shape[1] == grid.n_cells
    weighted = (f if stack else f.reshape(1, -1)) * sigma.flat_mass
    out = _convolve(kernel, trunc, grid, len(weighted), lambda start, stop: weighted[start:stop],
                    np.empty(weighted.shape))
    return out if stack else out.reshape(grid.mesh_shape)


# cube-image entries (cubes x output cells) per block of `image_blocks`'
# window route (2 MiB), at least one slab; also the padded transform
# entries per batch of `_convolve`, and the first block of a Lanczos basis
# (`characteristics._LanczosBasis`). On chars-2d (2-D L=6, depth 5) it
# makes blocks of 256 output cells and the op peaks at 66.0 MB of RSS; at
# 1 << 20 (blocks of 1,024 cells) it peaked at 95.8 MB
_IMAGE_BLOCK_ENTRIES = 1 << 18

# `_fft_route`'s constant, from a sweep of one sigma pass by each route
# over 1-D L=8..14 and 2-D L=4..7 (in process, best of up to 200, 2-core
# Xeon, numpy 2.4.6; CHANGES.md). As ms by windows / by FFT, at the ratio
# f^n / (2^n log2(2^n N)): 1-D L=10 depth 5 (1.45) 0.67 / 1.11 and depth 4
# (2.91) 0.58 / 0.36; 1-D L=12 depth 6 (2.46) 9.4 / 9.7; 1-D L=14 depth 9
# (1.07) 191 / 371 and depth 8 (2.13) 170 / 164; 2-D L=5 depth 2 (1.33)
# 1.1 / 1.5; 2-D L=6 depth 3 (1.14) 18 / 24; 2-D L=7 depth 4 (1.00)
# 300 / 415 and depth 3 (4.00) 233 / 65; 2-D L=4 depth 1 (1.60) 0.14 /
# 0.12. Windows won at every ratio up to 1.45; from 1.6 FFT won but for
# near ties (above, and 1-D L=8 depth 3 at 1.78, 0.07 ms by either), so
# one ratio serves both dimensions. And `_fft_operator`'s rounding floor in
# units of eps * log2((2m)^n) * max|table| * sum|x|: over 1-D hilbert and
# 2-D riesz_like and fractional_integral images with three truncations,
# the transform left at most 0.19 of that unit where G x is exactly 0
_FFT_ROUTE_RATIO = 1.5
_FFT_FLOOR = 4.0


def image_rows(grid: Grid, level: int) -> list:
    """The row slices of `image_blocks`' window route: whole slabs, the
    N / 2**level consecutive cells whose level-`level` cubes share their
    first coordinate, as many as keep a block's images of the 2**(n level)
    cubes within _IMAGE_BLOCK_ENTRIES, and at least one. A slab holds whole
    cubes, so summing a block's rows to the cubes pairs the cells as a sum
    over all rows does."""
    slab = grid.n_cells >> level
    slab_images = slab << (grid.dimension * level)
    step = slab * max(1, _IMAGE_BLOCK_ENTRIES // slab_images)
    return [slice(start, min(start + step, grid.n_cells))
            for start in range(0, grid.n_cells, step)]


def _fft_route(grid: Grid, depth: int) -> bool:
    """Whether `image_blocks` takes the level-`depth` cube images by FFT:
    when the cells per cube, f^n, reach _FFT_ROUTE_RATIO * 2^n log2(2^n N).
    A pass costs about 2^(n depth) transforms of (2m)^n = 2^n N entries by
    FFT, and N^2 multiply-adds by windows (f^n per cube and output cell),
    so FFT wins once cubes are wide."""
    n = grid.dimension
    cells = grid.n_cells >> (n * depth)
    return cells >= _FFT_ROUTE_RATIO * 2 ** n * np.log2(2 ** n * grid.n_cells)


def _fft_images(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure,
                depth: int) -> np.ndarray:
    """The level-`depth` cube images T(sigma 1_Q) at every cell, indexed
    [*cube coords, cell], by `_convolve` of the cubes' sigma a batch at a
    time."""
    grid = sigma.grid
    cells = group_by_cube(np.arange(grid.n_cells).reshape(grid.mesh_shape), depth)

    def inputs(start: int, stop: int) -> np.ndarray:
        x = np.zeros((stop - start, grid.n_cells))
        np.put_along_axis(x, cells[start:stop], sigma.flat_mass[cells[start:stop]], axis=1)
        return x

    images = _convolve(kernel, trunc, grid, len(cells), inputs,
                       np.empty((len(cells), grid.n_cells)))
    return images.reshape((2 ** depth,) * grid.dimension + (grid.n_cells,))


def _window_images(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure, depth: int):
    """Yield (rows, images) for the row slices of `image_rows`: the
    level-`depth` cube images T(sigma 1_Q) at the cells of rows, indexed
    [*cube coords, cell of rows], read off windows of the offset table.

    With f = m / 2**depth cells per cube side, T(sigma 1_Q)(x) is the sum
    over u in [0, f)^n of sigma(f q + u) table[x - f q - u + m - 1]. The
    windows view[q, x, k] = table[m - f - f q + x + k] (per axis, a strided
    view with no copy) hold that term at k = f - 1 - u, so an image is one
    matmul over the last axis's k for each k of the other axes, against
    sigma's masses reversed in each cube. The view is not BLAS-shaped, so
    numpy sums each image's terms in order: images depend neither on the
    BLAS nor on the block budget, and no block holds a row of G."""
    grid = sigma.grid
    m, n = grid.cells_per_axis, grid.dimension
    side, f = 2 ** depth, m >> depth
    per = grid.n_cells // m
    views = sliding_window_view(kernel_matrix(kernel, trunc, grid), (m,) * n + (f,) * n,
                                axis=tuple(range(n)) * 2)[(slice(m - f, None, -f),) * n]
    masses = group_by_cube(sigma.cell_mass, depth).reshape(
        (side,) * n + (1,) * (n - 1) + (f,) * n)[(Ellipsis,) + (slice(None, None, -1),) * n]
    for rows in image_rows(grid, depth):
        windows = views[(slice(None),) * n + (slice(rows.start // per, rows.stop // per),)]
        parts = (np.matmul(windows[(Ellipsis,) + k + (slice(None),)],
                           masses[(Ellipsis,) + k + (slice(None), None)])
                 for k in np.ndindex((f,) * (n - 1)))
        images = next(parts)
        for part in parts:
            images += part
        yield rows, images.reshape((side,) * n + (-1,))


def image_blocks(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure, depth: int):
    """Yield (rows, levels) for slices rows of output cells: levels[l]
    holds the images T(sigma 1_Q) at the cells of rows of the level-l cubes
    Q, l = 0..depth, each (2**l,)*n + (r,), each coarser level the pairwise
    block sums (`block_sums`) of the next finer. The one source of operator
    images: consumers fold each block into what they keep and drop it
    (`_fold_images`), so no image array need be held whole past a block.

    Two routes give the level-`depth` images, chosen by `_fft_route` from
    the grid and depth. Where cubes are wide, one block over all output
    cells, by FFT (`_fft_images`); else a block of whole slabs at a time
    (`image_rows`), read off windows of the offset table
    (`_window_images`)."""
    grid = sigma.grid
    if _fft_route(grid, depth):
        blocks = [(slice(0, grid.n_cells), _fft_images(kernel, trunc, sigma, depth))]
    else:
        blocks = _window_images(kernel, trunc, sigma, depth)
    for rows, finest in blocks:
        levels = [finest]
        for _ in range(depth):
            levels.append(block_sums(levels[-1], grid.dimension, 2, start=0))
        yield rows, levels[::-1]


def _fold_images(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure, depth: int,
                 *adds) -> None:
    """One pass of `image_blocks`: each block goes to every fold's
    add(rows, levels), given as adds, before the next block is made."""
    for rows, levels in image_blocks(kernel, trunc, sigma, depth):
        for add in adds:
            add(rows, levels)


@dataclass(eq=False)
class HaarMatrix:
    """Coefficient matrix of the operator between two Haar systems.

    entries[row, col] pairs the col-th wavelet of the source system (mass
    sigma) with the row-th wavelet of the target system (mass omega).
    """

    entries: np.ndarray
    depth: int
    sigma_system: HaarSystem
    omega_system: HaarSystem
    kernel: Kernel
    trunc: Truncation


class HaarMatrixFold:
    """The HaarMatrix of the source system ssys against the target system
    osys, folded from the blocks (rows, levels) of `image_blocks`.

    `add` sums each block's level-`depth` cube images, omega-weighted, over
    the output cells of each cube, so what is kept is the cube-sum matrix
    B = P^T diag(omega) G diag(sigma) P, stored as (input cubes, output
    cubes), 2**(n*depth) square. `matrix` then runs the source system's
    level transform over B's input side and, with B dropped, the target
    system's over its output side: the two-sided Haar transform of B.
    Blocks of whole slabs (`image_rows`) give each output cube's sums from
    one block.
    """

    def __init__(self, ssys: HaarSystem, osys: HaarSystem):
        cubes = 2 ** (ssys.measure.grid.dimension * ssys.depth)
        self.ssys, self.osys = ssys, osys
        self.sums = np.empty((cubes, cubes))

    def add(self, rows: slice, levels: list) -> None:
        grid = self.ssys.measure.grid
        n, depth = grid.dimension, self.ssys.depth
        slab = grid.n_cells >> depth
        per_slab = 2 ** (depth * (n - 1))
        weighted = (levels[depth] * self.osys.measure.flat_mass[rows]).reshape(
            (-1, (rows.stop - rows.start) * grid.cells_per_axis // grid.n_cells)
            + grid.mesh_shape[1:])
        sums = block_sums(weighted, n, 2 ** (grid.max_level - depth), start=1)
        self.sums[:, rows.start // slab * per_slab:rows.stop // slab * per_slab] = \
            sums.reshape(len(sums), -1)

    def matrix(self, kernel: Kernel, trunc: Truncation) -> HaarMatrix:
        cubes = (2 ** self.ssys.depth,) * self.ssys.measure.grid.dimension
        # one row per output cube, its coefficients on the source wavelets
        rows = self.ssys.analyse_cube_sums(self.sums.T.reshape((-1,) + cubes))
        self.sums = None  # not held through the target side's transform
        entries = self.osys.analyse_cube_sums(rows.T.reshape((-1,) + cubes)).T
        return HaarMatrix(entries=entries, depth=self.ssys.depth, sigma_system=self.ssys,
                          omega_system=self.osys, kernel=kernel, trunc=trunc)


def assemble_haar_matrix(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure,
                         omega: MeshMeasure, depth: int) -> HaarMatrix:
    if sigma.grid != omega.grid:
        raise ValueError("sigma and omega must share a grid")
    grid = sigma.grid
    require_resolved(trunc, grid)
    fold = HaarMatrixFold(cached_system(sigma, depth), cached_system(omega, depth))
    _fold_images(kernel, trunc, sigma, depth, fold.add)
    return fold.matrix(kernel, trunc)
