"""Dense and full-mesh reference builds, for tests only.

`haartest.operators` never forms any part of the N x N kernel matrix G: it
reads G's entries off windows of the kernel's offset table, or applies G by
FFT of that table. These build G whole to check the block stream and
`apply` against.
`haartest.characteristics` takes the quadratic pair values in closed form
over level arrays; `pair_family_value` builds the two mesh functions of
their definition instead. `haartest.haar` builds one basis of each cube's
wavelet span; `rotated_system` turns it into another, to check that the
transforms and the matrix fold hold for any orthonormal basis of the span,
and `mesh_values` paints one wavelet on the mesh child by child, to check
`HaarSystem.values_matrix` and the Haar matrices against.
`haartest.characteristics` takes the top singular triple by Lanczos on
A^T A; `golub_kahan_triple` takes it by Golub-Kahan-Lanczos, with a left
and a right basis, from the same start and under the same stopping rule.
`haartest.experiments.halo_cover` selects a level's cubes by masks;
`greedy_halo_cover` walks every cube of every allowed level instead.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from haartest.characteristics import _NORM_MAX_ITERS, _NORM_TOL, _LanczosBasis
from haartest.dyadic import Grid
from haartest.experiments import _inside
from haartest.haar import HaarLevel, HaarSystem, HaarWavelet, cached_system
from haartest.measure import MeshMeasure
from haartest.operators import (
    HaarMatrix,
    HaarMatrixFold,
    Kernel,
    Truncation,
    _fold_images,
    assemble_haar_matrix,
    kernel_matrix,
)

# points per row block of points_matrix
_POINTS_BLOCK = 1024


def dense_kernel_matrix(kernel: Kernel, trunc: Truncation, grid: Grid) -> np.ndarray:
    """G[i, j] = truncated kernel between cell centers i and j (C order),
    every row a window of the offset table `kernel_matrix`:
    G[i, j] = table[i - j + m - 1] on the cells' coordinates."""
    m, n = grid.cells_per_axis, grid.dimension
    # window w at position a of the reversed table holds the offsets
    # 2m - 2 - a - w; reversing a makes that i - j + m - 1 at (i, j)
    flip = (slice(None, None, -1),) * n
    table = kernel_matrix(kernel, trunc, grid)
    windows = sliding_window_view(table[flip], (m,) * n)[flip]
    return np.ascontiguousarray(windows.reshape(grid.n_cells, grid.n_cells))


def points_matrix(kernel: Kernel, trunc: Truncation, points: np.ndarray,
                  grid: Grid) -> np.ndarray:
    """Truncated kernel from mesh cell centers (columns) to `points` (rows),
    pair by pair."""
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


def pair_family_value(sigma: MeshMeasure, omega: MeshMeasure, lam: float, p: float,
                      cubes: list, partners: list, coeffs) -> float:
    """Lp ratio of a family of cubes Q (`DyadicCube`s) with partner cubes P
    and coefficients a, from its two mesh functions.

    Numerator: Lp(omega) norm of (sum_Q (a |P|_sigma / |P|^{1-lam/n})^2 1_Q)^{1/2};
    denominator: Lp(sigma) norm of (sum_Q a^2 1_P)^{1/2}; 0 where that is 0.
    """
    grid = sigma.grid
    e = 1.0 - lam / grid.dimension
    num_f = np.zeros(grid.mesh_shape)
    den_f = np.zeros(grid.mesh_shape)
    for q, s, a in zip(cubes, partners, coeffs):
        es = sigma.cube_mass(s) / s.volume ** e
        num_f[q.slices()] += (a * es) ** 2
        den_f[s.slices()] += a ** 2
    num = float(np.sum(omega.flat_mass * num_f.ravel() ** (p / 2.0))) ** (1.0 / p)
    den = float(np.sum(sigma.flat_mass * den_f.ravel() ** (p / 2.0))) ** (1.0 / p)
    return num / den if den > 0.0 else 0.0


def mesh_values(h: HaarWavelet) -> np.ndarray:
    """The wavelet's values on the mesh: each child's value on its cells."""
    out = np.zeros(h.cube.grid.mesh_shape)
    for child, v in zip(h.cube.children(), h.child_values):
        if v != 0.0:
            out[child.slices()] = v
    return out


def rotated_system(system: HaarSystem, rng: np.random.Generator) -> HaarSystem:
    """The system with each cube's wavelets turned by a Haar-random
    orthogonal matrix, a random sign where the cube has one wavelet: the
    same span cube by cube, in 1-D too."""
    levels = []
    for lv in system.levels:
        values = lv.child_values.copy()
        for start, count in zip(lv.starts.tolist(), lv.counts.tolist()):
            if count:
                q, r = np.linalg.qr(rng.standard_normal((count, count)))
                rows = slice(start, start + count)
                values[rows] = (q * np.sign(np.diag(r))) @ values[rows]
        levels.append(HaarLevel(level=lv.level, cubes=lv.cubes, child_values=values,
                                child_masses=lv.child_masses))
    return HaarSystem(measure=system.measure, depth=system.depth, levels=levels)


def haar_matrix(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure, omega: MeshMeasure,
                depth: int, rotation: int | None = None) -> HaarMatrix:
    """`assemble_haar_matrix`, or with a rotation seed the same fold
    between the two systems turned by `rotated_system`, sigma's first, with
    one generator of that seed."""
    if rotation is None:
        return assemble_haar_matrix(kernel, trunc, sigma, omega, depth)
    rng = np.random.default_rng(rotation)
    fold = HaarMatrixFold(rotated_system(cached_system(sigma, depth), rng),
                          rotated_system(cached_system(omega, depth), rng))
    _fold_images(kernel, trunc, sigma, depth, fold.add)
    return fold.matrix(kernel, trunc)


def golub_kahan_triple(matvec, rmatvec, n: int) -> tuple:
    """(value, unit right vector, steps, converged) of the largest singular
    value of A, given as x -> A x and y -> A^T y on vectors of length n.

    Golub-Kahan-Lanczos bidiagonalization with full reorthogonalization:
    A V_k = U_k B_k with B_k upper bidiagonal, and the top singular triple
    (s, p, q) of B_k, from the top eigenpair (s^2, p) of the tridiagonal
    B_k B_k^T and q = B_k^T p / s, gives v = V_k q with A v = s U_k p and
    the residual |A^T U_k p - s v| = beta_k |p_k|. A zero image of the
    start gives 0 and a zero vector in 0 steps; a later alpha or beta at
    rounding level of the first alpha ends the steps.
    """
    right, betas = _LanczosBasis(n), []  # betas[0]: the start's norm
    right.add(np.random.default_rng(0).standard_normal(n), betas, 0.0)
    u = matvec(right[0])
    if not np.any(u):
        return 0.0, np.zeros(n), 0, True
    floor = np.finfo(float).eps * n * float(np.linalg.norm(u))
    left, alphas = _LanczosBasis(u.size), []
    for k in range(min(n, _NORM_MAX_ITERS)):
        r = rmatvec(left.add(u, alphas, floor)) - alphas[-1] * right[k]
        right.add(r, betas, floor)
        b = np.diag(alphas) + np.diag(betas[1:-1], 1)
        squares, lefts = np.linalg.eigh(b @ b.T)
        s, p = float(np.sqrt(squares[-1])), lefts[:, -1]
        converged = betas[-1] * abs(p[-1]) <= _NORM_TOL * s
        if converged or k + 1 == min(n, _NORM_MAX_ITERS):
            return s, sum(c * row for c, row in zip(b.T @ p / s, right)), k + 1, bool(converged)
        u = matvec(right[k + 1]) - betas[-1] * left[-1]


def greedy_halo_cover(measure: MeshMeasure, box, epsilon: float, eta: float):
    """(t, keys, leftover) of `halo_cover`'s greedy cover, or None where the
    mesh runs out first, by the per-cube loop: every cube of each allowed
    level, coarse to fine, is taken when `_inside` accepts it and none of
    its cells is covered yet."""
    grid = measure.grid
    lo, side = np.asarray(box[0], dtype=float), float(box[1])
    center, half = lo + 0.5 * side, 0.5 * eta * side
    lo_e, hi_e = center - half, center + half
    halo_mass, box_mass = measure.box_mass(lo_e, hi_e), measure.box_mass(lo, lo + side)
    wside, slack = float(grid.window_upper[0] - grid.window_lower[0]), 1e-12 * side
    for t in range(1, grid.max_level + 64):
        levels = [k for k in range(grid.max_level + 1)
                  if side * 2.0**-t <= wside * 2.0**-k <= eta * side + slack]
        covered = np.zeros(grid.mesh_shape, dtype=bool)
        cubes = []
        for k in levels:
            for cube in grid.cubes_at_level(k):
                if _inside(cube, lo_e, hi_e, slack) and not covered[cube.slices()].any():
                    covered[cube.slices()] = True
                    cubes.append(cube)
        leftover = max(halo_mass - sum(measure.cube_mass(c) for c in cubes), 0.0)
        if leftover < epsilon * box_mass:
            return t, tuple(sorted(c.key() for c in cubes)), leftover
        if side * 2.0**-t < grid.cell_side:
            return None
