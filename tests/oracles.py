"""Dense reference builds of the kernel matrix, for tests only.

`haartest.operators` never forms the N x N kernel matrix G whole past one
block; these build it whole to check the block stream and `apply` against.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from haartest.dyadic import Grid
from haartest.operators import Kernel, Truncation, kernel_matrix

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
