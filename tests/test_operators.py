import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

import haartest.operators as operators
import haartest.characteristics as characteristics
from haartest.characteristics import matched_haar_testing, operator_norm, pair_bundle, reevaluate
from haartest.dyadic import Grid
from haartest.haar import cached_system, normalize_sign
from haartest.measure import custom_cells, lebesgue, near_point_mass, random_dyadic_doubling
from haartest.operators import (
    KERNEL_FAMILIES,
    Kernel,
    Truncation,
    TruncationError,
    apply,
    assemble_haar_matrix,
    default_truncation,
    image_blocks,
    image_rows,
    kernel_matrix,
    make_kernel,
    require_resolved,
    smoothstep,
)
from oracles import (
    dense_kernel_matrix,
    golub_kahan_triple,
    haar_matrix,
    mesh_values,
    points_matrix,
)


def test_kernel_closed_forms():
    hil = make_kernel("hilbert", 0.0, 1)
    np.testing.assert_allclose(hil.eval([0.5], [0.25]), 4.0)
    np.testing.assert_allclose(hil.eval([0.25], [0.5]), -4.0)
    assert hil.eval([0.3], [0.3]) == 0.0

    frac = make_kernel("fractional_integral", 0.5, 1)
    np.testing.assert_allclose(frac.eval([0.5], [0.25]), 0.25 ** -0.5)
    # symmetric in its arguments
    np.testing.assert_allclose(frac.eval([0.25], [0.5]), frac.eval([0.5], [0.25]))

    riesz = make_kernel("riesz_like", 0.5, 2)
    x = np.array([0.5, 0.5])
    y = np.array([0.25, 0.25])
    r = np.linalg.norm(x - y)
    np.testing.assert_allclose(riesz.eval(x, y), 0.25 * r ** (0.5 - 2.0 - 1.0))


def test_kernel_antisymmetry_classes():
    hil = make_kernel("hilbert", 0.0, 1)
    x, y = np.array([0.7]), np.array([0.2])
    np.testing.assert_allclose(hil.eval(x, y), -hil.eval(y, x))
    np.testing.assert_allclose(hil.transpose().eval(x, y), hil.eval(y, x))
    frac = make_kernel("fractional_integral", 0.3, 1)
    assert frac.transpose() is frac


def test_declared_flatness_thresholds():
    assert make_kernel("hilbert", 0.0, 1).delta0 == pytest.approx(0.25)
    assert make_kernel("fractional_integral", 0.5, 1).delta0 == pytest.approx(1.0 / 7.0)


def test_make_kernel_validation():
    with pytest.raises(ValueError):
        make_kernel("unknown", 0.0, 1)
    with pytest.raises(ValueError):
        make_kernel("hilbert", 0.5, 1)
    with pytest.raises(ValueError):
        make_kernel("hilbert", 0.0, 2)
    with pytest.raises(ValueError):
        make_kernel("fractional_integral", 1.0, 1)
    with pytest.raises(ValueError):
        make_kernel("riesz_like", 0.0, 2, direction=(0.0, 1.0))
    assert set(KERNEL_FAMILIES) == {"hilbert", "fractional_integral", "riesz_like"}


@pytest.mark.parametrize("family,lam,dim", [
    ("hilbert", 0.0, 1),
    ("fractional_integral", 0.5, 1),
    ("fractional_integral", 0.7, 2),
    ("riesz_like", 0.5, 2),
])
def test_grad2_matches_finite_differences(family, lam, dim):
    k = make_kernel(family, lam, dim)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.uniform(0, 1, size=dim)
        y = x + rng.uniform(0.2, 0.4, size=dim)
        h = 1e-6
        fd = np.zeros(dim)
        for i in range(dim):
            step = np.zeros(dim)
            step[i] = h
            fd[i] = (k.eval(x, y + step) - k.eval(x, y - step)) / (2 * h)
        np.testing.assert_allclose(k.grad2(x, y), fd, rtol=1e-5, atol=1e-8)


def test_truncation_profile_shape():
    t = Truncation(0.1, 1.0)
    assert t.plateau() == (0.2, 0.5)
    d = np.array([0.05, 0.1, 0.2, 0.35, 0.5, 1.0, 1.5])
    s = t.scale(d)
    np.testing.assert_array_equal(s[:2], [0.0, 0.0])
    np.testing.assert_allclose(s[2:5], 1.0)
    assert s[5] == 0.0 and s[6] == 0.0
    # strictly between 0 and 1 on the ramps
    mid = t.scale(np.array([0.15, 0.75]))
    assert np.all((0.0 < mid) & (mid < 1.0))
    with pytest.raises(ValueError):
        Truncation(0.3, 1.0)
    with pytest.raises(ValueError):
        Truncation(-0.1, 1.0)


def test_smoothstep_endpoints():
    np.testing.assert_allclose(smoothstep([-1.0, 0.0, 0.5, 1.0, 2.0]),
                               [0.0, 0.0, 0.5, 1.0, 1.0])


def test_default_truncation_plateau(grid1_full):
    t = default_truncation(grid1_full)
    lo, hi = t.plateau()
    assert lo == pytest.approx(2.0 ** -7)
    assert hi == pytest.approx(2.0)
    require_resolved(t, grid1_full)


def test_require_resolved_raises():
    g = Grid(dimension=1, max_level=4)
    with pytest.raises(TruncationError):
        require_resolved(Truncation(g.cell_side, 1.0), g)


def test_apply_matches_dense_oracle():
    g = Grid(dimension=1, max_level=5)
    sigma = random_dyadic_doubling(g, 2.0, seed=2)
    k = make_kernel("hilbert", 0.0, 1)
    t = Truncation(4 * g.cell_side, 2.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(g.cells_per_axis)
    got = apply(k, t, sigma, f).ravel()
    centers = g.window_lower[0] + (np.arange(g.cells_per_axis) + 0.5) * g.cell_side
    want = np.zeros_like(got)
    for i, x in enumerate(centers):
        acc = 0.0
        for j, y in enumerate(centers):
            dist = abs(x - y)
            if dist == 0.0:
                continue
            acc += (1.0 / (x - y)) * t.scale(dist) * f[j] * sigma.flat_mass[j]
        want[i] = acc
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dim, level, family, lam", [
    (1, 8, "hilbert", 0.0),
    (2, 4, "riesz_like", 0.5),
    (2, 4, "fractional_integral", 1.2),
])
def test_kernel_matrix_matches_pairwise_build(dim, level, family, lam):
    # on a dyadic window the centers are exact, so the G of the offset table
    # (the adjoint's a reversed view) reproduces the pairwise build bit for
    # bit; on a shifted window the pairwise build sees rounded centers
    dyadic = Grid(dimension=dim, max_level=level)
    shifted = Grid(dimension=dim, max_level=level, origin=(0.1,) * dim,
                   shift=(0.3,) * dim, side=0.7)
    kernel = make_kernel(family, lam, dim)
    for k in (kernel, kernel.transpose()):
        trunc = default_truncation(dyadic)
        assert np.array_equal(dense_kernel_matrix(k, trunc, dyadic),
                              points_matrix(k, trunc, dyadic.flat_centers, dyadic))
        trunc = default_truncation(shifted)
        got = dense_kernel_matrix(k, trunc, shifted)
        want = points_matrix(k, trunc, shifted.flat_centers, shifted)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_assemble_haar_matrix_against_direct_sums():
    g = Grid(dimension=1, max_level=4)
    sigma = random_dyadic_doubling(g, 2.0, seed=4)
    omega = random_dyadic_doubling(g, 2.0, seed=5)
    k = make_kernel("hilbert", 0.0, 1)
    t = Truncation(4 * g.cell_side, 2.0)
    depth = 2
    mat = assemble_haar_matrix(k, t, sigma, omega, depth)
    ssys = cached_system(sigma, depth)
    osys = cached_system(omega, depth)
    centers = g.window_lower[0] + (np.arange(g.cells_per_axis) + 0.5) * g.cell_side
    for r, hw in enumerate(osys.wavelets):
        hrow = mesh_values(hw).ravel()
        for c, hv in enumerate(ssys.wavelets):
            hcol = mesh_values(hv).ravel()
            acc = 0.0
            for i, x in enumerate(centers):
                if hrow[i] == 0.0:
                    continue
                for j, y in enumerate(centers):
                    if hcol[j] == 0.0 or i == j:
                        continue
                    acc += (hrow[i] * omega.flat_mass[i]
                            * (1.0 / (x - y)) * t.scale(abs(x - y))
                            * hcol[j] * sigma.flat_mass[j])
            np.testing.assert_allclose(mat.entries[r, c], acc, rtol=1e-12, atol=1e-14)
    assert mat.kernel is k and mat.trunc is t


# (grid, depth, kernel family, lambda): factor 2**(max_level - depth) runs
# the pairwise adds (2), the fused last axis (>= 4) and no sum at all (1)
IMAGE_CASES = {
    "1d-fused": (Grid(dimension=1, max_level=7), 3, "hilbert", 0.0),
    "1d-full-depth": (Grid(dimension=1, max_level=7), 7, "hilbert", 0.0),
    "2d-pairwise": (Grid(dimension=2, max_level=4), 3, "riesz_like", 0.5),
    "2d-fused": (Grid(dimension=2, max_level=4), 2, "riesz_like", 0.5),
    "2d-full-depth": (Grid(dimension=2, max_level=4), 4, "fractional_integral", 0.5),
    "2d-non-dyadic": (Grid(dimension=2, origin=(0.3, -0.7), side=1.7, shift=(0.05, 0.1),
                           max_level=4), 3, "fractional_integral", 1.0),
}


def _holed(grid):
    """2-D L=4 doubling measure with an empty quadrant and half of cube
    1:0,0 empty, so its cubes carry 0 to 3 wavelets."""
    cells = random_dyadic_doubling(grid, 3.0, seed=5).cell_mass.copy()
    cells[8:, 8:] = 0.0
    cells[:8, 4:8] = 0.0
    return custom_cells(grid, cells, label="holed")


# full-depth cases (depth = max_level, where the level-`depth` cubes are the
# cells) with their own sigma
IMAGE_CASES.update({
    "1d-L8-full-depth": (Grid(dimension=1, max_level=8), 8, "hilbert", 0.0),
    "2d-holed-full-depth": (Grid(dimension=2, max_level=4), 4, "riesz_like", 0.5, _holed),
    "1d-point-full-depth": (Grid(dimension=1, max_level=8), 8, "hilbert", 0.0,
                            lambda grid: near_point_mass(grid, 12.0)),
    "2d-point-full-depth": (Grid(dimension=2, max_level=4), 4, "riesz_like", 0.5,
                            lambda grid: near_point_mass(grid, 9.0)),
})


def _image_case(name):
    grid, depth, family, lam, *sigma_of = IMAGE_CASES[name]
    kernel = make_kernel(family, lam, grid.dimension)
    g = dense_kernel_matrix(kernel, default_truncation(grid), grid)
    sigma = sigma_of[0](grid) if sigma_of else random_dyadic_doubling(grid, 3.0, seed=21)
    omega = random_dyadic_doubling(grid, 2.0, seed=22)
    return grid, depth, kernel, g, sigma, omega


def _weighted_values(system):
    """sigma-weighted cell values of the wavelets, one row each, from the
    per-wavelet objects rather than the system's dense matrices."""
    return np.array([mesh_values(h).ravel() for h in system.wavelets]) * system.measure.flat_mass


def _stream_images(kernel, sigma, level):
    """The level-`level` cube images of `image_blocks`, its blocks
    concatenated: (n_cells,) + (2**level,)*n."""
    blocks = image_blocks(kernel, default_truncation(sigma.grid), sigma, level)
    return np.moveaxis(np.concatenate([levels[level] for _, levels in blocks], axis=-1), -1, 0)


def _assert_close_to(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("name", sorted(IMAGE_CASES))
def test_cube_images_match_indicator_products(name):
    grid, depth, kernel, g, sigma, _ = _image_case(name)
    got = _stream_images(kernel, sigma, depth).reshape(grid.n_cells, -1)
    want = np.array([g @ (cube.indicator().ravel() * sigma.flat_mass)
                     for cube in grid.cubes_at_level(depth)]).T
    _assert_close_to(got, want)


@pytest.mark.parametrize("name", sorted(IMAGE_CASES))
def test_wavelet_images_match_dense_product(name):
    _, depth, kernel, g, sigma, _ = _image_case(name)
    system = cached_system(sigma, depth)
    _assert_close_to(system.analyse_cube_sums(_stream_images(kernel, sigma, depth)),
                     g @ _weighted_values(system).T)


@pytest.mark.parametrize("name", sorted(IMAGE_CASES))
@pytest.mark.parametrize("rotation", [None, 3])
def test_assemble_haar_matrix_matches_dense_products(name, rotation):
    # with a rotation, the fold runs between systems in another basis of
    # each cube's span (`oracles.rotated_system`)
    grid, depth, kernel, g, sigma, omega = _image_case(name)
    mat = haar_matrix(kernel, default_truncation(grid), sigma, omega, depth, rotation)
    ssys, osys = mat.sigma_system, mat.omega_system
    if rotation is None:
        assert ssys is cached_system(sigma, depth) and osys is cached_system(omega, depth)
    _assert_close_to(mat.entries, _weighted_values(osys) @ g @ _weighted_values(ssys).T)


def test_assemble_requires_shared_grid():
    g1 = Grid(dimension=1, max_level=4)
    g2 = Grid(dimension=1, max_level=5)
    k = make_kernel("hilbert", 0.0, 1)
    t = Truncation(4 * g1.cell_side, 2.0)
    with pytest.raises(ValueError):
        assemble_haar_matrix(k, t, lebesgue(g1), lebesgue(g2), 2)


def _norm_pairs(corpus1):
    """(sigma, omega, kernel, depth): the conftest corpus against itself at
    full depth (255 x 255 Haar blocks) and a 2-D pair on L=5 at depth 4
    (255 x 255 as well)."""
    for i, sigma in enumerate(corpus1):
        yield sigma, corpus1[(i + 3) % len(corpus1)], make_kernel("hilbert", 0.0, 1), 8
    grid = Grid(dimension=2, max_level=5)
    yield (random_dyadic_doubling(grid, 2.0, seed=61), random_dyadic_doubling(grid, 3.0, seed=62),
           make_kernel("riesz_like", 0.5, 2), 4)


def _norm_matrices(corpus1):
    """The Haar matrices of `_norm_pairs`, then random square matrices from
    15 to 1023 rows, two rank-one and a zero matrix, each as the entries of
    the first Haar matrix."""
    matrices = [assemble_haar_matrix(kernel, default_truncation(sigma.grid), sigma, omega, depth)
                for sigma, omega, kernel, depth in _norm_pairs(corpus1)]
    rng = np.random.default_rng(63)
    entries = [rng.standard_normal((size, size)) for size in (15, 63, 255, 1023)]
    entries += [np.outer(rng.standard_normal(255), rng.standard_normal(200)),
                np.outer(rng.standard_normal(9), rng.standard_normal(15)), np.zeros((70, 80))]
    return matrices, [dataclasses.replace(matrices[0], entries=e) for e in entries]


def _matrix_norm(matrix):
    """(|entries v|, v, steps, converged) of the solver's run on the
    entries' normal matrix, with v its sign-normalized top right vector."""
    a = matrix.entries
    _, v, steps, converged = characteristics._top_singular_triple(
        lambda x: a.T @ (a @ x), a.shape[1])
    v = normalize_sign(v)
    return float(np.linalg.norm(a @ v)), v, steps, converged


def test_haar_matrix_norm_matches_the_dense_norm(corpus1):
    # the Lanczos tridiagonal of A^T A gives the spectral norm of every
    # block, small or large, to rounding
    haar, other = _norm_matrices(corpus1)
    for matrix in haar + other:
        value, v, steps, converged = _matrix_norm(matrix)
        want = np.linalg.norm(matrix.entries, 2)
        assert abs(value - want) <= 1e-13 * want
        assert converged
        assert (steps > 0) == (want > 0.0)
        assert np.linalg.norm(v) == pytest.approx(1.0 if want > 0.0 else 0.0, abs=1e-14)
    assert _matrix_norm(other[-1])[1].tolist() == [0.0] * 80


@pytest.mark.parametrize("depth", [4, 6])
def test_haar_matrix_norm_witness_of_a_double_top_value_is_stable(depth):
    # on a lebesgue/lebesgue pair the top singular value of the Haar block
    # is double to rounding, so every unit vector of a plane is a top
    # vector: the witness, the fixed start's projection on that plane, does
    # not move when rounding-level noise moves the entries
    grid = Grid(dimension=1, max_level=10)
    matrix = assemble_haar_matrix(make_kernel("hilbert", 0.0, 1), default_truncation(grid),
                                  lebesgue(grid), lebesgue(grid), depth)
    svals = np.linalg.svd(matrix.entries, compute_uv=False)
    assert svals[1] >= (1.0 - 1e-13) * svals[0] and svals[2] < 0.99 * svals[0]
    witness = _matrix_norm(matrix)[1]
    rng = np.random.default_rng(64)
    for _ in range(5):
        noisy = matrix.entries * (1.0 + 1e-15 * rng.standard_normal(matrix.entries.shape))
        v = _matrix_norm(dataclasses.replace(matrix, entries=noisy))[1]
        assert np.abs(v - witness).max() <= 1e-10


def test_haar_matrix_norm_dominates_matched_testing(corpus1):
    # the block norm dominates the norm of every column block and every row
    # block, so both matched testing constants
    haar, _ = _norm_matrices(corpus1)
    for matrix in haar:
        bound = max(matched_haar_testing(matrix).value,
                    matched_haar_testing(matrix, dual=True).value)
        assert _matrix_norm(matrix)[0] >= bound * (1.0 - 1e-13)


def _mesh_norm_cases():
    """(sigma, omega, kernel): 1-D L=7 and 2-D L=4 doubling pairs, each
    also with sigma or omega massless on a block of cells."""
    for grid, kernel in ((Grid(dimension=1, max_level=7), make_kernel("hilbert", 0.0, 1)),
                         (Grid(dimension=2, max_level=4), make_kernel("riesz_like", 0.5, 2))):
        sigma = random_dyadic_doubling(grid, 2.0, seed=71)
        omega = random_dyadic_doubling(grid, 3.0, seed=72)
        holed = custom_cells(grid, np.where(np.arange(grid.n_cells) % 16 < 5, 0.0,
                                            sigma.flat_mass))
        yield sigma, omega, kernel
        yield holed, omega, kernel
        yield omega, holed, kernel.transpose()


def test_operator_norm_is_the_dense_mesh_norm(monkeypatch):
    # the top singular value of diag(sqrt omega) G diag(sqrt sigma), with no
    # image pass; its witness is 0 where sigma is, re-evaluates to the value
    # bit for bit, and the Haar matrix's call gives the same report
    monkeypatch.setattr(characteristics, "_fold_images", None)
    for sigma, omega, kernel in _mesh_norm_cases():
        trunc = default_truncation(sigma.grid)
        rep = pair_bundle(sigma, omega, kernel, trunc, 3, ("operator_norm",))["operator_norm"]
        g = dense_kernel_matrix(kernel, trunc, sigma.grid)
        want = np.linalg.norm(np.sqrt(omega.flat_mass)[:, None] * g * np.sqrt(sigma.flat_mass), 2)
        assert abs(rep.value - want) <= 1e-12 * want
        assert rep.search_space["converged"] and rep.witness["side"] == "mesh"
        f = np.array(rep.witness["coefficients"])
        assert np.all(f[sigma.flat_mass == 0.0] == 0.0)
        assert np.sqrt(sigma.flat_mass @ f ** 2) == pytest.approx(1.0, abs=1e-14)
        assert reevaluate(rep, sigma, omega) == rep.value
        matrix = haar_matrix(kernel, trunc, sigma, omega, 3)
        assert operator_norm(matrix).as_dict() == rep.as_dict()


def _mesh_products(sigma, omega, kernel):
    """x -> A x and y -> A^T y of the mesh norm's A = diag(sqrt omega) G
    diag(sqrt sigma)."""
    grid, trunc = sigma.grid, default_truncation(sigma.grid)
    forward, adjoint = (operators._fft_operator(op, trunc, grid)
                        for op in (kernel, kernel.transpose()))
    root_s, root_o = np.sqrt(sigma.flat_mass), np.sqrt(omega.flat_mass)
    return (lambda x: root_o * forward((root_s * x)[None])[0],
            lambda y: root_s * adjoint((root_o * y)[None])[0])


def test_lanczos_on_the_normal_operator_takes_the_golub_kahan_steps(corpus1, monkeypatch):
    # Lanczos on A^T A keeps the right basis of Golub-Kahan-Lanczos from the
    # same start: each solve of the Haar blocks and of the mesh norm takes
    # the same steps to the same value and top right vector, to rounding
    solves = []
    solve = characteristics._top_singular_triple
    monkeypatch.setattr(characteristics, "_top_singular_triple",
                        lambda normal, n: solves.append(solve(normal, n)) or solves[-1])
    products = []
    haar, other = _norm_matrices(corpus1)
    for matrix in haar + other:
        _matrix_norm(matrix)
        products.append((matrix.entries.__matmul__, matrix.entries.T.__matmul__))
    for sigma, omega, kernel in _mesh_norm_cases():
        characteristics._mesh_norm(sigma, omega, kernel, default_truncation(sigma.grid))
        products.append(_mesh_products(sigma, omega, kernel))
    assert len(solves) == len(products) == 20
    for (value, v, steps, converged), (matvec, rmatvec) in zip(solves, products):
        want, w, want_steps, want_converged = golub_kahan_triple(matvec, rmatvec, v.size)
        assert (steps, converged) == (want_steps, want_converged)
        assert abs(value - want) <= 1e-13 * want
        w = normalize_sign(w)
        assert np.abs(normalize_sign(v) - w).max() <= 1e-12 * np.abs(w).max()


def test_each_norm_solve_keeps_one_lanczos_basis(corpus1, monkeypatch):
    made = []
    basis = characteristics._LanczosBasis
    monkeypatch.setattr(characteristics, "_LanczosBasis", lambda n: made.append(n) or basis(n))
    haar, _ = _norm_matrices(corpus1)
    _matrix_norm(haar[-1])
    assert made == [haar[-1].entries.shape[1]]
    made.clear()
    sigma, omega, kernel = next(_mesh_norm_cases())
    characteristics._mesh_norm(sigma, omega, kernel, default_truncation(sigma.grid))
    assert made == [sigma.grid.n_cells]


def test_lebesgue_hilbert_norm_climbs_towards_pi():
    # on the 1-D Lebesgue pair every mesh's A is a finite section of one
    # Toeplitz matrix whose symbol has sup pi: the sections are nested, so
    # the norms rise with L and stay below pi, which they approach
    values = []
    for level in range(6, 13):
        grid = Grid(dimension=1, max_level=level)
        mu = lebesgue(grid)
        values.append(characteristics._mesh_norm(mu, mu, make_kernel("hilbert", 0.0, 1),
                                                 default_truncation(grid)).value)
    assert max(values) < np.pi
    assert values == sorted(values)
    assert values[-1] > 3.1


def test_operator_norm_dominates_every_testing_constant(corpus1):
    # N_T(sigma, omega) bounds the norm of T_sigma on each test function, so
    # every testing constant, the dual ones (|T*| = |T|) and the Haar block
    # norm, which is |T| on the wavelets' span: the gate's N >= (H + H*)/2
    pairs = [(sigma, omega, make_kernel("hilbert", 0.0, 1), 6)
             for sigma in corpus1 for omega in corpus1]
    grid = Grid(dimension=2, max_level=5)
    sigma, omega = (random_dyadic_doubling(grid, r, seed=s) for r, s in ((2.0, 61), (3.0, 62)))
    pairs.append((sigma, omega, make_kernel("riesz_like", 0.5, 2), 4))
    for sigma, omega, kernel, depth in pairs:
        trunc = default_truncation(sigma.grid)
        bundle = pair_bundle(sigma, omega, kernel, trunc, depth)
        matrix = assemble_haar_matrix(kernel, trunc, sigma, omega, depth)
        below = [rep.value for name, rep in bundle.items() if name != "operator_norm"]
        below += [matched_haar_testing(matrix).value,
                  matched_haar_testing(matrix, dual=True).value, _matrix_norm(matrix)[0]]
        assert bundle["operator_norm"].value >= max(below) * (1.0 - 1e-12)


# -- sampled checks of the declared kernel constants ----------------------------
#
# The paper's hypotheses on the kernel (size and smoothness bounds, lower
# ellipticity along a direction) as sampled finite-difference checks of the
# constants `make_kernel` declares.

class BoundViolation(AssertionError):
    """A declared kernel constant failed a sampled check."""

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


@pytest.mark.parametrize("family,lam", [("hilbert", 0.0), ("fractional_integral", 0.5)])
def test_check_cz_bounds_passes(grid1_full, family, lam):
    k = make_kernel(family, lam, 1)
    t = default_truncation(grid1_full)
    rep = check_cz_bounds(k, t, grid1_full, samples=40, seed=0)
    # no BoundViolation raised; every measured constant sits under its declared one
    for meas, decl in zip(rep.measured, rep.declared):
        assert meas <= decl * (1.0 + 1e-3)
    assert rep.worst_pair is not None


def test_check_ellipticity_families():
    for family, lam, dim in [("hilbert", 0.0, 1),
                             ("fractional_integral", 0.5, 1),
                             ("riesz_like", 0.5, 2)]:
        k = make_kernel(family, lam, dim)
        for kappa in (0, 1):
            rep = check_ellipticity(k, kappa=kappa, samples=32, seed=0)
            assert rep.inf_sum_ratio >= rep.declared * (1.0 - 1e-6), family
    with pytest.raises(ValueError):
        check_ellipticity(make_kernel("hilbert", 0.0, 1), kappa=2)


def test_check_ellipticity_perturbed_cone():
    k = make_kernel("riesz_like", 0.5, 2)
    rep = check_ellipticity(k, kappa=1, samples=48, seed=3, perturb=True)
    assert rep.perturbed_inf is not None
    assert rep.perturbed_inf >= 0.5 * rep.declared * (1.0 - 1e-6)


# (grid, kernel family, lambda) of the adjoint tests
ADJOINT_CASES = {
    "1d-hilbert": (Grid(dimension=1, max_level=7), "hilbert", 0.0),
    "1d-riesz_like": (Grid(dimension=1, max_level=7), "riesz_like", 0.5),
    "2d-riesz_like": (Grid(dimension=2, max_level=4), "riesz_like", 0.5),
    "1d-fractional_integral": (Grid(dimension=1, max_level=7), "fractional_integral", 0.5),
    "2d-fractional_integral": (Grid(dimension=2, max_level=4), "fractional_integral", 1.2),
}


@pytest.mark.parametrize("name", sorted(ADJOINT_CASES))
def test_adjoint_kernel_matrix_is_a_view(name):
    # the adjoint's offset table is the operator's reversed on every axis,
    # a view of the same array for the odd families, and its G is G^T
    grid, family, lam = ADJOINT_CASES[name]
    kernel, trunc = make_kernel(family, lam, grid.dimension), default_truncation(grid)
    table = kernel_matrix(kernel, trunc, grid)
    adjoint = kernel_matrix(kernel.transpose(), trunc, grid)
    assert table.shape == (2 * grid.cells_per_axis - 1,) * grid.dimension
    if family == "fractional_integral":
        assert adjoint is table
    else:
        assert np.array_equal(adjoint, table[(slice(None, None, -1),) * grid.dimension])
        assert np.shares_memory(adjoint, table)
    g = dense_kernel_matrix(kernel, trunc, grid)
    assert np.array_equal(dense_kernel_matrix(kernel.transpose(), trunc, grid), g.T)
    sigma = random_dyadic_doubling(grid, 3.0, seed=23)
    f = np.random.default_rng(24).standard_normal(grid.mesh_shape)
    got = apply(kernel.transpose(), trunc, sigma, f).ravel()
    want = np.ascontiguousarray(g.T) @ (f.ravel() * sigma.flat_mass)
    _assert_close_to(got, want)


@pytest.mark.parametrize("name", sorted(ADJOINT_CASES))
def test_apply_to_a_stack_matches_row_products(name):
    # each row of a (k, n_cells) stack gets the image of that row alone, bit
    # for bit, and the dense product G @ (f sigma) to 1e-13 of its largest
    # entry (the transform rounds otherwise), for the kernel and for its
    # adjoint (the G of the reversed offset table for the odd families)
    grid, family, lam = ADJOINT_CASES[name]
    kernel, trunc = make_kernel(family, lam, grid.dimension), default_truncation(grid)
    sigma = random_dyadic_doubling(grid, 3.0, seed=26)
    stack = np.random.default_rng(27).standard_normal((3, grid.n_cells))
    for k in (kernel, kernel.transpose()):
        g = dense_kernel_matrix(k, trunc, grid)
        got = apply(k, trunc, sigma, stack)
        assert got.shape == stack.shape
        for row, image in zip(stack, got):
            _assert_close_to(image, g @ (row * sigma.flat_mass), rel=1e-13)
            np.testing.assert_array_equal(
                image, apply(k, trunc, sigma, row.reshape(grid.mesh_shape)).ravel())
        assert apply(k, trunc, sigma, stack[:0]).shape == (0, grid.n_cells)


def _cube_indicators(grid, sigma, level):
    """(n_cells, cubes) sigma-weighted indicator of every level-`level` cube."""
    return np.array([cube.indicator().ravel() * sigma.flat_mass
                     for cube in grid.cubes_at_level(level)]).T


def _adjoint_image_cases():
    for grid, family, lam in (ADJOINT_CASES["1d-hilbert"], ADJOINT_CASES["2d-riesz_like"]):
        for level in (0, 1, grid.max_level - 1, grid.max_level):
            yield pytest.param(grid, family, lam, level,
                               id=f"{grid.dimension}d-L{grid.max_level}-level{level}")


@pytest.mark.parametrize("grid, family, lam, level", _adjoint_image_cases())
@pytest.mark.parametrize("measure", ["doubling", "holed"])
def test_cube_images_of_the_adjoint_view(monkeypatch, grid, family, lam, level, measure):
    # the adjoint's stream reads the reversed view of the operator's offset
    # table, in one block or, on the window route, by blocks of rows of an
    # eighth of the images each; both match the dense product
    kernel, trunc = make_kernel(family, lam, grid.dimension), default_truncation(grid)
    sigma = random_dyadic_doubling(grid, 3.0, seed=25)
    if measure == "holed":
        cells = sigma.cell_mass.copy()
        cells[(slice(0, grid.cells_per_axis // 4),) * grid.dimension] = 0.0
        cells.ravel()[-3:] = 0.0
        sigma = custom_cells(grid, cells, label="holed")
    want = dense_kernel_matrix(kernel.transpose(), trunc, grid) @ _cube_indicators(
        grid, sigma, level)
    images = {"whole": _stream_images(kernel.transpose(), sigma, level)}
    monkeypatch.setattr(operators, "_IMAGE_BLOCK_ENTRIES",
                        (grid.n_cells << (grid.dimension * level)) // 8)
    assert operators._fft_route(grid, level) or len(image_rows(grid, level)) > 1
    images["blocks"] = _stream_images(kernel.transpose(), sigma, level)
    monkeypatch.undo()
    for got in images.values():
        _assert_close_to(got.reshape(grid.n_cells, -1), want)
    if level >= 1:
        system = cached_system(sigma, level)
        _assert_close_to(system.analyse_cube_sums(images["whole"]),
                         system.analyse_cube_sums(images["blocks"]))


# -- the FFT route -------------------------------------------------------------

FFT_CASES = {
    "1d-hilbert": (Grid(dimension=1, max_level=9), 2, "hilbert", 0.0),
    "2d-riesz_like": (Grid(dimension=2, max_level=5), 1, "riesz_like", 0.5),
    "2d-fractional_integral": (Grid(dimension=2, max_level=5), 1, "fractional_integral", 1.2),
}


def _fft_case(name, adjoint):
    grid, depth, family, lam = FFT_CASES[name]
    kernel = make_kernel(family, lam, grid.dimension)
    assert operators._fft_route(grid, depth)
    return grid, depth, kernel.transpose() if adjoint else kernel


@pytest.mark.parametrize("name", sorted(FFT_CASES))
@pytest.mark.parametrize("adjoint", [False, True], ids=["kernel", "adjoint"])
def test_fft_route_matches_the_dense_oracle(name, adjoint):
    # where cubes are wide, the cube images of every level and the action
    # of apply come by FFT, and match the dense G to 1e-12
    grid, depth, kernel = _fft_case(name, adjoint)
    trunc = default_truncation(grid)
    sigma = random_dyadic_doubling(grid, 3.0, seed=61)
    g = dense_kernel_matrix(kernel, trunc, grid)
    (rows, levels), = image_blocks(kernel, trunc, sigma, depth)
    assert rows == slice(0, grid.n_cells)
    for level in range(depth + 1):
        want = g @ _cube_indicators(grid, sigma, level)
        _assert_close_to(levels[level].reshape(-1, grid.n_cells).T, want)
    f = np.random.default_rng(62).standard_normal((3, grid.n_cells))
    _assert_close_to(apply(kernel, trunc, sigma, f), (g @ (f * sigma.flat_mass).T).T)


@pytest.mark.parametrize("name", sorted(FFT_CASES))
def test_fft_images_do_not_depend_on_the_batch(monkeypatch, name):
    # pocketfft transforms each row alone: batches of one cube, of three
    # (which divide no level's count) and of all give the same bits, and
    # so do the rows of an apply stack
    grid, depth, kernel = _fft_case(name, False)
    trunc = default_truncation(grid)
    sigma = random_dyadic_doubling(grid, 2.0, seed=63)
    f = np.random.default_rng(64).standard_normal((5, grid.n_cells))

    def images():
        (_, levels), = image_blocks(kernel, trunc, sigma, depth)
        return levels[depth], apply(kernel, trunc, sigma, f)

    whole = images()
    padded = (2 * grid.cells_per_axis) ** grid.dimension
    for rows in (1, 3):
        monkeypatch.setattr(operators, "_IMAGE_BLOCK_ENTRIES", rows * padded)
        for got, want in zip(images(), whole):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", sorted(FFT_CASES))
@pytest.mark.parametrize("depth_of", ["fft", "windows"])
def test_images_on_the_zero_band_are_exactly_zero(name, depth_of):
    # with rmax = 4 eps at its least, the truncated kernel vanishes between
    # cells farther apart than rmax: there every cube image and apply give
    # exactly 0 on both routes, not the transform's rounding
    grid, depth, kernel = _fft_case(name, False)
    depth = depth if depth_of == "fft" else grid.max_level
    assert operators._fft_route(grid, depth) == (depth_of == "fft")
    eps = 2.0 * grid.cell_diameter
    trunc = Truncation(eps=eps, rmax=4.0 * eps)
    sigma = random_dyadic_doubling(grid, 3.0, seed=65)
    support = dense_kernel_matrix(kernel, trunc, grid) != 0.0
    cubes = _cube_indicators(grid, sigma, depth)
    band = (support.astype(float) @ (cubes != 0.0)) == 0.0
    assert 0 < band.sum() < band.size
    blocks = image_blocks(kernel, trunc, sigma, depth)
    images = np.concatenate([levels[depth] for _, levels in blocks], axis=-1)
    images = images.reshape(-1, grid.n_cells).T
    assert np.all(images[band] == 0.0) and np.all(images[~band] != 0.0)
    f = np.zeros(grid.n_cells)
    f[:grid.n_cells // 2 ** grid.dimension] = 1.0  # the first slab of the first half
    image = apply(kernel, trunc, sigma, f.reshape(grid.mesh_shape)).ravel()
    far = (support.astype(float) @ f) == 0.0
    assert far.any() and np.all(image[far] == 0.0)
