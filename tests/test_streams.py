"""The streamed scans against whole-image oracles.

Every scan folds the children's cube images one block of output cells at a
time (`operators.image_blocks`). The oracles below hold the wavelet and
cube images whole, as dense products with the kernel matrix, and compute
each characteristic from them cube by cube. Each case runs with the
default block budget, one block on these grids, and with a budget of three
slabs of images, which does not divide the slab count, so the last block is
shorter than the others. The Haar scans also run with their images forced
onto the FFT route, which these grids do not take by themselves.
"""
import tracemalloc

import numpy as np
import pytest

import haartest.characteristics as characteristics
import haartest.haar as haar
import haartest.operators as operators
from haartest.characteristics import (
    _PAIR_VARIANTS,
    LpConfig,
    _ROTATION_SAMPLES,
    _pair_scan,
    _restriction_weights,
    _size_setup,
    cube_testing,
    haar_testing,
    haar_testing_dual,
    lp_haar_testing,
    lp_haar_testing_dual,
    operator_norm,
    pair_bundle,
    quadratic_haar_testing,
)
from haartest.cli import main
from haartest.dyadic import Grid
from haartest.experiments import counterexample_search, triple_absorption_experiment
from haartest.haar import cached_system
from haartest.measure import random_dyadic_doubling
from haartest.operators import (
    assemble_haar_matrix,
    apply,
    default_truncation,
    image_blocks,
    image_rows,
    make_kernel,
)
from oracles import dense_kernel_matrix, haar_matrix

GRID_2D = Grid(dimension=2, max_level=4)


def _pair_2d(family, lam):
    return (random_dyadic_doubling(GRID_2D, 3.0, seed=51),
            random_dyadic_doubling(GRID_2D, 2.0, seed=52),
            make_kernel(family, lam, 2), 3)


def _case(name, corpus1):
    """(sigma, omega, kernel, depth): the conftest corpus against itself
    with the odd hilbert kernel, and a 2-D pair with an odd kernel (the
    adjoint's offset table a reversed view) and with an even one (its own
    adjoint)."""
    if name == "2d-odd":
        return _pair_2d("riesz_like", 0.5)
    if name == "2d-even":
        return _pair_2d("fractional_integral", 1.2)
    i = int(name.removeprefix("corpus"))
    return corpus1[i], corpus1[(i + 3) % len(corpus1)], make_kernel("hilbert", 0.0, 1), 5


CASES = [f"corpus{i}" for i in range(6)] + ["2d-odd", "2d-even"]


@pytest.fixture(params=["one-block", "short-last-block"])
def budget(request, monkeypatch):
    """Set the block budget for a grid and depth; return the blocks' rows."""
    def set_for(grid, depth):
        if request.param == "short-last-block":
            slab_images = (grid.n_cells >> depth) << (grid.dimension * depth)
            monkeypatch.setattr(operators, "_IMAGE_BLOCK_ENTRIES", 3 * slab_images)
        rows = image_rows(grid, depth)
        assert (len(rows) == 1) == (request.param == "one-block")
        return rows
    return set_for


@pytest.fixture(params=["windows", "fft"])
def route(request, monkeypatch):
    """Set the route of `image_blocks` for a grid and depth: the default,
    windows on these grids, or FFT (whose batches the block budget also
    sizes)."""
    def set_for(grid, depth):
        assert not operators._fft_route(grid, depth)
        if request.param == "fft":
            monkeypatch.setattr(operators, "_FFT_ROUTE_RATIO", 0.0)
        assert operators._fft_route(grid, depth) == (request.param == "fft")
    return set_for


def _cube_images(g, sigma, level):
    """Whole (n_cells, cubes) images of the level's cube indicators."""
    return g @ np.array([cube.indicator().ravel() * sigma.flat_mass
                         for cube in sigma.grid.cubes_at_level(level)]).T


def _wavelet_images(g, system):
    """Whole (n_cells, n_wavelets) images of the system's wavelets."""
    return g @ (system.values_matrix * system.measure.flat_mass).T


def _sign_fixed(v):
    lead = np.flatnonzero(np.abs(v) > 1e-13 * np.max(np.abs(v)))
    return -v if v[lead[0]] < 0 else v


def _haar_oracle(system, images, omega):
    """(value, cube, coefficients) of haar_testing: one SVD per cube of
    its weighted image block, the first strict maximum in system order."""
    best = (0.0, None, [])
    root = np.sqrt(omega.flat_mass)[:, None]
    for key, (start, count) in system.cube_slots.items():
        if not count:
            continue
        _, svals, vh = np.linalg.svd(root * images[:, start:start + count],
                                     full_matrices=False)
        if svals[0] > best[0]:
            best = (float(svals[0]), key, _sign_fixed(vh[0]))
    return best


def _cube_oracle(g, sigma, omega, mode, p, depth):
    """(value, cube) of cube_testing: every cube's value from its whole
    image, the first strict maximum, levels coarse to fine."""
    grid = sigma.grid
    best = (-1.0, None)
    for level in range(depth + 1):
        images = _cube_images(g, sigma, level)
        for c, cube in enumerate(grid.cubes_at_level(level)):
            smass = sigma.cube_mass(cube)
            if smass <= 0.0:
                continue
            weights = _restriction_weights(grid, omega.flat_mass, mode, cube)
            value = float(weights @ np.abs(images[:, c]) ** p) ** (1.0 / p) / smass ** (1.0 / p)
            if value > best[0]:
                best = (value, cube.key())
    return best


def _assert_haar(rep, oracle):
    value, cube, coefficients = oracle
    assert rep.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert rep.witness["cube"] == cube
    np.testing.assert_allclose(rep.witness["coefficients"], coefficients, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("name", CASES)
def test_streamed_haar_testing_matches_whole_images(name, corpus1, budget, route):
    sigma, omega, kernel, depth = _case(name, corpus1)
    trunc = default_truncation(sigma.grid)
    budget(sigma.grid, depth)
    route(sigma.grid, depth)
    ssys, osys = cached_system(sigma, depth), cached_system(omega, depth)
    images = _wavelet_images(dense_kernel_matrix(kernel, trunc, sigma.grid), ssys)
    _assert_haar(haar_testing(sigma, omega, kernel, trunc, depth=depth),
                 _haar_oracle(ssys, images, omega))
    dual_images = _wavelet_images(dense_kernel_matrix(kernel.transpose(), trunc, sigma.grid), osys)
    dual_oracle = _haar_oracle(osys, dual_images, sigma)
    _assert_haar(haar_testing_dual(sigma, omega, kernel, trunc, depth=depth), dual_oracle)
    _assert_haar(pair_bundle(sigma, omega, kernel, trunc, depth)["dual_haar_testing"],
                 dual_oracle)


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("mode", ["global", "local", "triple"])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_streamed_cube_testing_matches_whole_images(name, mode, p, corpus1, budget):
    sigma, omega, kernel, depth = _case(name, corpus1)
    trunc = default_truncation(sigma.grid)
    budget(sigma.grid, depth)
    value, cube = _cube_oracle(dense_kernel_matrix(kernel, trunc, sigma.grid), sigma, omega,
                               mode, p, depth)
    rep = cube_testing(sigma, omega, kernel, trunc, mode=mode, depth=depth, p=p)
    assert rep.value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert rep.witness["cube"] == cube


def _lp_oracle(system, images, omega, p, seed):
    """(value, cube, coefficients) of lp_haar_testing: each cube's
    candidates are its canonical wavelets, with two or more wavelets
    _ROTATION_SAMPLES seeded unit combinations, and at p = 2 the SVD
    optimum of its weighted image block; each one's ratio comes from the
    whole images and the dense wavelet values, and the witness is the first
    strict maximum in system order."""
    rng = np.random.default_rng(seed)
    sigma_mass = system.measure.flat_mass
    best = (0.0, None, [])
    weights = omega.flat_mass
    for key, (start, count) in system.cube_slots.items():
        if not count:
            continue
        block = images[:, start:start + count]
        candidates = list(np.eye(count))
        if count > 1:
            for _ in range(_ROTATION_SAMPLES):
                c = rng.standard_normal(count)
                candidates.append(c / np.linalg.norm(c))
        if p == 2.0:
            vh = np.linalg.svd(np.sqrt(weights)[:, None] * block, full_matrices=False)[2]
            candidates.append(_sign_fixed(vh[0]))
        for c in candidates:
            num = float(weights @ np.abs(block @ c) ** p) ** (1.0 / p)
            values = c @ system.values_matrix[start:start + count]
            den = float(sigma_mass @ np.abs(values) ** p) ** (1.0 / p)
            if den > 0.0 and num / den > best[0]:
                best = (num / den, key, c)
    return best


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_streamed_lp_haar_testing_matches_whole_images(name, p, corpus1, budget, route):
    sigma, omega, kernel, depth = _case(name, corpus1)
    trunc = default_truncation(sigma.grid)
    budget(sigma.grid, depth)
    route(sigma.grid, depth)
    system = cached_system(sigma, depth)
    images = _wavelet_images(dense_kernel_matrix(kernel, trunc, sigma.grid), system)
    rep = lp_haar_testing(sigma, omega, kernel, trunc, p=p, depth=depth, seed=7)
    _assert_haar(rep, _lp_oracle(system, images, omega, p, 7))
    dual = lp_haar_testing(omega, sigma, kernel.transpose(), trunc, p=p, depth=depth, seed=7)
    osys = cached_system(omega, depth)
    dual_images = _wavelet_images(dense_kernel_matrix(kernel.transpose(), trunc, sigma.grid), osys)
    _assert_haar(dual, _lp_oracle(osys, dual_images, sigma, p, 7))


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("rotation", [None, 5])
def test_streamed_haar_matrix_and_bundle_match_whole_images(name, rotation, corpus1,
                                                            budget):
    # with a rotation, the streamed fold runs between systems in another
    # basis of each cube's span (`oracles.rotated_system`)
    sigma, omega, kernel, depth = _case(name, corpus1)
    trunc = default_truncation(sigma.grid)
    budget(sigma.grid, depth)
    matrix = haar_matrix(kernel, trunc, sigma, omega, depth, rotation)
    ssys, osys = matrix.sigma_system, matrix.omega_system
    images = _wavelet_images(dense_kernel_matrix(kernel, trunc, sigma.grid), ssys)
    want = (osys.values_matrix * omega.flat_mass) @ images
    scale = np.abs(want).max()
    assert np.abs(matrix.entries - want).max() <= 1e-12 * scale
    if rotation is not None:
        return
    bundle = pair_bundle(sigma, omega, kernel, trunc, depth)
    assert bundle["operator_norm"].as_dict() == operator_norm(
        assemble_haar_matrix(kernel, trunc, sigma, omega, depth)).as_dict()
    _assert_haar(bundle["haar_testing"], _haar_oracle(ssys, images, omega))
    value, key = _cube_oracle(dense_kernel_matrix(kernel, trunc, sigma.grid), sigma, omega,
                              "global", 2.0, depth)
    assert bundle["cube_testing"].value == pytest.approx(value, rel=1e-12, abs=0.0)
    assert bundle["cube_testing"].witness["cube"] == key


# (grid, depth, kernel family, lambda) of the offset-table route
TABLE_CASES = {
    "1d-L7": (Grid(dimension=1, max_level=7), 3, "hilbert", 0.0),
    "1d-L10": (Grid(dimension=1, max_level=10), 6, "hilbert", 0.0),
    "2d-L4-riesz_like": (Grid(dimension=2, max_level=4), 2, "riesz_like", 0.5),
    "2d-L5-riesz_like": (Grid(dimension=2, max_level=5), 3, "riesz_like", 0.5),
    "2d-L4-fractional_integral": (Grid(dimension=2, max_level=4), 2, "fractional_integral", 1.2),
    "2d-L5-fractional_integral": (Grid(dimension=2, max_level=5), 3, "fractional_integral", 1.2),
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
@pytest.mark.parametrize("adjoint", [False, True], ids=["kernel", "adjoint"])
def test_table_route_matches_the_dense_oracle(name, adjoint, budget):
    # windows of the offset table, in one block or by blocks, give the cube
    # images G diag(sigma) P, and its FFT the action G (f sigma), of the
    # dense G
    grid, depth, family, lam = TABLE_CASES[name]
    kernel = make_kernel(family, lam, grid.dimension)
    kernel = kernel.transpose() if adjoint else kernel
    trunc = default_truncation(grid)
    sigma = random_dyadic_doubling(grid, 3.0, seed=57)
    budget(grid, depth)
    g = dense_kernel_matrix(kernel, trunc, grid)
    blocks = image_blocks(kernel, trunc, sigma, depth)
    got = np.concatenate([levels[depth] for _, levels in blocks], axis=-1)
    want = _cube_images(g, sigma, depth)
    assert np.abs(got.reshape(len(want.T), -1).T - want).max() <= 1e-15 * np.abs(want).max()
    f = np.random.default_rng(58).standard_normal((2, grid.n_cells))
    want = (g @ (f * sigma.flat_mass).T).T
    for got in (apply(kernel, trunc, sigma, f), apply(kernel, trunc, sigma, f[0]).reshape(1, -1)):
        assert np.abs(got - want[:len(got)]).max() <= 1e-14 * np.abs(want).max()


def test_operator_passes_hold_no_kernel_matrix(monkeypatch):
    # with a block budget of an eighth of the depth-4 images' entries, the
    # pair bundle (its sigma pass and its dual pass) and one apply each
    # build the offset tables afresh and stay below the N x N float64 array
    # of G in traced allocation
    grid, depth = Grid(dimension=2, max_level=5), 4
    sigma = random_dyadic_doubling(grid, 2.0, seed=1)
    omega = random_dyadic_doubling(grid, 3.0, seed=2)
    kernel, trunc = make_kernel("riesz_like", 0.5, 2), default_truncation(grid)
    f = np.random.default_rng(59).standard_normal(grid.mesh_shape)
    monkeypatch.setattr(operators, "_IMAGE_BLOCK_ENTRIES",
                        (grid.n_cells << (grid.dimension * depth)) // 8)
    assert len(image_rows(grid, depth)) > 1 and len(image_rows(grid, grid.max_level)) > 1
    runs = {
        "bundle": lambda: pair_bundle(sigma, omega, kernel, trunc, depth),
        "apply": lambda: apply(kernel, trunc, sigma, f),
    }
    for name, run in runs.items():
        run()  # the systems and numpy's lazy imports, outside the trace
        operators.kernel_matrix.cache_clear()
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < grid.n_cells ** 2 * 8, name


def test_window_route_holds_no_slab_of_the_kernel_matrix(monkeypatch):
    # on the window route the images are read off the offset table: with a
    # block budget of one slab of images, one image_blocks pass stays below
    # one slab of G's rows, N * N / 2**depth float64 (1 MiB), in traced
    # allocation
    grid, depth = Grid(dimension=2, max_level=5), 3
    sigma = random_dyadic_doubling(grid, 3.0, seed=1)
    kernel, trunc = make_kernel("riesz_like", 0.5, 2), default_truncation(grid)
    slab = grid.n_cells >> depth
    assert not operators._fft_route(grid, depth)
    monkeypatch.setattr(operators, "_IMAGE_BLOCK_ENTRIES", slab << (grid.dimension * depth))
    assert len(image_rows(grid, depth)) == 2 ** depth

    def drain():
        for _ in image_blocks(kernel, trunc, sigma, depth):
            pass

    drain()  # the table and numpy's lazy imports, outside the trace
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        drain()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < grid.n_cells * slab * 8


def test_blocks_of_whole_slabs_keep_the_haar_matrix_bit_for_bit(monkeypatch):
    # the target side sums whole slabs of cells, pairing them as a sum over
    # every row does: the entries do not depend on the block budget
    sigma, omega, kernel, depth = _pair_2d("riesz_like", 0.5)
    trunc = default_truncation(GRID_2D)
    for k in (kernel, kernel.transpose()):
        whole = assemble_haar_matrix(k, trunc, sigma, omega, depth).entries
        slab_images = (GRID_2D.n_cells >> depth) << (GRID_2D.dimension * depth)
        monkeypatch.setattr(operators, "_IMAGE_BLOCK_ENTRIES", slab_images)
        assert len(image_rows(GRID_2D, depth)) == 2 ** depth
        np.testing.assert_array_equal(
            assemble_haar_matrix(k, trunc, sigma, omega, depth).entries, whole)
        monkeypatch.undo()


@pytest.mark.parametrize("dimension, level", [(2, 1), (2, 2), (2, 3), (2, 4),
                                              (1, 4), (1, 6), (1, 8)],
                         ids=["1", "2", "3", "4", "1d-4", "1d-6", "1d-8"])
def test_cube_images_do_not_depend_on_the_block_budget(monkeypatch, dimension, level):
    # each window image sums its terms in order, and each FFT image comes
    # from its row's own transform: blocks of one slab of images and of
    # three give the images of one block bit for bit, for the kernel and
    # its adjoint, on 2-D L=5 and 1-D L=8
    grid = Grid(dimension=dimension, max_level=5 if dimension == 2 else 8)
    sigma = random_dyadic_doubling(grid, 3.0, seed=55)
    family, lam = ("riesz_like", 0.5) if dimension == 2 else ("hilbert", 0.0)
    kernel, trunc = make_kernel(family, lam, dimension), default_truncation(grid)
    slab_images = (grid.n_cells >> level) << (dimension * level)

    def images(k):
        return np.concatenate([levels[level] for _, levels in image_blocks(k, trunc, sigma, level)],
                              axis=-1)

    for k in (kernel, kernel.transpose()):
        whole = images(k)
        for slabs in (1, 3):
            monkeypatch.setattr(operators, "_IMAGE_BLOCK_ENTRIES", slabs * slab_images)
            assert len(image_rows(grid, level)) == -(-(2 ** level) // slabs)
            np.testing.assert_array_equal(images(k), whole)
        monkeypatch.undo()


def test_bundle_memory_is_bounded_by_a_block(monkeypatch):
    # the pair bundle's sigma pass and dual pass keep no image array whole:
    # with the offset tables built beforehand, a block budget of one slab
    # of images (16 blocks) and a Haar transform budget of an eighth of the
    # images' entries, its peak traced allocation stays below one
    # n_cells x 2**(n*depth) float64 array
    grid, depth = Grid(dimension=2, max_level=5), 4
    sigma = random_dyadic_doubling(grid, 2.0, seed=1)
    omega = random_dyadic_doubling(grid, 3.0, seed=2)
    kernel, trunc = make_kernel("riesz_like", 0.5, 2), default_truncation(grid)
    image_entries = grid.n_cells * 2 ** (grid.dimension * depth)
    monkeypatch.setattr(operators, "_IMAGE_BLOCK_ENTRIES", image_entries >> depth)
    monkeypatch.setattr(haar, "_TRANSFORM_BLOCK_ENTRIES", image_entries // 8)

    def bundle():
        pair_bundle(sigma, omega, kernel, trunc, depth)

    bundle()  # the tables, both systems and numpy's lazy imports, outside the trace
    assert len(image_rows(grid, depth)) > 8
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        bundle()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < image_entries * 8


def test_each_side_of_a_pair_takes_one_image_pass(tmp_path, monkeypatch):
    # every fold of one side of a pair rides one pass of `image_blocks`, and
    # a side with no fold asked for takes none
    passes, pyramids = [], []
    blocks, init = operators.image_blocks, characteristics._PyramidFold.__init__
    monkeypatch.setattr(operators, "image_blocks",
                        lambda *args: passes.append(args[2]) or blocks(*args))
    monkeypatch.setattr(characteristics._PyramidFold, "__init__",
                        lambda self, *args: pyramids.append(args[2]) or init(self, *args))
    ini = tmp_path / "grid.ini"
    ini.write_text("[grid]\ndimension = 2\nmax_level = 3\n\n"
                   "[kernel]\nfamily = riesz_like\nlambda = 0.5\n")
    measures = "doubling:r=2.0:seed=1,doubling:r=3.0:seed=2,lebesgue,doubling:r=2.0:seed=3"
    rc = main(["characteristics", "--config", str(ini), "--depth", "3", "--p", "3",
               "--measures", measures, "--out", str(tmp_path)])
    assert rc in (0, 1)  # 1 is the norm ratio gate, not a failed run
    assert len(passes) == 4  # two pairs, a sigma pass and an omega pass each
    assert passes[0] is not passes[1] and passes[2] is not passes[3]

    grid = Grid(dimension=1, max_level=6)
    kernel, trunc = make_kernel("hilbert", 0.0, 1), default_truncation(grid)
    passes.clear()
    pyramids.clear()
    counterexample_search(grid, kernel, trunc, iterations=2, depth=3)
    assert len(passes) == 4 and pyramids == []  # two trials, no cube testing

    sigma = random_dyadic_doubling(grid, 2.0, seed=1)
    omega = random_dyadic_doubling(grid, 3.0, seed=2)
    passes.clear()
    triple_absorption_experiment(sigma, omega, kernel, trunc, depth=3)
    assert passes == [sigma]  # the triple pyramid and the Haar Grams
    for one in (haar_testing, haar_testing_dual):
        passes.clear()
        one(sigma, omega, kernel, trunc, depth=3)
        assert len(passes) == 1
    # at p = 2 a 1-D cube's one wavelet is its exact optimum: no Gram pass
    for p in (3.0, 2.0):
        for one, side in ((lp_haar_testing, sigma), (lp_haar_testing_dual, omega)):
            passes.clear()
            one(sigma, omega, kernel, trunc, p=p, depth=3)
            assert passes == [side]


def test_quadratic_haar_testing_memory_is_bounded_by_a_block(monkeypatch):
    # the member scan and the family values keep no image array whole: with
    # the offset table built beforehand, a block budget of one slab of
    # images (16 blocks) and a Haar transform budget of an eighth of the
    # images' entries, the peak traced allocation stays below one
    # n_cells x 2**(n*depth) float64 array
    grid, depth = Grid(dimension=2, max_level=5), 4
    sigma = random_dyadic_doubling(grid, 2.0, seed=1)
    omega = random_dyadic_doubling(grid, 3.0, seed=2)
    kernel, trunc = make_kernel("riesz_like", 0.5, 2), default_truncation(grid)
    image_entries = grid.n_cells * 2 ** (grid.dimension * depth)
    monkeypatch.setattr(operators, "_IMAGE_BLOCK_ENTRIES", image_entries >> depth)
    monkeypatch.setattr(haar, "_TRANSFORM_BLOCK_ENTRIES", image_entries // 8)

    def quadratic():
        return quadratic_haar_testing(sigma, omega, kernel, trunc, p=3.0, depth=depth)

    want = quadratic()  # the table, the system and numpy's lazy imports, outside the trace
    assert len(image_rows(grid, depth)) > 8
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        rep = quadratic()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.as_dict() == want.as_dict()
    assert peak - start < image_entries * 8


@pytest.mark.parametrize("variant,reach", [("offset", 2.5), ("offset", 10.0),
                                           ("subcube", 2)])
@pytest.mark.parametrize("dimension", [1, 2])
def test_pair_scan_in_blocks_matches_one_block(monkeypatch, variant, reach, dimension):
    # blocks of 3 cubes, which divide no level's count, keep the scan order:
    # the same partners, values and witness as one block per level
    grid = Grid(dimension=dimension, max_level=8 if dimension == 1 else 4)
    sigma = random_dyadic_doubling(grid, 3.0, seed=53)
    omega = random_dyadic_doubling(grid, 2.0, seed=54)
    partners_of, _, _, _, min_depth = _PAIR_VARIANTS[variant]
    cfg = LpConfig(3.0)
    _, e, depth = _size_setup(sigma, omega, 0.0, None, min_depth)
    args = (sigma, omega, cfg, e, depth, partners_of, reach)
    monkeypatch.setattr(characteristics, "_PAIR_BLOCK_CUBES", 1 << 30)
    partners, *whole = _pair_scan(*args)
    monkeypatch.setattr(characteristics, "_PAIR_BLOCK_CUBES", 3)
    blocks, *rest = _pair_scan(*args)
    assert rest == whole
    for (subs, index), (want_subs, want_index) in zip(blocks, partners, strict=True):
        np.testing.assert_array_equal(index, want_index)
        np.testing.assert_array_equal(subs[index >= 0], want_subs[want_index >= 0])


def test_quadratic_haar_testing_peak_on_2d_level_6():
    # the family denominators are child-space sums: no family is synthesised
    # on the mesh, as the level-5 family of 1,024 cubes once was, which took
    # the traced peak of this call past 260 MiB
    grid = Grid(dimension=2, max_level=6)
    sigma = random_dyadic_doubling(grid, 2.0, seed=1)
    omega = random_dyadic_doubling(grid, 3.0, seed=2)
    kernel, trunc = make_kernel("riesz_like", 0.5, 2), default_truncation(grid)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        rep = quadratic_haar_testing(sigma, omega, kernel, trunc, p=3.0, depth=6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.search_space["families_evaluated"] > 32
    assert peak - start < 100 * 2 ** 20
