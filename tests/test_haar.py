import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haartest import haar
from haartest.dyadic import Grid, refine
from haartest.haar import build_system, cached_system
from haartest.measure import custom_cells, lebesgue, near_point_mass, random_dyadic_doubling
from haartest.operators import assemble_haar_matrix, default_truncation, make_kernel
from oracles import mesh_values, rotated_system


def system_for(measure, depth):
    return build_system(measure, depth)


def test_wavelet_four_properties(grid1):
    """Support, constancy on children, zero mean, unit norm, orthogonality."""
    mu = random_dyadic_doubling(grid1, 2.0, seed=13)
    sys = build_system(mu, 4)
    flat = mu.flat_mass
    for h in sys.wavelets:
        vals = mesh_values(h).ravel()
        ind = h.cube.indicator().ravel()
        # supported on its cube
        assert np.all(vals[ind == 0] == 0.0)
        # constant on each child
        for child, cval in zip(h.cube.children(), h.child_values):
            block = vals[child.indicator().ravel() == 1]
            np.testing.assert_array_equal(block, cval)
        # zero mean and unit norm against the measure
        assert abs(float(vals @ flat)) < 1e-12
        np.testing.assert_allclose(float(vals * vals @ flat), 1.0, atol=1e-12)


def test_gram_identity(grid1):
    mu = random_dyadic_doubling(grid1, 2.5, seed=21)
    sys = build_system(mu, 5)
    gram = sys.gram()
    np.testing.assert_allclose(gram, np.eye(sys.n_wavelets), atol=1e-10)


def test_counts_lebesgue(grid1):
    # binary grid: 2^l cubes at level l, one wavelet each
    sys = build_system(lebesgue(grid1), 3)
    assert sys.n_wavelets == 1 + 2 + 4
    labels = sys.wavelet_labels()
    assert labels[0] == ("0:0", 0)
    assert len(labels) == sys.n_wavelets
    # slots are contiguous and ordered (level, coords, index)
    start, count = sys.cube_slots["1:1"]
    assert count == 1
    assert labels[start] == ("1:1", 0)


def test_counts_2d(grid2):
    sys = build_system(lebesgue(grid2), 2)
    # 3 wavelets per cube in 2-D, 1 + 4 cubes
    assert sys.n_wavelets == 3 * (1 + 4)


def test_expand_reconstruct_roundtrip(grid1):
    mu = random_dyadic_doubling(grid1, 2.0, seed=3)
    depth = 4
    sys = build_system(mu, depth)
    rng = np.random.default_rng(0)
    # a function constant on level-`depth` cubes lies in the span
    blocks = rng.standard_normal(2 ** depth)
    f = np.repeat(blocks, grid1.cells_per_axis // 2 ** depth)
    coeffs = sys.expand(f)
    mean = sys.mean_coefficient(f)
    back = sys.reconstruct(coeffs, mean_coeff=mean).ravel()
    err = np.abs(back - f)
    assert float(err[mu.flat_mass > 0].max(initial=0.0)) < 1e-10


def test_reconstruction_out_of_span(grid1):
    # a finer-scale function is NOT reproduced: the projection drops detail
    mu = lebesgue(grid1)
    sys = build_system(mu, 2)
    f = np.sin(np.linspace(0, 7, grid1.cells_per_axis))
    back = sys.reconstruct(sys.expand(f), mean_coeff=sys.mean_coefficient(f)).ravel()
    assert np.abs(back - f).max() > 1e-3
    # but the projection preserves the coefficients (idempotence)
    np.testing.assert_allclose(sys.expand(back), sys.expand(f), atol=1e-10)


def test_parseval_on_span(grid1):
    mu = random_dyadic_doubling(grid1, 2.0, seed=9)
    sys = build_system(mu, 5)
    rng = np.random.default_rng(4)
    blocks = rng.standard_normal(2 ** 5)
    f = np.repeat(blocks, grid1.cells_per_axis // 2 ** 5)
    coeffs = sys.expand(f)
    mean = sys.mean_coefficient(f)
    energy = float(coeffs @ coeffs) + mean ** 2
    np.testing.assert_allclose(energy, mu.norm_lp(f, 2.0) ** 2, rtol=1e-12)


def test_mean_coefficient_value(grid1):
    mu = lebesgue(grid1)
    sys = build_system(mu, 2)
    f = np.full(grid1.cells_per_axis, 3.0)
    # mean coefficient is integral(f) / sqrt(total mass)
    np.testing.assert_allclose(sys.mean_coefficient(f), 3.0, rtol=1e-12)
    assert np.abs(sys.expand(f)).max() < 1e-12


def test_zero_mass_child_drops_wavelet():
    g = Grid(dimension=1, max_level=3)
    cells = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    mu = custom_cells(g, cells, label="hole")
    sys = build_system(mu, 3)
    assert sys.cube_slots["0:0"][1] == 1
    # the level-2 cube [0.25, 0.5) carries no mass: no child active -> no wavelet
    assert sys.cube_slots["2:1"][1] == 0
    gram = sys.gram()
    np.testing.assert_allclose(gram, np.eye(sys.n_wavelets), atol=1e-10)


def test_sign_convention_leading_positive(grid1):
    mu = random_dyadic_doubling(grid1, 2.0, seed=17)
    for h in build_system(mu, 4).wavelets:
        nz = h.child_values[h.child_values != 0.0]
        assert nz[0] > 0.0


def test_build_system_depth_validation(grid1):
    mu = lebesgue(grid1)
    with pytest.raises(ValueError):
        build_system(mu, 0)
    with pytest.raises(ValueError):
        build_system(mu, grid1.max_level + 1)


def test_cached_system_identity(grid1):
    mu = lebesgue(grid1)
    assert cached_system(mu, 3) is cached_system(mu, 3)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_gram_identity_random_measures(seed):
    g = Grid(dimension=1, max_level=5)
    mu = random_dyadic_doubling(g, 3.0, seed=seed)
    sys = build_system(mu, 4)
    np.testing.assert_allclose(sys.gram(), np.eye(sys.n_wavelets), atol=1e-10)


# -- level build against the per-cube Gram-Schmidt ----------------------------

def _sign_fixed(v):
    """The leading-sign convention, one vector at a time."""
    lead = np.flatnonzero(np.abs(v) > 1e-13 * np.max(np.abs(v), initial=0.0))
    return -v if lead.size and v[lead[0]] < 0 else v


def _gram_schmidt_cube(masses):
    """Child values of one cube's wavelets by Gram-Schmidt over its active
    child indicators, constant first, re-orthogonalized once."""
    active = np.flatnonzero(masses > 0)
    if active.size < 2:
        return []
    w = masses[active]
    ortho = []
    for j in range(active.size):
        u = np.ones(active.size) if j == 0 else np.eye(active.size)[j]
        for _ in range(2):
            for b in ortho:
                u = u - (u * w @ b) * b
        ortho.append(u / np.sqrt(u * u @ w))
    rows = []
    for row in ortho[1:]:
        values = np.zeros(masses.size)
        values[active] = _sign_fixed(row)
        rows.append(values)
    return rows


def _oracle_rows(mu, depth):
    """(labels, child-value rows) of the system, one cube at a time in
    system order."""
    labels, rows = [], []
    for level in range(depth):
        for cube in mu.grid.cubes_at_level(level):
            masses = np.array([mu.cube_mass(c) for c in cube.children()])
            block = _gram_schmidt_cube(masses)
            labels += [(cube.key(), i) for i in range(len(block))]
            rows += block
    return labels, np.array(rows).reshape(len(rows), 2 ** mu.grid.dimension)


def _holed_2d():
    """2-D L=4 doubling measure with an empty quadrant, so the root has 3
    live children, and with half of cube 1:0,0 empty, so it has 2."""
    g = Grid(dimension=2, max_level=4)
    cells = random_dyadic_doubling(g, 3.0, seed=5).cell_mass.copy()
    cells[8:, 8:] = 0.0
    cells[:8, 4:8] = 0.0
    return custom_cells(g, cells, label="holed")


LEVEL_BUILD_CASES = {
    "1d-doubling": (lambda: random_dyadic_doubling(Grid(dimension=1, max_level=8), 2.5,
                                                   seed=8), 7),
    "2d-holed": (_holed_2d, 4),
    "1d-point": (lambda: near_point_mass(Grid(dimension=1, max_level=8), 12.0), 6),
    "2d-point": (lambda: near_point_mass(Grid(dimension=2, max_level=4), 9.0), 4),
}


@pytest.mark.parametrize("name", sorted(LEVEL_BUILD_CASES))
def test_level_build_matches_gram_schmidt(name):
    make, depth = LEVEL_BUILD_CASES[name]
    mu = make()
    sys = build_system(mu, depth)
    labels, rows = _oracle_rows(mu, depth)
    assert sys.wavelet_labels() == labels
    got = np.concatenate([lv.child_values for lv in sys.levels])
    assert got.shape == rows.shape
    scale = np.abs(rows).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - rows) <= 1e-12 * scale)
    # the derived views agree with the per-wavelet objects
    dense = np.array([mesh_values(h).ravel() for h in sys.wavelets])
    np.testing.assert_array_equal(sys.values_matrix, dense)
    for lv, rows in zip(sys.levels, sys.level_rows):
        padded = [row for cube, count in enumerate(lv.counts)
                  for row in lv.padded_values[cube, :count]]
        np.testing.assert_array_equal(np.reshape(padded, (-1, 2 ** mu.grid.dimension)),
                                      got[rows])
        live = np.arange(2 ** mu.grid.dimension - 1) < lv.counts[:, None]
        assert not lv.padded_values[~live].any()
    for key, (start, count) in sys.cube_slots.items():
        assert [lab for lab in labels if lab[0] == key] == labels[start:start + count]


def test_holed_case_has_two_and_three_live_children():
    slots = build_system(_holed_2d(), 4).cube_slots
    assert slots["0:0,0"][1] == 2 and slots["1:0,0"][1] == 1
    assert {0, 1, 2, 3} == {count for _, count in slots.values()}


# -- level-by-level transform against the dense wavelet matrix -----------------

TRANSFORM_CASES = {
    **LEVEL_BUILD_CASES,
    "1d-full-depth": (lambda: random_dyadic_doubling(Grid(dimension=1, max_level=8), 2.5,
                                                     seed=8), 8),
}
# the level build's systems with each cube's wavelets turned by a seeded
# rotation (`rotated_system`): the transforms hold for any basis of the span
ROTATED_CASES = {
    "2d-rotated": "2d-holed",
    "1d-rotated": "1d-doubling",
}


def _transform_system(name):
    """(measure, system) of a transform case, turned where it is rotated."""
    make, depth = TRANSFORM_CASES[ROTATED_CASES.get(name, name)]
    mu = make()
    sys = build_system(mu, depth)
    if name in ROTATED_CASES:
        sys = rotated_system(sys, np.random.default_rng(3))
    return mu, sys


def _assert_close(got, want, tol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= tol * np.abs(want).max(initial=0.0)


@pytest.mark.parametrize("name", sorted(TRANSFORM_CASES.keys() | ROTATED_CASES.keys()))
def test_transform_matches_dense_matrix(name):
    mu, sys = _transform_system(name)
    depth = sys.depth
    grid = mu.grid
    n = grid.dimension
    rng = np.random.default_rng(2)
    funcs = rng.standard_normal((4, grid.n_cells))
    coeffs = rng.standard_normal((4, sys.n_wavelets))
    values = sys.values_matrix
    _assert_close(sys.analyse(funcs), funcs @ sys.weighted_matrix.T)
    _assert_close(sys.synthesise(coeffs), coeffs @ values)
    components = list(sys.level_components(coeffs))
    assert len(components) == depth
    for lv, rows, component in zip(sys.levels, sys.level_rows, components):
        assert component.shape == (4,) + (2 ** (lv.level + 1),) * n
        on_mesh = refine(component, n, 2 ** (grid.max_level - lv.level - 1))
        _assert_close(on_mesh.reshape(4, -1), coeffs[:, rows] @ values[rows])
    # synthesis is the inverse of analysis on the span
    _assert_close(sys.analyse(sys.synthesise(coeffs)), coeffs)
    # expand and reconstruct are their one-row calls
    _assert_close(sys.expand(funcs[0].reshape(grid.mesh_shape)), values @ (funcs[0] * mu.flat_mass))
    back = sys.reconstruct(coeffs[0], mean_coeff=2.0)
    assert back.shape == grid.mesh_shape
    _assert_close(back.ravel(), coeffs[0] @ values + 2.0 / np.sqrt(mu.total_mass))


def test_transform_without_wavelets():
    g = Grid(dimension=2, max_level=3)
    cells = np.zeros(g.mesh_shape)
    cells[5, 2] = 1.0
    sys = build_system(custom_cells(g, cells, label="point"), 3)
    assert sys.n_wavelets == 0
    assert sys.analyse(np.ones((2, g.n_cells))).shape == (2, 0)
    np.testing.assert_array_equal(sys.synthesise(np.zeros((2, 0))), np.zeros((2, g.n_cells)))


@pytest.mark.parametrize("name", ["1d-full-depth", "2d-holed", "2d-rotated"])
def test_transform_in_batch_blocks(name, monkeypatch):
    # blocks of 3 functions, the last one short: the batch loop of
    # analyse_cube_sums, which the grids above fill in one block
    mu, sys = _transform_system(name)
    depth = sys.depth
    monkeypatch.setattr(haar, "_TRANSFORM_BLOCK_ENTRIES", 3 * 2 ** (mu.grid.dimension * depth))
    funcs = np.random.default_rng(4).standard_normal((10, mu.grid.n_cells))
    _assert_close(sys.analyse(funcs), funcs @ sys.weighted_matrix.T)


@pytest.mark.parametrize("n, level, depths", [(1, 10, (6, 10)), (2, 6, (5, 6))],
                         ids=["1d-L10", "2d-L6"])
def test_analysis_of_a_row_does_not_depend_on_its_batch(n, level, depths):
    # the level sums take the same floating-point operations for every batch:
    # any split of the rows, and a row alone, give the same bits
    mu = random_dyadic_doubling(Grid(dimension=n, max_level=level), 2.0, seed=6)
    x = np.random.default_rng(8).standard_normal((64, mu.grid.n_cells))
    for depth in depths:
        sys = build_system(mu, depth)
        whole = sys.analyse(x)
        for size in (1, 2, 3, 5, 7):
            split = np.concatenate([sys.analyse(x[i:i + size]) for i in range(0, 64, size)])
            np.testing.assert_array_equal(split, whole)
        for i in range(0, 64, 9):
            np.testing.assert_array_equal(sys.expand(x[i]), whole[i])


@pytest.mark.parametrize("n, level, depth, kernel", [(1, 8, 5, ("hilbert", 0.0)),
                                                     (2, 4, 3, ("riesz_like", 0.5))],
                         ids=["1d", "2d"])
def test_haar_matrix_does_not_depend_on_the_transform_blocks(monkeypatch, n, level,
                                                             depth, kernel):
    grid = Grid(dimension=n, max_level=level)
    args = (make_kernel(*kernel, n), default_truncation(grid),
            random_dyadic_doubling(grid, 2.0, seed=1), random_dyadic_doubling(grid, 3.0, seed=2),
            depth)
    whole = assemble_haar_matrix(*args).entries
    # one level-`depth` cube pyramid per block: each row of both transforms alone
    monkeypatch.setattr(haar, "_TRANSFORM_BLOCK_ENTRIES", 2 ** (n * depth))
    np.testing.assert_array_equal(assemble_haar_matrix(*args).entries, whole)
