import numpy as np
import pytest

from haartest.dyadic import DyadicCube, Grid, MeshExhaustedError, box_distance, cube_keys


def test_grid_defaults():
    g = Grid(dimension=1)
    assert g.max_level == 10
    assert g.side == 1.0
    assert g.window_lower == (0.0,)
    assert g.window_upper == (1.0,)
    assert g.cells_per_axis == 2 ** 10
    assert g.cell_side == 2.0 ** -10

    g2 = Grid(dimension=2)
    assert g2.max_level == 5
    assert g2.cells_per_axis == 32
    np.testing.assert_allclose(g2.cell_diameter, np.sqrt(2.0) / 32)


def test_grid_shift_moves_window():
    g = Grid(dimension=1, origin=(1.0,), shift=(0.25,), max_level=4)
    assert g.window_lower == (1.25,)
    assert g.window_upper == (2.25,)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(dimension=0)
    with pytest.raises(ValueError):
        Grid(dimension=1, side=-1.0)
    with pytest.raises(ValueError):
        Grid(dimension=1, max_level=0)
    with pytest.raises(ValueError):
        Grid(dimension=2, origin=(0.0,))


def test_cube_geometry():
    g = Grid(dimension=1, max_level=6)
    q = g.cube(2, (3,))
    assert q.side == 0.25
    assert q.volume == 0.25
    assert q.lower == (0.75,)
    assert q.upper == (1.0,)
    assert q.center == (0.875,)
    lo, hi = q.triple_box()
    assert lo == (0.5,)
    assert hi == (1.25,)


def test_cube_keys_roundtrip():
    g = Grid(dimension=2)
    q = g.cube(3, (5, 2))
    assert q.key() == "3:5,2"
    back = DyadicCube.from_key(g, "3:5,2")
    assert back.level == 3
    assert back.coords == (5, 2)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_cube_keys_are_the_keys_of_the_cubes(dimension):
    g = Grid(dimension=dimension, max_level=4)
    cubes = [q for level in range(5) for q in g.cubes_at_level(level)]
    index = [np.ravel_multi_index(q.coords, (2 ** q.level,) * dimension) for q in cubes]
    keys = [q.key() for q in cubes]
    assert cube_keys([q.level for q in cubes], index, dimension) == keys
    assert cube_keys(4, np.arange(2 ** (4 * dimension)), dimension) == keys[-2 ** (4 * dimension):]


def test_children_and_parent():
    g = Grid(dimension=2)
    q = g.cube(1, (0, 1))
    kids = list(q.children())
    assert len(kids) == 4
    for kid in kids:
        assert kid.level == 2
        assert kid.parent().coords == q.coords
        assert q.contains(kid)
        assert np.all((q.lower <= kid.center) & (kid.center < q.upper))
    # children tile the parent exactly
    assert sum(kid.volume for kid in kids) == pytest.approx(q.volume)


def test_grandchildren_counts():
    g = Grid(dimension=1, max_level=6)
    q = g.cube(1, (1,))
    assert len(list(q.grandchildren(2))) == 4
    # cumulative collects strict descendants, levels 1..m below the cube
    assert len(list(q.grandchildren(2, cumulative=True))) == 2 + 4
    with pytest.raises(MeshExhaustedError):
        list(q.grandchildren(6))


def test_cube_slices_and_indicator():
    g = Grid(dimension=1, max_level=3)
    q = g.cube(1, (1,))
    ind = q.indicator()
    assert ind.shape == (8,)
    np.testing.assert_array_equal(ind, [0, 0, 0, 0, 1, 1, 1, 1])
    mesh = np.arange(8.0)
    np.testing.assert_array_equal(mesh[q.slices()], [4, 5, 6, 7])


def test_cubes_at_level_enumeration():
    g = Grid(dimension=2)
    cubes = list(g.cubes_at_level(2))
    assert len(cubes) == 16
    keys = [q.key() for q in cubes]
    assert len(set(keys)) == 16
    with pytest.raises(ValueError):
        list(g.cubes_at_level(g.max_level + 1))


def test_box_fractions_exact_cells():
    g = Grid(dimension=1, max_level=3)
    frac, clipped = g.box_fractions((0.25,), (0.5,))
    np.testing.assert_array_equal(frac, [0, 0, 1, 1, 0, 0, 0, 0])
    assert not clipped


def test_box_fractions_partial_cells():
    g = Grid(dimension=1, max_level=2)
    frac, clipped = g.box_fractions((0.125,), (0.625,))
    np.testing.assert_allclose(frac, [0.5, 1.0, 0.5, 0.0])
    assert not clipped
    frac, clipped = g.box_fractions((-0.5,), (0.5,))
    assert clipped
    np.testing.assert_allclose(frac, [1.0, 1.0, 0.0, 0.0])


def test_box_distance():
    assert box_distance((0.0,), (1.0,), (2.0,), (3.0,)) == 1.0
    assert box_distance((0.0,), (1.0,), (0.5,), (3.0,)) == 0.0
    d = box_distance((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0))
    np.testing.assert_allclose(d, np.sqrt(2.0))
