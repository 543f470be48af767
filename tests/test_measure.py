import numpy as np
import pytest

from haartest.dyadic import Grid
from haartest.measure import (
    DegenerateMeasureError,
    custom_cells,
    doubling_constant,
    lebesgue,
    load_measure_csv,
    near_point_mass,
    power_weight,
    random_dyadic_doubling,
    save_measure_csv,
)


def test_lebesgue_masses():
    g = Grid(dimension=1, max_level=4)
    mu = lebesgue(g)
    assert mu.total_mass == pytest.approx(1.0)
    q = g.cube(2, (1,))
    assert mu.cube_mass(q) == pytest.approx(0.25)
    assert mu.box_mass((0.1,), (0.3,)) == pytest.approx(0.2)


def test_lebesgue_2d():
    g = Grid(dimension=2)
    mu = lebesgue(g)
    assert mu.total_mass == pytest.approx(1.0)
    assert mu.cube_mass(g.cube(1, (0, 1))) == pytest.approx(0.25)


def test_cell_mass_read_only():
    g = Grid(dimension=1, max_level=3)
    mu = lebesgue(g)
    with pytest.raises(ValueError):
        mu.cell_mass[0] = 2.0


def test_integrate_and_norm():
    g = Grid(dimension=1, max_level=3)
    mu = lebesgue(g)
    f = np.ones(8)
    assert mu.integrate(f) == pytest.approx(1.0)
    assert mu.norm_lp(f, 2.0) == pytest.approx(1.0)
    f2 = 2.0 * np.ones(8)
    assert mu.norm_lp(f2, 3.0) == pytest.approx(2.0)


def test_power_weight_density():
    g = Grid(dimension=1, max_level=6)
    mu = power_weight(g, 0.5)
    # default center sits at the window's lower corner, so mass grows rightward;
    # closed form: integral of x^(1/2) over [a, b] is (2/3)(b^(3/2) - a^(3/2))
    left = mu.box_mass((0.0,), (0.25,))
    np.testing.assert_allclose(left, (2.0 / 3.0) * 0.25 ** 1.5, rtol=1e-12)
    right = mu.box_mass((0.75,), (1.0,))
    assert right > left
    np.testing.assert_allclose(mu.total_mass, 2.0 / 3.0, rtol=1e-12)
    with pytest.raises(ValueError):
        power_weight(g, -1.0)


def test_power_weight_center_override():
    g = Grid(dimension=1, max_level=5)
    mu = power_weight(g, 1.0, center=(1.0,))
    # density now vanishes toward the window's right edge instead
    assert mu.box_mass((0.0,), (0.25,)) > mu.box_mass((0.75,), (1.0,))


def test_random_dyadic_doubling_determinism():
    g = Grid(dimension=1, max_level=6)
    a = random_dyadic_doubling(g, 2.0, seed=7)
    b = random_dyadic_doubling(g, 2.0, seed=7)
    np.testing.assert_array_equal(a.cell_mass, b.cell_mass)
    c = random_dyadic_doubling(g, 2.0, seed=8)
    assert not np.array_equal(a.cell_mass, c.cell_mass)


def test_random_dyadic_doubling_child_ratio():
    g = Grid(dimension=1, max_level=7)
    ratio = 2.5
    mu = random_dyadic_doubling(g, ratio, seed=3)
    for level in range(g.max_level):
        for q in g.cubes_at_level(level):
            kids = [mu.cube_mass(k) for k in q.children()]
            lo, hi = min(kids), max(kids)
            assert hi <= ratio * lo + 1e-12


def test_doubling_constant_lebesgue():
    g = Grid(dimension=1, max_level=5)
    rep = doubling_constant(lebesgue(g), depth=3)
    # any interior cube doubles to exactly twice its own mass
    assert rep.constant == pytest.approx(2.0)
    assert rep.depth == 3
    assert rep.witness_cube is not None


def test_doubling_constant_flags_peak():
    g = Grid(dimension=1, max_level=6)
    smooth = doubling_constant(lebesgue(g), depth=4).constant
    peaked = doubling_constant(near_point_mass(g, 6.0), depth=4).constant
    assert peaked > smooth


def test_doubling_constant_depth_guard():
    g = Grid(dimension=1, max_level=4)
    with pytest.raises(ValueError):
        doubling_constant(lebesgue(g), depth=4)


def test_near_point_mass_concentration():
    g = Grid(dimension=1, max_level=6)
    mu = near_point_mass(g, 5.0, cell_coords=(0,))
    assert mu.cell_mass[0] == mu.cell_mass.max()
    assert mu.total_mass > 0.0


def test_custom_cells_validation():
    g = Grid(dimension=1, max_level=2)
    mu = custom_cells(g, np.array([1.0, 2.0, 3.0, 4.0]), label="steps")
    assert mu.total_mass == pytest.approx(10.0)
    assert mu.label == "steps"
    with pytest.raises(ValueError):
        custom_cells(g, np.array([1.0, -2.0, 3.0, 4.0]), label="bad")
    with pytest.raises(ValueError):
        custom_cells(g, np.ones(5), label="shape")
    # all-zero cells build fine but downstream consumers reject them
    null = custom_cells(g, np.zeros(4), label="null")
    with pytest.raises(DegenerateMeasureError):
        doubling_constant(null, depth=1)


def test_csv_roundtrip(tmp_path):
    g = Grid(dimension=2, max_level=3)
    mu = random_dyadic_doubling(g, 2.0, seed=11)
    path = tmp_path / "mu.csv"
    save_measure_csv(mu, path)
    back = load_measure_csv(g, path)
    assert back.grid.dimension == 2
    assert back.grid.max_level == 3
    np.testing.assert_allclose(back.cell_mass, mu.cell_mass, rtol=0, atol=1e-15)


def test_load_measure_csv_rejects_bad_rows(tmp_path):
    g = Grid(dimension=1, max_level=2)
    path = tmp_path / "bad.csv"
    path.write_text("cell_index,mass\n9,1.0\n")
    with pytest.raises(ValueError):
        load_measure_csv(g, path)


def test_density_matches_cell_mass():
    g = Grid(dimension=1, max_level=4)
    mu = power_weight(g, 0.5)
    dens = mu.density()
    np.testing.assert_allclose(dens * g.cell_side, mu.cell_mass.reshape(dens.shape))


def test_box_mass_additivity():
    g = Grid(dimension=1, max_level=6)
    mu = random_dyadic_doubling(g, 2.0, seed=5)
    whole = mu.box_mass((0.1,), (0.9,))
    parts = mu.box_mass((0.1,), (0.37,)) + mu.box_mass((0.37,), (0.9,))
    np.testing.assert_allclose(parts, whole, rtol=1e-12)


def _doubling_by_cube(measure, depth):
    """{cube key: (ratio, clipped)} of every positive-mass cube at levels
    1..depth, one box-fraction sum per cube, plus the scan's (best, key)."""
    grid = measure.grid
    out, best, key = {}, -np.inf, None
    for level in range(1, depth + 1):
        for q in grid.cubes_at_level(level):
            m = measure.cube_mass(q)
            if m <= 0:
                continue
            frac, clipped = grid.box_fractions(q.center - q.side, q.center + q.side)
            ratio = float((measure.cell_mass * frac).sum()) / m
            out[q.key()] = (ratio, clipped)
            if ratio > best:
                best, key = ratio, q.key()
    return out, best, key


def _holed(grid):
    cells = random_dyadic_doubling(grid, 3.0, seed=4).cell_mass.copy()
    cells[: grid.cells_per_axis // 2] = 0.0
    return custom_cells(grid, cells, label="holed")


DOUBLING_CASES = {
    "1d-lebesgue": lambda: lebesgue(Grid(dimension=1, max_level=8)),
    "1d-power": lambda: power_weight(Grid(dimension=1, max_level=8), -0.4),
    "1d-doubling": lambda: random_dyadic_doubling(Grid(dimension=1, max_level=8), 3.0, seed=2),
    "1d-point": lambda: near_point_mass(Grid(dimension=1, max_level=8), 6.0),
    "1d-holed": lambda: _holed(Grid(dimension=1, max_level=8)),
    "2d-doubling": lambda: random_dyadic_doubling(Grid(dimension=2, max_level=4), 3.0, seed=3),
    "2d-point": lambda: near_point_mass(Grid(dimension=2, max_level=4), 5.0, (3, 12)),
    # the point sits in the collar of the cube at the window's corner
    "1d-edge": lambda: near_point_mass(Grid(dimension=1, max_level=8), 6.0, (2,)),
    "2d-edge": lambda: near_point_mass(Grid(dimension=2, max_level=4), 5.0, (2, 2)),
    "2d-holed": lambda: _holed(Grid(dimension=2, max_level=4)),
    "2d-shifted": lambda: random_dyadic_doubling(
        Grid(dimension=2, origin=(0.3, -0.2), side=1.5, shift=(0.25, 0.1), max_level=4),
        2.0, seed=6),
}


@pytest.mark.parametrize("name", sorted(DOUBLING_CASES))
def test_doubling_constant_matches_per_cube_scan(name):
    mu = DOUBLING_CASES[name]()
    depth = mu.grid.max_level - 1
    by_cube, best, key = _doubling_by_cube(mu, depth)
    rep = doubling_constant(mu, depth)
    np.testing.assert_allclose(rep.constant, best, rtol=1e-12, atol=0.0)
    ratio, clipped = by_cube[rep.witness_cube]
    np.testing.assert_allclose(ratio, best, rtol=1e-12, atol=0.0)
    assert rep.clipped_at_witness == clipped
    near = [k for k, (r, _) in by_cube.items() if r >= best * (1.0 - 1e-10)]
    if len(near) == 1:
        assert rep.witness_cube == key
    assert rep.clipped_at_witness == name.endswith("-edge")
