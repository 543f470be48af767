import json
import tracemalloc

import numpy as np
import pytest

import haartest.frames as frames
from haartest.dyadic import Grid
from haartest.frames import (
    FrameBoundsReport,
    _resolved_samples,
    _row_blocks,
    _sequence_norms,
    banach_frame_check,
    hilbert_frame_bounds,
    lp_square_function_bounds,
)
from haartest.haar import build_system, cached_system
from haartest.measure import (
    DegenerateMeasureError,
    custom_cells,
    lebesgue,
    random_dyadic_doubling,
)
from oracles import mesh_values, rotated_system

GRID_2D = Grid(dimension=2, max_level=4)

GRID = Grid(dimension=1, max_level=6)
MU = random_dyadic_doubling(GRID, 2.0, seed=51)


def full_basis(mu, depth):
    """The depth-`depth` wavelets plus the constant mean element."""
    sys = build_system(mu, depth)
    elements = [mesh_values(h) for h in sys.wavelets]
    mean = np.full(mu.grid.mesh_shape, 1.0 / np.sqrt(mu.total_mass))
    return elements + [mean], sys


def cell_basis(mu):
    """Normalized single-cell indicators: an orthonormal basis of the mesh."""
    out = []
    for i, m in enumerate(mu.flat_mass):
        if m <= 0:
            continue
        e = np.zeros(mu.grid.n_cells)
        e[i] = 1.0 / np.sqrt(m)
        out.append(e.reshape(mu.grid.mesh_shape))
    return out


def test_parseval_full_system():
    elements, _ = full_basis(MU, GRID.max_level)
    rep = hilbert_frame_bounds(elements, MU, sample_count=32, seed=0)
    np.testing.assert_allclose(rep.lower, 1.0, atol=1e-10)
    np.testing.assert_allclose(rep.upper, 1.0, atol=1e-10)
    assert rep.p == 2.0


def test_two_orthonormal_bases_double_the_bounds():
    elements, _ = full_basis(MU, GRID.max_level)
    both = elements + cell_basis(MU)
    rep = hilbert_frame_bounds(both, MU, sample_count=32, seed=0)
    np.testing.assert_allclose(rep.lower, 2.0, atol=1e-10)
    np.testing.assert_allclose(rep.upper, 2.0, atol=1e-10)


def test_deleted_element_certified_by_probe():
    elements, sys = full_basis(MU, GRID.max_level)
    deleted = elements[0]
    probe = deleted  # the deleted wavelet is orthogonal to everything kept
    rep = hilbert_frame_bounds(elements[1:], MU, sample_count=16, seed=0,
                               probes=[probe])
    assert rep.lower < 1e-10
    assert rep.lower_witness["sample"] == {"kind": "probe", "index": 0}
    # the rest of the family is still orthonormal: no ratio ever exceeds 1,
    # and random samples stay near it (each loses only the deleted component)
    assert rep.upper <= 1.0 + 1e-10
    assert rep.upper > 0.99


def test_adding_elements_never_shrinks_bounds():
    elements, _ = full_basis(MU, 4)
    small = hilbert_frame_bounds(elements[:10], MU, sample_count=24, seed=3)
    large = hilbert_frame_bounds(elements, MU, sample_count=24, seed=3)
    assert large.lower >= small.lower - 1e-12
    assert large.upper >= small.upper - 1e-12


def test_frame_bounds_validation():
    with pytest.raises(ValueError):
        hilbert_frame_bounds([], MU)
    with pytest.raises(ValueError):
        hilbert_frame_bounds([np.ones(3)], MU)
    null = custom_cells(GRID, np.zeros(GRID.n_cells), label="null")
    with pytest.raises(DegenerateMeasureError):
        hilbert_frame_bounds([np.ones(GRID.mesh_shape)], null)
    with pytest.raises(ValueError):
        FrameBoundsReport(lower=2.0, upper=1.0, sample_count=4, p=2.0,
                          lower_witness={}, upper_witness={})
    with pytest.raises(ValueError):
        FrameBoundsReport(lower=0.0, upper=0.0, sample_count=4, p=2.0,
                          lower_witness={}, upper_witness={})


def test_report_serializes():
    elements, _ = full_basis(MU, 3)
    rep = hilbert_frame_bounds(elements, MU, sample_count=8, seed=1)
    as_text = json.dumps(rep.as_dict(), sort_keys=True)
    assert json.loads(as_text)["sample_count"] == 8


def test_square_function_exact_at_p_two():
    rep = lp_square_function_bounds(MU, p=2.0, depth=5, sample_count=24, seed=0)
    np.testing.assert_allclose(rep.lower, 1.0, atol=1e-9)
    np.testing.assert_allclose(rep.upper, 1.0, atol=1e-9)


def test_square_function_exact_at_p_two_lebesgue():
    rep = lp_square_function_bounds(lebesgue(GRID), p=2.0, depth=4,
                                    sample_count=16, seed=2)
    np.testing.assert_allclose([rep.lower, rep.upper], 1.0, atol=1e-9)


def test_single_wavelet_probe_ratio_one_any_p():
    # a lone wavelet is its own square function: ratio 1 at every p
    sys = build_system(MU, 3)
    probe = mesh_values(sys.wavelets[4])
    for p in (1.5, 2.0, 3.0, 4.0):
        rep = lp_square_function_bounds(MU, p=p, depth=3, sample_count=1,
                                        seed=0, probes=[probe])
        probe_ratios = [w["ratio"]
                        for w in (rep.lower_witness, rep.upper_witness)
                        if w["sample"]["kind"] == "probe"]
        # the probe ratio pins one end of the band (or both) at exactly 1
        assert probe_ratios, "probe should land on one of the extremes"
        np.testing.assert_allclose(probe_ratios, 1.0, atol=1e-10)
        assert rep.lower <= 1.0 + 1e-10 <= rep.upper + 2e-10


def test_square_function_band_depth_stability():
    rep = lp_square_function_bounds(MU, p=3.0, depth=5, sample_count=48, seed=0)
    assert 0.0 < rep.lower <= rep.upper
    assert rep.details["band_drift"] < 0.1
    assert rep.details["neighbor_depth"] == 6


def test_square_function_validation():
    with pytest.raises(ValueError):
        lp_square_function_bounds(MU, p=1.0, depth=3)
    with pytest.raises(ValueError):
        lp_square_function_bounds(MU, p=0.5, depth=3)


def test_banach_frame_triple_roundtrip():
    sys = build_system(MU, 5)
    rng = np.random.default_rng(7)
    blocks = rng.standard_normal(2 ** 5)
    f = np.repeat(blocks, GRID.cells_per_axis // 2 ** 5)
    coeffs, mean = sys.expand(f), sys.mean_coefficient(f)
    assert np.isfinite(_sequence_norms(sys, coeffs[None], 3.0)).all()
    back = sys.reconstruct(coeffs, mean).ravel()
    err = np.abs(back - f)[MU.flat_mass > 0]
    assert float(err.max(initial=0.0)) < 1e-10


def test_banach_frame_check_passes():
    rep = banach_frame_check(MU, p=3.0, depth=4, sample_count=16, seed=0)
    assert rep.name == "banach_frame"
    assert rep.passed
    assert rep.details["roundtrip_max_gap"] < 1e-10
    assert rep.details["failures"] == []
    assert rep.details["synthesis_bound"] > 0.0
    # the advertised band is exactly the square-function one
    band = lp_square_function_bounds(MU, p=3.0, depth=4,
                                     sample_count=16, seed=0)
    np.testing.assert_allclose(rep.details["band"], [band.lower, band.upper],
                               rtol=1e-12)


def test_banach_frame_check_p2_parseval():
    rep = banach_frame_check(MU, p=2.0, depth=4, sample_count=12, seed=1)
    assert rep.passed
    lo, hi = rep.details["band"]
    np.testing.assert_allclose([lo, hi], 1.0, atol=1e-9)


def test_banach_frame_check_validation():
    with pytest.raises(ValueError):
        banach_frame_check(MU, p=1.0, depth=3)
    with pytest.raises(ValueError):
        banach_frame_check(MU, p=0.5, depth=3)
    with pytest.raises(ValueError):
        banach_frame_check(MU, p=3.0, depth=0)
    with pytest.raises(ValueError):
        banach_frame_check(MU, p=3.0, depth=GRID.max_level + 1)
    null = custom_cells(GRID, np.zeros(GRID.n_cells), label="null")
    with pytest.raises(DegenerateMeasureError):
        banach_frame_check(null, p=3.0, depth=3)


def empty_quadrant_measure():
    """2-D L=4 doubling measure with an empty quadrant, so the root carries
    2 wavelets, and with half of cube 1:1,0 empty, so that cube carries 1."""
    mass = random_dyadic_doubling(GRID_2D, 2.0, seed=9).cell_mass.copy()
    mass[:8, :8] = 0.0
    mass[8:, :4] = 0.0
    return custom_cells(GRID_2D, mass, label="holes")


SYSTEMS = {
    "1d-doubling": lambda: build_system(MU, GRID.max_level),
    "2d-empty-quadrant": lambda: build_system(empty_quadrant_measure(), 4),
    "2d-rotated": lambda: rotated_system(
        build_system(random_dyadic_doubling(GRID_2D, 3.0, seed=5), 3),
        np.random.default_rng(3)),
}


def per_cube_sequence_norm(system, coeffs, p):
    """The Lp norm of the block square function, summed cube by cube."""
    values = system.values_matrix
    square = np.zeros(values.shape[1])
    for start, count in system.cube_slots.values():
        if count:
            square += (coeffs[start:start + count] @ values[start:start + count]) ** 2
    mu = system.measure
    return mu.norm_lp(np.sqrt(square.reshape(mu.grid.mesh_shape)), p)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_sequence_norms_match_per_cube_sum(name):
    sys = SYSTEMS[name]()
    if name == "2d-empty-quadrant":
        counts = {count for _, count in sys.cube_slots.values()}
        assert {1, 2} <= counts
    coeffs = np.random.default_rng(11).standard_normal((5, sys.n_wavelets))
    for p in (1.5, 2.0, 3.0):
        oracle = [per_cube_sequence_norm(sys, row, p) for row in coeffs]
        np.testing.assert_allclose(_sequence_norms(sys, coeffs, p), oracle,
                                   rtol=1e-12)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_level_rows_partition_the_cube_slots(name):
    sys = SYSTEMS[name]()
    rows = sys.level_rows
    assert len(rows) == sys.depth
    bounds = [r.start for r in rows] + [rows[-1].stop]
    assert bounds[0] == 0 and bounds[-1] == sys.n_wavelets
    assert bounds == sorted(bounds)
    for key, (start, count) in sys.cube_slots.items():
        level = rows[int(key.split(":")[0])]
        assert level.start <= start and start + count <= level.stop


def test_level_rows_without_wavelets():
    mass = np.zeros(GRID.n_cells)
    mass[5] = 1.0
    sys = build_system(custom_cells(GRID, mass, label="point"), 4)
    assert sys.n_wavelets == 0
    assert sys.level_rows == [slice(0, 0)] * 4


def test_hilbert_frame_bounds_match_weighted_rows():
    elements = full_basis(MU, 4)[0] + cell_basis(MU)[:20]
    probes = [elements[0] + elements[7], np.ones(GRID.mesh_shape), elements[30]]
    rep = hilbert_frame_bounds(elements, MU, sample_count=16, seed=4, probes=probes)
    rows = np.stack([e.ravel() for e in elements])
    xs = np.concatenate([np.stack([q.ravel() for q in probes]),
                         np.random.default_rng(4).standard_normal((16, GRID.n_cells))])
    ratios = (((rows * MU.flat_mass) @ xs.T) ** 2).sum(axis=0) / (xs**2 @ MU.flat_mass)
    labels = ([{"kind": "probe", "index": i} for i in range(3)]
              + [{"kind": "random", "index": i} for i in range(16)])
    np.testing.assert_allclose([rep.lower, rep.upper], [ratios.min(), ratios.max()],
                               rtol=1e-12)
    assert rep.lower_witness["sample"] == labels[int(np.argmin(ratios))]
    assert rep.upper_witness["sample"] == labels[int(np.argmax(ratios))]


def test_hilbert_frame_bounds_in_element_blocks():
    # 1,024 elements: several blocks of stacked rows, summed in element order
    grid = Grid(dimension=2, max_level=5)
    mu = random_dyadic_doubling(grid, 2.0, seed=8)
    system = build_system(mu, grid.max_level)
    elements = [*system.values_matrix, np.full(grid.n_cells, 1.0 / np.sqrt(mu.total_mass))]
    rep = hilbert_frame_bounds(elements, mu, sample_count=12, seed=2)
    xs = np.random.default_rng(2).standard_normal((12, grid.n_cells))
    coeffs = np.stack(elements) @ (xs * mu.flat_mass).T
    ratios = (coeffs**2).sum(axis=0) / (xs**2 * mu.flat_mass).sum(axis=1)
    assert [rep.lower, rep.upper] == [ratios.min(), ratios.max()]
    np.testing.assert_allclose([rep.lower, rep.upper], 1.0, atol=1e-9)
    with pytest.raises(ValueError):
        hilbert_frame_bounds(elements[:-1] + [np.ones(3)], mu)


def test_constant_probe_is_skipped():
    mu = random_dyadic_doubling(GRID_2D, 3.0, seed=5)
    constant = np.full(GRID_2D.mesh_shape, 5.0)
    with_probe = lp_square_function_bounds(mu, p=3.0, depth=3, sample_count=8,
                                           seed=0, probes=[constant])
    without = lp_square_function_bounds(mu, p=3.0, depth=3, sample_count=8, seed=0)
    assert with_probe.as_dict() == without.as_dict()
    with pytest.raises(DegenerateMeasureError):
        lp_square_function_bounds(mu, p=3.0, depth=3, sample_count=0,
                                  probes=[constant])


@pytest.mark.parametrize("mu", [MU, empty_quadrant_measure()], ids=["1d", "2d-holes"])
def test_hilbert_frame_bounds_on_the_system_match_its_element_list(mu):
    grid = mu.grid
    constant = np.full(grid.n_cells, 1.0 / np.sqrt(mu.total_mass))
    probes = [np.ones(grid.mesh_shape), np.arange(grid.n_cells, dtype=float)]
    for depth in (grid.max_level, 2):
        system = build_system(mu, depth)
        by_system = hilbert_frame_bounds(system, mu, sample_count=16, seed=3, probes=probes)
        by_list = hilbert_frame_bounds([*system.values_matrix, constant], mu,
                                       sample_count=16, seed=3, probes=probes)
        np.testing.assert_allclose([by_system.lower, by_system.upper],
                                   [by_list.lower, by_list.upper], rtol=1e-12)
        assert by_system.details == by_list.details
        if depth < grid.max_level:
            # an incomplete family: the ratios are apart, so the witnesses agree
            assert by_system.lower < 1.0 - 1e-3
            assert by_system.lower_witness["sample"] == by_list.lower_witness["sample"]
            assert by_system.upper_witness["sample"] == by_list.upper_witness["sample"]
        else:
            np.testing.assert_allclose([by_system.lower, by_system.upper], 1.0, atol=1e-12)


def test_hilbert_frame_bounds_rejects_a_system_on_another_measure():
    system = build_system(lebesgue(GRID), 3)
    with pytest.raises(ValueError):
        hilbert_frame_bounds(system, MU)


def _frame_reports(mu, depth, probes):
    """The three reports of the `frames` op at p = 3, the first two with
    probes, and after the first, its frame bounds with the system given as a
    list of elements."""
    system = cached_system(mu, mu.grid.max_level)
    constant = np.full(mu.grid.n_cells, 1.0 / np.sqrt(mu.total_mass))
    return [hilbert_frame_bounds(system, mu, sample_count=64, seed=9,
                                 probes=probes).as_dict(),
            hilbert_frame_bounds([*system.values_matrix, constant], mu, sample_count=64,
                                 seed=9, probes=probes).as_dict(),
            lp_square_function_bounds(mu, 3.0, depth, sample_count=64, seed=9,
                                      probes=probes).as_dict(),
            banach_frame_check(mu, 3.0, depth, sample_count=32, seed=9).as_dict()]


@pytest.mark.parametrize("grid, depth", [(Grid(dimension=2, max_level=4), 3),
                                         (Grid(dimension=1, max_level=8), 5)],
                         ids=["2d-L4", "1d-L8"])
def test_frame_reports_do_not_depend_on_the_row_blocks(monkeypatch, grid, depth):
    # one row's entries per block give blocks of one row; twelve rows leave
    # an uneven last block of seven (the first mixes the three probes with
    # random rows); then every row in one block: the reports are the same
    mu = random_dyadic_doubling(grid, 2.0, seed=23)
    rng = np.random.default_rng(4)
    probes = [np.ones(grid.mesh_shape), rng.standard_normal(grid.mesh_shape),
              rng.standard_normal(grid.n_cells)]
    reports = []
    for rows in (1, 12, 1 << 10):
        monkeypatch.setattr(frames, "_SAMPLE_BLOCK_ENTRIES", rows * grid.n_cells)
        blocks = _row_blocks(64, lambda k: np.zeros((k, grid.n_cells)), grid.n_cells, probes)
        sizes = [len(block) for block in blocks]
        assert sizes == {1: [1] * 67, 12: [12] * 5 + [7], 1 << 10: [67]}[rows]
        reports.append(_frame_reports(mu, depth, probes))
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]
    assert reports[0][0]["details"]["probe_count"] == 3


def test_blocked_draws_equal_one_draw():
    grid = Grid(dimension=2, max_level=4)
    for splits in ([16] * 4, [5] * 12 + [4], [20, 20, 24], [39, 25]):
        one, blocked = np.random.default_rng(3), np.random.default_rng(3)
        np.testing.assert_array_equal(
            np.concatenate([blocked.standard_normal((k, grid.n_cells)) for k in splits]),
            one.standard_normal((64, grid.n_cells)))
        one, blocked = np.random.default_rng(3), np.random.default_rng(3)
        np.testing.assert_array_equal(
            np.concatenate([_resolved_samples(grid, 2, k, blocked) for k in splits]),
            _resolved_samples(grid, 2, 64, one))


@pytest.mark.parametrize("check", ["hilbert", "square", "banach"])
def test_each_frame_check_holds_a_few_blocks(check):
    # 2-D L=6 at depth 5 and p = 3, as the frames-2d op, with 64 samples each:
    # a sample matrix is 2 MiB, and the checks that held whole matrices
    # peaked at 13, 22.5 and 8.6 MiB of traced allocation; streamed in
    # 16-row blocks, each stays under 8 MiB
    grid = Grid(dimension=2, max_level=6)
    mu = random_dyadic_doubling(grid, 2.0, seed=1)
    run = {"hilbert": lambda: hilbert_frame_bounds(cached_system(mu, 6), mu, sample_count=64),
           "square": lambda: lp_square_function_bounds(mu, 3.0, 5, sample_count=64),
           "banach": lambda: banach_frame_check(mu, 3.0, 5, sample_count=64)}[check]
    run()  # the systems, their cached level arrays and numpy's lazy imports
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 8 << 20, peak - start
