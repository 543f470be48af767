import json

import numpy as np
import pytest

import haartest.experiments as experiments
from haartest.characteristics import _cube_values, cube_testing, pair_bundle
from haartest.dyadic import DyadicCube, Grid, MeshExhaustedError, box_distance
from haartest.haar import HaarSystem
from haartest.experiments import (
    AlignedTriple,
    AlignmentError,
    _aligned_partner,
    _dipole_pair,
    MatrixCounterexampleConfig,
    SectorConfig,
    SignDominanceError,
    a2_lower_bound_experiment,
    build_aligned_triple,
    counterexample_search,
    halo_cover,
    kernel_difference_report,
    matrix_counterexample,
    phi_test_function,
    quadratic_ap_experiment,
    select_delta,
    triple_absorption_experiment,
)
from haartest.measure import (
    doubling_constant,
    lebesgue,
    near_point_mass,
    power_weight,
    random_dyadic_doubling,
)
from haartest.operators import (
    Truncation,
    TruncationError,
    default_truncation,
    make_kernel,
)
from oracles import dense_kernel_matrix, greedy_halo_cover

GRID = Grid(dimension=1)
HILBERT = make_kernel("hilbert", 0.0, 1)
TRUNC = default_truncation(GRID)
LEB = lebesgue(GRID)


def narrow_cone():
    return SectorConfig(v=(1.0,), delta=0.125)


def test_sector_config_validation():
    with pytest.raises(ValueError):
        SectorConfig(v=(0.0,), delta=0.5)
    with pytest.raises(ValueError):
        SectorConfig(v=(1.0,), delta=0.0)
    with pytest.raises(ValueError):
        SectorConfig(v=(1.0,), delta=1.5)
    with pytest.raises(ValueError):
        SectorConfig(v=(1.0,), delta=0.5, m=0)
    # the axis comes out normalized
    cfg = SectorConfig(v=(2.0,), delta=0.5)
    np.testing.assert_allclose(cfg.axis(), [1.0])


def test_build_aligned_triple_frozen_geometry():
    tri = build_aligned_triple(GRID, HILBERT, narrow_cone(), GRID.cube(4, (0,)))
    assert tri.source.key() == "4:0"
    assert tri.target.key() == "4:9"
    assert tri.neg_cube.key() == "7:0"
    assert tri.pos_cube.key() == "7:7"
    assert tri.m == 3
    np.testing.assert_allclose(tri.midpoint, [0.03125])
    keys = tri.keys()
    assert keys["target"] == "4:9" and keys["delta"] == 0.125


def test_build_aligned_triple_mirrored_axis():
    cfg = SectorConfig(v=(-1.0,), delta=0.125)
    tri = build_aligned_triple(GRID, HILBERT, cfg, GRID.cube(4, (15,)))
    assert tri.target.key() == "4:6"
    assert tri.neg_cube.key() == "7:127"
    assert tri.pos_cube.key() == "7:120"


def test_build_aligned_triple_cone_with_no_room():
    # pointing left from the leftmost cube leaves no admissible target
    cfg = SectorConfig(v=(-1.0,), delta=0.125)
    with pytest.raises(AlignmentError, match="cone|alignment|candidate"):
        build_aligned_triple(GRID, HILBERT, cfg, GRID.cube(4, (0,)))


def test_build_aligned_triple_rejects_wide_cone():
    # delta must stay below the kernel's declared flatness threshold (1/4)
    cfg = SectorConfig(v=(1.0,), delta=0.5)
    with pytest.raises(AlignmentError):
        build_aligned_triple(GRID, HILBERT, cfg, GRID.cube(4, (0,)))


def test_aligned_triple_rejects_bad_geometry():
    cfg = narrow_cone()
    tri = build_aligned_triple(GRID, HILBERT, cfg, GRID.cube(4, (0,)))
    with pytest.raises(AlignmentError, match="side length"):
        AlignedTriple(tri.source, GRID.cube(5, (18,)), tri.neg_cube,
                      tri.pos_cube, cfg)
    with pytest.raises(AlignmentError, match="distinct"):
        AlignedTriple(tri.source, tri.target, tri.neg_cube, tri.neg_cube, cfg)
    with pytest.raises(AlignmentError, match="inside the source"):
        AlignedTriple(tri.source, tri.target, GRID.cube(7, (20,)),
                      tri.pos_cube, cfg)


def test_phi_test_function_frozen_values():
    tri = build_aligned_triple(GRID, HILBERT, narrow_cone(), GRID.cube(4, (0,)))
    phi, rep = phi_test_function(LEB, tri)
    assert rep.mean == pytest.approx(0.0, abs=1e-12)
    # both dipole cells carry mass 2^-7, so the unit-height dipole has
    # L2 norm sqrt(2 * 2^-7) and the normalized one has norm 16 = 1/that
    np.testing.assert_allclose(rep.l2_norm, 16.0, rtol=1e-12)
    np.testing.assert_allclose(rep.closed_form, 16.0, rtol=1e-12)
    np.testing.assert_allclose(rep.pos_mass, 2.0 ** -7, rtol=1e-12)
    np.testing.assert_allclose(rep.neg_mass, 2.0 ** -7, rtol=1e-12)
    # the mesh function integrates to zero; its sigma-norm is the reported one
    assert abs(LEB.integrate(phi)) < 1e-12
    np.testing.assert_allclose(LEB.norm_lp(phi, 2.0), rep.l2_norm, rtol=1e-12)
    # each lobe integrates to exactly +-1 (mass-normalized dipole)
    pos = phi.copy()
    pos[phi < 0] = 0.0
    np.testing.assert_allclose(LEB.integrate(pos), 1.0, rtol=1e-12)


def test_phi_rejects_massless_dipole():
    tri = build_aligned_triple(GRID, HILBERT, narrow_cone(), GRID.cube(4, (0,)))
    dead = near_point_mass(GRID, 2.0, cell_coords=(900,))
    cells = dead.cell_mass.copy()
    cells[tri.pos_cube.slices()] = 0.0
    from haartest.measure import custom_cells
    with pytest.raises(ValueError, match="mass"):
        phi_test_function(custom_cells(GRID, cells), tri)


def test_kernel_difference_sign_dominance_frozen():
    tri = build_aligned_triple(GRID, HILBERT, narrow_cone(), GRID.cube(4, (0,)))
    rep = kernel_difference_report(HILBERT, TRUNC, tri, seed=0)
    assert rep.passed
    d = rep.details
    assert d["orientation"] == 1.0
    assert d["band_fraction"] == 1.0
    assert d["sign_agreement"] == 1.0
    np.testing.assert_allclose(d["worst_band_ratio"], 0.062158, atol=1e-5)
    assert d["identity_residual_max"] < 1e-12
    assert d["sample_count"] == 64


def test_kernel_difference_mirrored_orientation():
    cfg = SectorConfig(v=(-1.0,), delta=0.125)
    tri = build_aligned_triple(GRID, HILBERT, cfg, GRID.cube(4, (15,)))
    rep = kernel_difference_report(HILBERT, TRUNC, tri, seed=0)
    assert rep.details["orientation"] == -1.0
    assert rep.details["band_fraction"] == 1.0


def test_kernel_difference_needs_plateau():
    tri = build_aligned_triple(GRID, HILBERT, narrow_cone(), GRID.cube(4, (0,)))
    tight = Truncation(0.2, 0.9)
    with pytest.raises(TruncationError):
        kernel_difference_report(HILBERT, tight, tri, seed=0)


def test_select_delta_frozen():
    delta, tri, rep = select_delta(GRID, HILBERT, TRUNC, GRID.cube(4, (0,)))
    assert delta == pytest.approx(0.25)
    assert tri.target.key() == "4:5"
    assert rep.details["band_fraction"] == 1.0


def test_a2_lower_bound_power_pair(power_pair):
    sigma, omega = power_pair
    rep = a2_lower_bound_experiment(sigma, omega, HILBERT, TRUNC,
                                    trials=10, seed=0)
    assert rep.passed
    d = rep.details
    assert d["sign_fraction"] == 1.0
    assert d["max_reconstruction_error"] < 1e-10
    # expansion coefficients live on the source and dipole ancestry chain:
    # never more than 2m - 1 cubes in one dimension
    assert d["max_coefficient_count"] <= 5
    assert d["min_r1"] > 0.0
    assert d["trial_count"] == 10
    assert d["floor"] == 0.0 and d["delta"] == 0.125
    np.testing.assert_allclose(rep.value, 0.367496, atol=1e-5)


def test_expansion_check_takes_the_source_rows_from_the_level_arrays(monkeypatch):
    # the rows the dipole may use are those whose cube is the source or a
    # descendant above the dipole level, as the wavelet labels name them
    import dataclasses

    grid2 = Grid(dimension=2, max_level=5)
    kernel2 = dataclasses.replace(HILBERT, delta0=1.0)
    cases = [(random_dyadic_doubling(GRID, 2.0, seed=1),
              build_aligned_triple(GRID, HILBERT, narrow_cone(), GRID.cube(4, (0,)))),
             (random_dyadic_doubling(grid2, 2.0, seed=1),
              build_aligned_triple(grid2, kernel2, SectorConfig(v=(1.0, 0.5), delta=1.0, m=3),
                                   grid2.cube(2, (0, 0))))]
    for sigma, tri in cases:
        system = experiments.cached_system(sigma, tri.pos_cube.level)
        allowed = {tri.source.key()} | {
            q.key() for q in tri.source.grandchildren(tri.m - 1, cumulative=True)}
        want = np.array([key in allowed for key, _ in system.wavelet_labels()])
        assert 0 < want.sum() < want.size
        with monkeypatch.context() as patch:
            patch.setattr(HaarSystem, "wavelet_labels", lambda self: 1 / 0)
            np.testing.assert_array_equal(experiments._rows_within(system, tri.source), want)
            phi, rep = phi_test_function(sigma, tri)
            check = experiments._expansion_check(sigma, tri, phi, rep.l2_norm)
        assert check["support_ok"] and check["count_ok"]
        assert check["reconstruction_error"] < 1e-10


def test_a2_lower_bound_floor_violation(monkeypatch, power_pair):
    # a trial whose pairing ratio vanishes fails the experiment
    sigma, omega = power_pair
    trial = experiments._dipole_trial

    def vanishing(*args):
        block, _, *rest = trial(*args)
        return (block, 0.0, *rest)

    monkeypatch.setattr(experiments, "_dipole_trial", vanishing)
    with pytest.raises(SignDominanceError, match="floor"):
        a2_lower_bound_experiment(sigma, omega, HILBERT, TRUNC, trials=5, seed=0)


def test_triple_absorption_stability(power_pair):
    sigma, omega = power_pair
    r5 = triple_absorption_experiment(sigma, omega, HILBERT, TRUNC,
                                      depth=5, seed=0)
    assert r5.passed
    np.testing.assert_allclose(r5.value, 0.726856, atol=1e-5)
    assert r5.details["cross_term_max_ratio"] <= 1.0 + 1e-12
    r6 = triple_absorption_experiment(sigma, omega, HILBERT, TRUNC,
                                      depth=6, seed=0)
    # deeper scans keep the absorption constant within a 10% band
    assert abs(r6.value - r5.value) <= 0.1 * r5.value


@pytest.mark.parametrize("depth", [0, -1, 8])
def test_triple_absorption_rejects_depth_outside_the_haar_levels(depth):
    # the global Haar testing needs a level of wavelets: depth 0 is
    # refused up front, as a depth past the mesh is
    grid = Grid(dimension=1, max_level=7)
    sigma = random_dyadic_doubling(grid, 2.0, seed=1)
    with pytest.raises(ValueError, match=r"triple absorption depth must lie in \[1, 7\]"):
        triple_absorption_experiment(sigma, sigma, HILBERT, default_truncation(grid),
                                     depth=depth)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("depth", [3, 5])
def test_triple_absorption_matches_dense_cube_values(dim, depth):
    # oracle: each cube's energy is the squared triple-mode cube value at
    # p = 2, computed densely by _cube_values one cube at a time
    if dim == 1:
        grid = Grid(dimension=1, max_level=8)
        kernel = make_kernel("hilbert", 0.0, 1)
        sigma, omega = power_weight(grid, 0.3), power_weight(grid, -0.3)
    else:
        grid = Grid(dimension=2, max_level=5)
        kernel = make_kernel("riesz_like", 0.5, 2)
        # a pair whose witness, 1:1,0, is neither the root nor on the diagonal
        sigma = random_dyadic_doubling(grid, 8.0, seed=3)
        omega = random_dyadic_doubling(grid, 8.0, seed=4)
    trunc = default_truncation(grid)
    rep = triple_absorption_experiment(sigma, omega, kernel, trunc,
                                       depth=depth, seed=0)
    d = rep.details
    cube = cube_testing(sigma, omega, kernel, trunc, mode="triple", p=2.0,
                        depth=depth)
    np.testing.assert_allclose(d["triple_testing"], cube.value, rtol=1e-12)
    assert d["scanned_cubes"] == cube.search_space["cubes_scanned"]
    g = dense_kernel_matrix(kernel, trunc, grid)
    h, a = d["haar_testing_global"], d["a2"]
    dense = {}
    for level in range(depth + 1):
        for q in grid.cubes_at_level(level):
            val = _cube_values(kernel, trunc, sigma, omega, "triple", 2.0, [q])[0]
            if val >= 0.0:
                dense[q.key()] = val**2 / (h**2 + a * val)
    assert len(dense) == d["scanned_cubes"]
    np.testing.assert_allclose(d["absorption_c"], max(dense.values()), rtol=1e-12)
    # c = E / (h^2 + a sqrt(E)) is increasing in E: invert it at the witness
    c = d["absorption_c"]
    root = 0.5 * (c * a + np.sqrt((c * a) ** 2 + 4.0 * c * h**2))
    witness = DyadicCube.from_key(grid, d["absorption_witness"])
    energy = _cube_values(kernel, trunc, sigma, omega, "triple", 2.0, [witness])[0] ** 2
    np.testing.assert_allclose(root**2, energy, rtol=1e-12)
    # the cross-term ratio is the Cauchy-Schwarz ratio of one adjacent pair,
    # with dense images, over the first cube's tripled box
    def image(q):
        return g @ (q.indicator().ravel() * sigma.flat_mass)

    ratios = []
    for level in range(1, depth + 1):
        for q in grid.cubes_at_level(level):
            if q.key() not in dense:
                continue
            img_q = image(q)
            frac, _ = grid.box_fractions(*q.triple_box())
            w = omega.flat_mass * frac.ravel()
            for ax in range(grid.dimension):
                coords = list(q.coords)
                coords[ax] += 1
                if coords[ax] >= 2**level:
                    continue
                other = grid.cube(level, tuple(coords))
                if other.key() not in dense:
                    continue
                img_o = image(other)
                bound = np.sqrt((img_q**2 @ w) * (img_o**2 @ w))
                if bound > 0.0:
                    ratios.append(abs(img_q @ (w * img_o)) / bound)
    gap = np.abs(np.asarray(ratios) - d["cross_term_max_ratio"]).min()
    assert gap <= 1e-12 * d["cross_term_max_ratio"]
    assert d["cross_term_max_ratio"] <= max(ratios) + 1e-12


def test_matrix_counterexample_frozen():
    cfg = MatrixCounterexampleConfig(gamma=0.6, ladder_exponents=(10, 14, 17, 20))
    rep = matrix_counterexample(cfg)
    assert rep.passed
    d = rep.details
    assert d["col_sup"] == 1.0
    np.testing.assert_allclose(d["row_sup"], 2.364652710479438, rtol=1e-12)
    assert d["rows_decreasing"] and d["growth_strictly_increasing"]
    growth = [d["growth"][k] for k in sorted(d["growth"], key=int)]
    assert all(b > a for a, b in zip(growth, growth[1:]))
    np.testing.assert_allclose(rep.value, 8.1387728384273, rtol=1e-10)
    assert d["partial_terms"] == 100000


@pytest.mark.parametrize("chunk", [7, 64, 1 << 15])
def test_action_norm_by_chunks_matches_the_whole_vector(monkeypatch, chunk):
    # the ladder's |action_n|^2 from chunks with a carried sum, chunk sizes
    # that divide n or not, against the whole action vector of inner sums
    import haartest.experiments as experiments

    monkeypatch.setattr(experiments, "_LADDER_CHUNK", chunk)
    for n, s in ((1000, 1.2), (1024, 1.5), (1, 1.3)):
        terms = np.arange(1, n + 1, dtype=float) ** -s
        action = np.cumsum(terms[::-1])[::-1]  # sum_{k<=i<n} terms[i] at k
        np.testing.assert_allclose(experiments._action_norm_sq(n, s), action @ action,
                                   rtol=1e-13)


def test_matrix_counterexample_config_validation():
    with pytest.raises(ValueError):
        MatrixCounterexampleConfig(gamma=0.5, ladder_exponents=(10, 20))
    with pytest.raises(ValueError):
        MatrixCounterexampleConfig(gamma=0.8, ladder_exponents=(10, 20))
    with pytest.raises(ValueError):
        MatrixCounterexampleConfig(gamma=0.6, ladder_exponents=(20,))
    with pytest.raises(ValueError):
        MatrixCounterexampleConfig(gamma=0.6, ladder_exponents=(20, 10))


def test_counterexample_search_deterministic():
    a = counterexample_search(GRID, HILBERT, TRUNC, iterations=10, seed=0, depth=4)
    b = counterexample_search(GRID, HILBERT, TRUNC, iterations=10, seed=0, depth=4)
    assert a.value == b.value
    la, lb = a.details["leaderboard"], b.details["leaderboard"]
    assert [r["hash"] for r in la] == [r["hash"] for r in lb]
    ratios = [r["ratio"] for r in la]
    assert ratios == sorted(ratios, reverse=True)
    assert len(la) == 8
    assert "evidence" in a.details["note"]
    np.testing.assert_allclose(a.value, 3.270279, atol=1e-5)


def test_counterexample_search_takes_doubling_constants_for_its_leaderboard_only(monkeypatch):
    # 2 * 8 doubling constants (at depth 4 on L=10), and the leaderboard
    # of every row computed, doubling constants too, then sorted by (ratio, hash)
    calls, pairs = [], []

    def counted(measure, depth):
        calls.append(depth)
        return doubling_constant(measure, depth)

    def recorded(sigma, omega, *args):
        pairs.append((sigma, omega, pair_bundle(sigma, omega, *args)))
        return pairs[-1][2]

    monkeypatch.setattr(experiments, "doubling_constant", counted)
    monkeypatch.setattr(experiments, "pair_bundle", recorded)
    board = counterexample_search(GRID, HILBERT, TRUNC, iterations=12, seed=3,
                                  depth=4).details["leaderboard"]
    assert len(calls) == 2 * 8
    rows = []
    for sigma, omega, reports in pairs:
        norm, test, dual = (reports[name].value for name in
                            ("operator_norm", "haar_testing", "dual_haar_testing"))
        rows.append({"ratio": norm / (test + dual) if test + dual > 0.0 else 0.0,
                     "norm": norm, "testing": test, "dual_testing": dual,
                     "doubling_sigma": doubling_constant(sigma, 4).constant,
                     "doubling_omega": doubling_constant(omega, 4).constant,
                     "hash": experiments._pair_hash(sigma, omega)})
    rows.sort(key=lambda row: (-row["ratio"], row["hash"]))
    assert [{k: v for k, v in row.items() if k != "kind"} for row in board] == rows[:8]


def test_quadratic_ap_experiment(power_pair):
    sigma, omega = power_pair
    rep = quadratic_ap_experiment(sigma, omega, HILBERT, TRUNC,
                                  families=2, seed=0)
    assert rep.passed
    np.testing.assert_allclose(rep.value, 0.604387, atol=1e-5)
    assert rep.details["member_count"] >= 2
    assert rep.details["p"] == 2.0
    lo, hi = rep.details["norm_ratio_band"]
    assert 0.0 < lo <= hi


def test_halo_cover_frozen_lebesgue():
    cover = halo_cover(LEB, ((0.2,), 0.45), epsilon=0.1, eta=0.9)
    assert cover.t == 2
    assert cover.keys == ("2:1", "3:4")
    np.testing.assert_allclose(cover.leftover, 0.03, atol=1e-12)
    np.testing.assert_allclose(cover.box_mass, 0.45, rtol=1e-12)
    np.testing.assert_allclose(cover.halo_mass, 0.405, rtol=1e-12)
    assert cover.count == 2
    assert cover.leftover < 0.1 * cover.box_mass
    check = cover.recompute(LEB)
    assert check["contained"] and check["disjoint"] and check["leftover_ok"]
    lo, hi = cover.shrunken_box()
    np.testing.assert_allclose(hi - lo, 0.9 * 0.45, rtol=1e-12)


def test_halo_cover_peaked_measure():
    mu = near_point_mass(GRID, 4.0)
    cover = halo_cover(mu, ((0.4,), 0.25), epsilon=0.1, eta=0.9)
    assert cover.t == 1
    assert cover.keys == ("3:4",)
    np.testing.assert_allclose(cover.leftover, 0.00625, atol=1e-10)


@pytest.mark.parametrize("grid", [Grid(dimension=1, max_level=6), Grid(dimension=2, max_level=4)],
                         ids=["1d", "2d"])
def test_halo_cover_of_a_dyadic_cube_at_eta_one_is_that_cube(grid):
    # the greedy cover's first round takes the cube's own level
    for mu in (lebesgue(grid), random_dyadic_doubling(grid, 2.0, seed=1)):
        for level in range(grid.max_level + 1):
            for q in grid.cubes_at_level(level):
                cover = halo_cover(mu, (q.lower, q.side), epsilon=0.5, eta=1.0)
                assert cover.keys == (q.key(),) and cover.t == 1
                assert cover.leftover <= 1e-12 * cover.box_mass


@pytest.mark.parametrize("grid", [Grid(dimension=1, max_level=8),
                                  Grid(dimension=2, max_level=6, origin=(0.3, -1.7), side=2.5,
                                       shift=(0.1, 0.05))], ids=["1d", "2d-shifted"])
def test_halo_cover_matches_the_per_cube_loop(grid):
    # the level masks take the cubes the greedy loop takes, and the same
    # floats: every t, key and leftover is equal, and so is running out
    mu = random_dyadic_doubling(grid, 2.0, seed=5)
    rng = np.random.default_rng(11)
    for eta in (0.3, 0.9, 1.0):
        for epsilon in (0.5, 0.15, 1e-3):
            side = float(rng.uniform(0.2, 0.6)) * grid.side
            lo = grid.window_lower + rng.uniform(0.0, grid.side - side, grid.dimension)
            want = greedy_halo_cover(mu, (lo, side), epsilon, eta)
            if want is None:
                with pytest.raises(MeshExhaustedError):
                    halo_cover(mu, (lo, side), epsilon=epsilon, eta=eta)
                continue
            cover = halo_cover(mu, (lo, side), epsilon=epsilon, eta=eta)
            assert (cover.t, cover.keys, cover.leftover) == want


def test_halo_cover_validation():
    with pytest.raises(ValueError):
        halo_cover(LEB, ((0.2,), 0.45), epsilon=0.1, eta=1.5)
    with pytest.raises(ValueError):
        halo_cover(LEB, ((0.2,), 0.45), epsilon=-0.1, eta=0.9)
    with pytest.raises(ValueError):
        halo_cover(LEB, ((0.2,), 0.0), epsilon=0.1, eta=0.9)


def test_halo_cover_mesh_exhaustion():
    with pytest.raises(MeshExhaustedError):
        halo_cover(LEB, ((0.2,), 0.45), epsilon=1e-9, eta=0.9)


def test_reports_serialize():
    tri = build_aligned_triple(GRID, HILBERT, narrow_cone(), GRID.cube(4, (0,)))
    rep = kernel_difference_report(HILBERT, TRUNC, tri, seed=0)
    out = json.dumps(rep.as_dict(), sort_keys=True)
    assert json.loads(out)["name"] == rep.name


# -- aligned-triple search against the per-candidate loop ---------------------

def _loop_corners(cube):
    lo, hi = cube.lower, cube.upper
    n = lo.size
    pts = np.zeros((2**n, n))
    for i in range(2**n):
        for ax in range(n):
            pts[i, ax] = hi[ax] if (i >> ax) & 1 else lo[ax]
    return pts


def _loop_in_cone(cfg, origin, points):
    z = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(origin, dtype=float)
    r = np.linalg.norm(z, axis=-1)
    if np.any(r == 0.0):
        return False
    units = z / r[:, None]
    return bool(np.all(np.linalg.norm(units - cfg.axis(), axis=-1) < cfg.delta))


def _loop_partner(grid, cfg, base_cube):
    """The partner search one candidate at a time: the partner's key, or
    the AlignmentError message."""
    side = base_cube.side
    lo_band, hi_band = side / (2.0 * cfg.delta), 2.0 * side / cfg.delta
    nominal = side / cfg.delta
    in_band = 0
    best = None
    for cand in grid.cubes_at_level(base_cube.level):
        if cand.coords == base_cube.coords:
            continue
        dist = box_distance(base_cube.lower, base_cube.upper, cand.lower, cand.upper)
        if not lo_band <= dist <= hi_band:
            continue
        in_band += 1
        if not _loop_in_cone(cfg, base_cube.center, _loop_corners(cand)):
            continue
        rank = (abs(dist - nominal), cand.key())
        if best is None or rank < best[0]:
            best = (rank, cand)
    if best is None:
        reason = "distance band is empty" if in_band == 0 else "no candidate fits the cone"
        return f"no aligned partner for {base_cube.key()} at delta={cfg.delta}: {reason}"
    return best[1].key()


def _loop_dipole(cfg, base_cube, m):
    """The dipole-pair search of generation m one pair at a time: the keys
    (neg, pos), or None."""
    side = base_cube.side
    lo3, hi3 = side / 2.0, 2.0 * side
    cells = base_cube.grandchildren(m)
    boxes = [c.triple_box() for c in cells]
    best_pair = None
    for a in range(len(cells)):
        for b in range(len(cells)):
            if a == b:
                continue
            neg, pos = cells[a], cells[b]
            d3 = box_distance(*boxes[a], *boxes[b])
            if not lo3 <= d3 <= hi3:
                continue
            if not _loop_in_cone(cfg, neg.center, _loop_corners(pos)):
                continue
            rank = (abs(d3 - side), neg.key(), pos.key())
            if best_pair is None or rank < best_pair[0]:
                best_pair = (rank, neg, pos)
    return None if best_pair is None else (best_pair[1].key(), best_pair[2].key())


def _loop_triple(grid, cfg, base_cube):
    """The whole search one candidate at a time: keys of the (target, neg,
    pos) found, or the AlignmentError message."""
    target = _loop_partner(grid, cfg, base_cube)
    if target.startswith("no aligned partner"):
        return target
    depths = [cfg.m] if cfg.m is not None else list(range(1, grid.max_level - base_cube.level + 1))
    for m in depths:
        if base_cube.level + m > grid.max_level:
            break
        pair = _loop_dipole(cfg, base_cube, m)
        if pair is not None:
            return (target,) + pair
    side = base_cube.side
    return (f"no aligned configuration at this depth: no dipole pair below {base_cube.key()} "
            f"reaches tripled separation in [{side / 2.0:.6g}, {2.0 * side:.6g}] "
            f"within max_level={grid.max_level}")


TRIPLE_SEARCH_CASES = {
    "1d": (Grid(dimension=1, max_level=7), (1, 2, 3, 4), [(1.0,), (-1.0,)],
           (0.125, 0.25, 0.5), (None, 2, 3)),
    "2d": (Grid(dimension=2, max_level=5), (2, 3), [(1.0, 0.5), (-1.0, -0.5)],
           (1.0,), (None, 2)),
}


@pytest.mark.parametrize("name", sorted(TRIPLE_SEARCH_CASES))
def test_aligned_triple_search_matches_candidate_loop(name):
    import dataclasses

    grid, levels, axes, deltas, ms = TRIPLE_SEARCH_CASES[name]
    kernel = dataclasses.replace(make_kernel("hilbert", 0.0, 1), delta0=1.0)
    found = failed = 0
    for level in levels:
        for base in grid.cubes_at_level(level):
            for v in axes:
                for delta in deltas:
                    for m in ms:
                        cfg = SectorConfig(v=v, delta=delta, m=m)
                        want = _loop_triple(grid, cfg, base)
                        try:
                            tri = build_aligned_triple(grid, kernel, cfg, base)
                            got = (tri.target.key(), tri.neg_cube.key(), tri.pos_cube.key())
                            found += 1
                        except AlignmentError as exc:
                            got = str(exc)
                            failed += 1
                        assert got == want, (base.key(), v, delta, m)
    # both outcomes occur, so both branches are compared
    assert found and failed


def test_partner_search_ties_follow_the_key_order():
    # at level 4 coordinates reach two digits, so the key order ("4:3,10" <
    # "4:3,9") differs from the coordinate order on ties of distance: with a
    # cone along an axis, the three cubes across it tie
    grid = Grid(dimension=2, max_level=4)
    for v in [(1.0, 0.0), (-1.0, 0.0)]:
        cfg = SectorConfig(v=v, delta=1.0)
        for base in (grid.cube(4, (x, y)) for x in range(16) for y in range(8, 12)):
            try:
                got = _aligned_partner(grid, cfg, base).key()
            except AlignmentError as exc:
                got = str(exc)
            assert got == _loop_partner(grid, cfg, base), (base.key(), v)


@pytest.mark.parametrize("dimension,max_level,m", [(1, 7, 4), (2, 5, 3)])
def test_dipole_search_ties_follow_the_key_order(dimension, max_level, m):
    # generation-m descendants of level-1 cubes have two-digit coordinates
    grid = Grid(dimension=dimension, max_level=max_level)
    axes = ([(1.0,), (-1.0,)] if dimension == 1 else [(1.0, 0.5), (-1.0, -0.5), (1.0, 0.0)])
    for v in axes:
        for delta in (0.5, 1.0):
            cfg = SectorConfig(v=v, delta=delta)
            for base in grid.cubes_at_level(1):
                pair = _dipole_pair(grid, cfg, base, m)
                got = None if pair is None else (pair[0].key(), pair[1].key())
                assert got == _loop_dipole(cfg, base, m), (base.key(), v, delta)
