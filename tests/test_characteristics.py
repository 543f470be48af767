import json
from dataclasses import replace

import numpy as np
import pytest

from haartest.characteristics import (
    CharacteristicReport,
    QuadraticFamily,
    _REGISTRY,
    _cube_values,
    _GramFold,
    _jittered_boxes,
    a2_lambda,
    ap_lambda,
    conjugate_exponent,
    cube_testing,
    haar_testing,
    haar_testing_dual,
    lp_haar_testing,
    lp_haar_testing_dual,
    matched_haar_testing,
    operator_norm,
    pair_bundle,
    quadratic_haar_testing,
    quadratic_offset_ap,
    quadratic_subcube_ap,
    reevaluate,
    validate_offset_family,
)
from haartest.dyadic import DyadicCube, Grid
from haartest.haar import _cube_keys, cached_system
from haartest.measure import (
    custom_cells,
    lebesgue,
    near_point_mass,
    power_weight,
    random_dyadic_doubling,
)
from haartest.operators import (
    Truncation,
    _fold_images,
    apply,
    assemble_haar_matrix,
    default_truncation,
    make_kernel,
)
from oracles import dense_kernel_matrix, haar_matrix, pair_family_value

GRID = Grid(dimension=1, max_level=7)
SIGMA = random_dyadic_doubling(GRID, 2.0, seed=31)
OMEGA = random_dyadic_doubling(GRID, 2.0, seed=32)
HILBERT = make_kernel("hilbert", 0.0, 1)
TRUNC = default_truncation(GRID)


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == pytest.approx(2.0)
    assert conjugate_exponent(3.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        conjugate_exponent(1.0)


def test_a2_lebesgue_is_one(grid1):
    mu = lebesgue(grid1)
    rep = a2_lambda(mu, mu, 0.0)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.witness["sqrt_value"] == rep.value
    assert rep.witness["squared_value"] == pytest.approx(1.0, abs=1e-12)


def test_a2_power_pair_closed_form(grid1):
    # sigma = x^a, omega = x^(-a): on every cube [0, 2^-l) the product of
    # averages equals 1 / (1 - a^2) exactly, and that edge cube is the max
    a = 0.3
    sigma = power_weight(grid1, a)
    omega = power_weight(grid1, -a)
    rep = a2_lambda(sigma, omega, 0.0)
    np.testing.assert_allclose(rep.value, 1.0 / np.sqrt(1.0 - a * a), rtol=1e-10)
    assert rep.witness["cube"].endswith(":0")


def test_a2_positive_lam(grid1):
    mu = lebesgue(grid1)
    rep = a2_lambda(mu, mu, 0.5)
    # value per cube is |Q|^(lam/n): the unit root cube attains 1
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.witness["cube"] == "0:0"


def test_ap_matches_a2_at_p_two(grid1):
    sigma = power_weight(grid1, 0.4)
    omega = power_weight(grid1, -0.4)
    a2 = a2_lambda(sigma, omega, 0.0)
    ap = ap_lambda(sigma, omega, 0.0, p=2.0)
    np.testing.assert_allclose(ap.value, a2.value, rtol=1e-12)
    # asymmetric exponents break the coincidence
    ap4 = ap_lambda(sigma, omega, 0.0, p=4.0)
    assert abs(ap4.value - a2.value) > 1e-6


def test_characteristic_validation(grid1):
    mu = lebesgue(grid1)
    with pytest.raises(ValueError):
        a2_lambda(mu, mu, -0.1)
    with pytest.raises(ValueError):
        a2_lambda(mu, mu, 1.0)
    with pytest.raises(ValueError):
        a2_lambda(mu, mu, 0.0, depth=99)
    other = lebesgue(Grid(dimension=1, max_level=3))
    with pytest.raises(ValueError):
        a2_lambda(mu, other, 0.0)


def test_jitter_never_lowers_the_scan(grid1):
    sigma = random_dyadic_doubling(grid1, 2.5, seed=41)
    omega = random_dyadic_doubling(grid1, 2.5, seed=42)
    base = a2_lambda(sigma, omega, 0.0, depth=5)
    jit = a2_lambda(sigma, omega, 0.0, depth=5, jitter_count=64, seed=7)
    assert jit.value >= base.value - 1e-15


def test_haar_testing_brute_force_oracle():
    # independent route: apply the operator to each wavelet directly and take
    # the best weighted image norm; blocks have one wavelet each in 1-D
    rep = haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=4)
    system = cached_system(SIGMA, 4)
    best = 0.0
    for h in system.wavelets:
        img = apply(HILBERT, TRUNC, SIGMA, h.mesh_values()).ravel()
        best = max(best, float(np.sqrt(img * img @ OMEGA.flat_mass)))
    np.testing.assert_allclose(rep.value, best, rtol=1e-10)
    assert rep.witness["mode"] == "global"
    assert rep.search_space["per_cube_optimum"] == "exact"


def test_haar_testing_local_below_global():
    glob = haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=4, mode="global")
    loc = haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=4, mode="local")
    assert loc.value <= glob.value + 1e-12
    with pytest.raises(ValueError):
        haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, mode="triple")


def test_haar_testing_dual_swaps_roles():
    dual = haar_testing_dual(SIGMA, OMEGA, HILBERT, TRUNC, depth=4)
    manual = haar_testing(OMEGA, SIGMA, HILBERT.transpose(), TRUNC, depth=4)
    assert dual.name == "dual_haar_testing"
    np.testing.assert_allclose(dual.value, manual.value, rtol=1e-12)


def test_lp_haar_testing_reduces_to_l2():
    l2 = haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=4)
    lp = lp_haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, p=2.0, depth=4)
    np.testing.assert_allclose(lp.value, l2.value, atol=1e-9, rtol=1e-9)
    dual = lp_haar_testing_dual(SIGMA, OMEGA, HILBERT, TRUNC, p=2.0, depth=4)
    d2 = haar_testing_dual(SIGMA, OMEGA, HILBERT, TRUNC, depth=4)
    np.testing.assert_allclose(dual.value, d2.value, atol=1e-9, rtol=1e-9)


def test_cube_testing_mode_monotonicity():
    kwargs = dict(depth=4, p=2.0)
    loc = cube_testing(SIGMA, OMEGA, HILBERT, TRUNC, mode="local", **kwargs)
    tri = cube_testing(SIGMA, OMEGA, HILBERT, TRUNC, mode="triple", **kwargs)
    glob = cube_testing(SIGMA, OMEGA, HILBERT, TRUNC, mode="global", **kwargs)
    assert loc.value <= tri.value + 1e-12
    assert tri.value <= glob.value + 1e-12
    assert glob.witness["p"] == 2.0


def _dense_cube_scan(sigma, omega, kernel, trunc, mode, depth, p):
    """The per-cube dense loop: (values by cube key, first maximiser)."""
    values = {}
    for level in range(depth + 1):
        cubes = list(sigma.grid.cubes_at_level(level))
        for cube, val in zip(cubes, _cube_values(kernel, trunc, sigma, omega, mode, p, cubes)):
            if val >= 0.0:
                values[cube.key()] = val
    return values, max(values, key=values.get)


def _pyramid_case(dim):
    """(grid, kernel, sigma, omega); the 2-D pair has an off-diagonal
    witness, so swapped cube coordinates show."""
    if dim == 1:
        grid = Grid(dimension=1, max_level=8)
        return (grid, make_kernel("hilbert", 0.0, 1),
                random_dyadic_doubling(grid, 2.0, seed=31),
                random_dyadic_doubling(grid, 2.0, seed=32))
    grid = Grid(dimension=2, max_level=4)
    return (grid, make_kernel("riesz_like", 0.5, 2),
            near_point_mass(grid, 4.0, cell_coords=(3, 12)),
            random_dyadic_doubling(grid, 2.0, seed=32))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mode", ["global", "triple", "local"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_cube_testing_pyramid_matches_dense_scan(dim, mode, p):
    grid, kernel, sigma, omega = _pyramid_case(dim)
    trunc = default_truncation(grid)
    depth = grid.max_level - 1
    rep = cube_testing(sigma, omega, kernel, trunc, mode=mode, depth=depth, p=p)
    values, dense_witness = _dense_cube_scan(sigma, omega, kernel, trunc, mode, depth, p)
    best = values[dense_witness]
    assert rep.value == pytest.approx(best, rel=1e-12, abs=0.0)
    at_witness = _cube_values(kernel, trunc, sigma, omega, mode, p,
                              [DyadicCube.from_key(grid, rep.witness["cube"])])[0]
    assert at_witness == pytest.approx(rep.value, rel=1e-12, abs=0.0)
    assert rep.search_space["cubes_scanned"] == len(values)
    # without near-ties the pyramid picks the dense loop's cube
    runner_up = max(v for k, v in values.items() if k != dense_witness)
    assert runner_up < best * (1.0 - 1e-9)
    assert rep.witness["cube"] == dense_witness


@pytest.mark.parametrize("mode", ["global", "triple", "local"])
def test_cube_testing_skips_zero_mass_cubes(mode):
    grid, kernel, _, omega = _pyramid_case(2)
    trunc = default_truncation(grid)
    mass = random_dyadic_doubling(grid, 2.0, seed=31).cell_mass.copy()
    mass[:8, 8:] = 0.0  # one empty quadrant
    sigma = custom_cells(grid, mass)
    rep = cube_testing(sigma, omega, kernel, trunc, mode=mode, depth=3)
    values, _ = _dense_cube_scan(sigma, omega, kernel, trunc, mode, 3, 2.0)
    assert rep.search_space["cubes_scanned"] == len(values) == 85 - 21
    assert rep.value == pytest.approx(max(values.values()), rel=1e-12, abs=0.0)


def test_cube_testing_jitter_boxes_extend_the_pyramid():
    grid, kernel, sigma, omega = _pyramid_case(1)
    trunc = default_truncation(grid)
    rep = cube_testing(sigma, omega, kernel, trunc, depth=7, jitter_count=8, seed=2)
    values, _ = _dense_cube_scan(sigma, omega, kernel, trunc, "global", 7, 2.0)
    boxes = [_cube_values(kernel, trunc, sigma, omega, "global", 2.0, [box])[0]
             for box in _jittered_boxes(grid, 7, 8, np.random.default_rng(2))]
    assert rep.search_space["cubes_scanned"] == len(values) + 8
    assert rep.witness["kind"] == "box"
    assert rep.value == max(boxes) > max(values.values())


def test_cube_testing_rejects_bad_mode():
    with pytest.raises(ValueError):
        cube_testing(SIGMA, OMEGA, HILBERT, TRUNC, mode="ring")


def test_operator_norm_matches_svd():
    mat = assemble_haar_matrix(HILBERT, TRUNC, SIGMA, OMEGA, 4)
    rep = operator_norm(mat)
    want = np.linalg.svd(mat.entries, compute_uv=False)[0]
    np.testing.assert_allclose(rep.value, want, rtol=1e-9)
    assert rep.search_space["converged"]


def test_matched_testing_below_operator_norm():
    mat = assemble_haar_matrix(HILBERT, TRUNC, SIGMA, OMEGA, 4)
    norm = operator_norm(mat).value
    col = matched_haar_testing(mat)
    row = matched_haar_testing(mat, dual=True)
    assert col.name == "haar_testing_matched"
    assert row.name == "dual_haar_testing_matched"
    assert col.value <= norm + 1e-12
    assert row.value <= norm + 1e-12
    # block norms dominate single-column norms
    assert col.value >= np.linalg.norm(mat.entries, axis=0).max() - 1e-12


def test_matched_testing_is_rotation_invariant():
    # the per-cube block optimum covers every rotation of the cube's
    # wavelets; 2-D cubes carry three wavelets, so rotations really move them
    grid = Grid(dimension=2, max_level=4)
    sigma = random_dyadic_doubling(grid, 2.0, seed=11)
    omega = random_dyadic_doubling(grid, 2.0, seed=12)
    kernel = make_kernel("riesz_like", 0.5, 2)
    trunc = default_truncation(grid)
    plain = assemble_haar_matrix(kernel, trunc, sigma, omega, 3)
    turned = haar_matrix(kernel, trunc, sigma, omega, 3, rotation=7)
    assert np.abs(turned.entries - plain.entries).max() > 1e-3
    for dual in (False, True):
        np.testing.assert_allclose(matched_haar_testing(turned, dual=dual).value,
                                   matched_haar_testing(plain, dual=dual).value,
                                   rtol=1e-12, atol=0.0)


def test_reevaluate_reproduces_witness_values():
    mat = assemble_haar_matrix(HILBERT, TRUNC, SIGMA, OMEGA, 4)
    bundle = pair_bundle(SIGMA, OMEGA, HILBERT, TRUNC, 4)
    reports = [
        a2_lambda(SIGMA, OMEGA, 0.0, depth=5),
        ap_lambda(SIGMA, OMEGA, 0.0, p=3.0, depth=5),
        haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=4),
        haar_testing_dual(SIGMA, OMEGA, HILBERT, TRUNC, depth=4),
        haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, mode="local", depth=4),
        lp_haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, p=3.0, depth=4),
        lp_haar_testing_dual(SIGMA, OMEGA, HILBERT, TRUNC, p=3.0, depth=4),
        cube_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=4),
        cube_testing(SIGMA, OMEGA, HILBERT, TRUNC, mode="triple", depth=4,
                     jitter_count=8),
        cube_testing(SIGMA, OMEGA, HILBERT, TRUNC, mode="local", depth=4),
        a2_lambda(SIGMA, OMEGA, 0.0, depth=5, jitter_count=8),
        operator_norm(mat),
        matched_haar_testing(mat),
        matched_haar_testing(mat, dual=True),
        quadratic_offset_ap(SIGMA, OMEGA, 0.0, depth=4, seed=3),
        quadratic_subcube_ap(SIGMA, OMEGA, 0.0, depth=4, seed=3),
        quadratic_haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=4, seed=3),
        *bundle.values(),
    ]
    # every report name the code produces has its evaluator, and no other
    assert {rep.name for rep in reports} == set(_REGISTRY)
    for rep in reports:
        again = reevaluate(rep, SIGMA, OMEGA)
        np.testing.assert_allclose(again, rep.value, atol=1e-10, rtol=1e-10,
                                   err_msg=rep.name)
    with pytest.raises(ValueError, match="dual_cube_testing"):
        reevaluate(replace(bundle["cube_testing"], name="dual_cube_testing"), SIGMA, OMEGA)


def test_reports_serialize_to_json():
    rep = a2_lambda(SIGMA, OMEGA, 0.0, depth=3)
    text = json.dumps(rep.as_dict(), sort_keys=True)
    back = json.loads(text)
    assert back["name"] == "a2_lambda"
    assert back["value"] == rep.value


def test_report_rejects_negative_value():
    with pytest.raises(ValueError):
        CharacteristicReport("bad", -1.0, {}, {}, 0)


def test_quadratic_offset_dominates_singleton():
    rep = quadratic_offset_ap(SIGMA, OMEGA, 0.0, depth=5, seed=5)
    assert rep.value >= rep.witness["singleton_value"] - 1e-12
    # p = 2: no family beats the best singleton pair
    np.testing.assert_allclose(rep.value, rep.witness["singleton_value"],
                               rtol=1e-9)


def test_quadratic_offset_p4_still_dominates():
    rep = quadratic_offset_ap(SIGMA, OMEGA, 0.0, p=4.0, depth=4, seed=5)
    assert rep.value >= rep.witness["singleton_value"] - 1e-12


def test_quadratic_subcube_matches_singleton_at_p2():
    rep = quadratic_subcube_ap(SIGMA, OMEGA, 0.0, depth=4, seed=2)
    np.testing.assert_allclose(rep.value, rep.witness["singleton_value"],
                               rtol=1e-9)


def test_quadratic_haar_matches_scalar_at_p2():
    quad = quadratic_haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=4, seed=1)
    scal = haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=4)
    np.testing.assert_allclose(quad.witness["scalar_value"], scal.value,
                               rtol=1e-12)
    np.testing.assert_allclose(quad.value, scal.value, rtol=1e-9)


def test_validate_offset_family():
    g = Grid(dimension=1, max_level=5)
    ok = QuadraticFamily(cubes=("3:0", "3:4"), partners=("3:2", "3:6"),
                         coefficients=(1.0, 0.5))
    validate_offset_family(g, ok)
    with pytest.raises(ValueError):
        validate_offset_family(g, QuadraticFamily(
            cubes=("3:0",), partners=("2:1",), coefficients=(1.0,)))
    with pytest.raises(ValueError):
        validate_offset_family(g, QuadraticFamily(
            cubes=("3:0",), partners=("3:0",), coefficients=(1.0,)))
    with pytest.raises(ValueError):
        validate_offset_family(g, QuadraticFamily(
            cubes=("3:0", "2:0"), partners=("3:2", "2:1"),
            coefficients=(1.0, 1.0)))
    with pytest.raises(ValueError):
        validate_offset_family(g, QuadraticFamily(
            cubes=("5:0",), partners=("5:31",), coefficients=(1.0,)),
            max_distance=2.0)
    with pytest.raises(ValueError):
        QuadraticFamily(cubes=(), partners=(), coefficients=())


def test_depth_stability_of_haar_testing():
    a = haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=5)
    b = haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, depth=6)
    # deeper scans only add candidates
    assert b.value >= a.value - 1e-12
    # and the increment stays modest for doubling measures
    assert b.value <= 1.25 * a.value


# -- batched per-cube optima against the per-cube SVD ---------------------------

def _sign_fixed(v):
    lead = np.flatnonzero(np.abs(v) > 1e-13 * np.max(np.abs(v), initial=0.0))
    return -v if lead.size and v[lead[0]] < 0 else v


def _svd_optima(system, blocks_of, weights_of):
    """[(key, top, vector)] of every cube that carries wavelets, one SVD per
    cube: blocks_of(start, count) is the cube's (m, count) block,
    weights_of(key) its row weights or None."""
    out = []
    for key, (start, count) in system.cube_slots.items():
        if count:
            block = blocks_of(start, count)
            w = weights_of(key)
            m = block if w is None else np.sqrt(w)[:, None] * block
            _, svals, vh = np.linalg.svd(m, full_matrices=False)
            out.append((key, float(svals[0]), _sign_fixed(vh[0])))
    return out


def _holed_pair_2d():
    """2-D L=4 pair whose sigma has an empty quadrant and a cube with two
    live children, so its cubes carry 1, 2 and 3 wavelets."""
    grid = Grid(dimension=2, max_level=4)
    cells = random_dyadic_doubling(grid, 3.0, seed=5).cell_mass.copy()
    cells[8:, 8:] = 0.0
    cells[:8, 4:8] = 0.0
    return (custom_cells(grid, cells, label="holed"),
            random_dyadic_doubling(grid, 2.0, seed=6),
            make_kernel("riesz_like", 0.5, 2), default_truncation(grid))


OPTIMA_CASES = {
    "1d": lambda: (SIGMA, OMEGA, HILBERT, TRUNC),
    "1d-point": lambda: (near_point_mass(GRID, 9.0), OMEGA, HILBERT, TRUNC),
    "2d-holed": _holed_pair_2d,
}


def _assert_same_optimum(rep, oracle):
    tops = [top for _, top, _ in oracle]
    j = int(np.argmax(tops))
    np.testing.assert_allclose(rep.value, tops[j], rtol=1e-12, atol=0.0)
    assert rep.witness["cube"] == oracle[j][0]
    np.testing.assert_allclose(rep.witness["coefficients"], oracle[j][2], atol=1e-10)


@pytest.mark.parametrize("name", sorted(OPTIMA_CASES))
@pytest.mark.parametrize("mode", ["global", "local"])
def test_haar_testing_optima_match_per_cube_svd(name, mode):
    sigma, omega, kernel, trunc = OPTIMA_CASES[name]()
    grid = sigma.grid
    depth = 3
    system = cached_system(sigma, depth)
    images = dense_kernel_matrix(kernel, trunc, grid) @ system.weighted_matrix.T

    def weights_of(key):
        if mode == "global":
            return omega.flat_mass
        return omega.flat_mass * DyadicCube.from_key(grid, key).indicator().ravel()

    oracle = _svd_optima(system, lambda s, c: images[:, s:s + c], weights_of)
    fold = _GramFold(system, omega.flat_mass, local=mode == "local")
    _fold_images(kernel, trunc, sigma, depth, fold.add)
    tops, coeffs = fold.optima()
    np.testing.assert_allclose(tops, [top for _, top, _ in oracle], rtol=1e-12, atol=0.0)
    for row, (_, _, vec) in zip(coeffs, oracle):
        np.testing.assert_allclose(row[:vec.size], vec, atol=1e-10)
        assert not row[vec.size:].any()
    rep = haar_testing(sigma, omega, kernel, trunc, mode=mode, depth=depth)
    _assert_same_optimum(rep, oracle)
    assert rep.search_space["cube_blocks"] == len(oracle)
    lp = lp_haar_testing(sigma, omega, kernel, trunc, p=2.0, mode=mode, depth=depth)
    np.testing.assert_allclose(lp.value, rep.value, rtol=1e-9)


@pytest.mark.parametrize("name", sorted(OPTIMA_CASES))
@pytest.mark.parametrize("dual", [False, True])
def test_matched_optima_match_per_cube_svd(name, dual):
    sigma, omega, kernel, trunc = OPTIMA_CASES[name]()
    mat = assemble_haar_matrix(kernel, trunc, sigma, omega, 3)
    system = mat.omega_system if dual else mat.sigma_system
    if dual:
        oracle = _svd_optima(system, lambda s, c: mat.entries[s:s + c].T, lambda k: None)
    else:
        oracle = _svd_optima(system, lambda s, c: mat.entries[:, s:s + c], lambda k: None)
    _assert_same_optimum(matched_haar_testing(mat, dual=dual), oracle)


def test_pair_bundle_shares_one_sigma_pass():
    for depth in (3, GRID.max_level):
        bundle = pair_bundle(SIGMA, OMEGA, HILBERT, TRUNC, depth)
        alone = assemble_haar_matrix(HILBERT, TRUNC, SIGMA, OMEGA, depth)
        assert bundle["operator_norm"].as_dict() == operator_norm(alone).as_dict()
        want = haar_testing(SIGMA, OMEGA, HILBERT, TRUNC, mode="global", depth=depth)
        assert bundle["haar_testing"].as_dict() == want.as_dict()
        want = haar_testing_dual(SIGMA, OMEGA, HILBERT, TRUNC, mode="global", depth=depth)
        assert bundle["dual_haar_testing"].as_dict() == want.as_dict()


# -- Lp and quadratic Haar denominators against the dense cell values -----------

def _whole_wavelet_images(sigma, kernel, trunc, depth):
    """The canonical system and the dense image of each of its wavelets,
    one column each."""
    system = cached_system(sigma, depth)
    return system, dense_kernel_matrix(kernel, trunc, sigma.grid) @ system.weighted_matrix.T


def _haar_family_value(system, images, wflat, members, weights, p):
    """The family oracle from the whole wavelet images: the Lp(omega) norm
    of the pointwise square sum of the members' images over the Lp(sigma)
    norm of that of the members themselves."""
    num_f = np.zeros(images.shape[0])
    rows = np.zeros((len(members), system.n_wavelets))
    for i, ((key, coeffs), a) in enumerate(zip(members, weights)):
        start, count = system.cube_slots[key]
        c = np.asarray(coeffs, dtype=float)
        num_f += (a * (images[:, start:start + count] @ c)) ** 2
        rows[i, start:start + count] = a * c
    den_f = (system.synthesise(rows) ** 2).sum(axis=0)
    num = float(np.sum(wflat * num_f ** (p / 2.0))) ** (1.0 / p)
    den = float(np.sum(system.measure.flat_mass * den_f ** (p / 2.0))) ** (1.0 / p)
    return num / den if den > 0.0 else 0.0


def _dense_lp(weights, values, p):
    return float(np.sum(weights * np.abs(values) ** p)) ** (1.0 / p)


@pytest.mark.parametrize("name", sorted(OPTIMA_CASES))
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_lp_haar_denominators_match_dense_values(name, p):
    from haartest.characteristics import _haar_family_values, _live_slots, _lp_ratios, _lp_sums

    sigma, omega, kernel, trunc = OPTIMA_CASES[name]()
    depth = 3
    system = cached_system(sigma, depth)
    values = system.values_matrix
    images = dense_kernel_matrix(kernel, trunc, sigma.grid) @ system.weighted_matrix.T
    slots = system.cube_slots

    def wavelet(key, c):
        start, count = slots[key]
        return np.asarray(c) @ values[start:start + count]

    def image(key, c):
        start, count = slots[key]
        return images[:, start:start + count] @ np.asarray(c)

    rng = np.random.default_rng(3)
    live = [(key, start, count) for key, (start, count) in slots.items() if count]
    for key, start, count in live:
        # every wavelet's image one cell of value 1, weight 1: the numerator
        # of combination c is |sum(c)|, so the ratio exposes the denominator
        cube = DyadicCube.from_key(sigma.grid, key)
        flat = np.ravel_multi_index(cube.coords, (2 ** cube.level,) * sigma.grid.dimension)
        c = rng.standard_normal((1, 2, count))
        norms = [_dense_lp(sigma.flat_mass, wavelet(key, row), p) for row in c[0]]
        ratios = _lp_ratios(system.levels[cube.level], np.array([flat]),
                            _lp_sums(np.ones((1, count, 1)), 1.0, c, p), c, p)
        np.testing.assert_allclose(ratios[0], np.abs(c[0].sum(axis=1)) / norms,
                                   rtol=1e-12, atol=0.0)
    lp = lp_haar_testing(sigma, omega, kernel, trunc, p=p, depth=depth)
    key, c = lp.witness["cube"], lp.witness["coefficients"]
    want = (_dense_lp(omega.flat_mass, image(key, c), p)
            / _dense_lp(sigma.flat_mass, wavelet(key, c), p))
    np.testing.assert_allclose(lp.value, want, rtol=1e-12, atol=0.0)

    def dense_family(members, weights):
        num = sum((a * image(k, c)) ** 2 for (k, c), a in zip(members, weights))
        den = sum((a * wavelet(k, c)) ** 2 for (k, c), a in zip(members, weights))
        return (_dense_lp(omega.flat_mass, np.sqrt(num), p)
                / _dense_lp(sigma.flat_mass, np.sqrt(den), p))

    quad = quadratic_haar_testing(sigma, omega, kernel, trunc, p=p, depth=depth)
    members = [(m["cube"], m["coefficients"]) for m in quad.witness["members"]]
    np.testing.assert_allclose(quad.value, dense_family(members, quad.witness["weights"]),
                               rtol=1e-12, atol=0.0)
    # families of one level's cubes, with random unit combinations and weights
    for level in range(depth):
        keys = [key for key, _, _ in live if key.startswith(f"{level}:")]
        if len(keys) < 2:
            continue
        members = []
        for key in keys:
            c = rng.standard_normal(slots[key][1])
            members.append((key, c / np.linalg.norm(c)))
        weights = rng.uniform(0.2, 1.0, size=len(keys))
        want = dense_family(members, weights)
        np.testing.assert_allclose(
            _haar_family_value(system, images, omega.flat_mass, members, weights, p), want,
            rtol=1e-12, atol=0.0)
        place = {key: i for i, (key, _, _) in enumerate(_live_slots(system))}
        coeffs = np.zeros((len(place), 2 ** sigma.grid.dimension - 1))
        for key, c in members:
            coeffs[place[key], :len(c)] = c
        got = _haar_family_values(system, kernel, trunc, omega.flat_mass, coeffs,
                                  [(np.array([place[k] for k in keys]), weights)], p)
        np.testing.assert_allclose(got, [want], rtol=1e-12, atol=0.0)


def _family_search(families, value, best, winner):
    """The family search loop of the quadratic scans, as a witness oracle:
    (best, winner, families evaluated) from a starting best and its winner.
    families yields each candidate family as the list of its tries, the
    argument tuples of value; a try replaces the winner only when its value
    is strictly above the best so far."""
    count = 0
    for tries in families:
        count += 1
        for args in tries:
            val = value(*args)
            if val > best:
                best, winner = val, args
    return best, winner, count


# -- level-array scans against the per-cube loops they replaced -----------------
#
# The loops below are the per-cube scans as they were before the scans became
# level arrays; each new scan must give the same values (to 1e-12 relative)
# and the same witness.

def _loop_lp_norm(weights, values, p):
    return float(np.sum(weights * np.abs(values) ** p)) ** (1.0 / p)


def _loop_ratio(system, key, start, block, c, weights, p):
    level = int(key.partition(":")[0])
    lv = system.levels[level]
    first = start - system.level_rows[level].start
    values = lv.child_values[first:first + len(c)]
    den = _loop_lp_norm(lv.child_masses[lv.cubes[first]], values.T @ c, p)
    return _loop_lp_norm(weights, block @ c, p) / den if den > 0.0 else 0.0


def _loop_candidates(system, images, omega, p, mode, rng, optimum_from):
    """[(key, ratios, candidates)] of every cube that carries wavelets, in
    system order: the candidate loop of lp_haar_testing (rng given) and of
    the member scan of quadratic_haar_testing (rng None)."""
    out = []
    for key, (start, count) in ((k, s) for k, s in system.cube_slots.items() if s[1]):
        weights = omega.flat_mass
        if mode == "local":
            weights = weights * DyadicCube.from_key(omega.grid, key).indicator().ravel()
        block = images[:, start:start + count]
        candidates = list(np.eye(count))
        if count > 1 and rng is not None:
            for _ in range(4):
                c = rng.standard_normal(count)
                norm = np.linalg.norm(c)
                if norm > 0:
                    candidates.append(c / norm)
        if count >= optimum_from:  # the SVD optimum of the weighted image block
            vh = np.linalg.svd(np.sqrt(weights)[:, None] * block, full_matrices=False)[2]
            candidates.append(_sign_fixed(vh[0]))
        ratios = [_loop_ratio(system, key, start, block, c, weights, p) for c in candidates]
        out.append((key, ratios, candidates))
    return out


def _assert_same_candidates(values, combos, loop):
    """The rows of `_lp_scan` against the loop's candidates, cube by cube."""
    assert len(values) == len(loop)
    for row, combo, (_, ratios, candidates) in zip(values, combos, loop):
        np.testing.assert_allclose(row[:len(ratios)], ratios, rtol=1e-12, atol=0.0)
        assert (row[len(ratios):] == -1.0).all()
        count = len(candidates[0])
        np.testing.assert_allclose(combo[:len(ratios), :count], candidates, rtol=1e-12,
                                   atol=1e-15)


def _loop_best(loop):
    """(value, key, coefficients) of the first largest candidate of each
    cube, then the first cube whose value is strictly largest."""
    best, cube, coeffs = -1.0, None, []
    for key, ratios, candidates in loop:
        ratio, c = max(zip(ratios, candidates), key=lambda rc: rc[0])
        if ratio > best:
            best, cube, coeffs = ratio, key, [float(v) for v in c]
    return max(best, 0.0), cube, coeffs


@pytest.mark.parametrize("name", sorted(OPTIMA_CASES))
@pytest.mark.parametrize("mode", ["global", "local"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lp_haar_scan_matches_candidate_loop(name, mode, p):
    from haartest.characteristics import _lp_scan

    sigma, omega, kernel, trunc = OPTIMA_CASES[name]()
    system, images = _whole_wavelet_images(sigma, kernel, trunc, 3)
    optimum_from = 1 if p == 2.0 else np.inf
    for seed in (0, 5):
        loop = _loop_candidates(system, images, omega, p, mode,
                                np.random.default_rng(seed), optimum_from)
        values, combos = _lp_scan(system, kernel, trunc, omega.flat_mass, p, mode == "local",
                                  np.random.default_rng(seed), optimum_from)
        _assert_same_candidates(values, combos, loop)
        rep = lp_haar_testing(sigma, omega, kernel, trunc, p=p, mode=mode, depth=3,
                              seed=seed)
        value, cube, coeffs = _loop_best(loop)
        np.testing.assert_allclose(rep.value, value, rtol=1e-12, atol=0.0)
        assert rep.witness["cube"] == cube
        np.testing.assert_allclose(rep.witness["coefficients"], coeffs, rtol=1e-12,
                                   atol=1e-15)
        assert rep.search_space["rotation_samples"] == 4


@pytest.mark.parametrize("name", sorted(OPTIMA_CASES))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_quadratic_member_scan_matches_member_loop(name, p):
    from haartest.characteristics import _level_families, _lp_scan

    sigma, omega, kernel, trunc = OPTIMA_CASES[name]()
    system, images = _whole_wavelet_images(sigma, kernel, trunc, 3)
    loop = _loop_candidates(system, images, omega, p, "global", None, 2)
    _assert_same_candidates(*_lp_scan(system, kernel, trunc, omega.flat_mass, p), loop)
    # the loop's members and scalar, then the oracle family search over the
    # module's families (places in the loop's cube order)
    member_best = {key: [float(v) for v in max(zip(ratios, candidates),
                                               key=lambda rc: rc[0])[1]]
                   for key, ratios, candidates in loop}
    scalar_best, scalar_key, _ = _loop_best(loop)
    order = list(member_best)
    levels = np.array([int(key.split(":", 1)[0]) for key in order])
    best, (keys, weights), families = _family_search(
        ([([order[i] for i in at], a)] if len(at) > 1 else []
         for at, a in _level_families(levels, np.random.default_rng(4))),
        lambda keys, weights: _haar_family_value(
            system, images, omega.flat_mass, [(k, member_best[k]) for k in keys],
            weights, p),
        scalar_best, ([scalar_key], [1.0]))
    rep = quadratic_haar_testing(sigma, omega, kernel, trunc, p=p, depth=3, seed=4)
    np.testing.assert_allclose(rep.value, best, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rep.witness["scalar_value"], scalar_best, rtol=1e-12,
                               atol=0.0)
    assert [m["cube"] for m in rep.witness["members"]] == keys
    for member in rep.witness["members"]:
        np.testing.assert_allclose(member["coefficients"], member_best[member["cube"]],
                                   rtol=1e-12, atol=1e-15)
    assert rep.witness["weights"] == [float(a) for a in weights]
    assert rep.search_space["families_evaluated"] == families
    assert rep.search_space["family_count"] == 32


def test_first_max_takes_the_first_largest_entry_in_scan_order():
    from haartest.characteristics import _first_max

    parts = [np.array([1.0, 3.0]), np.array([[3.0, 0.0], [2.0, 3.0]]), np.array([3.0])]
    assert _first_max(parts) == (3.0, 0, (1,))
    assert _first_max(parts[1:]) == (3.0, 0, (0, 0))
    assert _first_max([np.array([-1.0, -1.0]), np.zeros(0)]) == (-1.0, None, None)
    assert _first_max([np.full((2, 2), -1.0), np.array([0.0, 0.0])]) == (0.0, 1, (0,))


def _loop_offset_partners(cube, max_distance):
    import itertools

    top = 2 ** cube.level
    reach = int(np.ceil(max_distance)) + 1
    out = []
    for delta in itertools.product(range(-reach, reach + 1), repeat=cube.grid.dimension):
        if all(d == 0 for d in delta):
            continue
        cand = tuple(c + d for c, d in zip(cube.coords, delta))
        if any(not 0 <= cc < top for cc in cand):
            continue
        if sum(max(abs(d) - 1, 0) ** 2 for d in delta) <= max_distance ** 2 + 1e-9:
            out.append(cand)
    return [(cube.level, np.array(out))] if out else []


def _loop_offset_draw(rng, grid, depth, max_distance):
    n = grid.dimension
    level = int(rng.integers(1, depth + 1))
    total = 2 ** (n * level)
    k = int(rng.integers(2, min(6, total) + 1))
    flats = rng.choice(total, size=k, replace=False)
    members, partners = [], []
    for f in np.sort(flats):
        cube = DyadicCube(grid, level, np.unravel_index(int(f), (2 ** level,) * n))
        for _, plist in _loop_offset_partners(cube, max_distance):
            members.append(cube)
            pick = plist[int(rng.integers(0, len(plist)))]
            partners.append(DyadicCube(grid, level, pick))
    return (members, partners) if len(members) >= 2 else ([], [])


def _loop_subcube_partners(cube, max_generation):
    import itertools

    grid = cube.grid
    for gen in range(min(max_generation, grid.max_level - cube.level) + 1):
        offs = np.array(list(itertools.product(range(2 ** gen), repeat=grid.dimension)))
        yield cube.level + gen, np.array(cube.coords) * 2 ** gen + offs


def _loop_subcube_draw(rng, grid, depth, max_generation):
    n = grid.dimension
    level = int(rng.integers(0, depth + 1))
    total = 2 ** (n * level)
    k = int(rng.integers(1, min(6, total) + 1))
    flats = rng.choice(total, size=k, replace=False)
    members, subs = [], []
    for f in np.sort(flats):
        coords = tuple(int(c) for c in np.unravel_index(int(f), (2 ** level,) * n))
        gen = int(rng.integers(0, min(max_generation, grid.max_level - level) + 1))
        offs = tuple(int(rng.integers(0, 2 ** gen)) for _ in range(n))
        members.append(DyadicCube(grid, level, coords))
        subs.append(DyadicCube(grid, level + gen,
                               tuple(c * 2 ** gen + o for c, o in zip(coords, offs))))
    return members, subs


def _loop_pair_scan(sigma, omega, cfg, e, depth, min_depth, partners_of, reach):
    from haartest.characteristics import _size_value
    from haartest.measure import level_masses

    grid = sigma.grid
    n = grid.dimension
    sm = [level_masses(sigma, lv) for lv in range(grid.max_level + 1)]
    best_partner, scalar_best, scalar_pair, pair_count = {}, -1.0, None, 0
    for level in range(min_depth, depth + 1):
        wm = level_masses(omega, level)
        for cube in grid.cubes_at_level(level):
            top_ratio, top_key = -1.0, None
            for sub_level, coords in partners_of(cube, reach):
                vol = (grid.side / 2 ** sub_level) ** n
                ratios = _size_value(sm[sub_level][tuple(coords.T)], wm[cube.coords],
                                     vol, 1.0 / cfg.p_prime, 1.0 / cfg.p, e)
                pair_count += ratios.size
                j = int(np.argmax(ratios))
                if ratios[j] > top_ratio:
                    top_ratio = float(ratios[j])
                    top_key = DyadicCube(grid, sub_level, coords[j]).key()
            if top_key is None:
                continue
            best_partner[cube.key()] = top_key
            if top_ratio > scalar_best:
                scalar_best, scalar_pair = top_ratio, (cube.key(), top_key)
    return best_partner, scalar_best, scalar_pair, pair_count


def _partner_keys(partners, n):
    """The partners of `_pair_scan` as the loop's dict: cube key -> partner key."""
    out = {}
    for level, (subs, index) in enumerate(partners):
        for cube in np.flatnonzero(index >= 0):
            out[_cube_keys(level, [cube], n)[0]] = _cube_keys(int(subs[cube]), [index[cube]], n)[0]
    return out


def _pair_case(name):
    if name == "1d":
        return SIGMA, OMEGA, 0.0
    grid = Grid(dimension=2, max_level=4)
    omega = random_dyadic_doubling(grid, 2.0, seed=6)
    if name == "2d-lebesgue":  # equal partner masses: ties decided by scan order
        return lebesgue(grid), omega, 0.5
    return random_dyadic_doubling(grid, 3.0, seed=5), omega, 0.5


@pytest.mark.parametrize("case", ["1d", "2d", "2d-lebesgue"])
@pytest.mark.parametrize("variant,reach", [("offset", 2.5), ("offset", 10.0),
                                           ("subcube", 0), ("subcube", 2)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pair_scans_match_per_cube_loops(case, variant, reach, p):
    import haartest.characteristics as chars

    sigma, omega, lam = _pair_case(case)
    grid, n = sigma.grid, sigma.grid.dimension
    func = quadratic_offset_ap if variant == "offset" else quadratic_subcube_ap
    kwargs = {"max_distance" if variant == "offset" else "max_generation": reach}
    partners_of, _, _, min_depth = chars._PAIR_VARIANTS[variant]
    cfg = chars.LpConfig(p)
    _, e, depth = chars._size_setup(sigma, omega, lam, None, min_depth)
    partners, scalar_best, (level, cube), pair_count = chars._pair_scan(
        sigma, omega, cfg, e, depth, partners_of, reach)
    loop_partners = _loop_offset_partners if variant == "offset" else _loop_subcube_partners
    loop = _loop_pair_scan(sigma, omega, cfg, e, depth, min_depth, loop_partners, reach)
    best_partner = _partner_keys(partners, n)
    assert best_partner == loop[0]
    np.testing.assert_allclose(scalar_best, loop[1], rtol=1e-12, atol=0.0)
    key = _cube_keys(level, [cube], n)[0]
    assert (key, best_partner[key]) == loop[2]
    assert pair_count == loop[3]
    # the whole search once more by the loops: the per-cube scan and draw,
    # the mesh values and the oracle family search
    rep = func(sigma, omega, lam, p=p, seed=9, **kwargs)
    single = tuple([DyadicCube.from_key(grid, k)] for k in loop[2]) + ([1.0],)
    draw = _loop_offset_draw if variant == "offset" else _loop_subcube_draw
    best, winner, families = _family_search(
        _loop_pair_families(grid, depth, loop[0], draw, reach, np.random.default_rng(9)),
        lambda cubes, partners, coeffs: pair_family_value(sigma, omega, lam, p, cubes,
                                                          partners, coeffs),
        max(loop[1], 0.0), single)
    np.testing.assert_allclose(rep.value, best, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rep.witness["singleton_value"], loop[1], rtol=1e-12, atol=0.0)
    want = {"cubes": [q.key() for q in winner[0]], "partners": [s.key() for s in winner[1]],
            "coefficients": [float(a) for a in winner[2]]}
    assert {k: rep.witness[k] for k in want} == want
    assert rep.search_space["families_evaluated"] == families
    assert rep.search_space["pairs_scanned"] == loop[3]


def _loop_pair_families(grid, depth, best_partner, draw, reach, rng):
    """The families of `_pair_family_ap` by the per-parent loop over
    `DyadicCube.children()` that the level arrays replaced, with the
    cube-by-cube draws; a draw of one cube gives no try, its value being
    its pair's whatever the coefficient."""
    for level in range(0, depth):
        for parent in grid.cubes_at_level(level):
            members = [c for c in parent.children() if c.key() in best_partner]
            if len(members) >= 2:
                partners = [DyadicCube.from_key(grid, best_partner[c.key()]) for c in members]
                yield [(members, partners, np.ones(len(members)))]
    for _ in range(32):
        members, partners = draw(rng, grid, depth, reach)
        if members:
            coeffs = rng.uniform(0.2, 1.0, size=len(members))
            yield ([(members, partners, coeffs), (members, partners, np.ones(len(members)))]
                   if len(members) > 1 else [])


@pytest.mark.parametrize("case", ["1d", "2d"])
@pytest.mark.parametrize("variant,reach", [("offset", 2.5), ("subcube", 2)])
@pytest.mark.parametrize("dropped", [0.0, 0.3])
def test_pair_families_match_the_per_parent_loop(case, variant, reach, dropped):
    # the same sibling families in the same order, then the same draws from
    # the rng; dropping partners leaves parents with fewer than two members
    import haartest.characteristics as chars

    sigma, omega, lam = _pair_case(case)
    n = sigma.grid.dimension
    partners_of, draw, _, min_depth = chars._PAIR_VARIANTS[variant]
    _, e, depth = chars._size_setup(sigma, omega, lam, None, min_depth)
    partners = chars._pair_scan(sigma, omega, chars.LpConfig(3.0), e, depth, partners_of,
                                reach)[0]
    drop = np.random.default_rng(8)
    partners = [(subs, np.where(drop.uniform(size=index.size) < dropped, -1, index))
                for subs, index in partners]
    loop_draw = _loop_offset_draw if variant == "offset" else _loop_subcube_draw
    got = list(chars._pair_families(sigma.grid, depth, partners, draw, reach,
                                    np.random.default_rng(9)))
    want = list(_loop_pair_families(sigma.grid, depth, _partner_keys(partners, n), loop_draw,
                                    reach, np.random.default_rng(9)))
    assert len(got) == len(want) > 32
    for tries, loop_tries in zip(got, want):
        assert len(tries) == len(loop_tries)
        for (levels, cubes, subs, index, coeffs), (loop_cubes, loop_partners, loop_coeffs) in zip(
                tries, loop_tries):
            assert chars._keys(levels, cubes, n) == [c.key() for c in loop_cubes]
            assert chars._keys(subs, index, n) == [c.key() for c in loop_partners]
            np.testing.assert_array_equal(coeffs, loop_coeffs)


def _offset_family(grid, members, partners, coeffs):
    """The (levels, cubes, partner levels, partners, coefficients) try of
    an offset family given by cube keys, checked by validate_offset_family."""
    from haartest.characteristics import _key_cubes

    validate_offset_family(grid, QuadraticFamily(members, partners, coeffs))
    return (*_key_cubes(grid, members), *_key_cubes(grid, partners),
            np.asarray(coeffs, dtype=float))


@pytest.mark.parametrize("case", ["1d", "2d"])
@pytest.mark.parametrize("variant,reach", [("offset", 2.5), ("subcube", 2)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_closed_form_pair_values_match_the_mesh_oracle(case, variant, reach, p):
    # every try of the search, in closed form over level arrays, against the
    # two mesh functions of the definition
    import haartest.characteristics as chars

    sigma, omega, lam = _pair_case(case)
    grid = sigma.grid
    partners_of, draw, _, min_depth = chars._PAIR_VARIANTS[variant]
    _, e, depth = chars._size_setup(sigma, omega, lam, None, min_depth)
    partners = chars._pair_scan(sigma, omega, chars.LpConfig(p), e, depth, partners_of,
                                reach)[0]
    tries = [t for family in chars._pair_families(grid, depth, partners, draw, reach,
                                                  np.random.default_rng(3))
             for t in family]
    if variant == "offset":
        level = 2
        key = lambda *c: f"{level}:" + ",".join(map(str, c))  # noqa: E731
        at = (0,) * (grid.dimension - 1)
        tries += [
            # two members share one partner
            _offset_family(grid, [key(*at, 0), key(*at, 2)], [key(*at, 1), key(*at, 1)],
                           [0.7, 0.4]),
            # a partner is another member
            _offset_family(grid, [key(*at, 1), key(*at, 2)], [key(*at, 2), key(*at, 3)],
                           [0.5, 1.0]),
        ]
    got = chars._pair_values(sigma, omega, lam, p, tries)
    assert len(got) == len(tries) > 32
    for value, (levels, cubes, subs, index, coeffs) in zip(got, tries):
        want = pair_family_value(
            sigma, omega, lam, p,
            [DyadicCube.from_key(grid, k) for k in chars._keys(levels, cubes, grid.dimension)],
            [DyadicCube.from_key(grid, k) for k in chars._keys(subs, index, grid.dimension)],
            coeffs)
        assert want > 0.0
        np.testing.assert_allclose(value, want, rtol=1e-12, atol=0.0)
    # both pair reports round trip through reevaluate, and their witness's
    # mesh value is the report's value
    func = quadratic_offset_ap if variant == "offset" else quadratic_subcube_ap
    kwargs = {"max_distance" if variant == "offset" else "max_generation": reach}
    rep = func(sigma, omega, lam, p=p, seed=3, **kwargs)
    again = CharacteristicReport(**json.loads(json.dumps(rep.as_dict())))
    np.testing.assert_allclose(reevaluate(again, sigma, omega), rep.value, rtol=1e-12, atol=0.0)
    mesh = pair_family_value(sigma, omega, lam, p,
                             [DyadicCube.from_key(grid, k) for k in rep.witness["cubes"]],
                             [DyadicCube.from_key(grid, k) for k in rep.witness["partners"]],
                             rep.witness["coefficients"])
    np.testing.assert_allclose(mesh, rep.value, rtol=1e-12, atol=0.0)


def test_partner_candidates_keep_the_loop_order():
    from haartest.characteristics import (_descendant_partners, _offset_stencil,
                                          _stencil_partners)

    grid = Grid(dimension=2, max_level=4)
    for level in (1, 3):
        shape = (2 ** level,) * 2
        scans = [(_stencil_partners(grid, level, d), _loop_offset_partners, d)
                 for d in (0.0, 1.0, 2.5, 10.0)]
        scans += [(_descendant_partners(grid, level, g), _loop_subcube_partners, g)
                  for g in (0, 1, 3)]
        for (subs, index), loop_partners, reach in scans:
            for cube in grid.cubes_at_level(level):
                row = index[np.ravel_multi_index(cube.coords, shape)]
                got = [DyadicCube(grid, s, np.unravel_index(i, (2 ** s,) * 2)).key()
                       for s, i in zip(subs, row) if i >= 0]
                want = [DyadicCube(grid, s, c).key()
                        for s, coords in loop_partners(cube, reach) for c in coords]
                assert got == want
    assert _offset_stencil(2, -1.0).shape == (0, 2)


def test_quadratic_haar_testing_without_wavelets():
    # all of sigma's mass in one cell: no cube of levels 0..3 has two live
    # children, so there are no wavelets to scan and no family to draw
    grid = Grid(dimension=1, max_level=6)
    cells = np.zeros(grid.mesh_shape)
    cells[5] = 1.0
    sigma = custom_cells(grid, cells, label="cell5")
    omega = random_dyadic_doubling(grid, 2.0, seed=1)
    kernel, trunc = make_kernel("hilbert", 0.0, 1), default_truncation(grid)
    rep = quadratic_haar_testing(sigma, omega, kernel, trunc, p=3.0, depth=4)
    assert rep.value == 0.0
    assert rep.search_space["families_evaluated"] == 0
    assert rep.witness["members"] == [] and rep.witness["weights"] == []
    assert reevaluate(rep, sigma, omega) == 0.0
    assert haar_testing(sigma, omega, kernel, trunc, depth=4).value == 0.0
    assert lp_haar_testing(sigma, omega, kernel, trunc, p=3.0, depth=4).value == 0.0


def test_empty_witnesses_reevaluate_to_zero():
    # the same sigma as above: haar_testing and lp_haar_testing report the
    # witness cube None and matched testing an empty witness; each
    # re-evaluates to 0 as quadratic_haar_testing's does
    grid = Grid(dimension=1, max_level=6)
    cells = np.zeros(grid.mesh_shape)
    cells[5] = 1.0
    sigma = custom_cells(grid, cells, label="cell5")
    omega = random_dyadic_doubling(grid, 2.0, seed=1)
    kernel, trunc = make_kernel("hilbert", 0.0, 1), default_truncation(grid)
    matrix = assemble_haar_matrix(kernel, trunc, sigma, omega, 4)
    reports = [haar_testing(sigma, omega, kernel, trunc, depth=4),
               lp_haar_testing(sigma, omega, kernel, trunc, p=3.0, depth=4),
               matched_haar_testing(matrix)]
    assert [rep.witness.get("cube") for rep in reports] == [None, None, None]
    for rep in reports:
        assert rep.value == 0.0
        assert reevaluate(rep, sigma, omega) == 0.0
    # the dual scans run on the swapped pair: sigma is their target measure
    dual = haar_testing_dual(omega, sigma, kernel, trunc, depth=4)
    assert dual.witness["cube"] is None and reevaluate(dual, omega, sigma) == 0.0
    rows = matched_haar_testing(assemble_haar_matrix(kernel, trunc, omega, sigma, 4), dual=True)
    assert rows.witness == {} and reevaluate(rows, omega, sigma) == 0.0


SHARED_PASS_GRID = Grid(dimension=2, max_level=4)


@pytest.mark.parametrize("case", range(7))
def test_bundle_cube_testing_matches_standalone_scan(case, corpus1):
    # the pair bundle scans cube testing on sigma's cube images before they
    # become wavelet images; the report is the standalone one
    if case < len(corpus1):
        sigma, omega = corpus1[case], corpus1[(case + 3) % len(corpus1)]
        kernel, depth = make_kernel("hilbert", 0.0, 1), 5
    else:
        sigma = random_dyadic_doubling(SHARED_PASS_GRID, 2.0, seed=41)
        omega = random_dyadic_doubling(SHARED_PASS_GRID, 3.0, seed=42)
        kernel, depth = make_kernel("riesz_like", 0.5, 2), 3
    trunc = default_truncation(sigma.grid)
    bundle = pair_bundle(sigma, omega, kernel, trunc, depth)
    assert bundle["cube_testing"].as_dict() == cube_testing(
        sigma, omega, kernel, trunc, mode="global", depth=depth).as_dict()
    assert bundle["haar_testing"].as_dict() == haar_testing(
        sigma, omega, kernel, trunc, mode="global", depth=depth).as_dict()
    assert bundle["operator_norm"].as_dict() == operator_norm(
        assemble_haar_matrix(kernel, trunc, sigma, omega, depth)).as_dict()
