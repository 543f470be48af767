"""Acceptance gate: one test per headline guarantee, pinned tolerances.

Each test is self-contained and prints as a single pass/fail line under
pytest -v. Runtime-sensitive checks assert a wall-clock budget measured
with time.monotonic around the work they time.
"""

import json
import math
import time

import numpy as np
import pytest

from haartest.characteristics import (
    a2_lambda,
    ap_lambda,
    haar_testing,
    haar_testing_dual,
    lp_haar_testing,
    lp_haar_testing_dual,
    matched_haar_testing,
    operator_norm,
    quadratic_haar_testing,
    quadratic_offset_ap,
    quadratic_subcube_ap,
)
from haartest.cli import main
from haartest.dyadic import Grid
from haartest.experiments import (
    MatrixCounterexampleConfig,
    a2_lower_bound_experiment,
    halo_cover,
    matrix_counterexample,
    select_delta,
)
from haartest.frames import banach_frame_check, lp_square_function_bounds
from haartest.haar import build_system
from haartest.measure import (
    lebesgue,
    near_point_mass,
    power_weight,
    random_dyadic_doubling,
)
from haartest.operators import assemble_haar_matrix, default_truncation, make_kernel


def _hilbert():
    return make_kernel("hilbert", 0.0, 1)


def _fractional():
    return make_kernel("fractional_integral", 0.5, 1)


def test_criterion_01_haar_orthonormality(grid1, grid2):
    """>= 20 seeded doubling measures; four wavelet properties; Gram == I."""
    start = time.monotonic()
    corpus = []
    for ratio in (1.5, 2.0, 2.5, 3.0):
        for seed in (11, 12, 13):
            corpus.append((random_dyadic_doubling(grid1, ratio, seed=seed), 8))
    for ratio in (1.5, 2.0):
        for seed in (21, 22, 23, 24):
            corpus.append((random_dyadic_doubling(grid2, ratio, seed=seed), 4))
    assert len(corpus) >= 20

    for mu, depth in corpus:
        system = build_system(mu, depth)
        values = system.values_matrix
        mass = mu.flat_mass
        for i, h in enumerate(system.wavelets):
            row = values[i]
            inside = h.cube.indicator().ravel() > 0
            assert np.all(row[~inside] == 0.0)
            for child, v in zip(h.cube.children(), h.child_values):
                block = row.reshape(mu.grid.mesh_shape)[child.slices()]
                assert block.max() == block.min() == v
            assert abs(float(row * mass @ np.ones_like(row))) <= 1e-10
            assert abs(float(row * row @ mass) - 1.0) <= 1e-10
        gram = system.gram()
        gap = np.max(np.abs(gram - np.eye(len(system.wavelets))))
        assert gap <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"corpus sweep took {elapsed:.1f}s"


def test_criterion_02_matched_testing_below_norm(grid1, doubling_pairs1):
    """Matched-depth block testing never exceeds the matrix norm; ratio >= 1/2."""
    trunc = default_truncation(grid1)
    for kernel in (_hilbert(), _fractional()):
        for sigma, omega in doubling_pairs1:
            matrix = assemble_haar_matrix(kernel, trunc, sigma, omega, depth=5)
            norm = operator_norm(matrix).value
            testing = matched_haar_testing(matrix).value
            dual = matched_haar_testing(matrix, dual=True).value
            assert testing <= norm + 1e-9
            assert dual <= norm + 1e-9
            assert norm / (testing + dual) >= 0.5 - 1e-9


def test_criterion_03_comparability_band(grid1, doubling_pairs1):
    """Norm-to-testing ratio sits in [1/2, C] stably across depth."""
    start = time.monotonic()
    kernel = _hilbert()
    trunc = default_truncation(grid1)
    ratios = {}
    for depth in (6, 7):
        ratios[depth] = []
        for sigma, omega in doubling_pairs1:
            matrix = assemble_haar_matrix(kernel, trunc, sigma, omega, depth=depth)
            norm = operator_norm(matrix).value
            h = haar_testing(sigma, omega, kernel, trunc, depth=depth).value
            hd = haar_testing_dual(sigma, omega, kernel, trunc, depth=depth).value
            ratio = norm / (h + hd)
            assert ratio >= 0.5 - 1e-9
            assert math.isfinite(ratio)
            ratios[depth].append(ratio)
    for r6, r7 in zip(ratios[6], ratios[7]):
        assert abs(r7 - r6) <= 0.15 * r6
    c6, c7 = max(ratios[6]), max(ratios[7])
    assert abs(c7 - c6) <= 0.15 * c6

    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"band sweep took {elapsed:.1f}s"


def test_criterion_04_size_lower_bound_trials(grid1, doubling_pairs1, power_pair):
    """50 aligned-dipole trials per pair: constant sign, exact reconstruction,
    and one finite constant coupling the size characteristic to testing."""
    kernel = _hilbert()
    reports = []
    for i, (sigma, omega) in enumerate(doubling_pairs1):
        trunc = default_truncation(sigma.grid)
        reports.append(
            a2_lower_bound_experiment(sigma, omega, kernel, trunc, trials=50, seed=100 + i)
        )
    psigma, pomega = power_pair
    trunc = default_truncation(psigma.grid)
    reports.append(
        a2_lower_bound_experiment(psigma, pomega, kernel, trunc, trials=50, seed=99)
    )

    for rep in reports:
        assert rep.passed
        assert rep.details["trial_count"] >= 50
        assert rep.details["sign_fraction"] == 1.0
        assert rep.details["max_reconstruction_error"] < 1e-10
        assert math.isfinite(rep.value)
    coupling = max(rep.value for rep in reports)
    assert 0.0 < coupling < 10.0
    for rep in reports:
        a2 = rep.details["a2"]
        testing = rep.details["haar_testing_global"]
        assert a2 <= coupling * testing + 1e-12


def test_criterion_05_kernel_difference_dominance(grid1):
    """Accepted cone width keeps correction terms below half the main term
    at >= 99 percent of samples, with the exact decomposition identity."""
    trunc = default_truncation(grid1)
    base = grid1.cube(4, (0,))
    for kernel, expected_delta in ((_hilbert(), 0.25), (_fractional(), 0.125)):
        delta, triple, rep = select_delta(grid1, kernel, trunc, base)
        assert delta == expected_delta
        assert rep.details["sign_agreement"] == 1.0
        assert rep.details["band_fraction"] >= 0.99
        assert rep.details["identity_residual_max"] < 1e-8
        assert triple.source.contains(triple.pos_cube)
        assert triple.source.contains(triple.neg_cube)


def test_criterion_06_matrix_counterexample():
    """Slow-decay matrix: unit column sups, oracle row sups, growing norms."""
    start = time.monotonic()
    for gamma in (0.55, 0.6, 0.7):
        cfg = MatrixCounterexampleConfig(gamma=gamma)
        rep = matrix_counterexample(cfg)
        d = rep.details
        assert d["col_sup"] == 1.0

        s = 2.0 * gamma
        n_oracle = 200000
        partial = math.fsum(k ** -s for k in range(1, n_oracle + 1))
        tail = (n_oracle + 0.5) ** (1.0 - s) / (s - 1.0)
        assert abs(d["row_sup"] - math.sqrt(partial + tail)) <= 1e-6

        exps = list(cfg.ladder_exponents)
        growth = [d["growth"][str(2 ** e)] for e in exps]
        assert all(b > a for a, b in zip(growth, growth[1:]))
        assert growth[-1] > growth[0]
        assert d["growth_strictly_increasing"] is True
        assert rep.passed
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"matrix sweep took {elapsed:.1f}s"


def test_criterion_07_p2_consistency(grid1, doubling_pairs1, power_pair):
    """Every Lp quantity collapses to its L2 counterpart at p = 2."""
    kernel = _hilbert()
    for sigma, omega in (doubling_pairs1[0], power_pair):
        trunc = default_truncation(sigma.grid)
        a2 = a2_lambda(sigma, omega, 0.0, depth=5).value
        ap = ap_lambda(sigma, omega, 0.0, p=2.0, depth=5).value
        assert abs(ap - a2) <= 1e-9 * max(1.0, a2)

        h = haar_testing(sigma, omega, kernel, trunc, depth=5).value
        hd = haar_testing_dual(sigma, omega, kernel, trunc, depth=5).value
        lph = lp_haar_testing(sigma, omega, kernel, trunc, p=2.0, depth=5).value
        lphd = lp_haar_testing_dual(sigma, omega, kernel, trunc, p=2.0, depth=5).value
        assert abs(lph - h) <= 1e-9 * max(1.0, h)
        assert abs(lphd - hd) <= 1e-9 * max(1.0, hd)

        qh = quadratic_haar_testing(sigma, omega, kernel, trunc, p=2.0, depth=5).value
        assert abs(qh - h) <= 1e-9 * max(1.0, h)

        sq = lp_square_function_bounds(sigma, 2.0, 5)
        assert abs(sq.lower - 1.0) <= 1e-9
        assert abs(sq.upper - 1.0) <= 1e-9

        frame = banach_frame_check(sigma, 2.0, 5)
        assert frame.passed
        lo, hi = frame.details["band"]
        assert abs(lo - 1.0) <= 1e-9
        assert abs(hi - 1.0) <= 1e-9


def test_criterion_08_quadratic_reductions(grid1, doubling_pairs1, power_pair):
    """Singleton families reproduce scalar values; families never fall below
    their best singleton; subcube families dominate the product form."""
    kernel = _hilbert()
    for sigma, omega in (doubling_pairs1[0], power_pair):
        trunc = default_truncation(sigma.grid)
        for p in (2.0, 4.0):
            qo = quadratic_offset_ap(sigma, omega, 0.0, p=p, depth=4)
            singleton = qo.witness["singleton_value"]
            assert qo.value >= singleton - 1e-12
            if p == 2.0:
                assert abs(qo.value - singleton) <= 1e-9 * max(1.0, singleton)

        h = haar_testing(sigma, omega, kernel, trunc, depth=4).value
        qh = quadratic_haar_testing(sigma, omega, kernel, trunc, p=2.0, depth=4).value
        assert abs(qh - h) <= 1e-9 * max(1.0, h)

        qs = quadratic_subcube_ap(sigma, omega, 0.0, p=2.0, depth=4).value
        ap = ap_lambda(sigma, omega, 0.0, p=2.0, depth=4).value
        assert qs >= ap - 1e-12


def test_criterion_09_halo_covers(grid1):
    """20 random non-dyadic boxes per corpus measure: the cover terminates and
    recomputation confirms containment, disjointness, and the leftover bound."""
    corpus1 = [
        lebesgue(grid1),
        power_weight(grid1, 0.5),
        power_weight(grid1, -0.4),
        random_dyadic_doubling(grid1, 2.0, seed=1),
        random_dyadic_doubling(grid1, 3.0, seed=2),
    ]
    rng = np.random.default_rng(0)
    for mu in corpus1:
        for _ in range(20):
            side = float(rng.uniform(0.1, 0.3))
            lo = float(rng.uniform(0.0, 1.0 - side)) + 1e-4 * float(rng.uniform(0.1, 0.9))
            cover = halo_cover(mu, ((lo,), side), epsilon=0.1, eta=0.9)
            chk = cover.recompute(mu)
            assert chk["contained"] and chk["disjoint"] and chk["leftover_ok"]

    grid2_fine = Grid(dimension=2, max_level=7)
    corpus2 = [
        lebesgue(grid2_fine),
        random_dyadic_doubling(grid2_fine, 1.5, seed=3),
        random_dyadic_doubling(grid2_fine, 2.0, seed=4),
    ]
    rng = np.random.default_rng(1)
    for mu in corpus2:
        for _ in range(20):
            side = float(rng.uniform(0.35, 0.6))
            lo = tuple(
                float(rng.uniform(0.0, 1.0 - side)) + 1e-4 * float(rng.uniform(0.1, 0.9))
                for _ in range(2)
            )
            cover = halo_cover(mu, (lo, side), epsilon=0.1, eta=0.9)
            chk = cover.recompute(mu)
            assert chk["contained"] and chk["disjoint"] and chk["leftover_ok"]

    peaked = near_point_mass(grid1, 4.0)
    cover = halo_cover(peaked, ((0.4,), 0.25), epsilon=0.1, eta=0.9)
    chk = cover.recompute(peaked)
    assert chk["contained"] and chk["disjoint"] and chk["leftover_ok"]
    heavy = int(np.argmax(peaked.cell_mass))
    lo_e, hi_e = cover.shrunken_box()
    cell = grid1.cell_side * heavy
    assert lo_e[0] <= cell and cell + grid1.cell_side <= hi_e[0]


def test_criterion_10_deterministic_reports(tmp_path):
    """Two identical runs of every subcommand agree byte for byte outside
    the timestamp metadata line."""
    def run_all():
        for command in ("characteristics", "experiment", "search", "frames", "matrix-demo"):
            rc = main([command, "--depth", "4", "--out", str(tmp_path)])
            assert rc == 0, f"{command} failed"

    def snapshot():
        out = {}
        for path in sorted(tmp_path.iterdir()):
            lines = path.read_text().splitlines(keepends=True)
            out[path.name] = "".join(ln for ln in lines if '"generated_at"' not in ln)
        return out

    run_all()
    first = snapshot()
    run_all()
    second = snapshot()
    assert len(first) >= 6
    assert sorted(first) == sorted(second)
    for name, body in first.items():
        assert body == second[name], name
