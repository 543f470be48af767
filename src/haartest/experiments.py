"""Executable constructions behind the testing bounds.

Each experiment assembles a concrete geometric configuration (aligned cube
pairs with a dipole test function, halo covers by dyadic cubes, a slowly
decaying triangular matrix) and measures the constants that the inequality
arguments predict, emitting a deterministic report. Experiments never prove
anything; they check sign patterns, dominance of main terms, reconstruction
identities, and empirical constant bands at mesh resolution.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .characteristics import (
    JsonReport,
    _GramFold,
    _PyramidFold,
    _check_pair,
    _operator_spec,
    _restriction_weights,
    a2_lambda,
    haar_testing,
    pair_bundle,
    quadratic_haar_testing,
    quadratic_offset_ap,
)
from .dyadic import DyadicCube, Grid, MeshExhaustedError, _first_max, box_distance, refine
from .haar import HaarSystem, cached_system
from .measure import (
    MeshMeasure,
    custom_cells,
    doubling_constant,
    near_point_mass,
    random_dyadic_doubling,
)
from .operators import (
    Kernel,
    Truncation,
    TruncationError,
    _fold_images,
    apply,
    require_resolved,
)

__all__ = [
    "AlignmentError",
    "SignDominanceError",
    "ExperimentReport",
    "SectorConfig",
    "AlignedTriple",
    "PhiReport",
    "HaloCover",
    "MatrixCounterexampleConfig",
    "build_aligned_triple",
    "phi_test_function",
    "kernel_difference_report",
    "select_delta",
    "a2_lower_bound_experiment",
    "triple_absorption_experiment",
    "halo_cover",
    "matrix_counterexample",
    "counterexample_search",
    "quadratic_ap_experiment",
]

_GL_NODES = 24


class AlignmentError(RuntimeError):
    """No admissible cube configuration; the message names the constraint."""


class SignDominanceError(AssertionError):
    """A kernel-difference check failed; the message lists the worst sample."""


@dataclass(frozen=True)
class ExperimentReport(JsonReport):
    """Outcome of one experiment: headline value plus measured details."""

    name: str
    value: float
    passed: bool
    details: dict
    seed: int | None = None


@dataclass(frozen=True)
class SectorConfig:
    """An open cone of directions: the points z whose unit direction lies
    within delta of the axis v."""

    v: tuple
    delta: float

    def __post_init__(self):
        axis = np.asarray(self.v, dtype=float)
        norm = float(np.linalg.norm(axis))
        if not norm > 0:
            raise ValueError("cone axis must be a nonzero vector")
        object.__setattr__(self, "v", tuple(float(t) for t in axis / norm))
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"cone width must lie in (0, 1], got {self.delta}")

    def axis(self) -> np.ndarray:
        return np.asarray(self.v, dtype=float)

    def contains_point_sets(self, origins: np.ndarray, points: np.ndarray) -> np.ndarray:
        """For each origin (k, n), whether all its points (k, c, n) sit
        strictly inside the cone from it."""
        z = points - origins[:, None, :]
        r = np.linalg.norm(z, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            units = z / r[..., None]
        inside = np.linalg.norm(units - self.axis(), axis=-1) < self.delta
        return np.all(inside & (r > 0.0), axis=-1)


def _box_vertices(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """(k, 2**n, n) corners of the boxes [lower, upper) (k, n); corner i
    takes the upper end on axis ax when bit ax of i is set."""
    n = lower.shape[-1]
    bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
    return np.where(bits, upper[:, None, :], lower[:, None, :])


def _in_cone(sector: SectorConfig, origin: DyadicCube, cube: DyadicCube) -> bool:
    """True when every corner of cube sits inside the cone from origin's center."""
    corners = _box_vertices(cube.lower[None], cube.upper[None])
    return bool(sector.contains_point_sets(origin.center[None], corners)[0])


@dataclass(frozen=True)
class AlignedTriple:
    """Two equal cubes aligned along a cone axis plus a dipole pair inside.

    source holds the dipole cubes; target is where the transform is
    sampled. pos_cube and neg_cube carry the positive and negative parts
    of the dipole and sit `m` generations below source, separated at the
    scale of source itself. Construction validates every constraint and
    raises AlignmentError naming the first violated one.
    """

    source: DyadicCube
    target: DyadicCube
    neg_cube: DyadicCube
    pos_cube: DyadicCube
    sector: SectorConfig

    def __post_init__(self):
        src, tgt = self.source, self.target
        neg, pos = self.neg_cube, self.pos_cube
        delta = self.sector.delta
        slack = 1e-9 * src.side
        if tgt.level != src.level:
            raise AlignmentError("target cube must match the source side length")
        if neg.level != pos.level:
            raise AlignmentError("dipole cubes must share a level")
        m = neg.level - src.level
        if m < 1:
            raise AlignmentError("dipole cubes must sit strictly below the source")
        if not (src.contains(neg) and src.contains(pos)):
            raise AlignmentError("dipole cubes must lie inside the source cube")
        if neg.coords == pos.coords:
            raise AlignmentError("dipole cubes must be distinct")
        dist = box_distance(src.lower, src.upper, tgt.lower, tgt.upper)
        lo_band, hi_band = src.side / (2.0 * delta), 2.0 * src.side / delta
        if not (lo_band - slack <= dist <= hi_band + slack):
            raise AlignmentError(
                f"source-target distance {dist:.6g} outside band [{lo_band:.6g}, {hi_band:.6g}]"
            )
        if not _in_cone(self.sector, src, tgt):
            raise AlignmentError("target cube leaves the cone from the source center")
        d3 = box_distance(*neg.triple_box(), *pos.triple_box())
        lo3, hi3 = src.side / 2.0, 2.0 * src.side
        if not (lo3 - slack <= d3 <= hi3 + slack):
            raise AlignmentError(
                f"tripled dipole separation {d3:.6g} outside band [{lo3:.6g}, {hi3:.6g}]"
            )
        if not _in_cone(self.sector, neg, pos):
            raise AlignmentError("positive dipole cube leaves the cone from the negative one")

    @property
    def m(self) -> int:
        return self.neg_cube.level - self.source.level

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.neg_cube.center + self.pos_cube.center)

    def keys(self) -> dict:
        return {
            "source": self.source.key(),
            "target": self.target.key(),
            "neg": self.neg_cube.key(),
            "pos": self.pos_cube.key(),
            "midpoint": [float(t) for t in self.midpoint],
            "v": list(self.sector.v),
            "delta": self.sector.delta,
            "m": self.m,
        }


def build_aligned_triple(grid: Grid, kernel: Kernel, cfg: SectorConfig,
                         base_cube: DyadicCube,
                         target_cube: DyadicCube | None = None) -> AlignedTriple:
    """Deterministic search for an aligned configuration around base_cube.

    The target partner is the admissible same-level cube whose distance is
    nearest to side/delta (ties broken by key); the dipole pair comes from
    the smallest generation holding a pair whose tripled boxes separate at
    the scale of the base cube, nearest to that scale. Passing target_cube
    skips the partner search and validates the given cube instead.
    """
    if cfg.delta > kernel.delta0:
        raise AlignmentError(
            f"cone width delta={cfg.delta} exceeds kernel delta0={kernel.delta0:.6g}"
        )
    side = base_cube.side
    if target_cube is None:
        target = _aligned_partner(grid, cfg, base_cube)
    else:
        target = target_cube
    lo3, hi3 = side / 2.0, 2.0 * side
    for m in range(1, grid.max_level - base_cube.level + 1):
        pair = _dipole_pair(grid, cfg, base_cube, m)
        if pair is not None:
            return AlignedTriple(source=base_cube, target=target, neg_cube=pair[0],
                                 pos_cube=pair[1], sector=cfg)
    raise AlignmentError(
        f"no aligned configuration at this depth: no dipole pair below {base_cube.key()} "
        f"reaches tripled separation in [{lo3:.6g}, {hi3:.6g}] within max_level={grid.max_level}"
    )


# pairs of cubes whose distances build_aligned_triple holds at once
_PAIR_BLOCK = 1 << 18


def _level_boxes(grid: Grid, level: int, coords: np.ndarray) -> tuple:
    """(lower, upper) of the level-`level` cubes with integer coords (k, n),
    by the arithmetic of `DyadicCube.lower` and `upper`."""
    lower = grid.window_lower + coords * (grid.side / 2 ** level)
    return lower, lower + grid.side / 2 ** level


def _exact_distances(gaps: np.ndarray) -> np.ndarray:
    """`box_distance` of each row of per-axis gaps (k, n), by its own
    arithmetic (the norm of a 1-D array), so band edges and ties fall as there.
    The array scans call it only on the few boxes near a band."""
    return np.array([np.linalg.norm(g) for g in gaps], dtype=float)


def _near_band(gaps: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Mask of the gaps (..., n) whose norm is in [lo, hi] up to 1e-9 * hi: a
    superset of the exact band, whatever the rounding of the norm."""
    dist = np.linalg.norm(gaps, axis=-1)
    slack = 1e-9 * hi
    return (dist >= lo - slack) & (dist <= hi + slack)


def _aligned_partner(grid: Grid, cfg: SectorConfig, base: DyadicCube) -> DyadicCube:
    """The same-level cube in the distance band [side/(2 delta), 2 side/delta]
    from base and inside the cone from its center whose distance is nearest
    to side/delta, ties broken by key: one array scan over the level."""
    side = base.side
    lo_band, hi_band = side / (2.0 * cfg.delta), 2.0 * side / cfg.delta
    nominal = side / cfg.delta
    n = grid.dimension
    coords = np.indices((2 ** base.level,) * n).reshape(n, -1).T
    lower, upper = _level_boxes(grid, base.level, coords)
    gaps = np.maximum(0.0, np.maximum(lower - base.upper, base.lower - upper))
    near = np.flatnonzero(_near_band(gaps, lo_band, hi_band)
                          & np.any(coords != base.coords, axis=1))
    dist = _exact_distances(gaps[near])
    in_band = (lo_band <= dist) & (dist <= hi_band)
    near, dist = near[in_band], dist[in_band]
    fits = cfg.contains_point_sets(np.broadcast_to(base.center, (near.size, n)),
                                   _box_vertices(lower[near], upper[near]))
    if not fits.any():
        reason = "distance band is empty" if near.size == 0 else "no candidate fits the cone"
        raise AlignmentError(
            f"no aligned partner for {base.key()} at delta={cfg.delta}: {reason}"
        )
    cubes = [grid.cube(base.level, c) for c in coords[near[fits]]]
    ranks = zip(np.abs(dist[fits] - nominal).tolist(), (c.key() for c in cubes), cubes)
    return min(ranks, key=lambda rank: rank[:2])[2]


def _dipole_pair(grid: Grid, cfg: SectorConfig, base: DyadicCube, m: int):
    """(neg, pos): the pair of distinct generation-m descendants of base whose
    tripled boxes are apart by a distance in [side/2, 2 side] nearest to
    side, with pos inside the cone from neg's center, ties broken by the
    keys; None when no pair qualifies. Pairs are scanned as arrays,
    _PAIR_BLOCK at a time."""
    side = base.side
    lo3, hi3 = side / 2.0, 2.0 * side
    n = grid.dimension
    level = base.level + m
    coords = np.array(base.coords) * 2 ** m + np.indices((2 ** m,) * n).reshape(n, -1).T
    lower, upper = _level_boxes(grid, level, coords)
    cell = grid.side / 2 ** level
    tlo, thi = lower - cell, upper + cell
    center = lower + 0.5 * cell
    corners = _box_vertices(lower, upper)
    count = len(coords)
    step = max(1, _PAIR_BLOCK // count)
    found_neg, found_pos, found_dist = [], [], []
    for start in range(0, count, step):
        rows = np.arange(start, min(count, start + step))
        gaps = np.maximum(0.0, np.maximum(tlo[None] - thi[rows, None], tlo[rows, None] - thi[None]))
        a, b = np.nonzero(_near_band(gaps, lo3, hi3))
        gaps = gaps[a, b]
        a = rows[a]
        keep = (a != b) & cfg.contains_point_sets(center[a], corners[b])
        dist = _exact_distances(gaps[keep])
        in_band = (lo3 <= dist) & (dist <= hi3)
        found_neg.append(a[keep][in_band])
        found_pos.append(b[keep][in_band])
        found_dist.append(dist[in_band])
    neg, pos, dist = (np.concatenate(x) for x in (found_neg, found_pos, found_dist))
    if neg.size == 0:
        return None
    cubes = {i: grid.cube(level, coords[i]) for i in set(neg.tolist()) | set(pos.tolist())}
    ranks = ((d, cubes[a].key(), cubes[b].key(), a, b)
             for d, a, b in zip(np.abs(dist - side).tolist(), neg.tolist(), pos.tolist()))
    best = min(ranks, key=lambda rank: rank[:3])
    return cubes[best[3]], cubes[best[4]]


@dataclass(frozen=True)
class PhiReport:
    """Mass data of a dipole test function."""

    mean: float
    l2_norm: float
    closed_form: float
    pos_mass: float
    neg_mass: float


def phi_test_function(sigma: MeshMeasure, triple: AlignedTriple):
    """Dipole 1_pos/|pos|_sigma - 1_neg/|neg|_sigma with its norm report.

    The function has sigma-mean zero by construction; the report carries the
    recomputed mean (required to vanish to 1e-12) and both the quadrature
    and closed forms of the L2(sigma) norm.
    """
    pos_mass = sigma.cube_mass(triple.pos_cube)
    neg_mass = sigma.cube_mass(triple.neg_cube)
    if pos_mass <= 0.0 or neg_mass <= 0.0:
        raise ValueError(
            f"dipole cube with zero sigma-mass: {triple.pos_cube.key()} has {pos_mass}, "
            f"{triple.neg_cube.key()} has {neg_mass}"
        )
    phi = triple.pos_cube.indicator() / pos_mass - triple.neg_cube.indicator() / neg_mass
    mean = sigma.integrate(phi)
    if abs(mean) > 1e-12:
        raise ValueError(f"dipole mean {mean:.3e} exceeds 1e-12")
    l2 = float(np.sqrt(sigma.integrate(phi**2)))
    closed = float(np.sqrt(1.0 / pos_mass + 1.0 / neg_mass))
    return phi, PhiReport(mean=float(mean), l2_norm=l2, closed_form=closed,
                          pos_mass=float(pos_mass), neg_mass=float(neg_mass))


def _sample_in_cube(cube: DyadicCube, count: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.uniform(0.0, 1.0, size=(count, cube.lower.size))
    return cube.lower[None, :] + cube.side * u


# the samples of kernel_difference_report: this many x, and as many y
_SAMPLE_COUNT = 64


def kernel_difference_report(kernel: Kernel, trunc: Truncation,
                             triple: AlignedTriple, seed: int = 0) -> ExperimentReport:
    """Check sign and dominance structure of K(x,y) - K(x,c) on a triple.

    For sampled x in the target cube and y in the dipole cubes, the
    difference splits exactly into a straightening term, a smoothness term,
    and a main term (line integral along the segment from the dipole
    midpoint c to y, against the side-adapted unit axis). Asserts that the
    difference matches the predicted sign at every sample and that the two
    correction terms stay below half the main term at 99 percent of
    samples; failures raise SignDominanceError listing the worst sample.
    """
    rng = np.random.default_rng(seed)
    c = triple.midpoint
    v = triple.sector.axis()
    n = c.size
    xs = _sample_in_cube(triple.target, _SAMPLE_COUNT, rng)
    half = _SAMPLE_COUNT // 2
    ys = np.concatenate([
        _sample_in_cube(triple.pos_cube, _SAMPLE_COUNT - half, rng),
        _sample_in_cube(triple.neg_cube, half, rng),
    ])
    lo_pl, hi_pl = trunc.plateau()
    r_xy = np.linalg.norm(xs - ys, axis=-1)
    r_xc = np.linalg.norm(xs - c[None, :], axis=-1)
    worst_r = min(float(r_xy.min()), float(r_xc.min()))
    best_r = max(float(r_xy.max()), float(r_xc.max()))
    if worst_r < lo_pl or best_r > hi_pl:
        raise TruncationError(
            f"sampled distances [{worst_r:.6g}, {best_r:.6g}] leave the truncation "
            f"plateau [{lo_pl:.6g}, {hi_pl:.6g}]"
        )
    diff = kernel.eval(xs, ys) - kernel.eval(xs, np.broadcast_to(c, xs.shape))
    w = (xs - c[None, :]) / r_xc[:, None]
    side_sign = np.sign((ys - c[None, :]) @ v)
    if np.any(side_sign == 0.0):
        raise SignDominanceError("sample y lies exactly on the dividing hyperplane")
    axis_u = side_sign[:, None] * w
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    t_nodes = 0.5 * (nodes + 1.0)
    t_weights = 0.5 * weights
    path = c[None, None, :] + t_nodes[None, :, None] * (ys - c[None, :])[:, None, :]
    if float(np.linalg.norm(xs[:, None, :] - path, axis=-1).min()) <= 0.0:
        raise SignDominanceError("integration path touches a sample point")
    grads = kernel.grad2(xs[:, None, :], path)
    grad_c = kernel.grad2(xs, np.broadcast_to(c, xs.shape))
    dist_yc = np.linalg.norm(ys - c[None, :], axis=-1)
    y_hat = (ys - c[None, :]) / dist_yc[:, None]
    straighten = dist_yc * np.einsum(
        "k,skn->s", t_weights, (y_hat - axis_u)[:, None, :] * grads
    )
    smooth = dist_yc * np.einsum(
        "k,skn->s", t_weights, axis_u[:, None, :] * (grads - grad_c[:, None, :])
    )
    main = dist_yc * np.einsum("sn,sn->s", axis_u, grad_c)
    if np.any(main == 0.0):
        idx = int(np.argmax(main == 0.0))
        raise SignDominanceError(
            f"main term vanished at sample x={xs[idx]}, y={ys[idx]}"
        )
    orient = np.sign(np.einsum("sn,sn->s", w, grad_c))
    if np.any(orient == 0.0) or not np.all(orient == orient[0]):
        raise SignDominanceError("directional derivative at the midpoint changes sign across samples")
    orientation = float(orient[0])
    predicted = side_sign * orientation
    actual = np.sign(diff)
    mismatches = np.nonzero(actual != predicted)[0]
    if mismatches.size > 0:
        i = int(mismatches[0])
        raise SignDominanceError(
            f"difference sign disagrees at sample x={xs[i]}, y={ys[i]}: "
            f"diff={diff[i]:.6g}, predicted sign {predicted[i]:+.0f}"
        )
    band_ratio = (np.abs(straighten) + np.abs(smooth)) / np.abs(main)
    band_fraction = float(np.mean(band_ratio <= 0.5))
    if band_fraction < 0.99:
        i = int(np.argmax(band_ratio))
        raise SignDominanceError(
            f"correction terms reach {band_ratio[i]:.4f} of the main term at "
            f"x={xs[i]}, y={ys[i]} (I={straighten[i]:.6g}, II={smooth[i]:.6g}, "
            f"III={main[i]:.6g}); fraction within half is {band_fraction:.4f}"
        )
    total = straighten + smooth + main
    residual = np.abs(diff - total) / np.maximum(np.abs(diff), np.abs(main))
    size_ratio = np.abs(diff) * triple.source.side ** (n - kernel.lam)
    details = {
        "triple": triple.keys(),
        "orientation": orientation,
        "sign_agreement": 1.0,
        "band_fraction": band_fraction,
        "worst_band_ratio": float(band_ratio.max()),
        "size_ratio_min": float(size_ratio.min()),
        "size_ratio_max": float(size_ratio.max()),
        "identity_residual_max": float(residual.max()),
        "sample_count": _SAMPLE_COUNT,
        "plateau": [lo_pl, hi_pl],
        **_operator_spec(kernel, trunc),
    }
    return ExperimentReport(name="kernel_difference", value=band_fraction,
                            passed=True, details=details, seed=seed)


# select_delta tries cone widths 2**-j down to j = _MAX_HALVINGS
_MAX_HALVINGS = 10


def select_delta(grid: Grid, kernel: Kernel, trunc: Truncation,
                 base_cube: DyadicCube, seed: int = 0):
    """Smallest-j search over widths 2**-j until the difference check passes,
    for cones about the first axis with the dipole generation left free.

    Returns (delta, triple, report) for the first accepted width; raises
    AlignmentError when every width down to 2**-_MAX_HALVINGS fails.
    """
    v = (1.0,) + (0.0,) * (grid.dimension - 1)
    start = max(1, math.ceil(-math.log2(kernel.delta0)))
    failures = []
    for j in range(start, _MAX_HALVINGS + 1):
        delta = 2.0**-j
        try:
            triple = build_aligned_triple(grid, kernel, SectorConfig(v=v, delta=delta), base_cube)
            report = kernel_difference_report(kernel, trunc, triple, seed=seed)
        except (AlignmentError, SignDominanceError) as exc:
            failures.append(f"delta=2^-{j}: {exc}")
            continue
        return delta, triple, report
    raise AlignmentError(
        "no cone width down to 2^-%d passes the difference check; attempts: %s"
        % (_MAX_HALVINGS, " | ".join(failures))
    )


def _rows_within(system: HaarSystem, cube: DyadicCube) -> np.ndarray:
    """Mask of the system's rows whose cube lies in cube, as
    `DyadicCube.contains` tells it, from the level arrays."""
    masks = []
    for lv in system.levels:
        shift = lv.level - cube.level
        coords = np.unravel_index(lv.cubes, (2 ** lv.level,) * cube.grid.dimension)
        masks.append(np.all([c >> shift == own for c, own in zip(coords, cube.coords)], axis=0)
                     if shift >= 0 else np.zeros(lv.cubes.size, dtype=bool))
    return np.concatenate(masks)


def _expansion_check(sigma: MeshMeasure, triple: AlignedTriple, phi: np.ndarray,
                     l2_norm: float) -> dict:
    """Expand the normalized dipole and verify support, count, and synthesis.

    Nonzero coefficients may only sit on the source cube and its descendants
    down to one generation above the dipole cubes; reconstruction from that
    block must reproduce the dipole to 1e-10 in L2(sigma).
    """
    grid, m = sigma.grid, triple.m
    system = cached_system(sigma, triple.pos_cube.level)
    unit = np.asarray(phi, dtype=float) / l2_norm
    coeffs = system.expand(unit)
    keep = _rows_within(system, triple.source)
    nonzero = np.abs(coeffs) > 1e-12
    count = int(np.count_nonzero(nonzero))
    n = grid.dimension
    count_bound = (2**n - 1) * sum(2 ** (n * j) for j in range(1, m + 1))
    recon = system.reconstruct(coeffs * keep, mean_coeff=0.0)
    err = float(np.sqrt(sigma.integrate((recon - unit.reshape(grid.mesh_shape)) ** 2)))
    return {
        "mean_coefficient": float(system.mean_coefficient(unit)),
        "coefficient_count": count,
        "count_bound": int(count_bound),
        "support_ok": not np.any(nonzero & ~keep),
        "count_ok": bool(count <= count_bound),
        "reconstruction_error": err,
    }


def _dipole_row(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel,
                trunc: Truncation, triple: AlignedTriple) -> tuple:
    """Transform the dipole of a triple and measure the image on the target.

    Returns the report row of the triple (its keys, the pairing ratio
    r1 = |<T phi, 1_target>_omega| / (|target|_omega / |target|^(1-lam/n)),
    which is 0 on an omega-null target, whether the image keeps one sign on
    the target, and the dipole's expansion check), the image on the target
    cube (flat) and the dipole's PhiReport.
    """
    n = sigma.grid.dimension
    target = triple.target
    phi, phi_rep = phi_test_function(sigma, triple)
    image = apply(kernel, trunc, sigma, phi)
    block = image[target.slices()].ravel()
    signs = np.sign(block)
    sign_ok = bool(signs[0] != 0.0 and np.all(signs == signs[0]))
    pairing = omega.integrate(image * target.indicator())
    target_mass = omega.cube_mass(target)
    r1 = (abs(pairing) * target.volume ** (1.0 - kernel.lam / n) / target_mass
          if target_mass > 0.0 else 0.0)
    row = {"triple": triple.keys(), "r1": float(r1), "sign_constant": sign_ok,
           **_expansion_check(sigma, triple, phi, phi_rep.l2_norm)}
    return row, block, phi_rep


def _rows_pass(rows: list, value: float) -> bool:
    """The pass rule of the dipole experiments: every row's image keeps one
    sign on its target, and its dipole expands on the source's cubes within
    the count bound and back to 1e-10; the headline value is finite."""
    return math.isfinite(value) and all(
        row["sign_constant"] and row["reconstruction_error"] < 1e-10
        and row["support_ok"] and row["count_ok"] for row in rows)


def a2_lower_bound_experiment(sigma: MeshMeasure, omega: MeshMeasure,
                              kernel: Kernel, trunc: Truncation,
                              trials: int = 50, seed: int = 0,
                              testing_depth: int = 6) -> ExperimentReport:
    """Dipole trials showing the transform pairs against far indicators.

    Each trial builds an aligned configuration, in a cone of width 1/8
    about the first axis or its negative, checks that the transform of
    the dipole keeps one sign on the target cube, measures the pairing ratio
    r1 = |<T phi, 1_target>_omega| / (|target|_omega / |target|^(1-lam/n)),
    and verifies the finite expansion identity of the normalized dipole.
    The report couples the size characteristic to global testing through
    the empirical constant value = a2 / testing. A trial whose pairing
    ratio is not positive raises SignDominanceError.
    """
    grid = sigma.grid
    n = grid.dimension
    cfg = SectorConfig(v=(1.0,) + (0.0,) * (n - 1), delta=0.125)
    if cfg.delta > kernel.delta0:
        raise AlignmentError(
            f"cone width delta={cfg.delta} exceeds kernel delta0={kernel.delta0:.6g}"
        )
    rng = np.random.default_rng(seed)
    level_min = max(1, math.ceil(math.log2(1.0 / (2.0 * cfg.delta) + 2.0)))
    level_max = grid.max_level - 1
    if level_min > level_max:
        raise AlignmentError("window too small for the configured cone width")
    trial_rows = []
    attempts = 0
    max_attempts = 60 * trials
    while len(trial_rows) < trials:
        attempts += 1
        if attempts > max_attempts:
            raise AlignmentError(
                f"could only assemble {len(trial_rows)} of {trials} aligned trials "
                f"in {max_attempts} attempts"
            )
        level = int(rng.integers(level_min, level_max + 1))
        coords = tuple(int(t) for t in rng.integers(0, 2**level, size=n))
        flip = bool(rng.integers(0, 2))
        v = tuple(-t for t in cfg.v) if flip else cfg.v
        try:
            triple = build_aligned_triple(grid, kernel, replace(cfg, v=v),
                                          grid.cube(level, coords))
        except AlignmentError:
            continue
        row, _, phi_rep = _dipole_row(sigma, omega, kernel, trunc, triple)
        if omega.cube_mass(triple.target) <= 0.0:
            continue
        trial_rows.append({**row, "phi_norm": phi_rep.l2_norm})
    min_r1 = min(row["r1"] for row in trial_rows)
    if min_r1 <= 0.0:
        worst = min(trial_rows, key=lambda row: row["r1"])
        raise SignDominanceError(
            f"pairing ratio {min_r1:.6g} at or below floor 0; witness triple "
            f"{worst['triple']}"
        )
    sign_fraction = float(np.mean([row["sign_constant"] for row in trial_rows]))
    max_recon = max(row["reconstruction_error"] for row in trial_rows)
    size_rep = a2_lambda(sigma, omega, kernel.lam, depth=testing_depth)
    test_rep = haar_testing(sigma, omega, kernel, trunc, depth=testing_depth)
    coupling = size_rep.value / test_rep.value if test_rep.value > 0 else float("inf")
    details = {
        "trials": trial_rows,
        "trial_count": len(trial_rows),
        "min_r1": float(min_r1),
        "floor": 0.0,
        "sign_fraction": sign_fraction,
        "max_reconstruction_error": float(max_recon),
        "max_coefficient_count": max(row["coefficient_count"] for row in trial_rows),
        "a2": size_rep.value,
        "haar_testing_global": test_rep.value,
        "testing_depth": testing_depth,
        "delta": cfg.delta,
        **_operator_spec(kernel, trunc),
    }
    return ExperimentReport(name="a2_lower_bound", value=float(coupling),
                            passed=_rows_pass(trial_rows, coupling), details=details, seed=seed)


# adjacent cube pairs whose cross terms triple_absorption_experiment samples
_CROSS_PAIRS = 16


def triple_absorption_experiment(sigma: MeshMeasure, omega: MeshMeasure,
                                 kernel: Kernel, trunc: Truncation,
                                 depth: int = 5, seed: int = 0) -> ExperimentReport:
    """Absorb tripled-cube testing into global testing plus the size term.

    For every cube L up to depth (1 to max_level: the global Haar testing
    needs wavelets) with sigma-mass, the energy of the normalized indicator
    image over the tripled box is the square of L's cube_testing value in
    "triple" mode at p = 2, read from the cube pyramid (`_PyramidFold`),
    which takes one pass of sigma's images with the global Haar testing's
    Grams (`_GramFold`).
    Each energy is compared against C * testing^2 + C * a2 * energy; the
    report carries the smallest C that makes every comparison hold, the
    implied constant in triple_testing <= C' * (testing + a2), and the
    worst Cauchy-Schwarz ratio of cross terms over adjacent same-level
    pairs, taken on the pair's indicator images over the first cube's
    tripled box.
    """
    grid = _check_pair(sigma, omega)
    if not 1 <= depth <= grid.max_level:
        raise ValueError(f"triple absorption depth must lie in [1, {grid.max_level}], "
                         f"got {depth}")
    require_resolved(trunc, grid)
    fold = _PyramidFold(sigma, omega, "triple", 2.0, depth)
    grams = _GramFold(cached_system(sigma, depth), omega.flat_mass)
    _fold_images(kernel, trunc, sigma, depth, fold.add, grams.add)
    h_val = grams.report(kernel, trunc).value
    a_val = a2_lambda(sigma, omega, kernel.lam, depth=depth).value
    # each level's cube values from level 0 up to depth, -1 where sigma has no mass
    pyramid = fold.values()
    c_levels = []
    for values in pyramid:
        energy = np.maximum(values, 0.0) ** 2
        denom = h_val**2 + a_val * np.sqrt(energy)
        c_here = np.divide(energy, denom, out=np.zeros_like(energy), where=denom > 0.0)
        c_levels.append(np.where(values >= 0.0, c_here, -1.0))
    c_best, level, index = _first_max(c_levels)
    if level is None:
        raise ValueError("no cube with positive sigma-mass up to the given depth")
    c_witness = grid.cube(level, index).key() if c_best > 0.0 else ""
    triple_constant = _first_max(pyramid)[0]
    c_prime = triple_constant / (h_val + a_val) if h_val + a_val > 0.0 else 0.0
    rng = np.random.default_rng(seed)
    adjacent = []
    n = grid.dimension
    for level, values in enumerate(pyramid[1:], start=1):
        live = values >= 0.0
        for coords in zip(*np.nonzero(live)):
            for ax in range(n):
                other = list(coords)
                other[ax] += 1
                if other[ax] < 2**level and live[tuple(other)]:
                    adjacent.append((level, coords, tuple(other)))
    cross_max = 0.0
    if adjacent:
        take = min(_CROSS_PAIRS, len(adjacent))
        picks = rng.choice(len(adjacent), size=take, replace=False)
        for idx in sorted(int(i) for i in picks):
            level, coords_l, coords_k = adjacent[idx]
            image_l, image_k = apply(kernel, trunc, sigma, np.array([
                grid.cube(level, coords).indicator().ravel() for coords in (coords_l, coords_k)]))
            weights = _restriction_weights(grid, omega.flat_mass, "triple",
                                           grid.cube(level, coords_l))
            cross = abs(float((image_l * image_k * weights).sum()))
            bound = math.sqrt(float((image_l**2 * weights).sum())
                              * float((image_k**2 * weights).sum()))
            if bound > 0.0:
                cross_max = max(cross_max, cross / bound)
    details = {
        "haar_testing_global": h_val,
        "a2": a_val,
        "triple_testing": triple_constant,
        "absorption_c": c_best,
        "absorption_witness": c_witness,
        "implied_c_prime": c_prime,
        "cross_term_max_ratio": cross_max,
        "scanned_cubes": sum(int(np.count_nonzero(values >= 0.0)) for values in pyramid),
        "depth": depth,
        **_operator_spec(kernel, trunc),
    }
    return ExperimentReport(name="triple_absorption", value=float(c_prime),
                            passed=True, details=details, seed=seed)


def _inside(cube: DyadicCube, lo: np.ndarray, hi: np.ndarray, slack: float) -> bool:
    """True when the cube lies in the box [lo, hi] widened by slack."""
    return not (np.any(cube.lower < lo - slack) or np.any(cube.upper > hi + slack))


@dataclass(frozen=True)
class HaloCover:
    """Dyadic cubes inside the concentric shrink of a cube, nearly full.

    The cover sits inside the eta-shrunken cube and misses less than
    epsilon of the full cube's mass; leftover is the uncovered mass inside
    the shrunken cube, measured against the full cube on the right side of
    the inequality.
    """

    lower: tuple
    side: float
    keys: tuple
    eta: float
    epsilon: float
    count: int
    t: int
    leftover: float
    box_mass: float
    halo_mass: float

    def shrunken_box(self):
        lo = np.asarray(self.lower, dtype=float)
        center = lo + 0.5 * self.side
        half = 0.5 * self.eta * self.side
        return center - half, center + half

    def recompute(self, measure: MeshMeasure) -> dict:
        grid = measure.grid
        lo_e, hi_e = self.shrunken_box()
        slack = 1e-9 * self.side
        covered = np.zeros(grid.mesh_shape, dtype=bool)
        contained = True
        disjoint = True
        mass = 0.0
        for key in self.keys:
            cube = DyadicCube.from_key(grid, key)
            if not _inside(cube, lo_e, hi_e, slack):
                contained = False
            sl = cube.slices()
            if covered[sl].any():
                disjoint = False
            covered[sl] = True
            mass += measure.cube_mass(cube)
        lo = np.asarray(self.lower, dtype=float)
        box_mass = measure.box_mass(lo, lo + self.side)
        halo_mass = measure.box_mass(lo_e, hi_e)
        leftover = max(halo_mass - mass, 0.0)
        return {
            "contained": contained,
            "disjoint": disjoint,
            "leftover": leftover,
            "leftover_ok": leftover < self.epsilon * box_mass,
            "box_mass": box_mass,
            "halo_mass": halo_mass,
        }


def halo_cover(measure: MeshMeasure, box, epsilon: float, eta: float) -> HaloCover:
    """Greedy maximal-dyadic cover of the eta-shrink of a cube box = (lower, side).

    Collects maximal dyadic cubes of side at least side/2**t inside the
    shrunken cube, raising t until the mass missed inside the shrink drops
    below epsilon times the full cube's mass. Raises MeshExhaustedError with
    the achieved leftover when the mesh runs out first.
    """
    grid = measure.grid
    lower, side = box
    lo = np.asarray(lower, dtype=float)
    side = float(side)
    if side <= 0.0:
        raise ValueError("cube side must be positive")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    hi = lo + side
    box_mass = measure.box_mass(lo, hi)
    if box_mass <= 0.0:
        raise ValueError("cube carries no mass")
    center = lo + 0.5 * side
    half = 0.5 * eta * side
    lo_e, hi_e = center - half, center + half
    halo_mass = measure.box_mass(lo_e, hi_e)
    wside = float(grid.window_upper[0] - grid.window_lower[0])
    slack = 1e-12 * side
    n = grid.dimension
    leftover = halo_mass
    for t in range(1, grid.max_level + 64):
        min_side = side * 2.0**-t
        levels = [
            k for k in range(grid.max_level + 1)
            if min_side <= wside * 2.0**-k <= eta * side + slack
        ]
        # coarse to fine, a cube inside the shrink (by `_inside`'s comparisons
        # on each axis) is taken unless a cube taken at a coarser level holds it
        covered, previous, cubes = np.zeros((1,) * n, dtype=bool), 0, []
        for k in levels:
            width = grid.side / 2**k
            lower = grid.window_lower[:, None] + np.arange(2**k) * width
            fits = ~((lower < lo_e[:, None] - slack) | (lower + width > hi_e[:, None] + slack))
            covered = refine(covered, n, 2 ** (k - previous))
            taken = reduce(np.logical_and.outer, fits) & ~covered
            covered, previous = covered | taken, k
            cubes.extend(grid.cube(k, np.unravel_index(i, taken.shape))
                         for i in np.flatnonzero(taken).tolist())
        mass = sum(measure.cube_mass(c) for c in cubes)
        leftover = max(halo_mass - mass, 0.0)
        if leftover < epsilon * box_mass:
            keys = tuple(sorted(c.key() for c in cubes))
            return HaloCover(lower=tuple(float(t_) for t_ in lo), side=side,
                             keys=keys, eta=eta, epsilon=epsilon,
                             count=len(keys), t=t, leftover=leftover,
                             box_mass=box_mass, halo_mass=halo_mass)
        if min_side < grid.cell_side:
            break
    raise MeshExhaustedError(
        f"halo cover exhausted the mesh: leftover {leftover:.6g} does not drop "
        f"below {epsilon * box_mass:.6g}"
    )


@dataclass(frozen=True)
class MatrixCounterexampleConfig:
    """Slow-decay triangular matrix a[m, n] = n**-gamma for n >= m."""

    gamma: float
    ladder_exponents: tuple = tuple(range(10, 21))

    def __post_init__(self):
        if not 0.5 < self.gamma <= 0.75:
            raise ValueError(f"gamma must lie in (1/2, 3/4], got {self.gamma}")
        exps = tuple(int(e) for e in self.ladder_exponents)
        if len(exps) < 2 or any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("ladder exponents must be strictly increasing, length >= 2")
        if exps[0] < 1:
            raise ValueError("ladder exponents must be positive")
        object.__setattr__(self, "ladder_exponents", exps)


def _zeta_tail(n0: int, s: float) -> float:
    """Euler-Maclaurin tail sum_{n > n0} n**-s for s > 1."""
    return n0 ** (1.0 - s) / (s - 1.0) - 0.5 * n0**-s + (s / 12.0) * n0 ** (-s - 1.0)


# terms of matrix_counterexample's zeta partial sum, before the tail estimate
_PARTIAL_TERMS = 100000

# terms per chunk of `_action_norm_sq`
_LADDER_CHUNK = 1 << 15


def _action_norm_sq(n: int, s: float) -> float:
    """|action_n|^2 = sum_{k<n} (sum_{k<=i<n} (i+1)**-s)**2, the truncated
    action on the vector (n**-gamma) at s = 2 gamma, from chunks of
    _LADDER_CHUNK terms taken from i = n - 1 down, each chunk's inner sums
    a cumulative sum on the carried sum of the terms above it."""
    total = carry = 0.0
    for stop in range(n, 0, -_LADDER_CHUNK):
        inner = np.cumsum(np.arange(stop, max(stop - _LADDER_CHUNK, 0), -1, dtype=float) ** -s)
        inner += carry
        total += float(inner @ inner)
        carry = float(inner[-1])
    return total


def matrix_counterexample(cfg: MatrixCounterexampleConfig) -> ExperimentReport:
    """Rows and columns stay square-summable while the action blows up.

    Columns have norm n**(1/2-gamma), sup 1 at n = 1; rows have norm
    bounded by the zeta value at 2*gamma (partial sum plus tail estimate);
    yet the truncated action on the vector (n**-gamma) grows strictly along
    the doubling ladder.
    """
    s = 2.0 * cfg.gamma
    head = np.arange(1, 101, dtype=float)
    col_norms = head ** (0.5 - cfg.gamma)
    col_sup = float(col_norms.max())
    n0 = _PARTIAL_TERMS
    terms = np.arange(1, n0 + 1, dtype=float) ** -s
    partial = float(terms[::-1].sum())
    tail = _zeta_tail(n0, s)
    zeta_est = partial + tail
    row_sup = math.sqrt(zeta_est)
    prefix = np.concatenate([[0.0], np.cumsum(terms[:50])])
    row_head = np.sqrt(np.maximum(zeta_est - prefix[:50], 0.0))
    rows_decreasing = bool(np.all(np.diff(row_head) < 0.0))
    v_norm = math.sqrt(zeta_est)
    growth = {2**e: math.sqrt(_action_norm_sq(2**e, s)) / v_norm
              for e in cfg.ladder_exponents}
    values = [growth[2**e] for e in cfg.ladder_exponents]
    strictly_increasing = all(b > a for a, b in zip(values, values[1:]))
    passed = bool(col_sup == 1.0 and rows_decreasing and strictly_increasing)
    details = {
        "gamma": cfg.gamma,
        "col_sup": col_sup,
        "row_sup": row_sup,
        "zeta_partial": partial,
        "zeta_tail": tail,
        "zeta_estimate": zeta_est,
        "rows_decreasing": rows_decreasing,
        "growth": {str(k): val for k, val in growth.items()},
        "growth_strictly_increasing": strictly_increasing,
        "ladder_exponents": list(cfg.ladder_exponents),
        "partial_terms": n0,
    }
    return ExperimentReport(name="matrix_counterexample",
                            value=float(values[-1] / values[0]),
                            passed=passed, details=details, seed=None)


def _family_draw(grid: Grid, rng: np.random.Generator):
    """One (sigma, omega, kind) draw: the kind first, uniform over doubling,
    point and lognormal, then the pair."""
    kind = ("doubling", "point", "lognormal")[int(rng.integers(0, 3))]
    if kind == "doubling":
        pair = [random_dyadic_doubling(grid, 2.0, seed=int(rng.integers(2**31)))
                for _ in range(2)]
    elif kind == "point":
        pair = []
        for _ in range(2):
            sharp = float(rng.uniform(2.0, 8.0))
            cell = tuple(int(t) for t in rng.integers(0, grid.cells_per_axis,
                                                      size=grid.dimension))
            pair.append(near_point_mass(grid, sharp, cell))
    else:
        pair = [custom_cells(grid, np.exp(rng.normal(0.0, 1.5, size=grid.mesh_shape)),
                             label="lognormal")
                for _ in range(2)]
    return pair[0], pair[1], kind


def _pair_hash(sigma: MeshMeasure, omega: MeshMeasure) -> str:
    payload = np.concatenate([
        np.round(sigma.cell_mass, 12).ravel(),
        np.round(omega.cell_mass, 12).ravel(),
    ])
    return hashlib.sha256(payload.tobytes()).hexdigest()[:16]


# rows of counterexample_search's leaderboard
_LEADERBOARD_ROWS = 8


def counterexample_search(grid: Grid, kernel: Kernel, trunc: Truncation,
                          iterations: int = 40, seed: int = 0,
                          depth: int = 4) -> ExperimentReport:
    """Randomized plus greedy-mutation search for extreme norm-to-testing ratios.

    Maximizes the mesh operator norm over testing + dual testing at fixed
    depth over measure pairs drawn by `_family_draw`, mutating the best
    pair's cell masses in the second phase. Emits a leaderboard of the
    _LEADERBOARD_ROWS best rows ordered by (ratio, hash), with their pairs'
    doubling constants; a large ratio is evidence of degradation, never a
    disproof of boundedness.
    """
    if iterations < 1:
        raise ValueError("need at least 1 iteration")
    rng = np.random.default_rng(seed)
    dbl_depth = min(depth, grid.max_level - 1)
    names = ("operator_norm", "haar_testing", "dual_haar_testing")
    # the best rows so far with their measures, in leaderboard order
    board, ratios = [], []
    explore = max(1, iterations // 2)
    best_cells, best_ratio = None, -1.0
    for it in range(iterations):
        if it < explore or best_cells is None:
            sigma, omega, kind = _family_draw(grid, rng)
        else:
            s_cells, w_cells = (np.array(c, dtype=float) for c in best_cells)
            target = s_cells if rng.integers(0, 2) == 0 else w_cells
            hits = rng.integers(0, target.size, size=max(1, target.size // 64))
            flat = target.ravel()
            flat[np.asarray(hits)] *= np.exp(rng.normal(0.0, 0.7, size=len(hits)))
            sigma = custom_cells(grid, s_cells, label="mutated")
            omega = custom_cells(grid, w_cells, label="mutated")
            kind = "mutation"
        reports = pair_bundle(sigma, omega, kernel, trunc, depth, names)
        norm, test, dual = (reports[name].value for name in names)
        row = {"ratio": norm / (test + dual) if test + dual > 0.0 else 0.0, "norm": norm,
               "testing": test, "dual_testing": dual}
        ratios.append(row["ratio"])
        board.append((row, kind, _pair_hash(sigma, omega), sigma, omega))
        board.sort(key=lambda entry: (-entry[0]["ratio"], entry[2]))
        del board[_LEADERBOARD_ROWS:]
        if row["ratio"] > best_ratio:
            best_ratio = row["ratio"]
            best_cells = (sigma.cell_mass.copy(), omega.cell_mass.copy())
    leaderboard = [{**row, "doubling_sigma": doubling_constant(sigma, dbl_depth).constant,
                    "doubling_omega": doubling_constant(omega, dbl_depth).constant,
                    "kind": kind, "hash": pair_hash}
                   for row, kind, pair_hash, sigma, omega in board]
    details = {
        "leaderboard": leaderboard,
        "iterations": iterations,
        "depth": depth,
        "family": "mixed",
        "ratio_band": [float(min(ratios)), float(max(ratios))],
        "note": "heuristic search; a large ratio is evidence, not a disproof",
        **_operator_spec(kernel, trunc),
    }
    return ExperimentReport(name="counterexample_search", value=float(best_ratio),
                            passed=True, details=details, seed=seed)


# dipole families of quadratic_ap_experiment
_FAMILIES = 4


def dipole_family_levels(grid: Grid, delta: float) -> tuple:
    """(offset, coarsest level, finest level) of the dipole families at cone
    width delta: members 1/delta cubes apart or more, three levels beneath."""
    offset = math.ceil(1.0 / delta)
    level_min, level_max = math.ceil(math.log2(offset + 2.0)), grid.max_level - 3
    if level_min > level_max:
        raise AlignmentError(f"dipole families at cone width {delta} need max_level >= "
                             f"{level_min + 3}, got max_level {grid.max_level}")
    return offset, level_min, level_max


def quadratic_ap_experiment(sigma: MeshMeasure, omega: MeshMeasure,
                            kernel: Kernel, trunc: Truncation, p: float = 2.0,
                            seed: int = 0, delta: float = 0.125,
                            control_depth: int = 6) -> ExperimentReport:
    """Dipole families driving the vector-valued size-to-testing control.

    Builds _FAMILIES families of disjoint aligned configurations sharing
    one axis, verifies per member that the transform of the dipole
    dominates |target|^(lam/n - 1) pointwise on the target cube with one
    sign, checks the finite expansion identity, records how the squared
    dipole norm tracks 1 / |target|_sigma, and reports the empirical
    constant coupling the offset size characteristic to vector-valued
    testing.
    """
    grid = sigma.grid
    n = grid.dimension
    rng = np.random.default_rng(seed)
    offset, level_min, level_max = dipole_family_levels(grid, delta)
    stride = offset + 2
    rows, norm_ratios, pointwise_cs = [], [], []
    for _ in range(_FAMILIES):
        level = int(rng.integers(level_min, level_max + 1))
        cells = 2**level
        sign = 1 if rng.integers(0, 2) == 0 else -1
        v = (float(sign),) + (0.0,) * (n - 1)
        # cells >= offset + 2 at every level drawn, so every member's base
        # and target fall inside the grid
        usable = cells - offset
        count = min(4, max(1, usable // stride))
        start = int(rng.integers(0, usable - (count - 1) * stride))
        members = []
        for i in range(count):
            base_axis = start + i * stride if sign > 0 else cells - 1 - start - i * stride
            other = tuple(int(t) for t in rng.integers(0, cells, size=n - 1))
            target = grid.cube(level, (base_axis + sign * offset,) + other)
            triple = build_aligned_triple(grid, kernel, SectorConfig(v=v, delta=delta),
                                          grid.cube(level, (base_axis,) + other),
                                          target_cube=target)
            row, block, phi_rep = _dipole_row(sigma, omega, kernel, trunc, triple)
            floor_dom = target.volume ** (kernel.lam / n - 1.0)
            min_abs = float(np.min(np.abs(block)))
            pointwise_c = floor_dom / min_abs if min_abs > 0.0 else float("inf")
            sigma_target = sigma.cube_mass(target)
            norm_ratio = (
                phi_rep.l2_norm**2 * sigma_target if sigma_target > 0.0 else float("nan")
            )
            members.append({**row, "pointwise_c": pointwise_c, "norm_ratio": float(norm_ratio)})
            pointwise_cs.append(pointwise_c)
            if math.isfinite(norm_ratio):
                norm_ratios.append(norm_ratio)
        rows.append({"level": level, "v": list(v), "members": members})
    size_rep = quadratic_offset_ap(sigma, omega, kernel.lam, p=p,
                                   depth=control_depth, seed=seed)
    test_rep = quadratic_haar_testing(sigma, omega, kernel, trunc, p=p,
                                      depth=control_depth, seed=seed)
    control = size_rep.value / test_rep.value if test_rep.value > 0 else float("inf")
    all_members = [mem for row in rows for mem in row["members"]]
    details = {
        "families": rows,
        "member_count": len(all_members),
        "pointwise_c_max": max(pointwise_cs),
        "norm_ratio_band": [min(norm_ratios), max(norm_ratios)] if norm_ratios else [],
        "quadratic_offset_ap": size_rep.value,
        "quadratic_haar_testing": test_rep.value,
        "p": p,
        "delta": delta,
        "control_depth": control_depth,
        **_operator_spec(kernel, trunc),
    }
    passed = _rows_pass(all_members, control) and math.isfinite(max(pointwise_cs))
    return ExperimentReport(name="quadratic_ap", value=float(control),
                            passed=passed, details=details, seed=seed)
