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

import numpy as np

from .characteristics import (
    JsonReport,
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
from .dyadic import DyadicCube, Grid, MeshExhaustedError, box_distance
from .haar import cached_system
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
    "inner_dyadic_cube",
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
    """An open cone of directions and the splitting depth for dipole cubes.

    The cone with axis v and width delta is the set of points z whose unit
    direction lies within delta of v. m, when set, pins the generation at
    which the dipole cubes are taken; None lets the builder pick the
    smallest workable generation.
    """

    v: tuple
    delta: float
    m: int | None = None

    def __post_init__(self):
        axis = np.asarray(self.v, dtype=float)
        norm = float(np.linalg.norm(axis))
        if not norm > 0:
            raise ValueError("cone axis must be a nonzero vector")
        object.__setattr__(self, "v", tuple(float(t) for t in axis / norm))
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"cone width must lie in (0, 1], got {self.delta}")
        if self.m is not None and self.m < 1:
            raise ValueError("splitting depth m must be at least 1")

    def axis(self) -> np.ndarray:
        return np.asarray(self.v, dtype=float)

    def contains_points(self, origin, points) -> bool:
        """True when every point sits strictly inside the cone from origin."""
        origin = np.asarray(origin, dtype=float)
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return bool(self.contains_point_sets(origin[None], points[None])[0])

    def contains_point_sets(self, origins: np.ndarray, points: np.ndarray) -> np.ndarray:
        """`contains_points` of each origin (k, n) with its points (k, c, n)."""
        z = points - origins[:, None, :]
        r = np.linalg.norm(z, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            units = z / r[..., None]
        inside = np.linalg.norm(units - self.axis(), axis=-1) < self.delta
        return np.all(inside & (r > 0.0), axis=-1)


def _box_corners(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """(k, 2**n, n) corners of the boxes [lower, upper) (k, n); corner i
    takes the upper end on axis ax when bit ax of i is set."""
    n = lower.shape[-1]
    bits = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
    return np.where(bits, upper[:, None, :], lower[:, None, :])


def _corners(cube: DyadicCube) -> np.ndarray:
    return _box_corners(cube.lower[None], cube.upper[None])[0]


@dataclass(frozen=True)
class AlignedTriple:
    """Two equal cubes aligned along a cone axis plus a dipole pair inside.

    source holds the dipole cubes; target is where the transform is
    sampled. pos_cube and neg_cube carry the positive and negative parts
    of the dipole and sit m generations below source, separated at the
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
        if self.sector.m is not None and self.sector.m != m:
            raise AlignmentError(f"dipole generation {m} does not match configured m={self.sector.m}")
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
        if not self.sector.contains_points(src.center, _corners(tgt)):
            raise AlignmentError("target cube leaves the cone from the source center")
        d3 = box_distance(*neg.triple_box(), *pos.triple_box())
        lo3, hi3 = src.side / 2.0, 2.0 * src.side
        if not (lo3 - slack <= d3 <= hi3 + slack):
            raise AlignmentError(
                f"tripled dipole separation {d3:.6g} outside band [{lo3:.6g}, {hi3:.6g}]"
            )
        if not self.sector.contains_points(neg.center, _corners(pos)):
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
    depths = [cfg.m] if cfg.m is not None else list(range(1, grid.max_level - base_cube.level + 1))
    lo3, hi3 = side / 2.0, 2.0 * side
    for m in depths:
        if base_cube.level + m > grid.max_level:
            break
        pair = _dipole_pair(grid, cfg, base_cube, m)
        if pair is not None:
            sector = cfg if cfg.m == m else replace(cfg, m=m)
            return AlignedTriple(source=base_cube, target=target, neg_cube=pair[0],
                                 pos_cube=pair[1], sector=sector)
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
                                   _box_corners(lower[near], upper[near]))
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
    corners = _box_corners(lower, upper)
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


def kernel_difference_report(kernel: Kernel, trunc: Truncation,
                             triple: AlignedTriple, sample_count: int = 64,
                             seed: int = 0) -> ExperimentReport:
    """Check sign and dominance structure of K(x,y) - K(x,c) on a triple.

    For sampled x in the target cube and y in the dipole cubes, the
    difference splits exactly into a straightening term, a smoothness term,
    and a main term (line integral along the segment from the dipole
    midpoint c to y, against the side-adapted unit axis). Asserts that the
    difference matches the predicted sign at every sample and that the two
    correction terms stay below half the main term at 99 percent of
    samples; failures raise SignDominanceError listing the worst sample.
    """
    if sample_count < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    c = triple.midpoint
    v = triple.sector.axis()
    n = c.size
    xs = _sample_in_cube(triple.target, sample_count, rng)
    half = sample_count // 2
    ys = np.concatenate([
        _sample_in_cube(triple.pos_cube, sample_count - half, rng),
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
        "sample_count": int(sample_count),
        "plateau": [lo_pl, hi_pl],
        **_operator_spec(kernel, trunc),
    }
    return ExperimentReport(name="kernel_difference", value=band_fraction,
                            passed=True, details=details, seed=seed)


# select_delta tries cone widths 2**-j down to j = _MAX_HALVINGS
_MAX_HALVINGS = 10


def select_delta(grid: Grid, kernel: Kernel, trunc: Truncation,
                 base_cube: DyadicCube, v=None, m: int | None = None,
                 sample_count: int = 64, seed: int = 0):
    """Smallest-j search over widths 2**-j until the difference check passes.

    Returns (delta, triple, report) for the first accepted width; raises
    AlignmentError when every width down to 2**-_MAX_HALVINGS fails.
    """
    if v is None:
        v = (1.0,) + (0.0,) * (grid.dimension - 1)
    start = max(1, math.ceil(-math.log2(kernel.delta0)))
    failures = []
    for j in range(start, _MAX_HALVINGS + 1):
        delta = 2.0**-j
        cfg = SectorConfig(v=v, delta=delta, m=m)
        try:
            triple = build_aligned_triple(grid, kernel, cfg, base_cube)
            report = kernel_difference_report(kernel, trunc, triple,
                                              sample_count=sample_count, seed=seed)
        except (AlignmentError, SignDominanceError) as exc:
            failures.append(f"delta=2^-{j}: {exc}")
            continue
        return delta, triple, report
    raise AlignmentError(
        "no cone width down to 2^-%d passes the difference check; attempts: %s"
        % (_MAX_HALVINGS, " | ".join(failures))
    )


def _expansion_check(sigma: MeshMeasure, triple: AlignedTriple, phi: np.ndarray,
                     l2_norm: float) -> dict:
    """Expand the normalized dipole and verify support, count, and synthesis.

    Nonzero coefficients may only sit on the source cube and its descendants
    down to one generation above the dipole cubes; reconstruction from that
    block must reproduce the dipole to 1e-10 in L2(sigma).
    """
    grid = sigma.grid
    m = triple.m
    depth = triple.pos_cube.level
    system = cached_system(sigma, depth)
    unit = np.asarray(phi, dtype=float) / l2_norm
    coeffs = system.expand(unit)
    mean_c = system.mean_coefficient(unit)
    allowed = {triple.source.key()}
    if m >= 2:
        allowed.update(q.key() for q in triple.source.grandchildren(m - 1, cumulative=True))
    labels = system.wavelet_labels()
    nonzero = np.abs(coeffs) > 1e-12
    support_ok = all(labels[i][0] in allowed for i in np.nonzero(nonzero)[0])
    count = int(np.count_nonzero(nonzero))
    n = grid.dimension
    count_bound = (2**n - 1) * sum(2 ** (n * j) for j in range(1, m + 1))
    keep = np.array([lab[0] in allowed for lab in labels])
    recon = system.reconstruct(coeffs * keep, mean_coeff=0.0)
    err = float(np.sqrt(sigma.integrate((recon - unit.reshape(grid.mesh_shape)) ** 2)))
    return {
        "mean_coefficient": float(mean_c),
        "coefficient_count": count,
        "count_bound": int(count_bound),
        "support_ok": bool(support_ok),
        "count_ok": bool(count <= count_bound),
        "reconstruction_error": err,
    }


def _dipole_trial(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel,
                  trunc: Truncation, triple: AlignedTriple) -> tuple:
    """Transform the dipole of a triple and measure the image on the target.

    Returns the image on the target cube (flat), the pairing ratio
    r1 = |<T phi, 1_target>_omega| / (|target|_omega / |target|^(1-lam/n)),
    which is 0 on an omega-null target, whether the image keeps one sign on
    the target, the dipole's PhiReport, and its expansion check.
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
    expansion = _expansion_check(sigma, triple, phi, phi_rep.l2_norm)
    return block, float(r1), sign_ok, phi_rep, expansion


def a2_lower_bound_experiment(sigma: MeshMeasure, omega: MeshMeasure,
                              kernel: Kernel, trunc: Truncation,
                              cfg: SectorConfig | None = None,
                              trials: int = 50, seed: int = 0,
                              floor: float = 0.0,
                              testing_depth: int = 6) -> ExperimentReport:
    """Dipole trials showing the transform pairs against far indicators.

    Each trial builds an aligned configuration, checks that the transform of
    the dipole keeps one sign on the target cube, measures the pairing ratio
    r1 = |<T phi, 1_target>_omega| / (|target|_omega / |target|^(1-lam/n)),
    and verifies the finite expansion identity of the normalized dipole.
    The report couples the size characteristic to global testing through
    the empirical constant value = a2 / testing.
    """
    grid = sigma.grid
    n = grid.dimension
    if cfg is None:
        cfg = SectorConfig(v=(1.0,) + (0.0,) * (n - 1), delta=0.125, m=None)
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
        _, r1, sign_ok, phi_rep, expansion = _dipole_trial(sigma, omega, kernel,
                                                          trunc, triple)
        if omega.cube_mass(triple.target) <= 0.0:
            continue
        trial_rows.append(
            {
                "triple": triple.keys(),
                "r1": r1,
                "sign_constant": sign_ok,
                "phi_norm": phi_rep.l2_norm,
                **expansion,
            }
        )
    min_r1 = min(row["r1"] for row in trial_rows)
    if min_r1 <= floor:
        worst = min(trial_rows, key=lambda row: row["r1"])
        raise SignDominanceError(
            f"pairing ratio {min_r1:.6g} at or below floor {floor}; witness triple "
            f"{worst['triple']}"
        )
    sign_fraction = float(np.mean([row["sign_constant"] for row in trial_rows]))
    max_recon = max(row["reconstruction_error"] for row in trial_rows)
    size_rep = a2_lambda(sigma, omega, kernel.lam, depth=testing_depth)
    test_rep = haar_testing(sigma, omega, kernel, trunc, mode="global",
                            depth=testing_depth)
    coupling = size_rep.value / test_rep.value if test_rep.value > 0 else float("inf")
    passed = (
        sign_fraction == 1.0
        and max_recon < 1e-10
        and all(row["support_ok"] and row["count_ok"] for row in trial_rows)
        and math.isfinite(coupling)
    )
    details = {
        "trials": trial_rows,
        "trial_count": len(trial_rows),
        "min_r1": float(min_r1),
        "floor": float(floor),
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
                            passed=passed, details=details, seed=seed)


# adjacent cube pairs whose cross terms triple_absorption_experiment samples
_CROSS_PAIRS = 16


def triple_absorption_experiment(sigma: MeshMeasure, omega: MeshMeasure,
                                 kernel: Kernel, trunc: Truncation,
                                 depth: int = 5, seed: int = 0) -> ExperimentReport:
    """Absorb tripled-cube testing into global testing plus the size term.

    For every cube L up to depth (1 to max_level: the global Haar testing
    needs wavelets) with sigma-mass, the energy of the normalized indicator
    image over the tripled box is the square of L's cube_testing value in
    "triple" mode at p = 2, read from the cube pyramid (`_PyramidFold`).
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
    _fold_images(kernel, trunc, sigma, depth, fold.add)
    test_rep = haar_testing(sigma, omega, kernel, trunc, depth=depth)
    size_rep = a2_lambda(sigma, omega, kernel.lam, depth=depth)
    h_val, a_val = test_rep.value, size_rep.value
    # each level's values in C order, from level 0 up to depth
    pyramid = [values.ravel() for values in fold.values()]
    energies: dict[str, float] = {}
    c_best = 0.0
    c_witness = ""
    n = grid.dimension
    for level, values in enumerate(pyramid):
        for j in np.flatnonzero(values >= 0.0):
            key = grid.cube(level, np.unravel_index(j, (2**level,) * n)).key()
            energy = float(values[j]) ** 2
            energies[key] = energy
            denom = h_val**2 + a_val * math.sqrt(energy)
            c_here = energy / denom if denom > 0.0 else 0.0
            if c_here > c_best:
                c_best, c_witness = c_here, key
    if not energies:
        raise ValueError("no cube with positive sigma-mass up to the given depth")
    triple_constant = math.sqrt(max(energies.values()))
    c_prime = triple_constant / (h_val + a_val) if h_val + a_val > 0.0 else 0.0
    rng = np.random.default_rng(seed)
    adjacent = []
    for level, values in enumerate(pyramid[1:], start=1):
        live = values.reshape((2**level,) * n) >= 0.0
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
        "scanned_cubes": len(energies),
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


def _grid_cube_of_box(grid: Grid, lo: np.ndarray, side: float) -> DyadicCube | None:
    """The dyadic cube exactly equal to the given box, when one exists."""
    wside = float(grid.window_upper[0] - grid.window_lower[0])
    ratio = wside / side
    level = round(math.log2(ratio)) if ratio > 0 else -1
    if level < 0 or level > grid.max_level:
        return None
    if abs(wside * 2.0**-level - side) > 1e-12 * side:
        return None
    coords = (lo - grid.window_lower) / side
    rounded = np.rint(coords)
    if np.any(np.abs(coords - rounded) > 1e-9) or np.any(rounded < 0) or np.any(rounded >= 2**level):
        return None
    return grid.cube(int(level), tuple(int(t) for t in rounded))


def halo_cover(measure: MeshMeasure, box, epsilon: float, eta: float) -> HaloCover:
    """Greedy maximal-dyadic cover of the eta-shrink of an arbitrary cube.

    Collects maximal dyadic cubes of side at least side/2**t inside the
    shrunken cube, raising t until the mass missed inside the shrink drops
    below epsilon times the full cube's mass. Raises MeshExhaustedError with
    the achieved leftover when the mesh runs out first.
    """
    grid = measure.grid
    if isinstance(box, DyadicCube):
        lo = np.array(box.lower, dtype=float)
        side = box.side
    else:
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
    if eta == 1.0:
        exact = _grid_cube_of_box(grid, lo, side)
        if exact is not None:
            halo_mass = measure.cube_mass(exact)
            return HaloCover(lower=tuple(float(t) for t in lo), side=side,
                             keys=(exact.key(),), eta=eta, epsilon=epsilon,
                             count=1, t=0, leftover=0.0, box_mass=box_mass,
                             halo_mass=halo_mass)
    center = lo + 0.5 * side
    half = 0.5 * eta * side
    lo_e, hi_e = center - half, center + half
    halo_mass = measure.box_mass(lo_e, hi_e)
    wside = float(grid.window_upper[0] - grid.window_lower[0])
    slack = 1e-12 * side
    leftover = halo_mass
    for t in range(1, grid.max_level + 64):
        min_side = side * 2.0**-t
        levels = [
            k for k in range(grid.max_level + 1)
            if min_side <= wside * 2.0**-k <= eta * side + slack
        ]
        covered = np.zeros(grid.mesh_shape, dtype=bool)
        cubes = []
        for k in levels:
            for cube in grid.cubes_at_level(k):
                if not _inside(cube, lo_e, hi_e, slack):
                    continue
                sl = cube.slices()
                if covered[sl].any():
                    continue
                covered[sl] = True
                cubes.append(cube)
        mass = sum(measure.cube_mass(c) for c in cubes)
        leftover = max(halo_mass - mass, 0.0)
        if leftover < epsilon * box_mass:
            keys = tuple(c.key() for c in sorted(cubes, key=lambda q: q.key()))
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


def inner_dyadic_cube(grid: Grid, lower, side: float) -> DyadicCube:
    """Largest dyadic cube inside a box with side at least a quarter of it.

    Among dyadic cubes contained in the box whose side is at least side/4,
    picks one of maximal side nearest to the box center (ties by key).
    """
    lo = np.asarray(lower, dtype=float)
    side = float(side)
    hi = lo + side
    center = lo + 0.5 * side
    wside = float(grid.window_upper[0] - grid.window_lower[0])
    slack = 1e-12 * side
    for k in range(grid.max_level + 1):
        cside = wside * 2.0**-k
        if cside > side + slack:
            continue
        if cside < side / 4.0 - slack:
            break
        best = None
        for cube in grid.cubes_at_level(k):
            if not _inside(cube, lo, hi, slack):
                continue
            rank = (float(np.linalg.norm(cube.center - center)), cube.key())
            if best is None or rank < best[0]:
                best = (rank, cube)
        if best is not None:
            return best[1]
    raise MeshExhaustedError(
        f"no dyadic cube with side in [{side / 4.0:.6g}, {side:.6g}] fits inside the box"
    )


@dataclass(frozen=True)
class MatrixCounterexampleConfig:
    """Slow-decay triangular matrix a[m, n] = n**-gamma for n >= m."""

    gamma: float
    ladder_exponents: tuple = tuple(range(10, 21))
    partial_terms: int = 100000

    def __post_init__(self):
        if not 0.5 < self.gamma <= 0.75:
            raise ValueError(f"gamma must lie in (1/2, 3/4], got {self.gamma}")
        exps = tuple(int(e) for e in self.ladder_exponents)
        if len(exps) < 2 or any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("ladder exponents must be strictly increasing, length >= 2")
        if exps[0] < 1:
            raise ValueError("ladder exponents must be positive")
        object.__setattr__(self, "ladder_exponents", exps)
        if self.partial_terms < 1000:
            raise ValueError("partial_terms must be at least 1000")


def _zeta_tail(n0: int, s: float) -> float:
    """Euler-Maclaurin tail sum_{n > n0} n**-s for s > 1."""
    return n0 ** (1.0 - s) / (s - 1.0) - 0.5 * n0**-s + (s / 12.0) * n0 ** (-s - 1.0)


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
    n0 = cfg.partial_terms
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


def _family_draw(grid: Grid, family, rng: np.random.Generator):
    """One (sigma, omega, kind) draw from a named or callable family."""
    if callable(family):
        sigma, omega = family(grid, rng)
        return sigma, omega, "callable"
    if family == "doubling":
        pair = [
            random_dyadic_doubling(grid, 2.0, seed=int(rng.integers(2**31)))
            for _ in range(2)
        ]
        return pair[0], pair[1], "doubling"
    if family == "point":
        pair = []
        for _ in range(2):
            sharp = float(rng.uniform(2.0, 8.0))
            cell = tuple(int(t) for t in rng.integers(0, grid.cells_per_axis,
                                                      size=grid.dimension))
            pair.append(near_point_mass(grid, sharp, cell))
        return pair[0], pair[1], "point"
    if family == "lognormal":
        pair = [
            custom_cells(grid, np.exp(rng.normal(0.0, 1.5, size=grid.mesh_shape)),
                         label="lognormal")
            for _ in range(2)
        ]
        return pair[0], pair[1], "lognormal"
    if family == "mixed":
        pick = ("doubling", "point", "lognormal")[int(rng.integers(0, 3))]
        sigma, omega, _ = _family_draw(grid, pick, rng)
        return sigma, omega, pick
    raise ValueError(f"unknown measure family {family!r}")


def _pair_hash(sigma: MeshMeasure, omega: MeshMeasure) -> str:
    payload = np.concatenate([
        np.round(sigma.cell_mass, 12).ravel(),
        np.round(omega.cell_mass, 12).ravel(),
    ])
    return hashlib.sha256(payload.tobytes()).hexdigest()[:16]


def counterexample_search(grid: Grid, kernel: Kernel, trunc: Truncation,
                          measure_family="mixed", iterations: int = 40,
                          seed: int = 0, depth: int = 4,
                          top: int = 8) -> ExperimentReport:
    """Randomized plus greedy-mutation search for extreme norm-to-testing ratios.

    Maximizes norm / (testing + dual testing) at fixed depth over measure
    pairs from the family, mutating the best pair's cell masses in the second
    phase. Emits a leaderboard ordered by (ratio, hash); a large ratio is
    evidence of degradation, never a disproof of boundedness.
    """
    if iterations < 2:
        raise ValueError("need at least 2 iterations")
    rng = np.random.default_rng(seed)
    dbl_depth = min(depth, grid.max_level - 1)

    def evaluate(sigma: MeshMeasure, omega: MeshMeasure, kind: str) -> dict:
        reports = pair_bundle(sigma, omega, kernel, trunc, depth)
        norm, test, dual = (reports[name].value for name in
                            ("operator_norm", "haar_testing", "dual_haar_testing"))
        denom = test + dual
        ratio = norm / denom if denom > 0.0 else 0.0
        return {
            "ratio": float(ratio),
            "norm": float(norm),
            "testing": float(test),
            "dual_testing": float(dual),
            "doubling_sigma": doubling_constant(sigma, dbl_depth).constant,
            "doubling_omega": doubling_constant(omega, dbl_depth).constant,
            "kind": kind,
            "hash": _pair_hash(sigma, omega),
        }

    entries = []
    explore = max(1, iterations // 2)
    best_cells = None
    best_ratio = -1.0
    for it in range(iterations):
        if it < explore or best_cells is None:
            sigma, omega, kind = _family_draw(grid, measure_family, rng)
        else:
            s_cells, w_cells = (np.array(c, dtype=float) for c in best_cells)
            target = s_cells if rng.integers(0, 2) == 0 else w_cells
            hits = rng.integers(0, target.size, size=max(1, target.size // 64))
            flat = target.ravel()
            flat[np.asarray(hits)] *= np.exp(rng.normal(0.0, 0.7, size=len(hits)))
            sigma = custom_cells(grid, s_cells, label="mutated")
            omega = custom_cells(grid, w_cells, label="mutated")
            kind = "mutation"
        row = evaluate(sigma, omega, kind)
        entries.append(row)
        if row["ratio"] > best_ratio:
            best_ratio = row["ratio"]
            best_cells = (sigma.cell_mass.copy(), omega.cell_mass.copy())
    entries.sort(key=lambda row: (-row["ratio"], row["hash"]))
    leaderboard = entries[:top]
    ratios = [row["ratio"] for row in entries]
    details = {
        "leaderboard": leaderboard,
        "iterations": iterations,
        "depth": depth,
        "family": measure_family if isinstance(measure_family, str) else "callable",
        "ratio_band": [float(min(ratios)), float(max(ratios))],
        "note": "heuristic search; a large ratio is evidence, not a disproof",
        **_operator_spec(kernel, trunc),
    }
    return ExperimentReport(name="counterexample_search", value=float(best_ratio),
                            passed=True, details=details, seed=seed)


def quadratic_ap_experiment(sigma: MeshMeasure, omega: MeshMeasure,
                            kernel: Kernel, trunc: Truncation, p: float = 2.0,
                            families: int = 4, seed: int = 0,
                            delta: float = 0.125,
                            control_depth: int = 6) -> ExperimentReport:
    """Dipole families driving the vector-valued size-to-testing control.

    Builds families of disjoint aligned configurations sharing one axis,
    verifies per member that the transform of the dipole dominates
    |target|^(lam/n - 1) pointwise on the target cube with one sign,
    checks the finite expansion identity, records how the squared dipole
    norm tracks 1 / |target|_sigma, and reports the empirical constant
    coupling the offset size characteristic to vector-valued testing.
    """
    grid = sigma.grid
    n = grid.dimension
    if delta > kernel.delta0:
        raise AlignmentError(
            f"cone width delta={delta} exceeds kernel delta0={kernel.delta0:.6g}"
        )
    if families < 1:
        raise ValueError("need at least one family")
    rng = np.random.default_rng(seed)
    offset = math.ceil(1.0 / delta)
    level_min = math.ceil(math.log2(offset + 2.0))
    level_max = grid.max_level - 3
    if level_min > level_max:
        raise AlignmentError("window too small for dipole families at this cone width")
    rows = []
    norm_ratios = []
    pointwise_cs = []
    for fam in range(families):
        level = int(rng.integers(level_min, level_max + 1))
        cells = 2**level
        axis = 0
        sign = 1 if rng.integers(0, 2) == 0 else -1
        v = tuple(float(sign) if ax == axis else 0.0 for ax in range(n))
        stride = offset + 2
        usable = cells - offset
        count = min(4, max(1, usable // stride))
        start_max = usable - (count - 1) * stride
        start = int(rng.integers(0, max(1, start_max)))
        members = []
        for i in range(count):
            base_axis = start + i * stride
            base_axis = base_axis if sign > 0 else cells - 1 - base_axis
            target_axis = base_axis + sign * offset
            if not (0 <= target_axis < cells and 0 <= base_axis < cells):
                continue
            other = tuple(int(t) for t in rng.integers(0, cells, size=n - 1))
            base_coords = (base_axis,) + other
            target_coords = (target_axis,) + other
            base = grid.cube(level, base_coords)
            base = inner_dyadic_cube(grid, base.lower, base.side)
            target = grid.cube(level, target_coords)
            cfg = SectorConfig(v=v, delta=delta, m=None)
            triple = build_aligned_triple(grid, kernel, cfg, base, target_cube=target)
            block, r1, sign_ok, phi_rep, expansion = _dipole_trial(
                sigma, omega, kernel, trunc, triple)
            floor_dom = target.volume ** (kernel.lam / n - 1.0)
            min_abs = float(np.min(np.abs(block)))
            pointwise_c = floor_dom / min_abs if min_abs > 0.0 else float("inf")
            sigma_target = sigma.cube_mass(target)
            norm_ratio = (
                phi_rep.l2_norm**2 * sigma_target if sigma_target > 0.0 else float("nan")
            )
            members.append(
                {
                    "triple": triple.keys(),
                    "sign_constant": sign_ok,
                    "pointwise_c": pointwise_c,
                    "r1": r1,
                    "norm_ratio": float(norm_ratio),
                    **expansion,
                }
            )
            pointwise_cs.append(pointwise_c)
            if math.isfinite(norm_ratio):
                norm_ratios.append(norm_ratio)
        if not members:
            raise AlignmentError(f"family {fam} is empty at level {level}")
        rows.append({"level": level, "v": list(v), "members": members})
    size_rep = quadratic_offset_ap(sigma, omega, kernel.lam, p=p,
                                   depth=control_depth, seed=seed)
    test_rep = quadratic_haar_testing(sigma, omega, kernel, trunc, p=p,
                                      depth=control_depth, seed=seed)
    control = size_rep.value / test_rep.value if test_rep.value > 0 else float("inf")
    all_members = [mem for row in rows for mem in row["members"]]
    passed = (
        all(mem["sign_constant"] for mem in all_members)
        and all(math.isfinite(mem["pointwise_c"]) for mem in all_members)
        and all(mem["reconstruction_error"] < 1e-10 for mem in all_members)
        and all(mem["support_ok"] and mem["count_ok"] for mem in all_members)
        and math.isfinite(control)
    )
    details = {
        "families": rows,
        "member_count": len(all_members),
        "pointwise_c_max": max(pointwise_cs) if pointwise_cs else float("nan"),
        "norm_ratio_band": [min(norm_ratios), max(norm_ratios)] if norm_ratios else [],
        "quadratic_offset_ap": size_rep.value,
        "quadratic_haar_testing": test_rep.value,
        "p": p,
        "delta": delta,
        "control_depth": control_depth,
        **_operator_spec(kernel, trunc),
    }
    return ExperimentReport(name="quadratic_ap", value=float(control),
                            passed=passed, details=details, seed=seed)
