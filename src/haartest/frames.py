"""Frame-style two-sided bounds for Haar coefficient maps.

Empirical frame bounds in L2(mu), block square-function bounds in Lp(mu),
and a Banach-frame check of the coefficient map, its sequence norm and
synthesis. Bounds are sampled, never certified: each report records the
sample count, the seed, and the extreme witnesses.

Every check streams its samples through one row-block loop (`_row_blocks`):
the probes are the first rows, then the random rows are drawn from the
check's generator a block at a time, _SAMPLE_BLOCK_ENTRIES entries per
block. A block is analysed (`_analyse`), and synthesised where the check
needs it, by the system's level-by-level transform (`HaarSystem.analyse`,
`synthesise` and `level_components`, so no dense wavelet matrix is formed),
and only per-sample scalars outlive it: energies, norms, the constant mask,
ratios and round-trip gaps. So a check holds a few blocks, never a whole
(samples, cells) or (samples, wavelets) matrix. Consecutive draws from one
generator give the numbers of one draw, and every row is computed as it is
alone, so the reports do not depend on the block size. The block square
functions are summed level by level (`_sequence_norms`), not cube by cube.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .characteristics import JsonReport
from .dyadic import refine
from .experiments import ExperimentReport
from .haar import HaarSystem, cached_system
from .measure import DegenerateMeasureError, MeshMeasure, level_masses

__all__ = [
    "FrameBoundsReport",
    "hilbert_frame_bounds",
    "lp_square_function_bounds",
    "banach_frame_check",
]

# relative centered Lp norm at or below which a function counts as constant
_CONSTANT_TOL = 1e-12

# elements stacked at a time by hilbert_frame_bounds on a list family: a
# block is 8 MB at 2-D L=6, instead of a copy of the whole family
_ELEMENT_BLOCK = 256

# sample entries per row block of `_row_blocks`: 16 rows at 4,096 cells, 64
# at 1,024. On a 2-core Xeon with OpenBLAS 0.3.31, the frames op on 2-D L=6
# (depth 5, p = 3) peaked at 39.5, 43.7 and 60.9 MB RSS for 2**14, 2**16 and
# 2**18 (65.0 MB holding whole sample matrices); its three checks took 61,
# 46 and 60 ms, and on 1-D L=12 at depth 8 73, 40 and 34 ms
_SAMPLE_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class FrameBoundsReport(JsonReport):
    """Empirical two-sided bound: lower <= energy ratio <= upper.

    A strictly positive lower bound is evidence of the frame property on the
    sampled directions; lower == 0 certifies a direction outside the span
    (carried by the witness). Bounds are over the recorded sample count only.
    """

    lower: float
    upper: float
    sample_count: int
    p: float
    lower_witness: dict
    upper_witness: dict
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("frame bounds must be finite")
        if self.lower < 0.0 or self.lower > self.upper:
            raise ValueError(
                f"need 0 <= lower <= upper, got ({self.lower}, {self.upper})"
            )
        if self.upper <= 0.0:
            raise ValueError("upper frame bound must be positive")


def _ratio_report(ratios: np.ndarray, labels: list, sample_count: int, p: float,
                  seed: int | None, details: dict) -> FrameBoundsReport:
    i_lo = int(np.argmin(ratios))
    i_hi = int(np.argmax(ratios))
    return FrameBoundsReport(
        lower=float(ratios[i_lo]),
        upper=float(ratios[i_hi]),
        sample_count=sample_count,
        p=p,
        lower_witness={"sample": labels[i_lo], "ratio": float(ratios[i_lo])},
        upper_witness={"sample": labels[i_hi], "ratio": float(ratios[i_hi])},
        seed=seed,
        details=details,
    )


def _row_blocks(count: int, draw, n_cells: int, probes=()):
    """Yield the row blocks of a sample set: the probes (mesh functions)
    first, then `count` rows of draw(k), which draws the next k rows.

    A block holds _SAMPLE_BLOCK_ENTRIES // n_cells rows, at least one,
    fewer in the last block.
    """
    step = max(1, _SAMPLE_BLOCK_ENTRIES // n_cells)
    total = len(probes) + count
    for first in range(0, total, step):
        stop = min(first + step, total)
        parts = [np.asarray(q, dtype=float).reshape(1, n_cells)
                 for q in probes[first:stop]]
        if stop > len(probes):
            parts.append(draw(stop - max(first, len(probes))))
        yield parts[0] if len(parts) == 1 else np.concatenate(parts)


def _labels(probe_count: int, sample_count: int) -> list:
    """Witness label of every row of `_row_blocks`: the probes, then the
    random samples."""
    return ([{"kind": "probe", "index": i} for i in range(probe_count)]
            + [{"kind": "random", "index": i} for i in range(sample_count)])


def _element_energies(elements: list, mu: MeshMeasure, xs: np.ndarray) -> np.ndarray:
    """sum_j |<x, f_j>_mu|^2 of every row x of xs, for a list of mesh
    functions f_j: the elements are stacked _ELEMENT_BLOCK at a time, and
    each sample is paired alone with a stack, so its energy does not depend
    on the other samples."""
    weighted = xs * mu.flat_mass
    num = np.zeros(len(xs))
    for start in range(0, len(elements), _ELEMENT_BLOCK):
        rows = np.stack([np.asarray(e, dtype=float).ravel()
                         for e in elements[start:start + _ELEMENT_BLOCK]])
        squares = np.stack([(rows @ x) ** 2 for x in weighted], axis=1)
        # the running sum leads the block, and a cumulative sum adds in
        # element order for any number of samples
        num = np.concatenate([num[None], squares]).cumsum(axis=0)[-1]
    return num


def _system_energies(system: HaarSystem, xs: np.ndarray) -> np.ndarray:
    """sum_h |<x, h>_mu|^2 + |<x, 1/sqrt(|mu|)>_mu|^2 of every row x of xs:
    the system's wavelets plus the normalized constant, by the transform."""
    mu = system.measure
    means = (xs * mu.flat_mass).sum(axis=1) / np.sqrt(mu.total_mass)
    return (system.analyse(xs) ** 2).sum(axis=1) + means**2


def hilbert_frame_bounds(family, mu: MeshMeasure, sample_count: int = 64,
                         seed: int = 0, probes: list | None = None) -> FrameBoundsReport:
    """Sampled L2(mu) frame bounds of a finite family.

    The family is a list of mesh functions, or a HaarSystem on mu, which
    stands for its wavelets plus the normalized constant 1/sqrt(|mu|) and is
    analysed by its transform. Ratios sum |<x, f_j>_mu|^2 / ||x||_mu^2 over
    random mesh functions x, plus any supplied probe functions (labeled in
    the witnesses). A complete orthonormal family gives lower = upper = 1.
    """
    if mu.total_mass <= 0.0:
        raise DegenerateMeasureError("measure carries no mass")
    is_system = isinstance(family, HaarSystem)
    if is_system:
        if family.measure.grid != mu.grid or not np.array_equal(
                family.measure.cell_mass, mu.cell_mass):
            raise ValueError("the Haar system must be built on the measure mu")
        element_count = family.n_wavelets + 1
    elif not family:
        raise ValueError("need at least one element")
    else:
        element_count = len(family)
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    n_cells = mu.grid.n_cells
    if not is_system and any(np.size(e) != n_cells for e in family):
        raise ValueError("elements must be mesh functions on the measure's grid")
    probes = probes or []
    rng = np.random.default_rng(seed)
    num, den = [], []
    for xs in _row_blocks(sample_count, lambda k: rng.standard_normal((k, n_cells)),
                          n_cells, probes):
        num.append(_system_energies(family, xs) if is_system
                   else _element_energies(family, mu, xs))
        den.append((xs**2 * mu.flat_mass).sum(axis=1))
    num, den = np.concatenate(num), np.concatenate(den)
    keep = den > 0.0
    if not np.any(keep):
        raise DegenerateMeasureError("every sample has zero norm under the measure")
    ratios = num[keep] / den[keep]
    labels = [lab for lab, k in zip(_labels(len(probes), sample_count), keep) if k]
    details = {"element_count": element_count, "probe_count": len(probes)}
    return _ratio_report(ratios, labels, sample_count, p=2.0, seed=seed,
                         details=details)


def _sequence_norms(system: HaarSystem, coeffs: np.ndarray, p: float) -> np.ndarray:
    """Lp(mu) norms of the block square functions (sum over cubes Q of
    |D_Q f|^2)^(1/2) of the coefficient rows `coeffs` (k, n_wavelets), D_Q f
    being the row's wavelet component on Q.

    The wavelets of the cubes of one level have disjoint supports, so at each
    cell at most one D_Q f of that level is nonzero, and the sum over the
    level of |D_Q f|^2 equals the square of the level's component
    (`HaarSystem.level_components`) exactly. The squares are summed coarse
    to fine on the level-`depth` cubes, on which the sum is constant.
    """
    mu = system.measure
    n = mu.grid.dimension
    square = np.zeros((coeffs.shape[0],) + (1,) * n)
    for component in system.level_components(coeffs):
        square = refine(square, n, 2) + component**2
    masses = level_masses(mu, system.depth).ravel()
    return _lp_norms(np.sqrt(square.reshape(len(square), -1)), masses, p)


def _lp_norms(funcs: np.ndarray, masses: np.ndarray, p: float) -> np.ndarray:
    """Lp norms of the rows of funcs (k, cells) for the cell masses `masses`."""
    return (np.abs(funcs) ** p * masses).sum(axis=1) ** (1.0 / p)


def _analyse(system: HaarSystem, funcs: np.ndarray, p: float) -> tuple:
    """(coeffs, means, norms, keep, ratios) of the rows of funcs (k, n_cells),
    one block of `_row_blocks`: the Haar coefficients, the mu-averages, the
    sequence norms, the mask of the rows not constant under mu, and those
    rows' ratios of sequence norm to centered Lp norm.

    A row is constant when its centered norm is at most _CONSTANT_TOL times
    its own Lp norm: centering a constant leaves rounding noise, not 0.
    """
    mu = system.measure
    coeffs = system.analyse(funcs)
    means = (funcs * mu.flat_mass).sum(axis=1) / mu.total_mass
    norms = _sequence_norms(system, coeffs, p)
    centered = _lp_norms(funcs - means[:, None], mu.flat_mass, p)
    keep = centered > _CONSTANT_TOL * _lp_norms(funcs, mu.flat_mass, p)
    return coeffs, means, norms, keep, norms[keep] / centered[keep]


def _resolved_samples(grid, depth: int, sample_count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Random mesh functions constant on the level-depth cubes, one per row
    of a (sample_count, n_cells) array: the next rows of `_row_blocks`."""
    coarse = rng.standard_normal((sample_count,) + (2**depth,) * grid.dimension)
    return refine(coarse, grid.dimension, 2 ** (grid.max_level - depth)).reshape(
        sample_count, grid.n_cells)


def _check_square_inputs(mu: MeshMeasure, p: float, depth: int) -> None:
    if not 1.0 < p < float("inf"):
        raise ValueError(f"p must lie in (1, inf), got {p}")
    if not 1 <= depth <= mu.grid.max_level:
        raise ValueError(f"depth must be in [1, {mu.grid.max_level}], got {depth}")
    if mu.total_mass <= 0.0:
        raise DegenerateMeasureError("measure carries no mass")


def _square_function_ratios(mu: MeshMeasure, p: float, depth: int, sample_count: int,
                            seed: int, probes: list | None) -> tuple:
    """(ratios, labels) of the non-constant rows among the probes and
    sample_count random functions resolved at `depth`, drawn from
    default_rng(seed)."""
    system = cached_system(mu, depth)
    rng = np.random.default_rng(seed)
    probes = probes or []
    keep, ratios = [], []
    for funcs in _row_blocks(
            sample_count, lambda k: _resolved_samples(mu.grid, depth, k, rng),
            mu.grid.n_cells, probes):
        _, _, _, kept, ratio = _analyse(system, funcs, p)
        keep.append(kept)
        ratios.append(ratio)
    if not any(r.size for r in ratios):
        raise DegenerateMeasureError("every sample is constant under the measure")
    labels = _labels(len(probes), sample_count)
    return np.concatenate(ratios), [lab for lab, k in zip(labels, np.concatenate(keep)) if k]


def lp_square_function_bounds(mu: MeshMeasure, p: float, depth: int,
                              sample_count: int = 64, seed: int = 0,
                              probes: list | None = None) -> FrameBoundsReport:
    """Block square function against the centered Lp norm, sampled.

    Ratios ||(sum_Q |D_Q f|^2)^(1/2)||_p / ||f - average||_p over random
    functions resolved at the system depth; D_Q is the per-cube wavelet
    component. Functions constant under mu (up to rounding) are skipped.
    At p = 2 every ratio is 1 up to rounding, so both bounds are 1 and the
    witnesses name an arbitrary sample. Details carry the same band one
    level deeper as a stability check.
    """
    _check_square_inputs(mu, p, depth)
    ratios, labels = _square_function_ratios(mu, p, depth, sample_count, seed, probes)
    details: dict = {"depth": depth}
    if depth + 1 <= mu.grid.max_level:
        d_ratios, _ = _square_function_ratios(mu, p, depth + 1, sample_count, seed,
                                              probes)
        lo, hi = float(ratios.min()), float(ratios.max())
        dlo, dhi = float(d_ratios.min()), float(d_ratios.max())
        details["neighbor_depth"] = depth + 1
        details["neighbor_band"] = [dlo, dhi]
        details["band_drift"] = max(abs(dlo - lo) / lo, abs(dhi - hi) / hi)
    return _ratio_report(ratios, labels, sample_count, p=p, seed=seed,
                         details=details)


def banach_frame_check(mu: MeshMeasure, p: float, depth: int,
                       sample_count: int = 32, seed: int = 0) -> ExperimentReport:
    """Exercise the four frame-triple properties on sampled functions.

    The samples' analysis, a block at a time, gives their coefficients,
    their sequence norm (the Lp norm of the block square function), the
    centered Lp norm and the synthesis round trip. (1) Every sequence norm is finite;
    (2) every sampled ratio of sequence norm to centered Lp norm is finite
    and the band [min, max] of those ratios, reported in details, has a
    positive lower end (the lower square-function bound); (3) synthesis is
    bounded on random sparse coefficient sequences, with the empirical bound
    recorded; (4) synthesis of the coefficients of f returns f to 1e-10 on
    positive-mass cells. The band is the one lp_square_function_bounds
    reports at the same seed and sample count.
    """
    _check_square_inputs(mu, p, depth)
    rng = np.random.default_rng(seed)
    system = cached_system(mu, depth)
    positive = mu.flat_mass > 0.0
    finite, gaps, ratios = [], [], []
    for samples in _row_blocks(
            sample_count, lambda k: _resolved_samples(mu.grid, depth, k, rng),
            mu.grid.n_cells):
        coeffs, means, norms, _, ratio = _analyse(system, samples, p)
        back = system.synthesise(coeffs) + means[:, None]
        finite.append(np.isfinite(norms))
        gaps.append(np.abs(back - samples)[:, positive].max(axis=1))
        ratios.append(ratio)
    if not any(r.size for r in ratios):
        raise DegenerateMeasureError("every sample is constant under the measure")
    finite, gaps, ratios = (np.concatenate(a) for a in (finite, gaps, ratios))
    failures = []
    for i, gap in enumerate(gaps):
        if not finite[i]:
            failures.append({"property": 1, "sample": i})
        if gap > 1e-10:
            failures.append({"property": 4, "sample": i, "gap": float(gap)})
    finite_ok = bool(finite.all())
    worst_roundtrip = float(gaps.max())
    band = [float(ratios.min()), float(ratios.max())]
    band_ok = bool(np.all(np.isfinite(ratios)) and band[0] > 0.0)
    if not band_ok:
        failures.append({"property": 2, "band": band})
    n_wavelets = system.n_wavelets
    sparse_trials = max(8, sample_count // 2)
    k = max(1, n_wavelets // 8)

    def draw_sparse(count: int) -> np.ndarray:
        sparse = np.zeros((count, n_wavelets))
        for row in sparse:
            idx = rng.choice(n_wavelets, size=min(k, n_wavelets), replace=False)
            row[idx] = rng.standard_normal(idx.size)
        return sparse

    # the sparse draws follow every sample block's, as one draw of each would
    synth_bound = 0.0
    for sparse in _row_blocks(sparse_trials, draw_sparse, mu.grid.n_cells):
        sparse_norms = _sequence_norms(system, sparse, p)
        nonzero = sparse_norms != 0.0
        synth = (_lp_norms(system.synthesise(sparse[nonzero]), mu.flat_mass, p)
                 / sparse_norms[nonzero])
        synth_bound = float(np.maximum(synth_bound, synth.max(initial=0.0)))
    synth_ok = bool(np.isfinite(synth_bound) and synth_bound > 0.0)
    if not synth_ok:
        failures.append({"property": 3, "bound": synth_bound})
    roundtrip_ok = worst_roundtrip <= 1e-10
    passed = finite_ok and band_ok and synth_ok and roundtrip_ok
    details = {
        "band": band,
        "finite_coefficients": finite_ok,
        "band_consistent": band_ok,
        "synthesis_bound": synth_bound,
        "synthesis_trials": sparse_trials,
        "roundtrip_max_gap": worst_roundtrip,
        "roundtrip_ok": roundtrip_ok,
        "failures": failures,
        "p": p,
        "depth": depth,
        "sample_count": sample_count,
    }
    return ExperimentReport(name="banach_frame", value=float(synth_bound),
                            passed=passed, details=details, seed=seed)
