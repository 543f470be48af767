"""Size, testing, and operator-norm characteristics for measure pairs.

Every supremum here is a finite search over a declared family: the cubes
of the fixed dyadic grid down to a depth, and sampled coefficient
families. Reports carry the search metadata next to the value so separate
runs stay comparable, and every witness can be re-evaluated independently:
each family computes a candidate's value with one function, which both its
scan and its witness evaluator call. One table (`_REGISTRY`) gives each
report name its evaluator, the order of its measures and, where its scan
reads operator images, the function that makes its fold.

Scans run on level arrays, not cube by cube. The operator scans are
folds over `operators.image_blocks`, the images of the dyadic cubes of
every level a block of output cells at a time, and fold each block into
per-cube sums before the next is made: the cube pyramid's power sums
(`_PyramidFold`), and, over one grouping of each level's cubes by wavelet
count (`_cube_groups`), sums over the cube's children's images. A Haar
wavelet is constant on its cube's children, so its image is the same
combination of theirs: the children's Grams give every cube's exact L2
optimum (`_GramFold`), the Lp sums of the candidate combinations are
taken in child space (`_lp_sums`, `_lp_ratios`), and so are the square
sums of the quadratic families' member images (`_haar_family_values`).
The members of a quadratic family are disjoint cubes, so the rest of its
value is a closed form over level arrays, with no mesh function per
family: the Lp(sigma) norm of the members' square sum is a sum over each
member's children, and a pair family's two norms are sums over its cubes
and its distinct partners of their level masses (`_pair_values`). The
images of single witnesses come from `operators.apply`. The operator
norm reads no images: it is the norm of T_sigma from L2(sigma) to
L2(omega) on the mesh, by Lanczos steps on the normal operator, each one
matrix-free product with the kernel and one with its adjoint
(`_mesh_norm`). Each fold builds its report with report(kernel, trunc),
and `pair_bundle(names)` makes the folds of the names given and runs one
pass of sigma's images and one of omega's, the kernel transposed, for the
dual reports; the Haar testings and their Lp forms, standalone or
bundled, all take it, so a pair's side is read once however many of them
are asked for. The pair scans take a block of cubes' partners at once: an
offset stencil, or the finer levels' cubes grouped by cube. One witness
rule serves every scan (`_first_max`): the first largest candidate in scan
order, that is levels coarse to fine, cubes in C order and each cube's
candidates in order; a family search takes its families' tries in order,
and its first largest try is the witness when it is strictly above the
best single cube or pair.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from types import SimpleNamespace

import numpy as np

from .dyadic import DyadicCube, Grid, _first_max, cube_keys, group_by_cube
from .haar import HaarLevel, HaarSystem, cached_system, normalize_sign
from .measure import MeshMeasure, level_masses
from .operators import (
    _IMAGE_BLOCK_ENTRIES,
    HaarMatrix,
    Kernel,
    Truncation,
    _fft_operator,
    _fold_images,
    apply,
    assemble_haar_matrix,
    make_kernel,
    require_resolved,
)

__all__ = [
    "CharacteristicReport",
    "LpConfig",
    "level_masses",
    "a2_lambda",
    "ap_lambda",
    "haar_testing",
    "haar_testing_dual",
    "lp_haar_testing",
    "lp_haar_testing_dual",
    "cube_testing",
    "operator_norm",
    "pair_bundle",
    "matched_haar_testing",
    "quadratic_offset_ap",
    "quadratic_subcube_ap",
    "quadratic_haar_testing",
    "reevaluate",
]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    # bool is a subclass of int, so it must be matched first
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


class JsonReport:
    """Base of the report dataclasses: their fields, as plain JSON types."""

    def as_dict(self) -> dict:
        return _jsonable(asdict(self))


@dataclass
class CharacteristicReport(JsonReport):
    """A named constant together with the configuration that attained it."""

    name: str
    value: float
    witness: dict
    search_space: dict
    seed: int | None = None

    def __post_init__(self):
        if not self.value >= 0.0:
            raise ValueError(f"characteristic value must be >= 0, got {self.value}")


@dataclass(frozen=True)
class LpConfig:
    """Exponent pair (p, p') with 1/p + 1/p' = 1."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not (1.0 < p < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {p}")
        object.__setattr__(self, "p", p)

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)


# -- shared helpers ---------------------------------------------------------

def _check_pair(sigma: MeshMeasure, omega: MeshMeasure) -> Grid:
    if sigma.grid != omega.grid:
        raise ValueError("sigma and omega must share a grid")
    return sigma.grid


def _operator_spec(kernel: Kernel, trunc: Truncation) -> dict:
    """The kernel and trunc entries of a search space, as `_kernel_and_trunc`
    reads them back."""
    return {
        "kernel": {"family": kernel.family, "lambda": kernel.lam,
                   "dimension": kernel.dimension, "direction": list(kernel.direction),
                   "sign": kernel.sign},
        "trunc": {"eps": trunc.eps, "rmax": trunc.rmax},
    }


def _kernel_and_trunc(space: dict) -> tuple:
    """Rebuild the kernel and truncation recorded in a report's search space."""
    spec = space["kernel"]
    k = make_kernel(spec["family"], spec["lambda"], spec["dimension"],
                    direction=tuple(spec["direction"]))
    if spec.get("sign", 1.0) != k.sign:
        k = replace(k, sign=float(spec["sign"]))
    trunc = Truncation(eps=float(space["trunc"]["eps"]),
                       rmax=float(space["trunc"]["rmax"]))
    return k, trunc


def _lp_norm(weights: np.ndarray, values: np.ndarray, p: float) -> float:
    """(sum_i weights_i |values_i|^p)^(1/p)."""
    return float(np.sum(weights * np.abs(values) ** p)) ** (1.0 / p)


def _restriction_weights(grid: Grid, wflat: np.ndarray, mode: str,
                         cube: DyadicCube) -> np.ndarray:
    """omega's cell masses on the output region a mode assigns to a cube.

    mode "global" keeps every cell, "local" the cube itself and "triple"
    its concentric triple, clipped to the window.
    """
    if mode == "global":
        return wflat
    if mode == "local":
        return wflat * cube.indicator().ravel()
    frac, _ = grid.box_fractions(*cube.triple_box())
    return wflat * frac.ravel()


# -- Muckenhoupt characteristics --------------------------------------------

def _size_setup(sigma: MeshMeasure, omega: MeshMeasure, lam: float,
                depth: int | None, min_depth: int = 0) -> tuple:
    """Checks shared by the size scans: (grid, 1 - lam/n, resolved depth)."""
    grid = _check_pair(sigma, omega)
    n = grid.dimension
    if not 0.0 <= lam < n:
        raise ValueError(f"lam must satisfy 0 <= lam < {n}, got {lam}")
    depth = grid.max_level if depth is None else int(depth)
    if not min_depth <= depth <= grid.max_level:
        raise ValueError(f"depth outside [{min_depth}, {grid.max_level}]")
    return grid, 1.0 - lam / n, depth


def _size_value(smass, wmass, volume, s_expo: float, w_expo: float,
                vol_expo: float):
    """|Q|_sigma^s_expo |Q|_omega^w_expo / |Q|^vol_expo, elementwise on arrays."""
    return smass ** s_expo * wmass ** w_expo / volume ** vol_expo


def _muckenhoupt_scan(name: str, sigma: MeshMeasure, omega: MeshMeasure,
                      lam: float, s_expo: float, w_expo: float,
                      depth: int | None) -> CharacteristicReport:
    grid, e, depth = _size_setup(sigma, omega, lam, depth)
    # (sigma mass, omega mass, volume) of each level's cubes
    levels = [(level_masses(sigma, level), level_masses(omega, level),
               (grid.side / 2 ** level) ** grid.dimension) for level in range(depth + 1)]
    best, level, index = _first_max([_size_value(*masses, s_expo, w_expo, e)
                                      for masses in levels])
    masses = (levels[level][0][index], levels[level][1][index], levels[level][2])
    witness = {"cube": grid.cube(level, index).key(),
               **dict(zip(("sigma_mass", "omega_mass", "volume"), map(float, masses))),
               "lambda": lam}
    search_space = {
        "depth": depth,
        "dyadic_cubes": sum(sm.size for sm, _, _ in levels),
        "sigma_exponent": s_expo,
        "omega_exponent": w_expo,
    }
    return CharacteristicReport(name, max(best, 0.0), witness, search_space)


def a2_lambda(sigma: MeshMeasure, omega: MeshMeasure, lam: float,
              depth: int | None = None) -> CharacteristicReport:
    """Two-measure size characteristic in square-root form.

    Scans sup over cubes of sqrt of (|Q|_sigma / |Q|^{1-lam/n}) times
    (|Q|_omega / |Q|^{1-lam/n}); the squared value is also recorded.
    """
    rep = _muckenhoupt_scan("a2_lambda", sigma, omega, lam, 0.5, 0.5, depth)
    rep.witness["sqrt_value"] = rep.value
    rep.witness["squared_value"] = rep.value ** 2
    rep.search_space["convention"] = "square-root form; squared value in witness"
    return rep


def ap_lambda(sigma: MeshMeasure, omega: MeshMeasure, lam: float, p: float = 2.0,
              depth: int | None = None) -> CharacteristicReport:
    """Product-form size characteristic |Q|_w^{1/p} |Q|_s^{1/p'} / |Q|^{1-lam/n}.

    At p = 2 this coincides with the square-root form of a2_lambda.
    """
    cfg = LpConfig(p)
    rep = _muckenhoupt_scan("ap_lambda", sigma, omega, lam,
                            1.0 / cfg.p_prime, 1.0 / cfg.p, depth)
    rep.witness["p"] = cfg.p
    rep.search_space["p"] = cfg.p
    rep.search_space["p_prime"] = cfg.p_prime
    rep.search_space["convention"] = "product form"
    return rep


def _evaluate_size_witness(sigma: MeshMeasure, omega: MeshMeasure,
                           witness: dict, space: dict) -> float:
    grid = _check_pair(sigma, omega)
    e = 1.0 - float(witness["lambda"]) / grid.dimension
    cube = DyadicCube.from_key(grid, witness["cube"])
    return float(_size_value(sigma.cube_mass(cube), omega.cube_mass(cube), cube.volume,
                             float(space["sigma_exponent"]),
                             float(space["omega_exponent"]), e))


# -- Haar testing characteristics -------------------------------------------

# random unit combinations per cube among lp_haar_testing's candidates
_ROTATION_SAMPLES = 4


def _gram_optima(grams: np.ndarray) -> tuple:
    """(tops, vectors) of stacked Gram matrices (c, k, k): the square root
    of each one's top eigenvalue and its sign-normalized eigenvector, the
    best unit combination. Of equal top eigenvalues the first is taken, so
    a zero Gram gives e_1, as an SVD does."""
    vals, vecs = np.linalg.eigh(grams)
    top = vals.argmax(axis=1)
    pick = np.arange(len(vals))
    return np.sqrt(np.maximum(vals[pick, top], 0.0)), normalize_sign(vecs[pick, :, top])


def _live_slots(system: HaarSystem) -> list:
    """(cube key, first row, count) of every cube that carries wavelets, in
    system order."""
    return [(key, start, count) for key, (start, count) in system.cube_slots.items()
            if count]


def _cube_groups(system: HaarSystem):
    """Yield (at, level, cubes, index) for each group of one level's cubes
    with equally many wavelets, k: their places in `_live_slots`, their
    HaarLevel and C-order indices in it, and their wavelets' rows (g, k)."""
    done = 0
    for lv, rows in zip(system.levels, system.level_rows):
        live = np.flatnonzero(lv.counts)
        for count in np.flatnonzero(np.bincount(lv.counts[live])):
            group = np.flatnonzero(lv.counts[live] == count)
            cubes = live[group]
            yield done + group, lv, cubes, rows.start + lv.starts[cubes][:, None] + np.arange(count)
        done += live.size


def _optima(groups: list, grams, width: int) -> tuple:
    """(tops, coefficients) of every cube that carries wavelets, in system
    order, from the Grams (g, k, k) of its wavelets' images, one array per
    group of `_cube_groups`: the top singular value of its weighted image
    block and its best unit combination (`_gram_optima`), zero-padded to
    width, the largest count."""
    tops = np.zeros(sum(len(at) for at, _, _, _ in groups))
    coeffs = np.zeros((tops.size, width))
    for (at, _, _, index), gram in zip(groups, grams):
        tops[at], coeffs[at, :index.shape[1]] = _gram_optima(gram)
    return tops, coeffs


def _cell_cubes(grid: Grid, level: int) -> np.ndarray:
    """C-order index of the level-`level` cube of every cell, C order."""
    out = np.empty(grid.n_cells, dtype=int)
    cells = group_by_cube(np.arange(grid.n_cells).reshape(grid.mesh_shape), level)
    out[cells] = np.arange(len(cells))[:, None]
    return out


class _CubeFold:
    """The groups of `_cube_groups` of a system, for folding per-cube sums
    over the output cells from blocks (rows, levels) of `image_blocks`.

    A cube's wavelets are constant on its children, so their images are
    combinations of the children's cube images. For each block, `blocks`
    gives each group's cubes' children's images x (g, 2**n, r), grouped
    from the next finer level, with their cells' weights (r,): every
    output cell counts, the global characteristic H^glob.
    """

    def __init__(self, system: HaarSystem, weights: np.ndarray):
        self.system, self.weights = system, weights
        self.groups = list(_cube_groups(system))

    def blocks(self, rows: slice, levels: list):
        n = self.system.measure.grid.dimension
        weights = self.weights[rows]
        level = children = None  # the groups come level by level
        for _, lv, cubes, _ in self.groups:
            if lv.level != level:
                level = lv.level
                children = group_by_cube(levels[level + 1], level, n, start=0)
            every = len(cubes) == len(children)  # no copy for a whole level
            yield children if every else children[cubes], weights

    def _report(self, name: str, values: np.ndarray, combos: np.ndarray, kernel: Kernel,
                trunc: Truncation, witness: dict, space: dict, seed: int | None = None):
        """The report of the first largest of values, one row per cube that
        carries wavelets, and of its combination in combos (`_cube_witness`)."""
        best, cube, coefficients = _cube_witness(self.system, values, combos)
        witness = {"cube": cube, "coefficients": coefficients, "mode": "global", **witness}
        space = {"depth": self.system.depth, **space, **_operator_spec(kernel, trunc)}
        return CharacteristicReport(name, best, witness, space, seed)


class _GramFold(_CubeFold):
    """Each cube's weighted Gram of its children's images, C = sum_i w_i
    S_J(i) S_J'(i) over the output cells i. A wavelet with child values v
    has the image sum_J v_J S_J, so V C V^T is the Gram of the images of a
    cube's wavelets, V their child values (`wavelet_grams`); `optima` runs
    one batched eigh per group on those at the end, and `report` gives
    the haar_testing report of them."""

    def __init__(self, system: HaarSystem, weights: np.ndarray):
        super().__init__(system, weights)
        children = 2 ** system.measure.grid.dimension
        self.grams = [np.zeros((len(at), children, children)) for at, _, _, _ in self.groups]

    def add(self, rows: slice, levels: list) -> None:
        for gram, (x, weights) in zip(self.grams, self.blocks(rows, levels)):
            gram += (x * weights) @ x.transpose(0, 2, 1)

    def wavelet_grams(self):
        """Yield each group's Grams (g, k, k) of its wavelets' images."""
        for (_, lv, cubes, index), gram in zip(self.groups, self.grams):
            values = lv.padded_values[cubes, :index.shape[1]]
            yield values @ gram @ values.transpose(0, 2, 1)

    def optima(self) -> tuple:
        return _optima(self.groups, self.wavelet_grams(),
                       2 ** self.system.measure.grid.dimension - 1)

    def report(self, kernel: Kernel, trunc: Truncation) -> CharacteristicReport:
        tops, coeffs = self.optima()
        return self._report("haar_testing", tops, coeffs, kernel, trunc, {},
                            {"cube_blocks": tops.size, "per_cube_optimum": "exact"})


def _lp_sums(x: np.ndarray, weights, combos: np.ndarray, p: float) -> np.ndarray:
    """(g, r) sums over the last axis of weights * |c @ x|^p, for the
    combinations combos (g, r, k) of the rows of x (g, k, m)."""
    return (weights * np.abs(combos @ x) ** p).sum(axis=-1)


def _lp_ratios(lv: HaarLevel, cubes: np.ndarray, sums: np.ndarray,
               combos: np.ndarray, p: float) -> np.ndarray:
    """(g, r) Lp ratios of the combinations combos (g, r, k) of the wavelets
    of the level-`lv` cubes `cubes` (g,): the p-th root of the `_lp_sums`
    of the same combination of the cubes' images, sums, over the
    combination's Lp(sigma) norm, 0 where that norm is 0. A combination is
    constant on its cube's children, so its norm is a sum over them."""
    k = combos.shape[-1]
    den = (lv.child_masses[cubes][:, None]
           * np.abs(combos @ lv.padded_values[cubes, :k]) ** p).sum(axis=-1)
    # float_power is the scalar pow of `_lp_norm`; ** on arrays may differ by an ulp
    return np.divide(np.float_power(sums, 1.0 / p), np.float_power(den, 1.0 / p),
                     out=np.zeros_like(sums), where=den > 0.0)


class _LpFold(_CubeFold):
    """The Lp sums (`_lp_sums`) of the images of candidate combinations of
    each cube's wavelets, the cubes of `_live_slots`, folded by `add`.

    A cube's candidates are its canonical wavelets; with a seed and two or
    more wavelets, _ROTATION_SAMPLES random unit combinations (one
    standard_normal call in system order draws what one call per
    combination would); and with at least optimum_from wavelets, its exact
    L2 optimum, whose Grams (`_GramFold`) take a pass of their own when the
    fold is made. A combination c of a cube's wavelets takes the values
    c @ V on its children, V their child values, so its image is
    (c @ V) @ x, x the children's images. `report` gives the
    lp_haar_testing report.
    """

    def __init__(self, system: HaarSystem, kernel: Kernel, trunc: Truncation,
                 weights: np.ndarray, p: float, seed: int | None = None,
                 optimum_from: float = 2):
        super().__init__(system, weights)
        self.p, self.seed = p, seed
        counts = np.array([count for _, _, count in _live_slots(system)], dtype=int)
        samples = 0 if seed is None else _ROTATION_SAMPLES
        width = 2 ** system.measure.grid.dimension - 1
        # (cubes, candidates, wavelets) of `candidates`' combinations
        self.shape = (counts.size, width + samples + 1, width)
        drawn = np.where(counts > 1, samples * counts, 0)
        first = np.cumsum(drawn) - drawn
        draws = None if seed is None else np.random.default_rng(seed).standard_normal(drawn.sum())
        cands = []
        for at, _, _, index in self.groups:
            g, k = index.shape
            cands.append([np.broadcast_to(np.eye(k), (g, k, k))])
            if k > 1 and samples:
                c = draws[first[at, None] + np.arange(samples * k)].reshape(g, samples, k)
                norms = np.linalg.norm(c, axis=-1, keepdims=True)
                cands[-1].append(c / np.where(norms > 0.0, norms, 1.0))
        if any(index.shape[1] >= optimum_from for *_, index in self.groups):
            grams = _GramFold(system, weights)
            _fold_images(kernel, trunc, system.measure, system.depth, grams.add)
            for group, (*_, index), gram in zip(cands, self.groups, grams.wavelet_grams()):
                if index.shape[1] >= optimum_from:
                    group.append(_gram_optima(gram)[1][:, None])
        self.cands = [np.concatenate(c, axis=1) for c in cands]
        self.on_children = [c @ lv.padded_values[cubes, :index.shape[1]]
                            for c, (_, lv, cubes, index) in zip(self.cands, self.groups)]
        self.sums = [np.zeros(c.shape[:2]) for c in self.cands]

    def add(self, rows: slice, levels: list) -> None:
        for sums, c, (x, w) in zip(self.sums, self.on_children, self.blocks(rows, levels)):
            sums += _lp_sums(x, w, c, self.p)

    def candidates(self) -> tuple:
        """(values, combinations): values (cubes, r) the candidates'
        `_lp_ratios`, -1 past a cube's last candidate."""
        values, combos = np.full(self.shape[:2], -1.0), np.zeros(self.shape)
        for (at, lv, cubes, index), c, sums in zip(self.groups, self.cands, self.sums):
            values[at, :c.shape[1]] = _lp_ratios(lv, cubes, sums, c, self.p)
            combos[at, :c.shape[1], :index.shape[1]] = c
        return values, combos

    def report(self, kernel: Kernel, trunc: Truncation) -> CharacteristicReport:
        return self._report("lp_haar_testing", *self.candidates(), kernel, trunc, {"p": self.p},
                            {"rotation_samples": _ROTATION_SAMPLES, "p": self.p}, self.seed)


def _cube_witness(system: HaarSystem, values: np.ndarray, combos: np.ndarray) -> tuple:
    """(value, cube key, coefficients) of the first largest entry of values,
    one row per cube that carries wavelets (`_live_slots`), and of its
    combination in combos; (0.0, None, []) when there is none."""
    best, _, index = _first_max([values])
    if index is None:
        return 0.0, None, []
    key, _, count = _live_slots(system)[index[0]]
    return best, key, [float(v) for v in combos[index][:count]]


def haar_testing(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel,
                 trunc: Truncation, depth: int = 6) -> CharacteristicReport:
    """Largest L2(omega) norm of the operator on a unit wavelet combination.

    For each cube the supremum over all rotations of the wavelet block is the
    top singular value of the weighted image block, computed exactly from
    the block's Gram matrix, for all cubes at once (`_GramFold`, fed one
    pass of the images' row blocks); the first cube in system order with
    the largest value is the witness.
    """
    return pair_bundle(sigma, omega, kernel, trunc, depth, ("haar_testing",))["haar_testing"]


def haar_testing_dual(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel,
                      trunc: Truncation, depth: int = 6) -> CharacteristicReport:
    """Haar testing for the adjoint: measures swapped, kernel transposed."""
    return pair_bundle(sigma, omega, kernel, trunc, depth,
                       ("dual_haar_testing",))["dual_haar_testing"]


def lp_haar_testing(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel,
                    trunc: Truncation, p: float = 2.0, depth: int = 6,
                    seed: int = 0) -> CharacteristicReport:
    """Largest ratio of Lp(omega) image norm to Lp(sigma) wavelet norm.

    Candidates per cube are the canonical wavelets, _ROTATION_SAMPLES seeded
    random unit combinations, and at p = 2 the exact block optimum, which
    makes the value agree with haar_testing there (`_LpFold`, over the
    blocks of `image_blocks`).
    """
    return pair_bundle(sigma, omega, kernel, trunc, depth, ("lp_haar_testing",), p,
                       seed)["lp_haar_testing"]


def lp_haar_testing_dual(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel,
                         trunc: Truncation, p: float = 2.0, depth: int = 6,
                         seed: int = 0) -> CharacteristicReport:
    """Dual Lp Haar testing: conjugate exponent, swapped measures, transpose."""
    return pair_bundle(sigma, omega, kernel, trunc, depth, ("dual_lp_haar_testing",), p,
                       seed)["dual_lp_haar_testing"]


def _evaluate_haar_witness(sigma: MeshMeasure, omega: MeshMeasure,
                           witness: dict, space: dict) -> float:
    grid = _check_pair(sigma, omega)
    if witness.get("mode", "global") != "global":
        raise ValueError(f"Haar witnesses are global, got mode {witness['mode']!r}")
    if witness["cube"] is None:
        return 0.0  # sigma carries no wavelets at the scanned depth
    kernel, trunc = _kernel_and_trunc(space)
    require_resolved(trunc, grid)
    system = cached_system(sigma, int(space["depth"]))
    start, count = system.cube_slots[witness["cube"]]
    # the images of the cube's wavelets h, T(sigma h), one column each
    rows = np.zeros((count, system.n_wavelets))
    rows[np.arange(count), start + np.arange(count)] = 1.0
    block = apply(kernel, trunc, sigma, system.synthesise(rows)).T
    c = np.asarray(witness["coefficients"], dtype=float)
    cube = DyadicCube.from_key(grid, witness["cube"])
    if witness.get("p") is None:
        # L2-normalized convention: unit coefficient vectors, no denominator
        return _lp_norm(omega.flat_mass, block @ c, 2.0)
    p = float(witness["p"])
    flat = np.ravel_multi_index(cube.coords, (2 ** cube.level,) * grid.dimension)
    combos = c[None, None]
    return float(_lp_ratios(system.levels[cube.level], np.array([flat]),
                            _lp_sums(block.T[None], omega.flat_mass, combos, p), combos, p)[0, 0])


# -- cube testing -------------------------------------------------------------

def _cube_values(kernel: Kernel, trunc: Truncation, sigma: MeshMeasure,
                 omega: MeshMeasure, mode: str, p: float, cubes: list) -> list:
    """For each dyadic cube Q, the Lp(omega) norm of T(1_Q sigma) on the
    mode's output region over |Q|_sigma^(1/p), or -1, below every value,
    when Q carries no sigma-mass. The images are one `apply` of the
    indicators.
    """
    masses = [sigma.cube_mass(cube) for cube in cubes]
    live = [i for i, smass in enumerate(masses) if smass > 0.0]
    out = [-1.0] * len(cubes)
    if live:
        images = apply(kernel, trunc, sigma,
                       np.array([cubes[i].indicator().ravel() for i in live]))
        for i, tvals in zip(live, images):
            weights = _restriction_weights(sigma.grid, omega.flat_mass, mode, cubes[i])
            out[i] = _lp_norm(weights, tvals, p) / masses[i] ** (1.0 / p)
    return out


class _PyramidFold:
    """`_cube_values` of every dyadic cube of levels 0..depth, folded from
    the blocks of `image_blocks` by `add`.

    Each level's |images|^p is summed against omega on the mode's output
    region: every cell, the cube itself, or its concentric triple clipped
    to the window (the cells whose level-`level` cube lies within one step
    of the cube on every axis, as `_restriction_weights` gives them). So
    what stays is one power sum per cube, and a block's temporaries are a
    few times the block. `report` gives the cube_testing report.
    """

    def __init__(self, sigma: MeshMeasure, omega: MeshMeasure, mode: str, p: float,
                 depth: int):
        grid = sigma.grid
        self.sigma, self.omega, self.mode, self.p, self.depth = sigma, omega, mode, p, depth
        self.sums = [np.zeros(2 ** (grid.dimension * level)) for level in range(depth + 1)]
        self.cells = None if mode == "global" else [
            _cell_cubes(grid, level) for level in range(depth + 1)]

    def _regions(self, rows: slice, level: int) -> np.ndarray:
        """(r, cubes) 1 where a cell of rows lies in a cube's output region."""
        cells = self.cells[level][rows, None]
        if self.mode == "local":
            return cells == np.arange(self.sums[level].size)
        shape = (2 ** level,) * self.sigma.grid.dimension
        near = np.ones((len(cells), self.sums[level].size), dtype=bool)
        for at, of in zip(np.unravel_index(cells, shape), np.indices(shape).reshape(len(shape), 1, -1)):
            near &= np.abs(at - of) <= 1
        return near

    def add(self, rows: slice, levels: list) -> None:
        wflat = self.omega.flat_mass[rows]
        for level, images in enumerate(levels):
            # in place: |images| ** p would make a second block-sized temporary
            powers = np.abs(images.reshape(-1, len(wflat)))
            powers **= self.p
            if self.mode == "global":
                self.sums[level] += powers @ wflat
            else:
                self.sums[level] += np.einsum("rc,r,cr->c", self._regions(rows, level),
                                              wflat, powers)

    def values(self) -> list:
        """One array per level 0..depth, shaped (2**level,)*n: each cube's
        value, or -1, below every value, where it carries no sigma-mass."""
        out = []
        for level, sums in enumerate(self.sums):
            smass = level_masses(self.sigma, level).ravel()
            live = smass > 0.0
            norms = sums ** (1.0 / self.p)
            values = np.full(smass.shape, -1.0)
            values[live] = norms[live] / smass[live] ** (1.0 / self.p)
            out.append(values.reshape((2 ** level,) * self.sigma.grid.dimension))
        return out

    def report(self, kernel: Kernel, trunc: Truncation) -> CharacteristicReport:
        levels = self.values()
        best, level, index = _first_max(levels)
        witness = {} if level is None else {"cube": self.sigma.grid.cube(level, index).key(),
                                            "mode": self.mode, "p": self.p}
        search_space = {
            "depth": self.depth,
            "cubes_scanned": sum(int(np.count_nonzero(values >= 0.0)) for values in levels),
            "mode": self.mode,
            "p": self.p,
            "restriction": "clipped to window",
            **_operator_spec(kernel, trunc),
        }
        return CharacteristicReport("cube_testing", max(best, 0.0), witness, search_space)


def cube_testing(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel,
                 trunc: Truncation, mode: str = "global", depth: int = 6,
                 p: float = 2.0) -> CharacteristicReport:
    """Largest normalized Lp(omega) norm of the operator on cube indicators.

    The test function on a cube I of the dyadic grid is its indicator
    scaled by |I|_sigma^{-1/p}; mode picks the output restriction: none,
    the concentric triple, or I itself.

    Dyadic cubes are scanned up a pyramid (`_PyramidFold`): one pass of
    `image_blocks` gives the images of the cubes of every level a block of
    output cells at a time, each coarser cube's image the sum of its
    children's, and each block leaves only its power sums behind, one per
    cube. The witness follows `_first_max`: levels coarse to fine, cubes in
    C order. The images are summed in a different order than `_cube_values`
    (the witness oracle) sums them, so values agree to rounding, and cubes
    of mathematically equal value may resolve to a different one of them.
    cubes_scanned counts the cubes with sigma-mass.
    """
    if mode not in ("global", "triple", "local"):
        raise ValueError(f"mode must be global/triple/local, got {mode!r}")
    cfg = LpConfig(p)
    grid = _check_pair(sigma, omega)
    require_resolved(trunc, grid)
    if not 0 <= depth <= grid.max_level:
        raise ValueError(f"depth outside [0, {grid.max_level}]")
    fold = _PyramidFold(sigma, omega, mode, cfg.p, depth)
    _fold_images(kernel, trunc, sigma, depth, fold.add)
    return fold.report(kernel, trunc)


def _evaluate_cube_witness(sigma: MeshMeasure, omega: MeshMeasure,
                           witness: dict, space: dict) -> float:
    grid = _check_pair(sigma, omega)
    val = _cube_values(*_kernel_and_trunc(space), sigma, omega, witness["mode"],
                       float(witness["p"]), [DyadicCube.from_key(grid, witness["cube"])])[0]
    return max(val, 0.0)


# -- operator norm and matched testing ----------------------------------------

# the norms' stopping rule, recorded in their search spaces: the top Ritz
# pair (theta, y) of the Lanczos tridiagonal has |A^T A y - theta y| at most
# _NORM_TOL theta, or the steps reach _NORM_MAX_ITERS
_NORM_TOL = 1e-12
_NORM_MAX_ITERS = 10000


def _top_singular_triple(normal, n: int) -> tuple:
    """(value, unit right vector, steps, converged) of the largest singular
    value of A, given as x -> A^T A x on vectors of length n.

    Lanczos with full reorthogonalization: the top eigenpair (theta, s) of
    the tridiagonal T_k of A^T A on the basis Q_k gives the value
    sqrt(theta), the vector v = Q_k s and the residual |A^T A v - theta v| =
    beta_k |s_k|; from the same start these are Golub-Kahan-Lanczos's steps
    and right basis. The start is a fixed pseudo-random vector, which no
    structure of A makes orthogonal to the top vector. A zero image of it
    gives 0 and a zero vector in 0 steps; a later beta at rounding level of
    the first image ends the steps with an exact invariant subspace. Where
    the top value is multiple, the steps find the start's projection on its
    right singular space, which rounding-level changes of A do not move.
    """
    basis, alphas, betas = _LanczosBasis(n), [], []  # betas[0]: the start's norm
    basis.add(np.random.default_rng(0).standard_normal(n), betas, 0.0)
    w = normal(basis[0])
    if not np.any(w):
        return 0.0, np.zeros(n), 0, True
    floor = np.finfo(float).eps * n * float(np.linalg.norm(w))
    for k in range(min(n, _NORM_MAX_ITERS)):
        alphas.append(float(basis[k] @ w))
        basis.add(w, betas, floor)
        t = np.diag(alphas) + np.diag(betas[1:-1], 1) + np.diag(betas[1:-1], -1)
        thetas, vectors = np.linalg.eigh(t)
        theta, s = float(thetas[-1]), vectors[:, -1]
        converged = betas[-1] * abs(s[-1]) <= _NORM_TOL * theta
        if converged or k + 1 == min(n, _NORM_MAX_ITERS):
            return np.sqrt(theta), sum(c * row for c, row in zip(s, basis)), k + 1, bool(converged)
        w = normal(basis[k + 1])


class _LanczosBasis(list):
    """Orthonormal vectors of length n, listed as rows of blocks that no
    step copies: the first block holds about sqrt(n) rows (where the mesh
    norm's top values cluster its steps grow like that: 258 on 1-D L=16
    Lebesgue), but at most _IMAGE_BLOCK_ENTRIES entries, and each next one
    as many rows as all before it."""

    def __init__(self, n: int):
        super().__init__()
        rows = max(1, min(int(n ** 0.5) + 1, _IMAGE_BLOCK_ENTRIES // max(n, 1)))
        self.full, self.block, self.used = [], np.empty((rows, n)), 0

    def add(self, w: np.ndarray, norms: list, floor: float) -> np.ndarray:
        """Append w, orthogonalized twice against the rows and normalized,
        and its norm to norms, and return it; a norm at or below floor is
        taken as 0, with a zero row."""
        filled = self.full + [self.block[:self.used]]
        for _ in range(2):
            for block in filled:
                w = w - (block @ w) @ block
        if self.used == len(self.block):
            self.full.append(self.block)
            self.block, self.used = np.empty((len(self), w.size)), 0
        norm = float(np.linalg.norm(w))
        norms.append(norm if norm > floor else 0.0)
        self.append(self.block[self.used])
        self.used += 1
        self[-1][:] = w / norm if norms[-1] else 0.0
        return self[-1]


def _norm_space(kernel: Kernel, trunc: Truncation, steps: int, converged: bool) -> dict:
    return {**_operator_spec(kernel, trunc), "tol": _NORM_TOL, "max_iters": _NORM_MAX_ITERS,
            "iterations": steps, "converged": converged}


def _evaluate_norm_witness(sigma: MeshMeasure, omega: MeshMeasure,
                           witness: dict, space: dict) -> float:
    """|T_sigma f|_L2(omega) / |f|_L2(sigma) of the witness's mesh function
    f, by one `apply`; 0 where |f|_L2(sigma) is."""
    f = np.asarray(witness["coefficients"], dtype=float)
    norm = _lp_norm(sigma.flat_mass, f, 2.0)
    if not norm:
        return 0.0
    image = apply(*_kernel_and_trunc(space), sigma, f).ravel()
    return _lp_norm(omega.flat_mass, image, 2.0) / norm


def _mesh_norm(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel,
               trunc: Truncation) -> CharacteristicReport:
    """N_T(sigma, omega), the norm of T_sigma from L2(sigma) to L2(omega) on
    the mesh: the top singular value of A = diag(sqrt omega) G diag(sqrt
    sigma) (`_top_singular_triple`), A^T A x = sqrt(sigma) G^T(omega
    G(sqrt(sigma) x)) one `_fft_operator` product each of the kernel's and
    its adjoint's tables. The witness is f = v / sqrt(sigma), 0 where sigma
    is, of the sign-normalized top right vector v; the value is f's ratio."""
    grid = _check_pair(sigma, omega)
    require_resolved(trunc, grid)
    root = np.sqrt(sigma.flat_mass)
    forward, adjoint = (_fft_operator(op, trunc, grid) for op in (kernel, kernel.transpose()))
    _, v, steps, converged = _top_singular_triple(
        lambda x: root * adjoint(omega.flat_mass * forward((root * x)[None]))[0], grid.n_cells)
    live = root > 0
    f = np.divide(normalize_sign(np.where(live, v, 0.0)), root,
                  out=np.zeros(grid.n_cells), where=live)
    witness = {"side": "mesh", "coefficients": f.tolist()}
    space = _norm_space(kernel, trunc, steps, converged)
    value = _evaluate_norm_witness(sigma, omega, witness, space)
    return CharacteristicReport("operator_norm", value, witness, space)


def _mesh_norm_fold(sigma: MeshMeasure, omega: MeshMeasure, **_) -> SimpleNamespace:
    """operator_norm's fold in `pair_bundle`: it reads no images (add is
    None), and its report is `_mesh_norm`'s."""
    return SimpleNamespace(add=None, report=partial(_mesh_norm, sigma, omega))


def operator_norm(matrix: HaarMatrix) -> CharacteristicReport:
    """N_T(sigma, omega) of the matrix's measures, kernel and truncation
    (`_mesh_norm`). The entries are not read: the wavelets leave out the
    mean component, so the entries' own norm can fall below the testing
    constants."""
    return _mesh_norm(matrix.sigma_system.measure, matrix.omega_system.measure,
                      matrix.kernel, matrix.trunc)


def matched_haar_testing(matrix: HaarMatrix,
                         dual: bool = False) -> CharacteristicReport:
    """Largest per-cube block norm of the coefficient matrix.

    Grouping columns by source cube gives the testing constant in the same
    truncated coordinates as the operator norm, so it never exceeds the
    matrix norm; dual=True groups rows by target cube for the adjoint.
    The block optimum covers every rotation of the cube's wavelets.
    """
    system = matrix.omega_system if dual else matrix.sigma_system
    vectors = matrix.entries if dual else matrix.entries.T  # one row per wavelet
    groups = list(_cube_groups(system))
    grams = (vectors[index] @ vectors[index].transpose(0, 2, 1) for *_, index in groups)
    tops, coeffs = _optima(groups, grams, 2 ** system.measure.grid.dimension - 1)
    best, cube, coefficients = _cube_witness(system, tops, coeffs)
    witness = {} if cube is None else {"cube": cube, "side": "row" if dual else "column",
                                       "coefficients": coefficients}
    name = "dual_haar_testing_matched" if dual else "haar_testing_matched"
    search_space = {"depth": matrix.depth, **_operator_spec(matrix.kernel, matrix.trunc),
                    "cube_blocks": tops.size, "per_cube_optimum": "exact"}
    return CharacteristicReport(name, best, witness, search_space)


def _evaluate_matrix_witness(sigma: MeshMeasure, omega: MeshMeasure,
                             witness: dict, space: dict) -> float:
    if "kernel" not in space or "trunc" not in space:
        raise ValueError("report lacks kernel metadata")
    if not witness:
        return 0.0  # matched testing found no cube that carries wavelets
    matrix = assemble_haar_matrix(*_kernel_and_trunc(space), sigma, omega,
                                  int(space["depth"]))
    c = np.asarray(witness["coefficients"], dtype=float)
    dual = witness["side"] == "row"
    system = matrix.omega_system if dual else matrix.sigma_system
    start, count = system.cube_slots[witness["cube"]]
    rows = slice(start, start + count)
    block = matrix.entries[rows].T if dual else matrix.entries[:, rows]
    return float(np.linalg.norm(block @ c))


# -- quadratic characteristics -------------------------------------------------

# families drawn at random by each quadratic characteristic
_FAMILY_COUNT = 32


# cubes per block of `_pair_scan`: a block's candidate arrays take a few
# MB each at 2-D max_distance 10 (404 offsets), whatever the level
_PAIR_BLOCK_CUBES = 1 << 10


def _pyramid(measure: MeshMeasure) -> tuple:
    """(masses, base): the masses of the cubes of every level 0..max_level,
    each level in C order, laid end to end, and where each level begins."""
    masses = [level_masses(measure, lv).ravel() for lv in range(measure.grid.max_level + 1)]
    return np.concatenate(masses), np.cumsum([0] + [m.size for m in masses])


def _key_cubes(grid: Grid, keys: list) -> tuple:
    """(levels, C-order indices) of the cubes with `DyadicCube.key()` keys,
    the inverse of `cube_keys`."""
    cubes = [DyadicCube.from_key(grid, key) for key in keys]
    return (np.array([c.level for c in cubes], dtype=int),
            np.array([np.ravel_multi_index(c.coords, (2 ** c.level,) * grid.dimension)
                      for c in cubes], dtype=int))


def _pair_values(sigma: MeshMeasure, omega: MeshMeasure, lam: float, p: float,
                 tries: list) -> np.ndarray:
    """Lp ratio of each try (levels, cubes, partner levels, partners,
    coefficients), the arrays of a family of cubes Q with partner cubes P
    and coefficients a, each cube a level and a C-order index.

    Numerator: Lp(omega) norm of (sum_Q (a |P|_sigma / |P|^{1-lam/n})^2 1_Q)^{1/2};
    denominator: Lp(sigma) norm of (sum_Q a^2 1_P)^{1/2}; 0 where that is 0.
    The cubes Q of a family are distinct cubes of one level, so the
    numerator^p is sum_Q |Q|_omega |a |P|_sigma / |P|^{1-lam/n}|^p. Two
    partners are equal or disjoint (offsets of one level, or subcubes of
    disjoint cubes), so the denominator^p is the sum over the distinct
    partners P of |P|_sigma (sum_{Q -> P} a^2)^{p/2}.
    """
    if not tries:
        return np.zeros(0)
    grid = sigma.grid
    levels, cubes, subs, partners, coeffs = (
        np.concatenate([np.asarray(t[i]) for t in tries]) for i in range(5))
    at = np.repeat(np.arange(len(tries)), [len(t[1]) for t in tries])
    smass, base = _pyramid(sigma)
    wmass, _ = _pyramid(omega)
    part = base[subs] + partners
    volumes = (grid.side / 2.0 ** subs) ** grid.dimension
    es = smass[part] / volumes ** (1.0 - lam / grid.dimension)
    num = np.bincount(at, wmass[base[levels] + cubes] * np.abs(coeffs * es) ** p,
                      minlength=len(tries))
    # one group per distinct (try, partner), numbered in key order (by a sort:
    # np.unique would import numpy.ma)
    key = at * smass.size + part
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    starts = np.ones(key.size, dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    pairs = ranked[starts]
    group = np.empty_like(order)
    group[order] = np.cumsum(starts) - 1
    den = np.bincount(pairs // smass.size, smass[pairs % smass.size]
                      * np.bincount(group, coeffs ** 2) ** (p / 2.0), minlength=len(tries))
    return np.divide(num ** (1.0 / p), den ** (1.0 / p), out=np.zeros(len(tries)),
                     where=den > 0.0)


def _pair_scan(sigma: MeshMeasure, omega: MeshMeasure, cfg: LpConfig,
               e: float, depth: int, partners_of, reach) -> tuple:
    """(partners, best, pair, pairs scanned): each cube's best partner by
    the scalar pair ratio, and the best pair.

    partners_of(grid, level, reach, cubes) gives the candidates of the
    level-`level` cubes of C-order indices cubes (c,) as (levels (d,), index
    (c, d)): candidate j of cube i is the level-levels[j] cube of C-order
    index index[i, j], none where -1. Levels 0..depth go in blocks of
    _PAIR_BLOCK_CUBES cubes. A cube's partner is its first candidate of
    largest ratio: partners holds, for each level, the (levels, index)
    arrays of its cubes' partners, index -1 where a cube has none. pair is
    (level, index) of the cube of the best pair, None when no cube has a
    partner."""
    grid = sigma.grid
    n = grid.dimension
    masses, base = _pyramid(sigma)
    partners, tops = [], []
    pair_count = 0
    for level in range(depth + 1):
        # `_size_value` with the omega and volume powers taken by float_power,
        # the scalar pow (** on arrays may differ from it by an ulp)
        wterm = np.float_power(level_masses(omega, level).reshape(-1, 1), 1.0 / cfg.p)
        top = np.full(len(wterm), -1.0)
        sub_of, index_of = np.zeros(len(wterm), dtype=int), np.full(len(wterm), -1)
        for start in range(0, len(wterm), _PAIR_BLOCK_CUBES):
            cubes = np.arange(start, min(start + _PAIR_BLOCK_CUBES, len(wterm)))
            subs, index = partners_of(grid, level, reach, cubes)
            live = index >= 0
            if not live.any():
                continue
            pair_count += int(live.sum())
            vterm = np.float_power((grid.side / 2.0 ** subs) ** n, e)
            ratios = np.where(live, masses[base[subs] + index] ** (1.0 / cfg.p_prime)
                              * wterm[cubes] / vterm, -1.0)
            j = ratios.argmax(axis=1)
            top[cubes] = ratios[np.arange(len(j)), j]
            sub_of[cubes] = subs[j]
            index_of[cubes] = np.where(top[cubes] >= 0.0, index[np.arange(len(j)), j], -1)
        partners.append((sub_of, index_of))
        tops.append(top)
    scalar_best, level, index = _first_max(tops)
    return partners, scalar_best, None if level is None else (level, int(index[0])), pair_count


def _offset_stencil(dimension: int, max_distance: float) -> np.ndarray:
    """(d, n) nonzero offsets of the same-level cubes within max_distance
    sides of a cube, in lexicographic order."""
    reach = int(np.ceil(max_distance)) + 1
    deltas = np.array(list(itertools.product(range(-reach, reach + 1), repeat=dimension)),
                      dtype=int).reshape(-1, dimension)
    gap2 = (np.maximum(np.abs(deltas) - 1, 0) ** 2).sum(axis=1)
    return deltas[deltas.any(axis=1) & (gap2 <= max_distance ** 2 + 1e-9)]


def _stencil_partners(grid: Grid, level: int, max_distance: float,
                      cubes: np.ndarray | None = None) -> tuple:
    """The offset candidates of `_pair_scan`: each cube (by default every
    cube of the level) plus every stencil offset that stays inside the
    window, in stencil order."""
    shape = (2 ** level,) * grid.dimension
    cubes = np.arange(2 ** (grid.dimension * level)) if cubes is None else cubes
    coords = np.stack(np.unravel_index(cubes, shape), axis=-1)
    cand = coords[:, None] + _offset_stencil(grid.dimension, max_distance)
    inside = ((cand >= 0) & (cand < shape[0])).all(axis=-1)
    index = np.ravel_multi_index(tuple(np.moveaxis(cand, -1, 0)), shape, mode="clip")
    return np.full(cand.shape[1], level), np.where(inside, index, -1)


def _offset_draw(rng, grid: Grid, depth: int, max_distance: float):
    """2 to 6 cubes of one level, each with a random nearby partner from
    its stencil candidates inside the window, as (levels, cubes, partner
    levels, partners); None when fewer than two cubes have a partner."""
    n = grid.dimension
    level = int(rng.integers(1, depth + 1))
    total = 2 ** (n * level)
    k = int(rng.integers(2, min(6, total) + 1))
    cubes = np.sort(rng.choice(total, size=k, replace=False))
    cands = [row[row >= 0] for row in _stencil_partners(grid, level, max_distance, cubes)[1]]
    keep = np.array([len(c) > 0 for c in cands])
    if keep.sum() < 2:
        return None
    partners = np.array([c[int(rng.integers(0, len(c)))] for c in cands if len(c)])
    levels = np.full(len(partners), level)
    return levels, cubes[keep], levels, partners


def _descendant_partners(grid: Grid, level: int, max_generation: int,
                         cubes: np.ndarray | None = None) -> tuple:
    """The subcube candidates of `_pair_scan`: each cube's (by default
    every cube of the level) dyadic subcubes down to max_generation levels,
    the cube itself first, each level's in C order (a `group_by_cube` of the
    finer level's cube indices)."""
    n = grid.dimension
    cubes = slice(None) if cubes is None else cubes
    subs = range(level, level + min(max_generation, grid.max_level - level) + 1)
    index = [group_by_cube(np.arange(2 ** (n * s)).reshape((2 ** s,) * n), level)[cubes]
             for s in subs]
    return np.repeat(subs, [i.shape[1] for i in index]), np.concatenate(index, axis=1)


def _subcube_draw(rng, grid: Grid, depth: int, max_generation: int):
    """1 to 6 cubes of one level, each with a random dyadic subcube, as
    (levels, cubes, partner levels, partners)."""
    n = grid.dimension
    level = int(rng.integers(0, depth + 1))
    total = 2 ** (n * level)
    k = int(rng.integers(1, min(6, total) + 1))
    cubes = np.sort(rng.choice(total, size=k, replace=False))
    subs, partners = [], []
    for coords in np.stack(np.unravel_index(cubes, (2 ** level,) * n), axis=-1):
        gen = int(rng.integers(0, min(max_generation, grid.max_level - level) + 1))
        offs = [int(rng.integers(0, 2 ** gen)) for _ in range(n)]
        subs.append(level + gen)
        partners.append(np.ravel_multi_index(tuple(coords * 2 ** gen + offs),
                                             (2 ** (level + gen),) * n))
    return np.full(k, level), cubes, np.array(subs), np.array(partners)


def _pair_families(grid: Grid, depth: int, partners: list, draw, reach, rng):
    """The families of `_pair_family_ap`, each the list of its tries
    (`_pair_values`): the sibling families (the children of each parent
    that have a partner (`_pair_scan`), with it, unit coefficients; one
    `group_by_cube` of the finer level), then _FAMILY_COUNT draws, each
    tried with random and with unit coefficients. A draw of one cube gives
    no try: its value is its pair's, whatever the coefficient, which the
    scan has weighed, so a try of it could only win by rounding."""
    n = grid.dimension
    for level in range(1, depth + 1):
        subs, index = partners[level]
        siblings = group_by_cube(np.arange(2 ** (n * level)).reshape((2 ** level,) * n),
                                 level - 1)
        live = index[siblings] >= 0
        for children in (c[on] for c, on in zip(siblings, live) if on.sum() >= 2):
            yield [(np.full(len(children), level), children, subs[children], index[children],
                    np.ones(len(children)))]
    for _ in range(_FAMILY_COUNT):
        family = draw(rng, grid, depth, reach)
        if family is not None:
            coeffs = rng.uniform(0.2, 1.0, size=len(family[1]))
            yield [(*family, coeffs), (*family, np.ones(len(coeffs)))] if len(coeffs) > 1 else []


# variant -> (partners, draw, name of its reach, reach, smallest depth): the
# offset partners lie within 10 sidelengths, the subcubes 2 generations down
_PAIR_VARIANTS = {
    "offset": (_stencil_partners, _offset_draw, "max_distance", 10.0, 1),
    "subcube": (_descendant_partners, _subcube_draw, "max_generation", 2, 0),
}


def _pair_family_ap(variant: str, sigma: MeshMeasure, omega: MeshMeasure,
                    lam: float, p: float, depth: int | None,
                    seed: int) -> CharacteristicReport:
    """The family search shared by the quadratic pair characteristics.

    The scan over the variant's partners gives every cube's best partner
    and the best single pair, whose value starts the search. Then come the
    sibling families (the children of each parent with their best partners,
    unit coefficients) and _FAMILY_COUNT seeded random families from the
    variant's draw, each tried with random and with unit coefficients. All
    tries take one `_pair_values`; the first largest (`_first_max`) is the
    witness when it is strictly above the best pair.
    """
    partners_of, draw, reach_name, reach, min_depth = _PAIR_VARIANTS[variant]
    cfg = LpConfig(p)
    grid, e, depth = _size_setup(sigma, omega, lam, depth, min_depth)
    partners, scalar_best, scalar_pair, pair_count = _pair_scan(
        sigma, omega, cfg, e, depth, partners_of, reach)
    scalar_best = max(scalar_best, 0.0)
    families = list(_pair_families(grid, depth, partners, draw, reach,
                                   np.random.default_rng(seed)))
    tries = [t for family in families for t in family]
    best, _, at = _first_max([_pair_values(sigma, omega, lam, cfg.p, tries)])
    winner = None  # the best pair as a family of one
    if scalar_pair is not None:
        level, cube = scalar_pair
        subs, index = partners[level]
        winner = ([level], [cube], [subs[cube]], [index[cube]], [1.0])
    if best > scalar_best:
        winner = tries[at[0]]
    family_witness: dict = {}
    if winner is not None:
        levels, cubes, subs, index, coeffs = winner
        family_witness = {"cubes": cube_keys(levels, cubes, grid.dimension),
                          "partners": cube_keys(subs, index, grid.dimension),
                          "coefficients": [float(a) for a in coeffs]}

    witness = {**family_witness, "variant": variant, "lambda": lam, "p": cfg.p,
               "singleton_value": scalar_best}
    search_space = {
        "depth": depth,
        reach_name: reach,
        "pairs_scanned": pair_count,
        "families_evaluated": len(families),
        "family_count": _FAMILY_COUNT,
        "p": cfg.p,
    }
    return CharacteristicReport(f"quadratic_{variant}_ap", max(best, scalar_best), witness,
                                search_space, seed)


def quadratic_offset_ap(sigma: MeshMeasure, omega: MeshMeasure, lam: float,
                        p: float = 2.0, depth: int | None = None,
                        seed: int = 0) -> CharacteristicReport:
    """Vector-valued size characteristic over equal-size nearby cube pairs.

    Pairs (I, I*) run over same-level disjoint dyadic cubes within the
    offset reach of `_PAIR_VARIANTS`, 10 sidelengths (enumerated
    exhaustively per cube); families combine disjoint cubes with seeded
    coefficients. Singleton families are always included, so the value
    dominates the scalar pair ratio.
    """
    return _pair_family_ap("offset", sigma, omega, lam, p, depth, seed)


def quadratic_subcube_ap(sigma: MeshMeasure, omega: MeshMeasure, lam: float,
                         p: float = 2.0, depth: int | None = None,
                         seed: int = 0) -> CharacteristicReport:
    """Vector-valued size characteristic with dyadic subcubes as partners.

    Pairs (I, J) run over cubes to the depth and their dyadic subcubes down
    to the subcube reach of `_PAIR_VARIANTS`, 2 levels (generation 0
    recovers the plain pair I = J, so the value dominates the product-form
    characteristic at this depth).
    """
    return _pair_family_ap("subcube", sigma, omega, lam, p, depth, seed)


def _evaluate_pair_family_witness(sigma: MeshMeasure, omega: MeshMeasure,
                                  witness: dict, space: dict) -> float:
    grid = _check_pair(sigma, omega)
    family = (*_key_cubes(grid, witness["cubes"]), *_key_cubes(grid, witness["partners"]),
              np.asarray(witness["coefficients"], dtype=float))
    return float(_pair_values(sigma, omega, float(witness["lambda"]), float(witness["p"]),
                              [family])[0])


def _haar_family_values(system: HaarSystem, kernel: Kernel, trunc: Truncation,
                        wflat: np.ndarray, coeffs: np.ndarray, families: list,
                        p: float) -> np.ndarray:
    """Ratio of each family (places, weights a) of distinct cubes of one
    level, given by their places in `_live_slots`, whose members are the
    combinations coeffs[place] of their wavelets: the Lp(omega) norm of the
    pointwise square sum of the members' images over the Lp(sigma) norm of
    that of the members themselves, 0 where that is 0.

    The numerators sum_i omega_i (sum_m (a_m img_m(i))^2)^(p/2) take one
    pass of `image_blocks`: a member c is constant on its cube's children,
    so its image is (c @ V) @ x, V the wavelets' child values and x the
    children's images. The members' cubes are disjoint, so the denominator^p
    is sum_m |a_m|^p sum_J sigma(J) |c_m @ V_m|_J^p over each member's
    children J, the child-space sums of `_lp_ratios`."""
    fold = _CubeFold(system, wflat)
    on_children = [coeffs[at, None, :index.shape[1]] @ lv.padded_values[cubes, :index.shape[1]]
                   for at, lv, cubes, index in fold.groups]
    norms = np.zeros(len(coeffs))  # each member's Lp(sigma) norm, to the p
    for (at, lv, cubes, _), v in zip(fold.groups, on_children):
        norms[at] = (lv.child_masses[cubes] * np.abs(v[:, 0]) ** p).sum(axis=-1)
    nums = np.zeros(len(families))

    def add(rows: slice, levels: list) -> None:
        images = np.empty((len(coeffs), rows.stop - rows.start))
        for (at, *_), v, (x, _) in zip(fold.groups, on_children, fold.blocks(rows, levels)):
            images[at] = (v @ x)[:, 0]
        w = wflat[rows]
        for i, (at, a) in enumerate(families):
            nums[i] += w @ ((a[:, None] * images[at]) ** 2).sum(axis=0) ** (p / 2.0)

    _fold_images(kernel, trunc, system.measure, system.depth, add)
    dens = np.array([np.sum(np.abs(a) ** p * norms[at]) for at, a in families])
    return np.divide(nums ** (1.0 / p), dens ** (1.0 / p), out=np.zeros(len(families)),
                     where=dens > 0.0)


def _level_families(levels: np.ndarray, rng) -> list:
    """The families (places, weights) of `quadratic_haar_testing`, from the
    level of each cube of `_live_slots`: each level's cubes with unit
    weights, then _FAMILY_COUNT draws of 1 to 6 cubes of one level with
    random weights, none when no level has cubes. A draw of one cube is
    kept, so that the count of families does not change, but
    `quadratic_haar_testing` does not try it: its value is its cube's,
    whatever the weight."""
    by_level = [np.flatnonzero(levels == level)
                for level in np.flatnonzero(np.bincount(levels))]
    out = [(at, np.ones(len(at))) for at in by_level if len(at) >= 2]
    for _ in range(_FAMILY_COUNT if by_level else 0):
        at = by_level[int(rng.integers(0, len(by_level)))]
        k = int(rng.integers(1, min(6, len(at)) + 1))
        out.append((at[np.sort(rng.choice(len(at), size=k, replace=False))],
                    rng.uniform(0.2, 1.0, size=k)))
    return out


def quadratic_haar_testing(sigma: MeshMeasure, omega: MeshMeasure,
                           kernel: Kernel, trunc: Truncation, p: float = 2.0,
                           depth: int = 6, seed: int = 0) -> CharacteristicReport:
    """Vector-valued Haar testing over families of disjoint cubes.

    Each family member is a unit wavelet combination on its cube; the value
    compares the pointwise square sum of the images against that of the
    wavelets, both in Lp. A cube's member is its best candidate of
    `_LpFold`: a canonical wavelet or, with two or more wavelets, the exact
    per-cube optimum, so at p = 2 the value matches scalar haar_testing.
    The families depend on the cubes and the seed only, so one more pass
    gives every family's value (`_haar_family_values`); the first family
    strictly above the best single cube is the witness.
    """
    cfg = LpConfig(p)
    _check_pair(sigma, omega)
    require_resolved(trunc, sigma.grid)
    system = cached_system(sigma, depth)
    scan = _LpFold(system, kernel, trunc, omega.flat_mass, cfg.p)
    _fold_images(kernel, trunc, sigma, depth, scan.add)
    values, combos = scan.candidates()
    slots = _live_slots(system)
    members = combos[np.arange(len(values)), values.argmax(axis=1)]  # first best candidates
    levels = np.repeat(np.arange(depth), [np.count_nonzero(lv.counts) for lv in system.levels])
    families = _level_families(levels, np.random.default_rng(seed))
    scalar_best, _, place = _first_max([values])
    places, weights = ([], []) if place is None else ([place[0]], [1.0])
    scalar_best = max(scalar_best, 0.0)
    tries = [family for family in families if len(family[0]) > 1]
    best, _, at = _first_max([_haar_family_values(
        system, kernel, trunc, omega.flat_mass, members, tries, cfg.p)])
    if best > scalar_best:
        places, weights = tries[at[0]]
    witness = {"members": [{"cube": slots[i][0],
                            "coefficients": [float(v) for v in members[i, :slots[i][2]]]}
                           for i in places],
               "weights": [float(a) for a in weights],
               "p": cfg.p, "scalar_value": scalar_best}
    search_space = {
        "depth": depth,
        "families_evaluated": len(families),
        "family_count": _FAMILY_COUNT,
        "p": cfg.p,
        **_operator_spec(kernel, trunc),
    }
    return CharacteristicReport("quadratic_haar_testing", max(best, scalar_best), witness,
                                search_space, seed)


def _evaluate_quadratic_haar_witness(sigma: MeshMeasure, omega: MeshMeasure,
                                     witness: dict, space: dict) -> float:
    kernel, trunc = _kernel_and_trunc(space)
    require_resolved(trunc, sigma.grid)
    system = cached_system(sigma, int(space["depth"]))
    place = {key: i for i, (key, _, _) in enumerate(_live_slots(system))}
    coeffs = np.zeros((len(place), 2 ** sigma.grid.dimension - 1))
    at = np.array([place[m["cube"]] for m in witness["members"]], dtype=int)
    for i, member in zip(at, witness["members"]):
        coeffs[i, :len(member["coefficients"])] = member["coefficients"]
    return float(_haar_family_values(system, kernel, trunc, omega.flat_mass, coeffs,
                                     [(at, np.asarray(witness["weights"], dtype=float))],
                                     float(witness["p"]))[0])


# -- one pair's comparison -----------------------------------------------------

# the folds of `pair_bundle`'s reports, each made from the keywords of the
# pass of its side: sigma (the measure whose images are read), omega,
# kernel, trunc, depth, system (a measure's Haar system at depth), p and seed

def _gram_fold(sigma: MeshMeasure, omega: MeshMeasure, system, **_) -> _GramFold:
    return _GramFold(system(sigma), omega.flat_mass)


def _lp_fold(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel, trunc: Truncation,
             system, p: float, seed: int, **_) -> _LpFold:
    """At p = 2 every cube with two or more wavelets takes its exact
    optimum as a candidate (a one-wavelet cube's is its wavelet), which
    makes the value agree with haar_testing there."""
    return _LpFold(system(sigma), kernel, trunc, omega.flat_mass, p, seed,
                   2 if p == 2.0 else np.inf)


def _cube_fold(sigma: MeshMeasure, omega: MeshMeasure, depth: int, **_) -> _PyramidFold:
    """The comparison's cube testing: global, at p = 2, whatever the pass's p."""
    return _PyramidFold(sigma, omega, "global", 2.0, depth)


def pair_bundle(sigma: MeshMeasure, omega: MeshMeasure, kernel: Kernel, trunc: Truncation,
                depth: int, names: tuple = ("operator_norm", "haar_testing",
                                            "dual_haar_testing", "cube_testing"),
                p: float = 2.0, seed: int = 0) -> dict:
    """The reports named, keyed by name, each from the fold that `_REGISTRY`
    gives it, the scans at `depth`. By default those of the comparison of
    N_T(sigma, omega) with H^glob_T(sigma, omega) + H^glob_T*(omega, sigma):
    operator_norm, haar_testing, dual_haar_testing and the global
    cube_testing at p = 2.

    The folds of the reports that are not swapped in `_REGISTRY` take one
    pass of sigma's images, at p; those of the swapped (dual) reports, one
    pass of omega's, the kernel transposed, at p'. A side with no fold
    that reads images takes no pass; operator_norm reads none, and its
    solver runs on the mesh (`_mesh_norm`). The Lp reports draw their
    rotations from seed. Each side's reports are made in `_REGISTRY` order.
    """
    unknown = [name for name in names if _REGISTRY.get(name, (None,) * 3)[2] is None]
    if unknown:
        raise ValueError(f"no fold gives the reports {unknown}")
    cfg = LpConfig(p)
    _check_pair(sigma, omega)
    require_resolved(trunc, sigma.grid)
    # one `cached_system` call per measure, whichever folds share its system
    system = cache(lambda measure: cached_system(measure, depth))
    out = {}
    for dual, source, target, op, q in ((False, sigma, omega, kernel, cfg.p),
                                        (True, omega, sigma, kernel.transpose(), cfg.p_prime)):
        folds = {name: make(sigma=source, omega=target, kernel=op, trunc=trunc, depth=depth,
                            system=system, p=q, seed=seed)
                 for name, (_, swapped, make) in _REGISTRY.items()
                 if name in names and swapped == dual}
        adds = [fold.add for fold in folds.values() if fold.add]
        if adds:
            _fold_images(op, trunc, source, depth, *adds)
        for name, fold in folds.items():
            out[name] = replace(fold.report(op, trunc), name=name)
    return out


# -- witness re-evaluation -----------------------------------------------------

# report name -> (evaluator(sigma, omega, witness, search_space), swapped,
# fold): a swapped report's scan ran on (omega, sigma), so its witness is
# evaluated with the measures swapped back, and `pair_bundle` folds it on
# omega's pass; fold makes the fold that gives the report there (its add
# None where it reads no images), None for a report `pair_bundle` does not
# give
_REGISTRY = {
    "operator_norm": (_evaluate_norm_witness, False, _mesh_norm_fold),
    "haar_testing": (_evaluate_haar_witness, False, _gram_fold),
    "dual_haar_testing": (_evaluate_haar_witness, True, _gram_fold),
    "lp_haar_testing": (_evaluate_haar_witness, False, _lp_fold),
    "dual_lp_haar_testing": (_evaluate_haar_witness, True, _lp_fold),
    "cube_testing": (_evaluate_cube_witness, False, _cube_fold),
    "a2_lambda": (_evaluate_size_witness, False, None),
    "ap_lambda": (_evaluate_size_witness, False, None),
    "haar_testing_matched": (_evaluate_matrix_witness, False, None),
    "dual_haar_testing_matched": (_evaluate_matrix_witness, False, None),
    "quadratic_offset_ap": (_evaluate_pair_family_witness, False, None),
    "quadratic_subcube_ap": (_evaluate_pair_family_witness, False, None),
    "quadratic_haar_testing": (_evaluate_quadratic_haar_witness, False, None),
}


def reevaluate(report: CharacteristicReport, sigma: MeshMeasure,
               omega: MeshMeasure) -> float:
    """Recompute a report's value from its stored witness.

    The original (sigma, omega) order is always passed here, the dual
    reports' too (`_REGISTRY`). Kernel and truncation parameters are
    rebuilt from the report's search metadata.
    """
    if report.name not in _REGISTRY:
        raise ValueError(f"unknown report name {report.name!r}")
    evaluate, swapped, _ = _REGISTRY[report.name]
    if swapped:
        sigma, omega = omega, sigma
    return evaluate(sigma, omega, report.witness, report.search_space)
