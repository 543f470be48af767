"""Batch driver: build measures, run characteristics and experiments, emit reports.

Subcommands: characteristics, experiment, search, frames, matrix-demo.
Values resolve as defaults < config file (INI sections) < command-line flags;
every JSON report embeds the fully resolved configuration of the inputs that
decide its results, and identical configurations with the same seed produce
byte-identical reports apart from meta, which holds the generated_at time
and the output directory.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .characteristics import a2_lambda, pair_bundle
from .dyadic import Grid, MeshExhaustedError
from .experiments import (
    AlignmentError,
    SignDominanceError,
    a2_lower_bound_experiment,
    counterexample_search,
    dipole_family_levels,
    halo_cover,
    matrix_counterexample,
    MatrixCounterexampleConfig,
    quadratic_ap_experiment,
    select_delta,
    triple_absorption_experiment,
)
from .frames import banach_frame_check, hilbert_frame_bounds, lp_square_function_bounds
from .haar import cached_system
from .measure import (
    DegenerateMeasureError,
    lebesgue,
    load_measure_csv,
    near_point_mass,
    power_weight,
    random_dyadic_doubling,
)
from .operators import (
    KERNEL_FAMILIES,
    Truncation,
    TruncationError,
    default_truncation,
    make_kernel,
)

COMMANDS = ("characteristics", "experiment", "search", "frames", "matrix-demo")


class ConfigError(ValueError):
    """Invalid run configuration; message lists field-level problems."""


@dataclass
class RunConfig:
    """Fully resolved run parameters for one CLI invocation."""

    command: str
    dimension: int = 1
    max_level: int | None = None
    side: float = 1.0
    origin: tuple | None = None
    shift: tuple | None = None
    kernel: str = "hilbert"
    lam: float = 0.0
    eps: float | None = None
    rmax: float | None = None
    measures: str = "lebesgue,lebesgue"
    p: float = 2.0
    depth: int = 6
    seed: int = 0
    trials: int = 50
    gamma: float = 0.6
    ladder: str = "10:20"
    out: str | None = None

    def validate(self) -> list:
        problems = []
        if self.command not in COMMANDS:
            problems.append(f"command: must be one of {COMMANDS}, got {self.command!r}")
        if self.dimension < 1:
            problems.append(f"dimension: must be >= 1, got {self.dimension}")
        if self.kernel not in KERNEL_FAMILIES:
            problems.append(f"kernel: must be one of {KERNEL_FAMILIES}, got {self.kernel!r}")
        if not 0.0 <= self.lam < self.dimension:
            problems.append(f"lambda: must lie in [0, dimension), got {self.lam}")
        if self.eps is not None and self.eps <= 0:
            problems.append(f"eps: must be positive, got {self.eps}")
        if self.rmax is not None and self.rmax <= 0:
            problems.append(f"r: must be positive, got {self.rmax}")
        if not self.p > 1.0:
            problems.append(f"p: must exceed 1, got {self.p}")
        if self.depth < 1:
            problems.append(f"depth: must be >= 1, got {self.depth}")
        if self.trials < 1:
            problems.append(f"trials: must be >= 1, got {self.trials}")
        if not 0.5 < self.gamma <= 0.75:
            problems.append(f"gamma: must lie in (0.5, 0.75], got {self.gamma}")
        parts = [m.strip() for m in self.measures.split(",") if m.strip()]
        if not parts or len(parts) % 2 != 0:
            problems.append(
                f"measures: need a comma list of sigma,omega pairs, got {self.measures!r}"
            )
        try:
            self.ladder_exponents()
        except ValueError as exc:
            problems.append(f"ladder: {exc}")
        return problems

    def ladder_exponents(self) -> tuple:
        lo, sep, hi = self.ladder.partition(":")
        if not sep:
            raise ValueError(f"expected lo:hi, got {self.ladder!r}")
        a, b = int(lo), int(hi)
        if b <= a:
            raise ValueError(f"need lo < hi, got {self.ladder!r}")
        return tuple(range(a, b + 1))

    def grid(self) -> Grid:
        return Grid(dimension=self.dimension, origin=self.origin, side=self.side,
                    shift=self.shift, max_level=self.max_level)

    def resolved(self) -> dict:
        """Every field that decides results; the output directory is not one."""
        data = asdict(self)
        del data["out"]
        data["origin"] = list(self.origin) if self.origin is not None else None
        data["shift"] = list(self.shift) if self.shift is not None else None
        return data

    def out_dir(self) -> Path:
        if self.out:
            return Path(self.out)
        env = os.environ.get("HAARTEST_OUT_DIR")
        return Path(env) if env else Path(".")


def parse_measure(grid: Grid, spec: str):
    """One measure from a spec string like power:a=0.5:center=0."""
    head, _, rest = spec.partition(":")
    head = head.strip()
    if head == "csv":
        if not rest:
            raise ConfigError("measures: csv spec needs a path, csv:PATH")
        return load_measure_csv(grid, rest)
    params = {}
    for item in filter(None, (s.strip() for s in rest.split(":"))):
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"measures: expected key=value in {spec!r}, got {item!r}")
        params[key.strip()] = val.strip()
    try:
        if head == "lebesgue":
            return lebesgue(grid)
        if head == "power":
            a = float(params.pop("a"))
            center = params.pop("center", None)
            center_t = (float(center),) * grid.dimension if center is not None else None
            _reject_extras(spec, params)
            return power_weight(grid, a, center=center_t)
        if head == "doubling":
            r = float(params.pop("r", 2.0))
            seed = int(params.pop("seed", 0))
            _reject_extras(spec, params)
            return random_dyadic_doubling(grid, r, seed=seed)
        if head == "point":
            sharpness = float(params.pop("sharpness", 4.0))
            _reject_extras(spec, params)
            return near_point_mass(grid, sharpness)
    except KeyError as exc:
        raise ConfigError(f"measures: {spec!r} is missing required key {exc}") from exc
    raise ConfigError(
        f"measures: unknown family {head!r}; choose lebesgue, power, doubling, point, csv"
    )


def _reject_extras(spec: str, params: dict) -> None:
    if params:
        raise ConfigError(f"measures: unknown keys {sorted(params)} in {spec!r}")


def measure_pairs(cfg: RunConfig, grid: Grid) -> list:
    parts = [m.strip() for m in cfg.measures.split(",") if m.strip()]
    pairs = []
    for i in range(0, len(parts), 2):
        pairs.append(
            (parts[i], parts[i + 1],
             parse_measure(grid, parts[i]), parse_measure(grid, parts[i + 1]))
        )
    return pairs


def build_truncation(cfg: RunConfig, grid: Grid) -> Truncation:
    if cfg.eps is None and cfg.rmax is None:
        return default_truncation(grid)
    eps = cfg.eps if cfg.eps is not None else 4.0 * grid.cell_side
    rmax = cfg.rmax if cfg.rmax is not None else 4.0 * grid.side
    return Truncation(eps=eps, rmax=rmax)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_report(cfg: RunConfig, name: str, results: dict) -> Path:
    out_dir = cfg.out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    body = {
        "meta": {"generated_at": _now(), "tool": "haartest", "version": __version__,
                 "out": str(out_dir)},
        "config": cfg.resolved(),
        "results": results,
    }
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(body, sort_keys=True, indent=2) + "\n")
    return path


# report name -> its key in a characteristics pair, where the two differ
_PAIR_KEYS = {"dual_haar_testing": "haar_testing_dual",
              "dual_lp_haar_testing": "lp_haar_testing_dual"}


def _characteristic_bundle(cfg: RunConfig, s_spec: str, o_spec: str,
                           sigma, omega) -> dict:
    grid = sigma.grid
    kernel = make_kernel(cfg.kernel, cfg.lam, grid.dimension)
    trunc = build_truncation(cfg, grid)
    depth = min(cfg.depth, grid.max_level)
    names = ("operator_norm", "haar_testing", "dual_haar_testing", "cube_testing")
    if cfg.p != 2.0:
        names += ("lp_haar_testing", "dual_lp_haar_testing")
    reports = pair_bundle(sigma, omega, kernel, trunc, depth, names, cfg.p, cfg.seed)
    out = {"sigma": s_spec, "omega": o_spec,
           "a2": a2_lambda(sigma, omega, cfg.lam, depth=depth).as_dict()}
    out.update({_PAIR_KEYS.get(name, name): rep.as_dict() for name, rep in reports.items()})
    # no ratio, and no gate, where both testing constants are 0
    denom = reports["haar_testing"].value + reports["dual_haar_testing"].value
    out["ratio"] = reports["operator_norm"].value / denom if denom > 0 else None
    return out


def run_characteristics(cfg: RunConfig) -> tuple:
    grid = cfg.grid()
    rows = [_characteristic_bundle(cfg, *pair) for pair in measure_pairs(cfg, grid)]
    print(f"{'pair':<6}{'sigma':<24}{'omega':<24}{'norm':>10}{'haar':>10}"
          f"{'dual':>10}{'ratio':>10}")
    for i, row in enumerate(rows):
        # a spec that fills its column still keeps one space before the next
        print(f"{i:<6}{row['sigma']:<23} {row['omega']:<23} "
              f"{row['operator_norm']['value']:>10.4f}"
              f"{row['haar_testing']['value']:>10.4f}"
              f"{row['haar_testing_dual']['value']:>10.4f}"
              f"{'-' if row['ratio'] is None else format(row['ratio'], '.4f'):>10}")
    print("note: norm is the operator norm on the mesh; testing values scan the dyadic "
          "cubes down to the depth; see each search_space field for what was searched.")
    failing = [f"pair {i} ratio below 1/2" for i, row in enumerate(rows)
               if row["ratio"] is not None and row["ratio"] < 0.5 - 1e-9]
    return {"pairs": rows}, failing


def run_experiment(cfg: RunConfig) -> tuple:
    grid = cfg.grid()
    pairs = measure_pairs(cfg, grid)
    s_spec, o_spec, sigma, omega = pairs[0]
    delta_cap = 0.125  # quadratic_ap_experiment's widest cone: check its grid before any trial
    dipole_family_levels(grid, delta_cap)
    kernel = make_kernel(cfg.kernel, cfg.lam, grid.dimension)
    trunc = build_truncation(cfg, grid)
    last_error = None
    for base in range(2, grid.max_level - 2):
        try:
            delta, _, diff_report = select_delta(
                grid, kernel, trunc, grid.cube(base, (0,) * grid.dimension), seed=cfg.seed)
            break
        except (AlignmentError, TruncationError) as exc:
            last_error = exc
    else:
        raise AlignmentError(f"no base level admits an aligned configuration: {last_error}")
    depth = min(cfg.depth, grid.max_level - 1)
    lower = a2_lower_bound_experiment(sigma, omega, kernel, trunc,
                                      trials=cfg.trials, seed=cfg.seed,
                                      testing_depth=depth)
    absorption = triple_absorption_experiment(sigma, omega, kernel, trunc,
                                              depth=min(depth, 5), seed=cfg.seed)
    quad = quadratic_ap_experiment(sigma, omega, kernel, trunc, p=cfg.p, seed=cfg.seed,
                                   delta=min(delta, delta_cap), control_depth=depth)
    box_lower = tuple(float(t) for t in grid.window_lower + 0.4 * grid.side)
    cover = halo_cover(sigma, (box_lower, 0.25 * grid.side), 0.1, 0.9)
    cover_check = cover.recompute(sigma)
    results = {
        "sigma": s_spec,
        "omega": o_spec,
        "accepted_delta": delta,
        "base_level": base,
        "kernel_difference": diff_report.as_dict(),
        "a2_lower_bound": lower.as_dict(),
        "triple_absorption": absorption.as_dict(),
        "quadratic_ap": quad.as_dict(),
        "halo_cover": {
            "keys": list(cover.keys),
            "t": cover.t,
            "count": cover.count,
            "leftover": cover.leftover,
            "recompute": cover_check,
        },
    }
    failing = [name for name, rep in
               (("a2_lower_bound", lower), ("quadratic_ap", quad))
               if not rep.passed]
    if not (cover_check["contained"] and cover_check["disjoint"]
            and cover_check["leftover_ok"]):
        failing.append("halo_cover recomputation")
    return results, failing


def run_search(cfg: RunConfig) -> tuple:
    grid = cfg.grid()
    kernel = make_kernel(cfg.kernel, cfg.lam, grid.dimension)
    trunc = build_truncation(cfg, grid)
    depth = min(cfg.depth, grid.max_level, 4)
    report = counterexample_search(grid, kernel, trunc, iterations=cfg.trials,
                                   seed=cfg.seed, depth=depth)
    out_dir = cfg.out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "search_leaderboard.csv"
    fields = ["rank", "ratio", "norm", "testing", "dual_testing",
              "doubling_sigma", "doubling_omega", "kind", "hash"]
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for rank, row in enumerate(report.details["leaderboard"]):
            writer.writerow([rank] + [row[k] for k in fields[1:]])
    print(f"best ratio {report.value:.6f} over {cfg.trials} iterations "
          f"(leaderboard: {csv_path})")
    return {"search": report.as_dict(), "leaderboard_csv": csv_path.name}, []


def run_frames(cfg: RunConfig) -> tuple:
    grid = cfg.grid()
    pairs = measure_pairs(cfg, grid)
    _, _, mu, _ = pairs[0]
    depth = min(cfg.depth, grid.max_level)
    parseval = hilbert_frame_bounds(cached_system(mu, grid.max_level), mu,
                                    sample_count=64, seed=cfg.seed)
    square = lp_square_function_bounds(mu, cfg.p, depth, sample_count=64,
                                       seed=cfg.seed)
    triple = banach_frame_check(mu, cfg.p, depth, sample_count=32, seed=cfg.seed)
    results = {
        "hilbert_frame_bounds": parseval.as_dict(),
        "lp_square_function_bounds": square.as_dict(),
        "banach_frame_check": triple.as_dict(),
    }
    failing = []
    if abs(parseval.lower - 1.0) > 1e-9 or abs(parseval.upper - 1.0) > 1e-9:
        failing.append("hilbert_frame_bounds Parseval")
    if not triple.passed:
        failing.append("banach_frame_check")
    return results, failing


def run_matrix_demo(cfg: RunConfig) -> tuple:
    report = matrix_counterexample(
        MatrixCounterexampleConfig(gamma=cfg.gamma,
                                   ladder_exponents=cfg.ladder_exponents())
    )
    out_dir = cfg.out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "matrix_growth.csv"
    growth = report.details["growth"]
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "growth"])
        for key in sorted(growth, key=int):
            writer.writerow([key, growth[key]])
    print(f"{'N':>10}{'growth':>14}")
    for key in sorted(growth, key=int):
        print(f"{key:>10}{growth[key]:>14.6f}")
    failing = [] if report.passed else ["matrix growth ladder"]
    return {"matrix": report.as_dict(), "growth_csv": csv_path.name}, failing


_RUNNERS = {
    "characteristics": run_characteristics,
    "experiment": run_experiment,
    "search": run_search,
    "frames": run_frames,
    "matrix-demo": run_matrix_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haartest",
        description="Weighted Haar testing constants, experiments, and frames.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="INI file with [grid], [kernel], [run] sections")
    parser.add_argument("--kernel", choices=KERNEL_FAMILIES)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--r", dest="rmax", type=float)
    parser.add_argument("--measures")
    parser.add_argument("--p", type=float)
    parser.add_argument("--depth", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--out")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--ladder", help="exponent range lo:hi for the growth ladder")
    return parser


def _floats(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(","))


_GRID_KEYS = {"dimension": int, "max_level": int, "side": float, "origin": _floats,
              "shift": _floats}
_KERNEL_KEYS = {"family": str, "lambda": float, "eps": float, "r": float}
_RUN_KEYS = {"measures": str, "p": float, "depth": int, "seed": int,
             "trials": int, "gamma": float, "ladder": str, "out": str}
_FIELD_OF = {"family": "kernel", "lambda": "lam", "r": "rmax"}


def _config_values(path: str) -> dict:
    parser = configparser.ConfigParser()
    values: dict = {}
    try:
        if not parser.read(path):
            raise ConfigError(f"config: cannot read {path!r}")
        for section, keys in (("grid", _GRID_KEYS), ("kernel", _KERNEL_KEYS),
                              ("run", _RUN_KEYS)):
            if not parser.has_section(section):
                continue
            for key, raw in parser.items(section):
                if key not in keys:
                    raise ConfigError(f"config: unknown key {key!r} in [{section}]")
                try:
                    values[_FIELD_OF.get(key, key)] = keys[key](raw)
                except ValueError as exc:
                    raise ConfigError(f"config: bad value for {section}.{key}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot parse {path!r}: {exc}") from exc
    return values


def resolve_config(argv=None) -> RunConfig:
    flags = vars(build_parser().parse_args(argv))
    command, config = flags.pop("command"), flags.pop("config")
    values: dict = _config_values(config) if config else {}
    values.update({name: flag for name, flag in flags.items() if flag is not None})
    cfg = RunConfig(command=command, **values)
    problems = cfg.validate()
    if problems:
        raise ConfigError("; ".join(problems))
    return cfg


def main(argv=None) -> int:
    try:
        cfg = resolve_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        results, failing = _RUNNERS[cfg.command](cfg)
        path = write_report(cfg, cfg.command.replace("-", "_"), results)
    except (AlignmentError, SignDominanceError, TruncationError,
            MeshExhaustedError, DegenerateMeasureError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"report: {path}")
    if failing:
        print("failed checks: " + "; ".join(failing), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
