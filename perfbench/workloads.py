"""The benchmark's workloads: each is a fixed list of `haartest` CLI ops.

An op is one fresh `haartest <subcommand>` process, so every op pays the
interpreter start, the package import and cold lru caches, as a user does.
The workload seed sets the CLI `--seed` and shifts the `seed=` of every
`doubling:` measure spec; seed 0 gives the specs listed in README.md.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("chars-2d", "frames-2d", "lab-1d")

# The 2-D grid of the dense-operator and Haar-bound workloads (4096 cells),
# and the tiny grids the self-test substitutes for the full-size ones.
GRID_2D_LEVEL = 6
TINY_2D_LEVEL = 3
TINY_1D_LEVEL = 7  # the experiment op needs L >= 7 (AlignmentError at L=6)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the subcommand plus its flags (without --out)."""

    subcommand: str
    flags: tuple

    def argv(self, out_dir: Path) -> list:
        return [self.subcommand, *self.flags, "--out", str(out_dir)]


def _write_ini(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def _grid_2d(config_dir: Path, tiny: bool) -> str:
    level = TINY_2D_LEVEL if tiny else GRID_2D_LEVEL
    return _write_ini(config_dir / f"grid2d_L{level}.ini",
                      "[grid]\ndimension = 2\nmax_level = %d\n\n"
                      "[kernel]\nfamily = riesz_like\nlambda = 0.5\n" % level)


def _grid_1d_flags(config_dir: Path, tiny: bool) -> tuple:
    """The default 1-D grid (L=10, hilbert) takes no flags; tiny adds a config."""
    if not tiny:
        return ()
    path = _write_ini(config_dir / f"grid1d_L{TINY_1D_LEVEL}.ini",
                      "[grid]\ndimension = 1\nmax_level = %d\n" % TINY_1D_LEVEL)
    return ("--config", path)


def ops_for(workload: str, seed: int, config_dir: Path, tiny: bool = False) -> list:
    """The op list of `workload` at workload seed `seed`."""
    d1, d2 = f"doubling:r=2.0:seed={1 + seed}", f"doubling:r=3.0:seed={2 + seed}"
    run_seed = ("--seed", str(seed))
    if workload == "chars-2d":
        grid = ("--config", _grid_2d(config_dir, tiny))
        return [Op("characteristics", grid + ("--depth", "5", "--measures", f"{d1},{d2}")
                   + run_seed)]
    if workload == "frames-2d":
        grid = ("--config", _grid_2d(config_dir, tiny))
        base = grid + ("--depth", "5", "--measures", f"{d1},lebesgue")
        return [Op("frames", base + ("--p", p) + run_seed) for p in ("3", "1.5")]
    if workload == "lab-1d":
        grid = _grid_1d_flags(config_dir, tiny)
        trials = "20" if tiny else "200"
        measures = ",".join(["power:a=0.3", "power:a=-0.3", d1, d2,
                             "point:sharpness=4", "lebesgue", "lebesgue", "lebesgue"])
        return [
            Op("search", grid + ("--trials", trials) + run_seed),
            Op("experiment", grid + ("--measures", f"{d1},{d2}") + run_seed),
            Op("characteristics", grid + ("--depth", "6", "--measures", measures) + run_seed),
            Op("frames", grid + ("--p", "3", "--depth", "6") + run_seed),
            Op("matrix-demo", grid + run_seed),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
