"""Compare the reports of this checkout with those of a git revision.

    python3 tools/report_diff.py BASE_REV

Extracts BASE_REV with `git archive` into a temporary directory (no network)
and runs, once with each tree's `src/`, the five `haartest` subcommands with
`--depth 4` (acceptance criterion 10's arguments), `characteristics --p 3
--depth 4` (which adds the Lp Haar testing reports and their duals),
`frames --p 1.5 --depth 10` (depth = max_level on the default 1-D grid: the
full-depth transform, and no neighbour band), `characteristics --p 3
--depth 10` (the full-depth operator images, mesh norm, Haar testing and
Lp Haar testing), `characteristics --p 3 --depth 4` on the chars-2d workload's grid
and measures (2-D L=6, riesz_like lambda=0.5: the Lp Haar scans and their
duals in 2-D, on cubes with three wavelets), the same with `--seed 5`
(`seeded-lp-characteristics-2d`: the rotated Lp candidates drawn from a
seed other than 0, so a seed that stops reaching them shows as a
difference), the chars-2d arguments with `--p 1.5` in place of `--p 3`
(`lp15-characteristics-2d`: p below 2, so a dual side scanned at p rather
than at p' shows as a difference), `characteristics --depth 4` on 2-D L=5 with
fractional_integral lambda=0.5 and the chars-2d measures (an even kernel:
the operator is its own adjoint, one kernel-matrix cache entry for both),
`characteristics --depth 8` on 1-D L=12 (4,096 cells, so
each operator-image pass takes four blocks of the window route),
`characteristics --p 3 --depth 8` on the same grid (the Lp Haar scans and
their duals over four blocks), `experiment --p 3 --depth 8` on the same
grid (four blocks per depth-8 pass: the one job whose quadratic Haar family
values are folded over several blocks), `frames --p 3 --depth 8` on the same
grid (`multi-block-frames-1d`: 4,096 cells make 16-row sample blocks, so
each frame check streams its 64 or 32 samples in four or two blocks),
`characteristics --depth 6` on 1-D L=14 with the default measures
(`long-krylov-1d`: the Lebesgue pair's top singular values cluster, so the
operator norm takes 131 Lanczos steps, where the other jobs take at most
33, and a shifted step count or a witness drifting over a long run shows)
and every op of the benchmark workloads at seed 0 (`perfbench/workloads.py` of
this checkout, imported as is). Each run gets its own output directory.

It then compares, run by run, the exit codes, every JSON report with `meta`
left out, and every CSV cell by cell. A string naming a file inside the
run's output directory is compared by its path relative to that directory,
since the directory itself is not a result. A float is compared relative to
the larger of its two values, except in a list under a `coefficients` key (a
witness vector, such as the operator norm's unit Lanczos vector), whose
entries are compared relative to the largest magnitude in either list: a
vector's small entries carry the rounding of its large ones. For each report
it prints the largest relative float difference, every float difference
above 1e-12 relative (its place and both values) and every non-float
difference. It exits 1 when a non-float value differs or a float differs by
more than 1e-12 relative, and 0 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, ops_for  # noqa: E402

REL_TOL = 1e-12
SUBCOMMANDS = ("characteristics", "experiment", "search", "frames", "matrix-demo")


def extract(rev: str, dest: Path) -> None:
    """Write the tree of `rev` into `dest`."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def jobs(config_dir: Path) -> list:
    """(label, argv without --out) of every run."""
    out = [(f"c10-{cmd}", [cmd, "--depth", "4"]) for cmd in SUBCOMMANDS]
    out.append(("lp-characteristics", ["characteristics", "--p", "3", "--depth", "4"]))
    out.append(("full-depth-frames", ["frames", "--p", "1.5", "--depth", "10"]))
    out.append(("full-depth-lp-characteristics",
                ["characteristics", "--p", "3", "--depth", "10"]))
    flags = list(ops_for("chars-2d", 0, config_dir)[0].flags)
    flags[flags.index("--depth") + 1] = "4"
    out.append(("lp-characteristics-2d", ["characteristics", *flags, "--p", "3"]))
    out.append(("seeded-lp-characteristics-2d",
                ["characteristics", *flags, "--p", "3", "--seed", "5"]))
    out.append(("lp15-characteristics-2d", ["characteristics", *flags, "--p", "1.5"]))
    grid = config_dir / "grid2d_L5.ini"
    grid.parent.mkdir(parents=True, exist_ok=True)
    grid.write_text("[grid]\ndimension = 2\nmax_level = 5\n")
    flags[flags.index("--config") + 1] = str(grid)
    out.append(("self-adjoint-characteristics-2d",
                ["characteristics", *flags, "--kernel", "fractional_integral",
                 "--lambda", "0.5"]))
    grid = config_dir / "grid1d_L12.ini"
    grid.write_text("[grid]\ndimension = 1\nmax_level = 12\n")
    out.append(("multi-block-characteristics-1d",
                ["characteristics", "--config", str(grid), "--depth", "8"]))
    out.append(("multi-block-lp-characteristics-1d",
                ["characteristics", "--config", str(grid), "--p", "3", "--depth", "8"]))
    out.append(("multi-block-lp-experiment-1d",
                ["experiment", "--config", str(grid), "--p", "3", "--depth", "8"]))
    out.append(("multi-block-frames-1d",
                ["frames", "--config", str(grid), "--p", "3", "--depth", "8"]))
    grid = config_dir / "grid1d_L14.ini"
    grid.write_text("[grid]\ndimension = 1\nmax_level = 14\n")
    out.append(("long-krylov-1d", ["characteristics", "--config", str(grid), "--depth", "6"]))
    for workload in WORKLOADS:
        for i, op in enumerate(ops_for(workload, 0, config_dir)):
            out.append((f"{workload}-{i}-{op.subcommand}",
                        [op.subcommand, *op.flags]))
    return out


def run_tree(tree: Path, argv: list, out_dir: Path) -> int:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "haartest.cli", *argv,
                           "--out", str(out_dir)],
                          cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode


def _relative_paths(obj, prefix: str, where: str, moved: list):
    """obj with every string that starts with prefix (the output directory)
    cut to the rest; the places cut are appended to moved."""
    if isinstance(obj, dict):
        return {k: _relative_paths(v, prefix, f"{where}.{k}", moved)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [_relative_paths(v, prefix, f"{where}[{i}]", moved)
                for i, v in enumerate(obj)]
    if isinstance(obj, str) and obj.startswith(prefix):
        moved.append(where)
        return obj[len(prefix):]
    return obj


def _as_float(value):
    """A float for JSON numbers and numeric CSV cells, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _largest(values: list) -> float:
    """The largest finite magnitude among the numbers in values, 0 if none."""
    nums = (_as_float(v) for v in values)
    return max((abs(x) for x in nums if x is not None and math.isfinite(x)), default=0.0)


def compare(a, b, where: str, diffs: list, floats: list, scale: float = 0.0) -> tuple:
    """(largest relative float difference between a and b, where it is);
    non-float differences, and float differences above REL_TOL, are appended
    to diffs and floats as text. A float difference is taken relative to
    scale when it is positive, else to the larger of the two values; the
    entries of a list under a `coefficients` key take the largest magnitude
    in either list as their scale."""
    worst = (0.0, "")
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                diffs.append(f"{where}.{key}: only in {'base' if key in a else 'change'}")
                continue
            vector = key == "coefficients" and isinstance(a[key], list) and isinstance(b[key], list)
            worst = max(worst, compare(a[key], b[key], f"{where}.{key}", diffs, floats,
                                       _largest(a[key] + b[key]) if vector else 0.0))
        return worst
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{where}: length {len(a)} != {len(b)}")
            return worst
        for i, (x, y) in enumerate(zip(a, b)):
            worst = max(worst, compare(x, y, f"{where}[{i}]", diffs, floats, scale))
        return worst
    fa, fb = _as_float(a), _as_float(b)
    float_like = isinstance(a, float) or isinstance(b, float) or isinstance(a, str)
    if a == b:
        return worst
    if fa is not None and fb is not None and float_like:
        if math.isfinite(fa) and math.isfinite(fb):
            rel = abs(fa - fb) / (scale or max(abs(fa), abs(fb)))
            if rel > REL_TOL:
                floats.append(f"{where}: {a!r} != {b!r} (relative {rel:.3g})")
            return rel, where
        if not (math.isnan(fa) and math.isnan(fb)):
            diffs.append(f"{where}: {a!r} != {b!r}")
        return worst
    diffs.append(f"{where}: {a!r} != {b!r}")
    return worst


def load(path: Path, out_dir: Path, moved: list):
    """A report without meta, or a CSV as a list of rows."""
    if path.suffix == ".json":
        body = json.loads(path.read_text())
        body.pop("meta", None)
        return _relative_paths(body, str(out_dir) + os.sep, "", moved)
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    rev = parser.parse_args().base_rev
    failed = False
    overall = 0.0
    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base.mkdir()
        extract(rev, base)
        trees = {"base": base, "change": ROOT}
        for label, argv in jobs(tmp / "config"):
            outs = {name: tmp / name / label for name in trees}
            codes = {name: run_tree(tree, argv, outs[name])
                     for name, tree in trees.items()}
            if codes["base"] != codes["change"]:
                failed = True
                print(f"{label}: exit code {codes['base']} != {codes['change']}")
            files = {name: {p.name for p in out.glob("*")
                            if p.suffix in (".json", ".csv")}
                     for name, out in outs.items()}
            for fname in sorted(files["base"] | files["change"]):
                if fname not in files["base"] or fname not in files["change"]:
                    failed = True
                    side = "base" if fname in files["base"] else "change"
                    print(f"{label}/{fname}: only in {side}")
                    continue
                moved = {name: [] for name in trees}
                a = load(outs["base"] / fname, outs["base"], moved["base"])
                b = load(outs["change"] / fname, outs["change"], moved["change"])
                diffs: list = []
                floats: list = []
                worst, at = compare(a, b, "", diffs, floats)
                overall = max(overall, worst)
                print(f"{label}/{fname}: max relative float difference {worst:.3g}"
                      + (f" at {at}" if worst > 0.0 else ""))
                for name, places in moved.items():
                    for place in places:
                        print(f"  {name}: output-directory path made relative at {place}")
                for line in floats:
                    print(f"  float: {line}")
                for line in diffs:
                    print(f"  non-float: {line}")
                failed = failed or bool(diffs) or worst > REL_TOL
    verdict = "FAIL" if failed else "ok"
    print(f"{verdict}: largest relative float difference {overall:.3g} "
          f"(tolerance {REL_TOL:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
