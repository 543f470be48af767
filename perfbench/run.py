"""haartest benchmark: drive the `haartest` CLI in a closed loop.

Usage (from the root of a checkout that holds `src/haartest`):

    python3 perfbench/run.py --workload chars-2d --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 0

One client runs the workload's op list again and again, one op at a time,
until `--seconds` have passed (always at least one list). Each op is a fresh
`python3 -m haartest.cli` process. After the loop, a separate child checks
every op's output (checks.py). The benchmark process itself imports neither
numpy nor the package: on Linux a child's peak RSS starts from its parent's,
so a large parent would show in every op's `peak_rss_mb`.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` each repetition runs the list untraced and then traced
(tracer.py), and the last line holds the per-layer metrics. Either way a
full record with run metadata is appended to `.perfbench_out/records.jsonl`.
`--workload all` runs every workload untraced and prints each end-to-end
metric by name and unit, plus `fail_ratio` and `checks_failed`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import count_failed_checks, read_report  # noqa: E402
from workloads import WORKLOADS, ops_for  # noqa: E402

OUT_DIR = ".perfbench_out"
# Fresh-interpreter imports timed for `setup_s` per untraced op list, spread
# over its ops, plus one more burst after the loop: the samples then see the
# same machine-speed drift as the ops.
SETUP_PER_LIST = 6

# Per-layer metrics (`--trace 1`); BENCHMARK.json lists the same names.
LAYER_SELF = ("operators", "characteristics", "haar", "frames", "experiments",
              "dyadic", "measure", "cli")
FUNCTION_SELF = (
    "operators.kernel_matrix", "operators.assemble_haar_matrix",
    "characteristics.cube_testing", "characteristics.haar_testing",
    "characteristics.operator_norm",
    "haar.build_system", "haar.HaarSystem.expand",
    "frames.lp_square_function_bounds", "frames.banach_frame_check",
    "experiments.counterexample_search", "experiments.a2_lower_bound_experiment",
    "experiments.triple_absorption_experiment", "experiments.halo_cover",
    "measure.doubling_constant",
)
FUNCTION_CALLS = ("operators.apply", "haar.build_system")
SUBCOMMANDS = ("characteristics", "experiment", "search", "frames", "matrix-demo")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no package source, wrong import)."""


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


# -- environment and metadata -------------------------------------------------

def prepare(root: Path) -> dict:
    """Child environment that imports `haartest` from the checkout's src/."""
    src = root / "src"
    if not (src / "haartest" / "cli.py").is_file():
        raise SetupError(f"no haartest source under {src}; run from the root of a checkout")
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("HAARTEST_OUT_DIR", None)
    return env


def _first_line_with(path: str, prefix: str):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _read(path: str):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def run_metadata(root: Path, seed: int, probe: dict) -> dict:
    """Machine and software facts; records that differ here are not one series."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "haartest").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line_with("/proc/cpuinfo", "model name"),
        "l3_cache": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "blas_default_threads": probe["blas_default_threads"],
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                       "OMP_NUM_THREADS") if k in os.environ},
        "workload_seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- running ops -----------------------------------------------------------------

def run_process(cmd: list, env: dict, cwd: Path, stdout_path: Path, stderr_path: Path) -> dict:
    """Run one child to completion; wall time and its own peak RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall,
            "maxrss_mb": usage.ru_maxrss * 1024 / 1e6}


def probe_import(env: dict, root: Path, work: Path) -> dict:
    """Import haartest.cli once in a child, which also writes the bytecode cache.

    Returns the child's numpy and BLAS facts (probe.py).
    """
    res = run_process([sys.executable, str(HERE / "probe.py")], env, root,
                      work / "probe.out", work / "probe.err")
    try:
        probe = json.loads((work / "probe.out").read_text())
    except (OSError, ValueError):
        probe = None
    if res["returncode"] != 0 or probe is None:
        tail = (work / "probe.err").read_text(errors="replace")[-400:]
        raise SetupError(f"a child cannot import haartest.cli: {tail}")
    if not Path(probe["haartest_file"]).resolve().is_relative_to(root / "src"):
        raise SetupError(f"haartest imports from {probe['haartest_file']}, "
                         f"not from {root / 'src'}")
    return probe


def measure_setup(env: dict, root: Path, work: Path, count: int) -> list:
    """Wall times of `count` fresh interpreters that import haartest.cli and exit."""
    return [run_process([sys.executable, "-c", "import haartest.cli"], env, root,
                        work / "setup.out", work / "setup.err")["wall_s"]
            for _ in range(count)]


class Runner:
    """Runs one workload's op lists in a closed loop and checks their outputs."""

    def __init__(self, root: Path, env: dict, workload: str, seed: int, tiny: bool):
        self.root, self.env, self.workload, self.seed = root, env, workload, seed
        self.work = root / OUT_DIR / f"run-{os.getpid()}"
        self.spans_dir = root / OUT_DIR / "spans"
        self.ops = ops_for(workload, seed, self.work / "config", tiny)
        self.setup_per_op = math.ceil(SETUP_PER_LIST / len(self.ops))

    def run_list(self, traced: bool, setup: list | None = None) -> list:
        """One pass over the op list; with `setup`, time imports before each op into it."""
        results = []
        for i, op in enumerate(self.ops):
            if setup is not None:
                setup += measure_setup(self.env, self.root, self.work, self.setup_per_op)
            # Start from an empty out dir and no summary, so nothing an earlier
            # list left behind can pass for this op's output.
            out_dir = self.work / f"op{i}"
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            prefix = self.spans_dir / f"{self.workload}-op{i}"
            if traced:
                prefix.parent.mkdir(parents=True, exist_ok=True)
                Path(f"{prefix}.summary.json").unlink(missing_ok=True)
                cmd = [sys.executable, str(HERE / "tracer.py"), str(prefix),
                       f"{self.workload}/{i}", "--", *op.argv(out_dir)]
            else:
                cmd = [sys.executable, "-m", "haartest.cli", *op.argv(out_dir)]
            res = run_process(cmd, self.env, self.root,
                              out_dir / "stdout.txt", out_dir / "stderr.txt")
            stderr = (out_dir / "stderr.txt").read_text(errors="replace")
            res.update(index=i, subcommand=op.subcommand, traced=traced,
                       checks_failed=count_failed_checks(stderr),
                       stderr_tail=stderr[-400:],
                       report=read_report(out_dir, op.subcommand))
            if traced:
                res["trace"] = _load_summary(prefix)
            results.append(res)
        return results

    def check(self, ops: list) -> list:
        """Problems for each op result, from one checks.py child."""
        entries = [{"op": r["index"], "subcommand": r["subcommand"],
                    "returncode": r["returncode"], "report": r["report"]} for r in ops]
        (self.work / "checks_in.json").write_text(json.dumps(entries))
        res = run_process([sys.executable, str(HERE / "checks.py"),
                           str(self.work / "checks_in.json"), str(self.work / "checks_out.json")],
                          self.env, self.root, self.work / "checks.out", self.work / "checks.err")
        try:
            problems = json.loads((self.work / "checks_out.json").read_text())
        except (OSError, ValueError):
            problems = None
        if res["returncode"] != 0 or problems is None or len(problems) != len(ops):
            tail = (self.work / "checks.err").read_text(errors="replace")[-400:]
            return [[f"output checks did not run: {tail}"]] * len(ops)
        return problems


def _load_summary(prefix: Path):
    try:
        return json.loads(Path(f"{prefix}.summary.json").read_text())
    except (OSError, ValueError):
        return None


# -- metrics ---------------------------------------------------------------------

def cpu_steal_s() -> float:
    """CPU time the hypervisor took from this machine so far (0 if unknown)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _list_wall(results: list) -> float:
    return sum(r["wall_s"] for r in results)


def layer_metrics(traced: list, untraced: list) -> tuple:
    """Per-layer metrics of one traced op list, and the names found absent."""
    wrapped: set = set()
    functions: dict = {}
    layers: dict = {}
    caches: dict = {}
    array_bytes: dict = {}
    trace_ok = all(r.get("trace") for r in traced)
    for r in traced:
        t = r.get("trace") or {"wrapped": [], "functions": {}, "layers": {},
                               "caches": {}, "array_bytes": {}}
        wrapped.update(t["wrapped"])
        for bucket, part in ((functions, t["functions"]), (layers, t["layers"])):
            for key, stats in part.items():
                acc = bucket.setdefault(key, {})
                for stat, value in stats.items():
                    acc[stat] = acc.get(stat, 0) + value
        for key, stats in t["caches"].items():
            acc = caches.setdefault(key, {"hits": 0, "misses": 0})
            acc["hits"] += stats["hits"]
            acc["misses"] += stats["misses"]
        for key, nbytes in t["array_bytes"].items():
            array_bytes[key] = array_bytes.get(key, 0) + nbytes

    metrics: dict = {}
    absent: list = []

    def put(name, value, present=True):
        metrics[name] = float(value) if present else 0.0
        if not present:
            absent.append(name)

    def fn_stat(fn, stat):
        return functions.get(fn, {}).get(stat, 0)

    def hit_ratio(stats):
        total = stats["hits"] + stats["misses"]
        return stats["hits"] / total if total else 0.0

    for layer in LAYER_SELF:
        put(f"{layer}.self_s", layers.get(layer, {}).get("self_s", 0.0), trace_ok)
    for fn in FUNCTION_SELF:
        put(f"{fn}.self_s", fn_stat(fn, "self_s"), fn in wrapped)
    for fn in FUNCTION_CALLS:
        put(f"{fn}.calls", fn_stat(fn, "calls"), fn in wrapped)
    put("dyadic.calls", layers.get("dyadic", {}).get("calls", 0), trace_ok)

    km = "operators.kernel_matrix"
    if km in caches:
        put(f"{km}.builds", caches[km]["misses"])
        put(f"{km}.hit_ratio", hit_ratio(caches[km]))
    else:
        put(f"{km}.builds", fn_stat(km, "calls"), km in wrapped)
        put(f"{km}.hit_ratio", 0.0, False)
    put(f"{km}.mb", array_bytes.get(km, 0) / 1e6, km in wrapped)
    vm = "haar.HaarSystem.values_matrix"
    put(f"{vm}.mb", array_bytes.get(vm, 0) / 1e6, vm in wrapped)

    cs = "haar.cached_system"
    put(f"{cs}.hit_ratio", hit_ratio(caches[cs]) if cs in caches else 0.0, cs in caches)
    search = [r for r in traced if r["subcommand"] == "search" and r.get("trace")]
    search_caches = [r["trace"]["caches"].get(cs) for r in search]
    present = bool(search_caches) and all(search_caches)
    put(f"{cs}.search_hit_ratio",
        hit_ratio({"hits": sum(c["hits"] for c in search_caches),
                   "misses": sum(c["misses"] for c in search_caches)}) if present else 0.0,
        present)

    iterations, scanned = _report_counts(traced)
    put("characteristics.operator_norm.iterations", iterations or 0, iterations is not None)
    put("characteristics.cube_testing.cubes_scanned", scanned or 0, scanned is not None)

    for sub in SUBCOMMANDS:
        runs = [r for r in untraced if r["subcommand"] == sub]
        put(f"cli.{sub}.wall_s", _list_wall(runs), bool(runs))
    put("cli.checks_failed", sum(r["checks_failed"] for r in untraced))
    put("trace.overhead_s", _list_wall(traced) - _list_wall(untraced))
    return metrics, absent


def _report_counts(results: list) -> tuple:
    """Power-iteration counts and scanned cubes, from the reports' search_space."""
    iterations = scanned = None
    for r in results:
        if r["subcommand"] != "characteristics" or not isinstance(r["report"], dict):
            continue
        for pair in r["report"].get("results", {}).get("pairs", []):
            space = pair.get("operator_norm", {}).get("search_space", {})
            if "iterations" in space:
                iterations = (iterations or 0) + int(space["iterations"])
            space = pair.get("cube_testing", {}).get("search_space", {})
            if "cubes_scanned" in space:
                scanned = (scanned or 0) + int(space["cubes_scanned"])
    return iterations, scanned


# -- one workload ------------------------------------------------------------------

def run_workload(root: Path, env: dict, workload: str, seed: int, seconds: float,
                 trace: bool, tiny: bool = False) -> dict:
    runner = Runner(root, env, workload, seed, tiny)
    runner.work.mkdir(parents=True, exist_ok=True)
    try:
        probe = probe_import(env, root, runner.work)
        setup = None if trace else []
        lists = []  # (untraced results, traced results or None)
        steal = cpu_steal_s()
        start = time.perf_counter()
        while True:
            untraced = runner.run_list(traced=False, setup=setup)
            lists.append((untraced, runner.run_list(traced=True) if trace else None))
            if time.perf_counter() - start >= seconds:
                break
        if setup is not None:
            setup += measure_setup(env, root, runner.work, SETUP_PER_LIST)
        steal = cpu_steal_s() - steal
        ops = [r for pair in lists for part in pair if part for r in part]
        for r, problems in zip(ops, runner.check(ops)):
            r["problems"] = problems
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    failed = sum(1 for r in ops if r["problems"])
    record = {
        "probe": probe, "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "lists": len(lists), "cpu_steal_s": steal,
        "attempted": len(ops), "failed": failed, "fail_ratio": failed / len(ops),
        "checks_failed": sum(r["checks_failed"] for r in lists[0][0]),
        "ops": [{k: r[k] for k in ("index", "subcommand", "traced", "returncode", "wall_s",
                                   "maxrss_mb", "checks_failed", "problems", "stderr_tail")}
                for r in ops],
    }
    if trace:
        per_list = [layer_metrics(traced, untraced) for untraced, traced in lists]
        names = list(per_list[0][0])
        record["metrics"] = {n: {"value": statistics.median(m[n] for m, _ in per_list),
                                 "unit": layer_unit(n)} for n in names}
        record["absent"] = sorted(set().union(*(set(a) for _, a in per_list)))
    else:
        walls = [_list_wall(untraced) for untraced, _ in lists]
        record["list_walls_s"] = walls
        record["setup_samples_s"] = setup
        record["metrics"] = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                max(r["maxrss_mb"] for r in untraced) for untraced, _ in lists), "unit": "MB"},
        }
    return record


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".mb"):
        return "MB"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def _log(record: dict) -> None:
    for r in record["ops"]:
        flag = "FAILED " + "; ".join(r["problems"]) if r["problems"] else "ok"
        print(f"  op{r['index']} {r['subcommand']:<15}{' traced' if r['traced'] else '':<8}"
              f"rc={r['returncode']} {r['wall_s']:8.3f}s {r['maxrss_mb']:7.1f}MB "
              f"checks_failed={r['checks_failed']} {flag}", file=sys.stderr)
    for name in record.get("absent", []):
        print(f"  absent: {name} (reported as 0)", file=sys.stderr)


def _save(root: Path, record: dict, meta: dict) -> None:
    out = root / OUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "records.jsonl", "a") as fh:
        fh.write(json.dumps({"meta": meta, **record}, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd().resolve()
    try:
        env = prepare(root)
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        records = []
        for workload in workloads:
            record = run_workload(root, env, workload, args.seed, args.seconds,
                                  bool(args.trace))
            _save(root, record, run_metadata(root, args.seed, record.pop("probe")))
            print(f"{workload}: {record['lists']} op lists, {record['attempted']} ops, "
                  f"{record['failed']} failed", file=sys.stderr)
            _log(record)
            records.append(record)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for record in records:
            print(record["workload"])
            rows = [(k, v["value"], v["unit"]) for k, v in record["metrics"].items()]
            rows += [("fail_ratio", record["fail_ratio"], "ratio"),
                     ("checks_failed", record["checks_failed"], "count")]
            for name, value, unit in rows:
                print(f"  {name:<16}{value:>14.6g} {unit}")
        return 0 if all(r["failed"] == 0 for r in records) else 1
    record = records[0]
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
