"""Seconds-long self-test of the benchmark, run from the root of a checkout.

    python3 perfbench/selftest.py

Runs every workload's op shapes on tiny grids (2-D L=3, 1-D L=7) through the
runner (run.py), the output checks and the tracer, then feeds wrong reports to the
checks and expects each one to be caught. Exits 1 on the first bad finding.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check_op  # noqa: E402
from run import SetupError, Runner, prepare, run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def check_workloads(root: Path, env: dict, spec: dict) -> None:
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(root, env, workload, seed=0, seconds=0,
                                  trace=bool(trace), tiny=True)
            tag = f"{workload} trace={trace}"
            expect(record["failed"] == 0, f"{tag}: failed ops {record['ops']}")
            expect(sorted(record["metrics"]) == sorted(names[trace]),
                   f"{tag}: metrics {sorted(record['metrics'])} differ from BENCHMARK.json")
            for name, metric in record["metrics"].items():
                expect(math.isfinite(metric["value"]), f"{tag}: {name} is not finite")
            if trace and workload == "chars-2d":
                builds = record["metrics"]["operators.kernel_matrix.builds"]["value"]
                expect(builds == 2, f"{tag}: {builds} kernel builds, expected 2")
            if trace and workload == "lab-1d":
                ratio = record["metrics"]["haar.cached_system.search_hit_ratio"]["value"]
                expect(ratio == 0.0, f"{tag}: search cached_system hit ratio {ratio}")
            print(f"ok  {tag}: {record['attempted']} ops, "
                  f"{len(record.get('absent', []))} absent metrics")


def check_checks(root: Path, env: dict) -> None:
    runner = Runner(root, env, "lab-1d", 0, tiny=True)
    try:
        reports = {r["subcommand"]: r["report"] for r in runner.run_list(traced=False)}
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    for sub, report in reports.items():
        expect(check_op(sub, 0, report) == [], f"clean {sub} report was flagged")

    def broken(sub, edit):
        bad = copy.deepcopy(reports[sub])
        edit(bad["results"])
        return bad

    cases = {
        "characteristics value off by 1e-6": (
            "characteristics", broken("characteristics", lambda r: r["pairs"][0]["haar_testing"]
                                      .update(value=r["pairs"][0]["haar_testing"]["value"]
                                              * (1 + 1e-6)))),
        "operator norm witness changed": (
            "characteristics", broken("characteristics", lambda r: r["pairs"][0]
                                      ["operator_norm"]["witness"]["coefficients"].reverse())),
        "Parseval upper bound off": (
            "frames", broken("frames", lambda r: r["hilbert_frame_bounds"]
                             .update(upper=1.0 + 1e-6))),
        "banach check not passed": (
            "frames", broken("frames", lambda r: r["banach_frame_check"].update(passed=False))),
        "experiment not passed": (
            "experiment", broken("experiment", lambda r: r["quadratic_ap"]
                                 .update(passed=False))),
        "matrix-demo not passed": (
            "matrix-demo", broken("matrix-demo", lambda r: r["matrix"].update(passed=False))),
        "search leaderboard reversed": (
            "search", broken("search", lambda r: r["search"]["details"]["leaderboard"]
                             .reverse())),
        "report missing": ("frames", None),
    }
    for label, (sub, report) in cases.items():
        expect(check_op(sub, 0, report) != [], f"checks missed: {label}")
    expect(check_op("frames", 2, reports["frames"]) != [], "checks missed: exit code 2")
    expect(check_op("characteristics", 1, reports["characteristics"]) == [],
           "exit 1 (the CLI's own failed checks) was counted as a failed op")
    print(f"ok  checks catch {len(cases) + 1} kinds of wrong output")


def main() -> int:
    root = Path.cwd().resolve()
    try:
        env = prepare(root)
        sys.path.insert(0, str(root / "src"))  # the checks below run in this process
        spec = json.loads((root / "BENCHMARK.json").read_text())
        check_workloads(root, env, spec)
        check_checks(root, env)
    except (SetupError, SelfTestFailure, OSError, ValueError) as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
