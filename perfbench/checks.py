"""Output checks for one CLI op, and the failure accounting built on them.

An op fails when its exit code is neither 0 nor 1, when its JSON report is
missing or does not parse, or when a check below finds a wrong output.
Exit 1 with a "failed checks:" line on stderr is the CLI's own verdict
(the known norm-gate defect of `characteristics`, for one); those checks are
counted in `checks_failed`, and the op still counts as attempted, not failed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

REPORT_TOL = 1e-9
PARSEVAL_TOL = 1e-9
FAILED_CHECKS_PREFIX = "failed checks: "

REPORT_FILES = {
    "characteristics": "characteristics.json",
    "experiment": "experiment.json",
    "search": "search.json",
    "frames": "frames.json",
    "matrix-demo": "matrix_demo.json",
}


def read_report(out_dir: Path, subcommand: str):
    """The op's parsed JSON report, or None when it is missing or unparsable."""
    try:
        return json.loads((out_dir / REPORT_FILES[subcommand]).read_text())
    except (OSError, ValueError):
        return None


def count_failed_checks(stderr_text: str) -> int:
    """How many failed checks the CLI listed on stderr."""
    count = 0
    for line in stderr_text.splitlines():
        if line.startswith(FAILED_CHECKS_PREFIX):
            count += len([c for c in line[len(FAILED_CHECKS_PREFIX):].split("; ") if c])
    return count


def stable_part(report: dict) -> dict:
    """The report without `meta`, which holds the generation timestamp."""
    return {k: v for k, v in report.items() if k != "meta"}


def check_all(entries: list) -> list:
    """Problems for each op result (`op`, `subcommand`, `returncode`, `report`).

    A report equal, apart from `meta`, to one already verified for the same
    op is not verified again.
    """
    verified: dict = {}
    out = []
    for entry in entries:
        report = entry["report"]
        seen = verified.setdefault(entry["op"], [])
        if entry["returncode"] in (0, 1) and isinstance(report, dict) \
                and stable_part(report) in seen:
            out.append([])
            continue
        problems = check_op(entry["subcommand"], entry["returncode"], report)
        if not problems:
            seen.append(stable_part(report))
        out.append(problems)
    return out


def check_op(subcommand: str, returncode: int, report) -> list:
    """Problems with one op's output; an empty list means the op passed."""
    if returncode not in (0, 1):
        return [f"exit code {returncode}"]
    if not isinstance(report, dict) or not isinstance(report.get("results"), dict):
        return ["JSON report missing or unparsable"]
    try:
        return _CHECKS[subcommand](report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed {subcommand} report: {type(exc).__name__}: {exc}"]


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _check_characteristics(report: dict) -> list:
    from haartest.characteristics import CharacteristicReport, reevaluate
    from haartest.cli import parse_measure
    from haartest.dyadic import Grid

    cfg = report["config"]
    grid = Grid(dimension=cfg["dimension"], origin=cfg["origin"], side=cfg["side"],
                shift=cfg["shift"], max_level=cfg["max_level"])
    problems = []
    for i, pair in enumerate(report["results"]["pairs"]):
        sigma = parse_measure(grid, pair["sigma"])
        omega = parse_measure(grid, pair["omega"])
        for key, rep in pair.items():
            if not (isinstance(rep, dict) and "witness" in rep):
                continue
            char = CharacteristicReport(name=rep["name"], value=rep["value"],
                                        witness=rep["witness"],
                                        search_space=rep["search_space"],
                                        seed=rep.get("seed"))
            again = reevaluate(char, sigma, omega)
            if _relative_gap(again, rep["value"]) > REPORT_TOL:
                problems.append(f"pair {i} {key}: reported {rep['value']!r}, "
                                f"witness re-evaluates to {again!r}")
    return problems


def _check_frames(report: dict) -> list:
    results = report["results"]
    bounds = results["hilbert_frame_bounds"]
    problems = []
    for side in ("lower", "upper"):
        if abs(bounds[side] - 1.0) > PARSEVAL_TOL:
            problems.append(f"Parseval {side} bound {bounds[side]!r} is not 1")
    if results["banach_frame_check"]["passed"] is not True:
        problems.append("banach_frame_check did not pass")
    return problems


def _check_experiment(report: dict) -> list:
    results = report["results"]
    problems = [f"{name} did not pass" for name, rep in sorted(results.items())
                if isinstance(rep, dict) and "passed" in rep and rep["passed"] is not True]
    recompute = results["halo_cover"]["recompute"]
    problems += [f"halo_cover recompute: {flag} is false"
                 for flag in ("contained", "disjoint", "leftover_ok")
                 if recompute[flag] is not True]
    return problems


def _check_search(report: dict) -> list:
    search = report["results"]["search"]
    board = search["details"]["leaderboard"]
    ratios = [row["ratio"] for row in board]
    problems = []
    if not board:
        problems.append("empty leaderboard")
    elif ratios != sorted(ratios, reverse=True):
        problems.append("leaderboard not ordered by ratio")
    elif search["value"] != ratios[0] or search["details"]["ratio_band"][1] != ratios[0]:
        problems.append("best ratio disagrees with the leaderboard")
    if search["details"]["iterations"] != report["config"]["trials"]:
        problems.append("search ran another number of iterations than asked")
    return problems


def _check_matrix_demo(report: dict) -> list:
    if report["results"]["matrix"]["passed"] is not True:
        return ["matrix growth ladder did not pass"]
    return []


_CHECKS = {
    "characteristics": _check_characteristics,
    "experiment": _check_experiment,
    "search": _check_search,
    "frames": _check_frames,
    "matrix-demo": _check_matrix_demo,
}


def main(argv: list) -> int:
    """checks.py IN_JSON OUT_JSON: check a list of op results, write the problems."""
    if len(argv) != 2:
        print("usage: checks.py IN_JSON OUT_JSON", file=sys.stderr)
        return 2
    entries = json.loads(Path(argv[0]).read_text())
    Path(argv[1]).write_text(json.dumps(check_all(entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
