import configparser
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import haartest
import haartest.cli as cli
from haartest.characteristics import pair_bundle
from haartest.cli import (
    COMMANDS,
    ConfigError,
    RunConfig,
    build_truncation,
    main,
    measure_pairs,
    parse_measure,
    resolve_config,
    write_report,
)
from haartest.dyadic import Grid
from haartest.measure import save_measure_csv, random_dyadic_doubling


GRID = Grid(dimension=1, max_level=6)


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if '"generated_at"' not in line)


def test_commands_tuple():
    assert COMMANDS == ("characteristics", "experiment", "search", "frames",
                        "matrix-demo")


def test_runconfig_defaults_validate():
    cfg = RunConfig(command="characteristics")
    assert cfg.validate() == []
    assert cfg.ladder_exponents() == tuple(range(10, 21))


def test_runconfig_validation_problems():
    cfg = RunConfig(command="nope", kernel="bad", lam=2.0, p=1.0, depth=0,
                    trials=0, gamma=0.4, measures="lebesgue",
                    ladder="20:10")
    problems = cfg.validate()
    fields = {p.split(":", 1)[0] for p in problems}
    assert fields == {"command", "kernel", "lambda", "p", "depth", "trials",
                      "gamma", "measures", "ladder"}


def test_ladder_parsing_errors():
    with pytest.raises(ValueError):
        RunConfig(command="matrix-demo", ladder="1020").ladder_exponents()
    with pytest.raises(ValueError):
        RunConfig(command="matrix-demo", ladder="12:12").ladder_exponents()


def test_parse_measure_families(tmp_path):
    assert parse_measure(GRID, "lebesgue").total_mass == pytest.approx(1.0)
    mu = parse_measure(GRID, "power:a=0.5:center=0.25")
    assert mu.total_mass > 0
    dbl = parse_measure(GRID, "doubling:r=2.5:seed=3")
    np.testing.assert_array_equal(
        dbl.cell_mass, random_dyadic_doubling(GRID, 2.5, seed=3).cell_mass)
    pt = parse_measure(GRID, "point:sharpness=5")
    assert pt.cell_mass.max() > 0.9
    path = tmp_path / "m.csv"
    save_measure_csv(dbl, path)
    back = parse_measure(GRID, f"csv:{path}")
    np.testing.assert_allclose(back.cell_mass, dbl.cell_mass)


def test_parse_measure_errors():
    with pytest.raises(ConfigError, match="unknown family"):
        parse_measure(GRID, "gaussian")
    with pytest.raises(ConfigError, match="missing required key"):
        parse_measure(GRID, "power")
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_measure(GRID, "doubling:r=2:zzz=1")
    with pytest.raises(ConfigError, match="key=value"):
        parse_measure(GRID, "power:a")
    with pytest.raises(ConfigError, match="csv"):
        parse_measure(GRID, "csv:")


def test_measure_pairs_grouping():
    cfg = RunConfig(command="characteristics",
                    measures="lebesgue,point:sharpness=3,lebesgue,lebesgue")
    pairs = measure_pairs(cfg, GRID)
    assert len(pairs) == 2
    assert pairs[0][0] == "lebesgue"
    assert pairs[0][1] == "point:sharpness=3"


def test_build_truncation_defaults():
    cfg = RunConfig(command="characteristics")
    t = build_truncation(cfg, GRID)
    assert t.eps == pytest.approx(4.0 * GRID.cell_side)
    assert t.rmax == pytest.approx(4.0)
    t2 = build_truncation(RunConfig(command="characteristics", eps=0.1), GRID)
    assert t2.eps == 0.1 and t2.rmax == pytest.approx(4.0)


def test_write_report_layout(tmp_path):
    cfg = RunConfig(command="characteristics", out=str(tmp_path))
    path = write_report(cfg, "sample", {"answer": 42})
    body = json.loads(path.read_text())
    assert set(body) == {"meta", "config", "results"}
    assert body["results"]["answer"] == 42
    assert body["meta"]["tool"] == "haartest"
    assert "generated_at" in body["meta"]
    assert body["config"]["command"] == "characteristics"
    # keys are sorted for byte-stable output
    text = path.read_text()
    assert text.index('"config"') < text.index('"meta"') < text.index('"results"')


def tiny_args(command, tmp_path, extra=()):
    return [command, "--depth", "4", "--out", str(tmp_path), *extra]


def test_main_characteristics_roundtrip(tmp_path, capsys):
    rc = main(tiny_args("characteristics", tmp_path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "ratio" in out
    body = json.loads((tmp_path / "characteristics.json").read_text())
    (result,) = body["results"]["pairs"]
    assert result["ratio"] >= 0.5
    assert result["operator_norm"]["name"] == "operator_norm"


def test_main_passes_the_gate_where_the_haar_matrix_norm_fell_below(tmp_path):
    # the norm on the mesh dominates both testing constants; the Haar-matrix
    # norm fell below half their sum on these pairs (ratios 0.25 and 0.47)
    rc = main(tiny_args("characteristics", tmp_path, ["--depth", "3", "--measures",
                                                      "point:sharpness=4,lebesgue,"
                                                      "lebesgue,lebesgue"]))
    assert rc == 0
    body = json.loads((tmp_path / "characteristics.json").read_text())
    assert min(pair["ratio"] for pair in body["results"]["pairs"]) >= 0.5


def test_main_flags_a_ratio_below_half(tmp_path, capsys, monkeypatch):
    def low_norm(*args):
        reports = pair_bundle(*args)
        reports["operator_norm"] = replace(reports["operator_norm"],
                                           value=reports["operator_norm"].value / 4)
        return reports

    monkeypatch.setattr(cli, "pair_bundle", low_norm)
    assert main(tiny_args("characteristics", tmp_path)) == 1
    assert "pair 0 ratio below 1/2" in capsys.readouterr().err


@pytest.mark.parametrize("length", [24, 27])
def test_characteristics_table_keeps_a_space_after_a_spec_that_fills_its_column(
        tmp_path, capsys, monkeypatch, length):
    # the sigma column is 24 characters wide; a csv spec of 24 or more ran
    # straight into the omega spec, where a shorter one keeps its padding
    monkeypatch.chdir(tmp_path)
    spec = "csv:" + "m" * (length - 8) + ".csv"
    save_measure_csv(random_dyadic_doubling(Grid(dimension=1), 2.0, seed=1), spec[4:])
    assert main(tiny_args("characteristics", tmp_path,
                          ["--measures", f"{spec},lebesgue,lebesgue,lebesgue"])) == 0
    rows = capsys.readouterr().out.splitlines()[1:3]
    assert rows[0].startswith(f"0     {spec} lebesgue ")
    assert rows[1].startswith("1     " + "lebesgue".ljust(24) + "lebesgue".ljust(24))


def test_main_writes_no_ratio_where_both_testing_constants_are_0(tmp_path):
    # one cell carries all of each measure: no wavelet, so H = H* = 0, and
    # the report holds null, strict JSON, where it held Infinity
    path = tmp_path / "one.csv"
    path.write_text("cell_index,mass\n0,1.0\n")
    rc = main(tiny_args("characteristics", tmp_path,
                        ["--depth", "6", "--measures", f"csv:{path},csv:{path}"]))
    assert rc == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (tmp_path / "characteristics.json").read_text()
    (pair,) = json.loads(text, parse_constant=reject)["results"]["pairs"]
    assert pair["ratio"] is None
    assert pair["haar_testing"]["value"] == pair["haar_testing_dual"]["value"] == 0.0


def test_main_determinism_modulo_timestamp(tmp_path):
    assert main(tiny_args("characteristics", tmp_path)) == 0
    first = strip_timestamp((tmp_path / "characteristics.json").read_text())
    assert main(tiny_args("characteristics", tmp_path)) == 0
    second = strip_timestamp((tmp_path / "characteristics.json").read_text())
    assert first == second


def test_main_out_dir_does_not_change_config_or_results(tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    args = ["characteristics", "--depth", "4",
            "--measures", "lebesgue,doubling:r=2:seed=1,doubling:r=2:seed=2,lebesgue"]
    rc_a = main(args + ["--out", str(a_dir)])
    rc_b = main(args + ["--out", str(b_dir)])
    assert rc_a == rc_b
    a = json.loads((a_dir / "characteristics.json").read_text())
    b = json.loads((b_dir / "characteristics.json").read_text())
    # the output directory shows up only in meta, never in config or results
    assert a["config"] == b["config"]
    assert a["results"] == b["results"]
    assert a["meta"]["out"] == str(a_dir)
    assert b["meta"]["out"] == str(b_dir)


@pytest.mark.parametrize("args, name, csv_key", [
    (["search", "--trials", "3"], "search", "leaderboard_csv"),
    (["matrix-demo", "--ladder", "10:12"], "matrix_demo", "growth_csv"),
], ids=["search", "matrix-demo"])
def test_main_csv_subcommands_out_dir_does_not_change_results(tmp_path, args, name,
                                                              csv_key):
    bodies = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(args + ["--out", str(out)]) == 0
        bodies.append(json.loads((out / f"{name}.json").read_text()))
        # the CSV sits beside the report, in the directory meta.out names
        csv_name = bodies[-1]["results"][csv_key]
        assert (out / csv_name).is_file()
        assert bodies[-1]["meta"]["out"] == str(out)
    assert bodies[0]["config"] == bodies[1]["config"]
    assert bodies[0]["results"] == bodies[1]["results"]


def test_main_matrix_demo(tmp_path, capsys):
    rc = main(["matrix-demo", "--gamma", "0.6", "--ladder", "10:12",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "growth" in out
    body = json.loads((tmp_path / "matrix_demo.json").read_text())
    assert body["results"]["matrix"]["passed"] is True
    csv_text = (tmp_path / "matrix_growth.csv").read_text()
    assert csv_text.splitlines()[0] == "N,growth"
    assert len(csv_text.splitlines()) == 4


def test_main_frames(tmp_path):
    rc = main(["frames", "--depth", "3", "--out", str(tmp_path),
               "--measures", "lebesgue,lebesgue", "--p", "2.5"])
    assert rc == 0
    body = json.loads((tmp_path / "frames.json").read_text())
    assert body["results"]["banach_frame_check"]["passed"] is True
    pars = body["results"]["hilbert_frame_bounds"]
    assert abs(pars["lower"] - 1.0) < 1e-9
    assert abs(pars["upper"] - 1.0) < 1e-9


def test_main_search(tmp_path):
    rc = main(["search", "--depth", "3", "--trials", "4",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "search_leaderboard.csv").read_text().splitlines()
    assert rows[0].split(",")[0] == "rank"
    assert len(rows) >= 2


def test_main_search_with_one_trial(tmp_path):
    # one trial is a valid RunConfig: the search draws one pair and ranks it
    rc = main(["search", "--depth", "3", "--trials", "1", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "search_leaderboard.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[0] == "0"


def test_main_rejects_bad_config(tmp_path, capsys):
    rc = main(["characteristics", "--config", str(tmp_path / "missing.ini")])
    assert rc == 2
    assert "config" in capsys.readouterr().err


def _program_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(haartest.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def _run_cli(*args) -> tuple:
    """(exit code, stderr) of the CLI run as a program, so that an uncaught
    exception shows as the interpreter's traceback and exit code."""
    proc = subprocess.run([sys.executable, "-m", "haartest.cli", *args],
                          capture_output=True, text=True, env=_program_env())
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("args", [["characteristics", "--depth", "3"],
                                  ["search", "--trials", "3", "--depth", "3"]],
                         ids=["characteristics", "search"])
def test_ops_never_import_numpy_ma(tmp_path, args):
    # the first np.unique call imports numpy.ma, 8 to 17 ms of an op
    ini = tmp_path / "grid.ini"
    ini.write_text("[grid]\ndimension = 1\nmax_level = 6\n")
    code = ("import sys; from haartest.cli import main; "
            "rc = main(sys.argv[1:]); print(rc, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, *args, "--config", str(ini),
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, env=_program_env())
    assert proc.stdout.splitlines()[-1] in ("0 False", "1 False"), proc.stderr


@pytest.mark.parametrize("text", [b"dimension = 2\n", b"[grid]\norigin = 0,a\n",
                                  b"[grid]\ndimension = \xff\n"],
                         ids=["no-section-header", "bad-origin", "not-utf-8"])
def test_main_rejects_a_malformed_ini(tmp_path, text):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(text)
    rc, err = _run_cli("characteristics", "--config", str(ini), "--out", str(tmp_path))
    assert rc == 2
    assert "Traceback" not in err
    assert err.startswith("config error: config: ")


@pytest.mark.parametrize("text, row", [
    (b"", "row 1"),
    (b"cell_index,mass\n0,0.5\n3\n", "row 3"),
    (b"cell_index,mass\n1,0.5\n1,0.25\n", "row 3"),
    (b"cell_index,mass\n0,\xff1\n", "row 2, byte 18"),
    (b"cell_index,mass\n0,0.5\n1,-2.0\n", "row 3"),
    (b"cell_index,mass\n0,nan\n", "row 2"),
    (b"cell_index,mass\n0,0.5\n1,0.5\n2,inf\n", "row 4"),
], ids=["empty", "one-field", "repeated-index", "not-utf-8", "negative-mass", "nan-mass",
        "infinite-mass"])
def test_main_rejects_a_malformed_measure_csv(tmp_path, text, row):
    path = tmp_path / "bad.csv"
    path.write_bytes(text)
    rc, err = _run_cli("characteristics", "--measures", f"csv:{path},lebesgue",
                       "--depth", "2", "--out", str(tmp_path))
    assert rc == 2
    assert "Traceback" not in err
    assert f"ValueError: {path}, {row}: " in err


def test_main_validation_failure_exits_2(tmp_path, capsys):
    rc = main(["characteristics", "--p", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "p:" in err


def test_argparse_rejects_unknown_choice():
    with pytest.raises(SystemExit) as exc:
        main(["characteristics", "--kernel", "bogus"])
    assert exc.value.code == 2


def test_config_file_layering(tmp_path):
    ini = tmp_path / "run.ini"
    parser = configparser.ConfigParser()
    parser["grid"] = {"dimension": "1", "max_level": "6"}
    parser["kernel"] = {"family": "fractional_integral", "lambda": "0.5"}
    parser["run"] = {"depth": "5", "seed": "9", "measures": "lebesgue,lebesgue"}
    with open(ini, "w") as fh:
        parser.write(fh)
    cfg = resolve_config(["characteristics", "--config", str(ini),
                          "--depth", "4"])
    assert cfg.kernel == "fractional_integral"
    assert cfg.lam == 0.5
    assert cfg.max_level == 6
    assert cfg.seed == 9
    # the explicit flag wins over the file
    assert cfg.depth == 4


def test_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("HAARTEST_OUT_DIR", str(tmp_path / "envout"))
    cfg = RunConfig(command="characteristics")
    assert str(cfg.out_dir()).endswith("envout")
    monkeypatch.delenv("HAARTEST_OUT_DIR")
    assert str(RunConfig(command="characteristics").out_dir()) == "."


def test_main_frames_builds_no_dense_wavelet_matrix(tmp_path, monkeypatch):
    from haartest.haar import HaarSystem

    def dense(self):
        raise AssertionError("frames built a dense wavelet matrix")

    # a property on the class wins over values cached on instances
    for name in ("values_matrix", "weighted_matrix"):
        monkeypatch.setattr(HaarSystem, name, property(dense))
    ini = tmp_path / "grid.ini"
    ini.write_text("[grid]\ndimension = 2\nmax_level = 4\n")
    rc = main(["frames", "--config", str(ini), "--depth", "3", "--p", "3",
               "--measures", "doubling:r=2.0:seed=1,lebesgue", "--out", str(tmp_path)])
    assert rc == 0
    body = json.loads((tmp_path / "frames.json").read_text())
    assert body["results"]["banach_frame_check"]["passed"] is True


def test_main_full_depth_lp_characteristics_build_no_dense_wavelet_matrix(tmp_path, monkeypatch):
    from haartest.haar import HaarSystem

    def dense(self):
        raise AssertionError("characteristics built a dense wavelet matrix")

    for name in ("values_matrix", "weighted_matrix"):
        monkeypatch.setattr(HaarSystem, name, property(dense))
    ini = tmp_path / "grid.ini"
    ini.write_text("[grid]\ndimension = 2\nmax_level = 3\n\n"
                   "[kernel]\nfamily = riesz_like\nlambda = 0.5\n")
    rc = main(["characteristics", "--config", str(ini), "--depth", "3", "--p", "3",
               "--measures", "doubling:r=2.0:seed=1,doubling:r=3.0:seed=2",
               "--out", str(tmp_path)])
    assert rc in (0, 1)  # 1 is the norm ratio gate, not a failed run
    pair = json.loads((tmp_path / "characteristics.json").read_text())["results"]["pairs"][0]
    assert pair["lp_haar_testing"]["search_space"]["depth"] == 3
    assert pair["lp_haar_testing_dual"]["value"] > 0.0


def test_main_seed_reaches_the_lp_reports(tmp_path):
    # in 2-D a cube carries three wavelets, so the seed draws the rotated
    # candidates of both Lp scans, not only the report's seed field
    from haartest.characteristics import lp_haar_testing, lp_haar_testing_dual
    from haartest.operators import default_truncation, make_kernel

    ini = tmp_path / "grid.ini"
    ini.write_text("[grid]\ndimension = 2\nmax_level = 3\n\n"
                   "[kernel]\nfamily = riesz_like\nlambda = 0.5\n")
    measures = "doubling:r=2.0:seed=1,doubling:r=3.0:seed=2"
    rc = main(["characteristics", "--config", str(ini), "--depth", "3", "--p", "3",
               "--seed", "5", "--measures", measures, "--out", str(tmp_path)])
    assert rc in (0, 1)  # 1 is the norm ratio gate, not a failed run
    pair = json.loads((tmp_path / "characteristics.json").read_text())["results"]["pairs"][0]
    grid = Grid(dimension=2, max_level=3)
    sigma, omega = (parse_measure(grid, spec) for spec in measures.split(","))
    args = (sigma, omega, make_kernel("riesz_like", 0.5, 2), default_truncation(grid))
    assert pair["lp_haar_testing"] == lp_haar_testing(*args, p=3.0, depth=3,
                                                      seed=5).as_dict()
    assert pair["lp_haar_testing_dual"] == lp_haar_testing_dual(*args, p=3.0, depth=3,
                                                                seed=5).as_dict()


@pytest.mark.parametrize("max_level", [4, 5, 6])
def test_experiment_below_max_level_7_fails_up_front(tmp_path, capsys, max_level):
    # the quadratic families sit at least 8 cubes apart, at level 4 or
    # finer with three levels beneath: the run stops before any trial
    config = tmp_path / "grid.ini"
    config.write_text(f"[grid]\ndimension = 1\nmax_level = {max_level}\n")
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "AlignmentError" in err and f"max_level {max_level}" in err and ">= 7" in err
    assert not list(tmp_path.glob("*.json"))


def test_characteristics_on_a_2_to_16_cell_grid_stays_under_250_mb(tmp_path):
    # 1-D L=16 at depth 6: cubes of 1,024 cells take the FFT route, and no
    # pass holds a block of G (a slab of it, N^2 / 64 entries, was 512 MiB).
    # A child's ru_maxrss starts from what its parent's process held, so a
    # small launcher, not pytest, starts the op and reads its peak
    config = tmp_path / "grid.ini"
    config.write_text("[grid]\ndimension = 1\nmax_level = 16\n")
    launcher = ("import resource, subprocess, sys; "
                "rc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode; "
                "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    src = str(Path(haartest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-m", "haartest.cli",
                          "characteristics", "--config", str(config), "--depth", "6",
                          "--out", str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True)
    rc, peak_kib = (int(v) for v in out.stdout.split())
    assert rc == 0
    assert peak_kib * 1024 < 250e6
