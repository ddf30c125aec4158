import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dcboost
from dcboost import CauchyModel, PdConfig, QuadL1Problem, Variant
from dcboost import cli, tv_cauchy
from dcboost.cli import main
from dcboost.toy_problems import basin_experiment, default_basin_config


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_wall_time(csv_text):
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    drop = header.index("wall_time_s")
    keep = lambda row: ",".join(col for i, col in enumerate(row.split(","))
                                if i != drop)
    return "\n".join(keep(line) for line in lines)


# ---------------------------------------------------------------------------
# toy
# ---------------------------------------------------------------------------

def test_toy_quadl1_reaches_global_minimum(tmp_path, capsys):
    code, out = run(capsys, "toy", "--example", "quadl1", "--variant", "ibdca",
                    "--x0", "0.5,1", "--out-dir", str(tmp_path))
    assert code == 0
    match = re.search(r"final_point=\(([^,]+),([^)]+)\)", out)
    point = np.array([float(match.group(1)), float(match.group(2))])
    assert np.linalg.norm(point - np.array([1.5, 0.0])) <= 1e-8
    assert "status=critical_point" in out
    assert (tmp_path / "toy_trace.csv").exists()
    assert (tmp_path / "toy_manifest.json").exists()


def test_toy_scad_ibdca_escapes(tmp_path, capsys):
    code, out = run(capsys, "toy", "--example", "scad", "--variant", "ibdca",
                    "--x0", "2.2,0.4", "--alpha", "0.2", "--beta", "0.7",
                    "--lambda-bar", "3", "--out-dir", str(tmp_path))
    assert code == 0
    match = re.search(r"final_point=\(([^,]+),([^)]+)\)", out)
    point = np.array([float(match.group(1)), float(match.group(2))])
    assert np.linalg.norm(point) <= 1e-6


def test_toy_scad_dca_lands_on_critical_point(tmp_path, capsys):
    code, out = run(capsys, "toy", "--example", "scad", "--variant", "dca",
                    "--x0", "2.2,0.4", "--out-dir", str(tmp_path))
    assert code == 0
    match = re.search(r"final_point=\(([^,]+),([^)]+)\)", out)
    point = np.array([float(match.group(1)), float(match.group(2))])
    dists = [np.linalg.norm(point - np.array(a))
             for a in ((0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0))]
    assert min(dists) <= 1e-6


def test_toy_invalid_flags_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["toy", "--example", "nosuch", "--x0", "0,0"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["toy", "--example", "scad", "--x0", "zero,zero"])
    assert excinfo.value.code == 2


def test_toy_negative_first_coordinate_needs_the_equals_form(tmp_path,
                                                            capsys):
    # argparse reads "-3,-0" after a space as an option, not as the value
    code, out = run(capsys, "toy", "--example", "quadl1", "--x0=-3,-0",
                    "--out-dir", str(tmp_path))
    assert code == 0 and out.startswith("final_point=")
    with pytest.raises(SystemExit) as excinfo:
        main(["toy", "--example", "quadl1", "--x0", "-3,-0",
              "--out-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "dcboost toy: error: argument --x0: expected one argument"]


@pytest.mark.parametrize("argv", [
    ["basin", "--n", "10", "--seed", "-1"],
    ["basin", "--n", "10", "--beta", "2"],
    ["basin", "--n", "10", "--max-backtracks", "0"],
    ["toy", "--example", "quadl1", "--x0", "0.5,1", "--max-iter", "0"],
    ["toy", "--example", "quadl1", "--x0", "nan,1"],
    ["denoise", "--synthetic", "--size", "16x16", "--max-iter", "0"],
    ["denoise", "--synthetic", "--size", "16x16", "--gamma", "0"],
    ["denoise", "--synthetic", "--size", "16x16", "--c", "1.0"],
    ["denoise", "--synthetic", "--size", "16x16", "--c", "inf"],
    ["denoise", "--input", "no/such/observation.pgm"],
    ["denoise", "--synthetic", "--size", "16x16", "--inner-max-iter", "0"],
    ["denoise", "--synthetic", "--size", "16x16", "--inner-tol", "inf"],
    ["denoise", "--synthetic", "--size", "16x16", "--tol-direction", "nan"],
    ["basin", "--n", "10", "--alpha", "inf"],
    ["basin", "--n", "10", "--seed", str(2 ** 128)],
    ["toy", "--example", "scad", "--x0", "1e308,1e308"],
    ["denoise", "--synthetic", "--size", "16x16", "--gamma", "1e200"],
    ["denoise", "--synthetic", "--size", "16x16", "--gamma", "1e200",
     "--c", "1"],
    ["denoise", "--synthetic", "--size", "16x16", "--gamma", "1e-200"],
    ["denoise", "--synthetic", "--size", "16x16", "--c", "1e308"],
    ["denoise", "--synthetic", "--size", "16x16", "--mu", "1e308"],
    ["denoise", "--synthetic", "--size", "16x16", "--noise-gamma", "inf"],
    ["denoise", "--synthetic", "--size", "16x16", "--noise-gamma", "1e308"],
    ["basin", "--n", "0"],
])
def test_bad_flag_values_exit_2_with_one_line(argv, tmp_path, capsys):
    code = main(argv + ["--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"dcboost {argv[0]}: ")
    assert not list(tmp_path.glob("*_trace.csv"))  # no header-only trace


def test_denoise_input_with_comment_at_raster_exits_2_with_one_line(
        tmp_path, capsys):
    # a "#" right after the maxval would read the comment as pixel bytes
    pgm = tmp_path / "comment.pgm"
    pgm.write_bytes(b"P5\n2 2\n255#c\n" + bytes([9, 8, 7, 6]))
    code = main(["denoise", "--input", str(pgm), "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("dcboost denoise: ")
    assert "comment right after the maxval" in lines[0]
    assert not list(tmp_path.glob("*_trace.csv"))


def test_denoise_input_smaller_than_2x2_exits_2_with_one_line(
        tmp_path, capsys):
    # a valid 1x4 PGM: the model, not the reader, rejects the observation,
    # before any output is opened
    pgm = tmp_path / "row.pgm"
    pgm.write_bytes(b"P5\n4 1\n255\n" + bytes([16, 32, 48, 64]))
    code = main(["denoise", "--input", str(pgm), "--out-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("dcboost denoise: ")
    assert "observation" in lines[0] and "2x2" in lines[0]
    assert "(1, 4)" in lines[0]
    assert not list(tmp_path.glob("*_trace.csv"))


def test_raster_too_large_to_allocate_exits_2_with_one_line(
        tmp_path, capsys, monkeypatch):
    # numpy's own error, raised without allocating: a real 10^5 x 10^5
    # raster could start filling memory where the system overcommits
    def refuse(m1, m2):
        raise MemoryError(f"Unable to allocate 74.5 GiB for an array with "
                          f"shape ({m1}, {m2}) and data type float64")

    monkeypatch.setattr(cli, "make_squares_image", refuse)
    code = main(["denoise", "--synthetic", "--size", "100000x100000",
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("dcboost denoise: Unable to allocate 74.5 GiB for "
                            "an array with shape (100000, 100000) and data "
                            "type float64\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gamma", ["1e200", "1e-200"])
def test_out_of_range_gamma_is_named(gamma, tmp_path, capsys):
    assert main(["denoise", "--synthetic", "--size", "16x16",
                 "--gamma", gamma, "--out-dir", str(tmp_path)]) == 2
    assert "--gamma" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["toy", "--example", "scad", "--x0", "2.2,0.4"],
    ["basin", "--n", "5"],
    ["denoise", "--synthetic", "--size", "16x16", "--max-iter", "2"],
])
@pytest.mark.parametrize("below", [False, True])
def test_unwritable_out_dir_exits_2_with_one_line(argv, below, tmp_path,
                                                  capsys):
    # --out-dir names an existing file, or a path under one
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "sub" if below else blocker
    code = main(argv + ["--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"dcboost {argv[0]}: ")


@pytest.mark.parametrize("argv, model", [
    (["toy", "--example", "quadl1", "--x0", "0.5,1"], QuadL1Problem),
    (["denoise", "--synthetic", "--size", "16x16"], CauchyModel),
])
def test_subproblem_failure_exits_1_with_one_line(argv, model, tmp_path,
                                                  capsys, monkeypatch):
    if model is CauchyModel:  # its lane form loops over this method
        monkeypatch.setattr(model, "solve_subproblem_with_info",
                            lambda self, x: (np.full_like(x, math.nan), {}))
    else:
        monkeypatch.setattr(model, "subproblem_lanes",
                            lambda self, X: (np.full_like(X, math.nan),
                                             [{}] * len(X)))
    code = main(argv + ["--out-dir", str(tmp_path)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1
    assert lines[0].startswith(f"dcboost {argv[0]}: solver failure: ")
    assert not list(tmp_path.glob("*_manifest.json"))
    assert not list(tmp_path.glob("*_trace.csv"))  # failed before a record


@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_toy_and_basin_solver_flags_default_to_basin_config(variant, tmp_path,
                                                            capsys):
    cfg = default_basin_config(variant)
    expected = {"variant": variant, "alpha": cfg.alpha, "beta": cfg.beta,
                "lambda_bar": cfg.lambda_bar, "max_iter": cfg.max_outer_iter,
                "tol_rel_energy": cfg.tol_rel_energy,
                "tol_direction": cfg.tol_direction,
                "max_backtracks": cfg.max_backtracks}
    for argv in (["toy", "--example", "scad", "--x0", "2.2,0.4"],
                 ["basin", "--n", "5"]):
        out = tmp_path / argv[0]
        assert main(argv + ["--variant", variant, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / f"{argv[0]}_manifest.json").read_text())
        assert {key: manifest["flags"][key] for key in expected} == expected


@pytest.mark.parametrize("argv", [
    ["toy", "--example", "scad", "--x0", "2.2,0.4"],
    ["basin", "--n", "5"],
    ["denoise", "--synthetic", "--size", "16x16"],
], ids=["toy", "basin", "denoise"])
def test_shared_flags_reach_the_manifest(argv, tmp_path):
    # a value of each shared flag that neither the basin nor the denoise
    # defaults use, so a flag a command dropped would show
    given = {"variant": "nmbdca", "alpha": 0.15, "beta": 0.6,
             "lambda_bar": 2.5, "max_iter": 7, "tol_rel_energy": 1e-3,
             "tol_direction": 1e-7, "max_backtracks": 9,
             "out_dir": str(tmp_path / "out")}
    flags = [text for key, value in given.items()
             for text in ("--" + key.replace("_", "-"), str(value))]
    assert main(argv + flags) == 0
    manifest = json.loads(
        (tmp_path / "out" / f"{argv[0]}_manifest.json").read_text())
    assert {key: manifest["flags"][key] for key in given} == given


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_1_quietly(unbuffered, tmp_path):
    # the reader of stdout is gone before the first line is written, as
    # when ``dcboost basin ... | head -1`` outlives ``head``
    env = dict(os.environ, PYTHONPATH=str(Path(dcboost.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "dcboost.cli", "basin", "--n", "500",
         "--out-dir", str(tmp_path)],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


def test_toy_max_iterations_is_failure(tmp_path, capsys):
    code, _ = run(capsys, "toy", "--example", "quadl1", "--x0", "0.5,1",
                  "--max-iter", "2", "--out-dir", str(tmp_path))
    assert code == 1


@pytest.mark.parametrize("argv, rho, exceeds", [
    (["toy", "--example", "quadl1", "--x0", "0.5,1"], 1.0, False),
    (["basin", "--n", "20", "--alpha", "0.5"], 0.4, True),
    (["denoise", "--synthetic", "--size", "16x16", "--max-iter", "2"],
     1.83 - 15.0 / 9.0, False),
    (["denoise", "--synthetic", "--size", "16x16", "--max-iter", "2",
      "--alpha", "5"], 1.83 - 15.0 / 9.0, True),
])
def test_manifest_flags_alpha_above_rho(argv, rho, exceeds, tmp_path,
                                        capsys):
    # IBDCA's monotone descent needs alpha <= rho; the run goes ahead either
    # way, with stdout unchanged, and the manifest says which case it was
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "rho" not in out
    manifest = json.loads(
        (tmp_path / f"{argv[0]}_manifest.json").read_text())
    assert manifest["rho"] == pytest.approx(rho, rel=1e-15)
    assert manifest["alpha_exceeds_rho"] is exceeds


# ---------------------------------------------------------------------------
# basin
# ---------------------------------------------------------------------------

def test_basin_ibdca_summary(tmp_path, capsys):
    code, out = run(capsys, "basin", "--n", "300", "--seed", "7",
                    "--variant", "ibdca", "--out-dir", str(tmp_path))
    assert code == 0
    assert "(0,0) count=300 fraction=1.0000" in out
    report = (tmp_path / "basin_report.csv").read_text().splitlines()
    assert report[1] == "attractor,count"
    assert report[2] == '"(0,0)",300'


def test_basin_reports_iteration_totals(tmp_path, capsys):
    code, out = run(capsys, "basin", "--n", "200", "--seed", "5",
                    "--variant", "bdca", "--out-dir", str(tmp_path))
    assert code == 0
    report = basin_experiment(200, seed=5, variant=Variant.BDCA)

    def items(fields):  # key=value fields as (key, int) pairs, in order
        return [(key, int(value))
                for key, value in (field.split("=") for field in fields)]

    # stdout's last line and the CSV header's tail carry report.totals in
    # its order, the manifest (whose keys are sorted) as a mapping
    assert items(out.splitlines()[-1].split()) == list(report.totals.items())
    header = (tmp_path / "basin_report.csv").read_text().splitlines()[0]
    assert header.split()[:2] == ["#", "seed=5"]
    assert items(header.split()[5:]) == list(report.totals.items())
    manifest = json.loads((tmp_path / "basin_manifest.json").read_text())
    assert "workers" not in manifest["flags"]
    totals = manifest["totals"]
    assert totals == report.totals
    assert set(totals) == {"outer_iterations", "backtracks",
                           "linesearch_failures"}
    assert totals["outer_iterations"] >= 200


def test_basin_single_point(tmp_path, capsys):
    code, out = run(capsys, "basin", "--n", "1", "--seed", "0",
                    "--out-dir", str(tmp_path))
    assert code == 0
    counts = [int(line.split("count=")[1].split()[0])
              for line in out.splitlines() if "count=" in line]
    assert sum(counts) == 1


def test_basin_deterministic_data_rows(tmp_path, capsys):
    code, _ = run(capsys, "basin", "--n", "200", "--seed", "5",
                  "--variant", "dca", "--out-dir", str(tmp_path / "a"))
    assert code == 0
    code, _ = run(capsys, "basin", "--n", "200", "--seed", "5",
                  "--variant", "dca", "--out-dir", str(tmp_path / "b"))
    assert code == 0
    rows = lambda d: (d / "basin_report.csv").read_text().splitlines()[1:]
    assert rows(tmp_path / "a") == rows(tmp_path / "b")


def test_basin_csv_layout(tmp_path, capsys):
    code, _ = run(capsys, "basin", "--n", "50", "--seed", "3",
                  "--variant", "ibdca", "--out-dir", str(tmp_path))
    assert code == 0
    report = basin_experiment(50, seed=3, variant=Variant.IBDCA)
    lines = (tmp_path / "basin_report.csv").read_text().splitlines()
    assert lines[0].startswith("# seed=3 n_points=50 variant=ibdca elapsed_s=")
    assert lines[0].endswith(
        f" outer_iterations={report.totals['outer_iterations']} "
        f"backtracks={report.totals['backtracks']} "
        "linesearch_failures=0")
    assert lines[1] == "attractor,count"
    assert lines[2] == '"(0,0)",50'
    assert len(lines) == 2 + 5
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[2:])
    assert total == 50


# ---------------------------------------------------------------------------
# denoise
def test_interrupt_exits_130_with_one_line_keeping_the_trace(
        tmp_path, capsys, monkeypatch, two_bands):
    # Ctrl-C lands in the calling thread, here inside the fourth tv_prox
    # call, which runs two bands: the worker must be released and joined,
    # and the rows streamed before the interrupt kept
    argv = ["denoise", "--synthetic", "--size", "16x16", "--max-iter", "8"]
    assert main(argv + ["--out-dir", str(tmp_path / "whole")]) == 0
    capsys.readouterr()
    caller = threading.current_thread()
    calls = []
    tv_prox, div_into = tv_cauchy.tv_prox, tv_cauchy._div_into

    def counted(*args, **kwargs):
        calls.append(1)
        return tv_prox(*args, **kwargs)

    def interrupted(*views):
        if len(calls) == 4 and threading.current_thread() is caller:
            raise KeyboardInterrupt
        div_into(*views)

    monkeypatch.setattr(tv_cauchy, "tv_prox", counted)
    monkeypatch.setattr(tv_cauchy, "_div_into", interrupted)
    before = threading.active_count()
    code = main(argv + ["--out-dir", str(tmp_path / "cut")])
    captured = capsys.readouterr()
    assert code == 130
    assert captured.err.splitlines() == ["dcboost denoise: interrupted"]
    assert threading.active_count() == before
    cut = strip_wall_time((tmp_path / "cut" / "denoise_trace.csv").read_text())
    whole = strip_wall_time(
        (tmp_path / "whole" / "denoise_trace.csv").read_text())
    assert len(cut.splitlines()) >= 3  # the header and two records or more
    assert whole.startswith(cut + "\n")
    assert not list((tmp_path / "cut").glob("*_manifest.json"))


# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def denoise_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("denoise")
    code = main(["denoise", "--synthetic", "--size", "32x32", "--gamma", "3",
                 "--seed", "7", "--out-dir", str(out)])
    assert code == 0
    return out


def test_denoise_outputs_exist(denoise_run):
    for name in ("restored.pgm", "noisy.pgm", "clean.pgm",
                 "denoise_trace.csv", "denoise_metrics.json",
                 "denoise_manifest.json"):
        assert (denoise_run / name).exists()


def test_denoise_protocol_defaults_resolved(denoise_run):
    manifest = json.loads((denoise_run / "denoise_manifest.json").read_text())
    flags = manifest["flags"]
    assert flags["mu"] == 15.0
    assert flags["c"] == 1.83
    assert flags["beta"] == 0.5
    assert flags["lambda_bar"] == 10.0
    assert flags["max_iter"] == 200
    assert flags["tol_rel_energy"] == 5e-4
    assert abs(flags["alpha"] - 0.9 * (1.83 - 15.0 / 9.0)) <= 1e-12
    inner = PdConfig()
    assert flags["inner_max_iter"] == inner.max_inner_iter
    assert flags["inner_tol"] == inner.tol_inner


def test_denoise_improves_metrics(denoise_run):
    summary = json.loads((denoise_run / "denoise_metrics.json").read_text())
    assert summary["psnr_restored"] > summary["psnr_noisy"] + 3.0
    assert summary["re_err_restored"] < summary["re_err_noisy"]
    assert summary["inner_converged_final"] is True


def test_denoise_trace_energy_matches_phi(denoise_run):
    lines = (denoise_run / "denoise_trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["k", "phi", "d_norm", "lambda", "backtracks",
                      "wall_time_s", "energy", "psnr", "inner_iters",
                      "inner_resid"]
    for line in lines[1:]:
        row = line.split(",")
        assert row[1] == row[header.index("energy")]


def test_metrics_command_matches_trace_noisy_psnr(denoise_run, capsys):
    code = main(["metrics", str(denoise_run / "noisy.pgm"),
                 str(denoise_run / "clean.pgm")])
    assert code == 0
    out = capsys.readouterr().out
    printed = float(out.split("psnr_db=")[1].splitlines()[0])
    lines = (denoise_run / "denoise_trace.csv").read_text().splitlines()
    psnr_col = lines[0].split(",").index("psnr")
    trace_noisy_psnr = float(lines[1].split(",")[psnr_col])
    assert printed == trace_noisy_psnr  # same code path, bitwise equal


def test_denoise_noise_free_run_is_monotone(tmp_path, capsys):
    code, out = run(capsys, "denoise", "--synthetic", "--size", "32x32",
                    "--gamma", "3", "--noise-gamma", "0",
                    "--out-dir", str(tmp_path))
    assert code == 0
    lines = (tmp_path / "denoise_trace.csv").read_text().splitlines()
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-8 * abs(a)


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_denoise_json_outputs_write_non_finite_floats_as_null(tmp_path,
                                                              capsys):
    # noise-free: psnr_noisy is inf, and the metrics file must stay strict
    # JSON; the manifest shares the writer, checked directly below
    code, out = run(capsys, "denoise", "--synthetic", "--size", "16x16",
                    "--max-iter", "2", "--noise-gamma", "0",
                    "--out-dir", str(tmp_path))
    assert code == 0
    assert "psnr_noisy=inf" in out.splitlines()
    metrics = json.loads((tmp_path / "denoise_metrics.json").read_text(),
                         parse_constant=_reject_constant)
    assert metrics["psnr_noisy"] is None


def test_json_text_writes_nested_non_finite_floats_as_null():
    text = cli._json_text({"flags": {"noise_gamma": math.inf, "mu": 2.5},
                           "list": [math.nan, -math.inf, 1.0]})
    parsed = json.loads(text, parse_constant=_reject_constant)
    assert parsed == {"flags": {"noise_gamma": None, "mu": 2.5},
                      "list": [None, None, 1.0]}


def test_denoise_input_mode(tmp_path, denoise_run, capsys):
    code, out = run(capsys, "denoise", "--input",
                    str(denoise_run / "noisy.pgm"), "--gamma", "3",
                    "--variant", "dca", "--max-iter", "30",
                    "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "denoise_metrics.json").read_text())
    assert "psnr_noisy" not in summary   # no clean reference
    lines = (tmp_path / "denoise_trace.csv").read_text().splitlines()
    psnr_col = lines[0].split(",").index("psnr")
    assert lines[1].split(",")[psnr_col] == "nan"
    assert not (tmp_path / "clean.pgm").exists()


def test_denoise_clean_mode_matches_synthetic(tmp_path):
    # feeding the squares image through --clean must reproduce the
    # --synthetic pipeline bit for bit (same seed, same quantization)
    from dcboost.imaging import make_squares_image, write_pgm
    write_pgm(tmp_path / "clean_in.pgm", make_squares_image(32, 32))
    args = ["--gamma", "3", "--seed", "7", "--max-iter", "15"]
    assert main(["denoise", "--clean", str(tmp_path / "clean_in.pgm"),
                 *args, "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["denoise", "--synthetic", "--size", "32x32",
                 *args, "--out-dir", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "noisy.pgm").read_bytes()
            == (tmp_path / "b" / "noisy.pgm").read_bytes())
    assert ((tmp_path / "a" / "restored.pgm").read_bytes()
            == (tmp_path / "b" / "restored.pgm").read_bytes())


def test_denoise_manifest_records_the_image_size(tmp_path):
    # --size shapes only the synthetic image; a PGM brings its own size
    from dcboost.imaging import make_squares_image, write_pgm
    pgm = tmp_path / "in.pgm"
    write_pgm(pgm, make_squares_image(32, 40))
    for mode in ("--clean", "--input"):
        out = tmp_path / mode.strip("-")
        assert main(["denoise", mode, str(pgm), "--max-iter", "3",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "denoise_manifest.json").read_text())
        assert manifest["flags"]["size"] == [32, 40]


def test_denoise_deterministic_modulo_wall_time(tmp_path):
    args = ["denoise", "--synthetic", "--size", "24x24", "--gamma", "3",
            "--seed", "3", "--max-iter", "20"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    csv_a = strip_wall_time((tmp_path / "a" / "denoise_trace.csv").read_text())
    csv_b = strip_wall_time((tmp_path / "b" / "denoise_trace.csv").read_text())
    assert csv_a == csv_b
    assert ((tmp_path / "a" / "restored.pgm").read_bytes()
            == (tmp_path / "b" / "restored.pgm").read_bytes())


def test_denoise_256_holds_the_benchmark_pins(tmp_path, capsys):
    # the paper-scale run of the CLI benchmark, through tv_prox's two bands
    # on two CPUs or more: 43 outer and 1494 inner iterations, 36.973 dB
    code = main(["denoise", "--synthetic", "--size", "256x256", "--gamma",
                 "3", "--seed", "7", "--variant", "ibdca",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "denoise_metrics.json").read_text())
    assert summary["outer_iterations"] == 43
    assert round(summary["psnr_restored"], 3) == 36.973
    lines = (tmp_path / "denoise_trace.csv").read_text().splitlines()
    inner = lines[0].split(",").index("inner_iters")
    assert sum(int(line.split(",")[inner]) for line in lines[1:]) == 1494


def test_denoise_inner_nonconvergence_exit_1(tmp_path, capsys):
    # one inner sweep cannot meet the tolerance; the flag on the final
    # iterate must surface as exit code 1
    code = main(["denoise", "--synthetic", "--size", "24x24", "--gamma", "3",
                 "--max-iter", "5", "--inner-max-iter", "1",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    summary = json.loads((tmp_path / "denoise_metrics.json").read_text())
    assert summary["inner_converged_final"] is False
    # every record's inner solve stopped at its cap
    assert summary["inner_unconverged"] == summary["outer_iterations"]
    printed = capsys.readouterr().out
    assert f"inner_unconverged={summary['outer_iterations']}" in printed


def test_denoise_rejects_bad_c(tmp_path, capsys):
    code = main(["denoise", "--synthetic", "--gamma", "3", "--c", "1.0",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "mu/gamma^2" in err


def test_denoise_nan_noise_gamma_is_named(tmp_path, capsys):
    # the error names the noise scale, not the all-NaN observation it made
    assert main(["denoise", "--synthetic", "--size", "16x16",
                 "--noise-gamma", "nan", "--out-dir", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0] == "dcboost denoise: gamma must be nonnegative"


def test_denoise_zero_reference_fails_before_any_output(tmp_path, capsys):
    from dcboost.imaging import write_pgm
    write_pgm(tmp_path / "black.pgm", np.zeros((16, 16)))
    out_dir = tmp_path / "out"
    assert main(["denoise", "--clean", str(tmp_path / "black.pgm"),
                 "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dcboost denoise: reference image is "
                            "identically zero\n")
    assert not out_dir.exists() or not any(out_dir.iterdir())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_identical_files(tmp_path, capsys):
    from dcboost.imaging import write_pgm
    img = np.arange(64.0).reshape(8, 8)
    write_pgm(tmp_path / "a.pgm", img)
    write_pgm(tmp_path / "b.pgm", img)
    code, out = run(capsys, "metrics", str(tmp_path / "a.pgm"),
                    str(tmp_path / "b.pgm"))
    assert code == 0
    assert "psnr_db=inf" in out
    assert "re_err=0" in out


def test_metrics_uniform_plus_one(tmp_path, capsys):
    from dcboost.imaging import write_pgm
    img = np.full((8, 8), 100.0)
    write_pgm(tmp_path / "a.pgm", img + 1.0)
    write_pgm(tmp_path / "b.pgm", img)
    code, out = run(capsys, "metrics", str(tmp_path / "a.pgm"),
                    str(tmp_path / "b.pgm"))
    assert code == 0
    printed = float(out.split("psnr_db=")[1].splitlines()[0])
    assert abs(printed - 20.0 * math.log10(255.0)) <= 1e-10


def test_metrics_shape_mismatch_exit_2(tmp_path, capsys):
    from dcboost.imaging import write_pgm
    write_pgm(tmp_path / "a.pgm", np.zeros((4, 4)))
    write_pgm(tmp_path / "b.pgm", np.zeros((4, 5)))
    assert main(["metrics", str(tmp_path / "a.pgm"),
                 str(tmp_path / "b.pgm")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dcboost metrics: ")


def test_metrics_zero_reference_prints_nothing(tmp_path, capsys):
    # psnr of two equal images is inf, but re_err rejects the zero
    # reference: neither value reaches stdout
    from dcboost.imaging import write_pgm
    write_pgm(tmp_path / "black.pgm", np.zeros((4, 4)))
    assert main(["metrics", str(tmp_path / "black.pgm"),
                 str(tmp_path / "black.pgm")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("dcboost metrics: reference image is "
                            "identically zero\n")


def test_metrics_missing_file_exit_2(tmp_path, capsys):
    assert main(["metrics", str(tmp_path / "nope.pgm"),
                 str(tmp_path / "nope2.pgm")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dcboost metrics: ")
