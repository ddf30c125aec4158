"""Command-line entry point: toy runs, attractor counts, denoising, metrics.

Every run writes a JSON manifest with its resolved flags and output paths
beside the outputs, so results can be reproduced from the manifest alone.

Exit codes are decided in :func:`main` alone; the commands let the
library's exceptions through.  0: success.  1: a numerical failure -- a
:class:`SubproblemError`, ``toy`` stopping at its iteration cap, or
``denoise`` ending on an unconverged inner solve -- or stdout closed by its
reader.  2: a rejected input -- any ``ValueError``, ``ArithmeticError`` or
``OSError``, which covers bad flag values, unreadable input files and an
unwritable ``--out-dir`` (argparse exits 2 on malformed flags itself).  A
solver failure or a rejected input prints one line, ``dcboost <command>:
...``, to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
from contextlib import closing
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dc_core import (SolverConfig, Status, SubproblemError, Variant,
                      first_trial_step, solve)
from .imaging import (NoiseSpec, add_cauchy_noise, make_squares_image, psnr,
                      quantize_u8, re_err, read_pgm, write_pgm)
from .toy_problems import (LABELS, QuadL1Problem, ScadSeparableProblem,
                           basin_experiment, default_basin_config,
                           write_basin_csv)
from .tv_cauchy import CauchyModel, PdConfig

# standard protocol: mu by noise level, and the tuned c for the two
# (gamma, mu) pairs; anything else gets a 10% strong-convexity surplus
DEFAULT_MU = {3.0: 15.0, 5.0: 20.0}
DEFAULT_C = {(3.0, 15.0): 1.83, (5.0, 20.0): 1.10}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # overflow to inf/nan is caught by the finiteness checks, not warned
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # an OSError, so it comes first
        # the reader closed stdout early (``| head -1``); send what is still
        # buffered to devnull so the exit-time flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except SubproblemError as err:
        print(f"dcboost {args.command}: solver failure: {err} "
              f"(residual {err.residual:g})", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as err:
        # a rejected flag value, an unreadable input, an unwritable out-dir
        print(f"dcboost {args.command}: {err}", file=sys.stderr)
        return 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcboost",
        description="Difference-of-convex solvers with boosted line searches.")
    sub = parser.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="run one solver on an analytic 2-D problem")
    toy.add_argument("--example", choices=("quadl1", "scad"), required=True)
    toy.add_argument("--x0", type=point, required=True, metavar="U,V",
                     help="starting point, e.g. 0.5,1")
    _add_variant_flag(toy)
    _add_solver_flags(toy)
    _add_out_dir(toy)
    toy.set_defaults(func=cmd_toy)

    basin = sub.add_parser("basin",
                           help="attractor counts over random starts")
    basin.add_argument("--n", type=int, required=True)
    basin.add_argument("--seed", type=int, default=0)
    _add_variant_flag(basin)
    _add_solver_flags(basin)
    _add_out_dir(basin)
    basin.set_defaults(func=cmd_basin)

    den = sub.add_parser("denoise", help="restore a Cauchy-noise image")
    src = den.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", action="store_true",
                     help="generate the squares test image as clean input")
    src.add_argument("--input", metavar="PGM",
                     help="already-noisy observation (no clean reference)")
    src.add_argument("--clean", metavar="PGM",
                     help="clean image to which synthetic noise is added")
    den.add_argument("--size", type=size, default=(64, 64), metavar="M1xM2",
                     help="synthetic image size (default 64x64)")
    den.add_argument("--gamma", type=float, default=3.0,
                     help="fidelity scale of the noise model (default 3)")
    den.add_argument("--noise-gamma", type=float, default=None,
                     help="scale of the synthesized noise (default: --gamma)")
    den.add_argument("--seed", type=int, default=7)
    den.add_argument("--mu", type=float, default=None,
                     help="fidelity weight (default 15 at gamma=3, 20 at 5)")
    den.add_argument("--c", type=float, default=None,
                     help="strong-convexity shift (default: tuned per gamma)")
    _add_variant_flag(den)
    _add_solver_flags(den)
    den.add_argument("--inner-max-iter", type=int)
    den.add_argument("--inner-tol", type=float)
    _add_out_dir(den)
    den.set_defaults(func=cmd_denoise)

    met = sub.add_parser("metrics", help="PSNR and relative error of a vs b")
    met.add_argument("a", help="image under test (PGM)")
    met.add_argument("b", help="reference image (PGM)")
    met.set_defaults(func=cmd_metrics)
    return parser


# argparse turns a ValueError here into "invalid <function name> value"
def point(text):
    u, v = text.split(",")
    return (float(u), float(v))


def size(text):
    m1, m2 = text.lower().split("x")
    return (int(m1), int(m2))


def _add_variant_flag(p):
    p.add_argument("--variant", choices=[v.value for v in Variant],
                   default="ibdca")


# flag (argparse dest) -> SolverConfig / PdConfig field.  The flags default
# to None; each command overlays the ones given onto its own defaults.
_INNER_FLAGS = {"inner_max_iter": "max_inner_iter", "inner_tol": "tol_inner"}
_SOLVER_FLAGS = {
    "alpha": "alpha",
    "beta": "beta",
    "lambda_bar": "lambda_bar",
    "max_iter": "max_outer_iter",
    "tol_rel_energy": "tol_rel_energy",
    "tol_direction": "tol_direction",
    "max_backtracks": "max_backtracks",
}


def _add_solver_flags(p):
    p.add_argument("--alpha", type=float,
                   help="sufficient-decrease coefficient")
    p.add_argument("--beta", type=float, help="backtracking shrink factor")
    p.add_argument("--lambda-bar", type=float,
                   help="first trial step (default depends on variant)")
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol-rel-energy", type=float,
                   help="relative objective-change stop (<= 0 disables)")
    p.add_argument("--tol-direction", type=float,
                   help="||d|| threshold declaring a critical point")
    p.add_argument("--max-backtracks", type=int)


def _add_out_dir(p):
    p.add_argument("--out-dir", default=".")


def _denoise_defaults(variant, rho):
    """The restoration protocol's outer settings for a model of modulus rho,
    farthest probe at x + 10d (see :func:`first_trial_step`)."""
    return SolverConfig(variant, alpha=0.9 * rho, beta=0.5,
                        lambda_bar=first_trial_step(variant, 10.0),
                        max_outer_iter=200, tol_rel_energy=5e-4,
                        tol_direction=1e-6)


def _solver_config(args, defaults, flags=_SOLVER_FLAGS):
    """``defaults`` with the ``flags`` given on the command line."""
    given = {field: getattr(args, flag) for flag, field in flags.items()
             if getattr(args, flag) is not None}
    return dataclasses.replace(defaults, **given)


def _ensure_out_dir(path):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_text(payload):
    """RFC 8259 JSON text: a non-finite float is written as null."""
    def strict(value):
        if isinstance(value, dict):
            return {key: strict(item) for key, item in value.items()}
        if isinstance(value, list):
            return [strict(item) for item in value]
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value
    return json.dumps(strict(payload), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _write_manifest(out_dir, command, cfg, rho, flags, outputs, **extra):
    """``<command>_manifest.json``: the command's ``flags``, the resolved
    solver flags, rho, and whether alpha exceeds rho (which voids the
    monotone descent IBDCA's line search relies on)."""
    payload = {
        "command": command,
        "flags": {**flags, "variant": cfg.variant.value,
                  "out_dir": str(out_dir),
                  **{flag: getattr(cfg, field)
                     for flag, field in _SOLVER_FLAGS.items()}},
        "outputs": {name: str(p) for name, p in outputs.items()},
        "version": __version__,
        "rho": rho,
        "alpha_exceeds_rho": cfg.alpha > rho,
        **extra,
    }
    path = out_dir / f"{command}_manifest.json"
    path.write_text(_json_text(payload))
    return path


# trace CSV columns, one row per outer iteration, then the command's aux keys
TRACE_COLUMNS = ("k", "phi", "d_norm", "lambda", "backtracks", "wall_time_s")


def format_float(value):
    """17 significant digits: every double reads back exactly."""
    return format(float(value), ".17g")


def trace_row(rec, aux_keys=()):
    """One CSV row for a record; ``aux_keys`` columns read nan if missing."""
    row = [
        str(rec.k),
        format_float(rec.phi),
        format_float(rec.d_norm),
        format_float(rec.lam),
        str(rec.backtracks),
        format_float(rec.wall_time),
    ]
    row.extend(format_float(rec.aux.get(key, float("nan"))) for key in aux_keys)
    return ",".join(row)


class _TraceStream:
    """Appends one CSV row per record as the solve progresses, so partial
    traces survive an interrupted run.  The file is created with the first
    record: a start that ``solve`` rejects, or a subproblem failure before
    any record, leaves no trace file."""

    def __init__(self, path, aux_keys=()):
        self.path = path
        self.aux_keys = tuple(aux_keys)
        self.fh = None

    def __call__(self, rec):
        if self.fh is None:
            self.fh = open(self.path, "w", newline="")
            self.fh.write(",".join(TRACE_COLUMNS + self.aux_keys) + "\n")
        self.fh.write(trace_row(rec, self.aux_keys) + "\n")
        self.fh.flush()

    def close(self):
        if self.fh is not None:
            self.fh.close()


def cmd_toy(args):
    model = QuadL1Problem() if args.example == "quadl1" else ScadSeparableProblem()
    cfg = _solver_config(args, default_basin_config(args.variant))
    out_dir = _ensure_out_dir(args.out_dir)
    trace_path = out_dir / "toy_trace.csv"
    with closing(_TraceStream(trace_path)) as stream:
        result = solve(model, np.array(args.x0), cfg, on_record=stream)

    _write_manifest(out_dir, "toy", cfg, model.rho,
                    {"example": args.example, "x0": list(args.x0)},
                    {"trace": trace_path})

    u, v = (format_float(t) for t in result.final_point)
    print(f"final_point=({u},{v}) phi={format_float(result.final_phi)} "
          f"iterations={len(result.trace)} status={result.status.value}")
    return 0 if result.status is not Status.MAX_ITERATIONS else 1


def cmd_basin(args):
    cfg = _solver_config(args, default_basin_config(args.variant))
    report = basin_experiment(args.n, args.seed, cfg.variant, cfg=cfg)

    out_dir = _ensure_out_dir(args.out_dir)
    csv_path = out_dir / "basin_report.csv"
    write_basin_csv(report, csv_path)
    totals = {"outer_iterations": report.outer_iterations,
              "backtracks": report.backtracks,
              "linesearch_failures": report.linesearch_failures}
    _write_manifest(out_dir, "basin", cfg, ScadSeparableProblem.rho,
                    {"n": args.n, "seed": args.seed}, {"report": csv_path},
                    totals=totals)

    for label in LABELS:
        count = report.counts.get(label, 0)
        print(f"{label} count={count} fraction={count / report.n_points:.4f}")
    print(f"n_points={report.n_points} variant={report.variant.value} "
          f"elapsed_s={report.elapsed:.3f}")
    print(" ".join(f"{key}={value}" for key, value in totals.items()))
    return 0


def cmd_denoise(args):
    gamma = args.gamma
    if gamma <= 0.0:
        raise ValueError("--gamma must be positive")
    if not 0.0 < gamma * gamma < math.inf:  # else gamma ** 2 below fails
        raise ValueError(f"--gamma {gamma:g} is out of range")
    mu = args.mu if args.mu is not None else DEFAULT_MU.get(gamma, 15.0)
    noise_gamma = args.noise_gamma if args.noise_gamma is not None else gamma

    clean, noisy, source = _load_observation(args, noise_gamma)
    # before any output: re_err rejects an all-zero reference
    noisy_metrics = {} if clean is None else {
        "psnr_noisy": psnr(noisy, clean), "re_err_noisy": re_err(noisy, clean)}
    inner = _solver_config(args, PdConfig(), _INNER_FLAGS)
    c = args.c if args.c is not None else DEFAULT_C.get(
        (gamma, mu), 1.1 * mu / gamma ** 2)
    model = CauchyModel(noisy, mu, gamma, c, inner)

    cfg = _solver_config(args, _denoise_defaults(args.variant, model.rho))

    out_dir = _ensure_out_dir(args.out_dir)
    outputs = {}
    trace_path = out_dir / "denoise_trace.csv"

    stream = _TraceStream(trace_path, aux_keys=("energy", "psnr",
                                                "inner_iters", "inner_resid"))

    def on_record(rec):
        rec.aux["energy"] = rec.phi
        rec.aux["psnr"] = psnr(rec.x, clean) if clean is not None else math.nan
        stream(rec)

    with closing(stream):
        result = solve(model, noisy, cfg, on_record=on_record)  # u0 = f
    outputs["trace"] = trace_path
    restored_q = quantize_u8(result.final_point)
    restored_path = out_dir / "restored.pgm"
    write_pgm(restored_path, restored_q)
    outputs["restored"] = restored_path
    if source != "input":
        noisy_path = out_dir / "noisy.pgm"
        write_pgm(noisy_path, noisy)
        outputs["noisy"] = noisy_path
    if clean is not None:
        clean_path = out_dir / "clean.pgm"
        write_pgm(clean_path, clean)
        outputs["clean"] = clean_path

    summary = {
        "status": result.status.value,
        "outer_iterations": len(result.trace),
        "final_energy": result.final_phi,
        "monotone_violations": result.monotone_violations,
        **noisy_metrics,
    }
    if clean is not None:
        summary["psnr_restored"] = psnr(restored_q, clean)
        summary["re_err_restored"] = re_err(restored_q, clean)
    unconverged = [rec.aux.get("inner_converged", 1.0) == 0.0
                   for rec in result.trace]
    summary["inner_unconverged"] = sum(unconverged)
    summary["inner_converged_final"] = inner_ok = not any(unconverged[-1:])
    metrics_path = out_dir / "denoise_metrics.json"
    metrics_path.write_text(_json_text(summary))
    outputs["metrics"] = metrics_path

    flags = {
        "source": source, "size": list(noisy.shape), "gamma": gamma,
        "noise_gamma": noise_gamma, "seed": args.seed, "mu": mu, "c": c,
        "inner_max_iter": inner.max_inner_iter, "inner_tol": inner.tol_inner,
    }
    _write_manifest(out_dir, "denoise", cfg, model.rho, flags, outputs)

    for key, value in sorted(summary.items()):
        text = format_float(value) if isinstance(value, float) else value
        print(f"{key}={text}")
    return 0 if inner_ok else 1


def _load_observation(args, noise_gamma):
    """Returns (clean or None, noisy observation, source label).

    Synthesized observations are quantized to the 8-bit grid up front, so
    the solver input, the written noisy.pgm and every reported metric all
    describe the same image.
    """
    if args.input is not None:
        return None, read_pgm(args.input), "input"
    if args.synthetic:
        clean, source = make_squares_image(*args.size), "synthetic"
    else:
        clean, source = read_pgm(args.clean), "clean"
    spec = NoiseSpec(gamma=noise_gamma, seed=args.seed)
    return clean, quantize_u8(add_cauchy_noise(clean, spec)), source


def cmd_metrics(args):
    a = read_pgm(args.a)
    b = read_pgm(args.b)
    psnr_db, rel_err = psnr(a, b), re_err(a, b)  # re_err may reject b
    print(f"psnr_db={format_float(psnr_db)}")
    print(f"re_err={format_float(rel_err)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
