"""The three benchmark workloads.

Each is one process, a closed loop with one caller: a pass starts only when
the previous one has finished.  A workload builds its inputs from the seed
(``make_inputs``), warms up, and then runs timed passes.  Every pass checks
the program's outputs; an operation fails when it raises, exits non-zero or
fails a check.  Library functions are looked up on their module at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from dcboost import cli, dc_core, imaging, toy_problems, tv_cauchy

VARIANTS = ("dca", "bdca", "nmbdca", "ibdca")
REFERENCE_SEED = 7
# bound at import, so the benchmark's own output checks never run through the
# traced run's wrappers and never count as the program's calls
_check_psnr = imaging.psnr
_check_quantize = imaging.quantize_u8
_check_read_pgm = imaging.read_pgm


@dataclass
class PassOutcome:
    """One pass: its wall time, operation tally and deterministic outputs."""

    seconds: float
    attempted: int
    problems: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    counts: dict = field(default_factory=dict)

    def fail(self, op, reason):
        self.failed_ops.add(op)
        self.problems.append(f"{op}: {reason}")

    @property
    def failed(self):
        return len(self.failed_ops)


def _attempt(errors, op, fn):
    """Run one operation; returns its value, or None after recording a raise."""
    try:
        return fn()
    except Exception as err:  # operation boundary: record it, keep going
        errors[op] = f"raised {type(err).__name__}: {err}"
        return None


# ---------------------------------------------------------------------------
# basin-1e4
# ---------------------------------------------------------------------------

BASIN_N = 10_000
BASIN_LABELS = ("(0,0)", "(0,2)", "(2,0)", "(2,2)", "other")
# attractor counts, in BASIN_LABELS order, at the reference seed
BASIN_REFERENCE = {
    "dca": (4512, 2239, 2161, 1088, 0),
    "bdca": (10000, 0, 0, 0, 0),
    "nmbdca": (9944, 19, 16, 0, 21),
    "ibdca": (10000, 0, 0, 0, 0),
}


class Basin:
    """10^4 starts in [0,3]^2 through ``basin_experiment``, all four variants,
    one after another in one process (the default single worker)."""

    name = "basin-1e4"

    def __init__(self, seed, work_dir):
        self.seed = seed

    def make_inputs(self):
        # the same Philox(key=seed) draw that basin_experiment makes
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        self.points = 3.0 * rng.random((BASIN_N, 2))
        self.configs = {v: toy_problems.default_basin_config(v)
                        for v in VARIANTS}

    def warm_up(self):
        for v in VARIANTS:
            toy_problems.basin_experiment(200, self.seed, v,
                                          cfg=self.configs[v],
                                          points=self.points[:200])

    def run_pass(self):
        reports, errors = {}, {}
        t0 = time.perf_counter()
        for v in VARIANTS:
            reports[v] = _attempt(errors, v, lambda v=v: (
                toy_problems.basin_experiment(BASIN_N, self.seed, v,
                                              cfg=self.configs[v],
                                              points=self.points)))
        out = PassOutcome(time.perf_counter() - t0, attempted=len(VARIANTS))
        for v in VARIANTS:
            if v in errors:
                out.fail(v, errors[v])
                continue
            counts = tuple(reports[v].counts.get(label, 0)
                           for label in BASIN_LABELS)
            out.counts[f"attractors.{v}"] = list(counts)
            if sum(counts) != BASIN_N:
                out.fail(v, f"counts sum to {sum(counts)}, not {BASIN_N}")
            if (self.seed == REFERENCE_SEED
                    and counts != BASIN_REFERENCE[v]):
                out.fail(v, f"counts {counts} differ from the reference "
                            f"{BASIN_REFERENCE[v]}")
        return out

    def close(self):
        pass


# ---------------------------------------------------------------------------
# denoise-64
# ---------------------------------------------------------------------------

# (gamma, mu, c) of the standard protocol
DENOISE_CASES = ((3.0, 15.0, 1.83), (5.0, 20.0, 1.10))
# outer iterations at gamma 3 and the reference seed
DENOISE_REFERENCE = {"dca": 132, "nmbdca": 42, "ibdca": 39}


def _denoise_config(variant, rho, **overrides):
    """The protocol's outer settings; bdca/nmbdca search from y, so their
    first trial step is one less."""
    params = dict(variant=variant, alpha=0.9 * rho, beta=0.5,
                  lambda_bar=9.0 if variant in ("bdca", "nmbdca") else 10.0,
                  max_outer_iter=200, tol_rel_energy=5e-4, tol_direction=1e-6)
    params.update(overrides)
    return dc_core.SolverConfig(**params)


class Denoise64:
    """A 64^2 squares image with seeded Cauchy noise at gamma 3 and 5, each
    restored by all four variants: 8 solves per pass."""

    name = "denoise-64"
    size = (64, 64)

    def __init__(self, seed, work_dir):
        self.seed = seed

    def make_inputs(self):
        self.clean = imaging.make_squares_image(*self.size)
        self.cases = []
        for gamma, mu, c in DENOISE_CASES:
            noisy = imaging.quantize_u8(imaging.add_cauchy_noise(
                self.clean, imaging.NoiseSpec(gamma=gamma, seed=self.seed)))
            model = tv_cauchy.CauchyModel(noisy, mu, gamma, c)
            configs = {v: _denoise_config(v, model.rho) for v in VARIANTS}
            self.cases.append((gamma, noisy, model, configs))
        self.noisy_psnr = {gamma: _check_psnr(noisy, self.clean)
                           for gamma, noisy, *_ in self.cases}

    def warm_up(self):
        for _, noisy, model, _ in self.cases:
            cfg = _denoise_config("ibdca", model.rho, max_outer_iter=3)
            dc_core.solve(model, noisy, cfg)

    def run_pass(self):
        results, errors = {}, {}
        t0 = time.perf_counter()
        for gamma, noisy, model, configs in self.cases:
            for v in VARIANTS:
                op = f"gamma={gamma:g}/{v}"
                res = _attempt(errors, op, lambda: dc_core.solve(
                    model, noisy, configs[v]))
                if res is not None:
                    results[op] = res
        out = PassOutcome(time.perf_counter() - t0,
                          attempted=len(self.cases) * len(VARIANTS))
        for op, reason in errors.items():
            out.fail(op, reason)
        psnrs = {op: _check_psnr(_check_quantize(res.final_point), self.clean)
                 for op, res in results.items()}
        restored_psnr, energy = [], 0.0
        for gamma, *_ in self.cases:
            iters = {}
            for v in VARIANTS:
                op = f"gamma={gamma:g}/{v}"
                res = results.get(op)
                if res is None:
                    continue
                iters[v] = len(res.trace)
                out.counts[f"{op}.outer_iters"] = iters[v]
                out.counts[f"{op}.inner_iters"] = int(sum(
                    rec.aux.get("inner_iters", 0) for rec in res.trace))
                out.counts[f"{op}.final_energy"] = res.final_phi
                out.counts[f"{op}.psnr_db"] = psnrs[op]
                restored_psnr.append(psnrs[op])
                energy += res.final_phi
                if v in ("dca", "ibdca") and res.monotone_violations:
                    out.fail(op, f"{res.monotone_violations} monotone "
                                 "violations")
                noisy_psnr = self.noisy_psnr[gamma]
                if not psnrs[op] > noisy_psnr:
                    out.fail(op, f"restored PSNR {psnrs[op]:.3f} dB is not "
                                 f"above the noisy {noisy_psnr:.3f}")
            if len(iters) == len(VARIANTS):
                self._check_ordering(out, gamma, iters)
        out.counts["psnr_db"] = (sum(restored_psnr) / len(restored_psnr)
                                 if restored_psnr else float("nan"))
        out.counts["final_energy"] = energy
        return out

    def _check_ordering(self, out, gamma, iters):
        """Outer iterations: both boosted searches beat DCA at every seed; the
        full ibdca < nmbdca < dca chain is checked at the reference seed,
        because ibdca and nmbdca tie or swap on some noise draws.  At the
        reference seed the gamma 3 counts must equal the reference."""
        ops = {v: f"gamma={gamma:g}/{v}" for v in ("ibdca", "nmbdca", "dca")}
        ib, nm, dca = iters["ibdca"], iters["nmbdca"], iters["dca"]
        if self.seed == REFERENCE_SEED:
            ordered = ib < nm < dca
        else:
            ordered = max(ib, nm) < dca
        if not ordered:
            for op in ops.values():
                out.fail(op, f"outer iterations out of order: ibdca {ib}, "
                             f"nmbdca {nm}, dca {dca}")
        if self.seed == REFERENCE_SEED and gamma == 3.0:
            for v, want in DENOISE_REFERENCE.items():
                if iters[v] != want:
                    out.fail(ops[v], f"{iters[v]} outer iterations, not the "
                                     f"reference {want}")

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli-denoise-256
# ---------------------------------------------------------------------------

CLI_OUTPUTS = ("denoise_trace.csv", "restored.pgm", "noisy.pgm", "clean.pgm",
               "denoise_metrics.json", "denoise_manifest.json")
# ibdca at the reference seed: outer iterations, inner iterations, PSNR (dB)
CLI_REFERENCE = (43, 1494, 36.973)


class CliDenoise256:
    """In-process ``dcboost denoise --synthetic --size 256x256 --gamma 3
    --variant ibdca``: one CLI call per pass, timed around ``cli.main``."""

    name = "cli-denoise-256"

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.work_dir = work_dir / f"cli-{seed}"
        self.passes = 0

    def _argv(self, size, out_dir):
        return ["denoise", "--synthetic", "--size", size, "--gamma", "3",
                "--seed", str(self.seed), "--variant", "ibdca",
                "--out-dir", str(out_dir)]

    def make_inputs(self):
        # the CLI synthesizes its own observation from --seed
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)

    def warm_up(self):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(self._argv("64x64", self.work_dir / "warm-up"))

    def run_pass(self):
        self.passes += 1
        out_dir = self.work_dir / f"pass-{self.passes}"
        errors = {}
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = _attempt(errors, "cli", lambda: cli.main(
                self._argv("256x256", out_dir)))
            seconds = time.perf_counter() - t0
        out = PassOutcome(seconds, attempted=1)
        if errors:
            out.fail("cli", errors["cli"])
        elif rc != 0:
            out.fail("cli", f"exit code {rc}")
        else:
            self._check_outputs(out, out_dir)
        shutil.rmtree(self.work_dir / f"pass-{self.passes - 1}",
                      ignore_errors=True)
        return out

    def _check_outputs(self, out, out_dir):
        missing = [n for n in CLI_OUTPUTS if not (out_dir / n).is_file()]
        if missing:
            out.fail("cli", f"missing outputs {missing}")
            return
        summary = json.loads((out_dir / "denoise_metrics.json").read_text())
        recomputed = _check_psnr(_check_read_pgm(out_dir / "restored.pgm"),
                                 _check_read_pgm(out_dir / "clean.pgm"))
        if summary["psnr_restored"] != recomputed:
            out.fail("cli", f"psnr_restored {summary['psnr_restored']!r} != "
                            f"{recomputed!r} recomputed from the PGMs")
        with open(out_dir / "denoise_trace.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        out.counts.update({
            "outer_iters": summary["outer_iterations"],
            "inner_iters": int(sum(float(r["inner_iters"]) for r in rows)),
            "trace_rows": len(rows),
            "psnr_db": summary["psnr_restored"],
            "final_energy": summary["final_energy"],
        })
        if self.seed == REFERENCE_SEED:
            got = (out.counts["outer_iters"], out.counts["inner_iters"],
                   round(out.counts["psnr_db"], 3))
            if got != CLI_REFERENCE:
                out.fail("cli", f"outer iterations, inner iterations and "
                                f"PSNR {got} differ from the reference "
                                f"{CLI_REFERENCE}")

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Basin, Denoise64, CliDenoise256)}
