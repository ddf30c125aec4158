"""Difference-of-convex solvers with boosted line searches, analytic test
problems, and a Cauchy-noise image-restoration application."""

__version__ = "0.1.0"

from .dc_core import (DcModel, IterateRecord, SolveResult, SolverConfig,
                      Status, SubproblemError, Variant, bdca_line_search,
                      ibdca_line_search, nmbdca_line_search, solve)
from .imaging import (NoiseSpec, PgmError, add_cauchy_noise,
                      make_squares_image, psnr, quantize_u8, re_err, read_pgm,
                      write_pgm)
from .toy_problems import (LABELS, BasinReport, QuadL1Problem,
                           ScadSeparableProblem, basin_experiment,
                           classify_lanes, write_basin_csv)
from .tv_cauchy import (CauchyModel, PdConfig, TvProxResult, div, energy,
                        grad, grad_h_cauchy, tv, tv_prox)

__all__ = [
    "BasinReport", "CauchyModel", "DcModel", "IterateRecord", "LABELS",
    "NoiseSpec", "PdConfig", "PgmError", "QuadL1Problem",
    "ScadSeparableProblem", "SolveResult", "SolverConfig", "Status",
    "SubproblemError", "TvProxResult", "Variant", "add_cauchy_noise",
    "basin_experiment", "bdca_line_search", "classify_lanes", "div",
    "energy", "grad", "grad_h_cauchy", "ibdca_line_search",
    "make_squares_image", "nmbdca_line_search", "psnr", "quantize_u8",
    "re_err", "read_pgm", "solve", "tv", "tv_prox", "write_basin_csv",
    "write_pgm",
]
