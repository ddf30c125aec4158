"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion is the FAIL line).  Criteria 4-6 share one set
of denoising runs through a module fixture, so the suite stays inside the
stated runtime budgets.
"""

import math
import time

import numpy as np
import pytest

import oracles
from dcboost import (CauchyModel, NoiseSpec, PdConfig, QuadL1Problem,
                     ScadSeparableProblem, SolverConfig, Variant,
                     add_cauchy_noise, basin_experiment, bdca_line_search,
                     grad, grad_h_cauchy, ibdca_line_search,
                     make_squares_image, psnr, quantize_u8, re_err, solve,
                     tv_prox)
from dcboost.tv_cauchy import div
from oracles import (smooth_part_second_derivative, solve_keeping_iterates,
                     subproblem_point)

REL_TOL = 1e-8  # monotonicity slack, attributable only to inner inexactness


def _best_of(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_runs():
    # (model, cfg, result, iterates of the records)
    runs = []
    quad = QuadL1Problem()
    cfg_quad = SolverConfig(variant=Variant.IBDCA, alpha=0.2, beta=0.5,
                            lambda_bar=2.0)
    runs.append((quad, cfg_quad,
                 *solve_keeping_iterates(quad, np.array([0.5, 1.0]),
                                         cfg_quad)))
    scad = ScadSeparableProblem()
    for variant in (Variant.IBDCA, Variant.DCA):
        cfg = SolverConfig(variant=variant, alpha=0.2, beta=0.7,
                           lambda_bar=3.0)
        runs.append((scad, cfg,
                     *solve_keeping_iterates(scad, np.array([2.2, 0.4]),
                                             cfg)))
    return runs


@pytest.fixture(scope="module")
def denoise_runs():
    clean = make_squares_image(64, 64)
    noisy = quantize_u8(add_cauchy_noise(clean, NoiseSpec(gamma=3.0, seed=7)))
    model = CauchyModel(noisy, mu=15.0, gamma=3.0, c=1.83)
    t0 = time.perf_counter()
    runs, iterates = {}, {}
    for variant, lam_bar in ((Variant.DCA, 10.0), (Variant.NMBDCA, 9.0),
                             (Variant.IBDCA, 10.0)):
        cfg = SolverConfig(variant=variant, alpha=0.9 * model.rho, beta=0.5,
                           lambda_bar=lam_bar, max_outer_iter=200,
                           tol_rel_energy=5e-4, tol_direction=1e-6)
        result, iterates[variant] = solve_keeping_iterates(model, noisy, cfg)
        runs[variant] = (cfg, result)
    elapsed = time.perf_counter() - t0
    return {"clean": clean, "noisy": noisy, "model": model, "runs": runs,
            "iterates": iterates, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_worked_iterate_exactness():
    model = QuadL1Problem()
    cfg = SolverConfig(variant=Variant.IBDCA, alpha=0.2, beta=0.5,
                       lambda_bar=2.0)

    def body():
        x0 = np.array([0.5, 1.0])
        y0 = subproblem_point(model, x0)
        assert np.max(np.abs(y0 - np.array([1.0, 0.0]))) <= 1e-12
        y1 = subproblem_point(model, y0)
        d1 = y1 - y0
        assert np.max(np.abs(y1 - np.array([1.25, 0.0]))) <= 1e-12
        lam, _ = ibdca_line_search(model, y0, y1, d1, cfg)
        assert lam == 2.0
        x2 = y0 + lam * d1
        assert np.max(np.abs(x2 - np.array([1.5, 0.0]))) <= 1e-12
        assert abs(model.phi(x2) - (-9.0 / 8.0)) <= 1e-12

    elapsed = _best_of(body)
    assert elapsed < 1e-3
    print(f"\nPASS criterion 1: worked 2-D iterates exact to 1e-12, "
          f"lambda=2 accepted, phi=-9/8 ({elapsed * 1e6:.0f} us)")


class PhiCountingQuadL1(QuadL1Problem):
    """QuadL1Problem that records the row count of each phi_lanes call."""

    def __init__(self):
        self.rows = []

    def phi_lanes(self, X):
        self.rows.append(len(X))
        return super().phi_lanes(X)


# phi rows of each failed search, phi(y) then its ladder (1 + backtracks)
CRITERION_2_ROWS = {1e-6: 35, 1e-3: 45, 0.2: 53, 0.9: 55, 1.0: 55, 2.0: 56}


def test_criterion_2_bdca_failure_reproduction():
    # the search is cheap by its work, not by the host's clock: every alpha
    # costs two phi_lanes calls and a ladder cut at the Armijo floor
    model = PhiCountingQuadL1()
    x0 = np.array([0.5, 1.0])
    y0 = subproblem_point(model, x0)
    d0 = y0 - x0
    for alpha, rows in CRITERION_2_ROWS.items():
        cfg = SolverConfig(variant=Variant.BDCA, alpha=alpha, beta=0.5,
                           lambda_bar=2.0)
        model.rows.clear()
        lam, backtracks = bdca_line_search(model, y0, d0, cfg)
        assert lam == 0.0
        assert model.rows == [1, backtracks] and 1 + backtracks == rows
    print("\nPASS criterion 2: BDCA returns the lambda=0 failure flag at "
          f"y0 for every alpha > 0 ({sum(CRITERION_2_ROWS.values())} phi "
          "evaluations)")


# attractor counts at seed 7, n = 10^4: (0,0), (0,2), (2,0), (2,2), other
SEED_7_COUNTS = {
    Variant.DCA: (4512, 2239, 2161, 1088, 0),
    Variant.BDCA: (10000, 0, 0, 0, 0),
    Variant.NMBDCA: (9944, 19, 16, 0, 21),
    Variant.IBDCA: (10000, 0, 0, 0, 0),
}
# (outer iterations, backtracks, line-search failures) summed over the starts
SEED_7_TOTALS = {
    Variant.DCA: (72554, 0, 0),
    Variant.BDCA: (37427, 911397, 14997),
    Variant.NMBDCA: (70719, 697860, 9875),
    Variant.IBDCA: (37238, 63706, 0),
}


def test_criterion_3_basin_experiment_desk_scale():
    n = 10000
    t0 = time.perf_counter()
    ibdca = basin_experiment(n, seed=7, variant=Variant.IBDCA)
    dca = basin_experiment(n, seed=7, variant=Variant.DCA)
    nmbdca = basin_experiment(n, seed=7, variant=Variant.NMBDCA)
    bdca = basin_experiment(n, seed=7, variant=Variant.BDCA)
    elapsed = time.perf_counter() - t0

    labels = ("(0,0)", "(0,2)", "(2,0)", "(2,2)", "other")
    for report in (dca, bdca, nmbdca, ibdca):
        counts = tuple(report.counts[label] for label in labels)
        assert counts == SEED_7_COUNTS[report.variant]
        assert tuple(report.totals.values()) == SEED_7_TOTALS[report.variant]

    assert ibdca.counts["(0,0)"] == n
    for label in ("(0,0)", "(0,2)", "(2,0)", "(2,2)"):
        assert dca.counts[label] > 0
    dca_frac = dca.counts["(0,0)"] / n
    assert 0.35 <= dca_frac <= 0.55
    nm_frac = nmbdca.counts["(0,0)"] / n
    assert 0.90 <= nm_frac <= 1.0
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: IBDCA 100% to (0,0); DCA fraction "
          f"{dca_frac:.3f} with all four attractors hit; nmBDCA fraction "
          f"{nm_frac:.3f} ({elapsed:.1f} s single-threaded)")


def test_criterion_4_iteration_count_ordering(denoise_runs):
    runs = denoise_runs["runs"]
    iters = {v: len(res.trace) for v, (_, res) in runs.items()}
    assert iters[Variant.IBDCA] < iters[Variant.NMBDCA] < iters[Variant.DCA]
    assert iters[Variant.IBDCA] <= 0.6 * iters[Variant.DCA]
    # the benchmark's denoise-64 pins at gamma 3
    assert iters == {Variant.IBDCA: 39, Variant.NMBDCA: 42, Variant.DCA: 132}
    assert denoise_runs["elapsed"] < 60.0
    print(f"\nPASS criterion 4: outer iterations IBDCA "
          f"{iters[Variant.IBDCA]} < nmBDCA {iters[Variant.NMBDCA]} < DCA "
          f"{iters[Variant.DCA]}, ratio "
          f"{iters[Variant.IBDCA] / iters[Variant.DCA]:.2f} <= 0.60 "
          f"({denoise_runs['elapsed']:.1f} s)")


def test_criterion_5_restoration_quality(denoise_runs):
    clean, noisy = denoise_runs["clean"], denoise_runs["noisy"]
    _, result = denoise_runs["runs"][Variant.IBDCA]
    restored = quantize_u8(result.final_point)
    gain = psnr(restored, clean) - psnr(noisy, clean)
    assert gain >= 5.0
    assert re_err(restored, clean) < re_err(noisy, clean) / 2.0
    print(f"\nPASS criterion 5: PSNR gain {gain:.2f} dB >= 5; ReErr "
          f"{re_err(restored, clean):.4f} < half of "
          f"{re_err(noisy, clean):.4f}")


def test_criterion_6_monotonicity_suite(toy_runs, denoise_runs):
    suites = list(toy_runs)
    model = denoise_runs["model"]
    for variant in (Variant.DCA, Variant.IBDCA):
        cfg, result = denoise_runs["runs"][variant]
        suites.append((model, cfg, result, denoise_runs["iterates"][variant]))

    checked_traces = 0
    checked_steps = 0
    for mdl, cfg, result, xs in suites:
        if cfg.variant not in (Variant.DCA, Variant.IBDCA):
            continue
        assert result.monotone_violations == 0
        phis = [rec.phi for rec in result.trace] + [result.final_phi]
        for a, b in zip(phis, phis[1:]):
            assert b <= a + REL_TOL * max(1.0, abs(a))
        if cfg.variant is Variant.IBDCA:
            # recompute the subproblem point from each stored iterate and
            # verify both acceptance inequalities post hoc
            for rec, x, phi_next in zip(result.trace, xs, phis[1:]):
                if rec.lam == 0.0:
                    continue
                y = subproblem_point(mdl, x)
                slack = REL_TOL * max(1.0, abs(rec.phi))
                assert phi_next <= (rec.phi
                                    - cfg.alpha * rec.lam * rec.d_norm ** 2
                                    + slack)
                assert phi_next <= mdl.phi(y) + slack
                checked_steps += 1
        checked_traces += 1
    assert checked_traces == 5
    assert checked_steps > 20
    print(f"\nPASS criterion 6: {checked_traces} DCA/IBDCA traces "
          f"nonincreasing at 1e-8 relative; sufficient decrease and "
          f"phi(x_k+1) <= phi(y_k) verified on {checked_steps} IBDCA steps")


def test_criterion_7_operator_oracle_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()

    # adjoint identity on 100 random instances
    for _ in range(100):
        u = rng.normal(size=(5, 7)) * rng.uniform(1.0, 100.0)
        px = rng.normal(size=(5, 7)) * rng.uniform(1.0, 100.0)
        py = rng.normal(size=(5, 7)) * rng.uniform(1.0, 100.0)
        gx, gy = grad(u)
        lhs = float(np.vdot(gx, px) + np.vdot(gy, py))
        rhs = -float(np.vdot(u, div((px, py))))
        scale = float(np.linalg.norm(u)
                      * math.hypot(np.linalg.norm(px), np.linalg.norm(py)))
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)

    # TV prox against the independent dual-FISTA oracle, 20 random 4x4
    # (6000 oracle iterations sit ~1e-7 from its fully converged answer,
    # three orders below the 1e-4 comparison threshold)
    cfg = PdConfig(max_inner_iter=4000, tol_inner=1e-12)
    vs = np.array([rng.normal(size=(4, 4)) for _ in range(20)])
    refs = oracles.tv_prox_dual_fista(vs, c=1.0, n_iter=6000)
    worst = 0.0
    for v, ref in zip(vs, refs):
        res = tv_prox(v, 1.0, cfg, v / 1.0)
        worst = max(worst, float(np.max(np.abs(res.u - ref))))
    assert worst <= 1e-4

    # smooth-part gradient against central differences, 20 directions
    f = rng.uniform(0.0, 255.0, size=(6, 6))
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)

    def h_value(u):
        r = u - f
        return (-0.5 * model.mu
                * float(np.log(model.gamma ** 2 + r * r).sum())
                + 0.5 * model.c * float(np.vdot(u, u)))

    u = f + rng.normal(scale=10.0, size=f.shape)
    g = grad_h_cauchy(u, model)
    for _ in range(20):
        direction = rng.normal(size=f.shape)
        direction /= float(np.linalg.norm(direction))
        fd = oracles.central_fd_directional(h_value, u, direction, step=1e-5)
        analytic = float(np.vdot(g, direction))
        assert abs(fd - analytic) <= 1e-6 * max(abs(analytic), 1.0)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nPASS criterion 7: adjoint identity (100), TV-prox vs dual "
          f"oracle (20, worst {worst:.2e} <= 1e-4), gradient FD (20) "
          f"({elapsed:.1f} s)")


def test_criterion_8_convexity_threshold():
    t0 = time.perf_counter()
    mu, gamma = 15.0, 3.0
    c_star = mu / gamma ** 2
    grid = np.concatenate([np.linspace(-1000.0, 1000.0, 200001),
                           np.linspace(-2.0 * gamma, 2.0 * gamma, 200001)])
    values = smooth_part_second_derivative(grid, mu, gamma, c_star)
    assert float(values.min()) >= -1e-12
    assert abs(smooth_part_second_derivative(0.0, mu, gamma, c_star)) <= 1e-12

    f = np.full((4, 4), 100.0)
    with pytest.raises(ValueError):
        CauchyModel(f, mu=mu, gamma=gamma, c=c_star)
    with pytest.raises(ValueError):
        CauchyModel(f, mu=mu, gamma=gamma, c=0.5 * c_star)
    CauchyModel(f, mu=mu, gamma=gamma, c=c_star + 1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 8: curvature >= -1e-12 on the dense grid at "
          f"c = mu/gamma^2; constructor rejects c <= mu/gamma^2 "
          f"({elapsed:.2f} s)")
