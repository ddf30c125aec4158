import dataclasses
import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from dcboost import (CauchyModel, NoiseSpec, QuadL1Problem,
                     ScadSeparableProblem, SolverConfig, Status,
                     SubproblemError, Variant, add_cauchy_noise,
                     bdca_line_search, ibdca_line_search, make_squares_image,
                     nmbdca_line_search, quantize_u8, solve)
from dcboost import dc_core
from dcboost.cli import _TraceStream
from dcboost.dc_core import DcModel, solve_lanes
from dcboost.toy_problems import default_basin_config
from oracles import (quadl1_criticality_gap, scad_criticality_gap,
                     scad_h_tilde_prime, solve_keeping_iterates,
                     subproblem_point)


class QuadraticModel(DcModel):
    """Smooth test split: g = (3/2)||x||^2, h = (1/2)||x||^2, phi = ||x||^2."""

    shape = (2,)
    rho = 1.0

    def phi_lanes(self, X):
        return np.array([float(np.vdot(x, x)) for x in X])

    def subproblem_lanes(self, X):
        return np.asarray(X, dtype=float) / 3.0, [{}] * len(X)


class BrokenModel(QuadraticModel):
    def subproblem_lanes(self, X):
        return np.full(np.shape(X), math.nan), [{}] * len(X)


def linearized_step(model, x):
    """The linearized step: subproblem solution y and direction y - x."""
    y = subproblem_point(model, x)
    return y, y - x


def ibdca_cfg(**kw):
    base = dict(variant=Variant.IBDCA, alpha=0.2, beta=0.5, lambda_bar=2.0)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# the model contract and the linearized step
# ---------------------------------------------------------------------------

def test_model_contract_is_phi_and_subproblem():
    assert DcModel.__abstractmethods__ == {"phi_lanes", "subproblem_lanes"}


def test_dca_step_first_worked_iterate():
    model = QuadL1Problem()
    y, d = linearized_step(model, np.array([0.5, 1.0]))
    assert np.allclose(y, [1.0, 0.0], atol=1e-12, rtol=0)
    assert np.allclose(d, [0.5, -1.0], atol=1e-12, rtol=0)


def test_dca_step_second_worked_iterate():
    model = QuadL1Problem()
    y, d = linearized_step(model, np.array([1.0, 0.0]))
    assert np.allclose(y, [1.25, 0.0], atol=1e-12, rtol=0)
    assert np.allclose(d, [0.25, 0.0], atol=1e-12, rtol=0)


def test_dca_step_scad_origin_is_fixed_point():
    # oracle: dense grid argmin of g~(t) - h~'(0) * t is 0
    w0 = scad_h_tilde_prime(0.0)
    t_star = oracles.grid_argmin(lambda t: oracles.scad_g_vec(t) - w0 * t,
                                 -4.0, 4.0)
    assert abs(t_star) <= 1e-6
    y, d = linearized_step(ScadSeparableProblem(), np.array([0.0, 0.0]))
    assert np.all(y == 0.0) and np.all(d == 0.0)


def test_dca_step_decrease_bound():
    # phi(y) <= phi(x) - rho * ||d||^2 at arbitrary points
    rng = np.random.default_rng(3)
    for model in (QuadL1Problem(), ScadSeparableProblem()):
        for _ in range(50):
            x = rng.uniform(-3.0, 3.0, size=2)
            y, d = linearized_step(model, x)
            assert model.phi(y) <= model.phi(x) - model.rho * np.vdot(d, d) + 1e-12


def test_dca_step_rejects_nonfinite_subproblem():
    # the DCA step inside solve checks the subproblem solution, every variant
    for variant in Variant:
        with pytest.raises(SubproblemError):
            solve(BrokenModel(), np.array([1.0, 1.0]),
                  SolverConfig(variant=variant))


# ---------------------------------------------------------------------------
# IBDCA line search
# ---------------------------------------------------------------------------

def test_ibdca_accepts_lambda_2_on_second_worked_iterate():
    model = QuadL1Problem()
    x = np.array([1.0, 0.0])
    y, d = linearized_step(model, x)
    lam, backtracks = ibdca_line_search(model, x, y, d, ibdca_cfg())
    assert lam == 2.0
    assert backtracks == 0
    x_next = x + lam * d
    assert np.allclose(x_next, [1.5, 0.0], atol=1e-12, rtol=0)
    # both acceptance conditions, recomputed
    assert model.phi(x_next) <= model.phi(x) - 0.2 * 2.0 * np.vdot(d, d)
    assert model.phi(x_next) <= model.phi(y)


def test_ibdca_clamps_to_one_when_no_rung_passes():
    # the first worked iterate: the lambda = 2 trial fails the dominance test
    model = QuadL1Problem()
    x = np.array([0.5, 1.0])
    y, d = linearized_step(model, x)
    lam, backtracks = ibdca_line_search(model, x, y, d, ibdca_cfg())
    assert lam == 1.0
    assert backtracks >= 1
    # the clamped step is the pure DCA step and both conditions hold there
    assert model.phi(y) <= model.phi(x) - 0.2 * 1.0 * np.vdot(d, d)


def test_ibdca_ladder_matches_bruteforce_on_scad():
    model = ScadSeparableProblem()
    cfg = SolverConfig(variant=Variant.IBDCA, alpha=0.2, beta=0.7,
                       lambda_bar=3.0)
    x = np.array([2.2, 0.4])
    y, d = linearized_step(model, x)
    lam, _ = ibdca_line_search(model, x, y, d, cfg)

    # oracle: walk the ladder with the independently restated phi
    def phi(p):
        return float(oracles.scad_phi_vec(p[0]) + oracles.scad_phi_vec(p[1]))

    dsq = float(np.vdot(d, d))
    expected = None
    trial_lam = 3.0
    while trial_lam > 1.0:
        val = phi(x + trial_lam * d)
        if val <= phi(x) - 0.2 * trial_lam * dsq and val <= phi(y):
            expected = trial_lam
            break
        trial_lam *= 0.7
    if expected is None:
        expected = 1.0
    assert lam == expected
    assert lam == 1.0  # rungs 3 and 2.1 fail decrease; 1.47 and 1.029 fail dominance


def test_ibdca_lambda_always_in_unit_to_bar_range():
    rng = np.random.default_rng(11)
    for model in (QuadL1Problem(), ScadSeparableProblem()):
        cfg = SolverConfig(variant=Variant.IBDCA, alpha=0.2, beta=0.7,
                           lambda_bar=3.0)
        for _ in range(100):
            x = rng.uniform(-3.0, 3.0, size=2)
            y, d = linearized_step(model, x)
            if np.vdot(d, d) < 1e-20:
                continue
            lam, _ = ibdca_line_search(model, x, y, d, cfg)
            assert 1.0 <= lam <= cfg.lambda_bar


# ---------------------------------------------------------------------------
# BDCA line search
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.01, 0.2, 0.5, 1.0])
def test_bdca_fails_on_first_worked_iterate(alpha):
    # the direction ascends at y through the |v| kink, for any alpha > 0
    model = QuadL1Problem()
    y, d = linearized_step(model, np.array([0.5, 1.0]))
    cfg = SolverConfig(variant=Variant.BDCA, alpha=alpha, beta=0.5,
                       lambda_bar=2.0)
    lam, _ = bdca_line_search(model, y, d, cfg)
    assert lam == 0.0


def test_bdca_accepts_on_smooth_quadratic():
    model = QuadraticModel()
    x = np.array([3.0, -1.5])
    y, d = linearized_step(model, x)
    cfg = SolverConfig(variant=Variant.BDCA, alpha=0.05, beta=0.5,
                       lambda_bar=2.0)
    lam, _ = bdca_line_search(model, y, d, cfg)
    assert lam > 0.0
    assert model.phi(y + lam * d) <= model.phi(y) - 0.05 * lam * np.vdot(d, d)


def test_bdca_accepts_where_phi_smooth_at_y():
    # scad model from (2.2, 2.2): y lands beyond 2 in both coordinates,
    # where phi is smooth, so a positive step must exist (alpha < rho)
    model = ScadSeparableProblem()
    x = np.array([2.2, 2.2])
    y, d = linearized_step(model, x)
    slope = oracles.forward_fd_directional(model.phi, y, d, step=1e-7)
    assert slope < 0.0  # descent direction at y, by finite differences
    cfg = SolverConfig(variant=Variant.BDCA, alpha=0.2, beta=0.5,
                       lambda_bar=2.0)
    lam, _ = bdca_line_search(model, y, d, cfg)
    assert lam > 0.0


# ---------------------------------------------------------------------------
# nonmonotone line search
# ---------------------------------------------------------------------------

def test_nmbdca_accepts_where_bdca_fails():
    model = QuadL1Problem()
    y, d = linearized_step(model, np.array([0.5, 1.0]))
    cfg = SolverConfig(variant=Variant.NMBDCA, alpha=0.2, beta=0.5,
                       lambda_bar=2.0)
    lam, _ = nmbdca_line_search(model, y, d, 0, cfg)
    assert lam > 0.0

    # oracle: ladder walk with the allowance ||d||^2/(k+1) at k = 0
    dsq = float(np.vdot(d, d))
    expected = 0.0
    trial = 2.0
    while trial > 1e-18:
        if (oracles.quadl1_phi(*(y + trial * d))
                <= oracles.quadl1_phi(*y) - 0.2 * trial * dsq + dsq):
            expected = trial
            break
        trial *= 0.5
    assert lam == expected == 0.5


@pytest.mark.parametrize("k,dsq,expected", [(0, 1.0, 1.0), (9, 0.04, 0.004)])
def test_nmbdca_allowance_schedule(k, dsq, expected):
    # pin the allowance through behavior: a constant-bump objective is
    # accepted at the first rung iff bump <= v_k - alpha*lam*||d||^2
    class Bump(DcModel):
        shape = (1,)
        rho = 1.0

        def subproblem_lanes(self, X):
            return np.array(X, dtype=float), [{}] * len(X)

        def phi_lanes(self, X):
            return np.array([0.0 if float(x[0]) == 0.0 else self.bump
                             for x in X])

    model = Bump()
    y = np.array([0.0])
    d = np.array([math.sqrt(dsq)])
    alpha, lam_bar = 1e-6, 1.001
    cfg = SolverConfig(variant=Variant.NMBDCA, alpha=alpha, beta=0.5,
                       lambda_bar=lam_bar, max_backtracks=1)
    margin = alpha * lam_bar * dsq
    model.bump = expected - 2.0 * margin        # just below the allowance
    assert nmbdca_line_search(model, y, d, k, cfg)[0] == lam_bar
    model.bump = expected + 2.0 * margin        # just above: rejected
    assert nmbdca_line_search(model, y, d, k, cfg)[0] == 0.0


def test_nmbdca_accepted_step_respects_documented_inequality():
    model = ScadSeparableProblem()
    rng = np.random.default_rng(5)
    cfg = SolverConfig(variant=Variant.NMBDCA, alpha=0.2, beta=0.7,
                       lambda_bar=2.0)
    checked = 0
    for _ in range(40):
        x = rng.uniform(0.0, 3.0, size=2)
        y, d = linearized_step(model, x)
        dsq = float(np.vdot(d, d))
        if dsq < 1e-12:
            continue
        for k in (0, 3, 9):
            lam, _ = nmbdca_line_search(model, y, d, k, cfg)
            if lam > 0.0:
                allowance = dsq / (k + 1)
                assert model.phi(y + lam * d) <= (model.phi(y)
                                                  - 0.2 * lam * dsq
                                                  + allowance + 1e-12)
                checked += 1
    assert checked > 50


@pytest.mark.parametrize("max_backtracks", [200, 1000])
def test_ibdca_long_walk_matches_rung_by_rung_oracle(max_backtracks):
    # on this quadratic phi(x + lam*d) <= phi(y) only for lam <= 2, which
    # lambda_bar 100 and beta 0.99 reach after ~390 rungs (the walk is cut
    # short at 200)
    model = QuadraticModel()
    cfg = SolverConfig(variant=Variant.IBDCA, alpha=0.2, beta=0.99,
                       lambda_bar=100.0, max_backtracks=max_backtracks)
    x = np.array([1.0, -2.0])
    y, d = linearized_step(model, x)

    lam, backtracks, _, _ = oracles.line_search_walk(model, Variant.IBDCA,
                                                     x, y, d, 0, cfg)
    assert ibdca_line_search(model, x, y, d, cfg) == (lam, backtracks)
    assert backtracks > 100


@pytest.mark.parametrize("max_backtracks", [1, 7, 60, 64, 65, 200])
@pytest.mark.parametrize("variant", ["bdca", "nmbdca", "ibdca"])
def test_lane_walk_matches_rung_by_rung_oracle(variant, max_backtracks):
    # 40 lanes of 2 entries try 51 rungs per phi_lanes call, so the deeper
    # ladders take several calls; the Armijo floors differ from lane to lane
    variant = Variant(variant)
    X = np.random.default_rng(19).uniform(-3.0, 3.0, size=(40, 2))
    k = 4
    deepest = 0
    for model in (QuadL1Problem(), ScadSeparableProblem()):
        Y, _ = model.subproblem_lanes(X)
        D = Y - X
        dsq = dc_core._sqnorms(D)
        assert np.all(dsq > 0.0)
        phi_x = model.phi_lanes(X)
        for beta, lambda_bar in itertools.product((0.5, 0.95), (3.0, 100.0)):
            cfg = SolverConfig(variant=variant, beta=beta,
                               lambda_bar=lambda_bar,
                               max_backtracks=max_backtracks)
            lam, bt, points, values = dc_core._step(model, variant, k, X, Y,
                                                    D, dsq, phi_x, cfg)
            for i in range(len(X)):
                want = oracles.line_search_walk(model, variant, X[i], Y[i],
                                                D[i], k, cfg)
                assert (lam[i], bt[i]) == want[:2], (model, cfg, i)
                assert np.array_equal(points[i], want[2])
                assert values[i] == want[3]
            deepest = max(deepest, int(bt.max()))
    # some lane walks to the end of the ladder, or past 64 rungs
    assert deepest == max_backtracks or deepest > 64


@pytest.mark.parametrize("variant", ["bdca", "nmbdca", "ibdca"])
def test_public_line_searches_match_solve_steps(variant):
    # the single-point searches and the lane loop's steps share one rule
    cfg = default_basin_config(variant)
    starts = [(0.5, 1.0), (0.5, 0.0), (-1.0, 2.0), (1.3, 2.9), (2.2, 0.4),
              (2.2, 2.2), (1.0, 0.0)]
    checked = 0
    for model in (QuadL1Problem(), ScadSeparableProblem()):
        for x0 in starts:
            result, xs = solve_keeping_iterates(model, np.array(x0), cfg)
            for rec, x in zip(result.trace, xs):
                if rec.d_norm <= cfg.tol_direction:
                    continue  # the critical-point stop takes no step
                y, d = linearized_step(model, x)
                if variant == "ibdca":
                    got = ibdca_line_search(model, x, y, d, cfg)
                elif variant == "bdca":
                    got = bdca_line_search(model, y, d, cfg)
                else:
                    got = nmbdca_line_search(model, y, d, rec.k, cfg)
                assert got == (rec.lam, rec.backtracks), (x0, rec.k)
                checked += 1
    assert checked > 100


def test_line_search_memory_flat_in_max_backtracks():
    # the ladder is formed as the walk reaches it, not max_backtracks deep;
    # this solve walks some 190 rungs in all
    def run(max_backtracks):
        cfg = SolverConfig(variant=Variant.BDCA, max_backtracks=max_backtracks)
        tracemalloc.start()
        try:
            result = solve(ScadSeparableProblem(), np.array([2.2, 0.4]), cfg)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    shallow, shallow_peak = run(10 ** 3)
    deep, deep_peak = run(10 ** 6)
    assert deep_peak <= shallow_peak + 64 * 1024
    assert np.array_equal(deep.final_point, shallow.final_point)
    assert ([r.backtracks for r in deep.trace]
            == [r.backtracks for r in shallow.trace])


def test_solve_memory_flat_in_outer_iterations():
    # a 64x64 raster is 32 KiB: 60 more outer iterations must not keep 60
    # more of them; the kept records cost some 480 B each
    clean = make_squares_image(64, 64)
    noisy = quantize_u8(add_cauchy_noise(clean, NoiseSpec(gamma=3.0, seed=7)))
    model = CauchyModel(noisy, mu=15.0, gamma=3.0, c=1.83)

    def run(max_outer_iter):
        cfg = SolverConfig(variant=Variant.DCA, max_outer_iter=max_outer_iter,
                           tol_rel_energy=0.0)
        tracemalloc.start()
        try:
            result = solve(model, noisy, cfg)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, short_peak = run(20)
    long, long_peak = run(80)
    assert len(short.trace) == 20 and len(long.trace) == 80
    assert long_peak - short_peak < 2 * noisy.nbytes


# ---------------------------------------------------------------------------
# solve: trajectories from the worked examples
# ---------------------------------------------------------------------------

def test_solve_ibdca_worked_trajectory():
    model = QuadL1Problem()
    result, xs = solve_keeping_iterates(model, np.array([0.5, 1.0]),
                                        ibdca_cfg())
    assert result.status is Status.CRITICAL_POINT
    assert len(result.trace) == 3
    assert np.allclose(xs[0], [0.5, 1.0], atol=1e-12, rtol=0)
    assert np.allclose(xs[1], [1.0, 0.0], atol=1e-12, rtol=0)
    assert np.allclose(xs[2], [1.5, 0.0], atol=1e-12, rtol=0)
    assert result.trace[1].lam == 2.0
    assert abs(result.final_phi - (-9.0 / 8.0)) <= 1e-12
    assert quadl1_criticality_gap(result.final_point) <= 1e-9


def test_solve_scad_ibdca_escapes_to_global_minimum():
    cfg = SolverConfig(variant=Variant.IBDCA, alpha=0.2, beta=0.7,
                       lambda_bar=3.0)
    result = solve(ScadSeparableProblem(), np.array([2.2, 0.4]), cfg)
    assert result.status is Status.CRITICAL_POINT
    assert np.linalg.norm(result.final_point) <= 1e-6
    assert np.linalg.norm(result.final_point - np.array([2.0, 0.0])) > 1.0


def test_solve_scad_dca_reaches_nonglobal_critical_point():
    result = solve(ScadSeparableProblem(), np.array([2.2, 0.4]),
                   SolverConfig(variant=Variant.DCA))
    assert result.status is Status.CRITICAL_POINT
    assert np.linalg.norm(result.final_point - np.array([2.0, 0.0])) <= 1e-6
    assert scad_criticality_gap(result.final_point) <= 1e-9


def test_solve_critical_start_stops_immediately():
    model = QuadL1Problem()
    result = solve(model, np.array([1.5, 0.0]), ibdca_cfg())
    assert result.status is Status.CRITICAL_POINT
    assert len(result.trace) == 1
    assert result.trace[0].d_norm <= 1e-10
    assert result.trace[0].lam == 0.0


def test_solve_bdca_degrades_and_still_converges():
    model = QuadL1Problem()
    cfg = SolverConfig(variant=Variant.BDCA, alpha=0.2, beta=0.5,
                       lambda_bar=2.0)
    result = solve(model, np.array([0.5, 1.0]), cfg)
    assert result.linesearch_failures >= 1
    assert result.status is Status.CRITICAL_POINT
    assert np.allclose(result.final_point, [1.5, 0.0], atol=1e-8, rtol=0)


def test_solve_rel_energy_stop():
    model = QuadraticModel()
    cfg = SolverConfig(variant=Variant.DCA, tol_rel_energy=0.9,
                       tol_direction=0.0, max_outer_iter=50)
    result = solve(model, np.array([1.0, 1.0]), cfg)
    assert result.status is Status.REL_ENERGY_CONVERGED


def test_solve_max_iterations_status():
    model = QuadraticModel()
    cfg = SolverConfig(variant=Variant.DCA, max_outer_iter=3,
                       tol_direction=0.0)
    result = solve(model, np.array([1.0, 1.0]), cfg)
    assert result.status is Status.MAX_ITERATIONS
    assert len(result.trace) == 3


@pytest.mark.parametrize("cfg", [
    SolverConfig(variant=Variant.DCA, tol_direction=0.0),
    ibdca_cfg(tol_direction=0.0),
], ids=["dca", "ibdca"])
def test_solve_attaches_partial_trace_on_subproblem_failure(cfg):
    # on the plain path and on the boosted one, where a line search runs
    # between the subproblems, the records before the failing third one
    # still reach on_record
    class BreaksAtThird(QuadraticModel):
        calls = 0

        def subproblem_lanes(self, X):
            BreaksAtThird.calls += 1
            if BreaksAtThird.calls >= 3:
                return np.full(np.shape(X), math.nan), [{}] * len(X)
            return np.asarray(X, dtype=float) / 3.0, [{}] * len(X)

    kept = []
    with pytest.raises(SubproblemError, match="non-finite"):
        solve(BreaksAtThird(), np.array([9.0, 9.0]), cfg,
              on_record=kept.append)
    assert [rec.k for rec in kept] == [0, 1]
    # the partial trace keeps no iterate alive
    assert all(rec.x is None for rec in kept)


@pytest.mark.parametrize("variant", list(Variant))
def test_solve_raises_when_a_step_accepts_a_non_finite_value(variant):
    # phi is NaN below v = 1.5, where every variant's first step from (1, 2)
    # lands; the loop must not run on to a critical point with phi NaN
    class NanBelow(QuadL1Problem):
        def phi_lanes(self, X):
            return np.where(X[:, 1] < 1.5, math.nan, super().phi_lanes(X))

    kept = []
    with pytest.raises(SubproblemError, match="non-finite objective") as err:
        solve(NanBelow(), np.array([1.0, 2.0]), SolverConfig(variant=variant),
              on_record=kept.append)
    assert math.isnan(err.value.residual)
    assert kept == []


@pytest.mark.parametrize("model", [QuadL1Problem(), ScadSeparableProblem()],
                         ids=["quadl1", "scad"])
def test_solve_lanes_rejects_an_empty_stack(model):
    with pytest.raises(ValueError, match="empty stack of starts"):
        solve_lanes(model, np.empty((0, 2)), SolverConfig())


@pytest.mark.parametrize("model", [QuadL1Problem(), ScadSeparableProblem()],
                         ids=["quadl1", "scad"])
def test_solve_rejects_a_start_of_the_wrong_shape(model):
    # a 1x2 start has the model's two entries but not its point shape
    with pytest.raises(ValueError, match=r"shape \(1, 1, 2\).*shape \(2,\)"):
        solve(model, [[1.0, 2.0]], SolverConfig())


def test_solve_lanes_rejects_a_start_without_a_lane_axis():
    with pytest.raises(ValueError, match=r"shape \(\).*shape \(2,\)"):
        solve_lanes(QuadL1Problem(), np.float64(1.0), SolverConfig())


@pytest.mark.parametrize("variant", list(Variant))
def test_solve_lanes_default_methods_match_single_solves(variant):
    # QuadL1Problem's closed lane forms carry every lane, with the traces
    # streamed per lane
    model = QuadL1Problem()
    cfg = SolverConfig(variant=variant, alpha=0.2, beta=0.5, lambda_bar=2.0)
    starts = np.random.default_rng(41).uniform(-3.0, 3.0, size=(40, 2))
    starts[:3] = [(0.5, 1.0), (1.5, 0.0), (0.0, 0.0)]
    records = {}
    lanes = solve_lanes(model, starts, cfg, on_record=lambda lane, rec:
                        records.setdefault(lane, []).append(rec))
    for i, start in enumerate(starts):
        single = solve(model, start, cfg)
        assert np.array_equal(lanes.final_points[i], single.final_point)
        assert lanes.status[i] is single.status
        assert lanes.outer_iterations[i] == len(records[i])
        assert ([(r.k, r.phi, r.d_norm, r.lam, r.backtracks)
                 for r in records[i]]
                == [(r.k, r.phi, r.d_norm, r.lam, r.backtracks)
                    for r in single.trace])


@pytest.mark.parametrize("variant", list(Variant))
def test_solve_lanes_keeps_each_lanes_info_when_a_lane_retires(variant):
    # each lane's subproblem info is a tag of its own iterate; lanes 1 and 3
    # start at the critical point 0 and retire at once, and no tag of theirs
    # may pass to the lanes that go on
    class Tagged(QuadraticModel):
        def subproblem_lanes(self, X):
            return (np.asarray(X, dtype=float) / 3.0,
                    [{"u": float(x[0])} for x in X])

    starts = np.array([(3.0, 1.0), (0.0, 0.0), (6.0, 2.0), (0.0, 0.0),
                       (-9.0, 4.0)])
    seen = []

    def on_record(lane, rec):
        assert rec.aux == {"u": float(rec.x[0])}, (lane, rec.k)
        seen.append((lane, rec.k))

    cfg = SolverConfig(variant=variant, max_outer_iter=4)
    lanes = solve_lanes(Tagged(), starts, cfg, on_record=on_record)
    assert list(lanes.status[[1, 3]]) == [Status.CRITICAL_POINT] * 2
    assert sorted(seen) == sorted([(1, 0), (3, 0)]
                                  + [(i, k) for i in (0, 2, 4)
                                     for k in range(4)])


def test_lane_status_compares_to_a_member_lane_by_lane():
    # numpy compares an object array with a str member through str(member)
    # cut to the value's length, so each enum must print as its value: else
    # the mask reads 'Status.CRITICA' and is all False
    starts = np.array([(0.0, 0.0), (2.2, 0.4), (0.0, 0.0), (2.9, 1.1)])
    lanes = solve_lanes(ScadSeparableProblem(), starts,
                        SolverConfig(max_outer_iter=1))
    stopped = [status is Status.CRITICAL_POINT for status in lanes.status]
    assert stopped == [True, False, True, False]
    assert list(lanes.status == Status.CRITICAL_POINT) == stopped
    assert list(lanes.status == Status.MAX_ITERATIONS) == [
        not s for s in stopped]
    for member in (*Status, *Variant):
        assert f"{member}" == str(member) == member.value


def test_solve_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        solve(QuadL1Problem(), np.zeros(3), ibdca_cfg())


# ---------------------------------------------------------------------------
# trace invariants (monotone descent, sandwich, summability, FD descent)
# ---------------------------------------------------------------------------

STARTS = [(0.5, 1.0), (2.2, 0.4), (2.9, 2.9), (-1.0, 2.5), (0.3, 0.9)]


def _run(model, variant, start):
    """``(cfg, result, xs)``, with ``xs`` the iterate of each record."""
    cfg = SolverConfig(variant=variant, alpha=0.2, beta=0.7, lambda_bar=3.0)
    return (cfg, *solve_keeping_iterates(model, np.array(start), cfg))


@pytest.mark.parametrize("variant", [Variant.DCA, Variant.IBDCA])
@pytest.mark.parametrize("start", STARTS)
def test_monotone_descent_and_decrease_bounds(variant, start):
    for model in (QuadL1Problem(), ScadSeparableProblem()):
        cfg, result, _ = _run(model, variant, start)
        assert result.monotone_violations == 0
        phis = [rec.phi for rec in result.trace] + [result.final_phi]
        for a, b in zip(phis, phis[1:]):
            assert b <= a + 1e-12
        for rec, phi_next in zip(result.trace, phis[1:]):
            if rec.lam == 0.0:
                continue
            dsq = rec.d_norm ** 2
            if variant is Variant.DCA:
                assert phi_next <= rec.phi - model.rho * dsq + 1e-10
            else:
                assert phi_next <= rec.phi - cfg.alpha * rec.lam * dsq + 1e-10


@pytest.mark.parametrize("start", STARTS)
def test_ibdca_sandwich_recomputed_post_hoc(start):
    for model in (QuadL1Problem(), ScadSeparableProblem()):
        cfg, result, xs = _run(model, Variant.IBDCA, start)
        phis = [rec.phi for rec in result.trace] + [result.final_phi]
        for rec, x, phi_next in zip(result.trace, xs, phis[1:]):
            if rec.lam == 0.0:
                continue
            y = subproblem_point(model, x)
            assert phi_next <= model.phi(y) + 1e-12


@pytest.mark.parametrize("variant", [Variant.DCA, Variant.IBDCA])
def test_direction_summability_bound(variant):
    for model in (QuadL1Problem(), ScadSeparableProblem()):
        for start in STARTS:
            _, result, _ = _run(model, variant, start)
            total = sum(rec.d_norm ** 2 for rec in result.trace)
            phis = [rec.phi for rec in result.trace] + [result.final_phi]
            assert total <= (phis[0] - min(phis)) / model.rho + 1e-9


def test_ibdca_steps_stay_within_trial_bound():
    for model in (QuadL1Problem(), ScadSeparableProblem()):
        for start in STARTS:
            cfg, result, _ = _run(model, Variant.IBDCA, start)
            for rec in result.trace[:-1]:
                assert 1.0 <= rec.lam <= cfg.lambda_bar


@pytest.mark.parametrize("variant", [Variant.DCA, Variant.IBDCA])
def test_search_direction_descends_at_iterates(variant):
    # forward-difference quotient at t = 1e-6 against -rho/2 * ||d||^2,
    # skipping near-converged iterates where the quotient is pure roundoff
    for model in (QuadL1Problem(), ScadSeparableProblem()):
        for start in STARTS:
            _, result, xs = _run(model, variant, start)
            for rec, x in zip(result.trace, xs):
                if rec.d_norm < 1e-3:
                    continue
                y = subproblem_point(model, x)
                d = y - x
                quot = oracles.forward_fd_directional(model.phi, x, d,
                                                      step=1e-6)
                assert quot <= -0.5 * model.rho * rec.d_norm ** 2


def test_nmbdca_growth_bounded_by_allowance():
    model = ScadSeparableProblem()
    cfg = SolverConfig(variant=Variant.NMBDCA, alpha=0.2, beta=0.7,
                       lambda_bar=2.0)
    for start in STARTS:
        result = solve(model, np.array(start), cfg)
        phis = [rec.phi for rec in result.trace] + [result.final_phi]
        for rec, phi_next in zip(result.trace, phis[1:]):
            allowance = rec.d_norm ** 2 / (rec.k + 1)
            assert phi_next <= rec.phi + allowance + 1e-10


def test_critical_point_certificates_at_termination():
    for variant in (Variant.DCA, Variant.IBDCA):
        for start in STARTS:
            _, r1, _ = _run(QuadL1Problem(), variant, start)
            assert quadl1_criticality_gap(r1.final_point) <= 1e-8
            _, r2, _ = _run(ScadSeparableProblem(), variant, start)
            assert scad_criticality_gap(r2.final_point) <= 1e-8


# Lipschitz constant of grad_h: the identity for QuadL1, h~'' <= 1 + 2/5 for
# SCAD
CERTIFIED = [(QuadL1Problem, quadl1_criticality_gap, 1.0),
             (ScadSeparableProblem, scad_criticality_gap, 1.4)]


@pytest.mark.parametrize("variant", [Variant.DCA, Variant.IBDCA])
@pytest.mark.parametrize("problem, gap, lipschitz_h", CERTIFIED,
                         ids=["quadl1", "scad"])
def test_cluster_points_are_critical(problem, gap, lipschitz_h, variant):
    # The certificate holds at y, the subproblem solution at x, where grad_h(x) lies
    # in the subdifferential of g(y): the gap at y is at most
    # ||grad_h(y) - grad_h(x)|| <= L_h * ||y - x|| <= L_h * tol_direction.
    # At x itself it can jump: IBDCA on QuadL1 from the @example start stops
    # at (1.5, 2.2e-16), where the |v| kink makes the gap at x read 1.0.
    model = problem()
    cfg = ibdca_cfg() if variant is Variant.IBDCA else SolverConfig(variant)
    coord = st.floats(-1e3, 1e3, allow_nan=False)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=150)
    @given(st.tuples(coord, coord))
    @example((1.9789357068308133, -3.7132678768283056))
    def check(start):
        result = solve(model, np.array(start), cfg)
        phis = [rec.phi for rec in result.trace] + [result.final_phi]
        # within rounding: near the limit phi can come out an ulp below its
        # minimum at one iterate and at the minimum at the next
        assert all(b <= a + 4.0 * np.spacing(max(1.0, abs(a)))
                   for a, b in zip(phis, phis[1:])), phis
        assert result.status is Status.CRITICAL_POINT
        y = subproblem_point(model, result.final_point)
        ulps = 4.0 * np.spacing(max(1.0, float(np.abs(y).max())))
        assert gap(y) <= lipschitz_h * cfg.tol_direction + ulps, (start, y)

    check()


# ---------------------------------------------------------------------------
# concurrency and config validation
# ---------------------------------------------------------------------------

def test_concurrent_solves_match_sequential():
    model = ScadSeparableProblem()
    cfg = SolverConfig(variant=Variant.IBDCA, alpha=0.2, beta=0.7,
                       lambda_bar=3.0)
    rng = np.random.default_rng(19)
    starts = [rng.uniform(0.0, 3.0, size=2) for _ in range(24)]
    sequential = [solve(model, s, cfg).final_point for s in starts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda s: solve(model, s, cfg).final_point,
                                 starts))
    for a, b in zip(sequential, threaded):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bad", [
    dict(alpha=0.0), dict(alpha=-1.0), dict(beta=0.0), dict(beta=1.0),
    dict(lambda_bar=1.0), dict(lambda_bar=0.5), dict(max_outer_iter=0),
    dict(tol_direction=-1.0), dict(max_backtracks=0),
    dict(alpha=math.inf), dict(lambda_bar=math.inf),
    dict(tol_direction=math.nan), dict(tol_direction=math.inf),
    dict(tol_rel_energy=math.nan), dict(tol_rel_energy=-math.inf),
    dict(max_outer_iter=2.5), dict(max_outer_iter=3.0),
    dict(max_backtracks=2.5), dict(max_backtracks=np.float64(4.0)),
])
def test_solver_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(variant=Variant.IBDCA, **bad)


def test_variant_accepts_strings():
    cfg = SolverConfig(variant="dca")
    assert cfg.variant is Variant.DCA


def test_solver_config_is_frozen():
    # a variant set after the checks would run another variant's rule;
    # dataclasses.replace makes a new config and checks it again
    cfg = SolverConfig()
    for field in dataclasses.fields(SolverConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field.name, getattr(cfg, field.name))
    assert dataclasses.replace(cfg, variant="dca").variant is Variant.DCA
    with pytest.raises(ValueError, match="beta"):
        dataclasses.replace(cfg, beta=2.0)


def test_solver_config_accepts_numpy_integer_counts():
    cfg = SolverConfig(max_outer_iter=np.int64(3), max_backtracks=np.int32(5))
    result = solve(QuadL1Problem(), np.array([0.5, 1.0]), cfg)
    assert len(result.trace) <= 3


# ---------------------------------------------------------------------------
# trace CSV export
# ---------------------------------------------------------------------------

def stream_trace(trace, path, aux_keys=()):
    """Writes a finished trace through the CLI's streaming writer."""
    stream = _TraceStream(path, aux_keys)
    for rec in trace:
        stream(rec)
    stream.close()


def test_trace_csv_round_trips_17_digits(tmp_path):
    model = QuadL1Problem()
    result = solve(model, np.array([0.5, 1.0]), ibdca_cfg())
    path = tmp_path / "trace.csv"
    stream_trace(result.trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,phi,d_norm,lambda,backtracks,wall_time_s"
    assert len(lines) == 1 + len(result.trace)
    for rec, line in zip(result.trace, lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == rec.k
        assert float(fields[1]) == rec.phi        # 17 significant digits
        assert float(fields[2]) == rec.d_norm
        assert float(fields[3]) == rec.lam
        assert int(fields[4]) == rec.backtracks


def test_on_record_streams_every_record():
    model = QuadL1Problem()
    seen = []
    result = solve(model, np.array([0.5, 1.0]), ibdca_cfg(),
                   on_record=seen.append)
    assert len(seen) == len(result.trace)
    assert all(a is b for a, b in zip(seen, result.trace))


def test_trace_csv_aux_columns(tmp_path):
    model = QuadL1Problem()
    result = solve(model, np.array([0.5, 1.0]), ibdca_cfg())
    result.trace[0].aux["energy"] = 1.25
    path = tmp_path / "trace.csv"
    stream_trace(result.trace, path, aux_keys=("energy",))
    lines = path.read_text().splitlines()
    assert lines[0].endswith(",energy")
    assert float(lines[1].split(",")[-1]) == 1.25
    assert lines[2].split(",")[-1] == "nan"
