import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dcboost
import oracles
from dcboost import (QuadL1Problem, ScadSeparableProblem, Status, Variant,
                     basin_experiment, solve, solve_lanes, write_basin_csv)
from dcboost import toy_problems
from dcboost.toy_problems import (ATTRACTOR_LABELS, ATTRACTORS, BASIN_BLOCK,
                                  CLASSIFY_RADIUS, LABELS, OTHER_LABEL,
                                  classify_lanes, default_basin_config)
from oracles import (classify_point, quadl1_criticality_gap,
                     scad_criticality_gap, scad_g_tilde, scad_h_tilde,
                     scad_h_tilde_prime, scad_phi_tilde, scad_subproblem_1d,
                     subproblem_point)


# ---------------------------------------------------------------------------
# quadratic-plus-l1: closed-form subproblem
# ---------------------------------------------------------------------------

def quadl1_subproblem(x):
    return subproblem_point(QuadL1Problem(), x)


def test_quadl1_subproblem_known_values():
    assert np.allclose(quadl1_subproblem([0.5, 1.0]), [1.0, 0.0],
                       atol=1e-12, rtol=0)
    assert np.allclose(quadl1_subproblem([1.0, 0.0]), [1.25, 0.0],
                       atol=1e-12, rtol=0)


def test_quadl1_subproblem_dead_zone():
    # threshold argument 5/2 - 5/2 = 0 sits inside the soft-threshold gap
    assert np.all(quadl1_subproblem([-2.5, 0.0]) == 0.0)


def test_quadl1_subproblem_against_grid_oracle():
    rng = np.random.default_rng(21)
    model = QuadL1Problem()
    for _ in range(1000):
        x = rng.uniform(-5.0, 5.0, size=2)
        got = quadl1_subproblem(x)
        # the subproblem objective separates; brute-force each coordinate
        xu, xv = x
        u_star = oracles.grid_argmin(
            lambda t: -2.5 * t + t * t + np.abs(t) - xu * t, -8.0, 8.0)
        v_star = oracles.grid_argmin(
            lambda t: t * t + np.abs(t) - xv * t, -8.0, 8.0)
        assert abs(got[0] - u_star) <= 1e-6
        assert abs(got[1] - v_star) <= 1e-6
        # and the optimality certificate grad_h(x) in subdiff g(y) holds
        _ = model  # criticality helpers are checked in test_dc_core


def test_quadl1_known_minimum_value():
    model = QuadL1Problem()
    assert model.phi(np.array([1.5, 0.0])) == -9.0 / 8.0
    assert quadl1_criticality_gap([1.5, 0.0]) == 0.0


def test_quadl1_strong_convexity_moduli():
    # g - (2/2)||.||^2 and h - (1/2)||.||^2 stay midpoint convex
    rng = np.random.default_rng(2)
    model = QuadL1Problem()
    for _ in range(200):
        a = rng.uniform(-4.0, 4.0, size=2)
        b = rng.uniform(-4.0, 4.0, size=2)
        mid = 0.5 * (a + b)
        for fun, modulus in ((oracles.quadl1_eval_g, 2.0),
                             (oracles.quadl1_eval_h, 1.0)):
            shifted = lambda z: fun(z) - 0.5 * modulus * float(np.vdot(z, z))
            assert shifted(mid) <= 0.5 * (shifted(a) + shifted(b)) + 1e-12
        split = oracles.quadl1_eval_g(a) - oracles.quadl1_eval_h(a)
        assert abs(model.phi(a) - split) <= 1e-12


# ---------------------------------------------------------------------------
# SCAD-shaped problem: closed forms
# ---------------------------------------------------------------------------

def test_scad_phi_tilde_values():
    assert scad_phi_tilde(0.0) == 0.0
    assert scad_phi_tilde(2.0) == 1.5
    assert scad_phi_tilde(1.5) == 1.375


def test_scad_phi_tilde_branches_agree_at_breakpoints():
    # both closed forms evaluated at the seams
    for u in (1.0, -1.0):
        assert abs(abs(u) - (abs(u) - (abs(u) - 1.0) ** 2 / 2.0)) <= 1e-15
    for u in (2.0, -2.0):
        middle = abs(u) - (abs(u) - 1.0) ** 2 / 2.0
        outer = (abs(u) - 2.0) ** 2 + 1.5
        assert abs(middle - outer) <= 1e-15


def test_scad_phi_tilde_equals_g_minus_h():
    for u in np.linspace(-4.0, 4.0, 1601):
        assert abs(scad_phi_tilde(u) - (scad_g_tilde(u) - scad_h_tilde(u))) <= 1e-12


def test_scad_h_is_c1_at_breakpoints():
    # one-sided derivative formulas of adjacent branches, evaluated exactly
    for u in (1.0, -1.0):
        inner = 0.4 * u
        middle = u - np.sign(u) + 0.4 * u
        assert abs(inner - middle) <= 1e-12
    for u in (2.0, -2.0):
        middle = u - np.sign(u) + 0.4 * u
        outer = np.sign(u) + 0.4 * u
        assert abs(middle - outer) <= 1e-12
    # and the implementation matches central differences away from seams
    rng = np.random.default_rng(4)
    for t in rng.uniform(-3.0, 3.0, size=100):
        fd = (scad_h_tilde(t + 1e-6) - scad_h_tilde(t - 1e-6)) / 2e-6
        assert abs(scad_h_tilde_prime(t) - fd) <= 1e-5


def test_scad_parts_are_convex():
    rng = np.random.default_rng(6)
    for _ in range(300):
        a, b = rng.uniform(-4.0, 4.0, size=2)
        for fun in (scad_g_tilde, scad_h_tilde):
            assert fun(0.5 * (a + b)) <= 0.5 * (fun(a) + fun(b)) + 1e-12


def test_scad_phi_nonnegative_with_unique_zero():
    grid = np.linspace(-4.0, 4.0, 8001)
    vals = oracles.scad_phi_vec(grid)
    assert np.all(vals >= 0.0)
    assert np.all(vals[np.abs(grid) > 1e-9] > 0.0)
    assert scad_phi_tilde(0.0) == 0.0


def test_scad_subproblem_simple_cases():
    assert scad_subproblem_1d(0.0) == 0.0
    # large pull lands on the outer branch: 2.4 t = w + 3
    assert abs(scad_subproblem_1d(10.0) - 65.0 / 12.0) <= 1e-12


def test_scad_subproblem_matches_literal_dense_grid_at_2_2():
    w = scad_h_tilde_prime(2.2)
    t_star = oracles.dense_grid_argmin(
        lambda t: oracles.scad_g_vec(t) - w * t, -4.0, 4.0, step=1e-6)
    assert abs(scad_subproblem_1d(w) - t_star) <= 1e-5


def test_scad_subproblem_against_grid_oracle_bulk():
    rng = np.random.default_rng(23)
    ws = rng.uniform(-10.0, 10.0, size=10000)
    for w in ws:
        got = scad_subproblem_1d(w)
        ref = oracles.grid_argmin(lambda t: oracles.scad_g_vec(t) - w * t,
                                  -6.5, 6.5)
        assert abs(got - ref) <= 1e-5


def test_scad_model_is_separable():
    rng = np.random.default_rng(8)
    model = ScadSeparableProblem()
    for _ in range(200):
        x = rng.uniform(-3.0, 3.0, size=2)
        joint = subproblem_point(model, x)
        per_coord = [scad_subproblem_1d(scad_h_tilde_prime(float(c)))
                     for c in x]
        assert np.array_equal(joint, per_coord)
        assert model.phi(x) == scad_phi_tilde(x[0]) + scad_phi_tilde(x[1])


def test_scad_lane_methods_bitwise_match_per_point():
    # breakpoints, their floating-point neighbours and random values
    breaks = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    edges = np.concatenate([breaks, np.nextafter(breaks, 9.0),
                            np.nextafter(breaks, -9.0), [-0.0]])
    rng = np.random.default_rng(12)
    # squares must match libm pow, which differs from x*x on ~1e-4 of draws
    coords = np.concatenate([edges, rng.uniform(-4.0, 4.0, size=60000)])
    X = np.stack([coords, rng.permutation(coords)], axis=1)
    model = ScadSeparableProblem()
    Y, infos = model.subproblem_lanes(X)
    assert len(infos) == len(X)
    # the lane forms against the scalar references, entry by entry
    for x, y, phi in zip(X, Y, model.phi_lanes(X)):
        u, v = float(x[0]), float(x[1])
        assert phi == scad_phi_tilde(u) + scad_phi_tilde(v)
        ref = np.array([scad_subproblem_1d(scad_h_tilde_prime(u)),
                        scad_subproblem_1d(scad_h_tilde_prime(v))])
        assert np.array_equal(y.view(np.int64), ref.view(np.int64))
    # the per-point methods are one-lane calls of the same forms
    for x, y, phi in zip(X[:2000], Y, model.phi_lanes(X[:2000])):
        assert model.phi(x) == phi
        assert np.array_equal(subproblem_point(model, x).view(np.int64),
                              y.view(np.int64))
    # the subproblem's fixed candidates g~(0), g~(2)
    corners = np.array(toy_problems._G_AT_BREAKPOINTS)
    assert np.array_equal(corners.view(np.int64),
                          np.array([0.0, 2.8]).view(np.int64))
    assert toy_problems._G_AT_BREAKPOINTS == [
        scad_g_tilde(c) for c in (0.0, 2.0)]


def _ulp_window(c, n=5000):
    """c >= 0 and its n floating-point neighbours on each side (above only,
    for c = 0)."""
    bits = np.float64(c).view(np.int64) + np.arange(-n, n + 1)
    return bits[bits >= 0].view(np.float64)


def test_scad_subproblem_for_abs_w_bitwise_matches_oracle():
    # the lane form solves for |w| and puts back the sign of w; the oracle
    # tries all three breakpoints and four stationary points.  The windows
    # hold the pulls where the best candidate changes: 0 and the breakpoint
    # 2 tie at |w| = 1.4, the stationary point of (0, 2) enters at 1 and
    # leaves at 1.8, where h~' meets its own breakpoints u = 10/7 and 2
    us = np.concatenate([_ulp_window(c) for c in (2.0, 10.0 / 7.0)])
    pulls = [scad_h_tilde_prime(float(u)) for u in np.concatenate([us, -us])]
    w = np.concatenate([_ulp_window(c) for c in (0.0, 1.0, 1.4, 1.8)]
                       + [pulls, [1e154]])
    w = np.concatenate([w, -w])
    with np.errstate(over="ignore", invalid="ignore"):
        got = toy_problems._scad_subproblem_lanes(w)
    ref = np.array([scad_subproblem_1d(x) for x in w])
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    # beyond ~3e154 the oracle's values overflow; the minimizer is the
    # stationary point of |t| >= 2, whose value there is inf - inf
    huge = np.array([3e154, 1e300, np.inf, -3e154, -1e300, -np.inf])
    with np.errstate(over="ignore", invalid="ignore"):
        got = toy_problems._scad_subproblem_lanes(huge)
    assert np.array_equal(got, np.copysign(5.0 * (abs(huge) + 3.0) / 12.0,
                                           huge))
    # a NaN pull gives +0; no solve passes one, since a NaN coordinate makes
    # phi(x0) NaN, which solve rejects
    with np.errstate(invalid="ignore"):
        got = toy_problems._scad_subproblem_lanes(np.array([np.nan]))
    assert got.view(np.int64).tolist() == [0]
    with pytest.raises(ValueError, match="not finite"):
        solve(ScadSeparableProblem(), np.array([np.nan, 0.0]),
              default_basin_config(Variant.IBDCA))


def test_scad_methods_do_not_warn_on_huge_entries():
    # the branches a huge or infinite entry does not take overflow or meet
    # inf - inf; their values are dropped and must not warn
    model = ScadSeparableProblem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.phi([np.inf, 0.0]) == np.inf
        assert model.phi([2e154, 0.0]) == np.inf
        assert model.phi_lanes(np.array([[-np.inf, np.inf]]))[0] == np.inf
        assert subproblem_point(model, [1e300, 0.0])[1] == 0.0
        # the stationary point of |t| >= 2 wins though its value is
        # inf - inf = nan
        w = 1.0 + 0.4 * 1e300
        assert (subproblem_point(model, [1e300, 0.0])[0]
                == 5.0 * (w + 3.0) / 12.0)
        w = -1.0 + 0.4 * -1e300
        assert (subproblem_point(model, [-1e300, 0.0])[0]
                == 5.0 * (w - 3.0) / 12.0)


def test_scad_critical_points():
    for point in ((0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0)):
        assert scad_criticality_gap(point) <= 1e-15
    assert scad_criticality_gap((1.5, 0.0)) > 0.1


def test_rho_exposed():
    assert QuadL1Problem().rho == 1.0
    assert ScadSeparableProblem().rho == 0.4


# ---------------------------------------------------------------------------
# convergence: the rate on QuadL1, finite termination on SCAD
# ---------------------------------------------------------------------------

def test_quadl1_tail_converges_r_linearly_and_ibdca_needs_no_more_steps():
    # QuadL1 is piecewise quadratic, so it has KL exponent 1/2 and every
    # variant converges R-linearly (Attouch, Bolte & Svaiter 2013).  Near
    # the minimizer (3/2, 0) the DCA map halves u - 3/2, so the tail ratios
    # ||d_{k+1}|| / ||d_k|| are 1/2; the excess seen (up to 1.5e-6 relative)
    # is rounding, as ||d|| nears 1e-10 against coordinates of size 1.5
    for x0 in ((0.5, 1.0), (0.5, 0.0), (-1.0, 2.0), (3.0, -2.0),
               (0.2, 0.05)):
        iterations = {}
        for variant in Variant:
            result = solve(QuadL1Problem(), np.array(x0),
                           default_basin_config(variant))
            case = (x0, variant.value)
            assert result.status is Status.CRITICAL_POINT, case
            d = np.array([record.d_norm for record in result.trace])
            assert np.all(d[-5:] <= 0.5 * (1.0 + 1e-5) * d[-6:-1]), case
            iterations[variant] = len(result.trace)
        # a tie, not a boost, from (0.5, 1) and (0.5, 0): 34 each
        assert iterations[Variant.IBDCA] <= iterations[Variant.DCA], x0


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_scad_lanes_all_stop_at_critical_points_within_50_steps(variant):
    # finite termination: every lane ends with a critical-point stop, far
    # below max_outer_iter (500); the worst lanes take 12 / 8 / 23 / 9
    # outer iterations (dca / bdca / nmbdca / ibdca)
    rng = np.random.Generator(np.random.Philox(key=11))
    starts = 3.0 * rng.random((2048, 2))
    cfg = default_basin_config(variant)
    result = solve_lanes(ScadSeparableProblem(), starts, cfg)
    assert np.all(result.status == Status.CRITICAL_POINT)
    assert result.outer_iterations.max() <= 50 < cfg.max_outer_iter


# ---------------------------------------------------------------------------
# attractor experiment
# ---------------------------------------------------------------------------

def test_classify_attractor():
    def label(point):
        return LABELS[classify_lanes(point)[0]]

    assert label((0.0, 0.0)) == "(0,0)"
    assert label((2.0 + 5e-4, 0.0)) == "(2,0)"
    assert label((1.0, 1.0)) == OTHER_LABEL
    assert label((-2.0, 0.0)) == OTHER_LABEL
    points = [(2.0, 2.0), (np.nan, 0.0), (0.0, np.inf), (0.0, 2.0 - 5e-4)]
    assert classify_lanes(points).tolist() == [3, 4, 4, 1]


def test_basin_counts_sum_and_determinism():
    a = basin_experiment(300, seed=42, variant=Variant.DCA)
    b = basin_experiment(300, seed=42, variant=Variant.DCA)
    assert sum(a.counts.values()) == a.n_points == 300
    assert a.counts == b.counts
    c = basin_experiment(300, seed=43, variant=Variant.DCA)
    assert c.counts != a.counts  # different seed, different draw


def test_basin_ibdca_all_to_global_minimum():
    report = basin_experiment(400, seed=7, variant=Variant.IBDCA)
    assert report.counts["(0,0)"] == 400


def test_basin_dca_populates_all_attractors():
    report = basin_experiment(2000, seed=7, variant=Variant.DCA)
    for label in ATTRACTOR_LABELS:
        assert report.counts[label] > 0
    frac = report.counts["(0,0)"] / report.n_points
    assert 0.35 <= frac <= 0.55


def test_basin_explicit_critical_start():
    report = basin_experiment(0, seed=0, variant=Variant.IBDCA,
                              points=[(0.0, 0.0)])
    assert report.n_points == 1
    assert report.counts["(0,0)"] == 1


def test_basin_empty_points_rejected():
    # the drawing path rejects n_points < 1; explicit starts must too
    with pytest.raises(ValueError, match="points is empty"):
        basin_experiment(0, seed=0, variant=Variant.IBDCA,
                         points=np.empty((0, 2)))


def test_basin_points_of_the_wrong_shape_rejected():
    # four 3-vectors are not six 2-vectors
    with pytest.raises(ValueError, match=r"shape \(4, 3\).*shape \(2,\)"):
        basin_experiment(None, 7, "ibdca", points=np.zeros((4, 3)))


def _lane_starts():
    """About 300 starts: uniform ones, every pair of breakpoints |u| in
    {0, 1, 2}, and a breakpoint in one coordinate with a uniform other."""
    rng = np.random.default_rng(31)
    breaks = (-2.0, -1.0, 0.0, 1.0, 2.0)
    grid = np.array([(a, b) for a in breaks for b in breaks])
    mixed = rng.uniform(0.0, 3.0, size=(75, 2))
    mixed[np.arange(75), rng.integers(0, 2, 75)] = rng.choice(breaks, 75)
    return np.vstack([rng.uniform(0.0, 3.0, size=(200, 2)), grid, mixed])


@pytest.mark.parametrize("variant", list(Variant))
def test_basin_lanes_match_single_solves(variant, monkeypatch):
    model = ScadSeparableProblem()
    cfg = default_basin_config(variant)
    starts = _lane_starts()
    lanes = solve_lanes(model, starts, cfg)
    expected = dict.fromkeys(LABELS, 0)
    for i, start in enumerate(starts):
        single = solve(model, start, cfg)
        assert np.array_equal(lanes.final_points[i], single.final_point)
        assert lanes.final_phi[i] == single.final_phi
        assert lanes.status[i] is single.status
        assert lanes.outer_iterations[i] == len(single.trace)
        assert lanes.backtracks[i] == sum(r.backtracks for r in single.trace)
        assert lanes.linesearch_failures[i] == single.linesearch_failures
        expected[classify_point(single.final_point)] += 1
    if variant is Variant.BDCA:
        assert lanes.linesearch_failures.sum() > 0  # the Armijo floor fired

    whole = basin_experiment(0, seed=0, variant=variant, points=starts)
    assert whole.counts == expected
    assert whole.outer_iterations == lanes.outer_iterations.sum()
    assert whole.backtracks == lanes.backtracks.sum()
    assert whole.linesearch_failures == lanes.linesearch_failures.sum()
    monkeypatch.setattr(toy_problems, "BASIN_BLOCK", 7)
    split = basin_experiment(0, seed=0, variant=variant, points=starts)
    assert split.counts == whole.counts
    assert ((split.outer_iterations, split.backtracks,
             split.linesearch_failures)
            == (whole.outer_iterations, whole.backtracks,
                whole.linesearch_failures))


# breakpoints of phi~ on the sampling box and their one-ulp neighbours
_EDGES = sorted({float(np.nextafter(b, t)) for b in (0.0, 1.0, 2.0)
                 for t in (-np.inf, b, np.inf)})


@st.composite
def _near_radius(draw):
    """A point within a few ulps of an attractor's classification circle."""
    au, av = draw(st.sampled_from(ATTRACTORS))
    theta = draw(st.floats(0.0, 2.0 * np.pi))
    radius = CLASSIFY_RADIUS
    for _ in range(draw(st.integers(0, 3))):
        radius = np.nextafter(radius, draw(st.sampled_from((0.0, 1.0))))
    return au + radius * np.cos(theta), av + radius * np.sin(theta)


@pytest.mark.parametrize("variant", list(Variant))
def test_any_lane_split_gives_the_whole_stack_results(variant, monkeypatch):
    model = ScadSeparableProblem()
    cfg = default_basin_config(variant)
    coord = st.one_of(st.floats(0.0, 3.0), st.sampled_from(_EDGES))

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=13)
    @given(st.lists(st.tuples(coord, coord), min_size=16, max_size=128),
           st.integers(1, 64), st.lists(_near_radius(), max_size=8))
    def check(starts, block, near):
        whole = solve_lanes(model, np.array(starts), cfg)
        expected = dict.fromkeys(LABELS, 0)
        for point in whole.final_points:
            expected[classify_point(point)] += 1
        monkeypatch.setattr(toy_problems, "BASIN_BLOCK", block)
        split = basin_experiment(0, seed=0, variant=variant, points=starts)
        assert split.counts == expected
        assert ((split.outer_iterations, split.backtracks,
                 split.linesearch_failures)
                == (whole.outer_iterations.sum(), whole.backtracks.sum(),
                    whole.linesearch_failures.sum()))
        points = np.vstack([whole.final_points, np.reshape(near, (-1, 2))])
        assert ([LABELS[i] for i in classify_lanes(points)]
                == [classify_point(p) for p in points])

    check()


def test_basin_block_draws_equal_one_draw():
    # two full blocks and a partial one
    n = 2 * BASIN_BLOCK + 188
    rng = np.random.Generator(np.random.Philox(key=11))
    points = 3.0 * rng.random((n, 2))
    for variant in (Variant.DCA, Variant.BDCA):
        drawn = basin_experiment(n, seed=11, variant=variant)
        given = basin_experiment(0, seed=11, variant=variant, points=points)
        assert drawn.counts == given.counts
        assert ((drawn.outer_iterations, drawn.backtracks,
                 drawn.linesearch_failures)
                == (given.outer_iterations, given.backtracks,
                    given.linesearch_failures))


def test_basin_memory_flat_in_n():
    def peak_bytes(n):
        tracemalloc.start()
        try:
            basin_experiment(n, seed=3, variant=Variant.IBDCA)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 16 blocks of starts at once would take 16 * 16 * BASIN_BLOCK bytes
    # (512 KiB at 2048 lanes), their temporary as much
    assert (peak_bytes(16 * BASIN_BLOCK)
            <= peak_bytes(2 * BASIN_BLOCK) + 64 * 1024)


def test_basin_rejects_cfg_for_another_variant():
    with pytest.raises(ValueError, match="cfg runs bdca, not dca"):
        basin_experiment(10, seed=0, variant="dca",
                         cfg=default_basin_config(Variant.BDCA))


def test_import_loads_no_process_pool():
    code = ("import sys, dcboost; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=str(Path(dcboost.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_basin_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        basin_experiment(0, seed=0, variant=Variant.DCA)


def test_basin_rejects_non_integral_n():
    # a non-integral count fails here, not later inside range()
    for bad in (2.5, 3.0, np.float64(4.0)):
        with pytest.raises(ValueError, match="integer"):
            basin_experiment(bad, seed=7, variant=Variant.DCA)
    report = basin_experiment(np.int64(3), seed=7, variant=Variant.DCA)
    assert sum(report.counts.values()) == 3


def test_default_basin_config_lambda_bar():
    assert default_basin_config(Variant.IBDCA).lambda_bar == 3.0
    assert default_basin_config(Variant.DCA).lambda_bar == 3.0
    # searches start at y = x + d, one step shorter to probe the same span
    assert default_basin_config(Variant.BDCA).lambda_bar == 2.0
    assert default_basin_config(Variant.NMBDCA).lambda_bar == 2.0


def test_basin_csv_layout(tmp_path):
    report = basin_experiment(50, seed=3, variant=Variant.IBDCA)
    path = tmp_path / "basin.csv"
    write_basin_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# seed=3 n_points=50 variant=ibdca elapsed_s=")
    assert lines[0].endswith(f" outer_iterations={report.outer_iterations} "
                             f"backtracks={report.backtracks} "
                             "linesearch_failures=0")
    assert lines[1] == "attractor,count"
    assert lines[2] == '"(0,0)",50'
    assert len(lines) == 2 + 5
    total = sum(int(line.rsplit(",", 1)[1]) for line in lines[2:])
    assert total == 50
