import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dcboost import (CauchyModel, NoiseSpec, PdConfig, SolverConfig, Variant,
                     add_cauchy_noise, div, energy, grad, grad_h_cauchy,
                     make_squares_image, quantize_u8, solve, tv, tv_prox)
from dcboost.cli import DEFAULT_C, DEFAULT_MU, _denoise_defaults
from dcboost.tv_cauchy import GRAD_NORM_SQ_BOUND, PD_STEP0
from oracles import smooth_part_second_derivative


# ---------------------------------------------------------------------------
# discrete gradient / divergence / tv
# ---------------------------------------------------------------------------

def test_grad_of_constant_is_zero():
    g = grad(np.full((5, 6), 7.0))
    assert g.shape == (2, 5, 6) and np.all(g == 0.0)


def test_grad_hand_example_2x2():
    px, py = grad(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert np.array_equal(px, [[1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(py, [[2.0, 2.0], [0.0, 0.0]])


def test_grad_vertical_edge():
    u = np.zeros((8, 8))
    u[:, 4:] = 255.0
    px, py = grad(u)
    assert np.all(px[:, 3] == 255.0)
    mask = np.ones(8, dtype=bool)
    mask[3] = False
    assert np.all(px[:, mask] == 0.0)
    assert np.all(py == 0.0)


def test_div_of_zero_field():
    z = np.zeros((4, 5))
    assert np.all(div((z, z)) == 0.0)


def test_adjoint_identity_random_fields():
    # the thin shapes make a whole raster of grad/div boundary slices
    rng = np.random.default_rng(17)
    for shape in ((5, 7), (2, 2), (1, 6), (6, 1), (1, 1)):
        for _ in range(30):
            u = rng.normal(size=shape)
            px = rng.normal(size=shape)
            py = rng.normal(size=shape)
            gx, gy = grad(u)
            lhs = float(np.vdot(gx, px) + np.vdot(gy, py))
            rhs = -float(np.vdot(u, div((px, py))))
            scale = np.linalg.norm(u) * math.hypot(np.linalg.norm(px),
                                                   np.linalg.norm(py))
            assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0), shape


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_grad_div_out_bitwise_equal_allocating():
    # NaN-filled buffers show that every entry, the zero boundary row and
    # column included, is rewritten: tv_prox reuses grad's buffer as scratch
    rng = np.random.default_rng(19)
    for shape in ((5, 7), (2, 2), (1, 6), (6, 1), (1, 1)):
        u = rng.normal(size=shape)
        p = rng.normal(size=(2,) + shape)
        gbuf = np.full((2,) + shape, np.nan)
        g = grad(u, out=gbuf)
        assert g is gbuf
        for got, fresh, ref in zip(g, grad(u), oracles.grad_reference(u)):
            assert np.array_equal(_bits(got), _bits(fresh)), shape
            assert np.array_equal(_bits(got), _bits(ref)), shape
        dbuf = np.full(shape, np.nan)
        assert div(p, out=dbuf) is dbuf
        assert np.array_equal(_bits(dbuf), _bits(div((p[0], p[1])))), shape
        assert np.array_equal(_bits(dbuf), _bits(oracles.div_reference(p))), \
            shape


def test_div_grad_spike_is_discrete_laplacian():
    u = np.zeros((3, 3))
    u[1, 1] = 1.0
    lap = div(grad(u))
    expected = np.array([[0.0, 1.0, 0.0],
                         [1.0, -4.0, 1.0],
                         [0.0, 1.0, 0.0]])
    assert np.array_equal(lap, expected)


def test_grad_operator_norm_bound():
    rng = np.random.default_rng(29)
    for _ in range(50):
        u = rng.normal(size=(6, 9))
        gx, gy = grad(u)
        gnorm = float(np.vdot(gx, gx) + np.vdot(gy, gy))
        assert gnorm <= GRAD_NORM_SQ_BOUND * float(np.vdot(u, u)) + 1e-12


def test_tv_values():
    assert tv(np.full((4, 4), 3.0)) == 0.0
    got = tv(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert abs(got - (math.sqrt(5.0) + 3.0)) <= 1e-14


def test_tv_positive_homogeneity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        u = rng.normal(size=(5, 5))
        assert abs(tv(2.0 * u) - 2.0 * tv(u)) <= 1e-12 * max(tv(u), 1.0)


# ---------------------------------------------------------------------------
# energy and smooth-part gradient
# ---------------------------------------------------------------------------

def test_energy_at_observation_constant():
    f = np.full((3, 4), 50.0)
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    assert abs(energy(f, model) - 7.5 * 12 * math.log(9.0)) <= 1e-10


def test_energy_uniform_offset():
    f = np.full((2, 2), 100.0)
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    got = energy(f + 3.0, model)
    assert abs(got - 7.5 * 4 * math.log(18.0)) <= 1e-10


def test_energy_shape_mismatch_raises():
    model = CauchyModel(np.zeros((4, 4)) + 1.0, mu=15.0, gamma=3.0, c=1.83)
    with pytest.raises(ValueError):
        energy(np.zeros((3, 4)), model)


def test_grad_h_at_observation():
    f = np.arange(12.0).reshape(3, 4) + 1.0
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    assert np.allclose(grad_h_cauchy(f, model), model.c * f, atol=0, rtol=0)


def test_grad_h_matches_finite_differences():
    rng = np.random.default_rng(37)
    f = rng.uniform(0.0, 255.0, size=(6, 6))
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)

    def h_value(u):
        r = u - f
        return (-0.5 * model.mu * float(np.log(model.gamma ** 2 + r * r).sum())
                + 0.5 * model.c * float(np.vdot(u, u)))

    u = f + rng.normal(scale=5.0, size=f.shape)
    g = grad_h_cauchy(u, model)
    for _ in range(20):
        direction = rng.normal(size=f.shape)
        direction /= np.linalg.norm(direction)
        fd = oracles.central_fd_directional(h_value, u, direction, step=1e-5)
        analytic = float(np.vdot(g, direction))
        assert abs(fd - analytic) <= 1e-6 * max(abs(analytic), 1.0)


def test_second_derivative_threshold():
    mu, gamma = 15.0, 3.0
    c = mu / gamma ** 2
    # at the threshold the curvature bottoms out at exactly zero, at t = 0
    assert abs(smooth_part_second_derivative(0.0, mu, gamma, c)) <= 1e-12
    grid = np.linspace(-1000.0, 1000.0, 400001)
    assert np.all(smooth_part_second_derivative(grid, mu, gamma, c) >= -1e-12)


# ---------------------------------------------------------------------------
# TV prox inner solver
# ---------------------------------------------------------------------------

def test_tv_prox_zero_input():
    res = tv_prox(np.zeros((4, 4)), c=1.0)
    assert np.all(res.u == 0.0)
    assert res.converged


def test_tv_prox_constant_fixed_point():
    k = 4.25
    res = tv_prox(np.full((5, 5), 2.0 * k), c=2.0)
    assert np.allclose(res.u, k, atol=1e-10, rtol=0)
    assert res.converged


def test_tv_prox_matches_dual_oracle_small_instances():
    rng = np.random.default_rng(41)
    cfg = PdConfig(max_inner_iter=20000, tol_inner=1e-11)
    for _ in range(5):
        v = rng.normal(size=(4, 4))
        res = tv_prox(v, c=1.0, cfg=cfg)
        ref = oracles.tv_prox_dual_fista(v, c=1.0, n_iter=20000)
        assert np.max(np.abs(res.u - ref)) <= 1e-4
        gap = abs(oracles.tv_prox_objective(res.u, v, 1.0)
                  - oracles.tv_prox_objective(ref, v, 1.0))
        assert gap <= 1e-6


def test_tv_prox_bitwise_matches_allocating_reference():
    rng = np.random.default_rng(47)
    clean = make_squares_image(64, 64)
    f = quantize_u8(add_cauchy_noise(clean, NoiseSpec(gamma=3.0, seed=7)))
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    cases = [(grad_h_cauchy(f, model), model.c, f)]
    for shape in ((2, 2), (5, 7), (33, 17)):
        cases.append((10.0 * rng.normal(size=shape), 0.7,
                      rng.normal(size=shape)))
    default, cut = PdConfig(), PdConfig(max_inner_iter=7)
    long_run = PdConfig(max_inner_iter=5000, tol_inner=1e-9)
    runs = [(v, c, u0, cfg) for v, c, start in cases
            for u0 in (start, None) for cfg in (default, cut)]
    v, c, start = cases[1]  # 2x2: over a thousand iterations in ~0.1 s
    runs += [(v, c, start, long_run), (v, c, None, long_run)]
    for v, c, u0, cfg in runs:
        got = tv_prox(v, c, cfg, u0=u0)
        want = oracles.tv_prox_reference(v, c, cfg, u0=u0)
        case = (v.shape, u0 is None, cfg)
        assert np.array_equal(_bits(got.u), _bits(want.u)), case
        assert got.iters == want.iters, case
        assert _bits(got.resid) == _bits(want.resid), case
        assert got.converged is want.converged, case
        if cfg is cut:
            assert got.iters == 7 and not got.converged, case
        if cfg is long_run:
            assert 1000 < got.iters < 5000 and got.converged, case


def test_tv_prox_nonconvergence_flag():
    rng = np.random.default_rng(43)
    v = rng.normal(size=(8, 8)) * 10.0
    res = tv_prox(v, c=0.5, cfg=PdConfig(max_inner_iter=2, tol_inner=1e-14))
    assert not res.converged
    assert res.iters == 2


def test_tv_prox_rejects_nonpositive_c():
    with pytest.raises(ValueError):
        tv_prox(np.zeros((4, 4)), c=0.0)


def test_pd_config_validation():
    with pytest.raises(ValueError):
        PdConfig(max_inner_iter=0)
    with pytest.raises(ValueError):
        PdConfig(tol_inner=0.0)
    # a non-integral count fails here, not later inside range()
    for bad in (2.5, 3.0, np.float64(4.0)):
        with pytest.raises(ValueError, match="integer"):
            PdConfig(max_inner_iter=bad)
    assert PdConfig(max_inner_iter=np.int64(3)).max_inner_iter == 3
    # the first step sizes respect the operator-norm bound tau*sigma*8 <= 1
    assert PD_STEP0 * PD_STEP0 * GRAD_NORM_SQ_BOUND <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# the restoration model
# ---------------------------------------------------------------------------

def test_model_rho_reference_settings():
    f = np.full((4, 4), 100.0)
    m1 = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    assert abs(m1.rho - (1.83 - 15.0 / 9.0)) <= 1e-15
    m2 = CauchyModel(f, mu=20.0, gamma=5.0, c=1.10)
    assert abs(m2.rho - 0.30) <= 1e-15


def test_model_rejects_weak_convexity_shift():
    f = np.full((4, 4), 100.0)
    with pytest.raises(ValueError):
        CauchyModel(f, mu=15.0, gamma=3.0, c=15.0 / 9.0)  # equality
    with pytest.raises(ValueError):
        CauchyModel(f, mu=15.0, gamma=3.0, c=1.0)


def test_model_rejects_gamma_whose_square_leaves_the_float_range():
    f = np.full((4, 4), 100.0)
    for gamma in (1e200, 1e155, 1e-200):
        with pytest.raises(ValueError, match="gamma"):
            CauchyModel(f, mu=15.0, gamma=gamma, c=1.0)
    assert CauchyModel(f, mu=15.0, gamma=1e154, c=1.0).rho == 1.0


def test_model_rejects_bad_observation():
    with pytest.raises(ValueError):
        CauchyModel(np.zeros(16), mu=15.0, gamma=3.0, c=1.83)
    with pytest.raises(ValueError):
        CauchyModel(np.full((4, 4), math.nan), mu=15.0, gamma=3.0, c=1.83)
    with pytest.raises(ValueError):
        CauchyModel(np.zeros((4, 4)), mu=-1.0, gamma=3.0, c=1.83)
    with pytest.raises(ValueError):
        CauchyModel(np.zeros((4, 4)), mu=15.0, gamma=3.0, c=math.inf)


def test_model_phi_consistent_with_parts():
    rng = np.random.default_rng(47)
    f = rng.uniform(0.0, 255.0, size=(6, 5))
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    for _ in range(10):
        u = f + rng.normal(scale=20.0, size=f.shape)
        direct = model.phi(u)
        split = (oracles.cauchy_eval_g(model, u)
                 - oracles.cauchy_eval_h(model, u))
        assert abs(direct - split) <= 1e-9 * max(abs(direct), 1.0)
        assert direct == energy(u, model)


def test_model_parts_are_midpoint_convex():
    rng = np.random.default_rng(71)
    f = rng.uniform(0.0, 255.0, size=(5, 5))
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    for _ in range(50):
        a = f + rng.normal(scale=40.0, size=f.shape)
        b = f + rng.normal(scale=40.0, size=f.shape)
        mid = 0.5 * (a + b)
        for part in (oracles.cauchy_eval_g, oracles.cauchy_eval_h):
            fun = lambda u: part(model, u)
            assert fun(mid) <= 0.5 * (fun(a) + fun(b)) + 1e-8


def test_model_subproblem_residual_below_tolerance():
    rng = np.random.default_rng(53)
    f = rng.uniform(0.0, 255.0, size=(8, 8))
    inner = PdConfig(max_inner_iter=2000, tol_inner=1e-7)
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83, inner=inner)
    y, info = model.solve_subproblem_with_info(f)
    assert info["inner_converged"] == 1.0
    assert info["inner_resid"] <= 1e-7
    # purity: same input, bitwise-same output
    y2, _ = model.solve_subproblem_with_info(f)
    assert np.array_equal(y, y2)


def test_outer_energy_monotone_on_small_denoise():
    rng = np.random.default_rng(59)
    clean = make_squares_image(16, 16)
    noisy = np.clip(np.rint(clean + 3.0 * rng.standard_normal((16, 16))
                            / rng.standard_normal((16, 16))), 0, 255)
    model = CauchyModel(noisy, mu=15.0, gamma=3.0, c=1.83)
    for variant in (Variant.DCA, Variant.IBDCA):
        lam = 10.0
        cfg = SolverConfig(variant=variant, alpha=0.9 * model.rho, beta=0.5,
                           lambda_bar=lam, max_outer_iter=60,
                           tol_rel_energy=5e-4, tol_direction=1e-6)
        result = solve(model, noisy.astype(float), cfg)
        assert result.monotone_violations == 0
        phis = [rec.phi for rec in result.trace] + [result.final_phi]
        for a, b in zip(phis, phis[1:]):
            assert b <= a + 1e-8 * abs(a)


@pytest.mark.parametrize("variant", [Variant.DCA, Variant.IBDCA])
def test_outer_energy_monotone_on_random_noisy_rasters(variant):
    # the restoration protocol at gamma 3 (mu, c and the outer settings the
    # CLI resolves) on random rasters; phi may rise only within the 1e-8
    # relative slack that monotone_violations allows
    gamma = 3.0
    mu = DEFAULT_MU[gamma]
    c = DEFAULT_C[gamma, mu]

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=12)
    @given(st.integers(8, 16), st.integers(8, 16),
           st.integers(0, 2 ** 64 - 1))
    def check(m, n, seed):
        clean = np.random.default_rng(seed).integers(0, 256, (m, n))
        noisy = quantize_u8(add_cauchy_noise(clean.astype(float),
                                             NoiseSpec(gamma, seed)))
        model = CauchyModel(noisy, mu, gamma, c)
        result = solve(model, noisy, _denoise_defaults(variant, model.rho))
        assert result.monotone_violations == 0
        phis = [rec.phi for rec in result.trace] + [result.final_phi]
        for a, b in zip(phis, phis[1:]):
            assert b <= a + 1e-8 * max(1.0, abs(a))

    check()
