import dataclasses
import math
import os
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dcboost import (CauchyModel, NoiseSpec, PdConfig, SolverConfig,
                     SubproblemError, Variant, add_cauchy_noise, div, energy,
                     grad, grad_h_cauchy, make_squares_image, quantize_u8,
                     solve, tv, tv_prox)
from dcboost import tv_cauchy
from dcboost.cli import DEFAULT_C, DEFAULT_MU, _denoise_defaults
from dcboost.dc_core import solve_lanes
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


def test_grad_div_bitwise_equal_oracles():
    # the one-pass differences rewrite the row-crossing entries and the
    # boundary row and column; every entry must come out as the oracles'
    rng = np.random.default_rng(19)
    for shape in ((5, 7), (2, 2), (1, 6), (6, 1), (1, 1)):
        u = rng.normal(size=shape)
        p = rng.normal(size=(2,) + shape)
        for got, ref in zip(grad(u), oracles.grad_reference(u)):
            assert np.array_equal(_bits(got), _bits(ref)), shape
        want = _bits(oracles.div_reference(p))
        assert np.array_equal(_bits(div(p)), want), shape
        assert np.array_equal(_bits(div((p[0], p[1]))), want), shape


def test_grad_div_of_row_crossing_infinities_match_oracles_quietly():
    # the contiguous passes difference u[i+1, 0] - u[i, n-1] before
    # overwriting it: inf - inf there must neither warn (the suite turns
    # warnings into errors) nor reach the result
    u = np.array([[0.0, math.inf], [math.inf, 0.0]])
    for got, ref in zip(grad(u), oracles.grad_reference(u)):
        assert np.array_equal(_bits(got), _bits(ref))
    p = (u, np.zeros((2, 2)))
    assert np.array_equal(_bits(div(p)), _bits(oracles.div_reference(p)))


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


def test_evaluators_reject_an_image_of_another_shape():
    # u - f would broadcast a row or a column to f's shape: both evaluators
    # must name the mismatch instead
    model = CauchyModel(np.ones((3, 4)), mu=15.0, gamma=3.0, c=1.83)
    for shape in ((4,), (1, 4), (4, 3)):
        for evaluator in (energy, grad_h_cauchy):
            with pytest.raises(ValueError) as excinfo:
                evaluator(np.zeros(shape), model)
            message = str(excinfo.value)
            assert str(shape) in message and "(3, 4)" in message, evaluator


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


def test_evaluators_bitwise_equal_allocating_references():
    # tv, energy and grad_h_cauchy write into the rasters they allocate, in
    # the order of the plain expressions: the bits must be theirs whatever
    # the layout (a sum runs in memory order) or magnitude, and the inputs
    # must come back untouched
    rng = np.random.default_rng(59)
    for shape in ((2, 7), (7, 2), (2, 2), (9, 6)):
        m, n = shape
        f = rng.uniform(0.0, 255.0, size=shape)
        for scale in (1.0, 1e150, -1e150):
            u = scale * rng.normal(size=shape)
            strided = np.empty((2 * m, 3 * n))
            strided[::2, 1::3] = u
            for f_layout in (f, np.asfortranarray(f)):
                model = CauchyModel(f_layout, mu=15.0, gamma=3.0, c=1.83)
                for layout in (u, np.asfortranarray(u), strided[::2, 1::3]):
                    kept_u, kept_f = layout.copy(), f_layout.copy()
                    case = (shape, scale, f_layout.flags.c_contiguous,
                            layout.flags.c_contiguous,
                            layout.flags.f_contiguous)
                    assert (_bits(tv(layout))
                            == _bits(oracles.tv_reference(layout))), case
                    assert (_bits(energy(layout, model)) == _bits(
                        oracles.energy_reference(layout, model))), case
                    assert np.array_equal(
                        _bits(grad_h_cauchy(layout, model)),
                        _bits(oracles.grad_h_reference(layout, model))), case
                    assert np.array_equal(_bits(layout), _bits(kept_u)), case
                    assert np.array_equal(_bits(f_layout), _bits(kept_f))


def test_evaluators_and_solve_peak_memory_in_rasters():
    # traced peaks in 128x128 rasters: energy holds its fidelity residual,
    # then tv's gradient pair; grad_h_cauchy its result and one residual;
    # one tv_prox call its seven buffers; a solve the seven tv_prox buffers
    # over x and grad_h(x), the last iteration's y and d already dropped and
    # the lane result's final points not yet made
    clean = make_squares_image(128, 128)
    noisy = quantize_u8(add_cauchy_noise(clean, NoiseSpec(gamma=3.0, seed=7)))
    model = CauchyModel(noisy, mu=15.0, gamma=3.0, c=1.83)
    cfg = SolverConfig(variant=Variant.IBDCA, max_outer_iter=4)

    def rasters(call):
        tracemalloc.start()
        try:
            out = call()
            return out, tracemalloc.get_traced_memory()[1] / noisy.nbytes
        finally:
            tracemalloc.stop()

    assert rasters(lambda: energy(noisy, model))[1] <= 2.1
    assert rasters(lambda: grad_h_cauchy(noisy, model))[1] <= 2.1
    v = grad_h_cauchy(noisy, model)
    prox = rasters(lambda: tv_prox(v, model.c, PdConfig(max_inner_iter=5),
                                   noisy))[1]
    assert prox <= 7.2
    result, peak = rasters(lambda: solve(model, noisy, cfg))
    assert len(result.trace) == 4
    assert peak <= 9.5


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
    v = np.zeros((4, 4))
    res = tv_prox(v, 1.0, PdConfig(), v / 1.0)
    assert np.all(res.u == 0.0)
    assert res.converged


def test_tv_prox_constant_fixed_point():
    k = 4.25
    v = np.full((5, 5), 2.0 * k)
    res = tv_prox(v, 2.0, PdConfig(), v / 2.0)
    assert np.allclose(res.u, k, atol=1e-10, rtol=0)
    assert res.converged


def test_tv_prox_matches_dual_oracle_small_instances():
    rng = np.random.default_rng(41)
    cfg = PdConfig(max_inner_iter=20000, tol_inner=1e-11)
    vs = np.array([rng.normal(size=(4, 4)) for _ in range(5)])
    refs = oracles.tv_prox_dual_fista(vs, c=1.0, n_iter=20000)
    for v, ref in zip(vs, refs):
        res = tv_prox(v, 1.0, cfg, v / 1.0)
        assert np.max(np.abs(res.u - ref)) <= 1e-4
        gap = abs(oracles.tv_prox_objective(res.u, v, 1.0)
                  - oracles.tv_prox_objective(ref, v, 1.0))
        assert gap <= 1e-6


def _assert_tv_prox_matches_reference(runs):
    """Each run's result, after checking it bitwise against the reference's;
    the reference runs on C-ordered copies: np.linalg.norm sums in memory
    order, so its resid follows the layout."""
    results = []
    for v, c, u0, cfg in runs:
        got = tv_prox(v, c, cfg, u0)
        want = oracles.tv_prox_reference(np.ascontiguousarray(v), c, cfg,
                                         np.ascontiguousarray(u0))
        case = (v.shape, v.flags.c_contiguous, u0.flags.c_contiguous, cfg)
        assert np.array_equal(_bits(got.u), _bits(want.u)), case
        assert got.iters == want.iters, case
        assert _bits(got.resid) == _bits(want.resid), case
        assert got.converged is want.converged, case
        results.append((got, cfg, case))
    return results


def _assert_reference_runs():
    for got, cfg, case in _assert_tv_prox_matches_reference(
            _reference_runs()):
        if cfg.max_inner_iter == 7:
            assert got.iters == 7 and not got.converged, case
        if cfg.max_inner_iter == 5000:
            assert 1000 < got.iters < 5000 and got.converged, case


def _reference_runs():
    rng = np.random.default_rng(47)
    clean = make_squares_image(64, 64)
    f = quantize_u8(add_cauchy_noise(clean, NoiseSpec(gamma=3.0, seed=7)))
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    cases = [(grad_h_cauchy(f, model), model.c, f)]
    for shape in ((2, 2), (5, 7), (33, 17), (3, 5)):
        cases.append((10.0 * rng.normal(size=shape), 0.7,
                      rng.normal(size=shape)))
    default, cut = PdConfig(), PdConfig(max_inner_iter=7)
    long_run = PdConfig(max_inner_iter=5000, tol_inner=1e-9)
    # each case from its own start and from v / c
    runs = [(v, c, u0, cfg) for v, c, start in cases
            for u0 in (start, v / c) for cfg in (default, cut)]
    v, c, start = cases[1]  # 2x2: over a thousand iterations in ~0.1 s
    runs += [(v, c, start, long_run), (v, c, v / c, long_run)]
    # at 256x256 tv_prox runs two bands of its own accord on two CPUs
    big = 10.0 * rng.normal(size=(256, 256))
    runs.append((big, 0.7, rng.normal(size=big.shape), cut))
    return runs


def test_tv_prox_bitwise_matches_allocating_reference():
    _assert_reference_runs()


def test_tv_prox_in_two_bands_bitwise_matches_allocating_reference(
        two_bands):
    # m = 2, 3, 5, 33 and 64: the bands split at m // 2, odd m unevenly
    _assert_reference_runs()


def _layout_runs(rng):
    # tv_prox works on flat views of C-ordered buffers; a Fortran-ordered
    # or strided input must neither change the bits nor, through a reshape
    # that copies, lose the writes into a buffer
    cut = PdConfig(max_inner_iter=7)
    runs = []
    for shape in ((9, 6), (1, 6), (6, 1), (2, 1)):
        v = 10.0 * rng.normal(size=shape)
        start = rng.normal(size=shape)
        strided = np.empty((2 * shape[0], 3 * shape[1]))
        strided[::2, 1::3] = v
        for cfg in (PdConfig(), cut):
            runs += [(v, 0.7, start, cfg),
                     (v, 0.7, np.asfortranarray(start), cfg),
                     (np.asfortranarray(v), 0.7, v / 0.7, cfg),
                     (np.asfortranarray(v), 0.7, start, cfg),
                     (strided[::2, 1::3], 0.7, v / 0.7, cfg)]
    return runs


def test_tv_prox_and_operators_bitwise_equal_whatever_the_layout():
    rng = np.random.default_rng(53)
    _assert_tv_prox_matches_reference(_layout_runs(rng))
    # grad and div likewise
    for shape in ((5, 7), (1, 6), (6, 1), (2, 1)):
        m, n = shape
        u = rng.normal(size=shape)
        p = rng.normal(size=(2,) + shape)
        strided = np.empty((3, 2 * m, 3 * n))
        strided[:2, ::2, 1::3] = p
        strided[2, ::2, 1::3] = u
        for layout in (np.asfortranarray(u), strided[2, ::2, 1::3]):
            for got, ref in zip(grad(layout), oracles.grad_reference(u)):
                assert np.array_equal(_bits(got), _bits(ref)), shape
        want = _bits(oracles.div_reference(p))
        fortran_pair = (np.asfortranarray(p[0]), np.asfortranarray(p[1]))
        for layout in (fortran_pair, strided[:2, ::2, 1::3]):
            assert np.array_equal(_bits(div(layout)), want), shape


def test_tv_prox_in_two_bands_bitwise_equal_whatever_the_layout(two_bands):
    _assert_tv_prox_matches_reference(
        _layout_runs(np.random.default_rng(53)))


@pytest.mark.parametrize("shape, count", [((3, 5), 1), ((63, 65), 1),
                                          ((256, 256), 2)])
def test_tv_prox_block_rasters_start_64_byte_aligned(shape, count,
                                                     monkeypatch):
    # every raster of the block that the views handed to _pd_band reach (u,
    # ubar, the scratch t, px and py) starts on a cache line; m*n of 15 and
    # 4095 floats is no whole number of lines, so the rows must be padded,
    # and 256x256 runs in two bands
    monkeypatch.setattr(tv_cauchy, "_two_bands", lambda m, n: m * n >= 2**16)
    seen = []
    pd_band = tv_cauchy._pd_band

    def spy(views, *args):
        uc, ub, t, _, _, px, py = views[:7]
        seen.append({band.whole.ctypes.data for band in (uc, ub, t, px, py)})
        return pd_band(views, *args)

    monkeypatch.setattr(tv_cauchy, "_pd_band", spy)
    v = 10.0 * np.random.default_rng(67).normal(size=shape)
    tv_prox(v, 0.7, PdConfig(max_inner_iter=3), v / 0.7)
    assert len(seen) == count
    for addresses in seen:
        assert len(addresses) == 5, shape  # five distinct rasters
        assert all(address % 64 == 0 for address in addresses), shape


def test_tv_prox_result_pins_one_raster():
    # the returned u_hat is a raster of its own: a caller that keeps it
    # keeps neither the block nor the other u_hat
    v = 10.0 * np.random.default_rng(71).normal(size=(63, 65))
    a = tv_prox(v, 0.7, PdConfig(max_inner_iter=3), v / 0.7).u
    while a is not None:
        assert a.nbytes <= v.nbytes + 64
        a = a.base


def test_tv_prox_bands_by_raster_size_and_cpus(monkeypatch):
    # two bands from 2**16 pixels on two CPUs, through the affinity mask or,
    # where the platform has none, the CPU count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert tv_cauchy._two_bands(256, 256) and tv_cauchy._two_bands(2, 32768)
    for m, n in ((255, 256), (128, 128), (1, 1 << 20)):
        assert not tv_cauchy._two_bands(m, n), (m, n)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not tv_cauchy._two_bands(256, 256)
    monkeypatch.delattr(os, "sched_getaffinity")
    for count, want in ((2, True), (1, False), (None, False)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert tv_cauchy._two_bands(256, 256) is want, count

    # and each band runs in its own thread
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    threads = set()
    div_into = tv_cauchy._div_into

    def spy(*views):
        threads.add(threading.get_ident())
        div_into(*views)

    monkeypatch.setattr(tv_cauchy, "_div_into", spy)
    for size, count in ((256, 2), (128, 1)):
        threads.clear()
        v = np.ones((size, size))
        tv_prox(v, 0.7, PdConfig(max_inner_iter=2), v)
        assert len(threads) == count, size


@pytest.mark.parametrize("band", [0, 1])
def test_a_failing_band_re_raises_and_leaves_no_thread(band, two_bands,
                                                       monkeypatch):
    # band 0 runs in the calling thread, band 1 in the worker; either
    # failing must release the other from its barrier, and the worker must
    # be joined before the error reaches the caller
    caller = threading.current_thread()
    div_into = tv_cauchy._div_into

    def failing(*views):
        if (threading.current_thread() is caller) == (band == 0):
            raise RuntimeError(f"band {band} fails")
        div_into(*views)

    monkeypatch.setattr(tv_cauchy, "_div_into", failing)
    before = threading.active_count()
    v = np.ones((6, 5))
    with pytest.raises(RuntimeError, match=f"band {band} fails"):
        tv_prox(v, 0.7, PdConfig(), v)
    assert threading.active_count() == before


@pytest.mark.parametrize("band", [0, 1])
def test_a_stuck_band_fails_within_the_timeout_and_leaves_no_thread(
        band, two_bands, monkeypatch):
    # a band that stops answering, as one that left the loop early would,
    # must not hang the other at its barrier: the wait times out, and once
    # the worker is joined the call fails as a subproblem failure
    monkeypatch.setattr(tv_cauchy, "BAND_WAIT_S", 0.2)
    caller = threading.current_thread()
    div_into = tv_cauchy._div_into
    stalled = []

    def stalling(*views):
        if (threading.current_thread() is caller) == (band == 0):
            if not stalled:
                stalled.append(band)
                time.sleep(1.0)
        div_into(*views)

    monkeypatch.setattr(tv_cauchy, "_div_into", stalling)
    before = threading.active_count()
    v = np.ones((6, 5))
    t0 = time.perf_counter()
    with pytest.raises(SubproblemError, match="waited over 0.2 s"):
        tv_prox(v, 0.7, PdConfig(), v)
    assert time.perf_counter() - t0 < 10.0
    assert stalled == [band]
    assert threading.active_count() == before


def test_two_bands_under_random_delays_bitwise_equal_one_band(monkeypatch):
    # seeded short sleeps before and after either band's steps move where
    # each band meets the other at its barriers; the bits must not move
    rng = np.random.default_rng(67)
    runs = [(10.0 * rng.normal(size=shape), 0.7, rng.normal(size=shape))
            for shape in ((2, 3), (7, 5), (33, 17))]
    cfg = PdConfig(max_inner_iter=25)
    monkeypatch.setattr(tv_cauchy, "_two_bands", lambda m, n: False)
    want = [tv_prox(v, c, cfg, u0) for v, c, u0 in runs]

    monkeypatch.setattr(tv_cauchy, "_two_bands", lambda m, n: True)
    caller = threading.current_thread()
    # each band pops only its own list
    delays = [np.random.default_rng(seed).uniform(0.0, 1e-3, 400).tolist()
              for seed in (0, 1)]

    def delayed(step):
        def run(*views):
            band = delays[threading.current_thread() is not caller]
            time.sleep(band.pop())
            step(*views)
            time.sleep(band.pop())
        return run

    for name in ("_grad_into", "_div_into"):
        monkeypatch.setattr(tv_cauchy, name, delayed(getattr(tv_cauchy, name)))
    for (v, c, u0), ref in zip(runs, want):
        got = tv_prox(v, c, cfg, u0)
        assert np.array_equal(_bits(got.u), _bits(ref.u)), v.shape
        assert (got.iters, _bits(got.resid), got.converged) == (
            ref.iters, _bits(ref.resid), ref.converged), v.shape
    assert min(map(len, delays)) < 400  # both bands ran


def test_concurrent_two_band_calls_equal_sequential_ones(two_bands):
    # four 256x256 calls at once, each with its own barrier and worker, so
    # eight threads on however many cores
    rng = np.random.default_rng(61)
    cfg = PdConfig(max_inner_iter=30)
    args = [(10.0 * rng.normal(size=(256, 256)), 0.7, cfg,
             rng.normal(size=(256, 256))) for _ in range(4)]
    sequential = [tv_prox(*a) for a in args]
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent_results = list(pool.map(lambda a: tv_prox(*a), args))
    for got, want in zip(concurrent_results, sequential):
        assert np.array_equal(_bits(got.u), _bits(want.u))
        assert (got.iters, _bits(got.resid), got.converged) == (
            want.iters, _bits(want.resid), want.converged)


def test_second_band_runs_under_the_callers_numpy_error_state(two_bands):
    # the CLI silences overflow around every solve; the worker must too, or
    # the overflow in the lower rows below warns there (an error here)
    v = np.zeros((8, 5))
    v[4:] = 1.5e308
    with np.errstate(over="ignore", invalid="ignore"):
        got = tv_prox(v, 0.7, PdConfig(max_inner_iter=3), v)
    assert not np.all(np.isfinite(got.u))


def test_tv_prox_nonconvergence_flag():
    rng = np.random.default_rng(43)
    v = rng.normal(size=(8, 8)) * 10.0
    res = tv_prox(v, 0.5, PdConfig(max_inner_iter=2, tol_inner=1e-14),
                  v / 0.5)
    assert not res.converged
    assert res.iters == 2


def test_tv_prox_rejects_u0_of_another_shape():
    # the flat views see only sizes: a same-sized u0 of another shape
    # would otherwise mix the two layouts
    v = np.zeros((3, 4))
    for shape in ((4, 3), (2, 6)):
        with pytest.raises(ValueError) as excinfo:
            tv_prox(v, 1.0, PdConfig(), np.zeros(shape))
        assert str(shape) in str(excinfo.value)
        assert str(v.shape) in str(excinfo.value)


@pytest.mark.parametrize("shape", [(5,), (2, 3, 4), (5, 0), (0, 5), (0, 0)],
                         ids=["1d", "3d", "5x0", "0x5", "0x0"])
@pytest.mark.parametrize("call, arg", [
    (grad, "u"),
    (lambda a: div((a, a)), "px, py in p"),
    (lambda a: tv_prox(a, 1.0, PdConfig(), a / 1.0), "v"),
], ids=["grad", "div", "tv_prox"])
def test_operators_reject_rasters_that_are_not_2d(call, arg, shape):
    # the error names the argument and the expected shape, not the unpacking
    # inside the flat views; a raster with no pixels is rejected the same
    # way, where a zero-column one would fail on a zero slice step and a
    # zero-row one return empty results
    with pytest.raises(ValueError) as excinfo:
        call(np.zeros(shape))
    message = str(excinfo.value)
    assert arg in message
    assert "2-D" in message and "(m, n)" in message
    assert str(shape) in message


def test_div_rejects_px_py_of_different_shapes():
    # (3, 4) and (5, 2) give flat views of equal lengths, so without the
    # check div returned a raster mixing the two layouts
    for py_shape in ((5, 2), (4, 3)):
        with pytest.raises(ValueError) as excinfo:
            div((np.ones((3, 4)), np.ones(py_shape)))
        assert str(py_shape) in str(excinfo.value)


def test_tv_prox_rejects_nonpositive_c():
    with pytest.raises(ValueError):
        # a zero start, as v / c would divide by the zero c
        tv_prox(np.zeros((4, 4)), 0.0, PdConfig(), np.zeros((4, 4)))


def test_pd_config_validation():
    with pytest.raises(ValueError):
        PdConfig(max_inner_iter=0)
    with pytest.raises(ValueError):
        PdConfig(tol_inner=0.0)
    # an infinite tolerance would stop every inner solve after one step
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            PdConfig(tol_inner=bad)
    # a non-integral count fails here, not later inside range()
    for bad in (2.5, 3.0, np.float64(4.0)):
        with pytest.raises(ValueError, match="integer"):
            PdConfig(max_inner_iter=bad)
    assert PdConfig(max_inner_iter=np.int64(3)).max_inner_iter == 3
    # frozen, so no count reaches tv_prox unchecked
    for field in dataclasses.fields(PdConfig):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(PdConfig(), field.name, 0)
    with pytest.raises(ValueError, match="max_inner_iter"):
        dataclasses.replace(PdConfig(), max_inner_iter=0)
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


def test_model_subproblem_info_is_tv_prox_diagnostics_as_returned():
    # the CLI decides its exit code on the flag as a bool, and only its
    # trace writer turns the counts into text
    f = np.random.default_rng(53).uniform(0.0, 255.0, size=(8, 8))
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    _, info = model.solve_subproblem_with_info(f)
    prox = tv_prox(grad_h_cauchy(f, model), model.c, model.inner, u0=f)
    assert type(info["inner_iters"]) is int
    assert info["inner_iters"] == prox.iters
    assert type(info["inner_resid"]) is float
    assert info["inner_resid"] == prox.resid
    assert info["inner_converged"] is True
    capped = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83,
                         inner=PdConfig(max_inner_iter=1))
    _, info = capped.solve_subproblem_with_info(f)
    assert info["inner_iters"] == 1
    assert info["inner_converged"] is False


def test_model_subproblem_rejects_a_non_finite_inner_iterate():
    # at entries of 1e308, c*u overflows in grad_h, and the inner loop
    # turns the infinite pull into NaN
    f = np.random.default_rng(53).uniform(0.0, 255.0, size=(8, 8))
    model = CauchyModel(f, mu=15.0, gamma=3.0, c=1.83)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SubproblemError, match="non-finite iterate") as err:
        model.solve_subproblem_with_info(np.full(f.shape, 1e308))
    assert math.isnan(err.value.residual)


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


@pytest.mark.parametrize("variant", list(Variant))
def test_raster_lanes_match_single_solves(variant):
    # two starts of one 16x16 restoration in lockstep, through the stacked
    # phi_lanes and subproblem_lanes defaults, with several rungs per
    # phi_lanes call: each lane must compute what its start alone computes
    gamma = 3.0
    f = quantize_u8(add_cauchy_noise(make_squares_image(16, 16),
                                     NoiseSpec(gamma, seed=7)))
    model = CauchyModel(f, mu=15.0, gamma=gamma, c=1.83)
    cfg = dataclasses.replace(_denoise_defaults(variant, model.rho),
                              max_outer_iter=25)
    jitter = np.random.default_rng(61).normal(0.0, 20.0, size=f.shape)
    starts = np.stack([f, np.clip(f + jitter, 0.0, 255.0)])
    records = {}
    lanes = solve_lanes(model, starts, cfg, on_record=lambda lane, rec:
                        records.setdefault(lane, []).append(rec))
    for i, start in enumerate(starts):
        single = solve(model, start, cfg)
        assert np.array_equal(_bits(lanes.final_points[i]),
                              _bits(single.final_point)), i
        assert lanes.status[i] is single.status, i
        assert lanes.outer_iterations[i] == len(single.trace), i
        assert ([(r.k, r.phi, r.lam, r.backtracks, r.aux["inner_iters"])
                 for r in records[i]]
                == [(r.k, r.phi, r.lam, r.backtracks, r.aux["inner_iters"])
                    for r in single.trace]), i
