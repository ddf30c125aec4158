"""Independent numerical oracles for the test suite.

Expected values are recomputed here by brute force: dense grid argmins,
central finite differences, and an accelerated projected-gradient method on
the dual of the TV prox.  None of these share code with the solver paths
they check (the grid oracles even re-state the piecewise formulas), so each
test compares two independent routes to the same quantity.

The library writes each SCAD closed form once, elementwise over stacks of
lanes.  The scalar references below state the same forms branch by branch
in plain Python; the lane forms must match them bit for bit.  The g and h
evaluators of both model families, the second derivative of the Cauchy
smooth part and the criticality gaps dist(grad_h(x), subdiff g(x)) are
test oracles too: the solvers never need them.  The TV primal-dual loop is
kept here in its plain allocating form, each step a fresh array, as the
reference that the library's preallocated kernel must match bit for bit;
so are ``tv``, ``energy`` and ``grad_h_cauchy``, which the library writes
into the rasters they allocate.
:func:`line_search_walk` walks one lane's line search rung by rung, the
reference of the lane loop's batched walk.  Last,
:func:`solve_keeping_iterates` keeps the iterates of a solve for the tests
that re-check each step from its start point, and :func:`subproblem_point`
is the subproblem solution alone.
"""

import math

import numpy as np

from dcboost.dc_core import Variant, solve
from dcboost.toy_problems import (ATTRACTOR_LABELS, ATTRACTORS,
                                  CLASSIFY_RADIUS, OTHER_LABEL)
from dcboost.tv_cauchy import PD_STEP0, TvProxResult, tv


def grid_argmin(fun, lo, hi, coarse=1e-3, fine=1e-6):
    """Two-stage dense-grid argmin of a vectorized scalar function."""
    xs = np.arange(lo, hi + coarse, coarse)
    x0 = float(xs[np.argmin(fun(xs))])
    xs2 = np.arange(x0 - 2.0 * coarse, x0 + 2.0 * coarse + fine, fine)
    return float(xs2[np.argmin(fun(xs2))])


def dense_grid_argmin(fun, lo, hi, step):
    """Single-stage dense grid argmin (use for one-off, high-cost checks)."""
    xs = np.arange(lo, hi + step, step)
    return float(xs[np.argmin(fun(xs))])


# piecewise formulas restated independently of the package
def scad_g_vec(t):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    return np.where(a < 2.0, a + t * t / 5.0, a + (a - 2.0) ** 2 + t * t / 5.0)


def scad_h_vec(t):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    inner = t * t / 5.0
    middle = (t * t - 2.0 * a + 1.0) / 2.0 + t * t / 5.0
    outer = a - 1.5 + t * t / 5.0
    return np.where(a <= 1.0, inner, np.where(a < 2.0, middle, outer))


def scad_phi_vec(t):
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    middle = a - (a - 1.0) ** 2 / 2.0
    outer = (a - 2.0) ** 2 + 1.5
    return np.where(a <= 1.0, a, np.where(a < 2.0, middle, outer))


def quadl1_phi(u, v):
    return -2.5 * u + 0.5 * (u * u + v * v) + abs(u) + abs(v)


def central_fd_directional(fun, x, direction, step=1e-5):
    return (fun(x + step * direction) - fun(x - step * direction)) / (2.0 * step)


def forward_fd_directional(fun, x, direction, step=1e-6):
    return (fun(x + step * direction) - fun(x)) / step


def tv_prox_dual_fista(v, c, n_iter=20000):
    """Reference solutions of min_u tv(u) + (c/2)||u||^2 - <v, u> for each
    raster of a ``(K, m, n)`` stack ``v``, all K at once.

    Works on the dual problem min_{||p||<=1 pointwise} (1/2c)||v + div p||^2
    with FISTA (step c/8 from the operator-norm bound) and recovers
    u = (v + div p)/c.  A different algorithm from the primal-dual loop
    under test, with the slicing differences of :func:`grad_reference` and
    :func:`div_reference` rather than the library's ``grad`` and ``div``.
    Every step acts within a raster, and the momentum t is the same for
    all, so each raster follows its own FISTA path.
    """
    v = np.asarray(v, dtype=float)
    px = np.zeros_like(v)
    py = np.zeros_like(v)
    qx, qy = px.copy(), py.copy()
    t = 1.0
    for _ in range(n_iter):
        gx, gy = grad_reference(v + div_reference((qx, qy)))
        nx = qx + gx / 8.0
        ny = qy + gy / 8.0
        mag = np.maximum(1.0, np.sqrt(nx * nx + ny * ny))
        nx /= mag
        ny /= mag
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        w = (t - 1.0) / t_new
        qx = nx + w * (nx - px)
        qy = ny + w * (ny - py)
        px, py, t = nx, ny, t_new
    return (v + div_reference((px, py))) / c


def tv_prox_objective(u, v, c):
    return (tv_reference(u) + 0.5 * c * float(np.vdot(u, u))
            - float(np.vdot(v, u)))


# ---------------------------------------------------------------------------
# the allocating TV primal-dual loop, the reference of the library's kernel
# ---------------------------------------------------------------------------

def grad_reference(u):
    """Forward differences along the last two axes on zero-filled fresh
    arrays, so a ``(K, m, n)`` stack takes each raster's own."""
    u = np.asarray(u, dtype=float)
    px = np.zeros_like(u)
    py = np.zeros_like(u)
    px[..., :-1] = u[..., 1:] - u[..., :-1]
    py[..., :-1, :] = u[..., 1:, :] - u[..., :-1, :]
    return px, py


def div_reference(p):
    """Backward differences along the last two axes summed into a
    zero-filled fresh array."""
    px, py = p
    out = np.zeros_like(np.asarray(px, dtype=float))
    out[..., :-1] += px[..., :-1]
    out[..., 1:] -= px[..., :-1]
    out[..., :-1, :] += py[..., :-1, :]
    out[..., 1:, :] -= py[..., :-1, :]
    return out


def tv_prox_reference(v, c, cfg, u0):
    """The TV primal-dual loop written with plain expressions, every step
    allocating its result; tv_prox must match it bit for bit."""
    v = np.asarray(v, dtype=float)
    u = np.array(u0, dtype=float, copy=True)
    ubar = u.copy()
    u_hat_prev = u
    px = np.zeros_like(v)
    py = np.zeros_like(v)
    tau = sigma = PD_STEP0

    u_hat = u
    resid = math.inf
    converged = False
    iters = 0
    for iters in range(1, cfg.max_inner_iter + 1):
        gx, gy = grad_reference(ubar)
        px += sigma * gx
        py += sigma * gy
        mag = np.maximum(1.0, np.sqrt(px * px + py * py))
        px /= mag
        py /= mag

        divp = div_reference((px, py))
        u_hat = (v + divp) / c
        u_prev = u
        u = (u + tau * divp + tau * v) / (1.0 + tau * c)
        theta = 1.0 / math.sqrt(1.0 + 2.0 * c * tau)
        tau *= theta
        sigma /= theta
        ubar = u + theta * (u - u_prev)

        resid = float(np.linalg.norm(u_hat - u_hat_prev)) / max(
            float(np.linalg.norm(u_hat_prev)), 1e-300)
        u_hat_prev = u_hat
        if resid <= cfg.tol_inner:
            converged = True
            break
    return TvProxResult(u_hat, iters, resid, converged)


def tv_reference(u):
    """tv as the plain expression, on a C-ordered copy of u: the library's
    grad works on one, and the sum runs in memory order."""
    px, py = grad_reference(np.ascontiguousarray(u, dtype=float))
    return float(np.sqrt(px * px + py * py).sum())


def energy_reference(u, model):
    """The Cauchy restoration energy, every step allocating its result."""
    u = np.asarray(u, dtype=float)
    r = u - model.f
    fidelity = 0.5 * model.mu * float(np.log(model.gamma ** 2 + r * r).sum())
    return tv_reference(u) + fidelity


def grad_h_reference(u, model):
    """grad_h_cauchy, every step allocating its result."""
    u = np.asarray(u, dtype=float)
    r = u - model.f
    return model.c * u - model.mu * r / (model.gamma ** 2 + r * r)


# ---------------------------------------------------------------------------
# scalar references for the SCAD closed forms
# ---------------------------------------------------------------------------

def scad_g_tilde(u):
    """Convex part per coordinate: |u| + u^2/5, plus (|u|-2)^2 beyond |u|=2."""
    a = abs(u)
    if a < 2.0:
        return a + u * u / 5.0
    # a product, not ** 2, which raises OverflowError for |u| above ~1e154
    return a + (a - 2.0) * (a - 2.0) + u * u / 5.0


def scad_h_tilde(u):
    """Smooth part per coordinate, C^1 across the breakpoints |u| in {1, 2}."""
    a = abs(u)
    if a <= 1.0:
        return u * u / 5.0
    if a < 2.0:
        return (u * u - 2.0 * a + 1.0) / 2.0 + u * u / 5.0
    return a - 1.5 + u * u / 5.0


def scad_h_tilde_prime(u):
    a = abs(u)
    if a <= 1.0:
        return 0.4 * u
    if a < 2.0:
        return u - math.copysign(1.0, u) + 0.4 * u
    return math.copysign(1.0, u) + 0.4 * u


def scad_phi_tilde(u):
    """The per-coordinate objective g~ - h~ in closed form.

    |u| on [-1,1], then |u| - (|u|-1)^2/2, then (|u|-2)^2 + 3/2 beyond 2:
    the SCAD shape with quadratic growth.  Nonnegative, zero only at 0;
    stationary also at |u| = 2, which is not a local minimum.
    """
    a = abs(u)
    if a <= 1.0:
        return a
    if a < 2.0:
        return a - (a - 1.0) * (a - 1.0) / 2.0
    return (a - 2.0) * (a - 2.0) + 1.5


def scad_subproblem_1d(w):
    """Unique minimizer of scad_g_tilde(t) - w*t.

    Candidates are the stationary point of each smooth branch (kept when it
    falls inside its interval) plus the breakpoints {-2, 0, 2}; strong
    convexity makes the best candidate the global minimizer.  A stationary
    point inside its interval is that minimizer outright, so where its
    value is inf - inf (|w| above ~3e154), which no comparison can rank,
    it is returned.
    """
    w = float(w)
    stationary = []
    t = 2.5 * (w - 1.0)            # branch (0, 2):    1 + 2t/5 = w
    if 0.0 < t < 2.0:
        stationary.append(t)
    t = 5.0 * (w + 3.0) / 12.0     # branch [2, inf):  1 + 2(t-2) + 2t/5 = w
    if t >= 2.0:
        stationary.append(t)
    t = 2.5 * (w + 1.0)            # branch (-2, 0):  -1 + 2t/5 = w
    if -2.0 < t < 0.0:
        stationary.append(t)
    t = 5.0 * (w - 3.0) / 12.0     # branch (-inf,-2]: -1 + 2(t+2) + 2t/5 = w
    if t <= -2.0:
        stationary.append(t)
    for t in stationary:
        if math.isnan(scad_g_tilde(t) - w * t):
            return t
    return min([-2.0, 0.0, 2.0] + stationary,
               key=lambda s: scad_g_tilde(s) - w * s)


def classify_point(point):
    """Label of the first attractor within the classification radius of one
    point, else 'other', tested attractor by attractor."""
    u, v = (float(t) for t in point)
    for (au, av), label in zip(ATTRACTORS, ATTRACTOR_LABELS):
        if np.hypot(u - au, v - av) <= CLASSIFY_RADIUS:
            return label
    return OTHER_LABEL


# ---------------------------------------------------------------------------
# criticality gaps: zero exactly at critical points
# ---------------------------------------------------------------------------

def quadl1_criticality_gap(x):
    """Distance from grad_h(x) to the subdifferential of g at x.

    Zero exactly at critical points; a test certificate, not solve's stop.
    """
    u, v = float(x[0]), float(x[1])
    if u != 0.0:
        gap_u = abs(u - (-2.5 + 2.0 * u + math.copysign(1.0, u)))
    else:
        gap_u = _dist_to_interval(u, -3.5, -1.5)
    if v != 0.0:
        gap_v = abs(v - (2.0 * v + math.copysign(1.0, v)))
    else:
        gap_v = _dist_to_interval(v, -1.0, 1.0)
    return max(gap_u, gap_v)


def _dist_to_interval(w, lo, hi):
    if w < lo:
        return lo - w
    if w > hi:
        return w - hi
    return 0.0


def _scad_g_tilde_prime(t):
    # single-valued away from 0; g~ is smooth at |t| = 2
    d = math.copysign(1.0, t) + 0.4 * t
    if abs(t) >= 2.0:
        d += 2.0 * (abs(t) - 2.0) * math.copysign(1.0, t)
    return d


def scad_criticality_gap(x):
    """Distance from grad_h(x) to the subdifferential of g at x."""
    gap = 0.0
    for t in (float(x[0]), float(x[1])):
        w = scad_h_tilde_prime(t)
        if t != 0.0:
            gap = max(gap, abs(w - _scad_g_tilde_prime(t)))
        else:
            gap = max(gap, _dist_to_interval(w, -1.0, 1.0))
    return gap


# ---------------------------------------------------------------------------
# the g - h splits of the two model families
# ---------------------------------------------------------------------------

def quadl1_eval_g(x):
    """g = -(5/2)u + u^2 + v^2 + |u| + |v| of QuadL1Problem."""
    u, v = float(x[0]), float(x[1])
    return -2.5 * u + u * u + v * v + abs(u) + abs(v)


def quadl1_eval_h(x):
    """h = (u^2 + v^2)/2 of QuadL1Problem."""
    u, v = float(x[0]), float(x[1])
    return 0.5 * (u * u + v * v)


def cauchy_eval_g(model, u):
    """g(u) = tv(u) + (c/2)||u||^2 of a CauchyModel."""
    u = np.asarray(u, dtype=float)
    return tv(u) + 0.5 * model.c * float(np.vdot(u, u))


def cauchy_eval_h(model, u):
    """h(u) = -(mu/2) sum log(gamma^2 + (u-f)^2) + (c/2)||u||^2."""
    u = np.asarray(u, dtype=float)
    r = u - model.f
    return (-0.5 * model.mu * float(np.log(model.gamma ** 2 + r * r).sum())
            + 0.5 * model.c * float(np.vdot(u, u)))


def smooth_part_second_derivative(t, mu, gamma, c):
    """Scalar d^2/dt^2 of -(mu/2) log(gamma^2 + t^2) + (c/2) t^2.

    Nonnegative everywhere iff c >= mu/gamma^2 (the minimum sits at t = 0).
    """
    t = np.asarray(t, dtype=float)
    g2 = gamma * gamma
    return mu * (t * t - g2) / (g2 + t * t) ** 2 + c


def solve_keeping_iterates(model, x0, cfg):
    """``solve`` plus the iterate x^k of each record, as ``(result, xs)``.

    A record's ``x`` is valid only while ``on_record`` runs, so the
    iterates are kept there; the arrays are the solver's own, not copies.
    """
    xs = []
    result = solve(model, x0, cfg, on_record=lambda rec: xs.append(rec.x))
    return result, xs


def subproblem_point(model, x):
    """The minimizer y of the model's linearized subproblem at x, without
    the diagnostics ``solve_subproblem_with_info`` returns beside it."""
    return model.solve_subproblem_with_info(x)[0]


def line_search_walk(model, variant, x, y, d, k, cfg):
    """One lane's line search, one rung at a time, in plain Python.

    The rungs are lam = lambda_bar, lam*beta, ... for at most
    max_backtracks of them.  IBDCA walks from x while lam > 1, accepting
    phi(x + lam*d) <= phi(x) - alpha*lam*||d||^2 when also <= phi(y), and
    clamps to 1 (the point y).  BDCA and nmBDCA walk from y while lam is not
    below the Armijo floor eps*max(1, |phi(y)|)/(alpha*||d||^2), accepting
    phi(y + lam*d) <= phi(y) - alpha*lam*||d||^2 + v, with v = 0 for BDCA
    and ||d||^2/(k+1) for nmBDCA, and fall back to 0 (the point y).
    Returns ``(lam, backtracks, point, value)``.
    """
    variant = Variant(variant)
    phi_y = model.phi(y)
    dsq = float(np.vdot(d, d))
    if variant is Variant.IBDCA:
        base, fallback, phi_x = x, 1.0, model.phi(x)

        def tried(lam):
            return lam > 1.0

        def accepted(lam, value):
            return value <= phi_x - cfg.alpha * lam * dsq and value <= phi_y
    else:
        base, fallback = y, 0.0
        floor = (np.finfo(float).eps * max(1.0, abs(phi_y))
                 / (cfg.alpha * dsq))
        allowance = dsq / (k + 1) if variant is Variant.NMBDCA else 0.0

        def tried(lam):
            return lam >= floor

        def accepted(lam, value):
            return value <= phi_y - cfg.alpha * lam * dsq + allowance

    lam, backtracks = cfg.lambda_bar, 0
    while backtracks < cfg.max_backtracks and tried(lam):
        point = base + lam * d
        value = model.phi(point)
        if accepted(lam, value):
            return lam, backtracks, point, value
        lam *= cfg.beta
        backtracks += 1
    return fallback, backtracks, y, phi_y
