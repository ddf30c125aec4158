"""Discrete total-variation operators and the Cauchy-noise restoration model.

The restoration energy on a noisy raster f is
``E(u) = tv(u) + (mu/2) * sum(log(gamma^2 + (u - f)^2))`` with the heavy-
tailed log fidelity.  Adding and subtracting (c/2)||u||^2 splits E into a
difference of two strongly convex parts whenever c > mu/gamma^2, which is
what :class:`CauchyModel` hands to the outer solvers.  Each outer iteration
then needs the strongly convex TV proximal problem
``min_u tv(u) + (c/2)||u||^2 - <v, u>``, solved here by an accelerated
primal-dual loop (:func:`tv_prox`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dc_core import DcModel, SubproblemError

__all__ = [
    "CauchyModel",
    "PdConfig",
    "TvProxResult",
    "div",
    "energy",
    "grad",
    "grad_h_cauchy",
    "tv",
    "tv_prox",
]

# squared operator norm of the forward-difference gradient pair
GRAD_NORM_SQ_BOUND = 8.0
# first primal and dual step sizes of tv_prox: tau * sigma * 8 = 1
PD_STEP0 = 1.0 / math.sqrt(GRAD_NORM_SQ_BOUND)


class _Flat(NamedTuple):
    """Views of one C-ordered ``(m, n)`` raster as a flat row-major vector.

    Neighbours along a row are one entry apart and along a column ``n``
    apart, so every forward or backward difference is one contiguous pass
    (``right - left``, ``below - above``); a pass along rows also crosses
    from each row's last column into the next row's first, and the
    difference steps rewrite those boundary entries through the strided
    column views.  ``col_penult`` is the column before the last, zeros
    when the raster has one column (the padding beyond it).
    """

    flat: np.ndarray
    right: np.ndarray
    left: np.ndarray
    below: np.ndarray
    above: np.ndarray
    col_first: np.ndarray
    col_last: np.ndarray
    col_penult: np.ndarray
    row_last: np.ndarray


def _flat(x):
    """The :class:`_Flat` views of ``x``, which must be C-contiguous: its
    reshape is then a view, so writes through the views land in ``x``."""
    m, n = x.shape
    flat = x.reshape(-1)
    penult = flat[n - 2::n] if n > 1 else np.zeros(m)
    return _Flat(flat, flat[1:], flat[:-1], flat[n:], flat[:-n], flat[::n],
                 flat[n - 1::n], penult, flat[-n:])


def _raster(a, name):
    """``a`` as a C-ordered 2-D float raster, the input the flat views need."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D raster, shape (m, n); got "
                         f"shape {a.shape}")
    return np.ascontiguousarray(a)


def _grad_into(u, gx, gy):
    """Forward differences of the :class:`_Flat` views ``u`` into ``gx``
    (zero past the last column) and ``gy`` (zero past the last row)."""
    np.subtract(u.right, u.left, out=gx.left)
    gx.col_last.fill(0.0)  # row-crossing differences land here
    np.subtract(u.below, u.above, out=gy.above)
    gy.row_last.fill(0.0)


def _div_into(px, py, o):
    """Divergence of the :class:`_Flat` views ``px``, ``py`` into ``o``,
    every entry overwritten."""
    # Interior columns are px[:, j] - px[:, j-1], bitwise equal to the
    # zero-filled sum (0 + px[:, j]) - px[:, j-1] unless px[:, j] is -0.0.
    # tv_prox feeds none: its p starts at +0.0, x + y is -0.0 only when
    # both are, and dividing by mag >= 1 makes -0.0 only out of a negative
    # subnormal.  The first and last columns, which the contiguous pass
    # gets wrong, are rewritten after it.
    np.subtract(px.right, px.left, out=o.right)
    np.add(0.0, px.col_first, out=o.col_first)
    np.subtract(0.0, px.col_penult, out=o.col_last)
    np.add(o.above, py.above, out=o.above)
    np.subtract(o.below, py.above, out=o.below)


def grad(u):
    """Forward differences as one ``(2, *u.shape)`` array: px = g[0] is
    zero past the last column, py = g[1] past the last row, and
    ``px, py = grad(u)`` unpacks them."""
    u = _raster(u, "u")
    g = np.empty((2,) + u.shape)
    # the pass differences across row ends before overwriting those entries,
    # so same-signed infinities there would warn though no result is NaN
    with np.errstate(invalid="ignore"):
        _grad_into(_flat(u), _flat(g[0]), _flat(g[1]))
    return g


def div(p):
    """Negative adjoint of :func:`grad`: <grad u, p> = -<u, div p> exactly.

    Backward differences with boundary truncation; values on the last column
    of px and last row of py never contribute (grad never produces them).
    ``p`` is a pair (px, py), or one array of shape ``(2, m, n)``.
    """
    px, py = (_raster(q, "each of px, py in p") for q in p)
    if px.shape != py.shape:  # the flat views would see only the lengths
        raise ValueError(f"px shape {px.shape} and py shape {py.shape} in p "
                         "differ")
    d = np.empty(px.shape)
    with np.errstate(invalid="ignore"):  # row-crossing entries, as in grad
        _div_into(_flat(px), _flat(py), _flat(d))
    return d


# The evaluators below run once or more per outer iteration.  Each writes
# with out= into the one or two rasters it allocates, in the operation order
# of the plain allocating expression in its comments (kept in the tests as
# the reference), so its result is bitwise that expression's.


def tv(u):
    """Isotropic discrete total variation: sum of sqrt(px^2 + py^2)."""
    g = grad(u)
    s = g[0]  # sqrt(px*px + py*py), over px
    np.multiply(g, g, out=g)
    np.add(g[0], g[1], out=s)
    return float(np.sqrt(s, out=s).sum())


def energy(u, model):
    """Restoration energy tv(u) + (mu/2) * sum(log(gamma^2 + (u-f)^2))."""
    u = np.asarray(u, dtype=float)
    if u.shape != model.f.shape:
        raise ValueError(f"image shape {u.shape} does not match observation "
                         f"shape {model.f.shape}")
    r = u - model.f
    # log(gamma^2 + r*r), over r
    np.multiply(r, r, out=r)
    np.add(r, model.gamma ** 2, out=r)
    fidelity = 0.5 * model.mu * float(np.log(r, out=r).sum())
    del r  # freed before tv allocates its gradient
    return tv(u) + fidelity


def grad_h_cauchy(u, model):
    """Gradient of the smooth DC part h at u, elementwise.

    h(u) = -(mu/2) sum log(gamma^2 + (u-f)^2) + (c/2)||u||^2, so the
    fidelity contributes -mu*(u-f)/(gamma^2 + (u-f)^2).
    """
    u = np.asarray(u, dtype=float)
    r = u - model.f
    # c*u - mu*r / (gamma^2 + r*r), in s and r
    s = np.multiply(r, r)
    np.add(s, model.gamma ** 2, out=s)
    np.multiply(r, model.mu, out=r)
    np.divide(r, s, out=r)
    np.multiply(u, model.c, out=s)
    return np.subtract(s, r, out=s)


@dataclass
class PdConfig:
    """Inner primal-dual solver settings; the stop is on relative primal
    change."""

    max_inner_iter: int = 300
    tol_inner: float = 1e-5

    def __post_init__(self):
        if not (isinstance(self.max_inner_iter, numbers.Integral)
                and self.max_inner_iter >= 1):
            raise ValueError("max_inner_iter must be an integer, at least 1")
        if not 0.0 < self.tol_inner < math.inf:
            raise ValueError("tol_inner must be positive and finite")


class TvProxResult(NamedTuple):
    u: np.ndarray
    iters: int
    resid: float
    converged: bool


def tv_prox(v, c, cfg, u0):
    """Minimize tv(u) + (c/2)||u||^2 - <v, u>.

    Accelerated primal-dual iteration on the saddle-point form
    min_u max_{||p||<=1 pointwise} <grad u, p> + (c/2)||u||^2 - <v, u>:
    dual ascent with pointwise projection of (px, py) onto the unit 2-ball,
    primal step (u + tau*div p + tau*v) / (1 + tau*c), and step sizes and
    extrapolation updated from the strong-convexity modulus c.  Starts from
    u0, so outer iterations can warm start from their current iterate.

    The returned point is the primal recovered from the dual variable,
    u_hat = (v + div p)/c, which the saddle-point optimality condition makes
    exact at the dual optimum; the dual settles orders of magnitude sooner
    than the prox iterate, whose step sizes vanish.  The stop is on the
    relative change of u_hat; when max_inner_iter is reached first the best
    iterate comes back flagged ``converged=False``.

    The loop allocates no arrays.  Its eight raster buffers are made once
    per call, C-ordered whatever the layout of ``v`` and ``u0``, and each is
    reached through flat views built once (:class:`_Flat`); the differences
    are the in-place step helpers that :func:`grad` and :func:`div` call
    too, each one contiguous pass with its boundary entries rewritten
    through strided column and row views.  The dual is one ``(2, m, n)``
    array, so each dual step is one call, and the swapping buffer pairs
    swap their views with them.  Every step writes with
    ``out=`` in the operation order of the plain allocating loop (kept in
    the tests as the reference), and the norms are ``sqrt(f.dot(f))``, the
    sum ``np.linalg.norm`` forms, so the result is bitwise equal to it.
    """
    if not 0.0 < 2.0 * c < math.inf:  # the step update forms 2*c*tau
        raise ValueError("c must be positive, with 2c finite")
    v = _raster(v, "v")
    u = np.array(u0, dtype=float, copy=True, order="C")
    if u.shape != v.shape:  # the flat views would see only the sizes
        raise ValueError(f"u0 shape {u.shape} does not match v shape "
                         f"{v.shape}")
    # Eight raster-sized buffers, made once; each step below writes with
    # out= in the operation order of the plain expression in its comment.
    # The rasters come before the dual pair: allocated after it, the u_hat
    # kept by the caller left more heap behind, +0.3 MiB of peak RSS over a
    # 64x64 restoration run.
    ubar, u_hat, u_hat_prev = u.copy(), u.copy(), np.empty_like(u)
    p = np.zeros((2,) + u.shape)  # the dual (px, py)
    g = np.empty_like(p)  # grad(ubar), then p*p
    vf = v.reshape(-1)
    p2 = p.reshape(2, -1)  # divided by mag, one entry per pixel
    px, py, gx, gy = _flat(p[0]), _flat(p[1]), _flat(g[0]), _flat(g[1])
    s = gx.flat  # scratch once p*p is summed
    # view sets of the swapping pairs u/ubar and u_hat/u_hat_prev
    uc, ub = _flat(u), _flat(ubar)
    uh, uhp = _flat(u_hat), _flat(u_hat_prev)
    tau = sigma = PD_STEP0

    resid = math.inf
    converged = False
    iters = 0
    for iters in range(1, cfg.max_inner_iter + 1):
        _grad_into(ub, gx, gy)  # g = grad(ubar)
        # p = (p + sigma*g) / max(1, sqrt(px*px + py*py))
        np.multiply(g, sigma, out=g)
        np.add(p, g, out=p)
        np.multiply(p, p, out=g)
        np.add(gx.flat, gy.flat, out=s)
        np.sqrt(s, out=s)
        np.maximum(s, 1.0, out=s)
        np.divide(p2, s, out=p2)

        uh, uhp = uhp, uh
        _div_into(px, py, uh)  # u_hat = div(p)
        # u_next = (u + tau*divp + tau*v) / (1 + tau*c), over ubar (read
        # for the last time by grad above)
        u_next = ub.flat
        np.multiply(uh.flat, tau, out=u_next)
        np.add(uc.flat, u_next, out=u_next)
        np.multiply(vf, tau, out=s)
        np.add(u_next, s, out=u_next)
        np.divide(u_next, 1.0 + tau * c, out=u_next)
        theta = 1.0 / math.sqrt(1.0 + 2.0 * c * tau)
        tau *= theta
        sigma /= theta
        # ubar = u_next + theta*(u_next - u), over u
        np.subtract(u_next, uc.flat, out=uc.flat)
        np.multiply(uc.flat, theta, out=uc.flat)
        np.add(u_next, uc.flat, out=uc.flat)
        uc, ub = ub, uc
        # u_hat = (v + divp) / c, over divp
        np.add(vf, uh.flat, out=uh.flat)
        np.divide(uh.flat, c, out=uh.flat)

        np.subtract(uh.flat, uhp.flat, out=s)
        resid = math.sqrt(s.dot(s)) / max(
            math.sqrt(uhp.flat.dot(uhp.flat)), 1e-300)
        if resid <= cfg.tol_inner:
            converged = True
            break
    return TvProxResult(uh.flat.reshape(u.shape), iters, resid, converged)


class CauchyModel(DcModel):
    """DC split of the Cauchy-noise restoration energy for one observation.

    g(u) = tv(u) + (c/2)||u||^2 and
    h(u) = -(mu/2) sum log(gamma^2 + (u-f)^2) + (c/2)||u||^2, so
    phi = g - h is exactly :func:`energy`.  Requires c > mu/gamma^2 strictly
    (h is then (c - mu/gamma^2)-strongly convex); g has modulus c, hence the
    shared modulus is rho = c - mu/gamma^2.

    The subproblem is :func:`tv_prox` at v = grad_h(u), warm started from u.
    """

    def __init__(self, f, mu, gamma, c, inner=None):
        f = np.asarray(f, dtype=float)
        if f.ndim != 2 or min(f.shape) < 2:
            raise ValueError("observation must be a 2-D raster, at least 2x2")
        if not np.all(np.isfinite(f)):
            raise ValueError("observation contains non-finite entries")
        if not all(0.0 < v < math.inf for v in (mu, gamma, c)):
            raise ValueError("mu, gamma and c must be positive and finite")
        if not 0.0 < float(gamma) * float(gamma) < math.inf:
            # gamma ** 2 below would overflow or divide by zero
            raise ValueError(f"gamma {gamma:g} is out of range: its square "
                             "overflows or underflows")
        if c <= mu / gamma ** 2:
            raise ValueError(
                f"need c > mu/gamma^2 for a strongly convex split "
                f"(c={c:g}, mu/gamma^2={mu / gamma ** 2:g})")
        self.f = f
        self.mu = float(mu)
        self.gamma = float(gamma)
        self.c = float(c)
        self.inner = PdConfig() if inner is None else inner
        self.shape = f.shape
        self.rho = self.c - self.mu / self.gamma ** 2

    def phi(self, u):
        # direct form of g - h; avoids the cancelling (c/2)||u||^2 terms
        return energy(u, self)

    def solve_subproblem_with_info(self, u):
        result = tv_prox(grad_h_cauchy(u, self), self.c, self.inner, u0=u)
        if not np.all(np.isfinite(result.u)):
            raise SubproblemError("inner solver produced non-finite iterate",
                                  residual=result.resid)
        info = {
            "inner_iters": float(result.iters),
            "inner_resid": result.resid,
            "inner_converged": 1.0 if result.converged else 0.0,
        }
        return result.u, info

    # Lane loops over the per-raster methods, whose calls the benchmark's
    # tracer counts as phi evaluations and outer iterations
    def phi_lanes(self, X):
        return np.array([self.phi(u) for u in X], dtype=float)

    def subproblem_lanes(self, X):
        pairs = [self.solve_subproblem_with_info(u) for u in X]
        if len(pairs) == 1:
            # one lane keeps the solver's own array: an extra copy of a large
            # raster per iteration costs page faults, not just the copy
            return np.asarray(pairs[0][0], dtype=float)[None], [pairs[0][1]]
        return (np.array([y for y, _ in pairs], dtype=float),
                [info for _, info in pairs])
