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


def grad(u, out=None):
    """Forward differences as one ``(2, *u.shape)`` array: px = out[0] is
    zero past the last column, py = out[1] past the last row, and
    ``px, py = grad(u)`` unpacks them.

    With ``out`` (a float array of that shape) the differences are written
    into it, boundary zeros included, and it is returned; nothing is
    allocated.
    """
    u = np.asarray(u, dtype=float)
    if out is None:
        out = np.empty((2,) + u.shape)
    px, py = out
    np.subtract(u[:, 1:], u[:, :-1], out=px[:, :-1])
    px[:, -1] = 0.0
    np.subtract(u[1:, :], u[:-1, :], out=py[:-1, :])
    py[-1, :] = 0.0
    return out


def div(p, out=None):
    """Negative adjoint of :func:`grad`: <grad u, p> = -<u, div p> exactly.

    Backward differences with boundary truncation; values on the last column
    of px and last row of py never contribute (grad never produces them).
    ``p`` is a pair (px, py), or one array of shape ``(2, m, n)``.  With
    ``out`` (a float array of shape ``(m, n)``) the result is written into
    it, every entry overwritten, and returned; nothing is allocated.
    """
    px, py = p
    px = np.asarray(px, dtype=float)
    if out is None:
        out = np.empty(px.shape)
    if px.shape[1] == 1:
        out.fill(0.0)
    else:
        # Interior columns are px[:, j] - px[:, j-1], bitwise equal to the
        # zero-filled sum (0 + px[:, j]) - px[:, j-1] unless px[:, j] is
        # -0.0.  tv_prox feeds none: its p starts at +0.0, x + y is -0.0
        # only when both are, and dividing by mag >= 1 makes -0.0 only out
        # of a negative subnormal.
        np.add(0.0, px[:, 0], out=out[:, 0])
        np.subtract(px[:, 1:-1], px[:, :-2], out=out[:, 1:-1])
        np.subtract(0.0, px[:, -2], out=out[:, -1])
    out[:-1, :] += py[:-1, :]
    out[1:, :] -= py[:-1, :]
    return out


def tv(u):
    """Isotropic discrete total variation: sum of sqrt(px^2 + py^2)."""
    px, py = grad(u)
    return float(np.sqrt(px * px + py * py).sum())


def energy(u, model):
    """Restoration energy tv(u) + (mu/2) * sum(log(gamma^2 + (u-f)^2))."""
    u = np.asarray(u, dtype=float)
    if u.shape != model.f.shape:
        raise ValueError(f"image shape {u.shape} does not match observation "
                         f"shape {model.f.shape}")
    r = u - model.f
    fidelity = 0.5 * model.mu * float(np.log(model.gamma ** 2 + r * r).sum())
    return tv(u) + fidelity


def grad_h_cauchy(u, model):
    """Gradient of the smooth DC part h at u, elementwise.

    h(u) = -(mu/2) sum log(gamma^2 + (u-f)^2) + (c/2)||u||^2, so the
    fidelity contributes -mu*(u-f)/(gamma^2 + (u-f)^2).
    """
    u = np.asarray(u, dtype=float)
    r = u - model.f
    return model.c * u - model.mu * r / (model.gamma ** 2 + r * r)


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
        if not self.tol_inner > 0.0:
            raise ValueError("tol_inner must be positive")


class TvProxResult(NamedTuple):
    u: np.ndarray
    iters: int
    resid: float
    converged: bool


def tv_prox(v, c, cfg=None, u0=None):
    """Minimize tv(u) + (c/2)||u||^2 - <v, u>.

    Accelerated primal-dual iteration on the saddle-point form
    min_u max_{||p||<=1 pointwise} <grad u, p> + (c/2)||u||^2 - <v, u>:
    dual ascent with pointwise projection of (px, py) onto the unit 2-ball,
    primal step (u + tau*div p + tau*v) / (1 + tau*c), and step sizes and
    extrapolation updated from the strong-convexity modulus c.  Starts from
    u0 (default v/c) so outer iterations can warm start from their current
    iterate.

    The returned point is the primal recovered from the dual variable,
    u_hat = (v + div p)/c, which the saddle-point optimality condition makes
    exact at the dual optimum; the dual settles orders of magnitude sooner
    than the prox iterate, whose step sizes vanish.  The stop is on the
    relative change of u_hat; when max_inner_iter is reached first the best
    iterate comes back flagged ``converged=False``.

    The loop allocates no arrays: its buffers are made once per call, the dual
    is held as one ``(2, m, n)`` array so each dual step is one call, and
    every step writes with ``out=``.  The operation order is that of the
    plain allocating loop (kept in the tests as the reference), so the
    result is bitwise equal to it.
    """
    if not 0.0 < 2.0 * c < math.inf:  # the step update forms 2*c*tau
        raise ValueError("c must be positive, with 2c finite")
    cfg = PdConfig() if cfg is None else cfg
    v = np.asarray(v, dtype=float)
    u = v / c if u0 is None else np.array(u0, dtype=float, copy=True)
    # Eight raster-sized buffers, made once; each step below writes with
    # out= in the operation order of the plain expression in its comment.
    ubar = u.copy()
    u_hat = u.copy()
    u_hat_prev = np.empty_like(u)
    p = np.zeros((2,) + u.shape)  # the dual (px, py)
    g = np.empty_like(p)  # grad(ubar), then p*p
    s = g[0]  # scratch once p*p is summed
    tau = sigma = PD_STEP0

    resid = math.inf
    converged = False
    iters = 0
    for iters in range(1, cfg.max_inner_iter + 1):
        # p = (p + sigma*grad(ubar)) / max(1, sqrt(px*px + py*py))
        grad(ubar, out=g)
        np.multiply(g, sigma, out=g)
        np.add(p, g, out=p)
        np.multiply(p, p, out=g)
        mag = np.add(g[0], g[1], out=s)
        np.sqrt(mag, out=mag)
        np.maximum(mag, 1.0, out=mag)
        np.divide(p, mag, out=p)

        u_hat, u_hat_prev = u_hat_prev, u_hat
        divp = div(p, out=u_hat)
        # u_next = (u + tau*divp + tau*v) / (1 + tau*c), over ubar (read
        # for the last time by grad above)
        u_next = ubar
        np.multiply(divp, tau, out=u_next)
        np.add(u, u_next, out=u_next)
        np.multiply(v, tau, out=s)
        np.add(u_next, s, out=u_next)
        np.divide(u_next, 1.0 + tau * c, out=u_next)
        theta = 1.0 / math.sqrt(1.0 + 2.0 * c * tau)
        tau *= theta
        sigma /= theta
        # ubar = u_next + theta*(u_next - u), over u
        np.subtract(u_next, u, out=u)
        np.multiply(u, theta, out=u)
        np.add(u_next, u, out=u)
        u, ubar = u_next, u
        # u_hat = (v + divp) / c, over divp
        np.add(v, divp, out=u_hat)
        np.divide(u_hat, c, out=u_hat)

        np.subtract(u_hat, u_hat_prev, out=s)
        resid = float(np.linalg.norm(s)) / max(
            float(np.linalg.norm(u_hat_prev)), 1e-300)
        if resid <= cfg.tol_inner:
            converged = True
            break
    return TvProxResult(u_hat, iters, resid, converged)


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
        self.dim = f.size
        self.rho = self.c - self.mu / self.gamma ** 2

    def phi(self, u):
        # direct form of g - h; avoids the cancelling (c/2)||u||^2 terms
        return energy(u, self)

    def solve_subproblem(self, u):
        return self.solve_subproblem_with_info(u)[0]

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
