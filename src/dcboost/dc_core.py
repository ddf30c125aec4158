"""Solvers for programs of the form min phi = g - h with g, h convex.

Each outer iteration linearizes the smooth part h at the current point and
solves the strongly convex subproblem min g(.) - <grad_h(x), .>, giving a
point y and a direction d = y - x.  The next iterate is then chosen by the
configured variant:

* ``DCA``    take y itself.
* ``BDCA``   Armijo backtracking from y along d.  When g is nonsmooth, d can
  be an ascent direction at y and the search fails; the step then degrades
  to the plain DCA step.
* ``NMBDCA`` like BDCA but the acceptance test is relaxed by an allowance
  ||d||^2 / (k+1), so some positive step is essentially always available at
  the price of controlled objective increases.
* ``IBDCA``  backtracking from x along d under a two-part test: sufficient
  decrease from phi(x) and dominance over phi(y).  If no trial step above 1
  passes, the step is clamped to exactly 1 (a pure DCA step), which keeps
  the objective monotone even where BDCA fails.

Models supply evaluators through the :class:`DcModel` interface; points are
numpy arrays of any shape (the imaging model uses 2-D rasters directly).
:func:`solve_lanes` advances a stack of starts in lockstep, one lane each,
with every rule written once over the lanes; :func:`solve` is one lane.
"""

from __future__ import annotations

import math
import numbers
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DcModel",
    "IterateRecord",
    "LaneResult",
    "SolveResult",
    "SolverConfig",
    "Status",
    "SubproblemError",
    "Variant",
    "bdca_line_search",
    "first_trial_step",
    "ibdca_line_search",
    "nmbdca_line_search",
    "solve",
    "solve_lanes",
]


class Variant(str, Enum):
    """Which rule picks the next iterate from (x, y, d)."""

    DCA = "dca"
    BDCA = "bdca"
    NMBDCA = "nmbdca"
    IBDCA = "ibdca"

    # print as the value: numpy compares an object array with a member
    # through str(member), so ``lanes.status == Status.X`` needs it
    __str__ = str.__str__


class Status(str, Enum):
    CRITICAL_POINT = "critical_point"
    REL_ENERGY_CONVERGED = "rel_energy_converged"
    MAX_ITERATIONS = "max_iterations"
    __str__ = str.__str__  # as in Variant


class SubproblemError(RuntimeError):
    """The convex subproblem solver produced unusable output.

    Carries the inner residual (the offending value when the outer loop
    finds a non-finite direction or objective).  Callers keep the records
    before a failure through ``on_record``.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class DcModel(ABC):
    """A difference-of-convex program phi = g - h with h smooth.

    The outer loop advances a stack of points, one lane per point, shape
    ``(B, *point_shape)``, and needs of a model only :meth:`phi_lanes`,
    :meth:`subproblem_lanes`, ``shape`` (of one point: ``(2,)`` for a
    2-vector, the raster's shape for an image) and ``rho``, a modulus of
    strong convexity of both g and h: the line searches rely on the
    decrease bound ``phi(y) <= phi(x) - rho * ||y - x||^2``.  How g, h and
    grad_h are evaluated stays inside the model.  :meth:`phi` and
    :meth:`solve_subproblem_with_info` are one-lane calls of the two.

    Evaluators must be pure: many solves may run concurrently against one
    shared model instance.
    """

    shape: tuple
    rho: float

    @abstractmethod
    def phi_lanes(self, X):
        """phi = g - h, extended real, of every lane of X, shape ``(B,)``."""

    @abstractmethod
    def subproblem_lanes(self, X):
        """``(Y, infos)``: the minimizer of g(.) - <grad_h(x), .> of every
        lane x of X as a new array shaped like X, and one dict of solver
        diagnostics per lane for the records' ``aux``, empty if none."""

    def phi(self, x):
        return float(self.phi_lanes(np.asarray(x, dtype=float)[None])[0])

    def solve_subproblem_with_info(self, x):
        Y, infos = self.subproblem_lanes(np.asarray(x, dtype=float)[None])
        return Y[0], infos[0]


@dataclass(frozen=True)
class SolverConfig:
    """Outer-loop parameters, frozen once checked: change one with
    ``dataclasses.replace``, which checks the new config again.

    ``alpha`` is the sufficient-decrease coefficient (theory wants
    alpha < model.rho), ``beta`` the backtracking shrink factor, and
    ``lambda_bar`` the first trial step of every line search.  The loop stops
    when ``||d|| <= tol_direction`` (critical point), when the relative
    objective change drops to ``tol_rel_energy`` (disabled when <= 0), or
    after ``max_outer_iter`` iterations.  Every float setting must be
    finite and every count an integer.
    """

    variant: Variant = Variant.IBDCA
    alpha: float = 0.2
    beta: float = 0.7
    lambda_bar: float = 3.0
    max_outer_iter: int = 500
    tol_rel_energy: float = 0.0
    tol_direction: float = 1e-10
    max_backtracks: int = 60

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        for name in ("alpha", "lambda_bar", "tol_direction", "tol_rel_energy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("max_outer_iter", "max_backtracks"):
            count = getattr(self, name)
            if not (isinstance(count, numbers.Integral) and count >= 1):
                raise ValueError(f"{name} must be an integer, at least 1")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie strictly between 0 and 1")
        if not self.lambda_bar > 1.0:
            raise ValueError("lambda_bar must exceed 1")
        if self.tol_direction < 0.0:
            raise ValueError("tol_direction must be nonnegative")


def first_trial_step(variant, reach):
    """The ``lambda_bar`` whose farthest probe is x + reach*d: BDCA and
    nmBDCA search from y = x + d, so their first trial step is one less."""
    from_y = Variant(variant) in (Variant.BDCA, Variant.NMBDCA)
    return reach - 1.0 if from_y else reach


@dataclass
class IterateRecord:
    """One outer iteration: the state x^k plus the step taken from it.

    ``lam`` and ``backtracks`` describe the accepted line-search step; the
    terminal record of a critical-point stop has ``lam == 0`` (no step was
    taken).  ``wall_time`` is seconds since the solve started.  ``aux``
    carries model diagnostics such as inner-solver iteration counts.

    ``x`` is the iterate only while ``on_record`` runs and None once it
    returns, so kept records pin no points; callers who need iterates keep
    them in ``on_record``.
    """

    k: int
    x: np.ndarray | None
    phi: float
    d_norm: float
    lam: float
    backtracks: int
    wall_time: float
    aux: dict


@dataclass
class SolveResult:
    final_point: np.ndarray
    final_phi: float
    status: Status
    trace: list
    monotone_violations: int
    linesearch_failures: int


@dataclass
class LaneResult:
    """Outcome of :func:`solve_lanes`, every array indexed by lane.

    ``outer_iterations`` counts subproblem solves, so a critical-point stop
    counts its final check; it equals the length of a single solve's trace.
    """

    final_points: np.ndarray
    final_phi: np.ndarray
    status: np.ndarray
    outer_iterations: np.ndarray
    backtracks: np.ndarray
    monotone_violations: np.ndarray
    linesearch_failures: np.ndarray


def _sqnorms(D):
    # squared norm of each lane; the stacked matmul reaches the same BLAS dot
    # as np.vdot, so a lane's value is bitwise its single-point value
    F = D.reshape(len(D), 1, -1)
    return np.matmul(F, F.transpose(0, 2, 1)).reshape(-1)


def _rows(A, lanes):
    """Rows ``lanes`` of A; A itself when every row is wanted."""
    # take moves each row as one block; indexing a 2-D stack copies its
    # short rows several times slower
    return A if len(lanes) == len(A) else A.take(lanes, axis=0)


# Trial entries (rungs x lanes x point size) per phi_lanes call: small
# problems walk a whole ladder in one call, large ones one rung at a time, so
# no phi is spent below an accepted rung.  A rung-by-rung walk is bitwise
# equal but ran basin 23% slower (0.439 -> 0.539 s median, 10 process pairs).
_TRIAL_BUDGET = 4096


def _backtrack(model, base, D, cfg, floor, bound, fallback):
    """Backtracking line search on every lane at once.

    Lane i walks the rungs lam = lambda_bar * beta^j, formed by repeated
    multiplication, for j < max_backtracks while lam is not below
    ``floor[i]``, and accepts the first whose trial value phi(base + lam*d)
    is at most ``bound(lanes, lam)``; a lane that accepts none takes its row
    of ``fallback = (lam, points, values)``, with one backtrack per rung it
    was allowed.  The rungs are tried in batches of at most
    ``_TRIAL_BUDGET`` trial entries (or one rung), each formed as the walk
    reaches it, so memory does not grow with max_backtracks; since a lane
    still takes its first accepted rung, the outcome is that of a
    rung-by-rung walk.  Returns ``(lam, backtracks, points, values)``.
    """
    n = len(base)
    lam_out = np.full(n, fallback[0])
    bt_out = np.zeros(n, dtype=int)
    # one lane's Y is the model's own array (subproblem_lanes): never write it
    points, values = fallback[1].copy(), fallback[2].copy()
    lanes = np.flatnonzero(floor <= cfg.lambda_bar)
    point_shape = base.shape[1:]
    j, next_lam = 0, cfg.lambda_bar
    while lanes.size and j < cfg.max_backtracks:
        rungs = max(1, _TRIAL_BUDGET // (lanes.size * base[0].size))
        ladder = np.full(min(rungs, cfg.max_backtracks - j), cfg.beta)
        ladder[0] = next_lam
        np.multiply.accumulate(ladder, out=ladder)
        # each lane may try its rungs not below its floor, a prefix of the
        # batch; the batch ends at the deepest rung any lane may try
        lane_floor = _rows(floor, lanes)
        allowed = ladder[:, None] >= lane_floor
        count = allowed.sum(axis=0)
        deepest = count.max()
        lam, allowed = ladder[:deepest, None], allowed[:deepest]
        trial = (_rows(base, lanes)
                 + lam.reshape(lam.shape + (1,) * len(point_shape))
                 * _rows(D, lanes))
        got = model.phi_lanes(trial.reshape((-1,) + point_shape))
        got = got.reshape(len(lam), -1)
        ok = (got <= bound(lanes, lam)) & allowed
        hit = ok.any(axis=0)
        bt_out[lanes] = j + count
        if hit.any():
            col = np.flatnonzero(hit)
            rung = ok[:, col].argmax(axis=0)
            done = lanes[col]
            lam_out[done] = lam[rung, 0]
            bt_out[done] = j + rung
            points[done] = trial[rung, col]
            values[done] = got[rung, col]
        j += len(lam)
        next_lam = lam[-1, 0] * cfg.beta
        # the lanes that go on accepted no rung and may try the next
        lanes = lanes[~hit & (lane_floor <= next_lam)]
    return lam_out, bt_out, points, values


def _armijo_floor(phi_y, alpha, dsq):
    # below this lam the decrease term is absorbed by rounding of phi(y),
    # so the test can no longer certify descent
    with np.errstate(divide="ignore"):
        return (np.finfo(float).eps * np.maximum(1.0, np.abs(phi_y))
                / (alpha * dsq))


def _step(model, variant, k, X, Y, D, dsq, phi_x, cfg):
    """The rule of ``variant`` on every lane: ``(lam, bt, X_next, phi_next)``.

    The one home of each variant's floor, acceptance bound and fallback; a
    lane whose search returns its fallback takes the DCA step to y.
    """
    phi_y = model.phi_lanes(Y)
    if variant is Variant.DCA:
        return np.ones(len(Y)), np.zeros(len(Y), dtype=int), Y, phi_y
    if variant is Variant.IBDCA:
        base, fallback = X, 1.0
        floor = np.full(len(X), np.nextafter(1.0, 2.0))

        def bound(i, lam):
            return np.minimum(
                _rows(phi_x, i) - cfg.alpha * lam * _rows(dsq, i),
                _rows(phi_y, i))
    else:
        base, fallback = Y, 0.0
        floor = _armijo_floor(phi_y, cfg.alpha, dsq)
        allowance = (dsq / (k + 1) if variant is Variant.NMBDCA
                     else np.zeros(len(dsq)))

        def bound(i, lam):
            return (_rows(phi_y, i) - cfg.alpha * lam * _rows(dsq, i)
                    + _rows(allowance, i))
    return _backtrack(model, base, D, cfg, floor, bound, (fallback, Y, phi_y))


def _one_lane_search(model, variant, x, y, d, cfg, k=0):
    """``(lam, backtracks)`` of :func:`_step` under ``variant`` on one lane."""
    X, Y, D = (None if a is None else np.asarray(a, dtype=float)[None]
               for a in (x, y, d))
    phi_x = None if X is None else model.phi_lanes(X)
    lam, bt, _, _ = _step(model, variant, k, X, Y, D, _sqnorms(D), phi_x, cfg)
    return float(lam[0]), int(bt[0])


def ibdca_line_search(model, x, y, d, cfg):
    """Backtrack from x along d = y - x; returns ``(lam, backtracks)``.

    Trial steps walk the ladder lambda_bar * beta^j.  A rung is accepted
    when both phi(x + lam*d) <= phi(x) - alpha*lam*||d||^2 and
    phi(x + lam*d) <= phi(y) hold.  Rungs <= 1 are never evaluated: the
    search clamps to exactly 1, the pure DCA step, which satisfies both
    conditions whenever alpha <= model.rho.  The returned lam therefore
    always lies in [1, lambda_bar].
    """
    return _one_lane_search(model, Variant.IBDCA, x, y, d, cfg)


def bdca_line_search(model, y, d, cfg):
    """Armijo backtracking from y along d; returns ``(lam, backtracks)``.

    Accepts the first ladder rung with
    phi(y + lam*d) <= phi(y) - alpha*lam*||d||^2.  Returns lam = 0 when the
    ladder is exhausted, which happens precisely when d is not a descent
    direction at y (the nonsmooth-g failure mode); callers should fall back
    to the plain DCA step in that case.  Rungs small enough that the
    decrease term vanishes in floating point are not tested: they could only
    be accepted through rounding, never through actual descent.
    """
    return _one_lane_search(model, Variant.BDCA, None, y, d, cfg)


def nmbdca_line_search(model, y, d, k, cfg):
    """Nonmonotone variant of :func:`bdca_line_search`.

    The acceptance threshold is relaxed by the allowance
    v_k = ||d||^2 / (k+1), so the objective may grow by at most v_k per
    step.  Because the right side exceeds phi(y) by v_k > 0 while the left
    side tends to phi(y) as lam -> 0, the search terminates with a positive
    step for any sufficiently deep ladder; lam = 0 signals that
    max_backtracks could not reach that regime.
    """
    return _one_lane_search(model, Variant.NMBDCA, None, y, d, cfg, k)


def solve_lanes(model, X0, cfg, on_record=None):
    """Run the configured variant from every start in X0 in lockstep.

    X0 stacks the starts along a leading lane axis, shape
    ``(B, *point_shape)``.  All lanes go through one outer iteration at a
    time; each keeps its own stopping rules and leaves the stack when one
    fires.  Every lane computes bitwise what :func:`solve` computes from its
    start alone.

    ``on_record(lane, record)``, when given, receives each lane's
    :class:`IterateRecord` as it is produced; its ``x`` is valid only
    during that call and None afterwards.  Raises
    :class:`SubproblemError` when the subproblem solver breaks down on any
    lane, or when a lane's step accepts a non-finite objective value.
    """
    x = np.array(X0, dtype=float)
    if x.ndim == 0 or x.shape[1:] != model.shape:
        raise ValueError(f"X0 of shape {x.shape} is not a stack of points "
                         f"of shape {model.shape}")
    n = len(x)
    if n == 0:
        raise ValueError("X0 is an empty stack of starts")
    phi_x = model.phi_lanes(x)
    if not np.all(np.isfinite(phi_x)):
        raise ValueError("phi(x0) is not finite; x0 lies outside dom g")

    res = LaneResult(None, np.empty(n),
                     np.full(n, Status.MAX_ITERATIONS, dtype=object),
                     *(np.zeros(n, dtype=int) for _ in range(4)))
    lanes = np.arange(n)
    t0 = time.perf_counter()

    def emit(k, rows, lam, bt):
        wall = time.perf_counter() - t0
        for j, lam_j, bt_j in zip(rows, lam, bt):
            record = IterateRecord(
                k, x[j], float(phi_x[j]), float(d_norm[j]), float(lam_j),
                int(bt_j), wall, dict(infos[j]))
            on_record(int(lanes[j]), record)
            record.x = None  # a kept record must not pin its iterate

    def retire(stop, status):
        # lanes flagged in ``stop`` end at their current point
        if res.final_points is None:  # not held through the subproblems
            res.final_points = np.empty((n,) + x.shape[1:])
        idx = lanes[stop]
        res.final_points[idx] = x[stop]
        res.final_phi[idx] = phi_x[stop]
        res.status[idx] = status
        return ~stop

    for k in range(cfg.max_outer_iter):
        y, infos = model.subproblem_lanes(x)
        d = y - x
        dsq = _sqnorms(d)
        d_norm = np.sqrt(dsq)
        bad = ~np.isfinite(d_norm)
        if bad.any():
            raise SubproblemError("subproblem produced a non-finite direction",
                                  residual=float(d_norm[bad][0]))
        res.outer_iterations[lanes] += 1

        critical = d_norm <= cfg.tol_direction
        if critical.any():
            if on_record is not None:
                rows = np.flatnonzero(critical)
                emit(k, rows, np.zeros(len(rows)), np.zeros(len(rows), int))
            keep = retire(critical, Status.CRITICAL_POINT)
            if not keep.any():
                return res
            x, y, d = x[keep], y[keep], d[keep]
            dsq, d_norm, phi_x, lanes = (dsq[keep], d_norm[keep],
                                         phi_x[keep], lanes[keep])
            if on_record is not None:
                infos = [info for info, kept in zip(infos, keep) if kept]

        lam, bt, x_next, phi_next = _step(model, cfg.variant, k, x, y, d, dsq,
                                          phi_x, cfg)
        # dead from here, so the next subproblem's buffers do not sit on them
        del y, d
        bad = ~np.isfinite(phi_next)
        if bad.any():
            raise SubproblemError("the step accepted a non-finite objective "
                                  "value", residual=float(phi_next[bad][0]))
        if on_record is not None:
            emit(k, range(len(lanes)), lam, bt)
        res.backtracks[lanes] += bt
        if cfg.variant in (Variant.DCA, Variant.IBDCA):
            res.monotone_violations[lanes] += (
                phi_next > phi_x + 1e-8 * np.maximum(1.0, np.abs(phi_x)))
        else:
            res.linesearch_failures[lanes] += lam == 0.0

        rel_change = (np.abs(phi_x - phi_next)
                      / np.maximum(np.abs(phi_x), 1e-300))
        x, phi_x = x_next, phi_next
        if cfg.tol_rel_energy > 0.0:
            converged = rel_change <= cfg.tol_rel_energy
            if converged.any():
                keep = retire(converged, Status.REL_ENERGY_CONVERGED)
                if not keep.any():
                    return res
                x, phi_x, lanes = x[keep], phi_x[keep], lanes[keep]

    retire(np.ones(len(lanes), dtype=bool), Status.MAX_ITERATIONS)
    return res


def solve(model, x0, cfg, on_record=None):
    """Run the configured variant from x0 until a stopping rule fires.

    This is :func:`solve_lanes` with one lane.  Per iteration the subproblem
    is solved once; the trace gets one record per iteration describing the
    iterate at its start and the accepted step.  For DCA and IBDCA the phi
    column of the trace is nonincreasing; violations beyond 1e-8 relative
    (possible only through inexact subproblems) are counted in
    ``monotone_violations``.  A critical-point stop appends a final record
    with lam = 0 and returns x with ``||y - x|| <= tol_direction``; the
    criticality certificate holds at y, the subproblem solution at x, not x.

    ``on_record`` is called with each record as it is produced, which lets
    callers stream trace rows to disk so partial results survive an
    interrupted run.  A record's ``x`` is the iterate only during that call:
    the returned trace holds no iterates, so memory stays flat in outer
    iterations, and callers who need them keep them in ``on_record``.

    Raises :class:`SubproblemError` when the subproblem solver breaks down;
    the records before the failure have then been passed to ``on_record``.
    """
    trace = []

    def collect(lane, record):
        trace.append(record)
        if on_record is not None:
            on_record(record)

    res = solve_lanes(model, np.asarray(x0, dtype=float)[None], cfg,
                      on_record=collect)
    return SolveResult(res.final_points[0], float(res.final_phi[0]),
                       res.status[0], trace,
                       int(res.monotone_violations[0]),
                       int(res.linesearch_failures[0]))
