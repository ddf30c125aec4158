"""Two closed-form 2-D test problems and the random-start attractor count.

Both problems admit exact subproblem solvers, so the outer iterations carry
no inner-solver error and solver behavior can be checked against hand
arithmetic.  The second problem (a SCAD-shaped separable penalty plus
quadratic growth) has four critical points on [0,3]^2, only one of which is
the global minimum; counting which one each random start converges to is the
standard way to compare how well the solver variants escape the poor ones.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass

import numpy as np

# ``solve`` is not called here: perfbench's tracer wraps this module's binding
from .dc_core import (DcModel, SolverConfig, Variant, first_trial_step,  # noqa: F401
                      solve, solve_lanes)

__all__ = [
    "ATTRACTOR_LABELS",
    "BasinReport",
    "LABELS",
    "QuadL1Problem",
    "ScadSeparableProblem",
    "basin_experiment",
    "classify_lanes",
    "default_basin_config",
]


# ---------------------------------------------------------------------------
# quadratic-plus-l1 problem
# ---------------------------------------------------------------------------

class QuadL1Problem(DcModel):
    """phi(u,v) = -(5/2)u + (u^2+v^2)/2 + |u| + |v|, split as g - h with
    g = -(5/2)u + u^2 + v^2 + |u| + |v| and h = (u^2+v^2)/2.

    g is 2-strongly convex, h is 1-strongly convex; the shared modulus is 1.
    The global minimizer is (3/2, 0) with value -9/8.  The DCA direction at
    (1, 0) ascends through the |v| kink, which makes this the canonical case
    where a line search started at y fails.  g, h and the criticality gap
    are evaluated only by the test oracles (``tests/oracles.py``).
    """

    shape = (2,)
    rho = 1.0

    def phi_lanes(self, X):
        U, V = X[:, 0], X[:, 1]
        # overflow near the float limit is caught by the finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            return -2.5 * U + 0.5 * (U * U + V * V) + np.abs(U) + np.abs(V)

    def subproblem_lanes(self, X):
        # grad_h(x) = x, so the subproblem separates into two scalar soft
        # thresholds s(t) = sign(t) * max(|t| - 1, 0) / 2, the argmin of
        # s^2 + |s| - t*s: first coordinate s(5/2 + u), second s(v).  Only
        # u is shifted: v + 0 would turn a -0.0 in v into +0.0.
        T = np.array(X, dtype=float)
        T[:, 0] += 2.5
        return (np.copysign(np.maximum(np.abs(T) - 1.0, 0.0) * 0.5, T),
                [{}] * len(X))


# ---------------------------------------------------------------------------
# SCAD-shaped separable problem
# ---------------------------------------------------------------------------

# The closed forms of g~, h~' and phi~ = g~ - h~ per coordinate, over stacks
# of lanes, bitwise equal to the scalar references in tests/oracles.py.

def _scad_phi_tilde_lanes(u):
    """phi~: |u| on [-1,1], then |u| - (|u|-1)^2/2, then (|u|-2)^2 + 3/2
    beyond 2: the SCAD shape with quadratic growth."""
    a = np.abs(u)
    return np.where(a <= 1.0, a,
                    np.where(a < 2.0, a - (a - 1.0) * (a - 1.0) / 2.0,
                             (a - 2.0) * (a - 2.0) + 1.5))


def _scad_g_tilde_lanes(u):
    a = np.abs(u)
    return np.where(a < 2.0, a, a + (a - 2.0) * (a - 2.0)) + u * u / 5.0


def _scad_h_tilde_prime_lanes(u):
    a, s, p = np.abs(u), np.copysign(1.0, u), 0.4 * u
    return np.where(a <= 1.0, p, np.where(a < 2.0, u - s + p, s + p))


# g~ at its breakpoints 0 and 2, the subproblem's fixed candidates
_G_AT_BREAKPOINTS = _scad_g_tilde_lanes(np.array([0.0, 2.0])).tolist()


def _scad_subproblem_lanes(w):
    """argmin_t g~(t) - w*t elementwise.  g~ is even, so this takes the
    best of the breakpoints 0, 2 and the stationary points of (0, 2) and
    [2, inf) for a = |w|, then the sign of w.  A candidate must be strictly
    smaller to replace the best: ties go to the first.  A stationary point
    inside its interval is the minimizer, so it also wins where its value
    overflows to inf - inf = nan (|w| above ~3e154).  NaN gives 0.
    """
    a = np.abs(w)
    best = np.zeros_like(a)
    best_val = _G_AT_BREAKPOINTS[0] - a * 0.0

    def offer(t, val, inside=None):
        better = val < best_val
        if inside is not None:
            better |= np.isnan(val)
            better &= inside
        np.copyto(best, t, where=better)
        np.copyto(best_val, val, where=better)

    offer(2.0, _G_AT_BREAKPOINTS[1] - a * 2.0)
    t = 2.5 * (a - 1.0)              # (0, 2):    1 + 2t/5 = a
    offer(t, _scad_g_tilde_lanes(t) - a * t, (0.0 < t) & (t < 2.0))
    t = 5.0 * (a + 3.0) / 12.0       # [2, inf):  1 + 2(t-2) + 2t/5 = a
    offer(t, _scad_g_tilde_lanes(t) - a * t, t >= 2.0)
    # 0 - t, not -t: a zero minimizer stays +0 for negative w
    return np.subtract(0.0, best, out=best, where=w < 0.0)


class ScadSeparableProblem(DcModel):
    """phi(u, v) = phi~(u) + phi~(v), split per coordinate as g~ - h~.

    Critical points have each coordinate in {-2, 0, 2}; on the sampling box
    [0,3]^2 the four reachable ones are {0, 2}^2 and only (0, 0) is the
    global minimum.  Both parts carry the u^2/5 quadratic, so rho = 2/5.
    """

    shape = (2,)
    rho = 0.4

    # The lane forms evaluate every branch on every entry and keep one, so
    # entries near the float limit overflow, or meet inf - inf, in branches
    # that are then dropped.  Library calls stay as quiet as CLI runs.
    def phi_lanes(self, X):
        with np.errstate(over="ignore", invalid="ignore"):
            per_coord = _scad_phi_tilde_lanes(X)
            return per_coord[:, 0] + per_coord[:, 1]

    def subproblem_lanes(self, X):
        with np.errstate(over="ignore", invalid="ignore"):
            Y = _scad_subproblem_lanes(_scad_h_tilde_prime_lanes(X))
        return Y, [{}] * len(X)


# ---------------------------------------------------------------------------
# attractor-count experiment
# ---------------------------------------------------------------------------

ATTRACTORS = ((0.0, 0.0), (0.0, 2.0), (2.0, 0.0), (2.0, 2.0))
ATTRACTOR_LABELS = tuple(f"({u:g},{v:g})" for u, v in ATTRACTORS)
OTHER_LABEL = "other"
LABELS = ATTRACTOR_LABELS + (OTHER_LABEL,)
CLASSIFY_RADIUS = 1e-3
SAMPLE_LOW, SAMPLE_HIGH = 0.0, 3.0


@dataclass
class BasinReport:
    """Attractor counts for one experiment, keyed in ``LABELS`` order; they
    always sum to n_points.  ``totals`` maps each of ``BASIN_TOTALS`` to its
    sum over all starts, in that order."""

    counts: dict
    n_points: int
    variant: Variant
    elapsed: float
    seed: int | None
    totals: dict


def classify_lanes(points):
    """Index into ``LABELS`` of each point's label: the first attractor
    within the classification radius, else 'other'.  ``points`` stacks the
    points along a leading axis."""
    P = np.asarray(points, dtype=float).reshape(-1, 2)
    labels = np.full(len(P), len(ATTRACTORS))
    # the last write wins, so walk the attractors backwards
    for i in reversed(range(len(ATTRACTORS))):
        au, av = ATTRACTORS[i]
        labels[np.hypot(P[:, 0] - au, P[:, 1] - av) <= CLASSIFY_RADIUS] = i
    return labels


def default_basin_config(variant):
    """Experiment defaults: :class:`SolverConfig`'s own, farthest probe at
    x + 3d (see :func:`first_trial_step`)."""
    return SolverConfig(variant, lambda_bar=first_trial_step(variant, 3.0))


# Starts solved together in one stack of lanes; bounds the working set
# whatever the number of starts.  A block runs until its slowest lane ends,
# so wider blocks make fewer lockstep iterations: 10^4 starts, four variants,
# took 0.79 / 0.59 / 0.43 / 0.36 / 0.34 s at 256 / 512 / 1024 / 2048 / 4096
# lanes (2-core x86_64).  Wider blocks also cost resident memory beyond
# their arrays: as lanes retire, masks and index arrays take every length
# below the block size, and numpy keeps freed buffers under 1 KiB in a cache
# per exact size.  Peak RSS of that run rose by 0.3 / 1.0 / 1.0 / 1.7 MiB
# over 256 lanes; 2048 is the widest block within 1.5 MiB.
BASIN_BLOCK = 2048

# the LaneResult counters a BasinReport totals, in output order;
# outer_iterations counts subproblem solves
BASIN_TOTALS = ("outer_iterations", "backtracks", "linesearch_failures")


def basin_experiment(n_points, seed, variant, cfg=None, points=None):
    """Solve from uniform random starts in [0,3]^2 and count the limits.

    Points are drawn from a counter-based generator keyed by ``seed``, block
    by block as the blocks are solved, so memory stays flat in ``n_points``.
    ``points`` overrides the drawing with explicit start coordinates (used
    by tests that need a start sitting exactly on an attractor).  The starts
    are solved in blocks of ``BASIN_BLOCK`` lanes that advance in lockstep;
    each lane ends where a single :func:`solve` from its start ends.
    A ``cfg`` given must be for ``variant``.
    """
    if points is None:
        if not (isinstance(n_points, numbers.Integral) and n_points >= 1):
            raise ValueError("n_points must be an integer, at least 1")
        rng = np.random.Generator(np.random.Philox(key=seed))
        blocks = (SAMPLE_LOW + (SAMPLE_HIGH - SAMPLE_LOW)
                  * rng.random((min(BASIN_BLOCK, n_points - start), 2))
                  for start in range(0, n_points, BASIN_BLOCK))
    else:
        points = np.atleast_1d(np.asarray(points, dtype=float))
        n_points = len(points)
        if n_points == 0:
            raise ValueError("points is empty: no starts to solve")
        blocks = (points[start:start + BASIN_BLOCK]
                  for start in range(0, n_points, BASIN_BLOCK))

    variant = Variant(variant)
    cfg = default_basin_config(variant) if cfg is None else cfg
    if cfg.variant is not variant:
        raise ValueError(f"cfg runs {cfg.variant.value}, not {variant.value}")
    model = ScadSeparableProblem()
    counts = np.zeros(len(LABELS), dtype=int)
    totals = dict.fromkeys(BASIN_TOTALS, 0)
    t0 = time.perf_counter()
    for block in blocks:
        lanes = solve_lanes(model, block, cfg)
        counts += np.bincount(classify_lanes(lanes.final_points),
                              minlength=len(LABELS))
        for name in totals:
            totals[name] += int(getattr(lanes, name).sum())
    elapsed = time.perf_counter() - t0
    return BasinReport(dict(zip(LABELS, counts.tolist())), n_points,
                       cfg.variant, elapsed, seed, totals)
