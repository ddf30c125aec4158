"""Tests of the benchmark's span tracer: self-time arithmetic and patching."""

import importlib

import numpy as np
import pytest

from layers import corrected_times, pass_layer_metrics
from tracer import (TARGETS, SpanCost, Tracer, _MISSING, _resolve_owner,
                    descendant_counts, self_times, span_cost)

# the tree of test_self_times_on_hand_built_tree
TREE_START = [0.0, 1.0, 3.0, 8.0, 2.0, 5.0, 20.0]
TREE_END = [10.0, 4.0, 6.0, 12.0, 3.0, 5.5, 21.0]
TREE_PARENT = [-1, 0, 0, 0, 1, 2, -1]


def test_self_times_on_hand_built_tree():
    # 0 root [0, 10]
    # 1   child [1, 4]      2   child [3, 6] (overlaps 1: union [1, 6])
    # 3   child [8, 12]     (only [8, 10] lies inside the root)
    # 4     grandchild of 1 [2, 3]
    # 5     grandchild of 2 [5, 5.5]
    # 6 second root [20, 21] with no children
    got = self_times(TREE_START, TREE_END, TREE_PARENT)
    want = [10 - (5 + 2), 3 - 1, 3 - 0.5, 4, 1, 0.5, 1]
    assert got == pytest.approx(want, abs=1e-9)


def test_descendant_counts_on_hand_built_tree():
    assert list(descendant_counts(TREE_PARENT)) == [5, 1, 1, 0, 0, 0, 0]


def test_corrected_times_subtract_the_tracer_cost():
    cost = SpanCost(outside=0.25, inside=0.125)
    incl, own = corrected_times(TREE_START, TREE_END, TREE_PARENT, cost)
    # inclusive: less every nested span's full cost and its own inside cost
    want_incl = [10 - 5 * 0.375, 3 - 0.375, 3 - 0.375, 4, 1, 0.5, 1]
    assert incl == pytest.approx([w - 0.125 for w in want_incl], abs=1e-9)
    # self: less the outside cost of each child and its own inside cost
    want_own = [3 - 3 * 0.25, 2 - 0.25, 2.5 - 0.25, 4, 1, 0.5, 1]
    assert own == pytest.approx([w - 0.125 for w in want_own], abs=1e-9)
    # never below zero
    incl, own = corrected_times([0.0, 0.0], [1.0, 1.0], [-1, 0],
                                SpanCost(outside=2.0, inside=0.0))
    assert list(incl) == [0.0, 1.0] and list(own) == [0.0, 1.0]


def test_span_cost_is_positive_and_small():
    cost = span_cost()
    assert 0.0 < cost.total < 1e-3


def test_self_times_independent_of_span_order():
    start = np.array([0.0, 1.0, 3.0, 8.0, 2.0])
    end = np.array([10.0, 4.0, 6.0, 12.0, 3.0])
    parent = np.array([-1, 0, 0, 0, 1])
    perm = np.array([3, 4, 0, 2, 1])          # new position -> old index
    inverse = np.argsort(perm)                # old index -> new position
    new_parent = np.where(parent[perm] >= 0, inverse[parent[perm]], -1)
    got = self_times(start[perm], end[perm], new_parent)
    assert got == pytest.approx(self_times(start, end, parent)[perm], abs=1e-9)


def _snapshot():
    """Each target owner's own binding of the attribute (or _MISSING)."""
    snap = {}
    for target in TARGETS:
        owner = _resolve_owner(target.owner)
        snap[target.owner, target.attr] = vars(owner).get(target.attr,
                                                          _MISSING)
    return snap


def _small_solve():
    from dcboost import dc_core, toy_problems
    cfg = dc_core.SolverConfig(variant="ibdca", alpha=0.2, beta=0.5,
                               lambda_bar=2.0)
    return dc_core.solve(toy_problems.QuadL1Problem(),
                         np.array([0.5, 1.0]), cfg)


def test_tracer_restores_every_patched_attribute():
    before = _snapshot()
    tracer = Tracer()
    with tracer:
        during = _snapshot()
        assert tracer.missing == []
        for key, original in before.items():
            assert during[key] is not original, key
    assert _snapshot() == before
    # inherited methods were patched on the subclass and must be gone again
    scad = importlib.import_module("dcboost.toy_problems").ScadSeparableProblem
    assert "solve_subproblem_with_info" not in vars(scad)

    # an untraced solve after the traced one records nothing
    tracer.reset()
    _small_solve()
    assert len(tracer.start) == 0


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert _snapshot() == before


def test_traced_solve_spans_nest_and_count():
    tracer = Tracer()
    with tracer, tracer.region("pass"):
        result = _small_solve()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "pass"
    assert names[1] == "dc_core.solve.ibdca"
    # every span of the solve shares the solve's trace id
    solve_tid = tracer.trace_id[1]
    assert all(tid == solve_tid for tid in tracer.trace_id[1:])
    # line-search phi evaluations are children of their line-search span
    for i, name in enumerate(names):
        if name == "toy_problems.phi" and names[tracer.parent[i]] != \
                "dc_core.solve.ibdca":
            assert names[tracer.parent[i]] == "dc_core.linesearch.ibdca"
    metrics = pass_layer_metrics(tracer, SpanCost(0.0, 0.0))
    assert metrics["dc_core.outer_iters"] == len(result.trace)
    assert metrics["dc_core.backtracks"] == sum(r.backtracks
                                                for r in result.trace)
    assert 0.0 <= metrics["dc_core.self_s"] <= metrics["dc_core.solve_s.ibdca"]
    assert metrics["toy_problems.us_per_solve"] == pytest.approx(
        1e6 * metrics["dc_core.solve_s.ibdca"])
