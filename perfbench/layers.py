"""Per-layer metrics from the spans and counters of one traced pass.

Layers are the five dcboost modules.  Times are inclusive span durations
unless named ``self_s``, which subtracts the time of child spans (see
:func:`tracer.self_times`).  A layer a workload does not exercise reads 0.

Every time is corrected for the tracer's own cost, as measured by
:func:`tracer.span_cost`: a span's self time loses the wrapper cost outside
each child span and the cost inside its own interval, and its inclusive
duration loses the full cost of every span nested below it and the cost
inside its own interval.  The correction is clipped at zero.
"""

from __future__ import annotations

import numpy as np

from tracer import descendant_counts, self_times

VARIANTS = ("dca", "bdca", "nmbdca", "ibdca")

# name -> unit, in report order
PER_LAYER_UNITS = {
    "dc_core.outer_iters": "count",
    "dc_core.phi_evals": "count",
    "dc_core.backtracks": "count",
    "dc_core.linesearch_failures": "count",
    "dc_core.ls_accept_ratio": "ratio",
    "dc_core.linesearch_s": "s",
    "dc_core.self_s": "s",
    **{f"dc_core.solve_s.{v}": "s" for v in VARIANTS},
    "toy_problems.subproblem_s": "s",
    "toy_problems.phi_s": "s",
    "toy_problems.us_per_solve": "us",
    "tv_cauchy.tv_prox_calls": "count",
    "tv_cauchy.inner_iters": "count",
    "tv_cauchy.inner_unconverged": "count",
    "tv_cauchy.tv_prox_s": "s",
    "tv_cauchy.us_per_inner_iter": "us",
    "tv_cauchy.grad_calls": "count",
    "tv_cauchy.div_calls": "count",
    "tv_cauchy.grad_s": "s",
    "tv_cauchy.div_s": "s",
    "tv_cauchy.energy_calls": "count",
    "tv_cauchy.energy_s": "s",
    "tv_cauchy.peak_alloc_mb": "MiB",
    "imaging.noise_s": "s",
    "imaging.psnr_calls": "count",
    "imaging.psnr_s": "s",
    "imaging.pgm_write_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.trace_rows": "count",
    "bench.tracing_overhead_s": "s",
    "bench.span_cost_us": "us",
}

# spans whose own (self) time belongs to the layer
_DC_CORE_SELF = ("dc_core.solve.", "dc_core.linesearch.")
_CLI_SELF = ("cli.",)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def corrected_times(start, end, parent, cost):
    """Per span: (inclusive duration, self time), less the tracer's cost."""
    parent = np.asarray(parent, dtype=np.int64)
    children = np.bincount(parent[parent >= 0], minlength=len(parent))
    incl = (np.asarray(end) - np.asarray(start)
            - descendant_counts(parent) * cost.total - cost.inside)
    own = (self_times(start, end, parent)
           - children * cost.outside - cost.inside)
    return np.clip(incl, 0.0, None), np.clip(own, 0.0, None)


def pass_layer_metrics(tracer, cost):
    """Every per-layer metric except those that need more than one pass
    (``tv_cauchy.peak_alloc_mb``, ``bench.tracing_overhead_s``,
    ``bench.span_cost_us``) and the input-generation share of
    ``imaging.noise_s``.  ``cost`` is the tracer's :class:`SpanCost`."""
    names = tracer.names
    cols = tracer.columns()
    nid = cols["name_id"]
    dur, selfs = corrected_times(cols["start"], cols["end"], cols["parent"],
                                 cost)
    calls = np.bincount(nid, minlength=len(names))
    incl = np.bincount(nid, weights=dur, minlength=len(names))
    by_name = {name: (int(calls[i]), float(incl[i]))
               for i, name in enumerate(names)}

    def n(name):
        return by_name.get(name, (0, 0.0))[0]

    def t(name):
        return by_name.get(name, (0, 0.0))[1]

    def self_sum(prefixes):
        wanted = [i for i, name in enumerate(names) if name.startswith(prefixes)]
        return float(selfs[np.isin(nid, wanted)].sum())
    toy_solves = [sid for sid, layer in tracer.solves
                  if layer == "toy_problems"]
    c = tracer.counters
    inner = c["tv.inner_iters"]
    tv_prox_s = t("tv_cauchy.tv_prox")
    return {
        "dc_core.outer_iters": n("toy_problems.subproblem")
        + n("tv_cauchy.subproblem"),
        "dc_core.phi_evals": n("toy_problems.phi") + n("tv_cauchy.phi"),
        "dc_core.backtracks": c["ls.backtracks"],
        "dc_core.linesearch_failures": c["ls.failures"],
        "dc_core.ls_accept_ratio": _ratio(c["ls.accepted"], c["ls.calls"]),
        "dc_core.linesearch_s": sum(t(f"dc_core.linesearch.{v}")
                                    for v in VARIANTS),
        "dc_core.self_s": self_sum(_DC_CORE_SELF),
        **{f"dc_core.solve_s.{v}": t(f"dc_core.solve.{v}") for v in VARIANTS},
        "toy_problems.subproblem_s": t("toy_problems.subproblem"),
        "toy_problems.phi_s": t("toy_problems.phi"),
        "toy_problems.us_per_solve": _ratio(float(dur[toy_solves].sum()),
                                            len(toy_solves), 1e6),
        "tv_cauchy.tv_prox_calls": n("tv_cauchy.tv_prox"),
        "tv_cauchy.inner_iters": inner,
        "tv_cauchy.inner_unconverged": c["tv.inner_unconverged"],
        "tv_cauchy.tv_prox_s": tv_prox_s,
        "tv_cauchy.us_per_inner_iter": _ratio(tv_prox_s, inner, 1e6),
        "tv_cauchy.grad_calls": n("tv_cauchy.grad"),
        "tv_cauchy.div_calls": n("tv_cauchy.div"),
        "tv_cauchy.grad_s": t("tv_cauchy.grad"),
        "tv_cauchy.div_s": t("tv_cauchy.div"),
        "tv_cauchy.energy_calls": n("tv_cauchy.energy"),
        "tv_cauchy.energy_s": t("tv_cauchy.energy"),
        "imaging.noise_s": t("imaging.noise"),
        "imaging.psnr_calls": n("imaging.psnr"),
        "imaging.psnr_s": t("imaging.psnr"),
        "imaging.pgm_write_s": t("imaging.write_pgm"),
        "cli.main_s": t("cli.main"),
        "cli.self_s": self_sum(_CLI_SELF),
        "cli.trace_rows": n("cli.trace_row"),
    }
