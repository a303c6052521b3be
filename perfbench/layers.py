"""Per-layer metrics of a traced pass.

Observers run after a wrapped call returns and add exact work counts
(stencil site updates, steps recorded, tail_start s0, threshold probes) and
the inputs the bare-numpy reference loops replay. `per_layer_metrics` turns
the tracer's totals into the named metrics of BENCHMARK.json.
"""

from __future__ import annotations

import math

import reference


def _stencil(tr, args, _result):
    values = args[0]
    sites = math.prod(s - 2 for s in values.shape)
    tr.count("stencil_site_updates", sites)
    tr.count("stencil_computed_bytes", (2 * values.ndim + 1) * 8 * sites)


def _keep_sample(tr, key, values, steps):
    """Per key: the longest run seen (replayed by the reference) and total steps."""
    sample = tr.samples.get(key)
    if sample is None or steps > sample[1]:
        tr.samples[key] = [values.copy(), steps, steps + (sample[2] if sample else 0)]
    else:
        sample[2] += steps


def _simulate(tr, args, result):
    a, p = args[0], args[1]
    steps = len(result.trace)
    tr.count("steps_recorded", steps)
    tr.count("blowups", int(result.blew_up))
    _keep_sample(tr, ("simulate", a.values.shape, p.alpha, p.delta), a.values, steps)


def _compute_trace(tr, args, _result):
    a, _alpha, S = args[0], args[1], args[2]
    _keep_sample(tr, ("compute_trace", a.values.shape), a.values, S + 1)


def _tail_start(tr, _args, result):
    tr.count("tail_start_s0", int(result))


def _find_threshold(tr, _args, result):
    tr.count("threshold_probes", len(result.evaluations))


OBSERVERS = {
    "domain.neighbor_mean_interior": _stencil,
    "evolution.simulate": _simulate,
    "majorant.compute_trace": _compute_trace,
    "majorant.tail_start": _tail_start,
    "majorant.find_threshold": _find_threshold,
}


def reference_seconds(tr) -> dict[str, float]:
    """Bare-numpy time for the same work, per traced loop kind."""
    out = {"simulate": 0.0, "compute_trace": 0.0}
    for key, (values, steps, total_steps) in tr.samples.items():
        if key[0] == "simulate":
            per_step = reference.nonlinear_s_per_step(values, key[2], key[3], steps)
        else:
            per_step = reference.linear_s_per_step(values, steps)
        out[key[0]] += per_step * total_steps
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr, op_commands, op_steps, extra) -> dict[str, tuple[float, str]]:
    """Named per-layer metrics; `extra` carries the harness-side measurements."""
    t = tr.totals()
    counts: dict[str, float] = {}
    for (_op, key), value in tr.counts.items():
        counts[key] = counts.get(key, 0) + value

    def calls(name):
        return t[name][0]

    def total(name):
        return t[name][1]

    verify_ops = {i for i, c in enumerate(op_commands) if c == "verify"}
    verify_linear = sum(
        n for (op, _parent, name), (n, _s, _self) in tr.agg.items()
        if op in verify_ops and name == "spectral.apply_M"
    )
    verify_steps = sum(op_steps[i] for i in verify_ops)
    stencil_s = total("domain.neighbor_mean_interior")
    sites = counts.get("stencil_site_updates", 0)
    simulate_s = total("evolution.simulate")
    steps = counts.get("steps_recorded", 0)
    refs = extra["reference_s"]
    hits, misses = counts.get("mode_table_hits", 0), counts.get("mode_table_misses", 0)
    return {
        "cli.load_config_s": (total("cli.load_config"), "s"),
        "cli.build_profile_s": (total("cli.build_profile"), "s"),
        "cli.command_self_s": (sum(v[2] for n, v in t.items() if n.startswith("cli.cmd_")), "s"),
        "cli.artifact_bytes": (extra["artifact_bytes"], "B"),
        "domain.stencil_calls": (calls("domain.neighbor_mean_interior"), "count"),
        "domain.stencil_site_updates": (sites, "count"),
        "domain.stencil_s": (stencil_s, "s"),
        "domain.stencil_ns_per_site": (_ratio(stencil_s * 1e9, sites), "ns"),
        "domain.stencil_computed_bytes": (counts.get("stencil_computed_bytes", 0), "B"),
        "evolution.simulate_calls": (calls("evolution.simulate"), "count"),
        "evolution.simulate_s": (simulate_s, "s"),
        "evolution.simulate_self_s": (t["evolution.simulate"][2], "s"),
        "evolution.steps_recorded": (steps, "count"),
        "evolution.us_per_step": (_ratio(simulate_s * 1e6, steps), "us"),
        "evolution.overhead_x": (_ratio(simulate_s, refs["simulate"]), "x"),
        "evolution.blowups": (counts.get("blowups", 0), "count"),
        "evolution.step_nonlinear_calls": (calls("evolution.step_nonlinear"), "count"),
        "spectral.mode_table_calls": (calls("spectral.mode_table"), "count"),
        "spectral.mode_table_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "spectral.mode_table_s": (total("spectral.mode_table"), "s"),
        "spectral.analyze_s": (total("spectral.analyze"), "s"),
        "spectral.apply_M_calls": (calls("spectral.apply_M"), "count"),
        "spectral.apply_M_s": (total("spectral.apply_M"), "s"),
        "majorant.compute_trace_calls": (calls("majorant.compute_trace"), "count"),
        "majorant.compute_trace_s": (total("majorant.compute_trace"), "s"),
        "majorant.compute_trace.overhead_x": (
            _ratio(total("majorant.compute_trace"), refs["compute_trace"]), "x"),
        "majorant.linear_steps_per_verify_step": (_ratio(verify_linear, verify_steps), "ratio"),
        "majorant.verify_comparison_s": (total("majorant.verify_comparison"), "s"),
        "majorant.tail_start_calls": (calls("majorant.tail_start"), "count"),
        "majorant.tail_start_s": (total("majorant.tail_start"), "s"),
        "majorant.tail_start_s0": (counts.get("tail_start_s0", 0), "count"),
        "majorant.bound_s": (total("majorant.bound_alpha_le_1") + total("majorant.bound_alpha_gt_1"), "s"),
        "majorant.find_threshold_s": (total("majorant.find_threshold"), "s"),
        "majorant.threshold_probes": (counts.get("threshold_probes", 0), "count"),
        "majorant.probes_per_threshold": (
            _ratio(counts.get("threshold_probes", 0), calls("majorant.find_threshold")), "ratio"),
        "host.calib_ms": (extra["calib_ms"], "ms"),
        "trace.overhead_ratio": (extra["overhead_ratio"], "ratio"),
    }


# Metrics that count work and must repeat exactly for one seed.
EXACT = (
    "cli.artifact_bytes",
    "domain.stencil_calls",
    "domain.stencil_site_updates",
    "domain.stencil_computed_bytes",
    "evolution.simulate_calls",
    "evolution.steps_recorded",
    "evolution.blowups",
    "evolution.step_nonlinear_calls",
    "spectral.mode_table_calls",
    "spectral.apply_M_calls",
    "majorant.compute_trace_calls",
    "majorant.linear_steps_per_verify_step",
    "majorant.tail_start_calls",
    "majorant.tail_start_s0",
    "majorant.threshold_probes",
)
