"""Per-layer metrics from the spans of traced passes.

Counts and times are per traced pass (totals divided by the number of
passes); ratios are taken over all passes together.  ``PER_LAYER`` lists
every metric with its unit and direction, in the order BENCHMARK.json
declares them.
"""

from __future__ import annotations

from collections import Counter
from statistics import median

from tracer import END, ID, NAME, PARENT, START, TAG, summarize

CALLS_SELF_TOTAL = (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
TOTAL = (("total_s", "s"),)

#: span name -> the summary fields reported for it
SPAN_FIELDS = {
    "field.analytic_jet.o2": CALLS_SELF_TOTAL,
    "field.analytic_jet.o3": CALLS_SELF_TOTAL,
    "field.__call__": CALLS_SELF_TOTAL,
    "hermgeo.metric_from_potential": CALLS_SELF_TOTAL,
    "jets.fd_jet": CALLS_SELF_TOTAL,
    "hermgeo.ricci": CALLS_SELF_TOTAL,
    "hermgeo.laplacian": CALLS_SELF_TOTAL,
    "vfield.flow_trajectory": CALLS_SELF_TOTAL,
    "vfield.pullback_metric_deviation": TOTAL,
    "chengyau.shoot": TOTAL,
    "chengyau.radial_ode_residual": CALLS_SELF_TOTAL,
    "chengyau.boundary_limit_estimate": TOTAL,
    "sampling.sample_interior": CALLS_SELF_TOTAL,
    "domains.contains": CALLS_SELF_TOTAL,
    "potentials.certify_constant_length": TOTAL,
    "potentials.kai_ohsawa_constant": TOTAL,
    "domains.bergman_potential": TOTAL,
    **{f"suites.{name}": TOTAL for name in (
        "einstein", "delta-identity", "key-equation", "constant-length",
        "dbar-defect", "flow", "kai-ohsawa", "ball-minimality", "cheng-yau",
        "table1")},
    "suites.to_json": TOTAL,
}
#: kinds whose sampler acceptance is reported on its own
SAMPLED_KINDS = ("type1(2,2)", "type3(2)", "type4(3)", "type1(2,3)")
#: child spans of an fd_jet span that are one function evaluation each
FD_EVALS = ("hermgeo.metric_from_potential", "field.__call__")


def kind_key(label: str) -> str:
    return label.replace("(", "-").replace(",", "-").replace(")", "")


def _spec():
    rows = []
    for name, fields in SPAN_FIELDS.items():
        rows += [(f"{name}.{field}", unit, "lower") for field, unit in fields]
    rows += [
        ("field.analytic_jet.us_per_call", "us", "lower"),
        ("hermgeo.metric_from_potential.us_per_call", "us", "lower"),
        ("jets.fd_jet.evals_per_call", "count", "lower"),
        ("vfield.rk4_step_us", "us", "lower"),
    ]
    for suffix in [""] + [f".{kind_key(k)}" for k in SAMPLED_KINDS]:
        rows += [(f"sampling.draws{suffix}", "count", "lower"),
                 (f"sampling.accepted{suffix}", "count", "higher"),
                 (f"sampling.acceptance{suffix}", "ratio", "higher")]
    rows += [("trace.overhead", "ratio", "lower")]
    return rows


PER_LAYER = _spec()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, plain_s, traced_s) -> dict:
    """Every PER_LAYER metric from the spans of ``len(traced_s)`` passes.

    ``plain_s`` and ``traced_s`` are the wall times of untraced and traced
    passes over the same inputs.
    """
    passes = len(traced_s)
    units = {name: unit for name, unit, _ in PER_LAYER}
    values = {}
    summary = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for name, fields in SPAN_FIELDS.items():
        row = summary.get(name, empty)
        for field, _ in fields:
            values[f"{name}.{field}"] = row[field] / passes

    jets = [summary.get(f"field.analytic_jet.o{k}", empty) for k in range(5)]
    values["field.analytic_jet.us_per_call"] = 1e6 * _ratio(
        sum(j["total_s"] for j in jets), sum(j["calls"] for j in jets))
    frames = summary.get("hermgeo.metric_from_potential", empty)
    values["hermgeo.metric_from_potential.us_per_call"] = 1e6 * _ratio(
        frames["total_s"], frames["calls"])

    by_id = {span[ID]: span for span in spans}
    fd_evals = 0
    draws = Counter()  # sample_interior span id -> contains calls under it
    for span in spans:
        parent = by_id.get(span[PARENT])
        if parent is None:
            continue
        if parent[NAME] == "jets.fd_jet" and span[NAME] in FD_EVALS:
            fd_evals += 1
        if (parent[NAME] == "sampling.sample_interior"
                and span[NAME] == "domains.contains"):
            draws[parent[ID]] += 1
    fd = summary.get("jets.fd_jet", empty)
    values["jets.fd_jet.evals_per_call"] = _ratio(fd_evals, fd["calls"])

    flows = [s for s in spans if s[NAME] == "vfield.flow_trajectory"]
    values["vfield.rk4_step_us"] = 1e6 * _ratio(
        sum(s[END] - s[START] for s in flows),
        sum(s[TAG]["steps"] for s in flows if s[TAG]))

    per_kind = {"": [0, 0]}
    for span in spans:
        if span[NAME] != "sampling.sample_interior" or not draws[span[ID]]:
            continue
        for key in ("", "." + kind_key(span[TAG]["kind"])):
            row = per_kind.setdefault(key, [0, 0])
            row[0] += draws[span[ID]]
            row[1] += span[TAG]["accepted"]
    for suffix in [""] + [f".{kind_key(k)}" for k in SAMPLED_KINDS]:
        d, a = per_kind.get(suffix, (0, 0))
        values[f"sampling.draws{suffix}"] = d / passes
        values[f"sampling.accepted{suffix}"] = a / passes
        values[f"sampling.acceptance{suffix}"] = _ratio(a, d)

    values["trace.overhead"] = (median(traced_s) / median(plain_s)) - 1.0
    return {name: {"value": v, "unit": units[name]}
            for name, v in values.items()}
