"""The calls a traced run wraps, and the per-layer metrics made from them.

Each wrapped name is one the program looks up at call time (a module global
or a class attribute), so wrapping it from here records a span around every
call into that layer without changing the program. Span metrics are per case:
totals over the timed cases divided by their number. ``phantom.make_phantom``
only runs during set-up and is divided by the number of set-up repetitions.
"""

from __future__ import annotations

import json
import os

from aortafit import cli, diffeo, fea, fitter, phantom, quadmesh, quality

from tracing import span_totals

LEVELS = (8, 16, 32)  # control-grid sizes of the default fit ladder

SPANS = (
    *(f"diffeo.exp_forward.{n}" for n in LEVELS),
    *(f"diffeo.exp_vjp.{n}" for n in LEVELS),
    "diffeo.exponentiate",
    "diffeo.warp_vertices",
    "diffeo.jacobian_determinant",
    "volgrid.save_volume",
    "objective.total_loss",
    "objective.loss_grad",
    "objective.chamfer",
    "fitter.fit_svf",
    "fitter.upsample_svf",
    "quality.quality_report",
    "quality.self_intersections",
    "fea.solve_membrane_stress",
    "fea.factor",
    "fea.validate_topology",
    "clinical.build_report",
    "clinical.validate_report",
    "quadmesh.load_mesh",
    "quadmesh.save_mesh",
    "phantom.make_phantom",
    "cli.pipeline",
    "cli.quality",
    "cli.stress",
    "cli.report",
)
SETUP_SPANS = {"phantom.make_phantom"}
# name -> unit; summed over the timed cases, then divided by their number
COUNTS = {
    **{f"diffeo.squaring_steps.{n}": "count" for n in LEVELS},
    **{f"fitter.iterations.{n}": "count" for n in LEVELS},
    "fitter.tol_stops": "count",
    "quality.intersections": "count",
    "quadmesh.bytes_read": "B",
    "quadmesh.bytes_written": "B",
}
# name -> (unit, worst of the cases' values); 0 when no case records one
VALUES = {
    "fitter.final_chamfer_mm": ("mm", max),
    "fitter.min_jacobian": ("1", min),
    "fea.residual": ("1", max),
}
TRACE = {"trace.case_s": "s", "trace.overhead_s": "s"}


def metric_names():
    names = [f"{s}.{k}" for s in SPANS for k in ("calls", "s", "self_s")]
    return names + list(COUNTS) + list(VALUES) + list(TRACE)


def _grid(svf, *args, **kwargs):
    return svf.geom.dims[0]


def _bytes_read(tracer, result, path, *args, **kwargs):
    tracer.count("quadmesh.bytes_read", os.path.getsize(path))


def _bytes_written(tracer, path, *args, **kwargs):
    tracer.count("quadmesh.bytes_written", os.path.getsize(path))


def install(tracer):
    """Wrap every traced call; ``tracer.restore()`` undoes it."""
    p = tracer.patch
    p(fitter, "_forward", lambda *a, **k: f"diffeo.exp_forward.{_grid(*a)}")
    p(fitter, "exp_vjp", lambda *a, **k: f"diffeo.exp_vjp.{_grid(*a)}")
    p(fitter, "exponentiate", "diffeo.exponentiate")
    p(fitter, "warp_vertices", "diffeo.warp_vertices")
    p(fitter, "jacobian_determinant", "diffeo.jacobian_determinant")
    p(diffeo.DiffeoConfig, "resolve_steps", None,
      after=lambda t, steps, cfg, svf: t.count(f"diffeo.squaring_steps.{_grid(svf)}", steps))
    p(cli, "save_volume", "volgrid.save_volume")
    p(fitter, "total_loss", "objective.total_loss")
    p(fitter, "loss_grad", "objective.loss_grad")
    p(fitter, "chamfer", "objective.chamfer")
    p(cli, "fit_svf", "fitter.fit_svf")
    p(fitter, "upsample_svf", "fitter.upsample_svf")
    p(cli, "quality_report", "quality.quality_report")
    p(quality, "self_intersections", "quality.self_intersections",
      after=lambda t, result, *a, **k: t.count("quality.intersections", result[0]))
    p(cli, "solve_membrane_stress", "fea.solve_membrane_stress",
      after=lambda t, field, *a, **k: t.value("fea.residual", field.residual))
    p(fea, "splu", "fea.factor")
    p(fea, "validate_topology", "fea.validate_topology")
    p(cli, "build_report", "clinical.build_report")
    p(cli, "validate_report", "clinical.validate_report")
    p(cli, "load_mesh", "quadmesh.load_mesh", after=_bytes_read)
    p(cli, "save_mesh", "quadmesh.save_mesh", after=_bytes_written)
    p(quadmesh, "save_mesh", "quadmesh.save_mesh", after=_bytes_written)  # set-up's writes
    p(phantom, "make_phantom", "phantom.make_phantom")
    for command in ("pipeline", "quality", "stress", "report"):
        p(cli, f"cmd_{command}", f"cli.{command}")


def record_fit(tracer, out):
    """Counts and values of one pipeline case, read from its bundle."""
    with open(os.path.join(out, "history.json")) as fh:
        history = json.load(fh)
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    fit = summary["config"]["fit"]
    ends = history["level_starts"][1:] + [len(history["loss"])]
    for dims, start, end in zip(fit["levels"], history["level_starts"], ends):
        tracer.count(f"fitter.iterations.{dims[0]}", end - start)
        tracer.count("fitter.tol_stops", int(end - start < fit["iters_per_level"]))
    tracer.value("fitter.final_chamfer_mm", summary["final_chamfer_mm"])
    tracer.value("fitter.min_jacobian", summary["min_jacobian"])


def metrics(tracer, n_cases, setup_reps, case_s, overhead_s):
    """Every per-layer metric as {name: (value, unit)}."""
    cases = set(range(n_cases))
    in_cases = span_totals(tracer.spans, cases)
    in_setup = span_totals(tracer.spans, {"setup"})
    out = {}
    for name in SPANS:
        totals, div = (in_setup, setup_reps) if name in SETUP_SPANS else (in_cases, n_cases)
        t = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (t["calls"] / div, "count")
        out[f"{name}.s"] = (t["s"] / div, "s")
        out[f"{name}.self_s"] = (t["self_s"] / div, "s")
    for name, unit in COUNTS.items():
        out[name] = (sum(tracer.counts.get((c, name), 0) for c in cases) / n_cases, unit)
    for name, (unit, worst) in VALUES.items():
        seen = [x for c in cases for x in tracer.values.get((c, name), ())]
        out[name] = (worst(seen) if seen else 0.0, unit)
    out["trace.case_s"] = (case_s, TRACE["trace.case_s"])
    out["trace.overhead_s"] = (overhead_s, TRACE["trace.overhead_s"])
    return out
