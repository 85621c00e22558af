"""Command-line front end: phantom generation through clinical reporting.

Subcommands: phantom, template, fit, warp, quality, chamfer, stress, report,
pipeline. Those taking a config (phantom, fit, stress, report, pipeline)
read an optional JSON file whose sections are the dataclasses of ``SECTIONS``:
their fields are the keys, defaults and checks. Any value can be overridden
with ``--set section.key=value``. Unknown keys, values of another JSON type
than the default's, and non-finite numbers are rejected, and every section is
built before any work, so all these subcommands accept the same configs. The
effective config (defaults merged with file and overrides, as given) is echoed
into every output next to its sha256 hash, so runs are reproducible: identical
config and seed produce byte-identical output bundles. The squaring rule is
fixed, and ``warp`` takes no config: an SVF file alone fixes its warp.

Exit codes: 0 success, 2 validation error (bad config, malformed file,
missing input, template and target meshes that do not correspond, a mesh
the report must measure ring by ring that has no ring layout, a region
without the face or ring that a stress summary or report needs, found
before any fit, solve or file write, an allocation too large, ``--jobs``
below 1, a pipeline worker process that died), 3 numerical failure
(divergence, solver residual, non-finite stresses, quality metrics or
chamfer distances). The exception's type
alone sets the code: FloatingPointError exits 3, ValueError and OSError
exit 2. These builtins pickle, so a ``pipeline --jobs`` worker's failure
reaches ``main`` as the exception a serial run raises, and exits with the
same code and message.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import dataclasses
import hashlib
import json
import os
import sys

from . import __version__
from .clinical import ReportConfig, build_report, region_faces, region_rings, regional_stress_stats, validate_report
from .diffeo import exponentiate, warp_vertices
from .fea import MembraneModel, solve_membrane_stress
from .fitter import FitConfig, GridConfig, bounding_grid, check_meshes, fit_svf, summary_line
from .objective import LossWeights, chamfer
from .phantom import PhantomSpec, make_phantom
from .quadmesh import REGIONS, _render_body, average_template, load_mesh, save_mesh
from .quality import METRICS, quality_report
from .volgrid import load_volume, save_volume

__all__ = ["main", "default_config", "load_config", "build_sections"]

# Config section -> the dataclass that defines its keys, defaults and ranges.
# A field named after another section (FitConfig.weights) is no key: it
# takes that section's object, built first in this order.
SECTIONS = {
    "grid": GridConfig,
    "phantom": PhantomSpec,
    "weights": LossWeights,
    "fit": FitConfig,
    "membrane": MembraneModel,
    "report": ReportConfig,
}


def default_config():
    """Full config: every section's dataclass fields at their defaults."""
    return {
        name: {key: value for key, value in dataclasses.asdict(cls()).items() if key not in SECTIONS}
        for name, cls in SECTIONS.items()
    }


def _json_kind(value):
    """JSON type name of a config value, telling integers from other numbers."""
    kinds = (("boolean", bool), ("integer", int), ("number", float), ("string", str), ("array", (list, tuple)))
    return next((kind for kind, types in kinds if isinstance(value, types)), "null")


def _finite(value):
    """Whether every number in a JSON value, at any depth, fits a finite float."""
    if isinstance(value, (dict, list)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    try:
        return not isinstance(value, (int, float)) or abs(float(value)) < float("inf")
    except OverflowError:  # an integer beyond the float range
        return False


def _set(node, default, key, value, path):
    """Set ``node[key] = value`` where ``default`` holds the key's default.

    A section takes an object, merged key by key. Any other key takes a value
    of its default's JSON type (a float key also takes an integer) holding no
    NaN, infinity or overflowing number; keys whose default is null are left
    to their dataclass to check.
    """
    if key not in default:
        raise ValueError(f"unknown config key {path + key!r}")  # repr: a key may hold a line break
    want = default[key]
    if isinstance(want, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config section '{path}{key}' needs an object, got {json.dumps(value)}")
        for k, v in value.items():
            _set(node[key], want, k, v, f"{path}{key}.")
        return
    kind, got = _json_kind(want), _json_kind(value)
    if want is not None and got != kind and (kind, got) != ("number", "integer"):
        raise ValueError(f"config key '{path}{key}' needs a JSON {kind}, got {json.dumps(value)}")
    if not _finite(value):
        raise ValueError(f"config key '{path}{key}' needs finite numbers, got {json.dumps(value)}")
    node[key] = value


def load_config(path=None, overrides=()):
    """Defaults merged with an optional JSON file and --set overrides."""
    defaults = default_config()
    cfg = copy.deepcopy(defaults)
    if path is not None:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        for key, value in data.items():
            _set(cfg, defaults, key, value, "")
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set needs section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        *parents, key = dotted.split(".")
        node, default = cfg, defaults
        for part in parents:
            if not isinstance(default.get(part), dict):
                raise ValueError(f"unknown config key {dotted!r}")
            node, default = node[part], default[part]
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _set(node, default, key, value, "".join(p + "." for p in parents))
    return cfg


def build_sections(cfg):
    """Every section object of a merged config, by name; every config-taking
    subcommand calls this first. An error names the keys that the dataclass
    rejects on their own, if those keys alone give the error, else the section.
    """
    built = {}
    for name, cls in SECTIONS.items():
        nested = {f.name: built[f.name] for f in dataclasses.fields(cls) if f.name in SECTIONS}
        try:
            built[name] = cls(**cfg[name], **nested)
        except (TypeError, ValueError) as exc:
            culprits = [key for key, value in cfg[name].items() if _rejection(cls, {key: value}) is not None]
            if _rejection(cls, {key: cfg[name][key] for key in culprits}) != str(exc):
                culprits = []  # the error needs other keys too
            named = ", ".join(f"'{name}.{key}'" for key in culprits)
            raise ValueError(f"config {named or repr(name)}: {exc}") from None
    return built


def _rejection(cls, fields):
    """The message with which ``cls`` rejects ``fields`` (the rest at their defaults), else None."""
    try:
        cls(**fields)
    except (TypeError, ValueError) as exc:
        return str(exc)
    return None


def _configure(args):
    """The merged config of a subcommand's --config and --set, and its section objects."""
    cfg = load_config(args.config, args.set or ())
    return cfg, build_sections(cfg)


def config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _write_json(path, obj):
    """Write ``obj`` as JSON to ``path``, or print the same text when ``path``
    is None. NaN and infinity, which are no JSON, raise ValueError either way."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    if path is None:
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return path


def _hash_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _provenance(cfg, **extra):
    out = {"tool_version": __version__, "config_hash": config_hash(cfg)}
    out.update(extra)
    return out


def _table(headers, rows):
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _quality_table(rep):
    rows = []
    for name in METRICS:
        stats = rep[name]
        rows.append([name] + ["n/a" if x is None else f"{x:.4f}" for x in (stats["mean"], stats["std"])])
    rows.append(["self_intersections", str(rep["self_intersection_count"]), ""])
    return _table(["metric", "mean", "std"], rows)


def _report_table(report):
    headers = ["region", "max_diameter_mm", "ring", "mean_sigma1_kpa", "peak_sigma1_kpa"]
    has_err = any("diameter_error_mm" in e for e in report["regions"].values())
    if has_err:
        headers.append("diameter_error_mm")
    rows = []
    for name in REGIONS:
        e = report["regions"][name]
        row = [
            name,
            f"{e['max_diameter_mm']:.3f}",
            str(e["ring_index"]),
            f"{e['mean_sigma1_kpa']:.2f}",
            f"{e['peak_sigma1_kpa']:.2f}",
        ]
        if has_err:
            row.append(f"{e.get('diameter_error_mm', float('nan')):.3f}")
        rows.append(row)
    return _table(headers, rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_phantom(args):
    cfg, sections = _configure(args)
    mesh = make_phantom(sections["phantom"])
    save_mesh(mesh, args.out, title=f"aortafit phantom (config {config_hash(cfg)[:12]})")
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, {mesh.n_faces} faces")
    return 0


def cmd_template(args):
    meshes = [load_mesh(p) for p in args.meshes]
    avg = average_template(meshes)
    save_mesh(avg, args.out, title=f"aortafit template of {len(meshes)} meshes")
    print(f"wrote {args.out}: average of {len(meshes)} meshes")
    return 0


def _run_fit(template, target, sections):
    grid = bounding_grid([template, target], spacing=sections["grid"].spacing, margin=sections["grid"].margin)
    return fit_svf(template, target, grid, sections["fit"])


def _write_fit_outputs(out_dir, cfg, seed, svf, history, summary, target_path):
    """Every fit output but ``fitted.vtk``, which the caller writes, into the
    existing ``out_dir``: the ``history`` and ``summary`` that ``fit_svf``
    returned, the latter with the run's seed, target, config and provenance
    added."""
    files = {}
    files["svf.hdr"] = save_volume(svf, os.path.join(out_dir, "svf.hdr"))
    files["svf.raw"] = os.path.join(out_dir, "svf.raw")
    files["history.json"] = _write_json(os.path.join(out_dir, "history.json"), history)
    summary = dict(summary, seed=seed, target=os.path.basename(target_path), config=cfg, provenance=_provenance(cfg))
    files["summary.json"] = _write_json(os.path.join(out_dir, "summary.json"), summary)
    return files


def cmd_fit(args):
    cfg, sections = _configure(args)
    template, target = load_mesh(args.template), load_mesh(args.target)
    os.makedirs(args.out, exist_ok=True)
    svf, fitted, history, summary = _run_fit(template, target, sections)
    _write_fit_outputs(args.out, cfg, args.seed, svf, history, summary, args.target)
    save_mesh(fitted, os.path.join(args.out, "fitted.vtk"), title="aortafit fitted mesh")
    print(f"fit done: {summary_line(summary)}, outputs in {args.out}")
    return 0


def cmd_warp(args):
    mesh = load_mesh(args.mesh)
    svf = load_volume(args.svf)
    disp = exponentiate(svf)
    warped = warp_vertices(mesh, disp, svf.geom)
    save_mesh(warped, args.out, title="aortafit warped mesh")
    print(f"wrote {args.out}")
    return 0


def cmd_quality(args):
    rep = quality_report(load_mesh(args.mesh))
    payload = dict(rep, provenance={"mesh": os.path.basename(args.mesh), "tool_version": __version__})
    _write_json(args.out, payload)
    if args.out is not None:
        print(f"wrote {args.out}")
    if args.summary_table:
        print(_quality_table(rep))
    return 0


def cmd_chamfer(args):
    d = chamfer(load_mesh(args.mesh_a), load_mesh(args.mesh_b))
    print(d)
    return 0


def _stress_cell_data(field):
    principal = field.principal
    return {
        "n11": field.resultants[:, 0],
        "n22": field.resultants[:, 1],
        "n12": field.resultants[:, 2],
        "sigma1": principal[:, 0],
        "sigma2": principal[:, 1],
    }


def cmd_stress(args):
    cfg, sections = _configure(args)
    mesh = load_mesh(args.mesh)
    # The summary needs a face in every region: checked before the solve,
    # except on a mesh with no face, which the solve rejects first.
    if mesh.n_faces:
        region_faces(mesh)
    field = solve_membrane_stress(mesh, sections["membrane"])
    report_cfg = sections["report"]
    stats = regional_stress_stats(mesh, field, peak_rule=report_cfg.peak_rule, percentile=report_cfg.percentile)
    save_mesh(mesh, args.out, cell_data=_stress_cell_data(field), title="aortafit stressed mesh")
    summary = {
        "pressure_kpa": field.pressure,
        "thickness_mm": field.thickness,
        "residual": field.residual,
        "regional": {name: {"mean_sigma1_kpa": m, "peak_sigma1_kpa": p} for name, (m, p) in stats.items()},
        "provenance": _provenance(cfg, mesh=os.path.basename(args.mesh)),
    }
    out_json = args.summary or (os.path.splitext(args.out)[0] + ".stress.json")
    try:
        _write_json(out_json, summary)
    except BaseException:  # a failed command leaves no stressed mesh without its summary
        os.remove(args.out)
        raise
    print(f"wrote {args.out} and {out_json} (residual {field.residual:.2e})")
    return 0


def cmd_report(args):
    cfg, sections = _configure(args)
    mesh = load_mesh(args.mesh)
    reference = load_mesh(args.reference) if args.reference else None
    # The report measures diameters ring by ring and stresses face by face:
    # a mesh without rings, or a region without a ring or a face, is rejected
    # before the solve, except on a mesh with no face, which the solve
    # rejects first.
    if mesh.n_faces:
        region_rings(mesh)
        region_faces(mesh)
    if reference is not None:
        region_rings(reference)
    field = solve_membrane_stress(mesh, sections["membrane"])
    provenance = _provenance(cfg, mesh=os.path.basename(args.mesh))
    report = build_report(mesh, field, sections["report"], provenance, reference_mesh=reference)
    validate_report(report)
    _write_json(args.out, report)
    if args.out is not None:
        print(f"wrote {args.out}")
    if args.summary_table:
        print(_report_table(report))
    return 0


def _pipeline_meshes(template_path, target_paths, fit_cfg):
    """The template and target meshes, checked before any case runs: each pair
    as the fit checks it, and each mesh as the report measures the fitted
    mesh and the target, which need a ring in every region. The fitted mesh
    has the template's faces and labels, so the template also needs a face in
    every region.
    """
    template = load_mesh(template_path)
    targets = [load_mesh(path) for path in target_paths]
    for target in targets:
        check_meshes(template, target, fit_cfg)
    for mesh in (template, *targets):
        region_rings(mesh)
    region_faces(template)
    return template, targets


def _run_case(template_path, target_path, case_dir, cfg, sections, seed, template, target):
    """One pipeline case: fit, quality, chamfer, stress, report, manifest.

    ``template`` and ``target`` are the meshes loaded from the two paths.
    """
    os.makedirs(case_dir, exist_ok=True)
    svf, fitted, history, summary = _run_fit(template, target, sections)
    files = _write_fit_outputs(case_dir, cfg, seed, svf, history, summary, target_path)

    qrep = quality_report(fitted)
    files["quality.json"] = _write_json(
        os.path.join(case_dir, "quality.json"),
        dict(qrep, provenance=_provenance(cfg)),
    )

    field = solve_membrane_stress(fitted, sections["membrane"])
    # Both files hold the fitted mesh: its rows are formatted once, after the
    # solve, so that the text does not add to the solve's peak memory.
    body = _render_body(fitted)
    files["fitted.vtk"] = save_mesh(fitted, os.path.join(case_dir, "fitted.vtk"), title="aortafit fitted mesh",
                                    body=body)
    files["stressed.vtk"] = save_mesh(
        fitted,
        os.path.join(case_dir, "stressed.vtk"),
        cell_data=_stress_cell_data(field),
        title="aortafit stressed mesh",
        body=body,
    )

    report = build_report(fitted, field, sections["report"], _provenance(cfg, mesh="fitted.vtk"),
                          reference_mesh=target)
    validate_report(report)
    files["report.json"] = _write_json(os.path.join(case_dir, "report.json"), report)

    manifest = _provenance(cfg, seed=seed, template=os.path.basename(template_path),
                           target=os.path.basename(target_path),
                           files={name: _hash_file(path) for name, path in sorted(files.items())})
    _write_json(os.path.join(case_dir, "manifest.json"), manifest)
    tables = _quality_table(qrep) + "\n\n" + _report_table(report)
    line = f"{os.path.basename(case_dir) or case_dir}: {summary_line(summary)}, stress residual {field.residual:.2e}"
    return line, tables


def cmd_pipeline(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    cfg, sections = _configure(args)
    template, targets = _pipeline_meshes(args.template, args.targets, sections["fit"])
    os.makedirs(args.out, exist_ok=True)
    if len(args.targets) == 1:
        cases = [(args.targets[0], args.out, targets[0])]
    else:
        cases = [
            (t, os.path.join(args.out, f"case_{i:02d}_{os.path.splitext(os.path.basename(t))[0]}"), target)
            for i, (t, target) in enumerate(zip(args.targets, targets))
        ]

    results = []
    # A process pool may start all its workers at the first submit, so it
    # gets no more than there are cases.
    workers = min(args.jobs, len(cases))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_run_case, args.template, t, d, cfg, sections, args.seed, template, target)
                    for t, d, target in cases]
            results = [f.result() for f in futs]
    else:
        for t, d, target in cases:
            results.append(_run_case(args.template, t, d, cfg, sections, args.seed, template, target))

    for line, tables in results:
        print(line)
        if args.summary_table:
            print(tables)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE", help="override a config value")


def build_parser():
    parser = argparse.ArgumentParser(prog="aortafit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"aortafit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic tube mesh")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("template", help="average corresponded meshes")
    p.add_argument("meshes", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_template)

    p = sub.add_parser("fit", help="fit an SVF deforming template onto target")
    p.add_argument("--template", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True, help="recorded in the outputs; the fit is deterministic")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("warp", help="warp a mesh through a stored SVF")
    p.add_argument("--mesh", required=True)
    p.add_argument("--svf", required=True, help="SVF header file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("quality", help="element quality and self-intersection report")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--summary-table", action="store_true")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("chamfer", help="symmetric chamfer distance between two meshes")
    p.add_argument("mesh_a")
    p.add_argument("mesh_b")
    p.set_defaults(func=cmd_chamfer)

    p = sub.add_parser("stress", help="membrane stress solve; writes cell data + summary")
    p.add_argument("--mesh", required=True)
    p.add_argument("--out", required=True, help="stressed mesh path")
    p.add_argument("--summary", help="regional summary JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("report", help="clinical report (diameters + stress stats)")
    p.add_argument("--mesh", required=True)
    p.add_argument("--reference", help="ground-truth mesh for diameter errors")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--summary-table", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="fit, quality, stress, and report in one bundle")
    p.add_argument("--template", required=True)
    p.add_argument("--target", dest="targets", action="append", required=True, help="repeatable")
    p.add_argument("--out", required=True, help="bundle directory")
    p.add_argument("--seed", type=int, required=True, help="recorded in the outputs; the fit is deterministic")
    p.add_argument("--jobs", type=int, default=1, help="concurrent cases (>= 1; at most one process per case)")
    p.add_argument("--summary-table", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FloatingPointError as exc:
        print(f"aortafit: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"aortafit: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"aortafit: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except concurrent.futures.BrokenExecutor as exc:  # a pipeline worker died, say killed for memory
        print(f"aortafit: a pipeline worker process died: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
