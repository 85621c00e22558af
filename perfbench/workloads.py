"""The benchmark's workloads: seeded inputs, the commands of one case, its checks.

A workload turns its seed into input mesh files (the program receives only
these files) and a list of cases. A case is one unit of closed-loop work run
in-process through ``aortafit.cli.main``; the benchmark starts the next case
only after the previous one has finished. Why each workload exists is in
README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from aortafit import phantom, quadmesh
from aortafit.clinical import validate_report
from aortafit.fea import MembraneModel
from aortafit.fitter import bounding_grid
from aortafit.quality import self_intersections

# --- fit workloads ----------------------------------------------------------

BUNDLE = {
    "fitted.vtk", "svf.hdr", "svf.raw", "history.json",
    "summary.json", "quality.json", "stressed.vtk", "report.json",
}
CHAMFER_BOUND_MM = 0.5  # acceptance criterion 3's bound for bulge targets

# The README case runs 300 iterations per level (about 205 s), more than one
# benchmark run may take; 30 per level keeps its geometry, grids and stages.
README_SETS = ("fit.iters_per_level=30",)
# Acceptance criterion 7's small configuration.
COHORT_SETS = (
    "fit.levels=[[8,8,8],[16,16,16]]",
    "fit.svf_dims=[16,16,16]",
    "fit.iters_per_level=80",
    "grid.spacing=2.0",
)
COHORT_TARGETS = 12


def _write(root, name, mesh, files):
    path = quadmesh.save_mesh(mesh, os.path.join(root, name))
    files[name] = {"vertices": mesh.n_vertices, "faces": mesh.n_faces, "bytes": os.path.getsize(path)}
    return path


def _fit_case(template, template_path, target, target_path, sets, spacing):
    grid = bounding_grid([template, target], spacing=spacing, margin=5.0)
    return {"template": template_path, "target": target_path, "sets": sets, "grid_dims": list(grid.dims)}


def readme_inputs(seed, root):
    """The README's 78x320 template and one bulged target (seed 0: the README's)."""
    if seed == 0:
        bulge = (36.0, 8.0, 8.0)
    else:
        rng = np.random.default_rng(seed)
        amplitude, center, width = rng.uniform(6, 10), rng.uniform(30, 42), rng.uniform(6, 10)
        bulge = (center, amplitude, width)
    files = {}
    template = phantom.make_phantom(phantom.PhantomSpec())
    target = phantom.make_phantom(phantom.PhantomSpec(aneurysm=bulge))
    case = _fit_case(template, _write(root, "template.vtk", template, files),
                     target, _write(root, "target.vtk", target, files), README_SETS, 1.0)
    return [case], files


def _tube(bulge=None):
    return phantom.PhantomSpec(
        circumferential=24, axial=60, base_radius=15.0, ascending_length=120.0,
        arch_radius=0.0, descending_length=0.0, aneurysm=bulge,
    )


def cohort_inputs(seed, root):
    """Criterion 7's 24x60 straight tube as template; bulged, shifted targets."""
    rng = np.random.default_rng(seed)
    files = {}
    template = phantom.make_phantom(_tube())
    template_path = _write(root, "template.vtk", template, files)
    cases = []
    for i in range(COHORT_TARGETS):
        amplitude, center, width = rng.uniform(2, 12), rng.uniform(20, 100), rng.uniform(6, 10)
        shift = rng.uniform(-3, 3, size=3)
        target = phantom.make_phantom(_tube((center, amplitude, width)))
        target = target.with_vertices(target.vertices + shift)
        target_path = _write(root, f"target_{i:02d}.vtk", target, files)
        cases.append(_fit_case(template, template_path, target, target_path, COHORT_SETS, 2.0))
    return cases, files


def fit_commands(case, out, seed):
    argv = ["pipeline", "--template", case["template"], "--target", case["target"],
            "--out", out, "--seed", str(seed), "--jobs", "1"]
    for item in case["sets"]:
        argv += ["--set", item]
    return [argv]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_fit(case, out, seed):
    problems = []
    manifest = _read_json(os.path.join(out, "manifest.json"))
    if set(manifest["files"]) != BUNDLE:
        problems.append(f"manifest lists {sorted(manifest['files'])}")
    for name, digest in manifest["files"].items():
        if _sha256(os.path.join(out, name)) != digest:
            problems.append(f"{name} does not match its manifest hash")
    summary = _read_json(os.path.join(out, "summary.json"))
    if not summary["final_chamfer_mm"] <= CHAMFER_BOUND_MM:
        problems.append(f"chamfer {summary['final_chamfer_mm']} mm above {CHAMFER_BOUND_MM}")
    if not summary["min_jacobian"] > 0.0:
        problems.append(f"min Jacobian {summary['min_jacobian']} not positive")
    validate_report(_read_json(os.path.join(out, "report.json")))
    return problems


def same_fit_outputs(out_a, out_b):
    return _read_json(os.path.join(out_a, "manifest.json")) == _read_json(os.path.join(out_b, "manifest.json"))


# --- audit workload ---------------------------------------------------------

AUDIT_MESHES = 4  # even index clean, odd index jittered
PATCH = 8  # a jitter patch covers PATCH x PATCH vertices
MARGIN = 3  # face rings and slots around a patch that its brute-force crop adds
# Patches sit on the straight segments only. With displacements clipped to
# 2 sigma <= 1 mm per axis, a jittered face can reach faces at most two rings
# or slots away, so the crops hold every intersecting pair and no pair spans
# two patches.
ASCENDING_FIRST = (8, 40)  # first vertex ring of the ascending patch
DESCENDING_BANDS = 7  # descending patch bands, 24 rings apart from ring 146
SLOTS = 78
RECORDED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "intersections.json")


def _patches(rng):
    firsts = [int(rng.integers(*ASCENDING_FIRST))]
    firsts += [146 + 24 * k + int(rng.integers(0, 9)) for k in range(DESCENDING_BANDS)]
    out = []
    for a in firsts:
        c = int(rng.integers(0, SLOTS))
        out += [(a, c), (a, (c + SLOTS // 2) % SLOTS)]
    return out


def _jitter(mesh, patches, sigma, rng):
    verts = mesh.vertices.copy()
    c_n = mesh.ring_layout[0]
    for a, c in patches:
        idx = ((a + np.arange(PATCH))[:, None] * c_n + (c + np.arange(PATCH))[None, :] % c_n).ravel()
        verts[idx] += np.clip(rng.normal(0.0, sigma, (len(idx), 3)), -2 * sigma, 2 * sigma)
    return mesh.with_vertices(verts)


def audit_inputs(seed, root):
    """Four full-size phantoms with seeded bulges, odd ones jittered in patches."""
    rng = np.random.default_rng(seed)
    files = {}
    reference = _write(root, "reference.vtk", phantom.make_phantom(phantom.PhantomSpec()), files)
    cases = []
    for i in range(AUDIT_MESHES):
        amplitude, center, width = rng.uniform(2, 10), rng.uniform(30, 42), rng.uniform(6, 10)
        mesh = phantom.make_phantom(phantom.PhantomSpec(aneurysm=(center, amplitude, width)))
        patches = []
        if i % 2:
            patches = _patches(rng)
            mesh = _jitter(mesh, patches, rng.uniform(0.3, 0.5), rng)
        name = f"mesh_{i}.vtk"
        cases.append({"mesh": _write(root, name, mesh, files), "reference": reference,
                      "index": i, "patches": patches})
    return cases, files


def audit_commands(case, out, seed):
    return [
        ["quality", "--mesh", case["mesh"], "--out", os.path.join(out, "quality.json")],
        ["stress", "--mesh", case["mesh"], "--out", os.path.join(out, "stressed.vtk")],
        ["report", "--mesh", case["mesh"], "--reference", case["reference"],
         "--out", os.path.join(out, "report.json")],
    ]


def patch_intersections(mesh, patches):
    """Intersecting face pairs, by brute force over each patch's cropped faces."""
    c_n = mesh.ring_layout[0]
    face = np.arange(mesh.n_faces)
    ring, slot = face // c_n, face % c_n
    total = 0
    for a, c in patches:
        near = (ring >= a - 1 - MARGIN) & (ring < a + PATCH + MARGIN)
        near &= (slot - (c - 1 - MARGIN)) % c_n < PATCH + 1 + 2 * MARGIN
        crop = quadmesh.QuadMesh(mesh.vertices, mesh.faces[near], mesh.regions)
        total += self_intersections(crop, method="brute")[0]
    return total


def expected_intersections(case, seed):
    """Oracle count for one audit mesh: 0 when clean, else the patch brute force.

    Returns the count and the count recorded for the seed in
    ``intersections.json``, or None when none was recorded.
    """
    if not case["patches"]:
        return 0, None
    if "expected" not in case:
        mesh = quadmesh.load_mesh(case["mesh"])
        case["expected"] = patch_intersections(mesh, case["patches"])
    with open(RECORDED) as fh:
        recorded = json.load(fh).get(str(seed), {}).get(str(case["index"]))
    return case["expected"], recorded


def check_audit(case, out, seed):
    problems = []
    count = _read_json(os.path.join(out, "quality.json"))["self_intersection_count"]
    expected, recorded = expected_intersections(case, seed)
    if count != expected:
        problems.append(f"{count} intersecting pairs, brute force finds {expected}")
    if recorded is not None and recorded != expected:
        problems.append(f"brute force finds {expected} intersecting pairs, {recorded} recorded")
    limit = max(10.0 * MembraneModel().solver_tol, 1e-6)
    residual = _read_json(os.path.join(out, "stressed.stress.json"))["residual"]
    if not residual < limit:
        problems.append(f"stress residual {residual} not below {limit}")
    report = _read_json(os.path.join(out, "report.json"))
    validate_report(report)
    if not all("diameter_error_mm" in e for e in report["regions"].values()):
        problems.append("report lacks diameter errors against the reference")
    return problems


AUDIT_OUTPUTS = ("quality.json", "stressed.stress.json", "report.json")


def same_audit_outputs(out_a, out_b):
    return all(_sha256(os.path.join(out_a, n)) == _sha256(os.path.join(out_b, n)) for n in AUDIT_OUTPUTS)


# --- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    min_cases: int  # run at least this many cases, even past --seconds
    make_inputs: Callable  # (seed, dir) -> (cases, {file: sizes})
    commands: Callable  # (case, out_dir, seed) -> argv lists for cli.main
    check: Callable  # (case, out_dir, seed) -> problems
    same_outputs: Callable  # (out_a, out_b) -> bool, for a traced run's rerun


WORKLOADS = {
    w.name: w
    for w in (
        Workload("readme_bulge", 1, readme_inputs, fit_commands, check_fit, same_fit_outputs),
        Workload("cohort_small", 6, cohort_inputs, fit_commands, check_fit, same_fit_outputs),
        Workload("audit_existing", 2, audit_inputs, audit_commands, check_audit, same_audit_outputs),
    )
}
