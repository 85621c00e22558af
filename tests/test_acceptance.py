"""Acceptance suite: one test per release criterion, printed as PASS lines.

Each criterion gets a single test function that exercises the documented
bound end to end and reports a one-line verdict on the terminal (bypassing
capture, so the lines show up in plain ``pytest -v`` runs). Tolerances are
the contract values, not what the implementation happens to achieve.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import bulged_cylinder, linearize, smooth_svf, straight_cylinder

from aortafit.cli import main
from aortafit.clinical import (
    max_diameter_per_region,
    regional_stress_stats,
    validate_report,
)
from aortafit.diffeo import (
    DiffeoConfig,
    exp_vjp,
    exponentiate,
    jacobian_determinant,
    warp_vertices,
)
from aortafit.fea import MembraneModel, solve_membrane_stress
from aortafit.fitter import FitConfig, bounding_grid, fit_svf
from aortafit.objective import LossWeights, loss_grad, total_loss
from aortafit.quadmesh import QuadMesh, face_regions, save_mesh
from aortafit.quality import element_metrics, quality_report, self_intersections
from aortafit.volgrid import GridGeom, VectorField3D, trilinear_sample


def _announce(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


# ---------------------------------------------------------------------------
# 1. Diffeomorphism suite
# ---------------------------------------------------------------------------

def test_criterion_1_diffeomorphism_suite(capsys):
    t0 = time.monotonic()
    dims = (32, 32, 32)
    geom = GridGeom(dims)

    # exp(0) = identity, exactly
    zero = exponentiate(VectorField3D(geom, np.zeros(dims + (3,))))
    assert np.all(zero.data == 0.0)

    # exp(constant) = translation by the constant, 1e-9 in the interior
    c = np.array([0.7, -0.3, 0.45])
    const = exponentiate(VectorField3D(geom, np.broadcast_to(c, dims + (3,)).copy()))
    assert np.abs(const.data[1:-1, 1:-1, 1:-1] - c).max() < 1e-9

    # exp vs 4096-step Euler integration of dx/dt = tau(x), 100 probes
    euler_errs = []
    for seed in (301, 305):
        svf = smooth_svf(dims, max_abs=2.0, seed=seed, sigma=8.0)
        disp = exponentiate(svf)
        probes = np.random.default_rng(42).uniform(4.0, 27.0, size=(100, 3))
        m = 4096
        x = probes.copy()
        for _ in range(m):
            x = x + trilinear_sample(svf, x) / m
        err = np.linalg.norm((x - probes) - trilinear_sample(disp, probes), axis=1).max()
        assert err < 1e-3, f"seed {seed}"
        euler_errs.append(err)

    # inverse consistency: exp(tau) then exp(-tau) returns within 0.05 voxel
    svf = smooth_svf(dims, max_abs=2.0, seed=307, sigma=8.0)
    fwd = exponentiate(svf)
    bwd = exponentiate(VectorField3D(svf.geom, -svf.data))
    ii, jj, kk = np.meshgrid(*(np.arange(3.0, 29.0),) * 3, indexing="ij")
    x = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)
    ub = trilinear_sample(bwd, x)
    roundtrip = np.linalg.norm(ub + trilinear_sample(fwd, x + ub), axis=1).max()
    assert roundtrip < 0.05

    # 100 random bounded smooth fields keep a positive Jacobian
    min_det = np.inf
    for seed in range(100):
        amp = 0.5 + 1.5 * (seed / 99.0)
        f = smooth_svf(dims, max_abs=amp, seed=1000 + seed, sigma=8.0)
        det = jacobian_determinant(exponentiate(f))
        min_det = min(min_det, det.min())
    assert min_det > 0.0

    wall = time.monotonic() - t0
    assert wall < 60.0
    _announce(capsys, f"criterion 1 PASS: exp(0) exact, exp(c) 1e-9, euler "
                      f"{max(euler_errs):.2e} < 1e-3, inverse {roundtrip:.2e} < 0.05, "
                      f"min det {min_det:.3f} > 0 (100 fields), {wall:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. Gradient suite
# ---------------------------------------------------------------------------

def test_criterion_2_gradients_match_finite_differences(capsys):
    # 100 loss_grad trials: one random coordinate each, central differences
    base = straight_cylinder(circumferential=6, axial=5, length=12.0)
    w = LossWeights(omega=(0.35, 0.25, 0.25, 0.15), alpha=0.08)
    rng = np.random.default_rng(68)
    worst_loss = 0.0
    for trial in range(100):
        jit = rng.normal(0.0, 0.3, size=base.vertices.shape)
        pred = base.with_vertices(base.vertices + jit)
        g = loss_grad(pred, base, w)
        i = rng.integers(0, base.n_vertices)
        a = rng.integers(0, 3)
        h = 1e-6
        vp = pred.vertices.copy()
        vp[i, a] += h
        up = total_loss(pred.with_vertices(vp), base, w)["total"]
        vp[i, a] -= 2 * h
        dn = total_loss(pred.with_vertices(vp), base, w)["total"]
        fd = (up - dn) / (2 * h)
        rel = abs(fd - g[i, a]) / max(abs(fd), abs(g[i, a]), 1e-10)
        assert rel < 1e-5, f"loss trial {trial}"
        worst_loss = max(worst_loss, rel)

    # 100 exp_vjp trials on an 8^3 grid and a 40-vertex mesh
    mesh = straight_cylinder(circumferential=8, axial=5, length=10.0, radius=2.5)
    grid = GridGeom((8, 8, 8), spacing=(5.0, 5.0, 5.0), origin=(-17.5, -17.5, -12.5))
    cfg = DiffeoConfig(squaring_steps=4)
    assert mesh.n_vertices <= 100
    worst_vjp = 0.0
    for trial in range(100):
        svf = VectorField3D(grid, smooth_svf(grid.dims, max_abs=0.4, seed=2000 + trial).data)
        a = rng.standard_normal(mesh.vertices.shape)

        def loss(fld):
            warped = warp_vertices(mesh, exponentiate(fld, cfg), grid)
            return float(np.sum(a * warped.vertices))

        g = exp_vjp(svf, linearize(svf, cfg, mesh, grid), a).data
        d = rng.standard_normal(svf.data.shape)
        d /= np.linalg.norm(d.ravel())
        h = 1e-5
        fd = (loss(VectorField3D(grid, svf.data + h * d))
              - loss(VectorField3D(grid, svf.data - h * d))) / (2.0 * h)
        analytic = float(np.sum(g * d))
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), np.linalg.norm(g.ravel()) * 1e-6)
        assert rel < 1e-4, f"vjp trial {trial}"
        worst_vjp = max(worst_vjp, rel)

    _announce(capsys, f"criterion 2 PASS: loss_grad worst rel {worst_loss:.2e} < 1e-5 "
                      f"(100 trials), exp_vjp worst rel {worst_vjp:.2e} < 1e-4 (100 trials)")


# ---------------------------------------------------------------------------
# 3. Fitter recovery
# ---------------------------------------------------------------------------

def test_criterion_3_fitter_recovery(capsys, tube24):
    template = tube24
    cfg = FitConfig()

    # translated phantom, default full-size configuration
    target_t = template.with_vertices(template.vertices + np.array([3.0, -2.0, 1.5]))
    grid_t = bounding_grid([template, target_t], spacing=1.0, margin=5.0)
    t0 = time.monotonic()
    svf_t, fitted_t, history_t, summary_t = fit_svf(template, target_t, grid_t, cfg)
    wall_t = time.monotonic() - t0
    assert wall_t < 300.0
    assert summary_t["final_chamfer_mm"] < 0.1
    assert summary_t["min_jacobian"] > 0.0
    best = np.minimum.accumulate(history_t["loss"])
    assert np.all(np.diff(best) <= 0.0)

    # Gaussian bulge, 8 mm amplitude
    target_b = bulged_cylinder(amplitude=8.0, width=8.0)
    grid_b = bounding_grid([template, target_b], spacing=1.0, margin=5.0)
    t0 = time.monotonic()
    _, _, history_b, summary_b = fit_svf(template, target_b, grid_b, cfg)
    wall_b = time.monotonic() - t0
    assert wall_b < 300.0
    assert summary_b["final_chamfer_mm"] < 0.5
    assert summary_b["min_jacobian"] > 0.0
    best = np.minimum.accumulate(history_b["loss"])
    assert np.all(np.diff(best) <= 0.0)

    # bit-identical rerun under the same seed and config
    rerun_svf, rerun_fitted, rerun_history, _ = fit_svf(template, target_t, grid_t, cfg)
    assert np.array_equal(rerun_svf.data, svf_t.data)
    assert np.array_equal(rerun_history["loss"], history_t["loss"])
    assert np.array_equal(rerun_fitted.vertices, fitted_t.vertices)

    _announce(capsys, f"criterion 3 PASS: translation chamfer {summary_t['final_chamfer_mm']:.2e} "
                      f"< 0.1 ({wall_t:.0f}s), bulge chamfer {summary_b['final_chamfer_mm']:.2e} < 0.5 "
                      f"({wall_b:.0f}s), min jac {summary_b['min_jacobian']:.3f} > 0, "
                      f"best nonincreasing, rerun bit-identical")


# ---------------------------------------------------------------------------
# 4. Quality suite
# ---------------------------------------------------------------------------

def test_criterion_4_quality_suite(capsys, arch_small, default_phantom, tube24):
    # unit square: exact scores
    square = element_metrics([[[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]])
    assert square["equiangle_skew"][0] == 0.0
    assert square["aspect_ratio"][0] == 1.0
    assert square["scaled_jacobian"][0] == 1.0
    assert np.all(square["angles"][0] == 90.0)

    # 60 degree rhombus to 1e-12
    rhomb = element_metrics([[[0.0, 0, 0], [1, 0, 0],
                              [1 + np.cos(np.pi / 3), np.sin(np.pi / 3), 0],
                              [np.cos(np.pi / 3), np.sin(np.pi / 3), 0]]])
    assert rhomb["equiangle_skew"][0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert rhomb["scaled_jacobian"][0] == pytest.approx(np.sin(np.pi / 3), abs=1e-12)
    assert sorted(rhomb["angles"][0]) == pytest.approx([60, 60, 120, 120], abs=1e-12)

    # 2 x 1 rectangle aspect
    rect = element_metrics([[[0.0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0]]])
    assert rect["aspect_ratio"][0] == pytest.approx(1.5, abs=1e-12)

    # BVH intersection search equals brute force on every mesh <= 500 faces
    rng = np.random.default_rng(33)
    pierced = arch_small.with_vertices(arch_small.vertices.copy())
    from aortafit.quadmesh import rings

    ring = rings(arch_small)[12]
    v = pierced.vertices.copy()
    center = v[ring].mean(axis=0)
    v[ring[0]] = center + (center - v[ring[0]]) * 1.4
    pierced = arch_small.with_vertices(v)

    def _soup(n, seed):
        r = np.random.default_rng(seed)
        quads = []
        for _ in range(n):
            c = r.uniform(-4, 4, 3)
            e1, e2 = r.uniform(-2, 2, 3), r.uniform(-2, 2, 3)
            quads.append([c, c + e1, c + e1 + e2, c + e2])
        quads = np.asarray(quads)
        verts = quads.reshape(-1, 3)
        faces = np.arange(len(verts)).reshape(-1, 4)
        return QuadMesh(verts, faces, np.zeros(len(verts), dtype=np.int8))

    suite = [straight_cylinder(circumferential=6, axial=5, length=10.0),
             arch_small, pierced,
             _soup(25, 101), _soup(40, 102), _soup(50, 103)]
    checked = 0
    for mesh in suite:
        assert mesh.n_faces <= 500
        n_bvh, pairs_bvh = self_intersections(mesh, method="bvh")
        n_brute, pairs_brute = self_intersections(mesh, method="brute")
        assert n_bvh == n_brute
        assert sorted(map(tuple, pairs_bvh)) == sorted(map(tuple, pairs_brute))
        checked += 1
    assert self_intersections(pierced, method="bvh")[0] > 0  # suite is not vacuous

    # phantom meshes are intersection-free
    phantom_mesh, phantom_report = default_phantom
    assert phantom_report["self_intersection_count"] == 0
    assert quality_report(arch_small)["self_intersection_count"] == 0
    assert quality_report(tube24)["self_intersection_count"] == 0

    _announce(capsys, f"criterion 4 PASS: unit square exact, rhombus 1e-12, aspect 1.5, "
                      f"bvh == brute on {checked} meshes <= 500 faces, phantom meshes "
                      f"0 self-intersections ({phantom_mesh.n_faces} faces)")


# ---------------------------------------------------------------------------
# 5. Membrane FEA oracles
# ---------------------------------------------------------------------------

def test_criterion_5_membrane_oracles(capsys, tube24, sphere32):
    t0 = time.monotonic()
    field = solve_membrane_stress(tube24, MembraneModel())
    wall = time.monotonic() - t0
    assert wall < 120.0
    band = np.arange(tube24.n_faces) // 24
    mid = (band >= 20) & (band < 40)
    hoop_err = np.abs(field.cauchy[mid, 0] / 120.0 - 1.0).max()
    assert hoop_err < 0.02
    assert field.residual <= 1e-6

    sph = solve_membrane_stress(sphere32, MembraneModel())
    s1_err = abs(sph.principal[:, 0].mean() / 60.0 - 1.0)
    s2_err = abs(sph.principal[:, 1].mean() / 60.0 - 1.0)
    assert s1_err < 0.02 and s2_err < 0.02
    assert np.abs(sph.cauchy[:, 2]).mean() < 0.02 * 60.0
    assert sph.residual <= 1e-6

    double_p = solve_membrane_stress(tube24, MembraneModel(pressure=32.0))
    assert np.array_equal(double_p.resultants, 2.0 * field.resultants)
    double_t = solve_membrane_stress(tube24, MembraneModel(thickness=4.0))
    assert np.array_equal(double_t.resultants, field.resultants)
    assert np.array_equal(double_t.cauchy, 0.5 * field.cauchy)

    _announce(capsys, f"criterion 5 PASS: cylinder hoop within {hoop_err:.2%} of 120 kPa, "
                      f"sphere means within {max(s1_err, s2_err):.2%} of 60 kPa, residuals "
                      f"<= 1e-6, p and 1/t linearity exact, solve {wall:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 6. Clinical metrics
# ---------------------------------------------------------------------------

def test_criterion_6_clinical_metrics(capsys, tube24):
    diam = max_diameter_per_region(tube24)
    for name, (d, _) in diam.items():
        assert d == pytest.approx(30.0, abs=5e-4), name  # 30.000 mm

    bulge = bulged_cylinder(amplitude=5.0, width=4.0, center=36.0)
    asc = max_diameter_per_region(bulge)["ascending"][0]
    assert abs(asc / 40.0 - 1.0) < 0.02

    field = solve_membrane_stress(tube24, MembraneModel())
    stats = regional_stress_stats(tube24, field)
    fr = face_regions(tube24)
    codes = {"root": 0, "ascending": 1, "arch": 2, "descending": 3}
    weighted = sum(stats[n][0] * (fr == codes[n]).sum() for n in stats)
    global_mean = field.principal[:, 0].mean()
    assert weighted / tube24.n_faces == pytest.approx(global_mean, rel=1e-12)

    _announce(capsys, f"criterion 6 PASS: cylinder 30.000 mm in all regions, bulge "
                      f"ascending {asc:.2f} mm within 2% of 40, stress partition "
                      f"identity exact")


# ---------------------------------------------------------------------------
# 7. Pipeline determinism
# ---------------------------------------------------------------------------

def test_criterion_7_pipeline_determinism(capsys, tmp_path, tube24):
    template_path = str(tmp_path / "template.vtk")
    target_path = str(tmp_path / "bulge.vtk")
    save_mesh(tube24, template_path)
    save_mesh(bulged_cylinder(amplitude=8.0, width=8.0), target_path)

    args = ["pipeline", "--template", template_path, "--target", target_path,
            "--seed", "11",
            "--set", "fit.levels=[[8,8,8],[16,16,16]]",
            "--set", "fit.svf_dims=[16,16,16]",
            "--set", "fit.iters_per_level=80",
            "--set", "grid.spacing=2.0"]
    out_a = str(tmp_path / "run_a")
    out_b = str(tmp_path / "run_b")
    assert main(args + ["--out", out_a]) == 0
    assert main(args + ["--out", out_b]) == 0

    report = json.loads(Path(out_a, "report.json").read_text())
    validate_report(report)
    manifest_a = json.loads(Path(out_a, "manifest.json").read_text())
    manifest_b = json.loads(Path(out_b, "manifest.json").read_text())
    expected = {"fitted.vtk", "svf.hdr", "svf.raw", "history.json", "summary.json",
                "quality.json", "stressed.vtk", "report.json"}
    assert set(manifest_a["files"]) == expected
    assert manifest_a == manifest_b  # every artifact hash identical

    _announce(capsys, f"criterion 7 PASS: pipeline bundle schema-valid, "
                      f"{len(expected)} artifacts byte-identical across reruns")
