"""SVF fitting: config, control grids, upsampling, end-to-end fits and their step control."""

import numpy as np
import pytest

from conftest import bulged_cylinder, straight_cylinder

from aortafit import diffeo, fitter
from aortafit.diffeo import DiffeoConfig, exponentiate, jacobian_determinant, warp_vertices
from aortafit.fitter import (
    FitConfig,
    bounding_grid,
    control_grid,
    fit_svf,
    upsample_svf,
)
from aortafit.objective import LossWeights, total_loss
from aortafit.volgrid import GridGeom, VectorField3D, trilinear_sample


@pytest.fixture(scope="module")
def translation_pair():
    template = straight_cylinder(circumferential=8, axial=10, length=30.0, radius=5.0)
    target = template.with_vertices(template.vertices + np.array([1.2, -0.8, 0.6]))
    grid = bounding_grid([template, target], spacing=2.0, margin=6.0)
    return template, target, grid


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_config_normalizes_dims():
    cfg = FitConfig(svf_dims=[8.0, 8, 8], levels=[[4, 4, 4], (8, 8, 8)])
    assert cfg.svf_dims == (8, 8, 8)
    assert cfg.levels == ((4, 4, 4), (8, 8, 8))
    assert all(isinstance(d, int) for d in cfg.svf_dims)


def test_config_validation_errors():
    with pytest.raises(ValueError, match=">= 2"):
        FitConfig(svf_dims=(1, 4, 4), levels=((1, 4, 4),))
    with pytest.raises(ValueError, match="3 axes"):
        FitConfig(svf_dims=(4, 4), levels=((4, 4),))
    with pytest.raises(ValueError, match="nondecreasing"):
        FitConfig(svf_dims=(4, 4, 4), levels=((8, 8, 8), (4, 4, 4)))
    with pytest.raises(ValueError, match="last level"):
        FitConfig(svf_dims=(16, 16, 16), levels=((8, 8, 8),))
    with pytest.raises(ValueError, match="iters_per_level"):
        FitConfig(iters_per_level=0)
    with pytest.raises(ValueError, match="at least one grid"):
        FitConfig(levels=())
    with pytest.raises(ValueError, match="lists of grid dims"):
        FitConfig(levels=(8,), svf_dims=(8, 8, 8))


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def test_control_grid_corner_aligned():
    base = GridGeom((33, 17, 9), (0.7, 1.1, 2.3), (-3.0, 4.5, 0.25))
    ctrl = control_grid(base, (5, 4, 3))
    assert ctrl.dims == (5, 4, 3)
    assert ctrl.origin == base.origin
    for ax in range(3):
        far_ctrl = ctrl.origin[ax] + (ctrl.dims[ax] - 1) * ctrl.spacing[ax]
        far_base = base.origin[ax] + (base.dims[ax] - 1) * base.spacing[ax]
        assert far_ctrl == pytest.approx(far_base, rel=1e-15)


def test_bounding_grid_contains_meshes():
    rng = np.random.default_rng(5)
    mesh = straight_cylinder(circumferential=6, axial=5, length=20.0)
    jig = mesh.with_vertices(mesh.vertices + rng.normal(0, 0.5, mesh.vertices.shape))
    grid = bounding_grid([mesh, jig], spacing=1.5, margin=4.0)
    lo = np.minimum(mesh.vertices.min(axis=0), jig.vertices.min(axis=0))
    hi = np.maximum(mesh.vertices.max(axis=0), jig.vertices.max(axis=0))
    assert np.allclose(grid.origin, lo - 4.0, atol=1e-12)
    assert grid.spacing == (1.5, 1.5, 1.5)
    far = np.array(grid.origin) + (np.array(grid.dims) - 1) * 1.5
    assert np.all(far >= hi + 4.0 - 1e-9)
    expect_dims = tuple(int(np.ceil((h - l) / 1.5)) + 1 for l, h in zip(lo - 4.0, hi + 4.0))
    assert grid.dims == expect_dims


# ---------------------------------------------------------------------------
# SVF upsampling
# ---------------------------------------------------------------------------

def test_upsample_same_dims_is_identity():
    rng = np.random.default_rng(8)
    geom = GridGeom((4, 5, 6), (1.0, 2.0, 0.5), (0.0, 0.0, 0.0))
    svf = VectorField3D(geom, rng.normal(size=(4, 5, 6, 3)))
    out = upsample_svf(svf, (4, 5, 6))
    assert np.array_equal(out.data, svf.data)
    assert out.geom == geom


def test_upsample_constant_rescales_by_dims_ratio():
    # Components are voxel displacements: refining the grid shrinks the
    # voxel, so the numbers grow by (new-1)/(old-1) while the physical
    # velocity stays put.
    geom = GridGeom((4, 4, 4), (2.0, 2.0, 2.0), (0.0, 0.0, 0.0))
    svf = VectorField3D(geom, np.tile([0.5, -1.25, 2.0], (4, 4, 4, 1)))
    out = upsample_svf(svf, (7, 10, 4))
    assert np.allclose(out.data, [1.0, -3.75, 2.0], atol=1e-14)
    assert np.allclose(out.geom.spacing, (1.0, 2.0 / 3.0, 2.0), rtol=1e-15)
    assert out.geom.origin == geom.origin
    # mm velocity at any node: data * spacing, unchanged by refinement
    assert np.allclose(out.data[0, 0, 0] * out.geom.spacing,
                       svf.data[0, 0, 0] * geom.spacing, rtol=1e-14)


def test_upsample_linear_ramp_exact():
    geom = GridGeom((5, 4, 3), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    data = np.zeros((5, 4, 3, 3))
    data[..., 0] = 2.5 * np.arange(5)[:, None, None]
    out = upsample_svf(VectorField3D(geom, data), (9, 7, 3))
    expect = 2.5 * np.arange(9)[:, None, None]
    assert np.allclose(out.data[..., 0], expect, atol=1e-12)
    assert np.allclose(out.data[..., 1:], 0.0, atol=1e-14)


def test_upsample_refuses_to_shrink():
    geom = GridGeom((8, 8, 8), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    svf = VectorField3D(geom, np.zeros((8, 8, 8, 3)))
    with pytest.raises(ValueError, match="cannot shrink"):
        upsample_svf(svf, (8, 4, 8))


# ---------------------------------------------------------------------------
# End-to-end fits
# ---------------------------------------------------------------------------

def test_fit_identical_meshes_is_fixed_point(translation_pair):
    template, _, grid = translation_pair
    cfg = FitConfig(svf_dims=(4, 4, 4), levels=((4, 4, 4),), iters_per_level=40,
                    weights=LossWeights(alpha=0.0))
    svf, _, history, summary = fit_svf(template, template, grid, cfg)
    assert np.all(svf.data == 0.0)
    assert summary["final_chamfer_mm"] == 0.0
    assert summary["final"]["total"] == 0.0
    assert summary["min_jacobian"] == 1.0
    assert len(history["loss"]) == 1  # the zero gradient stops it at once
    assert history["levels"][0]["stop"] == "zero_gradient"


def test_fit_recovers_translation(translation_pair):
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(6, 6, 6), levels=((4, 4, 4), (6, 6, 6)),
                    iters_per_level=60)
    svf, fitted, history, summary = fit_svf(template, target, grid, cfg)
    assert summary["final_chamfer_mm"] < 0.1
    assert np.abs(fitted.vertices - target.vertices).max() < 0.25
    assert summary["min_jacobian"] > 0.5
    assert history["level_starts"] == [0, history["levels"][0]["forward_passes"]]
    assert svf.geom == control_grid(grid, (6, 6, 6))
    # best-of-final-level is what gets returned
    assert summary["final"]["total"] <= min(history["loss"][history["level_starts"][-1]:]) + 1e-15


def test_fit_deterministic_rerun(translation_pair):
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(6, 6, 6), levels=((4, 4, 4), (6, 6, 6)),
                    iters_per_level=25)
    a = fit_svf(template, target, grid, cfg)
    b = fit_svf(template, target, grid, cfg)
    assert np.array_equal(a[0].data, b[0].data)
    assert np.array_equal(a[1].vertices, b[1].vertices)
    assert a[2:] == b[2:]  # the history and summary, every number exactly


def test_fit_step_guard_overflow_raises_floating_point_error_naming_level(translation_pair, blown_up_upsample):
    # A level's first field past the squaring-step guard is a numerical
    # failure of the fit, not an invalid input, and the message names the
    # level it failed at: the first level never upsamples, so it is level 2.
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(6, 6, 6), levels=((4, 4, 4), (6, 6, 6)), iters_per_level=5)
    with pytest.raises(FloatingPointError, match=r"^fit level 2 of 2: field needs \d+ squaring steps"):
        fit_svf(template, target, grid, cfg)


def test_fit_reused_operators_match_reference_loop(translation_pair):
    # fit_svf builds one vertex sampler per level, linearizes accepted forward
    # passes and returns the last one's warped mesh, loss and certificate.
    # Public calls that share nothing with the fit must give the returned
    # field exactly those, and the loss the fit recorded as its last level's
    # minimum; a stale or mis-scaled operator, or a stale pass, would not.
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(6, 6, 6), levels=((4, 4, 4), (6, 6, 6)), iters_per_level=12)
    svf, fitted, history, summary = fit_svf(template, target, grid, cfg)
    disp = exponentiate(svf)
    warped = warp_vertices(template, disp, svf.geom)
    assert np.array_equal(fitted.vertices, warped.vertices)
    assert summary["final"] == total_loss(warped, target, cfg.weights)
    assert summary["min_jacobian"] == jacobian_determinant(disp).min()
    last_level = history["loss"][history["level_starts"][-1]:]
    assert summary["final"]["total"] == min(last_level)
    assert min(last_level) < last_level[0]


def test_fit_budget_caps_forward_passes_plus_hessian_products(translation_pair, monkeypatch):
    # Each Hessian-vector product is one jvp; the gradient takes none.
    counts = {}

    def spy(owner, name, dims_of):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            key = dims_of(*args)
            counts[key] = counts.get(key, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    spy(fitter, "_forward", lambda svf, cfg: svf.geom.dims)
    spy(diffeo.Linearization, "jvp", lambda lin, d: lin.shape[:3])
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(6, 6, 6), levels=((4, 4, 4), (6, 6, 6)), iters_per_level=17)
    levels = fit_svf(template, target, grid, cfg)[2]["levels"]
    for dims, record in zip(cfg.levels, levels):
        assert counts[dims] <= cfg.iters_per_level
        assert record["forward_passes"] + record["hessian_products"] == counts[dims]
    assert any(r["stop"] == "budget" for r in levels)


def test_fit_accepted_losses_strictly_decrease(translation_pair, monkeypatch):
    # The gradient is taken once per linearized field: the level's first and
    # every accepted one that leaves budget for a product. The losses seen
    # there fall strictly within a level, and the returned field's is lower
    # still. With 60 passes plus products the first level stops on its budget
    # right after an accepted step and the second on the tolerance; with 29
    # both stop on their budget right after an accepted step. Such a level
    # reports the gradient it last stepped from.
    seen, norms = [], []
    real_sampler, real_grad, real_vjp = fitter.vertex_sampler, fitter.loss_grad, fitter.exp_vjp

    def level_start(mesh, geom):
        seen.append([])
        norms.append([])
        return real_sampler(mesh, geom)

    def grad(warped, target, weights):
        seen[-1].append(total_loss(warped, target, weights)["total"])
        return real_grad(warped, target, weights)

    def vjp(svf, lin, vertex_grad):
        out = real_vjp(svf, lin, vertex_grad)
        norms[-1].append(float(np.max(np.abs(out.data))))
        return out

    monkeypatch.setattr(fitter, "vertex_sampler", level_start)
    monkeypatch.setattr(fitter, "loss_grad", grad)
    monkeypatch.setattr(fitter, "exp_vjp", vjp)
    template, target, grid = translation_pair
    for iters, stops in ((60, ["budget", "tolerance"]), (29, ["budget", "budget"])):
        seen.clear()
        norms.clear()
        cfg = FitConfig(svf_dims=(6, 6, 6), levels=((4, 4, 4), (6, 6, 6)), iters_per_level=iters)
        _, _, history, summary = fit_svf(template, target, grid, cfg)
        assert [r["stop"] for r in history["levels"]] == stops
        starts = history["level_starts"]
        ends = starts[1:] + [len(history["loss"])]
        for record, start, end, level, level_norms in zip(history["levels"], starts, ends, seen, norms):
            losses = np.asarray(history["loss"][start:end])
            stepped_last = len(losses) > 1 and losses[-1] < losses[:-1].min()  # the last pass was accepted
            assert len(level) == 1 + record["accepted_steps"] - (stepped_last and record["stop"] != "zero_gradient")
            assert len(level) > 2 and np.all(np.diff(level) < 0.0)
            assert record["grad_inf_norm"] == level_norms[-1]
        assert summary["final"]["total"] <= seen[-1][-1]


def test_fit_records_raised_squaring_steps(translation_pair):
    # Each level records the squaring steps of the field it returns: the
    # floor of 3 for a small motion, more once max |tau| passes 4 voxels: 6 or
    # more here, past 16 voxels.
    template, _, _ = translation_pair
    far = template.with_vertices(template.vertices + np.array([50.0, 0.0, 0.0]))
    grid = bounding_grid([template, far], spacing=2.0, margin=6.0)
    cfg = FitConfig(svf_dims=(24, 6, 6), levels=((24, 6, 6),), iters_per_level=60)
    svf, _, history, _ = fit_svf(template, far, grid, cfg)
    assert np.abs(svf.data).max() > 16.0
    assert history["levels"][0]["squaring_steps"] == DiffeoConfig().resolve_steps(svf) > 5


@pytest.mark.parametrize("bulge", [
    (8.0, 8.0, None),
    pytest.param((10.5, 6.0, 78.0), marks=pytest.mark.xfail(strict=True, reason=(
        "the translation moves this fit's field by 1.8% of its largest entry"))),
])
def test_common_translation_leaves_the_fit(tube24, bulge):
    # Template and target moved together carry their bounding grid along, so
    # the fitted field, chamfer and certificate stay put. On one 8^3 level
    # with a budget of 12, the 8 mm bulge measured 1.2e-15 of the largest
    # field entry, 3.5e-16 relative chamfer and an equal min Jacobian.
    # Over 10 seeded bulges (amplitude 2-12, width 6-10, center 20-100 mm)
    # the field agreed within 8e-14 in 5, 7e-11 to 2e-8 in 4, and moved by
    # 2e-2 in one, the second case here.
    amplitude, width, center = bulge
    target = bulged_cylinder(amplitude=amplitude, width=width, center=center)
    shift = np.array([100.25, -37.5, 12.0])
    cfg = FitConfig(svf_dims=(8, 8, 8), levels=((8, 8, 8),), iters_per_level=12)
    ref_svf, _, _, ref = fit_svf(tube24, target, bounding_grid([tube24, target], spacing=2.0, margin=5.0), cfg)
    moved = [mesh.with_vertices(mesh.vertices + shift) for mesh in (tube24, target)]
    got_svf, _, _, got = fit_svf(*moved, bounding_grid(moved, spacing=2.0, margin=5.0), cfg)
    assert got_svf.geom.dims == ref_svf.geom.dims
    assert np.abs(got_svf.data - ref_svf.data).max() <= 1e-13 * np.abs(ref_svf.data).max()
    assert got["final_chamfer_mm"] == pytest.approx(ref["final_chamfer_mm"], rel=1e-13, abs=0.0)
    assert got["min_jacobian"] == pytest.approx(ref["min_jacobian"], rel=0.0, abs=1e-13)


# Acceptance criterion 7's small configuration, at the default diffeo section.
SMALL = FitConfig(svf_dims=(16, 16, 16), levels=((8, 8, 8), (16, 16, 16)), iters_per_level=80)


@pytest.fixture(scope="module", params=[0, 1, 2])
def small_fit(request, tube24):
    """(seed, fit): the small configuration's fit of tube24 to a seeded bulged
    (2-12 mm) and shifted (+-3 mm) tube on a 2 mm image grid."""
    rng = np.random.default_rng(request.param)
    amplitude, center, width = rng.uniform(2, 12), rng.uniform(20, 100), rng.uniform(6, 10)
    target = bulged_cylinder(amplitude=amplitude, width=width, center=center)
    target = target.with_vertices(target.vertices + rng.uniform(-3, 3, size=3))
    return request.param, fit_svf(tube24, target, bounding_grid([tube24, target], spacing=2.0, margin=5.0), SMALL)


def test_small_config_fits_bulged_shifted_tubes(small_fit):
    # On 8^3 and 16^3 grids the fit must land within criterion 3's chamfer
    # bound with a positive Jacobian. Each level records its squaring steps:
    # the floor of 3, or 4 where the fine field passes 4 voxels (seed 0).
    seed, (_, _, history, summary) = small_fit
    assert summary["final_chamfer_mm"] <= 0.5
    assert summary["min_jacobian"] > 0.0
    assert [level["squaring_steps"] for level in history["levels"]] == {0: [3, 4], 1: [3, 3], 2: [3, 3]}[seed]


def test_default_steps_as_close_to_the_flow_as_eight(tube24, small_fit):
    # At the template vertices, exp of a fitted field at the default steps is
    # no further from the field's 4096-step Euler flow than exp at 8 steps,
    # plus 0.05 mm: there trilinear interpolation, not the step count, sets
    # the error. Over seeds 0-19 the default sat 0.011-0.160 mm closer than 8
    # steps in 19 fits and 0.018 mm further in one, against 8 steps'
    # 0.47-2.53 mm. These fields (2.8-4.8 voxels) take 3 or more steps at any
    # floor: criterion 1 guards the floor itself.
    svf = small_fit[1][0]
    start = svf.geom.world_to_voxel(tube24.vertices)
    x = start.copy()
    for _ in range(4096):
        x = x + trilinear_sample(svf, x) / 4096
    spacing = np.asarray(svf.geom.spacing)

    def worst(cfg):
        return np.linalg.norm((x - start - trilinear_sample(exponentiate(svf, cfg), start)) * spacing, axis=1).max()

    assert worst(DiffeoConfig()) <= worst(DiffeoConfig(squaring_steps=8)) + 0.05
