"""SVF fitting: config, control grids, upsampling, optimizer, end-to-end fits."""

import numpy as np
import pytest

from conftest import straight_cylinder

from aortafit import fitter
from aortafit.diffeo import DiffeoConfig, exp_vjp, exponentiate, warp_vertices
from aortafit.fitter import (
    FitConfig,
    FitDivergence,
    _adam_state,
    _update,
    bounding_grid,
    control_grid,
    fit_svf,
    upsample_svf,
)
from aortafit.objective import LossWeights, loss_grad, total_loss
from aortafit.volgrid import GridGeom, VectorField3D


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
# Optimizer update rule
# ---------------------------------------------------------------------------

def _gd(step):
    """Plain gradient descent in place of ``fitter._update``, for the failure tests."""
    return lambda tau, grad, state: tau - step * grad


def test_adam_first_step_formula():
    rng = np.random.default_rng(4)
    tau = rng.normal(size=(3, 3, 3, 3))
    grad = rng.normal(size=(3, 3, 3, 3))
    state = _adam_state(tau.shape)
    out = _update(tau, grad, state)
    # After one step the bias correction cancels: mhat == grad and the scale
    # is the field-wide max |grad|.
    gmax = np.abs(grad).max()
    assert np.allclose(out, tau - 0.25 * grad / (gmax + 1e-12), rtol=1e-12)
    assert state["u"] == gmax
    assert state["t"] == 1


def test_adam_zero_gradient_keeps_field():
    tau = np.full((3, 3, 3, 3), 0.7)
    state = _adam_state(tau.shape)
    out = _update(tau, np.zeros_like(tau), state)
    assert np.array_equal(out, tau)
    # The infinity-norm scale decays once gradients arrive and vanish again.
    _update(tau, np.full_like(tau, 2.0), state)
    u_after = state["u"]
    _update(tau, np.zeros_like(tau), state)
    assert state["u"] == pytest.approx(0.999 * u_after, rel=1e-15)


# ---------------------------------------------------------------------------
# End-to-end fits
# ---------------------------------------------------------------------------

def test_fit_identical_meshes_is_fixed_point(translation_pair):
    template, _, grid = translation_pair
    cfg = FitConfig(svf_dims=(4, 4, 4), levels=((4, 4, 4),), iters_per_level=40,
                    weights=LossWeights(alpha=0.0))
    res = fit_svf(template, template, grid, cfg)
    assert np.all(res.svf.data == 0.0)
    assert res.final_chamfer == 0.0
    assert res.final.total == 0.0
    assert res.min_jacobian == 1.0
    assert len(res.history) <= 30  # plateau tolerance stops it early


def test_fit_recovers_translation(translation_pair):
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(6, 6, 6), levels=((4, 4, 4), (6, 6, 6)),
                    iters_per_level=60)
    res = fit_svf(template, target, grid, cfg)
    assert res.final_chamfer < 0.1
    assert np.abs(res.fitted.vertices - target.vertices).max() < 0.25
    assert res.min_jacobian > 0.5
    assert res.level_starts == (0, 60)
    assert res.svf.geom == control_grid(grid, (6, 6, 6))
    # best-of-final-level is what gets returned
    assert res.final.total <= res.history[res.level_starts[-1]:].min() + 1e-15


def test_fit_deterministic_rerun(translation_pair):
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(6, 6, 6), levels=((4, 4, 4), (6, 6, 6)),
                    iters_per_level=25)
    a = fit_svf(template, target, grid, cfg)
    b = fit_svf(template, target, grid, cfg)
    assert np.array_equal(a.svf.data, b.svf.data)
    assert np.array_equal(a.history, b.history)
    assert np.array_equal(a.fitted.vertices, b.fitted.vertices)
    assert a.final_chamfer == b.final_chamfer


def test_fit_divergence_raises_with_history(translation_pair, monkeypatch):
    # Oversized gradient-descent steps, with the plateau stop off so that the
    # 10x-initial window is what ends the fit.
    monkeypatch.setattr(fitter, "_update", _gd(2.0))
    monkeypatch.setattr(fitter, "_PLATEAU_TOL", 0.0)
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(4, 4, 4), levels=((4, 4, 4),), iters_per_level=80,
                    weights=LossWeights(alpha=0.0))
    with pytest.raises(FitDivergence, match="10x initial") as exc:
        fit_svf(template, target, grid, cfg)
    h = exc.value.history
    assert len(h) == 51  # first iterate plus the 50-iteration bad streak
    assert h[-1] > 10.0 * h[0]


def test_fit_step_guard_overflow_raises_divergence_with_history(translation_pair, monkeypatch):
    # A huge gradient step drives the field past the squaring-step guard:
    # that is a numerical failure of the fit, not an invalid input.
    monkeypatch.setattr(fitter, "_update", _gd(1e9))
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(4, 4, 4), levels=((4, 4, 4),), iters_per_level=5,
                    diffeo=DiffeoConfig())
    with pytest.raises(FitDivergence, match="squaring steps") as exc:
        fit_svf(template, target, grid, cfg)
    assert len(exc.value.history) == 1  # the zero field's loss, before the step


def test_fit_reused_operators_match_reference_loop(translation_pair, monkeypatch):
    # fit_svf builds one vertex sampler per level and hands each forward pass
    # to its adjoint. A loop of public calls that shares nothing between them
    # must give the same losses; a stale or mis-scaled operator would not.
    step = 0.05
    monkeypatch.setattr(fitter, "_update", _gd(step))
    template, target, grid = translation_pair
    cfg = FitConfig(svf_dims=(6, 6, 6), levels=((4, 4, 4), (6, 6, 6)),
                    iters_per_level=3)
    res = fit_svf(template, target, grid, cfg)

    history = []
    tau = np.zeros(cfg.levels[0] + (3,))
    prev = None
    for dims in cfg.levels:
        geom = control_grid(grid, dims)
        if prev is not None:
            tau = upsample_svf(VectorField3D(prev, tau), dims).data
        best_loss, best_tau = np.inf, tau
        for _ in range(cfg.iters_per_level):
            fld = VectorField3D(geom, tau)
            warped = warp_vertices(template, exponentiate(fld, cfg.diffeo), geom)
            loss = total_loss(warped, target, cfg.weights).total
            history.append(loss)
            if loss < best_loss:
                best_loss, best_tau = loss, tau
            g_v = loss_grad(warped, target, cfg.weights)
            tau = tau - step * exp_vjp(fld, cfg.diffeo, g_v, template, geom).data
        tau, prev = best_tau, geom

    assert res.level_starts == (0, 3)
    assert history[2] < history[0] and history[5] < history[3]  # both levels descend
    np.testing.assert_allclose(res.history, history, rtol=1e-12, atol=0.0)
