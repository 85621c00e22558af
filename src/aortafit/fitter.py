"""Per-case SVF optimization: deform a template mesh onto a target mesh.

The velocity field tau lives on a coarse control grid node-aligned with the
image grid (first and last control nodes coincide with the image grid's
corner voxel centers). Optimization is coarse to fine: tau is fitted at each
level of a multiresolution ladder, trilinearly upsampled to the next, and the
best-loss iterate of the final level is returned. Gradients flow analytically
from the loss through warp and exponentiation (exp_vjp).

The update is an adaptive first-order rule with fixed settings: a
bias-corrected first moment divided by a running field-wide infinity-norm of
the gradient (the Adamax update with the max taken over the whole field
rather than per coordinate, so unconstrained control nodes stay put instead
of taking normalized full-size steps). A level ends after ``iters_per_level``
iterations, or earlier once its best loss has improved by less than a relative
1e-6 over 25 iterations. The whole procedure is deterministic: a zero initial
field, no stochastic sampling, and reduction orders fixed by the array layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diffeo import (
    DiffeoConfig,
    _forward,
    exp_vjp,
    exponentiate,
    jacobian_determinant,
    vertex_sampler,
    warp_vertices,
)
from .objective import LossBreakdown, LossWeights, chamfer, loss_grad, total_loss
from .volgrid import GridGeom, VectorField3D, trilinear_sample

__all__ = [
    "FitConfig",
    "FitResult",
    "FitDivergence",
    "GridConfig",
    "fit_svf",
    "upsample_svf",
    "control_grid",
    "bounding_grid",
]

_STEP = 0.25
_DECAYS = (0.9, 0.999)  # first-moment and infinity-norm decay rates
# A level stops once its best loss gained less than _PLATEAU_TOL, relative,
# over the last _PLATEAU_ITERS iterations.
_PLATEAU_TOL = 1e-6
_PLATEAU_ITERS = 25
_DIVERGE_WINDOW = 50


class FitDivergence(RuntimeError):
    """The fit blew up; the loss history up to that point is attached.

    Raised when the loss stays above 10x its initial value for too long, or
    when the field outgrows the squaring-step guard of scaling and squaring.
    """

    def __init__(self, message, history):
        super().__init__(message)
        self.history = np.asarray(history)


@dataclass(frozen=True)
class FitConfig:
    """Optimization settings for :func:`fit_svf`."""

    svf_dims: tuple = (32, 32, 32)
    levels: tuple = ((8, 8, 8), (16, 16, 16), (32, 32, 32))
    iters_per_level: int = 300
    weights: LossWeights = field(default_factory=LossWeights)
    diffeo: DiffeoConfig = field(default_factory=DiffeoConfig)

    def __post_init__(self):
        try:
            dims = tuple(tuple(int(d) for d in lv) for lv in self.levels)
            svf_dims = tuple(int(d) for d in self.svf_dims)
        except (TypeError, OverflowError):
            raise ValueError(f"levels and svf_dims must be lists of grid dims, got {self.levels!r}") from None
        if not dims:
            raise ValueError("levels must list at least one grid")
        for lv in dims + (svf_dims,):
            if len(lv) != 3 or any(d < 2 for d in lv):
                raise ValueError(f"grid dims must be 3 axes of >= 2, got {lv}")
        for lo, hi in zip(dims, dims[1:]):
            if any(a > b for a, b in zip(lo, hi)):
                raise ValueError("levels must be nondecreasing per axis")
        if dims[-1] != svf_dims:
            raise ValueError("last level must equal svf_dims")
        if self.iters_per_level < 1:
            raise ValueError("iters_per_level must be >= 1")
        object.__setattr__(self, "levels", dims)
        object.__setattr__(self, "svf_dims", svf_dims)


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: the field, the warped mesh, and diagnostics."""

    svf: VectorField3D
    fitted: object
    history: np.ndarray
    level_starts: tuple
    final: LossBreakdown
    final_chamfer: float
    min_jacobian: float


@dataclass(frozen=True)
class GridConfig:
    """Image grid settings for :func:`bounding_grid`: voxel ``spacing`` and ``margin`` in mm."""

    spacing: float = 1.0
    margin: float = 5.0

    def __post_init__(self):
        if not self.spacing > 0:
            raise ValueError(f"grid spacing must be > 0 mm, got {self.spacing}")
        if not self.margin >= 0:
            raise ValueError(f"grid margin must be >= 0 mm, got {self.margin}")


def bounding_grid(meshes, spacing=GridConfig.spacing, margin=GridConfig.margin):
    """Isotropic grid (mm spacing) containing all meshes plus a mm margin."""
    lo = np.min([m.vertices.min(axis=0) for m in meshes], axis=0) - margin
    hi = np.max([m.vertices.max(axis=0) for m in meshes], axis=0) + margin
    if not (spacing > 0 and np.all(hi - lo < spacing * 2**31)):
        raise ValueError(f"grid spacing must be > 0 mm and leave under 2^31 voxels per axis, got {spacing}")
    dims = tuple(int(np.ceil((h - l) / spacing)) + 1 for l, h in zip(lo, hi))
    return GridGeom(dims, (spacing,) * 3, tuple(lo))


def control_grid(base, dims):
    """Coarse grid spanning the same extent as ``base``, node-aligned at the ends."""
    dims = tuple(int(d) for d in dims)
    spacing = tuple(s * (n - 1) / (d - 1) for s, n, d in zip(base.spacing, base.dims, dims))
    return GridGeom(dims, spacing, base.origin)


def upsample_svf(svf, new_dims):
    """Trilinearly refine an SVF, preserving physical velocities.

    Sampling is index-aligned at the grid ends; components are rescaled by the
    (new-1)/(old-1) dims ratio because they are stored in voxel units and the
    voxel shrinks. Upsampling to identical dims is the identity.
    """
    old = svf.geom.dims
    new_dims = tuple(int(d) for d in new_dims)
    if any(n < o for n, o in zip(new_dims, old)):
        raise ValueError(f"cannot shrink an SVF from {old} to {new_dims}")
    ratio = np.array([(n - 1) / (o - 1) for n, o in zip(new_dims, old)])
    axes = [np.arange(n) / r for n, r in zip(new_dims, ratio)]
    ii, jj, kk = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)
    vals = trilinear_sample(svf, pts).reshape(new_dims + (3,)) * ratio
    spacing = tuple(s / r for s, r in zip(svf.geom.spacing, ratio))
    return VectorField3D(GridGeom(new_dims, spacing, svf.geom.origin), vals)


def _adam_state(shape):
    return {"m": np.zeros(shape), "u": 0.0, "t": 0}


def _update(tau, grad, state):
    b1, b2 = _DECAYS
    state["t"] += 1
    state["m"] = b1 * state["m"] + (1.0 - b1) * grad
    # Field-wide infinity-norm scale (Adamax-style), not per coordinate:
    # normalizing each control node separately turns the negligible gradients
    # at barely-constrained nodes into full-size steps and shreds the field's
    # smoothness; one shared scale preserves the gradient's spatial profile.
    state["u"] = max(b2 * state["u"], float(np.max(np.abs(grad))))
    mhat = state["m"] / (1.0 - b1 ** state["t"])
    return tau - _STEP * mhat / (state["u"] + 1e-12)


def fit_svf(template, target, grid, cfg=FitConfig()):
    """Fit an SVF deforming ``template`` toward ``target`` over ``grid``.

    Both meshes need identical connectivity and regions and must lie inside
    the grid extent. Returns the best-loss iterate of the final level; the
    reported ``min_jacobian`` is the minimum interior Jacobian determinant of
    the final displacement (the diffeomorphism certificate).
    """
    history = []
    level_starts = []
    initial_loss = None
    bad_streak = 0
    tau = np.zeros(cfg.levels[0] + (3,))

    for level, dims in enumerate(cfg.levels):
        geom = control_grid(grid, dims)
        if level > 0:
            up = upsample_svf(VectorField3D(prev_geom, tau), dims)
            tau = up.data
        level_starts.append(len(history))
        # The template does not move within a level: one sampler at its
        # vertices serves every warp and the first step of every adjoint.
        sampler = vertex_sampler(template, geom)
        state = _adam_state(tau.shape)
        best_tau = tau.copy()
        best_loss = np.inf
        best_track = []

        for _ in range(cfg.iters_per_level):
            fld = VectorField3D(geom, tau)
            # One forward pass per iteration; its states feed both the loss
            # evaluation and the backward pass below. A valid field raises
            # ValueError here only from the squaring-step guard.
            try:
                states = _forward(fld, cfg.diffeo)
            except ValueError as exc:
                raise FitDivergence(str(exc), history) from None
            disp = VectorField3D(geom, states[0][-1])
            warped = warp_vertices(template, disp, geom, sampler=sampler)
            breakdown = total_loss(warped, target, cfg.weights)
            loss = breakdown.total
            history.append(loss)
            if initial_loss is None:
                initial_loss = loss
            if loss < best_loss:
                best_loss = loss
                best_tau = tau.copy()
            best_track.append(best_loss)

            if initial_loss > 0 and loss > 10.0 * initial_loss:
                bad_streak += 1
                if bad_streak >= _DIVERGE_WINDOW:
                    raise FitDivergence(
                        f"loss {loss:.3g} stayed above 10x initial {initial_loss:.3g} "
                        f"for {bad_streak} iterations",
                        history,
                    )
            else:
                bad_streak = 0

            if len(best_track) > _PLATEAU_ITERS:
                prev = best_track[-_PLATEAU_ITERS - 1]
                if prev - best_loss < _PLATEAU_TOL * max(prev, 1e-300):
                    break

            g_v = loss_grad(warped, target, cfg.weights)
            g_tau = exp_vjp(fld, cfg.diffeo, g_v, template, geom, states=states, sampler=sampler)
            tau = _update(tau, g_tau.data, state)

        tau = best_tau
        prev_geom = geom

    svf = VectorField3D(prev_geom, tau)
    disp = exponentiate(svf, cfg.diffeo)
    fitted = warp_vertices(template, disp, prev_geom, sampler=sampler)
    final = total_loss(fitted, target, cfg.weights)
    det = jacobian_determinant(disp).data
    min_jac = float(det[1:-1, 1:-1, 1:-1].min())
    return FitResult(
        svf=svf,
        fitted=fitted,
        history=np.asarray(history),
        level_starts=tuple(level_starts),
        final=final,
        final_chamfer=chamfer(fitted, target),
        min_jacobian=min_jac,
    )
