"""Per-case SVF optimization: deform a template mesh onto a target mesh.

The velocity field tau lives on a coarse control grid node-aligned with the
image grid (first and last control nodes coincide with the image grid's
corner voxel centers). Optimization is coarse to fine: tau is fitted at each
level of a multiresolution ladder, trilinearly upsampled to the next, and the
best-loss iterate of the final level is returned, with the fitted mesh and
the fit's history and summary as the dicts that the CLI writes as JSON.
Gradients flow analytically from the loss through warp and exponentiation
(exp_vjp).

Each level runs a Levenberg-Marquardt Gauss-Newton fit through the exact
linearization J of tau -> warped vertices (:class:`~aortafit.diffeo.Linearization`).
The model Hessian is H = 2 J^T D J, with D the geometric term's per-vertex
weight omega_r / n_r; the smoothness term enters the gradient only. Truncated
conjugate gradients solve (H + lambda I) d = -g, for at most 10 iterations
or until ||r|| < 0.01 ||g||; a level's first lambda is 1e-3 g^T H g / g^T g.
A trial field is accepted only if the total loss falls, and lambda is then
divided by 3; otherwise, or when the trial outgrows the squaring-step guard
or turns non-finite, lambda is multiplied by 4. A level stops once an
accepted step lowers the loss by less than a relative ``_TOL``, when the
gradient is zero, or when its budget is spent: ``iters_per_level`` caps the
forward passes plus Hessian-vector products of each level. A level's first
field is always linearized; an accepted field only while the budget leaves
room for a product and the forward pass after it. So a level that spends its
budget right after an accepted step reports the gradient it last stepped
from, and stops on ``budget`` even if its final field's gradient is zero.
The whole procedure is deterministic: a zero initial field, no stochastic
sampling, and reduction orders fixed by the array layout (inner products are
numpy sums, whose order does not depend on the BLAS thread count).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .diffeo import (
    DiffeoConfig,
    Linearization,
    _forward,
    exp_vjp,
    exponentiate,  # not called here; perfbench/layers.py wraps fitter.exponentiate
    jacobian_determinant,
    vertex_sampler,
    warp_vertices,
)
from .objective import (
    LossWeights,
    _check_correspondence,
    chamfer,
    loss_grad,
    smoothness,
    total_loss,
    vertex_weights,
)
from .volgrid import GridGeom, VectorField3D, trilinear_sample

__all__ = [
    "FitConfig",
    "GridConfig",
    "check_meshes",
    "fit_svf",
    "summary_line",
    "upsample_svf",
    "control_grid",
    "bounding_grid",
]

# A level stops once an accepted step lowers the loss by less than this, relative.
_TOL = 3e-3
_CG_ITERS = 10
_CG_RTOL = 0.01  # CG stops once ||r|| < _CG_RTOL ||g||
_LAMBDA_INIT = 1e-3  # first lambda, relative to the Rayleigh quotient g^T H g / g^T g
_LAMBDA_DOWN = 3.0  # lambda is divided by this on an accepted step
_LAMBDA_UP = 4.0  # and multiplied by this on a rejected one


def _grid_dim(d):
    """One grid axis as an int; a fraction, a boolean or a string raises TypeError."""
    if isinstance(d, bool) or not isinstance(d, numbers.Real) or int(d) != d:
        raise TypeError(f"not a whole number: {d!r}")
    return int(d)


@dataclass(frozen=True)
class FitConfig:
    """Optimization settings for :func:`fit_svf`."""

    svf_dims: tuple = (32, 32, 32)
    levels: tuple = ((8, 8, 8), (16, 16, 16), (32, 32, 32))
    iters_per_level: int = 300
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        try:
            dims = tuple(tuple(_grid_dim(d) for d in lv) for lv in self.levels)
            svf_dims = tuple(_grid_dim(d) for d in self.svf_dims)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"levels and svf_dims must be lists of grid dims (whole numbers), "
                             f"got {self.levels!r} and {self.svf_dims!r}") from None
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
        if any(d < 3 for d in svf_dims):  # the certificate's central differences
            raise ValueError(f"svf_dims, the last level, needs >= 3 nodes per axis, got {svf_dims}")
        if not self.iters_per_level >= 1:  # NaN fails too
            raise ValueError("iters_per_level must be >= 1")
        object.__setattr__(self, "levels", dims)
        object.__setattr__(self, "svf_dims", svf_dims)


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
    with np.errstate(over="ignore"):  # an extent beyond the float range is infinite, and refused
        extent = hi - lo
    if not (spacing > 0 and np.all(extent < spacing * 2**31)):
        raise ValueError(f"grid spacing must be > 0 mm and leave under 2^31 voxels per axis, "
                         f"got spacing {spacing} and margin {margin}")
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


def _dot(a, b):
    # A numpy sum, not BLAS dot: its order does not depend on the thread count.
    return float(np.sum(a * b))


def _solve(hess, g, lam, maxiter):
    """Truncated CG for (H + lam I) d = -g from d = 0.

    ``hess(p)`` returns H p. With ``lam`` None, lam is set from the first
    product, which is along g. Returns the step, lam and the number of
    products taken.
    """
    step = np.zeros_like(g)
    r = -g
    p = r
    rr = _dot(r, r)
    enough = _CG_RTOL**2 * rr
    for n in range(1, maxiter + 1):
        hp = hess(p)
        if lam is None:
            lam = _LAMBDA_INIT * _dot(p, hp) / rr
        hp += lam * p
        curvature = _dot(p, hp)
        if not curvature > 0:
            break
        alpha = rr / curvature
        step = step + alpha * p
        r = r - alpha * hp
        rr_next = _dot(r, r)
        if rr_next < enough:
            break
        p = r + (rr_next / rr) * p
        rr = rr_next
    return step, lam, n


def _fit_level(template, target, geom, tau, cfg, losses, level):
    """One level's LM Gauss-Newton fit from ``tau``, the ``level``-th (from 0) of ``cfg.levels``.

    Returns the accepted field, its forward pass (displacement, warped
    template and loss breakdown) and the level's record. Every forward pass
    that yields a loss appends it to ``losses``. A first field past the
    squaring-step guard raises FloatingPointError naming the level.
    """
    # The template does not move within a level: one sampler at its vertices
    # serves every warp and every linearization.
    sampler = vertex_sampler(template, geom)

    def forward(tau):
        fld = VectorField3D(geom, tau)
        states = _forward(fld, DiffeoConfig())
        disp = VectorField3D(geom, states[0][-1])
        warped = warp_vertices(template, disp, geom, sampler=sampler)
        loss = total_loss(warped, target, cfg.weights)
        losses.append(float(loss["total"]))
        return fld, states, len(states[1]), disp, warped, loss

    try:
        fld, states, steps, disp, warped, loss = forward(tau)
    except ValueError as exc:  # fit_svf checked the meshes, so only the squaring-step guard raises it
        raise FloatingPointError(f"fit level {level + 1} of {len(cfg.levels)}: {exc}") from None
    diag = 2.0 * vertex_weights(template, target, cfg.weights)[:, None]  # H = J^T diag J
    passes, products, accepted, lam = 1, 0, 0, None
    stop = "budget"
    while True:
        room = cfg.iters_per_level - passes - products - 1  # products, leaving one forward pass
        # The first field, or a newly accepted one that the budget leaves room to step from.
        if states is not None and (room >= 1 or not accepted):
            lin = Linearization(states, sampler, geom.spacing)
            states = None
            grad = exp_vjp(fld, lin, loss_grad(warped, target, cfg.weights)).data
            if not np.any(grad):
                stop = "zero_gradient"
                break
        if room < 1:
            break
        step, lam, n = _solve(lambda p: lin.vjp(diag * lin.jvp(p)), grad, lam, min(_CG_ITERS, room))
        products += n
        passes += 1
        try:
            trial = forward(tau + step)
        except (ValueError, FloatingPointError):  # past the squaring-step guard, or non-finite
            trial = None
        if trial is None or not trial[-1]["total"] < loss["total"]:
            trial = None  # a rejected forward pass is dropped before the next one runs
            lam *= _LAMBDA_UP
            continue
        lam /= _LAMBDA_DOWN
        accepted += 1
        tau = tau + step
        relative = (loss["total"] - trial[-1]["total"]) / loss["total"]
        fld, states, steps, disp, warped, loss = trial
        lin = trial = None
        if relative < _TOL:
            stop = "tolerance"
            break
    record = {"stop": stop, "forward_passes": passes, "hessian_products": products,
              "accepted_steps": accepted, "lambda": lam, "grad_inf_norm": float(np.max(np.abs(grad))),
              "squaring_steps": steps}
    return tau, (disp, warped, loss), record


def check_meshes(template, target, cfg=FitConfig()):
    """Raise ValueError unless ``fit_svf`` can compare ``template`` with ``target`` under ``cfg``."""
    _check_correspondence(template, target)
    if cfg.weights.alpha > 0:
        smoothness(template)  # raises, as every loss would, on a mesh without ring layout


@np.errstate(over="raise", invalid="raise")
def fit_svf(template, target, grid, cfg=FitConfig()):
    """Fit an SVF deforming ``template`` toward ``target`` over ``grid``.

    Both meshes need identical vertex counts, connectivity and region
    labels, with every region populated, and must lie inside the grid
    extent; with a smoothness weight the template needs a ring layout.
    Meshes that fail this raise ValueError before any fit work.

    Returns ``(svf, fitted, history, summary)``: the last accepted field of
    the final level (its lowest-loss iterate), the template warped by it, and
    the fit's parts of ``history.json`` and ``summary.json`` as the files
    hold them. ``history`` has every forward pass's ``loss``, the
    ``level_starts`` index of each level's first loss, and ``levels``, one
    record per level: why it stopped (``tolerance``, ``budget`` or
    ``zero_gradient``), its forward passes, Hessian-vector products and
    accepted steps, the final lambda (None if no step was solved for), the
    inf-norm of the gradient of the last field it linearized, and the
    squaring steps of the field it returned. ``summary`` has the ``final``
    loss breakdown, ``final_chamfer_mm`` and ``min_jacobian``, the minimum
    interior Jacobian determinant of the final displacement (the
    diffeomorphism certificate). The fitted mesh, loss breakdown and
    certificate come from the final level's last accepted forward pass, not
    from a second exponentiation. An accepted field that leaves no budget for
    a product is not linearized: a level that stops on ``budget`` right after
    an accepted step reports the gradient it took that step from. Arithmetic
    that overflows or turns invalid raises FloatingPointError: in a trial
    step it rejects the step, elsewhere it ends the fit. A level's first
    field, upsampled from the level before, that outgrows the squaring-step
    guard ends it too, with a FloatingPointError naming the level.
    """
    check_meshes(template, target, cfg)
    losses = []
    level_starts = []
    levels = []
    tau = np.zeros(cfg.levels[0] + (3,))
    for level, dims in enumerate(cfg.levels):
        geom = control_grid(grid, dims)
        if level > 0:
            tau = upsample_svf(VectorField3D(prev_geom, tau), dims).data
        level_starts.append(len(losses))
        tau, (disp, fitted, final), record = _fit_level(template, target, geom, tau, cfg, losses, level)
        levels.append(record)
        prev_geom = geom

    history = {"loss": losses, "level_starts": level_starts, "levels": levels}
    summary = {"final": final, "final_chamfer_mm": chamfer(fitted, target),
               "min_jacobian": float(jacobian_determinant(disp).min())}
    return VectorField3D(prev_geom, tau), fitted, history, summary


def summary_line(summary):
    """A fit's ``summary`` as the CLI prints it: final chamfer and minimum Jacobian."""
    return f"chamfer {summary['final_chamfer_mm']:.4f} mm, min Jacobian {summary['min_jacobian']:.4f}"
