"""Stationary velocity fields exponentiated into diffeomorphic deformations.

A stationary velocity field (SVF) tau lives on a regular grid with components
in voxel units. Its unit-time flow phi = exp(tau) is computed by scaling and
squaring: start from u = tau / 2^S, then compose the displacement with itself
S times, u <- u + u(x + u), using clamped trilinear sampling. The result is a
displacement field u = phi - id in voxel units on the same grid.

Each squaring step samples u at the points x + u, and that sample is one
sparse linear operator W (:class:`~aortafit.volgrid.TrilinearSampler`). The
composite map tau -> warped mesh vertices is linearized exactly at one field
by :class:`Linearization`: step k's derivative is du <- du + W_k du + M_k du,
where M_k holds the 3x3 derivative of the sampled value in each sample
point. Its ``jvp`` pushes a field perturbation forward to vertex motion, and
its ``vjp`` is the transpose: ``exp_vjp`` pulls a vertex gradient back to a
gradient in tau. The warp of mesh vertices is one more sampling operator,
fixed as long as the vertices are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volgrid import TrilinearSampler, VectorField3D, Volume3D

__all__ = [
    "DiffeoConfig",
    "exponentiate",
    "warp_vertices",
    "vertex_sampler",
    "jacobian_determinant",
    "Linearization",
    "exp_vjp",
]

_MAX_STEPS = 20


@dataclass(frozen=True)
class DiffeoConfig:
    """Scaling-and-squaring parameters.

    ``squaring_steps`` is the number of compositions S. With ``auto_steps``
    set, S is raised (never lowered) until the scaled field satisfies
    max |tau| / 2^S <= 0.5 voxel, keeping each composition step well inside
    the contraction regime.
    """

    squaring_steps: int = 8
    auto_steps: bool = True

    def __post_init__(self):
        s = int(self.squaring_steps)
        if s < 0:
            raise ValueError("squaring_steps must be >= 0")
        if s > _MAX_STEPS:
            raise ValueError(f"squaring_steps must be <= {_MAX_STEPS}, got {s}")
        object.__setattr__(self, "squaring_steps", s)

    def resolve_steps(self, svf):
        """Number of squaring steps to use for this field."""
        s = self.squaring_steps
        if self.auto_steps:
            m = svf.max_abs()
            if m > 0.5:
                s = max(s, int(np.ceil(np.log2(2.0 * m))))
        if s > _MAX_STEPS:
            raise ValueError(
                f"field needs {s} squaring steps (max |tau| = {svf.max_abs():.3g} voxels), guard is {_MAX_STEPS}"
            )
        return s


def _identity_coords(dims):
    return np.stack(np.meshgrid(*(np.arange(n, dtype=np.float64) for n in dims), indexing="ij"), axis=-1)


def _forward(svf, cfg):
    """All intermediate fields u_0 .. u_S (u_0 = tau / 2^S) plus step samplers.

    Step k computes u_k + u_k(x + u_k) with the sampler at the points
    x + u_k; the samplers are kept so a :class:`Linearization` of the same
    field reuses them instead of rebuilding them.
    """
    steps = cfg.resolve_steps(svf)
    dims = svf.geom.dims
    ident = _identity_coords(dims).reshape(-1, 3)
    us = [svf.data / (2.0**steps)]
    samplers = []
    for k in range(steps):
        u = us[-1]
        sampler = TrilinearSampler(dims, ident + u.reshape(-1, 3))
        out = u + sampler.sample(u).reshape(u.shape)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError(f"non-finite displacement at squaring step {k}")
        us.append(out)
        samplers.append(sampler)
    return us, samplers


def exponentiate(svf, cfg=DiffeoConfig()):
    """Displacement field u = exp(svf) - id, in voxel units on svf's grid."""
    us, _ = _forward(svf, cfg)
    return VectorField3D(svf.geom, us[-1])


def vertex_sampler(mesh, grid):
    """Trilinear sampler at the mesh vertices, which must lie inside ``grid``."""
    pts = grid.world_to_voxel(mesh.vertices)
    hi = np.asarray(grid.dims, dtype=float) - 1.0
    if np.any(pts < 0.0) or np.any(pts > hi):
        raise ValueError("mesh vertices fall outside the grid extent")
    return TrilinearSampler(grid.dims, pts)


def warp_vertices(mesh, disp, grid, sampler=None):
    """Move mesh vertices through a displacement field.

    Vertices (mm) are mapped into grid voxel coordinates, the displacement is
    sampled there, converted back to mm via the grid spacing, and added.
    Connectivity, regions, and ring layout are untouched. ``sampler`` may pass
    ``vertex_sampler(mesh, grid)`` built earlier for the same mesh and grid.
    """
    if sampler is None:
        sampler = vertex_sampler(mesh, grid)
    d = sampler.sample(disp.data)
    return mesh.with_vertices(mesh.vertices + d * np.asarray(grid.spacing))


def jacobian_determinant(disp):
    """det(d phi / d x) per voxel for phi(x) = x + u(x), finite differences.

    Central differences on the interior, one-sided at the boundary; positive
    everywhere certifies a locally invertible (diffeomorphic) map.
    """
    dims = disp.geom.dims
    if any(d < 3 for d in dims):
        raise ValueError("jacobian needs >= 3 voxels per axis")
    u = disp.data
    jac = np.empty(dims + (3, 3))
    for comp in range(3):
        grads = np.gradient(u[..., comp], axis=(0, 1, 2))
        for ax in range(3):
            jac[..., comp, ax] = grads[ax]
        jac[..., comp, comp] += 1.0
    return Volume3D(disp.geom, np.linalg.det(jac))


class Linearization:
    """The map tau -> warped mesh vertices (mm), linearized at one field.

    Built from ``_forward``'s ``(us, samplers)`` for the field, the vertex
    sampler of the mesh on the field's grid, and that grid's mm spacing.
    Squaring step k, u_{k+1} = u_k + W_k u_k with W_k sampling at x + u_k, has
    the derivative du_{k+1} = du_k + W_k du_k + M_k du_k, where the 3x3 block
    M_k[i] = d(W_k u_k)[i] / d(sample point i) is zero along clamped axes.
    Only W_k and M_k are kept: the fields u_k and the slope matrices are
    dropped once M_k is built.
    """

    def __init__(self, states, sampler, spacing):
        us, samplers = states
        self.steps = []
        for u, step in zip(us, samplers):
            flat = u.reshape(-1, 3)
            # [i, c, a]: d(sampled component c) / d(point coordinate a)
            block = np.stack([s @ flat for s in step.slopes()], axis=2) * step.interior[:, None, :]
            self.steps.append((step.weights, block))
        self.shape = us[0].shape
        self.sampler = sampler
        self.spacing = np.asarray(spacing, dtype=np.float64)

    def jvp(self, d_tau):
        """(N, 3) motion of the warped vertices, in mm, for the field perturbation ``d_tau``."""
        du = d_tau.reshape(-1, 3) / (2.0 ** len(self.steps))
        for w, m in self.steps:
            du = du + w @ du + np.einsum("ica,ia->ic", m, du)
        return self.sampler.sample(du.reshape(self.shape)) * self.spacing

    def vjp(self, cot):
        """Transpose of :meth:`jvp`: the tau-shaped pullback of (N, 3) vertex cotangents."""
        grad = self.sampler.adjoint(cot * self.spacing).reshape(-1, 3)
        for w, m in reversed(self.steps):
            grad = grad + w.T @ grad + np.einsum("ica,ic->ia", m, grad)
        return grad.reshape(self.shape) / (2.0 ** len(self.steps))


def exp_vjp(svf, lin, vertex_grad):
    """Gradient of a vertex loss with respect to the SVF values.

    ``lin`` is the :class:`Linearization` at ``svf``. Given d(loss)/d(warped
    vertex) for every vertex of its mesh, pulls the gradient back through
    warp_vertices and every squaring step of exponentiate, returning
    d(loss)/d(tau) as a field on svf's grid.
    """
    g = np.asarray(vertex_grad, dtype=np.float64)
    if g.shape != (lin.sampler.weights.shape[0], 3):
        raise ValueError(f"vertex_grad shape {g.shape} does not match the {lin.sampler.weights.shape[0]} vertices")
    return VectorField3D(svf.geom, lin.vjp(g))
