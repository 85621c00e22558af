"""Stationary velocity fields exponentiated into diffeomorphic deformations.

A stationary velocity field (SVF) tau lives on a regular grid with components
in voxel units. Its unit-time flow phi = exp(tau) is computed by scaling and
squaring: start from u = tau / 2^S, then compose the displacement with itself
S times, u <- u + u(x + u), using clamped trilinear sampling. The result is a
displacement field u = phi - id in voxel units on the same grid. S follows one
fixed rule, ``DiffeoConfig()``'s: the fit and ``warp`` read no setting for it.

Each squaring step samples u at the points x + u, and that sample is one
sparse linear operator W (:class:`~aortafit.volgrid.TrilinearSampler`). The
composite map tau -> warped mesh vertices is linearized exactly at one field
by :class:`Linearization`: step k's derivative is du <- du + W_k du + M_k du,
where M_k holds the 3x3 derivative of the sampled value in each sample
point. Its ``jvp`` pushes a field perturbation forward to vertex motion, and
its ``vjp`` is the transpose: ``exp_vjp`` pulls a vertex gradient back to a
gradient in tau. The warp of mesh vertices is one more sampling operator,
fixed as long as the vertices are.

The vertices read only part of the grid, and each squaring step, counted
back from the last, widens that part by the cells its sample points fall in:
the dependency cones. The linearization keeps each step on its cone alone,
numbered so that every cone is a prefix of the next, so its products touch a
fraction of a fine grid's nodes in the last steps and stay bitwise equal to
the full grid's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .volgrid import TrilinearSampler, VectorField3D

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

    ``squaring_steps`` is the floor of the number of compositions S, which
    is raised until max |tau| / 2^S <= 0.5 voxel, keeping each composition
    well inside the contraction regime; more than 20 steps is refused.

    The floor of 3 is where more steps stop paying: from it on, exp's error
    at the vertices is set by the trilinear interpolation inside each
    composition, not by the first-order start tau / 2^S, while each step
    costs a forward pass, a linearization and every product in proportion.
    The fitted README field is 0.48 mm off a 4096-step Euler flow at the
    worst vertex at the default, 0.49-0.50 mm at S = 5 to 8; a floor of 2
    breaks the diffeomorphism suite's 1e-3 Euler bound. At the default the
    raise starts once max |tau| passes 4 voxels.
    """

    squaring_steps: int = 3

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
        m = svf.max_abs()
        if m > 0.5:
            s = max(s, int(np.ceil(np.log2(2.0 * m))))
        if s > _MAX_STEPS:
            raise ValueError(
                f"field needs {s} squaring steps (max |tau| = {m:.3g} voxels), guard is {_MAX_STEPS}"
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
    """det(d phi / d x) per interior voxel for phi(x) = x + u(x), by central differences.

    Returns an array of the grid's dims less 2 per axis: the boundary voxels
    have no central difference. Positive everywhere certifies a locally
    invertible (diffeomorphic) map.
    """
    dims = disp.geom.dims
    if any(d < 3 for d in dims):
        raise ValueError("jacobian needs >= 3 voxels per axis")
    u = disp.data
    jac = np.empty(tuple(d - 2 for d in dims) + (3, 3))
    for ax in range(3):
        hi, lo = [slice(1, -1)] * 3, [slice(1, -1)] * 3
        hi[ax], lo[ax] = slice(2, None), slice(None, -2)
        jac[..., ax] = (u[tuple(hi)] - u[tuple(lo)]) / 2.0  # [..., component, axis]
        jac[..., ax, ax] += 1.0
    return np.linalg.det(jac)


class Linearization:
    """The map tau -> warped mesh vertices (mm), linearized at one field.

    Built from ``_forward``'s ``(us, samplers)`` for the field, the vertex
    sampler of the mesh on the field's grid, and that grid's mm spacing.
    Squaring step k, u_{k+1} = u_k + W_k u_k with W_k sampling at x + u_k, has
    the derivative du_{k+1} = du_k + W_k du_k + M_k du_k, where the 3x3 block
    M_k[i] = d(W_k u_k)[i] / d(sample point i) is zero along clamped axes.

    Only the nodes the vertices depend on are kept. The dependency cone
    ``cone[S]`` is the set of nodes the vertex sampler reads, and ``cone[k]``
    is ``cone[k+1]`` plus the nodes that W_k's rows in ``cone[k+1]`` read.
    ``nodes`` numbers them so that every cone is a prefix: ``cone[S]`` first,
    then each step's new nodes, ascending within each batch. :meth:`jvp` and
    :meth:`vjp` run on (|cone_k|, 3) arrays in that numbering and take each
    step's rows as a slice. Step k keeps M_k on the rows of ``cone[k+1]``, and
    W_k's rows there, with columns in that numbering, once: in ascending node
    order, so that its transpose sums each node's terms in the order the
    full grid's ``W_k.T @ g`` does. :meth:`vjp` gathers its cotangent into
    that order, and :meth:`jvp` gathers W_k's product back out of it. Every
    row does the arithmetic the full grid does, in the same order, so the
    products are bitwise equal to the full grid's: its other rows never reach
    the vertices, and its pullback is exactly +0.0 outside ``cone[0]``.
    """

    def __init__(self, states, sampler, spacing):
        us, samplers = states
        self.shape = us[0].shape
        self.spacing = np.asarray(spacing, dtype=np.float64)
        rank = np.full(len(us[0].reshape(-1, 3)), -1, dtype=np.int32)  # node -> place in ``nodes``, -1 outside
        weights = sampler.weights
        nodes, cols = _grow(rank, np.zeros(0, dtype=np.intp), weights.indices)
        self.vertices = sp.csr_array((weights.data, cols, weights.indptr), shape=(weights.shape[0], len(nodes)))
        self.vertices_t = self.vertices.T  # built once: each transpose is a new CSC object
        self.steps = []
        for u, step in zip(reversed(us[:-1]), reversed(samplers)):
            rows = nodes
            ascending = np.flatnonzero(rank >= 0)  # the same nodes in ascending order
            order = rank[ascending].astype(np.intp)  # their places in ``nodes``
            inverse = np.empty_like(order)
            inverse[order] = np.arange(len(order))
            nodes, cols = _grow(rank, rows, np.take(step.weights.indices.reshape(-1, 8), ascending, axis=0))
            data = np.take(step.weights.data.reshape(-1, 8), ascending, axis=0)
            ptr = np.arange(0, cols.size + 1, 8, dtype=np.int32)
            w = sp.csr_array((data.ravel(), cols.ravel(), ptr), shape=(len(rows), len(nodes)))
            flat = u.reshape(-1, 3)
            # [i, c, a]: d(sampled component c) / d(point coordinate a)
            block = np.stack([s @ flat for s in step.slopes(rows)], axis=2)
            block *= np.take(step.interior, rows, axis=0)[:, None, :]
            self.steps.append((w, w.T, order, inverse, block))
        self.steps.reverse()
        self.nodes = nodes

    def jvp(self, d_tau):
        """(N, 3) motion of the warped vertices, in mm, for the field perturbation ``d_tau``."""
        du = np.take(d_tau.reshape(-1, 3), self.nodes, axis=0) / (2.0 ** len(self.steps))
        for w, _, _, inverse, m in self.steps:
            head = du[: w.shape[0]]
            du = head + np.take(w @ du, inverse, axis=0) + np.einsum("ica,ia->ic", m, head)
        return (self.vertices @ du) * self.spacing

    def vjp(self, cot):
        """Transpose of :meth:`jvp`: the tau-shaped pullback of (N, 3) vertex cotangents."""
        grad = self.vertices_t @ (cot * self.spacing)
        for _, wt, order, _, m in reversed(self.steps):
            head = grad
            grad = wt @ np.take(head, order, axis=0)
            grad[: len(head)] = head + grad[: len(head)] + np.einsum("ica,ic->ia", m, head)
        out = np.zeros(self.shape)
        out.reshape(-1, 3)[self.nodes] = grad / (2.0 ** len(self.steps))
        return out


def _grow(rank, nodes, cols):
    """Extend the cone ``nodes`` by the nodes of ``cols`` outside it, ascending.

    ``rank`` maps nodes to their place in the cone (-1 outside it) and is
    updated in place. Returns the grown cone and ``cols`` mapped to places in it.
    """
    new = np.flatnonzero((np.bincount(cols.ravel(), minlength=len(rank)) > 0) & (rank < 0))
    rank[new] = np.arange(len(nodes), len(nodes) + len(new), dtype=np.int32)
    return np.concatenate([nodes, new]), np.take(rank, cols)


def exp_vjp(svf, lin, vertex_grad):
    """Gradient of a vertex loss with respect to the SVF values.

    ``lin`` is the :class:`Linearization` at ``svf``. Given d(loss)/d(warped
    vertex) for every vertex of its mesh, pulls the gradient back through
    warp_vertices and every squaring step of exponentiate, returning
    d(loss)/d(tau) as a field on svf's grid.
    """
    g = np.asarray(vertex_grad, dtype=np.float64)
    n = lin.vertices.shape[0]
    if g.shape != (n, 3):
        raise ValueError(f"vertex_grad shape {g.shape} does not match the {n} vertices")
    return VectorField3D(svf.geom, lin.vjp(g))
