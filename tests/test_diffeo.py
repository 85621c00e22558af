"""SVF exponentiation, warping, Jacobians, and the exponential's adjoint."""

import numpy as np
import pytest

from conftest import linearize, smooth_svf, straight_cylinder

from aortafit import diffeo, volgrid
from aortafit.diffeo import (
    DiffeoConfig,
    _forward,
    exp_vjp,
    exponentiate,
    jacobian_determinant,
    vertex_sampler,
    warp_vertices,
)
from aortafit.volgrid import GridGeom, TrilinearSampler, VectorField3D, trilinear_sample


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        DiffeoConfig(squaring_steps=-1)
    with pytest.raises(ValueError):
        DiffeoConfig(squaring_steps=21)


def test_resolve_steps_raises_never_lowers():
    geom = GridGeom((4, 4, 4))
    big = VectorField3D(geom, np.full((4, 4, 4, 3), 2.0))
    # max|tau| = 2 needs ceil(log2(4)) = 2 steps to reach the 0.5 voxel bound.
    assert DiffeoConfig(squaring_steps=0).resolve_steps(big) == 2
    assert DiffeoConfig(squaring_steps=8).resolve_steps(big) == 8
    small = VectorField3D(geom, np.full((4, 4, 4, 3), 0.25))
    assert DiffeoConfig(squaring_steps=3).resolve_steps(small) == 3
    huge = VectorField3D(geom, np.full((4, 4, 4, 3), 2.0**24))
    with pytest.raises(ValueError, match="guard"):
        DiffeoConfig().resolve_steps(huge)
    # auto_steps off trusts the configured count.
    assert DiffeoConfig(squaring_steps=1, auto_steps=False).resolve_steps(big) == 1
    # The default floor is 3 up to max|tau| = 4 voxels, then
    # ceil(log2(2 max|tau|)): 8.5 voxels need 5.
    for peak, steps in ((0.0, 3), (2.0, 3), (4.0, 3), (4.5, 4), (8.5, 5), (16.5, 6), (33.0, 7)):
        assert DiffeoConfig().resolve_steps(VectorField3D(geom, np.full((4, 4, 4, 3), peak))) == steps, peak


# ---------------------------------------------------------------------------
# Exponentiation
# ---------------------------------------------------------------------------

def test_exp_zero_field_is_identity():
    geom = GridGeom((6, 6, 6))
    svf = VectorField3D(geom, np.zeros((6, 6, 6, 3)))
    disp = exponentiate(svf)
    assert np.all(disp.data == 0.0)


def test_exp_constant_field_is_translation():
    geom = GridGeom((10, 10, 10))
    c = np.array([0.7, -0.3, 0.45])
    svf = VectorField3D(geom, np.broadcast_to(c, (10, 10, 10, 3)).copy())
    disp = exponentiate(svf)
    # Composing a constant field with itself only rescales it, so the
    # result is the translation everywhere, boundary included.
    assert np.allclose(disp.data, c, rtol=0.0, atol=1e-12)


def test_exp_matches_euler_flow_oracle():
    # exp(tau) must agree with integrating dx/dt = tau(x) to t = 1. The
    # comparison needs a field the grid resolves well (heavy blur): the
    # squaring steps resample composed displacements at grid nodes, an
    # error that grows with unresolved structure, not with amplitude.
    dims = (32, 32, 32)
    svf = smooth_svf(dims, max_abs=2.0, seed=301, sigma=8.0)
    disp = exponentiate(svf)

    rng = np.random.default_rng(42)
    probes = rng.uniform(4.0, 27.0, size=(100, 3))
    m = 4096
    x = probes.copy()
    for _ in range(m):
        x = x + trilinear_sample(svf, x) / m
    flowed = x - probes
    sampled = trilinear_sample(disp, probes)
    err = np.linalg.norm(flowed - sampled, axis=1).max()
    assert err < 1e-3


def test_exp_inverse_consistency():
    dims = (16, 16, 16)
    svf = smooth_svf(dims, max_abs=2.0, seed=43)
    neg = VectorField3D(svf.geom, -svf.data)
    fwd = exponentiate(svf)
    bwd = exponentiate(neg)
    ii, jj, kk = np.meshgrid(*(np.arange(3.0, 13.0),) * 3, indexing="ij")
    x = np.stack([ii, jj, kk], axis=-1).reshape(-1, 3)
    # phi(phi^{-1}(x)) - x = u_bwd(x) + u_fwd(x + u_bwd(x))
    ub = trilinear_sample(bwd, x)
    comp = ub + trilinear_sample(fwd, x + ub)
    assert np.linalg.norm(comp, axis=1).max() < 0.05


def test_exp_random_fields_stay_diffeomorphic():
    # Bounded smooth fields exponentiate to maps with positive Jacobian.
    for seed in range(10):
        dims = (12, 12, 12)
        amp = 0.5 + 1.5 * (seed / 9.0)
        svf = smooth_svf(dims, max_abs=amp, seed=100 + seed)
        det = jacobian_determinant(exponentiate(svf))
        assert det[1:-1, 1:-1, 1:-1].min() > 0.0, f"seed {seed}, amp {amp}"


def test_exp_rejects_nonfinite_growth():
    geom = GridGeom((4, 4, 4))
    with pytest.raises(ValueError):
        VectorField3D(geom, np.full((4, 4, 4, 3), np.nan))


def test_forward_only_sampling_builds_no_slopes(monkeypatch):
    # exponentiate and trilinear_sample only sample, so they never build the
    # slope matrices; slopes() called after other calls gives what it gives
    # called first.
    made, sloped = [], []

    class Recording(TrilinearSampler):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

        def slopes(self, rows):
            sloped.append(self)
            return super().slopes(rows)

    monkeypatch.setattr(diffeo, "TrilinearSampler", Recording)
    monkeypatch.setattr(volgrid, "TrilinearSampler", Recording)
    svf = smooth_svf((9, 8, 7), max_abs=2.5, seed=31)
    exponentiate(svf)
    pts = np.random.default_rng(32).uniform(-1.0, 9.0, size=(50, 3))
    trilinear_sample(svf, pts)
    assert len(made) > 1 and not sloped

    every = np.arange(50)
    eager = TrilinearSampler(svf.geom.dims, pts).slopes(every)
    late = TrilinearSampler(svf.geom.dims, pts)
    late.sample(svf.data)
    for got, ref in zip(late.slopes(every), eager):
        assert np.array_equal(got.data, ref.data)
        assert np.array_equal(got.indices, ref.indices)



# ---------------------------------------------------------------------------
# Warping
# ---------------------------------------------------------------------------

def _grid_around(mesh, spacing=1.0, margin=5.0):
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    origin = lo - margin
    dims = tuple(int(np.ceil((h - l + 2 * margin) / spacing)) + 1 for l, h in zip(lo, hi))
    return GridGeom(dims, (spacing,) * 3, tuple(origin))


def test_warp_zero_displacement_is_identity(tube24):
    grid = _grid_around(tube24)
    disp = VectorField3D(grid, np.zeros(grid.dims + (3,)))
    warped = warp_vertices(tube24, disp, grid)
    assert np.array_equal(warped.vertices, tube24.vertices)
    assert np.array_equal(warped.faces, tube24.faces)
    assert warped.ring_layout == tube24.ring_layout


def test_warp_constant_shift_scales_with_spacing():
    mesh = straight_cylinder(circumferential=8, axial=6, length=20.0)
    grid = _grid_around(mesh, spacing=2.0, margin=8.0)
    c = np.array([1.5, 0.0, -0.5])  # voxels
    disp = VectorField3D(grid, np.broadcast_to(c, grid.dims + (3,)).copy())
    warped = warp_vertices(mesh, disp, grid)
    assert np.allclose(warped.vertices, mesh.vertices + c * 2.0, rtol=0.0, atol=1e-12)


def test_warp_linear_radial_field_exact():
    # u = 0.08 * (x - axis) in the xy plane is linear, so trilinear sampling
    # reproduces it exactly: every radius grows by exactly 8 percent.
    mesh = straight_cylinder(circumferential=16, axial=10, length=30.0, radius=15.0)
    grid = _grid_around(mesh, spacing=1.0, margin=6.0)
    ii, jj, kk = np.meshgrid(*(np.arange(float(n)) for n in grid.dims), indexing="ij")
    world = np.asarray(grid.origin) + np.stack([ii, jj, kk], axis=-1).reshape(-1, 3) * grid.spacing
    u = np.zeros_like(world)
    u[:, 0] = 0.08 * world[:, 0]
    u[:, 1] = 0.08 * world[:, 1]
    disp = VectorField3D(grid, u.reshape(grid.dims + (3,)))
    warped = warp_vertices(mesh, disp, grid)
    r = np.hypot(warped.vertices[:, 0], warped.vertices[:, 1])
    assert np.allclose(r, 15.0 * 1.08, rtol=0.0, atol=1e-9)


def test_warp_nonlinear_radial_profile_within_tolerance():
    mesh = straight_cylinder(circumferential=16, axial=10, length=30.0, radius=15.0)
    grid = _grid_around(mesh, spacing=1.0, margin=6.0)
    ii, jj, kk = np.meshgrid(*(np.arange(float(n)) for n in grid.dims), indexing="ij")
    world = np.asarray(grid.origin) + np.stack([ii, jj, kk], axis=-1).reshape(-1, 3) * grid.spacing
    r = np.hypot(world[:, 0], world[:, 1])
    amp = 2.0 * np.sin(np.pi * r / 40.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(r > 1e-9, amp / r, 0.0)
    u = np.zeros_like(world)
    u[:, 0] = scale * world[:, 0]
    u[:, 1] = scale * world[:, 1]
    disp = VectorField3D(grid, u.reshape(grid.dims + (3,)))
    warped = warp_vertices(mesh, disp, grid)
    got = np.hypot(warped.vertices[:, 0], warped.vertices[:, 1])
    expect = 15.0 + 2.0 * np.sin(np.pi * 15.0 / 40.0)
    assert np.abs(got - expect).max() < 0.05


def test_warp_rejects_vertices_outside_grid(tube24):
    grid = GridGeom((8, 8, 8))  # far too small for the tube
    disp = VectorField3D(grid, np.zeros((8, 8, 8, 3)))
    with pytest.raises(ValueError, match="outside the grid extent"):
        warp_vertices(tube24, disp, grid)


# ---------------------------------------------------------------------------
# Jacobian determinant
# ---------------------------------------------------------------------------

def test_jacobian_of_zero_displacement_is_one():
    geom = GridGeom((5, 5, 5))
    det = jacobian_determinant(VectorField3D(geom, np.zeros((5, 5, 5, 3))))
    assert np.all(det == 1.0)


def test_jacobian_of_linear_scaling_exact():
    geom = GridGeom((6, 6, 6))
    ii, jj, kk = np.meshgrid(*(np.arange(6.0),) * 3, indexing="ij")
    u = np.stack([0.1 * ii, -0.05 * jj, 0.2 * kk], axis=-1)
    det = jacobian_determinant(VectorField3D(geom, u))
    # Finite differences are exact on linear fields, boundary included.
    assert np.allclose(det, 1.1 * 0.95 * 1.2, rtol=0.0, atol=1e-12)


def test_jacobian_requires_three_voxels_per_axis():
    geom = GridGeom((2, 5, 5))
    with pytest.raises(ValueError, match=">= 3 voxels"):
        jacobian_determinant(VectorField3D(geom, np.zeros((2, 5, 5, 3))))


# ---------------------------------------------------------------------------
# Linearization and adjoint (exp_vjp)
# ---------------------------------------------------------------------------

def _mesh_in_grid():
    mesh = straight_cylinder(circumferential=8, axial=5, length=10.0, radius=2.5)
    grid = GridGeom((8, 8, 8), spacing=(5.0, 5.0, 5.0), origin=(-17.5, -17.5, -12.5))
    return mesh, grid


def test_exp_vjp_zero_cotangent_gives_zero_field():
    mesh, grid = _mesh_in_grid()
    svf = smooth_svf(grid.dims, max_abs=0.4, seed=50)
    svf = VectorField3D(grid, svf.data)
    out = exp_vjp(svf, linearize(svf, DiffeoConfig(), mesh, grid), np.zeros_like(mesh.vertices))
    assert np.all(out.data == 0.0)


def test_exp_vjp_zero_steps_matches_hand_built_scatter():
    # With S = 0 the displacement IS tau, so the gradient is exactly the
    # trilinear scatter of spacing-scaled vertex cotangents.
    mesh, grid = _mesh_in_grid()
    rng = np.random.default_rng(51)
    svf = VectorField3D(grid, np.zeros(grid.dims + (3,)))
    g = rng.standard_normal(mesh.vertices.shape)
    cfg = DiffeoConfig(squaring_steps=0, auto_steps=False)
    out = exp_vjp(svf, linearize(svf, cfg, mesh, grid), g)

    expect = np.zeros(grid.dims + (3,))
    pts = grid.world_to_voxel(mesh.vertices)
    spacing = np.asarray(grid.spacing)
    for n in range(len(pts)):
        i0 = np.floor(pts[n]).astype(int)
        i0 = np.minimum(np.maximum(i0, 0), np.asarray(grid.dims) - 2)
        f = pts[n] - i0
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    w = ((f[0] if dx else 1 - f[0])
                         * (f[1] if dy else 1 - f[1])
                         * (f[2] if dz else 1 - f[2]))
                    expect[i0[0] + dx, i0[1] + dy, i0[2] + dz] += w * g[n] * spacing
    assert np.allclose(out.data, expect, rtol=1e-12, atol=1e-13)


def test_exp_vjp_matches_directional_finite_differences():
    mesh, grid = _mesh_in_grid()
    cfg = DiffeoConfig(squaring_steps=4, auto_steps=False)
    rng = np.random.default_rng(52)
    for trial in range(10):
        svf = smooth_svf(grid.dims, max_abs=0.4, seed=60 + trial)
        svf = VectorField3D(grid, svf.data)
        a = rng.standard_normal(mesh.vertices.shape)  # linear loss coefficients

        def loss(fld):
            warped = warp_vertices(mesh, exponentiate(fld, cfg), grid)
            return float(np.sum(a * warped.vertices))

        g = exp_vjp(svf, linearize(svf, cfg, mesh, grid), a).data
        d = rng.standard_normal(svf.data.shape)
        d /= np.linalg.norm(d.ravel())
        h = 1e-5
        plus = loss(VectorField3D(grid, svf.data + h * d))
        minus = loss(VectorField3D(grid, svf.data - h * d))
        fd = (plus - minus) / (2.0 * h)
        analytic = float(np.sum(g * d))
        denom = max(abs(fd), abs(analytic), np.linalg.norm(g.ravel()) * 1e-6)
        assert abs(fd - analytic) / denom < 1e-4, f"trial {trial}"


def _reference_vjp(svf, cfg, g, mesh, grid):
    """The adjoint loop written out step by step: W_k.T for the field values,
    the slope matrices for the sample points, with clamped axes zeroed."""
    us, samplers = _forward(svf, cfg)
    grad_u = vertex_sampler(mesh, grid).weights.T @ (g * np.asarray(grid.spacing))
    for u, step in zip(reversed(us[:-1]), reversed(samplers)):
        flat = u.reshape(-1, 3)
        ds = [(s @ flat) * grad_u for s in step.slopes(np.arange(len(flat)))]
        point_grad = np.stack([d[:, 0] + d[:, 1] + d[:, 2] for d in ds], axis=1) * step.interior
        grad_u = grad_u + step.weights.T @ grad_u + point_grad
    return grad_u.reshape(svf.data.shape) / (2.0 ** len(samplers))


@pytest.mark.parametrize("dims", [(8, 8, 8), (11, 9, 10)], ids=["grid8", "grid11x9x10"])
def test_linearization_vjp_matches_reference_adjoint_loop(dims):
    mesh, grid = _mesh_in_grid()
    grid = GridGeom(dims, tuple(35.0 / (n - 1) for n in dims), grid.origin)
    svf = VectorField3D(grid, smooth_svf(dims, max_abs=3.0, seed=70).data)
    g = np.random.default_rng(71).standard_normal(mesh.vertices.shape)
    cfg = DiffeoConfig()
    got = exp_vjp(svf, linearize(svf, cfg, mesh, grid), g)
    assert np.array_equal(got.data, _reference_vjp(svf, cfg, g, mesh, grid))


def test_linearization_jvp_matches_central_differences():
    mesh, grid = _mesh_in_grid()
    cfg = DiffeoConfig()
    rng = np.random.default_rng(72)
    for trial in range(5):
        svf = VectorField3D(grid, smooth_svf(grid.dims, max_abs=1.5, seed=80 + trial).data)
        d = smooth_svf(grid.dims, max_abs=1.0, seed=90 + trial).data * rng.standard_normal(3)
        h = 1e-6

        def warped(data):
            return warp_vertices(mesh, exponentiate(VectorField3D(grid, data), cfg), grid).vertices

        fd = (warped(svf.data + h * d) - warped(svf.data - h * d)) / (2.0 * h)
        jvp = linearize(svf, cfg, mesh, grid).jvp(d)
        assert np.linalg.norm(jvp - fd) <= 1e-8 * np.linalg.norm(jvp), f"trial {trial}"


def test_linearization_jvp_and_vjp_are_transposes():
    mesh, grid = _mesh_in_grid()
    rng = np.random.default_rng(73)
    svf = VectorField3D(grid, smooth_svf(grid.dims, max_abs=2.0, seed=74).data)
    lin = linearize(svf, DiffeoConfig(), mesh, grid)
    for _ in range(5):
        d = rng.standard_normal(svf.data.shape)
        c = rng.standard_normal(mesh.vertices.shape)
        lhs, rhs = np.sum(lin.jvp(d) * c), np.sum(d * lin.vjp(c))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


class _FullGridLinearization:
    """The linearization on every node of the grid, as it was before the cone:
    each step keeps W_k and M_k over the whole grid."""

    def __init__(self, states, sampler, spacing):
        us, samplers = states
        self.steps = []
        for u, step in zip(us, samplers):
            flat = u.reshape(-1, 3)
            block = np.stack([s @ flat for s in step.slopes(np.arange(len(flat)))], axis=2) * step.interior[:, None, :]
            self.steps.append((step.weights, block))
        self.shape = us[0].shape
        self.sampler = sampler
        self.spacing = np.asarray(spacing, dtype=np.float64)

    def jvp(self, d_tau):
        du = d_tau.reshape(-1, 3) / (2.0 ** len(self.steps))
        for w, m in self.steps:
            du = du + w @ du + np.einsum("ica,ia->ic", m, du)
        return self.sampler.sample(du.reshape(self.shape)) * self.spacing

    def vjp(self, cot):
        grad = self.sampler.weights.T @ (cot * self.spacing)
        for w, m in reversed(self.steps):
            grad = grad + w.T @ grad + np.einsum("ica,ic->ia", m, grad)
        return grad.reshape(self.shape) / (2.0 ** len(self.steps))


def _cone_cases():
    mesh, grid = _mesh_in_grid()
    # A grid twice as wide as the tube: the cone is a strict subset of it.
    wide = GridGeom((16, 16, 14), (5.0, 5.0, 5.0), (-37.5, -37.5, -32.5))
    # The mesh's own bounding box: its extreme vertices lie on grid faces.
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    tight = GridGeom((7, 7, 6), tuple((hi - lo) / [6, 6, 5]), tuple(lo))
    return {
        "strict_subset": (mesh, wide, DiffeoConfig(), 2.0),
        "zero_steps": (mesh, grid, DiffeoConfig(squaring_steps=0, auto_steps=False), 0.4),
        "vertices_on_faces": (mesh, tight, DiffeoConfig(squaring_steps=3), 1.5),
    }


@pytest.mark.parametrize("case", ["strict_subset", "zero_steps", "vertices_on_faces"])
def test_cone_products_equal_full_grid_bitwise(case):
    # Restricting the products to the vertices' dependency cone drops only
    # rows that never reach the vertices and terms that are exactly +0.0,
    # and keeps every sum's order: jvp, vjp and a Hessian-vector product are
    # byte-for-byte those of the full grid.
    mesh, grid, cfg, amp = _cone_cases()[case]
    svf = VectorField3D(grid, smooth_svf(grid.dims, max_abs=amp, seed=75).data)
    states = _forward(svf, cfg)
    sampler = vertex_sampler(mesh, grid)
    lin = diffeo.Linearization(states, sampler, grid.spacing)
    ref = _FullGridLinearization(states, sampler, grid.spacing)
    rng = np.random.default_rng(76)
    d = rng.standard_normal(svf.data.shape)
    c = rng.standard_normal(mesh.vertices.shape)
    diag = rng.uniform(0.5, 2.0, (len(c), 1))
    assert lin.jvp(d).tobytes() == ref.jvp(d).tobytes()
    assert lin.vjp(c).tobytes() == ref.vjp(c).tobytes()
    assert lin.vjp(diag * lin.jvp(d)).tobytes() == ref.vjp(diag * ref.jvp(d)).tobytes()
    n = np.prod(grid.dims)
    if case == "strict_subset":
        assert lin.vertices.shape[1] < len(lin.nodes) < n
    if case == "vertices_on_faces":
        pts = grid.world_to_voxel(mesh.vertices)
        assert np.any(pts == 0.0) and np.any(pts == np.asarray(grid.dims) - 1.0)


@pytest.mark.parametrize("case", ["strict_subset", "zero_steps", "vertices_on_faces"])
def test_cones_are_prefixes_of_the_node_numbering(case):
    # cone[S] is what the vertex sampler reads; cone[k] adds what W_k's rows
    # in cone[k+1] read. Each is a prefix of ``nodes``, each step's new nodes
    # ascending.
    mesh, grid, cfg, amp = _cone_cases()[case]
    svf = VectorField3D(grid, smooth_svf(grid.dims, max_abs=amp, seed=75).data)
    _, samplers = states = _forward(svf, cfg)
    sampler = vertex_sampler(mesh, grid)
    lin = diffeo.Linearization(states, sampler, grid.spacing)
    nodes = lin.nodes
    assert len(np.unique(nodes)) == len(nodes)
    widths = [w.shape[1] for w, *_ in lin.steps] + [lin.vertices.shape[1]]
    cone = np.unique(sampler.weights.indices)
    assert np.array_equal(nodes[: widths[-1]], cone)
    for k in reversed(range(len(samplers))):
        rows = nodes[: widths[k + 1]]
        assert lin.steps[k][0].shape == (len(rows), widths[k])
        reads = samplers[k].weights.indices.reshape(-1, 8)[rows]
        new = np.setdiff1d(reads, cone)
        assert np.array_equal(nodes[widths[k + 1]: widths[k]], new)
        cone = np.union1d(cone, new)
    assert len(nodes) == widths[0]


def test_exp_vjp_rejects_mismatched_gradient_shape():
    mesh, grid = _mesh_in_grid()
    svf = VectorField3D(grid, np.zeros(grid.dims + (3,)))
    with pytest.raises(ValueError, match="vertex_grad"):
        exp_vjp(svf, linearize(svf, DiffeoConfig(), mesh, grid), np.zeros((3, 3)))
