"""Volume grid: geometry, trilinear sampling and its adjoint, I/O."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from aortafit.volgrid import (
    GridGeom,
    TrilinearSampler,
    Volume3D,
    VectorField3D,
    trilinear_sample,
    save_volume,
    load_volume,
)


# ---------------------------------------------------------------------------
# GridGeom
# ---------------------------------------------------------------------------

def test_geom_validation():
    with pytest.raises(ValueError):
        GridGeom((1, 4, 4))
    with pytest.raises(ValueError):
        GridGeom((4, 4, 4), spacing=(1.0, 0.0, 1.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="spacing must be finite"):
            GridGeom((4, 4, 4), spacing=(1.0, bad, 1.0))
        with pytest.raises(ValueError, match="origin must be finite"):
            GridGeom((4, 4, 4), origin=(0.0, 0.0, bad))
    with pytest.raises(ValueError):
        GridGeom((4, 4))
    geom = GridGeom((4, 5, 6), spacing=(0.5, 1.0, 2.0), origin=(-1.0, 2.0, 3.0))
    assert geom.dims == (4, 5, 6)


def test_geom_world_voxel_round_trip():
    rng = np.random.default_rng(7)
    geom = GridGeom((8, 9, 10), spacing=(0.7, 1.3, 2.1), origin=(-4.0, 1.5, 9.0))
    pts = rng.uniform(-20.0, 40.0, size=(50, 3))
    back = np.asarray(geom.origin) + geom.world_to_voxel(pts) * np.asarray(geom.spacing)
    assert np.allclose(back, pts, rtol=0.0, atol=1e-12)
    # Voxel (i,j,k) sits at origin + (i,j,k) * spacing.
    assert np.allclose(geom.world_to_voxel([-4.0 + 1.4, 1.5 + 3.9, 9.0 + 8.4]), [2.0, 3.0, 4.0])


def test_field_shape_checks():
    geom = GridGeom((4, 4, 4))
    with pytest.raises(ValueError):
        Volume3D(geom, np.zeros((4, 4, 5)))
    with pytest.raises(ValueError):
        VectorField3D(geom, np.zeros((4, 4, 4)))
    bad = np.zeros((4, 4, 4, 3))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        VectorField3D(geom, bad)


# ---------------------------------------------------------------------------
# Trilinear sampling
# ---------------------------------------------------------------------------

def test_sample_exact_at_lattice_points():
    rng = np.random.default_rng(11)
    geom = GridGeom((5, 6, 7))
    vol = Volume3D(geom, rng.standard_normal((5, 6, 7)))
    idx = np.stack([rng.integers(0, n, size=40) for n in geom.dims], axis=1)
    vals = trilinear_sample(vol, idx.astype(float))
    expect = vol.data[idx[:, 0], idx[:, 1], idx[:, 2]]
    assert np.array_equal(vals, expect)


def test_sample_midpoint_is_neighbor_average():
    rng = np.random.default_rng(12)
    geom = GridGeom((4, 4, 4))
    vol = Volume3D(geom, rng.standard_normal((4, 4, 4)))
    v = trilinear_sample(vol, [1.5, 2.0, 3.0])
    assert v == pytest.approx(0.5 * (vol.data[1, 2, 3] + vol.data[2, 2, 3]), abs=1e-15)


def test_sample_reproduces_trilinear_polynomial():
    # f(x,y,z) = a + bx + cy + dz + e xy + f xz + g yz + h xyz is multilinear,
    # so trilinear interpolation of its lattice values reproduces it exactly.
    rng = np.random.default_rng(13)
    for _ in range(5):
        a, b, c, d, e, f, g, h = rng.standard_normal(8)

        def poly(p):
            x, y, z = p[..., 0], p[..., 1], p[..., 2]
            return a + b * x + c * y + d * z + e * x * y + f * x * z + g * y * z + h * x * y * z

        geom = GridGeom((6, 5, 7))
        ii, jj, kk = np.meshgrid(*(np.arange(n, dtype=float) for n in geom.dims), indexing="ij")
        lattice = np.stack([ii, jj, kk], axis=-1)
        vol = Volume3D(geom, poly(lattice))
        pts = rng.uniform([0, 0, 0], [5, 4, 6], size=(30, 3))
        assert np.allclose(trilinear_sample(vol, pts), poly(pts), rtol=0.0, atol=1e-10)


def test_sample_clamps_outside_points_to_boundary():
    rng = np.random.default_rng(14)
    geom = GridGeom((5, 5, 5))
    vol = Volume3D(geom, rng.standard_normal((5, 5, 5)))
    assert trilinear_sample(vol, [-5.0, 2.0, 3.0]) == vol.data[0, 2, 3]
    assert trilinear_sample(vol, [1.0, 9.0, 3.0]) == vol.data[1, 4, 3]
    # Fractional coordinate on one axis, clamped on another.
    v = trilinear_sample(vol, [-2.0, 1.5, 0.0])
    assert v == pytest.approx(0.5 * (vol.data[0, 1, 0] + vol.data[0, 2, 0]), abs=1e-15)


def test_sample_vector_field_componentwise():
    rng = np.random.default_rng(15)
    geom = GridGeom((4, 5, 6))
    data = rng.standard_normal((4, 5, 6, 3))
    fld = VectorField3D(geom, data)
    pts = rng.uniform(0, 3, size=(20, 3))
    got = trilinear_sample(fld, pts)
    assert got.shape == (20, 3)
    for k in range(3):
        comp = trilinear_sample(Volume3D(geom, data[..., k]), pts)
        # Scalar and vector paths contract in different orders, so only
        # last-bit rounding may differ.
        assert np.allclose(got[:, k], comp, rtol=0.0, atol=1e-14)
    single = trilinear_sample(fld, pts[0])
    assert single.shape == (3,)
    assert np.array_equal(single, got[0])


@pytest.mark.parametrize("kind, comps", [(Volume3D, ()), (VectorField3D, (3,))],
                         ids=["Volume3D", "VectorField3D"])
def test_sample_vjp_is_exact_adjoint_in_data(kind, comps):
    # Sampling is linear in the stored values, so the data gradient must
    # satisfy <cot, S(data + delta) - S(data)> = <grad_data, delta> exactly
    # up to roundoff, for any perturbation delta.
    rng = np.random.default_rng(16)
    geom = GridGeom((5, 6, 4))
    for _ in range(5):
        data = rng.standard_normal(geom.dims + comps)
        fld = kind(geom, data)
        pts = rng.uniform(-1.0, 6.0, size=(25, 3))
        cot = rng.standard_normal((25,) + comps)
        grad_data = TrilinearSampler(geom.dims, pts).adjoint(cot)
        assert grad_data.shape == data.shape
        delta = rng.standard_normal(data.shape)
        lhs = np.sum(cot * (trilinear_sample(kind(geom, data + delta), pts)
                            - trilinear_sample(fld, pts)))
        rhs = np.sum(grad_data * delta)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_sample_vjp_position_gradient_matches_fd():
    rng = np.random.default_rng(17)
    geom = GridGeom((8, 8, 8))
    data = rng.standard_normal(geom.dims + (3,))
    fld = VectorField3D(geom, data)
    pts = rng.uniform(1.3, 5.7, size=(12, 3))
    cot = rng.standard_normal((12, 3))
    sampler = TrilinearSampler(geom.dims, pts)
    grad_pts = _reference_point_grad(sampler.slopes(), sampler.interior, data, cot)
    h = 1e-6
    for a in range(3):
        shift = np.zeros(3)
        shift[a] = h
        plus = np.sum(cot * trilinear_sample(fld, pts + shift))
        minus = np.sum(cot * trilinear_sample(fld, pts - shift))
        fd = (plus - minus) / (2.0 * h)
        assert fd == pytest.approx(np.sum(grad_pts[:, a]), rel=1e-6, abs=1e-8)


def test_sample_vjp_clamped_axes_have_zero_position_gradient():
    # Clamping is per axis: only the clamped coordinate loses its gradient.
    rng = np.random.default_rng(18)
    geom = GridGeom((4, 4, 4))
    vol = Volume3D(geom, rng.standard_normal((4, 4, 4)))
    pts = np.array([[-3.0, 1.2, 1.7], [1.0, 1.0, 1.0], [1.3, 8.0, 0.6]])
    sampler = TrilinearSampler(geom.dims, pts)
    grad_pts = _reference_point_grad(sampler.slopes(), sampler.interior, vol.data, np.ones(3))
    assert grad_pts[0, 0] == 0.0
    assert grad_pts[2, 1] == 0.0
    # Unclamped axes of the same points keep their slopes.
    assert grad_pts[0, 1] != 0.0 and grad_pts[0, 2] != 0.0


def test_sample_rejects_nonfinite_points():
    geom = GridGeom((4, 4, 4))
    vol = Volume3D(geom, np.zeros((4, 4, 4)))
    with pytest.raises(ValueError):
        trilinear_sample(vol, [np.nan, 1.0, 1.0])


def _reference_sampler(dims, pts):
    """The sampler's arithmetic written out plainly: W, slopes and interior.

    Corner weights come from fancy-indexed (1 - frac, frac) pairs multiplied
    as (wx * wy) * wz, and each slope swaps one factor for its +-1 corner
    sign, in the same multiplication order.
    """
    hi = np.asarray(dims, dtype=np.float64) - 1.0
    interior = (pts > 0.0) & (pts < hi)
    p = np.clip(pts, 0.0, hi)
    i0 = np.minimum(np.floor(p).astype(np.intp), np.asarray(dims, dtype=np.intp) - 2)
    frac = p - i0
    corner = np.indices((2, 2, 2)).reshape(3, 8)
    _, d1, d2 = dims
    base = (i0[:, 0] * d1 + i0[:, 1]) * d2 + i0[:, 2]
    cols = base[:, None] + (corner[0] * d1 + corner[1]) * d2 + corner[2]
    wx, wy, wz = (np.stack([1.0 - frac[:, a], frac[:, a]], axis=1)[:, corner[a]] for a in range(3))
    sx, sy, sz = np.where(corner, 1.0, -1.0)
    shape = (len(pts), int(np.prod(dims)))
    ptr = np.arange(0, 8 * len(pts) + 1, 8)
    mats = [sp.csr_array((w.ravel(), cols.ravel(), ptr), shape=shape)
            for w in (wx * wy * wz, sx * wy * wz, wx * sy * wz, wx * wy * sz)]
    return mats[0], mats[1:], interior


def _reference_point_grad(slopes, interior, data, cot):
    """(N, 3) d(sum(cot * sampled values))/d(points), from the slope matrices."""
    flat = data.reshape((-1,) + data.shape[3:])
    cols = [((s @ flat) * cot).reshape(len(cot), -1).sum(axis=1) for s in slopes]
    return np.stack(cols, axis=1) * interior


def _mixed_points(dims, rng):
    """Interior, on-face, lattice, clamped and far out-of-range points."""
    hi = np.asarray(dims, dtype=float) - 1.0
    inside = rng.uniform(0.0, 1.0, size=(40, 3)) * hi
    on_face = rng.uniform(0.0, 1.0, size=(6, 3)) * hi
    on_face[[0, 1, 2], [0, 1, 2]] = 0.0
    on_face[[3, 4, 5], [0, 1, 2]] = hi
    lattice = rng.integers(0, np.asarray(dims), size=(8, 3)).astype(float)
    clamped = rng.uniform(-0.6, 1.0, size=(12, 3)) * (hi + 1.2)
    far = rng.uniform(-50.0, 50.0, size=(8, 3))
    return np.concatenate([inside, on_face, lattice, clamped, far])


@pytest.mark.parametrize("comps", [(), (3,)], ids=["scalar", "vector"])
def test_sampler_matches_reference_arithmetic(comps):
    # The operator, its slopes and every product must equal the plain
    # arithmetic above value for value, not just to roundoff.
    rng = np.random.default_rng(19)
    dims = (5, 7, 4)
    pts = _mixed_points(dims, rng)
    data = rng.standard_normal(dims + comps)
    cot = rng.standard_normal((len(pts),) + comps)
    cot[::5] = 0.0
    ref_w, ref_slopes, ref_interior = _reference_sampler(dims, pts)
    sampler = TrilinearSampler(dims, pts)
    assert sampler.weights.indices.dtype == np.int32 and sampler.weights.indptr.dtype == np.int32
    for got, ref in zip((sampler.weights,) + sampler.slopes(), (ref_w,) + tuple(ref_slopes)):
        assert np.array_equal(got.data, ref.data)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(sampler.interior, ref_interior)
    flat = data.reshape((-1,) + comps)
    assert np.array_equal(sampler.sample(data), ref_w @ flat)
    assert np.array_equal(sampler.adjoint(cot), (ref_w.T @ cot).reshape(dims + comps))


def test_sampler_rejects_grids_beyond_int32_indices():
    with pytest.raises(ValueError, match="int32"):
        TrilinearSampler((2048, 1024, 1024), [[1.0, 1.0, 1.0]])


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------

def test_save_load_scalar_round_trip(tmp_path):
    rng = np.random.default_rng(22)
    geom = GridGeom((4, 5, 6), spacing=(0.5, 1.0, 1.5), origin=(-1.0, 2.0, 0.25))
    vol = Volume3D(geom, rng.standard_normal((4, 5, 6)))
    save_volume(vol, str(tmp_path / "vol"))
    back = load_volume(str(tmp_path / "vol.hdr"))
    assert isinstance(back, Volume3D)
    assert back.geom == geom
    assert np.array_equal(back.data, vol.data)


def test_save_load_vector_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    geom = GridGeom((3, 4, 5))
    fld = VectorField3D(geom, rng.standard_normal((3, 4, 5, 3)))
    save_volume(fld, str(tmp_path / "svf.hdr"))
    back = load_volume(str(tmp_path / "svf"))
    assert isinstance(back, VectorField3D)
    assert np.array_equal(back.data, fld.data)


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.hdr"
    p.write_text("not a header\ndims: 2 2 2\n")
    with pytest.raises(ValueError, match="magic"):
        load_volume(str(p))


def test_load_rejects_truncated_payload(tmp_path):
    geom = GridGeom((4, 4, 4))
    vol = Volume3D(geom, np.zeros((4, 4, 4)))
    hdr = save_volume(vol, str(tmp_path / "t"))
    raw = tmp_path / "t.raw"
    raw.write_bytes(raw.read_bytes()[:-16])
    with pytest.raises(ValueError, match="expected 64 values"):
        load_volume(hdr)


def test_load_reports_missing_field(tmp_path):
    geom = GridGeom((2, 2, 2))
    hdr = save_volume(Volume3D(geom, np.zeros((2, 2, 2))), str(tmp_path / "m"))
    lines = [ln for ln in Path(hdr).read_text().splitlines() if not ln.startswith("components")]
    (tmp_path / "m.hdr").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="missing header field"):
        load_volume(hdr)
