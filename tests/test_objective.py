"""Fitting objective: region MSE, bending smoothness, gradients, chamfer."""

import numpy as np
import pytest

from conftest import straight_cylinder, random_rotation

from aortafit import objective
from aortafit.objective import LossWeights, chamfer, loss_grad, smoothness, total_loss
from aortafit.quadmesh import REGIONS, QuadMesh


def _region_mse(pred, gt):
    """Per-region MSEs, in REGIONS order, as total_loss reports them."""
    region_mse = total_loss(pred, gt, LossWeights(alpha=0.0))["region_mse"]
    return tuple(region_mse[name] for name in REGIONS)


def _jittered(mesh, scale, seed):
    rng = np.random.default_rng(seed)
    return mesh.with_vertices(mesh.vertices + rng.normal(0.0, scale, mesh.vertices.shape))


# ---------------------------------------------------------------------------
# LossWeights
# ---------------------------------------------------------------------------

def test_weights_normalize_to_unit_sum():
    w = LossWeights(omega=(2.0, 1.0, 1.0, 4.0))
    assert sum(w.omega) == pytest.approx(1.0, abs=1e-15)
    assert w.omega == (0.25, 0.125, 0.125, 0.5)


def test_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(omega=(1.0, -0.5, 0.25, 0.25))
    with pytest.raises(ValueError):
        LossWeights(omega=(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        LossWeights(omega=(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        LossWeights(alpha=-0.01)


# ---------------------------------------------------------------------------
# Region MSEs and their weighted sum (total_loss "region_mse" / "weighted_geo")
# ---------------------------------------------------------------------------

def test_region_mse_zero_on_identical(tube24):
    assert _region_mse(tube24, tube24) == (0.0,) * len(REGIONS)


def test_region_mse_uniform_offset(tube24):
    # Every vertex moved by (1, 2, 2): squared distance is 9 everywhere.
    pred = tube24.with_vertices(tube24.vertices + np.array([1.0, 2.0, 2.0]))
    for mse in _region_mse(pred, tube24):
        assert mse == pytest.approx(9.0, abs=1e-12)


def test_region_mse_matches_brute_force():
    rng = np.random.default_rng(61)
    base = straight_cylinder(circumferential=8, axial=12, length=30.0)
    pred = _jittered(base, 0.7, 62)
    got = _region_mse(pred, base)
    for code in range(len(REGIONS)):
        acc, cnt = 0.0, 0
        for i in range(base.n_vertices):
            if base.regions[i] == code:
                d = pred.vertices[i] - base.vertices[i]
                acc += float(d @ d)
                cnt += 1
        assert got[code] == pytest.approx(acc / cnt, rel=1e-12)


def test_region_mse_missing_region_raises():
    mesh = straight_cylinder(circumferential=6, axial=4, length=10.0)
    solo = QuadMesh(mesh.vertices, mesh.faces, np.zeros(mesh.n_vertices, dtype=np.int8),
                    mesh.ring_layout)
    with pytest.raises(ValueError, match="no vertices"):
        _region_mse(solo, solo)


def test_region_mse_rejects_mismatched_meshes():
    a = straight_cylinder(circumferential=6, axial=4, length=10.0)
    b = straight_cylinder(circumferential=8, axial=4, length=10.0)
    with pytest.raises(ValueError):
        _region_mse(a, b)


def test_weighted_geo_identities(tube24):
    pred = _jittered(tube24, 0.5, 63)
    per = _region_mse(pred, tube24)

    def weighted_geo(w):
        return total_loss(pred, tube24, w)["weighted_geo"]

    # Pure single-region weight picks out that region's MSE.
    for r in range(4):
        om = [0.0] * 4
        om[r] = 1.0
        assert weighted_geo(LossWeights(omega=om)) == pytest.approx(per[r], rel=1e-12)
    # Equal weights give the arithmetic mean.
    got = weighted_geo(LossWeights())
    assert got == pytest.approx(sum(per) / 4.0, rel=1e-12)
    # Convexity: any weighting stays within the component range.
    w = LossWeights(omega=(0.1, 0.5, 0.15, 0.25))
    assert min(per) <= weighted_geo(w) <= max(per)


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def test_smoothness_straight_tube_closed_form():
    # Straight tube: axial chains are collinear (zero penalty), each ring
    # contributes C pairs of 1 - cos(2*pi/C) (regular polygon turn angle).
    c, a = 16, 10
    mesh = straight_cylinder(circumferential=c, axial=a, length=30.0)
    pairs_circ = a * c
    pairs_axial = (a - 2) * c
    expect = pairs_circ * (1.0 - np.cos(2.0 * np.pi / c)) / (pairs_circ + pairs_axial)
    assert smoothness(mesh) == pytest.approx(expect, rel=1e-12)


def test_smoothness_matches_brute_force_enumeration():
    mesh = _jittered(straight_cylinder(circumferential=7, axial=5, length=12.0), 0.4, 64)
    c, a = mesh.ring_layout
    v = mesh.vertices.reshape(a, c, 3)
    acc, cnt = 0.0, 0
    for ring in range(a):
        for slot in range(c):
            e1 = v[ring, slot] - v[ring, (slot - 1) % c]
            e2 = v[ring, (slot + 1) % c] - v[ring, slot]
            acc += 1.0 - (e1 @ e2) / (np.linalg.norm(e1) * np.linalg.norm(e2))
            cnt += 1
    for ring in range(1, a - 1):
        for slot in range(c):
            e1 = v[ring, slot] - v[ring - 1, slot]
            e2 = v[ring + 1, slot] - v[ring, slot]
            acc += 1.0 - (e1 @ e2) / (np.linalg.norm(e1) * np.linalg.norm(e2))
            cnt += 1
    assert smoothness(mesh) == pytest.approx(acc / cnt, rel=1e-12)


def test_smoothness_skips_zero_length_pairs():
    mesh = straight_cylinder(circumferential=6, axial=5, length=12.0)
    v = mesh.vertices.copy()
    v[7] = v[13]  # collapse one axial edge
    collapsed = mesh.with_vertices(v)
    val, skipped = smoothness(collapsed, return_skipped=True)
    assert skipped > 0
    assert np.isfinite(val)


def test_smoothness_rigid_and_scale_invariant():
    rng = np.random.default_rng(65)
    mesh = _jittered(straight_cylinder(circumferential=8, axial=6, length=20.0), 0.3, 66)
    base = smoothness(mesh)
    q = random_rotation(rng)
    moved = mesh.with_vertices(mesh.vertices @ q.T + np.array([10.0, -4.0, 2.0]))
    assert smoothness(moved) == pytest.approx(base, rel=1e-9)
    scaled = mesh.with_vertices(mesh.vertices * 3.7)
    assert smoothness(scaled) == pytest.approx(base, rel=1e-12)


def test_smoothness_requires_ring_layout(sphere16):
    with pytest.raises(ValueError, match="ring_layout"):
        smoothness(sphere16)


# ---------------------------------------------------------------------------
# total_loss
# ---------------------------------------------------------------------------

def test_total_loss_zero_at_ground_truth_without_alpha(tube24):
    bd = total_loss(tube24, tube24, LossWeights(alpha=0.0))
    assert bd["total"] == 0.0
    assert bd["weighted_geo"] == 0.0
    assert bd["smoothness"] == 0.0


def test_total_loss_composition(tube24):
    pred = _jittered(tube24, 0.5, 67)
    w = LossWeights(omega=(0.4, 0.3, 0.2, 0.1), alpha=0.05)
    bd = total_loss(pred, tube24, w)
    assert bd["total"] == pytest.approx(bd["weighted_geo"] + 0.05 * bd["smoothness"], rel=1e-15)
    assert bd["weighted_geo"] == pytest.approx(
        sum(wr * bd["region_mse"][name] for wr, name in zip(w.omega, REGIONS)), rel=1e-12)
    assert bd["smoothness"] == pytest.approx(smoothness(pred), rel=1e-15)
    assert set(bd) == {"region_mse", "weighted_geo", "smoothness", "alpha", "total", "skipped_pairs"}
    assert set(bd["region_mse"]) == set(REGIONS)


def test_total_loss_alpha_zero_skips_smoothness(sphere16, tube24):
    # With alpha = 0 the smoothness term is never evaluated, so meshes
    # without a ring layout still get a loss.
    bd = total_loss(sphere16, sphere16, LossWeights(alpha=0.0))
    assert bd["total"] == 0.0


# ---------------------------------------------------------------------------
# loss_grad
# ---------------------------------------------------------------------------

def test_loss_grad_zero_at_ground_truth(tube24):
    g = loss_grad(tube24, tube24, LossWeights(alpha=0.0))
    assert np.all(g == 0.0)


def test_loss_grad_single_vertex_formula(tube24):
    # Moving one vertex by d adds omega_r * |d|^2 / n_r to the loss, so the
    # gradient at that vertex is 2 * omega_r * d / n_r.
    w = LossWeights(omega=(0.4, 0.3, 0.2, 0.1), alpha=0.0)
    vid = 500
    code = int(tube24.regions[vid])
    n_r = int(np.sum(tube24.regions == code))
    d = np.array([0.3, -0.2, 0.5])
    v = tube24.vertices.copy()
    v[vid] += d
    g = loss_grad(tube24.with_vertices(v), tube24, w)
    assert np.allclose(g[vid], 2.0 * w.omega[code] * d / n_r, rtol=1e-12)
    mask = np.ones(tube24.n_vertices, dtype=bool)
    mask[vid] = False
    assert np.all(g[mask] == 0.0)


def test_loss_grad_matches_finite_differences():
    rng = np.random.default_rng(68)
    base = straight_cylinder(circumferential=6, axial=5, length=12.0)
    w = LossWeights(omega=(0.35, 0.25, 0.25, 0.15), alpha=0.08)
    for trial in range(10):
        pred = _jittered(base, 0.3, 70 + trial)
        g = loss_grad(pred, base, w)
        h = 1e-6
        for _ in range(3):
            i = rng.integers(0, base.n_vertices)
            a = rng.integers(0, 3)
            vp = pred.vertices.copy()
            vp[i, a] += h
            up = total_loss(pred.with_vertices(vp), base, w)["total"]
            vp[i, a] -= 2 * h
            dn = total_loss(pred.with_vertices(vp), base, w)["total"]
            fd = (up - dn) / (2 * h)
            assert fd == pytest.approx(g[i, a], rel=1e-5, abs=1e-10)


def _reference_loss(pred, gt, weights):
    """(total_loss dict, loss_grad) with each edge pair's arithmetic in full.

    Every direction forms its own e1 and e2 from the vertices and computes
    their norms; the gradient recomputes the cosines; each region's MSE
    differences only that region's vertices.
    """
    c, a = pred.ring_layout
    v = pred.vertices.reshape(a, c, 3)
    chains = [(v - np.roll(v, 1, axis=1), np.roll(v, -1, axis=1) - v), (v[1:-1] - v[:-2], v[2:] - v[1:-1])]
    grads, pens, valids = [], [], []
    for e1, e2 in chains:
        n1, n2 = np.linalg.norm(e1, axis=-1), np.linalg.norm(e2, axis=-1)
        valid = (n1 > 0) & (n2 > 0)
        denom = np.where(valid, n1 * n2, 1.0)
        cos = np.einsum("...i,...i->...", e1, e2) / denom
        pens.append(np.where(valid, 1.0 - cos, 0.0))
        valids.append(valid)
        d1 = -(e2 / denom[..., None] - (cos / np.where(valid, n1 * n1, 1.0))[..., None] * e1)
        d2 = -(e1 / denom[..., None] - (cos / np.where(valid, n2 * n2, 1.0))[..., None] * e2)
        d1[~valid] = 0.0
        d2[~valid] = 0.0
        grads.append((d1, d2))
    counted = int(valids[0].sum() + valids[1].sum())
    smooth = float((pens[0].sum() + pens[1].sum()) / counted)
    skipped = pens[0].size + pens[1].size - counted

    sgrad = np.zeros_like(v)
    (d1, d2), (a1, a2) = grads
    sgrad += d1 - d2
    sgrad += np.roll(-d1, -1, axis=1)
    sgrad += np.roll(d2, 1, axis=1)
    sgrad[1:-1] += a1 - a2
    sgrad[:-2] += -a1
    sgrad[2:] += a2

    region = {}
    for code, name in enumerate(REGIONS):
        mask = pred.regions == code
        diff = pred.vertices[mask] - gt.vertices[mask]
        region[name] = float(np.mean(np.einsum("ij,ij->i", diff, diff)))
    geo = float(sum(w * region[name] for w, name in zip(weights.omega, REGIONS)))
    fields = {"region_mse": region, "weighted_geo": geo, "smoothness": smooth, "alpha": weights.alpha,
              "total": geo + weights.alpha * smooth, "skipped_pairs": skipped}

    counts = np.bincount(pred.regions.astype(np.intp), minlength=len(REGIONS))
    grad = np.zeros_like(pred.vertices)
    scale = 2.0 * np.asarray(weights.omega) / counts
    grad += scale[pred.regions.astype(np.intp), None] * (pred.vertices - gt.vertices)
    grad += weights.alpha * (sgrad.reshape(-1, 3) / counted)
    return fields, grad


def test_loss_and_grad_match_reference_arithmetic(tube24):
    # One edge pass must reproduce the per-direction arithmetic exactly,
    # including the pairs skipped at two coincident ring neighbours.
    pred = _jittered(tube24, 0.4, 71)
    v = pred.vertices.copy()
    v[24 * 10 + 5] = v[24 * 10 + 6]
    pred = pred.with_vertices(v)
    gt = _jittered(tube24, 0.2, 72)
    w = LossWeights(omega=(0.1, 0.2, 0.3, 0.4), alpha=0.3)
    bd = total_loss(pred, gt, w)
    fields, grad = _reference_loss(pred, gt, w)
    assert bd["skipped_pairs"] > 0
    assert bd == fields
    assert np.array_equal(loss_grad(pred, gt, w), grad)


def test_edge_norms_equal_linalg_norm(default_phantom):
    # The edge pass takes each norm as an elementwise sum of squares; it must
    # equal np.linalg.norm bit for bit, zero-length edges included.
    mesh = default_phantom[0]
    jittered = _jittered(mesh, 0.4, 73)
    v = jittered.vertices.copy()
    c = mesh.ring_layout[0]
    v[c * 10 + 5] = v[c * 10 + 6]  # a zero-length circumferential edge
    v[c * 20 + 3] = v[c * 21 + 3]  # a zero-length axial edge
    for m, zero_edges in ((mesh, False), (jittered, False), (jittered.with_vertices(v), True)):
        for e1, e2, n1, n2, valid, *_ in objective._edge_pairs(m):
            assert np.array_equal(n1, np.linalg.norm(e1, axis=-1))
            assert np.array_equal(n2, np.linalg.norm(e2, axis=-1))
            assert valid.all() != zero_edges


def test_smoothness_terms_require_ring_layout(sphere16):
    w = LossWeights(alpha=0.01)
    for fn in (total_loss, loss_grad):
        with pytest.raises(ValueError, match="structured mesh"):
            fn(sphere16, sphere16, w)


# ---------------------------------------------------------------------------
# chamfer
# ---------------------------------------------------------------------------

def test_chamfer_zero_on_self(tube24):
    assert chamfer(tube24, tube24) == 0.0


def test_chamfer_two_point_clouds():
    a = np.array([[0.0, 0.0, 0.0]])
    b = np.array([[3.0, 4.0, 0.0]])
    assert chamfer(a, b) == pytest.approx(5.0, abs=1e-12)


def test_chamfer_matches_brute_force_exactly():
    rng = np.random.default_rng(71)
    a = rng.uniform(-10, 10, size=(200, 3))
    b = rng.uniform(-10, 10, size=(170, 3))
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    brute = 0.5 * (np.sqrt(d2.min(axis=1)).mean() + np.sqrt(d2.min(axis=0)).mean())
    assert chamfer(a, b) == pytest.approx(brute, rel=1e-14)


def test_chamfer_symmetric_and_rigid_invariant():
    rng = np.random.default_rng(72)
    a = rng.uniform(-5, 5, size=(80, 3))
    b = rng.uniform(-5, 5, size=(90, 3))
    assert chamfer(a, b) == chamfer(b, a)
    q = random_rotation(rng)
    t = np.array([2.0, -7.0, 1.0])
    assert chamfer(a @ q.T + t, b @ q.T + t) == pytest.approx(chamfer(a, b), rel=1e-10)
