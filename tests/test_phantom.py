"""Synthetic phantom generator: geometry, regions, bulges."""

import numpy as np
import pytest

from conftest import straight_cylinder, bulged_cylinder

from aortafit.phantom import PhantomSpec, centerline_length, make_phantom
from aortafit.quadmesh import rings, validate_topology
from aortafit.quality import self_intersections


def _ring_radii_of(mesh):
    """Per-ring (mean, max deviation) of vertex distance to the ring centroid."""
    r = rings(mesh)
    pts = mesh.vertices[r]  # (A, C, 3)
    centers = pts.mean(axis=1, keepdims=True)
    d = np.linalg.norm(pts - centers, axis=2)
    return d.mean(axis=1), np.abs(d - d.mean(axis=1, keepdims=True)).max()


def test_spec_validation():
    with pytest.raises(ValueError):
        PhantomSpec(region_fractions=(0.5, 0.4, 0.6))
    with pytest.raises(ValueError):
        PhantomSpec(region_fractions=(0.1, 0.2, 1.5))
    with pytest.raises(ValueError, match="positive"):
        # Rings sample s = 0, 5, ..., 100, so the dip to r = -5 at s = 50 is hit.
        make_phantom(PhantomSpec(circumferential=8, axial=21, ascending_length=100.0,
                                 arch_radius=0.0, descending_length=0.0,
                                 aneurysm=(50.0, -20.0, 5.0)))


def test_centerline_length_arithmetic():
    spec = PhantomSpec(ascending_length=60.0, arch_radius=30.0, descending_length=100.0)
    assert centerline_length(spec) == pytest.approx(60.0 + np.pi * 30.0 + 100.0, abs=1e-12)
    straight = PhantomSpec(ascending_length=120.0, arch_radius=0.0, descending_length=0.0)
    assert centerline_length(straight) == 120.0


def test_default_counts_and_layout(default_phantom):
    mesh, _ = default_phantom
    assert mesh.n_vertices == 24960
    assert mesh.n_faces == 24882
    assert mesh.ring_layout == (78, 320)


def test_straight_cylinder_rings_exact():
    mesh = straight_cylinder(circumferential=24, axial=20, length=60.0, radius=15.0)
    means, maxdev = _ring_radii_of(mesh)
    assert np.allclose(means, 15.0, rtol=0.0, atol=1e-12)
    assert maxdev < 1e-12
    # Rings advance along +z with the ring spacing of the centerline sampling.
    z = mesh.vertices[rings(mesh)][:, :, 2]
    assert np.allclose(z, z[:, :1], atol=1e-12)
    assert np.allclose(np.diff(z[:, 0]), 60.0 / 19.0, atol=1e-12)


def test_arch_rings_stay_circular(arch_small):
    # Rotation-minimizing frames keep every cross-section an exact circle
    # even through the curved arch.
    means, maxdev = _ring_radii_of(arch_small)
    assert np.allclose(means, 15.0, rtol=0.0, atol=1e-9)
    assert maxdev < 1e-9


def test_descending_limb_position():
    spec = PhantomSpec(circumferential=8, axial=40)
    mesh = make_phantom(spec)
    r = rings(mesh)
    centers = mesh.vertices[r].mean(axis=1)
    # Descending limb runs at x = 2 * arch_radius, heading -z.
    assert centers[-1, 0] == pytest.approx(2.0 * spec.arch_radius, abs=1e-9)
    assert centers[-1, 2] < centers[-10, 2]
    # Ascending limb starts at the origin heading +z.
    assert np.allclose(centers[0], [0.0, 0.0, 0.0], atol=1e-9)


def test_region_ring_thresholds(default_phantom):
    mesh, _ = default_phantom
    ring_regions = mesh.regions.reshape(320, 78)
    assert np.all(ring_regions == ring_regions[:, :1])
    per_ring = ring_regions[:, 0]
    # Fractions (0.125, 0.4375, 0.625) of 320 rings: 40, 140, 200.
    assert np.all(per_ring[:40] == 0)
    assert np.all(per_ring[40:140] == 1)
    assert np.all(per_ring[140:200] == 2)
    assert np.all(per_ring[200:] == 3)


def test_bulge_radius_amplitude():
    L = 120.0
    axial = 61
    # Place the bulge exactly on a ring (rings sample linspace(0, L, axial)).
    center = 0.3 * L  # s = 36 = ring 18 at 2 mm ring spacing
    mesh = bulged_cylinder(circumferential=24, axial=axial, length=L,
                           amplitude=5.0, width=8.0, center=center)
    means, _ = _ring_radii_of(mesh)
    assert means.max() == pytest.approx(20.0, rel=1e-6)
    assert int(np.argmax(means)) == 18
    # Far from the bulge the tube keeps its base radius.
    assert means[-1] == pytest.approx(15.0, abs=1e-6)


def test_jitter_reproducible_with_seed():
    a = make_phantom(PhantomSpec(circumferential=8, axial=10, jitter=0.2, seed=5))
    b = make_phantom(PhantomSpec(circumferential=8, axial=10, jitter=0.2, seed=5))
    c = make_phantom(PhantomSpec(circumferential=8, axial=10, jitter=0.2, seed=6))
    clean = make_phantom(PhantomSpec(circumferential=8, axial=10))
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)
    assert not np.array_equal(a.vertices, clean.vertices)
    assert np.abs(a.vertices - clean.vertices).max() < 0.2 * 6.0


def test_topology_and_intersections(arch_small):
    assert validate_topology(arch_small) == 2 * arch_small.ring_layout[0]
    count, pairs = self_intersections(arch_small)
    assert count == 0 and pairs == []


def test_default_quality_thresholds(default_phantom):
    mesh, rep = default_phantom
    assert rep["n_degenerate"] == 0
    assert rep["equiangle_skew"]["mean"] < 0.1
    assert rep["scaled_jacobian"]["mean"] > 0.95
    assert rep["self_intersection_count"] == 0
