"""Quad mesh container, topology checks, template averaging, VTK-style I/O."""

import numpy as np
import pytest

from conftest import cube_sphere, straight_cylinder

from aortafit.quadmesh import (
    REGIONS,
    MeshFileError,
    QuadMesh,
    average_template,
    face_regions,
    load_mesh,
    majority_region,
    rings,
    save_mesh,
    validate_topology,
)


def _patch_mesh():
    """Flat 3x3-vertex patch of four quads, no ring layout."""
    xs, ys = np.meshgrid(np.arange(3.0), np.arange(3.0), indexing="ij")
    verts = np.stack([xs.ravel(), ys.ravel(), np.zeros(9)], axis=1)
    faces = np.array([[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]])
    return QuadMesh(verts, faces, np.zeros(9, dtype=np.int8))


# ---------------------------------------------------------------------------
# Construction and regions
# ---------------------------------------------------------------------------

def test_mesh_validation():
    verts = np.zeros((4, 3))
    faces = np.array([[0, 1, 2, 3]])
    regs = np.zeros(4, dtype=np.int8)
    with pytest.raises(ValueError, match="face index out of range"):
        QuadMesh(verts, np.array([[0, 1, 2, 4]]), regs)
    with pytest.raises(ValueError, match="region"):
        QuadMesh(verts, faces, np.array([0, 1, 2, 7], dtype=np.int8))
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        QuadMesh(np.zeros((4, 2)), faces, regs)
    with pytest.raises(ValueError, match="one label per vertex"):
        QuadMesh(verts, faces, np.zeros(3, dtype=np.int8))
    with pytest.raises(ValueError, match="ring_layout"):
        QuadMesh(verts, faces, regs, ring_layout=(4, 2))  # wants 8 vertices
    for bad in (np.nan, np.inf, -np.inf):
        v = verts.copy()
        v[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            QuadMesh(v, faces, regs)


def test_face_regions_majority_and_tie():
    verts = np.zeros((4, 3))
    verts[:, 0] = np.arange(4)
    faces = np.array([[0, 1, 2, 3]])
    # 2-2 tie between codes 1 and 3 resolves to the lower code.
    mesh = QuadMesh(verts, faces, np.array([1, 3, 1, 3], dtype=np.int8))
    assert face_regions(mesh)[0] == 1
    # 3-1 majority.
    mesh = QuadMesh(verts, faces, np.array([2, 2, 2, 0], dtype=np.int8))
    assert face_regions(mesh)[0] == 2


def test_majority_region_matches_counting_loop():
    # The vectorized vote against a plain count, on rows of 4 (faces) and of
    # 7 (odd ring sizes), where ties are common.
    rng = np.random.default_rng(71)
    for width in (4, 7):
        labels = rng.integers(0, len(REGIONS), size=(300, width)).astype(np.int8)
        expect = []
        for row in labels:
            counts = [int(np.sum(row == code)) for code in range(len(REGIONS))]
            expect.append(counts.index(max(counts)))  # first maximum: lowest code
        got = majority_region(labels)
        assert got.dtype == np.int8
        assert got.tolist() == expect


def test_with_vertices_and_bounds(tube24):
    shifted = tube24.with_vertices(tube24.vertices + 2.0)
    assert np.array_equal(shifted.faces, tube24.faces)
    assert shifted.ring_layout == tube24.ring_layout
    lo0, hi0 = tube24.bounds()
    lo1, hi1 = shifted.bounds()
    assert np.allclose(lo1 - lo0, 2.0) and np.allclose(hi1 - hi0, 2.0)


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------

def test_rings_layout(tube24):
    r = rings(tube24)
    assert r.shape == (60, 24)
    # Vertex a*C + c sits on ring a, slot c.
    assert r[3, 5] == 3 * 24 + 5
    assert np.array_equal(np.sort(r.ravel()), np.arange(tube24.n_vertices))


def test_rings_requires_layout():
    with pytest.raises(ValueError, match="ring_layout"):
        rings(_patch_mesh())


def test_consecutive_rings_share_c_faces(tube24):
    r = rings(tube24)
    c = tube24.ring_layout[0]
    ring_pair = set(r[10]) | set(r[11])
    in_pair = np.isin(tube24.faces, list(ring_pair)).all(axis=1)
    assert int(in_pair.sum()) == c


# ---------------------------------------------------------------------------
# Topology validation
# ---------------------------------------------------------------------------

def test_topology_clean_tube(tube24):
    rep = validate_topology(tube24)
    assert rep.ok and rep.manifold and rep.oriented
    assert rep.degenerate_faces == []
    # Open tube: one boundary loop of C edges at each end.
    assert rep.boundary_edge_count == 2 * tube24.ring_layout[0]


def test_topology_clean_sphere(sphere16):
    rep = validate_topology(sphere16)
    assert rep.ok
    assert rep.boundary_edge_count == 0


def test_topology_flipped_face_reported():
    mesh = straight_cylinder(circumferential=6, axial=4, length=10.0)
    faces = mesh.faces.copy()
    faces[8] = faces[8][::-1]
    bad = QuadMesh(mesh.vertices, faces, mesh.regions, mesh.ring_layout)
    rep = validate_topology(bad)
    assert not rep.oriented
    assert rep.manifold
    # Every shared edge of the flipped face now runs the same way twice.
    assert len(rep.inconsistent_edges) == 4
    flipped_verts = set(int(v) for v in faces[8])
    for u, v in rep.inconsistent_edges:
        assert u in flipped_verts and v in flipped_verts


def test_topology_degenerate_face_reported():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0]])
    faces = np.array([[0, 1, 2, 3], [1, 4, 4, 2]])
    rep = validate_topology(QuadMesh(verts, faces, np.zeros(5, dtype=np.int8)))
    assert rep.degenerate_faces == [1]
    assert not rep.ok


def test_topology_nonmanifold_edge_reported():
    # Three quads fanning around the shared edge (0, 1).
    verts = np.array([
        [0.0, 0, 0], [0, 0, 1],
        [1, 0, 0], [1, 0, 1],
        [0, 1, 0], [0, 1, 1],
        [-1, 0, 0], [-1, 0, 1],
    ])
    faces = np.array([[0, 1, 3, 2], [1, 0, 4, 5], [0, 1, 7, 6]])
    rep = validate_topology(QuadMesh(verts, faces, np.zeros(8, dtype=np.int8)))
    assert rep.nonmanifold_edges == [(0, 1)]
    assert not rep.manifold


# ---------------------------------------------------------------------------
# Template averaging
# ---------------------------------------------------------------------------

def test_average_single_mesh_identity(tube24):
    avg = average_template([tube24])
    assert np.array_equal(avg.vertices, tube24.vertices)
    assert np.array_equal(avg.faces, tube24.faces)
    assert avg.ring_layout == tube24.ring_layout


def test_average_symmetric_offsets_cancel(tube24):
    d = np.array([1.5, -2.0, 0.25])
    plus = tube24.with_vertices(tube24.vertices + d)
    minus = tube24.with_vertices(tube24.vertices - d)
    avg = average_template([plus, minus])
    assert np.allclose(avg.vertices, tube24.vertices, rtol=0.0, atol=1e-12)


def test_average_matches_manual_accumulation():
    rng = np.random.default_rng(31)
    base = straight_cylinder(circumferential=8, axial=6, length=20.0)
    meshes = [base.with_vertices(base.vertices + rng.normal(0, 0.5, base.vertices.shape))
              for _ in range(5)]
    avg = average_template(meshes)
    expect = np.zeros_like(base.vertices)
    for m in meshes:
        for i in range(m.n_vertices):
            expect[i] += m.vertices[i]
    expect /= len(meshes)
    assert np.allclose(avg.vertices, expect, rtol=0.0, atol=1e-12)


def test_average_commutes_with_translation():
    rng = np.random.default_rng(32)
    base = straight_cylinder(circumferential=8, axial=6, length=20.0)
    meshes = [base.with_vertices(base.vertices + rng.normal(0, 0.5, base.vertices.shape))
              for _ in range(3)]
    t = np.array([3.0, -1.0, 2.0])
    a = average_template([m.with_vertices(m.vertices + t) for m in meshes])
    b = average_template(meshes)
    assert np.allclose(a.vertices, b.vertices + t, rtol=0.0, atol=1e-12)


def test_average_rejects_mismatched_connectivity():
    a = straight_cylinder(circumferential=8, axial=6, length=20.0)
    b = straight_cylinder(circumferential=10, axial=6, length=20.0)
    with pytest.raises(ValueError, match="connectivity"):
        average_template([a, b])
    with pytest.raises(ValueError, match="at least one"):
        average_template([])


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def test_save_load_round_trip_bitwise(tmp_path, tube24):
    # Exercise shortest-roundtrip float formatting with awkward values.
    verts = tube24.vertices * (1.0 / 3.0) + np.array([0.1, -1e-7, 12345.6789])
    mesh = tube24.with_vertices(verts)
    path = str(tmp_path / "tube.vtk")
    save_mesh(mesh, path)
    back = load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)
    assert np.array_equal(back.regions, mesh.regions)
    assert back.ring_layout == mesh.ring_layout


def test_save_load_without_ring_layout(tmp_path, sphere16):
    path = str(tmp_path / "sphere.vtk")
    save_mesh(sphere16, path)
    back = load_mesh(path)
    assert back.ring_layout is None
    assert np.array_equal(back.vertices, sphere16.vertices)
    assert np.array_equal(back.regions, sphere16.regions)


def test_save_load_cell_data_round_trip(tmp_path):
    mesh = _patch_mesh()
    rng = np.random.default_rng(33)
    cd = {"von_mises": rng.uniform(0, 200, mesh.n_faces),
          "sigma_1": rng.standard_normal(mesh.n_faces)}
    path = str(tmp_path / "cd.vtk")
    save_mesh(mesh, path, cell_data=cd)
    back, got = load_mesh(path, return_cell_data=True)
    assert set(got) == set(cd)
    for k in cd:
        assert np.array_equal(got[k], cd[k])


def test_load_rejects_triangle_cell(tmp_path):
    mesh = _patch_mesh()
    path = tmp_path / "tri.vtk"
    save_mesh(mesh, str(path))
    text = path.read_text().replace("4 0 1 4 3", "3 0 1 4", 1)
    # Keep POLYGONS size consistent with the shrunk cell record.
    text = text.replace("POLYGONS 4 20", "POLYGONS 4 19", 1)
    path.write_text(text)
    with pytest.raises(MeshFileError, match="non-quad cell of size 3"):
        load_mesh(str(path))


def test_load_rejects_out_of_range_index(tmp_path):
    mesh = _patch_mesh()
    path = tmp_path / "oob.vtk"
    save_mesh(mesh, str(path))
    path.write_text(path.read_text().replace("4 0 1 4 3", "4 0 1 4 99", 1))
    with pytest.raises(MeshFileError):
        load_mesh(str(path))


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "junk.vtk"
    p.write_text("this is not a mesh\n")
    with pytest.raises(MeshFileError):
        load_mesh(str(p))


def test_load_rejects_truncated_file(tmp_path):
    mesh = _patch_mesh()
    path = tmp_path / "trunc.vtk"
    save_mesh(mesh, str(path))
    text = path.read_text()
    path.write_text(text[: int(len(text) * 0.6)])
    with pytest.raises(MeshFileError):
        load_mesh(str(path))


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_mesh(str(tmp_path / "absent.vtk"))
