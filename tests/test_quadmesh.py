"""Quad mesh container, topology checks, template averaging, VTK-style I/O."""

import os
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cube_sphere, save_per_element, straight_cylinder

from aortafit.quadmesh import (
    REGIONS,
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
    lo0, hi0 = tube24.vertices.min(axis=0), tube24.vertices.max(axis=0)
    lo1, hi1 = shifted.vertices.min(axis=0), shifted.vertices.max(axis=0)
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
    # Open tube: one boundary loop of C edges at each end.
    assert validate_topology(tube24) == 2 * tube24.ring_layout[0]


def test_topology_clean_sphere(sphere16):
    assert validate_topology(sphere16) == 0


def test_topology_flipped_face_reported():
    mesh = straight_cylinder(circumferential=6, axial=4, length=10.0)
    faces = mesh.faces.copy()
    faces[8] = faces[8][::-1]
    bad = QuadMesh(mesh.vertices, faces, mesh.regions, mesh.ring_layout)
    # Every shared edge of the flipped face now runs the same way twice; the
    # one named is the first in face order, which face 2 shares with it.
    with pytest.raises(ValueError) as exc:
        validate_topology(bad)
    assert str(exc.value) == "inconsistently oriented edge (8, 9): faces 2 and 8 both run it from 9 to 8"


def test_topology_degenerate_face_reported():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0]])
    faces = np.array([[0, 1, 2, 3], [1, 4, 4, 2]])
    with pytest.raises(ValueError) as exc:
        validate_topology(QuadMesh(verts, faces, np.zeros(5, dtype=np.int8)))
    assert str(exc.value) == "degenerate face 1: repeated vertex in [1, 4, 4, 2]"


def test_topology_nonmanifold_edge_reported():
    # Three quads fanning around the shared edge (0, 1).
    verts = np.array([
        [0.0, 0, 0], [0, 0, 1],
        [1, 0, 0], [1, 0, 1],
        [0, 1, 0], [0, 1, 1],
        [-1, 0, 0], [-1, 0, 1],
    ])
    faces = np.array([[0, 1, 3, 2], [1, 0, 4, 5], [0, 1, 7, 6]])
    with pytest.raises(ValueError) as exc:
        validate_topology(QuadMesh(verts, faces, np.zeros(8, dtype=np.int8)))
    assert str(exc.value) == "non-manifold edge (0, 1): shared by faces [0, 1, 2]"


def _topology_oracle(faces):
    """(the start of the error naming the first fault, or None; the boundary-edge count, or None).

    Reads a quad soup through a dict of directed edges: degenerate faces
    first, then edges used more than twice, then edges two faces run the
    same way, each the first in face order.
    """
    for i, face in enumerate(faces):
        if len(set(face)) < 4:
            return f"degenerate face {i}:", None
    runs = {}
    edges = [(t, h) for face in faces for t, h in zip(face, face[1:] + face[:1])]
    for edge in edges:
        runs[edge] = runs.get(edge, 0) + 1
    uses = {(t, h): runs.get((t, h), 0) + runs.get((h, t), 0) for t, h in edges}
    for t, h in edges:
        if uses[t, h] > 2:
            return f"non-manifold edge ({min(t, h)}, {max(t, h)}):", None
    for t, h in edges:
        if runs[t, h] == 2 and uses[t, h] == 2:
            return f"inconsistently oriented edge ({min(t, h)}, {max(t, h)}):", None
    return None, sum(n == 1 for n in uses.values())


_QUAD = st.permutations(range(10)).map(lambda p: list(p[:4]))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(base=st.lists(_QUAD, min_size=1, max_size=5),
       copies=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(["repeat", "reverse", "collapse", "neighbour"]),
                                 st.integers(0, 9), st.integers(0, 9)), max_size=7))
def test_topology_matches_directed_edge_oracle(base, copies):
    # Quad soups of up to 12 faces on 10 vertices: faces repeated, reversed,
    # collapsed onto a repeated vertex, or joined along one edge by a
    # neighbour that runs it the other way. The count is the oracle's
    # boundary edges, and the error names the oracle's first fault.
    faces = list(base)
    for i, how, p, q in copies:
        a, b, c, d = base[i % len(base)]
        faces.append({"repeat": [a, b, c, d], "reverse": [d, c, b, a], "collapse": [a, a, c, d],
                      "neighbour": [b, a, p, q]}[how])
    mesh = QuadMesh(np.arange(30.0).reshape(10, 3), np.array(faces), np.zeros(10, dtype=np.int8))
    fault, boundary = _topology_oracle(faces)
    if fault is None:
        assert validate_topology(mesh) == boundary
    else:
        with pytest.raises(ValueError) as exc:
            validate_topology(mesh)
        assert str(exc.value).startswith(fault)


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
    with pytest.raises(ValueError, match="non-quad cell of size 3"):
        load_mesh(str(path))


def test_load_rejects_out_of_range_index(tmp_path):
    mesh = _patch_mesh()
    path = tmp_path / "oob.vtk"
    save_mesh(mesh, str(path))
    path.write_text(path.read_text().replace("4 0 1 4 3", "4 0 1 4 99", 1))
    with pytest.raises(ValueError):
        load_mesh(str(path))


def test_load_rejects_bad_header(tmp_path):
    p = tmp_path / "junk.vtk"
    p.write_text("this is not a mesh\n")
    with pytest.raises(ValueError):
        load_mesh(str(p))
    # A binary file is a mesh file error that names the file, not a codec error.
    p.write_bytes(b"# vtk DataFile Version 3.0\n\xff\xfe\x00\x01binary\n")
    with pytest.raises(ValueError, match="junk.vtk: not a text file"):
        load_mesh(str(p))


def test_load_rejects_truncated_file(tmp_path):
    mesh = _patch_mesh()
    path = tmp_path / "trunc.vtk"
    save_mesh(mesh, str(path))
    text = path.read_text()
    path.write_text(text[: int(len(text) * 0.6)])
    with pytest.raises(ValueError):
        load_mesh(str(path))


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_mesh(str(tmp_path / "absent.vtk"))


def test_load_mesh_allocation_stays_near_file_size(tmp_path, default_phantom):
    # Whole-section arrays peak at about 2.3x the file; a (token, line) list
    # per token, as the walker builds, at about 14x.
    mesh, _ = default_phantom
    path = str(tmp_path / "phantom.vtk")
    save_mesh(mesh, path)
    tracemalloc.start()
    try:
        back = load_mesh(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * os.path.getsize(path)
    assert np.array_equal(back.vertices, mesh.vertices)


# ---------------------------------------------------------------------------
# Reader: layouts, number forms and error messages
# ---------------------------------------------------------------------------

def test_save_mesh_bytes_match_per_element_writer(tmp_path, tube24):
    verts = tube24.vertices * (1.0 / 3.0) + np.array([0.1, -1e-7, 12345.6789])
    mesh = tube24.with_vertices(verts)
    rng = np.random.default_rng(34)
    cell_data = {
        "one": rng.standard_normal(mesh.n_faces) * 1e-7,
        "scaled": rng.standard_normal(mesh.n_faces) * np.resize([1.0, 1e5, 1e-300], mesh.n_faces),
    }
    cell_data["scaled"][:3] = [-0.0, 12345.6789, 1.0 / 3.0]
    for cd in (None, cell_data):
        new, old = str(tmp_path / "new.vtk"), str(tmp_path / "old.vtk")
        save_mesh(mesh, new, cell_data=cd)
        save_per_element(mesh, old, cell_data=cd)
        assert Path(new).read_bytes() == Path(old).read_bytes()
    # and without a ring layout
    save_mesh(_patch_mesh(), new)
    save_per_element(_patch_mesh(), old)
    assert Path(new).read_bytes() == Path(old).read_bytes()


@pytest.mark.parametrize("shape", [(4, 1), (4, 3), (3,), (5,), ()])
def test_save_mesh_refuses_cell_array_not_one_per_face(tmp_path, shape):
    # Every cell array the CLI writes is one value per face; any other shape
    # is refused before the file is opened, naming the array and its shape.
    path = tmp_path / "m.vtk"
    cell_data = {"ok": np.zeros(4), "bad": np.zeros(shape)}
    with pytest.raises(ValueError, match=rf"^cell data 'bad' has shape {re.escape(str(shape))}, mesh has 4 faces$"):
        save_mesh(_patch_mesh(), str(path), cell_data=cell_data)
    assert not path.exists()


def _outcome(path):
    """load_mesh's result as (mesh, cell_data), or its exception's type and text."""
    try:
        return load_mesh(path, return_cell_data=True)
    except Exception as exc:  # any failure must be a ValueError naming the file
        return type(exc).__name__, str(exc)


def _same_arrays(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_TRICKY = ["1_0", "\uff11\uff12", "\u0663", "0x10", "0x1p3", "1.5d0", "1,5", "nan", "nan(12)",
           "-Infinity", "inf", "+1.5", ".5", "-0", "5.", "007", "+3", "1e500", "1e-500", "1e",
           "-", "+", "+-1", "2.0", "99999999999999999999", "e5", "abc", "4 4", ""]
_ASCII_SEPARATORS = [" ", "   ", "\t", "\x0b", "\x0c"]
_OTHER_SEPARATORS = ["\x1c", "\x85", "\xa0", "\u3000"]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    structured=st.booleans(),
    ncomp=st.sampled_from([0, 1, 3]),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    sep=st.sampled_from(_ASCII_SEPARATORS + _OTHER_SEPARATORS),
    per_line=st.integers(1, 7),
    tricky=st.one_of(st.none(), st.sampled_from(_TRICKY)),
)
def test_reader_takes_any_layout_and_reads_numbers_as_python_does(
        seed, structured, ncomp, newline, sep, per_line, tricky):
    # Rewrapped lines, other line endings and other separators load the saved
    # arrays bit for bit. One number swapped for a form that float() or int()
    # and np.fromstring may read differently loads as float(tok) or int(tok)
    # at that place, or raises ValueError naming that token's line (or the
    # file, when the mesh itself is invalid). Zero or two tokens in place of
    # one shift every later token, which no file layout absorbs.
    rng = np.random.default_rng(seed)
    base = straight_cylinder(circumferential=4, axial=3, length=10.0) if structured else _patch_mesh()
    scale = rng.choice([1.0, 1.0 / 3.0, 1e-7, 12345.6789])
    mesh = QuadMesh(base.vertices * scale + rng.standard_normal(base.vertices.shape),
                    base.faces, rng.integers(0, len(REGIONS), base.n_vertices), base.ring_layout)
    values = rng.standard_normal((mesh.n_faces, ncomp))
    cell_data = {"s": values.squeeze(-1) if ncomp == 1 else values} if ncomp else None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.vtk")
        save_per_element(mesh, path, cell_data=cell_data)  # save_mesh writes no 3-component array
        lines = Path(path).read_text().split("\n")
        tokens = " ".join(lines[4:]).split()
        # Where each saved array's numbers start among the body tokens.
        arrays = {"POINTS": mesh.vertices.copy(), "POLYGONS": np.hstack([np.full((mesh.n_faces, 1), 4), mesh.faces]),
                  "LOOKUP_TABLE": mesh.regions.astype(np.int64)}
        if mesh.ring_layout is not None:
            arrays["ring_layout"] = np.array(mesh.ring_layout, dtype=np.float64)
        if cell_data:
            arrays["s"] = values.copy()
        first = {"POINTS": 3, "POLYGONS": 3, "LOOKUP_TABLE": 2, "ring_layout": 4, "s": 4}
        slots = [(name, i, tokens.index(name) + first[name] + i)
                 for name, arr in arrays.items() for i in range(arr.size)]
        if tricky is not None:
            name, i, at = slots[rng.integers(len(slots))]
            tokens[at] = tricky
        body, line_of = [], []
        while len(line_of) < len(tokens):
            take = int(rng.integers(1, per_line + 1))
            row = tokens[len(line_of):len(line_of) + take]
            body.append(rng.choice(["", sep]) + sep.join(row))
            line_of += [5 + len(body) - 1] * len(row)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(newline.join(lines[:4] + body) + newline)
        fromstring, parsed = np.fromstring, []

        def spy(*args, **kwargs):
            values = fromstring(*args, **kwargs)
            parsed.append((values.dtype, values.size))
            return values

        with mock.patch.object(np, "fromstring", spy):
            got = _outcome(path)
        if tricky is None and sep in _ASCII_SEPARATORS:
            # A valid file with ASCII separators is read with one np.fromstring
            # call per section, of the section's dtype and size, and no section
            # is read again token by token.
            assert parsed == [(arr.dtype, arr.size) for arr in arrays.values()]

        if tricky is not None and len(tricky.split()) != 1:
            assert got[0] == "ValueError"
            return
        if tricky is not None:
            kind = int if name in ("POLYGONS", "LOOKUP_TABLE") else float
            nv = mesh.n_vertices
            try:
                value = kind(tricky)
            except ValueError:
                assert got[0] == "ValueError" and f"m.vtk:{line_of[at]}: expected " in got[1]
                assert got[1].endswith(f", got {tricky!r}")
                return
            if name == "POLYGONS":
                in_range = value == 4 if i % 5 == 0 else 0 <= value < nv
            elif name == "LOOKUP_TABLE":
                in_range = 0 <= value < len(REGIONS)
            elif name == "ring_layout":
                in_range = value.is_integer() and 0 < value <= nv
            else:
                in_range = True
            if not in_range:
                assert got[0] == "ValueError" and f"m.vtk:{line_of[at]}: " in got[1]
                return
            arrays[name].flat[i] = value
        ring = arrays.get("ring_layout")
        try:
            want = QuadMesh(arrays["POINTS"], arrays["POLYGONS"][:, 1:], arrays["LOOKUP_TABLE"],
                            None if ring is None else tuple(int(x) for x in ring))
        except ValueError as exc:
            assert got == ("ValueError", f"{path}: {exc}")
            return
        assert not isinstance(got[0], str), got
        back, back_cd = got
        assert all(_same_arrays(getattr(back, a), getattr(want, a)) for a in ("vertices", "faces", "regions"))
        assert back.ring_layout == want.ring_layout
        assert list(back_cd) == (["s"] if cell_data else [])
        if cell_data:
            want_cd = arrays["s"].squeeze(-1) if ncomp == 1 else arrays["s"]
            assert _same_arrays(back_cd["s"], want_cd)


@pytest.mark.parametrize("line, text, message", [
    (12, "POLYGONS 3 14", "POLYGONS size total 14 != 15"),
    (12, "POLYGONS 3 -15", "m.vtk:12: POLYGONS size total -15 != 15"),
    (13, "4 0 1 99 3", "m.vtk:13: vertex index 99 out of range 0..5 in face 0"),
    (13, "4 0 -1 4 3", "m.vtk:13: vertex index -1 out of range 0..5 in face 0"),
    (14, "3 1 2 5 4", "m.vtk:14: non-quad cell of size 3 at face 1"),
    (16, "POINT_DATA 5", "m.vtk:16: POINT_DATA count 5 != 6 vertices"),
    (19, "4", "m.vtk:19: region label 4 out of range 0..3"),
    (19, "-1", "m.vtk:19: region label -1 out of range 0..3"),
    (27, "2.5 2", "m.vtk:27: ring_layout must hold 2 integers in 1..6, got [2.5, 2.0]"),
    (27, "3 7", "m.vtk:27: ring_layout must hold 2 integers in 1..6, got [3.0, 7.0]"),
    (27, "0 2", "m.vtk:27: ring_layout must hold 2 integers in 1..6, got [0.0, 2.0]"),
    (28, "CELL_DATA 2", "m.vtk:28: CELL_DATA count 2 != 3 faces"),
    (30, "s 1 2 double", "m.vtk:30: cell array 's' has 2 tuples, mesh has 3 faces"),
    (34, "FIELD extra 1\nx 1 1 double\n", "unexpected end of file, expected field value"),
    (34, "FIELD extra 2\nx 1 1 double\n5.0y 1 1 double 6.0", "m.vtk:36: expected field value, got '5.0y'"),
    (13, "4 0 1 99 x", "m.vtk:13: vertex index 99 out of range 0..5 in face 0"),
    (13, "4 0 1 x 99", "m.vtk:13: expected vertex index, got 'x'"),
    (15, "4 2 0 3 -", "m.vtk:15: expected vertex index, got '-'"),
    (24, "-", "m.vtk:24: expected region label, got '-'"),
    (13, "4 0 + 1 4 3", "m.vtk:13: expected vertex index, got '+'"),
    (25, "FIELD meta -1", "m.vtk:25: expected field array count, got '-1'"),
    (26, "ring_layout -2 -1 int", "m.vtk:26: expected array ncomp, got '-2'"),
    (26, "ring_layout 2 -1 int", "m.vtk:26: expected array ntuples, got '-1'"),
    (29, "FIELD celldata -1", "m.vtk:29: expected field array count, got '-1'"),
])
def test_block_reader_failures_give_walker_message(tmp_path, line, text, message):
    # Each whole-array check fails, and the error names the first bad token
    # in file order with its line. Two cases are a one-value block with
    # nothing left in the file but whitespace, which np.fromstring would read
    # as one value, and a number run that stops inside a token. A lone sign
    # in an integer section, which np.fromstring reads as 0 at the end or as
    # the sign of the next integer, is a bad token too.
    path = str(tmp_path / "m.vtk")
    mesh = straight_cylinder(circumferential=3, axial=2, length=5.0)
    save_mesh(mesh, path, cell_data={"s": np.arange(3.0)})
    lines = Path(path).read_text().split("\n")
    lines[line - 1] = text
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    got = _outcome(path)
    assert got[0] == "ValueError" and message in got[1]


@pytest.mark.parametrize("token, fast", [
    ("+1.5", True), (".5", True), ("-0", True), ("5.", True), ("1e-500", True), ("007", True),
    ("1_0", False), ("\uff11\uff12", False), ("nan", False), ("-Infinity", False),
    ("0x10", False), ("0x1p3", False), ("1.5d0", False), ("1,5", False), ("nan(12)", False),
])
def test_block_reader_token_forms(tmp_path, token, fast):
    # A coordinate loads bit for bit as float() reads it: from the one
    # np.fromstring call over the section when that call takes the form
    # (``fast``), else from float() itself, which accepts 1_0 and full-width
    # digits. A form float() rejects is named with its line.
    path = str(tmp_path / "m.vtk")
    save_mesh(_patch_mesh(), path)
    lines = Path(path).read_text().split("\n")
    lines[5] = " ".join([token] + lines[5].split()[1:])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    fromstring, whole = np.fromstring, []

    def spy(*args, **kwargs):
        values = fromstring(*args, **kwargs)
        whole.append(values.dtype == np.float64 and values.size == 27)
        return values

    with mock.patch.object(np, "fromstring", spy):
        got = _outcome(path)
    assert any(whole) == fast
    try:
        want = float(token)
    except ValueError:
        assert got[0] == "ValueError" and "m.vtk:6: expected coordinate, got " in got[1]
        return
    if not np.isfinite(want):
        assert got[0] == "ValueError" and "vertex coordinates must be finite" in got[1]
        return
    assert np.float64(want).tobytes() == got[0].vertices[0, 0].tobytes()

