"""Shared geometry builders for the test suite.

The builders here are deliberately independent of the package internals:
the cube-sphere is assembled from six gnomonic panels and welded by
coordinate rounding, and the cylinder/arch meshes go through the public
phantom generator with fully pinned parameters.
"""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from aortafit.diffeo import Linearization, _forward, vertex_sampler
from aortafit.phantom import PhantomSpec, make_phantom
from aortafit.quadmesh import QuadMesh
from aortafit.volgrid import GridGeom, VectorField3D


def cube_sphere(n, radius=15.0):
    """Closed quad sphere: six n-by-n cube panels projected onto the sphere.

    Every vertex sits at exactly ``radius`` from the origin, faces are
    consistently outward-oriented, and the mesh satisfies V - F = 2 for a
    closed quad surface. Region labels split the sphere into four z bands
    so that every region code is populated.
    """
    if n < 2:
        raise ValueError("need at least 2 quads per panel edge")
    lin = np.linspace(-1.0, 1.0, n + 1)
    u, v = np.meshgrid(lin, lin, indexing="ij")
    flat = np.stack([u.ravel(), v.ravel(), np.ones(u.size)], axis=1)
    # The six cube faces as permutations/sign flips of the +z panel.
    panels = [
        flat[:, [0, 1, 2]] * np.array([1.0, 1.0, 1.0]),
        flat[:, [0, 1, 2]] * np.array([1.0, 1.0, -1.0]),
        flat[:, [2, 0, 1]] * np.array([1.0, 1.0, 1.0]),
        flat[:, [2, 0, 1]] * np.array([-1.0, 1.0, 1.0]),
        flat[:, [1, 2, 0]] * np.array([1.0, 1.0, 1.0]),
        flat[:, [1, 2, 0]] * np.array([1.0, -1.0, 1.0]),
    ]
    allpts = np.concatenate(panels, axis=0)
    allpts = allpts / np.linalg.norm(allpts, axis=1, keepdims=True) * radius

    # Weld coincident panel-edge vertices by rounded coordinates.
    key = allpts.round(12)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    verts = uniq.astype(np.float64)

    faces = []
    stride = (n + 1) * (n + 1)
    for p in range(6):
        base = p * stride
        for i in range(n):
            for j in range(n):
                a = base + i * (n + 1) + j
                b = base + (i + 1) * (n + 1) + j
                c = base + (i + 1) * (n + 1) + (j + 1)
                d = base + i * (n + 1) + (j + 1)
                faces.append([inverse[a], inverse[b], inverse[c], inverse[d]])
    faces = np.asarray(faces, dtype=np.int64)

    # Outward orientation: on a convex surface the per-face centroid test
    # is globally consistent, so flipping faces independently is safe.
    quads = verts[faces]
    normal = np.cross(quads[:, 2] - quads[:, 0], quads[:, 3] - quads[:, 1])
    centroid = quads.mean(axis=1)
    flip = np.einsum("ij,ij->i", normal, centroid) < 0.0
    faces[flip] = faces[flip][:, ::-1]

    assert verts.shape[0] - faces.shape[0] == 2, "closed quad sphere Euler check"

    z = verts[:, 2]
    regions = np.clip(((z + radius) / (2.0 * radius) * 4.0).astype(np.int8), 0, 3)
    return QuadMesh(vertices=verts, faces=faces, regions=regions)


def straight_cylinder(circumferential=24, axial=60, length=120.0, radius=15.0):
    """Open straight tube along +z built through the phantom generator."""
    spec = PhantomSpec(
        circumferential=circumferential,
        axial=axial,
        base_radius=radius,
        ascending_length=length,
        arch_radius=0.0,
        descending_length=0.0,
    )
    return make_phantom(spec)


def bulged_cylinder(circumferential=24, axial=60, length=120.0, radius=15.0,
                    amplitude=5.0, width=8.0, center=None):
    """Straight tube with a Gaussian radial bulge (defaults peak at R=20)."""
    if center is None:
        center = 0.3 * length  # inside the ascending region
    spec = PhantomSpec(
        circumferential=circumferential,
        axial=axial,
        base_radius=radius,
        ascending_length=length,
        arch_radius=0.0,
        descending_length=0.0,
        aneurysm=(center, amplitude, width),
    )
    return make_phantom(spec)


def save_per_element(mesh, path, cell_data=None, title="aortafit mesh"):
    """The per-element writer save_mesh replaced: its byte-identity reference,
    and the writer of (n_faces, k) cell arrays, which save_mesh refuses."""
    def fmt(x):
        return repr(float(x))

    lines = ["# vtk DataFile Version 3.0", title, "ASCII", "DATASET POLYDATA",
             f"POINTS {mesh.n_vertices} double"]
    for v in mesh.vertices:
        lines.append(f"{fmt(v[0])} {fmt(v[1])} {fmt(v[2])}")
    lines.append(f"POLYGONS {mesh.n_faces} {5 * mesh.n_faces}")
    for f in mesh.faces:
        lines.append(f"4 {f[0]} {f[1]} {f[2]} {f[3]}")
    lines += [f"POINT_DATA {mesh.n_vertices}", "SCALARS region int 1", "LOOKUP_TABLE default"]
    for r in mesh.regions:
        lines.append(str(int(r)))
    if mesh.ring_layout is not None:
        lines += ["FIELD meta 1", "ring_layout 2 1 int", f"{mesh.ring_layout[0]} {mesh.ring_layout[1]}"]
    if cell_data:
        lines += [f"CELL_DATA {mesh.n_faces}", f"FIELD celldata {len(cell_data)}"]
        for name, arr in cell_data.items():
            arr = np.asarray(arr, dtype=np.float64)
            ncomp = 1 if arr.ndim == 1 else arr.shape[1]
            lines.append(f"{name} {ncomp} {mesh.n_faces} double")
            for row in arr.reshape(mesh.n_faces, -1):
                lines.append(" ".join(fmt(x) for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def smooth_svf(dims, max_abs, seed, sigma=2.5):
    """Random smooth stationary velocity field with a pinned infinity norm."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(dims + (3,))
    for k in range(3):
        data[..., k] = gaussian_filter(data[..., k], sigma=sigma, mode="nearest")
    peak = np.abs(data).max()
    data *= max_abs / peak
    return VectorField3D(GridGeom(dims), data)


def linearize(svf, cfg, mesh, grid):
    """The linearization of tau -> warped ``mesh`` vertices at ``svf``, as the fitter builds it."""
    return Linearization(_forward(svf, cfg), vertex_sampler(mesh, grid), grid.spacing)


@pytest.fixture
def blown_up_upsample(monkeypatch):
    """``fitter.upsample_svf`` returning fields 1e7 times too large, so a
    fit's second level trips the squaring-step guard at once."""
    from aortafit import fitter

    real = fitter.upsample_svf

    def upsample(svf, dims):
        up = real(svf, dims)
        return VectorField3D(up.geom, up.data * 1e7)

    monkeypatch.setattr(fitter, "upsample_svf", upsample)


def random_rotation(rng):
    """Uniform-ish proper rotation matrix (QR of a Gaussian, det forced +1)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture(scope="session")
def arch_small():
    """Small curved phantom (ascending + arch + descending), C=10, A=24."""
    return make_phantom(PhantomSpec(circumferential=10, axial=24))


@pytest.fixture(scope="session")
def tube24():
    """Straight 24 x 60 cylinder, R=15 mm, length 120 mm."""
    return straight_cylinder()


@pytest.fixture(scope="session")
def sphere16():
    """Closed cube-sphere with 6*16^2 = 1536 faces, R=15 mm."""
    return cube_sphere(16, radius=15.0)


@pytest.fixture(scope="session")
def sphere32():
    """Closed cube-sphere with 6*32^2 = 6144 faces, R=15 mm.

    Fine enough that field-mean principal stresses sit well inside 2% of
    the analytic p R / 2 t despite the valence-3 cube corners.
    """
    return cube_sphere(32, radius=15.0)


@pytest.fixture(scope="session")
def default_phantom():
    """Full-resolution 78 x 320 phantom with its quality report (built once)."""
    from aortafit.quality import quality_report

    mesh = make_phantom(PhantomSpec())
    return mesh, quality_report(mesh)
