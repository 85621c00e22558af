"""Membrane equilibrium: pressure loads, resultant solve, principal stresses."""

import numpy as np
import pytest
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import splu

from conftest import cube_sphere, random_rotation, straight_cylinder

from aortafit import fea
from aortafit.fea import (
    MembraneModel,
    SolverError,
    StressField,
    pressure_nodal_forces,
    principal_stresses,
    solve_membrane_stress,
)
from aortafit.quadmesh import QuadMesh, rings, validate_topology

HOOP = 120.0  # kPa: p R / t for p = 16 kPa, R = 15 mm, t = 2 mm


def _uniform_field(n, cauchy_kpa, thickness=2.0):
    """StressField with the same Cauchy state (kPa) on every element."""
    frames = (np.tile([1.0, 0, 0], (n, 1)), np.tile([0.0, 1, 0], (n, 1)),
              np.tile([0.0, 0, 1], (n, 1)))
    resultants = np.tile(np.asarray(cauchy_kpa, dtype=float) * thickness / 1e3, (n, 1))
    return StressField(frames=frames, resultants=resultants, thickness=thickness,
                       pressure=16.0, residual=0.0)


def _mid_band_faces(mesh, skip_rings):
    """Face indices at least ``skip_rings`` bands away from both tube ends."""
    c, a = mesh.ring_layout
    band = np.arange(mesh.n_faces) // c
    return (band >= skip_rings) & (band < a - 1 - skip_rings)


# ---------------------------------------------------------------------------
# Principal stresses
# ---------------------------------------------------------------------------

def test_principal_isotropic():
    f = _uniform_field(5, (80.0, 80.0, 0.0))
    s1, s2, _ = principal_stresses(f)
    assert np.allclose(s1, 80.0, atol=1e-12)
    assert np.allclose(s2, 80.0, atol=1e-12)


def test_principal_pure_shear():
    f = _uniform_field(3, (0.0, 0.0, 25.0))
    s1, s2, angle = principal_stresses(f)
    assert np.allclose(s1, 25.0, atol=1e-12)
    assert np.allclose(s2, -25.0, atol=1e-12)
    assert np.allclose(angle, np.pi / 4.0, atol=1e-12)


def test_principal_matches_eigenvalue_oracle():
    rng = np.random.default_rng(91)
    for _ in range(20):
        s11, s22, s12 = rng.uniform(-150, 150, 3)
        f = _uniform_field(1, (s11, s22, s12))
        s1, s2, _ = principal_stresses(f)
        w = np.linalg.eigvalsh(np.array([[s11, s12], [s12, s22]]))
        assert s1[0] == pytest.approx(w[1], rel=1e-12, abs=1e-9)
        assert s2[0] == pytest.approx(w[0], rel=1e-12, abs=1e-9)


def test_stress_field_cauchy_units():
    # Resultants are N/mm; dividing by thickness (mm) gives N/mm^2 = MPa,
    # reported as kPa: 0.24 N/mm over 2 mm is 120 kPa.
    f = StressField(frames=(np.eye(3)[None, 0], np.eye(3)[None, 1], np.eye(3)[None, 2]),
                    resultants=np.array([[0.24, 0.0, 0.0]]), thickness=2.0,
                    pressure=16.0, residual=0.0)
    assert f.cauchy[0, 0] == pytest.approx(120.0, rel=1e-15)
    assert np.allclose(f.principal[0], [120.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Pressure load lumping
# ---------------------------------------------------------------------------

def test_nodal_forces_unit_quad():
    mesh = QuadMesh(np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                    np.array([[0, 1, 2, 3]]), np.zeros(4, dtype=np.int8))
    forces = pressure_nodal_forces(mesh, 1.0)
    # Total load is pressure * area along +z; the v0-v2 diagonal split gives
    # the diagonal corners a share from both triangles.
    assert np.allclose(forces.sum(axis=0), [0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(forces[:, 2], [1 / 3, 1 / 6, 1 / 3, 1 / 6], atol=1e-15)
    assert np.all(forces[:, :2] == 0.0)


def test_nodal_forces_closed_surface_sum_to_zero(sphere16):
    forces = pressure_nodal_forces(sphere16, 0.016)
    net = np.linalg.norm(forces.sum(axis=0))
    total = np.linalg.norm(forces, axis=1).sum()
    assert net / total < 1e-9


def test_nodal_forces_half_shell_projected_area():
    # The force on any open shell is p times its vector area, which depends
    # only on the boundary: for the upper half of the tube (slots 0..C/2)
    # the boundary projects to an exact 2R-by-L rectangle in the xz plane.
    c_n, a_n, length, radius = 24, 7, 30.0, 15.0
    mesh = straight_cylinder(circumferential=c_n, axial=a_n, length=length, radius=radius)
    keep = (np.arange(mesh.n_faces) % c_n) < c_n // 2
    faces = mesh.faces[keep]
    used = np.unique(faces)
    remap = np.full(mesh.n_vertices, -1)
    remap[used] = np.arange(len(used))
    half = QuadMesh(mesh.vertices[used], remap[faces],
                    mesh.regions[used])
    p = 0.016
    total = pressure_nodal_forces(half, p).sum(axis=0)
    expect = np.array([0.0, p * 2.0 * radius * length, 0.0])
    assert np.allclose(total, expect, rtol=1e-12, atol=1e-12)


def test_nodal_forces_skip_degenerate_triangles():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]])
    mesh = QuadMesh(verts, np.array([[0, 1, 2, 3]]), np.zeros(4, dtype=np.int8))
    forces = pressure_nodal_forces(mesh, 1.0)
    # Triangle (v0, v1, v2) is collinear and adds no force: only (v0, v2, v3) loads.
    expect = np.zeros_like(verts)
    expect[[0, 2, 3]] = (1.0 / 3.0) * (0.5 * np.cross(verts[2] - verts[0], verts[3] - verts[0]))
    assert np.array_equal(forces, expect)


# ---------------------------------------------------------------------------
# Equilibrium solve: cylinder and sphere oracles
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cylinder_solution(tube24):
    model = MembraneModel()
    return tube24, model, solve_membrane_stress(tube24, model)


def test_cylinder_hoop_stress(cylinder_solution):
    mesh, model, field = cylinder_solution
    mid = _mid_band_faces(mesh, skip_rings=20)
    hoop = field.cauchy[mid, 0]
    assert np.abs(hoop / HOOP - 1.0).max() < 0.02
    # Away from the clamped ends the other components stay small.
    assert np.abs(field.cauchy[mid, 1]).max() < 0.05 * HOOP
    assert np.abs(field.cauchy[mid, 2]).max() < 0.05 * HOOP


def test_cylinder_residual_within_limit(cylinder_solution):
    _, model, field = cylinder_solution
    assert field.residual <= max(10.0 * model.solver_tol, 1e-6)


def test_cylinder_free_ends_exact_faceted_hoop(tube24):
    # With free ends the hoop resultant is the faceted closed form
    # p R cos(pi / C) / t and the axial component vanishes. The diagonal
    # element split leaves one more equilibrium mode: a small shear,
    # uniform over the whole tube and proportional to the band height.
    field = solve_membrane_stress(tube24, MembraneModel(fixed_rings=()))
    expect = HOOP * np.cos(np.pi / 24.0)
    assert np.abs(field.cauchy[:, 0] / expect - 1.0).max() < 1e-9
    assert np.abs(field.cauchy[:, 1]).max() < 1e-6
    assert field.cauchy[:, 2].std() < 1e-6
    assert np.abs(field.cauchy[:, 2]).max() < 0.005 * HOOP


def test_sphere_biaxial_stress(sphere32):
    # Sphere oracle p R / (2 t) = 60 kPa on both principal axes, judged on
    # field means: the valence-3 cube corners keep per-element values from
    # converging pointwise.
    field = solve_membrane_stress(sphere32, MembraneModel())
    s1 = field.principal[:, 0]
    s2 = field.principal[:, 1]
    assert abs(s1.mean() / 60.0 - 1.0) < 0.02
    assert abs(s2.mean() / 60.0 - 1.0) < 0.02
    assert np.abs(field.cauchy[:, 2]).mean() < 0.02 * 60.0
    assert field.residual <= 1e-6


def test_pressure_linearity_exact(tube24):
    base = solve_membrane_stress(tube24, MembraneModel(pressure=16.0))
    double = solve_membrane_stress(tube24, MembraneModel(pressure=32.0))
    assert np.array_equal(double.resultants, 2.0 * base.resultants)


def test_thickness_enters_only_cauchy(tube24):
    thin = solve_membrane_stress(tube24, MembraneModel(thickness=2.0))
    thick = solve_membrane_stress(tube24, MembraneModel(thickness=4.0))
    assert np.array_equal(thin.resultants, thick.resultants)
    assert np.array_equal(thick.cauchy, 0.5 * thin.cauchy)


def test_principal_stresses_frame_covariant():
    mesh = straight_cylinder(circumferential=12, axial=16, length=40.0)
    rng = np.random.default_rng(92)
    q = random_rotation(rng)
    moved = mesh.with_vertices(mesh.vertices @ q.T + np.array([7.0, -3.0, 11.0]))
    a = solve_membrane_stress(mesh, MembraneModel())
    b = solve_membrane_stress(moved, MembraneModel())
    assert np.allclose(a.principal, b.principal, rtol=1e-7, atol=1e-7 * HOOP)


def test_diagonal_shear_decays_with_refinement():
    # The uniform shear mode left by the diagonal split is a first-order
    # discretization artifact: it must shrink monotonically as the tube is
    # refined, while the axial component stays at the solver floor.
    shears = []
    for c_n, a_n in ((12, 16), (16, 24), (24, 32), (32, 48)):
        mesh = straight_cylinder(circumferential=c_n, axial=a_n, length=60.0)
        field = solve_membrane_stress(mesh, MembraneModel(fixed_rings=()))
        hoop_ref = HOOP * np.cos(np.pi / c_n)
        assert np.abs(field.cauchy[:, 1]).max() <= 1e-6 * hoop_ref, (c_n, a_n)
        assert field.cauchy[:, 2].std() <= 1e-6, (c_n, a_n)
        shears.append(abs(field.cauchy[:, 2].mean()))
    assert shears[0] < 0.02 * HOOP
    assert shears == sorted(shears, reverse=True)


def test_diagonal_shear_proportional_to_band_height():
    # Doubling the axial resolution (halving the band height) halves the
    # spurious shear exactly; the hoop value is untouched.
    coarse = solve_membrane_stress(
        straight_cylinder(circumferential=12, axial=16, length=60.0),
        MembraneModel(fixed_rings=()))
    fine = solve_membrane_stress(
        straight_cylinder(circumferential=12, axial=31, length=60.0),
        MembraneModel(fixed_rings=()))
    assert fine.cauchy[:, 2].mean() == pytest.approx(
        0.5 * coarse.cauchy[:, 2].mean(), rel=1e-9)


def _default_splu_resultants(mesh, model):
    """Oracle: the damped minimum-norm solve through scipy's default splu.

    Same operator, load, supports and damping as the solver, but SuperLU's
    default column ordering and partial pivoting, refined for a fixed number
    of rounds.
    """
    frames = fea._element_frames(mesh)
    A, tri_frames, tri_areas = fea._assemble(mesh, frames[0])
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[fea._fixed_vertices(mesh, model, validate_topology(mesh))] = False
    rows = np.repeat(free, 3)
    A = A[rows].tocsr()
    b = pressure_nodal_forces(mesh, model.pressure * fea.KPA_TO_N_PER_MM2).ravel()[rows]
    damp = fea._DAMPING * np.sqrt((A.data**2).sum() / A.shape[1])
    lu = splu((A @ A.T + damp**2 * identity(A.shape[0])).tocsc())
    y = np.zeros(A.shape[0])
    for _ in range(4):
        y += lu.solve(b - A @ (A.T @ y))
    return fea._collapse_resultants(A.T @ y, frames, tri_frames, tri_areas)


@pytest.mark.parametrize("which", ["tube24", "sphere32"])
def test_factor_matches_default_splu(which, tube24, sphere32):
    mesh = {"tube24": tube24, "sphere32": sphere32}[which]
    field = solve_membrane_stress(mesh, MembraneModel())
    ref = _default_splu_resultants(mesh, MembraneModel())
    scale = np.abs(ref).max()
    assert np.abs(field.resultants - ref).max() <= 1e-8 * scale
    assert field.residual <= 1e-8


def _factor_spies(monkeypatch):
    calls = {"cholesky": 0, "splu": 0}

    def spy(name, func):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fea, "cholesky_banded", spy("cholesky", fea.cholesky_banded))
    monkeypatch.setattr(fea, "splu", spy("splu", fea.splu))
    return calls


def test_positive_definite_gram_takes_banded_cholesky(tube24, default_phantom, monkeypatch):
    # Supported tube ends leave no mechanism: the damped Gram is positive
    # definite and SuperLU is never called.
    calls = _factor_spies(monkeypatch)
    solve_membrane_stress(tube24, MembraneModel())
    solve_membrane_stress(default_phantom[0], MembraneModel())
    assert calls == {"cholesky": 2, "splu": 0}


def test_free_ends_fall_back_to_superlu(tube24, monkeypatch):
    # Free tube ends keep mechanism modes the damping barely lifts: the
    # banded factor breaks down and SuperLU solves. The failed attempt leaves
    # no trace: the result equals a solve that never tries Cholesky.
    calls = _factor_spies(monkeypatch)
    field = solve_membrane_stress(tube24, MembraneModel(fixed_rings=()))
    assert calls == {"cholesky": 1, "splu": 1}
    monkeypatch.setattr(fea, "_blas_threads", lambda: None)
    ref = solve_membrane_stress(tube24, MembraneModel(fixed_rings=()))
    assert calls == {"cholesky": 1, "splu": 2}
    assert np.array_equal(field.resultants, ref.resultants)
    assert field.residual == ref.residual


def test_band_order_is_the_narrower(tube24, sphere32, monkeypatch):
    # A tube in mesh order is a band of half-width 3 (C + 1) + 2, narrower
    # than reverse Cuthill-McKee makes it; the cube sphere's panels lie far
    # apart in mesh order, and reverse Cuthill-McKee narrows its band.
    widths = []
    cholesky = fea.cholesky_banded
    monkeypatch.setattr(fea, "cholesky_banded", lambda ab, **kw: widths.append(len(ab) - 1) or cholesky(ab, **kw))
    solve_membrane_stress(tube24, MembraneModel())
    solve_membrane_stress(sphere32, MembraneModel())
    A, _, _ = fea._assemble(sphere32, fea._element_frames(sphere32)[0])
    gram = (A @ A.T).tocoo()
    assert widths[0] == 3 * (24 + 1) + 2
    assert widths[1] < np.abs(gram.row - gram.col).max()


def test_explicit_end_rings_match_default(tube24):
    r = rings(tube24)
    explicit = MembraneModel(fixed_rings=(r[0], r[-1]))
    a = solve_membrane_stress(tube24, MembraneModel())
    b = solve_membrane_stress(tube24, explicit)
    assert np.array_equal(a.resultants, b.resultants)


def _assemble_per_edge(mesh):
    """The per-edge COO loop _assemble replaced: 12 blocks per element."""
    f, v = mesh.faces, mesh.vertices
    t1, _, _ = fea._element_frames(mesh)
    rows, cols, data = [], [], []
    for split, corner_ids in enumerate(((0, 1, 2), (0, 2, 3))):
        tri = f[:, corner_ids]
        p = v[tri]
        n_tri = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        n_tri = n_tri / np.linalg.norm(n_tri, axis=1, keepdims=True)
        t1p = t1 - np.einsum("md,md->m", t1, n_tri)[:, None] * n_tri
        t1p = t1p / np.linalg.norm(t1p, axis=1, keepdims=True)
        t2p = np.cross(n_tri, t1p)
        col0 = 6 * np.arange(len(f)) + 3 * split
        for k in range(3):
            edge = p[:, (k + 1) % 3] - p[:, k]
            length = np.linalg.norm(edge, axis=1)
            mhat = np.cross(edge / length[:, None], n_tri)
            m1 = np.einsum("md,md->m", mhat, t1p)
            m2 = np.einsum("md,md->m", mhat, t2p)
            coeff = np.stack(
                [m1[:, None] * t1p, m2[:, None] * t2p, m2[:, None] * t1p + m1[:, None] * t2p],
                axis=1,
            )
            coeff = 0.5 * length[:, None, None] * coeff
            for endpoint in (tri[:, k], tri[:, (k + 1) % 3]):
                rows.append((3 * endpoint[:, None, None] + np.arange(3)[None, None, :]).repeat(3, axis=1).ravel())
                cols.append((col0[:, None, None] + np.arange(3)[None, :, None]).repeat(3, axis=2).ravel())
                data.append(coeff.ravel())
    shape = (3 * len(v), 6 * len(f))
    return coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=shape).tocsr()


@pytest.mark.parametrize("which", ["tube24", "sphere16", "phantom_patch"])
def test_corner_assembly_bitwise_equals_per_edge(which, tube24, sphere16, default_phantom):
    # Each (vertex row, triangle column) entry has exactly two addends, one
    # per edge at that corner, and a + b == b + a: summing them per corner
    # before the sparse conversion leaves A bitwise unchanged.
    if which == "phantom_patch":
        mesh, _ = default_phantom
        c = mesh.ring_layout[0]
        lo, hi = 150 * c, 171 * c  # rings 150..170 of the arch
        faces = mesh.faces[(mesh.faces >= lo).all(axis=1) & (mesh.faces < hi).all(axis=1)] - lo
        verts = mesh.vertices[lo:hi] + np.random.default_rng(35).normal(0.0, 0.3, (hi - lo, 3))
        mesh = QuadMesh(verts, faces, mesh.regions[lo:hi], (c, 21))
    else:
        mesh = {"tube24": tube24, "sphere16": sphere16}[which]
    got, _, _ = fea._assemble(mesh, fea._element_frames(mesh)[0])
    ref = _assemble_per_edge(mesh)
    assert got.shape == ref.shape
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(ref, part))
        assert getattr(got, part).dtype == getattr(ref, part).dtype


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

def test_unsupported_open_arch_raises_solver_error(arch_small):
    # A curved tube with free ends has no self-equilibrated membrane state:
    # the solve must refuse rather than return a bad field.
    with pytest.raises(SolverError) as exc:
        solve_membrane_stress(arch_small, MembraneModel(fixed_rings=()))
    err = exc.value
    assert err.residual > 1e-6
    assert "residual" in str(err)
    assert err.iterations >= 1


def test_inconsistent_orientation_rejected():
    mesh = straight_cylinder(circumferential=6, axial=4, length=10.0)
    faces = mesh.faces.copy()
    faces[3] = faces[3][::-1]
    bad = QuadMesh(mesh.vertices, faces, mesh.regions, mesh.ring_layout)
    with pytest.raises(ValueError, match="oriented"):
        solve_membrane_stress(bad, MembraneModel())


def test_open_mesh_without_layout_needs_explicit_rings():
    xs, ys = np.meshgrid(np.arange(3.0), np.arange(3.0), indexing="ij")
    verts = np.stack([xs.ravel(), ys.ravel(), np.zeros(9)], axis=1)
    faces = np.array([[0, 1, 4, 3], [1, 2, 5, 4], [3, 4, 7, 6], [4, 5, 8, 7]])
    patch = QuadMesh(verts, faces, np.zeros(9, dtype=np.int8))
    with pytest.raises(ValueError, match="fixed_rings"):
        solve_membrane_stress(patch, MembraneModel())

