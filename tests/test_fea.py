"""Membrane equilibrium: operator and pressure load, resultant solve, principal stresses."""

import re
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse import coo_matrix, identity
from scipy.sparse.linalg import splu

from conftest import cube_sphere, random_rotation, straight_cylinder

from aortafit import fea
from aortafit.cli import main
from aortafit.fea import (
    MembraneModel,
    StressField,
    solve_membrane_stress,
)
from aortafit.phantom import PhantomSpec, make_phantom
from aortafit.quadmesh import TRIANGLES, QuadMesh, rings, save_mesh, validate_topology

HOOP = 120.0  # kPa: p R / t for p = 16 kPa, R = 15 mm, t = 2 mm


def _uniform_field(n, cauchy_kpa, thickness=2.0):
    """StressField with the same Cauchy state (kPa) on every element."""
    resultants = np.tile(np.asarray(cauchy_kpa, dtype=float) * thickness / 1e3, (n, 1))
    return StressField(resultants=resultants, thickness=thickness, pressure=16.0, residual=0.0)


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
    s1, s2 = f.principal.T
    assert np.allclose(s1, 80.0, atol=1e-12)
    assert np.allclose(s2, 80.0, atol=1e-12)


def test_principal_pure_shear():
    f = _uniform_field(3, (0.0, 0.0, 25.0))
    s1, s2 = f.principal.T
    assert np.allclose(s1, 25.0, atol=1e-12)
    assert np.allclose(s2, -25.0, atol=1e-12)


def test_principal_matches_eigenvalue_oracle():
    rng = np.random.default_rng(91)
    for _ in range(20):
        s11, s22, s12 = rng.uniform(-150, 150, 3)
        f = _uniform_field(1, (s11, s22, s12))
        s1, s2 = f.principal.T
        w = np.linalg.eigvalsh(np.array([[s11, s12], [s12, s22]]))
        assert s1[0] == pytest.approx(w[1], rel=1e-12, abs=1e-9)
        assert s2[0] == pytest.approx(w[0], rel=1e-12, abs=1e-9)


def test_stress_field_cauchy_units():
    # Resultants are N/mm; dividing by thickness (mm) gives N/mm^2 = MPa,
    # reported as kPa: 0.24 N/mm over 2 mm is 120 kPa.
    f = StressField(resultants=np.array([[0.24, 0.0, 0.0]]), thickness=2.0, pressure=16.0, residual=0.0)
    assert f.cauchy[0, 0] == pytest.approx(120.0, rel=1e-15)
    assert np.allclose(f.principal[0], [120.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# Pressure load lumping
# ---------------------------------------------------------------------------

def _expanded(A):
    """The whole operator of the corner form A, as compressed sparse rows."""
    return fea._blocks(A, 0, len(A.indptr) - 1).tocsr()


def _nodal_load(mesh, p):
    """``_assemble``'s lumped pressure load with every vertex free, per vertex."""
    _, b = fea._assemble(mesh, fea._element_frames(mesh)[0], np.arange(mesh.n_vertices), p)
    return b.reshape(-1, 3)


def test_nodal_forces_unit_quad():
    mesh = QuadMesh(np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                    np.array([[0, 1, 2, 3]]), np.zeros(4, dtype=np.int8))
    forces = _nodal_load(mesh, 1.0)
    # Total load is pressure * area along +z; the v0-v2 diagonal split gives
    # the diagonal corners a share from both triangles.
    assert np.allclose(forces.sum(axis=0), [0.0, 0.0, 1.0], atol=1e-15)
    assert np.allclose(forces[:, 2], [1 / 3, 1 / 6, 1 / 3, 1 / 6], atol=1e-15)
    assert np.all(forces[:, :2] == 0.0)


def test_nodal_forces_closed_surface_sum_to_zero(sphere16):
    forces = _nodal_load(sphere16, 0.016)
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
    total = _nodal_load(half, p).sum(axis=0)
    expect = np.array([0.0, p * 2.0 * radius * length, 0.0])
    assert np.allclose(total, expect, rtol=1e-12, atol=1e-12)


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
    field = cylinder_solution[2]
    assert field.residual <= 1e-6


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


# ---------------------------------------------------------------------------
# Metamorphic relations: the same wall, moved, renumbered or scaled
# ---------------------------------------------------------------------------

def _band_orders(monkeypatch):
    """Spy on ``_band_order``: one entry per solve, True where it kept mesh order."""
    kept = []
    band_order = fea._band_order

    def spy(faces, free):
        order, width = band_order(faces, free)
        kept.append(np.array_equal(order, np.arange(len(order))))
        return order, width

    monkeypatch.setattr(fea, "_band_order", spy)
    return kept


def test_rigid_motion_leaves_principal_stresses(monkeypatch):
    # A rotated and translated README phantom carries the same principal
    # stresses. Both solves fill the band in mesh order. Fifteen motions
    # measured 6.4e-11 to 2.0e-10 of the largest stress.
    kept = _band_orders(monkeypatch)
    mesh = make_phantom(PhantomSpec(aneurysm=(36.0, 8.0, 8.0)))
    rng = np.random.default_rng(2024)
    moved = mesh.with_vertices(mesh.vertices @ random_rotation(rng).T + np.array([100.25, -37.5, 12.0]))
    ref = solve_membrane_stress(mesh, MembraneModel()).principal
    got = solve_membrane_stress(moved, MembraneModel()).principal
    assert kept == [True, True]
    assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def test_renumbering_leaves_resultants(sphere16, monkeypatch):
    # Random vertex and face permutations of a cube sphere give the same
    # per-face resultants once the faces are put back. Both solves fill the
    # band in reverse Cuthill-McKee order, which the renumbering changes.
    # Five renumberings measured 1.2e-13 to 1.5e-13 of the largest resultant.
    kept = _band_orders(monkeypatch)
    renumbered, new_face = _renumbered(sphere16, np.random.default_rng(16))
    ref = solve_membrane_stress(sphere16, MembraneModel()).resultants
    got = np.empty_like(ref)
    got[new_face] = solve_membrane_stress(renumbered, MembraneModel()).resultants
    assert kept == [False, False]
    assert np.abs(got - ref).max() <= 2e-12 * np.abs(ref).max()


def _renumbered(mesh, rng, faces=True):
    """``mesh`` with its vertices, and unless ``faces`` is False its faces, in a random order.

    Returns the mesh and the new face order: new face i is old face order[i].
    """
    new_vertex = rng.permutation(mesh.n_vertices)  # new vertex i is old vertex new_vertex[i]
    new_face = rng.permutation(mesh.n_faces) if faces else np.arange(mesh.n_faces)
    old_to_new = np.argsort(new_vertex)
    return QuadMesh(mesh.vertices[new_vertex], old_to_new[mesh.faces[new_face]], mesh.regions[new_vertex]), new_face


def test_renumbering_on_the_superlu_path_leaves_resultants(tube24):
    # Free tube ends take SuperLU in mesh order, where the renumbering changes
    # the rows, the columns and SuperLU's pivot order. Twenty renumberings
    # measured 3.7e-13 to 6.3e-12 of the largest resultant.
    ref = solve_membrane_stress(tube24, MembraneModel(fixed_rings=())).resultants
    renumbered, new_face = _renumbered(tube24, np.random.default_rng(24))
    got = np.empty_like(ref)
    got[new_face] = solve_membrane_stress(renumbered, MembraneModel(fixed_rings=())).resultants
    assert np.abs(got - ref).max() <= 5e-11 * np.abs(ref).max()


@pytest.mark.parametrize("which", [
    "tube24",
    pytest.param("readme_target", marks=pytest.mark.xfail(strict=True, reason=(
        "the minimum-norm resultants depend on each element's first edge: the unknowns (N11, N22, N12) "
        "count the shear once, not twice as a tensor norm would, so the mirror's element frames, which "
        "start on the other edge at v0, select another null-space component (6.0e-4 of the largest "
        "principal stress over 7 planes)"))),
])
def test_mirrored_wall_keeps_principal_stresses(which, tube24):
    # A wall mirrored through a plane, each face's winding reversed about v0
    # so that normals stay outward and the v0-v2 split keeps its triangles,
    # carries the same principal stresses face by face, as under a rigid
    # motion. tube24's quads are rectangles, whose frames turn by a right
    # angle: ten planes measured 5.7e-13 to 1.1e-12 of the largest stress.
    mesh = tube24 if which == "tube24" else make_phantom(PhantomSpec(aneurysm=(36.0, 8.0, 8.0)))
    normal = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    mirrored = QuadMesh(mesh.vertices - 2.0 * np.outer(mesh.vertices @ normal - 7.5, normal),
                        mesh.faces[:, [0, 3, 2, 1]], mesh.regions, mesh.ring_layout)
    ref = solve_membrane_stress(mesh, MembraneModel()).principal
    got = solve_membrane_stress(mirrored, MembraneModel()).principal
    assert np.abs(got - ref).max() <= {"tube24": 1e-11, "readme_target": 1e-9}[which] * np.abs(ref).max()


def test_damping_is_the_rms_column_norm_in_any_order(sphere16, monkeypatch):
    # The damping is 1e-8 times A's RMS column norm, from the closed form
    # ½ (α² + β²) per corner summed in element order: within 1e-14 of the
    # expanded operator's, and the same bytes in mesh order, in reverse
    # Cuthill-McKee order and under a vertex renumbering that keeps the
    # face order (which changes the band order, not the corners).
    kept = _band_orders(monkeypatch)
    shifts, rms = [], []
    band_factor = fea._band_factor

    def spy(A, width, halves, shift):
        expanded = _expanded(A)
        shifts.append(shift)
        rms.append(np.sqrt((expanded.data**2).sum() / expanded.shape[1]))
        return band_factor(A, width, halves, shift)

    monkeypatch.setattr(fea, "_band_factor", spy)
    renumbered, _ = _renumbered(sphere16, np.random.default_rng(61), faces=False)
    solve_membrane_stress(sphere16, MembraneModel())
    solve_membrane_stress(renumbered, MembraneModel())
    tri = sphere16.faces[:, TRIANGLES].reshape(-1, 3)
    mesh_order = (np.arange(sphere16.n_vertices), int(np.abs(tri - np.roll(tri, 1, axis=1)).max()))
    monkeypatch.setattr(fea, "_band_order", lambda faces, free: mesh_order)
    solve_membrane_stress(sphere16, MembraneModel())
    assert kept == [False, False]  # reverse Cuthill-McKee order before the mesh order was forced
    assert shifts[0] == shifts[1] == shifts[2]
    for shift, norm in zip(shifts, rms):
        assert abs(np.sqrt(shift) / fea._DAMPING - norm) <= 1e-14 * norm


@pytest.mark.parametrize("which", ["tube24", "sphere16"])
def test_uniform_scaling_scales_resultants(which, tube24, sphere16):
    # Resultants are force per length: a wall scaled by s under the same
    # pressure carries s times them, as hoop pR scales with R. Scales 0.37,
    # 3.7 and 41 measured at most 1.1e-12 of the largest resultant.
    mesh = {"tube24": tube24, "sphere16": sphere16}[which]
    scale = 3.7
    ref = solve_membrane_stress(mesh, MembraneModel()).resultants
    got = solve_membrane_stress(mesh.with_vertices(scale * mesh.vertices), MembraneModel()).resultants
    assert np.abs(got - scale * ref).max() <= 1e-11 * scale * np.abs(ref).max()


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
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[fea._fixed_vertices(mesh, model, validate_topology(mesh))] = False
    corners, b = fea._assemble(mesh, fea._element_frames(mesh)[0], np.flatnonzero(free),
                               model.pressure * fea.KPA_TO_N_PER_MM2)
    A = _expanded(corners)
    damp = fea._DAMPING * np.sqrt((A.data**2).sum() / A.shape[1])
    lu = splu((A @ A.T + damp**2 * identity(A.shape[0])).tocsc())
    y = np.zeros(A.shape[0])
    for _ in range(4):
        y += lu.solve(b - A @ (A.T @ y))
    return fea._collapse_resultants(A.T @ y, mesh, corners.frames)


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

    monkeypatch.setattr(fea, "_band_factor", spy("cholesky", fea._band_factor))
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
    # Free tube ends keep mechanism modes the damping barely lifts, where the
    # banded factor breaks down: an open mesh with no fixed vertex goes
    # straight to SuperLU. The result equals a solve without the thread
    # control, which never tries Cholesky either.
    calls = _factor_spies(monkeypatch)
    field = solve_membrane_stress(tube24, MembraneModel(fixed_rings=()))
    assert calls == {"cholesky": 0, "splu": 1}
    monkeypatch.setattr(fea, "_blas_threads", lambda: None)
    ref = solve_membrane_stress(tube24, MembraneModel(fixed_rings=()))
    assert calls == {"cholesky": 0, "splu": 2}
    assert np.array_equal(field.resultants, ref.resultants)
    assert field.residual == ref.residual


def test_failed_band_factor_falls_back_to_superlu(tube24, monkeypatch):
    # Where the banded factor breaks down, SuperLU factors the whole Gram
    # matrix, which only that path forms, and the solve still meets the
    # default splu oracle.
    calls = _factor_spies(monkeypatch)

    def not_positive_definite(A, width, halves, shift):
        calls["cholesky"] += 1
        return None

    monkeypatch.setattr(fea, "_band_factor", not_positive_definite)
    field = solve_membrane_stress(tube24, MembraneModel())
    assert calls == {"cholesky": 1, "splu": 1}
    ref = _default_splu_resultants(tube24, MembraneModel())
    assert np.abs(field.resultants - ref).max() <= 1e-8 * np.abs(ref).max()
    assert field.residual <= 1e-8


@pytest.mark.parametrize("which", ["tube24", "sphere32"])
def test_gram_blocks_leave_the_solve_bitwise_unchanged(which, tube24, sphere32, monkeypatch):
    # The Gram matrix goes into the band a block of vertex rows at a time.
    # Blocks that do not divide the vertex count, or one block for all
    # vertices, give the same bytes: tube24 is banded in mesh order, sphere32
    # in reverse Cuthill-McKee order.
    mesh = {"tube24": tube24, "sphere32": sphere32}[which]
    rows = mesh.n_vertices - fea._fixed_vertices(mesh, MembraneModel(), validate_topology(mesh)).size
    ref = solve_membrane_stress(mesh, MembraneModel())
    for size in (11, 257, rows):
        assert size == rows or rows % size
        monkeypatch.setattr(fea, "_GRAM_BLOCK", size)
        got = solve_membrane_stress(mesh, MembraneModel())
        assert np.array_equal(got.resultants, ref.resultants), size
        assert got.residual == ref.residual, size


def test_solve_peak_memory_is_the_band_and_one_operator(monkeypatch):
    # The membrane solve sets the full-size pipeline's peak memory. The two
    # half bands must live through the factor; beside them only the
    # separator's three dense blocks of 3 width unknowns square (the two
    # couplings and its factor), the operator A in corner form and the
    # solve's vectors: the load b, y, x and the residual r, with no
    # temporary the size of x. No full Gram matrix, no copy of Aᵀ, no
    # expanded operator and no transient of the assembly, the ordering or
    # the block expansion that outgrows 1 MiB. The README target measured
    # 145.8 MiB: the two 67.9 MiB half bands, 1.3 MiB of separator blocks,
    # the 5.8 MiB corner form and 2.8 MiB of vectors. With A as 10.9 MiB of
    # 3x3 blocks and Aᵀ y's blocks as an x-sized temporary the whole band
    # peaked at 150.9 MiB, above this bound.
    mesh = make_phantom(PhantomSpec(aneurysm=(36.0, 8.0, 8.0)))  # the README target
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[fea._fixed_vertices(mesh, MembraneModel(), validate_topology(mesh))] = False
    A, b = fea._assemble(mesh, fea._element_frames(mesh)[0], np.flatnonzero(free), 0.0)
    a_bytes = sum(part.nbytes for part in A)
    vectors = 8 * (3 * b.size + len(A.rows))
    del A, b
    band, separator = [], []
    band_factor = fea._band_factor

    def spy(*args):
        factor = band_factor(*args)
        band.append(factor.left.nbytes + factor.right.nbytes)
        separator.append(3 * 8 * (len(factor.left) - 3) ** 2)  # three blocks of 3 width unknowns square
        return factor

    monkeypatch.setattr(fea, "_band_factor", spy)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        solve_membrane_stress(mesh, MembraneModel())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= band[0] + separator[0] + a_bytes + vectors + 2**20, (
        peak / 2**20, band[0] / 2**20, separator[0] / 2**20, a_bytes / 2**20)


def test_band_is_freed_before_the_collapse(tube24, monkeypatch):
    # The factor is dropped once refinement ends, so the collapse's
    # temporaries do not land on top of the band.
    factors = []
    band_factor = fea._band_factor

    def kept(*args):
        factor = band_factor(*args)
        factors.extend(weakref.ref(part) for part in factor)
        return factor

    collapse = fea._collapse_resultants

    def check(*args):
        assert factors and all(ref() is None for ref in factors)
        return collapse(*args)

    monkeypatch.setattr(fea, "_band_factor", kept)
    monkeypatch.setattr(fea, "_collapse_resultants", check)
    solve_membrane_stress(tube24, MembraneModel())


@pytest.mark.parametrize("which", ["tube24", "sphere32"])
def test_resultants_unchanged_without_malloc_trim(which, tube24, sphere32, monkeypatch):
    # Returning freed heap to the system before the band is allocated changes
    # where the band lives, not its bytes; C libraries without malloc_trim
    # skip it.
    mesh = {"tube24": tube24, "sphere32": sphere32}[which]
    trim, pads = fea._malloc_trim(), []
    if trim is not None:
        monkeypatch.setattr(fea, "_malloc_trim", lambda: lambda pad: pads.append(pad) or trim(pad))
    ref = solve_membrane_stress(mesh, MembraneModel())
    assert pads == ([] if trim is None else [0])
    monkeypatch.setattr(fea, "_malloc_trim", lambda: None)
    got = solve_membrane_stress(mesh, MembraneModel())
    assert np.array_equal(got.resultants, ref.resultants)
    assert got.residual == ref.residual


def test_band_order_is_the_narrower(tube24, sphere32, monkeypatch):
    # A tube in mesh order is a band of half-width 3 (C + 1) + 2, narrower
    # than reverse Cuthill-McKee makes it; the cube sphere's panels lie far
    # apart in mesh order, and reverse Cuthill-McKee narrows its band.
    widths = []
    band_factor = fea._band_factor

    def spy(*args):
        factor = band_factor(*args)
        widths.append(len(factor.left) - 1)
        return factor

    monkeypatch.setattr(fea, "_band_factor", spy)
    solve_membrane_stress(tube24, MembraneModel())
    solve_membrane_stress(sphere32, MembraneModel())
    tri = sphere32.faces[:, TRIANGLES].reshape(-1, 3)
    mesh_order_width = np.abs(tri - np.roll(tri, 1, axis=1)).max()  # vertices that share a triangle
    assert widths[0] == 3 * (24 + 1) + 2
    assert widths[1] < 3 * mesh_order_width + 2


def _halves_on_threads(monkeypatch):
    """Spy on ``_half_factor``: per half, its first block row and whether it ran off the main thread."""
    off_main = []
    half_factor = fea._half_factor

    def spy(A, width, lo, hi, shift):
        off_main.append((lo, threading.current_thread() is not threading.main_thread()))
        return half_factor(A, width, lo, hi, shift)

    monkeypatch.setattr(fea, "_half_factor", spy)
    return off_main


def test_split_solve_is_the_same_bytes_whether_the_halves_overlap(monkeypatch):
    # The README target's band is split in two halves, and a second thread
    # fills and factors the right one while the main thread does the left.
    # Run one after the other instead (the worker's task inline), the solve
    # gives the same bytes; no thread outlives either solve.
    off_main = _halves_on_threads(monkeypatch)
    mesh = make_phantom(PhantomSpec(aneurysm=(36.0, 8.0, 8.0)))
    threads = threading.active_count()
    ref = solve_membrane_stress(mesh, MembraneModel())
    assert threading.active_count() == threads
    (_, left), (right_lo, right) = sorted(off_main)
    assert right_lo > 0 and right and not left
    off_main.clear()
    monkeypatch.setattr(fea, "_start", lambda task: (lambda result: lambda: result)(task()))
    got = solve_membrane_stress(mesh, MembraneModel())
    assert [off for _, off in off_main] == [False, False]
    assert np.array_equal(got.resultants, ref.resultants)
    assert got.residual == ref.residual
    assert threading.active_count() == threads


def test_failing_half_leaves_no_thread(sphere16, tmp_path, monkeypatch, capsys):
    # sphere16's band is split too. A right half that is not positive
    # definite sends the solve to SuperLU, which meets the banded solve; a
    # MemoryError in the worker thread reaches `stress` as exit 2 with one
    # line. Either way the worker thread is joined.
    calls = _factor_spies(monkeypatch)
    threads = threading.active_count()
    ref = solve_membrane_stress(sphere16, MembraneModel())
    half_factor, faults = fea._half_factor, []

    def right_fails(fault):
        def half(A, width, lo, hi, shift):
            if lo == 0:
                return half_factor(A, width, lo, hi, shift)
            faults.append(threading.current_thread() is not threading.main_thread())
            return fault()
        return half

    monkeypatch.setattr(fea, "_half_factor", right_fails(lambda: None))
    got = solve_membrane_stress(sphere16, MembraneModel())
    assert faults == [True]
    assert calls == {"cholesky": 2, "splu": 1}
    assert np.abs(got.resultants - ref.resultants).max() <= 1e-8 * np.abs(ref.resultants).max()
    assert threading.active_count() == threads

    def out_of_memory():
        raise MemoryError("Unable to allocate the right half band")

    monkeypatch.setattr(fea, "_half_factor", right_fails(out_of_memory))
    mesh = str(tmp_path / "sphere16.vtk")
    save_mesh(sphere16, mesh)
    capsys.readouterr()
    assert main(["stress", "--mesh", mesh, "--out", str(tmp_path / "stressed.vtk")]) == 2
    assert capsys.readouterr().err.splitlines() == ["aortafit: out of memory: Unable to allocate the right half band"]
    assert faults == [True, True]
    assert threading.active_count() == threads


@pytest.mark.parametrize("which", ["readme_target", "tube24"])
def test_dissected_solve_matches_whole_band_cholesky(which, tube24):
    # The dissected factor's solve of (A Aᵀ + δ² I) y = b against scipy's
    # banded Cholesky of the whole band: the same Gram matrix, put back in
    # band order. The README target's band is split; tube24's is not. At
    # the solver's damping (1e-8 of A's RMS column norm) the system is too
    # ill-conditioned for two factors to agree beyond about 1e-8 (the README
    # target's whole band filled two ways already differs by 5.7e-9), so
    # there the solve must leave no larger a residual than the oracle's
    # (both 7.3e-13 on the README target); at a damping of 0.1 the two agree
    # within 1e-12 (README target 6.9e-14; tube24 runs the same arithmetic
    # as the oracle and agrees bitwise).
    mesh = tube24 if which == "tube24" else make_phantom(PhantomSpec(aneurysm=(36.0, 8.0, 8.0)))
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[fea._fixed_vertices(mesh, MembraneModel(), validate_topology(mesh))] = False
    order, width = fea._band_order(mesh.faces, free)
    dissected, halves = fea._dissect(order, width)
    assert (halves[1] > 0) == (which == "readme_target")
    A, b = fea._assemble(mesh, fea._element_frames(mesh)[0], np.flatnonzero(free)[dissected],
                         16.0 * fea.KPA_TO_N_PER_MM2)
    expanded = _expanded(A)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    unknown = (3 * rank[dissected][:, None] + np.arange(3)).ravel()  # each unknown's place in band order
    h = 3 * width + 2
    r = np.empty_like(b)
    r[unknown] = b
    for damping in (fea._DAMPING, 0.1):
        shift = damping**2 * (expanded.data**2).sum() / expanded.shape[1]
        with fea._one_blas_thread():
            y = fea._band_solve(fea._band_factor(A, width, halves, shift), b.copy())
        gram = (expanded @ expanded.T + shift * identity(len(b))).tocsr()
        coo = gram.tocoo()
        rows, cols = unknown[coo.row], unknown[coo.col]
        lower = rows >= cols
        assert (rows - cols).max() <= h
        ab = np.zeros((h + 1, len(b)))
        ab[(rows - cols)[lower], cols[lower]] = coo.data[lower]
        ref = cho_solve_banded((cholesky_banded(ab, lower=True), True), r)[unknown]
        if damping == fea._DAMPING:
            assert np.linalg.norm(gram @ y - b) <= 2 * np.linalg.norm(gram @ ref - b)
        else:
            assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()


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
def test_corner_assembly_matches_per_edge(which, tube24, sphere16, default_phantom):
    # A corner's two edges sum to the chord d from the corner before to the
    # one after, so the corner form's block ½ [β t1p | −α t2p | β t2p − α t1p]
    # is the per-edge sum with other roundoff: the same blocks in the same
    # places, each value within 8 ε of its row's largest (measured 2.1-4.1 ε).
    if which == "phantom_patch":
        mesh, _ = default_phantom
        c = mesh.ring_layout[0]
        lo, hi = 150 * c, 171 * c  # rings 150..170 of the arch
        faces = mesh.faces[(mesh.faces >= lo).all(axis=1) & (mesh.faces < hi).all(axis=1)] - lo
        verts = mesh.vertices[lo:hi] + np.random.default_rng(35).normal(0.0, 0.3, (hi - lo, 3))
        mesh = QuadMesh(verts, faces, mesh.regions[lo:hi], (c, 21))
    else:
        mesh = {"tube24": tube24, "sphere16": sphere16}[which]
    got, _ = fea._assemble(mesh, fea._element_frames(mesh)[0], np.arange(mesh.n_vertices), 0.0)
    _assert_csr_matches(_expanded(got), _assemble_per_edge(mesh))


def _assert_csr_matches(got, ref):
    """Indices and pointers bitwise; each value within 8 ε of its row's largest magnitude."""
    assert got.shape == ref.shape
    for part in ("indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(ref, part))
        assert getattr(got, part).dtype == getattr(ref, part).dtype
    assert got.data.dtype == ref.data.dtype
    row_max = np.repeat(abs(ref).max(axis=1).toarray().ravel(), np.diff(ref.indptr))
    assert np.all(np.abs(got.data - ref.data) <= 8 * np.finfo(float).eps * row_max)


@pytest.mark.parametrize("which", ["default", "one_ring", "free_ends", "all_fixed", "sphere32"])
def test_assembly_is_the_free_rows_of_per_edge(which, tube24, sphere32):
    # _assemble builds only the rows of the vertices it is given: in vertex
    # order, the rows of the full per-edge operator that the supports leave,
    # with the same blocks in the same places and values within roundoff.
    mesh = sphere32 if which == "sphere32" else tube24
    fixed_rings = {"one_ring": (rings(tube24)[0],), "free_ends": (),
                   "all_fixed": (np.arange(tube24.n_vertices),)}.get(which)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[fea._fixed_vertices(mesh, MembraneModel(fixed_rings=fixed_rings), validate_topology(mesh))] = False
    corners, b = fea._assemble(mesh, fea._element_frames(mesh)[0], np.flatnonzero(free), 0.016)
    got = _expanded(corners)
    assert got.shape[0] == b.size == 3 * free.sum()
    assert got.shape[0] == {"default": 3 * 24 * 58, "one_ring": 3 * 24 * 59, "all_fixed": 0}.get(
        which, 3 * mesh.n_vertices)
    _assert_csr_matches(got, _assemble_per_edge(mesh)[np.repeat(free, 3)].tocsr())


# ---------------------------------------------------------------------------
# Failure modes
# ---------------------------------------------------------------------------

def test_unsupported_open_arch_raises_floating_point_error(arch_small):
    # A curved tube with free ends has no self-equilibrated membrane state:
    # the solve must refuse rather than return a bad field, and say why.
    with pytest.raises(FloatingPointError) as exc:
        solve_membrane_stress(arch_small, MembraneModel(fixed_rings=()))
    m = re.fullmatch(r"equilibrium residual (\S+) above limit 1e-06 after (\d+) refinement rounds", str(exc.value))
    assert m is not None, str(exc.value)
    assert float(m[1]) > 1e-6
    assert int(m[2]) >= 1


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

