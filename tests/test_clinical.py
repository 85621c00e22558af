"""Clinical metrics: ring diameters, regional stress stats, report schema."""

import numpy as np
import pytest
from scipy.special import ellipe

from conftest import bulged_cylinder, random_rotation, straight_cylinder

from aortafit.clinical import (
    SCHEMA_VERSION,
    ReportConfig,
    all_ring_diameters,
    build_report,
    max_diameter_per_region,
    regional_stress_stats,
    ring_region_codes,
    validate_report,
)
from aortafit.fea import MembraneModel, StressField, solve_membrane_stress
from aortafit.phantom import PhantomSpec, make_phantom
from aortafit.quadmesh import QuadMesh, rings


def _ring_mesh(ring):
    """One ring repeated as both rings of a (C, 2) tube: diameters of that ring."""
    verts = np.concatenate([ring, ring])
    c = len(ring)
    slot = np.arange(c)
    faces = np.stack([slot, (slot + 1) % c, (slot + 1) % c + c, slot + c], axis=1)
    return QuadMesh(verts, faces, np.zeros(2 * c, dtype=np.int8), (c, 2))


def _ring_diameter(ring, method="equivalent"):
    diams = all_ring_diameters(_ring_mesh(ring), method=method)
    assert diams[0] == diams[1]
    return diams[0]


def _ngon(n, radius=15.0, center=(0.0, 0.0, 0.0)):
    t = 2.0 * np.pi * np.arange(n) / n
    ring = np.stack([radius * np.cos(t), radius * np.sin(t), np.zeros(n)], axis=1)
    return ring + np.asarray(center)


@pytest.fixture(scope="module")
def bulge_mesh():
    # Narrow bump (sigma 4 mm) so its tails are negligible outside the
    # ascending band; rings follow r(s) = 15 + 5 exp(-(s-36)^2 / 32).
    return bulged_cylinder(amplitude=5.0, width=4.0, center=36.0)


@pytest.fixture(scope="module")
def tube_stress(tube24):
    return solve_membrane_stress(tube24, MembraneModel())


# ---------------------------------------------------------------------------
# Single-ring diameters (through all_ring_diameters on a one-ring tube)
# ---------------------------------------------------------------------------

def test_regular_polygon_diameter_exact():
    for n in (3, 7, 24, 100):
        ring = _ngon(n, radius=15.0, center=(3.0, -2.0, 7.0))
        assert _ring_diameter(ring) == pytest.approx(30.0, abs=1e-12)


def test_ellipse_equivalent_diameter_matches_quadrature():
    # Parameter-uniform samples of an ellipse have centroid at the center,
    # so the equivalent diameter converges (spectrally, as a periodic
    # trapezoid sum) to 2 * mean radius = 2 * (2a/pi) * E(1 - b^2/a^2).
    a, b = 20.0, 10.0
    t = 2.0 * np.pi * np.arange(400) / 400
    ring = np.stack([a * np.cos(t), b * np.sin(t), np.full(400, 5.0)], axis=1)
    expect = 2.0 * (2.0 * a / np.pi) * ellipe(1.0 - (b / a) ** 2)
    assert _ring_diameter(ring) == pytest.approx(expect, rel=1e-9)


def test_ellipse_chord_diameter_is_major_axis():
    a, b = 20.0, 10.0
    t = 2.0 * np.pi * np.arange(100) / 100  # includes t = 0 and t = pi
    ring = np.stack([a * np.cos(t), b * np.sin(t), np.zeros(100)], axis=1)
    assert _ring_diameter(ring, method="chord") == pytest.approx(2.0 * a, rel=1e-12)


def test_ring_diameter_validation():
    with pytest.raises(ValueError, match="C >= 3"):
        _ring_diameter(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        _ring_diameter(np.zeros((5, 2)))
    with pytest.raises(ValueError, match="degenerate"):
        _ring_diameter(np.tile([1.0, 2.0, 3.0], (4, 1)))
    with pytest.raises(ValueError, match="unknown diameter method"):
        _ring_diameter(_ngon(8), method="area")


# ---------------------------------------------------------------------------
# Whole-mesh diameters
# ---------------------------------------------------------------------------

def test_all_ring_diameters_matches_per_ring_loop(arch_small):
    loops = rings(arch_small)
    for method in ("equivalent", "chord"):
        diams = all_ring_diameters(arch_small, method=method)
        assert diams.shape == (len(loops),)
        for a, loop in enumerate(loops):
            ring = arch_small.vertices[loop]
            if method == "equivalent":
                one = 2.0 * np.mean([np.linalg.norm(p - ring.mean(axis=0)) for p in ring])
            else:
                one = max(np.linalg.norm(p - q) for p in ring for q in ring)
            assert diams[a] == pytest.approx(one, rel=1e-12)


def test_cylinder_rings_all_thirty(tube24):
    diams = all_ring_diameters(tube24)
    assert np.allclose(diams, 30.0, atol=1e-9)


def test_bulge_ring_profile_analytic(bulge_mesh):
    s = np.linspace(0.0, 120.0, 60)
    expect = 2.0 * (15.0 + 5.0 * np.exp(-((s - 36.0) ** 2) / (2.0 * 4.0 ** 2)))
    assert np.allclose(all_ring_diameters(bulge_mesh), expect, rtol=1e-12)


def test_diameters_rigid_invariant_and_scale_linear(bulge_mesh):
    rng = np.random.default_rng(17)
    q = random_rotation(rng)
    base = all_ring_diameters(bulge_mesh)
    moved = bulge_mesh.with_vertices(bulge_mesh.vertices @ q.T + np.array([4.0, -9.0, 2.0]))
    assert np.allclose(all_ring_diameters(moved), base, rtol=1e-9)
    scaled = bulge_mesh.with_vertices(1.7 * bulge_mesh.vertices)
    assert np.allclose(all_ring_diameters(scaled), 1.7 * base, rtol=1e-12)


def test_monotone_radius_profile_gives_monotone_diameters():
    # A cone: each ring of a straight 15 mm tube scaled about its centroid to
    # the radius 15 + 3 s / 100 at its arc length s.
    tube = make_phantom(PhantomSpec(arch_radius=0.0, descending_length=0.0,
                                    ascending_length=100.0, circumferential=16, axial=25))
    idx = rings(tube)
    ring_verts = tube.vertices[idx]
    center = ring_verts.mean(axis=1, keepdims=True)
    scale = (15.0 + 3.0 * np.linspace(0.0, 100.0, 25) / 100.0) / 15.0
    verts = tube.vertices.copy()
    verts[idx] = center + scale[:, None, None] * (ring_verts - center)
    diams = all_ring_diameters(tube.with_vertices(verts))
    assert np.all(np.diff(diams) > 0)
    assert diams[0] == pytest.approx(30.0, abs=1e-9)
    assert diams[-1] == pytest.approx(36.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Ring regions and per-region maxima
# ---------------------------------------------------------------------------

def test_ring_region_codes_majority_and_tie():
    mesh = straight_cylinder(circumferential=4, axial=3, length=10.0)
    labels = np.array([0, 0, 1, 1,   # tie on ring 0: lowest code wins
                       1, 2, 2, 2,   # majority 2
                       3, 3, 0, 3],  # majority 3
                      dtype=np.int8)
    relabeled = QuadMesh(mesh.vertices, mesh.faces, labels, mesh.ring_layout)
    assert ring_region_codes(relabeled).tolist() == [0, 2, 3]


def test_max_diameter_per_region_bulge(bulge_mesh):
    # Hand-derived region bands for A = 60 rings and the analytic profile.
    s = np.linspace(0.0, 120.0, 60)
    d = 2.0 * (15.0 + 5.0 * np.exp(-((s - 36.0) ** 2) / 32.0))
    bands = {"root": (0, 8), "ascending": (8, 26),
             "arch": (26, 38), "descending": (38, 60)}
    out = max_diameter_per_region(bulge_mesh)
    assert set(out) == set(bands)
    for name, (lo, hi) in bands.items():
        diam, idx = out[name]
        assert lo <= idx < hi
        assert idx == lo + int(np.argmax(d[lo:hi]))
        assert diam == pytest.approx(d[lo:hi].max(), rel=1e-12)
    assert out["ascending"][0] == pytest.approx(40.0, rel=0.02)
    for name in ("root", "arch", "descending"):
        assert out[name][0] == pytest.approx(30.0, rel=0.02)


def test_max_diameter_requires_rings_per_region():
    mesh = straight_cylinder(circumferential=6, axial=4, length=10.0)
    only_root = QuadMesh(mesh.vertices, mesh.faces,
                         np.zeros(mesh.n_vertices, dtype=np.int8), mesh.ring_layout)
    with pytest.raises(ValueError, match="owns no rings"):
        max_diameter_per_region(only_root)


# ---------------------------------------------------------------------------
# Regional stress statistics
# ---------------------------------------------------------------------------

def test_stress_stats_partition_identity(tube24, tube_stress):
    from aortafit.quadmesh import face_regions

    stats = regional_stress_stats(tube24, tube_stress)
    fr = face_regions(tube24)
    counts = {name: int((fr == code).sum())
              for code, name in enumerate(("root", "ascending", "arch", "descending"))}
    weighted = sum(stats[n][0] * counts[n] for n in stats)
    total = sum(counts.values())
    assert total == tube24.n_faces
    assert weighted / total == pytest.approx(tube_stress.principal[:, 0].mean(), rel=1e-12)


def test_stress_stats_peak_rules(tube24, tube_stress):
    from aortafit.quadmesh import face_regions

    fr = face_regions(tube24)
    arch_faces = np.nonzero(fr == 2)[0]
    spiked_res = tube_stress.resultants.copy()
    spiked_res[arch_faces[3]] *= 3.0
    spiked = StressField(resultants=spiked_res,
                         thickness=tube_stress.thickness,
                         pressure=tube_stress.pressure,
                         residual=tube_stress.residual)

    base = regional_stress_stats(tube24, tube_stress)
    hot = regional_stress_stats(tube24, spiked)
    assert hot["arch"][1] == pytest.approx(spiked.principal[arch_faces[3], 0], rel=1e-12)
    for name in ("root", "ascending", "descending"):
        assert hot[name] == base[name]

    pct = regional_stress_stats(tube24, spiked, peak_rule="percentile", percentile=99.0)
    sigma1 = spiked.principal[:, 0]
    expect = np.percentile(sigma1[fr == 2], 99.0)
    assert pct["arch"][1] == pytest.approx(expect, rel=1e-12)
    assert pct["arch"][1] < hot["arch"][1]

    with pytest.raises(ValueError, match="unknown peak rule"):
        regional_stress_stats(tube24, tube_stress, peak_rule="median")


def test_stress_stats_rejects_mismatched_field(tube24, tube_stress):
    small = straight_cylinder(circumferential=6, axial=4, length=10.0)
    with pytest.raises(ValueError, match="face count"):
        regional_stress_stats(small, tube_stress)


# ---------------------------------------------------------------------------
# Report assembly and schema validation
# ---------------------------------------------------------------------------

def test_build_report_schema_and_provenance(bulge_mesh):
    stress = solve_membrane_stress(bulge_mesh, MembraneModel())
    data = build_report(bulge_mesh, stress, ReportConfig(peak_rule="max"),
                        provenance={"mesh": "bulge.vtk", "config_hash": "ab12",
                                    "tool_version": "0.1.0"})
    validate_report(data)
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["pressure_kpa"] == 16.0
    assert data["thickness_mm"] == 2.0
    assert data["provenance"] == {"mesh": "bulge.vtk", "config_hash": "ab12",
                                  "tool_version": "0.1.0"}
    entry = data["regions"]["ascending"]
    assert entry["max_diameter_mm"] == pytest.approx(40.0, rel=0.02)
    assert entry["peak_sigma1_kpa"] >= entry["mean_sigma1_kpa"]
    assert "diameter_error_mm" not in entry


def test_build_report_diameter_error_against_reference(bulge_mesh, tube24):
    stress = solve_membrane_stress(bulge_mesh, MembraneModel())
    report = build_report(bulge_mesh, stress, reference_mesh=tube24)
    got = max_diameter_per_region(bulge_mesh)
    ref = max_diameter_per_region(tube24)
    for name, entry in report["regions"].items():
        expect = abs(got[name][0] - ref[name][0])
        assert entry["diameter_error_mm"] == pytest.approx(expect, rel=1e-12)


def test_report_with_peak_below_mean_fails_validation(tube24, tube_stress):
    # percentile 0 turns the peak into the regional minimum, which
    # validate_report refuses to let the report publish.
    report = build_report(tube24, tube_stress, ReportConfig(peak_rule="percentile", percentile=0.0))
    with pytest.raises(ValueError, match="peak below mean"):
        validate_report(report)


def test_validate_report_failure_modes(tube24, tube_stress):
    good = build_report(tube24, tube_stress)
    validate_report(good)

    with pytest.raises(ValueError, match="must be a dict"):
        validate_report([good])

    import copy

    broken = copy.deepcopy(good)
    del broken["pressure_kpa"]
    with pytest.raises(ValueError, match="missing keys"):
        validate_report(broken)

    broken = copy.deepcopy(good)
    broken["schema_version"] = 99
    with pytest.raises(ValueError, match="schema version"):
        validate_report(broken)

    broken = copy.deepcopy(good)
    broken["regions"]["aorta"] = broken["regions"].pop("arch")
    with pytest.raises(ValueError, match="regions"):
        validate_report(broken)

    broken = copy.deepcopy(good)
    del broken["regions"]["root"]["ring_index"]
    with pytest.raises(ValueError, match="missing keys"):
        validate_report(broken)

    broken = copy.deepcopy(good)
    broken["regions"]["root"]["max_diameter_mm"] = 0.0
    with pytest.raises(ValueError, match="positive"):
        validate_report(broken)

    broken = copy.deepcopy(good)
    broken["regions"]["root"]["peak_sigma1_kpa"] = (
        broken["regions"]["root"]["mean_sigma1_kpa"] - 1.0)
    with pytest.raises(ValueError, match="peak below mean"):
        validate_report(broken)

    for key in ("peak_sigma1_kpa", "diameter_error_mm"):
        broken = copy.deepcopy(good)
        broken["regions"]["root"][key] = float("inf")
        with pytest.raises(ValueError, match="finite"):
            validate_report(broken)

    broken = copy.deepcopy(good)
    broken["thickness_mm"] = float("nan")
    with pytest.raises(ValueError, match="finite"):
        validate_report(broken)

    broken = copy.deepcopy(good)
    broken["provenance"] = "none"
    with pytest.raises(ValueError, match="provenance"):
        validate_report(broken)


# ---------------------------------------------------------------------------
# Metamorphic: a rigidly moved mesh and reference
# ---------------------------------------------------------------------------

_SHIFT = np.array([100.25, -37.5, 12.0])


@pytest.fixture(scope="module")
def readme_pair():
    """The README's bulged phantom, the default phantom as its reference, and its report."""
    mesh = make_phantom(PhantomSpec(aneurysm=(36.0, 8.0, 8.0)))
    reference = make_phantom(PhantomSpec())
    report = build_report(mesh, solve_membrane_stress(mesh, MembraneModel()), reference_mesh=reference)
    return mesh, reference, report


def _moved(mesh, seed):
    q = random_rotation(np.random.default_rng(seed))
    return mesh.with_vertices(mesh.vertices @ q.T + _SHIFT)


def test_report_under_rigid_motion(readme_pair):
    # Rotating the mesh and its reference together and moving both by
    # _SHIFT keeps the report. Twenty motions (seeds 0-19) measured
    # diameters and diameter errors within 8.3e-16 of the region's diameter,
    # and mean and peak sigma1 within 1.2e-11 of the largest peak; the bounds
    # are 1e-14 and 1e-10. The ring of each region's largest diameter is kept
    # exactly, the arch and descending plateaus of rings equal to rounding
    # (30 mm within 1e-15, relative) included: the first ring of a plateau
    # is reported (test_plateau_ring_index_under_rigid_motion).
    mesh, reference, base = readme_pair
    largest_peak = max(e["peak_sigma1_kpa"] for e in base["regions"].values())
    for seed in range(3):
        moved = _moved(mesh, seed)
        got = build_report(moved, solve_membrane_stress(moved, MembraneModel()),
                           reference_mesh=_moved(reference, seed))
        for name, entry in base["regions"].items():
            g = got["regions"][name]
            d = entry["max_diameter_mm"]
            for key in ("max_diameter_mm", "diameter_error_mm"):
                assert abs(g[key] - entry[key]) <= 1e-14 * d, (seed, name, key)
            for key in ("mean_sigma1_kpa", "peak_sigma1_kpa"):
                assert abs(g[key] - entry[key]) <= 1e-10 * largest_peak, (seed, name, key)
            assert g["ring_index"] == entry["ring_index"], (seed, name)


def test_plateau_ring_index_under_rigid_motion(readme_pair):
    # The arch (rings 140-199) and descending (200-319) rings of the README
    # phantom all measure 30 mm up to rounding. The plain argmax moved the
    # reported ring in 19 and 16 of 20 motions; the first ring of each
    # plateau is reported, moved or not.
    mesh, _, base = readme_pair
    assert {name: base["regions"][name]["ring_index"] for name in ("arch", "descending")} == {
        "arch": 140, "descending": 200}
    for seed in range(20):
        got = max_diameter_per_region(_moved(mesh, seed))
        assert {name: got[name][1] for name in ("arch", "descending")} == {"arch": 140, "descending": 200}, seed
