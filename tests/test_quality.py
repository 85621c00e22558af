"""Element quality metrics and surface self-intersection detection."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import random_rotation, straight_cylinder

from aortafit import quality
from aortafit.phantom import PhantomSpec, make_phantom
from aortafit.quadmesh import TRIANGLES, QuadMesh, rings
from aortafit.quality import (
    METRICS,
    _box_overlap_pairs,
    element_metrics,
    quality_report,
    self_intersections,
)

UNIT_SQUARE = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
COLLAPSED = np.array([[0.0, 0, 0], [0, 0, 0], [1, 1, 0], [0, 1, 0]])  # a zero-length edge
LINE = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])  # zero area, collinear diagonals


def _mesh_triangles(mesh):
    """The mesh's triangles as (2 m, 3) vertex ids: triangle 2 e + s is ``TRIANGLES[s]`` of face e."""
    return mesh.faces[:, TRIANGLES].reshape(-1, 3)


def _quad_soup(quads):
    """One QuadMesh from a list of independent (4, 3) quads."""
    quads = np.asarray(quads, dtype=float)
    verts = quads.reshape(-1, 3)
    faces = np.arange(len(verts)).reshape(-1, 4)
    return QuadMesh(verts, faces, np.zeros(len(verts), dtype=np.int8))


def _one(quad):
    """element_metrics of one (4, 3) quad: the first row of every array."""
    return {name: value[0] for name, value in element_metrics(np.asarray(quad)[None]).items()}


# ---------------------------------------------------------------------------
# Closed-form elements
# ---------------------------------------------------------------------------

def test_unit_square_is_perfect():
    m = _one(UNIT_SQUARE)
    assert m["equiangle_skew"] == 0.0
    assert m["aspect_ratio"] == 1.0
    assert m["scaled_jacobian"] == 1.0
    assert np.array_equal(m["angles"], [90.0, 90.0, 90.0, 90.0])


def test_rhombus_60_degrees():
    c, s = np.cos(np.pi / 3.0), np.sin(np.pi / 3.0)
    rhombus = np.array([[0.0, 0, 0], [1, 0, 0], [1 + c, s, 0], [c, s, 0]])
    m = _one(rhombus)
    ang = m["angles"]
    assert np.allclose(np.sort(ang), [60.0, 60.0, 120.0, 120.0], atol=1e-12)
    assert m["equiangle_skew"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert m["scaled_jacobian"] == pytest.approx(np.sin(np.pi / 3.0), abs=1e-12)
    # Unit edges, perimeter 4, area sin(60): L_max * P / (4 A) = 1 / sin(60).
    assert m["aspect_ratio"] == pytest.approx(1.0 / np.sin(np.pi / 3.0), abs=1e-12)


def test_rectangle_2x1_aspect():
    m = _one(np.array([[0.0, 0, 0], [2, 0, 0], [2, 1, 0], [0, 1, 0]]))
    assert m["aspect_ratio"] == pytest.approx(1.5, abs=1e-15)
    assert m["equiangle_skew"] == 0.0
    assert m["scaled_jacobian"] == pytest.approx(1.0, abs=1e-15)


def test_concave_dart_has_negative_jacobian():
    dart = np.array([[0.0, 0, 0], [2, 0, 0], [0.3, 0.3, 0], [0, 2, 0]])
    assert _one(dart)["scaled_jacobian"] < 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the metrics of invalid quads warn nothing
def test_zero_area_line_quad_is_invalid():
    # A quad collapsed onto a line has no element normal; quality_report
    # counts it as degenerate (test_report_excludes_degenerate_elements).
    assert element_metrics(LINE[None])["valid"].tolist() == [False]
    # Far from its other corners, v0's fan triangles round to zero area while
    # the diagonals keep a normal: no aspect ratio, so degenerate too.
    far = np.array([[1e21, 1e21, 1e21], [1e15, 1e15, 1e15], [1e15 + 4, 1e15, 1e15], [1e15, 1e15 + 4, 1e15]])
    assert element_metrics(far[None])["valid"].tolist() == [False]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the metrics of invalid quads warn nothing
def test_zero_length_edge_is_invalid():
    assert element_metrics(COLLAPSED[None])["valid"].tolist() == [False]
    # Only the bad quad among good ones is marked.
    assert element_metrics(np.stack([UNIT_SQUARE, COLLAPSED]))["valid"].tolist() == [True, False]


def test_single_quad_shape_rejected():
    with pytest.raises(ValueError, match=r"\(m, 4, 3\)"):
        element_metrics(UNIT_SQUARE)


# ---------------------------------------------------------------------------
# Random planar quads against a 2D analytic oracle
# ---------------------------------------------------------------------------

def _random_planar_quads(rng, n):
    """Convex planar quads embedded at random orientations.

    Returns (quads_3d, angles_2d) with the oracle angles computed in the
    plane before embedding.
    """
    quads, oracles = [], []
    while len(quads) < n:
        th = np.sort(rng.uniform(0, 2 * np.pi, 4))
        if np.min(np.diff(np.append(th, th[0] + 2 * np.pi))) < 0.45:
            continue
        r = rng.uniform(0.6, 1.4, 4)
        p2 = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        def turn(i):
            a = p2[(i + 1) % 4] - p2[i]
            b = p2[(i - 1) % 4] - p2[i]
            return a[0] * b[1] - a[1] * b[0]

        if any(turn(i) <= 0 for i in range(4)):
            continue  # not convex with this winding
        ang = []
        for i in range(4):
            a = p2[(i - 1) % 4] - p2[i]
            b = p2[(i + 1) % 4] - p2[i]
            ang.append(np.degrees(np.arccos(
                np.clip(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)), -1, 1))))
        q = random_rotation(rng)
        p3 = np.concatenate([p2, np.zeros((4, 1))], axis=1) @ q.T + rng.uniform(-5, 5, 3)
        quads.append(p3)
        oracles.append(ang)
    return np.asarray(quads), np.asarray(oracles)


def test_angles_match_planar_oracle():
    rng = np.random.default_rng(81)
    quads, oracle = _random_planar_quads(rng, 40)
    got = element_metrics(quads)["angles"]
    assert np.allclose(got, oracle, rtol=0.0, atol=1e-9)


def test_skew_derives_from_angles():
    rng = np.random.default_rng(82)
    quads, _ = _random_planar_quads(rng, 30)
    m = element_metrics(quads)
    ang = m["angles"]
    expect = np.maximum((ang.max(axis=1) - 90.0) / 90.0, (90.0 - ang.min(axis=1)) / 90.0)
    assert np.allclose(m["equiangle_skew"], expect, rtol=0.0, atol=1e-12)
    assert np.array_equal(m["min_angle"], ang.min(axis=1))
    assert np.array_equal(m["max_angle"], ang.max(axis=1))
    # Zero skew happens exactly when all angles are 90 degrees.
    sq = _one(UNIT_SQUARE)["equiangle_skew"]
    assert sq == 0.0


def test_scaled_jacobian_is_worst_corner_sine():
    # For planar convex quads the corner Jacobian equals sin(corner angle):
    # the minimum is the sine of whichever angle sits farthest from 90
    # degrees, and sin(min angle) is always an upper bound.
    rng = np.random.default_rng(83)
    quads, _ = _random_planar_quads(rng, 30)
    m = element_metrics(quads)
    ang = np.radians(m["angles"])
    sj = m["scaled_jacobian"]
    assert np.all(sj <= np.sin(ang.min(axis=1)) + 1e-12)
    assert np.allclose(sj, np.sin(ang).min(axis=1), atol=1e-9)


def test_metrics_rigid_and_scale_invariant():
    rng = np.random.default_rng(84)
    quads, _ = _random_planar_quads(rng, 20)
    base = element_metrics(quads)
    q = random_rotation(rng)
    t = rng.uniform(-20, 20, 3)
    for scale in (1.0, 7.5):
        moved = element_metrics(quads * scale @ q.T + t)
        assert np.allclose(moved["angles"], base["angles"], atol=1e-9)
        assert np.allclose(moved["equiangle_skew"], base["equiangle_skew"], atol=1e-10)
        assert np.allclose(moved["aspect_ratio"], base["aspect_ratio"], atol=1e-9)
        assert np.allclose(moved["scaled_jacobian"], base["scaled_jacobian"], atol=1e-10)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-100, 1e-200, 1e-300])
def test_tiny_tube_is_measured(scale):
    # The squared lengths of these elements underflow, so unscaled they would
    # all read as degenerate; an exact power-of-two scale measures them.
    tube = straight_cylinder(circumferential=12, axial=20)
    base = quality_report(tube)
    tiny = quality_report(tube.with_vertices(tube.vertices * scale))
    assert tiny["n_degenerate"] == 0
    for name in METRICS:
        assert tiny[name]["mean"] == pytest.approx(base[name]["mean"], rel=1e-12, abs=0), name


# ---------------------------------------------------------------------------
# Self-intersections
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_clean_tube_has_no_intersections(tube24):
    assert self_intersections(tube24) == (0, [])
    # A one-face mesh has no face pair at all: its empty arrays pass through
    # the broad and narrow phases without a warning.
    for method in ("bvh", "brute"):
        assert self_intersections(_quad_soup([UNIT_SQUARE]), method=method) == (0, []), method


def test_crossing_quads_detected_both_methods():
    a = UNIT_SQUARE * 2.0 - 1.0  # z = 0 plane, spans [-1, 1]^2
    b = np.array([[0.0, -0.5, -1.0], [0.0, 0.5, -1.0], [0.0, 0.5, 1.0], [0.0, -0.5, 1.0]])
    mesh = _quad_soup([a, b])
    for method in ("bvh", "brute"):
        count, pairs = self_intersections(mesh, method=method)
        assert count == 1
        assert pairs == [(0, 1)]


def test_coplanar_overlapping_quads_detected():
    mesh = _quad_soup([UNIT_SQUARE, UNIT_SQUARE + np.array([0.5, 0.5, 0.0])])
    count, pairs = self_intersections(mesh, method="brute")
    assert count == 1 and pairs == [(0, 1)]


def test_shared_vertices_are_not_intersections():
    # Sharply folded but edge-adjacent quads are adjacency, not crossing.
    v = np.array([
        [0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0.9, 0.1, 0.05], [0.1, 0.9, 0.05],
    ])
    faces = np.array([[0, 1, 2, 3], [1, 4, 5, 3]])
    mesh = QuadMesh(v, faces, np.zeros(6, dtype=np.int8))
    count, pairs = self_intersections(mesh, method="brute")
    assert count == 0 and pairs == []


def _pierced_tube():
    mesh = make_phantom(PhantomSpec(circumferential=10, axial=24))
    v = mesh.vertices.copy()
    ring = rings(mesh)[12]
    center = v[ring].mean(axis=0)
    vid = int(ring[0])
    v[vid] = center + (center - v[vid]) * 1.4  # push through the far wall
    return mesh.with_vertices(v)


def test_pierced_tube_bvh_matches_brute():
    bad = _pierced_tube()
    nb, pb = self_intersections(bad, method="bvh")
    nr, pr = self_intersections(bad, method="brute")
    assert nb == nr > 0
    assert sorted(pb) == sorted(pr)


@pytest.mark.parametrize("scale", [1e-100, 1e-200, 1e-300])
def test_tiny_pierced_tube_has_the_same_crossings(scale):
    # Below about 1e-77 mm the squared norms of a triangle pair underflow;
    # each pair is tested at the exact power-of-two scale of ``unit_scale``.
    bad = _pierced_tube()
    n, pairs = self_intersections(bad)
    assert n > 0
    tiny = bad.with_vertices(bad.vertices * scale)
    for method in ("bvh", "brute"):
        assert self_intersections(tiny, method=method) == (n, pairs), method


def test_random_soups_bvh_matches_brute():
    rng = np.random.default_rng(85)
    for _ in range(6):
        m = int(rng.integers(20, 50))
        centers = rng.uniform(-4, 4, (m, 3))
        e1 = rng.uniform(-2, 2, (m, 3))
        e2 = rng.uniform(-2, 2, (m, 3))
        quads = np.stack([centers, centers + e1, centers + e1 + e2, centers + e2], axis=1)
        mesh = _quad_soup(quads)
        assert mesh.n_faces <= 500
        nb, pb = self_intersections(mesh, method="bvh")
        nr, pr = self_intersections(mesh, method="brute")
        assert nb == nr
        assert sorted(pb) == sorted(pr)


def test_far_pulled_vertex_bvh_matches_brute():
    # One vertex dragged 200 mm through the far wall: its faces' boxes dwarf
    # every other box, and their long triangles pierce the opposite wall.
    mesh = straight_cylinder(circumferential=12, axial=20, length=40.0)
    assert mesh.n_faces <= 500
    v = mesh.vertices.copy()
    ring = rings(mesh)[10]
    center = v[ring].mean(axis=0)
    vid = int(ring[0])
    v[vid] = center + (center - v[vid]) / np.linalg.norm(center - v[vid]) * 200.0
    bad = mesh.with_vertices(v)
    nb, pb = self_intersections(bad, method="bvh")
    nr, pr = self_intersections(bad, method="brute")
    assert nb == nr > 0
    assert sorted(pb) == sorted(pr)


@pytest.mark.parametrize("line", [
    LINE + [0.0, 0.0, 50.0],  # 50 mm away: the boxes miss
    np.array([[0.5, 0.1, 0.0], [0.6, 0.2, 0.0], [0.7, 0.3, 0.0], [0.8, 0.4, 0.0]]),  # in the plane, boxes overlap
], ids=["far", "in_plane"])
def test_zero_area_triangles_never_intersect(line):
    # COLLAPSED's v0-v1-v2 triangle and both of the line quad's triangles have
    # zero area, so no plane: a pair of them is no crossing, wherever it lies.
    mesh = _quad_soup([COLLAPSED, line])
    assert self_intersections(mesh, method="brute") == (0, [])
    assert self_intersections(mesh, method="bvh") == (0, [])


class _CountingTree(cKDTree):
    """k-d tree that tallies the candidate pairs its queries return."""

    found = 0

    def sparse_distance_matrix(self, *args, **kwargs):
        out = super().sparse_distance_matrix(*args, **kwargs)
        _CountingTree.found += len(out)
        return out

    def query_pairs(self, *args, **kwargs):
        out = super().query_pairs(*args, **kwargs)
        _CountingTree.found += len(out)
        return out


@pytest.mark.parametrize("spike_mm", [3.0, 60.0])
def test_spiked_phantom_broad_phase_stays_local(default_phantom, monkeypatch, spike_mm):
    # One vertex moved off the wall may only add the pairs of its own
    # triangles, and must not widen every box's search: one search radius
    # sized by the largest box gives about 5x the candidates at 3 mm and
    # runs out of memory at 60 mm.
    monkeypatch.setattr(quality, "cKDTree", _CountingTree)
    mesh, _ = default_phantom
    tris = _mesh_triangles(mesh)
    v = mesh.vertices.copy()
    vid = int(rings(mesh)[160][0])
    v[vid, 0] += spike_mm

    _CountingTree.found = 0
    clean = _box_overlap_pairs(mesh.vertices[tris])
    clean_candidates = _CountingTree.found
    _CountingTree.found = 0
    pairs = _box_overlap_pairs(v[tris])
    assert _CountingTree.found < 2 * clean_candidates
    assert len(clean) < len(pairs) < 2 * len(clean)
    moved = np.flatnonzero((tris == vid).any(axis=1))

    def away(p):
        return {tuple(x) for x in p[~np.isin(p, moved).any(axis=1)]}

    assert away(pairs) == away(clean)


def _triangle_level_candidates(mesh):
    """The broad phase on triangles that the face-level one replaced: the
    overlapping triangle boxes, less pairs within a face or sharing a vertex."""
    cand = _box_overlap_pairs(mesh.vertices[_mesh_triangles(mesh)])
    cand = cand[cand[:, 0] // 2 != cand[:, 1] // 2]
    fa, fb = mesh.faces[cand[:, 0] // 2], mesh.faces[cand[:, 1] // 2]
    return cand[~(fa[:, :, None] == fb[:, None, :]).any(axis=(1, 2))]


def _broad_phase_meshes(mesh):
    rng = np.random.default_rng(86)
    ring_of = rings(mesh)
    verts = mesh.vertices.copy()
    for first in (12, 150, 230):  # 8 x 8 vertex patches jittered by sigma 0.4 mm, clipped at 2 sigma
        for slot in (5, 44):
            idx = np.concatenate([ring_of[r][slot: slot + 8] for r in range(first, first + 8)])
            verts[idx] += np.clip(rng.normal(0.0, 0.4, (len(idx), 3)), -0.8, 0.8)
    yield "jittered", mesh.with_vertices(verts)
    spiked = mesh.vertices.copy()
    spiked[int(ring_of[160][0]), 0] += 20.0
    yield "spiked", mesh.with_vertices(spiked)
    for k in range(4):
        m = int(rng.integers(20, 200))
        centers = rng.uniform(-4, 4, (m, 3))
        e1 = rng.uniform(-2, 2, (m, 3))
        e2 = rng.uniform(-2, 2, (m, 3))
        yield f"soup{k}", _quad_soup(np.stack([centers, centers + e1, centers + e1 + e2, centers + e2], axis=1))


def test_face_broad_phase_equals_triangle_broad_phase(default_phantom):
    # A padded quad box holds both of its padded triangle boxes, so every
    # triangle-level candidate lies in a face pair that the face broad phase
    # keeps, and the search finds exactly the narrow phase's hits among the
    # triangle-level candidates: the triangle pairs of those face pairs whose
    # boxes miss add none.
    for name, mesh in _broad_phase_meshes(default_phantom[0]):
        ref = _triangle_level_candidates(mesh)
        kept = {tuple(p) for p in _box_overlap_pairs(mesh.vertices[mesh.faces])}
        assert {tuple(p) for p in ref // 2} <= kept, name
        pts = mesh.vertices[_mesh_triangles(mesh)]
        hit = quality._tri_pairs_intersect(pts[ref[:, 0]], pts[ref[:, 1]])
        expect = sorted({(int(a) // 2, int(b) // 2) for a, b in ref[hit]})
        assert self_intersections(mesh) == (len(expect), expect), name
        if name == "jittered":
            assert expect  # the narrow phase has hits to agree on


def test_unknown_method_rejected(tube24):
    with pytest.raises(ValueError):
        self_intersections(tube24, method="grid")


# ---------------------------------------------------------------------------
# quality_report
# ---------------------------------------------------------------------------

def test_report_on_translated_unit_squares():
    quads = [UNIT_SQUARE + np.array([0.0, 0.0, 3.0 * k]) for k in range(5)]
    rep = quality_report(_quad_soup(quads))
    assert rep["n_elements"] == 5 and rep["n_degenerate"] == 0
    assert rep["equiangle_skew"] == {"mean": 0.0, "std": 0.0}
    assert rep["aspect_ratio"] == {"mean": 1.0, "std": 0.0}
    assert rep["scaled_jacobian"] == {"mean": 1.0, "std": 0.0}
    assert rep["min_angle"] == {"mean": 90.0, "std": 0.0}
    assert rep["max_angle"] == {"mean": 90.0, "std": 0.0}
    assert rep["self_intersection_count"] == 0


def test_report_excludes_degenerate_elements():
    quads = [UNIT_SQUARE, COLLAPSED, UNIT_SQUARE + np.array([0.0, 0.0, 5.0]),
             LINE + np.array([0.0, 0.0, 15.0])]
    rep = quality_report(_quad_soup(quads))
    assert rep["n_elements"] == 4
    assert rep["n_degenerate"] == 2
    # Aggregates come from the two clean squares only.
    assert rep["equiangle_skew"] == {"mean": 0.0, "std": 0.0}
    assert np.isfinite(rep["aspect_ratio"]["mean"])


def test_report_on_smooth_tube_metrics(tube24):
    rep = quality_report(tube24)
    assert rep["n_degenerate"] == 0
    assert rep["equiangle_skew"]["mean"] < 0.1
    assert rep["scaled_jacobian"]["mean"] > 0.95
    assert 80.0 < rep["min_angle"]["mean"] <= 90.0
    assert 90.0 <= rep["max_angle"]["mean"] < 100.0


def _reference_metrics(q):
    """Per-element metrics of (m, 4, 3) quads computed the way the four separate
    metric functions did before element_metrics, each on its own pass."""
    prev = np.roll(q, 1, axis=1) - q
    nxt = np.roll(q, -1, axis=1) - q
    ang = np.degrees(np.arctan2(np.linalg.norm(np.cross(prev, nxt), axis=2), np.einsum("mkd,mkd->mk", prev, nxt)))
    skew = np.maximum((ang.max(axis=1) - 90.0) / 90.0, (90.0 - ang.min(axis=1)) / 90.0)

    lengths = np.linalg.norm(np.roll(q, -1, axis=1) - q, axis=2)
    area = 0.5 * (
        np.linalg.norm(np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0]), axis=1)
        + np.linalg.norm(np.cross(q[:, 2] - q[:, 0], q[:, 3] - q[:, 0]), axis=1)
    )
    with np.errstate(divide="ignore"):
        aspect = np.where(area > 0, lengths.max(axis=1) * lengths.sum(axis=1) / (4.0 * area), np.inf)

    normal = np.cross(q[:, 2] - q[:, 0], q[:, 3] - q[:, 1])
    normal = normal / np.linalg.norm(normal, axis=1, keepdims=True)
    nxt = np.roll(q, -1, axis=1) - q
    prev = np.roll(q, 1, axis=1) - q
    denom = np.linalg.norm(nxt, axis=2) * np.linalg.norm(prev, axis=2)
    jac = (np.einsum("mkd,md->mk", np.cross(nxt, prev), normal) / denom).min(axis=1)
    return {"equiangle_skew": skew, "aspect_ratio": aspect, "scaled_jacobian": jac,
            "min_angle": ang.min(axis=1), "max_angle": ang.max(axis=1)}


def _reference_report(mesh):
    quads = mesh.vertices[mesh.faces]
    lengths = np.linalg.norm(np.roll(quads, -1, axis=1) - quads, axis=2)
    diag_n = np.linalg.norm(np.cross(quads[:, 2] - quads[:, 0], quads[:, 3] - quads[:, 1]), axis=1)
    valid = np.all(lengths > 0, axis=1) & (diag_n > 0)
    ref = _reference_metrics(quads[valid])
    out = {"n_elements": len(mesh.faces), "n_degenerate": int((~valid).sum()),
           "self_intersection_count": self_intersections(mesh)[0]}
    for name, x in ref.items():
        out[name] = {"mean": None, "std": None} if x.size == 0 else {"mean": float(x.mean()), "std": float(x.std())}
    return out


def _report_meshes(mesh):
    yield "default", mesh
    rng = np.random.default_rng(87)
    yield "jittered", mesh.with_vertices(mesh.vertices + rng.normal(0.0, 0.3, mesh.vertices.shape))
    rhombus = np.array([[0.0, 0, 0], [1, 0, 0], [1.5, 0.8, 0], [0.5, 0.8, 0]])
    dart = np.array([[0.0, 0, 0], [2, 0, 0], [0.3, 0.3, 0], [0, 2, 0]])
    quads = [UNIT_SQUARE, COLLAPSED, rhombus, LINE, dart, UNIT_SQUARE * [2.0, 1.0, 1.0]]
    yield "degenerate_soup", _quad_soup([x + np.array([0.0, 0.0, 4.0 * k]) for k, x in enumerate(quads)])


def test_report_equals_separate_metric_arithmetic(default_phantom):
    # element_metrics shares its intermediate arrays, but each value keeps the
    # operations of the separate per-metric passes it replaced, so every
    # aggregate, and so every quality.json, is bitwise what they gave.
    for name, mesh in _report_meshes(default_phantom[0]):
        rep = quality_report(mesh)
        ref = _reference_report(mesh)
        for field in ("n_elements", "n_degenerate", "self_intersection_count", *METRICS):
            assert rep[field] == ref[field], (name, field)
        if name == "degenerate_soup":
            assert rep["n_degenerate"] == 2 and rep["scaled_jacobian"]["mean"] < 1.0
