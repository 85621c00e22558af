"""Quad element quality metrics and mesh self-intersection detection.

Metrics follow the standard verification definitions, computed directly in 3D
(no planarization of warped elements):

* angles: at corner k, the angle between edges to the neighboring corners;
* equiangle skew: max((max_angle - 90) / 90, (90 - min_angle) / 90);
* aspect ratio: L_max * (sum of edge lengths) / (4 * area), area being the
  sum of the two triangles split along the v0-v2 diagonal; zero area gives
  an infinite sentinel;
* scaled Jacobian: min over corners of the normalized corner cross product
  against the element normal (normalized cross of the diagonals).

``element_metrics`` computes all of them, and the per-corner angles, in one
pass over (m, 4, 3) quads that shares the edge vectors, the corner cross
products and the element normal. It rejects a zero-length edge or collinear
diagonals; ``quality_report`` counts such elements as degenerate and leaves
them out of its means and standard deviations.

Self-intersection splits quads into triangles and runs an exact
segment-triangle narrow phase (with a coplanar overlap fallback) on candidate
triangle pairs. The broad phase works on faces: it finds the face pairs whose
padded axis-aligned bounding boxes overlap with a k-d tree over the box
centers, drops the pairs that share a vertex (adjacency is not an
intersection), and keeps those of each survivor's 4 triangle pairs whose
padded triangle boxes overlap. A padded quad box contains both of its padded
triangle boxes, so this yields exactly the triangle pairs a triangle-level
search would, from half as many boxes and without the adjacent pairs that
make up most overlaps. The brute-force path takes every pair of faces and
shares the narrow phase, so the accelerated result matches it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = ["METRICS", "QualityReport", "element_metrics", "self_intersections", "quality_report"]

# The per-element metrics that QualityReport aggregates, in report order.
METRICS = ("equiangle_skew", "aspect_ratio", "scaled_jacobian", "min_angle", "max_angle")


def element_metrics(quads):
    """Corner angles and per-element metrics of (m, 4, 3) quads, from one pass.

    Returns a dict: ``"angles"`` holds the (m, 4) interior corner angles in
    degrees, and each name in ``METRICS`` an (m,) array. Edge vectors, their
    lengths, the corner cross products and the element normal are computed
    once and shared. Raises ValueError on a zero-length edge or collinear
    diagonals (no element normal).
    """
    q = np.asarray(quads, dtype=np.float64)
    if q.ndim != 3 or q.shape[1:] != (4, 3):
        raise ValueError(f"expected (m, 4, 3) quad vertices, got {q.shape}")
    nxt = np.roll(q, -1, axis=1) - q  # corner k to corner k + 1: the edges
    prev = np.roll(q, 1, axis=1) - q  # corner k to corner k - 1
    lengths = np.linalg.norm(nxt, axis=2)
    if np.any(lengths == 0):
        raise ValueError("quad has a zero-length edge")
    diag = q[:, 2] - q[:, 0]
    normal = np.cross(diag, q[:, 3] - q[:, 1])
    n_len = np.linalg.norm(normal, axis=1, keepdims=True)
    if np.any(n_len == 0):
        raise ValueError("element normal undefined (collinear diagonals)")

    # One corner cross product serves both: its length gives the corner angle,
    # and its projection on the unit normal over the two edge lengths the
    # corner's scaled Jacobian (1 for a square, sin(theta) at a planar corner
    # of angle theta, negative at an inverted, concave corner).
    corner = np.cross(nxt, prev)
    ang = np.degrees(np.arctan2(np.linalg.norm(corner, axis=2), np.einsum("mkd,mkd->mk", prev, nxt)))
    min_angle, max_angle = ang.min(axis=1), ang.max(axis=1)
    jac = np.einsum("mkd,md->mk", corner, normal / n_len) / (lengths * np.linalg.norm(prev, axis=2))
    area = 0.5 * (
        np.linalg.norm(np.cross(nxt[:, 0], diag), axis=1) + np.linalg.norm(np.cross(diag, prev[:, 0]), axis=1)
    )
    with np.errstate(divide="ignore"):
        aspect = np.where(area > 0, lengths.max(axis=1) * lengths.sum(axis=1) / (4.0 * area), np.inf)
    return {
        "angles": ang,
        "equiangle_skew": np.maximum((max_angle - 90.0) / 90.0, (90.0 - min_angle) / 90.0),
        "aspect_ratio": aspect,
        "scaled_jacobian": jac.min(axis=1),
        "min_angle": min_angle,
        "max_angle": max_angle,
    }


# ---------------------------------------------------------------------------
# Self-intersection
# ---------------------------------------------------------------------------


def _mesh_triangles(mesh):
    """Split quads along the v0-v2 diagonal; triangle t belongs to face t // 2."""
    f = mesh.faces
    tris = np.empty((2 * len(f), 3), dtype=np.int64)
    tris[0::2] = f[:, [0, 1, 2]]
    tris[1::2] = f[:, [0, 2, 3]]
    return tris


def _padded_boxes(points):
    """Lower and upper corners of the (m, k, 3) point sets' boxes, padded as below."""
    lo = points.min(axis=1)
    hi = points.max(axis=1)
    pad = 1e-9 * (hi - lo).max(axis=1, keepdims=True)
    return lo - pad, hi + pad


def _box_overlap_pairs(points):
    """Index pairs (i < j) of the (m, k, 3) point sets whose padded AABBs overlap.

    Each box is padded by 1e-9 of its largest extent, well above the narrow
    phase's 1e-10 relative tolerance, so no pair that test would count is
    lost to boxes a hair apart or to rounding in the centers and reaches.
    Overlapping boxes have centers within the larger box's reach (twice its
    largest half-extent) in the Chebyshev metric, so the larger box of each
    pair finds it. Boxes are grouped by the binary exponent of their reach,
    and each group gets a k-d tree of its centers: pairs inside a group come
    from one ``query_pairs`` out to the group's largest reach, and pairs
    across groups from the larger group's tree into each smaller group's tree
    out to the larger group's reach. Every pair is found once, and one huge
    box widens only its own group's search, never everyone's. An exact test
    of the padded boxes then drops the pairs that miss.
    """
    lo, hi = _padded_boxes(points)
    center = 0.5 * (lo + hi)
    reach = (hi - lo).max(axis=1)
    _, group = np.frexp(reach)
    groups = []  # (ids, tree, largest reach), smallest reach first
    for g in np.unique(group):
        ids = np.flatnonzero(group == g)
        groups.append((ids, cKDTree(center[ids]), reach[ids].max()))
    found = [np.empty((0, 2), dtype=np.int64)]
    for k, (ids, tree, r) in enumerate(groups):
        near = tree.query_pairs(r, p=np.inf, output_type="ndarray")
        found.append(ids[near])
        for small_ids, small_tree, _ in groups[:k]:
            near = tree.sparse_distance_matrix(small_tree, r, p=np.inf, output_type="ndarray")
            found.append(np.stack([ids[near["i"]], small_ids[near["j"]]], axis=1))
    i, j = np.concatenate(found).T
    hit = np.all((lo[i] <= hi[j]) & (lo[j] <= hi[i]), axis=1)
    return np.sort(np.stack([i[hit], j[hit]], axis=1), axis=1)


def _segments_hit_triangle(seg_a, seg_b, t0, t1, t2, scale):
    """Vectorized segment vs triangle test (positive-measure crossings)."""
    e1 = t1 - t0
    e2 = t2 - t0
    d = seg_b - seg_a
    h = np.cross(d, e2)
    det = np.einsum("kd,kd->k", e1, h)
    eps_det = 1e-13 * scale**3
    ok = np.abs(det) > eps_det
    inv = np.where(ok, det, 1.0)
    s = seg_a - t0
    u = np.einsum("kd,kd->k", s, h) / inv
    q = np.cross(s, e1)
    v = np.einsum("kd,kd->k", d, q) / inv
    t = np.einsum("kd,kd->k", e2, q) / inv
    tol = 1e-10
    return ok & (u >= -tol) & (v >= -tol) & (u + v <= 1.0 + tol) & (t >= -tol) & (t <= 1.0 + tol)


def _coplanar_overlap(A, B, normal, scale):
    """2D separating-axis test for coplanar triangles; touching does not count."""
    k = len(A)
    if k == 0:
        return np.zeros(0, dtype=bool)
    # In-plane orthonormal basis per pair (the normals are nonzero).
    n = normal / np.linalg.norm(normal, axis=1, keepdims=True)
    ref = np.where(np.abs(n[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    u = np.cross(n, ref)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(n, u)
    a2 = np.stack([np.einsum("kpd,kd->kp", A, u), np.einsum("kpd,kd->kp", A, v)], axis=-1)
    b2 = np.stack([np.einsum("kpd,kd->kp", B, u), np.einsum("kpd,kd->kp", B, v)], axis=-1)

    tol = 1e-10 * scale
    overlapping = np.ones(k, dtype=bool)
    for tri in (a2, b2):
        for e in range(3):
            edge = tri[:, (e + 1) % 3] - tri[:, e]
            axis = np.stack([-edge[:, 1], edge[:, 0]], axis=1)
            pa = np.einsum("kpd,kd->kp", a2, axis)
            pb = np.einsum("kpd,kd->kp", b2, axis)
            sep = (pa.max(axis=1) <= pb.min(axis=1) + tol[:, 0]) | (
                pb.max(axis=1) <= pa.min(axis=1) + tol[:, 0]
            )
            overlapping &= ~sep
    return overlapping


def _tri_pairs_intersect(A, B):
    """Exact intersection test for triangle pairs A, B of shape (k, 3, 3)."""
    k = len(A)
    if k == 0:
        return np.zeros(0, dtype=bool)
    edges = np.concatenate(
        [
            np.linalg.norm(A - np.roll(A, -1, axis=1), axis=2),
            np.linalg.norm(B - np.roll(B, -1, axis=1), axis=2),
        ],
        axis=1,
    )
    scale = edges.max(axis=1)
    scale = np.where(scale > 0, scale, 1.0)

    nA = np.cross(A[:, 1] - A[:, 0], A[:, 2] - A[:, 0])
    nB = np.cross(B[:, 1] - B[:, 0], B[:, 2] - B[:, 0])
    dB = np.einsum("kpd,kd->kp", B - A[:, :1], nA)
    dA = np.einsum("kpd,kd->kp", A - B[:, :1], nB)
    len_a = np.linalg.norm(nA, axis=1)
    len_b = np.linalg.norm(nB, axis=1)
    eps_a = 1e-12 * len_a * scale
    eps_b = 1e-12 * len_b * scale
    # A zero-area triangle has no plane to cross: it never intersects.
    sep = (
        (len_a == 0)
        | (len_b == 0)
        | np.all(dB > eps_a[:, None], axis=1)
        | np.all(dB < -eps_a[:, None], axis=1)
        | np.all(dA > eps_b[:, None], axis=1)
        | np.all(dA < -eps_b[:, None], axis=1)
    )
    coplanar = np.all(np.abs(dB) <= eps_a[:, None], axis=1) & np.all(np.abs(dA) <= eps_b[:, None], axis=1)

    result = np.zeros(k, dtype=bool)
    general = ~sep & ~coplanar
    if general.any():
        ga, gb, gs = A[general], B[general], scale[general]
        hit = np.zeros(int(general.sum()), dtype=bool)
        for tri_from, tri_to in ((ga, gb), (gb, ga)):
            for e in range(3):
                hit |= _segments_hit_triangle(
                    tri_from[:, e], tri_from[:, (e + 1) % 3], tri_to[:, 0], tri_to[:, 1], tri_to[:, 2], gs
                )
        result[general] = hit
    flat = ~sep & coplanar
    if flat.any():
        result[flat] = _coplanar_overlap(A[flat], B[flat], nA[flat], scale[flat, None])
    return result


def _candidate_pairs(mesh, pts, method):
    """Triangle pairs (i < j) of different faces that share no vertex, for the narrow phase.

    ``pts`` holds the corners of ``_mesh_triangles(mesh)``. ``"bvh"`` keeps
    the pairs whose padded boxes overlap, ``"brute"`` every pair.
    """
    if method == "bvh":
        faces = _box_overlap_pairs(mesh.vertices[mesh.faces])
    elif method == "brute":
        faces = np.stack(np.triu_indices(mesh.n_faces, k=1), axis=1)
    else:
        raise ValueError(f"unknown method {method!r}")
    fa = mesh.faces[faces[:, 0]]
    fb = mesh.faces[faces[:, 1]]
    faces = faces[~(fa[:, :, None] == fb[:, None, :]).any(axis=(1, 2))]
    # Face a's triangles are 2a and 2a + 1, so a < b keeps i < j.
    i = (2 * faces[:, :1] + [0, 0, 1, 1]).ravel()
    j = (2 * faces[:, 1:] + [0, 1, 0, 1]).ravel()
    if method == "bvh":
        lo, hi = _padded_boxes(pts)
        hit = np.all((lo[i] <= hi[j]) & (lo[j] <= hi[i]), axis=1)
        i, j = i[hit], j[hit]
    return np.stack([i, j], axis=1)


def self_intersections(mesh, method="bvh"):
    """Count and list face pairs whose surfaces cross.

    Quads are split into triangles; face pairs sharing any vertex are skipped
    (adjacency is not an intersection). ``method="brute"`` tests every pair,
    ``"bvh"`` tests only the triangle pairs whose bounding boxes overlap,
    found from the faces' boxes with a k-d tree over the box centers; both
    share the exact narrow phase and return identical results.
    """
    pts = mesh.vertices[_mesh_triangles(mesh)]
    cand = _candidate_pairs(mesh, pts, method)
    if len(cand) == 0:
        return 0, []
    hit = _tri_pairs_intersect(pts[cand[:, 0]], pts[cand[:, 1]])
    if not hit.any():
        return 0, []
    face_pairs = np.unique(cand[hit] // 2, axis=0)
    pairs = [(int(a), int(b)) for a, b in face_pairs]
    return len(pairs), pairs


@dataclass(frozen=True)
class QualityReport:
    """Mean and population std per metric (None when every element is
    degenerate), plus the intersection count."""

    n_elements: int
    n_degenerate: int
    equiangle_skew: tuple
    aspect_ratio: tuple
    scaled_jacobian: tuple
    min_angle: tuple
    max_angle: tuple
    self_intersection_count: int

    def as_dict(self):
        d = {
            "n_elements": self.n_elements,
            "n_degenerate": self.n_degenerate,
            "self_intersection_count": self.self_intersection_count,
        }
        for name in METRICS:
            mean, std = getattr(self, name)
            d[name] = {"mean": mean, "std": std}
        return d


def _mean_std(x):
    if x.size == 0:
        return (None, None)  # no element to average: null in JSON, not NaN
    return (float(x.mean()), float(x.std()))


def quality_report(mesh):
    """Aggregate element metrics over a mesh.

    Elements with a zero-length edge or undefined normal are excluded from the
    aggregates and counted in ``n_degenerate``.
    """
    quads = mesh.vertices[mesh.faces]
    lengths = np.linalg.norm(np.roll(quads, -1, axis=1) - quads, axis=2)
    diag_n = np.linalg.norm(np.cross(quads[:, 2] - quads[:, 0], quads[:, 3] - quads[:, 1]), axis=1)
    valid = np.all(lengths > 0, axis=1) & (diag_n > 0)
    metrics = element_metrics(quads[valid])
    return QualityReport(
        n_elements=len(mesh.faces),
        n_degenerate=int((~valid).sum()),
        **{name: _mean_std(metrics[name]) for name in METRICS},
        self_intersection_count=self_intersections(mesh)[0],
    )
