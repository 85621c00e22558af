"""Quad element quality metrics and mesh self-intersection detection.

Metrics follow the standard verification definitions, computed directly in 3D
(no planarization of warped elements):

* angles: at corner k, the angle between edges to the neighboring corners;
* equiangle skew: max((max_angle - 90) / 90, (90 - min_angle) / 90);
* aspect ratio: L_max * (sum of edge lengths) / (4 * area), area being the
  sum of the quad's two triangles, ``quadmesh.TRIANGLES``; zero area gives
  an infinite sentinel;
* scaled Jacobian: min over corners of the normalized corner cross product
  against the element normal (normalized cross of the diagonals).

``element_metrics`` computes all of them, and the per-corner angles, in one
pass over (m, 4, 3) quads that shares the edge vectors, the corner cross
products and the element normal. Its ``valid`` mask marks the elements with
no zero-length edge, non-collinear diagonals and a nonzero area;
``quality_report`` counts the others as degenerate and leaves them out of its
means and standard deviations.

Self-intersection splits quads into the same triangles and runs an exact
segment-triangle narrow phase (with a coplanar overlap fallback) on triangle
pairs of different faces. The broad phase works on faces: it finds the face
pairs whose padded axis-aligned bounding boxes overlap with a k-d tree over
the box centers and drops the pairs that share a vertex (adjacency is not an
intersection, and such pairs make up most overlaps); all 4 triangle pairs of
each survivor go to the narrow phase, which decides them whether or not
their own boxes overlap. The brute-force path takes every pair of faces and
shares the narrow phase, so the accelerated result matches it exactly.

Squared lengths underflow below about 1e-77 mm. Each element, and each
triangle pair of the narrow phase, is therefore measured as
``quadmesh.unit_scale`` moves it: an exact power-of-two scale that a group
below 2^-64 mm takes and every other group is spared.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .quadmesh import TRIANGLES, triangle_normals, unit_scale

__all__ = ["METRICS", "element_metrics", "self_intersections", "quality_report"]

# The per-element metrics that quality_report aggregates, in report order.
METRICS = ("equiangle_skew", "aspect_ratio", "scaled_jacobian", "min_angle", "max_angle")


@np.errstate(all="ignore")
def element_metrics(quads):
    """Corner angles and per-element metrics of (m, 4, 3) quads, from one pass.

    Returns a dict: ``"angles"`` holds the (m, 4) interior corner angles in
    degrees, each name in ``METRICS`` an (m,) array, and ``"valid"`` the (m,)
    mask of elements with no zero-length edge, non-collinear diagonals (an
    element normal) and a nonzero area, which rounding can lose when the
    normal is kept; the metrics of the others are meaningless. Edge vectors,
    their lengths, the corner cross products and the element normal are
    computed once and shared. An element below 2^-64 mm is measured as
    ``unit_scale`` moves it, which keeps the ratios that the metrics are.
    Raises FloatingPointError naming the first element whose edge length,
    corner cross product, normal or area overflows: its metrics would be
    NaN, or it would be taken for degenerate.
    """
    q = np.asarray(quads, dtype=np.float64)
    if q.ndim != 3 or q.shape[1:] != (4, 3):
        raise ValueError(f"expected (m, 4, 3) quad vertices, got {q.shape}")
    q, _ = unit_scale(q)
    nxt = np.roll(q, -1, axis=1) - q  # corner k to corner k + 1: the edges
    prev = np.roll(q, 1, axis=1) - q  # corner k to corner k - 1
    lengths = np.linalg.norm(nxt, axis=2)
    normal = np.cross(q[:, 2] - q[:, 0], q[:, 3] - q[:, 1])
    n_len = np.linalg.norm(normal, axis=1, keepdims=True)

    # One corner cross product serves both: its length gives the corner angle,
    # and its projection on the unit normal over the two edge lengths the
    # corner's scaled Jacobian (1 for a square, sin(theta) at a planar corner
    # of angle theta, negative at an inverted, concave corner).
    corner = np.cross(nxt, prev)
    c_len = np.linalg.norm(corner, axis=2)
    area = 0.5 * np.linalg.norm(triangle_normals(q), axis=2).sum(axis=1)
    finite = np.isfinite(np.concatenate([lengths, c_len, n_len, area[:, None]], axis=1)).all(axis=1)
    if not finite.all():
        raise FloatingPointError(f"element {np.argmin(finite)} overflows: its edge lengths, corner cross products, "
                                 "normal or area are not finite")
    ang = np.degrees(np.arctan2(c_len, np.einsum("mkd,mkd->mk", prev, nxt)))
    min_angle, max_angle = ang.min(axis=1), ang.max(axis=1)
    jac = np.einsum("mkd,md->mk", corner, normal / n_len) / (lengths * np.linalg.norm(prev, axis=2))
    aspect = np.where(area > 0, lengths.max(axis=1) * lengths.sum(axis=1) / (4.0 * area), np.inf)
    return {
        "angles": ang,
        "equiangle_skew": np.maximum((max_angle - 90.0) / 90.0, (90.0 - min_angle) / 90.0),
        "aspect_ratio": aspect,
        "scaled_jacobian": jac.min(axis=1),
        "min_angle": min_angle,
        "max_angle": max_angle,
        "valid": np.all(lengths > 0, axis=1) & (n_len[:, 0] > 0) & (area > 0),
    }


# ---------------------------------------------------------------------------
# Self-intersection
# ---------------------------------------------------------------------------


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
    lo, hi = points.min(axis=1), points.max(axis=1)
    pad = 1e-9 * (hi - lo).max(axis=1, keepdims=True)
    lo, hi = lo - pad, hi + pad
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
    # In-plane orthonormal basis per pair (the normals are nonzero).
    n = normal / np.linalg.norm(normal, axis=1, keepdims=True)
    ref = np.where(np.abs(n[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    u = np.cross(n, ref)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(n, u)
    a2 = np.stack([np.einsum("kpd,kd->kp", A, u), np.einsum("kpd,kd->kp", A, v)], axis=-1)
    b2 = np.stack([np.einsum("kpd,kd->kp", B, u), np.einsum("kpd,kd->kp", B, v)], axis=-1)

    tol = 1e-10 * scale
    overlapping = np.ones(len(A), dtype=bool)
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

    result = np.zeros(len(A), dtype=bool)
    general = ~sep & ~coplanar
    ga, gb, gs = A[general], B[general], scale[general]
    hit = np.zeros(len(ga), dtype=bool)
    for tri_from, tri_to in ((ga, gb), (gb, ga)):
        for e in range(3):
            hit |= _segments_hit_triangle(
                tri_from[:, e], tri_from[:, (e + 1) % 3], tri_to[:, 0], tri_to[:, 1], tri_to[:, 2], gs
            )
    result[general] = hit
    flat = ~sep & coplanar
    result[flat] = _coplanar_overlap(A[flat], B[flat], nA[flat], scale[flat, None])
    return result


def self_intersections(mesh, method="bvh"):
    """Count and list face pairs whose surfaces cross.

    ``method="bvh"`` takes the face pairs whose padded bounding boxes
    overlap, found with a k-d tree over the box centers, ``"brute"`` every
    pair. Pairs sharing any vertex are skipped (adjacency is not an
    intersection); the 4 triangle pairs of each other pair go to the exact
    narrow phase, so both methods return identical results.
    """
    if method == "bvh":
        faces = _box_overlap_pairs(mesh.vertices[mesh.faces])
    elif method == "brute":
        faces = np.stack(np.triu_indices(mesh.n_faces, k=1), axis=1)
    else:
        raise ValueError(f"unknown method {method!r}")
    fa, fb = mesh.faces[faces[:, 0]], mesh.faces[faces[:, 1]]
    faces = faces[~(fa[:, :, None] == fb[:, None, :]).any(axis=(1, 2))]
    pts = mesh.vertices[mesh.faces[:, TRIANGLES]].reshape(-1, 3, 3)  # triangle 2 e + s: split s of face e
    i = (2 * faces[:, :1] + [0, 0, 1, 1]).ravel()
    j = (2 * faces[:, 1:] + [0, 1, 0, 1]).ravel()
    six, _ = unit_scale(pts[np.stack([i, j], axis=1)].reshape(-1, 6, 3))  # a tiny pair's norms would underflow
    hit = _tri_pairs_intersect(six[:, :3], six[:, 3:]).reshape(-1, 4).any(axis=1)
    pairs = [(int(a), int(b)) for a, b in np.unique(faces[hit], axis=0)]
    return len(pairs), pairs


@np.errstate(all="ignore")
def _mean_std(name, x):
    """Mean and population std of metric ``name``'s values ``x``; FloatingPointError when either overflows."""
    if x.size == 0:
        return {"mean": None, "std": None}  # no element to average: null in JSON, not NaN
    mean, std = float(x.mean()), float(x.std())
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise FloatingPointError(f"the mean or standard deviation of {name} overflows")
    return {"mean": mean, "std": std}


def quality_report(mesh):
    """The quality JSON of a mesh, without provenance: ``n_elements``, the
    ``n_degenerate`` elements that ``element_metrics`` marks invalid, the mean
    and population std of each of ``METRICS`` over the other elements (nulls
    when there is none), and the ``self_intersection_count``. Raises
    FloatingPointError, before the search, when a metric or its mean or std
    overflows.
    """
    metrics = element_metrics(mesh.vertices[mesh.faces])
    valid = metrics["valid"]
    stats = {name: _mean_std(name, metrics[name][valid]) for name in METRICS}
    return {
        "n_elements": len(mesh.faces),
        "n_degenerate": int((~valid).sum()),
        "self_intersection_count": self_intersections(mesh)[0],
        **stats,
    }
