"""Mesh fitting losses and the chamfer evaluation metric.

The geometric term is a region-weighted MSE over corresponding vertices:
L_r = mean over region-r vertices of ||v_pred - v_gt||^2, combined as
sum_r omega_r L_r with the omegas normalized to 1. The smoothness term walks
the two structured directions of the ring layout (circumferential loops are
closed, axial chains are open) and penalizes each consecutive edge pair by
1 - cos(theta): straight chains score 0, a right angle 1, a reversal 2.

Gradients of the total loss with respect to vertex positions are analytic.
The loss and its gradient each take every structured edge and its norm from
one pass (a loop's outgoing edges are its incoming ones, rolled by a slot).
Chamfer distance is the half-averaged symmetric nearest-neighbor distance;
the k-d tree accelerated path returns exactly the brute-force value because
distances are recomputed from the matched indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .quadmesh import REGIONS

__all__ = [
    "LossWeights",
    "smoothness",
    "total_loss",
    "loss_grad",
    "vertex_weights",
    "chamfer",
]


@dataclass(frozen=True)
class LossWeights:
    """Per-region weights (normalized to sum 1) and smoothness weight alpha."""

    omega: tuple = (0.25, 0.25, 0.25, 0.25)
    alpha: float = 0.01

    def __post_init__(self):
        om = np.asarray(self.omega, dtype=np.float64)
        if om.shape != (len(REGIONS),):
            raise ValueError(f"omega needs {len(REGIONS)} entries, got {om.shape}")
        if np.any(om < 0):
            raise ValueError("region weights must be nonnegative")
        with np.errstate(over="ignore"):  # an overflowing sum fails the check below
            total = om.sum()
        if not 0 < total < np.inf:
            raise ValueError("region weights must not all be zero, and their sum must be finite")
        object.__setattr__(self, "omega", tuple(om / total))
        if not self.alpha >= 0:  # NaN fails too
            raise ValueError("alpha must be nonnegative")
        object.__setattr__(self, "alpha", float(self.alpha))


def _check_correspondence(pred, gt):
    """Vertex count of each region, once the meshes are known to correspond."""
    if pred.vertices.shape != gt.vertices.shape:
        raise ValueError("meshes must have identical vertex counts")
    if not np.array_equal(pred.faces, gt.faces):
        raise ValueError("meshes must share connectivity")
    if not np.array_equal(pred.regions, gt.regions):
        raise ValueError("meshes must share region labels")
    counts = np.bincount(pred.regions.astype(np.intp), minlength=len(REGIONS))
    if np.any(counts == 0):
        raise ValueError(f"region {REGIONS[int(np.argmin(counts))]!r} has no vertices")
    return counts


def _norm(e):
    """``np.linalg.norm(e, axis=-1)`` of (..., 3) vectors, bitwise: the same sum in the same
    order, taken elementwise, which is faster than a reduction over a length-3 axis."""
    return np.sqrt(e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1] + e[..., 2] * e[..., 2])


def _edge_pairs(mesh):
    """Edge pairs of both structured directions, from one pass over the edges.

    Circumferential (a, c) then axial (a - 2, c) pairs, each as (e1, e2, n1,
    n2, valid, denom, cos): e1 runs into a vertex, e2 out of it, n1 and n2 are
    their norms, ``valid`` masks pairs touching a zero-length edge, ``denom``
    is n1 * n2 (1 where masked) and ``cos`` the cosine of their angle.
    """
    if mesh.ring_layout is None:
        raise ValueError("smoothness needs a structured mesh (ring_layout)")
    c, a = mesh.ring_layout
    v = mesh.vertices.reshape(a, c, 3)
    circ = v - np.roll(v, 1, axis=1)
    circ_n = _norm(circ)
    ax = v[1:] - v[:-1]
    ax_n = _norm(ax)
    pairs = []
    for e1, e2, n1, n2 in (
        (circ, np.roll(circ, -1, axis=1), circ_n, np.roll(circ_n, -1, axis=1)),
        (ax[:-1], ax[1:], ax_n[:-1], ax_n[1:]),
    ):
        valid = (n1 > 0) & (n2 > 0)
        denom = np.where(valid, n1 * n2, 1.0)
        cos = np.einsum("...i,...i->...", e1, e2) / denom
        pairs.append((e1, e2, n1, n2, valid, denom, cos))
    if not (pairs[0][4].any() or pairs[1][4].any()):
        raise ValueError("all edge pairs degenerate; smoothness undefined")
    return pairs


def smoothness(mesh, return_skipped=False):
    """Mean 1 - cos(theta) over consecutive structured-direction edge pairs.

    Needs a ring layout. Circumferential loops wrap around; axial chains only
    count interior vertices. Pairs touching a zero-length edge are skipped and
    tallied.
    """
    (*_, vc, _, cc), (*_, va, _, ca) = _edge_pairs(mesh)
    pc = np.where(vc, 1.0 - cc, 0.0)
    pa = np.where(va, 1.0 - ca, 0.0)
    counted = int(vc.sum() + va.sum())
    skipped = pc.size + pa.size - counted
    value = float((pc.sum() + pa.sum()) / counted)
    return (value, skipped) if return_skipped else value


def total_loss(pred, gt, weights):
    """The loss as a fit summary records it: ``region_mse`` by region name, their
    ``weighted_geo`` sum, ``smoothness``, ``alpha``, ``total`` = weighted_geo +
    alpha * smoothness, and the ``skipped_pairs`` that smoothness left out."""
    _check_correspondence(pred, gt)
    diff = pred.vertices - gt.vertices
    sq = np.einsum("ij,ij->i", diff, diff)
    per_region = [float(np.mean(sq[pred.regions == code])) for code in range(len(REGIONS))]
    geo = float(sum(w * l for w, l in zip(weights.omega, per_region)))
    if weights.alpha > 0:
        smooth, skipped = smoothness(pred, return_skipped=True)
    else:
        smooth, skipped = 0.0, 0
    return {
        "region_mse": dict(zip(REGIONS, per_region)),
        "weighted_geo": geo,
        "smoothness": smooth,
        "alpha": weights.alpha,
        "total": geo + weights.alpha * smooth,
        "skipped_pairs": skipped,
    }


def _pair_grads(e1, e2, n1, n2, valid, denom, cos):
    """d(1 - cos)/d e1 and d e2 per edge pair; zero on masked pairs."""
    d1 = -(e2 / denom[..., None] - (cos / np.where(valid, n1 * n1, 1.0))[..., None] * e1)
    d2 = -(e1 / denom[..., None] - (cos / np.where(valid, n2 * n2, 1.0))[..., None] * e2)
    d1[~valid] = 0.0
    d2[~valid] = 0.0
    return d1, d2


def _smoothness_grad(mesh):
    """d(smoothness)/d(vertex), shape (n, 3)."""
    circ, axial = _edge_pairs(mesh)
    grad = np.zeros_like(circ[0])

    d1, d2 = _pair_grads(*circ)
    # e1 = v - prev, e2 = next - v; pair centered at slot c along axis 1.
    grad += d1 - d2
    grad += np.roll(-d1, -1, axis=1)
    grad += np.roll(d2, 1, axis=1)

    d1, d2 = _pair_grads(*axial)
    grad[1:-1] += d1 - d2
    grad[:-2] += -d1
    grad[2:] += d2

    return grad.reshape(-1, 3) / (int(circ[4].sum()) + int(axial[4].sum()))


def vertex_weights(pred, gt, weights):
    """(n,) weight omega_r / n_r of each vertex's squared distance in the geometric term."""
    counts = _check_correspondence(pred, gt)
    return (np.asarray(weights.omega) / counts)[pred.regions.astype(np.intp)]


def loss_grad(pred, gt, weights):
    """Analytic d(total_loss)/d(pred vertex positions), shape (n, 3)."""
    grad = np.zeros_like(pred.vertices)
    grad += 2.0 * vertex_weights(pred, gt, weights)[:, None] * (pred.vertices - gt.vertices)
    if weights.alpha > 0:
        grad += weights.alpha * _smoothness_grad(pred)
    return grad


def _vertex_array(obj):
    verts = getattr(obj, "vertices", obj)
    verts = np.asarray(verts, dtype=np.float64)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) == 0:
        raise ValueError("chamfer needs a non-empty (n, 3) vertex set")
    return verts


def chamfer(a, b):
    """Symmetric chamfer distance between two vertex sets (mm).

    0.5 * (mean nearest-neighbor distance a->b + mean b->a). Nearest indices
    come from a k-d tree; distances are recomputed so the result equals the
    brute-force double loop exactly. Raises FloatingPointError if a nearest
    distance overflows: the tree then returns no neighbour.
    """
    va, vb = _vertex_array(a), _vertex_array(b)
    da, ia = cKDTree(vb).query(va)
    db, ib = cKDTree(va).query(vb)
    if not np.isfinite(da.sum() + db.sum()):
        raise FloatingPointError("nearest-neighbour distances between the vertex sets overflow")
    d_ab = np.linalg.norm(va - vb[ia], axis=1).mean()
    d_ba = np.linalg.norm(vb - va[ib], axis=1).mean()
    return float(0.5 * (d_ab + d_ba))
